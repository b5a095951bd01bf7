"""Synthetic federated image-classification datasets.

The paper evaluates on CIFAR-10, CIFAR-100 and SVHN; this environment has no
network access, so we generate *synthetic stand-ins* with the same tensor
geometry (``C×H×W`` float images, integer labels) and learnable class
structure (docs/ARCHITECTURE.md). Each class is a smooth spatial template plus
class-conditional color statistics; samples are template + noise + random
shift, so models must learn spatially structured features (not just means),
and harder datasets overlap their templates more.

- ``synth-cifar10``: 10 balanced classes, moderate difficulty.
- ``synth-cifar100``: 100 balanced classes, crowded label space (low accuracy
  ceiling, like real CIFAR-100).
- ``synth-svhn``: 10 classes with imbalanced priors (real SVHN digit
  frequencies are skewed) and easier separation (real SVHN reaches higher
  accuracy than CIFAR-10 at equal budget).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["Dataset", "SyntheticSpec", "make_dataset", "DATASET_SPECS", "train_test_split"]


@dataclass
class Dataset:
    """An in-memory split: images ``x`` (N, C, H, W) float32, labels ``y`` (N,) int64."""

    name: str
    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"x/y length mismatch: {self.x.shape[0]} vs {self.y.shape[0]}")
        if self.x.ndim != 4:
            raise ValueError(f"x must be (N, C, H, W), got shape {self.x.shape}")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    @property
    def in_channels(self) -> int:
        return int(self.x.shape[1])

    @property
    def image_size(self) -> int:
        return int(self.x.shape[2])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """View of the dataset restricted to ``indices`` (copies the arrays)."""
        indices = np.asarray(indices)
        return Dataset(self.name, self.x[indices], self.y[indices], self.num_classes)


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator recipe for one synthetic dataset."""

    name: str
    num_classes: int
    image_size: int = 8
    channels: int = 3
    noise_std: float = 0.8
    template_scale: float = 1.0
    class_priors: tuple[float, ...] | None = None  # None = balanced
    max_shift: int = 1

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.class_priors is not None and len(self.class_priors) != self.num_classes:
            raise ValueError("class_priors length must equal num_classes")


def _class_templates(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Smooth per-class spatial templates of shape (K, C, H, W).

    Templates are low-frequency 2-D cosine mixtures with class-specific phases
    and channel gains, so nearby pixels correlate (image-like) and classes are
    distinguishable but overlapping.
    """
    k, c, s = spec.num_classes, spec.channels, spec.image_size
    yy, xx = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    templates = np.zeros((k, c, s, s), dtype=np.float64)
    n_waves = 3
    for cls in range(k):
        freqs = rng.uniform(0.5, 2.0, size=(n_waves, 2))
        phases = rng.uniform(0, 2 * np.pi, size=(n_waves, 2))
        amps = rng.normal(0, 1, size=n_waves)
        gains = rng.normal(1.0, 0.3, size=c)
        plane = np.zeros((s, s))
        for w in range(n_waves):
            plane += amps[w] * np.cos(
                2 * np.pi * freqs[w, 0] * yy / s + phases[w, 0]
            ) * np.cos(2 * np.pi * freqs[w, 1] * xx / s + phases[w, 1])
        for ch in range(c):
            templates[cls, ch] = gains[ch] * plane
    # Normalize template energy so noise_std sets a consistent SNR.
    norms = np.sqrt((templates**2).mean(axis=(1, 2, 3), keepdims=True))
    templates = spec.template_scale * templates / np.maximum(norms, 1e-12)
    return templates


def make_dataset(
    spec: SyntheticSpec | str,
    num_samples: int,
    seed: int | np.random.Generator = 0,
) -> Dataset:
    """Sample ``num_samples`` labelled images from ``spec``.

    The same seed always yields the same dataset (templates are derived from a
    sub-stream so train/test splits drawn with different seeds share classes
    only if generated in one call — use :func:`train_test_split`).
    """
    if isinstance(spec, str):
        spec = DATASET_SPECS[spec]
    if num_samples <= 0:
        raise ValueError(f"num_samples must be > 0, got {num_samples}")
    rng = as_generator(seed)
    template_rng = np.random.default_rng(rng.integers(0, 2**63))
    templates = _class_templates(spec, template_rng)

    if spec.class_priors is None:
        priors = np.full(spec.num_classes, 1.0 / spec.num_classes)
    else:
        priors = np.asarray(spec.class_priors, dtype=np.float64)
        priors = priors / priors.sum()
    y = rng.choice(spec.num_classes, size=num_samples, p=priors).astype(np.int64)

    x = templates[y].copy()
    if spec.max_shift > 0:
        # Random circular shifts make the task translation-robust, not
        # solvable by a single pixel.
        shifts = rng.integers(-spec.max_shift, spec.max_shift + 1, size=(num_samples, 2))
        for axis in (0, 1):
            for shift in range(-spec.max_shift, spec.max_shift + 1):
                if shift == 0:
                    continue
                sel = shifts[:, axis] == shift
                if sel.any():
                    x[sel] = np.roll(x[sel], shift, axis=axis + 2)
    x += rng.normal(0, spec.noise_std, size=x.shape)
    return Dataset(spec.name, x.astype(np.float32), y, spec.num_classes)


def train_test_split(
    spec: SyntheticSpec | str,
    num_train: int,
    num_test: int,
    seed: int | np.random.Generator = 0,
) -> tuple[Dataset, Dataset]:
    """Generate train and test splits sharing the same class templates."""
    full = make_dataset(spec, num_train + num_test, seed)
    rng = as_generator(seed if not isinstance(seed, np.random.Generator) else seed)
    perm = np.random.default_rng(12345).permutation(len(full))
    return full.subset(perm[:num_train]), full.subset(perm[num_train:])


# Imbalanced priors loosely matching real SVHN digit frequencies ('1' is most common).
_SVHN_PRIORS = (0.07, 0.19, 0.15, 0.12, 0.10, 0.09, 0.08, 0.08, 0.07, 0.05)

DATASET_SPECS: dict[str, SyntheticSpec] = {
    "synth-cifar10": SyntheticSpec(name="synth-cifar10", num_classes=10, noise_std=0.9),
    "synth-cifar100": SyntheticSpec(name="synth-cifar100", num_classes=100, noise_std=1.0),
    "synth-svhn": SyntheticSpec(
        name="synth-svhn", num_classes=10, noise_std=0.6, class_priors=_SVHN_PRIORS
    ),
}
