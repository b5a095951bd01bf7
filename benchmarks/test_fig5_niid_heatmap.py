"""Fig. 5 — Dirichlet label-skew heatmaps across clients (CIFAR-10).

Paper: class×client sample-count matrices for β=0.5 (moderate) and β=0.1
(severe). Shape claims: β=0.1 concentrates classes on few clients (many empty
cells, higher EMD-to-global, lower per-client label entropy) while β=0.5
spreads them; both allocate every sample exactly once.
"""


from benchmarks.conftest import emit
from repro.data.datasets import make_dataset
from repro.data.partition import dirichlet_partition
from repro.data.stats import heatmap_text, mean_emd_to_global, mean_label_entropy


def build_partitions():
    ds = make_dataset("synth-cifar10", 5000, seed=0)
    p05 = dirichlet_partition(ds.y, 10, 0.5, seed=1)
    p01 = dirichlet_partition(ds.y, 10, 0.1, seed=1)
    return ds, p05, p01


def test_fig5_heatmaps():
    ds, p05, p01 = build_partitions()

    for beta, part in [(0.5, p05), (0.1, p01)]:
        emit(
            f"Fig. 5 — NIID distribution, beta={beta} "
            f"(EMD-to-global {mean_emd_to_global(part):.3f}, "
            f"mean label entropy {mean_label_entropy(part):.3f} nats)",
            heatmap_text(part),
        )

    # Every sample assigned exactly once.
    for part in (p05, p01):
        assert part.sizes().sum() == len(ds)
    # Severity ordering (the figure's visual contrast, quantified).
    assert mean_emd_to_global(p01) > mean_emd_to_global(p05)
    assert mean_label_entropy(p01) < mean_label_entropy(p05)
    # β=0.1 produces more empty class×client cells than β=0.5.
    empty01 = int((p01.counts_matrix() == 0).sum())
    empty05 = int((p05.counts_matrix() == 0).sum())
    assert empty01 > empty05
