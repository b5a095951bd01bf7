"""Serializable experiment scenarios.

A :class:`ScenarioSpec` is a *complete, declarative* description of one
experiment: a name, prose (what the scenario models, what outcome to
expect), tags, and the :class:`~repro.fl.config.ExperimentConfig` fields
that differ from the defaults. It round-trips losslessly through plain
dicts (``to_dict``/``from_dict``), bridges to the live config
(``to_config``/``from_config``), and hashes stably (``spec_hash``) so the
sweep run store can key persisted results by *what was run*, not by when.

Values entering a spec — from JSON, from CLI ``--grid field=a,b,c`` axes —
are typed through the config dataclass's own declared field types by
:func:`coerce_field`, so ``"false"`` becomes ``False`` for a bool field and
``"none"`` becomes ``None`` for an optional one instead of a truthy string.
"""

from __future__ import annotations

import hashlib
import json
import types
import typing
from dataclasses import dataclass, field, fields, replace

from repro.fl.config import ExperimentConfig

__all__ = [
    "ScenarioSpec",
    "coerce_field",
    "config_field_names",
    "config_to_dict",
    "config_overrides",
]

#: Strings accepted (case-insensitively) as ``None`` for optional fields.
_NONE_WORDS = frozenset({"none", "null", "nil", "~"})
_TRUE_WORDS = frozenset({"true", "1", "yes", "on"})
_FALSE_WORDS = frozenset({"false", "0", "no", "off"})

#: Config fields that no longer exist, at their old defaults (nothing but
#: tests set them). ``spec_hash`` still hashes them so run-store cells
#: recorded while they were fields keep their keys and resume. A stored
#: spec whose overrides *name* one fails to load.
_RETIRED_FIELDS = {
    "momentum": 0.0,
    "weight_decay": 0.0,
    "local_optimizer": "sgd",
    "downlink_factor": 10.0,
    "compute_s_per_sample": 5e-3,
}


def _field_types() -> dict[str, type]:
    """Resolved annotation per ExperimentConfig field (cached)."""
    cache = getattr(_field_types, "_cache", None)
    if cache is None:
        cache = typing.get_type_hints(ExperimentConfig)
        _field_types._cache = cache
    return cache


def config_field_names() -> tuple[str, ...]:
    """The ExperimentConfig field names, in declaration order."""
    return tuple(f.name for f in fields(ExperimentConfig))


def _unwrap_optional(tp) -> tuple[type, bool]:
    """(base type, is_optional) for ``X | None`` annotations."""
    if isinstance(tp, types.UnionType) or typing.get_origin(tp) is typing.Union:
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0], True
    return tp, False


def coerce_field(name: str, value):
    """Type ``value`` through ExperimentConfig's declared type for ``name``.

    Accepts already-typed values (JSON loads, programmatic overrides) and
    strings (CLI axes). Booleans parse ``true/false``-style words instead of
    Python's truthiness — ``bool("false")`` is ``True``, which is exactly
    the ``cli sweep`` bug this helper exists to fix — and optional fields
    accept ``None`` or the word ``"none"``. Raises ``ValueError`` on
    unknown fields or unparseable values.
    """
    try:
        tp = _field_types()[name]
    except KeyError:
        known = ", ".join(config_field_names())
        raise ValueError(f"unknown config field {name!r}; expected one of: {known}") from None
    base, optional = _unwrap_optional(tp)

    # None-words map to None only for optional fields: "none" is a real
    # *value* of plain str fields (e.g. contention="none").
    if optional and (
        value is None
        or (isinstance(value, str) and value.strip().lower() in _NONE_WORDS)
    ):
        return None
    if value is None:
        raise ValueError(f"field {name!r} ({base.__name__}) does not accept None")

    if base is bool:
        if isinstance(value, bool):
            return value
        word = str(value).strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ValueError(f"field {name!r} expects a boolean, got {value!r}")
    if base is int:
        if isinstance(value, bool):
            raise ValueError(f"field {name!r} expects an int, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"field {name!r} expects an int, got {value!r}")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ValueError(f"field {name!r} expects an int, got {value!r}") from None
    if base is float:
        if isinstance(value, bool):
            raise ValueError(f"field {name!r} expects a float, got {value!r}")
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ValueError(f"field {name!r} expects a float, got {value!r}") from None
    if base is str:
        return str(value)
    raise ValueError(f"field {name!r} has unsupported type {tp!r}")  # pragma: no cover


def config_to_dict(config: ExperimentConfig) -> dict:
    """Every config field as a plain JSON-able dict, in declaration order."""
    return {name: getattr(config, name) for name in config_field_names()}


def config_overrides(config: ExperimentConfig) -> dict:
    """The fields of ``config`` that differ from the dataclass defaults."""
    defaults = ExperimentConfig()
    return {
        name: getattr(config, name)
        for name in config_field_names()
        if getattr(config, name) != getattr(defaults, name)
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, self-contained experiment description.

    ``overrides`` holds the ExperimentConfig fields that differ from the
    defaults — the *whole* experiment (dataset/partition, algorithm,
    compressor, protocol mode, hierarchy, transport/contention, seed) is
    reachable through them. ``axes`` records this spec's coordinates in a
    sweep grid (set by :func:`~repro.scenarios.grid.expand_grid`; empty for
    standalone scenarios) so reports can compute per-axis marginals.
    ``description`` says what the scenario models and ``expected`` the
    qualitative outcome — both feed the generated ``docs/SCENARIOS.md``.
    """

    name: str
    description: str = ""
    expected: str = ""
    tags: tuple[str, ...] = ()
    overrides: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        # Validate eagerly: every override must name a real field and carry
        # a value of its declared type. (Cross-field constraints are checked
        # by ExperimentConfig itself in to_config().)
        typed = {k: coerce_field(k, v) for k, v in self.overrides.items()}
        object.__setattr__(self, "overrides", typed)
        object.__setattr__(self, "tags", tuple(self.tags))

    # ------------------------------------------------------------- bridging

    def to_config(self) -> ExperimentConfig:
        """The live (validated) ExperimentConfig this spec describes."""
        return ExperimentConfig(**self.overrides)

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig,
        *,
        name: str,
        description: str = "",
        expected: str = "",
        tags: tuple[str, ...] = (),
        axes: dict | None = None,
    ) -> "ScenarioSpec":
        """Capture a config as a spec (only non-default fields are stored)."""
        return cls(
            name=name,
            description=description,
            expected=expected,
            tags=tags,
            overrides=config_overrides(config),
            axes=dict(axes or {}),
        )

    def with_overrides(self, **extra) -> "ScenarioSpec":
        """A copy with ``extra`` config fields layered on top."""
        merged = dict(self.overrides)
        merged.update(extra)
        return replace(self, overrides=merged)

    # --------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Plain JSON-able representation; ``from_dict`` round-trips it."""
        return {
            "name": self.name,
            "description": self.description,
            "expected": self.expected,
            "tags": list(self.tags),
            "overrides": dict(self.overrides),
            "axes": dict(self.axes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (values re-typed)."""
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            expected=data.get("expected", ""),
            tags=tuple(data.get("tags", ())),
            overrides=dict(data.get("overrides", {})),
            axes=dict(data.get("axes", {})),
        )

    # ---------------------------------------------------------------- hashing

    def spec_hash(self) -> str:
        """Stable 16-hex-digit key of the *resolved* experiment.

        Hashes the full effective config (defaults filled in), so two specs
        describing the same experiment — regardless of name, prose, or
        which fields were spelled out — share a run-store cell, and a
        default's value changing in a future version changes the key
        (stale cached results are not silently reused).
        """
        resolved = {**_RETIRED_FIELDS, **config_to_dict(self.to_config())}
        payload = json.dumps(resolved, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def summary(self) -> str:
        """One-line human summary: name, mode, algorithm, key knobs."""
        cfg = self.to_config()
        parts = [f"mode={cfg.mode}", f"algorithm={cfg.algorithm}"]
        if cfg.compressor is not None:
            parts.append(f"compressor={cfg.compressor}")
        if cfg.contention != "none":
            parts.append(f"contention={cfg.contention}")
        if cfg.mode == "hier":
            parts.append(f"edges={cfg.num_edges}")
        parts.append(f"seed={cfg.seed}")
        return f"{self.name}: " + " ".join(parts)
