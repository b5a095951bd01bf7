"""The population refactor's bit-for-bit contract, pinned against goldens.

``goldens/*.json`` are frozen pre-refactor traces (see ``make_goldens.py``):
full histories plus span logs from the eager ``list[Client]`` construction,
captured before the struct-of-arrays population landed. Every test here
replays a golden config serially through the population path via the
shared :mod:`repro.testing.goldens` harness and requires *bitwise* equality
— across all four protocol modes (sync, semisync, async, hier), and under
an LRU so small that clients are evicted and rehydrated mid-run. That the
population path replays the same on every backend is the invariance
harness's check (``tests/test_invariance.py``).

These goldens are frozen artifacts, not build products: ``check_golden`` is
called with ``regen=False`` so ``REGEN_GOLDEN=1`` (which rebuilds the
robustness goldens in ``tests/goldens``) can never overwrite them. One
amendment since capture: PR 17 fixed ``RoundRecord.ratios`` for dense and
quantised updates in sync (one ``1.0`` per emitted update, where the record
used to be empty), and ``sync-qsgd8.json`` pinned the defect — its four
``ratios`` lists were edited ``[] → [1.0] * 6``, every other byte as captured.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.testing.goldens import check_golden, run_trace
from tests.population.golden_configs import GOLDEN_CONFIGS, golden_name

GOLDEN_DIR = Path(__file__).parent / "goldens"


def assert_matches(name: str, trace: dict) -> None:
    check_golden(GOLDEN_DIR / golden_name(name), trace, name=name, regen=False)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_serial_reproduces_pre_refactor_golden(name):
    """Every mode × algorithm golden, bit-for-bit on the serial backend."""
    trace = run_trace(GOLDEN_CONFIGS[name].with_(backend="serial"))
    assert_matches(name, trace)


@pytest.mark.parametrize("name", ["sync-eftopk", "async-topk"])
def test_tiny_hydration_cache_is_invisible(name):
    """An LRU of 2 forces constant evict/rehydrate churn mid-run; loader
    streams and compressor state persist outside the cache, so the trace
    must stay bitwise identical to the eager construction's."""
    trace = run_trace(
        GOLDEN_CONFIGS[name].with_(backend="serial", hydration_cache=2)
    )
    assert_matches(name, trace)


def test_goldens_cover_all_modes():
    """The frozen suite spans every protocol mode (guards golden rot)."""
    modes = {cfg.mode for cfg in GOLDEN_CONFIGS.values()}
    assert modes == {"sync", "semisync", "async", "hier"}
    assert all((GOLDEN_DIR / golden_name(n)).exists() for n in GOLDEN_CONFIGS)
