"""Robustness golden-history suite: adversarial and faulty runs, frozen.

Each ``*.json`` beside this file is the deterministic trace of one
``robust_golden_configs.ROBUST_GOLDEN_CONFIGS`` entry — every protocol
mode × {honest, sign_flip, lossy} — captured by
:mod:`repro.testing.goldens` and replayed here bit-for-bit on the serial
backend. Adversarial membership and fault fates are pure functions of
``(seed, stream, counter)``, so the backend must not leak into the trace:
the invariance harness (``tests/test_invariance.py``) checks that for drawn
adversarial and faulty configs.

Regenerate after an intentional trace change with
``scripts/regen_goldens.py`` or ``REGEN_GOLDEN=1 pytest tests/goldens``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.testing.goldens import check_golden, regen_requested, run_trace
from tests.goldens.robust_golden_configs import ROBUST_GOLDEN_CONFIGS, golden_name

GOLDEN_DIR = Path(__file__).parent


@pytest.mark.parametrize("name", sorted(ROBUST_GOLDEN_CONFIGS))
def test_serial_replays_golden(name):
    """Every mode × variant golden, bit-for-bit on the serial backend."""
    trace = run_trace(ROBUST_GOLDEN_CONFIGS[name].with_(backend="serial"))
    check_golden(GOLDEN_DIR / golden_name(name), trace, name=name)


def test_goldens_cover_all_modes_and_variants():
    """The suite spans every mode × variant cell (guards golden rot)."""
    cells = {tuple(name.rsplit("-", 1)) for name in ROBUST_GOLDEN_CONFIGS}
    assert cells == {
        (mode, variant)
        for mode in ("sync", "semisync", "async", "hier")
        for variant in ("honest", "sign_flip", "lossy")
    }
    if not regen_requested():
        missing = [
            n
            for n in ROBUST_GOLDEN_CONFIGS
            if not (GOLDEN_DIR / golden_name(n)).exists()
        ]
        assert not missing, f"goldens missing: {missing}"
