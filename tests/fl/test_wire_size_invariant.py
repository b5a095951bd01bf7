"""Every upload is billed the wire size its compressor declared at registration.

Pricing never sees an update: :meth:`Simulation._payload_for` bills each
dispatch from :func:`~repro.compression.registry.wire_size` at the priced
width, before the update is trained. Without ``volume_override_bits`` the
priced width is the trained one, so each billed upload must measure exactly
what the update behind it measures (:meth:`Payload.from_update`): the
delivered prefix of a truncated upload, the full update of a dropped one. That
is checked dispatch by dispatch on every pinned round-path cell (its override
removed) and every registered scenario but ``mega-fleet``, two rounds each —
all four modes, every registered compressor, both fault fates. Under the
override the billed bits are the declaration at width V/32, truncation
included; ``mega-fleet`` (a 10,000-client cohort) is left out for its size.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.compression.registry import available_compressors
from repro.compression.sparsifiers import k_from_ratio
from repro.fl.algorithms import make_algorithm
from repro.fl.simulation import Simulation
from repro.network.transport import FaultInjector, Payload
from repro.scenarios.registry import REGISTRY
from repro.simtime import make_simulation

from tests.fl.test_round_paths_pinned import _ASYNC, _SEMISYNC, CELLS, _cfg
from tests.test_invariance import ASYNC_DEGRADES

UNPRICED = {name: cfg.with_(volume_override_bits=None, rounds=2) for name, cfg in CELLS.items()}
UNPRICED.update(
    {f"scenario:{s.name}": s.to_config().with_(rounds=2) for s in REGISTRY if s.name != "mega-fleet"}
)

#: The pinned cells that price a paper-scale volume, plus a quantizer under it
#: (the override once billed every compressor as Top-K's 2·V·r).
OVERRIDDEN = {name: cfg for name, cfg in CELLS.items() if cfg.volume_override_bits is not None}
OVERRIDDEN["async-qsgd8-lossy-volume"] = _cfg(
    **_ASYNC, compressor="qsgd8", truncate_prob=0.4, volume_override_bits=4e8
)


def compressor_of(cfg) -> str | None:
    return cfg.compressor or make_algorithm(cfg).compressor_name


def priced_and_trained(cfg, monkeypatch) -> tuple[list, list]:
    """``(cid, ratio, frac, payload)`` of every priced dispatch and the task
    result of every trained one, each in the order the run made them.

    Every protocol trains its dispatches in the order it prices them — sync
    and hier price a cohort, then stream its training; semisync and async
    price at dispatch and train each window's dispatches in dispatch order —
    so the two lists align, the priced one longer by the async uploads still
    in flight at the end.
    """
    priced, trained = [], []
    live_stage, live_tasks = Simulation._stage_dispatch, Simulation._run_tasks

    def stage(self, cid, link, ratio, frac=1.0):
        out = live_stage(self, cid, link, ratio, frac)
        priced.append((cid, ratio, frac, out[0]))
        return out

    def run_tasks(self, tasks, global_params, spec):
        for result in live_tasks(self, tasks, global_params, spec):
            trained.append(result)
            yield result

    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "_stage_dispatch", stage)
        patch.setattr(Simulation, "_run_tasks", run_tasks)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ASYNC_DEGRADES, UserWarning)
            with make_simulation(cfg) as sim:
                sim.run()
    return priced, trained


def test_the_cells_reach_every_mode_compressor_and_fault():
    cfgs = UNPRICED.values()
    assert {c.mode for c in cfgs} == {"sync", "semisync", "async", "hier"}
    assert {compressor_of(c) for c in cfgs} == set(available_compressors()) | {None}
    assert {c.mode for c in cfgs if c.truncate_prob > 0} >= {"sync", "semisync", "async"}


@pytest.mark.parametrize("name", sorted(UNPRICED))
def test_billed_bits_are_the_delivered_updates_bits(name, monkeypatch):
    priced, trained = priced_and_trained(UNPRICED[name], monkeypatch)
    assert trained and len(trained) <= len(priced)
    for (cid, _, frac, payload), result in zip(priced, trained):
        assert result.cid == cid
        full = result.update
        delivered = FaultInjector.truncate(full, frac) if frac < 1.0 else full
        want = Payload.from_update(delivered or full)
        assert (payload.bits, payload.kind) == (want.bits, want.kind)


@pytest.mark.parametrize("name", sorted(OVERRIDDEN))
def test_override_bills_the_declaration_at_width_v_over_32(name, monkeypatch):
    cfg = OVERRIDDEN[name]
    width = int(cfg.volume_override_bits) // 32
    priced, trained = priced_and_trained(cfg, monkeypatch)
    dense_size = trained[0].update.dense_size  # the trained width
    truncated = 0
    for _, ratio, frac, payload in priced:
        if compressor_of(cfg) == "qsgd8":  # 8-bit values, never truncated
            assert payload == Payload(8.0 * width, "quantized")
            continue
        k = k_from_ratio(width, ratio)
        # the server receives a truncation with an entry left at the trained width
        received = 0 < frac < 1.0 and int(frac * k_from_ratio(dense_size, ratio)) >= 1
        truncated += received
        assert payload == Payload(64.0 * (max(1, int(frac * k)) if received else k), "sparse")
    if cfg.truncate_prob > 0 and compressor_of(cfg) != "qsgd8":
        assert truncated  # a truncation billed its kept prefix


def test_a_truncation_the_server_refuses_is_billed_whole():
    """Delivery is decided at the trained width, billing at the priced one.
    Under ``volume_override_bits`` a truncation can keep entries of the wide
    priced declaration yet none of the trained update; the server then
    receives nothing, so the upload is billed whole, as a drop is."""
    cfg = _cfg(compression_ratio=0.01, volume_override_bits=4.7e7, truncate_prob=1.0)
    with make_simulation(cfg) as sim:
        trained_k = k_from_ratio(sim.dense_size, 0.01)
        priced_k = k_from_ratio(int(cfg.volume_override_bits) // 32, 0.01)
        assert (trained_k, priced_k) == (336, 14_688)
        assert not sim._delivers(0.01, 0.001)  # int(0.001 · 336) = 0 entries arrive
        assert sim._payload_for(0.01, 0.001) == Payload(64.0 * priced_k, "sparse")
        for frac in (0.0, 0.001, 0.002, 0.003, 0.01, 0.5, 0.999, 1.0):
            received = frac < 1.0 and sim._delivers(0.01, frac)
            kept = max(1, int(frac * priced_k)) if received else priced_k
            assert sim._payload_for(0.01, frac) == Payload(64.0 * kept, "sparse"), frac


@pytest.mark.parametrize("mode", ["sync", "semisync", "async"])
def test_a_sync_round_refuses_an_update_its_declaration_does_not_cover(monkeypatch, mode):
    """Every mode decides from the declared wire size, at dispatch, which
    truncated uploads still deliver an entry, and prices and weights the
    round by it; an emitted update shorter than its declaration would break
    that plan, so the round refuses it instead of folding a different cohort
    (or dropping an upload it billed as a delivered prefix)."""
    from repro.compression import registry
    from repro.compression.base import SparseUpdate

    class OneEntry:
        def compress(self, update, ratio):
            return SparseUpdate(dense_size=update.size, indices=np.array([0]), values=update[:1].copy())

    monkeypatch.setattr(registry, "_FACTORIES", dict(registry._FACTORIES))
    registry.register_compressor(
        "one_entry",
        lambda seed=0: OneEntry(),
        wire=lambda d, ratio: (k_from_ratio(d, ratio), 64, "sparse"),
        seeded=False,
        stateful=False,
    )
    modes = {"sync": {}, "semisync": _SEMISYNC, "async": _ASYNC}
    with make_simulation(_cfg(**modes[mode], compressor="one_entry", truncate_prob=1.0)) as sim:
        with pytest.raises(RuntimeError, match="contradicts its declared wire size"):
            sim.run_round()
