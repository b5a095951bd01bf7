"""Dispatch pricing with the cohort's links handed down, against the old arithmetic.

The protocol loops build each selected client's ``LinkSpec`` once per round
and pass it to pricing and to the ingress pipe. Until then every dispatch
re-derived its link from ``sim.links[cid]`` (three times).
``ref_stage_dispatch`` / ``ref_price_round`` below are those bodies, frozen:
they ignore the link they are handed and look everything up again at pricing
time (the link as ``sim.links[cid]``, the speed as
``sim.population.s_per_sample[cid]``). A live run must land on the same
bytes — durations, up/down bits, every priced dispatch, the span log and the
whole history — in all four protocols, with and without contention, downlink
accounting and drifting links (where a stale link from an earlier round
would show).
"""

from __future__ import annotations

import warnings

import pytest

from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.simtime import make_simulation
from repro.simtime.profiles import pipeline_times
from repro.simtime.protocols import _EventDrivenSimulation
from repro.testing.goldens import sim_trace
from tests.test_invariance import ASYNC_DEGRADES


def config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=384,
        num_test=96,
        num_clients=12,
        participation=0.5,
        rounds=4,
        batch_size=32,
        lr=0.1,
        seed=5,
        eval_every=2,
        algorithm="bcrs_opwa",
        compression_ratio=0.1,
        num_edges=3,
        link_volatility=0.6,
        server_ingress_mbps=4.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---- the arithmetic as it stood ----------------------------------------------


def ref_stage_dispatch(self, cid, link, ratio, frac=1.0):
    cfg = self.config
    payload = self._payload_for(ratio, frac)
    down, train_t, up = pipeline_times(
        self.links[cid],
        float(self.population.s_per_sample[cid]),
        volume_bits=self.volume_bits,
        num_samples=int(self.population.data_sizes[cid]),
        epochs=cfg.local_epochs,
        include_downlink=cfg.include_downlink,
        payload=payload,
    )
    return payload, down, train_t, up


def ref_price_round(self, selected, links, ratios, fracs, t, tag):
    cfg = self.config
    staged = []
    for pos, cid in enumerate(selected):
        cid = int(cid)
        ratio = None if ratios is None else float(ratios[pos])
        frac = 1.0 if fracs is None else fracs[pos]
        payload, down, train_t, up = self._stage_dispatch(cid, None, ratio, frac)
        staged.append((cid, payload, down, train_t, up))

    ends = None
    if self.transport.contended:
        flows = [
            (payload, self.links[cid], (t + down) + train_t)
            for cid, payload, down, train_t, _ in staged
        ]
        ends = self.transport.resolve_uploads(flows)

    durations, up_bits, down_bits = [], [], []
    for pos, (cid, payload, down, train_t, up) in enumerate(staged):
        t0 = t + down
        self.spans.add(cid, "train", t0, t0 + train_t, tag=tag)
        if ends is None:
            self.spans.add(cid, "upload", t0 + train_t, t0 + train_t + up, tag=tag)
            durations.append(down + train_t + up)
        else:
            self.spans.add(cid, "upload", t0 + train_t, ends[pos], tag=tag)
            durations.append(ends[pos] - t)
        up_bits.append(payload.bits)
        down_bits.append(self.volume_bits if cfg.include_downlink else 0.0)
    return durations, up_bits, down_bits


# ---- one run, with what pricing returned --------------------------------------


def run(cfg: ExperimentConfig, monkeypatch, *, reference: bool):
    """History, span log and every pricing result of one seeded run."""
    priced: list = []
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(Simulation, "_stage_dispatch", ref_stage_dispatch)
            patch.setattr(Simulation, "_price_round", ref_price_round)
            live_dispatch = _EventDrivenSimulation._dispatch
            # the pipe, too, was handed a link looked up at the dispatch
            patch.setattr(
                _EventDrivenSimulation,
                "_dispatch",
                lambda self, cid, link, ratio, t: live_dispatch(
                    self, cid, self.links[cid], ratio, t
                ),
            )
        for name in ("_price_round", "_stage_dispatch"):
            inner = getattr(Simulation, name)

            def recording(self, *args, _inner=inner, **kwargs):
                out = _inner(self, *args, **kwargs)
                priced.append(out)
                return out

            patch.setattr(Simulation, name, recording)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ASYNC_DEGRADES, UserWarning)
            trace = sim_trace(make_simulation(cfg))
    return trace["history"], trace["spans"], priced


CASES = [
    (mode, contention, downlink, drifting)
    for mode in ("sync", "semisync", "async", "hier")
    for contention in ("none", "fair")
    for downlink in (False, True)
    for drifting in (False, True)
    if not (mode == "async" and drifting)  # async refuses drifting links
]


@pytest.mark.parametrize("mode,contention,downlink,drifting", CASES)
def test_pricing_matches_the_per_dispatch_lookups(
    mode, contention, downlink, drifting, monkeypatch
):
    cfg = config(
        mode=mode,
        contention=contention,
        include_downlink=downlink,
        time_varying_links=drifting,
    )
    ref_history, ref_spans, ref_priced = run(cfg, monkeypatch, reference=True)
    history, spans, priced = run(cfg, monkeypatch, reference=False)
    assert priced and len(priced) == len(ref_priced)
    assert priced == ref_priced  # durations / bits / payloads, float for float
    assert spans == ref_spans
    assert history == ref_history


def test_drifting_links_are_re_read_every_round(monkeypatch):
    """The reference is sensitive to what it guards: pricing round *r* over
    round 0's links changes the virtual clock of a drifting run."""
    cfg = config(mode="sync", time_varying_links=True)
    history, _, _ = run(cfg, monkeypatch, reference=False)

    stale: dict[int, object] = {}
    live_stage = Simulation._stage_dispatch

    def stage_over_first_link(self, cid, link, ratio, frac=1.0):
        return live_stage(self, cid, stale.setdefault(cid, link), ratio, frac)

    monkeypatch.setattr(Simulation, "_stage_dispatch", stage_over_first_link)
    frozen, _, _ = run(cfg, monkeypatch, reference=False)
    assert [r["sim_end"] for r in frozen["records"]] != [
        r["sim_end"] for r in history["records"]
    ]
