"""Null-path budget: what an untraced run pays for its instrumentation.

With observability off every ``tracer.span(...)`` site still runs — it gets
the shared no-op context manager back (``test_null_tracer_is_inert``). That
is free only while the number of sites reached per round is a small
constant, so this pins the count: a run opens a fixed number of null spans
per aggregation round plus one per client hydration, and none per client,
per local step or per dispatch. Counts, not nanoseconds per call — they
repeat exactly.
"""

from __future__ import annotations

import warnings

import pytest

from repro.fl.config import ExperimentConfig
from repro.obs.tracer import NullTracer
from repro.simtime import make_simulation
from tests.test_invariance import ASYNC_DEGRADES

ROUNDS = 3

#: Null spans per round: sync opens round, sample, plan, aggregate,
#: transport.price, evaluate; the event-driven protocols sample and price
#: outside spans; a two-edge hierarchy opens subround, plan, transport.price,
#: aggregate per edge beside the cloud's round and evaluate.
SPANS_PER_ROUND = {"sync": 6, "semisync": 4, "async": 3, "hier": 10}


def null_spans(mode: str, num_clients: int) -> tuple[int, int]:
    """(null spans opened, client hydrations) over one untraced run."""
    config = ExperimentConfig(
        num_train=400,
        num_test=80,
        num_clients=num_clients,
        participation=0.5,
        rounds=ROUNDS,
        batch_size=16,
        algorithm="bcrs_opwa",
        compression_ratio=0.1,
        mode=mode,
        num_edges=2 if mode == "hier" else 1,
        seed=3,
    )
    opened = 0
    inner = NullTracer.span

    def counting(self, name, **kwargs):
        nonlocal opened
        opened += 1
        return inner(self, name, **kwargs)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.filterwarnings("ignore", ASYNC_DEGRADES, UserWarning)
        patch.setattr(NullTracer, "span", counting)
        with make_simulation(config) as sim:
            sim.run()
            hydrations = sim.clients.hydrations
    return opened, hydrations


@pytest.mark.parametrize("mode", SPANS_PER_ROUND)
def test_null_spans_are_per_round_plus_hydrations(mode):
    per_round = SPANS_PER_ROUND[mode] * ROUNDS
    for num_clients in (10, 40):
        opened, hydrations = null_spans(mode, num_clients)
        # A four-fold cohort (and four times the local steps and dispatches)
        # adds hydrations and nothing else.
        assert opened == per_round + hydrations, (mode, num_clients, opened, hydrations)
