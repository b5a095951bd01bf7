"""No update outlives its round.

A round folds each upload into the aggregate as it arrives
(:class:`~repro.core.aggregation.CohortFold`) and keeps, of its members, only
the scalars its record reports; ``Simulation.last_overlap`` keeps the last
aggregation's O(d) overlap counts for Fig. 4. So once ``run_round`` returns,
every update a sync or hier round trained is gone, on every backend. The
event-driven protocols hold in-flight and carried-over uploads by design,
but not the ones they aggregated.

Checked structurally — weak references and the backend's dispatch hook, no
RSS.
"""

from __future__ import annotations

import weakref

import pytest

from repro.core.aggregation import CohortFold
from repro.exec import BACKENDS
from repro.simtime import make_simulation
from tests.test_invariance import small_config

CASES = [(mode, backend) for mode in ("sync", "semisync", "async", "hier") for backend in BACKENDS]


def lifetime_config(mode: str, backend: str):
    """Eight clients of uniform Top-K; hier splits them over two edges of two sub-rounds."""
    extra = dict(num_edges=2, edge_rounds=2) if mode == "hier" else {}
    return small_config(
        num_clients=8, algorithm="topk", mode=mode, backend=backend,
        workers=2 if backend != "serial" else None, **extra,
    )


def refs_of(update) -> list[weakref.ref]:
    return [weakref.ref(update.indices), weakref.ref(update.values)]


@pytest.mark.parametrize("mode, backend", CASES)
def test_previous_round_updates_are_released_before_dispatch(mode, backend, monkeypatch):
    """Every update a round aggregated is gone once the round returns, and
    the next round dispatches with no overlap left over from it."""
    folded: list[weakref.ref] = []
    real_add = CohortFold.add

    def recording_add(self, update, weight=0.0):
        folded.extend(refs_of(update))
        return real_add(self, update, weight)

    monkeypatch.setattr(CohortFold, "add", recording_add)
    with make_simulation(lifetime_config(mode, backend)) as sim:
        sim.run_round()
        assert folded and sim.last_overlap is not None
        assert all(ref() is None for ref in folded)
        previous, folded[:] = list(folded), []

        dispatches = []
        inner = sim.backend.run_round

        def checked_run_round(tasks, *args, **kwargs):
            # Every dispatch of the next round (hier and async make several)
            # starts with the previous round's overlap forgotten.
            dispatches.append(len(tasks))
            if len(dispatches) == 1:
                assert sim.last_overlap is None
            assert all(ref() is None for ref in previous)
            return inner(tasks, *args, **kwargs)

        sim.backend.run_round = checked_run_round
        record = sim.run_round()

        assert dispatches, "the round dispatched no task"
        assert folded and all(ref() is None for ref in folded)
        # After the round returns, last_overlap is its last aggregation's.
        assert sim.last_overlap is not None
        assert sim.last_overlap.num_clients <= len(record.ratios)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["sync", "hier"])
def test_no_update_outlives_its_round(mode, backend):
    """Not one update a sync or hier round's backend yielded — aggregated or
    not — is alive once ``run_round`` returns."""
    with make_simulation(lifetime_config(mode, backend)) as sim:
        yielded: list[weakref.ref] = []
        inner = sim.backend.run_round

        def recording_run_round(tasks, *args, **kwargs):
            for result in inner(tasks, *args, **kwargs):
                yielded.append(weakref.ref(result))
                yielded.extend(refs_of(result.update))
                yield result

        sim.backend.run_round = recording_run_round
        for _ in range(2):
            sim.run_round()
            assert yielded and all(ref() is None for ref in yielded)
            yielded.clear()
