"""Serial backend — the reference implementation every other backend must match.

Executes tasks one at a time in selection order on the caller's own context
(the simulation's model instance), which is exactly the pre-backend
behaviour of ``Simulation.run_round``: bit-identical histories by
construction.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.exec.base import ClientTask, ExecutionBackend, TaskResult, TrainSpec, WorkerContext

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution on a single shared context."""

    name = "serial"

    def __init__(self, context: WorkerContext):
        self.context = context

    def run_round(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray | None,
        spec: TrainSpec,
    ) -> Iterator[TaskResult]:
        return (self.context.execute(t, global_params, spec) for t in tasks)
