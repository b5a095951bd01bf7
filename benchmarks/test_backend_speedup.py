"""Execution-backend throughput: process pool vs serial on one round shape.

The paper's wall-clock claims (Fig. 10, Table 3) need many simulated rounds;
the execution engine (src/repro/exec/) parallelizes the round's client
training. This bench runs an 8-client full-participation round load on the
serial and process backends, checks the results are bit-identical, and
measures the speedup. The ≥2× speedup claim is asserted only where it can
hold — on a ≥4-core runner (CI); on smaller machines the bench still
verifies equivalence and reports the measured ratio.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit
from repro.experiments import format_table
from repro.fl import ExperimentConfig, Simulation

#: Cores the process pool uses — and the bar for asserting the speedup.
WORKERS = 4


def bench_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=4800,  # 600 samples/client: enough local work to amortize IPC
        num_test=200,
        num_clients=8,
        participation=1.0,  # the 8-client round of the speedup claim
        rounds=2,
        local_epochs=8,
        batch_size=32,
        algorithm="topk",
        compression_ratio=0.1,
        eval_every=10,  # keep (serial) evaluation out of the timed region
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def timed_run(cfg: ExperimentConfig) -> tuple[float, object]:
    with Simulation(cfg) as sim:
        sim.backend  # build the backend (fork/pool startup) outside the timing
        t0 = time.perf_counter()
        history = sim.run()
        return time.perf_counter() - t0, history


def test_process_backend_speedup():
    # Best of two on both sides: a single noisy-neighbor stall on a shared
    # CI runner should not fail the whole tier-1 job on timing alone.
    serial_s, serial_hist = timed_run(bench_cfg())
    serial_s = min(serial_s, timed_run(bench_cfg())[0])
    process_s, process_hist = timed_run(bench_cfg(backend="process", workers=WORKERS))
    process_s = min(process_s, timed_run(bench_cfg(backend="process", workers=WORKERS))[0])

    # Parallelism must never change results — only wall-clock time.
    for a, b in zip(serial_hist.records, process_hist.records):
        assert a.train_loss == b.train_loss
        assert a.ratios == b.ratios
        assert a.weights == b.weights

    cores = os.cpu_count() or 1
    speedup = serial_s / process_s
    emit(
        f"Execution backends — 8-client round, {WORKERS} workers, {cores} cores",
        format_table(
            ["backend", "wall (s)", "speedup"],
            [
                ["serial", f"{serial_s:.2f}", "1.00x"],
                ["process", f"{process_s:.2f}", f"{speedup:.2f}x"],
            ],
        ),
    )

    if cores >= 4:
        # 8 clients over 4 workers: ideal 4x; ≥2x leaves room for IPC and
        # the per-round parameter broadcast.
        assert speedup >= 2.0, f"expected >=2x on {cores} cores, got {speedup:.2f}x"
