"""A run imports only the subsystems it selects.

Package ``__init__``s re-export what every run of the package needs; each
optional subsystem is imported by the code that selects it — the backend
factory, the mode dispatch, a compressor's factory. A sync, serial
``bcrs_opwa`` run (the paper's Sec. 5.1 cell, ``bench``'s ``paper_sync`` at
smoke size) therefore never loads the modules below, and every module it
loads is compiled and executed on each cold start.

The check runs in a fresh interpreter, so no other test can have loaded a
module first. The positive controls prove each selector still reaches its
subsystem.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Optional subsystems a sync, serial, ``bcrs_opwa`` run never executes.
UNSELECTED = (
    "repro.compression.ef",
    "repro.compression.quantization",
    "repro.compression.sign",
    "repro.data.stats",
    "repro.exec.process",
    "repro.exec.threads",
    "repro.fl.decentralized",
    "repro.io.checkpoint",
    "repro.obs.profile",
    "repro.obs.progress",
    "repro.robust.attacks",
    "repro.simtime.protocols",
)
#: Packages (with everything below them) the run has no business loading.
UNSELECTED_PACKAGES = (
    "repro.hier",
    "repro.scenarios",
    "repro.report",
    "repro.analysis",
    "repro.experiments",
    "repro.viz",
    "repro.cli",
    "multiprocessing",
    "concurrent.futures",
)

SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    from repro.fl.config import ExperimentConfig
    from repro.simtime import make_simulation

    def config(**overrides):
        fields = dict(
            dataset="synth-cifar10", model="mlp", num_train=2000, num_test=500,
            num_clients=10, participation=0.5, beta=0.5, partition="dirichlet",
            rounds=1, local_epochs=1, batch_size=64, lr=0.1,
            algorithm="bcrs_opwa", compression_ratio=0.1, alpha=0.3, gamma=7.0,
            mode="sync", backend="serial", eval_every=2, seed=1,
        )
        fields.update(overrides)
        return ExperimentConfig(**fields)

    def loaded():
        return set(sys.modules)

    out = {}
    sim = make_simulation(config())
    sim.run_round()
    sim.close()
    out["sync_run"] = sorted(loaded())

    from repro.compression.registry import (
        available_compressors, compressor_traits, make_compressor,
    )

    def new_modules(action):
        before = loaded()
        action()
        return sorted(loaded() - before)

    out["traits"] = new_modules(
        lambda: [compressor_traits(n) for n in available_compressors()]
    )
    out["ef_topk"] = new_modules(lambda: make_compressor("ef_topk"))
    out["qsgd8"] = new_modules(lambda: make_compressor("qsgd8"))
    out["semisync"] = new_modules(
        lambda: make_simulation(config(mode="semisync", num_train=200, num_test=50)).close()
    )

    def thread_backend():
        sim = make_simulation(config(backend="thread", workers=1, num_train=200, num_test=50))
        sim.backend  # built on first access
        sim.close()

    out["thread"] = new_modules(thread_backend)
    print(json.dumps(out))
    """
)


def _run_probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _under(modules, package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_a_sync_serial_run_loads_only_what_it_selects():
    probe = _run_probe()
    sync_run = probe["sync_run"]
    assert "repro.fl.simulation" in sync_run  # the probe really ran the engine

    assert [m for m in UNSELECTED if m in sync_run] == []
    assert [m for pkg in UNSELECTED_PACKAGES for m in _under(sync_run, pkg)] == []

    # Validating or listing compressors imports no compressor implementation.
    assert _under(probe["traits"], "repro") == []
    # Each selector still reaches its subsystem.
    assert "repro.compression.ef" in probe["ef_topk"]
    assert "repro.compression.quantization" in probe["qsgd8"]
    assert "repro.simtime.protocols" in probe["semisync"]
    assert "repro.exec.threads" in probe["thread"]
