"""A run imports only the subsystems it selects.

Package ``__init__``s re-export what every run of the package needs; each
optional subsystem is imported by the code that selects it — the backend
factory, the mode dispatch, a compressor's factory. A sync, serial
``bcrs_opwa`` run (the paper's Sec. 5.1 cell, ``bench``'s ``paper_sync`` at
smoke size) therefore never loads the modules below, and every module it
loads is compiled and executed on each cold start.

The same holds for the CLI: each verb imports what it runs, so
``python -m repro info`` loads no preset, reporting or HTML code.

The program itself depends on nothing but the standard library and numpy:
no file under ``src/repro``, ``examples/`` or ``scripts/`` imports anything
else, lazily or not.

The checks run in a fresh interpreter, so no other test can have loaded a
module first. The positive controls prove each selector still reaches its
subsystem.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import textwrap

import pytest

from tests.repo_index import REPO, repo_index

SRC = REPO / "src"

#: Optional subsystems a sync, serial, ``bcrs_opwa`` run never executes.
UNSELECTED = (
    "repro.compression.ef",
    "repro.compression.quantization",
    "repro.data.stats",
    "repro.exec.process",
    "repro.io.checkpoint",
    "repro.obs.profile",
    "repro.obs.progress",
    "repro.robust.attacks",
    "repro.simtime.protocols",
)
#: ``repro`` modules the sync, serial run loads: every one is compiled and
#: executed on each cold start (51 since the one-class MLP replaced five
#: ``repro.nn`` modules; the run loads ``repro.nn``, ``.mlp``, ``.losses``
#: and ``.optim``). A change that needs more raises it and says why.
SYNC_RUN_MODULE_CEILING = 51
#: Packages (with everything below them) the run has no business loading.
UNSELECTED_PACKAGES = (
    "repro.hier",
    "repro.scenarios",
    "repro.report",
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

    def process_backend():
        sim = make_simulation(config(backend="process", workers=1, num_train=200, num_test=50))
        sim.backend  # built on first access; forks only when a round runs
        sim.close()

    out["process"] = new_modules(process_backend)
    print(json.dumps(out))
    """
)


#: ``python -m repro info``, then the modules it loaded.
INFO_SCRIPT = textwrap.dedent(
    """
    import json
    import runpy
    import sys

    sys.argv = ["repro", "info"]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
    print(json.dumps(sorted(sys.modules)))
    """
)


@functools.cache
def _run_probe(script: str = SCRIPT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
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
    assert "repro.exec.process" in probe["process"]


def test_a_sync_serial_run_stays_within_its_module_budget():
    loaded = _under(_run_probe()["sync_run"], "repro")
    assert len(loaded) <= SYNC_RUN_MODULE_CEILING, loaded


def test_the_info_verb_loads_no_reporting_or_preset_code():
    """Each CLI verb imports what it runs: listing the registries renders
    nothing and builds no preset."""
    loaded = _run_probe(INFO_SCRIPT)
    assert "repro.cli" in loaded  # the probe really ran the CLI
    for package in ("repro.report", "repro.viz", "repro.experiments"):
        assert _under(loaded, package) == []


#: Top-level modules the program may import besides the standard library.
THIRD_PARTY = ("numpy",)
#: Repo-local modules a script puts on ``sys.path`` itself, with their file.
LOCAL_MODULES = {"robust_golden_configs": "tests/goldens/robust_golden_configs.py"}


@pytest.mark.parametrize("root", ["src/repro", "examples", "scripts"])
def test_the_program_imports_only_the_stdlib_numpy_and_itself(root):
    assert all((REPO / f).is_file() for f in LOCAL_MODULES.values())
    allowed = set(sys.stdlib_module_names) | {"repro", *THIRD_PARTY, *LOCAL_MODULES}
    foreign = [
        f"{f.rel}:{line} imports {module}"
        for f in repo_index().files
        if f.under(root)
        for module, _, _, _, line in f.imports
        if module.split(".")[0] not in allowed
    ]
    assert foreign == []
