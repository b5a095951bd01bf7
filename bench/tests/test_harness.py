"""The benchmark's own arithmetic and plumbing (not the program's behaviour)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import layers, metrics
from bench.compare import verdict
from bench.spans import Tracer, layer_totals

ROOT = Path(__file__).resolve().parents[2]


class _Clock:
    """A clock the test sets by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _spans_by_layer(tracer) -> dict:
    return {layer: (start, end, parent, op, self_s)
            for _id, layer, start, end, parent, op, self_s in tracer.spans}


def test_self_time_nested_and_sibling_spans():
    clock = _Clock()
    tracer = Tracer(clock)
    # round 0..10 { train 1..4, aggregate 5..7 { mask 5.5..6.5 } }
    outer = tracer.open("round")
    clock.now = 1.0
    a = tracer.open("train")
    clock.now = 4.0
    tracer.close(a)
    clock.now = 5.0
    b = tracer.open("aggregate")
    clock.now = 5.5
    c = tracer.open("mask")
    clock.now = 6.5
    tracer.close(c)
    clock.now = 7.0
    tracer.close(b)
    clock.now = 10.0
    tracer.close(outer)

    spans = _spans_by_layer(tracer)
    assert spans["train"][4] == pytest.approx(3.0)
    assert spans["mask"][4] == pytest.approx(1.0)
    assert spans["aggregate"][4] == pytest.approx(1.0)  # 2 s minus its 1 s child
    assert spans["round"][4] == pytest.approx(5.0)  # 10 s minus 3 s and 2 s
    # Self times add up to what the top-level span covers.
    assert sum(s for s, _ in layer_totals(tracer.spans).values()) == pytest.approx(10.0)
    # Parent links and one shared op id under the round.
    round_id = next(sid for sid, layer, *_ in tracer.spans if layer == "round")
    agg_id = next(sid for sid, layer, *_ in tracer.spans if layer == "aggregate")
    assert spans["round"][2] is None
    assert spans["train"][2] == round_id and spans["mask"][2] == agg_id
    assert {spans[name][3] for name in spans} == {0}


def test_same_layer_nesting_is_one_span_and_rounds_number_ops():
    clock = _Clock()
    tracer = Tracer(clock)
    seen = []
    inner = tracer.wrap("compress", lambda x: seen.append(x) or x,
                        lambda counts, args, kwargs, result: counts.update(inner=1))
    outer = tracer.wrap("compress", lambda x: inner(x) + 1,
                        lambda counts, args, kwargs, result: counts.update(outer=1))
    for _ in range(2):
        with tracer.span("round"):
            assert outer(1) == 2
    assert [layer for _id, layer, *_ in tracer.spans] == ["compress", "round"] * 2
    assert tracer.counts == {"outer": 2}  # the inner call did not count again
    assert [op for *_, op, _self in tracer.spans] == [0, 0, 1, 1]
    with pytest.raises(RuntimeError):
        with tracer.span("round"):
            tracer.clear()


def test_wrapper_closes_its_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("train", boom)()
    assert [layer for _id, layer, *_ in tracer.spans] == ["train"]
    tracer.clear()  # no span left open


@pytest.mark.parametrize(
    "n, expected_pct",
    [(8, 100.0), (39, 100.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it(n, expected_pct):
    samples = list(range(1, n + 1))
    pct, value = metrics.tail_percentile(samples)
    assert pct == expected_pct
    if pct == 100.0:
        assert value == n
    else:
        assert sum(1 for s in samples if s > value) >= 10
        # Nearest rank: at least pct % of the samples lie at or below the value.
        assert 1000 * sum(1 for s in samples if s <= value) >= round(10 * pct) * n


def _tiny_history() -> dict:
    from repro.fl.config import ExperimentConfig
    from repro.io.history_io import history_to_dict
    from repro.simtime import make_simulation

    config = ExperimentConfig(algorithm="bcrs_opwa", compression_ratio=0.1, rounds=3,
                              num_train=200, num_test=50, num_edges=2, mode="hier")
    with make_simulation(config) as sim:
        return history_to_dict(sim.run())


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path, node


def test_digest_ignores_the_wall_clock_fields_and_nothing_else():
    payload = _tiny_history()
    base = metrics.history_digest(payload)
    assert base == metrics.history_digest(copy.deepcopy(payload))
    changed = unchanged = 0
    for path, value in _leaves(payload):
        mutated = copy.deepcopy(payload)
        node = mutated
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 12345.678 if value != 12345.678 else 0.0
        if path[-1] in ("train_seconds", "compress_seconds"):
            assert metrics.history_digest(mutated) == base, path
            unchanged += 1
        else:
            assert metrics.history_digest(mutated) != base, path
            changed += 1
    assert unchanged == 2 * len(payload["records"]) and changed > 50
    assert payload["records"][0]["train_seconds"] > 0  # the input is left alone


def _program_bindings() -> dict:
    """Every attribute of every repro module and of every class they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_install_then_remove_restores_the_identical_objects():
    layers._import_program()
    before = _program_bindings()
    tracer = Tracer()
    undo = layers.install(tracer)
    try:
        during = _program_bindings()
        replaced = {key for key, value in before.items() if during[key] is not value}
        # Methods on classes, functions in their home module, by-name imports.
        assert ("repro.fl.client", "Client", "local_train") in replaced
        assert ("repro.population.hydration", "ClientPool", "__getitem__") in replaced
        assert ("repro.network.transport", "Payload", "from_update") in replaced
        assert ("repro.simtime.protocols", "AsyncSimulation", "run_round") in replaced
        assert ("repro.robust.aggregators", "robust_aggregate") in replaced
        assert ("repro.fl.simulation", "robust_aggregate") in replaced
        assert ("repro.scenarios", "run_cell") in replaced

        # A wrapped static method still works and leaves a span.
        from repro.compression.base import SparseUpdate
        from repro.network.transport import Payload

        update = SparseUpdate(
            dense_size=4, indices=np.array([1]), values=np.array([2.0], np.float32)
        )
        assert Payload.from_update(update).bits == 64.0
        assert [layer for _id, layer, *_ in tracer.spans] == ["price"]
    finally:
        layers.remove(undo)
    after = _program_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_wrapped_callable_belongs_to_a_catalogued_layer():
    seen = []
    tracer = Tracer()
    original = tracer.wrap
    tracer.wrap = lambda layer, fn, work=None: seen.append(layer) or original(layer, fn, work)
    tracer.span = lambda layer: seen.append(layer)
    layers._import_program()
    layers._targets(tracer)
    # `hydrate` and `world` also come through _cache_lookup, which names its
    # layer when called; the table must cover every catalogued layer.
    assert set(seen) | {"hydrate", "world"} == set(metrics.LAYERS)


def test_benchmark_json_is_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == metrics.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == [
        "paper_sync", "fleet_round", "sweep_modes", "wide_kernels"]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "rounds_per_s", "peak_rss_mb"]
    assert len(spec["per_layer"]) == 3 * len(metrics.LAYERS) + 20 == 65
    for m in spec["end_to_end"]:
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25 and m["unit"]
    for m in spec["per_layer"]:
        assert m["better"] in ("lower", "higher") and m["unit"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_verdicts():
    def s(*values):
        return {**metrics.summary(values), "values": list(values)}

    tight_a = s(10.0, 10.1, 10.2, 10.1)
    assert verdict(tight_a, s(9.0, 9.1, 9.2, 9.0), "lower", 0.1) == "better"
    assert verdict(tight_a, s(12.0, 12.1, 12.2, 12.0), "lower", 0.1) == "worse"
    assert verdict(tight_a, s(10.3, 10.0, 10.2, 10.1), "lower", 0.1) == "within bound"
    assert verdict(tight_a, s(9.0, 9.1, 9.2, 9.0), "higher", 0.05) == "worse"
    noisy_a = s(8.0, 10.0, 12.0, 14.0)
    assert verdict(noisy_a, s(9.0, 13.0, 12.5, 11.0), "lower", 0.1) == "unresolved"
    assert verdict(noisy_a, s(20.0, 21.0, 22.0, 23.0), "lower", 0.1) == "worse"
    same = s(0.5, 0.5, 0.5)
    assert verdict(same, same, "higher", 0.01) == "within bound"


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_sync", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_smoke_passes_and_wrappers_are_invisible():
    done = subprocess.run([sys.executable, "-m", "bench", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all checks passed" in done.stdout and "FAIL" not in done.stdout
    rows = [json.loads(line) for line in
            (ROOT / "bench" / "out" / "runs.jsonl").read_text().splitlines()[-8:]]
    assert sorted(r["manifest"]["workload"] for r in rows) == sorted(2 * list(metrics.WORKLOADS))
    for row in rows:
        assert row["correct"] and row["failed"] == 0 and row["manifest"]["smoke"]
        names = {c["name"] for c in row["checks"] if c["ok"]}
        if row["manifest"]["traced"]:
            assert set(row["metrics"]) == set(metrics.PER_LAYER)
            assert "traced and untraced episodes share one digest" in names
            assert "layer self times add up to the traced wall" in names
        else:
            assert set(row["metrics"]) == set(metrics.END_TO_END)
            assert all(m["value"] > 0 for m in row["metrics"].values())
