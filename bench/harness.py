"""One measured run: episodes of one workload until ``--seconds`` of timed
work are done, then the metrics.

An *episode* is set-up -> warm-up -> timed region -> outcome, on a fresh
program: every ``repro.*`` module is dropped from ``sys.modules`` first, so
each episode pays the program's import and construction again and ``setup_s``
is a median over several full set-ups, not one sample. Episodes of one run
use the same seed, so they do the same work: their history digests must be
equal (determinism), and taking each round's fastest timing over them sheds
the host's bursts. Around every episode the reference kernel of
:mod:`bench.calibrate` says how fast the host is at that moment; timings are
scaled by it.

A traced run alternates untraced and traced episodes. The traced ones install
the wrappers of :mod:`bench.layers` and give the per-layer numbers; the
untraced ones are the base of ``trace.overhead_share``, and their digest must
equal the traced one (the wrappers are invisible to the program).

The loop is closed: one driver, one thread, the next round starts when the
previous one returns.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from bench import host, workloads
from bench.calibrate import NOMINAL_S, Reference
from bench.metrics import END_TO_END, LAYERS, PER_LAYER, median, tail_percentile

__all__ = ["Episode", "run", "report"]

@dataclass
class Episode:
    traced: bool
    ops: int = 1
    setup_s: float = 0.0
    warmup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    host_speed: float = 1.0  # NOMINAL_S / reference pass time around the episode
    unit_s: list = field(default_factory=list)  # wall of each round (sweep: each cell)
    error: str | None = None
    outcome: workloads.Outcome | None = None
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    origin: float = 0.0  # clock at the start of the timed region

    @property
    def noisy(self) -> bool:
        """Something else had the CPU for a tenth of the timed region."""
        return bool(self.wall_s) and self.cpu_s / self.wall_s < 0.9

    def row(self) -> dict:
        """The episode's raw numbers for the run table (spans have their own file)."""
        names = ("traced", "ops", "setup_s", "warmup_s", "wall_s", "cpu_s", "host_speed",
                 "unit_s", "error", "counts")
        return {**{name: getattr(self, name) for name in names}, "noisy": self.noisy}


def _purge_program() -> None:
    for name in [n for n in sys.modules if n.split(".")[0] == "repro"]:
        del sys.modules[name]
    gc.collect()


def _episode(name: str, seed: int, smoke: bool, traced: bool) -> Episode:
    ep = Episode(traced=traced)
    _purge_program()
    tracer = undo = None
    clock = time.perf_counter
    try:
        if traced:
            from bench import layers, spans

            tracer = spans.Tracer()
            undo = layers.install(tracer)
        t0 = clock()
        workload = workloads.build(name, seed, smoke)
        ep.setup_s = clock() - t0
        ep.ops = workload.ops
        try:
            t0 = clock()
            workload.warmup()
            ep.warmup_s = clock() - t0
            if tracer is not None:
                tracer.clear()
            cpu0, ep.origin = time.process_time(), clock()
            workload.timed(tracer)
            ep.wall_s = clock() - ep.origin
            ep.cpu_s = time.process_time() - cpu0
            ep.unit_s = workload.unit_s
            if tracer is not None:
                # Cut here: the outcome's own calls into the program (a
                # verification round, history_to_dict) are not timed work.
                ep.spans, ep.counts = list(tracer.spans), dict(tracer.counts)
            ep.outcome = workload.outcome()
        finally:
            workload.close()
    except Exception:
        # The run must still print a result: the episode's operations count
        # as failed and the traceback goes to stderr.
        ep.error = traceback.format_exc()
        print(ep.error, file=sys.stderr)
    finally:
        if undo is not None:
            layers.remove(undo)
    return ep


def _episodes(name: str, seed: int, seconds: float, smoke: bool, traced: bool) -> list[Episode]:
    """Episodes until ``seconds`` of timed wall are done (at least one); a
    traced run alternates, untraced first, and ends on a traced one. An
    episode that raised ends the run. The reference kernel runs between
    episodes: each is scaled by the faster of the two passes around it."""
    reference = Reference()
    episodes: list[Episode] = []
    pass_s = reference.measure()
    while (
        not episodes
        or (traced and len(episodes) % 2)
        or (sum(ep.wall_s for ep in episodes) < seconds and episodes[-1].error is None)
    ):
        ep = _episode(name, seed, smoke, traced and len(episodes) % 2 == 1)
        before, pass_s = pass_s, reference.measure()
        ep.host_speed = NOMINAL_S / min(before, pass_s)
        episodes.append(ep)
    return episodes


def _rounds_per_s(episodes: list[Episode]) -> float:
    """Operations per second of an episode stitched from the fastest timing of
    each of its rounds (for the sweep: of each of its cells).

    Round ``i`` is the same work in every episode of a run, and interference
    only ever slows it down, so the fastest of its timings is the least
    disturbed one. Each timing is first scaled to the reference host speed.
    Measured over ten seeds, against the median of whole episodes: quartile
    distance 3.7 % of the median instead of 10.4 % on ``sweep_modes``, where
    bursts of a second or two hit one episode in three.
    """
    scaled = ([t * ep.host_speed for t in ep.unit_s] for ep in episodes)
    return episodes[0].ops / sum(min(timings) for timings in zip(*scaled))


def _end_to_end(episodes: list[Episode]) -> dict[str, float]:
    return {
        # Seconds at the reference host speed. The low median: a run's first
        # set-up is its one cold sample (first touch of every page it
        # allocates), and in a run of two episodes must not count for half.
        "setup_s": statistics.median_low(ep.setup_s * ep.host_speed for ep in episodes),
        "rounds_per_s": _rounds_per_s(episodes),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(episodes: list[Episode]) -> dict[str, float]:
    from bench.spans import ROUND_LAYER, layer_totals

    plain = [ep for ep in episodes if not ep.traced]
    traced = [ep for ep in episodes if ep.traced]
    totals = [layer_totals(ep.spans) for ep in traced]
    out: dict[str, float] = {}

    def per_episode(fn) -> float:
        """Median over the traced episodes of ``fn(episode, its layer totals)``."""
        return median(fn(ep, tot) for ep, tot in zip(traced, totals))

    def self_s(tot, layer) -> float:
        return tot.get(layer, (0.0, 0))[0]

    def count(name: str) -> float:
        return per_episode(lambda ep, tot: ep.counts.get(name, 0))

    def rate(name: str, layer: str) -> float:
        return per_episode(lambda ep, tot: _ratio(ep.counts.get(name, 0), self_s(tot, layer)))

    def share(name: str, other: str) -> float:
        return per_episode(
            lambda ep, tot: _ratio(
                ep.counts.get(name, 0), ep.counts.get(name, 0) + ep.counts.get(other, 0)
            )
        )

    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_episode(lambda ep, tot: self_s(tot, layer))
        out[f"{layer}.calls"] = per_episode(lambda ep, tot: tot.get(layer, (0.0, 0))[1])
        out[f"{layer}.share"] = per_episode(lambda ep, tot: self_s(tot, layer) / ep.wall_s)
    out["compress.coords_per_s"] = rate("compress.coords", "compress")
    out["compress.kept_entries"] = count("compress.kept")
    out["mask.coords_per_s"] = rate("mask.coords", "mask")
    out["aggregate.entries_per_s"] = rate("aggregate.entries", "aggregate")
    out["train.samples_per_s"] = rate("train.samples", "train")
    out["hydrate.miss_share"] = share("hydrate.misses", "hydrate.hits")
    out["world.hit_share"] = share("world.hits", "world.misses")
    out["price.flows"] = count("price.flows")
    # Round times are pooled over the traced episodes: more samples reach a
    # higher percentile.
    round_ms = [
        (end - start) * 1e3
        for ep in traced
        for _id, layer, start, end, *_ in ep.spans
        if layer == ROUND_LAYER
    ]
    out["round.ms_p50"] = median(round_ms)
    out["round.tail_pct"], out["round.ms_tail"] = tail_percentile(round_ms)
    out["program.train_s"] = per_episode(lambda ep, tot: ep.outcome.program_train_s)
    out["program.compress_s"] = per_episode(lambda ep, tot: ep.outcome.program_compress_s)
    out["sim.final_accuracy"] = traced[0].outcome.final_accuracy
    out["sim.uplink_mb"] = traced[0].outcome.uplink_mb
    out["sim.time_to_target_s"] = traced[0].outcome.sim_time_to_target_s
    out["trace.coverage"] = per_episode(
        lambda ep, tot: sum(s for s, _ in tot.values()) / ep.wall_s
    )
    out["trace.overhead_share"] = (
        median(ep.wall_s * ep.host_speed for ep in traced)
        / median(ep.wall_s * ep.host_speed for ep in plain)
        - 1.0
    )
    out["driver.warmup_s"] = median(ep.warmup_s for ep in plain)
    out["driver.cpu_share"] = median(ep.cpu_s / ep.wall_s for ep in plain)
    return out


def run(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool = False
) -> tuple[dict, list[Episode]]:
    """Measure one workload: the run's row of the run table, and its episodes."""
    manifest = {
        **host.manifest(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "smoke": smoke,
    }
    episodes = _episodes(name, seed, seconds, smoke, traced)
    manifest["load_end"] = host.load_average()

    metrics: dict[str, float] = {}
    checks: list[tuple[str, bool, str]] = []
    complete = all(ep.outcome is not None for ep in episodes)
    if complete:
        metrics = _per_layer(episodes) if traced else _end_to_end(episodes)
        digests = {ep.outcome.digest for ep in episodes}
        kinds = "traced and untraced" if traced else "all"
        checks.append(
            (f"{kinds} episodes share one digest", len(digests) == 1, f"{len(digests)} distinct")
        )
        if traced:
            coverage = metrics["trace.coverage"]
            checks.append(
                (
                    "layer self times add up to the traced wall",
                    abs(coverage - 1.0) <= 0.02,
                    f"{coverage:.4f}",
                )
            )
        for i, ep in enumerate(episodes):
            checks += [(f"episode {i}: {n}", ok, detail) for n, ok, detail in ep.outcome.checks]
    attempted = sum(ep.ops for ep in episodes)
    correct = (
        complete
        and all(ok for _, ok, _ in checks)
        and not any(ep.outcome.failed for ep in episodes)
    )
    units = PER_LAYER if traced else END_TO_END
    row = {
        "manifest": manifest,
        "correct": correct,
        "attempted": attempted,
        # An operation fails if it raises or records a non-finite loss — or
        # if a correctness check of its run fails, and then all of them do.
        "failed": 0 if correct else attempted,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "digest": episodes[0].outcome.digest if episodes[0].outcome is not None else None,
        "episodes": [ep.row() for ep in episodes],
    }
    return row, episodes


def report(row: dict, episodes: list[Episode]) -> str:
    """Print the run for a reader, store it under ``bench/out/``, and return
    the one-line JSON object the driver reads."""
    man = row["manifest"]
    print(
        f"workload {man['workload']}  seed {man['seed']}  traced {man['traced']}  "
        f"episodes {len(episodes)}  digest {row['digest']}"
    )
    for i, ep in enumerate(episodes):
        print(
            f"  episode {i} {'traced  ' if ep.traced else 'untraced'} set-up {ep.setup_s:.3f} s  "
            f"warm-up {ep.warmup_s:.3f} s  timed {ep.wall_s:.3f} s = {ep.ops / ep.wall_s:.4g} "
            f"rounds/s raw  host speed {ep.host_speed:.3f}"
            + ("  NOISY (cpu/wall < 0.9)" if ep.noisy else "")
        )
    for check in row["checks"]:
        print(f"  {'ok  ' if check['ok'] else 'FAIL'} {check['name']}  {check['detail']}")
    for name, m in row["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")

    host.OUT_DIR.mkdir(exist_ok=True)
    if man["traced"]:
        from bench.spans import write_jsonl

        path = host.OUT_DIR / f"{man['workload']}.trace.jsonl"
        path.write_text("")
        for i, ep in enumerate(episodes):
            if ep.traced:
                write_jsonl(path, ep.spans, origin=ep.origin, extra={"episode": i})
    with open(host.OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(row) + "\n")
    return json.dumps({k: row[k] for k in ("correct", "attempted", "failed", "metrics")})
