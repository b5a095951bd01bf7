"""Command-line interface.

::

    python -m repro run --dataset cifar10 --algorithm bcrs_opwa --cr 0.1 --beta 0.1
    python -m repro run --dataset cifar10 --mode async --buffer-size 3
    python -m repro run --dataset cifar10 --mode hier --num-edges 4 --edge-rounds 2
    python -m repro run --dataset cifar10 --contention fair --ingress-mbps 2
    python -m repro comm --dataset cifar10 --algorithm topk --cr 0.1
    python -m repro sweep --dataset svhn --cr 0.01 --grid algorithm=fedavg,topk,eftopk,bcrs,bcrs_opwa
    python -m repro sweep --grid gamma=3,5,7 --grid alpha=0.1,0.3 --seeds 2 --parallel 4
    python -m repro sweep --algorithm topk --grid mode=sync,semisync,async --target-acc 0.3
    python -m repro sweep --mode hier --backhaul-mbps 100 --grid num_edges=1,2,5
    python -m repro scenario list
    python -m repro scenario run straggler-storm
    python -m repro report --store runs/ --trace trace.json --out report.html
    python -m repro info

More than one run is a sweep: an algorithm comparison, a mode race and an
edge-width sweep are ``sweep --grid`` over ``algorithm``, ``mode`` and
``num_edges``. ``run``/``comm``/``scenario run`` accept ``--save-history
out.json`` and ``--export-csv out.csv`` for downstream plotting; on ``sweep``
the same flags write one file per cell (``out.json.<spec hash>.json``).
``sweep --store DIR`` persists one JSON per grid cell and resumes
interrupted sweeps (completed cells are skipped on rerun). ``--html PATH``
on ``run``/``comm``/``sweep``/``scenario run`` renders a self-contained HTML
report of the run's artifacts; the ``report`` verb rebuilds one post-hoc
from stored files. A config the flags cannot build (``--workers 0``,
``--contention fair`` without ``--ingress-mbps``) is a usage error: its
message on stderr, exit status 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro import __version__
from repro.compression.registry import available_compressors
from repro.fl.config import (
    ADVERSARIES,
    AGGREGATORS,
    ALGORITHMS,
    BACKENDS,
    CONTENTION_MODES,
    EDGE_ASSIGNMENTS,
    MODES,
)
from repro.obs import load_trace, make_obs
from repro.scenarios import (
    REGISTRY,
    RunStore,
    ScenarioSpec,
    SWEEP_EXECUTORS,
    SweepReport,
    SweepRunner,
    expand_grid,
    get_scenario,
    parse_axis,
)
from repro.simtime import make_simulation

__all__ = ["main", "build_parser", "CONFIG_FLAGS"]

#: Every flag that sets one ``ExperimentConfig`` field, declared once:
#: ``(flag, field, argparse kwargs)``. The parser stores each under its
#: field name with default None ("not typed" — the preset's or scenario's
#: value stands) unless the kwargs give a CLI default; :func:`_config`
#: copies the non-None ones into the config.
CONFIG_FLAGS = (
    ("--beta", "beta", dict(type=float, default=0.5, help="Dirichlet heterogeneity")),
    ("--cr", "compression_ratio", dict(type=float, default=0.1, help="compression ratio CR*")),
    ("--rounds", "rounds", dict(type=int, help="communication rounds")),
    ("--seed", "seed", dict(type=int, help="root seed (default: 0)")),
    ("--backend", "backend", dict(
        choices=BACKENDS,
        help="execution backend for the round's client work (default: serial)")),
    ("--workers", "workers", dict(
        type=int,
        help="worker count for the process backend (default: auto)")),
    ("--mode", "mode", dict(
        choices=MODES,
        help="round protocol: lock-step sync (default), deadline semisync, "
             "FedBuff async, cloud-edge-client hier")),
    ("--num-clients", "num_clients", dict(
        type=int, metavar="N",
        help="fleet size (population columns scale to millions; see "
             "--virtual-shards for fleets larger than the corpus)")),
    ("--participation", "participation", dict(
        type=float, metavar="C", help="fraction of the fleet sampled per round")),
    ("--virtual-shards", "virtual_shards", dict(
        action="store_true",
        help="fleet-scale data regime: client shards are counter-seeded "
             "draws from the shared corpus instead of a partition of it")),
    ("--hydration-cache", "hydration_cache", dict(
        type=int, metavar="K",
        help="LRU capacity for hydrated Client objects (default: cohort size)")),
    ("--deadline", "deadline_s", dict(
        type=float, metavar="SECONDS",
        help="semisync: fixed round deadline on the virtual clock "
             "(default: per-round quantile of predicted finish times)")),
    ("--buffer-size", "buffer_size", dict(
        type=int, metavar="K",
        help="async: aggregate every K arrivals (default: half the concurrency)")),
    ("--num-edges", "num_edges", dict(
        type=int, metavar="E",
        help="hier: edge aggregators between cloud and clients (default: 1)")),
    ("--edge-rounds", "edge_rounds", dict(
        type=int, metavar="K1",
        help="hier: client↔edge sub-rounds per cloud round (default: 1)")),
    ("--edge-assignment", "edge_assignment", dict(
        choices=EDGE_ASSIGNMENTS,
        help="hier: client→edge placement (default: contiguous)")),
    ("--backhaul-mbps", "backhaul_bandwidth_mbps", dict(
        type=float, metavar="MBPS",
        help="hier: mean edge↔cloud bandwidth (default: free backhaul)")),
    ("--backhaul-latency", "backhaul_latency_s", dict(
        type=float, metavar="SECONDS",
        help="hier: mean edge↔cloud latency (default: 0)")),
    ("--contention", "contention", dict(
        choices=CONTENTION_MODES,
        help="server-ingress contention: exclusive links, or fair-shared "
             "capacity (needs --ingress-mbps)")),
    ("--ingress-mbps", "server_ingress_mbps", dict(
        type=float, metavar="MBPS",
        help="shared server-ingress capacity fair-shared among concurrent "
             "uploads (per edge under --mode hier)")),
    ("--adversary", "adversary", dict(
        choices=ADVERSARIES,
        help="byzantine client behavior (members drawn per client from a "
             "seed-pure counter stream; see --adversary-fraction)")),
    ("--adversary-fraction", "adversary_fraction", dict(
        type=float, metavar="F",
        help="expected fraction of adversarial clients (default: 0)")),
    ("--adversary-scale", "adversary_scale", dict(
        type=float, metavar="LAMBDA",
        help="update magnification for --adversary scaled (default: 10)")),
    ("--aggregator", "aggregator", dict(
        choices=AGGREGATORS, help="server aggregation rule (default: weighted mean)")),
    ("--trim-beta", "trim_beta", dict(
        type=float, metavar="BETA",
        help="trimmed_mean: trim ⌊β·n⌋ updates per coordinate tail")),
    ("--clip-tau", "clip_tau", dict(
        type=float, metavar="TAU", help="norm_clip: L2 radius updates are scaled into")),
    ("--drop-prob", "drop_prob", dict(
        type=float, metavar="P",
        help="per-upload probability the payload is lost in flight")),
    ("--truncate-prob", "truncate_prob", dict(
        type=float, metavar="P",
        help="per-upload probability the payload arrives truncated "
             "(re-priced at its delivered bits)")),
    ("--edge-crash-prob", "edge_crash_prob", dict(
        type=float, metavar="P",
        help="hier: per-(round, edge) aggregator crash probability")),
)

#: The engine/budget fields that also layer onto a registered scenario
#: (``scenario run``, ``sweep --scenario``); the rest describe the preset.
_LAYERED_FIELDS = ("rounds", "seed", "backend", "workers")


def _add_config_flags(p: argparse.ArgumentParser, only: tuple[str, ...] | None = None) -> None:
    for flag, field, kwargs in CONFIG_FLAGS:
        if only is None or field in only:
            p.add_argument(flag, dest=field, **{"default": None, **kwargs})


def _add_artifact_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--save-history", metavar="PATH", default=None)
    p.add_argument("--export-csv", metavar="PATH", default=None)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithm", default="bcrs_opwa", choices=ALGORITHMS)
    p.add_argument("--dataset", default="cifar10", help="cifar10 | svhn | cifar100 | synth-*")
    p.add_argument("--paper-scale", action="store_true", help="use the full Sec. 5.1 budget")
    _add_config_flags(p)
    _add_artifact_flags(p)


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome-trace JSON (open in Perfetto); tracing off = "
             "zero-overhead null path",
    )
    p.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write a metrics-registry JSON with per-round snapshots",
    )
    p.add_argument(
        "--html", metavar="PATH", default=None,
        help="render a self-contained HTML report (inline SVG/CSS, no "
             "external URLs) of this run's artifacts; sections for the "
             "trace and metrics appear when those flags are also set",
    )


def _git_describe() -> str | None:
    """``git describe`` of the source tree, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _run_manifest(cfg, *, spec: ScenarioSpec | None = None) -> dict:
    """Provenance header for a single-run report page."""
    manifest: dict[str, str] = {}
    if spec is not None:
        manifest["scenario"] = spec.name
        manifest["spec hash"] = spec.spec_hash()
    manifest.update({
        "dataset": cfg.dataset,
        "algorithm": cfg.algorithm,
        "mode": cfg.mode,
        "backend": cfg.backend,
        "rounds": str(cfg.rounds),
        "clients": str(cfg.num_clients),
        "seed": str(cfg.seed),
        "version": __version__,
    })
    describe = _git_describe()
    if describe:
        manifest["git"] = describe
    return manifest


def _write_html(
    args: argparse.Namespace,
    *,
    history=None,
    sweep=None,
    obs=None,
    manifest: dict | None = None,
    title: str,
    target_acc: float | None = None,
) -> None:
    """Render the ``--html`` page for a run that just finished (if asked)."""
    if getattr(args, "html", None) is None:
        return
    from repro.report import write_report

    trace = metrics = None
    if obs is not None and obs.tracer.enabled and obs.tracer.spans:
        trace = list(obs.tracer.spans)
    if obs is not None and getattr(obs.metrics, "enabled", False):
        metrics = obs.metrics
    write_report(
        args.html,
        history=history,
        sweep=sweep,
        trace=trace,
        metrics=metrics,
        manifest=manifest,
        title=title,
        target_acc=target_acc,
    )
    print(f"wrote {args.html}")


def _finish_obs(obs, sim=None) -> None:
    """Export the run's observability artifacts (virtual spans included)."""
    if not obs.enabled:
        return
    if sim is not None and obs.tracer.enabled and getattr(sim, "spans", None):
        # Mirror the virtual-clock timeline next to the wall-clock one;
        # capped so a mega-fleet trace stays Perfetto-sized.
        obs.tracer.add_virtual_spans(sim.spans, limit=20_000)
    for path in obs.export():
        print(f"wrote {path}")


def _config(args: argparse.Namespace):
    """The preset config the flags describe (``--scenario`` bases aside)."""
    from repro.experiments.presets import bench_config, paper_config

    maker = paper_config if args.paper_scale else bench_config
    overrides = {
        field: value
        for _, field, _ in CONFIG_FLAGS
        if (value := getattr(args, field)) is not None
    }
    return maker(args.dataset, args.algorithm, **overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BCRS + OPWA federated-learning reproduction (ICPP 2024)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm and print its curve")
    _add_common(p_run)
    _add_obs_flags(p_run)
    p_run.set_defaults(func=_cmd_single)

    p_comm = sub.add_parser(
        "comm", help="run one config and print its end-to-end flow ledger"
    )
    p_comm.add_argument(
        "--top", type=int, default=5,
        help="how many top-uplink clients to list (default: 5)",
    )
    _add_common(p_comm)
    _add_obs_flags(p_comm)
    p_comm.set_defaults(func=_cmd_single)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a grid over config fields: algorithms, gamma, modes, edge counts, ...",
    )
    p_sweep.add_argument(
        "--grid", action="append", default=None, metavar="FIELD=V1,V2,...",
        help="one grid axis (repeatable); values are typed through the "
             "config field's declared type, so booleans and 'none' work",
    )
    p_sweep.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="use a registered scenario as the grid base instead of the "
             "preset flags",
    )
    p_sweep.add_argument(
        "--seeds", type=int, default=None, metavar="K",
        help="replicate every cell over K seeds (base seed .. base seed+K-1)",
    )
    p_sweep.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="max cells in flight at once (default: 1, sequential)",
    )
    p_sweep.add_argument(
        "--executor", default=None, choices=SWEEP_EXECUTORS,
        help="cell pool (default: process when --parallel > 1)",
    )
    p_sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="resumable run store: one JSON per cell; rerunning skips "
             "completed cells",
    )
    p_sweep.add_argument(
        "--target-acc", type=float, default=None,
        help="also report the virtual time-to-target frontier",
    )
    p_sweep.add_argument(
        "--progress", action="store_true",
        help="live one-line status: cells done/running/failed + ETA",
    )
    _add_common(p_sweep)
    _add_obs_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scn = sub.add_parser(
        "scenario", help="list, show, or run registered cross-feature scenarios"
    )
    p_scn.add_argument("action", choices=("list", "show", "run"))
    p_scn.add_argument("name", nargs="?", help="scenario name (for show/run)")
    _add_config_flags(p_scn, only=_LAYERED_FIELDS)
    _add_artifact_flags(p_scn)
    _add_obs_flags(p_scn)
    p_scn.set_defaults(func=_cmd_scenario)

    p_rep = sub.add_parser(
        "report",
        help="render a self-contained HTML report from stored artifacts",
    )
    p_rep.add_argument(
        "--out", required=True, metavar="PATH", help="where to write the page"
    )
    p_rep.add_argument(
        "--history", default=None, metavar="PATH",
        help="a saved history JSON (from --save-history)",
    )
    p_rep.add_argument(
        "--store", default=None, metavar="DIR",
        help="a sweep run store (from sweep --store); renders the sweep "
             "section over every completed cell",
    )
    p_rep.add_argument(
        "--trace", default=None, metavar="PATH",
        help="a Chrome-trace JSON written by --trace",
    )
    p_rep.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="an exported metrics-registry JSON",
    )
    p_rep.add_argument(
        "--target-acc", type=float, default=None,
        help="add the virtual time-to-target frontier to the sweep section",
    )
    p_rep.add_argument(
        "--title", default="Experiment report", help="page title"
    )
    p_rep.set_defaults(func=_cmd_report)

    p_prof = sub.add_parser(
        "profile", help="rank the top hot spots from an exported trace"
    )
    p_prof.add_argument("trace", help="a Chrome-trace JSON written by --trace")
    p_prof.add_argument(
        "--top", type=int, default=10, help="hot spots to list (default: 10)"
    )
    p_prof.set_defaults(func=_cmd_profile)

    p_info = sub.add_parser("info", help="print registered algorithms and compressors")
    p_info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__}")
    print("algorithms: " + ", ".join(ALGORITHMS))
    print("compressors: " + ", ".join(available_compressors()))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    try:
        spans = load_trace(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    from repro.obs.profile import format_profile

    print(format_profile(spans, top=args.top))
    return 0


def _errmsg(exc: BaseException) -> str:
    """The exception's message, unwrapped (KeyError str-quotes its arg)."""
    return str(exc.args[0]) if exc.args else str(exc)


def _layered_overrides(args: argparse.Namespace) -> dict:
    """Engine/budget flags the user explicitly typed, as config overrides.

    Shared by ``scenario run`` and ``sweep --scenario`` so a registered
    scenario reacts to the same flags either way.
    """
    return {
        field: value
        for field in _LAYERED_FIELDS
        if (value := getattr(args, field)) is not None
    }


def _cmd_single(args: argparse.Namespace, spec: ScenarioSpec | None = None) -> int:
    """``run``, ``comm`` and ``scenario run``: one simulation, start to finish.

    The verbs differ only in where the config comes from (preset flags, or
    ``spec`` with the typed engine/budget flags layered on), the summary
    printed and the manifest's scenario lines. An error raised while
    building the config or the simulation is a usage error (its message on
    stderr, exit 2, like ``sweep``); one raised during the run propagates.
    """
    try:
        if spec is None:
            cfg = _config(args)
        else:
            spec = spec.with_overrides(**_layered_overrides(args))
            cfg = spec.to_config()
        obs = make_obs(args.trace, args.metrics)
        sim = make_simulation(cfg, obs=obs)
    except (KeyError, ValueError) as exc:
        print(_errmsg(exc), file=sys.stderr)
        return 2
    with sim:
        history = sim.run()
        _finish_obs(obs, sim)

    from repro.experiments.reporting import series_text, summarize_comm
    from repro.io.history_io import export_curves_csv, save_history

    accuracy = f"final accuracy {history.final_accuracy():.4f}"
    virtual = f"virtual time {history.virtual_end() or 0.0:.1f}s"
    if args.command == "comm":
        print(summarize_comm(history, top=args.top))
        print(f"\nmode {cfg.mode}  contention {cfg.contention}  {accuracy}")
    else:
        print(series_text(history, every=max(1, cfg.rounds // 10)))
        if spec is not None:
            print(f"\nscenario {spec.name}  mode {cfg.mode}  {accuracy}  {virtual}")
        else:
            print(f"\n{accuracy}  comm time {history.time.actual_total:.1f}s  "
                  f"{virtual}  mode {cfg.mode}")
    if args.save_history:
        save_history(history, args.save_history)
    if args.export_csv:
        export_curves_csv(history, args.export_csv)
    _write_html(
        args, history=history, obs=obs, manifest=_run_manifest(cfg, spec=spec),
        title=(
            f"scenario: {spec.name}" if spec is not None
            else f"{args.command}: {args.algorithm} on {cfg.dataset}"
        ),
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """A grid of runs: typed axes, seeds, parallelism, resume."""
    axes: dict[str, list] = {}
    try:
        for text in args.grid or []:
            name, values = parse_axis(text)
            if name in axes:
                raise ValueError(f"axis {name!r} given twice")
            axes[name] = values
        if not axes:
            raise ValueError("nothing to sweep: give --grid FIELD=V1,V2,...")
        if args.scenario is not None:
            # The scenario is the base; explicitly-typed engine/budget flags
            # layer on top (like `scenario run`); the preset flags
            # (--dataset, --cr, ...) don't apply — vary those as grid axes.
            base = get_scenario(args.scenario)
            layered = _layered_overrides(args)
            if layered:
                base = base.with_overrides(**layered)
        else:
            base = ScenarioSpec.from_config(_config(args), name="sweep")
        cells = expand_grid(base, axes, seeds=args.seeds)
        store = RunStore(args.store) if args.store else None
        obs = make_obs(args.trace, args.metrics)
        live = None
        if args.progress:
            from repro.obs.progress import SweepProgress

            live = SweepProgress(len(cells), parallel=args.parallel)
        # Building the runner validates every cell's config, so a
        # cross-field error exits here, before anything runs.
        runner = SweepRunner(
            cells,
            parallel=args.parallel,
            executor=args.executor,
            store=store,
            obs=obs,
            on_start=(lambda s: live.on_start(s.name)) if live else None,
            progress=(
                (lambda s, c: live.on_result(s.name, {"ok": True}, cached=c))
                if live
                else None
            ),
        )
    except (KeyError, ValueError) as exc:
        print(_errmsg(exc), file=sys.stderr)
        return 2

    try:
        report = runner.run()
    finally:
        if live is not None:
            live.close()
    _finish_obs(obs)
    from repro.experiments.reporting import summarize_sweep
    from repro.io.history_io import export_curves_csv, save_history

    for spec, h in report.cells:
        print(f"{report.label(spec)}: final {h.final_accuracy():.4f}  "
              f"best {h.best_accuracy():.4f}")
    print()
    print(summarize_sweep(report, target=args.target_acc))
    if args.save_history:
        for spec, h in report.cells:
            save_history(h, f"{args.save_history}.{spec.spec_hash()}.json")
    if args.export_csv:
        for spec, h in report.cells:
            export_curves_csv(h, f"{args.export_csv}.{spec.spec_hash()}.csv")
    manifest = {
        "base": base.name,
        "base hash": base.spec_hash(),
        "axes": ", ".join(f"{k}={len(v)}" for k, v in axes.items()),
        "cells": str(len(cells)),
        "version": __version__,
    }
    describe = _git_describe()
    if describe:
        manifest["git"] = describe
    _write_html(
        args, sweep=report, obs=obs, manifest=manifest,
        title=f"sweep: {base.name}", target_acc=args.target_acc,
    )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    """``scenario list | show NAME | run NAME``."""
    if args.action == "list":
        rows = []
        for spec in REGISTRY:
            cfg = spec.to_config()
            extras = []
            if cfg.compressor:
                extras.append(cfg.compressor)
            if cfg.contention != "none":
                extras.append("contended")
            rows.append(
                f"{spec.name:<18} {cfg.mode:<9} {cfg.algorithm:<10} "
                f"{','.join(spec.tags):<28} {' '.join(extras)}"
            )
        print(f"{'name':<18} {'mode':<9} {'algorithm':<10} {'tags':<28}")
        print("-" * 70)
        print("\n".join(rows))
        print("\nrun one with:  python -m repro scenario run <name>")
        return 0

    if args.name is None:
        print(f"scenario {args.action} needs a name; try 'scenario list'",
              file=sys.stderr)
        return 2
    try:
        spec = get_scenario(args.name)
    except KeyError as exc:
        print(_errmsg(exc), file=sys.stderr)
        return 2

    if args.action == "show":
        print(spec.summary())
        print(f"\n{spec.description}\n")
        print(f"expected: {spec.expected}\n")
        print("overrides (vs ExperimentConfig defaults):")
        for k, v in spec.overrides.items():
            print(f"  {k} = {v!r}")
        print(f"\nspec hash: {spec.spec_hash()}")
        return 0

    return _cmd_single(args, spec)


def _cmd_report(args: argparse.Namespace) -> int:
    """``report``: rebuild an HTML page post-hoc from stored artifacts."""
    sources = [s for s in (args.history, args.store, args.trace, args.metrics) if s]
    if not sources:
        print(
            "report needs at least one artifact: "
            "--history / --store / --trace / --metrics",
            file=sys.stderr,
        )
        return 2
    from repro.io.history_io import load_history
    from repro.report import write_report

    try:
        history = load_history(args.history) if args.history else None
        sweep = None
        if args.store:
            cells = RunStore(args.store).load_all()
            if not cells:
                raise ValueError(f"no completed cells in store {args.store!r}")
            sweep = SweepReport(cells=cells, executed=0, reused=len(cells))
        trace = load_trace(args.trace) if args.trace else None
        metrics = None
        if args.metrics:
            with open(args.metrics) as fh:
                metrics = json.load(fh)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"cannot load artifacts: {_errmsg(exc)}", file=sys.stderr)
        return 2
    manifest = {"sources": ", ".join(sources), "version": __version__}
    describe = _git_describe()
    if describe:
        manifest["git"] = describe
    write_report(
        args.out,
        history=history,
        sweep=sweep,
        trace=trace,
        metrics=metrics,
        manifest=manifest,
        title=args.title,
        target_acc=args.target_acc,
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
