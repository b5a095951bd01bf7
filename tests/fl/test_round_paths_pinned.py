"""Round paths the twelve protocol goldens do not reach, pinned by digest.

Each cell is a short seeded run whose trace
(:func:`repro.testing.goldens.run_trace`) is reduced to one digest per round
record plus one for the virtual-time span log. The cells pair every protocol
mode with the features whose handling the round loops share — fault fates,
zero-weight stragglers, drifting links, fair-share ingress with downlink
accounting, a quantising compressor with a seeded stream per client, robust
aggregation, a server optimizer with state, paper-scale volume pricing, late
policies, edge deadlines/crashes/backhaul — so a change to the shared round
stages that moves any of them shows up as the first differing round.

Recorded at the commit before the round stages were folded into
``Simulation`` (PR 17); the sync and hier ``qsgd8`` cells were re-recorded in
that PR, where ``ratios`` became ``(1.0, …)`` for dense updates and nothing
else in those traces changed. Four ``small_cnn`` cells, one per mode, pinned
BatchNorm running-statistics averaging; they were deleted with the CNN
models and the buffer plumbing, which no run selected (every preset,
scenario and workload trains the MLP). The edge-semisync path they also
reached stays pinned by ``hier-deadline_topk-edge-semisync``. Three
cells pinned compressors no preset, scenario, workload or example selected
(``sync-randomk``, ``sync-ef_randomk-lossy``, ``sync-threshold``); they
were deleted with Random-K and the threshold sparsifier. Error feedback
under drop + truncate stays pinned by ``sync-lossy-eftopk``, and the seeded
per-client compressor stream by the ``qsgd8`` cells. The async one,
``async-qsgd8-lossy``, was deleted when ``ExperimentConfig`` began rejecting
a ``compressor`` override under ``mode="async"`` (async priced an upload
before it was trained from Top-K's size alone), and re-recorded once every
compressor declared its wire size at registration: its truncated quantized
uploads are drops billed at 8 bits per entry.

That change also re-recorded three ``volume_override_bits`` cells, whose
uploads had been billed ``2·V·r`` whatever happened to them; they are now
billed the compressor's declared size at width V/32.
``hier-volume`` moved only by rounding each BCRS ratio to whole Top-K
entries (at most 32 bits an upload). ``sync-volume-lossy`` also bills a
truncated upload its kept prefix instead of its full size; what it
aggregates is unchanged. ``async-volume-lossy`` used to drop every truncated
upload whole, and now delivers its prefix, so its learning moves from round
0. ``semisync-drop-fixed-volume`` (Top-K at CR 0.2, whole entries already, no
faults) replays unchanged. Every cell runs on ``serial``, ``thread`` and
``process``: seeded runs are bit-identical across backends, so all three
replay the same digests.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from repro.fl.config import ExperimentConfig
from repro.testing.goldens import run_trace


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=480,
        num_test=160,
        num_clients=12,
        participation=0.5,
        rounds=3,
        batch_size=32,
        lr=0.1,
        seed=23,
        eval_every=2,
        algorithm="topk",
        compression_ratio=0.2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_SEMISYNC = dict(mode="semisync", deadline_quantile=0.6, rounds=4)
_ASYNC = dict(mode="async", concurrency=4, buffer_size=2, rounds=4)
_HIER = dict(mode="hier", num_edges=3, edge_rounds=2)
_LOSSY = dict(algorithm="eftopk", drop_prob=0.2, truncate_prob=0.3)
_FAIR = dict(include_downlink=True, contention="fair", server_ingress_mbps=4.0)
_BACKHAUL = dict(
    backhaul_bandwidth_mbps=20.0, backhaul_latency_s=0.05, backhaul_heterogeneity=0.3
)

CELLS: dict[str, ExperimentConfig] = {
    # fault fates over error-feedback Top-K (hier rejects per-flow faults)
    "sync-lossy-eftopk": _cfg(**_LOSSY),
    "semisync-lossy-eftopk": _cfg(**_SEMISYNC, **_LOSSY),
    "async-lossy-eftopk": _cfg(**_ASYNC, **_LOSSY),  # deferred truncation
    "sync-lossy-dense": _cfg(algorithm="fedavg", compression_ratio=1.0, drop_prob=0.2, truncate_prob=0.3),
    # the plan zero-weights stragglers
    "sync-deadline_topk": _cfg(algorithm="deadline_topk", include_downlink=True),
    "semisync-deadline_topk": _cfg(**_SEMISYNC, algorithm="deadline_topk"),
    "hier-deadline_topk-edge-semisync": _cfg(**_HIER, algorithm="deadline_topk", edge_sync="semisync"),
    # links drift per round (async refuses them)
    "sync-drift-fair": _cfg(algorithm="bcrs_opwa", compression_ratio=0.1, time_varying_links=True, **_FAIR),
    "semisync-drift": _cfg(**_SEMISYNC, algorithm="bcrs", compression_ratio=0.1, time_varying_links=True),
    "hier-drift-backhaul": _cfg(**_HIER, **_BACKHAUL, algorithm="bcrs_opwa", compression_ratio=0.1, time_varying_links=True),
    # downlink accounting + one shared ingress
    "semisync-fair": _cfg(**_SEMISYNC, **_FAIR, algorithm="bcrs_opwa", compression_ratio=0.1),
    "async-fair": _cfg(**_ASYNC, **_FAIR),
    "hier-fair-backhaul": _cfg(**_HIER, **_FAIR, **_BACKHAUL, algorithm="bcrs_opwa", compression_ratio=0.1),
    # a quantiser beneath topk: dense updates, a seeded stream per client
    "sync-qsgd8": _cfg(compressor="qsgd8"),
    "semisync-qsgd8": _cfg(**_SEMISYNC, compressor="qsgd8"),
    "async-qsgd8-lossy": _cfg(**_ASYNC, compressor="qsgd8", truncate_prob=0.4),
    "hier-qsgd8": _cfg(**_HIER, compressor="qsgd8"),
    # order-statistic aggregation, a server optimizer with moments
    "sync-trimmed-adam": _cfg(aggregator="trimmed_mean", trim_beta=0.2, server_optimizer="adam", server_step=0.01),
    "semisync-trimmed": _cfg(**_SEMISYNC, aggregator="trimmed_mean", trim_beta=0.2),
    "async-adam": _cfg(**_ASYNC, algorithm="bcrs_opwa", server_optimizer="adam", server_step=0.01),
    "hier-trimmed-adam": _cfg(**_HIER, aggregator="trimmed_mean", trim_beta=0.2, server_optimizer="adam", server_step=0.01),
    # uploads priced at a paper-scale volume's width, not the trained one
    "sync-volume-lossy": _cfg(volume_override_bits=4e8, algorithm="bcrs_opwa", compression_ratio=0.1, drop_prob=0.2, truncate_prob=0.3),
    "async-volume-lossy": _cfg(**_ASYNC, volume_override_bits=4e8, truncate_prob=0.4),
    "hier-volume": _cfg(**_HIER, volume_override_bits=4e8, algorithm="bcrs", compression_ratio=0.1),
    # semisync late policies against a fixed deadline
    "semisync-carryover-fixed": _cfg(**_SEMISYNC, algorithm="eftopk", deadline_s=0.7, late_policy="carryover"),
    "semisync-drop-fixed-volume": _cfg(**_SEMISYNC, volume_override_bits=4e8, deadline_s=150.0, late_policy="drop", contention="fair", server_ingress_mbps=20.0),
    # an edge aggregator crashes; the cloud reweights the survivors
    "hier-crash-backhaul": _cfg(**_HIER, **_BACKHAUL, algorithm="bcrs_opwa", compression_ratio=0.1, edge_crash_prob=0.4),
}

PINNED: dict[str, list[str]] = {
    "sync-lossy-eftopk": [
        "bfa34ddf12f42f59", "fa9226a9220946e0", "d89006554031b504", "0be7bcfb55e304f7",
    ],
    "semisync-lossy-eftopk": [
        "608df4e23a2c7ad4", "719c5a272b4ab7f5", "44b06321625c7384", "8fc206c4f98f98e1",
        "bdfbde9667101f8a",
    ],
    "async-lossy-eftopk": [
        "da22c718c19bbde2", "56609fc5513430dc", "b30a73eb66229052", "97c00e2f05b8223f",
        "713c4d47463b63aa",
    ],
    "sync-lossy-dense": [
        "1aebdd5bb0b9fb15", "11ac959deb2a26c8", "e8740e6a1c130d03", "b913adbdb5b0b012",
    ],
    "sync-deadline_topk": [
        "de6a440ee2c30c21", "e6378285f8d56d2d", "53dddd8927bc4a2c", "94f38d6accbc82a2",
    ],
    "semisync-deadline_topk": [
        "d5a4c4f6fabe71de", "dbc76c58ccf817e0", "a6dc8a1be83f99af", "41d79bc2cf4725bb",
        "b42509a8f2013b0b",
    ],
    "hier-deadline_topk-edge-semisync": [
        "673a9789809489a6", "7a61b6f7490bbff9", "eb82539c623c09ce", "06fd0c20657d1b55",
    ],
    "sync-drift-fair": [
        "412c784727ec440b", "e0ad29053c336fc7", "afb3d62df07c5908", "c38ad45a7c762203",
    ],
    "semisync-drift": [
        "2f43779cc6822981", "4ccc4b8a456d75a7", "7dcfd85f72bcdbba", "5e6754a9543b8d49",
        "be8439c8c2f9c52a",
    ],
    "hier-drift-backhaul": [
        "3967c464b5d60b75", "00423895f0f26758", "825fffe29acb31bb", "034789584a5f868b",
    ],
    "semisync-fair": [
        "4b19418059fadcf7", "063a5adeb42ed6a5", "25597ecbc5dfb1ac", "5ea930389580981b",
        "6647257f5b4b88bc",
    ],
    "async-fair": [
        "d2bfc2a71b376d38", "684598f0270da75e", "ac1b9502762099c6", "9eedb3658c82af44",
        "fdb5421343589542",
    ],
    "hier-fair-backhaul": [
        "4fddb46b307ba974", "1743e4a432ebfce9", "3272899ab500bd5b", "65c3e0c0eff6cddb",
    ],
    "sync-qsgd8": [
        "8f51268ffa51e49b", "914ecc2bc15cda07", "e130bfd842a1d9ea", "0904e4d6170c7531",
    ],
    "semisync-qsgd8": [
        "e36d84093f6b0b2c", "7a852d2b541775ef", "ce6b865c566ab8bc", "f4bfa45994ac051e",
        "a86184c06737fc25",
    ],
    "async-qsgd8-lossy": [
        "d06d5c723748a88d", "38f6fbe5943d9ef4", "45424084e7000ea8", "e46799804109cd5b",
        "d1591490939ef03e",
    ],
    "hier-qsgd8": [
        "55884feb45cff597", "68b9769c4a420a21", "6ef9cb1c4f525f79", "015c7bcb21703a19",
    ],
    "sync-trimmed-adam": [
        "bb9d617ca2ef85d1", "bad44117fb048cf5", "715c51d3b193a522", "6701a3daaae24d73",
    ],
    "semisync-trimmed": [
        "da9e3a0b3ed49fbf", "3104a93d64b599bc", "46f15d3723ae55f6", "5d0cb44f533a28fe",
        "b42509a8f2013b0b",
    ],
    "async-adam": [
        "10cf0683d8b0636e", "d15acb8dbb0db973", "93ab19c797df5167", "99b7f87c16261b75",
        "2eaa2a3bc3961139",
    ],
    "hier-trimmed-adam": [
        "044a8a43bbf05738", "66f6003762a52816", "ada0e13b9428a7ae", "4e52a286f09d1526",
    ],
    "sync-volume-lossy": [
        "cd1d0d608dfdb3dd", "97dd6c6ca26f7180", "dbae8546175911f3", "7985397b0c9fbb72",
    ],
    "async-volume-lossy": [
        "e0da64a53817545f", "353cbe0e692fd958", "3d1ea76e016ba846", "921dd5b53b531fa8",
        "b263da867b04f587",
    ],
    "hier-volume": [
        "a4c549b5395f552a", "890be0c23ee3dc9a", "1707c09a120a0d32", "0eb3e28e9e7a0494",
    ],
    "semisync-carryover-fixed": [
        "eb77166fb65b32ba", "95cd2310ccf41b19", "82df52140511f03c", "659570d8825f0028",
        "511d722a721121c3",
    ],
    "semisync-drop-fixed-volume": [
        "ab273138269123df", "107d67139172261b", "ce91437b978688a4", "79ec79965f020f1b",
        "a1aabdb82f9d1e48",
    ],
    "hier-crash-backhaul": [
        "69530c7a37ff2a70", "940dadb06c6d14be", "717b3231f64ab35e", "71279b467fdf8174",
    ],
}


def digests(trace: dict) -> list[str]:
    """One digest per round record, then one for the span log."""

    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]

    return [digest(rec) for rec in trace["history"]["records"]] + [digest(trace["spans"])]


def pinned_trace(name: str, backend: str) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bcrs_opwa under async degrades, loudly
        return run_trace(CELLS[name].with_(backend=backend, workers=3))


CASES = [(name, backend) for backend in ("serial", "thread", "process") for name in CELLS]


@pytest.mark.parametrize("name,backend", CASES)
def test_round_path_replays_its_pinned_digests(name, backend):
    got = digests(pinned_trace(name, backend))
    want = PINNED[name]
    assert len(got) == len(want)
    differing = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not differing, (
        f"{name} on {backend}: first differing round {differing[0]} "
        f"(the last index is the span log)"
    )
