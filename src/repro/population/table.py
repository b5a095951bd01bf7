"""Struct-of-arrays client population: per-client scalars as numpy columns.

The simulator's client fleet used to be a ``list[Client]`` — one Python
object per participant holding a copied data shard, a batch-loader RNG and
(optionally) a compressor — so memory scaled with *fleet* size even though
only the round's sampled cohort ever trains. :class:`Population` replaces
the per-client objects with flat numpy columns:

====================  =====================================================
column                meaning
====================  =====================================================
``bandwidth_bps``     last-mile uplink bandwidth (paper Sec. 5.2 draw)
``latency_s``         last-mile latency
``s_per_sample``      local-training speed (lognormal around the median)
``data_sizes``        shard size ``n_k`` (drives FedAvg frequencies)
====================  =====================================================

The columns are drawn once per world and never written afterwards
(:class:`~repro.fl.context.SimulationContext` freezes them). Samplers, BCRS
planning and the round loop read them vectorized; full :class:`~repro.fl.client.Client` objects are
*hydrated* on demand — only for the sampled cohort — by the pools in
:mod:`repro.population.hydration`. Memory is therefore O(active cohort) +
O(columns), not O(fleet) objects.

Two shard regimes:

- **partitioned** (``config.virtual_shards=False``): client shards exactly
  partition the training corpus via :class:`~repro.data.partition.
  Partition`, and the link/compute columns replay the historical draw
  order scalar-for-scalar — seeded runs reproduce the pre-population
  ``list[Client]`` histories bit-for-bit (``tests/population/`` pins this
  against frozen goldens).
- **virtual** (``virtual_shards=True``): the fleet can dwarf the corpus.
  Shard sizes are one vectorized draw; each client's shard *contents* are
  sampled from the corpus on hydration via the counter-based
  :meth:`~repro.utils.rng.RngFactory.counter` stream, so no index list is
  ever stored per client. Link columns are drawn vectorized too — this is
  what makes a million-client table construct in milliseconds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.partition import Partition
from repro.network.cost import LinkSpec
from repro.network.links import LinkModel, PAPER_LINK_MODEL, sample_links
from repro.utils.rng import RngFactory

__all__ = ["Population", "LinkColumns", "SHARD_STREAM", "COMPUTE_S_PER_SAMPLE"]

#: Counter-based stream name for virtual shard contents (one Philox stream
#: per client id, reconstructible on any worker in any order).
SHARD_STREAM = "virtual-shard"

#: Median local-training cost in seconds per sample × epoch; each client's
#: speed is lognormal around it (``config.compute_heterogeneity``).
COMPUTE_S_PER_SAMPLE = 5e-3


def _fleet_link_columns(
    num_clients: int, model: LinkModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized link draws for virtual-shard fleets (same distributions,
    column-at-a-time order — new seeds, not the legacy scalar sequence)."""
    # Floor and flip in place over the arrays just drawn: a throw-away
    # full-width temporary is 8 MB of fresh pages at a million clients.
    bw = rng.normal(model.bandwidth_mean_bps, model.bandwidth_std_bps, num_clients)
    np.maximum(bw, model.bandwidth_floor_bps, out=bw)
    span = model.latency_high_s - model.latency_low_s
    lat = rng.uniform(0.0, span, num_clients)
    np.subtract(model.latency_high_s, lat, out=lat)
    return bw, lat


class LinkColumns(Sequence):
    """Sequence-of-:class:`LinkSpec` view over the (bandwidth, latency) columns.

    Indexing materializes one frozen ``LinkSpec`` on demand — cohort-sized
    consumers (``[links[i] for i in selected]``) stay cheap while nothing
    ever holds fleet-many link objects.
    """

    def __init__(self, bandwidth_bps: np.ndarray, latency_s: np.ndarray):
        self._bw = bandwidth_bps
        self._lat = latency_s

    def __len__(self) -> int:
        return len(self._bw)

    def __getitem__(self, i) -> LinkSpec:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return LinkSpec(bandwidth_bps=float(self._bw[i]), latency_s=float(self._lat[i]))


@dataclass
class Population:
    """The fleet as columns; see the module docstring for the regimes."""

    seed: int
    bandwidth_bps: np.ndarray
    latency_s: np.ndarray
    s_per_sample: np.ndarray
    data_sizes: np.ndarray
    #: Shard source: a real corpus partition (legacy-exact), or ``None`` in
    #: the virtual regime where shards are drawn procedurally on hydration.
    partition: Partition | None = None
    #: Corpus size virtual shards draw from (ignored when partitioned).
    corpus_size: int = 0

    def __post_init__(self):
        n = len(self.bandwidth_bps)
        for name in ("latency_s", "s_per_sample", "data_sizes"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} has length {len(getattr(self, name))}, expected {n}")
        if self.partition is None and self.corpus_size < 1:
            raise ValueError("virtual populations need a positive corpus_size")
        if np.any(self.data_sizes < 1):
            raise ValueError("every client needs at least one sample")
        self._rngs = RngFactory(self.seed)
        self.links = LinkColumns(self.bandwidth_bps, self.latency_s)

    # ------------------------------------------------------------- building

    @classmethod
    def from_config(cls, config, *, partition: Partition | None) -> "Population":
        """Assemble the population an ``ExperimentConfig`` describes.

        Streams consumed (all independent of each other and of every other
        engine stream): ``links`` for the link columns, ``compute`` for the
        speed column, plus — virtual regime only — ``shard-sizes`` for the
        size column. The partitioned regime replays the historical scalar
        draw order so pre-population histories are reproduced bit-for-bit.
        """
        rngs = RngFactory(config.seed)
        n = config.num_clients
        if config.virtual_shards:
            bw, lat = _fleet_link_columns(n, PAPER_LINK_MODEL, rngs.stream("links"))
            sizes = rngs.stream("shard-sizes").integers(
                config.virtual_shard_min, config.virtual_shard_max + 1, size=n
            )
        else:
            if partition is None:
                raise ValueError("partitioned populations need the corpus partition")
            # sample_links's interleaved (normal, uniform) pair per client is
            # the scalar sequence every pre-population golden history was
            # recorded under. Ziggurat rejection sampling consumes a variable
            # number of raw words per normal draw, so it cannot be vectorized
            # without changing the values; fleets that need vectorized
            # construction use the virtual regime.
            links = sample_links(n, PAPER_LINK_MODEL, seed=rngs.stream("links"))
            bw = [link.bandwidth_bps for link in links]
            lat = [link.latency_s for link in links]
            sizes = partition.sizes()
        z = rngs.stream("compute").standard_normal(n)
        if config.virtual_shards:
            s_per_sample = np.multiply(config.compute_heterogeneity, z, out=z)
            np.exp(s_per_sample, out=s_per_sample)  # c · exp(h · z), in place
            s_per_sample *= COMPUTE_S_PER_SAMPLE
        else:
            # Scalar np.exp, one client at a time — the historical
            # per-client profile arithmetic. numpy's SIMD exp loop can
            # differ from the scalar path in the last ulp, which would break
            # bit-for-bit golden equivalence.
            s_per_sample = np.array(
                [
                    float(COMPUTE_S_PER_SAMPLE * np.exp(config.compute_heterogeneity * z[i]))
                    for i in range(n)
                ],
                dtype=np.float64,
            )
        return cls(
            seed=config.seed,
            bandwidth_bps=np.asarray(bw, dtype=np.float64),
            latency_s=np.asarray(lat, dtype=np.float64),
            s_per_sample=np.asarray(s_per_sample, dtype=np.float64),
            data_sizes=np.asarray(sizes, dtype=np.int64),
            partition=partition if not config.virtual_shards else None,
            corpus_size=config.num_train if config.virtual_shards else 0,
        )

    # ------------------------------------------------------------- reading

    @property
    def num_clients(self) -> int:
        return len(self.bandwidth_bps)

    def sizes_of(self, ids) -> np.ndarray:
        """Float64 shard sizes of ``ids`` — the round loop's ``n_k`` reads,
        vectorized over the cohort without touching client objects."""
        return self.data_sizes[np.asarray(ids, dtype=np.int64)].astype(np.float64)

    def shard_indices(self, cid: int) -> np.ndarray:
        """Corpus indices of client ``cid``'s shard.

        Partitioned: the stored partition row. Virtual: ``data_sizes[cid]``
        draws (with replacement) from the corpus via the client's
        counter-based stream — recomputed identically on every hydration,
        on any worker, in any order.
        """
        if self.partition is not None:
            return self.partition.client_indices[cid]
        rng = self._rngs.counter(SHARD_STREAM, int(cid))
        return rng.integers(0, self.corpus_size, size=int(self.data_sizes[cid]))
