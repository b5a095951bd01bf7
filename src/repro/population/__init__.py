"""Fleet-scale client populations: columns for everyone, objects for the cohort.

:class:`~repro.population.table.Population` stores per-client scalars as
numpy columns (O(fleet) bytes, not objects);
:class:`~repro.population.hydration.ClientPool` and
:class:`~repro.population.hydration.CompressorPool` hydrate full per-client
objects lazily for the sampled cohort only. See the module docstrings for
the two shard regimes and the RNG derivation contract.
"""

from repro.population.hydration import ClientPool, CompressorPool, default_cache_size
from repro.population.table import LinkColumns, Population

__all__ = [
    "Population",
    "LinkColumns",
    "ClientPool",
    "CompressorPool",
    "default_cache_size",
]
