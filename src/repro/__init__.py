"""repro — reproduction of "Bandwidth-Aware and Overlap-Weighted Compression
for Communication-Efficient Federated Learning" (Tang et al., ICPP 2024).

Subpackages
-----------
- ``repro.nn``: numpy training substrate (the MLP the runs train, its loss, SGD).
- ``repro.data``: synthetic federated datasets + Dirichlet non-IID partitioning.
- ``repro.network``: the paper's communication cost model and time metrics.
- ``repro.compression``: Top-K, QSGD quantization, error feedback.
- ``repro.core``: the paper's contribution — BCRS scheduling and OPWA.
- ``repro.fl``: the federated simulation engine (Algorithm 1).
- ``repro.simtime``: virtual-clock scheduler (async/semi-sync protocols).
- ``repro.hier``: hierarchical cloud–edge–client federation.
- ``repro.experiments``: presets and reporting for every paper table/figure.
"""

__version__ = "1.0.0"
