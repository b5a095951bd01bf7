"""The repo's benchmark: four workloads, end-to-end metrics, a per-layer trace.

Entry points (see ``bench/README.md``):

- ``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1`` —
  one measured run, the command ``BENCHMARK.json`` names;
- ``python3 -m bench`` — every workload, several runs each, interleaved,
  with medians and quartiles; ``--compare A.json B.json``; ``--smoke``.

Nothing here is imported by the program under ``src/``.
"""
