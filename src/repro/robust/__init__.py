"""Adversarial robustness: byzantine behaviors and robust aggregation.

The threat model is the classic byzantine-FL one: an unknown subset of
clients (chosen seed-purely, fleet-scale — see :func:`attacks.is_adversary`)
corrupts what it sends the server, and the server defends by replacing the
weighted mean with an order-statistic or clipping rule
(:mod:`~repro.robust.aggregators`). Transport-level corruption (dropped and
truncated uploads, crashing edge aggregators) lives with the transport in
:class:`repro.network.transport.FaultInjector` and :mod:`repro.hier`.

Everything here is strictly gated: ``adversary=None``,
``aggregator="mean"`` and zero fault probabilities — the defaults — perform
no extra RNG draws and no arithmetic changes, so every pre-existing seeded
history replays byte-for-byte.
"""

from repro.robust.aggregators import robust_aggregate

__all__ = ["robust_aggregate"]
