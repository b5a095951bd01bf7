"""Fixtures wrapping the deterministic artifact builders."""

from __future__ import annotations

import pytest
from tests.report._artifacts import make_history, make_metrics, make_spans, make_sweep


@pytest.fixture
def history():
    return make_history((0.2, 0.35, 0.5), staleness=True)


@pytest.fixture
def sweep():
    return make_sweep()


@pytest.fixture
def spans():
    return make_spans()


@pytest.fixture
def metrics():
    return make_metrics()
