"""Tests for History / RoundRecord bookkeeping."""

import numpy as np
import pytest

from repro.fl.history import History, RoundRecord
from repro.network.metrics import RoundTimes


def record(i, acc=None, actual=1.0, maximum=2.0, minimum=0.5, sim_start=None, sim_end=None):
    return RoundRecord(
        round_index=i,
        selected=(0, 1),
        train_loss=1.0,
        test_accuracy=acc,
        times=RoundTimes(actual=actual, maximum=maximum, minimum=minimum),
        ratios=(0.1, 0.1),
        weights=(0.5, 0.5),
        singleton_fraction=0.5,
        train_seconds=0.01,
        compress_seconds=0.001,
        sim_start=sim_start,
        sim_end=sim_end,
    )


class TestSeries:
    def test_accuracy_series_skips_unevaluated(self):
        h = History()
        h.append(record(0, acc=0.1))
        h.append(record(1))
        h.append(record(2, acc=0.3))
        rounds, accs = h.accuracy_series()
        np.testing.assert_array_equal(rounds, [0, 2])
        np.testing.assert_allclose(accs, [0.1, 0.3])

    def test_empty_series(self):
        h = History()
        rounds, accs = h.accuracy_series()
        assert rounds.size == accs.size == 0

    def test_accuracy_vs_time(self):
        h = History()
        h.append(record(0, acc=0.1, actual=1.0))
        h.append(record(1, acc=0.2, actual=2.0))
        t, accs = h.accuracy_vs_time()
        np.testing.assert_allclose(t, [1.0, 3.0])
        np.testing.assert_allclose(accs, [0.1, 0.2])

    def test_final_and_best(self):
        h = History()
        h.append(record(0, acc=0.5))
        h.append(record(1, acc=0.3))
        assert h.final_accuracy() == 0.3
        assert h.best_accuracy() == 0.5

    def test_final_raises_when_empty(self):
        with pytest.raises(ValueError):
            History().final_accuracy()


class TestSimtimeSeries:
    def test_uses_sim_spans_when_present(self):
        h = History()
        h.append(record(0, acc=0.1, sim_start=0.0, sim_end=4.0))
        h.append(record(1, acc=0.3, sim_start=4.0, sim_end=9.0))
        t, accs = h.accuracy_vs_simtime()
        np.testing.assert_allclose(t, [4.0, 9.0])
        np.testing.assert_allclose(accs, [0.1, 0.3])

    def test_falls_back_to_comm_axis_without_spans(self):
        h = History()
        h.append(record(0, acc=0.1, actual=1.0))
        h.append(record(1, acc=0.2, actual=2.0))
        t, _ = h.accuracy_vs_simtime()
        np.testing.assert_allclose(t, [1.0, 3.0])  # cumulative comm actual

    def test_simtime_to_accuracy(self):
        h = History()
        h.append(record(0, acc=0.1, sim_start=0.0, sim_end=4.0))
        h.append(record(1, acc=0.3, sim_start=4.0, sim_end=9.0))
        assert h.simtime_to_accuracy(0.2) == pytest.approx(9.0)
        assert h.simtime_to_accuracy(0.9) is None


class TestTimeToAccuracy:
    def test_reaches_target(self):
        h = History()
        h.append(record(0, acc=0.2, actual=1.0, maximum=3.0, minimum=0.5))
        h.append(record(1, acc=0.5, actual=1.0, maximum=3.0, minimum=0.5))
        assert h.time_to_accuracy(0.4) == pytest.approx(2.0)

    def test_never_reached(self):
        h = History()
        h.append(record(0, acc=0.1))
        assert h.time_to_accuracy(0.9) is None

    def test_counts_unevaluated_round_times(self):
        """Communication cost accrues even on rounds without evaluation."""
        h = History()
        h.append(record(0, actual=5.0))
        h.append(record(1, acc=0.9, actual=1.0))
        assert h.time_to_accuracy(0.5) == pytest.approx(6.0)


class TestBreakdown:
    def test_mean_breakdown(self):
        h = History()
        h.append(record(0))
        h.append(record(1))
        b = h.mean_breakdown()
        assert b["train_s"] == pytest.approx(0.01)
        assert b["comm_uncompressed_s"] == pytest.approx(2.0)
        assert b["comm_actual_s"] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            History().mean_breakdown()
