"""Tests for the ASCII comm-ledger table."""

from repro.viz.ascii import ascii_comm_table


class TestCommTable:
    @staticmethod
    def history(with_backhaul=False):
        from repro.fl.history import History, RoundComm, RoundRecord
        from repro.network.metrics import RoundTimes

        h = History()
        for i in range(2):
            h.append(
                RoundRecord(
                    round_index=i,
                    selected=(0, 1),
                    train_loss=1.0,
                    test_accuracy=None,
                    times=RoundTimes(actual=1.0, maximum=2.0, minimum=0.5),
                    ratios=(1.0, 1.0),
                    weights=(0.5, 0.5),
                    singleton_fraction=None,
                    train_seconds=0.0,
                    compress_seconds=0.0,
                    comm=RoundComm(
                        uplink=((0, 8e6), (1, 16e6)),
                        downlink=((0, 32e6),) if with_backhaul else (),
                        backhaul=((0, 64e6),) if with_backhaul else (),
                    ),
                )
            )
        return h

    def test_renders_directions_and_totals(self):
        out = ascii_comm_table(self.history())
        assert "uplink" in out and "downlink" in out and "backhaul" in out
        assert "total" in out
        assert "6MB" in out  # 2 rounds × 24e6 bits = 6 MB uplink

    def test_top_talkers_listed(self):
        out = ascii_comm_table(self.history(), top=1)
        assert "top uplink clients: c1 4MB" in out

    def test_backhaul_share_nonzero(self):
        out = ascii_comm_table(self.history(with_backhaul=True))
        line = [row for row in out.splitlines() if row.startswith("backhaul")][0]
        assert "0.0%" not in line

    def test_empty_history_safe(self):
        from repro.fl.history import History

        assert "no flow ledgers" in ascii_comm_table(History())

    def test_summarize_comm_adds_throughput(self):
        from repro.viz.ascii import summarize_comm
        from dataclasses import replace

        h = self.history()
        h.records = [replace(r, sim_start=0.0, sim_end=4.0 + i) for i, r in enumerate(h.records)]
        out = summarize_comm(h)
        assert "Mbit/s" in out and "direction" in out
