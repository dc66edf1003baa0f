"""The windowed sampler: process CPU/RSS series on an injectable clock."""

from repro.obs.metrics import WindowedSampler


class TestWindowedSampler:
    def test_fake_clock_time_axis_is_deterministic(self):
        def run():
            s = WindowedSampler(clock=lambda: 0.0)
            for tick in range(5):
                s.sample_once(now=float(tick))
            return {name: t for name, (t, _v) in s.as_journal_series().items()}

        one, two = run(), run()
        assert one == two
        assert one["process.cpu.seconds"] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert one["process.cpu.percent"] == [1.0, 2.0, 3.0, 4.0]

    def test_epoch_is_first_sample(self):
        s = WindowedSampler()
        s.sample_once(now=100.0)
        s.sample_once(now=100.5)
        times, values = s.as_journal_series()["process.cpu.seconds"]
        assert times == [0.0, 0.5]
        assert values[0] == 0.0  # cumulative from the first sample

    def test_process_series_present(self):
        s = WindowedSampler()
        s.sample_once(now=0.0)
        s.sample_once(now=1.0)
        series = s.as_journal_series()
        assert "process.cpu.seconds" in series
        assert "process.rss.bytes" in series
        assert "process.cpu.percent" in series  # needs two samples
        assert len(series["process.cpu.seconds"][0]) == 2
        assert all(v > 0 for v in series["process.rss.bytes"][1])

    def test_interval_thread_start_stop(self):
        s = WindowedSampler(interval=0.01)
        s.start()
        s.stop()
        times, _ = s.as_journal_series()["process.rss.bytes"]
        # one sample at start, one closing sample at stop, maybe more between
        assert len(times) >= 2
        assert times == sorted(times)
