"""Shape tests for the remaining evaluation figures (8, 10, 12, 13, 14).

Each asserts the paper's qualitative claim — who wins, roughly by what
factor, where the optimum sits — on reduced sweeps so the suite stays
fast; the full sweeps live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.simulate.figures import (
    GB,
    fig8a_block_size_sweep,
    fig8b_task_sweep,
    fig10a_terasort_sweep,
    fig10b_iteration,
    fig10c_topk,
    fig12_spill_sweep,
    fig13_recovery,
    fig13a_ft_efficiency,
    fig14a_strong_scale,
    fig14b_weak_scale,
    wordcount_comparison,
)

# The simulator is deterministic: these reduced sweeps are pinned to the
# values the model produces, so a kernel change that reorders same-time
# events (and with it a disk's round-robin or a core's queue) shows here.
FIG8B_TASK_SWEEP = {
    2: {"Hadoop": 282.72356882875, "DataMPI": 414.0645192133888},
    4: {"Hadoop": 310.87836709157165, "DataMPI": 486.25706951793245},
    8: {"Hadoop": 266.29255001653934, "DataMPI": 515.5432872132686},
}
FIG14A_STRONG = {
    16: {"Hadoop": 750.6034116752132, "DataMPI": 524.9558895850136},
    64: {"Hadoop": 216.7148005305462, "DataMPI": 129.2843898273777},
}
FIG14B_WEAK = {
    16: {"Hadoop": 352.0281445197005, "DataMPI": 254.61932948877774},
    64: {"Hadoop": 415.3774990862258, "DataMPI": 254.631675877112},
}


class TestFig8Tuning:
    def test_block_size_peak_at_256(self):
        sweep = fig8a_block_size_sweep(
            data_bytes=48 * GB, block_sizes_mb=(64, 256, 1024)
        )
        for framework in ("Hadoop", "DataMPI"):
            at = {mb: sweep[mb][framework] for mb in sweep}
            assert at[256] > at[64]
            assert at[256] > at[1024]

    @pytest.fixture(scope="class")
    def task_sweep(self):
        return fig8b_task_sweep(tasks_per_node=(2, 4, 8))

    def test_task_sweep_values_pinned(self, task_sweep):
        assert task_sweep == {
            k: pytest.approx(row, rel=1e-9) for k, row in FIG8B_TASK_SWEEP.items()
        }

    def test_task_count_four_beats_two_and_eight_for_hadoop(self, task_sweep):
        hadoop = {k: task_sweep[k]["Hadoop"] for k in task_sweep}
        assert hadoop[4] > hadoop[2]
        assert hadoop[4] > hadoop[8]

    def test_task_count_datampi_saturates_after_four(self, task_sweep):
        datampi = {k: task_sweep[k]["DataMPI"] for k in task_sweep}
        assert datampi[4] > datampi[2]
        # beyond 4 the gain collapses (memory pressure starts spilling)
        gain_24 = datampi[4] - datampi[2]
        gain_48 = datampi[8] - datampi[4]
        assert gain_48 < 0.5 * gain_24


class TestFig10aTeraSortSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return fig10a_terasort_sweep(sizes_gb=(48, 120, 192))

    def test_improvement_band_at_every_size(self, sweep):
        """Paper: DataMPI gains 32-41% from 48 GB to 192 GB."""
        for gb, row in sweep.items():
            improvement = (row["Hadoop"] - row["DataMPI"]) / row["Hadoop"] * 100
            assert 28 < improvement < 45, f"{gb} GB: {improvement:.1f}%"

    def test_times_grow_with_data(self, sweep):
        for framework in ("Hadoop", "DataMPI"):
            times = [sweep[gb][framework] for gb in sorted(sweep)]
            assert times == sorted(times)

    def test_wordcount_improvement(self):
        wc = wordcount_comparison(48 * GB)
        improvement = (wc["Hadoop"] - wc["DataMPI"]) / wc["Hadoop"] * 100
        assert 22 < improvement < 40  # paper: 31%


class TestFig10bIteration:
    @pytest.fixture(scope="class")
    def rounds(self):
        return fig10b_iteration(data_bytes=20 * GB, rounds=3)

    @pytest.mark.parametrize("workload", ["PageRank", "K-means"])
    def test_average_improvement(self, rounds, workload):
        h = rounds[workload]["Hadoop"]
        d = rounds[workload]["DataMPI"]
        improvement = (h.mean_round - d.mean_round) / h.mean_round * 100
        assert 28 < improvement < 55  # paper: 41% / 40%

    @pytest.mark.parametrize("workload", ["PageRank", "K-means"])
    def test_datampi_later_rounds_faster_than_first(self, rounds, workload):
        """Round 0 loads from HDFS; later rounds run on resident state."""
        times = rounds[workload]["DataMPI"].round_times
        assert all(t < times[0] for t in times[1:])

    @pytest.mark.parametrize("workload", ["PageRank", "K-means"])
    def test_hadoop_rounds_flat(self, rounds, workload):
        """Every Hadoop round re-reads everything: no round is cheaper."""
        times = rounds[workload]["Hadoop"].round_times
        assert max(times) - min(times) < 0.05 * max(times)


class TestFig10cTopK:
    @pytest.fixture(scope="class")
    def latencies(self):
        return fig10c_topk(duration=60.0)

    def test_latency_bands(self, latencies):
        """Paper: DataMPI 0.5-4 s, S4 1.5-12 s."""
        d = latencies["DataMPI"]
        s = latencies["S4"]
        assert 0.3 < d["min"] < 1.0 and d["max"] < 5.0
        assert 1.0 < s["min"] < 2.5 and 6.0 < s["max"] < 14.0

    def test_datampi_stochastically_faster(self, latencies):
        assert latencies["DataMPI"]["median"] < latencies["S4"]["median"]
        d_vals = latencies["DataMPI"]["latencies"]
        s_vals = latencies["S4"]["latencies"]
        assert np.percentile(d_vals, 95) < np.percentile(s_vals, 50) * 2

    def test_distribution_sums_to_one(self, latencies):
        for system in ("DataMPI", "S4"):
            ratios = [r for _, _, r in latencies[system]["distribution"]]
            assert sum(ratios) == pytest.approx(1.0, abs=0.02)


class TestFig12Spill:
    @pytest.fixture(scope="class")
    def sweep(self):
        return fig12_spill_sweep(data_bytes=96 * GB, fractions=(0.0, 0.5, 1.0))

    def test_more_cache_less_time(self, sweep):
        assert sweep[1.0] <= sweep[0.5] <= sweep[0.0]

    def test_zero_cache_degrades_moderately(self, sweep):
        """Paper: up to ~9% degradation from full to zero caching; the
        simulated penalty stays under 40% (prefetch hides most of it)."""
        degradation = (sweep[0.0] - sweep[1.0]) / sweep[1.0] * 100
        assert 0 < degradation < 40

    def test_zero_cache_still_beats_hadoop(self, sweep):
        from repro.simulate.cluster import TESTBED_A, SimCluster
        from repro.simulate.hadoop_model import HadoopSimParams, simulate_hadoop_job
        from repro.simulate.profiles import TERASORT

        hadoop = simulate_hadoop_job(
            SimCluster(TESTBED_A),
            HadoopSimParams(TERASORT, 96 * GB, TESTBED_A.default_block_size, 64),
            profile_resources=False,
        )
        assert sweep[0.0] < hadoop.duration


class TestFig13FaultTolerance:
    @pytest.fixture(scope="class")
    def efficiency(self):
        return fig13a_ft_efficiency()

    def test_checkpoint_overhead_moderate(self, efficiency):
        """Paper: ~12% loss with checkpointing enabled."""
        loss = (efficiency["DataMPI-FT"] - efficiency["DataMPI"]) / efficiency[
            "DataMPI"
        ] * 100
        assert 5 < loss < 25

    def test_ft_still_beats_hadoop(self, efficiency):
        """Paper: checkpoint-enabled DataMPI still 21% faster than Hadoop."""
        improvement = (efficiency["Hadoop"] - efficiency["DataMPI-FT"]) / efficiency[
            "Hadoop"
        ] * 100
        assert improvement > 15

    def test_restart_under_three_seconds(self):
        assert fig13_recovery(0.5).job_restart < 3.0

    def test_reload_proportional_to_checkpoint_size(self):
        reloads = [fig13_recovery(f).checkpoint_reload for f in (0.2, 0.6, 1.0)]
        assert reloads[0] < reloads[1] < reloads[2]
        assert reloads[2] / reloads[0] == pytest.approx(5.0, rel=0.05)

    def test_total_has_slight_augment_with_more_checkpoints(self):
        totals = [fig13_recovery(f).total for f in (0.2, 0.6, 1.0)]
        assert totals == sorted(totals)
        # "a slight augment": well under 50% growth across the sweep
        assert totals[-1] < 1.5 * totals[0]


class TestFig14Scalability:
    @pytest.fixture(scope="class")
    def strong(self):
        return fig14a_strong_scale(data_bytes=128 * GB, node_counts=(16, 64))

    @pytest.fixture(scope="class")
    def weak(self):
        return fig14b_weak_scale(node_counts=(16, 64))

    def test_sweep_values_pinned(self, strong, weak):
        for got, pinned in ((strong, FIG14A_STRONG), (weak, FIG14B_WEAK)):
            assert got == {
                n: pytest.approx(row, rel=1e-9) for n, row in pinned.items()
            }

    def test_strong_scale_speedup(self, strong):
        """4x nodes shrink both frameworks' times substantially."""
        for framework in ("Hadoop", "DataMPI"):
            assert strong[64][framework] < 0.4 * strong[16][framework]

    def test_strong_scale_improvement_band(self, strong):
        for n, row in strong.items():
            improvement = (row["Hadoop"] - row["DataMPI"]) / row["Hadoop"] * 100
            assert 25 < improvement < 48, f"{n} nodes: {improvement:.1f}%"

    def test_weak_scale_datampi_flat(self, weak):
        """Linear scalability: constant time per fixed per-task data."""
        times = [weak[n]["DataMPI"] for n in sorted(weak)]
        assert max(times) / min(times) < 1.15

    def test_weak_scale_improvement(self, weak):
        for n, row in weak.items():
            improvement = (row["Hadoop"] - row["DataMPI"]) / row["Hadoop"] * 100
            assert 20 < improvement < 48, f"{n} nodes: {improvement:.1f}%"
