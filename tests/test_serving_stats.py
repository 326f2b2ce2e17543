"""ServiceStats: the quantile rule, failed-latency separation, the
queue-wait/execute split, concurrency, and metrics-registry folding."""

from __future__ import annotations

import threading

import pytest

from repro.observability.metrics import MetricsRegistry, nearest_rank_quantile
from repro.serving.stats import ServiceStats


class TestNearestRankQuantile:
    def test_empty_sample_is_zero(self):
        assert nearest_rank_quantile([], 0.5) == 0.0

    def test_single_sample_any_quantile(self):
        for q in (0.0, 0.5, 0.95, 1.0):
            assert nearest_rank_quantile([3.5], q) == 3.5

    def test_even_window_median_picks_upper(self):
        # The banker's-rounding bug: round(0.5) == 0 picked the lower
        # sample; the ceil rule resolves the .5 boundary upward.
        assert nearest_rank_quantile([1.0, 2.0], 0.5) == 2.0
        assert nearest_rank_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0

    def test_odd_window_median_is_exact(self):
        assert nearest_rank_quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_extremes(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert nearest_rank_quantile(sample, 0.0) == 1.0
        assert nearest_rank_quantile(sample, 1.0) == 5.0

    def test_p95_never_understates(self):
        # 20 samples: rank ceil(0.95 * 19) = 19 -> the maximum.
        sample = [float(i) for i in range(20)]
        assert nearest_rank_quantile(sample, 0.95) == 19.0

    def test_module_quantiles_agree(self):
        """The service snapshot's quantiles use the registry-wide rule."""
        sample = [0.5, 1.5, 2.5, 3.5]
        stats = ServiceStats(registry=MetricsRegistry())
        for latency in sample:
            stats.record_completion(latency, failed=False)
        snap = stats.snapshot()
        assert snap.latency_p50_s == nearest_rank_quantile(sample, 0.50)
        assert snap.latency_p95_s == nearest_rank_quantile(sample, 0.95)


class TestFailedLatencySeparation:
    def test_failures_do_not_skew_success_quantiles(self):
        stats = ServiceStats(registry=MetricsRegistry())
        for _ in range(100):
            stats.record_completion(0.001, failed=False)
        for _ in range(50):
            stats.record_completion(10.0, failed=True)  # slow timeouts
        snap = stats.snapshot()
        assert snap.completed == 100
        assert snap.failed == 50
        assert snap.latency_p95_s == pytest.approx(0.001)
        assert snap.failed_latency_p50_s == pytest.approx(10.0)
        assert snap.failed_latency_p95_s == pytest.approx(10.0)

    def test_fast_rejects_do_not_drag_quantiles_down(self):
        stats = ServiceStats(registry=MetricsRegistry())
        for _ in range(100):
            stats.record_completion(1.0, failed=False)
        for _ in range(100):
            stats.record_completion(0.00001, failed=True)  # fast rejects
        snap = stats.snapshot()
        assert snap.latency_p50_s == pytest.approx(1.0)
        assert snap.failed_latency_p95_s == pytest.approx(0.00001)

    def test_no_failures_reports_zero(self):
        stats = ServiceStats(registry=MetricsRegistry())
        stats.record_completion(0.5, failed=False)
        snap = stats.snapshot()
        assert snap.failed_latency_p50_s == 0.0
        assert snap.failed_latency_p95_s == 0.0


class TestBatchSplit:
    def test_queue_wait_and_execute_quantiles(self):
        stats = ServiceStats(registry=MetricsRegistry())
        stats.record_batch_split([0.010, 0.020, 0.030], execute_s=0.200)
        stats.record_batch_split([0.040], execute_s=0.100)
        snap = stats.snapshot()
        assert snap.queue_wait_p50_s == pytest.approx(0.030)
        assert snap.queue_wait_p95_s == pytest.approx(0.040)
        assert snap.execute_p50_s == pytest.approx(0.200)
        assert snap.execute_p95_s == pytest.approx(0.200)


class TestRegistryFolding:
    def test_counters_fold_into_registry(self):
        registry = MetricsRegistry()
        stats = ServiceStats(registry=registry)
        for _ in range(3):
            stats.record_submitted()
        stats.record_rejected()
        stats.record_batch(size=4, unique=3)
        stats.record_completion(0.5, failed=False)
        stats.record_completion(0.7, failed=True)
        snap = registry.snapshot()
        assert snap.counters["serving.requests"] == 3
        assert snap.counters["serving.rejected"] == 1
        assert snap.counters["serving.batches"] == 1
        assert snap.counters["serving.deduplicated"] == 1
        assert snap.counters["serving.completed"] == 1
        assert snap.counters["serving.failed"] == 1
        assert snap.histograms["serving.latency_s"].count == 1
        assert snap.histograms["serving.failed_latency_s"].count == 1
        assert snap.histograms["serving.batch_size"].p50 == 4.0

    def test_two_services_share_one_registry_surface(self):
        registry = MetricsRegistry()
        a = ServiceStats(registry=registry)
        b = ServiceStats(registry=registry)
        a.record_submitted()
        b.record_submitted()
        assert registry.snapshot().counters["serving.requests"] == 2


class TestConcurrentRecorders:
    def test_hammered_stats_stay_consistent(self):
        """Threads hammer every record_* path while snapshots run; the
        final snapshot must account for every recorded event."""
        registry = MetricsRegistry()
        stats = ServiceStats(registry=registry)
        per_thread, num_threads = 200, 8
        start = threading.Barrier(num_threads + 1)
        snapshots: list = []

        def hammer(thread_index: int) -> None:
            start.wait()
            for i in range(per_thread):
                stats.record_submitted()
                stats.record_batch(size=2, unique=1)
                stats.record_batch_split([0.001, 0.002], execute_s=0.003)
                stats.record_completion(0.001 * (i % 7),
                                        failed=(i % 5 == 0))

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(num_threads)]
        for thread in threads:
            thread.start()
        start.wait()
        for _ in range(50):
            snapshots.append(stats.snapshot())  # must never raise
        for thread in threads:
            thread.join()

        total = per_thread * num_threads
        snap = stats.snapshot()
        assert snap.requests == total
        assert snap.completed + snap.failed == total
        assert snap.batches == total
        assert snap.deduplicated == total
        # Mid-flight snapshots are internally consistent views.
        for mid in snapshots:
            assert mid.completed + mid.failed <= mid.requests
            assert mid.latency_p95_s >= mid.latency_p50_s >= 0.0
        folded = registry.snapshot()
        assert folded.counters["serving.requests"] == total
        assert folded.counters["serving.completed"] == snap.completed
        assert folded.counters["serving.failed"] == snap.failed
