"""Tests for simulator components: links, executors, KV pools, metrics."""

import math
from heapq import heappop, heappush

import pytest
from hypothesis import given, strategies as st

from repro.cluster import ComputeNode, Profiler, T4
from repro.cluster.network import Link
from repro.core.placement_types import ModelPlacement
from repro.scheduling import RandomScheduler
from repro.sim import (
    KVCachePool,
    LinkChannel,
    NodeExecutor,
    Request,
    Simulation,
    StageWork,
)
from repro.sim.simulator import K_BATCH
from repro.sim.metrics import LatencyStats, RequestRecord, aggregate_metrics


class TestLinkChannel:
    def test_idle_link_immediate_start(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1000.0, latency=0.1))
        arrival = channel.transmit(now=0.0, num_bytes=500)
        assert arrival == pytest.approx(0.5 + 0.1)

    def test_fifo_queueing(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1000.0, latency=0.0))
        first = channel.transmit(0.0, 1000)   # occupies [0, 1]
        second = channel.transmit(0.0, 1000)  # waits until 1, arrives at 2
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)
        assert channel.total_queueing_delay == pytest.approx(1.0)
        assert channel.max_queueing_delay == pytest.approx(1.0)

    def test_no_queueing_when_spaced(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1000.0, latency=0.0))
        channel.transmit(0.0, 100)
        channel.transmit(5.0, 100)
        assert channel.mean_queueing_delay == 0.0

    def test_stats_accumulate(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1e6))
        channel.transmit(0.0, 100)
        channel.transmit(0.0, 200)
        assert channel.bytes_sent == 300
        assert channel.messages_sent == 2

    def test_fault_adds_its_delay(self):
        from repro.online.faults import LinkFault

        channel = LinkChannel(Link("a", "b", bandwidth=1000.0, latency=0.1))
        channel.fault = LinkFault(0.5, 0.25, seed="flaky")
        twin = LinkFault(0.5, 0.25, seed="flaky")
        arrivals = [channel.transmit(0.0, 500) for _ in range(8)]
        expected = [0.5 * (i + 1) + 0.1 + twin.delay() for i in range(8)]
        assert arrivals == expected
        assert channel.fault.messages == 8
        assert channel.fault.drops == twin.drops > 0

    def test_negative_size_rejected(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1e6))
        with pytest.raises(ValueError):
            channel.transmit(0.0, -1)

    @given(
        sizes=st.lists(st.floats(min_value=1, max_value=1e6), min_size=1, max_size=20)
    )
    def test_link_never_exceeds_bandwidth(self, sizes):
        bandwidth = 1e5
        channel = LinkChannel(Link("a", "b", bandwidth=bandwidth, latency=0.0))
        last_arrival = 0.0
        for size in sizes:
            last_arrival = channel.transmit(0.0, size)
        # Total bytes / total busy time == bandwidth exactly (no latency).
        assert last_arrival == pytest.approx(sum(sizes) / bandwidth)


def _one_node_simulation(cluster, model, input_len=1):
    """The real engine, a100-0 holding all 8 layers, serving one request
    of ``input_len`` prompt tokens and a single output token."""
    placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
    scheduler = RandomScheduler(cluster, model, placement)
    return Simulation(
        cluster, model, placement, scheduler, [Request("r", input_len, 1)]
    )


class TestNodeExecutor:
    def _executor(self, tiny_model, cap=None):
        node = ComputeNode("t4", T4)
        return NodeExecutor(node, tiny_model, Profiler(), 4, max_batch_tokens=cap)

    @staticmethod
    def _start_batch(sim, executor, works):
        """Queue ``works`` and let the engine cut one batch; pops and
        returns the ``K_BATCH`` event it pushed (the batch is [3][2])."""
        executor.queue.extend(works)
        executor.queue_tokens += sum(w.num_tokens for w in works)
        executor.queue_tl += sum(w.tl for w in works)
        sim._start_batch(executor)
        event = heappop(sim._events)
        assert event[2] == K_BATCH and event[3][0] is executor
        return event

    @staticmethod
    def _prompts(count, tokens):
        return [
            StageWork(f"r{i}", 0, tokens, 4, True, tl=tokens * 4)
            for i in range(count)
        ]

    def test_take_batch_drains_queue(self, small_cluster, tiny_model):
        sim = _one_node_simulation(small_cluster, tiny_model)
        ex = self._executor(tiny_model)
        batch = self._start_batch(sim, ex, self._prompts(3, 10))[3][2]
        assert len(batch) == 3
        assert not ex.queue and ex.busy

    def test_batch_cap_respected(self, small_cluster, tiny_model):
        sim = _one_node_simulation(small_cluster, tiny_model)
        ex = self._executor(tiny_model, cap=25)
        batch = self._start_batch(sim, ex, self._prompts(3, 10))[3][2]
        assert len(batch) == 2  # 10 + 10 fits, third would exceed 25
        assert len(ex.queue) == 1

    def test_single_oversize_item_still_runs(self, small_cluster, tiny_model):
        sim = _one_node_simulation(small_cluster, tiny_model)
        ex = self._executor(tiny_model, cap=5)
        batch = self._start_batch(sim, ex, self._prompts(1, 100))[3][2]
        assert len(batch) == 1

    def test_batch_time_increases_with_work(self, tiny_model, profiler):
        node = ComputeNode("t4", T4)
        small = profiler.batch_time(node, tiny_model, 1 * 4, 4)
        large = profiler.batch_time(node, tiny_model, 512 * 4, 4)
        assert large > small

    def test_batch_amortizes_weight_read(self, tiny_model, profiler):
        # Two tokens in one batch beat two single-token batches.
        node = ComputeNode("t4", T4)
        one = profiler.batch_time(node, tiny_model, 1 * 4, 4)
        two = profiler.batch_time(node, tiny_model, 2 * 4, 4)
        assert two < 2 * one

    def test_stats_recorded(self, small_cluster, tiny_model, profiler):
        # A one-token request is a single prompt batch of 10 tokens.
        sim = _one_node_simulation(small_cluster, tiny_model, input_len=10)
        sim.run()
        ex = sim.executors["a100-0"]
        assert ex.stats.batches == 1
        assert ex.stats.tokens == 10
        assert ex.stats.busy_time == profiler.batch_time(
            ex.node, tiny_model, 10 * 8, 8
        )
        assert ex.utilization(2 * ex.stats.busy_time) == pytest.approx(0.5)

    def test_quiesce_drops_queue_and_strands_batch(
        self, small_cluster, tiny_model
    ):
        sim = _one_node_simulation(small_cluster, tiny_model)
        ex = self._executor(tiny_model, cap=25)
        event = self._start_batch(sim, ex, self._prompts(3, 10))
        ex.quiesce(busy=True)
        assert (ex.queue, ex.queue_tokens, ex.queue_tl) == ([], 0, 0)
        assert ex.busy
        # The stranded batch completes as a no-op when the loop pops it.
        heappush(sim._events, event)
        sim.run()
        assert ex.stats.batches == 0 and ex.busy
        ex.quiesce()
        assert not ex.busy

    def test_rejects_zero_layers(self, tiny_model):
        with pytest.raises(ValueError, match="resident"):
            NodeExecutor(ComputeNode("t4", T4), tiny_model, Profiler(), 0)


def _run_one_pool(cluster, model, requests, expected_output_len):
    """Run ``requests`` through one node holding every layer of ``model``.

    The pool is scaled to 1,214 tokens so a few requests can fill it.
    Returns the simulation and its metrics.
    """
    from repro.flow.graph import FlowGraph
    from repro.scheduling import HelixScheduler

    profiler = Profiler(kv_capacity_scale=0.001)
    placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
    flow = FlowGraph(cluster, model, placement).solve()
    scheduler = HelixScheduler(
        cluster, model, placement, profiler, flow=flow,
        expected_output_len=expected_output_len,
    )
    sim = Simulation(
        cluster, model, placement, scheduler, requests,
        profiler=profiler, max_time=1e9, seed=0,
    )
    return sim, sim.run()


class TestKVCachePool:
    def test_allocate_and_free(self, small_cluster, tiny_model):
        """The engine charges the prompt once, then one token per decode.

        A lone request of 32 prompt and 8 output tokens peaks at 39
        charged tokens: the last output token is emitted, not fed back.
        Finishing the request frees every charge.
        """
        sim, metrics = _run_one_pool(
            small_cluster, tiny_model, [Request("r0", 32, 8)], 8.0
        )
        pool = sim.kv_pools["a100-0"]
        assert pool.peak_tokens == 39
        assert pool.overflow_events == 0
        assert pool.used_tokens == 0
        assert metrics.requests_finished == 1

    def test_overflow_counted_not_fatal(self, small_cluster, tiny_model):
        """The engine's KV charge overflows a pool without failing a request.

        The scheduler budgets 4 output tokens per request while each
        decodes 64, so its KV estimate admits all 16 requests at once and
        the pool's 1,214 tokens overflow as decode grows. Every request
        still finishes and frees its charge.
        """
        requests = [Request(f"r{i}", 32, 64) for i in range(16)]
        sim, metrics = _run_one_pool(small_cluster, tiny_model, requests, 4.0)
        pool = sim.kv_pools["a100-0"]
        assert pool.capacity_tokens == 1214
        assert pool.overflow_events == 306
        assert pool.used_tokens == 0
        assert metrics.kv_overflow_events == 306
        assert metrics.requests_finished == 16

    def test_peak_tracking(self, small_cluster, tiny_model):
        """``peak_tokens`` keeps the high-water mark after the pool drains."""
        requests = [Request(f"r{i}", 32, 64) for i in range(16)]
        sim, _ = _run_one_pool(small_cluster, tiny_model, requests, 4.0)
        pool = sim.kv_pools["a100-0"]
        assert pool.peak_tokens == 1505
        assert pool.peak_tokens > pool.capacity_tokens
        assert pool.used_tokens == 0

    def test_free_clamps(self):
        pool = KVCachePool("n", capacity_tokens=100)
        pool.free(10)
        assert pool.used_tokens == 0

    def test_negative_amounts_rejected(self):
        pool = KVCachePool("n", capacity_tokens=10)
        with pytest.raises(ValueError):
            pool.free(-1)


class TestMetrics:
    def test_latency_stats_percentiles(self):
        stats = LatencyStats.from_samples(list(map(float, range(1, 101))))
        assert stats.count == 100
        assert stats.p50 == pytest.approx(50.5)
        assert stats.p5 == pytest.approx(5.95)
        assert stats.p95 == pytest.approx(95.05)
        assert stats.mean == pytest.approx(50.5)

    def test_latency_stats_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert math.isnan(stats.mean)

    def test_latency_stats_ignores_nan(self):
        stats = LatencyStats.from_samples([1.0, float("nan"), 3.0])
        assert stats.count == 2
        assert stats.mean == pytest.approx(2.0)

    def test_latency_stats_counts_dropped_nan_samples(self):
        # NaN samples (lost / unfinished requests) are excluded from the
        # distribution but not silently forgotten.
        stats = LatencyStats.from_samples([1.0, float("nan"), 3.0])
        assert stats.nan_count == 1
        all_nan = LatencyStats.from_samples([float("nan")] * 3)
        assert all_nan.count == 0
        assert all_nan.nan_count == 3
        assert math.isnan(all_nan.mean)
        assert LatencyStats.from_samples([1.0, 2.0]).nan_count == 0

    def test_request_record_latencies(self):
        record = RequestRecord("r", 10, 3, arrival_time=1.0)
        record.first_token_time = 2.0
        record.token_times = [2.0, 2.5, 3.5]
        record.finish_time = 3.5
        assert record.prompt_latency == pytest.approx(1.0)
        assert record.decode_latency == pytest.approx(0.75)
        assert record.finished

    def test_decode_latency_needs_two_tokens(self):
        record = RequestRecord("r", 10, 1, arrival_time=0.0)
        record.token_times = [1.0]
        assert math.isnan(record.decode_latency)

    def test_aggregate_counts_decode_tokens_in_window(self):
        record = RequestRecord("r", 10, 4, arrival_time=0.0)
        record.first_token_time = 1.0
        record.token_times = [1.0, 2.0, 3.0, 11.0]
        record.finish_time = 11.0
        metrics = aggregate_metrics(
            [record], warmup=0.0, end_time=10.0,
            kv_overflow_events=0, pipeline_depths=[2],
        )
        # Tokens at 2.0 and 3.0 are decode tokens inside [0, 10]; the first
        # token (1.0) is the prompt token and 11.0 is outside the window.
        assert metrics.decode_tokens == 2
        assert metrics.decode_throughput == pytest.approx(0.2)

    def test_aggregate_rejects_empty_window(self):
        with pytest.raises(ValueError, match="window"):
            aggregate_metrics([], warmup=5.0, end_time=5.0,
                              kv_overflow_events=0, pipeline_depths=[])

    def test_summary_renders(self):
        record = RequestRecord("r", 10, 2, arrival_time=0.0)
        record.first_token_time = 1.0
        record.token_times = [1.0, 2.0]
        record.finish_time = 2.0
        metrics = aggregate_metrics(
            [record], warmup=0.0, end_time=4.0,
            kv_overflow_events=0, pipeline_depths=[1],
        )
        assert "decode" in metrics.summary()

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request("r", 0, 5)
        with pytest.raises(ValueError):
            Request("r", 5, 0)
        with pytest.raises(ValueError):
            Request("r", 5, 5, arrival_time=-1.0)
        assert Request("r", 5, 5).total_tokens == 10

    @pytest.mark.parametrize("when", [math.nan, math.inf, -math.inf])
    def test_request_rejects_non_finite_arrival(self, when):
        # NaN slips past a plain ``< 0`` check and would corrupt the sorted
        # arrival order the simulator feeds its heap from.
        with pytest.raises(ValueError, match="non-finite"):
            Request("r", 5, 5, arrival_time=when)
