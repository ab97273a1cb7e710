"""Tests for the micro-batching schedulers' admission control."""

import pytest

from repro.serving.scheduler import (
    AdaptiveBatchConfig,
    AdaptiveMicroBatchScheduler,
    Batch,
    MicroBatchConfig,
    MicroBatchScheduler,
)
from repro.serving.traffic import Request


def _requests(arrivals):
    return [
        Request(request_id=index, arrival_s=arrival, user=index)
        for index, arrival in enumerate(arrivals)
    ]


def _run(config, arrivals, service_s=0.0):
    scheduler = MicroBatchScheduler(config)
    return scheduler.run(_requests(arrivals), lambda batch: service_s)


def test_batch_size_cap_enforced():
    config = MicroBatchConfig(max_batch_size=3, max_wait_s=10.0)
    batches = _run(config, [0.0] * 10)
    assert [len(batch) for batch in batches] == [3, 3, 3, 1]


def test_full_batch_dispatches_immediately():
    config = MicroBatchConfig(max_batch_size=2, max_wait_s=1.0)
    batches = _run(config, [0.0, 0.1, 5.0])
    # The first batch fills at t=0.1 -- it must not wait out the window.
    assert batches[0].dispatch_s == pytest.approx(0.1)


def test_partial_batch_waits_full_window():
    config = MicroBatchConfig(max_batch_size=8, max_wait_s=0.5)
    batches = _run(config, [0.0, 0.2, 3.0])
    assert len(batches[0]) == 2  # 0.2 joins within the window
    assert batches[0].dispatch_s == pytest.approx(0.5)  # timer semantics
    assert batches[1].dispatch_s == pytest.approx(3.5)


def test_zero_wait_is_backlog_batching():
    config = MicroBatchConfig(max_batch_size=8, max_wait_s=0.0)
    batches = _run(config, [0.0, 0.0, 1.0], service_s=2.0)
    # First two are queued together at t=0; the third arrives while the
    # engine is busy (until t=2) and dispatches alone when it frees.
    assert [len(batch) for batch in batches] == [2, 1]
    assert batches[1].dispatch_s == pytest.approx(2.0)


def test_busy_engine_accumulates_backlog():
    config = MicroBatchConfig(max_batch_size=8, max_wait_s=0.0)
    batches = _run(config, [0.0, 0.5, 0.6, 0.7], service_s=1.0)
    # Engine busy [0, 1): the three later arrivals batch together at t=1.
    assert [len(batch) for batch in batches] == [1, 3]
    assert batches[1].open_s == pytest.approx(1.0)


def test_queue_delays_accounted():
    config = MicroBatchConfig(max_batch_size=2, max_wait_s=0.0)
    batches = _run(config, [0.0, 0.0, 0.0], service_s=1.0)
    assert batches[1].queue_delays_s[0] == pytest.approx(1.0)


def test_service_order_preserves_arrival_order():
    config = MicroBatchConfig(max_batch_size=2, max_wait_s=0.1)
    batches = _run(config, [0.3, 0.0, 0.2, 0.25])
    served = [request.request_id for batch in batches for request in batch.requests]
    assert served == [1, 2, 3, 0]  # sorted by arrival time


def test_negative_service_time_rejected():
    scheduler = MicroBatchScheduler(MicroBatchConfig())
    with pytest.raises(ValueError):
        scheduler.run(_requests([0.0]), lambda batch: -1.0)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        MicroBatchConfig(max_batch_size=0)
    with pytest.raises(ValueError):
        MicroBatchConfig(max_wait_s=-0.1)


_NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: MicroBatchConfig(max_wait_s=_NAN),
        lambda: AdaptiveBatchConfig(target_p95_s=_NAN),
        lambda: AdaptiveBatchConfig(target_p95_s=0.01, grow=_NAN),
        lambda: MicroBatchScheduler(MicroBatchConfig()).run(
            _requests([0.0]), lambda batch: _NAN
        ),
    ],
    ids=["max-wait", "adaptive-target", "adaptive-grow", "service-time"],
)
def test_nan_knobs_rejected(make):
    """NaN fails every non-negativity/positivity check (``x < 0`` alone
    is False for NaN, so the checks are written to fail on it)."""
    with pytest.raises(ValueError):
        make()


def test_batch_helpers():
    batch = Batch(requests=_requests([0.0, 0.1]), open_s=0.0, dispatch_s=0.2)
    assert len(batch) == 2
    assert batch.queue_delays_s == pytest.approx([0.2, 0.1])


def test_default_config_not_shared_between_schedulers():
    # Pins the mutable-default fix: a dataclass default instance in the
    # signature would couple every scheduler built without a config.
    first = MicroBatchScheduler()
    second = MicroBatchScheduler()
    assert first.config is not second.config
    assert first.config == MicroBatchConfig()


class TestAdaptiveScheduler:
    def test_initial_knobs_inside_bounds(self):
        config = AdaptiveBatchConfig(
            target_p95_s=0.01, min_batch_size=2, max_batch_size=32,
            min_wait_s=0.0001, max_wait_s=0.002,
        )
        scheduler = AdaptiveMicroBatchScheduler(config)
        assert config.min_batch_size <= scheduler.config.max_batch_size <= config.max_batch_size
        assert config.min_wait_s <= scheduler.config.max_wait_s <= config.max_wait_s

    def test_overshoot_shrinks_wait_and_grows_cap(self):
        config = AdaptiveBatchConfig(
            target_p95_s=0.01, window=1, max_batch_size=64, max_wait_s=0.01
        )
        scheduler = AdaptiveMicroBatchScheduler(config)
        wait_before = scheduler.config.max_wait_s
        cap_before = scheduler.config.max_batch_size
        # One saturating batch: service 10x the target blows the p95.
        scheduler.run(_requests([0.0]), lambda batch: 0.1)
        decision = scheduler.knob_history[-1]
        assert decision["p95_s"] > config.target_p95_s
        assert scheduler.config.max_wait_s <= wait_before
        assert scheduler.config.max_batch_size >= cap_before
        assert scheduler.config.max_batch_size <= config.max_batch_size

    def test_headroom_grows_wait_back(self):
        config = AdaptiveBatchConfig(
            target_p95_s=0.01, window=1, max_batch_size=64, max_wait_s=0.01
        )
        scheduler = AdaptiveMicroBatchScheduler(config)
        # Deep undershoot: near-instant service on an idle stream.
        scheduler.run(_requests([0.0]), lambda batch: 1e-6)
        wait_after_relax = scheduler.config.max_wait_s
        assert scheduler.knob_history[-1]["p95_s"] < config.target_p95_s
        assert wait_after_relax > 0.0  # a zero wait can recover
        assert wait_after_relax <= config.max_wait_s

    def test_knobs_never_leave_bounds_over_a_long_run(self):
        config = AdaptiveBatchConfig(
            target_p95_s=0.005, window=2, min_batch_size=2, max_batch_size=16,
            min_wait_s=0.0, max_wait_s=0.004,
        )
        scheduler = AdaptiveMicroBatchScheduler(config)
        arrivals = [0.001 * index for index in range(60)]
        # Alternate saturation and idleness to push the controller around.
        scheduler.run(
            _requests(arrivals),
            lambda batch: 0.05 if len(batch) % 2 else 1e-6,
        )
        assert scheduler.knob_history  # the controller actually ran
        for decision in scheduler.knob_history:
            assert config.min_batch_size <= decision["max_batch_size"] <= config.max_batch_size
            assert config.min_wait_s <= decision["max_wait_s"] <= config.max_wait_s

    def test_adaptive_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBatchConfig(target_p95_s=0.0)
        with pytest.raises(ValueError):
            AdaptiveBatchConfig(target_p95_s=0.01, window=0)
        with pytest.raises(ValueError):
            AdaptiveBatchConfig(target_p95_s=0.01, min_batch_size=8, max_batch_size=4)
        with pytest.raises(ValueError):
            AdaptiveBatchConfig(target_p95_s=0.01, min_wait_s=0.2, max_wait_s=0.1)
        with pytest.raises(ValueError):
            AdaptiveBatchConfig(target_p95_s=0.01, shrink=1.0)
        with pytest.raises(ValueError):
            AdaptiveBatchConfig(target_p95_s=0.01, grow=0.5)
        with pytest.raises(ValueError):
            AdaptiveBatchConfig(target_p95_s=0.01, relax_watermark=1.5)
