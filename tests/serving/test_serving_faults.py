"""Unit tests for the deterministic fault-injection plane.

The fault schedule is the chaos harness's ground truth: everything the
resilience layer does is a reaction to what these objects answer.  So
the contracts are pinned directly -- event validation, the plan's
canonical ordering, the injector's point-in-time oracles (including the
consume-once flush cursor), and the seeded scenario builders' layout
guarantees (the "a resilient fleet never goes fully dark" invariants
the E-chaos acceptance numbers depend on).
"""

import pytest

from repro.serving.faults import (
    CACHE_FLUSH,
    CRASH,
    ERROR,
    SHARD_OUTAGE,
    STRAGGLER,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    chaos_scenario,
    escalating_scenarios,
)


# -- FaultEvent validation -------------------------------------------------


def test_event_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent("meteor-strike", 0.0, 1.0)


def test_event_rejects_negative_start():
    with pytest.raises(ValueError, match="before t=0"):
        FaultEvent(CRASH, -0.1, 1.0)


def test_event_rejects_inverted_window():
    with pytest.raises(ValueError, match="ends before it starts"):
        FaultEvent(CRASH, 1.0, 0.5)


def test_cache_flush_must_be_instant():
    with pytest.raises(ValueError, match="instant"):
        FaultEvent(CACHE_FLUSH, 0.5, 0.6)
    FaultEvent(CACHE_FLUSH, 0.5, 0.5)  # the instant form is fine


def test_shard_outage_targets_whole_shard():
    with pytest.raises(ValueError, match="every replica"):
        FaultEvent(SHARD_OUTAGE, 0.0, 1.0, shard=0, replica=1)


def test_straggler_severity_must_slow_things_down():
    with pytest.raises(ValueError, match="severity"):
        FaultEvent(STRAGGLER, 0.0, 1.0, severity=1.0)


_NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: FaultEvent(CRASH, _NAN, 1.0),
        lambda: FaultEvent(CRASH, 0.0, _NAN),
        lambda: FaultEvent(STRAGGLER, 0.0, 1.0, severity=_NAN),
    ],
    ids=["nan-start", "nan-end", "nan-severity"],
)
def test_event_rejects_nan(make):
    """NaN fails every window and severity check (``x < 0`` alone is
    False for NaN, so the checks are written to fail on it)."""
    with pytest.raises(ValueError):
        make()


def test_event_rejects_negative_site():
    with pytest.raises(ValueError, match="shard index"):
        FaultEvent(CRASH, 0.0, 1.0, shard=-1)
    with pytest.raises(ValueError, match="replica index"):
        FaultEvent(CRASH, 0.0, 1.0, replica=-2)


def test_covers_is_half_open():
    event = FaultEvent(CRASH, 1.0, 2.0)
    assert not event.covers(0.999)
    assert event.covers(1.0)
    assert event.covers(1.999)
    assert not event.covers(2.0)  # the replica restarts at end_s


def test_targets_replica_none_hits_every_replica():
    outage = FaultEvent(SHARD_OUTAGE, 0.0, 1.0, shard=1)
    assert outage.targets(1, 0) and outage.targets(1, 7)
    assert not outage.targets(0, 0)
    crash = FaultEvent(CRASH, 0.0, 1.0, shard=1, replica=1)
    assert crash.targets(1, 1)
    assert not crash.targets(1, 0)


# -- FaultPlan value semantics ---------------------------------------------


def test_plan_sorts_into_canonical_order():
    early = FaultEvent(CRASH, 0.1, 0.2, shard=1, replica=0)
    late = FaultEvent(STRAGGLER, 0.3, 0.5, severity=2.0)
    outage = FaultEvent(SHARD_OUTAGE, 0.1, 0.2, shard=1)
    forward = FaultPlan((early, late, outage))
    backward = FaultPlan((late, outage, early))
    assert forward == backward
    assert [event.start_s for event in forward.events] == [0.1, 0.1, 0.3]
    # Ties break on kind before site: "crash" < "shard-outage".
    assert forward.events[0] is early
    assert forward.events[1] is outage


def test_plan_by_kind_and_mttr():
    plan = FaultPlan(
        (
            FaultEvent(CRASH, 0.0, 0.2, replica=0),
            FaultEvent(SHARD_OUTAGE, 0.5, 0.9),
            FaultEvent(STRAGGLER, 0.0, 1.0, severity=3.0),
            FaultEvent(CACHE_FLUSH, 0.4, 0.4),
        )
    )
    assert len(plan.by_kind(CRASH)) == 1
    assert len(plan.by_kind(ERROR)) == 0
    with pytest.raises(ValueError, match="unknown fault kind"):
        plan.by_kind("gremlins")
    # MTTR averages only the downtime windows (crash 0.2s, outage 0.4s);
    # stragglers degrade service but nothing needs restarting.
    assert plan.mttr_s() == pytest.approx(0.3)


def test_empty_plan_has_no_mttr():
    plan = FaultPlan(())
    assert plan.empty and len(plan) == 0
    assert plan.mttr_s() is None


# -- FaultInjector oracles -------------------------------------------------


def _injector():
    return FaultInjector(
        FaultPlan(
            (
                FaultEvent(CRASH, 0.1, 0.3, shard=0, replica=1),
                FaultEvent(SHARD_OUTAGE, 0.4, 0.6, shard=1),
                FaultEvent(ERROR, 0.2, 0.5, shard=0, replica=0),
                FaultEvent(STRAGGLER, 0.0, 1.0, shard=0, replica=0, severity=4.0),
                FaultEvent(STRAGGLER, 0.5, 1.0, shard=0, replica=0, severity=2.0),
                FaultEvent(CACHE_FLUSH, 0.25, 0.25),
                FaultEvent(CACHE_FLUSH, 0.75, 0.75),
            )
        )
    )


def test_down_at_distinguishes_sites_and_times():
    injector = _injector()
    assert injector.down_at(0, 1, 0.2).kind == CRASH
    assert injector.down_at(0, 1, 0.35) is None  # restarted
    assert injector.down_at(0, 0, 0.2) is None  # wrong replica
    # The outage darkens every replica of shard 1.
    assert injector.down_at(1, 0, 0.5).kind == SHARD_OUTAGE
    assert injector.down_at(1, 3, 0.5).kind == SHARD_OUTAGE


def test_error_at_only_inside_window():
    injector = _injector()
    assert injector.error_at(0, 0, 0.3).kind == ERROR
    assert injector.error_at(0, 0, 0.6) is None
    assert injector.error_at(0, 1, 0.3) is None


def test_latency_multiplier_stacks():
    injector = _injector()
    assert injector.latency_multiplier(0, 0, 0.1) == 4.0
    assert injector.latency_multiplier(0, 0, 0.6) == 8.0  # 4x * 2x overlap
    assert injector.latency_multiplier(0, 1, 0.6) == 1.0
    assert injector.latency_multiplier(1, 0, 0.6) == 1.0


def test_take_flushes_fires_each_instant_once():
    injector = _injector()
    assert injector.take_flushes(0.1) == []
    first = injector.take_flushes(0.3)
    assert [event.start_s for event in first] == [0.25]
    assert injector.take_flushes(0.3) == []  # already consumed
    second = injector.take_flushes(2.0)
    assert [event.start_s for event in second] == [0.75]
    assert injector.take_flushes(2.0) == []
    injector.reset()
    assert len(injector.take_flushes(2.0)) == 2  # rewound for a fresh run


# -- seeded scenario builders ----------------------------------------------


def test_chaos_scenario_is_deterministic_per_seed():
    one = chaos_scenario(1.0, 2, 2, seed=7)
    two = chaos_scenario(1.0, 2, 2, seed=7)
    other = chaos_scenario(1.0, 2, 2, seed=8)
    assert one == two
    assert one != other


def test_chaos_scenario_validates_shape():
    with pytest.raises(ValueError, match="duration"):
        chaos_scenario(0.0, 2, 2)
    with pytest.raises(ValueError, match="duration"):
        chaos_scenario(_NAN, 2, 2)
    with pytest.raises(ValueError, match="at least one shard"):
        chaos_scenario(1.0, 0, 2)
    with pytest.raises(ValueError, match="at least one shard"):
        chaos_scenario(1.0, 2, 0)


def test_chaos_scenario_windows_stay_inside_the_run():
    plan = chaos_scenario(2.0, 3, 2, seed=3, crashes=5, outages=3, stragglers=4)
    for event in plan.events:
        assert 0.0 <= event.start_s <= event.end_s <= 2.0 + 1e-12


def test_chaos_scenario_layout_keeps_a_recovery_path():
    """The documented placement invariants behind the E-chaos numbers."""
    plan = chaos_scenario(1.0, 3, 2, seed=0, crashes=4, outages=2, stragglers=3)
    outages = plan.by_kind(SHARD_OUTAGE)
    crashes = plan.by_kind(CRASH)
    stragglers = plan.by_kind(STRAGGLER)
    # Outages rotate shards with non-overlapping windows: some shard is
    # always up, so a partial gather has survivors to draw from.
    assert [event.shard for event in outages] == [0, 1]
    for first, second in zip(outages, outages[1:]):
        assert first.end_s <= second.start_s
    # Crashes keep off shard 0 (the first outage target) and rotate
    # replicas, so every crash leaves a healthy peer to fail over to.
    assert all(event.shard != 0 for event in crashes)
    assert {event.replica for event in crashes} == {0, 1}
    # Stragglers sit on shard 0, away from the crash shards: a straggler
    # on a crash site's last replica would set an unbeatable latency floor.
    assert all(event.shard == 0 for event in stragglers)
    assert all(event.severity > 1.0 for event in stragglers)


def test_chaos_scenario_single_shard_still_schedules():
    plan = chaos_scenario(1.0, 1, 2, seed=0)
    assert all(event.shard == 0 for event in plan.events)
    assert len(plan.by_kind(CRASH)) == 2


def test_escalating_scenarios_ladder():
    ladder = escalating_scenarios(1.0, 2, 2, seed=0)
    assert list(ladder) == ["light", "moderate", "severe"]
    # Light is stragglers-only: nothing goes down, so no MTTR.
    assert ladder["light"].mttr_s() is None
    assert len(ladder["light"].by_kind(STRAGGLER)) == 2
    # The moderate rung is the pinned acceptance scenario.
    assert ladder["moderate"] == chaos_scenario(1.0, 2, 2, seed=0)
    # Severe piles on strictly more of everything.
    assert len(ladder["severe"]) > len(ladder["moderate"])
    for kind in (CRASH, SHARD_OUTAGE, STRAGGLER, ERROR):
        assert len(ladder["severe"].by_kind(kind)) >= len(
            ladder["moderate"].by_kind(kind)
        )
