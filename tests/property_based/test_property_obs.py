"""Hypothesis properties of the observability plane.

* :class:`SimClock` is bitwise the ``now += gap`` float loop it replaced
  and never moves backwards;
* histogram renders are internally consistent for arbitrary observations
  (cumulative buckets monotone, +Inf bucket equals the count, quantiles
  monotone in q);
* for arbitrary traffic through a real :class:`ServingSession`, the
  trace validates, sequential stage spans tile inside their batch span
  (per-stage durations sum to at most the batch wall-clock), every
  request span matches its record exactly -- and the traced run is
  bit-identical to the untraced one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import BatchResult, QueryResult, ServeQuery
from repro.energy.accounting import Cost, Ledger
from repro.obs import SimClock, Telemetry, span_children
from repro.obs.metrics import Histogram
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.traffic import Request

# -- clock ----------------------------------------------------------------


@given(
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        max_size=50,
    ),
    start=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)
def test_clock_is_bitwise_the_float_loop(gaps, start):
    clock = SimClock(start_s=start)
    now = float(start)
    for gap in gaps:
        now += gap
        assert clock.advance(gap) == now  # exact equality, by contract


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50
    )
)
def test_clock_advance_to_is_monotone(times):
    clock = SimClock()
    previous = 0.0
    for time_s in times:
        assert clock.advance_to(time_s) >= previous
        assert clock.now_s == max(previous, time_s)
        previous = clock.now_s


# -- histogram render consistency ----------------------------------------


@given(
    observations=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=60)
def test_histogram_render_is_consistent(observations):
    histogram = Histogram("h", "", buckets=(0.1, 1.0, 10.0, 100.0))
    for value in observations:
        histogram.observe(value)
    lines = histogram.render()
    bucket_counts = [
        int(line.rsplit(" ", 1)[1]) for line in lines if "_bucket" in line
    ]
    assert bucket_counts == sorted(bucket_counts)  # cumulative => monotone
    assert bucket_counts[-1] == len(observations)  # +Inf catches everything
    assert histogram.count() == len(observations)
    assert abs(histogram.sum() - sum(observations)) <= 1e-6 * max(
        1.0, sum(observations)
    )
    quantiles = [histogram.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert quantiles == sorted(quantiles)


# -- traced sessions over arbitrary traffic ------------------------------

_SEQUENTIAL_STAGES = {"queue", "cache-lookup", "engine", "cache-fill", "migration"}


class _StubEngine:
    """Deterministic engine: fixed items, size-proportional cost."""

    def __init__(self, top_k=3):
        self.top_k = top_k

    def _one(self, query):
        return QueryResult(
            items=list(range(self.top_k)),
            candidate_count=8,
            cost=Cost(energy_pj=10.0, latency_ns=500.0),
            ledger=Ledger(),
            scores=[float(self.top_k - rank) for rank in range(self.top_k)],
        )

    def recommend_query(self, query):
        return self._one(query)

    def serve_batch(self, queries, users=None):
        results = [self._one(query) for query in queries]
        return BatchResult(
            results=results,
            cost=Cost(
                energy_pj=10.0 * len(results), latency_ns=200.0 * len(results)
            ),
        )


@st.composite
def request_streams(draw):
    num_users = draw(st.integers(min_value=1, max_value=5))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2e-6, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    users = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_users - 1),
            min_size=len(gaps),
            max_size=len(gaps),
        )
    )
    clock = SimClock()
    requests = [
        Request(request_id=index, arrival_s=clock.advance(gap), user=user)
        for index, (gap, user) in enumerate(zip(gaps, users))
    ]
    return num_users, requests


@given(stream=request_streams())
@settings(max_examples=40, deadline=None)
def test_traced_session_spans_tile_and_runs_are_identical(stream):
    num_users, requests = stream
    workload = [ServeQuery.make([u], [u], [u]) for u in range(num_users)]

    def run(telemetry):
        return ServingSession(
            _StubEngine(),
            workload,
            scheduler=MicroBatchScheduler(
                MicroBatchConfig(max_batch_size=4, max_wait_s=1e-6)
            ),
            label="property session",
            telemetry=telemetry,
        ).run(requests)

    telemetry = Telemetry()
    traced = run(telemetry)
    untraced = run(None)

    # bit-identity: tracing observed, never perturbed
    assert [r.items for r in traced.records] == [r.items for r in untraced.records]
    assert [r.completion_s for r in traced.records] == [
        r.completion_s for r in untraced.records
    ]
    assert traced.ledger.total() == untraced.ledger.total()

    tracer = telemetry.tracer
    tracer.validate()
    roots = [span for span in tracer.spans if span.parent_id is None]
    assert len(roots) == len(traced.batches)
    children = span_children(tracer.spans)
    for root in roots:
        # sequential per-stage durations sum to <= the batch wall-clock
        stage_sum = sum(
            child.duration_s
            for child in children.get(root.span_id, [])
            if child.name in _SEQUENTIAL_STAGES
        )
        assert stage_sum <= root.duration_s + 1e-12

    request_spans = {
        span.attrs["request_id"]: span
        for span in tracer.spans
        if span.name == "request"
    }
    assert len(request_spans) == len(traced.records)
    for record in traced.records:
        span = request_spans[record.request.request_id]
        assert span.start_s == record.request.arrival_s
        assert span.end_s == record.completion_s
        assert span.duration_s == record.latency_s
