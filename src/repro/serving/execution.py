"""Eager / lazy / hybrid recommendation execution models.

*When* a recommendation is computed is a cost decision.  The serving
stack so far always computed on demand; once engine time, cache puts
and storage are billed in dollars (:mod:`repro.serving.pricing`), three
execution strategies compete:

* **lazy** -- compute every recommendation on demand, at the peak-hour
  engine rate, and let the result cache absorb repeats.  Optimal when
  traffic barely repeats: nothing is precomputed, nothing is wasted;
* **eager** -- precompute the recommendation head off-peak: the users
  covering a target fraction of (predicted) traffic are served once
  before the run and their results warmed into the cache.  The
  precompute bill lands under "Warm-up" at the off-peak discount; the
  run then serves the head from cache at get-fee prices.  Optimal for
  heavy repetition with a deep off-peak valley, wasteful otherwise
  (precomputed one-offs die unread);
* **hybrid** -- precompute only the users whose *predicted recurrence*
  clears a threshold (the empirical repeat probability ``(n-1)/n``
  from a planning trace), serve the rest lazily through a
  :class:`~repro.serving.cache.RepetitionAwareCache` that refuses to
  cache one-off results.  It pays the warm bill only where repetition
  is proven, which is why the E-cost study pins it never worse in
  dollars than the worse of eager/lazy on the studied traces.

Models are strategies *over* :class:`~repro.serving.session.ServingSession`:
each ``execute`` builds a fresh session from the supplied factory (a
session accumulates ledger/cache state, so arms must not share one),
optionally warms it, then drives the same request trace through it.
The planning trace defaults to the run trace itself -- the simulator's
stand-in for "yesterday's traffic predicts today's", the assumption
every production precompute pipeline makes.

:func:`run_execution_model` dispatches by name, which is how the
:mod:`~repro.serving.workload_analyzer` recommendation becomes a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.serving.session import ServingResult, ServingSession
from repro.serving.traffic import Request
from repro.serving.workload_analyzer import hot_users, user_request_counts

__all__ = [
    "ExecutionOutcome",
    "LazyExecutionModel",
    "EagerExecutionModel",
    "HybridExecutionModel",
    "run_execution_model",
    "EXECUTION_MODELS",
]

SessionFactory = Callable[[], ServingSession]


@dataclass(frozen=True)
class ExecutionOutcome:
    """One execution model's run: the result plus what was precomputed."""

    model: str
    result: ServingResult
    precomputed_users: Tuple[int, ...] = ()

    @property
    def report(self):
        return self.result.report

    @property
    def dollars(self) -> Optional[float]:
        """Total dollar bill (None when the session ran unpriced)."""
        if self.result.price_ledger is None:
            return None
        return self.result.price_ledger.total()

    @property
    def energy_uj(self) -> float:
        return self.result.ledger.total().energy_uj

    def format_row(self) -> str:
        dollars = f"${self.dollars:.6f}" if self.dollars is not None else "$-"
        return (
            f"  {self.model:<7s} {dollars:>12s} "
            f"E={self.energy_uj:10.4f}uJ p95={self.report.p95_ms:8.3f}ms "
            f"hit={self.report.cache_hit_rate * 100.0:5.1f}% "
            f"warmed={len(self.precomputed_users)}"
        )


class _ExecutionModel:
    """Build a fresh session, warm the users :meth:`plan` picks, run it."""

    name = ""

    def plan(self, history: Sequence[Request]) -> List[int]:
        """The users to precompute before the run (none by default)."""
        return []

    def execute(
        self,
        session_factory: SessionFactory,
        requests: Sequence[Request],
        history: Optional[Sequence[Request]] = None,
    ) -> ExecutionOutcome:
        session = session_factory()
        planned = self.plan(requests if history is None else history)
        if session.cache is not None:
            # Never precompute past what the cache can hold: results
            # beyond capacity would be served (billed) and then dropped.
            planned = planned[: session.cache.capacity]
            if planned:
                session.warm(planned)
        else:
            planned = []
        return ExecutionOutcome(self.name, session.run(requests), tuple(planned))


class LazyExecutionModel(_ExecutionModel):
    """Compute on demand; the cache alone exploits repetition."""

    name = "lazy"


class EagerExecutionModel(_ExecutionModel):
    """Precompute the traffic head off-peak, serve it from cache.

    ``traffic_fraction`` sets how much of the predicted traffic the
    precomputed head should cover (the knee of the Zipf curve decides
    how many users that takes).
    """

    name = "eager"

    def __init__(self, traffic_fraction: float = 0.75):
        if not 0.0 < traffic_fraction <= 1.0:
            raise ValueError(
                f"traffic fraction must be in (0, 1], got {traffic_fraction}"
            )
        self.traffic_fraction = traffic_fraction

    def plan(self, history: Sequence[Request]) -> List[int]:
        """The users to precompute, most traffic first."""
        return hot_users(history, self.traffic_fraction)


class HybridExecutionModel(_ExecutionModel):
    """Precompute only users whose predicted recurrence clears a threshold.

    A user requested ``n`` times in the planning trace has empirical
    repeat probability ``(n-1)/n``; only users at or above
    ``recurrence_threshold`` are precomputed (0.5 means "seen at least
    twice").  Pairs naturally with a
    :class:`~repro.serving.cache.RepetitionAwareCache` in the session
    factory, which extends the same principle to on-demand fills.
    """

    name = "hybrid"

    def __init__(self, recurrence_threshold: float = 0.5):
        if not 0.0 <= recurrence_threshold < 1.0:
            raise ValueError(
                "recurrence threshold must be in [0, 1), "
                f"got {recurrence_threshold}"
            )
        self.recurrence_threshold = recurrence_threshold

    def plan(self, history: Sequence[Request]) -> List[int]:
        """Users with proven recurrence, heaviest first (ties by id)."""
        counts = user_request_counts(history)
        recurring = [
            (user, count)
            for user, count in counts.items()
            if count > 1 and (count - 1) / count >= self.recurrence_threshold
        ]
        recurring.sort(key=lambda pair: (-pair[1], pair[0]))
        return [user for user, _ in recurring]


#: Model name -> zero-argument default construction, the dispatch table
#: the analyzer recommendation indexes into.
EXECUTION_MODELS = {
    "lazy": LazyExecutionModel,
    "eager": EagerExecutionModel,
    "hybrid": HybridExecutionModel,
}


def run_execution_model(
    name: str,
    session_factory: SessionFactory,
    requests: Sequence[Request],
    history: Optional[Sequence[Request]] = None,
    **model_kwargs,
) -> ExecutionOutcome:
    """Build the named model with ``model_kwargs`` and execute it."""
    try:
        model_cls = EXECUTION_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution model {name!r}; "
            f"choose from {sorted(EXECUTION_MODELS)}"
        ) from None
    return model_cls(**model_kwargs).execute(session_factory, requests, history)
