"""End-to-end RecSys pipelines: iMARS vs the GPU baseline (Sec. IV-C3).

Two engines produce *functionally comparable* recommendations while
charging their respective hardware cost models:

* :class:`GPUReferenceEngine` -- the baseline: FP32 embeddings, exact
  cosine NNS (the FAISS path), per-candidate ranking; costs from the
  calibrated GPU kernel models.
* :class:`IMARSEngine` -- the accelerated pipeline: int8-quantised tables,
  LSH signatures + fixed-radius Hamming NNS, CTR-buffer top-k; costs from
  the analytic iMARS model.
* :class:`GPUSpilloverEngine` -- the heterogeneous-fleet overflow backend:
  it serves the *iMARS functional pipeline* (same int8 tables, same LSH
  index, same fixed radius, same seed -- recommendations are bit-identical
  to the IMC replicas it stands beside) while charging the calibrated GPU
  kernel models (ET lookups, DNN GEMMs, an XOR+popcount Hamming scan, a
  top-k kernel).  This models a CUDA port of the *deployed* model rather
  than the FP32 exact-cosine baseline, which is what a production fleet
  spills to: routing a query to the GPU must never change what the user
  sees, only what the ledger pays.

Both wrap the same trained YouTubeDNN models, so accuracy differences come
only from the IMC-friendly substitutions (quantisation, distance function,
fixed-radius selection) -- the comparison of Sec. IV-B.

All three run one pipeline, written once on the engine base class:
:meth:`recommend` serves one query alone and is the reference the batch
path is pinned to bit for bit; each engine supplies only its kernels (the
NNS, and on iMARS the CTR scorer) and its cost hooks.

Serving interface
-----------------
Beyond the single-query :meth:`recommend`, every engine exposes the
uniform batch interface the online serving subsystem
(:mod:`repro.serving`) drives:

* :class:`ServeQuery` -- a hashable (history, demographics, context)
  triple, usable directly as a cache key;
* :meth:`serve_batch` -- serve a micro-batch, returning per-query results
  plus one engine-specific batched :class:`Cost`: the GPU amortises its
  kernel-launch/dispatch overheads across the batch, while iMARS pipelines
  queries through its fabric stages (bounded by the slowest stage); an
  empty batch is a legal no-op (a replica that received no queries in a
  dispatch round); ``users`` optionally hands in the batch's user-tower
  rows (:func:`embed_queries`), which the shard router computes once for
  a whole fleet that shares one filtering model, and ``ranked`` the
  queries' ranked rows, which a replica group whose members rank alike
  (:meth:`_ranks_like`) computes once per dispatch round, or which the
  shard router reads from the table it ranked ahead;
* :attr:`expected_query_latency_s` -- an EWMA of the engine's observed
  per-query occupancy, the work estimate replica routers
  (:class:`repro.serving.shard.ReplicaGroup`) use for
  least-outstanding-work dispatch;
* ``item_subset`` -- every engine can be built over a slice of the item
  corpus, the building block of the shard router
  (:class:`repro.serving.shard.ShardedEngine`); returned item ids are
  always *global* corpus ids;
* :meth:`merge_cost` -- the platform-appropriate cost of merging ``n``
  scored entries into a final top-k (scatter-gather reduction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.accelerator import IMARSCostModel
from repro.core.mapping import WorkloadMapping
from repro.energy.accounting import Cost, Ledger
from repro.gpu.device import GPUDeviceModel, GTX1080
from repro.gpu.kernels import (
    gpu_dnn_stack,
    gpu_et_operation,
    gpu_nns_cosine,
    gpu_nns_lsh,
    gpu_topk,
)
from repro.lsh.hyperplane import RandomHyperplaneLSH
from repro.models.youtube_dnn import YouTubeDNNFiltering, YouTubeDNNRanking, score_in_chunks
from repro.nns.exact import cosine_topk, cosine_topk_batch
# No engine calls it any more; the e2e host tracer still wraps this name here.
from repro.nns.exact import topk_indices_batch  # noqa: F401
from repro.nns.fixed_radius import (
    cap_candidates,
    fixed_radius_candidates,
    fixed_radius_candidates_batch,
)
from repro.nns.lsh_search import LSHHammingIndex
from repro.quant.int8 import dequantize, quantize_symmetric

__all__ = [
    "ServeQuery",
    "QueryResult",
    "BatchResult",
    "GPUReferenceEngine",
    "GPUSpilloverEngine",
    "IMARSEngine",
]


def _gpu_table_counts(config) -> Tuple[int, int]:
    """(filtering, ranking) embedding-table counts of the paper's layout."""
    filtering_tables = 1 + len(config.demographic_cardinalities)
    ranking_tables = (
        2
        + len(config.demographic_cardinalities)
        + len(config.ranking_extra_cardinalities)
    ) - 1  # user+demographics+extras+item = 7 tables for the paper layout
    return filtering_tables, ranking_tables


@dataclass(frozen=True)
class ServeQuery:
    """One serving request's model inputs, hashable for result caching."""

    history: Tuple[int, ...]
    demographics: Tuple[int, ...]
    context: Tuple[int, ...]

    @staticmethod
    def make(
        history: Sequence[int],
        demographics: Sequence[int],
        context: Sequence[int],
    ) -> "ServeQuery":
        """Coerce arbitrary int sequences (lists, numpy rows) to a query."""
        return ServeQuery(
            history=tuple(int(value) for value in history),
            demographics=tuple(int(value) for value in demographics),
            context=tuple(int(value) for value in context),
        )


@dataclass
class QueryResult:
    """Outcome of one end-to-end query.

    ``failed`` marks a query the fleet could not answer (all serving
    attempts exhausted under fault injection -- ``items`` is empty);
    ``partial`` marks a degraded answer merged from a subset of shards
    (some corpus slices were dark past their deadline, so recall is
    reduced).  Both default to the healthy fast path.
    """

    items: List[int]
    candidate_count: int
    cost: Cost
    ledger: Ledger = field(default_factory=Ledger)
    scores: List[float] = field(default_factory=list)
    failed: bool = False
    partial: bool = False

    @property
    def qps(self) -> float:
        """Queries per second at this per-query latency."""
        if self.cost.latency_ns == 0.0:
            return float("inf")
        return 1e9 / self.cost.latency_ns


@dataclass
class BatchResult:
    """Outcome of one micro-batch: per-query results + the batched cost.

    ``cost`` is *not* the sequential sum of the per-query costs: each
    engine applies its own batching model (launch-overhead amortisation on
    the GPU, stage pipelining on iMARS), so ``cost.latency_ns`` is the
    wall-clock occupancy of the engine while the batch is in flight.
    """

    results: List[QueryResult]
    cost: Cost

    def __len__(self) -> int:
        return len(self.results)


def embed_queries(
    filtering_model: YouTubeDNNFiltering, queries: Sequence[ServeQuery]
) -> np.ndarray:
    """One user-tower pass over a batch: row ``q`` embeds ``queries[q]``.

    Each row depends only on its own query (mean-pooled history, then
    ``stable_matmul`` layers), so rows computed once for a whole batch
    equal the rows any sub-batch or single query would compute.
    """
    return filtering_model.user_embedding(
        [list(query.history) for query in queries],
        np.asarray([query.demographics for query in queries], dtype=np.int64),
    )


#: One query's ranked answer: (top-k global item ids, their CTRs,
#: candidate count).  Everything the cost hooks need is the count.
RankedRow = Tuple[List[int], List[float], int]


def ranked_rows(
    items: np.ndarray, scores: np.ndarray, counts: np.ndarray, top_k: int
) -> List[RankedRow]:
    """The ranked rows held in arrays (:meth:`_EngineBase._ranked_arrays`,
    or rows of a shard router's ranked table).  The arrays are at most
    ``top_k`` wide: a row of at least ``top_k`` candidates is the whole
    row, a shorter one its first ``count`` entries (the rest is padding)."""
    return [
        (row_items, row_scores, count)
        if count >= top_k
        else (row_items[:count], row_scores[:count], count)
        for row_items, row_scores, count in zip(
            items.tolist(), scores.tolist(), counts.tolist()
        )
    ]


class _EngineBase:
    """The one query pipeline every engine runs (Sec. IV-C3).

    :meth:`recommend` is the per-query reference and :meth:`_serve_results`
    the batch path (:meth:`_ranked_rows`, then the cost templates); an
    engine supplies only its NNS kernels
    (``_candidates``/``_candidates_batch``), optionally its CTR scorer
    (``_ctrs``/``_ctrs_batch``) and its cost hooks.
    """

    #: Telemetry bundle the serving session plants on its fleet
    #: (None when the engine runs uninstrumented).  A class attribute so
    #: attachment is optional and costs nothing when absent; engines
    #: never import the obs package -- they only call methods on what
    #: was attached.
    _obs = None

    #: Failure hook planted by :func:`repro.serving.resilience.attach_faults`
    #: (None when no fault plane is attached).  Called with the computed
    #: batch cost and query count *after* costing but *before* the EWMA
    #: updates: it may raise :class:`repro.serving.faults.FaultError`
    #: (crash / outage / transient error windows) or return a
    #: latency-inflated cost (straggler windows).  With no active fault
    #: it returns the very same cost object, so the healthy path is
    #: bit-identical.  Same contract as ``_obs``: a class attribute, the
    #: engine never imports the serving package.
    _fault_hook = None

    def __init__(
        self,
        filtering_model: YouTubeDNNFiltering,
        ranking_model: YouTubeDNNRanking,
        num_candidates: int = 72,
        top_k: int = 10,
    ):
        if num_candidates < 1 or top_k < 1:
            raise ValueError("candidate count and top-k must be >= 1")
        self.filtering_model = filtering_model
        self.ranking_model = ranking_model
        self.num_candidates = num_candidates
        self.top_k = top_k
        config = filtering_model.config
        self.filtering_input_dim = config.embedding_dim * (
            1 + len(config.demographic_cardinalities)
        )
        ranking_features = len(config.demographic_cardinalities) + len(
            config.ranking_extra_cardinalities
        )
        self.ranking_input_dim = config.embedding_dim * (2 + ranking_features)
        self._ewma_query_latency_s: Optional[float] = None
        self._ewma_query_energy_pj: Optional[float] = None
        self._filtering_entries: Optional[List[Tuple[str, Cost]]] = None
        self._query_template_cache: dict = {}

    def _resolve_subset(
        self, num_items: int, item_subset: Optional[Sequence[int]]
    ) -> np.ndarray:
        """Global item ids this engine serves (the whole corpus by default)."""
        if item_subset is None:
            return np.arange(num_items, dtype=np.int64)
        ids = np.asarray(list(item_subset), dtype=np.int64)
        if ids.size == 0:
            raise ValueError("item subset must be non-empty")
        if ids.min() < 0 or ids.max() >= num_items:
            raise ValueError(
                f"item subset ids must be in [0, {num_items}), "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        if np.unique(ids).size != ids.size:
            raise ValueError("item subset must not contain duplicates")
        return ids

    @property
    def corpus_size(self) -> int:
        """Number of items this engine (or shard) serves."""
        return int(self._global_ids.shape[0])

    def recommend(
        self,
        history: Sequence[int],
        demographics: Sequence[int],
        context: Sequence[int],
    ) -> QueryResult:
        """One query alone: the reference every batch path is pinned to.

        Filtering (user tower + the engine's NNS), ranking (CTR of every
        candidate), then the top-k; the platform's cost hooks charge the
        matching hardware bill.
        """
        ledger = Ledger(name=self._ledger_name())
        self._charge_filtering(ledger)
        user = self._user_embedding(history, demographics)
        candidates = self._candidates(user)
        self._charge_ranking(ledger, len(candidates))
        ctrs = self._ctrs(user, candidates, context)
        self._charge_topk(ledger, len(candidates))
        order = np.argsort(-ctrs, kind="stable")[: self.top_k]
        return QueryResult(
            items=[int(self._global_ids[candidates[index]]) for index in order],
            candidate_count=int(len(candidates)),
            cost=ledger.total(),
            ledger=ledger,
            scores=[float(ctrs[index]) for index in order],
        )

    def recommend_query(self, query: ServeQuery) -> QueryResult:
        """Serve one :class:`ServeQuery` (the batch-of-one convenience)."""
        return self.recommend(query.history, query.demographics, query.context)

    @property
    def expected_query_latency_s(self) -> Optional[float]:
        """EWMA of observed per-query engine occupancy (None before any
        serve).  Replica routers use this as the work estimate when
        assigning queries to the least-loaded replica."""
        return self._ewma_query_latency_s

    @property
    def expected_query_energy_pj(self) -> Optional[float]:
        """EWMA of observed per-query energy (None before any serve).
        Spillover routers use this to rank a heterogeneous replica group
        cheapest-first, so overflow lands on the hungry backend only when
        the frugal one is saturated."""
        return self._ewma_query_energy_pj

    def serve_batch(
        self,
        queries: Sequence[ServeQuery],
        users: Optional[np.ndarray] = None,
        ranked: Optional[Sequence[RankedRow]] = None,
    ) -> BatchResult:
        """Serve a micro-batch through the engine.

        The functional results are exactly those of per-query
        :meth:`recommend` calls (batching never changes recommendations);
        the batched cost applies the engine's amortisation/pipelining
        model via :meth:`_batch_cost`.  An empty batch is a no-op, so a
        replica group can dispatch a round in which some replicas receive
        no work.  ``users`` are the queries' user-tower rows
        (:func:`embed_queries` over this engine's filtering model), which
        the shard router computes once per batch for every shard; without
        them the engine runs the tower itself.  ``ranked`` are the queries'
        rows as an engine that ranks like this one (:meth:`_ranks_like`)
        ranked them, in this batch or ahead of it: the engine then skips
        its own ranking and only bills the rows through its own cost
        templates.
        """
        if not queries:
            return BatchResult(results=[], cost=Cost())
        if ranked is None:
            results = self._serve_results(queries, users)
        else:
            results = self._templated_results(ranked)
        cost = self._batch_cost(results)
        fault_hook = self._fault_hook
        if fault_hook is not None:
            # May raise FaultError (the attempt never completes: no EWMA
            # update, no kernel span) or inflate latency (straggler); the
            # EWMAs below then see the inflated occupancy, which is what
            # lets routers and hedging detect a slow replica.
            cost = fault_hook(cost, len(results))
        observed = cost.latency_s / len(results)
        if self._ewma_query_latency_s is None:
            self._ewma_query_latency_s = observed
        else:
            self._ewma_query_latency_s += 0.3 * (
                observed - self._ewma_query_latency_s
            )
        observed_energy = cost.energy_pj / len(results)
        if self._ewma_query_energy_pj is None:
            self._ewma_query_energy_pj = observed_energy
        else:
            self._ewma_query_energy_pj += 0.3 * (
                observed_energy - self._ewma_query_energy_pj
            )
        obs = self._obs
        if obs is not None and obs.tracer.active:
            # Trace-only: the span is derived from the already-computed
            # cost, so recommendations and ledgers are untouched.
            start_s = obs.tracer.cursor_s
            obs.tracer.add(
                "kernel",
                start_s,
                start_s + cost.latency_s,
                category="kernel",
                engine=type(self).__name__,
                # "vector" for engines that score through the decomposed
                # serving scorer (digital iMARS and its GPU spillover
                # mirror), "scalar" for the full ranking forward (the GPU
                # reference and analog engines); the golden traces pin it.
                kernel="scalar" if getattr(self, "_scorer", None) is None else "vector",
                queries=len(results),
                candidates=sum(result.candidate_count for result in results),
                energy_pj=cost.energy_pj,
            )
        return BatchResult(results=results, cost=cost)

    def _serve_results(
        self, queries: Sequence[ServeQuery], users: Optional[np.ndarray] = None
    ) -> List[QueryResult]:
        """The whole batch at once, bit-identical to per-query :meth:`recommend`:
        the ranked rows, each billed through the cached cost templates."""
        return self._templated_results(self._ranked_rows(queries, users))

    def _ranked_rows(
        self, queries: Sequence[ServeQuery], users: Optional[np.ndarray] = None
    ) -> List[RankedRow]:
        """Every query's ranked row, bit-identical to :meth:`recommend`'s."""
        return ranked_rows(*self._ranked_arrays(queries, users), self.top_k)

    def _ranked_arrays(
        self, queries: Sequence[ServeQuery], users: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every query's ranked row as arrays: (global item ids, CTRs), each
        (Q, width <= top-k) and best first, and the (Q,) candidate counts.
        A row's entries past its count are padding (see :func:`ranked_rows`).

        One user-tower pass (unless the router handed ``users`` down),
        one NNS pass (candidate rows padded to the longest, plus each
        row's count), one ranking pass over every (query, candidate) row
        and one row-wise stable CTR argsort.  Each row keeps its query's
        candidate order, and CTRs are sigmoid outputs (> 0), so the -1
        padding sorts after every real candidate and the argsort equals
        the per-query sort.  So every row is independent of the batch
        it was ranked in.
        """
        if users is None:
            users = embed_queries(self.filtering_model, queries)
        contexts = np.asarray([query.context for query in queries], dtype=np.int64)
        padded, counts = self._candidates_batch(users)
        valid = np.arange(padded.shape[1]) < counts[:, None]
        owners = np.repeat(np.arange(len(queries)), counts)
        ctrs = np.full(padded.shape, -1.0)
        ctrs[valid] = self._ctrs_batch(users, contexts, owners, padded[valid])
        order = np.argsort(-ctrs, axis=1, kind="stable")[:, : self.top_k]
        # Rows shorter than top-k end in padding: clamp it to a real row
        # before the id lookup (ranked_rows slices the tail away).
        ranked = np.minimum(np.take_along_axis(padded, order, axis=1), self.corpus_size - 1)
        return self._global_ids[ranked], np.take_along_axis(ctrs, order, axis=1), counts

    def _ranks_like(self, other: object) -> bool:
        """Whether ``other`` ranks every query exactly as this engine does.

        Ranking is a pure function of the filtering and ranking models,
        the item slice, the candidate budget, top-k and the engine's
        kernels, so equal state means equal rows.  Engines copy their
        tables at build, so this assumes no model was retrained between
        two engines' builds.  A replica group whose members rank alike
        ranks each dispatch round once and hands every lane its rows.
        An engine ranks like itself exactly when it ranks in batch (an
        analog iMARS engine does not), which a shard router checks before
        it ranks a trace ahead.
        """
        return (
            isinstance(other, _EngineBase)
            and all(
                getattr(type(other), kernel) is getattr(type(self), kernel)
                for kernel in (
                    "_ranked_rows", "_ranked_arrays", "_candidates_batch", "_ctrs_batch"
                )
            )
            and other.filtering_model is self.filtering_model
            and other.ranking_model is self.ranking_model
            and other.num_candidates == self.num_candidates
            and other.top_k == self.top_k
            and np.array_equal(other._global_ids, self._global_ids)
        )

    def _batch_cost(self, results: Sequence[QueryResult]) -> Cost:
        """Engine occupancy for a batch; base class serialises queries."""
        return Cost.sequence(result.cost for result in results)

    # -- cost templates (batched serving) --------------------------------
    #
    # A concrete engine bills a query through four hooks: ``_ledger_name``,
    # ``_charge_filtering``, ``_charge_ranking`` and ``_charge_topk``.
    # Every charge they make is a pure function of the engine's
    # configuration and the query's candidate count, so the batch path
    # evaluates the hooks once per distinct count and replays the cached
    # entries into every query's ledger: identical categories, identical
    # Cost values, identical entry order -- hence bitwise the same
    # per-query totals as ``recommend`` recomputing them.  Anything folded
    # from a query's ledger is therefore a function of its count too.

    def _query_cost_template(
        self, candidate_count: int
    ) -> Tuple[List[Tuple[str, Cost]], Cost, float]:
        """Full per-query ledger entries, their sequential total and the
        query's slowest stage (the largest per-category latency, ns).

        The probe ledger that collects the entries folds both, with the
        ``Ledger.total()`` and ``Ledger.by_category()`` a query's own
        ledger runs, once per distinct candidate count instead of once
        per query (the query-independent filtering entries once per
        engine).
        """
        cached = self._query_template_cache.get(candidate_count)
        if cached is None:
            if self._filtering_entries is None:
                probe = Ledger()
                self._charge_filtering(probe)
                self._filtering_entries = list(probe)
            probe = Ledger(_entries=list(self._filtering_entries))
            self._charge_ranking(probe, candidate_count)
            self._charge_topk(probe, candidate_count)
            total = probe.total()
            stages = [cost.latency_ns for cost in probe.by_category().values()]
            cached = (list(probe), total, max(stages) if stages else total.latency_ns)
            self._query_template_cache[candidate_count] = cached
        return cached

    def _templated_results(self, rows: Sequence[RankedRow]) -> List[QueryResult]:
        """Batched queries' results, each ledger replayed from its template."""
        name = self._ledger_name()
        results = []
        for items, scores, candidate_count in rows:
            entries, total, _ = self._query_cost_template(candidate_count)
            results.append(
                QueryResult(
                    items=items,
                    candidate_count=candidate_count,
                    cost=total,
                    ledger=Ledger(name=name, _entries=list(entries)),
                    scores=scores,
                )
            )
        return results

    def merge_cost(self, num_entries: int) -> Cost:
        """Cost of reducing ``num_entries`` scored rows to a final top-k."""
        raise NotImplementedError

    def _user_embedding(
        self, history: Sequence[int], demographics: Sequence[int]
    ) -> np.ndarray:
        demo = np.asarray(demographics, dtype=np.int64).reshape(1, -1)
        return self.filtering_model.user_embedding([list(history)], demo)[0]

    # -- kernels: what each engine supplies -----------------------------
    #
    # ``_candidates`` / ``_candidates_batch`` are the engine's NNS: one
    # query's candidate rows, or (padded rows, counts) for a batch, each
    # row in the per-query order.  ``_ctrs`` / ``_ctrs_batch`` score the
    # candidates; the base pair runs the full ranking forward.

    def _candidates(self, user: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _candidates_batch(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _ranking_rows(
        self, user: np.ndarray, candidates: np.ndarray, context: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One query's (user, item, context) ranking-net input rows."""
        count = len(candidates)
        return (
            np.repeat(user[None, :], count, axis=0),
            self.item_table[candidates],
            np.repeat(np.asarray(context, dtype=np.int64).reshape(1, -1), count, axis=0),
        )

    def _ctrs(
        self, user: np.ndarray, candidates: np.ndarray, context: Sequence[int]
    ) -> np.ndarray:
        """CTRs of one query's candidates."""
        return self.ranking_model.predict_ctr(*self._ranking_rows(user, candidates, context))

    def _ctrs_batch(
        self,
        users: np.ndarray,
        contexts: np.ndarray,
        owners: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """CTRs of flat (query ``owners[r]``, candidate ``candidates[r]``)
        rows, bit for bit what :meth:`_ctrs` returns for each row."""
        return score_in_chunks(
            len(candidates),
            lambda rows: self.ranking_model.predict_ctr(
                users[owners[rows]], self.item_table[candidates[rows]], contexts[owners[rows]]
            ),
        )


class _GPUBatchCostMixin:
    """GPU cost hooks and batch-amortisation model of every GPU-costed engine.

    Requires ``self.device``, ``self.filtering_model`` and the usual
    :class:`_EngineBase` attributes.  The cost hooks charge the calibrated
    GPU kernel models (ET lookups and DNN GEMMs per stage, the engine's
    NNS kernel, a top-k kernel); only the NNS kernel differs between
    engines (:meth:`_nns_cost`).  The batching model mirrors A4: the
    fixed per-query dispatch work (ET-stage overheads, per-layer kernel
    launches, the NNS base cost, the top-k launch) is paid once per
    *batch* instead of once per query, while the marginal (bytes/FLOPs)
    terms keep scaling with the queries served.
    """

    device: GPUDeviceModel

    def _nns_cost(self) -> Cost:
        """The engine's NNS kernel: brute-force cosine over its items."""
        return gpu_nns_cosine(
            self.corpus_size, self.filtering_model.config.embedding_dim, device=self.device
        )

    def _nns_overhead_terms(self) -> Tuple[float, float]:
        """(base latency us, power W) of the engine's NNS kernel."""
        return self.device.nns_cosine_base_us, self.device.power_nns_cosine_w

    def _ledger_name(self) -> str:
        return "gpu-query"

    def _charge_filtering(self, ledger: Ledger) -> None:
        config = self.filtering_model.config
        filtering_tables = _gpu_table_counts(config)[0]
        ledger.charge("ET Lookup", gpu_et_operation(filtering_tables, device=self.device))
        ledger.charge(
            "DNN Stack",
            gpu_dnn_stack(
                self.filtering_input_dim, config.filtering_spec, device=self.device
            ),
        )
        ledger.charge("NNS", self._nns_cost())

    def _charge_ranking(self, ledger: Ledger, candidate_count: int) -> None:
        """Per-candidate ET op + DNN (the unbatched serving loop)."""
        config = self.filtering_model.config
        ranking_tables = _gpu_table_counts(config)[1]
        per_candidate = gpu_et_operation(ranking_tables, device=self.device).then(
            gpu_dnn_stack(self.ranking_input_dim, config.ranking_spec, device=self.device)
        )
        ledger.charge("Ranking", per_candidate.repeated(candidate_count))

    def _charge_topk(self, ledger: Ledger, candidate_count: int) -> None:
        ledger.charge("TopK", gpu_topk(candidate_count, device=self.device))

    def _query_overhead(self, candidate_count: int) -> Cost:
        """Per-query fixed dispatch work amortised away in batched serving
        (a pure function of the count: priced once per count, then cached)."""
        cache = self.__dict__.setdefault("_query_overhead_cache", {})
        if candidate_count not in cache:
            config = self.filtering_model.config
            filtering_layers = len(config.filtering_spec.split("-"))
            ranking_layers = len(config.ranking_spec.split("-"))
            et_us = self.device.et_base_us * (1 + candidate_count)
            launch_us = self.device.kernel_launch_us * (
                filtering_layers + candidate_count * ranking_layers + 1
            )
            nns_us, nns_power_w = self._nns_overhead_terms()
            energy_pj = (
                et_us * self.device.power_et_w
                + launch_us * self.device.power_dnn_w
                + nns_us * nns_power_w
            ) * 1e6  # W x us = uJ; 1 uJ = 1e6 pJ
            latency_ns = (et_us + launch_us + nns_us) * 1e3
            cache[candidate_count] = Cost(energy_pj=energy_pj, latency_ns=latency_ns)
        return cache[candidate_count]

    def _batch_cost(self, results: Sequence[QueryResult]) -> Cost:
        """Batched GPU serving: fixed overheads paid once, marginals summed."""
        total = Cost.sequence(result.cost for result in results)
        if len(results) <= 1:
            return total
        saved = Cost.sequence(
            self._query_overhead(result.candidate_count) for result in results[1:]
        )
        return Cost(
            energy_pj=max(total.energy_pj - saved.energy_pj, 0.0),
            latency_ns=max(total.latency_ns - saved.latency_ns, 0.0),
        )

    def merge_cost(self, num_entries: int) -> Cost:
        """Host-side top-k reduction over the gathered shard entries."""
        if num_entries < 1:
            return Cost()
        return gpu_topk(num_entries, device=self.device)


class GPUReferenceEngine(_GPUBatchCostMixin, _EngineBase):
    """FP32 + exact-cosine baseline with the calibrated GPU cost model."""

    def __init__(
        self,
        filtering_model: YouTubeDNNFiltering,
        ranking_model: YouTubeDNNRanking,
        num_candidates: int = 72,
        top_k: int = 10,
        device: GPUDeviceModel = GTX1080,
        item_subset: Optional[Sequence[int]] = None,
    ):
        super().__init__(filtering_model, ranking_model, num_candidates, top_k)
        self.device = device
        full_table = filtering_model.item_table()
        self._global_ids = self._resolve_subset(full_table.shape[0], item_subset)
        self.item_table = full_table[self._global_ids]
        # The norms cosine_similarities recomputes per query, computed once.
        self._item_norms = np.linalg.norm(self.item_table, axis=1)

    def _candidates(self, user: np.ndarray) -> np.ndarray:
        """Exact cosine NNS (the FAISS path): the closest items, nearest first."""
        count = min(self.num_candidates, self.corpus_size)
        return cosine_topk(user, self.item_table, count)[0]

    def _candidates_batch(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every query's exact-cosine top-k against the cached item norms."""
        count = min(self.num_candidates, self.corpus_size)
        candidates = cosine_topk_batch(users, self.item_table, self._item_norms, count)
        return candidates, np.full(len(users), count)


class IMARSEngine(_EngineBase):
    """The iMARS pipeline: int8 + LSH fixed-radius NNS + CTR-buffer top-k."""

    def __init__(
        self,
        filtering_model: YouTubeDNNFiltering,
        ranking_model: YouTubeDNNRanking,
        mapping: WorkloadMapping,
        num_candidates: int = 72,
        top_k: int = 10,
        signature_bits: Optional[int] = None,
        cost_model: Optional[IMARSCostModel] = None,
        analog_dnn: bool = False,
        seed: int = 0,
        item_subset: Optional[Sequence[int]] = None,
    ):
        """``analog_dnn=True`` routes the ranking MLP through the functional
        analog crossbar tiles (DAC/ADC quantisation + conductance noise)
        instead of exact arithmetic -- the full-fidelity simulation mode.
        Such an engine serves a batch query by query: the batched scorer
        has no analog port.  The crossbar draws its conductance noise once,
        when the weights are programmed (``seed + 11``), so every forward
        of one engine sees the same tiles."""
        super().__init__(filtering_model, ranking_model, num_candidates, top_k)
        self.mapping = mapping
        self.cost_model = cost_model or IMARSCostModel(mapping)
        self.analog_dnn = analog_dnn
        self._analog_bank = None
        if analog_dnn:
            from repro.core.dnn_stack import CrossbarBank

            self._analog_bank = CrossbarBank(
                ranking_model.net,
                config=self.cost_model.config,
                analog=True,
                rng=np.random.default_rng(seed + 11),
            )
        bits = signature_bits or self.cost_model.config.lsh_signature_bits
        self.signature_bits = bits

        # Quantise the item table to int8 (the ItET contents) and hash it.
        # With an ``item_subset`` the shard only stores (and searches) its
        # slice of the corpus; returned ids stay global.
        full_table = filtering_model.item_table()
        self._global_ids = self._resolve_subset(full_table.shape[0], item_subset)
        float_table = full_table[self._global_ids]
        self._quantized = quantize_symmetric(float_table, per_row=True)
        self.item_table = dequantize(self._quantized)
        hasher = RandomHyperplaneLSH(
            float_table.shape[1], signature_bits=bits, seed=seed
        )
        self.index = LSHHammingIndex(self.item_table, hasher=hasher)

        # First-layer-decomposed CTR scorer over the shard's (dequantised)
        # table: per-query recommend and the batch path both score
        # through it, so recommendations stay bit-identical across batch
        # sizes.  The analog mode keeps the full per-candidate forward --
        # crossbar noise has no decomposable form.
        self._scorer = (
            None if analog_dnn else ranking_model.make_serving_scorer(self.item_table)
        )

        # Population-level fixed radius calibrated for the target candidate
        # count (the dummy-cell reference setting).
        rng = np.random.default_rng(seed)
        probes = rng.normal(0.0, 1.0, size=(32, float_table.shape[1]))
        target = min(self.num_candidates, self.corpus_size)
        radii = self.index.calibrate_radius_batch(probes, target)
        self.radius = int(round(float(np.median(radii))))

    def _candidates(self, user: np.ndarray) -> np.ndarray:
        """Fixed-radius Hamming NNS over the LSH signatures, capped to the
        candidate budget, in ascending index (priority-encoder) order."""
        distances = self.index.distances(user)
        candidates = fixed_radius_candidates(distances, self.radius)
        if candidates.shape[0] == 0:
            # Fall back to the nearest signature (threshold raised one step).
            candidates = np.array([int(np.argmin(distances))])
        return cap_candidates(candidates, distances, self.num_candidates)

    def _candidates_batch(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One column-major XOR+popcount scan and one ``uint16`` stable-
        argsort selection for every query (Sec. III's array view)."""
        return fixed_radius_candidates_batch(
            self.index.distances_batch(users), self.radius, self.num_candidates
        )

    def _ctrs(
        self, user: np.ndarray, candidates: np.ndarray, context: Sequence[int]
    ) -> np.ndarray:
        """The decomposed serving scorer, or the analog crossbar forward."""
        if self._scorer is not None:
            return self._scorer.score_query(user, candidates, context)
        features = self.ranking_model._features(*self._ranking_rows(user, candidates, context))
        logits, _ = self._analog_bank.forward(features)
        return 1.0 / (1.0 + np.exp(-np.clip(logits.reshape(-1), -60.0, 60.0)))

    def _ctrs_batch(
        self,
        users: np.ndarray,
        contexts: np.ndarray,
        owners: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Per-query first-layer constants computed once, candidates
        gathered from the scorer's pre-projected item table."""
        constants = self._scorer.query_constants(users, contexts)
        return self._scorer.score_grouped(constants, owners, candidates)

    def _serve_results(
        self, queries: Sequence[ServeQuery], users: Optional[np.ndarray] = None
    ) -> List[QueryResult]:
        """The shared batch path; an analog engine (no serving scorer)
        serves query by query through the crossbar forward, as
        ``recommend`` does."""
        if self._scorer is None:
            return [self.recommend_query(query) for query in queries]
        return super()._serve_results(queries, users)

    def _ranks_like(self, other: object) -> bool:
        """The base conditions, plus the same LSH state -- hyperplanes,
        signature words and radius -- and a digital scorer on both (an
        analog crossbar has no batched ranking to share)."""
        return (
            super()._ranks_like(other)
            and self._scorer is not None
            and other._scorer is not None
            and other.radius == self.radius
            and np.array_equal(other.index.hasher._planes, self.index.hasher._planes)
            and np.array_equal(other.index._item_words, self.index._item_words)
        )

    # -- cost hooks (overridden by :class:`GPUSpilloverEngine`) ---------
    def _ledger_name(self) -> str:
        return "imars-query"

    def _charge_filtering(self, ledger: Ledger) -> None:
        """Filtering (1a)-(1d*): charged analytically against the fabric."""
        config = self.filtering_model.config
        self.cost_model.filtering_query(
            self.filtering_input_dim,
            config.filtering_spec,
            self.num_candidates,
            ledger=ledger,
        )

    def _charge_ranking(self, ledger: Ledger, candidate_count: int) -> None:
        """Ranking (2a)-(2d): per-candidate ET + DNN + CTR store."""
        per_candidate = self.cost_model.ranking_candidate(
            self.ranking_input_dim, self.filtering_model.config.ranking_spec
        )
        ledger.charge("Ranking", per_candidate.repeated(candidate_count))

    def _charge_topk(self, ledger: Ledger, candidate_count: int) -> None:
        """Top-k (2e) through the CTR buffer's threshold sweep."""
        self.cost_model.topk_operation(candidate_count, self.top_k, ledger=ledger)

    def _batch_cost(self, results: Sequence[QueryResult]) -> Cost:
        """Pipelined iMARS serving: stages overlap across batched queries.

        The fabric's stages (ET banks, crossbar DNN tiles, TCAM NNS, CTR
        buffer) occupy disjoint hardware, so while query *i* is in its
        ranking loop, query *i+1* runs its filtering stage.  Steady-state
        occupancy per extra query is therefore the *slowest* stage of that
        query, with the first query paying the full fill latency.  Energy
        is unaffected by pipelining (every stage still runs).
        """
        if not results:
            return Cost()
        energy_pj = sum(result.cost.energy_pj for result in results)
        latency_ns = results[0].cost.latency_ns
        for result in results[1:]:
            # Every result's ledger holds its count's template entries
            # (``recommend`` charges the same hooks in the same order), so
            # its slowest stage is the template's.
            latency_ns += self._query_cost_template(result.candidate_count)[2]
        return Cost(energy_pj=energy_pj, latency_ns=latency_ns)

    def merge_cost(self, num_entries: int) -> Cost:
        """Merge via a CTR-buffer threshold sweep over the shard entries."""
        if num_entries < 1:
            return Cost()
        return self.cost_model.topk_operation(num_entries, min(self.top_k, num_entries))


class GPUSpilloverEngine(_GPUBatchCostMixin, IMARSEngine):
    """A GPU replica of the *deployed* iMARS model for spillover routing.

    Functionally this IS an :class:`IMARSEngine`: built with the same
    models, mapping, seed and ``item_subset`` it holds the same int8
    tables, the same LSH index and the same calibrated radius, so its
    recommendations (items *and* scores) are bit-identical -- the
    heterogeneous-fleet invariant that routing a query to the overflow
    backend never changes what the user sees.

    Only the bill differs: the cost hooks charge the calibrated GPU
    kernel models instead of the fabric's analytic ones -- ET lookups and
    DNN GEMMs per stage, an XOR+popcount Hamming scan over the signature
    table (:func:`~repro.gpu.kernels.gpu_nns_lsh`), a top-k kernel -- and
    batches amortise kernel-launch/dispatch overheads the GPU way rather
    than pipelining through fabric stages.  ``analog_dnn`` is rejected:
    a CUDA port has no analog crossbars to be non-ideal.
    """

    def __init__(
        self,
        filtering_model: YouTubeDNNFiltering,
        ranking_model: YouTubeDNNRanking,
        mapping: WorkloadMapping,
        num_candidates: int = 72,
        top_k: int = 10,
        signature_bits: Optional[int] = None,
        cost_model: Optional[IMARSCostModel] = None,
        seed: int = 0,
        item_subset: Optional[Sequence[int]] = None,
        device: GPUDeviceModel = GTX1080,
    ):
        super().__init__(
            filtering_model,
            ranking_model,
            mapping,
            num_candidates=num_candidates,
            top_k=top_k,
            signature_bits=signature_bits,
            cost_model=cost_model,
            analog_dnn=False,
            seed=seed,
            item_subset=item_subset,
        )
        self.device = device

    def _nns_cost(self) -> Cost:
        return gpu_nns_lsh(self.corpus_size, self.signature_bits, device=self.device)

    def _nns_overhead_terms(self) -> Tuple[float, float]:
        return self.device.nns_lsh_base_us, self.device.power_nns_lsh_w

    def _ledger_name(self) -> str:
        return "gpu-spillover-query"
