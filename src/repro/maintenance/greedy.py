"""The greedy algorithm for selecting extra materialized views and indexes.

Implements the paper's Procedure ``Greedy`` (Figure 2) together with the two
practicality optimizations of §6.2:

* **incremental cost update** — the cost engine keeps its memoized plan costs
  across benefit computations and only invalidates the entries the candidate
  can change (see :mod:`repro.maintenance.cost_engine`); the cost of the
  current set, ``before`` in every benefit, is priced once per round;
* **monotonicity** — candidate benefits are kept in a max-heap and only
  recomputed lazily: if a candidate's stale benefit is already below the best
  fresh benefit seen this round, it cannot win the round (assuming benefits
  never increase as more results are materialized) and is not re-priced.

On top of selecting what to materialize, the procedure classifies every
selected full result as **temporary** (recomputation during refresh is
cheaper — the result is dropped afterwards) or **permanent** (incremental
maintenance is cheaper — the result is kept and maintained), exactly as in
§6.1, and records the per-result decision for the paper's
"temporary vs. permanent materialization" statistics.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.maintenance.candidates import Candidate
from repro.maintenance.cost_engine import MaintenanceCostEngine


@dataclass
class SelectedResult:
    """One result picked by the greedy algorithm."""

    candidate: Candidate
    benefit: float
    #: "permanent", "temporary" or "index".
    disposition: str
    cost: float


@dataclass
class GreedySelection:
    """Outcome of a greedy run."""

    initial_cost: float
    final_cost: float
    selections: List[SelectedResult] = field(default_factory=list)
    iterations: int = 0
    benefit_evaluations: int = 0
    elapsed_seconds: float = 0.0

    @property
    def improvement(self) -> float:
        """Absolute cost reduction achieved."""
        return self.initial_cost - self.final_cost

    @property
    def improvement_ratio(self) -> float:
        """Relative cost reduction (0 when nothing was gained)."""
        if self.initial_cost <= 0:
            return 0.0
        return self.improvement / self.initial_cost

    def selected_results(self) -> List[SelectedResult]:
        """Selections that are results (not indexes)."""
        return [s for s in self.selections if s.candidate.kind == "result"]

    def selected_indexes(self) -> List[SelectedResult]:
        """Selections that are indexes."""
        return [s for s in self.selections if s.candidate.kind == "index"]

    def count_by_disposition(self) -> Dict[str, int]:
        """Counts of permanent / temporary / index selections."""
        counts: Dict[str, int] = {}
        for selection in self.selections:
            counts[selection.disposition] = counts.get(selection.disposition, 0) + 1
        return counts


class GreedyViewSelector:
    """Runs the greedy selection over a prepared cost engine."""

    def __init__(
        self,
        engine: MaintenanceCostEngine,
        use_monotonicity: bool = True,
        benefit_epsilon: float = 1e-9,
        max_selections: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.use_monotonicity = use_monotonicity
        self.benefit_epsilon = benefit_epsilon
        self.max_selections = max_selections

    # ------------------------------------------------------------------ public

    def run(self, candidates: Sequence[Candidate]) -> GreedySelection:
        """Run Procedure Greedy over ``candidates`` and return the selection.

        The engine's current materialized set is taken as the initial set
        ``X = V``; selected candidates are applied to the engine, so after
        the call the engine reflects the final configuration.
        """
        start = time.perf_counter()
        initial_cost = self.engine.total_cost()
        selection = GreedySelection(initial_cost=initial_cost, final_cost=initial_cost)

        remaining: List[Candidate] = list(candidates)
        if self.use_monotonicity:
            self._run_monotonic(remaining, selection)
        else:
            self._run_basic(remaining, selection)

        selection.final_cost = self.engine.total_cost()
        selection.elapsed_seconds = time.perf_counter() - start
        return selection

    # ------------------------------------------------------------------- loops

    def _run_basic(self, remaining: List[Candidate], selection: GreedySelection) -> None:
        """The unoptimized loop of Figure 2: re-price every candidate each round."""
        while remaining:
            if self.max_selections is not None and len(selection.selections) >= self.max_selections:
                return
            best_candidate: Optional[Candidate] = None
            best_benefit = -float("inf")
            before = self.engine.total_cost()
            for candidate in remaining:
                benefit = self._benefit(candidate, before)
                selection.benefit_evaluations += 1
                if benefit > best_benefit:
                    best_benefit = benefit
                    best_candidate = candidate
            selection.iterations += 1
            if best_candidate is None or best_benefit <= self.benefit_epsilon:
                return
            remaining.remove(best_candidate)
            self._accept(best_candidate, best_benefit, selection)

    def _run_monotonic(self, remaining: List[Candidate], selection: GreedySelection) -> None:
        """The lazy (monotonicity-assuming) loop of §6.2."""
        counter = itertools.count()
        heap: List[Tuple[float, int, int, Candidate]] = []
        round_number = 0
        before = self.engine.total_cost()
        for candidate in remaining:
            benefit = self._benefit(candidate, before)
            selection.benefit_evaluations += 1
            heapq.heappush(heap, (-benefit, next(counter), round_number, candidate))

        while heap:
            if self.max_selections is not None and len(selection.selections) >= self.max_selections:
                return
            neg_benefit, _, stamped_round, candidate = heapq.heappop(heap)
            benefit = -neg_benefit
            if stamped_round != round_number:
                # Stale benefit: under monotonicity it can only have gone
                # down, so re-price and re-insert; only if it comes out on
                # top again will it be accepted.
                benefit = self._benefit(candidate, before)
                selection.benefit_evaluations += 1
                heapq.heappush(heap, (-benefit, next(counter), round_number, candidate))
                continue
            selection.iterations += 1
            if benefit <= self.benefit_epsilon:
                return
            self._accept(candidate, benefit, selection)
            before = self.engine.total_cost()
            round_number += 1

    # ---------------------------------------------------------------- benefits

    def _benefit(self, candidate: Candidate, before: float) -> float:
        """``benefit(x, X)`` priced speculatively via incremental cost update.

        ``before`` is ``cost(X, X)``, priced once per round by the caller.
        """
        with self.engine.speculative():
            self._apply(candidate)
            after = self.engine.total_cost()
        return before - after

    def _apply(self, candidate: Candidate) -> None:
        if candidate.kind == "index":
            self.engine.add_index(candidate.node_id, candidate.columns)
        else:
            assert candidate.key is not None
            self.engine.add_materialized(candidate.key)

    def _accept(self, candidate: Candidate, benefit: float, selection: GreedySelection) -> None:
        self._apply(candidate)
        if candidate.kind == "index":
            disposition = "index"
            cost = self.engine.index_cost(candidate.node_id, candidate.columns)
        elif candidate.key is not None and not candidate.key.is_full:
            disposition = "temporary"
            cost = self.engine.result_cost(candidate.key)
        else:
            assert candidate.key is not None
            cost = self.engine.result_cost(candidate.key)
            disposition = (
                "temporary" if self.engine.prefers_recomputation(candidate.node_id) else "permanent"
            )
        selection.selections.append(SelectedResult(candidate, benefit, disposition, cost))
