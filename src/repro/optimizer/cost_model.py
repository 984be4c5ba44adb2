"""The cost model.

Mirrors the paper's performance model (§7.1): the cost of a plan accounts
for the **number of seeks**, the **amount of data read**, the **amount of
data written**, and **CPU time** for in-memory processing, and is reported in
seconds.  Operator formulas model the standard algorithms (sequential scan,
hash join with Grace-style partitioning when the build input exceeds the
buffer pool, sort-merge join, nested loops, index nested loops, hash
aggregation, external sort), which produces the paper's qualitative
behaviours — in particular the sharp cost jump when an input stops fitting
in memory, and the strong benefit of indexes for joining small differentials
with large stored relations.

All formulas consume :class:`~repro.catalog.statistics.TableStats`
descriptors only — never actual data — so the same model prices both full
results and differentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.statistics import TableStats
from repro.storage.buffer import BufferPool


@dataclass(frozen=True)
class CostParameters:
    """Elementary cost constants (seconds)."""

    seek_time: float = 0.01
    block_read_time: float = 0.0002
    block_write_time: float = 0.0004
    cpu_tuple_time: float = 2.0e-6
    cpu_probe_time: float = 4.0e-6
    cpu_compare_time: float = 1.0e-6
    #: CPU charged per output tuple produced by any operator.
    cpu_output_time: float = 1.0e-6


@dataclass(frozen=True)
class InputDescriptor:
    """What the cost model needs to know about one operator input.

    ``stored`` marks inputs that exist as stored relations (base tables or
    materialized results) — only those can be probed through an index or
    scanned repeatedly.  ``indexed_columns`` lists column sets that have an
    available index; ``sorted_on`` a sort order guaranteed by storage.
    """

    stats: TableStats
    stored: bool = False
    indexed_columns: Tuple[Tuple[str, ...], ...] = ()
    sorted_on: Tuple[str, ...] = ()
    #: ``indexed_columns`` and ``sorted_on`` without qualifiers, computed once.
    index_keys: Tuple[Tuple[str, ...], ...] = field(init=False, repr=False, compare=False)
    sort_key: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index_keys", tuple(map(_unqualified, self.indexed_columns)))
        object.__setattr__(self, "sort_key", _unqualified(self.sorted_on))

    def has_index_on(self, columns: Sequence[str]) -> bool:
        """Whether an index with leading key ``columns`` is available."""
        return self.has_index_key(_unqualified(columns))

    def has_index_key(self, wanted: Tuple[str, ...]) -> bool:
        """:meth:`has_index_on` for columns already without qualifiers."""
        if not wanted:
            return False
        for key in self.index_keys:
            if key[: len(wanted)] == wanted or wanted[: len(key)] == key:
                return True
        return False


def _unqualified(columns: Sequence[str]) -> Tuple[str, ...]:
    """Column names with any ``relation.`` qualifier stripped."""
    return tuple(c.rsplit(".", 1)[-1] for c in columns)


class CostModel:
    """Prices individual operators and storage actions."""

    def __init__(
        self,
        parameters: Optional[CostParameters] = None,
        buffer: Optional[BufferPool] = None,
    ) -> None:
        self.parameters = parameters or CostParameters()
        self.buffer = buffer or BufferPool()

    # ------------------------------------------------------------- primitives

    def _blocks(self, stats: TableStats) -> float:
        return self.buffer.blocks_for(stats.size_bytes)

    def sequential_read(self, stats: TableStats) -> float:
        """Cost of reading a stored result sequentially (one seek + transfer)."""
        if stats.cardinality <= 0:
            return self.parameters.seek_time
        return self.parameters.seek_time + self._blocks(stats) * self.parameters.block_read_time

    def sequential_write(self, stats: TableStats) -> float:
        """Cost of writing a result out sequentially."""
        if stats.cardinality <= 0:
            return 0.0
        return self.parameters.seek_time + self._blocks(stats) * self.parameters.block_write_time

    # -------------------------------------------------- storage-level actions

    def scan_cost(self, stats: TableStats) -> float:
        """Cost of a relation scan (the explicit scan operation of the DAG)."""
        return self.sequential_read(stats) + stats.cardinality * self.parameters.cpu_tuple_time

    def reuse_cost(self, stats: TableStats) -> float:
        """``reusecost`` — cost of reusing a materialized result (re-reading it)."""
        return self.scan_cost(stats)

    def materialize_cost(self, stats: TableStats) -> float:
        """``matcost`` — cost of writing out a computed result."""
        return self.sequential_write(stats)

    def index_build_cost(self, stats: TableStats) -> float:
        """Cost of building an index over a stored result (sort + write)."""
        card = max(stats.cardinality, 1.0)
        sort_cpu = card * math.log2(card + 1) * self.parameters.cpu_compare_time
        key_stats = TableStats(stats.cardinality, 16)
        return self.sequential_read(stats) + sort_cpu + self.sequential_write(key_stats)

    def index_maintenance_cost(self, delta_stats_list: Sequence[TableStats]) -> float:
        """Cost of applying deltas to an index (one probe + one write per tuple)."""
        total_tuples = sum(d.cardinality for d in delta_stats_list)
        if total_tuples <= 0:
            return 0.0
        io = self.parameters.seek_time + self.buffer.blocks_for(total_tuples * 16) * self.parameters.block_write_time
        return io + total_tuples * (self.parameters.cpu_probe_time + self.parameters.cpu_tuple_time)

    def merge_cost(
        self,
        view_stats: TableStats,
        delta_stats_list: Sequence[TableStats],
        has_index: bool = False,
    ) -> float:
        """``mergeCost`` — cost of applying computed differentials to a stored view.

        Inserts are appended; deletes (and aggregate-row replacements) need to
        locate the affected tuples, which is cheap with an index on the view
        and requires re-reading the view otherwise.
        """
        total = sum(d.cardinality for d in delta_stats_list)
        if total <= 0:
            return 0.0
        write = self.parameters.seek_time + self.buffer.blocks_for(
            sum(d.size_bytes for d in delta_stats_list)
        ) * self.parameters.block_write_time
        cpu = total * (self.parameters.cpu_probe_time + self.parameters.cpu_tuple_time)
        locate = 0.0
        if has_index:
            locate = total * self.parameters.cpu_probe_time
        else:
            locate = self.sequential_read(view_stats)
        return write + cpu + locate

    # --------------------------------------------------------------- operators

    def select_cost(self, input_stats: TableStats, output_stats: TableStats) -> float:
        """CPU cost of filtering an input (input assumed pipelined)."""
        return (
            input_stats.cardinality * self.parameters.cpu_tuple_time
            + output_stats.cardinality * self.parameters.cpu_output_time
        )

    def project_cost(self, input_stats: TableStats, output_stats: TableStats) -> float:
        """CPU cost of a duplicate-preserving projection."""
        return (
            input_stats.cardinality * self.parameters.cpu_tuple_time
            + output_stats.cardinality * self.parameters.cpu_output_time
        )

    def union_cost(self, input_stats: Sequence[TableStats], output_stats: TableStats) -> float:
        """CPU cost of concatenating inputs."""
        return (
            sum(s.cardinality for s in input_stats) * self.parameters.cpu_tuple_time
            + output_stats.cardinality * self.parameters.cpu_output_time
        )

    def difference_cost(
        self, left: TableStats, right: TableStats, output_stats: TableStats
    ) -> float:
        """Hash-based multiset difference."""
        spill = self._spill_penalty(right)
        return (
            spill
            + (left.cardinality + right.cardinality) * self.parameters.cpu_probe_time
            + output_stats.cardinality * self.parameters.cpu_output_time
        )

    def distinct_cost(self, input_stats: TableStats, output_stats: TableStats) -> float:
        """Hash-based duplicate elimination."""
        return self.aggregate_cost(input_stats, output_stats)

    def aggregate_cost(self, input_stats: TableStats, output_stats: TableStats) -> float:
        """Hash aggregation; spills to disk when the input exceeds the buffer."""
        spill = self._spill_penalty(input_stats)
        return (
            spill
            + input_stats.cardinality
            * (self.parameters.cpu_probe_time + self.parameters.cpu_tuple_time)
            + output_stats.cardinality * self.parameters.cpu_output_time
        )

    def sort_cost(self, stats: TableStats) -> float:
        """External-sort cost (used by merge join when an input is unsorted)."""
        card = max(stats.cardinality, 1.0)
        cpu = card * math.log2(card + 1) * self.parameters.cpu_compare_time
        io = 0.0
        if not self.buffer.fits(stats.size_bytes):
            # one write + one read pass per merge level
            passes = max(1, self.buffer.partitions_needed(stats.size_bytes))
            io = passes * (
                2 * self._blocks(stats) * (self.parameters.block_read_time + self.parameters.block_write_time) / 2
                + 2 * self.parameters.seek_time
            )
        return cpu + io

    def _spill_penalty(self, build_stats: TableStats) -> float:
        """Extra I/O when a hash table over ``build_stats`` does not fit in memory."""
        if self.buffer.fits(build_stats.size_bytes):
            return 0.0
        passes = self.buffer.partitions_needed(build_stats.size_bytes)
        return passes * (
            self._blocks(build_stats)
            * (self.parameters.block_read_time + self.parameters.block_write_time)
            + 2 * self.parameters.seek_time
        )

    def pipeline_breaker_cost(self, output_stats: TableStats) -> float:
        """Cost of materializing an intermediate result that exceeds the buffer.

        The paper's Volcano-based prototype does not pipeline large
        intermediate results through multi-way joins ("the cost of executing
        an operation o also takes into account the cost of reading the
        inputs, if they are not pipelined", §5.1): an intermediate result
        larger than the buffer pool is written to disk by its producer and
        re-read by its consumer.  Differential plans rarely pay this penalty
        because their intermediate results (joins against small deltas) fit
        in memory — which is precisely why incremental maintenance wins at
        low update percentages and recomputation catches up at high ones.
        """
        if self.buffer.fits(output_stats.size_bytes):
            return 0.0
        return self.sequential_write(output_stats) + self.sequential_read(output_stats)

    def join_keys(self, conditions: Sequence[Tuple[str, str]]) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The unqualified left and right join columns of ``conditions``."""
        return _unqualified([a for a, _ in conditions]), _unqualified([b for _, b in conditions])

    # -------------------------------------------------------------------- joins

    def join_cost(
        self,
        conditions: Sequence[Tuple[str, str]],
        left: InputDescriptor,
        right: InputDescriptor,
        output_stats: TableStats,
        left_access: float = 0.0,
        right_access: float = 0.0,
    ) -> Tuple[float, str]:
        """Cost of the cheapest join algorithm for these inputs.

        ``left_access``/``right_access`` are the costs of *producing* each
        input (the Volcano ``C(e_i, M)`` terms).  They are folded in here
        rather than added by the caller because an index nested-loop join
        that probes a stored input through its index never reads that input
        in full — which is exactly why indexes make differential maintenance
        cheap (paper §7: "all required indices got chosen for permanent
        materialization").

        Returns ``(cost_including_input_access, algorithm)``.  Candidates:

        * hash join (build on the smaller input; Grace partitioning I/O added
          when the build side exceeds the buffer pool);
        * sort-merge join (sorts whichever inputs are not already sorted on
          the join key);
        * (block) nested-loop join — only competitive for tiny inputs or
          cross products;
        * index nested-loop join, when one side is a *stored* relation with
          an index on its join columns.
        """
        p = self.parameters
        output_cpu = output_stats.cardinality * p.cpu_output_time
        both_access = left_access + right_access
        left_size = left.stats.size_bytes
        right_size = right.stats.size_bytes
        candidates: List[Tuple[float, str]] = []

        if conditions:
            left_key, right_key = self.join_keys(conditions)
            # --- hash join
            build, probe = (right, left) if right_size <= left_size else (left, right)
            hash_cost = (
                both_access
                + self._spill_penalty(build.stats)
                + build.stats.cardinality * (p.cpu_tuple_time + p.cpu_probe_time)
                + probe.stats.cardinality * p.cpu_probe_time
                + output_cpu
            )
            candidates.append((hash_cost, "hash"))

            # --- sort-merge join
            merge_cost = (
                both_access
                + output_cpu
                + (left.stats.cardinality + right.stats.cardinality) * p.cpu_compare_time
            )
            if left.sort_key[: len(left_key)] != left_key:
                merge_cost += self.sort_cost(left.stats)
            if right.sort_key[: len(right_key)] != right_key:
                merge_cost += self.sort_cost(right.stats)
            candidates.append((merge_cost, "merge"))

            # --- index nested loops (either direction): the probed stored
            # side is accessed only through its index, so its access cost is
            # NOT charged.
            if right.stored and right.has_index_key(right_key):
                matches = output_stats.cardinality / max(left.stats.cardinality, 1.0)
                probe_io = 0.0
                if not self.buffer.fits(right_size):
                    probe_io = p.block_read_time + p.seek_time * 0.01
                index_cost = (
                    left_access
                    + left.stats.cardinality * (p.cpu_probe_time + probe_io + matches * p.cpu_tuple_time)
                    + output_cpu
                )
                candidates.append((index_cost, "index_nested_loop_right"))
            if left.stored and left.has_index_key(left_key):
                matches = output_stats.cardinality / max(right.stats.cardinality, 1.0)
                probe_io = 0.0
                if not self.buffer.fits(left_size):
                    probe_io = p.block_read_time + p.seek_time * 0.01
                index_cost = (
                    right_access
                    + right.stats.cardinality * (p.cpu_probe_time + probe_io + matches * p.cpu_tuple_time)
                    + output_cpu
                )
                candidates.append((index_cost, "index_nested_loop_left"))

        # --- (block) nested loops; the only choice for pure cross products.
        small, big = (left, right) if left_size <= right_size else (right, left)
        nl_cost = (
            both_access
            + small.stats.cardinality * big.stats.cardinality * p.cpu_compare_time * 0.01
            + (small.stats.cardinality + big.stats.cardinality) * p.cpu_tuple_time
            + self._spill_penalty(small.stats)
            + output_cpu
        )
        candidates.append((nl_cost, "nested_loop"))

        best_cost, best_algorithm = min(candidates, key=lambda c: c[0])
        # Non-pipelined intermediate results are written and re-read by the
        # consumer regardless of the join algorithm chosen.
        return best_cost + self.pipeline_breaker_cost(output_stats), best_algorithm


class MemoizedCostModel(CostModel):
    """A :class:`CostModel` that prices each stats-only primitive once.

    ``sort_cost``, ``_spill_penalty`` and ``pipeline_breaker_cost`` read
    nothing of their statistics but the cardinality and the tuple width, so
    each is memoized on that pair, and ``join_keys`` on the conditions; the
    memoized value is the one the formula returns, so every cost is
    bit-identical to the plain model's.  The tables grow with the distinct
    statistics priced: one lives as long as one optimization's cost engine,
    never on a model an executor keeps.
    """

    def __init__(self, model: CostModel) -> None:
        super().__init__(model.parameters, model.buffer)
        self._sort: Dict[Tuple[float, int], float] = {}
        self._spill: Dict[Tuple[float, int], float] = {}
        self._breaker: Dict[Tuple[float, int], float] = {}
        self._keys: Dict[Tuple[Tuple[str, str], ...], Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}

    def sort_cost(self, stats: TableStats) -> float:
        return self._memo(self._sort, super().sort_cost, stats)

    def _spill_penalty(self, build_stats: TableStats) -> float:
        return self._memo(self._spill, super()._spill_penalty, build_stats)

    def pipeline_breaker_cost(self, output_stats: TableStats) -> float:
        return self._memo(self._breaker, super().pipeline_breaker_cost, output_stats)

    @staticmethod
    def _memo(table: Dict[Tuple[float, int], float], price, stats: TableStats) -> float:
        key = (stats.cardinality, stats.tuple_width)
        cost = table.get(key)
        if cost is None:
            cost = table[key] = price(stats)
        return cost

    def join_keys(self, conditions: Sequence[Tuple[str, str]]) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        key = tuple(conditions)
        keys = self._keys.get(key)
        if keys is None:
            keys = self._keys[key] = super().join_keys(conditions)
        return keys
