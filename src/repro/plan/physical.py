"""Physical plan operators with Spark SQL's operator vocabulary.

A physical plan is a tree of :class:`PhysicalNode` objects. Each node
renders itself as the *execution statements* Spark shows in its plan
output (e.g. ``FileScan``, ``Filter``, ``SortMergeJoin``) — these
strings are what the word2vec node-semantic encoder consumes — and
carries cardinality annotations:

* ``est_rows`` / ``est_bytes`` — optimizer estimates (set by
  :func:`annotate_estimates`);
* ``obs_rows`` / ``obs_bytes`` — true values observed by the execution
  engine (set by :func:`repro.engine.executor.execute_plan`); the
  cluster simulator consumes these.

Node ordering follows the paper: nodes are numbered bottom-up in
execution order (post-order traversal), children before parents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.sql.ast import (
    AggregateExpr,
    ColumnRef,
    Comparison,
    BetweenPredicate,
    InPredicate,
    IsNullPredicate,
    JoinCondition,
    LikePredicate,
    OrderItem,
)

__all__ = [
    "PhysicalNode",
    "FileScan",
    "FilterExec",
    "ProjectExec",
    "SortExec",
    "ExchangeHashPartition",
    "ExchangeSinglePartition",
    "BroadcastExchange",
    "SortMergeJoin",
    "BroadcastHashJoin",
    "BroadcastNestedLoopJoin",
    "HashAggregate",
    "SortAggregate",
    "LimitExec",
    "PhysicalPlan",
]


def _render_predicate(pred) -> str:
    """Spark-style rendering, e.g. ``(isnotnull(x) && (x > 2))``."""
    col = f"{pred.column.table}.{pred.column.column}"
    if isinstance(pred, Comparison):
        return f"(isnotnull({col}) && ({col} {pred.op.value} {pred.value}))"
    if isinstance(pred, BetweenPredicate):
        return f"(isnotnull({col}) && ({col} >= {pred.low}) && ({col} <= {pred.high}))"
    if isinstance(pred, InPredicate):
        vals = ",".join(str(v) for v in pred.values)
        return f"({col} IN ({vals}))"
    if isinstance(pred, LikePredicate):
        neg = "NOT " if pred.negated else ""
        return f"({neg}{col} LIKE '{pred.pattern}')"
    if isinstance(pred, IsNullPredicate):
        return f"(isnotnull({col}))" if pred.negated else f"(isnull({col}))"
    return str(pred)


@dataclass
class PhysicalNode:
    """Base physical operator."""

    est_rows: float = field(default=0.0, init=False)
    est_bytes: float = field(default=0.0, init=False)
    obs_rows: float | None = field(default=None, init=False)
    obs_bytes: float | None = field(default=None, init=False)

    @property
    def op_name(self) -> str:
        """Operator name as Spark prints it."""
        return type(self).__name__.removesuffix("Exec")

    @property
    def children(self) -> list["PhysicalNode"]:
        """Child operators."""
        return []

    def statements(self) -> list[str]:
        """Execution statements describing this node (for the encoder)."""
        return [self.op_name]

    @property
    def rows(self) -> float:
        """Observed rows when available, else the estimate."""
        return self.obs_rows if self.obs_rows is not None else self.est_rows

    @property
    def bytes(self) -> float:
        """Observed bytes when available, else the estimate."""
        return self.obs_bytes if self.obs_bytes is not None else self.est_bytes

    def describe(self, indent: int = 0) -> str:
        """EXPLAIN-style rendering of the subtree."""
        info = f"  (est_rows={self.est_rows:.0f}"
        if self.obs_rows is not None:
            info += f", obs_rows={self.obs_rows:.0f}"
        info += ")"
        lines = ["  " * indent + "; ".join(self.statements()) + info]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


@dataclass
class FileScan(PhysicalNode):
    """Columnar file scan with optional pushed-down filters."""

    table: str
    alias: str
    columns: list[str] = field(default_factory=list)
    pushed_filters: list = field(default_factory=list)

    @property
    def op_name(self) -> str:
        return "FileScan"

    def statements(self) -> list[str]:
        cols = ", ".join(f"{self.alias}.{c}" for c in self.columns)
        stmts = [f"FileScan {self.table} ({cols})"]
        if self.pushed_filters:
            conds = " && ".join(_render_predicate(p) for p in self.pushed_filters)
            stmts.append(f"PushedFilters {conds}")
        return stmts


@dataclass
class FilterExec(PhysicalNode):
    """Row filter applied after a scan (non-pushed predicates)."""

    child: PhysicalNode
    predicates: list = field(default_factory=list)

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        conds = " && ".join(_render_predicate(p) for p in self.predicates)
        return [f"Filter {conds}"]


@dataclass
class ProjectExec(PhysicalNode):
    """Column projection."""

    child: PhysicalNode
    columns: list[ColumnRef] = field(default_factory=list)

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        return ["Project [" + ", ".join(str(c) for c in self.columns) + "]"]


@dataclass
class SortExec(PhysicalNode):
    """Per-partition sort (below SMJ or for ORDER BY)."""

    child: PhysicalNode
    keys: list = field(default_factory=list)  # ColumnRef or OrderItem

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        rendered = []
        for key in self.keys:
            if isinstance(key, OrderItem):
                rendered.append(f"{key.column} {'DESC' if key.descending else 'ASC'}")
            else:
                rendered.append(f"{key} ASC")
        return ["Sort [" + ", ".join(rendered) + "]"]


@dataclass
class ExchangeHashPartition(PhysicalNode):
    """Shuffle: hash-partition rows by key across executors."""

    child: PhysicalNode
    keys: list[ColumnRef] = field(default_factory=list)

    @property
    def op_name(self) -> str:
        return "ExchangeHashPartition"

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        keys = ", ".join(str(k) for k in self.keys)
        return [f"Exchange hashpartitioning({keys})"]


@dataclass
class ExchangeSinglePartition(PhysicalNode):
    """Shuffle everything to a single partition (global aggregation)."""

    child: PhysicalNode

    @property
    def op_name(self) -> str:
        return "ExchangeSinglePartition"

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        return ["Exchange SinglePartition"]


@dataclass
class BroadcastExchange(PhysicalNode):
    """Broadcast the child relation to every executor."""

    child: PhysicalNode

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        return ["BroadcastExchange HashedRelationBroadcastMode"]


@dataclass
class SortMergeJoin(PhysicalNode):
    """Sort-merge join; both inputs must be sorted on the join key."""

    left: PhysicalNode
    right: PhysicalNode
    condition: JoinCondition | None = None

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def statements(self) -> list[str]:
        cond = str(self.condition) if self.condition else "true"
        return [f"SortMergeJoin [{cond}] Inner"]


@dataclass
class BroadcastHashJoin(PhysicalNode):
    """Hash join with a broadcast build side (the right child)."""

    left: PhysicalNode
    right: PhysicalNode
    condition: JoinCondition | None = None

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def statements(self) -> list[str]:
        cond = str(self.condition) if self.condition else "true"
        return [f"BroadcastHashJoin [{cond}] Inner BuildRight"]


@dataclass
class BroadcastNestedLoopJoin(PhysicalNode):
    """Nested-loop join for cross joins (no equi-condition)."""

    left: PhysicalNode
    right: PhysicalNode
    condition: JoinCondition | None = None

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def statements(self) -> list[str]:
        return ["BroadcastNestedLoopJoin BuildRight Cross"]


@dataclass
class HashAggregate(PhysicalNode):
    """Hash-based aggregation (partial below an exchange, final above)."""

    child: PhysicalNode
    group_by: list[ColumnRef] = field(default_factory=list)
    aggregates: list[AggregateExpr] = field(default_factory=list)
    mode: str = "final"  # "partial" | "final"

    def __post_init__(self) -> None:
        if self.mode not in ("partial", "final"):
            raise PlanError(f"invalid aggregate mode {self.mode!r}")

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        keys = ", ".join(str(c) for c in self.group_by)
        aggs = ", ".join(f"{self.mode}_{a}" for a in self.aggregates)
        return [f"HashAggregate(keys=[{keys}], functions=[{aggs}])"]


@dataclass
class SortAggregate(PhysicalNode):
    """Sort-based aggregation (used when hash tables would not fit)."""

    child: PhysicalNode
    group_by: list[ColumnRef] = field(default_factory=list)
    aggregates: list[AggregateExpr] = field(default_factory=list)
    mode: str = "final"

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        keys = ", ".join(str(c) for c in self.group_by)
        aggs = ", ".join(f"{self.mode}_{a}" for a in self.aggregates)
        return [f"SortAggregate(keys=[{keys}], functions=[{aggs}])"]


@dataclass
class LimitExec(PhysicalNode):
    """Global limit."""

    child: PhysicalNode
    count: int = 0

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        return [f"GlobalLimit {self.count}"]


class PhysicalPlan:
    """A complete physical plan: root node + per-query metadata.

    ``nodes()`` returns operators in execution order (post-order), the
    ordering both the structure encoder and the simulator rely on.

    The tree's shape never changes once the plan is built (only the
    nodes' cardinality annotations do), so the post-order and the edge
    list are worked out on first use and kept. ``nodes()`` and
    ``edges()`` hand out fresh lists, so a caller cannot corrupt the
    memo. Two threads racing on first use compute the same tuples.
    """

    _ids = itertools.count()

    def __init__(self, root: PhysicalNode, alias_to_table: dict[str, str],
                 label: str = "") -> None:
        self.root = root
        self.alias_to_table = dict(alias_to_table)
        self.label = label
        self.plan_id = next(PhysicalPlan._ids)
        self._shape: tuple[tuple[PhysicalNode, ...],
                           tuple[tuple[int, int], ...]] | None = None
        #: ``(estimates, digest)`` kept by
        #: :func:`repro.encoding.plan_encoder.plan_fingerprint`.
        self.fingerprint_memo: tuple[bytes, str] | None = None

    def _post_order(self) -> tuple[tuple[PhysicalNode, ...],
                                   tuple[tuple[int, int], ...]]:
        """Memoized ``(nodes, edges)``, built on first use."""
        shape = self._shape
        if shape is None:
            out: list[PhysicalNode] = []

            def visit(node: PhysicalNode) -> None:
                for child in node.children:
                    visit(child)
                out.append(node)

            visit(self.root)
            index = {id(node): i for i, node in enumerate(out)}
            edges = tuple((index[id(child)], i)
                          for i, node in enumerate(out)
                          for child in node.children)
            shape = self._shape = (tuple(out), edges)
        return shape

    def nodes(self) -> list[PhysicalNode]:
        """Post-order (bottom-up execution order) list of operators."""
        return list(self._post_order()[0])

    def node_index(self) -> dict[int, int]:
        """Map ``id(node)`` → position in :meth:`nodes` order."""
        return {id(node): i for i, node in enumerate(self._post_order()[0])}

    def edges(self) -> list[tuple[int, int]]:
        """(child_index, parent_index) pairs in execution order."""
        return list(self._post_order()[1])

    @property
    def num_nodes(self) -> int:
        """Number of operators in the plan."""
        return len(self._post_order()[0])

    def operator_counts(self) -> dict[str, int]:
        """Histogram of operator names (useful for tests/debugging)."""
        counts: dict[str, int] = {}
        for node in self.nodes():
            counts[node.op_name] = counts.get(node.op_name, 0) + 1
        return counts

    def signature(self) -> str:
        """Stable string identifying the plan's structure and statements."""
        parts = []
        for i, node in enumerate(self.nodes()):
            parts.append(f"{i}:{';'.join(node.statements())}")
        return "|".join(parts)

    def describe(self) -> str:
        """EXPLAIN-style rendering."""
        header = f"PhysicalPlan {self.label or self.plan_id}"
        return header + "\n" + self.root.describe(1)

    def __repr__(self) -> str:
        return f"PhysicalPlan(label={self.label!r}, nodes={self.num_nodes})"
