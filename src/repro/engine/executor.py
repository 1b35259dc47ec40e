"""Physical plan execution over catalog data.

Executes a :class:`~repro.plan.physical.PhysicalPlan` bottom-up on the
numpy column arrays in a :class:`~repro.data.catalog.Catalog`, producing
the query result *and* annotating every operator with its true observed
cardinality (``obs_rows`` / ``obs_bytes``).

This is the ground-truth side of the reproduction: the paper measures
real Spark executions; we execute plans for real (so per-operator data
volumes are exact) and feed those volumes to the cluster simulator,
which converts them into resource-dependent runtimes.
"""

from __future__ import annotations

import numpy as np

from repro.data.catalog import Catalog
from repro.engine.relation import Relation, group_codes, join_indices
from repro.errors import PlanError
from repro.plan.physical import (
    BroadcastExchange,
    BroadcastHashJoin,
    BroadcastNestedLoopJoin,
    ExchangeHashPartition,
    ExchangeSinglePartition,
    FileScan,
    FilterExec,
    HashAggregate,
    LimitExec,
    PhysicalNode,
    PhysicalPlan,
    ProjectExec,
    SortAggregate,
    SortExec,
    SortMergeJoin,
)
from repro.sql.ast import AggregateExpr, AggregateFunc, ColumnRef, OrderItem
from repro.sql.expressions import evaluate_predicate, null_mask

__all__ = ["execute_plan"]


def _qualified(ref: ColumnRef) -> str:
    return f"{ref.table}.{ref.column}"


def _apply_filters(relation: Relation, predicates) -> Relation:
    mask = np.ones(relation.num_rows, dtype=bool)
    for pred in predicates:
        values = relation.column(_qualified(pred.column))
        mask &= evaluate_predicate(pred, values)
    return relation.filter(mask)


def _execute_join(left: Relation, right: Relation, condition) -> Relation:
    # Determine which side owns which key column.
    lq, rq = _qualified(condition.left), _qualified(condition.right)
    if lq in left.columns and rq in right.columns:
        lkeys, rkeys = left.column(lq), right.column(rq)
    elif rq in left.columns and lq in right.columns:
        lkeys, rkeys = left.column(rq), right.column(lq)
    else:
        raise PlanError(f"join condition {condition} does not match child outputs")
    li, ri = join_indices(lkeys, rkeys)
    return left.take(li).merge(right.take(ri))


def _cross_join(left: Relation, right: Relation) -> Relation:
    nl, nr = left.num_rows, right.num_rows
    li = np.repeat(np.arange(nl), nr)
    ri = np.tile(np.arange(nr), nl)
    return left.take(li).merge(right.take(ri))


def _aggregate(relation: Relation, group_by: list[ColumnRef],
               aggregates: list[AggregateExpr]) -> Relation:
    out: dict[str, np.ndarray] = {}
    if group_by:
        keys = [relation.column(_qualified(c)) for c in group_by]
        codes, num_groups = group_codes(keys)
        representatives = np.zeros(num_groups, dtype=np.int64)
        representatives[codes] = np.arange(len(codes))
        for col in group_by:
            out[_qualified(col)] = relation.column(_qualified(col))[representatives]
    else:
        codes = np.zeros(relation.num_rows, dtype=np.int64)
        num_groups = 1
    for agg in aggregates:
        name = str(agg)
        if agg.func == AggregateFunc.COUNT and agg.argument is None:
            out[name] = np.bincount(codes, minlength=num_groups).astype(np.float64)
            continue
        values = relation.column(_qualified(agg.argument))
        present = ~null_mask(values)
        if agg.func == AggregateFunc.COUNT:
            out[name] = np.bincount(codes[present], minlength=num_groups).astype(np.float64)
            continue
        numeric = np.asarray(values[present], dtype=np.float64) \
            if values.dtype != object else None
        if numeric is None:
            # MIN/MAX over strings: fall back to per-group python reduce.
            result = np.array([None] * num_groups, dtype=object)
            for code, value in zip(codes[present], values[present]):
                current = result[code]
                if current is None:
                    result[code] = value
                elif agg.func == AggregateFunc.MIN:
                    result[code] = min(current, value)
                else:
                    result[code] = max(current, value)
            out[name] = result
            continue
        gcodes = codes[present]
        if agg.func == AggregateFunc.SUM:
            sums = np.zeros(num_groups)
            np.add.at(sums, gcodes, numeric)
            out[name] = sums
        elif agg.func == AggregateFunc.AVG:
            sums = np.zeros(num_groups)
            np.add.at(sums, gcodes, numeric)
            cnts = np.bincount(gcodes, minlength=num_groups).astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                out[name] = np.where(cnts > 0, sums / np.maximum(cnts, 1), np.nan)
        elif agg.func == AggregateFunc.MIN:
            mins = np.full(num_groups, np.inf)
            np.minimum.at(mins, gcodes, numeric)
            out[name] = np.where(np.isfinite(mins), mins, np.nan)
        elif agg.func == AggregateFunc.MAX:
            maxs = np.full(num_groups, -np.inf)
            np.maximum.at(maxs, gcodes, numeric)
            out[name] = np.where(np.isfinite(maxs), maxs, np.nan)
        else:
            raise PlanError(f"unsupported aggregate {agg.func}")
    if num_groups == 0 and not group_by:
        # COUNT over an empty input is still one row of zeros.
        out = {k: np.array([0.0]) for k in out}
    return Relation(out)


def _sort(relation: Relation, keys) -> Relation:
    if relation.num_rows == 0 or not keys:
        return relation
    # numpy lexsort: last key is primary, so reverse.
    arrays = []
    for key in reversed(keys):
        column = key.column if isinstance(key, OrderItem) else key
        values = relation.column(_qualified(column))
        if values.dtype == object:
            values = np.array(["" if v is None else str(v) for v in values])
        if isinstance(key, OrderItem) and key.descending and values.dtype != object:
            arrays.append(-np.nan_to_num(np.asarray(values, dtype=np.float64)))
        else:
            arrays.append(values)
    order = np.lexsort(arrays)
    return relation.take(order)


def _content_keys(root: PhysicalNode) -> dict[int, tuple]:
    """``id(node)`` → a key for the logical content of the node's output.

    Two nodes with equal keys produce relations with the same rows and
    columns (possibly in another order), so their observed sizes agree.
    A key is built from the scans (alias, table, columns), the
    predicates applied so far (pushed into the scan or not), the join
    tree and its conditions, and the project / aggregate / limit
    operators above it. Sorts and exchanges pass their child's key
    through, and the join algorithm does not enter the key.
    """
    keys: dict[int, tuple] = {}

    def visit(node: PhysicalNode) -> tuple:
        kids = [visit(child) for child in node.children]
        if isinstance(node, FileScan):
            key = ("scan", node.alias, node.table, tuple(node.columns))
            if node.pushed_filters:
                key = ("filter", key, frozenset(node.pushed_filters))
        elif isinstance(node, FilterExec):
            base, applied = (kids[0][1], kids[0][2]) if kids[0][0] == "filter" \
                else (kids[0], frozenset())
            key = ("filter", base, applied | frozenset(node.predicates))
        elif isinstance(node, ProjectExec):
            key = ("project", kids[0], tuple(node.columns))
        elif isinstance(node, (SortExec, ExchangeHashPartition,
                               ExchangeSinglePartition, BroadcastExchange)):
            # An exchange above a partial aggregate also reports the
            # partial's sizes, so passing the key through holds there.
            key = kids[0]
        elif isinstance(node, (SortMergeJoin, BroadcastHashJoin,
                               BroadcastNestedLoopJoin)):
            condition = None if isinstance(node, BroadcastNestedLoopJoin) \
                else node.condition
            key = ("join", kids[0], kids[1], condition)
        elif isinstance(node, (HashAggregate, SortAggregate)):
            key = ("aggregate", node.mode, kids[0], tuple(node.group_by),
                   tuple(node.aggregates))
        elif isinstance(node, LimitExec):
            key = ("limit", kids[0], node.count)
        else:
            raise PlanError(f"cannot execute node type {type(node).__name__}")
        keys[id(node)] = key
        return key

    visit(root)
    return keys


def execute_plan(plan: PhysicalPlan, catalog: Catalog,
                 memo: dict | None = None) -> Relation | None:
    """Execute ``plan`` against ``catalog``; annotates observed sizes.

    Every node's ``obs_rows``/``obs_bytes`` are set as a side effect.
    Aggregation columns in the result are named after the aggregate
    expression (e.g. ``count(*)``).

    ``memo`` shares sizes across the plans of one query: it maps each
    executed node's logical content key to its ``(obs_rows,
    obs_bytes)``. A node whose key is already there takes its sizes
    from it and only its children are visited; any other node runs its
    subtree as usual and adds the subtree's sizes. Sizes are memoized,
    never relations, so nothing is returned when the memo already
    held the root's sizes.
    """
    keys = _content_keys(plan.root) if memo is not None else {}

    def run(node: PhysicalNode) -> Relation:
        sizes = None
        if isinstance(node, FileScan):
            table = catalog.table(node.table)
            relation = Relation({
                f"{node.alias}.{col}": table.column(col) for col in node.columns
            })
            if node.pushed_filters:
                relation = _apply_filters(relation, node.pushed_filters)
        elif isinstance(node, FilterExec):
            relation = _apply_filters(run(node.child), node.predicates)
        elif isinstance(node, ProjectExec):
            relation = run(node.child).select([_qualified(c) for c in node.columns])
        elif isinstance(node, SortExec):
            relation = _sort(run(node.child), node.keys)
        elif isinstance(node, (ExchangeHashPartition, ExchangeSinglePartition,
                               BroadcastExchange)):
            relation = run(node.child)
            if isinstance(node.child, (HashAggregate, SortAggregate)) \
                    and node.child.mode == "partial":
                # The shuffle transfers the partial aggregate's output
                # (one row per group), not the rows it passed through
                # for downstream correctness.
                sizes = (node.child.obs_rows, node.child.obs_bytes)
        elif isinstance(node, (SortMergeJoin, BroadcastHashJoin)):
            left = run(node.left)
            right = run(node.right)
            if node.condition is None:
                relation = _cross_join(left, right)
            else:
                relation = _execute_join(left, right, node.condition)
        elif isinstance(node, BroadcastNestedLoopJoin):
            left = run(node.left)
            right = run(node.right)
            relation = _cross_join(left, right)
        elif isinstance(node, (HashAggregate, SortAggregate)):
            child = run(node.child)
            if node.mode == "partial":
                # Partial aggregation is a per-partition operation whose
                # output depends on the runtime partition count; record
                # the group count and pass rows through for correctness.
                if node.group_by:
                    group_keys = [child.column(_qualified(c)) for c in node.group_by]
                    _, groups = group_codes(group_keys)
                else:
                    groups = 1 if child.num_rows else 0
                sizes = (float(groups), groups * 8.0 * max(
                    len(node.group_by) + len(node.aggregates), 1))
                relation = child
            else:
                relation = _aggregate(child, node.group_by, node.aggregates)
        elif isinstance(node, LimitExec):
            child = run(node.child)
            relation = child.take(np.arange(min(node.count, child.num_rows)))
        else:
            raise PlanError(f"cannot execute node type {type(node).__name__}")
        if sizes is None:
            sizes = (float(relation.num_rows), float(relation.estimated_bytes()))
        node.obs_rows, node.obs_bytes = sizes
        if memo is not None:
            memo[keys[id(node)]] = sizes
        return relation

    def annotate(node: PhysicalNode) -> Relation | None:
        sizes = memo.get(keys[id(node)])
        if sizes is None:
            return run(node)
        node.obs_rows, node.obs_bytes = sizes
        for child in node.children:
            annotate(child)
        return None

    return run(plan.root) if memo is None else annotate(plan.root)
