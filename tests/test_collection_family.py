"""Family execution in the data-collection phase.

``DataCollector.plans_for`` executes a query's candidate plans with one
shared size memo. These tests pin that every annotation, and every
collected record, equals what executing each plan on its own gives.
"""

import copy
import re

import pytest

from repro.cluster import SparkSimulator
from repro.data import build_imdb_catalog
from repro.engine import execute_plan
from repro.engine.executor import _content_keys
from repro.plan import analyze, enumerate_plans
from repro.sql import parse
from repro.workload import (
    CollectionConfig,
    DataCollector,
    QueryGenerator,
    WorkloadConfig,
)

HANDWRITTEN = [
    # ORDER BY + LIMIT above a projection.
    "select t.title, t.production_year from title t, movie_keyword mk "
    "where t.id = mk.movie_id and mk.keyword_id < 30 "
    "order by t.production_year desc limit 7",
    # A cross join (BroadcastNestedLoopJoin) and nothing else.
    "select count(*) from kind_type kt, role_type rt where kt.id < 4",
    # GROUP BY, ORDER BY and LIMIT together.
    "select kt.kind, count(*) from title t, kind_type kt "
    "where t.kind_id = kt.id and t.production_year > 1990 "
    "group by kt.kind order by kt.kind limit 3",
    # Three tables, several join orders.
    "select count(*) from title t, movie_keyword mk, keyword k "
    "where t.id = mk.movie_id and mk.keyword_id = k.id and k.id < 50",
    # An equi-join and a cross join in one tree.
    "select count(*) from title t, movie_keyword mk, kind_type kt "
    "where t.id = mk.movie_id and mk.keyword_id < 10 and kt.id < 3",
]


@pytest.fixture(scope="module")
def catalog():
    return build_imdb_catalog(scale=0.05, seed=3)


@pytest.fixture(scope="module")
def workload(catalog):
    generated = QueryGenerator(
        catalog, WorkloadConfig(min_joins=1, max_joins=3, group_by_fraction=0.5),
        seed=5).generate(8)
    return HANDWRITTEN + generated


def _order(plan):
    return re.match(r"order(\d+)-", plan.label).group(1)


def _sizes(plan):
    return [(n.obs_rows, n.obs_bytes) for n in plan.nodes()]


class PerPlanCollector(DataCollector):
    """The reference: each plan executed alone, each run simulated."""

    def plans_for(self, sql):
        query = analyze(parse(sql), self.catalog)
        plans = enumerate_plans(query, self.catalog, self.config.enumerator)
        plans = plans[: self.config.plans_per_query]
        for plan in plans:
            execute_plan(plan, self.catalog)
        return plans


class RunningSumSimulator(SparkSimulator):
    def execute_mean(self, plan, resources, runs=3):
        total = 0.0
        for run_id in range(runs):
            total += self.execute(plan, resources, run_id=run_id).runtime_seconds
        return total / runs


def test_workload_covers_the_plan_shapes(catalog, workload):
    collector = DataCollector(catalog, SparkSimulator(),
                              config=CollectionConfig(plans_per_query=12))
    plans = [p for sql in workload for p in collector.plans_for(sql)]
    ops = set().union(*(p.operator_counts() for p in plans))
    assert {"Filter", "BroadcastNestedLoopJoin", "SortMergeJoin",
            "BroadcastHashJoin", "HashAggregate", "Limit", "Sort"} <= ops
    assert any(_order(p) != "0" for p in plans)


def test_every_node_matches_a_fresh_execution(catalog, workload):
    collector = DataCollector(catalog, SparkSimulator(),
                              config=CollectionConfig(plans_per_query=12))
    checked = 0
    for sql in workload:
        for plan in collector.plans_for(sql):
            alone = copy.deepcopy(plan)
            for node in alone.nodes():
                node.obs_rows = node.obs_bytes = None
            execute_plan(alone, catalog)
            assert _sizes(plan) == _sizes(alone), plan.label
            checked += 1
    assert checked > 4 * len(workload)


def test_collect_matches_a_per_plan_reference_bit_for_bit(catalog, workload):
    def collect(collector_cls, simulator_cls):
        collector = collector_cls(catalog, simulator_cls(seed=4),
                                  config=CollectionConfig(plans_per_query=4),
                                  seed=9)
        records = collector.collect(workload)
        return collector.skipped, [
            (r.sql, r.plan.signature(), _sizes(r.plan), r.resources,
             r.cost_seconds) for r in records]

    skipped, records = collect(DataCollector, SparkSimulator)
    assert records
    assert (skipped, records) == collect(PerPlanCollector, RunningSumSimulator)


def test_plans_of_different_join_orders_share_no_intermediate_key(catalog):
    collector = DataCollector(catalog, SparkSimulator(),
                              config=CollectionConfig(plans_per_query=12))
    for sql in HANDWRITTEN:
        by_order: dict[str, set] = {}
        for plan in collector.plans_for(sql):
            keys = _content_keys(plan.root).values()
            by_order.setdefault(_order(plan), set()).update(
                k for k in keys if k[0] not in ("scan", "filter"))
        assert len(by_order) > 1, sql
        orders = sorted(by_order)
        for i, a in enumerate(orders):
            for b in orders[i + 1:]:
                assert not by_order[a] & by_order[b], sql


def test_one_join_order_shares_its_root_key(catalog):
    query = analyze(parse(HANDWRITTEN[3]), catalog)
    plans = [p for p in enumerate_plans(query, catalog) if _order(p) == "0"]
    assert len(plans) > 2
    assert len({_content_keys(p.root)[id(p.root)] for p in plans}) == 1
