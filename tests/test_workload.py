"""Tests for repro.workload: query generation, collection, splits."""

import numpy as np
import pytest

from repro.cluster import PAPER_CLUSTER, ResourceSampler, SparkSimulator
from repro.core import variant
from repro.data import build_imdb_catalog, build_tpch_catalog
from repro.errors import DatasetError
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.plan import analyze
from repro.sql import parse
from repro.sql.ast import LikePredicate, Comparison
from repro.workload import (
    CollectionConfig,
    DataCollector,
    QueryGenerator,
    WorkloadConfig,
    split_by_query,
)


@pytest.fixture(scope="module")
def catalog():
    return build_imdb_catalog(scale=0.05, seed=3)


@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


class TestQueryGenerator:
    def test_generates_parseable_analyzable_sql(self, catalog):
        gen = QueryGenerator(catalog, WorkloadConfig(max_joins=3), seed=1)
        for sql in gen.generate(20):
            query = analyze(parse(sql), catalog)  # must not raise
            assert query.statement.has_aggregates

    def test_join_count_within_bounds(self, catalog):
        gen = QueryGenerator(catalog, WorkloadConfig(min_joins=1, max_joins=4), seed=2)
        for sql in gen.generate(20):
            stmt = parse(sql)
            assert 2 <= len(stmt.tables) <= 5

    def test_zero_join_queries_possible(self, catalog):
        gen = QueryGenerator(catalog, WorkloadConfig(min_joins=0, max_joins=0), seed=3)
        for sql in gen.generate(5):
            assert len(parse(sql).tables) == 1

    def test_numeric_workload_has_no_string_predicates(self, catalog):
        gen = QueryGenerator(catalog, WorkloadConfig(workload="numeric"), seed=4)
        for sql in gen.generate(25):
            stmt = parse(sql)
            for pred in stmt.filters:
                assert not isinstance(pred, LikePredicate)
                if isinstance(pred, Comparison):
                    assert not pred.value.is_string

    def test_string_workload_produces_string_predicates(self, catalog):
        gen = QueryGenerator(catalog, WorkloadConfig(workload="string"), seed=5)
        found = False
        for sql in gen.generate(40):
            stmt = parse(sql)
            for pred in stmt.filters:
                if isinstance(pred, LikePredicate):
                    found = True
                if isinstance(pred, Comparison) and pred.value.is_string:
                    found = True
        assert found

    def test_deterministic_given_seed(self, catalog):
        a = QueryGenerator(catalog, seed=7).generate(10)
        b = QueryGenerator(catalog, seed=7).generate(10)
        assert a == b

    def test_different_seeds_differ(self, catalog):
        a = QueryGenerator(catalog, seed=1).generate(10)
        b = QueryGenerator(catalog, seed=2).generate(10)
        assert a != b

    def test_invalid_workload_class(self):
        with pytest.raises(DatasetError):
            WorkloadConfig(workload="emoji")

    def test_invalid_join_range(self):
        with pytest.raises(DatasetError):
            WorkloadConfig(min_joins=3, max_joins=1)

    def test_tpch_generation(self):
        catalog = build_tpch_catalog(scale=0.05, seed=3)
        gen = QueryGenerator(catalog, WorkloadConfig(max_joins=3), seed=1)
        for sql in gen.generate(10):
            analyze(parse(sql), catalog)

    def test_estimated_rows_cap_respected_mostly(self, catalog):
        from repro.plan import enumerate_plans, EnumeratorConfig
        cfg = WorkloadConfig(max_joins=4, max_estimated_rows=1e5)
        gen = QueryGenerator(catalog, cfg, seed=9)
        capped = 0
        sqls = gen.generate(15)
        for sql in sqls:
            query = analyze(parse(sql), catalog)
            plan = enumerate_plans(query, catalog, EnumeratorConfig(max_plans=1))[0]
            if all(n.est_rows <= 1e5 for n in plan.nodes()):
                capped += 1
        assert capped >= len(sqls) * 0.8


class TestDataCollector:
    def test_records_have_positive_costs(self, pipeline):
        for record in pipeline.records[:20]:
            assert record.cost_seconds > 0

    def test_plans_per_query_limit(self, catalog):
        collector = DataCollector(
            catalog, SparkSimulator(seed=0),
            config=CollectionConfig(plans_per_query=2))
        plans = collector.plans_for(
            "select count(*) from title t, movie_keyword mk "
            "where t.id = mk.movie_id and mk.keyword_id < 20")
        assert len(plans) == 2
        for plan in plans:
            assert all(n.obs_rows is not None for n in plan.nodes())

    def test_fixed_resources_mode(self, catalog):
        collector = DataCollector(
            catalog, SparkSimulator(seed=0),
            config=CollectionConfig(plans_per_query=1, fixed_resources=PAPER_CLUSTER))
        records = collector.collect([
            "select count(*) from movie_keyword mk where mk.keyword_id < 20"])
        assert len(records) == 1
        assert records[0].resources == PAPER_CLUSTER

    def test_bad_queries_skipped_not_fatal(self, catalog):
        collector = DataCollector(catalog, SparkSimulator(seed=0))
        records = collector.collect([
            "select count(*) from ghost_table",
            "select count(*) from movie_keyword mk where mk.keyword_id < 20",
        ])
        assert len(collector.skipped) == 1
        assert records  # the good query still produced records

    def test_varied_resource_states(self, pipeline):
        states = {r.resources for r in pipeline.records}
        assert len(states) > 3

    def test_to_samples_roundtrip(self, pipeline):
        encoder = pipeline.encoder_for(variant("RAAL"))
        samples = DataCollector.to_samples(pipeline.records[:5], encoder)
        assert len(samples) == 5
        for sample, record in zip(samples, pipeline.records[:5]):
            assert sample.cost_seconds == record.cost_seconds

    def test_to_samples_fingerprints_each_plan_once(self, pipeline, monkeypatch):
        from repro.encoding import plan_encoder
        encoder = pipeline.encoder_for(variant("RAAL"))
        records = pipeline.records
        calls = []
        fingerprint = plan_encoder.plan_fingerprint
        monkeypatch.setattr(plan_encoder, "plan_fingerprint",
                            lambda plan: calls.append(plan) or fingerprint(plan))
        samples = DataCollector.to_samples(records, encoder)
        plans = {id(r.plan) for r in records}
        assert len(plans) < len(records)
        assert len(calls) == len(plans)
        monkeypatch.undo()
        for sample, record in zip(samples, records):
            alone = encoder.encode(record.plan, record.resources)
            for field in ("node_features", "child_mask", "resources", "extras"):
                expected = getattr(alone, field)
                actual = getattr(sample.encoded, field)
                assert actual.dtype == expected.dtype
                assert actual.tobytes() == expected.tobytes()


class TestSplit:
    def test_split_fractions(self, pipeline):
        split = split_by_query(pipeline.records, train_fraction=0.8, seed=1)
        train_q = {r.sql for r in split.train}
        test_q = {r.sql for r in split.test}
        total = len(train_q) + len(test_q)
        assert 0.6 <= len(train_q) / total <= 0.95

    def test_no_query_leakage(self, pipeline):
        split = split_by_query(pipeline.records, seed=2)
        train_q = {r.sql for r in split.train}
        test_q = {r.sql for r in split.test}
        assert not train_q & test_q

    def test_all_records_kept(self, pipeline):
        split = split_by_query(pipeline.records, seed=3)
        assert len(split.train) + len(split.test) == len(pipeline.records)

    def test_empty_records_rejected(self):
        with pytest.raises(DatasetError):
            split_by_query([])

    def test_invalid_fraction_rejected(self, pipeline):
        with pytest.raises(DatasetError):
            split_by_query(pipeline.records, train_fraction=1.5)

    def test_deterministic(self, pipeline):
        a = split_by_query(pipeline.records, seed=4)
        b = split_by_query(pipeline.records, seed=4)
        assert [r.sql for r in a.test] == [r.sql for r in b.test]


class TestGroupByGeneration:
    def test_group_by_fraction_zero_means_none(self, catalog):
        gen = QueryGenerator(catalog, WorkloadConfig(group_by_fraction=0.0), seed=5)
        assert not any("group by" in sql for sql in gen.generate(15))

    def test_group_by_queries_generated_and_valid(self, catalog):
        gen = QueryGenerator(catalog, WorkloadConfig(group_by_fraction=0.9), seed=5)
        sqls = [s for s in gen.generate(20) if "group by" in s]
        assert sqls, "no GROUP BY queries generated at fraction 0.9"
        for sql in sqls:
            query = analyze(parse(sql), catalog)
            assert query.statement.group_by

    def test_group_by_column_has_low_cardinality(self, catalog):
        gen = QueryGenerator(catalog, WorkloadConfig(group_by_fraction=1.0), seed=6)
        for sql in gen.generate(15):
            stmt = parse(sql)
            if not stmt.group_by:
                continue
            query = analyze(stmt, catalog)
            col = query.statement.group_by[0]
            table = query.table_of(col.table)
            ndv = catalog.statistics(table).column(col.column).ndv
            assert ndv <= 64

    def test_group_by_queries_collect_and_execute(self, catalog):
        from repro.cluster import SparkSimulator
        gen = QueryGenerator(catalog, WorkloadConfig(group_by_fraction=1.0,
                                                     max_joins=2), seed=7)
        collector = DataCollector(catalog, SparkSimulator(seed=0),
                                  config=CollectionConfig(plans_per_query=2,
                                                          resource_states_per_plan=1))
        records = collector.collect(gen.generate(5))
        assert records
