"""Per-plan facts are worked out once per plan and stay exact.

``PhysicalPlan`` memoizes its post-order and edges, ``plan_fingerprint``
keeps its digest with the estimates it hashed, and the guard validates
and audits each distinct plan once. Every check here compares against a
reference recomputed from ``plan.root`` inside the test.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.baselines.gpsj import GPSJCostModel
from repro.cluster.resources import ResourceProfile
from repro.core import CostPredictor
from repro.data import build_imdb_catalog
from repro.encoding import plan_fingerprint
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.obs import AuditTrail
from repro.plan import analyze, enumerate_plans
from repro.reliability import GuardedCostPredictor
from repro.sql import parse
from repro.workload.generator import QueryGenerator


def reference_nodes(root) -> list:
    out = []

    def visit(node) -> None:
        for child in node.children:
            visit(child)
        out.append(node)

    visit(root)
    return out


def reference_edges(root) -> list[tuple[int, int]]:
    nodes = reference_nodes(root)
    index = {id(node): i for i, node in enumerate(nodes)}
    return [(index[id(child)], index[id(node)])
            for node in nodes for child in node.children]


def reference_fingerprint(plan) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for node in reference_nodes(plan.root):
        hasher.update(";".join(node.statements()).encode())
        hasher.update(f"|{node.est_rows:.17g}|{node.est_bytes:.17g}\n".encode())
    for child_idx, parent_idx in reference_edges(plan.root):
        hasher.update(f"{child_idx}>{parent_idx},".encode())
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def workload_plans():
    catalog = build_imdb_catalog(scale=0.05, seed=3)
    plans = []
    for sql in QueryGenerator(catalog, seed=11).generate(12):
        plans.extend(enumerate_plans(analyze(parse(sql), catalog), catalog))
    return plans


class TestPlanMemo:
    def test_memo_matches_reference_for_every_enumerated_plan(
            self, workload_plans):
        assert len(workload_plans) > 12  # several plans per query
        for plan in workload_plans:
            for _ in range(2):  # first use fills the memo, second reads it
                nodes = reference_nodes(plan.root)
                assert [id(n) for n in plan.nodes()] == [id(n) for n in nodes]
                assert plan.edges() == reference_edges(plan.root)
                assert plan.num_nodes == len(nodes)
                assert plan_fingerprint(plan) == reference_fingerprint(plan)

    def test_returned_lists_are_fresh(self, workload_plans):
        plan = workload_plans[0]
        nodes, edges = plan.nodes(), plan.edges()
        nodes.clear()
        edges.append((99, 99))
        assert plan.nodes() == reference_nodes(plan.root)
        assert plan.edges() == reference_edges(plan.root)
        assert plan.num_nodes == len(reference_nodes(plan.root))

    @pytest.mark.parametrize("field", ["est_rows", "est_bytes"])
    @pytest.mark.parametrize("value", [1234.5, math.nan, -0.0])
    def test_estimate_change_rehashes(self, workload_plans, field, value):
        plan = workload_plans[1]
        node = plan.nodes()[-1]
        old = getattr(node, field)
        try:
            setattr(node, field, 0.0)  # -0.0 must differ from +0.0
            before = plan_fingerprint(plan)
            setattr(node, field, value)
            after = plan_fingerprint(plan)
            assert after != before
            assert after == reference_fingerprint(plan)
            setattr(node, field, 0.0)
            assert plan_fingerprint(plan) == before
        finally:
            setattr(node, field, old)
        assert plan_fingerprint(plan) == reference_fingerprint(plan)


# -- the guard does per-plan work once per distinct plan ---------------------
@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def predictor(pipeline):
    trained = pipeline.train_variant("RAAL", epochs=3)
    return CostPredictor(trained.encoder, trained.trainer)


def _distinct_plans(pipeline, n: int) -> list:
    plans, seen = [], set()
    for record in pipeline.records:
        if id(record.plan) not in seen:
            seen.add(id(record.plan))
            plans.append(record.plan)
    return plans[:n]


def _repeat_at_0_and_7(bad, fillers, resources) -> list:
    """Pairs with ``bad`` at indices 0 and 7 and distinct fillers between."""
    plans = [bad] + fillers[:6] + [bad]
    return [(plan, resources) for plan in plans]


class TestGuardPerDistinctPlan:
    def test_non_finite_plan_repeated_is_still_rejected(
            self, predictor, pipeline):
        plans = _distinct_plans(pipeline, 8)
        bad, fillers = plans[0], plans[1:]
        guard = GuardedCostPredictor(predictor,
                                     gpsj=GPSJCostModel(pipeline.catalog))
        node = bad.nodes()[0]
        old = node.est_rows
        try:
            node.est_rows = math.nan
            result = guard.predict_many_explained(_repeat_at_0_and_7(
                bad, fillers, pipeline.records[0].resources))
        finally:
            node.est_rows = old
        assert result.source != "raal"
        assert result.reason.split("; ")[0] == (
            "raal: plan 0 carries non-finite cardinality estimates")
        assert guard.stats["raal"].rejected_input == 1

    def test_oversized_plan_repeated_is_still_rejected(
            self, predictor, pipeline):
        plans = sorted(_distinct_plans(pipeline, 40),
                       key=lambda p: p.num_nodes)
        bad, fillers = plans[-1], plans[:6]
        assert fillers[-1].num_nodes < bad.num_nodes
        structure = predictor.encoder.structure
        old = structure.max_nodes
        guard = GuardedCostPredictor(predictor,
                                     gpsj=GPSJCostModel(pipeline.catalog))
        try:
            structure.max_nodes = bad.num_nodes - 1
            result = guard.predict_many_explained(_repeat_at_0_and_7(
                bad, fillers, pipeline.records[0].resources))
        finally:
            structure.max_nodes = old
        assert result.source == "gpsj"
        assert result.reason == (
            f"raal: plan 0 has {bad.num_nodes} nodes, exceeding the "
            f"encoder's max_nodes={bad.num_nodes - 1}")

    def test_audit_records_keep_per_pair_content(self, predictor, pipeline):
        plans = _distinct_plans(pipeline, 3)
        profiles = [ResourceProfile(executors=e, executor_cores=c,
                                    executor_memory_gb=m)
                    for e, c, m in ((2, 2, 4.0), (4, 1, 2.0), (8, 4, 8.0))]
        audit = AuditTrail(per_request_cap=64)
        guard = GuardedCostPredictor(predictor, audit=audit)
        pairs = [(plan, profile) for profile in profiles for plan in plans]
        explained = guard.predict_many_explained(pairs)
        assert explained.source == "raal"
        for i, (plan, profile) in enumerate(pairs):
            record = audit.get(explained.request_id, i)
            assert record.plan_fingerprint == reference_fingerprint(plan)
            assert record.plan_nodes == len(reference_nodes(plan.root))
            assert record.resources == {
                "executors": profile.executors,
                "executor_cores": profile.executor_cores,
                "executor_memory_gb": profile.executor_memory_gb,
            }
            assert record.prediction_seconds == float(explained.costs[i])
        assert np.all(np.isfinite(explained.costs))
