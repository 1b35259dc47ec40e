"""The data-collection phase (paper Fig. 3, left).

For each query: enumerate its candidate physical plans ("we select the
first three Catalyst-generated physical execution plans"), execute them
on the catalog to observe true per-operator volumes (as one family, so a
subplan they share is sized once), then simulate each plan under several
sampled resource states to obtain (plan, resources) → cost records,
averaging repeated runs as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.resources import PAPER_CLUSTER, ResourceProfile, ResourceSampler
from repro.cluster.simulator import SparkSimulator
from repro.data.catalog import Catalog
from repro.encoding.plan_encoder import PlanEncoder
from repro.engine.executor import execute_plan
from repro.errors import ReproError
from repro.core.trainer import TrainingSample
from repro.plan.builder import analyze
from repro.plan.enumerator import EnumeratorConfig, enumerate_plans
from repro.plan.physical import PhysicalPlan
from repro.sql.parser import parse

__all__ = ["CollectionConfig", "PlanRecord", "DataCollector"]


@dataclass(frozen=True)
class CollectionConfig:
    """Knobs for the data-collection phase."""

    plans_per_query: int = 3
    resource_states_per_plan: int = 3
    runs_per_state: int = 3
    fixed_resources: ResourceProfile | None = None
    # Queries whose executed plans materialize more rows than this at any
    # operator are dropped (with a note in ``skipped``). Benchmark
    # workloads (JOB, TPC-H) are curated to bounded runtimes; without the
    # cap a handful of runaway fan-out joins dominate every metric.
    max_observed_rows: float = 1.5e6
    # Additionally, queries whose default plan simulates above this bound
    # on the reference cluster are dropped: benchmark queries run in
    # seconds to minutes, not hours.
    max_baseline_cost_seconds: float = 600.0
    enumerator: EnumeratorConfig = field(default_factory=EnumeratorConfig)


@dataclass
class PlanRecord:
    """One training record: a plan, a resource state, and its cost."""

    sql: str
    plan: PhysicalPlan
    resources: ResourceProfile
    cost_seconds: float


class DataCollector:
    """Runs the collection pipeline for a workload of SQL strings."""

    def __init__(self, catalog: Catalog, simulator: SparkSimulator,
                 sampler: ResourceSampler | None = None,
                 config: CollectionConfig | None = None,
                 seed: int = 0) -> None:
        self.catalog = catalog
        self.simulator = simulator
        self.sampler = sampler or ResourceSampler()
        self.config = config or CollectionConfig()
        self._rng = np.random.default_rng(seed)
        self.skipped: list[tuple[str, str]] = []

    # -- plan materialization ------------------------------------------------
    def plans_for(self, sql: str) -> list[PhysicalPlan]:
        """The first ``plans_per_query`` candidate plans of a query, annotated.

        The plans are one logical query in several physical forms, so
        they run as a family: one size memo is shared across them, and
        a subplan whose logical content an earlier plan already sized
        is annotated from the memo instead of being executed again.
        Every node ends up with the ``obs_rows``/``obs_bytes`` that
        executing its plan alone would give it.
        """
        query = analyze(parse(sql), self.catalog)
        plans = enumerate_plans(query, self.catalog, self.config.enumerator)
        plans = plans[: self.config.plans_per_query]
        memo: dict = {}
        for plan in plans:
            execute_plan(plan, self.catalog, memo)
        return plans

    def collect(self, sqls: list[str]) -> list[PlanRecord]:
        """Produce cost records for every (plan, resource state) pair.

        Queries that fail (parse errors from generator edge cases, join
        blow-ups) are recorded in :attr:`skipped` and do not abort the
        collection, mirroring how real collection pipelines tolerate
        stragglers.
        """
        records: list[PlanRecord] = []
        for sql in sqls:
            try:
                plans = self.plans_for(sql)
            except ReproError as exc:
                self.skipped.append((sql, str(exc)))
                continue
            worst = max(node.obs_rows or 0.0
                        for plan in plans for node in plan.nodes())
            if worst > self.config.max_observed_rows:
                self.skipped.append(
                    (sql, f"observed {worst:.0f} rows exceeds the workload cap"))
                continue
            baseline = self.simulator.execute_mean(plans[0], PAPER_CLUSTER, runs=1)
            if baseline > self.config.max_baseline_cost_seconds:
                self.skipped.append(
                    (sql, f"baseline cost {baseline:.0f}s exceeds the workload cap"))
                continue
            for plan in plans:
                states = self._resource_states()
                for resources in states:
                    cost = self.simulator.execute_mean(
                        plan, resources, runs=self.config.runs_per_state)
                    records.append(PlanRecord(
                        sql=sql, plan=plan, resources=resources,
                        cost_seconds=cost))
        return records

    def _resource_states(self) -> list[ResourceProfile]:
        if self.config.fixed_resources is not None:
            return [self.config.fixed_resources]
        return self.sampler.sample_many(
            self.config.resource_states_per_plan, self._rng)

    # -- conversion --------------------------------------------------------------
    @staticmethod
    def to_samples(records: list[PlanRecord], encoder: PlanEncoder) -> list[TrainingSample]:
        """Encode records into model-ready training samples.

        Records of one plan share its plan-side features: the plan is
        fingerprinted once, however many resource states it ran under.
        """
        encoded = encoder.encode_many([(r.plan, r.resources) for r in records])
        return [TrainingSample(encoded=e, cost_seconds=r.cost_seconds)
                for e, r in zip(encoded, records)]
