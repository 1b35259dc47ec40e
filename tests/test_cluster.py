"""Tests for the cluster simulator: resources, stages, cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    MAX_CLUSTER,
    PAPER_CLUSTER,
    RESOURCE_FEATURE_NAMES,
    ResourceProfile,
    ResourceSampler,
    SimulatorParams,
    SparkSimulator,
    split_stages,
)
from repro.data import build_imdb_catalog
from repro.engine import execute_plan
from repro.errors import ResourceError, SimulationError
from repro.plan import analyze, default_plan, enumerate_plans, EnumeratorConfig
from repro.sql import parse


@pytest.fixture(scope="module")
def catalog():
    return build_imdb_catalog(scale=0.2, seed=3)


@pytest.fixture(scope="module")
def executed_plans(catalog):
    sql = """select count(*) from title t, movie_companies mc
             where t.id = mc.movie_id and mc.company_type_id > 1"""
    q = analyze(parse(sql), catalog)
    plans = enumerate_plans(q, catalog)
    for p in plans:
        execute_plan(p, catalog)
    return plans


@pytest.fixture(scope="module")
def smj_plan(executed_plans):
    return next(p for p in executed_plans if "SortMergeJoin" in p.operator_counts())


@pytest.fixture(scope="module")
def bhj_plan(executed_plans):
    return next(p for p in executed_plans
                if "BroadcastHashJoin" in p.operator_counts())


class TestResourceProfile:
    def test_defaults_valid(self):
        assert PAPER_CLUSTER.task_slots == 4

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ResourceError):
            ResourceProfile(executors=0)
        with pytest.raises(ResourceError):
            ResourceProfile(executor_memory_gb=0)
        with pytest.raises(ResourceError):
            ResourceProfile(nodes=0)
        with pytest.raises(ResourceError):
            ResourceProfile(network_throughput_mbps=-1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["executor_memory_gb",
                                       "network_throughput_mbps",
                                       "disk_throughput_mbps"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ResourceError, match=f"{field} must be finite"):
            ResourceProfile(**{field: value})

    def test_task_slots_capped_by_physical_cores(self):
        res = ResourceProfile(nodes=1, cores_per_node=2, executors=8, executor_cores=4)
        assert res.task_slots == 2
        assert res.oversubscribed

    def test_memory_per_task_divides_by_cores(self):
        a = ResourceProfile(executor_cores=1, executor_memory_gb=4.0)
        b = ResourceProfile(executor_cores=4, executor_memory_gb=4.0)
        assert a.execution_memory_per_task == pytest.approx(
            4 * b.execution_memory_per_task)

    def test_features_normalized(self):
        feats = PAPER_CLUSTER.as_features()
        assert feats.shape == (len(RESOURCE_FEATURE_NAMES),)
        assert (feats >= 0).all() and (feats <= 1).all()

    def test_features_scale_with_memory(self):
        lo = PAPER_CLUSTER.with_memory(2.0).as_features()
        hi = PAPER_CLUSTER.with_memory(8.0).as_features()
        mem_idx = RESOURCE_FEATURE_NAMES.index("e_memory_gb")
        assert hi[mem_idx] == pytest.approx(4 * lo[mem_idx])

    def test_with_memory_copies(self):
        res = PAPER_CLUSTER.with_memory(2.0)
        assert res.executor_memory_gb == 2.0
        assert PAPER_CLUSTER.executor_memory_gb == 4.0

    def test_str_is_informative(self):
        assert "mem=4GB" in str(PAPER_CLUSTER)


class TestResourceSampler:
    def test_samples_within_choices(self):
        sampler = ResourceSampler()
        rng = np.random.default_rng(0)
        for profile in sampler.sample_many(50, rng):
            assert profile.executors in sampler.executor_choices
            assert profile.executor_cores in sampler.core_choices
            assert profile.executor_memory_gb in sampler.memory_choices_gb

    def test_sampling_is_varied(self):
        sampler = ResourceSampler()
        rng = np.random.default_rng(0)
        memories = {p.executor_memory_gb for p in sampler.sample_many(60, rng)}
        assert len(memories) >= 4

    def test_deterministic_given_rng(self):
        sampler = ResourceSampler()
        a = sampler.sample_many(5, np.random.default_rng(7))
        b = sampler.sample_many(5, np.random.default_rng(7))
        assert a == b


class TestStages:
    def test_single_table_plan_has_two_stages(self, catalog):
        q = analyze(parse("select count(*) from title t where t.id < 100"), catalog)
        plan = default_plan(q, catalog)
        execute_plan(plan, catalog)
        stages = split_stages(plan)
        # Map stage (scan + partial agg + exchange) and result stage.
        assert len(stages) == 2
        assert stages[-1].is_result_stage

    def test_smj_plan_has_shuffle_stages(self, smj_plan):
        stages = split_stages(smj_plan)
        boundaries = [s.boundary.op_name for s in stages if s.boundary is not None]
        assert boundaries.count("ExchangeHashPartition") == 2

    def test_bhj_plan_has_broadcast_stage(self, bhj_plan):
        stages = split_stages(bhj_plan)
        assert any(s.is_broadcast for s in stages)

    def test_children_listed_before_parents(self, smj_plan):
        stages = split_stages(smj_plan)
        positions = {id(s): i for i, s in enumerate(stages)}
        for stage in stages:
            for child in stage.children:
                assert positions[id(child)] < positions[id(stage)]

    def test_every_node_in_exactly_one_stage(self, smj_plan):
        stages = split_stages(smj_plan)
        staged = [id(n) for s in stages for n in s.nodes]
        assert sorted(staged) == sorted(id(n) for n in smj_plan.nodes())

    def test_stage_io_rows(self, smj_plan):
        stages = split_stages(smj_plan)
        for stage in stages:
            assert stage.input_rows() >= 0
            assert stage.output_rows() >= 0


class TestSimulator:
    def test_runtime_positive_and_finite(self, executed_plans):
        sim = SparkSimulator(seed=0)
        for plan in executed_plans:
            result = sim.execute(plan, PAPER_CLUSTER)
            assert np.isfinite(result.runtime_seconds)
            assert result.runtime_seconds > 0

    def test_deterministic_same_seed(self, smj_plan):
        a = SparkSimulator(seed=5).execute(smj_plan, PAPER_CLUSTER).runtime_seconds
        b = SparkSimulator(seed=5).execute(smj_plan, PAPER_CLUSTER).runtime_seconds
        assert a == b

    def test_noise_varies_between_runs(self, smj_plan):
        sim = SparkSimulator(seed=5)
        a = sim.execute(smj_plan, PAPER_CLUSTER, run_id=0).runtime_seconds
        b = sim.execute(smj_plan, PAPER_CLUSTER, run_id=1).runtime_seconds
        assert a != b

    def test_execute_mean_averages(self, smj_plan):
        sim = SparkSimulator(seed=5)
        mean = sim.execute_mean(smj_plan, PAPER_CLUSTER, runs=3)
        singles = [sim.execute(smj_plan, PAPER_CLUSTER, run_id=i).runtime_seconds
                   for i in range(3)]
        assert mean == pytest.approx(np.mean(singles))

    @pytest.mark.parametrize("allocation", ["static", "dynamic"])
    @pytest.mark.parametrize("runs", [1, 2, 3, 4, 5])
    def test_execute_mean_is_the_running_sum_mean_bit_for_bit(
            self, executed_plans, allocation, runs, monkeypatch):
        sim = SparkSimulator(params=SimulatorParams(allocation=allocation), seed=11)
        calls = []
        execute = SparkSimulator.execute

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("run_id", 0))
            return execute(self, *args, **kwargs)

        for plan in executed_plans[:4]:
            for resources in (PAPER_CLUSTER, PAPER_CLUSTER.with_memory(0.5),
                              ResourceProfile(executors=3, executor_cores=2)):
                total = 0.0
                for run_id in range(runs):
                    total += sim.execute(plan, resources,
                                         run_id=run_id).runtime_seconds
                monkeypatch.setattr(SparkSimulator, "execute", counting)
                calls.clear()
                mean = sim.execute_mean(plan, resources, runs=runs)
                monkeypatch.setattr(SparkSimulator, "execute", execute)
                assert mean == total / runs
                # Run 0 still goes through execute (the traced layer).
                assert calls == [0]

    def test_execute_mean_rejects_zero_runs(self, smj_plan):
        with pytest.raises(SimulationError):
            SparkSimulator().execute_mean(smj_plan, PAPER_CLUSTER, runs=0)

    def test_unannotated_plan_rejected(self, catalog):
        q = analyze(parse("select count(*) from title t where t.id < 0"), catalog)
        from repro.plan.enumerator import _build_plan
        plan = _build_plan(q, catalog, ["t"], [], True, "raw")
        with pytest.raises(SimulationError):
            SparkSimulator().execute(plan, PAPER_CLUSTER)

    def test_more_executors_speed_up_large_scan(self, catalog):
        sql = "select count(*) from cast_info ci where ci.role_id < 8"
        q = analyze(parse(sql), catalog)
        plan = default_plan(q, catalog)
        execute_plan(plan, catalog)
        params = SimulatorParams(noise_sigma=0.0)
        sim = SparkSimulator(params=params)
        slow = sim.execute(plan, ResourceProfile(executors=1, executor_cores=1)).runtime_seconds
        fast = sim.execute(plan, ResourceProfile(executors=4, executor_cores=4)).runtime_seconds
        assert fast < slow

    def test_low_memory_triggers_broadcast_fallback(self, bhj_plan):
        params = SimulatorParams(noise_sigma=0.0)
        sim = SparkSimulator(params=params)
        tight = sim.execute(bhj_plan, PAPER_CLUSTER.with_memory(0.05))
        roomy = sim.execute(bhj_plan, PAPER_CLUSTER.with_memory(8.0))
        assert tight.any_broadcast_fallback
        assert not roomy.any_broadcast_fallback
        assert tight.runtime_seconds > roomy.runtime_seconds

    def test_low_memory_triggers_spill_on_smj(self, smj_plan):
        params = SimulatorParams(noise_sigma=0.0)
        sim = SparkSimulator(params=params)
        tight = sim.execute(smj_plan, PAPER_CLUSTER.with_memory(0.05))
        roomy = sim.execute(smj_plan, PAPER_CLUSTER.with_memory(8.0))
        assert tight.total_spilled_bytes > roomy.total_spilled_bytes

    def test_memory_effect_non_monotone_somewhere(self, executed_plans):
        # Paper Sec. III: adding memory does not always reduce cost.
        params = SimulatorParams(noise_sigma=0.0)
        sim = SparkSimulator(params=params)
        found_increase = False
        found_decrease = False
        for plan in executed_plans:
            times = [sim.execute(plan, PAPER_CLUSTER.with_memory(m)).runtime_seconds
                     for m in (1, 2, 3, 4, 5, 6)]
            diffs = np.diff(times)
            found_increase |= bool((diffs > 0).any())
            found_decrease |= bool((diffs < 0).any())
        assert found_increase and found_decrease

    def test_slower_disk_slows_scans(self, catalog):
        sql = "select count(*) from cast_info ci where ci.role_id < 8"
        q = analyze(parse(sql), catalog)
        plan = default_plan(q, catalog)
        execute_plan(plan, catalog)
        sim = SparkSimulator(params=SimulatorParams(noise_sigma=0.0))
        fast = sim.execute(plan, ResourceProfile(disk_throughput_mbps=500)).runtime_seconds
        slow = sim.execute(plan, ResourceProfile(disk_throughput_mbps=30)).runtime_seconds
        assert slow > fast

    def test_slower_network_slows_shuffles(self, smj_plan):
        sim = SparkSimulator(params=SimulatorParams(noise_sigma=0.0))
        fast = sim.execute(smj_plan, ResourceProfile(network_throughput_mbps=1000)).runtime_seconds
        slow = sim.execute(smj_plan, ResourceProfile(network_throughput_mbps=20)).runtime_seconds
        assert slow > fast

    def test_stage_times_sum_close_to_total(self, smj_plan):
        sim = SparkSimulator(params=SimulatorParams(noise_sigma=0.0))
        result = sim.execute(smj_plan, PAPER_CLUSTER)
        stage_sum = sum(s.total_seconds for s in result.stage_times)
        assert result.runtime_seconds > stage_sum  # job overhead added

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([1.0, 2.0, 4.0, 8.0]),
           st.sampled_from([1, 2, 4]),
           st.sampled_from([1, 2, 3, 4]))
    def test_property_runtime_finite_across_profiles(self, mem, cores, execs):
        plan = TestSimulator._shared_plan
        res = ResourceProfile(executors=execs, executor_cores=cores,
                              executor_memory_gb=mem)
        runtime = SparkSimulator(seed=0).execute(plan, res).runtime_seconds
        assert np.isfinite(runtime) and runtime > 0

    @pytest.fixture(autouse=True)
    def _stash_plan(self, executed_plans):
        TestSimulator._shared_plan = executed_plans[0]


class TestPlanFlip:
    QUERIES = [
        """select count(*) from title t, movie_companies mc
           where t.id = mc.movie_id and mc.company_id < 600
           and mc.company_type_id > 1""",
        """select count(*) from title t, movie_info_idx mi
           where t.id = mi.movie_id and mi.info_type_id < 20""",
        """select count(*) from title t, movie_keyword mk
           where t.id = mk.movie_id and mk.keyword_id < 120""",
        """select count(*) from title t, cast_info ci
           where t.id = ci.movie_id and ci.role_id < 5""",
    ]

    def _best_per_memory(self, catalog, sql):
        q = analyze(parse(sql), catalog)
        plans = enumerate_plans(q, catalog, EnumeratorConfig(max_plans=6))
        for p in plans:
            execute_plan(p, catalog)
        sim = SparkSimulator(params=SimulatorParams(noise_sigma=0.0))
        best = []
        times_by_mem = []
        for mem in (0.5, 1, 2, 3, 4, 5, 6, 8):
            times = [sim.execute(p, PAPER_CLUSTER.with_memory(mem)).runtime_seconds
                     for p in plans]
            times_by_mem.append(times)
            best.append(int(np.argmin(times)))
        return best, times_by_mem

    def test_optimal_plan_flips_with_memory_for_some_query(self, catalog):
        """Paper Sec. III / Fig. 2(c): for some queries the cheapest
        physical plan changes as executor memory varies."""
        flips = [len(set(self._best_per_memory(catalog, sql)[0])) >= 2
                 for sql in self.QUERIES]
        assert any(flips), "no query's optimal plan flipped with memory"

    def test_plan_rankings_cross_with_memory(self, catalog):
        """Weaker invariant that must hold broadly: the relative order
        of at least one plan pair inverts across memory settings."""
        _, times_by_mem = self._best_per_memory(catalog, self.QUERIES[0])
        n = len(times_by_mem[0])
        crossed = False
        for i in range(n):
            for j in range(i + 1, n):
                signs = {np.sign(t[i] - t[j]) for t in times_by_mem}
                if 1.0 in signs and -1.0 in signs:
                    crossed = True
        assert crossed
