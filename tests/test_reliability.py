"""Tests for the reliability layer: circuit breaker and the guarded
prediction fallback chain under deterministic fault injection.

No test here sleeps: clocks are injected fakes, and every fault is
seeded.
"""

import numpy as np
import pytest

from repro.core import CostPredictor
from repro.core.selector import PlanSelector
from repro.core.advisor import ResourceAdvisor
from repro.errors import PredictionError
from repro.baselines.gpsj import GPSJCostModel
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.reliability import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    GuardedCostPredictor,
    static_heuristic_cost,
)


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=threshold,
                          cooldown_seconds=cooldown), clock=clock)
        return breaker, clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_after_k_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_after_cooldown_then_close_on_success(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.0)
        assert not breaker.allow()  # cooldown restarted at re-open
        clock.advance(2.0)
        assert breaker.allow()


# -- guarded prediction ----------------------------------------------------
@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def trained(pipeline):
    return pipeline.train_variant("RAAL", epochs=3)


@pytest.fixture()
def fresh_predictor(pipeline, trained, tmp_path):
    """A private predictor instance per test, safe to corrupt.

    Round-trips the trained module-scoped predictor through
    persistence so weight corruption in one test never leaks into
    another.
    """
    from repro.core import load_predictor, save_predictor

    source = CostPredictor(trained.encoder, trained.trainer)
    save_predictor(source, tmp_path / "model")
    return load_predictor(tmp_path / "model")


@pytest.fixture()
def guarded(fresh_predictor, pipeline):
    clock = FakeClock()
    guard = GuardedCostPredictor(
        fresh_predictor,
        gpsj=GPSJCostModel(pipeline.catalog),
        breaker_config=BreakerConfig(failure_threshold=2, cooldown_seconds=30.0),
        clock=clock,
    )
    guard._test_clock = clock
    return guard


class TestGuardedPredictor:
    def test_healthy_path_serves_raal_with_provenance(self, guarded, pipeline):
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "raal"
        assert result.reason is None
        assert not result.degraded
        assert np.isfinite(result.seconds) and result.seconds >= 0

    def test_matches_unguarded_predictor(self, guarded, fresh_predictor, pipeline):
        pairs = [(r.plan, r.resources) for r in pipeline.records[:5]]
        np.testing.assert_allclose(
            guarded.predict_many(pairs), fresh_predictor.predict_many(pairs))

    def test_corrupt_weights_fall_back_to_gpsj(self, guarded, pipeline):
        FaultInjector(seed=7).corrupt_weights(guarded.trainer.model)
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "raal" in result.reason
        assert np.isfinite(result.seconds) and result.seconds >= 0

    def test_poisoned_vocabulary_falls_back(self, guarded, pipeline):
        FaultInjector(seed=3).poison_vocabulary(guarded.encoder, fraction=1.0)
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "non-finite" in result.reason

    def test_encode_fault_falls_back(self, guarded, pipeline):
        FaultInjector().force_encode_errors(guarded.encoder)
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "injected encode fault" in result.reason

    def test_double_fault_reaches_heuristic(self, guarded, pipeline):
        injector = FaultInjector()
        injector.force_encode_errors(guarded.encoder)
        guarded.gpsj = None  # GPSJ also unavailable
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "heuristic"
        assert result.seconds > 0

    def test_all_stages_failing_raises_prediction_error(
            self, fresh_predictor, pipeline):
        guard = GuardedCostPredictor(fresh_predictor, chain=("raal",))
        FaultInjector().force_encode_errors(guard.encoder)
        record = pipeline.records[0]
        with pytest.raises(PredictionError, match="all fallback stages failed"):
            guard.predict_many_explained([(record.plan, record.resources)])

    def test_breaker_trips_then_recovers_via_half_open_probe(
            self, guarded, pipeline):
        injector = FaultInjector()
        restore = injector.force_encode_errors(guarded.encoder)
        record = pipeline.records[0]
        pair = [(record.plan, record.resources)]

        # K = 2 consecutive failures trip the RAAL breaker.
        assert guarded.predict_many_explained(pair).source == "gpsj"
        assert guarded.predict_many_explained(pair).source == "gpsj"
        assert guarded.breakers["raal"].state == OPEN

        # While open, the stage is skipped without being invoked.
        result = guarded.predict_many_explained(pair)
        assert result.source == "gpsj"
        assert "circuit open" in result.reason
        assert guarded.stats["raal"].skipped_open == 1

        # Heal the encoder, advance past the cooldown: the half-open
        # probe succeeds and the breaker closes again.
        restore()
        guarded._test_clock.advance(31.0)
        result = guarded.predict_many_explained(pair)
        assert result.source == "raal"
        assert guarded.breakers["raal"].state == CLOSED

    def test_oversized_plan_rejected_without_tripping_breaker(
            self, fresh_predictor, pipeline):
        # Shrink the encoder's capacity below the plan's node count.
        fresh_predictor.encoder.structure.max_nodes = 1
        guard = GuardedCostPredictor(
            fresh_predictor, gpsj=GPSJCostModel(pipeline.catalog))
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "max_nodes" in result.reason
        assert guard.breakers["raal"].state == CLOSED
        assert guard.stats["raal"].rejected_input == 1

    def test_saturated_output_degrades(self, fresh_predictor, pipeline):
        from dataclasses import replace

        from repro.core.trainer import Trainer

        # A microscopic clamp forces every prediction to saturate.
        tiny = replace(fresh_predictor.trainer.config, log_clamp_max=1e-9)
        fresh_predictor.trainer = Trainer(fresh_predictor.trainer.model, tiny)
        guard = GuardedCostPredictor(
            fresh_predictor, gpsj=GPSJCostModel(pipeline.catalog))
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "saturated" in result.reason

    @staticmethod
    def _interleave(predictor, other_log_preds):
        """Score another caller's batch on the shared trainer mid-request.

        Wraps ``predict_encoded`` so that, after this request's own
        forward, a concurrent caller's log-predictions go through the
        same trainer's clamp before this request's costs are returned.
        """
        original = predictor.predict_encoded
        trainer = predictor.trainer

        def interleaved(encoded, **kwargs):
            costs = original(encoded, **kwargs)
            trainer._seconds_from_log(np.asarray(other_log_preds, float))
            return costs

        predictor.predict_encoded = interleaved

    def test_other_requests_saturation_does_not_divert(
            self, guarded, fresh_predictor, pipeline):
        pairs = [(r.plan, r.resources) for r in pipeline.records[:3]]
        expected = fresh_predictor.predict_many(pairs)
        self._interleave(fresh_predictor, [1e9])  # saturates the clamp
        result = guarded.predict_many_explained(pairs)
        assert result.source == "raal", result.reason
        np.testing.assert_array_equal(result.costs, expected)

    def test_own_saturation_not_hidden_by_later_request(
            self, fresh_predictor, pipeline):
        from dataclasses import replace

        from repro.core.trainer import Trainer

        tiny = replace(fresh_predictor.trainer.config, log_clamp_max=1e-9)
        fresh_predictor.trainer = Trainer(fresh_predictor.trainer.model, tiny)
        self._interleave(fresh_predictor, [0.0])  # an unsaturated batch
        guard = GuardedCostPredictor(
            fresh_predictor, gpsj=GPSJCostModel(pipeline.catalog))
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "saturated" in result.reason

    def test_empty_pairs(self, guarded):
        explained = guarded.predict_many_explained([])
        assert explained.costs.shape == (0,)

    def test_grid_shape_and_provenance(self, guarded, pipeline):
        plans = [pipeline.records[0].plan, pipeline.records[1].plan]
        profiles = [pipeline.records[0].resources, pipeline.records[1].resources,
                    pipeline.records[2].resources]
        explained = guarded.predict_grid_explained(plans, profiles)
        assert explained.costs.shape == (3, 2)
        assert explained.source == "raal"


class TestFaultInjectorDeterminism:
    def test_same_seed_same_corruption(self, pipeline, trained, tmp_path):
        from repro.core import load_predictor, save_predictor

        source = CostPredictor(trained.encoder, trained.trainer)
        save_predictor(source, tmp_path / "a")
        a = load_predictor(tmp_path / "a")
        b = load_predictor(tmp_path / "a")
        FaultInjector(seed=11).corrupt_weights(a.trainer.model, fraction=0.1)
        FaultInjector(seed=11).corrupt_weights(b.trainer.model, fraction=0.1)
        for (name_a, pa), (_, pb) in zip(a.trainer.model.named_parameters(),
                                         b.trainer.model.named_parameters()):
            np.testing.assert_array_equal(np.isnan(pa.data), np.isnan(pb.data),
                                          err_msg=name_a)


class TestHeuristic:
    def test_positive_and_finite(self, pipeline):
        for record in pipeline.records[:5]:
            cost = static_heuristic_cost(record.plan, record.resources)
            assert np.isfinite(cost) and cost > 0

    def test_bigger_plans_cost_more(self, pipeline):
        plans = sorted((r.plan for r in pipeline.records[:10]),
                       key=lambda p: p.num_nodes)
        resources = pipeline.records[0].resources
        small = static_heuristic_cost(plans[0], resources)
        large = static_heuristic_cost(plans[-1], resources)
        if plans[-1].num_nodes > plans[0].num_nodes:
            assert large >= small


class TestIntegrationWithSelectorAndAdvisor:
    def test_selector_surfaces_provenance_on_degradation(
            self, guarded, pipeline):
        FaultInjector().force_encode_errors(guarded.encoder)
        record = pipeline.records[0]
        selector = PlanSelector(guarded, pipeline.catalog)
        result = selector.select(
            query=None, resources=record.resources, candidates=[record.plan])
        assert result.cost_source == "gpsj"
        assert result.degraded
        assert result.degradation_reason is not None

    def test_selector_healthy_provenance(self, guarded, pipeline):
        record = pipeline.records[0]
        selector = PlanSelector(guarded, pipeline.catalog)
        result = selector.select(
            query=None, resources=record.resources, candidates=[record.plan])
        assert result.cost_source == "raal"
        assert not result.degraded

    def test_advisor_carries_cost_source(self, guarded, pipeline):
        FaultInjector(seed=1).corrupt_weights(guarded.trainer.model)
        advisor = ResourceAdvisor(guarded)
        plans = [pipeline.records[0].plan]
        rec = advisor.cheapest_meeting_sla(plans, sla_seconds=1e12)
        assert rec is not None
        assert rec.cost_source == "gpsj"
