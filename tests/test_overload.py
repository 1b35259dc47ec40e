"""Tests for the overload-resilience layer: deadlines, admission
control, the two-state degradation ladder, and their integration into
the guarded prediction chain.

Time-driven behaviour runs on injected fake clocks wherever possible;
the few tests that exercise real thread abandonment use generous
margins (a 500ms injected hang against a 50ms deadline) so they stay
robust on loaded CI machines.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.baselines.gpsj import GPSJCostModel
from repro.core import CostPredictor
from repro.core.execution import BucketExecutor
from repro.core.predictor import PredictorConfig
from repro.errors import DeadlineExceeded, Overloaded, ReproError, TrainingError
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.reliability import (
    CLOSED,
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    Deadline,
    DegradationLadder,
    FaultInjector,
    GuardedCostPredictor,
    LadderConfig,
)
from repro.reliability.ladder import HISTORY_CAP


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- deadlines -------------------------------------------------------------
class TestDeadline:
    def test_countdown_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline.from_ms(50, clock=clock)
        assert deadline.remaining() == pytest.approx(0.05)
        assert not deadline.expired()
        deadline.check("early")  # within budget: no raise
        clock.advance(0.06)
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(-0.01)

    def test_check_names_the_checkpoint(self):
        clock = FakeClock()
        deadline = Deadline.after(0.01, clock=clock)
        clock.advance(0.02)
        with pytest.raises(DeadlineExceeded, match="between buckets"):
            deadline.check("between buckets")

    def test_negative_budget_rejected(self):
        with pytest.raises(ReproError):
            Deadline.after(-1.0)

    def test_zero_budget_is_immediately_expired(self):
        clock = FakeClock()
        deadline = Deadline.after(0.0, clock=clock)
        assert deadline.expired()


# -- admission control -----------------------------------------------------
class TestAdmission:
    def test_fast_path_admits_under_capacity(self):
        ctl = AdmissionController(AdmissionConfig(max_in_flight=2))
        with ctl.admit():
            assert ctl.in_flight == 1
            with ctl.admit():
                assert ctl.in_flight == 2
        assert ctl.in_flight == 0
        assert ctl.snapshot()["admitted_total"] == 2

    def test_queue_full_sheds_instantly(self):
        ctl = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=0))
        ctl.acquire()
        start = time.monotonic()
        with pytest.raises(Overloaded, match="queue full"):
            ctl.acquire()
        assert time.monotonic() - start < 0.005  # no wait, no lock convoy
        assert ctl.snapshot()["shed_queue_full"] == 1
        ctl.release()

    def test_expired_deadline_sheds_without_queueing(self):
        clock = FakeClock()
        ctl = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=4), clock=clock)
        ctl.acquire()
        stale = Deadline.after(0.01, clock=clock)
        clock.advance(0.02)
        with pytest.raises(Overloaded):
            ctl.acquire(deadline=stale)
        assert ctl.queue_depth == 0
        ctl.release()

    def test_wait_timeout_sheds(self):
        ctl = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=2,
                            max_wait_seconds=0.02))
        ctl.acquire()
        with pytest.raises(Overloaded, match="no slot"):
            ctl.acquire()
        assert ctl.snapshot()["shed_wait_timeout"] == 1
        ctl.release()

    def test_release_without_acquire_rejected(self):
        ctl = AdmissionController()
        with pytest.raises(ReproError):
            ctl.release()

    def test_waiter_admitted_when_slot_frees(self):
        import threading

        ctl = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=2,
                            max_wait_seconds=5.0))
        ctl.acquire()
        admitted = threading.Event()

        def waiter():
            ctl.acquire()
            admitted.set()
            ctl.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        for _ in range(100):
            if ctl.queue_depth == 1:
                break
            time.sleep(0.005)
        ctl.release()
        thread.join(timeout=5.0)
        assert admitted.is_set()
        assert ctl.shed_total == 0


# -- degradation ladder ----------------------------------------------------
def tripped_ladder(clock, hold_seconds: float = 2.0) -> DegradationLadder:
    ladder = DegradationLadder(LadderConfig(hold_seconds=hold_seconds),
                               clock=clock)
    ladder.trip_drift("test drift")
    return ladder


class TestLadder:
    def test_fallback_probes_up_on_dwell_alone(self):
        clock = FakeClock()
        ladder = tripped_ladder(clock)
        assert ladder.state == "fallback"
        clock.advance(1.0)
        assert ladder.in_fallback()  # still inside the hold
        clock.advance(1.5)
        assert not ladder.in_fallback()  # auto-probe after dwell
        assert ladder.state == "healthy"

    def test_transitions_recorded_with_reasons(self):
        clock = FakeClock()
        ladder = tripped_ladder(clock)
        ladder.trip_drift("again")  # already fallen back: no transition
        clock.advance(2.0)
        ladder.in_fallback()
        assert [(t.old, t.new, t.reason) for t in ladder.history] == [
            ("healthy", "fallback", "drift trip: test drift"),
            ("fallback", "healthy", "fallback probe after hold"),
        ]

    def test_history_is_bounded_and_transitions_exact(self):
        clock = FakeClock()
        ladder = tripped_ladder(clock)
        for _ in range(10_000):  # persistent drift: probe, then re-trip
            clock.advance(2.0)
            assert not ladder.in_fallback()
            ladder.trip_drift("still drifting")
        assert ladder.transitions == 1 + 2 * 10_000
        assert len(ladder.history) <= HISTORY_CAP
        assert ladder.history[-1].reason == "drift trip: still drifting"
        assert ladder.history[-2].reason == "fallback probe after hold"

    def test_negative_hold_rejected(self):
        with pytest.raises(ReproError, match="hold_seconds"):
            LadderConfig(hold_seconds=-1.0)

    def test_breaker_open_pins_fallback(self, predictor, pipeline):
        clock = FakeClock()
        ladder = DegradationLadder(clock=clock)
        guard = make_guard(predictor, pipeline, ladder=ladder, clock=clock,
                           breaker_config=BreakerConfig(
                               failure_threshold=1, cooldown_seconds=10.0))
        guard.breakers["raal"].record_failure()
        # Reported from the breaker, not stored in the ladder.
        assert guard.health_state()["ladder"] == "fallback"
        assert ladder.state == "healthy" and not ladder.history
        clock.advance(11.0)
        assert guard.breakers["raal"].allow()  # half-open probe
        assert guard.health_state()["ladder"] == "healthy"


# -- model-backed fixtures -------------------------------------------------
@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def trained(pipeline):
    return pipeline.train_variant("RAAL", epochs=3)


@pytest.fixture(scope="module")
def predictor(trained):
    return CostPredictor(trained.encoder, trained.trainer)


@pytest.fixture(scope="module")
def pairs(pipeline):
    return [(r.plan, r.resources) for r in pipeline.records[:6]]


@pytest.fixture(scope="module")
def encoded(predictor, pairs):
    return predictor.encoder.encode_many(pairs)


# -- executor error propagation and deadlines (satellite regression) -------
class TestExecutorPropagation:
    def test_mid_bucket_fault_reraises_promptly(self, trained, encoded):
        executor = BucketExecutor(trained.trainer.model, batch_size=2,
                                  threads=2)
        restore = FaultInjector().force_forward_errors(trained.trainer.model)
        try:
            with pytest.raises(TrainingError, match="injected forward fault"):
                executor.predict_log(encoded)
        finally:
            restore()
            executor.close()

    def test_executor_recovers_after_fault_and_close_is_idempotent(
            self, trained, encoded):
        executor = BucketExecutor(trained.trainer.model, batch_size=2,
                                  threads=2)
        restore = FaultInjector().force_forward_errors(trained.trainer.model)
        try:
            with pytest.raises(TrainingError):
                executor.predict_log(encoded)
        finally:
            restore()
        preds, _ = executor.predict_log(encoded)  # pool not poisoned
        assert np.all(np.isfinite(preds))
        executor.close()
        executor.close()  # idempotent

    def test_threaded_watchdog_abandons_hung_buckets(self, trained, encoded):
        executor = BucketExecutor(trained.trainer.model, batch_size=2,
                                  threads=2)
        restore = FaultInjector().force_bucket_hang(
            trained.trainer.model, seconds=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="abandoned"):
                executor.predict_log(encoded, deadline=Deadline.after(0.05))
            # The caller gets the answer at the deadline, not after the
            # hang: abandonment, not completion.
            assert time.monotonic() - start < 0.4
        finally:
            restore()
            executor.close()

    def test_serial_path_checks_between_buckets(self, trained, encoded):
        clock = FakeClock()
        executor = BucketExecutor(trained.trainer.model, batch_size=2,
                                  threads=1)
        # The injected "hang" advances the deadline's fake clock, so the
        # cooperative check fires deterministically without sleeping.
        restore = FaultInjector().force_bucket_hang(
            trained.trainer.model, seconds=0.1, sleep=clock.advance)
        try:
            with pytest.raises(DeadlineExceeded):
                executor.predict_log(
                    encoded, deadline=Deadline.after(0.05, clock=clock))
        finally:
            restore()
            executor.close()


# -- guarded chain integration ---------------------------------------------
def make_guard(predictor, pipeline, **kwargs) -> GuardedCostPredictor:
    return GuardedCostPredictor(
        predictor, gpsj=GPSJCostModel(pipeline.catalog), **kwargs)


class TestGuardOverload:
    def test_blown_deadline_degrades_with_provenance(self, predictor, pipeline):
        clock = FakeClock()
        guard = make_guard(predictor, pipeline, clock=clock)
        record = pipeline.records[0]
        stale = Deadline.after(0.01, clock=clock)
        clock.advance(0.02)
        result = guard.predict_explained(record.plan, record.resources,
                                         deadline=stale)
        assert result.source == "gpsj" and result.degraded
        assert "deadline_exceeded" in result.reason
        counts = guard.degradation_counts()
        assert counts["deadline_exceeded"] == 1
        # Load is not model failure: the breaker must stay closed.
        assert guard.breakers["raal"].state == CLOSED

    def test_default_deadline_is_synthesized(self, predictor, pipeline):
        clock = FakeClock()
        guard = make_guard(predictor, pipeline, clock=clock,
                           default_deadline_ms=25.0)
        # Encoding "takes" 50ms on the fake clock: the synthesized
        # deadline expires at the post-encode check.
        original = predictor.encoder.encode_many

        def slow_encode(pairs):
            clock.advance(0.05)
            return original(pairs)

        predictor.encoder.encode_many = slow_encode
        try:
            record = pipeline.records[0]
            result = guard.predict_explained(record.plan, record.resources)
        finally:
            predictor.encoder.__dict__.pop("encode_many", None)
        assert result.source == "gpsj"
        assert "deadline_exceeded" in result.reason

    def test_shed_falls_back_by_default(self, predictor, pipeline):
        admission = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=0))
        guard = make_guard(predictor, pipeline, admission=admission)
        restore = FaultInjector().force_queue_saturation(admission)
        try:
            record = pipeline.records[0]
            result = guard.predict_explained(record.plan, record.resources)
        finally:
            restore()
        assert result.source == "gpsj"
        assert "shed" in result.reason
        assert guard.degradation_counts()["shed"] == 1
        assert guard.breakers["raal"].state == CLOSED

    def test_shed_mode_reject_raises(self, predictor, pipeline):
        admission = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=0))
        guard = make_guard(predictor, pipeline, admission=admission,
                           shed_mode="reject")
        restore = FaultInjector().force_queue_saturation(admission)
        try:
            record = pipeline.records[0]
            with pytest.raises(Overloaded):
                guard.predict(record.plan, record.resources)
        finally:
            restore()

    def test_unknown_shed_mode_rejected(self, predictor, pipeline):
        with pytest.raises(Exception, match="shed_mode"):
            make_guard(predictor, pipeline, shed_mode="explode")

    def test_serves_configured_precision_without_degrading(
            self, predictor, pipeline, pairs):
        f32 = predictor.configured(PredictorConfig(precision="f32"))
        try:
            guard = make_guard(f32, pipeline, ladder=DegradationLadder())
            result = guard.predict_many_explained(pairs)
            assert result.source == "raal" and result.reason is None
            np.testing.assert_array_equal(result.costs,
                                          f32.predict_many(pairs))
            assert guard.health_state()["precision"] == "f32"
        finally:
            f32.close()

    def test_ladder_fallback_skips_learned_model(self, predictor, pipeline):
        clock = FakeClock()
        ladder = tripped_ladder(clock, hold_seconds=1000.0)
        guard = make_guard(predictor, pipeline, ladder=ladder, clock=clock)
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "ladder in fallback" in result.reason
        assert guard.degradation_counts()["ladder_fallback"] == 1
        assert guard.health_state()["ladder"] == "fallback"

    def test_health_state_reports_posture(self, predictor, pipeline):
        clock = FakeClock()
        guard = make_guard(
            predictor, pipeline, clock=clock,
            admission=AdmissionController(clock=clock),
            ladder=DegradationLadder(clock=clock),
            default_deadline_ms=100.0)
        health = guard.health_state()
        assert health["ladder"] == "healthy"
        assert health["precision"] == "f64"
        assert health["breakers"]["raal"] == CLOSED
        assert health["admission"]["in_flight"] == 0
        assert health["default_deadline_ms"] == 100.0


# -- fault injector additions ----------------------------------------------
class TestThreadAwareFaults:
    def test_bucket_hang_restores(self, predictor, encoded):
        model = predictor.trainer.model
        sleeps = []
        restore = FaultInjector().force_bucket_hang(
            model, seconds=0.25, sleep=sleeps.append)
        executor = BucketExecutor(model, batch_size=2, threads=1)
        try:
            executor.predict_log(encoded[:2])
            assert sleeps == [0.25]
        finally:
            restore()
            executor.close()
        assert "forward_inference" not in model.__dict__

    def test_bucket_hang_rejects_negative(self, predictor):
        with pytest.raises(ReproError):
            FaultInjector().force_bucket_hang(predictor.trainer.model, -1.0)

    def test_queue_saturation_holds_and_releases(self):
        ctl = AdmissionController(AdmissionConfig(max_in_flight=3))
        restore = FaultInjector().force_queue_saturation(ctl)
        assert ctl.in_flight == 3
        restore()
        assert ctl.in_flight == 0
        restore()  # idempotent
        assert ctl.in_flight == 0


# -- metrics export (satellite: obs integration) ---------------------------
class TestOverloadMetricsExport:
    def test_counters_gauges_and_histograms_export(self, predictor, pipeline):
        telemetry = obs.Telemetry.create()
        with obs.attached(telemetry):
            clock = FakeClock()
            ladder = DegradationLadder(clock=clock)
            admission = AdmissionController(
                AdmissionConfig(max_in_flight=1, max_queue_depth=0),
                clock=clock)
            guard = make_guard(predictor, pipeline, ladder=ladder,
                               admission=admission, clock=clock)
            record = pipeline.records[0]
            # One shed:
            restore = FaultInjector().force_queue_saturation(admission)
            try:
                guard.predict(record.plan, record.resources)
            finally:
                restore()
            # One deadline blown at the guard's post-encode check:
            stale = Deadline.after(0.0, clock=clock)
            guard.predict(record.plan, record.resources, deadline=stale)
            # ...and one blown inside the executor, between buckets (the
            # injected hang advances the deadline's clock):
            model = predictor.trainer.model
            executor = BucketExecutor(model, batch_size=2, threads=1)
            exec_clock = FakeClock()
            restore = FaultInjector().force_bucket_hang(
                model, seconds=0.1, sleep=exec_clock.advance)
            try:
                encoded = predictor.encoder.encode_many(
                    [(record.plan, record.resources)] * 4)
                with pytest.raises(DeadlineExceeded):
                    executor.predict_log(
                        encoded, deadline=Deadline.after(0.05,
                                                         clock=exec_clock))
            finally:
                restore()
                executor.close()
            # One ladder transition:
            ladder.trip_drift("test drift")

        registry = telemetry.registry
        for name in ("predict.shed_total", "predict.deadline_exceeded_total",
                     "guard.raal.deadline_exceeded_total", "health.state",
                     "guard.latency_seconds", "ladder.transitions_total",
                     "admission.in_flight"):
            assert name in registry, f"missing metric {name}"
        assert registry.get("predict.shed_total").value == 1
        assert registry.get("health.state").value == 1  # fallback
        assert registry.get("guard.latency_seconds").count == 2

        json_text = registry.to_json()
        prom_text = registry.to_prometheus()
        for name in ("predict.shed_total", "predict.deadline_exceeded_total",
                     "health.state", "guard.latency_seconds"):
            assert name in json_text
            assert name.replace(".", "_") in prom_text
        # Histogram buckets render cumulatively in the Prometheus text.
        assert "guard_latency_seconds_bucket" in prom_text
