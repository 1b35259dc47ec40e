"""Guarded cost prediction: the learned model may never sink a query.

A learned cost model sitting inside the optimizer loop (plan selection,
resource recommendation) must degrade, not crash: a corrupt checkpoint,
a poisoned vocabulary, an oversized plan, or a NaN forward should fall
back to the analytic GPSJ estimate — and if even that fails, to a
static heuristic that cannot fail. :class:`GuardedCostPredictor` wraps
a :class:`~repro.core.predictor.CostPredictor` with exactly that chain:

    RAAL (learned) → GPSJ (analytic) → static heuristic

Every stage is protected by a circuit breaker (skip a stage outright
after K consecutive failures, re-probe after a cooldown). Every answer
carries provenance: which stage produced it and, when the chain
degraded, why.

On top of the fault chain sits the overload-resilience layer (all
optional, all default-off):

* **Deadlines** — every predict call accepts a
  :class:`~repro.reliability.deadline.Deadline` (or synthesizes one
  from ``default_deadline_ms``); the learned stage abandons work past
  the budget and the chain serves the analytic answer instead. A blown
  deadline is *load*, not model failure — it never trips the breaker.
* **Admission control** — an :class:`~repro.reliability.admission.
  AdmissionController` bounds learned-model concurrency; shed requests
  either fall through to the analytic chain (``shed_mode="fallback"``,
  default) or raise :class:`~repro.errors.Overloaded` within
  milliseconds (``shed_mode="reject"``).
* **Degradation ladder** — a two-state :class:`~repro.reliability.
  ladder.DegradationLadder` (``healthy`` / ``fallback``) that the
  quality feedback loop trips when the drift detector fires; while in
  ``fallback`` the chain skips the learned model. RAAL always serves at
  the predictor's configured precision.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.baselines.gpsj import GPSJCostModel
from repro.cluster.resources import ResourceProfile
from repro.core.predictor import CostPredictor
from repro.encoding.plan_encoder import plan_fingerprint
from repro.errors import DeadlineExceeded, Overloaded, PredictionError
from repro.obs.audit import AuditTrail
from repro.obs.quality import DRIFT, AccuracyTracker
from repro.obs.slo import SLOTracker
from repro.plan.physical import PhysicalPlan
from repro.reliability.admission import AdmissionController
from repro.reliability.circuit import OPEN, BreakerConfig, CircuitBreaker
from repro.reliability.deadline import Deadline
from repro.reliability.ladder import DegradationLadder

__all__ = [
    "GuardedPrediction",
    "ExplainedPredictions",
    "GuardedCostPredictor",
    "static_heuristic_cost",
    "DEFAULT_CHAIN",
    "SHED_MODES",
]

#: How admission-control sheds surface: degrade to the analytic chain,
#: or reject the request with :class:`~repro.errors.Overloaded`.
SHED_MODES = ("fallback", "reject")

DEFAULT_CHAIN = ("raal", "gpsj", "heuristic")

#: Fallback-of-last-resort cost when even the heuristic inputs are junk.
_FLOOR_SECONDS = 1.0


def static_heuristic_cost(plan: PhysicalPlan, resources: ResourceProfile) -> float:
    """Total-function cost estimate used when every model is down.

    A crude linear model — per-operator overhead plus scan volume over
    aggregate disk bandwidth — clamped to a positive finite value. It
    exists to keep plan selection *ranked sanely* (bigger plans cost
    more), not to be accurate.
    """
    try:
        nodes = plan.nodes()
        total_bytes = 0.0
        for node in nodes:
            est = float(node.est_bytes)
            if np.isfinite(est) and est > 0:
                total_bytes += est
        slots = max(int(resources.task_slots), 1)
        disk = float(resources.disk_throughput_mbps)
        if not np.isfinite(disk) or disk <= 0:
            disk = 100.0
        seconds = 0.5 * len(nodes) + total_bytes * 6000.0 / (disk * 1e6 * slots)
        if not np.isfinite(seconds) or seconds <= 0:
            return _FLOOR_SECONDS
        return float(seconds)
    except Exception:
        return _FLOOR_SECONDS


@dataclass(frozen=True)
class GuardedPrediction:
    """One guarded cost estimate with provenance."""

    seconds: float
    source: str
    reason: str | None = None
    #: Audit-trail handle for closing the feedback loop (present when
    #: an :class:`~repro.obs.audit.AuditTrail` is configured).
    request_id: str | None = None

    @property
    def degraded(self) -> bool:
        """Whether the answer came from a fallback stage."""
        return self.source != DEFAULT_CHAIN[0]


@dataclass(frozen=True)
class ExplainedPredictions:
    """A batch of guarded cost estimates with shared provenance.

    All costs in one call come from the same stage — the chain degrades
    per *request*, not per sample, so a selector never ranks plans
    scored by different models against each other.
    """

    costs: np.ndarray
    source: str
    reason: str | None = None
    #: Audit-trail handle for closing the feedback loop (present when
    #: an :class:`~repro.obs.audit.AuditTrail` is configured).
    request_id: str | None = None


@dataclass
class _StageStats:
    """Per-stage call accounting (observability for tests and doctor)."""

    served: int = 0
    failures: int = 0
    skipped_open: int = 0
    rejected_input: int = 0
    # Overload-resilience accounting (only the learned stage uses these).
    deadline_exceeded: int = 0
    shed: int = 0
    ladder_fallback: int = 0


class GuardedCostPredictor:
    """Fallback-chain wrapper around a trained :class:`CostPredictor`.

    Duck-type compatible with :class:`CostPredictor` (``predict``,
    ``predict_many``, ``predict_grid``), so :class:`PlanSelector` and
    :class:`ResourceAdvisor` accept it unchanged — and when they detect
    the ``*_explained`` variants they surface provenance in their
    results.

    Parameters
    ----------
    predictor:
        The trained learned-model predictor (the "raal" stage).
    gpsj:
        Analytic fallback model; when ``None`` the "gpsj" stage reports
        itself unavailable and the chain skips to the heuristic.
    chain:
        Stage order; a subset/reordering of ``("raal", "gpsj",
        "heuristic")``.
    breaker_config:
        Trip threshold / cooldown shared by each stage's breaker.
    admission:
        Optional :class:`AdmissionController` bounding learned-model
        concurrency; sheds surface per ``shed_mode``.
    ladder:
        Optional two-state :class:`DegradationLadder`; while it sits in
        ``fallback`` the chain skips the learned model.
    quality:
        Optional :class:`~repro.obs.quality.AccuracyTracker` fed
        (prediction, observed runtime) pairs via
        :meth:`record_observation`; its drift detector — when drifting
        — trips the ladder to ``fallback``.
    audit:
        Optional :class:`~repro.obs.audit.AuditTrail`; every served
        request gets audit records (one per pair up to the trail's
        per-request cap) and a ``request_id`` in its result for later
        ground-truth attachment.
    slo:
        Optional :class:`~repro.obs.slo.SLOTracker`; serving latency is
        recorded to an SLO named ``latency`` and feedback q-errors to
        one named ``qerror`` (either optional — absent names are
        skipped).
    workload:
        Static workload-class label stamped onto audit records and
        per-workload quality statistics.
    default_deadline_ms:
        When set, every predict call without an explicit deadline gets
        a fresh one with this budget.
    shed_mode:
        ``"fallback"`` (default) serves shed requests from the analytic
        chain; ``"reject"`` raises :class:`~repro.errors.Overloaded`.
    clock:
        Injectable time source for deterministic tests.
    """

    def __init__(
        self,
        predictor: CostPredictor,
        gpsj: GPSJCostModel | None = None,
        chain: tuple[str, ...] = DEFAULT_CHAIN,
        breaker_config: BreakerConfig | None = None,
        admission: AdmissionController | None = None,
        ladder: DegradationLadder | None = None,
        quality: AccuracyTracker | None = None,
        audit: AuditTrail | None = None,
        slo: SLOTracker | None = None,
        workload: str | None = None,
        default_deadline_ms: float | None = None,
        shed_mode: str = "fallback",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        unknown = set(chain) - set(DEFAULT_CHAIN)
        if unknown:
            raise PredictionError(f"unknown fallback stages: {sorted(unknown)}")
        if not chain:
            raise PredictionError("fallback chain cannot be empty")
        if shed_mode not in SHED_MODES:
            raise PredictionError(
                f"unknown shed_mode {shed_mode!r}; expected one of {SHED_MODES}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise PredictionError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}")
        self.predictor = predictor
        self.gpsj = gpsj
        self.chain = tuple(chain)
        self.admission = admission
        self.ladder = ladder
        self.quality = quality
        self.audit = audit
        self.slo = slo
        self.workload = workload
        self.default_deadline_ms = default_deadline_ms
        self.shed_mode = shed_mode
        self._clock = clock
        self.breakers = {
            stage: CircuitBreaker(config=breaker_config, clock=clock,
                                  on_transition=self._breaker_listener(stage))
            for stage in self.chain
        }
        self.stats = {stage: _StageStats() for stage in self.chain}

    @staticmethod
    def _breaker_listener(stage: str) -> Callable[[str, str], None]:
        """Telemetry hook for one stage's breaker state changes."""
        def _on_transition(old: str, new: str) -> None:
            obs.inc(f"guard.{stage}.breaker_transitions_total",
                    help="Circuit breaker state changes")
            obs.emit_event("guard", "breaker_transition",
                           stage=stage, old=old, new=new)
        return _on_transition

    # -- CostPredictor-compatible surface ---------------------------------
    @property
    def encoder(self):
        """The wrapped predictor's encoder (CostPredictor compatibility)."""
        return self.predictor.encoder

    @property
    def trainer(self):
        """The wrapped predictor's trainer (CostPredictor compatibility)."""
        return self.predictor.trainer

    def close(self) -> None:
        """Release worker pools held by the wrapped predictor."""
        self.predictor.close()

    def predict(self, plan: PhysicalPlan, resources: ResourceProfile,
                deadline: Deadline | None = None) -> float:
        """Guarded cost (seconds) of one (plan, resources) pair."""
        return self.predict_explained(plan, resources, deadline=deadline).seconds

    def predict_explained(self, plan: PhysicalPlan,
                          resources: ResourceProfile,
                          deadline: Deadline | None = None) -> GuardedPrediction:
        """Guarded cost of one pair, with provenance."""
        explained = self.predict_many_explained([(plan, resources)],
                                                deadline=deadline)
        return GuardedPrediction(
            seconds=float(explained.costs[0]),
            source=explained.source,
            reason=explained.reason,
            request_id=explained.request_id,
        )

    def predict_many(self, pairs: list[tuple[PhysicalPlan, ResourceProfile]],
                     deadline: Deadline | None = None) -> np.ndarray:
        """Guarded cost vector (drop-in for ``CostPredictor.predict_many``)."""
        return self.predict_many_explained(pairs, deadline=deadline).costs

    def predict_grid(self, plans: list[PhysicalPlan],
                     profiles: list[ResourceProfile],
                     deadline: Deadline | None = None) -> np.ndarray:
        """Guarded cost matrix (drop-in for ``CostPredictor.predict_grid``)."""
        return self.predict_grid_explained(plans, profiles,
                                           deadline=deadline).costs

    def predict_grid_explained(self, plans: list[PhysicalPlan],
                               profiles: list[ResourceProfile],
                               deadline: Deadline | None = None,
                               ) -> ExplainedPredictions:
        """Guarded ``(len(profiles), len(plans))`` grid with provenance."""
        pairs = [(plan, profile) for profile in profiles for plan in plans]
        explained = self.predict_many_explained(pairs, deadline=deadline)
        return ExplainedPredictions(
            costs=explained.costs.reshape(len(profiles), len(plans)),
            source=explained.source,
            reason=explained.reason,
            request_id=explained.request_id,
        )

    def degradation_counts(self) -> dict[str, int]:
        """Cumulative fallback accounting across the predictor's lifetime.

        Mirrors the ``guard.*`` registry counters for callers that hold
        the predictor but not the telemetry bundle (``repro doctor``,
        tests). ``degraded`` counts answers served by any stage other
        than the chain's first.
        """
        served = {stage: s.served for stage, s in self.stats.items()}
        total = sum(served.values())
        counts = {"requests_served": total,
                  "degraded": total - served.get(self.chain[0], 0)}
        for stage, stat in self.stats.items():
            counts[f"{stage}.served"] = stat.served
            counts[f"{stage}.failures"] = stat.failures
            counts[f"{stage}.skipped_open"] = stat.skipped_open
            counts[f"{stage}.rejected_input"] = stat.rejected_input
        raal = self.stats.get("raal")
        if raal is not None:
            counts["deadline_exceeded"] = raal.deadline_exceeded
            counts["shed"] = raal.shed
            counts["ladder_fallback"] = raal.ladder_fallback
        return counts

    def health_state(self) -> dict[str, object]:
        """Live overload-resilience posture (``repro doctor`` and tests).

        Summarizes the ladder state, breaker states, and the admission /
        quality / audit / SLO snapshots in one JSON-friendly dict. The
        ladder reads ``fallback`` while the RAAL breaker is open — the
        breaker owns that state, so it is read here rather than stored
        a second time.
        """
        raal = self.breakers.get("raal")
        if raal is not None and raal.state == OPEN:
            ladder = "fallback"
        else:
            ladder = self.ladder.state if self.ladder is not None else "healthy"
        state: dict[str, object] = {
            "ladder": ladder,
            "precision": self.predictor.config.precision,
            "breakers": {stage: breaker.state
                         for stage, breaker in self.breakers.items()},
            "shed_mode": self.shed_mode,
            "default_deadline_ms": self.default_deadline_ms,
        }
        if self.admission is not None:
            state["admission"] = self.admission.snapshot()
        if self.quality is not None:
            state["quality"] = self.quality.snapshot()
        if self.audit is not None:
            state["audit"] = self.audit.snapshot()
        if self.slo is not None:
            state["slo"] = self.slo.snapshot()
        return state

    # -- the chain ---------------------------------------------------------
    def predict_many_explained(
        self, pairs: list[tuple[PhysicalPlan, ResourceProfile]],
        deadline: Deadline | None = None,
    ) -> ExplainedPredictions:
        """Run the fallback chain for a batch of (plan, resources) pairs.

        Tries each stage in order. A stage is skipped without running
        when its breaker is open; input-validation rejections (bad
        *request*, e.g. an oversized plan) skip the RAAL stage without
        counting against its breaker, since they say nothing about the
        model's health. Blown deadlines and admission sheds likewise
        degrade without tripping the breaker — they are load signals,
        not model failures. While the ladder sits in ``fallback`` the
        learned stage is skipped. Raises
        :class:`PredictionError` only when every stage fails (or
        :class:`~repro.errors.Overloaded` when a shed occurs under
        ``shed_mode="reject"``).
        """
        if not pairs:
            return ExplainedPredictions(costs=np.zeros(0), source=self.chain[0])
        if deadline is None and self.default_deadline_ms is not None:
            deadline = Deadline.from_ms(self.default_deadline_ms,
                                        clock=self._clock)
        started = self._clock()
        with obs.span("guarded_predict", pairs=len(pairs)) as sp:
            obs.inc("guard.requests_total", help="Guarded prediction requests")
            reasons: list[str] = []
            for stage in self.chain:
                breaker = self.breakers[stage]
                stats = self.stats[stage]
                if stage == "raal":
                    problem = self._validate_inputs(pairs)
                    if problem is not None:
                        stats.rejected_input += 1
                        obs.inc("guard.raal.rejected_input_total",
                                help="Requests the learned model refused")
                        obs.emit_event("guard", "rejected_input",
                                       stage="raal", reason=problem)
                        reasons.append(f"raal: {problem}")
                        continue
                    if self.ladder is not None and self.ladder.in_fallback():
                        stats.ladder_fallback += 1
                        obs.inc("guard.raal.ladder_fallback_total",
                                help="Requests routed past the learned "
                                     "model while the ladder sat in "
                                     "FALLBACK")
                        reasons.append("raal: ladder in fallback")
                        continue
                if not breaker.allow():
                    stats.skipped_open += 1
                    obs.inc(f"guard.{stage}.skipped_open_total",
                            help="Stage skipped while breaker open")
                    reasons.append(f"{stage}: circuit open")
                    continue
                try:
                    if stage == "raal":
                        costs = self._raal_costs(pairs, deadline=deadline)
                    else:
                        costs = self._run_stage(stage, pairs)
                except Overloaded as exc:
                    stats.shed += 1
                    obs.emit_event("guard", "shed", stage="raal",
                                   error=str(exc))
                    reasons.append(f"raal: shed — {exc}")
                    if self.shed_mode == "reject":
                        raise
                    continue
                except DeadlineExceeded as exc:
                    stats.deadline_exceeded += 1
                    obs.inc("guard.raal.deadline_exceeded_total",
                            help="Learned-stage attempts abandoned past "
                                 "their deadline")
                    obs.emit_event("guard", "deadline_exceeded",
                                   stage="raal", error=str(exc))
                    reasons.append(f"raal: deadline_exceeded — {exc}")
                    continue
                except Exception as exc:  # reliability boundary: degrade, never crash
                    breaker.record_failure()
                    stats.failures += 1
                    obs.inc(f"guard.{stage}.failures_total",
                            help="Stage failures")
                    obs.emit_event("guard", "stage_failure",
                                   stage=stage, error=str(exc))
                    reasons.append(f"{stage}: {exc}")
                    continue
                breaker.record_success()
                stats.served += 1
                obs.inc(f"guard.{stage}.served_total",
                        help="Requests answered by this stage")
                degraded = stage != self.chain[0]
                sp.annotate(source=stage, degraded=degraded)
                if degraded:
                    obs.inc("guard.degraded_total",
                            help="Requests served by a fallback stage")
                    obs.emit_event("guard", "fallback", source=stage,
                                   reason="; ".join(reasons) or None)
                reason = "; ".join(reasons) or None
                request_id = self._record_served(
                    pairs, costs, stage=stage, reason=reason,
                    latency=self._clock() - started)
                return ExplainedPredictions(
                    costs=costs, source=stage, reason=reason,
                    request_id=request_id,
                )
            obs.inc("guard.exhausted_total",
                    help="Requests for which every stage failed")
            obs.emit_event("guard", "chain_exhausted",
                           reason="; ".join(reasons))
            raise PredictionError(
                "all fallback stages failed: " + "; ".join(reasons))

    # -- the feedback loop -------------------------------------------------
    def _record_served(self, pairs, costs: np.ndarray, stage: str,
                       reason: str | None, latency: float) -> str | None:
        """Audit the served answers and feed the latency SLO (best effort)."""
        obs.observe("guard.latency_seconds", latency,
                    help="End-to-end guarded request latency")
        if self.slo is not None and "latency" in self.slo.names():
            self.slo.record("latency", latency)
        if self.audit is None:
            return None
        request_id = self.audit.next_request_id()
        served_tier = self.predictor.config.precision if stage == "raal" else None
        # Plans and profiles repeat across a request's pairs: work out
        # each one's audit facts once and share them between records.
        plan_facts: dict[int, tuple[str | None, int | None]] = {}
        flat_resources: dict[int, dict] = {}
        for i, (plan, resources) in enumerate(pairs):
            facts = plan_facts.get(id(plan))
            if facts is None:
                try:
                    facts = (plan_fingerprint(plan), int(plan.num_nodes))
                except Exception:
                    facts = (None, None)
                plan_facts[id(plan)] = facts
            flat = flat_resources.get(id(resources))
            if flat is None:
                flat = flat_resources[id(resources)] = {
                    "executors": resources.executors,
                    "executor_cores": resources.executor_cores,
                    "executor_memory_gb": resources.executor_memory_gb,
                }
            record = self.audit.record(
                request_id, index=i,
                plan_fingerprint=facts[0], plan_nodes=facts[1],
                resources=flat,
                tier=served_tier, source=stage, latency_seconds=latency,
                prediction_seconds=float(costs[i]),
                workload=self.workload, reason=reason)
            if record is None:
                break  # per-request cap reached; the trail counted it
        return request_id

    def record_observation(self, request_id: str, observed_seconds: float,
                           index: int = 0) -> float | None:
        """Close the loop: attach an observed runtime to a served answer.

        Looks the prediction up in the audit trail by ``(request_id,
        index)``, records the ground truth there, feeds the q-error to
        the quality tracker (learned-stage answers only — the tracker
        measures the model, not the analytic fallbacks) and the
        ``qerror`` SLO (every served answer — users experience fallback
        inaccuracy too), and couples a drifting detector into the
        ladder. Returns the sample's q-error, or ``None`` when the
        record is unknown/evicted or ground truth is unusable.
        """
        if self.audit is None:
            raise PredictionError(
                "record_observation requires an AuditTrail (pass audit=... "
                "to GuardedCostPredictor)")
        record = self.audit.observe(request_id, observed_seconds, index=index)
        if record is None or record.q_error is None:
            return None
        if self.quality is not None and record.source == "raal":
            self.quality.record(record.prediction_seconds, observed_seconds,
                                tier=record.tier, workload=record.workload)
            self._couple_drift()
        if self.slo is not None and "qerror" in self.slo.names():
            self.slo.record("qerror", record.q_error)
        return record.q_error

    def _couple_drift(self) -> None:
        """Drifting accuracy drops the ladder to its analytic fallback.

        Called after every quality-tracked feedback sample: while the
        detector reports drift, the learned model's answers are not
        trusted, so the ladder is (re-)tripped to FALLBACK. The ladder's
        dwell probe still returns periodically; if the feedback stream
        keeps drifting the next sample trips it again, and once the
        detector recovers the probe sticks.
        """
        if self.quality is None or self.ladder is None:
            return
        detector = self.quality.drift
        if detector is not None and detector.state == DRIFT:
            self.ladder.trip_drift(detector.last_reason or "accuracy drift")

    # -- stages ------------------------------------------------------------
    def _run_stage(self, stage: str, pairs) -> np.ndarray:
        if stage == "gpsj":
            return self._gpsj_costs(pairs)
        return self._heuristic_costs(pairs)

    def _raal_costs(self, pairs, deadline: Deadline | None) -> np.ndarray:
        """Admission-gated learned prediction with output validation."""
        admit = (self.admission.admit(deadline)
                 if self.admission is not None else nullcontext())
        with admit:
            encoded = self.predictor.encoder.encode_many(pairs)
            bad = [i for i, e in enumerate(encoded)
                   if not (np.all(np.isfinite(e.node_features))
                           and np.all(np.isfinite(e.resources))
                           and np.all(np.isfinite(e.extras)))]
            if bad:
                raise PredictionError(
                    f"non-finite encoded features for {len(bad)} of "
                    f"{len(encoded)} samples (first at index {bad[0]})")
            if deadline is not None:
                deadline.check("after encode")
            costs = self.predictor.predict_encoded(encoded, deadline=deadline)
        if not np.all(np.isfinite(costs)):
            raise PredictionError("model produced non-finite costs")
        # Saturation is read off this call's own answers: a cost at the
        # clamp ceiling came from a log-prediction at or past the clamp.
        ceiling = np.expm1(np.asarray(
            self.predictor.trainer.config.log_clamp_max, dtype=costs.dtype))
        saturated = int(np.count_nonzero(costs >= ceiling))
        if saturated:
            raise PredictionError(
                f"model output saturated the log-cost clamp for "
                f"{saturated} of {len(costs)} samples")
        return costs

    def _gpsj_costs(self, pairs) -> np.ndarray:
        if self.gpsj is None:
            raise PredictionError("no GPSJ model configured")
        costs = np.array([self.gpsj.estimate(plan, resources)
                          for plan, resources in pairs])
        if not np.all(np.isfinite(costs)) or np.any(costs < 0):
            raise PredictionError("GPSJ produced non-finite or negative costs")
        return costs

    def _heuristic_costs(self, pairs) -> np.ndarray:
        return np.array([static_heuristic_cost(plan, resources)
                         for plan, resources in pairs])

    # -- input validation --------------------------------------------------
    def _validate_inputs(self, pairs) -> str | None:
        """Reason string when the request cannot go to the learned model.

        Resources are not checked here: :class:`ResourceProfile` refuses
        non-finite and non-positive values at construction. Each
        distinct plan is checked once, under the index of its first pair.
        """
        structure = self.predictor.encoder.structure
        max_nodes = structure.max_nodes if structure is not None else None
        seen: set[int] = set()
        for i, (plan, _) in enumerate(pairs):
            if id(plan) in seen:
                continue
            seen.add(id(plan))
            if max_nodes is not None and plan.num_nodes > max_nodes:
                return (f"plan {i} has {plan.num_nodes} nodes, exceeding "
                        f"the encoder's max_nodes={max_nodes}")
            for node in plan.nodes():
                if not (np.isfinite(node.est_rows) and np.isfinite(node.est_bytes)):
                    return f"plan {i} carries non-finite cardinality estimates"
        return None
