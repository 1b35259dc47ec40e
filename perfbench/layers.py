"""Per-layer metrics of the traced run.

:func:`serving_tracer` and :func:`training_tracer` name the public
calls wrapped at each layer boundary (module names under
``src/repro/``). :func:`serving_layers` and :func:`training_layers`
turn the recorded spans into the per-layer metrics of
``BENCHMARK.json``. Every traced run reports every per-layer metric; a
layer that did not run in a workload reads 0.
"""

from __future__ import annotations

import resource
import statistics

from repro.core import persistence
from repro.core.predictor import CostPredictor
from repro.core import trainer as trainer_module
from repro.core.raal import RAAL
from repro.cluster.simulator import SparkSimulator
from repro.encoding import plan_encoder
from repro.encoding.plan_encoder import PlanEncoder
from repro.nn.optim import Adam
from repro.obs.audit import AuditTrail
from repro.reliability import guard as guard_module
from repro.reliability.guard import GuardedCostPredictor
from repro.serving import service as service_module
from repro.serving.registry import ModelShard
from repro.workload import collection
from repro.workload.collection import DataCollector

from tracing import Span, Tracer, self_times

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "serving.batch_wait_ms": "ms",
    "serving.requests_per_batch": "count",
    "serving.pairs_per_batch": "count",
    "serving.plan_cache_hit_ratio": "ratio",
    "serving.warmup_s": "s",
    "sql.parse_ms": "ms",
    "plan.analyze_ms": "ms",
    "plan.enumerate_ms": "ms",
    "plan.plans_per_statement": "count",
    "encoding.encode_ms": "ms",
    "encoding.cache_hit_ratio": "ratio",
    "encoding.fingerprint_ms": "ms",
    "encoding.fingerprint_calls_per_request": "count",
    "encoding.fit_s": "s",
    "reliability.guard_self_ms": "ms",
    "reliability.shed": "count",
    "reliability.deadline_exceeded": "count",
    "reliability.retries": "count",
    "reliability.ladder_transitions": "count",
    "reliability.drift_trips": "count",
    "core.forward_ms": "ms",
    "core.pairs_per_forward": "count",
    "core.load_predictor_s": "s",
    "obs.feedback_ms": "ms",
    "obs.feedback_missed_share": "share",
    "obs.feedback_qerror_p50": "ratio",
    "obs.audit_records": "count",
    "obs.audit_evictions": "count",
    "train.forward_backward_ms": "ms",
    "train.optimizer_step_ms": "ms",
    "train.clip_ms": "ms",
    "train.other_self_ms": "ms",
    "train.batches": "count",
    "workload.collect_s": "s",
    "cluster.simulate_ms": "ms",
    "trace.overhead_share": "share",
    # Layer split of one request's latency, as measured (sums to 1).
    "split.service_share": "share",
    "split.sql_plan_share": "share",
    "split.batch_wait_share": "share",
    "split.guard_share": "share",
    "split.audit_share": "share",
    "split.fingerprint_share": "share",
    "split.encode_share": "share",
    "split.forward_share": "share",
}

#: Span name → split component.
_SPLIT = {
    "service.predict": "service", "service.predict_grid": "service",
    "sql.parse": "sql_plan", "plan.analyze": "sql_plan",
    "plan.enumerate": "sql_plan", "guard.predict": "guard",
    "obs.audit_record": "audit", "encoding.fingerprint": "fingerprint",
    "encoding.encode_many": "encode", "core.forward": "forward",
}


def peak_rss_mb() -> float:
    """High-water resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _len_arg(args, result) -> int:
    return len(args[1])


def _len_result(args, result) -> int:
    return len(result)


def serving_tracer() -> Tracer:
    tracer = Tracer()
    response_id = lambda r: r["request_id"]
    tracer.add(service_module.PredictionService, "predict", "service.predict",
               request_id=response_id)
    tracer.add(service_module.PredictionService, "predict_grid",
               "service.predict_grid", request_id=response_id)
    tracer.add(service_module.PredictionService, "feedback",
               "service.feedback", request_id=response_id)
    tracer.add(service_module, "parse_sql", "sql.parse")
    tracer.add(service_module, "analyze", "plan.analyze")
    tracer.add(service_module, "enumerate_plans", "plan.enumerate",
               size=_len_result)
    tracer.add(ModelShard, "predict", "shard.predict")
    tracer.add(GuardedCostPredictor, "predict_many_explained", "guard.predict",
               request_id=lambda r: r.request_id, size=_len_arg)
    tracer.add(GuardedCostPredictor, "record_observation", "obs.feedback")
    tracer.add(AuditTrail, "record", "obs.audit_record")
    tracer.add(PlanEncoder, "encode_many", "encoding.encode_many",
               size=_len_arg)
    tracer.add(plan_encoder, "plan_fingerprint", "encoding.fingerprint")
    tracer.add(guard_module, "plan_fingerprint", "encoding.fingerprint")
    tracer.add(CostPredictor, "predict_encoded", "core.forward", size=_len_arg)
    tracer.add(persistence, "load_predictor", "core.load_predictor")
    return tracer


def training_tracer() -> Tracer:
    tracer = Tracer()
    tracer.add(trainer_module.Trainer, "fit", "train.fit")
    tracer.add(RAAL, "forward_backward", "train.forward_backward")
    tracer.add(Adam, "step", "train.optimizer_step")
    tracer.add(trainer_module, "clip_grad_norm", "train.clip")
    tracer.add(DataCollector, "collect", "workload.collect")
    tracer.add(SparkSimulator, "execute", "cluster.simulate")
    tracer.add(PlanEncoder, "fit", "encoding.fit")
    tracer.add(collection, "parse", "sql.parse")
    tracer.add(collection, "analyze", "plan.analyze")
    tracer.add(collection, "enumerate_plans", "plan.enumerate",
               size=_len_result)
    return tracer


def _median(values, scale: float = 1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _setup_spans(tracer: Tracer, setups) -> list[Span]:
    return [s for start, total in setups
            for s in tracer.between(start, start + total)]


def _sql_plan(spans: list[Span]) -> dict:
    """Parse, analyze and enumerate metrics of the spans given."""
    values = {key: _median((s.duration for s in _named(spans, name)), 1e3)
              for name, key in (("sql.parse", "sql.parse_ms"),
                                ("plan.analyze", "plan.analyze_ms"),
                                ("plan.enumerate", "plan.enumerate_ms"))}
    values["plan.plans_per_statement"] = _mean(
        s.size for s in _named(spans, "plan.enumerate"))
    return values


def serving_layers(tracer: Tracer, window, answers, wall: float,
                   untraced_rate: float, setups, warmups, properties: dict,
                   guard_state: dict, audit: dict, feedback) -> dict:
    spans = tracer.between(*window)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(_sql_plan(spans))
    values["core.load_predictor_s"] = _median(
        s.duration for s in _named(_setup_spans(tracer, setups),
                                   "core.load_predictor"))
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    own = self_times(spans)
    guards = {s.request_id: s for s in _named(spans, "guard.predict")}

    def subtree(span: Span, into: dict) -> None:
        component = _SPLIT.get(span.name)
        if component is not None:
            into[component] = into.get(component, 0.0) + own[span.id]
        for child in children.get(span.id, ()):
            subtree(child, into)

    roots = [s for s in spans if s.parent is None
             and s.name in ("service.predict", "service.predict_grid")]
    split: dict[str, float] = {}
    waits, total = [], 0.0
    for root in roots:
        guard = guards.get(root.request_id)
        shard = next((c for c in children.get(root.id, ())
                      if c.name == "shard.predict"), None)
        if guard is None or shard is None:
            continue
        total += root.duration
        subtree(root, split)
        waits.append(shard.duration - guard.duration)
        split["batch_wait"] = split.get("batch_wait", 0.0) + waits[-1]
        subtree(guard, split)
    for component in ("service", "sql_plan", "batch_wait", "guard", "audit",
                      "fingerprint", "encode", "forward"):
        values[f"split.{component}_share"] = (
            split.get(component, 0.0) / total if total else 0.0)

    guard_spans = _named(spans, "guard.predict")
    values["reliability.guard_self_ms"] = _median((
        g.duration - sum(c.duration for c in children.get(g.id, ())
                         if c.name in ("encoding.encode_many", "core.forward"))
        for g in guard_spans), 1e3)
    forwards = _named(spans, "core.forward")
    fingerprints = _named(spans, "encoding.fingerprint")
    values.update({
        "serving.batch_wait_ms": _median(waits, 1e3),
        "serving.requests_per_batch": properties["requests_per_batch"],
        "serving.pairs_per_batch": properties["pairs_per_batch"],
        "serving.plan_cache_hit_ratio": properties["plan_cache_hit_share"],
        "serving.warmup_s": _median(warmups),
        "encoding.encode_ms": _median(
            (s.duration for s in _named(spans, "encoding.encode_many")), 1e3),
        "encoding.cache_hit_ratio": properties["encoder_cache_hit_share"],
        "encoding.fingerprint_ms": _median(
            (s.duration for s in fingerprints), 1e3),
        "encoding.fingerprint_calls_per_request": (
            len(fingerprints) / len(roots) if roots else 0.0),
        "reliability.shed": guard_state["stats_raal"]["shed"],
        "reliability.deadline_exceeded":
            guard_state["stats_raal"]["deadline_exceeded"],
        "reliability.retries": guard_state["retries"],
        "reliability.ladder_transitions": guard_state["ladder_transitions"],
        "reliability.drift_trips": guard_state.get("drift_trips", 0),
        "core.forward_ms": _median((s.duration for s in forwards), 1e3),
        "core.pairs_per_forward": _mean(s.size for s in forwards),
        "obs.audit_records": audit["recorded"],
        "obs.audit_evictions": audit["recorded"] - audit["size"],
        "trace.overhead_share": 1.0 - (len(answers) / wall) / untraced_rate,
    })
    if feedback is not None:
        feedback_spans = _named(tracer.between(*feedback["window"]),
                                "obs.feedback")
        values["obs.feedback_ms"] = _median(
            (s.duration for s in feedback_spans), 1e3)
        sent = feedback["phase"].succeeded
        values["obs.feedback_missed_share"] = (
            feedback["missed"] / sent if sent else 0.0)
        values["obs.feedback_qerror_p50"] = _median(feedback["qerrors"])
    return values


def training_layers(tracer: Tracer, window, fits: int, rate: float,
                    untraced_rate: float, setups) -> dict:
    spans = tracer.between(*window)
    setup_spans = _setup_spans(tracer, setups)
    values = dict.fromkeys(PER_LAYER, 0.0)
    # Parsing and planning run inside the corpus build, not in a fit.
    values.update(_sql_plan(setup_spans))
    values.update({
        "encoding.fit_s": _median(
            s.duration for s in _named(setup_spans, "encoding.fit")),
        "workload.collect_s": _median(
            s.duration for s in _named(setup_spans, "workload.collect")),
        "cluster.simulate_ms": _median((s.duration for s in
                                        _named(setup_spans, "cluster.simulate")),
                                       1e3),
    })
    own = self_times(spans)
    steps = _named(spans, "train.forward_backward")
    values.update({
        "train.forward_backward_ms": _median((s.duration for s in steps), 1e3),
        "train.optimizer_step_ms": _median(
            (s.duration for s in _named(spans, "train.optimizer_step")), 1e3),
        "train.clip_ms": _median(
            (s.duration for s in _named(spans, "train.clip")), 1e3),
        "train.other_self_ms": _median(
            (own[s.id] for s in _named(spans, "train.fit")), 1e3),
        "train.batches": len(steps) / fits if fits else 0.0,
        "trace.overhead_share": 1.0 - rate / untraced_rate,
    })
    return values
