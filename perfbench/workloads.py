"""The benchmark's workloads, their preparation and their checks.

Every workload reaches the program only through its public entry
points: :class:`~repro.serving.PredictionService` for the serving
workloads, :meth:`~repro.core.trainer.Trainer.fit` for ``retrain``,
:meth:`~repro.workload.collection.DataCollector.collect` (inside the
corpus build) and :func:`~repro.core.persistence.load_predictor`.

Preparation (building the corpus, training the served model, saving
its checkpoint) is not measured. Its result is cached under
``.perfbench_cache/`` in the checkout, keyed by a digest of ``src/`` and
of the corpus settings, so a changed program always gets its own model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster.resources import ResourceProfile, ResourceSampler
from repro.cluster.simulator import SparkSimulator
from repro.core import CostPredictor
from repro.core.advisor import default_profile_grid
from repro.core import persistence
from repro.core.trainer import Trainer, TrainerConfig
from repro.core.variants import make_model, variant
from repro.data.imdb import build_imdb_catalog
from repro.engine import execute_plan
from repro.errors import DeadlineExceeded, Overloaded, ServingError
from repro.eval.experiments import ExperimentPipeline, ExperimentScale
from repro.plan.builder import analyze
from repro.plan.enumerator import enumerate_plans
from repro.serving import PredictionService, ServingConfig
from repro.sql.parser import parse
from repro.workload.generator import QueryGenerator, WorkloadConfig

import layers

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"
#: Bump when the prepared artifacts change shape.
PREP_VERSION = 1


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration (full runs or the self-test)."""

    #: The corpus: the benchmarks' 120-query pipeline on IMDB at 0.15.
    corpus: ExperimentScale = ExperimentScale(num_queries=120, epochs=50)
    recurring_statements: int = 16
    profiles: int = 12
    adhoc_pool: int = 2000
    adhoc_warmup: int = 8
    fit_epochs: int = 20
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    #: Fused batches re-scored through the reference predictor.
    checked_batches: int = 48
    #: Newest answers per client that get feedback after the timed phase.
    feedback_per_client: int = 60


FULL = Scale()

#: hot_loop's closed-loop client threads.
HOT_CLIENTS = 2

WORKLOADS = ("hot_loop", "adhoc_advise", "retrain")


def q_error(predicted: float, observed: float) -> float:
    return max(predicted / observed, observed / predicted)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- preparation -------------------------------------------------------------

@dataclass
class Prepared:
    checkpoint: str
    train_sqls: list[str]
    #: Held-out records: statement, plan index, resources, observed cost.
    heldout: list[dict]


def _digest(scale: Scale) -> str:
    h = hashlib.sha256(f"{PREP_VERSION}|{scale.corpus!r}".encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def prepare(scale: Scale) -> Prepared:
    """Train and save the served model once per program version.

    Training runs in a child process that this one waits for, so the
    memory it takes never counts toward the measured process's peak
    resident memory, and nothing it starts outlives the run.
    """
    final = CACHE_DIR / _digest(scale)
    if not (final / "prepared.json").exists():
        child = subprocess.run(
            [sys.executable, __file__,
             json.dumps(dataclasses.asdict(scale.corpus)), str(final)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        if child.returncode != 0:
            raise RuntimeError(f"preparation failed (exit {child.returncode})")
    data = json.loads((final / "prepared.json").read_text())
    return Prepared(str(final / "model"), data["train_sqls"], data["heldout"])


def _build(scale: Scale, final: Path) -> None:
    """Build the prepared artifacts in a private directory, then publish it.

    A concurrent run may publish ``final`` first; its copy is as good as
    ours, and it may already be reading it, so ours is discarded.
    """
    work = final.parent / f"tmp-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pipeline = ExperimentPipeline("imdb", scale.corpus)
    trained = pipeline.train_variant("RAAL")
    persistence.save_predictor(
        CostPredictor(trained.encoder, trained.trainer), work / "model")
    train_sqls = list(dict.fromkeys(r.sql for r in pipeline.split.train))
    first_seen: dict[str, list[int]] = {}
    heldout = []
    for record in pipeline.split.test:
        seen = first_seen.setdefault(record.sql, [])
        if id(record.plan) not in seen:
            seen.append(id(record.plan))
        heldout.append({"sql": record.sql,
                        "plan": seen.index(id(record.plan)),
                        "resources": dataclasses.asdict(record.resources),
                        "cost": record.cost_seconds})
    (work / "prepared.json").write_text(json.dumps(
        {"train_sqls": train_sqls, "heldout": heldout}))
    try:
        os.rename(work, final)
    except OSError:
        shutil.rmtree(work, ignore_errors=True)
        if not (final / "prepared.json").exists():
            raise


def heldout_qerror(reference: CostPredictor, prepared: Prepared,
                   catalog) -> float:
    """Median q-error of the served checkpoint on the held-out split."""
    plans = {}
    pairs, observed = [], []
    for row in prepared.heldout:
        if row["sql"] not in plans:
            plans[row["sql"]] = enumerate_plans(
                analyze(parse(row["sql"]), catalog), catalog)
        pairs.append((plans[row["sql"]][row["plan"]],
                      ResourceProfile(**row["resources"])))
        observed.append(row["cost"])
    predicted = reference.predict_many(pairs)
    return statistics.median(q_error(p, o) for p, o in zip(predicted, observed))


# -- accounting --------------------------------------------------------------

_ERRORS = (Overloaded, DeadlineExceeded, ServingError)


@dataclass
class Phase:
    """Requests of one phase, split by outcome and typed error."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0
    fallback: int = 0
    errors: dict = field(default_factory=dict)

    def record(self, response: dict | None,
               error: BaseException | None) -> None:
        self.sent += 1
        if error is not None:
            self.failed += 1
            self.refused += isinstance(error, Overloaded)
            kind = next((cls.__name__ for cls in _ERRORS
                         if isinstance(error, cls)), type(error).__name__)
            self.errors[kind] = self.errors.get(kind, 0) + 1
            return
        self.succeeded += 1
        self.fallback += "source" in response and not learned_at_base(response)

    def merge(self, other: "Phase") -> None:
        for name in ("sent", "succeeded", "failed", "refused", "fallback"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for kind, count in other.errors.items():
            self.errors[kind] = self.errors.get(kind, 0) + count


def learned_at_base(response: dict) -> bool:
    """Served by RAAL at its f64 base tier (no ladder step, no fallback)."""
    return response.get("source") == "raal" and response.get("reason") is None


# -- serving -----------------------------------------------------------------

def _resources(profile: ResourceProfile) -> dict:
    return {f.name: getattr(profile, f.name)
            for f in dataclasses.fields(ResourceProfile)}


@dataclass
class Request:
    """One generated request: its body and the pairs it asks about."""

    statement: str
    profiles: list
    body: dict


class ServingRun:
    """One serving workload: inputs from the seed, set-up, timed loop."""

    def __init__(self, name: str, seed: int, scale: Scale,
                 prepared: Prepared, tamper=None) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.prepared = prepared
        self.tamper = tamper
        self.catalog = build_imdb_catalog(scale=scale.corpus.catalog_scale,
                                          seed=scale.corpus.seed + 7)
        rng = np.random.default_rng(seed)
        if name == "hot_loop":
            # The recurring statements are fixed, so every seed asks for
            # the same plans; the seed draws the profiles and the order.
            self.statements = prepared.train_sqls[:scale.recurring_statements]
            self.profiles = ResourceSampler().sample_many(scale.profiles, rng)
            self.clients = HOT_CLIENTS
        else:
            seen = set(prepared.train_sqls) | {r["sql"] for r in prepared.heldout}
            pool = QueryGenerator(
                self.catalog,
                WorkloadConfig(max_joins=scale.corpus.max_joins,
                               workload="mixed"),
                seed=seed).generate(scale.adhoc_pool)
            self.statements = [s for s in dict.fromkeys(pool) if s not in seen]
            self.profiles = default_profile_grid()
            self.clients = 1
        self._next_adhoc = scale.adhoc_warmup
        self._adhoc_lock = threading.Lock()

    # inputs ------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        return "predict" if self.name == "hot_loop" else "predict_grid"

    def _request(self, statement: str, profiles: list) -> Request:
        if self.endpoint == "predict_grid":
            body = {"sql": statement,
                    "profiles": [_resources(p) for p in profiles]}
        else:
            body = {"sql": statement, "resources": _resources(profiles[0])}
        return Request(statement, profiles, body)

    def warmup_requests(self) -> list[Request]:
        """Fill the caches the timed phase relies on (or, ad hoc, none)."""
        if self.name == "hot_loop":
            return [self._request(s, [p]) for s in self.statements
                    for p in self.profiles]
        return [self._adhoc(i) for i in range(self.scale.adhoc_warmup)]

    def _adhoc(self, i: int) -> Request:
        return self._request(self.statements[i], self.profiles)

    def client_stream(self, client: int):
        """The closed-loop request sequence of one client thread."""
        if self.name == "hot_loop":
            rng = np.random.default_rng([self.seed, client])
            while True:
                yield self._request(
                    self.statements[int(rng.integers(len(self.statements)))],
                    [self.profiles[int(rng.integers(len(self.profiles)))]])
        while True:
            with self._adhoc_lock:
                i = self._next_adhoc
                self._next_adhoc += 1
            if i >= len(self.statements):
                raise RuntimeError(
                    f"ad-hoc pool of {len(self.statements)} statements ran out; "
                    f"raise Scale.adhoc_pool")
            yield self._adhoc(i)

    # set-up ------------------------------------------------------------
    def boot(self) -> tuple[PredictionService, float, float]:
        """load_predictor + boot + install + warm-up; returns timings."""
        start = time.perf_counter()
        predictor = persistence.load_predictor(self.prepared.checkpoint)
        if self.tamper is not None:
            self.tamper(predictor)
        service = PredictionService(
            ServingConfig(catalog_scale=self.scale.corpus.catalog_scale))
        service.install_model(predictor, checkpoint=self.prepared.checkpoint)
        warm_start = time.perf_counter()
        self.warmup = Phase()
        for request in self.warmup_requests():
            call(service, self.endpoint, request, self.warmup)
        end = time.perf_counter()
        return service, end - start, end - warm_start


def call(service: PredictionService, endpoint: str, request: Request,
         phase: Phase) -> tuple[dict | None, float]:
    """Send one request; account it in ``phase``; returns (response, s)."""
    start = time.perf_counter()
    response = error = None
    try:
        response = getattr(service, endpoint)(request.body)
    except Exception as exc:  # every failure is counted by type, not raised
        error = exc
    elapsed = time.perf_counter() - start
    phase.record(response, error)
    return response, elapsed


@dataclass
class Served:
    request: Request
    response: dict
    seconds: float
    client: int
    #: perf_counter when the answer arrived.
    done: float


def closed_loop(run: ServingRun, service: PredictionService,
                seconds: float) -> tuple[list[Served], Phase, float, float]:
    """Each client sends its next request when the last one returns.

    Returns the answers, the phase's accounting, and the start and
    length of the timed window.
    """
    served: list[list[Served]] = [[] for _ in range(run.clients)]
    phases = [Phase() for _ in range(run.clients)]
    failures: list[BaseException] = []
    barrier = threading.Barrier(run.clients + 1)
    stop_at = [math.inf]

    def client(k: int) -> None:
        try:
            stream = run.client_stream(k)
            barrier.wait()
            while time.perf_counter() < stop_at[0]:
                request = next(stream)
                response, elapsed = call(service, run.endpoint, request,
                                         phases[k])
                if response is not None:
                    served[k].append(Served(request, response, elapsed, k,
                                            time.perf_counter()))
        except Exception as exc:  # a broken generator ends the run loudly
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(k,), daemon=True)
               for k in range(run.clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    stop_at[0] = start + seconds
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if failures:
        raise failures[0]
    phase = Phase()
    for p in phases:
        phase.merge(p)
    answers = [s for per in served for s in per]
    return answers, phase, start, wall


#: The timed phase is cut into this many windows of equal length, and
#: throughput and latency are medians over them, so a burst of noise
#: from the rest of the machine moves one window, not the run.
WINDOWS = 10


def windowed(answers: list[Served], start: float,
             wall: float) -> tuple[float, float, float]:
    """Answers per second and p50/p95 latency in ms, each a window median."""
    width = wall / WINDOWS
    windows: list[list[float]] = [[] for _ in range(WINDOWS)]
    for s in answers:
        i = min(max(int((s.done - start) / width), 0), WINDOWS - 1)
        windows[i].append(s.seconds)
    busy = [w for w in windows if w]
    return (statistics.median(len(w) / width for w in windows),
            statistics.median(percentile(w, 50) for w in busy) * 1e3,
            statistics.median(percentile(w, 95) for w in busy) * 1e3)


class Checker:
    """Checks served answers against a separately loaded reference."""

    def __init__(self, run: ServingRun) -> None:
        self.run = run
        self.reference = persistence.load_predictor(run.prepared.checkpoint)
        self._plans: dict[str, list] = {}
        self.problems: list[str] = []

    def plans(self, statement: str) -> list:
        if statement not in self._plans:
            self._plans[statement] = enumerate_plans(
                analyze(parse(statement), self.run.catalog), self.run.catalog)
        return self._plans[statement]

    def pairs(self, request: Request) -> list:
        plans = self.plans(request.statement)
        return [(plan, profile) for profile in request.profiles
                for plan in plans]

    @staticmethod
    def offset(response: dict) -> int:
        if "costs" in response:
            return response["feedback_index"]
        return response["plans"][0]["feedback_index"]

    @staticmethod
    def costs(response: dict) -> np.ndarray:
        if "costs" in response:
            return np.asarray(response["costs"], dtype=float).ravel()
        return np.asarray([p["seconds"] for p in response["plans"]])

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, answers: list[Served]) -> None:
        for s in answers:
            r = s.response
            if r["source"] != "raal":
                self.fail(f"{r['request_id']}: served by {r['source']} "
                          f"({r['reason']}), not by raal")
            if "chosen" in r:
                best = r["plans"][int(np.argmin(self.costs(r)))]["plan"]
                if r["chosen"] != best:
                    self.fail(f"{r['request_id']}: chosen {r['chosen']} is "
                              f"not the argmin {best}")
        # Answers that shared a fused batch share its request id; their
        # offsets rebuild the exact pair list the model scored, so the
        # reference sees the same batch and must agree bit for bit. A
        # batch the latency ladder moved to a cheaper tier is not exact
        # by design; it counts against learned_share instead.
        batches: dict[str, list[Served]] = {}
        for s in answers:
            batches.setdefault(s.response["request_id"], []).append(s)
        complete = [rid for rid, members in batches.items()
                    if sum(len(self.costs(m.response)) for m in members)
                    == members[0].response["batch_pairs"]
                    and all(learned_at_base(m.response) for m in members)]
        rng = np.random.default_rng([self.run.seed, 7])
        picks = rng.permutation(len(complete))[:self.run.scale.checked_batches]
        self.checked = 0
        for i in sorted(picks):
            members = sorted(batches[complete[i]],
                             key=lambda m: self.offset(m.response))
            fused = [pair for m in members for pair in self.pairs(m.request)]
            reference = self.reference.predict_many(fused)
            for m in members:
                labels = [plan.label or plan.signature()
                          for plan in self.plans(m.request.statement)]
                names = (m.response["plans"] if "costs" in m.response
                         else [p["plan"] for p in m.response["plans"]])
                if names != labels:
                    self.fail(f"{complete[i]}: plans differ from the "
                              f"reference enumeration")
                    continue
                lo = self.offset(m.response)
                got = self.costs(m.response)
                want = reference[lo:lo + len(got)]
                if not np.array_equal(got, want):
                    worst = float(np.max(np.abs(got - want) / np.abs(want)))
                    self.fail(f"{complete[i]}: served costs differ from the "
                              f"reference (max relative {worst:.3g})")
            self.checked += 1
        if answers and not self.checked:
            self.fail("no complete batch to re-score")


def feedback_phase(run: ServingRun, service: PredictionService,
                   answers: list[Served], checker: Checker
                   ) -> tuple[Phase, list[float], list[float], int]:
    """Send each client's newest answers their observed runtimes.

    Runs after the timed phase. At this commit the guard's drift
    detector trips on a stationary feedback stream and then diverts
    every later request to the analytic fallback, so feedback
    interleaved with the timed predicts would make the workload measure
    whichever regime a seed happens to land in.
    """
    simulator = SparkSimulator(seed=run.scale.corpus.seed)
    executed: dict[tuple, object] = {}
    truth: dict[tuple, float] = {}
    jobs: list[list[tuple[Served, int, float]]] = []
    for k in range(run.clients):
        mine = [s for s in answers if s.client == k]
        mine = mine[::-1][:run.scale.feedback_per_client]
        client_jobs = []
        for s in mine:
            costs = checker.costs(s.response)
            best = int(np.argmin(costs))
            profile = s.request.profiles[0]
            key = (s.request.statement, best)
            if key not in executed:
                plan = enumerate_plans(analyze(parse(s.request.statement),
                                               run.catalog), run.catalog)[best]
                execute_plan(plan, run.catalog)
                executed[key] = plan
            if key + (id(profile),) not in truth:
                truth[key + (id(profile),)] = simulator.execute(
                    executed[key], profile).runtime_seconds
            client_jobs.append((s, best, truth[key + (id(profile),)]))
        jobs.append(client_jobs)
    phases = [Phase() for _ in jobs]
    latencies: list[list[float]] = [[] for _ in jobs]
    qerrors: list[list[float]] = [[] for _ in jobs]
    missed = [0] * len(jobs)

    def client(k: int) -> None:
        for s, best, observed in jobs[k]:
            body = {"request_id": s.response["request_id"],
                    "observed_seconds": observed,
                    "index": s.response["plans"][best]["feedback_index"]}
            request = Request(s.request.statement, s.request.profiles, body)
            response, elapsed = call(service, "feedback", request, phases[k])
            if response is None:
                continue
            latencies[k].append(elapsed)
            if not response["recorded"]:
                missed[k] += 1
                continue
            expected = q_error(s.response["plans"][best]["seconds"], observed)
            if not math.isclose(response["q_error"], expected, rel_tol=1e-9):
                checker.fail(f"feedback for {body['request_id']} returned "
                             f"q-error {response['q_error']}, expected "
                             f"{expected}")
            qerrors[k].append(response["q_error"])

    threads = [threading.Thread(target=client, args=(k,), daemon=True)
               for k in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase = Phase()
    for p in phases:
        phase.merge(p)
    return (phase, [x for per in latencies for x in per],
            [x for per in qerrors for x in per], sum(missed))


def _counter(service: PredictionService, name: str) -> float:
    metric = service.telemetry.registry.get(name)
    return metric.value if metric is not None else 0.0


def _cache_state(service: PredictionService) -> dict:
    shard = service.registry.shard("default")
    info = shard.current.guard.predictor.encoder.cache_info()
    batcher = shard.batcher.snapshot()
    return {"plan_hits": _counter(service, "serve.plan_cache.hits_total"),
            "plan_misses": _counter(service, "serve.plan_cache.misses_total"),
            "enc_hits": info.hits, "enc_misses": info.misses,
            "batches": batcher["batches"],
            "batch_requests": batcher["coalesced_requests"],
            "batch_pairs": batcher["batched_pairs"]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_serving(name: str, seed: int, seconds: float, trace: bool,
                scale: Scale = FULL, tamper=None) -> dict:
    prepared = prepare(scale)
    run = ServingRun(name, seed, scale, prepared, tamper=tamper)
    tracer = layers.serving_tracer() if trace else None
    if tracer:
        tracer.install()
    setups, warmups = [], []
    for i in range(scale.setups):
        # Each service attaches its own telemetry bundle and detaches
        # it on close, so only one is open at a time.
        setup_start = time.perf_counter()
        service, total, warm = run.boot()
        setups.append((setup_start, total))
        warmups.append(warm)
        if i < scale.setups - 1:
            service.close()
    untraced_rate = None
    try:
        if tracer:
            # Trace overhead: an untraced half, then a traced half.
            tracer.uninstall()
            answers, _, _, wall = closed_loop(run, service, seconds / 2)
            untraced_rate = len(answers) / wall
            tracer.install()
            seconds = seconds / 2
        before = _cache_state(service)
        measured_from = time.perf_counter()
        answers, phase, start, wall = closed_loop(run, service, seconds)
        measured_to = time.perf_counter()
        # Read before the checks below, which parse and execute plans.
        peak_rss = layers.peak_rss_mb()
        after = _cache_state(service)
        if tracer:
            tracer.uninstall()
        guard = service.registry.shard("default").current.guard
        guard_state = {"stats_raal": dataclasses.asdict(guard.stats["raal"]),
                       "ladder": guard.health_state()["ladder"],
                       "ladder_transitions": len(guard.ladder.history),
                       "retries": _counter(service,
                                           "guard.raal.retry_attempts_total")}
        checker = Checker(run)
        checker.check(answers)
        qerror = heldout_qerror(checker.reference, prepared, run.catalog)
        feedback = None
        if name == "hot_loop":
            if tracer:
                tracer.install()
            fb_from = time.perf_counter()
            fb_phase, fb_lat, fb_q, fb_missed = feedback_phase(
                run, service, answers, checker)
            fb_to = time.perf_counter()
            if tracer:
                tracer.uninstall()
            guard_state["drift_trips"] = sum(
                t.reason.startswith("drift trip") for t in guard.ladder.history)
            feedback = {"phase": fb_phase, "latencies": fb_lat,
                        "qerrors": fb_q, "missed": fb_missed,
                        "window": (fb_from, fb_to)}
        audit = guard.audit.snapshot()
    finally:
        if tracer:
            tracer.uninstall()
        service.close()

    learned = sum(learned_at_base(s.response) for s in answers)
    if answers:
        rate, p50, p95 = windowed(answers, start, wall)
    delta = {k: after[k] - before[k] for k in after}
    attempted = phase.sent
    metrics = {
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "throughput_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p95_ms": (p95, "ms"),
        "qerror_p50": (qerror, "ratio"),
        "success_share": (_ratio(phase.succeeded, attempted), "share"),
        "learned_share": (_ratio(learned, len(answers)), "share"),
    } if answers else {}
    phases = {"warmup": dataclasses.asdict(run.warmup),
              "measured": dataclasses.asdict(phase)}
    if feedback:
        phases["feedback"] = dataclasses.asdict(feedback["phase"])
        if feedback["phase"].failed:
            checker.fail(f"{feedback['phase'].failed} feedback calls failed")
    properties = {
        "plan_cache_hit_share": _ratio(
            delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]),
        "encoder_cache_hit_share": _ratio(
            delta["enc_hits"], delta["enc_hits"] + delta["enc_misses"]),
        "requests_per_batch": _ratio(delta["batch_requests"], delta["batches"]),
        "pairs_per_batch": _ratio(delta["batch_pairs"], delta["batches"]),
    }
    result = {
        "correct": not checker.problems and bool(answers),
        "problems": checker.problems,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": metrics,
        "phases": phases,
        "workload_properties": properties,
        "checked_batches": checker.checked,
        "load_generator_threads": run.clients,
        "guard": guard_state,
        "audit": audit,
    }
    if feedback:
        result["feedback"] = {
            "sent": feedback["phase"].sent,
            "missed": feedback["missed"],
            "latency_p50_ms": (percentile(feedback["latencies"], 50) * 1e3
                               if feedback["latencies"] else 0.0),
            "qerror_p50": (statistics.median(feedback["qerrors"])
                           if feedback["qerrors"] else 0.0)}
    if tracer:
        result["per_layer"] = layers.serving_layers(
            tracer, window=(measured_from, measured_to), answers=answers,
            wall=wall, untraced_rate=untraced_rate, setups=setups,
            warmups=warmups, properties=properties, guard_state=guard_state,
            audit=audit, feedback=feedback)
    return result


# -- retrain -----------------------------------------------------------------

class Corpus:
    """The training corpus: catalog, queries, collection, encoding."""

    def __init__(self, scale: Scale) -> None:
        self.pipeline = ExperimentPipeline("imdb", scale.corpus)
        self.spec = variant("RAAL")
        self.train = self.pipeline.samples_for(self.spec, "train")
        self.test = self.pipeline.samples_for(self.spec, "test")


def run_retrain(seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    """Fit RAAL on the corpus again and again for ``seconds``.

    Takes no seed: its input is the fixed corpus, and every fit starts
    from the corpus's seed, so each fit does the same work and reaches
    the same weights. Runs differ by machine noise only.
    """
    tracer = layers.training_tracer() if trace else None
    if tracer:
        tracer.install()
    setups = []
    for _ in range(scale.setups):
        start = time.perf_counter()
        corpus = Corpus(scale)
        setups.append((start, time.perf_counter() - start))
    if tracer:
        tracer.uninstall()
    base = corpus.pipeline.base_model_config(corpus.spec)
    observed = np.array([s.cost_seconds for s in corpus.test])
    encoded_test = [s.encoded for s in corpus.test]

    def fits(budget: float):
        """Fresh, identically seeded fits until ``budget`` seconds pass."""
        out = []
        stop = time.perf_counter() + budget
        while not out or time.perf_counter() < stop:
            model = make_model(corpus.spec, base)
            trainer = Trainer(model, TrainerConfig(
                epochs=scale.fit_epochs, batch_size=scale.corpus.batch_size,
                seed=scale.corpus.seed))
            start = time.perf_counter()
            error = result = None
            try:
                result = trainer.fit(corpus.train)
            except Exception as exc:  # counted as a failed fit
                error = exc
            elapsed = time.perf_counter() - start
            qerror = None
            if result is not None:
                predicted = trainer.predict_seconds(encoded_test)
                qerror = statistics.median(
                    q_error(p, o) for p, o in zip(predicted, observed))
            out.append((result, error, elapsed, qerror))
        return out

    untraced_rate = None
    if tracer:
        half = fits(seconds / 2)
        untraced_rate = _samples_per_s(half, len(corpus.train))
        tracer.install()
        measured_from = time.perf_counter()
        done = fits(seconds / 2)
        measured_to = time.perf_counter()
        tracer.uninstall()
    else:
        done = fits(seconds)
    problems = []
    ok = [(r, e, t, q) for r, e, t, q in done if r is not None]
    for r, e, t, q in done:
        if e is not None:
            problems.append(f"fit failed: {type(e).__name__}: {e}")
        elif not all(math.isfinite(x) for x in r.train_losses + r.val_losses):
            problems.append("fit returned a non-finite loss")
    if len({q for *_, q in ok}) > 1:
        problems.append("identically seeded fits disagree on held-out q-error")
    epochs = [e for r, *_ in ok for e in r.epoch_seconds]
    phase = Phase(sent=len(done), succeeded=len(ok), failed=len(done) - len(ok),
                  fallback=sum(bool(r.recoveries) for r, *_ in ok))
    metrics = {
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "peak_rss_mb": (layers.peak_rss_mb(), "MB"),
        "throughput_per_s": (_samples_per_s(done, len(corpus.train)), "1/s"),
        "latency_p50_ms": (percentile(epochs, 50) * 1e3, "ms"),
        "latency_p95_ms": (percentile(epochs, 95) * 1e3, "ms"),
        "qerror_p50": (ok[0][3], "ratio"),
        "success_share": (len(ok) / len(done), "share"),
        "learned_share": (_ratio(len(ok) - phase.fallback, len(ok)), "share"),
    } if ok else {}
    result = {
        "correct": not problems and bool(ok),
        "problems": problems,
        "attempted": len(done),
        "failed": len(done) - len(ok),
        "metrics": metrics,
        "phases": {"measured": dataclasses.asdict(phase)},
        "workload_properties": {"train_samples": len(corpus.train),
                                "test_samples": len(corpus.test),
                                "epochs_per_fit": scale.fit_epochs},
        "load_generator_threads": 1,
    }
    if tracer:
        result["per_layer"] = layers.training_layers(
            tracer, window=(measured_from, measured_to), fits=len(done),
            rate=_samples_per_s(done, len(corpus.train)),
            untraced_rate=untraced_rate,
            setups=setups)
    return result


def _samples_per_s(fits, samples: int) -> float:
    """Median over the fits of train samples × epochs / fit seconds."""
    rates = [samples * len(r.train_losses) / t
             for r, _, t, _ in fits if r is not None]
    return statistics.median(rates) if rates else 0.0


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: Scale = FULL, tamper=None) -> dict:
    if name == "retrain":
        return run_retrain(seconds, trace, scale)
    return run_serving(name, seed, seconds, trace, scale, tamper=tamper)


if __name__ == "__main__":
    # The child that prepare() starts: corpus settings as JSON, then the
    # directory to publish.
    _build(Scale(corpus=ExperimentScale(**json.loads(sys.argv[1]))),
           Path(sys.argv[2]))
