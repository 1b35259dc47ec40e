"""Self-test of the benchmark at tiny scale.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest

from repro.eval.experiments import ExperimentScale
from repro.reliability.faults import FaultInjector

import layers
import workloads
from tracing import Tracer, self_times

TINY = workloads.Scale(
    corpus=ExperimentScale(
        catalog_scale=0.08, num_queries=24, resource_states_per_plan=2,
        word2vec_dim=12, word2vec_epochs=1, hidden_size=24, embedding_dim=24,
        epochs=3, max_joins=3),
    recurring_statements=4, profiles=3, adhoc_pool=40, adhoc_warmup=2,
    fit_epochs=2, setups=2, checked_batches=8, feedback_per_client=10)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name):
    result = workloads.run(name, seed=3, seconds=1.0, trace=False, scale=TINY)
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in result["metrics"].items()} == units
    assert all(v > 0 for v, _ in result["metrics"].values())

    traced = workloads.run(name, seed=3, seconds=1.0, trace=True, scale=TINY)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layers.PER_LAYER == units
    assert set(traced["per_layer"]) == set(units)


def test_hot_loop_passes_its_check():
    result = workloads.run("hot_loop", seed=3, seconds=1.0, trace=False,
                           scale=TINY)
    assert result["correct"], result["problems"]
    assert result["checked_batches"] > 0


@pytest.mark.parametrize("value", [float("nan"), 0.5])
def test_check_fails_on_corrupted_weights(value):
    def corrupt(predictor):
        FaultInjector(seed=0).corrupt_weights(predictor.trainer.model,
                                              value=value)

    result = workloads.run("hot_loop", seed=3, seconds=1.0, trace=False,
                           scale=TINY, tamper=corrupt)
    assert not result["correct"]
    assert result["problems"]



def test_cold_cache_trains_outside_the_measured_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("trained in the measured process")

    monkeypatch.setattr(workloads, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(workloads, "ExperimentPipeline", refuse)
    result = workloads.run("hot_loop", seed=3, seconds=1.0, trace=False,
                           scale=TINY)
    assert result["correct"], result["problems"]
    assert [p.name for p in tmp_path.iterdir()] == [workloads._digest(TINY)]


def test_a_second_build_leaves_the_published_one_alone(tmp_path):
    final = tmp_path / "prepared"
    workloads._build(TINY, final)
    marker = final / "in-use"
    marker.write_text("a run is reading this directory")
    workloads._build(TINY, final)
    assert marker.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["prepared"]

def test_self_times_of_a_nested_trace_add_up():
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = Clock()

    class Layers:
        def outer(self):
            clock.now += 1.0
            self.inner()
            clock.now += 2.0
            self.inner()
            clock.now += 0.5

        def inner(self):
            clock.now += 3.0
            self.leaf()

        def leaf(self):
            clock.now += 0.25

    tracer = Tracer(clock=clock)
    for name in ("outer", "inner", "leaf"):
        tracer.add(Layers, name, name)
    tracer.install()
    try:
        Layers().outer()
    finally:
        tracer.uninstall()
    assert Layers.outer.__name__ == "outer"  # the original is back

    own = self_times(tracer.spans)
    by_name: dict[str, float] = {}
    for span in tracer.spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + own[span.id]
    root = next(s for s in tracer.spans if s.parent is None)
    assert root.duration == pytest.approx(10.0)
    assert by_name == pytest.approx({"outer": 3.5, "inner": 6.0, "leaf": 0.5})
    assert sum(own.values()) == pytest.approx(root.duration)
