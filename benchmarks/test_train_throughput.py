"""Training throughput: the fused analytic backward vs autograd.

Measures epoch throughput (samples/sec) for ``Trainer.fit`` on the
paper-sized RAAL configuration, on the fast path (graph-free forward
with cached activations + closed-form backward + epoch-persistent
bucketed collation) and on the legacy path (the same fit with the
model's kernels patched by ``tests.autograd_oracle`` to per-timestep
autograd graph construction and traversal). Also records the maximum
per-parameter gradient deviation between the two paths on one training
batch, so the speedup claim and the correctness bound live in the same
artifact.

Two sample sets are measured side by side:

* ``distinct`` — every sample is its own plan;
* ``repeated`` — each plan appears under ``RESOURCE_STATES`` resource
  vectors, the count data collection uses
  (``ExperimentScale.resource_states_per_plan``, 5). Here the fused step
  runs the plan side once per distinct plan in each batch, and the
  gradient deviation is taken on a batch that holds repeats.

Each set also records ``distinct_row_share``: distinct plans per batch
over rows, the share of rows the plan side runs on. With few plans per
node count, the repeated set's copies share buckets far more than a
collected corpus's do (the 120-query ``retrain`` corpus: 58.7%), so its
speedup is an upper bound for collected data, not an estimate of it.

Results go to ``BENCH_training.json`` at the repo root, alongside
``BENCH_inference.json``, so future PRs have a perf trajectory to
regress against.

Expected shape, on both sets: ≥ 3× samples/sec for the fused path,
gradient deviation ≤ 1e-8.

Scale overrides: ``REPRO_BENCH_TRAIN_SAMPLES`` (default 256, per set)
and ``REPRO_BENCH_TRAIN_EPOCHS`` (default 3). CI smoke runs on shared
runners can relax the speedup bar with
``REPRO_BENCH_TRAIN_MIN_SPEEDUP`` (default 3.0); the gradient bound is
scale-independent and never relaxed.
"""

from __future__ import annotations

import os
import pathlib
from contextlib import nullcontext

import numpy as np

from benchmarks.runmeta import write_bench_json
from benchmarks.conftest import publish
from repro.core import RAAL, RAALConfig, Trainer, TrainerConfig
from repro.core.trainer import TrainingSample
from repro.encoding import EncodedPlan
from repro.eval import render_table
from repro.eval.experiments import ExperimentScale
from repro.nn.layers import Dropout
from tests.autograd_oracle import autograd_gradients, autograd_kernels

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_training.json"

N_SAMPLES = int(os.environ.get("REPRO_BENCH_TRAIN_SAMPLES", "256"))
N_EPOCHS = int(os.environ.get("REPRO_BENCH_TRAIN_EPOCHS", "3"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_TRAIN_MIN_SPEEDUP", "3.0"))
BATCH_SIZE = 32
MAX_NODES = 24
#: Resource states per plan in the repeated set, as data collection runs.
RESOURCE_STATES = ExperimentScale().resource_states_per_plan

#: The paper's model size (Sec. V-B): 60-dim nodes, 48 hidden units.
MODEL_CONFIG = RAALConfig()


def _random_samples(config, count, max_n, seed=0, states=1):
    """``count`` samples over ``count / states`` random plans.

    Each plan is repeated under ``states`` resource vectors (with its
    own copies of the plan arrays, as collection produces them); the
    samples are shuffled so the repeats spread over the corpus.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(3, max_n + 1))
        child = np.zeros((n, n), dtype=bool)
        for i in range(1, n):
            child[i, rng.integers(0, i)] = True
        feats = rng.normal(size=(n, config.node_dim))
        for _ in range(min(states, count - len(out))):
            encoded = EncodedPlan(
                node_features=feats.copy(),
                child_mask=child.copy(),
                resources=rng.random(config.resource_dim),
                extras=rng.random(config.extras_dim),
            )
            out.append(TrainingSample(encoded, float(rng.random() * 30.0)))
    if states > 1:
        out = [out[i] for i in rng.permutation(len(out))]
    return out


def _fit_throughput(autograd: bool, samples, repeats: int = 2) -> dict[str, float]:
    """Train fresh models for N_EPOCHS each; return samples/sec stats.

    ``autograd`` routes each model's kernels through the autograd
    oracle. ``samples_per_sec`` is the best epoch across ``repeats``
    runs — the best-of-N idiom the inference benchmark uses, which
    measures the code path rather than scheduler noise on a shared box.
    """
    results = []
    for _ in range(repeats):
        model = RAAL(MODEL_CONFIG)
        trainer = Trainer(model, TrainerConfig(
            epochs=N_EPOCHS, batch_size=BATCH_SIZE,
            early_stopping_patience=N_EPOCHS))
        with autograd_kernels(model) if autograd else nullcontext():
            results.append(trainer.fit(samples))
    n_train = len(samples) - max(1, int(len(samples) * 0.1))
    total_epochs = sum(len(r.epoch_seconds) for r in results)
    total_seconds = sum(sum(r.epoch_seconds) for r in results)
    return {
        "epochs": total_epochs,
        "epoch_seconds_mean": total_seconds / total_epochs,
        "epoch_seconds_best": min(min(r.epoch_seconds) for r in results),
        "samples_per_sec": max(max(r.samples_per_sec) for r in results),
        "samples_per_sec_mean": n_train * total_epochs / total_seconds,
        "final_train_loss": results[-1].final_train_loss,
    }


def _gradient_deviation(samples, repeated: bool) -> float:
    """Max per-parameter |fused − autograd| gradient on one train batch.

    Runs in train mode with dropout active; the fused pass replays the
    autograd pass's dropout masks by restoring each layer's rng state.
    The batch is the first ``BATCH_SIZE`` samples; on the repeated set it
    holds repeats, so the deviation covers the distinct-plan step.
    """
    model = RAAL(MODEL_CONFIG).train()
    trainer = Trainer(model, TrainerConfig(batch_size=BATCH_SIZE))
    batch = trainer._collate_bucketed(samples[:BATCH_SIZE])[0]
    if repeated:
        assert batch.plan_index is not None, "repeated set: batch has no repeats"
    droppers = [l for l in model.dense if isinstance(l, Dropout)]
    states = [l._rng.bit_generator.state for l in droppers]
    _, reference = autograd_gradients(model, batch)
    for layer, state in zip(droppers, states):
        layer._rng.bit_generator.state = state
    model.zero_grad()
    model.forward_backward(batch)
    return max(float(np.max(np.abs(p.grad - reference[n])))
               for n, p in model.named_parameters())


def _distinct_row_share(samples) -> float:
    """Share of rows the plan side runs on: distinct plans per batch / rows.

    Taken over the set collated into length-bucketed batches of
    ``BATCH_SIZE``, as ``Trainer.fit`` batches it.
    """
    batches = Trainer(None, TrainerConfig(batch_size=BATCH_SIZE)
                      )._collate_bucketed(samples)
    distinct = sum(b.size if b.plan_rows is None else b.plan_rows.size
                   for b in batches)
    return distinct / sum(b.size for b in batches)


def _measure(samples, repeated: bool) -> dict:
    """Fast vs legacy throughput and the gradient deviation on one set."""
    fast = _fit_throughput(False, samples)
    legacy = _fit_throughput(True, samples)
    return {
        "fast": fast,
        "legacy": legacy,
        "speedup": fast["samples_per_sec"] / legacy["samples_per_sec"],
        "distinct_row_share": _distinct_row_share(samples),
        "max_grad_deviation": _gradient_deviation(samples, repeated),
    }


def test_train_throughput():
    sets = {
        "distinct": _random_samples(MODEL_CONFIG, N_SAMPLES, MAX_NODES),
        "repeated": _random_samples(MODEL_CONFIG, N_SAMPLES, MAX_NODES,
                                    states=RESOURCE_STATES),
    }

    # Warm both paths (BLAS thread pools, allocator) before timing.
    warm = _random_samples(MODEL_CONFIG, 32, MAX_NODES, seed=1)
    _fit_throughput(False, warm)
    _fit_throughput(True, warm)

    measured = {name: _measure(samples, repeated=(name == "repeated"))
                for name, samples in sets.items()}
    results = {
        **measured,
        "config": {
            "samples": N_SAMPLES,
            "epochs": N_EPOCHS,
            "batch_size": BATCH_SIZE,
            "max_nodes": MAX_NODES,
            "resource_states_per_plan": RESOURCE_STATES,
            "node_dim": MODEL_CONFIG.node_dim,
            "hidden_size": MODEL_CONFIG.hidden_size,
        },
    }
    write_bench_json(BENCH_JSON, results)

    rows = []
    for name, m in measured.items():
        for path in ("fast", "legacy"):
            stats = m[path]
            rows.append([name, path,
                         f"{stats['samples_per_sec']:.0f}",
                         f"{stats['epoch_seconds_mean'] * 1e3:.0f}",
                         f"{stats['final_train_loss']:.4f}"])
        rows.append([name, "speedup", f"{m['speedup']:.1f}x", "", ""])
        rows.append([name, "distinct rows per batch",
                     f"{m['distinct_row_share']:.1%}", "", ""])
        rows.append([name, "max grad deviation",
                     f"{m['max_grad_deviation']:.2e}", "", ""])
    publish("train_throughput", render_table(
        f"Training throughput — fused analytic backward vs autograd "
        f"({N_SAMPLES} samples per set, {N_EPOCHS} epochs; repeated set: "
        f"{RESOURCE_STATES} resource states per plan)",
        ["samples", "path", "samples/sec", "epoch (ms)", "final loss"], rows))

    # Shape: on both sets the fused step must carry the training loop
    # at least 3x faster while remaining gradient-equivalent to autograd.
    for m in measured.values():
        assert m["speedup"] >= MIN_SPEEDUP, results
        assert m["max_grad_deviation"] <= 1e-8, results
