"""Autograd oracle: the reference the fused RAAL kernels are held to.

Production code trains RAAL-family models only through
``RAAL.forward_backward`` and serves them only through
``RAAL.forward_inference``. This module computes the same quantities
through the Tensor/autograd forward ``RAAL.forward``, the per-call graph
the fused kernels were derived from. Tests import it as
``tests.autograd_oracle``; the benchmark harnesses run with
``PYTHONPATH=src:.`` and import it the same way.

* :func:`autograd_predict_log` / :func:`autograd_predict_seconds` —
  predictions from ``model(collate(...))`` under ``no_grad``;
* :func:`autograd_step` / :func:`autograd_gradients` — one batch's MSE
  forward and backward;
* :func:`autograd_kernels` — routes one model's fused kernels through
  autograd, so ``Trainer.fit``, its validation and every predict path
  walk the autograd trajectory with no trainer option.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.execution import collate_inference
from repro.nn import Tensor, mse_loss, no_grad


def autograd_predict_log(model, encoded, batch_size: int = 1) -> np.ndarray:
    """Log-space predictions through ``RAAL.forward``, in input order.

    Plans run in arrival-order batches of ``batch_size``; the default of
    one plan per forward is the per-plan reference.
    """
    model.eval()
    out = np.empty(len(encoded))
    with no_grad():
        for lo in range(0, len(encoded), batch_size):
            batch = collate_inference(encoded[lo:lo + batch_size], np.float64)
            out[lo:lo + batch_size] = model(batch).numpy()
    return out


def autograd_predict_seconds(trainer, encoded,
                             batch_size: int = 1) -> np.ndarray:
    """:func:`autograd_predict_log` clamped and mapped to seconds as
    ``Trainer.predict_seconds`` maps its log predictions."""
    return trainer._seconds_from_log(
        autograd_predict_log(trainer.model, encoded, batch_size))


def autograd_step(model, batch) -> tuple[float, np.ndarray]:
    """MSE forward and backward of one batch through autograd.

    The contract of ``RAAL.forward_backward``: gradients accumulate into
    each parameter's ``.grad`` and ``(loss, predictions)`` comes back.
    """
    pred = model(batch)
    loss = mse_loss(pred, Tensor(batch.targets))
    loss.backward()
    return float(loss.data), pred.numpy()


def autograd_gradients(model, batch) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and per-parameter gradients of one batch, from zeroed grads."""
    model.zero_grad()
    loss, _ = autograd_step(model, batch)
    return loss, {name: p.grad.copy() for name, p in model.named_parameters()}


@contextmanager
def autograd_kernels(model):
    """Route ``model``'s fused kernels through autograd while inside.

    ``forward_backward`` becomes :func:`autograd_step` and
    ``forward_inference`` the autograd forward. Its callers (the
    trainer's validation and the bucket executor) already hold
    ``no_grad``. The precision bundle is ignored, so serve at f64 only.
    The patch lives on this instance; other models are untouched.
    """
    model.forward_backward = lambda batch: autograd_step(model, batch)
    model.forward_inference = lambda batch, weights=None: model(batch).numpy()
    try:
        yield model
    finally:
        del model.forward_backward
        del model.forward_inference
