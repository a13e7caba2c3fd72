"""Local training and evaluation loops shared by clients, attacks and metrics."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..data.dataset import DataLoader
from ..nn import functional as F
from ..nn import trace as nn_trace
from ..nn.modules import Module
from ..nn.optim import SGD
from ..nn.tensor import Tensor, no_grad
from .types import LocalTrainingConfig

__all__ = ["train_on_arrays", "train_local_model", "evaluate_model", "predict_proba"]


def train_on_arrays(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    config: LocalTrainingConfig,
    rng: np.random.Generator,
    extra_loss: Optional[callable] = None,
) -> List[float]:
    """Train ``model`` in place on an array dataset and return per-epoch losses.

    Parameters
    ----------
    extra_loss:
        Optional callable ``extra_loss(model) -> Tensor`` added to the
        cross-entropy loss of every batch.  The DFA attacks use this hook for
        their distance-based regularization term.

    When ``config.trace`` is ``"replay"`` (or ``"auto"``, which resolves
    to replay here unless the simulation has already picked an engine)
    and the model declares a ``trace_signature``, each distinct batch
    shape runs through the recorded-tape engine of :mod:`repro.nn.trace`:
    the first step records (eagerly — so it is also a normal step) and
    later steps replay a preallocated buffer plan, bit-identical to the
    eager loop.  ``extra_loss`` models, shape changes and untraceable ops
    all fall back to eager per step, never erroring.
    """
    optimizer = SGD(
        model.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    session = None
    if extra_loss is None and getattr(config, "trace", "auto") != "eager":
        session = nn_trace.session_for(model)
    num_samples = images.shape[0]
    epoch_losses: List[float] = []
    for _ in range(config.local_epochs):
        order = rng.permutation(num_samples)
        batch_losses: List[float] = []
        for start in range(0, num_samples, config.batch_size):
            batch = order[start : start + config.batch_size]
            optimizer.zero_grad()
            loss_value: Optional[float] = None
            if session is not None:
                loss_value = session.step(images[batch], labels[batch])
            if loss_value is None:
                logits = model(Tensor(images[batch]))
                loss = F.cross_entropy(logits, labels[batch])
                if extra_loss is not None:
                    loss = loss + extra_loss(model)
                loss.backward()
                loss_value = float(loss.item())
            optimizer.step()
            batch_losses.append(loss_value)
        epoch_losses.append(float(np.mean(batch_losses)))
    return epoch_losses


def train_local_model(
    model: Module,
    dataset,
    config: LocalTrainingConfig,
    rng: np.random.Generator,
) -> List[float]:
    """Train ``model`` on a dataset object that exposes ``arrays()``."""
    images, labels = dataset.arrays()
    return train_on_arrays(model, images, labels, config, rng)


def evaluate_model(model: Module, dataset, batch_size: int = 128) -> Tuple[float, float]:
    """Return ``(accuracy, mean cross-entropy loss)`` of ``model`` on a dataset.

    Accuracy and loss are accumulated as running sums — no per-batch Python
    lists are built, and the loss is weighted by batch length exactly once.
    """
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    correct = 0
    total = 0
    loss_sum = 0.0
    with no_grad():
        for images, labels in loader:
            logits = model(Tensor(images))
            loss_sum += float(F.cross_entropy(logits, labels).item()) * len(labels)
            predictions = logits.data.argmax(axis=1)
            correct += int((predictions == labels).sum())
            total += len(labels)
    if total == 0:
        return 0.0, 0.0
    return correct / total, loss_sum / total


def predict_proba(
    model: Module,
    images: np.ndarray,
    batch_size: int = 256,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Class-probability predictions of ``model`` for a batch of images.

    Each batch's probabilities are written straight into one output matrix
    (preallocated by the caller via ``out``, or allocated once after the
    first batch reveals the class count) instead of growing a Python list
    and concatenating at the end.
    """
    num_samples = images.shape[0]
    if out is not None and (out.ndim != 2 or out.shape[0] != num_samples):
        raise ValueError(
            f"out buffer has shape {out.shape}, expected ({num_samples}, num_classes)"
        )
    with no_grad():
        for start in range(0, num_samples, batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            probs = F.softmax(logits, axis=-1).data
            if out is None:
                out = np.empty((num_samples, probs.shape[1]), dtype=probs.dtype)
            elif out.shape[1] != probs.shape[1]:
                raise ValueError(
                    f"out buffer has {out.shape[1]} columns, model predicts {probs.shape[1]} classes"
                )
            out[start : start + probs.shape[0]] = probs
    if out is None:
        out = np.empty((0, 0), dtype=np.float32)
    return out
