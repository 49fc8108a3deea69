"""Mini-batch training: loss, Adam, deterministic batching, the epoch loop."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .evaluation import roc_auc
from .model import Batch, HanModel, check_section, collate
from .vocab import EncodedDocument


class TrainingDiverged(RuntimeError):
    pass


class NonFiniteGradient(RuntimeError):
    pass


# TrainConfig field: (type, valid value?, what a valid value is), as check_section reads them
TRAIN_KEYS = {
    "batch_size": (int, lambda v: v >= 1, "an integer >= 1"),
    "epochs": (int, lambda v: v >= 0, "an integer >= 0"),
    "seed": (int, lambda v: v >= 0, "an integer >= 0"),  # SeedSequence refuses a negative seed
    "patience": (int, lambda v: v >= 0, "an integer >= 0"),
    "class_weight": (bool, lambda v: True, "true or false"),
    "lr": ((int, float), lambda v: 0 < v < math.inf, "a finite number > 0"),
    "clip_norm": ((int, float), lambda v: 0 <= v < math.inf, "a finite number >= 0"),
}


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    patience: int = 3  # epochs without val-AUC improvement before stopping
    class_weight: bool = False
    lr: float = 0.001
    clip_norm: float = 5.0

    def __post_init__(self):
        check_section("train", vars(self), TRAIN_KEYS)


def cross_entropy(probs: Tensor, labels, weights: np.ndarray | None = None) -> Tensor:
    """Mean negative log-likelihood of ``[docs x classes]`` probabilities
    against one integer label per document; probabilities clamped below at
    1e-12. Optional per-document weights produce a weighted mean (weights
    normalized to sum to the batch size).
    """
    labels = np.asarray(labels, dtype=np.intp)
    if probs.ndim != 2:
        raise ValueError(f"probabilities must be [docs x classes], got shape {probs.shape}")
    n, k = probs.shape
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must be integers in [0, {k}) with shape ({n},)")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    picked = ad.tsum(ad.mul(probs, onehot), axis=1)
    logp = ad.log(picked, clamp_min=1e-12)
    if weights is None:
        return ad.mul(ad.tmean(logp), -1.0)
    w = np.asarray(weights, dtype=np.float64)
    w = w * (n / w.sum())
    return ad.mul(ad.tmean(ad.mul(logp, w)), -1.0)


def inverse_frequency_weights(labels: np.ndarray) -> np.ndarray:
    """Per-document weights proportional to 1/class-frequency."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=2).astype(np.float64)
    counts[counts == 0] = 1.0
    return 1.0 / counts[labels]


# Adam's moment decays and denominator floor (Kingma and Ba, arXiv 1412.6980)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over named tensors, keeping state for seen rows only.

    ``rows[name]`` holds, sorted, the ids (along axis 0) of the rows whose
    gradient has had a nonzero entry (NaN and inf included) at any step.
    ``m[name]`` and ``v[name]`` are ``[len(rows), ...]`` arrays aligned with
    those ids: a row gets zero moments when it is first seen, and the state
    grows with the rows seen, not with the table. Each step runs the dense
    expressions in place over the seen rows, with two seen-row-sized scratch
    arrays. This is exact: an unseen row has ``m = v = 0`` and a zero
    gradient, so dense Adam would subtract exactly 0.0 from it, which leaves
    every value, ``-0.0`` included, bitwise as it was. A row-set gradient
    whose touched rows are the seen rows is read as it is; otherwise its
    touched rows are copied onto the seen rows, zeros elsewhere. A dense
    gradient is read as the row set of all its rows, and no gradient counts
    as zero.
    """

    def __init__(self, params: Sequence[tuple[str, Tensor]], lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.rows = {name: np.zeros(0, dtype=np.intp) for name, _ in self.params}
        self.m = {name: np.zeros((0, *t.shape[1:])) for name, t in self.params}
        self.v = {name: np.zeros((0, *t.shape[1:])) for name, t in self.params}

    def step(self) -> None:
        """Update every parameter; if any gradient holds a NaN or inf, raise
        ``NonFiniteGradient`` and leave parameters and state as they were."""
        grads = []
        for name, p in self.params:
            if isinstance(p.grad, ad.RowSet):
                ids, val = p.grad.idx, p.grad.val
            elif p.grad is not None:
                ids, val = np.arange(len(p.grad)), p.grad
            else:
                ids, val = np.zeros(0, dtype=np.intp), np.zeros((0, *p.shape[1:]))
            if not np.isfinite(val).all():
                raise NonFiniteGradient(f"non-finite gradient in parameter {name!r}")
            grads.append((ids, val))
        self.step_count += 1
        t = self.step_count
        for (name, p), (ids, val) in zip(self.params, grads):
            touched = val.any(axis=tuple(range(1, val.ndim)))
            if not touched.all():
                ids, val = ids[touched], val[touched]
            rows = self._see(name, ids)
            m, v = self.m[name], self.v[name]
            if ids.size == rows.size:  # the touched rows are the seen rows
                g, scratch = val, np.empty_like(m)
            else:
                g = scratch = np.zeros_like(m)
                g[np.searchsorted(rows, ids)] = val
            step = np.empty_like(m)
            m *= _BETA1
            m += np.multiply(g, 1.0 - _BETA1, out=step)
            v *= _BETA2
            np.multiply(g, 1.0 - _BETA2, out=step)
            step *= g
            v += step
            # lr * m_hat / (sqrt(v_hat) + eps); g is not read again
            np.divide(m, 1.0 - _BETA1**t, out=step)
            step *= self.lr
            np.divide(v, 1.0 - _BETA2**t, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += _EPS
            step /= scratch
            if rows.size == len(p.data):  # every row seen: rows is arange
                p.data -= step
            else:
                np.take(p.data, rows, axis=0, out=scratch)
                scratch -= step
                p.data[rows] = scratch

    def _see(self, name: str, ids: np.ndarray) -> np.ndarray:
        """Add ``ids`` to the seen rows, new ones with zero moments; return the seen rows."""
        rows = self.rows[name]
        merged = np.union1d(rows, ids)
        if merged.size > rows.size:
            old = np.searchsorted(merged, rows)
            for moments in (self.m, self.v):
                grown = np.zeros((merged.size, *moments[name].shape[1:]))
                grown[old] = moments[name]
                moments[name] = grown
            self.rows[name] = merged
        return self.rows[name]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()


def clip_gradients(params: Sequence[tuple[str, Tensor]], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most ``max_norm``; a
    row set's rows stand for its whole table, the other rows being zero."""
    grads = [p.grad.val if isinstance(p.grad, ad.RowSet) else p.grad for _, p in params if p.grad is not None]
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def make_batches(
    docs: Sequence[EncodedDocument], batch_size: int, seed: int, epoch: int
) -> list[Batch]:
    """Shuffle deterministically by (seed, epoch), pad each batch to its maxima."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, epoch, 0xBA7C])))
    order = rng.permutation(len(docs))
    batches = []
    for lo in range(0, len(docs), batch_size):
        batches.append(collate([docs[i] for i in order[lo : lo + batch_size]]))
    return batches


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_auc: float
    seconds: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class TrainResult:
    log: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    steps: int = 0


def train(
    model: HanModel,
    train_docs: Sequence[EncodedDocument],
    val_docs: Sequence[EncodedDocument],
    cfg: TrainConfig,
) -> TrainResult:
    """Run the epoch loop and leave the best-validation-AUC parameters in place.

    Validation AUC is computed in evaluation mode each epoch; early stopping
    kicks in after ``patience`` epochs without improvement.
    """
    train_ids = {id(d) for d in train_docs}
    if any(id(d) in train_ids for d in val_docs):
        raise ValueError("train and validation sets must be disjoint")

    trainable = model.trainable()
    opt = Adam(trainable, lr=cfg.lr)
    result = TrainResult()
    val_labels = np.array([d.label for d in val_docs], dtype=np.intp)

    best_auc = -np.inf
    best_snapshot: dict[str, np.ndarray] | None = None
    stale = 0
    step = 0

    for epoch in range(cfg.epochs):
        started = time.monotonic()
        losses = []
        for bi, batch in enumerate(make_batches(train_docs, cfg.batch_size, cfg.seed, epoch)):
            weights = (
                inverse_frequency_weights(batch.labels) if cfg.class_weight else None
            )
            with ad.Tape() as tape:
                probs, _, _ = model.forward_batch(batch, training=True, step=step)
                loss = cross_entropy(probs, batch.labels, weights=weights)
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {bi}")
            opt.zero_grad()
            tape.backward(loss)
            # the activations are not read again: free them before the
            # clipping and Adam temporaries are allocated
            del tape, probs
            clip_gradients(trainable, cfg.clip_norm)
            opt.step()
            losses.append(loss.item())
            step += 1

        val_auc = float("nan")
        if len(val_docs) and len(np.unique(val_labels)) == 2:
            val_auc = roc_auc(model.score(val_docs, batch_size=cfg.batch_size), val_labels)
        record = EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            val_auc=val_auc,
            seconds=time.monotonic() - started,
        )
        result.log.append(record)

        score = val_auc if np.isfinite(val_auc) else -record.train_loss
        if score > best_auc:
            best_auc = score
            if epoch == cfg.epochs - 1:
                # nothing changes the parameters after the last epoch: keep no copy
                best_snapshot = None
            elif best_snapshot is None:
                best_snapshot = {k: t.data.copy() for k, t in model.params.items()}
            else:
                # into the copy already held: never two copies at once
                for k, t in model.params.items():
                    np.copyto(best_snapshot[k], t.data)
            result.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if cfg.patience > 0 and stale >= cfg.patience:
                break

    if best_snapshot is not None:
        for k, t in model.params.items():
            t.data[...] = best_snapshot[k]
    result.steps = step
    return result
