"""Mini-batch training: loss, Adam, deterministic batching, the epoch loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .evaluation import roc_auc
from .model import Batch, HanModel, collate
from .vocab import EncodedDocument


class TrainingDiverged(RuntimeError):
    pass


class NonFiniteGradient(RuntimeError):
    pass


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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def cross_entropy(probs: Tensor, labels, weights: np.ndarray | None = None) -> Tensor:
    """Mean negative log-likelihood; probabilities clamped below at 1e-12.

    Accepts a single probability vector with an integer label, or a
    ``[docs x 2]`` matrix with a label array. Optional per-document weights
    produce a weighted mean (weights normalized to sum to the batch size).
    """
    single = probs.ndim == 1
    if single:
        probs = ad.reshape(probs, (1, probs.size))
        labels = [labels]
    labels = np.asarray(labels, dtype=np.intp)
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


class Adam:
    """Bias-corrected Adam over named tensors, updating only rows seen so far.

    ``seen[name]`` marks the rows (along axis 0) whose gradient has had a
    nonzero entry (NaN and inf included) at any step. The update runs the
    dense expressions on those rows only. This is exact: an unseen row has
    ``m = v = 0`` and a zero gradient, so dense Adam would subtract exactly
    0.0 from it, which leaves every value, ``-0.0`` included, bitwise as it
    was. ``m`` and ``v`` are dense;
    ``np.zeros`` leaves the pages of never-written rows unmapped.
    """

    def __init__(self, params: Sequence[tuple[str, Tensor]], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros(t.shape) for name, t in self.params}
        self.v = {name: np.zeros(t.shape) for name, t in self.params}
        self.seen = {name: np.zeros(t.shape[:1], dtype=bool) for name, t in self.params}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            seen = self.seen[name]
            seen |= g.any(axis=tuple(range(1, g.ndim)))
            rows = np.flatnonzero(seen)
            g = g[rows]
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"non-finite gradient in parameter {name!r}")
            m = self.m[name][rows]
            v = self.v[name][rows]
            data = p.data[rows]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            self.m[name][rows] = m
            self.v[name][rows] = v
            p.data[rows] = data

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()


def clip_gradients(params: Sequence[tuple[str, Tensor]], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most ``max_norm``."""
    total = 0.0
    for _, p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, p in params:
            if p.grad is not None:
                p.grad *= scale
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
    best_val_auc: float = float("nan")
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
            # nothing changes the parameters after the last epoch: keep no copy
            last = epoch == cfg.epochs - 1
            best_snapshot = None if last else {k: t.data.copy() for k, t in model.params.items()}
            result.best_epoch = epoch
            result.best_val_auc = val_auc
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
