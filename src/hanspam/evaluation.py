"""Classification metrics, rank-based AUC, stratified folds, cross-corpus grid.

The spam class is positive everywhere. The 5x5 evaluation grid trains one
model per source corpus and scores every target corpus; diagonal cells use
each corpus's own protocol (stratified 10-fold, original parts as folds, or
an original train/test split), off-diagonal cells train on the full source
and score the full target. Aggregates are the mean and population standard
deviation of the diagonal (same-dataset) and off-diagonal (cross-dataset)
cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class UndefinedAUCError(ValueError):
    """AUC needs at least one positive and one negative example."""


class FoldError(ValueError):
    pass


class PartialMatrixError(ValueError):
    pass


# the per-cell metrics, in the order every table and record lists them
METRICS = ("accuracy", "precision", "recall", "f1", "auc")


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_scores(cls, scores, labels) -> "ConfusionCounts":
        """Counts with a document predicted spam when its score is at least 0.5."""
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.intp)
        pred = scores >= 0.5
        pos = labels == 1
        return cls(
            tp=int(np.sum(pred & pos)),
            fp=int(np.sum(pred & ~pos)),
            tn=int(np.sum(~pred & ~pos)),
            fn=int(np.sum(~pred & pos)),
        )


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float


def confusion_metrics(counts: ConfusionCounts) -> Metrics:
    """Accuracy, precision, recall, F1; a ratio with a zero denominator is 0."""
    if counts.total == 0:
        raise ValueError("confusion_metrics needs at least one evaluated document")
    accuracy = (counts.tp + counts.tn) / counts.total
    predicted, actual = counts.tp + counts.fp, counts.tp + counts.fn
    precision = counts.tp / predicted if predicted else 0.0
    recall = counts.tp / actual if actual else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return Metrics(accuracy, precision, recall, f1)


def roc_auc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting half.

    Computed from average ranks in O(n log n); exactly equals the all-pairs
    count with 0.5 per tie.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and aligned")
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("roc_auc needs both classes present")

    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # a tie block starts where a sorted score differs from the one before it
    # (NaN differs from every score, so each NaN is a block of its own)
    start = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    end = np.append(start[1:], scores.size) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)  # average rank, 1-based
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def stratified_kfold(labels, k: int = 10, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic class-proportional partition into k (train, test) splits."""
    labels = np.asarray(labels, dtype=np.intp)
    if k < 2:
        raise FoldError(f"k must be >= 2 (k={k} leaves no held-out data)")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xF01D])))
    fold_of = np.empty(labels.size, dtype=np.intp)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise FoldError(f"class {cls} has {idx.size} members, fewer than k={k}")
        idx = idx[rng.permutation(idx.size)]
        fold_of[idx] = np.arange(idx.size) % k
    splits = []
    everything = np.arange(labels.size)
    for f in range(k):
        test = everything[fold_of == f]
        train = everything[fold_of != f]
        splits.append((train, test))
    return splits


def aggregate(values) -> tuple[float, float]:
    """Arithmetic mean and population (N-divisor) standard deviation."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("aggregate needs at least one value")
    return float(arr.mean()), float(arr.std(ddof=0))


@dataclass
class EvalCell:
    train_id: str
    test_id: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def evaluate_scores(scores, labels, train_id: str = "", test_id: str = "") -> EvalCell:
    m = confusion_metrics(ConfusionCounts.from_scores(scores, labels))
    return EvalCell(
        train_id=train_id,
        test_id=test_id,
        accuracy=m.accuracy,
        precision=m.precision,
        recall=m.recall,
        f1=m.f1,
        auc=roc_auc(scores, labels),
    )


@dataclass
class EvalMatrix:
    dataset_ids: list[str]
    cells: dict[tuple[str, str], EvalCell]
    sd_avg: tuple[float, float]  # diagonal mean, population stddev
    cd_avg: tuple[float, float]  # off-diagonal mean, population stddev

    def records(self) -> list[dict]:
        recs = [self.cells[key].as_dict() for key in sorted(self.cells)]
        recs.append({"aggregate": "sd_avg", "mean": self.sd_avg[0], "stddev": self.sd_avg[1]})
        recs.append({"aggregate": "cd_avg", "mean": self.cd_avg[0], "stddev": self.cd_avg[1]})
        return recs

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records()) + "\n"

    def to_tsv(self) -> str:
        lines = ["\t".join(["train", "test", *METRICS])]
        for key in sorted(self.cells):
            c = self.cells[key]
            lines.append("\t".join([c.train_id, c.test_id] + [f"{getattr(c, m):.6f}" for m in METRICS]))
        skip = "\t" * (len(METRICS) + 1)  # an aggregate's value sits in the last column
        for name, (mean, sd) in (("sd_avg", self.sd_avg), ("cd_avg", self.cd_avg)):
            lines.append(f"{name}{skip}{mean:.6f} ({sd:.6f})")
        return "\n".join(lines) + "\n"

    def render_auc_grid(self) -> str:
        ids = self.dataset_ids
        width = max(6, *(len(i) for i in ids)) + 2
        head = "test\\train".ljust(width) + "".join(i.rjust(width) for i in ids)
        rows = [head]
        for test_id in ids:
            row = test_id.ljust(width)
            for train_id in ids:
                row += f"{self.cells[(train_id, test_id)].auc:.3f}".rjust(width)
            rows.append(row)
        rows.append(f"SD AVG {self.sd_avg[0]:.4f} ({self.sd_avg[1]:.4f})")
        rows.append(f"CD AVG {self.cd_avg[0]:.5f} ({self.cd_avg[1]:.4f})")
        return "\n".join(rows) + "\n"


def aggregate_matrix(dataset_ids: Sequence[str], cells: dict[tuple[str, str], EvalCell]) -> EvalMatrix:
    ids = list(dataset_ids)
    missing = [(a, b) for a in ids for b in ids if (a, b) not in cells]
    if missing:
        raise PartialMatrixError(f"missing cells: {missing}")
    diag = [cells[(i, i)].auc for i in ids]
    off = [cells[(a, b)].auc for a in ids for b in ids if a != b]
    return EvalMatrix(ids, cells, aggregate(diag), aggregate(off))


DIAGONAL_PROTOCOLS = ("cv", "groups_as_folds", "original_split")


@dataclass
class DatasetSpec:
    """One corpus plus its same-dataset evaluation protocol.

    ``diagonal`` is one of ``cv`` (stratified k-fold), ``groups_as_folds``
    (each distinct ``group`` value held out once), or ``original_split``
    (train on group 'train', validate on 'adapt' when present, test on
    'test').
    """

    name: str
    docs: Sequence
    labels: np.ndarray
    groups: list[str] | None = None
    diagonal: str = "cv"

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.diagonal not in DIAGONAL_PROTOCOLS:
            raise ValueError(f"unknown diagonal protocol {self.diagonal!r}")
        if self.diagonal != "cv" and not self.groups:
            raise ValueError(f"{self.name}: diagonal {self.diagonal!r} needs groups")


TrainFn = Callable[[Sequence, Sequence], object]
ScoreFn = Callable[[object, Sequence], np.ndarray]


def _mean_cell(cells: list[EvalCell], train_id: str, test_id: str) -> EvalCell:
    means = {m: float(np.mean([getattr(c, m) for c in cells])) for m in METRICS}
    return EvalCell(train_id=train_id, test_id=test_id, **means)


def _diagonal_cell(ds: DatasetSpec, train_fn: TrainFn, score_fn: ScoreFn,
                   k: int, seed: int) -> EvalCell:
    """The mean cell over the protocol's (train, validation, test) splits."""
    docs = list(ds.docs)
    if ds.diagonal == "original_split":
        by_group: dict[str, list[int]] = {}
        for i, g in enumerate(ds.groups):
            by_group.setdefault(g, []).append(i)
        if "train" not in by_group or "test" not in by_group:
            raise FoldError(f"{ds.name}: original_split needs 'train' and 'test' groups")
        splits = [(by_group["train"], by_group.get("adapt", []), by_group["test"])]
    elif ds.diagonal == "groups_as_folds":
        groups = np.asarray(ds.groups)
        names = sorted(set(ds.groups))
        if len(names) < 2:
            raise FoldError(f"{ds.name}: groups_as_folds needs >= 2 groups")
        splits = [(np.flatnonzero(groups != g), [], np.flatnonzero(groups == g)) for g in names]
    else:
        splits = [(train, [], test) for train, test in stratified_kfold(ds.labels, k=k, seed=seed)]

    cells = []
    for train_idx, val_idx, test_idx in splits:
        model = train_fn([docs[i] for i in train_idx], [docs[i] for i in val_idx])
        scores = score_fn(model, [docs[i] for i in test_idx])
        cells.append(evaluate_scores(scores, ds.labels[test_idx], ds.name, ds.name))
    return _mean_cell(cells, ds.name, ds.name)


def cross_dataset_eval(
    datasets: Sequence[DatasetSpec],
    train_fn: TrainFn,
    score_fn: ScoreFn,
    k: int = 10,
    seed: int = 0,
    expected: int = 5,
) -> EvalMatrix:
    """Fill the full train-by-test grid and aggregate its diagonal/off-diagonal.

    ``train_fn(train_docs, val_docs)`` must build everything (vocabulary,
    embeddings) from its arguments alone; ``score_fn(model, docs)`` returns a
    positive-class score per document. Off-diagonal cells reuse one model
    trained on the full source corpus.
    """
    specs = list(datasets)
    ids = [s.name for s in specs]
    if expected and len(specs) != expected:
        missing = expected - len(specs)
        raise PartialMatrixError(
            f"expected {expected} datasets, got {len(ids)} ({ids}); {missing} absent"
        )

    cells: dict[tuple[str, str], EvalCell] = {}
    for src in specs:
        cells[(src.name, src.name)] = _diagonal_cell(src, train_fn, score_fn, k, seed)
        full_model = train_fn(list(src.docs), [])
        for dst in specs:
            if dst.name != src.name:
                scores = score_fn(full_model, list(dst.docs))
                cells[(src.name, dst.name)] = evaluate_scores(scores, dst.labels, src.name, dst.name)

    return aggregate_matrix(ids, cells)
