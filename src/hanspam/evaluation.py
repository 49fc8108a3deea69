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
from typing import Callable, Mapping, Sequence

import numpy as np


class UndefinedAUCError(ValueError):
    """AUC needs at least one positive and one negative example."""


class FoldError(ValueError):
    pass


class PartialMatrixError(ValueError):
    pass


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
    def from_scores(cls, scores, labels, threshold: float = 0.5) -> "ConfusionCounts":
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.intp)
        pred = scores >= threshold
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
    degenerate: frozenset[str] = frozenset()


def confusion_metrics(counts: ConfusionCounts) -> Metrics:
    """Accuracy, precision, recall, F1; zero-denominator cases yield flagged 0."""
    if counts.total == 0:
        raise ValueError("confusion_metrics needs at least one evaluated document")
    degenerate = set()
    accuracy = (counts.tp + counts.tn) / counts.total
    if counts.tp + counts.fp > 0:
        precision = counts.tp / (counts.tp + counts.fp)
    else:
        precision = 0.0
        degenerate.add("precision")
    if counts.tp + counts.fn > 0:
        recall = counts.tp / (counts.tp + counts.fn)
    else:
        recall = 0.0
        degenerate.add("recall")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        degenerate.add("f1")
    return Metrics(accuracy, precision, recall, f1, frozenset(degenerate))


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
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
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


def evaluate_scores(scores, labels, train_id: str = "", test_id: str = "",
                    threshold: float = 0.5) -> EvalCell:
    m = confusion_metrics(ConfusionCounts.from_scores(scores, labels, threshold))
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

    def cell(self, train_id: str, test_id: str) -> EvalCell:
        return self.cells[(train_id, test_id)]

    def records(self) -> list[dict]:
        recs = [self.cells[key].as_dict() for key in sorted(self.cells)]
        recs.append({"aggregate": "sd_avg", "mean": self.sd_avg[0], "stddev": self.sd_avg[1]})
        recs.append({"aggregate": "cd_avg", "mean": self.cd_avg[0], "stddev": self.cd_avg[1]})
        return recs

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records()) + "\n"

    def to_tsv(self) -> str:
        cols = ["train", "test", "accuracy", "precision", "recall", "f1", "auc"]
        lines = ["\t".join(cols)]
        for key in sorted(self.cells):
            c = self.cells[key]
            lines.append(
                "\t".join(
                    [c.train_id, c.test_id]
                    + [f"{v:.6f}" for v in (c.accuracy, c.precision, c.recall, c.f1, c.auc)]
                )
            )
        lines.append(f"sd_avg\t\t\t\t\t\t{self.sd_avg[0]:.6f} ({self.sd_avg[1]:.6f})")
        lines.append(f"cd_avg\t\t\t\t\t\t{self.cd_avg[0]:.6f} ({self.cd_avg[1]:.6f})")
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
    return EvalCell(
        train_id=train_id,
        test_id=test_id,
        accuracy=float(np.mean([c.accuracy for c in cells])),
        precision=float(np.mean([c.precision for c in cells])),
        recall=float(np.mean([c.recall for c in cells])),
        f1=float(np.mean([c.f1 for c in cells])),
        auc=float(np.mean([c.auc for c in cells])),
    )


def _diagonal_cell(ds: DatasetSpec, train_fn: TrainFn, score_fn: ScoreFn,
                   k: int, seed: int) -> EvalCell:
    docs = list(ds.docs)
    fold_cells: list[EvalCell] = []
    if ds.diagonal == "original_split":
        by_group: dict[str, list[int]] = {}
        for i, g in enumerate(ds.groups):
            by_group.setdefault(g, []).append(i)
        if "train" not in by_group or "test" not in by_group:
            raise FoldError(f"{ds.name}: original_split needs 'train' and 'test' groups")
        train_idx = by_group["train"]
        val_idx = by_group.get("adapt", [])
        test_idx = by_group["test"]
        model = train_fn([docs[i] for i in train_idx], [docs[i] for i in val_idx])
        scores = score_fn(model, [docs[i] for i in test_idx])
        return evaluate_scores(scores, ds.labels[test_idx], ds.name, ds.name)

    if ds.diagonal == "groups_as_folds":
        groups = sorted(set(ds.groups))
        if len(groups) < 2:
            raise FoldError(f"{ds.name}: groups_as_folds needs >= 2 groups")
        splits = []
        for g in groups:
            test = np.array([i for i, gg in enumerate(ds.groups) if gg == g], dtype=np.intp)
            train = np.array([i for i, gg in enumerate(ds.groups) if gg != g], dtype=np.intp)
            splits.append((train, test))
    else:
        splits = stratified_kfold(ds.labels, k=k, seed=seed)

    for train_idx, test_idx in splits:
        model = train_fn([docs[i] for i in train_idx], [])
        scores = score_fn(model, [docs[i] for i in test_idx])
        fold_cells.append(
            evaluate_scores(scores, ds.labels[test_idx], ds.name, ds.name)
        )
    return _mean_cell(fold_cells, ds.name, ds.name)


def cross_dataset_eval(
    datasets: Mapping[str, DatasetSpec] | Sequence[DatasetSpec],
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
    if isinstance(datasets, Mapping):
        specs = list(datasets.values())
    else:
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
