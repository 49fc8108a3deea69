import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hanspam.evaluation import (
    ConfusionCounts,
    DatasetSpec,
    FoldError,
    PartialMatrixError,
    UndefinedAUCError,
    aggregate,
    aggregate_matrix,
    confusion_metrics,
    cross_dataset_eval,
    evaluate_scores,
    roc_auc,
    stratified_kfold,
)


def brute_force_auc(scores, labels):
    """All-pairs oracle: wins + half-ties over positive x negative pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(1.0 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestConfusionMetrics:
    def test_hand_values(self):
        m = confusion_metrics(ConfusionCounts(tp=50, fp=10, tn=30, fn=10))
        assert m.accuracy == pytest.approx(0.8)
        assert m.precision == pytest.approx(5 / 6)
        assert m.recall == pytest.approx(5 / 6)
        assert m.f1 == pytest.approx(5 / 6)
        assert not m.degenerate

    def test_perfect_classification(self):
        m = confusion_metrics(ConfusionCounts(tp=7, fp=0, tn=9, fn=0))
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_degenerate_zero_convention(self):
        m = confusion_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=3))
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert "precision" in m.degenerate

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            confusion_metrics(ConfusionCounts(0, 0, 0, 0))

    def test_matches_direct_formulas_on_random_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, 4))
            if tp + fp + tn + fn == 0:
                continue
            m = confusion_metrics(ConfusionCounts(tp, fp, tn, fn))
            total = tp + fp + tn + fn
            assert m.accuracy == pytest.approx((tp + tn) / total)
            if tp + fp:
                assert m.precision == pytest.approx(tp / (tp + fp))
            if tp + fn:
                assert m.recall == pytest.approx(tp / (tp + fn))
            if m.precision + m.recall:
                expected_f1 = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert m.f1 == pytest.approx(expected_f1)


class TestRocAuc:
    def test_all_equal_scores_is_half(self):
        assert roc_auc([0.3] * 8, [1, 0, 1, 0, 0, 1, 0, 1]) == pytest.approx(0.5)

    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_hand_example(self):
        assert roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedAUCError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_bruteforce_with_heavy_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
            assert abs(roc_auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12

    @given(
        labels=st.lists(st.integers(0, 1), min_size=2, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance_and_flip_complement(self, labels, data):
        if all(l == labels[0] for l in labels):
            labels[0] = 1 - labels[0]
        # milli-resolution grid keeps exp() order-preserving in float64
        scores = (
            np.array(
                data.draw(
                    st.lists(
                        st.integers(-5000, 5000),
                        min_size=len(labels),
                        max_size=len(labels),
                    )
                )
            )
            / 1000.0
        )
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        flipped = roc_auc(scores, [1 - l for l in labels])
        assert base + flipped == pytest.approx(1.0, abs=1e-12)


class TestStratifiedKfold:
    def test_exact_proportions(self):
        labels = np.array([1] * 20 + [0] * 80)
        for train, test in stratified_kfold(labels, k=10, seed=0):
            assert np.sum(labels[test] == 1) == 2
            assert np.sum(labels[test] == 0) == 8
            assert np.intersect1d(train, test).size == 0

    def test_k1_rejected(self):
        with pytest.raises(FoldError):
            stratified_kfold([0, 1] * 5, k=1)

    def test_small_class_rejected(self):
        with pytest.raises(FoldError, match="fewer than"):
            stratified_kfold([1] * 3 + [0] * 50, k=10)

    def test_folds_partition_corpus(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 57)
        labels[:10] = 1
        labels[10:20] = 0
        splits = stratified_kfold(labels, k=5, seed=3)
        seen = np.concatenate([test for _, test in splits])
        assert sorted(seen.tolist()) == list(range(57))

    def test_proportionality_within_one(self):
        rng = np.random.default_rng(4)
        labels = np.concatenate([np.ones(37, dtype=int), np.zeros(91, dtype=int)])
        rng.shuffle(labels)
        for k in (2, 5, 10):
            sizes = []
            for _, test in stratified_kfold(labels, k=k, seed=1):
                pos = int(np.sum(labels[test] == 1))
                sizes.append(pos)
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic_given_seed(self):
        labels = [0, 1] * 30
        a = stratified_kfold(labels, k=3, seed=9)
        b = stratified_kfold(labels, k=3, seed=9)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)


# AUC grid fixture with published aggregate means (diagonal = same-dataset
# cells, rows are test corpora, columns are training corpora)
REFERENCE_AUC_GRID = np.array(
    [
        [0.999, 0.779, 0.899, 0.903, 0.805],
        [0.675, 0.991, 0.718, 0.836, 0.480],
        [0.879, 0.817, 0.987, 0.836, 0.734],
        [0.864, 0.804, 0.789, 0.989, 0.830],
        [0.832, 0.942, 0.750, 0.957, 0.997],
    ]
)


class TestAggregate:
    def test_reference_diagonal_mean(self):
        mean, std = aggregate(np.diag(REFERENCE_AUC_GRID))
        assert mean == pytest.approx(0.9926, abs=5e-5)
        assert std == pytest.approx(0.0046303, abs=1e-6)  # population divisor

    def test_reference_offdiagonal_mean(self):
        off = REFERENCE_AUC_GRID[~np.eye(5, dtype=bool)]
        mean, std = aggregate(off)
        assert mean == pytest.approx(0.80645, abs=5e-5)
        assert std == pytest.approx(0.1028934, abs=1e-6)

    def test_constant_set(self):
        assert aggregate([0.7, 0.7, 0.7]) == (pytest.approx(0.7), pytest.approx(0.0))

    def test_population_stddev(self):
        mean, std = aggregate([0.0, 1.0])
        assert mean == pytest.approx(0.5)
        assert std == pytest.approx(0.5)  # population (N) divisor, not N-1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


def _stub_datasets(n=5, per_class=12, seed=0):
    """Tiny integer 'documents': value >= 100 means spam-flavored content."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n):
        docs = []
        labels = []
        for j in range(per_class * 2):
            label = j % 2
            docs.append(int(rng.integers(0, 50)) + (100 if label else 0) + i)
            labels.append(label)
        specs.append(DatasetSpec(name=f"d{i}", docs=docs, labels=np.array(labels)))
    return specs


def _stub_train(train_docs, val_docs):
    return None  # threshold rule needs no fitting


def _stub_score(model, docs):
    return np.array([1.0 if d >= 100 else 0.0 for d in docs])


class TestCrossDatasetEval:
    def test_full_grid_with_perfect_stub(self):
        matrix = cross_dataset_eval(_stub_datasets(), _stub_train, _stub_score, k=3)
        for i in range(5):
            assert matrix.cell(f"d{i}", f"d{i}").auc == pytest.approx(1.0)
        assert matrix.sd_avg[0] == pytest.approx(1.0)
        assert len(matrix.cells) == 25
        assert len(matrix.records()) == 27

    def test_missing_dataset_reported(self):
        with pytest.raises(PartialMatrixError, match="absent"):
            cross_dataset_eval(_stub_datasets(3), _stub_train, _stub_score, k=3, expected=5)

    def test_groups_as_folds_diagonal(self):
        rng = np.random.default_rng(5)
        docs = [int(v) for v in rng.integers(0, 50, 40)]
        labels = np.array([i % 2 for i in range(40)])
        docs = [d + 100 if l else d for d, l in zip(docs, labels)]
        groups = [f"part{i // 10}" for i in range(40)]  # both classes per part
        spec = DatasetSpec("ls", docs, labels, groups=groups, diagonal="groups_as_folds")
        specs = [spec] + _stub_datasets(4, seed=9)
        matrix = cross_dataset_eval(specs, _stub_train, _stub_score, k=3)
        assert matrix.cell("ls", "ls").auc == pytest.approx(1.0)

    def test_original_split_diagonal_uses_test_group_only(self):
        calls = []

        def probe_score(model, docs):
            calls.append(len(docs))
            return _stub_score(model, docs)

        docs = list(range(0, 30))
        labels = np.array([i % 2 for i in range(30)])
        docs = [d + 100 if l else d for d, l in zip(docs, labels)]
        groups = ["train"] * 16 + ["adapt"] * 6 + ["test"] * 8
        spec = DatasetSpec("gs", docs, labels, groups=groups, diagonal="original_split")
        matrix = cross_dataset_eval(
            [spec] + _stub_datasets(4, seed=11), _stub_train, probe_score, k=3
        )
        assert 8 in calls  # diagonal scored exactly the 'test' group
        assert matrix.cell("gs", "gs").auc == pytest.approx(1.0)

    def test_aggregate_matrix_flags_missing_cells(self):
        cell = evaluate_scores([1.0, 0.0], [1, 0], "a", "a")
        with pytest.raises(PartialMatrixError):
            aggregate_matrix(["a", "b"], {("a", "a"): cell})

    def test_renderers(self):
        matrix = cross_dataset_eval(_stub_datasets(), _stub_train, _stub_score, k=3)
        tsv = matrix.to_tsv()
        assert tsv.count("\n") == 28  # header + 25 cells + 2 aggregates
        grid = matrix.render_auc_grid()
        assert "SD AVG" in grid and "CD AVG" in grid
        jsonl = matrix.to_jsonl()
        assert jsonl.count("\n") == 27


class TestEvaluateScores:
    def test_threshold_and_cell_fields(self):
        cell = evaluate_scores([0.9, 0.2, 0.6, 0.4], [1, 0, 1, 0], "tr", "te")
        assert cell.train_id == "tr" and cell.test_id == "te"
        assert cell.accuracy == 1.0
        assert cell.auc == 1.0

    def test_metrics_within_unit_interval(self):
        rng = np.random.default_rng(6)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        cell = evaluate_scores(scores, labels)
        for v in (cell.accuracy, cell.precision, cell.recall, cell.f1, cell.auc):
            assert 0.0 <= v <= 1.0
