import json

import numpy as np
import pytest

from hanspam import autodiff as ad
from hanspam import training
from hanspam.autodiff import Tape, Tensor
from hanspam.cli import EXIT_OK, main
from hanspam.ingest import EmailDocument
from hanspam.model import ConfigError, collate
from hanspam.synth import make_corpus, write_corpus_dir
from hanspam.training import (
    Adam,
    NonFiniteGradient,
    TrainConfig,
    TrainingDiverged,
    cross_entropy,
    inverse_frequency_weights,
    make_batches,
    train,
)
from hanspam.vocab import PAD, UNK, build_vocab, encode_document


class TestCrossEntropy:
    def test_uniform_probabilities(self):
        for label in (0, 1):
            loss = cross_entropy(Tensor([[0.5, 0.5]]), [label])
            assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_certain_correct_prediction(self):
        assert cross_entropy(Tensor([[1.0, 0.0]]), [0]).item() == pytest.approx(0.0)

    def test_quarter_split(self):
        loss = cross_entropy(Tensor([[0.25, 0.75]]), [1])
        assert loss.item() == pytest.approx(-np.log(0.75), abs=1e-12)
        assert loss.item() == pytest.approx(0.287682, abs=1e-6)

    def test_zero_probability_clamped(self):
        loss = cross_entropy(Tensor([[0.0, 1.0]]), [0])
        assert loss.item() == pytest.approx(-np.log(1e-12))

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor([[0.5, 0.5]]), [2])

    def test_batched_mean(self):
        probs = Tensor([[0.5, 0.5], [0.25, 0.75]])
        loss = cross_entropy(probs, [0, 1])
        expected = 0.5 * (np.log(2.0) - np.log(0.75))
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_weights_off_is_unweighted_mean(self):
        probs = Tensor([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]])
        labels = [0, 1, 0]
        plain = cross_entropy(probs, labels).item()
        uniform = cross_entropy(probs, labels, weights=np.ones(3)).item()
        assert plain == pytest.approx(uniform, abs=1e-15)

    def test_gradient_flows(self):
        logits = Tensor([[0.2, -0.4]], requires_grad=True)
        with Tape() as tape:
            probs = ad.softmax(logits)
            loss = cross_entropy(probs, [1])
        tape.backward(loss)
        # d(-log softmax_1)/dlogits = p - onehot
        p = probs.data[0]
        assert np.allclose(logits.grad[0], p - np.array([0.0, 1.0]), atol=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lr", -1.0, "train lr must be a finite number > 0, got -1.0"),
            ("clip_norm", float("nan"), "train clip_norm must be a finite number >= 0, got NaN"),
            ("batch_size", True, "train batch_size must be an integer >= 1, got true"),
            ("patience", -2, "train patience must be an integer >= 0, got -2"),
            ("epochs", 2.5, "train epochs must be an integer >= 0, got 2.5"),
            # a numpy integer is not a JSON integer; how it prints depends on the numpy version
            ("seed", np.int64(3), "train seed must be an integer >= 0, got "),
            ("seed", -1, "train seed must be an integer >= 0, got -1"),
            ("class_weight", 1, "train class_weight must be true or false, got 1"),
        ],
        ids=["negative_lr", "nan_clip_norm", "bool_batch_size", "negative_patience", "float_epochs",
             "numpy_seed", "negative_seed", "int_class_weight"],
    )
    def test_every_setting_is_checked(self, field, value, message):
        with pytest.raises(ConfigError) as info:
            TrainConfig(**{field: value})
        assert str(info.value).startswith(message)


class TestInverseFrequencyWeights:
    def test_balances_classes(self):
        w = inverse_frequency_weights(np.array([1, 1, 1, 0]))
        assert w[3] == pytest.approx(3 * w[0])


class TestAdam:
    def test_first_step_hand_value(self):
        theta = Tensor(np.array([0.0]), requires_grad=True)
        theta.grad = np.ones(1)
        opt = Adam([("theta", theta)], lr=0.001)
        opt.step()
        expected = -0.001 / (1.0 + 1e-8)  # m_hat = v_hat = 1 after bias correction
        assert theta.data[0] == pytest.approx(expected, abs=1e-15)

    def test_zero_gradient_leaves_parameter(self):
        theta = Tensor(np.array([1.5]), requires_grad=True)
        opt = Adam([("theta", theta)])
        opt.step()
        assert theta.data[0] == 1.5

    def test_identical_histories_identical_updates(self):
        a = Tensor(np.array([0.3]), requires_grad=True)
        b = Tensor(np.array([0.3]), requires_grad=True)
        opt = Adam([("a", a), ("b", b)], lr=0.01)
        for _ in range(5):
            a.grad = np.full(1, 0.7)
            b.grad = np.full(1, 0.7)
            opt.step()
        assert a.data[0] == b.data[0]

    def test_non_finite_gradient_names_parameter(self):
        theta = Tensor(np.array([0.0]), requires_grad=True)
        theta.grad = np.full(1, np.nan)
        opt = Adam([("w_q", theta)])
        with pytest.raises(NonFiniteGradient, match="w_q"):
            opt.step()

    @pytest.mark.parametrize("row_set", [False, True])
    def test_non_finite_gradient_changes_nothing(self, row_set):
        a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        b = Tensor(np.ones((4, 2)), requires_grad=True)
        opt = Adam([("a", a), ("b", b)], lr=0.01)
        a.grad, b.grad = np.full((3, 2), 0.5), ad.RowSet(np.array([1]), np.full((1, 2), 0.25), (4, 2))
        opt.step()
        before = [(p.data.copy(), opt.rows[n].copy(), opt.m[n].copy(), opt.v[n].copy()) for n, p in opt.params]
        bad = np.zeros((4, 2))
        bad[[0, 3], 1] = 0.5, np.nan
        a.grad = np.full((3, 2), 0.5)
        b.grad = as_row_set(bad) if row_set else bad
        with pytest.raises(NonFiniteGradient, match="'b'"):
            opt.step()
        assert opt.step_count == 1
        for (n, p), saved in zip(opt.params, before):
            now = (p.data, opt.rows[n], opt.m[n], opt.v[n])
            assert [x.tobytes() for x in now] == [x.tobytes() for x in saved], n


class ReferenceAdam:
    """Dense bias-corrected Adam: every row of every parameter, every step;
    a row set is expanded and no gradient counts as zero."""

    def __init__(self, params, lr=0.001):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params}

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params:
            g = ad.dense_grad(p)
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"non-finite gradient in parameter {name!r}")
            m, v = self.m[name], self.v[name]
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)

    def zero_grad(self):
        for _, p in self.params:
            p.zero_grad()


def _twin_tables(rng, shape):
    """Two equal leaves with some exact zeros and negative zeros in them."""
    data = rng.normal(size=shape)
    data[1] = 0.0
    data[2] = -0.0
    data.flat[::7] = -0.0
    return Tensor(data.copy(), requires_grad=True), Tensor(data.copy(), requires_grad=True)


def as_row_set(grad):
    """A dense gradient as the row set of its rows holding any nonzero or -0.0 entry."""
    rows = np.flatnonzero((grad.any(axis=1)) | np.signbit(grad).any(axis=1))
    return ad.RowSet(rows, grad[rows].copy(), grad.shape)


def dense_moments(opt, name, shape):
    """``opt``'s compact moments of ``name`` scattered onto the table's shape, zeros elsewhere."""
    rows = opt.rows[name]
    assert opt.m[name].shape == opt.v[name].shape == (rows.size, *shape[1:])
    m, v = np.zeros(shape), np.zeros(shape)
    m[rows], v[rows] = opt.m[name], opt.v[name]
    return m, v


class TestRowSparseAdam:
    def run_twins(self, grads_per_step, shape=(10, 4), lr=0.01):
        """Adam fed each step's gradient as an array and, on a third copy, as a
        row set, both bitwise equal to ``ReferenceAdam`` fed the array."""
        rng = np.random.default_rng(0)
        array_p, dense_p = _twin_tables(rng, shape)
        rows_p = Tensor(dense_p.data.copy(), requires_grad=True)
        from_array = Adam([("table", array_p)], lr=lr)
        from_rows = Adam([("table", rows_p)], lr=lr)
        dense = ReferenceAdam([("table", dense_p)], lr=lr)
        for grad in grads_per_step:
            for opt, p, g in ((from_array, array_p, grad.copy()), (from_rows, rows_p, as_row_set(grad)),
                              (dense, dense_p, grad.copy())):
                opt.zero_grad()
                p.grad = g
                opt.step()
            for opt, p in ((from_array, array_p), (from_rows, rows_p)):
                assert p.data.tobytes() == dense_p.data.tobytes()
                m, v = dense_moments(opt, "table", shape)
                assert m.tobytes() == dense.m["table"].tobytes()
                assert v.tobytes() == dense.v["table"].tobytes()
            assert from_rows.rows["table"].tolist() == from_array.rows["table"].tolist()
        return from_rows, rows_p

    def test_bitwise_equal_to_dense_over_overlapping_row_subsets(self):
        rng = np.random.default_rng(1)
        shape = (10, 4)
        # row 0 is touched once and then left idle; rows 8 and 9 never
        subsets = [[0, 3, 4], [3, 5], [4, 5, 6], [5], [3, 6, 7], [6, 7]]
        grads = []
        for rows in subsets:
            g = np.zeros(shape)
            g[rows] = rng.normal(size=(len(rows), shape[1]))
            g[rows[-1], 0] = 0.0  # a touched row may still hold zeros
            g[1, 2] = -0.0  # a negative zero alone does not touch a row
            grads.append(g)
        opt, _ = self.run_twins(grads, shape)
        assert opt.rows["table"].tolist() == [0, 3, 4, 5, 6, 7]

    def test_rows_first_seen_out_of_order_while_others_go_idle(self):
        rng = np.random.default_rng(7)
        shape = (12, 3)
        # rows are first seen in the order 7; 2 and 10; 0; 5 and 11; 1. Rows 2 and 7 go idle after step 2
        subsets = [[7], [2, 7, 10], [0, 10], [0, 5, 11], [1, 5], [1, 10, 11]]
        grads = []
        for rows in subsets:
            g = np.zeros(shape)
            g[rows] = rng.normal(size=(len(rows), shape[1]))
            grads.append(g)
        opt, _ = self.run_twins(grads, shape)
        assert opt.rows["table"].tolist() == [0, 1, 2, 5, 7, 10, 11]
        idle = np.searchsorted(opt.rows["table"], [2, 7])
        assert opt.m["table"][idle].all() and opt.v["table"][idle].all()  # still decaying

    def test_state_holds_only_the_touched_rows(self):
        n, dim, k = 1000, 8, 37
        table = Tensor(np.ones((n, dim)), requires_grad=True)
        opt = Adam([("embed.bucket", table)])
        ids = np.sort(np.random.default_rng(8).choice(n, k, replace=False))
        table.grad = ad.RowSet(ids, np.full((k, dim), 0.5), (n, dim))
        opt.step()
        assert opt.rows["embed.bucket"].tolist() == ids.tolist()
        assert opt.m["embed.bucket"].nbytes == opt.v["embed.bucket"].nbytes == k * dim * 8

    def test_matches_dense_once_every_row_is_seen(self):
        rng = np.random.default_rng(2)
        grads = [np.where(np.arange(6)[:, None] < 3, rng.normal(size=(6, 2)), 0.0), rng.normal(size=(6, 2))]
        grads += [rng.normal(size=(6, 2)) * (rng.random((6, 1)) < 0.5) for _ in range(4)]
        opt, _ = self.run_twins(grads, shape=(6, 2))
        assert opt.rows["table"].tolist() == list(range(6))

    def test_never_touched_rows_keep_zero_moments_and_values(self):
        rng = np.random.default_rng(3)
        grads = []
        for _ in range(6):
            g = np.zeros((10, 4))
            g[3:8] = rng.normal(size=(5, 4))
            grads.append(g)
        start = _twin_tables(np.random.default_rng(0), (10, 4))[0].data  # as run_twins draws it
        opt, p = self.run_twins(grads)
        idle = [0, 1, 2, 8, 9]
        assert opt.rows["table"].tolist() == [3, 4, 5, 6, 7]  # no moments for the idle rows
        assert p.data[idle].tobytes() == start[idle].tobytes()
        assert np.signbit(p.data[2]).all()  # -0.0 stays -0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_one_row_names_parameter(self, bad):
        table = Tensor(np.ones((50, 3)), requires_grad=True)
        opt = Adam([("embed.bucket", table)])
        table.grad = np.zeros((50, 3))
        table.grad[17, 1] = bad
        with pytest.raises(NonFiniteGradient, match="embed.bucket"):
            opt.step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_a_row_set_names_parameter(self, bad):
        table = Tensor(np.ones((50, 3)), requires_grad=True)
        opt = Adam([("embed.bucket", table)])
        grad = np.zeros((50, 3))
        grad[[4, 30]] = 0.5
        grad[17, 1] = bad
        table.grad = as_row_set(grad)
        with pytest.raises(NonFiniteGradient, match="embed.bucket"):
            opt.step()

    @pytest.mark.parametrize("max_norm", [1e-3, 1e6])  # clipping fires, clipping does not
    def test_clipping_a_row_set_matches_the_dense_table(self, max_norm):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n, dim = rng.integers(50, 3000), rng.integers(1, 300)
            ids = np.sort(rng.choice(n, rng.integers(1, n), replace=False))
            val = rng.normal(size=(ids.size, dim)) * 10.0 ** rng.integers(-3, 3, (ids.size, 1))
            head = rng.normal(size=(7, 5))
            twins = []
            for grad in (ad.RowSet(ids, val.copy(), (n, dim)), np.zeros((n, dim))):
                table, w = Tensor(np.zeros((n, dim)), requires_grad=True), Tensor(head, requires_grad=True)
                table.grad, w.grad = grad, head.copy()
                if isinstance(grad, np.ndarray):
                    grad[ids] = val
                twins.append((training.clip_gradients([("w", w), ("table", table)], max_norm), table, w))
            (norm, rows, w_rows), (dense_norm, dense, w_dense) = twins
            # the compact rows are summed in another order than the dense table:
            # the norms differed by at most 2.2e-16 relative (one ulp) in 200 draws
            assert abs(norm - dense_norm) <= 1e-15 * dense_norm
            assert isinstance(rows.grad, ad.RowSet) and rows.grad.idx is ids
            if dense_norm <= max_norm:
                assert ad.dense_grad(rows).tobytes() == dense.grad.tobytes()
                assert w_rows.grad.tobytes() == w_dense.grad.tobytes()
            else:
                for got, want in ((ad.dense_grad(rows), dense.grad), (w_rows.grad, w_dense.grad)):
                    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("variant", ["cnn", "tcn", "none"])
    def test_train_checkpoint_equals_dense_reference(self, tmp_path, monkeypatch, variant):
        corpus = write_corpus_dir(make_corpus(n_docs=24, seed=4), tmp_path / "corpus")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": {
            "embed_dim": 8, "gru_hidden": 3, "cnn_windows": [2], "cnn_maps": 3, "tcn_levels": 2,
            "tcn_kernel": 2, "tcn_channels": 4, "s_max": 5, "t_max": 8, "embed_buckets": 3000,
        }, "train": {"batch_size": 6, "min_count": 1}}))

        def run(out):
            argv = ["train", "--config", str(config), "--data", str(corpus), "--variant", variant,
                    "--epochs", "1", "--seed", "5", "--out", str(tmp_path / out)]
            assert main(argv) == EXIT_OK
            return (tmp_path / out / "checkpoint.bin").read_bytes()

        sparse = run("sparse")
        monkeypatch.setattr(training, "Adam", ReferenceAdam)
        assert run("dense") == sparse


# a table row of 256 entries: Adam sweeps it in blocks of this many rows
_WIDE = 256
_PER_BLOCK = training._BLOCK // _WIDE


def _rows_gradient(rng, shape, rows):
    """A gradient that is nonzero on ``rows`` only, with a zero entry in one of them."""
    g = np.zeros(shape)
    g[rows] = rng.normal(size=(len(rows), shape[1]))
    g[rows[len(rows) // 2], 0] = 0.0
    return g


class TestAdamAcrossBlocks:
    """``Adam`` sweeps the seen rows in blocks of ``_BLOCK`` elements; here they
    span three full blocks and a ragged fourth, and every step is bitwise the
    dense reference's."""

    run_twins = TestRowSparseAdam.run_twins

    def assert_spans_blocks(self, opt):
        seen = opt.rows["table"].size
        assert seen > 3 * _PER_BLOCK and seen % _PER_BLOCK, seen

    def test_dense_gradient(self):
        rng = np.random.default_rng(11)
        shape = (3 * _PER_BLOCK + 45, _WIDE)
        grads = [rng.normal(size=shape) for _ in range(5)]
        opt, _ = self.run_twins(grads, shape)
        self.assert_spans_blocks(opt)
        assert opt.rows["table"].tolist() == list(range(shape[0]))

    def test_row_set_equal_to_the_seen_rows(self):
        rng = np.random.default_rng(12)
        shape = (5 * _PER_BLOCK, _WIDE)
        rows = np.sort(rng.choice(shape[0], 3 * _PER_BLOCK + 37, replace=False))
        opt, _ = self.run_twins([_rows_gradient(rng, shape, rows) for _ in range(5)], shape)
        self.assert_spans_blocks(opt)
        assert opt.rows["table"].tolist() == rows.tolist()

    def test_strict_subsets_leave_whole_blocks_untouched(self):
        rng = np.random.default_rng(13)
        shape = (5 * _PER_BLOCK, _WIDE)
        seen = np.sort(rng.choice(shape[0], 3 * _PER_BLOCK + 37, replace=False))
        # after the first step, the seen rows' second and fourth blocks get no gradient
        first, third = seen[:_PER_BLOCK], seen[2 * _PER_BLOCK : 3 * _PER_BLOCK]
        subsets = [seen, first[::3], np.r_[first[5:9], third[::7]], third[-2:], np.r_[first[:1], third[:1]], seen]
        opt, _ = self.run_twins([_rows_gradient(rng, shape, r) for r in subsets], shape)
        self.assert_spans_blocks(opt)
        assert opt.rows["table"].tolist() == seen.tolist()

    def test_every_row_seen_then_subsets(self):
        rng = np.random.default_rng(14)
        shape = (3 * _PER_BLOCK + 45, _WIDE)
        everything = np.arange(shape[0])
        subsets = [everything[::2], everything[1::2], everything[: _PER_BLOCK // 2],
                   everything[-3:], everything[_PER_BLOCK::5], everything]
        opt, _ = self.run_twins([_rows_gradient(rng, shape, r) for r in subsets], shape)
        self.assert_spans_blocks(opt)
        assert opt.rows["table"].tolist() == everything.tolist()

    def test_rows_going_idle(self):
        rng = np.random.default_rng(15)
        shape = (6 * _PER_BLOCK, _WIDE)
        rows = np.sort(rng.choice(shape[0], 4 * _PER_BLOCK, replace=False))
        # a quarter of the rows, spread over every block, goes idle after each step
        subsets = [rows, rows[rows % 4 != 0], rows[rows % 4 > 1], rows[rows % 4 == 3], rows[rows % 4 == 3]]
        subsets = [s[:-11] for s in subsets]  # the last block of seen rows is ragged
        opt, _ = self.run_twins([_rows_gradient(rng, shape, r) for r in subsets], shape)
        self.assert_spans_blocks(opt)
        idle = np.searchsorted(opt.rows["table"], rows[:-11][rows[:-11] % 4 == 0])
        assert opt.m["table"][idle].any(axis=1).all()  # still decaying

    @pytest.mark.parametrize("row_set", [False, True])
    def test_non_finite_entry_in_the_last_block_of_the_last_parameter_changes_nothing(self, row_set):
        rng = np.random.default_rng(16)
        shape = (3 * _PER_BLOCK + 45, _WIDE)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=shape), requires_grad=True)
        opt = Adam([("a", a), ("table", b)], lr=0.01)
        for _ in range(2):
            a.grad, b.grad = rng.normal(size=(3, 2)), rng.normal(size=shape)
            opt.step()
        self.assert_spans_blocks(opt)
        before = [(p.data.copy(), opt.rows[n].copy(), opt.m[n].copy(), opt.v[n].copy()) for n, p in opt.params]
        bad = rng.normal(size=shape)
        bad[-1, -1] = np.nan
        a.grad = rng.normal(size=(3, 2))
        b.grad = as_row_set(bad) if row_set else bad
        with pytest.raises(NonFiniteGradient, match="'table'"):
            opt.step()
        assert opt.step_count == 2
        for (n, p), saved in zip(opt.params, before):
            now = (p.data, opt.rows[n], opt.m[n], opt.v[n])
            assert [x.tobytes() for x in now] == [x.tobytes() for x in saved], n


def _encoded_corpus(model, n=10, seed=0):
    docs = make_corpus(n_docs=n, seed=seed)
    return [encode_document(d, model.vocab, model.table) for d in docs]


def _fresh_model(variant="none", seed=0, docs=None):
    from hanspam.model import HanConfig, HanModel

    train_docs = docs or make_corpus(n_docs=30, seed=seed)
    vocab = build_vocab(train_docs, min_count=1)
    config = HanConfig(
        embed_dim=12,
        gru_hidden=5,
        variant=variant,
        cnn_windows=(2,),
        cnn_maps=4,
        tcn_levels=2,
        tcn_kernel=2,
        tcn_channels=6,
        dropout=0.2,
        s_max=6,
        t_max=10,
        embed_buckets=211,
    )
    return HanModel(config, vocab, seed=seed), train_docs


class TestMakeBatches:
    def test_batch_sizes(self):
        model, docs = _fresh_model()
        encoded = [encode_document(d, model.vocab, model.table) for d in docs[:5]]
        batches = make_batches(encoded, batch_size=2, seed=0, epoch=0)
        assert [b.labels.shape[0] for b in batches] == [2, 2, 1]

    def test_same_seed_epoch_same_order(self):
        model, docs = _fresh_model()
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        contents = lambda batches: [(x.labels.tolist(), x.token_words.tolist(), x.tokens.tolist()) for x in batches]
        a = contents(make_batches(encoded, 4, seed=3, epoch=2))
        assert a == contents(make_batches(encoded, 4, seed=3, epoch=2))
        assert a != contents(make_batches(encoded, 4, seed=3, epoch=3))

    def test_padding_and_masks(self):
        model, _ = _fresh_model()
        two = EmailDocument(label=0, sentences=[["meeting", "report"], ["budget"]])
        three = EmailDocument(
            label=1, sentences=[["winner"], ["prize", "claim", "lottery"], ["update"]]
        )
        encoded = [encode_document(d, model.vocab, model.table) for d in (two, three)]
        batch = collate(encoded)
        assert batch.sent_rows.shape[1] == 3
        assert batch.tokens.shape[1] == 3
        # one token row per real sentence, longest first and equal lengths in
        # document order; the padding slot points past the last row
        assert batch.sent_rows.tolist() == [[1, 2, 5], [3, 0, 4]]
        assert batch.sent_mask.tolist() == [[True, True, False], [True, True, True]]
        # token slots past a sentence's end hold entry 0, the padding token: PAD word, no buckets
        assert batch.tok_mask.tolist() == [
            [True, True, True], [True, True, False], [True, False, False],
            [True, False, False], [True, False, False],
        ]
        assert batch.token_words[0] == PAD and batch.token_offs[:2].tolist() == [0, 0]


class TestTrain:
    def test_zero_epochs_leaves_parameters(self):
        model, docs = _fresh_model(seed=1)
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        before = {k: t.data.copy() for k, t in model.params.items()}
        result = train(model, encoded[:20], encoded[20:], TrainConfig(epochs=0, seed=1))
        assert result.steps == 0
        for k, t in model.params.items():
            assert np.array_equal(t.data, before[k])

    def test_single_adam_step_decreases_loss_on_frozen_batch(self):
        model, docs = _fresh_model(seed=2)
        encoded = [encode_document(d, model.vocab, model.table) for d in docs[:8]]
        batch = collate(encoded)

        def loss_value():
            probs, _, _ = model.forward_batch(batch, training=False)
            return cross_entropy(probs, batch.labels).item()

        before = loss_value()
        trainable = model.trainable()
        opt = Adam(trainable, lr=1e-4)
        opt.zero_grad()
        with Tape() as tape:
            probs, _, _ = model.forward_batch(batch, training=False)
            loss = cross_entropy(probs, batch.labels)
        tape.backward(loss)
        opt.step()
        assert loss_value() < before

    def test_disjoint_split_required(self):
        model, docs = _fresh_model(seed=3)
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        with pytest.raises(ValueError, match="disjoint"):
            train(model, encoded, encoded[:2], TrainConfig(epochs=1))

    def test_separable_corpus_reaches_full_training_accuracy(self):
        docs = make_corpus(n_docs=40, seed=4)
        model, _ = _fresh_model(variant="none", seed=4, docs=docs)
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        holdout = encoded[32:]
        cfg = TrainConfig(batch_size=8, epochs=30, seed=4, patience=30, lr=0.01)
        train(model, encoded[:32], holdout, cfg)
        scores = model.score(encoded[:32])
        labels = np.array([d.label for d in encoded[:32]])
        accuracy = np.mean((scores >= 0.5) == (labels == 1))
        assert accuracy == 1.0

    def test_fixed_seed_bitwise_identical_logs(self):
        runs = []
        for _ in range(2):
            docs = make_corpus(n_docs=24, seed=5)
            model, _ = _fresh_model(variant="cnn", seed=5, docs=docs)
            encoded = [encode_document(d, model.vocab, model.table) for d in docs]
            cfg = TrainConfig(batch_size=6, epochs=3, seed=5, patience=10)
            result = train(model, encoded[:18], encoded[18:], cfg)
            runs.append(
                (
                    [(r.epoch, r.train_loss, r.val_auc) for r in result.log],
                    {k: t.data.tobytes() for k, t in model.params.items()},
                )
            )
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_padding_invariance_of_loss(self):
        # appending PAD-only content must not move the loss: evaluate the same
        # document collated alone vs padded next to a longer one
        model, docs = _fresh_model(variant="cnn", seed=6)
        target = EmailDocument(label=1, sentences=[["winner", "prize"], ["meeting"]])
        filler = EmailDocument(label=0, sentences=[["a", "b", "c", "d", "e"]] * 4)
        enc_t = encode_document(target, model.vocab, model.table)
        enc_f = encode_document(filler, model.vocab, model.table)

        alone, _, _ = model.forward_batch(collate([enc_t]), training=False)
        loss_alone = cross_entropy(alone, [1]).item()
        padded, _, _ = model.forward_batch(collate([enc_t, enc_f]), training=False)
        loss_padded = cross_entropy(ad.take_rows(padded, [0]), [1]).item()
        assert abs(loss_alone - loss_padded) < 1e-10

    def test_divergence_reports_epoch_and_batch(self):
        model, docs = _fresh_model(seed=7)
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        model.params["head.w"].data[...] = np.nan
        with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"):
            train(model, encoded[:16], encoded[16:], TrainConfig(epochs=1, seed=7))

    def test_best_epoch_parameters_are_kept(self, monkeypatch):
        def params_after(epochs, val_aucs=None):
            model, docs = _fresh_model(variant="cnn", seed=9)
            encoded = [encode_document(d, model.vocab, model.table) for d in docs]
            if val_aucs is not None:
                fake = iter(val_aucs)
                monkeypatch.setattr(training, "roc_auc", lambda scores, labels: next(fake))
            result = train(model, encoded[:24], encoded[24:],
                           TrainConfig(batch_size=8, epochs=epochs, seed=9, patience=0))
            monkeypatch.undo()
            return result.best_epoch, {k: t.data.tobytes() for k, t in model.params.items()}

        _, first_epoch = params_after(1)
        # epoch 1 is worse: epoch 0's parameters come back bitwise
        assert params_after(2, (0.9, 0.5)) == (0, first_epoch)
        # epoch 1 is best: its parameters stay
        best, last = params_after(2, (0.5, 0.9))
        assert best == 1 and last != first_epoch

    def test_improving_epochs_hold_one_snapshot(self, monkeypatch):
        import tracemalloc

        from hanspam.model import HanConfig, HanModel

        # a bucket table that dwarfs everything else a step allocates
        docs = make_corpus(n_docs=16, seed=11)
        config = HanConfig(embed_dim=8, gru_hidden=3, variant="none", s_max=6, t_max=10, embed_buckets=100_000)
        model = HanModel(config, build_vocab(docs, min_count=1), seed=11)
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        table = model.params["embed.bucket"].data.nbytes
        fake = iter((0.5, 0.6, 0.7))
        monkeypatch.setattr(training, "roc_auc", lambda scores, labels: next(fake))
        tracemalloc.start()
        try:
            result = train(model, encoded[:12], encoded[12:], TrainConfig(batch_size=6, epochs=3, seed=11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.best_epoch == 2
        assert peak < 1.5 * table, (peak, table)

    def test_table_gradients_hold_only_the_last_batch_rows(self):
        from hanspam.model import HanConfig, HanModel

        docs = make_corpus(n_docs=30, seed=10)
        config = HanConfig(embed_dim=6, gru_hidden=3, variant="cnn", cnn_windows=(2,), cnn_maps=2,
                           s_max=6, t_max=10, embed_buckets=20_000)
        model = HanModel(config, build_vocab(docs, min_count=1), seed=10)
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        train(model, encoded[:24], encoded[24:], TrainConfig(batch_size=8, epochs=1, seed=10))
        last = make_batches(encoded[:24], 8, seed=10, epoch=0)[-1]
        used = {
            "embed.word": np.unique(last.token_words[last.token_words > UNK]),
            "embed.bucket": np.unique(last.token_buckets),
        }
        for name, ids in used.items():
            g = model.params[name].grad
            assert isinstance(g, ad.RowSet) and g.idx.tolist() == ids.tolist(), name
            assert g.val.shape == (ids.size, 6), name
        assert used["embed.bucket"].size < config.embed_buckets // 10

    def test_frozen_embeddings_stay_fixed_while_rest_trains(self):
        model, docs = _fresh_model(variant="none", seed=8)
        tables = [model.params["embed.word"], model.params["embed.bucket"]]
        for t in tables:
            t.requires_grad = False
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        before = [t.data.copy() for t in tables]
        head_before = model.params["head.w"].data.copy()
        train(model, encoded[:24], encoded[24:], TrainConfig(batch_size=8, epochs=2, seed=8))
        for t, was in zip(tables, before):
            assert np.array_equal(t.data, was), t.name
        assert not np.array_equal(model.params["head.w"].data, head_before)
