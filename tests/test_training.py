import json

import numpy as np
import pytest

from hanspam import autodiff as ad
from hanspam import training
from hanspam.autodiff import Tape, Tensor
from hanspam.cli import EXIT_OK, main
from hanspam.ingest import EmailDocument
from hanspam.model import collate
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
from hanspam.vocab import PAD, build_vocab, encode_document


class TestCrossEntropy:
    def test_uniform_probabilities(self):
        for label in (0, 1):
            loss = cross_entropy(Tensor([0.5, 0.5]), label)
            assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_certain_correct_prediction(self):
        assert cross_entropy(Tensor([1.0, 0.0]), 0).item() == pytest.approx(0.0)

    def test_quarter_split(self):
        loss = cross_entropy(Tensor([0.25, 0.75]), 1)
        assert loss.item() == pytest.approx(-np.log(0.75), abs=1e-12)
        assert loss.item() == pytest.approx(0.287682, abs=1e-6)

    def test_zero_probability_clamped(self):
        loss = cross_entropy(Tensor([0.0, 1.0]), 0)
        assert loss.item() == pytest.approx(-np.log(1e-12))

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor([0.5, 0.5]), 2)

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


class TestInverseFrequencyWeights:
    def test_balances_classes(self):
        w = inverse_frequency_weights(np.array([1, 1, 1, 0]))
        assert w[3] == pytest.approx(3 * w[0])


class TestAdam:
    def test_first_step_hand_value(self):
        theta = Tensor(np.array([0.0]), requires_grad=True)
        theta.grad[...] = 1.0
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
            a.grad[...] = 0.7
            b.grad[...] = 0.7
            opt.step()
        assert a.data[0] == b.data[0]

    def test_non_finite_gradient_names_parameter(self):
        theta = Tensor(np.array([0.0]), requires_grad=True)
        theta.grad[...] = np.nan
        opt = Adam([("w_q", theta)])
        with pytest.raises(NonFiniteGradient, match="w_q"):
            opt.step()


class ReferenceAdam:
    """Dense bias-corrected Adam: every row of every parameter, every step."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params}

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params:
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"non-finite gradient in parameter {name!r}")
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

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


class TestRowSparseAdam:
    def run_twins(self, grads_per_step, shape=(10, 4), lr=0.01):
        rng = np.random.default_rng(0)
        sparse_p, dense_p = _twin_tables(rng, shape)
        sparse = Adam([("table", sparse_p)], lr=lr)
        dense = ReferenceAdam([("table", dense_p)], lr=lr)
        for grad in grads_per_step:
            for opt, p in ((sparse, sparse_p), (dense, dense_p)):
                opt.zero_grad()
                p.grad[...] = grad
                opt.step()
            assert sparse_p.data.tobytes() == dense_p.data.tobytes()
            assert sparse.m["table"].tobytes() == dense.m["table"].tobytes()
            assert sparse.v["table"].tobytes() == dense.v["table"].tobytes()
        return sparse, sparse_p

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
        assert opt.seen["table"].tolist() == [True, False, False, True, True, True, True, True, False, False]

    def test_matches_dense_once_every_row_is_seen(self):
        rng = np.random.default_rng(2)
        grads = [np.where(np.arange(6)[:, None] < 3, rng.normal(size=(6, 2)), 0.0), rng.normal(size=(6, 2))]
        grads += [rng.normal(size=(6, 2)) * (rng.random((6, 1)) < 0.5) for _ in range(4)]
        opt, _ = self.run_twins(grads, shape=(6, 2))
        assert opt.seen["table"].all()

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
        assert not opt.m["table"][idle].any() and not opt.v["table"][idle].any()
        assert p.data[idle].tobytes() == start[idle].tobytes()
        assert np.signbit(p.data[2]).all()  # -0.0 stays -0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_one_row_names_parameter(self, bad):
        table = Tensor(np.ones((50, 3)), requires_grad=True)
        opt = Adam([("embed.bucket", table)])
        table.grad[17, 1] = bad
        with pytest.raises(NonFiniteGradient, match="embed.bucket"):
            opt.step()

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
        assert [b.n_docs for b in batches] == [2, 2, 1]

    def test_same_seed_epoch_same_order(self):
        model, docs = _fresh_model()
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        a = make_batches(encoded, 4, seed=3, epoch=2)
        b = make_batches(encoded, 4, seed=3, epoch=2)
        assert [x.doc_ids for x in a] == [y.doc_ids for y in b]
        c = make_batches(encoded, 4, seed=3, epoch=3)
        assert [x.doc_ids for x in a] != [y.doc_ids for y in c]

    def test_padding_and_masks(self):
        model, _ = _fresh_model()
        two = EmailDocument(label=0, sentences=[["meeting", "report"], ["budget"]])
        three = EmailDocument(
            label=1, sentences=[["winner"], ["prize", "claim", "lottery"], ["update"]]
        )
        encoded = [encode_document(d, model.vocab, model.table) for d in (two, three)]
        batch = collate(encoded)
        assert batch.n_sentences == 3
        assert batch.n_tokens == 3
        # one token row per real sentence; the padding slot points past the last one
        assert batch.sent_rows.tolist() == [[0, 1, 5], [2, 3, 4]]
        assert batch.sent_mask.tolist() == [[True, True, False], [True, True, True]]
        # token slots past a sentence's end hold entry 0, the padding token: PAD word, no buckets
        assert batch.tok_mask.tolist() == [
            [True, True, False], [True, False, False], [True, False, False],
            [True, True, True], [True, False, False],
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

    def test_frozen_embeddings_stay_fixed_while_rest_trains(self):
        model, docs = _fresh_model(variant="none", seed=8)
        model.table.set_trainable(False)
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        word_before = model.table.word.data.copy()
        bucket_before = model.table.bucket.data.copy()
        head_before = model.params["head.w"].data.copy()
        train(model, encoded[:24], encoded[24:], TrainConfig(batch_size=8, epochs=2, seed=8))
        assert np.array_equal(model.table.word.data, word_before)
        assert np.array_equal(model.table.bucket.data, bucket_before)
        assert not np.array_equal(model.params["head.w"].data, head_before)
