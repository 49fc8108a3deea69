import numpy as np
import pytest

from hanspam import autodiff as ad
from hanspam.autodiff import Tape, Tensor
from hanspam.ingest import EmailDocument
from hanspam.model import collate
from hanspam.synth import make_corpus
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
