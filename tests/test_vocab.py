import random

import numpy as np
import pytest

from hanspam import autodiff as ad
from hanspam.autodiff import Tensor
from hanspam.ingest import EmailDocument
from hanspam.model import HanConfig, HanModel
from hanspam.vocab import (
    PAD,
    UNK,
    EmbeddingTable,
    PretrainedFormatError,
    PretrainedReport,
    VocabError,
    build_vocab,
    char_ngrams,
    encode_document,
    fnv1a64,
    gram_buckets,
    load_pretrained,
)


def doc(*sentences, label=0):
    return EmailDocument(label=label, sentences=[s.split() for s in sentences])


def compose(model, token):
    """``token``'s vector as the model composes it, through ``embedding_lookup``:
    only in-vocabulary tokens add their word row. ``""`` stands for padding,
    which, as ``collate``'s entry 0, has no buckets."""
    word = model.vocab.lookup(token)
    buckets = model.table.bucket_ids([token])[0] if token else ()
    p = model.params
    vec = ad.embedding_lookup(p["embed.word"], p["embed.bucket"], [word], [word > UNK], buckets, [0, len(buckets)])
    return vec.data[0]


def embed_model(vocab, dim, n_max, buckets, seed=0):
    """A model with no convolution whose embedding has the given geometry (n_min 3)."""
    config = HanConfig(variant="none", embed_dim=dim, embed_n_max=n_max, embed_buckets=buckets)
    return HanModel(config, vocab, seed=seed)


def word_rows(vocab, dim):
    """Word rows of ones, for ``load_pretrained`` to fill."""
    return Tensor(np.ones((len(vocab), dim)))


class TestBuildVocab:
    def test_min_count_filters(self):
        vocab = build_vocab([doc("a a b")], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.lookup("b") == UNK

    def test_single_token(self):
        vocab = build_vocab([doc("x")], min_count=1)
        assert len(vocab) == 3  # PAD, UNK, x
        assert vocab.lookup("x") == 2

    def test_document_order_invariance(self):
        docs = [doc(f"w{i % 7} w{i % 3} common") for i in range(30)]
        a = build_vocab(docs, min_count=1)
        shuffled = docs[:]
        random.Random(1).shuffle(shuffled)
        b = build_vocab(shuffled, min_count=1)
        assert a.index_to_token == b.index_to_token

    def test_deterministic_ordering_by_freq_then_token(self):
        vocab = build_vocab([doc("b b a a c")], min_count=1)
        # a and b tie at 2; lexicographic breaks the tie; c trails at 1
        assert vocab.index_to_token[2:] == ["a", "b", "c"]

    def test_empty_training_set_rejected(self):
        with pytest.raises(VocabError):
            build_vocab([], min_count=1)


class TestNgrams:
    def test_hand_enumeration(self):
        assert set(char_ngrams("ab", 3, 3)) == {"<ab", "ab>", "<ab>"}

    def test_whole_token_included_once(self):
        grams = char_ngrams("ab", 3, 4)
        assert grams.count("<ab>") == 1

    def test_fnv1a_reference_values(self):
        # published FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @pytest.mark.parametrize(
        "n_min, n_max, buckets",
        [(3, 6, 100_000), (1, 1, 7), (3, 3, 13), (5, 9, 2**40), (3, 1000, 97), (250, 300, 97)],
    )
    def test_gram_buckets_hash_each_gram(self, n_min, n_max, buckets):
        # all tokens hashed in one pass give, per token, what hashing each of
        # its grams alone gives: lengths below, inside and above [n_min, n_max],
        # and characters of one to four UTF-8 bytes; the last two ranges reach
        # past the longest marked token (202 characters)
        rng = random.Random(3)
        letters = "abcxyz019./:<>é€😀"
        tokens = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 30))) for _ in range(300)]
        tokens += ["a", "ab", "abcd", "é", "😀😀", "x" * 200, "ab"]
        want = [tuple(fnv1a64(g.encode("utf-8")) % buckets for g in char_ngrams(t, n_min, n_max)) for t in tokens]
        assert gram_buckets(tokens, n_min, n_max, buckets) == want
        assert [gram_buckets([t], n_min, n_max, buckets)[0] for t in tokens[-7:]] == want[-7:]

    def test_n_max_past_every_token_costs_nothing(self):
        # no gram is longer than its token: a range to 10**7 hashes what one to 7 does, at once
        assert gram_buckets(["hello", "é"], 3, 10**7, 100) == gram_buckets(["hello", "é"], 3, 7, 100)

    def test_table_refuses_a_bare_string(self):
        with pytest.raises(TypeError, match="list of tokens"):
            EmbeddingTable(n_min=3, n_max=4, buckets=11).bucket_ids("zzz")

    def test_table_caches_what_it_hashes(self):
        # an ASCII and a non-ASCII token in one call: one pass over both
        table = EmbeddingTable(n_min=3, n_max=4, buckets=11)
        tokens = ["héllo", "ab", "ab"]
        got = table.bucket_ids(tokens)
        assert set(table._gram_cache) == {"héllo", "ab"}
        assert got == [tuple(fnv1a64(g.encode()) % 11 for g in char_ngrams(t, 3, 4)) for t in tokens]
        assert table.bucket_ids(["héllo"]) == got[:1]


@pytest.fixture
def model():
    return embed_model(build_vocab([doc("ab ab cd")], min_count=1), dim=8, n_max=3, buckets=13, seed=4)


class TestEmbedToken:
    def test_pad_is_zero(self, model):
        assert np.array_equal(compose(model, ""), np.zeros(8))

    def test_oov_deterministic_nonzero(self, model):
        first = compose(model, "zzz")
        second = compose(model, "zzz")
        assert np.array_equal(first, second)
        assert np.any(first != 0)

    def test_in_vocab_is_word_row_plus_gram_mean(self, model):
        ids = [fnv1a64(g.encode()) % 13 for g in ("<ab", "ab>", "<ab>")]
        expected = model.params["embed.bucket"].data[ids].mean(axis=0) + model.params["embed.word"].data[model.vocab.lookup("ab")]
        assert np.allclose(compose(model, "ab"), expected)

    def test_oov_is_gram_mean_alone(self, model):
        ids = [fnv1a64(g.encode()) % 13 for g in char_ngrams("zzz", 3, 3)]
        assert np.allclose(compose(model, "zzz"), model.params["embed.bucket"].data[ids].mean(axis=0))

    def test_repeated_calls_bitwise_equal(self, model):
        a = compose(model, "cd")
        b = compose(model, "cd")
        assert a.tobytes() == b.tobytes()


def _write_vectors(path, dim, rows):
    lines = [f"{len(rows)} {dim}"]
    for token, vec in rows:
        lines.append(token + " " + " ".join(str(v) for v in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadPretrained:
    def test_hits_reported_and_rows_loaded(self, tmp_path):
        vocab = build_vocab([doc("a a")], min_count=1)
        path = tmp_path / "vecs.txt"
        _write_vectors(path, 3, [("a", [1, 2, 3]), ("b", [4, 5, 6])])
        word = word_rows(vocab, 3)
        report = load_pretrained(path, vocab, word)
        assert report.hits == 1
        assert np.array_equal(word.data[vocab.lookup("a")], [1.0, 2.0, 3.0])

    def test_repeated_token_counts_one_hit(self, tmp_path):
        vocab = build_vocab([doc("a b c")], min_count=1)
        path = tmp_path / "vecs.txt"
        _write_vectors(path, 3, [("a", [1, 2, 3]), ("a", [4, 5, 6]), ("a", [7, 8, 9]), ("b", [0, 0, 1])])
        word = word_rows(vocab, 3)
        report = load_pretrained(path, vocab, word)
        assert (report.hits, report.misses) == (2, 1)
        assert np.array_equal(word.data[vocab.lookup("a")], [7.0, 8.0, 9.0])  # the last listing wins

    def test_dim_mismatch(self, tmp_path):
        vocab = build_vocab([doc("a")], min_count=1)
        path = tmp_path / "vecs.txt"
        _write_vectors(path, 3, [("a", [1, 2, 3])])
        with pytest.raises(PretrainedFormatError, match="dimension"):
            load_pretrained(path, vocab, word_rows(vocab, 200))

    def test_malformed_line_reports_number(self, tmp_path):
        vocab = build_vocab([doc("a")], min_count=1)
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1 2 3\nb 1 2\n", encoding="utf-8")
        with pytest.raises(PretrainedFormatError, match=":3:"):
            load_pretrained(path, vocab, word_rows(vocab, 3))

    def test_non_finite_value_reports_number(self, tmp_path):
        vocab = build_vocab([doc("a")], min_count=1)
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nb nan 2 3\na 1 inf 3\n", encoding="utf-8")  # b is not in the vocabulary
        with pytest.raises(PretrainedFormatError, match=r":3: non-finite vector value"):
            load_pretrained(path, vocab, word_rows(vocab, 3))

    def test_vector_line_ending_in_a_space_loads(self, tmp_path):
        # word2vec's text output ends every vector line with a space
        vocab = build_vocab([doc("ab")], min_count=1)
        path = tmp_path / "vecs.txt"
        path.write_text("1 3\nab 1 2 3 \n", encoding="utf-8")
        word = word_rows(vocab, 3)
        assert load_pretrained(path, vocab, word) == PretrainedReport(hits=1, misses=0)
        assert np.array_equal(word.data[vocab.lookup("ab")], [1.0, 2.0, 3.0])

    def test_missing_token_falls_back_to_gram_mean(self, tmp_path):
        vocab = build_vocab([doc("ab xy")], min_count=1)
        path = tmp_path / "vecs.txt"
        _write_vectors(path, 4, [("ab", [1, 1, 1, 1])])
        model = embed_model(vocab, dim=4, n_max=3, buckets=11)
        report = load_pretrained(path, vocab, model.params["embed.word"])
        assert report.misses == 1
        ids = [fnv1a64(g.encode()) % 11 for g in char_ngrams("xy", 3, 3)]
        assert np.allclose(compose(model, "xy"), model.params["embed.bucket"].data[ids].mean(axis=0))


class TestEncodeDocument:
    def test_alignment_and_weights(self, model):
        d = doc("ab qq", "cd")
        enc = encode_document(d, model.vocab, model.table)
        assert enc.n_sentences == 2
        assert enc.word_ids[0].tolist() == [model.vocab.lookup("ab"), UNK]
        assert enc.word_weight[0].tolist() == [1.0, 0.0]
        assert len(enc.bucket_ids[0][1]) == len(char_ngrams("qq", 3, 3))

    def test_word_weight_is_one_for_vocabulary_words_only(self, model):
        d = EmailDocument(label=0, sentences=[["ab", "qq", "<pad>", "<unk>", "cd"], ["<unk>"]])
        enc = encode_document(d, model.vocab, model.table)
        assert [w.tolist() for w in enc.word_weight] == [[1.0, 0.0, 0.0, 0.0, 1.0], [0.0]]
        for weights, ids in zip(enc.word_weight, enc.word_ids):
            assert np.array_equal(weights, ids > UNK)

    def test_empty_document_rejected(self, model):
        with pytest.raises(VocabError):
            encode_document(EmailDocument(label=0, sentences=[]), model.vocab, model.table)

    def test_test_fold_contents_never_influence_vocab(self):
        train = [doc("seen words only")]
        vocab_a = build_vocab(train, min_count=1)
        vocab_b = build_vocab(train + [], min_count=1)  # same training side
        assert vocab_a.index_to_token == vocab_b.index_to_token
        assert "unseenword" not in vocab_a
