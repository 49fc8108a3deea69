import random

import numpy as np
import pytest

from hanspam import autodiff as ad
from hanspam.ingest import EmailDocument
from hanspam.vocab import (
    PAD,
    UNK,
    EmbeddingTable,
    PretrainedFormatError,
    VocabError,
    build_vocab,
    char_ngrams,
    encode_document,
    fnv1a64,
    load_pretrained,
)


def doc(*sentences, label=0):
    return EmailDocument(label=label, sentences=[s.split() for s in sentences])


def compose(table, token):
    """``token``'s vector as the model composes it, through ``embedding_lookup``:
    only in-vocabulary tokens add their word row."""
    word, buckets = table.vocab.lookup(token), table.bucket_ids(token)
    vec = ad.embedding_lookup(table.word, table.bucket, [word], [word > UNK], buckets, [0, len(buckets)])
    return vec.data[0]


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


@pytest.fixture
def table():
    vocab = build_vocab([doc("ab ab cd")], min_count=1)
    return EmbeddingTable(vocab, dim=8, n_min=3, n_max=3, buckets=13, seed=4)


class TestEmbedToken:
    def test_pad_is_zero(self, table):
        assert np.array_equal(compose(table, ""), np.zeros(8))

    def test_oov_deterministic_nonzero(self, table):
        first = compose(table, "zzz")
        second = compose(table, "zzz")
        assert np.array_equal(first, second)
        assert np.any(first != 0)

    def test_in_vocab_is_word_row_plus_gram_mean(self, table):
        ids = [fnv1a64(g.encode()) % 13 for g in ("<ab", "ab>", "<ab>")]
        expected = table.bucket.data[ids].mean(axis=0) + table.word.data[table.vocab.lookup("ab")]
        assert np.allclose(compose(table, "ab"), expected)

    def test_oov_is_gram_mean_alone(self, table):
        ids = [fnv1a64(g.encode()) % 13 for g in char_ngrams("zzz", 3, 3)]
        assert np.allclose(compose(table, "zzz"), table.bucket.data[ids].mean(axis=0))

    def test_repeated_calls_bitwise_equal(self, table):
        a = compose(table, "cd")
        b = compose(table, "cd")
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
        table, report = load_pretrained(path, vocab, dim=3, buckets=7)
        assert report.hits == 1
        assert report.file_tokens == 2
        assert np.array_equal(table.word.data[vocab.lookup("a")], [1.0, 2.0, 3.0])

    def test_repeated_token_counts_one_hit(self, tmp_path):
        vocab = build_vocab([doc("a b c")], min_count=1)
        path = tmp_path / "vecs.txt"
        _write_vectors(path, 3, [("a", [1, 2, 3]), ("a", [4, 5, 6]), ("a", [7, 8, 9]), ("b", [0, 0, 1])])
        table, report = load_pretrained(path, vocab, dim=3, buckets=7)
        assert (report.hits, report.misses, report.file_tokens) == (2, 1, 4)
        assert np.array_equal(table.word.data[vocab.lookup("a")], [7.0, 8.0, 9.0])  # the last listing wins

    def test_dim_mismatch(self, tmp_path):
        vocab = build_vocab([doc("a")], min_count=1)
        path = tmp_path / "vecs.txt"
        _write_vectors(path, 3, [("a", [1, 2, 3])])
        with pytest.raises(PretrainedFormatError, match="dimension"):
            load_pretrained(path, vocab, dim=200)

    def test_malformed_line_reports_number(self, tmp_path):
        vocab = build_vocab([doc("a")], min_count=1)
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1 2 3\nb 1 2\n", encoding="utf-8")
        with pytest.raises(PretrainedFormatError, match=":3:"):
            load_pretrained(path, vocab, dim=3)

    def test_missing_token_falls_back_to_gram_mean(self, tmp_path):
        vocab = build_vocab([doc("ab xy")], min_count=1)
        path = tmp_path / "vecs.txt"
        _write_vectors(path, 4, [("ab", [1, 1, 1, 1])])
        table, report = load_pretrained(path, vocab, dim=4, n_min=3, n_max=3, buckets=11)
        assert report.misses == 1
        ids = [fnv1a64(g.encode()) % 11 for g in char_ngrams("xy", 3, 3)]
        assert np.allclose(compose(table, "xy"), table.bucket.data[ids].mean(axis=0))


class TestEncodeDocument:
    def test_alignment_and_weights(self, table):
        d = doc("ab qq", "cd")
        enc = encode_document(d, table.vocab, table)
        assert enc.n_sentences == 2
        assert enc.word_ids[0].tolist() == [table.vocab.lookup("ab"), UNK]
        assert enc.word_weight[0].tolist() == [1.0, 0.0]
        assert len(enc.bucket_ids[0][1]) == len(char_ngrams("qq", 3, 3))

    def test_empty_document_rejected(self, table):
        with pytest.raises(VocabError):
            encode_document(EmailDocument(label=0, sentences=[]), table.vocab, table)

    def test_test_fold_contents_never_influence_vocab(self):
        train = [doc("seen words only")]
        vocab_a = build_vocab(train, min_count=1)
        vocab_b = build_vocab(train + [], min_count=1)  # same training side
        assert vocab_a.index_to_token == vocab_b.index_to_token
        assert "unseenword" not in vocab_a
