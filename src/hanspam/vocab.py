"""Training-fold vocabularies and subword-composed token embeddings.

A token's vector is its word row (when in vocabulary) plus the mean of its
hashed character n-gram bucket rows; out-of-vocabulary tokens fall back to
the n-gram mean alone, so rare and unseen words still get usable vectors.
The n-gram hash is FNV-1a 64-bit, fixed so results reproduce anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autodiff import Tensor
from .ingest import EmailDocument

PAD, UNK = 0, 1
PAD_TOKEN, UNK_TOKEN = "<pad>", "<unk>"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def char_ngrams(token: str, n_min: int, n_max: int) -> list[str]:
    """Boundary-marked character n-grams plus the whole marked token."""
    marked = f"<{token}>"
    grams = [
        marked[i : i + n]
        for n in range(n_min, n_max + 1)
        for i in range(len(marked) - n + 1)
    ]
    if marked not in grams:
        grams.append(marked)
    return grams


class VocabError(ValueError):
    pass


class Vocabulary:
    """Frequency-thresholded token index with reserved PAD/UNK slots.

    Index assignment is deterministic: frequency descending, then token
    lexicographic, so shuffled input yields an identical table.
    """

    def __init__(self, tokens: Sequence[str], freqs: Sequence[int], min_count: int = 1):
        self.min_count = min_count
        self.index_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}
        self.freqs = [0, 0] + list(freqs)
        if len(self.token_to_index) != len(self.index_to_token):
            raise VocabError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.index_to_token)

    def __contains__(self, token: str) -> bool:
        idx = self.token_to_index.get(token)
        return idx is not None and idx >= 2

    def lookup(self, token: str) -> int:
        return self.token_to_index.get(token, UNK)


def build_vocab(documents: Iterable[EmailDocument], min_count: int = 2) -> Vocabulary:
    """Count tokens over training documents and keep those above threshold."""
    counts: Counter[str] = Counter()
    n_docs = 0
    for doc in documents:
        n_docs += 1
        for sentence in doc.sentences:
            counts.update(sentence)
    if n_docs == 0:
        raise VocabError("cannot build a vocabulary from an empty training set")
    kept = sorted(
        ((tok, c) for tok, c in counts.items() if c >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    vocab = Vocabulary([t for t, _ in kept], [c for _, c in kept], min_count=min_count)
    return vocab


@dataclass
class PretrainedReport:
    hits: int  # vocabulary rows filled from the file
    misses: int  # vocabulary rows the file does not list
    file_tokens: int


class PretrainedFormatError(ValueError):
    pass


class EmbeddingTable:
    """Word rows plus hashed n-gram bucket rows, both held as autodiff tensors."""

    def __init__(
        self,
        vocab: Vocabulary,
        dim: int = 200,
        n_min: int = 3,
        n_max: int = 6,
        buckets: int = 100_000,
        seed: int = 0,
        init_scale: float = 0.05,
        trainable: bool = True,
    ):
        self.vocab = vocab
        self.dim = dim
        self.n_min = n_min
        self.n_max = n_max
        self.buckets = buckets
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xE18B])))
        words = rng.uniform(-init_scale, init_scale, size=(len(vocab), dim))
        words[PAD] = 0.0  # padding stays exactly zero; masking keeps it gradient-free
        words[UNK] = 0.0  # unused: unknown tokens embed via n-gram buckets only
        bucket_rows = rng.uniform(-init_scale, init_scale, size=(buckets, dim))
        self.word = Tensor(words, requires_grad=trainable, name="embed.word")
        self.bucket = Tensor(bucket_rows, requires_grad=trainable, name="embed.bucket")
        self._gram_cache: dict[str, tuple[int, ...]] = {}

    @property
    def trainable(self) -> bool:
        return self.word.requires_grad

    def set_trainable(self, flag: bool) -> None:
        self.word.requires_grad = flag
        self.bucket.requires_grad = flag

    def bucket_ids(self, token: str) -> tuple[int, ...]:
        if not token:
            return ()
        ids = self._gram_cache.get(token)
        if ids is None:
            ids = tuple(
                fnv1a64(g.encode("utf-8")) % self.buckets
                for g in char_ngrams(token, self.n_min, self.n_max)
            )
            self._gram_cache[token] = ids
        return ids


def load_pretrained(
    path: str | Path,
    vocab: Vocabulary,
    dim: int = 200,
    n_min: int = 3,
    n_max: int = 6,
    buckets: int = 100_000,
    seed: int = 0,
    trainable: bool = True,
) -> tuple[EmbeddingTable, PretrainedReport]:
    """Fill word rows from a text-format vector file ("count dim" header).

    Vocabulary tokens missing from the file get a zero word row so their
    vectors reduce to the n-gram composition.
    """
    table = EmbeddingTable(
        vocab, dim=dim, n_min=n_min, n_max=n_max, buckets=buckets, seed=seed, trainable=trainable
    )
    file_tokens = 0
    found = np.zeros(len(vocab), dtype=bool)
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise PretrainedFormatError(f"{path}:1: expected 'count dim' header, got {header!r}")
        try:
            _count, file_dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise PretrainedFormatError(f"{path}:1: non-numeric header {header!r}") from None
        if file_dim != dim:
            raise PretrainedFormatError(
                f"{path}: file dimension {file_dim} does not match configured {dim}"
            )
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            file_tokens += 1
            fields = line.rstrip("\n").split(" ")
            if len(fields) != dim + 1:
                raise PretrainedFormatError(
                    f"{path}:{lineno}: expected token + {dim} values, got {len(fields)} fields"
                )
            token = fields[0]
            if token not in vocab:
                continue
            try:
                vec = np.array([float(v) for v in fields[1:]])
            except ValueError:
                raise PretrainedFormatError(f"{path}:{lineno}: non-numeric vector value") from None
            idx = vocab.lookup(token)
            table.word.data[idx] = vec
            found[idx] = True
    table.word.data[2:][~found[2:]] = 0.0
    hits = int(found.sum())
    return table, PretrainedReport(hits=hits, misses=len(vocab) - 2 - hits, file_tokens=file_tokens)


@dataclass
class EncodedDocument:
    """Model-ready view: per sentence, aligned word indices / weights / buckets."""

    label: int
    word_ids: list[np.ndarray]  # per sentence, int indices (UNK for OOV)
    word_weight: list[np.ndarray]  # 1.0 when the word row participates, else 0.0
    bucket_ids: list[list[tuple[int, ...]]]
    doc_id: str = ""
    group: str | None = None

    @property
    def n_sentences(self) -> int:
        return len(self.word_ids)


def encode_document(doc: EmailDocument, vocab: Vocabulary, table: EmbeddingTable) -> EncodedDocument:
    if doc.empty:
        raise VocabError(f"document {doc.doc_id!r} has no tokens to encode")
    word_ids, word_w, buckets = [], [], []
    for sentence in doc.sentences:
        if not sentence:
            continue
        ids = np.array([vocab.lookup(t) for t in sentence], dtype=np.intp)
        w = np.array([1.0 if t in vocab else 0.0 for t in sentence])
        word_ids.append(ids)
        word_w.append(w)
        buckets.append([table.bucket_ids(t) for t in sentence])
    return EncodedDocument(
        label=doc.label,
        word_ids=word_ids,
        word_weight=word_w,
        bucket_ids=buckets,
        doc_id=doc.doc_id,
        group=doc.group,
    )
