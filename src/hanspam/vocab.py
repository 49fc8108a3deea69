"""Training-fold vocabularies and the hashed subwords of token embeddings.

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
    """FNV-1a 64-bit of ``data``, one byte at a time: the reference ``gram_buckets`` is tested against."""
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


def gram_buckets(tokens: Sequence[str], n_min: int, n_max: int, buckets: int) -> list[tuple[int, ...]]:
    """Per token ``t``, ``fnv1a64(g.encode("utf-8")) % buckets`` for each ``g``
    of ``char_ngrams(t, n_min, n_max)``, in that order.

    The n-grams of all tokens are hashed together: step ``k`` folds byte
    ``k`` into every gram longer than ``k`` bytes, longest first, so the
    grams a step folds are a prefix. A whole marked token that is longer or
    shorter than every n is one more gram, listed after its n-grams.
    """
    marked = [f"<{t}>" for t in tokens]
    size = np.array([len(m) for m in marked], dtype=np.intp)
    text = "".join(marked)
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    # where each character's UTF-8 bytes begin
    points = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    width = 1 + (points >= 0x80) + (points >= 0x800) + (points >= 0x10000)
    byte_at = np.r_[0, np.cumsum(width)]
    base = np.cumsum(size) - size  # first character of each marked token

    # n-grams grouped by n, each group in token order and then start order,
    # then the whole marked tokens that no n covers
    owner, lo, hi = [], [], []
    for n in range(n_min, min(n_max, size.max(initial=0)) + 1):  # no token has a longer gram
        count = np.maximum(size - n + 1, 0)
        tok = np.repeat(np.arange(len(marked)), count)
        start = base[tok] + np.arange(tok.size) - np.repeat(np.cumsum(count) - count, count)
        owner.append(tok)
        lo.append(byte_at[start])
        hi.append(byte_at[start + n])
    whole = np.flatnonzero((size < n_min) | (size > n_max))
    owner.append(whole)
    lo.append(byte_at[base[whole]])
    hi.append(byte_at[base[whole] + size[whole]])
    owner, lo, hi = np.concatenate(owner), np.concatenate(lo), np.concatenate(hi)
    length = hi - lo
    by_length = np.argsort(-length, kind="stable")
    folding = np.searchsorted(-length[by_length], -np.arange(length.max(initial=0)), side="left")
    first = lo[by_length]
    h = np.full(by_length.size, _FNV_OFFSET, dtype=np.uint64)
    for k, m in enumerate(folding):
        h[:m] ^= data[first[:m] + k]
        h[:m] *= np.uint64(_FNV_PRIME)  # wraps modulo 2**64 as the definition's mask does
    hashes = np.empty_like(h)
    hashes[by_length] = h
    ids = (hashes % np.uint64(buckets))[np.argsort(owner, kind="stable")].tolist()

    out, at = [], 0
    for count in np.bincount(owner, minlength=len(marked)).tolist():
        out.append(tuple(ids[at : at + count]))
        at += count
    return out


class VocabError(ValueError):
    pass


class Vocabulary:
    """Token index with reserved PAD/UNK slots: ``tokens`` get indices 2, 3, ...
    in the order given."""

    def __init__(self, tokens: Sequence[str]):
        self.index_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}
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
    """Count tokens over training documents and keep those seen ``min_count``
    times or more, by count descending, then token lexicographic, so shuffled
    input yields an identical vocabulary."""
    counts: Counter[str] = Counter()
    n_docs = 0
    for doc in documents:
        n_docs += 1
        for sentence in doc.sentences:
            counts.update(sentence)
    if n_docs == 0:
        raise VocabError("cannot build a vocabulary from an empty training set")
    kept = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


@dataclass
class PretrainedReport:
    hits: int  # vocabulary rows filled from the file
    misses: int  # vocabulary rows the file does not list


class PretrainedFormatError(ValueError):
    pass


class EmbeddingTable:
    """Token to n-gram bucket ids, hashed once per distinct token and cached.
    A model builds it from its config's ``embed_n_min``, ``embed_n_max`` and
    ``embed_buckets``; the rows the ids index are ``init_params``'s
    ``embed.bucket``."""

    def __init__(self, n_min: int, n_max: int, buckets: int):
        self.n_min = n_min
        self.n_max = n_max
        self.buckets = buckets
        self._gram_cache: dict[str, tuple[int, ...]] = {}

    def bucket_ids(self, tokens: Sequence[str]) -> list[tuple[int, ...]]:
        """Each token's bucket ids, in order; the n-grams of the tokens not
        cached yet are hashed together, in one pass. A ``str`` is refused."""
        if isinstance(tokens, str):
            raise TypeError(f"bucket_ids takes a list of tokens, got the string {tokens!r}")
        cache = self._gram_cache
        new = list(dict.fromkeys(t for t in tokens if t not in cache))
        if new:
            cache.update(zip(new, gram_buckets(new, self.n_min, self.n_max, self.buckets)))
        return list(map(cache.__getitem__, tokens))


def load_pretrained(path: str | Path, vocab: Vocabulary, word: Tensor) -> PretrainedReport:
    """Fill the rows of ``word`` (a model's ``embed.word``, one row per
    ``vocab`` index) in place from a text-format vector file ("count dim"
    header) whose dimension is the row width. A vector line is
    split on single spaces after its trailing whitespace is cut, so a line
    ending in a space, as word2vec's text output writes, is read.

    Vocabulary tokens missing from the file get a zero word row so their
    vectors reduce to the n-gram composition.
    """
    dim = word.shape[1]
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
            fields = line.rstrip().split(" ")
            if fields == [""]:
                continue
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
            if not np.isfinite(vec).all():
                raise PretrainedFormatError(f"{path}:{lineno}: non-finite vector value")
            idx = vocab.lookup(token)
            word.data[idx] = vec
            found[idx] = True
    word.data[2:][~found[2:]] = 0.0
    hits = int(found.sum())
    return PretrainedReport(hits=hits, misses=len(vocab) - 2 - hits)


@dataclass
class EncodedDocument:
    """Model-ready view: per sentence, aligned word indices and bucket ids."""

    label: int
    word_ids: list[np.ndarray]  # per sentence, int indices (UNK for OOV)
    bucket_ids: list[list[tuple[int, ...]]]
    doc_id: str = ""

    @property
    def n_sentences(self) -> int:
        return len(self.word_ids)

    @property
    def word_weight(self) -> list[np.ndarray]:
        """Per sentence, 1.0 where the token's word row participates (an
        in-vocabulary token) and 0.0 for OOV, ``<pad>`` and ``<unk>``."""
        return [(ids > UNK).astype(np.float64) for ids in self.word_ids]


def encode_document(doc: EmailDocument, vocab: Vocabulary, table: EmbeddingTable) -> EncodedDocument:
    if doc.empty:
        raise VocabError(f"document {doc.doc_id!r} has no tokens to encode")
    sentences = [s for s in doc.sentences if s]
    return EncodedDocument(
        label=doc.label,
        word_ids=[np.array([vocab.lookup(t) for t in s], dtype=np.intp) for s in sentences],
        bucket_ids=[table.bucket_ids(s) for s in sentences],
        doc_id=doc.doc_id,
    )
