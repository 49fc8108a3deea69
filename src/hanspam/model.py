"""Hierarchical document classifier: embed, convolve, encode, attend, classify.

Per sentence, token vectors pass through an optional convolutional feature
stack (plain multi-window CNN or causal dilated residual TCN), then a
bidirectional GRU produces token annotations that word attention pools into a
sentence vector. A second bidirectional GRU plus attention pools sentence
vectors into a document vector feeding a two-class softmax head.

Batched forwards are time-major. Each level carries one ``[steps, rows, dim]``
tensor: words from the embedding lookup through the convolutional stack, the
word BiGRU and word attention, with one row per real sentence of the batch,
longest first; then sentences, gathered from those rows into ``[S, docs, dim]``
with padding slots reading a zero row, through the sentence BiGRU and
attention. Every convolution is ``autodiff.dilated_conv1d`` and every BiGRU
one ``autodiff.bigru``; both compute a step on its real rows only, which the
length order makes a prefix, and each reads its weights in the shape they
are stored in (``init_params``), so a forward joins no parameters. A
convolution reads padding as zero, and a BiGRU's update gate is exactly 0 on
a padded step, so the state carries over. Attention turns padding into an
additive bias, -inf on a padded step's score, which gives it weight 0. The
whole model composes from differentiable primitives, so every part stays
gradient-checkable.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vocab import PAD, UNK, EmbeddingTable, EncodedDocument, Vocabulary, encode_document

VARIANTS = ("none", "cnn", "tcn")


class ConfigError(ValueError):
    pass


def check_section(name: str, section: dict, keys: dict) -> None:
    """``ConfigError`` for a key not in ``keys``, or a value off its row
    ``(type, valid value?, what a valid value is)``; ``name`` leads the message."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        where = f"{name} " if name else ""
        raise ConfigError(f"unknown {where}config key(s): {', '.join(unknown)}")
    for key, value in section.items():
        kind, valid, want = keys[key]
        # bool is an int subclass: only the switches take one
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind) or not valid(value):
            shown = json.dumps(value, default=repr)  # repr: what JSON cannot show, e.g. a numpy integer
            raise ConfigError(f"{name} {key} must be {want}, got {shown}".lstrip())


class CheckpointError(ValueError):
    """A checkpoint file is not one, is cut short or has bytes past its end."""


# HanConfig field: (type, valid value?, what a valid value is), as check_section reads them
_MODEL_KEYS = {
    **dict.fromkeys(
        ("embed_dim", "gru_hidden", "cnn_maps", "tcn_levels", "tcn_kernel", "tcn_channels",
         "s_max", "t_max", "embed_buckets", "embed_n_min", "embed_n_max"),
        (int, lambda v: v >= 1, "an integer >= 1"),
    ),
    "variant": (str, lambda v: v in VARIANTS, f"one of {json.dumps(VARIANTS)}"),
    "cnn_windows": (
        (list, tuple),
        lambda v: len(v) > 0 and all(isinstance(w, int) and not isinstance(w, bool) and w >= 1 for w in v),
        "a non-empty list of integers >= 1",
    ),
    "dropout": ((int, float), lambda v: 0 <= v < 1, "a number in [0, 1)"),
}


@dataclass
class HanConfig:
    embed_dim: int = 200
    gru_hidden: int = 50  # per direction; annotations are twice this
    variant: str = "cnn"
    cnn_windows: tuple[int, ...] = (2, 3, 4)
    cnn_maps: int = 64  # feature maps per window size
    tcn_levels: int = 3
    tcn_kernel: int = 3
    tcn_channels: int = 64
    dropout: float = 0.5
    s_max: int = 30
    t_max: int = 50
    embed_buckets: int = 100_000
    embed_n_min: int = 3
    embed_n_max: int = 6

    def __post_init__(self):
        # vars, not asdict: asdict deep-copies, and every checkpoint load builds a config
        check_section("model", vars(self), _MODEL_KEYS)
        self.cnn_windows = tuple(self.cnn_windows)  # from JSON it arrives as a list
        if self.embed_n_min > self.embed_n_max:
            raise ConfigError(
                f"model embed_n_max must be an integer >= embed_n_min ({self.embed_n_min}), "
                f"got {self.embed_n_max}"
            )
        if self.variant == "cnn" and max(self.cnn_windows) > self.t_max:
            raise ConfigError(
                f"model cnn_windows must be sizes <= t_max ({self.t_max}), got {list(self.cnn_windows)}"
            )

    @property
    def feature_dim(self) -> int:
        """Channel count the word encoder sees."""
        if self.variant == "cnn":
            return len(self.cnn_windows) * self.cnn_maps
        if self.variant == "tcn":
            return self.tcn_channels
        return self.embed_dim

    @classmethod
    def from_dict(cls, d: dict) -> "HanConfig":
        unknown = sorted(set(d) - set(_MODEL_KEYS))
        if unknown:
            raise ConfigError(f"unknown model config key(s): {', '.join(unknown)}")
        return cls(**d)


def dropout_plan(p: float, seed: int, step: int) -> Callable[[Tensor], Tensor]:
    """One forward's dropout: each call is a new site, numbered from 1, whose
    mask (seed, step, site) fixes; ``ad.dropout`` is the identity at ``p`` 0."""
    sites = itertools.count(1)
    return lambda x: ad.dropout(x, p, seed=seed, step=step, salt=next(sites))


def _padding_bias(mask: np.ndarray | None, rows: int, steps: int) -> np.ndarray | None:
    """Additive ``[rows, steps]`` attention bias: 0 at a real step, -inf at padding; None without a mask."""
    if mask is None:
        return None
    if np.shape(mask) != (rows, steps):
        raise ad.ShapeError(
            f"attention_pool expects a mask[rows, steps] = {[rows, steps]}, got {list(np.shape(mask))}"
        )
    return np.where(mask, 0.0, -np.inf)


def bigru_encode(x: Tensor, mask: np.ndarray | None, w: Tensor, b: Tensor, u: Tensor) -> Tensor:
    """Annotations ``[steps, rows, 2*hidden]``: ``[fwd_state; bwd_state]`` per step.

    The model's BiGRU layer, one ``ad.bigru`` op (see there for the shapes
    and the mask). It is a function of its own so that a profiler can time
    it by name; each level passes its ``{level}_gru.w``, ``.b`` and ``.u``.
    """
    return ad.bigru(x, mask, w, b, u)


def attention_pool(
    annotations: Tensor,
    mask: np.ndarray | None,
    w: Tensor,
    b: Tensor,
    context: Tensor,
) -> tuple[Tensor, Tensor]:
    """Score each step against a trained context vector and pool by softmax.

    ``annotations`` is ``[steps, rows, dim]`` and ``mask`` ``[rows, steps]``;
    a masked step scores -inf and gets weight 0, and a row with no valid
    step raises ``EmptyAttentionError``. Returns the pooled rows
    ``[rows, dim]`` and the attention weight matrix ``[rows, steps]``.
    """
    if annotations.ndim != 3 or annotations.shape[0] < 1:
        raise ad.ShapeError(f"attention_pool expects [steps >= 1, rows, dim], got {annotations.shape}")
    steps, rows, dim = annotations.shape
    bias = _padding_bias(mask, rows, steps)
    flat = ad.reshape(annotations, (steps * rows, dim))
    scores = ad.transpose(ad.reshape(ad.tanh(flat @ w + b) @ context, (steps, rows)), (1, 0))
    alpha = ad.softmax(scores if bias is None else ad.add(scores, bias))
    weights = ad.reshape(ad.transpose(alpha, (1, 0)), (steps, rows, 1))
    return ad.tsum(ad.mul(weights, annotations), axis=0), alpha


def conv_feature_stack(
    x: Tensor,
    params: dict[str, Tensor],
    windows: tuple[int, ...],
    drop: Callable[[Tensor], Tensor] = lambda x: x,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-window same-padded convolutions over the token axis, ReLU, concat.

    ``x`` is ``[steps, rows, dim]``; window ``w`` sees ``(w-1)//2`` earlier
    positions. Its ``cnn.w{w}.kernel`` is ``[w, dim, maps]`` in the order
    ``dilated_conv1d`` applies it: entry ``j`` reads position
    ``t + w//2 - j``, so the last entry reads the earliest position.
    Outside the sequence, and off ``mask`` (``[rows, steps]``), it reads
    zeros; a position off the mask gets ``relu(bias)``.
    """
    maps = []
    for w in windows:
        conv = ad.dilated_conv1d(x, params[f"cnn.w{w}.kernel"], mode="centred", mask=mask)
        maps.append(ad.relu(ad.add(conv, params[f"cnn.w{w}.bias"])))
        del conv  # hold no window's raw output past its use
    # without a tape, and with no reference left in the caller, this frees the
    # input before the concat doubles the output
    del x
    return drop(ad.concat(maps, axis=2) if len(maps) > 1 else maps[0])


def tcn_stack(
    x: Tensor,
    params: dict[str, Tensor],
    levels: int,
    drop: Callable[[Tensor], Tensor] = lambda x: x,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Stacked causal dilated conv blocks (dilation doubling) with residuals.

    ``x`` is ``[steps, rows, dim]``; block ``l``'s ``tcn.block{l}.kernel``
    is ``[kernel, cin, channels]``, entry ``i`` reading position
    ``t - 2**l * i``. A block's residual goes through its one-tap ``proj``
    (``[1, cin, channels]``) when the block changes the channel count. Every
    convolution reads positions off ``mask`` (``[rows, steps]``) as zeros.
    """
    for lvl in range(levels):
        conv = ad.dilated_conv1d(x, params[f"tcn.block{lvl}.kernel"], d=2**lvl, mode="same", mask=mask)
        y = drop(ad.relu(ad.add(conv, params[f"tcn.block{lvl}.bias"])))
        del conv
        proj = params.get(f"tcn.block{lvl}.proj")
        x = ad.add(y, x if proj is None else ad.dilated_conv1d(x, proj, mask=mask))
    return x


@dataclass
class Batch:
    """Model-ready arrays for a group of documents. Each real sentence is one
    row of ``tokens``, longest first, so the rows still real at a step are a
    prefix of them; ``sent_rows`` says which row holds which sentence. Each
    distinct ``(word id, bucket ids)`` token is listed once, padding first."""

    labels: np.ndarray  # [B]
    sent_rows: np.ndarray  # [B, S] row of tokens per sentence slot; n for a padding slot
    tokens: np.ndarray  # [n, T] index into the distinct tokens; 0 is padding
    token_words: np.ndarray  # word id per distinct token
    token_buckets: np.ndarray  # the distinct tokens' bucket ids, concatenated
    token_offs: np.ndarray  # CSR offsets into token_buckets, one more than the distinct tokens

    @property
    def sent_mask(self) -> np.ndarray:
        """``[B, S]``: which sentence slots hold a sentence."""
        return self.sent_rows < self.tokens.shape[0]

    @property
    def tok_mask(self) -> np.ndarray:
        """``[n, T]``: which token slots hold a token (entry 0 is only ever padding)."""
        return self.tokens != 0


def collate(docs: Sequence[EncodedDocument]) -> Batch:
    """One ``Batch`` for ``docs``. Sentence rows are sorted by real length,
    longest first, with ties in document order; distinct tokens are numbered
    in order of first appearance in document order."""
    if not docs:
        raise ValueError("cannot collate an empty batch")
    for doc in docs:
        if doc.n_sentences == 0:
            raise ValueError(f"document {doc.doc_id!r} is empty")
        for si, ids in enumerate(doc.word_ids):
            if len(ids) == 0:
                raise ValueError(f"document {doc.doc_id!r} has no tokens in sentence {si}")
    n = sum(d.n_sentences for d in docs)
    s = max(d.n_sentences for d in docs)
    t = max(len(ids) for d in docs for ids in d.word_ids)

    labels = np.array([d.label for d in docs], dtype=np.intp)
    sent_rows = np.full((len(docs), s), n, dtype=np.intp)
    tokens = np.zeros((n, t), dtype=np.intp)
    index: dict[tuple[int, tuple[int, ...]], int] = {(PAD, ()): 0}
    # a stable sort keeps equal lengths in document order
    by_length = np.argsort([-len(ids) for d in docs for ids in d.word_ids], kind="stable")
    rows = iter(np.argsort(by_length))  # each sentence's rank, in document order

    for di, doc in enumerate(docs):
        for si in range(doc.n_sentences):
            keys = list(zip(doc.word_ids[si].tolist(), doc.bucket_ids[si]))
            row = next(rows)
            sent_rows[di, si] = row
            tokens[row, : len(keys)] = [index.setdefault(k, len(index)) for k in keys]

    words, buckets = zip(*index)  # in order of first appearance
    offs = np.cumsum([0, *map(len, buckets)])
    return Batch(
        labels=labels,
        sent_rows=sent_rows,
        tokens=tokens,
        token_words=np.array(words, dtype=np.intp),
        token_buckets=np.fromiter(itertools.chain.from_iterable(buckets), dtype=np.intp, count=offs[-1]),
        token_offs=offs,
    )


@dataclass
class AttentionTrace:
    """Attention weights for one document, trimmed to real lengths."""

    word_weights: list[np.ndarray]
    sentence_weights: np.ndarray


def param_shapes(config: HanConfig, n_words: int) -> dict[str, tuple[int, ...]]:
    """Every trainable tensor's name and shape, in construction and checkpoint
    order. ``embed.word`` is ``[n_words, embed]``, one row per vocabulary
    index, and ``embed.bucket`` ``[buckets, embed]``. Each weight has the
    shape its op reads: ``cnn.w{w}.kernel`` is ``[w, embed, maps]`` and
    ``tcn.block{l}.kernel`` ``[k, cin, channels]`` (see the stacks),
    ``{level}_gru.w``, ``.b`` and ``.u`` are ``[2, in, 3u]``, ``[2, 3u]``
    and ``[2, u, 3u]`` (see ``ad.bigru``).
    """
    e, u, ch = config.embed_dim, config.gru_hidden, config.tcn_channels
    shapes = {"embed.word": (n_words, e), "embed.bucket": (config.embed_buckets, e)}
    if config.variant == "cnn":
        for w in config.cnn_windows:
            shapes |= {f"cnn.w{w}.kernel": (w, e, config.cnn_maps), f"cnn.w{w}.bias": (config.cnn_maps,)}
    elif config.variant == "tcn":
        for lvl in range(config.tcn_levels):
            cin = e if lvl == 0 else ch
            shapes |= {f"tcn.block{lvl}.kernel": (config.tcn_kernel, cin, ch), f"tcn.block{lvl}.bias": (ch,)}
            if cin != ch:
                shapes[f"tcn.block{lvl}.proj"] = (1, cin, ch)
    for level, in_dim in (("word", config.feature_dim), ("sent", 2 * u)):
        shapes |= {
            f"{level}_gru.w": (2, in_dim, 3 * u), f"{level}_gru.b": (2, 3 * u), f"{level}_gru.u": (2, u, 3 * u),
            f"{level}_attn.w": (2 * u, 2 * u), f"{level}_attn.b": (2 * u,), f"{level}_attn.u": (2 * u,),
        }
    return shapes | {"head.w": (2 * u, 2), "head.b": (2,)}


def init_params(config: HanConfig, n_words: int, seed: int = 0) -> dict[str, Tensor]:
    """``param_shapes``' tensors, drawn. The two embedding tables are drawn
    first, from a stream of their own, word rows then bucket rows; the PAD
    and UNK word rows are zero (padding must stay exactly zero, and an
    unknown token embeds through its n-gram buckets only). The other random
    weights are drawn in C order, a CNN kernel from its last entry, and a
    GRU's ``w`` and ``u`` one gate block at a time (per direction and gate
    z, r, h: ``w`` then ``u``); biases start at zero. Every array is
    C-contiguous.
    """
    scale = 0.05
    shapes = param_shapes(config, n_words)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xE18B])))
    arrays = {name: rng.uniform(-scale, scale, shapes[name]) for name in ("embed.word", "embed.bucket")}
    arrays["embed.word"][[PAD, UNK]] = 0.0
    arrays |= {name: np.zeros(shape) for name, shape in shapes.items() if name not in arrays}
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x4A11])))

    u = config.gru_hidden
    views = []  # what to draw, in draw order
    for name, a in arrays.items():
        if name.endswith("_gru.w"):  # per direction and gate: the w block, then the u block
            gru_u = arrays[name[:-1] + "u"]
            views += [x[d, :, g * u : (g + 1) * u] for d in range(2) for g in range(3) for x in (a, gru_u)]
        elif not (name.startswith("embed.") or name.endswith((".bias", ".b", "_gru.u"))):
            views.append(a[::-1] if name.startswith("cnn.") else a)  # the last kernel entry reads the earliest position
    for out in views:
        out[...] = rng.uniform(-scale, scale, out.shape)
    return {name: Tensor(a, requires_grad=True, name=name) for name, a in arrays.items()}


class HanModel:
    """Config + vocabulary + token hasher + named parameters. The hasher's
    n-gram range and bucket count are the config's ``embed_*`` fields."""

    def __init__(self, config: HanConfig, vocab: Vocabulary, seed: int = 0):
        self.config = config
        self.vocab = vocab
        self.table = EmbeddingTable(config.embed_n_min, config.embed_n_max, config.embed_buckets)
        self.seed = seed
        self.params = init_params(config, len(vocab), seed=seed)

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [(k, t) for k, t in self.params.items() if t.requires_grad]

    def encode(self, docs) -> list[EncodedDocument]:
        docs = list(docs)
        # the n-grams of every token not seen before are hashed in one pass
        self.table.bucket_ids([t for d in docs for s in d.sentences for t in s])
        return [encode_document(d, self.vocab, self.table) for d in docs]

    # --- forward -------------------------------------------------------------

    def _embed(self, batch: Batch) -> Tensor:
        """Token vectors ``[T, rows, embed]``: each distinct token composed
        once, then gathered by position. Padded positions are exact zeros."""
        vectors = ad.embedding_lookup(
            self.params["embed.word"],
            self.params["embed.bucket"],
            batch.token_words,
            batch.token_words > UNK,  # PAD and UNK have no word row; OOV tokens are buckets alone
            batch.token_buckets,
            batch.token_offs,
        )
        return ad.take_rows(vectors, batch.tokens.T)

    def _words(self, batch: Batch, drop: Callable[[Tensor], Tensor]) -> Tensor:
        """Word features ``[T, rows, feature_dim]``: the embedding, through
        the variant's convolutional stack if it has one."""
        cfg = self.config
        # the stacks get the embedding as their only reference, so it can go
        # as soon as they are done with it
        if cfg.variant == "cnn":
            return conv_feature_stack(self._embed(batch), self.params, cfg.cnn_windows, drop, batch.tok_mask)
        if cfg.variant == "tcn":
            return tcn_stack(self._embed(batch), self.params, cfg.tcn_levels, drop, batch.tok_mask)
        return self._embed(batch)

    def _level(self, level: str, x: Tensor, mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """One HAN level, ``word`` or ``sent``: its BiGRU annotates ``x``, and
        its attention pools each row (returned as ``attention_pool`` does)."""
        p = self.params
        # w goes positionally: a tracer tells the levels apart by its name
        ann = bigru_encode(x, mask, p[f"{level}_gru.w"], p[f"{level}_gru.b"], p[f"{level}_gru.u"])
        # without a tape, and with no reference left in the caller, this frees
        # the input before attention
        del x
        return attention_pool(ann, mask, p[f"{level}_attn.w"], p[f"{level}_attn.b"], p[f"{level}_attn.u"])

    def forward_batch(
        self, batch: Batch, training: bool = False, step: int = 0
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Class probabilities ``[docs x 2]`` plus word/sentence attention maps.

        Word attention ``alpha_w`` is ``[n, T]``, one row per real sentence in
        ``batch.tokens`` order (``batch.sent_rows`` maps sentences to rows);
        sentence attention ``alpha_s`` is ``[docs, S]``.
        """
        drop = dropout_plan(self.config.dropout if training else 0.0, self.seed, step)
        # as a temporary, the word features' only reference is the level's (from CPython 3.11)
        sent_vec, alpha_w = self._level("word", self._words(batch, drop), batch.tok_mask)
        # gather the sentence rows into one time-major [S, B, 2u] sequence;
        # padding slots read the zero row appended after the last sentence
        pad_row = Tensor(np.zeros((1, sent_vec.shape[1])))
        sent_seq = ad.take_rows(ad.concat([sent_vec, pad_row]), batch.sent_rows.T)
        doc_vec, alpha_s = self._level("sent", sent_seq, batch.sent_mask)
        logits = doc_vec @ self.params["head.w"] + self.params["head.b"]
        return ad.softmax(logits), alpha_w, alpha_s

    def forward_document(self, doc: EncodedDocument) -> tuple[np.ndarray, AttentionTrace]:
        """Evaluation-mode probabilities and attention trace for one document."""
        batch = collate([doc])
        probs, alpha_w, alpha_s = self.forward_batch(batch, training=False)
        words = [
            alpha_w.data[batch.sent_rows[0, i], : len(ids)].copy() for i, ids in enumerate(doc.word_ids)
        ]
        trace = AttentionTrace(
            word_weights=words,
            sentence_weights=alpha_s.data[0, : doc.n_sentences].copy(),
        )
        return probs.data[0].copy(), trace

    def score(self, docs: Sequence[EncodedDocument], batch_size: int = 64) -> np.ndarray:
        """Spam-class probability per document (evaluation mode)."""
        out = np.empty(len(docs))
        for lo in range(0, len(docs), batch_size):
            chunk = docs[lo : lo + batch_size]
            probs, _, _ = self.forward_batch(collate(chunk), training=False)
            out[lo : lo + len(chunk)] = probs.data[:, 1]
        return out

    # --- checkpointing -------------------------------------------------------

    def save(self, path: str | Path, extra: dict | None = None) -> None:
        save_checkpoint(path, self, extra=extra)

    @classmethod
    def load(cls, path: str | Path) -> "HanModel":
        return load_checkpoint(path)


_MAGIC = b"HANCKPT\x01"


def save_checkpoint(path: str | Path, model: HanModel, extra: dict | None = None) -> None:
    """Versioned binary container; identical models serialize byte-identically."""
    names = list(model.params.keys())
    header = {
        "format": "hanspam-checkpoint",
        "version": 4,
        "config": vars(model.config),  # JSON writes cnn_windows, a tuple, as a list
        "seed": model.seed,
        "vocab": model.vocab.index_to_token[2:],
        "params": [
            {"name": k, "shape": list(model.params[k].shape)} for k in names
        ],
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(model.params[name].data).tobytes())


def load_checkpoint(path: str | Path) -> HanModel:
    """Read a checkpoint; ``CheckpointError`` if the bytes do not form one.

    The header must be a version-4 hanspam checkpoint whose vocabulary is a
    list of strings and whose parameter list (names, shapes and order) is
    exactly ``param_shapes`` of its config and vocabulary; this is checked
    before any parameter is allocated or the payload is read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        raw = fh.read(8)
        if len(raw) != 8:
            raise CheckpointError(f"{path} is truncated: header length has {len(raw)} of 8 bytes")
        (hlen,) = struct.unpack("<Q", raw)
        size = os.fstat(fh.fileno()).st_size
        blob = fh.read(min(hlen, size - fh.tell()))
        if len(blob) != hlen:
            raise CheckpointError(f"{path} is truncated: header has {len(blob)} of {hlen} bytes")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path} has an unreadable header: {exc}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path} has a header that is not a JSON object")
        required = ("format", "version", "config", "seed", "vocab", "params")
        missing = [k for k in required if k not in header]
        if missing:
            raise CheckpointError(f"{path} has a header without {', '.join(missing)}")
        if header["format"] != "hanspam-checkpoint" or header["version"] != 4:
            raise CheckpointError(
                f"{path} is format {header['format']!r} version {header['version']!r}, "
                "not hanspam-checkpoint version 4"
            )
        try:
            listed = [(spec["name"], tuple(int(n) for n in spec["shape"])) for spec in header["params"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path} has a malformed parameter list: {exc!r}") from None
        declared = 8 * sum(int(np.prod(shape)) for _, shape in listed)
        payload = size - fh.tell()
        if payload < declared:
            raise CheckpointError(f"{path} is truncated: payload has {payload} of {declared} bytes")
        if payload > declared:
            raise CheckpointError(f"{path} has {payload - declared} trailing bytes after the payload")
        tokens, seed = header["vocab"], header["seed"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CheckpointError(f"{path} has a vocab that is not a list of strings")
        if not isinstance(seed, int) or seed < 0:
            raise CheckpointError(f"{path} has a seed that is not an integer >= 0: {seed!r}")
        try:
            config, vocab = HanConfig.from_dict(header["config"]), Vocabulary(tokens)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path} has a bad header: {type(exc).__name__}: {exc}") from None
        # compared before anything is allocated: a damaged config allocates what it asks for
        built = list(param_shapes(config, len(vocab)).items())
        if listed != built:
            spec = lambda p: "nothing" if p is None else f"{p[0]} {list(p[1])}"
            got, want = next((a, b) for a, b in itertools.zip_longest(listed, built) if a != b)
            raise CheckpointError(f"{path} lists {spec(got)} where its config builds {spec(want)}")
        model = HanModel(config, vocab, seed=seed)
        for name, t in model.params.items():
            # straight from the file into the array the model holds: no second copy
            got = fh.readinto(memoryview(t.data).cast("B"))
            if got != t.data.nbytes:
                raise CheckpointError(f"{path} is truncated: {name} has {got} of {t.data.nbytes} bytes")
    return model
