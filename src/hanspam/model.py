"""Hierarchical document classifier: embed, convolve, encode, attend, classify.

Per sentence, token vectors pass through an optional convolutional feature
stack (plain multi-window CNN or causal dilated residual TCN), then a
bidirectional GRU produces token annotations that word attention pools into a
sentence vector. A second bidirectional GRU plus attention pools sentence
vectors into a document vector feeding a two-class softmax head.

Batched forwards are time-major. Each level carries one ``[steps, rows, dim]``
tensor: words from the embedding lookup through the convolutional stack, the
word BiGRU and word attention, with one row per real sentence of the batch;
then sentences, gathered from those rows into ``[S, docs, dim]`` with padding
slots reading a zero row, through the sentence BiGRU and attention. Every
convolution is ``autodiff.dilated_conv1d``; only a GRU's state update runs
step by step. Padding is one additive bias per sequence op: -inf on a padded
step's GRU update gate carries the state over, and on its attention score
gives it weight 0. The whole model composes from differentiable primitives,
so every part stays gradient-checkable.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vocab import PAD, UNK, EmbeddingTable, EncodedDocument, Vocabulary

VARIANTS = ("none", "cnn", "tcn")


class ConfigError(ValueError):
    pass


class CheckpointError(ValueError):
    """A checkpoint file is not one, is cut short or has bytes past its end."""


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
    n_classes: int = 2
    s_max: int = 30
    t_max: int = 50
    embed_buckets: int = 100_000
    embed_n_min: int = 3
    embed_n_max: int = 6

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        # types before ranges; an annotation is the string "int" under
        # postponed evaluation and the class otherwise; bool, an int
        # subclass, is no size
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", int) and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if isinstance(self.dropout, bool) or not isinstance(self.dropout, (int, float)):
            raise ConfigError(f"dropout must be a number, got {self.dropout!r}")
        if not isinstance(self.cnn_windows, (tuple, list)) or any(
            isinstance(w, bool) or not isinstance(w, int) for w in self.cnn_windows
        ):
            shown = list(self.cnn_windows) if isinstance(self.cnn_windows, tuple) else self.cnn_windows
            raise ConfigError(f"cnn_windows must be a list of integers, got {shown!r}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("embed_dim", "gru_hidden", "tcn_levels", "tcn_kernel",
                     "tcn_channels", "cnn_maps", "s_max", "t_max", "embed_buckets"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not self.cnn_windows or min(self.cnn_windows) < 1:
            raise ConfigError(f"cnn_windows must be positive window sizes, got {list(self.cnn_windows)}")
        if not 1 <= self.embed_n_min <= self.embed_n_max:
            raise ConfigError(
                f"need 1 <= embed_n_min <= embed_n_max, got {self.embed_n_min} and {self.embed_n_max}"
            )
        if self.variant == "cnn" and max(self.cnn_windows) > self.t_max:
            raise ConfigError(
                f"cnn window {max(self.cnn_windows)} exceeds t_max {self.t_max}"
            )
        if self.n_classes != 2:
            raise ConfigError("only the two-class head is supported")

    @property
    def feature_dim(self) -> int:
        """Channel count the word encoder sees."""
        if self.variant == "cnn":
            return len(self.cnn_windows) * self.cnn_maps
        if self.variant == "tcn":
            return self.tcn_channels
        return self.embed_dim

    def to_dict(self) -> dict:
        d = asdict(self)
        d["cnn_windows"] = list(self.cnn_windows)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "HanConfig":
        d = dict(d)
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown model config key(s): {', '.join(unknown)}")
        if isinstance(d.get("cnn_windows"), list):
            d["cnn_windows"] = tuple(d["cnn_windows"])
        return cls(**d)


@dataclass
class GruParams:
    """One direction's gate projections: update z, reset r, candidate h."""

    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor


@dataclass
class Dropout:
    """Per-forward dropout plan; (seed, step) plus a running site salt."""

    p: float = 0.0
    seed: int = 0
    step: int = 0
    training: bool = False
    _salt: int = 0

    def apply(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        self._salt += 1
        return ad.dropout(
            x, self.p, seed=self.seed, step=self.step, salt=self._salt, training=True
        )


NO_DROPOUT = Dropout(p=0.0, training=False)


def _padding_bias(mask: np.ndarray | None, rows: int, steps: int, op: str) -> np.ndarray | None:
    """Additive ``[rows, steps]`` bias: 0 at a real step, -inf at padding; None without a mask."""
    if mask is not None and np.shape(mask) != (rows, steps):
        raise ad.ShapeError(f"{op} expects a mask[rows, steps] = {[rows, steps]}, got {list(np.shape(mask))}")
    return None if mask is None else np.where(mask, 0.0, -np.inf)


def bigru_encode(
    x: Tensor,
    mask: np.ndarray | None,
    forward: GruParams,
    backward: GruParams,
) -> Tensor:
    """Annotations ``[steps, rows, 2*hidden]``: ``[fwd_state; bwd_state]`` per step.

    ``x`` is ``[steps, rows, in]`` and ``mask`` ``[rows, steps]``; a masked
    step's update gate is ``sigmoid(-inf) = 0``, so it holds state. Each
    gate's input projection, bias included, is one matmul over all steps, so
    only ``h @ u_*`` runs inside the recurrence (Appleyard et al., arXiv
    1604.01946).
    """
    if x.ndim != 3 or x.shape[0] < 1 or any(x.shape[2] != g.w_z.shape[0] for g in (forward, backward)):
        raise ad.ShapeError(
            f"bigru_encode expects x[steps >= 1, rows, in] with in = {forward.w_z.shape[0]}, got x{x.shape}"
        )
    steps, rows, in_dim = x.shape
    flat = ad.reshape(x, (steps * rows, in_dim))
    bias = _padding_bias(mask, rows, steps, "bigru_encode")

    def run(g: GruParams, order) -> Tensor:
        hidden = g.u_z.shape[0]
        xz, xr, xh = (
            ad.reshape(flat @ w + b, (steps, rows, hidden))
            for w, b in ((g.w_z, g.b_z), (g.w_r, g.b_r), (g.w_h, g.b_h))
        )
        if bias is not None:
            xz = ad.add(xz, bias.T[:, :, None])
        h = Tensor(np.zeros((rows, hidden)))
        states: list[Tensor | None] = [None] * steps
        for t in order:
            z = ad.sigmoid(ad.take_rows(xz, t) + h @ g.u_z)
            r = ad.sigmoid(ad.take_rows(xr, t) + h @ g.u_r)
            cand = ad.tanh(ad.take_rows(xh, t) + ad.mul(r, h) @ g.u_h)
            h = states[t] = ad.add(ad.mul(1.0 - z, h), ad.mul(z, cand))
        return ad.stack(states)

    fwd = run(forward, range(steps))
    bwd = run(backward, reversed(range(steps)))
    return ad.concat([fwd, bwd], axis=2)


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
    bias = _padding_bias(mask, rows, steps, "attention_pool")
    flat = ad.reshape(annotations, (steps * rows, dim))
    scores = ad.transpose(ad.reshape(ad.tanh(flat @ w + b) @ context, (steps, rows)), (1, 0))
    alpha = ad.softmax(scores if bias is None else ad.add(scores, bias))
    weights = ad.reshape(ad.transpose(alpha, (1, 0)), (steps, rows, 1))
    return ad.tsum(ad.mul(weights, annotations), axis=0), alpha


def conv_feature_stack(
    x: Tensor,
    params: dict[str, Tensor],
    windows: tuple[int, ...],
    drop: Dropout = NO_DROPOUT,
) -> Tensor:
    """Multi-window same-padded convolutions over the token axis, ReLU, concat.

    ``x`` is ``[steps, rows, dim]``; window ``w`` sees ``(w-1)//2`` earlier
    positions, and tap ``i`` reads position ``t - (w-1)//2 + i``. Outside the
    sequence it reads zeros.
    """
    maps = []
    for w in windows:
        # a convolution applies its last tap to the earliest position
        kernel = ad.stack([params[f"cnn.w{w}.tap{i}"] for i in reversed(range(w))])
        conv = ad.dilated_conv1d(x, kernel, mode="centred")
        maps.append(ad.relu(ad.add(conv, params[f"cnn.w{w}.bias"])))
        del conv  # hold no window's raw output past its use
    # without a tape, and with no reference left in the caller, this frees the
    # input before the concat doubles the output
    del x
    return drop.apply(ad.concat(maps, axis=2) if len(maps) > 1 else maps[0])


def tcn_stack(
    x: Tensor,
    params: dict[str, Tensor],
    levels: int,
    kernel: int,
    drop: Dropout = NO_DROPOUT,
) -> Tensor:
    """Stacked causal dilated conv blocks (dilation doubling) with residuals.

    ``x`` is ``[steps, rows, dim]``; a block's residual goes through its
    one-tap ``proj`` when the block changes the channel count.
    """
    for lvl in range(levels):
        taps = ad.stack([params[f"tcn.block{lvl}.tap{i}"] for i in range(kernel)])
        conv = ad.dilated_conv1d(x, taps, d=2**lvl, mode="same")
        y = drop.apply(ad.relu(ad.add(conv, params[f"tcn.block{lvl}.bias"])))
        del conv
        proj = params.get(f"tcn.block{lvl}.proj")
        x = ad.add(y, x if proj is None else ad.dilated_conv1d(x, ad.stack([proj])))
    return x


@dataclass
class Batch:
    """Model-ready arrays for a group of documents. Each real sentence is one
    row of ``tokens``, in document-major order, and each distinct
    ``(word id, bucket ids)`` token is listed once, padding first."""

    labels: np.ndarray  # [B]
    sent_rows: np.ndarray  # [B, S] row of tokens per sentence slot; n for a padding slot
    tokens: np.ndarray  # [n, T] index into the distinct tokens; 0 is padding
    token_words: np.ndarray  # word id per distinct token
    token_buckets: np.ndarray  # the distinct tokens' bucket ids, concatenated
    token_offs: np.ndarray  # CSR offsets into token_buckets, one more than the distinct tokens
    doc_ids: list[str] = field(default_factory=list)

    @property
    def sent_mask(self) -> np.ndarray:
        """``[B, S]``: which sentence slots hold a sentence."""
        return self.sent_rows < self.tokens.shape[0]

    @property
    def tok_mask(self) -> np.ndarray:
        """``[n, T]``: which token slots hold a token (entry 0 is only ever padding)."""
        return self.tokens != 0

    @property
    def n_docs(self) -> int:
        return self.labels.shape[0]

    @property
    def n_sentences(self) -> int:
        return self.sent_rows.shape[1]

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[1]


def collate(docs: Sequence[EncodedDocument]) -> Batch:
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

    row = 0
    for di, doc in enumerate(docs):
        for si in range(doc.n_sentences):
            keys = list(zip(doc.word_ids[si].tolist(), doc.bucket_ids[si]))
            sent_rows[di, si] = row
            tokens[row, : len(keys)] = [index.setdefault(k, len(index)) for k in keys]
            row += 1

    words, buckets = zip(*index)  # in order of first appearance
    offs = np.cumsum([0, *map(len, buckets)])
    return Batch(
        labels=labels,
        sent_rows=sent_rows,
        tokens=tokens,
        token_words=np.array(words, dtype=np.intp),
        token_buckets=np.fromiter(itertools.chain.from_iterable(buckets), dtype=np.intp, count=offs[-1]),
        token_offs=offs,
        doc_ids=[d.doc_id for d in docs],
    )


@dataclass
class AttentionTrace:
    """Attention weights for one document, trimmed to real lengths."""

    word_weights: list[np.ndarray]
    sentence_weights: np.ndarray


def init_params(config: HanConfig, table: EmbeddingTable, seed: int = 0) -> dict[str, Tensor]:
    """All trainable tensors keyed by name, in a fixed construction order."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x4A11])))
    scale = 0.05
    params: dict[str, Tensor] = {
        "embed.word": table.word,
        "embed.bucket": table.bucket,
    }

    def mat(name, rows, cols):
        params[name] = Tensor(rng.uniform(-scale, scale, (rows, cols)), requires_grad=True, name=name)

    def vec_zero(name, n):
        params[name] = Tensor(np.zeros(n), requires_grad=True, name=name)

    def vec_uniform(name, n):
        params[name] = Tensor(rng.uniform(-scale, scale, n), requires_grad=True, name=name)

    if config.variant == "cnn":
        for w in config.cnn_windows:
            for i in range(w):
                mat(f"cnn.w{w}.tap{i}", config.embed_dim, config.cnn_maps)
            vec_zero(f"cnn.w{w}.bias", config.cnn_maps)
    elif config.variant == "tcn":
        for lvl in range(config.tcn_levels):
            cin = config.embed_dim if lvl == 0 else config.tcn_channels
            for i in range(config.tcn_kernel):
                mat(f"tcn.block{lvl}.tap{i}", cin, config.tcn_channels)
            vec_zero(f"tcn.block{lvl}.bias", config.tcn_channels)
            if cin != config.tcn_channels:
                mat(f"tcn.block{lvl}.proj", cin, config.tcn_channels)

    u = config.gru_hidden
    for level, in_dim in (("word", config.feature_dim), ("sent", 2 * u)):
        for direction in ("fw", "bw"):
            for gate in ("z", "r", "h"):
                mat(f"{level}_gru.{direction}.w_{gate}", in_dim, u)
                mat(f"{level}_gru.{direction}.u_{gate}", u, u)
                vec_zero(f"{level}_gru.{direction}.b_{gate}", u)
        mat(f"{level}_attn.w", 2 * u, 2 * u)
        vec_zero(f"{level}_attn.b", 2 * u)
        vec_uniform(f"{level}_attn.u", 2 * u)

    mat("head.w", 2 * u, config.n_classes)
    vec_zero("head.b", config.n_classes)
    return params


def _gru_params(params: dict[str, Tensor], level: str, direction: str) -> GruParams:
    p = lambda k: params[f"{level}_gru.{direction}.{k}"]
    return GruParams(
        w_z=p("w_z"), u_z=p("u_z"), b_z=p("b_z"),
        w_r=p("w_r"), u_r=p("u_r"), b_r=p("b_r"),
        w_h=p("w_h"), u_h=p("u_h"), b_h=p("b_h"),
    )


class HanModel:
    """Config + vocabulary + embedding table + named parameters."""

    def __init__(
        self,
        config: HanConfig,
        vocab: Vocabulary,
        table: EmbeddingTable | None = None,
        seed: int = 0,
    ):
        if table is None:
            table = EmbeddingTable(
                vocab,
                dim=config.embed_dim,
                n_min=config.embed_n_min,
                n_max=config.embed_n_max,
                buckets=config.embed_buckets,
                seed=seed,
            )
        if table.dim != config.embed_dim:
            raise ConfigError(f"table dim {table.dim} != config embed_dim {config.embed_dim}")
        self.config = config
        self.vocab = vocab
        self.table = table
        self.seed = seed
        self.params = init_params(config, table, seed=seed)

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [(k, t) for k, t in self.params.items() if t.requires_grad]

    def encode(self, docs) -> list[EncodedDocument]:
        from .vocab import encode_document

        return [encode_document(d, self.vocab, self.table) for d in docs]

    # --- forward -------------------------------------------------------------

    def _embed(self, batch: Batch) -> Tensor:
        """Token vectors ``[T, rows, embed]``: each distinct token composed
        once, then gathered by position. Padded positions are exact zeros, so
        convolution windows read zero padding there."""
        vectors = ad.embedding_lookup(
            self.params["embed.word"],
            self.params["embed.bucket"],
            batch.token_words,
            batch.token_words > UNK,  # PAD and UNK have no word row; OOV tokens are buckets alone
            batch.token_buckets,
            batch.token_offs,
        )
        return ad.take_rows(vectors, batch.tokens.T)

    def forward_batch(
        self, batch: Batch, training: bool = False, step: int = 0
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Class probabilities ``[docs x 2]`` plus word/sentence attention maps.

        Word attention ``alpha_w`` is ``[n, T]``, one row per real sentence in
        ``batch.tokens`` order; sentence attention ``alpha_s`` is ``[docs, S]``.
        """
        cfg = self.config
        drop = (
            Dropout(p=cfg.dropout, seed=self.seed, step=step, training=True)
            if training and cfg.dropout > 0
            else NO_DROPOUT
        )
        # the stacks get the embedding as their only reference, so it can go
        # as soon as they are done with it
        if cfg.variant == "cnn":
            x = conv_feature_stack(self._embed(batch), self.params, cfg.cnn_windows, drop)
        elif cfg.variant == "tcn":
            x = tcn_stack(self._embed(batch), self.params, cfg.tcn_levels, cfg.tcn_kernel, drop)
        else:
            x = self._embed(batch)

        word_ann = bigru_encode(
            x,
            batch.tok_mask,
            _gru_params(self.params, "word", "fw"),
            _gru_params(self.params, "word", "bw"),
        )
        del x  # without a tape, nothing holds the word features past the BiGRU
        sent_vec, alpha_w = attention_pool(
            word_ann,
            batch.tok_mask,
            self.params["word_attn.w"],
            self.params["word_attn.b"],
            self.params["word_attn.u"],
        )

        # gather the sentence rows into one time-major [S, B, 2u] sequence;
        # padding slots read the zero row appended after the last sentence
        pad_row = Tensor(np.zeros((1, sent_vec.shape[1])))
        sent_seq = ad.take_rows(ad.concat([sent_vec, pad_row]), batch.sent_rows.T)
        sent_ann = bigru_encode(
            sent_seq,
            batch.sent_mask,
            _gru_params(self.params, "sent", "fw"),
            _gru_params(self.params, "sent", "bw"),
        )
        doc_vec, alpha_s = attention_pool(
            sent_ann,
            batch.sent_mask,
            self.params["sent_attn.w"],
            self.params["sent_attn.b"],
            self.params["sent_attn.u"],
        )

        logits = doc_vec @ self.params["head.w"] + self.params["head.b"]
        probs = ad.softmax(logits)
        return probs, alpha_w, alpha_s

    def forward_document(self, doc: EncodedDocument) -> tuple[np.ndarray, AttentionTrace]:
        """Evaluation-mode probabilities and attention trace for one document."""
        batch = collate([doc])
        probs, alpha_w, alpha_s = self.forward_batch(batch, training=False)
        words = [
            alpha_w.data[i, : len(doc.word_ids[i])].copy() for i in range(doc.n_sentences)
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
        "version": 1,
        "config": model.config.to_dict(),
        "seed": model.seed,
        "vocab": {
            "tokens": model.vocab.index_to_token[2:],
            "freqs": model.vocab.freqs[2:],
            "min_count": model.vocab.min_count,
        },
        "embed": {
            "dim": model.table.dim,
            "n_min": model.table.n_min,
            "n_max": model.table.n_max,
            "buckets": model.table.buckets,
            "trainable": model.table.trainable,
        },
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

    The header must be a version-1 hanspam checkpoint whose parameter list
    (names, shapes and order) is exactly what ``init_params`` builds for its
    config; this is checked before the payload is read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        raw = fh.read(8)
        if len(raw) != 8:
            raise CheckpointError(f"{path} is truncated: header length has {len(raw)} of 8 bytes")
        (hlen,) = struct.unpack("<Q", raw)
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise CheckpointError(f"{path} is truncated: header has {len(blob)} of {hlen} bytes")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path} has an unreadable header: {exc}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path} has a header that is not a JSON object")
        required = ("format", "version", "config", "seed", "vocab", "embed", "params")
        missing = [k for k in required if k not in header]
        if missing:
            raise CheckpointError(f"{path} has a header without {', '.join(missing)}")
        if header["format"] != "hanspam-checkpoint" or header["version"] != 1:
            raise CheckpointError(
                f"{path} is format {header['format']!r} version {header['version']!r}, "
                "not hanspam-checkpoint version 1"
            )
        try:
            listed = [(spec["name"], tuple(int(n) for n in spec["shape"])) for spec in header["params"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path} has a malformed parameter list: {exc!r}") from None
        declared = 8 * sum(int(np.prod(shape)) for _, shape in listed)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload < declared:
            raise CheckpointError(f"{path} is truncated: payload has {payload} of {declared} bytes")
        if payload > declared:
            raise CheckpointError(f"{path} has {payload - declared} trailing bytes after the payload")
        try:
            config = HanConfig.from_dict(header["config"])
            vocab = Vocabulary(
                header["vocab"]["tokens"], header["vocab"]["freqs"], header["vocab"]["min_count"]
            )
            emb = header["embed"]
            table = EmbeddingTable(
                vocab,
                dim=emb["dim"],
                n_min=emb["n_min"],
                n_max=emb["n_max"],
                buckets=emb["buckets"],
                seed=header["seed"],
                trainable=emb["trainable"],
            )
            model = HanModel(config, vocab, table=table, seed=header["seed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path} has a bad header: {type(exc).__name__}: {exc}") from None
        built = [(name, t.shape) for name, t in model.params.items()]
        if listed != built:
            spec = lambda p: "nothing" if p is None else f"{p[0]} {list(p[1])}"
            got, want = next((a, b) for a, b in itertools.zip_longest(listed, built) if a != b)
            raise CheckpointError(f"{path} lists {spec(got)} where its config builds {spec(want)}")
        for name, t in model.params.items():
            # straight from the file into the array: no second copy of a table
            data = np.empty(t.shape, dtype="<f8")
            got = fh.readinto(memoryview(data).cast("B"))
            if got != data.nbytes:
                raise CheckpointError(f"{path} is truncated: {name} has {got} of {data.nbytes} bytes")
            t.data = data
    return model
