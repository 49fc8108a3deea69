"""Dense float64 tensors with tape-based reverse-mode differentiation.

The op set is deliberately small: exactly what a hierarchical GRU/attention
classifier with convolutional feature stacks needs. All arithmetic is 64-bit;
gradient checking needs the headroom. A ``Tape`` records operations in forward
(topological) order; ``backward`` replays the local rules in reverse and
accumulates into ``Tensor.grad`` of the leaves only. Embedding tables get
sparse row gradients so a lookup never materializes a table-sized dense array.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "ParameterError",
    "EmptyAttentionError",
    "backward",
    "add",
    "mul",
    "sub",
    "matmul",
    "tanh",
    "sigmoid",
    "relu",
    "log",
    "concat",
    "stack",
    "reshape",
    "transpose",
    "take_rows",
    "tsum",
    "tmean",
    "softmax",
    "dilated_conv1d",
    "dropout",
    "dropout_mask",
    "embedding_lookup",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(ValueError):
    """An operation parameter (dilation, dropout rate, ...) is out of range."""


class EmptyAttentionError(ValueError):
    """A softmax was requested over a row with no valid position."""


Array = np.ndarray


class Tensor:
    """A dense float64 array plus, on leaves, a gradient accumulator.

    ``requires_grad`` marks trainable leaves; outputs of recorded operations
    inherit it but never hold a ``grad``. On a leaf, ``grad`` matches
    ``data`` in shape and starts at zero; repeated backward passes accumulate
    into it until ``zero_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = np.zeros_like(self.data) if requires_grad else None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0
        elif self.requires_grad:
            self.grad = np.zeros_like(self.data)

    # operator sugar; constants are wrapped on the fly
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


@dataclass
class SparseRows:
    """Gradient on some slices along axis 0 only: ``np.add.at(dense, idx, val)``, any ``idx`` shape."""

    idx: Array
    val: Array
    shape: tuple[int, ...]


@dataclass
class TapeEntry:
    inputs: tuple[Tensor, ...]
    output: Tensor
    rule: Callable[[Array], Sequence["Array | SparseRows | None"]]


_tls = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations for one thread of forward execution.

    Entries are appended in forward order, so every entry's inputs were
    produced earlier on the tape (or are leaves); replaying the local rules
    in reverse yields exact chain-rule gradients.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack().pop()

    def __len__(self) -> int:
        return len(self.entries)

    def backward(self, loss: Tensor) -> None:
        backward(loss, self)


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` for every leaf the loss reaches.

    A leaf is a tensor that requires grad and is not the output of any entry
    on ``tape``; recorded intermediates get no ``grad``. Each tensor's
    incoming gradient parts are listed and summed once, when its entry is
    reached (leaves: after the sweep). ``loss`` must be a scalar. Calling
    twice without ``zero_grad`` doubles the leaf gradients.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    parts: dict[Tensor, list[Array | SparseRows]] = {loss: [np.ones_like(loss.data)]}
    for entry in reversed(tape.entries):
        incoming = parts.pop(entry.output, None)
        if incoming is None:
            continue
        for inp, gi in zip(entry.inputs, entry.rule(_sum_parts(incoming))):
            if gi is not None and inp.requires_grad:  # constants need no gradient
                parts.setdefault(inp, []).append(gi)
    for leaf, incoming in parts.items():
        if leaf.requires_grad:
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)
            _sum_parts(incoming, into=leaf.grad)


def _sum_parts(parts: list, into: Array | None = None) -> Array:
    """Sum one tensor's gradient parts, adding the total to ``into`` if given.

    All sparse rows go first, part by part in arrival order (the same sums as
    one scatter over their concatenation, without copying them into one); the
    dense parts follow, summed left to right in arrival order.
    """
    rows = [p for p in parts if isinstance(p, SparseRows)]
    dense = [p for p in parts if not isinstance(p, SparseRows)]
    total = sum(dense[1:], dense[0]) if dense else None
    if not rows and into is None:
        return total
    if into is None:
        into = np.zeros(rows[0].shape, dtype=np.float64)
    for r in rows:
        if r.idx.size <= into.shape[0] and np.unique(r.idx).size == r.idx.size:
            into[r.idx] += r.val  # no repeated slice: the same sums as add.at, several times faster
        else:
            np.add.at(into, r.idx, r.val)
    if total is not None:
        into += total
    return into


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(inputs: tuple[Tensor, ...], out_data: Array, rule) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.entries.append(TapeEntry(inputs, out, rule))
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record((a, b), out, rule)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def rule(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record((a, b), out, rule)


def sub(a, b) -> Tensor:
    return add(a, mul(b, -1.0))


# rows of a 2-D left operand per BLAS call in matmul's forward: one threaded
# OpenBLAS gemm over a [96000, 192] operand (a 64-document word BiGRU
# projection) left about 20 MB more resident for the rest of the process
_MATMUL_ROWS = 2**13


def matmul(a, b) -> Tensor:
    """Matrix/vector product with numpy semantics for 1-D and 2-D operands."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if a.ndim == 2:
        out = np.empty(a.shape[:1] + b.shape[1:])
        for lo in range(0, a.shape[0], _MATMUL_ROWS):
            np.matmul(a.data[lo : lo + _MATMUL_ROWS], b.data, out=out[lo : lo + _MATMUL_ROWS])
    else:
        out = a.data @ b.data

    def rule(g):
        ad, bd = a.data, b.data
        if a.ndim == 2 and b.ndim == 2:
            return g @ bd.T, ad.T @ g
        if a.ndim == 2 and b.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if a.ndim == 1 and b.ndim == 2:
            return g @ bd.T, np.outer(ad, g)
        return g * bd, g * ad  # 1-D @ 1-D -> scalar

    return _record((a, b), out, rule)


def tanh(x) -> Tensor:
    x = _wrap(x)
    y = np.tanh(x.data)

    def rule(g):
        return (g * (1.0 - y * y),)

    return _record((x,), y, rule)


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def rule(g):
        return (g * y * (1.0 - y),)

    return _record((x,), y, rule)


def relu(x) -> Tensor:
    x = _wrap(x)
    y = np.maximum(x.data, 0.0)

    def rule(g):
        return (g * (x.data > 0.0),)

    return _record((x,), y, rule)


def log(x, clamp_min: float = 0.0) -> Tensor:
    """Natural log; inputs below ``clamp_min`` are clamped (zero gradient there)."""
    x = _wrap(x)
    d = np.maximum(x.data, clamp_min) if clamp_min > 0 else x.data
    y = np.log(d)

    def rule(g):
        gx = g / d
        if clamp_min > 0:
            gx = gx * (x.data >= clamp_min)
        return (gx,)

    return _record((x,), y, rule)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(_wrap(t) for t in tensors)
    if not parts:
        raise ParameterError("concat needs at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def rule(g):
        return tuple(
            np.take(g, np.arange(bounds[i], bounds[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    return _record(parts, out, rule)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join same-shaped tensors along a new axis (numpy ``stack``)."""
    parts = tuple(_wrap(t) for t in tensors)
    if not parts:
        raise ParameterError("stack needs at least one tensor")
    out = np.stack([p.data for p in parts], axis=axis)

    def rule(g):
        return tuple(np.moveaxis(g, axis, 0))

    return _record(parts, out, rule)


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    out = x.data.reshape(shape)

    def rule(g):
        return (g.reshape(x.shape),)

    return _record((x,), out, rule)


def transpose(x, axes) -> Tensor:
    """Permute the axes of ``x`` (numpy ``transpose``); the result is a view."""
    x = _wrap(x)
    axes = tuple(axes)
    out = np.transpose(x.data, axes)

    def rule(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _record((x,), out, rule)


def take_rows(x, idx) -> Tensor:
    """Gather slices along axis 0 by an index array of any shape, ``x.data[idx]``;
    the backward rule scatter-adds sparsely, so repeated indices sum their gradients."""
    x = _wrap(x)
    idx = np.asarray(idx, dtype=np.intp)
    out = x.data[idx]

    def rule(g):
        return (SparseRows(idx, g, x.shape),)

    return _record((x,), out, rule)


def tsum(x, axis: int | None = None) -> Tensor:
    x = _wrap(x)
    out = x.data.sum(axis=axis)

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _record((x,), out, rule)


def tmean(x, axis: int | None = None) -> Tensor:
    x = _wrap(x)
    n = x.size if axis is None else x.shape[axis]
    out = x.data.mean(axis=axis)

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, x.shape).copy(),)

    return _record((x,), out, rule)


def softmax(scores) -> Tensor:
    """Exp-normalize a vector, or each row of a matrix.

    A ``-inf`` score gets weight exactly 0, so an additive ``-inf`` bias
    masks a position out. A row whose scores are all ``-inf`` raises
    ``EmptyAttentionError``.
    """
    x = _wrap(scores)
    if x.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a vector or matrix, got {x.shape}")
    mx = x.data.max(axis=-1, keepdims=True)
    if np.isneginf(mx).any():
        raise EmptyAttentionError("softmax over a row with no valid position")
    e = np.exp(x.data - mx)
    y = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record((x,), y, rule)


# float64 elements per temporary in dilated_conv1d's matmuls (16 MB): the
# allocator recycles blocks this small, while larger ones are mapped and
# zeroed afresh on every call
_TEMP_ELEMS = 2**21


def dilated_conv1d(x, f, d: int = 1, mode: str = "valid") -> Tensor:
    """Dilated convolution along axis 0: the one convolution the model uses.

    ``x`` is ``[n, rows, cin]`` and ``f`` is ``[k, cin, cout]``; every row
    is convolved independently, and ``out[s] = sum_i x[s - d*i] @ f[i]`` over
    the zero-padded input. A 1-D signal with a 1-D kernel is the
    ``rows = cin = cout = 1`` case and keeps its 1-D shapes. Modes:

    - ``valid``: only positions with a full window, length ``n - (k-1)*d``;
    - ``same``: causal, ``(k-1)*d`` zeros on the left, length ``n``;
    - ``centred``: ``(k-1)*d // 2`` zeros on the left and the rest on the
      right, length ``n``.
    """
    x, f = _wrap(x), _wrap(f)
    vector = x.ndim == 1 and f.ndim == 1
    xd = x.data.reshape(-1, 1, 1) if vector else x.data
    fd = f.data.reshape(-1, 1, 1) if vector else f.data
    if xd.ndim != 3 or fd.ndim != 3 or xd.shape[2] != fd.shape[1]:
        raise ShapeError(
            f"dilated_conv1d expects x[n, rows, cin] and f[k, cin, cout], got x{x.shape}, f{f.shape}"
        )
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ParameterError(f"dilation must be a positive integer, got {d}")
    (n, rows, cin), (k, _, cout) = xd.shape, fd.shape
    if k < 1:
        raise ParameterError("kernel must have at least one tap")
    span = (k - 1) * d
    pad_left = {"valid": 0, "same": span, "centred": span // 2}.get(mode)
    if pad_left is None:
        raise ParameterError(f"unknown mode {mode!r}")
    if mode == "valid" and n < span + 1:
        raise ShapeError(f"input length {n} has no full window for k={k}, d={d}")
    length = n - span if mode == "valid" else n
    block = max(1, _TEMP_ELEMS // max(1, rows * cin, rows * cout))  # positions per matmul

    def windows():
        """Per tap and block of positions: the tap, the x slice it reads, the output slice it feeds."""
        for i in range(k):
            lo = span - pad_left - d * i  # x-index of output position 0 for tap i
            for xs in range(max(lo, 0), min(lo + length, n), block):
                stop = min(xs + block, lo + length, n)
                yield i, slice(xs, stop), slice(xs - lo, stop - lo)

    out = np.zeros((length, rows, cout))
    for i, xsl, osl in windows():
        out[osl] += (xd[xsl].reshape(-1, cin) @ fd[i]).reshape(-1, rows, cout)

    def rule(g):
        g = g.reshape(length, rows, cout)
        gx, gf = np.zeros(xd.shape), np.zeros(fd.shape)
        for i, xsl, osl in windows():
            gs = g[osl].reshape(-1, cout)
            gx[xsl] += (gs @ fd[i].T).reshape(-1, rows, cin)
            gf[i] += xd[xsl].reshape(-1, cin).T @ gs
        return gx.reshape(x.shape), gf.reshape(f.shape)

    return _record((x, f), out.reshape(length) if vector else out, rule)


def dropout_mask(shape, p: float, seed: int, step: int, salt: int = 0) -> Array:
    """Deterministic keep/scale mask: the (seed, step, salt) triple fixes it."""
    bitgen = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF, counter=[step, salt, 0, 0])
    u = np.random.Generator(bitgen).random(shape)
    return (u >= p) / (1.0 - p)


def dropout(x, p: float, seed: int = 0, step: int = 0, salt: int = 0, training: bool = True) -> Tensor:
    """Zero each element with probability ``p`` and scale survivors by 1/(1-p).

    Identity when ``training`` is false or ``p`` is zero.
    """
    if not (0.0 <= p < 1.0):
        raise ParameterError(f"dropout rate must be in [0, 1), got {p}")
    x = _wrap(x)
    if not training or p == 0.0:
        return x
    scale = dropout_mask(x.shape, p, seed, step, salt)
    y = x.data * scale

    def rule(g):
        return (g * scale,)

    return _record((x,), y, rule)


def embedding_lookup(
    word_table: Tensor,
    bucket_table: Tensor,
    word_ids,
    word_weight,
    bucket_ids,
    bucket_offsets,
) -> Tensor:
    """Compose token vectors ``[n, dim]``: ``weight * word_row + mean(bucket rows)``.

    ``word_ids`` and ``word_weight`` are ``[n]``, one entry per token.
    ``bucket_ids`` and ``bucket_offsets`` are a CSR-style ragged list: token
    ``i`` owns ``bucket_ids[bucket_offsets[i]:bucket_offsets[i+1]]``. Each
    token's scaled bucket rows are added to its word row one at a time, in list
    order: pass ``k`` adds the ``k``-th bucket row of every token that has
    one. A token with no buckets and zero weight (padding) comes out exactly
    zero and gets no gradient. Gradients reach both tables as sparse row
    updates.
    """
    ids = np.asarray(word_ids, dtype=np.intp)
    w = np.asarray(word_weight, dtype=np.float64)
    bidx = np.asarray(bucket_ids, dtype=np.intp)
    offs = np.asarray(bucket_offsets, dtype=np.intp)
    if ids.ndim != 1 or w.shape != ids.shape or offs.shape != (ids.size + 1,):
        raise ShapeError(f"embedding_lookup takes [n] ids and weights and n+1 offsets, got {ids.shape}")
    counts = np.diff(offs)
    inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)

    out = w[:, None] * word_table.data[ids]
    for k in range(counts.max(initial=0)):
        has = np.flatnonzero(counts > k)
        out[has] += bucket_table.data[bidx[offs[has] + k]] * inv[has, None]

    def rule(g):
        keep = w > 0
        gw = SparseRows(ids[keep], g[keep] * w[keep, None], word_table.shape)
        gb = SparseRows(bidx, np.repeat(g * inv[:, None], counts, axis=0), bucket_table.shape)
        return gw, gb

    return _record((word_table, bucket_table), out, rule)
