"""Dense float64 tensors with tape-based reverse-mode differentiation.

The op set is deliberately small: exactly what a hierarchical GRU/attention
classifier with convolutional feature stacks needs. All arithmetic is 64-bit;
gradient checking needs the headroom. A ``Tape`` records operations in forward
(topological) order; ``backward`` replays the local rules in reverse and
accumulates into ``Tensor.grad`` of the leaves only, made on first use. A leaf
that only ``embedding_lookup`` reaches (an embedding table) gets a ``RowSet``,
its touched rows only, so no table-sized gradient is ever made.
A whole bidirectional GRU is one op, ``bigru``: its rule runs backprop
through time in numpy, so the tape holds one entry per BiGRU, not one per
step and gate.
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
    "RowSet",
    "coalesce_rows",
    "dense_grad",
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
    "bigru",
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
    inherit it but never hold a ``grad``. A leaf's ``grad`` is None until a
    backward reaches it, and ``zero_grad`` sets it back to None. The backward
    makes a ``RowSet`` if only ``embedding_lookup`` reaches the leaf, and a
    dense array otherwise.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | RowSet | None = None
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
        self.grad = None

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
class RowSet:
    """Row gradient of an embedding table: ``idx`` holds sorted distinct ids and
    ``val[i]`` the summed row ``idx[i]``; every other row is zero. Made by
    ``coalesce_rows``."""

    idx: Array
    val: Array
    shape: tuple[int, ...]


def coalesce_rows(idx, val: Array, shape: tuple[int, ...], src: Array | None = None) -> RowSet:
    """Sum the rows that share an id, bitwise as ``np.add.at`` into zeros does.

    Occurrence ``j`` (``idx`` flattened) adds ``val[src[j]]``, or ``val[j]``
    without ``src``, to row ``idx[j]``. A stable sort lists each id's
    occurrences in their original order, and pass ``k`` adds the ``k``-th
    occurrence of every id that has one, so each row is summed in occurrence
    order starting from 0.0. The ids that occur more than once are taken
    out once, most occurrences first, so the rows a later pass adds to are a
    prefix that it reads and writes as one slice, and are put back at the end.
    """
    idx = np.asarray(idx, dtype=np.intp).ravel()
    val = val.reshape(-1, *shape[1:])
    order = np.argsort(idx, kind="stable")
    ids = idx[order]
    first = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]]) if idx.size else np.zeros(0, np.intp)
    counts = np.diff(np.r_[first, idx.size])
    if src is not None:
        order = src[order]
    out = val[order[first]]
    out += 0.0  # pass 0 adds to 0.0 as add.at does, which turns a lone -0.0 into +0.0
    by = np.argsort(-counts, kind="stable")
    # per pass k, how many ids (a prefix of ``by``) own a k-th occurrence
    owners = np.searchsorted(-counts[by], -np.arange(counts.max(initial=0)), side="left")
    if owners.size > 1:  # some id occurs more than once
        many = by[: owners[1]]
        summed, firsts = out[many], first[many]
        for k, m in enumerate(owners[1:], start=1):
            summed[:m] += val[order[firsts[:m] + k]]
        out[many] = summed
    return RowSet(ids[first], out, shape)


def dense_grad(t: "Tensor") -> Array:
    """``t``'s gradient as one array: zeros if it has none, a row set's rows added into zeros."""
    if t.grad is None:
        return np.zeros(t.shape)
    return _sum_parts([t.grad]) if isinstance(t.grad, RowSet) else t.grad


@dataclass
class TapeEntry:
    inputs: tuple[Tensor, ...]
    output: Tensor
    rule: Callable[[Array], Sequence["Array | RowSet | None"]]


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
    reached (leaves: after the sweep). A leaf reached only by row sets, and
    holding no dense gradient, gets them coalesced into one ``RowSet``
    together with the row set it holds; every other leaf gets a dense array.
    ``loss`` must be a scalar. Calling twice without ``zero_grad`` doubles the
    leaf gradients.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    parts: dict[Tensor, list[Array | RowSet]] = {loss: [np.ones_like(loss.data)]}
    for entry in reversed(tape.entries):
        incoming = parts.pop(entry.output, None)
        if incoming is None:
            continue
        for inp, gi in zip(entry.inputs, entry.rule(_sum_parts(incoming))):
            if gi is not None and inp.requires_grad:  # constants need no gradient
                parts.setdefault(inp, []).append(gi)
    for leaf, incoming in parts.items():
        if not leaf.requires_grad:
            continue
        held = [] if leaf.grad is None else [leaf.grad]
        if all(isinstance(p, RowSet) for p in held + incoming):
            leaf.grad = _merge_rows(held + incoming, leaf.shape)
        else:
            leaf.grad = dense_grad(leaf)
            _sum_parts(incoming, into=leaf.grad)


def _merge_rows(parts: list[RowSet], shape: tuple[int, ...]) -> RowSet:
    """One row set holding the sum of ``parts``, each row summed in part order."""
    if len(parts) == 1:
        return parts[0]
    idx = np.concatenate([p.idx for p in parts])
    return coalesce_rows(idx, np.concatenate([p.val for p in parts]), shape)


def _sum_parts(parts: list, into: Array | None = None) -> Array:
    """Sum one tensor's gradient parts, adding the total to ``into`` if given.

    All row sets go first, part by part in arrival order (the same sums as
    one scatter over their concatenation, without copying them into one); the
    dense parts follow, summed left to right in arrival order.
    """
    rows = [p for p in parts if isinstance(p, RowSet)]
    dense = [p for p in parts if not isinstance(p, RowSet)]
    total = sum(dense[1:], dense[0]) if dense else None
    if not rows and into is None:
        return total
    if into is None:
        into = np.zeros(rows[0].shape, dtype=np.float64)
    for r in rows:
        np.add.at(into, r.idx, r.val)
    if total is not None:
        into += total
    return into


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` goes on the tape: one is active and an input needs a gradient."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def _record(inputs: tuple[Tensor, ...], out_data: Array, rule) -> Tensor:
    out = Tensor(out_data)
    if _recording(inputs):
        out.requires_grad = True
        _active_tape().entries.append(TapeEntry(inputs, out, rule))
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


def matmul(a, b) -> Tensor:
    """``[n, k] @ [k, m]`` or ``[n, k] @ [k]``, with numpy semantics."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim not in (1, 2):
        raise ShapeError(f"matmul takes [n, k] @ [k, m] or [n, k] @ [k], got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def rule(g):
        if b.ndim == 2:
            return g @ b.data.T, a.data.T @ g
        return np.outer(g, b.data), a.data.T @ g

    return _record((a, b), out, rule)


def tanh(x) -> Tensor:
    x = _wrap(x)
    y = np.tanh(x.data)

    def rule(g):
        return (g * (1.0 - y * y),)

    return _record((x,), y, rule)


def _logistic(d: Array) -> Array:
    """``1 / (1 + exp(-d))`` without overflow: ``exp`` only sees ``-|d|``, and -inf gives exactly 0."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    y = _logistic(x.data)

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
    cuts = np.cumsum([p.data.shape[axis] for p in parts[:-1]])

    def rule(g):
        # views of g: no rule writes into its g, and backward copies into a leaf's own array
        return tuple(np.split(g, cuts, axis=axis))

    return _record(parts, out, rule)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join same-shaped tensors along a new axis (numpy ``stack``).
    The model does not use it; the tests' per-step references and ``hanspam gradcheck`` do."""
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
    the backward rule scatter-adds into zeros, so repeated indices sum their gradients."""
    x = _wrap(x)
    idx = np.asarray(idx, dtype=np.intp)
    out = x.data[idx]

    def rule(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, idx, g)
        return (gx,)

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


def _live_rows(mask, rows: int, steps: int, op: str) -> tuple[Array, bool]:
    """Per step of a ``[rows, steps]`` mask: one more than its last live row
    (0 if it has none), and whether every step's live rows are exactly that
    prefix, as they are with rows ordered longest first. None is all live."""
    if mask is None:
        return np.full(steps, rows), True
    if np.shape(mask) != (rows, steps):
        raise ShapeError(f"{op} expects a mask[rows, steps] = {[rows, steps]}, got {list(np.shape(mask))}")
    m = np.asarray(mask, dtype=bool)
    live = np.where(m.any(axis=0), rows - np.argmax(m[::-1], axis=0), 0)
    return live, bool(np.array_equal(m.sum(axis=0), live))


def dilated_conv1d(x, f, d: int = 1, mode: str = "valid", mask=None) -> Tensor:
    """Dilated convolution along axis 0: the one convolution the model uses.

    ``x`` is ``[n, rows, cin]`` and ``f`` is ``[k, cin, cout]``; every row
    is convolved independently, and ``out[s] = sum_i x[s - d*i] @ f[i]`` over
    the zero-padded input. A 1-D signal with a 1-D kernel is the
    ``rows = cin = cout = 1`` case and keeps its 1-D shapes. Modes:

    - ``valid``: only positions with a full window, length ``n - (k-1)*d``;
    - ``same``: causal, ``(k-1)*d`` zeros on the left, length ``n``;
    - ``centred``: ``(k-1)*d // 2`` zeros on the left and the rest on the
      right, length ``n``.

    ``mask`` (``[rows, n]``; None means every position is real) makes a
    position off the mask read as zero, output zero and get no gradient. In
    ``valid`` mode output ``s`` is masked as input ``s + (k-1)*d``, the one
    its tap 0 reads. Rows must be ordered longest first (``model.collate``),
    so that each step's live rows are a prefix; any other mask raises
    ``ShapeError``. Each tap and output step is one product over the rows
    live at both that step and the input step it reads, so padding costs
    nothing.
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
    (n, rows, _), (k, _, cout) = xd.shape, fd.shape
    if k < 1:
        raise ParameterError("kernel must have at least one tap")
    span = (k - 1) * d
    pad_left = {"valid": 0, "same": span, "centred": span // 2}.get(mode)
    if pad_left is None:
        raise ParameterError(f"unknown mode {mode!r}")
    if mode == "valid" and n < span + 1:
        raise ShapeError(f"input length {n} has no full window for k={k}, d={d}")
    length = n - span if mode == "valid" else n
    live, prefix = _live_rows(mask, rows, n, "dilated_conv1d")
    if not prefix:
        raise ShapeError("dilated_conv1d needs each step's live rows to be a prefix: rows longest first")
    out_live = live[n - length :]
    work = []  # per tap i and output step s: the input step t it reads and the rows c live at both
    for i in range(k):
        lo = span - pad_left - d * i  # the input step output step 0 reads through tap i
        for s in range(max(0, -lo), min(length, n - lo)):
            c = min(out_live[s], live[s + lo])
            if c > 0:
                work.append((i, s, s + lo, c))
    out = np.zeros((length, rows, cout))
    for i, s, t, c in work:
        out[s, :c] += xd[t, :c] @ fd[i]

    def rule(g):
        g = g.reshape(length, rows, cout)
        gx, gf = np.zeros(xd.shape), np.zeros(fd.shape)
        for i, s, t, c in work:
            gx[t, :c] += g[s, :c] @ fd[i].T
            gf[i] += xd[t, :c].T @ g[s, :c]
        return gx.reshape(x.shape), gf.reshape(f.shape)

    return _record((x, f), out.reshape(length) if vector else out, rule)


def bigru(x, mask, w, b, u) -> Tensor:
    """Bidirectional GRU over ``x[steps, rows, in]`` as one tape entry.

    Returns ``[steps, rows, 2*hidden]``: per step, the state of the direction
    that runs forward, then that of the one that runs from the last step
    back, each from a zero state. ``w`` is ``[2, in, 3*hidden]``, ``b``
    ``[2, 3*hidden]`` and ``u`` ``[2, hidden, 3*hidden]``: the first axis is
    the direction, forward first, and each direction's gate blocks are in
    z|r|h order. With ``p = x_t @ w[d] + b[d]`` split the same way, a step is::

        z = sigmoid(p_z + h @ u_z)      r = sigmoid(p_r + h @ u_r)
        c = tanh(p_h + (r * h) @ u_h)   h = (1 - z) * h + z * c

    ``mask`` (``[rows, steps]``; None means every step is real) sets z to
    exactly 0 on a padded step, so the state carries over unchanged. A step
    runs on the rows up to its last live row only; the rows past it hold
    their state without arithmetic, as z = 0 would. With rows ordered
    longest first (``model.collate``) those are all of a step's padded rows,
    so padding costs nothing, and any other mask stays exact. Per step and
    direction the input projection and ``h @ [u_z|u_r]`` are one GEMM each
    over the live rows (the fused recurrent kernel of Appleyard et al.,
    arXiv 1604.01946). z, r and c are kept only while a tape records; the
    rule is one backprop-through-time loop per direction.
    """
    x, w, b, u = (_wrap(t) for t in (x, w, b, u))
    if x.ndim != 3 or x.shape[0] < 1:
        raise ShapeError(f"bigru expects x[steps >= 1, rows, in], got {x.shape}")
    steps, rows, in_dim = x.shape
    n = u.shape[1] if u.ndim == 3 else -1
    if w.shape != (2, in_dim, 3 * n) or b.shape != (2, 3 * n) or u.shape != (2, n, 3 * n):
        raise ShapeError(
            f"bigru expects w[2, {in_dim}, 3u], b[2, 3u] and u[2, u, 3u] with u = {n}, "
            f"got {w.shape}, {b.shape}, {u.shape}"
        )
    live, prefix = _live_rows(mask, rows, steps, "bigru")
    keep = None if prefix else np.asarray(mask, dtype=np.float64).T[:, :, None]
    orders = (range(steps), range(steps - 1, -1, -1))
    record = _recording((x, w, b, u))
    out = np.empty((steps, rows, 2 * n))
    gates = []  # per direction while recording: per step, z, r and c on its live rows

    for d in range(2):
        w_d, b_d = w.data[d], b.data[d]
        u_zr, u_h = u.data[d, :, : 2 * n], u.data[d, :, 2 * n :]
        saved = [None] * steps if record else None
        h = np.zeros((rows, n))
        for t in orders[d]:
            m = live[t]
            hm = h[:m]
            p = x.data[t, :m] @ w_d
            p += b_d
            # in place, each sum in the step formula's own order: fewer
            # temporaries, the same bits
            zr = hm @ u_zr
            zr += p[:, : 2 * n]
            zr = _logistic(zr)
            z, r = zr[:, :n], zr[:, n:]
            if keep is not None:
                z = z * keep[t, :m]
            c = (r * hm) @ u_h
            c += p[:, 2 * n :]
            np.tanh(c, out=c)
            hz = 1.0 - z
            hz *= hm
            hz += z * c
            h[:m] = hz
            out[t, :, d * n : (d + 1) * n] = h
            if record:
                saved[t] = z, r, c
        gates.append(saved)

    def rule(g):
        gx, gw, gb, gu = np.zeros(x.shape), np.zeros(w.shape), np.zeros(b.shape), np.zeros(u.shape)
        for d in range(2):
            states = out[:, :, d * n : (d + 1) * n]
            w_t, u_zr_t, u_h_t = w.data[d].T, u.data[d, :, : 2 * n].T, u.data[d, :, 2 * n :].T
            gw_d, gb_d, gu_d = gw[d], gb[d], gu[d]
            gh = np.zeros((rows, n))
            for t in reversed(orders[d]):
                gh += g[t, :, d * n : (d + 1) * n]
                m = live[t]
                zt, rt, ct = gates[d][t]
                before = t - 1 if d == 0 else t + 1  # the step whose state this one starts from
                hp = states[before, :m] if 0 <= before < steps else np.zeros((m, n))
                ghm = gh[:m]
                g_pre = np.empty((m, 3 * n))
                g_pre[:, :n] = ghm * (ct - hp) * (zt * (1.0 - zt))
                g_pre[:, 2 * n :] = ghm * zt * (1.0 - ct * ct)
                g_rh = g_pre[:, 2 * n :] @ u_h_t
                g_pre[:, n : 2 * n] = g_rh * hp * (rt * (1.0 - rt))
                gh[:m] = ghm * (1.0 - zt) + g_rh * rt + g_pre[:, : 2 * n] @ u_zr_t
                gx[t, :m] += g_pre @ w_t
                gw_d += x.data[t, :m].T @ g_pre
                gb_d += g_pre.sum(axis=0)
                gu_d[:, : 2 * n] += hp.T @ g_pre[:, : 2 * n]
                gu_d[:, 2 * n :] += (rt * hp).T @ g_pre[:, 2 * n :]
        return gx, gw, gb, gu

    return _record((x, w, b, u), out, rule)


def dropout_mask(shape, p: float, seed: int, step: int, salt: int = 0) -> Array:
    """Deterministic keep/scale mask: the (seed, step, salt) triple fixes it."""
    bitgen = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF, counter=[step, salt, 0, 0])
    u = np.random.Generator(bitgen).random(shape)
    return (u >= p) / (1.0 - p)


def dropout(x, p: float, seed: int = 0, step: int = 0, salt: int = 0) -> Tensor:
    """Zero each element with probability ``p`` and scale survivors by 1/(1-p);
    the identity when ``p`` is zero."""
    if not (0.0 <= p < 1.0):
        raise ParameterError(f"dropout rate must be in [0, 1), got {p}")
    x = _wrap(x)
    if p == 0.0:
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
    one. Tokens are composed most buckets first, so the tokens a pass adds
    to are a prefix and it reads and writes them as one slice. A token with
    no buckets and zero weight (padding) comes out exactly zero and gets no
    gradient. Each table's gradient is one ``RowSet`` over the rows the
    tokens use, summed without a table-sized array.
    """
    ids = np.asarray(word_ids, dtype=np.intp)
    w = np.asarray(word_weight, dtype=np.float64)
    bidx = np.asarray(bucket_ids, dtype=np.intp)
    offs = np.asarray(bucket_offsets, dtype=np.intp)
    if ids.ndim != 1 or w.shape != ids.shape or offs.shape != (ids.size + 1,):
        raise ShapeError(f"embedding_lookup takes [n] ids and weights and n+1 offsets, got {ids.shape}")
    counts = np.diff(offs)
    inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)

    order = np.argsort(-counts, kind="stable")
    # per pass k, how many tokens (a prefix of ``order``) own a k-th bucket
    owners = np.searchsorted(-counts[order], -np.arange(counts.max(initial=0)), side="left")
    firsts, scale = offs[order], inv[order, None]
    composed = w[order, None] * word_table.data[ids[order]]
    for k, m in enumerate(owners):
        composed[:m] += bucket_table.data[bidx[firsts[:m] + k]] * scale[:m]
    out = np.empty_like(composed)
    out[order] = composed
    del composed

    def rule(g):
        keep = w > 0
        gw = coalesce_rows(ids[keep], g[keep] * w[keep, None], word_table.shape)
        owner = np.repeat(np.arange(ids.size), counts)  # the token each bucket id belongs to
        gb = coalesce_rows(bidx, g * inv[:, None], bucket_table.shape, src=owner)
        return gw, gb

    return _record((word_table, bucket_table), out, rule)
