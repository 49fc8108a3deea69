"""Finite-difference verification of every differentiable operation.

Central differences at h=1e-5 against tape gradients. The error measure is
symmetric relative error with a small absolute floor so roundoff on
near-zero components does not register as disagreement:
``|a - b| / max(|a| + |b|, 1e-3)`` (i.e. atol 1e-7 at rtol 1e-4).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import (
    HanConfig,
    HanModel,
    attention_pool,
    collate,
    conv_feature_stack,
    param_shapes,
    tcn_stack,
)
from .training import cross_entropy
from .vocab import EncodedDocument, Vocabulary

H = 1e-5
TOLERANCE = 1e-4


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-3)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def finite_difference(f: Callable[[], float], x: Tensor) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` w.r.t. every entry of ``x``."""
    grad = np.zeros_like(x.data)
    flat = x.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        fp = f()
        flat[i] = orig - H
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * H)
    return grad


def check_scalar_fn(build: Callable[[], Tensor], wrt: list[Tensor]) -> float:
    """Max relative error between tape gradients and finite differences.

    ``build`` must recompute the scalar from the current data of ``wrt``
    (finite differences perturb those arrays in place).
    """
    for t in wrt:
        t.zero_grad()
    with ad.Tape() as tape:
        loss = build()
    tape.backward(loss)
    worst = 0.0
    for t in wrt:
        fd = finite_difference(lambda: build().item(), t)
        worst = max(worst, relative_error(ad.dense_grad(t), fd))
    return worst


def _weighted(out: Tensor, rng: np.random.Generator) -> Tensor:
    """Reduce any output to a scalar with fixed random weights."""
    w = rng.uniform(-1.0, 1.0, out.shape)
    return ad.tsum(ad.mul(out, w))


def _rng(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([0x6C, tag])))


def _param(rng, *shape) -> Tensor:
    return Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


# --- individual op checks ----------------------------------------------------

def check_matmul() -> float:
    rng = _rng(1)
    worst = 0.0
    for sa, sb in (((3, 4), (4, 2)), ((2, 3), (3,))):
        a, b = _param(rng, *sa), _param(rng, *sb)
        worst = max(worst, check_scalar_fn(lambda: _weighted(ad.matmul(a, b), _rng(11)), [a, b]))
    return worst


def check_elementwise() -> float:
    rng = _rng(2)
    worst = 0.0
    a = _param(rng, 3, 4)
    b = _param(rng, 3, 4)
    row = _param(rng, 4)
    for build in (
        lambda: _weighted(ad.add(a, b), _rng(21)),
        lambda: _weighted(ad.mul(a, b), _rng(22)),
        lambda: _weighted(ad.add(a, row), _rng(23)),  # broadcast bias
        lambda: _weighted(ad.tanh(a), _rng(24)),
        lambda: _weighted(ad.sigmoid(a), _rng(25)),
        lambda: _weighted(ad.relu(ad.add(a, 0.1)), _rng(26)),
        lambda: _weighted(ad.concat([a, b], axis=1), _rng(27)),
        lambda: ad.tmean(ad.mul(a, a)),
        lambda: _weighted(ad.tmean(a, axis=0), _rng(28)),
        lambda: _weighted(ad.tsum(a, axis=1), _rng(29)),
        lambda: _weighted(ad.reshape(a, (4, 3)), _rng(30)),
        lambda: _weighted(ad.take_rows(a, [2, 0, 1, 1]), _rng(31)),
        lambda: _weighted(ad.take_rows(a, [[2, 0], [1, 2], [2, 2]]), _rng(32)),
        lambda: _weighted(ad.log(ad.add(ad.sigmoid(a), 0.5)), _rng(33)),
    ):
        worst = max(worst, check_scalar_fn(build, [a, b, row]))
    return worst


def check_dropout() -> float:
    rng = _rng(3)
    x = _param(rng, 5, 6)
    build = lambda: _weighted(ad.dropout(x, 0.4, seed=7, step=3, salt=1), _rng(34))
    return check_scalar_fn(build, [x])


def check_softmax() -> float:
    """Softmax over plain scores and over scores masked by a constant -inf bias."""
    rng = _rng(4)
    worst = 0.0
    x1 = _param(rng, 6)
    b1 = np.where([True, True, False, True, False, True], 0.0, -np.inf)
    worst = max(worst, check_scalar_fn(lambda: _weighted(ad.softmax(ad.add(x1, b1)), _rng(41)), [x1]))
    x2 = _param(rng, 4, 5)
    m2 = rng.random((4, 5)) > 0.3
    m2[:, 0] = True
    b2 = np.where(m2, 0.0, -np.inf)
    worst = max(worst, check_scalar_fn(lambda: _weighted(ad.softmax(ad.add(x2, b2)), _rng(42)), [x2]))
    x3 = _param(rng, 3, 2)
    worst = max(worst, check_scalar_fn(lambda: _weighted(ad.softmax(x3), _rng(43)), [x3]))
    return worst


def check_dilated_conv1d() -> float:
    rng = _rng(5)
    worst = 0.0
    vectors = [((n,), (k,), d, mode) for n, k, d, mode in (
        (9, 3, 2, "valid"), (8, 2, 1, "valid"), (7, 3, 2, "same"), (5, 1, 3, "same"), (6, 4, 1, "centred"),
    )]
    # time-major [n, rows, cin] with [k, cin, cout]; the last two are shorter than the kernel span
    batched = [((n, 2, 3), (k, 3, 2), d, mode) for n, k, d, mode in (
        (7, 3, 2, "valid"), (6, 3, 2, "same"), (6, 4, 1, "centred"), (5, 3, 2, "centred"),
        (3, 3, 2, "same"), (2, 4, 1, "centred"),
    )]
    for sx, sf, d, mode in vectors + batched:
        x, f = _param(rng, *sx), _param(rng, *sf)
        worst = max(
            worst,
            check_scalar_fn(lambda: _weighted(ad.dilated_conv1d(x, f, d, mode), _rng(51)), [x, f]),
        )
    return worst


def check_masked_dilated_conv1d() -> float:
    """Rows of real lengths 5, 3 and 1, longest first as ``model.collate``
    orders them, in the two modes the model's stacks use."""
    rng = _rng(15)
    mask = np.arange(5) < np.array([[5], [3], [1]])
    worst = 0.0
    for k, d, mode in ((3, 1, "centred"), (4, 1, "centred"), (2, 2, "same"), (3, 1, "same")):
        x, f = _param(rng, 5, 3, 2), _param(rng, k, 2, 3)
        build = lambda: _weighted(ad.dilated_conv1d(x, f, d, mode, mask=mask), _rng(151))
        worst = max(worst, check_scalar_fn(build, [x, f]))
    return worst


def check_stack() -> float:
    rng = _rng(12)
    parts = [_param(rng, 3, 2) for _ in range(3)]
    worst = 0.0
    for axis in (0, 1, 2):
        worst = max(worst, check_scalar_fn(lambda: _weighted(ad.stack(parts, axis), _rng(121)), parts))
    x = _param(rng, 4, 2, 3)
    # each step read back by a scalar take_rows index
    slices = lambda: ad.concat([ad.take_rows(x, t) for t in range(4)], axis=1)
    return max(worst, check_scalar_fn(lambda: _weighted(slices(), _rng(122)), [x]))


def check_transpose() -> float:
    rng = _rng(13)
    a, x = _param(rng, 3, 4), _param(rng, 2, 3, 4)
    worst = check_scalar_fn(lambda: _weighted(ad.transpose(a, (1, 0)), _rng(131)), [a])
    for axes in ((1, 0, 2), (2, 0, 1), (0, 2, 1)):
        worst = max(worst, check_scalar_fn(lambda: _weighted(ad.transpose(x, axes), _rng(132)), [x]))
    return worst


def check_embedding_lookup() -> float:
    rng = _rng(6)
    words = _param(rng, 7, 4)
    buckets = _param(rng, 11, 4)
    ids = np.array([0, 3, 3, 6])
    w = np.array([0.0, 1.0, 1.0, 0.0])
    bidx = np.array([1, 5, 5, 2, 10, 0, 4])
    offs = np.array([0, 0, 3, 5, 7])
    build = lambda: _weighted(
        ad.embedding_lookup(words, buckets, ids, w, bidx, offs), _rng(61)
    )
    # as in the model: gathered by [2 steps, 3 rows] positions that repeat tokens
    positions = [[1, 3, 1], [0, 3, 2]]
    build_repeated = lambda: _weighted(
        ad.take_rows(ad.embedding_lookup(words, buckets, ids, w, bidx, offs), positions), _rng(62)
    )
    return max(check_scalar_fn(b, [words, buckets]) for b in (build, build_repeated))


def check_fused_bigru() -> float:
    """``ad.bigru`` with in 3 and hidden 2. On 3 rows of 5 steps, row 0's
    padded tail makes the reverse scan start on padding and row 1 has one
    real step; then the same lengths longest first, as ``model.collate``
    orders rows, so that each step runs on fewer rows than the last. On 2
    rows of 4 steps, row 1 has a hole inside it, which no length order makes
    a prefix."""
    rng = _rng(14)
    x = _param(rng, 5, 3, 3)
    fw, bw = ([rng.uniform(-1.0, 1.0, shape) for shape in ((3, 6), (6,), (2, 6))] for _ in range(2))
    weights = [Tensor(np.stack(pair), requires_grad=True) for pair in zip(fw, bw)]
    cases = [(x, np.arange(5) < np.array(lengths)[:, None]) for lengths in ([3, 1, 5], [5, 3, 1])]
    cases.append((_param(rng, 4, 2, 3), np.array([[True, True, True, False], [True, False, True, True]])))
    worst = 0.0
    for inputs, mask in cases:
        build = lambda: _weighted(ad.bigru(inputs, mask, *weights), _rng(141))
        worst = max(worst, check_scalar_fn(build, [inputs] + weights))
    return worst


def check_attention_pool() -> float:
    rng = _rng(9)
    x = _param(rng, 3, 2, 4)
    mask = np.array([[True, True, False], [True, True, True]])
    w, b, u = _param(rng, 4, 4), _param(rng, 4), _param(rng, 4)
    build = lambda: _weighted(attention_pool(x, mask, w, b, u)[0], _rng(91))
    return check_scalar_fn(build, [x, w, b, u])


def _stack_params(rng: np.random.Generator, prefix: str, **fields) -> dict[str, Tensor]:
    """``param_shapes``' ``prefix`` tensors for a config of ``fields``, drawn
    whole in that order; a CNN kernel from its last entry, as ``init_params`` does."""
    params = {}
    for name, shape in param_shapes(HanConfig(**fields), n_words=2).items():
        if name.startswith(prefix):
            a = rng.uniform(-1.0, 1.0, shape)
            if name.startswith("cnn.") and name.endswith(".kernel"):
                a = np.flip(a, 0).copy()
            params[name] = Tensor(a, requires_grad=True)
    return params


def check_conv_stack() -> float:
    rng = _rng(10)
    x = _param(rng, 5, 2, 3)
    params = _stack_params(rng, "cnn.", variant="cnn", embed_dim=3, cnn_windows=(1, 3), cnn_maps=2)
    build = lambda: _weighted(conv_feature_stack(x, params, (1, 3)), _rng(101))
    return check_scalar_fn(build, [x] + list(params.values()))


def check_tcn_stack() -> float:
    rng = _rng(11)
    x = _param(rng, 6, 2, 3)
    params = _stack_params(rng, "tcn.", variant="tcn", embed_dim=3, tcn_levels=2, tcn_kernel=2, tcn_channels=3)
    build = lambda: _weighted(tcn_stack(x, params, levels=2), _rng(111))
    return check_scalar_fn(build, [x] + list(params.values()))


# --- full model --------------------------------------------------------------

def tiny_model(variant: str, seed: int = 0) -> HanModel:
    vocab = Vocabulary(["alpha", "beta", "gamma", "delta"])
    config = HanConfig(
        embed_dim=6,
        gru_hidden=3,
        variant=variant,
        cnn_windows=(1, 2),
        cnn_maps=2,
        tcn_levels=2,
        tcn_kernel=2,
        tcn_channels=4,
        dropout=0.0,
        s_max=4,
        t_max=5,
        embed_buckets=17,
        embed_n_max=4,
    )
    return HanModel(config, vocab, seed=seed)


def toy_document(model: HanModel) -> EncodedDocument:
    from .ingest import EmailDocument
    from .vocab import encode_document

    doc = EmailDocument(label=1, sentences=[["alpha", "beta", "unseen"], ["gamma", "delta", "alpha"]])
    return encode_document(doc, model.vocab, model.table)


def check_full_model(variant: str, draws: int = 50) -> tuple[float, int]:
    """Spot-check d(loss)/d(theta) across every parameter group of a tiny model.

    Randomly re-initializes the model several times and compares tape
    gradients against finite differences on sampled components of every
    parameter, at least ``draws`` probes in total. A probe whose +-h interval
    straddles a ReLU kink has no valid difference quotient; such probes are
    detected (the quotient converges to the tape gradient as h shrinks) and
    resampled. Returns (max error, valid probes).
    """
    rng = _rng(1000)
    probes = 0
    worst = 0.0
    init = 0
    while probes < draws and init < 24:
        model = tiny_model(variant, seed=init)
        init += 1
        doc = toy_document(model)
        batch = collate([doc])

        def build():
            probs, _, _ = model.forward_batch(batch, training=False)
            return cross_entropy(probs, batch.labels)

        for _, p in model.trainable():
            p.zero_grad()
        with ad.Tape() as tape:
            loss = build()
        tape.backward(loss)

        for name, p in model.trainable():
            n_pick = min(p.size, 2)
            picks = rng.choice(p.size, size=n_pick, replace=False)
            flat = p.data.ravel()
            gflat = ad.dense_grad(p).ravel()
            for idx in picks:
                def quotient(h):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    fp = build().item()
                    flat[idx] = orig - h
                    fm = build().item()
                    flat[idx] = orig
                    return (fp - fm) / (2.0 * h)

                err = relative_error(np.array(gflat[idx]), np.array(quotient(H)))
                if err >= TOLERANCE:
                    refined = max(
                        relative_error(np.array(gflat[idx]), np.array(quotient(h)))
                        for h in (1e-6, 1e-7)
                    )
                    if refined < TOLERANCE:
                        continue  # kink inside the h window, not a gradient defect
                    err = refined
                worst = max(worst, err)
                probes += 1
    return worst, probes


SUITE: list[tuple[str, Callable[[], float]]] = [
    ("matmul", check_matmul),
    ("elementwise", check_elementwise),
    ("dropout", check_dropout),
    ("softmax", check_softmax),
    ("dilated_conv1d", check_dilated_conv1d),
    ("dilated_conv1d_masked", check_masked_dilated_conv1d),
    ("stack", check_stack),
    ("transpose", check_transpose),
    ("embedding_lookup", check_embedding_lookup),
    ("bigru", check_fused_bigru),
    ("attention_pool", check_attention_pool),
    ("conv_feature_stack", check_conv_stack),
    ("tcn_stack", check_tcn_stack),
    ("full_model_none", lambda: check_full_model("none")[0]),
    ("full_model_cnn", lambda: check_full_model("cnn")[0]),
    ("full_model_tcn", lambda: check_full_model("tcn")[0]),
]


def run_suite() -> list[tuple[str, float, bool]]:
    results = []
    for name, fn in SUITE:
        err = fn()
        results.append((name, err, err < TOLERANCE))
    return results
