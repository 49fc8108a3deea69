import hashlib
import re
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from hanspam import autodiff as ad
from hanspam import model as hm
from hanspam.autodiff import Tensor
from hanspam.gradcheck import check_scalar_fn, tiny_model, toy_document
from hanspam.ingest import EmailDocument
from hanspam.model import (
    Batch,
    CheckpointError,
    ConfigError,
    HanConfig,
    HanModel,
    attention_pool,
    bigru_encode,
    collate,
    conv_feature_stack,
    init_params,
    load_checkpoint,
    param_shapes,
    tcn_stack,
)
from hanspam.training import cross_entropy
from hanspam.vocab import PAD, char_ngrams, encode_document, fnv1a64


def zero_gru(in_dim, hidden):
    """``(w, b, u)`` for ``bigru_encode``, all zeros."""
    shapes = ((2, in_dim, 3 * hidden), (2, 3 * hidden), (2, hidden, 3 * hidden))
    return tuple(Tensor(np.zeros(shape)) for shape in shapes)


def random_direction(rng, in_dim, hidden, scale=0.6):
    """One direction's ``(w, b, u)`` arrays, drawn one gate at a time: ``w``, ``u``, ``b`` for z, r, h."""
    w, b, u = np.empty((in_dim, 3 * hidden)), np.empty(3 * hidden), np.empty((hidden, 3 * hidden))
    for gate in range(3):
        block = slice(gate * hidden, (gate + 1) * hidden)
        w[:, block] = rng.uniform(-scale, scale, (in_dim, hidden))
        u[:, block] = rng.uniform(-scale, scale, (hidden, hidden))
        b[block] = rng.uniform(-scale, scale, hidden)
    return w, b, u


def bigru_weights(fw, bw, requires_grad=False):
    """``(w, b, u)`` tensors for ``bigru_encode`` from two directions' arrays, forward first."""
    return tuple(Tensor(np.stack(pair), requires_grad=requires_grad) for pair in zip(fw, bw))


def random_gru(rng, in_dim, hidden, requires_grad=False):
    fw, bw = random_direction(rng, in_dim, hidden), random_direction(rng, in_dim, hidden)
    return bigru_weights(fw, bw, requires_grad)


def unstack(x):
    """Slices of ``x`` along axis 0, each read back by a scalar ``take_rows`` index."""
    return [ad.take_rows(x, t) for t in range(x.shape[0])]


def gate_blocks(t, d):
    """Direction ``d``'s z, r and h blocks of a ``[2, ..., 3*hidden]`` GRU tensor, as differentiable slices."""
    hidden = t.shape[-1] // 3
    cols = ad.transpose(ad.take_rows(t, d), tuple(reversed(range(t.ndim - 1))))  # [3*hidden, ...]
    blocks = (ad.take_rows(cols, np.arange(g * hidden, (g + 1) * hidden)) for g in range(3))
    return [ad.transpose(blk, tuple(reversed(range(t.ndim - 1)))) for blk in blocks]


def reference_gru_cell(x, h_prev, w, b, u, d):
    """One GRU step of direction ``d`` on ``[rows, in]``, gate by gate as the
    per-step model computed it (biases added last)."""
    (w_z, w_r, w_h), (b_z, b_r, b_h), (u_z, u_r, u_h) = (gate_blocks(t, d) for t in (w, b, u))
    z = ad.sigmoid(x @ w_z + h_prev @ u_z + b_z)
    r = ad.sigmoid(x @ w_r + h_prev @ u_r + b_r)
    h_cand = ad.tanh(x @ w_h + ad.mul(r, h_prev) @ u_h + b_h)
    return ad.add(ad.mul(1.0 - z, h_prev), ad.mul(z, h_cand))


class TestGruCell:
    """One GRU step's arithmetic, seen through ``bigru_encode``."""

    def test_zero_params_halve_state(self):
        # zero gates give z = r = sigmoid(0) = 0.5, and with b_h = c the
        # candidate is tanh c, so each step halves the state and adds
        # 0.5 tanh c: 0 -> 0.5 tanh c -> 0.75 tanh c
        c = np.array([0.4, -1.2, 2.0])
        w, b, u = zero_gru(2, 3)
        b.data[:, 6:] = c
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 4, 2)))
        ann = bigru_encode(x, None, w, b, u).data
        fwd, bwd = ann[..., :3], ann[..., 3:]
        for first, second in ((fwd[0], fwd[1]), (bwd[1], bwd[0])):
            assert np.allclose(first, 0.5 * np.tanh(c), atol=1e-15)
            assert np.allclose(second, 0.75 * np.tanh(c), atol=1e-15)

    def test_zero_state_zero_params(self):
        out = bigru_encode(Tensor(np.ones((3, 2, 4))), None, *zero_gru(4, 3))
        assert np.array_equal(out.data, np.zeros((3, 2, 6)))

    def test_shape_mismatch(self):
        gates = zero_gru(2, 3)
        for x in (np.ones((1, 1, 5)), np.ones((1, 2)), np.ones((0, 1, 2))):
            with pytest.raises(ad.ShapeError):
                bigru_encode(Tensor(x), None, *gates)
        with pytest.raises(ad.ShapeError):
            bigru_encode(Tensor(np.ones((1, 1, 2))), None, zero_gru(5, 3)[0], *gates[1:])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (3, 2, 3)), requires_grad=True)
        gates = list(random_gru(rng, 3, 4, requires_grad=True))
        mask = np.array([[True, True, False], [True, True, True]])
        err = check_scalar_fn(lambda: ad.tsum(bigru_encode(x, mask, *gates)), [x] + gates)
        assert err < 1e-4


class TestBigru:
    def test_single_step(self):
        rng = np.random.default_rng(1)
        gates = random_gru(rng, 3, 2)
        x = Tensor(rng.uniform(-1, 1, (1, 1, 3)))
        ann = bigru_encode(x, None, *gates)
        assert ann.shape == (1, 1, 4)
        zero, step = Tensor(np.zeros((1, 2))), Tensor(x.data[0])
        expected = np.concatenate([reference_gru_cell(step, zero, *gates, d).data for d in (0, 1)], axis=1)
        assert np.allclose(ann.data[0], expected)

    def test_palindrome_with_shared_params_reverses_with_swapped_halves(self):
        rng = np.random.default_rng(2)
        shared = random_direction(rng, 3, 4)
        steps = [rng.uniform(-1, 1, (1, 3)) for _ in range(3)]
        x = Tensor(np.stack(steps + steps[-2::-1]))  # palindrome, length 5
        ann = bigru_encode(x, None, *bigru_weights(shared, shared)).data
        t_total = x.shape[0]
        for t in range(t_total):
            mirrored = ann[t_total - 1 - t]
            swapped = np.concatenate([mirrored[:, 4:], mirrored[:, :4]], axis=1)
            assert np.allclose(ann[t], swapped, atol=1e-12)

    def test_masked_positions_hold_state(self):
        rng = np.random.default_rng(3)
        gates = random_gru(rng, 2, 3)
        x = Tensor(rng.uniform(-1, 1, (4, 1, 2)))
        mask = np.array([[True, True, False, False]])
        ann = bigru_encode(x, mask, *gates).data
        # forward half at the masked tail is the last unmasked state, bitwise
        assert np.array_equal(ann[2][:, :3], ann[1][:, :3])
        assert np.array_equal(ann[3][:, :3], ann[1][:, :3])
        # backward half entering the masked tail is still the zero init state
        assert np.array_equal(ann[2][:, 3:], np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(1, 4), (4, 2), (2, 3), (4,)])
    def test_wrongly_shaped_mask_rejected(self, shape):
        # x is [4 steps, 2 rows]; the mask must be [rows, steps] = [2, 4], not
        # merely broadcastable to it
        rng = np.random.default_rng(10)
        fw = random_direction(rng, 3, 2)
        x = Tensor(rng.uniform(-1, 1, (4, 2, 3)))
        w, b, u = Tensor(np.eye(3)), Tensor(np.zeros(3)), Tensor(np.ones(3))
        with pytest.raises(ad.ShapeError, match=r"bigru expects a mask\[rows, steps\] = \[2, 4\]"):
            bigru_encode(x, np.ones(shape, dtype=bool), *bigru_weights(fw, fw))
        with pytest.raises(ad.ShapeError, match=r"attention_pool expects a mask\[rows, steps\] = \[2, 4\]"):
            attention_pool(x, np.ones(shape, dtype=bool), w, b, u)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(4)
        fw = random_direction(rng, 2, 3)
        with pytest.raises(ad.ShapeError):
            bigru_encode(Tensor(np.zeros((0, 1, 2))), None, *bigru_weights(fw, fw))

    def test_gradcheck_through_bigru(self):
        # row 0 has a padded tail, row 1 a hole inside it; the loss weights
        # each output element differently so no gradient cancels by symmetry
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-1, 1, (4, 2, 3)), requires_grad=True)
        gates = list(random_gru(rng, 3, 4, requires_grad=True))
        mask = np.array([[True, True, True, False], [True, False, True, True]])
        weights = Tensor(rng.uniform(-1, 1, (4, 2, 8)))
        err = check_scalar_fn(lambda: ad.tsum(ad.mul(bigru_encode(x, mask, *gates), weights)), [x] + gates)
        assert err < 1e-4


class TestAttentionPool:
    def _wbu(self, rng, dim):
        w = Tensor(rng.uniform(-1, 1, (dim, dim)))
        b = Tensor(rng.uniform(-1, 1, dim))
        u = Tensor(rng.uniform(-1, 1, dim))
        return w, b, u

    def test_identical_annotations_pool_to_themselves(self):
        rng = np.random.default_rng(5)
        h = rng.uniform(-1, 1, (2, 4))
        w, b, u = self._wbu(rng, 4)
        pooled, alpha = attention_pool(Tensor(np.stack([h, h, h])), None, w, b, u)
        assert alpha.shape == (2, 3)
        assert np.allclose(alpha.data, 1 / 3)
        assert np.allclose(pooled.data, h)

    def test_single_step(self):
        rng = np.random.default_rng(6)
        h = rng.uniform(-1, 1, (3, 4))
        w, b, u = self._wbu(rng, 4)
        pooled, alpha = attention_pool(Tensor(h[None]), None, w, b, u)
        assert np.allclose(alpha.data, 1.0)
        assert np.allclose(pooled.data, h)

    def test_log2_score_gap_weights_one_and_two_thirds(self):
        # identity W, zero b: annotations chosen so the two scores are
        # exactly {0, ln 2}, which softmax turns into [1/3, 2/3]
        w = Tensor(np.eye(2))
        b = Tensor(np.zeros(2))
        u = Tensor(np.array([1.0, 0.0]))
        score2 = np.arctanh(np.log(2.0))  # tanh(score2) = ln 2
        h1 = np.array([[0.0, 0.0]])
        h2 = np.array([[score2, 0.0]])
        pooled, alpha = attention_pool(Tensor(np.stack([h1, h2])), None, w, b, u)
        assert np.allclose(alpha.data, [[1 / 3, 2 / 3]], atol=1e-12)
        assert np.allclose(pooled.data, (h1 + 2.0 * h2) / 3.0, atol=1e-12)

    def test_all_masked_raises(self):
        rng = np.random.default_rng(7)
        h = Tensor(rng.uniform(-1, 1, (1, 1, 3)))
        w, b, u = self._wbu(rng, 3)
        with pytest.raises(ad.EmptyAttentionError):
            attention_pool(h, np.array([[False]]), w, b, u)
        # one row without a valid step is enough, whatever the other rows hold
        h = Tensor(rng.uniform(-1, 1, (2, 3, 3)))
        with pytest.raises(ad.EmptyAttentionError):
            attention_pool(h, np.array([[True, True], [False, False], [True, False]]), w, b, u)

    def test_weights_sum_to_one_over_unmasked(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-1, 1, (5, 4, 3)))
        mask = rng.random((4, 5)) > 0.4
        mask[:, 2] = True
        w, b, u = self._wbu(rng, 3)
        _, alpha = attention_pool(x, mask, w, b, u)
        assert np.max(np.abs(alpha.data.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(alpha.data[~mask] == 0.0)

    def test_shape_errors(self):
        rng = np.random.default_rng(9)
        w, b, u = self._wbu(rng, 3)
        for x in (np.ones((2, 3)), np.ones((0, 2, 3))):
            with pytest.raises(ad.ShapeError):
                attention_pool(Tensor(x), None, w, b, u)


class TestConvStacks:
    def test_identity_filter_single_window(self):
        # window 1 with a filter that picks channel 0 reproduces channel 0
        seq = [Tensor(np.abs(np.random.default_rng(9).uniform(0.1, 1, (2, 3)))) for _ in range(4)]
        params = {
            "cnn.w1.kernel": Tensor(np.array([[[1.0], [0.0], [0.0]]])),
            "cnn.w1.bias": Tensor(np.zeros(1)),
        }
        feats = unstack(conv_feature_stack(ad.stack(seq), params, (1,)))
        for t in range(4):
            assert np.allclose(feats[t].data[:, 0], seq[t].data[:, 0])

    def test_zero_filters_zero_features(self):
        seq = [Tensor(np.random.default_rng(10).uniform(-1, 1, (2, 3))) for _ in range(3)]
        params = {
            "cnn.w2.kernel": Tensor(np.zeros((2, 3, 2))),
            "cnn.w2.bias": Tensor(np.zeros(2)),
        }
        feats = unstack(conv_feature_stack(ad.stack(seq), params, (2,)))
        assert all(np.array_equal(f.data, np.zeros((2, 2))) for f in feats)

    def test_channel_concat_across_windows(self):
        rng = np.random.default_rng(11)
        seq = [Tensor(rng.uniform(-1, 1, (1, 2))) for _ in range(3)]
        params = {}
        for w in (1, 2):
            taps = [rng.uniform(-1, 1, (2, 3)) for _ in range(w)]
            params[f"cnn.w{w}.kernel"] = Tensor(np.stack(taps[::-1]))
            params[f"cnn.w{w}.bias"] = Tensor(np.zeros(3))
        feats = unstack(conv_feature_stack(ad.stack(seq), params, (1, 2)))
        assert feats[0].shape == (1, 6)

    def test_tcn_identity_block_is_relu_plus_input(self):
        rng = np.random.default_rng(12)
        seq = [Tensor(rng.uniform(-1, 1, (2, 3))) for _ in range(4)]
        params = {
            "tcn.block0.kernel": Tensor(np.eye(3)[None]),
            "tcn.block0.bias": Tensor(np.zeros(3)),
        }
        out = unstack(tcn_stack(ad.stack(seq), params, levels=1))
        for t in range(4):
            expected = np.maximum(seq[t].data, 0.0) + seq[t].data
            assert np.allclose(out[t].data, expected)

    def test_tcn_zero_conv_passes_residual(self):
        rng = np.random.default_rng(13)
        seq = [Tensor(rng.uniform(-1, 1, (2, 3))) for _ in range(4)]
        params = {
            "tcn.block0.kernel": Tensor(np.zeros((2, 3, 3))),
            "tcn.block0.bias": Tensor(np.zeros(3)),
        }
        out = unstack(tcn_stack(ad.stack(seq), params, levels=1))
        for t in range(4):
            assert np.allclose(out[t].data, seq[t].data)

    def test_tcn_causality_under_perturbation(self):
        rng = np.random.default_rng(14)
        levels, kernel, channels = 2, 2, 3
        params = {}
        for lvl in range(levels):
            cin = 3 if lvl == 0 else channels
            params[f"tcn.block{lvl}.kernel"] = Tensor(rng.uniform(-1, 1, (kernel, cin, channels)))
            params[f"tcn.block{lvl}.bias"] = Tensor(rng.uniform(-1, 1, channels))
        base_steps = [rng.uniform(-1, 1, (1, 3)) for _ in range(7)]
        base_out = [
            o.data.copy() for o in unstack(tcn_stack(Tensor(np.stack(base_steps)), params, levels))
        ]
        for t in range(7):
            bumped = [s.copy() for s in base_steps]
            bumped[t] = bumped[t] + 0.37
            out = unstack(tcn_stack(Tensor(np.stack(bumped)), params, levels))
            for s in range(7):
                if s < t:
                    assert np.array_equal(out[s].data, base_out[s])


def per_step_cnn(seq, params, windows):
    """Reference CNN stack: one matmul per tap, step and window; tap ``i``
    reads position ``t - (w-1)//2 + i`` and is kernel entry ``w-1-i``."""
    per_window = []
    for w in windows:
        left = (w - 1) // 2
        taps = unstack(params[f"cnn.w{w}.kernel"])[::-1]
        outs = []
        for t in range(len(seq)):
            acc = params[f"cnn.w{w}.bias"]
            for i in range(w):
                if 0 <= t - left + i < len(seq):
                    acc = ad.add(acc, seq[t - left + i] @ taps[i])
            outs.append(ad.relu(acc))
        per_window.append(outs)
    return [ad.concat([outs[t] for outs in per_window], axis=1) for t in range(len(seq))]


def per_step_tcn(seq, params, levels):
    """Reference TCN stack: causal taps per step, dilation 2**level, residual."""
    for lvl in range(levels):
        taps = unstack(params[f"tcn.block{lvl}.kernel"])
        proj = params.get(f"tcn.block{lvl}.proj")
        proj = None if proj is None else ad.take_rows(proj, 0)
        nxt = []
        for t in range(len(seq)):
            acc = params[f"tcn.block{lvl}.bias"]
            for i in range(len(taps)):
                if t - 2**lvl * i >= 0:
                    acc = ad.add(acc, seq[t - 2**lvl * i] @ taps[i])
            nxt.append(ad.add(ad.relu(acc), seq[t] if proj is None else seq[t] @ proj))
        seq = nxt
    return seq


def assert_matches_reference(new, reference, leaves):
    """``new()`` and ``reference()`` agree in values and in every leaf's gradient, to 1e-12.

    Each build returns one output tensor or a tuple of them.
    """
    results = []
    for build in (new, reference):
        for t in leaves:
            t.zero_grad()
        with ad.Tape() as tape:
            outs = build()
            outs = outs if isinstance(outs, tuple) else (outs,)
            loss = None
            for out in outs:
                term = ad.tsum(ad.mul(out, np.linspace(-1.0, 1.0, out.size).reshape(out.shape)))
                loss = term if loss is None else ad.add(loss, term)
        tape.backward(loss)
        results.append(([o.data.copy() for o in outs], [ad.dense_grad(t) for t in leaves]))
    (outs_a, grad_a), (outs_b, grad_b) = results
    for out_a, out_b in zip(outs_a, outs_b, strict=True):
        assert out_a.shape == out_b.shape
        assert np.max(np.abs(out_a - out_b)) <= 1e-12 * max(np.max(np.abs(out_b)), 1.0)
    scale = max(max(np.max(np.abs(g)) for g in grad_b), 1.0)
    for ga, gb in zip(grad_a, grad_b):
        assert np.max(np.abs(ga - gb)) <= 1e-12 * scale


class TestConvStacksMatchPerStepReference:
    """The one-op stacks against the per-step tap loops, values and gradients."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cnn(self, seed):
        rng = np.random.default_rng(100 + seed)
        steps, rows, dim, maps = int(rng.integers(1, 6)), int(rng.integers(1, 4)), 3, 2
        windows = tuple(sorted(rng.choice(np.arange(1, 7), size=2, replace=False).tolist()))
        x = Tensor(rng.uniform(-1, 1, (steps, rows, dim)), requires_grad=True)
        params = {}
        for w in windows:
            taps = [rng.uniform(-1, 1, (dim, maps)) for _ in range(w)]
            params[f"cnn.w{w}.kernel"] = Tensor(np.stack(taps[::-1]), requires_grad=True)
            params[f"cnn.w{w}.bias"] = Tensor(rng.uniform(-0.5, 0.5, maps), requires_grad=True)
        assert_matches_reference(
            lambda: conv_feature_stack(x, params, windows),
            lambda: ad.stack(per_step_cnn(unstack(x), params, windows)),
            [x] + list(params.values()),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_tcn(self, seed):
        rng = np.random.default_rng(200 + seed)
        steps, rows, dim = int(rng.integers(1, 9)), int(rng.integers(1, 4)), 3
        levels, kernel, channels = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        x = Tensor(rng.uniform(-1, 1, (steps, rows, dim)), requires_grad=True)
        leaf = lambda *shape: Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
        params = {}
        for lvl in range(levels):
            cin = dim if lvl == 0 else channels
            params[f"tcn.block{lvl}.kernel"] = leaf(kernel, cin, channels)
            params[f"tcn.block{lvl}.bias"] = leaf(channels)
            if cin != channels:
                params[f"tcn.block{lvl}.proj"] = leaf(1, cin, channels)
        assert_matches_reference(
            lambda: tcn_stack(x, params, levels),
            lambda: ad.stack(per_step_tcn(unstack(x), params, levels)),
            [x] + list(params.values()),
        )

    def test_window_longer_than_sentence(self):
        # every case above draws windows up to 6 over 1-5 steps; pin one explicitly
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 3)), requires_grad=True)
        taps = [rng.uniform(-1, 1, (3, 2)) for _ in range(5)]
        params = {"cnn.w5.kernel": Tensor(np.stack(taps[::-1]), requires_grad=True)}
        params["cnn.w5.bias"] = Tensor(np.zeros(2), requires_grad=True)
        assert_matches_reference(
            lambda: conv_feature_stack(x, params, (5,)),
            lambda: ad.stack(per_step_cnn(unstack(x), params, (5,))),
            [x] + list(params.values()),
        )


def per_step_bigru(seq, mask, w, b, u):
    """Reference BiGRU over a list of ``[rows, in]`` steps: one cell per step and direction."""
    rows, hidden = seq[0].shape[0], u.shape[1]

    def run(d, order):
        h, states = Tensor(np.zeros((rows, hidden))), [None] * len(seq)
        for t in order:
            new = reference_gru_cell(seq[t], h, w, b, u, d)
            if mask is not None:
                keep = mask[:, t : t + 1].astype(np.float64)
                new = ad.add(ad.mul(new, keep), ad.mul(h, 1.0 - keep))
            h = states[t] = new
        return states

    fwd, bwd = run(0, range(len(seq))), run(1, reversed(range(len(seq))))
    return [ad.concat([f, b], axis=1) for f, b in zip(fwd, bwd)]


def per_step_attention(seq, mask, w, b, context):
    """Reference attention: one score column per step, pooled by a left fold."""
    ctx_col = ad.reshape(context, (context.size, 1))
    scores = ad.concat([ad.tanh(h @ w + b) @ ctx_col for h in seq], axis=1)
    alpha = ad.softmax(scores if mask is None else ad.add(scores, np.where(mask, 0.0, -np.inf)))
    pooled = None
    for col, h in zip(unstack(ad.transpose(alpha, (1, 0))), seq):
        term = ad.mul(ad.reshape(col, (h.shape[0], 1)), h)
        pooled = term if pooled is None else ad.add(pooled, term)
    return pooled, alpha


def _random_mask(rng, rows, steps):
    """Random padding with at least one real step per row."""
    mask = rng.random((rows, steps)) > 0.4
    mask[:, 0] = True
    return mask


def _sorted_mask(rng, rows, steps):
    """Rows of real lengths 1..steps, longest first, as ``collate`` orders them."""
    lengths = np.sort(rng.integers(1, steps + 1, rows))[::-1]
    return np.arange(steps) < lengths[:, None]


class TestSequenceOpsMatchPerStepReference:
    """Whole-sequence BiGRU and attention against per-step loops, values and gradients."""

    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_bigru(self, steps, seed):
        rng = np.random.default_rng(300 + 10 * steps + seed)
        rows, in_dim, hidden = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = Tensor(rng.uniform(-1, 1, (steps, rows, in_dim)), requires_grad=True)
        gates = list(random_gru(rng, in_dim, hidden, requires_grad=True))
        padded = _random_mask(rng, rows, steps)
        if rows > 1:
            padded[0] = False  # a row of padding only keeps the zero state
        for mask in (None, padded):
            assert_matches_reference(
                lambda: bigru_encode(x, mask, *gates),
                lambda: ad.stack(per_step_bigru(unstack(x), mask, *gates)),
                [x] + gates,
            )

    def test_bigru_larger_than_one_blas_block(self):
        # 40 rows x 12 steps x hidden 8: more rows and columns than one BLAS
        # kernel tile, so every product is computed in several tiles
        rng = np.random.default_rng(350)
        steps, rows, in_dim, hidden = 12, 40, 6, 8
        x = Tensor(rng.uniform(-1, 1, (steps, rows, in_dim)), requires_grad=True)
        gates = list(random_gru(rng, in_dim, hidden, requires_grad=True))
        mask = _random_mask(rng, rows, steps)
        assert_matches_reference(
            lambda: bigru_encode(x, mask, *gates),
            lambda: ad.stack(per_step_bigru(unstack(x), mask, *gates)),
            [x] + gates,
        )

    def test_bigru_on_length_sorted_rows(self):
        # rows longest first, as collate orders them: each step runs on its
        # live rows only, more than one BLAS block of them
        rng = np.random.default_rng(351)
        steps, rows, in_dim, hidden = 12, 45, 6, 8
        x = Tensor(rng.uniform(-1, 1, (steps, rows, in_dim)), requires_grad=True)
        gates = list(random_gru(rng, in_dim, hidden, requires_grad=True))
        mask = _sorted_mask(rng, rows, steps)
        assert_matches_reference(
            lambda: bigru_encode(x, mask, *gates),
            lambda: ad.stack(per_step_bigru(unstack(x), mask, *gates)),
            [x] + gates,
        )
        # padding past a step's last live row is never read
        clean = bigru_encode(x, mask, *gates).data
        dirty = x.data.copy()
        dirty[~mask.T] = np.nan
        assert bigru_encode(Tensor(dirty), mask, *gates).data.tobytes() == clean.tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_attention_pool(self, steps, seed):
        rng = np.random.default_rng(400 + 10 * steps + seed)
        rows, dim = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        leaf = lambda *shape: Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
        x, w, b, u = leaf(steps, rows, dim), leaf(dim, dim), leaf(dim), leaf(dim)
        for mask in (None, _random_mask(rng, rows, steps)):
            assert_matches_reference(
                lambda: attention_pool(x, mask, w, b, u),
                lambda: per_step_attention(unstack(x), mask, w, b, u),
                [x, w, b, u],
            )


def small_model(variant="none", seed=0):
    return tiny_model(variant, seed=seed)


class TestForward:
    @pytest.mark.parametrize("variant", ["none", "cnn", "tcn"])
    def test_eval_mode_deterministic(self, variant):
        model = small_model(variant)
        doc = toy_document(model)
        p1, _ = model.forward_document(doc)
        p2, _ = model.forward_document(doc)
        assert p1.tobytes() == p2.tobytes()

    def test_probabilities_sum_to_one(self):
        model = small_model("cnn")
        probs, _, _ = model.forward_batch(collate([toy_document(model)]))
        assert abs(probs.data.sum() - 1.0) < 1e-12

    def test_single_token_document_degenerates(self):
        model = small_model()
        doc = EmailDocument(label=0, sentences=[["alpha"]])
        probs, trace = model.forward_document(encode_document(doc, model.vocab, model.table))
        assert np.allclose(trace.sentence_weights, [1.0])
        assert np.allclose(trace.word_weights[0], [1.0])
        assert probs.shape == (2,)

    def test_attention_weights_sum_to_one_per_level(self):
        model = small_model("cnn")
        docs = [
            EmailDocument(label=1, sentences=[["alpha", "beta"], ["gamma"]]),
            EmailDocument(label=0, sentences=[["delta", "alpha", "beta"]]),
        ]
        batch = collate([encode_document(d, model.vocab, model.table) for d in docs])
        _, alpha_w, alpha_s = model.forward_batch(batch)
        assert alpha_w.shape == (3, 3)  # one row per real sentence
        assert np.max(np.abs(alpha_w.data.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(alpha_w.data[~batch.tok_mask] == 0.0)
        assert np.max(np.abs(alpha_s.data.sum(axis=1) - 1.0)) < 1e-12

    def test_word_level_encodes_only_real_sentences(self, monkeypatch):
        import hanspam.model as hm

        rows = []

        def recording(x, mask, w, b, u):
            rows.append(x.shape[1])
            return bigru_encode(x, mask, w, b, u)

        monkeypatch.setattr(hm, "bigru_encode", recording)
        model = small_model("cnn")
        docs = [
            EmailDocument(label=1, sentences=[["alpha", "beta"], ["gamma"]]),
            EmailDocument(label=0, sentences=[["delta"], ["alpha"], ["beta", "gamma"], ["unseen"]]),
        ]
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        model.forward_batch(collate(encoded))
        assert rows == [6, 2]  # word level: 2 + 4 sentences; sentence level: 2 documents

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before Python 3.11 a caller keeps the arguments of a Python call alive until it returns",
    )
    @pytest.mark.parametrize("variant", ["none", "cnn", "tcn"])
    def test_word_features_are_freed_before_word_attention(self, monkeypatch, variant):
        import hanspam.model as hm

        features, alive = [], []

        def recording_encode(x, mask, w, b, u):
            if w.name.startswith("word"):
                features.append(weakref.ref(x.data))
            return bigru_encode(x, mask, w, b, u)

        def recording_pool(annotations, mask, w, b, context):
            if w.name.startswith("word"):
                alive.append(features[-1]() is not None)
            return attention_pool(annotations, mask, w, b, context)

        monkeypatch.setattr(hm, "bigru_encode", recording_encode)
        monkeypatch.setattr(hm, "attention_pool", recording_pool)
        model = small_model(variant)
        model.forward_batch(collate([toy_document(model)]))
        assert len(features) == 1 and alive == [False]

    def test_trace_maps_sentences_through_sent_rows(self):
        # sentences shortest first: collate puts them in the reverse rows
        model = small_model("cnn")
        doc = EmailDocument(label=1, sentences=[["alpha"], ["beta", "gamma"], ["delta", "alpha", "unseen"]])
        enc = encode_document(doc, model.vocab, model.table)
        batch = collate([enc])
        assert batch.sent_rows.tolist() == [[2, 1, 0]]
        _, alpha_w, _ = model.forward_batch(batch)
        _, trace = model.forward_document(enc)
        for i, ids in enumerate(enc.word_ids):
            row = alpha_w.data[batch.sent_rows[0, i]]
            assert len(trace.word_weights[i]) == len(ids)
            assert np.array_equal(trace.word_weights[i], row[: len(ids)])
            assert np.all(row[len(ids) :] == 0.0)

    @pytest.mark.parametrize("variant", ["none", "cnn", "tcn"])
    def test_document_order_does_not_change_probabilities(self, variant):
        model = small_model(variant)
        words = ["alpha", "beta", "gamma", "delta", "unseen"]
        docs = [
            EmailDocument(label=i % 2, sentences=[[words[(i + j) % 5] for j in range(n)] for n in lengths])
            for i, lengths in enumerate(([1, 4], [3], [2, 2, 5], [5, 1, 3, 1]))
        ]
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        ahead, _, _ = model.forward_batch(collate(encoded))
        reversed_, _, _ = model.forward_batch(collate(encoded[::-1]))
        assert np.max(np.abs(ahead.data - reversed_.data[::-1])) < 1e-12

    @pytest.mark.parametrize("variant", ["none", "cnn", "tcn"])
    def test_padding_invariance(self, variant):
        # a document evaluated alone must produce the same probabilities when
        # padded (extra PAD tokens and PAD sentences) inside a larger batch
        model = small_model(variant)
        short = EmailDocument(label=1, sentences=[["alpha", "beta"], ["gamma"]])
        long = EmailDocument(
            label=0,
            sentences=[["alpha", "beta", "gamma", "delta"]] * 4,
        )
        enc_short = encode_document(short, model.vocab, model.table)
        enc_long = encode_document(long, model.vocab, model.table)
        alone, _, _ = model.forward_batch(collate([enc_short]))
        padded, _, _ = model.forward_batch(collate([enc_short, enc_long]))
        assert np.max(np.abs(alone.data[0] - padded.data[0])) < 1e-10

    def test_argmax_invariant_to_logit_shift(self):
        model = small_model()
        doc = toy_document(model)
        batch = collate([doc])
        probs, _, _ = model.forward_batch(batch)
        model.params["head.b"].data += 3.7  # same constant on both logits
        shifted, _, _ = model.forward_batch(batch)
        assert np.argmax(probs.data) == np.argmax(shifted.data)
        assert np.max(np.abs(probs.data - shifted.data)) < 1e-12

    def test_empty_sentence_error_names_document_and_sentence(self):
        from hanspam.vocab import EncodedDocument

        model = small_model()
        doc = toy_document(model)
        hollow = EncodedDocument(
            label=0,
            word_ids=[doc.word_ids[0], np.zeros(0, dtype=np.intp)],
            bucket_ids=[doc.bucket_ids[0], []],
            doc_id="msg-4",
        )
        with pytest.raises(ValueError, match="'msg-4' has no tokens in sentence 1"):
            collate([doc, hollow])

    def test_empty_document_error_carries_id(self):
        model = small_model()
        from hanspam.vocab import EncodedDocument

        empty = EncodedDocument(label=0, word_ids=[], bucket_ids=[], doc_id="msg-9")
        with pytest.raises(ValueError, match="msg-9"):
            model.forward_document(empty)

    def test_variant_none_shares_encoder_paths(self):
        # with the conv stack disabled the word encoder consumes embeddings
        # directly; forcing identical parameters must reproduce the same
        # output as a cnn model whose stack is an identity on channel space
        model = small_model("none")
        assert model.config.feature_dim == model.config.embed_dim


class TestTapeEntriesDoNotGrowWithLength:
    """The BiGRU, attention and the sentence regroup record the same entries at any length."""

    def test_bigru_encode(self):
        rng = np.random.default_rng(14)
        gates = random_gru(rng, 4, 2, requires_grad=True)
        counts = set()
        for steps in (1, 3, 8):
            x = Tensor(rng.uniform(-1, 1, (steps, 3, 4)), requires_grad=True)
            with ad.Tape() as tape:
                bigru_encode(x, np.ones((3, steps), dtype=bool), *gates)
            counts.add(len(tape))
        assert len(counts) == 1, counts

    def test_attention_pool(self):
        rng = np.random.default_rng(15)
        w, b, u = (Tensor(rng.uniform(-1, 1, s), requires_grad=True) for s in ((4, 4), (4,), (4,)))
        counts = set()
        for steps in (1, 3, 8):
            x = Tensor(rng.uniform(-1, 1, (steps, 3, 4)), requires_grad=True)
            with ad.Tape() as tape:
                attention_pool(x, np.ones((3, steps), dtype=bool), w, b, u)
            counts.add(len(tape))
        assert len(counts) == 1, counts

    @pytest.mark.parametrize("steps", [1, 3, 8])
    def test_mask_costs_a_fixed_number_of_entries(self, steps):
        # the GRU op takes its mask as it is, and attention turns it into one
        # additive bias per call, whatever the length
        rng = np.random.default_rng(16)
        x = Tensor(rng.uniform(-1, 1, (steps, 3, 4)), requires_grad=True)
        gates = random_gru(rng, 4, 2)
        w, b, u = Tensor(np.eye(4)), Tensor(np.zeros(4)), Tensor(np.ones(4))
        mask = np.ones((3, steps), dtype=bool)
        mask[1, 1:] = False
        ops = {"gru": lambda m: bigru_encode(x, m, *gates), "attn": lambda m: attention_pool(x, m, w, b, u)}

        def entries(op, m):
            with ad.Tape() as tape:
                op(m)
            return len(tape)

        added = {name: entries(op, mask) - entries(op, None) for name, op in ops.items()}
        assert added == {"gru": 0, "attn": 1}

    def test_forward_batch_attention_and_sentence_regroup(self, monkeypatch):
        import hanspam.model as hm

        marks = []  # (function, "in" | "out", tape length)
        current = {}

        def traced(name, fn):
            def wrapper(*args, **kwargs):
                marks.append((name, "in", len(current["tape"])))
                out = fn(*args, **kwargs)
                marks.append((name, "out", len(current["tape"])))
                return out

            return wrapper

        monkeypatch.setattr(hm, "bigru_encode", traced("gru", hm.bigru_encode))
        monkeypatch.setattr(hm, "attention_pool", traced("attn", hm.attention_pool))
        model = small_model("none")
        words = ["alpha", "beta", "gamma", "delta", "unseen"]
        counts = set()
        for n_sent, n_tok in ((1, 1), (2, 3), (4, 5)):
            sentences = [[words[(i + j) % 5] for j in range(n_tok)] for i in range(n_sent)]
            doc = encode_document(EmailDocument(label=1, sentences=sentences), model.vocab, model.table)
            batch = collate([doc])
            marks.clear()
            with ad.Tape() as tape:
                current["tape"] = tape
                model.forward_batch(batch)
            (_, _, _), (_, _, _), word_in, word_out, sent_gru_in, _, sent_in, sent_out = marks
            assert [m[0] for m in (word_in, sent_gru_in, sent_in)] == ["attn", "gru", "attn"]
            counts.add((word_out[2] - word_in[2], sent_gru_in[2] - word_out[2], sent_out[2] - sent_in[2]))
        assert len(counts) == 1, counts


class TestParameterLayout:
    """Every weight is stored in the shape its op reads."""

    @pytest.mark.parametrize("variant, entries, leaves", [("cnn", 51, 22), ("tcn", 56, 23), ("none", 40, 16)])
    def test_training_forward_joins_no_parameters(self, variant, entries, leaves):
        # the default windows, TCN levels and kernel, and dropout, at small widths
        config = HanConfig(variant=variant, embed_dim=8, gru_hidden=3, cnn_maps=2, tcn_channels=4, embed_buckets=50)
        model = HanModel(config, tiny_model("none").vocab, seed=0)
        docs = [
            EmailDocument(label=1, sentences=[["alpha", "beta", "unseen"], ["gamma"]]),
            EmailDocument(label=0, sentences=[["delta", "alpha"], ["beta", "gamma", "delta", "alpha"]]),
        ]
        batch = collate([encode_document(d, model.vocab, model.table) for d in docs])
        with ad.Tape() as tape:
            probs, _, _ = model.forward_batch(batch, training=True, step=1)
            cross_entropy(probs, batch.labels)
        params = {id(t) for t in model.params.values()}
        joins = [
            e.rule.__qualname__.split(".")[0] for e in tape.entries if all(id(t) in params for t in e.inputs)
        ]
        assert joins == ["embedding_lookup"]
        assert len(tape) == entries
        outputs = {id(e.output) for e in tape.entries}
        reached = {id(t) for e in tape.entries for t in e.inputs if t.requires_grad and id(t) not in outputs}
        assert reached == {id(t) for _, t in model.trainable()}
        assert len(reached) == leaves

    @pytest.mark.parametrize("variant", ["cnn", "tcn", "none"])
    def test_params_are_built_as_param_shapes_states(self, variant):
        # a tcn whose first block changes the channel count, so it has a proj
        config = HanConfig(variant=variant, embed_dim=8, gru_hidden=3, cnn_maps=2, tcn_channels=4, embed_buckets=50)
        params = init_params(config, 9, seed=1)
        assert [(name, t.shape) for name, t in params.items()] == list(param_shapes(config, 9).items())
        assert ("tcn.block0.proj" in params) == (variant == "tcn")

    @pytest.mark.parametrize(
        "variant, digest",
        [
            ("cnn", "f777fabdc9413cea0b69d350909e75216e04549dbc2d0220002997bb8513616f"),
            ("tcn", "e008977556769348f223451a5b33b11ac9cb107bf758dccb0fbd43a2f2292be4"),
            ("none", "91edc4927b751a06d20bc3fdbd7b0fc07feb83b55923f6035d8138c0940ff147"),
        ],
    )
    def test_initial_values_are_pinned(self, variant, digest):
        # SHA-256 over every parameter's bytes in ``params`` order: a change to
        # any draw, its stream, its order or a shape shows here
        h = hashlib.sha256()
        for t in tiny_model(variant, seed=0).params.values():
            h.update(t.data.tobytes())
        assert h.hexdigest() == digest


class TestBackward:
    def test_grad_only_on_leaves(self):
        model = small_model("cnn")
        batch = collate([toy_document(model)])
        with ad.Tape() as tape:
            probs, _, _ = model.forward_batch(batch, training=False)
            loss = cross_entropy(probs, batch.labels)
        tape.backward(loss)
        assert len(tape) > 0
        assert all(entry.output.grad is None for entry in tape.entries)
        for name, p in model.trainable():
            if name.startswith("embed."):  # the tables: only the rows the tokens use
                g = p.grad
                assert isinstance(g, ad.RowSet) and g.shape == p.shape, name
                assert g.idx.ndim == 1 and g.idx.size > 0 and np.all(np.diff(g.idx) > 0), name
                assert 0 <= g.idx[0] and g.idx[-1] < p.shape[0], name
                assert g.val.shape == (g.idx.size, *p.shape[1:]), name
                assert np.all(g.val.any(axis=1)), name
            else:
                assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.shape, name
                assert np.any(p.grad != 0.0), name


def reference_embedding(word, bucket, doc, si, t):
    """One position's vector composed on its own: ``weight * word_row`` plus each
    bucket row scaled by 1/count, added one at a time in the token's bucket order."""
    vec = doc.word_weight[si][t] * word[doc.word_ids[si][t]]
    buckets = doc.bucket_ids[si][t]
    for b in buckets:
        vec = vec + (1.0 / len(buckets)) * bucket[b]
    return vec


class TestBatchEmbedding:
    def _batch(self, model):
        docs = [
            EmailDocument(label=1, sentences=[["alpha", "unseen", "beta"], ["gamma", "alpha"]]),
            EmailDocument(label=0, sentences=[["delta", "alpha"], ["unseen"], ["beta", "beta", "gamma"]]),
        ]
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        return collate(encoded), encoded

    def test_matches_per_position_reference(self):
        model = small_model()
        batch, encoded = self._batch(model)
        word, bucket = model.params["embed.word"].data, model.params["embed.bucket"].data
        x = model._embed(batch)
        assert x.shape == (batch.tokens.shape[1], batch.tok_mask.shape[0], model.config.embed_dim)
        for di, doc in enumerate(encoded):
            for si, ids in enumerate(doc.word_ids):
                for t in range(len(ids)):
                    expected = reference_embedding(word, bucket, doc, si, t)
                    assert np.array_equal(x.data[t, batch.sent_rows[di, si]], expected)

    def test_padding_is_zero_and_sends_no_gradient(self):
        model = small_model()
        batch, encoded = self._batch(model)
        word, bucket = model.params["embed.word"], model.params["embed.bucket"]
        for table in (word, bucket):
            table.zero_grad()
        with ad.Tape() as tape:
            x = model._embed(batch)
            loss = ad.tsum(x)  # padding positions get a gradient of one, like real ones
        tape.backward(loss)
        assert np.all(x.data[~batch.tok_mask.T] == 0.0)
        # the tables' gradients count only real positions
        word_uses, bucket_uses = np.zeros(word.shape[0]), np.zeros(bucket.shape[0])
        for doc in encoded:
            for ids, weights, buckets in zip(doc.word_ids, doc.word_weight, doc.bucket_ids):
                np.add.at(word_uses, ids, weights)
                for owned in buckets:
                    np.add.at(bucket_uses, list(owned), 1.0 / len(owned))
        assert np.array_equal(ad.dense_grad(word), np.repeat(word_uses[:, None], word.shape[1], axis=1))
        assert np.allclose(ad.dense_grad(bucket), bucket_uses[:, None], rtol=0, atol=1e-14)

    def test_collate_lists_each_distinct_token_once(self):
        batch, encoded = self._batch(small_model())
        listed = [
            (int(w), tuple(batch.token_buckets[lo:hi].tolist()))
            for w, lo, hi in zip(batch.token_words, batch.token_offs[:-1], batch.token_offs[1:])
        ]
        assert listed[0] == (PAD, ())
        assert len(set(listed)) == len(listed)
        seen = set()
        for di, doc in enumerate(encoded):
            for si, (ids, buckets) in enumerate(zip(doc.word_ids, doc.bucket_ids)):
                row = batch.tokens[batch.sent_rows[di, si]]
                assert [listed[i] for i in row[: len(ids)]] == list(zip(ids.tolist(), buckets))
                assert not row[len(ids) :].any()  # padding is entry 0
                seen.update(row[: len(ids)].tolist())
        assert seen == set(range(1, len(listed)))  # every entry but padding is used


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            HanConfig(variant="lstm")

    def test_window_larger_than_tmax(self):
        with pytest.raises(ConfigError):
            HanConfig(variant="cnn", cnn_windows=(2, 99), t_max=50)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            HanConfig(dropout=1.0)

    def test_from_dict_rejects_unknown_keys_by_name(self):
        with pytest.raises(ConfigError, match="bogus, extra"):
            HanConfig.from_dict({"variant": "none", "extra": 1, "bogus": 2})

    @pytest.mark.parametrize("windows", [(), (0, 2), (2, -1)])
    def test_windows_must_be_positive(self, windows):
        for variant in ("cnn", "none"):
            with pytest.raises(ConfigError, match="cnn_windows"):
                HanConfig(variant=variant, cnn_windows=windows)

    def test_windows_must_be_distinct(self):
        # two windows of one size would both read cnn.w2.kernel, while feature_dim counts both
        with pytest.raises(ConfigError, match=r"distinct integers >= 1, got \[2, 3, 2\]"):
            HanConfig(variant="cnn", cnn_windows=(2, 3, 2))

    @pytest.mark.parametrize("n_min, n_max", [(0, 3), (5, 3)])
    def test_ngram_range(self, n_min, n_max):
        with pytest.raises(ConfigError, match="embed_n_min"):
            HanConfig(embed_n_min=n_min, embed_n_max=n_max)

    def test_numpy_integer_is_config_error(self):
        # JSON cannot show it, so the message falls back to its repr
        with pytest.raises(ConfigError, match="model embed_dim must be an integer >= 1, got "):
            HanConfig(embed_dim=np.int64(8))

    def test_tiny_model_table_hashes_as_its_config_states(self):
        model = tiny_model("none")
        cfg = model.config
        assert (cfg.embed_n_min, cfg.embed_n_max, cfg.embed_buckets) == (3, 4, 17)
        assert model.params["embed.bucket"].shape == (cfg.embed_buckets, cfg.embed_dim)
        for token in ("alpha", "unseen"):
            grams = char_ngrams(token, cfg.embed_n_min, cfg.embed_n_max)
            assert model.table.bucket_ids([token]) == [tuple(fnv1a64(g.encode()) % cfg.embed_buckets for g in grams)]

    def test_feature_dims(self):
        assert HanConfig(variant="none", embed_dim=32).feature_dim == 32
        assert HanConfig(variant="cnn", cnn_windows=(2, 3), cnn_maps=8, embed_dim=32).feature_dim == 16
        assert HanConfig(variant="tcn", tcn_channels=24, embed_dim=32).feature_dim == 24


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = small_model("cnn", seed=3)
        path = tmp_path / "model.bin"
        model.save(path, extra={"note": 1})
        back = load_checkpoint(path)
        assert back.config == model.config
        assert back.vocab.index_to_token == model.vocab.index_to_token
        for name, t in model.params.items():
            assert back.params[name].data.tobytes() == t.data.tobytes(), name
        doc = toy_document(model)
        p1, _ = model.forward_document(doc)
        p2, _ = back.forward_document(doc)
        assert p1.tobytes() == p2.tobytes()

    @pytest.mark.parametrize("variant", ["cnn", "tcn", "none"])
    def test_scoring_models_hold_no_gradient(self, tmp_path, variant):
        model = small_model(variant, seed=3)
        assert all(p.grad is None for p in model.params.values())
        path = tmp_path / "model.bin"
        model.save(path)
        back = HanModel.load(path)
        back.score([toy_document(back)])
        assert all(p.grad is None for p in back.params.values())

    def test_two_saves_identical_bytes(self, tmp_path):
        model = small_model("tcn", seed=5)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestLoadDrawsNothing:
    """A checkpoint's tensors are read into fresh arrays that the model then holds."""

    @pytest.mark.parametrize("variant", ["cnn", "tcn", "none"])
    def test_load_draws_nothing_and_saves_back_identically(self, tmp_path, monkeypatch, variant):
        model = small_model(variant, seed=4)
        path, again = tmp_path / "a.bin", tmp_path / "b.bin"
        model.save(path, extra={"note": 1})
        with monkeypatch.context() as m:
            m.setattr(hm, "init_params", lambda *a, **k: pytest.fail("init_params ran during a load"))
            back = load_checkpoint(path)
        back.save(again, extra={"note": 1})
        assert again.read_bytes() == path.read_bytes()
        other = EmailDocument(label=0, sentences=[["beta", "unseen"]])
        docs = [toy_document(model), encode_document(other, model.vocab, model.table)]
        assert back.score(docs).tobytes() == model.score(docs).tobytes()

    def test_loaded_parameters_are_fresh_trainable_leaves(self, tmp_path):
        path = tmp_path / "a.bin"
        small_model("tcn", seed=2).save(path)
        for name, t in load_checkpoint(path).params.items():
            assert t.data.dtype == np.float64 and t.data.flags.c_contiguous, name
            assert t.data.flags.owndata and t.data.flags.writeable, name
            assert t.requires_grad and t.grad is None and t.name == name

    def test_given_arrays_are_held_without_a_copy(self):
        model = small_model("cnn", seed=1)
        arrays = {k: t.data.copy() for k, t in model.params.items()}
        back = HanModel(model.config, model.vocab, seed=1, arrays=arrays)
        assert all(back.params[k].data is a for k, a in arrays.items())

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.pop("head.b"), "arrays hold nothing where the config builds head.b [2]"),
            (lambda a: a.update({"extra": np.zeros(2)}), "arrays hold extra [2] where the config builds nothing"),
            (lambda a: a.pop("sent_attn.u"), "arrays hold head.w [6, 2] where the config builds sent_attn.u [6]"),
            (
                lambda a: a.update({"head.w": np.zeros((2, 6))}),
                "arrays hold head.w [2, 6] where the config builds head.w [6, 2]",
            ),
            (lambda a: a.update({"head.b": np.zeros(2, np.float32)}), "arrays head.b are not C-contiguous float64"),
            (lambda a: a.update({"head.b": [0.0, 0.0]}), "arrays head.b are not C-contiguous float64"),
            (lambda a: a.update({"head.w": np.zeros((2, 6)).T}), "arrays head.w are not C-contiguous float64"),
        ],
        ids=["missing", "extra", "missing_inside", "wrong_shape", "float32", "list", "fortran_order"],
    )
    def test_arrays_off_the_layout_are_refused(self, edit, message):
        model = small_model("none")
        arrays = {k: t.data.copy() for k, t in model.params.items()}
        edit(arrays)
        with pytest.raises(ValueError, match=re.escape(message)):
            HanModel(model.config, model.vocab, arrays=arrays)

    @pytest.mark.parametrize("size_check_passes", [False, True], ids=["file_cut", "file_shrinks_while_read"])
    def test_payload_cut_inside_a_tensor_builds_no_model(self, tmp_path, monkeypatch, size_check_passes):
        model = small_model("cnn", seed=3)
        path = tmp_path / "a.bin"
        model.save(path)
        raw = path.read_bytes()
        head_w, head_b = (model.params[k].data.nbytes for k in ("head.w", "head.b"))
        declared = sum(t.data.nbytes for t in model.params.values())
        path.write_bytes(raw[: len(raw) - head_w - head_b + 8])  # 8 bytes into head.w, the last tensor but one
        built = []
        monkeypatch.setattr(HanModel, "__init__", lambda self, *a, **k: built.append(a))
        if size_check_passes:  # fstat reports the whole file, so the cut shows only as a short read
            message = f"head.w has 8 of {head_w} bytes"
            monkeypatch.setattr(hm.os, "fstat", lambda fd: SimpleNamespace(st_size=len(raw)))
        else:
            message = f"payload has {declared - head_w - head_b + 8} of {declared} bytes"
        with pytest.raises(CheckpointError, match=f"truncated: {message}"):
            load_checkpoint(path)
        monkeypatch.undo()
        assert built == []
