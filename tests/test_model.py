import numpy as np
import pytest

from hanspam import autodiff as ad
from hanspam.autodiff import Tensor
from hanspam.gradcheck import check_scalar_fn, tiny_model, toy_document
from hanspam.ingest import EmailDocument
from hanspam.model import (
    Batch,
    ConfigError,
    GruParams,
    HanConfig,
    HanModel,
    attention_pool,
    bigru_encode,
    collate,
    conv_feature_stack,
    load_checkpoint,
    tcn_stack,
)
from hanspam.training import cross_entropy
from hanspam.vocab import PAD, encode_document


def zero_gates(in_dim, hidden):
    z = lambda *s: Tensor(np.zeros(s))
    return GruParams(
        w_z=z(in_dim, hidden), u_z=z(hidden, hidden), b_z=z(hidden),
        w_r=z(in_dim, hidden), u_r=z(hidden, hidden), b_r=z(hidden),
        w_h=z(in_dim, hidden), u_h=z(hidden, hidden), b_h=z(hidden),
    )


def random_gates(rng, in_dim, hidden, scale=0.6):
    r = lambda *s: Tensor(rng.uniform(-scale, scale, s))
    return GruParams(
        w_z=r(in_dim, hidden), u_z=r(hidden, hidden), b_z=r(hidden),
        w_r=r(in_dim, hidden), u_r=r(hidden, hidden), b_r=r(hidden),
        w_h=r(in_dim, hidden), u_h=r(hidden, hidden), b_h=r(hidden),
    )


def unstack(x):
    """Slices of ``x`` along axis 0, each read back by a scalar ``take_rows`` index."""
    return [ad.take_rows(x, t) for t in range(x.shape[0])]


def reference_gru_cell(x, h_prev, gates):
    """One GRU step on ``[rows, in]``, as the per-step model computed it (biases added last)."""
    z = ad.sigmoid(x @ gates.w_z + h_prev @ gates.u_z + gates.b_z)
    r = ad.sigmoid(x @ gates.w_r + h_prev @ gates.u_r + gates.b_r)
    h_cand = ad.tanh(x @ gates.w_h + ad.mul(r, h_prev) @ gates.u_h + gates.b_h)
    return ad.add(ad.mul(1.0 - z, h_prev), ad.mul(z, h_cand))


class TestGruCell:
    """One GRU step's arithmetic, seen through ``bigru_encode``."""

    def test_zero_params_halve_state(self):
        # zero gates give z = r = sigmoid(0) = 0.5, and with b_h = c the
        # candidate is tanh c, so each step halves the state and adds
        # 0.5 tanh c: 0 -> 0.5 tanh c -> 0.75 tanh c
        c = np.array([0.4, -1.2, 2.0])
        gates = zero_gates(2, 3)
        gates.b_h = Tensor(c)
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 4, 2)))
        ann = bigru_encode(x, None, gates, gates).data
        fwd, bwd = ann[..., :3], ann[..., 3:]
        for first, second in ((fwd[0], fwd[1]), (bwd[1], bwd[0])):
            assert np.allclose(first, 0.5 * np.tanh(c), atol=1e-15)
            assert np.allclose(second, 0.75 * np.tanh(c), atol=1e-15)

    def test_zero_state_zero_params(self):
        gates = zero_gates(4, 3)
        out = bigru_encode(Tensor(np.ones((3, 2, 4))), None, gates, gates)
        assert np.array_equal(out.data, np.zeros((3, 2, 6)))

    def test_shape_mismatch(self):
        gates = zero_gates(2, 3)
        for x in (np.ones((1, 1, 5)), np.ones((1, 2)), np.ones((0, 1, 2))):
            with pytest.raises(ad.ShapeError):
                bigru_encode(Tensor(x), None, gates, gates)
        with pytest.raises(ad.ShapeError):
            bigru_encode(Tensor(np.ones((1, 1, 2))), None, gates, zero_gates(5, 3))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (3, 2, 3)), requires_grad=True)
        fw, bw = random_gates(rng, 3, 4), random_gates(rng, 3, 4)
        gates = list(vars(fw).values()) + list(vars(bw).values())
        for t in gates:
            t.requires_grad = True
            t.zero_grad()
        mask = np.array([[True, True, False], [True, True, True]])
        err = check_scalar_fn(lambda: ad.tsum(bigru_encode(x, mask, fw, bw)), [x] + gates)
        assert err < 1e-4


class TestBigru:
    def test_single_step(self):
        rng = np.random.default_rng(1)
        fw, bw = random_gates(rng, 3, 2), random_gates(rng, 3, 2)
        x = Tensor(rng.uniform(-1, 1, (1, 1, 3)))
        ann = bigru_encode(x, None, fw, bw)
        assert ann.shape == (1, 1, 4)
        zero, step = Tensor(np.zeros((1, 2))), Tensor(x.data[0])
        expected = np.concatenate(
            [reference_gru_cell(step, zero, fw).data, reference_gru_cell(step, zero, bw).data], axis=1
        )
        assert np.allclose(ann.data[0], expected)

    def test_palindrome_with_shared_params_reverses_with_swapped_halves(self):
        rng = np.random.default_rng(2)
        shared = random_gates(rng, 3, 4)
        steps = [rng.uniform(-1, 1, (1, 3)) for _ in range(3)]
        x = Tensor(np.stack(steps + steps[-2::-1]))  # palindrome, length 5
        ann = bigru_encode(x, None, shared, shared).data
        t_total = x.shape[0]
        for t in range(t_total):
            mirrored = ann[t_total - 1 - t]
            swapped = np.concatenate([mirrored[:, 4:], mirrored[:, :4]], axis=1)
            assert np.allclose(ann[t], swapped, atol=1e-12)

    def test_masked_positions_hold_state(self):
        rng = np.random.default_rng(3)
        fw, bw = random_gates(rng, 2, 3), random_gates(rng, 2, 3)
        x = Tensor(rng.uniform(-1, 1, (4, 1, 2)))
        mask = np.array([[True, True, False, False]])
        ann = bigru_encode(x, mask, fw, bw).data
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
        fw = random_gates(rng, 3, 2)
        x = Tensor(rng.uniform(-1, 1, (4, 2, 3)))
        w, b, u = Tensor(np.eye(3)), Tensor(np.zeros(3)), Tensor(np.ones(3))
        with pytest.raises(ad.ShapeError, match=r"bigru_encode expects a mask\[rows, steps\] = \[2, 4\]"):
            bigru_encode(x, np.ones(shape, dtype=bool), fw, fw)
        with pytest.raises(ad.ShapeError, match=r"attention_pool expects a mask\[rows, steps\] = \[2, 4\]"):
            attention_pool(x, np.ones(shape, dtype=bool), w, b, u)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(4)
        fw = random_gates(rng, 2, 3)
        with pytest.raises(ad.ShapeError):
            bigru_encode(Tensor(np.zeros((0, 1, 2))), None, fw, fw)

    def test_gradcheck_through_bigru(self):
        from hanspam.gradcheck import check_bigru

        assert check_bigru() < 1e-4


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
            "cnn.w1.tap0": Tensor(np.array([[1.0], [0.0], [0.0]])),
            "cnn.w1.bias": Tensor(np.zeros(1)),
        }
        feats = unstack(conv_feature_stack(ad.stack(seq), params, (1,)))
        for t in range(4):
            assert np.allclose(feats[t].data[:, 0], seq[t].data[:, 0])

    def test_zero_filters_zero_features(self):
        seq = [Tensor(np.random.default_rng(10).uniform(-1, 1, (2, 3))) for _ in range(3)]
        params = {
            "cnn.w2.tap0": Tensor(np.zeros((3, 2))),
            "cnn.w2.tap1": Tensor(np.zeros((3, 2))),
            "cnn.w2.bias": Tensor(np.zeros(2)),
        }
        feats = unstack(conv_feature_stack(ad.stack(seq), params, (2,)))
        assert all(np.array_equal(f.data, np.zeros((2, 2))) for f in feats)

    def test_channel_concat_across_windows(self):
        rng = np.random.default_rng(11)
        seq = [Tensor(rng.uniform(-1, 1, (1, 2))) for _ in range(3)]
        params = {}
        for w in (1, 2):
            for i in range(w):
                params[f"cnn.w{w}.tap{i}"] = Tensor(rng.uniform(-1, 1, (2, 3)))
            params[f"cnn.w{w}.bias"] = Tensor(np.zeros(3))
        feats = unstack(conv_feature_stack(ad.stack(seq), params, (1, 2)))
        assert feats[0].shape == (1, 6)

    def test_tcn_identity_block_is_relu_plus_input(self):
        rng = np.random.default_rng(12)
        seq = [Tensor(rng.uniform(-1, 1, (2, 3))) for _ in range(4)]
        params = {
            "tcn.block0.tap0": Tensor(np.eye(3)),
            "tcn.block0.bias": Tensor(np.zeros(3)),
        }
        out = unstack(tcn_stack(ad.stack(seq), params, levels=1, kernel=1))
        for t in range(4):
            expected = np.maximum(seq[t].data, 0.0) + seq[t].data
            assert np.allclose(out[t].data, expected)

    def test_tcn_zero_conv_passes_residual(self):
        rng = np.random.default_rng(13)
        seq = [Tensor(rng.uniform(-1, 1, (2, 3))) for _ in range(4)]
        params = {
            "tcn.block0.tap0": Tensor(np.zeros((3, 3))),
            "tcn.block0.tap1": Tensor(np.zeros((3, 3))),
            "tcn.block0.bias": Tensor(np.zeros(3)),
        }
        out = unstack(tcn_stack(ad.stack(seq), params, levels=1, kernel=2))
        for t in range(4):
            assert np.allclose(out[t].data, seq[t].data)

    def test_tcn_causality_under_perturbation(self):
        rng = np.random.default_rng(14)
        levels, kernel, channels = 2, 2, 3
        params = {}
        for lvl in range(levels):
            cin = 3 if lvl == 0 else channels
            for i in range(kernel):
                params[f"tcn.block{lvl}.tap{i}"] = Tensor(rng.uniform(-1, 1, (cin, channels)))
            params[f"tcn.block{lvl}.bias"] = Tensor(rng.uniform(-1, 1, channels))
        base_steps = [rng.uniform(-1, 1, (1, 3)) for _ in range(7)]
        base_out = [
            o.data.copy() for o in unstack(tcn_stack(Tensor(np.stack(base_steps)), params, levels, kernel))
        ]
        for t in range(7):
            bumped = [s.copy() for s in base_steps]
            bumped[t] = bumped[t] + 0.37
            out = unstack(tcn_stack(Tensor(np.stack(bumped)), params, levels, kernel))
            for s in range(7):
                if s < t:
                    assert np.array_equal(out[s].data, base_out[s])


def per_step_cnn(seq, params, windows):
    """Reference CNN stack: one matmul per tap, step and window."""
    per_window = []
    for w in windows:
        left = (w - 1) // 2
        outs = []
        for t in range(len(seq)):
            acc = params[f"cnn.w{w}.bias"]
            for i in range(w):
                if 0 <= t - left + i < len(seq):
                    acc = ad.add(acc, seq[t - left + i] @ params[f"cnn.w{w}.tap{i}"])
            outs.append(ad.relu(acc))
        per_window.append(outs)
    return [ad.concat([outs[t] for outs in per_window], axis=1) for t in range(len(seq))]


def per_step_tcn(seq, params, levels, kernel):
    """Reference TCN stack: causal taps per step, dilation 2**level, residual."""
    for lvl in range(levels):
        proj = params.get(f"tcn.block{lvl}.proj")
        nxt = []
        for t in range(len(seq)):
            acc = params[f"tcn.block{lvl}.bias"]
            for i in range(kernel):
                if t - 2**lvl * i >= 0:
                    acc = ad.add(acc, seq[t - 2**lvl * i] @ params[f"tcn.block{lvl}.tap{i}"])
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
        results.append(([o.data.copy() for o in outs], [t.grad.copy() for t in leaves]))
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
            for i in range(w):
                params[f"cnn.w{w}.tap{i}"] = Tensor(rng.uniform(-1, 1, (dim, maps)), requires_grad=True)
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
            for i in range(kernel):
                params[f"tcn.block{lvl}.tap{i}"] = leaf(cin, channels)
            params[f"tcn.block{lvl}.bias"] = leaf(channels)
            if cin != channels:
                params[f"tcn.block{lvl}.proj"] = leaf(cin, channels)
        assert_matches_reference(
            lambda: tcn_stack(x, params, levels, kernel),
            lambda: ad.stack(per_step_tcn(unstack(x), params, levels, kernel)),
            [x] + list(params.values()),
        )

    def test_window_longer_than_sentence(self):
        # every case above draws windows up to 6 over 1-5 steps; pin one explicitly
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 3)), requires_grad=True)
        params = {f"cnn.w5.tap{i}": Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True) for i in range(5)}
        params["cnn.w5.bias"] = Tensor(np.zeros(2), requires_grad=True)
        assert_matches_reference(
            lambda: conv_feature_stack(x, params, (5,)),
            lambda: ad.stack(per_step_cnn(unstack(x), params, (5,))),
            [x] + list(params.values()),
        )


def per_step_bigru(seq, mask, fw, bw):
    """Reference BiGRU over a list of ``[rows, in]`` steps: one cell per step and direction."""
    rows, hidden = seq[0].shape[0], fw.u_z.shape[0]

    def run(gates, order):
        h, states = Tensor(np.zeros((rows, hidden))), [None] * len(seq)
        for t in order:
            new = reference_gru_cell(seq[t], h, gates)
            if mask is not None:
                keep = mask[:, t : t + 1].astype(np.float64)
                new = ad.add(ad.mul(new, keep), ad.mul(h, 1.0 - keep))
            h = states[t] = new
        return states

    fwd, bwd = run(fw, range(len(seq))), run(bw, reversed(range(len(seq))))
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


class TestSequenceOpsMatchPerStepReference:
    """Whole-sequence BiGRU and attention against per-step loops, values and gradients."""

    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_bigru(self, steps, seed):
        rng = np.random.default_rng(300 + 10 * steps + seed)
        rows, in_dim, hidden = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = Tensor(rng.uniform(-1, 1, (steps, rows, in_dim)), requires_grad=True)
        fw, bw = random_gates(rng, in_dim, hidden), random_gates(rng, in_dim, hidden)
        gates = list(vars(fw).values()) + list(vars(bw).values())
        for t in gates:
            t.requires_grad = True
        padded = _random_mask(rng, rows, steps)
        if rows > 1:
            padded[0] = False  # a row of padding only keeps the zero state
        for mask in (None, padded):
            assert_matches_reference(
                lambda: bigru_encode(x, mask, fw, bw),
                lambda: ad.stack(per_step_bigru(unstack(x), mask, fw, bw)),
                [x] + gates,
            )

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

        def recording(x, mask, forward, backward):
            rows.append(x.shape[1])
            return bigru_encode(x, mask, forward, backward)

        monkeypatch.setattr(hm, "bigru_encode", recording)
        model = small_model("cnn")
        docs = [
            EmailDocument(label=1, sentences=[["alpha", "beta"], ["gamma"]]),
            EmailDocument(label=0, sentences=[["delta"], ["alpha"], ["beta", "gamma"], ["unseen"]]),
        ]
        encoded = [encode_document(d, model.vocab, model.table) for d in docs]
        model.forward_batch(collate(encoded))
        assert rows == [6, 2]  # word level: 2 + 4 sentences; sentence level: 2 documents

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
            word_weight=[doc.word_weight[0], np.zeros(0)],
            bucket_ids=[doc.bucket_ids[0], []],
            doc_id="msg-4",
        )
        with pytest.raises(ValueError, match="'msg-4' has no tokens in sentence 1"):
            collate([doc, hollow])

    def test_empty_document_error_carries_id(self):
        model = small_model()
        from hanspam.vocab import EncodedDocument

        empty = EncodedDocument(label=0, word_ids=[], word_weight=[], bucket_ids=[], doc_id="msg-9")
        with pytest.raises(ValueError, match="msg-9"):
            model.forward_document(empty)

    def test_variant_none_shares_encoder_paths(self):
        # with the conv stack disabled the word encoder consumes embeddings
        # directly; forcing identical parameters must reproduce the same
        # output as a cnn model whose stack is an identity on channel space
        model = small_model("none")
        assert model.config.feature_dim == model.config.embed_dim


class TestTapeEntriesDoNotGrowWithLength:
    """Attention and the sentence regroup record the same entries at any length."""

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
        # a mask is one additive bias per GRU direction and one per attention
        # call, whatever the length
        rng = np.random.default_rng(16)
        x = Tensor(rng.uniform(-1, 1, (steps, 3, 4)), requires_grad=True)
        fw, bw = random_gates(rng, 4, 2), random_gates(rng, 4, 2)
        w, b, u = Tensor(np.eye(4)), Tensor(np.zeros(4)), Tensor(np.ones(4))
        mask = np.ones((3, steps), dtype=bool)
        mask[1, 1:] = False
        ops = {"gru": lambda m: bigru_encode(x, m, fw, bw), "attn": lambda m: attention_pool(x, m, w, b, u)}

        def entries(op, m):
            with ad.Tape() as tape:
                op(m)
            return len(tape)

        added = {name: entries(op, mask) - entries(op, None) for name, op in ops.items()}
        assert added == {"gru": 2, "attn": 1}

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


class TestBackward:
    def test_grad_only_on_leaves(self):
        model = small_model("cnn")
        batch = collate([toy_document(model)])
        for _, p in model.trainable():
            p.grad = None
        with ad.Tape() as tape:
            probs, _, _ = model.forward_batch(batch, training=False)
            loss = cross_entropy(probs, batch.labels)
        tape.backward(loss)
        assert len(tape) > 0
        assert all(entry.output.grad is None for entry in tape.entries)
        for name, p in model.trainable():
            assert p.grad is not None and p.grad.shape == p.shape, name
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
        assert x.shape == (batch.n_tokens, batch.tok_mask.shape[0], model.config.embed_dim)
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
        assert np.array_equal(word.grad, np.repeat(word_uses[:, None], word.shape[1], axis=1))
        assert np.allclose(bucket.grad, bucket_uses[:, None], rtol=0, atol=1e-14)

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

    @pytest.mark.parametrize("n_min, n_max", [(0, 3), (5, 3)])
    def test_ngram_range(self, n_min, n_max):
        with pytest.raises(ConfigError, match="embed_n_min"):
            HanConfig(embed_n_min=n_min, embed_n_max=n_max)

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
