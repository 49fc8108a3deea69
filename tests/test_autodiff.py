import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hanspam import autodiff as ad
from hanspam.autodiff import (
    EmptyAttentionError,
    ParameterError,
    ShapeError,
    Tape,
    Tensor,
)
from hanspam.gradcheck import check_scalar_fn, finite_difference, relative_error


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(eye, m).data, m.data)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_of_sum_matches_finite_differences(self):
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.eye(2), requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.matmul(a, b))
        tape.backward(loss)
        assert np.allclose(a.grad, [[1.0, 1.0], [1.0, 1.0]])
        fd = finite_difference(lambda: ad.tsum(ad.matmul(a, b)).item(), a)
        assert relative_error(a.grad, fd) < 1e-4

    @pytest.mark.parametrize("rows_per_call", [1, 3, 2**13])
    def test_row_blocks_match_one_product(self, rows_per_call, monkeypatch):
        # a one-row block goes through a different BLAS kernel, so only the
        # last bits may differ from one product
        monkeypatch.setattr(ad, "_MATMUL_ROWS", rows_per_call)
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (7, 4))
        for b in (rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, 4)):
            out = ad.matmul(Tensor(a), Tensor(b)).data
            assert out.shape == (a @ b).shape
            assert np.max(np.abs(out - a @ b)) < 1e-14
        assert ad.matmul(Tensor(np.zeros((0, 4))), Tensor(np.ones((4, 2)))).shape == (0, 2)


class TestMaskedSoftmax:
    """``ad.softmax`` over scores masked out by -inf entries."""

    def test_symmetric_scores_uniform(self):
        out = ad.softmax(Tensor([2.5, 2.5, 2.5]))
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_single_valid_position(self):
        out = ad.softmax(Tensor([-np.inf, -4.0, -np.inf]))
        assert np.array_equal(out.data, [0.0, 1.0, 0.0])

    def test_log2_scores(self):
        out = ad.softmax(Tensor([0.0, np.log(2.0)]))
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_all_false_mask_raises(self):
        with pytest.raises(EmptyAttentionError):
            ad.softmax(Tensor([-np.inf, -np.inf]))
        # one row with no finite score is enough
        with pytest.raises(EmptyAttentionError):
            ad.softmax(Tensor([[1.0, -np.inf], [-np.inf, -np.inf]]))

    @given(
        scores=st.lists(st.floats(-30, 30), min_size=1, max_size=12),
        shift=st.floats(-10, 10),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, scores, shift, data):
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(scores), max_size=len(scores))
        )
        if not any(mask):
            mask[0] = True
        bias = np.where(mask, 0.0, -np.inf)
        base = ad.softmax(Tensor(np.array(scores) + bias)).data
        assert abs(base.sum() - 1.0) < 1e-12
        shifted = ad.softmax(
            Tensor([s + shift if m else s for s, m in zip(scores, mask)] + bias)
        ).data
        assert np.max(np.abs(base - shifted)) < 1e-12
        assert all(b == 0.0 for b, m in zip(base, mask) if not m)


class TestDilatedConv:
    def test_hand_example(self):
        out = ad.dilated_conv1d(Tensor([1.0, 2.0, 3.0, 4.0, 5.0]), Tensor([1.0, 1.0]), d=2)
        assert np.array_equal(out.data, [4.0, 6.0, 8.0])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_identity_kernel(self, d):
        x = np.linspace(-1, 1, 9)
        out = ad.dilated_conv1d(Tensor(x), Tensor([1.0]), d=d)
        assert np.array_equal(out.data, x)

    def test_d1_equals_regular_convolution_exhaustive(self):
        rng = np.random.default_rng(7)
        for k in range(1, 6):
            for n in range(k, 33):
                x = rng.uniform(-1, 1, n)
                f = rng.uniform(-1, 1, k)
                ours = ad.dilated_conv1d(Tensor(x), Tensor(f), d=1).data
                oracle = np.convolve(x, f, mode="valid")
                assert np.max(np.abs(ours - oracle)) < 1e-12

    def test_same_mode_length_and_prefix_zero_padding(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = ad.dilated_conv1d(Tensor(x), Tensor([1.0, 10.0]), d=1, mode="same").data
        assert out.shape == x.shape
        assert np.array_equal(out, [1.0, 12.0, 23.0, 34.0])

    def test_parameter_errors(self):
        x, f = Tensor([1.0, 2.0, 3.0]), Tensor([1.0, 1.0])
        with pytest.raises(ParameterError):
            ad.dilated_conv1d(x, f, d=0)
        with pytest.raises(ShapeError):
            ad.dilated_conv1d(Tensor([1.0]), f, d=2)

    def test_receptive_field_of_doubling_stack(self):
        # L same-mode causal layers, k=2, dilation 2**level: position t of the
        # output must depend exactly on inputs (t - 2**L, t], per a brute-force
        # dependency-graph oracle, and never on inputs after t.
        levels, n = 3, 20
        rng = np.random.default_rng(3)
        kernels = [rng.uniform(0.5, 1.5, 2) for _ in range(levels)]

        def run(x):
            cur = Tensor(x)
            for lvl in range(levels):
                cur = ad.dilated_conv1d(cur, Tensor(kernels[lvl]), d=2**lvl, mode="same")
            return cur.data

        deps = [{s} for s in range(n)]
        for lvl in range(levels):
            d = 2**lvl
            deps = [
                set().union(*(deps[s - d * i] for i in range(2) if s - d * i >= 0))
                for s in range(n)
            ]
        base = run(np.ones(n))
        for t in range(n):
            x = np.ones(n)
            x[t] += 1.0
            changed = {s for s in range(n) if run(x)[s] != base[s]}
            oracle = {s for s in range(n) if t in deps[s]}
            assert changed == oracle
            assert all(s >= t for s in changed)
            assert max(s - t for s in changed) <= 2**levels - 1

    @pytest.mark.parametrize("one_position_blocks", [False, True])
    @pytest.mark.parametrize("mode", ["valid", "same", "centred"])
    def test_time_major_channels_match_brute_force(self, mode, one_position_blocks, monkeypatch):
        # out[s] = sum_i x[s - d*i] @ f[i] over x padded with `left` zeros before
        # and enough after; rows > 1, cin != cout, spans longer than the input
        if one_position_blocks:
            monkeypatch.setattr(ad, "_TEMP_ELEMS", 1)
        rng = np.random.default_rng(21)
        for n, k, d in ((7, 3, 2), (6, 2, 1), (3, 4, 1), (2, 3, 2), (5, 1, 3)):
            span = (k - 1) * d
            if mode == "valid" and n <= span:
                continue
            x, f = rng.uniform(-1, 1, (n, 2, 3)), rng.uniform(-1, 1, (k, 3, 4))
            left = {"valid": 0, "same": span, "centred": span // 2}[mode]
            length = n - span if mode == "valid" else n
            padded = np.concatenate([np.zeros((left, 2, 3)), x, np.zeros((span, 2, 3))])
            oracle = np.array([
                sum(padded[s + span - d * i] @ f[i] for i in range(k)) for s in range(length)
            ])
            out = ad.dilated_conv1d(Tensor(x), Tensor(f), d=d, mode=mode).data
            assert out.shape == (length, 2, 4)
            assert np.max(np.abs(out - oracle)) < 1e-12
            xt, ft = Tensor(x, requires_grad=True), Tensor(f, requires_grad=True)
            weight = rng.uniform(-1, 1, out.shape)
            build = lambda: ad.tsum(ad.mul(ad.dilated_conv1d(xt, ft, d=d, mode=mode), weight))
            assert check_scalar_fn(build, [xt, ft]) < 1e-6

    def test_centred_mode_pads_both_sides(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        # k=3: out[s] = 1*x[s+1] + 10*x[s] + 100*x[s-1]
        out = ad.dilated_conv1d(Tensor(x), Tensor([1.0, 10.0, 100.0]), mode="centred").data
        assert np.array_equal(out, [12.0, 123.0, 234.0, 340.0])

    def test_channel_mismatch_and_unknown_mode(self):
        with pytest.raises(ShapeError):
            ad.dilated_conv1d(Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros((2, 2, 5))))
        with pytest.raises(ParameterError):
            ad.dilated_conv1d(Tensor([1.0, 2.0]), Tensor([1.0]), mode="full")


class TestStack:
    def test_stack_and_unstack_round_trip(self):
        parts = [Tensor(np.full((2, 3), float(i)), requires_grad=True) for i in range(4)]
        weight = np.arange(24.0).reshape(4, 2, 3)
        with Tape() as tape:
            stacked = ad.stack(parts)
            back = [ad.take_rows(stacked, t) for t in range(stacked.shape[0])]
            loss = ad.tsum(ad.mul(ad.stack(back[::-1]), weight[::-1]))
        tape.backward(loss)
        assert stacked.shape == (4, 2, 3)
        assert all(np.array_equal(b.data, p.data) for b, p in zip(back, parts))
        for i, p in enumerate(parts):
            assert np.array_equal(p.grad, weight[i])

    def test_stack_on_a_later_axis(self):
        out = ad.stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])], axis=1)
        assert np.array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.mul(x, x))
        tape.backward(loss)
        assert np.allclose(x.grad, [2.0, -4.0, 6.0])

    def test_tanh_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        with Tape() as tape:
            loss = ad.tanh(x)
        tape.backward(loss)
        assert x.grad == pytest.approx(1.0)

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.mul(x, x))
        tape.backward(loss)
        tape.backward(loss)
        assert np.allclose(x.grad, [8.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)

        def build():
            h = ad.tanh(ad.matmul(x, w))
            s = ad.sigmoid(ad.tsum(h, axis=1))
            return ad.tsum(ad.mul(s, s))

        assert check_scalar_fn(build, [x, w]) < 1e-4

    def test_tape_entries_topologically_ordered(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            a = ad.tanh(x)
            b = ad.mul(a, x)
            c = ad.tsum(ad.add(a, b))
        del c
        produced = {id(x)}
        for entry in tape.entries:
            assert all(id(t) in produced or not t.requires_grad for t in entry.inputs)
            produced.add(id(entry.output))


class TestElementwise:
    def test_dropout_p0_is_identity(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert ad.dropout(x, 0.0, training=True) is x

    def test_dropout_eval_mode_identity(self):
        x = Tensor([1.0, 2.0])
        assert ad.dropout(x, 0.9, training=False) is x

    def test_dropout_seed_step_determinism(self):
        x = Tensor(np.ones(1000))
        a = ad.dropout(x, 0.5, seed=3, step=7, salt=1, training=True).data
        b = ad.dropout(x, 0.5, seed=3, step=7, salt=1, training=True).data
        c = ad.dropout(x, 0.5, seed=3, step=8, salt=1, training=True).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        survivors = a[a != 0]
        assert np.allclose(survivors, 2.0)  # scaled by 1/(1-p)

    def test_dropout_rate_out_of_range(self):
        with pytest.raises(ParameterError):
            ad.dropout(Tensor([1.0]), 1.0, training=True)
        with pytest.raises(ParameterError):
            ad.dropout(Tensor([1.0]), -0.1, training=True)

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == pytest.approx(0.5)

    def test_sigmoid_extremes_finite(self):
        out = ad.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-300)
        assert out[1] == pytest.approx(1.0)

    def test_concat(self):
        out = ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_mean(self):
        assert ad.tmean(Tensor([[1.0, 3.0], [5.0, 7.0]])).item() == pytest.approx(4.0)

    def test_sparse_rows_accumulate_through_take_rows(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        with Tape() as tape:
            rows = ad.take_rows(table, [1, 1, 3])
            loss = ad.tsum(rows)
        tape.backward(loss)
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.array_equal(table.grad, expected)

        # a table reached sparsely by many lookups and densely by one product;
        # integer values keep every sum exact in any order
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        weight = np.array([[1.0, -2.0, 3.0]])
        lookups = [[0, 2, 2], [3], [2, 0, 1, 2]] * 5
        with Tape() as tape:
            loss = ad.tsum(ad.mul(table, table))
            for idx in lookups:
                loss = ad.add(loss, ad.tsum(ad.mul(ad.take_rows(table, idx), weight)))
        tape.backward(loss)
        expected = 2.0 * table.data
        for idx in lookups:
            for r in idx:
                expected[r] += weight[0]
        assert np.array_equal(table.grad, expected)

    def test_take_rows_with_a_2d_index(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        idx = np.array([[1, 3], [1, 0], [3, 3]])
        with Tape() as tape:
            rows = ad.take_rows(table, idx.T)  # a transposed view, as the model passes
            loss = ad.tsum(rows)
        tape.backward(loss)
        assert np.array_equal(rows.data, table.data[idx.T])
        assert np.array_equal(table.grad, np.repeat([[1.0], [2.0], [0.0], [3.0]], 3, axis=1))


class TestEmbeddingLookup:
    @staticmethod
    def per_token_loop(words, buckets, ids, weight, bidx, offs, g):
        """Values and both table gradients, one token and one bucket row at a time."""
        out = np.zeros((ids.size, words.shape[1]))
        gw, gb = np.zeros_like(words), np.zeros_like(buckets)
        for i in range(ids.size):
            rows = bidx[offs[i] : offs[i + 1]]
            out[i] = weight[i] * words[ids[i]]
            if weight[i] > 0:
                gw[ids[i]] += g[i] * weight[i]
            for r in rows:
                out[i] = out[i] + buckets[r] * (1.0 / rows.size)
                gb[r] += g[i] * (1.0 / rows.size)
        return out, gw, gb

    def test_matches_per_token_loop(self):
        rng = np.random.default_rng(8)
        n, dim = 11, 5
        words, buckets = rng.uniform(-1, 1, (9, dim)), rng.uniform(-1, 1, (13, dim))
        ids, weight = rng.integers(0, 9, n), (rng.random(n) < 0.7).astype(float)
        counts = rng.integers(0, 7, n)
        counts[:3] = 0, 1, 23  # padding, one bucket, more buckets than any other token
        weight[0] = 0.0  # padding: no buckets, zero weight
        offs = np.r_[0, np.cumsum(counts)]
        bidx = rng.integers(0, 13, offs[-1])
        g = rng.uniform(-1, 1, (n, dim))
        w, b = Tensor(words, requires_grad=True), Tensor(buckets, requires_grad=True)
        with Tape() as tape:
            out = ad.embedding_lookup(w, b, ids, weight, bidx, offs)
            loss = ad.tsum(ad.mul(out, g))
        tape.backward(loss)
        want = self.per_token_loop(words, buckets, ids, weight, bidx, offs, g)
        for got, ref in zip((out.data, w.grad, b.grad), want, strict=True):
            assert np.array_equal(got, ref)
        assert np.all(out.data[0] == 0.0)

    @staticmethod
    def _tokens(rng, n, dim):
        words = rng.uniform(-1, 1, (9, dim))
        buckets = rng.uniform(-1, 1, (13, dim))
        counts = rng.integers(0, 7, n)
        counts[0] = 0  # padding: no buckets, zero weight
        ids, weight = rng.integers(0, 9, n), (rng.random(n) < 0.7).astype(float)
        weight[0] = 0.0
        return words, buckets, ids, weight, rng.integers(0, 13, counts.sum()), np.r_[0, np.cumsum(counts)]

    @pytest.mark.parametrize("budget", ["one element", "three rows", "default"])
    def test_blocks_match_one_block(self, budget, monkeypatch):
        # the temporary-size budget shared with dilated_conv1d must not change
        # the composed vectors or either table's gradient
        rng = np.random.default_rng(8)
        dim = 5
        words, buckets, *lists = self._tokens(rng, 11, dim)
        seen = weights = None
        for elems in (2**40, {"one element": 1, "three rows": 3 * dim, "default": ad._TEMP_ELEMS}[budget]):
            monkeypatch.setattr(ad, "_TEMP_ELEMS", elems)
            w, b = Tensor(words, requires_grad=True), Tensor(buckets, requires_grad=True)
            with Tape() as tape:
                out = ad.embedding_lookup(w, b, *lists)
                weights = rng.uniform(-1, 1, out.shape) if weights is None else weights
                loss = ad.tsum(ad.mul(out, weights))
            tape.backward(loss)
            if seen is None:
                seen = (out.data, w.grad, b.grad)
                assert np.all(out.data[0] == 0.0)
            else:
                for got, want in zip((out.data, w.grad, b.grad), seen):
                    assert np.array_equal(got, want)

    def test_rejects_time_major_ids(self):
        words, buckets = Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError, match="embedding_lookup"):
            ad.embedding_lookup(words, buckets, [[0, 1], [2, 1]], [[1.0] * 2] * 2, [0, 1], [0, 0, 1, 1, 2])
