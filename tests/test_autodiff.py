from dataclasses import replace

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
from hanspam.gradcheck import check_scalar_fn, finite_difference, relative_error, tiny_model, toy_document
from hanspam.model import HanModel, collate


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
        assert ad.matmul(Tensor(np.zeros((0, 4))), Tensor(np.ones((4, 2)))).shape == (0, 2)

    def test_gradient_of_sum_matches_finite_differences(self):
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.eye(2), requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.matmul(a, b))
        tape.backward(loss)
        assert np.allclose(a.grad, [[1.0, 1.0], [1.0, 1.0]])
        fd = finite_difference(lambda: ad.tsum(ad.matmul(a, b)).item(), a)
        assert relative_error(a.grad, fd) < 1e-4


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

    @pytest.mark.parametrize("all_live_mask", [False, True])
    @pytest.mark.parametrize("mode", ["valid", "same", "centred"])
    def test_time_major_channels_match_brute_force(self, mode, all_live_mask):
        # out[s] = sum_i x[s - d*i] @ f[i] over x padded with `left` zeros before
        # and enough after; rows > 1, cin != cout, spans longer than the input;
        # a mask with every position live must change nothing
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
            mask = np.ones((2, n), dtype=bool) if all_live_mask else None
            out = ad.dilated_conv1d(Tensor(x), Tensor(f), d=d, mode=mode, mask=mask).data
            assert out.shape == (length, 2, 4)
            assert np.max(np.abs(out - oracle)) < 1e-12
            xt, ft = Tensor(x, requires_grad=True), Tensor(f, requires_grad=True)
            weight = rng.uniform(-1, 1, out.shape)
            build = lambda: ad.tsum(ad.mul(ad.dilated_conv1d(xt, ft, d=d, mode=mode, mask=mask), weight))
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

    @staticmethod
    def _mask(rng, rows, n, full_and_empty_rows=False):
        """``[rows, n]``: real lengths longest first, as ``collate`` orders rows.

        With ``full_and_empty_rows`` the first row is live at every step and
        the last at none.
        """
        lengths = np.sort(rng.integers(0, n + 1, rows))[::-1]
        if full_and_empty_rows:
            lengths[0], lengths[-1] = n, 0
        return np.arange(n) < lengths[:, None]

    @pytest.mark.parametrize("full_and_empty_rows", [False, True], ids=lambda b: f"length-sorted-{b}")
    @pytest.mark.parametrize("mode", ["valid", "same", "centred"])
    def test_mask_equals_masked_input_and_output(self, mode, full_and_empty_rows):
        # the oracle: zero the input off the mask, convolve every row in full,
        # zero the output off the mask (in valid mode output s is masked as
        # input s + span); values and gradients agree to 1e-12
        rng = np.random.default_rng(23)
        for n, k, d in ((7, 3, 2), (6, 2, 1), (9, 4, 1), (5, 1, 3), (3, 4, 1)):
            span = (k - 1) * d
            if mode == "valid" and n <= span:
                continue
            mask = self._mask(rng, 7, n, full_and_empty_rows)
            keep_in = mask.T[:, :, None].astype(np.float64)
            keep_out = keep_in[span:] if mode == "valid" else keep_in
            x = Tensor(rng.uniform(-1, 1, (n, 7, 3)), requires_grad=True)
            f = Tensor(rng.uniform(-1, 1, (k, 3, 4)), requires_grad=True)
            weight = rng.uniform(-1, 1, keep_out.shape[:2] + (4,))
            results = []
            for build in (
                lambda: ad.dilated_conv1d(x, f, d, mode, mask=mask),
                lambda: ad.mul(ad.dilated_conv1d(ad.mul(x, keep_in), f, d, mode), keep_out),
            ):
                x.zero_grad(), f.zero_grad()
                with Tape() as tape:
                    out = build()
                    loss = ad.tsum(ad.mul(out, weight))
                tape.backward(loss)
                results.append((out.data, ad.dense_grad(x), ad.dense_grad(f)))
            for ours, oracle in zip(*results):
                assert np.max(np.abs(ours - oracle)) < 1e-12
            assert np.all(results[0][0][~keep_out[..., 0].astype(bool)] == 0.0)
            assert np.all(results[0][1][~mask.T] == 0.0)  # no gradient off the mask

    @pytest.mark.parametrize("mode", ["valid", "same", "centred"])
    def test_nan_off_the_mask_changes_nothing(self, mode):
        rng = np.random.default_rng(24)
        for n, k, d in ((8, 3, 1), (9, 2, 3), (6, 4, 1)):
            mask = self._mask(rng, 9, n)
            x, f = rng.uniform(-1, 1, (n, 9, 5)), Tensor(rng.uniform(-1, 1, (k, 5, 3)))
            clean = ad.dilated_conv1d(Tensor(x), f, d, mode, mask=mask).data
            x[~mask.T] = np.nan
            assert ad.dilated_conv1d(Tensor(x), f, d, mode, mask=mask).data.tobytes() == clean.tobytes()

    def test_mask_shape_checked(self):
        x, f = Tensor(np.ones((4, 2, 3))), Tensor(np.ones((2, 3, 1)))
        with pytest.raises(ShapeError, match=r"dilated_conv1d expects a mask\[rows, steps\] = \[2, 4\]"):
            ad.dilated_conv1d(x, f, mask=np.ones((4, 2), dtype=bool))

    def test_mask_that_is_not_a_prefix_rejected(self):
        x, f = Tensor(np.ones((4, 3, 2))), Tensor(np.ones((2, 2, 1)))
        mask = np.ones((3, 4), dtype=bool)
        mask[1, 2] = False  # row 1 has a hole at step 2 that row 2 does not
        with pytest.raises(ShapeError, match="dilated_conv1d needs each step's live rows to be a prefix"):
            ad.dilated_conv1d(x, f, mask=mask)


class TestBigru:
    """``ad.bigru`` on its own; ``tests/test_model.py`` checks it against a per-step GRU."""

    def test_gradients_match_finite_differences(self):
        from hanspam.gradcheck import check_fused_bigru

        assert check_fused_bigru() < 1e-4

    def test_shape_errors(self):
        x, w, b, u = np.ones((4, 2, 3)), np.ones((2, 3, 6)), np.ones((2, 6)), np.ones((2, 2, 6))
        with pytest.raises(ShapeError, match="x\\[steps >= 1, rows, in\\]"):
            ad.bigru(np.ones((4, 3)), None, w, b, u)
        with pytest.raises(ShapeError, match="with u = 2"):
            ad.bigru(x, None, w, np.ones((2, 4)), u)
        with pytest.raises(ShapeError, match=r"mask\[rows, steps\] = \[2, 4\]"):
            ad.bigru(x, np.ones((4, 2), dtype=bool), w, b, u)


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

    def test_zero_grad_drops_the_gradient(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        assert x.grad is None
        for _ in range(2):
            with Tape() as tape:
                loss = ad.tsum(ad.mul(x, 2.0))
            tape.backward(loss)
            assert np.array_equal(x.grad, np.full((3, 2), 2.0))  # not doubled: the drop reset it
            x.zero_grad()
            assert x.grad is None

    def test_gradient_form_follows_what_reaches_the_leaf(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        words = Tensor(np.zeros((2, 3)))

        def run(dense_too):
            with Tape() as tape:
                # zero word weights and one bucket per token: the vectors are table rows 3, 1, 3
                rows = ad.embedding_lookup(words, table, [0, 0, 0], [0.0, 0.0, 0.0], [3, 1, 3], [0, 1, 2, 3])
                loss = ad.tsum(rows)
                if dense_too:
                    loss = ad.add(loss, ad.tsum(table))
            tape.backward(loss)

        run(dense_too=False)
        assert isinstance(table.grad, ad.RowSet) and table.grad.idx.tolist() == [1, 3]
        assert np.array_equal(table.grad.val, [[1.0] * 3, [2.0] * 3])
        run(dense_too=False)  # no zero_grad: merged into the row set it holds
        assert isinstance(table.grad, ad.RowSet) and table.grad.idx.tolist() == [1, 3]
        assert np.array_equal(table.grad.val, [[2.0] * 3, [4.0] * 3])
        run(dense_too=True)  # a dense part: the row set is expanded and added to
        assert np.array_equal(table.grad, [[1.0] * 3, [4.0] * 3, [1.0] * 3, [7.0] * 3])
        run(dense_too=False)  # a dense gradient stays dense
        assert np.array_equal(table.grad, [[1.0] * 3, [5.0] * 3, [1.0] * 3, [9.0] * 3])
        table.zero_grad()
        run(dense_too=True)
        assert np.array_equal(table.grad, [[1.0] * 3, [2.0] * 3, [1.0] * 3, [3.0] * 3])

    def test_backward_makes_a_gradient_only_for_leaves_it_reaches(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.mul(x, x))
            ad.mul(unused, 2.0)
        tape.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert unused.grad is None

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
        assert ad.dropout(x, 0.0) is x

    def test_dropout_eval_mode_identity(self):
        # evaluation mode drops nothing, whatever rate the config sets
        base = tiny_model("cnn")
        dropping = HanModel(replace(base.config, dropout=0.9), base.vocab, seed=0)
        batch = collate([toy_document(base)])
        expected = base.forward_batch(batch, training=False)[0].data
        assert np.array_equal(dropping.forward_batch(batch, training=False, step=5)[0].data, expected)

    def test_dropout_seed_step_determinism(self):
        x = Tensor(np.ones(1000))
        a = ad.dropout(x, 0.5, seed=3, step=7, salt=1).data
        b = ad.dropout(x, 0.5, seed=3, step=7, salt=1).data
        c = ad.dropout(x, 0.5, seed=3, step=8, salt=1).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        survivors = a[a != 0]
        assert np.allclose(survivors, 2.0)  # scaled by 1/(1-p)

    def test_dropout_rate_out_of_range(self):
        with pytest.raises(ParameterError):
            ad.dropout(Tensor([1.0]), 1.0)
        with pytest.raises(ParameterError):
            ad.dropout(Tensor([1.0]), -0.1)

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
        assert isinstance(table.grad, np.ndarray)  # only embedding_lookup makes a row set
        assert np.array_equal(ad.dense_grad(table), expected)

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
        assert np.array_equal(ad.dense_grad(table), np.repeat([[1.0], [2.0], [0.0], [3.0]], 3, axis=1))


def assert_coalesced_as_add_at(rows, idx, val, shape):
    """``rows`` lists each id in ``idx`` once, in order, with the sums ``np.add.at`` into zeros gives, bitwise."""
    assert isinstance(rows, ad.RowSet) and rows.shape == shape
    assert rows.idx.tolist() == sorted(set(np.ravel(idx).tolist()))
    reference = np.zeros(shape)
    np.add.at(reference, np.asarray(idx, dtype=np.intp), val)
    dense = np.zeros(shape)
    dense[rows.idx] = rows.val  # written, not added: a -0.0 would survive
    assert dense.tobytes() == reference.tobytes()


class TestCoalesceRows:
    def test_repeated_buckets_within_and_across_tokens(self):
        model = tiny_model("none")
        table = model.table
        tokens = ["aaaaaaa", "aaaab", "baaaa", "aaaaaaa"]
        owned = table.bucket_ids(tokens)
        assert len(set(owned[0])) < len(owned[0])  # the token repeats a bucket itself
        assert set(owned[1]) & set(owned[2])  # and tokens share buckets
        bidx = np.concatenate(owned)
        owner = np.repeat(np.arange(len(tokens)), [len(o) for o in owned])
        per_token = np.random.default_rng(3).uniform(-1, 1, (len(tokens), 6)) / 7.0
        shape = model.params["embed.bucket"].shape
        rows = ad.coalesce_rows(bidx, per_token, shape, src=owner)
        assert_coalesced_as_add_at(rows, bidx, per_token[owner], shape)
        assert_coalesced_as_add_at(ad.coalesce_rows(bidx, per_token[owner], shape), bidx, per_token[owner], shape)

    def test_an_id_with_hundreds_of_occurrences(self):
        rng = np.random.default_rng(4)
        idx = np.concatenate([np.full(700, 5), rng.integers(0, 40, 300)])
        rng.shuffle(idx)
        val = rng.normal(size=(idx.size, 3)) * 10.0 ** rng.integers(-8, 8, (idx.size, 1))
        assert_coalesced_as_add_at(ad.coalesce_rows(idx, val, (40, 3)), idx, val, (40, 3))

    def test_one_id_owning_most_occurrences_and_a_lone_negative_zero(self):
        rng = np.random.default_rng(6)
        lone = np.arange(40)[np.arange(40) != 7]
        idx = np.concatenate([np.full(3000, 7), lone, rng.choice(lone, 60)])
        rng.shuffle(idx)
        val = rng.normal(size=(idx.size, 3)) * 10.0 ** rng.integers(-8, 8, (idx.size, 1))
        negative = lone[np.flatnonzero(np.bincount(idx, minlength=40)[lone] == 1)[0]]
        val[idx == negative] = -0.0
        rows = ad.coalesce_rows(idx, val, (40, 3))
        assert_coalesced_as_add_at(rows, idx, val, (40, 3))
        assert not np.signbit(rows.val[rows.idx == negative]).any()

    def test_any_index_shape_and_one_dimensional_rows(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 6, (4, 5))
        val = rng.normal(size=(4, 5))
        assert_coalesced_as_add_at(ad.coalesce_rows(idx, val, (6,)), idx, val, (6,))

    def test_a_lone_negative_zero_becomes_positive(self):
        idx = np.array([2, 0, 2])
        val = np.array([[-0.0, 1.0], [-0.0, -0.0], [-0.0, -2.0]])
        rows = ad.coalesce_rows(idx, val, (3, 2))
        assert_coalesced_as_add_at(rows, idx, val, (3, 2))
        assert not np.signbit(rows.val[rows.val == 0.0]).any()

    def test_no_rows(self):
        rows = ad.coalesce_rows(np.zeros(0, np.intp), np.zeros((0, 4)), (9, 4))
        assert rows.idx.shape == (0,) and rows.val.shape == (0, 4)
        table = Tensor(np.ones((9, 4)), requires_grad=True)
        table.grad = rows
        assert ad.dense_grad(table).tobytes() == np.zeros((9, 4)).tobytes()


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
        for got, ref in zip((out.data, ad.dense_grad(w), ad.dense_grad(b)), want, strict=True):
            assert np.array_equal(got, ref)
        assert np.all(out.data[0] == 0.0)

    def test_rejects_time_major_ids(self):
        words, buckets = Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError, match="embedding_lookup"):
            ad.embedding_lookup(words, buckets, [[0, 1], [2, 1]], [[1.0] * 2] * 2, [0, 1], [0, 0, 1, 1, 2])
