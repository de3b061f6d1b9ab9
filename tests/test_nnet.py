import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adreg import nnet


def mse_loss_grad(y, target):
    diff = y - target
    return (diff ** 2).mean(), 2 * diff / diff.size


class TestLinear:
    def test_identity_weights(self):
        rng = np.random.default_rng(0)
        layer = nnet.Linear(3, 3, rng)
        layer.w.value = np.eye(3)
        layer.b.value = np.zeros(3)
        x = rng.normal(size=(5, 3))
        out, _ = layer.forward(x)
        np.testing.assert_allclose(out, x)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        layer = nnet.Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def fb():
            layer.w.zero_grad()
            layer.b.zero_grad()
            y, cache = layer.forward(x)
            loss, grad = mse_loss_grad(y, target)
            layer.backward(cache, grad)
            return loss

        err = nnet.finite_diff_check(fb, dict(layer.named_params("lin")), h=1e-5)
        assert err < 1e-4

    def test_empty_batch(self):
        rng = np.random.default_rng(2)
        layer = nnet.Linear(3, 2, rng)
        y, cache = layer.forward(np.zeros((0, 3)))
        assert y.shape == (0, 2)
        layer.w.zero_grad()
        layer.backward(cache, np.zeros((0, 2)))
        assert np.all(layer.w.grad == 0) and np.all(layer.b.grad == 0)

    def test_shape_mismatch(self):
        layer = nnet.Linear(3, 2, np.random.default_rng(3))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 5)))

    def test_interleaved_forwards_backward_safely(self):
        # Two forwards may run before their backwards, in any order.
        rng = np.random.default_rng(30)
        layer = nnet.Linear(2, 2, rng)
        xa, xb = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        ya, ca = layer.forward(xa)
        yb, cb = layer.forward(xb)
        layer.w.zero_grad()
        layer.backward(ca, np.ones_like(ya))
        ga = layer.w.grad.copy()
        layer.w.zero_grad()
        layer.backward(cb, np.ones_like(yb))
        gb = layer.w.grad.copy()
        np.testing.assert_allclose(ga, np.ones((3, 2)).T @ xa)
        np.testing.assert_allclose(gb, np.ones((5, 2)).T @ xb)


class TestBatchNorm:
    def test_constant_channel_zeros(self):
        bn = nnet.BatchNorm(3)
        x = np.ones((8, 3)) * 4.2
        y, _ = bn.forward(x, train=True)
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_train_statistics(self):
        rng = np.random.default_rng(4)
        bn = nnet.BatchNorm(4)
        y, _ = bn.forward(rng.normal(loc=3, scale=2, size=(16, 4)), train=True)
        assert np.abs(y.mean(axis=0)).max() < 1e-9
        assert np.abs(y.var(axis=0) - 1).max() < 1e-4

    def test_eval_uses_running(self):
        rng = np.random.default_rng(5)
        bn = nnet.BatchNorm(2)
        for _ in range(200):
            bn.forward(rng.normal(loc=1.0, size=(32, 2)), train=True)
        y, _ = bn.forward(np.array([[1.0, 1.0]]), train=False)
        assert np.abs(y).max() < 0.2

    def test_batch_too_small(self):
        bn = nnet.BatchNorm(2)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((1, 2)), train=True)

    def test_gradcheck_through_batch_coupling(self):
        rng = np.random.default_rng(6)
        bn = nnet.BatchNorm(3)
        bn.gamma.value = rng.normal(size=3)
        bn.beta.value = rng.normal(size=3)
        x = nnet.Param(rng.normal(size=(6, 3)))
        target = rng.normal(size=(6, 3))

        def fb():
            for p in (bn.gamma, bn.beta, x):
                p.zero_grad()
            y, cache = bn.forward(x.value, train=True)
            loss, grad = mse_loss_grad(y, target)
            x.grad += bn.backward(cache, grad)
            return loss

        params = dict(bn.named_params("bn"))
        params["input"] = x
        assert nnet.finite_diff_check(fb, params, h=1e-5) < 1e-4


def reference_bn_forward(x, gamma, beta, eps):
    """The train-mode batch norm forward as whole-array expressions: the
    formulas the blocked passes must reproduce bit for bit."""
    mean = x.mean(axis=0)
    centered = x - mean
    var = np.einsum("ij,ij->j", centered, centered) / len(x)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return gamma * xhat + beta, xhat, inv_std, mean, var


def reference_bn_backward(grad_out, xhat, inv_std, gamma):
    """Returns (input gradient, gamma gradient, beta gradient)."""
    n = len(xhat)
    g = grad_out * gamma
    sum_g = g.sum(axis=0)
    sum_gx = np.einsum("ij,ij->j", g, xhat)
    return (inv_std / n * (n * g - sum_g - xhat * sum_gx),
            np.einsum("ij,ij->j", grad_out, xhat), grad_out.sum(axis=0))


@st.composite
def train_batches(draw):
    """(x, gamma, beta, grad_out): from 2 rows up to several row blocks,
    ending on a whole or a partial block, with some constant channels."""
    width = draw(st.integers(1, 300))
    rows = nnet._block_rows(width)
    n = max(2, draw(st.integers(0, 3)) * rows + draw(st.integers(0, rows - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(loc=rng.normal(size=width), scale=rng.uniform(0.1, 10.0, size=width),
                   size=(n, width))
    constant = rng.random(width) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    x[:, constant] = rng.normal(size=constant.sum())
    return (x, rng.normal(size=width), rng.normal(size=width),
            rng.normal(size=(n, width)))


class TestTrainBatchNormBits:
    """The row-blocked train-mode batch norm against whole-array formulas."""

    @settings(max_examples=30, deadline=None)
    @given(batch=train_batches())
    def test_matches_the_whole_array_formulas_bit_for_bit(self, batch):
        x, gamma, beta, grad_out = batch
        bn = nnet.BatchNorm(x.shape[1])
        bn.gamma.value, bn.beta.value = gamma.copy(), beta.copy()
        x_bytes = x.tobytes()
        out, cache = bn.forward(x, train=True)
        assert x.tobytes() == x_bytes
        ref_out, ref_xhat, ref_inv_std, mean, var = reference_bn_forward(x, gamma, beta, bn.eps)
        xhat, inv_std, n = cache
        assert out.tobytes() == ref_out.tobytes()
        assert xhat.tobytes() == ref_xhat.tobytes()
        assert inv_std.tobytes() == ref_inv_std.tobytes()
        assert n == len(x)
        m = bn.momentum
        assert bn.running_mean.tobytes() == (m * np.zeros_like(mean) + (1 - m) * mean).tobytes()
        assert bn.running_var.tobytes() == (m * np.ones_like(var) + (1 - m) * var).tobytes()

        grad_bytes = grad_out.tobytes()
        g_in = bn.backward(cache, grad_out)
        assert grad_out.tobytes() == grad_bytes
        ref_g_in, ref_g_gamma, ref_g_beta = reference_bn_backward(grad_out, ref_xhat,
                                                                  ref_inv_std, gamma)
        assert g_in.tobytes() == ref_g_in.tobytes()
        # Param.accumulate adds into zeroed gradients.
        assert bn.gamma.grad.tobytes() == (np.zeros_like(gamma) + ref_g_gamma).tobytes()
        assert bn.beta.grad.tobytes() == (np.zeros_like(beta) + ref_g_beta).tobytes()

    @pytest.mark.parametrize("signs", [(1.0,), (-1.0,), (1.0, -1.0)],
                             ids=["inf", "-inf", "inf-and-minus-inf"])
    def test_non_finite_output_in_the_last_partial_block_raises(self, signs):
        # The first row of each of two full blocks holds -1, the last row,
        # which ends a partial block, holds 2, and every other row 0; so the
        # mean is exactly 0 and the last row's xhat is twice as large as the
        # first rows'. The gamma puts the first rows' output at 0.75 of the
        # float maximum, so only the last row overflows.
        width = len(signs)
        rows = nnet._block_rows(width)
        x = np.zeros((2 * rows + rows // 2, width))
        x[[0, rows]] = -np.array(signs)
        x[-1] = 2.0 * np.array(signs)
        bn = nnet.BatchNorm(width)
        xhat = reference_bn_forward(x, 1.0, 0.0, bn.eps)[1]
        bn.gamma.value = 0.75 * np.finfo(np.float64).max / np.abs(xhat[0])
        # inf + -inf in the finite check's sum is an invalid operation.
        with np.errstate(over="ignore", invalid="ignore"):
            ref_out = reference_bn_forward(x, bn.gamma.value, bn.beta.value, bn.eps)[0]
            assert np.isfinite(ref_out[:-1]).all() and np.isinf(ref_out[-1]).all()
            with pytest.raises(FloatingPointError, match="batchnorm output"):
                bn.forward(x, train=True)


class TestOnBothSides:
    @staticmethod
    def side(p, g, bn, x):
        """Two additions of ``g`` and a train-mode batch norm; returns the
        running mean the side saw after its fold."""
        p.accumulate(g)
        p.accumulate(g)
        bn.forward(x, train=True)
        return bn.running_mean.copy()

    def test_writes_come_out_as_two_sequential_calls(self):
        # 1.0 + 2**-53 rounds back to 1.0, so adding it twice leaves 1.0,
        # where adding the side's summed 2**-52 would not.
        tiny, zero = np.full(3, 2.0 ** -53), np.zeros(3)
        rng = np.random.default_rng(43)
        src_x, tgt_x = rng.normal(size=(6, 3)), rng.normal(size=(5, 3))
        direct, both = (nnet.Param(np.zeros(3)) for _ in range(2))
        direct_bn, both_bn = nnet.BatchNorm(3), nnet.BatchNorm(3)
        direct.grad[...] = both.grad[...] = 1.0
        self.side(direct, tiny, direct_bn, src_x)
        self.side(direct, zero, direct_bn, tgt_x)

        seen = nnet.on_both_sides(self.side, (both, tiny, both_bn, src_x),
                                  (both, zero, both_bn, tgt_x))
        # Neither side's fold was made while the sides ran.
        assert all((mean == 0.0).all() for mean in seen)
        assert both.grad.tobytes() == direct.grad.tobytes()
        assert (both.grad == 1.0).all()
        assert both_bn.running_mean.tobytes() == direct_bn.running_mean.tobytes()
        assert both_bn.running_var.tobytes() == direct_bn.running_var.tobytes()

    @pytest.mark.parametrize("failing", ["source", "target"])
    def test_a_failing_side_writes_nothing_and_frees_the_calling_thread(self, failing):
        p = nnet.Param(np.zeros(2))

        def side(name):
            p.accumulate(np.ones(2))
            if name == failing:
                raise ValueError(f"{name} failed")

        with pytest.raises(ValueError, match=f"{failing} failed"):
            nnet.on_both_sides(side, ("source",), ("target",))
        assert (p.grad == 0.0).all()
        # The calling thread holds no list any more: a write is made at once.
        p.accumulate(np.ones(2))
        assert (p.grad == 1.0).all()


class TestActivations:
    def test_relu(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(nnet.relu(x), [0, 0, 0, 0.5, 2.0])

    def test_softmax_uniform(self):
        y = nnet.softmax_rows(np.zeros((2, 5)))
        np.testing.assert_allclose(y, 0.2)

    def test_softmax_overflow_safe(self):
        y = nnet.softmax_rows(np.array([[1000.0, 0.0]]))
        np.testing.assert_allclose(y, [[1.0, 0.0]])

    def test_softmax_rows_sum_one(self):
        rng = np.random.default_rng(7)
        y = nnet.softmax_rows(rng.normal(size=(50, 4)) * 10)
        assert np.abs(y.sum(axis=1) - 1).max() < 1e-12
        assert (y >= 0).all()

    def test_softmax_gradcheck(self):
        rng = np.random.default_rng(8)
        x = nnet.Param(rng.normal(size=(5, 4)))
        target = rng.normal(size=(5, 4))

        def fb():
            x.zero_grad()
            y = nnet.softmax_rows(x.value)
            loss, grad = mse_loss_grad(y, target)
            x.grad += nnet.softmax_rows_backward(grad, y)
            return loss

        assert nnet.finite_diff_check(fb, {"x": x}, h=1e-6) < 1e-4

    def test_sigmoid_range_and_grad(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(10, 2)) * 5
        y = nnet.sigmoid(x)
        assert ((y > 0) & (y < 1)).all()
        np.testing.assert_allclose(nnet.sigmoid(np.array([0.0])), [0.5])
        # Extreme inputs stay bounded without overflow.
        extreme = nnet.sigmoid(np.array([-1000.0, 1000.0]))
        assert extreme[0] >= 0.0 and extreme[1] <= 1.0


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = nnet.Param(np.array([1.0, -2.0]))
        opt = nnet.Adam({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.value, [1.0, -2.0], atol=1e-8)

    def test_first_step_is_signed_lr(self):
        p = nnet.Param(np.array([0.0]))
        p.grad[:] = 3.7
        opt = nnet.Adam({"p": p}, lr=0.01)
        opt.step()
        np.testing.assert_allclose(p.value, [-0.01], rtol=1e-6)

    def test_quadratic_convergence(self):
        p = nnet.Param(np.array([5.0]))
        opt = nnet.Adam({"p": p}, lr=0.01)
        for _ in range(2000):
            opt.zero_grad()
            p.grad[:] = 2 * p.value
            opt.step()
        assert abs(p.value[0]) < 0.05


class TestFuseCandidates:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 70), st.integers(2, 140),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_broadcast_sum_bit_for_bit(self, n, k, c, zero_share, seed):
        # Widths from 2 up: at width 1 numpy's einsum drops the axis and
        # reorders the K-term sum, and no caller fuses fewer than 3 columns.
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, k))
        w[rng.random((n, k)) < zero_share] = 0.0
        pts = rng.normal(size=(n, k, 3)) * 50.0
        desc = rng.normal(size=(n, k, c)) * 10.0 ** rng.uniform(-6, 6, size=(n, k, c))
        desc[rng.random((n, k, c)) < zero_share] = 0.0
        got_pts, got_desc = nnet.fuse_candidates(w, pts, desc)
        assert got_pts.tobytes() == (w[..., None] * pts).sum(axis=1).tobytes()
        assert got_desc.tobytes() == (w[..., None] * desc).sum(axis=1).tobytes()


class TestStacks:
    def test_cbr_stack_gradcheck(self):
        rng = np.random.default_rng(11)
        stack = nnet.CBRStack(4, (8, 8, 6), 2, rng)
        x = rng.normal(size=(10, 4))
        target = rng.normal(size=(10, 2))

        def fb():
            for _, p in stack.named_params("s"):
                p.zero_grad()
            y, cache = stack.forward(x, train=True)
            loss, grad = mse_loss_grad(y, target)
            stack.backward(cache, grad)
            return loss

        err = nnet.finite_diff_check(fb, dict(stack.named_params("s")), h=1e-5)
        assert err < 1e-3

    def test_backward_releases_each_entry_once_its_module_has_run(self):
        rng = np.random.default_rng(13)
        stack = nnet.CBRStack(4, (8, 8, 6), 2, rng)
        y, cache = stack.forward(rng.normal(size=(10, 4)), train=True)
        released = []
        for module in stack.blocks + [stack.head]:
            def recorded(*args, _orig=module.backward):
                released.append([c is None for c in cache])
                return _orig(*args)
            module.backward = recorded
        stack.backward(cache, rng.normal(size=y.shape))
        # The head's entry goes first, then each block's, last to first.
        assert released == [[False] * 4, [False] * 3 + [True],
                            [False] * 2 + [True] * 2, [False] + [True] * 3]
        assert cache == [None] * 4

    def test_mlp_sigmoid_gradcheck(self):
        rng = np.random.default_rng(12)
        mlp = nnet.MLP(5, 8, rng)
        x = rng.normal(size=(7, 5))
        target = rng.uniform(size=7)

        def fb():
            for _, p in mlp.named_params("m"):
                p.zero_grad()
            y, cache = mlp.forward(x)
            loss, grad = mse_loss_grad(y, target)
            mlp.backward(cache, grad)
            return loss

        assert nnet.finite_diff_check(fb, dict(mlp.named_params("m")), h=1e-5) < 1e-4

    def test_zero_network_trivial_match(self):
        rng = np.random.default_rng(13)
        layer = nnet.Linear(3, 2, rng)
        layer.w.value[:] = 0.0
        x = rng.normal(size=(4, 3))
        target = np.zeros((4, 2))

        def fb():
            layer.w.zero_grad()
            layer.b.zero_grad()
            y, cache = layer.forward(x)
            loss, grad = mse_loss_grad(y, target)
            layer.backward(cache, grad)
            return loss

        assert nnet.finite_diff_check(fb, dict(layer.named_params("l")), h=1e-5) < 1e-6

    @staticmethod
    def eval_stack(rng, widths=(8, 6), head_dim=3):
        # Non-trivial batch-norm affine parameters and running statistics.
        stack = nnet.CBRStack(5, widths, head_dim, rng)
        for block in stack.blocks:
            dim = block.bn.gamma.value.size
            block.bn.gamma.value[:] = rng.uniform(0.5, 2.0, size=dim)
            block.bn.beta.value[:] = rng.normal(size=dim)
            block.bn.running_mean = rng.normal(size=dim)
            block.bn.running_var = rng.uniform(0.1, 3.0, size=dim)
        return stack

    def test_eval_forward_matches_unfolded_reference(self):
        rng = np.random.default_rng(16)
        stack = self.eval_stack(rng)
        x = rng.normal(size=(40, 5))
        want = x
        for block in stack.blocks:
            z, _ = block.lin.forward(want)
            pre, _ = block.bn.forward(z, train=False)
            want = nnet.relu(pre)
        want, _ = stack.head.forward(want)
        got, _ = stack.forward(x, train=False)
        # Folding reassociates the affine maps: rounding differences only.
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_eval_cbr_is_relu_of_the_folded_affine_map_bit_for_bit(self):
        rng = np.random.default_rng(19)
        stack = self.eval_stack(rng, (8,), None)
        block = stack.blocks[0]
        x = rng.normal(size=(33, 5))
        bn = block.bn
        scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
        w = block.lin.w.value * scale[:, None]
        b = (block.lin.b.value - bn.running_mean) * scale + bn.beta.value
        out, _ = stack.forward(x, train=False)
        assert (out == 0.0).any() and (out > 0.0).any()
        assert out.tobytes() == nnet.relu(x @ w.T + b).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_eval_cbr_rejects_non_finite_input(self, bad):
        rng = np.random.default_rng(20)
        stack = self.eval_stack(rng, (8,), None)
        x = rng.normal(size=(6, 5))
        x[4, 2] = bad
        # An infinite input meets weights of both signs: the check's sum of
        # +inf and -inf is NaN, which numpy reports as an invalid value.
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="batchnorm output"):
            stack.forward(x, train=False)

    @staticmethod
    def scaled_in(dtype, folds):
        # The product operands cast as the backbone's eval pass casts them;
        # beyond float32's range an entry becomes infinite.
        with np.errstate(over="ignore"):
            return [(w_t.astype(dtype), b.astype(dtype))
                    for w_t, b in folds]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_folds_stay_finite_only_when_no_check_can_fire(self, data):
        # Weights, running variances and inputs across many magnitudes, with
        # float64 or float32 operands: wherever the bound says the checks
        # cannot fire, the checked pass must not raise; it must also say so
        # for ordinary magnitudes.
        dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        widths = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
        in_dim = data.draw(st.integers(1, 5))
        stack = nnet.CBRStack(in_dim, widths, None, rng)
        for block in stack.blocks:
            block.lin.w.value *= 10.0 ** data.draw(st.integers(-5, 150))
            block.bn.running_var = rng.uniform(1e-12, 1.0, size=block.bn.running_var.size)
        bound = 10.0 ** data.draw(st.integers(-5, 200))
        rows = data.draw(st.integers(1, 8))
        x = rng.uniform(-bound, bound, size=(rows, in_dim))
        x[rng.random(x.shape) < 0.3] = bound
        scaled = self.scaled_in(dtype, stack.fold())
        with np.errstate(over="ignore", invalid="ignore"):
            x = x.astype(dtype)
            if nnet.folds_stay_finite(scaled, bound, rows):
                nnet._scaled_cbrs(x, scaled)

    def test_folds_stay_finite_is_sound_at_its_edge(self):
        # At the largest power-of-two input bound it accepts, inputs at that
        # bound that follow the signs of the first block's weights must
        # still pass every check, with float64 and with float32 operands.
        folds = self.eval_stack(np.random.default_rng(22)).fold()
        rows = 8
        for dtype in (np.float64, np.float32):
            scaled = self.scaled_in(dtype, folds)
            edge = max(e for e in range(-200, 1024)
                       if nnet.folds_stay_finite(scaled, 2.0 ** e, rows))
            w = scaled[0][0].T
            x = 2.0 ** edge * np.sign(w)[np.arange(rows) % len(w)]
            nnet._scaled_cbrs(x.astype(dtype), scaled)

    def test_folds_stay_finite_holds_for_ordinary_magnitudes(self):
        folds = self.eval_stack(np.random.default_rng(21)).fold()
        for dtype in (np.float64, np.float32):
            scaled = self.scaled_in(dtype, folds)
            assert nnet.folds_stay_finite(scaled, 1e6, 1 << 16)
            for bound in (1e300, np.inf, np.nan):
                assert not nnet.folds_stay_finite(scaled, bound, 1 << 16)

    def test_folds_stay_finite_refuses_a_bound_beyond_float32(self):
        # Weights so small that the products of any float64 input at 1e39
        # would fit: float32 cannot hold such inputs, so the float32
        # operands' bound says no, and the float64 operands' says yes.
        stack = self.eval_stack(np.random.default_rng(23))
        for block in stack.blocks:
            block.lin.w.value *= 1e-30
        folds = stack.fold()
        assert nnet.folds_stay_finite(self.scaled_in(np.float64, folds), 1e39, 8)
        assert not nnet.folds_stay_finite(self.scaled_in(np.float32, folds), 1e39, 8)
        assert nnet.folds_stay_finite(self.scaled_in(np.float32, folds), 1e30, 8)

    def test_gathered_cbr_is_relu_of_member_plus_group_part(self):
        rng = np.random.default_rng(24)
        table = rng.normal(size=(9, 4)).astype(np.float32)
        term = rng.normal(size=(3, 4)).astype(np.float32)
        groups = rng.integers(0, 9, size=(3, 5))
        want = np.maximum(table[groups] + term[:, None, :], 0.0).reshape(15, 4)
        for checked in (True, False):
            got = nnet.gathered_cbr(table, groups, term, checked)
            assert (got == 0.0).any() and (got > 0.0).any()
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gathered_cbr_checks_its_pre_activation(self, bad):
        # A non-finite entry is caught before the ReLU, which would turn
        # -inf into 0, when checked; unchecked, it passes through.
        table = np.ones((4, 2))
        table[2, 1] = -bad
        groups = np.array([[0, 2], [1, 3]])
        with pytest.raises(FloatingPointError, match="batchnorm output"):
            nnet.gathered_cbr(table, groups, np.zeros((2, 2)))
        nnet.gathered_cbr(table, groups, np.zeros((2, 2)), checked=False)

    def test_forward_folded_runs_a_tail_of_the_stack(self):
        rng = np.random.default_rng(25)
        stack = self.eval_stack(rng)
        scaled = stack.fold()
        x = rng.normal(size=(7, 5))
        first = nnet._scaled_cbrs(x, scaled[:1])
        got = stack.forward_folded(first, scaled[1:])
        assert got.tobytes() == stack.forward_folded(x, scaled).tobytes()
        with pytest.raises(ValueError, match="linear expects"):
            stack.forward_folded(x, scaled[1:])

    def test_cbr_backward_from_relu_output_matches_pre_activation_mask(self):
        # The cache keeps relu(pre), not pre. With gamma = beta = 0,
        # channel 0's pre-activation is exactly zero; the mask built from
        # the output must treat those zeros as the one built from pre does.
        rng = np.random.default_rng(18)
        block = nnet.CBR(3, 4, rng)
        block.bn.gamma.value[:] = [0.0, 1.5, 0.7, -1.1]
        block.bn.beta.value[:] = [0.0, 0.2, -0.3, 0.1]
        x = rng.normal(size=(12, 3))
        grad_out = rng.normal(size=(12, 4))
        params = dict(block.named_params("b"))

        for p in params.values():
            p.zero_grad()
        out, cache = block.forward(x)
        got = block.backward(cache, grad_out)
        got_grads = {k: p.grad.copy() for k, p in params.items()}

        for p in params.values():
            p.zero_grad()
        z, lin_cache = block.lin.forward(x)
        pre, bn_cache = block.bn.forward(z, train=True)
        assert (pre[:, 0] == 0.0).all() and (pre[:, 1:] > 0).any()
        g = block.bn.backward(bn_cache, grad_out * (pre > 0))
        want = block.lin.backward(lin_cache, g)

        assert out.tobytes() == nnet.relu(pre).tobytes()
        assert got.tobytes() == want.tobytes()
        for k, p in params.items():
            assert got_grads[k].tobytes() == p.grad.tobytes(), k

    def test_forward_deterministic(self):
        rng = np.random.default_rng(14)
        stack = nnet.CBRStack(3, (4,), 2, rng)
        x = rng.normal(size=(6, 3))
        a, _ = stack.forward(x, train=False)
        b, _ = stack.forward(x, train=False)
        np.testing.assert_array_equal(a, b)


class TestCBRTrainCalls:
    def test_train_cbr_goes_through_its_linear_and_batch_norm_methods(self):
        # The per-layer trace wraps BatchNorm.forward, and the sign-flip
        # gradcheck replaces bn.backward: both see nothing if a train-mode
        # CBR computes either layer inline.
        rng = np.random.default_rng(12)
        cbr = nnet.CBR(4, 6, rng)
        calls = []
        for layer_name in ("lin", "bn"):
            layer = getattr(cbr, layer_name)
            for method in ("forward", "backward"):
                def counted(*args, _orig=getattr(layer, method),
                            _name=f"{layer_name}.{method}", **kwargs):
                    calls.append(_name)
                    return _orig(*args, **kwargs)
                setattr(layer, method, counted)
        out, cache = cbr.forward(rng.normal(size=(10, 4)))
        cbr.backward(cache, rng.normal(size=out.shape))
        assert calls == ["lin.forward", "bn.forward", "bn.backward", "lin.backward"]


class TestFiniteDiffCheck:
    """The checker must pass right gradients across ReLU kinks and still
    reject wrong ones."""

    @staticmethod
    def kinked_line(x0, analytic):
        # f(x) = 2x + 0.01 max(x, 0): a 0.5% slope jump at 0, below what a
        # 1% one-sided-slope test would call a kink.
        x = nnet.Param(np.array([x0]))

        def fb():
            x.zero_grad()
            x.grad[0] = analytic
            v = x.value[0]
            return 2.0 * v + 0.01 * max(v, 0.0)

        return fb, {"x": x}

    def test_rejects_sign_flipped_batchnorm_beta(self):
        rng = np.random.default_rng(11)
        stack = nnet.CBRStack(4, (8, 8, 6), 2, rng)
        x = rng.normal(size=(10, 4))
        target = rng.normal(size=(10, 2))
        bn = stack.blocks[1].bn
        right_backward = bn.backward

        def flipped_backward(cache, grad_out):
            g = right_backward(cache, grad_out)
            bn.beta.grad -= 2.0 * grad_out.sum(axis=0)  # wrong sign for beta
            return g

        def fb():
            for _, p in stack.named_params("s"):
                p.zero_grad()
            y, cache = stack.forward(x, train=True)
            loss, grad = mse_loss_grad(y, target)
            stack.backward(cache, grad)
            return loss

        assert nnet.finite_diff_check(fb, dict(stack.named_params("s")), h=1e-5) < 1e-3
        bn.backward = flipped_backward
        assert nnet.finite_diff_check(fb, dict(stack.named_params("s")), h=1e-5) > 1e-3

    def test_kink_inside_step_scores_the_local_slope(self):
        # The kink at 0 lies inside (x - h, x + h); x > 0, so the slope is 2.01.
        fb, params = self.kinked_line(3e-6, 2.01)
        assert nnet.finite_diff_check(fb, params, h=1e-5) < 1e-6
        # The slope from the far side of the kink is wrong here.
        fb, params = self.kinked_line(3e-6, 2.0)
        assert nnet.finite_diff_check(fb, params, h=1e-5) > 1e-3

    def test_coordinate_on_the_kink_is_skipped(self):
        # No step, however small, leaves the kink: the derivative is
        # undefined. A check that skipped every coordinate measured nothing.
        fb, params = self.kinked_line(0.0, 2.01)
        with pytest.raises(ValueError, match="skipped all 1 probed"):
            nnet.finite_diff_check(fb, params, h=1e-5)
        # Beside a scored coordinate, the skipped one leaves the score alone.
        kinked, = params.values()
        smooth = nnet.Param(np.array([0.5]))
        for slope, score in ((1.0, 0.0), (-1.0, 1.0)):
            def both():
                smooth.zero_grad()
                smooth.grad[0] = slope
                return fb() + smooth.value[0] ** 2
            got = nnet.finite_diff_check(both, {"x": kinked, "y": smooth}, h=1e-5)
            assert got == pytest.approx(score, abs=1e-6)

    def test_smooth_wrong_gradient_scores_one(self):
        rng = np.random.default_rng(15)
        x = nnet.Param(rng.uniform(-1.0, 1.0, size=5))

        def fb():
            x.zero_grad()
            x.grad += -np.cos(x.value)  # the true gradient is +cos
            return float(np.sin(x.value).sum())

        assert nnet.finite_diff_check(fb, {"x": x}, h=1e-5) == pytest.approx(1.0, abs=1e-6)
