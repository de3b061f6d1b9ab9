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


class TestDeferredWrites:
    @staticmethod
    def state(stack):
        grads = [(name, p.grad.tobytes()) for name, p in stack.named_params("s")]
        return grads + [(name, b.tobytes()) for name, b in stack.named_buffers("s")]

    @staticmethod
    def train_step(stack, x, grad_out):
        _, cache = stack.forward(x, train=True)
        stack.backward(cache, grad_out)

    def test_record_holds_train_writes_until_apply(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(12, 5))
        grad_out = rng.normal(size=(12, 3))
        direct, deferred = (nnet.CBRStack(5, (8, 6), 3, np.random.default_rng(41))
                            for _ in range(2))
        # Nonzero starting gradients, so the order of the additions shows.
        for stack in (direct, deferred):
            for _, p in stack.named_params("s"):
                p.grad[...] = 0.25
        self.train_step(direct, x, grad_out)

        before = self.state(deferred)
        with nnet.deferred_writes() as record:
            self.train_step(deferred, x, grad_out)
        assert self.state(deferred) == before
        assert record.grads and record.stats
        record.apply()
        assert self.state(deferred) == self.state(direct)

    def test_nested_record_applies_into_the_outer_one(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(9, 5))
        grad_out = rng.normal(size=(9, 3))
        stack = nnet.CBRStack(5, (4,), 3, rng)
        before = self.state(stack)
        with nnet.deferred_writes() as outer:
            with nnet.deferred_writes() as inner:
                self.train_step(stack, x, grad_out)
            assert not outer.grads and not outer.stats
            inner.apply()
            assert self.state(stack) == before
        assert [id(p) for p in outer.grads] == [id(p) for p in inner.grads]
        assert [s[0] for s in outer.stats] == [s[0] for s in inner.stats]
        # Outside every record, a write goes straight to the model.
        self.train_step(stack, x, grad_out)
        assert self.state(stack) != before


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

    def test_state_round_trip(self):
        rng = np.random.default_rng(10)
        p = nnet.Param(rng.normal(size=4))
        opt = nnet.Adam({"p": p}, lr=0.05)
        for _ in range(3):
            opt.zero_grad()
            p.grad[:] = rng.normal(size=4)
            opt.step()
        state = opt.state_tensors()
        opt2 = nnet.Adam({"p": nnet.Param(p.value.copy())}, lr=0.05)
        opt2.load_state_tensors(state)
        assert opt2.step_count == 3
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])


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
    def eval_stack(rng):
        # Non-trivial batch-norm affine parameters and running statistics.
        stack = nnet.CBRStack(5, (8, 6), 3, rng)
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
        block = self.eval_stack(rng).blocks[0]
        x = rng.normal(size=(33, 5))
        bn = block.bn
        scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
        w = block.lin.w.value * scale[:, None]
        b = (block.lin.b.value - bn.running_mean) * scale + bn.beta.value
        out, _ = block.forward(x, train=False)
        assert (out == 0.0).any() and (out > 0.0).any()
        assert out.tobytes() == nnet.relu(x @ w.T + b).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_eval_cbr_rejects_non_finite_input(self, bad):
        rng = np.random.default_rng(20)
        block = self.eval_stack(rng).blocks[0]
        x = rng.normal(size=(6, 5))
        x[4, 2] = bad
        # An infinite input meets weights of both signs: the check's sum of
        # +inf and -inf is NaN, which numpy reports as an invalid value.
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="batchnorm output"):
            block.forward(x, train=False)

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
        out, cache = block.forward(x, train=True)
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
