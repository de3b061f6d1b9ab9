import math

import numpy as np
import pytest

from adreg import diffusion as diff
from adreg import coarse, geometry, nnet
from adreg.backbone import FeatureSet
from adreg.geometry import RigidTransform, random_rigid_transform


class TestSchedule:
    def test_single_step(self):
        s = diff.make_schedule(1, 0.01, 0.01)
        assert s.alpha_bars[0] == 1.0
        assert abs(s.alpha_bars[1] - 0.99) < 1e-15

    def test_default_terminal_value_against_product_oracle(self):
        s = diff.make_schedule()
        betas = [1e-4 + (0.02 - 1e-4) * i / 999 for i in range(1000)]
        expected = math.prod(1.0 - b for b in betas)
        assert abs(s.alpha_bars[-1] - expected) / expected < 1e-12
        assert abs(expected - 4.0e-5) < 1e-5

    def test_strictly_decreasing(self):
        s = diff.make_schedule(500, 1e-4, 0.05)
        assert (np.diff(s.alpha_bars) < 0).all()

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            diff.make_schedule(10, 0.0, 0.1)
        with pytest.raises(ValueError):
            diff.make_schedule(10, 0.2, 0.1)


class TestQSample:
    def test_zero_noise(self):
        s = diff.make_schedule(100)
        c0 = np.ones((4, 3))
        out = diff.q_sample(s, c0, 50, np.zeros((4, 3)))
        np.testing.assert_allclose(out, np.sqrt(s.alpha_bars[50]) * c0)

    def test_terminal_mostly_noise(self):
        s = diff.make_schedule()
        rng = np.random.default_rng(0)
        eps = rng.normal(size=(8, 3))
        out = diff.q_sample(s, np.ones((8, 3)), 1000, eps)
        assert np.abs(out - eps).max() < 0.02

    def test_epsilon_inverse(self):
        s = diff.make_schedule()
        rng = np.random.default_rng(1)
        c0 = rng.uniform(-1, 1, size=(6, 4))
        eps = rng.normal(size=(6, 4))
        for t in (1, 17, 500, 1000):
            ct = diff.q_sample(s, c0, t, eps)
            ab = s.alpha_bars[t]
            back = (ct - np.sqrt(ab) * c0) / np.sqrt(1 - ab)
            assert np.abs(back - eps).max() < 1e-12

    def test_t_out_of_range(self):
        s = diff.make_schedule(10)
        with pytest.raises(ValueError):
            diff.q_sample(s, np.zeros((1, 1)), 0, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            diff.q_sample(s, np.zeros((1, 1)), 11, np.zeros((1, 1)))


class TestSinkhorn:
    def test_zero_cost_uniform(self):
        plan = diff.sinkhorn(np.zeros((4, 6)), reg=0.1, iters=10)
        np.testing.assert_allclose(plan, 1.0 / 24.0, atol=1e-12)

    def test_permutation_recovery(self):
        rng = np.random.default_rng(2)
        perm = rng.permutation(16)
        cost = np.ones((16, 16))
        cost[np.arange(16), perm] = 0.0
        plan = diff.sinkhorn(cost, reg=0.01, iters=100)
        assert (plan.argmax(axis=1) == perm).all()

    def test_marginals_converge(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(size=(32, 32))
        plan = diff.sinkhorn(cost, reg=0.1, iters=100)
        assert np.abs(plan.sum(axis=1) - 1 / 32).sum() < 1e-4
        assert np.abs(plan.sum(axis=0) - 1 / 32).sum() < 1e-4
        assert (plan > 0).all()

    def test_nonsquare(self):
        plan = diff.sinkhorn(np.random.default_rng(4).uniform(size=(5, 9)),
                             reg=0.05, iters=200)
        assert np.abs(plan.sum(axis=1) - 1 / 5).max() < 1e-6
        assert np.abs(plan.sum(axis=0) - 1 / 9).max() < 1e-6


class TestGtCorrespondence:
    def test_exact_match_single_candidate(self):
        rng = np.random.default_rng(5)
        src = rng.normal(size=(32, 3)) * 5
        gt = random_rigid_transform(rng, 30.0, 2.0)
        tgt = geometry.apply_transform(gt, src)
        c_gt, neighbors = diff.build_gt_correspondence(src, tgt, gt, k=1)
        assert (neighbors.indices[:, 0] == np.arange(32)).all()
        np.testing.assert_allclose(c_gt, 1.0, atol=1e-12)

    def test_jittered_argmax_hits_true_match(self):
        rng = np.random.default_rng(6)
        src = rng.uniform(-10, 10, size=(128, 3))
        gt = random_rigid_transform(rng, 10.0, 1.0)
        tgt = geometry.apply_transform(gt, src) + rng.normal(scale=0.02, size=(128, 3))
        c_gt, neighbors = diff.build_gt_correspondence(src, tgt, gt, k=3)
        rows = (c_gt + 1.0) / 2.0
        hits = neighbors.indices[np.arange(128), rows.argmax(axis=1)] == np.arange(128)
        assert hits.mean() >= 0.95

    def test_rows_sum_to_one_before_scaling(self):
        rng = np.random.default_rng(7)
        src = rng.normal(size=(40, 3)) * 8
        gt = random_rigid_transform(rng, 45.0, 3.0)
        tgt = geometry.apply_transform(gt, src) + rng.normal(scale=0.3, size=(40, 3))
        c_gt, _ = diff.build_gt_correspondence(src, tgt, gt, k=4)
        rows = (c_gt + 1.0) / 2.0
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9


class TestDenoiser:
    def make_inputs(self, rng, n=6, k=3, c=5):
        c_t = rng.normal(size=(n, k))
        f_g = rng.normal(size=(n, k, 10))
        f_d = rng.normal(size=(n, k, 2 * c + 2))
        return c_t, f_g, f_d

    def test_zeroed_network_outputs_zero(self):
        rng = np.random.default_rng(8)
        den = diff.make_denoiser(5, rng)
        den.head.w.value[:] = 0.0
        den.head.b.value[:] = 0.0
        c_t, f_g, f_d = self.make_inputs(rng)
        out, _ = diff.denoiser_forward(den, c_t, 10, 100, f_g, f_d, train=False)
        np.testing.assert_array_equal(out, 0.0)

    def test_output_shape(self):
        rng = np.random.default_rng(9)
        den = diff.make_denoiser(5, rng)
        c_t, f_g, f_d = self.make_inputs(rng, n=11, k=4)
        out, _ = diff.denoiser_forward(den, c_t, 3, 100, f_g, f_d, train=False)
        assert out.shape == (11, 4)

    def test_gradcheck(self):
        rng = np.random.default_rng(10)
        den = diff.make_denoiser(4, np.random.default_rng(11))
        c_t, f_g, f_d = self.make_inputs(rng, n=5, k=2, c=4)
        target = rng.normal(size=(5, 2))
        params = dict(den.named_params("den"))
        ct_p = nnet.Param(c_t.copy())

        def fb():
            for p in list(params.values()) + [ct_p]:
                p.zero_grad()
            out, cache = diff.denoiser_forward(den, ct_p.value, 7, 100, f_g, f_d,
                                               train=True)
            loss = ((out - target) ** 2).mean()
            g_ct, _, _ = diff.denoiser_backward(den, cache, 2 * (out - target) / out.size)
            ct_p.grad += g_ct
            return loss

        everything = {**params, "c_t": ct_p}
        assert nnet.finite_diff_check(fb, everything, h=1e-5, max_coords=5, seed=2) < 1e-3


class TestCorrespondenceToTransform:
    def setup_pair(self, rng, n=20, offset=None):
        src = rng.normal(size=(n, 3)) * 4
        transform = offset or RigidTransform.identity()
        tgt = geometry.apply_transform(transform, src)
        neighbors = geometry.knn_search(geometry.apply_transform(transform, src), tgt, 3)
        # One-hot (diffusion-space) correspondence on the true match.
        c0 = -np.ones((n, 3))
        true_col = (neighbors.indices == np.arange(n)[:, None]).argmax(axis=1)
        c0[np.arange(n), true_col] = 1.0
        return src, tgt, neighbors, c0

    def test_one_hot_identity(self):
        rng = np.random.default_rng(12)
        src, tgt, neighbors, c0 = self.setup_pair(rng)
        conf = coarse.make_confidence_head(4, np.random.default_rng(13))
        tgt_desc = rng.normal(size=(20, 4))
        step, _ = diff.correspondence_to_transform(c0, src, neighbors.indices, tgt,
                                                   tgt_desc, conf)
        assert np.abs(step.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(step.translation).max() < 1e-9

    def test_one_hot_recovers_offset(self):
        rng = np.random.default_rng(14)
        gt = random_rigid_transform(rng, 20.0, 1.5)
        src = rng.normal(size=(25, 3)) * 4
        tgt = geometry.apply_transform(gt, src)
        neighbors = geometry.knn_search(src, tgt, 3)
        c0 = -np.ones((25, 3))
        true_col = (neighbors.indices == np.arange(25)[:, None]).argmax(axis=1)
        assert (neighbors.indices[np.arange(25), true_col] == np.arange(25)).all()
        c0[np.arange(25), true_col] = 1.0
        conf = coarse.make_confidence_head(4, np.random.default_rng(15))
        step, _ = diff.correspondence_to_transform(c0, src, neighbors.indices, tgt,
                                                   rng.normal(size=(25, 4)), conf)
        assert np.abs(step.rotation - gt.rotation).max() < 1e-9
        assert np.abs(step.translation - gt.translation).max() < 1e-9

    def test_uniform_rows_still_valid(self):
        rng = np.random.default_rng(16)
        src, tgt, neighbors, _ = self.setup_pair(rng)
        conf = coarse.make_confidence_head(4, np.random.default_rng(17))
        step, cache = diff.correspondence_to_transform(
            np.zeros((20, 3)), src, neighbors.indices, tgt, rng.normal(size=(20, 4)), conf)
        np.testing.assert_allclose(step.rotation.T @ step.rotation, np.eye(3),
                                   atol=1e-9)
        np.testing.assert_allclose(cache["weights"], 1.0 / 3.0, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(18)
        src = rng.normal(size=(8, 3)) * 3
        tgt = rng.normal(size=(12, 3)) * 3
        tgt_desc = rng.normal(size=(12, 4))
        neighbors = geometry.knn_search(src, tgt, 3)
        conf = coarse.make_confidence_head(4, np.random.default_rng(19))
        c0 = nnet.Param(rng.uniform(-0.5, 0.5, size=(8, 3)))
        src_p = nnet.Param(src.copy())
        g_rot = rng.normal(size=(3, 3))
        g_trans = rng.normal(size=3)
        params = dict(conf.named_params("conf"))
        # A mild temperature keeps the softmax unsaturated for the check.
        temp = 0.5

        def fb():
            for p in list(params.values()) + [c0, src_p]:
                p.zero_grad()
            step, cache = diff.correspondence_to_transform(
                c0.value, src_p.value, neighbors.indices, tgt, tgt_desc, conf,
                temperature=temp)
            loss = (step.rotation * g_rot).sum() + step.translation @ g_trans
            g_c0, g_warped, _, _ = diff.correspondence_to_transform_backward(
                cache, conf, g_rot, g_trans)
            c0.grad += g_c0
            src_p.grad += g_warped
            return loss

        everything = {**params, "c0": c0, "src": src_p}
        assert nnet.finite_diff_check(fb, everything, h=1e-6, max_coords=6, seed=3) < 1e-3


class TestDdimStep:
    def test_oracle_reconstruction_any_partition(self):
        s = diff.make_schedule()
        rng = np.random.default_rng(20)
        c0 = rng.uniform(-1, 1, size=(10, 3))
        for steps in (1, 3, 10):
            c = diff.q_sample(s, c0, 1000, rng.normal(size=(10, 3)))
            ts = diff.ddim_timesteps(1000, steps)
            for t, t_prev in zip(ts[:-1], ts[1:]):
                c = diff.ddim_step(s, c, c0, int(t), int(t_prev))
            assert np.abs(c - c0).max() < 1e-9

    def test_final_step_returns_c0(self):
        s = diff.make_schedule()
        rng = np.random.default_rng(21)
        c0 = rng.uniform(-1, 1, size=(4, 2))
        ct = rng.normal(size=(4, 2))
        out = diff.ddim_step(s, ct, c0, 500, 0)
        np.testing.assert_array_equal(out, c0)

    def test_deterministic(self):
        s = diff.make_schedule()
        rng = np.random.default_rng(22)
        ct, c0 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        a = diff.ddim_step(s, ct, c0, 100, 50)
        b = diff.ddim_step(s, ct, c0, 100, 50)
        np.testing.assert_array_equal(a, b)

    def test_bad_order(self):
        s = diff.make_schedule(10)
        with pytest.raises(ValueError):
            diff.ddim_step(s, np.zeros((1, 1)), np.zeros((1, 1)), 3, 3)

    def test_timesteps_spacing(self):
        ts = diff.ddim_timesteps(1000, 3)
        assert list(ts) == [1000, 667, 333, 0]
        assert list(diff.ddim_timesteps(1000, 1)) == [1000, 0]


class TestAutoregressiveInference:
    def make_scene(self, seed, n=64, jitter=0.0):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-10, 10, size=(6, 3))
        src = centers[rng.integers(0, 6, size=n)] + rng.normal(scale=0.7, size=(n, 3))
        gt = random_rigid_transform(rng, 8.0, 1.5)
        tgt = geometry.apply_transform(gt, src)
        if jitter:
            tgt = tgt + rng.normal(scale=jitter, size=tgt.shape)
        c = 6
        fine_src = FeatureSet(src, rng.normal(size=(n, c)), rng.uniform(0.2, 0.8, n))
        fine_tgt = FeatureSet(tgt, rng.normal(size=(n, c)), rng.uniform(0.2, 0.8, n))
        return fine_src, fine_tgt, gt, rng

    def test_oracle_denoiser_recovers_gt(self):
        fine_src, fine_tgt, gt, rng = self.make_scene(23)
        schedule = diff.make_schedule()
        conf = coarse.make_confidence_head(6, np.random.default_rng(24))
        c_gt, _ = diff.build_gt_correspondence(fine_src.points, fine_tgt.points,
                                               gt, k=3)
        final, buffer, _ = diff.autoregressive_infer(
            gt, fine_src, fine_tgt, denoiser=None, confidence=conf,
            schedule=schedule, k=3, steps=3, seed=0,
            denoise_fn=lambda c_t, t, f_g, f_d: c_gt)
        assert np.abs(final.translation - gt.translation).max() < 1e-6
        angle = np.degrees(np.arccos(np.clip(
            (np.trace(gt.rotation.T @ final.rotation) - 1) / 2, -1, 1)))
        assert angle < 1e-6
        assert len(buffer.steps) == 3

    def test_single_step_valid(self):
        fine_src, fine_tgt, gt, _ = self.make_scene(25)
        schedule = diff.make_schedule()
        den = diff.make_denoiser(6, np.random.default_rng(26))
        conf = coarse.make_confidence_head(6, np.random.default_rng(27))
        final, buffer, _ = diff.autoregressive_infer(
            gt, fine_src, fine_tgt, den, conf, schedule, k=3, steps=1, seed=0)
        np.testing.assert_allclose(final.rotation.T @ final.rotation, np.eye(3),
                                   atol=1e-9)
        assert len(buffer.steps) == 1

    def test_buffer_running_product(self):
        fine_src, fine_tgt, gt, _ = self.make_scene(28)
        schedule = diff.make_schedule()
        den = diff.make_denoiser(6, np.random.default_rng(29))
        conf = coarse.make_confidence_head(6, np.random.default_rng(30))
        _, buffer, _ = diff.autoregressive_infer(
            gt, fine_src, fine_tgt, den, conf, schedule, k=3, steps=4, seed=1)
        running = buffer.initial
        for step, cum in zip(buffer.steps, buffer.cumulative):
            running = geometry.compose(step, running)
            np.testing.assert_allclose(cum.rotation, running.rotation, atol=1e-12)
            np.testing.assert_allclose(cum.translation, running.translation, atol=1e-12)

    def test_trace_rows(self):
        fine_src, fine_tgt, gt, _ = self.make_scene(31)
        schedule = diff.make_schedule()
        conf = coarse.make_confidence_head(6, np.random.default_rng(32))
        c_gt, _ = diff.build_gt_correspondence(fine_src.points, fine_tgt.points,
                                               gt, k=3)
        _, _, trace = diff.autoregressive_infer(
            gt, fine_src, fine_tgt, None, conf, schedule, k=3, steps=3, seed=0,
            denoise_fn=lambda c_t, t, f_g, f_d: c_gt, gt=gt)
        assert [row.step for row in trace] == [1000, 667, 333]
        assert trace[-1].rte < 1e-6

    def test_nan_aborts_with_diagnostics(self):
        fine_src, fine_tgt, gt, _ = self.make_scene(33)
        schedule = diff.make_schedule()
        conf = coarse.make_confidence_head(6, np.random.default_rng(34))

        def bad(c_t, t, f_g, f_d):
            out = np.zeros_like(c_t)
            out[0, 0] = np.nan
            return out

        with pytest.raises(diff.NumericalError) as exc_info:
            diff.autoregressive_infer(gt, fine_src, fine_tgt, None, conf,
                                      schedule, k=3, steps=2, seed=0,
                                      denoise_fn=bad)
        assert exc_info.value.diagnostics["step"] == 1000
