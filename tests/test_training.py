import hashlib
import re
import sys
import threading

import numpy as np
import pytest

from adreg import bgmm, geometry, nnet, training
from adreg.geometry import RigidTransform, random_rigid_transform
from adreg.io import CheckpointError, RunConfig


def tiny_config(**overrides):
    base = dict(train_points=96, backbone_scale=1.0 / 32.0, train_pairs=4,
                val_pairs=1, batch_size=2, epochs=1, outlier_clusters=0,
                max_rot_deg=8.0, max_trans=1.0, jitter=0.03, gmm_components=4,
                bgmm_topk=2)
    base.update(overrides)
    return RunConfig(**base)


class TestLossTotal:
    def test_zero_at_ground_truth(self):
        rng = np.random.default_rng(0)
        gt = random_rigid_transform(rng, 30.0, 2.0)
        c = rng.uniform(-1, 1, size=(10, 3))
        total, terms, _ = training.loss_total(gt, gt, gt, c, c, RunConfig())
        assert total < 1e-12
        assert all(v < 1e-12 for v in terms.values())

    def test_translation_example(self):
        gt = RigidTransform(np.eye(3), np.array([0.0, 0.0, 2.0]))
        ident = RigidTransform.identity()
        c = np.zeros((4, 3))
        total, terms, _ = training.loss_total(ident, ident, gt, c, c,
                                              RunConfig(rot_weight=4.0, trans_weight=1.0,
                                                        diff_weight=1.0))
        assert terms["trans_coarse"] == pytest.approx(2.0)
        assert terms["trans_fine"] == pytest.approx(2.0)
        assert total == pytest.approx(4.0)

    def test_loss_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_rigid_transform(rng, 90.0, 3.0)
            b = random_rigid_transform(rng, 90.0, 3.0)
            gt = random_rigid_transform(rng, 90.0, 3.0)
            c0 = rng.normal(size=(5, 2))
            cgt = rng.normal(size=(5, 2))
            total, _, _ = training.loss_total(a, b, gt, c0, cgt, RunConfig())
            assert total >= 0.0

    def test_transform_loss_gradients(self):
        rng = np.random.default_rng(2)
        r_gt = random_rigid_transform(rng, 60.0, 1.0).rotation
        t_gt = rng.normal(size=3)
        r_est = nnet.Param(random_rigid_transform(rng, 60.0, 1.0).rotation)
        t_est = nnet.Param(rng.normal(size=3))

        def fb():
            r_est.zero_grad()
            t_est.zero_grad()
            lv, lg = training.rotation_loss(r_est.value, r_gt)
            tv, tg = training.translation_loss(t_est.value, t_gt)
            r_est.grad += lg
            t_est.grad += tg
            return lv + tv

        err = nnet.finite_diff_check(fb, {"r": r_est, "t": t_est}, h=1e-6)
        assert err < 1e-6

    def test_shape_mismatch(self):
        gt = RigidTransform.identity()
        with pytest.raises(ValueError):
            training.loss_total(gt, gt, gt, np.zeros((3, 2)), np.zeros((3, 3)),
                                RunConfig())


class TestSyntheticPairs:
    def test_exact_copy_without_noise(self):
        rng = np.random.default_rng(3)
        pair = training.gen_synthetic_pair(rng, 256, 10.0, 2.0, 0.0, 0)
        np.testing.assert_allclose(
            pair.target, geometry.apply_transform(pair.transform, pair.source),
            atol=1e-12)
        assert not pair.source_outlier_mask.any()
        assert not pair.target_outlier_mask.any()

    def test_seed_repeatable(self):
        a = training.gen_synthetic_pair(np.random.default_rng(4), 256, 10, 2, 0.05, 2)
        b = training.gen_synthetic_pair(np.random.default_rng(4), 256, 10, 2, 0.05, 2)
        np.testing.assert_array_equal(a.source, b.source)
        np.testing.assert_array_equal(a.target, b.target)
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)

    def test_outlier_geometry(self):
        rng = np.random.default_rng(5)
        pair = training.gen_synthetic_pair(rng, 512, 10.0, 2.0, 0.05, 2)
        assert pair.source_outlier_mask.sum() >= 32
        out_pts = pair.source[pair.source_outlier_mask]
        assert (np.linalg.norm(out_pts, axis=1) > 15.0).all()

    def test_bgmm_removal_on_masked_pair(self):
        # The bidirectional rejection drops injected clusters, keeps inliers
        # (single-seed smoke; the 20-seed average lives in the acceptance
        # suite).
        rng = np.random.default_rng(6)
        pair = training.gen_synthetic_pair(rng, 1024, 10.0, 2.0, 0.05, 2)
        src_model = bgmm.fit_gmm(pair.source, 8, seed=0)
        tgt_model = bgmm.fit_gmm(pair.target, 8, seed=0)
        _, _, src_keep, tgt_keep = bgmm.remove_outliers(
            src_model, pair.source, tgt_model, pair.target, k=2)
        removed_outliers = (~src_keep)[pair.source_outlier_mask].mean()
        removed_inliers = (~src_keep)[~pair.source_outlier_mask].mean()
        assert removed_outliers >= 0.9
        assert removed_inliers <= 0.05

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            training.gen_synthetic_pair(np.random.default_rng(7), 32, 10, 2, 0, 0)


class TestTrainingStep:
    def test_loss_runs_and_grads_flow(self):
        cfg = tiny_config()
        model = training.RegistrationModel(cfg)
        rng = np.random.default_rng(8)
        pair = training.gen_synthetic_pair(rng, cfg.train_points, cfg.max_rot_deg,
                                           cfg.max_trans, cfg.jitter, 0)
        pair = training._preprocess_pair(pair, cfg, 0)
        model.zero_grads()
        ctx, so, to = training.make_step_context(model, pair, rng)
        total, terms = training.training_loss(model, pair, ctx, outputs=(so, to))
        assert np.isfinite(total) and total > 0
        norms = {k: float(np.abs(p.grad).max()) for k, p in model.named_params().items()}
        assert all(v > 0 for v in norms.values()), \
            [k for k, v in norms.items() if v == 0]
        # An eval-mode forward keeps no caches to backpropagate.
        with pytest.raises(ValueError, match="train-mode forward"):
            training.training_loss(model, pair, ctx, train=False)

    def test_full_loss_gradcheck(self):
        cfg = tiny_config()
        model = training.RegistrationModel(cfg)
        rng = np.random.default_rng(9)
        pair = training.gen_synthetic_pair(rng, cfg.train_points, cfg.max_rot_deg,
                                           cfg.max_trans, cfg.jitter, 0)
        pair = training._preprocess_pair(pair, cfg, 0)
        ctx, _, _ = training.make_step_context(model, pair, rng)
        params = model.named_params()

        def fb():
            model.zero_grads()
            total, _ = training.training_loss(model, pair, ctx)
            return total

        def loss_only():
            total, _ = training.training_loss(model, pair, ctx,
                                              compute_grads=False)
            return total

        err = nnet.finite_diff_check(fb, params, h=1e-5, max_coords=2, seed=4,
                                     forward_only=loss_only)
        assert err < 1e-3

    def test_descent_after_one_epoch(self):
        # At the tiny config's scale of 1/32, layers 2 and 3 group their
        # whole input, so the 8 coarse superpoints collapse into one blob,
        # the coarse SVD is near rank one and the loss is too stiff for any
        # Adam step to descend. At 1/8 no layer groups its whole input.
        cfg = tiny_config(epochs=1, learning_rate=5e-4, backbone_scale=0.125,
                          train_points=256)
        pairs = [training._preprocess_pair(
            training.gen_synthetic_pair(np.random.default_rng(100 + i),
                                        cfg.train_points, cfg.max_rot_deg,
                                        cfg.max_trans, cfg.jitter, 0), cfg, i)
            for i in range(4)]

        def mean_loss(model):
            rng = np.random.default_rng(11)
            vals = []
            for pair in pairs:
                ctx, so, to = training.make_step_context(model, pair, rng)
                total, _ = training.training_loss(model, pair, ctx,
                                                  compute_grads=False,
                                                  outputs=(so, to))
                vals.append(total)
            return float(np.mean(vals))

        model = training.RegistrationModel(cfg)
        before = mean_loss(model)
        optimizer = model.make_optimizer()
        rng = np.random.default_rng(12)
        for _ in range(2):
            for start in range(0, 4, cfg.batch_size):
                optimizer.zero_grad()
                for pair in pairs[start:start + cfg.batch_size]:
                    ctx, so, to = training.make_step_context(model, pair, rng)
                    training.training_loss(model, pair, ctx,
                                           grad_scale=1.0 / cfg.batch_size,
                                           outputs=(so, to))
                optimizer.step()
        after = mean_loss(model)
        assert after < before

    def test_learning_rate_schedule(self):
        cfg = RunConfig()
        assert training.learning_rate_at(cfg, 0) == 1e-3
        assert training.learning_rate_at(cfg, 9) == 1e-3
        assert training.learning_rate_at(cfg, 10) == 5e-4
        assert training.learning_rate_at(cfg, 20) == 2.5e-4


class TestConcurrentStep:
    """Each training step runs the two clouds' backbone forwards, and then
    their backwards, on two threads."""

    @staticmethod
    def digest(named_arrays):
        h = hashlib.sha256()
        for name, arr in named_arrays:
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def test_three_steps_match_the_sequential_step_bit_for_bit(self):
        # The digests were computed at commit 09b8a3c, whose step ran both
        # forwards and then both backwards one after the other: batch norm
        # updated its running statistics during each forward, and each
        # backward added into Param.grad directly. Two pairs per step make
        # the second pair's gradients add onto nonzero ones, where the
        # order of the source and target additions shows.
        cfg = RunConfig(backbone_scale=0.25)
        model = training.RegistrationModel(cfg)
        optimizer = model.make_optimizer()
        data_rng = np.random.default_rng(21)
        step_rng = np.random.default_rng([21, 3])
        losses = []
        for _ in range(3):
            optimizer.zero_grad()
            for i in range(2):
                pair = training.gen_synthetic_pair(
                    data_rng, cfg.train_points, cfg.max_rot_deg, cfg.max_trans,
                    cfg.jitter, cfg.outlier_clusters)
                pair = training._preprocess_pair(pair, cfg, i)
                ctx, so, to = training.make_step_context(model, pair, step_rng)
                total, _ = training.training_loss(model, pair, ctx, grad_scale=0.5,
                                                  outputs=(so, to))
                losses.append(total)
            optimizer.step()
        assert losses == [6.188949358616934, 1.7166763034798485, 2.463124547385996,
                          2.105925608797264, 2.3278783281134405, 6.156136856884285]
        grads = [(name, p.grad) for name, p in model.named_params().items()]
        assert self.digest(grads) == \
            "64292fafd5fec129273804c9a064ea97be776ea6935b39b6bd200d3b2f92c0c4"
        assert self.digest(model._buffer_modules()) == \
            "c464ed8a1d07613d66eed8e5b6b3e8a6ae0948893b45e47ec04b9e916a34fc32"

    @staticmethod
    def step_inputs():
        cfg = tiny_config()
        model = training.RegistrationModel(cfg)
        rng = np.random.default_rng(8)
        pair = training.gen_synthetic_pair(rng, cfg.train_points, cfg.max_rot_deg,
                                           cfg.max_trans, cfg.jitter, 0)
        return model, training._preprocess_pair(pair, cfg, 0), rng

    def test_target_forward_raises_and_leaves_no_thread(self):
        model, pair, rng = self.step_inputs()
        n_out = model.backbone.configs[0].n_out
        short = training.SyntheticPair(pair.source, pair.target[:n_out - 1],
                                       pair.transform, pair.source_outlier_mask,
                                       pair.target_outlier_mask)
        buffers = self.digest(model._buffer_modules())
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match=f"backbone needs at least {n_out} points"):
            training.make_step_context(model, short, rng)
        assert set(threading.enumerate()) == before
        # The source's batch statistics are folded in only after both
        # forwards succeed.
        assert self.digest(model._buffer_modules()) == buffers

    def test_target_backward_raises_and_leaves_no_thread(self, monkeypatch):
        model, pair, rng = self.step_inputs()
        ctx, so, to = training.make_step_context(model, pair, rng)
        model.zero_grads()
        backward = model.backbone.backward

        def failing_on_target(out, **grads):
            if out is to:
                raise RuntimeError("target backward failed")
            return backward(out, **grads)

        monkeypatch.setattr(model.backbone, "backward", failing_on_target)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="target backward failed"):
            training.training_loss(model, pair, ctx, outputs=(so, to))
        assert set(threading.enumerate()) == before
        # Neither side's backbone gradients reached Param.grad.
        for name, p in model.backbone.named_params():
            assert not p.grad.any(), name


class TestTrainLoop:
    def test_short_train_deterministic(self, tmp_path):
        cfg = tiny_config(epochs=2, train_pairs=3, val_pairs=1)
        a = training.train(cfg)
        b = training.train(cfg)
        assert not a.aborted and not b.aborted
        assert list(a.checkpoint.tensors) == list(b.checkpoint.tensors)
        for name in a.checkpoint.tensors:
            assert a.checkpoint.tensors[name].tobytes() == \
                b.checkpoint.tensors[name].tobytes(), name
        log_a = tmp_path / "a.csv"
        log_b = tmp_path / "b.csv"
        training.write_training_log(log_a, a.logs)
        training.write_training_log(log_b, b.logs)
        assert log_a.read_bytes() == log_b.read_bytes()

    def test_log_columns(self, tmp_path):
        cfg = tiny_config(epochs=1, train_pairs=2, val_pairs=1)
        result = training.train(cfg, log_path=tmp_path / "log.csv")
        text = (tmp_path / "log.csv").read_text().splitlines()
        assert text[0] == "epoch,loss_trans,loss_rot,loss_diff,val_rte,val_rre"
        assert len(text) == 2
        assert len(result.logs) == 1

    def test_checkpoint_model_round_trip(self):
        cfg = tiny_config(epochs=1, train_pairs=2, val_pairs=1)
        result = training.train(cfg)
        model = training.RegistrationModel.from_checkpoint(result.checkpoint)
        again = model.to_checkpoint()
        for name, arr in again.tensors.items():
            if name.startswith(("param.", "buffer.", "schedule.", "config.")):
                assert arr.tobytes() == result.checkpoint.tensors[name].tobytes(), name


class TestCheckpointErrors:
    """A checkpoint that cannot rebuild a model raises CheckpointError
    naming the tensor at fault."""

    @staticmethod
    def checkpoint():
        return training.RegistrationModel(tiny_config()).to_checkpoint()

    def test_invalid_stored_config(self):
        ckpt = self.checkpoint()
        ckpt.tensors["config.bgmm_topk"] = np.array([9.0])
        with pytest.raises(CheckpointError, match=r"'config\.bgmm_topk'.*bgmm_topk \(9\)"):
            training.RegistrationModel.from_checkpoint(ckpt)

    def test_missing_tensor(self):
        ckpt = self.checkpoint()
        key = next(k for k in ckpt.tensors if k.startswith("param."))
        del ckpt.tensors[key]
        with pytest.raises(CheckpointError, match=f"lacks tensor '{re.escape(key)}'"):
            training.RegistrationModel.from_checkpoint(ckpt)

    @pytest.mark.parametrize("key, value", [
        ("config.seed", []),
        ("config.seed", [np.nan]),
        ("config.candidates", [np.inf]),
        ("config.candidates", [2.7]),
        ("config.candidates", [3.0, 4.0]),
    ], ids=["empty", "nan", "inf", "fraction", "two-values"])
    def test_config_tensor_needs_one_finite_value(self, key, value):
        ckpt = self.checkpoint()
        ckpt.tensors[key] = np.array(value, dtype=np.float64)
        with pytest.raises(CheckpointError, match=f"tensor '{re.escape(key)}'"):
            training.RegistrationModel.from_checkpoint(ckpt)

    @pytest.mark.parametrize("betas", [np.full(10, 0.01), np.zeros(0),
                                       np.array([np.nan]), np.array([1.5])],
                             ids=["ten-steps", "empty", "nan", "above-one"])
    def test_noise_schedule_comes_from_the_config(self, betas):
        model = training.RegistrationModel(tiny_config())
        ckpt = model.to_checkpoint()
        assert not any(k.startswith("schedule.") for k in ckpt.tensors)
        ckpt.tensors["schedule.betas"] = betas
        loaded = training.RegistrationModel.from_checkpoint(ckpt).schedule
        assert loaded.betas.tobytes() == model.schedule.betas.tobytes()
        assert loaded.alpha_bars.tobytes() == model.schedule.alpha_bars.tobytes()

    @pytest.mark.parametrize("kind", ["param.", "buffer."])
    def test_size_mismatch(self, kind):
        ckpt = self.checkpoint()
        key = next(k for k in ckpt.tensors if k.startswith(kind))
        ckpt.tensors[key] = ckpt.tensors[key][:-1]
        with pytest.raises(CheckpointError, match=f"tensor '{re.escape(key)}' holds"):
            training.RegistrationModel.from_checkpoint(ckpt)


class TestRegisterPair:
    def test_two_scale_quarter_pairs_give_the_pinned_transforms(self):
        # The hash was computed at commit 16540cb, before the eval-mode front
        # half moved to L2-sized blocks, einsum member fusion and a lexsort
        # voxel grid. Any change to the registration's arithmetic shows here.
        cfg = RunConfig(backbone_scale=0.25)
        model = training.RegistrationModel(cfg)
        rng = np.random.default_rng(71)
        h = hashlib.sha256()
        for seed in range(2):
            pair = training.gen_synthetic_pair(rng, cfg.train_points, cfg.max_rot_deg,
                                               cfg.max_trans, cfg.jitter,
                                               cfg.outlier_clusters)
            result = training.register_pair(model, pair.source, pair.target, seed=seed)
            h.update(result.transform.rotation.tobytes())
            h.update(result.transform.translation.tobytes())
        assert h.hexdigest() == \
            "9702dc871c232450ad153749e6e5a1035483735d3197d038b40423b588832564"

    def test_runs_end_to_end_untrained(self):
        cfg = tiny_config()
        model = training.RegistrationModel(cfg)
        rng = np.random.default_rng(13)
        pair = training.gen_synthetic_pair(rng, cfg.train_points, 5.0, 0.5,
                                           cfg.jitter, 0)
        result = training.register_pair(model, pair.source, pair.target,
                                        seed=0, gt=pair.transform)
        rot = result.transform.rotation
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-9)
        assert len(result.buffer.steps) == cfg.sampling_steps
        assert len(result.trace) == cfg.sampling_steps
        assert result.diagnostics.src_kept > 0

    def test_deterministic(self):
        cfg = tiny_config()
        model = training.RegistrationModel(cfg)
        pair = training.gen_synthetic_pair(np.random.default_rng(14),
                                           cfg.train_points, 5.0, 0.5, 0.02, 0)
        a = training.register_pair(model, pair.source, pair.target, seed=3)
        b = training.register_pair(model, pair.source, pair.target, seed=3)
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
        np.testing.assert_array_equal(a.transform.translation, b.transform.translation)

    def test_concurrent_calls_on_one_model_match_sequential(self):
        # More threads than cores on one shared model, switching as often as
        # the interpreter allows: a race on shared state in either cloud's
        # front half would show as a result that differs from the sequential one.
        cfg = tiny_config()
        model = training.RegistrationModel(cfg)
        pairs = [training.gen_synthetic_pair(np.random.default_rng(40 + i),
                                             cfg.train_points, 5.0, 0.5, 0.02, 0)
                 for i in range(4)]
        want = [training.register_pair(model, p.source, p.target, seed=i)
                for i, p in enumerate(pairs)]
        got = [None] * len(pairs)

        def work(i):
            got[i] = training.register_pair(model, pairs[i].source,
                                            pairs[i].target, seed=i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(pairs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(got, want):
            for tf in ("transform", "coarse_transform"):
                assert getattr(a, tf).rotation.tobytes() == getattr(b, tf).rotation.tobytes()
                assert getattr(a, tf).translation.tobytes() == \
                    getattr(b, tf).translation.tobytes()
            assert a.diagnostics == b.diagnostics

    def test_small_target_raises_and_leaves_no_thread(self):
        cfg = tiny_config()
        model = training.RegistrationModel(cfg)
        pair = training.gen_synthetic_pair(np.random.default_rng(13),
                                           cfg.train_points, 5.0, 0.5, cfg.jitter, 0)
        n_out = model.backbone.configs[0].n_out
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match=f"backbone needs at least {n_out} points"):
            training.register_pair(model, pair.source, pair.target[:n_out - 1])
        assert set(threading.enumerate()) == before
