import contextlib
import gc
import hashlib
import itertools
import os
import re
import signal
import sys
import threading
import time

import numpy as np
import pytest

from adreg import bgmm, geometry, nnet, training
from adreg.coarse import DegeneracyError
from adreg.geometry import RigidTransform, random_rigid_transform
from adreg.io import Checkpoint, CheckpointError, RunConfig, write_ply, write_pose_file


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
            training.training_loss(model, pair, ctx, train=False, outputs=(so, to))

    def test_full_loss_gradcheck(self):
        cfg = tiny_config()
        model = training.RegistrationModel(cfg)
        rng = np.random.default_rng(9)
        pair = training.gen_synthetic_pair(rng, cfg.train_points, cfg.max_rot_deg,
                                           cfg.max_trans, cfg.jitter, 0)
        pair = training._preprocess_pair(pair, cfg, 0)
        ctx, so, to = training.make_step_context(model, pair, rng)
        params = model.named_params()

        def outputs():
            # Each probe reruns both forwards with the step's sampling plans.
            return tuple(model.backbone.forward(cloud, seed=cfg.seed, train=True,
                                                plans=out.plans)
                         for cloud, out in ((pair.source, so), (pair.target, to)))

        def fb():
            model.zero_grads()
            total, _ = training.training_loss(model, pair, ctx, outputs=outputs())
            return total

        def loss_only():
            total, _ = training.training_loss(model, pair, ctx, compute_grads=False,
                                              outputs=outputs())
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
        # order of the source and target additions shows. They were retaken
        # with BLAS on one thread, the regime conftest.py sets up.
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
        assert losses == [6.188949358616937, 1.716676303479848, 2.4631245473860055,
                          2.1059256087972664, 2.3278783281134547, 6.15613685688429]
        grads = [(name, p.grad) for name, p in model.named_params().items()]
        assert self.digest(grads) == \
            "5d6fcf2c4b0928d1273e381b56da96fda75be7d720420b778ba9b3ec887503bc"
        assert self.digest(model._buffer_modules()) == \
            "2d3176d71d479b4281974f80ab4fe85736c101484551c82fe5f924aa71f56b69"

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

    def test_target_layer_two_raises_and_leaves_no_thread(self, monkeypatch):
        # The failure comes after layer 1 has run on both clouds, whose batch
        # statistics must still not reach the running ones.
        model, pair, rng = self.step_inputs()
        layer = model.backbone.layers[1]
        forward = layer.forward
        caller = threading.current_thread()
        calls = []

        def failing_off_the_calling_thread(*args, **kwargs):
            calls.append(threading.current_thread() is caller)
            if not calls[-1]:
                raise RuntimeError("target layer 2 failed")
            return forward(*args, **kwargs)

        monkeypatch.setattr(layer, "forward", failing_off_the_calling_thread)
        buffers = self.digest(model._buffer_modules())
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="target layer 2 failed"):
            training.make_step_context(model, pair, rng)
        assert set(threading.enumerate()) == before
        assert sorted(calls) == [False, True]
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

    def test_epoch_that_skips_every_sample_logs_nan_losses(self, monkeypatch):
        monkeypatch.setattr(training, "_train_sample", lambda *args, **kwargs: None)
        cfg = tiny_config(epochs=1, train_pairs=2)
        result = training.train(cfg)
        assert not result.aborted
        assert result.skipped_samples == cfg.train_pairs
        (log,) = result.logs
        assert np.isnan([log.loss_trans, log.loss_rot, log.loss_diff]).all()

    @staticmethod
    def write_pairs(path, count):
        cfg = tiny_config()
        rng = np.random.default_rng(12)
        pairs = [training.gen_synthetic_pair(rng, cfg.train_points, cfg.max_rot_deg,
                                             cfg.max_trans, cfg.jitter, 0)
                 for _ in range(count)]
        for i, pair in enumerate(pairs):
            write_ply(path / f"pair_{i:04d}_src.ply", pair.source)
            write_ply(path / f"pair_{i:04d}_tgt.ply", pair.target)
        write_pose_file(path / "gt.txt", [pair.transform for pair in pairs])

    def test_pair_directory_holds_out_its_validation_pairs(self, tmp_path, monkeypatch):
        self.write_pairs(tmp_path, 3)
        seen = {"train": [], "val": []}
        preprocess, validate = training._preprocess_pair, training._validate

        def spy_preprocess(pair, config, idx):
            seen["train"].append(pair.source.tobytes())
            return preprocess(pair, config, idx)

        def spy_validate(model, val_pairs):
            seen["val"].extend(pair.source.tobytes() for pair in val_pairs)
            return validate(model, val_pairs)

        monkeypatch.setattr(training, "_preprocess_pair", spy_preprocess)
        monkeypatch.setattr(training, "_validate", spy_validate)
        result = training.train(tiny_config(epochs=1, batch_size=2), data_dir=tmp_path)
        assert len(result.logs) == 1
        sources = [s.tobytes() for s, _, _ in training.load_pair_dir(tmp_path)]
        assert seen["val"] == sources[:1]
        assert seen["train"] == sources[1:]

    @pytest.mark.parametrize("count", [0, 1])
    def test_pair_directory_needs_two_pairs(self, tmp_path, count):
        self.write_pairs(tmp_path, count)
        with pytest.raises(ValueError, match="at least 2"):
            training.train(tiny_config(epochs=1), data_dir=tmp_path)

    @pytest.mark.parametrize("index, side", [(1, "src"), (0, "tgt")],
                             ids=["training-pair", "validation-pair"])
    def test_pair_too_small_for_layer_one_fails_before_the_first_step(
            self, tmp_path, monkeypatch, index, side):
        # Layer 1 of the tiny config's scale 1/32 samples 32 points; of 3
        # pairs the first is held out for validation.
        self.write_pairs(tmp_path, 3)
        name = f"pair_{index:04d}_{side}.ply"
        write_ply(tmp_path / name, np.arange(30.0).reshape(10, 3))
        steps = []
        monkeypatch.setattr(training, "make_step_context",
                            lambda *args: steps.append(args))
        with pytest.raises(ValueError, match=rf"{name} fills 10 voxels .* 32 points"):
            training.train(tiny_config(epochs=1, batch_size=2), data_dir=tmp_path)
        assert not steps

    @pytest.mark.parametrize("degenerate", [(), (1,)], ids=["normal", "degenerate-first"])
    def test_each_sample_frees_its_caches_before_the_next_forward(
            self, monkeypatch, array_weakrefs, degenerate):
        make_step_context, training_loss = training.make_step_context, training.training_loss
        live, alive_at_start, loss_calls = [], [], itertools.count(1)

        def step_context(model, pair, rng):
            gc.collect()
            alive_at_start.append(sum(r() is not None for r in live))
            ctx, so, to = make_step_context(model, pair, rng)
            # The pair's clouds stay in the training set.
            live[:] = array_weakrefs([so.cache, to.cache], held=[pair])
            return ctx, so, to

        def loss(*args, **kwargs):
            if next(loss_calls) in degenerate:
                raise DegeneracyError("forced before the backward")
            return training_loss(*args, **kwargs)

        monkeypatch.setattr(training, "make_step_context", step_context)
        monkeypatch.setattr(training, "training_loss", loss)
        result = training.train(tiny_config(epochs=1, train_pairs=4, batch_size=2))
        assert result.skipped_samples == len(degenerate)
        assert alive_at_start == [0, 0, 0, 0]
        assert len(live) > 50

    def test_checkpoint_holds_what_rebuilds_the_model(self):
        cfg = tiny_config(epochs=1, train_pairs=2, val_pairs=1)
        tensors = training.train(cfg).checkpoint.tensors
        model = training.RegistrationModel(cfg)
        want = ([f"param.{name}" for name in model.named_params()]
                + [f"buffer.{name}" for name, _ in model._buffer_modules()]
                + [f"config.{name}" for name in vars(cfg)])
        assert list(tensors) == want
        assert len(want) == 205

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
        for kind in ("param.", "buffer.", "config."):
            ckpt = self.checkpoint()
            key = next(k for k in ckpt.tensors if k.startswith(kind))
            del ckpt.tensors[key]
            with pytest.raises(CheckpointError, match=f"lacks tensor '{re.escape(key)}'"):
                training.RegistrationModel.from_checkpoint(ckpt)

    def test_older_writers_optimizer_tensors_are_ignored(self):
        # Earlier writers also stored Adam's step count and moments. Moved
        # values show that the stored ones, not a fresh model's, are loaded.
        model = training.RegistrationModel(tiny_config())
        ckpt = model.to_checkpoint()
        for name, arr in ckpt.tensors.items():
            if not name.startswith("config."):
                ckpt.tensors[name] = arr * 1.5 + 0.25
        old = dict(ckpt.tensors, **{"optim.step": np.array([3.0])})
        for name, p in model.named_params().items():
            old[f"optim.m.{name}"] = np.full(p.value.size, 0.5)
            old[f"optim.v.{name}"] = np.full(p.value.size, 0.25)
        loaded = training.RegistrationModel.from_checkpoint(Checkpoint(tensors=old))
        again = loaded.to_checkpoint().tensors
        assert list(again) == list(ckpt.tensors)
        for name, arr in again.items():
            assert arr.tobytes() == ckpt.tensors[name].tobytes(), name

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

    @pytest.mark.parametrize("key, value", [
        ("param.backbone.lift.w", np.nan),
        ("param.backbone.layer1.det.block0.bn.gamma", np.inf),
        ("buffer.backbone.layer1.det.block0.bn.running_mean", -np.inf),
        ("buffer.backbone.layer1.det.block0.bn.running_var", np.nan),
        ("buffer.backbone.layer1.det.block0.bn.running_var", -1.0),
    ], ids=["nan-param", "inf-param", "inf-buffer", "nan-variance", "negative-variance"])
    def test_param_and_buffer_values_are_checked(self, key, value):
        ckpt = self.checkpoint()
        ckpt.tensors[key] = ckpt.tensors[key].copy()
        ckpt.tensors[key][-1] = value
        with pytest.raises(CheckpointError, match=f"tensor '{re.escape(key)}'"):
            training.RegistrationModel.from_checkpoint(ckpt)

    @pytest.mark.parametrize("field, value, names", [
        ("sampling_steps", 2000.0, ("sampling_steps", "diffusion_steps")),
        ("sample_count", 16.0, ("sample_count", "backbone_scale")),
        ("train_points", 10.0, ("train_points",)),
        # numpy's seeding rejects a negative seed; from 2**53 on, float64
        # cannot hold every seed.
        ("seed", -1.0, ("seed",)),
        ("seed", 2.0 ** 53, ("seed",)),
        ("epochs", 2.0 ** 53, ("epochs",)),
    ])
    def test_stored_config_that_fails_at_first_use(self, field, value, names):
        ckpt = self.checkpoint()
        ckpt.tensors[f"config.{field}"] = np.array([value])
        with pytest.raises(CheckpointError) as err:
            training.RegistrationModel.from_checkpoint(ckpt)
        for name in names:
            assert f"'config.{name}'" in str(err.value)

    def test_integers_below_2_53_reload_exactly(self):
        cfg = tiny_config(seed=2 ** 53 - 1, epochs=2 ** 53 - 1, train_pairs=2 ** 53 - 1)
        ckpt = training.RegistrationModel(cfg).to_checkpoint()
        model = training.RegistrationModel.from_checkpoint(ckpt)
        assert model.config == cfg
        again = model.to_checkpoint().tensors
        assert list(again) == list(ckpt.tensors)
        for name, arr in again.items():
            assert arr.tobytes() == ckpt.tensors[name].tobytes(), name

    def test_zero_variance_loads(self):
        # A channel that was constant over every batch has variance 0.
        ckpt = self.checkpoint()
        key = "buffer.backbone.layer1.det.block0.bn.running_var"
        ckpt.tensors[key] = np.zeros_like(ckpt.tensors[key])
        model = training.RegistrationModel.from_checkpoint(ckpt)
        assert not model.backbone.layers[0].detector.blocks[0].bn.running_var.any()

    @pytest.mark.parametrize("kind", ["param.", "buffer."])
    def test_size_mismatch(self, kind):
        ckpt = self.checkpoint()
        key = next(k for k in ckpt.tensors if k.startswith(kind))
        ckpt.tensors[key] = ckpt.tensors[key][:-1]
        with pytest.raises(CheckpointError, match=f"tensor '{re.escape(key)}' holds"):
            training.RegistrationModel.from_checkpoint(ckpt)


class TestRegisterPair:
    def test_two_scale_quarter_pairs_give_the_pinned_transforms(self):
        # The hash was retaken with the eval-mode CBR stacks in float32,
        # their first blocks applied once per input point, and BLAS on one
        # thread, the regime conftest.py sets up. Any change to the
        # registration's arithmetic shows here.
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
            "af4710296d8587cfa26fe1cbf88cabad440fbafb693720228f91277a612dccb6"

    @pytest.mark.parametrize("seed", [-1, 1.5, "0"])
    def test_bad_seed_raises_before_any_work(self, monkeypatch, seed):
        def preprocess(*args):
            raise AssertionError("preprocess_cloud ran")

        monkeypatch.setattr(training, "preprocess_cloud", preprocess)
        model = training.RegistrationModel(tiny_config())
        cloud = np.zeros((96, 3))
        with pytest.raises(ValueError, match="seed"):
            training.register_pair(model, cloud, cloud, seed=seed)

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


@pytest.mark.skipif(sys.platform != "linux", reason="register_pair forks only on Linux")
class TestForkedTargetHalf:
    """``register_pair`` runs the target's front half in a forked child
    while the process runs one thread, and on the calling thread otherwise."""

    @staticmethod
    def inputs():
        cfg = tiny_config()
        model = training.RegistrationModel(cfg)
        pair = training.gen_synthetic_pair(np.random.default_rng(13),
                                           cfg.train_points, 5.0, 0.5, cfg.jitter, 0)
        return model, pair

    @staticmethod
    @contextlib.contextmanager
    def deadline(seconds):
        """Fail instead of hanging: SIGALRM interrupts a blocked pipe read
        or wait on the main thread."""
        def expire(signum, frame):
            raise TimeoutError(f"no result within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def counted_forks(monkeypatch):
        fork, forks = os.fork, []

        def counting():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        return forks

    @staticmethod
    def assert_nothing_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == 1

    def test_child_error_re_raises_with_its_message(self, monkeypatch):
        model, pair = self.inputs()
        forks = self.counted_forks(monkeypatch)
        n_out = model.backbone.configs[0].n_out
        with self.deadline(60), pytest.raises(
                ValueError, match=f"backbone needs at least {n_out} points"):
            training.register_pair(model, pair.source, pair.target[:n_out - 1])
        assert forks == [os.getpid()]
        self.assert_nothing_left()

    def test_child_error_that_does_not_pickle_raises_its_repr(self, monkeypatch):
        class Unpicklable(Exception):
            """A class local to a function pickles by reference, which fails."""

        parent = os.getpid()
        preprocess = training.preprocess_cloud

        def failing_in_child(cloud, config, seed):
            if os.getpid() != parent:
                raise Unpicklable("target side")
            return preprocess(cloud, config, seed)

        monkeypatch.setattr(training, "preprocess_cloud", failing_in_child)
        model, pair = self.inputs()
        with self.deadline(60), pytest.raises(
                RuntimeError, match=re.escape("Unpicklable('target side')")):
            training.register_pair(model, pair.source, pair.target)
        self.assert_nothing_left()

    def test_child_that_exits_raises_naming_its_status(self, monkeypatch):
        parent = os.getpid()
        preprocess = training.preprocess_cloud

        def exiting_in_child(cloud, config, seed):
            if os.getpid() != parent:
                os._exit(3)
            return preprocess(cloud, config, seed)

        monkeypatch.setattr(training, "preprocess_cloud", exiting_in_child)
        model, pair = self.inputs()
        with self.deadline(60), pytest.raises(
                RuntimeError, match=r"wait status \d+ \(exit code 3\)"):
            training.register_pair(model, pair.source, pair.target)
        self.assert_nothing_left()

    def test_source_error_kills_and_reaps_the_child(self, monkeypatch):
        parent = os.getpid()
        preprocess = training.preprocess_cloud

        def stalling_in_child(cloud, config, seed):
            if os.getpid() != parent:
                time.sleep(120)
            return preprocess(cloud, config, seed)

        monkeypatch.setattr(training, "preprocess_cloud", stalling_in_child)
        model, pair = self.inputs()
        forks = self.counted_forks(monkeypatch)
        n_out = model.backbone.configs[0].n_out
        with self.deadline(30), pytest.raises(
                ValueError, match=f"backbone needs at least {n_out} points"):
            training.register_pair(model, pair.source[:n_out - 1], pair.target)
        assert forks == [os.getpid()]
        self.assert_nothing_left()

    def test_no_fork_beside_a_live_thread_and_the_same_bits(self, monkeypatch):
        model, pair = self.inputs()
        forks = self.counted_forks(monkeypatch)
        forked = training.register_pair(model, pair.source, pair.target, seed=2)
        assert forks == [os.getpid()]

        def no_fork():
            raise AssertionError("register_pair forked beside a live thread")

        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            here = training.register_pair(model, pair.source, pair.target, seed=2)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        for tf in ("transform", "coarse_transform"):
            assert getattr(here, tf).rotation.tobytes() == \
                getattr(forked, tf).rotation.tobytes()
            assert getattr(here, tf).translation.tobytes() == \
                getattr(forked, tf).translation.tobytes()
        assert here.diagnostics == forked.diagnostics
        self.assert_nothing_left()
