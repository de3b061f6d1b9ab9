import numpy as np
import pytest

from adreg import backbone as bb
from adreg import nnet


def make_cloud(rng, n):
    # A few separated blobs so sampling and grouping stay well conditioned.
    centers = rng.uniform(-10, 10, size=(6, 3))
    pts = centers[rng.integers(0, 6, size=n)] + rng.normal(scale=0.8, size=(n, 3))
    return pts


class TestLayerConfigs:
    def test_full_scale_table(self):
        cfgs = bb.scaled_layer_configs(1.0)
        assert [(c.n_out, c.k_group) for c in cfgs] == [(1024, 64), (512, 32), (256, 16)]
        assert [c.widths for c in cfgs] == [(32, 32, 64), (64, 64, 128), (128, 128, 256)]

    def test_quarter_scale(self):
        cfgs = bb.scaled_layer_configs(0.25)
        assert [c.n_out for c in cfgs] == [256, 128, 64]
        assert [c.k_group for c in cfgs] == [64, 32, 16]
        assert [c.widths[-1] for c in cfgs] == [64, 128, 256]


class TestBackboneForward:
    def test_full_scale_counts_and_widths(self):
        rng = np.random.default_rng(0)
        net = bb.Backbone(np.random.default_rng(1), scale=1.0)
        out = net.forward(make_cloud(rng, 2048), seed=0)
        assert out.coarse.points.shape == (256, 3)
        assert out.coarse.descriptors.shape == (256, 256)
        assert out.fine.points.shape == (512, 3)
        assert out.fine.descriptors.shape == (512, 128)

    def test_quarter_scale_counts(self):
        rng = np.random.default_rng(2)
        net = bb.Backbone(np.random.default_rng(3), scale=0.25)
        out = net.forward(make_cloud(rng, 512), seed=0)
        assert len(out.coarse) == 64
        assert len(out.fine) == 128

    def test_uncertainties_in_unit_interval(self):
        rng = np.random.default_rng(4)
        net = bb.Backbone(np.random.default_rng(5), scale=0.125)
        out = net.forward(make_cloud(rng, 256), seed=0)
        for fs in (out.fine, out.coarse):
            assert (fs.uncertainties > 0).all() and (fs.uncertainties < 1).all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        cloud = make_cloud(rng, 300)
        net = bb.Backbone(np.random.default_rng(7), scale=0.125)
        a = net.forward(cloud, seed=3)
        b = net.forward(cloud, seed=3)
        np.testing.assert_array_equal(a.coarse.points, b.coarse.points)
        np.testing.assert_array_equal(a.coarse.descriptors, b.coarse.descriptors)
        np.testing.assert_array_equal(a.fine.uncertainties, b.fine.uncertainties)

    def test_too_small_cloud(self):
        net = bb.Backbone(np.random.default_rng(8), scale=1.0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((100, 3)), seed=0)

    def test_superpoints_in_group_hull(self):
        rng = np.random.default_rng(9)
        cloud = make_cloud(rng, 300)
        net = bb.Backbone(np.random.default_rng(10), scale=0.125)
        out = net.forward(cloud, seed=0)
        # Layer-1 outputs are convex combinations of their KNN group members.
        plan = out.plans[0]
        member_pts = cloud[plan.groups]
        lo = member_pts.min(axis=1) - 1e-9
        hi = member_pts.max(axis=1) + 1e-9
        # Recompute layer-1 output by rerunning with the same plan.
        feats, _ = net.lift.forward(cloud)
        unc = np.full(len(cloud), bb.INITIAL_UNCERTAINTY)
        layer1_pts, _, _, _ = net.layers[0].forward(cloud, feats, unc, plan, train=False)
        assert (layer1_pts >= lo).all() and (layer1_pts <= hi).all()

    def test_uniform_weights_give_centroid(self):
        # Zeroed detector head makes every group weight uniform.
        rng = np.random.default_rng(11)
        cloud = make_cloud(rng, 200)
        net = bb.Backbone(np.random.default_rng(12), scale=0.125)
        layer = net.layers[0]
        layer.detector.head.w.value[:] = 0.0
        layer.detector.head.b.value[:] = 0.0
        feats, _ = net.lift.forward(cloud)
        unc = np.full(len(cloud), bb.INITIAL_UNCERTAINTY)
        plan = layer.plan(cloud, unc, seed=0, weighted=False)
        p_out, _, _, _ = layer.forward(cloud, feats, unc, plan, train=False)
        np.testing.assert_allclose(p_out, cloud[plan.groups].mean(axis=1), atol=1e-12)

    def test_self_group_identity(self):
        # K clamped to 1 with n_out == n_in reproduces the input points.
        rng = np.random.default_rng(13)
        cloud = rng.normal(size=(8, 3))
        cfg = bb.LayerConfig(8, 1, (8, 8, 8))
        layer = bb.DetectorDescriptorLayer(4, cfg, np.random.default_rng(14))
        feats = rng.normal(size=(8, 4))
        unc = np.full(8, 0.5)
        plan = layer.plan(cloud, unc, seed=0, weighted=False)
        p_out, _, _, _ = layer.forward(cloud, feats, unc, plan, train=False)
        assert {tuple(p) for p in np.round(p_out, 12)} == {tuple(p) for p in np.round(cloud, 12)}


def whole_batch_forward(layer, pts, feats, unc, plan):
    """The eval-mode layer forward over all n_out * K rows at once."""
    n_out, k = plan.groups.shape
    member_pts = pts[plan.groups]
    rel = member_pts - pts[plan.selected][:, None, :]
    x = np.concatenate(
        [rel.reshape(n_out * k, 3),
         feats[plan.groups].reshape(n_out * k, -1),
         unc[plan.groups].reshape(n_out * k, 1)], axis=1)
    logits, _ = layer.detector.forward(x, False)
    w = nnet.softmax_rows(logits.reshape(n_out, k))
    p_out = (w[..., None] * member_pts).sum(axis=1)
    desc_rows, _ = layer.descriptor.forward(x, False)
    d_out = (w[..., None] * desc_rows.reshape(n_out, k, layer.out_dim)).sum(axis=1)
    u_rows, _ = layer.uncertainty.forward(d_out)
    return p_out, d_out, u_rows.reshape(n_out)


class TestBlockedForward:
    def test_eval_blocks_match_whole_batch_bit_for_bit(self):
        rng = np.random.default_rng(17)
        cfg = bb.LayerConfig(300, 64, (32, 32, 64))
        layer = bb.DetectorDescriptorLayer(32, cfg, np.random.default_rng(18))
        rows = bb._FORWARD_BLOCK_ENTRIES // (cfg.k_group * 64)
        assert cfg.n_out > 2 * rows and cfg.n_out % rows  # 3+ blocks, the last partial
        cloud = make_cloud(rng, 900)
        feats = rng.normal(size=(900, 32))
        unc = rng.uniform(size=900)
        plan = layer.plan(cloud, unc, seed=2, weighted=True)
        *got, cache = layer.forward(cloud, feats, unc, plan, train=False)
        assert cache is None
        for a, b in zip(got, whole_batch_forward(layer, cloud, feats, unc, plan)):
            assert a.tobytes() == b.tobytes()

    def test_caches_exist_exactly_in_train_mode(self):
        rng = np.random.default_rng(19)
        net = bb.Backbone(np.random.default_rng(20), scale=0.125)
        cloud = make_cloud(rng, 256)
        assert net.forward(cloud, seed=0, train=False).cache is None
        assert net.forward(cloud, seed=0, train=True).cache is not None
        # So do the BatchNorm, CBR and CBRStack modules below it.
        stack = net.layers[0].detector
        x = rng.normal(size=(10, stack.blocks[0].lin.w.value.shape[1]))
        for module, arg in ((stack.blocks[0].bn, stack.blocks[0].lin.forward(x)[0]),
                            (stack.blocks[0], x), (stack, x)):
            assert module.forward(arg, train=False)[1] is None
            assert module.forward(arg, train=True)[1] is not None


class TestBackboneGradients:
    def test_full_backbone_gradcheck_on_toy_cloud(self):
        rng = np.random.default_rng(15)
        cloud = make_cloud(rng, 64)
        net = bb.Backbone(np.random.default_rng(16), scale=1.0 / 64.0)
        params = dict(net.named_params())
        # Fixed plans keep the discrete structure constant under perturbation.
        plans = net.forward(cloud, seed=0, train=True).plans
        proj = {
            "cp": rng.normal(size=(net.configs[2].n_out, 3)),
            "cd": rng.normal(size=(net.configs[2].n_out, net.configs[2].widths[-1])),
            "cu": rng.normal(size=net.configs[2].n_out),
            "fp": rng.normal(size=(net.configs[1].n_out, 3)),
            "fd": rng.normal(size=(net.configs[1].n_out, net.configs[1].widths[-1])),
            "fu": rng.normal(size=net.configs[1].n_out),
        }

        def fb():
            for p in params.values():
                p.zero_grad()
            out = net.forward(cloud, seed=0, train=True, plans=plans)
            loss = ((out.coarse.points * proj["cp"]).sum()
                    + (out.coarse.descriptors * proj["cd"]).sum()
                    + (out.coarse.uncertainties * proj["cu"]).sum()
                    + (out.fine.points * proj["fp"]).sum()
                    + (out.fine.descriptors * proj["fd"]).sum()
                    + (out.fine.uncertainties * proj["fu"]).sum())
            net.backward(out,
                         g_coarse=(proj["cp"], proj["cd"], proj["cu"]),
                         g_fine=(proj["fp"], proj["fd"], proj["fu"]))
            return loss

        err = nnet.finite_diff_check(fb, params, h=1e-6, max_coords=4, seed=0)
        assert err < 1e-3
