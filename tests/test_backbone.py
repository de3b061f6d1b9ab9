import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """The eval-mode layer forward over all n_out * K members at once, as
    the eval pass runs it: with the layer's float32 folds, each stack's
    first block as a per-point product gathered per member plus a per-group
    term, and the rest of each stack on the gathered rows."""
    n_out, k = plan.groups.shape
    member_pts = pts[plan.groups]
    point_rows = np.concatenate([pts, feats, unc[:, None]], axis=1).astype(np.float32)
    centres = pts[plan.selected].astype(np.float32)
    out = []
    for stack, folds in zip((layer.detector, layer.descriptor), layer.fold()):
        (w_t, b), rest = folds[0], folds[1:]
        z = (point_rows @ w_t)[plan.groups] + (b - centres @ w_t[:3])[:, None, :]
        out.append(stack.forward_folded(np.maximum(z, 0.0).reshape(n_out * k, -1), rest))
    logits, desc_rows = out
    w = nnet.softmax_rows(logits.reshape(n_out, k).astype(np.float64))
    p_out = (w[..., None] * member_pts).sum(axis=1)
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
        # So do the BatchNorm and CBRStack modules below it. A CBR's own
        # forward is train mode only: eval mode runs it folded, in its stack.
        stack = net.layers[0].detector
        x = rng.normal(size=(10, stack.blocks[0].lin.w.value.shape[1]))
        for module, arg in ((stack.blocks[0].bn, stack.blocks[0].lin.forward(x)[0]),
                            (stack, x)):
            assert module.forward(arg, train=False)[1] is None
            assert module.forward(arg, train=True)[1] is not None
        assert stack.blocks[0].forward(x)[1] is not None


def per_block_reference(layer, pts, feats, unc, plan, dtype=np.float32):
    """The eval-mode layer pass computed with every CBR's batch norm folded
    anew and the detector and descriptor stacks run one after the other,
    a row block at a time after their first blocks; the softmax and the
    fusion stay in float64.

    In float32 it follows the eval pass's formula: each stack's first block
    is the product of every input point's row [p, f, u], gathered per
    member, plus the term b - W_p c of the member's centre c, computed for
    every output point. The rows, the folded weights and biases, and the
    head's weight are cast to float32 where the eval pass casts them. In
    float64 it is the member-row formula, each first block applied to the
    member rows [p - c, f, u], which the float32 pass is measured against."""
    def fold(block):
        bn = block.bn
        scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
        w = block.lin.w.value * scale[:, None]
        b = (block.lin.b.value - bn.running_mean) * scale + bn.beta.value
        return w.T.astype(dtype), b.astype(dtype)

    n_out, k = plan.groups.shape
    if dtype == np.float32:
        # Each stack's table (per input point) and terms (per output point).
        point_rows = np.concatenate([pts, feats, unc[:, None]], axis=1).astype(dtype)
        centres = pts[plan.selected].astype(dtype)
        firsts = {}
        for cbr_stack in (layer.detector, layer.descriptor):
            w_t, b = fold(cbr_stack.blocks[0])
            firsts[cbr_stack] = (point_rows @ w_t, b - centres @ w_t[:3])

    def stack(cbr_stack, block):
        groups = plan.groups[block]
        if dtype == np.float32:
            table, term = firsts[cbr_stack]
            x = table[groups] + term[block][:, None, :]
        else:
            w_t, b = fold(cbr_stack.blocks[0])
            rel = pts[groups] - pts[plan.selected[block]][:, None, :]
            x = np.concatenate([rel, feats[groups], unc[groups][..., None]], axis=2) @ w_t
            x += b
        x = np.maximum(x, 0.0).reshape(groups.size, -1)
        for cbr in cbr_stack.blocks[1:]:
            w_t, b = fold(cbr)
            x = x @ w_t
            x += b
            np.maximum(x, 0.0, out=x)
        if cbr_stack.head is not None:
            x = x @ cbr_stack.head.w.value.T.astype(dtype)
            x += cbr_stack.head.b.value
        return x

    rows = max(1, bb._FORWARD_BLOCK_ENTRIES // (k * max(layer.cfg.widths)))
    p_out = np.empty((n_out, 3))
    d_out = np.empty((n_out, layer.out_dim))
    for start in range(0, n_out, rows):
        block = slice(start, start + rows)
        n = len(plan.groups[block])
        w = nnet.softmax_rows(stack(layer.detector, block).reshape(n, k).astype(np.float64))
        desc_feat = stack(layer.descriptor, block).reshape(n, k, layer.out_dim)
        p_out[block], d_out[block] = nnet.fuse_candidates(w, pts[plan.groups[block]],
                                                          desc_feat)
    u_out, _ = layer.uncertainty.forward(d_out)
    return p_out, d_out, u_out


class TestFoldedEvalPass:
    """The eval pass folds once per call and gathers by flat takes; neither
    may move a bit."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_block_formula_bit_for_bit(self, data):
        in_dim = data.draw(st.integers(1, 40), label="feature width")
        k = data.draw(st.integers(1, 12), label="K")
        n_out = data.draw(st.integers(1, 40), label="n_out")
        widths = tuple(data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=3),
                                 label="widths"))
        n_in = data.draw(st.integers(max(n_out, k), 90), label="n_in")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        layer = bb.DetectorDescriptorLayer(in_dim, bb.LayerConfig(n_out, k, widths), rng)
        # Batch norms away from the identity, so that the fold matters.
        for stack in (layer.detector, layer.descriptor):
            for block in stack.blocks:
                dim = block.bn.gamma.value.size
                block.bn.gamma.value[:] = rng.uniform(0.5, 2.0, size=dim)
                block.bn.beta.value[:] = rng.normal(size=dim)
                block.bn.running_mean = rng.normal(size=dim)
                block.bn.running_var = rng.uniform(0.1, 3.0, size=dim)
        pts = rng.normal(size=(n_in, 3)) * 5.0
        feats = rng.normal(size=(n_in, in_dim))
        unc = rng.uniform(size=n_in)
        plan = bb.LayerPlan(rng.choice(n_in, n_out, replace=False),
                            rng.integers(0, n_in, size=(n_out, k)))
        # One-row blocks, or blocks of r rows with a partial last block
        # whenever r does not divide n_out.
        widest = max(3 + in_dim + 1, *widths)
        entries = data.draw(st.one_of(st.just(1), st.integers(1, n_out).map(
            lambda r: r * k * widest)), label="block entries")
        with mock.patch.object(bb, "_FORWARD_BLOCK_ENTRIES", entries):
            *got, cache = layer.forward(pts, feats, unc, plan, train=False)
            want = per_block_reference(layer, pts, feats, unc, plan)
        assert cache is None
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", ["overflow", "nan"])
    def test_checks_stay_on_when_no_bound_holds(self, case):
        # Products that overflow, and a NaN input, still raise where the
        # batch-norm outputs are checked.
        rng = np.random.default_rng(42)
        layer = bb.DetectorDescriptorLayer(4, bb.LayerConfig(8, 4, (8, 8, 8)), rng)
        pts = rng.normal(size=(20, 3))
        feats = rng.normal(size=(20, 4))
        if case == "overflow":
            layer.detector.blocks[0].lin.w.value[:] = 1e308
        else:
            feats[:, 1] = np.nan
        plan = layer.plan(pts, np.full(20, 0.5), seed=0, weighted=False)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="batchnorm output"):
            layer.forward(pts, feats, np.full(20, 0.5), plan, train=False)

    def test_full_scale_layers_match_the_per_block_formula(self):
        rng = np.random.default_rng(40)
        net = bb.Backbone(np.random.default_rng(41), scale=1.0)
        cloud = make_cloud(rng, 4096)
        pts = cloud
        feats, _ = net.lift.forward(cloud)
        unc = np.full(len(cloud), bb.INITIAL_UNCERTAINTY)
        for i, layer in enumerate(net.layers):
            plan = layer.plan(pts, unc, seed=0, weighted=i > 0)
            *got, _ = layer.forward(pts, feats, unc, plan, train=False)
            want = per_block_reference(layer, pts, feats, unc, plan)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), f"layer {i + 1}"
            pts, feats, unc = got

    def test_full_scale_float32_layers_match_float64_within_1e_5(self):
        self.check_float32_layers_against_float64(offset=0.0)

    def test_full_scale_float32_layers_match_float64_within_1e_5_at_100_m(self):
        # The per-point rows carry absolute coordinates, so the cloud also
        # runs 100 m from the origin on every axis.
        self.check_float32_layers_against_float64(offset=100.0)

    @staticmethod
    def check_float32_layers_against_float64(offset):
        # Each layer's outputs from its float32 CBR products, against the
        # member-row pass in float64 on the same input, with batch norms
        # away from the identity: the largest deviation of each output
        # stays within 1e-5 of that output's largest magnitude.
        rng = np.random.default_rng(43)
        net = bb.Backbone(np.random.default_rng(44), scale=1.0)
        for layer in net.layers:
            for stack in (layer.detector, layer.descriptor):
                for block in stack.blocks:
                    dim = block.bn.gamma.value.size
                    block.bn.gamma.value[:] = rng.uniform(0.5, 2.0, size=dim)
                    block.bn.beta.value[:] = rng.normal(scale=0.5, size=dim)
                    block.bn.running_mean = rng.normal(scale=0.5, size=dim)
                    block.bn.running_var = rng.uniform(0.1, 3.0, size=dim)
        cloud = make_cloud(rng, 4096) + offset
        pts = cloud
        feats, _ = net.lift.forward(cloud)
        unc = np.full(len(cloud), bb.INITIAL_UNCERTAINTY)
        for i, layer in enumerate(net.layers):
            plan = layer.plan(pts, unc, seed=0, weighted=i > 0)
            *got, _ = layer.forward(pts, feats, unc, plan, train=False)
            want = per_block_reference(layer, pts, feats, unc, plan, np.float64)
            for a, b in zip(got, want):
                assert a.dtype == np.float64
                assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max(), f"layer {i + 1}"
            pts, feats, unc = want


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


class TestBackwardReleasesCache:
    """A train-mode cache serves one backward, which frees it."""

    @staticmethod
    def forward(net, cloud):
        return net.forward(cloud, seed=0, train=True)

    @staticmethod
    def output_grads(net, rng):
        def triple(cfg):
            return (rng.normal(size=(cfg.n_out, 3)),
                    rng.normal(size=(cfg.n_out, cfg.widths[-1])),
                    rng.normal(size=cfg.n_out))
        return {"g_coarse": triple(net.configs[2]), "g_fine": triple(net.configs[1])}

    def test_backward_frees_every_cached_array(self, array_weakrefs):
        rng = np.random.default_rng(30)
        cloud = make_cloud(rng, 64)
        net = bb.Backbone(np.random.default_rng(31), scale=1.0 / 64.0)
        out = self.forward(net, cloud)
        # The output's feature sets and plans, and the input cloud, are
        # also held by the output or the caller.
        refs = array_weakrefs([out.cache],
                              held=[out.fine, out.coarse, out.plans, cloud])
        assert len(refs) > 50
        net.backward(out, **self.output_grads(net, rng))
        assert out.cache is None
        gc.collect()
        assert [r for r in refs if r() is not None] == []

    def test_second_backward_raises(self):
        rng = np.random.default_rng(32)
        cloud = make_cloud(rng, 64)
        net = bb.Backbone(np.random.default_rng(33), scale=1.0 / 64.0)
        grads = self.output_grads(net, rng)
        out = self.forward(net, cloud)
        net.backward(out, **grads)
        with pytest.raises(ValueError, match="earlier backward consumed the cache"):
            net.backward(out, **grads)
        with pytest.raises(ValueError, match="eval mode"):
            net.backward(net.forward(cloud, seed=0), **grads)


class TestForwardPair:
    """A training step's two train-mode forwards at once, through
    ``nnet.on_both_sides``, equal two sequential ``forward`` calls byte for
    byte: outputs, plans, the gradients of their backwards and the running
    statistics that their held batch-statistic writes leave."""

    @staticmethod
    def clouds(n_src, n_tgt):
        rng = np.random.default_rng(50)
        return make_cloud(rng, n_src), make_cloud(rng, n_tgt)

    @staticmethod
    def assert_same_outputs(got, want):
        for fs in ("fine", "coarse"):
            for field in ("points", "descriptors", "uncertainties"):
                a, b = getattr(getattr(got, fs), field), getattr(getattr(want, fs), field)
                assert a.tobytes() == b.tobytes(), f"{fs}.{field}"
        assert len(got.plans) == len(want.plans)
        for a, b in zip(got.plans, want.plans):
            assert a.selected.tobytes() == b.selected.tobytes()
            assert a.groups.tobytes() == b.groups.tobytes()

    # The desk scale, and 1/32, where layers 2 and 3 group their whole input.
    @pytest.mark.parametrize("scale, sizes", [(0.25, (600, 731)), (1.0 / 32.0, (96, 70))])
    def test_train_pair_matches_two_forwards(self, scale, sizes):
        src, tgt = self.clouds(*sizes)
        rng = np.random.default_rng(52)
        nets, outs = [], []
        for both_sides in (True, False):
            net = bb.Backbone(np.random.default_rng(53), scale=scale)
            if both_sides:
                out = nnet.on_both_sides(net.forward, (src, 4, True), (tgt, 4, True))
            else:
                out = (net.forward(src, seed=4, train=True),
                       net.forward(tgt, seed=4, train=True))
            nets.append(net)
            outs.append(out)
        for got, want in zip(*outs):
            self.assert_same_outputs(got, want)
        grads = TestBackwardReleasesCache.output_grads(nets[0], rng)
        for net, (so, to) in zip(nets, outs):
            net.backward(so, **grads)
            net.backward(to, **grads)
        pair_net, single_net = nets
        # Softmax ignores a shift of its logits, so the detector heads' bias
        # gradients are zero up to rounding; every other gradient is not.
        nonzero = 0
        for (name, p), (_, q) in zip(pair_net.named_params(), single_net.named_params()):
            assert p.grad.tobytes() == q.grad.tobytes(), name
            nonzero += bool(p.grad.any())
        assert nonzero >= len(dict(pair_net.named_params())) - len(pair_net.layers)
        # Every running statistic moved, so equal buffers show that both
        # ways folded the same batch statistics in the same order.
        fresh = bb.Backbone(np.random.default_rng(53), scale=scale)
        for (name, a), (_, b), (_, c) in zip(pair_net.named_buffers(),
                                             single_net.named_buffers(),
                                             fresh.named_buffers()):
            assert a.tobytes() == b.tobytes(), name
            assert a.tobytes() != c.tobytes(), name
