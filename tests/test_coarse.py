import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adreg import coarse, geometry, nnet
from adreg.backbone import Backbone, FeatureSet
from adreg.geometry import RigidTransform, random_rigid_transform


def random_feature_set(rng, n, c, spread=5.0):
    return FeatureSet(rng.normal(size=(n, 3)) * spread,
                      rng.normal(size=(n, c)),
                      rng.uniform(0.1, 0.9, size=n))


class TestWeightedSvd:
    def test_exact_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(10, 3))
        t = coarse.weighted_svd(pts, pts, rng.uniform(0.1, 1.0, 10))
        assert np.abs(t.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(t.translation).max() < 1e-9

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(4, 64)
            src = rng.normal(size=(n, 3)) * 10
            gt = random_rigid_transform(rng, 180.0, 10.0)
            tgt = geometry.apply_transform(gt, src)
            w = rng.uniform(0.01, 1.0, n)
            est = coarse.weighted_svd(src, tgt, w)
            assert np.abs(est.rotation - gt.rotation).max() < 1e-9
            assert np.abs(est.translation - gt.translation).max() < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 40),
           scale=st.floats(0.01, 100.0), angle=st.floats(0.0, 180.0),
           axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           trans=st.tuples(*[st.floats(-50.0, 50.0)] * 3))
    def test_recovers_random_transforms_property(self, seed, n, scale, angle, axis, trans):
        assume(np.linalg.norm(axis) > 1e-3)
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(n, 3)) * scale
        w = rng.uniform(0.05, 1.0, n)
        # Non-degenerate: the weighted source spans at least a plane.
        sing = np.linalg.svd(src - w @ src / w.sum(), compute_uv=False)
        assume(sing[1] > 1e-2 * sing[0])
        gt = RigidTransform(geometry.rotation_about_axis(axis, angle), np.array(trans))
        est = coarse.weighted_svd(src, geometry.apply_transform(gt, src), w)
        assert np.abs(est.rotation - gt.rotation).max() < 1e-9
        assert np.abs(est.translation - gt.translation).max() < 1e-9 * (1 + scale)

    def test_reflection_trap_returns_rotation(self):
        rng = np.random.default_rng(2)
        # Near-planar source mapped through a mirror: the unconstrained
        # optimum is a reflection, the constrained result must stay SO(3).
        src = rng.normal(size=(30, 3))
        src[:, 2] *= 1e-4
        mirror = np.diag([1.0, 1.0, -1.0])
        tgt = src @ mirror.T
        est = coarse.weighted_svd(src, tgt, np.ones(30))
        assert abs(np.linalg.det(est.rotation) - 1.0) < 1e-9

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(12, 3))
        tgt = rng.normal(size=(12, 3))
        w = rng.uniform(0.1, 1.0, 12)
        a = coarse.weighted_svd(src, tgt, w)
        b = coarse.weighted_svd(src, tgt, 37.0 * w)
        assert np.abs(a.rotation - b.rotation).max() < 1e-9
        assert np.abs(a.translation - b.translation).max() < 1e-9

    def test_matches_unweighted_kabsch(self):
        rng = np.random.default_rng(4)
        src = rng.normal(size=(15, 3))
        tgt = rng.normal(size=(15, 3))
        est = coarse.weighted_svd(src, tgt, np.ones(15))
        # Plain Kabsch as an independent oracle.
        cs, ct = src.mean(0), tgt.mean(0)
        h = (src - cs).T @ (tgt - ct)
        u, _, vt = np.linalg.svd(h)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        rot = vt.T @ np.diag([1, 1, d]) @ u.T
        np.testing.assert_allclose(est.rotation, rot, atol=1e-12)
        np.testing.assert_allclose(est.translation, ct - rot @ cs, atol=1e-12)

    def test_exact_residual_tiny(self):
        rng = np.random.default_rng(5)
        src = rng.normal(size=(20, 3)) * 5
        gt = random_rigid_transform(rng, 90.0, 3.0)
        tgt = geometry.apply_transform(gt, src)
        w = rng.uniform(0.1, 1.0, 20)
        est = coarse.weighted_svd(src, tgt, w)
        res = geometry.apply_transform(est, src) - tgt
        assert float((w * (res ** 2).sum(1)).sum()) < 1e-16

    def test_degeneracies(self):
        rng = np.random.default_rng(6)
        with pytest.raises(coarse.DegeneracyError):
            coarse.weighted_svd(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))
        with pytest.raises(coarse.DegeneracyError):
            coarse.weighted_svd(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)),
                                np.zeros(5))
        line = np.outer(np.linspace(0, 1, 8), [1.0, 0, 0])
        with pytest.raises(coarse.DegeneracyError):
            coarse.weighted_svd(line, line + [0, 1, 0], np.ones(8))

    def test_equivariance_with_exact_correspondences(self):
        rng = np.random.default_rng(7)
        src = rng.normal(size=(25, 3)) * 4
        gt = random_rigid_transform(rng, 40.0, 2.0)
        tgt = geometry.apply_transform(gt, src)
        w = rng.uniform(0.2, 1.0, 25)
        pre = random_rigid_transform(rng, 30.0, 1.0)
        base = coarse.weighted_svd(src, tgt, w)
        moved = coarse.weighted_svd(geometry.apply_transform(pre, src), tgt, w)
        expect = geometry.compose(base, geometry.invert(pre))
        assert np.abs(moved.rotation - expect.rotation).max() < 1e-6
        assert np.abs(moved.translation - expect.translation).max() < 1e-6

    def test_backward_gradcheck(self):
        rng = np.random.default_rng(8)
        src = nnet.Param(rng.normal(size=(9, 3)) * 2)
        tgt = nnet.Param(rng.normal(size=(9, 3)) * 2)
        w = nnet.Param(rng.uniform(0.2, 1.0, 9))
        g_rot = rng.normal(size=(3, 3))
        g_trans = rng.normal(size=3)

        def fb():
            for p in (src, tgt, w):
                p.zero_grad()
            transform, cache = coarse.weighted_svd_forward(src.value, tgt.value, w.value)
            loss = (transform.rotation * g_rot).sum() + transform.translation @ g_trans
            gs, gt_, gw = coarse.weighted_svd_backward(cache, g_rot, g_trans)
            src.grad += gs
            tgt.grad += gt_
            w.grad += gw
            return loss

        err = nnet.finite_diff_check(fb, {"src": src, "tgt": tgt, "w": w}, h=1e-6)
        assert err < 1e-5


def candidate_features(src, tgt, k):
    """Descriptor-space KNN candidates and both coarse feature blocks."""
    cand_idx = geometry.knn_search(src.descriptors, tgt.descriptors, k).indices
    f_g, _ = coarse.geometric_features(src.points, tgt.points, cand_idx)
    f_d, _ = coarse.descriptor_features(src, tgt, cand_idx, with_similarity=True)
    return f_g, f_d, cand_idx


class TestCandidateFeatures:
    def test_self_match(self):
        rng = np.random.default_rng(9)
        fs = random_feature_set(rng, 12, 8)
        f_g, f_d, cand_idx = candidate_features(fs, fs, k=1)
        assert (cand_idx[:, 0] == np.arange(12)).all()
        np.testing.assert_allclose(f_g[:, 0, 6:9], 0.0, atol=1e-12)
        np.testing.assert_allclose(f_g[:, 0, 9], 0.0, atol=1e-12)
        np.testing.assert_allclose(f_d[:, 0, -1], 1.0, atol=1e-9)

    def test_orthogonal_descriptors_zero_similarity(self):
        src = FeatureSet(np.zeros((1, 3)), np.array([[1.0, 0.0]]), np.array([0.5]))
        tgt = FeatureSet(np.ones((1, 3)), np.array([[0.0, 1.0]]), np.array([0.5]))
        f_d, _ = coarse.descriptor_features(src, tgt, np.array([[0]]),
                                            with_similarity=True)
        assert abs(f_d[0, 0, -1]) < 1e-12

    def test_norm_channel_consistent(self):
        rng = np.random.default_rng(10)
        src = random_feature_set(rng, 10, 6)
        tgt = random_feature_set(rng, 20, 6)
        f_g, f_d, _ = candidate_features(src, tgt, k=3)
        diff = f_g[..., 6:9]
        norms = f_g[..., 9]
        np.testing.assert_allclose(np.linalg.norm(diff, axis=-1), norms, atol=1e-9)
        sims = f_d[..., -1]
        assert (sims >= -1 - 1e-9).all() and (sims <= 1 + 1e-9).all()

    def test_k_too_large(self):
        rng = np.random.default_rng(11)
        fs = random_feature_set(rng, 5, 4)
        with pytest.raises(ValueError):
            candidate_features(fs, fs, k=6)

    def test_width_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            candidate_features(random_feature_set(rng, 5, 4),
                               random_feature_set(rng, 5, 6), k=2)


class TestWeightsAndFusion:
    def test_zeroed_predictor_uniform(self):
        rng = np.random.default_rng(13)
        pred = coarse.make_predictor(descriptor_dim=6, rng=rng)
        pred.head.w.value[:] = 0.0
        pred.head.b.value[:] = 0.0
        src = random_feature_set(rng, 8, 6)
        tgt = random_feature_set(rng, 16, 6)
        f_g, f_d, _ = candidate_features(src, tgt, k=4)
        weights, _ = coarse.predict_candidate_weights(pred, f_g, f_d, train=False)
        np.testing.assert_allclose(weights, 0.25, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        pred = coarse.make_predictor(descriptor_dim=6, rng=rng)
        src = random_feature_set(rng, 8, 6)
        tgt = random_feature_set(rng, 16, 6)
        f_g, f_d, _ = candidate_features(src, tgt, k=3)
        weights, _ = coarse.predict_candidate_weights(pred, f_g, f_d, train=False)
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12

    def test_one_hot_fusion(self):
        rng = np.random.default_rng(15)
        cand_pts = rng.normal(size=(5, 3, 3))
        cand_desc = rng.normal(size=(5, 3, 4))
        weights = np.zeros((5, 3))
        weights[:, 1] = 1.0
        fused_pts, fused_desc = nnet.fuse_candidates(weights, cand_pts, cand_desc)
        np.testing.assert_array_equal(fused_pts, cand_pts[:, 1])
        np.testing.assert_array_equal(fused_desc, cand_desc[:, 1])

    def test_symmetric_fusion(self):
        cand_pts = np.array([[[1.0, 0, 0], [-1.0, 0, 0]]])
        fused, _ = nnet.fuse_candidates(np.array([[0.5, 0.5]]), cand_pts,
                                          np.zeros((1, 2, 1)))
        np.testing.assert_allclose(fused, 0.0, atol=1e-15)

    def test_fused_in_candidate_box(self):
        rng = np.random.default_rng(16)
        cand_pts = rng.normal(size=(20, 4, 3))
        w = nnet.softmax_rows(rng.normal(size=(20, 4)))
        fused, _ = nnet.fuse_candidates(w, cand_pts, np.zeros((20, 4, 1)))
        assert (fused >= cand_pts.min(axis=1) - 1e-12).all()
        assert (fused <= cand_pts.max(axis=1) + 1e-12).all()


class TestConfidence:
    def test_range_and_determinism(self):
        rng = np.random.default_rng(17)
        head = coarse.make_confidence_head(descriptor_dim=8, rng=rng)
        x = rng.normal(size=(10, 8))
        a, _ = head.forward(x)
        b, _ = head.forward(x)
        assert ((a > 0) & (a < 1)).all()
        np.testing.assert_array_equal(a, b)
        same, _ = head.forward(np.tile(x[:1], (4, 1)))
        assert np.ptp(same) == 0.0


class TestCoarseHead:
    def test_full_head_gradcheck(self):
        rng = np.random.default_rng(18)
        c = 6
        src = random_feature_set(rng, 10, c, spread=3.0)
        tgt = random_feature_set(rng, 18, c, spread=3.0)
        cand_idx = geometry.knn_search(src.descriptors, tgt.descriptors, 3).indices
        pred = coarse.make_predictor(c, np.random.default_rng(19))
        conf = coarse.make_confidence_head(c, np.random.default_rng(20))
        params = dict(pred.named_params("pred"))
        params.update(conf.named_params("conf"))
        inputs = {
            "sp": nnet.Param(src.points.copy()),
            "sd": nnet.Param(src.descriptors.copy()),
            "su": nnet.Param(src.uncertainties.copy()),
            "tp": nnet.Param(tgt.points.copy()),
            "td": nnet.Param(tgt.descriptors.copy()),
            "tu": nnet.Param(tgt.uncertainties.copy()),
        }
        g_rot = rng.normal(size=(3, 3))
        g_trans = rng.normal(size=3)

        def fb():
            for p in list(params.values()) + list(inputs.values()):
                p.zero_grad()
            s = FeatureSet(inputs["sp"].value, inputs["sd"].value, inputs["su"].value)
            t = FeatureSet(inputs["tp"].value, inputs["td"].value, inputs["tu"].value)
            transform, _, cache = coarse.coarse_head_forward(s, t, cand_idx, pred,
                                                             conf, train=True)
            loss = (transform.rotation * g_rot).sum() + transform.translation @ g_trans
            (gsp, gsd, gsu), (gtp, gtd, gtu) = coarse.coarse_head_backward(
                cache, pred, conf, g_rot, g_trans)
            for key, val in zip(("sp", "sd", "su", "tp", "td", "tu"),
                                (gsp, gsd, gsu, gtp, gtd, gtu)):
                inputs[key].grad += val
            return loss

        everything = {**params, **inputs}
        err = nnet.finite_diff_check(fb, everything, h=1e-6, max_coords=3, seed=1)
        assert err < 1e-3


class TestCoarseRegister:
    def make_model(self, seed=0, scale=0.125):
        rng = np.random.default_rng(seed)
        backbone = Backbone(rng, scale=scale)
        pred = coarse.make_predictor(256, rng)
        conf = coarse.make_confidence_head(256, rng)
        return backbone, pred, conf

    def make_cloud(self, rng, n=256):
        centers = rng.uniform(-8, 8, size=(8, 3))
        return (centers[rng.integers(0, 8, size=n)]
                + rng.normal(scale=0.6, size=(n, 3)))

    def test_identity_pair_with_single_candidate(self):
        backbone, pred, conf = self.make_model()
        cloud = self.make_cloud(np.random.default_rng(21))
        transform, diag, _ = coarse.coarse_register(
            backbone.forward(cloud, seed=0), backbone.forward(cloud.copy(), seed=0),
            pred, conf, gmm_components=8, bgmm_topk=2, candidates=1, seed=0)
        angle = np.degrees(np.arccos(np.clip((np.trace(transform.rotation) - 1) / 2, -1, 1)))
        assert np.linalg.norm(transform.translation) < 1e-6
        assert angle < 1e-6
        assert diag.src_kept > 0 and diag.tgt_kept > 0

    def test_untrained_smoke_runs(self):
        backbone, pred, conf = self.make_model(seed=1)
        pred.head.w.value[:] = 0.0  # uniform candidate weights
        pred.head.b.value[:] = 0.0
        rng = np.random.default_rng(22)
        src = self.make_cloud(rng)
        gt = random_rigid_transform(rng, 5.0, 0.5)
        tgt = geometry.apply_transform(gt, src)
        transform, diag, _ = coarse.coarse_register(
            backbone.forward(src, seed=0), backbone.forward(tgt, seed=0),
            pred, conf, gmm_components=8, bgmm_topk=2, candidates=3, seed=0)
        assert np.isfinite(transform.translation).all()
        assert 0.0 < diag.mean_confidence < 1.0
