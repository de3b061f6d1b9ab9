import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adreg import bgmm


def two_blobs(rng, n_each=100, centers=((0, 0, 0), (10, 0, 0)), scale=0.5):
    clouds = [np.asarray(c) + rng.normal(scale=scale, size=(n_each, 3)) for c in centers]
    return np.vstack(clouds)


class TestFitGmm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        cloud = rng.normal(size=(200, 3)) * 2 + [1, 2, 3]
        model = bgmm.fit_gmm(cloud, 1, seed=0)
        np.testing.assert_allclose(model.means[0], cloud.mean(axis=0), atol=1e-8)
        diff = cloud - cloud.mean(axis=0)
        sample_cov = diff.T @ diff / len(cloud)
        np.testing.assert_allclose(model.covariances[0], sample_cov, atol=1e-6)
        assert model.weights[0] == 1.0

    def test_two_blob_recovery(self):
        rng = np.random.default_rng(1)
        cloud = two_blobs(rng)
        model = bgmm.fit_gmm(cloud, 2, seed=0)
        got = sorted(model.means[:, 0])
        assert abs(got[0] - 0.0) < 0.1 and abs(got[1] - 10.0) < 0.1

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            cloud = rng.uniform(-5, 5, size=(150, 3))
            model = bgmm.fit_gmm(cloud, 8, seed=trial)
            diffs = np.diff(model.log_likelihoods)
            assert (diffs > -1e-9).all()

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        model = bgmm.fit_gmm(two_blobs(rng), 4, seed=1)
        assert abs(model.weights.sum() - 1.0) < 1e-9
        assert (model.assignments < 4).all()

    def test_covariance_floor(self):
        cloud = np.zeros((50, 3))  # fully degenerate
        cloud[:, 0] = np.linspace(0, 1, 50)
        model = bgmm.fit_gmm(cloud, 2, seed=0)
        for cov in model.covariances:
            assert np.linalg.eigvalsh(cov).min() >= bgmm.COVARIANCE_FLOOR - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        cloud = two_blobs(rng)
        a = bgmm.fit_gmm(cloud, 3, seed=9)
        b = bgmm.fit_gmm(cloud, 3, seed=9)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            bgmm.fit_gmm(np.zeros((3, 3)), 4)


class TestLogLikelihood:
    def test_standard_normal_at_mean(self):
        model = bgmm.GmmModel(
            weights=np.array([1.0]),
            means=np.zeros((1, 3)),
            covariances=np.eye(3)[None],
            assignments=np.zeros(1, dtype=np.int64))
        ll = bgmm.gmm_log_likelihood(model, np.zeros((1, 3)))
        assert abs(ll - (-1.5 * np.log(2 * np.pi))) < 1e-12

    def test_far_point_finite(self):
        model = bgmm.GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((2, 3)),
            covariances=np.stack([np.eye(3)] * 2),
            assignments=np.zeros(1, dtype=np.int64))
        ll = bgmm.gmm_log_likelihood(model, np.array([[1e3, 0, 0]]))
        assert np.isfinite(ll) and ll < -1e5


class TestRemoveOutliers:
    def fit_pair(self, rng, extra_src=None, j_src=4, j_tgt=4):
        base = two_blobs(rng, centers=((0, 0, 0), (8, 0, 0), (0, 8, 0), (8, 8, 0)),
                         n_each=80, scale=0.4)
        src = base.copy()
        tgt = base + rng.normal(scale=0.02, size=base.shape)
        if extra_src is not None:
            src = np.vstack([src, extra_src])
        src_model = bgmm.fit_gmm(src, j_src, seed=0)
        tgt_model = bgmm.fit_gmm(tgt, j_tgt, seed=1)
        return src, tgt, src_model, tgt_model

    def test_identical_clouds_nothing_removed(self):
        rng = np.random.default_rng(5)
        src, tgt, sm, tm = self.fit_pair(rng)
        ps, pt, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=2)
        assert ms.all() and mt.all()
        assert len(ps) == len(src) and len(pt) == len(tgt)

    def test_far_blob_removed(self):
        rng = np.random.default_rng(6)
        extra = np.array([50.0, 50.0, 0.0]) + rng.normal(scale=0.4, size=(60, 3))
        src, tgt, sm, tm = self.fit_pair(rng, extra_src=extra, j_src=5, j_tgt=4)
        ps, pt, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=2)
        # All removed source points belong to the injected far blob.
        removed = np.flatnonzero(~ms)
        assert len(removed) >= 55
        assert (removed >= 320).all()
        assert mt.all()

    def test_k_equals_j_removes_nothing(self):
        rng = np.random.default_rng(7)
        extra = np.array([50.0, 0.0, 0.0]) + rng.normal(scale=0.4, size=(60, 3))
        src, tgt, sm, tm = self.fit_pair(rng, extra_src=extra, j_src=4, j_tgt=4)
        _, _, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=4)
        assert ms.all() and mt.all()

    def test_never_empty(self):
        rng = np.random.default_rng(8)
        src = rng.normal(size=(40, 3))
        tgt = rng.normal(size=(40, 3)) + 500.0
        sm = bgmm.fit_gmm(src, 3, seed=0)
        tm = bgmm.fit_gmm(tgt, 3, seed=1)
        ps, pt, _, _ = bgmm.remove_outliers(sm, src, tm, tgt, k=1)
        assert len(ps) > 0 and len(pt) > 0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        src, tgt, sm, tm = self.fit_pair(rng)
        perm = rng.permutation(len(src))
        sm_perm = bgmm.GmmModel(sm.weights, sm.means, sm.covariances,
                                sm.assignments[perm])
        _, _, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=2)
        _, _, ms_p, _ = bgmm.remove_outliers(sm_perm, src[perm], tm, tgt, k=2)
        np.testing.assert_array_equal(ms_p, ms[perm])

    def test_k_out_of_range(self):
        rng = np.random.default_rng(10)
        src, tgt, sm, tm = self.fit_pair(rng)
        with pytest.raises(ValueError):
            bgmm.remove_outliers(sm, src, tm, tgt, k=5)

    def test_masks_subset(self):
        rng = np.random.default_rng(11)
        src, tgt, sm, tm = self.fit_pair(rng)
        ps, pt, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=1)
        assert len(ms) == len(src) and len(mt) == len(tgt)
        np.testing.assert_array_equal(ps, src[ms])
        np.testing.assert_array_equal(pt, tgt[mt])


class TestMinimumSupport:
    """``min_points`` re-admits the nearest rejected component pairs."""

    @staticmethod
    def one_point_components(xs):
        means = np.array([[x, 0.0, 0.0] for x in xs])
        model = bgmm.GmmModel(np.full(len(xs), 1.0 / len(xs)), means,
                              np.stack([np.eye(3)] * len(xs)),
                              np.arange(len(xs), dtype=np.int64))
        return means.copy(), model

    def sparse_pair(self):
        # Every source mean is nearest target 0, and target 0 has only
        # source 0 as its top-1; the targets trail off far to one side.
        # With k=1 the rule keeps one point per side.
        src, sm = self.one_point_components([0.0, 1.0, 2.0, 3.0])
        tgt, tm = self.one_point_components([0.0, 100.0, 200.0, 300.0])
        return src, sm, tgt, tm

    def test_default_keeps_the_rule_masks(self):
        src, sm, tgt, tm = self.sparse_pair()
        _, _, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=1)
        np.testing.assert_array_equal(ms, [True, False, False, False])
        np.testing.assert_array_equal(mt, [True, False, False, False])
        _, _, ms1, mt1 = bgmm.remove_outliers(sm, src, tm, tgt, k=1, min_points=1)
        np.testing.assert_array_equal(ms1, ms)
        np.testing.assert_array_equal(mt1, mt)

    def test_min_points_readmits_nearest_pairs_first(self):
        src, sm, tgt, tm = self.sparse_pair()
        ps, pt, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=1, min_points=3)
        assert len(ps) >= 3 and len(pt) >= 3
        # Pairs enter by mean distance: (s1,t0)=1, (s2,t0)=2, (s3,t0)=3 fill
        # the source side; (s3,t1)=97 and (s3,t2)=197 then fill the target
        # side, and the farthest target stays rejected.
        np.testing.assert_array_equal(ms, [True, True, True, True])
        np.testing.assert_array_equal(mt, [True, True, True, False])

    def test_min_points_capped_at_cloud_size(self):
        src, sm, tgt, tm = self.sparse_pair()
        ps, pt, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=1, min_points=100)
        assert ms.all() and mt.all()
        assert len(ps) == len(src) and len(pt) == len(tgt)

    def test_masked_pair_keeps_default_masks(self):
        # When the rule already leaves enough support, min_points changes
        # nothing: the far blob stays removed.
        rng = np.random.default_rng(6)
        extra = np.array([50.0, 50.0, 0.0]) + rng.normal(scale=0.4, size=(60, 3))
        src, tgt, sm, tm = TestRemoveOutliers().fit_pair(rng, extra_src=extra,
                                                         j_src=5, j_tgt=4)
        _, _, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=2)
        _, _, ms3, mt3 = bgmm.remove_outliers(sm, src, tm, tgt, k=2, min_points=3)
        np.testing.assert_array_equal(ms3, ms)
        np.testing.assert_array_equal(mt3, mt)
        assert not ms.all()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_support_invariant_holds_for_any_mixture(self, data):
        # Arbitrary component layouts, some components empty: each side
        # keeps at least min(min_points, len(cloud)) points.
        def side(tag):
            j = data.draw(st.integers(1, 6), label=f"{tag} components")
            means = np.array(data.draw(st.lists(
                st.tuples(*[st.floats(-100, 100)] * 3), min_size=j, max_size=j),
                label=f"{tag} means"))
            assignments = np.array(data.draw(st.lists(
                st.integers(0, j - 1), min_size=1, max_size=30),
                label=f"{tag} assignments"), dtype=np.int64)
            model = bgmm.GmmModel(np.full(j, 1.0 / j), means,
                                  np.stack([np.eye(3)] * j), assignments)
            return means[assignments], model

        src, sm = side("source")
        tgt, tm = side("target")
        k = data.draw(st.integers(1, min(sm.n_components, tm.n_components)), label="k")
        m = data.draw(st.integers(1, 40), label="min_points")
        _, _, ms, mt = bgmm.remove_outliers(sm, src, tm, tgt, k=k, min_points=m)
        assert ms.sum() >= min(m, len(src))
        assert mt.sum() >= min(m, len(tgt))
