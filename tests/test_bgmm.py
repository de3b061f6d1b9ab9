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


# Per-component formulas of the loop-based fit: the reference the whole-array
# passes must reproduce bit for bit.

def reference_floor(cov, floor):
    vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def reference_log_densities(pts, model):
    """The E-step: log(w_j N(x_n | mu_j, Sigma_j)), one component at a time."""
    out = np.empty((len(pts), model.n_components))
    for j in range(model.n_components):
        chol = np.linalg.cholesky(model.covariances[j])
        solved = np.linalg.solve(chol, (pts - model.means[j]).T)
        maha = (solved ** 2).sum(axis=0)
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        out[:, j] = -0.5 * (3 * bgmm.LOG_2PI + log_det + maha)
    return out + np.log(model.weights)


def reference_kmeans_pp(pts, k, rng):
    n_candidates = 2 + int(np.log(k + 1))
    centers = np.empty((k, 3))
    centers[0] = pts[rng.integers(len(pts))]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = pts[rng.integers(len(pts))]
            continue
        cand_idx = rng.choice(len(pts), size=n_candidates, p=d2 / total)
        best_idx, best_d2, best_cost = None, None, np.inf
        for ci in cand_idx:
            trial = np.minimum(d2, ((pts - pts[ci]) ** 2).sum(axis=1))
            cost = trial.sum()
            if cost < best_cost:
                best_idx, best_d2, best_cost = ci, trial, cost
        centers[j] = pts[best_idx]
        d2 = best_d2
    return centers


def reference_lloyd_means(pts, centers, labels):
    for j in range(len(centers)):
        sel = labels == j
        if sel.any():
            centers[j] = pts[sel].mean(axis=0)


def reference_covariances(pts, resp, means, counts, floor):
    """The M-step covariances, one component at a time."""
    out = np.empty((len(means), 3, 3))
    for j in range(len(means)):
        diff = pts - means[j]
        out[j] = reference_floor((resp[:, j][:, None] * diff).T @ diff / counts[j], floor)
    return out


def reference_outliers(mean_dists, k):
    outlier = np.zeros(mean_dists.shape[0], dtype=bool)
    for i in range(mean_dists.shape[0]):
        j = int(np.argmin(mean_dists[i]))
        outlier[i] = i not in np.argsort(mean_dists[:, j], kind="stable")[:k]
    return outlier


def reference_fit(pts, n_components, max_iters, seed, floor, tol=1e-3):
    rng = np.random.default_rng(seed)
    centers = reference_kmeans_pp(pts, n_components, rng)

    def labels():
        return ((pts[:, None, :] - centers[None]) ** 2).sum(axis=-1).argmin(axis=1)

    for _ in range(bgmm.KMEANS_ITERS):
        reference_lloyd_means(pts, centers, labels())
    weights = np.full(n_components, 1.0 / n_components)
    covariances = np.empty((n_components, 3, 3))
    final = labels()
    for j in range(n_components):
        sel = final == j
        if sel.sum() >= 2:
            diff = pts[sel] - centers[j]
            covariances[j] = reference_floor(diff.T @ diff / sel.sum(), floor)
        else:
            covariances[j] = np.eye(3) * max(floor, 1.0)
        if sel.any():
            weights[j] = sel.sum() / len(pts)
    weights /= weights.sum()

    model = bgmm.GmmModel(weights, centers, covariances, np.zeros(len(pts), np.int64))
    ll_trace, prev_ll = [], -np.inf
    for _ in range(max_iters):
        log_dens = reference_log_densities(pts, model)
        row_lse = bgmm.logsumexp(log_dens, axis=1)
        ll = float(row_lse.sum())
        ll_trace.append(ll)
        resp = np.exp(log_dens - row_lse[:, None])
        counts = resp.sum(axis=0)
        for j in np.flatnonzero(counts < 1e-8):
            resp[:, j] = 1e-8
            counts = resp.sum(axis=0)
        model.weights = counts / counts.sum()
        model.means = (resp.T @ pts) / counts[:, None]
        model.covariances = reference_covariances(pts, resp, model.means, counts, floor)
        if ll - prev_ll < tol * len(pts) and np.isfinite(prev_ll):
            break
        prev_ll = ll
    model.assignments = reference_log_densities(pts, model).argmax(axis=1).astype(np.int64)
    model.log_likelihoods = np.array(ll_trace)
    return model


@st.composite
def clouds(draw, max_points=600):
    """Gaussian blobs of 1 to 600 points, optionally snapped onto a few
    repeated locations or flattened onto a line, so that points repeat and
    covariances reach the floor."""
    n = draw(st.integers(1, max_points), label="points")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    centers = rng.normal(scale=rng.uniform(0.5, 20.0), size=(int(rng.integers(1, 6)), 3))
    pts = centers[rng.integers(len(centers), size=n)] + rng.normal(
        scale=rng.uniform(0.01, 2.0), size=(n, 3))
    shape = draw(st.sampled_from(["blobs", "repeated", "line"]), label="shape")
    if shape == "repeated":
        pts = pts[rng.integers(min(n, int(rng.integers(1, 9))), size=n)]
    elif shape == "line":
        pts[:, 1:] = 0.0
    return pts


def random_model(rng, n_components):
    """Means, positive-definite covariances from nearly singular to broad,
    and weights."""
    a = rng.normal(size=(n_components, 3, 3)) * rng.uniform(0.01, 3.0, size=(n_components, 1, 1))
    covariances = a @ np.swapaxes(a, 1, 2) + 1e-4 * np.eye(3)
    return bgmm.GmmModel(rng.dirichlet(np.ones(n_components)),
                         rng.normal(scale=5.0, size=(n_components, 3)), covariances,
                         np.zeros(0, np.int64))


class TestWholeArrayBits:
    """The stacked E-step, M-step, floor, Lloyd means, k-means++ and rejection
    rule against the per-component formulas, byte for byte. J runs past 8,
    N past 128: numpy's pairwise sums change course at both."""

    @settings(max_examples=40, deadline=None)
    @given(pts=clouds(), n_components=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_e_step(self, pts, n_components, seed):
        model = random_model(np.random.default_rng(seed), n_components)
        got = bgmm._weighted_log_densities(pts, model)
        assert got.flags.c_contiguous
        assert got.tobytes() == reference_log_densities(pts, model).tobytes()
        ref_ll = float(bgmm.logsumexp(reference_log_densities(pts, model), axis=1).sum())
        assert bgmm.gmm_log_likelihood(model, pts) == ref_ll

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           floor=st.sampled_from([1e-4, 1e-2, 1.0]))
    def test_floor_of_a_stack(self, count, seed, floor):
        # Asymmetric matrices with negative and sub-floor eigenvalues.
        cov = np.random.default_rng(seed).normal(scale=0.1, size=(count, 3, 3))
        got = bgmm._floor_covariance(cov, floor)
        want = np.stack([reference_floor(c, floor) for c in cov])
        assert got.tobytes() == want.tobytes()
        assert bgmm._floor_covariance(cov[0], floor).tobytes() == want[0].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(pts=clouds(), k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_kmeans_pp(self, pts, k, seed):
        k = min(k, len(pts))
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = bgmm._kmeans_pp(pts, k, got_rng)
        assert got.tobytes() == reference_kmeans_pp(pts, k, ref_rng).tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(pts=clouds(), n_components=st.integers(1, 12), max_iters=st.integers(1, 25),
           seed=st.integers(0, 2**32 - 1), floor=st.sampled_from([bgmm.COVARIANCE_FLOOR, 1e-8]))
    def test_fit(self, pts, n_components, max_iters, seed, floor):
        # One EM iteration already compares the Lloyd means (through the
        # first log-likelihood) and the M-step covariances.
        n_components = min(n_components, len(pts))
        got = bgmm.fit_gmm(pts, n_components, max_iters=max_iters, seed=seed, floor=floor)
        want = reference_fit(pts, n_components, max_iters, seed, floor)
        for name in ("weights", "means", "covariances", "assignments", "log_likelihoods"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @settings(max_examples=200, deadline=None)
    @given(pts=clouds(), n_components=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_lloyd_stop_matches_ten_iterations(self, pts, n_components, seed):
        # With no EM iteration the model is the Lloyd initialization: its
        # means, covariances and weights after stopping at the fixed point
        # equal those of the reference's fixed KMEANS_ITERS iterations,
        # repeated points and empty clusters included.
        n_components = min(n_components, len(pts))
        got = bgmm.fit_gmm(pts, n_components, max_iters=0, seed=seed)
        want = reference_fit(pts, n_components, 0, seed, bgmm.COVARIANCE_FLOOR)
        for name in ("weights", "means", "covariances", "assignments"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_lloyd_stops_once_labels_repeat(self, monkeypatch):
        # Four tight, distant blobs: k-means++ seeds one center in each, so
        # the first update leaves every label in place and Lloyd labels the
        # points twice in all, not KMEANS_ITERS + 1 times.
        rng = np.random.default_rng(3)
        pts = (rng.normal(scale=100.0, size=(4, 3))[rng.integers(4, size=200)]
               + rng.normal(scale=0.1, size=(200, 3)))
        calls = []
        nearest = bgmm._nearest_center
        monkeypatch.setattr(bgmm, "_nearest_center",
                            lambda *args: calls.append(1) or nearest(*args))
        got = bgmm.fit_gmm(pts, 4, max_iters=0, seed=0)
        assert len(calls) == 2
        want = reference_fit(pts, 4, 0, 0, bgmm.COVARIANCE_FLOOR)
        assert got.means.tobytes() == want.means.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_outlier_rule_with_ties(self, data):
        rows, cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        dists = np.array(data.draw(st.lists(st.integers(0, 3), min_size=rows * cols,
                                            max_size=rows * cols)),
                         dtype=float).reshape(rows, cols)
        k = data.draw(st.integers(1, min(rows, cols)))
        for d in (dists, dists.T):
            np.testing.assert_array_equal(bgmm._outlier_components(d, k),
                                          reference_outliers(d, k))

    def test_unclaimed_component_moves_to_the_centroid(self):
        # Two repeated locations and three components: the third k-means++
        # center repeats one of them and gets no point, and with a floor far
        # below its initial unit covariance no point claims it.
        rng = np.random.default_rng(0)
        locations = rng.normal(size=(2, 3)) * 10
        cloud = locations[rng.integers(2, size=40)]
        model = bgmm.fit_gmm(cloud, 3, seed=0, floor=1e-8)
        want = reference_fit(cloud, 3, 100, 0, 1e-8)
        assert model.means.tobytes() == want.means.tobytes()
        j = int(np.argmin(model.weights))
        assert model.weights[j] == pytest.approx(1e-8, rel=1e-6)
        np.testing.assert_allclose(model.means[j], cloud.mean(axis=0), rtol=1e-12)
        diff = cloud - cloud.mean(axis=0)
        np.testing.assert_allclose(model.covariances[j], diff.T @ diff / len(cloud),
                                   atol=1e-7)


class TestStopRule:
    """EM stops at the first iteration whose log-likelihood gained less than
    ``tol`` per point."""

    @settings(max_examples=60, deadline=None)
    @given(pts=clouds(), n_components=st.integers(1, 12), max_iters=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([1e-6, 1e-3, 1e-1]))
    def test_stops_at_the_first_small_gain(self, pts, n_components, max_iters, seed, tol):
        n_components = min(n_components, len(pts))
        model = bgmm.fit_gmm(pts, n_components, max_iters=max_iters, tol=tol, seed=seed)
        g = np.diff(model.log_likelihoods)
        assert (g[:-1] >= tol * len(pts)).all()
        if len(model.log_likelihoods) < max_iters:
            assert g[-1] < tol * len(pts)

    def test_flat_patch_stops_before_the_cap(self):
        # Points on a plane: the off-plane variances sit at the floor and
        # the in-plane ones keep creeping, by about 0.004 in all per
        # iteration after 100. An absolute stop at 1e-6 ran to the cap of
        # 100 here.
        rng = np.random.default_rng(0)
        pts = np.zeros((256, 3))
        pts[:, :2] = rng.uniform(-5, 5, size=(256, 2))
        model = bgmm.fit_gmm(pts, 8, seed=0)
        assert len(model.log_likelihoods) < 100
        assert np.diff(model.log_likelihoods)[-1] < 1e-3 * len(pts)
