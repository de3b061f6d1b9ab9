from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adreg import geometry as geo
from adreg import training
from adreg.backbone import scaled_layer_configs
from adreg.geometry import RigidTransform
from adreg.io import RunConfig


def rot_z(deg):
    t = np.deg2rad(deg)
    return np.array([[np.cos(t), -np.sin(t), 0.0],
                     [np.sin(t), np.cos(t), 0.0],
                     [0.0, 0.0, 1.0]])


def random_transform(rng, max_rot=180.0, max_trans=5.0):
    return geo.random_rigid_transform(rng, max_rot, max_trans)


def knn_oracle(queries, targets, k):
    """O(NM) reference: per query, targets ordered by (d^2, index)."""
    indices = np.empty((len(queries), k), dtype=np.int64)
    dists = np.empty((len(queries), k))
    for qi, q in enumerate(queries):
        d2 = ((targets - q) ** 2).sum(1)
        order = sorted(range(len(targets)), key=lambda j: (d2[j], j))[:k]
        indices[qi] = order
        dists[qi] = np.sqrt(d2[order])
    return indices, dists


def whole_row_knn(queries, targets, k):
    """The KNN that scans every target for each block of query rows, as
    knn_search did before it kept each block to its nearby targets."""
    n, m = len(queries), len(targets)
    indices = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k))
    t_cols = np.ascontiguousarray(targets.T)
    rows = max(1, geo._KNN_BLOCK_ENTRIES // m)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        d2 = geo._sq_dists(np.ascontiguousarray(queries[block].T), t_cols)
        picked = np.argpartition(d2, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d2, picked[:, k - 1:], axis=1)
        picked.sort(axis=1)
        order = np.argsort(np.take_along_axis(d2, picked, axis=1), axis=1, kind="stable")
        idx = np.take_along_axis(picked, order, axis=1)
        tied = (d2 <= kth).sum(axis=1) > k
        if tied.any():
            idx[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        indices[block] = idx
        dists[block] = np.sqrt(np.take_along_axis(d2, idx, axis=1))
    return indices, dists


def boundary_tied_rows(queries, targets, k):
    """Rows whose k-th squared distance is shared by a target outside the k."""
    count = 0
    for q in queries:
        d2 = ((targets - q) ** 2).sum(1)
        count += int((d2 <= np.sort(d2)[k - 1]).sum() > k)
    return count


def fps_reference(cloud, n, weights=None, seed=0):
    """The greedy loop with row-wise squared distances."""
    chosen = np.empty(n, dtype=np.int64)
    chosen[0] = seed % len(cloud)
    d2min = ((cloud - cloud[chosen[0]]) ** 2).sum(axis=1)
    taken = np.zeros(len(cloud), dtype=bool)
    taken[chosen[0]] = True
    for i in range(1, n):
        score = d2min if weights is None else weights * np.sqrt(d2min)
        score = np.where(taken, -1.0, score)
        nxt = int(np.argmax(score))
        chosen[i] = nxt
        taken[nxt] = True
        d2min = np.minimum(d2min, ((cloud - cloud[nxt]) ** 2).sum(axis=1))
    return chosen


class TestRigidTransform:
    def test_compose_identity(self):
        rng = np.random.default_rng(0)
        t = random_transform(rng)
        out = geo.compose(RigidTransform.identity(), t)
        np.testing.assert_allclose(out.rotation, t.rotation, atol=1e-15)
        np.testing.assert_allclose(out.translation, t.translation, atol=1e-15)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = random_transform(rng)
            out = geo.compose(t, geo.invert(t))
            assert np.abs(out.rotation - np.eye(3)).max() < 1e-9
            assert np.abs(out.translation).max() < 1e-9

    def test_compose_rotation_angles_add(self):
        a = RigidTransform(rot_z(30.0), np.zeros(3))
        b = RigidTransform(rot_z(60.0), np.zeros(3))
        out = geo.compose(a, b)
        np.testing.assert_allclose(out.rotation, rot_z(90.0), atol=1e-12)

    def test_compose_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b, c = (random_transform(rng) for _ in range(3))
            lhs = geo.compose(geo.compose(a, b), c)
            rhs = geo.compose(a, geo.compose(b, c))
            assert np.abs(lhs.rotation - rhs.rotation).max() < 1e-9
            assert np.abs(lhs.translation - rhs.translation).max() < 1e-9

    def test_invert_translation(self):
        t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        inv = geo.invert(t)
        np.testing.assert_allclose(inv.translation, [-1.0, -2.0, -3.0])

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestApplyTransform:
    def test_identity(self):
        cloud = np.random.default_rng(3).normal(size=(10, 3))
        np.testing.assert_array_equal(geo.apply_transform(RigidTransform.identity(), cloud), cloud)

    def test_translation(self):
        t = RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.0]))
        out = geo.apply_transform(t, [[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[0.0, 0.0, 1.0]])

    def test_rot_z_90(self):
        t = RigidTransform(rot_z(90.0), np.zeros(3))
        out = geo.apply_transform(t, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(4)
        cloud = rng.normal(size=(40, 3)) * 5
        t = random_transform(rng)
        moved = geo.apply_transform(t, cloud)
        before = np.linalg.norm(cloud[:, None] - cloud[None], axis=-1)
        after = np.linalg.norm(moved[:, None] - moved[None], axis=-1)
        assert np.abs(before - after).max() < 1e-9

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            geo.apply_transform(RigidTransform.identity(), [[np.nan, 0.0, 0.0]])


def voxel_downsample_by_unique(cloud, voxel):
    """The grid as first written: np.unique over the integer key rows."""
    pts = geo.as_points(cloud)
    keys = np.floor(pts / voxel).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    return sums / counts[:, None]


def assert_same_grid(cloud, voxel):
    got = geo.voxel_downsample(cloud, voxel)
    want = voxel_downsample_by_unique(cloud, voxel)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestVoxelDownsample:
    def test_negative_coordinates_match_unique(self):
        rng = np.random.default_rng(30)
        assert_same_grid(rng.uniform(-20.0, 5.0, size=(500, 3)), 0.7)

    def test_duplicate_points_match_unique(self):
        rng = np.random.default_rng(31)
        base = rng.normal(size=(40, 3)) * 3
        cloud = base[rng.integers(0, len(base), size=300)]
        assert_same_grid(cloud, 0.25)
        assert_same_grid(cloud, 1e-9)

    def test_single_point_matches_unique(self):
        assert_same_grid([[-1.5, 2.25, -0.125]], 0.3)

    def test_keys_too_wide_to_pack_into_one_integer(self):
        # At 1e-3 voxels, +-1e6 m spans 2e9 cells per axis: three such keys
        # need about 93 bits, more than one int64 holds.
        rng = np.random.default_rng(32)
        cloud = rng.uniform(-1e6, 1e6, size=(400, 3))
        cloud = np.concatenate([cloud, cloud[:50] + 1e-4,
                                [[-1e6, -1e6, -1e6], [1e6, 1e6, 1e6]]])
        assert_same_grid(cloud, 1e-3)

    def test_keys_past_int64_are_rejected(self):
        # 3e18 m at 0.3 m voxels is 1e19 cells, past the 9.2e18 an int64
        # holds; cast anyway, the two points would share one cell.
        cloud = [[3e18, 0.0, 0.0], [-3e18, 0.0, 0.0]]
        with pytest.raises(ValueError, match=r"voxel size 0\.3 .* coordinate 3e\+18"):
            geo.voxel_downsample(cloud, 0.3)
        assert len(geo.voxel_downsample(cloud, 1.0)) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-12, 12)] * 3), min_size=1, max_size=60),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_unique_on_a_half_grid(self, cells, seed):
        # Coordinates on a 0.5 m lattice at voxel 0.5 put points exactly on
        # cell faces, where floor decides the cell.
        cloud = np.asarray(cells, dtype=np.float64) * 0.5
        jitter = np.random.default_rng(seed).uniform(0.0, 0.4, size=cloud.shape)
        assert_same_grid(cloud, 0.5)
        assert_same_grid(cloud + jitter, 0.5)

    def test_single_cell(self):
        # Cloud sits inside one voxel cell, so one centroid comes back.
        rng = np.random.default_rng(5)
        cloud = rng.uniform(2.0, 3.0, size=(50, 3))
        out = geo.voxel_downsample(cloud, 10.0)
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out[0], cloud.mean(axis=0))

    def test_cube_corners_stay_apart(self):
        corners = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
        out = geo.voxel_downsample(corners, 0.4)
        assert len(out) == 8
        assert {tuple(p) for p in out} == {tuple(p) for p in corners}

    def test_midpoint(self):
        out = geo.voxel_downsample([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]], 1.0)
        np.testing.assert_allclose(out, [[0.15, 0.15, 0.15]])

    def test_bad_voxel(self):
        with pytest.raises(ValueError):
            geo.voxel_downsample(np.zeros((1, 3)), 0.0)

    def test_deterministic_order(self):
        rng = np.random.default_rng(6)
        cloud = rng.normal(size=(200, 3)) * 4
        a = geo.voxel_downsample(cloud, 0.5)
        b = geo.voxel_downsample(cloud[::-1], 0.5)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestFarthestPointSample:
    def test_all_points_is_permutation(self):
        rng = np.random.default_rng(7)
        cloud = rng.normal(size=(30, 3))
        idx = geo.farthest_point_sample(cloud, 30, seed=4)
        assert sorted(idx) == list(range(30))

    def test_collinear_greedy(self):
        cloud = np.array([[float(i), 0.0, 0.0] for i in range(11)])
        idx = geo.farthest_point_sample(cloud, 2, seed=0)
        assert set(idx) == {0, 10}

    def test_matches_naive_greedy(self):
        rng = np.random.default_rng(8)
        cloud = rng.normal(size=(25, 3))
        got = geo.farthest_point_sample(cloud, 10, seed=3)
        # Independent re-implementation of the greedy rule.
        chosen = [3]
        d2 = ((cloud - cloud[3]) ** 2).sum(1)
        for _ in range(9):
            masked = d2.copy()
            masked[chosen] = -1.0
            nxt = int(np.argmax(masked))
            chosen.append(nxt)
            d2 = np.minimum(d2, ((cloud - cloud[nxt]) ** 2).sum(1))
        assert list(got) == chosen

    def test_zero_weights_never_chosen(self):
        rng = np.random.default_rng(9)
        cloud = rng.normal(size=(40, 3))
        weights = np.ones(40)
        weights[20:] = 0.0
        idx = geo.farthest_point_sample(cloud, 15, weights=weights, seed=0)
        assert all(i < 20 for i in idx[1:])

    def test_seed_selects_first(self):
        cloud = np.random.default_rng(10).normal(size=(9, 3))
        assert geo.farthest_point_sample(cloud, 1, seed=5)[0] == 5
        assert geo.farthest_point_sample(cloud, 1, seed=14)[0] == 5

    def test_too_many(self):
        with pytest.raises(ValueError):
            geo.farthest_point_sample(np.zeros((4, 3)), 5)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_row_wise_loop(self, weighted):
        rng = np.random.default_rng(18)
        cloud = rng.normal(size=(3000, 3)) * 10.0
        weights = rng.uniform(size=3000) if weighted else None
        got = geo.farthest_point_sample(cloud, 300, weights=weights, seed=7)
        np.testing.assert_array_equal(got, fps_reference(cloud, 300, weights, seed=7))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_duplicates_leave_the_choice_to_the_taken_mask(self, weighted):
        # 8 distinct points, 5 copies each: once every distinct point is
        # taken, all scores are 0 and only the taken mask orders the rest.
        rng = np.random.default_rng(19)
        cloud = np.repeat(rng.normal(size=(8, 3)), 5, axis=0)
        weights = rng.uniform(size=40) if weighted else None
        got = geo.farthest_point_sample(cloud, 40, weights=weights, seed=3)
        np.testing.assert_array_equal(got, fps_reference(cloud, 40, weights, seed=3))
        assert sorted(got) == list(range(40))


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises(self, value):
        weights = np.full(10, 0.5)
        weights[4] = value
        with pytest.raises(ValueError, match="NaN or infinite"):
            geo.farthest_point_sample(np.random.default_rng(22).normal(size=(10, 3)), 3,
                                      weights=weights)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_property(self, data):
        # Half-unit coordinates repeat points and distances; weights take
        # the bounds 0 and 1 often.
        coord = st.integers(-4, 4).map(lambda v: v / 2.0)
        points = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=30))
        copies = data.draw(st.lists(st.integers(0, len(points) - 1), max_size=10))
        cloud = np.array(points + [points[i] for i in copies])
        total = len(cloud)
        weights = None
        if data.draw(st.booleans()):
            weight = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
            weights = np.array(data.draw(st.lists(weight, min_size=total, max_size=total)))
        n = data.draw(st.one_of(st.just(total), st.integers(1, total)))
        seed = data.draw(st.integers(0, 3 * total))
        got = geo.farthest_point_sample(cloud, n, weights=weights, seed=seed)
        np.testing.assert_array_equal(got, fps_reference(cloud, n, weights, seed=seed))


class TestKnnSearch:
    def test_self_match(self):
        cloud = np.random.default_rng(11).normal(size=(20, 3))
        ns = geo.knn_search(cloud[5:6], cloud, 1)
        assert ns.indices[0, 0] == 5
        assert ns.distances[0, 0] == 0.0

    def test_line_query(self):
        targets = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        ns = geo.knn_search(np.array([[0.4, 0, 0]]), targets, 2)
        assert list(ns.indices[0]) == [0, 1]
        np.testing.assert_allclose(ns.distances[0], [0.4, 0.6])

    def test_duplicate_tie_lower_index(self):
        targets = np.array([[1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        ns = geo.knn_search(np.array([[1.0, 0, 0]]), targets, 3)
        assert list(ns.indices[0]) == [0, 2, 3]

    def test_rows_sorted_and_match_bruteforce_oracle(self):
        rng = np.random.default_rng(12)
        queries = rng.normal(size=(40, 3))
        targets = rng.normal(size=(300, 3))
        ns = geo.knn_search(queries, targets, 5)
        assert (np.diff(ns.distances, axis=1) >= 0).all()
        # O(NM) oracle with explicit loops.
        for qi in range(len(queries)):
            d = np.sqrt(((targets - queries[qi]) ** 2).sum(1))
            order = sorted(range(300), key=lambda j: (d[j], j))[:5]
            assert list(ns.indices[qi]) == order

    def test_query_blocks_with_boundary_ties_match_oracle(self):
        rng = np.random.default_rng(13)
        targets = rng.normal(size=(2000, 3))
        targets[100:110] = targets[0]  # inject exact ties
        queries = rng.normal(size=(800, 3))
        queries[::97] = targets[0]  # 11 targets at d=0, so k=7 splits a tie
        assert len(queries) > 2 * geo._KNN_BLOCK_ENTRIES // len(targets)
        assert boundary_tied_rows(queries, targets, 7) == 9
        ns = geo.knn_search(queries, targets, 7)
        want_idx, want_dist = knn_oracle(queries, targets, 7)
        np.testing.assert_array_equal(ns.indices, want_idx)
        np.testing.assert_array_equal(ns.distances, want_dist)

    def test_large_cloud_and_k_equal_to_targets_match_oracle(self):
        rng = np.random.default_rng(14)
        targets = rng.normal(size=(1500, 3))
        queries = rng.normal(size=(1000, 3))
        assert len(queries) > 2 * geo._KNN_BLOCK_ENTRIES // len(targets)
        for q, k in ((queries, 64), (queries[:40], len(targets))):
            ns = geo.knn_search(q, targets, k)
            want_idx, want_dist = knn_oracle(q, targets, k)
            np.testing.assert_array_equal(ns.indices, want_idx)
            np.testing.assert_array_equal(ns.distances, want_dist)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_on_rounded_coordinates_property(self, data):
        # Coordinates on a 0.5 grid make equal distances common.
        width = data.draw(st.sampled_from([1, 3, 9]))
        n_q = data.draw(st.integers(1, 12))
        n_t = data.draw(st.integers(1, 30))
        k = data.draw(st.integers(1, n_t))
        coord = st.integers(-4, 4).map(lambda v: v / 2.0)
        queries = np.array(data.draw(st.lists(coord, min_size=n_q * width,
                                              max_size=n_q * width))).reshape(n_q, width)
        targets = np.array(data.draw(st.lists(coord, min_size=n_t * width,
                                              max_size=n_t * width))).reshape(n_t, width)
        ns = geo.knn_search(queries, targets, k)
        want_idx, want_dist = knn_oracle(queries, targets, k)
        np.testing.assert_array_equal(ns.indices, want_idx)
        np.testing.assert_array_equal(ns.distances, want_dist)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            geo.knn_search(np.zeros((2, 3)), np.zeros((3, 3)), 4)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["queries", "targets"])
    def test_non_finite_coordinates_raise(self, side, value):
        rng = np.random.default_rng(20)
        arrays = {"queries": rng.normal(size=(40, 3)), "targets": rng.normal(size=(50, 3))}
        arrays[side][7] = value
        with pytest.raises(ValueError, match="finite"):
            geo.knn_search(arrays["queries"], arrays["targets"], 4)

    def test_tie_exactly_at_the_margin_of_a_half(self):
        # With one-entry blocks every query becomes its own half of radius
        # 0, whose reach is its k-th distance: the targets at -1 and 1 (and
        # at 1 and 3) tie exactly there, and the lower index must win.
        targets = np.array([[-1.0], [1.0], [3.0], [5.0]])
        queries = np.array([[0.0], [2.0], [4.0]])
        with mock.patch.object(geo, "_KNN_BLOCK_ENTRIES", 1):
            for k in (1, 2, 3):
                ns = geo.knn_search(queries, targets, k)
                want_idx, want_dist = knn_oracle(queries, targets, k)
                np.testing.assert_array_equal(ns.indices, want_idx)
                np.testing.assert_array_equal(ns.distances, want_dist)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_local_search_matches_oracle_property(self, data):
        # Blocks of 16 entries make small inputs split into many halves.
        width = data.draw(st.sampled_from([1, 3, 9]))
        layout = data.draw(st.sampled_from(["clustered", "grid", "duplicates", "outside"]))
        n_t = data.draw(st.integers(1, 60))
        n_q = data.draw(st.integers(1, 40))
        k = data.draw(st.one_of(st.just(n_t), st.integers(1, n_t)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if layout == "clustered":
            centres = rng.normal(size=(3, width)) * 20.0
            targets = centres[rng.integers(0, 3, n_t)] + rng.normal(size=(n_t, width)) * 0.05
            queries = centres[rng.integers(0, 3, n_q)] + rng.normal(size=(n_q, width)) * 0.05
        elif layout == "grid":
            # Half-unit coordinates: equal distances, at the k-th neighbour
            # and at the reach of a half, are common.
            targets = rng.integers(-4, 5, size=(n_t, width)) / 2.0
            queries = rng.integers(-4, 5, size=(n_q, width)) / 2.0
        elif layout == "duplicates":
            base = rng.normal(size=(max(1, n_t // 4), width))
            targets = base[rng.integers(0, len(base), n_t)]
            queries = base[rng.integers(0, len(base), n_q)]
        else:
            # Queries outside the targets' bounding box.
            targets = rng.uniform(-1.0, 1.0, size=(n_t, width))
            queries = rng.uniform(-1.0, 1.0, size=(n_q, width)) + 5.0 * rng.choice([-1, 1], width)
        before = queries.copy()
        with mock.patch.object(geo, "_KNN_BLOCK_ENTRIES", 16):
            ns = geo.knn_search(queries, targets, k)
        np.testing.assert_array_equal(queries, before)  # split order is a copy
        want_idx, want_dist = knn_oracle(queries, targets, k)
        np.testing.assert_array_equal(ns.indices, want_idx)
        np.testing.assert_array_equal(ns.distances, want_dist)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bounded_scan_matches_oracle_property(self, data):
        # Queries wider than 3 take the bounded scan.
        width = data.draw(st.integers(4, 300), label="width")
        layout = data.draw(st.sampled_from(["normal", "integer", "duplicates", "huge"]),
                           label="layout")
        n_t = data.draw(st.integers(1, 30), label="targets")
        n_q = data.draw(st.integers(1, 20), label="queries")
        k = data.draw(st.one_of(st.just(n_t), st.integers(1, n_t)), label="k")
        entries = data.draw(st.sampled_from([16, geo._KNN_BLOCK_ENTRIES]), label="entries")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if layout == "integer":
            # Small integers: exact ties at the k-th distance are common.
            targets = rng.integers(-2, 3, size=(n_t, width)).astype(float)
            queries = rng.integers(-2, 3, size=(n_q, width)).astype(float)
        elif layout == "duplicates":
            base = rng.normal(size=(max(1, n_t // 4), width))
            targets = base[rng.integers(0, len(base), n_t)]
            queries = base[rng.integers(0, len(base), n_q)]
        else:
            targets = rng.normal(size=(n_t, width))
            queries = rng.normal(size=(n_q, width))
        if layout == "huge":
            # Squared norms overflow for these rows; the others keep
            # finite bounds unless a target row overflows too.
            queries[rng.random(n_q) < 0.5] *= 1e155
            targets[rng.random(n_t) < 0.2] *= 1e155
            # A query at a target: distance 0 however large the norms.
            queries[0] = targets[rng.integers(n_t)]
        before = queries.copy(), targets.copy()
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(geo, "_KNN_BLOCK_ENTRIES", entries):
            ns = geo.knn_search(queries, targets, k)
            want_idx, want_dist = knn_oracle(queries, targets, k)
        np.testing.assert_array_equal(queries, before[0])
        np.testing.assert_array_equal(targets, before[1])
        assert ns.indices.tobytes() == want_idx.tobytes()
        assert ns.distances.tobytes() == want_dist.tobytes()

    def test_norm_overflowing_for_one_target_scans_the_row(self):
        # |q|^2 is finite and |t0|^2 overflows, yet q is far nearer to t0
        # than to t1: a row with any non-finite bound is scanned in full.
        queries = np.array([[1.3e154, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        targets = np.array([[0.0, 0.0, 0.0, 0.0], [1.35e154, 0.0, 0.0, 0.0],
                            [1.0, 2.0, 3.0, 5.0]])
        for k in (1, 2, 3):
            with np.errstate(over="ignore", invalid="ignore"):
                ns = geo.knn_search(queries, targets, k)
                want_idx, want_dist = knn_oracle(queries, targets, k)
            assert ns.indices[0, 0] == 1
            np.testing.assert_array_equal(ns.indices, want_idx)
            np.testing.assert_array_equal(ns.distances, want_dist)

    def test_descriptor_rows_need_no_full_scan(self):
        # Rows like the coarse stage's 256-wide descriptors: every bound is
        # finite, so every row drops some targets, which read +inf.
        rng = np.random.default_rng(22)
        centres = np.maximum(rng.normal(size=(40, 256)), 0.0)
        targets = centres[rng.integers(0, 40, 256)] + 0.1 * rng.normal(size=(256, 256))
        queries = targets[rng.permutation(256)[:252]] + 0.05 * rng.normal(size=(252, 256))
        select = geo._select

        def select_dropped(d2, k):
            assert (d2 == np.inf).any(axis=1).all(), "a row kept every target"
            return select(d2, k)

        with mock.patch.object(geo, "_select", side_effect=select_dropped) as spy:
            ns = geo.knn_search(queries, targets, 3)
        assert spy.called
        want_idx, want_dist = knn_oracle(queries, targets, 3)
        assert ns.indices.tobytes() == want_idx.tobytes()
        assert ns.distances.tobytes() == want_dist.tobytes()

    def test_full_scale_layer_one_matches_the_whole_row_scan(self):
        config = RunConfig(backbone_scale=1.0)
        pair = training.gen_synthetic_pair(np.random.default_rng(21), 60_000,
                                           config.max_rot_deg, config.max_trans,
                                           config.jitter, config.outlier_clusters)
        pts = training.preprocess_cloud(pair.source, config, seed=0)
        layer = scaled_layer_configs(1.0)[0]
        queries = pts[geo.farthest_point_sample(pts, layer.n_out)]
        assert len(pts) > 10_000 and layer.k_group == 64
        ns = geo.knn_search(queries, pts, layer.k_group)
        want_idx, want_dist = whole_row_knn(queries, pts, layer.k_group)
        assert ns.indices.tobytes() == want_idx.tobytes()
        assert ns.distances.tobytes() == want_dist.tobytes()


class TestSqDists:
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("n_q, n_t", [(1, 1), (1, 17), (9, 1), (13, 21)])
    def test_matches_the_summed_squared_differences(self, width, n_q, n_t):
        rng = np.random.default_rng(100 * width + 10 * n_q + n_t)
        # Magnitudes spread over six decades, so the order of the adds shows.
        q = rng.normal(size=(n_q, width)) * 10.0 ** rng.uniform(-3, 3, (n_q, width))
        t = rng.normal(size=(n_t, width)) * 10.0 ** rng.uniform(-3, 3, (n_t, width))
        want = ((q[:, None, :] - t[None]) ** 2).sum(-1)
        got = geo._sq_dists(np.ascontiguousarray(q.T), np.ascontiguousarray(t.T))
        assert got.shape == (n_q, n_t)
        assert got.tobytes() == want.tobytes()


class TestRandomRigidTransform:
    def test_zero_bounds_identity(self):
        t = geo.random_rigid_transform(np.random.default_rng(15), 0.0, 0.0)
        np.testing.assert_array_equal(t.rotation, np.eye(3))
        np.testing.assert_array_equal(t.translation, np.zeros(3))

    def test_sampled_bounds(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            t = geo.random_rigid_transform(rng, 180.0, 5.0)
            angle = np.degrees(np.arccos(np.clip((np.trace(t.rotation) - 1) / 2, -1, 1)))
            assert angle <= 180.0 + 1e-9
            assert np.abs(t.translation).max() <= 5.0

    def test_seed_repeatable(self):
        a = geo.random_rigid_transform(np.random.default_rng(17), 30.0, 2.0)
        b = geo.random_rigid_transform(np.random.default_rng(17), 30.0, 2.0)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(a.translation, b.translation)
