"""Rigid-motion algebra, point-cloud sampling, and nearest-neighbor search.

Conventions: point clouds are (N, 3) float64 arrays in meters, transforms act
as ``p -> R p + t``. All functions are pure; nothing here holds mutable state
except a built :class:`KdTree`, whose queries are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-9

# Brute-force KNN is faster than the tree below this target count, and the
# exact-agreement contract between the two paths is tested at the boundary.
KDTREE_MIN_TARGETS = 1025
KDTREE_LEAF_SIZE = 32


def as_points(points, dim: int = 3) -> np.ndarray:
    """Coerce to an (N, dim) float64 array and reject non-finite entries."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, dim)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected an (N, {dim}) array, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("point array contains NaN or infinite coordinates")
    return arr


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) element: 3x3 rotation plus translation vector."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if not np.isfinite(rot).all() or not np.isfinite(trans).all():
            raise ValueError("transform contains non-finite entries")
        if np.abs(rot.T @ rot - np.eye(3)).max() > ORTHONORMAL_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > ORTHONORMAL_TOL:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def as_matrix34(self) -> np.ndarray:
        return np.hstack([self.rotation, self.translation[:, None]])


@dataclass(frozen=True)
class NeighborSet:
    """Per-query K nearest target indices with ascending distances."""

    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        if self.indices.shape != self.distances.shape:
            raise ValueError("indices and distances must share a shape")


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Return the transform applying ``b`` first, then ``a``."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    rot = t.rotation.T
    return RigidTransform(rot, -rot @ t.translation)


def transform_errors(est: RigidTransform, gt: RigidTransform) -> tuple[float, float]:
    """Translation error (RTE, meters) and rotation angle error (RRE, degrees)."""
    rte = float(np.linalg.norm(est.translation - gt.translation))
    cos = np.clip((np.trace(gt.rotation.T @ est.rotation) - 1.0) / 2.0, -1.0, 1.0)
    return rte, float(np.degrees(np.arccos(cos)))


def apply_transform(t: RigidTransform, cloud) -> np.ndarray:
    pts = as_points(cloud)
    return pts @ t.rotation.T + t.translation


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric (cross-product) matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about_axis(axis, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation matrix about ``axis`` by ``angle_deg`` degrees."""
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    u = axis / norm
    theta = np.deg2rad(angle_deg)
    k = skew(u)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def random_rigid_transform(rng: np.random.Generator, max_rot_deg: float,
                           max_trans: float) -> RigidTransform:
    """Random transform with rotation angle <= max_rot_deg about a uniform
    random axis and translation components uniform in [-max_trans, max_trans].
    """
    if max_rot_deg < 0 or max_trans < 0:
        raise ValueError("bounds must be nonnegative")
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.normal(size=3)
    angle = rng.uniform(0.0, max_rot_deg) if max_rot_deg > 0 else 0.0
    rot = rotation_about_axis(axis, angle)
    trans = rng.uniform(-max_trans, max_trans, size=3) if max_trans > 0 else np.zeros(3)
    return RigidTransform(rot, trans)


def voxel_downsample(cloud, voxel: float) -> np.ndarray:
    """Centroid per occupied voxel, ordered by sorted integer voxel key."""
    if voxel <= 0:
        raise ValueError("voxel size must be positive")
    pts = as_points(cloud)
    if len(pts) == 0:
        return pts
    keys = np.floor(pts / voxel).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    return sums / counts[:, None]


def farthest_point_sample(cloud, n: int, weights=None, seed: int = 0) -> np.ndarray:
    """Greedy farthest-point sampling; ``seed % N`` selects the first index.

    Unweighted mode maximizes the min-distance to the chosen set; weighted
    mode maximizes ``weights[i] * min_distance[i]`` (weights in [0, 1]).
    """
    pts = as_points(cloud)
    total = len(pts)
    if not 1 <= n <= total:
        raise ValueError(f"cannot sample {n} points from a cloud of {total}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if len(weights) != total:
            raise ValueError("weights length must match the cloud")
        if weights.min() < 0 or weights.max() > 1:
            raise ValueError("weights must lie in [0, 1]")

    chosen = np.empty(n, dtype=np.int64)
    chosen[0] = seed % total
    d2min = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    taken = np.zeros(total, dtype=bool)
    taken[chosen[0]] = True
    for i in range(1, n):
        score = d2min if weights is None else weights * np.sqrt(d2min)
        score = np.where(taken, -1.0, score)
        nxt = int(np.argmax(score))
        chosen[i] = nxt
        taken[nxt] = True
        d2min = np.minimum(d2min, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return chosen


def _pairwise_sq_dists(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    diff = queries[:, None, :] - targets[None, :, :]
    return (diff ** 2).sum(axis=-1)


def _knn_brute(queries: np.ndarray, targets: np.ndarray, k: int) -> NeighborSet:
    d2 = _pairwise_sq_dists(queries, targets)
    # Stable sort: equal distances resolve to the lower target index.
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    dists = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return NeighborSet(order.astype(np.int64), dists)


class KdTree:
    """Median-split kd-tree over an (N, d) array.

    Leaf distance evaluation uses the same arithmetic as the brute-force
    path, and candidate replacement orders by (distance^2, index), so tree
    and brute-force results agree exactly, ties included.
    """

    def __init__(self, points, leaf_size: int = KDTREE_LEAF_SIZE):
        self.points = np.asarray(points, dtype=np.float64)
        self.leaf_size = leaf_size
        self._root = self._build(np.arange(len(self.points), dtype=np.int64))

    def _build(self, idx):
        pts = self.points[idx]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        if len(idx) <= self.leaf_size:
            return (None, lo, hi, idx, None, None)
        axis = int(np.argmax(hi - lo))
        order = np.argsort(pts[:, axis], kind="stable")
        mid = len(idx) // 2
        left = self._build(idx[order[:mid]])
        right = self._build(idx[order[mid:]])
        return (axis, lo, hi, None, left, right)

    @staticmethod
    def _box_min_sq_dist(q, lo, hi):
        d = np.maximum(np.maximum(lo - q, q - hi), 0.0)
        return float((d ** 2).sum())

    def query(self, q: np.ndarray, k: int):
        # Worst candidate = lexicographic max of (d2, index); prune a node
        # only when its box cannot beat it strictly (keeps tie handling exact).
        best: list[tuple[float, int]] = []

        def visit(node):
            axis, lo, hi, idx, left, right = node
            if len(best) == k:
                worst = best[-1]
                if self._box_min_sq_dist(q, lo, hi) > worst[0]:
                    return
            if axis is None:
                d2 = ((q - self.points[idx]) ** 2).sum(axis=1)
                for dist2, j in zip(d2, idx):
                    cand = (float(dist2), int(j))
                    if len(best) < k:
                        best.append(cand)
                        best.sort()
                    elif cand < best[-1]:
                        best[-1] = cand
                        best.sort()
                return
            # Descend toward the query side first.
            l_d = self._box_min_sq_dist(q, left[1], left[2])
            r_d = self._box_min_sq_dist(q, right[1], right[2])
            first, second = (left, right) if l_d <= r_d else (right, left)
            visit(first)
            visit(second)

        visit(self._root)
        return best


def _knn_kdtree(queries: np.ndarray, targets: np.ndarray, k: int) -> NeighborSet:
    tree = KdTree(targets)
    n = len(queries)
    indices = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k))
    for i in range(n):
        best = tree.query(queries[i], k)
        indices[i] = [j for _, j in best]
        dists[i] = np.sqrt([d2 for d2, _ in best])
    return NeighborSet(indices, dists)


def knn_search(queries, targets, k: int) -> NeighborSet:
    """K nearest targets per query (Euclidean), ties broken by lower index."""
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if queries.ndim != 2 or targets.ndim != 2 or queries.shape[1] != targets.shape[1]:
        raise ValueError("queries and targets must be 2-D with equal width")
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(targets) < k:
        raise ValueError(f"need at least k={k} targets, got {len(targets)}")
    if len(targets) >= KDTREE_MIN_TARGETS:
        return _knn_kdtree(queries, targets, k)
    return _knn_brute(queries, targets, k)
