"""Rigid-motion algebra, point-cloud sampling, and nearest-neighbor search.

Conventions: point clouds are (N, 3) float64 arrays in meters, transforms act
as ``p -> R p + t``. All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-9

# KNN handles query rows in blocks whose distance matrix holds about this
# many entries, which bounds its scratch memory whatever the cloud sizes.
# At 2**16 float64 entries (512 KB) a block's distance matrix and its
# per-coordinate temporaries stay within a 2 MB per-core L2 cache; at 2**19
# each was 4 MB and every pass went to L3. Blocks only split rows, so the
# neighbours are the same at every size. Full-scale layer-1 KNN (1024
# queries against 11,662 points, k = 64), median ms, two runs on a 2-core
# Xeon:
#
#   entries   2**15    2**16    2**17    2**18    2**19
#   ms       116/161  101/124  120/119  128/133  125/134
_KNN_BLOCK_ENTRIES = 1 << 16


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
    # Rows sorted by (x, y, z) key, the order np.unique(keys, axis=0) gives,
    # without packing the three keys into one integer that could overflow.
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.empty(len(pts), dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    cell_of_sorted = np.cumsum(starts) - 1
    cells = int(cell_of_sorted[-1]) + 1
    inverse = np.empty(len(pts), dtype=np.int64)
    inverse[order] = cell_of_sorted
    sums = np.zeros((cells, 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=cells).astype(np.float64)
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

    cols = np.ascontiguousarray(pts.T)
    chosen = np.empty(n, dtype=np.int64)
    chosen[0] = seed % total
    d2min = _sq_dists(cols[:, chosen[0]:chosen[0] + 1], cols)[0]
    # A chosen point scores -1, below every unchosen one. Unweighted, the
    # score is d2min itself, whose -1 entries survive np.minimum against
    # the nonnegative distances. Weighted, the score buffer is refilled
    # from d2min (0 at chosen points) and the -1 entries written again.
    score = d2min if weights is None else np.empty(total)
    score[chosen[0]] = -1.0
    for i in range(1, n):
        if weights is not None:
            np.multiply(weights, np.sqrt(d2min, out=score), out=score)
            score[chosen[:i]] = -1.0
        nxt = int(np.argmax(score))
        chosen[i] = nxt
        score[nxt] = -1.0
        np.minimum(d2min, _sq_dists(cols[:, nxt:nxt + 1], cols)[0], out=d2min)
    return chosen


def _sq_dists(q_cols: np.ndarray, t_cols: np.ndarray, lo: int = 0,
              n: int | None = None) -> np.ndarray:
    """Squared distances between the columns of ``q_cols`` (D, B) and
    ``t_cols`` (D, M), as a (B, M) array, summed over rows ``lo:lo+n``.

    The rows are added one (B, M) pass at a time in numpy's pairwise
    summation order, so the result equals
    ``((q[:, None, :] - t[None, :, :]) ** 2).sum(-1)`` bit for bit without
    the (B, M, D) temporary. Below eight rows that order is left to right.
    """
    if n is None:
        n = len(q_cols)

    def sq(c):
        return (q_cols[c, :, None] - t_cols[c]) ** 2

    if n < 8:
        acc = sq(lo)
        for c in range(lo + 1, lo + n):
            acc += sq(c)
        return acc
    if n <= 128:
        acc = [sq(lo + j) for j in range(8)]
        blocked = n - n % 8
        for base in range(lo + 8, lo + blocked, 8):
            for j in range(8):
                acc[j] += sq(base + j)
        out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for c in range(lo + blocked, lo + n):
            out += sq(c)
        return out
    half = n // 2 - (n // 2) % 8
    return _sq_dists(q_cols, t_cols, lo, half) + _sq_dists(q_cols, t_cols, lo + half, n - half)


def _knn_brute(queries: np.ndarray, targets: np.ndarray, k: int) -> NeighborSet:
    n, m = len(queries), len(targets)
    indices = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k))
    t_cols = np.ascontiguousarray(targets.T)
    rows = max(1, _KNN_BLOCK_ENTRIES // m)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        d2 = _sq_dists(np.ascontiguousarray(queries[block].T), t_cols)
        # Order by (d2, index): argpartition picks k smallest, an index sort
        # then a stable d2 sort orders them. Where the k-th d2 ties with an
        # entry left out, the pick is arbitrary, so those rows sort in full.
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
    return _knn_brute(queries, targets, k)
