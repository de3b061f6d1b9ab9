"""Rigid-motion algebra, point-cloud sampling, and nearest-neighbor search.

Conventions: point clouds are (N, 3) float64 arrays in meters, transforms act
as ``p -> R p + t``. All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-9

# KNN handles query rows in blocks whose distance matrix holds about this
# many entries, which bounds its scratch memory whatever the cloud sizes.
# At 2**16 float64 entries (512 KB) a block's distance matrix and its
# per-coordinate temporaries stay within a 2 MB per-core L2 cache; at 2**19
# each was 4 MB and every pass went to L3. knn_search also stops splitting
# the queries into halves once a half's rows times its nearby targets fit
# one block. Blocks and halves only split rows, so the neighbours are the
# same at every size. Full-scale layer-1 KNN (1024 queries against 12-13k
# points, k = 64, four clouds), median ms per call over 9 rounds, two runs
# on a 2-core Xeon (the whole-row scan took 171 ms at 2**16):
#
#   entries   2**14    2**15    2**16    2**17    2**18
#   ms       56/56    50/49    47/45    47/46    58/57
_KNN_BLOCK_ENTRIES = 1 << 16


def as_points(points) -> np.ndarray:
    """Coerce to an (N, 3) float64 array and reject non-finite entries."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {arr.shape}")
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
    keys = np.floor(pts / voxel)
    # A key past 2**63 has no int64: the cast would merge far points.
    if np.abs(keys).max() >= 2.0 ** 63:
        raise ValueError(f"voxel size {voxel:g} gives integer keys past 2**63 for "
                         f"the largest coordinate {np.abs(pts).max():g}")
    keys = keys.astype(np.int64)
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
    # One bincount pass per coordinate adds each cell's points in row order,
    # starting from 0.0: the sums of a sequential loop over the rows.
    sums = np.stack([np.bincount(inverse, weights=pts[:, j], minlength=cells)
                     for j in range(3)], axis=1)
    counts = np.bincount(inverse, minlength=cells).astype(np.float64)
    return sums / counts[:, None]


def farthest_point_sample(cloud, n: int, weights=None, seed: int = 0) -> np.ndarray:
    """Greedy farthest-point sampling; ``seed % N`` selects the first index.

    Unweighted mode maximizes the min-distance to the chosen set; weighted
    mode maximizes ``weights[i] * min_distance[i]`` (weights in [0, 1]).
    Ties go to the lower index.

    Each step makes one pass per numpy call over the cloud: a (3, N)
    subtract into a reused buffer, an in-place square, two row adds and a
    ``np.minimum``. ``(t - q) ** 2`` equals ``(q - t) ** 2`` exactly and the
    rows are added x, y, z in turn, so the squared distances are those of
    ``_sq_dists`` bit for bit. The score of a point is the minimum over the
    chosen set of ``d2``, or of ``weights * sqrt(d2)``: both maps are
    nondecreasing in ``d2`` once rounded, so while the squared distances
    stay finite this minimum equals the map of the minimum distance, again
    bit for bit. Non-finite weights raise ``ValueError``.
    """
    pts = as_points(cloud)
    total = len(pts)
    if not 1 <= n <= total:
        raise ValueError(f"cannot sample {n} points from a cloud of {total}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if len(weights) != total:
            raise ValueError("weights length must match the cloud")
        if not np.isfinite(weights).all():
            raise ValueError("weights contain NaN or infinite entries")
        if weights.min() < 0 or weights.max() > 1:
            raise ValueError("weights must lie in [0, 1]")

    cols = np.ascontiguousarray(pts.T)
    diff = np.empty_like(cols)
    step = diff[0]

    def step_scores(i):
        """Score of every point against the chosen point ``i``, in ``step``."""
        np.subtract(cols, cols[:, i:i + 1], out=diff)
        np.square(diff, out=diff)
        np.add(step, diff[1], out=step)
        np.add(step, diff[2], out=step)
        if weights is not None:
            np.multiply(weights, np.sqrt(step, out=step), out=step)
        return step

    chosen = np.empty(n, dtype=np.int64)
    chosen[0] = seed % total
    # A chosen point scores -1, below every unchosen one; np.minimum against
    # the nonnegative step scores keeps it there.
    score = step_scores(chosen[0]).copy()
    score[chosen[0]] = -1.0
    for i in range(1, n):
        nxt = int(np.argmax(score))
        chosen[i] = nxt
        score[nxt] = -1.0
        np.minimum(score, step_scores(nxt), out=score)
    return chosen


def _sq_dists(q_cols: np.ndarray, t_cols: np.ndarray) -> np.ndarray:
    """Squared distances between the columns of ``q_cols`` (D, B) and
    ``t_cols`` (D, M), as a (B, M) array.

    The rows are added left to right, one (B, M) pass at a time. Its
    callers pass one to three rows, which numpy's pairwise summation also
    adds left to right, so the result equals
    ``((q[:, None, :] - t[None, :, :]) ** 2).sum(-1)`` bit for bit without
    the (B, M, D) temporary.
    """
    acc = np.subtract(q_cols[0, :, None], t_cols[0])
    np.square(acc, out=acc)
    scratch = np.empty_like(acc)
    for c in range(1, len(q_cols)):
        np.subtract(q_cols[c, :, None], t_cols[c], out=scratch)
        acc += np.square(scratch, out=scratch)
    return acc


def _select(d2: np.ndarray, k: int):
    """Per row of the squared distances ``d2`` (rows, M), the positions and
    distances of the k nearest, ordered by (distance, position)."""
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
    return idx, np.sqrt(np.take_along_axis(d2, idx, axis=1))


def _knn_brute(q_cols: np.ndarray, t_cols: np.ndarray, k: int):
    """K nearest columns of ``t_cols`` (D, M) for each column of ``q_cols``
    (D, N), scanning every target a block of query columns at a time.
    Returns their (N, k) positions and distances, ordered by (distance,
    position)."""
    n, m = q_cols.shape[1], t_cols.shape[1]
    rows = max(1, _KNN_BLOCK_ENTRIES // m)
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        idx[block], dist[block] = _select(_sq_dists(q_cols[:, block], t_cols), k)
    return idx, dist


def _knn_bounded(queries: np.ndarray, targets: np.ndarray, k: int,
                 slack: float, tiny: float):
    """K nearest rows of ``targets`` (M, D) for each row of ``queries``
    (N, D), with exact squared distances taken only for the targets a BLAS
    bound lets reach the k nearest (see ``knn_search``). Returns their
    (N, k) indices and distances, ordered by (distance, index)."""
    n, m = len(queries), len(targets)
    width = queries.shape[1]
    t_cols = np.ascontiguousarray(targets.T)
    q_norms = np.einsum("ij,ij->i", queries, queries)
    t_norms = np.einsum("ij,ij->i", targets, targets)
    rel = 8.0 * (width + 4) * np.finfo(np.float64).eps
    rows = max(1, _KNN_BLOCK_ENTRIES // m)
    pairs = max(1, _KNN_BLOCK_ENTRIES // width)
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        q = queries[block]
        # The expansion |q|^2 + |t|^2 - 2 q.t of every squared distance,
        # less and plus its error bound rel * (|q|^2 + |t|^2).
        lower = q @ t_cols
        lower *= -2.0
        err = q_norms[block, None] + t_norms
        lower += err
        err *= rel
        upper = lower + err
        lower -= err
        reach = np.partition(upper, k - 1, axis=1)[:, k - 1] * slack + tiny
        bounded = (np.isfinite(reach) & np.isfinite(upper).all(axis=1)
                   & np.isfinite(lower).all(axis=1))
        r, c = np.nonzero((lower <= reach[:, None]) | ~bounded[:, None])
        # Kept pairs get the exact distance, summed in numpy's pairwise
        # order, a chunk of pairs at a time; the rest read +inf, above
        # every row's k-th distance.
        d2 = np.full(lower.shape, np.inf)
        for lo in range(0, len(r), pairs):
            rp, cp = r[lo:lo + pairs], c[lo:lo + pairs]
            diff = q[rp] - targets[cp]
            np.square(diff, out=diff)
            d2[rp, cp] = diff.sum(axis=1)
        idx[block], dist[block] = _select(d2, k)
    return idx, dist


def knn_search(queries, targets, k: int) -> NeighborSet:
    """K nearest targets per query (Euclidean), ties broken by lower index.

    Queries of width 3 or less are split in halves at the median of their
    widest axis, recursively, and each half keeps only the targets that can
    hold the k nearest of one of its queries. Take a half with box centre c
    and radius r = max |q - c| over its queries, and let U be the k-th
    distance from c among its parent's candidates. Every query q of the half
    has k targets within U + |q - c|, so its k nearest lie within U + 2r of
    c; targets farther than that are dropped, with a relative slack that
    covers the rounding of every distance. A half stops splitting when its
    rows times its candidates fit one ``_KNN_BLOCK_ENTRIES`` block, or when
    it kept every candidate with r <= U: U then dominates the reach, so
    smaller halves gain little (k near the target count, or queries far
    from the targets). Then ``_knn_brute`` scans its candidates, kept in
    ascending index order.

    Wider queries, such as 256-wide descriptors, find no such locality, so
    they take a bounded scan (``_knn_bounded``) instead. One BLAS product
    q @ t.T and the squared norms give, for every pair of a block of query
    rows, a = |q|^2 + |t|^2 - 2 q.t. Each of its three dot products of D
    terms errs by at most about D * eps / 2 times the sum of its terms'
    magnitudes, and |q.t| <= (|q|^2 + |t|^2) / 2, so a lies within
    (D + 2) * eps * (|q|^2 + |t|^2) of the exact squared distance s. The
    scan takes e = 8 * (D + 4) * eps * (|q|^2 + |t|^2), so that the
    rounded bounds a - e and a + e still hold s between them. Let U be a
    row's k-th smallest a + e: k targets have s <= U, so the row's k-th
    computed distance is at most U times the same relative slack as above.
    A target whose a - e exceeds that reach is strictly farther and is
    dropped; every other target gets its exact distance, and the dropped
    ones read +inf in the row handed to the selection. Where products and
    squares underflow, the absolute errors stay far below the smallest
    normal number, which the reach adds. A row whose bounds are not all
    finite (squares overflow from coordinates near 1e154) keeps every
    target.

    The result equals a scan of every target bit for bit: a pair's squared
    distance is summed the same way whatever the other targets are, and a
    row drops only targets strictly farther than its k-th distance, so its
    ties at that distance, and the lower-index rule among them, are kept.
    Non-finite coordinates raise ``ValueError``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if queries.ndim != 2 or targets.ndim != 2 or queries.shape[1] != targets.shape[1]:
        raise ValueError("queries and targets must be 2-D with equal width")
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(targets) < k:
        raise ValueError(f"need at least k={k} targets, got {len(targets)}")
    if not (np.isfinite(queries).all() and np.isfinite(targets).all()):
        raise ValueError("queries and targets must be finite")
    n, width = queries.shape
    # Relative slack on the reach: every computed squared distance is within
    # (width + 2) * eps / 2 of the true one, relative, plus an absolute
    # error below the smallest normal number where it underflows.
    slack = 1.0 + 8.0 * (width + 4) * np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).tiny
    if width > 3:
        return NeighborSet(*_knn_bounded(queries, targets, k, slack, tiny))
    indices = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k))
    t_all = np.ascontiguousarray(targets.T)
    # A copy of the query columns, reordered in place as halves split, so
    # that every half is a contiguous range; order[i] is column i's query.
    q_cols = queries.T.copy()
    order = np.arange(n)
    # Halves to solve: (first column, end column, candidates, split further?).
    todo = [(0, n, np.arange(len(targets)), True)]
    while todo:
        lo, hi, cand, split = todo.pop()
        q = q_cols[:, lo:hi]
        # A half that kept every target holds them in order: no gather.
        whole = len(cand) == len(targets)
        t_cols = t_all if whole else np.take(t_all, cand, axis=1)
        if not split or hi - lo == 1 or (hi - lo) * len(cand) <= _KNN_BLOCK_ENTRIES:
            idx, dists[order[lo:hi]] = _knn_brute(q, t_cols, k)
            indices[order[lo:hi]] = idx if whole else cand[idx]
            continue
        mid = (hi - lo) // 2
        halves = np.argpartition(q[np.argmax(np.ptp(q, axis=1))], mid)
        q[:] = np.take(q, halves, axis=1)
        order[lo:hi] = order[lo:hi][halves]
        ends = [0, mid]
        centres = (np.minimum.reduceat(q, ends, axis=1) + np.maximum.reduceat(q, ends, axis=1)) / 2.0
        d2 = _sq_dists(centres, t_cols)
        spread = _sq_dists(centres, q)
        kth2s = np.partition(d2, k - 1, axis=1)[:, k - 1].tolist()
        for i, (start, end) in enumerate(((lo, lo + mid), (lo + mid, hi))):
            radius2 = float(spread[i, start - lo:end - lo].max())
            reach = (math.sqrt(kth2s[i] + tiny) + 2.0 * math.sqrt(radius2 + tiny)) * slack
            keep = d2[i] <= reach * reach + tiny
            todo.append((start, end, cand[keep], radius2 > kth2s[i] or not keep.all()))
    return NeighborSet(indices, dists)
