"""Gaussian-mixture modeling of point clouds and bidirectional outlier
rejection.

Mixtures are fitted with EM (k-means++ seeding, eigenvalue-floored
covariances); each E-step, M-step and Lloyd update is one stacked array
pass over the J components. A source component is an outlier when it is
not among the top-k nearest source components of its own nearest target
component; targets are judged symmetrically. Points hard-assigned to
outlier components are dropped. The module is training-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import as_points
from .nnet import logsumexp

COVARIANCE_FLOOR = 1e-4  # m^2, eigenvalue floor
KMEANS_ITERS = 10
LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GmmModel:
    weights: np.ndarray       # (J,)
    means: np.ndarray         # (J, 3)
    covariances: np.ndarray   # (J, 3, 3)
    assignments: np.ndarray   # (N,) hard component index per fitted point
    log_likelihoods: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_components(self) -> int:
        return len(self.weights)


def _floor_covariance(cov: np.ndarray, floor: float) -> np.ndarray:
    """Symmetrize and raise each eigenvalue to at least ``floor``; ``cov`` is
    one (3, 3) matrix or a (..., 3, 3) stack, each floored as on its own."""
    vals, vecs = np.linalg.eigh((cov + np.swapaxes(cov, -1, -2)) / 2.0)
    vals = np.maximum(vals, floor)
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _weighted_log_densities(pts: np.ndarray, model: GmmModel) -> np.ndarray:
    """log(w_j N(x_n | mu_j, Sigma_j)) as a C-ordered (N, J) array: ``logsumexp``
    sums along its rows, and F order changes that summation once J >= 8."""
    chol = np.linalg.cholesky(model.covariances)
    diff = np.swapaxes(pts - model.means[:, None], 1, 2)            # (J, 3, N)
    maha = (np.linalg.solve(chol, diff) ** 2).sum(axis=1)
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    log_dens = -0.5 * (3 * LOG_2PI + log_det[:, None] + maha)
    return np.ascontiguousarray(log_dens.T) + np.log(model.weights)


def gmm_log_likelihood(model: GmmModel, cloud) -> float:
    log_dens = _weighted_log_densities(as_points(cloud), model)
    return float(logsumexp(log_dens, axis=1).sum())


def _kmeans_pp(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: several distance-squared-sampled candidates per
    step, keeping the first that lowers total inertia the most."""
    n_candidates = 2 + int(np.log(k + 1))
    centers = np.empty((k, 3))
    centers[0] = pts[rng.integers(len(pts))]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = pts[rng.integers(len(pts))]
            continue
        cand = pts[rng.choice(len(pts), size=n_candidates, p=d2 / total)]
        trials = np.minimum(d2, ((pts - cand[:, None]) ** 2).sum(axis=-1))
        best = np.argmin(trials.sum(axis=1))
        centers[j] = cand[best]
        d2 = trials[best]
    return centers


def _nearest_center(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return ((pts[:, None, :] - centers[None]) ** 2).sum(axis=-1).argmin(axis=1)


def fit_gmm(cloud, n_components: int, max_iters: int = 100, tol: float = 1e-3,
            seed: int = 0, floor: float = COVARIANCE_FLOOR) -> GmmModel:
    """EM fit from a k-means++/Lloyd initialization; deterministic given seed.

    Lloyd runs at most ``KMEANS_ITERS`` iterations and stops at its fixed
    point, the first iteration whose labels repeat the previous ones; the
    centers are those of running all ``KMEANS_ITERS``, bit for bit.

    Log-likelihood per EM iteration is recorded on the returned model. EM
    stops after the M-step of the first iteration whose log-likelihood
    gained less than ``tol`` per point over the previous one (``tol * N``
    in all), or after ``max_iters`` iterations. ``tol`` thus bounds the
    gain of the mean log-likelihood, as scikit-learn's ``GaussianMixture``
    does, with its default of 1e-3: the rule does not tighten with the
    cloud's size. A component whose responsibilities sum below 1e-8 gets a
    responsibility of 1e-8 from every point before the M-step, so it keeps
    a tiny weight and moves to the cloud's centroid with the cloud's
    covariance.
    """
    pts = as_points(cloud)
    n = len(pts)
    if n < n_components or n_components < 1:
        raise ValueError(f"cannot fit {n_components} components to {n} points")
    rng = np.random.default_rng(seed)

    centers = _kmeans_pp(pts, n_components, rng)
    labels = _nearest_center(pts, centers)
    for _ in range(KMEANS_ITERS):
        sizes = np.bincount(labels, minlength=n_components)
        sums = np.bincount((3 * labels[:, None] + np.arange(3)).ravel(), pts.ravel(),
                           3 * n_components).reshape(-1, 3)
        filled = sizes > 0
        centers[filled] = sums[filled] / sizes[filled, None]
        previous, labels = labels, _nearest_center(pts, centers)
        # Centers follow from the labels (an empty cluster keeps its
        # center), so labels that repeat give the same centers and labels
        # at every later iteration: Lloyd is at its fixed point.
        if np.array_equal(labels, previous):
            break

    covariances = np.empty((n_components, 3, 3))
    sizes = np.bincount(labels, minlength=n_components)
    for j in range(n_components):
        if sizes[j] >= 2:
            diff = pts[labels == j] - centers[j]
            covariances[j] = _floor_covariance(diff.T @ diff / sizes[j], floor)
        else:
            covariances[j] = np.eye(3) * max(floor, 1.0)
    weights = np.where(sizes > 0, sizes / n, 1.0 / n_components)
    weights /= weights.sum()

    model = GmmModel(weights, centers, covariances, np.zeros(n, dtype=np.int64))
    ll_trace = []
    prev_ll = -np.inf
    for _ in range(max_iters):
        log_dens = _weighted_log_densities(pts, model)
        row_lse = logsumexp(log_dens, axis=1)
        ll = float(row_lse.sum())
        ll_trace.append(ll)
        resp = np.exp(log_dens - row_lse[:, None])
        resp[:, resp.sum(axis=0) < 1e-8] = 1e-8
        counts = resp.sum(axis=0)
        model.weights = counts / counts.sum()
        model.means = (resp.T @ pts) / counts[:, None]
        diff = pts - model.means[:, None]                               # (J, N, 3)
        cov = np.swapaxes(diff * resp.T[:, :, None], 1, 2) @ diff / counts[:, None, None]
        model.covariances = _floor_covariance(cov, floor)

        if ll - prev_ll < tol * n and np.isfinite(prev_ll):
            break
        prev_ll = ll

    model.assignments = _weighted_log_densities(pts, model).argmax(axis=1).astype(np.int64)
    model.log_likelihoods = np.array(ll_trace)
    return model


def _outlier_components(mean_dists: np.ndarray, k: int) -> np.ndarray:
    """Row components that are not top-k nearest rows of their nearest column.

    ``mean_dists[i, j]`` is the distance from row component i to column
    component j; returns a boolean outlier mask over rows (ties rank by row).
    """
    top_k = np.argsort(mean_dists, axis=0, kind="stable")[:k]      # (k, columns)
    nearest = mean_dists.argmin(axis=1)
    return (top_k[:, nearest] != np.arange(len(mean_dists))).all(axis=0)


def remove_outliers(src_model: GmmModel, src_cloud, tgt_model: GmmModel,
                    tgt_cloud, k: int, min_points: int = 1):
    """Drop points assigned to components without a bidirectional counterpart.

    Returns (purified source, purified target, source mask, target mask);
    masks are True for kept points. Each side keeps at least
    ``min(min_points, len(cloud))`` points: while a side falls short,
    rejected populated source/target component pairs are re-admitted in
    order of the distance between their means, nearest first. With the
    default ``min_points=1`` this keeps the globally nearest pair whenever a
    side would otherwise lose every component.
    """
    src_pts = as_points(src_cloud)
    tgt_pts = as_points(tgt_cloud)
    if k < 1 or k > min(src_model.n_components, tgt_model.n_components):
        raise ValueError(f"k={k} must lie in [1, min(J_src, J_tgt)]")
    if len(src_pts) != len(src_model.assignments) or len(tgt_pts) != len(tgt_model.assignments):
        raise ValueError("cloud size does not match the fitted assignment")

    dists = np.linalg.norm(src_model.means[:, None, :] - tgt_model.means[None], axis=-1)
    src_out = _outlier_components(dists, k)
    tgt_out = _outlier_components(dists.T, k)
    src_counts = np.bincount(src_model.assignments, minlength=src_model.n_components)
    tgt_counts = np.bincount(tgt_model.assignments, minlength=tgt_model.n_components)
    src_need = min(min_points, len(src_pts))
    tgt_need = min(min_points, len(tgt_pts))
    # Registration needs support on both sides: re-admit the nearest
    # populated component pairs until each side has enough points.
    masked = np.where(np.outer(src_counts > 0, tgt_counts > 0), dists, np.inf)
    for flat in np.argsort(masked, axis=None, kind="stable"):
        if src_counts[~src_out].sum() >= src_need and \
                tgt_counts[~tgt_out].sum() >= tgt_need:
            break
        i, j = np.unravel_index(flat, masked.shape)
        src_out[i] = False
        tgt_out[j] = False
    src_mask = ~src_out[src_model.assignments]
    tgt_mask = ~tgt_out[tgt_model.assignments]
    return src_pts[src_mask], tgt_pts[tgt_mask], src_mask, tgt_mask
