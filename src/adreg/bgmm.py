"""Gaussian-mixture modeling of point clouds and bidirectional outlier
rejection.

Mixtures are fitted with EM (k-means++ seeding, eigenvalue-floored
covariances). A source component is an outlier when it is not among the
top-k nearest source components of its own nearest target component;
targets are judged symmetrically. Points hard-assigned to outlier
components are dropped. The module is training-free.
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
    vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def _log_gaussian(pts: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    chol = np.linalg.cholesky(cov)
    solved = np.linalg.solve(chol, (pts - mean).T)
    maha = (solved ** 2).sum(axis=0)
    log_det = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (3 * LOG_2PI + log_det + maha)


def _component_log_densities(pts: np.ndarray, model: GmmModel) -> np.ndarray:
    out = np.empty((len(pts), model.n_components))
    for j in range(model.n_components):
        out[:, j] = _log_gaussian(pts, model.means[j], model.covariances[j])
    return out


def gmm_log_likelihood(model: GmmModel, cloud) -> float:
    pts = as_points(cloud)
    log_dens = _component_log_densities(pts, model) + np.log(model.weights)
    return float(logsumexp(log_dens, axis=1).sum())


def _kmeans_pp(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: several distance-squared-sampled candidates per
    step, keeping the one that lowers total inertia the most."""
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


def fit_gmm(cloud, n_components: int, max_iters: int = 100, tol: float = 1e-6,
            seed: int = 0, floor: float = COVARIANCE_FLOOR) -> GmmModel:
    """EM fit from a k-means++/Lloyd initialization; deterministic given seed.

    Log-likelihood per EM iteration is recorded on the returned model, and a
    component that collapses is re-seeded at the point of lowest density.
    """
    pts = as_points(cloud)
    n = len(pts)
    if n < n_components or n_components < 1:
        raise ValueError(f"cannot fit {n_components} components to {n} points")
    rng = np.random.default_rng(seed)

    centers = _kmeans_pp(pts, n_components, rng)
    for _ in range(KMEANS_ITERS):
        d2 = ((pts[:, None, :] - centers[None]) ** 2).sum(axis=-1)
        labels = d2.argmin(axis=1)
        for j in range(n_components):
            sel = labels == j
            if sel.any():
                centers[j] = pts[sel].mean(axis=0)

    weights = np.full(n_components, 1.0 / n_components)
    means = centers.copy()
    covariances = np.empty((n_components, 3, 3))
    d2 = ((pts[:, None, :] - centers[None]) ** 2).sum(axis=-1)
    labels = d2.argmin(axis=1)
    for j in range(n_components):
        sel = labels == j
        if sel.sum() >= 2:
            diff = pts[sel] - means[j]
            covariances[j] = _floor_covariance(diff.T @ diff / sel.sum(), floor)
        else:
            covariances[j] = np.eye(3) * max(floor, 1.0)
        if sel.any():
            weights[j] = sel.sum() / n
    weights /= weights.sum()

    model = GmmModel(weights, means, covariances, np.zeros(n, dtype=np.int64))
    ll_trace = []
    prev_ll = -np.inf
    for _ in range(max_iters):
        log_dens = _component_log_densities(pts, model) + np.log(model.weights)
        row_lse = logsumexp(log_dens, axis=1)
        ll = float(row_lse.sum())
        ll_trace.append(ll)
        resp = np.exp(log_dens - row_lse[:, None])

        counts = resp.sum(axis=0)
        for j in np.flatnonzero(counts < 1e-8):
            # Collapsed component: re-seed on the worst-fit point.
            worst = int(np.argmin(row_lse))
            model.means[j] = pts[worst]
            model.covariances[j] = np.eye(3) * max(floor, 1.0)
            resp[:, j] = 1e-8
            counts = resp.sum(axis=0)
        model.weights = counts / counts.sum()
        model.means = (resp.T @ pts) / counts[:, None]
        for j in range(model.n_components):
            diff = pts - model.means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / counts[j]
            model.covariances[j] = _floor_covariance(cov, floor)

        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll

    log_dens = _component_log_densities(pts, model) + np.log(model.weights)
    model.assignments = log_dens.argmax(axis=1).astype(np.int64)
    model.log_likelihoods = np.array(ll_trace)
    return model


def _outlier_components(mean_dists: np.ndarray, k: int) -> np.ndarray:
    """Row components that are not top-k nearest rows of their nearest column.

    ``mean_dists[i, j]`` is the distance from row component i to column
    component j; returns a boolean outlier mask over rows.
    """
    n_rows = mean_dists.shape[0]
    outlier = np.zeros(n_rows, dtype=bool)
    for i in range(n_rows):
        j = int(np.argmin(mean_dists[i]))
        top_k_rows = np.argsort(mean_dists[:, j], kind="stable")[:k]
        outlier[i] = i not in top_k_rows
    return outlier


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
