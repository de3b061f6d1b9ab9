"""The correspondence head shared by the coarse and fine stages, and the
coarse registration stage.

Both stages find a transform the same way. Each source point has K
candidate targets; the candidates' weights fuse their coordinates and
descriptors into a pseudo-target, a confidence MLP scores each fused
descriptor, and a confidence-weighted SVD solves for the rigid transform
(``decode_forward``). Only the source of the weights differs: here, a CBR
predictor scores the geometric and descriptor features of candidates
retrieved by descriptor-space KNN over the purified coarse superpoints; in
``diffusion``, the weights decode a denoised correspondence over the same
feature builders. Forward/backward pairs expose exact gradients end to end.

The coarse stage starts from the two clouds' backbone outputs, which the
caller computes (``training.register_pair``, the target's in a forked child
process): ``coarse_register`` fits a GMM per side, rejects outliers
bidirectionally, retrieves candidates and solves the head. It runs on the
calling thread alone: EM is many small numpy calls, which a second thread
would only make wait for the interpreter lock, and its stop rule
(``bgmm.fit_gmm``) ends most full-scale fits within a few dozen iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bgmm, nnet
from .backbone import BackboneOutput, FeatureSet
from .geometry import RigidTransform, knn_search, skew
from .nnet import fuse_candidates, fuse_candidates_backward, scatter_candidates

WEIGHT_FLOOR = 1e-12
NORM_EPS = 1e-12
PREDICTOR_WIDTHS = (64, 64, 32)
CONFIDENCE_HIDDEN = 64


class DegeneracyError(RuntimeError):
    """Geometry too degenerate to determine a rigid transform."""


def make_predictor(descriptor_dim: int, rng: np.random.Generator) -> nnet.CBRStack:
    """Per-candidate CBR scorer (widths 64/64/32, scalar head) over the
    geometric (10) and similarity-bearing descriptor (2C + 3) features."""
    return nnet.CBRStack(10 + 2 * descriptor_dim + 3, PREDICTOR_WIDTHS, 1, rng)


def make_confidence_head(descriptor_dim: int, rng: np.random.Generator) -> nnet.MLP:
    """Per-point confidence of a fused descriptor: a sigmoid scalar MLP
    (hidden width 64)."""
    return nnet.MLP(descriptor_dim, CONFIDENCE_HIDDEN, rng)


# ---------------------------------------------------------------------------
# Candidate features, shared by both stages


def _safe_norms(vecs: np.ndarray) -> np.ndarray:
    return np.maximum(np.linalg.norm(vecs, axis=-1), NORM_EPS)


def geometric_features(src_pts: np.ndarray, tgt_pts: np.ndarray,
                       cand_idx: np.ndarray):
    """Per-candidate rows (N, K, 10): the source point, the candidate, their
    difference and its norm. Returns (features, cache)."""
    cand_pts = tgt_pts[cand_idx]
    diff = src_pts[:, None, :] - cand_pts
    norms = np.linalg.norm(diff, axis=-1)
    f_g = np.concatenate(
        [np.broadcast_to(src_pts[:, None, :], cand_pts.shape),
         cand_pts, diff, norms[..., None]], axis=-1)
    cache = {"diff": diff, "norms": norms, "cand_idx": cand_idx,
             "n_tgt": len(tgt_pts)}
    return f_g, cache


def geometric_features_backward(cache, g_f_g: np.ndarray):
    """Returns (g_src_pts, g_tgt_pts); target gradients scatter through the
    candidate indices."""
    diff, norms = cache["diff"], cache["norms"]
    g_src = g_f_g[..., 0:3].sum(axis=1)
    g_cand = g_f_g[..., 3:6].copy()
    g_diff = g_f_g[..., 6:9].copy()
    g_diff += g_f_g[..., 9:10] * diff / np.maximum(norms, NORM_EPS)[..., None]
    g_src += g_diff.sum(axis=1)
    g_cand -= g_diff
    return g_src, scatter_candidates(np.zeros((cache["n_tgt"], 3)),
                                     cache["cand_idx"], g_cand)


def descriptor_features(src: FeatureSet, tgt: FeatureSet, cand_idx: np.ndarray,
                        with_similarity: bool):
    """Per-candidate rows (N, K, 2C + 2): source and candidate descriptors,
    then source and candidate uncertainties. ``with_similarity`` appends
    their cosine similarity (2C + 3), which only the coarse stage uses.
    Returns (features, cache)."""
    if src.descriptors.shape[1] != tgt.descriptors.shape[1]:
        raise ValueError("source and target descriptor widths differ")
    n, k = cand_idx.shape
    cand_desc = tgt.descriptors[cand_idx]         # (N, K, C)
    parts = [np.broadcast_to(src.descriptors[:, None, :], cand_desc.shape),
             cand_desc,
             np.broadcast_to(src.uncertainties[:, None, None], (n, k, 1)),
             tgt.uncertainties[cand_idx][..., None]]
    cache = {"cand_idx": cand_idx, "n_tgt": len(tgt), "c": cand_desc.shape[-1],
             "with_similarity": with_similarity}
    if with_similarity:
        src_norm = _safe_norms(src.descriptors)           # (N,)
        cand_norm = _safe_norms(cand_desc)                # (N, K)
        dots = (src.descriptors[:, None, :] * cand_desc).sum(-1)
        sim = dots / (src_norm[:, None] * cand_norm)
        parts.append(sim[..., None])
        cache.update({"src_desc": src.descriptors, "cand_desc": cand_desc,
                      "src_norm": src_norm, "cand_norm": cand_norm, "sim": sim})
    return np.concatenate(parts, axis=-1), cache


def descriptor_features_backward(cache, g_f_d: np.ndarray):
    """Returns (g_src_desc, g_src_unc, g_tgt_desc, g_tgt_unc); target
    gradients scatter through the candidate indices."""
    c = cache["c"]
    g_src_desc = g_f_d[..., 0:c].sum(axis=1)
    g_cand_desc = g_f_d[..., c:2 * c].copy()
    g_src_unc = g_f_d[..., 2 * c].sum(axis=1)
    g_cand_unc = g_f_d[..., 2 * c + 1]

    if cache["with_similarity"]:
        g_sim = g_f_d[..., 2 * c + 2]
        src_desc, cand_desc = cache["src_desc"], cache["cand_desc"]
        src_norm, cand_norm, sim = cache["src_norm"], cache["cand_norm"], cache["sim"]
        denom = src_norm[:, None] * cand_norm
        g_src_desc += ((g_sim / denom)[..., None] * cand_desc).sum(axis=1)
        g_src_desc -= ((g_sim * sim).sum(axis=1) / src_norm ** 2)[:, None] * src_desc
        g_cand_desc += (g_sim / denom)[..., None] * np.broadcast_to(
            src_desc[:, None, :], cand_desc.shape)
        g_cand_desc -= ((g_sim * sim) / cand_norm ** 2)[..., None] * cand_desc

    n_tgt, cand_idx = cache["n_tgt"], cache["cand_idx"]
    return (g_src_desc, g_src_unc,
            scatter_candidates(np.zeros((n_tgt, c)), cand_idx, g_cand_desc),
            scatter_candidates(np.zeros(n_tgt), cand_idx, g_cand_unc))


# ---------------------------------------------------------------------------
# Candidate weighting


def predict_candidate_weights(predictor: nnet.CBRStack, f_g: np.ndarray,
                              f_d: np.ndarray, train: bool):
    """Softmax over each row's candidates of the predictor's scores. The
    predictor's train-mode batch norms fold their batch statistics as they
    run (``nnet.BatchNorm``)."""
    n, k = f_g.shape[:2]
    rows = np.concatenate([f_g.reshape(n * k, -1), f_d.reshape(n * k, -1)], axis=1)
    logits, stack_cache = predictor.forward(rows, train)
    weights = nnet.softmax_rows(logits.reshape(n, k))
    cache = {"weights": weights, "geo_dim": f_g.shape[-1], "stack": stack_cache}
    return weights, cache


def predict_candidate_weights_backward(predictor: nnet.CBRStack, cache,
                                       g_weights: np.ndarray):
    """Returns the gradients of the geometric and descriptor features."""
    weights = cache["weights"]
    n, k = weights.shape
    g_logits = nnet.softmax_rows_backward(g_weights, weights)
    g_rows = predictor.backward(cache["stack"], g_logits.reshape(n * k, 1))
    gd = cache["geo_dim"]
    return g_rows[:, :gd].reshape(n, k, gd), g_rows[:, gd:].reshape(n, k, -1)


# ---------------------------------------------------------------------------
# Weighted SVD (Kabsch) with analytic backward


def _vee(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def weighted_svd_forward(src_pts: np.ndarray, tgt_pts: np.ndarray,
                         weights: np.ndarray):
    """Minimize sum_i w_i ||R s_i + t - q_i||^2; returns (transform, cache)."""
    src_pts = np.asarray(src_pts, dtype=np.float64)
    tgt_pts = np.asarray(tgt_pts, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    n = len(src_pts)
    if n < 3:
        raise DegeneracyError(f"need at least 3 correspondences, got {n}")
    if src_pts.shape != (n, 3) or tgt_pts.shape != (n, 3) or len(weights) != n:
        raise ValueError("shape mismatch between points and weights")
    if weights.min() < 0:
        raise ValueError("weights must be nonnegative")
    if weights.max() == 0.0:
        raise DegeneracyError("all correspondence weights are zero")
    w = weights + WEIGHT_FLOOR
    total = w.sum()
    c_src = w @ src_pts / total
    c_tgt = w @ tgt_pts / total
    s_cent = src_pts - c_src
    t_cent = tgt_pts - c_tgt
    h = (w[:, None] * s_cent).T @ t_cent
    u, sing, vt = np.linalg.svd(h)
    if sing[1] <= 1e-10 * max(sing[0], 1e-300):
        raise DegeneracyError("correspondence geometry is rank deficient")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    trans = c_tgt - rot @ c_src
    transform = RigidTransform(rot, trans)
    cache = {"w": w, "total": total, "c_src": c_src, "c_tgt": c_tgt,
             "s_cent": s_cent, "t_cent": t_cent, "h": h, "rot": rot,
             "src": src_pts, "tgt": tgt_pts}
    return transform, cache


def weighted_svd(src_pts, tgt_pts, weights) -> RigidTransform:
    transform, _ = weighted_svd_forward(src_pts, tgt_pts, weights)
    return transform


def weighted_svd_backward(cache, g_rot: np.ndarray, g_trans: np.ndarray):
    """Exact gradients of the SVD solution w.r.t. points and weights.

    Uses implicit differentiation of the Procrustes optimality condition
    (H R symmetric), which stays valid under repeated singular values as
    long as the problem itself is nondegenerate.
    """
    w, total = cache["w"], cache["total"]
    c_src, c_tgt = cache["c_src"], cache["c_tgt"]
    s_cent, t_cent = cache["s_cent"], cache["t_cent"]
    h, rot = cache["h"], cache["rot"]

    g_c_tgt = g_trans.copy()
    g_rot_total = g_rot - np.outer(g_trans, c_src)
    g_c_src = -rot.T @ g_trans

    sym = h @ rot
    a = np.trace(sym) * np.eye(3) - sym
    z = _vee(0.5 * (rot.T @ g_rot_total - g_rot_total.T @ rot))
    try:
        u = np.linalg.solve(a, z)
    except np.linalg.LinAlgError:
        u = np.linalg.lstsq(a, z, rcond=None)[0]
    g_h = -2.0 * skew(u) @ rot.T

    g_weights = np.einsum("ni,ij,nj->n", s_cent, g_h, t_cent)
    g_s_cent = w[:, None] * (t_cent @ g_h.T)
    g_t_cent = w[:, None] * (s_cent @ g_h)

    g_src = g_s_cent.copy()
    g_c_src = g_c_src - g_s_cent.sum(axis=0)
    g_tgt = g_t_cent.copy()
    g_c_tgt = g_c_tgt - g_t_cent.sum(axis=0)

    g_src += np.outer(w, g_c_src) / total
    g_weights += (cache["src"] - c_src) @ g_c_src / total
    g_tgt += np.outer(w, g_c_tgt) / total
    g_weights += (cache["tgt"] - c_tgt) @ g_c_tgt / total
    return g_src, g_tgt, g_weights


# ---------------------------------------------------------------------------
# Decode chain, shared by both stages: weights -> fusion -> confidence -> SVD


def decode_forward(weights: np.ndarray, src_pts: np.ndarray, tgt_pts: np.ndarray,
                   tgt_desc: np.ndarray, cand_idx: np.ndarray,
                   confidence: nnet.MLP):
    """Fuse each row's candidates by ``weights``, score the fused descriptors'
    confidence, and solve the confidence-weighted SVD from ``src_pts`` to the
    fused points. Returns (transform, per-point confidences, cache)."""
    cand_pts = tgt_pts[cand_idx]
    cand_desc = tgt_desc[cand_idx]
    fused_pts, fused_desc = fuse_candidates(weights, cand_pts, cand_desc)
    conf, conf_cache = confidence.forward(fused_desc)
    transform, svd_cache = weighted_svd_forward(src_pts, fused_pts, conf)
    cache = {"weights": weights, "cand_pts": cand_pts, "cand_desc": cand_desc,
             "cand_idx": cand_idx, "n_tgt": len(tgt_pts), "conf": conf_cache,
             "svd": svd_cache}
    return transform, conf, cache


def decode_backward(cache, confidence: nnet.MLP, g_rot: np.ndarray,
                    g_trans: np.ndarray):
    """Returns (g_weights, g_src_pts, g_cand_pts, g_cand_desc). The caller
    scatters the per-candidate gradients onto its targets: the coarse head
    adds them in place onto its feature gradients, which fixes the order in
    which each target's gradient terms are summed."""
    g_src, g_fused_pts, g_conf = weighted_svd_backward(cache["svd"], g_rot, g_trans)
    g_fused_desc = confidence.backward(cache["conf"], g_conf)
    g_weights, g_cand_pts, g_cand_desc = fuse_candidates_backward(
        cache["weights"], cache["cand_pts"], cache["cand_desc"],
        g_fused_pts, g_fused_desc)
    return g_weights, g_src, g_cand_pts, g_cand_desc


# ---------------------------------------------------------------------------
# Differentiable coarse head and full coarse registration


@dataclass
class CoarseDiagnostics:
    src_total: int
    src_kept: int
    tgt_total: int
    tgt_kept: int
    mean_confidence: float


def coarse_head_forward(src: FeatureSet, tgt: FeatureSet, cand_idx: np.ndarray,
                        predictor: nnet.CBRStack, confidence: nnet.MLP,
                        train: bool):
    """Features -> predicted weights -> decode chain.

    Operates on already purified feature sets with a fixed candidate index
    matrix; returns (transform, per-point confidences, cache).
    """
    f_g, geo_cache = geometric_features(src.points, tgt.points, cand_idx)
    f_d, desc_cache = descriptor_features(src, tgt, cand_idx, with_similarity=True)
    weights, pred_cache = predict_candidate_weights(predictor, f_g, f_d, train)
    transform, conf, decode_cache = decode_forward(
        weights, src.points, tgt.points, tgt.descriptors, cand_idx, confidence)
    cache = {"geo": geo_cache, "desc": desc_cache, "pred": pred_cache,
             "decode": decode_cache}
    return transform, conf, cache


def coarse_head_backward(cache, predictor: nnet.CBRStack,
                         confidence: nnet.MLP, g_rot, g_trans):
    """Backward through the coarse head; returns gradients w.r.t. the
    purified source/target feature-set arrays."""
    g_weights, g_src_svd, g_cand_pts, g_cand_desc = decode_backward(
        cache["decode"], confidence, g_rot, g_trans)
    g_geo, g_desc = predict_candidate_weights_backward(predictor, cache["pred"],
                                                       g_weights)
    g_src_pts, g_tgt_pts = geometric_features_backward(cache["geo"], g_geo)
    g_src_desc, g_src_unc, g_tgt_desc, g_tgt_unc = descriptor_features_backward(
        cache["desc"], g_desc)
    cand_idx = cache["decode"]["cand_idx"]
    scatter_candidates(g_tgt_pts, cand_idx, g_cand_pts)
    scatter_candidates(g_tgt_desc, cand_idx, g_cand_desc)
    return ((g_src_pts + g_src_svd, g_src_desc, g_src_unc),
            (g_tgt_pts, g_tgt_desc, g_tgt_unc))


def purify(fs: FeatureSet, mask: np.ndarray) -> FeatureSet:
    return FeatureSet(fs.points[mask], fs.descriptors[mask], fs.uncertainties[mask])


def purified_candidates(src_coarse: FeatureSet, tgt_coarse: FeatureSet, *,
                        gmm_components: int, bgmm_topk: int, candidates: int,
                        seed: int):
    """The coarse front half after the backbone: a GMM fit per side,
    bidirectional outlier rejection, purification, and descriptor-space KNN
    candidates. Inference and training share it; they differ only in the
    backbone mode that produced the coarse superpoints.

    Returns (src_pure, tgt_pure, (src_mask, tgt_mask), cand_idx).
    """
    src_model = bgmm.fit_gmm(src_coarse.points, gmm_components, seed=seed)
    tgt_model = bgmm.fit_gmm(tgt_coarse.points, gmm_components, seed=seed)
    _, _, src_mask, tgt_mask = bgmm.remove_outliers(
        src_model, src_coarse.points, tgt_model, tgt_coarse.points,
        k=bgmm_topk, min_points=max(3, candidates))
    src_pure = purify(src_coarse, src_mask)
    tgt_pure = purify(tgt_coarse, tgt_mask)
    # Rejection keeps max(3, K) points per side, so this guard fires only
    # when the input has fewer than max(3, K) coarse superpoints.
    if len(src_pure) < 3 or len(tgt_pure) < candidates:
        raise DegeneracyError(
            f"coarse: {len(src_pure)} source and {len(tgt_pure)} target "
            f"superpoints left; need at least 3 and k={candidates}")
    cand_idx = knn_search(src_pure.descriptors, tgt_pure.descriptors,
                          candidates).indices
    return src_pure, tgt_pure, (src_mask, tgt_mask), cand_idx


def coarse_register(src_out: BackboneOutput, tgt_out: BackboneOutput,
                    predictor: nnet.CBRStack, confidence: nnet.MLP,
                    *, gmm_components: int, bgmm_topk: int,
                    candidates: int, seed: int):
    """The coarse stage after the two eval-mode backbone forwards: the
    purified candidates, then the coarse head.

    Returns (transform, diagnostics, coarse masks).
    """
    src_pure, tgt_pure, masks, cand_idx = purified_candidates(
        src_out.coarse, tgt_out.coarse, gmm_components=gmm_components,
        bgmm_topk=bgmm_topk, candidates=candidates, seed=seed)
    try:
        transform, conf, _ = coarse_head_forward(
            src_pure, tgt_pure, cand_idx, predictor, confidence, train=False)
    except DegeneracyError as exc:
        raise DegeneracyError(f"coarse: {exc}") from exc

    diag = CoarseDiagnostics(
        src_total=len(src_out.coarse), src_kept=int(masks[0].sum()),
        tgt_total=len(tgt_out.coarse), tgt_kept=int(masks[1].sum()),
        mean_confidence=float(conf.mean()))
    return transform, diag, masks
