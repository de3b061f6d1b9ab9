"""Correspondence diffusion for the fine registration stage.

The denoiser predicts a clean local correspondence matrix from its noised
version plus geometric/descriptor conditioning, built by the candidate
feature functions of ``coarse`` (the descriptor block without the similarity
channel). Inference is autoregressive: each retained diffusion step turns
the correspondence into candidate weights, runs the correspondence head's
decode chain (``coarse.decode_forward``: fusion, confidence, weighted SVD)
to get a rigid increment, composes it onto the pose so far, re-warps the
source, and DDIM-steps the correspondence; each step leaves a ``FineStep``.
Inference takes no ground truth. Training's ground-truth correspondences
come from a Sinkhorn-refined distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnet
from .backbone import FeatureSet
from .coarse import (DegeneracyError, decode_backward, decode_forward,
                     descriptor_features, geometric_features)
from .geometry import RigidTransform, apply_transform, compose, knn_search
from .nnet import scatter_candidates

TIME_EMBED_DIM = 16
DENOISER_WIDTHS = (64, 64, 32)
# Softmax temperature for decoding correspondence rows into candidate
# weights; sharp enough that a one-hot row fuses to its candidate exactly
# at float precision.
DECODE_TEMPERATURE = 0.025


class NumericalError(RuntimeError):
    """Inference produced non-finite values; carries a diagnostics payload."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# Noise schedule and forward process


@dataclass(frozen=True)
class NoiseSchedule:
    """DDPM tables; ``alpha_bars[t]`` is the cumulative product with
    ``alpha_bars[0] = 1`` so step 0 recovers the clean signal exactly."""

    betas: np.ndarray       # (T,), betas[i] is beta_{i+1}
    alpha_bars: np.ndarray  # (T + 1,)

    @property
    def n_steps(self) -> int:
        return len(self.betas)


def make_schedule(n_steps: int = 1000, beta_start: float = 1e-4,
                  beta_end: float = 0.02) -> NoiseSchedule:
    if n_steps < 1:
        raise ValueError("schedule needs at least one step")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError("betas must satisfy 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, n_steps)
    return NoiseSchedule(betas, np.concatenate([[1.0], np.cumprod(1.0 - betas)]))


def q_sample(schedule: NoiseSchedule, c0: np.ndarray, t: int,
             eps: np.ndarray) -> np.ndarray:
    """Forward-noise a clean correspondence to step t."""
    if not 1 <= t <= schedule.n_steps:
        raise ValueError(f"t={t} outside [1, {schedule.n_steps}]")
    ab = schedule.alpha_bars[t]
    return np.sqrt(ab) * c0 + np.sqrt(1.0 - ab) * eps


def ddim_timesteps(n_steps: int, s: int) -> np.ndarray:
    """S+1 evenly spaced integers from T down to 0."""
    if s < 1 or s > n_steps:
        raise ValueError(f"sampling steps s={s} must lie in [1, {n_steps}]")
    return np.rint(np.linspace(n_steps, 0, s + 1)).astype(int)


def ddim_step(schedule: NoiseSchedule, c_t: np.ndarray, c0_hat: np.ndarray,
              t: int, t_prev: int) -> np.ndarray:
    """One deterministic DDIM update from step t to t_prev."""
    if not (schedule.n_steps >= t > t_prev >= 0):
        raise ValueError(f"require T >= t > t_prev >= 0, got t={t}, t_prev={t_prev}")
    ab_t = schedule.alpha_bars[t]
    ab_prev = schedule.alpha_bars[t_prev]
    eps = (c_t - np.sqrt(ab_t) * c0_hat) / np.sqrt(1.0 - ab_t)
    return np.sqrt(ab_prev) * c0_hat + np.sqrt(1.0 - ab_prev) * eps


# ---------------------------------------------------------------------------
# Sinkhorn optimal transport and ground-truth correspondences


def sinkhorn(cost: np.ndarray, reg: float = 0.1, iters: int = 100) -> np.ndarray:
    """Entropic OT plan with uniform marginals (1/N rows, 1/M columns),
    computed by log-domain alternating scaling."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or not np.isfinite(cost).all():
        raise ValueError("cost must be a finite 2-D matrix")
    if reg <= 0 or iters < 1:
        raise ValueError("require reg > 0 and iters >= 1")
    n, m = cost.shape
    log_r = -np.log(n)
    log_c = -np.log(m)
    f = np.zeros(n)
    g = np.zeros(m)
    for _ in range(iters):
        f = reg * (log_r - nnet.logsumexp((g[None, :] - cost) / reg, axis=1))
        g = reg * (log_c - nnet.logsumexp((f[:, None] - cost) / reg, axis=0))
    return np.exp((f[:, None] + g[None, :] - cost) / reg)


def build_gt_correspondence(src_pts: np.ndarray, tgt_pts: np.ndarray,
                            gt: RigidTransform, k: int, reg: float = 0.1,
                            iters: int = 100):
    """Sinkhorn-refined local ground-truth correspondence.

    Warps the source by the true transform, runs Sinkhorn on the global
    Euclidean distance matrix, gathers each warped source's k nearest
    targets, renormalizes rows to sum 1, and maps them affinely to the
    [-1, 1] diffusion range. Returns (c_gt, neighbors).
    """
    warped = apply_transform(gt, src_pts)
    cost = np.linalg.norm(warped[:, None, :] - tgt_pts[None], axis=-1)
    plan = sinkhorn(cost, reg=reg, iters=iters)
    neighbors = knn_search(warped, tgt_pts, k)
    gathered = np.take_along_axis(plan, neighbors.indices, axis=1)
    row_sums = gathered.sum(axis=1, keepdims=True)
    rows = np.where(row_sums > 1e-300, gathered / np.maximum(row_sums, 1e-300),
                    1.0 / k)
    return 2.0 * rows - 1.0, neighbors


# ---------------------------------------------------------------------------
# Time conditioning


def time_embedding(t: int, n_steps: int) -> np.ndarray:
    """Sinusoidal embedding of t / T at geometric frequencies."""
    frac = t / n_steps
    freqs = np.pi * 2.0 ** np.arange(TIME_EMBED_DIM // 2)
    emb = np.empty(TIME_EMBED_DIM)
    emb[0::2] = np.sin(freqs * frac)
    emb[1::2] = np.cos(freqs * frac)
    return emb


# ---------------------------------------------------------------------------
# Denoiser


def make_denoiser(descriptor_dim: int, rng: np.random.Generator) -> nnet.CBRStack:
    """Per-candidate CBR stack predicting the denoised correspondence entry
    from c_t, the time embedding, and the geometric (10) and descriptor
    (2C + 2) conditioning."""
    in_dim = 1 + TIME_EMBED_DIM + 10 + (2 * descriptor_dim + 2)
    return nnet.CBRStack(in_dim, DENOISER_WIDTHS, 1, rng)


def denoiser_forward(denoiser: nnet.CBRStack, c_t: np.ndarray, t: int, n_steps: int,
                     f_g: np.ndarray, f_d: np.ndarray, train: bool):
    """Predict the clean correspondence matrix from its noised version. The
    denoiser's train-mode batch norms fold their batch statistics as they
    run (``nnet.BatchNorm``)."""
    n, k = c_t.shape
    if f_g.shape[:2] != (n, k) or f_d.shape[:2] != (n, k):
        raise ValueError("conditioning features do not match the correspondence shape")
    if not 0 <= t <= n_steps:
        raise ValueError(f"t={t} outside [0, {n_steps}]")
    emb = time_embedding(t, n_steps)
    rows = np.concatenate(
        [c_t.reshape(n * k, 1),
         np.broadcast_to(emb, (n * k, TIME_EMBED_DIM)),
         f_g.reshape(n * k, -1),
         f_d.reshape(n * k, -1)], axis=1)
    out, stack_cache = denoiser.forward(rows, train)
    c0_hat = out.reshape(n, k)
    cache = {"shape": (n, k), "gd": f_g.shape[-1], "dd": f_d.shape[-1],
             "stack": stack_cache}
    return c0_hat, cache


def denoiser_backward(denoiser: nnet.CBRStack, cache, g_c0_hat: np.ndarray):
    n, k = cache["shape"]
    g_rows = denoiser.backward(cache["stack"], g_c0_hat.reshape(n * k, 1))
    g_ct = g_rows[:, 0].reshape(n, k)
    start = 1 + TIME_EMBED_DIM
    g_f_g = g_rows[:, start:start + cache["gd"]].reshape(n, k, cache["gd"])
    g_f_d = g_rows[:, start + cache["gd"]:].reshape(n, k, cache["dd"])
    return g_ct, g_f_g, g_f_d


# ---------------------------------------------------------------------------
# Decoding a correspondence into a transform step


def correspondence_to_transform(c0_hat: np.ndarray, warped_src: np.ndarray,
                                cand_idx: np.ndarray, tgt_pts: np.ndarray,
                                tgt_desc: np.ndarray, confidence: nnet.MLP,
                                temperature: float = DECODE_TEMPERATURE):
    """Softmax-decode the correspondence into candidate weights and run the
    shared decode chain against the current warped source."""
    unscaled = (c0_hat + 1.0) / 2.0
    weights = nnet.softmax_rows(unscaled / temperature)
    transform, _, cache = decode_forward(weights, warped_src, tgt_pts, tgt_desc,
                                         cand_idx, confidence)
    cache["temperature"] = temperature
    return transform, cache


def correspondence_to_transform_backward(cache, confidence: nnet.MLP,
                                         g_rot: np.ndarray, g_trans: np.ndarray):
    """Returns (g_c0_hat, g_warped_src, g_tgt_pts, g_tgt_desc)."""
    g_weights, g_warped, g_cand_pts, g_cand_desc = decode_backward(
        cache, confidence, g_rot, g_trans)
    g_unscaled = nnet.softmax_rows_backward(g_weights, cache["weights"]) / cache["temperature"]
    n_tgt, cand_idx = cache["n_tgt"], cache["cand_idx"]
    g_tgt_pts = scatter_candidates(np.zeros((n_tgt, 3)), cand_idx, g_cand_pts)
    g_tgt_desc = scatter_candidates(np.zeros((n_tgt, g_cand_desc.shape[-1])),
                                    cand_idx, g_cand_desc)
    return 0.5 * g_unscaled, g_warped, g_tgt_pts, g_tgt_desc


# ---------------------------------------------------------------------------
# Autoregressive inference


@dataclass(frozen=True)
class FineStep:
    """One fine step: its DDIM timestep, decoded increment, the pose
    ``compose(increment, previous pose)`` (the coarse transform precedes the
    first), and the mean absolute predicted clean correspondence."""

    t: int
    increment: RigidTransform
    pose: RigidTransform
    mean_abs_c0: float


def autoregressive_infer(coarse_tf: RigidTransform, fine_src: FeatureSet,
                         fine_tgt: FeatureSet, denoiser: nnet.CBRStack | None,
                         confidence: nnet.MLP, schedule: NoiseSchedule,
                         k: int, steps: int, seed: int = 0,
                         temperature: float = DECODE_TEMPERATURE,
                         denoise_fn=None) -> list[FineStep]:
    """Run Algorithm-style autoregressive refinement from the coarse transform.

    ``denoise_fn(c_t, t, f_g, f_d) -> c0_hat`` overrides the network (used by
    oracle tests). Candidates are fixed at the start from the coarsely warped
    source; each step re-warps the full fine source with the accumulated
    pose and rebuilds the geometric conditioning. Returns one ``FineStep``
    per step; the last one's ``pose`` is the result.
    """
    if steps < 1:
        raise ValueError("need at least one sampling step")
    rng = np.random.default_rng(seed)
    src_pts = fine_src.points
    tgt_pts = fine_tgt.points

    pose = coarse_tf
    records: list[FineStep] = []
    warped = apply_transform(pose, src_pts)
    cand_idx = knn_search(warped, tgt_pts, k).indices
    f_d, _ = descriptor_features(fine_src, fine_tgt, cand_idx, with_similarity=False)

    c_t = rng.standard_normal(size=(len(src_pts), k))
    timesteps = ddim_timesteps(schedule.n_steps, steps)
    for t, t_prev in zip(timesteps[:-1], timesteps[1:]):
        f_g, _ = geometric_features(warped, tgt_pts, cand_idx)
        if denoise_fn is not None:
            c0_hat = denoise_fn(c_t, int(t), f_g, f_d)
        else:
            c0_hat, _ = denoiser_forward(denoiser, c_t, int(t), schedule.n_steps,
                                         f_g, f_d, train=False)
        if not np.isfinite(c0_hat).all():
            raise NumericalError(
                f"non-finite correspondence at step t={int(t)}",
                diagnostics={"step": int(t), "bad": int((~np.isfinite(c0_hat)).sum()),
                             "steps_done": len(records)})
        try:
            increment, _ = correspondence_to_transform(
                c0_hat, warped, cand_idx, tgt_pts, fine_tgt.descriptors,
                confidence, temperature)
        except DegeneracyError as exc:
            raise DegeneracyError(f"fine step t={int(t)}: {exc}") from exc
        pose = compose(increment, pose)
        records.append(FineStep(int(t), increment, pose, float(np.abs(c0_hat).mean())))
        warped = apply_transform(pose, src_pts)
        c_t = ddim_step(schedule, c_t, c0_hat, int(t), int(t_prev))
    return records
