"""Loss functions, synthetic scene generation, the trainable registration
model, and the end-to-end training loop.

The fine stage trains single-step: the ground-truth correspondence is noised
to a uniformly drawn diffusion step and the denoiser predicts it back
(teacher forcing composes the decoded step onto the true transform).
Discrete structure (sampling plans, GMM masks, candidate indices, the
noise draw) is frozen per step so the loss is a smooth function of the
parameters; ground-truth correspondences are supervision constants.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import coarse, diffusion
from .backbone import NO_CACHE, Backbone, scaled_layer_configs
from .coarse import (DegeneracyError, coarse_head_backward, coarse_head_forward,
                     make_confidence_head, purified_candidates, purify)
from .geometry import (RigidTransform, apply_transform, as_points, compose,
                       random_rigid_transform, transform_errors, voxel_downsample)
from .io import (MIN_TRAIN_POINTS, Checkpoint, CheckpointError, RunConfig,
                 fields_named_in)
from .nnet import Adam, Param, on_both_sides

OUTLIER_MIN_RADIUS = 20.0
OUTLIER_MAX_RADIUS = 35.0
# Minimum distance between source-side and target-side clusters (compared in
# the target frame): far enough that an isolated cluster can never be the
# bidirectional top-k partner of the other side's cluster.
OUTLIER_SIDE_SEPARATION = 40.0


# ---------------------------------------------------------------------------
# Loss terms


def translation_loss(t_est: np.ndarray, t_gt: np.ndarray):
    """Euclidean distance and its gradient w.r.t. the estimate."""
    delta = t_est - t_gt
    value = float(np.linalg.norm(delta))
    grad = delta / value if value > 1e-12 else np.zeros(3)
    return value, grad


def rotation_loss(r_est: np.ndarray, r_gt: np.ndarray):
    """Frobenius norm of (R_est^T R_gt - I) and its gradient w.r.t. R_est."""
    m = r_est.T @ r_gt - np.eye(3)
    value = float(np.linalg.norm(m))
    grad = r_gt @ m.T / value if value > 1e-12 else np.zeros((3, 3))
    return value, grad


def loss_total(est_coarse: RigidTransform, est_fine: RigidTransform,
               gt: RigidTransform, c0_hat: np.ndarray, c_gt: np.ndarray,
               config: RunConfig):
    """Two-stage transform loss plus the diffusion MSE, weighted by the
    config's ``rot_weight`` (alpha), ``trans_weight`` (beta) and
    ``diff_weight`` (gamma).

    Returns (total, per-term dict, gradient dict); gradients already carry
    the stage weights.
    """
    if c0_hat.shape != c_gt.shape:
        raise ValueError("correspondence shapes differ")
    ltc, gtc = translation_loss(est_coarse.translation, gt.translation)
    lrc, grc = rotation_loss(est_coarse.rotation, gt.rotation)
    ltf, gtf = translation_loss(est_fine.translation, gt.translation)
    lrf, grf = rotation_loss(est_fine.rotation, gt.rotation)
    resid = c0_hat - c_gt
    ldiff = float((resid ** 2).mean())
    w_rot, w_trans, w_diff = config.rot_weight, config.trans_weight, config.diff_weight
    total = w_trans * (ltc + ltf) + w_rot * (lrc + lrf) + w_diff * ldiff
    terms = {"trans_coarse": ltc, "trans_fine": ltf, "rot_coarse": lrc,
             "rot_fine": lrf, "diff": ldiff,
             "trans": ltc + ltf, "rot": lrc + lrf}
    grads = {"coarse_trans": w_trans * gtc,
             "coarse_rot": w_rot * grc,
             "fine_trans": w_trans * gtf,
             "fine_rot": w_rot * grf,
             "c0_hat": w_diff * 2.0 * resid / resid.size}
    return total, terms, grads


# ---------------------------------------------------------------------------
# Synthetic scene generation


@dataclass
class SyntheticPair:
    source: np.ndarray
    target: np.ndarray
    transform: RigidTransform
    source_outlier_mask: np.ndarray
    target_outlier_mask: np.ndarray


def _scene_points(rng: np.random.Generator, n_points: int) -> np.ndarray:
    """Sparse outdoor-like structure: anisotropic blobs and planar patches."""
    n_prim = int(rng.integers(6, 13))
    counts = np.full(n_prim, n_points // n_prim)
    counts[: n_points - counts.sum()] += 1
    chunks = []
    for count in counts:
        center = rng.uniform([-15, -15, -3], [15, 15, 3])
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if rng.uniform() < 0.6:
            scales = rng.uniform(0.3, 1.5, size=3)
            local = rng.normal(size=(count, 3)) * scales
        else:
            extent = rng.uniform(1.5, 4.0, size=2)
            local = np.column_stack([
                rng.uniform(-extent[0], extent[0], size=count),
                rng.uniform(-extent[1], extent[1], size=count),
                rng.normal(scale=0.02, size=count)])
        chunks.append(center + local @ rot.T)
    return np.vstack(chunks)


def _outlier_cluster(rng: np.random.Generator, size: int,
                     avoid: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """A compact far-field cluster kept away from the opposite side's clusters."""
    center = None
    for _ in range(256):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        center = direction * rng.uniform(OUTLIER_MIN_RADIUS, OUTLIER_MAX_RADIUS)
        if all(np.linalg.norm(center - c) >= OUTLIER_SIDE_SEPARATION for c in avoid):
            break
    pts = center + rng.normal(scale=rng.uniform(0.3, 0.6), size=(size, 3))
    return pts, center


def outlier_cluster_size(n_points: int) -> int:
    """Points in each far-field outlier cluster of an ``n_points`` scene."""
    return max(16, n_points // 25)


def gen_synthetic_pair(rng: np.random.Generator, n_points: int,
                       max_rot_deg: float, max_trans: float, jitter: float,
                       outlier_clusters: int) -> SyntheticPair:
    """Source scene, its rigidly moved jittered copy, and per-side far-field
    outlier clusters (masked)."""
    if n_points < MIN_TRAIN_POINTS:
        raise ValueError(f"need at least {MIN_TRAIN_POINTS} points per cloud")
    source_in = _scene_points(rng, n_points)
    transform = random_rigid_transform(rng, max_rot_deg, max_trans)
    target_in = apply_transform(transform, source_in)
    if jitter > 0:
        target_in = target_in + rng.normal(scale=jitter, size=target_in.shape)

    cluster_size = outlier_cluster_size(n_points)
    src_centers_tgt_frame: list[np.ndarray] = []
    src_chunks, tgt_chunks = [], []
    for _ in range(outlier_clusters):
        pts, center = _outlier_cluster(rng, cluster_size, avoid=[])
        src_chunks.append(pts)
        src_centers_tgt_frame.append(transform.rotation @ center + transform.translation)
    for _ in range(outlier_clusters):
        pts, _ = _outlier_cluster(rng, cluster_size, avoid=src_centers_tgt_frame)
        tgt_chunks.append(pts)

    source = np.vstack([source_in] + src_chunks) if src_chunks else source_in
    target = np.vstack([target_in] + tgt_chunks) if tgt_chunks else target_in
    src_mask = np.zeros(len(source), dtype=bool)
    src_mask[len(source_in):] = True
    tgt_mask = np.zeros(len(target), dtype=bool)
    tgt_mask[len(target_in):] = True
    return SyntheticPair(source, target, transform, src_mask, tgt_mask)


# ---------------------------------------------------------------------------
# Model assembly


class RegistrationModel:
    """Backbone, coarse predictor/confidence, denoiser, fine confidence."""

    def __init__(self, config: RunConfig):
        self.config = config
        root = np.random.SeedSequence([config.seed, 0xAD])
        streams = [np.random.default_rng(s) for s in root.spawn(5)]
        self.backbone = Backbone(streams[0], scale=config.backbone_scale)
        coarse_dim = self.backbone.configs[2].widths[-1]
        fine_dim = self.backbone.configs[1].widths[-1]
        self.predictor = coarse.make_predictor(coarse_dim, streams[1])
        self.coarse_confidence = make_confidence_head(coarse_dim, streams[2])
        self.denoiser = diffusion.make_denoiser(fine_dim, streams[3])
        self.fine_confidence = make_confidence_head(fine_dim, streams[4])
        self.schedule = diffusion.make_schedule(
            config.diffusion_steps, config.beta_start, config.beta_end)

    def _modules(self):
        """(prefix, module) pairs in checkpoint order."""
        return (("backbone", self.backbone), ("predictor", self.predictor),
                ("coarse_confidence", self.coarse_confidence),
                ("denoiser", self.denoiser), ("fine_confidence", self.fine_confidence))

    def named_params(self) -> dict[str, Param]:
        return {name: p for prefix, module in self._modules()
                for name, p in module.named_params(prefix)}

    def _buffer_modules(self):
        for prefix, module in self._modules():
            yield from module.named_buffers(prefix)

    def to_checkpoint(self) -> Checkpoint:
        """The tensors ``from_checkpoint`` rebuilds this model from: every
        parameter, batch-norm buffer and config field."""
        tensors: dict[str, np.ndarray] = {}
        for name, p in self.named_params().items():
            tensors[f"param.{name}"] = p.value.reshape(-1).copy()
        for name, buf in self._buffer_modules():
            tensors[f"buffer.{name}"] = buf.reshape(-1).copy()
        for fname, value in vars(self.config).items():
            tensors[f"config.{fname}"] = np.array([float(value)])
        return Checkpoint(tensors=tensors)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "RegistrationModel":
        """Rebuild a model from the tensors ``to_checkpoint`` writes; others
        (an older writer's ``optim.*`` and ``schedule.*``) are ignored. A
        missing tensor raises ``CheckpointError`` naming it, and so does a
        ``config.*`` tensor that is not one finite value (integral for an
        integer field) or breaks a config rule, a ``param.*`` or ``buffer.*``
        tensor that is not one finite value per entry, or a negative
        ``running_var``. The noise schedule is rebuilt from the config."""

        def stored(key: str) -> np.ndarray:
            if key not in ckpt.tensors:
                raise CheckpointError(f"checkpoint lacks tensor '{key}'")
            flat = np.asarray(ckpt.tensors[key], dtype=np.float64).reshape(-1)
            if not np.isfinite(flat).all():
                raise CheckpointError(f"tensor '{key}' holds non-finite values")
            return flat

        kwargs = {}
        for f in dataclasses.fields(RunConfig):
            key = f"config.{f.name}"
            raw = stored(key)
            if raw.size != 1:
                raise CheckpointError(f"tensor '{key}' holds {raw[:4].tolist()} (size "
                                      f"{raw.size}); expected one finite value")
            value = float(raw[0])
            if f.type in (int, "int"):
                if not value.is_integer():
                    raise CheckpointError(f"tensor '{key}' holds {value!r}; "
                                          "expected an integer")
                value = int(value)
            kwargs[f.name] = value
        try:
            config = RunConfig(**kwargs)
        except ValueError as exc:
            named = [f"'config.{name}'" for name in fields_named_in(exc, kwargs)]
            raise CheckpointError(f"checkpoint tensors {', '.join(named) or 'config.*'} "
                                  f"hold an invalid config: {exc}") from exc
        model = cls(config)
        targets = [(f"param.{name}", p.value) for name, p in model.named_params().items()]
        targets += [(f"buffer.{name}", buf) for name, buf in model._buffer_modules()]
        for key, target in targets:
            flat = stored(key)
            if flat.size != target.size:
                raise CheckpointError(
                    f"tensor '{key}' holds {flat.size} values, expected {target.size}")
            if key.endswith(".running_var") and (flat < 0).any():
                raise CheckpointError(f"tensor '{key}' holds a negative variance")
            target[...] = flat.reshape(target.shape)
        return model

    def make_optimizer(self) -> Adam:
        return Adam(self.named_params(), lr=self.config.learning_rate)


def preprocess_cloud(cloud, config: RunConfig, seed: int) -> np.ndarray:
    """Voxel-downsample, then randomly subsample to the configured budget."""
    pts = voxel_downsample(as_points(cloud), config.voxel_size)
    if len(pts) > config.sample_count:
        rng = np.random.default_rng([seed, 0x5A])
        keep = rng.choice(len(pts), size=config.sample_count, replace=False)
        pts = pts[np.sort(keep)]
    return pts


# ---------------------------------------------------------------------------
# Training step: frozen context + differentiable core


@dataclass
class StepContext:
    """Discrete decisions frozen for one training step."""

    src_mask: np.ndarray
    tgt_mask: np.ndarray
    coarse_cand_idx: np.ndarray
    fine_cand_idx: np.ndarray
    c_gt: np.ndarray
    t: int
    c_t: np.ndarray


def make_step_context(model: RegistrationModel, pair: SyntheticPair,
                      rng: np.random.Generator):
    """Run the step's two train-mode backbone forwards at once, the
    target's on a worker thread (``nnet.on_both_sides``), and fix masks,
    candidates, supervision and the noise draw from them. Their batch
    statistics reach the running ones, source first, only after both
    forwards have ended; a failure on either side leaves them as they were.

    Returns (context, src_backbone_out, tgt_backbone_out). The outputs carry
    the caches that the step's one ``training_loss`` call consumes.
    """
    cfg = model.config
    src_out, tgt_out = on_both_sides(model.backbone.forward,
                                     (pair.source, cfg.seed, True),
                                     (pair.target, cfg.seed, True))
    _, _, (src_mask, tgt_mask), coarse_cand = purified_candidates(
        src_out.coarse, tgt_out.coarse, gmm_components=cfg.gmm_components,
        bgmm_topk=cfg.bgmm_topk, candidates=cfg.candidates, seed=cfg.seed)

    c_gt, fine_neighbors = diffusion.build_gt_correspondence(
        src_out.fine.points, tgt_out.fine.points, pair.transform,
        k=cfg.candidates, reg=cfg.sinkhorn_reg, iters=cfg.sinkhorn_iters)
    t = int(rng.integers(1, cfg.diffusion_steps + 1))
    eps = rng.standard_normal(size=c_gt.shape)
    c_t = diffusion.q_sample(model.schedule, c_gt, t, eps)
    ctx = StepContext(src_mask, tgt_mask, coarse_cand, fine_neighbors.indices,
                      c_gt, t, c_t)
    return ctx, src_out, tgt_out


def training_loss(model: RegistrationModel, pair: SyntheticPair,
                  ctx: StepContext, train: bool = True,
                  compute_grads: bool = True, grad_scale: float = 1.0, *,
                  outputs):
    """Evaluate the full two-stage loss of the (src, tgt) backbone
    ``outputs`` that ``make_step_context`` returned, under its frozen
    context and against ``pair.transform``; optionally backpropagate
    ``grad_scale`` times its gradient into the parameters.

    Only the train-mode forward keeps the caches a backward pass needs, so
    ``train=False`` evaluates the loss alone. The two backbone backwards run
    at once, through ``on_both_sides``, which adds their gradients into
    ``Param.grad`` source first, then target, as two sequential backwards
    would. A backward consumes its output's cache (``Backbone.backward``):
    with gradients, the outputs come back with ``cache`` None, and passing
    them in again raises ``ValueError`` before anything is written.
    """
    if compute_grads and not train:
        raise ValueError("gradients need the train-mode forward; "
                         "eval mode keeps no caches")
    src_out, tgt_out = outputs
    if compute_grads and (src_out.cache is None or tgt_out.cache is None):
        raise ValueError(NO_CACHE)
    cfg = model.config
    gt = pair.transform
    src_pure = purify(src_out.coarse, ctx.src_mask)
    tgt_pure = purify(tgt_out.coarse, ctx.tgt_mask)
    est_coarse, _, coarse_cache = coarse_head_forward(
        src_pure, tgt_pure, ctx.coarse_cand_idx, model.predictor,
        model.coarse_confidence, train)

    warped = apply_transform(gt, src_out.fine.points)
    f_g, fg_cache = coarse.geometric_features(
        warped, tgt_out.fine.points, ctx.fine_cand_idx)
    f_d, fd_cache = coarse.descriptor_features(
        src_out.fine, tgt_out.fine, ctx.fine_cand_idx, with_similarity=False)
    c0_hat, den_cache = diffusion.denoiser_forward(
        model.denoiser, ctx.c_t, ctx.t, model.schedule.n_steps, f_g, f_d, train)
    step_tf, c2t_cache = diffusion.correspondence_to_transform(
        c0_hat, warped, ctx.fine_cand_idx, tgt_out.fine.points,
        tgt_out.fine.descriptors, model.fine_confidence,
        temperature=cfg.decode_temperature)
    est_fine = compose(step_tf, gt)

    total, terms, grads = loss_total(est_coarse, est_fine, gt, c0_hat,
                                     ctx.c_gt, cfg)
    if not compute_grads:
        return total, terms

    s = grad_scale
    # Coarse stage: loss -> SVD -> head -> purified sets -> full coarse sets.
    (g_sp, g_sd, g_su), (g_tp, g_td, g_tu) = coarse_head_backward(
        coarse_cache, model.predictor, model.coarse_confidence,
        s * grads["coarse_rot"], s * grads["coarse_trans"])

    def scatter(mask, grad, shape):
        full = np.zeros(shape)
        full[mask] = grad
        return full

    g_coarse_src = (scatter(ctx.src_mask, g_sp, src_out.coarse.points.shape),
                    scatter(ctx.src_mask, g_sd, src_out.coarse.descriptors.shape),
                    scatter(ctx.src_mask, g_su, src_out.coarse.uncertainties.shape))
    g_coarse_tgt = (scatter(ctx.tgt_mask, g_tp, tgt_out.coarse.points.shape),
                    scatter(ctx.tgt_mask, g_td, tgt_out.coarse.descriptors.shape),
                    scatter(ctx.tgt_mask, g_tu, tgt_out.coarse.uncertainties.shape))

    # Fine stage: est_fine = step o gt, so d(step) pulls gt along.
    g_step_rot = (s * grads["fine_rot"]) @ gt.rotation.T
    g_step_rot += np.outer(s * grads["fine_trans"], gt.translation)
    g_step_trans = s * grads["fine_trans"]
    g_c0, g_warped, g_tgt_fp, g_tgt_fd = diffusion.correspondence_to_transform_backward(
        c2t_cache, model.fine_confidence, g_step_rot, g_step_trans)
    g_c0 = g_c0 + s * grads["c0_hat"]
    _, g_f_g, g_f_d = diffusion.denoiser_backward(model.denoiser, den_cache, g_c0)
    g_warped2, g_tgt_fp2 = coarse.geometric_features_backward(fg_cache, g_f_g)
    g_src_fp = (g_warped + g_warped2) @ gt.rotation
    g_src_fd, g_src_fu, g_tgt_fd2, g_tgt_fu = coarse.descriptor_features_backward(
        fd_cache, g_f_d)

    def backbone_backward(out, g_coarse, g_fine):
        model.backbone.backward(out, g_coarse=g_coarse, g_fine=g_fine)

    on_both_sides(backbone_backward,
                  (src_out, g_coarse_src, (g_src_fp, g_src_fd, g_src_fu)),
                  (tgt_out, g_coarse_tgt,
                   (g_tgt_fp + g_tgt_fp2, g_tgt_fd + g_tgt_fd2, g_tgt_fu)))
    return total, terms


# ---------------------------------------------------------------------------
# Full-pair inference


@dataclass
class RegistrationResult:
    """``transform`` is ``fine_steps[-1].pose``. Registration takes no ground
    truth: per-step errors are ``geometry.transform_errors(step.pose, gt)``."""

    transform: RigidTransform
    coarse_transform: RigidTransform
    diagnostics: coarse.CoarseDiagnostics
    fine_steps: list[diffusion.FineStep]


def _front_half(model: RegistrationModel, cloud, seed: int, sample_seed: int):
    """One cloud preprocessed with ``sample_seed`` and through the eval-mode
    backbone with ``seed``, as ``(fine, coarse)``: all that registration
    reads of the backbone's output."""
    pts = preprocess_cloud(cloud, model.config, sample_seed)
    out = model.backbone.forward(pts, seed=seed)
    return out.fine, out.coarse


def _run_target_child(write_fd: int, model: RegistrationModel, tgt_cloud,
                      seed: int):
    """The forked child of ``_front_halves``: pickle ``(None, (fine,
    coarse))``, or ``(exception, None)`` if the work raised anything, into
    ``write_fd``, for the parent to re-raise; then end the process.
    ``os._exit`` ends it without flushing inherited stdio or running exit
    hooks, with status 0 only after a whole result was written."""
    status = 1
    try:
        try:
            payload = (None, _front_half(model, tgt_cloud, seed, seed + 1))
        except BaseException as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(repr(exc))
            payload = (exc, None)
        with open(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _front_halves(model: RegistrationModel, src_cloud, tgt_cloud, seed: int):
    """Both clouds' ``_front_half``, as ``((src_fine, src_coarse),
    (tgt_fine, tgt_coarse))``. The source is preprocessed with ``seed`` and
    the target with ``seed + 1``; both backbone forwards sample with
    ``seed``.

    The target's half runs in a child process forked for this call, while
    the source's runs on the calling thread. The two processes share no
    interpreter lock, so neither waits for the other's numpy calls. The
    child sends its feature sets back through a pipe. An exception in the
    child re-raises here with its type and message, or as a
    ``RuntimeError`` holding its repr when it does not pickle; a child
    that ends without a result raises ``RuntimeError`` naming its wait
    status. An exception on the source side re-raises here too, after the
    child is killed. The child is reaped before this returns or raises.

    The front half must stay write-free: whatever the child writes, to
    the model or anywhere else in its copy of the process, is lost.
    Eval-mode forwards write no model state.

    It forks only on Linux, and only while the process runs one thread as
    the kernel counts them, BLAS threads included, because a fork beside
    another thread can hand the child a lock that thread held. Otherwise
    the two halves run one after the other on the calling thread, with the
    same bits.
    """
    if sys.platform != "linux" or len(os.listdir("/proc/self/task")) != 1:
        return (_front_half(model, src_cloud, seed, seed),
                _front_half(model, tgt_cloud, seed, seed + 1))
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _run_target_child(write_fd, model, tgt_cloud, seed)
    os.close(write_fd)
    result = None
    try:
        with open(read_fd, "rb") as pipe:
            src_sets = _front_half(model, src_cloud, seed, seed)
            result = pipe.read()
    finally:
        if result is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(
            f"the target's front half ended without a result: wait status "
            f"{status} (exit code {os.waitstatus_to_exitcode(status)})")
    error, tgt_sets = pickle.loads(result)
    if error is not None:
        raise error
    return src_sets, tgt_sets


def register_pair(model: RegistrationModel, src_cloud, tgt_cloud, *,
                  seed: int = 0) -> RegistrationResult:
    """Run the full coarse + autoregressive fine pipeline on a cloud pair.

    The two clouds' front halves (preprocessing and eval-mode backbone)
    run at once, the target's in a forked child process
    (``_front_halves``); an exception on either side re-raises here. A
    ``seed`` that is not a non-negative integer raises ``ValueError``
    before any work.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    cfg = model.config

    (src_fine, src_coarse), (tgt_fine, tgt_coarse) = _front_halves(
        model, src_cloud, tgt_cloud, seed)
    coarse_tf, diag, _ = coarse.coarse_register(
        src_coarse, tgt_coarse, model.predictor, model.coarse_confidence,
        gmm_components=cfg.gmm_components, bgmm_topk=cfg.bgmm_topk,
        candidates=cfg.candidates, seed=seed)
    fine_steps = diffusion.autoregressive_infer(
        coarse_tf, src_fine, tgt_fine, model.denoiser,
        model.fine_confidence, model.schedule, k=cfg.candidates,
        steps=cfg.sampling_steps, seed=seed, temperature=cfg.decode_temperature)
    return RegistrationResult(fine_steps[-1].pose, coarse_tf, diag, fine_steps)


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class EpochLog:
    epoch: int
    loss_trans: float
    loss_rot: float
    loss_diff: float
    val_rte: float
    val_rre: float


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    logs: list[EpochLog]
    aborted: bool = False
    skipped_samples: int = 0
    seconds: float = 0.0


def generate_dataset(config: RunConfig, n_pairs: int, stream: int) -> list[SyntheticPair]:
    rng = np.random.default_rng([config.seed, stream])
    return [gen_synthetic_pair(rng, config.train_points, config.max_rot_deg,
                               config.max_trans, config.jitter,
                               config.outlier_clusters)
            for _ in range(n_pairs)]


def load_pair_dir(path) -> list[tuple[np.ndarray, np.ndarray, RigidTransform]]:
    """Read make-synthetic output: pair_NNNN_{src,tgt}.ply plus gt.txt."""
    from .io import read_ply, read_pose_file

    base = Path(path)
    poses = read_pose_file(base / "gt.txt")
    pairs = []
    for i, record in enumerate(poses):
        src = read_ply(base / f"pair_{i:04d}_src.ply")
        tgt = read_ply(base / f"pair_{i:04d}_tgt.ply")
        pairs.append((src, tgt, record.transform))
    return pairs


def _preprocess_pair(pair: SyntheticPair, config: RunConfig, idx: int) -> SyntheticPair:
    return SyntheticPair(preprocess_cloud(pair.source, config, config.seed + 2 * idx),
                         preprocess_cloud(pair.target, config, config.seed + 2 * idx + 1),
                         pair.transform, pair.source_outlier_mask,
                         pair.target_outlier_mask)


def learning_rate_at(config: RunConfig, epoch: int) -> float:
    return config.learning_rate * config.lr_decay ** (epoch // config.lr_decay_every)


def train(config: RunConfig, data_dir=None, log_path=None,
          progress: bool = False) -> TrainResult:
    """Train all stages jointly; returns the checkpoint and per-epoch log.

    With ``data_dir``, the first ``max(1, n // 8)`` of its n pairs are held
    out for validation and the rest are trained on; a directory with fewer
    than 2 pairs raises ``ValueError``. A non-finite loss aborts training
    and the last good epoch checkpoint is returned with ``aborted=True``.
    Training or validation clouds too small for layer 1 raise ``ValueError``
    before the first step.
    """
    started = time.perf_counter()
    need = scaled_layer_configs(config.backbone_scale)[0].n_out
    if data_dir is None:
        # Voxel downsampling only merges points, so a synthetic cloud never
        # holds more than its scene points plus its outlier clusters.
        most = (config.train_points + config.outlier_clusters
                * outlier_cluster_size(config.train_points))
        if most < need:
            raise ValueError(
                f"config train_points ({config.train_points}) makes synthetic clouds "
                f"of at most {most} points, below the {need} points layer 1 of "
                f"backbone_scale {config.backbone_scale!r} samples")
    model = RegistrationModel(config)
    optimizer = model.make_optimizer()

    if data_dir is not None:
        raw = [SyntheticPair(s, t, g, np.zeros(len(s), bool), np.zeros(len(t), bool))
               for s, t, g in load_pair_dir(data_dir)]
        if len(raw) < 2:
            raise ValueError(f"{data_dir} holds {len(raw)} pair(s); training needs "
                             "at least 2, one of them held out for validation")
        # preprocess_cloud keeps min(voxels, sample_count) points whatever
        # its seed, and RunConfig holds sample_count >= need.
        for i, pair in enumerate(raw):
            for side, cloud in (("src", pair.source), ("tgt", pair.target)):
                voxels = len(voxel_downsample(cloud, config.voxel_size))
                if voxels < need:
                    raise ValueError(
                        f"{Path(data_dir) / f'pair_{i:04d}_{side}.ply'} fills {voxels} "
                        f"voxels of size {config.voxel_size!r}, fewer than the {need} "
                        f"points layer 1 of backbone_scale {config.backbone_scale!r} samples")
        n_val = max(1, len(raw) // 8)
        val_pairs, train_raw = raw[:n_val], raw[n_val:]
    else:
        train_raw = generate_dataset(config, config.train_pairs, stream=1)
        val_pairs = generate_dataset(config, config.val_pairs, stream=2)
    # register_pair preprocesses the validation pairs on its own.
    train_pairs = [_preprocess_pair(p, config, i) for i, p in enumerate(train_raw)]

    rng_train = np.random.default_rng([config.seed, 3])
    logs: list[EpochLog] = []
    skipped = 0
    last_good = model.to_checkpoint()
    for epoch in range(config.epochs):
        optimizer.lr = learning_rate_at(config, epoch)
        order = rng_train.permutation(len(train_pairs))
        sums = {"trans": 0.0, "rot": 0.0, "diff": 0.0}
        seen = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            optimizer.zero_grad()
            batch_terms = []
            for idx in batch:
                step = _train_sample(model, train_pairs[idx], rng_train,
                                     grad_scale=1.0 / len(batch))
                if step is None:
                    skipped += 1
                    continue
                total, terms = step
                if not np.isfinite(total):
                    return TrainResult(last_good, logs, aborted=True,
                                       skipped_samples=skipped,
                                       seconds=time.perf_counter() - started)
                batch_terms.append(terms)
            if not batch_terms:
                continue
            optimizer.step()
            for terms in batch_terms:
                sums["trans"] += terms["trans"]
                sums["rot"] += terms["rot"]
                sums["diff"] += terms["diff"]
            seen += len(batch_terms)

        val_rte, val_rre = _validate(model, val_pairs)
        # An epoch that skipped every sample has no mean loss: NaN, as
        # _validate reports when no pair registers.
        means = [v / seen if seen else float("nan") for v in sums.values()]
        logs.append(EpochLog(epoch, *means, val_rte, val_rre))
        last_good = model.to_checkpoint()
        if progress:
            log = logs[-1]
            print(f"epoch {log.epoch:3d} lr {optimizer.lr:.2e} "
                  f"trans {log.loss_trans:.4f} rot {log.loss_rot:.4f} "
                  f"diff {log.loss_diff:.4f} val_rte {log.val_rte:.3f} "
                  f"val_rre {log.val_rre:.3f}", flush=True)

    if log_path is not None:
        write_training_log(log_path, logs)
    return TrainResult(last_good, logs, aborted=False, skipped_samples=skipped,
                       seconds=time.perf_counter() - started)


def _train_sample(model: RegistrationModel, pair: SyntheticPair,
                  rng: np.random.Generator, grad_scale: float):
    """One sample's forward and backward, as ``training_loss``'s
    ``(total, terms)``, or None when the pair is degenerate. The backbone
    outputs are this call's locals, so their caches die with it even when a
    ``DegeneracyError`` stops the step before the backward consumes them:
    no sample's caches live through the next sample's forward."""
    try:
        ctx, src_out, tgt_out = make_step_context(model, pair, rng)
        return training_loss(model, pair, ctx, grad_scale=grad_scale,
                             outputs=(src_out, tgt_out))
    except DegeneracyError:
        return None


def _validate(model: RegistrationModel, val_pairs) -> tuple[float, float]:
    rtes, rres = [], []
    for pair in val_pairs:
        try:
            result = register_pair(model, pair.source, pair.target,
                                   seed=model.config.seed)
        except (DegeneracyError, diffusion.NumericalError):
            continue
        rte, rre = transform_errors(result.transform, pair.transform)
        rtes.append(rte)
        rres.append(rre)
    if not rtes:
        return float("nan"), float("nan")
    return float(np.mean(rtes)), float(np.mean(rres))


def write_training_log(path, logs: list[EpochLog]) -> None:
    lines = ["epoch,loss_trans,loss_rot,loss_diff,val_rte,val_rre"]
    for log in logs:
        lines.append(f"{log.epoch},{log.loss_trans!r},{log.loss_rot!r},"
                     f"{log.loss_diff!r},{log.val_rte!r},{log.val_rre!r}")
    Path(path).write_text("\n".join(lines) + "\n")
