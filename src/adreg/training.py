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
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import coarse, diffusion, nnet
from .backbone import Backbone
from .coarse import (DegeneracyError, coarse_head_backward, coarse_head_forward,
                     make_confidence_head, purified_candidates, purify)
from .geometry import (RigidTransform, apply_transform, as_points, compose,
                       random_rigid_transform, transform_errors, voxel_downsample)
from .io import Checkpoint, CheckpointError, RunConfig
from .nnet import Adam, Param

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


def gen_synthetic_pair(rng: np.random.Generator, n_points: int,
                       max_rot_deg: float, max_trans: float, jitter: float,
                       outlier_clusters: int) -> SyntheticPair:
    """Source scene, its rigidly moved jittered copy, and per-side far-field
    outlier clusters (masked)."""
    if n_points < 64:
        raise ValueError("need at least 64 points per cloud")
    source_in = _scene_points(rng, n_points)
    transform = random_rigid_transform(rng, max_rot_deg, max_trans)
    target_in = apply_transform(transform, source_in)
    if jitter > 0:
        target_in = target_in + rng.normal(scale=jitter, size=target_in.shape)

    cluster_size = max(16, n_points // 25)
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

    def zero_grads(self):
        for p in self.named_params().values():
            p.zero_grad()

    def to_checkpoint(self, optimizer: Adam | None = None) -> Checkpoint:
        tensors: dict[str, np.ndarray] = {}
        for name, p in self.named_params().items():
            tensors[f"param.{name}"] = p.value.reshape(-1).copy()
        for name, buf in self._buffer_modules():
            tensors[f"buffer.{name}"] = buf.reshape(-1).copy()
        for fname, value in vars(self.config).items():
            tensors[f"config.{fname}"] = np.array([float(value)])
        if optimizer is not None:
            tensors.update(optimizer.state_tensors())
        return Checkpoint(tensors=tensors)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "RegistrationModel":
        """Rebuild a model; a checkpoint whose stored config is invalid, or
        that lacks a parameter or holds a tensor of the wrong size, raises
        ``CheckpointError`` naming the tensor. Each ``config.*`` tensor must
        hold one finite value, integral for an integer field. The noise
        schedule is rebuilt from the config."""
        kwargs = {}
        for f in dataclasses.fields(RunConfig):
            key = f"config.{f.name}"
            if key not in ckpt.tensors:
                continue
            raw = np.asarray(ckpt.tensors[key], dtype=np.float64).reshape(-1)
            if raw.size != 1 or not np.isfinite(raw[0]):
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
            # RunConfig's message names the fields whose values break a rule.
            named = [f"'config.{name}'" for name in kwargs
                     if re.search(rf"\b{name}\b", str(exc))]
            raise CheckpointError(f"checkpoint tensors {', '.join(named) or 'config.*'} "
                                  f"hold an invalid config: {exc}") from exc
        model = cls(config)

        def stored(key: str, shape: tuple) -> np.ndarray:
            flat = ckpt.tensors[key]
            want = int(np.prod(shape))
            if flat.size != want:
                raise CheckpointError(
                    f"tensor '{key}' holds {flat.size} values, expected {want}")
            return flat.reshape(shape)

        for name, p in model.named_params().items():
            key = f"param.{name}"
            if key not in ckpt.tensors:
                raise CheckpointError(f"checkpoint lacks tensor '{key}'")
            p.value = stored(key, p.value.shape).copy()
            p.grad = np.zeros_like(p.value)
        for name, buf in model._buffer_modules():
            key = f"buffer.{name}"
            if key in ckpt.tensors:
                buf[...] = stored(key, buf.shape)
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

    gt: RigidTransform
    src_plans: tuple
    tgt_plans: tuple
    src_mask: np.ndarray
    tgt_mask: np.ndarray
    coarse_cand_idx: np.ndarray
    fine_cand_idx: np.ndarray
    c_gt: np.ndarray
    t: int
    c_t: np.ndarray


def on_both_sides(fn, src_args: tuple, tgt_args: tuple):
    """``(fn(*src_args), fn(*tgt_args))``, the target's call running on a
    worker thread while the source's runs on the calling thread.

    Each call runs inside an ``nnet.deferred_writes`` record of its own, so
    neither writes a gradient or running statistic while the other runs.
    After both end, the source's record is applied, then the target's: the
    sums come out as two sequential calls would make them. An exception on
    either side re-raises here after both calls have ended, so no thread
    outlives the call, and neither record is applied. The calls must share
    no other state that either writes. BLAS stays single-threaded; this is
    the package's one source of parallelism.
    """
    def recorded(args):
        with nnet.deferred_writes() as record:
            return fn(*args), record

    with ThreadPoolExecutor(max_workers=1) as worker:
        tgt_future = worker.submit(recorded, tgt_args)
        src_result, src_record = recorded(src_args)
        tgt_result, tgt_record = tgt_future.result()
    src_record.apply()
    tgt_record.apply()
    return src_result, tgt_result


def _backbone_forwards(model: RegistrationModel, pair: SyntheticPair, train: bool,
                       plans: tuple = (None, None)):
    """Both clouds' backbone forwards, run at once by ``on_both_sides``.
    ``plans`` holds each side's sampling plans, or None to compute them."""
    def forward(cloud, cloud_plans):
        return model.backbone.forward(cloud, seed=model.config.seed, train=train,
                                      plans=cloud_plans)

    return on_both_sides(forward, (pair.source, plans[0]), (pair.target, plans[1]))


def make_step_context(model: RegistrationModel, pair: SyntheticPair,
                      rng: np.random.Generator):
    """Fix plans, masks, candidates, supervision, and the noise draw.

    Returns (context, src_backbone_out, tgt_backbone_out). The two train-mode
    backbone forwards run at once (``_backbone_forwards``); their outputs
    carry caches so the training step can reuse this forward pass.
    """
    cfg = model.config
    src_out, tgt_out = _backbone_forwards(model, pair, train=True)
    _, _, (src_mask, tgt_mask), coarse_cand = purified_candidates(
        src_out.coarse, tgt_out.coarse, gmm_components=cfg.gmm_components,
        bgmm_topk=cfg.bgmm_topk, candidates=cfg.candidates, seed=cfg.seed)

    c_gt, fine_neighbors = diffusion.build_gt_correspondence(
        src_out.fine.points, tgt_out.fine.points, pair.transform,
        k=cfg.candidates, reg=cfg.sinkhorn_reg, iters=cfg.sinkhorn_iters)
    t = int(rng.integers(1, cfg.diffusion_steps + 1))
    eps = rng.standard_normal(size=c_gt.shape)
    c_t = diffusion.q_sample(model.schedule, c_gt, t, eps)
    ctx = StepContext(pair.transform, src_out.plans, tgt_out.plans,
                      src_mask, tgt_mask, coarse_cand, fine_neighbors.indices,
                      c_gt, t, c_t)
    return ctx, src_out, tgt_out


def training_loss(model: RegistrationModel, pair: SyntheticPair,
                  ctx: StepContext, train: bool = True,
                  compute_grads: bool = True, grad_scale: float = 1.0,
                  outputs=None):
    """Evaluate the full two-stage loss under a frozen context; optionally
    backpropagate ``grad_scale`` times its gradient into the parameters.

    ``outputs`` may carry the (src, tgt) backbone outputs produced while the
    context was built, saving their recomputation; otherwise both forwards
    run at once through ``_backbone_forwards``. Only the train-mode forward
    keeps the caches a backward pass needs, so ``train=False`` evaluates the
    loss alone. The two backbone backwards also run at once, through
    ``on_both_sides``, which adds their gradients into ``Param.grad`` source
    first, then target, as two sequential backwards would.
    """
    if compute_grads and not train:
        raise ValueError("gradients need the train-mode forward; "
                         "eval mode keeps no caches")
    cfg = model.config
    if outputs is not None:
        src_out, tgt_out = outputs
    else:
        src_out, tgt_out = _backbone_forwards(model, pair, train,
                                              plans=(ctx.src_plans, ctx.tgt_plans))
    src_pure = purify(src_out.coarse, ctx.src_mask)
    tgt_pure = purify(tgt_out.coarse, ctx.tgt_mask)
    est_coarse, _, coarse_cache = coarse_head_forward(
        src_pure, tgt_pure, ctx.coarse_cand_idx, model.predictor,
        model.coarse_confidence, train)

    warped = apply_transform(ctx.gt, src_out.fine.points)
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
    est_fine = compose(step_tf, ctx.gt)

    total, terms, grads = loss_total(est_coarse, est_fine, ctx.gt, c0_hat,
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
    g_step_rot = (s * grads["fine_rot"]) @ ctx.gt.rotation.T
    g_step_rot += np.outer(s * grads["fine_trans"], ctx.gt.translation)
    g_step_trans = s * grads["fine_trans"]
    g_c0, g_warped, g_tgt_fp, g_tgt_fd = diffusion.correspondence_to_transform_backward(
        c2t_cache, model.fine_confidence, g_step_rot, g_step_trans)
    g_c0 = g_c0 + s * grads["c0_hat"]
    _, g_f_g, g_f_d = diffusion.denoiser_backward(model.denoiser, den_cache, g_c0)
    g_warped2, g_tgt_fp2 = coarse.geometric_features_backward(fg_cache, g_f_g)
    g_src_fp = (g_warped + g_warped2) @ ctx.gt.rotation
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
    transform: RigidTransform
    coarse_transform: RigidTransform
    diagnostics: coarse.CoarseDiagnostics
    buffer: diffusion.TransformBuffer
    trace: list[diffusion.TraceRow]


def register_pair(model: RegistrationModel, src_cloud, tgt_cloud, *,
                  seed: int = 0, gt: RigidTransform | None = None) -> RegistrationResult:
    """Run the full coarse + autoregressive fine pipeline on a cloud pair.

    Each cloud's front half (``preprocess_cloud``, then the eval-mode
    backbone) depends on that cloud alone, so both run at once through
    ``on_both_sides``; an exception in either re-raises here. Eval-mode
    forwards write no shared state.
    """
    cfg = model.config

    def front_half(cloud, cloud_seed):
        cloud = preprocess_cloud(cloud, cfg, cloud_seed)
        return model.backbone.forward(cloud, seed=seed, train=False)

    src_out, tgt_out = on_both_sides(front_half, (src_cloud, seed),
                                     (tgt_cloud, seed + 1))
    coarse_tf, diag, _ = coarse.coarse_register(
        src_out, tgt_out, model.predictor, model.coarse_confidence,
        gmm_components=cfg.gmm_components, bgmm_topk=cfg.bgmm_topk,
        candidates=cfg.candidates, seed=seed)
    final, buffer, trace = diffusion.autoregressive_infer(
        coarse_tf, src_out.fine, tgt_out.fine, model.denoiser,
        model.fine_confidence, model.schedule, k=cfg.candidates,
        steps=cfg.sampling_steps, seed=seed, temperature=cfg.decode_temperature,
        gt=gt)
    return RegistrationResult(final, coarse_tf, diag, buffer, trace)


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

    A non-finite loss aborts training and the last good epoch checkpoint is
    returned with ``aborted=True``.
    """
    started = time.perf_counter()
    model = RegistrationModel(config)
    optimizer = model.make_optimizer()

    if data_dir is not None:
        raw = [SyntheticPair(s, t, g, np.zeros(len(s), bool), np.zeros(len(t), bool))
               for s, t, g in load_pair_dir(data_dir)]
        train_pairs = [_preprocess_pair(p, config, i) for i, p in enumerate(raw)]
        val_pairs = raw[: max(1, len(raw) // 8)]  # register_pair preprocesses
    else:
        train_raw = generate_dataset(config, config.train_pairs, stream=1)
        val_raw = generate_dataset(config, config.val_pairs, stream=2)
        train_pairs = [_preprocess_pair(p, config, i) for i, p in enumerate(train_raw)]
        val_pairs = val_raw  # register_pair preprocesses on its own

    rng_train = np.random.default_rng([config.seed, 3])
    logs: list[EpochLog] = []
    skipped = 0
    last_good = model.to_checkpoint(optimizer)
    for epoch in range(config.epochs):
        optimizer.lr = learning_rate_at(config, epoch)
        order = rng_train.permutation(len(train_pairs))
        sums = {"trans": 0.0, "rot": 0.0, "diff": 0.0}
        seen = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            optimizer.zero_grad()
            used = 0
            batch_terms = []
            for idx in batch:
                pair = train_pairs[idx]
                try:
                    ctx, src_out, tgt_out = make_step_context(model, pair, rng_train)
                    total, terms = training_loss(model, pair, ctx,
                                                 grad_scale=1.0 / len(batch),
                                                 outputs=(src_out, tgt_out))
                except DegeneracyError:
                    skipped += 1
                    continue
                if not np.isfinite(total):
                    return TrainResult(last_good, logs, aborted=True,
                                       skipped_samples=skipped,
                                       seconds=time.perf_counter() - started)
                batch_terms.append(terms)
                used += 1
            if used == 0:
                continue
            optimizer.step()
            for terms in batch_terms:
                sums["trans"] += terms["trans"]
                sums["rot"] += terms["rot"]
                sums["diff"] += terms["diff"]
            seen += used

        val_rte, val_rre = _validate(model, val_pairs)
        denom = max(seen, 1)
        logs.append(EpochLog(epoch, sums["trans"] / denom, sums["rot"] / denom,
                             sums["diff"] / denom, val_rte, val_rre))
        last_good = model.to_checkpoint(optimizer)
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
