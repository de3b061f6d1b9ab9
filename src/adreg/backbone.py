"""Hierarchical detector-descriptor backbone.

Each layer samples representative points (FPS at the first layer, weighted
FPS above, weights = 1 - uncertainty), groups the layer input around them by
KNN, scores group members with a CBR stack (softmax weights), and emits the
weighted fusion of member coordinates and descriptor features plus a sigmoid
uncertainty per output point. The layer-2 output feeds the fine registration
stage, layer 3 the coarse stage.

Eval mode applies each stack's first CBR block once per input point, not
once per group member. The block is linear in the member row [p - c, f, u]
before its ReLU, where c is the group's centre: W [p - c; f; u] + b equals
W [p; f; u] + (b - W_p c). So a layer call multiplies every input point's
row [p, f, u] once, gathers the products per member, and adds one term per
output point, as ASSANet moves PointNet++'s pointwise MLPs ahead of
grouping (Qian et al., NeurIPS 2021). The arithmetic is the same; only the
rounding moves. Train mode keeps the member rows, whose gradients its
backward needs.

Dtypes: train mode runs in float64 throughout, where the gradient checks
need it. Eval mode runs each layer's detector and descriptor stacks in
float32: their CBR products (``DetectorDescriptorLayer.fold`` casts the
weights once per layer call) and the detector's linear head. Everything
else stays in float64: FPS, KNN, the member fusion with its softmax
weights, the uncertainty MLP, and the layer outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnet
from .geometry import as_points, farthest_point_sample, knn_search
from .nnet import (fuse_candidates, fuse_candidates_backward, scatter_candidates,
                   softmax_rows, softmax_rows_backward)

NO_CACHE = ("backbone output has no cache: its forward ran in eval mode, or an "
            "earlier backward consumed the cache")
# Uncertainty channel fed to the first layer, which has no estimate yet.
INITIAL_UNCERTAINTY = 0.5
LIFT_WIDTH = 32
UNCERTAINTY_HIDDEN = 64
# An eval-mode layer forward handles output points in blocks whose widest
# activation holds about this many float32 entries. The budget is 512 KB
# per activation, which bounds its scratch memory whatever the layer sizes:
# a block's input, product and output stay within a 2 MB per-core L2 cache
# across each elementwise pass. The first blocks' per-point tables are held
# for the whole call beside it. Blocks only split rows, but OpenBLAS may
# round a float32 product of few rows differently from the same rows inside
# a larger product, so the size can move the last bits of a block with few
# member rows. At the default layer sizes it does not: 2**11 to 2**19 gave
# the same outputs bit for bit at scales 0.25 and 1.0. The eval layer
# forwards of a pair with fixed plans, one cloud per process as
# register_pair runs them (the source's in the calling process, the
# target's in a forked one, at once; FPS and KNN not included), median ms
# per pair over round-robin rounds (15 of 4 pairs at scale 0.25 on
# 512-point clouds, 10 of 2 pairs at scale 1.0 on 60k-point clouds, about
# 12-15k after the voxel grid), two runs on a 2-core Xeon:
#
#   entries   2**15    2**16    2**17    2**18
#   0.25      40/38    33/31    31/29    31/29
#   1.0      140/141  121/120  111/111  110/108
#
# The two processes share no interpreter lock, so what small blocks cost is
# their own numpy call overhead, no longer a wait for the other side's
# lock. 2**18 ties at scale 0.25, gains 1-3 ms at full scale, and its
# blocks hold twice the scratch.
_FORWARD_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class LayerConfig:
    n_out: int
    k_group: int
    widths: tuple[int, ...]


# Reference configuration; n_out scales with the run factor, K and channel
# widths stay fixed.
FULL_SCALE_LAYERS = (
    LayerConfig(1024, 64, (32, 32, 64)),
    LayerConfig(512, 32, (64, 64, 128)),
    LayerConfig(256, 16, (128, 128, 256)),
)


def scaled_layer_configs(scale: float = 1.0) -> tuple[LayerConfig, ...]:
    """The reference layers with ``n_out`` scaled by ``scale`` (at least 1).

    K and the channel widths do not scale. A layer groups
    ``min(K, n_in)`` members, where ``n_in`` is the previous layer's
    ``n_out``, so at ``scale <= 1/32`` layers 2 and 3 group their whole
    input (at 1/32, 32 of 32 and 16 of 16 points) and every output point
    of such a layer fuses the same members.
    """
    if not 0 < scale * FULL_SCALE_LAYERS[0].n_out < np.inf:
        raise ValueError(f"backbone_scale {scale!r} must be positive and "
                         "leave the layer sizes finite")
    return tuple(
        LayerConfig(max(1, round(cfg.n_out * scale)), cfg.k_group, cfg.widths)
        for cfg in FULL_SCALE_LAYERS)


@dataclass
class FeatureSet:
    """Superpoints with their descriptors and uncertainties."""

    points: np.ndarray         # (N, 3)
    descriptors: np.ndarray    # (N, C)
    uncertainties: np.ndarray  # (N,)

    def __post_init__(self):
        n = len(self.points)
        if len(self.descriptors) != n or len(self.uncertainties) != n:
            raise ValueError("feature set fields must share their row count")

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class LayerPlan:
    selected: np.ndarray  # (N_out,) indices into the layer input
    groups: np.ndarray    # (N_out, K_eff) indices into the layer input


class DetectorDescriptorLayer:
    """One downsampling stage: detector weights, descriptor fusion, uncertainty."""

    def __init__(self, in_feat_dim: int, cfg: LayerConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.in_feat_dim = in_feat_dim
        group_dim = 3 + in_feat_dim + 1
        self.detector = nnet.CBRStack(group_dim, cfg.widths, 1, rng)
        self.descriptor = nnet.CBRStack(group_dim, cfg.widths, None, rng)
        self.uncertainty = nnet.MLP(cfg.widths[-1], UNCERTAINTY_HIDDEN, rng)

    @property
    def out_dim(self) -> int:
        return self.cfg.widths[-1]

    def plan(self, pts: np.ndarray, unc: np.ndarray, seed: int,
             weighted: bool) -> LayerPlan:
        """The ``n_out`` representative points (FPS, weighted by
        ``1 - unc`` when ``weighted``), each grouped with its
        ``min(K, n_in)`` nearest input points."""
        if len(pts) < self.cfg.n_out:
            raise ValueError(
                f"layer needs at least {self.cfg.n_out} input points, got {len(pts)}")
        weights = (1.0 - unc) if weighted else None
        selected = farthest_point_sample(pts, self.cfg.n_out, weights=weights, seed=seed)
        k_eff = min(self.cfg.k_group, len(pts))
        return LayerPlan(selected, knn_search(pts[selected], pts, k_eff).indices)

    def fold(self) -> tuple:
        """The eval pass's folded stacks, which ``forward`` takes once per
        call: each stack's ``nnet.CBRStack.fold`` cast to float32, the dtype
        the products run in. ``forward`` applies each stack's first pair
        once per input point and the rest once per group member. An entry
        beyond float32's range becomes infinite, and
        ``nnet.folds_stay_finite`` then keeps the checks that catch it."""
        with np.errstate(over="ignore"):
            return tuple([(w_t.astype(np.float32), b.astype(np.float32))
                          for w_t, b in stack.fold()]
                         for stack in (self.detector, self.descriptor))

    def forward(self, pts: np.ndarray, feats: np.ndarray, unc: np.ndarray,
                plan: LayerPlan, train: bool):
        """Fuse each group into an output point, descriptor and uncertainty.

        Returns (p_out, d_out, u_out, cache). Only train mode returns a
        cache, for ``backward``; its stacks run through
        ``nnet.CBRStack.forward``, whose batch norms fold their batch
        statistics as they run (``nnet.BatchNorm``); it runs in float64.
        Eval mode takes each CBR's batch norm folded into its weights,
        scaled and cast to float32 once per call (``fold``), not once per
        row block. It applies both stacks' first blocks per input point: one
        product of the float32 rows [p, f, u] with the two first weights
        makes a table per stack, and each output point c gets a term
        b - W_p c per stack. A block's first activations are then
        relu(table[member] + term[group]) (``nnet.gathered_cbr``), and the
        stacks run on from their second blocks in float32. The softmax and
        the member fusion, on the gathered member coordinates, run in
        float64. It skips the stacks' finiteness checks when a bound on the
        layer input fits in float32 and shows that they cannot fire there
        (``nnet.folds_stay_finite``). It walks the output points in blocks
        whose widest activation holds about ``_FORWARD_BLOCK_ENTRIES``
        float32 entries, sized so that a block's arrays stay in a core's L2
        cache through the CBR stacks and the member fusion. Each output row
        depends on its own group alone, but the block size can still move
        its last bits: OpenBLAS may round a float32 product of few rows
        differently from the same rows inside a larger product, as a partial
        last block can have. At the default layer sizes it does not:
        ``_FORWARD_BLOCK_ENTRIES`` from 2**11 to 2**19 gave the same outputs
        bit for bit at scales 0.25 and 1.0. Train mode gathers the member rows
        [p - c, f, u] and takes every row in one block, because batch
        statistics and the backward pass need them all.
        """
        if feats.shape[1] != self.in_feat_dim:
            raise ValueError(f"expected feature width {self.in_feat_dim}, got {feats.shape[1]}")
        n_out, k = plan.groups.shape
        c = self.in_feat_dim
        width = 3 + c + 1
        rows = n_out if train else max(
            1, _FORWARD_BLOCK_ENTRIES // (k * max(self.cfg.widths)))
        if not train:
            scaled = self.fold()
            # The first blocks' pre-activations W [p - centre; f; u] + b,
            # split as W [p; f; u] + (b - W_p centre): the detector's and the
            # descriptor's tables hold the first part per input point, their
            # terms the second per output point.
            first_w = np.stack([stack[0][0] for stack in scaled])
            first_b = np.stack([stack[0][1] for stack in scaled])
            tables = np.matmul(np.concatenate([pts, feats, unc[:, None]], axis=1,
                                              dtype=np.float32), first_w)
            terms = first_b[:, None] - pts[plan.selected].astype(np.float32) @ first_w[:, :3]
            # With M the largest input magnitude, the float32 rows [p, f, u]
            # and centres hold entries within M up to rounding. So the table
            # entries and the terms' products are within M * gain, and each
            # member's exact pre-activation W [p - centre; f; u] + b within
            # 2 M * gain + max|b|: inside the bound bound * gain + max|b|
            # that folds_stay_finite sets for a first block fed rows within
            # ``bound`` = 4 M, and doubles to cover rounding. np.max keeps a
            # NaN, which keeps every check.
            bound = 4.0 * float(np.max([pts.max(), -pts.min(), feats.max(),
                                        -feats.min(), unc.max(), -unc.min()]))
            checked = not all(nnet.folds_stay_finite(f, bound, rows * k)
                              for f in scaled)
        p_out = np.empty((n_out, 3))
        d_out = np.empty((n_out, self.out_dim))
        for start in range(0, n_out, rows):
            block = slice(start, start + rows)
            groups = plan.groups[block]
            members = groups.reshape(-1)
            n = len(groups)
            member_pts = np.take(pts, members, axis=0).reshape(n, k, 3)
            if train:
                # The member rows [p - centre, feature, uncertainty],
                # gathered by one flat take per input array and written
                # into their columns.
                x = np.empty((n * k, width))
                np.subtract(member_pts, pts[plan.selected[block]][:, None, :],
                            out=x.reshape(n, k, width)[:, :, :3])
                x[:, 3:3 + c] = np.take(feats, members, axis=0)
                x[:, 3 + c] = np.take(unc, members)
                logits, det_cache = self.detector.forward(x, train)
                desc_rows, desc_cache = self.descriptor.forward(x, train)
            else:
                logits, desc_rows = (
                    stack.forward_folded(nnet.gathered_cbr(table, groups, term[block], checked),
                                         folded[1:], checked)
                    for stack, table, term, folded in zip(
                        (self.detector, self.descriptor), tables, terms, scaled))
            w = softmax_rows(logits.reshape(n, k).astype(np.float64, copy=False))
            desc_feat = desc_rows.reshape(n, k, self.out_dim)
            p_out[block], d_out[block] = fuse_candidates(w, member_pts, desc_feat)
        u_out, unc_cache = self.uncertainty.forward(d_out)
        if not train:
            return p_out, d_out, u_out, None
        cache = {"plan": plan, "n_in": len(pts), "w": w, "member_pts": member_pts,
                 "desc_feat": desc_feat, "det": det_cache, "desc": desc_cache,
                 "unc": unc_cache}
        return p_out, d_out, u_out, cache

    def backward(self, cache, g_pts_out, g_desc_out, g_unc_out, *, raw_input=False):
        """Accumulate parameter gradients; return the gradients of the layer
        input's (points, features, uncertainties). With ``raw_input`` the
        input points are the model input and the uncertainties a constant,
        as at the first layer: their gradients are not built (None).

        The cache serves this one backward: its activations are popped from
        the dict as they are used, and the CBR stacks release theirs block
        by block (``nnet.CBRStack.backward``)."""
        plan, w = cache["plan"], cache["w"]
        n_out, k = plan.groups.shape

        g_desc_out = g_desc_out + self.uncertainty.backward(cache.pop("unc"), g_unc_out)
        g_w, g_member_pts, g_desc_feat = fuse_candidates_backward(
            w, cache.pop("member_pts"), cache.pop("desc_feat"), g_pts_out, g_desc_out)

        g_logits = softmax_rows_backward(g_w, w)
        g_x = self.detector.backward(cache.pop("det"), g_logits.reshape(n_out * k, 1))
        g_x = g_x + self.descriptor.backward(
            cache.pop("desc"), g_desc_feat.reshape(n_out * k, self.out_dim))

        n_in, c = cache["n_in"], self.in_feat_dim
        g_feats_in = scatter_candidates(np.zeros((n_in, c)), plan.groups,
                                        g_x[:, 3:3 + c])
        if raw_input:
            return None, g_feats_in, None
        g_rel = g_x[:, :3].reshape(n_out, k, 3)
        g_pts_in = scatter_candidates(np.zeros((n_in, 3)), plan.groups,
                                      g_member_pts + g_rel)
        scatter_candidates(g_pts_in, plan.selected, -g_rel.sum(axis=1))
        g_unc_in = scatter_candidates(np.zeros(n_in), plan.groups, g_x[:, 3 + c])
        return g_pts_in, g_feats_in, g_unc_in

    def named_params(self, prefix: str):
        yield from self.detector.named_params(f"{prefix}.det")
        yield from self.descriptor.named_params(f"{prefix}.desc")
        yield from self.uncertainty.named_params(f"{prefix}.unc")

    def named_buffers(self, prefix: str):
        yield from self.detector.named_buffers(f"{prefix}.det")
        yield from self.descriptor.named_buffers(f"{prefix}.desc")


@dataclass
class BackboneOutput:
    fine: FeatureSet
    coarse: FeatureSet
    plans: tuple[LayerPlan, ...]
    # Train mode only, for one Backbone.backward, which releases it layer
    # by layer and leaves None here.
    cache: dict | None


class Backbone:
    """Three detector-descriptor layers; layer 2 is the fine stage, layer 3
    the coarse stage."""

    def __init__(self, rng: np.random.Generator, scale: float = 1.0):
        self.configs = scaled_layer_configs(scale)
        self.lift = nnet.Linear(3, LIFT_WIDTH, rng)
        in_dims = (LIFT_WIDTH,) + tuple(c.widths[-1] for c in self.configs[:-1])
        self.layers = [DetectorDescriptorLayer(d, c, rng)
                       for d, c in zip(in_dims, self.configs)]

    def forward(self, cloud, seed: int = 0, train: bool = False,
                plans: tuple[LayerPlan, ...] | None = None) -> BackboneOutput:
        """One cloud through the layers, sampling and grouping each layer's
        input with ``seed`` (``DetectorDescriptorLayer.plan``), or following
        ``plans`` (one per layer) where given. Train-mode batch norms fold
        their batch statistics as they run (``nnet.BatchNorm``). A training
        step runs its two clouds' forwards at once through
        ``nnet.on_both_sides``, which holds both sides' folds until both
        forwards have ended; a registration runs the target's in a forked
        process (``training.register_pair``).
        """
        pts = as_points(cloud)
        if len(pts) < self.configs[0].n_out:
            raise ValueError(f"backbone needs at least {self.configs[0].n_out} "
                             f"points, got {len(pts)}")
        feats, lift_cache = self.lift.forward(pts)
        unc = np.full(len(pts), INITIAL_UNCERTAINTY)
        outputs, used_plans, caches = [], [], []
        for i, layer in enumerate(self.layers):
            plan = (layer.plan(pts, unc, seed, weighted=i > 0)
                    if plans is None else plans[i])
            pts, feats, unc, layer_cache = layer.forward(pts, feats, unc, plan, train)
            outputs.append(FeatureSet(pts, feats, unc))
            used_plans.append(plan)
            caches.append(layer_cache)
        cache = {"layers": caches, "lift": lift_cache} if train else None
        return BackboneOutput(fine=outputs[1], coarse=outputs[2],
                              plans=tuple(used_plans), cache=cache)

    def backward(self, output: BackboneOutput, g_coarse, g_fine):
        """Accumulate parameter gradients given output-side gradients.

        ``g_coarse``/``g_fine`` are (g_points, g_descriptors, g_uncertainties)
        triples for the coarse and fine feature sets. The input cloud gets
        no gradient.

        The output's cache serves this one backward. It is taken from
        ``output`` (which is left with ``cache`` None) and each layer's part
        is dropped once that layer's backward has run, so the activations
        are freed as the gradient moves down the layers. An output without a
        cache, from an eval-mode forward or an earlier backward, raises
        ``ValueError``.
        """
        if output.cache is None:
            raise ValueError(NO_CACHE)
        cache, output.cache = output.cache, None
        caches = cache["layers"]
        fp, fd, fu = g_fine
        gp, gd, gu = self.layers[2].backward(caches.pop(), *g_coarse)
        gp, gd, gu = self.layers[1].backward(caches.pop(), gp + fp, gd + fd, gu + fu)
        _, g_feats, _ = self.layers[0].backward(caches.pop(), gp, gd, gu, raw_input=True)
        self.lift.accumulate_grads(cache["lift"], g_feats)

    def named_params(self, prefix: str = "backbone"):
        yield from self.lift.named_params(f"{prefix}.lift")
        for i, layer in enumerate(self.layers):
            yield from layer.named_params(f"{prefix}.layer{i + 1}")

    def named_buffers(self, prefix: str = "backbone"):
        for i, layer in enumerate(self.layers):
            yield from layer.named_buffers(f"{prefix}.layer{i + 1}")
