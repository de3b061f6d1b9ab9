"""Hierarchical detector-descriptor backbone.

Each layer samples representative points (FPS at the first layer, weighted
FPS above, weights = 1 - uncertainty), groups the layer input around them by
KNN, scores group members with a CBR stack (softmax weights), and emits the
weighted fusion of member coordinates and descriptor features plus a sigmoid
uncertainty per output point. The layer-2 output feeds the fine registration
stage, layer 3 the coarse stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnet
from .geometry import as_points, farthest_point_sample, knn_search
from .nnet import (fuse_candidates, fuse_candidates_backward, scatter_candidates,
                   softmax_rows, softmax_rows_backward)

# Uncertainty channel fed to the first layer, which has no estimate yet.
INITIAL_UNCERTAINTY = 0.5
LIFT_WIDTH = 32
UNCERTAINTY_HIDDEN = 64
# An eval-mode layer forward handles output points in blocks whose widest
# activation holds about this many entries, which bounds its scratch memory
# whatever the layer sizes. 2**16 float64 entries are 512 KB, so a block's
# input, product and output stay within a 2 MB per-core L2 cache across
# each elementwise pass; 2**19 (4 MB per array) sent every pass to L3.
# Blocks only split rows, so the outputs are the same at every size. Eval
# backbone forward with fixed plans, median ms, two runs on a 2-core Xeon
# (scale 0.25 on 512 points; scale 1.0 on 60k points, 11,662 after the
# voxel grid):
#
#   entries   2**15    2**16    2**17    2**18    2**19
#   0.25      52/54    44/52    60/61    73/74    92/89
#   1.0      207/264  172/220  181/213  240/253  277/298
_FORWARD_BLOCK_ENTRIES = 1 << 16


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
        n_in = len(pts)
        if n_in < self.cfg.n_out:
            raise ValueError(
                f"layer needs at least {self.cfg.n_out} input points, got {n_in}")
        weights = (1.0 - unc) if weighted else None
        selected = farthest_point_sample(pts, self.cfg.n_out, weights=weights, seed=seed)
        k_eff = min(self.cfg.k_group, n_in)
        groups = knn_search(pts[selected], pts, k_eff).indices
        return LayerPlan(selected, groups)

    def forward(self, pts: np.ndarray, feats: np.ndarray, unc: np.ndarray,
                plan: LayerPlan, train: bool):
        """Fuse each group into an output point, descriptor and uncertainty.

        Returns (p_out, d_out, u_out, cache). Only train mode returns a
        cache, for ``backward``; its batch norms fold their batch statistics
        as they run (``nnet.BatchNorm``). Eval mode walks the output points
        in blocks whose widest activation holds about
        ``_FORWARD_BLOCK_ENTRIES`` entries, sized so that a block's arrays
        stay in a core's L2 cache through the CBR stacks and the member
        fusion; each output row depends on its own group alone, so the
        blocks give the same bits as one whole-batch pass. Train mode takes
        every row in one block, because batch statistics and the backward
        pass need them all.
        """
        if feats.shape[1] != self.in_feat_dim:
            raise ValueError(f"expected feature width {self.in_feat_dim}, got {feats.shape[1]}")
        n_out, k = plan.groups.shape
        widest = max(3 + self.in_feat_dim + 1, *self.cfg.widths)
        rows = n_out if train else max(1, _FORWARD_BLOCK_ENTRIES // (k * widest))
        p_out = np.empty((n_out, 3))
        d_out = np.empty((n_out, self.out_dim))
        for start in range(0, n_out, rows):
            block = slice(start, start + rows)
            groups = plan.groups[block]
            n = len(groups)
            member_pts = pts[groups]
            rel = member_pts - pts[plan.selected[block]][:, None, :]
            x = np.concatenate(
                [rel.reshape(n * k, 3),
                 feats[groups].reshape(n * k, -1),
                 unc[groups].reshape(n * k, 1)], axis=1)
            logits, det_cache = self.detector.forward(x, train)
            w = softmax_rows(logits.reshape(n, k))
            desc_rows, desc_cache = self.descriptor.forward(x, train)
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
        as at the first layer: their gradients are not built (None)."""
        plan, w = cache["plan"], cache["w"]
        n_out, k = plan.groups.shape

        g_desc_out = g_desc_out + self.uncertainty.backward(cache["unc"], g_unc_out)
        g_w, g_member_pts, g_desc_feat = fuse_candidates_backward(
            w, cache["member_pts"], cache["desc_feat"], g_pts_out, g_desc_out)

        g_logits = softmax_rows_backward(g_w, w)
        g_x = self.detector.backward(cache["det"], g_logits.reshape(n_out * k, 1))
        g_x = g_x + self.descriptor.backward(
            cache["desc"], g_desc_feat.reshape(n_out * k, self.out_dim))

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
    # Train mode only, for Backbone.backward.
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
        pts = as_points(cloud)
        if len(pts) < self.configs[0].n_out:
            raise ValueError(
                f"backbone needs at least {self.configs[0].n_out} points, got {len(pts)}")
        feats, lift_cache = self.lift.forward(pts)
        unc = np.full(len(pts), INITIAL_UNCERTAINTY)

        outputs = []
        used_plans = []
        caches = []
        for i, layer in enumerate(self.layers):
            if plans is not None:
                plan = plans[i]
            else:
                plan = layer.plan(pts, unc, seed=seed, weighted=(i > 0))
            p_out, d_out, u_out, cache = layer.forward(pts, feats, unc, plan, train)
            outputs.append(FeatureSet(p_out, d_out, u_out))
            used_plans.append(plan)
            caches.append(cache)
            pts, feats, unc = p_out, d_out, u_out

        cache = {"layers": caches, "lift": lift_cache} if train else None
        return BackboneOutput(fine=outputs[1], coarse=outputs[2],
                              plans=tuple(used_plans), cache=cache)

    def backward(self, output: BackboneOutput, g_coarse, g_fine):
        """Accumulate parameter gradients given output-side gradients.

        ``g_coarse``/``g_fine`` are (g_points, g_descriptors, g_uncertainties)
        triples for the coarse and fine feature sets. The input cloud gets
        no gradient.
        """
        caches = output.cache["layers"]
        fp, fd, fu = g_fine
        gp, gd, gu = self.layers[2].backward(caches[2], *g_coarse)
        gp, gd, gu = self.layers[1].backward(caches[1], gp + fp, gd + fd, gu + fu)
        _, g_feats, _ = self.layers[0].backward(caches[0], gp, gd, gu, raw_input=True)
        self.lift.accumulate_grads(output.cache["lift"], g_feats)

    def named_params(self, prefix: str = "backbone"):
        yield from self.lift.named_params(f"{prefix}.lift")
        for i, layer in enumerate(self.layers):
            yield from layer.named_params(f"{prefix}.layer{i + 1}")

    def named_buffers(self, prefix: str = "backbone"):
        for i, layer in enumerate(self.layers):
            yield from layer.named_buffers(f"{prefix}.layer{i + 1}")
