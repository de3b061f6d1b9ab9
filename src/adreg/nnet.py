"""Minimal dense neural compute: pointwise linear layers, batch normalization,
activations, and Adam, all in float64 with hand-written analytic backwards.

Layers are stateless between calls: ``forward`` returns ``(output, cache)``
and ``backward(cache, grad_out)`` consumes that cache, adding parameter
gradients through ``Param.accumulate`` (callers zero them). A train-mode
batch norm returns its batch statistics in the cache instead of updating its
running ones, and inside ``gradient_buffers`` a thread's parameter gradients
go to buffers of its own. So forwards and backwards over several inputs may
interleave, or run on separate threads, and their statistics and gradients
are then applied in an order the caller fixes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

BN_MOMENTUM = 0.9
BN_EPS = 1e-5
# finite_diff_check: one-sided slopes further apart than this (relative)
# mark a kink inside the probe interval; the step then shrinks tenfold, at
# most KINK_SHRINKS times, before the coordinate is skipped.
KINK_RTOL = 1e-4
KINK_SHRINKS = 3

# The gradient buffers of the calling thread while it is inside
# ``gradient_buffers``; unset elsewhere.
_SINK = threading.local()


class Param:
    """A trainable tensor and its accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0

    def accumulate(self, g: np.ndarray):
        """Add ``g`` to the gradient, or to the calling thread's buffer for
        this parameter inside ``gradient_buffers``."""
        buffers = getattr(_SINK, "buffers", None)
        if buffers is None:
            self.grad += g
        elif self in buffers:
            buffers[self] += g
        else:
            buffers[self] = np.array(g, dtype=np.float64)


@contextmanager
def gradient_buffers():
    """Collect the calling thread's parameter gradients in a fresh dict
    (Param -> array) instead of ``Param.grad``; ``add_gradients`` adds them
    in later. Threads backpropagating through shared layers then never write
    one array, and adding their dicts in a fixed order keeps the sums
    reproducible."""
    buffers: dict[Param, np.ndarray] = {}
    _SINK.buffers = buffers
    try:
        yield buffers
    finally:
        _SINK.buffers = None


def add_gradients(buffers: dict[Param, np.ndarray]):
    for p, g in buffers.items():
        p.grad += g


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    # One scalar reduction; NaN/inf propagate through the sum.
    if not np.isfinite(arr.sum()):
        raise FloatingPointError(f"non-finite values in {what}")
    return arr


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


class Linear:
    """Shared per-row affine map: y = x @ W.T + b (a 1x1 convolution over points)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = Param(glorot_uniform(rng, out_dim, in_dim))
        self.b = Param(np.zeros(out_dim))

    def check_input(self, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != self.w.value.shape[1]:
            raise ValueError(f"linear expects (N, {self.w.value.shape[1]}), got {x.shape}")

    def forward(self, x: np.ndarray):
        self.check_input(x)
        return _check_finite(x @ self.w.value.T + self.b.value, "linear output"), x

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        self.accumulate_grads(cache, grad_out)
        return grad_out @ self.w.value

    def accumulate_grads(self, cache, grad_out: np.ndarray):
        """The parameter half of ``backward``, for a caller that needs no
        input gradient."""
        x = cache
        if grad_out.shape != (x.shape[0], self.w.value.shape[0]):
            raise ValueError("gradient shape does not match forward output")
        self.w.accumulate(grad_out.T @ x)
        self.b.accumulate(grad_out.sum(axis=0))

    def named_params(self, prefix: str):
        yield f"{prefix}.w", self.w
        yield f"{prefix}.b", self.b


class BatchNorm:
    """Per-channel batch normalization with running statistics for eval mode.

    A train-mode forward leaves the running statistics alone: its cache
    carries the batch mean and variance, which ``update_running_stats``
    folds in."""

    def __init__(self, dim: int, momentum: float = BN_MOMENTUM, eps: float = BN_EPS):
        self.gamma = Param(np.ones(dim))
        self.beta = Param(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum
        self.eps = eps

    def forward(self, x: np.ndarray, train: bool):
        if x.ndim != 2 or x.shape[1] != self.gamma.value.size:
            raise ValueError(f"batchnorm expects (N, {self.gamma.value.size}), got {x.shape}")
        if train:
            if len(x) < 2:
                raise ValueError("training-mode batch norm needs a batch of at least 2")
            mean = x.mean(axis=0)
            centered = x - mean
            var = np.einsum("ij,ij->j", centered, centered) / len(x)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = centered * inv_std
            stats = (mean, var)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = (x - self.running_mean) * inv_std
            stats = None
        out = _check_finite(self.gamma.value * xhat + self.beta.value, "batchnorm output")
        return out, (xhat, inv_std, len(x), stats)

    def update_running_stats(self, cache):
        """Fold a train-mode forward's batch mean and variance into the
        running statistics."""
        mean, var = cache[3]
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std, n, stats = cache
        self.gamma.accumulate(np.einsum("ij,ij->j", grad_out, xhat))
        self.beta.accumulate(grad_out.sum(axis=0))
        g = grad_out * self.gamma.value
        if stats is None:
            return g * inv_std
        sum_g = g.sum(axis=0)
        sum_gx = np.einsum("ij,ij->j", g, xhat)
        return inv_std / n * (n * g - sum_g - xhat * sum_gx)

    def named_params(self, prefix: str):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta

    def named_buffers(self, prefix: str):
        yield f"{prefix}.running_mean", self.running_mean
        yield f"{prefix}.running_var", self.running_var


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient through ``relu`` given its input or, equally, its output:
    both are positive at exactly the same entries."""
    return grad_out * (x > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(grad_out: np.ndarray, y: np.ndarray) -> np.ndarray:
    return grad_out * y * (1.0 - y)


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the maximum for stability."""
    peak = a.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows_backward(grad_out: np.ndarray, y: np.ndarray) -> np.ndarray:
    dot = (grad_out * y).sum(axis=-1, keepdims=True)
    return y * (grad_out - dot)


def fuse_candidates(weights: np.ndarray, cand_pts: np.ndarray,
                    cand_desc: np.ndarray):
    """Per row, the ``weights``-weighted sum (N, K) of its candidates'
    coordinates (N, K, 3) and descriptors (N, K, C).

    One unoptimised einsum per output, with no (N, K, C) temporary. It adds
    the K products left to right, as ``(w[..., None] * cand).sum(axis=1)``
    does, so the two agree bit for bit for C >= 2; at C = 1 einsum drops
    the width axis and sums the K products in another order, and no caller
    fuses fewer than 3 columns. ``optimize`` stays off: the optimised
    contraction goes through BLAS and rounds differently."""
    fused_pts = np.einsum("nk,nkc->nc", weights, cand_pts)
    fused_desc = np.einsum("nk,nkc->nc", weights, cand_desc)
    return fused_pts, fused_desc


def fuse_candidates_backward(weights, cand_pts, cand_desc, g_fused_pts, g_fused_desc):
    """Returns (g_weights, g_cand_pts, g_cand_desc)."""
    g_weights = (cand_pts * g_fused_pts[:, None, :]).sum(-1)
    g_weights += (cand_desc * g_fused_desc[:, None, :]).sum(-1)
    g_cand_pts = weights[..., None] * g_fused_pts[:, None, :]
    g_cand_desc = weights[..., None] * g_fused_desc[:, None, :]
    return g_weights, g_cand_pts, g_cand_desc


def scatter_candidates(out: np.ndarray, cand_idx: np.ndarray,
                       g_cand: np.ndarray) -> np.ndarray:
    """Add per-candidate gradients (N, K, ...) into their target rows of
    ``out``, in place; returns ``out``."""
    np.add.at(out, cand_idx.reshape(-1), g_cand.reshape((-1,) + out.shape[1:]))
    return out


class CBR:
    """Pointwise convolution + batch norm + ReLU, the basic network block.

    The cache keeps the ReLU output for the backward mask, not the
    pre-activation: the output is held anyway as the next layer's input."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.lin = Linear(in_dim, out_dim, rng)
        self.bn = BatchNorm(out_dim)

    def forward(self, x: np.ndarray, train: bool):
        if train:
            z, lin_cache = self.lin.forward(x)
            pre, bn_cache = self.bn.forward(z, train)
            out = relu(pre)
            return out, (lin_cache, bn_cache, out)
        # Eval-mode batch norm is affine, so it folds into the linear map:
        # one product instead of five passes over the (N, out) output. The
        # fold is O(out * in) and redone per call, so it never goes stale.
        self.lin.check_input(x)
        bn = self.bn
        scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
        w = self.lin.w.value * scale[:, None]
        b = (self.lin.b.value - bn.running_mean) * scale + bn.beta.value
        # relu(x @ w.T + b), computed in place in the product's buffer.
        out = x @ w.T
        out += b
        _check_finite(out, "batchnorm output")
        np.maximum(out, 0.0, out=out)
        return out, (x, None, out)

    def update_running_stats(self, cache):
        self.bn.update_running_stats(cache[1])

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        lin_cache, bn_cache, out = cache
        if bn_cache is None:
            # A folded eval-mode forward: rebuild the unfolded caches.
            z, lin_cache = self.lin.forward(lin_cache)
            _, bn_cache = self.bn.forward(z, False)
        g = self.bn.backward(bn_cache, relu_backward(grad_out, out))
        return self.lin.backward(lin_cache, g)

    def named_params(self, prefix: str):
        yield from self.lin.named_params(f"{prefix}.lin")
        yield from self.bn.named_params(f"{prefix}.bn")

    def named_buffers(self, prefix: str):
        yield from self.bn.named_buffers(f"{prefix}.bn")


class CBRStack:
    """A chain of CBR blocks, optionally followed by a linear head."""

    def __init__(self, in_dim: int, widths, head_dim: int | None, rng: np.random.Generator):
        self.blocks = []
        prev = in_dim
        for w in widths:
            self.blocks.append(CBR(prev, w, rng))
            prev = w
        self.head = Linear(prev, head_dim, rng) if head_dim is not None else None

    def forward(self, x: np.ndarray, train: bool):
        caches = []
        for block in self.blocks:
            x, c = block.forward(x, train)
            caches.append(c)
        if self.head is not None:
            x, c = self.head.forward(x)
            caches.append(c)
        return x, caches

    def update_running_stats(self, caches):
        for block, cache in zip(self.blocks, caches):
            block.update_running_stats(cache)

    def backward(self, caches, grad_out: np.ndarray) -> np.ndarray:
        g = grad_out
        idx = len(caches) - 1
        if self.head is not None:
            g = self.head.backward(caches[idx], g)
            idx -= 1
        for block in reversed(self.blocks):
            g = block.backward(caches[idx], g)
            idx -= 1
        return g

    def named_params(self, prefix: str):
        for i, block in enumerate(self.blocks):
            yield from block.named_params(f"{prefix}.block{i}")
        if self.head is not None:
            yield from self.head.named_params(f"{prefix}.head")

    def named_buffers(self, prefix: str):
        for i, block in enumerate(self.blocks):
            yield from block.named_buffers(f"{prefix}.block{i}")


class MLP:
    """Two-layer perceptron with ReLU, optional sigmoid output head."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator, sigmoid_out: bool = False):
        self.lin0 = Linear(in_dim, hidden, rng)
        self.lin1 = Linear(hidden, out_dim, rng)
        self.sigmoid_out = sigmoid_out

    def forward(self, x: np.ndarray):
        pre, c0 = self.lin0.forward(x)
        y, c1 = self.lin1.forward(relu(pre))
        if self.sigmoid_out:
            y = sigmoid(y)
        return y, (c0, c1, y)

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        # lin1's cache is its input, the hidden ReLU output.
        c0, c1, y = cache
        g = grad_out
        if self.sigmoid_out:
            g = sigmoid_backward(g, y)
        g = relu_backward(self.lin1.backward(c1, g), c1)
        return self.lin0.backward(c0, g)

    def named_params(self, prefix: str):
        yield from self.lin0.named_params(f"{prefix}.lin0")
        yield from self.lin1.named_params(f"{prefix}.lin1")


class Adam:
    """Bias-corrected Adam over a fixed name -> Param mapping."""

    def __init__(self, params: dict[str, Param], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if p.value.shape != g.shape:
                raise ValueError(f"gradient shape mismatch for '{name}'")
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_tensors(self) -> dict[str, np.ndarray]:
        out = {"optim.step": np.array([float(self.step_count)])}
        for name in self.params:
            out[f"optim.m.{name}"] = self.m[name].reshape(-1).copy()
            out[f"optim.v.{name}"] = self.v[name].reshape(-1).copy()
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray]):
        self.step_count = int(tensors["optim.step"][0])
        for name, p in self.params.items():
            self.m[name] = tensors[f"optim.m.{name}"].reshape(p.value.shape).copy()
            self.v[name] = tensors[f"optim.v.{name}"].reshape(p.value.shape).copy()


def finite_diff_check(forward_backward, params: dict[str, Param], h: float = 1e-5,
                      max_coords: int | None = None, seed: int = 0,
                      forward_only=None) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``forward_backward`` must zero grads, run the loss forward and backward,
    and return the scalar loss. When ``max_coords`` is given, that many
    coordinates per parameter are probed (seeded choice) instead of all.
    ``forward_only``, if supplied, evaluates the loss without gradients and
    is used for the perturbed probes.

    A ReLU-style kink inside [x-h, x+h] biases the central difference by
    half the slope jump. When the one-sided slopes disagree by more than
    ``KINK_RTOL`` relative plus the noise floor, the probe is repeated with
    a tenfold smaller step, down to ``h * 10**-KINK_SHRINKS``; a coordinate
    still kinked at that floor is skipped. Raises ``ValueError`` when every
    probed coordinate is skipped, because no error was then measured.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    probe = forward_only if forward_only is not None else forward_backward
    loss0 = forward_backward()
    analytic = {k: p.grad.copy() for k, p in params.items()}
    rng = np.random.default_rng(seed)
    worst = 0.0
    probed = skipped = 0
    for name, p in params.items():
        flat = p.value.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for idx in coords:
            a = analytic[name].reshape(-1)[idx]
            orig = flat[idx]
            probed += 1
            # Leaving this loop without a break skips a coordinate that is
            # still kinked at the smallest step.
            for shrink in range(KINK_SHRINKS + 1):
                step = h * 10.0 ** -shrink
                flat[idx] = orig + step
                plus = probe()
                flat[idx] = orig - step
                minus = probe()
                flat[idx] = orig
                numeric = (plus - minus) / (2 * step)
                # Central differences carry ~eps*|loss|/step of cancellation
                # noise; gradients below that scale (dead directions) are
                # indistinguishable from exact.
                noise_atol = 1e3 * np.finfo(np.float64).eps * max(1.0, abs(loss0)) / step
                if abs(a - numeric) <= noise_atol:
                    break
                slope_r = (plus - loss0) / step
                slope_l = (loss0 - minus) / step
                kinked = abs(slope_r - slope_l) > \
                    KINK_RTOL * max(abs(slope_r), abs(slope_l)) + noise_atol
                if not kinked:
                    err = abs(a - numeric) / max(abs(a) + abs(numeric), noise_atol)
                    worst = max(worst, err)
                    break
            else:
                skipped += 1
    forward_backward()  # restore grads for the unperturbed point
    if probed and skipped == probed:
        raise ValueError(f"finite_diff_check skipped all {skipped} probed "
                         "coordinates as kinked; no error was measured")
    return worst
