"""Minimal dense neural compute: pointwise linear layers, batch normalization,
activations, and Adam, all in float64 with hand-written analytic backwards.
The exception is the eval-mode CBR product and linear head, which run in
the dtype of their operands: float32 in a backbone layer's eval pass.

Layers are stateless between calls: ``forward`` returns ``(output, cache)``
and ``backward(cache, grad_out)`` consumes that cache. A cache serves one
backward; ``CBRStack.backward`` releases each block's activations as soon as
that block's backward has run, so a chain never holds its whole train-mode
forward while the last gradients are built. Only train mode keeps a cache;
an eval-mode forward is inference-only. Two writes touch shared model state:
``Param.accumulate`` adds a parameter gradient (callers zero them) and a
train-mode batch norm folds its batch statistics into its running ones.
Both go through ``_write``, which makes them at once, except on a thread
running one side of ``on_both_sides``: that runs one call per cloud of a
pair on separate threads, as a training step runs its two backbone forwards
and then its two backwards, holds each side's writes in a list, and makes
them in a fixed order after both end.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BN_MOMENTUM = 0.9
BN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# finite_diff_check: one-sided slopes further apart than this (relative)
# mark a kink inside the probe interval; the step then shrinks tenfold, at
# most KINK_SHRINKS times, before the coordinate is skipped.
KINK_RTOL = 1e-4
KINK_SHRINKS = 3

# Train-mode batch norm makes its elementwise passes over blocks of rows
# holding about this many entries each, in place where it owns the array,
# so that the two or three arrays a pass touches stay in a core's L2 cache;
# a whole (16384, 64) float64 activation is 8 MB. Its reductions still run
# over the whole batch, so every size gives the same bits. Train-mode
# forward, in-place ReLU and backward over the nine batch-norm shapes of one
# side's scale-0.25 backbone ((16384, 32|64), (4096, 64|128), (1024,
# 128|256)), median ms of 25 round-robin rounds, two runs on a 2-core Xeon
# with 2 MB of L2 per core ("whole": the batch in one block):
#
#   entries  2**14  2**15  2**16  2**17  2**18  whole
#   run 1      120    118    118    119    132    137
#   run 2      118    112    114    116    124    131
_ROW_BLOCK_ENTRIES = 1 << 16

# Per thread: the list of held writes while the thread runs one side of
# ``on_both_sides``, else None.
_LOCAL = threading.local()


def _write(fn, *args):
    """Make a write to shared model state, ``fn(*args)``: at once, or, while
    the calling thread runs one side of ``on_both_sides``, by appending it
    to that side's list."""
    held = getattr(_LOCAL, "held", None)
    if held is None:
        fn(*args)
    else:
        held.append((fn, args))


class Param:
    """A trainable tensor and its accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0

    def accumulate(self, g: np.ndarray):
        """``self.grad += g``, through ``_write``; a held write keeps ``g``
        itself, so the caller must not change it afterwards."""
        _write(np.add, self.grad, g, self.grad)


def on_both_sides(fn, src_args: tuple, tgt_args: tuple):
    """``(fn(*src_args), fn(*tgt_args))``, the target's call running on a
    worker thread started for this call while the source's runs on the
    calling thread; the worker has ended when this returns or raises.

    Each call holds its writes to shared model state (``_write``) in a list
    of its own, so neither writes a gradient or running statistic while the
    other runs. After both end, the source's list is replayed in order, then
    the target's: every write comes out as two sequential calls would make
    it. An exception on either side re-raises here after both calls have
    ended, and neither list is replayed. The calls must share no other
    state that either writes, and must not call ``on_both_sides``
    themselves. BLAS stays single-threaded, so this is training's one source
    of parallelism; it pays only where both calls spend most of their time
    in a few large numpy calls that release the interpreter lock (products,
    gathers, sorts), because a thread running many small numpy calls mostly
    waits for that lock. Registration writes no shared state, so it runs
    its target side in a forked process instead, which shares no lock
    (``training.register_pair``).

    A training step makes two calls, its backbone forwards and then its
    backbone backwards, so it starts two threads. Keep it that few: a
    thread ends while the caller goes on, and when the next starts before
    the last has released its malloc arena, glibc opens another arena, and
    what the old one keeps stays resident. With a thread per backbone
    layer, the desk-scale training benchmark's peak RSS rose from about 340
    to 400-454 MB in 4 of 16 runs beside other busy processes on a 2-core
    machine (a third arena showed in glibc's ``malloc_stats``); with one
    thread for a step's forwards, in none of 12.
    """
    def held(args):
        _LOCAL.held = []
        try:
            return fn(*args), _LOCAL.held
        finally:
            _LOCAL.held = None

    with ThreadPoolExecutor(max_workers=1) as worker:
        tgt_future = worker.submit(held, tgt_args)
        src_result, src_writes = held(src_args)
    tgt_result, tgt_writes = tgt_future.result()
    for write, args in src_writes + tgt_writes:
        write(*args)
    return src_result, tgt_result


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    # One scalar reduction; NaN/inf propagate through the sum.
    if not np.isfinite(arr.sum()):
        raise FloatingPointError(f"non-finite values in {what}")
    return arr


def _block_rows(width: int) -> int:
    """Rows per block of an elementwise pass over an (N, width) array."""
    return max(1, _ROW_BLOCK_ENTRIES // max(width, 1))


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


class Linear:
    """Shared per-row affine map: y = x @ W.T + b (a 1x1 convolution over points).

    The forward runs in the input's dtype: float64, or float32 as the head
    of a backbone layer's eval-mode detector stack."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = Param(glorot_uniform(rng, out_dim, in_dim))
        self.b = Param(np.zeros(out_dim))

    def check_input(self, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != self.w.value.shape[1]:
            raise ValueError(f"linear expects (N, {self.w.value.shape[1]}), got {x.shape}")

    def forward(self, x: np.ndarray):
        self.check_input(x)
        out = x @ self.w.value.T.astype(x.dtype, copy=False)
        out += self.b.value
        return _check_finite(out, "linear output"), x

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

    A train-mode forward folds its batch mean and variance into the running
    statistics through ``fold_stats``, a write to shared model state
    (``_write``) that ``on_both_sides`` holds until both its sides end. An
    eval-mode forward returns no cache.

    In train mode the reductions (mean, variance, the gamma and beta
    gradients and the backward's two channel sums) run over the whole batch;
    the elementwise passes run in row blocks of ``_ROW_BLOCK_ENTRIES``
    entries, in place in arrays the layer made: the forward normalizes in
    its centered copy of the input and scales, shifts and checks into the
    output, and the backward finishes the input gradient in its own
    ``grad_out * gamma`` array. Neither writes into its input or
    ``grad_out``, and the results are bit for bit those of the whole-array
    expressions."""

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
        if not train:
            xhat = (x - self.running_mean) * (1.0 / np.sqrt(self.running_var + self.eps))
            return _check_finite(self.gamma.value * xhat + self.beta.value,
                                 "batchnorm output"), None
        if len(x) < 2:
            raise ValueError("training-mode batch norm needs a batch of at least 2")
        mean = x.mean(axis=0)
        xhat = x - mean
        var = np.einsum("ij,ij->j", xhat, xhat) / len(x)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        out = np.empty_like(xhat)
        rows = _block_rows(xhat.shape[1])
        for start in range(0, len(xhat), rows):
            xb, ob = xhat[start:start + rows], out[start:start + rows]
            xb *= inv_std
            np.multiply(self.gamma.value, xb, out=ob)
            ob += self.beta.value
            _check_finite(ob, "batchnorm output")
        _write(self.fold_stats, mean, var)
        return out, (xhat, inv_std, len(x))

    def fold_stats(self, mean: np.ndarray, var: np.ndarray):
        """Fold a batch's mean and variance into the running statistics."""
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std, n = cache
        self.gamma.accumulate(np.einsum("ij,ij->j", grad_out, xhat))
        self.beta.accumulate(grad_out.sum(axis=0))
        g = grad_out * self.gamma.value
        sum_g = g.sum(axis=0)
        sum_gx = np.einsum("ij,ij->j", g, xhat)
        # inv_std / n * (n * g - sum_g - xhat * sum_gx), a block at a time
        # in g's own rows.
        scale = inv_std / n
        rows = _block_rows(g.shape[1])
        scratch = np.empty((min(rows, n), g.shape[1]))
        for start in range(0, n, rows):
            gb = g[start:start + rows]
            sb = np.multiply(xhat[start:start + rows], sum_gx, out=scratch[:len(gb)])
            gb *= n
            gb -= sum_g
            gb -= sb
            gb *= scale
        return g

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

    ``forward`` is train mode only (eval mode runs ``fold`` in ``CBRStack``):
    it goes through ``lin.forward``/``lin.backward`` and
    ``bn.forward``/``bn.backward``, and applies the ReLU in place on the
    batch norm's output, which no one else holds; its input is not written.
    The cache keeps the ReLU output for the backward mask, not the
    pre-activation: the output is held anyway as the next layer's input."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.lin = Linear(in_dim, out_dim, rng)
        self.bn = BatchNorm(out_dim)

    def forward(self, x: np.ndarray):
        z, lin_cache = self.lin.forward(x)
        out, bn_cache = self.bn.forward(z, train=True)
        np.maximum(out, 0.0, out=out)
        return out, (lin_cache, bn_cache, out)

    def fold(self) -> tuple[np.ndarray, np.ndarray]:
        """The eval-mode block as the product's operands ``(w_t, b)``: its
        output is ``relu(x @ w_t + b)``, with ``w_t`` the transposed view of
        the linear weights scaled by the batch norm's per-channel gain.
        Eval-mode batch norm is affine, so it folds into the linear map: one
        product instead of five passes over the (N, out) output. It is
        computed from the current parameters and running statistics;
        an eval ``CBRStack.forward`` redoes it on every call, and a backbone
        layer's eval pass once per layer call (``DetectorDescriptorLayer.fold``
        casts it to float32), so it never goes stale."""
        bn = self.bn
        scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
        return ((self.lin.w.value * scale[:, None]).T,
                (self.lin.b.value - bn.running_mean) * scale + bn.beta.value)

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        lin_cache, bn_cache, out = cache
        g = self.bn.backward(bn_cache, relu_backward(grad_out, out))
        return self.lin.backward(lin_cache, g)

    def named_params(self, prefix: str):
        yield from self.lin.named_params(f"{prefix}.lin")
        yield from self.bn.named_params(f"{prefix}.bn")

    def named_buffers(self, prefix: str):
        yield from self.bn.named_buffers(f"{prefix}.bn")


def _scaled_cbrs(x: np.ndarray, scaled, checked: bool = True) -> np.ndarray:
    """``x`` through eval-mode CBR blocks given by their ``CBR.fold``
    pairs: ``relu(x @ w_t + b)`` per block, computed in place in the
    product's buffer, so ``x`` itself is not written. ``checked=False`` skips the
    finiteness checks, for a caller that has shown with
    ``folds_stay_finite`` that they cannot fire."""
    for w_t, b in scaled:
        x = x @ w_t
        x += b
        if checked:
            _check_finite(x, "batchnorm output")
        np.maximum(x, 0.0, out=x)
    return x


def gathered_cbr(table: np.ndarray, groups: np.ndarray, term: np.ndarray,
                 checked: bool = True) -> np.ndarray:
    """An eval-mode CBR block on group-member rows whose pre-activation is
    the sum of a per-member and a per-group part: ``relu(table[groups[i,
    j]] + term[i])`` for group i and member j, as (groups.size, width) rows
    in group order. ``table`` holds the block's product for each input row
    and ``term`` each group's bias and offset, so the product runs once per
    input row, not once per member. Computed in place in the gathered
    buffer; ``checked`` is ``_scaled_cbrs``'s."""
    x = np.take(table, groups, axis=0)
    x += term[:, None, :]
    x = x.reshape(groups.size, table.shape[1])
    if checked:
        _check_finite(x, "batchnorm output")
    np.maximum(x, 0.0, out=x)
    return x


def folds_stay_finite(scaled, bound: float, rows: int) -> bool:
    """Whether ``_scaled_cbrs`` over ``scaled``, ``CBR.fold`` pairs, on any
    ``rows`` input rows whose entries are at most ``bound`` in magnitude,
    makes only finite outputs with finite sums, so that its finiteness
    checks cannot fire. The limits come from the dtype of the
    pairs, which the products run in. A block's outputs are at most bound *
    max_j sum_k |w_t[k, j]| + max |b| in exact arithmetic, and the ReLU
    keeps that bound; doubling it per block covers the rounding of the
    product, the bias and this estimate, and the sums of rows * width such
    entries must stay below a sixteenth of the power of two just past the
    dtype's largest value: 2**1020 in float64, 2**124 in float32. A
    ``bound`` above that largest value, which input rows cast to the dtype
    may not keep finite, or a non-finite ``bound``, gives False."""
    info = np.finfo(np.result_type(*(a for pair in scaled for a in pair))
                    if scaled else np.float64)
    if not bound <= float(info.max):
        return False
    limit = 2.0 ** (info.maxexp - 4)
    for w_t, b in scaled:
        with np.errstate(over="ignore"):
            gain = float(np.abs(w_t).sum(axis=0).max())
        bound = 2.0 * (bound * gain + float(np.abs(b).max()))
        if not rows * len(b) * bound < limit:
            return False
    return True


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
        if not train:
            return self.forward_folded(x, self.fold()), None
        caches = []
        for block in self.blocks:
            x, c = block.forward(x)
            caches.append(c)
        if self.head is not None:
            x, c = self.head.forward(x)
            caches.append(c)
        return x, caches

    def fold(self) -> list:
        """Each block's eval-mode ``CBR.fold``."""
        return [block.fold() for block in self.blocks]

    def forward_folded(self, x: np.ndarray, scaled: list,
                       checked: bool = True) -> np.ndarray:
        """The eval-mode output for ``x``, given ``self.fold()`` (or those
        pairs cast to another dtype): a caller that runs many row blocks
        folds once for all of them. ``scaled`` may also be a tail of that
        list, for an ``x`` that is the input of its first block, when the
        caller has run the blocks before it another way. ``checked`` is
        ``_scaled_cbrs``'s; the head always checks."""
        first = len(self.blocks) - len(scaled)
        if first < len(self.blocks):
            self.blocks[first].lin.check_input(x)
        x = _scaled_cbrs(x, scaled, checked)
        if self.head is not None:
            x, _ = self.head.forward(x)
        return x

    def backward(self, caches: list, grad_out: np.ndarray) -> np.ndarray:
        """The input gradient, from the list ``forward`` returned. It serves
        one backward: each entry (the head's, then each block's) is set to
        None once its backward has returned, which frees those activations
        unless the caller holds them elsewhere."""
        g = grad_out
        modules = self.blocks + ([self.head] if self.head is not None else [])
        for idx in reversed(range(len(modules))):
            g = modules[idx].backward(caches[idx], g)
            caches[idx] = None
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
    """Two-layer perceptron with a ReLU hidden layer and one sigmoid scalar
    per row: ``forward`` maps (N, in_dim) to (N,)."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        self.lin0 = Linear(in_dim, hidden, rng)
        self.lin1 = Linear(hidden, 1, rng)

    def forward(self, x: np.ndarray):
        pre, c0 = self.lin0.forward(x)
        logits, c1 = self.lin1.forward(relu(pre))
        y = sigmoid(logits.reshape(-1))
        return y, (c0, c1, y)

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        # lin1's cache is its input, the hidden ReLU output.
        c0, c1, y = cache
        g = sigmoid_backward(grad_out, y).reshape(-1, 1)
        g = relu_backward(self.lin1.backward(c1, g), c1)
        return self.lin0.backward(c0, g)

    def named_params(self, prefix: str):
        yield from self.lin0.named_params(f"{prefix}.lin0")
        yield from self.lin1.named_params(f"{prefix}.lin1")

    def named_buffers(self, prefix: str):
        return iter(())


class Adam:
    """Bias-corrected Adam over a fixed name -> Param mapping, with the
    ``ADAM_*`` decays and epsilon. Its moments live only as long as it does:
    a checkpoint holds the model alone."""

    def __init__(self, params: dict[str, Param], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if p.value.shape != g.shape:
                raise ValueError(f"gradient shape mismatch for '{name}'")
            self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
