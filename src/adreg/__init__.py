"""Coarse-to-fine rigid point-cloud registration with GMM outlier rejection
and autoregressive diffusion refinement."""

import os

# BLAS stays single-threaded: desk-scale array shapes lose more to BLAS
# thread synchronization than they gain, and one thread per product keeps
# runs reproducible. The parallelism is across the two clouds instead
# (nnet.on_both_sides), and only for work made of large numpy calls, which
# release the interpreter lock: each cloud's preprocessing, each backbone
# layer's KNN grouping and forward, and a training step's backbone
# backwards. Both clouds' FPS, one small numpy call per picked point, runs
# on the calling thread, as do the GMM fits and everything after them.
# Respected only when the caller has not chosen a value.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
