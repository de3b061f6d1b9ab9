"""Coarse-to-fine rigid point-cloud registration with GMM outlier rejection
and autoregressive diffusion refinement."""

import os

# BLAS stays single-threaded: desk-scale array shapes lose more to BLAS
# thread synchronization than they gain, and one thread per product keeps
# runs reproducible. The parallelism is across the two clouds instead
# (training.on_both_sides): register_pair runs each cloud's front half on
# its own thread, and a training step each cloud's backbone forward and
# backward. Respected only when the caller has not chosen a value.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
