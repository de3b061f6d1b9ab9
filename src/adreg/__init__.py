"""Coarse-to-fine rigid point-cloud registration with GMM outlier rejection
and autoregressive diffusion refinement."""

import os

# BLAS stays single-threaded: desk-scale array shapes lose more to BLAS
# thread synchronization than they gain, and one thread per product keeps
# runs reproducible. The parallelism is across the two clouds instead. A
# registration runs the target's preprocessing and backbone in a forked
# child process while the source's run on the calling thread
# (training._front_halves); the GMM fits and everything after them run on
# the calling thread. A training step puts each backbone layer's KNN
# grouping and forward, and the backbone backwards, on two threads
# (nnet.on_both_sides): those are large numpy calls, which release the
# interpreter lock. Its FPS, one small numpy call per picked point, runs on
# the calling thread. Respected only when the caller has not chosen a value.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
