import dataclasses
import os
import threading
import weakref

# adreg comes before numpy: its import sets BLAS to one thread unless the
# caller chose otherwise, and BLAS reads that when numpy loads it. So the
# tests run in the regime the package documents and the benchmark uses,
# and the pinned outputs are that regime's.
import adreg  # noqa: F401
import numpy as np
import pytest

# A fork beside a live thread can hand the child a lock that thread held.
# os.fork calls this hook in the parent just before it forks. It counts the
# process's threads as the kernel does, as Python 3.12's fork warning does.
# That warning cannot fail a test: under an "error" filter os.fork drops the
# exception and forks anyway. So the autouse fixture below fails the test
# that forked, on every Python version.
_FORKS_BESIDE_THREADS = []


def _thread_count() -> int:
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return threading.active_count()


def _before_fork():
    threads = _thread_count()
    if threads > 1:
        _FORKS_BESIDE_THREADS.append(threads)


os.register_at_fork(before=_before_fork)


@pytest.fixture(autouse=True)
def no_fork_beside_threads():
    seen = len(_FORKS_BESIDE_THREADS)
    yield
    assert _FORKS_BESIDE_THREADS[seen:] == [], \
        "forked while the process ran this many threads"


def _reachable_arrays(roots):
    """Every ndarray reachable from ``roots`` through dicts, lists, tuples,
    dataclass fields and array bases, each once."""
    seen, stack, arrays = set(), list(roots), []
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
            if item.base is not None:
                stack.append(item.base)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
    return arrays


@pytest.fixture
def array_weakrefs():
    """``refs(roots, held=())``: weak references to the arrays reachable from
    ``roots`` that are not also reachable from ``held``."""
    def refs(roots, held=()):
        kept = {id(a) for a in _reachable_arrays(held)}
        return [weakref.ref(a) for a in _reachable_arrays(roots) if id(a) not in kept]
    return refs
