import dataclasses
import weakref

# adreg comes before numpy: its import sets BLAS to one thread unless the
# caller chose otherwise, and BLAS reads that when numpy loads it. So the
# tests run in the regime the package documents and the benchmark uses,
# and the pinned outputs are that regime's.
import adreg  # noqa: F401
import numpy as np
import pytest


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
