"""The arrays a forward pass keeps, found the way a tape walk finds them."""

import numpy as np


def tape_buffers(out) -> list:
    """Distinct base arrays of the tensors reachable from `out` through
    `_parents` (a view counts as the array it views)."""
    seen, buffers, stack = set(), {}, [out]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        base = t.data
        while isinstance(base.base, np.ndarray):
            base = base.base
        buffers[id(base)] = base
        stack.extend(t._parents)
    return list(buffers.values())
