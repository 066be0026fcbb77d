"""Bounded stores and byte accounting for long-lived processes.

A serving process outlives every patient it serves, so whatever it keeps
per patient needs a bound and a way to say how big it is.
:class:`LRUStore` is the bound (the worker's patient-model cache and the
front-end's upload store are both one); :func:`reachable_array_bytes` is
the accounting DESIGN.md's "What a patient model holds" table is made
with.
"""

from __future__ import annotations

import gc
import types
from collections import OrderedDict

import numpy as np

from repro.util.errors import ValidationError

#: SuperLU keeps its factors outside numpy's view; a stored nonzero costs
#: a float64 value and an int32 row index.
SUPERLU_BYTES_PER_NNZ = 12


class LRUStore:
    """A mapping bounded to ``capacity`` entries, least recently used out first.

    :meth:`get` touches the entry it finds; :meth:`put` makes its key the
    most recent and evicts from the other end to stay within the bound —
    never the key just put, so whatever is in hand survives its own
    insertion. ``in`` and :meth:`keys` do not touch. ``evictions`` counts
    the entries dropped so far.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        """The entry under ``key`` (touched), or ``None``."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def keys(self) -> list:
        """Resident keys, least recently used first."""
        return list(self._entries)

    def values(self) -> list:
        return list(self._entries.values())

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def reachable_array_bytes(root) -> int:
    """Bytes of array buffers reachable from ``root``, each buffer once.

    Follows what the garbage collector would (containers, instance
    ``__dict__``/``__slots__``, bound methods) plus a function's closure
    — not its globals, and never a property, so nothing is computed by
    looking. A view is charged as the buffer it views (row blocks sliced
    out of a matrix cost nothing extra); a ``SuperLU`` factorization is
    estimated at :data:`SUPERLU_BYTES_PER_NNZ` per stored nonzero.
    """
    from scipy.sparse.linalg import SuperLU

    leaves = (str, bytes, int, float, complex, type, types.ModuleType)
    buffers: dict[int, int] = {}
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, leaves):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            owner = obj
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            buffers[id(owner if owner.base is None else owner.base)] = owner.nbytes
        elif isinstance(obj, SuperLU):
            buffers[id(obj)] = SUPERLU_BYTES_PER_NNZ * int(obj.nnz)
        elif isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return sum(buffers.values())
