"""Fixed pure-Python kernels that gauge how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts by half or more
over minutes.  It times a kernel next to every measurement and reports
each time scaled to the speed at which that kernel takes REFERENCE_MS, so
a drift that slows the kernel and the program alike cancels out.  Work of
different kinds drifts by different amounts, so each workload names the
kernel closest to the work its dominant layer does:

* "objects" hashes and compares objects through Python methods, builds
  small frozensets, fills dicts and splits strings, like parsing,
  analysis, closure and witness search;
* "walk" steps through a dict-encoded permutation in a tight loop, like
  the timer simulations.

The garbage collector is paused while a kernel runs, so leftovers from
the program under test cannot bill it.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_MS = 2.0


class _Key:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __eq__(self, other) -> bool:
        return self.a == other.a and self.b == other.b


def _objects() -> int:
    table = {}
    for i in range(1000):
        table[_Key(i, i & 7)] = frozenset((i, i + 1))
    total = 0
    for key, members in table.items():
        if key.b in members or _Key(key.a, key.b) in table:
            total += key.a
    return total + len(" ".join(map(str, range(600))).split())


_STEP = {i: (i + 1) % 512 for i in range(512)}


def _walk() -> int:
    x = y = apart = 0
    for _ in range(20000):
        x, y = _STEP[x], _STEP[y]
        if x != y:
            apart += 1
    return apart


KERNELS = {"objects": _objects, "walk": _walk}


def reference_seconds(kernel: str) -> float:
    """Wall time of one run of the named kernel."""
    fn = KERNELS[kernel]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        fn()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
