"""The reference ring timers: counter and particle timers built by walking their substrates.

Each constructor builds the timer's whole substrate and hands it, with the
0 / R / 1 attributes, to `ctm.timers.make_timer`, which walks it and runs
every null-constructor check.  `_ring_timer` is frozen verbatim.  The tests
compare `make_counter_timer` and `make_particle_timer`, which compute the
same facts by formula, with these.  The argument checks are left out: only
valid arguments are compared.
"""

from __future__ import annotations

from ctm.core import Attribute, Substrate, cyclic_substrate
from ctm.timers import TimerSpec, make_timer


def reference_counter_timer(bits: int, threshold: int) -> TimerSpec:
    size = 2**bits
    substrate = cyclic_substrate(f"counter{bits}", tuple(range(size)))
    return _ring_timer(f"counter({bits},{threshold})", substrate, threshold)


def reference_particle_timer(cells: int, speed: int, target: int) -> TimerSpec:
    substrate = Substrate(
        f"particle{cells}v{speed}",
        tuple(range(cells)),
        {c: (c + speed) % cells for c in range(cells)},
    )
    return _ring_timer(f"particle({cells},{speed},{target})", substrate, target)


def _ring_timer(name: str, substrate: Substrate, target: int) -> TimerSpec:
    """The timer on states 0..n-1 that starts at 0, runs below target and completes from it on."""
    size = len(substrate.states)
    attr0 = Attribute(substrate, frozenset({0}), name="0")
    attrR = Attribute(substrate, frozenset(range(1, target)), name="R")
    attr1 = Attribute(substrate, frozenset(range(target, size)), name="1")
    return make_timer(name, substrate, attr0, attrR, attr1)
