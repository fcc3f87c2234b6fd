"""Counter and particle timers in closed form, against the substrate walk they replace.

`make_counter_timer` and `make_particle_timer` compute a ring timer's facts
by formula; `reference_timers` builds the same timer's substrate and lets
`make_timer` walk it.  A ring timer builds its substrate only when it is
read, so no `ctm` command builds one.
"""

import functools
import json
import random

import pytest

from ctm import (
    Substrate,
    check_simultaneous_halt,
    check_staggered_halt,
    make_counter_timer,
    make_particle_timer,
    recurrence_horizon,
)
from ctm.cli import main
from ctm.core import evolve
from reference_timers import reference_counter_timer, reference_particle_timer


def every_ring(max_cells, max_bits):
    """Every valid particle timer up to max_cells cells and counter up to max_bits bits.

    Each comes as (closed-form constructor, reference constructor, arguments, ring size).
    """
    for cells in range(2, max_cells + 1):
        for speed in range(1, cells):
            for target in range(speed, cells, speed):
                yield make_particle_timer, reference_particle_timer, (cells, speed, target), cells
    for bits in range(1, max_bits + 1):
        for threshold in range(1, 2**bits):
            yield make_counter_timer, reference_counter_timer, (bits, threshold), 2**bits


def sampled_rings(seed, count):
    """Seeded ring timers of up to 4,096 cells and 12 bits, with the extreme ones."""
    rng = random.Random(seed)
    rings = [
        (make_particle_timer, reference_particle_timer, (4096, 4095, 4095), 4096),
        (make_particle_timer, reference_particle_timer, (4096, 1, 4095), 4096),
        (make_particle_timer, reference_particle_timer, (4095, 3, 3), 4095),
        (make_counter_timer, reference_counter_timer, (12, 4095), 4096),
        (make_counter_timer, reference_counter_timer, (12, 1), 4096),
    ]
    while len(rings) < count:
        if rng.random() < 0.4:
            bits = rng.randint(9, 12)
            args = (bits, rng.randrange(1, 2**bits))
            rings.append((make_counter_timer, reference_counter_timer, args, 2**bits))
        else:
            cells = rng.randint(65, 4096)
            speed = rng.choice((1, 2, 3, 8, rng.randrange(1, cells)))
            target = speed * rng.randint(1, (cells - 1) // speed)
            args = (cells, speed, target)
            rings.append((make_particle_timer, reference_particle_timer, args, cells))
    return rings


def facts(spec):
    return spec.halts, spec.static_horizon, spec.warnings, recurrence_horizon(spec)


def walked_runs_at(spec, h):
    """Oracle: every start of the walked timer lies in running at step h, by its step map."""
    return all(evolve(spec.substrate, s, h) in spec.attrR.members for s in spec.attr0.members)


@functools.cache
def faster_timers():
    """One closed-form and one walked timer of each duration 1..255.

    check_staggered_halt reads only the faster timer's halt steps, so these
    stand for every other timer of their duration.
    """
    return {d: (make_particle_timer(d + 1, 1, d), reference_particle_timer(d + 1, 1, d))
            for d in range(1, 256)}


def assert_matches_the_walk(make, reference, args, n):
    ring, walked = make(*args), reference(*args)
    assert facts(ring) == facts(walked), args
    for h in range(3 * n + 1):
        assert ring.runs_at(h) == walked_runs_at(walked, h), (args, h)
    faster = faster_timers()
    for d in range(1, min(ring.duration, 256)):
        fast, fast_walked = faster[d]
        expected = walked_runs_at(walked, d)
        # ring and walked timers as the faster and as the slower of a pair
        assert check_staggered_halt(fast_walked, walked) == expected, (args, d)
        assert check_staggered_halt(fast, ring) == expected, (args, d)
        assert check_staggered_halt(fast_walked, ring) == expected, (args, d)
        assert check_staggered_halt(fast, walked) == expected, (args, d)
    if ring.duration in faster:
        same, same_walked = faster[ring.duration]
        assert check_simultaneous_halt(ring, same_walked) and check_simultaneous_halt(walked, same)
    # a ring timer's facts never build its substrate
    assert callable(ring._parts), args


def test_every_small_ring_timer_matches_the_substrate_walk():
    rings = list(every_ring(max_cells=64, max_bits=8))
    assert len(rings) == 7_824 + 502
    for make, reference, args, n in rings:
        assert_matches_the_walk(make, reference, args, n)


@pytest.mark.parametrize("seed", range(2))
def test_sampled_large_ring_timers_match_the_substrate_walk(seed):
    for make, reference, args, n in sampled_rings(seed, 20):
        assert_matches_the_walk(make, reference, args, n)


def test_a_ring_timer_builds_its_structure_once_on_first_read():
    spec = make_particle_timer(12, 3, 6)
    sub, attr0, attrR, attr1, flag = (spec.substrate, spec.attr0, spec.attrR, spec.attr1,
                                      spec.halt_flag)
    walked = reference_particle_timer(12, 3, 6)
    assert (sub.id, sub.states, sub.step) == (walked.substrate.id, walked.substrate.states,
                                              walked.substrate.step)
    for mine, theirs in zip((attr0, attrR, attr1, flag), (walked.attr0, walked.attrR,
                                                         walked.attr1, walked.halt_flag)):
        assert (mine.substrate, mine.members, mine.name) == (sub, theirs.members, theirs.name)
    assert flag is attr1
    again = (spec.substrate, spec.attr0, spec.attrR, spec.attr1, spec.halt_flag)
    assert all(a is b for a, b in zip(again, (sub, attr0, attrR, attr1, flag)))
    given = make_counter_timer(4, 7, substrate=make_counter_timer(4, 5).substrate)
    assert given.substrate.id == "counter4" and given.attr1.substrate is given.substrate


# the command path ----------------------------------------------------------------------


@pytest.fixture
def substrates_built(monkeypatch):
    """The id of every Substrate built while the test runs."""
    built = []
    init = Substrate.__init__

    def counting(self, id, *args, **kwargs):
        built.append(id)
        init(self, id, *args, **kwargs)

    monkeypatch.setattr(Substrate, "__init__", counting)
    return built


def bench_shaped_catalog():
    """Counter and particle timers of 64 to 1,024 states, as the benchmark's catalogs hold."""
    lines = []
    makes = [("counter", 0), ("particle", 1), ("counter", 0), ("particle", 3), ("particle", 5)]
    for i, size in enumerate((512, 1024, 64, 512, 1024, 256, 128, 512, 1024, 1024)):
        kind, speed = makes[i % len(makes)]
        d = (3, 4, 5, 6, 8)[i % 5]
        if kind == "counter":
            lines.append(f"timer counter T{i} {{ bits {size.bit_length() - 1} ; threshold {d} }}")
        else:
            body = f"cells {size} ; speed {speed} ; target {d * speed}"
            lines.append(f"timer particle T{i} {{ {body} }}")
    return "\n".join(lines) + "\n"


def pointer_with_large_timers():
    """A 16-cell pointer whose schedule 4,2,1 runs on 512- and 1,024-state timers."""
    ring = " ".join(f"q{i}" for i in range(16))
    lines = [f"substrate ring {{ states {ring} ; step ({ring}) }}"]
    lines += [f"attribute a{i} on ring {{ q{i} }}" for i in range(16)]
    lines += [
        "timer counter D4 { bits 10 ; threshold 4 }",
        "timer particle D2 { cells 512 ; speed 3 ; target 6 }",
        "timer counter D1 { bits 9 ; threshold 1 }",
    ]
    entries = " ; ".join(f"{i} : a{i} @ {i}.0" for i in range(16))
    lines.append(f"variable pos on ring {{ {entries} }}")
    return "\n".join(lines) + "\n"


def test_commands_build_no_ring_timer_substrate(tmp_path, capsys, models_dir, substrates_built):
    catalog = tmp_path / "catalog.ctm"
    catalog.write_text(bench_shaped_catalog())
    for path in (models_dir / "timers.ctm", catalog):
        for command in ("check", "classify"):
            assert main([command, str(path)]) == 0, (command, path)
    pointer = tmp_path / "pointer.ctm"
    pointer.write_text(pointer_with_large_timers())
    capsys.readouterr()
    assert main(["dynamics", str(pointer), "--variable", "pos", "--schedule", "4,2,1"]) == 0
    assert json.loads(capsys.readouterr().out)["timers_from_model"] is True
    # only the pointer's declared substrate was built
    assert substrates_built == ["ring"]
    # and reading a ring timer's substrate is a construction the fixture counts
    make_counter_timer(9, 3).substrate
    assert substrates_built == ["ring", "counter9"]
