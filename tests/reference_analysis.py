"""The reference model analysis: `analyze_model` as it was before it was split into builders.

Frozen verbatim.  The tests compare `ctm.dsl.analyze_model` with it on
seeded models that reach every error branch: each diagnostic's severity,
line, column, message and order, and whether a model was built.
"""

from __future__ import annotations

from ctm.core import Attribute, ModelError, Substrate, Variable, is_static
from ctm.dsl import (
    MAX_COUNTER_BITS,
    MAX_PARTICLE_CELLS,
    BuiltModel,
    CounterTimerDecl,
    Diagnostic,
    ModelDecl,
    ParticleTimerDecl,
    Span,
)
from ctm.dynamics import TrajectoryModel
from ctm.tasks import LawSet, Task, impossible, possible
from ctm.timers import TimerSpec, make_counter_timer, make_particle_timer, make_timer


def analyze_model(decl: ModelDecl) -> tuple[BuiltModel | None, list[Diagnostic]]:
    """Resolve a declaration once: the built model (None on any error) and every diagnostic."""
    diags: list[Diagnostic] = []

    def err(span: Span, message: str, suggestion: str | None = None) -> None:
        diags.append(Diagnostic("error", span[0], span[1], message, suggestion))

    def warn(span: Span, message: str) -> None:
        diags.append(Diagnostic("warning", span[0], span[1], message))

    substrates: dict[str, Substrate] = {}
    for d in decl.substrates.values():
        try:
            substrates[d.name] = Substrate(d.name, d.states, d.step)
        except ModelError as e:
            err(d.span, str(e))

    attributes: dict[str, Attribute] = {}
    for d in decl.attributes.values():
        sub = substrates.get(d.substrate)
        if sub is None:
            err(d.span, f"attribute {d.name!r}: unknown substrate {d.substrate!r}")
            continue
        try:
            attributes[d.name] = Attribute(sub, d.members, name=d.name)
        except ModelError as e:
            err(d.span, str(e))

    timers: dict[str, TimerSpec] = {}
    for d in decl.timers.values():
        try:
            if isinstance(d, CounterTimerDecl):
                if not 1 <= d.bits <= MAX_COUNTER_BITS:
                    raise ModelError(f"bits must be in 1..{MAX_COUNTER_BITS}")
                spec = make_counter_timer(d.bits, d.threshold, name=d.name)
            elif isinstance(d, ParticleTimerDecl):
                if not 2 <= d.cells <= MAX_PARTICLE_CELLS:
                    raise ModelError(f"cells must be in 2..{MAX_PARTICLE_CELLS}")
                spec = make_particle_timer(d.cells, d.speed, d.target, name=d.name)
            else:
                sub = substrates.get(d.substrate)
                if sub is None:
                    raise ModelError(f"unknown substrate {d.substrate!r}")
                parts = {}
                for role, attr_name in (
                    ("start", d.start),
                    ("running", d.running),
                    ("done", d.done),
                    ("halt", d.halt or d.done),
                ):
                    attr = attributes.get(attr_name)
                    if attr is None:
                        raise ModelError(f"unknown attribute {attr_name!r} for {role!r}")
                    if attr.substrate is not sub:
                        raise ModelError(
                            f"attribute {attr_name!r} is not on substrate {d.substrate!r}"
                        )
                    parts[role] = attr
                spec = make_timer(
                    d.name, sub, parts["start"], parts["running"], parts["done"], parts["halt"]
                )
            for w in spec.warnings:
                warn(d.span, f"timer {d.name!r}: {w}")
            timers[d.name] = spec
        except ModelError as e:
            err(d.span, str(e))

    def resolve_pair(span: Span, in_name: str, out_name: str, sub_name: str) -> Task | None:
        sub = substrates.get(sub_name)
        if sub is None:
            err(span, f"unknown substrate {sub_name!r}")
            return None
        pair = []
        for attr_name in (in_name, out_name):
            attr = attributes.get(attr_name)
            if attr is None:
                err(span, f"unknown attribute {attr_name!r}")
                return None
            if attr.substrate is not sub:
                err(span, f"attribute {attr_name!r} is not on substrate {sub_name!r}")
                return None
            pair.append(attr)
        return Task(pair[0], pair[1])

    tasks: dict[str, Task] = {}
    for d in decl.tasks.values():
        t = resolve_pair(d.span, d.input, d.output, d.substrate)
        if t is not None:
            tasks[d.name] = t

    statements = []
    for d in decl.laws:
        if d.task is not None:
            t = tasks.get(d.task)
            if t is None:
                err(d.span, f"unknown task {d.task!r}")
                continue
            if d.substrate is not None and t.substrate.id != d.substrate:
                err(d.span, f"task {d.task!r} is not on substrate {d.substrate!r}")
                continue
        else:
            t = resolve_pair(d.span, d.input, d.output, d.substrate)
            if t is None:
                continue
        statements.append(possible(t) if d.status == "possible" else impossible(t))
    laws = LawSet.of(*statements)

    trajectories: dict[str, TrajectoryModel] = {}
    for d in decl.variables.values():
        sub = substrates.get(d.substrate)
        if sub is None:
            err(d.span, f"variable {d.name!r}: unknown substrate {d.substrate!r}")
            continue
        entries = {}
        readings = {}
        bad = False
        for lam, (attr_name, reading) in d.entries.items():
            attr = attributes.get(attr_name)
            if attr is None:
                err(d.span, f"variable {d.name!r}: unknown attribute {attr_name!r}")
                bad = True
                break
            if attr.substrate is not sub:
                err(d.span, f"variable {d.name!r}: attribute {attr_name!r} is on another substrate")
                bad = True
                break
            entries[lam] = attr
            readings[lam] = reading
        if bad:
            continue
        try:
            variable = Variable(sub, entries)
        except ModelError as e:
            err(d.span, f"variable {d.name!r}: {e}")
            continue
        for lam in variable.domain:
            if is_static(variable.entries[lam]):
                warn(d.span, f"variable {d.name!r}: attribute at λ={lam} is static")
        trajectories[d.name] = TrajectoryModel(variable, readings)

    if any(x.severity == "error" for x in diags):
        return None, diags
    return BuiltModel(substrates, attributes, timers, tasks, laws, trajectories), diags
