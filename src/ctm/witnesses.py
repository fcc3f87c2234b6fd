"""Operational verification of task possibility.

A constructor witness is a finite device coupled to a substrate through a
joint bijection, held as one joint substrate on device × substrate states.
Verification reads each run from a (ready, input) state off that joint
system's cycles: the first raise of the halt flag, the output at that
step, and the device's return to its ready attribute.  The step budget
max_steps bounds both the halt step and the return to ready.  Accuracy,
reliability and possible-in-the-limit checks quantify approximate
witnesses.

The witness search decides whether some permutation of the substrate's
states, realized as the canonical two-state witness, maps each input into
its output.  That is a bipartite perfect-matching question (Hall's
theorem), answered with Kuhn's augmenting paths.  A hit is the first
permutation in lexicographic order (by state order).  For a single pair
the decision is a cardinality test (tasks.permutation_possible), valid at
any substrate size.  "No witness" speaks for permutation witnesses only; it
does not cover a device whose halt step or final microstate depends on
the input, which verify_witness accepts.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence, Union

from .core import Attribute, ModelError, Substrate, cycle_lengths, evolve, first_entry
from .tasks import Task, permutation_possible  # the single-pair decision, also read from here

if TYPE_CHECKING:
    from .timers import TimerSpec


class ConstructorWitness:
    """A device, its ready and halt attributes, and the joint step it drives.

    The halt flag may live on the device or on the substrate; the report
    records which.  max_steps bounds a run's halt step and its return to
    ready, standing in for the witness's operating budget.  Equality is
    object identity.
    """

    # joint: the joint step as a substrate; raised and ready_states: its states with the
    # flag raised and with the device ready
    __slots__ = (
        "device", "substrate", "ready", "halt_flag", "max_steps", "joint", "raised",
        "ready_states",
    )

    def __init__(
        self,
        device: Substrate,
        substrate: Substrate,
        ready: Attribute,
        halt_flag: Attribute,
        joint_step: Mapping[tuple, tuple],
        max_steps: int,
    ) -> None:
        if device is substrate:
            raise ModelError("device and substrate must be distinct instances")
        if ready.substrate is not device:
            raise ModelError("ready must be an attribute of the device")
        if not ready.members:
            raise ModelError("ready attribute must be non-empty")
        if halt_flag.substrate is not device and halt_flag.substrate is not substrate:
            raise ModelError("halt flag must be an attribute of the device or of the substrate")
        dev, sub = device.states, substrate.states
        try:
            joint = Substrate(f"{device.id}×{substrate.id}", product(dev, sub), joint_step)
        except ModelError:
            message = "joint step is not a bijection on device × substrate states"
            raise ModelError(message) from None
        if max_steps < 0:
            raise ModelError("max_steps must be non-negative")
        self.device = device
        self.substrate = substrate
        self.ready = ready
        self.halt_flag = halt_flag
        self.max_steps = max_steps
        self.joint = joint
        flag = halt_flag.members
        raised = product(flag, sub) if self.halt_on == "device" else product(dev, flag)
        self.raised = frozenset(raised)
        self.ready_states = frozenset(product(ready.members, sub))

    @property
    def halt_on(self) -> str:
        return "device" if self.halt_flag.substrate is self.device else "substrate"


class VerifyReport(NamedTuple):
    """Why the witness fails the task (None when it performs), and on which run."""

    reason: str | None  # "timeout" | "wrong output" | "cycle broken"
    failing_run: tuple | None
    halt_steps: Mapping[tuple, int]
    halt_on: str

    @property
    def performs(self) -> bool:
        return self.reason is None


def _runs(w: ConstructorWitness, t: Task):
    """The (ready, input) starting states in state order, after checking the task's substrate."""
    if t.substrate is not w.substrate:
        raise ModelError("task is not on this witness's substrate")
    ready = [r for r in w.device.states if r in w.ready.members]
    inputs = [s for s in w.substrate.states if s in t.input.members]
    return product(ready, inputs)


def _halt_step(w: ConstructorWitness, run: tuple) -> int | None:
    """The step of the run's first raise of the halt flag, or None if it comes after max_steps."""
    k = first_entry(w.joint, run, w.raised)
    return None if k is None or k > w.max_steps else k


def verify_witness(w: ConstructorWitness, t: Task) -> VerifyReport:
    """Read each run off the joint cycles and check halt, output, and cycle.

    Performs means: from every (ready, input) start the halt flag is first
    raised at some step k <= max_steps, the substrate then lies in the
    output attribute, and the device revisits its ready attribute at some
    step from k to max_steps (a reversible device cannot freeze at the halt
    event, so "operates in a cycle" is checked as a return to ready at or
    after the halt).  All three are positions on the run's joint cycle.
    """
    halt_steps: dict[tuple, int] = {}

    def fails(reason: str) -> VerifyReport:
        return VerifyReport(reason, run, halt_steps, w.halt_on)

    for run in _runs(w, t):
        k = _halt_step(w, run)
        if k is None:
            return fails("timeout")
        halted = evolve(w.joint, run, k)
        if halted[1] not in t.output.members:
            return fails("wrong output")
        back = first_entry(w.joint, halted, w.ready_states)
        if back is None or k + back > w.max_steps:
            return fails("cycle broken")
        halt_steps[run] = k
    return VerifyReport(None, None, halt_steps, w.halt_on)


def _distance(substrate: Substrate, state, members: frozenset) -> float:
    """0 inside the attribute, else forward step-distance normalized by state count.

    A target that the state's cycle never visits gets the maximal value 1.0,
    keeping the measure total and deterministic.
    """
    k = first_entry(substrate, state, members)
    return 1.0 if k is None else k / len(substrate.states)


def accuracy(w: ConstructorWitness, t: Task) -> float | None:
    """Worst-case deviation of the halt-time substrate state from the output.

    Each run's halt state is read off the joint cycles, as in
    verify_witness.  None when some run does not halt within max_steps: a
    witness that never signals completion has no accuracy, not a bad one.
    """
    worst = 0.0
    for run in _runs(w, t):
        k = _halt_step(w, run)
        if k is None:
            return None
        halted = evolve(w.joint, run, k)
        worst = max(worst, _distance(w.substrate, halted[1], t.output.members))
    return worst


DriftFn = Callable[[ConstructorWitness, int], ConstructorWitness]


def _no_drift(base: ConstructorWitness, k: int) -> ConstructorWitness:
    return base


class ApproximateConstructor:
    """A witness plus a deterministic per-reuse deterioration rule.

    drift(base, k) is the witness as of its k-th reuse (k = 0 is the
    pristine device).  The rule must be a pure function; determinism of
    every verdict depends on it.  Equality is object identity.
    """

    __slots__ = ("base", "drift")

    def __init__(self, base: ConstructorWitness, drift: DriftFn = _no_drift) -> None:
        self.base = base
        self.drift = drift


def reliability(a: ApproximateConstructor, t: Task, n: int) -> tuple[float | None, ...]:
    """Accuracy after each of n successive reuses."""
    if n < 1:
        raise ModelError("reuse count must be at least 1")
    return tuple(accuracy(a.drift(a.base, k), t) for k in range(n))


class WitnessFamily:
    """Finite prefix of an indexed sequence of (approximate) witnesses.

    A plain ``ConstructorWitness`` entry is stored as an
    ``ApproximateConstructor`` that does not drift.  Equality is object
    identity.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[tuple[int, ApproximateConstructor]]) -> None:
        idx = [k for k, _ in entries]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ModelError("family indices must be strictly increasing")
        self.entries = tuple(
            (k, e if isinstance(e, ApproximateConstructor) else ApproximateConstructor(e))
            for k, e in entries
        )


class LimitReport(NamedTuple):
    established: bool
    accuracies: tuple[float | None, ...]
    reliability_deviation: float | None
    reason: str


def check_possible_in_limit(
    family: WitnessFamily, task: Union[Task, Sequence[Task]], tol: float
) -> LimitReport:
    """Certify convergence of a witness family, never its absence.

    `task` is one Task for every witness, or a sequence of tasks aligned
    with the family's entries, one task per entry.  Established iff the single-use accuracy
    sequence over the prefix is non-increasing with final value < tol, and
    the witness at index k keeps all of its k-reuse accuracies within tol
    of its first use.  A finite prefix cannot witness impossibility, so the
    negative verdict is only "not established".
    """
    if len(family.entries) < 3:
        raise ModelError("family prefix must contain at least 3 witnesses")

    tasks = [task] * len(family.entries) if isinstance(task, Task) else list(task)
    if len(tasks) != len(family.entries):
        raise ModelError(
            f"{len(tasks)} tasks for a family prefix of {len(family.entries)} witnesses"
        )
    accs = [accuracy(a.base, t) for (_, a), t in zip(family.entries, tasks)]
    if any(a is None for a in accs):
        return LimitReport(False, tuple(accs), None, "some witness never halts")
    pairs = list(zip(accs, accs[1:]))
    if any(b > a for a, b in pairs):
        return LimitReport(False, tuple(accs), None, "accuracy sequence increases")
    if accs[-1] >= tol:
        return LimitReport(False, tuple(accs), None, f"final accuracy {accs[-1]} not below tol")
    worst_dev = 0.0
    for (index, a), t in zip(family.entries, tasks):
        seq = reliability(a, t, max(1, index))
        if any(v is None for v in seq):
            return LimitReport(False, tuple(accs), None, f"witness {index} stops halting on reuse")
        base = seq[0]
        dev = max(abs(v - base) for v in seq)  # type: ignore[operator]
        worst_dev = max(worst_dev, dev)
        if dev > tol:
            return LimitReport(
                False, tuple(accs), worst_dev, f"witness {index} deteriorates beyond tol"
            )
    return LimitReport(True, tuple(accs), worst_dev, "accuracy and reliability converge")


def _as_pairs(tasks: Union[Task, Sequence[Task]]) -> tuple[Task, ...]:
    if isinstance(tasks, Task):
        return (tasks,)
    out = tuple(tasks)
    if not out:
        raise ModelError("no task pairs given")
    sub = out[0].substrate
    if any(t.substrate is not sub for t in out):
        raise ModelError("all task pairs must live on one substrate")
    return out


def wrap_permutation(substrate: Substrate, action: Mapping) -> ConstructorWitness:
    """Canonical witness applying a substrate permutation once.

    Two-state device: ready {0}, halt flag {1}; the permutation fires on
    the ready-to-halt transition and the device returns to ready one step
    later, so halt is at step 1 and the cycle closes at step 2, within the
    witness's budget of 4 steps.
    """
    device = Substrate("dev", (0, 1), {0: 1, 1: 0})
    joint = {}
    for sigma in substrate.states:
        joint[(0, sigma)] = (1, action[sigma])
        joint[(1, sigma)] = (0, sigma)
    return ConstructorWitness(
        device=device,
        substrate=substrate,
        ready=Attribute(device, frozenset({0}), name="ready"),
        halt_flag=Attribute(device, frozenset({1}), name="halt"),
        joint_step=joint,
        max_steps=4,
    )


def timer_witness(c: TimerSpec) -> ConstructorWitness:
    """The timer as a constructor acting on nothing but itself.

    Trivial one-state device; the timer's own substrate carries the halt
    flag, so verification and accuracy read the timer's halt state
    directly.  The flag rises within the start's cycle or never, so the
    step budget, the longest cycle's length, cuts no run short.
    """
    device = Substrate(f"{c.name}-dev", ("*",), {"*": "*"})
    joint = {("*", s): ("*", c.substrate.step[s]) for s in c.substrate.states}
    return ConstructorWitness(
        device=device,
        substrate=c.substrate,
        ready=Attribute(device, frozenset({"*"}), name="ready"),
        halt_flag=c.halt_flag,
        joint_step=joint,
        max_steps=max(cycle_lengths(c.substrate)),
    )


class SearchResult(NamedTuple):
    """Whether some substrate permutation performs the pairs, and if so the first one.

    The search is exact, so found=False means no permutation fits.
    """

    found: bool
    witness: ConstructorWitness | None
    action: Mapping | None


def _matchable(rows: Sequence, allowed: Mapping, free: set) -> bool:
    """Can each state in rows take a distinct admissible image from free?

    Kuhn's augmenting paths: each row in turn claims an image, displacing
    an earlier owner only if that owner can be rematched elsewhere.
    """
    owner: dict = {}

    def augment(s, seen: set) -> bool:
        for c in allowed[s] & free:
            if c not in seen:
                seen.add(c)
                if c not in owner or augment(owner[c], seen):
                    owner[c] = s
                    return True
        return False

    return all(augment(s, set()) for s in rows)


def _first_permutation(states: Sequence, pairs: Sequence[Task]) -> dict | None:
    """The lexicographically first hit among the permutations of states, or None.

    A hit maps every state into its admissible images: the outputs of every
    pair whose input holds it.  Each state, in state order, takes the first
    unused image (in state order) that leaves the later states matchable;
    that greedy choice is exactly the lexicographically first hit.  There
    is no hit iff there is no perfect matching (Hall's theorem).
    """
    allowed = {s: frozenset(states) for s in states}
    for t in pairs:
        for s in t.input.members:
            allowed[s] &= t.output.members
    free = list(states)
    action = {}
    for i, s in enumerate(states):
        for j, c in enumerate(free):
            if c in allowed[s] and _matchable(states[i + 1 :], allowed, set(free) - {c}):
                break
        else:
            return None
        action[s] = free.pop(j)
    return action


def search_impossibility(tasks: Union[Task, Sequence[Task]]) -> SearchResult:
    """Decide whether some substrate permutation performs the given task pairs.

    That is, whether a permutation of the substrate's states, realized as
    the canonical two-state witness, maps each pair's input into its
    output; a sequence of pairs is read conjunctively.  A hit is the first
    such permutation in lexicographic order.  A negative answer covers
    permutation witnesses only (see the module docstring).
    """
    pairs = _as_pairs(tasks)
    substrate = pairs[0].substrate
    action = _first_permutation(substrate.states, pairs)
    if action is None:
        return SearchResult(False, None, None)
    return SearchResult(True, wrap_permutation(substrate, action), action)


class UniformPossibilityResult(NamedTuple):
    kind: str  # "uniformly-possible" | "pointwise-only" | "impossible"
    witness: ConstructorWitness | None
    action: Mapping | None
    member_actions: tuple[Mapping | None, ...]


def _member_pairs(ins, outs) -> tuple[Task, ...]:
    ins_t = (ins,) if isinstance(ins, Attribute) else tuple(ins)
    outs_t = (outs,) if isinstance(outs, Attribute) else tuple(outs)
    if len(ins_t) != len(outs_t):
        raise ModelError("input and output attribute lists differ in length")
    return tuple(Task(i, o) for i, o in zip(ins_t, outs_t))


def uniform_possibility(
    family: Sequence[Substrate],
    in_attrs: Sequence,
    out_attrs: Sequence,
) -> UniformPossibilityResult:
    """Does one witness serve every family member, or only one per member?

    Family members must share one state-label set (the uninformed
    constructor sees bare states, not which member it was handed).  Each
    member's task may be a single attribute pair or a list of pairs read
    conjunctively; the bit-flip family needs the two-pair form.
    """
    members = list(family)
    if not members:
        raise ModelError("family must be non-empty")
    if len(in_attrs) != len(members) or len(out_attrs) != len(members):
        raise ModelError("per-member attribute lists must match the family length")
    labels = set(members[0].states)
    if any(set(m.states) != labels for m in members):
        raise ModelError("family members must share one state-label set")
    tasks = [_member_pairs(i, o) for i, o in zip(in_attrs, out_attrs)]
    for m, pairs in zip(members, tasks):
        if any(t.substrate is not m for t in pairs):
            raise ModelError("attributes must live on their own family member")

    every_pair = [t for pairs in tasks for t in pairs]
    action = _first_permutation(members[0].states, every_pair)
    if action is not None:
        witness = wrap_permutation(members[0], action)
        return UniformPossibilityResult(
            "uniformly-possible", witness, action, (action,) * len(members)
        )

    member_actions = tuple(_first_permutation(m.states, pairs) for m, pairs in zip(members, tasks))
    kind = "pointwise-only" if all(a is not None for a in member_actions) else "impossible"
    return UniformPossibilityResult(kind, None, None, member_actions)
