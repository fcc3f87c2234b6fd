"""Operational verification of task possibility.

A constructor witness is a finite device coupled to a substrate through a
joint bijection.  Verification runs the joint evolution from every input
state, watches for the first raise of the halt flag, and checks the output
and the device's return to its ready attribute.  Accuracy, reliability and
possible-in-the-limit checks quantify approximate witnesses.

The witness search decides whether some permutation of the substrate's
states, realized as the canonical two-state witness, maps each input into
its output.  That is a bipartite perfect-matching question (Hall's
theorem), answered with Kuhn's augmenting paths.  A hit is the first
permutation in lexicographic order (by state order).  For a single pair
the decision is a cardinality test (permutation_possible), valid at any
substrate size.  "No witness" speaks for permutation witnesses only; it
does not cover a device whose halt step or final microstate depends on
the input, which verify_witness accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Sequence, Union

from .core import Attribute, ModelError, Substrate, first_entry, make_substrate
from .tasks import Task

MAX_SEARCH_STATES = 6


@dataclass(frozen=True, eq=False)
class ConstructorWitness:
    """A device, its ready and halt attributes, and the joint step it drives.

    The halt flag may live on the device or on the substrate; the report
    records which.  max_steps bounds every simulation, standing in for the
    witness's operating budget.
    """

    device: Substrate
    substrate: Substrate
    ready: Attribute
    halt_flag: Attribute
    joint_step: Mapping[tuple, tuple]
    max_steps: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.device is self.substrate:
            raise ModelError("device and substrate must be distinct instances")
        if self.ready.substrate is not self.device:
            raise ModelError("ready must be an attribute of the device")
        if not self.ready.members:
            raise ModelError("ready attribute must be non-empty")
        if self.halt_flag.substrate is not self.device and self.halt_flag.substrate is not self.substrate:
            raise ModelError("halt flag must be an attribute of the device or of the substrate")
        joint = dict(self.joint_step)
        object.__setattr__(self, "joint_step", joint)
        space = set(product(self.device.states, self.substrate.states))
        if set(joint) != space or set(joint.values()) != space:
            raise ModelError("joint step is not a bijection on device × substrate states")
        if self.max_steps < 0:
            raise ModelError("max_steps must be non-negative")

    @property
    def halt_on(self) -> str:
        return "device" if self.halt_flag.substrate is self.device else "substrate"

    def _flag_raised(self, joint_state: tuple) -> bool:
        dev, sub = joint_state
        probe = dev if self.halt_on == "device" else sub
        return probe in self.halt_flag.members


@dataclass(frozen=True)
class VerifyReport:
    verdict: str  # "performs" | "fails"
    reason: str | None
    failing_run: tuple | None
    halt_steps: Mapping[tuple, int]
    cycle_ok: bool
    halt_on: str

    @property
    def performs(self) -> bool:
        return self.verdict == "performs"


def _ordered(attr: Attribute) -> list:
    order = {s: i for i, s in enumerate(attr.substrate.states)}
    return sorted(attr.members, key=lambda s: order[s])


def verify_witness(w: ConstructorWitness, t: Task) -> VerifyReport:
    """Run the joint evolution and check halt, output, and cycle.

    Performs means: from every (ready, input) start the halt flag is first
    raised at some step <= max_steps, the substrate then lies in the output
    attribute, and the device revisits its ready attribute by max_steps (a
    reversible device cannot freeze at the halt event, so "operates in a
    cycle" is checked as a return to ready at or after the halt).
    """
    if t.substrate is not w.substrate:
        raise ModelError("task is not on this witness's substrate")
    halt_steps: dict[tuple, int] = {}
    for r in _ordered(w.ready):
        for sigma in _ordered(t.input):
            state = (r, sigma)
            halt_at = None
            cycled = False
            for k in range(w.max_steps + 1):
                if halt_at is None and w._flag_raised(state):
                    halt_at = k
                    if state[1] not in t.output.members:
                        return VerifyReport(
                            "fails", "wrong output", (r, sigma), halt_steps, False, w.halt_on
                        )
                if halt_at is not None and state[0] in w.ready.members:
                    cycled = True
                    break
                state = w.joint_step[state]
            if halt_at is None:
                return VerifyReport("fails", "timeout", (r, sigma), halt_steps, False, w.halt_on)
            if not cycled:
                return VerifyReport(
                    "fails", "cycle broken", (r, sigma), halt_steps, False, w.halt_on
                )
            halt_steps[(r, sigma)] = halt_at
    return VerifyReport("performs", None, None, halt_steps, True, w.halt_on)


def _distance(substrate: Substrate, state, members: frozenset) -> float:
    """0 inside the attribute, else forward step-distance normalized by state count.

    A target that the state's cycle never visits gets the maximal value 1.0,
    keeping the measure total and deterministic.
    """
    k = first_entry(substrate, state, members)
    return 1.0 if k is None else k / len(substrate.states)


def accuracy(w: ConstructorWitness, t: Task) -> float | None:
    """Worst-case deviation of the halt-time substrate state from the output.

    None when some run never halts within max_steps: a witness that never
    signals completion has no accuracy, not a bad one.
    """
    if t.substrate is not w.substrate:
        raise ModelError("task is not on this witness's substrate")
    worst = 0.0
    for r in _ordered(w.ready):
        for sigma in _ordered(t.input):
            state = (r, sigma)
            halt_state = None
            for _ in range(w.max_steps + 1):
                if w._flag_raised(state):
                    halt_state = state
                    break
                state = w.joint_step[state]
            if halt_state is None:
                return None
            worst = max(worst, _distance(w.substrate, halt_state[1], t.output.members))
    return worst


DriftFn = Callable[[ConstructorWitness, int], ConstructorWitness]


def _no_drift(base: ConstructorWitness, k: int) -> ConstructorWitness:
    return base


@dataclass(frozen=True, eq=False)
class ApproximateConstructor:
    """A witness plus a deterministic per-reuse deterioration rule.

    drift(base, k) is the witness as of its k-th reuse (k = 0 is the
    pristine device).  The rule must be a pure function; determinism of
    every verdict depends on it.
    """

    base: ConstructorWitness
    drift: DriftFn = _no_drift


def reliability(a: ApproximateConstructor, t: Task, n: int) -> tuple[float | None, ...]:
    """Accuracy after each of n successive reuses."""
    if n < 1:
        raise ModelError("reuse count must be at least 1")
    return tuple(accuracy(a.drift(a.base, k), t) for k in range(n))


WitnessEntry = Union[ConstructorWitness, ApproximateConstructor]


@dataclass(frozen=True, eq=False)
class WitnessFamily:
    """Finite prefix of an indexed sequence of (approximate) witnesses."""

    entries: tuple[tuple[int, WitnessEntry], ...]

    def __post_init__(self) -> None:
        idx = [k for k, _ in self.entries]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ModelError("family indices must be strictly increasing")

    def approximate(self, pos: int) -> ApproximateConstructor:
        entry = self.entries[pos][1]
        if isinstance(entry, ApproximateConstructor):
            return entry
        return ApproximateConstructor(entry)


@dataclass(frozen=True)
class LimitReport:
    established: bool
    accuracies: tuple[float | None, ...]
    reliability_deviation: float | None
    reason: str

    @property
    def verdict(self) -> str:
        return "possible-in-limit" if self.established else "not-established"


def check_possible_in_limit(
    family: WitnessFamily, task: Union[Task, Sequence[Task]], tol: float
) -> LimitReport:
    """Certify convergence of a witness family, never its absence.

    `task` is one Task for every witness, or a sequence of tasks aligned
    with the family's entries.  Established iff the single-use accuracy
    sequence over the prefix is non-increasing with final value < tol, and
    the witness at index k keeps all of its k-reuse accuracies within tol
    of its first use.  A finite prefix cannot witness impossibility, so the
    negative verdict is only "not established".
    """
    if len(family.entries) < 3:
        raise ModelError("family prefix must contain at least 3 witnesses")

    tasks = [task] * len(family.entries) if isinstance(task, Task) else list(task)
    accs: list[float | None] = [
        accuracy(family.approximate(pos).base, tasks[pos]) for pos in range(len(family.entries))
    ]
    if any(a is None for a in accs):
        return LimitReport(False, tuple(accs), None, "some witness never halts")
    pairs = list(zip(accs, accs[1:]))
    if any(b > a for a, b in pairs):
        return LimitReport(False, tuple(accs), None, "accuracy sequence increases")
    if accs[-1] >= tol:
        return LimitReport(False, tuple(accs), None, f"final accuracy {accs[-1]} not below tol")
    worst_dev = 0.0
    for pos, (index, _) in enumerate(family.entries):
        a = family.approximate(pos)
        seq = reliability(a, tasks[pos], max(1, index))
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


def wrap_permutation(substrate: Substrate, action: Mapping, name: str = "") -> ConstructorWitness:
    """Canonical witness applying a substrate permutation once.

    Two-state device: ready {0}, halt flag {1}; the permutation fires on
    the ready-to-halt transition and the device returns to ready one step
    later, so halt is at step 1 and the cycle closes at step 2, within the
    witness's budget of 4 steps.
    """
    device = make_substrate("dev", (0, 1), {0: 1, 1: 0})
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
        name=name or "permutation-witness",
    )


@dataclass(frozen=True)
class SearchResult:
    """Whether some substrate permutation performs the pairs, and if so the first one.

    The search is exact, so found=False means no permutation fits.
    """

    found: bool
    witness: ConstructorWitness | None
    action: Mapping | None


def _check_size(substrate: Substrate) -> None:
    if len(substrate.states) > MAX_SEARCH_STATES:
        raise ModelError(
            f"substrate has {len(substrate.states)} states; the witness search is capped at "
            f"{MAX_SEARCH_STATES}"
        )


def _allowed_images(states: Sequence, pairs: Sequence[Task]) -> dict:
    """Each state's admissible images: the outputs of every pair whose input holds it."""
    allowed = {s: frozenset(states) for s in states}
    for t in pairs:
        for s in t.input.members:
            allowed[s] &= t.output.members
    return allowed


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


def _first_permutation(states: Sequence, allowed: Mapping) -> dict | None:
    """The lexicographically first hit among the permutations of states, or None.

    A hit maps every state into its admissible images.  Each state, in
    state order, takes the first unused image (in state order) that leaves
    the later states matchable; that greedy choice is exactly the
    lexicographically first hit.  There is no hit iff there is no perfect
    matching (Hall's theorem).
    """
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


def permutation_possible(t: Task) -> bool:
    """Does some permutation of the substrate's states map the input into the output?

    Iff |input| <= |output|.  A permutation is injective, so it sends the
    input onto |input| distinct states, all in the output.  Conversely,
    match the input one-to-one into the output and the remaining states
    one-to-one onto the remaining images; the two counts agree.  This is
    Hall's condition for the bipartite graph in which an input state may
    take any output and every other state any state: a set holding a
    non-input state sees every state, and a set of input states sees the
    output, so the whole input is the one set to test.  It decides
    search_impossibility(t).found at any substrate size.
    """
    return len(t.input.members) <= len(t.output.members)


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
    _check_size(substrate)
    states = substrate.states
    action = _first_permutation(states, _allowed_images(states, pairs))
    if action is None:
        return SearchResult(False, None, None)
    return SearchResult(True, wrap_permutation(substrate, action), action)


@dataclass(frozen=True)
class UniformPossibilityResult:
    kind: str  # "uniformly-possible" | "pointwise-only" | "impossible"
    witness: ConstructorWitness | None
    action: Mapping | None
    member_actions: tuple[Mapping | None, ...]


def _member_pairs(member: Substrate, ins, outs) -> tuple[Task, ...]:
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
    _check_size(members[0])
    tasks = [_member_pairs(m, i, o) for m, i, o in zip(members, in_attrs, out_attrs)]
    for m, pairs in zip(members, tasks):
        if any(t.substrate is not m for t in pairs):
            raise ModelError("attributes must live on their own family member")

    states = members[0].states
    every_pair = [t for pairs in tasks for t in pairs]
    action = _first_permutation(states, _allowed_images(states, every_pair))
    if action is not None:
        witness = wrap_permutation(members[0], action, name="uniform-witness")
        return UniformPossibilityResult(
            "uniformly-possible", witness, action, (action,) * len(members)
        )

    member_actions = tuple(search_impossibility(pairs).action for pairs in tasks)
    kind = "pointwise-only" if all(a is not None for a in member_actions) else "impossible"
    return UniformPossibilityResult(kind, None, None, member_actions)
