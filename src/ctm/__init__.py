"""ctm: task-possibility modeling on finite reversible state machines.

Substrates, attributes and tasks; law sets with deductive closure;
operational constructor witnesses; timers and duration classes; and
derivative recovery from timed advance tasks.  Models are declared in the
`.ctm` text format (see ctm.dsl) and driven through the `ctm` CLI.
"""

from .core import (
    Attribute,
    ModelError,
    Substrate,
    Variable,
    compose_substrates,
    cycle_lengths,
    cyclic_substrate,
    evolve,
    first_entry,
    identity_substrate,
    is_static,
    orbit,
    pair_attribute,
    recurrence_period,
    static_horizon,
)
from .tasks import (
    NULL_TASK,
    CompositionUndefined,
    Contradiction,
    Derived,
    LawSet,
    LawStatement,
    NullTask,
    Possibility,
    Task,
    check_consistency,
    deductive_closure,
    impossible,
    parallel_compose,
    possible,
    serial_compose,
)
from .timers import (
    TimerClass,
    TimerSpec,
    check_simultaneous_halt,
    check_staggered_halt,
    check_synchrony,
    classify_timers,
    duration_task,
    make_counter_timer,
    make_particle_timer,
    make_timer,
    recurrence_horizon,
)
from .dynamics import (
    AdvanceCheckFailed,
    DerivativeEstimate,
    TrajectoryModel,
    estimate_derivative,
    incremental_ratio,
)

__version__ = "0.1.0"

# The witness layer runs on no `ctm` command, so it loads on the first read of one of its names.
_WITNESS_NAMES = (
    "ApproximateConstructor",
    "ConstructorWitness",
    "LimitReport",
    "SearchResult",
    "UniformPossibilityResult",
    "VerifyReport",
    "WitnessFamily",
    "accuracy",
    "check_possible_in_limit",
    "reliability",
    "search_impossibility",
    "timer_witness",
    "uniform_possibility",
    "verify_witness",
    "wrap_permutation",
)


def __getattr__(name: str):
    if name not in _WITNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import witnesses

    value = globals()[name] = getattr(witnesses, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    # core
    "Attribute", "ModelError", "Substrate", "Variable", "compose_substrates", "cycle_lengths",
    "cyclic_substrate", "evolve", "first_entry", "identity_substrate", "is_static", "orbit",
    "pair_attribute", "recurrence_period", "static_horizon",
    # tasks
    "NULL_TASK", "CompositionUndefined", "Contradiction", "Derived", "LawSet",
    "LawStatement", "NullTask", "Possibility", "Task", "check_consistency", "deductive_closure",
    "impossible", "parallel_compose", "possible", "serial_compose",
    # timers
    "TimerClass", "TimerSpec", "check_simultaneous_halt", "check_staggered_halt",
    "check_synchrony", "classify_timers", "duration_task", "make_counter_timer",
    "make_particle_timer", "make_timer", "recurrence_horizon",
    # dynamics
    "AdvanceCheckFailed", "DerivativeEstimate", "TrajectoryModel", "estimate_derivative",
    "incremental_ratio",
    # witnesses
    *_WITNESS_NAMES,
]
