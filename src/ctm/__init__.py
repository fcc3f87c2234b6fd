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
    are_distinguishable,
    clone_substrate,
    compose_substrates,
    cycle_lengths,
    cyclic_substrate,
    evolve,
    first_entry,
    identity_substrate,
    is_static,
    is_static_for_horizon,
    make_substrate,
    orbit,
    pair_attribute,
    recurrence_period,
    static_horizon,
)
from .tasks import (
    NULL_TASK,
    CompositionUndefined,
    ConsistencyReport,
    Contradiction,
    Declared,
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
    premise_chain,
    serial_compose,
)
from .witnesses import (
    ApproximateConstructor,
    ConstructorWitness,
    LimitReport,
    SearchResult,
    UniformPossibilityResult,
    VerifyReport,
    WitnessFamily,
    accuracy,
    check_possible_in_limit,
    reliability,
    search_impossibility,
    uniform_possibility,
    verify_witness,
    wrap_permutation,
)
from .timers import (
    TimerClass,
    TimerSpec,
    check_simultaneous_halt,
    check_staggered_halt,
    check_synchrony,
    classify_timers,
    composite_timer,
    duration_task,
    make_counter_timer,
    make_particle_timer,
    make_timer,
    recurrence_horizon,
    timer_witness,
)
from .dynamics import (
    AdvanceCheckFailed,
    DerivativeEstimate,
    PointerRecovery,
    TrajectoryModel,
    check_timed_advance,
    estimate_derivative,
    incremental_ratio,
    recover_clock_pointer,
)

__version__ = "0.1.0"
