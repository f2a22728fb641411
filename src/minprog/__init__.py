"""Virtual machines for word transducers and budgeted minimum-program
complexity experiments."""

__version__ = "0.1.0"

from .words import Alphabet, BINARY, pair, unpair, sd, shortlex_index, word_at
from .turing import MachineTM, RunOutcome, run_fueled
from .inductive import MachineITM, ItmOutcome, itm_run
from .codec import encode_machine, decode_machine, InvalidCodeError
from .universal import (
    U_STD,
    make_biased_universal,
    wrap_universal,
    itm_universal_apply,
)
from .complexity import (
    Budget,
    ComplexityVerdict,
    FunctionTable,
    bounded_functional_complexity,
    bounded_kolmogorov,
    bounded_problem_complexity,
    compose_postprocess,
    growth_profile,
    invariance_gap,
    itm1_class,
    tm_class,
)
from .hierarchy import (
    build_diagonal,
    build_range_enumerator,
    build_reduction_tm,
    build_totalizer,
    diagonal_experiment,
    dovetail_nontotal,
    emptiness_solver,
    halting_itm,
    order_lookup,
    totality_verdict,
)
