"""fraclift: fractional derivatives of generalized power series, two ways.

The termwise Riemann-Liouville rule (rl_series) applies Gamma-function
ratios directly and inherits the classical semigroup failures from the
Gamma poles. The lifted route (lift_gen -> shift -> project) turns
differentiation into exact offset arithmetic that commutes unconditionally,
and reproduces the termwise operator wherever the latter is defined.

The Gamma kernel is pure Python (fraclift.gamma); `fraclift.KERNEL_BACKEND`
names it, for reports that record which kernel produced their numbers.
"""

from .coeffseq import (
    GenSeries,
    int_antiderivative,
    int_derivative,
    monomial,
    series_eval,
    series_from_json,
    series_to_json,
)
from .errors import (
    BasepointError,
    EvalDomainError,
    ExpansionError,
    ExponentError,
    FracliftError,
    GammaOverflowError,
    GammaPoleError,
    InputError,
    LatticeError,
    OracleError,
    ParseError,
    TruncationError,
)
from .gamma import gamma, gamma_ratio, is_pole, recip_gamma, sinpi
from .lifted import (
    LiftedSeq,
    embed,
    lift_gen,
    lifted_from_json,
    lifted_to_json,
    project,
    shift,
)
from .oracle import compare, rl_oracle
from .parser import parse, to_series, to_text
from .rl import rl_kernel_predicate, rl_series, rl_term

KERNEL_BACKEND = "python"

__version__ = "0.1.0"
