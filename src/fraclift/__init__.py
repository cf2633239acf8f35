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
    lift_gen,
    lifted_from_json,
    lifted_to_json,
    project,
    shift,
)
from .oracle import compare, rl_oracle
from .parser import parse, to_lifted, to_series
from .rl import rl_kernel_predicate, rl_series, rl_term

KERNEL_BACKEND = "python"

__all__ = [
    # series and lifted sequences
    "GenSeries",
    "LiftedSeq",
    "monomial",
    "series_eval",
    "int_derivative",
    "series_to_json",
    "series_from_json",
    "lifted_to_json",
    "lifted_from_json",
    # the termwise rule and the lifted route
    "rl_series",
    "rl_term",
    "rl_kernel_predicate",
    "lift_gen",
    "shift",
    "project",
    # expressions
    "parse",
    "to_series",
    "to_lifted",
    # the Gamma kernel and the oracle
    "gamma",
    "recip_gamma",
    "gamma_ratio",
    "sinpi",
    "is_pole",
    "rl_oracle",
    "compare",
    # errors
    "FracliftError",
    "BasepointError",
    "EvalDomainError",
    "ExpansionError",
    "ExponentError",
    "GammaOverflowError",
    "GammaPoleError",
    "InputError",
    "LatticeError",
    "OracleError",
    "ParseError",
    "TruncationError",
    "KERNEL_BACKEND",
]

__version__ = "0.1.0"
