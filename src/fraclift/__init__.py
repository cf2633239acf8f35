"""fraclift: fractional derivatives of generalized power series, two ways.

The termwise Riemann-Liouville rule (rl_series) applies Gamma-function
ratios directly and inherits the classical semigroup failures from the
Gamma poles. The lifted route (lift_gen -> shift -> project) turns
differentiation into exact offset arithmetic that commutes unconditionally,
and reproduces the termwise operator wherever the latter is defined.

The Gamma kernel is pure Python (fraclift.gamma); `fraclift.KERNEL_BACKEND`
names it, for reports that record which kernel produced their numbers.

`import fraclift` loads the series layers (coeffseq, gamma, rl, lifted) and
neither the expression front end nor the quadrature oracle: `parse`,
`to_series` and `to_lifted` import fraclift.parser, and `rl_oracle` and
`compare` import fraclift.oracle, on their first read (PEP 562). Nothing it
loads imports json; only reading a JSON document does.
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
from .rl import rl_kernel_predicate, rl_series, rl_term

KERNEL_BACKEND = "python"

# Where each name that a series call never needs is defined: the module
# loads on the first read of one of its names, or of the module itself
_LAZY = {"parse": "parser", "to_series": "parser", "to_lifted": "parser",
         "rl_oracle": "oracle", "compare": "oracle"}


def __getattr__(name):
    # called only for a name the module globals lack; the module's names
    # are stored there, so later reads are plain lookups
    home = name if name in _LAZY.values() else _LAZY.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    import importlib  # loaded by site; without it (python -S), only here

    module = importlib.import_module("." + home, __name__)
    names = globals()
    names[home] = module
    names.update((n, getattr(module, n)) for n, h in _LAZY.items()
                 if h == home)
    # CPython specializes no attribute read on a module whose dict holds
    # __getattr__, so each fraclift.<name> read takes about twice as long
    # while it stays: it leaves once nothing is left to load
    if names.keys() >= _LAZY.keys():
        names.pop("__getattr__", None)
    return names[name]


def __dir__():
    return sorted(set(globals()).union(__all__))


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
