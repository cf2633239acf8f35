"""Exception hierarchy. Everything raised on purpose derives from FracliftError."""


class FracliftError(Exception):
    """Base class for all library errors."""


class GammaPoleError(FracliftError):
    """Gamma evaluated at a nonpositive integer, or a ratio whose numerator
    alone sits on a pole (the undefined-coefficient case)."""


class GammaOverflowError(FracliftError):
    """Gamma value exceeds double range (argument above ~171.6)."""


class BasepointError(FracliftError):
    """Operands expanded around different base points."""


class LatticeError(FracliftError):
    """Exponents do not lie on a single lattice {phase + n : n integer}."""


class ExponentError(FracliftError):
    """Exponent, order or Gamma argument outside an operation's domain (a
    non-finite one: the scalar Gamma functions take finite doubles only, or
    a negative-integer exponent with no preimage under projection)."""


class EvalDomainError(FracliftError):
    """Evaluation point outside a series' domain."""


class TruncationError(FracliftError):
    """Truncated series too short for the requested evaluation accuracy."""


class OracleError(FracliftError):
    """Numerical differintegral failed to converge or was asked beyond its
    supported order."""


class ParseError(FracliftError):
    """Syntax or construction error in expression input; carries position."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InputError(FracliftError):
    """Series or lifted-sequence JSON that does not parse, lacks a field or
    holds a value of the wrong type, a non-finite series coefficient, or a
    constructor or evaluation argument that is no finite number."""


class ExpansionError(FracliftError):
    """Expression cannot be expanded into a single-lattice series at the
    requested base point."""
