"""Exception taxonomy shared by every module.

The CLI maps these onto its exit-code contract, so new error conditions
should reuse an existing class (or subclass one) rather than raising bare
ValueError.
"""

from __future__ import annotations


class LctkitError(Exception):
    """Base class for every error raised by this package."""


class FieldError(LctkitError):
    """Invalid number-field construction: a modulus that is non-monic, not
    of degree 1-3 (the degrees where irreducibility is proved), not
    squarefree, or has a rational root."""


class FieldMismatchError(LctkitError):
    """Two values from different number fields were combined."""


class VariableMismatchError(LctkitError):
    """Two polynomials over different variable tuples were combined."""


class ZeroDivisorError(LctkitError):
    """Division by zero. Every accepted modulus is irreducible, so zero is
    the only element without an inverse."""


class ZeroPolynomialError(LctkitError):
    """An operation that needs a nonzero polynomial received zero."""


class UnitInputError(LctkitError):
    """The input polynomial does not vanish at the origin."""


class ParseError(LctkitError):
    """Syntax error in a polynomial expression or script.

    Carries the SourceSpan of the offending token so callers can point at
    the exact position in the input text.
    """

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.message = message
        self.span = span


class ScriptError(ParseError):
    """A resolution script is malformed or invalid for the current chart."""


class ChartError(LctkitError):
    """A blow-up, substitution, or translation violated a precondition."""


class FactorizationDestroyedError(LctkitError):
    """A substitution broke the exceptional monomial factorization.

    After any coordinate change the strict transform must still have content
    zero in every exceptional variable; this error means the recorded
    k-exponents would no longer describe the total transform.
    """


class InternalInconsistencyError(LctkitError):
    """Two independent computations of the same quantity disagreed."""


class UnreliableEstimateError(LctkitError):
    """The Monte Carlo estimate has too little usable data.

    The partial estimate (whatever could be computed) is attached so the
    CLI can still print it under --json.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.message = message
        self.partial = partial
