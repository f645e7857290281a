"""Exact pole-index computation for polynomial singularities.

The engine monomializes a polynomial by iterated origin blow-ups in affine
charts, tracking for every exceptional divisor the vanishing order k of the
pulled-back polynomial and the order h of the Jacobian determinant; the
minimal (h+1)/k over all divisors is the reported pole index. Two
independent cross-checks ship alongside: a Newton-polyhedron oracle (exact)
and a Monte Carlo volume-scaling estimator (stochastic).
"""

from .algebra import (
    GAUSS,
    FieldElement,
    NumberField,
    Polynomial,
)
from .blowup import (
    Auto,
    Chart,
    ChartStatus,
    PoleIndex,
    ResolutionTree,
    TreeNode,
    blowup_origin,
    make_root_chart,
    resolve,
)
from .catalogue import (
    FAMILIES,
    VerifyReport,
    generator,
    paper_claim,
    verify,
    verify_all,
)
from .errors import (
    ChartError,
    FactorizationDestroyedError,
    FieldError,
    FieldMismatchError,
    InternalInconsistencyError,
    LctkitError,
    ParseError,
    ScriptError,
    UnitInputError,
    UnreliableEstimateError,
    VariableMismatchError,
    ZeroDivisorError,
    ZeroPolynomialError,
)
from .estimator import Estimate, EstimatorConfig, estimate
from .newton import NewtonData, lambda_newton, support
from .parser import (
    DEFAULT_VARIABLES,
    SourceSpan,
    format_poly,
    parse_poly,
)
from .zeta import PoleReport, lambda_uncapped

__version__ = "0.1.0"

__all__ = [
    "GAUSS",
    "FieldElement",
    "NumberField",
    "Polynomial",
    "Auto",
    "Chart",
    "ChartStatus",
    "ResolutionTree",
    "TreeNode",
    "blowup_origin",
    "make_root_chart",
    "resolve",
    "FAMILIES",
    "VerifyReport",
    "generator",
    "paper_claim",
    "verify",
    "verify_all",
    "ChartError",
    "FactorizationDestroyedError",
    "FieldError",
    "FieldMismatchError",
    "InternalInconsistencyError",
    "LctkitError",
    "ParseError",
    "ScriptError",
    "UnitInputError",
    "UnreliableEstimateError",
    "VariableMismatchError",
    "ZeroDivisorError",
    "ZeroPolynomialError",
    "Estimate",
    "EstimatorConfig",
    "estimate",
    "NewtonData",
    "lambda_newton",
    "support",
    "DEFAULT_VARIABLES",
    "SourceSpan",
    "format_poly",
    "parse_poly",
    "PoleIndex",
    "PoleReport",
    "lambda_uncapped",
    "__version__",
]
