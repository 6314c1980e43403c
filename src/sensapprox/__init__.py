"""Certified L^p approximation by steep piecewise-linear functions.

Given a target function, a finite Borel measure on the real line, an
error budget eps and a steepness threshold M, the pipeline produces a
bounded, almost-everywhere differentiable piecewise-linear approximant
whose derivative exceeds M in absolute value wherever it exists, with
L^p error below eps, plus a machine-checkable certificate.
"""

from .approx import (
    ApproxRequest,
    Certificate,
    NonFiniteMomentError,
    RefinementCapError,
    build_step_approximation,
    certify_error,
    sensitize,
)
from .funcspace import (
    SensitiveApproximant,
    StepFunction,
    TriangleWave,
    build_zigzag,
)
from .measures import BorelMeasure, MeasureSpec
from .norms import NonIntegrableError, NormEstimate, lp_distance, lp_norm, mc_norm, wave_norm_bound
from .parsing import (
    DomainError,
    EvaluationError,
    MeasureSpecError,
    ParseError,
    TargetFunction,
    eval_target,
    eval_target_array,
    parse_measure,
    parse_target,
)

__all__ = [
    "ApproxRequest",
    "BorelMeasure",
    "Certificate",
    "DomainError",
    "EvaluationError",
    "MeasureSpec",
    "MeasureSpecError",
    "NonFiniteMomentError",
    "NonIntegrableError",
    "NormEstimate",
    "ParseError",
    "RefinementCapError",
    "SensitiveApproximant",
    "StepFunction",
    "TargetFunction",
    "TriangleWave",
    "build_step_approximation",
    "build_zigzag",
    "certify_error",
    "eval_target",
    "eval_target_array",
    "lp_distance",
    "lp_norm",
    "mc_norm",
    "parse_measure",
    "parse_target",
    "sensitize",
    "wave_norm_bound",
]

__version__ = "0.1.0"
