"""Discrete oscillation-space toolkit.

Fields on finite grids, weighted oscillation norms over box families,
Muckenhoupt-type weight constants, maximal operators, and per-instance
certificates for the norm comparison suites, with every inequality checked
against constants computed from the same data.
"""

from . import errors
from .config import RunConfig, parse_config
from .lattice import (BaseFamily, BaseSet, GridDomain, Measure, build_base,
                      fsum, read_field_csv, write_field_csv)
from .operators import lp_norm, maximal, rubio_de_francia
from .oscillation import (CenteredDiff, DualHardy, TLSeq, TLSequence,
                          cz_selection, jn_exp_moment, oscillation_norm,
                          sharp_oscillation, tl_equivalence_probe,
                          weighted_median)
from .reports import CertificateReport, Check, ConstantEstimate, make_check
from .verify import (TheoremId, build_majorant, certify, estimate_constant,
                     inputs_digest, run_suite, theorem_from_string)
from .weights import (SelfImprovementParams, Weight, a1_constant, conjugate,
                      doubling_constant, generate_weight,
                      muckenhoupt_constant, power_bump_check, read_weight,
                      reverse_holder_constant, self_improvement, write_weight)

__version__ = "0.1.0"

__all__ = [
    "BaseFamily", "BaseSet", "CenteredDiff", "CertificateReport", "Check",
    "ConstantEstimate", "DualHardy", "GridDomain", "Measure",
    "RunConfig", "SelfImprovementParams", "TLSeq", "TLSequence", "TheoremId",
    "Weight", "a1_constant", "build_base", "build_majorant",
    "certify", "conjugate", "cz_selection", "doubling_constant", "errors",
    "estimate_constant", "fsum", "generate_weight", "inputs_digest",
    "jn_exp_moment", "lp_norm", "make_check", "maximal",
    "muckenhoupt_constant", "oscillation_norm",
    "parse_config", "power_bump_check", "read_field_csv", "read_weight",
    "reverse_holder_constant", "rubio_de_francia", "run_suite",
    "self_improvement", "sharp_oscillation", "theorem_from_string",
    "tl_equivalence_probe", "weighted_median", "write_field_csv",
    "write_weight",
]
