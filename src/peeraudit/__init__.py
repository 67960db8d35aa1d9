"""Peer-group identification from peer-report data, with false-positive
auditing against fixed-margin random null models."""

from ._kernels import BACKEND
from .backbone import BackboneResult, extract_backbone, fit_bicm, poisson_binomial_upper_tail
from .communities import becd_groups, maximize_modularity, modularity
from .experiments import (
    AuditSummary,
    RegressionResult,
    RunRecord,
    audit,
    ols_regression,
    run_profile_audit,
    run_shuffle_audit,
    summarize,
)
from .nullmodels import (
    ClassroomProfile,
    curveball_randomize,
    generate_classroom,
    skewness,
)
from .recall import (
    DataError,
    RecallMatrix,
    drop_never_named,
    load_reports,
    margins,
    parse_reports,
    validate_scm_limits,
)
from .scm import (
    GroupAssignment,
    cooccurrence,
    membership_statistic,
    scm_groups,
    similarity,
    threshold_network,
)

__version__ = "0.1.0"
__all__ = [
    "BACKEND",
    "AuditSummary",
    "BackboneResult",
    "ClassroomProfile",
    "DataError",
    "GroupAssignment",
    "RecallMatrix",
    "RegressionResult",
    "RunRecord",
    "audit",
    "becd_groups",
    "cooccurrence",
    "curveball_randomize",
    "drop_never_named",
    "extract_backbone",
    "fit_bicm",
    "generate_classroom",
    "load_reports",
    "margins",
    "maximize_modularity",
    "membership_statistic",
    "modularity",
    "ols_regression",
    "parse_reports",
    "poisson_binomial_upper_tail",
    "run_profile_audit",
    "run_shuffle_audit",
    "scm_groups",
    "similarity",
    "skewness",
    "summarize",
    "threshold_network",
    "validate_scm_limits",
]
