"""Monte Carlo audits of peer-group pipelines.

Runs a chosen pipeline (SCM variant or backbone+communities) against a
benchmark classroom, against fixed-margin shuffles of it, or against
fully synthetic classrooms, recording the membership proportion P per
trial along with classroom characteristics (generator targets plus
realized skews). Also fits the summary regression of P on those
characteristics.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from . import communities, nullmodels, scm
from .recall import RecallMatrix, drop_never_named

METHODS = ("scm-fifty", "scm-profile", "scm-components", "becd")

RECORD_FIELDS = (
    "trial",
    "method",
    "source",
    "n_children",
    "n_reports",
    "nomination_probability",
    "nomination_skew",
    "group_size_skew",
    "realized_nomination_skew",
    "realized_group_size_skew",
    "p_stat",
)


@dataclass(frozen=True)
class RunRecord:
    """One Monte Carlo trial: its classroom characteristics and its P.

    The five characteristic fields are the generator profile for
    synthetic classrooms, or measured values for shuffled ones. The
    realized skews of a synthetic classroom are measured from the matrix
    generated; those of a shuffle are measured once from the input, since
    a curveball keeps every row and column sum.
    """

    trial: int
    method: str
    source: str  # "shuffle" or "generate" (or "benchmark")
    n_children: int
    n_reports: int
    nomination_probability: float
    nomination_skew: float
    group_size_skew: float
    realized_nomination_skew: float
    realized_group_size_skew: float
    p_stat: float


@dataclass(frozen=True)
class AuditSummary:
    n_trials: int
    frac_positive: float
    mean_p: float
    sd_p: float
    min_p: float
    max_p: float


@dataclass(frozen=True)
class RegressionResult:
    predictors: tuple[str, ...]
    intercept: float
    b: tuple[float, ...]
    se: tuple[float, ...]
    beta: tuple[float, ...]
    r_squared: float


def run_pipeline(
    rm: RecallMatrix,
    method: str,
    threshold: float = scm.DEFAULT_THRESHOLD,
    alpha: float = 0.05,
    seed=None,
) -> tuple[scm.GroupAssignment, float]:
    """End-to-end run of one pipeline; returns (groups, P).

    Children who were never named in any report are excluded from the
    analysis (and from P's denominator), mirroring standard practice.
    """
    rm, _ = drop_never_named(rm)
    if method == "becd":
        _, _, assignment = communities.becd_groups(rm, alpha=alpha, seed=seed)
    elif method.startswith("scm-"):
        _, assignment = scm.scm_groups(rm, threshold=threshold, rule=method[4:])
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return assignment, scm.membership_statistic(assignment, rm.n_children)


def _safe_skew(x) -> float:
    try:
        return nullmodels.skewness(x)
    except ValueError:
        return 0.0


def _record(
    trial,
    method,
    source,
    rm: RecallMatrix,
    p_stat,
    profile: nullmodels.ClassroomProfile | None = None,
) -> RunRecord:
    rows = rm.entries.sum(axis=1)
    cols = rm.entries.sum(axis=0)
    return RunRecord(
        trial=trial,
        method=method,
        source=source,
        n_children=rm.n_children,
        n_reports=rm.n_reports,
        nomination_probability=(
            profile.nomination_probability
            if profile
            else float(cols.mean() / rm.n_children)
        ),
        nomination_skew=(
            profile.nomination_skew if profile else _safe_skew(rows)
        ),
        group_size_skew=(
            profile.group_size_skew if profile else _safe_skew(cols)
        ),
        realized_nomination_skew=_safe_skew(rows),
        realized_group_size_skew=_safe_skew(cols),
        p_stat=p_stat,
    )


def _run_trials(worker, n_trials: int, seed: int) -> list[RunRecord]:
    """``worker(t)`` for every trial t, whose seed is ``seed + t``.

    An exception from a trial keeps its class, so callers and the CLI exit
    code still see what went wrong, and its message gains the trial index
    and seed, enough to replay that one classroom.
    """
    records = []
    for trial in range(n_trials):
        try:
            records.append(worker(trial))
        except Exception as exc:
            exc.args = (f"trial {trial} (seed {seed + trial}): {exc}",)
            raise
    return records


def run_shuffle_audit(
    rm: RecallMatrix,
    method: str,
    n_trials: int,
    seed: int = 0,
    threshold: float = scm.DEFAULT_THRESHOLD,
    alpha: float = 0.05,
) -> tuple[list[RunRecord], AuditSummary]:
    """Fixed-margin shuffles of ``rm``, one pipeline run each; trial t
    uses seed ``seed + t``."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    # a curveball keeps every row and column sum, so every trial has the
    # margin fields of ``rm``; each trial sets only its index and its P
    template = _record(0, method, "shuffle", rm, float("nan"))

    def worker(trial: int) -> RunRecord:
        trial_seed = seed + trial
        shuffled = nullmodels.curveball_randomize(rm, seed=trial_seed)
        _, p_stat = run_pipeline(
            shuffled, method, threshold=threshold, alpha=alpha, seed=trial_seed
        )
        return replace(template, trial=trial, p_stat=p_stat)

    records = _run_trials(worker, n_trials, seed)
    return records, summarize(records)


def run_profile_audit(
    method: str,
    n_trials: int,
    seed: int = 0,
    threshold: float = scm.DEFAULT_THRESHOLD,
    alpha: float = 0.05,
) -> tuple[list[RunRecord], AuditSummary, int]:
    """Synthetic classrooms with profiles drawn uniformly within the
    default bounds of ``nullmodels.sample_profile``.

    Returns (records, summary, number of infeasible profiles resampled).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    resampled = 0

    def worker(trial: int) -> RunRecord:
        nonlocal resampled
        profile, rm, n_resampled = nullmodels.draw_classroom(
            np.random.default_rng(seed + trial)
        )
        resampled += n_resampled
        _, p_stat = run_pipeline(
            rm, method, threshold=threshold, alpha=alpha, seed=seed + trial
        )
        return _record(trial, method, "generate", rm, p_stat, profile=profile)

    records = _run_trials(worker, n_trials, seed)
    return records, summarize(records), resampled


def summarize(records: list[RunRecord]) -> AuditSummary:
    if not records:
        raise ValueError("no records to summarize")
    # sorting makes the floating-point reductions permutation-invariant
    p = np.sort([r.p_stat for r in records])
    return AuditSummary(
        n_trials=len(records),
        frac_positive=float((p > 0).mean()),
        mean_p=float(p.mean()),
        sd_p=float(p.std(ddof=1)) if len(records) > 1 else 0.0,
        min_p=float(p.min()),
        max_p=float(p.max()),
    )


HISTOGRAM_BINS = 20


def histogram_counts(records: list[RunRecord]) -> list[tuple[float, float, int]]:
    """Bin counts of P on ``HISTOGRAM_BINS`` equal bins of [0, 1]; the top
    bin is closed at 1."""
    p = np.array([r.p_stat for r in records])
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(p, bins=edges)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(HISTOGRAM_BINS)
    ]


MIN_REGRESSION_RECORDS = 10

PREDICTORS = (
    "n_children",
    "n_reports",
    "nomination_probability",
    "nomination_skew",
    "group_size_skew",
)


def ols_regression(records: list[RunRecord]) -> RegressionResult:
    """OLS of P on the five classroom characteristics.

    For synthetic classrooms the predictors are the generator profile
    parameters (the quantities actually varied across trials); realized
    skews are kept in the records for auditing but are noisy, endogenous
    proxies and are not regressed on. Standardized coefficients come from
    z-scored predictors and outcome. No p-values: the inputs are simulated.
    """
    if len(records) < MIN_REGRESSION_RECORDS:
        raise ValueError(f"need at least {MIN_REGRESSION_RECORDS} records for the regression")
    x = np.array([[getattr(r, name) for name in PREDICTORS] for r in records])
    y = np.array([r.p_stat for r in records])
    n, k = x.shape
    design = np.column_stack([np.ones(n), x])
    if np.linalg.matrix_rank(design) < k + 1:
        raise ValueError("rank-deficient design matrix")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = n - k - 1
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    sd_x = x.std(axis=0, ddof=1)
    sd_y = y.std(ddof=1)
    beta = coef[1:] * sd_x / sd_y if sd_y > 0 else np.zeros(k)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 0.0
    return RegressionResult(
        predictors=PREDICTORS,
        intercept=float(coef[0]),
        b=tuple(float(v) for v in coef[1:]),
        se=tuple(float(v) for v in se[1:]),
        beta=tuple(float(v) for v in beta),
        r_squared=r2,
    )


def block_agreement(
    assignment: scm.GroupAssignment,
    blocks: list[set[str]],
    allowed: dict[str, set[int]],
) -> float:
    """Fraction of children whose primary detected group maps to one of
    their acceptable planted blocks.

    Each detected group maps to the planted block it overlaps most; a
    child's primary group is its largest. Ungrouped children count as
    disagreements.
    """
    group_block = [
        int(np.argmax([len(g & b) for b in blocks])) if g else -1
        for g in assignment.groups
    ]
    correct = 0
    for child in assignment.children:
        own = [gi for gi, g in enumerate(assignment.groups) if child in g]
        if not own:
            continue
        primary = max(own, key=lambda gi: (len(assignment.groups[gi]), -gi))
        if group_block[primary] in allowed.get(child, set()):
            correct += 1
    return correct / len(assignment.children)


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    for r in records:
        writer.writerow(
            [
                r.trial,
                r.method,
                r.source,
                r.n_children,
                r.n_reports,
                f"{r.nomination_probability:.10g}",
                f"{r.nomination_skew:.10g}",
                f"{r.group_size_skew:.10g}",
                f"{r.realized_nomination_skew:.10g}",
                f"{r.realized_group_size_skew:.10g}",
                f"{r.p_stat:.10g}",
            ]
        )
    return buf.getvalue()
