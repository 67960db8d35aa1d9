"""Correctness checks on the outputs of audits.

The acceptance criteria fix their bands at 1000 trials. A benchmark run
pools fewer, so each band on a fraction is widened by three binomial
standard errors at the pooled count, and the band on a mean by three
standard errors of that mean. Regression signs are checked once a run has
pooled ``MIN_REGRESSION_RECORDS``; below that they are not resolved.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

PREDICTORS = ("n_children", "n_reports", "nomination_probability",
              "nomination_skew", "group_size_skew")
# criterion 3: P rises with class size, falls with report count, rises with the rest
REGRESSION_SIGNS = (1.0, -1.0, 1.0, 1.0, 1.0)
# at 500 generated classrooms every |t| of criterion 3's regression is above 8
MIN_REGRESSION_RECORDS = 100

# study -> (statistic, low, high); None leaves that side open
BANDS = {
    "2": (("frac_positive", 0.99, None), ("mean_p", 0.45, 0.85)),
    "3": (("frac_positive", 0.6, 0.95),),
    "4b": (("frac_positive", None, 0.05), ("max_p", None, 0.25)),
    "4c": (("frac_positive", None, 0.05), ("max_p", None, 0.25)),
}


def parse_records(data: bytes) -> list[dict[str, str]]:
    lines = data.decode().splitlines()
    if not lines or not lines[0].startswith("# schema_version="):
        raise ValueError("records.csv lacks its schema line")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def compare_records(reference: bytes, other: bytes, label: str) -> list[str]:
    """Byte equality, with the first differing line named when it fails."""
    if reference == other:
        return []
    for i, (a, b) in enumerate(zip(reference.splitlines(), other.splitlines())):
        if a != b:
            return [f"{label}: records.csv differs at line {i + 1}: {a!r} != {b!r}"]
    return [f"{label}: records.csv differs in length"]


def check_rows(rows: list[dict[str, str]], trials: int) -> list[str]:
    """One row per trial, numbered from 0, each P in [0, 1]."""
    if [int(r["trial"]) for r in rows] != list(range(trials)):
        return [f"expected trials 0..{trials - 1}, got {len(rows)} rows"]
    bad = [r["trial"] for r in rows if not 0.0 <= float(r["p_stat"]) <= 1.0]
    return [f"P outside [0, 1] in trial(s) {bad}"] if bad else []


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def check_bands(study: str, rows: list[dict[str, str]]) -> list[str]:
    """Acceptance bands for ``study`` on the pooled records of a run."""
    p = np.array([float(r["p_stat"]) for r in rows])
    n = p.size
    stats = {
        "frac_positive": (float((p > 0).mean()), None),
        "mean_p": (float(p.mean()), 3.0 * float(p.std(ddof=1)) / math.sqrt(n) if n > 1 else math.inf),
        "max_p": (float(p.max()), 0.0),
    }
    problems = []
    for name, low, high in BANDS[study]:
        value, slack = stats[name]
        for edge, below in ((low, True), (high, False)):
            if edge is None:
                continue
            s = 3.0 * _binomial_se(edge, n) if slack is None else slack
            if (value < edge - s) if below else (value > edge + s):
                problems.append(
                    f"study {study}: {name}={value:.4g} beyond band edge {edge} "
                    f"(+/- {s:.3g} at {n} trials)")
    if study == "3" and n >= MIN_REGRESSION_RECORDS:
        x = np.array([[float(r[k]) for k in PREDICTORS] for r in rows])
        design = np.column_stack([np.ones(n), x])
        coef = np.linalg.lstsq(design, p, rcond=None)[0]
        signs = tuple(float(v) for v in np.sign(coef[1:]))
        if signs != REGRESSION_SIGNS:
            problems.append(f"study 3: regression signs {signs} != {REGRESSION_SIGNS}")
    return problems
