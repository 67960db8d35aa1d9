"""Recall matrices: binary children x reports incidence data.

A recall matrix holds peer-report data for one classroom: one row per
child, one column per (anonymous) report, and a 1 wherever a child was
named in a report. The on-disk format is a report-list text file: one
comma-separated report per line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Input limits enforced by the classic DOS-era SCM tooling. Violations
# are warned about, never rejected.
SCM_MAX_REPORTS = 2000
SCM_MAX_CHILDREN = 400
SCM_MAX_REPORT_SIZE = 20
# the largest classroom parse_reports accepts, and the bounds of a generated
# classroom's counts: its int8 recall matrix stays within 10 MB
MAX_CHILDREN = 1000
MAX_REPORTS = 10_000


class DataError(ValueError):
    """Raised for malformed or unanalyzable peer-report data."""


@dataclass(frozen=True)
class RecallMatrix:
    """Immutable binary incidence matrix of children (rows) x reports (columns)."""

    children: tuple[str, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        raw = np.asarray(self.entries)
        if raw.ndim != 2:
            raise DataError("entries must be a 2-d matrix")
        if raw.shape[0] != len(self.children):
            raise DataError(
                f"{len(self.children)} children but {raw.shape[0]} matrix rows"
            )
        # checked before the int8 cast, which would wrap 257 to 1 and
        # truncate 0.7 to 0; NaN and strings equal neither
        if not ((raw == 0) | (raw == 1)).all():
            raise DataError("matrix cells must be 0 or 1")
        entries = np.ascontiguousarray(raw, dtype=np.int8)
        if entries.shape[1] == 0:
            raise DataError("no reports")
        empty = np.flatnonzero(entries.sum(axis=0) == 0)
        if empty.size:
            raise DataError(f"report column(s) {empty.tolist()} name nobody")
        seen = set()
        for child in self.children:
            if not child:
                raise DataError("empty child id")
            if child in seen:
                raise DataError(f"duplicate child id {child!r}")
            seen.add(child)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _unchecked(cls, children: tuple[str, ...], entries: np.ndarray) -> RecallMatrix:
        """The matrix of ``children`` and ``entries``, without the checks.

        For null draws, which write a C-contiguous int8 matrix of 0/1 cells
        with no empty column themselves, for children that are distinct and
        nonempty, and for ``drop_never_named``'s rows of a checked matrix.
        The entries are made read-only, as on the checked path.
        """
        entries.setflags(write=False)
        rm = object.__new__(cls)
        object.__setattr__(rm, "children", children)
        object.__setattr__(rm, "entries", entries)
        return rm

    @property
    def n_children(self) -> int:
        return self.entries.shape[0]

    @property
    def n_reports(self) -> int:
        return self.entries.shape[1]


def parse_reports(text: str) -> RecallMatrix:
    """Parse report-list text: one report per line, members comma-separated.

    ``#`` starts a comment; blank (or comment-only) lines are skipped.
    Children are ordered by first appearance. More than ``MAX_CHILDREN``
    children or ``MAX_REPORTS`` reports raise ``DataError`` as soon as the
    parse passes the limit, before the matrix is made.
    """
    children: list[str] = []
    index: dict[str, int] = {}
    reports: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        if any(not t for t in tokens):
            raise DataError(f"line {lineno}: empty member token")
        if len(reports) == MAX_REPORTS:
            raise DataError(f"line {lineno}: more than {MAX_REPORTS} reports,"
                            " the largest classroom accepted")
        seen_here = set()
        cols = []
        for tok in tokens:
            if tok in seen_here:
                raise DataError(f"line {lineno}: duplicate member {tok!r}")
            seen_here.add(tok)
            if tok not in index:
                if len(children) == MAX_CHILDREN:
                    raise DataError(f"line {lineno}: more than {MAX_CHILDREN} children,"
                                    " the largest classroom accepted")
                index[tok] = len(children)
                children.append(tok)
            cols.append(index[tok])
        reports.append(cols)
    if not reports:
        raise DataError("no reports in input")
    entries = np.zeros((len(children), len(reports)), dtype=np.int8)
    for j, members in enumerate(reports):
        entries[members, j] = 1
    return RecallMatrix(tuple(children), entries)


def to_report_lines(rm: RecallMatrix) -> str:
    """Serialize to report-list text (inverse of :func:`parse_reports`).

    A child id that would parse back as another id raises ``DataError``:
    one with a ``,`` or ``#``, a line boundary, or whitespace at either end.
    """
    for child in rm.children:
        if ("," in child or "#" in child or child.splitlines() != [child]
                or child.strip() != child):
            raise DataError(
                f"child id {child!r} cannot be written to report-list text:"
                " it holds ',', '#' or a line boundary, or starts or ends with whitespace"
            )
    lines = []
    for j in range(rm.n_reports):
        members = [rm.children[i] for i in np.flatnonzero(rm.entries[:, j])]
        lines.append(",".join(members))
    return "\n".join(lines) + "\n"


def load_reports(path) -> RecallMatrix:
    """Parse a UTF-8 report-list file; a leading byte-order mark is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return parse_reports(text)


def validate_scm_limits(rm: RecallMatrix) -> list[str]:
    """Warnings for data exceeding the classic SCM 4.0 input limits."""
    warnings = []
    if rm.n_reports > SCM_MAX_REPORTS:
        warnings.append(
            f"{rm.n_reports} reports exceeds the SCM 4.0 limit of {SCM_MAX_REPORTS}"
        )
    if rm.n_children > SCM_MAX_CHILDREN:
        warnings.append(
            f"{rm.n_children} children exceeds the SCM 4.0 limit of {SCM_MAX_CHILDREN}"
        )
    oversized = int((rm.entries.sum(axis=0) > SCM_MAX_REPORT_SIZE).sum())
    if oversized:
        warnings.append(
            f"{oversized} report(s) name more than {SCM_MAX_REPORT_SIZE} children"
        )
    return warnings


def drop_never_named(rm: RecallMatrix) -> tuple[RecallMatrix, list[str]]:
    """Remove children whose row is all zero (never named in any report)."""
    row_sums = rm.entries.sum(axis=1)
    keep = row_sums > 0
    if not keep.any():
        raise DataError("every child has an all-zero row; nothing to analyze")
    dropped = [c for c, k in zip(rm.children, keep) if not k]
    if not dropped:
        return rm, []
    kept = tuple(c for c, k in zip(rm.children, keep) if k)
    # dropping all-zero rows keeps the checked matrix's cells, distinct ids
    # and nonempty columns
    return RecallMatrix._unchecked(kept, rm.entries[keep]), dropped


def margins(rm: RecallMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(row sums, column sums) as int64 vectors."""
    return (
        rm.entries.sum(axis=1, dtype=np.int64),
        rm.entries.sum(axis=0, dtype=np.int64),
    )
