"""Planted-structure benchmark classroom.

A committed surrogate classroom with 26 children, 61 reports, and 5
planted blocks, plus two deliberately ambiguous children: a bridge child
reported with two different girl blocks (never both at once), and a
low-salience boy named in only 3 reports split across two boy blocks.
The reports are shipped as package data, which pins them against changes
in NumPy's random streams; regenerate them with scripts/make_benchmark.py.
The planted blocks are defined here.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

import numpy as np

from .nullmodels import as_rng
from .recall import RecallMatrix, parse_reports

BLOCKS = [
    ["ana", "bea", "cora", "dina", "eve", "fay", "gwen"],  # large girl group
    ["hope", "iris", "jade"],  # small girl group
    ["lena", "mia", "nora", "opal"],
    ["pete", "quinn", "rob", "sam", "tom", "umar", "vic"],  # large boy group
    ["wade", "xavi", "yuri", "zane"],
]
BRIDGE_CHILD = "kira"  # plausibly a member of block 0 or block 1
LOW_SALIENCE_CHILD = "vic"  # named 3 times: twice with block 3, once with block 4


def planted_blocks() -> tuple[list[set[str]], dict[str, set[int]]]:
    """(planted blocks, child -> acceptable block indices)."""
    blocks = [set(b) for b in BLOCKS]
    blocks[0].add(BRIDGE_CHILD)
    allowed: dict[str, set[int]] = {}
    for bi, block in enumerate(BLOCKS):
        for child in block:
            allowed[child] = {bi}
    allowed[BRIDGE_CHILD] = {0, 1}
    allowed[LOW_SALIENCE_CHILD] = {3, 4}
    return blocks, allowed


def generate_planted_classroom(seed: int = 11) -> RecallMatrix:
    """Synthesize the 26 x 61 surrogate classroom deterministically."""
    rng = as_rng(seed)

    def block_reports(members, count, size_range):
        members = [m for m in members if m != LOW_SALIENCE_CHILD]
        reports = []
        for _ in range(count):
            lo, hi = size_range
            hi = min(hi, len(members))
            size = int(rng.integers(lo, hi + 1))
            picks = rng.choice(len(members), size=size, replace=False)
            reports.append([members[i] for i in sorted(picks)])
        return reports

    reports: list[list[str]] = []
    # large girl group: 18 reports, 4 of which also name the bridge child
    g1 = block_reports(BLOCKS[0], 18, (3, 6))
    for idx in rng.choice(18, size=4, replace=False):
        g1[idx].append(BRIDGE_CHILD)
    reports += g1
    # small girl group: 6 reports, 4 of which also name the bridge child
    g2 = block_reports(BLOCKS[1], 6, (2, 3))
    for idx in rng.choice(6, size=4, replace=False):
        g2[idx].append(BRIDGE_CHILD)
    reports += g2
    reports += block_reports(BLOCKS[2], 10, (3, 4))
    # large boy group: 18 reports from the 6 regulars, 2 naming the low-
    # salience boy as well
    b1 = block_reports(BLOCKS[3], 18, (3, 6))
    for idx in rng.choice(18, size=2, replace=False):
        b1[idx].append(LOW_SALIENCE_CHILD)
    reports += b1
    # small boy group: 9 reports, 1 naming the low-salience boy
    b2 = block_reports(BLOCKS[4], 9, (3, 4))
    b2[int(rng.integers(9))].append(LOW_SALIENCE_CHILD)
    reports += b2
    order = rng.permutation(len(reports))
    text = "\n".join(",".join(reports[i]) for i in order)
    return parse_reports(text)


@cache
def load_benchmark() -> RecallMatrix:
    """The committed surrogate classroom fixture, read and parsed once per
    process: every call returns the same frozen matrix, whose entries are
    read-only."""
    text = resources.files("peeraudit.data").joinpath("benchmark_reports.txt").read_text()
    return parse_reports(text)
