#!/usr/bin/env python
"""Regenerate the committed planted-structure benchmark reports."""

import pathlib

from peeraudit.datasets import generate_planted_classroom
from peeraudit.recall import to_report_lines

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "peeraudit" / "data"


def main(seed: int = 11) -> None:
    rm = generate_planted_classroom(seed=seed)
    (DATA_DIR / "benchmark_reports.txt").write_text(to_report_lines(rm))
    print(f"wrote {rm.n_children} children x {rm.n_reports} reports (seed={seed})")


if __name__ == "__main__":
    main()
