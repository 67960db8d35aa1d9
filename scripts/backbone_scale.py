#!/usr/bin/env python
"""Time and memory of one cold ``extract_backbone`` call on large classrooms.

    PYTHONPATH=src python scripts/backbone_scale.py 100x500 200x1000 [--repeats R]

Each size N x M is a graded classroom: child i is named in each of M
reports independently with probability 0.02 + 0.38 i / (N - 1), spread
evenly over [0.02, 0.4], with the draws taken from seed 0, and reports
that name nobody are dropped. Most children then have a degree of their
own, so the dyad kernel sees close to N^2 / 2 class pairs, the case in
which BE-CD's memory grows with the square of the number of degree
classes. ``tests/test_backbone.py`` loads ``graded_classroom`` from here,
so its memory bound is set on the same classroom as the figures.

For each size, the script calls ``extract_backbone`` with every p-value
(the default, as ``peeraudit becd`` does) and with ``pvalues=False`` (the
network alone, as an audit trial does), each from an empty fit memo. It
prints, for each call, the process CPU seconds of R untraced calls (the
smallest and largest), the tracemalloc peak of one more traced call, and
the number of backbone edges. The script uses only names that every
checkout since the network-only call has, so putting another checkout's
``src`` on PYTHONPATH measures that checkout on the same classrooms.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from peeraudit import backbone
from peeraudit.backbone import extract_backbone
from peeraudit.recall import RecallMatrix


SEED = 0


def graded_classroom(n_children: int, n_reports: int) -> RecallMatrix:
    """Child i named in each report with probability 0.02 + 0.38 i / (n - 1)."""
    rng = np.random.default_rng(SEED)
    probs = np.linspace(0.02, 0.4, n_children)
    entries = rng.random((n_children, n_reports)) < probs[:, None]
    entries = entries[:, entries.any(axis=0)]
    return RecallMatrix(tuple(f"c{i}" for i in range(n_children)), entries)


def cold_call(rm: RecallMatrix, pvalues: bool):
    backbone._memo.entry = None
    return extract_backbone(rm, pvalues=pvalues)


def measure(rm: RecallMatrix, pvalues: bool, repeats: int) -> tuple[list[float], float, int]:
    """(process CPU seconds per untraced call, traced peak MB, edges)."""
    cpu = []
    for _ in range(repeats):
        start = time.process_time()
        cold_call(rm, pvalues)
        cpu.append(time.process_time() - start)
    backbone._memo.entry = None
    tracemalloc.start()
    try:
        network = cold_call(rm, pvalues).network
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return cpu, peak / 1e6, int(network.sum()) // 2


def size(text: str) -> tuple[int, int]:
    n, _, m = text.lower().partition("x")
    try:
        shape = int(n), int(m)
    except ValueError:
        raise argparse.ArgumentTypeError(f"size must be NxM, got {text!r}") from None
    if min(shape) < 2:
        raise argparse.ArgumentTypeError(f"size must be at least 2x2, got {text!r}")
    return shape


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="+", type=size, metavar="NxM")
    parser.add_argument("--repeats", type=int, default=3, help="untraced calls per figure")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print("size        classes  call           cpu_s (min-max)   peak_mb  edges")
    for n, m in args.sizes:
        rm = graded_classroom(n, m)
        classes = np.unique(rm.entries.sum(axis=1)).size
        label = f"{n}x{rm.entries.shape[1]}"
        for pvalues in (True, False):
            cpu, peak, edges = measure(rm, pvalues, args.repeats)
            call = "pvalues" if pvalues else "network-only"
            print(f"{label:<11} {classes:>7}  {call:<13} {min(cpu):7.3f}-{max(cpu):<7.3f}"
                  f"   {peak:8.1f}  {edges:5d}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
