#!/usr/bin/env python
"""Check that two checkouts of peeraudit write byte-identical outputs.

    python scripts/compare_outputs.py PARENT CHANGE [--trials N] [--seeds S ...]

PARENT and CHANGE are checkout roots. For each, the same ``peeraudit``
commands run as ``python -m peeraudit.cli`` with that checkout's ``src``
alone on PYTHONPATH, from a work directory of its own and with the same
relative paths, so that ``manifest.json`` compares too. At each seed they
are: ``audit --study`` 1, 2, 3, 4a, 4b and 4c, 2 and 3 again with
``--method scm-components``, and 4c again with ``--alpha`` 0.01 and 0.2,
since which dyads an audit's backbone skips depends on alpha; ``scm`` (both rules) and ``becd`` (both
corrections) on a copy of the checkout's benchmark report file; and
``simulate`` in shuffle and generate mode, the latter with and without a
fixed ``--profile``, for 50 trials, and again with a second profile of 15
children, 200 reports and nomination probability 0.9
(``profile_rest.json``), on which most reports end by taking every child
left, and a third of 40 children and 600 reports (``profile_wide.json``),
whose reports read about 22,500 uniforms, so that each classroom fills
three of the generator's batches of 8192 uniforms and rewinds two. Six
more classrooms have report files that the script writes from fixed
seeds, the same bytes for both sides: a 40 x 200 one
(``wide.txt``), on which ``simulate --mode shuffle`` covers rows of 25
bytes as well as the benchmark's 8, ``becd`` runs with both corrections
and ``scm`` with both rules; a 30 x 120 one whose reports all name 5
children (``one_size.txt``), on which ``becd`` runs the dyad test's
binomial block over every report; a 32 x 173 one whose reports name 1 to
20 children (``many_sizes.txt``), on which ``becd`` runs a small block
beside many steps; and a 40 x 120 one whose reports each name children of
one of four blocks of 10 (``blocks.txt``), whose dense peer network sends
``scm --rule fifty`` down its lockstep first pass, and on which ``scm``
runs with both rules. A fifth, 100 x 300 with reports in ten blocks of 10
(``blocks_wide.txt``), ties all 100 children by 450 edges, so its
lockstep pass holds each set in two 64-bit words; ``scm`` runs on it with
both rules too. A sixth, 30 x 65 (``two_words.txt``), has rows one
column wider than a 64-bit word, so a curveball trade lists its pool
from two words, the second holding one byte; ``simulate --mode
shuffle`` and ``becd`` run on it. Each command's exit code, stdout and
stderr are compared with its files. Every file that differs or exists on one side
only, and every command that exits nonzero, is printed; for a CSV file of
equal shape, so are the number of cells that differ and the largest
relative difference of those that are numbers on both sides. The exit
status is 1 if anything is printed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

BENCHMARK_REPORTS = pathlib.Path("src", "peeraudit", "data", "benchmark_reports.txt")
PROFILE = {"n_children": 20, "n_reports": 60, "nomination_probability": 0.25,
           "nomination_skew": 0.5, "group_size_skew": 0.5}
PROFILE_REST = {"n_children": 15, "n_reports": 200, "nomination_probability": 0.9,
                "nomination_skew": 1.99, "group_size_skew": -0.52}
PROFILE_WIDE = {"n_children": 40, "n_reports": 600, "nomination_probability": 0.3,
                "nomination_skew": 1.0, "group_size_skew": 1.0}
SIMULATE_TRIALS = "50"
# children, reports, smallest and largest report, seed and number of blocks
# of the classrooms the script writes: the wide one, one whose reports have
# one size, one whose reports have many, and two whose reports each stay
# within one block of the roster, the second wider than one 64-bit word,
# and one whose rows spill one column past a 64-bit word
WIDE_CLASS = (40, 200, 2, 12, 21)
ONE_SIZE_CLASS = (30, 120, 5, 5, 22)
MANY_SIZES_CLASS = (32, 173, 1, 20, 24)
BLOCK_CLASS = (40, 120, 4, 8, 23, 4)
WIDE_BLOCK_CLASS = (100, 300, 4, 8, 25, 10)
TWO_WORD_CLASS = (30, 65, 2, 8, 26)


def class_reports(n_children: int, n_reports: int, smallest: int, largest: int, seed: int,
                  blocks: int = 1) -> str:
    """Report file of a classroom of seeded random reports, each naming
    ``smallest`` to ``largest`` children of one of ``blocks`` equal,
    consecutive blocks of the roster, drawn for each report."""
    rng = random.Random(seed)
    names = [f"c{i + 1:02d}" for i in range(n_children)]
    size = n_children // blocks
    lines = []
    for _ in range(n_reports):
        first = size * rng.randrange(blocks) if blocks > 1 else 0
        lines.append(",".join(rng.sample(names[first:first + size], rng.randint(smallest, largest)))
                     + "\n")
    return "".join(lines)


def commands(trials: int, seeds: list[int]):
    """(name, argv after ``python -m peeraudit.cli``) for every run."""
    for seed in seeds:
        def run(name, *args):
            return f"seed{seed}/{name}", ["--seed", str(seed), "--out", f"out/seed{seed}/{name}", *args]

        for study in ("1", "2", "3", "4a", "4b", "4c"):
            yield run(f"study{study}", "audit", "--study", study, "--trials", str(trials))
        for study in ("2", "3"):
            yield run(f"study{study}-scm-components", "audit", "--study", study,
                      "--method", "scm-components", "--trials", str(trials))
        for alpha in ("0.01", "0.2"):
            yield run(f"study4c-alpha{alpha}", "audit", "--study", "4c", "--alpha", alpha,
                      "--trials", str(trials))
        for rule in ("fifty", "components"):
            yield run(f"scm-{rule}", "scm", "reports.txt", "--rule", rule)
            yield run(f"scm-wide-{rule}", "scm", "wide.txt", "--rule", rule)
            yield run(f"scm-blocks-{rule}", "scm", "blocks.txt", "--rule", rule)
            yield run(f"scm-blocks-wide-{rule}", "scm", "blocks_wide.txt", "--rule", rule)
        for correction in ("none", "holm"):
            yield run(f"becd-{correction}", "becd", "reports.txt", "--correction", correction)
            yield run(f"becd-wide-{correction}", "becd", "wide.txt", "--correction", correction)
        yield run("becd-one-size", "becd", "one_size.txt")
        yield run("becd-many-sizes", "becd", "many_sizes.txt")
        yield run("becd-two-words", "becd", "two_words.txt")
        yield run("simulate-shuffle", "simulate", "--mode", "shuffle", "--reports", "reports.txt",
                  "--trials", SIMULATE_TRIALS)
        yield run("simulate-shuffle-wide", "simulate", "--mode", "shuffle", "--reports", "wide.txt",
                  "--trials", SIMULATE_TRIALS)
        yield run("simulate-shuffle-two-words", "simulate", "--mode", "shuffle",
                  "--reports", "two_words.txt", "--trials", SIMULATE_TRIALS)
        yield run("simulate-generate", "simulate", "--mode", "generate", "--trials", SIMULATE_TRIALS)
        yield run("simulate-profile", "simulate", "--mode", "generate", "--profile", "profile.json",
                  "--trials", SIMULATE_TRIALS)
        yield run("simulate-profile-rest", "simulate", "--mode", "generate",
                  "--profile", "profile_rest.json", "--trials", SIMULATE_TRIALS)
        yield run("simulate-profile-wide", "simulate", "--mode", "generate",
                  "--profile", "profile_wide.json", "--trials", SIMULATE_TRIALS)


def run_side(checkout: pathlib.Path, work: pathlib.Path, jobs, inputs: dict[str, str]) -> None:
    src = (checkout / "src").resolve()
    env = {k: v for k, v in os.environ.items() if not k.startswith("PEERAUDIT_")}
    env["PYTHONPATH"] = str(src)
    work.mkdir()
    found = subprocess.run(
        [sys.executable, "-c", "import peeraudit; print(peeraudit.__file__)"],
        cwd=work, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if pathlib.Path(found).resolve().parent.parent != src:
        raise SystemExit(f"peeraudit imported from {found}, not from {src}")
    shutil.copyfile(checkout / BENCHMARK_REPORTS, work / "reports.txt")
    for name, text in inputs.items():
        (work / name).write_text(text, encoding="utf-8")
    (work / "profile.json").write_text(json.dumps(PROFILE), encoding="utf-8")
    (work / "profile_rest.json").write_text(json.dumps(PROFILE_REST), encoding="utf-8")
    (work / "profile_wide.json").write_text(json.dumps(PROFILE_WIDE), encoding="utf-8")
    for name, argv in jobs:
        done = subprocess.run([sys.executable, "-m", "peeraudit.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        log = work / "log" / f"{name}.txt"
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_bytes(b"exit %d\n--- stdout\n%s--- stderr\n%s"
                        % (done.returncode, done.stdout, done.stderr))


def differences(a: pathlib.Path, b: pathlib.Path) -> list[str]:
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    fa, fb = files(a), files(b)
    out = [f"only in PARENT: {p}" for p in sorted(fa - fb)]
    out += [f"only in CHANGE: {p}" for p in sorted(fb - fa)]
    for p in sorted(fa & fb):
        if (a / p).read_bytes() != (b / p).read_bytes():
            out.append(f"differs: {p}{csv_difference(a / p, b / p) if p.suffix == '.csv' else ''}")
    return out


def csv_difference(a: pathlib.Path, b: pathlib.Path) -> str:
    """How two CSV files of one shape differ, cell by cell: the number of
    cells that differ, and the largest relative difference |x - y| / |x|
    of those that are numbers on both sides; empty if the shapes differ."""
    ra, rb = (list(csv.reader(path.read_text(encoding="utf-8").splitlines())) for path in (a, b))
    if [len(row) for row in ra] != [len(row) for row in rb]:
        return ""
    cells = [(x, y) for row_a, row_b in zip(ra, rb) for x, y in zip(row_a, row_b) if x != y]
    worst = 0.0
    for x, y in cells:
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            continue
        worst = max(worst, abs(fx - fy) / abs(fx) if fx else float("inf"))
    return f" ({len(cells)} cells differ, largest relative difference {worst:.3g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--trials", type=int, default=1000, help="audit trials per study")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 5000])
    args = parser.parse_args(argv)
    jobs = list(commands(args.trials, args.seeds))
    inputs = {"wide.txt": class_reports(*WIDE_CLASS),
              "one_size.txt": class_reports(*ONE_SIZE_CLASS),
              "many_sizes.txt": class_reports(*MANY_SIZES_CLASS),
              "blocks.txt": class_reports(*BLOCK_CLASS),
              "blocks_wide.txt": class_reports(*WIDE_BLOCK_CLASS),
              "two_words.txt": class_reports(*TWO_WORD_CLASS)}
    with tempfile.TemporaryDirectory() as tmp:
        sides = [pathlib.Path(tmp, "parent"), pathlib.Path(tmp, "change")]
        # each side runs its commands one after another, the sides in parallel
        with ThreadPoolExecutor(2) as pool:
            for future in [pool.submit(run_side, checkout, work, jobs, inputs)
                           for checkout, work in zip((args.parent, args.change), sides)]:
                future.result()
        found = differences(*sides)
        # a command that fails on both sides leaves nothing to compare
        for side, work in zip(("PARENT", "CHANGE"), sides):
            for log in sorted((work / "log").rglob("*.txt")):
                status = log.read_text(encoding="utf-8", errors="replace").split("\n", 1)[0]
                if status != "exit 0":
                    found.append(f"{status} in {side}: {log.relative_to(work / 'log').with_suffix('')}")
        n_files = sum(1 for p in sides[0].rglob("*") if p.is_file())
    for line in found:
        print(line)
    print(f"{len(jobs)} commands per side, {n_files} files in PARENT; {len(found)} findings")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
