"""Command-line interface: scm, becd, simulate, and audit subcommands.

All outputs land under fixed names in the directory given by ``--out``
(default the current directory); every run writes a ``manifest.json``
recording the tool version, the seed and every flag as parsed. Flag
values are range-checked before any work starts. Flags can be supplied via
environment variables prefixed ``PEERAUDIT_`` (e.g. ``PEERAUDIT_SEED``).

Exit codes: 1 configuration error, 2 data error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib
import sys

import click
import numpy as np

from . import __version__, communities, datasets, experiments, nullmodels, scm
from .backbone import ConvergenceError
from .recall import DataError, load_reports, to_report_lines, validate_scm_limits

SCHEMA_VERSION = 1
CSV_HEADER = f"# schema_version={SCHEMA_VERSION}\n"

# the studies `audit --study` takes: the pipeline each audits by default, and
# the null model of `nullmodels.null_draws` that gives its classrooms
STUDIES = {"1": ("scm-fifty", None), "2": ("scm-fifty", "shuffle"),
           "3": ("scm-fifty", "generate"), "4a": ("becd", None),
           "4b": ("becd", "shuffle"), "4c": ("becd", "generate")}


def _out_dir(ctx) -> pathlib.Path:
    out = pathlib.Path(ctx.obj["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: pathlib.Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(ctx, out: pathlib.Path, **resolved) -> None:
    """Every flag as parsed, updated by ``resolved`` for values the command
    settled itself: a flag left at None, or the trial count that ran."""
    _write_json(
        out / "manifest.json",
        {
            "tool": "peeraudit",
            "version": __version__,
            "subcommand": ctx.info_name,
            "config": {**ctx.params, **resolved},
            "seed": ctx.obj["seed"],
            "threads": 1,
        },
    )


def _write_csv(path: pathlib.Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        f.write(CSV_HEADER)
        csv.writer(f, lineterminator="\n").writerows(rows)


def _write_matrix_csv(path: pathlib.Path, labels, matrix, fmt="%d") -> None:
    rows = ([name, *(fmt % v for v in row)] for name, row in zip(labels, np.asarray(matrix)))
    _write_csv(path, [["", *labels], *rows])


def _groups_json(assignment: scm.GroupAssignment, p_stat: float) -> dict:
    return {
        "children": list(assignment.children),
        "groups": [sorted(g) for g in assignment.groups],
        "membership": assignment.membership,
        "p_stat": p_stat,
    }


@click.group(context_settings={"auto_envvar_prefix": "PEERAUDIT"})
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Master RNG seed.")
@click.option("--threads", type=int, default=1, show_default=True, help="Accepted and ignored: audit trials run in one thread.")
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True, help="Output directory.")
@click.version_option(__version__)
@click.pass_context
def cli(ctx, seed, threads, out):
    """Peer-group identification pipelines and their false-positive audits."""
    if threads > 1:
        click.echo(f"note: --threads {threads} is ignored; audit trials run in one thread", err=True)
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, out=out)


@cli.command("scm")
@click.argument("reports", type=click.Path(exists=True, dir_okay=False))
@click.option("--threshold", type=click.FloatRange(0, 1), default=scm.DEFAULT_THRESHOLD, show_default=True)
@click.option("--rule", type=click.Choice(["fifty", "components"]), default="fifty", show_default=True)
@click.pass_context
def scm_cmd(ctx, reports, threshold, rule):
    """Run the classic pipeline on a report-list file; writes network.csv
    and groups.json."""
    rm = load_reports(reports)
    for warning in validate_scm_limits(rm):
        click.echo(f"warning: {warning}", err=True)
    net, assignment = scm.scm_groups(rm, threshold=threshold, rule=rule)
    p_stat = scm.membership_statistic(assignment, rm.n_children)
    out = _out_dir(ctx)
    _write_matrix_csv(out / "network.csv", assignment.children, net)
    _write_json(out / "groups.json", _groups_json(assignment, p_stat))
    _write_manifest(ctx, out)
    click.echo(f"P = {p_stat:.6g}")


@cli.command("becd")
@click.argument("reports", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha", type=click.FloatRange(0, 1, min_open=True), default=0.05, show_default=True)
@click.option("--correction", type=click.Choice(["none", "holm"]), default="none", show_default=True)
@click.pass_context
def becd_cmd(ctx, reports, alpha, correction):
    """Backbone extraction plus community detection on a report-list file;
    writes pvalues.csv, network.csv and groups.json."""
    rm = load_reports(reports)
    backbone, _, assignment = communities.becd_groups(
        rm, alpha=alpha, seed=ctx.obj["seed"], correction=correction
    )
    p_stat = scm.membership_statistic(assignment, rm.n_children)
    out = _out_dir(ctx)
    _write_matrix_csv(out / "pvalues.csv", rm.children, backbone.pvalues, fmt="%.10g")
    _write_matrix_csv(out / "network.csv", rm.children, backbone.network)
    _write_json(out / "groups.json", _groups_json(assignment, p_stat))
    _write_manifest(ctx, out)
    click.echo(f"P = {p_stat:.6g}")


def _load_profile(path) -> nullmodels.ClassroomProfile:
    """The five generator parameters from a UTF-8 JSON object (an optional
    ``schema_version`` key aside; a leading byte-order mark is dropped);
    anything else raises ``DataError``."""
    try:
        raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"profile {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError(f"profile {path}: expected a JSON object, got {type(raw).__name__}")
    raw.pop("schema_version", None)
    names = [f.name for f in dataclasses.fields(nullmodels.ClassroomProfile)]
    for key in raw:
        if key not in names:
            raise DataError(f"profile {path}: unknown key {key!r}")
    for key in names:
        if key not in raw:
            raise DataError(f"profile {path}: missing key {key!r}")
    try:
        profile = nullmodels.ClassroomProfile(**raw)
        nullmodels.check_feasible(profile)
    except ValueError as exc:
        raise DataError(f"profile {path}: {exc}") from None
    return profile


@cli.command("simulate")
@click.option("--mode", type=click.Choice(["shuffle", "generate"]), required=True)
@click.option("--reports", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Observed report list to shuffle (--mode shuffle only, and required there).")
@click.option("--profile", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON with the five generator parameters (--mode generate only); omitted = sampled per trial.")
@click.option("--trials", type=click.IntRange(min=1), default=1, show_default=True)
@click.pass_context
def simulate_cmd(ctx, mode, reports, profile, trials):
    """Write one null-model report-list file per trial; file t holds the
    classroom that `audit` trial t analyzes at the same seed."""
    if mode == "shuffle":
        if reports is None:
            raise click.UsageError("--mode shuffle requires --reports")
        if profile is not None:
            raise click.UsageError("--profile applies only to --mode generate")
        draw = nullmodels.null_draws(mode, rm=load_reports(reports))
    else:
        if reports is not None:
            raise click.UsageError("--reports applies only to --mode shuffle")
        draw = nullmodels.null_draws(mode, profile=None if profile is None else _load_profile(profile))
    out = _out_dir(ctx)

    def write(t: int, trial_seed: int) -> None:
        text = to_report_lines(draw(trial_seed)[0])
        (out / f"trial_{t:04d}.txt").write_text(text, encoding="utf-8")

    experiments._run_trials(write, trials, ctx.obj["seed"])
    _write_manifest(ctx, out)
    click.echo(f"wrote {trials} trial file(s) to {out}")


@cli.command("audit")
@click.option("--study", type=click.Choice(list(STUDIES)), required=True)
@click.option("--method", type=click.Choice(experiments.METHODS), default=None,
              help="Pipeline to audit; defaults to the study's own method.")
@click.option("--trials", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Null classrooms to audit; studies 1 and 4a audit the benchmark once.")
@click.option("--threshold", type=click.FloatRange(0, 1), default=scm.DEFAULT_THRESHOLD, show_default=True)
@click.option("--alpha", type=click.FloatRange(0, 1, min_open=True), default=0.05, show_default=True)
@click.pass_context
def audit_cmd(ctx, study, method, trials, threshold, alpha):
    """Reproduce one of the four studies on the committed benchmark."""
    default_method, null = STUDIES[study]
    method = method or default_method
    if study == "3" and trials < experiments.MIN_REGRESSION_RECORDS:
        raise click.UsageError(
            f"--study 3 fits a regression and needs --trials >= {experiments.MIN_REGRESSION_RECORDS}"
        )
    seed = ctx.obj["seed"]
    out = _out_dir(ctx)
    rm = None if null == "generate" else datasets.load_benchmark()
    trials = trials if null else 1
    records, summary = experiments.audit(null, method, trials, seed, rm, threshold, alpha)
    extra: dict = {"study": study, "method": method}
    if null is None:  # the benchmark's one trial again, for its groups
        assignment, _ = experiments.run_pipeline(rm, method, threshold, alpha, seed)
        extra["agreement"] = experiments.block_agreement(assignment, *datasets.planted_blocks())
    regression = experiments.ols_regression(records) if study == "3" else None
    (out / "records.csv").write_text(CSV_HEADER + experiments.records_to_csv(records), encoding="utf-8")
    _write_json(out / "summary.json", {**extra, **summary.__dict__})
    _write_csv(out / "histogram.csv", [
        ("bin_lo", "bin_hi", "count"),
        *((f"{lo:.2f}", f"{hi:.2f}", count)
          for lo, hi, count in experiments.histogram_counts(records)),
    ])
    if regression is not None:
        _write_json(
            out / "regression.json",
            {**dataclasses.asdict(regression), "predictor_basis": "generator profile parameters"},
        )
    _write_manifest(ctx, out, method=method, trials=trials)
    click.echo(
        f"study {study} ({method}): frac_positive={summary.frac_positive:.4g} "
        f"mean_P={summary.mean_p:.4g}"
    )


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:  # --help / --version
        return exc.exit_code
    except (click.ClickException,) as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except ConvergenceError as exc:
        click.echo(f"convergence error: {exc}", err=True)
        return 3
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
