"""Command-line interface: scm, becd, simulate, and audit subcommands.

All outputs land in the directory given by ``--out`` (default the current
directory); every run writes a ``manifest.json`` recording the tool
version, the full configuration, and the seed. Flags can be supplied via
environment variables prefixed ``PEERAUDIT_`` (e.g. ``PEERAUDIT_SEED``).

Exit codes: 1 configuration error, 2 data error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys

import click
import numpy as np

from . import __version__, communities, datasets, experiments, nullmodels, scm
from .backbone import ConvergenceError
from .recall import DataError, load_reports, to_report_lines, validate_scm_limits

SCHEMA_VERSION = 1
CSV_HEADER = f"# schema_version={SCHEMA_VERSION}\n"

STUDY_DEFAULT_METHOD = {
    "1": "scm-fifty",
    "2": "scm-fifty",
    "3": "scm-fifty",
    "4a": "becd",
    "4b": "becd",
    "4c": "becd",
}


def _out_dir(ctx) -> pathlib.Path:
    out = pathlib.Path(ctx.obj["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: pathlib.Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(ctx, out: pathlib.Path, subcommand: str, config: dict) -> None:
    _write_json(
        out / "manifest.json",
        {
            "tool": "peeraudit",
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "seed": ctx.obj["seed"],
            "threads": 1,
        },
    )


def _matrix_csv(labels, matrix, fmt="%d") -> str:
    lines = [CSV_HEADER.rstrip("\n"), "," + ",".join(labels)]
    for name, row in zip(labels, np.asarray(matrix)):
        lines.append(name + "," + ",".join(fmt % v for v in row))
    return "\n".join(lines) + "\n"


def _groups_json(assignment: scm.GroupAssignment, p_stat: float) -> dict:
    return {
        "children": list(assignment.children),
        "groups": [sorted(g) for g in assignment.groups],
        "membership": assignment.membership,
        "p_stat": p_stat,
    }


@click.group(context_settings={"auto_envvar_prefix": "PEERAUDIT"})
@click.option("--seed", type=int, default=0, show_default=True, help="Master RNG seed.")
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
@click.option("--threshold", type=float, default=scm.DEFAULT_THRESHOLD, show_default=True)
@click.option("--rule", type=click.Choice(["fifty", "components"]), default="fifty", show_default=True)
@click.option("--out-network", default="network.csv", show_default=True)
@click.option("--out-groups", default="groups.json", show_default=True)
@click.pass_context
def scm_cmd(ctx, reports, threshold, rule, out_network, out_groups):
    """Run the classic pipeline on a report-list file."""
    rm = load_reports(reports)
    for warning in validate_scm_limits(rm):
        click.echo(f"warning: {warning}", err=True)
    net, assignment = scm.scm_groups(rm, threshold=threshold, rule=rule)
    p_stat = scm.membership_statistic(assignment, rm.n_children)
    out = _out_dir(ctx)
    (out / out_network).write_text(_matrix_csv(assignment.children, net))
    _write_json(out / out_groups, _groups_json(assignment, p_stat))
    _write_manifest(
        ctx, out, "scm",
        {"reports": str(reports), "threshold": threshold, "rule": rule,
         "out_network": out_network, "out_groups": out_groups},
    )
    click.echo(f"P = {p_stat:.6g}")


@cli.command("becd")
@click.argument("reports", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--correction", type=click.Choice(["none", "holm"]), default="none", show_default=True)
@click.option("--out-pvalues", default="pvalues.csv", show_default=True)
@click.option("--out-network", default="network.csv", show_default=True)
@click.option("--out-groups", default="groups.json", show_default=True)
@click.pass_context
def becd_cmd(ctx, reports, alpha, correction, out_pvalues, out_network, out_groups):
    """Backbone extraction plus community detection on a report-list file."""
    rm = load_reports(reports)
    backbone, _, assignment = communities.becd_groups(
        rm, alpha=alpha, seed=ctx.obj["seed"], correction=correction
    )
    p_stat = scm.membership_statistic(assignment, rm.n_children)
    out = _out_dir(ctx)
    (out / out_pvalues).write_text(_matrix_csv(rm.children, backbone.pvalues, fmt="%.10g"))
    (out / out_network).write_text(_matrix_csv(rm.children, backbone.network))
    _write_json(out / out_groups, _groups_json(assignment, p_stat))
    _write_manifest(
        ctx, out, "becd",
        {"reports": str(reports), "alpha": alpha, "correction": correction,
         "out_pvalues": out_pvalues, "out_network": out_network,
         "out_groups": out_groups},
    )
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
        value = raw[key]
        count = key in ("n_children", "n_reports")
        kinds = int if count else (int, float)
        if (isinstance(value, bool) or not isinstance(value, kinds)
                or isinstance(value, float) and not math.isfinite(value)):
            kind = "an integer" if count else "a finite number"
            raise DataError(f"profile {path}: {key} must be {kind}, got {value!r}")
    try:
        return nullmodels.ClassroomProfile(**raw)
    except ValueError as exc:
        raise DataError(f"profile {path}: {exc}") from None


@cli.command("simulate")
@click.option("--mode", type=click.Choice(["shuffle", "generate"]), required=True)
@click.option("--reports", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Observed report list to shuffle (required for --mode shuffle).")
@click.option("--profile", "profile_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON with the five generator parameters; omitted = sampled per trial.")
@click.option("--trials", type=int, default=1, show_default=True)
@click.pass_context
def simulate_cmd(ctx, mode, reports, profile_path, trials):
    """Write one null-model report-list file per trial."""
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    seed = ctx.obj["seed"]
    out = _out_dir(ctx)
    if mode == "shuffle":
        if reports is None:
            raise click.UsageError("--mode shuffle requires --reports")
        rm = load_reports(reports)
        matrices = (
            nullmodels.curveball_randomize(rm, seed=seed + t) for t in range(trials)
        )
    else:
        fixed = _load_profile(profile_path) if profile_path is not None else None
        matrices = (
            nullmodels.draw_classroom(np.random.default_rng(seed + t), profile=fixed)[1]
            for t in range(trials)
        )
    for t, matrix in enumerate(matrices):
        (out / f"trial_{t:04d}.txt").write_text(to_report_lines(matrix))
    _write_manifest(
        ctx, out, "simulate",
        {"mode": mode, "reports": reports, "profile": profile_path, "trials": trials},
    )
    click.echo(f"wrote {trials} trial file(s) to {out}")


@cli.command("audit")
@click.option("--study", type=click.Choice(["1", "2", "3", "4a", "4b", "4c"]), required=True)
@click.option("--method", type=click.Choice(experiments.METHODS), default=None,
              help="Pipeline to audit; defaults to the study's own method.")
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--threshold", type=float, default=scm.DEFAULT_THRESHOLD, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.pass_context
def audit_cmd(ctx, study, method, trials, threshold, alpha):
    """Reproduce one of the four studies on the committed benchmark."""
    method = method or STUDY_DEFAULT_METHOD[study]
    if study == "3" and trials < experiments.MIN_REGRESSION_RECORDS:
        raise click.UsageError(
            f"--study 3 fits a regression and needs --trials >= {experiments.MIN_REGRESSION_RECORDS}"
        )
    seed = ctx.obj["seed"]
    out = _out_dir(ctx)
    kwargs = dict(threshold=threshold, alpha=alpha)
    extra: dict = {"study": study, "method": method}
    regression = None
    if study in ("1", "4a"):
        rm = datasets.load_benchmark()
        assignment, p_stat = experiments.run_pipeline(rm, method, seed=seed, **kwargs)
        records = [experiments._record(0, method, "benchmark", rm, p_stat)]
        summary = experiments.summarize(records)
        blocks, allowed = datasets.planted_blocks()
        extra["agreement"] = experiments.block_agreement(assignment, blocks, allowed)
    elif study in ("2", "4b"):
        rm = datasets.load_benchmark()
        records, summary = experiments.run_shuffle_audit(
            rm, method, trials, seed=seed, **kwargs
        )
    else:  # 3 or 4c
        records, summary = experiments.run_profile_audit(method, trials, seed=seed, **kwargs)
        if study == "3":
            regression = experiments.ols_regression(records)
    (out / "records.csv").write_text(CSV_HEADER + experiments.records_to_csv(records))
    _write_json(out / "summary.json", {**extra, **summary.__dict__})
    hist_lines = [CSV_HEADER.rstrip("\n"), "bin_lo,bin_hi,count"]
    hist_lines += [
        f"{lo:.2f},{hi:.2f},{count}"
        for lo, hi, count in experiments.histogram_counts(records)
    ]
    (out / "histogram.csv").write_text("\n".join(hist_lines) + "\n")
    if regression is not None:
        _write_json(
            out / "regression.json",
            {
                "predictors": list(regression.predictors),
                "predictor_basis": "generator profile parameters",
                "intercept": regression.intercept,
                "b": list(regression.b),
                "se": list(regression.se),
                "beta": list(regression.beta),
                "r_squared": regression.r_squared,
            },
        )
    _write_manifest(
        ctx, out, "audit",
        {"study": study, "method": method, "trials": trials,
         "threshold": threshold, "alpha": alpha},
    )
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
