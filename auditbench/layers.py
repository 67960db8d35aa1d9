"""The layers of peeraudit as the benchmark sees them.

``attach`` traces every name through which one module of ``peeraudit``
calls into another; ``metrics`` turns the spans of traced audits into the
per-layer figures; ``kernel_timings`` times the public kernels on the
shapes that audits feed them. Imported only inside workload processes.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse.csgraph import connected_components

# modules whose own time (span minus child spans) is reported per trial
SELF_TIME_MODULES = ("nullmodels", "recall", "scm", "backbone", "communities", "_kernels")


def _largest_component(net) -> int:
    n_comp, labels = connected_components(np.asarray(net) != 0, directed=False)
    return int(np.bincount(labels).max()) if n_comp else 0


def _upper_edges(net) -> int:
    return int(np.count_nonzero(np.triu(np.asarray(net), 1)))


def _modularity_call(args, kwargs, result):
    from peeraudit import communities

    net = np.asarray(args[0] if args else kwargs["net"])
    exact_max_n = kwargs.get("exact_max_n", args[3] if len(args) > 3 else communities.EXACT_MAX_N)
    forced = kwargs.get("force_heuristic", args[4] if len(args) > 4 else False)
    return {"louvain": bool(forced or net.shape[0] > exact_max_n), "net": net}


def _dyad_call(args, kwargs, result):
    n, m = np.shape(args[0])
    return n * (n - 1) // 2 * m * (m + 1) // 2


def attach(tracer) -> None:
    """Patch the call sites of every layer; ``tracer.restore()`` undoes it."""
    from peeraudit import backbone, communities, experiments, nullmodels, recall, scm

    t = tracer
    t.patch(experiments, "run_shuffle_audit", "experiments.audit")
    t.patch(experiments, "run_profile_audit", "experiments.audit")

    run_trials = experiments._run_trials

    def dispatch(worker, *args, **kwargs):
        return run_trials(t.wrap("experiments.trial", worker), *args, **kwargs)

    t.replace(experiments, "_run_trials", t.wrap("experiments._run_trials", dispatch))
    for name in ("run_pipeline", "_record", "summarize", "records_to_csv",
                 "histogram_counts", "ols_regression"):
        t.patch(experiments, name, f"experiments.{name}")
    t.patch(experiments, "drop_never_named", "recall.drop_never_named")
    t.patch(recall.RecallMatrix, "__post_init__", "recall.RecallMatrix")

    for name in ("curveball_randomize", "sample_profile", "generate_classroom"):
        t.patch(nullmodels, name, f"nullmodels.{name}")

    for name in ("scm_groups", "cooccurrence", "similarity",
                 "identify_groups_fifty_percent", "membership_statistic"):
        t.patch(scm, name, f"scm.{name}")
    t.patch(scm, "threshold_network", "scm.threshold_network",
            info=lambda a, k, result: _upper_edges(result))
    t.patch(backbone, "cooccurrence", "scm.cooccurrence")

    t.patch(communities, "becd_groups", "communities.becd_groups")
    t.patch(communities, "extract_backbone", "backbone.extract_backbone",
            info=lambda a, k, result: _upper_edges(result.network))
    t.patch(backbone, "fit_bicm", "backbone.fit_bicm")
    t.patch(backbone, "_dyad_pvalues", "_kernels.dyad_pvalues", info=_dyad_call)
    t.patch(communities, "maximize_modularity", "communities.maximize_modularity",
            info=_modularity_call)
    t.patch(communities, "exact_partition_dp", "_kernels.exact_partition_dp")


def metrics(tracer, n_resampled: int) -> dict[str, tuple[float, str]]:
    """Per-trial figures over every traced audit; name -> (value, unit)."""
    spans = tracer.spans
    trials = tracer.named("experiments.trial")
    n = len(trials)
    if n == 0:
        return {}

    def ms(seconds: float) -> float:
        return seconds * 1e3 / n

    def inclusive(name: str) -> float:
        return ms(sum(s.duration for s in tracer.named(name)))

    def per_trial(values) -> float:
        return sum(values) / n

    out: dict[str, tuple[float, str]] = {}
    modularity = tracer.named("communities.maximize_modularity")
    out["communities.maximize_modularity.ms"] = (inclusive("communities.maximize_modularity"), "ms")
    out["communities.louvain_frac"] = (
        sum(s.info["louvain"] for s in modularity) / len(modularity) if modularity else 0.0,
        "frac",
    )
    out["communities.largest_component.p95"] = (
        float(np.percentile([_largest_component(s.info["net"]) for s in modularity], 95))
        if modularity else 0.0,
        "vertices",
    )
    out["_kernels.exact_partition_dp.calls"] = (
        len(tracer.named("_kernels.exact_partition_dp")) / n, "count")
    out["_kernels.dyad_pvalues.ms"] = (inclusive("_kernels.dyad_pvalues"), "ms")
    out["_kernels.dyad_pvalues.mcells"] = (
        per_trial(s.info for s in tracer.named("_kernels.dyad_pvalues")) / 1e6, "Mcell-computed")
    out["backbone.fit_bicm.ms"] = (inclusive("backbone.fit_bicm"), "ms")
    extract = tracer.named("backbone.extract_backbone")
    out["backbone.extract_backbone.self_ms"] = (ms(sum(map(tracer.self_time, extract))), "ms")
    out["backbone.edges"] = (per_trial(s.info for s in extract), "count")
    out["scm.identify_groups_fifty_percent.ms"] = (
        inclusive("scm.identify_groups_fifty_percent"), "ms")
    out["scm.similarity.ms"] = (inclusive("scm.similarity"), "ms")
    out["scm.network_edges"] = (
        per_trial(s.info for s in tracer.named("scm.threshold_network")), "count")
    out["nullmodels.curveball_randomize.ms"] = (inclusive("nullmodels.curveball_randomize"), "ms")
    out["nullmodels.generate_classroom.ms"] = (inclusive("nullmodels.generate_classroom"), "ms")
    out["nullmodels.resampled"] = (n_resampled / n, "count")
    trial_ms = [s.duration * 1e3 for s in trials]
    out["experiments.trial_ms.p50"] = (float(np.percentile(trial_ms, 50)), "ms")
    out["experiments.trial_ms.p95"] = (float(np.percentile(trial_ms, 95)), "ms")
    out["experiments.self_ms"] = (
        ms(sum(s.duration - tracer.foreign_time(s) for s in trials)), "ms")
    audit_time = sum(
        spans[c].duration
        for s in tracer.named("cli.main")
        for c in s.children
        if spans[c].name == "experiments.audit"
    )
    out["cli.write_ms"] = (inclusive("cli.main") - ms(audit_time), "ms")
    # what an audit costs beyond its trials: parsing, set-up, dispatch,
    # summary and output files; it shrinks as audits get longer
    main_time = sum(s.duration for s in tracer.named("cli.main"))
    out["cli.per_audit_frac"] = (1.0 - sum(s.duration for s in trials) / main_time, "frac")
    for module in SELF_TIME_MODULES:
        out[f"{module}.self_ms"] = (
            ms(sum(tracer.self_time(s) for s in spans if s.module == module)), "ms")
    return out


def _fastest_ms(fn, *args, repeat: int) -> float:
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _classroom(rng, n: int, m: int):
    cell_p = rng.uniform(0.02, 0.5, size=(n, m))
    entries = (rng.random((n, m)) < cell_p).astype(np.int64)
    return cell_p, entries @ entries.T


def kernel_timings(seed: int) -> dict[str, tuple[float, str]]:
    """The public kernels on fixed seeded inputs of the shapes audits use:
    the committed 26x61 classroom, the largest generated one (40x200), and
    the largest network the exact modularity solver takes (n=12)."""
    from peeraudit import _kernels

    rng = np.random.default_rng(seed)
    small = _classroom(rng, 26, 61)
    large = _classroom(rng, 40, 200)
    net = np.triu((rng.random((12, 12)) < 0.35).astype(np.int64), 1)
    net = net + net.T
    return {
        "_kernels.dyad_pvalues.ms.26x61": (_fastest_ms(_kernels.dyad_pvalues, *small, repeat=15), "ms"),
        "_kernels.dyad_pvalues.ms.40x200": (_fastest_ms(_kernels.dyad_pvalues, *large, repeat=5), "ms"),
        "_kernels.exact_partition_dp.ms.n12": (
            _fastest_ms(_kernels.exact_partition_dp, net, repeat=3), "ms"),
    }
