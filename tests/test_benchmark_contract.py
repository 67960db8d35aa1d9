"""The names the benchmark harness in ``auditbench/`` reaches into.

The harness traces audits by replacing module attributes by name and calls
some kernels directly, so renaming one of them breaks the benchmark
without failing any other test.
"""

import inspect
import pathlib

import numpy as np
import pytest

import peeraudit
from peeraudit import (
    _kernels, backbone, cli, communities, datasets, experiments, nullmodels, recall, scm,
)

AUDITBENCH = pathlib.Path(__file__).resolve().parents[1] / "auditbench"


def test_benchmark_tracer_attaches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(AUDITBENCH))
    import layers
    import spans

    originals = {name: getattr(communities, name)
                 for name in ("maximize_modularity", "exact_partition_dp")}
    tracer = spans.Tracer()
    layers.attach(tracer)
    try:
        # one traced pipeline run feeds every patched call its real arguments
        experiments.run_pipeline(datasets.load_benchmark(), "becd", seed=0)
    finally:
        tracer.restore()
    assert tracer.named("communities.maximize_modularity")
    assert tracer.named("_kernels.exact_partition_dp")
    for name, fn in originals.items():
        assert getattr(communities, name) is fn
    # the kernel timings call the DP with the network alone
    inspect.signature(_kernels.exact_partition_dp).bind(np.zeros((2, 2)))
    assert isinstance(peeraudit.BACKEND, str)


def test_benchmark_tracer_sees_the_classroom_generator(monkeypatch):
    # generate-scm and generate-becd time the generator through these two
    # names; inlining either into draw_classroom would empty that layer
    monkeypatch.syspath_prepend(str(AUDITBENCH))
    import layers
    import spans

    originals = {name: getattr(nullmodels, name)
                 for name in ("generate_classroom", "sample_profile")}
    tracer = spans.Tracer()
    layers.attach(tracer)
    try:
        records, _ = experiments.run_profile_audit("scm-fifty", 1)
    finally:
        tracer.restore()
    assert len(records) == 1
    assert len(tracer.named("nullmodels.generate_classroom")) == 1
    assert len(tracer.named("nullmodels.sample_profile")) == 1
    for name, fn in originals.items():
        assert getattr(nullmodels, name) is fn


@pytest.mark.parametrize("study", ["2", "4c"])
def test_benchmark_traced_audit_spans_each_trial_and_restores(tmp_path, monkeypatch, study):
    # every untraced benchmark run is paired with a traced one through the
    # CLI; a name that attach no longer finds would fail that run
    monkeypatch.syspath_prepend(str(AUDITBENCH))
    import layers
    import spans

    owners = (experiments, nullmodels, recall, recall.RecallMatrix, scm, backbone, communities)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    layers.attach(tracer)
    try:
        main = tracer.wrap("cli.main", cli.main)
        code = main(["--out", str(tmp_path), "audit", "--study", study, "--trials", "2"])
    finally:
        tracer.restore()
    assert code == 0
    per_trial = ["experiments.trial"]
    if study == "4c":  # inlining the fit or the kernel would empty its layer
        per_trial += ["backbone.fit_bicm", "_kernels.dyad_pvalues"]
    for name in per_trial:
        assert len(tracer.named(name)) == 2, name
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys()
        assert all(after[name] is value for name, value in attrs.items()), owner
