"""The names the benchmark harness in ``auditbench/`` reaches into.

The harness traces audits by replacing module attributes by name and calls
some kernels directly, so renaming one of them breaks the benchmark
without failing any other test.
"""

import inspect
import pathlib

import numpy as np

import peeraudit
from peeraudit import _kernels, communities, datasets, experiments

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
