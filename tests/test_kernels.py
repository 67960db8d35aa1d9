"""Compiled and fallback kernels must agree exactly."""

import numpy as np
import pytest

from peeraudit._kernels import BACKEND, _fallback

speedups = pytest.importorskip(
    "peeraudit._kernels._speedups",
    reason="compiled extension not built; fallback-only install",
)


def test_backend_selected():
    assert BACKEND in ("compiled", "python")


def test_pb_upper_tail_parity():
    rng = np.random.default_rng(40)
    for _ in range(50):
        m = int(rng.integers(1, 60))
        probs = rng.uniform(0, 1, size=m)
        k = int(rng.integers(0, m + 1))
        a = _fallback.pb_upper_tail(probs, k)
        b = speedups.pb_upper_tail(probs, k)
        assert a == pytest.approx(b, abs=1e-14)


def test_dyad_pvalues_parity():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(3, 15))
        m = int(rng.integers(5, 40))
        cell_p = rng.uniform(0.01, 0.6, size=(n, m))
        entries = (rng.random((n, m)) < cell_p).astype(np.int64)
        cooc = entries @ entries.T
        a = np.asarray(_fallback.dyad_pvalues(cell_p, cooc))
        b = np.asarray(speedups.dyad_pvalues(cell_p, cooc))
        assert np.allclose(a, b, atol=1e-13)
        assert (np.diag(a) == 1.0).all()


def test_exact_partition_parity():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        net = (rng.random((n, n)) < 0.4).astype(np.int64)
        net = np.triu(net, 1)
        net = net + net.T
        # None: net's own 2m; otherwise net as a component of a larger network
        for two_m in (None, float(net.sum() + 6)):
            la, qa = _fallback.exact_partition_dp(net, two_m=two_m)
            lb, qb = speedups.exact_partition_dp(net, two_m=two_m)
            assert qa == pytest.approx(qb, abs=1e-12)
            assert (np.asarray(la) == np.asarray(lb)).all()
