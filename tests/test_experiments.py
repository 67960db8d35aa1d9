"""Audit orchestration, summaries, and the settings regression."""

import numpy as np
import pytest

from peeraudit import datasets, experiments
from peeraudit.experiments import (
    AuditSummary,
    RunRecord,
    block_agreement,
    histogram_counts,
    ols_regression,
    records_to_csv,
    run_pipeline,
    run_profile_audit,
    run_shuffle_audit,
    summarize,
)
from peeraudit.nullmodels import curveball_randomize, draw_classroom
from peeraudit.recall import RecallMatrix, parse_reports
from peeraudit.scm import GroupAssignment


def _rec(trial, p, **overrides):
    base = dict(
        trial=trial,
        method="scm-fifty",
        source="generate",
        n_children=20,
        n_reports=40,
        nomination_probability=0.2,
        nomination_skew=0.0,
        group_size_skew=0.0,
        realized_nomination_skew=0.0,
        realized_group_size_skew=0.0,
        p_stat=p,
    )
    base.update(overrides)
    return RunRecord(**base)


# --- summarize / histogram ------------------------------------------------


def test_summarize_basic():
    s = summarize([_rec(0, 0.0), _rec(1, 0.5), _rec(2, 1.0)])
    assert s == AuditSummary(3, pytest.approx(2 / 3), 0.5, pytest.approx(0.5), 0.0, 1.0)


def test_summarize_single_record():
    s = summarize([_rec(0, 0.0)])
    assert s.frac_positive == 0.0 and s.sd_p == 0.0
    assert s.mean_p == s.min_p == s.max_p == 0.0


def test_summarize_permutation_invariant():
    recs = [_rec(i, p) for i, p in enumerate([0.1, 0.9, 0.4, 0.4])]
    assert summarize(recs) == summarize(list(reversed(recs)))


def test_summarize_empty_is_error():
    with pytest.raises(ValueError):
        summarize([])


def test_histogram_counts():
    recs = [_rec(i, p) for i, p in enumerate([0.0, 0.02, 0.5, 1.0])]
    bins = histogram_counts(recs)
    assert len(bins) == 20
    assert bins[0] == (0.0, 0.05, 2)
    assert bins[-1][2] == 1  # P = 1 lands in the closed top bin
    assert sum(c for _, _, c in bins) == 4


# --- regression -----------------------------------------------------------


def test_regression_exact_linear_rule():
    rng = np.random.default_rng(30)
    recs = []
    for i in range(50):
        n_children = int(rng.integers(15, 40))
        recs.append(
            _rec(
                i,
                0.2 + 0.01 * n_children,
                n_children=n_children,
                n_reports=int(rng.integers(15, 200)),
                nomination_probability=float(rng.uniform(0.1, 0.45)),
                nomination_skew=float(rng.uniform(-1, 1)),
                group_size_skew=float(rng.uniform(-0.5, 2)),
            )
        )
    reg = ols_regression(recs)
    assert reg.b[0] == pytest.approx(0.01, abs=1e-9)
    for b in reg.b[1:]:
        assert b == pytest.approx(0.0, abs=1e-9)
    assert reg.r_squared == pytest.approx(1.0, abs=1e-9)


def test_regression_constant_outcome():
    rng = np.random.default_rng(31)
    recs = [
        _rec(
            i,
            0.5,
            n_children=int(rng.integers(15, 40)),
            n_reports=int(rng.integers(15, 200)),
            nomination_probability=float(rng.uniform(0.1, 0.45)),
            nomination_skew=float(rng.uniform(-1, 1)),
            group_size_skew=float(rng.uniform(-0.5, 2)),
        )
        for i in range(30)
    ]
    reg = ols_regression(recs)
    assert all(abs(b) < 1e-9 for b in reg.b)
    assert reg.r_squared == 0.0


def test_regression_standardized_equals_b_on_zscored_inputs():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(60, 5))
    x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    y = x @ np.array([0.5, -0.3, 0.2, 0.1, 0.05]) + rng.normal(0, 0.1, 60)
    y = (y - y.mean()) / y.std(ddof=1)
    recs = [
        _rec(
            i,
            float(y[i]),
            n_children=x[i, 0],
            n_reports=x[i, 1],
            nomination_probability=x[i, 2],
            nomination_skew=x[i, 3],
            group_size_skew=x[i, 4],
        )
        for i in range(60)
    ]
    reg = ols_regression(recs)
    assert np.allclose(reg.b, reg.beta, atol=1e-10)


def test_regression_needs_ten_records():
    with pytest.raises(ValueError):
        ols_regression([_rec(i, 0.1) for i in range(9)])


def test_regression_rank_deficient():
    with pytest.raises(ValueError):
        ols_regression([_rec(i, 0.1) for i in range(20)])


# --- audits ---------------------------------------------------------------


def test_run_pipeline_drops_never_named():
    # "pam" appears only via an explicit all-zero row
    rm = parse_reports("A,B,C\nA,B,C\nA,B\n")
    _, p = run_pipeline(rm, "scm-fifty")
    assert 0.0 <= p <= 1.0


def test_run_pipeline_unknown_method():
    rm = parse_reports("A,B\n")
    with pytest.raises(ValueError):
        run_pipeline(rm, "kmeans")


def _relabelled_classroom(seed):
    """``draw_classroom``'s classroom for ``seed``, the same matrix with its
    reports permuted, and the same with its children relabelled (rows and
    names permuted together)."""
    _, rm, _ = draw_classroom(np.random.default_rng(seed))
    rng = np.random.default_rng([seed, 1])
    rows = rng.permutation(rm.n_children)
    cols = rng.permutation(rm.n_reports)
    by_report = RecallMatrix(rm.children, rm.entries[:, cols])
    by_child = RecallMatrix(tuple(rm.children[i] for i in rows), rm.entries[rows])
    return rm, by_report, by_child


def test_pipelines_invariant_under_report_order_and_child_labels():
    for seed in range(40):
        rm, by_report, by_child = _relabelled_classroom(seed)
        for method in experiments.METHODS:
            groups, p_stat = run_pipeline(rm, method, seed=seed)
            # the fifty rule depends on the roster order; see the next test
            relabelled = [by_report] if method == "scm-fifty" else [by_report, by_child]
            for other in relabelled:
                other_groups, other_p = run_pipeline(other, method, seed=seed)
                assert other_p == p_stat, (seed, method)
                assert set(other_groups.groups) == set(groups.groups), (seed, method)


def test_fifty_rule_depends_on_roster_order():
    # the visit order breaks degree ties by roster position, so relabelling
    # the children of this classroom changes the groups and P
    rm, _, by_child = _relabelled_classroom(1)
    groups, p_stat = run_pipeline(rm, "scm-fifty")
    other_groups, other_p = run_pipeline(by_child, "scm-fifty")
    assert set(other_groups.groups) != set(groups.groups)
    assert other_p == pytest.approx(p_stat - 1 / 27)


def test_shuffle_audit_record_contract():
    rm = datasets.load_benchmark()
    records, summary = run_shuffle_audit(rm, "scm-fifty", 5, seed=3)
    assert [r.trial for r in records] == [0, 1, 2, 3, 4]
    assert all(r.source == "shuffle" for r in records)
    assert all(r.n_children in (25, 26) for r in records)
    assert summary.n_trials == 5


def test_shuffle_audit_records_equal_per_trial_records():
    # the margin fields come from one record measured on the input; each
    # must equal the record measured on that trial's own shuffle
    bench = datasets.load_benchmark()
    records, _ = run_shuffle_audit(bench, "scm-fifty", 20, seed=4)
    assert len(records) == 20
    for t, record in enumerate(records):
        shuffled = curveball_randomize(bench, seed=4 + t)
        _, p_stat = run_pipeline(shuffled, "scm-fifty", seed=4 + t)
        assert record == experiments._record(t, "scm-fifty", "shuffle", shuffled, p_stat)


def test_profile_audit_carries_targets_and_realized():
    records, summary, _ = run_profile_audit("scm-fifty", 12, seed=5)
    assert summary.n_trials == 12
    for r in records:
        assert r.source == "generate"
        assert 15 <= r.n_children <= 40
        assert -1.77 <= r.nomination_skew <= 1.99  # target, in sampled range
        assert np.isfinite(r.realized_nomination_skew)


def test_records_csv_recomputes_summary():
    records, summary = run_shuffle_audit(
        datasets.load_benchmark(), "scm-fifty", 8, seed=2
    )
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    p_idx = header.index("p_stat")
    p = np.array([float(line.split(",")[p_idx]) for line in lines[1:]])
    assert len(p) == 8
    assert summary.mean_p == pytest.approx(p.mean())
    assert summary.frac_positive == pytest.approx((p > 0).mean())


# --- planted benchmark ----------------------------------------------------


def test_benchmark_fixture_shape():
    rm = datasets.load_benchmark()
    assert rm.n_children == 26 and rm.n_reports == 61
    blocks, allowed = datasets.load_benchmark_blocks()
    assert len(blocks) == 5
    assert set().union(*blocks) | set(allowed) == set(rm.children)


def test_benchmark_fixture_matches_generator():
    rm = datasets.generate_planted_classroom(seed=11)
    fixture = datasets.load_benchmark()
    assert rm.children == fixture.children
    assert (rm.entries == fixture.entries).all()


def test_block_agreement_perfect_and_imperfect():
    blocks = [{"a", "b", "c"}, {"d", "e"}]
    allowed = {ch: {i} for i, blk in enumerate(blocks) for ch in blk}
    children = ("a", "b", "c", "d", "e")
    perfect = GroupAssignment(
        children, (frozenset({"a", "b", "c"}), frozenset({"d", "e"}))
    )
    assert block_agreement(perfect, blocks, allowed) == 1.0
    mixed = GroupAssignment(children, (frozenset({"a", "b", "d"}),))
    assert block_agreement(mixed, blocks, allowed) < 1.0
