"""Recall-matrix ingestion and validation."""

import re
from itertools import compress

import numpy as np
import pytest

from peeraudit import nullmodels
from peeraudit.recall import (
    MAX_CHILDREN,
    MAX_REPORTS,
    DataError,
    RecallMatrix,
    drop_never_named,
    load_reports,
    margins,
    parse_reports,
    to_report_lines,
    validate_scm_limits,
)


def test_two_reports_shape_and_column_sums():
    rm = parse_reports("A,B,C\nW,X,Y,Z\n")
    assert rm.entries.shape == (7, 2)
    assert rm.entries.sum(axis=0).tolist() == [3, 4]
    assert rm.children == ("A", "B", "C", "W", "X", "Y", "Z")


def test_single_member_report():
    rm = parse_reports("A\n")
    assert rm.children == ("A",)
    assert rm.entries.tolist() == [[1]]


def test_duplicate_member_is_error():
    with pytest.raises(DataError, match="duplicate"):
        parse_reports("A,B,A\n")


def test_comments_and_blank_lines_skipped():
    rm = parse_reports("# header\n\nA,B\n  # more\nB,C\n")
    assert rm.n_reports == 2
    assert rm.children == ("A", "B", "C")


def test_empty_file_is_error():
    with pytest.raises(DataError):
        parse_reports("")


def test_empty_token_is_error():
    with pytest.raises(DataError):
        parse_reports("A,,B\n")


def test_row_order_is_first_appearance():
    rm = parse_reports("B,A\nC,A\n")
    assert rm.children == ("B", "A", "C")


def test_report_roundtrip_identity():
    text = "A,B,C\nB,D\nA,D\n"
    rm = parse_reports(text)
    again = parse_reports(to_report_lines(rm))
    assert again.children == rm.children
    assert (again.entries == rm.entries).all()


def test_report_lines_reject_ids_that_parse_back_differently():
    entries = np.array([[1, 0], [1, 1]], dtype=np.int8)
    for child in ["a,b", "a#x", " a", "a\nb", "a\r", "a\x0bb", "a\u2028b", "a\t"]:
        with pytest.raises(DataError, match=re.escape(repr(child))):
            to_report_lines(RecallMatrix((child, "c"), entries))
    # inner whitespace survives the round trip
    rm = RecallMatrix(("ana b", "c"), entries)
    assert parse_reports(to_report_lines(rm)).children == rm.children


def test_load_reports_from_file(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("A,B\nC,A\n")
    rm = load_reports(path)
    assert rm.n_children == 3 and rm.n_reports == 2


def test_load_reports_drops_byte_order_mark(tmp_path):
    # spreadsheet programs save "CSV UTF-8" with a leading BOM
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("ana,bea\nana,cora\nbea,cora\n", encoding="utf-8")
    marked.write_text("ana,bea\nana,cora\nbea,cora\n", encoding="utf-8-sig")
    rm, rm_marked = load_reports(plain), load_reports(marked)
    assert rm_marked.children == rm.children == ("ana", "bea", "cora")
    assert np.array_equal(rm_marked.entries, rm.entries)


def test_validate_scm_limits_clean():
    rm = parse_reports("A,B\nB,C\n")
    assert validate_scm_limits(rm) == []


def test_validate_scm_limits_children_boundary():
    entries = np.ones((401, 1), dtype=np.int8)
    rm = RecallMatrix(tuple(f"c{i}" for i in range(401)), entries)
    warnings = validate_scm_limits(rm)
    assert len(warnings) == 2  # 401 children and a 401-member report
    assert any("children" in w for w in warnings)


def test_parse_reports_accepts_classrooms_at_the_limits():
    rm = parse_reports(",".join(f"c{i}" for i in range(MAX_CHILDREN)) + "\n")
    assert rm.n_children == MAX_CHILDREN
    # the SCM 4.0 limits stay warnings
    assert any("children" in w for w in validate_scm_limits(rm))
    rm = parse_reports("a,b\n" * MAX_REPORTS)
    assert rm.n_reports == MAX_REPORTS
    assert any("reports" in w for w in validate_scm_limits(rm))
    assert (nullmodels.MAX_CHILDREN, nullmodels.MAX_REPORTS) == (MAX_CHILDREN, MAX_REPORTS)


@pytest.mark.parametrize("text, limit", [
    (",".join(f"c{i}" for i in range(1001)) + "\n", "1000 children"),
    ("a,b\n" * 10_001, "10000 reports"),
])
def test_parse_reports_rejects_classrooms_past_the_limits(text, limit):
    with pytest.raises(DataError, match=limit):
        parse_reports(text)
    # raised while parsing: a malformed line after the limit is never read
    with pytest.raises(DataError, match=limit):
        parse_reports(text + "a,,b\n")


def test_validate_scm_limits_report_size_boundary():
    entries = np.zeros((21, 2), dtype=np.int8)
    entries[:, 0] = 1
    entries[0, 1] = 1
    rm = RecallMatrix(tuple(f"c{i}" for i in range(21)), entries)
    warnings = validate_scm_limits(rm)
    assert len(warnings) == 1 and "20" in warnings[0]


def test_drop_never_named():
    entries = np.array([[0, 0], [1, 0], [0, 0], [0, 1]], dtype=np.int8)
    rm = RecallMatrix(("pam", "b", "c", "d"), entries)
    kept, dropped = drop_never_named(rm)
    assert dropped == ["pam", "c"]
    assert kept.children == ("b", "d")
    # column sums untouched
    assert (kept.entries.sum(axis=0) == rm.entries.sum(axis=0)).all()


def test_drop_never_named_equals_the_checked_matrix():
    dropping = 0
    for seed in range(100):
        rm = nullmodels.draw_classroom(np.random.default_rng(seed))[1]
        kept, dropped = drop_never_named(rm)
        dropping += bool(dropped)
        named = rm.entries.any(axis=1)
        checked = RecallMatrix(tuple(compress(rm.children, named)), rm.entries[named])
        assert kept.children == checked.children
        assert np.array_equal(kept.entries, checked.entries)
        assert kept.entries.dtype == checked.entries.dtype
        assert kept.entries.flags.writeable == checked.entries.flags.writeable
        assert kept.entries.flags.c_contiguous
    assert dropping >= 10


def test_drop_never_named_identity():
    rm = parse_reports("A,B\nB,A\n")
    kept, dropped = drop_never_named(rm)
    assert dropped == [] and kept.children == rm.children


def test_drop_never_named_single_survivor():
    entries = np.array([[0], [1]], dtype=np.int8)
    rm = RecallMatrix(("a", "b"), entries)
    kept, dropped = drop_never_named(rm)
    assert kept.n_children == 1 and dropped == ["a"]


def test_margins():
    rm = parse_reports("A,B,C\nA,B\nA\n")
    rows, cols = margins(rm)
    assert rows.tolist() == [3, 2, 1]
    assert cols.tolist() == [3, 2, 1]
    assert rows.sum() == cols.sum() == rm.entries.sum()


def test_margins_all_ones():
    rm = RecallMatrix(("a", "b"), np.ones((2, 3), dtype=np.int8))
    rows, cols = margins(rm)
    assert rows.tolist() == [3, 3] and cols.tolist() == [2, 2, 2]


def test_matrix_invariants_enforced():
    with pytest.raises(DataError):
        RecallMatrix(("a", "a"), np.ones((2, 1), dtype=np.int8))
    with pytest.raises(DataError):
        RecallMatrix(("a", ""), np.ones((2, 1), dtype=np.int8))
    with pytest.raises(DataError):
        RecallMatrix(("a", "b"), np.array([[1, 0], [1, 0]], dtype=np.int8))
    with pytest.raises(DataError):
        RecallMatrix(("a", "b"), np.array([[2, 1], [1, 1]], dtype=np.int8))


@pytest.mark.parametrize("bad", [0.7, 257, -255, np.nan, np.inf, "1"])
def test_matrix_cells_checked_before_int8_cast(bad):
    # an int8 cast reads 0.7 as 0 and 257 and -255 as 1; NaN and inf have
    # no integer value; a string cell makes every cell a string
    with pytest.raises(DataError, match="0 or 1"):
        RecallMatrix(("a", "b"), np.array([[1, bad], [1, 1]]))


def test_entries_read_only():
    rm = parse_reports("A,B\n")
    with pytest.raises(ValueError):
        rm.entries[0, 0] = 0
