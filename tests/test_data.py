"""Database parsing, exact supports, thresholds, and synthesis."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qarm import data
from qarm import (
    FimiParseError,
    Itemset,
    TransactionDB,
    exact_support,
    parse_fimi,
    serialize_fimi,
    support_threshold,
    synth_db,
)
from conftest import random_db


def test_parse_two_lines():
    db = parse_fimi("0 2 3\n1\n")
    assert db.n_transactions == 2
    assert db.n_items == 4
    assert db.row(0) == (0, 2, 3)
    assert db.row(1) == (1,)


def test_parse_duplicate_collapse():
    db = parse_fimi("5\n5 5\n")
    assert db.n_transactions == 2
    assert db.n_items == 6
    assert db.row(0) == (5,)
    assert db.row(1) == (5,)


def test_parse_skips_blank_lines():
    db = parse_fimi("1 2\n\n   \n3\n")
    assert db.n_transactions == 2
    assert db.row(1) == (3,)


def test_parse_rejects_non_integer_with_line_number():
    with pytest.raises(FimiParseError, match="line 2"):
        parse_fimi("1 2\n3 x\n")


def test_parse_rejects_negative():
    with pytest.raises(FimiParseError):
        parse_fimi("1 -2\n")


def test_parse_rejects_empty_input():
    with pytest.raises(FimiParseError, match="no transactions"):
        parse_fimi("\n  \n")


@settings(max_examples=60)
@given(rows=st.lists(st.lists(st.integers(0, 5000), min_size=1, max_size=8),
                     min_size=1, max_size=12))
def test_roundtrip_random(rows):
    # parsed databases have no empty rows, so serialize o parse is stable
    db = TransactionDB.from_rows(rows)
    assert parse_fimi(serialize_fimi(db)) == db


# One FIMI line: ids with their spelling, the whitespace around and between
# them, and its terminator.  The spellings beyond plain digits are ones
# Python's int() reads, which only the line parser accepts.
_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
_FANCY_SPACE = st.sampled_from(["\u00a0", " \u3000"])


@st.composite
def _fimi_line(draw, fast):
    ids = draw(st.lists(st.integers(0, 5000), max_size=6))
    sep = _SPACE if fast else st.one_of(_SPACE, _FANCY_SPACE)
    tokens = []
    for v in ids:
        tok = "0" * draw(st.integers(0, 3)) + str(v)
        if not fast:
            style = draw(st.sampled_from(["plain", "plus", "underscore", "wide"]))
            if style == "plus":
                tok = "+" + tok
            elif style == "underscore" and len(tok) > 1:
                tok = tok[0] + "_" + tok[1:]
            elif style == "wide":
                tok = tok.translate({ord("0") + d: 0xFF10 + d for d in range(10)})
        tokens.append(tok)
    body = "".join(draw(sep) + tok for tok in tokens) + draw(st.sampled_from(["", " ", "\t"]))
    return ids, body


@st.composite
def _fimi_text(draw, fast):
    lines = draw(st.lists(_fimi_line(fast), min_size=1, max_size=10))
    ends = st.just("\n") if fast else st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(body + draw(ends) for _, body in lines)
    if draw(st.booleans()):  # no final newline
        text = text.rstrip("\r\n")
    return [ids for ids, _ in lines if ids], text


def _outcome(parse, text):
    try:
        return parse(text)
    except FimiParseError as exc:
        return str(exc)


@settings(max_examples=150)
@given(case=_fimi_text(fast=True), block=st.sampled_from([1, 2, 3, 5, 8, 1 << 20]))
@example(case=([[12, 345, 6789], [1], [7]], "12 345 6789\n1\n\n \t7"), block=4)
def test_block_parser_matches_line_parser(case, block):
    rows, text = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_PARSE_BLOCK", block)  # cuts land mid-file
        fast = _outcome(data._parse_fimi_blocks, text)
    assert fast is not None
    assert fast == _outcome(data._parse_fimi_lines, text)
    if rows:
        assert fast == TransactionDB.from_rows(rows)
    else:
        assert fast == "no transactions"


@settings(max_examples=100)
@given(case=_fimi_text(fast=False))
def test_parse_reads_what_int_reads(case):
    # '+', '_', wide digits, NBSP and '\r' leave the fast path; the line
    # parser reads them as it always has
    rows, text = case
    expected = TransactionDB.from_rows(rows) if rows else "no transactions"
    assert _outcome(parse_fimi, text) == expected


@settings(max_examples=80)
@given(before=_fimi_text(fast=False), tail=st.sampled_from(["", "8 9", "y\n-1\n"]),
       bad=st.sampled_from(["x", "1x", "_5", "5_", "1__0", "3.0", "0x1f", "1e3",
                            "\u00b2", "\u00e9", "-3", "-12"]),
       where=st.integers(0, 3))
def test_parse_errors_name_the_first_bad_line(before, tail, bad, where):
    head = before[1] + "\n"
    line = " ".join(["4", "5", "6"][:where] + [bad] + ["7"])
    lineno = len(head.splitlines()) + 1
    if bad.startswith("-"):
        message = f"line {lineno}: negative item id {bad}"
    else:
        message = f"line {lineno}: non-integer token {bad!r}"
    with pytest.raises(FimiParseError) as err:
        parse_fimi(head + line + "\n" + tail)
    assert str(err.value) == message


def test_long_ids_take_the_line_parser():
    text = "1 " + "0" * 18 + "7\n"
    assert data._parse_fimi_blocks(text) is None
    assert parse_fimi(text).row(0) == (1, 7)


def test_exact_support_dtoy(dtoy):
    assert exact_support(dtoy, Itemset.of(0)).value == Fraction(3, 4)
    assert exact_support(dtoy, Itemset.of([0, 1])).value == Fraction(2, 4)
    assert exact_support(dtoy, Itemset.of([0, 1, 2])).value == Fraction(1, 4)


def test_exact_support_out_of_range(dtoy):
    with pytest.raises(ValueError):
        exact_support(dtoy, Itemset.of(3))


def test_support_monotone_and_singleton_column_sums():
    rng = np.random.default_rng(11)
    for _ in range(25):
        db = random_db(rng, int(rng.integers(2, 14)), int(rng.integers(2, 7)))
        dense = db.dense()
        for j in range(db.n_items):
            assert exact_support(db, Itemset.of(j)).numerator == dense[:, j].sum()
        # X subset of Y implies supp(X) >= supp(Y)
        items = list(rng.permutation(db.n_items)[:3])
        if len(items) < 2:
            continue
        x = Itemset.of(items[:2])
        y = Itemset.of(items[:2] + items[2:])
        assert exact_support(db, x).value >= exact_support(db, y).value


def test_itemset_canonicalization():
    assert Itemset.of([3, 1, 1, 2]).items == (1, 2, 3)
    assert Itemset.of(5).items == (5,)
    assert len(Itemset.of([4, 0])) == 2
    with pytest.raises(ValueError):
        Itemset(())
    with pytest.raises(ValueError):
        Itemset((2, 2))
    with pytest.raises(ValueError):
        Itemset((3, 1))
    with pytest.raises(ValueError):
        Itemset.of(-1)


def test_itemset_subsets_and_union():
    x = Itemset.of([0, 2, 5])
    assert set(x.subsets(2)) == {Itemset.of([0, 2]), Itemset.of([0, 5]),
                                 Itemset.of([2, 5])}


def test_db_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        TransactionDB(np.array([0, 2]), np.array([1, 1]), 3)  # duplicate in row
    with pytest.raises(ValueError):
        TransactionDB(np.array([0, 2]), np.array([2, 1]), 3)  # unsorted row
    with pytest.raises(ValueError):
        TransactionDB(np.array([0, 1]), np.array([5]), 3)  # item out of range
    # the same items split across rows are fine
    db = TransactionDB(np.array([0, 1, 2]), np.array([1, 1]), 3)
    assert db.row(0) == db.row(1) == (1,)


def test_bitset_support_matches_dense(dtoy):
    assert dtoy.column_bitset(0).bit_count() == 3
    assert dtoy.support_bitset(Itemset.of([0, 1])).bit_count() == 2
    mask = dtoy.contains_all(Itemset.of([0, 1]))
    assert mask.tolist() == [True, True, False, False]


def test_present_items(dtoy):
    assert dtoy.present_items() == [0, 1, 2]
    db = TransactionDB.from_rows([[1], [1, 3]], n_items=5)
    assert db.present_items() == [1, 3]


def test_support_threshold_forms():
    assert support_threshold("1%") == Fraction(1, 100)
    assert support_threshold("2.5%") == Fraction(1, 40)
    assert support_threshold("1/2") == Fraction(1, 2)
    assert support_threshold("0.5") == Fraction(1, 2)
    assert support_threshold(0.01) == Fraction(1, 100)  # not the float bits
    assert support_threshold(Fraction(3, 7)) == Fraction(3, 7)
    assert support_threshold(1) == Fraction(1)
    for bad in ("0", "1.5", "-1/2", "abc", "1/0", 0.0, 2.0):
        with pytest.raises(ValueError):
            support_threshold(bad)


def test_synth_db_singletons_exact():
    db = synth_db(4, 2, {(0,): Fraction(1, 2)}, seed=3)
    assert exact_support(db, Itemset.of(0)).value == Fraction(1, 2)
    db = synth_db(4, 1, {(0,): 1}, seed=3)
    assert exact_support(db, Itemset.of(0)).value == 1


def test_synth_db_infeasible_targets():
    with pytest.raises(ValueError):
        synth_db(4, 1, {(0,): Fraction(1, 3)}, seed=0)  # 4/3 rows
    with pytest.raises(ValueError):
        synth_db(4, 1, {(0,): Fraction(3, 2)}, seed=0)
    with pytest.raises(ValueError):
        synth_db(4, 1, {(1,): Fraction(1, 2)}, seed=0)  # item out of range


def test_synth_db_pair_target_post_checked():
    # a pair target cannot be met exactly by per-item fill, so it is refused
    # up front rather than reported back as a best-effort figure
    with pytest.raises(ValueError, match="not a single item"):
        synth_db(8, 2, {(0,): Fraction(1, 2), (1,): Fraction(1, 2),
                        (0, 1): Fraction(1, 4)}, seed=9)
    db = synth_db(8, 2, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}, seed=9)
    assert exact_support(db, Itemset.of(0)).value == Fraction(1, 2)
    assert exact_support(db, Itemset.of(1)).value == Fraction(1, 2)


def test_synth_db_background_density():
    db = synth_db(32, 4, {}, seed=5, background_density=0.5)
    total = sum(len(r) for r in db.rows())
    assert 0 < total < 32 * 4
