"""Database parsing, exact supports, thresholds, and synthesis."""

import copy
import pickle
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qarm.classical
import qarm.constants
import qarm.cli
import qarm.mining
from qarm import data
from qarm import (
    FimiParseError,
    Itemset,
    TransactionDB,
    cand_gen,
    exact_support,
    parse_fimi,
    support_threshold,
    synth_db,
)
from qarm.data import level_supports
from conftest import CALL_BYTES, random_candidates, random_db, traced_peak


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
    # parsed databases have no empty rows, so write o parse is stable
    db = TransactionDB.from_rows(rows)
    assert parse_fimi("".join(" ".join(map(str, row)) + "\n" for row in db.rows())) == db


@st.composite
def _entries(draw):
    # (row, id) pairs in any order, repeats among them, over n_rows rows,
    # some of them (trailing ones too) empty; small ids as int32, or int64
    # ids up to the largest a database takes
    n_rows = draw(st.integers(1, 12))
    wide = draw(st.booleans())
    ids = st.integers(0, 2 ** 63 - 2) if wide else st.integers(0, 20)
    pairs = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), ids), max_size=40))
    if pairs and draw(st.booleans()):
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    return n_rows, draw(st.permutations(pairs)), np.int64 if wide else np.int32


@settings(max_examples=150)
@given(case=_entries())
@example(case=(5, [(1, 3), (0, 2), (1, 3), (1, 0)], np.int32))
def test_canonical_rows_sort_and_dedupe_each_row(case):
    n_rows, pairs, dtype = case
    rows = np.array([r for r, _ in pairs], dtype=dtype)
    ids = np.array([j for _, j in pairs], dtype=dtype)
    indptr, indices = data._canonical_rows(rows, ids, n_rows)
    expected = [sorted({j for r, j in pairs if r == i}) for i in range(n_rows)]
    assert indptr.dtype == np.int64 and indices.dtype == dtype
    assert indptr.tolist() == np.cumsum([0] + [len(row) for row in expected]).tolist()
    assert indices.tolist() == [j for row in expected for j in row]


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


# numpy's reader saturates an id past int64 instead of failing, so every id
# of 10**18 or more must reach the line parser, which reads it exactly; a
# zero-padded small id is read exactly by the block parser
@pytest.mark.parametrize("text, fast, expected", [
    ("1 " + "9" * 18 + "\n", True, [(1, 10 ** 18 - 1)]),
    ("1 " + "0" * 18 + "7\n", True, [(1, 7)]),
    ("1 " + "9" * 20 + "\n", False, "line 1: item id 99999999999999999999 too large"),
    (f"1\n5 {2 ** 63 - 1}\n", False, f"line 2: item id {2 ** 63 - 1} too large"),
    (f"1\n5 {2 ** 63 - 2}\n", False, [(1,), (5, 2 ** 63 - 2)]),
    # under a 4-byte block the zero-padded id is only in the fifth block
    ("3 4\n" * 4 + "5 " + "0" * 18 + "6\n", True, [(3, 4)] * 4 + [(5, 6)]),
    # and 10**18, the least id the line parser must read, only in the fifth
    ("3 4\n" * 4 + "5 1" + "0" * 18 + "\n", False, [(3, 4)] * 4 + [(5, 10 ** 18)]),
], ids=["18-digits", "padded-19-digits", "20-digits", "2**63-1", "2**63-2", "later-block",
        "later-block-10**18"])
@pytest.mark.parametrize("block", [4, 1 << 20])
def test_long_ids_take_the_line_parser(monkeypatch, text, fast, expected, block):
    monkeypatch.setattr(data, "_PARSE_BLOCK", block)
    assert (data._parse_fimi_blocks(text) is not None) == fast
    got = _outcome(parse_fimi, text)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert list(got.rows()) == expected
        assert got.n_items == 1 + max(map(max, expected))


# bytes parse_fimi allocates, rounded up from tracemalloc peaks: per item
# (the blocks' int64 ids, their joined copy and the constructor's bool
# order mask), per row (the blocks' int64 row lengths, their joined copy,
# indptr and a bool mask), per byte of a block (its str slice and bytes,
# the token text and the block's int64 tokens, ids and sort: 23.2 at
# one-digit unsorted ids, 6 to 9 at four digits), and np.fromstring's first
# buffer of 4096 int64 tokens.  One byte per text byte covers the arrays
# and list slots each block leaves (about 320 bytes a block; every block
# here is over half a block long).  The largest id adds 8 bytes of column
# count per item id.
_PARSE_ITEM_BYTES, _PARSE_ROW_BYTES, _PARSE_BLOCK_BYTES = 17, 25, 24
_READER_BYTES = 4096 * 8


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), block=st.sampled_from([1 << 10, 1 << 12]),
       digits=st.integers(1, 4), canon=st.booleans())
def test_parse_bytes_bound(seed, block, digits, canon):
    # a text of many blocks and short lines: up to 11 ids below 10**digits
    # a line, unsorted and repeated unless canon, with blank lines and tabs
    rng = np.random.default_rng(seed)
    lines = []
    for length in rng.integers(0, 12, int(rng.integers(1000, 6000))).tolist():
        ids = rng.integers(0, 10 ** digits, length)
        sep = str(rng.choice([" ", "\t", " \t "]))
        lines.append(sep.join(map(str, (np.unique(ids) if canon else ids).tolist())))
    text = "\n".join(lines) + "\n"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_PARSE_BLOCK", block)
        db = parse_fimi(text)
        peak = traced_peak(lambda: parse_fimi(text))
    bound = (len(text) + _PARSE_ITEM_BYTES * db._indices.size
             + _PARSE_ROW_BYTES * db.n_transactions + 8 * db.n_items
             + _PARSE_BLOCK_BYTES * block + _READER_BYTES)
    assert peak <= bound + CALL_BYTES


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
    assert Itemset.of([3, 1, 1, 2]) == (1, 2, 3)
    assert Itemset.of(5) == (5,)
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


_ITEM_TUPLES = st.lists(st.integers(0, 12), min_size=1, max_size=4,
                        unique=True).map(lambda items: tuple(sorted(items)))


@given(a=_ITEM_TUPLES, b=_ITEM_TUPLES, pool=st.lists(_ITEM_TUPLES, max_size=8),
       loose=st.lists(st.integers(0, 12), min_size=1, max_size=6))
def test_itemset_is_its_tuple(a, b, pool, loose):
    x, y = Itemset(a), Itemset(b)
    assert x == a and hash(x) == hash(a)
    assert (x == y) == (a == b) and (x < y) == (a < b) and (x <= y) == (a <= b)
    # mixed sizes sort as their tuples do
    assert [tuple(z) for z in sorted(map(Itemset, pool))] == sorted(pool)
    assert Itemset.of(loose) == Itemset.of(*loose) == tuple(sorted(set(loose)))
    copies = [copy.deepcopy(x)] + [pickle.loads(pickle.dumps(x, protocol))
                                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(type(c) is Itemset and c == x for c in copies)
    assert repr(x) == f"Itemset({a!r})" and str(x) == "{" + ",".join(map(str, a)) + "}"
    with pytest.raises(ValueError, match="^itemset must be nonempty$"):
        Itemset(())
    negative = (-1,) + a
    with pytest.raises(ValueError,
                       match=re.escape(f"item indices must be non-negative: {negative}")):
        Itemset(negative)
    repeated = a + (a[-1],)
    with pytest.raises(ValueError,
                       match=re.escape(f"items must be strictly increasing: {repeated}")):
        Itemset(repeated)


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


# Each refusal and edge branch no other test reaches, with what it must
# raise (an exception, matched by type and message) or return.
EDGES = [
    ("support-denominator", lambda: data.ExactSupport(0, 0),
     ValueError("denominator must be >= 1")),
    ("support-numerator", lambda: data.ExactSupport(3, 2),
     ValueError("numerator 3 outside [0, 2]")),
    ("level-1-d", lambda: data.as_level(np.array([0, 1], dtype=np.int32)),
     ValueError("a level must be a 2-d integer array")),
    ("level-float", lambda: data.as_level(np.zeros((1, 2))),
     ValueError("a level must be a 2-d integer array")),
    ("indptr-start", lambda: TransactionDB([1, 1], [], 1),
     ValueError("indptr must be 1-d, start at 0, with >= 1 row")),
    ("indptr-end", lambda: TransactionDB([0, 2, 1], [0, 1], 2),
     ValueError("indptr must be nondecreasing and end at nnz")),
    ("n-items", lambda: TransactionDB([0, 0], [], 0), ValueError("n_items must be >= 1")),
    ("rows-none", lambda: TransactionDB.from_rows([]), ValueError("no transactions")),
    ("rows-negative", lambda: TransactionDB.from_rows([[2, -1]]),
     ValueError("item indices must be non-negative")),
    ("rows-empty", lambda: TransactionDB.from_rows([[], []]),
     ValueError("cannot infer n_items from empty rows")),
    # 2**13 empty rows over 2**14 items: 2**27 cells, twice the guard
    ("dense-guard", lambda: TransactionDB(np.zeros(2 ** 13 + 1), [], 2 ** 14).dense(),
     ValueError(f"dense matrix of {2 ** 27} cells exceeds guard")),
    ("synth-size", lambda: synth_db(0, 3, {}, seed=0), ValueError("n and m must be >= 1")),
    ("sample-empty-level", lambda: qarm.classical.sampling_estimate(
        TransactionDB.from_rows([[0]]), np.zeros((0, 2), dtype=np.int32), 5, 0).tolist(), []),
    ("gamma-none-frequent", lambda: qarm.cli._gamma_dict(
        [qarm.classical.IterationStats(1, 3, 0), qarm.classical.IterationStats(2, 1, 0)]), None),
    ("draw-weights", lambda: qarm.mining._weights_cdf(np.array([1.0, -1.0, 1.0])),
     ValueError("draw weights must be finite, non-negative and sum to 1")),
]


@pytest.mark.parametrize("call, expect", [edge[1:] for edge in EDGES],
                         ids=[edge[0] for edge in EDGES])
def test_refusals_and_edge_branches(call, expect):
    if isinstance(expect, Exception):
        with pytest.raises(type(expect)) as exc:
            call()
        assert str(exc.value) == str(expect)
    else:
        assert call() == expect


def test_column_counts_are_not_copied():
    # the column counts are kept over the ids that occur, never over
    # n_items = 1 + the largest id, so ids up to 10**6 allocate far less
    # than one int64 each
    n_items = 10 ** 6 + 1
    peak = traced_peak(lambda: TransactionDB.from_rows([[1, 2], [n_items - 1]]))
    assert peak < 1.25 * 8 * n_items


def _recoded(rows, n_items, ids_per_entry):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_RECODE_IDS_PER_ENTRY", ids_per_entry)
        return TransactionDB.from_rows(rows, n_items=n_items)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 70), spread=st.integers(1, 3),
       density=st.sampled_from([0.0, 0.1, 0.5, 0.9]))
def test_both_recodings_build_one_database(seed, n_rows, spread, density):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 8))
    compact = random_db(rng, n_rows, m, density=density)  # some items in no row
    # the bincount (ids per entry past any id) and the sort (none) build
    # the same arrays, on ids `spread` apart
    rows = [tuple(j * spread for j in row) for row in compact.rows()]
    by_count, by_sort = (_recoded(rows, m * spread, factor) for factor in (1 << 30, 0))
    for name in ("_item_ids", "_indices", "_column_counts"):
        a, b = getattr(by_count, name), getattr(by_sort, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert by_count == by_sort and list(by_count.rows()) == rows
    # ids 10**9 apart, counted exactly and weighted at k = 1..3 against the
    # compact database's dense matrix, with candidates over every item in
    # range, the absent ones included
    gap = 10 ** 9
    far = TransactionDB.from_rows([[j * gap for j in row] for row in compact.rows()],
                                  n_items=(m - 1) * gap + 1)
    present = compact.item_level()[:, 0].tolist()
    assert far.item_level()[:, 0].tolist() == [j * gap for j in present]
    dense = compact.dense()
    w = rng.integers(0, 4, size=n_rows)
    level = [Itemset.of(j) for j in range(m)]
    while level:
        held = [dense[:, list(x)].all(axis=1) for x in level]
        wide = [Itemset([j * gap for j in x]) for x in level]
        assert level_supports(far, wide).tolist() == [int(h.sum()) for h in held]
        assert level_supports(far, wide, w).tolist() == [int((h * w).sum()) for h in held]
        level = [Itemset(x) for x in cand_gen([x for x in level if rng.random() < 0.8]).tolist()]


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.sampled_from([None, 63, 64, 65, 127, 129]),
       shuffled=st.booleans(), weights=st.sampled_from([None, "draws", "sampled", "heavy"]),
       gap=st.booleans())
def test_level_supports_match_dense(seed, n_rows, shuffled, weights, gap):
    # row counts on both sides of a 64-bit word's edge, or a few rows
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30)) if n_rows is None else n_rows
    db = random_db(rng, n, int(rng.integers(1, 8)), density=float(rng.uniform(0.1, 0.9)))
    if gap:  # no row holds item 0, which heads every prefix it is in, nor the last item
        db = TransactionDB.from_rows([[j + 1 for j in row] for row in db.rows()],
                                     n_items=db.n_items + 2)
    # each level, in cand_gen order: single items, then the joins of a
    # random share of the previous level
    levels = []
    level = [Itemset.of(j) for j in range(db.n_items)]
    while level:
        levels.append(level)
        kept = [x for x in level if rng.random() < 0.7]
        level = [Itemset(x) for x in cand_gen(kept).tolist()]
    if weights == "draws":  # row weights as draw counts, zeros included
        w = rng.integers(0, 6, size=n)
    elif weights == "sampled":  # as the sampler's: a few draws, most rows zero
        w = np.bincount(rng.integers(0, n, size=int(rng.integers(0, n // 4 + 2))), minlength=n)
    elif weights == "heavy":  # counts up to 2**40: 41 planes, sums past 2**32
        w = rng.integers(0, 2 ** 40, size=n)
        w[rng.integers(n)] = 2 ** 40
    else:
        w = None
    dense = db.dense()
    for level in levels:  # one call per size
        # one candidate twice, next to itself, in the run of its prefix
        dup = int(rng.integers(len(level)))
        candidates = level[:dup + 1] + level[dup:]
        if shuffled:
            candidates = [candidates[i] for i in rng.permutation(len(candidates))]
        got = level_supports(db, candidates, w)
        held = [dense[:, list(x)].all(axis=1) for x in candidates]
        assert got.dtype == np.int64
        assert got.tolist() == [int(h.sum() if w is None else (h * w).sum()) for h in held]
        # the same level as an int32 array
        array = np.array(candidates, dtype=np.int32)
        assert np.array_equal(level_supports(db, array, w), got)
    assert level_supports(db, [], w).tolist() == []


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.sampled_from([1, 7, 63, 64, 65, 130]),
       k=st.integers(1, 3), weights=st.sampled_from(["even", "heavy", "ones"]))
def test_weighted_supports_match_dense_at_each_digit_pattern(seed, n_rows, k, weights):
    # a sampled count sums one exact count per binary digit of the draw
    # counts: all even leaves digit 0 without a row, one row of 2**40
    # leaves 40 digits without one and the top digit with one row, and all
    # ones has a single digit holding every row
    rng = np.random.default_rng(seed)
    db = random_db(rng, n_rows, int(rng.integers(k, 9)), density=float(rng.uniform(0.1, 0.9)))
    if weights == "even":
        w = 2 * rng.integers(0, 4, size=n_rows)
    elif weights == "heavy":
        w = np.zeros(n_rows, dtype=np.int64)
        w[rng.integers(n_rows)] = 2 ** 40
    else:
        w = np.ones(n_rows, dtype=np.int64)
    candidates = random_candidates(rng, db, k)
    dense = db.dense()
    got = level_supports(db, candidates, w)
    assert got.tolist() == [int((dense[:, list(x)].all(axis=1) * w).sum()) for x in candidates]
    if weights == "ones":
        assert got.tolist() == level_supports(db, candidates).tolist()


def test_level_supports_refuses_a_negative_weight(dtoy):
    weights = np.array([2, 0, -1, 1])
    for candidates in ([Itemset.of(0)], [Itemset((0, 1))], []):
        with pytest.raises(ValueError, match="non-negative"):
            level_supports(dtoy, candidates, weights)


@pytest.mark.parametrize("weights", [
    np.array([1]),  # short: the pair (0, 1) would count 1 where it counts 2
    np.ones(6, dtype=np.int64),  # long: would be cut to N
    np.ones(4),  # float
    np.ones((1, 4), dtype=np.int64),  # 2-d
    np.ones(4, dtype=bool),
], ids=["short", "long", "float", "2d", "bool"])
def test_level_supports_refuses_weights_that_are_not_n_draw_counts(monkeypatch, weights):
    db = TransactionDB.from_rows([[0, 1], [0, 1], [1], [0]])
    assert level_supports(db, [[0, 1]], np.ones(4, dtype=np.int64)).tolist() == [2]

    def counted(*_args):
        raise AssertionError("counted before the weights were checked")

    monkeypatch.setattr(data, "_weighted_supports", counted)
    for candidates in ([[0, 1]], [[0], [1]], []):
        with pytest.raises(ValueError, match="1-d integer array of length N=4"):
            level_supports(db, candidates, weights)


def test_level_supports_rejects_items_out_of_range(dtoy):
    with pytest.raises(ValueError, match="item 3 out of range for 3 items"):
        level_supports(dtoy, [Itemset((0, 1)), Itemset((1, 3)), Itemset((4, 5))])
    with pytest.raises(ValueError, match="item 3 out of range for 3 items"):
        level_supports(dtoy, np.array([[0, 1], [1, 3]]))
    with pytest.raises(ValueError, match="same size"):
        level_supports(dtoy, [Itemset.of(0), Itemset((1, 2))])
    with pytest.raises(ValueError, match="strictly increasing"):
        level_supports(dtoy, np.array([[0, 1], [2, 1]]))
    with pytest.raises(ValueError, match="non-negative"):
        level_supports(dtoy, np.array([[-1, 1]]))


def test_bitset_support_matches_dense(dtoy):
    assert dtoy.column_bitset(0).bit_count() == 3
    mask = dtoy.contains_all(Itemset.of([0, 1]))
    assert mask.tolist() == [True, True, False, False]


def test_present_items(dtoy):
    # level 1 is the items that occur, as a C x 1 int32 level
    assert dtoy.item_level()[:, 0].tolist() == [0, 1, 2]
    db = TransactionDB.from_rows([[1], [1, 3]], n_items=5)
    level = db.item_level()
    assert level.shape == (2, 1) and level.dtype == np.int32
    assert level[:, 0].tolist() == [1, 3]


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


def _synth_bytes(n, m, density, n_targets=0):
    return (density * n * (m - n_targets) * data._SYNTH_ENTRY_BYTES
            + n * data._SYNTH_ROW_BYTES + m * data._SYNTH_ITEM_BYTES + n_targets * 8 * n)


@pytest.mark.parametrize("n, m, density, targets", [
    (20_000, 50, 0.25, {}), (20_000, 50, 1.0, {}), (2_000, 500, 0.25, {}),
    (100_000, 5, 0.0, {}), (100, 20_000, 0.01, {}), (4_000, 30, 0.5, {(0,): 1, (1,): "1/2"}),
])
def test_synth_db_stays_within_its_expected_bytes(n, m, density, targets):
    # the figures the budget check charges, against what synth_db allocates
    peak = traced_peak(lambda: synth_db(n, m, targets, seed=1, background_density=density))
    assert peak <= _synth_bytes(n, m, density, len(targets)) + CALL_BYTES


def test_synth_db_holds_one_target_permutation_at_a_time():
    # each target's rows are copied out of its own permutation of the rows,
    # so thirty targets of ten rows cost their entries and one permutation
    n, m = 20_000, 40
    targets = {(j,): Fraction(10, n) for j in range(30)}
    peak = traced_peak(lambda: synth_db(n, m, targets, seed=1))
    assert peak <= (30 * 10 * data._SYNTH_ENTRY_BYTES + n * data._SYNTH_ROW_BYTES
                    + m * data._SYNTH_ITEM_BYTES + 8 * n + CALL_BYTES)


def _synth_from_row_lists(n, m, targets, seed, density):
    """synth_db as it was built before its CSR step: each item's rows drawn
    as synth_db draws them, poured into one Python list per row, and each
    list sorted."""
    counts = {Itemset.of(key)[0]: int(Fraction(val) * n) for key, val in targets.items()}
    rng = np.random.default_rng(seed)
    col_rows = {j: rng.permutation(n)[:count].copy() for j, count in counts.items()}
    if density > 0:
        for j in range(m):
            if j not in counts:
                col_rows[j] = np.flatnonzero(rng.random(n) < density)
    rows: list[list[int]] = [[] for _ in range(n)]
    for j, members in col_rows.items():
        for r in members.tolist():
            rows[r].append(j)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([j for row in rows for j in sorted(row)], dtype=np.int64)
    return TransactionDB(indptr, indices, m)


@settings(max_examples=80)
@given(n=st.integers(1, 40), m=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]), data_=st.data())
def test_synth_db_equals_the_row_list_builder(n, m, seed, density, data_):
    # targets in any order, ids decreasing among them, each with its count
    items = data_.draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
    targets = {(j,): Fraction(data_.draw(st.integers(0, n)), n) for j in items}
    db = synth_db(n, m, targets, seed=seed, background_density=density)
    expected = _synth_from_row_lists(n, m, targets, seed, density)
    assert db == expected
    for name in ("_indptr", "_item_ids", "_indices", "_column_counts"):
        assert getattr(db, name).dtype == getattr(expected, name).dtype, name


class _CountingGenerator(np.random.Generator):
    """The Generator of np.random.default_rng(seed), counting its `random`
    calls and the numbers they draw."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.random_calls = []

    def random(self, size=None, *args, **kwargs):
        self.random_calls.append(size)
        return super().random(size, *args, **kwargs)


def _synth_one_item_at_a_time(n, m, targets, seed, density):
    """synth_db's draws, one item at a time: each target's permutation in
    the targets' order, then one rng.random(n) call per background item in
    increasing id order; the database and the generator after them."""
    counts = {Itemset.of(key)[0]: int(Fraction(val) * n) for key, val in targets.items()}
    rng = np.random.default_rng(seed)
    held = np.zeros((n, m), dtype=bool)
    for j, count in counts.items():
        held[rng.permutation(n)[:count], j] = True
    if density > 0:
        for j in range(m):
            if j not in counts:
                held[:, j] = rng.random(n) < density
    return TransactionDB.from_rows([np.flatnonzero(row) for row in held], n_items=m), rng


@settings(max_examples=60)
@given(n=st.integers(1, 400), m=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.01, 0.3, 1.0]), data_=st.data())
def test_synth_db_batches_draw_what_one_item_at_a_time_draws(n, m, seed, density, data_):
    # up to 400 rows and 60 items give batches of one item to all of them,
    # most with a shorter last batch; targets in any order, ids decreasing
    # among them, each with its count
    items = data_.draw(st.lists(st.integers(0, m - 1), unique=True, max_size=min(m, 8)))
    targets = {(j,): Fraction(data_.draw(st.integers(0, n)), n) for j in items}
    made = []

    def default_rng(seed):
        made.append(_CountingGenerator(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", default_rng)
        db = synth_db(n, m, targets, seed=seed, background_density=density)
    expected, rng = _synth_one_item_at_a_time(n, m, targets, seed, density)
    assert db == expected
    assert made[0].bit_generator.state == rng.bit_generator.state
    assert sum(made[0].random_calls) == (n * (m - len(targets)) if density else 0)


def test_synth_db_draws_a_wide_database_in_one_call(monkeypatch):
    # one row over 200,000 background items: one rng.random call, not one
    # per item, at the same stream
    made = []

    def default_rng(seed):
        made.append(_CountingGenerator(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    db = synth_db(1, 200_000, {}, 1, 0.5)
    assert made[0].random_calls == [200_000]
    uniforms = np.random.Generator(np.random.PCG64(1)).random(200_000)
    assert db.row(0) == tuple(np.flatnonzero(uniforms < 0.5).tolist())


@pytest.mark.parametrize("n, m, density, n_targets", [
    (10 ** 6, 10 ** 5, 1e-7, 0), (4 * 10 ** 7, 60, 0.0, 60)])
def test_synth_db_refuses_a_database_over_the_draw_cap(n, m, density, n_targets):
    # within the byte budget, but n random numbers per drawn item past the
    # cap: refused from the counts alone, before anything is drawn
    targets = {(j,): Fraction(1, n) for j in range(n_targets)}
    charged = (_synth_bytes(n, m, density) + n_targets * data._SYNTH_ENTRY_BYTES
               + (8 * n if targets else 0))  # one row each, one permutation at a time
    assert charged <= qarm.constants.LEVEL_BYTES
    draws = n * (m if density > 0 else n_targets)
    assert draws > data._SYNTH_DRAWS
    message = (f"a {n} x {m} database at density {density} draws {draws} random numbers, "
               f"over the cap of {data._SYNTH_DRAWS}")

    def refused():
        with pytest.raises(ValueError) as err:
            synth_db(n, m, targets, seed=1, background_density=density)
        assert str(err.value) == message

    started = time.perf_counter()
    assert traced_peak(refused) <= CALL_BYTES
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("n, m, density", [
    (10 ** 11, 10 ** 11, 0.25), (10 ** 8, 2, 0.0), (10 ** 6, 10 ** 4, 0.25)])
def test_synth_db_refuses_a_database_over_the_level_budget(n, m, density):
    # refused from its size alone: nothing sized by n or m is allocated
    expected = int(_synth_bytes(n, m, density))
    assert expected > qarm.constants.LEVEL_BYTES
    message = (f"a {n} x {m} database at density {density} needs about {expected} bytes, "
               f"over the {qarm.constants.LEVEL_BYTES}-byte level budget")

    def refused():
        with pytest.raises(MemoryError) as err:
            synth_db(n, m, {}, seed=1, background_density=density)
        assert str(err.value) == message

    assert traced_peak(refused) <= CALL_BYTES
