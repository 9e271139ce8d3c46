"""Transaction databases: FIMI parsing, exact supports, synthesis.

A database is N transactions over M items, a binary matrix D with
D[i, j] = 1 iff transaction i contains item j.  Rows are stored sparsely
(sorted item ids per transaction, CSR style), with a lazily built CSC view
(the rows of each item).  Parsing and row sampling work on these arrays.
Only exact_support packs per-item row bitsets into Python ints, so the
support of a k-itemset (k >= 2) is an AND across its columns followed by a
popcount.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "FimiParseError",
    "Itemset",
    "ExactSupport",
    "TransactionDB",
    "parse_fimi",
    "serialize_fimi",
    "exact_support",
    "support_threshold",
    "synth_db",
]

# dense() guard: refuse to materialize more cells than this
_DENSE_CELL_LIMIT = 1 << 26

# parse_fimi's fast path reads this many bytes at a time (cut at a newline),
# so its temporaries stay bounded whatever the file size
_PARSE_BLOCK = 1 << 20
# the only bytes the fast path reads; any other byte takes the line parser
_FAST_BYTES = b"0123456789 \t\n"
# longer digit runs could overflow int64 and take the line parser
_FAST_MAX_DIGITS = 18
# n_items = 1 + largest id must fit int64
_MAX_ITEM_ID = np.iinfo(np.int64).max - 1


class FimiParseError(ValueError):
    """Raised when FIMI text cannot be parsed into a database."""


@dataclass(frozen=True, order=True)
class Itemset:
    """A nonempty set of item indices, stored strictly increasing."""

    items: tuple[int, ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("itemset must be nonempty")
        if self.items[0] < 0:
            raise ValueError(f"item indices must be non-negative: {self.items}")
        if any(b <= a for a, b in zip(self.items, self.items[1:])):
            raise ValueError(f"items must be strictly increasing: {self.items}")

    @classmethod
    def of(cls, *items) -> "Itemset":
        """Build from loose ints or a single iterable; sorts and dedupes."""
        if len(items) == 1 and not isinstance(items[0], (int, np.integer)):
            items = tuple(items[0])
        return cls(tuple(sorted({int(i) for i in items})))

    @property
    def size(self) -> int:
        return len(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)

    def __contains__(self, item: int) -> bool:
        return item in self.items

    def subsets(self, size: int) -> Iterator["Itemset"]:
        for combo in combinations(self.items, size):
            yield Itemset(combo)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.items)) + "}"


@dataclass(frozen=True)
class ExactSupport:
    """Support as an exact fraction numerator/denominator of N."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be >= 1")
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError(
                f"numerator {self.numerator} outside [0, {self.denominator}]"
            )

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.numerator / self.denominator


class TransactionDB:
    """Immutable transaction database over items 0..n_items-1."""

    def __init__(self, indptr, indices, n_items: int):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 2 or indptr[0] != 0:
            raise ValueError("indptr must be 1-d, start at 0, with >= 1 row")
        if np.any(np.diff(indptr) < 0) or indptr[-1] != indices.size:
            raise ValueError("indptr must be nondecreasing and end at nnz")
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        if indices.size and (indices.min() < 0 or indices.max() >= n_items):
            raise ValueError("item index out of range")
        # rows must be strictly increasing: every within-row adjacent diff > 0
        if indices.size > 1:
            d = np.diff(indices)
            row_start = np.zeros(indices.size - 1, dtype=bool)
            starts = indptr[1:-1]
            row_start[starts[(starts > 0) & (starts < indices.size)] - 1] = True
            if np.any((d <= 0) & ~row_start):
                raise ValueError("row items must be sorted and distinct")
        self._indptr = indptr
        self._indices = indices
        self.n_transactions = int(indptr.size - 1)
        self.n_items = int(n_items)
        self._column_counts = np.bincount(indices, minlength=n_items).astype(np.int64)
        self._csc = None  # lazy (column starts, row ids ordered by column)
        self._col_bits: dict[int, int] = {}

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]],
                  n_items: int | None = None) -> "TransactionDB":
        canon = [sorted({int(j) for j in row}) for row in rows]
        if not canon:
            raise ValueError("no transactions")
        for row in canon:
            if row and row[0] < 0:
                raise ValueError("item indices must be non-negative")
        if n_items is None:
            top = max((row[-1] for row in canon if row), default=None)
            if top is None:
                raise ValueError("cannot infer n_items from empty rows")
            n_items = top + 1
        indptr = np.zeros(len(canon) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(r) for r in canon])
        flat = [j for row in canon for j in row]
        indices = np.asarray(flat, dtype=np.int64)
        return cls(indptr, indices, n_items)

    def row(self, i: int) -> tuple[int, ...]:
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return tuple(int(j) for j in self._indices[lo:hi])

    def rows(self) -> Iterator[tuple[int, ...]]:
        for i in range(self.n_transactions):
            yield self.row(i)

    def dense(self) -> np.ndarray:
        """Full boolean matrix; guarded against runaway sizes."""
        cells = self.n_transactions * self.n_items
        if cells > _DENSE_CELL_LIMIT:
            raise ValueError(f"dense matrix of {cells} cells exceeds guard")
        out = np.zeros((self.n_transactions, self.n_items), dtype=bool)
        rows = np.repeat(np.arange(self.n_transactions), np.diff(self._indptr))
        out[rows, self._indices] = True
        return out

    @property
    def column_counts(self) -> np.ndarray:
        return self._column_counts

    def column_count(self, j: int) -> int:
        return int(self._column_counts[j])

    def present_items(self) -> list[int]:
        """Items occurring in at least one transaction."""
        return [int(j) for j in np.nonzero(self._column_counts)[0]]

    def _rows_with_item(self, j: int) -> np.ndarray:
        """Increasing row ids of the transactions that contain item j."""
        if self._csc is None:
            # a stable sort has one result, so the narrowest key dtype gives
            # the int64 permutation, and numpy radix-sorts 16-bit keys
            keys = self._indices.astype(np.min_scalar_type(self.n_items - 1))
            order = np.argsort(keys, kind="stable")
            all_rows = np.repeat(
                np.arange(self.n_transactions), np.diff(self._indptr)
            )
            starts = np.zeros(self.n_items + 1, dtype=np.int64)
            np.cumsum(self._column_counts, out=starts[1:])
            self._csc = (starts, all_rows[order])
        starts, rows = self._csc
        return rows[starts[j]:starts[j + 1]]

    def column_bitset(self, j: int) -> int:
        """Python int with bit i set iff transaction i contains item j."""
        if not 0 <= j < self.n_items:
            raise ValueError(f"item {j} out of range")
        cached = self._col_bits.get(j)
        if cached is None:
            mask = np.zeros(self.n_transactions, dtype=bool)
            mask[self._rows_with_item(j)] = True
            packed = np.packbits(mask, bitorder="little")
            cached = int.from_bytes(packed.tobytes(), "little")
            self._col_bits[j] = cached
        return cached

    def support_bitset(self, itemset: Itemset) -> int:
        bits = self.column_bitset(itemset.items[0])
        for j in itemset.items[1:]:
            bits &= self.column_bitset(j)
        return bits

    def contains_all(self, itemset: Itemset) -> np.ndarray:
        """Boolean vector over transactions: row contains every item of x."""
        bits = self.support_bitset(itemset)
        n_bytes = (self.n_transactions + 7) // 8
        raw = np.frombuffer(bits.to_bytes(n_bytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.n_transactions].astype(bool)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransactionDB):
            return NotImplemented
        return (
            self.n_items == other.n_items
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __repr__(self) -> str:
        return (
            f"TransactionDB(n_transactions={self.n_transactions}, "
            f"n_items={self.n_items}, nnz={self._indices.size})"
        )


def parse_fimi(text: str) -> TransactionDB:
    """Parse FIMI format: one transaction per line, space-separated item ids.

    Blank lines are skipped.  Duplicate ids inside a line collapse to one.
    n_items = 1 + max id seen, which must fit int64.  Text of digits,
    spaces, tabs and newlines is read in vectorised blocks; any other text
    is read line by line, which is also what names the line of an error.
    """
    db = _parse_fimi_blocks(text)
    return db if db is not None else _parse_fimi_lines(text)


def _parse_fimi_blocks(text: str) -> TransactionDB | None:
    """Vectorised parse of text made only of digits, spaces, tabs and
    newlines, with no id over _FAST_MAX_DIGITS digits; None for any other
    text, which the line parser then reads and reports on."""
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if data.translate(None, _FAST_BYTES):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    values: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    lo = 0
    while lo < raw.size:
        hi = min(lo + _PARSE_BLOCK, raw.size)
        if hi < raw.size:
            cut = data.rfind(b"\n", lo, hi)
            if cut < 0:  # a line longer than a block is read whole
                cut = data.find(b"\n", hi)
            hi = cut + 1 if cut >= 0 else raw.size
        block = raw[lo:hi]
        lo = hi
        digit = np.zeros(block.size + 2, dtype=bool)
        np.greater_equal(block, ord("0"), out=digit[1:-1])
        starts = np.flatnonzero(digit[1:] > digit[:-1])
        if not starts.size:
            continue
        ends = np.flatnonzero(digit[1:] < digit[:-1])
        lengths = ends - starts
        longest = int(lengths.max())
        if longest > _FAST_MAX_DIGITS:
            return None
        # digit runs to values, one decimal place at a time from the right
        vals = (block[ends - 1] - ord("0")).astype(np.int64)
        for place in range(1, longest):
            longer = np.flatnonzero(lengths > place)
            vals[longer] += (block[ends[longer] - 1 - place] - ord("0")).astype(
                np.int64) * 10 ** place
        # a token's line is the count of newlines before it; rows are the
        # lines that hold a token, so blank lines drop out
        line = np.searchsorted(np.flatnonzero(block == ord("\n")), starts)
        new_row = np.empty(line.size, dtype=bool)
        new_row[0] = True
        np.not_equal(line[1:], line[:-1], out=new_row[1:])
        row = np.cumsum(new_row) - 1
        # FIMI files usually list each row's ids sorted and distinct
        if np.any((vals[1:] <= vals[:-1]) & ~new_row[1:]):
            order = np.lexsort((vals, row))
            vals, row = vals[order], row[order]
            keep = np.ones(vals.size, dtype=bool)
            keep[1:] = (vals[1:] != vals[:-1]) | (row[1:] != row[:-1])
            vals, row = vals[keep], row[keep]
        values.append(vals)
        counts.append(np.bincount(row))
    if not counts:
        raise FimiParseError("no transactions")
    indices = np.concatenate(values)
    indptr = np.zeros(sum(c.size for c in counts) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return TransactionDB(indptr, indices, int(indices.max()) + 1)


def _parse_fimi_lines(text: str) -> TransactionDB:
    """Line-by-line parse of any text, with the line number of any error."""
    indptr = [0]
    flat: list[int] = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            ids = sorted({int(tok) for tok in tokens})
        except ValueError:
            bad = next(tok for tok in tokens if not _is_int(tok))
            raise FimiParseError(f"line {lineno}: non-integer token {bad!r}")
        if ids[0] < 0:
            raise FimiParseError(f"line {lineno}: negative item id {ids[0]}")
        if ids[-1] > _MAX_ITEM_ID:
            raise FimiParseError(f"line {lineno}: item id {ids[-1]} too large")
        flat.extend(ids)
        indptr.append(len(flat))
        if ids[-1] > top:
            top = ids[-1]
    if len(indptr) == 1:
        raise FimiParseError("no transactions")
    return TransactionDB(np.asarray(indptr), np.asarray(flat, dtype=np.int64), top + 1)


def _is_int(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False


def serialize_fimi(db: TransactionDB) -> str:
    """Inverse of parse_fimi.  Rows with no items become blank lines, which
    parse_fimi skips; parsed databases never contain such rows."""
    return "".join(" ".join(map(str, row)) + "\n" for row in db.rows())


def exact_support(db: TransactionDB, x: Itemset) -> ExactSupport:
    """Exact support of x: |{i : x subset of row i}| / N."""
    if x.items[-1] >= db.n_items:
        raise ValueError(f"item {x.items[-1]} out of range for {db.n_items} items")
    if x.size == 1:
        num = db.column_count(x.items[0])
    else:
        num = db.support_bitset(x).bit_count()
    return ExactSupport(num, db.n_transactions)


def _as_exact_fraction(value) -> Fraction:
    # floats go through their shortest decimal repr so 0.01 means 1/100
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def support_threshold(value) -> Fraction:
    """Normalize a support/confidence threshold to an exact Fraction in (0, 1].

    Accepts Fraction, int, float, 'a/b', decimal strings, and 'x%'.
    Floats are read at their printed precision, so 0.01 means exactly 1/100.
    """
    try:
        if isinstance(value, str):
            txt = value.strip()
            frac = Fraction(txt[:-1].strip()) / 100 if txt.endswith("%") else Fraction(txt)
        else:
            frac = _as_exact_fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"threshold {value!r} has a zero denominator") from None
    if not 0 < frac <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {frac}")
    return frac


def synth_db(n: int, m: int, support_targets: Mapping, seed: int,
             background_density: float = 0.0) -> TransactionDB:
    """Synthesize an n x m database whose items have the requested supports.

    Each target names a single item, and its support must be a rational
    with denominator dividing n; every target is met exactly.  Items not
    mentioned in any target get independent background_density fill.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    counts: dict[int, int] = {}
    for key, val in support_targets.items():
        x = key if isinstance(key, Itemset) else Itemset.of(key)
        if x.size != 1:
            raise ValueError(f"target {x} is not a single item")
        j = x.items[0]
        if j >= m:
            raise ValueError(f"target item {j} out of range for m={m}")
        frac = _as_exact_fraction(val)
        count = frac * n
        if count.denominator != 1:
            raise ValueError(f"target {frac} of {n} rows is not an integer count")
        if not 0 <= count <= n:
            raise ValueError(f"target support {frac} infeasible for n={n}")
        counts[j] = int(count)

    rng = np.random.default_rng(seed)
    col_rows = {j: rng.permutation(n)[:count] for j, count in counts.items()}
    if background_density > 0:
        for j in range(m):
            if j not in counts:
                col_rows[j] = np.flatnonzero(rng.random(n) < background_density)

    rows: list[list[int]] = [[] for _ in range(n)]
    for j, members in col_rows.items():
        for r in members.tolist():
            rows[r].append(j)
    return TransactionDB.from_rows(rows, n_items=m)
