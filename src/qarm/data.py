"""Transaction databases: FIMI parsing, exact supports, synthesis.

A database is N transactions over M items, a binary matrix D with
D[i, j] = 1 iff transaction i contains item j.  Rows are stored sparsely
(sorted items per transaction, CSR style), and nothing else is kept per
entry.  Inside, an item is its position among the M' ids that occur,
recoded once as Borgelt's Apriori recodes items (FIMI 2003), so nothing
is sized by the largest id; every public name takes and gives the ids
themselves.  A level of k-itemsets is a C x k int32 array, one itemset
per row (`as_level`).  Every support, exact or sampled, is counted by
`level_supports`, k-itemsets (k >= 2) on a bit matrix of the level's
items, one packed row per item as MAFIA's vertical bitmaps are (Burdick,
Calimlim and Gehrke, ICDE 2001).  An exact count builds it from the CSR
rows in one pass over the entries (`_bit_columns`), and exact Apriori
builds it once per run.  A sampled count, each row weighted by its
draws, sums 2**b times an exact count over the rows whose draw count has
bit b set, for each binary digit b, on a matrix of those rows alone made
by the same builder.  `QueryCounter`, the query ledger that every miner
charges, lives here too.
"""
from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

import numpy as np

from .constants import LEVEL_BYTES

__all__ = [
    "FimiParseError",
    "Itemset",
    "ExactSupport",
    "QueryCounter",
    "TransactionDB",
    "as_level",
    "parse_fimi",
    "exact_support",
    "level_supports",
    "support_threshold",
    "synth_db",
]

# dense() guard: refuse to materialize more cells than this
_DENSE_CELL_LIMIT = 1 << 26

# parse_fimi's fast path reads this many bytes at a time (cut at a newline),
# so its temporaries stay bounded whatever the file size
_PARSE_BLOCK = 1 << 20
# the least work a parse or count thread gets: text bytes of one piece, or
# bit-matrix words gathered for one chunk of candidates.  On a 2-core
# x86-64 host a thread's start and join take about 65 us, and each task
# hands the GIL back and forth a few times: two threads counted in 1.2 to
# 2 times one thread's time with 2**15 words each, in 0.8 to 0.92 of it
# with 2**16 and in 0.5 to 0.55 with 2**17, and parsed 1 MiB of text in
# 0.65 of it with 2**19 bytes each
_THREAD_WORK = 1 << 16
# the bit matrix that a level-wise exact run on this thread holds
# (`_holding_bits`): [db, items, matrix], with items and matrix None until
# the run's first count of k-itemsets; None outside a run.  Each thread
# starts with its own context, so no other thread sees the hold
_HELD: ContextVar[list | None] = ContextVar("qarm_held_bits", default=None)
# the only bytes the fast path reads; any other byte takes the line parser
_FAST_BYTES = b"0123456789 \t\n"
# numpy's reader silently saturates an id past int64 at 2**63 - 1, so a
# block holding an id this large takes the line parser, which reads every
# id exactly and refuses one past _MAX_ITEM_ID by name
_FAST_ID_LIMIT = 10 ** 18
# n_items = 1 + largest id must fit int64
_MAX_ITEM_ID = np.iinfo(np.int64).max - 1
# TransactionDB recodes its ids with a bincount over 0..largest id when
# n_items is at most this many times the entries, else with np.unique's
# sort.  On a 2-core x86-64 host, at 10**3, 3 * 10**4 and 8.3 * 10**5
# entries, the two took equal time (0.9 to 1.0 times) at 4 ids per entry;
# at 0.02 the bincount took 1/3 to 1/18 of the sort's time, at 16 over 3
# times it.  The bincount's 8 bytes per id then stay within 32 per entry
_RECODE_IDS_PER_ENTRY = 4
# bytes synth_db allocates, rounded up from tracemalloc peaks: per entry
# (its int32 row and id, their sorted copies and the sort's int64 order,
# then the database's ids: 24 to 27 B at densities 0.01 to 1), per row (the
# row starts and their search keys: 12 B) and per item (a target's array of
# rows and list slots: 190 to 205 B).  Background items are drawn a batch
# at a time, whose uniforms and mask (9 B a cell) take at most half the
# bytes charged per item and per row
_SYNTH_ENTRY_BYTES, _SYNTH_ROW_BYTES, _SYNTH_ITEM_BYTES = 32, 16, 224
# the most random numbers synth_db draws, n per target (its permutation of
# the rows) and n per background item (uniforms): on a 2-CPU x86-64 host a
# uniform, its comparison and its share of flatnonzero take 4.4 to 5.5 ns,
# so 2**31 of them take about 10 s (a permutation's take about 24 ns each)
_SYNTH_DRAWS = 1 << 31


class FimiParseError(ValueError):
    """Raised when FIMI text cannot be parsed into a database."""


class _NotFast(Exception):
    """A piece of FIMI text that the block parser does not read."""


class Itemset(tuple):
    """A nonempty set of item indices: the tuple of them, strictly
    increasing, and equal, hashed and ordered as that tuple."""

    __slots__ = ()

    def __new__(cls, items):
        self = tuple.__new__(cls, items)
        if not self:
            raise ValueError("itemset must be nonempty")
        if self[0] < 0:
            raise ValueError(f"item indices must be non-negative: {tuple(self)}")
        if any(b <= a for a, b in zip(self, self[1:])):
            raise ValueError(f"items must be strictly increasing: {tuple(self)}")
        return self

    @classmethod
    def of(cls, *items) -> "Itemset":
        """Build from loose ints or a single iterable; sorts and dedupes."""
        if len(items) == 1 and not isinstance(items[0], (int, np.integer)):
            items = tuple(items[0])
        return cls(sorted({int(i) for i in items}))

    def subsets(self, size: int) -> Iterator["Itemset"]:
        return map(Itemset, combinations(self, size))

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self)) + "}"

    def __repr__(self) -> str:
        return f"Itemset({tuple.__repr__(self)})"


@dataclass(frozen=True, slots=True)
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


@dataclass
class QueryCounter:
    """Ledger of oracle queries and simulated work."""

    basic_oracle_calls: int = 0
    phase_oracle_k_calls: int = 0
    grover_applications: int = 0
    amplification_iterations: int = 0
    state_preparations: int = 0
    measurements: int = 0
    classical_row_scans: int = 0
    elementary_gates: int = 0

    def charge_grover(self, k: int, n: int = 1):
        """n Grover applications, each one k-item phase oracle: 2k
        basic-oracle calls around a k-controlled NOT of 2k - 1 gates."""
        self.basic_oracle_calls += 2 * k * n
        self.phase_oracle_k_calls += n
        self.elementary_gates += (2 * k - 1) * n
        self.grover_applications += n

    def charge_estimation_pipeline(self, k: int, big_t: int, n: int = 1):
        """n preparations of |Psi3>: T-1 Grover applications each."""
        self.state_preparations += n
        self.charge_grover(k, (big_t - 1) * n)

    def charge_amplification_iterations(self, k: int, big_t: int, n: int):
        """n Q = R_psi * S_good steps: each reflection about |Psi3> costs a
        pipeline forward and backward, 2(T-1) Grover applications."""
        self.amplification_iterations += n
        self.charge_grover(k, 2 * (big_t - 1) * n)

    def snapshot(self) -> "QueryCounter":
        return QueryCounter(**vars(self))

    def delta(self, earlier: "QueryCounter") -> "QueryCounter":
        return QueryCounter(**{f: n - getattr(earlier, f) for f, n in vars(self).items()})

    def as_dict(self) -> dict:
        return dict(vars(self))


def as_level(candidates, k: int | None = None) -> np.ndarray:
    """A level as a C x k int32 array, one itemset per row, in the order
    given.  An int32 array is taken as a level as it is: its rows are
    non-negative and strictly increasing, as `TransactionDB.item_level`
    and `cand_gen` make them.  Any other integer array, and a list of
    same-size itemsets, is checked row by row, as an `Itemset` is, and
    converted once.  With k, every row must hold k items.  An empty list
    is the 0 x k level (0 x 0 without k).  An id past int32 keeps int64,
    for `TransactionDB.check_items` to refuse by name."""
    if isinstance(candidates, np.ndarray):
        if candidates.ndim != 2 or candidates.dtype.kind not in "iu":
            raise ValueError("a level must be a 2-d integer array")
        level = candidates
        wrong = next(iter(level), None) if k is not None and level.shape[1] != k else None
    else:
        rows = list(candidates)
        size = k if k is not None else len(rows[0]) if rows else 0
        wrong = next((x for x in rows if len(x) != size), None)
        if wrong is None:
            level = np.array(rows, dtype=np.int64).reshape(len(rows), size)
    if wrong is not None:
        if k is None:
            raise ValueError("the itemsets of a level must all have the same size")
        raise ValueError(f"candidate {Itemset(np.asarray(wrong).tolist())} is not a {k}-itemset")
    if level.dtype == np.int32:
        return level if level.flags.c_contiguous else np.ascontiguousarray(level)
    if len(level) and not (level.shape[1] and level[:, 0].min() >= 0
                           and (level[:, 1:] > level[:, :-1]).all()):
        bad = (level[:, :1] < 0).any(axis=1) | (level[:, 1:] <= level[:, :-1]).any(axis=1)
        Itemset(level[bad.argmax()].tolist())  # raises the itemset's own error
    wide = level.size and level.max() > np.iinfo(np.int32).max
    return np.ascontiguousarray(level, dtype=np.int64 if wide else np.int32)


class TransactionDB:
    """Immutable transaction database over items 0..n_items-1.

    Inside, the ids that occur are `_item_ids` (increasing int64, M' of
    them), each entry of `_indices` is its item's position among them
    (int32), and `_column_counts` counts each present id's rows, so the
    arrays are sized by the entries and the present ids, never by n_items.
    An id in range that no row holds has no position and an empty column."""

    def __init__(self, indptr, indices, n_items: int):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 2 or indptr[0] != 0:
            raise ValueError("indptr must be 1-d, start at 0, with >= 1 row")
        if np.any(indptr[1:] < indptr[:-1]) or indptr[-1] != indices.size:
            raise ValueError("indptr must be nondecreasing and end at nnz")
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        if indices.size and (indices.min() < 0 or indices.max() >= n_items):
            raise ValueError("item index out of range")
        if _unsorted_rows(indptr, indices):
            raise ValueError("row items must be sorted and distinct")
        self._indptr = indptr
        self._item_ids, self._indices, self._column_counts = _recode(indices, n_items)
        self.n_transactions = int(indptr.size - 1)
        self.n_items = int(n_items)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]],
                  n_items: int | None = None) -> "TransactionDB":
        """A database of the given rows, each an iterable of item ids read
        with int(), in any order and possibly repeated: each row is kept as
        its distinct ids, increasing (`_canonical_rows`), and an empty row
        is kept.  n_items defaults to 1 + the largest id.  Raises
        ValueError for no rows ("no transactions"), a negative id ("item
        indices must be non-negative") and, without n_items, rows that
        are all empty ("cannot infer n_items from empty rows")."""
        flat: list[int] = []
        ends = []
        for row in rows:
            flat.extend(map(int, row))
            ends.append(len(flat))
        if not ends:
            raise ValueError("no transactions")
        ids = np.array(flat, dtype=np.int64)
        if ids.size and ids.min() < 0:
            raise ValueError("item indices must be non-negative")
        if n_items is None:
            if not ids.size:
                raise ValueError("cannot infer n_items from empty rows")
            n_items = int(ids.max()) + 1
        owner = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
        return cls(*_canonical_rows(owner, ids, len(ends)), n_items)

    def row(self, i: int) -> tuple[int, ...]:
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return tuple(self._item_ids[self._indices[lo:hi]].tolist())

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
        out[rows, self._item_ids[self._indices]] = True
        return out

    def item_level(self) -> np.ndarray:
        """Level 1: the items occurring in at least one transaction, as a
        C x 1 level (see `as_level`)."""
        return as_level(self._item_ids[:, None].copy())

    def _positions(self, items: np.ndarray) -> np.ndarray:
        """Each item's position among the present ids, or -1 for an item
        that no row holds, whose left and right insertion points are one."""
        at = self._item_ids.searchsorted(items)
        return np.where(self._item_ids.searchsorted(items, side="right") > at, at, -1)

    def check_items(self, level: np.ndarray) -> None:
        """Refuse a level (see `as_level`) with items outside 0..n_items-1,
        naming the first in row order."""
        if level.size and (level.min() < 0 or level.max() >= self.n_items):
            flat = level.ravel()
            bad = flat[(flat < 0) | (flat >= self.n_items)][0]
            raise ValueError(f"item {bad} out of range for {self.n_items} items")

    def contains_all(self, itemset: Itemset) -> np.ndarray:
        """Boolean vector over transactions: row contains every item of x,
        read from the AND of the items' rows in a bit matrix of them."""
        level = as_level([itemset])
        self.check_items(level)
        held = np.bitwise_and.reduce(_bit_columns(self, level[0]), axis=0)
        return np.unpackbits(held.view(np.uint8), count=self.n_transactions,
                             bitorder="little").astype(bool)

    def column_bitset(self, j: int) -> int:
        """Python int with bit i set iff transaction i contains item j."""
        mask = self.contains_all(Itemset.of(j))
        return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransactionDB):
            return NotImplemented
        return (
            self.n_items == other.n_items
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._item_ids, other._item_ids)
            and np.array_equal(self._indices, other._indices)
        )

    def __repr__(self) -> str:
        return (f"TransactionDB(n_transactions={self.n_transactions}, "
                f"n_items={self.n_items}, nnz={self._indices.size})")


def _recode(indices: np.ndarray, n_items: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids that occur in `indices`, all below n_items (increasing
    int64), each entry's position among them (int32) and each id's count
    (int64).  The map is increasing, so rows stay sorted and every order
    of ids is kept.  With n_items within _RECODE_IDS_PER_ENTRY times the
    entries, ids are counted by a bincount, whose table gives each present
    id its position; else by np.unique, which sorts the entries.  Both
    allocate O(nnz)."""
    if indices.size and n_items <= _RECODE_IDS_PER_ENTRY * indices.size:
        counts = np.bincount(indices)
        ids = np.flatnonzero(counts)
        counts = counts[ids]
        table = np.empty(int(ids[-1]) + 1, dtype=np.int32)  # read only at present ids
        table[ids] = np.arange(ids.size, dtype=np.int32)
        return ids, table.take(indices), counts
    ids, positions, counts = np.unique(indices, return_inverse=True, return_counts=True)
    return ids, positions.astype(np.int32), counts


def _unsorted_rows(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether some row of a valid CSR (indptr, indices) is not strictly
    increasing.  bad[i] marks indices[i] <= indices[i - 1]; a row start i
    is unmarked, as that pair spans two rows.  Only bool temporaries."""
    bad = np.zeros(indices.size + 1, dtype=bool)
    np.less_equal(indices[1:], indices[:-1], out=bad[1:-1])
    bad[indptr] = False
    return bool(bad.any())


def _canonical_rows(rows: np.ndarray, ids: np.ndarray,
                    n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR (indptr, indices) of entries given as (rows[i], ids[i])
    pairs in any order, rows in 0..n_rows-1: each row's ids increasing, a
    repeated pair kept once and a row with no entry kept empty, as
    Borgelt's Apriori prepares each transaction once (FIMI 2003).  One
    lexsort of the pairs, a dedupe mask and one binary search for the row
    starts; indices keep the dtype of ids, and nothing is sized by an id."""
    order = np.lexsort((ids, rows))
    rows, ids = rows[order], ids[order]
    del order  # freed before the deduped copies are made
    keep = np.ones(ids.size, dtype=bool)
    keep[1:] = (ids[1:] != ids[:-1]) | (rows[1:] != rows[:-1])
    rows, ids = rows[keep], ids[keep]
    return rows.searchsorted(np.arange(n_rows + 1, dtype=rows.dtype)), ids


@functools.cache
def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity where the OS has
    one), read once."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(work: int) -> int:
    """The threads a call runs on, given the work that one thread would do
    in one piece or chunk: one per CPU, each with at least _THREAD_WORK of
    that work.  Less than two threads' work reads no CPU count."""
    if work < 2 * _THREAD_WORK:
        return 1
    return min(_cpu_count(), work // _THREAD_WORK)


def _run_tasks(n: int, task, workers: int) -> None:
    """Run task(0) .. task(n - 1) on min(n, workers) threads, the calling
    thread one of them, each thread taking the lowest task not yet taken.
    A task writes only its own slot or slice of its caller's output.  Once
    a task raises, no thread takes another; every thread is joined before
    this returns, and then the exception of the lowest-numbered task that
    raised is raised here, as a serial loop would raise it."""
    if min(n, workers) < 2:
        for i in range(n):
            task(i)
        return
    tasks = iter(range(n))
    lock = threading.Lock()
    failed: dict[int, BaseException] = {}

    def work():
        while True:
            with lock:  # a task taken after another fails is a later one
                i = next(tasks, None) if not failed else None
            if i is None:
                return
            try:
                task(i)
            except BaseException as exc:
                failed[i] = exc

    threads = [threading.Thread(target=work) for _ in range(min(n, workers) - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if failed:
        raise failed[min(failed)]


def parse_fimi(text: str) -> TransactionDB:
    """Parse FIMI format: one transaction per line, space-separated item ids.

    Blank lines are skipped.  Duplicate ids inside a line collapse to one.
    n_items = 1 + max id seen, which must fit int64.  Text of digits,
    spaces, tabs and newlines is read by numpy's text reader a piece of
    whole lines at a time, on as many threads as the process has CPUs, so
    besides the database's arrays and one copy of its ids, made when the
    pieces are joined, what it allocates is bounded by _PARSE_BLOCK, not by
    the text.  Any other text, or an id of _FAST_ID_LIMIT or more, is read
    line by line, which is also what names the line of an error.
    """
    db = _parse_fimi_blocks(text)
    return db if db is not None else _parse_fimi_lines(text)


def _parse_fimi_blocks(text: str) -> TransactionDB | None:
    """Vectorised parse of text made only of digits, spaces, tabs and
    newlines, with every id below _FAST_ID_LIMIT; None for any other text,
    which the line parser then reads and reports on.

    The text is cut at newlines into pieces of at most _PARSE_BLOCK // W
    bytes (a longer line is one piece), read on W threads (`_workers`), so
    at most one _PARSE_BLOCK of text is in flight, and joined in order."""
    if not text.isascii():
        return None
    workers = _workers(min(len(text), _PARSE_BLOCK))
    size = max(_PARSE_BLOCK // workers, 1)
    cuts = [0]
    while cuts[-1] < len(text):
        lo = cuts[-1]
        hi = min(lo + size, len(text))
        if hi < len(text):
            cut = text.rfind("\n", lo, hi)
            if cut < 0:  # a line longer than a piece is read whole
                cut = text.find("\n", hi)
            hi = cut + 1 if cut >= 0 else len(text)
        cuts.append(hi)
    pieces: list = [None] * (len(cuts) - 1)

    def parse(i):
        pieces[i] = _parse_fimi_piece(text[cuts[i]:cuts[i + 1]].encode("ascii"))
        if pieces[i] is None:
            raise _NotFast  # no later piece is read

    try:
        _run_tasks(len(pieces), parse, workers)
    except _NotFast:
        return None
    if not any(ids.size for ids, _ in pieces):
        raise FimiParseError("no transactions")
    indices = np.concatenate([ids for ids, _ in pieces])
    counts = np.concatenate([lengths for _, lengths in pieces])
    pieces.clear()  # freed before the database recodes the ids
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    del counts
    return TransactionDB(indptr, indices, int(indices.max()) + 1)


def _parse_fimi_piece(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The ids and row lengths of a piece of whole lines, or None if it
    holds a byte the fast path does not read or an id of _FAST_ID_LIMIT or
    more.  np.fromstring reads it with every newline made a -1 token, so a
    line's ids lie between two -1s and a blank line is an empty gap; a
    piece with an unsorted row is put in canonical form (`_canonical_rows`)."""
    if block.translate(None, _FAST_BYTES):
        return None
    tokens = np.fromstring(block.replace(b"\n", b" -1 ") + b" -1", dtype=np.int64, sep=" ")
    stop = tokens < 0
    lengths = np.diff(np.flatnonzero(stop), prepend=-1) - 1
    lengths = lengths[lengths > 0]  # blank lines drop out
    vals = tokens[~stop]
    if vals.size and vals.max() >= _FAST_ID_LIMIT:
        return None
    ptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    # FIMI files usually list each row's ids sorted and distinct
    if _unsorted_rows(ptr, vals):
        ptr, vals = _canonical_rows(np.repeat(np.arange(lengths.size), lengths), vals,
                                    lengths.size)
        lengths = np.diff(ptr)
    return vals, lengths


def _parse_fimi_lines(text: str) -> TransactionDB:
    """Line-by-line parse of any text, with the line number of any error."""
    flat: list[int] = []
    ends = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        ids = []
        for tok in line.split():
            try:
                ids.append(int(tok))
            except ValueError:
                raise FimiParseError(f"line {lineno}: non-integer token {tok!r}") from None
        if not ids:
            continue
        if min(ids) < 0:
            raise FimiParseError(f"line {lineno}: negative item id {min(ids)}")
        if max(ids) > _MAX_ITEM_ID:
            raise FimiParseError(f"line {lineno}: item id {max(ids)} too large")
        flat += ids
        ends.append(len(flat))
    if not ends:
        raise FimiParseError("no transactions")
    ids = np.array(flat, dtype=np.int64)
    owner = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    return TransactionDB(*_canonical_rows(owner, ids, len(ends)), int(ids.max()) + 1)


def level_supports(db: TransactionDB, candidates,
                   weights: np.ndarray | None = None) -> np.ndarray:
    """Support counts |{i : x subset of row i}| of a level's candidates
    (an array or a list, see `as_level`), in order, as an int64 array, or
    with weights the sums of weights[i] over those rows.  Weights are draw
    counts, a 1-d integer array of length N: any other array, or a
    negative count, is refused with ValueError before anything is counted.

    Unweighted single items gather the column counts.  Unweighted
    k-itemsets, k >= 2, are counted on a bit matrix of the level's items,
    built from the CSR rows (`_bit_columns`): one row of ceil(N/64)
    uint64 words per item, bit i set iff row i holds the item, as MAFIA's
    vertical bitmaps are (Burdick, Calimlim and Gehrke, ICDE 2001); a
    candidate's count is the popcount of the AND of its items' rows;
    `classical.apriori` builds that matrix once per run and holds it
    (`_holding_bits`).  A weighted count reads only the rows of nonzero
    weight, as a sample is mined in memory (Toivonen, VLDB 1996), so a
    sampler's count costs its drawn rows, not N (`_weighted_supports`)."""
    level = as_level(candidates)
    db.check_items(level)
    if weights is not None:
        weights = np.asarray(weights)
        if weights.shape != (db.n_transactions,) or weights.dtype.kind not in "iu":
            raise ValueError(f"weights must be a 1-d integer array of length "
                             f"N={db.n_transactions}, got {weights.dtype} {weights.shape}")
        if weights.size and weights.min() < 0:
            raise ValueError("weights are draw counts and must be non-negative")
    return _supports(db, level, weights)


def _supports(db: TransactionDB, level: np.ndarray,
              weights: np.ndarray | None = None) -> np.ndarray:
    """`level_supports` of a level, and weights, that are already checked
    (`as_level`, `TransactionDB.check_items`).  The level's distinct items
    are found among the present ids once; an absent one counts 0.  An
    unweighted count inside a run that holds a bit matrix of db
    (`_holding_bits`) counts on it when it holds every item of the level."""
    if not (len(level) and db._item_ids.size):  # no candidate, or no row holds an item
        return np.zeros(len(level), dtype=np.int64)
    if weights is None and level.shape[1] == 1:
        at = db._positions(level[:, 0])
        return np.where(at >= 0, db._column_counts[at], 0)
    items, ranks = _item_ranks(level)
    if weights is not None:
        return _weighted_supports(db, items, ranks, weights)
    held = _HELD.get()
    if held is not None and held[0] is db:  # this thread's run holds a matrix of db
        if held[1] is None:  # the run's first count builds it
            held[1:] = items, _bit_columns(db, items)
        if np.isin(items, held[1]).all():
            return _and_counts(held[2], held[1].searchsorted(items)[ranks].astype(np.int32),
                               held[2].shape[1])
    bits = _bit_columns(db, items)
    return _and_counts(bits, ranks, bits.shape[1])


@contextmanager
def _holding_bits(db: TransactionDB):
    """Hold one bit matrix of db while the block runs, for a level-wise
    exact run on the calling thread: its first unweighted count of
    k-itemsets (k >= 2) builds it over its level's items, and each later
    count whose items it holds counts on its rows by rank; `_keep_bits`
    drops the rows no later level needs.  It is dropped when the block
    ends.  The hold is the thread's own (`_HELD`), so a count on db from
    another thread neither reads nor fills it, and each of several runs
    on one database at once builds its own matrix once."""
    token = _HELD.set([db, None, None])
    try:
        yield
    finally:
        _HELD.reset(token)


def _keep_bits(db: TransactionDB, level: np.ndarray) -> None:
    """Keep only the rows of a level's items in the bit matrix of db that
    this thread's run holds (`_holding_bits`), if one is held."""
    held = _HELD.get()
    if held is not None and held[0] is db and held[1] is not None:
        items = _item_ranks(level)[0]
        items = items[np.isin(items, held[1])]
        held[1:] = items, held[2][held[1].searchsorted(items)]


def _prefix_runs(level: np.ndarray) -> np.ndarray:
    """The bounds of the runs of consecutive rows of a level that share a
    (k-1)-prefix: each run's first row, then C."""
    bounds = np.zeros(len(level) + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    (level[1:, :-1] != level[:-1, :-1]).any(axis=1, out=bounds[1:-1])
    return bounds.nonzero()[0]


def _row_keys(level: np.ndarray) -> np.ndarray:
    """Each row of a level as one fixed-size bytes key that orders as the
    row does: its items big-endian, which for non-negative ids compare
    byte by byte as the numbers do.  (numpy's bytes comparison ignores
    trailing zero bytes, which keeps that order, since zero is the least
    byte.)"""
    rows = np.ascontiguousarray(level, dtype=level.dtype.newbyteorder(">"))
    return rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel()


def _lex_sorted(level: np.ndarray) -> np.ndarray:
    """A level's rows in lexicographic order: the level itself when its
    rows already strictly increase, as those of every level `mine_levels`
    builds do, so no sort runs.  A level that repeats a row is refused,
    naming the first row in the level's order that equals an earlier one."""
    if len(level) < 2:
        return level
    keys = _row_keys(level)
    if (keys[1:] > keys[:-1]).all():
        return level
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    again = order[1:][keys[1:] == keys[:-1]]  # each repeat, after its equal
    if again.size:
        raise ValueError(f"duplicate itemset {Itemset(level[again.min()].tolist())}")
    return level[order]


def _item_ranks(level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A level's distinct items, increasing, and each entry's rank among
    them (int32): its item's row in a bit matrix of them.  Ranked by
    sorting the level's own entries, so nothing is sized by an item id."""
    items = np.sort(level, axis=None)
    first = np.ones(items.size, dtype=bool)
    np.not_equal(items[1:], items[:-1], out=first[1:])
    items = items[first]
    return items, items.searchsorted(level).astype(np.int32)


def _rank_table(db: TransactionDB, items: np.ndarray) -> np.ndarray | None:
    """One intp table over the M' present ids: each of a 1-d array of ids
    gets its index, every other id the spare index len(items), so a rank
    indexes a block or a bincount as it is (no cast, and no wrap of a
    negative index).  None if no row holds any of them."""
    positions = db._positions(items)
    present = positions >= 0
    if not present.any():
        return None
    table = np.full(db._item_ids.size, items.size, dtype=np.intp)
    table[positions[present]] = np.flatnonzero(present)
    return table


def _column_entries(db: TransactionDB, rows: np.ndarray | None, lo: int, stop: int):
    """The entries of columns lo..stop-1 of a bit matrix (`_bit_columns`)
    in pieces: yields each piece's item positions and each entry's column
    less lo.  Without rows a piece is a slice of the CSR ids, N entries
    (256 at least, or one column, if longer), 16 B an entry downstream.
    With rows, N // 8 columns at a time get a CSR of their own (each
    one's offset into the ids and a running sum of their lengths), from
    which pieces of N // 8 entries are gathered, 32 B an entry."""
    indptr, indices = db._indptr, db._indices
    step = max(db.n_transactions // (1 if rows is None else 8), 1 << 8)
    for first in range(lo, stop, stop - lo if rows is None else step):
        last = stop if rows is None else min(first + step, stop)
        if rows is None:
            ptr, shift = indptr[first:last + 1], None
        else:
            shift = indptr.take(rows[first:last])
            ptr = np.zeros(last - first + 1, dtype=np.int64)
            np.cumsum(indptr[1:].take(rows[first:last]) - shift, out=ptr[1:])
            shift -= ptr[:-1]  # a column's CSR start less the entries before it
        a = 0
        while a < last - first:  # columns a..b-1: step entries, or one column
            b = int(ptr.searchsorted(ptr[a] + step, side="right")) - 1
            b = min(max(b, a + 1), last - first)
            owner = np.repeat(np.arange(a, b), ptr[a + 1:b + 1] - ptr[a:b])
            piece = (indices[ptr[a]:ptr[b]] if shift is None
                     else indices.take(shift.take(owner) + np.arange(ptr[a], ptr[b])))
            owner += first - lo
            yield piece, owner
            del piece, owner  # freed, once the caller drops them, before the next piece
            a = b


def _bit_columns(db: TransactionDB, items: np.ndarray,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """One row of ceil(P/64) uint64 words per item of a 1-d array of ids,
    over P columns: column i is transaction i (P = N), or, given an
    increasing array of P row indices, column p is transaction rows[p].
    Bit p of an item's row is set iff column p's transaction holds it; the
    row of an item that no row holds is empty.  Built from the CSR rows in
    one pass over the columns' entries (`_column_entries`), in chunks of
    whole 64-column words: a chunk ranks its entries (`_rank_table`; an id
    off the level takes the spare row len(items)), scatters them into a
    bool block of its rows and packs that into its own words.  A block
    holds at most the bytes of the items' matrix over all N rows (4 KiB,
    or one word of rows, at least), so few drawn rows take one chunk."""
    n_cols = db.n_transactions if rows is None else rows.size
    table = _rank_table(db, items)
    if table is None:
        return np.zeros((items.size, -(-n_cols // 64)), dtype=np.uint64)
    bits = np.empty((items.size, -(-n_cols // 64)), dtype=np.uint64)
    span = (items.size + 1) * 64  # a block's bytes per word of rows
    chunk = max(1, max(items.size * -(-db.n_transactions // 64) * 8, 1 << 12) // span)
    for first in range(0, bits.shape[1], chunk):
        last = min(first + chunk, bits.shape[1])
        block = np.zeros((items.size + 1, (last - first) * 64), dtype=bool)
        for positions, columns in _column_entries(db, rows, first * 64, min(last * 64, n_cols)):
            at = table.take(positions)
            at *= block.shape[1]
            at += columns
            block.reshape(-1)[at] = True
            del positions, columns, at
        bits[:, first:last] = np.packbits(block[:-1], axis=1, bitorder="little").view(np.uint64)
    return bits


def _and_counts(bits: np.ndarray, ranks: np.ndarray, words: int) -> np.ndarray:
    """Each candidate's count on a bit matrix, its items' rows given by
    ranks (C x k): the popcount of the AND of those rows.  Candidates are
    counted in chunks that gather len(bits) * words words at most, what a
    count over every row gathers with words = ceil(N/64), so a matrix over
    a few drawn rows is counted in a few large chunks; a chunk is split
    over W threads (`_workers`), each counting into its own slice."""
    out = np.empty(len(ranks), dtype=np.int64)
    step = max(len(bits) * words // max(bits.shape[1], 1), 1)
    workers = _workers(ranks[:step].size * bits.shape[1])
    step = max(step // workers, 1)

    def count(i):
        part = ranks[i * step:(i + 1) * step]
        held = bits[part[:, 0]]
        for column in part.T[1:]:
            held &= bits[column]
        out[i * step:i * step + len(part)] = np.bitwise_count(held).sum(axis=1, dtype=np.int64)

    _run_tasks(-(-len(ranks) // step), count, workers)
    return out


def _weighted_supports(db: TransactionDB, items: np.ndarray, ranks: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """level_supports with weights, for a level of distinct items and
    ranks (`_item_ranks`): the sum over each binary digit b of the weights
    of 2**b times an exact count over the rows whose weight has bit b set,
    which reads those rows' CSR slices alone (`_column_entries`).  Single
    items count their entries by a bincount of their ranks (`_rank_table`),
    and k-itemsets, k >= 2, the ANDs of a bit matrix over those rows
    (`_bit_columns`).  The rows of nonzero weight are found once, int32
    when N allows, with their weights in the narrowest type that holds them."""
    out = np.zeros(len(ranks), dtype=np.int64)
    table = _rank_table(db, items)
    drawn = np.flatnonzero(weights != 0).astype(np.int32 if weights.size <= 1 << 31 else np.intp)
    top = weights.max()
    times = weights.take(drawn).astype(np.min_scalar_type(top))
    for b in range(int(top).bit_length() if table is not None else 0):
        rows = drawn[(times & (1 << b)) != 0]
        if ranks.shape[1] > 1:
            counts = _and_counts(_bit_columns(db, items, rows), ranks, -(-db.n_transactions // 64))
        else:
            counts = np.zeros(items.size + 1, dtype=np.int64)
            for positions, _ in _column_entries(db, rows, 0, rows.size):
                counts += np.bincount(table.take(positions), minlength=items.size + 1)
            counts = counts[ranks[:, 0]]
        out += counts << b
    return out


def exact_support(db: TransactionDB, x: Itemset) -> ExactSupport:
    """Exact support of x: |{i : x subset of row i}| / N."""
    return ExactSupport(int(level_supports(db, [x])[0]), db.n_transactions)


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
    Raises MemoryError, before anything is drawn, if the database's
    expected size would pass LEVEL_BYTES, and ValueError if it would draw
    more than _SYNTH_DRAWS random numbers.  Each target's rows are drawn
    as an array; background items take their uniforms a batch of b items at
    a time, in one `rng.random(b * n)` call, which draws the doubles, and
    leaves the generator in the state, of b calls of `rng.random(n)`.  The
    database is built from the (row, item) pairs by `_canonical_rows`.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    counts: dict[int, int] = {}
    for key, val in support_targets.items():
        x = key if isinstance(key, Itemset) else Itemset.of(key)
        if len(x) != 1:
            raise ValueError(f"target {x} is not a single item")
        j = x[0]
        if j >= m:
            raise ValueError(f"target item {j} out of range for m={m}")
        frac = _as_exact_fraction(val)
        count = frac * n
        if count.denominator != 1:
            raise ValueError(f"target {frac} of {n} rows is not an integer count")
        if not 0 <= count <= n:
            raise ValueError(f"target support {frac} infeasible for n={n}")
        counts[j] = int(count)
    entries = sum(counts.values()) + background_density * n * (m - len(counts))
    n_bytes = int(entries * _SYNTH_ENTRY_BYTES + n * _SYNTH_ROW_BYTES + m * _SYNTH_ITEM_BYTES
                  + (8 * n if counts else 0))  # one target's permutation of the rows at a time
    if n_bytes > LEVEL_BYTES:
        raise MemoryError(f"a {n} x {m} database at density {background_density} needs "
                          f"about {n_bytes} bytes, over the {LEVEL_BYTES}-byte level budget")
    draws = n * (m if background_density > 0 else len(counts))
    if draws > _SYNTH_DRAWS:
        raise ValueError(f"a {n} x {m} database at density {background_density} draws "
                         f"{draws} random numbers, over the cap of {_SYNTH_DRAWS}")

    rng = np.random.default_rng(seed)
    # each target's rows, int32 as the budget keeps n below 2**31, copied
    # down to its count, so one permutation is alive at a time
    col_rows = {j: rng.permutation(n)[:count].astype(np.int32) for j, count in counts.items()}
    ids = [np.repeat(np.array(list(col_rows), dtype=np.int32),
                     [r.size for r in col_rows.values()])]
    rows = [np.zeros(0, dtype=np.int32), *col_rows.values()]
    del col_rows
    if background_density > 0:
        free = np.ones(m, dtype=bool)
        free[list(counts)] = False
        background = np.flatnonzero(free).astype(np.int32)
        batch = max(1, (m * _SYNTH_ITEM_BYTES + n * _SYNTH_ROW_BYTES) // (2 * 9 * n))
        for lo in range(0, background.size, batch):
            items = background[lo:lo + batch]
            held = rng.random(items.size * n).reshape(items.size, n) < background_density
            at, row = np.nonzero(held)
            ids.append(items[at])
            rows.append(row.astype(np.int32))
    ids, rows = np.concatenate(ids), np.concatenate(rows)
    return TransactionDB(*_canonical_rows(rows, ids, n), m)
