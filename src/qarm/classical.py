"""The level-wise driver, exact Apriori, the sampling baseline, and rule
generation.

Every miner here and in `qarm.mining` runs the level policy of
Agrawal and Srikant (VLDB 1994) through `mine_levels`: level 1 is the
items that occur, each level keeps some of its candidates, and level k+1
is `cand_gen` of what level k kept.  Only how a level is examined differs.

All thresholds are exact rationals; a support passes iff numerator/N >=
threshold as fractions, so percentage cutoffs never suffer float
boundary errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .constants import LEVEL_BYTES
from .data import (
    ExactSupport,
    Itemset,
    QueryCounter,
    TransactionDB,
    _holding_bits,
    _item_ranks,
    _keep_bits,
    _lex_sorted,
    _prefix_runs,
    _row_keys,
    _supports,
    as_level,
    level_supports,
    support_threshold,
)

# most row draws sampling_estimate asks of the Generator in one call
_DRAW_BUDGET = 1 << 22
# bytes one level allocates, rounded up from tracemalloc peaks: per
# candidate (its int32 row, count or estimate, and cand_gen's join and
# prune temporaries), per itemset a level keeps or the quantum miner finds
# (its Itemset and support, estimate or MinedItemset, with their list or
# dict slots), and per transaction (the N entries, 16 B each, that an
# exact count's bit matrix build reads at a time; the sampler's int64 draw
# counts, its drawn rows and those of one binary digit of their counts,
# and N // 8 of those rows and N // 8 of their entries, 32 B each, at a
# time).  fre_exam's and the sampler's byte-bound properties held at 24
# B a row over 300 examples each, and fre_exam's failed at 22
_CANDIDATE_BYTES, _KEPT_BYTES, _ROW_BYTES = 64, 192, 24
# kept rows turned into Python objects at a time
_KEPT_SLICE = 1 << 8
# the bit matrix of a count's items and one chunk's gathered words and
# popcounts, as a multiple of the matrix over every row.  A sampled count
# builds one matrix per binary digit of the draw counts, over those rows
# alone, with blocks and chunks no larger than an exact count's
_BIT_MATRIX_COPIES = 3

__all__ = [
    "IterationStats",
    "AssociationRule",
    "AprioriResult",
    "LevelRun",
    "fre_exam",
    "cand_gen",
    "mine_levels",
    "apriori",
    "check_n_samples",
    "sampling_estimate",
    "sampling_apriori",
    "generate_rules",
    "gamma_metric",
    "REFERENCE_APRIORI_RUNS",
    "REFERENCE_GAMMA",
]


@dataclass(frozen=True)
class IterationStats:
    """Candidate and frequent counts for one level of the mining loop."""

    k: int
    m_candidates: int
    m_frequent: int

    def __post_init__(self):
        if self.k < 1 or self.m_candidates < 0:
            raise ValueError("invalid iteration stats")
        if not 0 <= self.m_frequent <= self.m_candidates:
            raise ValueError(
                f"m_frequent {self.m_frequent} outside [0, {self.m_candidates}]"
            )


@dataclass(frozen=True)
class AssociationRule:
    antecedent: Itemset
    consequent: Itemset
    support: Fraction
    confidence: Fraction

    def __post_init__(self):
        if set(self.antecedent) & set(self.consequent):
            raise ValueError("antecedent and consequent must be disjoint")

    def __str__(self) -> str:
        return (
            f"{self.antecedent} => {self.consequent} "
            f"(supp={self.support}, conf={self.confidence})"
        )


def _min_count(thr: Fraction, n: int) -> int:
    """The least count with count/n >= thr: ceil(thr * n), in integers."""
    return -(-thr.numerator * n // thr.denominator)


def fre_exam(db: TransactionDB, candidates, min_supp,
             counter: QueryCounter | None = None
             ) -> tuple[list[tuple[Itemset, ExactSupport]], np.ndarray]:
    """Keep the candidates whose exact support reaches the threshold.

    candidates is a level, an array or a list (see `as_level`).  Returns
    the kept candidates with their supports, in order, and every
    candidate's count as an int64 array; raises MemoryError before making
    the kept itemsets if the level would pass LEVEL_BYTES with them.
    Charges k*N row operations per k-candidate to the classical ledger.
    """
    level = as_level(candidates)
    counts, keep = _exam_level(db, level, support_threshold(min_supp), counter)
    n_rows = db.n_transactions
    kept = list(_kept_pairs(level, keep, counts, lambda count: ExactSupport(count, n_rows)))
    return kept, counts


def _exam_level(db: TransactionDB, level: np.ndarray, thr: Fraction,
                counter: QueryCounter | None) -> tuple[np.ndarray, np.ndarray]:
    """`fre_exam`'s count of a level: every candidate's count and the rows
    whose count reaches thr, once the level and its kept itemsets have
    passed LEVEL_BYTES; charges the ledger."""
    n_rows = db.n_transactions
    counts = level_supports(db, level)
    keep = np.flatnonzero(counts >= _min_count(thr, n_rows))
    _check_level_bytes(db, level.shape[1], len(level), "", len(keep) * _KEPT_BYTES)
    if counter is not None:
        counter.classical_row_scans += n_rows * level.size
    return counts, keep


def _kept_pairs(level: np.ndarray, keep: np.ndarray, values: np.ndarray,
                make: Callable) -> Iterator[tuple[Itemset, object]]:
    """(Itemset, make(value)) for each kept row of a level and its value,
    made _KEPT_SLICE rows at a time, so no Python list of every kept row
    is alive next to the pairs."""
    for lo in range(0, len(keep), _KEPT_SLICE):
        rows = keep[lo:lo + _KEPT_SLICE]
        yield from zip(map(Itemset, level[rows].tolist()), map(make, values[rows].tolist()))


def cand_gen(frequents) -> np.ndarray:
    """Join frequent k-itemsets sharing a (k-1)-prefix, then prune any
    candidate with an infrequent k-subset.

    frequents is a level of distinct itemsets in any order, an array or a
    list (see `as_level`); the candidates are a C x (k+1) level in
    lexicographic order.  In the sorted level each row joins every later
    row of its prefix group.  A join's k-subsets without its last or
    next-to-last item are those two rows; each other one is looked up by
    `searchsorted` on the level's packed row keys (`_row_keys`).
    """
    level, bounds = _prefix_groups(as_level(frequents))
    n, k = level.shape
    sizes = bounds[1:] - bounds[:-1]
    if len(sizes) >= n:  # no two rows share a prefix
        return np.empty((0, k + 1), dtype=level.dtype)
    # row a joins the rows after it in its group: b = a + 1 .. group end - 1
    after = (bounds[1:] - 1).repeat(sizes) - np.arange(n)
    a = np.arange(n).repeat(after)
    b = np.arange(a.size)
    b -= (after.cumsum() - after).repeat(after)
    b += a + 1
    joined = np.empty((a.size, k + 1), dtype=level.dtype)
    joined[:, :k] = level[a]
    joined[:, k] = level[b, k - 1]
    del a, b
    if k > 1 and len(joined):
        keys = _row_keys(level)
        for i in range(k - 1):
            sub = _row_keys(joined[:, [c for c in range(k + 1) if c != i]])
            at = np.minimum(keys.searchsorted(sub), keys.size - 1)
            joined = joined[keys[at] == sub]
    return joined


def _prefix_groups(level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A level of distinct itemsets in lexicographic order (`_lex_sorted`),
    and the bounds of its prefix groups (one group at k = 1)."""
    ordered = _lex_sorted(level)
    return ordered, _prefix_runs(ordered) if level.shape[1] > 1 else np.array([0, len(level)])


@dataclass(frozen=True)
class LevelRun:
    """What `mine_levels` saw, one entry per level in each list."""

    results: list
    stats: list[IterationStats]


def _check_level_bytes(db: TransactionDB, k: int, n_candidates: int, grid: str,
                       other_bytes: int) -> None:
    """MemoryError if level k's candidates, rows and other_bytes pass LEVEL_BYTES."""
    n_bytes = n_candidates * _CANDIDATE_BYTES + db.n_transactions * _ROW_BYTES + other_bytes
    if n_bytes > LEVEL_BYTES:
        raise MemoryError(f"level {k}: {n_candidates} candidates{grid} need about "
                          f"{n_bytes} bytes, over the {LEVEL_BYTES}-byte level budget")


def _bit_matrix_bytes(db: TransactionDB, level: np.ndarray) -> int:
    """What an exact count of k-itemsets, k >= 2, over a level's items
    holds besides its candidates: the bit matrix and one chunk's gathered
    rows and popcounts."""
    n_items = _item_ranks(level)[0].size
    return n_items * -(-db.n_transactions // 64) * 8 * _BIT_MATRIX_COPIES


def mine_levels(db: TransactionDB,
                examine: Callable[[np.ndarray, int], tuple[object, object]]
                ) -> LevelRun:
    """Run the level policy: level 1 is the items present in db,
    examine(candidates, k) gets each level as a C x k int32 array in
    lexicographic order and returns the itemsets the level keeps (rows of
    it, or a list of itemsets, see `as_level`) and a result of the
    caller's choosing, and level k+1 is `cand_gen` of the kept itemsets.
    Stops at the first level with no candidates, and raises MemoryError
    before building a level over LEVEL_BYTES: its joins, the copies of
    the kept itemsets, and the bit matrix of their items."""
    run = LevelRun(results=[], stats=[])
    candidates = db.item_level()
    k = 1
    while len(candidates):
        kept, result = examine(candidates, k)
        kept = as_level(kept)
        run.results.append(result)
        run.stats.append(IterationStats(k, len(candidates), len(kept)))
        k += 1
        # sorted once: cand_gen takes the ordered level as it is
        ordered, bounds = _prefix_groups(kept)
        sizes = bounds[1:] - bounds[:-1]  # a group of g rows makes g(g-1)/2 joins
        _check_level_bytes(db, k, int((sizes * (sizes - 1) // 2).sum()), "",
                           len(kept) * _CANDIDATE_BYTES + _bit_matrix_bytes(db, kept))
        candidates = cand_gen(ordered)
    return run


@dataclass(frozen=True)
class AprioriResult:
    frequents: dict[Itemset, ExactSupport]
    stats: list[IterationStats]
    # every candidate's support count, one int64 array per level
    counts: list[np.ndarray]


def apriori(db: TransactionDB, min_supp,
            counter: QueryCounter | None = None) -> AprioriResult:
    """Level-wise exact mining; level 1 candidates are the items that occur.

    The run holds one bit matrix (`_holding_bits`): level 2's count builds
    it, after each level only the rows of the items it kept stay, which is
    the matrix `mine_levels` charges the next level for, and every later
    level counts on those rows by rank, so no level after the second reads
    the entries.  It is dropped when the run returns."""
    thr = support_threshold(min_supp)
    n_rows = db.n_transactions
    frequents: dict[Itemset, ExactSupport] = {}

    def examine(candidates, _k):
        counts, keep = _exam_level(db, candidates, thr, counter)
        # pair by pair into the dict: a list of (itemset, support) tuples,
        # once dropped, would stay on CPython's free list of tuples, which
        # a full garbage collection empties, so the bytes held after the
        # call would depend on when one last ran
        frequents.update(_kept_pairs(candidates, keep, counts,
                                     lambda count: ExactSupport(count, n_rows)))
        kept = candidates[keep]
        _keep_bits(db, kept)
        return kept, counts

    with _holding_bits(db):
        run = mine_levels(db, examine)
    return AprioriResult(frequents=frequents, stats=run.stats, counts=run.results)


def check_n_samples(n_samples: int) -> None:
    """Refuse a row-draw count below 1 or past int64."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_samples > np.iinfo(np.int64).max:
        raise ValueError(f"n_samples {n_samples} does not fit int64")


def sampling_estimate(db: TransactionDB, candidates, n_samples: int, rng=None,
                      counter: QueryCounter | None = None) -> np.ndarray:
    """Estimate each support of a level (an array or a list, see
    `as_level`) from n_samples uniform row draws (with replacement), one
    sample shared by every candidate (Toivonen, VLDB 1996), as a float64
    array in candidate order.  Each estimate is Binomial(n, s)/n, with std
    sqrt(s(1-s)/n); the estimates of one call share rows, so their errors
    correlate.

    The sample is drawn in `rng.integers` calls of at most _DRAW_BUDGET
    rows, the stream of one size-n_samples draw, and kept as a count per
    row; a candidate's hits are the `level_supports` of the database with
    those counts as row weights, which reads only the drawn rows (at most
    n_samples of N) and counts k-itemsets on a bit matrix over them, as
    an exact count is made over every row.  No candidates, no draws.
    """
    check_n_samples(n_samples)
    rng = np.random.default_rng(rng)
    level = as_level(candidates)
    db.check_items(level)
    if not len(level):
        return np.zeros(0)
    n_rows = db.n_transactions
    draw_dtype = np.int32 if n_rows <= np.iinfo(np.int32).max else np.int64
    drawn = np.zeros(n_rows, dtype=np.int64)
    for start in range(0, n_samples, _DRAW_BUDGET):
        size = min(_DRAW_BUDGET, n_samples - start)
        drawn += np.bincount(rng.integers(0, n_rows, size=size, dtype=draw_dtype),
                             minlength=n_rows)
    estimates = _supports(db, level, drawn) / n_samples
    if counter is not None:
        counter.classical_row_scans += n_samples * level.size
    return estimates


def sampling_apriori(db: TransactionDB, min_supp, n_samples: int, rng,
                     counter: QueryCounter | None
                     ) -> tuple[list[tuple[Itemset, float]], list[IterationStats]]:
    """Level-wise mining on sampled supports: a candidate is kept when its
    hit count over n_samples row draws reaches the threshold exactly.
    Returns every kept (itemset, estimate) pair and the level stats."""
    check_n_samples(n_samples)
    min_count = _min_count(support_threshold(min_supp), n_samples)
    rng = np.random.default_rng(rng)

    def examine(candidates, k):
        estimates = sampling_estimate(db, candidates, n_samples, rng, counter)
        keep = np.flatnonzero(np.round(estimates * n_samples) >= min_count)
        _check_level_bytes(db, k, len(candidates), "", len(keep) * _KEPT_BYTES)
        return candidates[keep], list(_kept_pairs(candidates, keep, estimates, float))

    run = mine_levels(db, examine)
    return [pair for level in run.results for pair in level], run.stats


def generate_rules(supports: Mapping[Itemset, ExactSupport | Fraction],
                   min_conf) -> list[AssociationRule]:
    """All rules A => X\\A with confidence supp(X)/supp(A) >= min_conf.

    supports must be downward closed over the itemsets it contains.
    """
    thr = support_threshold(min_conf)

    def frac(v) -> Fraction:
        return v.value if isinstance(v, ExactSupport) else Fraction(v)

    rules = []
    for x in sorted(supports):
        if len(x) < 2:
            continue
        sup_x = frac(supports[x])
        for size in range(1, len(x)):
            for ant in x.subsets(size):
                if ant not in supports:
                    raise ValueError(f"missing subset support for {ant}")
                sup_a = frac(supports[ant])
                if sup_a == 0:
                    raise ValueError(f"zero-support antecedent {ant}")
                conf = sup_x / sup_a
                if conf >= thr:
                    cons = Itemset.of(set(x) - set(ant))
                    rules.append(AssociationRule(ant, cons, sup_x, conf))
    return rules


def gamma_metric(stats: Sequence[IterationStats], weighted: bool = False) -> float:
    """Classical-to-quantum query ratio over a level-wise run:
    sum(w_k * M_c) / sum(w_k * sqrt(M_c * M_f)), w_k = k if weighted else 1.

    Levels with no frequent itemsets contribute nothing to the denominator.
    """
    if not stats:
        raise ValueError("no iteration stats")
    num = 0.0
    den = 0.0
    for st in stats:
        w = st.k if weighted else 1
        num += w * st.m_candidates
        den += w * math.sqrt(st.m_candidates * st.m_frequent)
    if den == 0.0:
        raise ValueError("no frequent itemsets at any level")
    return num / den


def _runs(rows: list[tuple[int, int, int]]) -> tuple[IterationStats, ...]:
    return tuple(IterationStats(k, mc, mf) for k, mc, mf in rows)


# Reference level-wise counts for the retail and kosarak datasets of the
# FIMI repository at 1% and 2% minimum support, used by the reproduction
# command and the acceptance tests.
REFERENCE_APRIORI_RUNS: dict[tuple[str, str], tuple[IterationStats, ...]] = {
    ("retail", "1%"): _runs([(1, 16470, 70), (2, 2415, 58), (3, 37, 25), (4, 6, 6)]),
    ("retail", "2%"): _runs([(1, 16470, 20), (2, 190, 22), (3, 14, 12), (4, 2, 1)]),
    ("kosarak", "1%"): _runs(
        [(1, 41270, 54), (2, 1431, 140), (3, 194, 127), (4, 57, 52), (5, 11, 10)]
    ),
    ("kosarak", "2%"): _runs(
        [(1, 41270, 27), (2, 351, 45), (3, 45, 34), (4, 13, 13), (5, 2, 2)]
    ),
}

# Unweighted gamma_metric values for the reference runs.
REFERENCE_GAMMA: dict[tuple[str, str], float] = {
    ("retail", "1%"): 12.75,
    ("retail", "2%"): 25.54,
    ("kosarak", "1%"): 19.87,
    ("kosarak", "2%"): 33.74,
}
