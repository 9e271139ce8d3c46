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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .constants import LEVEL_BYTES
from .data import (
    ExactSupport,
    Itemset,
    TransactionDB,
    level_supports,
    support_threshold,
)
from .oracle import QueryCounter
from .qsim import as_rng

# most row draws sampling_estimate asks of the Generator in one call
_DRAW_BUDGET = 1 << 22
# bytes one level allocates, rounded up from tracemalloc peaks: per
# candidate (Itemset, support and list slots) and per transaction (marks)
_CANDIDATE_BYTES, _ROW_BYTES = 512, 4

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
        if set(self.antecedent.items) & set(self.consequent.items):
            raise ValueError("antecedent and consequent must be disjoint")

    def __str__(self) -> str:
        return (
            f"{self.antecedent} => {self.consequent} "
            f"(supp={self.support}, conf={self.confidence})"
        )


def fre_exam(db: TransactionDB, candidates: Sequence[Itemset], min_supp,
             counter: QueryCounter | None = None, *,
             supports: dict[Itemset, ExactSupport] | None = None
             ) -> list[tuple[Itemset, ExactSupport]]:
    """Keep the candidates whose exact support reaches the threshold.

    Charges k*N row operations per k-candidate to the classical ledger.
    Every candidate's support, kept or not, is also stored in `supports`
    when it is given.
    """
    thr = support_threshold(min_supp)
    candidates = list(candidates)
    n_rows = db.n_transactions
    out = []
    for x, count in zip(candidates, level_supports(db, candidates).tolist()):
        sup = ExactSupport(count, n_rows)
        if supports is not None:
            supports[x] = sup
        if count * thr.denominator >= thr.numerator * n_rows:  # count/N >= thr
            out.append((x, sup))
    if counter is not None:
        counter.classical_row_scans += n_rows * sum(x.size for x in candidates)
    return out


def cand_gen(frequents: Sequence[Itemset]) -> list[Itemset]:
    """Join frequent k-itemsets sharing a (k-1)-prefix, then prune any
    candidate with an infrequent k-subset."""
    frequents = list(frequents)
    if not frequents:
        return []
    k = frequents[0].size
    if any(x.size != k for x in frequents):
        raise ValueError("frequents must all have the same size")
    fset = set(frequents)
    if len(fset) != len(frequents):
        raise ValueError("frequents must be distinct")
    tuples = sorted(x.items for x in frequents)
    out = []
    for a_pos, a in enumerate(tuples):
        for b in tuples[a_pos + 1:]:
            if a[:-1] != b[:-1]:
                break
            joined = Itemset(a + (b[-1],))
            if all(sub in fset for sub in joined.subsets(k)):
                out.append(joined)
    return sorted(out)


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


def mine_levels(db: TransactionDB,
                examine: Callable[[list[Itemset], int], tuple[list[Itemset], object]]
                ) -> LevelRun:
    """Run the level policy: level 1 is the items present in db,
    examine(candidates, k) returns the itemsets the level keeps and a
    result of the caller's choosing, and level k+1 is `cand_gen` of the
    kept itemsets.  Stops at the first level with no candidates, and
    raises MemoryError before building a level over LEVEL_BYTES."""
    run = LevelRun(results=[], stats=[])
    candidates = [Itemset.of(j) for j in db.present_items()]
    k = 1
    while candidates:
        kept, result = examine(candidates, k)
        run.results.append(result)
        run.stats.append(IterationStats(k, len(candidates), len(kept)))
        k += 1
        # the pairs cand_gen joins, and its copies of the kept itemsets
        joins = sum(g * (g - 1) // 2 for g in Counter(x.items[:-1] for x in kept).values())
        _check_level_bytes(db, k, joins, "", len(kept) * _CANDIDATE_BYTES)
        candidates = cand_gen(kept)
    return run


@dataclass(frozen=True)
class AprioriResult:
    frequents: dict[Itemset, ExactSupport]
    stats: list[IterationStats]
    # every candidate of every level, frequent or not, in level order
    supports: dict[Itemset, ExactSupport]


def apriori(db: TransactionDB, min_supp,
            counter: QueryCounter | None = None) -> AprioriResult:
    """Level-wise exact mining; level 1 candidates are the items that occur."""
    thr = support_threshold(min_supp)
    supports: dict[Itemset, ExactSupport] = {}

    def examine(candidates, _k):
        level = fre_exam(db, candidates, thr, counter, supports=supports)
        return [x for x, _ in level], level

    run = mine_levels(db, examine)
    frequents = {x: sup for level in run.results for x, sup in level}
    return AprioriResult(frequents=frequents, stats=run.stats, supports=supports)


def check_n_samples(n_samples: int) -> None:
    """Refuse a row-draw count below 1."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")


def sampling_estimate(db: TransactionDB, candidates: Sequence[Itemset],
                      n_samples: int, rng=None,
                      counter: QueryCounter | None = None) -> list[tuple[Itemset, float]]:
    """Estimate each support from n_samples uniform row draws (with
    replacement).  Standard binomial estimator: std sqrt(s(1-s)/n).

    Each candidate takes its own n_samples draws, in order, in
    `rng.integers` calls of at most _DRAW_BUDGET rows: a chunk of
    candidates per call, or one candidate over several calls past the
    budget.  A helper thread makes call i+1 while this thread counts the
    hits of call i on `TransactionDB.prefix_walk` marks.  The stream and
    the Generator's final state are those of one size-n_samples draw per
    candidate, and a draw's exception is raised here.
    """
    check_n_samples(n_samples)
    rng = as_rng(rng)
    candidates = list(candidates)
    db.check_items(candidates)
    n_rows = db.n_transactions
    marks = np.zeros(n_rows, dtype=np.min_scalar_type(
        max((x.size for x in candidates), default=1)))
    draw_dtype = np.int32 if n_rows <= np.iinfo(np.int32).max else np.int64
    per_call = max(1, _DRAW_BUDGET // n_samples)
    width = min(n_samples, _DRAW_BUDGET)

    # imported here, so that `import qarm.cli` does not pay ~7 ms for it
    from concurrent.futures import ThreadPoolExecutor

    out = []
    walk = db.prefix_walk(candidates, marks)
    with ThreadPoolExecutor(max_workers=1) as helper:
        def prefetched():
            # one (rows, n) call draws what `rows` calls of size n would,
            # and so do consecutive slices of one row
            queue = (helper.submit(rng.integers, 0, n_rows, dtype=draw_dtype,
                                   size=(min(per_call, len(candidates) - lo),
                                         min(width, n_samples - start)))
                     for lo in range(0, len(candidates), per_call)
                     for start in range(0, n_samples, width))
            pending = next(queue, None)
            while pending is not None:
                draws = pending.result()
                pending = next(queue, None)
                yield draws

        calls = prefetched()
        # draws first, so that the walk never passes the last drawn candidate
        for draws in calls:
            for row_draws, (x, last) in zip(draws, walk):
                marks[last] += 1
                hits = np.count_nonzero(marks.take(row_draws) == x.size)
                for _ in range(width, n_samples, width):  # per_call is 1 here
                    hits += np.count_nonzero(marks.take(next(calls)[0]) == x.size)
                marks[last] -= 1
                out.append((x, hits / n_samples))
    if counter is not None:
        counter.classical_row_scans += n_samples * sum(x.size for x in candidates)
    return out


def sampling_apriori(db: TransactionDB, min_supp, n_samples: int, rng,
                     counter: QueryCounter | None
                     ) -> tuple[list[tuple[Itemset, float]], list[IterationStats]]:
    """Level-wise mining on sampled supports: a candidate is kept when its
    hit count over n_samples row draws reaches the threshold exactly.
    Returns every kept (itemset, estimate) pair and the level stats."""
    check_n_samples(n_samples)
    thr = support_threshold(min_supp)
    rng = as_rng(rng)

    def examine(candidates, _k):
        level = [(x, est) for x, est in sampling_estimate(db, candidates, n_samples,
                                                          rng, counter)
                 if Fraction(round(est * n_samples), n_samples) >= thr]
        return [x for x, _ in level], level

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
        if x.size < 2:
            continue
        sup_x = frac(supports[x])
        for size in range(1, x.size):
            for ant in x.subsets(size):
                if ant not in supports:
                    raise ValueError(f"missing subset support for {ant}")
                sup_a = frac(supports[ant])
                if sup_a == 0:
                    raise ValueError(f"zero-support antecedent {ant}")
                conf = sup_x / sup_a
                if conf >= thr:
                    cons = Itemset.of(set(x.items) - set(ant.items))
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
