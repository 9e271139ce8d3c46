"""The full mining loop: estimate in parallel, amplify the frequent
subspace, measure, repeat until nothing new appears.

After estimation the good subspace is spanned by basis states whose
estimation value y decodes to a support at or above the threshold.
|Psi3> is the same for every shot of a level, so each level takes only
its (est, cand) law P0, built in closed form from the candidates'
supports by `qpe.estimation_law` (no state is simulated), and every
shot draws from P0 amplified in closed form.  Q = (2|Psi3><Psi3| - I) * S_good
acts in the good/bad plane: with p the good weight and sin^2(phi) = p,
after r iterations the good rows of P0 are scaled by sin^2((2r+1)phi)/p
and the bad rows by cos^2((2r+1)phi)/(1-p) (Brassard, Hoyer, Mosca and
Tapp, quant-ph/0005055).  Amplification modes:

* ideal-projection: project onto the good subspace and renormalize
  (reference semantics, no query cost);
* grover-known: r = round(pi/(4*arcsin(sqrt(p))) - 1/2) iterations of Q,
  with p read off P0;
* bbht: exponentially growing random iteration counts with internal
  measurement and re-preparation until a good outcome appears (Boyer,
  Brassard, Hoyer and Tapp, quant-ph/9605034).

Each Q iteration costs two pipeline traversals, 2(T-1) Grover
applications; re-preparations cost T-1.  With shots counted as state
preparations, basic-oracle calls always equal
2k(T-1) * (preparations + 2 * amplification iterations).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import IterationStats, cand_gen
from .constants import GRID_TOL, NORM_TOL
from .data import (
    ExactSupport,
    Itemset,
    TransactionDB,
    exact_support,
    support_threshold,
)
from .oracle import QueryCounter
from .qpe import SupportEstimate, decode_support, estimation_law
from .qsim import as_rng

__all__ = [
    "NoFrequentCandidatesError",
    "GoodSet",
    "good_set",
    "amplitude_amplify",
    "MinedItemset",
    "MiningResult",
    "qarm_mine_k",
    "qarm_full",
    "AMPLIFY_MODES",
]

AMPLIFY_MODES = ("ideal-projection", "grover-known", "bbht")

# good-subspace weight at or below this counts as "no frequent candidates"
_P_FLOOR = 1e-15


class NoFrequentCandidatesError(RuntimeError):
    """The good subspace carries no probability: nothing clears the threshold."""


@dataclass(frozen=True)
class GoodSet:
    """Estimation outcomes whose decoded support reaches the threshold."""

    big_t: int
    min_supp: float
    members: frozenset[int]

    def __contains__(self, y: int) -> bool:
        return y in self.members

    def mask(self) -> np.ndarray:
        out = np.zeros(self.big_t, dtype=bool)
        out[list(self.members)] = True
        return out


def good_set(big_t: int, min_supp) -> GoodSet:
    """All y in 0..T-1 with sin^2(pi*min(y, T-y)/T) >= min_supp.

    Grid values are compared with GRID_TOL slack so exact boundaries
    (e.g. sin^2(pi/4) vs 1/2) land inside.  Symmetric: y in <=> T-y in.
    """
    thr = float(support_threshold(min_supp))
    members = frozenset(
        y for y in range(big_t)
        if decode_support(y, big_t).value >= thr - GRID_TOL
    )
    return GoodSet(big_t=big_t, min_supp=thr, members=members)


def _rotation(mask: np.ndarray, p: float, phi: float, r: int) -> np.ndarray:
    """Per-est-row probability factor after r iterations of Q."""
    angle = (2 * r + 1) * phi
    bad = math.cos(angle) ** 2 / (1.0 - p) if p < 1.0 else 0.0
    return np.where(mask, math.sin(angle) ** 2 / p, bad)


def _sample(weights: np.ndarray, rng) -> int:
    """Born-rule draw of one flat index from nonnegative weights."""
    flat = weights.ravel()
    return int(rng.choice(flat.size, p=flat / flat.sum()))


def amplitude_amplify(law: np.ndarray, good: GoodSet, mode: str = "ideal-projection",
                      rng=None, counter: QueryCounter | None = None, *,
                      k: int) -> np.ndarray:
    """Amplify the good subspace of |Psi3>, given as its (est, cand) law.

    law[y, j] is the probability of measuring est = y and cand = j on
    |Psi3>; the returned array is that law after amplification.  Q acts
    in the good/bad plane, so with p the good weight and sin^2(phi) = p,
    r iterations scale every good row by sin^2((2r+1)phi)/p and every bad
    row by cos^2((2r+1)phi)/(1-p) and leave each row's cand conditional
    as it is.  k is the itemset size of the level, which sets the ledger
    charges.  bbht measures the estimation register internally and
    returns the law collapsed onto a good outcome y; the other modes
    leave the estimation register unmeasured.
    """
    big_t = law.shape[0]
    if good.big_t != big_t:
        raise ValueError("good set grid does not match the estimation register")
    if mode not in AMPLIFY_MODES:
        raise ValueError(f"unknown amplification mode {mode!r}")
    mask = good.mask()
    est = law.sum(axis=1)
    p = float(est[mask].sum())
    if p <= _P_FLOOR:
        raise NoFrequentCandidatesError(
            f"no candidate clears min_supp={good.min_supp}: good-subspace weight {p:.3e}"
        )

    if mode == "ideal-projection":
        projected = law * mask[:, None]
        return projected / projected.sum()

    rng = as_rng(rng)
    phi = math.asin(math.sqrt(min(1.0, p)))

    if mode == "grover-known":
        r = max(0, round(math.pi / (4.0 * phi) - 0.5))
        if counter is not None:
            for _ in range(r):
                counter.charge_amplification_iteration(k, big_t)
        return law * _rotation(mask, p, phi, r)[:, None]

    # bbht: grow the iteration window, measure, retry on a bad outcome
    m = 1.0
    m_cap = max(1.0, 1.1 / math.sqrt(p))
    budget = int(200.0 / math.sqrt(p)) + 50
    spent = 0
    first = True
    est_after: dict[int, np.ndarray] = {}  # est marginal after r iterations
    while True:
        if not first and counter is not None:
            counter.charge_estimation_pipeline(k, big_t)
        first = False
        r = int(rng.integers(0, int(math.ceil(m))))
        if counter is not None:
            for _ in range(r):
                counter.charge_amplification_iteration(k, big_t)
        if r not in est_after:
            est_after[r] = est * _rotation(mask, p, phi, r)
        y = _sample(est_after[r], rng)
        if counter is not None:
            counter.measurements += 1
        if y in good:
            collapsed = np.zeros_like(law)
            collapsed[y] = law[y] / law[y].sum()
            return collapsed
        spent += r + 1
        if spent > budget:
            raise RuntimeError("amplitude amplification failed to converge")
        m = min(m * 6.0 / 5.0, m_cap)


@dataclass(frozen=True)
class MinedItemset:
    itemset: Itemset
    estimate: SupportEstimate
    boundary_uncertain: bool
    exact: ExactSupport | None = None


@dataclass(frozen=True)
class MiningResult:
    found: tuple[MinedItemset, ...]
    counters: QueryCounter
    mode: str
    shots_used: int

    def itemsets(self) -> list[Itemset]:
        return [mi.itemset for mi in self.found]


def _grid_step_at(estimate: SupportEstimate) -> float:
    y, big_t = estimate.y, estimate.big_t
    nxt = math.sin(math.pi * (y + 1) / big_t) ** 2
    return abs(nxt - estimate.value)


def qarm_mine_k(db: TransactionDB, candidates: list[Itemset], k: int, big_t: int,
                min_supp, mode: str = "ideal-projection", rng=None,
                patience: int = 25, counter: QueryCounter | None = None,
                qubit_cap: int | None = None,
                verify_boundary: bool = False) -> MiningResult:
    """Mine one level: repeat estimate-amplify-measure until `patience`
    consecutive shots add no new itemset.

    Raises NoFrequentCandidatesError when no candidate's support reaches
    the threshold (good-subspace weight zero).  Every recorded estimate
    is at the threshold or above; an itemset keeps its first estimate.
    """
    if mode not in AMPLIFY_MODES:
        raise ValueError(f"unknown amplification mode {mode!r}")
    if patience < 1:
        raise ValueError("patience must be >= 1")
    thr = float(support_threshold(min_supp))
    rng = as_rng(rng)
    if counter is None:
        counter = QueryCounter()
    start = counter.snapshot()
    law = estimation_law(db, candidates, k, big_t, counter, qubit_cap)
    total = float(law.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"(est, cand) law of |Psi3> sums to {total!r}")
    good = good_set(big_t, min_supp)

    found: dict[Itemset, MinedItemset] = {}
    misses = 0
    first = True
    while misses < patience:
        if not first:
            counter.charge_estimation_pipeline(k, big_t)
        first = False
        shot = amplitude_amplify(law, good, mode, rng, counter, k=k)
        y, j = divmod(_sample(shot, rng), shot.shape[1])
        counter.measurements += 1
        if j >= len(candidates):
            raise AssertionError("measured an index beyond the candidates")
        itemset = candidates[j]
        estimate = decode_support(y, big_t)
        if estimate.value >= thr - GRID_TOL and itemset not in found:
            found[itemset] = MinedItemset(
                itemset=itemset,
                estimate=estimate,
                boundary_uncertain=abs(estimate.value - thr) < _grid_step_at(estimate),
                exact=exact_support(db, itemset) if verify_boundary else None,
            )
            misses = 0
        else:
            misses += 1

    delta = counter.delta(start)
    per_pipeline = 2 * k * (big_t - 1)
    expect = per_pipeline * (delta.state_preparations + 2 * delta.amplification_iterations)
    if delta.basic_oracle_calls != expect:
        raise AssertionError(
            f"query ledger broke: {delta.basic_oracle_calls} basic calls, expected {expect}"
        )
    if delta.basic_oracle_calls != 2 * k * delta.phase_oracle_k_calls:
        raise AssertionError("basic calls must be 2k per phase-oracle call")
    ordered = tuple(found[key] for key in sorted(found))
    return MiningResult(found=ordered, counters=counter.snapshot(), mode=mode,
                        shots_used=delta.state_preparations)


def qarm_full(db: TransactionDB, min_supp, big_t: int,
              mode: str = "ideal-projection", rng=None, *, patience: int = 25,
              qubit_cap: int | None = None,
              counter: QueryCounter | None = None
              ) -> tuple[list[MiningResult], list[IterationStats]]:
    """Level-wise quantum mining: level 1 candidates are the items that
    occur; level k+1 candidates come from joining level-k results."""
    rng = as_rng(rng)
    if counter is None:
        counter = QueryCounter()
    candidates = [Itemset.of(j) for j in db.present_items()]
    results: list[MiningResult] = []
    stats: list[IterationStats] = []
    k = 1
    while candidates:
        try:
            res = qarm_mine_k(db, candidates, k, big_t, min_supp, mode, rng,
                              patience=patience, counter=counter,
                              qubit_cap=qubit_cap)
        except NoFrequentCandidatesError:
            res = MiningResult(found=(), counters=counter.snapshot(),
                               mode=mode, shots_used=0)
        stats.append(IterationStats(k, len(candidates), len(res.found)))
        results.append(res)
        candidates = cand_gen(res.itemsets())
        k += 1
    return results, stats
