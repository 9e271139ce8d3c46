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

What no shot changes is built once per level, in a private plan made
right after the law: the good mask, p and phi, the amplified law of the
first two modes, and the CDFs the draws search.  Each measurement is one
`searchsorted` of one uniform on the CDF that `rng.choice` would build
from the same weights, so a shot costs O(log(T*C)) and the random
stream, the draws and the ledger are those of drawing with `rng.choice`
from a freshly amplified law.  `amplitude_amplify` returns that
amplified law for one shot and is the reference the tests hold the plan
to.  A level over `constants.LEVEL_BYTES` is refused before its law.

Each Q iteration costs two pipeline traversals, 2(T-1) Grover
applications; re-preparations cost T-1.  With shots counted as state
preparations, basic-oracle calls always equal
2k(T-1) * (preparations + 2 * amplification iterations).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import IterationStats, _check_level_bytes, mine_levels
from .constants import GRID_TOL, NORM_TOL
from .data import Itemset, TransactionDB, support_threshold
from .oracle import QueryCounter, _log2_exact
from .qpe import SupportEstimate, decode_support, estimation_law
from .qsim import as_rng

__all__ = [
    "NoFrequentCandidatesError",
    "good_set",
    "amplitude_amplify",
    "MinedItemset",
    "MiningResult",
    "check_mining_args",
    "qarm_mine_k",
    "qarm_full",
    "AMPLIFY_MODES",
]

AMPLIFY_MODES = ("ideal-projection", "grover-known", "bbht")

# good-subspace weight at or below this counts as "no frequent candidates"
_P_FLOOR = 1e-15
# how far from 1 `Generator.choice` lets its p sum
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)
# T x C float arrays a level holds at once (law, amplified, weights, CDF);
# two more columns hold the T-length arrays and one count's phase law
_LAW_COPIES = 4


class NoFrequentCandidatesError(RuntimeError):
    """The good subspace carries no probability: nothing clears the threshold."""


def good_set(big_t: int, min_supp) -> np.ndarray:
    """The good mask: a length-T boolean array, True at the y in 0..T-1
    with sin^2(pi*min(y, T-y)/T) >= min_supp.

    Grid values are compared with GRID_TOL slack so exact boundaries
    (e.g. sin^2(pi/4) vs 1/2) land inside.  Symmetric: y is good iff T-y is.
    """
    thr = float(support_threshold(min_supp))
    return np.array([decode_support(y, big_t).value >= thr - GRID_TOL
                     for y in range(big_t)], dtype=bool)


def _rotation(mask: np.ndarray, p: float, phi: float, r: int) -> np.ndarray:
    """Per-est-row probability factor after r iterations of Q."""
    angle = (2 * r + 1) * phi
    bad = math.cos(angle) ** 2 / (1.0 - p) if p < 1.0 else 0.0
    return np.where(mask, math.sin(angle) ** 2 / p, bad)


def _cdf(q: np.ndarray) -> np.ndarray:
    """The CDF that `Generator.choice(q.size, p=q)` draws from, after the
    checks choice makes on q: finite, non-negative, summing to 1."""
    if (not (np.isfinite(q).all() and (q >= 0).all())
            or abs(float(q.sum()) - 1.0) > _CHOICE_ATOL):
        raise ValueError("draw weights must be finite, non-negative and sum to 1")
    cdf = q.cumsum()
    cdf /= cdf[-1]
    return cdf


def _weights_cdf(weights: np.ndarray) -> np.ndarray:
    """`_cdf` of nonnegative weights, normalised as a Born-rule draw does."""
    flat = weights.ravel()
    return _cdf(flat / flat.sum())


def _draw(cdf: np.ndarray, rng) -> int:
    """One flat index from a `_cdf`: the index `rng.choice(n, p=q)` returns,
    from the same single uniform of the stream."""
    return int(cdf.searchsorted(rng.random(), side="right"))


class _LevelPlan:
    """The parts of a level's amplify-and-measure shots that no shot changes.

    Built once from the level's (est, cand) law: the good mask, the good
    weight p and sin^2(phi) = p, the amplified law of ideal-projection or
    grover-known (with its fixed r), and the CDFs every draw searches.
    The flat CDF of those two modes is made on the first shot; bbht makes
    one est CDF per iteration count r (keeping C of them) and one cand CDF
    per good y it collapses onto (a row of a T x C array), each the first
    time it is needed.  Every CDF is the one `rng.choice` would build from
    the same normalised weights, so a shot costs O(log(T*C)) and takes the
    same uniforms from the stream as one `rng.choice` per measurement.
    """

    def __init__(self, law: np.ndarray, min_supp, mode: str, k: int):
        if mode not in AMPLIFY_MODES:
            raise ValueError(f"unknown amplification mode {mode!r}")
        big_t = law.shape[0]
        mask = good_set(big_t, min_supp)
        est = law.sum(axis=1)
        p = float(est[mask].sum())
        if p <= _P_FLOOR:
            raise NoFrequentCandidatesError(
                f"no candidate clears min_supp={float(support_threshold(min_supp))}: "
                f"good-subspace weight {p:.3e}"
            )
        self.law, self.mode, self.k, self.big_t = law, mode, k, big_t
        # a list, so that each shot's lookup is cheap
        self.mask, self.good, self.est, self.p = mask, mask.tolist(), est, p
        self.phi = math.asin(math.sqrt(min(1.0, p)))
        self.r = 0
        self.amplified: np.ndarray | None = None
        if mode == "ideal-projection":
            projected = law * mask[:, None]
            self.amplified = projected / projected.sum()
        elif mode == "grover-known":
            self.r = max(0, round(math.pi / (4.0 * self.phi) - 0.5))
            self.amplified = law * _rotation(mask, p, self.phi, self.r)[:, None]
        self._flat_cdf: np.ndarray | None = None
        self._est_cdfs: dict[int, np.ndarray] = {}
        self._row_cdfs = np.zeros_like(law) if mode == "bbht" else None

    def shot(self, rng, counter: QueryCounter) -> tuple[int, int]:
        """Amplify and measure once: the (y, j) outcome of est and cand."""
        if self.mode == "bbht":
            y = self.bbht_outcome(rng, counter)
            return y, _draw(self._row_cdf(y), rng)
        counter.charge_amplification_iterations(self.k, self.big_t, self.r)
        if self._flat_cdf is None:
            self._flat_cdf = _weights_cdf(self.amplified)
        return divmod(_draw(self._flat_cdf, rng), self.law.shape[1])

    def bbht_outcome(self, rng, counter: QueryCounter) -> int:
        """bbht: grow the iteration window, measure est, retry on a bad
        outcome; returns the good y measured."""
        k, big_t, p = self.k, self.big_t, self.p
        m = 1.0
        m_cap = max(1.0, 1.1 / math.sqrt(p))
        budget = int(200.0 / math.sqrt(p)) + 50
        spent = 0
        first = True
        while True:
            if not first:
                counter.charge_estimation_pipeline(k, big_t)
            first = False
            r = int(rng.integers(0, int(math.ceil(m))))
            counter.charge_amplification_iterations(k, big_t, r)
            y = _draw(self._est_cdf(r), rng)
            counter.measurements += 1
            if self.good[y]:
                return y
            spent += r + 1
            if spent > budget:
                raise RuntimeError("amplitude amplification failed to converge")
            m = min(m * 6.0 / 5.0, m_cap)

    def _est_cdf(self, r: int) -> np.ndarray:
        """CDF of the est marginal after r iterations of Q."""
        cdf = self._est_cdfs.get(r)
        if cdf is None:
            cdf = _weights_cdf(self.est * _rotation(self.mask, self.p, self.phi, r))
            if len(self._est_cdfs) < self.law.shape[1]:
                self._est_cdfs[r] = cdf
        return cdf

    def _row_cdf(self, y: int) -> np.ndarray:
        """CDF of cand once est has collapsed onto y.  The collapsed law is
        row y of a zero T x C array; its normaliser is the sum over that
        whole padded array, which can differ in the last bit from the
        row's own sum.  Rows not made yet are zero; a made row ends in 1."""
        if self._row_cdfs[y, -1] == 0.0:
            n_cand = self.law.shape[1]
            row = self.law[y] / self.law[y].sum()
            padded = np.zeros(self.law.size)
            padded[y * n_cand:(y + 1) * n_cand] = row
            self._row_cdfs[y] = _cdf(row / padded.sum())
        return self._row_cdfs[y]


def amplitude_amplify(law: np.ndarray, min_supp, mode: str = "ideal-projection",
                      rng=None, counter: QueryCounter | None = None, *,
                      k: int) -> np.ndarray:
    """Amplify the good subspace of |Psi3>, given as its (est, cand) law.

    law[y, j] is the probability of measuring est = y and cand = j on
    |Psi3>; the returned array is that law after amplification.  The good
    rows are `good_set(T, min_supp)` for the law's T.  Q acts
    in the good/bad plane, so with p the good weight and sin^2(phi) = p,
    r iterations scale every good row by sin^2((2r+1)phi)/p and every bad
    row by cos^2((2r+1)phi)/(1-p) and leave each row's cand conditional
    as it is.  k is the itemset size of the level, which sets the ledger
    charges.  bbht measures the estimation register internally and
    returns the law collapsed onto a good outcome y; the other modes
    leave the estimation register unmeasured.

    This is the law-returning form of one shot of the level plan the
    miner draws from: the same amplification, charges and bbht draws.
    """
    plan = _LevelPlan(law, min_supp, mode, k)
    if counter is None:
        counter = QueryCounter()
    if mode == "bbht":
        y = plan.bbht_outcome(as_rng(rng), counter)
        collapsed = np.zeros_like(law)
        collapsed[y] = law[y] / law[y].sum()
        return collapsed
    counter.charge_amplification_iterations(k, plan.big_t, plan.r)
    return plan.amplified


@dataclass(frozen=True)
class MinedItemset:
    itemset: Itemset
    estimate: SupportEstimate
    boundary_uncertain: bool


@dataclass(frozen=True)
class MiningResult:
    found: tuple[MinedItemset, ...]
    shots_used: int

    def itemsets(self) -> list[Itemset]:
        return [mi.itemset for mi in self.found]


def _grid_step_at(estimate: SupportEstimate) -> float:
    y, big_t = estimate.y, estimate.big_t
    nxt = math.sin(math.pi * (y + 1) / big_t) ** 2
    return abs(nxt - estimate.value)


def check_mining_args(big_t: int, patience: int) -> None:
    """Refuse a grid size T that is not a power of two >= 2 and a patience
    below 1."""
    _log2_exact(big_t)
    if patience < 1:
        raise ValueError("patience must be >= 1")


def qarm_mine_k(db: TransactionDB, candidates: list[Itemset], k: int, big_t: int,
                min_supp, mode: str = "ideal-projection", rng=None,
                patience: int = 25, counter: QueryCounter | None = None
                ) -> MiningResult:
    """Mine one level: repeat estimate-amplify-measure until `patience`
    consecutive shots add no new itemset.

    Raises NoFrequentCandidatesError when no candidate's support reaches
    the threshold (good-subspace weight zero), and MemoryError before the
    law when the level would pass LEVEL_BYTES.  Every recorded estimate is
    at the threshold or above; an itemset keeps its first estimate.
    """
    if mode not in AMPLIFY_MODES:
        raise ValueError(f"unknown amplification mode {mode!r}")
    check_mining_args(big_t, patience)
    thr = float(support_threshold(min_supp))
    rng = as_rng(rng)
    if counter is None:
        counter = QueryCounter()
    start = counter.snapshot()
    _check_level_bytes(db, k, len(candidates), f" at T={big_t}",
                       (len(candidates) + 2) * _LAW_COPIES * 8 * big_t)
    law = estimation_law(db, candidates, k, big_t, counter)
    total = float(law.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"(est, cand) law of |Psi3> sums to {total!r}")
    plan = _LevelPlan(law, min_supp, mode, k)

    found: dict[Itemset, MinedItemset] = {}
    misses = 0
    first = True
    while misses < patience:
        if not first:
            counter.charge_estimation_pipeline(k, big_t)
        first = False
        y, j = plan.shot(rng, counter)
        counter.measurements += 1
        if j >= len(candidates):
            raise AssertionError("measured an index beyond the candidates")
        itemset = candidates[j]
        if plan.good[y] and itemset not in found:
            estimate = decode_support(y, big_t)
            found[itemset] = MinedItemset(
                itemset=itemset,
                estimate=estimate,
                boundary_uncertain=abs(estimate.value - thr) < _grid_step_at(estimate),
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
    return MiningResult(found=ordered, shots_used=delta.state_preparations)


def qarm_full(db: TransactionDB, min_supp, big_t: int,
              mode: str = "ideal-projection", rng=None, *, patience: int = 25,
              counter: QueryCounter | None = None
              ) -> tuple[list[MiningResult], list[IterationStats]]:
    """Level-wise quantum mining on `mine_levels`: each level is one
    `qarm_mine_k`, and a level where nothing clears the threshold keeps
    nothing.  T and patience are checked before any level runs."""
    check_mining_args(big_t, patience)
    rng = as_rng(rng)
    if counter is None:
        counter = QueryCounter()

    def examine(candidates, k):
        try:
            res = qarm_mine_k(db, candidates, k, big_t, min_supp, mode, rng,
                              patience=patience, counter=counter)
        except NoFrequentCandidatesError:
            res = MiningResult(found=(), shots_used=0)
        return res.itemsets(), res

    run = mine_levels(db, examine)
    return run.results, run.stats
