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
right after the law: the good mask, p and phi, and the CDFs the draws
search.  Each measurement is one `searchsorted` of one uniform on the
CDF that `rng.choice` builds from w / w.sum(), with w the very weights
it draws from, so a shot costs O(log(T*C)) and takes the uniforms
`rng.choice` would take.  `amplitude_amplify` returns the amplified law
of one shot and is the reference the tests hold the plan to.  A level
over `constants.LEVEL_BYTES` is refused before its law, and one still
finding itemsets at `constants.LEVEL_SHOTS` shots raises RuntimeError.

Each Q iteration costs two pipeline traversals, 2(T-1) Grover
applications; re-preparations cost T-1.  A level charges its shots'
re-preparations, fixed r iterations and measurements once, after its
last shot; bbht charges each attempt it draws.  With shots counted as
state preparations, basic-oracle calls always equal
2k(T-1) * (preparations + 2 * amplification iterations).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    _KEPT_BYTES,
    IterationStats,
    _bit_matrix_bytes,
    _check_level_bytes,
    mine_levels,
)
from .constants import GRID_TOL, LEVEL_SHOTS, NORM_TOL
from .data import Itemset, QueryCounter, TransactionDB, as_level, support_threshold
from .qpe import SupportEstimate, _grid_value, _log2_exact, decode_support, estimation_law

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
# T x C float arrays a level holds at once (law, weights, and the
# normalised weights that become the CDF in place); two more columns hold
# the T-length arrays and one count's phase law
_LAW_COPIES = 3


class NoFrequentCandidatesError(RuntimeError):
    """The good subspace carries no probability: nothing clears the threshold."""


def good_set(big_t: int, min_supp) -> np.ndarray:
    """The good mask: a length-T boolean array, True at the y in 0..T-1
    with sin^2(pi*min(y, T-y)/T) >= min_supp.

    Grid values are compared with GRID_TOL slack so exact boundaries
    (e.g. sin^2(pi/4) vs 1/2) land inside.  Symmetric: y is good iff T-y is.
    Values are `decode_support`'s, by `math.sin` (`np.sin` can be an ulp off).
    A T that is not a power of two >= 2 is refused with ValueError.
    """
    _log2_exact(big_t)
    thr = float(support_threshold(min_supp))
    # y = 0..T/2 compared, mirrored onto T-y
    half = np.array([_grid_value(y, big_t) for y in range(big_t // 2 + 1)]) >= thr - GRID_TOL
    return np.concatenate([half, half[(big_t - 1) // 2:0:-1]])


def _rotation(mask: np.ndarray, p: float, phi: float, r: int) -> np.ndarray:
    """Per-est-row probability factor after r iterations of Q."""
    angle = (2 * r + 1) * phi
    bad = math.cos(angle) ** 2 / (1.0 - p) if p < 1.0 else 0.0
    return np.where(mask, math.sin(angle) ** 2 / p, bad)


def _weights_cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF `Generator.choice(w.size, p=w / w.sum())` draws from, for
    the flattened weights w, after the checks choice makes on that p:
    finite, non-negative, summing to 1."""
    flat = weights.ravel()
    q = flat / flat.sum()
    if (not (np.isfinite(q).all() and (q >= 0).all())
            or abs(float(q.sum()) - 1.0) > _CHOICE_ATOL):
        raise ValueError("draw weights must be finite, non-negative and sum to 1")
    np.cumsum(q, out=q)
    q /= q[-1]
    return q


def _draw(cdf: np.ndarray, rng) -> int:
    """One flat index from a `_weights_cdf`: the index `rng.choice(n, p=q)`
    returns, from the same single uniform of the stream."""
    return int(cdf.searchsorted(rng.random(), side="right"))


class _LevelPlan:
    """The parts of a level's amplify-and-measure shots that no shot changes.

    Built once from the level's (est, cand) law: the good mask, the good
    weight p and sin^2(phi) = p, and grover-known's fixed r.  Every
    measurement draws from `weights(r, y)` through the CDF `rng.choice`
    would build from them, made the first time it is needed and kept in
    one dict keyed by (r, y): ideal-projection and grover-known draw (est,
    cand) at once from law * factor, with the mask or the rotation after
    r as the factor; bbht draws est from est * rotation(r), then cand from
    law[y] once est has collapsed onto y.  Rows are at most T; an est CDF
    is kept only while the dict holds fewer than C.  A shot costs
    O(log(T*C)) and takes the same uniforms from the stream as one
    `rng.choice` per measurement.
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
        self.r = max(0, round(math.pi / (4.0 * self.phi) - 0.5)) if mode == "grover-known" else 0
        self._cdfs: dict[tuple[int | None, int | None], np.ndarray] = {}

    def weights(self, r: int | None = None, y: int | None = None) -> np.ndarray:
        """What a measurement draws from: law[y] once est has collapsed onto
        y; otherwise, after r iterations of Q, est * rotation(r) for bbht
        and law * factor for the other modes."""
        if y is not None:
            return self.law[y]
        if self.mode == "ideal-projection":
            return self.law * self.mask[:, None]
        factor = _rotation(self.mask, self.p, self.phi, r)
        return self.est * factor if self.mode == "bbht" else self.law * factor[:, None]

    def cdf(self, r: int | None = None, y: int | None = None) -> np.ndarray:
        """`_weights_cdf` of `weights(r, y)`, made the first time it is needed."""
        cdf = self._cdfs.get((r, y))
        if cdf is None:
            cdf = _weights_cdf(self.weights(r, y))
            if y is not None or len(self._cdfs) < self.law.shape[1]:
                self._cdfs[r, y] = cdf
        return cdf

    def shot(self, rng, counter: QueryCounter) -> tuple[int, int]:
        """Amplify and measure once: the (y, j) outcome of est and cand.
        Only bbht charges here; a fixed r is the level's to charge."""
        if self.mode == "bbht":
            y = self.bbht_outcome(rng, counter)
            return y, _draw(self.cdf(y=y), rng)
        return divmod(_draw(self.cdf(self.r), rng), self.law.shape[1])

    def bbht_outcome(self, rng, counter: QueryCounter) -> int:
        """bbht: grow the iteration window, measure est, retry on a bad
        outcome; returns the good y measured."""
        k, big_t, p = self.k, self.big_t, self.p
        m = 1.0
        m_cap = max(1.0, 1.1 / math.sqrt(p))
        budget = int(200.0 / math.sqrt(p)) + 50
        spent = 0
        while True:
            r = int(rng.integers(0, int(math.ceil(m))))
            counter.charge_amplification_iterations(k, big_t, r)
            y = _draw(self.cdf(r), rng)
            counter.measurements += 1
            if self.good[y]:
                return y
            spent += r + 1
            if spent > budget:
                raise RuntimeError("amplitude amplification failed to converge")
            m = min(m * 6.0 / 5.0, m_cap)
            counter.charge_estimation_pipeline(k, big_t)  # |Psi3> again, to retry


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
        y = plan.bbht_outcome(np.random.default_rng(rng), counter)
        collapsed = np.zeros_like(law)
        collapsed[y] = law[y] / law[y].sum()
        return collapsed
    counter.charge_amplification_iterations(k, plan.big_t, plan.r)
    amplified = plan.weights(plan.r)
    return amplified / amplified.sum() if mode == "ideal-projection" else amplified


@dataclass(frozen=True, slots=True)
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


def check_mining_args(big_t: int, patience: int) -> None:
    """Refuse a grid size T that is not a power of two >= 2 and a patience
    below 1 or above LEVEL_SHOTS, which a level could not outlast."""
    _log2_exact(big_t)
    if patience < 1:
        raise ValueError("patience must be >= 1")
    if patience > LEVEL_SHOTS:
        raise ValueError(f"patience {patience} is above the {LEVEL_SHOTS}-shot cap of a level")


def qarm_mine_k(db: TransactionDB, candidates, k: int, big_t: int,
                min_supp, mode: str = "ideal-projection", rng=None,
                patience: int = 25, counter: QueryCounter | None = None
                ) -> MiningResult:
    """Mine one level, an array or a list of k-itemsets (see `as_level`):
    repeat estimate-amplify-measure until `patience` consecutive shots
    add no new itemset.

    Raises NoFrequentCandidatesError when no candidate's support reaches
    the threshold (good-subspace weight zero), MemoryError before the
    law when the level would pass LEVEL_BYTES, and RuntimeError when it
    has taken LEVEL_SHOTS shots and would take another.  Every recorded estimate is
    at the threshold or above; an itemset keeps its first estimate.
    """
    if mode not in AMPLIFY_MODES:
        raise ValueError(f"unknown amplification mode {mode!r}")
    check_mining_args(big_t, patience)
    thr = float(support_threshold(min_supp))
    rng = np.random.default_rng(rng)
    if counter is None:
        counter = QueryCounter()
    start = counter.snapshot()
    level = as_level(candidates, k)
    bits = _bit_matrix_bytes(db, level) if k > 1 else 0
    # the law, and every candidate found in the worst case
    _check_level_bytes(db, k, len(level), f" at T={big_t}",
                       (len(level) + 2) * _LAW_COPIES * 8 * big_t
                       + len(level) * _KEPT_BYTES + bits)
    law = estimation_law(db, level, k, big_t, counter)
    total = float(law.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"(est, cand) law of |Psi3> sums to {total!r}")
    plan = _LevelPlan(law, min_supp, mode, k)

    # by candidate row; an Itemset is made only for what is found
    found: dict[int, MinedItemset] = {}
    misses = shots = 0
    while misses < patience:
        if shots == LEVEL_SHOTS:
            raise RuntimeError(f"level {k}: still finding itemsets at the {LEVEL_SHOTS}-shot cap")
        y, j = plan.shot(rng, counter)
        shots += 1
        if j >= len(level):
            raise AssertionError("measured an index beyond the candidates")
        if plan.good[y] and j not in found:
            estimate = decode_support(y, big_t)
            step = abs(_grid_value(estimate.y + 1, big_t) - estimate.value)  # to the next point
            found[j] = MinedItemset(itemset=Itemset(level[j].tolist()), estimate=estimate,
                                    boundary_uncertain=abs(estimate.value - thr) < step)
            misses = 0
        else:
            misses += 1
    # each shot after the first prepares |Psi3> again; each runs the fixed
    # r iterations of Q (bbht charged its own draws) and measures est, cand
    counter.charge_estimation_pipeline(k, big_t, shots - 1)
    counter.charge_amplification_iterations(k, big_t, plan.r * shots)
    counter.measurements += shots

    delta = counter.delta(start)
    per_pipeline = 2 * k * (big_t - 1)
    expect = per_pipeline * (delta.state_preparations + 2 * delta.amplification_iterations)
    if delta.basic_oracle_calls != expect:
        raise AssertionError(
            f"query ledger broke: {delta.basic_oracle_calls} basic calls, expected {expect}"
        )
    if delta.basic_oracle_calls != 2 * k * delta.phase_oracle_k_calls:
        raise AssertionError("basic calls must be 2k per phase-oracle call")
    ordered = tuple(sorted(found.values(), key=lambda mi: mi.itemset))
    return MiningResult(found=ordered, shots_used=delta.state_preparations)


def qarm_full(db: TransactionDB, min_supp, big_t: int,
              mode: str = "ideal-projection", rng=None, *, patience: int = 25,
              counter: QueryCounter | None = None
              ) -> tuple[list[MiningResult], list[IterationStats]]:
    """Level-wise quantum mining on `mine_levels`: each level is one
    `qarm_mine_k`, and a level where nothing clears the threshold keeps
    nothing.  T and patience are checked before any level runs."""
    check_mining_args(big_t, patience)
    rng = np.random.default_rng(rng)
    if counter is None:
        counter = QueryCounter()

    def examine(candidates, k):
        try:
            res = qarm_mine_k(db, candidates, k, big_t, min_supp, mode, rng,
                              patience=patience, counter=counter)
        except NoFrequentCandidatesError:
            res = MiningResult(found=(), shots_used=0)
        # the found itemsets, sorted, as rows of the level's dtype
        kept = np.array(res.itemsets(), dtype=candidates.dtype).reshape(-1, k)
        return kept, res

    run = mine_levels(db, examine)
    return run.results, run.stats
