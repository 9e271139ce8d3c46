"""The full mining loop: estimate in parallel, amplify the frequent
subspace, measure, repeat until nothing new appears.

After estimation the good subspace is spanned by basis states whose
estimation value y decodes to a support at or above the threshold.
Amplification modes:

* ideal-projection: project onto the good subspace and renormalize
  (reference semantics, no query cost);
* grover-known: r = round(pi/(4*arcsin(sqrt(p))) - 1/2) iterations of
  Q = (2|Psi3><Psi3| - I) * S_good, with p read off the simulated state;
* bbht: exponentially growing random iteration counts with internal
  measurement and re-preparation until a good outcome appears.

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
from .constants import GRID_TOL
from .data import (
    ExactSupport,
    Itemset,
    TransactionDB,
    exact_support,
    support_threshold,
)
from .oracle import CAND, EST, QueryCounter
from .qpe import SupportEstimate, decode_support, parallel_amplitude_estimation
from .qsim import (
    Statevector,
    as_rng,
    measure,
    reflect_about_state,
    register_marginal,
)

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


def _est_view(state: Statevector) -> np.ndarray:
    layout = state.layout
    axis = layout.axis(EST)
    pre = int(np.prod(layout.dims[:axis], dtype=np.int64))
    post = int(np.prod(layout.dims[axis + 1:], dtype=np.int64))
    return state.amps.reshape(pre, layout.dim(EST), post)


def _negate_good(state: Statevector, mask: np.ndarray):
    view3 = _est_view(state)
    view3[:, mask, :] *= -1.0


def amplitude_amplify(state: Statevector, good: GoodSet, mode: str = "ideal-projection",
                      rng=None, counter: QueryCounter | None = None, *,
                      k: int) -> Statevector:
    """Boost the good-subspace weight of a prepared |Psi3> in place.

    k is the itemset size of the level, which sets the ledger charges.
    bbht measures the estimation register internally and returns the
    state collapsed onto a good outcome; the other modes leave the
    estimation register unmeasured.
    """
    big_t = state.layout.dim(EST)
    if good.big_t != big_t:
        raise ValueError("good set grid does not match the estimation register")
    if mode not in AMPLIFY_MODES:
        raise ValueError(f"unknown amplification mode {mode!r}")
    mask = good.mask()
    p = float(register_marginal(state, EST)[mask].sum())
    if p <= _P_FLOOR:
        raise NoFrequentCandidatesError(
            f"no candidate clears min_supp={good.min_supp}: good-subspace weight {p:.3e}"
        )

    if mode == "ideal-projection":
        view3 = _est_view(state)
        view3[:, ~mask, :] = 0.0
        state.amps /= np.linalg.norm(state.amps)
        state.check_norm()
        return state

    rng = as_rng(rng)
    ref = state.copy()

    if mode == "grover-known":
        phi = math.asin(math.sqrt(min(1.0, p)))
        r = max(0, round(math.pi / (4.0 * phi) - 0.5))
        for _ in range(r):
            _negate_good(state, mask)
            reflect_about_state(state, ref)
            if counter is not None:
                counter.charge_amplification_iteration(k, big_t)
        return state

    # bbht: grow the iteration window, measure, retry on a bad outcome
    m = 1.0
    m_cap = max(1.0, 1.1 / math.sqrt(p))
    budget = int(200.0 / math.sqrt(p)) + 50
    spent = 0
    first = True
    while True:
        if not first:
            state.amps[:] = ref.amps
            if counter is not None:
                counter.charge_estimation_pipeline(k, big_t)
        first = False
        r = int(rng.integers(0, int(math.ceil(m))))
        for _ in range(r):
            _negate_good(state, mask)
            reflect_about_state(state, ref)
            if counter is not None:
                counter.charge_amplification_iteration(k, big_t)
        outcomes, _ = measure(state, [EST], rng)
        if counter is not None:
            counter.measurements += 1
        if outcomes[EST] in good:
            return state
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
    psi3 = parallel_amplitude_estimation(db, candidates, k, big_t, counter,
                                         qubit_cap=qubit_cap)
    good = good_set(big_t, min_supp)

    found: dict[Itemset, MinedItemset] = {}
    misses = 0
    first = True
    while misses < patience:
        if not first:
            counter.charge_estimation_pipeline(k, big_t)
        first = False
        work = psi3.copy()
        amplitude_amplify(work, good, mode, rng, counter, k=k)
        outcomes, _ = measure(work, [EST, CAND], rng)
        counter.measurements += 1
        j = outcomes[CAND]
        if j >= len(candidates):
            raise AssertionError("measured an index beyond the candidates")
        itemset = candidates[j]
        estimate = decode_support(outcomes[EST], big_t)
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
