"""Parallel amplitude estimation over candidate itemsets.

The Grover operator G = (2|X_N><X_N| - I)O^(k) rotates each candidate's
(infrequent, frequent) plane by 2*theta with sin^2(theta) = support, so
its eigenphases are +-theta/pi.  Running phase estimation with a T-point
estimation register against a uniform superposition of candidates
estimates every candidate support at once; measuring y yields the grid
value sin^2(pi*y/T).

For an eigenphase omega the estimation register ends in
|E_T(omega)> with |<y|E_T(omega)>|^2 = sin^2(pi(T*omega - y)) /
(T^2 sin^2(pi(T*omega - y)/T)), a point mass when T*omega is an integer.
Each branch omega in {theta/pi, 1 - theta/pi} carries weight 1/2.

The pipeline state lives in est (x) txn (x) cand: the candidate register
indexes the level's C candidates, and G acts on each candidate's slice
through its own column of the txn x cand sign table, so the (est, cand)
law is (1/C) times the sum of the per-candidate laws.

The miner takes that law from `estimation_law`, which builds it in
closed form from the candidates' exact support counts and charges the
ledger as the pipeline would; the miner bounds it in bytes, not qubits.
`parallel_amplitude_estimation` runs the pipeline on the dense state; it
is the reference the closed form is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Itemset, TransactionDB, level_supports
from .oracle import (
    CAND,
    EST,
    TXN,
    QueryCounter,
    _log2_exact,
    candidate_layout,
    candidate_sign_table,
    item_registers,
    phase_oracle_sign_table,
)
from .qsim import (
    Statevector,
    apply_controlled_power,
    inverse_qft,
    prepare_uniform,
)

__all__ = [
    "SupportEstimate",
    "decode_support",
    "grid_steps_between",
    "apply_grover_operator",
    "parallel_amplitude_estimation",
    "estimation_law",
    "analytic_phase_distribution",
]


@dataclass(frozen=True)
class SupportEstimate:
    """Decoded measurement: grid point y* of T and its sin^2 value."""

    y: int
    big_t: int
    value: float
    epsilon_scale: float


def decode_support(y: int, big_t: int) -> SupportEstimate:
    """Fold y to y* = min(y, T-y) and decode s_hat = sin^2(pi*y*/T)."""
    if not 0 <= y < big_t:
        raise ValueError(f"y={y} outside [0, {big_t})")
    y_star = min(y, big_t - y)
    value = math.sin(math.pi * y_star / big_t) ** 2
    eps = 2 * math.pi * math.sqrt(value * (1 - value)) / big_t + math.pi ** 2 / big_t ** 2
    return SupportEstimate(y=y_star, big_t=big_t, value=value, epsilon_scale=eps)


def grid_steps_between(support, threshold, big_t: int) -> float:
    """Distance between two support values measured in estimation grid steps.

    The grid is y = T*theta/pi, so the step count is |dtheta| * T / pi.
    """
    a = math.asin(math.sqrt(float(support)))
    b = math.asin(math.sqrt(float(threshold)))
    return abs(a - b) * big_t / math.pi


def _branch_probs(t_omega: float, big_t: int) -> np.ndarray:
    """|<y|E_T(omega)>|^2 for all y; exact point mass at integer T*omega."""
    y = np.arange(big_t, dtype=np.float64)
    delta = t_omega - y
    num = np.sin(np.pi * delta) ** 2
    den = (big_t * np.sin(np.pi * delta / big_t)) ** 2
    safe = np.where(delta == 0.0, 1.0, den)
    return np.where(delta == 0.0, 1.0, num / safe)


def analytic_phase_distribution(support, big_t: int) -> np.ndarray:
    """Closed-form law of the estimation outcome y in 0..T-1 for a single
    candidate of the given support: the equal mixture of the two
    eigenphase branches, as a length-T float64 array."""
    _log2_exact(big_t)
    s = float(support)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"support {s} outside [0, 1]")
    probs = np.zeros(big_t)
    if s == 0.0:
        probs[0] = 1.0
    elif s == 1.0:
        probs[big_t // 2] = 1.0
    else:
        theta = math.asin(math.sqrt(s))
        omega = theta / math.pi
        probs = 0.5 * (_branch_probs(big_t * omega, big_t)
                       + _branch_probs(big_t * (1.0 - omega), big_t))
    if probs.min() < -1e-12:
        raise ValueError(f"negative probability {probs.min()}")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {probs.sum()!r}")
    return probs


def _grover_kernel(block: np.ndarray, sign_table: np.ndarray, txn_axis: int,
                   n_rows: int, trailing_after_txn: int,
                   k: int, counter: QueryCounter | None):
    """One Grover application on a view whose trailing axes are the
    layout's registers from the transaction register onward."""
    block *= sign_table
    head = (Ellipsis, slice(0, n_rows)) + (slice(None),) * trailing_after_txn
    overlap = block[head].sum(axis=txn_axis, keepdims=True) * (2.0 / n_rows)
    block *= -1.0
    block[head] += overlap
    if counter is not None:
        counter.charge_grover(k)


def apply_grover_operator(state: Statevector, db: TransactionDB,
                          counter: QueryCounter | None = None,
                          sign_table: np.ndarray | None = None) -> Statevector:
    """Apply G = (2|X_N><X_N| - I) O^(k) to the whole state."""
    layout = state.layout
    k = len(item_registers(layout))
    table = sign_table if sign_table is not None else phase_oracle_sign_table(db, layout)
    trailing = len(layout.names) - layout.axis(TXN) - 1
    _grover_kernel(state.view(), table, layout.axis(TXN) - len(layout.names),
                   db.n_transactions, trailing, k, counter)
    state.check_norm()
    return state


def _check_candidates(db: TransactionDB, candidates: list[Itemset], k: int):
    """Reject an empty list and duplicate, wrong-size or out-of-range
    candidates."""
    if not candidates:
        raise ValueError("need at least one candidate")
    db.check_items(candidates)
    seen = set()
    for cand in candidates:
        if cand.size != k:
            raise ValueError(f"candidate {cand} is not a {k}-itemset")
        if cand in seen:
            raise ValueError(f"duplicate candidate {cand}")
        seen.add(cand)


def parallel_amplitude_estimation(db: TransactionDB, candidates: list[Itemset],
                                  k: int, big_t: int,
                                  counter: QueryCounter | None = None,
                                  qubit_cap: int | None = None) -> Statevector:
    """Run steps 1-3: prepare, estimate in parallel, inverse QFT.

    Returns |Psi3> on est, txn, cand, where cand value j stands for
    candidates[j]; exactly T-1 Grover applications (2k(T-1) basic-oracle
    calls) are charged, plus one state preparation.
    """
    _check_candidates(db, candidates, k)
    layout = candidate_layout(db, len(candidates), big_t, qubit_cap)
    state = Statevector.zero(layout)
    prepare_uniform(state, EST, big_t)
    prepare_uniform(state, TXN, db.n_transactions)
    prepare_uniform(state, CAND, len(candidates))
    if counter is not None:
        counter.state_preparations += 1
    table = candidate_sign_table(db, candidates, layout)

    def step(block: np.ndarray):  # trailing axes: txn, cand
        _grover_kernel(block, table, -2, db.n_transactions, 1, k, counter)

    for p in range(layout.width(EST)):
        apply_controlled_power(state, (EST, p), step, 1 << p)
    inverse_qft(state, EST)
    return state


def estimation_law(db: TransactionDB, candidates: list[Itemset], k: int,
                   big_t: int, counter: QueryCounter) -> np.ndarray:
    """The (est, cand) law of |Psi3>, built in closed form.

    law[y, j] is the probability that measuring |Psi3> gives est = y and
    cand = j: column j is analytic_phase_distribution(s_j, T) / C for
    candidates[j] of support s_j.  Inputs are refused as by
    parallel_amplitude_estimation, bar its qubit cap, and the ledger is
    charged the same: one state preparation and T-1 Grover applications.
    """
    _check_candidates(db, candidates, k)
    _log2_exact(big_t)
    n_cands = len(candidates)
    law = np.empty((big_t, n_cands))
    columns: dict[int, np.ndarray] = {}
    for j, count in enumerate(level_supports(db, candidates).tolist()):
        if count not in columns:
            s = count / db.n_transactions
            columns[count] = analytic_phase_distribution(s, big_t) / n_cands
        law[:, j] = columns[count]
    counter.charge_estimation_pipeline(k, big_t)
    return law
