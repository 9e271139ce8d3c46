"""Oracle access to the transaction matrix, as the dense reference runs it.

The basic oracle is the permutation |i>|j>|a> -> |i>|j>|a XOR D[i,j]>.
The k-item phase oracle flips the sign of |i>|j_1..j_k> exactly when
transaction i contains all k items; its circuit-faithful construction
costs 2k basic-oracle calls (compute, kick, uncompute) plus one
k-controlled NOT onto a kickback qubit held in |->, and
`phase_oracle_sign_table` is its diagonal.  The ledger it charges is
`qarm.data.QueryCounter`.

The estimation pipeline runs on est, txn, cand: one candidate register
indexes the C candidates of a level, and its sign table reads D through
each candidate's items.  The item-register layout (txn,
item0..item{k-1}, anc0..anc{k-1}, kick) carries the circuit-faithful
oracle that this table is checked against.  Reads of padded rows/columns
(i >= N or j >= M) return D = 0; padded candidate slots read sign +1.
"""
from __future__ import annotations

import numpy as np

from .data import QueryCounter, TransactionDB
from .qpe import _log2_exact
from .qsim import RegisterLayout, Statevector, _require_zeroed, _three_axis_view, inject_state

__all__ = [
    "EST", "TXN", "CAND", "KICK",
    "item_register", "ancilla_register", "item_registers",
    "build_layout",
    "candidate_layout",
    "padded_bit_matrix",
    "phase_oracle_sign_table",
    "candidate_sign_table",
    "apply_basic_oracle",
    "generalized_cnot",
    "prepare_minus",
    "apply_phase_oracle_k",
]

EST = "est"
TXN = "txn"
CAND = "cand"
KICK = "kick"


def item_register(l: int) -> str:
    return f"item{l}"


def ancilla_register(l: int) -> str:
    return f"anc{l}"


def item_registers(layout: RegisterLayout) -> list[str]:
    return [n for n in layout.names if n.startswith("item")]


def _bits_for(count: int) -> int:
    return max(1, int(count - 1).bit_length())


def build_layout(db: TransactionDB, k: int) -> RegisterLayout:
    """Item-register layout for the k-item oracle circuit, in canonical
    order: txn, item0..item{k-1}, anc0..anc{k-1}, kick."""
    if k < 1:
        raise ValueError("k must be >= 1")
    regs = [(TXN, _bits_for(db.n_transactions))]
    m_bits = _bits_for(db.n_items)
    for l in range(k):
        regs.append((item_register(l), m_bits))
    for l in range(k):
        regs.append((ancilla_register(l), 1))
    regs.append((KICK, 1))
    return RegisterLayout(regs)


def candidate_layout(db: TransactionDB, n_candidates: int, big_t: int) -> RegisterLayout:
    """The estimation pipeline's registers: est, txn, cand."""
    return RegisterLayout([(EST, _log2_exact(big_t)),
                           (TXN, _bits_for(db.n_transactions)),
                           (CAND, _bits_for(n_candidates))])


def padded_bit_matrix(db: TransactionDB, n_dim: int, m_dim: int) -> np.ndarray:
    """D embedded into power-of-two register dimensions; padding reads 0."""
    if n_dim < db.n_transactions or m_dim < db.n_items:
        raise ValueError("padded dimensions smaller than the database")
    out = np.zeros((n_dim, m_dim), dtype=np.uint8)
    out[: db.n_transactions, : db.n_items] = db.dense()
    return out


def phase_oracle_sign_table(db: TransactionDB, layout: RegisterLayout) -> np.ndarray:
    """Diagonal of O^(k) shaped to broadcast over the layout's axes from
    the transaction register onward (ancilla axes broadcast as 1)."""
    items = item_registers(layout)
    k = len(items)
    n_dim = layout.dim(TXN)
    m_dim = layout.dim(items[0])
    bits = padded_bit_matrix(db, n_dim, m_dim).astype(bool)
    txn_axis = layout.axis(TXN)
    trailing = layout.dims[txn_axis:]
    shape = [1] * len(trailing)
    shape[0] = n_dim
    contained = np.ones(shape, dtype=bool)
    for l, name in enumerate(items):
        aligned = [1] * len(trailing)
        aligned[0] = n_dim
        aligned[layout.axis(name) - txn_axis] = m_dim
        contained = contained & bits.reshape(aligned)
    return np.where(contained, -1.0, 1.0)


def candidate_sign_table(db: TransactionDB, candidates,
                         layout: RegisterLayout) -> np.ndarray:
    """Diagonal of O^(k) on the txn x cand axes of a candidate layout:
    -1 where row i contains every item of candidate c, +1 elsewhere."""
    cols = np.array(candidates)
    contained = db.dense()[:, cols].all(axis=2)
    table = np.ones((layout.dim(TXN), layout.dim(CAND)))
    table[: db.n_transactions, : len(candidates)][contained] = -1.0
    return table


def _index_grid(layout: RegisterLayout) -> np.ndarray:
    return np.arange(1 << layout.n_qubits, dtype=np.int64)


def _register_values(idx: np.ndarray, layout: RegisterLayout, name: str) -> np.ndarray:
    return (idx >> layout.shift(name)) & (layout.dim(name) - 1)


def apply_basic_oracle(state: Statevector, db: TransactionDB, i_register: str,
                       j_register: str, target_register: str,
                       counter: QueryCounter | None = None) -> Statevector:
    """|i>|j>|a> -> |i>|j>|a XOR D[i,j]>, a permutation of basis states."""
    layout = state.layout
    if layout.width(target_register) != 1:
        raise ValueError(f"target {target_register!r} must be one qubit")
    idx = _index_grid(layout)
    i_val = _register_values(idx, layout, i_register)
    j_val = _register_values(idx, layout, j_register)
    bits = padded_bit_matrix(db, layout.dim(i_register), layout.dim(j_register))
    flip = bits[i_val, j_val].astype(np.int64) << layout.shift(target_register)
    state.amps = state.amps[idx ^ flip]
    if counter is not None:
        counter.basic_oracle_calls += 1
    return state


def generalized_cnot(state: Statevector, control_registers, target_register: str,
                     counter: QueryCounter | None = None) -> Statevector:
    """Flip the target qubit where every control qubit is 1 (Lambda_k(sigma_x)).

    Controls and target are width-1 registers.  Charged at the Theta(k)
    elementary-gate model.
    """
    layout = state.layout
    controls = list(control_registers)
    if not controls:
        raise ValueError("need at least one control")
    if target_register in controls:
        raise ValueError("target register cannot also be a control")
    for name in controls + [target_register]:
        if layout.width(name) != 1:
            raise ValueError(f"register {name!r} must be one qubit")
    idx = _index_grid(layout)
    all_set = np.ones(idx.size, dtype=np.int64)
    for name in controls:
        all_set &= (idx >> layout.shift(name)) & 1
    state.amps = state.amps[idx ^ (all_set << layout.shift(target_register))]
    if counter is not None:
        counter.elementary_gates += 2 * len(controls) - 1
    return state


def prepare_minus(state: Statevector) -> Statevector:
    """Load |-> = (|0> - |1>)/sqrt(2) into the |0> kickback qubit."""
    return inject_state(state, KICK, np.array([1.0, -1.0]) / np.sqrt(2.0))


def _require_oracle_ancillas(state: Statevector, k: int):
    layout = state.layout
    for l in range(k):
        name = ancilla_register(l)
        if name not in layout.names:
            raise ValueError(f"layout lacks ancilla register {name!r}")
        axis = layout.axis(name)
        _require_zeroed(_three_axis_view(state, axis, axis), f"ancilla {name!r}")
    if KICK not in layout.names:
        raise ValueError("layout lacks the kickback register")
    axis = layout.axis(KICK)
    view = _three_axis_view(state, axis, axis)
    if np.linalg.norm(view[:, 0, :] + view[:, 1, :]) > 1e-9:
        raise ValueError("kickback register must hold |->")


def apply_phase_oracle_k(state: Statevector, db: TransactionDB,
                         counter: QueryCounter | None = None) -> Statevector:
    """Apply O^(k): sign flip on transactions containing all k queried items.

    Runs the faithful construction (2k basic oracles around a k-controlled
    NOT onto the kickback qubit), which needs ancillas in |0>^k and the
    kickback in |->; `phase_oracle_sign_table` is its diagonal.
    """
    items = item_registers(state.layout)
    k = len(items)
    if k == 0:
        raise ValueError("layout has no item registers")
    _require_oracle_ancillas(state, k)
    for l in range(k):
        apply_basic_oracle(state, db, TXN, items[l], ancilla_register(l), counter)
    generalized_cnot(state, [ancilla_register(l) for l in range(k)], KICK, counter)
    for l in reversed(range(k)):
        apply_basic_oracle(state, db, TXN, items[l], ancilla_register(l), counter)
    if counter is not None:
        counter.phase_oracle_k_calls += 1
    state.check_norm()
    return state
