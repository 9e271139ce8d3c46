"""Bit oracle, k-item phase oracle (circuit and diagonal), query ledger."""

import numpy as np
import pytest

from qarm import QueryCounter, Statevector, TransactionDB
from qarm.oracle import (
    CAND,
    EST,
    KICK,
    TXN,
    ancilla_register,
    apply_basic_oracle,
    apply_phase_oracle_k,
    build_layout,
    candidate_layout,
    candidate_sign_table,
    generalized_cnot,
    item_register,
    padded_bit_matrix,
    phase_oracle_sign_table,
    prepare_minus,
)
from qarm.qsim import QubitBudgetError, inject_state, prepare_uniform

from conftest import random_candidates, random_db


def test_build_layout_geometry(dtoy):
    layout = build_layout(dtoy, 2, big_t=8, ancillas=True)
    assert layout.names == ("est", "txn", "item0", "item1",
                            "anc0", "anc1", "kick")
    assert layout.width("est") == 3
    assert layout.width(TXN) == 2   # 4 transactions
    assert layout.width(item_register(0)) == 2  # 3 items round up
    assert layout.width(ancilla_register(1)) == 1

    with pytest.raises(ValueError):
        build_layout(dtoy, 0)
    with pytest.raises(ValueError):
        build_layout(dtoy, 1, big_t=6)  # not a power of two


def test_candidate_layout_geometry(dtoy):
    # the same layout for every k: only the candidate count sets cand
    layout = candidate_layout(dtoy, 3, 8, None)
    assert layout.names == (EST, TXN, CAND)
    assert layout.width(EST) == 3
    assert layout.width(TXN) == 2   # 4 transactions
    assert layout.width(CAND) == 2  # 3 candidates round up
    assert candidate_layout(dtoy, 1, 2, None).width(CAND) == 1
    with pytest.raises(ValueError):
        candidate_layout(dtoy, 3, 6, None)  # not a power of two
    with pytest.raises(QubitBudgetError):
        candidate_layout(dtoy, 3, 8, 6)


def test_candidate_sign_table_matches_item_layout():
    # each candidate's column is the item-layout diagonal (the one the
    # circuit oracle is checked against) read at that candidate's items
    rng = np.random.default_rng(202)
    for k in (1, 2, 3):
        for _ in range(6):
            db = random_db(rng, n=int(rng.integers(1, 7)), m=int(rng.integers(3, 6)))
            cands = random_candidates(rng, db, k)
            layout = candidate_layout(db, len(cands), 8, None)
            table = candidate_sign_table(db, cands, layout)
            ref = phase_oracle_sign_table(db, build_layout(db, k))
            assert table.shape == (ref.shape[0], layout.dim(CAND))
            for j, cand in enumerate(cands):
                assert np.array_equal(table[:, j], ref[(slice(None),) + cand.items])
            assert np.all(table[:, len(cands):] == 1.0)  # padded slots


def test_padded_bit_matrix(dtoy):
    bits = padded_bit_matrix(dtoy, 4, 4)
    assert bits.shape == (4, 4)
    assert bits[0].tolist() == [1, 1, 1, 0]
    assert bits[3].tolist() == [0, 0, 0, 0]
    assert np.all(bits[:, 3] == 0)  # padding column
    with pytest.raises(ValueError):
        padded_bit_matrix(dtoy, 2, 4)


def test_basic_oracle_basis_maps(dtoy):
    layout = build_layout(dtoy, 1, ancillas=True)
    # D[0,1] = 1: target flips
    state = Statevector.basis_state(layout, {TXN: 0, "item0": 1})
    apply_basic_oracle(state, dtoy, TXN, "item0", ancilla_register(0))
    assert state.amplitude({TXN: 0, "item0": 1, "anc0": 1}) == 1.0

    # D[3,0] = 0: no flip
    state = Statevector.basis_state(layout, {TXN: 3, "item0": 0})
    apply_basic_oracle(state, dtoy, TXN, "item0", ancilla_register(0))
    assert state.amplitude({TXN: 3, "item0": 0, "anc0": 0}) == 1.0

    # padding column j = 3 reads 0
    state = Statevector.basis_state(layout, {TXN: 0, "item0": 3})
    apply_basic_oracle(state, dtoy, TXN, "item0", ancilla_register(0))
    assert state.amplitude({TXN: 0, "item0": 3, "anc0": 0}) == 1.0


def test_basic_oracle_is_an_involution(dtoy):
    rng = np.random.default_rng(7)
    layout = build_layout(dtoy, 1, ancillas=True)
    state = Statevector.zero(layout)
    amps = rng.standard_normal(state.amps.size) + 1j * rng.standard_normal(state.amps.size)
    state.amps[:] = amps / np.linalg.norm(amps)
    before = state.amps.copy()
    counter = QueryCounter()
    apply_basic_oracle(state, dtoy, TXN, "item0", ancilla_register(0), counter)
    apply_basic_oracle(state, dtoy, TXN, "item0", ancilla_register(0), counter)
    assert np.array_equal(state.amps, before)
    assert counter.basic_oracle_calls == 2


def test_generalized_cnot():
    db = TransactionDB.from_rows([[0]], n_items=1)
    layout = build_layout(db, 2, ancillas=True)

    state = Statevector.basis_state(layout, {"anc0": 1, "anc1": 1})
    generalized_cnot(state, ["anc0", "anc1"], KICK)
    assert state.amplitude({"anc0": 1, "anc1": 1, "kick": 1}) == 1.0

    state = Statevector.basis_state(layout, {"anc0": 1, "anc1": 0})
    generalized_cnot(state, ["anc0", "anc1"], KICK)
    assert state.amplitude({"anc0": 1, "anc1": 0, "kick": 0}) == 1.0

    # single control is a plain CNOT
    state = Statevector.basis_state(layout, {"anc0": 1})
    counter = QueryCounter()
    generalized_cnot(state, ["anc0"], KICK, counter)
    assert state.amplitude({"anc0": 1, "kick": 1}) == 1.0
    assert counter.elementary_gates == 1

    with pytest.raises(ValueError):
        generalized_cnot(state, ["anc0", KICK], KICK)
    with pytest.raises(ValueError):
        generalized_cnot(state, [], KICK)
    wide = Statevector.zero(build_layout(
        TransactionDB.from_rows([[0], [0], [0]], n_items=1), 1, ancillas=True))
    wide.amps[0] = 1.0
    with pytest.raises(ValueError):
        generalized_cnot(wide, [TXN], KICK)  # multi-qubit control


def test_phase_oracle_signs_on_circuit(dtoy):
    # items (0, 1): rows 0 and 1 contain both, rows 2 and 3 do not
    layout = build_layout(dtoy, 2, ancillas=True)
    state = Statevector.basis_state(layout, {"item0": 0, "item1": 1})
    prepare_uniform(state, TXN, 4)
    prepare_minus(state)
    counter = QueryCounter()
    apply_phase_oracle_k(state, dtoy, counter, mode="circuit")

    base = {"item0": 0, "item1": 1, "kick": 0}
    amp = lambda i: state.amplitude({TXN: i, **base}).real
    assert amp(0) < 0 and amp(1) < 0
    assert amp(2) > 0 and amp(3) > 0
    assert abs(abs(amp(0)) - 1 / (2 * np.sqrt(2))) < 1e-12

    # ancillas restored to |0> exactly
    for i in range(4):
        for a0, a1 in ((0, 1), (1, 0), (1, 1)):
            assert state.amplitude({TXN: i, **base, "anc0": a0, "anc1": a1}) == 0

    assert counter.basic_oracle_calls == 4
    assert counter.phase_oracle_k_calls == 1
    assert counter.elementary_gates == 3


def test_phase_oracle_circuit_preconditions(dtoy):
    layout = build_layout(dtoy, 1, ancillas=True)
    state = Statevector.basis_state(layout, {ancilla_register(0): 1})
    prepare_minus(state)
    with pytest.raises(ValueError, match="anc0"):
        apply_phase_oracle_k(state, dtoy, mode="circuit")

    state = Statevector.basis_state(layout, {})  # kick left in |0>
    with pytest.raises(ValueError, match="kick"):
        apply_phase_oracle_k(state, dtoy, mode="circuit")

    state = Statevector.basis_state(layout, {})
    prepare_minus(state)
    with pytest.raises(ValueError, match="mode"):
        apply_phase_oracle_k(state, dtoy, mode="table")


def test_sign_table_matches_membership(dtoy):
    layout = build_layout(dtoy, 1)
    table = phase_oracle_sign_table(dtoy, layout)
    assert table.shape == (4, 4)
    dense = dtoy.dense()
    for i in range(4):
        for j in range(4):
            expect = -1.0 if j < 3 and dense[i, j] else 1.0
            assert table[i, j] == expect


def test_circuit_and_diagonal_agree():
    rng = np.random.default_rng(101)
    for k in (1, 2, 3):
        for _ in range(4):
            db = random_db(rng, n=rng.integers(2, 7), m=rng.integers(2, 5))
            layout = build_layout(db, k, ancillas=True)
            front = [TXN] + [item_register(l) for l in range(k)]
            dim = int(np.prod([layout.dim(n) for n in front]))
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)

            circuit = Statevector.zero(layout)
            inject_state(circuit, front, vec)
            prepare_minus(circuit)
            diagonal = circuit.copy()

            c1, c2 = QueryCounter(), QueryCounter()
            apply_phase_oracle_k(circuit, db, c1, mode="circuit")
            apply_phase_oracle_k(diagonal, db, c2, mode="diagonal")
            assert np.max(np.abs(circuit.amps - diagonal.amps)) < 1e-12
            assert c1.as_dict() == c2.as_dict()
            assert c1.basic_oracle_calls == 2 * k


def test_diagonal_preserves_magnitudes(dtoy):
    rng = np.random.default_rng(17)
    layout = build_layout(dtoy, 2)
    state = Statevector.zero(layout)
    amps = rng.standard_normal(state.amps.size) + 1j * rng.standard_normal(state.amps.size)
    state.amps[:] = amps / np.linalg.norm(amps)
    before = np.abs(state.amps.copy())
    apply_phase_oracle_k(state, dtoy, mode="diagonal")
    assert np.max(np.abs(np.abs(state.amps) - before)) < 1e-15


def test_counter_charge_laws():
    c = QueryCounter()
    c.charge_phase_oracle(2)
    assert (c.basic_oracle_calls, c.phase_oracle_k_calls, c.elementary_gates) == (4, 1, 3)

    c = QueryCounter()
    c.charge_grover(3)
    assert c.basic_oracle_calls == 6
    assert c.grover_applications == 1
    assert c.elementary_gates == 5

    c = QueryCounter()
    c.charge_estimation_pipeline(2, 8)
    assert c.state_preparations == 1
    assert c.grover_applications == 7
    assert c.basic_oracle_calls == 2 * 2 * 7

    c = QueryCounter()
    c.charge_amplification_iteration(1, 4)
    assert c.amplification_iterations == 1
    assert c.grover_applications == 6
    assert c.basic_oracle_calls == 12


def test_counter_snapshot_delta():
    c = QueryCounter()
    c.charge_estimation_pipeline(1, 8)
    snap = c.snapshot()
    c.charge_grover(1)
    c.measurements += 1
    d = c.delta(snap)
    assert d.grover_applications == 1
    assert d.measurements == 1
    assert d.state_preparations == 0
    assert snap.grover_applications == 7  # snapshot is unchanged
    assert set(d.as_dict()) == {
        "basic_oracle_calls", "phase_oracle_k_calls", "grover_applications",
        "amplification_iterations", "state_preparations", "measurements",
        "classical_row_scans", "elementary_gates",
    }
