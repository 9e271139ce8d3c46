"""Bit oracle, k-item phase oracle circuit and its sign tables, query ledger."""

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
    layout = build_layout(dtoy, 2)
    assert layout.names == ("txn", "item0", "item1", "anc0", "anc1", "kick")
    assert layout.width(TXN) == 2   # 4 transactions
    assert layout.width(item_register(0)) == 2  # 3 items round up
    assert layout.width(ancilla_register(1)) == 1

    with pytest.raises(ValueError):
        build_layout(dtoy, 0)


def test_candidate_layout_geometry(dtoy):
    # the same layout for every k: only the candidate count sets cand
    layout = candidate_layout(dtoy, 3, 8)
    assert layout.names == (EST, TXN, CAND)
    assert layout.width(EST) == 3
    assert layout.width(TXN) == 2   # 4 transactions
    assert layout.width(CAND) == 2  # 3 candidates round up
    assert candidate_layout(dtoy, 1, 2).width(CAND) == 1
    with pytest.raises(ValueError):
        candidate_layout(dtoy, 3, 6)  # not a power of two
    with pytest.raises(QubitBudgetError):
        candidate_layout(dtoy, 3, 2 ** 24)  # 28 qubits


def test_candidate_sign_table_matches_item_layout():
    # each candidate's column is the item-layout diagonal (the one the
    # circuit oracle is checked against) read at that candidate's items
    rng = np.random.default_rng(202)
    for k in (1, 2, 3):
        for _ in range(6):
            db = random_db(rng, n=int(rng.integers(1, 7)), m=int(rng.integers(3, 6)))
            cands = random_candidates(rng, db, k)
            layout = candidate_layout(db, len(cands), 8)
            table = candidate_sign_table(db, cands, layout)
            ref = phase_oracle_sign_table(db, build_layout(db, k))
            ref = ref.reshape(ref.shape[:k + 1])  # drop the ancilla and kick axes
            assert table.shape == (ref.shape[0], layout.dim(CAND))
            for j, cand in enumerate(cands):
                assert np.array_equal(table[:, j], ref[(slice(None),) + cand])
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
    layout = build_layout(dtoy, 1)
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
    layout = build_layout(dtoy, 1)
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
    layout = build_layout(db, 2)

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
        TransactionDB.from_rows([[0], [0], [0]], n_items=1), 1))
    wide.amps[0] = 1.0
    with pytest.raises(ValueError):
        generalized_cnot(wide, [TXN], KICK)  # multi-qubit control


def test_phase_oracle_signs_on_circuit(dtoy):
    # items (0, 1): rows 0 and 1 contain both, rows 2 and 3 do not
    layout = build_layout(dtoy, 2)
    state = Statevector.basis_state(layout, {"item0": 0, "item1": 1})
    prepare_uniform(state, TXN, 4)
    prepare_minus(state)
    counter = QueryCounter()
    apply_phase_oracle_k(state, dtoy, counter)

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
    layout = build_layout(dtoy, 1)
    state = Statevector.basis_state(layout, {ancilla_register(0): 1})
    prepare_minus(state)
    with pytest.raises(ValueError, match="anc0"):
        apply_phase_oracle_k(state, dtoy)

    state = Statevector.basis_state(layout, {})  # kick left in |0>
    with pytest.raises(ValueError, match="kick"):
        apply_phase_oracle_k(state, dtoy)


def test_sign_table_matches_membership(dtoy):
    layout = build_layout(dtoy, 1)
    table = phase_oracle_sign_table(dtoy, layout)
    assert table.shape == (4, 4, 1, 1)  # anc0 and kick broadcast
    table = table.reshape(4, 4)
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
            layout = build_layout(db, k)
            front = [TXN] + [item_register(l) for l in range(k)]
            dim = int(np.prod([layout.dim(n) for n in front]))
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)

            circuit = Statevector.zero(layout)
            inject_state(circuit, front, vec)
            prepare_minus(circuit)
            diagonal = circuit.view() * phase_oracle_sign_table(db, layout)

            c1, c2 = QueryCounter(), QueryCounter()
            apply_phase_oracle_k(circuit, db, c1)
            assert np.max(np.abs(circuit.view() - diagonal)) < 1e-12
            # one phase oracle is a Grover application's whole query cost
            c2.charge_grover(k)
            c2.grover_applications = 0
            assert c1.as_dict() == c2.as_dict()
            assert c1.basic_oracle_calls == 2 * k


def test_diagonal_preserves_magnitudes(dtoy):
    # the circuit acts as its diagonal: it changes signs, never magnitudes
    rng = np.random.default_rng(17)
    layout = build_layout(dtoy, 2)
    vec = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    state = Statevector.zero(layout)
    inject_state(state, [TXN, item_register(0), item_register(1)], vec / np.linalg.norm(vec))
    prepare_minus(state)
    before = np.abs(state.amps.copy())
    apply_phase_oracle_k(state, dtoy)
    assert np.max(np.abs(np.abs(state.amps) - before)) < 1e-15


def test_counter_charge_laws():
    c = QueryCounter()
    c.charge_grover(2, 3)
    assert (c.basic_oracle_calls, c.phase_oracle_k_calls, c.elementary_gates) == (12, 3, 9)
    assert c.grover_applications == 3

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
    c.charge_amplification_iterations(1, 4, 1)
    assert c.amplification_iterations == 1
    assert c.grover_applications == 6
    assert c.basic_oracle_calls == 12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bulk_charges_equal_a_grover_loop(k):
    # the charges for n pipelines and for n Q steps add whole Grover
    # counts at once; every field must end where one charge_grover per
    # application leaves it
    for big_t in (1 << e for e in range(1, 11)):
        bulk, loop = QueryCounter(measurements=3), QueryCounter(measurements=3)
        bulk.charge_estimation_pipeline(k, big_t)
        loop.state_preparations += 1
        for _ in range(big_t - 1):
            loop.charge_grover(k)
        assert bulk == loop
        for n in (0, 1, 2, 5):
            bulk.charge_amplification_iterations(k, big_t, n)
            loop.amplification_iterations += n
            for _ in range(2 * (big_t - 1) * n):
                loop.charge_grover(k)
            assert bulk == loop
            bulk.charge_estimation_pipeline(k, big_t, n)
            loop.state_preparations += n
            for _ in range((big_t - 1) * n):
                loop.charge_grover(k)
            assert bulk == loop


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
