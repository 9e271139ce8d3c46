"""Amplitude amplification over the good estimation subspace and the
estimate-amplify-measure mining loop."""

import numpy as np
import pytest

from qarm import (
    Itemset,
    NoFrequentCandidatesError,
    QueryCounter,
    TransactionDB,
    amplitude_amplify,
    apriori,
    good_set,
    qarm_full,
    qarm_mine_k,
)
from qarm.data import ExactSupport
from qarm.qpe import parallel_amplitude_estimation
from qarm.qsim import register_marginal

ITEMS = lambda *js: [Itemset.of(j) for j in js]


def quarter_db() -> TransactionDB:
    # item 0 everywhere, items 1..3 nowhere: good weight is exactly 1/4
    # over the four candidates at any threshold in (0, 1]
    return TransactionDB.from_rows([[0], [0]], n_items=4)


def psi3(db, items, big_t, counter=None):
    return parallel_amplitude_estimation(db, ITEMS(*items), 1, big_t, counter)


def good_weight(state, good):
    return float(register_marginal(state, "est")[good.mask()].sum())


def test_ideal_projection_moves_all_weight(dtoy):
    state = psi3(dtoy, [0, 1, 2], 8)
    good = good_set(8, 0.5)
    before = state.amps.copy()
    amplitude_amplify(state, good, "ideal-projection", k=1)
    assert abs(good_weight(state, good) - 1.0) < 1e-12
    # conditional amplitudes inside the good region survive unscathed
    keep = before.reshape(8, -1).copy()  # est is the leading register
    keep[~good.mask()] = 0
    keep = keep.ravel() / np.linalg.norm(keep)
    assert np.max(np.abs(state.amps - keep)) < 1e-12


def test_ideal_projection_identity_when_all_good(toy4):
    # support 1 concentrates on y = T/2, inside the good region
    state = psi3(toy4, [1], 8)
    before = state.amps.copy()
    amplitude_amplify(state, good_set(8, 0.5), "ideal-projection", k=1)
    assert np.max(np.abs(state.amps - before)) < 1e-12


def test_grover_known_quarter_rotates_exactly():
    # p = 1/4: phi = pi/6, one iteration lands exactly on the good state
    db = quarter_db()
    good = good_set(8, 0.5)
    state = psi3(db, [0, 1, 2, 3], 8)
    assert abs(good_weight(state, good) - 0.25) < 1e-12

    ideal = state.copy()
    amplitude_amplify(ideal, good, "ideal-projection", k=1)
    counter = QueryCounter()
    amplitude_amplify(state, good, "grover-known",
                      np.random.default_rng(0), counter, k=1)
    assert np.max(np.abs(state.amps - ideal.amps)) < 1e-12
    assert counter.amplification_iterations == 1
    assert counter.grover_applications == 2 * 7
    assert counter.basic_oracle_calls == 2 * 1 * 2 * 7


def test_grover_known_preserves_conditional():
    # p = 1/8: two iterations, residual bad weight sin^2(5*phi) stays small
    db = TransactionDB.from_rows([[0], [0]], n_items=8)
    good = good_set(8, 0.5)
    state = psi3(db, list(range(8)), 8)
    assert abs(good_weight(state, good) - 0.125) < 1e-12

    ideal = state.copy()
    amplitude_amplify(ideal, good, "ideal-projection", k=1)
    counter = QueryCounter()
    amplitude_amplify(state, good, "grover-known",
                      np.random.default_rng(0), counter, k=1)
    w = good_weight(state, good)
    assert counter.amplification_iterations == 2
    assert w > 0.9
    flat = state.amps.reshape(8, -1)
    projected = np.zeros_like(flat)
    projected[good.mask()] = flat[good.mask()]
    assert np.max(np.abs(projected.ravel() / np.sqrt(w) - ideal.amps)) < 1e-9


def test_bbht_collapses_onto_good_outcome():
    db = quarter_db()
    good = good_set(8, 0.5)
    amps = []
    for _ in range(2):
        state = psi3(db, [0, 1, 2, 3], 8)
        counter = QueryCounter()
        amplitude_amplify(state, good, "bbht",
                          np.random.default_rng(99), counter, k=1)
        assert abs(good_weight(state, good) - 1.0) < 1e-9
        assert counter.measurements >= 1
        per_pipeline = 2 * 1 * 7
        assert counter.basic_oracle_calls == per_pipeline * (
            counter.state_preparations + 2 * counter.amplification_iterations)
        amps.append(state.amps.copy())
    assert np.array_equal(amps[0], amps[1])  # seeded transcript is stable


def test_amplify_rejects_empty_good_subspace(toy4):
    # supports 1/2 and 0 are on-grid: no mass reaches the 0.9 region
    state = psi3(toy4, [0, 2], 8)
    with pytest.raises(NoFrequentCandidatesError, match="0.9"):
        amplitude_amplify(state, good_set(8, 0.9), "ideal-projection", k=1)


def test_amplify_validates_inputs(toy4):
    state = psi3(toy4, [0, 1], 8)
    with pytest.raises(ValueError):
        amplitude_amplify(state, good_set(16, 0.5), k=1)
    with pytest.raises(ValueError):
        amplitude_amplify(state, good_set(8, 0.5), mode="project", k=1)


def test_mine_k1_finds_exact_toy_frequents(toy4):
    counter = QueryCounter()
    res = qarm_mine_k(toy4, ITEMS(0, 1), 1, 8, 0.5,
                      rng=np.random.default_rng(7), counter=counter)
    assert res.itemsets() == [Itemset.of(0), Itemset.of(1)]
    by_set = {mi.itemset: mi for mi in res.found}
    a = by_set[Itemset.of(0)]
    assert abs(a.estimate.value - 0.5) < 1e-12
    assert a.boundary_uncertain  # sits exactly on the threshold
    b = by_set[Itemset.of(1)]
    assert b.estimate.value == 1.0
    assert not b.boundary_uncertain
    assert res.shots_used == counter.state_preparations
    assert res.mode == "ideal-projection"


def test_mine_k1_high_threshold_prunes(toy4):
    res = qarm_mine_k(toy4, ITEMS(0, 1), 1, 8, 0.9,
                      rng=np.random.default_rng(7))
    assert res.itemsets() == [Itemset.of(1)]


def test_mine_raises_when_nothing_clears(toy4):
    with pytest.raises(NoFrequentCandidatesError):
        qarm_mine_k(toy4, ITEMS(2), 1, 8, 0.5, rng=np.random.default_rng(0))


def test_mine_query_ledger_all_modes(dtoy):
    for mode in ("ideal-projection", "grover-known", "bbht"):
        counter = QueryCounter()
        res = qarm_mine_k(dtoy, ITEMS(0, 1, 2), 1, 16, 0.5, mode=mode,
                          rng=np.random.default_rng(11), counter=counter)
        per_pipeline = 2 * 1 * 15
        assert counter.basic_oracle_calls == per_pipeline * (
            counter.state_preparations + 2 * counter.amplification_iterations)
        assert counter.basic_oracle_calls == 2 * counter.phase_oracle_k_calls
        assert res.shots_used == counter.state_preparations
        assert Itemset.of(0) in res.itemsets()
        assert Itemset.of(1) in res.itemsets()


def test_mine_verify_boundary_attaches_exact(toy4):
    res = qarm_mine_k(toy4, ITEMS(0, 1), 1, 8, 0.5,
                      rng=np.random.default_rng(7), verify_boundary=True)
    by_set = {mi.itemset: mi for mi in res.found}
    assert by_set[Itemset.of(0)].exact == ExactSupport(2, 4)
    assert by_set[Itemset.of(1)].exact == ExactSupport(4, 4)

    res = qarm_mine_k(toy4, ITEMS(0, 1), 1, 8, 0.5,
                      rng=np.random.default_rng(7))
    assert all(mi.exact is None for mi in res.found)


def test_mine_k2_pair_level(dtoy):
    # {0, 1} holds in rows 0 and 1: support 1/2, on the grid at T = 8
    counter = QueryCounter()
    res = qarm_mine_k(dtoy, [Itemset((0, 1))], 2, 8, 0.5,
                      rng=np.random.default_rng(3), counter=counter)
    assert res.itemsets() == [Itemset((0, 1))]
    assert abs(res.found[0].estimate.value - 0.5) < 1e-12
    per_pipeline = 2 * 2 * 7
    assert counter.basic_oracle_calls == per_pipeline * (
        counter.state_preparations + 2 * counter.amplification_iterations)


def test_mine_validation():
    db = quarter_db()
    with pytest.raises(ValueError):
        qarm_mine_k(db, ITEMS(0), 1, 8, 0.5, patience=0)
    with pytest.raises(ValueError):
        qarm_mine_k(db, ITEMS(0), 1, 8, 0.5, mode="fast")


def test_mine_off_grid_tail_behaviour():
    # supports 3/4, 3/4, 1/4 all sit off the T = 16 grid; the kernel tail
    # lets the 1/4 item slip through occasionally, always recorded with a
    # decoded value at or above the threshold
    db = TransactionDB.from_rows([[0, 1], [0, 1], [0], [1, 2]], n_items=3)
    res = qarm_mine_k(db, ITEMS(0, 1, 2), 1, 16, 0.5,
                      rng=np.random.default_rng(5))
    mined = set(res.itemsets())
    assert {Itemset.of(0), Itemset.of(1)} <= mined
    assert mined <= {Itemset.of(0), Itemset.of(1), Itemset.of(2)}
    for mi in res.found:
        assert mi.estimate.value >= 0.5 - 1e-12


def test_qarm_full_two_levels_matches_apriori():
    # all rows carry {0, 1}; half also carry 2: clean on-grid supports
    rows = [[0, 1, 2]] * 4 + [[0, 1]] * 4
    db = TransactionDB.from_rows(rows, n_items=3)
    results, stats = qarm_full(db, 0.75, 8, rng=np.random.default_rng(21))
    assert [st.k for st in stats] == [1, 2]
    assert (stats[0].m_candidates, stats[0].m_frequent) == (3, 2)
    assert (stats[1].m_candidates, stats[1].m_frequent) == (1, 1)

    mined = {mi.itemset for res in results for mi in res.found}
    exact = apriori(db, 0.75)
    assert mined == set(exact.frequents)
    assert [st.m_frequent for st in exact.stats] == [2, 1]


def test_qarm_full_single_level(toy4):
    results, stats = qarm_full(toy4, 0.9, 8, rng=np.random.default_rng(2))
    assert len(results) == 1
    assert results[0].itemsets() == [Itemset.of(1)]
    assert stats[0].m_candidates == 2  # item 2 never occurs


def test_qarm_full_no_frequent_level():
    db = TransactionDB.from_rows([[0], [0], [], []], n_items=1)
    results, stats = qarm_full(db, 0.75, 8, rng=np.random.default_rng(4))
    assert len(results) == 1
    assert results[0].found == ()
    assert results[0].shots_used == 0
    assert (stats[0].m_candidates, stats[0].m_frequent) == (1, 0)


def test_qarm_full_empty_db():
    db = TransactionDB.from_rows([[], []], n_items=3)
    results, stats = qarm_full(db, 0.5, 8)
    assert results == [] and stats == []
