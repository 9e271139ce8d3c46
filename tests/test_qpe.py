"""Grover spectrum, estimation-grid decoding, the analytic outcome law,
and the parallel estimation pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qarm import (
    Itemset,
    QueryCounter,
    QubitBudgetError,
    Statevector,
    TransactionDB,
    exact_support,
    good_set,
    grid_steps_between,
)
from qarm.oracle import CAND, EST, TXN, build_layout, phase_oracle_sign_table
from qarm.qpe import (
    PhaseDistribution,
    analytic_phase_distribution,
    apply_grover_operator,
    decode_support,
    estimation_law,
    parallel_amplitude_estimation,
)
from qarm.qsim import joint_probs, prepare_uniform, register_marginal

from conftest import random_candidates, random_db


def test_decode_support_examples():
    assert decode_support(0, 8).value == 0.0
    assert decode_support(4, 8).value == 1.0
    est = decode_support(1, 8)
    assert abs(est.value - 0.14644660940672624) < 1e-15
    assert abs(est.epsilon_scale - 0.431893) < 1e-6
    # y folds onto T - y
    assert decode_support(7, 8).value == decode_support(1, 8).value
    assert decode_support(7, 8).y == 1
    with pytest.raises(ValueError):
        decode_support(8, 8)
    with pytest.raises(ValueError):
        decode_support(-1, 8)


def test_grid_steps_between_values():
    # asin sqrt: 1/4 -> pi/6, 1/2 -> pi/4; gap pi/12 is 8/3 steps of pi/32
    assert abs(grid_steps_between(0.25, 0.5, 32) - 8 / 3) < 1e-12
    assert grid_steps_between(0.3, 0.3, 16) == 0.0
    assert grid_steps_between(0.1, 0.7, 8) == grid_steps_between(0.7, 0.1, 8)
    assert abs(grid_steps_between(0.0, 1.0, 16) - 8.0) < 1e-12


def test_good_set_examples():
    assert sorted(good_set(8, 0.5).members) == [2, 3, 4, 5, 6]
    gs = good_set(16, 0.5)
    assert all((y in gs) == ((16 - y) % 16 in gs) for y in range(16))
    mask = gs.mask()
    assert mask.sum() == len(gs.members)
    # sin^2(pi/4) = 1/2 exactly: the boundary grid point is inside
    assert 4 in good_set(16, 0.5)
    with pytest.raises(ValueError):
        good_set(8, 0)


def test_analytic_distribution_point_masses():
    assert analytic_phase_distribution(0.0, 16).as_dict() == {0: 1.0}
    assert analytic_phase_distribution(1.0, 16).as_dict() == {8: 1.0}
    # s = 1/2 at T = 8: theta/pi = 1/8, branches at y = 2 and 6
    d = analytic_phase_distribution(0.5, 8)
    assert d.as_dict() == {2: 0.5, 6: 0.5}


def test_analytic_distribution_off_grid():
    for s in (0.25, 0.3, 0.71):
        for big_t in (8, 16, 32):
            d = analytic_phase_distribution(s, big_t)
            assert abs(d.probs.sum() - 1.0) < 1e-12
            assert d.probs.min() >= 0.0
            # mirrored branches make the law symmetric under y -> T - y
            for y in range(big_t):
                assert abs(d.prob(y) - d.prob((big_t - y) % big_t)) < 1e-12
    with pytest.raises(ValueError):
        analytic_phase_distribution(0.5, 12)
    with pytest.raises(ValueError):
        analytic_phase_distribution(-0.1, 8)


def test_estimation_tail_mass_below_threshold():
    # s = 1/4 sits 8/3 grid steps under 0.5 yet leaks measurable mass
    # into the good region: the per-shot false-positive rate at T = 32
    d = analytic_phase_distribution(0.25, 32)
    leak = sum(d.prob(y) for y in good_set(32, 0.5).members)
    assert abs(leak - 0.0363549) < 1e-4


def test_phase_distribution_validation():
    with pytest.raises(ValueError):
        PhaseDistribution(big_t=4, probs=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        PhaseDistribution(big_t=2, probs=np.array([0.7, 0.4]))
    with pytest.raises(ValueError):
        PhaseDistribution(big_t=2, probs=np.array([-0.2, 1.2]))


def test_grover_operator_matches_dense(dtoy):
    rng = np.random.default_rng(11)
    for k in (1, 2):
        db = random_db(rng, n=3, m=3)  # padded to 4 rows: row 3 reads 0
        layout = build_layout(db, k)
        n_dim = layout.dim(TXN)
        joint = int(np.prod(layout.dims))
        u = np.zeros(n_dim)
        u[: db.n_transactions] = 1 / math.sqrt(db.n_transactions)
        reflect = 2 * np.outer(u, u) - np.eye(n_dim)
        signs = phase_oracle_sign_table(db, layout).reshape(n_dim, -1)
        dense = np.kron(reflect, np.eye(joint // n_dim)) @ np.diag(
            (signs * np.ones((n_dim, joint // n_dim))).ravel())

        state = Statevector.zero(layout)
        amps = rng.standard_normal(joint) + 1j * rng.standard_normal(joint)
        state.amps[:] = amps / np.linalg.norm(amps)
        expect = dense @ state.amps
        counter = QueryCounter()
        apply_grover_operator(state, db, counter)
        assert np.max(np.abs(state.amps - expect)) < 1e-12
        assert counter.grover_applications == 1
        assert counter.basic_oracle_calls == 2 * k


def test_grover_eigenstate_cases(dtoy, toy4):
    # support 0: |X>|j> is a +1 eigenvector
    layout = build_layout(toy4, 1)
    state = Statevector.basis_state(layout, {"item0": 2})
    prepare_uniform(state, TXN, 4)
    before = state.amps.copy()
    apply_grover_operator(state, toy4)
    assert np.max(np.abs(state.amps - before)) < 1e-12

    # support 1/2 rotates by pi/2 per step: G^2 |X>|j> = -|X>|j>
    layout = build_layout(dtoy, 1)
    state = Statevector.basis_state(layout, {"item0": 1})
    prepare_uniform(state, TXN, 4)
    before = state.amps.copy()
    apply_grover_operator(state, dtoy)
    apply_grover_operator(state, dtoy)
    assert np.max(np.abs(state.amps + before)) < 1e-12


def test_estimation_marginal_single_candidate(dtoy):
    for item, s in ((0, 0.75), (1, 0.5), (2, 0.25)):
        psi = parallel_amplitude_estimation(dtoy, [Itemset((item,))], 1, 16)
        marg = register_marginal(psi, "est")
        expect = analytic_phase_distribution(s, 16).probs
        assert np.max(np.abs(marg - expect)) < 1e-12


def test_estimation_marginal_two_candidates(dtoy):
    psi = parallel_amplitude_estimation(
        dtoy, [Itemset((0,)), Itemset((1,))], 1, 16)
    marg = register_marginal(psi, "est")
    expect = 0.5 * (analytic_phase_distribution(0.75, 16).probs
                    + analytic_phase_distribution(0.5, 16).probs)
    assert np.max(np.abs(marg - expect)) < 1e-12


def test_estimation_on_grid_is_deterministic(dtoy):
    # s = 1/2 at T = 8 puts all mass on y in {2, 6}
    psi = parallel_amplitude_estimation(dtoy, [Itemset((1,))], 1, 8)
    marg = register_marginal(psi, "est")
    off_grid = np.delete(marg, [2, 6])
    assert np.max(off_grid) < 1e-12
    assert abs(marg[2] - 0.5) < 1e-12 and abs(marg[6] - 0.5) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3),
       big_t=st.sampled_from([2, 4, 8, 16, 32]))
def test_estimation_joint_is_candidate_mixture(seed, k, big_t):
    # G is block-diagonal over candidates, so the dense pipeline's
    # (est, cand) joint is (1/C) * the analytic law of each candidate's
    # support, column by column: the law estimation_law builds directly
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 9)), int(rng.integers(k + 1, 6))
    rows = rng.random((n, m)) < 0.4
    rows[:, :k] = True  # {0..k-1} has support 1
    rows[:, m - 1] = False  # every candidate holding item m-1 has support 0
    db = TransactionDB.from_rows([list(np.nonzero(r)[0]) for r in rows], n_items=m)
    extremes = {Itemset(tuple(range(k))), Itemset(tuple(range(m - k, m)))}
    cands = sorted(set(random_candidates(rng, db, k)) | extremes)
    assert {exact_support(db, c).value for c in extremes} == {0, 1}

    dense_counter, law_counter = QueryCounter(), QueryCounter()
    psi = parallel_amplitude_estimation(db, cands, k, big_t, dense_counter)
    assert psi.layout.names == (EST, TXN, CAND)
    dense = joint_probs(psi, [EST, CAND])
    law = estimation_law(db, cands, k, big_t, law_counter, None)
    assert law.shape == (big_t, len(cands))
    assert np.max(np.abs(dense[:, :len(cands)] - law)) < 1e-12
    assert np.max(dense[:, len(cands):], initial=0.0) < 1e-12  # padded slots
    assert law_counter == dense_counter


@pytest.mark.parametrize("cands, k, big_t, cap", [
    ([Itemset((0,))], 1, 8, 4),                       # over the qubit cap
    ([Itemset((0,))], 1, 6, None),                    # T not a power of two
    ([Itemset((0,))], 1, 1, None),
    ([], 1, 8, None),                                 # no candidates
    ([Itemset((0,)), Itemset((0,))], 1, 8, None),     # duplicate
    ([Itemset((7,))], 1, 8, None),                    # outside the items
    ([Itemset((0, 1))], 1, 8, None),                  # wrong size
    ([Itemset((0, 1)), Itemset((1,))], 2, 8, None),
])
def test_estimation_law_refuses_like_the_pipeline(dtoy, cands, k, big_t, cap):
    errors = []
    for run in (lambda c: parallel_amplitude_estimation(dtoy, cands, k, big_t, c,
                                                        qubit_cap=cap),
                lambda c: estimation_law(dtoy, cands, k, big_t, c, cap)):
        counter = QueryCounter()
        with pytest.raises(ValueError) as info:
            run(counter)
        errors.append((type(info.value), str(info.value)))
        assert counter == QueryCounter()
    assert errors[0] == errors[1]
    assert (errors[0][0] is QubitBudgetError) == (cap is not None)


def test_estimation_pipeline_query_budget(dtoy):
    for k, cands in ((1, [Itemset((0,))]),
                     (2, [Itemset((0, 1)), Itemset((1, 2))])):
        for big_t in (8, 16):
            counter = QueryCounter()
            parallel_amplitude_estimation(dtoy, cands, k, big_t, counter)
            assert counter.state_preparations == 1
            assert counter.grover_applications == big_t - 1
            assert counter.basic_oracle_calls == 2 * k * (big_t - 1)
            assert counter.amplification_iterations == 0


def test_estimation_pipeline_validates_candidates(dtoy):
    with pytest.raises(ValueError):
        parallel_amplitude_estimation(dtoy, [], 1, 8)
    with pytest.raises(ValueError):
        parallel_amplitude_estimation(dtoy, [Itemset((0, 1))], 1, 8)
    with pytest.raises(ValueError):
        parallel_amplitude_estimation(dtoy, [Itemset((7,))], 1, 8)
    with pytest.raises(ValueError):
        parallel_amplitude_estimation(
            dtoy, [Itemset((0,)), Itemset((0,))], 1, 8)
