"""Grover spectrum, estimation-grid decoding, the analytic outcome law,
and the parallel estimation pipeline."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qarm import (
    Itemset,
    QueryCounter,
    QubitBudgetError,
    TransactionDB,
    cand_gen,
    exact_support,
    good_set,
    grid_steps_between,
)
from qarm.constants import GRID_TOL
from qarm.data import _lex_sorted
from qarm.oracle import CAND, EST, TXN, candidate_layout, candidate_sign_table
from qarm.qpe import (
    _grover_kernel,
    analytic_phase_distribution,
    decode_support,
    estimation_law,
    parallel_amplitude_estimation,
)
from qarm.qsim import joint_probs, register_marginal

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
    assert np.flatnonzero(good_set(8, 0.5)).tolist() == [2, 3, 4, 5, 6]
    mask = good_set(16, 0.5)
    assert mask.dtype == bool and mask.shape == (16,)
    assert all(mask[y] == mask[(16 - y) % 16] for y in range(16))
    # sin^2(pi/4) = 1/2 exactly: the boundary grid point is inside
    assert good_set(16, 0.5)[4]
    with pytest.raises(ValueError):
        good_set(8, 0)


@pytest.mark.parametrize("big_t", [0, 6])
def test_good_set_refuses_a_grid_that_is_not_a_power_of_two(big_t):
    # T = 0 divided by zero, and T = 6 gave a 6-entry mask
    with pytest.raises(ValueError, match=f"T must be a power of two >= 2, got {big_t}"):
        good_set(big_t, 0.5)


# T = 4096 examples where an np.sin grid gives another mask: the threshold
# one ulp above grid value 91 plus GRID_TOL, and grid value 999 plus GRID_TOL
@settings(max_examples=150, deadline=None)
@given(big_t=st.one_of(st.sampled_from([1 << e for e in range(1, 13)]),
                       st.integers(2, 1 << 12)),
       at=st.integers(0, 1 << 11), kind=st.integers(0, 3))
@example(big_t=4096, at=90, kind=3)
@example(big_t=4096, at=998, kind=1)
def test_good_set_equals_decoded_mask(big_t, at, kind):
    # the mask is made from the folded grid at once; it must be the one
    # that decoding every y gives, at thresholds on a grid value, at that
    # value plus GRID_TOL, and one ulp either side of the latter
    value = decode_support(1 + at % (big_t // 2), big_t).value
    edge = value + GRID_TOL
    thr = [value, edge, math.nextafter(edge, 0.0), math.nextafter(edge, 2.0)][kind]
    assume(thr <= 1.0)
    if big_t & (big_t - 1):  # decoding takes any T; the mask takes a power of two
        with pytest.raises(ValueError, match="power of two"):
            good_set(big_t, thr)
        return
    decoded = [decode_support(y, big_t).value >= thr - GRID_TOL for y in range(big_t)]
    assert good_set(big_t, thr).tolist() == decoded


def nonzero_outcomes(probs, floor=1e-15):
    return {int(y): float(p) for y, p in enumerate(probs) if p > floor}


def test_analytic_distribution_point_masses():
    assert nonzero_outcomes(analytic_phase_distribution(0.0, 16)) == {0: 1.0}
    assert nonzero_outcomes(analytic_phase_distribution(1.0, 16)) == {8: 1.0}
    # s = 1/2 at T = 8: theta/pi = 1/8, branches at y = 2 and 6
    d = analytic_phase_distribution(0.5, 8)
    assert nonzero_outcomes(d) == {2: 0.5, 6: 0.5}


def test_analytic_distribution_off_grid():
    for s in (0.25, 0.3, 0.71):
        for big_t in (8, 16, 32):
            d = analytic_phase_distribution(s, big_t)
            assert d.dtype == np.float64 and d.shape == (big_t,)
            assert abs(d.sum() - 1.0) < 1e-12
            assert d.min() >= 0.0
            # mirrored branches make the law symmetric under y -> T - y
            for y in range(big_t):
                assert abs(d[y] - d[(big_t - y) % big_t]) < 1e-12
    with pytest.raises(ValueError):
        analytic_phase_distribution(0.5, 12)
    with pytest.raises(ValueError):
        analytic_phase_distribution(-0.1, 8)


def test_estimation_tail_mass_below_threshold():
    # s = 1/4 sits 8/3 grid steps under 0.5 yet leaks measurable mass
    # into the good region: the per-shot false-positive rate at T = 32
    d = analytic_phase_distribution(0.25, 32)
    leak = float(d[good_set(32, 0.5)].sum())
    assert abs(leak - 0.0363549) < 1e-4


def test_grover_operator_matches_dense():
    # the pipeline's Grover step on a (txn, cand) block, under a leading
    # control axis, is (2|X_N><X_N| - I) diag(candidate sign table)
    rng = np.random.default_rng(11)
    for k in (1, 2):
        db = random_db(rng, n=3, m=3)  # padded to 4 rows: row 3 reads 0
        cands = random_candidates(rng, db, k)
        layout = candidate_layout(db, len(cands), 2)
        n_dim, c_dim = layout.dim(TXN), layout.dim(CAND)
        table = candidate_sign_table(db, cands, layout)
        u = np.zeros(n_dim)
        u[: db.n_transactions] = 1 / math.sqrt(db.n_transactions)
        reflect = 2 * np.outer(u, u) - np.eye(n_dim)
        dense = np.kron(reflect, np.eye(c_dim)) @ np.diag(table.ravel())

        shape = (2, n_dim * c_dim)
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expect = amps @ dense.T
        block = amps.reshape(2, n_dim, c_dim)
        counter = QueryCounter()
        _grover_kernel(block, table, db.n_transactions, k, counter)
        assert np.max(np.abs(block.reshape(2, -1) - expect)) < 1e-12
        assert counter.grover_applications == 1
        assert counter.basic_oracle_calls == 2 * k


def test_estimation_marginal_single_candidate(dtoy):
    for item, s in ((0, 0.75), (1, 0.5), (2, 0.25)):
        psi = parallel_amplitude_estimation(dtoy, [Itemset((item,))], 1, 16)
        marg = register_marginal(psi, "est")
        expect = analytic_phase_distribution(s, 16)
        assert np.max(np.abs(marg - expect)) < 1e-12


def test_estimation_marginal_two_candidates(dtoy):
    psi = parallel_amplitude_estimation(
        dtoy, [Itemset((0,)), Itemset((1,))], 1, 16)
    marg = register_marginal(psi, "est")
    expect = 0.5 * (analytic_phase_distribution(0.75, 16)
                    + analytic_phase_distribution(0.5, 16))
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
    law = estimation_law(db, cands, k, big_t, law_counter)
    assert law.shape == (big_t, len(cands))
    assert np.max(np.abs(dense[:, :len(cands)] - law)) < 1e-12
    assert np.max(dense[:, len(cands):], initial=0.0) < 1e-12  # padded slots
    assert law_counter == dense_counter


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3),
       big_t=st.sampled_from([2, 8, 64]))
def test_estimation_law_is_stacked_analytic_columns(seed, k, big_t):
    # bit for bit, and C-ordered: the level plan's row sums and flat CDFs
    # read the law in that order
    rng = np.random.default_rng(seed)
    db = random_db(rng, n=int(rng.integers(1, 9)), m=int(rng.integers(k, 6)))
    cands = random_candidates(rng, db, k)
    law = estimation_law(db, cands, k, big_t, QueryCounter())
    counts = [exact_support(db, c).numerator for c in cands]
    expect = np.stack([analytic_phase_distribution(n / db.n_transactions, big_t)
                       / len(cands) for n in counts], axis=1)
    assert np.array_equal(law, expect)
    assert law.flags.c_contiguous


@pytest.mark.parametrize("cands, k, big_t, cap", [
    ([Itemset((0,))], 1, 2 ** 25, 26),                # 28 qubits, over the cap
    ([Itemset((0,))], 1, 6, None),                    # T not a power of two
    ([Itemset((0,))], 1, 1, None),
    ([], 1, 8, None),                                 # no candidates
    ([Itemset((0,)), Itemset((0,))], 1, 8, None),     # duplicate
    ([Itemset((7,))], 1, 8, None),                    # outside the items
    ([Itemset((0, 1))], 1, 8, None),                  # wrong size
    ([Itemset((0, 1)), Itemset((1,))], 2, 8, None),
])
def test_estimation_law_refuses_like_the_pipeline(dtoy, cands, k, big_t, cap):
    runs = [lambda c: parallel_amplitude_estimation(dtoy, cands, k, big_t, c)]
    if cap is None:  # the law builds no state, so no qubit cap applies to it
        runs.append(lambda c: estimation_law(dtoy, cands, k, big_t, c))
    errors = []
    for run in runs:
        counter = QueryCounter()
        with pytest.raises(ValueError) as info:
            run(counter)
        errors.append((type(info.value), str(info.value)))
        assert counter == QueryCounter()
    assert len(set(errors)) == 1
    assert (errors[0][0] is QubitBudgetError) == (cap is not None)
    assert cap is None or f"but the cap is {cap}" in errors[0][1]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_every_level_consumer_refuses_the_same_repeats(data, k):
    # cand_gen, estimation_law and the dense pipeline share one check: a
    # level that repeats a row is refused, naming the first row equal to an
    # earlier one in the order given; any other level orders as the sorted
    # set of its rows
    db = TransactionDB.from_rows([[0, 1, 2, 3], [0, 1], [1, 3], [2]], n_items=4)
    distinct = data.draw(st.lists(st.sampled_from(list(combinations(range(4), k))),
                                  min_size=1, unique=True))
    rows = data.draw(st.permutations(
        distinct + data.draw(st.lists(st.sampled_from(distinct), max_size=3))))
    candidates = rows if data.draw(st.booleans()) else np.array(rows, dtype=np.int32)
    seen, first = set(), None
    for row in rows:
        if row in seen:
            first = row
            break
        seen.add(row)
    consumers = [cand_gen,
                 lambda c: estimation_law(db, c, k, 4, QueryCounter()),
                 lambda c: parallel_amplitude_estimation(db, c, k, 4)]
    if first is None:
        level = np.array(rows, dtype=np.int32)
        ordered = _lex_sorted(level)
        assert [tuple(row) for row in ordered.tolist()] == sorted(set(rows))
        assert (ordered is level) == (rows == sorted(rows))
        for consume in consumers:
            consume(candidates)
        return
    for consume in consumers:
        with pytest.raises(ValueError) as info:
            consume(candidates)
        assert str(info.value) == f"duplicate itemset {Itemset(first)}"


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
