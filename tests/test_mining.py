"""Amplitude amplification over the good estimation subspace and the
estimate-amplify-measure mining loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qarm.classical
import qarm.mining
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
    synth_db,
)
from qarm.mining import AMPLIFY_MODES
from qarm.oracle import CAND, EST
from qarm.data import level_supports
from qarm.qpe import estimation_law, parallel_amplitude_estimation
from qarm.qsim import joint_probs, measure, reflect_about_state, register_marginal

from conftest import CALL_BYTES, bit_matrix_bytes, random_candidates, random_db, traced_peak

ITEMS = lambda *js: [Itemset.of(j) for j in js]


def quarter_db() -> TransactionDB:
    # item 0 everywhere, items 1..3 nowhere: good weight is exactly 1/4
    # over the four candidates at any threshold in (0, 1]
    return TransactionDB.from_rows([[0], [0]], n_items=4)


def psi3_law(db, items, big_t):
    """The (est, cand) law of |Psi3> over single-item candidates."""
    psi = parallel_amplitude_estimation(db, ITEMS(*items), 1, big_t)
    return joint_probs(psi, [EST, CAND])


def good_weight(law, good):
    return float(law[good].sum())


def test_ideal_projection_moves_all_weight(dtoy):
    law = psi3_law(dtoy, [0, 1, 2], 8)
    good = good_set(8, 0.5)
    before = law.copy()
    out = amplitude_amplify(law, 0.5, "ideal-projection", k=1)
    assert np.array_equal(law, before)  # the level's law is not touched
    assert abs(good_weight(out, good) - 1.0) < 1e-12
    # the conditional law inside the good region survives unscathed
    keep = before.copy()
    keep[~good] = 0
    keep /= keep.sum()
    assert np.max(np.abs(out - keep)) < 1e-12


def test_ideal_projection_identity_when_all_good(toy4):
    # support 1 concentrates on y = T/2, inside the good region
    law = psi3_law(toy4, [1], 8)
    out = amplitude_amplify(law, 0.5, "ideal-projection", k=1)
    assert np.max(np.abs(out - law)) < 1e-12


def test_grover_known_quarter_rotates_exactly():
    # p = 1/4: phi = pi/6, one iteration lands exactly on the good state
    db = quarter_db()
    good = good_set(8, 0.5)
    law = psi3_law(db, [0, 1, 2, 3], 8)
    assert abs(good_weight(law, good) - 0.25) < 1e-12

    ideal = amplitude_amplify(law, 0.5, "ideal-projection", k=1)
    counter = QueryCounter()
    out = amplitude_amplify(law, 0.5, "grover-known",
                            np.random.default_rng(0), counter, k=1)
    assert np.max(np.abs(out - ideal)) < 1e-12
    assert counter.amplification_iterations == 1
    assert counter.grover_applications == 2 * 7
    assert counter.basic_oracle_calls == 2 * 1 * 2 * 7


def test_grover_known_preserves_conditional():
    # p = 1/8: two iterations, residual bad weight sin^2(5*phi) stays small
    db = TransactionDB.from_rows([[0], [0]], n_items=8)
    good = good_set(8, 0.5)
    law = psi3_law(db, list(range(8)), 8)
    assert abs(good_weight(law, good) - 0.125) < 1e-12

    ideal = amplitude_amplify(law, 0.5, "ideal-projection", k=1)
    counter = QueryCounter()
    out = amplitude_amplify(law, 0.5, "grover-known",
                            np.random.default_rng(0), counter, k=1)
    w = good_weight(out, good)
    assert counter.amplification_iterations == 2
    assert w > 0.9
    projected = np.zeros_like(out)
    projected[good] = out[good]
    assert np.max(np.abs(projected / w - ideal)) < 1e-9


def test_bbht_collapses_onto_good_outcome():
    db = quarter_db()
    good = good_set(8, 0.5)
    law = psi3_law(db, [0, 1, 2, 3], 8)
    outs = []
    for _ in range(2):
        counter = QueryCounter()
        out = amplitude_amplify(law, 0.5, "bbht",
                                np.random.default_rng(99), counter, k=1)
        assert abs(good_weight(out, good) - 1.0) < 1e-9
        rows = np.flatnonzero(out.sum(axis=1))
        assert len(rows) == 1 and good[rows[0]]  # one est outcome left
        assert counter.measurements >= 1
        per_pipeline = 2 * 1 * 7
        assert counter.basic_oracle_calls == per_pipeline * (
            counter.state_preparations + 2 * counter.amplification_iterations)
        outs.append(out)
    assert np.array_equal(outs[0], outs[1])  # seeded transcript is stable


def test_amplify_rejects_empty_good_subspace(toy4):
    # supports 1/2 and 0 are on-grid: no mass reaches the 0.9 region
    law = psi3_law(toy4, [0, 2], 8)
    with pytest.raises(NoFrequentCandidatesError, match="0.9"):
        amplitude_amplify(law, 0.9, "ideal-projection", k=1)


def test_amplify_validates_inputs(toy4):
    law = psi3_law(toy4, [0, 1], 8)
    with pytest.raises(ValueError):
        amplitude_amplify(law, 0.5, mode="project", k=1)


class RecordingRng(np.random.Generator):
    """A seeded Generator that logs every iteration count and every uniform
    a measurement draws.  `Generator.choice(p=...)` takes its uniform
    through `self.random`, so the dense reference's `rng.choice` and the
    law's CDF search log the same entry when they read the same uniform."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.draws = []

    def integers(self, *args, **kwargs):
        value = super().integers(*args, **kwargs)
        self.draws.append(("r", int(value)))
        return value

    def random(self, *args, **kwargs):
        value = super().random(*args, **kwargs)
        self.draws.append(("u", float(value)))
        return value


def dense_amplify(state, mask, mode, rng, counter, k):
    """Statevector reference: negate the good est rows, reflect about
    |Psi3>, and measure the est register on the whole dense state."""
    big_t = state.layout.dim(EST)
    p = float(register_marginal(state, EST)[mask].sum())
    if p <= 1e-15:
        raise NoFrequentCandidatesError("no good weight")
    rows = state.amps.reshape(big_t, -1)  # est is the leading register
    if mode == "ideal-projection":
        rows[~mask] = 0.0
        state.amps /= np.linalg.norm(state.amps)
        return
    ref = state.copy()

    def iterate(r):
        for _ in range(r):
            rows[mask] *= -1.0
            reflect_about_state(state, ref)
            counter.charge_amplification_iterations(k, big_t, 1)

    if mode == "grover-known":
        iterate(max(0, round(math.pi / (4.0 * math.asin(math.sqrt(min(1.0, p)))) - 0.5)))
        return
    m, m_cap, first = 1.0, max(1.0, 1.1 / math.sqrt(p)), True
    budget, spent = int(200.0 / math.sqrt(p)) + 50, 0
    while True:
        if not first:
            state.amps[:] = ref.amps
            counter.charge_estimation_pipeline(k, big_t)
        first = False
        r = int(rng.integers(0, int(math.ceil(m))))
        iterate(r)
        outcomes, _ = measure(state, [EST], rng)
        counter.measurements += 1
        if mask[outcomes[EST]]:
            return
        spent += r + 1
        if spent > budget:
            raise RuntimeError("amplitude amplification failed to converge")
        m = min(m * 6.0 / 5.0, m_cap)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 2),
       big_t=st.sampled_from([8, 16]),
       min_supp=st.sampled_from([0.125, 0.25, 0.5, 0.75]))
def test_law_amplification_matches_dense_reference(seed, k, big_t, min_supp):
    rng = np.random.default_rng(seed)
    db = random_db(rng, n=int(rng.integers(1, 9)), m=int(rng.integers(k, 6)))
    cands = random_candidates(rng, db, k)
    good = good_set(big_t, min_supp)
    law = joint_probs(parallel_amplitude_estimation(db, cands, k, big_t),
                      [EST, CAND])
    if good_weight(law, good) <= 1e-15:
        with pytest.raises(NoFrequentCandidatesError):
            amplitude_amplify(law, min_supp, "bbht", RecordingRng(seed), k=k)
        return
    for mode in AMPLIFY_MODES:
        state = parallel_amplitude_estimation(db, cands, k, big_t)
        dense_rng, law_rng = RecordingRng(seed), RecordingRng(seed)
        dense_counter, law_counter = QueryCounter(), QueryCounter()
        dense_amplify(state, good, mode, dense_rng, dense_counter, k)
        out = amplitude_amplify(law, min_supp, mode, law_rng, law_counter, k=k)
        assert np.max(np.abs(out - joint_probs(state, [EST, CAND]))) < 1e-12
        assert law_counter == dense_counter
        assert law_rng.draws == dense_rng.draws  # same r sequence, same uniforms
        assert law_rng.bit_generator.state == dense_rng.bit_generator.state


def parent_amplify(law, mask, mode, rng, counter, k):
    """The per-shot amplification the level plan replaced: recompute the
    level's mask, p and phi and return a fresh amplified law every shot."""
    big_t = law.shape[0]
    est = law.sum(axis=1)
    p = float(est[mask].sum())
    if p <= 1e-15:
        raise NoFrequentCandidatesError("no good weight")

    def rotation(r):
        angle = (2 * r + 1) * phi
        bad = math.cos(angle) ** 2 / (1.0 - p) if p < 1.0 else 0.0
        return np.where(mask, math.sin(angle) ** 2 / p, bad)

    if mode == "ideal-projection":
        projected = law * mask[:, None]
        return projected / projected.sum()
    phi = math.asin(math.sqrt(min(1.0, p)))
    if mode == "grover-known":
        r = max(0, round(math.pi / (4.0 * phi) - 0.5))
        for _ in range(r):
            counter.charge_amplification_iterations(k, big_t, 1)
        return law * rotation(r)[:, None]
    m, m_cap = 1.0, max(1.0, 1.1 / math.sqrt(p))
    budget, spent, first = int(200.0 / math.sqrt(p)) + 50, 0, True
    while True:
        if not first:
            counter.charge_estimation_pipeline(k, big_t)
        first = False
        r = int(rng.integers(0, int(math.ceil(m))))
        for _ in range(r):
            counter.charge_amplification_iterations(k, big_t, 1)
        y = parent_sample(est * rotation(r), rng)
        counter.measurements += 1
        if mask[y]:
            collapsed = np.zeros_like(law)
            collapsed[y] = law[y] / law[y].sum()
            return collapsed
        spent += r + 1
        if spent > budget:
            raise RuntimeError("amplitude amplification failed to converge")
        m = min(m * 6.0 / 5.0, m_cap)


def parent_sample(weights, rng):
    flat = weights.ravel()
    return int(rng.choice(flat.size, p=flat / flat.sum()))


def run_shots(shot, law, k, rng, counter, n_shots):
    """n_shots of one level as qarm_mine_k runs them: the drawn (y, j),
    or the error that stopped them."""
    draws = []
    try:
        for i in range(n_shots):
            if i:
                counter.charge_estimation_pipeline(k, law.shape[0])
            draws.append(shot())
            counter.measurements += 1
    except (NoFrequentCandidatesError, RuntimeError) as exc:
        draws.append(type(exc))
    return draws, counter, rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(AMPLIFY_MODES),
       k=st.integers(1, 3), big_t=st.sampled_from([2, 4, 8, 16, 32, 64]),
       n_cand=st.integers(1, 12), zero_share=st.sampled_from([0.0, 0.3, 0.7]),
       min_supp=st.sampled_from([0.05, 0.25, 0.5, 0.75, 1.0]))
def test_level_plan_draws_equal_per_shot_choice(seed, mode, k, big_t, n_cand,
                                                zero_share, min_supp):
    # the plan against the loop it replaced, on random laws with columns
    # of zero weight: the same outcomes, ledger and generator state
    gen = np.random.default_rng(seed)
    law = gen.random((big_t, n_cand)) ** 3
    law[:, gen.random(n_cand) < zero_share] = 0.0
    if not law.any():
        law[:, 0] = 1.0
    law /= law.sum()
    good = good_set(big_t, min_supp)
    runs = []
    for planned in (True, False):
        rng, counter = np.random.default_rng(seed + 1), QueryCounter()
        if planned:
            try:
                plan = qarm.mining._LevelPlan(law, min_supp, mode, k)
            except NoFrequentCandidatesError:
                runs.append(([NoFrequentCandidatesError], counter, rng.bit_generator.state))
                continue

            def shot():
                # the level charges its fixed r once for all its shots
                counter.charge_amplification_iterations(k, big_t, plan.r)
                return plan.shot(rng, counter)
        else:
            def shot():
                out = parent_amplify(law, good, mode, rng, counter, k)
                return divmod(parent_sample(out, rng), n_cand)
        runs.append(run_shots(shot, law, k, rng, counter, 30))
    assert runs[0] == runs[1]


def choice_cdf(weights):
    """The CDF `rng.choice(p=...)` searches when `parent_sample` draws."""
    flat = weights.ravel()
    cdf = (flat / flat.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), big_t=st.sampled_from([2, 4, 8, 16, 32, 64]),
       n_cand=st.integers(1, 40), min_supp=st.sampled_from([0.05, 0.25, 0.5]))
def test_plan_cdfs_equal_choice_cdfs_bit_for_bit(seed, big_t, n_cand, min_supp):
    # a last-bit difference in a CDF moves a draw only when the uniform
    # lands between the two values, so pin the CDFs themselves: each is
    # choice's CDF of the very weights its measurement draws from,
    # normalised once; neither a pre-normalised law nor a collapsed row
    # padded out to T x C may stand in for them
    gen = np.random.default_rng(seed)
    law = gen.random((big_t, n_cand)) ** 3
    law[:, gen.random(n_cand) < 0.3] = 0.0
    if not law.any():
        law[:, 0] = 1.0
    law /= law.sum()
    good = good_set(big_t, min_supp)
    if good_weight(law, good) <= 1e-15:
        return
    plan = qarm.mining._LevelPlan(law, min_supp, "ideal-projection", 1)
    plan.shot(np.random.default_rng(0), QueryCounter())
    assert np.array_equal(plan.cdf(plan.r), choice_cdf(law * good[:, None]))

    def rotation(r):
        angle = (2 * r + 1) * plan.phi
        return np.where(good, math.sin(angle) ** 2 / plan.p,
                        math.cos(angle) ** 2 / (1.0 - plan.p) if plan.p < 1.0 else 0.0)

    plan = qarm.mining._LevelPlan(law, min_supp, "grover-known", 1)
    plan.shot(np.random.default_rng(0), QueryCounter())
    assert np.array_equal(plan.cdf(plan.r), choice_cdf(law * rotation(plan.r)[:, None]))
    plan = qarm.mining._LevelPlan(law, min_supp, "bbht", 1)
    for r in range(4):
        assert np.array_equal(plan.cdf(r), choice_cdf(law.sum(axis=1) * rotation(r)))
    for y in np.flatnonzero(good):
        if law[y].sum() > 0:
            assert np.array_equal(plan.cdf(y=y), choice_cdf(law[y]))


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


def per_shot_ledger(db, cands, k, big_t, min_supp, mode, seed, patience):
    """qarm_mine_k's shot loop with every shot charged as it runs: a
    re-preparation before each shot after the first, the plan's fixed r
    iterations and a measurement after each; the ledger it leaves, or the
    error that stopped it."""
    counter = QueryCounter()
    law = estimation_law(db, cands, k, big_t, counter)
    try:
        plan = qarm.mining._LevelPlan(law, min_supp, mode, k)
    except NoFrequentCandidatesError as exc:
        return type(exc)
    rng, found, misses = np.random.default_rng(seed), set(), 0
    while misses < patience:
        if found or misses:
            counter.charge_estimation_pipeline(k, big_t)
        y, j = plan.shot(rng, counter)
        counter.charge_amplification_iterations(k, big_t, plan.r)
        counter.measurements += 1
        if plan.good[y] and j not in found:
            found.add(j)
            misses = 0
        else:
            misses += 1
    return counter


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(AMPLIFY_MODES),
       k=st.integers(1, 2), big_t=st.sampled_from([2, 4, 8, 16, 32]),
       min_supp=st.sampled_from([0.125, 0.25, 0.5]), patience=st.integers(1, 25))
def test_mine_k_ledger_equals_per_shot_charges(seed, mode, k, big_t, min_supp, patience):
    # the level charges its re-preparations and measurements once, after
    # the loop; field by field it must equal the loop that charges each
    # shot (the ledger law scales both of its sides, so it cannot see a
    # preparation too many or too few)
    rng = np.random.default_rng(seed)
    db = random_db(rng, n=int(rng.integers(1, 12)), m=int(rng.integers(k + 1, 6)))
    cands = random_candidates(rng, db, k)
    counter = QueryCounter()
    try:
        res = qarm_mine_k(db, cands, k, big_t, min_supp, mode, np.random.default_rng(seed),
                          patience=patience, counter=counter)
    except NoFrequentCandidatesError as exc:
        counter = type(exc)
    else:
        assert res.shots_used == counter.state_preparations
    assert counter == per_shot_ledger(db, cands, k, big_t, min_supp, mode, seed, patience)


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


def test_level_stops_at_the_shot_cap(monkeypatch):
    # item 0 alone is frequent: the first shot finds it and the next three
    # miss, so a patience of 3 stops after 4 shots, which a cap of 4 allows
    mine = lambda: qarm_mine_k(quarter_db(), ITEMS(0, 1, 2, 3), 1, 8, 0.5, patience=3,
                               rng=np.random.default_rng(0))
    monkeypatch.setattr(qarm.mining, "LEVEL_SHOTS", 4)
    assert mine().shots_used == 4
    monkeypatch.setattr(qarm.mining, "LEVEL_SHOTS", 3)
    with pytest.raises(RuntimeError, match="^level 1: still finding itemsets at the 3-shot cap$"):
        mine()
    with pytest.raises(ValueError, match="^patience 4 is above the 3-shot cap of a level$"):
        qarm.mining.check_mining_args(8, 4)


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


def dense_estimation_law(db, candidates, k, big_t, counter):
    """estimation_law read off the dense pipeline, padded cand slots kept."""
    psi = parallel_amplitude_estimation(db, candidates, k, big_t, counter)
    return joint_probs(psi, [EST, CAND])


@pytest.mark.parametrize("mode", AMPLIFY_MODES)
def test_qarm_full_matches_dense_estimation(monkeypatch, mode):
    # the closed-form law against the dense pipeline as the oracle: the
    # same results, ledger and generator state after every level
    dbs = [synth_db(16, 6, {}, seed=3, background_density=0.25)]
    rng = np.random.default_rng(17)
    dbs += [random_db(rng, n=int(rng.integers(4, 13)), m=5, density=0.5)
            for _ in range(3)]
    for db in dbs:
        runs = []
        for law_fn in (estimation_law, dense_estimation_law):
            monkeypatch.setattr(qarm.mining, "estimation_law", law_fn)
            gen, counter = np.random.default_rng(5), QueryCounter()
            results, stats = qarm_full(db, "1/4", 16, mode, gen, counter=counter)
            runs.append((results, stats, counter, gen.bit_generator.state))
        assert runs[0][0] and runs[0][2].basic_oracle_calls > 0
        assert runs[0] == runs[1]


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


@pytest.mark.parametrize("big_t, patience, message", [
    (8, 0, "patience must be >= 1"),
    (3, 25, "T must be a power of two >= 2, got 3"),
    (1, 25, "T must be a power of two >= 2, got 1"),
])
def test_qarm_full_checks_arguments_before_any_level(big_t, patience, message):
    # no item occurs, so no level would run to refuse them
    db = TransactionDB.from_rows([[], []], n_items=3)
    with pytest.raises(ValueError, match=message):
        qarm_full(db, 0.5, big_t, patience=patience)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 2),
       log_t=st.integers(1, 11), mode=st.sampled_from(AMPLIFY_MODES))
def test_level_bytes_bound_qarm_mine_k(seed, k, log_t, mode):
    # what qarm_mine_k counts before it builds the level's law: the law,
    # and every candidate found
    rng = np.random.default_rng(seed)
    db = random_db(rng, int(rng.integers(1, 3000)), int(rng.integers(k + 1, 16)),
                   density=float(rng.uniform(0.1, 0.9)))
    level_supports(db, [Itemset((0, 1))])  # a first count, outside the traced peak
    cands, big_t = random_candidates(rng, db, k), 1 << log_t

    def mine():
        try:
            qarm_mine_k(db, cands, k, big_t, "1/4", mode, np.random.default_rng(seed))
        except NoFrequentCandidatesError:
            pass

    peak = traced_peak(mine)
    items = len({j for x in cands for j in x}) if k > 1 else 0  # the bit matrix's rows
    bound = (len(cands) * (qarm.classical._CANDIDATE_BYTES + qarm.classical._KEPT_BYTES)
             + db.n_transactions * qarm.classical._ROW_BYTES
             + (len(cands) + 2) * qarm.mining._LAW_COPIES * 8 * big_t
             + bit_matrix_bytes(db, items))
    assert peak <= bound + CALL_BYTES
