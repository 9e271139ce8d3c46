"""Exact level-wise mining, the row-sampling baseline, rule generation,
and the query-advantage metric."""

import itertools
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qarm import classical
from qarm import (
    AssociationRule,
    Itemset,
    IterationStats,
    QueryCounter,
    TransactionDB,
    apriori,
    cand_gen,
    exact_support,
    fre_exam,
    gamma_metric,
    generate_rules,
    sampling_estimate,
)
from qarm.classical import (
    REFERENCE_APRIORI_RUNS,
    REFERENCE_GAMMA,
    mine_levels,
    sampling_apriori,
)
from qarm.data import level_supports

from conftest import CALL_BYTES, SecondDrawFails, random_candidates, random_db, traced_peak


def test_fre_exam_examples(dtoy):
    cands = [Itemset.of(0), Itemset.of(1), Itemset.of(2)]
    kept = fre_exam(dtoy, cands, 0.5)
    assert [(x.items, s.numerator) for x, s in kept] == [((0,), 3), ((1,), 2)]

    # the boundary is inclusive, and just above it excludes exactly
    assert [x for x, _ in fre_exam(dtoy, cands, 0.75)] == [Itemset.of(0)]
    assert [x for x, _ in fre_exam(dtoy, cands, "0.751")] == []


def test_fre_exam_row_scan_charges(dtoy):
    counter = QueryCounter()
    fre_exam(dtoy, [Itemset.of(0), Itemset((0, 1))], 0.5, counter)
    assert counter.classical_row_scans == 1 * 4 + 2 * 4
    assert counter.basic_oracle_calls == 0


def test_cand_gen_join_and_prune():
    f1 = [Itemset.of(0), Itemset.of(1), Itemset.of(3)]
    assert cand_gen(f1) == [Itemset((0, 1)), Itemset((0, 3)), Itemset((1, 3))]

    f2 = [Itemset((0, 1)), Itemset((0, 2)), Itemset((1, 2))]
    assert cand_gen(f2) == [Itemset((0, 1, 2))]

    # {1, 2} infrequent: the join {0, 1, 2} is pruned
    assert cand_gen([Itemset((0, 1)), Itemset((0, 2))]) == []

    assert cand_gen([]) == []
    with pytest.raises(ValueError):
        cand_gen([Itemset.of(0), Itemset((0, 1))])
    with pytest.raises(ValueError):
        cand_gen([Itemset.of(0), Itemset.of(0)])


@given(data=st.data(), k=st.integers(1, 3), n_items=st.integers(1, 7))
def test_cand_gen_is_sound_and_complete(data, k, n_items):
    pool = list(itertools.combinations(range(n_items), k))
    frequents = [Itemset(c) for c in pool if data.draw(st.booleans())]
    if not frequents:
        assert cand_gen(frequents) == []
        return
    fset = set(frequents)
    got = cand_gen(data.draw(st.permutations(frequents)))
    assert got == sorted(set(got))
    # sound: every output is a (k+1)-set whose k-subsets are all frequent
    for x in got:
        assert x.size == k + 1
        assert all(sub in fset for sub in x.subsets(k))
    # complete: every such (k+1)-set is an output
    want = [Itemset(c) for c in itertools.combinations(range(n_items), k + 1)
            if all(sub in fset for sub in Itemset(c).subsets(k))]
    assert got == want


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3))
def test_level_bytes_bound_cand_gen_and_fre_exam(seed, k):
    # what mine_levels counts for level k+1 before cand_gen builds it
    rng = np.random.default_rng(seed)
    # up to 780 joins, enough for the per-candidate figure to show
    db = random_db(rng, int(rng.integers(1, 3000)), int(rng.integers(k + 1, 40 // k + 1)),
                   density=float(rng.uniform(0.1, 0.9)))
    level_supports(db, [Itemset((0, 1))])  # the CSC view is the database's
    kept = random_candidates(rng, db, k)
    groups = Counter(x.items[:-1] for x in kept).values()
    joins = sum(g * (g - 1) // 2 for g in groups)
    supports = {}
    peak = traced_peak(lambda: fre_exam(db, cand_gen(kept), "1/4", supports=supports))
    bound = ((joins + len(kept)) * classical._CANDIDATE_BYTES
             + db.n_transactions * classical._ROW_BYTES)
    assert peak <= bound + CALL_BYTES


@settings(max_examples=60)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_mine_levels_joins_each_level_kept(data, seed):
    rng = np.random.default_rng(seed)
    db = random_db(rng, int(rng.integers(1, 9)), int(rng.integers(1, 7)),
                   density=float(rng.uniform(0.0, 1.0)))
    seen, candidates_seen, kept_seen = [], [], []

    def examine(candidates, k):
        seen.append(k)
        kept = [x for x in candidates if data.draw(st.booleans())]
        candidates_seen.append(candidates)
        kept_seen.append(kept)
        return kept, (k, len(candidates))

    run = mine_levels(db, examine)
    levels = len(candidates_seen)
    assert seen == list(range(1, levels + 1))
    assert len(kept_seen) == len(run.results) == len(run.stats) == levels
    if db.present_items():
        assert candidates_seen[0] == [Itemset.of(j) for j in db.present_items()]
    else:
        assert levels == 0
    for i in range(1, levels):
        assert candidates_seen[i] == cand_gen(kept_seen[i - 1])
    if levels:
        assert cand_gen(kept_seen[-1]) == []
    assert all(c for c in candidates_seen)
    assert [(s.k, s.m_candidates, s.m_frequent) for s in run.stats] == [
        (i + 1, len(candidates_seen[i]), len(kept_seen[i])) for i in range(levels)]
    assert run.results == [(i + 1, len(c)) for i, c in enumerate(candidates_seen)]


def brute_force_frequents(db, thr, max_size):
    out = {}
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(db.n_items), size):
            x = Itemset(combo)
            sup = exact_support(db, x)
            if sup.value >= thr:
                out[x] = sup
    return out


@given(data=st.data(), n=st.integers(3, 8), m=st.integers(2, 5),
       quarters=st.integers(1, 3))
def test_apriori_matches_brute_force(data, n, m, quarters):
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                              min_size=n, max_size=n))
    db = TransactionDB.from_rows([[j for j in range(m) if row[j]] for row in rows],
                                 n_items=m)
    thr = Fraction(quarters, 4)
    got = apriori(db, thr)
    assert got.frequents == brute_force_frequents(db, thr, db.n_items)
    # downward closure: every subset of a frequent itemset is frequent
    for x in got.frequents:
        for size in range(1, x.size):
            for sub in x.subsets(size):
                assert sub in got.frequents


def test_apriori_stats_and_levels(dtoy):
    res = apriori(dtoy, 0.5)
    assert list(res.frequents) == [Itemset.of(0), Itemset.of(1), Itemset((0, 1))]
    assert [(st.k, st.m_candidates, st.m_frequent) for st in res.stats] == [
        (1, 3, 2), (2, 1, 1)]
    assert res.frequents[Itemset((0, 1))].value == Fraction(1, 2)


def test_sampling_degenerate_supports(toy4):
    rng = np.random.default_rng(0)
    got = dict(sampling_estimate(toy4, [Itemset.of(1), Itemset.of(2)],
                                 200, rng))
    assert got[Itemset.of(1)] == 1.0
    assert got[Itemset.of(2)] == 0.0


def test_sampling_unbiased(toy4):
    rng = np.random.default_rng(512)
    trials, m = 600, 50
    estimates = [dict(sampling_estimate(toy4, [Itemset.of(0)], m, rng))
                 [Itemset.of(0)] for _ in range(trials)]
    # item 0 has support 1/2; the mean must land within 3 standard errors
    tol = 3 * np.sqrt(0.25 / m) / np.sqrt(trials)
    assert abs(np.mean(estimates) - 0.5) < tol


def test_sampling_charges_and_validation(toy4):
    counter = QueryCounter()
    sampling_estimate(toy4, [Itemset.of(0), Itemset((0, 1))], 30,
                      np.random.default_rng(1), counter)
    assert counter.classical_row_scans == 1 * 30 + 2 * 30
    with pytest.raises(ValueError):
        sampling_estimate(toy4, [Itemset.of(0)], 0)


def _reference_sampling(db, candidates, n, rng, counter):
    # one containment vector and one size-n draw per candidate
    dense = db.dense()
    out = []
    for x in candidates:
        contains = dense[:, list(x.items)].all(axis=1)
        draws = rng.integers(0, db.n_transactions, size=n)
        counter.classical_row_scans += x.size * n
        out.append((x, int(contains[draws].sum()) / n))
    return out


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3),
       n=st.sampled_from([1, 7, 8000]),
       rows_per_call=st.sampled_from([0.3, 1, 2, 3, None]))
def test_sampling_matches_per_candidate_reference(seed, k, n, rows_per_call):
    rng = np.random.default_rng(seed)
    db = random_db(rng, int(rng.integers(1, 24)), int(rng.integers(k, 7)),
                   density=float(rng.uniform(0.2, 0.9)))
    # every size up to k in one list, so sizes mix within a draw call
    candidates = [x for size in range(1, k + 1)
                  for x in random_candidates(rng, db, size)]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got_counter, want_counter = QueryCounter(), QueryCounter()

    def no_bitsets(*_args):
        raise AssertionError("sampling built a column bitset")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TransactionDB, "column_bitset", no_bitsets)
        if rows_per_call is not None:  # draw calls end inside the list
            # under one row per call, a candidate's draws come in slices
            mp.setattr(classical, "_DRAW_BUDGET", max(1, int(rows_per_call * n)))
        got = sampling_estimate(db, candidates, n, got_rng, got_counter)
    assert got == _reference_sampling(db, candidates, n, want_rng, want_counter)
    assert got_counter == want_counter
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n_rows", [1, 2, 7, 88_162, 2 ** 31 - 1])
@pytest.mark.parametrize("n", [1, 7, 8000])
def test_batched_int32_draws_equal_per_candidate_draws(n_rows, n):
    # sampling_estimate relies on this: one (rows, n) int32 call yields the
    # draws of `rows` int64 calls of size n, and leaves the same state
    batched, single = np.random.default_rng(n_rows), np.random.default_rng(n_rows)
    block = batched.integers(0, n_rows, size=(5, n), dtype=np.int32)
    rows = [single.integers(0, n_rows, size=n) for _ in range(5)]
    assert np.array_equal(block, np.stack(rows))
    assert batched.bit_generator.state == single.bit_generator.state


def test_failed_draw_is_raised_and_leaves_no_thread(toy4, monkeypatch):
    monkeypatch.setattr(classical, "_DRAW_BUDGET", 5)  # one candidate per draw
    rng = SecondDrawFails(0)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="second chunk"):
        sampling_estimate(toy4, [Itemset.of(j) for j in range(3)], 5, rng)
    assert threading.active_count() == threads
    assert rng.draw_calls == 2  # no draw was started past the failed one


def test_sampling_apriori_checks_samples_before_any_level():
    empty = TransactionDB.from_rows([[], []], n_items=2)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        sampling_apriori(empty, "1/2", 0, 0, None)


def test_sampling_rejects_items_out_of_range(toy4):
    with pytest.raises(ValueError, match="item 3 out of range"):
        sampling_estimate(toy4, [Itemset.of(0), Itemset((1, 3, 4))], 5)


def test_generate_rules_confidence_boundary():
    supports = {
        Itemset.of(0): Fraction(1, 2),
        Itemset.of(1): Fraction(2, 5),
        Itemset((0, 1)): Fraction(2, 5),
    }
    # 0 => 1 has confidence (2/5)/(1/2) = 4/5, 1 => 0 confidence 1
    rules = generate_rules(supports, "0.8")
    ants = {(r.antecedent, r.consequent): r for r in rules}
    assert set(ants) == {(Itemset.of(0), Itemset.of(1)),
                         (Itemset.of(1), Itemset.of(0))}
    assert ants[(Itemset.of(0), Itemset.of(1))].confidence == Fraction(4, 5)

    rules = generate_rules(supports, "0.81")
    assert [(r.antecedent, r.consequent) for r in rules] == [
        (Itemset.of(1), Itemset.of(0))]


def test_generate_rules_three_items(dtoy):
    res = apriori(dtoy, 0.25)
    rules = generate_rules(res.frequents, 1)
    pairs = {(r.antecedent, r.consequent) for r in rules}
    # confidence 1 rules out of Dtoy: 1 => 0, 2 => 0, 2 => 1, 2 => {0,1},
    # {1,2} => 0, {0,2} => 1
    assert (Itemset.of(1), Itemset.of(0)) in pairs
    assert (Itemset.of(2), Itemset((0, 1))) in pairs
    assert all(r.confidence == 1 for r in rules)
    assert all(not set(r.antecedent.items) & set(r.consequent.items)
               for r in rules)


def test_generate_rules_errors():
    assert generate_rules({Itemset.of(0): Fraction(1, 2)}, 0.5) == []
    with pytest.raises(ValueError, match="missing subset"):
        generate_rules({Itemset((0, 1)): Fraction(1, 2)}, 0.5)
    with pytest.raises(ValueError, match="zero-support"):
        generate_rules({
            Itemset.of(0): Fraction(0),
            Itemset.of(1): Fraction(1, 2),
            Itemset((0, 1)): Fraction(0),
        }, 0.5)


def test_association_rule_validation():
    with pytest.raises(ValueError):
        AssociationRule(Itemset.of(0), Itemset((0, 1)),
                        Fraction(1, 2), Fraction(1, 2))
    rule = AssociationRule(Itemset.of(0), Itemset.of(1),
                           Fraction(1, 2), Fraction(3, 4))
    assert "=>" in str(rule)


def test_iteration_stats_validation():
    with pytest.raises(ValueError):
        IterationStats(0, 1, 1)
    with pytest.raises(ValueError):
        IterationStats(1, 2, 3)
    with pytest.raises(ValueError):
        IterationStats(1, -1, 0)


def test_gamma_metric_reference_tables():
    for key, expect in REFERENCE_GAMMA.items():
        got = gamma_metric(REFERENCE_APRIORI_RUNS[key])
        assert abs(got - expect) < 0.01


def test_gamma_metric_weighted():
    got = gamma_metric(REFERENCE_APRIORI_RUNS[("retail", "1%")], weighted=True)
    assert abs(got - 11.06) < 0.01


def test_gamma_metric_edge_cases():
    stats = (IterationStats(1, 10, 0), IterationStats(2, 5, 5))
    assert gamma_metric(stats) == 15 / 5
    with pytest.raises(ValueError):
        gamma_metric(())
    with pytest.raises(ValueError):
        gamma_metric((IterationStats(1, 10, 0),))
