"""Exact level-wise mining, the row-sampling baseline, rule generation,
and the query-advantage metric."""

import itertools
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qarm import classical, data, mining
from qarm import (
    AssociationRule,
    ExactSupport,
    Itemset,
    IterationStats,
    NoFrequentCandidatesError,
    QueryCounter,
    TransactionDB,
    apriori,
    cand_gen,
    exact_support,
    fre_exam,
    gamma_metric,
    generate_rules,
    qarm_mine_k,
    sampling_estimate,
    synth_db,
)
from qarm.classical import (
    REFERENCE_APRIORI_RUNS,
    REFERENCE_GAMMA,
    check_n_samples,
    mine_levels,
    sampling_apriori,
)
from qarm.data import level_supports

from conftest import (
    CALL_BYTES,
    SecondDrawFails,
    bit_matrix_bytes,
    random_candidates,
    random_db,
    traced_peak,
)


def test_fre_exam_examples(dtoy):
    cands = [Itemset.of(0), Itemset.of(1), Itemset.of(2)]
    kept, counts = fre_exam(dtoy, cands, 0.5)
    assert [(x, s.numerator) for x, s in kept] == [((0,), 3), ((1,), 2)]
    assert all(type(x) is Itemset for x, _ in kept)
    # every candidate's count, kept or not
    assert counts.dtype == np.int64 and counts.tolist() == [3, 2, 1]

    # the boundary is inclusive, and just above it excludes exactly
    assert [x for x, _ in fre_exam(dtoy, cands, 0.75)[0]] == [Itemset.of(0)]
    assert [x for x, _ in fre_exam(dtoy, cands, "0.751")[0]] == []
    # a level array reads as the list of its rows
    level = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int32)
    kept, counts = fre_exam(dtoy, level, 0.5)
    assert kept == [(Itemset((0, 1)), ExactSupport(2, 4))]
    assert counts.tolist() == [2, 1, 1]


def test_fre_exam_row_scan_charges(dtoy):
    counter = QueryCounter()
    fre_exam(dtoy, [Itemset.of(0)], 0.5, counter)
    fre_exam(dtoy, [Itemset((0, 1))], 0.5, counter)
    assert counter.classical_row_scans == 1 * 4 + 2 * 4
    assert counter.basic_oracle_calls == 0
    with pytest.raises(ValueError, match="same size"):
        fre_exam(dtoy, [Itemset.of(0), Itemset((0, 1))], 0.5, counter)


@given(thr=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(bool),
       n=st.integers(1, 300))
def test_min_count_is_the_exact_bar(thr, n):
    # one integer bar per level: count/n >= thr exactly when count reaches it
    min_count = classical._min_count(thr, n)
    for count in range(n + 1):
        assert (count >= min_count) == (count * thr.denominator >= thr.numerator * n)


def rows(level):
    """A level array as the list of its rows, each a tuple (so it equals
    the Itemset of the same items)."""
    return [tuple(row) for row in level.tolist()]


def reference_cand_gen(frequents):
    """cand_gen on itemsets: join in sorted prefix groups, prune on a set."""
    frequents = list(frequents)
    if not frequents:
        return []
    k = len(frequents[0])
    if any(len(x) != k for x in frequents):
        raise ValueError("frequents must all have the same size")
    fset = set(frequents)
    if len(fset) != len(frequents):
        raise ValueError("frequents must be distinct")
    out = []
    for _, group in itertools.groupby(sorted(fset), key=lambda t: t[:-1]):
        for a, b in itertools.combinations(group, 2):
            joined = a + (b[-1],)
            if all(sub in fset for sub in itertools.combinations(joined, k)):
                out.append(Itemset(joined))
    return out


def test_cand_gen_join_and_prune():
    f1 = [Itemset.of(0), Itemset.of(1), Itemset.of(3)]
    got = cand_gen(f1)
    assert got.dtype == np.int32 and got.shape == (3, 2)
    assert rows(got) == [Itemset((0, 1)), Itemset((0, 3)), Itemset((1, 3))]

    f2 = [Itemset((0, 1)), Itemset((0, 2)), Itemset((1, 2))]
    assert rows(cand_gen(f2)) == [Itemset((0, 1, 2))]
    assert rows(cand_gen(np.array(f2))) == [Itemset((0, 1, 2))]

    # {1, 2} infrequent: the join {0, 1, 2} is pruned
    assert cand_gen([Itemset((0, 1)), Itemset((0, 2))]).shape == (0, 3)

    assert cand_gen([]).shape == (0, 1)
    with pytest.raises(ValueError):
        cand_gen([Itemset.of(0), Itemset((0, 1))])
    with pytest.raises(ValueError):
        cand_gen([Itemset.of(0), Itemset.of(0)])
    with pytest.raises(ValueError, match="strictly increasing"):
        cand_gen(np.array([[1, 1]]))


@given(data=st.data(), k=st.integers(1, 4), n_items=st.integers(1, 8))
def test_cand_gen_equals_the_tuple_reference(data, k, n_items):
    # the array join and packed-key prune against sets of tuples, on the
    # itemsets in any order, as a list and as an array
    pool = list(itertools.combinations(range(n_items), k))
    frequents = data.draw(st.permutations(
        [Itemset(c) for c in pool if data.draw(st.booleans())]))
    want = reference_cand_gen(frequents)
    assert rows(cand_gen(frequents)) == want
    if frequents:
        level = np.array(frequents, dtype=np.int32)
        assert rows(cand_gen(level)) == want
        assert cand_gen(level).shape == (len(want), k + 1)
    else:
        assert cand_gen(np.empty((0, k), dtype=np.int32)).shape == (0, k + 1)


@given(data=st.data(), k=st.integers(1, 3), n_items=st.integers(1, 7))
def test_cand_gen_is_sound_and_complete(data, k, n_items):
    pool = list(itertools.combinations(range(n_items), k))
    frequents = [Itemset(c) for c in pool if data.draw(st.booleans())]
    if not frequents:
        assert rows(cand_gen(frequents)) == []
        return
    fset = set(frequents)
    got = [Itemset(x) for x in rows(cand_gen(data.draw(st.permutations(frequents))))]
    assert got == sorted(set(got))
    # sound: every output is a (k+1)-set whose k-subsets are all frequent
    for x in got:
        assert len(x) == k + 1
        assert all(sub in fset for sub in x.subsets(k))
    # complete: every such (k+1)-set is an output
    want = [Itemset(c) for c in itertools.combinations(range(n_items), k + 1)
            if all(sub in fset for sub in Itemset(c).subsets(k))]
    assert got == want


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3))
def test_level_bytes_bound_cand_gen_and_fre_exam(seed, k):
    # what mine_levels counts for level k+1 before cand_gen builds it, and
    # what fre_exam counts for the itemsets it keeps
    rng = np.random.default_rng(seed)
    # up to 780 joins, enough for the per-candidate figure to show
    db = random_db(rng, int(rng.integers(1, 3000)), int(rng.integers(k + 1, 40 // k + 1)),
                   density=float(rng.uniform(0.1, 0.9)))
    level_supports(db, [Itemset((0, 1))])  # a first count, outside the traced peak
    kept = random_candidates(rng, db, k)
    groups = Counter(x[:-1] for x in kept).values()
    joins = sum(g * (g - 1) // 2 for g in groups)
    n_frequent = len(fre_exam(db, cand_gen(kept), "1/4")[0])
    peak = traced_peak(lambda: fre_exam(db, cand_gen(kept), "1/4"))
    bound = ((joins + len(kept)) * classical._CANDIDATE_BYTES
             + n_frequent * classical._KEPT_BYTES
             + db.n_transactions * classical._ROW_BYTES
             + bit_matrix_bytes(db, len({j for x in kept for j in x})))
    assert peak <= bound + CALL_BYTES


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3),
       n=st.sampled_from([1, 7, 8000]), budget=st.sampled_from([None, 1000]),
       full=st.booleans())
def test_level_bytes_bound_sampling_estimate(seed, k, n, budget, full):
    # the level bound, plus one draw call: int32 row ids and bincount's
    # intp copy of them
    rng = np.random.default_rng(seed)
    if full:  # every prefix is held by many rows, all of them drawn
        db = random_db(rng, int(rng.integers(10_000, 30_000)), k + 1, density=1.0)
    else:
        db = random_db(rng, int(rng.integers(1, 3000)), int(rng.integers(k + 1, 40 // k + 1)),
                       density=float(rng.uniform(0.1, 0.9)))
    level_supports(db, [Itemset((0, 1))])  # a first count, outside the traced peak
    candidates = random_candidates(rng, db, k)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:  # n = 8000 comes in eight calls
            mp.setattr(classical, "_DRAW_BUDGET", budget)
        peak = traced_peak(lambda: sampling_estimate(db, candidates, n, rng))
        draw_bytes = min(n, classical._DRAW_BUDGET) * (4 + 8)
    bound = (len(candidates) * classical._CANDIDATE_BYTES
             + db.n_transactions * classical._ROW_BYTES)
    assert peak <= bound + draw_bytes + CALL_BYTES


def _large_level_peak_and_bound(path, density):
    """Traced peak and level bound of one 19,900-pair level on a path."""
    rng = np.random.default_rng(19)
    db = random_db(rng, 2000, 200, density=density)
    level_supports(db, [Itemset((0, 1))])  # a first count, outside the traced peak
    kept = [Itemset.of(j) for j in range(db.n_items)]
    n_candidates = len(kept) * (len(kept) - 1) // 2 + len(kept)  # cand_gen's joins and copies
    other = bit_matrix_bytes(db, db.n_items)
    if path == "fre_exam":
        peak = traced_peak(lambda: fre_exam(db, cand_gen(kept), "1/4"))
        other += len(fre_exam(db, cand_gen(kept), "1/4")[0]) * classical._KEPT_BYTES
    elif path == "sampling_estimate":
        peak = traced_peak(lambda: sampling_estimate(db, cand_gen(kept), 8000, rng))
        other = 8000 * (4 + 8)  # one draw call, as in the property above
    else:
        def mine():
            try:
                qarm_mine_k(db, cand_gen(kept), 2, 8, "1/4", rng=rng)
            except NoFrequentCandidatesError:
                pass

        peak = traced_peak(mine)
        # the law at T = 8, and every pair found
        other += ((n_candidates + 2) * mining._LAW_COPIES * 8 * 8
                  + n_candidates * classical._KEPT_BYTES)
    bound = (n_candidates * classical._CANDIDATE_BYTES
             + db.n_transactions * classical._ROW_BYTES + other)
    return peak, bound


@pytest.mark.parametrize("path", ["fre_exam", "sampling_estimate", "qarm_mine_k"])
def test_candidate_bytes_hold_at_a_large_level(path):
    # the properties above join at most 780 pairs, too few for the
    # per-candidate figure to outweigh the per-row and per-call terms; one
    # level of 19,900 pairs resolves it.  No pair reaches 1/4 at density
    # 0.05, but the quantum miner may find any
    peak, bound = _large_level_peak_and_bound(path, 0.05)
    assert peak <= bound + CALL_BYTES


@pytest.mark.parametrize("path", ["fre_exam", "sampling_estimate", "qarm_mine_k"])
def test_kept_bytes_hold_at_a_large_level(path):
    # at density 0.6 nearly every pair reaches 1/4, so nearly every
    # candidate is kept (or found) and costs its objects
    peak, bound = _large_level_peak_and_bound(path, 0.6)
    assert peak <= bound + CALL_BYTES


def test_apriori_holds_no_object_for_an_infrequent_candidate():
    # 400 items in 2,000 rows at density 0.05: every item (about 100 rows)
    # reaches 1/80 (25 rows) and none of the 79,800 pairs (about 5) does
    rng = np.random.default_rng(19)
    db = random_db(rng, 2000, 400, density=0.05)
    level_supports(db, [Itemset((0, 1))])  # a first count, outside the traced peak
    tracemalloc.start()
    try:
        result = apriori(db, "1/80")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [(s.k, s.m_candidates, s.m_frequent) for s in result.stats] == [
        (1, 400, 400), (2, 79_800, 0)]
    assert [c.tolist() for c in result.counts] == [
        level_supports(db, level).tolist()
        for level in (db.item_level(), cand_gen(db.item_level()))]
    # each level's int64 counts and the frequent items' objects
    assert held <= 8 * (400 + 79_800) + 400 * classical._KEPT_BYTES + CALL_BYTES


def test_apriori_builds_one_bit_matrix_per_run(monkeypatch):
    # 3000 rows of 12 items at density 0.6 and 1/8: five levels, 12/12,
    # 66/66, 220/220, 495/241 and 130/0; the matrix is built at level 2
    # and every later level counts on the rows it kept
    db = synth_db(3000, 12, {}, seed=3, background_density=0.6)
    builds = []
    bit_columns = data._bit_columns

    def recording(db, items):
        builds.append(items.tolist())
        return bit_columns(db, items)

    monkeypatch.setattr(data, "_bit_columns", recording)
    result = apriori(db, "1/8")
    assert builds == [list(range(12))]
    assert [(s.k, s.m_candidates, s.m_frequent) for s in result.stats] == [
        (1, 12, 12), (2, 66, 66), (3, 220, 220), (4, 495, 241), (5, 130, 0)]
    monkeypatch.undo()
    level = db.item_level()
    for counts in result.counts:
        assert counts.tolist() == level_supports(db, level).tolist()
        level = cand_gen(level[counts >= 3000 // 8])
    assert len(level) == 0


@settings(max_examples=60)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_mine_levels_joins_each_level_kept(data, seed):
    rng = np.random.default_rng(seed)
    db = random_db(rng, int(rng.integers(1, 9)), int(rng.integers(1, 7)),
                   density=float(rng.uniform(0.0, 1.0)))
    seen, candidates_seen, kept_seen = [], [], []

    def examine(candidates, k):
        seen.append(k)
        assert candidates.dtype == np.int32 and candidates.shape[1] == k
        kept = candidates[[data.draw(st.booleans()) for _ in range(len(candidates))]]
        candidates_seen.append(candidates)
        kept_seen.append(kept)
        # the kept rows, or the same itemsets as a list
        return (kept if data.draw(st.booleans()) else [Itemset(x) for x in rows(kept)],
                (k, len(candidates)))

    run = mine_levels(db, examine)
    levels = len(candidates_seen)
    assert seen == list(range(1, levels + 1))
    assert len(kept_seen) == len(run.results) == len(run.stats) == levels
    present = db.item_level()[:, 0].tolist()
    if present:
        assert rows(candidates_seen[0]) == [Itemset.of(j) for j in present]
    else:
        assert levels == 0
    for i in range(1, levels):
        assert np.array_equal(candidates_seen[i], cand_gen(kept_seen[i - 1]))
    if levels:
        assert len(cand_gen(kept_seen[-1])) == 0
    assert all(len(c) for c in candidates_seen)
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
        for size in range(1, len(x)):
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
    got = sampling_estimate(toy4, [Itemset.of(1), Itemset.of(2)], 200, rng)
    assert got.dtype == np.float64 and got.tolist() == [1.0, 0.0]


def test_sampling_unbiased(toy4):
    rng = np.random.default_rng(512)
    trials, m = 600, 50
    estimates = [sampling_estimate(toy4, [Itemset.of(0)], m, rng)[0]
                 for _ in range(trials)]
    # item 0 has support 1/2; the mean must land within 3 standard errors
    tol = 3 * np.sqrt(0.25 / m) / np.sqrt(trials)
    assert abs(np.mean(estimates) - 0.5) < tol


def test_sampling_charges_and_validation(toy4):
    counter = QueryCounter()
    rng = np.random.default_rng(1)
    sampling_estimate(toy4, [Itemset.of(0)], 30, rng, counter)
    sampling_estimate(toy4, [Itemset((0, 1))], 30, rng, counter)
    assert counter.classical_row_scans == 1 * 30 + 2 * 30
    with pytest.raises(ValueError):
        sampling_estimate(toy4, [Itemset.of(0)], 0)
    with pytest.raises(ValueError, match="same size"):
        sampling_estimate(toy4, [Itemset.of(0), Itemset((0, 1))], 30, rng, counter)


def _reference_sampling(db, candidates, n, rng, counter):
    # one size-n draw shared by every candidate, counted on dense rows
    dense = db.dense()
    draws = rng.integers(0, db.n_transactions, size=n)
    out = []
    for x in candidates:
        contains = dense[:, list(x)].all(axis=1)
        counter.classical_row_scans += len(x) * n
        out.append(int(contains[draws].sum()) / n)
    return out


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3),
       n=st.sampled_from([1, 7, 8000]),
       rows_per_call=st.sampled_from([0.3, 1, 2, 3, None]))
def test_sampling_matches_per_candidate_reference(seed, k, n, rows_per_call):
    rng = np.random.default_rng(seed)
    db = random_db(rng, int(rng.integers(1, 24)), int(rng.integers(k, 7)),
                   density=float(rng.uniform(0.2, 0.9)))
    # one call per size up to k, each on its own sample from one stream
    levels = [random_candidates(rng, db, size) for size in range(1, k + 1)]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got_counter, want_counter = QueryCounter(), QueryCounter()

    def no_bitsets(*_args):
        raise AssertionError("sampling built a column bitset")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TransactionDB, "column_bitset", no_bitsets)
        if rows_per_call is not None:  # under 1, the sample comes in slices
            mp.setattr(classical, "_DRAW_BUDGET", max(1, int(rows_per_call * n)))
        got = [sampling_estimate(db, level, n, got_rng, got_counter).tolist()
               for level in levels]
    assert got == [_reference_sampling(db, level, n, want_rng, want_counter)
                   for level in levels]
    assert got_counter == want_counter
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_count_past_int64_is_refused_before_any_draw(dtoy):
    # 2**63 draws would take about 2**41 calls of _DRAW_BUDGET rows each
    calls = []

    class Recording(np.random.Generator):
        def integers(self, *args, **kwargs):
            calls.append(args)
            raise AssertionError("a row was drawn")

    check_n_samples(2 ** 63 - 1)
    for run in (lambda rng: sampling_estimate(dtoy, [Itemset.of(0)], 2 ** 63, rng),
                lambda rng: sampling_apriori(dtoy, "1/4", 2 ** 63, rng, None)):
        with pytest.raises(ValueError, match=f"^n_samples {2 ** 63} does not fit int64$"):
            run(Recording(np.random.PCG64(0)))
    assert calls == []


def test_sampling_reads_only_drawn_rows(monkeypatch):
    # a sampled count costs the drawn rows, not N: it never builds the bit
    # matrix of its items over all N rows
    rng = np.random.default_rng(3)
    db = random_db(rng, 200, 6, density=0.5)
    asked = []
    bit_columns = data._bit_columns

    def recording(db, items):
        asked.append(items.tolist())
        return bit_columns(db, items)

    monkeypatch.setattr(data, "_bit_columns", recording)
    levels = [[Itemset.of(j) for j in range(6)],
              [Itemset((0, 1)), Itemset((0, 4)), Itemset((1, 5))],
              [Itemset((0, 1, 3)), Itemset((2, 3, 5))]]
    for level in levels:
        sampling_estimate(db, level, 500, rng)
    assert asked == []
    level_supports(db, levels[1])  # an exact count builds it, and is seen
    assert asked == [[0, 1, 4, 5]]


def test_sampling_memory_does_not_follow_item_ids():
    # nothing the sampled count allocates is sized by the largest item id
    db = TransactionDB.from_rows([[1, 2], [10 ** 6]])
    singles = [Itemset.of(j) for j in db.item_level()[:, 0].tolist()]
    for candidates in (singles, [Itemset((1, 2))]):
        sampling_estimate(db, candidates, 8000, 0)  # a first count, outside the traced peak
        peak = traced_peak(lambda: sampling_estimate(db, candidates, 8000, 0))
        bound = (len(candidates) * classical._CANDIDATE_BYTES
                 + db.n_transactions * classical._ROW_BYTES)
        assert peak <= bound + 8000 * (4 + 8) + CALL_BYTES


@pytest.mark.parametrize("n_rows", [1, 2, 7, 88_162, 2 ** 31 - 1])
@pytest.mark.parametrize("n", [1, 7, 8000])
def test_batched_int32_draws_equal_per_candidate_draws(n_rows, n):
    # sampling_estimate relies on this: int32 calls of sizes a and then b
    # yield the draws of one call of size a + b, and leave the same state,
    # odd a included
    split, whole = np.random.default_rng(n_rows), np.random.default_rng(n_rows)
    parts = [split.integers(0, n_rows, size=size, dtype=np.int32) for size in (n, 5)]
    block = whole.integers(0, n_rows, size=n + 5, dtype=np.int32)
    assert np.array_equal(np.concatenate(parts), block)
    assert split.bit_generator.state == whole.bit_generator.state


def test_failed_draw_is_raised_and_leaves_no_thread(toy4, monkeypatch):
    monkeypatch.setattr(classical, "_DRAW_BUDGET", 5)  # 8 draws in two calls
    rng = SecondDrawFails(0)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="second chunk"):
        sampling_estimate(toy4, [Itemset.of(j) for j in range(3)], 8, rng)
    assert threading.active_count() == threads
    assert rng.draw_calls == 2  # no draw was started past the failed one


def test_sampling_apriori_checks_samples_before_any_level():
    empty = TransactionDB.from_rows([[], []], n_items=2)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        sampling_apriori(empty, "1/2", 0, 0, None)


def test_sampling_rejects_items_out_of_range(toy4):
    with pytest.raises(ValueError, match="item 3 out of range"):
        sampling_estimate(toy4, [Itemset((0, 1)), Itemset((1, 3))], 5)


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
    assert all(not set(r.antecedent) & set(r.consequent)
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
