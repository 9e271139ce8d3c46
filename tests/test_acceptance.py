"""Acceptance gate: one test per release criterion, each emitting a
single PASS/FAIL/SKIPPED line (collected into the run summary).

Criterion 7 draws its random ensemble from support families whose values
sit at least two estimation grid steps from the threshold AND whose
analytic below-threshold tail mass inside the good region is at most
LEAK_CAP per candidate; both preconditions are asserted per database
before mining.  Off-grid supports closer to the threshold leak kernel
tail mass into the good region on every shot, so the patience loop
would manufacture false positives at rates far above 5% (see the
repository notes for the measured rates); such instances fall outside
the criterion's stated precondition.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qarm import (
    Itemset,
    QueryCounter,
    Statevector,
    TransactionDB,
    amplitude_amplify,
    analytic_phase_distribution,
    apriori,
    cand_gen,
    exact_support,
    fre_exam,
    gamma_metric,
    good_set,
    grid_steps_between,
    parse_fimi,
    qarm_mine_k,
    sampling_estimate,
    synth_db,
)
from qarm.classical import REFERENCE_APRIORI_RUNS, REFERENCE_GAMMA
from qarm.mining import AMPLIFY_MODES
from qarm.oracle import (
    CAND,
    EST,
    TXN,
    apply_phase_oracle_k,
    build_layout,
    item_register,
    prepare_minus,
)
from qarm.qpe import decode_support, parallel_amplitude_estimation
from qarm.qsim import inject_state, joint_probs, register_marginal, sample_counts

from conftest import find_dataset, random_db

RESULTS: dict[int, str] = {}


def _record(n, name, status, detail=""):
    line = f"ACCEPTANCE {n} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    RESULTS[n] = line
    print(line)
    return line


def report(n, name, ok, detail=""):
    line = _record(n, name, "PASS" if ok else "FAIL", detail)
    assert ok, line


def report_skip(n, name, detail):
    _record(n, name, "SKIPPED", detail)
    pytest.skip(detail)


def test_acceptance_1_gamma_reproduction():
    worst = 0.0
    for key, expect in REFERENCE_GAMMA.items():
        got = gamma_metric(REFERENCE_APRIORI_RUNS[key], weighted=False)
        worst = max(worst, abs(got - expect))
    report(1, "gamma reproduction", worst <= 0.01,
           f"max |gamma - reference| = {worst:.4f}")


def test_acceptance_2_appendix_tables():
    paths = {name: find_dataset(name) for name in ("retail", "kosarak")}
    if all(p is None for p in paths.values()):
        report_skip(2, "appendix tables", "retail.dat and kosarak.dat not present")
    checked, failures = [], []
    for name, path in paths.items():
        if path is None:
            checked.append(f"{name}: absent")
            continue
        with open(path, "r", encoding="ascii") as fh:
            db = parse_fimi(fh.read())
        for label in ("1%", "2%"):
            result = apriori(db, label)
            got = tuple((st.k, st.m_candidates, st.m_frequent)
                        for st in result.stats)
            want = tuple((st.k, st.m_candidates, st.m_frequent)
                         for st in REFERENCE_APRIORI_RUNS[(name, label)])
            if got != want:
                failures.append(f"{name}@{label}: {list(got)}")
            checked.append(f"{name}@{label}")
    report(2, "appendix tables", not failures,
           "; ".join(failures or checked))


def test_acceptance_3_oracle_equivalence():
    # a full-support random state distinguishes any two signed
    # permutations componentwise, so one application per (db, k)
    # certifies agreement on every basis state
    rng = np.random.default_rng(31415)
    worst = 0.0
    runs = 0
    for _ in range(100):
        db = random_db(rng, n=int(rng.integers(2, 17)),
                       m=int(rng.integers(2, 9)), density=0.45)
        for k in (1, 2, 3):
            layout = build_layout(db, k, ancillas=True)
            front = [TXN] + [item_register(l) for l in range(k)]
            dim = int(np.prod([layout.dim(nm) for nm in front]))
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            circuit = Statevector.zero(layout)
            inject_state(circuit, front, vec)
            prepare_minus(circuit)
            diagonal = circuit.copy()
            apply_phase_oracle_k(circuit, db, mode="circuit")
            apply_phase_oracle_k(diagonal, db, mode="diagonal")
            worst = max(worst, float(np.max(np.abs(circuit.amps - diagonal.amps))))
            for l in range(k):
                axis = layout.axis(f"anc{l}")
                post = int(np.prod(layout.dims[axis + 1:], dtype=np.int64))
                block = circuit.amps.reshape(-1, 2, post)[:, 1, :]
                assert not np.any(block)  # ancilla restored exactly
            runs += 1
    report(3, "oracle equivalence", worst < 1e-12,
           f"{runs} random instances, max deviation {worst:.2e}")


def test_acceptance_4_distribution_equality():
    # column counts 3, 5, 10, 0 of 10 give supports 0.3, 0.5, 1, 0
    rows = [[0, 1, 2] if i < 3 else ([1, 2] if i < 5 else [2])
            for i in range(10)]
    db = TransactionDB.from_rows(rows, n_items=4)
    supports = {0: 0.3, 1: 0.5, 2: 1.0, 3: 0.0}
    worst = 0.0
    for item, s in supports.items():
        for big_t in (8, 16, 32):
            psi = parallel_amplitude_estimation(db, [Itemset.of(item)], 1, big_t)
            marg = register_marginal(psi, "est")
            expect = analytic_phase_distribution(s, big_t)
            tv = 0.5 * float(np.sum(np.abs(marg - expect)))
            worst = max(worst, tv)
    report(4, "distribution equality", worst <= 1e-9,
           f"max total variation {worst:.2e} over s in {{0, 0.3, 0.5, 1}}, "
           f"T in {{8, 16, 32}}")


def test_acceptance_5_estimation_error_bound():
    big_t = 64
    rng = np.random.default_rng(4242)
    counts = rng.choice(np.arange(1, 64), size=8, replace=False)
    worst = 1.0
    for c in counts:
        db = TransactionDB.from_rows(
            [[0] if i < c else [] for i in range(64)], n_items=1)
        s = c / 64
        eps = 2 * math.pi * math.sqrt(s * (1 - s)) / big_t + math.pi ** 2 / big_t ** 2
        psi = parallel_amplitude_estimation(db, [Itemset.of(0)], 1, big_t)
        hist = sample_counts(psi, ["est"], 1000, rng)
        hits = sum(int(n) for y, n in enumerate(hist)
                   if abs(decode_support(y, big_t).value - s) <= eps)
        worst = min(worst, hits / 1000)
    report(5, "estimation error bound", worst >= 0.75,
           f"worst in-bound fraction {worst:.3f} over 8 random supports, "
           f"1000 shots each")


def test_acceptance_6_query_counter_exactness():
    dtoy = TransactionDB.from_rows([[0, 1, 2], [0, 1], [0], []], n_items=3)
    cases = [(1, [Itemset.of(0)]), (2, [Itemset((0, 1))]),
             (3, [Itemset((0, 1, 2))])]
    exact = True
    for k, cands in cases:
        for big_t in (8, 16, 32):
            counter = QueryCounter()
            parallel_amplitude_estimation(dtoy, cands, k, big_t, counter)
            exact &= counter.basic_oracle_calls == 2 * k * (big_t - 1)
            exact &= counter.phase_oracle_k_calls == big_t - 1

    # full-run law: basic calls = 2k(T-1) * (preparations + 2 iterations);
    # the mining loop also asserts this internally on every run
    toy4 = TransactionDB.from_rows([[0, 1], [0, 1], [1], [1]], n_items=3)
    for mode in AMPLIFY_MODES:
        counter = QueryCounter()
        qarm_mine_k(toy4, [Itemset.of(0), Itemset.of(1)], 1, 16, 0.5,
                    mode=mode, rng=np.random.default_rng(1), counter=counter)
        per_pipeline = 2 * 1 * 15
        exact &= counter.basic_oracle_calls == per_pipeline * (
            counter.state_preparations + 2 * counter.amplification_iterations)
    report(6, "query-counter exactness", exact,
           "2k(T-1) after estimation; mining law over all amplification modes")


# --- criterion 7: the seeded end-to-end ensemble ------------------------

BIG_T = 32
LEAK_CAP = 0.002  # analytic below-threshold tail mass allowed per candidate

# per threshold: support values that occur in the random databases; all
# are on or near the T = 32 grid, at least 2 grid steps from threshold
K1_FAMILIES = [
    (0.5, [Fraction(0), Fraction(12, 16), Fraction(13, 16),
           Fraction(14, 16), Fraction(15, 16), Fraction(1)]),
    (0.75, [Fraction(0), Fraction(1, 2), Fraction(15, 16), Fraction(1)]),
    (0.3, [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)]),
]

# row patterns for the pair-level runs: every pair of distinct non-full
# patterns meets in 0 rows, everything else in 8 or 16 of 16
K2_PATTERNS = {"full": range(16), "lo": range(8), "hi": range(8, 16)}


def _leak_ok(s, thr):
    if s >= thr:
        return True
    d = analytic_phase_distribution(float(s), BIG_T)
    return float(d[good_set(BIG_T, thr)].sum()) <= LEAK_CAP


def _frequents(db, cands, thr):
    return {x for x, _ in fre_exam(db, cands, thr)}


def _assert_clear_instance(db, cands, thr):
    for c in cands:
        s = exact_support(db, c).value
        assert grid_steps_between(float(s), thr, BIG_T) >= 2.0, (s, thr)
        assert _leak_ok(s, Fraction(str(thr)))


def _k1_run(seed) -> bool:
    rng = np.random.default_rng(seed)
    thr, vals = K1_FAMILIES[int(rng.integers(len(K1_FAMILIES)))]
    while True:
        m = int(rng.integers(3, 7))
        sup = [vals[int(rng.integers(len(vals)))] for _ in range(m)]
        mf = sum(1 for s in sup if s >= Fraction(str(thr)))
        if 1 <= mf <= 5 and sum(1 for s in sup if s > 0) >= 2:
            break
    db = synth_db(16, m, {(j,): s for j, s in enumerate(sup)},
                  int(rng.integers(2 ** 31)))
    cands = [Itemset.of(j) for j in db.present_items()]
    _assert_clear_instance(db, cands, thr)
    res = qarm_mine_k(db, cands, 1, BIG_T, thr, "ideal-projection", rng,
                      patience=25)
    return {mi.itemset for mi in res.found} == _frequents(db, cands, thr)


def _k2_run(seed) -> bool:
    rng = np.random.default_rng(seed)
    thr = 0.3
    while True:
        m = int(rng.integers(3, 5))
        kinds = [("full", "lo", "hi")[int(rng.integers(3))] for _ in range(m)]
        if "lo" in kinds and "hi" in kinds:
            mf2 = m * (m - 1) // 2 - kinds.count("lo") * kinds.count("hi")
            if 1 <= mf2 <= 5:
                break
    perm = rng.permutation(16)
    rows = [[] for _ in range(16)]
    for j, kind in enumerate(kinds):
        for r in K2_PATTERNS[kind]:
            rows[int(perm[r])].append(j)
    db = TransactionDB.from_rows(rows, m)
    singles = [Itemset.of(j) for j in db.present_items()]
    cands = cand_gen(sorted(_frequents(db, singles, thr)))
    assert any(exact_support(db, c).value < Fraction(3, 10) for c in cands)
    _assert_clear_instance(db, cands, thr)
    res = qarm_mine_k(db, cands, 2, BIG_T, thr, "ideal-projection", rng,
                      patience=25)
    return {mi.itemset for mi in res.found} == _frequents(db, cands, thr)


def test_acceptance_7_end_to_end_equivalence():
    master = np.random.default_rng(1234)
    ok = sum(_k1_run(int(master.integers(2 ** 63))) for _ in range(50))
    ok += sum(_k2_run(int(master.integers(2 ** 63))) for _ in range(50))
    report(7, "end-to-end equivalence", ok >= 95,
           f"{ok}/100 seeded runs equal the exact miner (need >= 95)")


def test_acceptance_8_amplification_scaling():
    # candidate families: 16 items, M_f of them in every row and the rest
    # in none, so the pre-amplification good weight is exactly M_f/16
    def mean_iterations(m_f, rng, shots=50):
        db = TransactionDB.from_rows([sorted(range(m_f))] * 4, n_items=16)
        cands = [Itemset.of(j) for j in range(16)]
        psi = parallel_amplitude_estimation(db, cands, 1, BIG_T)
        law = joint_probs(psi, [EST, CAND])
        total = 0
        for _ in range(shots):
            counter = QueryCounter()
            amplitude_amplify(law, 0.5, "bbht", rng, counter, k=1)
            total += counter.amplification_iterations
        return total / shots

    rng = np.random.default_rng(42)
    means = {ratio: mean_iterations(16 // ratio, rng) for ratio in (1, 4, 16)}
    # fit one constant C to the ratios that need amplification at all,
    # then require every mean within a factor 2 of C * sqrt(ratio); at
    # ratio 1 amplification is a no-op, so only the upper bound binds
    c4, c16 = means[4] / 2.0, means[16] / 4.0
    c_fit = math.sqrt(c4 * c16)
    worst = max(c4 / c_fit, c_fit / c4, c16 / c_fit, c_fit / c16)
    ok = (worst <= 2.0 and means[1] <= 2.0 * c_fit
          and means[1] <= means[4] <= means[16])
    report(8, "amplification scaling", ok,
           f"mean iterations {means[1]:.2f}/{means[4]:.2f}/{means[16]:.2f} "
           f"at ratios 1/4/16, sqrt-fit factor {worst:.2f} (bound 2)")


def test_acceptance_9_sampling_baseline():
    db = TransactionDB.from_rows([[0], []], n_items=1)  # support 1/2
    m, trials = 10_000, 250
    rng = np.random.default_rng(9)
    estimates = np.array([
        dict(sampling_estimate(db, [Itemset.of(0)], m, rng))[Itemset.of(0)]
        for _ in range(trials)
    ])
    target_std = math.sqrt(0.25 / m)
    std = float(np.std(estimates, ddof=1))
    mean_tol = 3 * target_std / math.sqrt(trials)
    ok = (0.5 * target_std <= std <= 1.5 * target_std
          and abs(float(estimates.mean()) - 0.5) <= mean_tol)
    report(9, "sampling baseline", ok,
           f"std {std:.5f} vs sqrt(s(1-s)/m) = {target_std:.5f}, "
           f"mean offset {abs(float(estimates.mean()) - 0.5):.2e} over {trials} trials")
