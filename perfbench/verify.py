"""Independent answers for every op's report.

Nothing here calls qarm: supports are counted over the rows of the FIMI
file through per-item row-id sets, and candidates come from this file's
own join-and-prune.  Each check returns a list of failure messages.
"""
from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction


def parse_threshold(text: str) -> Fraction:
    text = text.strip()
    return Fraction(text[:-1]) / 100 if text.endswith("%") else Fraction(text)


def argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


class Truth:
    """Exact supports of one database, from its rows."""

    def __init__(self, rows: list[list[int]]):
        self.n_rows = len(rows)
        tids: dict[int, set[int]] = defaultdict(set)
        for r, row in enumerate(rows):
            for item in row:
                tids[item].add(r)
        self.tids = dict(tids)

    def count(self, itemset: tuple[int, ...]) -> int:
        sets = sorted((self.tids.get(i, set()) for i in itemset), key=len)
        return len(sets[0].intersection(*sets[1:]))

    def present(self) -> set[tuple[int, ...]]:
        return {(i,) for i in self.tids}

    def levels(self, thr: Fraction) -> list[tuple[int, dict[tuple[int, ...], int]]]:
        """Level-wise exact mining: (M_c, {frequent itemset: count}) per level,
        continuing while the join-and-prune yields candidates."""
        out = []
        candidates = self.present()
        while candidates:
            frequent = {}
            for x in candidates:
                c = self.count(x)
                if c * thr.denominator >= thr.numerator * self.n_rows:
                    frequent[x] = c
            out.append((len(candidates), frequent))
            candidates = join_prune(set(frequent))
        return out


def join_prune(frequent: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """All (k+1)-itemsets every k-subset of which is in `frequent`."""
    if not frequent:
        return set()
    k = len(next(iter(frequent)))
    items = sorted({i for x in frequent for i in x})
    out = set()
    for x in frequent:
        for i in items:
            if i <= x[-1]:
                continue
            cand = x + (i,)
            if all(cand[:j] + cand[j + 1:] in frequent for j in range(k + 1)):
                out.add(cand)
    return out


def _expected_levels(truth: Truth, reported: dict[int, set]) -> list[tuple[int, int, int]]:
    """(k, M_c, M_f) a level-wise miner must report, given what it reported
    at each level: level k+1 candidates join-and-prune level k's itemsets."""
    out = []
    candidates = truth.present()
    k = 1
    while candidates:
        found = reported.get(k, set())
        out.append((k, len(candidates), len(found)))
        candidates = join_prune(found)
        k += 1
    return out


def _report_levels(report: dict) -> list[tuple[int, int, int]]:
    return [(r["k"], r["m_candidates"], r["m_frequent"]) for r in report["iterations"]]


def _by_level(itemsets) -> dict[int, set]:
    out: dict[int, set] = defaultdict(set)
    for x in itemsets:
        out[len(x)].add(x)
    return out


def check_quantum(report: dict, truth: Truth, argv: list[str]) -> list[str]:
    fails = []
    thr = parse_threshold(argv_value(argv, "--min-supp"))
    big_t = int(argv_value(argv, "-T"))
    mode = argv_value(argv, "--mode")
    want = {x: c for _, freq in truth.levels(thr) for x, c in freq.items()}
    got = {tuple(e["items"]): e for e in report["itemsets"]}
    if set(got) != set(want):
        fails.append(f"reported {sorted(got)} but the frequent set is {sorted(want)}")
    for x, entry in got.items():
        exact = truth.count(x) / truth.n_rows
        if abs(entry["estimate"] - exact) > 1e-12:
            fails.append(f"{x}: estimate {entry['estimate']!r} vs exact support {exact!r}")
    levels = _report_levels(report)
    expect = _expected_levels(truth, _by_level(got))
    if levels != expect:
        fails.append(f"levels {levels} vs join-and-prune {expect}")

    c = report["counters"]["quantum"]
    preps, amp = c["state_preparations"], c["amplification_iterations"]
    if c["grover_applications"] != (big_t - 1) * (preps + 2 * amp):
        fails.append(f"grover_applications {c['grover_applications']} breaks the ledger law")
    if c["phase_oracle_k_calls"] != c["grover_applications"]:
        fails.append("phase_oracle_k_calls != grover_applications")
    if mode == "bbht":
        basic = 2 * (big_t - 1) * (preps + 2 * amp)
    else:
        basic = sum(2 * r["k"] * (big_t - 1) * r["shots_used"] for r in report["iterations"])
    if c["basic_oracle_calls"] != basic:
        fails.append(f"basic_oracle_calls {c['basic_oracle_calls']} vs {basic}")
    return fails


def check_apriori(report: dict, truth: Truth, argv: list[str]) -> list[str]:
    fails = []
    thr = parse_threshold(argv_value(argv, "--min-supp"))
    exact = truth.levels(thr)
    want = {x: Fraction(c, truth.n_rows) for _, freq in exact for x, c in freq.items()}
    got = {tuple(e["items"]): Fraction(e["support"]) for e in report["itemsets"]}
    if got != want:
        wrong = sorted(x for x in set(got) | set(want) if got.get(x) != want.get(x))
        fails.append(f"{len(wrong)} itemsets differ from the exact count, first {wrong[:3]}")
    expect = [(k, mc, len(freq)) for k, (mc, freq) in enumerate(exact, start=1)]
    if _report_levels(report) != expect:
        fails.append(f"levels {_report_levels(report)} vs exact {expect}")
    scans = truth.n_rows * sum(k * mc for k, mc, _ in expect)
    got_scans = report["counters"]["classical"]["classical_row_scans"]
    if got_scans != scans:
        fails.append(f"classical_row_scans {got_scans} vs N*sum(k*M_c) = {scans}")
    return fails


def check_sampling(report: dict, truth: Truth, argv: list[str]) -> list[str]:
    fails = []
    thr = parse_threshold(argv_value(argv, "--min-supp"))
    n = int(argv_value(argv, "--samples"))
    got = {tuple(e["items"]): e["estimate"] for e in report["itemsets"]}
    for x, est in got.items():
        s = truth.count(x) / truth.n_rows
        if abs(est - s) > 6 * math.sqrt(s * (1 - s) / n) + 1 / n:
            fails.append(f"{x}: estimate {est} too far from exact support {s}")
    sure = float(thr) + 6 * math.sqrt(float(thr) * (1 - float(thr)) / n)
    missed = sorted(x for _, freq in truth.levels(thr) for x, c in freq.items()
                    if c / truth.n_rows >= sure and x not in got)
    if missed:
        fails.append(f"{len(missed)} itemsets with support >= {sure:.4f} not reported, "
                     f"first {missed[:3]}")
    expect = _expected_levels(truth, _by_level(got))
    if _report_levels(report) != expect:
        fails.append(f"levels {_report_levels(report)} vs join-and-prune {expect}")
    scans = n * sum(k * mc for k, mc, _ in expect)
    got_scans = report["counters"]["sampling"]["classical_row_scans"]
    if got_scans != scans:
        fails.append(f"classical_row_scans {got_scans} vs n*sum(k*M_c) = {scans}")
    return fails


CHECKS = {
    "mine-quantum": check_quantum,
    "mine-classical": check_apriori,
    "mine-sampling": check_sampling,
}


def check_report(report: dict, truth: Truth, argv: list[str]) -> list[str]:
    return CHECKS[argv[0]](report, truth, argv)
