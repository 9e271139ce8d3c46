"""Command-line experiments: one run per process invocation.

Subcommands mine a dataset classically (exact Apriori), by row sampling,
or on the simulated quantum pipeline; `compare` runs all three on the
same data and `reproduce-appendix` checks the reference FIMI runs.
JSON reports are byte-stable for a fixed seed and config (wall-clock
time appears only in the human text rendering).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .classical import (
    IterationStats,
    REFERENCE_APRIORI_RUNS,
    REFERENCE_GAMMA,
    apriori,
    check_n_samples,
    gamma_metric,
    generate_rules,
    sampling_apriori,
)
from .data import (
    FimiParseError,
    TransactionDB,
    parse_fimi,
    support_threshold,
    synth_db,
)
from .mining import AMPLIFY_MODES, MiningResult, check_mining_args, qarm_full
from .oracle import QueryCounter
from .qpe import grid_steps_between

SCHEMA_VERSION = 1

_DATASET_FILES = {
    "retail": ("retail.dat", "QARM_RETAIL"),
    "kosarak": ("kosarak.dat", "QARM_KOSARAK"),
}


@dataclass
class Report:
    """Everything a run wants to say, renderable as JSON, text, or CSV."""

    command: str
    config: dict
    iterations: list[dict] = field(default_factory=list)
    itemsets: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    gamma: dict | None = None
    rules: list[dict] | None = None
    agreement: dict | None = None
    checks: list[dict] | None = None
    status: str = "ok"

    def payload(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "iterations": self.iterations,
            "itemsets": self.itemsets,
            "counters": self.counters,
            "status": self.status,
        }
        for name in ("gamma", "rules", "agreement", "checks"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def iterations_csv(self) -> str:
        lines = ["k,m_candidates,m_frequent"]
        for row in self.iterations:
            lines.append(f"{row['k']},{row['m_candidates']},{row['m_frequent']}")
        return "\n".join(lines) + "\n"

    def to_text(self, elapsed: float | None = None) -> str:
        lines = [f"{self.command}  [{self.status}]"]
        for key, value in sorted(self.config.items()):
            lines.append(f"  {key} = {value}")
        if self.iterations:
            lines.append("  k  candidates  frequent" +
                         ("     shots" if "shots_used" in self.iterations[0] else ""))
            for row in self.iterations:
                base = f"  {row['k']:<2} {row['m_candidates']:>10} {row['m_frequent']:>9}"
                if "shots_used" in row:
                    base += f" {row['shots_used']:>9}"
                lines.append(base)
        if self.itemsets:
            lines.append(f"  {len(self.itemsets)} frequent itemsets:")
            for entry in self.itemsets:
                tag = "{" + ",".join(map(str, entry["items"])) + "}"
                if "support" in entry:
                    lines.append(f"    {tag}  support={entry['support']}")
                else:
                    extra = " (boundary)" if entry.get("boundary_uncertain") else ""
                    lines.append(
                        f"    {tag}  estimate={entry['estimate']:.6f} "
                        f"(y={entry['y']}/{entry['T']}){extra}"
                    )
        if self.gamma:
            parts = ", ".join(f"{k}={v:.4f}" for k, v in sorted(self.gamma.items())
                              if v is not None)
            lines.append(f"  gamma: {parts}")
        if self.rules is not None:
            lines.append(f"  {len(self.rules)} rules:")
            for rule in self.rules:
                lines.append(
                    f"    {rule['antecedent']} => {rule['consequent']} "
                    f"(supp={rule['support']}, conf={rule['confidence']})"
                )
        if self.agreement is not None:
            for key, value in sorted(self.agreement.items()):
                lines.append(f"  {key}: {value}")
        if self.checks is not None:
            for chk in self.checks:
                detail = f" ({chk['detail']})" if chk.get("detail") else ""
                lines.append(f"  {chk['name']}: {chk['status']}{detail}")
        if self.counters:
            lines.append("  counters:")
            for scope, counts in sorted(self.counters.items()):
                body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v)
                lines.append(f"    {scope}: {body or '(none)'}")
        if elapsed is not None:
            lines.append(f"  elapsed: {elapsed:.3f}s")
        return "\n".join(lines) + "\n"


def _read_fimi(path: str) -> TransactionDB:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # a whole-file read decodes the file's bytes in one call
        raw = exc.object
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FimiParseError(
            f"line {line}: non-ASCII byte 0x{raw[exc.start]:02x}") from None
    return parse_fimi(text)


def _load_db(args) -> tuple[TransactionDB, dict]:
    if args.dataset is not None:
        db = _read_fimi(args.dataset)
        source = {"dataset": args.dataset}
    elif args.synthetic is not None:
        n, m = args.synthetic
        if not 0.0 <= args.density <= 1.0:
            raise ValueError(f"--density must be in [0, 1], got {args.density}")
        db = synth_db(n, m, {}, seed=args.seed, background_density=args.density)
        source = {"synthetic": {"n": n, "m": m, "density": args.density}}
    else:
        raise ValueError("provide --dataset PATH or --synthetic N M")
    return db, source


def _stats_rows(stats: list[IterationStats], shots: list[int] | None = None) -> list[dict]:
    rows = []
    for i, st in enumerate(stats):
        row = {"k": st.k, "m_candidates": st.m_candidates, "m_frequent": st.m_frequent}
        if shots is not None:
            row["shots_used"] = shots[i]
        rows.append(row)
    return rows


def _gamma_dict(stats: list[IterationStats]) -> dict | None:
    if not stats or all(st.m_frequent == 0 for st in stats):
        return None
    return {
        "unweighted": gamma_metric(stats, weighted=False),
        "weighted": gamma_metric(stats, weighted=True),
    }


def _quantum_itemsets(results: list[MiningResult]) -> list[dict]:
    out = []
    for level, res in enumerate(results, start=1):
        for mi in res.found:
            out.append({
                "items": list(mi.itemset.items),
                "k": level,
                "estimate": mi.estimate.value,
                "y": mi.estimate.y,
                "T": mi.estimate.big_t,
                "epsilon_scale": mi.estimate.epsilon_scale,
                "boundary_uncertain": mi.boundary_uncertain,
            })
    return out


def cmd_mine_classical(args) -> tuple[Report, int]:
    db, source = _load_db(args)
    thr = support_threshold(args.min_supp)
    counter = QueryCounter()
    result = apriori(db, thr, counter)
    config = dict(source, min_supp=str(thr), seed=args.seed)
    report = Report(
        command="mine-classical",
        config=config,
        iterations=_stats_rows(result.stats),
        itemsets=[
            {
                "items": list(x.items),
                "support": f"{sup.numerator}/{sup.denominator}",
                "support_float": float(sup),
            }
            for x, sup in sorted(result.frequents.items())
        ],
        counters={"classical": counter.as_dict()},
        gamma=_gamma_dict(result.stats),
    )
    if args.min_conf is not None:
        conf = support_threshold(args.min_conf)
        config["min_conf"] = str(conf)
        report.rules = [
            {
                "antecedent": list(rule.antecedent.items),
                "consequent": list(rule.consequent.items),
                "support": str(rule.support),
                "confidence": str(rule.confidence),
            }
            for rule in generate_rules(result.frequents, conf)
        ]
    return report, 0


def _check_samples(n_samples: int) -> None:
    check_n_samples(n_samples)
    if n_samples > np.iinfo(np.int64).max:
        raise ValueError(f"--samples {n_samples} does not fit int64")


def cmd_mine_sampling(args) -> tuple[Report, int]:
    db, source = _load_db(args)
    thr = support_threshold(args.min_supp)
    n_samples = args.samples
    if args.epsilon is not None:
        if not 0 < args.epsilon < math.inf:
            raise ValueError(f"--epsilon must be finite and > 0, got {args.epsilon}")
        square = args.epsilon ** 2
        if square == 0.0 or 1.0 / square >= 2.0 ** 63:
            raise ValueError(f"--epsilon {args.epsilon} is too small: "
                             "1/eps^2 row draws do not fit int64")
        n_samples = max(1, math.ceil(1.0 / square))
    _check_samples(n_samples)
    counter = QueryCounter()
    rng = np.random.default_rng(args.seed)
    kept, stats = sampling_apriori(db, thr, n_samples, rng, counter)
    report = Report(
        command="mine-sampling",
        config=dict(source, min_supp=str(thr), seed=args.seed,
                    n_samples=n_samples),
        iterations=_stats_rows(stats),
        itemsets=[
            {"items": list(x.items), "estimate": est}
            for x, est in sorted(kept)
        ],
        counters={"sampling": counter.as_dict()},
    )
    return report, 0


def cmd_mine_quantum(args) -> tuple[Report, int]:
    db, source = _load_db(args)
    thr = support_threshold(args.min_supp)
    counter = QueryCounter()
    rng = np.random.default_rng(args.seed)
    results, stats = qarm_full(db, thr, args.grid, args.mode, rng,
                               patience=args.patience, counter=counter)
    report = Report(
        command="mine-quantum",
        config=dict(source, min_supp=str(thr), seed=args.seed, T=args.grid,
                    mode=args.mode, patience=args.patience),
        iterations=_stats_rows(stats, [res.shots_used for res in results]),
        itemsets=_quantum_itemsets(results),
        counters={"quantum": counter.as_dict()},
    )
    return report, 0


def cmd_compare(args) -> tuple[Report, int]:
    # Apriori runs first, so refuse what the other two miners would refuse
    _check_samples(args.samples)
    check_mining_args(args.grid, args.patience)
    db, source = _load_db(args)
    thr = support_threshold(args.min_supp)
    rng = np.random.default_rng(args.seed)

    classical_counter = QueryCounter()
    classical = apriori(db, thr, classical_counter)

    sampling_counter = QueryCounter()
    # run for its ledger; its draws also advance the rng the quantum miner shares
    sampling_apriori(db, thr, args.samples, rng, sampling_counter)

    quantum_counter = QueryCounter()
    results, _ = qarm_full(db, thr, args.grid, args.mode, rng,
                           patience=args.patience, counter=quantum_counter)

    quantum_found = {mi.itemset for res in results for mi in res.found}
    classical_found = set(classical.frequents)
    min_steps = min((grid_steps_between(sup.value, thr, args.grid)
                     for sup in classical.supports.values()), default=math.inf)
    clear = bool(min_steps >= 2.0) if min_steps is not math.inf else True
    agree = quantum_found == classical_found
    agreement = {
        "quantum_equals_classical": agree,
        "all_supports_two_grid_steps_clear": clear,
        "min_grid_steps_to_threshold": None if min_steps is math.inf else min_steps,
        "pass": bool(agree or not clear),
    }
    report = Report(
        command="compare",
        config=dict(source, min_supp=str(thr), seed=args.seed, T=args.grid,
                    mode=args.mode, patience=args.patience,
                    n_samples=args.samples),
        iterations=_stats_rows(classical.stats),
        itemsets=_quantum_itemsets(results),
        counters={
            "classical": classical_counter.as_dict(),
            "sampling": sampling_counter.as_dict(),
            "quantum": quantum_counter.as_dict(),
        },
        gamma=_gamma_dict(classical.stats),
        agreement=agreement,
        status="ok" if agreement["pass"] else "mismatch",
    )
    return report, 0


def _find_dataset(name: str, explicit: str | None) -> str | None:
    filename, env = _DATASET_FILES[name]
    candidates = [explicit, os.environ.get(env), filename,
                  os.path.join("data", filename)]
    for path in candidates:
        if path and os.path.exists(path):
            return path
    return None


def cmd_reproduce_appendix(args) -> tuple[Report, int]:
    checks: list[dict] = []
    counters: dict = {}
    failed = False
    ran = False
    for name, explicit in (("retail", args.retail), ("kosarak", args.kosarak)):
        path = _find_dataset(name, explicit)
        if path is None:
            checks.append({"name": name, "status": "SKIPPED",
                           "detail": "dataset file not found"})
            continue
        ran = True
        db = _read_fimi(path)
        for label in ("1%", "2%"):
            counter = QueryCounter()
            result = apriori(db, support_threshold(label), counter)
            counters[f"{name}@{label}"] = counter.as_dict()
            got = tuple((st.k, st.m_candidates, st.m_frequent) for st in result.stats)
            want = tuple((st.k, st.m_candidates, st.m_frequent)
                         for st in REFERENCE_APRIORI_RUNS[(name, label)])
            ok_stats = got == want
            gamma = gamma_metric(result.stats)
            want_gamma = REFERENCE_GAMMA[(name, label)]
            ok_gamma = abs(gamma - want_gamma) <= 0.01
            failed = failed or not (ok_stats and ok_gamma)
            checks.append({
                "name": f"{name}@{label} iterations",
                "status": "PASS" if ok_stats else "FAIL",
                "detail": f"got {list(got)}" if not ok_stats else "",
            })
            checks.append({
                "name": f"{name}@{label} gamma",
                "status": "PASS" if ok_gamma else "FAIL",
                "detail": f"{gamma:.4f} vs {want_gamma}",
            })
    status = "fail" if failed else ("ok" if ran else "skipped")
    report = Report(
        command="reproduce-appendix",
        config={"retail": args.retail, "kosarak": args.kosarak},
        counters=counters,
        checks=checks,
        status=status,
    )
    return report, (1 if failed else 0)


def cmd_datasets(_args) -> tuple[Report, int]:
    report = Report(
        command="datasets",
        config={},
        checks=[
            {"name": "retail.dat", "status": "FIMI repository",
             "detail": "retail market-basket data, 88162 transactions"},
            {"name": "kosarak.dat", "status": "FIMI repository",
             "detail": "click-stream data, 990002 transactions"},
            {"name": "note", "status": "manual download",
             "detail": "place next to the working directory or point "
                       "--retail/--kosarak or QARM_RETAIL/QARM_KOSARAK at the files"},
        ],
    )
    return report, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qarm",
        description="Quantum association-rule mining simulator and baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("--json", action="store_true",
                           help="print the JSON report to stdout")
    io_parent.add_argument("--output", metavar="PATH",
                           help="write the JSON report to a file")
    io_parent.add_argument("--csv", metavar="PATH",
                           help="write per-iteration stats as CSV")

    data_parent = argparse.ArgumentParser(add_help=False)
    data_parent.add_argument("--dataset", metavar="PATH",
                             help="FIMI file: one transaction per line")
    data_parent.add_argument("--synthetic", nargs=2, type=int,
                             metavar=("N", "M"),
                             help="random database with N transactions, M items")
    data_parent.add_argument("--density", type=float, default=0.25,
                             help="fill density for --synthetic (default 0.25)")
    data_parent.add_argument("--seed", type=int, default=0)

    supp_parent = argparse.ArgumentParser(add_help=False)
    supp_parent.add_argument("--min-supp", required=True,
                             help="threshold: '0.5', '1/2', or '1%%'")

    quantum_parent = argparse.ArgumentParser(add_help=False)
    quantum_parent.add_argument("-T", "--grid", type=int, default=32,
                                help="estimation grid size, power of two (default 32)")
    quantum_parent.add_argument("--mode", choices=list(AMPLIFY_MODES),
                                default="ideal-projection")
    quantum_parent.add_argument("--patience", type=int, default=25,
                                help="stop after this many shots with nothing new")

    p = sub.add_parser("mine-classical", parents=[data_parent, supp_parent, io_parent],
                       help="exact level-wise mining")
    p.add_argument("--min-conf", help="also emit rules at this confidence")
    p.set_defaults(func=cmd_mine_classical)

    p = sub.add_parser("mine-sampling", parents=[data_parent, supp_parent, io_parent],
                       help="row-sampling baseline")
    p.add_argument("--samples", type=int, default=10000,
                   help="row draws per support estimate (default 10000)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="target error; overrides --samples with ceil(1/eps^2)")
    p.set_defaults(func=cmd_mine_sampling)

    p = sub.add_parser("mine-quantum",
                       parents=[data_parent, supp_parent, quantum_parent, io_parent],
                       help="simulated quantum mining")
    p.set_defaults(func=cmd_mine_quantum)

    p = sub.add_parser("compare",
                       parents=[data_parent, supp_parent, quantum_parent, io_parent],
                       help="classical vs sampling vs quantum on one database")
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("reproduce-appendix", parents=[io_parent],
                       help="check the reference FIMI runs (skips absent files)")
    p.add_argument("--retail", metavar="PATH")
    p.add_argument("--kosarak", metavar="PATH")
    p.set_defaults(func=cmd_reproduce_appendix)

    p = sub.add_parser("datasets", parents=[io_parent],
                       help="list the dataset files this tool understands")
    p.set_defaults(func=cmd_datasets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.func(args)
    except (FimiParseError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    try:
        if args.output:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(report.to_json())
        if args.csv:
            with open(args.csv, "w", encoding="ascii") as fh:
                fh.write(report.iterations_csv())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text(elapsed=elapsed))
    return code


if __name__ == "__main__":
    sys.exit(main())
