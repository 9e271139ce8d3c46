"""qarm benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload quantum-ideal --seed 1 --seconds 30 --trace 0

Writes the workload's input file from the seed, times set-up in fresh
processes, runs identical `qarm.cli.main` ops in one fresh worker process
for the given seconds, checks every report against perfbench/verify.py,
and prints the metrics; the last line of stdout is one JSON object.
With --trace 1 it runs an untraced and a traced worker on the same input,
each for half the seconds, and reports the per-layer metrics instead.

`wall_s` is the wall time of the run's fastest op.  Every op repeats the
same work (its report bytes must match), and on a shared host the slow
ops measure the neighbours' load: the fastest op of a run is far steadier
from run to run than the median op.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS, op_argv, write_input
from verify import Truth, check_report

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 5
# every run must end within 180 s, hung workers included
DEADLINE = time.monotonic() + 170
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# report counter scope and the ledger field that counts database accesses
QUERY_FIELD = {
    "mine-quantum": ("quantum", "basic_oracle_calls"),
    "mine-classical": ("classical", "classical_row_scans"),
    "mine-sampling": ("sampling", "classical_row_scans"),
}


class BenchError(RuntimeError):
    pass


def run_worker(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.update({name: "1" for name in THREAD_CAPS})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                          capture_output=True, text=True, env=env,
                          timeout=max(1.0, DEADLINE - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(result: dict, truth: Truth, argv: list[str], want_digest: str | None = None):
    """Check every op of one worker.  Returns (failed flags, correct, first report).

    An op fails when it raised or exited non-zero, when its report fails a
    check, or when its bytes differ from the reference report (the first
    op's, or `want_digest`), since every op does the same work."""
    verdict = {}
    for digest, text in result["reports"].items():
        fails = check_report(json.loads(text), truth, argv)
        for msg in fails:
            print(f"check failed: {msg}", file=sys.stderr)
        verdict[digest] = not fails
    first = next((op["digest"] for op in result["ops"] if op["digest"]), None)
    ref = want_digest or first
    failed, correct = [], True
    for op in result["ops"]:
        ok = op["digest"] is not None and verdict[op["digest"]] and op["digest"] == ref
        if op["digest"] is not None and not ok:
            correct = False
        failed.append(not ok)
    if any(op["digest"] not in (None, ref) for op in result["ops"]):
        print("ops of one configuration produced different reports", file=sys.stderr)
    report = json.loads(result["reports"][first]) if first else None
    return failed, correct, report


def ledger(report: dict | None) -> dict:
    counters = {}
    if report is not None:
        for scope in report["counters"].values():
            counters.update(scope)
    return counters


def queries(report: dict | None, argv: list[str]) -> int:
    if report is None:
        return 0
    scope, field = QUERY_FIELD[argv[0]]
    return report["counters"][scope][field]


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return {"qpe.max_qubits": "qubits", "mining.itemsets_per_shot": "itemsets/shot"}.get(
        name, "count")


def fastest(result: dict) -> int:
    """Index of the worker's fastest op."""
    walls = [op["wall_s"] for op in result["ops"]]
    return walls.index(min(walls))


def measure(workload: str, path: str, truth: Truth, seconds: int):
    argv = op_argv(workload, path)
    setups = [run_worker({"path": path, "argv": None})["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    result = run_worker({"path": path, "argv": argv, "seconds": seconds, "trace": None})
    setups.append(result["setup_s"])
    failed, correct, report = judge(result, truth, argv)
    metrics = {
        "wall_s": result["ops"][fastest(result)]["wall_s"],
        "peak_rss_mb": result["peak_rss_kib"] * 1024 / 1e6,
        "setup_s": statistics.median(setups),
        "queries": queries(report, argv),
    }
    return metrics, len(failed), sum(failed), correct


def measure_traced(workload: str, seed: int, path: str, truth: Truth, seconds: int):
    argv = op_argv(workload, path)
    plain = run_worker({"path": path, "argv": argv, "seconds": seconds / 2, "trace": None})
    trace_path = os.path.join(WORK, f"trace-{workload}-{seed}.jsonl")
    traced = run_worker({"path": path, "argv": argv, "seconds": seconds / 2,
                         "trace": trace_path})
    failed, correct, report = judge(plain, truth, argv)
    ref = next((op["digest"] for op in plain["ops"] if op["digest"]), None)
    t_failed, t_correct, t_report = judge(traced, truth, argv, want_digest=ref)
    if ledger(t_report) != ledger(report):
        print("the traced run's ledger differs from the untraced run's", file=sys.stderr)

    metrics = dict(traced["layers"][fastest(traced)])
    counts = ledger(report)
    shots = counts.get("state_preparations", 0)
    found = len(report["itemsets"]) if report else 0
    metrics.update({
        "oracle.basic_calls": counts.get("basic_oracle_calls", 0),
        "mining.amp_iterations": counts.get("amplification_iterations", 0),
        "mining.shots": shots,
        "mining.itemsets_per_shot": found / shots if shots else 0.0,
        "trace_overhead_s": (traced["ops"][fastest(traced)]["wall_s"]
                             - plain["ops"][fastest(plain)]["wall_s"]),
    })
    failed += t_failed
    return metrics, len(failed), sum(failed), correct and t_correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qarm", "cli.py")):
        print("perfbench: src/qarm not found; run from the root of a qarm checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    path, rows = write_input(args.workload, args.seed, WORK)
    truth = Truth(rows)
    try:
        if args.trace:
            metrics, attempted, failed, correct = measure_traced(
                args.workload, args.seed, path, truth, args.seconds)
        else:
            metrics, attempted, failed, correct = measure(
                args.workload, path, truth, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        os.remove(path)  # regenerated from the seed by every run
    for name, value in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit(name)}")
    print(f"{args.workload}  ops attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
