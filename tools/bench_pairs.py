"""Run the benchmark on two checkouts in alternating pairs and write the
medians, quartiles and pair wins to `BENCH_<label>.json`.

    python3 tools/bench_pairs.py --parent PARENT --change CHANGE \
        --workload fimi-sampling --pairs 10 --seconds 8 --label NAME

PARENT and CHANGE are checkouts of qarm.  Pair i runs
`TREE/perfbench/run.py --workload W --seed S --seconds N --trace 0` from
each tree's root, with the same workload seed S = --seed0 + i on both
sides; the parent runs first in even pairs and the change in odd ones, so
a drift in the host's load falls on both sides alike.  The benchmark of
each tree is only run, never edited, and `--workload` may be given more
than once.

For every workload the file records, per side, each end-to-end metric's
median, quartiles and IQR and every run's value; the pairs the change
wins (better by the metric's direction in the parent's BENCHMARK.json,
ties counting for neither side); the ops attempted and failed and the
runs whose reports were all correct.  It also records each tree's commit,
whether its tracked files differ from that commit, the sha256 of its
`src/qarm` sources, the host and the workload seeds.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in `tree`: its last stdout line, as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe_tree(tree: str) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    src = os.path.join(tree, "src", "qarm")
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def describe_host() -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"machine": platform.machine(), "system": platform.system(), "cpu": cpu,
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summarise(runs: dict[str, list[dict]], directions: dict[str, str]) -> dict:
    metrics = {}
    for name, better in directions.items():
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in ("parent", "change")}
        sign = 1 if better == "lower" else -1
        pairs = list(zip(values["parent"], values["change"]))
        metrics[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": better,
            "parent": spread(values["parent"]),
            "change": spread(values["change"]),
            "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
            "parent_wins": sum(sign * (c - p) > 0 for p, c in pairs),
        }
    ops = {side: {"attempted": sum(run["attempted"] for run in runs[side]),
                  "failed": sum(run["failed"] for run in runs[side]),
                  "correct_runs": sum(bool(run["correct"]) for run in runs[side])}
           for side in ("parent", "change")}
    return {"metrics": metrics, "ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--seed0", type=int, default=801)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", default=HERE, help="directory of BENCH_<label>.json")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        directions = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    seeds = [args.seed0 + i for i in range(args.pairs)]
    workloads = {}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                result = run_bench(trees[side], workload, seed, args.seconds)
                runs[side].append(result)
                wall = result["metrics"]["wall_s"]["value"]
                print(f"{workload} pair {i} seed {seed} {side}: wall_s {wall:.4f}",
                      file=sys.stderr, flush=True)
        workloads[workload] = summarise(runs, directions)

    out = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "command": "perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "pairs": args.pairs,
        "seeds": seeds,
        "order": ["parent first" if i % 2 == 0 else "change first" for i in range(args.pairs)],
        "parent": describe_tree(trees["parent"]),
        "change": describe_tree(trees["change"]),
        "host": describe_host(),
        "workloads": workloads,
    }
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
