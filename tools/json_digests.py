"""Digest the `--json` runs that a behaviour-preserving change must leave
byte-identical, one `sha256  argv` line per run, then the run count.

    python3 tools/json_digests.py [TREE] > digests.txt

TREE is a checkout whose `src/qarm` is run (default: this checkout), so
comparing two trees is one `diff` of two outputs.  The benchmark input
files are written by this checkout's `perfbench/inputs.py`, which is only
read, into a temporary directory that is also every run's working
directory; ops name their file relative to it, so its path appears in no
output.

Each run is a fresh `python -c` process calling `qarm.cli.main(argv)`,
one at a time, with PYTHONPATH set to TREE/src and thread pools capped at
one thread as the benchmark caps them.  Those caps are BLAS and OpenMP
caps: qarm's parse and count threads do not read them and run on every
CPU of the process's affinity, which no report depends on.  The digest is the sha256 of
stdout, a NUL byte, stderr, a NUL byte and the decimal exit code, so a
changed message or exit code shows as well as a changed report.

The 200 runs, in this order:

* 6 benchmark ops: `quantum-ideal`, then `quantum-bbht`, at workload
  seeds 1, 2, 3 each, with the argv of `inputs.op_argv`.
* 42 quantum runs: `mine-quantum --synthetic N M --seed S --min-supp 1/4
  -T 32 --mode MODE --json` for (N, M) in 16 6, 12 7, 32 8, S in 3, 5,
  7, 11, 13 and the three modes, leaving out (32 8, seed 7) in every
  mode.  The default density 0.25 is not passed.
* 6 compare runs: `compare --synthetic 16 6 --seed S --min-supp 1/4
  -T 16 --samples 200 --mode MODE --json` for S in 2, 9 and the three
  modes.
* 6 benchmark ops: `fimi-apriori`, then `fimi-sampling`, at workload
  seeds 1, 2, 3 each.
* 108 runs on `--synthetic N M --seed S --min-supp 1/4` for (N, M) in
  16 6, 12 7, 32 8 and S in 3, 5, 7, 11, nine per database and seed:
  `mine-classical` without and with `--min-conf 1/2`, and with it at
  `--density 0.6`, whose 3-itemsets give rules with 2-item antecedents
  (six 3-itemsets and 18 such rules for 16 6 at seed 3); `mine-sampling
  --samples 200` at the default density; `mine-sampling` at the default
  10,000 samples with `--density 0.25` and with `--density 0.5`; and
  `compare -T 16 --samples 200` in the three modes.
* 6 parse runs: `mine-classical --dataset FILE --min-supp 1/4 --json` on
  the small FIMI files of `FIMI_FILES`, one for each way a text is read:
  unsorted and repeated ids with tabs and blank lines (the block parser's
  sort), CRLF line ends (the CLI reads them as newlines), a zero-padded
  19-digit id (read exactly by the block parser, since its value is
  small), a 20-digit id and a letter (exit 2 naming the line), and
  unsorted and repeated ids with a `+` sign and an id of 10^18, which
  the line parser reads.
* 10 runs on `--synthetic 130 9 --seed S --density 0.6 --min-supp 1/4`
  for S in 3, 5, five per seed: `mine-classical` without and with
  `--min-conf 1/2`, and `compare -T 16 --samples 200` in the three
  modes.  130 rows are not a multiple of 64, so the last word of a
  packed column is partly padding, and the levels reach k = 4.
* 2 sampling runs on the same databases: `mine-sampling --synthetic 130
  9 --seed S --density 0.6 --min-supp 1/4 --samples 8000 --json` for S
  in 3, 5.  They reach k = 4 on a bit matrix over the drawn rows whose
  last word is partly padding, with draw counts of about 7 bits.
* 9 quantum runs on `--synthetic 16 6 --seed 3` in the three modes:
  `mine-quantum --min-supp 1/4 -T 1024 --json`, a grid of 1,024 good-mask
  points; and `mine-quantum --min-supp 1/2 -T 8 --json` at the default
  density and at `--density 0.6`, where the grid value sin^2(pi/4) sits
  on the threshold and must count as good.
* 2 runs of `mine-classical --synthetic 16 6 --seed 3 --min-supp 1/4
  --json` at `--density 0` (every row empty) and `--density 1.0` (every
  row full).
* 1 compare run on a larger database: `compare --synthetic 2000 40 --seed
  3 --density 0.05 --min-supp 1/25 -T 16 --samples 200 --json`.
* 1 exact run over five levels: `mine-classical --synthetic 3000 12
  --density 0.6 --seed 3 --min-supp 1/8 --json`.  Its levels are 12/12,
  66/66, 220/220, 495/241 and 130/0 (candidates/frequent), so `apriori`
  shrinks the bit matrix it holds over four levels, and 3000 rows leave
  the last word of each packed row partly padding.
* 1 sampling run with many draws per row: `mine-sampling --dataset
  zipf-1.dat --samples 1000000 --min-supp 1% --json` on the
  `fimi-sampling` input file at workload seed 1 (88,162 rows): nearly
  every row is drawn, and each level's draw counts reach 27 to 30, five
  binary digits.

The row sampler (`classical.sampling_estimate`) runs in every
`mine-sampling` and `compare` run: 91 of the 200 (the 13 compare runs
outside the 108, the 3 `fimi-sampling` ops, 72 of the 108, the 2
`mine-sampling` runs at 130 9 and the run at 10^6 samples).  A change to
its draws changes those digests, and only those: the other 109 must keep
theirs.  In a
`compare` run each miner draws its own `--seed` stream, so the sampler's
draws move only compare's `sampling` ledger, and its quantum half equals
`mine-quantum` at the same seed.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODES = ("ideal-projection", "grover-known", "bbht")
SHAPES = (("16", "6"), ("12", "7"), ("32", "8"))
RUN = "import sys; from qarm.cli import main; sys.exit(main(sys.argv[1:]))"
# name and text of each FIMI file the parse runs read
FIMI_FILES = (
    ("unsorted.dat", "3 1 1\t2\n\n   \t\n2 2 5\n1\t3 \n5 3 1\n3\t1\n"),
    ("crlf.dat", "1 2\r\n2 3\r\n1 2 3\r\n1 3\r\n"),
    ("padded.dat", "1 0000000000000000002\n2 3\n1 2 3\n"),
    ("long-id.dat", "1 2\n2 99999999999999999999\n"),
    ("letter.dat", "1 2\n2 3\nx 1\n"),
    ("plus-sign.dat", "+3 1 1\n2 1000000000000000000 2\n1 2 3\n3 +1000000000000000000\n"),
)
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def load_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(HERE, "perfbench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(inputs, work: str) -> list[list[str]]:
    """Every run's argv, writing the benchmark and parse input files into `work`."""

    def ops(workloads):
        out = []
        for workload in workloads:
            for seed in (1, 2, 3):
                path, _ = inputs.write_input(workload, seed, work)
                out.append(inputs.op_argv(workload, os.path.basename(path)))
        return out

    argvs = ops(("quantum-ideal", "quantum-bbht"))
    for n, m in SHAPES:
        for seed in ("3", "5", "7", "11", "13"):
            if (n, m, seed) == ("32", "8", "7"):
                continue
            for mode in MODES:
                argvs.append(["mine-quantum", "--synthetic", n, m, "--seed", seed,
                              "--min-supp", "1/4", "-T", "32", "--mode", mode, "--json"])
    for seed in ("2", "9"):
        for mode in MODES:
            argvs.append(["compare", "--synthetic", "16", "6", "--seed", seed,
                          "--min-supp", "1/4", "-T", "16", "--samples", "200",
                          "--mode", mode, "--json"])
    argvs += ops(("fimi-apriori", "fimi-sampling"))
    for n, m in SHAPES:
        for seed in ("3", "5", "7", "11"):
            db = ["--synthetic", n, m, "--seed", seed, "--min-supp", "1/4"]
            argvs += [
                ["mine-classical", *db, "--json"],
                ["mine-classical", *db, "--min-conf", "1/2", "--json"],
                ["mine-classical", *db, "--density", "0.6", "--min-conf", "1/2", "--json"],
                ["mine-sampling", *db, "--samples", "200", "--json"],
                ["mine-sampling", *db, "--density", "0.25", "--json"],
                ["mine-sampling", *db, "--density", "0.5", "--json"],
            ]
            argvs += [["compare", *db, "-T", "16", "--samples", "200", "--mode", mode,
                       "--json"] for mode in MODES]
    for name, text in FIMI_FILES:
        with open(os.path.join(work, name), "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        argvs.append(["mine-classical", "--dataset", name, "--min-supp", "1/4", "--json"])
    for seed in ("3", "5"):
        db = ["--synthetic", "130", "9", "--seed", seed, "--density", "0.6",
              "--min-supp", "1/4"]
        argvs += [["mine-classical", *db, "--json"],
                  ["mine-classical", *db, "--min-conf", "1/2", "--json"]]
        argvs += [["compare", *db, "-T", "16", "--samples", "200", "--mode", mode,
                   "--json"] for mode in MODES]
    for seed in ("3", "5"):
        argvs.append(["mine-sampling", "--synthetic", "130", "9", "--seed", seed,
                      "--density", "0.6", "--min-supp", "1/4", "--samples", "8000",
                      "--json"])
    db = ["--synthetic", "16", "6", "--seed", "3"]
    for grid in (["--min-supp", "1/4", "-T", "1024"], ["--min-supp", "1/2", "-T", "8"],
                 ["--density", "0.6", "--min-supp", "1/2", "-T", "8"]):
        argvs += [["mine-quantum", *db, *grid, "--mode", mode, "--json"] for mode in MODES]
    argvs += [["mine-classical", *db, "--density", density, "--min-supp", "1/4", "--json"]
              for density in ("0", "1.0")]
    argvs.append(["compare", "--synthetic", "2000", "40", "--seed", "3", "--density", "0.05",
                  "--min-supp", "1/25", "-T", "16", "--samples", "200", "--json"])
    argvs.append(["mine-classical", "--synthetic", "3000", "12", "--density", "0.6",
                  "--seed", "3", "--min-supp", "1/8", "--json"])
    path, _ = inputs.write_input("fimi-sampling", 1, work)
    argvs.append(["mine-sampling", "--dataset", os.path.basename(path), "--samples", "1000000",
                  "--min-supp", "1%", "--json"])
    return argvs


def digest(tree: str, argv: list[str], work: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update({name: "1" for name in THREAD_CAPS})
    proc = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=work, env=env,
                          capture_output=True)
    blob = b"\0".join([proc.stdout, proc.stderr, str(proc.returncode).encode()])
    return hashlib.sha256(blob).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: json_digests.py [TREE]", file=sys.stderr)
        return 2
    tree = os.path.abspath(argv[0] if argv else HERE)
    inputs = load_inputs()
    with tempfile.TemporaryDirectory() as work:
        argvs = runs(inputs, work)
        for run in argvs:
            print(f"{digest(tree, run, work)}  {shlex.join(run)}", flush=True)
    print(f"{len(argvs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
