"""Workload table and the seeded generators of their FIMI input files.

The workload seed reaches the program only through the file written here:
the planted databases shuffle their rows with it, the Zipf database draws
every row from it.  The miner's own `--seed` is the fixed OP_SEED.
"""
from __future__ import annotations

import os
import random

import numpy as np

# Passed as `--seed` to every op.  The bbht ledger moves by about 11% from
# one miner seed to the next, so a miner seed that followed the workload
# seed would put that spread into `queries` and `wall_s`.
OP_SEED = 1

ZIPF_ROWS = 88_162
ZIPF_ITEMS = 16_470
ZIPF_MEAN_LEN = 10

WORKLOADS = {
    "quantum-ideal": {
        "input": ("planted", 8, 8, 3),
        "argv": ["mine-quantum", "--mode", "ideal-projection", "-T", "64",
                 "--min-supp", "3/4"],
    },
    "quantum-bbht": {
        "input": ("planted", 256, 64, 1),
        "argv": ["mine-quantum", "--mode", "bbht", "-T", "32", "--min-supp", "3/4"],
    },
    "fimi-apriori": {
        "input": ("zipf",),
        "argv": ["mine-classical", "--min-supp", "1%"],
    },
    "fimi-sampling": {
        "input": ("zipf",),
        "argv": ["mine-sampling", "--samples", "8000", "--min-supp", "1%"],
    },
}


def op_argv(workload: str, path: str) -> list[str]:
    """The CLI arguments of one op of the workload on its input file."""
    return WORKLOADS[workload]["argv"] + ["--dataset", path, "--seed", str(OP_SEED),
                                          "--json"]


def planted_rows(n_rows: int, n_items: int, n_always: int, seed: int) -> list[list[int]]:
    """Items below n_always are in every row; every other item is in one
    fixed half of the rows (even items the first half, odd the second).
    The seed only shuffles the rows, so every support is 0, 1/2 or 1."""
    rows = []
    for i in range(n_rows):
        half = 0 if i < n_rows // 2 else 1
        rows.append(list(range(n_always))
                    + [j for j in range(n_always, n_items) if j % 2 == half])
    random.Random(seed).shuffle(rows)
    return rows


def zipf_rows(seed: int) -> list[list[int]]:
    """Retail-shaped rows: item probability proportional to 1/rank, row
    length Poisson(10) with a minimum of 1, duplicates within a row
    dropped, ranks mapped to item ids by a seeded permutation."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(1.0 / np.arange(1, ZIPF_ITEMS + 1))
    cdf /= cdf[-1]
    lengths = np.maximum(rng.poisson(ZIPF_MEAN_LEN, ZIPF_ROWS), 1)
    ranks = np.searchsorted(cdf, rng.random(int(lengths.sum())), side="right")
    items = rng.permutation(ZIPF_ITEMS)[ranks]
    row_of = np.repeat(np.arange(ZIPF_ROWS), lengths)
    order = np.lexsort((items, row_of))
    items, row_of = items[order], row_of[order]
    keep = np.ones(items.size, dtype=bool)
    keep[1:] = (items[1:] != items[:-1]) | (row_of[1:] != row_of[:-1])
    items, row_of = items[keep], row_of[keep]
    bounds = np.searchsorted(row_of, np.arange(1, ZIPF_ROWS))
    return [part.tolist() for part in np.split(items, bounds)]


def write_input(workload: str, seed: int, directory: str) -> tuple[str, list[list[int]]]:
    """Write the workload's FIMI file for this seed; return its path and rows."""
    kind, *shape = WORKLOADS[workload]["input"]
    if kind == "planted":
        rows, name = planted_rows(*shape, seed), f"{workload}-{seed}.dat"
    else:
        rows, name = zipf_rows(seed), f"zipf-{seed}.dat"
    path = os.path.join(directory, name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(" ".join(map(str, row)) + "\n" for row in rows))
    return path, rows
