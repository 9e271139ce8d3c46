"""Shared fixtures: small reference databases, dataset discovery, and a
guard against leaked threads."""

import os
import sys
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings

from qarm import Itemset, TransactionDB

# every run draws the same examples, so a failing property test fails again
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter):
    # surface one line per acceptance criterion in the run summary
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for n in sorted(lines):
            terminalreporter.write_line(lines[n])


@pytest.fixture(autouse=True)
def no_leaked_threads():
    # sampling draws on a helper thread; every test must leave none alive
    before = set(threading.enumerate())
    yield
    extra = [t.name for t in threading.enumerate() if t not in before]
    if extra:
        pytest.fail(f"test left threads alive: {extra}")


@pytest.fixture
def dtoy() -> TransactionDB:
    # rows 111, 110, 100, 000 over items {0,1,2}
    return TransactionDB.from_rows([[0, 1, 2], [0, 1], [0], []], n_items=3)


@pytest.fixture
def toy4() -> TransactionDB:
    # item 0 in rows {0,1}, item 1 everywhere, item 2 nowhere
    return TransactionDB.from_rows([[0, 1], [0, 1], [1], [1]], n_items=3)


def random_db(rng: np.random.Generator, n: int, m: int,
              density: float = 0.4) -> TransactionDB:
    rows = rng.random((n, m)) < density
    return TransactionDB.from_rows(
        [list(np.nonzero(r)[0]) for r in rows], n_items=m
    )


def random_candidates(rng: np.random.Generator, db: TransactionDB,
                      k: int) -> list[Itemset]:
    """A nonempty random subset of the k-itemsets over db's items, sorted."""
    pool = list(combinations(range(db.n_items), k))
    picks = rng.choice(len(pool), size=int(rng.integers(1, len(pool) + 1)),
                       replace=False)
    return [Itemset(pool[i]) for i in sorted(picks)]


# what one call allocates whatever the level's size (frames, small
# containers, numpy's scalar results), left out of the level byte counts
CALL_BYTES = 8 << 10


def traced_peak(fn) -> int:
    """Peak bytes that Python and NumPy allocate while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class SecondDrawFails(np.random.Generator):
    """A seeded Generator whose second `integers` call runs out of memory."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.draw_calls = 0

    def integers(self, *args, **kwargs):
        self.draw_calls += 1
        if self.draw_calls == 2:
            raise MemoryError("cannot allocate the second chunk of draws")
        return super().integers(*args, **kwargs)


def find_dataset(name: str) -> str | None:
    """Locate retail.dat / kosarak.dat without any network access."""
    env = os.environ.get(f"QARM_{name.upper()}")
    here = os.path.dirname(__file__)
    candidates = [
        env,
        os.path.join(here, "data", f"{name}.dat"),
        os.path.join(os.getcwd(), f"{name}.dat"),
        os.path.join(os.getcwd(), "data", f"{name}.dat"),
    ]
    for path in candidates:
        if path and os.path.isfile(path):
            return path
    return None
