"""The data layer's threads: the FIMI parse and the AND/popcount count give
the same results, raise the same errors and stay within the same byte
bounds on any number of CPUs."""

import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_classical
import test_data
from qarm import data
from qarm.classical import apriori
from qarm.cli import main
from qarm.data import FimiParseError, level_supports, parse_fimi
from conftest import random_candidates, random_db


@contextmanager
def on_cpus(cpus: int):
    """data sees `cpus` CPUs, and any work of two units or more is split."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_cpu_count", lambda: cpus)
        mp.setattr(data, "_THREAD_WORK", 1)
        yield


@contextmanager
def started_threads():
    """The number of threads started inside the block, in a one-item list."""
    started = [0]
    real = threading.Thread.start

    def start(thread):
        started[0] += 1
        real(thread)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threading.Thread, "start", start)
        yield started


def _outcome(text):
    try:
        return parse_fimi(text)
    except FimiParseError as exc:
        return str(exc)


_LINE = st.lists(st.integers(0, 999), max_size=6)  # unsorted, with repeats


@settings(max_examples=60)
@given(rows=st.lists(_LINE, min_size=1, max_size=40),
       seps=st.lists(st.sampled_from([" ", "\t", " \t ", "  "]), min_size=1, max_size=4),
       block=st.sampled_from([1, 2, 7, 16, 64, 1 << 20]),
       bad=st.sampled_from([None, "x", "\r", "-3"]), where=st.integers(0, 39),
       final=st.booleans())
def test_parse_is_the_same_on_every_cpu_count(rows, seps, block, bad, where, final):
    # blank lines are the empty rows; a bad token sends the text to the
    # line parser, which names its line, whichever piece holds it
    lines = [seps[i % len(seps)].join(map(str, row)) for i, row in enumerate(rows)]
    if bad is not None:
        lines[where % len(lines)] += " " + bad
    text = "\n".join(lines) + ("\n" if final else "")
    outcomes = []
    for cpus in (1, 2, 3, 4):
        with on_cpus(cpus), pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_PARSE_BLOCK", block)
            outcomes.append(_outcome(text))
    try:
        expected = data._parse_fimi_lines(text)
    except FimiParseError as exc:
        expected = str(exc)
    assert outcomes == [expected] * 4


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 3), weighted=st.booleans())
def test_level_supports_are_the_same_on_every_cpu_count(seed, k, weighted):
    rng = np.random.default_rng(seed)
    db = random_db(rng, int(rng.integers(1, 400)), int(rng.integers(k, 12)),
                   density=float(rng.uniform(0.1, 0.9)))
    candidates = random_candidates(rng, db, k)
    weights = rng.integers(0, 6, db.n_transactions) if weighted else None
    counts = []
    for cpus in (1, 2, 3, 4):
        with on_cpus(cpus):
            counts.append(level_supports(db, candidates, weights).tolist())
    assert counts[1:] == counts[:1] * 3


def _packed_dense_columns(db, items):
    """The bit matrix of items from the dense matrix: each item's column,
    padded with zeros to whole 64-row words, packed little-endian."""
    words = -(-db.n_transactions // 64)
    held = np.zeros((len(items), words * 64), dtype=bool)
    held[:, :db.n_transactions] = db.dense()[:, items].T
    return np.packbits(held, axis=1, bitorder="little").view(np.uint64)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_rows=st.one_of(st.integers(1, 200), st.integers(8_000, 20_000)),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]), data_=st.data())
def test_bit_matrix_from_rows_is_the_packed_dense_columns(seed, n_rows, density, data_):
    # past a few thousand rows a build is split into chunks; ids that no
    # row holds (m to 15, and every id of an empty database), rows that
    # hold nothing, a last word partly padding and an empty level all occur
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 12))
    db = data.TransactionDB.from_rows(
        [np.flatnonzero(row) for row in rng.random((n_rows, m)) < density], n_items=16)
    items = np.array(sorted(data_.draw(st.sets(st.integers(0, 15), max_size=16))), dtype=np.int64)
    want = _packed_dense_columns(db, items)
    for cpus in (1, 2, 4):
        with on_cpus(cpus):
            got = data._bit_columns(db, items)
        assert got.dtype == np.uint64 and got.shape == want.shape
        assert (got == want).all()


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_rows=st.one_of(st.integers(1, 200), st.integers(2_000, 6_000)),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       subset=st.sampled_from(["empty", "one", "all", "some"]),
       int32=st.booleans(), data_=st.data())
def test_bit_matrix_over_some_rows_is_their_packed_dense_columns(seed, n_rows, density,
                                                                 subset, int32, data_):
    # column p is row rows[p]; past 2,000 rows of up to 16 items a build
    # over most rows is split into chunks, and each chunk into pieces;
    # absent ids, empty rows and a last word partly padding all occur
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 12))
    db = data.TransactionDB.from_rows(
        [np.flatnonzero(row) for row in rng.random((n_rows, m)) < density], n_items=16)
    items = np.array(sorted(data_.draw(st.sets(st.integers(0, 15), max_size=16))), dtype=np.int64)
    rows = {"empty": np.zeros(0, dtype=np.int64), "one": rng.integers(n_rows, size=1),
            "all": np.arange(n_rows),
            "some": np.flatnonzero(rng.random(n_rows) < rng.uniform(0.01, 1))}[subset]
    rows = rows.astype(np.int32 if int32 else np.int64)  # the sampler passes int32
    held = np.zeros((len(items), -(-rows.size // 64) * 64), dtype=bool)
    held[:, :rows.size] = db.dense()[rows][:, items].T
    want = np.packbits(held, axis=1, bitorder="little").view(np.uint64)
    got = data._bit_columns(db, items, rows)
    assert got.dtype == np.uint64 and got.shape == want.shape
    assert (got == want).all()


def test_apriori_runs_sharing_a_database_stay_exact(monkeypatch):
    # each run holds its own bit matrix while it runs; four runs at once
    # on one database, switching every microsecond, must each build one
    # matrix a run and count exactly.  Item j is in (19 - j) / 20 of the
    # rows, so each threshold keeps other items
    db = data.synth_db(3000, 12, {(j,): f"{19 - j}/20" for j in range(12)}, seed=3)
    thresholds = ["1/4", "1/3", "1/2", "2/3"]
    want = [apriori(db, thr) for thr in thresholds]
    got = [[] for _ in thresholds]
    builds = [0] * len(thresholds)
    barrier = threading.Barrier(len(thresholds), timeout=60)
    bit_columns = data._bit_columns

    def recording(db_, items):
        builds[threading.current_thread().index] += 1
        return bit_columns(db_, items)

    monkeypatch.setattr(data, "_bit_columns", recording)

    def run(i):
        threading.current_thread().index = i
        barrier.wait()
        for _ in range(25):
            got[i].append(apriori(db, thresholds[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(thresholds))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert time.monotonic() - start < 60
    for results, expected in zip(got, want):
        assert len(results) == 25
        for result in results:
            assert result.frequents == expected.frequents
            assert ([c.tolist() for c in result.counts]
                    == [c.tolist() for c in expected.counts])
    assert builds == [25] * len(thresholds)


def test_threads_start_only_past_the_work_gate(monkeypatch):
    # a large level and a text of many blocks are split over the CPUs; the
    # small inputs of the quantum workloads read no CPU count at all
    rng = np.random.default_rng(5)
    db = random_db(rng, 3000, 12, density=0.5)
    level = random_candidates(rng, db, 2)
    text = "".join(f"{i % 97} {i % 89 + 100}\n" for i in range(30_000))
    with on_cpus(4), started_threads() as started:
        level_supports(db, level)
        assert started[0] == 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_PARSE_BLOCK", 1 << 12)
            parse_fimi(text)
        assert started[0] == 6

    def no_cpu_count():
        raise AssertionError("a small input read the CPU count")

    monkeypatch.setattr(data, "_cpu_count", no_cpu_count)
    with started_threads() as started:
        small = random_db(rng, 256, 64, density=0.5)
        level_supports(small, random_candidates(rng, small, 2)[:64])
        parse_fimi(text[:4096])
        assert main(["mine-quantum", "--synthetic", "8", "8", "--density", "0.6",
                     "--min-supp", "1/2", "-T", "64", "--mode", "ideal-projection",
                     "--seed", "1", "--json"]) == 0
        assert started[0] == 0


def test_every_task_runs_once_on_more_threads_than_cores():
    # threads switch every microsecond, so two threads taking the same task,
    # or none taking one, would show in the per-task run counts
    runs = np.zeros(5000, dtype=np.int64)

    def task(i):
        runs[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        data._run_tasks(runs.size, task, 8)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - start < 60
    assert (runs == 1).all()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_the_lowest_failed_task_is_raised_and_no_thread_is_left(workers):
    ran = []

    def task(i):
        ran.append(i)
        if i == 0:
            time.sleep(0.05)  # fails last, but is the lowest
            raise ValueError("task 0")
        if i == 1:
            raise KeyError("task 1")

    with pytest.raises(ValueError, match="task 0"):
        data._run_tasks(50, task, workers)
    assert {0, 1} <= set(ran) and len(ran) < 50  # no task is taken after a failure
    # through the parse: every piece from line 1000 on fails, the lowest
    # of them last in time, and its error is the one raised
    text = "".join(f"{i}\n" for i in range(2000))
    seen = []

    def piece(block, real=data._parse_fimi_piece):
        first = int(block.split(None, 1)[0])
        seen.append(first)
        if first >= 1000:
            time.sleep(0.05 if first < 1100 else 0)
            raise MemoryError(f"piece at {first}")
        return real(block)

    with on_cpus(workers), pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_PARSE_BLOCK", 1 << 10)
        mp.setattr(data, "_parse_fimi_piece", piece)
        with pytest.raises(MemoryError) as err:
            parse_fimi(text)
    assert str(err.value) == f"piece at {min(f for f in seen if f >= 1000)}"


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("bound", [
    test_data.test_parse_bytes_bound,
    test_classical.test_level_bytes_bound_cand_gen_and_fre_exam,
    test_classical.test_level_bytes_bound_sampling_estimate,
    lambda: test_classical.test_kept_bytes_hold_at_a_large_level("fre_exam"),
    lambda: test_classical.test_kept_bytes_hold_at_a_large_level("sampling_estimate"),
    lambda: test_classical.test_kept_bytes_hold_at_a_large_level("qarm_mine_k"),
], ids=["parse", "cand_gen_and_fre_exam", "sampling_estimate", "kept-fre_exam",
        "kept-sampling_estimate", "kept-qarm_mine_k"])
def test_byte_bounds_hold_on_threads(cpus, bound):
    # the serial byte bounds, unchanged, with every count and parse split
    with on_cpus(cpus):
        bound()
