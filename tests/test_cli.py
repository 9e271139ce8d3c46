"""Command-line entry points, exercised in-process through main()."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import qarm
import qarm.classical
import qarm.cli
import qarm.data
import qarm.mining
from qarm import TransactionDB, apriori, qarm_full, synth_db
from qarm.cli import main

from conftest import SecondDrawFails

CLEAR_FIMI = "0 1 2\n" * 4 + "0 1\n" * 4


@pytest.fixture
def clear_db_path(tmp_path):
    # items 0 and 1 in every row, item 2 in half: supports 1, 1, 1/2
    path = tmp_path / "clear.dat"
    path.write_text(CLEAR_FIMI, encoding="ascii")
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_mine_classical_report_schema(capsys, clear_db_path):
    code, doc = run_json(capsys, [
        "mine-classical", "--dataset", clear_db_path, "--min-supp", "3/4"])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "mine-classical"
    assert doc["status"] == "ok"
    assert doc["config"]["min_supp"] == "3/4"
    assert doc["iterations"] == [
        {"k": 1, "m_candidates": 3, "m_frequent": 2},
        {"k": 2, "m_candidates": 1, "m_frequent": 1},
    ]
    supports = {tuple(e["items"]): e["support"] for e in doc["itemsets"]}
    assert supports == {(0,): "8/8", (1,): "8/8", (0, 1): "8/8"}
    assert doc["counters"]["classical"]["classical_row_scans"] > 0
    assert doc["gamma"]["unweighted"] > 0


def test_mine_classical_rules(capsys, clear_db_path):
    code, doc = run_json(capsys, [
        "mine-classical", "--dataset", clear_db_path,
        "--min-supp", "3/4", "--min-conf", "0.8"])
    assert code == 0
    assert doc["config"]["min_conf"] == "4/5"
    pairs = {(tuple(r["antecedent"]), tuple(r["consequent"]))
             for r in doc["rules"]}
    assert ((0,), (1,)) in pairs and ((1,), (0,)) in pairs
    assert all(r["confidence"] == "1" for r in doc["rules"])


def test_mine_quantum_agrees_on_clear_instance(capsys, clear_db_path):
    code, quantum = run_json(capsys, [
        "mine-quantum", "--dataset", clear_db_path, "--min-supp", "3/4",
        "-T", "32", "--seed", "7"])
    assert code == 0
    code, classical = run_json(capsys, [
        "mine-classical", "--dataset", clear_db_path, "--min-supp", "3/4"])
    assert code == 0
    q_items = {tuple(e["items"]) for e in quantum["itemsets"]}
    c_items = {tuple(e["items"]) for e in classical["itemsets"]}
    assert q_items == c_items
    for entry in quantum["itemsets"]:
        assert entry["estimate"] >= 0.75 - 1e-12
        assert entry["T"] == 32
    assert all("shots_used" in row for row in quantum["iterations"])


def test_json_reports_are_byte_stable(capsys, clear_db_path):
    argv = ["mine-quantum", "--dataset", clear_db_path, "--min-supp", "1/2",
            "-T", "16", "--seed", "123", "--mode", "bbht", "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_compare_reports_agreement(capsys, clear_db_path):
    code, doc = run_json(capsys, [
        "compare", "--dataset", clear_db_path, "--min-supp", "3/4",
        "-T", "32", "--seed", "5", "--samples", "200"])
    assert code == 0
    agreement = doc["agreement"]
    assert agreement["quantum_equals_classical"] is True
    assert agreement["all_supports_two_grid_steps_clear"] is True
    assert agreement["min_grid_steps_to_threshold"] >= 2.0
    assert agreement["pass"] is True
    assert doc["status"] == "ok"
    assert set(doc["counters"]) == {"classical", "sampling", "quantum"}


def test_qubit_cap_refusal(capsys, clear_db_path):
    # what the qubit cap refused, the level byte budget refuses: 3
    # candidates at T = 2^25 would make 3 GiB of T x C laws
    code = main(["mine-quantum", "--dataset", clear_db_path,
                 "--min-supp", "1/2", "-T", str(1 << 25), "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: out of memory: level 1: 3 candidates at T={1 << 25} need about ")
    assert captured.err.count("\n") == 1


def test_levels_the_qubit_cap_refused_now_run(capsys):
    # est 6 + txn 12 + cand 10 qubits, over the old cap of 26, but the
    # largest law is 64 x 1,453 floats
    code, doc = run_json(capsys, ["mine-quantum", "--synthetic", "4096", "40",
                                  "-T", "64", "--min-supp", "1/16", "--seed", "3"])
    assert code == 0
    assert doc["itemsets"]


@pytest.mark.parametrize("argv", [
    ["mine-classical"],
    ["mine-sampling", "--samples", "200"],
    ["mine-quantum", "-T", "2"],
    ["mine-quantum", "-T", "2", "--mode", "bbht"],
])
def test_level_over_budget_is_refused_before_it_is_built(capsys, monkeypatch, argv):
    # 12 items of support about 1/2 all pass level 1 (12 candidates at
    # T = 2 need 7,296 bytes); joining them makes 66 pairs, over 2^14
    monkeypatch.setattr(qarm.classical, "LEVEL_BYTES", 1 << 14)

    def cand_gen(_frequents):
        raise AssertionError("the level was built")

    monkeypatch.setattr(qarm.classical, "cand_gen", cand_gen)
    code = main(argv + ["--synthetic", "64", "12", "--density", "0.5",
                        "--min-supp", "1/4", "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: level 2: ")
    assert captured.err.count("\n") == 1


def test_sampling_epsilon_sets_sample_count(capsys, clear_db_path):
    code, doc = run_json(capsys, [
        "mine-sampling", "--dataset", clear_db_path, "--min-supp", "1/2",
        "--epsilon", "0.1", "--seed", "3"])
    assert code == 0
    assert doc["config"]["n_samples"] == 100
    assert {tuple(e["items"]) for e in doc["itemsets"]} >= {(0,), (1,)}
    assert all(0.0 <= e["estimate"] <= 1.0 for e in doc["itemsets"])


@pytest.mark.parametrize("epsilon", ["0", "-0.5", "1e-160", "1e-300", "inf"])
def test_sampling_rejects_non_positive_epsilon(capsys, epsilon):
    code = main(["mine-sampling", "--synthetic", "8", "4", "--min-supp", "1/4",
                 f"--epsilon={epsilon}", "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--epsilon" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("density", ["1.5", "-0.5"])
def test_synthetic_rejects_density_outside_unit_interval(capsys, density):
    code = main(["mine-classical", "--synthetic", "8", "4", "--min-supp", "1/4",
                 f"--density={density}", "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--density" in captured.err
    assert captured.out == ""


def test_bbht_non_convergence_is_a_clean_error(capsys, monkeypatch):
    # every draw reads flat index 0, so every internal est outcome is
    # y = 0, which is never good, and the bbht loop runs out of budget
    monkeypatch.setattr(qarm.mining, "_draw", lambda cdf, rng: 0)
    code = main(["mine-quantum", "--synthetic", "8", "4", "--min-supp", "1/4",
                 "--mode", "bbht", "-T", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "converge" in err


def test_out_of_memory_is_a_clean_error(capsys, monkeypatch):
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB")
    monkeypatch.setattr(qarm.cli, "qarm_full", exhausted)
    code = main(["mine-quantum", "--synthetic", "8", "4", "--min-supp", "1/4"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: out of memory")


@pytest.mark.parametrize("item_id", [
    "100000000000000000000000", "9223372036854775807"])
def test_item_id_beyond_int64_is_a_clean_error(capsys, tmp_path, item_id):
    # the second id fits int64, but n_items = id + 1 does not
    path = tmp_path / "big.dat"
    path.write_text(f"1 2\n{item_id}\n", encoding="ascii")
    code = main(["mine-classical", "--dataset", str(path), "--min-supp", "1/2"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: line 2: item id {item_id} too large\n")


def test_non_ascii_dataset_names_the_line(capsys, tmp_path):
    path = tmp_path / "accent.dat"
    path.write_bytes("1 2\n3 \u00e9\n".encode("utf-8"))
    code = main(["mine-classical", "--dataset", str(path), "--min-supp", "1/2"])
    assert code == 2
    assert capsys.readouterr().err == "error: line 2: non-ASCII byte 0xc3\n"


def test_synthetic_source(capsys):
    code, doc = run_json(capsys, [
        "mine-classical", "--synthetic", "8", "4", "--density", "0.5",
        "--seed", "11", "--min-supp", "1/4"])
    assert code == 0
    assert doc["config"]["synthetic"] == {"n": 8, "m": 4, "density": 0.5}


def test_output_and_csv_files(tmp_path, capsys, clear_db_path):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "iters.csv"
    code = main(["mine-classical", "--dataset", clear_db_path,
                 "--min-supp", "3/4", "--output", str(out_json),
                 "--csv", str(out_csv)])
    assert code == 0
    doc = json.loads(out_json.read_text(encoding="ascii"))
    assert doc["command"] == "mine-classical"
    lines = out_csv.read_text(encoding="ascii").splitlines()
    assert lines[0] == "k,m_candidates,m_frequent"
    assert lines[1] == "1,3,2"
    # default stdout rendering is the text report
    text = capsys.readouterr().out
    assert "mine-classical" in text and "elapsed:" in text


def test_reproduce_appendix_skips_missing_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QARM_RETAIL", raising=False)
    monkeypatch.delenv("QARM_KOSARAK", raising=False)
    code, doc = run_json(capsys, ["reproduce-appendix"])
    assert code == 0
    assert doc["status"] == "skipped"
    assert [c["status"] for c in doc["checks"]] == ["SKIPPED", "SKIPPED"]


def test_datasets_command(capsys):
    code = main(["datasets"])
    assert code == 0
    out = capsys.readouterr().out
    assert "retail.dat" in out and "kosarak.dat" in out


@pytest.mark.parametrize("thresholds", [
    ["--min-supp", "abc"],
    ["--min-supp", "1/0"],
    ["--min-supp", "0/0"],
    ["--min-supp", "1/0%"],
    ["--min-supp", "1/2", "--min-conf", "1/0"],
], ids=["abc", "1/0", "0/0", "1/0%", "min-conf-1/0"])
def test_bad_threshold_is_a_clean_error(capsys, clear_db_path, thresholds):
    code = main(["mine-classical", "--dataset", clear_db_path] + thresholds)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_data_source_is_a_clean_error(capsys):
    code = main(["mine-classical", "--min-supp", "1/2"])
    assert code == 2
    assert "dataset" in capsys.readouterr().err


def test_missing_dataset_file_is_a_clean_error(capsys, tmp_path):
    code = main(["mine-classical", "--dataset", str(tmp_path / "nope.dat"),
                 "--min-supp", "1/2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["mine-classical"])  # --min-supp is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


# Recorded from the item-register layout this pipeline replaced; the
# candidate-register layout must reproduce every shot.
GOLDEN_16x6_SEED3 = {
    "ideal-projection": (
        [((0,), 6), ((1,), 10), ((2,), 7), ((3,), 6), ((4,), 7), ((0, 1), 6),
         ((0, 2), 12), ((0, 4), 7), ((1, 2), 13), ((1, 3), 15), ((1, 4), 6),
         ((3, 4), 10), ((1, 3, 4), 6)],
        [42, 34, 26],
        {"amplification_iterations": 0, "basic_oracle_calls": 11656,
         "classical_row_scans": 0, "elementary_gates": 8494,
         "grover_applications": 3162, "measurements": 102,
         "phase_oracle_k_calls": 3162, "state_preparations": 102},
    ),
    "grover-known": (
        [((0,), 6), ((2,), 9), ((3,), 6), ((4,), 7), ((0, 2), 6), ((0, 4), 15),
         ((3, 4), 8)],
        [45, 31],
        {"amplification_iterations": 200, "basic_oracle_calls": 50654,
         "classical_row_scans": 0, "elementary_gates": 35898,
         "grover_applications": 14756, "measurements": 76,
         "phase_oracle_k_calls": 14756, "state_preparations": 76},
    ),
    "bbht": (
        [((0,), 6), ((1,), 9), ((2,), 6), ((3,), 6), ((4,), 7), ((5,), 9),
         ((0, 1), 11), ((0, 2), 7), ((0, 4), 9), ((0, 5), 6), ((1, 2), 16),
         ((1, 3), 10), ((1, 4), 7), ((3, 4), 6), ((1, 3, 4), 14)],
        [92, 338, 211],
        {"amplification_iterations": 489, "basic_oracle_calls": 232438,
         "classical_row_scans": 0, "elementary_gates": 182249,
         "grover_applications": 50189, "measurements": 767,
         "phase_oracle_k_calls": 50189, "state_preparations": 641},
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_16x6_SEED3))
def test_mine_quantum_golden_transcript(capsys, mode):
    itemsets, shots, counters = GOLDEN_16x6_SEED3[mode]
    code, doc = run_json(capsys, [
        "mine-quantum", "--synthetic", "16", "6", "-T", "32",
        "--min-supp", "1/4", "--seed", "3", "--mode", mode])
    assert code == 0
    assert [(tuple(e["items"]), e["y"]) for e in doc["itemsets"]] == itemsets
    assert [row["shots_used"] for row in doc["iterations"]] == shots
    assert doc["counters"]["quantum"] == counters


def test_unwritable_output_is_a_clean_error(capsys, tmp_path, clear_db_path):
    missing = tmp_path / "no-such-dir"
    for flag in ("--output", "--csv"):
        code = main(["mine-classical", "--dataset", clear_db_path,
                     "--min-supp", "3/4", flag, str(missing / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no-such-dir" in err


def test_reproduce_appendix_non_ascii_names_the_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QARM_KOSARAK", raising=False)
    path = tmp_path / "accent.dat"
    path.write_bytes("1 2\n3 é\n".encode("utf-8"))
    code = main(["reproduce-appendix", "--retail", str(path)])
    assert code == 2
    assert capsys.readouterr().err == "error: line 2: non-ASCII byte 0xc3\n"


# Recorded before the sampling and compare miners moved onto the shared
# level-wise driver; the driver must reproduce every level and draw.
GOLDEN_SAMPLING_16x6 = (
    [(1, 6, 6), (2, 15, 8), (3, 1, 0)],
    [((0,), 0.57), ((0, 1), 0.395), ((0, 3), 0.3), ((0, 5), 0.275), ((1,), 0.525),
     ((1, 2), 0.285), ((1, 4), 0.275), ((2,), 0.26), ((2, 3), 0.255), ((3,), 0.525),
     ((3, 4), 0.305), ((3, 5), 0.3), ((4,), 0.425), ((5,), 0.445)],
    7800,
)


def _levels(doc):
    return [(r["k"], r["m_candidates"], r["m_frequent"]) for r in doc["iterations"]]


def _ledger(counts):
    return {name: value for name, value in counts.items() if value}


def test_mine_sampling_golden_transcript(capsys):
    levels, itemsets, scans = GOLDEN_SAMPLING_16x6
    code, doc = run_json(capsys, [
        "mine-sampling", "--synthetic", "16", "6", "--density", "0.5",
        "--min-supp", "1/4", "--seed", "3", "--samples", "200"])
    assert code == 0
    assert _levels(doc) == levels
    assert [(tuple(e["items"]), e["estimate"]) for e in doc["itemsets"]] == itemsets
    assert _ledger(doc["counters"]["sampling"]) == {"classical_row_scans": scans}


def test_compare_golden_transcript(capsys):
    code, doc = run_json(capsys, [
        "compare", "--synthetic", "16", "6", "--density", "0.5", "--min-supp", "0.3",
        "-T", "32", "--samples", "200", "--seed", "2", "--mode", "grover-known"])
    assert code == 0
    assert _levels(doc) == [(1, 6, 6), (2, 15, 4), (3, 1, 1)]
    assert [(tuple(e["items"]), e["y"]) for e in doc["itemsets"]] == [
        ((0,), 9), ((1,), 8), ((2,), 6), ((3,), 9), ((4,), 6), ((5,), 12),
        ((0, 1), 8), ((0, 2), 15), ((0, 3), 7), ((0, 4), 7), ((0, 5), 7),
        ((1, 3), 6), ((1, 4), 6), ((1, 5), 6), ((2, 3), 6), ((2, 5), 6),
        ((3, 4), 6), ((3, 5), 7), ((4, 5), 6), ((0, 1, 3), 12), ((0, 1, 4), 6),
        ((0, 1, 5), 7), ((0, 2, 3), 16), ((0, 2, 5), 6), ((0, 3, 4), 6),
        ((0, 3, 5), 6), ((0, 4, 5), 9), ((1, 3, 4), 10), ((1, 3, 5), 8),
        ((1, 4, 5), 8), ((2, 3, 5), 6), ((3, 4, 5), 11), ((0, 1, 3, 4), 10),
        ((0, 1, 3, 5), 9), ((0, 2, 3, 5), 8), ((0, 3, 4, 5), 11), ((1, 3, 4, 5), 10)]
    assert {scope: _ledger(c) for scope, c in doc["counters"].items()} == {
        "classical": {"classical_row_scans": 624},
        "sampling": {"classical_row_scans": 5800},
        "quantum": {"amplification_iterations": 428, "basic_oracle_calls": 205406,
                    "elementary_gates": 170934, "grover_applications": 34472,
                    "measurements": 256, "phase_oracle_k_calls": 34472,
                    "state_preparations": 256},
    }
    assert doc["agreement"] == {
        "all_supports_two_grid_steps_clear": False,
        "min_grid_steps_to_threshold": 0.13812139032530496,
        "pass": True,
        "quantum_equals_classical": False,
    }
    assert doc["status"] == "ok"


# at the parent these exited 0 with status "ok": no item occurs, so no
# level ran to refuse the value
EMPTY_DB = ["--synthetic", "8", "4", "--density", "0", "--min-supp", "1/2"]


@pytest.mark.parametrize("argv, message", [
    (["mine-sampling", "--samples", "0"], "n_samples must be >= 1"),
    (["compare", "--samples", "-3"], "n_samples must be >= 1"),
    (["mine-quantum", "--patience", "0"], "patience must be >= 1"),
    (["compare", "--patience", "0"], "patience must be >= 1"),
    (["mine-quantum", "--patience", "0", "-T", "3"],
     "T must be a power of two >= 2, got 3"),
    (["compare", "-T", "1"], "T must be a power of two >= 2, got 1"),
    (["mine-quantum", "-T", "24"], "T must be a power of two >= 2, got 24"),
    (["mine-sampling", "--samples", str(2 ** 63)],
     f"--samples {2 ** 63} does not fit int64"),
    (["compare", "--samples", str(2 ** 63)], f"--samples {2 ** 63} does not fit int64"),
    (["mine-sampling", "--epsilon", "1e-100"],
     "--epsilon 1e-100 is too small: 1/eps^2 row draws do not fit int64"),
])
def test_bad_run_arguments_exit_before_any_level(capsys, argv, message):
    assert main(argv + EMPTY_DB + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_compare_computes_each_apriori_support_once(capsys, monkeypatch):
    real = qarm.data.level_supports
    callers = Counter()

    def counted(db, candidates):
        candidates = list(candidates)
        callers[sys._getframe(1).f_globals["__name__"]] += len(candidates)
        return real(db, candidates)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("qarm") and getattr(module, "level_supports", None) is real:
            monkeypatch.setattr(module, "level_supports", counted)
    assert main(["compare", "--synthetic", "32", "8", "--density", "0.5",
                 "--min-supp", "0.3", "-T", "16", "--samples", "200", "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert sum(row["m_candidates"] for row in doc["iterations"]) == 36
    # the quantum miner's estimation law reads its own supports
    del callers["qarm.qpe"]
    assert sum(callers.values()) == 36
    # recorded at the commit that computed each support twice
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "4206d92a575fd44734469a8bf4e539fe1ee4895db094320e689cb520d0cd0ae9")


def test_no_miner_builds_a_bitset(capsys, monkeypatch):
    def no_bitsets(*_args):
        raise AssertionError("a miner built a column bitset")

    monkeypatch.setattr(TransactionDB, "column_bitset", no_bitsets)
    monkeypatch.setattr(TransactionDB, "contains_all", no_bitsets)
    db = synth_db(32, 8, {}, seed=7, background_density=0.5)
    assert apriori(db, "0.3").frequents
    assert qarm_full(db, "0.3", 16, "bbht", np.random.default_rng(7))[0]
    assert main(["compare", "--synthetic", "32", "8", "--density", "0.5",
                 "--min-supp", "0.3", "-T", "16", "--samples", "200", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


SAMPLING_RUN = ["mine-sampling", "--synthetic", "16", "6", "--min-supp", "1/4",
                "--seed", "5", "--samples", "200", "--json"]


def test_sampling_draws_past_the_budget_in_slices(capsys, monkeypatch):
    assert main(SAMPLING_RUN) == 0
    whole = capsys.readouterr()
    monkeypatch.setattr(qarm.classical, "_DRAW_BUDGET", 64)  # 200 draws in 4 slices
    assert main(SAMPLING_RUN) == 0
    assert capsys.readouterr() == whole


def test_failed_draw_is_a_clean_error(capsys, monkeypatch, clear_db_path):
    monkeypatch.setattr(qarm.classical, "_DRAW_BUDGET", 7)  # one candidate per draw
    monkeypatch.setattr(np.random, "default_rng", SecondDrawFails)
    code = main(["mine-sampling", "--dataset", clear_db_path, "--min-supp", "1/2",
                 "--samples", "7", "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory: cannot allocate the second chunk of draws\n")


def test_cli_import_does_not_load_concurrent_futures():
    # sampling imports it where it draws, so set-up does not pay for it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qarm.__file__)))
    probe = ("import sys, qarm.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout == "[]\n"
