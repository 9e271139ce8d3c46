"""Command-line entry points, exercised in-process through main()."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qarm
import qarm.classical
import qarm.cli
import qarm.data
import qarm.mining
from qarm import TransactionDB, apriori, qarm_full, synth_db
from qarm.cli import main

from conftest import SecondDrawFails, traced_peak

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


def _refuse(*_args, **_kwargs):
    raise AssertionError("the dense engine was reached")


@pytest.mark.parametrize("argv", [
    ["mine-classical", "--min-conf", "1/2"],
    ["mine-sampling", "--samples", "200"],
    ["mine-quantum", "-T", "32", "--mode", "ideal-projection"],
    ["mine-quantum", "-T", "32", "--mode", "grover-known"],
    ["mine-quantum", "-T", "32", "--mode", "bbht"],
    ["compare", "-T", "16", "--samples", "200"],
])
def test_no_subcommand_reaches_the_dense_engine(capsys, monkeypatch, argv):
    # the register-level simulator and the dense matrix are the reference
    # the miners are tested against; no subcommand builds either
    argv = argv + ["--synthetic", "16", "6", "--min-supp", "1/4", "--seed", "3", "--json"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    monkeypatch.setattr(qarm.RegisterLayout, "__init__", _refuse)
    monkeypatch.setattr(qarm.Statevector, "__init__", _refuse)
    monkeypatch.setattr(qarm.TransactionDB, "dense", _refuse)
    assert main(argv) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("argv", [
    ["mine-classical"],
    ["mine-sampling", "--samples", "200"],
    ["mine-quantum", "-T", "2"],
    ["mine-quantum", "-T", "2", "--mode", "bbht"],
])
def test_level_over_budget_is_refused_before_it_is_built(capsys, monkeypatch, argv):
    # 48 items of support about 1/2 pass level 1, where every one kept or
    # found is priced: 48 candidates at T = 2 need 48*(64 + 384) + 64*28 +
    # 50*3*8*2 = 25,696 bytes.  Joining 32 or more of them makes at least
    # 496 pairs, over 2^15 (496*64 + 32*64 + 64*28 + 32*8*3 = 36,352 bytes)
    monkeypatch.setattr(qarm.classical, "LEVEL_BYTES", 1 << 15)

    def cand_gen(_frequents):
        raise AssertionError("the level was built")

    monkeypatch.setattr(qarm.classical, "cand_gen", cand_gen)
    code = main(argv + ["--synthetic", "64", "48", "--density", "0.5",
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


# reproduce-appendix reads this as retail.dat; kosarak.dat is absent
APPENDIX_FIMI = "0 1 2\n0 1\n1 2 3\n0 2 3\n"

# Each subcommand's text report, its `elapsed:` line dropped, as sha256,
# recorded before `Report` became the JSON dict it renders: the JSON
# digests do not cover the text, which must not move.
TEXT_REPORTS = [
    (["mine-classical", "--synthetic", "16", "6", "--seed", "3", "--density", "0.6",
      "--min-supp", "1/4", "--min-conf", "1/2"], 0,
     "b84964b35fbe9093b3fd447a398d9976ff20a577f840f5839a9ae3229377cdd4"),
    (["mine-sampling", "--synthetic", "16", "6", "--seed", "3", "--min-supp", "1/4",
      "--samples", "200"], 0,
     "1551bf635eb1bdecb8c0160d610b7ef14b562c9e1f97d79692666000faa6aba1"),
    (["mine-quantum", "--synthetic", "16", "6", "--seed", "3", "--min-supp", "1/4",
      "-T", "32", "--mode", "bbht"], 0,
     "455be56201acf2d0c906f410c437c5302703946acb3d42498b6fa428fbfc593f"),
    (["compare", "--synthetic", "16", "6", "--seed", "2", "--density", "0.5",
      "--min-supp", "0.3", "-T", "32", "--samples", "200", "--mode", "grover-known"], 0,
     "e51c7c689da7e6d08dc0ee680db6af26ac53b9d7ff9efa481a0dc8cf9066f974"),
    (["reproduce-appendix", "--retail", "retail.dat"], 1,
     "8167ad90b7a96f018dcf216ccb0abf2e239159caab816273bb1bffe10417c26f"),
    (["datasets"], 0,
     "260bda40fe4213fd93e7c23a58514e55bd179e63b849ee4d4a956cc462b6bdfa"),
]


@pytest.mark.parametrize("argv, code, digest", TEXT_REPORTS,
                         ids=[argv[0] for argv, _, _ in TEXT_REPORTS])
def test_text_reports_render_as_recorded(capsys, tmp_path, monkeypatch, argv, code, digest):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QARM_RETAIL", raising=False)
    monkeypatch.delenv("QARM_KOSARAK", raising=False)
    (tmp_path / "retail.dat").write_text(APPENDIX_FIMI, encoding="ascii")
    assert main(argv) == code
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0].startswith(f"{argv[0]}  [") and lines[-1].startswith("  elapsed: ")
    text = "".join(lines[:-1])
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest, text


def test_unwritable_output_is_a_clean_error(capsys, tmp_path, clear_db_path):
    missing = tmp_path / "no-such-dir"
    for flag in ("--output", "--csv"):
        code = main(["mine-classical", "--dataset", clear_db_path,
                     "--min-supp", "3/4", flag, str(missing / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no-such-dir" in err


@pytest.mark.parametrize("flag", ["--retail", "--kosarak"])
def test_reproduce_appendix_refuses_a_missing_explicit_path(capsys, tmp_path, monkeypatch,
                                                            flag):
    # a file in the default place, and one for the other flag, must not
    # stand in for a named one that is missing, nor be mined first
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QARM_RETAIL", raising=False)
    monkeypatch.delenv("QARM_KOSARAK", raising=False)
    (tmp_path / "retail.dat").write_text(CLEAR_FIMI, encoding="ascii")
    (tmp_path / "kosarak.dat").write_text(CLEAR_FIMI, encoding="ascii")
    monkeypatch.setattr(qarm.cli, "apriori", lambda *_args: pytest.fail("mined a file"))
    missing = str(tmp_path / "absent" / "x.dat")
    code = main(["reproduce-appendix", "--retail", "retail.dat", "--kosarak", "kosarak.dat",
                 flag, missing, "--json"])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {flag} {missing}: no such file\n")


@pytest.mark.parametrize("name", ["retail", "kosarak"])
def test_reproduce_appendix_refuses_a_missing_variable_path(capsys, tmp_path, monkeypatch,
                                                            name):
    # a $QARM_NAME naming no file is refused, not passed over for a file
    # in the default place, and nothing is mined
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QARM_RETAIL", raising=False)
    monkeypatch.delenv("QARM_KOSARAK", raising=False)
    (tmp_path / f"{name}.dat").write_text(CLEAR_FIMI, encoding="ascii")
    missing = str(tmp_path / "absent" / f"{name}.dat")
    monkeypatch.setenv(f"QARM_{name.upper()}", missing)
    monkeypatch.setattr(qarm.cli, "apriori", lambda *_args: pytest.fail("mined a file"))
    code = main(["reproduce-appendix", "--json"])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: $QARM_{name.upper()} {missing}: no such file\n")


@pytest.mark.parametrize("where", ["variable", "flag over variable", "here", "data"])
def test_reproduce_appendix_config_names_the_file_mined(capsys, tmp_path, monkeypatch, where):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QARM_RETAIL", raising=False)
    monkeypatch.delenv("QARM_KOSARAK", raising=False)
    argv = ["reproduce-appendix"]
    if where == "here":
        path = "retail.dat"
    elif where == "data":
        (tmp_path / "data").mkdir()
        path = os.path.join("data", "retail.dat")
    else:
        path = str(tmp_path / "elsewhere.dat")
        if where == "variable":
            monkeypatch.setenv("QARM_RETAIL", path)
        else:  # the flag is used, and a variable naming no file is not read
            monkeypatch.setenv("QARM_RETAIL", str(tmp_path / "absent.dat"))
            argv += ["--retail", path]
    Path(tmp_path, path).write_text(APPENDIX_FIMI, encoding="ascii")
    code, doc = run_json(capsys, argv)
    assert code == 1  # four rows are not the retail file
    assert doc["config"] == {"retail": path, "kosarak": None}
    assert [c["name"] for c in doc["checks"]][-1] == "kosarak"
    assert [c["status"] for c in doc["checks"]][:4] == ["FAIL", "FAIL", "FAIL", "FAIL"]


def test_patience_above_the_level_shot_cap_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(qarm.mining, "LEVEL_SHOTS", 4)
    monkeypatch.setattr(qarm.mining, "qarm_mine_k", lambda *_a, **_k: pytest.fail("ran a level"))
    for command in ("mine-quantum", "compare"):
        assert main([command, "--synthetic", "8", "4", "--min-supp", "1/4",
                     "--patience", "5"]) == 2
        assert capsys.readouterr() == ("", "error: patience 5 is above the 4-shot cap of a level\n")


def test_level_at_the_shot_cap_is_a_clean_error(capsys, monkeypatch):
    # twelve items in nearly every row: each of the first shots finds a new one
    monkeypatch.setattr(qarm.mining, "LEVEL_SHOTS", 3)
    code = main(["mine-quantum", "--synthetic", "16", "12", "--density", "0.9",
                 "--min-supp", "1/4", "--patience", "2", "--json"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: level 1: still finding itemsets at the "
                                       "3-shot cap\n")


def test_reproduce_appendix_non_ascii_names_the_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QARM_KOSARAK", raising=False)
    path = tmp_path / "accent.dat"
    path.write_bytes("1 2\n3 é\n".encode("utf-8"))
    code = main(["reproduce-appendix", "--retail", str(path)])
    assert code == 2
    assert capsys.readouterr().err == "error: line 2: non-ASCII byte 0xc3\n"


# Recorded when each level's candidates moved onto one shared row sample;
# every later change must reproduce every level and draw.
GOLDEN_SAMPLING_16x6 = (
    [(1, 6, 6), (2, 15, 2)],
    [((0,), 0.57), ((0, 1), 0.355), ((0, 3), 0.29), ((1,), 0.585), ((2,), 0.325),
     ((3,), 0.49), ((4,), 0.44), ((5,), 0.385)],
    7200,
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
    # the quantum miner draws its own --seed stream, so its itemsets and
    # ledger were re-recorded when it stopped sharing the sampler's
    assert [(tuple(e["items"]), e["y"]) for e in doc["itemsets"]] == [
        ((0,), 9), ((1,), 8), ((2,), 6), ((3,), 8), ((4,), 6), ((5,), 8),
        ((0, 1), 6), ((0, 3), 7), ((0, 4), 6), ((0, 5), 8), ((1, 3), 6),
        ((1, 4), 6), ((1, 5), 6), ((2, 3), 15), ((2, 4), 8), ((2, 5), 6),
        ((3, 4), 11), ((3, 5), 7), ((4, 5), 15), ((0, 1, 4), 12), ((0, 1, 5), 6),
        ((0, 3, 4), 6), ((0, 3, 5), 6), ((0, 4, 5), 8), ((1, 4, 5), 11),
        ((2, 3, 4), 6), ((2, 3, 5), 6), ((3, 4, 5), 6), ((0, 3, 4, 5), 9)]
    assert {scope: _ledger(c) for scope, c in doc["counters"].items()} == {
        "classical": {"classical_row_scans": 624},
        "sampling": {"classical_row_scans": 5800},
        "quantum": {"amplification_iterations": 349, "basic_oracle_calls": 164672,
                    "elementary_gates": 136121, "grover_applications": 28551,
                    "measurements": 223, "phase_oracle_k_calls": 28551,
                    "state_preparations": 223},
    }
    assert doc["agreement"] == {
        "all_supports_two_grid_steps_clear": False,
        "min_grid_steps_to_threshold": 0.13812139032530496,
        "pass": True,
        "quantum_equals_classical": False,
    }
    assert doc["status"] == "ok"


@pytest.mark.parametrize("mode", ["ideal-projection", "grover-known", "bbht"])
def test_compare_halves_equal_their_subcommands(capsys, mode):
    # each miner draws its own --seed stream, so no half of the report
    # depends on how many draws another half took
    run = ["--synthetic", "16", "6", "--density", "0.5", "--min-supp", "0.3", "--seed", "2"]
    quantum = ["-T", "32", "--mode", mode]
    sampling = ["--samples", "200"]

    def doc(argv):
        code, out = run_json(capsys, argv + run)
        assert code == 0
        return out

    both = doc(["compare"] + quantum + sampling)
    alone = doc(["mine-quantum"] + quantum)
    assert both["itemsets"] == alone["itemsets"]
    assert both["counters"]["quantum"] == alone["counters"]["quantum"]
    alone = doc(["mine-sampling"] + sampling)
    assert both["counters"]["sampling"] == alone["counters"]["sampling"]
    alone = doc(["mine-classical"])
    assert both["counters"]["classical"] == alone["counters"]["classical"]


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
     f"n_samples {2 ** 63} does not fit int64"),
    (["compare", "--samples", str(2 ** 63)], f"n_samples {2 ** 63} does not fit int64"),
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

    def counted(db, candidates, weights=None):
        candidates = list(candidates)
        if weights is None:  # the sampler's weighted counts are not supports
            callers[sys._getframe(1).f_globals["__name__"]] += len(candidates)
        return real(db, candidates, weights)

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
    # re-recorded when the quantum miner moved onto its own --seed stream
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "efe7a4f5ae73c4c7c00c3ceb430fa2864bda0780b06482fb39f2126af0ec18b3")


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
    monkeypatch.setattr(qarm.classical, "_DRAW_BUDGET", 7)  # 10 draws in two calls
    # as numpy's does, the fake returns a Generator it is given unaltered
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seed if isinstance(
        seed, np.random.Generator) else SecondDrawFails(seed))
    code = main(["mine-sampling", "--dataset", clear_db_path, "--min-supp", "1/2",
                 "--samples", "10", "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory: cannot allocate the second chunk of draws\n")


def test_cli_import_does_not_load_concurrent_futures():
    # qarm's parse and count threads are plain threading.Threads; this
    # keeps a thread pool from creeping in and set-up from paying ~6 ms
    # to import it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qarm.__file__)))
    probe = ("import sys, qarm.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout == "[]\n"


def test_readme_command_lines_run_in_text_mode(capsys):
    # every `qarm ...` line of the README's command block, as a user types
    # it; the line reading a --dataset file that is not here is left out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```\n(.*?)```", readme, flags=re.DOTALL)
             for line in block.splitlines() if line.startswith("qarm ")]
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--dataset" in argv and not os.path.exists(argv[argv.index("--dataset") + 1]):
            continue
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        assert out.startswith(argv[0]), line


def test_synthetic_over_the_level_budget_exits_2(capsys):
    # numpy used to refuse this size with its own message; qarm refuses it
    # from the size alone, naming N, M, the density and the bytes
    code = main(["mine-classical", "--synthetic", "100000000000", "100000000000",
                 "--min-supp", "1/2", "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: out of memory: a 100000000000 x 100000000000 database at density 0.25 "
        "needs about 80000000023999992037376 bytes, over the 1073741824-byte level budget\n")


def test_synthetic_over_the_draw_cap_exits_2(capsys):
    # within the byte budget (about 39 MB) but 10**11 uniforms, one per row
    # and item: refused before anything is drawn
    code = main(["mine-classical", "--synthetic", "1000000", "100000", "--density", "1e-7",
                 "--min-supp", "1/2", "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: a 1000000 x 100000 database at density 1e-07 draws 100000000000 random "
        "numbers, over the cap of 2147483648\n")


@pytest.mark.parametrize("argv", [
    ["mine-classical"], ["mine-sampling", "--samples", "8000"], ["mine-quantum", "-T", "64"]],
    ids=["classical", "sampling", "quantum"])
def test_memory_does_not_follow_the_largest_id(capsys, tmp_path, argv):
    # two rows whose largest id is 10**7 parse and mine in what two rows of
    # small ids take (about 70 to 140 KiB), not in arrays of 10**7 entries
    path = tmp_path / "far.dat"
    path.write_text("1 2\n10000000\n", encoding="ascii")
    argv = argv + ["--dataset", str(path), "--min-supp", "1/2", "--seed", "1", "--json"]
    assert main(argv) == 0  # imports and caches are not the run's
    first = capsys.readouterr().out
    peak = traced_peak(lambda: main(argv))
    assert capsys.readouterr().out == first
    assert peak <= 1 << 18
