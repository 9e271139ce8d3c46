"""Command-line entry points, exercised in-process through main()."""

import json

import pytest

import qarm.cli
import qarm.mining
from qarm.cli import main

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
    code = main(["mine-quantum", "--dataset", clear_db_path,
                 "--min-supp", "1/2", "-T", "32", "--qubit-cap", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("refusing:")


def test_sampling_epsilon_sets_sample_count(capsys, clear_db_path):
    code, doc = run_json(capsys, [
        "mine-sampling", "--dataset", clear_db_path, "--min-supp", "1/2",
        "--epsilon", "0.1", "--seed", "3"])
    assert code == 0
    assert doc["config"]["n_samples"] == 100
    assert {tuple(e["items"]) for e in doc["itemsets"]} >= {(0,), (1,)}
    assert all(0.0 <= e["estimate"] <= 1.0 for e in doc["itemsets"])


@pytest.mark.parametrize("epsilon", ["0", "-0.5"])
def test_sampling_rejects_non_positive_epsilon(capsys, epsilon):
    code = main(["mine-sampling", "--synthetic", "8", "4", "--min-supp", "1/4",
                 f"--epsilon={epsilon}", "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--epsilon" in captured.err
    assert captured.out == ""


def test_bbht_non_convergence_is_a_clean_error(capsys, monkeypatch):
    # every internal measurement reads y = 0, which is never good, so the
    # bbht loop runs out of budget
    monkeypatch.setattr(qarm.mining, "measure",
                        lambda state, registers, rng: ({"est": 0}, state))
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


def test_bad_threshold_is_a_clean_error(capsys, clear_db_path):
    code = main(["mine-classical", "--dataset", clear_db_path,
                 "--min-supp", "abc"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


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
