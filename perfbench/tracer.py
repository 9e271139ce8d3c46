"""Spans around the public functions of each qarm layer, from outside it.

Each wrapped call records a span: name, start, end, parent, and the time
its child spans cover, so self time is duration minus child time.  Spans
stay in memory; the worker folds them into per-op metrics after every op
and writes the last op's spans out when the run ends.

qarm's modules bind each other's functions with `from .x import y`, so a
function is replaced in every qarm module that holds it, and a method is
replaced on its class.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

MB = 1e6


def _note_fill(counts, seen, args, _result):
    db, j = args[0], args[1]
    if (id(db), j) not in seen:
        seen.add((id(db), j))
        counts["bitset_fills"] += 1
        counts["bitset_bytes"] += (db.n_transactions + 7) // 8


def _note_candidates(counts, _seen, args, _result):
    counts["candidates"] += len(args[1])


def _note_frequent(counts, _seen, args, _result):
    counts["frequent"] += len(args[0])


def _note_estimate(counts, _seen, _args, result):
    counts["max_qubits"] = max(counts["max_qubits"], result.layout.n_qubits)


def _note_copy(counts, _seen, _args, result):
    counts["copied_bytes"] += result.amps.nbytes


# (module, attribute, span name, optional note on args and result)
TARGETS = [
    ("data", "parse_fimi", "data.parse", None),
    ("data", "TransactionDB.column_bitset", "data.column_bitset", _note_fill),
    ("data", "TransactionDB.contains_all", "data.contains_all", None),
    ("data", "exact_support", "data.support", None),
    ("classical", "fre_exam", "classical.fre_exam", _note_candidates),
    ("classical", "cand_gen", "classical.cand_gen", _note_frequent),
    ("classical", "sampling_estimate", "classical.sampling", _note_candidates),
    ("oracle", "phase_oracle_sign_table", "oracle.sign_table", None),
    ("qpe", "parallel_amplitude_estimation", "qpe.estimate", _note_estimate),
    ("qsim", "apply_controlled_power", "qsim.controlled_power", None),
    ("qsim", "inverse_qft", "qsim.iqft", None),
    ("qsim", "Statevector.copy", "qsim.copy", _note_copy),
    ("qsim", "measure", "qsim.measure", None),
    ("qsim", "reflect_about_state", "qsim.reflect", None),
    ("qsim", "register_marginal", "qsim.marginal", None),
    ("qsim", "Statevector.check_norm", "qsim.check_norm", None),
    ("mining", "qarm_mine_k", "mining.mine_k", None),
    ("mining", "amplitude_amplify", "mining.amplify", None),
    ("cli", "Report.to_json", "cli.report", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, child time]
        self.last_spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: set = set()

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][4] += rec[2] - rec[1]
            if note is not None:
                note(self.counts, self._seen, args, result)
            return result

        return traced

    def install(self):
        """Replace every target in all loaded qarm modules."""
        modules = [m for n, m in sys.modules.items() if n == "qarm" or n.startswith("qarm.")]
        for module, attr, name, note in TARGETS:
            owner = sys.modules[f"qarm.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), note))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def take_op(self) -> dict[str, float]:
        """Fold the spans and counts of the op just run into its metrics,
        then start afresh (keeping the spans for `write`)."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, _parent, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
        c = self.counts
        metrics = {
            "data.parse_s": total["data.parse"],
            "data.bitset_fills": c["bitset_fills"],
            "data.bitset_mb": c["bitset_bytes"] / MB,
            "data.contains_all_s": total["data.contains_all"],
            "data.support_s": total["data.support"],
            "data.supports": calls["data.support"],
            "classical.fre_exam_s": total["classical.fre_exam"],
            "classical.cand_gen_s": total["classical.cand_gen"],
            "classical.sampling_s": total["classical.sampling"],
            "classical.candidates": c["candidates"],
            "classical.frequent": c["frequent"],
            "oracle.sign_table_s": total["oracle.sign_table"],
            "qpe.estimate_s": total["qpe.estimate"],
            "qpe.estimates": calls["qpe.estimate"],
            "qpe.max_qubits": c["max_qubits"],
            "qpe.state_mb": 16 * 2 ** c["max_qubits"] / MB if c["max_qubits"] else 0.0,
            "qsim.controlled_power_s": total["qsim.controlled_power"],
            "qsim.iqft_s": total["qsim.iqft"],
            "qsim.copy_s": total["qsim.copy"],
            "qsim.copies": calls["qsim.copy"],
            "qsim.copied_mb": c["copied_bytes"] / MB,
            "qsim.measure_s": total["qsim.measure"],
            "qsim.measures": calls["qsim.measure"],
            "qsim.reflect_s": total["qsim.reflect"],
            "qsim.reflects": calls["qsim.reflect"],
            "qsim.marginal_s": total["qsim.marginal"],
            "qsim.check_norm_s": total["qsim.check_norm"],
            "qsim.check_norms": calls["qsim.check_norm"],
            "mining.mine_k_s": total["mining.mine_k"],
            "mining.shot_loop_self_s": own["mining.mine_k"],
            "mining.amplify_s": total["mining.amplify"],
            "cli.report_s": total["cli.report"],
            "cli.op_self_s": own["cli.main"],
        }
        self.last_spans = self.spans[:]
        self.spans.clear()
        self.counts.clear()
        self._seen.clear()
        return metrics

    def write(self, path: str):
        """Write the spans of the last op, one JSON object per line."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, child in self.last_spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "child_s": child}) + "\n")
