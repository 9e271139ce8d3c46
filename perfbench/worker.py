"""One fresh workload process: set-up, then identical ops for a fixed time.

    python3 perfbench/worker.py '{"path": ..., "argv": [...], "seconds": 30,
                                  "trace": null}'

It starts no op that would, at the last op's pace, end after "seconds",
but always runs at least MIN_OPS.  With "argv" null it only times set-up.
It prints one JSON line: the set-up time, and for ops each op's wall time,
exit code and report digest, every distinct report, peak RSS and, when
"trace" names a file, per-op layer metrics (the last op's spans go to that
file).  Run from the root of the checkout with src on PYTHONPATH.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

MIN_OPS = 3


def main(spec: dict) -> dict:
    started = time.perf_counter()
    import qarm
    import qarm.cli

    with open(spec["path"], "r", encoding="ascii") as fh:
        qarm.parse_fimi(fh.read())
    out = {"setup_s": time.perf_counter() - started}
    if spec["argv"] is None:
        return out

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops, reports, layers = [], {}, []
    begin = time.perf_counter()
    wall = 0.0
    while len(ops) < MIN_OPS or time.perf_counter() - begin + wall <= spec["seconds"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = qarm.cli.main(spec["argv"])
        except Exception:  # an escaping error fails this op, not the run
            traceback.print_exc(file=sys.stderr)
            code = None
        wall = time.perf_counter() - t0
        text = buf.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest() if code == 0 else None
        if digest is not None:
            reports.setdefault(digest, text)
        ops.append({"wall_s": wall, "code": code, "digest": digest})
        if tracer is not None:
            layers.append(tracer.take_op())
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update(ops=ops, reports=reports, layers=layers)
    if tracer is not None:
        tracer.write(spec["trace"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
