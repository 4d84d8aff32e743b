"""One benchmark process: import ``affdim``, then run a workload's CLI steps.

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and times it
from process start to the ``ready`` line, which it prints right after
``import affdim``.  A probe gets no job on stdin and exits.  Otherwise the
job is one JSON line, and the worker repeats cycles of passes over the
workload's steps until the time budget is spent, writes every pass's
timings and output hashes to ``result.json`` and the first outputs of each
step to ``out/``, and prints ``done``.

A cycle is one untraced pass; with tracing it is one untraced pass, one
traced pass and, on ``pressure-d3``, one untraced ``--threads 2`` pass.
The reference kernel of ``reference.py`` runs before the first pass and
after every pass, and each pass is also reported rescaled to reference speed.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

MIN_CYCLES = {False: 3, True: 2}
# stop starting cycles after this long whatever the budget, so a run ends
# well inside its time limit
HARD_STOP_S = 110.0


def run_pass(steps, mode, tr, outdir, first):
    """Run each step once; return its record.  ``first`` saves the outputs."""
    threads = "2" if mode == "threads2" else "1"
    outputs, records = {}, []
    if tr is not None:
        tr.reset()
        tr.install()
    try:
        for step in steps:
            argv = step.argv(outputs) + ["--threads", threads]
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = sys.modules["affdim.io_cli"].cli(argv)
            except Exception:  # a crash is a failed step, not a failed benchmark
                rc = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
            if step.out_file is not None and os.path.exists(step.out_file):
                with open(step.out_file, "rb") as fh:
                    data = fh.read()
            else:
                data = out.getvalue().encode()
            outputs[step.name] = data
            if first:
                with open(os.path.join(outdir, step.name), "wb") as fh:
                    fh.write(data)
            records.append({
                "name": step.name,
                "rc": rc,
                "seconds": seconds,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes_in": os.path.getsize(argv[1]) if os.path.exists(argv[1]) else 0,
                "bytes_out": len(data),
                "stderr": err.getvalue()[-2000:] if rc != 0 else "",
            })
    finally:
        if tr is not None:
            tr.uninstall()
    rec = {"mode": mode, "seconds": sum(r["seconds"] for r in records), "steps": records}
    if tr is not None:
        rec["layers"] = tr.summary()
    return rec


def main():
    import affdim  # noqa: F401  (set-up time ends with this import)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line:
        return 0

    import reference
    import tracer
    import workloads

    job = json.loads(line)
    wl = workloads.WORKLOADS[job["workload"]]
    steps = wl.steps(job["workdir"])
    outdir = os.path.join(job["workdir"], "out")
    os.makedirs(outdir, exist_ok=True)
    cycle = ["plain"]
    if job["trace"]:
        cycle.append("traced")
        if job["threads2"]:
            cycle.append("threads2")
    tr = tracer.Tracer() if job["trace"] else None

    ref = reference.Reference()
    passes, cycle_times = [], []
    start = time.perf_counter()
    kernel = ref.seconds()
    while True:
        t0 = time.perf_counter()
        for mode in cycle:
            rec = run_pass(steps, mode, tr if mode == "traced" else None, outdir, first=not passes)
            after = ref.seconds()
            rec["ref_seconds"] = ref.rescale(rec["seconds"], kernel, after)
            rec["cycle"] = len(cycle_times)
            kernel = after
            passes.append(rec)
        cycle_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S:
            break
        if (len(cycle_times) >= MIN_CYCLES[bool(job["trace"])]
                and elapsed + statistics.median(cycle_times) > job["seconds"]):
            break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tr is not None:
        # spans of the last traced pass, written once at the end
        with open(os.path.join(job["workdir"], "spans.json"), "w") as fh:
            json.dump(tr.dump(), fh)
    with open(os.path.join(job["workdir"], "result.json"), "w") as fh:
        json.dump(result, fh)
    sys.stdout.write("done\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
