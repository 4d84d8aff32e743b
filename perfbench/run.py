#!/usr/bin/env python3
"""Benchmark of the ``affdim`` command line, end to end and layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cloud-d2 --seed 1 --seconds 20 --trace 0

The run generates the workload's system document from ``--seed``, measures
the set-up time of fresh interpreters up to ``import affdim``, and then runs
the workload's CLI steps (``--threads 1``) over and over in one fresh
process for about ``--seconds`` seconds.  Times are reported at reference
speed: each is rescaled by the reference kernel of ``reference.py`` timed
around it, which cancels the drift in core speed on a shared machine; the
raw times are in the record line.  Every output is checked: against
closed forms where the mathematics gives one, against the other steps of the
same pass, and byte for byte against the first pass.  The checks themselves
are self-tested on mutated copies of the outputs in every run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer self times and counts from
spans recorded around the public functions of each module (see
``tracer.py``).  The last line of standard output is the result as one JSON
object; the line before it is a record of the environment, sample counts
and checks.  Working files go to ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 8  # fresh interpreters timed to `import affdim`, besides the worker
RUN_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metric -> (span name, field, unit)
LAYER_METRICS = {
    "singular_values.svd.s": ("singular_values.svd", "s", "s"),
    "singular_values.svd.calls": ("singular_values.svd", "calls", "count"),
    "singular_values.svd.matrices": ("singular_values.svd", "matrices", "count"),
    "singular_values.phi.s": ("singular_values.phi", "s", "s"),
    "singular_values.phi.calls": ("singular_values.phi", "calls", "count"),
    "singular_values.phi.values": ("singular_values.phi", "values", "count"),
    "code_tree.partition_sums.s": ("code_tree.partition_sums", "s", "s"),
    "code_tree.partition_sums.calls": ("code_tree.partition_sums", "calls", "count"),
    "code_tree.words": ("code_tree.partition_sums", "words", "count"),
    "code_tree.enumerate_points.s": ("code_tree.enumerate_points", "s", "s"),
    "code_tree.enumerate_points.calls": ("code_tree.enumerate_points", "calls", "count"),
    "code_tree.points": ("code_tree.enumerate_points", "points", "count"),
    "dimension.pressure_zero.s": ("dimension.pressure_zero", "s", "s"),
    "dimension.pressure_zero.iterations": ("dimension.pressure_zero", "iterations", "count"),
    "dimension.pressure_zero.passes": ("dimension.pressure_zero", "passes", "count"),
    "dimension.box_dimension.s": ("dimension.box_dimension", "s", "s"),
    "dimension.box_dimension.calls": ("dimension.box_dimension", "calls", "count"),
    "dimension.box_dimension.points": ("dimension.box_dimension", "points", "count"),
    "io_cli.parse_system.s": ("io_cli.parse_system", "s", "s"),
    "io_cli.self_s": ("io_cli.cli", "s", "s"),
    "fs_checker.check_cm.s": ("fs_checker.check_cm", "s", "s"),
    "fs_checker.iterate_closure.s": ("fs_checker.iterate_closure", "s", "s"),
    "fs_checker.criterion_cscm.s": ("fs_checker.criterion_cscm", "s", "s"),
    "fs_checker.closure_maps": ("fs_checker.iterate_closure", "closure_maps", "count"),
    "fs_checker.samples": ("fs_checker.check_cm", "samples", "count"),
    "exterior_algebra.compound_matrix.s": ("exterior_algebra.compound_matrix", "s", "s"),
    "exterior_algebra.compound_matrix.calls": ("exterior_algebra.compound_matrix", "calls", "count"),
}


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def environment(nproc: int, env: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {k: env[k] for k in BLAS_THREAD_VARS},
    }


def start_worker(root: str, env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the time from spawn to ``import affdim``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], cwd=root, env=env, bufsize=0,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line != b"ready\n":
        stop(proc)
        raise RuntimeError("the worker could not import affdim")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"samples": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def count_failures(passes: list, expected: dict, problems: dict) -> tuple[int, int, dict]:
    """Count step runs and failed ones: a bad exit code, a failed output
    check, or output bytes that differ from the first pass."""
    problems = dict(problems)
    attempted = failed = 0
    for p in passes:
        for rec in p["steps"]:
            attempted += 1
            bad = None
            if rec["rc"] != 0:
                bad = f"exit code {rec['rc']}: {rec['stderr'].strip()[-300:]}"
            elif problems.get(rec["name"]):
                bad = problems[rec["name"]]
            elif rec["sha256"] != expected[rec["name"]]:
                bad = f"output bytes differ from the first pass ({p['mode']} pass)"
            if bad is not None:
                failed += 1
                problems[rec["name"]] = problems.get(rec["name"]) or bad
    return attempted, failed, {k: v for k, v in problems.items() if v}


def judge(wl, meta: dict, result: dict, outdir: str) -> tuple[int, int, dict, dict]:
    """Check every step run; return the counts, the problems and the self-tests."""
    first = result["passes"][0]["steps"]
    outputs = {}
    for rec in first:
        with open(os.path.join(outdir, rec["name"]), "rb") as fh:
            outputs[rec["name"]] = fh.read()
    try:
        problems = wl.check(meta, outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = {rec["name"]: f"output could not be read: {exc!r}" for rec in first}
    expected = {rec["name"]: rec["sha256"] for rec in first}
    attempted, failed, problems = count_failures(result["passes"], expected, problems)
    selftest = {}
    if failed == 0:
        selftest = workloads.self_test(wl, meta, outputs)
        # the repeat check must catch a single changed byte
        changed = workloads.flip_byte(outputs[first[0]["name"]])
        step = dict(first[0], sha256=hashlib.sha256(changed).hexdigest())
        selftest["changed output byte"] = count_failures(
            [{"mode": "self-test", "steps": [step]}], expected, {})[1] == 1
    return attempted, failed, problems, selftest


def layer_metrics(result: dict) -> dict:
    """Per-layer medians over the traced passes, in raw seconds.

    The tracing overhead and the two-thread speed-up compare passes of the
    same cycle, which run back to back and so see the same core speed.
    """
    passes = result["passes"]
    traced = [p for p in passes if p["mode"] == "traced"]
    out = {}
    for metric, (span, field, unit) in LAYER_METRICS.items():
        vals = [p["layers"].get(span, {}).get(field, 0) for p in traced]
        out[metric] = {"value": statistics.median(vals), "unit": unit}
    out["io_cli.bytes_in"] = {"value": statistics.median(
        sum(r["bytes_in"] for r in p["steps"]) for p in traced), "unit": "B"}
    out["io_cli.bytes_out"] = {"value": statistics.median(
        sum(r["bytes_out"] for r in p["steps"]) for p in traced), "unit": "B"}
    cycles: dict = {}
    for p in passes:
        cycles.setdefault(p["cycle"], {})[p["mode"]] = p["seconds"]
    speedups = [c["plain"] / c["threads2"] for c in cycles.values() if "threads2" in c]
    out["code_tree.partition_sums.threads2_speedup"] = {
        "value": statistics.median(speedups) if speedups else 0.0, "unit": "x"}
    out["trace.wall_s"] = {"value": statistics.median(p["seconds"] for p in traced), "unit": "s"}
    out["trace.overhead_s"] = {"value": statistics.median(
        c["traced"] - c["plain"] for c in cycles.values() if "traced" in c), "unit": "s"}
    # all spans nest under io_cli.cli, so the self times sum to the time
    # inside cli(); the rest of a pass is the worker's own bookkeeping
    out["trace.accounted_share"] = {"value": statistics.median(
        sum(row["s"] for row in p["layers"].values()) / p["seconds"] for p in traced),
        "unit": "ratio"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "affdim", "__init__.py")):
        return fail("no affdim sources under src/; run from the root of a source checkout")
    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "_runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    doc, meta = wl.generate(args.seed)
    with open(os.path.join(workdir, "system.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    with open(os.path.join(workdir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(nproc, env)}

    ref = Reference()
    setups, raw_setups = [], []
    kernel = ref.seconds()
    for probe in range(SETUP_PROBES + 1):
        try:
            proc, setup = start_worker(root, env)
        except RuntimeError as exc:
            return fail(str(exc))
        if probe < SETUP_PROBES:
            proc.stdin.close()
            proc.wait(timeout=30)
        after = ref.seconds()
        raw_setups.append(setup)
        setups.append(ref.rescale(setup, kernel, after))
        kernel = after
    # a --threads 2 pass only where the machine has the cores for it
    threads2 = bool(args.trace) and args.workload == "pressure-d3" and nproc >= 2
    record["cli_threads"] = [1, 2] if threads2 else [1]
    job = {"workload": args.workload, "workdir": workdir, "seconds": args.seconds,
           "trace": bool(args.trace), "threads2": threads2}
    try:
        done, _ = proc.communicate(json.dumps(job).encode() + b"\n", timeout=RUN_TIMEOUT_S)
    finally:
        stop(proc)
    if done != b"done\n":
        return fail(f"the worker stopped without a result (exit code {proc.returncode})")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    outdir = os.path.join(workdir, "out")
    attempted, failed, problems, selftest = judge(wl, meta, result, outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    for step in wl.steps(workdir):
        if step.out_file is not None and os.path.exists(step.out_file):
            os.remove(step.out_file)

    plain = [p["ref_seconds"] for p in result["passes"] if p["mode"] == "plain"]
    correct = failed == 0 and bool(selftest) and all(selftest.values())
    record.update({
        "wall_s": quartiles(plain),
        "setup_s": quartiles(setups),
        "raw_wall_s": quartiles([p["seconds"] for p in result["passes"] if p["mode"] == "plain"]),
        "raw_setup_s": quartiles(raw_setups),
        "failed_ratio": failed / attempted,
        "problems": problems,
        "selftest": {k: "flagged" if v else "MISSED" for k, v in selftest.items()},
    })
    if args.trace:
        metrics = layer_metrics(result)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
