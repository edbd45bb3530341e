"""Run one qgeom benchmark workload and print its metrics.

    python3 bench/run.py --workload extremal-search --seed 1 --seconds 35 --trace 0
    python3 bench/tests/test_checks.py     # self-test of the answer checks

Run from the root of a checkout; the program is imported from ./src.
Workloads: extremal-search, containment, cli-batch (see workloads.py and
rationale.json).  --seed picks the GL(n, q) relabelling of every input.

--trace 0 measures the end-to-end metrics: set-up is timed in several
fresh interpreters (median), then one worker repeats the workload's fixed
job set while another pass fits in --seconds.  Timings are medians over
passes.  --trace 1 runs one untraced and one traced pass in separate fresh
interpreters and reports the per-layer metrics and the tracing overhead.

Every answer is checked after timing.  Failures are printed to stderr and
counted in "failed" (failed jobs over attempted jobs); "correct" is false
when a job fails that is not one of the known defects in workloads.py.
The last line of stdout is one JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("extremal-search", "containment", "cli-batch")
SETUP_SAMPLES = 5          # fresh interpreters timed to "ready"; median
WORKER_TIMEOUT_S = 170


def run_worker(args, mode, workdir, deadline):
    """Run one worker to completion; returns (setup seconds, result)."""
    out = workdir.with_suffix(".result.json")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--workdir", str(workdir),
           "--out", str(out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(1.0, deadline - time.monotonic())):
                raise TimeoutError("worker %s set-up timed out" % mode)
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("worker %s exited %s" % (mode, proc.returncode))
    result = json.loads(out.read_text()) if mode != "setup" else None
    return setup_s, result


def p90(xs):
    """90th percentile, inclusive method."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def check_all(args, passes, workdir):
    """Check every answer and print each failing job; returns a Tally."""
    import checks
    import workloads as W

    if args.workload == "extremal-search":
        jobs = {j.name: j for j in W.EXTREMAL_JOBS}
        inputs = W.extremal_inputs(args.seed, W.EXTREMAL_JOBS)
        check = lambda j, a: checks.check_ex(j, a, inputs[j.name])
    elif args.workload == "containment":
        jobs = {j.name: j for j in W.CONTAINMENT_JOBS}
        inputs = W.containment_inputs(args.seed, W.CONTAINMENT_JOBS)
        check = lambda j, a: checks.check_contains(j, a, *inputs[j.name])
    else:
        jobs = {j.name: j for j in W.CLI_JOBS}
        ctx = checks.CliContext(W.cli_paths(workdir))
        check = lambda j, a: checks.check_cli(j, a, ctx)

    t = checks.tally(args.workload, passes, jobs, check)
    for name, errs in t.failing.items():
        tag = " [known defect]" if getattr(jobs[name], "known_defect",
                                           False) else ""
        print("FAIL %s %s%s: %s" % (args.workload, name, tag,
                                    "; ".join(errs)), file=sys.stderr)
    return t


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, setup_samples, result, solved):
    passes = result["passes"]
    per_job = {}
    for p in passes:
        for r in p["jobs"]:
            per_job.setdefault(r["name"], []).append(r["t"])
    job_t = sorted(statistics.median(ts) for ts in per_job.values())
    rss_kb = result["rss_children_kb" if args.workload == "cli-batch"
                    else "rss_self_kb"]
    print("# %s seed=%d: %d passes of %d jobs, %d set-up samples"
          % (args.workload, args.seed, len(passes), len(job_t),
             len(setup_samples)), file=sys.stderr)
    return {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "job_p50_s": metric(statistics.median(job_t), "s"),
        "job_p90_s": metric(p90(job_t), "s"),
        "job_max_s": metric(job_t[-1], "s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        "solved_exact": metric(solved, "count"),
    }


LAYER_UNITS = {"calls": "count", "yielded": "count", "nodes": "count",
               "spans": "count", "anchored_calls": "count", "self_s": "s",
               "startup_s": "s", "overhead_s": "s", "hit_ratio": "ratio",
               "nodes_per_s": "1/s"}


def per_layer(untraced, traced, workload):
    layers = dict(traced["layers"])
    if workload == "cli-batch":
        plain_wall = untraced["inprocess_wall_s"]
        layers["cli.startup_s"] = min(
            r["t"] for r in untraced["passes"][0]["jobs"])
    else:
        plain_wall = untraced["passes"][0]["wall_s"]
        layers["cli.startup_s"] = 0.0
    layers["trace.overhead_s"] = traced["passes"][0]["wall_s"] - plain_wall
    return {k: metric(v, LAYER_UNITS[k.rsplit(".", 1)[-1]])
            for k, v in sorted(layers.items())}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "qgeom" / "__init__.py").is_file():
        print("error: no qgeom package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    workdirs = []

    def workdir(name):
        d = outdir / ("%s-%s" % (tag, name))
        workdirs.append(d)
        return d

    try:
        if args.trace == 0:
            samples = [run_worker(args, "setup", workdir("setup%d" % i),
                                  deadline)[0]
                       for i in range(SETUP_SAMPLES - 1)]
            main_dir = workdir("run")
            setup_s, result = run_worker(args, "run", main_dir, deadline)
            samples.append(setup_s)
            tally = check_all(args, result["passes"], main_dir)
            metrics = end_to_end(args, samples, result, tally.solved_exact)
        else:
            _, untraced = run_worker(args, "once", workdir("once"), deadline)
            main_dir = workdir("traced")
            _, traced = run_worker(args, "traced", main_dir, deadline)
            tally = check_all(args, untraced["passes"] + traced["passes"],
                              main_dir)
            metrics = per_layer(untraced, traced, args.workload)
    finally:
        for d in workdirs:
            shutil.rmtree(d, ignore_errors=True)
            d.with_suffix(".result.json").unlink(missing_ok=True)
    print(json.dumps({"correct": tally.unexpected == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
