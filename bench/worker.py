"""One benchmark process: set up a workload, then run its fixed job set.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src.  It prints "ready" once set-up is done (run.py times
set-up up to that line), then runs in one of these modes and writes a JSON
result file:

  setup   stop after set-up
  run     repeat the job set while another pass fits in --seconds
  once    one untraced pass; cli-batch also replays in-process
  traced  one traced pass; cli-batch replays in-process

Jobs run one after another in this process (cli-batch: one `python -m
qgeom` child at a time), with no threads: a closed loop with one client.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads as W

CLI_TIMEOUT_S = 120


# ------------------------------------------------------------------- jobs

def run_ex(job, H):
    from qgeom import Budget, ex_exact, geometry_to_json
    budget = Budget(node_cap=job.cap) if job.cap else Budget()
    t0 = time.perf_counter()
    r = ex_exact(H, job.n, budget=budget)
    t = time.perf_counter() - t0
    return t, {"value": r.value, "status": r.status, "nodes": r.nodes,
               "witness": geometry_to_json(r.witness)}


def run_contains(job, pair):
    from qgeom import contains, verify_witness
    G, H = pair
    t0 = time.perf_counter()
    w = contains(G, H)
    verified = verify_witness(G, H, w) if w is not None else None
    t = time.perf_counter() - t0
    return t, {"contained": w is not None, "verified": verified,
               "witness": None if w is None else
               {"map": [list(r) for r in w.map],
                "point_map": list(w.point_map)}}


def run_cli_subprocess(argv):
    t0 = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, "-m", "qgeom", *argv],
                           capture_output=True, text=True,
                           timeout=CLI_TIMEOUT_S)
        code, out, err = p.returncode, p.stdout, p.stderr
    except subprocess.TimeoutExpired:
        code, out, err = "timeout", "", ""
    return time.perf_counter() - t0, {"exit": code, "stdout": out,
                                      "stderr": err}


def lru_caches():
    """The program's memoized functions, found before any wrapping."""
    return [v for m in tracing.qgeom_modules() for v in vars(m).values()
            if hasattr(v, "cache_clear")]


def run_cli_inprocess(argv, caches):
    """qgeom.cli.main(argv) with every cache cleared, as a new process has."""
    import qgeom.cli
    for c in caches:
        c.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qgeom.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
        except Exception:  # an uncaught error: the CLI would exit 1
            traceback.print_exc()
            code = 1
    t = time.perf_counter() - t0
    return t, {"exit": code, "stdout": out.getvalue(),
               "stderr": err.getvalue()}


# ---------------------------------------------------------------- set-up

def setup(workload, seed, workdir):
    """Build inputs and run one untimed warm-up job; returns a runner.

    The runner maps an in_process flag to a list of (job name, callable).
    """
    if workload == "extremal-search":
        inputs = W.extremal_inputs(seed, W.EXTREMAL_JOBS + [W.EXTREMAL_WARMUP])
        run_ex(W.EXTREMAL_WARMUP, inputs[W.EXTREMAL_WARMUP.name])
        return lambda in_process: [
            (j.name, lambda j=j: run_ex(j, inputs[j.name]))
            for j in W.EXTREMAL_JOBS]
    if workload == "containment":
        inputs = W.containment_inputs(
            seed, W.CONTAINMENT_JOBS + [W.CONTAINMENT_WARMUP])
        run_contains(W.CONTAINMENT_WARMUP, inputs[W.CONTAINMENT_WARMUP.name])
        return lambda in_process: [
            (j.name, lambda j=j: run_contains(j, inputs[j.name]))
            for j in W.CONTAINMENT_JOBS]
    if workload == "cli-batch":
        def make(argv):
            t, ans = run_cli_subprocess(argv)
            if ans["exit"] != 0:
                raise RuntimeError("set-up failed: qgeom %s: %s"
                                   % (" ".join(argv), ans["stderr"][-500:]))
        paths = W.write_cli_files(workdir, seed, make)
        run_cli_subprocess(W.expand_argv(W.CLI_WARMUP, paths))
        caches = lru_caches()

        def jobs(in_process):
            run = (lambda a: run_cli_inprocess(a, caches)) if in_process \
                else run_cli_subprocess
            return [(j.name, lambda a=W.expand_argv(j, paths): run(a))
                    for j in W.CLI_JOBS]
        return jobs
    raise KeyError(workload)


def run_pass(jobs):
    t0 = time.perf_counter()
    results = []
    for name, fn in jobs:
        t_job = time.perf_counter()
        try:
            t, ans = fn()
        except Exception as exc:  # the job fails; the run goes on
            t = time.perf_counter() - t_job
            ans = {"exception": "%s: %s" % (type(exc).__name__, exc)}
        results.append({"name": name, "t": t, "answer": ans})
    return {"wall_s": time.perf_counter() - t0, "jobs": results}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "once", "traced"],
                    required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    jobs = setup(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    cli = args.workload == "cli-batch"
    result = {}
    if args.mode == "run":
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(jobs(False)))
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - start + typical > args.seconds:
                break
        result["passes"] = passes
    elif args.mode == "once":
        result["passes"] = [run_pass(jobs(False))]
        if cli:
            result["inprocess_wall_s"] = run_pass(jobs(True))["wall_s"]
    else:
        tracer = tracing.install(tracing.Tracer())
        result["passes"] = [run_pass(jobs(cli))]
        result["layers"] = tracing.layer_metrics(tracer)
        # One file per workload, overwritten by its next traced run.
        tracer.write(args.workdir.parent / ("spans-" + args.workload))
    result["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["rss_children_kb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
