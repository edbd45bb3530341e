"""Answer checks.  Each returns a list of error strings; empty means correct.

The checks run after timing.  They compare answers with the known values in
workloads.py, verify every containment witness with verify_witness, and
re-check every extremal witness for H-freeness with a fresh unanchored
search.  Bound values are compared with an independent evaluation of the
documented formulas.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from qgeom import EmbeddingWitness, field_make, geometry_from_json, is_free
from qgeom import verify_witness

from workloads import (CLI_FILES, canon, rank, spec_chi, spec_size, true_ex,
                       vec_times)

DIGIT_CAP_BITS = 33333  # the package default: 10^4 digits at 10/3 bits each


def check_ex_answer(true_value, capped, n, ans, free):
    """Rules for any ex_q(H; n) answer, library or CLI.

    free(witness_json) re-checks H-freeness of the witness.
    """
    errs = []
    v, status, wit = ans["value"], ans["status"], ans["witness"]
    if status not in ("exact", "lower-bound"):
        errs.append("unknown status %r" % status)
    if len(wit["points"]) != v or wit["ambient"] != n:
        errs.append("witness has %d points in ambient %d, expected %d in %d"
                    % (len(wit["points"]), wit["ambient"], v, n))
    if v > true_value:
        errs.append("value %d exceeds the true ex %d" % (v, true_value))
    if status == "exact" and v != true_value:
        errs.append("status exact with value %d, true ex is %d"
                    % (v, true_value))
    if not capped and status != "exact":
        errs.append("uncapped search returned %r" % status)
    if not errs and not free(wit):
        errs.append("witness contains a copy of the forbidden geometry")
    return errs


def free_checker(H):
    def free(wit):
        return is_free(geometry_from_json(wit), H)
    return free


def check_ex(job, ans, H):
    return check_ex_answer(job.true_value, job.cap is not None, job.n, ans,
                           free_checker(H))


def witness_ok(G, H, w):
    if w is None:
        return False
    return verify_witness(G, H, EmbeddingWitness(
        map=tuple(tuple(r) for r in w["map"]),
        point_map=tuple(w["point_map"])))


def check_contains(job, ans, G, H):
    errs = []
    if ans["contained"] != job.contained:
        errs.append("contains returned %s, Bose-Burton says %s"
                    % (ans["contained"], job.contained))
    elif job.contained:
        if not ans["verified"]:
            errs.append("the job's own verify_witness rejected its witness")
        if not witness_ok(G, H, ans["witness"]):
            errs.append("witness fails verify_witness")
    return errs


# ------------------------------------------------------------------ bounds

def ceil_log2(r):
    """Smallest k with 2^k >= r, for a positive rational r."""
    r = Fraction(r)
    k = 0
    while Fraction(2) ** k < r:
        k += 1
    while Fraction(2) ** (k - 1) >= r:
        k -= 1
    return k


def ref_closed_form(m, c, eps):
    """T_c(m + d), d = ceil(log2(ceil(2 - log2 eps))), with the digit cap."""
    eps = Fraction(eps)
    d = ceil_log2(2 + ceil_log2(1 / eps))
    height, val = c, m + d
    while height > 0:
        if val > DIGIT_CAP_BITS:
            return {"kind": "tower-symbolic", "height": height,
                    "arg": str(val)}
        val, height = 2 ** val, height - 1
    return {"kind": "exact", "value": str(val)}


def ref_recursive(m, c, eps):
    """The q = 2 recursion max(t, R(r, c-1, 2^(2-c) - 2^(1-c)))."""
    eps = Fraction(eps)
    if c == 1:
        return 2 ** (m - 2) * (1 + ceil_log2(1 / eps))
    r = ref_recursive(m - c + 1, 1, eps / 2)
    lhs = Fraction(2 ** r - 1, 2 ** (c - 1))
    t = r
    while eps / 2 * (2 ** (t + 1) - 2 ** r) < lhs:
        t += 1
    nxt = Fraction(2) ** (2 - c) - Fraction(2) ** (1 - c)
    return max(t, ref_recursive(r, c - 1, nxt))


# --------------------------------------------------------------------- cli

class CliContext:
    """Loads the set-up files of one cli-batch run for witness checks."""

    def __init__(self, paths):
        self.paths = paths
        self._geoms = {}

    def geometry(self, name):
        if name not in self._geoms:
            with open(self.paths[name]) as fh:
                self._geoms[name] = geometry_from_json(json.load(fh))
        return self._geoms[name]

    def json(self, name):
        with open(self.paths[name]) as fh:
            return json.load(fh)


def _flat_ok(ctx, path, m, c, basis):
    """F is a rank-m flat with rank(F meet G) <= m - c."""
    obj = ctx.json(path)
    f = field_make(obj["q"])
    n = obj["ambient"]
    if len(basis) != m or any(len(r) != n for r in basis) \
            or rank(basis, f) != m:
        return False
    inside = {canon(p, f) for p in obj["points"]}
    hit = set()
    for coeffs in product(range(f.q), repeat=m):
        if any(coeffs):
            v = canon(vec_times(coeffs, basis, f), f)
            if v in inside:
                hit.add(v)
    return rank(list(hit), f) <= m - c


def _density_errs(ctx, forbid, lo, hi, out):
    spec = CLI_FILES[forbid]
    q = spec[2]
    rows = list(csv.DictReader(io.StringIO(out)))
    if [int(r["n"]) for r in rows] != list(range(lo, hi + 1)):
        return ["density rows %s" % [r.get("n") for r in rows]]
    limit = 1 - Fraction(1, q ** (spec_chi(spec) - 1))
    errs = []
    for r in rows:
        n = int(r["n"])
        total = (q ** n - 1) // (q - 1)
        want = [true_ex(spec, n), total, Fraction(true_ex(spec, n), total),
                limit, "exact"]
        got = [int(r["ex"]), int(r["total"]),
               Fraction(int(r["density_num"]), int(r["density_den"])),
               Fraction(int(r["limit_num"]), int(r["limit_den"])), r["status"]]
        if got != want:
            errs.append("density row n=%d: %s, expected %s" % (n, got, want))
    return errs


def check_cli(job, ans, ctx):
    code, out, err = ans["exit"], ans["stdout"], ans["stderr"]
    if code != job.exit:
        tail = err.strip().splitlines()[-1:] if err else []
        return ["exit %s, expected %d %s" % (code, job.exit, tail)]
    try:
        if job.exit == 2:
            obj = json.loads(err)
            if "error" not in obj or "message" not in obj:
                return ["stderr JSON lacks error/message"]
            if job.arg and obj["error"] != job.arg:
                return ["error %s, expected %s" % (obj["error"], job.arg)]
            return []
        return _check_stdout(job, out, ctx)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ["unparseable output: %s: %s" % (type(exc).__name__, exc)]


def _check_stdout(job, out, ctx):
    kind, arg = job.check, job.arg
    if kind == "text":
        return [] if out.strip() == arg else ["stdout %r" % out.strip()[:80]]
    if kind == "int":
        return [] if int(out) == arg else ["printed %s, expected %d"
                                           % (out.strip(), arg)]
    if kind == "geometry":
        obj = json.loads(out)
        ok = obj["q"] == arg[2] and obj["ambient"] == arg[1] and \
            len(obj["points"]) == spec_size(arg)
        return [] if ok else ["made a geometry of the wrong size"]
    if kind == "witness":
        host, guest = arg
        w = json.loads(out)
        if witness_ok(ctx.geometry(host), ctx.geometry(guest), w):
            return []
        return ["witness fails verify_witness"]
    if kind == "extremal":
        forbid, n, cap = arg
        H = ctx.geometry(forbid)
        return check_ex_answer(true_ex(CLI_FILES[forbid], n), cap is not None,
                               n, json.loads(out), free_checker(H))
    if kind == "density":
        return _density_errs(ctx, *arg, out)
    if kind == "flat":
        path, m, c = arg
        obj = json.loads(out)
        if obj["rank"] == m and _flat_ok(ctx, path, m, c, obj["basis"]):
            return []
        return ["flat is not a sparse rank-%d flat" % m]
    if kind == "bounds_closed-form":
        m, c, eps = arg
        want = ref_closed_form(m, c, eps)
        got = json.loads(out)
        return [] if got == want else ["bound %s, expected %s"
                                       % (str(got)[:80], str(want)[:80])]
    if kind == "bounds_recursive":
        m, c, eps = arg
        got = json.loads(out)
        want = str(ref_recursive(m, c, eps))
        ok = got["kind"] == "exact" and got["value"] == want
        return [] if ok else ["recursive bound %s" % str(got)[:80]]
    raise KeyError("unknown check %r" % kind)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0     # failures of jobs that are not known defects
    solved_exact: int = 0   # jobs with a proved exact answer in every pass
    failing: dict = field(default_factory=dict)  # job name -> errors


def tally(workload, passes, jobs, check):
    """Check every job result of every pass; identical answers are checked
    once.  A job fails on a wrong answer, a witness that does not verify,
    an unexpected exit code or an uncaught exception."""
    t = Tally()
    seen = {}
    exact = dict.fromkeys(jobs, True)
    for p in passes:
        for r in p["jobs"]:
            name, ans = r["name"], r["answer"]
            key = (name, json.dumps(ans, sort_keys=True))
            if key not in seen:
                seen[key] = ["raised %s" % ans["exception"]] \
                    if "exception" in ans else check(jobs[name], ans)
            errs = seen[key]
            t.attempted += 1
            if errs:
                t.failed += 1
                t.unexpected += not getattr(jobs[name], "known_defect", False)
                t.failing.setdefault(name, errs)
            if errs or not solved_exact(workload, jobs[name], ans):
                exact[name] = False
    t.solved_exact = sum(exact.values())
    return t


def solved_exact(job_kind, job, ans):
    """True when a passing answer is a proved exact result."""
    if job_kind == "extremal-search":
        return ans["status"] == "exact"
    if job_kind == "containment":
        return True
    if job.exit == 2:
        return False
    if job.check == "extremal":
        return json.loads(ans["stdout"])["status"] == "exact"
    return True
