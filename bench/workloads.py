"""Workload definitions: instances, known answers and seeded inputs.

Every input geometry is relabelled by a random invertible matrix in
GL(n, q) drawn from the workload seed.  Containment, critical exponents and
extremal numbers are invariant under that relabelling, so the known answers
below hold for every seed while the embedding search meets host and guest
points in a different order.

Known answers come from theory, not from the program:

- Bose-Burton: ex_q(PG(m-1, q); n) = |G(n-1, q, m-1)|, and G(n-1, q, c)
  contains PG(m-1, q) exactly when c >= m.
- ex_3(AG(1, 3); n) is the largest cap in PG(n-1, 3): 2, 4, 10, 20 for
  n = 2..5.
- The critical exponent of G(m-1, q, c) is c (AG is c = 1, PG is c = m).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from qgeom import field_make, geometry_from_json, geometry_to_json
from qgeom import make_ag, make_g, make_pg

# Largest caps in PG(n-1, 3); index n.
CAP3 = {2: 2, 3: 4, 4: 10, 5: 20}


def g_size(n, q, c):
    """|G(n-1, q, c)| = (q^n - q^(n-c)) / (q - 1)."""
    return (q ** n - q ** (n - c)) // (q - 1)


def spec_size(spec):
    return g_size(spec[1], spec[2], spec_chi(spec))


def spec_chi(spec):
    """Critical exponent of a PG/AG/G spec."""
    kind, m = spec[0], spec[1]
    return {"pg": m, "ag": 1, "g": spec[-1]}[kind]


def true_ex(spec, n):
    """Known ex_q(H; n) for the forbidden geometries the workloads use."""
    kind, m, q = spec[:3]
    if kind == "pg":
        return g_size(n, q, m - 1)
    if spec == ("ag", 2, 3):
        return CAP3[n]
    raise KeyError("no known ex value for %r" % (spec,))


def build(spec):
    kind, m, q = spec[:3]
    f = field_make(q)
    if kind == "pg":
        return make_pg(m, f)
    if kind == "ag":
        return make_ag(m, f)
    return make_g(m, f, spec[3])


# Linear algebra over GF(q) for relabelling and checking.  It uses only the
# field's add/mul/inv so that it does not share code with the program's
# projective layer.

def canon(v, f):
    """Scale v so its first nonzero coordinate is 1."""
    lead = next(c for c in v if c)
    s = f.inv(lead)
    return tuple(f.mul(s, x) for x in v)


def vec_times(v, M, f):
    w = [0] * len(M[0])
    for a, row in zip(v, M):
        if a:
            w = [f.add(x, f.mul(a, y)) for x, y in zip(w, row)]
    return w


def rank(rows, f):
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = f.inv(rows[r][col])
        rows[r] = [f.mul(s, x) for x in rows[r]]
        for i in range(r + 1, len(rows)):
            a = rows[i][col]
            if a:
                rows[i] = [f.sub(x, f.mul(a, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def random_gl(n, f, rng):
    """A uniformly drawn invertible n x n matrix over GF(q)."""
    while True:
        M = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
        if rank(M, f) == n:
            return M


def relabel_json(obj, rng):
    """A geometry JSON object moved by a random element of GL(ambient, q)."""
    f = field_make(obj["q"])
    M = random_gl(obj["ambient"], f, rng)
    out = dict(obj)
    out["points"] = [list(canon(vec_times(p, M, f), f)) for p in obj["points"]]
    return out


def relabel(H, rng):
    return geometry_from_json(relabel_json(geometry_to_json(H), rng))


def instance_rng(seed, workload, name):
    return random.Random("%d:%s:%s" % (seed, workload, name))


# ---------------------------------------------------------------- extremal

@dataclass(frozen=True)
class ExJob:
    name: str
    forbid: tuple   # spec of H
    n: int
    cap: int | None  # node cap; None runs to the exact answer

    @property
    def true_value(self):
        return true_ex(self.forbid, self.n)


# Caps are fixed once set and never shrunk: a faster search shows up as a
# lower wall time, or as more instances solved exactly within the cap.
EXTREMAL_JOBS = [
    ExJob("ex_pg12_n4", ("pg", 2, 2), 4, None),
    ExJob("ex_pg22_n4", ("pg", 3, 2), 4, None),
    ExJob("ex_ag13_n3", ("ag", 2, 3), 3, None),
    ExJob("ex_pg13_n3", ("pg", 2, 3), 3, None),
    ExJob("ex_pg12_n5_cap2000", ("pg", 2, 2), 5, 2000),
    ExJob("ex_ag13_n4_cap2000", ("ag", 2, 3), 4, 2000),
    ExJob("ex_pg22_n5_cap100", ("pg", 3, 2), 5, 100),
]
EXTREMAL_WARMUP = ExJob("warmup_ex_ag13_n3", ("ag", 2, 3), 3, None)


def extremal_inputs(seed, jobs):
    return {j.name: relabel(build(j.forbid), instance_rng(seed, "ex", j.name))
            for j in jobs}


# ------------------------------------------------------------- containment

@dataclass(frozen=True)
class ContainsJob:
    name: str
    host: tuple
    guest: tuple
    contained: bool


# Negatives are proved by Bose-Burton (G(n-1, q, c) has no PG(m-1, q) when
# c <= m-1) and make the search exhaust the whole host; positives stop at
# the first witness, which the job then checks with verify_witness.
CONTAINMENT_JOBS = [
    ContainsJob("no_g522_pg22", ("g", 6, 2, 2), ("pg", 3, 2), False),
    ContainsJob("no_g332_pg23", ("g", 4, 3, 2), ("pg", 3, 3), False),
    ContainsJob("no_ag35_pg15", ("ag", 4, 5), ("pg", 2, 5), False),
    ContainsJob("no_ag43_pg13", ("ag", 5, 3), ("pg", 2, 3), False),
    ContainsJob("no_g422_pg22", ("g", 5, 2, 2), ("pg", 3, 2), False),
    ContainsJob("no_ag34_pg14", ("ag", 4, 4), ("pg", 2, 4), False),
    ContainsJob("yes_pg42_pg22", ("pg", 5, 2), ("pg", 3, 2), True),
    ContainsJob("yes_pg33_ag23", ("pg", 4, 3), ("ag", 3, 3), True),
    ContainsJob("yes_pg34_g242", ("pg", 4, 4), ("g", 3, 4, 2), True),
    ContainsJob("yes_g432_ag23", ("g", 5, 3, 2), ("ag", 3, 3), True),
]
CONTAINMENT_WARMUP = ContainsJob("warmup_no_g322_pg22", ("g", 4, 2, 2),
                                 ("pg", 3, 2), False)


def containment_inputs(seed, jobs):
    out = {}
    for j in jobs:
        rng = instance_rng(seed, "contains", j.name)
        out[j.name] = (relabel(build(j.host), rng), relabel(build(j.guest), rng))
    return out


# --------------------------------------------------------------- cli-batch

# Geometry files written by `qgeom make` during set-up, then relabelled.
CLI_FILES = {
    "line2": ("pg", 2, 2), "fano": ("pg", 3, 2), "ag22": ("ag", 3, 2),
    "g322": ("g", 4, 2, 2), "pg32": ("pg", 4, 2), "g422": ("g", 5, 2, 2),
    "ag13": ("ag", 2, 3), "line3": ("pg", 2, 3), "pg23": ("pg", 3, 3),
    "ag23": ("ag", 3, 3), "line4": ("pg", 2, 4), "ag24": ("ag", 3, 4),
    "g523": ("g", 6, 2, 3), "g524": ("g", 6, 2, 4), "pg62": ("pg", 7, 2),
    "pg25": ("pg", 3, 5),
}


def make_argv(spec):
    kind, m, q = spec[:3]
    argv = ["make", kind, "-m", str(m), "-q", str(q)]
    return argv + (["-c", str(spec[3])] if kind == "g" else [])


# A one-point geometry in a large ambient: the loader builds the whole
# point index map for it.
ONEPT18 = {"q": 2, "p": 2, "k": 1, "modulus": [], "ambient": 18,
           "points": [[1] + [0] * 17]}

# Malformed inputs, written as they are.
MALFORMED_FILES = {
    "points5": {"q": 2, "p": 2, "k": 1, "modulus": [], "ambient": 3,
                "points": 5},
    "badq": {"q": 6, "p": 2, "k": 1, "modulus": [], "ambient": 2,
             "points": [[1, 0]]},
    "badmod": {"q": 4, "p": 2, "k": 2, "modulus": [1, 0, 1], "ambient": 2,
               "points": [[1, 0]]},
    "dup": {"q": 3, "p": 3, "k": 1, "modulus": [], "ambient": 2,
            "points": [[1, 1], [2, 2]]},
    "coord": {"q": 3, "p": 3, "k": 1, "modulus": [], "ambient": 2,
              "points": [[1, 3]]},
    "badjson": "{not json",
}


@dataclass(frozen=True)
class CliJob:
    name: str
    argv: tuple      # "@file" stands for the path of a set-up file
    exit: int
    check: str       # what stdout must hold; see checks.check_cli
    arg: object = None
    known_defect: bool = False


def _cli_jobs():
    jobs = []
    for spec in [("pg", 3, 2), ("ag", 3, 3), ("g", 4, 2, 2), ("pg", 3, 4),
                 ("ag", 4, 2), ("g", 5, 3, 2)]:
        jobs.append(CliJob("make_" + "".join(map(str, spec)),
                           tuple(make_argv(spec)), 0, "geometry", spec))
    # PG(6,2) is left out: its critical exponent scans every flat of every
    # rank (3 s); the sparse-flat job on that file covers flat enumeration.
    for name, spec in CLI_FILES.items():
        if name != "pg62":
            jobs.append(CliJob("critical_" + name, ("critical", "@" + name),
                               0, "int", spec_chi(spec)))
    jobs.append(CliJob("critical_onept18", ("critical", "@onept18"), 0,
                       "int", 1))
    contains = [("fano", "line2"), ("pg32", "fano"), ("g322", "line2"),
                ("g422", "line2"), ("pg23", "ag23"), ("pg23", "line3"),
                ("ag23", "ag13"), ("line3", "ag13"), ("g523", "fano"),
                ("pg62", "g422"), ("ag24", "ag22"), ("pg25", "line2"),
                ("ag22", "line2"), ("g322", "fano"), ("g422", "fano"),
                ("ag23", "line3"), ("ag24", "line4"), ("fano", "pg32"),
                ("ag13", "line3"), ("line2", "line3")]
    for host, guest in contains:
        hs, gs = CLI_FILES[host], CLI_FILES[guest]
        if hs[2] != gs[2]:
            jobs.append(CliJob("contains_%s_%s" % (host, guest),
                               ("contains", "@" + host, "@" + guest), 2,
                               "error", "FieldMismatch"))
            continue
        yes = _bose_burton_contains(hs, gs)
        jobs.append(CliJob("contains_%s_%s" % (host, guest),
                           ("contains", "@" + host, "@" + guest),
                           0 if yes else 1, "witness" if yes else "text",
                           (host, guest) if yes else "not-contained"))
    for forbid, n, cap in [("line2", 3, None), ("line2", 4, None),
                           ("ag13", 2, None), ("ag13", 3, None),
                           ("line3", 3, None), ("fano", 3, None),
                           ("line4", 2, None), ("line2", 5, 500)]:
        argv = ("extremal", "@" + forbid, "-n", str(n))
        if cap:
            argv += ("--node-cap", str(cap))
        jobs.append(CliJob("extremal_%s_n%d" % (forbid, n), argv, 0,
                           "extremal", (forbid, n, cap)))
    for forbid, lo, hi in [("line2", 2, 4), ("ag13", 2, 3), ("line3", 2, 3),
                           ("fano", 3, 3)]:
        jobs.append(CliJob("density_%s_%d_%d" % (forbid, lo, hi),
                           ("density", "@" + forbid, "--n-min", str(lo),
                            "--n-max", str(hi)), 0, "density",
                           (forbid, lo, hi)))
    for path, m, c, found in [("pg62", 3, 1, False), ("fano", 2, 1, False),
                              ("pg23", 2, 1, False), ("pg32", 3, 2, False),
                              ("g322", 2, 1, True), ("g422", 3, 2, True),
                              ("ag23", 2, 1, True), ("ag24", 2, 1, True)]:
        jobs.append(CliJob("sparse_flat_%s_m%d_c%d" % (path, m, c),
                           ("sparse-flat", "@" + path, "-m", str(m), "-c",
                            str(c)), 0 if found else 1,
                           "flat" if found else "text",
                           (path, m, c) if found else "not-found"))
    for mode, cases in [
            ("closed-form", [(3, 1, "1/4"), (4, 1, "1/2"), (5, 2, "1/4"),
                             (6, 2, "1/8"), (3, 2, "1/2"), (10, 1, "1/16"),
                             (8, 3, "1/2"), (20, 2, "1/2"), (4, 3, "1/4"),
                             (12, 1, "1/1024"), (7, 2, "1/3"), (5, 4, "1/2"),
                             (30, 2, "1/2"), (6, 3, "3/7")]),
            ("recursive", [(3, 2, "1/2"), (4, 2, "1/4"), (5, 2, "1/2"),
                           (6, 2, "1/8"), (8, 2, "1/2"), (9, 2, "1/3"),
                           (10, 2, "1/2"), (10, 2, "1/4")])]:
        for m, c, eps in cases:
            jobs.append(CliJob(
                "bounds_%s_m%d_c%d_%s" % (mode, m, c, eps.replace("/", "_")),
                ("bounds", "-q", "2", "-m", str(m), "-c", str(c), "--eps",
                 eps, "--mode", mode), 0, "bounds_" + mode, (m, c, eps)))
    errors = [
        ("make_q6", ("make", "pg", "-m", "3", "-q", "6"), "NotPrimePower"),
        ("make_q32", ("make", "pg", "-m", "3", "-q", "32"), "Unsupported"),
        ("make_g_no_c", ("make", "g", "-m", "3", "-q", "2"), "ValueError"),
        ("critical_badjson", ("critical", "@badjson"), "JSONDecodeError"),
        ("critical_missing", ("critical", "@missing"), "FileNotFoundError"),
        ("critical_badq", ("critical", "@badq"), "NotPrimePower"),
        ("critical_badmod", ("critical", "@badmod"), "ValueError"),
        ("critical_dup", ("critical", "@dup"), "ValueError"),
        ("critical_coord", ("critical", "@coord"), "ValueError"),
        ("bounds_q3", ("bounds", "-q", "3", "-m", "3", "-c", "1",
                       "--eps", "1/2"), "ValueError"),
        ("bounds_eps0", ("bounds", "-q", "2", "-m", "3", "-c", "1",
                         "--eps", "0"), "ValueError"),
        ("bounds_m_le_c", ("bounds", "-q", "2", "-m", "2", "-c", "2",
                           "--eps", "1/2"), "ValueError"),
        ("threads_0", ("--threads", "0", "critical", "@fano"), "ValueError"),
    ]
    for name, argv, err in errors:
        jobs.append(CliJob("error_" + name, argv, 2, "error", err))
    # ROADMAP item 4: each dies with a traceback and exit 1 today, where the
    # documented behaviour is exit 2 with a JSON error.
    for name, argv in [
            ("make_g_c7", ("make", "g", "-m", "3", "-q", "2", "-c", "7")),
            ("extremal_n0", ("extremal", "@line2", "-n", "0")),
            ("sparse_flat_m5_rank3", ("sparse-flat", "@fano", "-m", "5",
                                      "-c", "1")),
            ("critical_points5", ("critical", "@points5"))]:
        jobs.append(CliJob("defect_" + name, argv, 2, "error", None,
                           known_defect=True))
    return jobs


def _bose_burton_contains(host, guest):
    """Containment answer for the PG/AG/G pairs the CLI batch uses."""
    if spec_size(guest) > spec_size(host) or guest[1] > host[1]:
        return False
    if guest[0] == "pg":
        return spec_chi(host) >= guest[1]
    # An AG or G guest of rank m fits in any host that contains PG(m-1, q),
    # and in AG(m', q) with m' >= m when the guest is itself affine.
    if host[0] == "pg" or spec_chi(host) >= guest[1]:
        return True
    return guest[0] == "ag" and host[0] == "ag"


CLI_JOBS = _cli_jobs()
CLI_WARMUP = CliJob("warmup_bounds", ("bounds", "-q", "2", "-m", "3", "-c",
                                      "1", "--eps", "1/4"), 0,
                    "bounds_closed-form", (3, 1, "1/4"))
# `bounds --mode recursive -m 10 -c 3` is not run: it never returns (see
# known_defects in rationale.json).


def cli_paths(workdir):
    """Path of every cli-batch input, by name; "missing" is never written."""
    names = list(CLI_FILES) + ["onept18"] + list(MALFORMED_FILES) + ["missing"]
    return {name: workdir / (name + ".json") for name in names}


def write_cli_files(workdir, seed, run_make):
    """Write every cli-batch input under workdir; returns cli_paths.

    run_make(argv) runs one `qgeom make` command; its output is then
    relabelled by a seeded GL(n, q) element and written back.
    """
    paths = cli_paths(workdir)
    for name, spec in CLI_FILES.items():
        path = paths[name]
        run_make(make_argv(spec) + ["-o", str(path)])
        obj = relabel_json(json.loads(path.read_text()),
                           instance_rng(seed, "cli", name))
        path.write_text(json.dumps(obj) + "\n")
    onept = relabel_json(ONEPT18, instance_rng(seed, "cli", "onept18"))
    paths["onept18"].write_text(json.dumps(onept) + "\n")
    for name, obj in MALFORMED_FILES.items():
        paths[name].write_text(obj if isinstance(obj, str)
                               else json.dumps(obj) + "\n")
    return paths


def expand_argv(job, paths):
    return [str(paths[a[1:]]) if a.startswith("@") else a for a in job.argv]
