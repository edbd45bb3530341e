"""Batch command-line front end.

Subcommands: make, critical, contains, extremal, density, sparse-flat,
bounds.  Geometries travel as JSON files in the documented schema; exact
rationals cross the boundary as "num/den" strings.  Exit codes: 0 success,
1 negative answer (contains / sparse-flat found nothing), 2 on any parse
or contract failure, argparse usage errors included, reported as a
machine-readable error object.

bounds --eps takes a positive integer or "num/den", at most
MAX_EPS_DIGITS digits each; the bounds refuse (InvalidEpsilon) a value
above 1, and --mode recursive refuses (Unsupported) a recursion level
whose rank has more bits than the digit cap.
bounds prints every integer in full, also past the 4,300 digits that
str() refuses by default since Python 3.11.

Each subcommand imports the modules it uses when it runs, so a process
pays start-up only for those.
"""

import argparse
import json
import re
import sys

from .errors import QgeomError

# --eps is checked on its text, so no exponent form such as 1e-9999999
# can make Fraction build a huge power of ten.
MAX_EPS_DIGITS = 1000


def _load_geometry(path):
    from .geometry import geometry_from_json
    with open(path) as fh:
        return geometry_from_json(json.load(fh))


def _parse_eps(text):
    from fractions import Fraction
    digits = "([0-9]{1,%d})" % MAX_EPS_DIGITS
    match = re.fullmatch(digits + "(?:/" + digits + ")?", text)
    if match is None:
        raise ValueError('eps must be an integer or "num/den" with at most '
                         '%d digits each' % MAX_EPS_DIGITS)
    num, den = int(match[1]), int(match[2] or 1)
    if num == 0 or den == 0:
        raise ValueError("eps must be a positive rational")
    return Fraction(num, den)


def _write_out(args, text):
    """Write text to the -o/--out file, or to stdout without one."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_make(args):
    from .field import field_make
    from .geometry import geometry_to_json, make_ag, make_g, make_pg
    f = field_make(args.q)
    if args.family != "g" and args.c is not None:
        raise ValueError("family %s takes no -c" % args.family)
    if args.family == "pg":
        H = make_pg(args.m, f)
    elif args.family == "ag":
        H = make_ag(args.m, f)
    else:
        if args.c is None:
            raise ValueError("family g needs -c")
        H = make_g(args.m, f, args.c)
    _write_out(args, json.dumps(geometry_to_json(H), indent=2) + "\n")
    return 0


def cmd_critical(args):
    from .geometry import critical_exponent
    H = _load_geometry(args.path)
    print(critical_exponent(H))
    return 0


def cmd_contains(args):
    from .embed import contains
    host = _load_geometry(args.host)
    guest = _load_geometry(args.guest)
    w = contains(host, guest)
    if w is None:
        print("not-contained")
        return 1
    print(json.dumps({"map": [list(r) for r in w.map],
                      "point_map": list(w.point_map)}))
    return 0


def _budget_from_args(args):
    from .extremal import Budget
    return Budget(node_cap=args.node_cap, time_cap=args.time_cap)


def cmd_extremal(args):
    from .extremal import ex_exact
    from .geometry import geometry_to_json
    H = _load_geometry(args.forbid)
    res = ex_exact(H, args.n, budget=_budget_from_args(args))
    print(json.dumps({
        "value": res.value,
        "status": res.status,
        "nodes": res.nodes,
        "witness": geometry_to_json(res.witness),
    }, indent=2))
    return 0


def cmd_density(args):
    from .extremal import density_rows_to_csv, density_table
    H = _load_geometry(args.forbid)
    rows = density_table(H, range(args.n_min, args.n_max + 1),
                         budget=_budget_from_args(args))
    _write_out(args, density_rows_to_csv(rows))
    return 0


def cmd_sparse_flat(args):
    from .extremal import find_sparse_flat
    G = _load_geometry(args.path)
    F = find_sparse_flat(G, args.m, args.c)
    if F is None:
        print("not-found")
        return 1
    print(json.dumps({"basis": [list(r) for r in F.basis], "rank": F.rank}))
    return 0


def cmd_bounds(args):
    from .bounds import r_main2_binary, r_main2_recursive
    eps = _parse_eps(args.eps)
    if args.q != 2:
        raise ValueError("bounds are only available in closed form for q = 2")
    if not args.m > args.c >= 1:
        raise ValueError("bounds need m > c >= 1")
    # str() refuses ints past 4,300 digits by default since Python 3.11
    # (3.10 has no limit); exact values print in full, so lift it here
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.mode == "closed-form":
            v = r_main2_binary(args.m, args.c, eps)
            if v.kind == "exact":
                out = {"kind": "exact", "value": str(v.value)}
            else:
                out = {"kind": "tower-symbolic", "height": v.height,
                       "arg": str(v.arg)}
        else:
            rb = r_main2_recursive(args.m, args.c, eps)
            trace = [{"c": lv.c, "m": lv.m,
                      "eps": "%d/%d" % (lv.eps.numerator, lv.eps.denominator),
                      "r": lv.r, "t": lv.t, "value": lv.value}
                     for lv in rb.trace]
            out = {"kind": "exact", "value": str(rb.value.value),
                   "trace": trace}
        print(json.dumps(out))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


# usage errors leave through main's one handler: JSON on stderr, exit 2
class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def build_parser():
    ap = _Parser(prog="qgeom", description="exact finite-geometry toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    out = _Parser(add_help=False)
    out.add_argument("-o", "--out")
    budget = _Parser(add_help=False)
    budget.add_argument("--node-cap", type=int, default=10 ** 8)
    budget.add_argument("--time-cap", type=float, default=None)

    p = sub.add_parser("make", parents=[out],
                       help="write a PG/AG/G geometry file")
    p.add_argument("family", choices=["pg", "ag", "g"])
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-c", type=int)
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("critical", help="critical exponent of a geometry file")
    p.add_argument("path")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("contains", help="restriction containment with witness")
    p.add_argument("host")
    p.add_argument("guest")
    p.set_defaults(func=cmd_contains)

    p = sub.add_parser("extremal", parents=[budget],
                       help="exact ex_q(H; n) by branch-and-bound")
    p.add_argument("forbid")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("density", parents=[budget, out],
                       help="density table CSV over a rank range")
    p.add_argument("forbid")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("sparse-flat",
                       help="rank-m flat meeting the geometry in rank <= m-c")
    p.add_argument("path")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.set_defaults(func=cmd_sparse_flat)

    p = sub.add_parser("bounds", help="tower / recursion bound values (q = 2)")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.add_argument("--eps", required=True, help='exact rational, e.g. "1/4"')
    p.add_argument("--mode", choices=["closed-form", "recursive"],
                   default="closed-form")
    p.set_defaults(func=cmd_bounds)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (QgeomError, ValueError, KeyError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
