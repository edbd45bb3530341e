import contextlib
import io
import json
import os
import pickle
import resource
import subprocess
import sys
from datetime import timedelta
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgeom
from qgeom import FieldSpec, Geometry, QgeomError, geometry_from_json
from qgeom.cli import main


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "qgeom", *args],
                          capture_output=True, text=True, **kw)


def test_make_then_critical_pipeline(tmp_path):
    path = tmp_path / "pg32.json"
    r = run_cli("make", "pg", "-m", "3", "-q", "2", "-o", str(path))
    assert r.returncode == 0
    r = run_cli("critical", str(path))
    assert r.returncode == 0
    assert r.stdout.strip() == "3"


def test_make_round_trip_is_byte_identical(tmp_path):
    path = tmp_path / "g.json"
    run_cli("make", "g", "-m", "3", "-q", "3", "-c", "2", "-o", str(path))
    first = path.read_text()
    obj = json.loads(first)
    # re-serialize through the same command: must be byte-identical
    path2 = tmp_path / "g2.json"
    run_cli("make", "g", "-m", "3", "-q", "3", "-c", "2", "-o", str(path2))
    assert path2.read_text() == first
    assert obj["q"] == 3 and len(obj["points"]) == 12


def test_contains_exit_codes(tmp_path):
    host = tmp_path / "host.json"
    guest = tmp_path / "guest.json"
    run_cli("make", "pg", "-m", "3", "-q", "2", "-o", str(host))
    run_cli("make", "pg", "-m", "2", "-q", "2", "-o", str(guest))
    r = run_cli("contains", str(host), str(guest))
    assert r.returncode == 0
    w = json.loads(r.stdout)
    assert set(w) == {"map", "point_map"}

    ag = tmp_path / "ag.json"
    run_cli("make", "ag", "-m", "3", "-q", "2", "-o", str(ag))
    r = run_cli("contains", str(ag), str(guest))
    assert r.returncode == 1
    assert r.stdout.strip() == "not-contained"

    r = run_cli("contains", str(host), str(tmp_path / "missing.json"))
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert "error" in err


def test_invalid_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 6, "p": 2, "k": 1, "modulus": [], '
                   '"ambient": 2, "points": [[1, 0]]}')
    r = run_cli("critical", str(bad))
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "NotPrimePower"

    line = tmp_path / "line.json"
    fano = tmp_path / "fano.json"
    run_cli("make", "pg", "-m", "2", "-q", "2", "-o", str(line))
    run_cli("make", "pg", "-m", "3", "-q", "2", "-o", str(fano))
    scalar = tmp_path / "scalar.json"
    scalar.write_text('{"q": 2, "p": 2, "k": 1, "modulus": [], '
                      '"ambient": 3, "points": 5}')
    top_list = tmp_path / "top_list.json"
    top_list.write_text('[{"q": 2, "p": 2, "k": 1, "modulus": [], '
                        '"ambient": 2, "points": [[1, 0]]}]')
    list_coord = tmp_path / "list_coord.json"
    list_coord.write_text('{"q": 2, "p": 2, "k": 1, "modulus": [], '
                          '"ambient": 2, "points": [[[1], 0]]}')
    empty = tmp_path / "empty.json"
    empty.write_text('{"q": 2, "p": 2, "k": 1, "modulus": [], '
                     '"ambient": 2, "points": []}')
    for argv in (["make", "g", "-m", "3", "-q", "2", "-c", "7"],
                 ["extremal", str(line), "-n", "0"],
                 ["sparse-flat", str(fano), "-m", "5", "-c", "1"],
                 ["critical", str(scalar)],
                 ["critical", str(top_list)],
                 ["critical", str(list_coord)],
                 ["extremal", str(empty), "-n", "2"],
                 ["make", "pg", "-m", "8", "-q", "16"],
                 ["make", "pg", "-m", "3", "-q", "2305843009213693951"],
                 ["make", "pg", "-m", "-3", "-q", "2"],
                 ["make", "pg", "-m", "0", "-q", "2"],
                 # usage errors, which argparse reports itself
                 ["make", "pg", "-m", "x", "-q", "2"],
                 ["bounds", "-q", "2", "-m", "3", "-c", "1", "--eps", "1/2",
                  "--mode", "bogus"],
                 ["critical"],
                 ["critical", str(fano), "--bogus"],
                 [],
                 ["--threads", "x", "critical", str(fano)],
                 ["--deterministic", "critical", str(fano)],
                 ["make", "pg", "-m", "3", "-q", "2", "-c", "5"],
                 ["make", "ag", "-m", "3", "-q", "2", "-c", "1"],
                 ["--threads", "1", "make", "pg", "-m", "3", "-q", "2"]):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert set(json.loads(r.stderr)) == {"error", "message"}, argv
        assert r.stdout == "", argv
    # an unknown option before the subcommand is named, not its value
    assert "--threads" in json.loads(r.stderr)["message"]


@pytest.mark.parametrize("argv", [
    ["critical", "{deep}"], ["contains", "{deep}", "{fano}"],
    ["contains", "{fano}", "{deep}"], ["extremal", "{deep}", "-n", "2"],
    ["density", "{deep}", "--n-min", "2", "--n-max", "2"],
    ["sparse-flat", "{deep}", "-m", "2", "-c", "1"]])
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    # json.load raises RecursionError here, which is bad input, not a crash
    deep, fano = tmp_path / "deep.json", tmp_path / "fano.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["make", "pg", "-m", "3", "-q", "2", "-o", str(fano)]) == 0
    argv = [a.format(deep=deep, fano=fano) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message":
                               "%s is nested too deeply to be a geometry"
                               % deep}


def test_usage_errors_return_2_in_process(capsys):
    assert main(["make", "pg", "-m", "x", "-q", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message":
                               "argument -m: invalid int value: 'x'"}
    assert main([]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_help_exits_0_with_usage_on_stdout():
    r = run_cli("-h")
    assert r.returncode == 0
    assert r.stdout.startswith("usage: qgeom") and r.stderr == ""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def test_oversized_spaces_are_refused_before_q_to_the_n_is_built(tmp_path):
    # each of these needs q^n for a rank n in the billions: with a 512 MB
    # cap, building it is a MemoryError, so exit 2 shows it was never built
    line = tmp_path / "line.json"
    run_cli("make", "pg", "-m", "2", "-q", "2", "-o", str(line))
    huge = tmp_path / "huge.json"
    huge.write_text('{"q": 2, "p": 2, "k": 1, "modulus": [], '
                    '"ambient": 1000000000000, "points": []}')
    for argv in (["make", "pg", "-m", "1000000000000", "-q", "2"],
                 ["extremal", str(line), "-n", "100000000000"],
                 ["sparse-flat", str(huge), "-m", "2", "-c", "1"],
                 ["density", str(line), "--n-min", "2",
                  "--n-max", "100000000000"]):
        r = run_cli(*argv, timeout=20, preexec_fn=_cap_address_space)
        assert r.returncode == 2, (argv, r.stderr)
        assert json.loads(r.stderr)["error"] == "ValueError", argv


def test_critical_loads_high_ambient_without_whole_space_tables(tmp_path):
    # one point of PG(39, 2): nothing may be built over all 2^40 - 1 points
    path = tmp_path / "one_point.json"
    path.write_text(json.dumps({"q": 2, "p": 2, "k": 1, "modulus": [],
                                "ambient": 40, "points": [[1] + [0] * 39]}))
    r = run_cli("critical", str(path), timeout=5)
    assert r.returncode == 0
    assert r.stdout.strip() == "1"


def test_critical_of_ag_12_2_finishes_within_10_s(tmp_path):
    # AG(12, 2): 4096 points spanning rank 13, reduced one at a time
    path = tmp_path / "ag122.json"
    run_cli("make", "ag", "-m", "13", "-q", "2", "-o", str(path))
    r = run_cli("critical", str(path), timeout=10)
    assert r.returncode == 0
    assert r.stdout.strip() == "1"


def test_critical_refuses_a_span_above_the_listing_limit(tmp_path):
    # e_0..e_20 span all of PG(20, 2): 2^21 - 1 points, above the limit
    path = tmp_path / "frame21.json"
    path.write_text(json.dumps({
        "q": 2, "p": 2, "k": 1, "modulus": [], "ambient": 21,
        "points": [[int(i == j) for j in range(21)] for i in range(21)]}))
    r = run_cli("critical", str(path), timeout=10)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ValueError"


def test_extremal_command(tmp_path):
    forbid = tmp_path / "line.json"
    run_cli("make", "pg", "-m", "2", "-q", "2", "-o", str(forbid))
    r = run_cli("extremal", str(forbid), "-n", "3")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["value"] == 4 and out["status"] == "exact"
    assert len(out["witness"]["points"]) == 4
    # PG(9, 2): the include/exclude search runs 1023 points deep
    r = run_cli("extremal", str(forbid), "-n", "10", "--node-cap", "3000")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert (out["status"], out["nodes"]) == ("lower-bound", 3000)


def test_density_command(tmp_path):
    forbid = tmp_path / "line.json"
    out = tmp_path / "rows.csv"
    run_cli("make", "pg", "-m", "2", "-q", "2", "-o", str(forbid))
    r = run_cli("density", str(forbid), "--n-min", "2", "--n-max", "3",
                "-o", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "2,2,3,2,3,1,2,exact"
    assert lines[2] == "3,4,7,4,7,1,2,exact"


def test_negative_or_nan_budgets_exit_2(tmp_path):
    # a NaN time cap would silently be no cap, and a negative one would
    # give an empty "lower-bound"; 0 and inf stay valid caps
    forbid = tmp_path / "line.json"
    run_cli("make", "pg", "-m", "2", "-q", "2", "-o", str(forbid))
    for cmd in (["extremal", str(forbid), "-n", "3"],
                ["density", str(forbid), "--n-min", "2", "--n-max", "3"]):
        for cap in (["--time-cap", "nan"], ["--time-cap", "-1"],
                    ["--node-cap", "-1"]):
            r = run_cli(*cmd, *cap)
            assert r.returncode == 2, (cmd, cap)
            assert json.loads(r.stderr)["error"] == "ValueError", (cmd, cap)
            assert r.stdout == "", (cmd, cap)
        for cap in (["--time-cap", "inf"], ["--node-cap", "0"]):
            r = run_cli(*cmd, *cap)
            assert r.returncode == 0, (cmd, cap, r.stderr)
    r = run_cli("extremal", str(forbid), "-n", "3", "--node-cap", "0")
    assert (json.loads(r.stdout)["nodes"],
            json.loads(r.stdout)["status"]) == (0, "lower-bound")


def test_sparse_flat_command(tmp_path):
    geom = tmp_path / "full.json"
    run_cli("make", "pg", "-m", "3", "-q", "2", "-o", str(geom))
    r = run_cli("sparse-flat", str(geom), "-m", "2", "-c", "1")
    assert r.returncode == 1
    assert r.stdout.strip() == "not-found"

    ag = tmp_path / "ag.json"
    run_cli("make", "ag", "-m", "3", "-q", "2", "-o", str(ag))
    r = run_cli("sparse-flat", str(ag), "-m", "2", "-c", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["rank"] == 2


def test_bounds_command():
    r = run_cli("bounds", "-q", "2", "-m", "3", "-c", "1", "--eps", "1/4")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"kind": "exact", "value": "32"}

    r = run_cli("bounds", "-q", "2", "-m", "3", "-c", "2", "--eps", "1/2",
                "--mode", "recursive")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["value"] == "4"
    assert out["trace"][0]["r"] == 3 and out["trace"][0]["t"] == 4

    r = run_cli("bounds", "-q", "3", "-m", "3", "-c", "1", "--eps", "1/4")
    assert r.returncode == 2


def test_two_extremal_runs_print_identical_output(tmp_path):
    forbid = tmp_path / "line.json"
    run_cli("make", "pg", "-m", "2", "-q", "2", "-o", str(forbid))
    r1 = run_cli("extremal", str(forbid), "-n", "3")
    r2 = run_cli("extremal", str(forbid), "-n", "3")
    assert r1.returncode == 0 and r1.stdout == r2.stdout


@pytest.mark.parametrize("eps", ["1/0", "1e-9999999", "0.5e-3", "0"])
def test_bounds_rejects_eps_outside_the_integer_or_num_den_form(eps):
    # Fraction("1e-9999999") alone takes seconds; the text is refused first
    r = run_cli("bounds", "-q", "2", "-m", "3", "-c", "1", "--eps", eps,
                timeout=10)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ValueError"


@pytest.mark.parametrize("mode", ["closed-form", "recursive"])
@pytest.mark.parametrize("eps", ["2", "4", "5"])
def test_bounds_refuse_eps_above_1(eps, mode):
    # eps is a density: above 1 the closed form would take the log of a
    # nonpositive number and the recursion would print a negative bound
    r = run_cli("bounds", "-q", "2", "-m", "3", "-c", "1", "--eps", eps,
                "--mode", mode)
    assert r.returncode == 2 and r.stdout == ""
    assert json.loads(r.stderr)["error"] == "InvalidEpsilon"


def test_recursive_bounds_refuse_ranks_above_the_digit_cap():
    # the c = 1 level would get a rank of about 3 * 2^189
    r = run_cli("bounds", "-q", "2", "-m", "10", "-c", "3", "--eps", "1/2",
                "--mode", "recursive", timeout=10)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "Unsupported"


def test_bounds_print_values_past_the_int_to_str_digit_limit():
    # 2^20002 has 6,022 digits: within the 10,000-digit cap, above the
    # 4,300 digits str() accepts; json.loads needs parse_int to read them
    args = ("bounds", "-q", "2", "-m", "20000", "-c", "1", "--eps", "1/2")
    r = run_cli(*args, timeout=10)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["kind"] == "exact" and Decimal(out["value"]) == 2 ** 20002

    r = run_cli(*args, "--mode", "recursive", timeout=10)
    assert r.returncode == 0
    out = json.loads(r.stdout, parse_int=Decimal)
    assert Decimal(out["value"]) == 2 ** 19999
    assert out["trace"] == [{"c": 1, "m": 20000, "eps": "1/2", "r": None,
                             "t": None, "value": 2 ** 19999}]

    # T_2(33002): 2^33002 is exact, and it is the argument of T_1
    r = run_cli("bounds", "-q", "2", "-m", "33000", "-c", "2", "--eps",
                "1/2", timeout=10)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert (out["kind"], out["height"]) == ("tower-symbolic", 1)
    assert Decimal(out["arg"]) == 2 ** 33002


def modules_loaded_by(argv):
    """sys.modules of a fresh interpreter after qgeom.cli.main(argv)."""
    code = ("import contextlib, io, json, sys\n"
            "from qgeom.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(%r) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n" % (argv,))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    return set(json.loads(r.stdout))


def test_subcommands_import_only_the_modules_they_use(tmp_path):
    for argv in (["bounds", "-q", "2", "-m", "3", "-c", "1", "--eps", "1/4"],
                 ["bounds", "-q", "2", "-m", "3", "-c", "2", "--eps", "1/2",
                  "--mode", "recursive"]):
        loaded = modules_loaded_by(argv)
        assert "qgeom.bounds" in loaded
        assert not loaded & {"dataclasses", "inspect", "qgeom.field",
                             "qgeom.projective", "qgeom.geometry",
                             "qgeom.embed", "qgeom.extremal"}

    path = tmp_path / "line.json"
    path.write_text('{"q": 2, "p": 2, "k": 1, "modulus": [], "ambient": 2, '
                    '"points": [[0, 1], [1, 0], [1, 1]]}')
    loaded = modules_loaded_by(["critical", str(path)])
    assert "qgeom.geometry" in loaded
    assert not loaded & {"dataclasses", "inspect", "qgeom.embed",
                         "qgeom.extremal", "qgeom.bounds"}


def test_package_names_resolve_to_their_submodules():
    star = {}
    exec("from qgeom import *", star)
    assert set(qgeom.__all__) <= set(star)
    for name in qgeom.__all__:
        value = getattr(qgeom, name)
        assert value is star[name]
        assert value is getattr(sys.modules[value.__module__], name)
    assert qgeom.embed is sys.modules["qgeom.embed"]
    with pytest.raises(AttributeError):
        qgeom.no_such_name


def test_geometry_and_field_are_immutable_hashable_values():
    f1, f2 = FieldSpec(2, 1, 2, ()), FieldSpec(p=2, k=1, q=2, modulus=())
    assert f1 is not f2 and f1 == f2 and hash(f1) == hash(f2)
    assert f1 != FieldSpec(3, 1, 3, ())
    g1 = Geometry(f1, 3, (4, 0, 2))
    g2 = Geometry(field=f2, ambient=3, points=[2, 4, 0])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1.points == (0, 2, 4) and len(g1) == 3
    assert g1 != Geometry(f1, 3, (0, 2))
    for obj, attr in ((f1, "q"), (f1, "add_table"), (g1, "points"),
                      (g1, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert pickle.loads(pickle.dumps(g1)) == g1


def test_bounds_restore_the_int_to_str_digit_limit(capsys):
    get = getattr(sys, "get_int_max_str_digits", None)
    before = get() if get else None
    argv = ["bounds", "-q", "2", "-m", "20000", "-c", "1", "--eps", "1/2"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert Decimal(out["value"]) == 2 ** 20002
    # a failing call restores it too
    assert main(argv + ["--mode", "recursive", "-m", "10", "-c", "3"]) == 2
    assert (get() if get else None) == before


# Files the fuzzed argvs name as "@name"; each example writes them afresh,
# since a fuzzed -o may overwrite one.
_FUZZ_FILES = {
    "fano": '{"q": 2, "p": 2, "k": 1, "modulus": [], "ambient": 3, '
            '"points": [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], '
            '[1, 0, 1], [1, 1, 0], [1, 1, 1]]}',
    "line": '{"q": 2, "p": 2, "k": 1, "modulus": [], "ambient": 2, '
            '"points": [[0, 1], [1, 0], [1, 1]]}',
    "ag13": '{"q": 3, "p": 3, "k": 1, "modulus": [], "ambient": 2, '
            '"points": [[1, 0], [1, 1], [1, 2]]}',
    "point": '{"q": 4, "p": 2, "k": 2, "modulus": [1, 1, 1], '
             '"ambient": 2, "points": [[1, 0]]}',
    "empty": '{"q": 2, "p": 2, "k": 1, "modulus": [], "ambient": 2, '
             '"points": []}',
    "huge": '{"q": 2, "p": 2, "k": 1, "modulus": [], '
            '"ambient": 1000000000000, "points": []}',
    "zero": '{"q": 2, "p": 2, "k": 1, "modulus": [], "ambient": 2, '
            '"points": [[0, 0]]}',
    "list": "[1, 2]",
    "text": "not json",
}
_TEMPLATES = [
    ["make", "pg", "-m", "2", "-q", "3"],
    ["make", "g", "-m", "3", "-q", "2", "-c", "1", "-o", "@out"],
    ["critical", "@fano"],
    ["contains", "@fano", "@line"],
    ["extremal", "@line", "-n", "3", "--node-cap", "200", "--time-cap", "1"],
    ["density", "@ag13", "--n-min", "1", "--n-max", "3", "-o", "@out"],
    ["sparse-flat", "@fano", "-m", "2", "-c", "1"],
    ["bounds", "-q", "2", "-m", "3", "-c", "1", "--eps", "1/4"],
    ["bounds", "-q", "2", "-m", "3", "-c", "2", "--eps", "1/2", "--mode",
     "recursive"],
]
# small valid values, malformed numbers, flags known and unknown, files;
# no rank above 3 unless it is refused before any search
_TOKENS = ["0", "1", "2", "3", "-1", "1000000000000", "x", "1.5",
           "nan", "inf", "", "1/2", "1/0", "3/7", "pg", "ag", "g",
           "closed-form", "recursive", "-m", "-q", "-c", "-n", "-o",
           "--eps", "--mode", "--node-cap", "--time-cap", "--n-min",
           "--n-max", "--threads", "--deterministic", "--bogus", "-z",
           "make", "critical", "bounds"] + ["@" + n for n in _FUZZ_FILES] + \
          ["@missing", "@dir"]
# qgeom takes no option before the subcommand, so this one is unknown
_GLOBAL = "--deterministic"


@st.composite
def _argvs(draw):
    argv = draw(st.sampled_from([[]] * 3 + [[_GLOBAL]]))
    for tok in draw(st.sampled_from(_TEMPLATES)):
        action = draw(st.sampled_from(["keep"] * 8 + ["drop", "swap"]))
        if action != "drop":
            argv.append(tok if action == "keep"
                        else draw(st.sampled_from(_TOKENS)))
    for tok in draw(st.lists(st.sampled_from(_TOKENS), max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), tok)
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "dir.json").mkdir()
    return path


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(argv=_argvs())
def test_fuzzed_argv_exits_0_1_or_2_with_a_json_error(fuzz_dir, argv):
    for name, text in _FUZZ_FILES.items():
        (fuzz_dir / (name + ".json")).write_text(text)
    argv = [str(fuzz_dir / (tok[1:] + ".json")) if tok.startswith("@")
            else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # a fuzzed -o names a file relative to it
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    if argv[:1] == [_GLOBAL]:
        assert code == 2
    if code == 2:
        assert set(json.loads(err.getvalue())) == {"error", "message"}
    else:
        assert err.getvalue() == ""


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.floats() |
    st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)
_HEADERS = [{"q": 2, "p": 2, "k": 1, "modulus": []},
            {"q": 3, "p": 3, "k": 1},
            {"q": 4, "p": 2, "k": 2, "modulus": [1, 1, 1]},
            {"q": 9, "p": 3, "k": 2, "modulus": [2, 2, 1]}]


@st.composite
def _geometry_objects(draw):
    """A valid header with small ambient and coordinates, then up to two
    keys dropped or set to any JSON value."""
    n = draw(st.integers(-1, 4))
    width = max(n, 0)
    point = st.lists(st.integers(0, 2) | st.sampled_from([-1, 3, 9]),
                     min_size=width, max_size=width)
    obj = dict(draw(st.sampled_from(_HEADERS)), ambient=n,
               points=draw(st.lists(point, max_size=4)))
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=2)):
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(_JSON)
    return obj


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(obj=_JSON | _geometry_objects())
def test_geometry_from_json_returns_a_geometry_or_an_exit_2_error(obj):
    try:
        G = geometry_from_json(obj)
    except (QgeomError, ValueError, KeyError):
        return
    assert isinstance(G, Geometry)
