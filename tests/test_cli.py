import json
import os
import pickle
import subprocess
import sys

import pytest

import qgeom
from qgeom import FieldSpec, Geometry


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
                 ["make", "pg", "-m", "8", "-q", "16"]):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert "error" in json.loads(r.stderr), argv


def test_critical_loads_high_ambient_without_whole_space_tables(tmp_path):
    # one point of PG(39, 2): nothing may be built over all 2^40 - 1 points
    path = tmp_path / "one_point.json"
    path.write_text(json.dumps({"q": 2, "p": 2, "k": 1, "modulus": [],
                                "ambient": 40, "points": [[1] + [0] * 39]}))
    r = run_cli("critical", str(path), timeout=5)
    assert r.returncode == 0
    assert r.stdout.strip() == "1"


def test_extremal_command(tmp_path):
    forbid = tmp_path / "line.json"
    run_cli("make", "pg", "-m", "2", "-q", "2", "-o", str(forbid))
    r = run_cli("extremal", str(forbid), "-n", "3")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["value"] == 4 and out["status"] == "exact"
    assert len(out["witness"]["points"]) == 4


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


def test_deterministic_flag_accepted(tmp_path):
    forbid = tmp_path / "line.json"
    run_cli("make", "pg", "-m", "2", "-q", "2", "-o", str(forbid))
    r1 = run_cli("--deterministic", "extremal", str(forbid), "-n", "3")
    r2 = run_cli("--deterministic", "extremal", str(forbid), "-n", "3")
    assert r1.returncode == 0 and r1.stdout == r2.stdout


@pytest.mark.parametrize("eps", ["1/0", "1e-9999999", "0.5e-3", "0"])
def test_bounds_rejects_eps_outside_the_integer_or_num_den_form(eps):
    # Fraction("1e-9999999") alone takes seconds; the text is refused first
    r = run_cli("bounds", "-q", "2", "-m", "3", "-c", "1", "--eps", eps,
                timeout=10)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ValueError"


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_bad_qgeom_threads_exits_2(threads):
    r = run_cli("bounds", "-q", "2", "-m", "3", "-c", "1", "--eps", "1/4",
                env=dict(os.environ, QGEOM_THREADS=threads))
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ValueError"


def test_recursive_bounds_refuse_ranks_above_the_digit_cap():
    # the c = 1 level would get a rank of about 3 * 2^189
    r = run_cli("bounds", "-q", "2", "-m", "10", "-c", "3", "--eps", "1/2",
                "--mode", "recursive", timeout=10)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "Unsupported"


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
    loaded = modules_loaded_by(["bounds", "-q", "2", "-m", "3", "-c", "1",
                                "--eps", "1/4"])
    assert "qgeom.bounds" in loaded
    assert not loaded & {"dataclasses", "inspect", "qgeom.field",
                         "qgeom.projective", "qgeom.geometry", "qgeom.embed",
                         "qgeom.extremal"}

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
