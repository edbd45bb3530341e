"""Self-test of the benchmark's answer checks.

    python3 bench/tests/test_checks.py

Feeds the checker one wrong ex value, one bad witness and one wrong exit
code, and confirms that each counts as failed, while the true answers pass.
"""

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads as W  # noqa: E402
from qgeom import Budget, contains, ex_exact, geometry_to_json  # noqa: E402


def one_pass(*results):
    return [{"jobs": [{"name": n, "answer": a} for n, a in results]}]


class CheckerSelfTest(unittest.TestCase):
    def test_wrong_ex_value_fails(self):
        job = W.EXTREMAL_JOBS[0]  # ex(PG(1,2); 4) = 8
        H = W.extremal_inputs(5, [job])[job.name]
        r = ex_exact(H, job.n, budget=Budget())
        good = {"value": r.value, "status": r.status, "nodes": r.nodes,
                "witness": geometry_to_json(r.witness)}
        wit = dict(good["witness"], points=good["witness"]["points"][:-1])
        wrong = dict(good, value=r.value - 1, witness=wit)
        check = lambda j, a: checks.check_ex(j, a, H)
        t = checks.tally("extremal-search",
                         one_pass((job.name, good), (job.name, wrong)),
                         {job.name: job}, check)
        self.assertEqual((t.attempted, t.failed, t.unexpected), (2, 1, 1))
        self.assertEqual(t.solved_exact, 0)

    def test_capped_answer_must_not_claim_exact_below_truth(self):
        job = W.ExJob("capped", ("pg", 2, 2), 5, 50)
        H = W.extremal_inputs(5, [job])[job.name]
        r = ex_exact(H, job.n, budget=Budget(node_cap=job.cap))
        wit = geometry_to_json(r.witness)
        wit["points"] = wit["points"][1:]  # a subset stays H-free
        ans = {"value": r.value - 1, "status": "exact", "nodes": r.nodes,
               "witness": wit}
        self.assertTrue(checks.check_ex(job, ans, H))
        ans["status"] = "lower-bound"
        self.assertEqual(checks.check_ex(job, ans, H), [])

    def test_bad_witness_fails(self):
        job = next(j for j in W.CONTAINMENT_JOBS if j.contained)
        G, H = W.containment_inputs(5, [job])[job.name]
        w = contains(G, H)
        good = {"contained": True, "verified": True,
                "witness": {"map": [list(r) for r in w.map],
                            "point_map": list(w.point_map)}}
        pm = list(w.point_map)
        pm[0] = next(p for p in G.points if p not in pm)
        bad = dict(good, witness=dict(good["witness"], point_map=pm))
        check = lambda j, a: checks.check_contains(j, a, G, H)
        t = checks.tally("containment",
                         one_pass((job.name, good), (job.name, bad)),
                         {job.name: job}, check)
        self.assertEqual((t.attempted, t.failed), (2, 1))
        self.assertIn("witness fails verify_witness", t.failing[job.name])

    def test_wrong_exit_code_fails(self):
        job = next(j for j in W.CLI_JOBS if j.name == "error_make_q6")
        good = {"exit": 2, "stdout": "",
                "stderr": '{"error": "NotPrimePower", "message": "q = 6"}'}
        bad = dict(good, exit=1)
        check = lambda j, a: checks.check_cli(j, a, None)
        t = checks.tally("cli-batch",
                         one_pass((job.name, good), (job.name, bad)),
                         {job.name: job}, check)
        self.assertEqual((t.attempted, t.failed, t.unexpected), (2, 1, 1))

    def test_known_defect_counts_as_failed_but_expected(self):
        job = next(j for j in W.CLI_JOBS if j.known_defect)
        ans = {"exit": 1, "stdout": "", "stderr": "Traceback ...\n"}
        t = checks.tally("cli-batch", one_pass((job.name, ans)),
                         {job.name: job},
                         lambda j, a: checks.check_cli(j, a, None))
        self.assertEqual((t.attempted, t.failed, t.unexpected), (1, 1, 0))

    def test_raised_exception_fails(self):
        job = W.EXTREMAL_JOBS[0]
        ans = {"exception": "AssertionError: "}
        t = checks.tally("extremal-search", one_pass((job.name, ans)),
                         {job.name: job}, None)
        self.assertEqual((t.attempted, t.failed, t.unexpected), (1, 1, 1))

    def test_bound_references(self):
        self.assertEqual(checks.ref_closed_form(3, 1, "1/4"),
                         {"kind": "exact", "value": "32"})
        self.assertEqual(checks.ref_closed_form(8, 3, "1/2")["kind"],
                         "tower-symbolic")
        # r = 2^7 * 3 = 384 at m = 10, eps = 1/2; the inner level wins.
        self.assertEqual(checks.ref_recursive(10, 2, "1/2"), 2 ** 383)


if __name__ == "__main__":
    unittest.main()
