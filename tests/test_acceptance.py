"""Acceptance criteria, one test per criterion.

Every assertion is exact (zero tolerance); each criterion also carries a
wall-clock budget and prints a single PASS line with its timing when it
holds.  Criterion numbering follows the order below:

  1  Heawood triple-bound equality (both sides exactly 2)
  2  Petersen/C5 pair-bound equality everywhere; Heawood strictly below
  3  icosahedron fundamental bound tight at -20/9
  4  cube boundary case: both triple-bound branches exactly 0
  5  randomized tridiagonal suite, N = 1000, D in [2, 6]
  6  Krein closed formula == idempotent expansion on the corpus
  7  Krein-matrix spectrum == dual eigenvalues for every ordering
  8  Petersen dual pair-bound equality at -16/9
  9  class-3 dual-tight end-to-end on Heawood and the 11-point biplane
  10 scanner on the integer grid m <= 10
  11 byte-identical reports for identical configuration and seed
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from qpolykit import families, graphs, schemes, tridiagonal
from qpolykit.checks import check_scheme, check_system
from qpolykit.scanner import GridSpec, scan
from qpolykit.serialize import dump_json


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "PASS (over budget)"
            print(f"{status} {self.name}: {elapsed:.2f}s (budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        else:
            print(f"FAIL {self.name}: {elapsed:.2f}s")
        return False


def pair_bound(g):
    return graphs.pair_bound_all_vertices(g, graphs.spectrum_graph(g), graphs.classify_regularity(g))


def fundamental_bound(g):
    return graphs.fundamental_bound(graphs.spectrum_graph(g), graphs.classify_regularity(g))


def orderings(s):
    e = schemes.eigendata(s)
    return schemes.find_q_orderings(s, e, schemes.krein(s, e))


def test_criterion_1_heawood_triple_equality():
    with Budget("criterion 1 (heawood triple bound)", 1.0):
        res = graphs.triple_bound_graph(graphs.classify_regularity(families.heawood()))
        (branch,) = res.branches
        assert branch.branch == "lower"
        assert branch.check.lhs == F(2)
        assert branch.check.rhs == F(2)
        assert branch.check.equality and res.holds


def test_criterion_2_pair_bound_verdicts():
    with Budget("criterion 2a (petersen pair bound)", 1.0):
        rep = pair_bound(families.petersen())
        assert rep.lhs == F(-2)
        assert all(v.rhs == F(-2) and v.equality for v in rep.per_vertex)
        assert rep.strongly_regular_verdict and rep.cross_check_ok
    with Budget("criterion 2b (c5 pair bound)", 1.0):
        rep = pair_bound(families.cycle(5))
        assert rep.lhs == F(-1)
        assert all(v.rhs == F(-1) and v.equality for v in rep.per_vertex)
        assert rep.strongly_regular_verdict and rep.cross_check_ok
    with Budget("criterion 2c (heawood strictly below)", 1.0):
        rep = pair_bound(families.heawood())
        assert all(v.holds and not v.equality for v in rep.per_vertex)
        assert not rep.strongly_regular_verdict and rep.cross_check_ok


def test_criterion_3_icosahedron_fundamental_bound():
    with Budget("criterion 3 (icosahedron fundamental bound)", 1.0):
        rep = fundamental_bound(families.icosahedron())
        assert rep.lhs == F(-20, 9) and rep.rhs == F(-20, 9)
        assert rep.equality and not rep.bipartite and rep.tight


def test_criterion_4_cube_boundary():
    with Budget("criterion 4 (cube boundary case)", 1.0):
        res = graphs.triple_bound_graph(graphs.classify_regularity(families.cube(3)))
        assert res.hypothesis_sign == 0
        assert {b.branch for b in res.branches} == {"lower", "upper"}
        for b in res.branches:
            assert b.check.lhs == F(0) and b.check.rhs == F(0) and b.check.equality
        fb = fundamental_bound(families.cube(3))
        assert fb.bipartite and not fb.tight


def test_criterion_5_randomized_tridiagonal_suite():
    with Budget("criterion 5 (randomized tridiagonal, N=1000)", 60.0):
        rng = random.Random(20240801)
        eq_d2 = eq_d3 = 0
        for index in range(1000):
            d = rng.randint(2, 6)
            system = tridiagonal.random_system(rng, d)
            # no problems means: both bounds hold, pair-bound equality exactly
            # at D = 2, triple-bound equality exactly at D = 3, interlacing,
            # and the recurrence equals the cofactor characteristic polynomial
            assert check_system(system) == [], (index, system.to_json_dict())
            eq_d2 += d == 2
            eq_d3 += d == 3
        assert eq_d2 > 50 and eq_d3 > 50  # both equality regimes exercised


def test_criterion_6_krein_oracle_equivalence():
    with Budget("criterion 6 (krein oracle equivalence)", 120.0):
        for name, g in families.corpus_graphs().items():
            s = schemes.scheme_from_graph(g)
            assert s.n <= 50, name
            e = schemes.eigendata(s)
            table = schemes.krein(s, e)
            assert table.nonnegative, name
            oracle = schemes.krein_oracle(s, e)
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    for h in range(s.d + 1):
                        assert (table.q[i][j][h] - oracle[i][j][h]).is_zero(), (name, i, j, h)


def test_criterion_7_b1star_spectral_identity():
    with Budget("criterion 7 (krein-matrix spectral identity)", 30.0):
        total = 0
        for name, g in families.corpus_graphs().items():
            s = schemes.scheme_from_graph(g)
            for qs in orderings(s):
                assert schemes.b1star_spectral_identity(qs), name
                total += 1
        assert total >= 10


def test_criterion_8_petersen_dual_equality():
    with Budget("criterion 8 (petersen dual pair bound)", 1.0):
        s = schemes.scheme_from_graph(families.petersen())
        qs = [q for q in orderings(s) if q.m == 5][0]
        res = schemes.dual_bounds(qs)
        from qpolykit.numberfield import scalar_as_fraction

        assert scalar_as_fraction(res.part1.lhs) == F(-16, 9)
        assert scalar_as_fraction(res.part1.rhs) == F(-16, 9)
        assert res.part1.equality


def test_criterion_9_class3_dual_tight_end_to_end():
    with Budget("criterion 9 (class-3 dual-tight end to end)", 30.0):
        cases = {
            "heawood": (families.heawood(), (7, 3, 1)),
            "biplane": (families.incidence_graph(families.biplane_11()), (11, 5, 2)),
        }
        for name, (g, params) in cases.items():
            report, _, alarms = check_scheme(schemes.scheme_from_graph(g))
            assert alarms == [], name
            rep = report["classification"]
            assert rep["dual_tight"], name
            assert rep["design_params"] == list(params), name
            assert rep["biconditional_ok"], name
            assert rep["orderings"] == len(report["orderings"]), name
            for ordering in report["orderings"]:
                assert ordering["dual_fundamental_bound"]["dual_tight"], name
                audit = ordering.get("audit")
                assert audit is not None and audit["all_passed"], name
                assert audit["b2star_is_1"] and audit["b1star_eq_c2star"] and audit["q_antipodal"], name


def test_criterion_10_scanner_integer_grid():
    with Budget("criterion 10 (scanner m <= 10)", 60.0):
        res1 = scan(GridSpec(m_max=F(10)))
        dts = res1.dual_tight_survivors()
        assert dts
        for rec in dts:
            assert rec.b2star_is_1 and rec.b1star_eq_c2star, rec.candidate.key()
            assert rec.audit_all_passed, rec.candidate.key()
        res2 = scan(GridSpec(m_max=F(10)))
        assert res1.tallies == res2.tallies
        assert [dump_json(r.to_json_dict()) for r in res1.records] == [
            dump_json(r.to_json_dict()) for r in res2.records
        ]


def test_criterion_11_byte_identical_reports():
    with Budget("criterion 11 (byte-identical reports)", 120.0):
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "qpolykit.cli", *args],
                capture_output=True,
                text=True,
                timeout=300,
            )

        for args in (
            ("check-graph", "--family", "heawood", "--output", "json"),
            ("check-scheme", "--from-graph", "petersen", "--output", "json"),
            ("property-suite", "--seed", "5", "--n", "25", "--graphs", "3", "--output", "json"),
            ("scan", "--m-max", "5"),
        ):
            a, b = run(*args), run(*args)
            assert a.returncode == b.returncode == 0, args
            assert a.stdout == b.stdout, args
            # reports stay machine readable: one document, or one per line
            try:
                json.loads(a.stdout)
            except json.JSONDecodeError:
                for line in a.stdout.strip().splitlines():
                    json.loads(line)
