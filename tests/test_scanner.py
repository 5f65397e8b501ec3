from dataclasses import replace
from fractions import Fraction as F

import pytest

from qpolykit.scanner import (
    FILTER_ORDER,
    MAX_CANDIDATES,
    GridSpec,
    KreinArrayCandidate,
    _candidate_count,
    check_candidate,
    scan,
)
from qpolykit.serialize import dump_json


def test_candidate_rejected_at_structure():
    # negative implied a_2* kills the row-sum condition
    rec = check_candidate(KreinArrayCandidate(F(4), F(2), F(3), F(3), F(4)))
    assert rec.rejected_at == "structure"


def test_candidate_rejected_at_multiplicity():
    # fractional m_3 in genuine mode
    rec = check_candidate(KreinArrayCandidate(F(4), F(1), F(1), F(3), F(4)))
    assert rec.rejected_at == "multiplicity"
    rec = check_candidate(KreinArrayCandidate(F(4), F(1), F(1), F(3), F(4)), genuine=False)
    assert rec.rejected_at != "multiplicity"


def test_candidate_rejected_at_krein_condition():
    # implied q_33^3 = m_3 - 1 - q_23^3 is negative here
    rec = check_candidate(KreinArrayCandidate(F(10), F(7), F(4), F(2), F(10)))
    assert rec.rejected_at == "krein_condition"


def test_survivor_with_incidence_parameters():
    rec = check_candidate(KreinArrayCandidate(F(6), F(3), F(1), F(3), F(6)))
    assert rec.survived and rec.dual_tight
    assert rec.b2star_is_1 and rec.b1star_eq_c2star and rec.audit_all_passed


def test_scan_monotone_filters_and_tallies():
    res = scan(GridSpec(m_max=F(4)))
    t = res.tallies
    assert t["candidates"] == sum(t[name] for name in FILTER_ORDER) + t["survivors"]
    for rec in res.records:
        if rec.rejected_at is not None:
            assert not rec.survived
            assert rec.dual_tight is False


def test_scan_dual_tight_consequences_small_grid():
    res = scan(GridSpec(m_max=F(6)))
    dts = res.dual_tight_survivors()
    assert dts, "the integer grid up to 6 carries dual-tight points"
    for rec in dts:
        assert rec.b2star_is_1 and rec.b1star_eq_c2star and rec.audit_all_passed


def test_scan_deterministic_output():
    res1 = scan(GridSpec(m_max=F(4)))
    res2 = scan(GridSpec(m_max=F(4)))
    lines1 = [dump_json(r.to_json_dict()) for r in res1.records]
    lines2 = [dump_json(r.to_json_dict()) for r in res2.records]
    assert lines1 == lines2
    assert res1.tallies == res2.tallies


def test_scan_free_c3_reports_a3():
    res = scan(GridSpec(m_max=F(3), free_c3=True))
    recs = [r.to_json_dict() for r in res.records]
    assert any(r["a3_star"] != "0" for r in recs)
    survivors = [r for r in recs if r["status"] == "survivor"]
    assert survivors


def test_free_c3_dual_tight_with_nonzero_a3_is_flagged_not_asserted():
    # parameter-level equality points with a_3* != 0 exist; the audit must
    # report the finding and mark the shape-bound identities not derivable
    from qpolykit.schemes import class3_dualtight_audit, dual_fundamental_bound, structure_from_dual_parameters

    qs = structure_from_dual_parameters([F(4), F(2), F(3)], [F(1), F(1), F(2)])
    bound = dual_fundamental_bound(qs)
    assert bound.dual_tight
    audit = class3_dualtight_audit(qs, bound, None, None)
    assert audit.record("a3star_zero").passed is False
    assert "finding" in audit.record("a3star_zero").note
    assert audit.record("bound_equation").passed is True
    assert audit.record("middle_square").passed is None
    assert audit.record("multiplicity_bound").passed is None
    assert not audit.q_antipodal


def test_free_c3_multiplicity_filter_uses_c3():
    # m_3 = m b1* b2* / (c2* c3*), which is b1* b2* / c2* only when c3* = m
    res = scan(GridSpec(m_max=F(6), free_c3=True))
    past_structure = [r for r in res.records if r.rejected_at != "structure"]
    assert any(r.candidate.c3 != r.candidate.m for r in past_structure)
    for rec in past_structure:
        c = rec.candidate
        m3 = c.m * c.b1 * c.b2 / (c.c2 * c.c3)
        assert (rec.rejected_at == "multiplicity") == (m3.denominator != 1), c
        assert (rec.reason == "m_3 must be an integer for a genuine scheme") == (m3.denominator != 1), c


def test_scan_rational_step():
    res = scan(GridSpec(m_max=F(3), m_min=F(2), step=F(1, 2), genuine=False))
    ms = {r.candidate.m for r in res.records}
    assert F(5, 2) in ms


def test_grid_validation():
    # a grid is checked when it is built
    with pytest.raises(ValueError, match="empty grid"):
        GridSpec(m_max=F(1))
    with pytest.raises(ValueError, match="grid step must be positive"):
        GridSpec(m_max=F(5), step=F(0))
    with pytest.raises(ValueError, match="m_min must be positive"):
        GridSpec(m_max=F(5), m_min=F(-1, 2))
    with pytest.raises(ValueError, match="candidates"):
        GridSpec(m_max=F(25))


def test_replace_cannot_make_an_invalid_grid():
    spec = GridSpec(m_max=F(4))
    assert replace(spec, m_max=F(5)).m_max == 5
    for change in ({"m_max": F(1)}, {"step": F(-1)}, {"m_min": F(0)}, {"m_max": F(10**6)}):
        with pytest.raises(ValueError):
            replace(spec, **change)


@pytest.mark.parametrize(
    "spec",
    [
        GridSpec(m_max=F(5)),
        GridSpec(m_max=F(4), m_min=F(1, 2), step=F(1, 2), genuine=False),
        GridSpec(m_max=F(4), free_c3=True),
        GridSpec(m_max=F(7, 2), m_min=F(1, 3)),
    ],
)
def test_candidate_count_is_the_scan_size(spec):
    assert _candidate_count(spec) == scan(spec).tallies["candidates"]


def test_largest_default_grid_is_just_under_the_cap():
    # --m-max 24 (89 999 candidates) is accepted, --m-max 25 (105 624) is not
    assert _candidate_count(GridSpec(m_max=F(24))) == 89_999 <= MAX_CANDIDATES
    with pytest.raises(ValueError):
        GridSpec(m_max=F(25))


def test_scheme_derived_parameters_pass_the_filter_chain():
    # the filters, applied to a genuine dual-tight scheme's own parameters:
    # validity, positive integral m_3, Krein nonnegativity, both bounds
    from qpolykit.families import heawood
    from qpolykit.schemes import (
        class3_dualtight_audit,
        dual_bounds,
        dual_fundamental_bound,
        eigendata,
        find_q_orderings,
        krein,
        scheme_from_graph,
    )
    from qpolykit.tridiagonal import TridiagonalSystem, valencies

    s = scheme_from_graph(heawood())
    e = eigendata(s)
    qs = find_q_orderings(s, e, krein(s, e))[0]
    # structure: the system exists, so it met the row-sum condition when it was built
    assert isinstance(qs.system, TridiagonalSystem)
    assert valencies(qs.system)[3] == 1  # positive integer multiplicity
    q233 = qs.m * (qs.system.beta[2] - 1) / qs.system.gamma[1]
    assert q233 == 0  # Krein condition: q_23^3 = 0 >= 0
    db = dual_bounds(qs)
    assert db.part1.holds and db.part2.holds
    dfb = dual_fundamental_bound(qs)
    assert dfb.holds and dfb.dual_tight
    audit = class3_dualtight_audit(qs, dfb, e, krein(s, e))
    assert audit.b2star_is_1 and audit.b1star_eq_c2star
