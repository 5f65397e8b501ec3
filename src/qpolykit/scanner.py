"""Grid scan over synthetic class-3 dual parameter sets.

Candidates (m, b1*, b2*, c2*), with c3* = m unless the free-c3 mode opens
it up, run through an ordered filter pipeline:

  structure:       the transpose system satisfies the row-sum condition;
  multiplicity:    the implied m_3 = m b1* b2* / (c2* c3*) is positive (and
                   an integer in genuine-scheme mode);
  krein_condition: with a_3* = 0, the implied q_23^3 and q_33^3 are
                   nonnegative;
  pair_bound:      (t1*+1)(t3*+1) <= -b1*;
  triple_bound:    the class-3 triple-product inequality;
  dual_bound:      the dual fundamental bound.

The filters are monotone: a candidate rejected at one stage never reaches a
later one.  The first three are rational (multiplicity and krein_condition
are schemes.class3_feasibility, which check-scheme also applies to class-3
Krein arrays), and the structure computes its
spectrum on first use, so a candidate they reject computes none and each
candidate that reaches the bounds computes exactly one.  Survivors
attaining the dual bound with equality (and not Q-bipartite) are flagged
dual_tight and carry the full class-3 audit, whose parameter consequences
(b2* = 1, b1* = c2*) the scan records per candidate.  Iteration order is
lexicographic in (m, b1*, b2*, c2*, c3*), so tallies and the JSONL stream
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .schemes import (
    SchemeError,
    class3_dualtight_audit,
    class3_feasibility,
    dual_bounds,
    dual_fundamental_bound,
    structure_from_dual_parameters,
)
from .serialize import rat_str

FILTER_ORDER = (
    "structure",
    "multiplicity",
    "krein_condition",
    "pair_bound",
    "triple_bound",
    "dual_bound",
)


@dataclass(frozen=True)
class KreinArrayCandidate:
    m: Fraction
    b1: Fraction
    b2: Fraction
    c2: Fraction
    c3: Fraction

    def key(self):
        return (self.m, self.b1, self.b2, self.c2, self.c3)


@dataclass(frozen=True)
class CandidateRecord:
    candidate: KreinArrayCandidate
    rejected_at: str | None
    reason: str
    dual_tight: bool
    q_bipartite: bool
    b2star_is_1: bool | None
    b1star_eq_c2star: bool | None
    audit_all_passed: bool | None

    @property
    def survived(self) -> bool:
        return self.rejected_at is None

    def to_json_dict(self) -> dict:
        c = self.candidate
        out = {
            "m": rat_str(c.m),
            "b1_star": rat_str(c.b1),
            "b2_star": rat_str(c.b2),
            "c2_star": rat_str(c.c2),
            "c3_star": rat_str(c.c3),
            "a3_star": rat_str(c.m - c.c3),
            "status": "survivor" if self.survived else "rejected",
        }
        if not self.survived:
            out["rejected_at"] = self.rejected_at
            out["reason"] = self.reason
        else:
            out["dual_tight"] = self.dual_tight
            out["q_bipartite"] = self.q_bipartite
            if self.dual_tight:
                out["b2star_is_1"] = self.b2star_is_1
                out["b1star_eq_c2star"] = self.b1star_eq_c2star
                out["audit_all_passed"] = self.audit_all_passed
        return out


@dataclass(frozen=True)
class GridSpec:
    m_max: Fraction
    m_min: Fraction = Fraction(2)
    step: Fraction = Fraction(1)
    genuine: bool = True
    free_c3: bool = False

    def validate(self) -> None:
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.m_max < self.m_min:
            raise ValueError("empty grid: m_max below m_min")


@dataclass
class ScanResult:
    records: list[CandidateRecord] = field(default_factory=list)
    tallies: dict = field(default_factory=dict)

    def survivors(self) -> list[CandidateRecord]:
        return [r for r in self.records if r.survived]

    def dual_tight_survivors(self) -> list[CandidateRecord]:
        return [r for r in self.records if r.survived and r.dual_tight]


def check_candidate(cand: KreinArrayCandidate, genuine: bool = True) -> CandidateRecord:
    """Run one candidate through the filter pipeline."""
    b = [cand.m, cand.b1, cand.b2]
    c = [Fraction(1), cand.c2, cand.c3]
    try:
        qs = structure_from_dual_parameters(b, c)
    except SchemeError as exc:
        return _rejected(cand, "structure", str(exc))
    rejected = class3_feasibility(qs, genuine)
    if rejected is not None:
        return _rejected(cand, *rejected)
    bounds = dual_bounds(qs)
    if not bounds.part1.holds:
        return _rejected(cand, "pair_bound", "pair bound fails")
    if bounds.part2 is not None and not bounds.part2.holds:
        return _rejected(cand, "triple_bound", "triple bound fails")
    dfb = dual_fundamental_bound(qs)
    if not dfb.holds:
        return _rejected(cand, "dual_bound", "dual fundamental bound fails")
    if dfb.dual_tight:
        audit = class3_dualtight_audit(qs, dfb, None, None)
        return CandidateRecord(
            cand,
            None,
            "",
            True,
            dfb.q_bipartite,
            audit.b2star_is_1,
            audit.b1star_eq_c2star,
            audit.all_passed,
        )
    return CandidateRecord(cand, None, "", False, dfb.q_bipartite, None, None, None)


def _rejected(cand, stage, reason) -> CandidateRecord:
    return CandidateRecord(cand, stage, reason, False, False, None, None, None)


def _frange(lo: Fraction, hi: Fraction, step: Fraction):
    v = lo
    while v <= hi:
        yield v
        v += step


def scan(spec: GridSpec) -> ScanResult:
    """Exhaustive, lexicographically ordered scan over the grid."""
    spec.validate()
    result = ScanResult()
    tallies = {name: 0 for name in FILTER_ORDER}
    tallies.update(candidates=0, survivors=0, dual_tight=0)
    for m in _frange(spec.m_min, spec.m_max, spec.step):
        for b1 in _frange(spec.step, m, spec.step):
            for b2 in _frange(spec.step, m, spec.step):
                for c2 in _frange(spec.step, m, spec.step):
                    c3_values = _frange(spec.step, m, spec.step) if spec.free_c3 else (m,)
                    for c3 in c3_values:
                        cand = KreinArrayCandidate(m, b1, b2, c2, Fraction(c3))
                        rec = check_candidate(cand, spec.genuine)
                        result.records.append(rec)
                        tallies["candidates"] += 1
                        if rec.rejected_at is not None:
                            tallies[rec.rejected_at] += 1
                        else:
                            tallies["survivors"] += 1
                            if rec.dual_tight:
                                tallies["dual_tight"] += 1
    result.tallies = tallies
    return result
