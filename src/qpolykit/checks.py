"""The check policy: which checks run on which input, and what is an alarm.

Every front end (the CLI, ``scripts/verify_corpus.py``, the property suite
and the acceptance tests) runs the paper's checks through these functions,
so the sequence of checks and the alarm rules exist once.  The input alone
decides which checks run: every check whose hypotheses it meets (the triple
bound needs diameter at least 3, the fundamental bound distance-regularity,
the dual checks a polynomial ordering of class at least 2, the class-3
classification class 3), and no option selects among them.

An alarm means a statement that is guaranteed for every validated instance
failed: an implementation bug, never a property of the input.  Input that
lies outside a check's hypotheses is reported as skipped, not as an alarm.
A broken internal invariant (an AssertionError, SoundnessAlarm included)
is an alarm too: the report so far is kept and the message joins the alarms.
A scan candidate that fails the dual pair or triple bound breaks one.
"""

from __future__ import annotations

from fractions import Fraction

from . import graphs as graphmod
from . import scanner as scanmod
from . import schemes as schememod
from . import tridiagonal as trimod
from .graphs import Graph, GraphError
from .serialize import rat_str, value_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ALARM = 2


def check_system(system: trimod.TridiagonalSystem) -> list[str]:
    """Every tridiagonal theorem on one system; returns the problems found.

    The pair bound holds with equality exactly when D = 2, the triple bound
    (D >= 3) with equality exactly when D = 3, consecutive F_i interlace,
    and the recurrence agrees with the cofactor characteristic polynomial.
    A failed internal invariant is the one problem "internal invariant
    failed: <msg>", as in the other checks' alarms.
    """
    try:
        return _system_problems(system)
    except AssertionError as exc:
        return [_invariant_failed(exc)]


def _system_problems(system: trimod.TridiagonalSystem) -> list[str]:
    d = system.d
    rep = trimod.spectrum(system)
    pair = trimod.pair_bound(system, rep)
    triple = trimod.triple_bound(system, rep) if d >= 3 else None
    inter = trimod.interlacing_check(rep)
    oracle = trimod.charpoly_by_cofactor(trimod.reduced_matrix(system)).monic()
    recurrence = rep.f_polys[-1].monic()
    problems = []
    if not pair.holds:
        problems.append("pair bound failed")
    if pair.equality != (d == 2):
        problems.append("pair-bound equality must hold exactly when D = 2")
    if triple is not None:
        if not triple.holds:
            problems.append("triple bound failed")
        if triple.equality != (d == 3):
            problems.append("triple-bound equality must hold exactly when D = 3")
    if not inter.passed:
        problems.append("interlacing failed")
    if oracle != recurrence:
        problems.append("recurrence disagrees with the cofactor characteristic polynomial")
    return problems


def _approx(v, shown) -> str:
    """The text form of a report value v, read off its JSON form shown = value_json(v)."""
    if isinstance(v, Fraction):
        return rat_str(v)
    return f"{float(Fraction(shown['rational'])) if 'rational' in shown else shown['approx']:.6g}"


def _finish(report: dict, lines: list[str], alarms: list[str]):
    """Shared tail of every check: alarms, exit code, ALARM and exit lines."""
    report["alarms"] = alarms
    code = EXIT_ALARM if alarms else EXIT_OK
    report["exit_code"] = code
    lines.extend(f"ALARM: {a}" for a in alarms)
    lines.append(f"exit: {code}")
    return report, lines, alarms


def _invariant_failed(exc: AssertionError) -> str:
    return f"internal invariant failed: {exc}"


def _guarded(run, report: dict, lines: list[str], *args):
    """Call run(report, lines, alarms, *args) and finish the report.

    A failed internal invariant becomes an alarm instead of a traceback.
    """
    alarms: list[str] = []
    try:
        run(report, lines, alarms, *args)
    except AssertionError as exc:
        alarms.append(_invariant_failed(exc))
    return _finish(report, lines, alarms)


def check_graph(g: Graph):
    """The graph-side checks; returns (report, text_lines, alarms).

    Raises GraphError when the graph cannot be classified.
    """
    report: dict = {"command": "check-graph", "n": g.n, "edges": g.edge_count}
    lines = [f"graph: {g.n} vertices, {g.edge_count} edges"]
    return _guarded(_graph_checks, report, lines, g)


def _graph_checks(report: dict, lines: list[str], alarms: list[str], g: Graph) -> None:
    classification = graphmod.classify_regularity(g)
    report["classification"] = classification.to_json_dict()
    flags = [k for k, v in report["classification"].items() if v is True]
    lines.append("classification: " + (", ".join(flags) if flags else "(none)"))

    spec = graphmod.spectrum_graph(g)
    report["spectrum"] = [
        {"value": value_json(e), "multiplicity": m} for e, m in zip(spec.distinct, spec.multiplicities)
    ]
    parts = (f"{_approx(e, s['value'])} (x{s['multiplicity']})" for e, s in zip(spec.distinct, report["spectrum"]))
    lines.append("distinct eigenvalues: " + ", ".join(parts))

    try:
        kpy = graphmod.pair_bound_all_vertices(g, spec, classification)
    except GraphError as exc:
        # valid input outside the check's hypotheses: report, don't fail
        report["pair_bound"] = {"skipped": str(exc)}
        lines.append(f"vertex pair bound: skipped ({exc})")
    else:
        report["pair_bound"] = kpy.to_json_dict()
        lines.append(
            f"vertex pair bound: holds at all vertices = {kpy.all_hold}, "
            f"equality everywhere = {kpy.equality_everywhere}, "
            f"strongly regular verdict = {kpy.strongly_regular_verdict}"
        )
        if not kpy.all_hold:
            alarms.append("vertex pair bound violated")
        if not kpy.cross_check_ok:
            alarms.append("pair-bound equality disagrees with the strong-regularity classification")

    # the quotient around vertex 0 (the intersection array, when there is one) and its spectrum, derived once
    triple = classification.distance_regular and classification.diameter >= 3
    interlace = classification.regular and not g.is_complete() and not g.is_empty_graph()
    has_array = classification.distance_regular and classification.diameter >= 2
    array = graphmod.intersection_array(classification) if has_array else None
    quotient = graphmod.quotient_spectrum(classification) if triple or interlace else None

    if triple:
        tb = graphmod.triple_bound_graph(classification, quotient)
        report["triple_bound"] = tb.to_json_dict()
        lines.append(
            "triple bound: "
            + "; ".join(
                f"{b.branch}: lhs {_approx(b.check.lhs, j['lhs'])} {b.check.relation}"
                f" rhs {_approx(b.check.rhs, j['rhs'])} holds={b.check.holds} equality={b.check.equality}"
                for b, j in zip(tb.branches, report["triple_bound"]["branches"])
            )
        )
        if not tb.holds:
            alarms.append("triple bound violated on a distance-regular graph")

    if classification.distance_regular:
        if array is None:  # a complete graph: valid input outside the bound's hypotheses
            skip = "fundamental bound requires diameter >= 2"
            report["fundamental_bound"] = {"skipped": skip}
            lines.append(f"fundamental bound: skipped ({skip})")
        else:
            fb = graphmod.fundamental_bound(spec, array, classification.bipartite)
            report["fundamental_bound"] = fb.to_json_dict()
            lhs = _approx(fb.lhs, report["fundamental_bound"]["lhs"])
            lines.append(
                f"fundamental bound: lhs {lhs} >= rhs {rat_str(fb.rhs)}, "
                f"holds={fb.holds}, tight={fb.tight}"
            )
            if not fb.holds:
                alarms.append("fundamental bound violated")

    if interlace:
        inter = graphmod.interlace_check(spec, quotient)
        report["interlacing"] = {
            "passed": inter.passed,
            "top_equality": inter.theta1_eq_tau1,
            "bottom_equality": inter.thetamin_eq_taumin,
        }
        if not inter.passed:
            alarms.append("quotient interlacing violated")


def check_scheme(source):
    """The scheme-side checks; returns (report, text_lines, alarms).

    ``source`` is an AssociationScheme, or a list of polynomial structures
    given at parameter level (a Krein array), where the point-set checks are
    unavailable.  Raises SchemeError when the scheme's eigendata cannot be
    built; a scheme that fails the axioms cannot be built at all.
    """
    return _guarded(_scheme_checks, {"command": "check-scheme"}, [], source)


def _scheme_checks(report: dict, lines: list[str], alarms: list[str], source) -> None:
    scheme = eig = table = None
    if isinstance(source, schememod.AssociationScheme):
        scheme = source
        eig = schememod.eigendata(scheme)
        table = schememod.krein(scheme, eig)
        structures = schememod.find_q_orderings(scheme, eig, table)
        report["n"] = scheme.n
        report["class"] = scheme.d
        lines.append(f"scheme: {scheme.n} points, class {scheme.d}")
        report["axioms_ok"] = True
        report["krein_nonnegative"] = table.nonnegative
        if not table.nonnegative:
            alarms.append("negative Krein parameter on a verified scheme")
    else:
        structures = list(source)
    if not structures:
        report["q_polynomial"] = False
        lines.append("no polynomial ordering of the idempotents (not Q-polynomial)")
        return
    report["q_polynomial"] = True

    classify = scheme is not None and scheme.d == 3
    dual_tight = []  # per-ordering dual-tight flags, read by the classification
    ordering_reports = []
    for idx, qs in enumerate(structures):
        entry: dict = {
            "ordering": idx,
            "m": rat_str(qs.m),
            "provenance": qs.provenance,
            "dual_eigenvalues": [value_json(t) for t in qs.dual_eigenvalues],
            "descending_matches_input": qs.descending_matches_input,
        }
        lines.append(f"ordering {idx}: m = {qs.m}")
        if qs.d < 2:
            # valid input outside the dual checks' hypotheses: report, don't fail
            skip = "the dual checks need class at least 2"
            entry["dual_checks"] = {"skipped": skip}
            lines.append(f"  dual checks: skipped ({skip})")
            ordering_reports.append(entry)
            continue

        def fail(problem: str) -> None:
            # a Krein array need not belong to any scheme, so there a scheme
            # theorem that fails is a finding about the array, not an alarm
            if qs.provenance == "krein_array":
                lines.append(f"  finding: {problem} on a Krein array, which need not belong to a scheme")
            else:
                alarms.append(f"ordering {idx}: {problem}")

        if qs.provenance == "krein_array" and qs.d == 3:
            rejected = schememod.class3_feasibility(qs)
            if rejected is not None:
                stage, reason = rejected
                entry["feasibility"] = {"rejected_at": stage, "reason": reason}
                fail(reason)

        if qs.provenance == "krein_array":
            skip = "the dual eigenvalues of a Krein array are its spectrum by definition"
            entry["b1star_spectral_identity"] = {"skipped": skip}
        else:
            spectral_ok = schememod.b1star_spectral_identity(qs)
            entry["b1star_spectral_identity"] = spectral_ok
            if not spectral_ok:
                alarms.append(f"ordering {idx}: Krein matrix spectrum differs from the dual eigenvalues")

        db = schememod.dual_bounds(qs)
        entry["pair_bound"] = db.part1.to_json_dict()
        lines.append(
            f"  dual pair bound: lhs {_approx(db.part1.lhs, entry['pair_bound']['lhs'])}"
            f" <= rhs {_approx(db.part1.rhs, entry['pair_bound']['rhs'])}"
            f" equality={db.part1.equality}"
        )
        if not db.part1.holds:
            alarms.append(f"ordering {idx}: dual pair bound violated")
        if db.part2 is not None:
            entry["triple_bound"] = db.part2.to_json_dict()
            if not db.part2.holds:
                alarms.append(f"ordering {idx}: dual triple bound violated")

        dfb = schememod.dual_fundamental_bound(qs)
        entry["dual_fundamental_bound"] = dfb.to_json_dict()
        lines.append(f"  dual fundamental bound: holds={dfb.holds} dual_tight={dfb.dual_tight}")
        if not dfb.holds:
            fail("dual fundamental bound violated")
        if qs.d == 3 and dfb.dual_tight:
            audit = schememod.class3_dualtight_audit(qs, dfb, eig, table)
            entry["audit"] = audit.to_json_dict()
            lines.append(
                f"  dual-tight audit: all_passed={audit.all_passed} "
                f"b2*=1: {audit.b2star_is_1}, b1*=c2*: {audit.b1star_eq_c2star}, "
                f"Q-antipodal: {audit.q_antipodal}"
            )
            if not audit.all_passed:
                fail("dual-tight audit failed")
        if classify:
            dual_tight.append(dfb.dual_tight)
        ordering_reports.append(entry)
    report["orderings"] = ordering_reports

    if classify:
        cls = schememod.classify_class3_scheme(scheme, dual_tight)
        report["classification"] = cls.to_json_dict()
        lines.append(
            f"class-3 classification: dual_tight={cls.dual_tight} "
            f"incidence_relation={cls.incidence_relation} design={cls.design_params}"
        )
        if not cls.biconditional_ok:
            alarms.append("dual-tightness disagrees with the symmetric-design classification")


def check_scan(spec: scanmod.GridSpec) -> tuple[scanmod.ScanResult | None, list[str]]:
    """Scan the grid; returns (result, alarms).

    A failed internal invariant, such as a pair or triple bound that fails
    on a candidate (scanner.check_candidate raises SoundnessAlarm), is the
    one alarm and there is no result.  Otherwise every dual-tight survivor
    with a3* = 0 (c3* = m) must satisfy the class-3 parameter consequences
    b2* = 1 and b1* = c2* and pass its audit.  A free-c3 survivor with
    a3* != 0 lies outside the theorem's hypotheses; its audit records the
    finding, and it raises no alarm.
    """
    try:
        result = scanmod.scan(spec)
    except AssertionError as exc:
        return None, [_invariant_failed(exc)]
    bad = [
        r
        for r in result.dual_tight_survivors()
        if r.candidate.c3 == r.candidate.m
        and not (r.b2star_is_1 and r.b1star_eq_c2star and r.audit_all_passed)
    ]
    return result, ["dual-tight survivor violates the class-3 parameter consequences"] if bad else []
