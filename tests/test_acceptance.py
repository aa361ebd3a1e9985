"""Acceptance criteria, one test (or test group) per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here and nowhere else.

Three sub-clauses are provably unattainable as stated and are kept as
strict xfails with companion tests that pin the true behaviour; the
analysis lives alongside each xfail:

* criterion 2's sharp error envelope at d = 5 (the subleading
  multiplicity is dim(4,1)^2 = 16 > 10),
* criterion 4's 1e-3 tolerance for K = 2 (double poles converge like
  (K-1)/r, which is 1/40 > 1e-3 at the stated horizon),
* criterion 8's literal displayed class-expansion of h_k at the
  Jucys-Murphy elements (already false for h_2 at d = 3, whose honest
  expansion 3*id + 2*C_(3) no Stirling-coefficient form reproduces).
"""

import math
from fractions import Fraction

import pytest

from hurwitz import oracle, verify
from hurwitz.asymptotics import (
    completed_leading_term,
    gw_leading_term,
    monotone_leading_term,
    ratio_report,
)
from hurwitz.core import (
    GSpec,
    completed_hurwitz,
    f_bar,
    gap_interval,
    gw_correlator,
    hypergeometric_hurwitz,
    m_ds,
    structure_coefficients,
    structure_resummation,
)
from hurwitz.errors import EmptyReportError
from hurwitz.exactnum import stirling
from hurwitz.jack import b_hurwitz_coefficient
from hurwitz.partitions import enumerate_partitions
from reference import resolution_of_identity

MILLI = Fraction(1, 1000)
CENTI = Fraction(1, 100)


def _line(tag: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {tag}: {status}{suffix}")
    return ok


# ---------------------------------------------------------------------------
# Criterion 1: master oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    report = verify.verify_oracle(max_d=5, max_transpositions=8)
    total = sum(int(c["detail"].split()[0]) for c in report["checks"] if c["pass"])
    assert _line("criterion 1 (oracle equivalence d<=5, <=8 transpositions)",
                 report["pass"], f"{total} queries, zero tolerance")


# ---------------------------------------------------------------------------
# Criterion 2: the classical asymptotic
# ---------------------------------------------------------------------------

def _classical_ratio(d: int, r_max: int = 40):
    return ratio_report(
        lambda r: completed_hurwitz(r, 1, (), d=d).value,
        lambda r: completed_leading_term(r, d, 1),
        range(0, r_max + 1),
    )


@pytest.mark.parametrize("d", [3, 4, 5])
def test_criterion_2_converges_by_forty(d):
    rep = _classical_ratio(d)
    ok = rep.final_error <= MILLI and rep.entries[-1].r == 40
    assert _line(f"criterion 2 (classical ratio d={d} within 1e-3 by r=40)",
                 ok, f"final |ratio-1| = {rep.final_error_decimal}")


def _classical_envelope_violations(d):
    rep = _classical_ratio(d)
    rate = Fraction(f_bar((d - 1, 1), 2), math.comb(d, 2))
    return [
        (e.r, abs(e.ratio - 1), 10 * rate**e.r)
        for e in rep.entries
        if e.r >= 10 and abs(e.ratio - 1) > 10 * rate**e.r
    ]


@pytest.mark.parametrize("d", [3, 4])
def test_criterion_2_sharp_envelope(d):
    bad = _classical_envelope_violations(d)
    assert _line(f"criterion 2 (classical envelope d={d}, every admissible r>=10)",
                 not bad, "bound 10*(f((d-1,1))/C(d,2))^r")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: at d=5 the subleading pair (4,1)/(2,1,1,1) enters the"
           " disconnected sum with coefficient dim(4,1)^2 = 16, so |ratio-1| ="
           " 16*(5/10)^r + 25*(2/10)^r > 10*(5/10)^r at every admissible r;"
           " the stated margin 10 is below the true constant 16"
           " (see the decisions ledger)",
)
def test_criterion_2_sharp_envelope_d5():
    bad = _classical_envelope_violations(5)
    assert _line("criterion 2 (classical envelope d=5)", not bad,
                 f"{len(bad)} violations, first at r={bad[0][0] if bad else None}")


def test_criterion_2_d5_true_envelope():
    # companion pinning the true d=5 error: 16*(1/2)^r <= |ratio-1| <= 17*(1/2)^r
    rep = _classical_ratio(5)
    ok = True
    for e in rep.entries:
        if e.r < 10:
            continue
        err = abs(e.ratio - 1)
        lo = 16 * Fraction(1, 2) ** e.r
        hi = 17 * Fraction(1, 2) ** e.r
        ok = ok and lo <= err <= hi
    assert _line("criterion 2 companion (true d=5 envelope constant is 16, not <=10)", ok)


# ---------------------------------------------------------------------------
# Criterion 3: single fixed profile
# ---------------------------------------------------------------------------

def _profile_cases():
    for d in (2, 3, 4, 5):
        profiles = {(d,), (2,) + (1,) * (d - 2)}
        for mu in sorted(profiles, reverse=True):
            yield d, mu


@pytest.mark.parametrize("d,mu", list(_profile_cases()))
def test_criterion_3_single_profile(d, mu):
    rep = ratio_report(
        lambda r: completed_hurwitz(r, 1, (mu,)).value,
        lambda r: completed_leading_term(r, d, 1),
        range(0, 41),
    )
    ok = rep.final_error <= MILLI
    rate = Fraction(f_bar((d - 1, 1), 2) if d > 2 else 0, math.comb(d, 2))
    for e in rep.entries:
        if e.r >= 10 and abs(e.ratio - 1) > 10 * rate**e.r:
            ok = False
    assert _line(f"criterion 3 (single profile d={d} mu={mu})", ok,
                 f"final |ratio-1| = {rep.final_error_decimal}")


# ---------------------------------------------------------------------------
# Criterion 4: monotone blocks
# ---------------------------------------------------------------------------

def _monotone_ratio(d, k, a_vec, b_vec, r_max=40):
    gspec = GSpec(K=k, L=len(a_vec), M=len(b_vec))
    caps = tuple(a_vec) + tuple(b_vec)

    def exact(r):
        value = hypergeometric_hurwitz(r, gspec, (), d=d, caps=caps).value
        return value.coefficient(caps)

    # the r^{K-1} prefactor vanishes legitimately at r = 0 for K >= 2
    r_min = 0 if k == 1 else 1
    return ratio_report(
        exact,
        lambda r: monotone_leading_term(r, d, k, a_vec, b_vec),
        range(r_min, r_max + 1),
    )


def _monotone_cases(ks):
    for d in (3, 4):
        for k in ks:
            yield d, k, (), ()
            for a in (1, 2):
                yield d, k, (a,), ()
            for b in (1, 2):
                yield d, k, (), (b,)


@pytest.mark.parametrize("d,k,a_vec,b_vec", list(_monotone_cases(ks=(1,))))
def test_criterion_4_single_pole_blocks(d, k, a_vec, b_vec):
    rep = _monotone_ratio(d, k, a_vec, b_vec)
    ok = rep.final_error <= MILLI
    assert _line(f"criterion 4 (monotone d={d} K=1 a={a_vec} b={b_vec})", ok,
                 f"final |ratio-1| = {rep.final_error_decimal}")


def test_criterion_4_exact_degree_two():
    rep = _monotone_ratio(2, 1, (), (), r_max=30)
    ok = all(e.ratio == 1 for e in rep.entries) and all(
        e.r % 2 == 0 for e in rep.entries)
    assert _line("criterion 4 (d=2 K=1 ratio identically 1, zero tolerance)", ok)


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: for K = 2 the dominant poles are double, so the exact"
           " coefficient is ~ A2 (r+1) rho^r + A1 rho^r while the stated leading"
           " term keeps r^{K-1}/(K-1)! only; the ratio approaches 1 like"
           " (A2+A1)/(A2 r) = O(1/r), and 1/40 = 0.025 > 1e-3 at the stated"
           " horizon r = 40 (see the decisions ledger)",
)
@pytest.mark.parametrize("d,k,a_vec,b_vec", list(_monotone_cases(ks=(2,))))
def test_criterion_4_double_pole_blocks(d, k, a_vec, b_vec):
    rep = _monotone_ratio(d, k, a_vec, b_vec)
    ok = rep.final_error <= MILLI
    assert _line(f"criterion 4 (monotone d={d} K=2 a={a_vec} b={b_vec})", ok,
                 f"final |ratio-1| = {rep.final_error_decimal}")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_criterion_4_double_pole_true_rate(d):
    # companion: the K=2 error is genuinely Theta(1/r) at the horizon, with a
    # d-dependent constant (1 at d=2,3 and 4 at d=4), far above 1e-3
    rep = _monotone_ratio(d, 2, (), ())
    final = abs(rep.entries[-1].ratio - 1)
    r = rep.entries[-1].r
    ok = MILLI < final <= Fraction(15, 100) and Fraction(1, 2) <= final * r <= 5
    assert _line(f"criterion 4 companion (K=2 d={d} error is Theta(1/r))", ok,
                 f"r*|ratio-1| = {float(final * r):.3f}")


# ---------------------------------------------------------------------------
# Criterion 5: completed cycles
# ---------------------------------------------------------------------------

def test_criterion_5_eigenvalue_identity():
    ok = all(m_ds(d, 1) == math.comb(d, 2) for d in range(1, 21))
    assert _line("criterion 5 (M_{d,1} = C(d,2) for d<=20, exact)", ok)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("s", [2, 3])
def test_criterion_5_completed_ratio(d, s):
    cases = [()]
    cases += [(mu,) for mu in enumerate_partitions(d)]
    ok = True
    worst = Fraction(0)
    for profiles in cases:
        ell = sum(len(mu) for mu in profiles)
        if s % 2 == 0 and (len(profiles) * d - ell) % 2:
            continue  # the family vanishes identically
        rep = ratio_report(
            lambda r, profiles=profiles: completed_hurwitz(r, s, profiles, d=d).value,
            lambda r: completed_leading_term(r, d, s),
            range(0, 41),
        )
        worst = max(worst, rep.final_error)
        ok = ok and rep.final_error <= MILLI
    assert _line(f"criterion 5 (completed ratio d={d} s={s}, N<=1)", ok,
                 f"worst final |ratio-1| = {float(worst):.2e}")


def test_criterion_5_degree_one_degenerate():
    # at d=1 the row and column partitions coincide, so the two-pole sum
    # double counts and the exact ratio is identically 1/2; the theorem's
    # factor 2 presumes d >= 2 (see the decisions ledger)
    rep = ratio_report(
        lambda r: completed_hurwitz(r, 2, (), d=1).value,
        lambda r: completed_leading_term(r, 1, 2),
        range(1, 11),
    )
    ok = all(e.ratio == Fraction(1, 2) for e in rep.entries)
    assert _line("criterion 5 note (d=1 ratio is exactly 1/2: degenerate"
                 " single-partition case)", ok)


# ---------------------------------------------------------------------------
# Criterion 6: structure theorem, resummation, gap
# ---------------------------------------------------------------------------

def test_criterion_6_resummation():
    ok = True
    checked = 0
    for d in range(1, 7):
        parts = enumerate_partitions(d)
        combos = [()]
        combos += [(mu,) for mu in parts]
        combos += [(mu, nu) for mu in parts for nu in parts]
        for s in (1, 2, 3):
            for profiles in combos:
                n = len(profiles)
                ell = sum(len(mu) for mu in profiles)
                for r in range(1, 11):
                    if s % 2 == 1 and (r + n * d - ell) % 2:
                        continue
                    lhs = structure_resummation(r, s, profiles, d=d)
                    rhs = completed_hurwitz(r, s, profiles, d=d).value
                    checked += 1
                    if lhs != rhs:
                        ok = False
    assert _line("criterion 6 (resummation identity d<=6, s<=3, r<=10, N<=2)",
                 ok, f"{checked} identities, exact")


def test_criterion_6_gap_and_leading():
    ok = True
    for d in range(2, 9):
        for s in (1, 2, 3):
            coeffs = structure_coefficients(s, (), d=d)
            lo, hi = gap_interval(d, s)
            if [m for m in coeffs if lo < m < hi]:
                ok = False
            if coeffs.get(m_ds(d, s)) != 1:
                ok = False
    # the fixed-profile leading coefficient from the structure theorem
    ok = ok and structure_coefficients(1, ((2, 1, 1),))[m_ds(4, 1)] == 1
    for d in range(2, 6):
        for mu in enumerate_partitions(d):
            for s in (1, 2, 3):
                coeffs = structure_coefficients(s, (mu,))
                admissible = s % 2 == 1 or (d - len(mu)) % 2 == 0
                top = coeffs.get(m_ds(d, s), Fraction(0))
                if admissible and top != 1:
                    ok = False
                if not admissible and top != 0:
                    ok = False
    assert _line("criterion 6 (gap empty d<=8 s<=3; leading coefficient 1)", ok)


# ---------------------------------------------------------------------------
# Criterion 7: pole coefficients
# ---------------------------------------------------------------------------

def test_criterion_7_pole_closed_form():
    report = verify.verify_poles(max_d=7)
    assert _line("criterion 7 (pole limit vs Stirling series d<=7 K<=3 L,M<=2)",
                 report["pass"], "coefficientwise, exact")


# ---------------------------------------------------------------------------
# Criterion 8: appendix identities
# ---------------------------------------------------------------------------

def test_criterion_8_jucys_stirling():
    report = verify.verify_stirling(max_d=5)
    assert _line("criterion 8 (Jucys e/h vs Stirling d<=5 k<=6; naturals n<=10)",
                 report["pass"], "exact")


@pytest.mark.xfail(
    strict=True,
    reason="paper defect: the displayed class expansions of e_k/h_k at the"
           " Jucys-Murphy elements are false as written; literal algebra gives"
           " h_2 = 3*id + 2*C_(3) at d=3 while the display can only produce"
           " coefficients {d-m; d-k} in {0, 1} on each class, whichever way"
           " l(sigma) is read.  The true statements (e_k is the codimension-k"
           " indicator with [d; d-k] terms; both act on the row idempotent by"
           " Stirling eigenvalues) are asserted in criterion 8 above"
           " (see the decisions ledger)",
)
def test_criterion_8_literal_displayed_expansion():
    ok = True
    for d in (2, 3, 4):
        for k in (1, 2, 3):
            h = oracle.jm_symmetric_evaluate("h", k, d)
            coeffs = h.class_coefficients()
            for mu, value in coeffs.items():
                codim = d - len(mu)
                displayed = stirling(2, d - codim, d - k) if d - k >= 0 else 0
                if value != displayed:
                    ok = False
    assert _line("criterion 8 (literal displayed h-expansion)", ok)


def test_criterion_8_idempotents():
    ok = True
    for d in range(1, 6):
        if not resolution_of_identity(d):
            ok = False
        for lam in enumerate_partitions(d):
            report = oracle.idempotent_check(
                lam, z_order=4, literal_order=1,
                u_values=(1,), v_values=(Fraction(1, 2),))
            ok = ok and report["passed"]
    assert _line("criterion 8 (idempotent resolution + content eigenvalue law"
                 " d<=5, z-order 4)", ok)


# ---------------------------------------------------------------------------
# Criterion 9: Jack suite
# ---------------------------------------------------------------------------

def test_criterion_9_jack_exact():
    report = verify.verify_jack(max_d=6)
    assert _line("criterion 9 (Jack norms/characters d<=6; b=0 engine match"
                 " d<=4 r<=6)", report["pass"], "exact")


@pytest.mark.parametrize("b", [Fraction(1), Fraction(-1, 2)])
@pytest.mark.parametrize("d", [2, 3])
def test_criterion_9_b_asymptotics(b, d):
    from hurwitz.asymptotics import b_leading_term

    rep = ratio_report(
        lambda r: b_hurwitz_coefficient(r, GSpec(K=1), (), b, d=d).constant_value(),
        lambda r: b_leading_term(r, d, 0, 0, 1, (), (), b),
        range(0, 31),
    )
    ok = rep.final_error <= CENTI
    assert _line(f"criterion 9 (b-content ratio b={b} d={d} within 1e-2 by r=30)",
                 ok, f"final |ratio-1| = {rep.final_error_decimal}")


# ---------------------------------------------------------------------------
# Criterion 10: Gromov-Witten correlators
# ---------------------------------------------------------------------------

def test_criterion_10_degree_one_exact():
    ok = gw_correlator((1,), (1,), {2: 1}) == Fraction(247, 5760)
    for m in (1, 2, 3, 4):
        ok = ok and gw_correlator((1,), (1,), {1: m}) == 0
    assert _line("criterion 10 (degree-one correlators exact)", ok)


def test_criterion_10_ratio():
    ok = True
    worst = Fraction(0)
    cases = []
    for d in (2, 3):
        for mu in enumerate_partitions(d):
            for nu in enumerate_partitions(d):
                cases.append((mu, nu))
    for mu, nu in cases:
        for s, m_max in ((2, 15), (3, 10)):
            try:
                rep = ratio_report(
                    lambda m, mu=mu, nu=nu, s=s: gw_correlator(mu, nu, {s: m}),
                    lambda m, mu=mu, nu=nu, s=s: gw_leading_term(mu, nu, {s: m}),
                    range(1, m_max + 1),
                )
            except EmptyReportError:
                continue  # parity keeps the whole family at zero
            worst = max(worst, rep.final_error)
            ok = ok and rep.final_error <= CENTI
    assert _line("criterion 10 (gw ratio d<=3 within 1e-2 by insertion weight 30)",
                 ok, f"worst final |ratio-1| = {float(worst):.2e}")
