"""Verification sweeps shared by the CLI and the acceptance suite.

Each function returns a report dict with a ``checks`` list of
``{"name", "pass", "detail"}`` rows and an overall ``pass`` flag; the
CLI serialises these and turns failures into exit code 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import characters, oracle
from .asymptotics import (
    b_leading_term,
    completed_leading_term,
    gw_leading_term,
    monotone_leading_term,
    pole_coefficient,
    pole_coefficient_stirling,
    ratio_report,
)
from .core import (
    GSpec,
    _resolve_degree,
    completed_hurwitz,
    f_bar,
    gap_interval,
    gw_correlator,
    hypergeometric_hurwitz,
    m_ds,
    mixed_simple_hypergeometric,
    structure_coefficients,
    structure_resummation,
)
from .errors import DomainError, EmptyReportError
from .exactnum import stirling
from .jack import b_hurwitz_coefficient, deformed_contents, jack_in_psums, jack_norm
from .partitions import (
    class_data,
    contents,
    enumerate_partitions,
    frobenius_shifted,
    transpose,
)


def _report(name: str, checks: list[dict], **config) -> dict:
    return {
        "suite": name,
        "config": config,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _check(checks: list[dict], name: str, ok: bool, detail: str = ""):
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


# ---------------------------------------------------------------------------
# Character table invariants
# ---------------------------------------------------------------------------

def verify_characters(max_d: int = 6, bruteforce_d: int = 5) -> dict:
    checks: list[dict] = []
    for d in range(1, max_d + 1):
        table = characters.char_table(d)
        parts = table.partitions
        sizes = {mu: class_data(mu).class_size for mu in parts}
        order = math.factorial(d)

        ok = all(
            sum(sizes[mu] * table.value(lam, mu) * table.value(eta, mu) for mu in parts)
            == (order if lam == eta else 0)
            for lam in parts
            for eta in parts
        )
        _check(checks, f"row-orthogonality d={d}", ok)

        ok = all(
            table.value(transpose(lam), mu)
            == (-1) ** (d - len(mu)) * table.value(lam, mu)
            for lam in parts
            for mu in parts
        )
        _check(checks, f"transpose-sign rule d={d}", ok)

        ok = sum(characters.dim(lam) ** 2 for lam in parts) == order
        _check(checks, f"sum of dim^2 = d! at d={d}", ok)

        ok = all(table.value((d,), mu) == 1 for mu in parts) and all(
            table.value((1,) * d, mu) == (-1) ** (d - len(mu)) for mu in parts
        )
        _check(checks, f"trivial and sign rows d={d}", ok)

    for d in range(1, min(bruteforce_d, oracle.ORACLE_MAX_DEGREE) + 1):
        table = characters.char_table(d)
        brute = oracle.bruteforce_character_table(d)
        ok = all(
            brute[lam][mu] == table.value(lam, mu)
            for lam in table.partitions
            for mu in table.partitions
        )
        _check(checks, f"permutation-module bruteforce d={d}", ok)
    return _report("characters", checks, max_d=max_d, bruteforce_d=bruteforce_d)


# ---------------------------------------------------------------------------
# Master oracle sweep
# ---------------------------------------------------------------------------

def _block_configs(max_transpositions: int, max_blocks: int = 2):
    yield ()
    for k in range(1, max_transpositions + 1):
        for c in oracle.CONSTRAINTS:
            yield (oracle.Block(k, c),)
    if max_blocks >= 2:
        for k1 in range(1, max_transpositions):
            for k2 in range(1, max_transpositions - k1 + 1):
                for c1 in oracle.CONSTRAINTS:
                    for c2 in oracle.CONSTRAINTS:
                        yield (oracle.Block(k1, c1), oracle.Block(k2, c2))


def _engine_value(d: int, profiles, blocks) -> Fraction:
    """Character-sum value matching a factorization query exactly."""
    simple = sum(b.count for b in blocks if b.constraint == "none")
    strict = [b.count for b in blocks if b.constraint == "strict"]
    weak = [b.count for b in blocks if b.constraint == "weak"]
    gspec = GSpec(K=0, L=len(strict), M=len(weak))
    caps = tuple(strict + weak)
    expo = tuple(strict + weak)
    r = sum(caps)
    if gspec.nvars == 0:
        if simple == 0:
            return completed_hurwitz(0, 1, profiles, d=d).value
        return completed_hurwitz(simple, 1, profiles, d=d).value
    if simple == 0:
        poly = hypergeometric_hurwitz(r, gspec, profiles, d=d, caps=caps).value
    else:
        poly = mixed_simple_hypergeometric(simple, r, gspec, profiles, d=d, caps=caps)
    return poly.coefficient(expo)


def verify_oracle(max_d: int = 4, max_transpositions: int = 6,
                  max_blocks: int = 2) -> dict:
    """Master equivalence: the character engine against literal counting,
    over every profile combination with N <= 2 and every block shape."""
    checks: list[dict] = []
    for d in range(1, max_d + 1):
        parts = enumerate_partitions(d)
        combos = [()]
        combos += [(mu,) for mu in parts]
        combos += [(mu, nu) for mu in parts for nu in parts]
        bad = 0
        total = 0
        first_bad = ""
        for blocks in _block_configs(max_transpositions, max_blocks):
            for profs in combos:
                total += 1
                query = oracle.FactorizationQuery(d=d, profiles=profs, blocks=blocks)
                expected = oracle.count_factorizations(query)
                got = _engine_value(d, profs, blocks)
                if got != expected:
                    bad += 1
                    if not first_bad:
                        first_bad = f"d={d} profiles={profs} blocks={blocks}: {got} != {expected}"
        _check(checks, f"oracle equivalence d={d}", bad == 0,
               first_bad or f"{total} queries")
    return _report("oracle", checks, max_d=max_d,
                   max_transpositions=max_transpositions, max_blocks=max_blocks)


# ---------------------------------------------------------------------------
# Stirling and Jucys-Murphy identities
# ---------------------------------------------------------------------------

def verify_stirling(max_n: int = 10, max_d: int = 5, max_k: int = 6) -> dict:
    checks: list[dict] = []
    from .exactnum import MultiPoly, TruncSeries, affine_factor, geometric_factor

    for n in range(0, max_n + 1):
        one = MultiPoly.constant(0, 1)
        rising = TruncSeries.one(0, n)
        for i in range(1, n + 1):
            rising = rising.mul(affine_factor(i, one, n))
        ok = all(
            rising.coeffs[k].constant_value() == stirling(1, n + 1, n + 1 - k)
            for k in range(n + 1)
        )
        _check(checks, f"prod (1+iz) vs first kind, n={n}", ok)

        order = 8
        falling = TruncSeries.one(0, order)
        for i in range(1, n + 1):
            falling = falling.mul(geometric_factor(i, one, order))
        ok = all(
            falling.coeffs[k].constant_value() == stirling(2, n + k, n)
            for k in range(order + 1)
        )
        _check(checks, f"prod 1/(1-iz) vs second kind, n={n}", ok)

    for d in range(2, min(max_d, oracle.ORACLE_MAX_DEGREE) + 1):
        for k in range(0, max_k + 1):
            e = oracle.jm_symmetric_evaluate("e", k, d)
            # Jucys: e_k is the sum of permutations needing exactly k transpositions
            ok = True
            for p in oracle.group(d):
                codim = d - len(oracle.cycle_type(p))
                want = Fraction(1) if codim == k else Fraction(0)
                if e.coefficient(p) != want:
                    ok = False
                    break
            want_terms = stirling(1, d, d - k) if d >= k else 0
            terms_ok = len(e.coeffs) == want_terms
            _check(checks, f"e_{k}(JM) class support d={d}", ok and terms_ok)

        f_top = oracle.central_idempotent((d,))
        for k in range(0, max_k + 1):
            e = oracle.jm_symmetric_evaluate("e", k, d)
            h = oracle.jm_symmetric_evaluate("h", k, d)
            e_eigen = stirling(1, d, d - k) if d >= k else 0
            ok_e = (e * f_top) == f_top.scale(e_eigen)
            ok_h = (h * f_top) == f_top.scale(stirling(2, d - 1 + k, d - 1))
            _check(checks, f"JM eigenvalues on the row idempotent d={d} k={k}",
                   ok_e and ok_h)
    return _report("stirling", checks, max_n=max_n, max_d=max_d, max_k=max_k)


# ---------------------------------------------------------------------------
# Jack suite
# ---------------------------------------------------------------------------

def verify_jack(max_d: int = 5, alphas=(1, 2, Fraction(1, 2), 3),
                b0_max_d: int = 4, b0_max_r: int = 6) -> dict:
    checks: list[dict] = []
    alphas = [Fraction(a) for a in alphas]
    for d in range(1, max_d + 1):
        parts = enumerate_partitions(d)
        for alpha in alphas:
            expansions = {lam: jack_in_psums(lam, alpha).as_dict() for lam in parts}
            weights = {
                mu: Fraction(class_data(mu).stabilizer) * alpha ** len(mu)
                for mu in parts
            }

            def dot(f, g):
                return sum(
                    (c * g.get(mu, Fraction(0)) * weights[mu] for mu, c in f.items()),
                    Fraction(0),
                )

            ok = all(
                dot(expansions[lam], expansions[lam]) == jack_norm(lam, alpha)
                for lam in parts
            )
            _check(checks, f"Gram-Schmidt norm vs hook product d={d} alpha={alpha}", ok)
            ok = all(
                dot(expansions[lam], expansions[eta]) == 0
                for lam in parts for eta in parts if lam != eta
            )
            _check(checks, f"Jack orthogonality d={d} alpha={alpha}", ok)
            ok = all(
                expansions[(d,)].get(mu, Fraction(0)) / class_data(mu).class_size
                == alpha ** (d - len(mu))
                for mu in parts
            ) and all(
                expansions[(1,) * d].get(mu, Fraction(0)) / class_data(mu).class_size
                == Fraction(-1) ** (d - len(mu))
                for mu in parts
            )
            _check(checks, f"row/column Jack characters d={d} alpha={alpha}", ok)

        table = characters.char_table(d)
        schur = {lam: jack_in_psums(lam, Fraction(1)).as_dict() for lam in parts}
        ok = all(
            schur[lam].get(mu, Fraction(0)) / class_data(mu).class_size
            == Fraction(table.value(lam, mu), characters.dim(lam))
            for lam in parts
            for mu in parts
        )
        _check(checks, f"alpha=1 matches chi/dim at d={d}", ok)

    for alpha, want in ((Fraction(2), "row"), (Fraction(1, 2), "column"),
                        (Fraction(1), "both")):
        ok = True
        for d in range(1, max_d + 1):
            best = max(
                max((abs(c) for c in deformed_contents(lam, alpha)), default=Fraction(0))
                for lam in enumerate_partitions(d)
            )
            winners = {
                lam
                for lam in enumerate_partitions(d)
                if max((abs(c) for c in deformed_contents(lam, alpha)),
                       default=Fraction(0)) == best
            }
            expect = {(d,): "row", (1,) * d: "column"}
            expected = {lam for lam, tag in expect.items()
                        if want in (tag, "both")} if d > 1 else {(1,)}
            if d == 1:
                expected = {(1,)}
            if winners != expected:
                ok = False
        _check(checks, f"extreme-content maximisers alpha={alpha}", ok)

    g = GSpec(K=1, L=1, M=1)
    ok = True
    for d in range(1, b0_max_d + 1):
        for r in range(0, b0_max_r + 1):
            caps = (min(r, d), r)
            lhs = b_hurwitz_coefficient(r, g, (), 0, d=d, caps=caps)
            rhs = hypergeometric_hurwitz(r, g, (), d=d, caps=caps).value
            if lhs != rhs:
                ok = False
    _check(checks, f"b=0 equals the undeformed engine (d<={b0_max_d}, r<={b0_max_r})", ok)
    return _report("jack", checks, max_d=max_d,
                   alphas=[str(a) for a in alphas])


# ---------------------------------------------------------------------------
# Structure coefficients and the gap
# ---------------------------------------------------------------------------

def verify_gap(d: int, s: int, profiles=(), *, resum_r: int = 10) -> dict:
    checks: list[dict] = []
    coeffs = structure_coefficients(s, profiles, d=d)
    lo, hi = gap_interval(d, s)
    inside = [m for m in coeffs if lo < m < hi]
    note = f"interval ({lo}, {hi})"
    if s == 1:
        # one unit longer than the connected-family gap (C(d-1,2), C(d,2))
        note += f"; connected form ({math.comb(d - 1, 2)}, {math.comb(d, 2)})"
    _check(checks, f"empty gap ({lo}, {hi})", not inside,
           f"keys inside: {inside}" if inside else note)

    n = len(profiles)
    ell = sum(len(mu) for mu in profiles)
    admissible_profiles = (n * d - ell) % 2 == 0 or s % 2 == 1
    top = coeffs.get(m_ds(d, s), Fraction(0))
    if admissible_profiles:
        _check(checks, "leading coefficient is 1", top == 1, f"C(M)={top}")
    else:
        _check(checks, "inadmissible profiles give a vanishing family", top == 0,
               f"C(M)={top}")

    ok = True
    detail = ""
    for r in range(1, resum_r + 1):
        if s % 2 == 1 and (r + n * d - ell) % 2 != 0:
            continue
        lhs = structure_resummation(r, s, profiles, d=d)
        rhs = completed_hurwitz(r, s, profiles, d=d).value
        if lhs != rhs:
            ok = False
            detail = f"r={r}: {lhs} != {rhs}"
            break
    _check(checks, f"resummation identity r<={resum_r}", ok, detail)
    return _report("gap", checks, d=d, s=s,
                   profiles=[list(mu) for mu in profiles])


# ---------------------------------------------------------------------------
# Pole coefficients
# ---------------------------------------------------------------------------

def verify_poles(max_d: int = 7, max_k: int = 3, max_lm: int = 2,
                 v_order: int = 3) -> dict:
    checks: list[dict] = []
    for d in range(2, max_d + 1):
        ok = True
        detail = ""
        for k in range(1, max_k + 1):
            for l in range(0, max_lm + 1):
                for m in range(0, max_lm + 1):
                    g = GSpec(K=k, L=l, M=m)
                    for sign in (1, -1):
                        a = pole_coefficient(d, g, (), sign, v_order=v_order)
                        b = pole_coefficient_stirling(d, g, (), sign, v_order=v_order)
                        if a.coefficient != b.coefficient or a.rho != b.rho:
                            ok = False
                            detail = f"K={k} L={l} M={m} sign={sign}"
        _check(checks, f"limit vs Stirling closed form d={d}", ok, detail)
    return _report("poles", checks, max_d=max_d, max_k=max_k, max_lm=max_lm,
                   v_order=v_order)


# ---------------------------------------------------------------------------
# Ratio sweeps
# ---------------------------------------------------------------------------

def ratio_family(kind: str, *, d: int | None = None, s: int = 1, profiles=(),
                 k: int = 1, a_vec=(), b_vec=(), b=0, gw_s: int = 2):
    """The resolved degree and the exact and leading-term functions of r
    for one asymptotic family, as ``(d, exact, leading)``.

    ``classical``/``completed`` use ``s``; ``monotone`` extracts the
    ``u^a_vec v^b_vec`` coefficient at K = ``k``; ``b`` is the b-content
    family at K = ``k``; ``gw`` takes two profiles and sweeps the count of
    ``gw_s`` insertions.
    """
    if kind not in ("classical", "completed", "monotone", "b", "gw"):
        raise DomainError(f"unknown ratio kind {kind!r}")
    if kind == "gw" and len(profiles) != 2:
        raise DomainError("gw ratio needs two profiles")
    d, profiles = _resolve_degree(profiles, d)
    n = len(profiles)
    ell = sum(len(mu) for mu in profiles)
    if kind in ("classical", "completed"):
        def exact(r):
            return completed_hurwitz(r, s, profiles, d=d).value

        return d, exact, lambda r: completed_leading_term(r, d, s, n, ell)
    if kind == "monotone":
        gspec = GSpec(K=k, L=len(a_vec), M=len(b_vec))
        caps = tuple(a_vec) + tuple(b_vec)

        def exact(r):
            return hypergeometric_hurwitz(r, gspec, profiles, d=d,
                                          caps=caps).value.coefficient(caps)

        return d, exact, lambda r: monotone_leading_term(r, d, n, ell, k, a_vec, b_vec)
    if kind == "b":
        gspec = GSpec(K=k)

        def exact(r):
            return b_hurwitz_coefficient(r, gspec, profiles, b, d=d).constant_value()

        return d, exact, lambda r: b_leading_term(r, d, n, ell, k, (), (), b)
    mu, nu = profiles

    def exact(m):
        return gw_correlator(mu, nu, {gw_s: m})

    return d, exact, lambda m: gw_leading_term(mu, nu, {gw_s: m})


def verify_ratio(kind: str, *, d: int | None = None, r_max: int = 40, s: int = 1,
                 profiles=(), k: int = 1, a_vec=(), b_vec=(), b=0,
                 gw_s: int = 2, tolerance=Fraction(1, 1000)) -> dict:
    """Ratio-to-leading-term checks for one asymptotic family."""
    checks: list[dict] = []
    tolerance = Fraction(tolerance)
    d, exact, leading = ratio_family(kind, d=d, s=s, profiles=profiles, k=k,
                                     a_vec=a_vec, b_vec=b_vec, b=b, gw_s=gw_s)
    try:
        rep = ratio_report(exact, leading, range(0, r_max + 1))
    except EmptyReportError:
        _check(checks, f"{kind} ratio d={d}", False, "empty report: exact values all zero")
        return _report("ratio", checks, kind=kind, d=d, r_max=r_max)
    _check(
        checks,
        f"{kind} ratio d={d} final |ratio-1| <= {tolerance}",
        rep.final_error <= tolerance,
        f"final |ratio-1| = {rep.final_error_decimal} at r={rep.entries[-1].r}",
    )
    return _report("ratio", checks, kind=kind, d=d, r_max=r_max,
                   tolerance=str(tolerance))


# ---------------------------------------------------------------------------
# Eigenvalue-ordering sweep (the engine behind the gap)
# ---------------------------------------------------------------------------

def verify_eigenvalue_order(max_d: int = 10, indices=(2, 3, 4, 5)) -> dict:
    checks: list[dict] = []
    for s in indices:
        ok = True
        detail = ""
        for d in range(2, max_d + 1):
            top = abs(f_bar((d,), s))
            if abs(f_bar((1,) * d, s)) != top:
                ok = False
                detail = f"d={d}: |f((1^d))| != |f((d))|"
                break
            if d == 2:
                continue  # only the two extreme partitions exist
            sub_parts = [(d - 1, 1), (2,) + (1,) * (d - 2)]
            sub = abs(f_bar(sub_parts[0], s))
            if any(abs(f_bar(lam, s)) != sub for lam in sub_parts):
                ok = False
                detail = f"d={d}: hook pair mismatch"
                break
            if sub >= top:
                ok = False
                detail = f"d={d}: no gap below the top"
                break
            others = [
                lam for lam in enumerate_partitions(d)
                if lam not in ((d,), (1,) * d) and lam not in sub_parts
            ]
            worst = max((abs(f_bar(lam, s)) for lam in others), default=Fraction(-1))
            if others and worst >= sub:
                ok = False
                detail = f"d={d}: bulk reaches the hook level"
                break
        _check(checks, f"eigenvalue ordering, index {s}", ok, detail)
    return _report("eigenvalue-order", checks, max_d=max_d, indices=list(indices))


SUITES = {
    "characters": verify_characters,
    "oracle": verify_oracle,
    "stirling": verify_stirling,
    "jack": verify_jack,
    "gap": verify_gap,
    "poles": verify_poles,
    "ratio": verify_ratio,
    "eigenvalue-order": verify_eigenvalue_order,
}
