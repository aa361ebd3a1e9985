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
    _limit_inputs,
    _pole_read,
    _stirling_inputs,
    b_leading_sweep,
    completed_leading_sweep,
    first_r,
    gw_leading_sweep,
    monotone_leading_sweep,
    ratio_report,
)
from .core import (
    GSpec,
    _content_coefficient,
    _content_terms,
    _degrees,
    _gw_scale,
    _orders,
    _resolve_degree,
    _scaled_f_bar,
    character_weights,
    completed_spectrum,
    completed_sweep,
    f_bar,
    f_bar_denominator,
    gap_interval,
    hypergeometric_hurwitz_sweep,
    m_ds,
    resum_structure,
    structure_coefficients,
    weighted_sweep,
)
from .errors import DomainError, EmptyReportError
from .exactnum import stirling
from .jack import (_check_jack_degree, b_hurwitz_sweep, deformed_contents, hall_product,
                   jack_in_psums, jack_norm)
from .partitions import class_data, enumerate_partitions, partition_tuple, transpose


def _report(name: str, checks: list[dict], **config) -> dict:
    return {
        "suite": name,
        "config": config,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _check(checks: list[dict], name: str, ok: bool, detail: str = ""):
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _check_sweep_start(suite: str, max_d: int, start: int = 2):
    """Refuse a degree sweep from d = ``start`` that would check nothing."""
    if max_d < start:
        raise DomainError(f"verify {suite} sweeps from d={start}, so max_d must be at least "
                          f"{start}, got {max_d}")


# ---------------------------------------------------------------------------
# Character table invariants
# ---------------------------------------------------------------------------

# the top degree of the permutation-module character check, below the
# oracle's degree guard
BRUTEFORCE_MAX_D = 5


def verify_characters(max_d: int = 6) -> dict:
    _check_sweep_start("characters", max_d, start=1)
    checks: list[dict] = []
    characters.char_table(max_d).fill()  # above the ceiling, fail before any check
    for d in range(1, max_d + 1):
        table = characters.char_table(d)
        parts = table.partitions
        sizes = [class_data(mu).class_size for mu in parts]
        order = math.factorial(d)

        rows = table.entries
        ok = all(
            sum(z * x * y for z, x, y in zip(sizes, row, other))
            == (order if i == j else 0)
            for i, row in enumerate(rows)
            for j, other in enumerate(rows)
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

    for d in range(1, BRUTEFORCE_MAX_D + 1):
        table = characters.char_table(d)
        brute = oracle.bruteforce_character_table(d)
        ok = all(
            brute[lam][mu] == value
            for lam, row in zip(table.partitions, table.entries)
            for mu, value in zip(table.partitions, row)
        )
        _check(checks, f"permutation-module bruteforce d={d}", ok)
    return _report("characters", checks, max_d=max_d, bruteforce_d=BRUTEFORCE_MAX_D)


# ---------------------------------------------------------------------------
# Master oracle sweep
# ---------------------------------------------------------------------------

# `_block_configs` lists every block list of at most this many blocks
ORACLE_MAX_BLOCKS = 2


def _block_configs(max_transpositions: int):
    yield ()
    for k in range(1, max_transpositions + 1):
        for c in oracle.CONSTRAINTS:
            yield (oracle.Block(k, c),)
    for k1 in range(1, max_transpositions):
        for k2 in range(1, max_transpositions - k1 + 1):
            for c1 in oracle.CONSTRAINTS:
                for c2 in oracle.CONSTRAINTS:
                    yield (oracle.Block(k1, c1), oracle.Block(k2, c2))


def _oracle_profiles(d: int) -> list[tuple]:
    """Every list of at most two profiles of degree d, in the suite's order."""
    parts = enumerate_partitions(d)
    return [()] + [(mu,) for mu in parts] + [(mu, nu) for mu in parts for nu in parts]


def _engine_query(blocks) -> tuple:
    """The engine query ``(simple, gspec, monomial)`` of a block list."""
    simple = sum(b.count for b in blocks if b.constraint == "none")
    strict = [b.count for b in blocks if b.constraint == "strict"]
    weak = [b.count for b in blocks if b.constraint == "weak"]
    return simple, GSpec(K=0, L=len(strict), M=len(weak)), tuple(strict + weak)


def _engine_values(d: int, profile_lists, queries) -> list[tuple[int, list[int]]]:
    """``(D, totals)`` at degree d for every profile list of
    ``profile_lists``, in order: the character sum of the ``_engine_query``
    tuple ``queries[i]`` is the integer ``totals[i]`` over the weights'
    denominator ``D`` (``character_weights``).  The simple counts without
    monotone blocks are read off one completed spectrum per list.  Every
    other query is read in one ``weighted_sweep`` per list, keyed by its
    position: each partition's e and h sequences are read once, to the
    largest monomial total, and at K = 0 (``hk`` is 1, 0, ...) that one
    pair serves every gspec.  A query's term is its monomial's content
    coefficient times ``f_bar(lam, 2)^simple``."""
    simple_only = [i for i, query in enumerate(queries) if not query[1].nvars]
    mixed = [i for i, query in enumerate(queries) if query[1].nvars]
    r_max = max((sum(queries[i][2]) for i in mixed), default=0)
    terms: dict = {}

    def factor(lam):  # f_bar(lam, 2) is an integer: Q_2 = 1
        if lam not in terms:
            sequences = _content_coefficient(lam, GSpec(L=1, M=1), r_max, 1, 1)
            f = _scaled_f_bar(lam, 2, 1)
            terms[lam] = [
                _content_terms(sequences, gspec, None, monomial)(sum(monomial)) * f**simple
                for simple, gspec, monomial in map(queries.__getitem__, mixed)].__getitem__
        return terms[lam]

    values = []
    for profiles in profile_lists:
        denominator, weights = character_weights(d, profiles)
        totals = [0] * len(queries)
        for i, total in zip(mixed, weighted_sweep(weights, factor, range(len(mixed))).values()):
            totals[i] = total
        spectrum = completed_spectrum(1, profiles, d)[1]
        for i in simple_only:
            totals[i] = sum(a * f**queries[i][0] for f, a in spectrum.items())
        values.append((denominator, totals))
    return values


def verify_oracle(max_d: int = 4, max_transpositions: int = 6) -> dict:
    """Master equivalence: the character engine against literal counting,
    over every profile combination with N <= 2 and every list of at most
    ``ORACLE_MAX_BLOCKS`` blocks.

    Both oracle guards (degree and transpositions) are checked before the
    sweep.  Each block list maps to one engine query ``(simple, gspec,
    monomial)``, kept by its position among the distinct queries.  Per d
    the engine is read by ``_engine_values``, as integer totals over the
    weights' denominator D: one weighted sum over the monotone queries and
    one completed spectrum per profile combination.  Per d the literal
    raw counts of every block list and every profile combination come from
    one ``oracle._raw_counts``, over d! prod |C_mu|.  Each raw count is
    compared with its engine total by cross-multiplying the two
    denominators; only the first mismatch is written out as Fractions.
    """
    oracle._check_degree(max_d)
    oracle._check_transpositions(max_transpositions)
    checks: list[dict] = []
    block_lists = list(_block_configs(max_transpositions))
    positions: dict = {}
    query_of = [positions.setdefault(_engine_query(blocks), len(positions))
                for blocks in block_lists]
    queries = list(positions)
    for d in range(1, max_d + 1):
        combos = _oracle_profiles(d)
        engine = _engine_values(d, combos, queries)
        denominators, literal = oracle._raw_counts(d, block_lists, combos)
        bad = 0
        first_bad = ""
        for blocks, i, raws in zip(block_lists, query_of, literal):
            for profs, (denominator, totals), raw, count_denominator in zip(
                    combos, engine, raws, denominators):
                if totals[i] * count_denominator != raw * denominator:
                    bad += 1
                    if not first_bad:
                        first_bad = (f"d={d} profiles={profs} blocks={blocks}: "
                                     f"{Fraction(totals[i], denominator)} != "
                                     f"{Fraction(raw, count_denominator)}")
        _check(checks, f"oracle equivalence d={d}", bad == 0,
               first_bad or f"{len(block_lists) * len(combos)} queries")
    return _report("oracle", checks, max_d=max_d,
                   max_transpositions=max_transpositions, max_blocks=ORACLE_MAX_BLOCKS)


# ---------------------------------------------------------------------------
# Stirling and Jucys-Murphy identities
# ---------------------------------------------------------------------------

# the top n of the Stirling product checks and the top k of e_k, h_k(JM)
STIRLING_MAX_N, STIRLING_MAX_K = 10, 6


def verify_stirling(max_d: int = 5) -> dict:
    _check_sweep_start("stirling", max_d)
    oracle._check_degree(max_d)  # above the oracle's guard, fail before any check
    checks: list[dict] = []
    from .exactnum import MultiPoly, TruncSeries, affine_factor, geometric_factor

    # both products grow by one factor per n: prod_{i<=n} (1 + iz) to the top
    # order STIRLING_MAX_N, where the coefficients above n vanish, and
    # prod_{i<=n} 1/(1 - iz) to order 8
    one, order = MultiPoly.constant(0, 1), 8
    rising = TruncSeries.one(0, STIRLING_MAX_N)
    falling = TruncSeries.one(0, order)
    for n in range(0, STIRLING_MAX_N + 1):
        if n:
            rising = rising.mul(affine_factor(n, one, STIRLING_MAX_N))
            falling = falling.mul(geometric_factor(n, one, order))
        ok = all(
            rising.coeffs[k].constant_value() == stirling(1, n + 1, n + 1 - k)
            for k in range(n + 1)
        ) and all(coeff.is_zero() for coeff in rising.coeffs[n + 1:])
        _check(checks, f"prod (1+iz) vs first kind, n={n}", ok)

        ok = all(
            falling.coeffs[k].constant_value() == stirling(2, n + k, n)
            for k in range(order + 1)
        )
        _check(checks, f"prod 1/(1-iz) vs second kind, n={n}", ok)

    for d in range(2, max_d + 1):
        # e_k and h_k of the Jucys-Murphy elements for every k <= STIRLING_MAX_K,
        # one expansion of prod (1 + z J_i) and one of prod 1/(1 - z J_i)
        e_series = oracle.jm_series([1, 1] + [0] * (STIRLING_MAX_K - 1), d)
        h_series = oracle.jm_series([1] * (STIRLING_MAX_K + 1), d)
        for k, e in zip(range(STIRLING_MAX_K + 1), e_series):
            # Jucys: e_k is the sum of permutations needing exactly k transpositions
            ok = all(e.coefficient(p) == (1 if d - len(oracle.cycle_type(p)) == k else 0)
                     for p in oracle.group(d))
            want_terms = stirling(1, d, d - k) if d >= k else 0
            terms_ok = len(e.coeffs) == want_terms
            _check(checks, f"e_{k}(JM) class support d={d}", ok and terms_ok)

        # on the row idempotent F_(d), d!^-1 times the sum of all permutations,
        # any x acts by the sum of its coefficients: x F_(d) = (sum_p x_p) F_(d)
        for k, e, h in zip(range(STIRLING_MAX_K + 1), e_series, h_series):
            e_eigen = stirling(1, d, d - k) if d >= k else 0
            ok_e = sum(e.coeffs.values()) == e_eigen
            ok_h = sum(h.coeffs.values()) == stirling(2, d - 1 + k, d - 1)
            _check(checks, f"JM eigenvalues on the row idempotent d={d} k={k}",
                   ok_e and ok_h)
    return _report("stirling", checks, max_n=STIRLING_MAX_N, max_d=max_d,
                   max_k=STIRLING_MAX_K)


# ---------------------------------------------------------------------------
# Jack suite
# ---------------------------------------------------------------------------

# the Jack parameters of the Gram-Schmidt checks, and the degrees and
# orders of the b = 0 comparison with the undeformed engine
JACK_ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
JACK_B0_MAX_D, JACK_B0_MAX_R = 4, 6


def verify_jack(max_d: int = 5) -> dict:
    _check_sweep_start("jack", max_d, start=1)
    _check_jack_degree(max_d)  # above the ceiling, fail before any basis is built
    checks: list[dict] = []
    for d in range(1, max_d + 1):
        parts = enumerate_partitions(d)
        for alpha in JACK_ALPHAS:
            expansions = {lam: jack_in_psums(lam, alpha) for lam in parts}
            dot = hall_product(d, alpha)
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
        schur = {lam: jack_in_psums(lam, Fraction(1)) for lam in parts}
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
            extent = {lam: max(map(abs, deformed_contents(lam, alpha)))
                      for lam in enumerate_partitions(d)}
            best = max(extent.values())
            expect = {(d,): "row", (1,) * d: "column"}
            expected = {lam for lam, tag in expect.items()
                        if want in (tag, "both")} if d > 1 else {(1,)}
            if {lam for lam, x in extent.items() if x == best} != expected:
                ok = False
        _check(checks, f"extreme-content maximisers alpha={alpha}", ok)

    # the Jack weights at alpha = 1 against the character weights: both
    # sides read the same content sequences by design (``verify oracle``
    # checks those against literal counts).  One sweep per degree: at
    # z-order r the caps (d, JACK_B0_MAX_R) keep the same monomials as
    # (min(r, d), r)
    g, r_values = GSpec(K=1, L=1, M=1), range(JACK_B0_MAX_R + 1)
    ok = all(b_hurwitz_sweep(r_values, g, (), 0, d=d, caps=(d, JACK_B0_MAX_R))
             == {result.r: result.value for result in hypergeometric_hurwitz_sweep(
                 r_values, g, (), d=d, caps=(d, JACK_B0_MAX_R))}
             for d in range(1, JACK_B0_MAX_D + 1))
    _check(checks, f"b=0 equals the undeformed engine (d<={JACK_B0_MAX_D}, "
                   f"r<={JACK_B0_MAX_R})", ok)
    return _report("jack", checks, max_d=max_d, alphas=[str(a) for a in JACK_ALPHAS])


# ---------------------------------------------------------------------------
# Structure coefficients and the gap
# ---------------------------------------------------------------------------

# the top r of the resummation identity
GAP_RESUM_R = 10


def verify_gap(d: int, s: int, profiles=()) -> dict:
    checks: list[dict] = []
    d, profiles = _resolve_degree(profiles, d)
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

    # the direct side sums F^r over the partitions, with F = f_bar(lam, s+1) Q,
    # so it checks the eigenvalue grouping against a sum that does not group
    ok = True
    detail = ""
    rs = [r for r in range(1, GAP_RESUM_R + 1) if s % 2 == 0 or (r + n * d - ell) % 2 == 0]
    q = f_bar_denominator(s + 1)
    denominator, weights = character_weights(d, profiles)
    direct = weighted_sweep(weights, lambda lam: _scaled_f_bar(lam, s + 1, q).__pow__, rs)
    for r in rs:
        lhs, rhs = resum_structure(coeffs, r, d), Fraction(direct[r], denominator * q**r)
        if lhs != rhs:
            ok = False
            detail = f"r={r}: {lhs} != {rhs}"
            break
    _check(checks, f"resummation identity r<={GAP_RESUM_R}", ok, detail)
    return _report("gap", checks, d=d, s=s,
                   profiles=[list(mu) for mu in profiles])


# ---------------------------------------------------------------------------
# Pole coefficients
# ---------------------------------------------------------------------------

# the top K, the top L and M, and the v order of the pole comparisons
POLES_MAX_K, POLES_MAX_LM, POLES_V_ORDER = 3, 2, 3


def verify_poles(max_d: int = 6) -> dict:
    """The pole coefficient by literal limit against its Stirling closed
    form, for every (K, L, M, sign) of the sweep: both are ``_pole`` of
    their inputs, so what ``_pole`` reads of each (``_pole_read``) is
    compared, as integers and Fractions, with no polynomial built."""
    _check_sweep_start("poles", max_d)
    checks: list[dict] = []
    for d in range(2, max_d + 1):
        ok = True
        detail = ""
        for k in range(1, POLES_MAX_K + 1):
            for l in range(0, POLES_MAX_LM + 1):
                for m in range(0, POLES_MAX_LM + 1):
                    g = GSpec(K=k, L=l, M=m)
                    for sign in (1, -1):
                        a = _pole_read(g, *_limit_inputs(d, g, (), sign, POLES_V_ORDER))
                        b = _pole_read(g, *_stirling_inputs(d, g, (), sign, POLES_V_ORDER))
                        if a != b:
                            ok = False
                            detail = f"K={k} L={l} M={m} sign={sign}"
        _check(checks, f"limit vs Stirling closed form d={d}", ok, detail)
    return _report("poles", checks, max_d=max_d, max_k=POLES_MAX_K, max_lm=POLES_MAX_LM,
                   v_order=POLES_V_ORDER)


# ---------------------------------------------------------------------------
# Ratio sweeps
# ---------------------------------------------------------------------------

def ratio_family(kind: str, r_values, *, d: int | None = None, s: int = 1,
                 profiles=(), k: int = 1, a_vec=(), b_vec=(), b=0, gw_s: int = 2):
    """The resolved degree, the exact values and the leading terms of one
    asymptotic family, as ``(d, exact, leading)``.

    ``exact`` is a dict keyed by every r of ``r_values``.  ``leading`` is
    the family's leading-term sweep, evaluated only at the rows of its
    ratio report: the r whose exact value is nonzero, from the sweep's
    first r on (``first_r``: 1 for monotone and b at K >= 2, else 0).
    ``ratio_report(exact.__getitem__, leading.__getitem__, leading)``
    tabulates them.

    ``classical``/``completed`` use ``s``; ``monotone`` extracts the
    ``u^a_vec v^b_vec`` coefficient at K = ``k``; ``b`` is the b-content
    family at K = ``k``; ``gw`` takes two profiles and sweeps the count of
    ``gw_s`` insertions.  Each is its family's one-pass sweep
    (``completed_sweep``, ``hypergeometric_hurwitz_sweep`` or
    ``b_hurwitz_sweep``): the weights, ``f_bar`` and the content sequences
    up to the largest r are computed once per partition.
    """
    if kind not in ("classical", "completed", "monotone", "b", "gw"):
        raise DomainError(f"unknown ratio kind {kind!r}")
    if kind == "gw" and len(profiles) != 2:
        raise DomainError("gw ratio needs two profiles")
    d, profiles = _resolve_degree(profiles, d)
    if d < 2:  # the leading term pairs two distinct partitions, and d = 1 has one
        raise DomainError(f"a {kind} ratio needs d >= 2, got d={d}")
    r_values = _orders(r_values)
    first = first_r(k) if kind in ("monotone", "b") else 0
    if r_values and max(r_values) < first:
        raise DomainError(f"the {kind} leading term at K={k} vanishes below r={first}; "
                          f"ask for r >= {first}")
    if kind in ("classical", "completed", "gw"):
        exact = completed_sweep(r_values, gw_s if kind == "gw" else s, profiles, d)
        if kind == "gw":
            mu, nu = profiles
            exact = {m: v * _gw_scale(mu, nu, ((gw_s, m),)) for m, v in exact.items()}
            lead = lambda rows: gw_leading_sweep(rows, mu, nu, gw_s)
        else:
            lead = lambda rows: completed_leading_sweep(rows, d, s)
    elif kind == "monotone":
        a_vec, b_vec = _degrees("a", a_vec), _degrees("b", b_vec)
        gspec = GSpec(K=k, L=len(a_vec), M=len(b_vec))
        exact = {result.r: result.value for result in hypergeometric_hurwitz_sweep(
            r_values, gspec, profiles, d=d, monomial=a_vec + b_vec)}
        lead = lambda rows: monotone_leading_sweep(rows, d, k, a_vec, b_vec)
    else:
        exact = b_hurwitz_sweep(r_values, GSpec(K=k), profiles, b, d=d, monomial=())
        lead = lambda rows: b_leading_sweep(
            rows, d, len(profiles), sum(map(len, profiles)), k, (), (), b)
    rows = [r for r in r_values if r >= first and exact[r]]
    # no rows: the empty report is ratio_report's, before any leading term
    return d, exact, (lead(rows) if rows else {})


def verify_ratio(kind: str, *, r_max: int = 40, tolerance=Fraction(1, 1000),
                 **options) -> dict:
    """Ratio-to-leading-term checks for one asymptotic family; ``options``
    are ``ratio_family``'s keywords."""
    checks: list[dict] = []
    tolerance = Fraction(tolerance)
    d, exact, leading = ratio_family(kind, range(0, r_max + 1), **options)
    try:
        rep = ratio_report(exact.__getitem__, leading.__getitem__, leading)
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

# the completed-cycle indices s whose eigenvalue ordering is checked
EIGENVALUE_INDICES = (2, 3, 4, 5)


def verify_eigenvalue_order(max_d: int = 10) -> dict:
    _check_sweep_start("eigenvalue-order", max_d)
    partition_tuple(max_d)  # above the ceiling, fail before any eigenvalue
    checks: list[dict] = []
    for s in EIGENVALUE_INDICES:
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
    return _report("eigenvalue-order", checks, max_d=max_d, indices=list(EIGENVALUE_INDICES))


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
