"""Batch front door: compute, verify, table, chartable.

Exit codes: 0 success, 1 verification failure, 2 resource ceiling
exceeded, 3 usage or domain error.  JSON is the machine format and CSV
the human/plot format; every run echoes its resolved configuration
(JSON: a ``config`` object; CSV: a leading ``#`` comment line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

from . import characters, verify
from .asymptotics import ratio_report
from .core import (
    GSpec,
    HurwitzResult,
    _resolve_degree,
    classical_hurwitz,
    completed_hurwitz,
    gw_correlator,
    gw_genus,
    hypergeometric_hurwitz,
    m_ds,
    orbifold_hurwitz,
    structure_coefficients,
)
from .errors import DomainError, HurwitzError, SizeLimitError
from .exactnum import format_rational
from .jack import b_hurwitz_coefficient
from .partitions import parse_partition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SIZE_LIMIT = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Usage error carrying the message; mapped to exit code 3 in main."""


def _parse_profiles(text: str | None):
    if not text:
        return ()
    return tuple(parse_partition(tok) for tok in text.split(";") if tok.strip())


def _parse_insertions(text: str | None) -> dict[int, int]:
    out: dict[int, int] = {}
    if not text:
        return out
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            s, m = tok.split(":")
            out[int(s)] = int(m)
        except ValueError as exc:
            raise DomainError(f"cannot parse insertion {tok!r} (want s:m)") from exc
    return out


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        pass
    try:
        return Fraction(Decimal(text))
    except Exception as exc:
        raise DomainError(f"cannot parse rational from {text!r}") from exc


def _parse_degrees(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(t) for t in text.split(",") if t.strip())


def _caps(args, gspec: GSpec) -> tuple[int, ...] | None:
    """The --u-deg/--v-deg monomial as one cap per u and v block, or None."""
    a_vec = _parse_degrees(args.u_deg)
    b_vec = _parse_degrees(args.v_deg)
    if not (a_vec or b_vec):
        return None
    if len(a_vec) != gspec.L or len(b_vec) != gspec.M:
        raise DomainError("--u-deg/--v-deg must list one degree per block")
    return a_vec + b_vec


def _ratio_options(args) -> dict:
    """The family options of ``verify ratio`` and ``table --what ratio``."""
    return {
        "d": args.d, "s": args.s, "profiles": _parse_profiles(args.profiles),
        "k": args.K, "a_vec": _parse_degrees(args.u_deg),
        "b_vec": _parse_degrees(args.v_deg), "b": _parse_fraction(args.b),
        "gw_s": args.gw_s,
    }


def _r_values(args) -> list[int]:
    if args.r is not None:
        return [args.r]
    if args.r_min is None and args.r_max is None:
        raise DomainError("need --r or --r-min/--r-max")
    lo = args.r_min if args.r_min is not None else 0
    hi = args.r_max if args.r_max is not None else lo
    if hi < lo:
        raise DomainError(f"empty r range {lo}..{hi}")
    return list(range(lo, hi + 1))


def _dhr_factor(d: int, profiles) -> Fraction:
    factor = Fraction(math.factorial(d))
    for mu in profiles:
        for part in mu:
            factor *= part
    return factor


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items()
            if k not in ("func", "output") and v is not None}


def _emit(args, payload: dict, csv_rows: list[list[str]] | None = None):
    text: str
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(payload.get("config", {}), sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows or []:
            writer.writerow(row)
        text = buf.getvalue().rstrip("\n")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _compute_one(args, r: int) -> HurwitzResult | dict:
    profiles = _parse_profiles(args.profiles)
    kind = args.kind
    if kind == "classical":
        if args.d is None:
            raise DomainError("--kind classical needs --d")
        if profiles:
            raise DomainError("--kind classical takes no profiles (use --kind completed)")
        return classical_hurwitz(r, args.d, connected=args.connected)
    if kind == "completed":
        return completed_hurwitz(r, args.s, profiles, d=args.d, connected=args.connected)
    if kind in ("hypergeometric", "hciz"):
        if kind == "hciz":
            if len(profiles) != 2:
                raise DomainError("--kind hciz needs exactly two profiles (mu;nu)")
            gspec = GSpec(K=1, L=0, M=0)
        else:
            gspec = GSpec(K=args.K, L=args.L, M=args.M)
        caps = _caps(args, gspec)
        result = hypergeometric_hurwitz(r, gspec, profiles, d=args.d,
                                        connected=args.connected, caps=caps)
        if caps is not None:
            result.extra["monomial"] = {"u": list(caps[:gspec.L]), "v": list(caps[gspec.L:])}
            result.value = result.value.coefficient(caps)
        if kind == "hciz":
            result.kind = "hciz"
        return result
    if kind == "orbifold":
        if not profiles and args.d:
            profiles = ((1,) * args.d,)  # unramified over the distinguished point
        if len(profiles) != 1:
            raise DomainError("--kind orbifold needs one profile (or --d)")
        return orbifold_hurwitz(r, args.t, profiles[0], connected=args.connected)
    if kind == "b-content":
        if args.connected:
            raise DomainError("--kind b-content has no connected version")
        gspec = GSpec(K=args.K, L=args.L, M=args.M)
        caps = _caps(args, gspec)
        b = _parse_fraction(args.b)
        d, profiles = _resolve_degree(profiles, args.d)
        poly = b_hurwitz_coefficient(r, gspec, profiles, b, d=d, caps=caps)
        return HurwitzResult(
            kind="b_content", d=d, r=r, profiles=profiles, connected=False,
            value=poly.coefficient(caps) if caps is not None else poly, gspec=gspec,
            extra={"b": format_rational(b)},
        )
    if kind == "gw":
        if len(profiles) != 2:
            raise DomainError("--kind gw needs exactly two profiles (mu;nu)")
        insertions = _parse_insertions(args.insertions)
        value = gw_correlator(profiles[0], profiles[1], insertions,
                              connected=args.connected)
        genus = gw_genus(profiles[0], profiles[1], insertions)
        return {
            "kind": "gw",
            "d": sum(profiles[0]),
            "profiles": [list(mu) for mu in profiles],
            "insertions": {str(s): m for s, m in sorted(insertions.items())},
            "g": int(genus) if genus.denominator == 1 else format_rational(genus),
            "g_integral": genus.denominator == 1,
            "connected": args.connected,
            "value": format_rational(value),
        }
    raise DomainError(f"unknown kind {args.kind!r}")


def _cmd_compute(args) -> int:
    """``compute``, and ``table --what hurwitz``: one result per requested r."""
    if args.max_d:  # a character-table ceiling override
        d, _ = _resolve_degree(_parse_profiles(args.profiles), args.d)
        characters.char_table(d, ceiling=args.max_d)
    results = []
    for r in _r_values(args):
        out = _compute_one(args, r)
        if isinstance(out, HurwitzResult):
            blob = out.to_json_dict()
        else:
            blob = out
        if args.normalization == "dhr" and not isinstance(blob.get("value"), list):
            profiles = _parse_profiles(args.profiles)
            factor = _dhr_factor(blob["d"], profiles)
            paper = _parse_fraction(blob["value"])
            blob["normalization"] = "dhr"
            blob["value_paper"] = blob["value"]
            blob["value"] = format_rational(paper * factor)
        results.append(blob)
    payload = {"config": _config(args), "results": results}
    rows = [["r", "value"]]
    for blob in results:
        value = blob["value"]
        rows.append([str(blob.get("r", "")),
                     value if isinstance(value, str) else json.dumps(value)])
    _emit(args, payload, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    suite = args.suite
    profiles = _parse_profiles(args.profiles)
    if suite == "oracle":
        report = verify.verify_oracle(max_d=args.max_d or 4,
                                      max_transpositions=args.max_transpositions)
    elif suite == "characters":
        report = verify.verify_characters(max_d=args.max_d or 6)
    elif suite == "stirling":
        report = verify.verify_stirling(max_d=min(args.max_d or 5, 5))
    elif suite == "jack":
        report = verify.verify_jack(max_d=args.max_d or 5)
    elif suite == "gap":
        if args.d is None:
            raise DomainError("verify gap needs --d")
        report = verify.verify_gap(args.d, args.s, profiles)
    elif suite == "poles":
        report = verify.verify_poles(max_d=args.max_d or 6)
    elif suite == "eigenvalue-order":
        report = verify.verify_eigenvalue_order(max_d=args.max_d or 10)
    elif suite == "ratio":
        report = verify.verify_ratio(args.kind, r_max=args.r_max or 40,
                                     tolerance=_parse_fraction(args.tolerance),
                                     **_ratio_options(args))
    else:
        raise DomainError(f"unknown suite {suite!r}")
    rows = [["check", "pass", "detail"]]
    for c in report["checks"]:
        rows.append([c["name"], "pass" if c["pass"] else "FAIL", c["detail"]])
    _emit(args, report, rows)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _cmd_table(args) -> int:
    if args.what == "structure":
        d, profiles = _resolve_degree(_parse_profiles(args.profiles), args.d)
        coeffs = structure_coefficients(args.s, profiles, d=d)
        items = sorted(coeffs.items(), key=lambda kv: kv[0], reverse=True)
        payload = {
            "config": _config(args),
            "rows": [{"m": format_rational(m), "C": format_rational(c)}
                     for m, c in items],
        }
        payload["leading_m"] = format_rational(m_ds(d, args.s))
        if args.s == 1 and len(profiles) == 1:
            mu = profiles[0]
            m1 = sum(1 for p in mu if p == 1)
            payload["yang_connected_subleading"] = {
                "m": str(math.comb(d - 1, 2)),
                "C_connected": str(-d * m1),
                "note": "stated for the connected family; the disconnected "
                        "coefficient above may differ",
            }
        rows = [["m", "C"]] + [[format_rational(m), format_rational(c)]
                               for m, c in items]
        _emit(args, payload, rows)
        return EXIT_OK
    if args.what == "ratio":
        _, exact, leading = verify.ratio_family(args.kind, **_ratio_options(args))
        report = ratio_report(exact, leading, _r_values(args))
        payload = {"config": _config(args), **report.to_json()}
        _emit(args, payload, report.csv_rows())
        return EXIT_OK
    if args.what == "hurwitz":
        return _cmd_compute(args)
    raise DomainError(f"unknown table {args.what!r}")


# ---------------------------------------------------------------------------
# chartable
# ---------------------------------------------------------------------------

def _cmd_chartable(args) -> int:
    table = characters.char_table(args.d, ceiling=args.max_d or 18)
    config = {"command": "chartable", "d": args.d}
    payload = {
        "config": config,
        "partitions": [list(p) for p in table.partitions],
        "entries": [list(row) for row in table.entries],
    }
    _emit(args, payload, table.csv_rows())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.add_argument("--max-d", type=int, help="resource ceiling override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hurwitz",
                     description="Exact Hurwitz numbers and their large-genus asymptotics")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="evaluate one family at given orders")
    pc.add_argument("--kind", required=True,
                    choices=("classical", "completed", "hypergeometric", "hciz",
                             "orbifold", "b-content", "gw"))
    pc.add_argument("--d", type=int)
    pc.add_argument("--r", type=int)
    pc.add_argument("--r-min", type=int)
    pc.add_argument("--r-max", type=int)
    pc.add_argument("--s", type=int, default=1)
    pc.add_argument("--K", type=int, default=0)
    pc.add_argument("--L", type=int, default=0)
    pc.add_argument("--M", type=int, default=0)
    pc.add_argument("--profiles", help="semicolon-separated comma lists, e.g. '3;2,1'")
    pc.add_argument("--insertions", help="gw insertions 's:m,s:m'")
    pc.add_argument("--b", default="0")
    pc.add_argument("--t", type=int, default=1)
    pc.add_argument("--u-deg", help="comma list: u-degrees to extract")
    pc.add_argument("--v-deg", help="comma list: v-degrees to extract")
    pc.add_argument("--connected", action="store_true")
    pc.add_argument("--normalization", choices=("paper", "dhr"), default="paper",
                    help="dhr multiplies by d! and by every profile part")
    _add_common(pc)
    pc.set_defaults(func=_cmd_compute)

    pv = sub.add_parser("verify", help="run a verification sweep")
    pv.add_argument("suite", choices=sorted(verify.SUITES))
    pv.add_argument("--d", type=int)
    pv.add_argument("--s", type=int, default=1)
    pv.add_argument("--K", type=int, default=1)
    pv.add_argument("--kind", default="classical")
    pv.add_argument("--profiles")
    pv.add_argument("--r-max", type=int)
    pv.add_argument("--max-transpositions", type=int, default=6)
    pv.add_argument("--u-deg")
    pv.add_argument("--v-deg")
    pv.add_argument("--b", default="0")
    pv.add_argument("--gw-s", type=int, default=2)
    pv.add_argument("--tolerance", default="1/1000")
    _add_common(pv)
    pv.set_defaults(func=_cmd_verify)

    pt = sub.add_parser("table", help="parameter sweeps as CSV/JSON tables")
    pt.add_argument("--what", required=True, choices=("structure", "ratio", "hurwitz"))
    pt.add_argument("--kind", default="classical")
    pt.add_argument("--d", type=int)
    pt.add_argument("--r", type=int)
    pt.add_argument("--r-min", type=int)
    pt.add_argument("--r-max", type=int)
    pt.add_argument("--s", type=int, default=1)
    pt.add_argument("--K", type=int, default=1)
    pt.add_argument("--L", type=int, default=0)
    pt.add_argument("--M", type=int, default=0)
    pt.add_argument("--profiles")
    pt.add_argument("--insertions")
    pt.add_argument("--b", default="0")
    pt.add_argument("--t", type=int, default=1)
    pt.add_argument("--u-deg")
    pt.add_argument("--v-deg")
    pt.add_argument("--gw-s", type=int, default=2)
    pt.add_argument("--connected", action="store_true")
    pt.add_argument("--normalization", choices=("paper", "dhr"), default="paper")
    _add_common(pt)
    pt.set_defaults(func=_cmd_table)

    pch = sub.add_parser("chartable", help="dump a character table")
    pch.add_argument("--d", type=int, required=True)
    pch.set_defaults(format="csv")
    pch.add_argument("--format", choices=("json", "csv"), default="csv")
    pch.add_argument("--output")
    pch.add_argument("--max-d", type=int)
    pch.set_defaults(func=_cmd_chartable)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except HurwitzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
