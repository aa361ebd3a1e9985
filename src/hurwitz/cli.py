"""Batch front door: compute, verify, table, chartable.

Exit codes: 0 success, 1 verification failure, 2 resource ceiling
exceeded, 3 usage or domain error.  JSON is the machine format and CSV
the human/plot format; every run echoes its resolved configuration
(JSON: a ``config`` object; CSV: a leading ``#`` comment line).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import characters, verify
from .asymptotics import ratio_report
from .core import (
    GSpec,
    HurwitzResult,
    _resolve_degree,
    classical_hurwitz_sweep,
    completed_hurwitz_sweep,
    gw_correlator,
    gw_genus,
    hypergeometric_hurwitz_sweep,
    m_ds,
    orbifold_hurwitz_sweep,
    rh_genus,
    structure_coefficients,
)
from .errors import DomainError, HurwitzError, SizeLimitError
from .exactnum import format_rational
from .jack import b_hurwitz_sweep
from .partitions import parse_partition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SIZE_LIMIT = 2
EXIT_USAGE = 3

_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value that looks like a negative number is a value, not a flag;
        # argparse counts only integers and decimals, so ``--b -1/2`` would
        # read -1/2 as an unknown flag.
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
            s, m = map(int, tok.split(":"))
        except ValueError as exc:
            raise DomainError(f"--insertions wants s:m pairs, got {tok!r}") from exc
        if s < 1 or m < 0:
            raise DomainError(f"--insertions wants s >= 1 and m >= 0, got {tok!r}")
        if s in out:
            raise DomainError(f"--insertions gives the order {s} twice")
        out[s] = m
    return out


def _parse_fraction(text: str, flag: str) -> Fraction:
    """The rational value of ``flag``, such as 1/2, 2 or 0.25."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{flag} wants a rational such as 1/2 or 0.25, got {text!r}") from exc


def _parse_degrees(text: str | None, flag: str) -> tuple[int, ...]:
    """The degrees of a comma-list flag such as ``--u-deg``, each at least 0."""
    tokens = [t.strip() for t in (text or "").split(",") if t.strip()]
    if not all(t.isdecimal() for t in tokens):
        raise DomainError(f"{flag} wants a comma list of nonnegative integers, got {text!r}")
    return tuple(int(t) for t in tokens)


def _monomial(args, gspec: GSpec) -> tuple[int, ...] | None:
    """The --u-deg/--v-deg monomial, one degree per u and v block, or None."""
    a_vec = _parse_degrees(args.u_deg, "--u-deg")
    b_vec = _parse_degrees(args.v_deg, "--v-deg")
    if not (a_vec or b_vec):
        return None
    if len(a_vec) != gspec.L or len(b_vec) != gspec.M:
        raise DomainError("--u-deg/--v-deg must list one degree per block")
    return a_vec + b_vec


def _ratio_options(args) -> dict:
    """The family options of ``verify ratio`` and ``table --what ratio``."""
    return {
        "d": args.d, "s": args.s, "profiles": _parse_profiles(args.profiles),
        "k": args.K, "a_vec": _parse_degrees(args.u_deg, "--u-deg"),
        "b_vec": _parse_degrees(args.v_deg, "--v-deg"), "b": _parse_fraction(args.b, "--b"),
        "gw_s": args.gw_s,
    }


# The flags each request reads, keyed as its messages name it.  ``main``
# exits 3 on any other optional flag set away from its default; a request
# with no key (an unknown kind) is refused where it is dispatched.
_RANGE = ("r", "r_min", "r_max")
_COMPUTE = ("d", "profiles", "connected", "normalization", *_RANGE)
_BLOCKS = ("K", "L", "M", "u_deg", "v_deg")
_COMPUTE_KINDS = {"classical": (), "completed": ("s",), "hypergeometric": _BLOCKS, "hciz": (),
                  "orbifold": ("t",), "b-content": _BLOCKS + ("b",), "gw": ("insertions",)}
_RATIO_KINDS = {"classical": ("s",), "completed": ("s",), "monotone": ("K", "u_deg", "v_deg"),
                "b": ("K", "b"), "gw": ("gw_s",)}
_READS = {
    **{f"compute --kind {k}": _COMPUTE + reads for k, reads in _COMPUTE_KINDS.items()},
    **{f"table --what hurwitz --kind {k}": ("kind",) + _COMPUTE + reads
       for k, reads in _COMPUTE_KINDS.items()},
    **{f"table --what ratio --kind {k}": ("kind", "d", "profiles", *_RANGE) + reads
       for k, reads in _RATIO_KINDS.items()},
    **{f"verify ratio --kind {k}": ("kind", "d", "profiles", "r_max", "tolerance") + reads
       for k, reads in _RATIO_KINDS.items()},
    "table --what structure": ("d", "profiles", "s"),
    "verify oracle": ("max_d", "max_transpositions"),
    **dict.fromkeys(("verify characters", "verify stirling", "verify jack", "verify poles",
                     "verify eigenvalue-order"), ("max_d",)),
    "verify gap": ("d", "s", "profiles"),
    "chartable": ("d", "max_d"),
}


# The flags parsed as rationals: 0.0 and 0/1 give the default --b 0.
_RATIONAL_FLAGS = ("b", "tolerance")

# The least value of each integer flag, wherever it is read.
_LEAST = {"r": 0, "r_min": 0, "r_max": 0, "max_transpositions": 0, "s": 1, "t": 1, "gw_s": 1}


@functools.cache
def _unread_flags(command: str, request: str) -> tuple:
    """Each optional flag of ``command`` but --format and --output that
    ``request`` does not read, with its default: read off the memoized
    parser once per process and request."""
    return tuple((a.dest, a.default) for a in _subparsers()[command]._actions
                 if a.option_strings and not a.required
                 and a.dest not in ("help", "format", "output", *_READS[request]))


def _refuse_unread(args):
    """Exit 3 on the first flag that ``args``'s request does not read and
    that is set away from its default, a rational flag compared by value."""
    request = args.command
    if request == "verify":
        request += " " + args.suite
    elif request == "table":
        request += " --what " + args.what
    if f"{request} --kind {getattr(args, 'kind', '')}" in _READS:
        request += " --kind " + args.kind
    if request not in _READS:  # an unknown kind
        return
    for name, default in _unread_flags(args.command, request):
        value, flag = getattr(args, name), f"--{name.replace('_', '-')}"
        if value != default and (name not in _RATIONAL_FLAGS
                                 or _parse_fraction(value, flag) != Fraction(default)):
            raise DomainError(f"{flag} has no effect on {request}")


def _r_values(args) -> list[int]:
    if args.r is not None and (args.r_min, args.r_max) != (None, None):
        raise DomainError("give --r or --r-min/--r-max, not both")
    if args.r is not None:
        return [args.r]
    if args.r_min is None and args.r_max is None:
        raise DomainError("need --r or --r-min/--r-max")
    lo = args.r_min if args.r_min is not None else 0
    hi = args.r_max if args.r_max is not None else lo
    if hi < lo:
        raise DomainError(f"--r-max must be at least --r-min ({lo}), got {hi}")
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


def _check_output(path: str):
    """Refuse an ``--output`` that cannot be written, before any work is
    done; the file itself is opened only once the result exists."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(folder):
        problem = f"no directory {folder!r}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "it is not writable"  # a new file needs a writable directory
    else:
        return
    raise DomainError(f"--output cannot write {path!r}: {problem}")


def _emit(args, payload: dict, csv_rows: Iterable[list[str]] = ()):
    """Write ``payload`` as indented JSON, or its config line and then
    ``csv_rows`` as CSV, piece by piece to ``--output`` or stdout.  A
    stdout closed by its reader is refused as an unwritable ``--output``
    is; stdout then points at the null device, so that the flush at
    exit has nowhere to fail."""
    if not args.output:
        try:
            _write(args.format, payload, csv_rows, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise DomainError("stdout was closed before the output was written") from None
        return
    try:
        with open(args.output, "w") as fh:
            _write(args.format, payload, csv_rows, fh)
    except OSError as exc:
        raise DomainError(
            f"--output cannot write {args.output!r}: {exc.strerror or exc}") from exc


def _write(fmt: str, payload: dict, csv_rows: Iterable[list[str]], out) -> None:
    if fmt == "json":
        out.writelines(_json_chunks(payload))
        out.write("\n")
    else:
        out.write("# config: " + json.dumps(payload.get("config", {}), sort_keys=True) + "\n")
        csv.writer(out, lineterminator="\n").writerows(csv_rows)


def _json_chunks(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` in pieces: with str keys, each
    item of a list at the top level is one piece, so a table is written a
    row at a time, and every other value is one piece."""
    if not payload or not all(type(k) is str for k in payload):
        yield _dumps(payload, "\n")
        return
    opening = "{"
    for key, value in payload.items():
        yield f"{opening}\n  {encode_basestring_ascii(key)}: "
        opening = ","
        if type(value) not in (list, tuple) or not value:
            yield _dumps(value, "\n  ")
            continue
        sep = "["
        for item in value:
            yield sep + "\n    " + _dumps(item, "\n    ")
            sep = ","
        yield "\n  ]"
    yield "\n}"


def _dumps(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` with ``indent``, a newline and the
    indentation of ``value``'s own line, between lines.  Strings, exact
    ints, bools, None, lists, tuples and dicts with str keys are written
    here (strings by json's C encoder); every other value, and a dict
    with another key, by ``json`` itself."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    inner = indent + "  "
    if kind is list or kind is tuple:
        return ("[" + inner + ("," + inner).join([_dumps(item, inner) for item in value])
                + indent + "]") if value else "[]"
    if kind is dict and all(type(k) is str for k in value):
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in value.items()])
            + indent + "}") if value else "{}"
    return json.dumps(value, indent=2).replace("\n", indent)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _compute(args, r_values: list[int]) -> list[HurwitzResult | dict]:
    """One result per r of ``r_values``, from one pass of the family's sweep."""
    profiles = _parse_profiles(args.profiles)
    kind = args.kind
    if kind == "classical":
        if args.d is None:
            raise DomainError("--kind classical needs --d")
        if profiles:
            raise DomainError("--kind classical takes no profiles (use --kind completed)")
        return classical_hurwitz_sweep(r_values, args.d, connected=args.connected)
    if kind == "completed":
        return completed_hurwitz_sweep(r_values, args.s, profiles, d=args.d,
                                       connected=args.connected)
    if kind in ("hypergeometric", "hciz", "b-content"):  # content products, one sweep
        if kind == "hciz":
            if len(profiles) != 2:
                raise DomainError("--kind hciz needs exactly two profiles (mu;nu)")
            gspec = GSpec(K=1, L=0, M=0)
        else:
            gspec = GSpec(K=args.K, L=args.L, M=args.M)
        monomial = _monomial(args, gspec)
        if kind == "b-content":
            if args.connected:
                raise DomainError("--kind b-content has no connected version")
            b = _parse_fraction(args.b, "--b")
            d, profiles = _resolve_degree(profiles, args.d)
            values = b_hurwitz_sweep(r_values, gspec, profiles, b, d=d, monomial=monomial)
            results = [HurwitzResult(
                kind="b_content", d=d, r=r, profiles=profiles, connected=False, value=value,
                gspec=gspec, genus=rh_genus(r, 1, d, profiles), extra={"b": format_rational(b)},
            ) for r, value in values.items()]
        else:
            results = hypergeometric_hurwitz_sweep(r_values, gspec, profiles, d=args.d,
                                                   connected=args.connected, monomial=monomial)
            for result in results:
                result.kind = kind
        if monomial is not None:
            for result in results:
                result.extra["monomial"] = {"u": list(monomial[:gspec.L]),
                                            "v": list(monomial[gspec.L:])}
        return results
    if kind == "orbifold":
        if not profiles and args.d is not None:  # unramified over the distinguished point
            profiles = ((1,) * _resolve_degree((), args.d)[0],)
        if len(profiles) != 1:
            raise DomainError("--kind orbifold needs one profile (or --d)")
        _resolve_degree(profiles, args.d)
        return orbifold_hurwitz_sweep(r_values, args.t, profiles[0], connected=args.connected)
    if kind == "gw":
        if len(profiles) != 2:
            raise DomainError("--kind gw needs exactly two profiles (mu;nu)")
        _resolve_degree(profiles, args.d)
        insertions = _parse_insertions(args.insertions)
        value = gw_correlator(profiles[0], profiles[1], insertions,
                              connected=args.connected)
        genus = gw_genus(profiles[0], profiles[1], insertions)
        return [{
            "kind": "gw",
            "d": sum(profiles[0]),
            "profiles": [list(mu) for mu in profiles],
            "insertions": {str(s): m for s, m in sorted(insertions.items())},
            "g": int(genus) if genus.denominator == 1 else format_rational(genus),
            "g_integral": genus.denominator == 1,
            "connected": args.connected,
            "value": format_rational(value),
        }]
    raise DomainError(f"unknown kind {args.kind!r}")


def _cmd_compute(args) -> int:
    """``compute``, and ``table --what hurwitz``: one result per requested r."""
    r_values = _r_values(args)
    if args.kind == "gw" and r_values != [0]:
        raise DomainError("--kind gw takes no --r: its order is set by --insertions, "
                          "so only --r 0 is accepted")
    results = []
    for out in _compute(args, r_values):
        blob = out.to_json_dict() if isinstance(out, HurwitzResult) else out
        if args.normalization == "dhr":
            if isinstance(blob["value"], list):
                raise DomainError("--normalization dhr has no effect on a polynomial value; "
                                  "select one coefficient with --u-deg/--v-deg")
            profiles = _parse_profiles(args.profiles)
            factor = _dhr_factor(blob["d"], profiles)
            paper = Fraction(blob["value"])
            blob["normalization"] = "dhr"
            blob["value_paper"] = blob["value"]
            blob["value"] = format_rational(paper * factor)
        results.append(blob)
    payload = {"config": _config(args), "results": results}
    rows = [["r", "value"]]
    for blob in results if args.format == "csv" else ():  # JSON reads no rows
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
    # each suite reads at most one of these; without it, its signature's default
    sizes = {name: getattr(args, name) for name in ("max_d", "r_max")
             if getattr(args, name) is not None}
    if suite == "oracle":
        report = verify.verify_oracle(max_transpositions=args.max_transpositions, **sizes)
    elif suite == "gap":
        report = verify.verify_gap(args.d, args.s, _parse_profiles(args.profiles))
    elif suite == "ratio":
        tolerance = _parse_fraction(args.tolerance, "--tolerance")
        if tolerance < 0:
            raise DomainError(f"--tolerance must be at least 0, got {args.tolerance}")
        report = verify.verify_ratio(args.kind, tolerance=tolerance, **sizes,
                                     **_ratio_options(args))
    else:  # a sweep over d that reads only --max-d
        report = getattr(verify, "verify_" + suite.replace("-", "_"))(**sizes)
    rows = [["check", "pass", "detail"]]
    for c in report["checks"]:
        rows.append([c["name"], "pass" if c["pass"] else "FAIL", c["detail"]])
    _emit(args, report, rows)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _cmd_table(args) -> int:
    if args.K is None:  # compute's default for hurwitz tables, one block otherwise
        args.K = 0 if args.what == "hurwitz" else 1
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
        # Yang's connected coefficient -d m_1 at the key C(d-1, 2) holds
        # from d = 3: at d = 1 that key is the top one, and at d = 2 the
        # connected spectrum of (1, 1) reads -2 there, not -4
        if args.s == 1 and len(profiles) == 1 and d >= 3:
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
        r_values = _r_values(args)
        _, exact, leading = verify.ratio_family(args.kind, r_values, **_ratio_options(args))
        report = ratio_report(exact.__getitem__, leading.__getitem__, leading)
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
    table = characters.char_table(args.d)
    entries = table.fill(args.max_d)  # --max-d lowers or raises the table ceiling
    payload = {"config": {"command": "chartable", "d": args.d}}
    if args.format == "json":  # json writes the tuples as lists
        payload["partitions"] = table.partitions
        payload["entries"] = entries
        _emit(args, payload)
    else:
        _emit(args, payload, table.csv_rows())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, default_format="json"):
    p.add_argument("--format", choices=("json", "csv"), default=default_format)
    p.add_argument("--output", help="write to a file instead of stdout")


_B_HELP = "the deformation b = alpha - 1, a rational such as 1/2, -1/2 or 0.25"


def _add_family(p: argparse.ArgumentParser, K=None):
    """The family flags that ``compute`` and ``table`` share, in their order."""
    for flag in ("--d", "--r", "--r-min", "--r-max"):
        p.add_argument(flag, type=int)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--K", type=int, default=K)
    p.add_argument("--L", type=int, default=0)
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--profiles", help="semicolon-separated comma lists, e.g. '3;2,1'")
    p.add_argument("--insertions", help="gw insertions 's:m,s:m'")
    p.add_argument("--b", default="0", help=_B_HELP)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--u-deg", help="comma list: u-degrees to extract")
    p.add_argument("--v-deg", help="comma list: v-degrees to extract")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = _Parser(prog="hurwitz",
                     description="Exact Hurwitz numbers and their large-genus asymptotics")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="evaluate one family at given orders")
    pc.add_argument("--kind", required=True, choices=tuple(_COMPUTE_KINDS))
    _add_family(pc, K=0)
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
    pv.add_argument("--b", default="0", help=_B_HELP)
    pv.add_argument("--gw-s", type=int, default=2)
    pv.add_argument("--tolerance", default="1/1000")
    _add_common(pv)
    pv.add_argument("--max-d", type=int, help="top degree of the sweep")
    pv.set_defaults(func=_cmd_verify)

    pt = sub.add_parser("table", help="parameter sweeps as CSV/JSON tables")
    pt.add_argument("--what", required=True, choices=("structure", "ratio", "hurwitz"))
    pt.add_argument("--kind", default="classical")
    _add_family(pt)  # --K: compute's 0 for hurwitz tables, 1 otherwise (_cmd_table)
    pt.add_argument("--gw-s", type=int, default=2)
    pt.add_argument("--connected", action="store_true")
    pt.add_argument("--normalization", choices=("paper", "dhr"), default="paper")
    _add_common(pt)
    pt.set_defaults(func=_cmd_table)

    pch = sub.add_parser("chartable", help="dump a character table")
    pch.add_argument("--d", type=int, required=True)
    _add_common(pch, default_format="csv")
    pch.add_argument("--max-d", type=int, help="character-table ceiling "
                     f"(default {characters.DEFAULT_TABLE_CEILING})")
    pch.set_defaults(func=_cmd_chartable)

    return parser


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by name, from the memoized parser."""
    return next(a for a in build_parser()._actions if a.dest == "command").choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass: a request that
    names a subcommand is parsed by that subcommand's parser alone, into
    a namespace that starts with the command, as argparse would hand it
    on.  Help, an unknown command and no command go to the top level."""
    sub = _subparsers().get(argv[0]) if argv else None
    if sub is None:
        return build_parser().parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        build_parser().error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.output:
            _check_output(args.output)
        _refuse_unread(args)
        for name, least in _LEAST.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise DomainError(f"--{name.replace('_', '-')} must be at least {least}, "
                                  f"got {value}")
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
