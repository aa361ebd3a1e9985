"""Exact irreducible characters of symmetric groups.

Values come from the Murnaghan-Nakayama rule on beta-sets (first-column
hook lengths), as exact Python integers; no linear algebra is involved.

``char_table(d)`` builds and memoizes the full table for one degree,
column by column: read as ``p_k s_nu = sum +-s_lam``, the rule gives the
column of ``mu`` from that of ``mu[1:]`` by adding border strips of size
``mu[0]``.  ``character(lam, mu)`` removes strips instead, memoized on
(remaining shape, remaining cycles): the single-value path, and the
reference the column build is tested against.
Construction is single-writer behind a lock; the published table is
immutable and may be shared freely between threads.  Setting the
environment variable ``HURWITZ_CACHE_DIR`` enables an on-disk JSON cache
with a self-describing versioned header.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .errors import DomainError, SizeLimitError
from .partitions import (
    Partition,
    check_partition,
    enumerate_partitions,
    hook_lengths,
)

DEFAULT_TABLE_CEILING = 18
CACHE_DIR_ENV = "HURWITZ_CACHE_DIR"
_TABLE_FORMAT = "hurwitz-character-table"
_TABLE_VERSION = 1


def dim(lam) -> int:
    """Dimension of the irreducible representation, by the hook-length formula."""
    lam = check_partition(lam)
    d = sum(lam)
    denom = 1
    for row in hook_lengths(lam):
        for h in row:
            denom *= h
    return math.factorial(d) // denom


@lru_cache(maxsize=None)
def _mn(shape: Partition, cycles: Partition) -> int:
    # cycles is sorted in weakly decreasing order; sizes match by construction
    if not cycles:
        return 1
    t = cycles[0]
    rest = cycles[1:]
    ell = len(shape)
    beta = [shape[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        nshape = []
        n = len(newbeta)
        for i, x in enumerate(newbeta):
            part = x - (n - 1 - i)
            if part:
                nshape.append(part)
        term = _mn(tuple(nshape), rest)
        total += -term if height % 2 else term
    return total


def character(lam, mu) -> int:
    """Irreducible character value chi_lambda on the class of cycle type mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise DomainError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn(lam, tuple(sorted(mu, reverse=True)))


def _add_strips(nu: Partition, k: int) -> list[tuple[Partition, int]]:
    """Every ``(lam, sign)`` with lam = nu plus a border strip of size k:
    a bead moves from b to b + k on a beta-set of len(nu) + k beads, and
    the sign counts the beads it passes."""
    n = len(nu) + k
    beta = [p + n - 1 - i for i, p in enumerate(nu)] + list(range(k - 1, -1, -1))
    bset = set(beta)
    out = []
    for b in beta:
        if b + k not in bset:
            moved = sorted((bset - {b}) | {b + k}, reverse=True)
            lam = tuple(x - (n - 1 - i) for i, x in enumerate(moved) if x > n - 1 - i)
            out.append((lam, (-1) ** sum(1 for x in beta if b < x < b + k)))
    return out


def _column_entries(parts: tuple[Partition, ...]) -> tuple[tuple[int, ...], ...]:
    """Table rows over ``parts``, built column by column from the column of
    mu[1:]; both memos live for one build only."""
    strips: dict = {}
    columns: dict[Partition, dict[Partition, int]] = {(): {(): 1}}

    def column(mu: Partition) -> dict[Partition, int]:
        if mu not in columns:
            col, k = {}, mu[0]
            for nu, chi in column(mu[1:]).items():
                if (nu, k) not in strips:
                    strips[nu, k] = _add_strips(nu, k)
                for lam, sign in strips[nu, k]:
                    col[lam] = col.get(lam, 0) + sign * chi
            columns[mu] = {lam: v for lam, v in col.items() if v}
        return columns[mu]

    cols = [column(mu) for mu in parts]
    return tuple(tuple(col.get(lam, 0) for col in cols) for lam in parts)


@dataclass(frozen=True)
class CharTable:
    """Full character table of one degree, rows lambda, columns mu."""

    degree: int
    partitions: tuple[Partition, ...]
    entries: tuple[tuple[int, ...], ...]

    def index(self, lam) -> int:
        try:
            return _partition_index(self.degree)[tuple(lam)]
        except (KeyError, TypeError):
            raise DomainError(f"not a partition of {self.degree}: {lam!r}") from None

    def value(self, lam, mu) -> int:
        return self.entries[self.index(lam)][self.index(mu)]

    def row(self, lam) -> tuple[int, ...]:
        return self.entries[self.index(lam)]

    def csv_rows(self) -> list[list[str]]:
        head = ["lambda\\mu"] + ["+".join(map(str, mu)) or "0" for mu in self.partitions]
        rows = [head]
        for lam, row in zip(self.partitions, self.entries):
            rows.append(["+".join(map(str, lam)) or "0"] + [str(v) for v in row])
        return rows


@lru_cache(maxsize=None)
def _partition_index(d: int) -> dict[Partition, int]:
    return {lam: i for i, lam in enumerate(enumerate_partitions(d))}


_tables: dict[int, CharTable] = {}
_tables_lock = threading.Lock()


def _cache_path(d: int) -> Path | None:
    root = os.environ.get(CACHE_DIR_ENV)
    if not root:
        return None
    return Path(root) / f"character-table-d{d}.json"


def _load_cached(d: int) -> CharTable | None:
    path = _cache_path(d)
    if path is None or not path.is_file():
        return None
    try:
        blob = json.loads(path.read_text())
        if blob.get("format") != _TABLE_FORMAT or blob.get("version") != _TABLE_VERSION:
            return None
        if blob.get("degree") != d:
            return None
        parts = tuple(tuple(p) for p in blob["partitions"])
        if parts != tuple(enumerate_partitions(d)):
            return None
        entries = tuple(tuple(int(v) for v in row) for row in blob["entries"])
        if len(entries) != len(parts) or any(len(r) != len(parts) for r in entries):
            return None
        return CharTable(d, parts, entries)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _store_cached(table: CharTable) -> None:
    path = _cache_path(table.degree)
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = {
            "format": _TABLE_FORMAT,
            "version": _TABLE_VERSION,
            "degree": table.degree,
            "partitions": [list(p) for p in table.partitions],
            "entries": [list(row) for row in table.entries],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(blob))
        tmp.replace(path)
    except OSError:
        pass  # the disk cache is best-effort


def char_table(d: int, ceiling: int | None = None) -> CharTable:
    """The memoized character table for degree ``d`` (immutable once built).

    ``ceiling`` (default ``DEFAULT_TABLE_CEILING``, read at call time)
    guards only the building of a table: one already memoized or on the
    disk cache is returned whatever its degree.
    """
    if d < 0:
        raise DomainError(f"degree must be nonnegative: {d}")
    table = _tables.get(d)
    if table is not None:
        return table
    with _tables_lock:
        table = _tables.get(d)
        if table is not None:
            return table
        table = _load_cached(d)
        if table is None:
            ceiling = DEFAULT_TABLE_CEILING if ceiling is None else ceiling
            if d > ceiling:
                raise SizeLimitError(
                    f"degree {d} exceeds the character-table ceiling {ceiling}")
            parts = tuple(enumerate_partitions(d))
            table = CharTable(d, parts, _column_entries(parts))
            _store_cached(table)
        _tables[d] = table
    return table
