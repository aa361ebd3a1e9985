"""Exact irreducible characters of symmetric groups.

Values come from the Murnaghan-Nakayama rule on beta-sets (first-column
hook lengths), as exact Python integers; no linear algebra is involved.

``char_table(d)`` returns the memoized ``CharTable`` of one degree, which
computes only what it is asked for:

* ``dims``: every dimension, by the beta-set formula;
* ``column(mu)``: one column.  Read as ``p_k s_nu = sum +-s_lam``, the
  rule gives the column of ``mu`` from that of ``mu[1:]`` by adding
  border strips of size ``mu[0]``; strip lists and sub-columns are
  memoized on the table;
* ``entries``: the full table, loaded from the disk cache or built from
  every column (and then stored), after which the column, strip and
  sub-column memos are dropped and ``column`` reads from the entries.

A character sum needs only the dimensions and one column per profile,
so it never fills the full table.  ``character(lam, mu)`` removes strips
instead, memoized on (remaining shape, remaining cycles): the
single-value path, and the reference the column build is tested against.

Creating a table and filling its ``entries`` (with the disk read and
write) are single-writer behind one lock, so each degree has one
published table and one full set of entries.  ``dims`` and ``column``
fill without the lock: two threads may compute the same value, and both
read equal immutable tuples.  Setting the environment variable
``HURWITZ_CACHE_DIR`` enables an on-disk JSON cache of full tables with a
self-describing versioned header.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import threading
from functools import lru_cache
from pathlib import Path

from .errors import DomainError, SizeLimitError
from .partitions import (
    Partition,
    check_partition,
    enumerate_partitions,
)

DEFAULT_TABLE_CEILING = 18
CACHE_DIR_ENV = "HURWITZ_CACHE_DIR"
_TABLE_FORMAT = "hurwitz-character-table"
_TABLE_VERSION = 1


def _factorials(n: int) -> list[int]:
    return list(itertools.accumulate(range(1, n + 1), operator.mul, initial=1))


def _beta_dim(lam: Partition, fact: list[int]) -> int:
    """dim lam = d! prod_{i<j} (beta_i - beta_j) / prod_i beta_i!, with
    beta_i = lam_i + len(lam) - 1 - i and ``fact[n] = n!`` up to n = |lam|."""
    ell = len(lam)
    beta = [p + ell - 1 - i for i, p in enumerate(lam)]
    num, den = fact[sum(lam)], 1
    for i, b in enumerate(beta):
        den *= fact[b]
        for c in beta[i + 1:]:
            num *= b - c
    return num // den


def dim(lam) -> int:
    """Dimension of the irreducible representation, by the beta-set formula."""
    lam = check_partition(lam)
    return _beta_dim(lam, _factorials(sum(lam)))


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


class CharTable:
    """Character table of one degree, rows lambda, columns mu, both in
    ``partitions`` order; its parts are computed when first asked for."""

    def __init__(self, degree: int, partitions: tuple[Partition, ...],
                 entries: tuple[tuple[int, ...], ...] | None = None):
        self.degree = degree
        self.partitions = partitions
        self._entries = entries
        self._dims: tuple[int, ...] | None = None
        self._columns: dict[Partition, tuple[int, ...]] = {}
        self._strips: dict[tuple[Partition, int], list[tuple[Partition, int]]] = {}
        self._subcolumns: dict[Partition, dict[Partition, int]] = {}

    def index(self, lam) -> int:
        try:
            return _partition_index(self.degree)[tuple(lam)]
        except (KeyError, TypeError):
            raise DomainError(f"not a partition of {self.degree}: {lam!r}") from None

    @property
    def dims(self) -> tuple[int, ...]:
        """The dimension of every lambda, in ``partitions`` order."""
        if self._dims is None:
            fact = _factorials(self.degree)
            self._dims = tuple(_beta_dim(lam, fact) for lam in self.partitions)
        return self._dims

    def column(self, mu) -> tuple[int, ...]:
        """chi_lambda(mu) for every lambda, in ``partitions`` order; read
        from ``entries`` once they exist, and built and memoized before."""
        j = self.index(mu)
        entries = self._entries
        if entries is not None:
            return tuple(row[j] for row in entries)
        mu = self.partitions[j]
        col = self._columns.get(mu)
        if col is None:
            sparse = self._sparse_column(mu)
            col = self._columns.setdefault(
                mu, tuple(sparse.get(lam, 0) for lam in self.partitions))
        return col

    def _sparse_column(self, mu: Partition) -> dict[Partition, int]:
        """The column of mu as {lam: chi} with the zeros left out, from the
        memoized column of mu[1:]."""
        if not mu:
            return {(): 1}
        return self._extend(self._sub_column(mu[1:]), mu[0])

    def _sub_column(self, mu: Partition) -> dict[Partition, int]:
        """The memoized sparse column of a partition of a lower degree."""
        col = self._subcolumns.get(mu)
        if col is None:
            col = self._subcolumns.setdefault(mu, self._sparse_column(mu))
        return col

    def _extend(self, sub: dict[Partition, int], k: int) -> dict[Partition, int]:
        """The column of (k, *nu) from the column ``sub`` of nu, by adding
        every border strip of size k to every shape of ``sub``."""
        strips = self._strips
        col: dict[Partition, int] = {}
        for nu, chi in sub.items():
            added = strips.get((nu, k))
            if added is None:
                added = strips.setdefault((nu, k), _add_strips(nu, k))
            for lam, sign in added:
                col[lam] = col.get(lam, 0) + sign * chi
        return {lam: v for lam, v in col.items() if v}

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The full table, one row per lambda: read from the disk cache, or
        built from every column and then stored there."""
        if self._entries is None:
            with _tables_lock:
                if self._entries is None:
                    entries = _load_cached(self.degree)
                    if entries is None:
                        entries = tuple(zip(*(self.column(mu) for mu in self.partitions)))
                        _store_cached(self.degree, self.partitions, entries)
                    self._entries = entries
                    self._columns, self._strips, self._subcolumns = {}, {}, {}
        return self._entries

    def value(self, lam, mu) -> int:
        entries = self._entries
        if entries is not None:
            return entries[self.index(lam)][self.index(mu)]
        return self.column(mu)[self.index(lam)]

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


def _load_cached(d: int) -> tuple[tuple[int, ...], ...] | None:
    """The entries of the cached degree-d table, or None when there is no
    file or it fails a check: header, partitions, shape, or an entry that
    is not a JSON integer."""
    path = _cache_path(d)
    if path is None or not path.is_file():
        return None
    try:
        blob = json.loads(path.read_text())
        if blob.get("format") != _TABLE_FORMAT or blob.get("version") != _TABLE_VERSION:
            return None
        if blob.get("degree") != d:
            return None
        parts = [tuple(p) for p in blob["partitions"]]
        if parts != enumerate_partitions(d):
            return None
        rows = blob["entries"]
        if len(rows) != len(parts) or any(len(r) != len(parts) for r in rows):
            return None
        if set(map(type, itertools.chain.from_iterable(rows))) != {int}:
            return None
        return tuple(map(tuple, rows))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def _store_cached(d: int, parts: tuple[Partition, ...],
                  entries: tuple[tuple[int, ...], ...]) -> None:
    path = _cache_path(d)
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = {
            "format": _TABLE_FORMAT,
            "version": _TABLE_VERSION,
            "degree": d,
            "partitions": [list(p) for p in parts],
            "entries": [list(row) for row in entries],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(blob))
        tmp.replace(path)
    except OSError:
        pass  # the disk cache is best-effort


def char_table(d: int, ceiling: int | None = None) -> CharTable:
    """The memoized character table for degree ``d``.

    Up to ``ceiling`` (default ``DEFAULT_TABLE_CEILING``, read at call
    time) the table is created empty and fills on demand.  Above it, a
    table already memoized or on the disk cache is returned whatever its
    degree, and anything else raises ``SizeLimitError``.
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
        ceiling = DEFAULT_TABLE_CEILING if ceiling is None else ceiling
        entries = None
        if d > ceiling:
            entries = _load_cached(d)
            if entries is None:
                raise SizeLimitError(
                    f"degree {d} exceeds the character-table ceiling {ceiling}")
        table = _tables[d] = CharTable(d, tuple(enumerate_partitions(d)), entries)
    return table
