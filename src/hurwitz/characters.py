"""Exact irreducible characters of symmetric groups.

Values come from the Murnaghan-Nakayama rule on beta-sets (first-column
hook lengths), as exact Python integers; no linear algebra is involved.

``char_table(d)`` returns the memoized ``CharTable`` of one degree, which
computes only what it is asked for:

* ``dims``: every dimension, by the beta-set formula;
* ``column(mu)``: one column.  Read as ``p_k s_nu = sum +-s_lam``, the
  rule gives the column of ``mu`` from that of ``mu[1:]`` by adding
  border strips of size ``mu[0]``; shapes are integer indices into the
  partitions of their size.  Two bounded module caches, shared by every
  degree, memoize ``_add_strips`` on (n, index of nu, k) and ``_column``,
  a sparse ``{index: chi}`` dict on the partition, which ``column``
  densifies and ``value`` reads.  The bounds count entries, not bytes: a
  full build fits them to d = 22; at d = 24 and 26 it evicts 146 and
  11,017 strip lists, in the time and peak RSS of unbounded memos;
* ``fill(ceiling)``, and ``entries`` its default case: the full table,
  loaded from the disk cache or filled in place from every sparse column
  (and then stored, streamed row by row).  Its own columns are not
  memoized, both caches are cleared before the rows are frozen, and
  ``column`` then reads from the entries.

Two ceilings bound the work.  The partition ceiling
(``partitions.DEFAULT_PARTITION_CEILING``) bounds every degree, so every
character sum.  The table ceiling ``DEFAULT_TABLE_CEILING`` bounds only
the full-table fill: above it, the entries come from the disk cache or
the fill raises ``SizeLimitError``.  A character sum needs only the
dimensions and one column per profile, so it never fills the full table
and never reads the disk.  ``character(lam, mu)`` removes strips
instead, memoized on (remaining shape, remaining cycles): the
single-value path, and the reference the column build is tested against.

Creating a table and filling its ``entries`` (with the disk read and
write) are single-writer behind one lock, so each degree has one
published table and one full set of entries.  ``dims`` and ``column``
fill without the lock: two threads may compute the same value, and both
read equal values; the two ``lru_cache`` memos may be read, filled and
cleared from any thread.  Setting the environment variable
``HURWITZ_CACHE_DIR`` enables an on-disk JSON cache of full tables with a
self-describing versioned header; a file that fails a check is named on
stderr with the reason, and the table is rebuilt.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
import os
import sys
import threading
from collections.abc import Iterator
from functools import lru_cache
from pathlib import Path

from .errors import DomainError, SizeLimitError
from .partitions import Partition, check_partition, partition_tuple

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


@lru_cache(maxsize=1 << 14)
def _add_strips(n: int, i: int, k: int) -> tuple[int, ...]:
    """Every lam = nu plus a border strip of size k, for nu the i-th
    partition of n, as ``sign * (j + 1)`` with j the index of lam among
    the partitions of n + k.

    On the beta-set ``p_t - t`` of nu padded with k zero parts, a strip
    moves the bead of row t up by k, to a free place just below the q
    beads above it: row q takes the moved bead's new part, rows q+1..t
    take the parts of rows q..t-1 plus one, and the sign counts the t - q
    beads passed."""
    nu = partition_tuple(n)[i]
    index = _partition_index(n + k)
    padded = nu + (0,) * k
    beta = [p - t for t, p in enumerate(padded)]  # strictly decreasing
    out = []
    q = 0  # beads above b + k; it only grows as b falls
    for t, b in enumerate(beta):
        while beta[q] > b + k:
            q += 1
        if beta[q] == b + k:
            continue
        lam = (padded[:q] + (padded[t] + k - t + q,)
               + tuple(p + 1 for p in padded[q:t]) + nu[t + 1:])
        j = index[lam] + 1
        out.append(-j if (t - q) % 2 else j)
    return tuple(out)


def _sparse_column(mu: Partition) -> dict[int, int]:
    """The column of mu as {index of lam: chi} with the zeros left out:
    every border strip of size mu[0] added to every shape of the memoized
    column of mu[1:]."""
    if not mu:
        return {0: 1}
    nu = mu[1:]
    n, k = sum(nu), mu[0]
    col: dict[int, int] = {}
    for i, chi in _column(nu).items():
        for s in _add_strips(n, i, k):  # keyed by +-(j + 1) until the end
            if s > 0:
                col[s] = col.get(s, 0) + chi
            else:
                col[-s] = col.get(-s, 0) - chi
    return {j - 1: v for j, v in col.items() if v}


@lru_cache(maxsize=1 << 12)
def _column(mu: Partition) -> dict[int, int]:
    """``_sparse_column(mu)``, memoized for partitions of every degree."""
    return _sparse_column(mu)


class CharTable:
    """Character table of one degree, rows lambda, columns mu, both in
    ``partitions`` order; its parts are computed when first asked for."""

    def __init__(self, degree: int, partitions: tuple[Partition, ...]):
        self.degree = degree
        self.partitions = partitions
        self._entries: tuple[tuple[int, ...], ...] | None = None
        self._dims: tuple[int, ...] | None = None

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
        from ``entries`` once they exist, and densified from the memoized
        sparse column before."""
        j = self.index(mu)
        entries = self._entries
        if entries is not None:
            return tuple(row[j] for row in entries)
        col = [0] * len(self.partitions)
        for i, chi in _column(self.partitions[j]).items():
            col[i] = chi
        return tuple(col)

    def _build(self) -> tuple[tuple[int, ...], ...]:
        """Every column, filled in place into rows of zeros; both memo
        caches are cleared before the rows are frozen one at a time."""
        size = len(self.partitions)
        rows: list = [[0] * size for _ in range(size)]
        for j, mu in enumerate(self.partitions):
            for i, chi in _sparse_column(mu).items():
                rows[i][j] = chi
        _column.cache_clear()
        _add_strips.cache_clear()
        for i, row in enumerate(rows):
            rows[i] = tuple(row)
        return tuple(rows)

    def fill(self, ceiling: int | None = None) -> tuple[tuple[int, ...], ...]:
        """The full table, one row per lambda: read from the disk cache, or
        built from every column and then stored there.  A build above
        ``ceiling`` (default ``DEFAULT_TABLE_CEILING``, read at call time)
        raises ``SizeLimitError``; entries already filled are returned."""
        if self._entries is None:
            with _tables_lock:
                if self._entries is None:
                    entries = _load_cached(self.degree)
                    if entries is None:
                        ceiling = DEFAULT_TABLE_CEILING if ceiling is None else ceiling
                        if self.degree > ceiling:
                            raise SizeLimitError(f"degree {self.degree} exceeds the "
                                                 f"character-table ceiling {ceiling}")
                        entries = self._build()
                        _store_cached(self.degree, self.partitions, entries)
                    self._entries = entries
        return self._entries

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """``fill()`` under the default table ceiling."""
        return self.fill()

    def value(self, lam, mu) -> int:
        if self._entries is not None:
            return self._entries[self.index(lam)][self.index(mu)]
        return _column(self.partitions[self.index(mu)]).get(self.index(lam), 0)

    def csv_rows(self) -> Iterator[list[str]]:
        """The header and one row per lambda, made as they are read."""
        entries = self.entries
        labels = ["+".join(map(str, lam)) or "0" for lam in self.partitions]
        yield ["lambda\\mu"] + labels
        for label, row in zip(labels, entries):
            yield [label] + list(map(str, row))


@lru_cache(maxsize=64)
def _partition_index(d: int) -> dict[Partition, int]:
    return {lam: i for i, lam in enumerate(partition_tuple(d))}


_tables: dict[int, CharTable] = {}
_tables_lock = threading.Lock()


def _cache_path(d: int) -> Path | None:
    root = os.environ.get(CACHE_DIR_ENV)
    if not root:
        return None
    return Path(root) / f"character-table-d{d}.json"


def _header(d: int) -> dict:
    return {"format": _TABLE_FORMAT, "version": _TABLE_VERSION, "degree": d}


def _load_cached(d: int) -> tuple[tuple[int, ...], ...] | None:
    """The entries of the cached degree-d table, or None when there is no
    file or it fails a check: header, partitions, shape, or an entry that
    is not a JSON integer.  A rejected file is named on stderr with the
    reason, and the table is rebuilt (and the file rewritten)."""
    path = _cache_path(d)
    if path is None or not path.is_file():
        return None
    try:
        blob = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return _reject(path, f"unreadable JSON ({exc})")
    if not isinstance(blob, dict) or any(blob.get(k) != v for k, v in _header(d).items()):
        return _reject(path, "bad header")
    parts = blob.get("partitions")
    if not isinstance(parts, list) or not all(isinstance(p, list) for p in parts) \
            or tuple(map(tuple, parts)) != partition_tuple(d):
        return _reject(path, "wrong partitions")
    rows = blob.get("entries")
    if not isinstance(rows, list) or len(rows) != len(parts) \
            or any(not isinstance(r, list) or len(r) != len(parts) for r in rows):
        return _reject(path, "wrong shape")
    if set(map(type, itertools.chain.from_iterable(rows))) != {int}:
        return _reject(path, "an entry is not a JSON integer")
    return tuple(map(tuple, rows))


def _reject(path: Path, reason: str) -> None:
    print(f"warning: character-table cache {path} rejected: {reason}", file=sys.stderr)


def _store_cached(d: int, parts: tuple[Partition, ...],
                  entries: tuple[tuple[int, ...], ...]) -> None:
    """Write the table as one JSON object, a row at a time, through a
    temporary file of this writer's own that then replaces the cache
    file; the bytes are those of ``json.dumps`` of the whole object."""
    path = _cache_path(d)
    if path is None:
        return
    head = json.dumps({**_header(d), "partitions": parts})
    # a random name opened exclusively: unique like mkstemp's, but with
    # the umask's file mode
    tmp = path.with_name(f"{path.stem}-{os.urandom(6).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x") as fh:
            fh.write(head[:-1] + ', "entries": [')
            for i, row in enumerate(entries):
                fh.write((", " if i else "") + json.dumps(row))
            fh.write("]}")
        tmp.replace(path)
    except OSError:  # the disk cache is best-effort
        with contextlib.suppress(OSError):
            tmp.unlink()


def char_table(d: int) -> CharTable:
    """The memoized character table for degree ``d``, created empty: it
    fills on demand, reads no disk, and has no ceiling of its own.  Only
    the partition ceiling bounds ``d``; the table ceiling guards ``fill``.
    """
    table = _tables.get(d)
    if table is None:
        with _tables_lock:
            table = _tables.get(d)
            if table is None:
                table = _tables[d] = CharTable(d, partition_tuple(d))
    return table
