"""Request pools of the four workloads, and the seeded request lists.

A workload is a list of slots.  Each slot lists interchangeable variants
of one request that cost the same, and the seed picks one variant per
slot.  Every variant has its own golden.  The program receives only the
argv.

In the one-interpreter workloads (``sweep``, ``connected``, ``verify``)
the variants are one request in its two output formats, the same
computation; other variants, such as profile orders, r ranges, b values
or front doors, cost up to 1.8x apart.  Their requests run in pool
order: they share memo-cache entries, and a reordering moves the cost of
a shared entry from one request to another.  In ``chartable`` every
request is its own interpreter; the variants are the two orders of a
pair of profiles, and the seed shuffles the requests within each phase.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass
from itertools import permutations

SESSION = "session"  # one fresh interpreter serves the whole request list
PROCESS = "process"  # every request runs in a fresh interpreter


@dataclass(frozen=True)
class Slot:
    variants: tuple[str, ...]
    phase: int = 0
    cache: bool = False  # run with HURWITZ_CACHE_DIR set to the session's cache


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    mode: str
    sessions: int  # per untraced run; fixed, so every program is sampled alike
    slots: tuple[Slot, ...]


def _orders(template: str, profiles: str, **kw) -> Slot:
    """Variants listing the same profiles in every order (values agree)."""
    return Slot(tuple(template.format(p=";".join(p)) for p in permutations(profiles.split(";"))),
                **kw)


def _formats(request: str, **kw) -> Slot:
    """The same request in both output formats (the same computation)."""
    return Slot((request, request + " --format csv"), **kw)


RATIO = "table --what ratio --kind "

# Uncapped single values, 2-60 ms each: (profiles, K, L, M, r).
HYPER_SMALL = (
    ("5,1;3,1,1,1", 2, 0, 1, 6), ("3,2;2,2,1", 2, 1, 0, 7), ("3,3;2,1,1,1,1", 1, 1, 0, 5),
    ("5,1;4,1,1", 2, 0, 1, 5), ("3,1,1;2,2,1", 1, 1, 0, 6), ("4,1;3,1,1", 1, 1, 0, 5),
    ("5,1;2,1,1,1,1", 1, 1, 0, 7), ("3,3;2,2,2", 1, 1, 0, 7), ("3,3;2,2,1,1", 0, 2, 1, 4),
    ("5,1;3,2,1", 2, 0, 1, 5), ("4,2;3,2,1", 2, 0, 1, 5), ("3,1,1;2,1,1,1", 2, 1, 0, 5),
    ("4,1;2,2,1", 1, 1, 0, 7), ("5,1;2,2,1,1", 2, 0, 1, 4), ("3,1;2,2", 1, 0, 2, 4),
    ("4,1,1;3,2,1", 2, 1, 0, 6), ("4,1;3,2", 1, 1, 1, 4), ("3,1,1,1;2,2,2", 0, 2, 1, 5),
    ("3,1;2,2", 1, 2, 1, 4), ("3,1,1,1;2,2,1,1", 1, 1, 0, 4), ("3,1;2,2", 1, 1, 1, 6),
    ("5,1;2,2,2", 2, 1, 0, 7), ("4,1;3,2", 1, 0, 2, 4), ("4,1,1;2,2,2", 2, 1, 0, 4),
    ("4,1,1;2,2,1,1", 1, 1, 0, 5), ("4,1,1;2,2,2", 2, 1, 1, 4), ("3,1;2,2", 1, 1, 2, 4),
    ("2,2;2,1,1", 2, 1, 1, 5),
)

SWEEP = Workload(
    "sweep", SESSION, 15,
    (
        _formats(RATIO + "monotone --d 4 --K 2 --u-deg 2 --v-deg 2 --r-min 0 --r-max 10"),
        _formats(RATIO + "monotone --d 4 --K 1 --u-deg 1 --v-deg 1 --r-min 0 --r-max 12"),
        _formats(RATIO + "monotone --d 5 --K 1 --u-deg 1 --r-min 0 --r-max 10"),
        _formats(RATIO + "b --d 5 --b 1/2 --K 1 --r-min 0 --r-max 10"),
        _formats(RATIO + "b --d 5 --b 2 --K 1 --r-min 0 --r-max 10"),
        _formats(RATIO + "completed --d 8 --s 2 --r-min 0 --r-max 40"),
        _formats(RATIO + "completed --profiles 3,2,1,1;2,2,2,1 --s 1 --r-min 0 --r-max 40"),
        _formats(RATIO + "gw --profiles 3,2,1;2,2,2 --gw-s 2 --r-min 0 --r-max 40"),
        _formats(RATIO + "gw --profiles 2,1,1;3,1 --gw-s 3 --r-min 0 --r-max 40"),
        *(_formats(f"compute --kind hypergeometric --profiles {p} --K {k} --L {l} --M {m} "
                   f"--r {r}") for p, k, l, m, r in HYPER_SMALL),
    ),
)


# Small connected requests, 2-40 ms each: (family, profiles).
CONNECTED_SMALL = (
    ("completed --profiles {p} --r 3", "4,3;3,2,2"),
    ("completed --profiles {p} --s 2 --r 3", "2,2,2;2,1,1,1,1"),
    ("completed --profiles {p} --s 2 --r 4", "3,3;2,2,1,1"),
    ("completed --profiles {p} --s 2 --r 3", "6,1;3,2,1,1"),
    ("completed --profiles {p} --r 3", "5,2;5,1,1"),
    ("completed --profiles {p} --r 6", "4,1,1;2,2,2"),
    ("completed --profiles {p} --r 4", "4,2;2,2,1,1"),
    ("completed --profiles {p} --s 2 --r 4", "3,2;2,1,1,1"),
    ("completed --profiles {p} --r 5", "2,2,2;2,2,1,1"),
    ("completed --profiles {p} --r 6", "2,2,2;2,1,1,1,1"),
    ("completed --profiles {p} --s 2 --r 4", "4,2,1;3,3,1"),
    ("completed --profiles {p} --r 6", "3,2,1;2,1,1,1,1"),
    ("completed --profiles {p} --s 2 --r 5", "4,1,1,1;2,2,2,1"),
    ("gw --profiles {p} --insertions 2:3,3:1 --r 0", "5,1;4,1,1"),
    ("gw --profiles {p} --insertions 2:2,3:1 --r 0", "5,2;3,1,1,1,1"),
    ("gw --profiles {p} --insertions 1:1,3:2 --r 0", "6,1;2,2,1,1,1"),
    ("gw --profiles {p} --insertions 1:2,2:2 --r 0", "4,3;4,1,1,1"),
    ("gw --profiles {p} --insertions 1:1,3:2 --r 0", "4,3;3,2,2"),
    ("gw --profiles {p} --insertions 2:3,3:1 --r 0", "5,1,1;3,2,1,1"),
    ("gw --profiles {p} --insertions 2:2,3:1 --r 0", "5,1,1;2,1,1,1,1,1"),
    ("gw --profiles {p} --insertions 2:2,3:1 --r 0", "3,2,1;3,1,1,1"),
    ("gw --profiles {p} --insertions 1:1,3:2 --r 0", "3,3;2,2,2"),
    ("hypergeometric --profiles {p} --K 1 --L 1 --r 6", "3,2,1;2,2,2"),
    ("hypergeometric --profiles {p} --K 1 --L 1 --r 6", "5,1;3,3"),
    ("hypergeometric --profiles {p} --K 1 --L 1 --r 5", "4,2;3,2,1"),
    ("hypergeometric --profiles {p} --K 1 --L 1 --r 5", "5,1,1;2,2,2,1"),
    ("hypergeometric --profiles {p} --K 1 --L 1 --r 5", "4,2,1;3,2,1,1"),
    ("hypergeometric --profiles {p} --K 1 --L 1 --r 5", "4,1,1,1;3,1,1,1,1"),
)

CONNECTED = Workload(
    "connected", SESSION, 18,
    (
        *(_formats(f"compute --kind classical --d {d} --r {r} --connected")
          for d, r in ((5, 10), (5, 12), (5, 14), (6, 7), (6, 8), (6, 9), (6, 10), (7, 5), (7, 6),
                       (7, 7), (8, 3), (8, 4))),
        *(_formats(f"compute --kind {req.format(p=p)} --connected") for req, p in CONNECTED_SMALL),
        _formats("compute --kind orbifold --profiles 2,1,1,1,1 --t 3 --r 5 --connected"),
        _formats("compute --kind orbifold --profiles 3,1,1,1 --t 3 --r 6 --connected"),
    ),
)

# Spectral-gap checks with two profiles, 7-20 ms each: (d, s, profiles).
GAP_SMALL = (
    (9, 2, "6,2,1;5,2,2"), (8, 2, "3,3,1,1;3,2,2,1"), (9, 2, "5,3,1;3,3,1,1,1"),
    (8, 2, "3,1,1,1,1,1;2,2,1,1,1,1"), (8, 2, "3,2,2,1;2,2,2,2"), (9, 2, "7,2;4,3,2"),
    (9, 3, "6,3;3,3,3"), (9, 2, "7,1,1;4,3,1,1"), (9, 2, "6,2,1;2,2,2,1,1,1"),
    (9, 2, "6,2,1;3,2,2,2"), (9, 2, "7,1,1;4,4,1"), (9, 2, "4,2,1,1,1;3,3,2,1"),
    (8, 2, "7,1;4,1,1,1,1"), (9, 2, "5,1,1,1,1;3,3,1,1,1"), (9, 2, "5,3,1;4,2,2,1"),
    (9, 2, "5,3,1;4,2,1,1,1"), (9, 2, "6,2,1;4,3,2"), (9, 2, "6,1,1,1;4,4,1"),
    (8, 2, "2,2,2,2;2,1,1,1,1,1,1"),
)

VERIFY = Workload(
    "verify", SESSION, 15,
    (
        _formats("verify oracle --max-d 3 --max-transpositions 5"),
        _formats("verify poles --max-d 3"),
        _formats("verify stirling --max-d 4"),
        _formats("verify jack --max-d 2"),
        _formats("verify characters --max-d 6"),
        _formats("verify eigenvalue-order --max-d 10"),
        _formats("verify ratio --kind monotone --d 3 --K 1 --r-max 20"),
        _formats("verify ratio --kind classical --d 4 --r-max 30"),
        _formats("verify ratio --kind classical --d 5 --r-max 30"),
        *(_formats(f"verify gap --d {d} --s {s}") for d, s in (
            (5, 1), (5, 2), (5, 3), (6, 3), (7, 3), (8, 3), (6, 4), (5, 4),
            (7, 1), (6, 2), (8, 1), (7, 2), (9, 1), (8, 2), (8, 4), (9, 2))),
        *(_formats(f"verify gap --d {d} --s {s} --profiles {p}") for d, s, p in GAP_SMALL),
    ),
)

# Partitions of 18; neighbours pair up for completed sums over the cached table.
D18 = ("6,6,6", "3,3,3,3,3,3", "4,4,4,3,3", "2,2,2,2,2,2,2,2,2", "5,5,4,4", "9,9",
       "7,5,3,2,1", "8,4,2,2,2", "10,8", "12,6", "6,6,3,3", "4,4,4,2,2,2", "9,3,3,3",
       "5,4,3,3,2,1")

CHARTABLE = Workload(
    "chartable", PROCESS, 3,
    (
        Slot(("chartable --d 18",), phase=0, cache=True),
        *(_orders(f"compute --kind completed --profiles {{p}} --r {2 + i % 3}",
                  f"{D18[i]};{D18[i + 1]}", phase=1, cache=True)
          for i in range(len(D18) - 1)),
        *(Slot(tuple(f"table --what structure --d 18 --s {s} --format {f}"
                     for f in ("json", "csv")), phase=1, cache=True) for s in (1, 2, 3, 4)),
        *(_orders("table --what hurwitz --kind completed --profiles {p} --r-min 0 --r-max 4",
                  pair, phase=1, cache=True)
          for pair in ("6,6,3,3;4,4,4,2,2,2", "12,6;6,6,6")),
        Slot(("chartable --d 18",), phase=1, cache=True),
        Slot(("chartable --d 18",), phase=1, cache=True),
        Slot(("chartable --d 16",), phase=2),
        Slot(("chartable --d 17",), phase=2),
    ),
)

WORKLOADS = {w.name: w for w in (SWEEP, CONNECTED, VERIFY, CHARTABLE)}


def requests(workload: str, seed: int) -> list[tuple[list[str], bool]]:
    """The seed's request list: (argv, uses the session cache) in run order."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for phase in sorted({s.phase for s in w.slots}):
        picks = [(shlex.split(rng.choice(s.variants)), s.cache)
                 for s in w.slots if s.phase == phase]
        if w.mode == PROCESS:
            rng.shuffle(picks)
        out.extend(picks)
    return out


def all_requests(workload: str) -> list[tuple[list[str], bool]]:
    """Every distinct variant of every slot, in pool order (for recording goldens)."""
    seen = {}
    for s in WORKLOADS[workload].slots:
        for v in s.variants:
            seen.setdefault(v, (shlex.split(v), s.cache))
    return list(seen.values())
