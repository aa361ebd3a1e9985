"""Memo caches have bounded growth: no module gains an unbounded cache
(``lru_cache(maxsize=None)`` or ``functools.cache``) beyond the ones
listed here.  The character weight memo lists each (degree, profiles)
once and gives the values of a fresh listing; the Jack weights equal a
fresh listing too."""

import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

import hurwitz
from hurwitz import cli, core, jack
from hurwitz.characters import character
from hurwitz.partitions import class_data, enumerate_partitions
from hurwitz.verify import verify_oracle

SOURCE = Path(hurwitz.__file__).parent

# (module, function) of every unbounded cache when this guard was added;
# a new cache takes a maxsize instead of joining the list
UNBOUNDED = {
    ("characters", "_mn"),
    ("cli", "_unread_flags"),
    ("cli", "build_parser"),
    ("core", "_c_const"),
    ("exactnum", "bernoulli"),
    ("oracle", "block_walk"),
    ("oracle", "class_perms"),
    ("oracle", "group"),
    ("oracle", "transpositions"),
}


def _unbounded(decorator) -> bool:
    """``lru_cache(maxsize=None)`` or ``cache``, with or without its module."""
    if isinstance(decorator, ast.Call):
        return _name(decorator.func) == "lru_cache" and any(
            kw.arg == "maxsize" and isinstance(kw.value, ast.Constant) and kw.value.value is None
            for kw in decorator.keywords)
    return _name(decorator) == "cache"


def _name(node) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def unbounded_caches() -> set:
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    _unbounded(dec) for dec in node.decorator_list):
                found.add((path.stem, node.name))
    return found


def test_no_new_unbounded_cache():
    new = unbounded_caches() - UNBOUNDED
    assert not new, f"bound these caches (lru_cache(maxsize=N)): {sorted(new)}"


def test_the_list_names_only_unbounded_caches():
    # a cache that was bounded or removed leaves the list
    assert UNBOUNDED <= unbounded_caches()


def test_the_scan_sees_every_decorator_form():
    source = """
@lru_cache(maxsize=None)
def a(): pass
@functools.lru_cache(maxsize=None)
def b(): pass
@functools.cache
def c(): pass
@cache
def d(): pass
@lru_cache(maxsize=64)
def e(): pass
@lru_cache
def f(): pass
"""
    marked = {node.name for node in ast.parse(source).body
              if any(_unbounded(dec) for dec in node.decorator_list)}
    assert marked == {"a", "b", "c", "d"}


# ---------------------------------------------------------------------------
# The weight memos
# ---------------------------------------------------------------------------

def reference_weights(d, profiles):
    """``(D, [(lam, W)])`` from ``character`` and ``class_data`` alone."""
    sizes = [class_data(mu).class_size for mu in profiles]
    weights = []
    for lam in enumerate_partitions(d):
        dim = character(lam, (1,) * d)
        weight = Fraction(dim * dim)
        for size, mu in zip(sizes, profiles):
            weight *= Fraction(size * character(lam, mu), dim)
        if weight:
            weights.append((lam, weight))
    return math.factorial(d) ** 2 * math.prod(sizes), weights


def profile_choices(d):
    parts = enumerate_partitions(d)
    return [()] + [(mu,) for mu in parts] + list(itertools.product(parts, repeat=2))


@pytest.mark.parametrize("d", range(1, 8))
def test_character_weights_match_the_character_values(d):
    skipped = 0
    for profiles in profile_choices(d):
        want = reference_weights(d, profiles)
        got = core.character_weights(d, profiles)
        assert type(got[1]) is tuple
        assert all(type(w) is int for _, w in got[1])
        assert (got[0], list(got[1])) == want, profiles
        skipped += len(enumerate_partitions(d)) - len(want[1])
    assert skipped or d < 3  # some character vanishes from d = 3 on


def test_the_oracle_suite_lists_each_weight_list_once():
    core._character_weights.cache_clear()
    verify_oracle(max_d=3, max_transpositions=5)
    info = core._character_weights.cache_info()
    assert info.misses == info.currsize == 23
    # per (d, profiles): one sweep over every monotone query, then one
    # completed sweep
    assert info.hits == 23


def test_connected_gw_lists_each_sub_instance_once(capsys, monkeypatch):
    asked = []
    original = core.character_sum

    def recorded(d, profiles, *args):
        asked.append((d, profiles))
        return original(d, profiles, *args)

    monkeypatch.setattr(core, "character_sum", recorded)
    core._character_weights.cache_clear()
    code = cli.main(["compute", "--kind", "gw", "--profiles", "5,1,1;3,2,1,1",
                     "--insertions", "2:3,3:1", "--r", "0", "--connected"])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    assert len(asked) > len(set(asked))  # the transform asks again for a (d', P')
    assert core._character_weights.cache_info().misses == len(set(asked))


def test_the_jack_basis_memo_keeps_the_newest_bases(monkeypatch):
    monkeypatch.setattr(jack, "_jack_cache", {})
    alphas = [Fraction(n, 7) for n in range(1, 101)]
    for alpha in alphas:
        jack._jack_basis(2, alpha)
    assert list(jack._jack_cache) == [(2, alpha) for alpha in alphas[-jack.JACK_CACHE_SIZE:]]


@pytest.mark.parametrize("b", [0, Fraction(1, 2), Fraction(-1, 2), 2])
@pytest.mark.parametrize("d", range(1, 5))
def test_jack_weights_match_a_fresh_listing(d, b):
    alpha = Fraction(b) + 1
    for profiles in profile_choices(d):
        want = []
        for lam in enumerate_partitions(d):
            weight = 1 / jack.jack_norm(lam, alpha)
            for mu in profiles:
                weight *= jack.jack_character(lam, mu, alpha)
            if weight:
                want.append((lam, weight))
        got = jack.jack_weights(d, profiles, b)
        assert type(got) is tuple and list(got) == want, profiles

