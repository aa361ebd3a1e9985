"""Memo caches have bounded growth: no module gains an unbounded cache
(``lru_cache(maxsize=None)`` or ``functools.cache``) beyond the ones
listed here."""

import ast
from pathlib import Path

import hurwitz

SOURCE = Path(hurwitz.__file__).parent

# (module, function) of every unbounded cache when this guard was added;
# a new cache takes a maxsize instead of joining the list
UNBOUNDED = {
    ("characters", "_mn"),
    ("characters", "_partition_index"),
    ("cli", "_unread_flags"),
    ("cli", "build_parser"),
    ("core", "_c_const"),
    ("core", "_content_coefficient"),
    ("core", "f_bar"),
    ("exactnum", "_stirling1"),
    ("exactnum", "_stirling2"),
    ("exactnum", "bernoulli"),
    ("jack", "_m_in_p_matrix"),
    ("oracle", "_profile_products"),
    ("oracle", "block_walk"),
    ("oracle", "class_perms"),
    ("oracle", "group"),
    ("oracle", "transpositions"),
    ("partitions", "_partitions_rec"),
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
