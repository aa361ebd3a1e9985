"""Outside-in tracer for the hurwitz modules.

``install`` wraps the functions of each module that the per-layer metrics
name, and replaces every module-namespace binding of the same object
(for example ``f_bar`` as imported into ``verify``) and every class
attribute bound to it (``MultiPoly.__radd__`` is ``__add__``).  Nothing in
``src/`` is edited and no value changes: the traced run passes the same
golden check as the untraced one.

Each wrapped call records its duration.  A span's self time is its
duration minus the part of it that child spans cover.  The tracer keeps
one frame per active call and adds each finished call's duration to its
parent, which computes exactly that on a single thread; ``self_times``
computes the same from a list of recorded spans.  Functions marked hot
(called hundreds of thousands of times, such as ``MultiPoly.mul``) are
counted and timed like the others but not stored as spans, to bound
memory; their time still counts as child time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from fractions import Fraction

MAX_SPANS = 200_000

# (module, attribute path, stat name, hot)
TARGETS = [
    ("partitions", "check_partition", "partitions.check_partition", True),
    ("partitions", "enumerate_partitions", "partitions.enumerate_partitions", True),
    ("partitions", "class_data", "partitions.class_data", True),
    ("partitions", "contents", "partitions.contents", True),
    ("partitions", "hook_lengths", "partitions.hook_lengths", True),
    ("partitions", "transpose", "partitions.transpose", True),
    ("partitions", "frobenius_shifted", "partitions.frobenius_shifted", True),
    ("partitions", "parse_partition", "partitions.parse_partition", True),
    ("characters", "char_table", "characters.char_table", False),
    ("characters", "_load_cached", "characters.disk_read", False),
    ("characters", "character", "characters.character", True),
    ("characters", "dim", "characters.dim", True),
    ("characters", "CharTable.value", "characters.table_value", True),
    ("core", "character_sum", "core.character_sum", False),
    ("core", "_content_coefficient", "core.content_coefficient", False),
    ("core", "f_bar", "core.f_bar", True),
    ("core", "m_ds", "core.m_ds", True),
    ("core", "completed_hurwitz", "core.completed_hurwitz", False),
    ("core", "classical_hurwitz", "core.classical_hurwitz", False),
    ("core", "hypergeometric_hurwitz", "core.hypergeometric_hurwitz", False),
    ("core", "mixed_simple_hypergeometric", "core.mixed_simple_hypergeometric", False),
    ("core", "orbifold_hurwitz", "core.orbifold_hurwitz", False),
    ("core", "gw_correlator", "core.gw_correlator", False),
    ("core", "structure_coefficients", "core.structure_coefficients", False),
    ("core", "structure_resummation", "core.structure_resummation", False),
    ("core", "gap_interval", "core.gap_interval", False),
    ("core", "connected_transform", "core.connected_transform", False),
    ("core", "connected_transform_multi", "core.connected_transform_multi", False),
    ("exactnum", "MultiPoly.mul", "exactnum.multipoly_mul", True),
    ("exactnum", "MultiPoly.__add__", "exactnum.multipoly_add", True),
    ("exactnum", "MultiPoly.scale", "exactnum.multipoly_scale", True),
    ("exactnum", "TruncSeries.mul", "exactnum.truncseries_mul", True),
    ("exactnum", "geometric_factor", "exactnum.series_factor", True),
    ("exactnum", "affine_factor", "exactnum.series_factor", True),
    ("exactnum", "geometric_power", "exactnum.series_factor", True),
    ("exactnum", "coeff_z", "exactnum.coeff_z", True),
    ("exactnum", "format_rational", "exactnum.format_rational", True),
    ("exactnum", "stirling", "exactnum.stirling", True),
    ("jack", "_jack_basis", "jack.jack_basis", False),
    ("jack", "jack_in_psums", "jack.jack_in_psums", True),
    ("jack", "jack_character", "jack.jack_character", True),
    ("jack", "jack_norm", "jack.jack_norm", True),
    ("jack", "deformed_contents", "jack.deformed_contents", True),
    ("jack", "b_hurwitz_coefficient", "jack.b_hurwitz_coefficient", False),
    ("asymptotics", "monotone_leading_term", "asymptotics.leading_term", False),
    ("asymptotics", "completed_leading_term", "asymptotics.leading_term", False),
    ("asymptotics", "b_leading_term", "asymptotics.leading_term", False),
    ("asymptotics", "gw_leading_term", "asymptotics.leading_term", False),
    ("asymptotics", "ratio_report", "asymptotics.ratio_report", False),
    ("asymptotics", "pole_coefficient", "asymptotics.pole_coefficient", False),
    ("asymptotics", "pole_coefficient_stirling", "asymptotics.pole_coefficient", False),
    ("oracle", "count_factorizations", "oracle.count_factorizations", False),
    ("oracle", "block_walk", "oracle.block_walk", False),
    ("oracle", "GroupAlgebraElement.__mul__", "oracle.group_algebra", True),
    ("oracle", "GroupAlgebraElement.__add__", "oracle.group_algebra", True),
    ("oracle", "GroupAlgebraElement.__sub__", "oracle.group_algebra", True),
    ("oracle", "GroupAlgebraElement.scale", "oracle.group_algebra", True),
    ("oracle", "GroupAlgebraElement.__eq__", "oracle.group_algebra", True),
    ("oracle", "GroupAlgebraElement.class_coefficients", "oracle.group_algebra", True),
    ("oracle", "jm_symmetric_evaluate", "oracle.jm_symmetric_evaluate", False),
    ("oracle", "central_idempotent", "oracle.central_idempotent", False),
    ("oracle", "idempotent_check", "oracle.idempotent_check", False),
    ("oracle", "bruteforce_character_table", "oracle.bruteforce_character_table", False),
    ("verify", "verify_characters", "verify.suite", False),
    ("verify", "verify_oracle", "verify.suite", False),
    ("verify", "verify_stirling", "verify.suite", False),
    ("verify", "verify_jack", "verify.suite", False),
    ("verify", "verify_gap", "verify.suite", False),
    ("verify", "verify_poles", "verify.suite", False),
    ("verify", "verify_ratio", "verify.suite", False),
    ("verify", "verify_eigenvalue_order", "verify.suite", False),
    ("cli", "main", "cli.main", False),
]

# lru caches read through cache_info(): metric prefix -> (module, attribute)
LRU_CACHES = {
    "characters.mn": ("characters", "_mn"),
    "core.content_coefficient": ("core", "_content_coefficient"),
    "core.f_bar": ("core", "f_bar"),
    "oracle.block_walk": ("oracle", "block_walk"),
}

# Per-layer metrics in report order, with their units.
PER_LAYER = [
    ("partitions.check_partition.calls", "count"),
    ("partitions.self_s", "s"),
    ("characters.char_table.calls", "count"),
    ("characters.char_table.builds", "count"),
    ("characters.char_table.build_s", "s"),
    ("characters.mn.hit_ratio", "ratio"),
    ("characters.disk.reads", "count"),
    ("characters.disk.writes", "count"),
    ("characters.disk.read_s", "s"),
    ("core.character_sum.calls", "count"),
    ("core.character_sum.self_s", "s"),
    ("core.character_sum.partitions", "count"),
    ("core.character_sum.zero_skip_frac", "ratio"),
    ("core.content_coefficient.misses", "count"),
    ("core.content_coefficient.hit_ratio", "ratio"),
    ("core.content_coefficient.self_s", "s"),
    ("core.f_bar.hit_ratio", "ratio"),
    ("core.f_bar.self_s", "s"),
    ("core.connected_transform.calls", "count"),
    ("core.connected_transform.self_s", "s"),
    ("core.connected_transform.subinstances", "count"),
    ("core.connected_transform.zero_frac", "ratio"),
    ("exactnum.truncseries_mul.calls", "count"),
    ("exactnum.truncseries_mul.self_s", "s"),
    ("exactnum.multipoly_mul.calls", "count"),
    ("exactnum.multipoly_mul.self_s", "s"),
    ("exactnum.multipoly_add.calls", "count"),
    ("jack.jack_basis.builds", "count"),
    ("jack.jack_basis.self_s", "s"),
    ("jack.b_hurwitz_coefficient.calls", "count"),
    ("jack.b_hurwitz_coefficient.self_s", "s"),
    ("asymptotics.leading_term.calls", "count"),
    ("asymptotics.leading_term.self_s", "s"),
    ("asymptotics.ratio_report.self_s", "s"),
    ("asymptotics.pole_coefficient.self_s", "s"),
    ("oracle.count_factorizations.calls", "count"),
    ("oracle.count_factorizations.self_s", "s"),
    ("oracle.block_walk.misses", "count"),
    ("oracle.block_walk.self_s", "s"),
    ("oracle.group_algebra.self_s", "s"),
    ("oracle.bruteforce_character_table.self_s", "s"),
    ("verify.suite.self_s", "s"),
    ("verify.checks", "count"),
    ("verify.checks_failed", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.claim_share", "ratio"),
]


class Tracer:
    """Span recorder driven by wrapped calls; single-threaded by design."""

    def __init__(self, clock=time.perf_counter, cache_dir=None):
        self.clock = clock
        self.cache_dir = cache_dir
        self.stack = []  # per active call: [child seconds, id of nearest stored span]
        self.stats = {}  # stat name -> [calls, total seconds, self seconds]
        self.counters = {}
        self.spans = []  # (id, name, start, end, parent id, request id)
        self.dropped = 0
        self.request_id = None
        self.lru = {}
        self._next_id = 0

    def add(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def run(self, name, hot, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1][1] if stack else None
        if hot:
            sid = parent
        else:
            sid = self._next_id
            self._next_id += 1
        frame = [0.0, sid]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if not hot:
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, name, start, end, parent, self.request_id))
                else:
                    self.dropped += 1

    @contextlib.contextmanager
    def request(self, request_id):
        """Tag spans with a request id and count cache files the request writes."""
        self.request_id = request_id
        before = _dir_state(self.cache_dir)
        try:
            yield
        finally:
            after = _dir_state(self.cache_dir)
            self.add("characters.disk.writes",
                     sum(1 for k, v in after.items() if before.get(k) != v))
            self.request_id = None

    def export(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "lru": {k: [f.cache_info().hits, f.cache_info().misses]
                    for k, f in self.lru.items()},
            "spans": self.spans,
            "dropped": self.dropped,
        }


def _dir_state(path):
    if not path or not os.path.isdir(path):
        return {}
    out = {}
    for entry in os.scandir(path):
        st = entry.stat()
        out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


def self_times(spans) -> dict:
    """Self time per span id: duration minus the union of its children's
    intervals, clipped to the span.  ``spans`` holds tuples
    ``(id, name, start, end, parent id, ...)``."""
    children: dict = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for s in spans:
        sid, start, end = s[0], s[2], s[3]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _plain(tracer, name, hot, fn):
    def traced(*args, **kwargs):
        return tracer.run(name, hot, fn, args, kwargs)
    traced.__wrapped__ = fn
    return traced


def _specials(tracer, mods):
    characters, jack = mods["characters"], mods["jack"]
    clock = tracer.clock

    def char_table(fn):
        def traced(d, *args, **kwargs):
            memo = d in characters._tables
            reads = tracer.counters.get("characters.disk.reads", 0)
            start = clock()
            table = tracer.run("characters.char_table", False, fn, (d,) + args, kwargs)
            if not memo and tracer.counters.get("characters.disk.reads", 0) == reads:
                tracer.add("characters.char_table.builds")
                tracer.add("characters.char_table.build_s", clock() - start)
            return table
        return traced

    def load_cached(fn):
        def traced(*args, **kwargs):
            start = clock()
            table = tracer.run("characters.disk_read", False, fn, args, kwargs)
            if table is not None:
                tracer.add("characters.disk.reads")
                tracer.add("characters.disk.read_s", clock() - start)
            return table
        return traced

    def character_sum(fn):
        def traced(d, profiles, factor, *args, **kwargs):
            def counted(lam):
                tracer.add("core.character_sum.factor_calls")
                return factor(lam)
            out = tracer.run("core.character_sum", False, fn,
                             (d, profiles, counted) + args, kwargs)
            tracer.add("core.character_sum.partitions",
                       len(characters._tables[d].partitions))
            return out
        return traced

    def connected_multi(fn):
        def traced(evaluator, *args, **kwargs):
            def counted(*eargs):
                value = evaluator(*eargs)
                tracer.add("core.connected_transform.subinstances")
                if value == 0:
                    tracer.add("core.connected_transform.zero_subinstances")
                return value
            return tracer.run("core.connected_transform_multi", False, fn,
                              (counted,) + args, kwargs)
        return traced

    def jack_basis(fn):
        def traced(d, alpha, *args, **kwargs):
            if (d, Fraction(alpha)) not in jack._jack_cache:
                tracer.add("jack.jack_basis.builds")
            return tracer.run("jack.jack_basis", False, fn, (d, alpha) + args, kwargs)
        return traced

    def verify_suite(fn):
        def traced(*args, **kwargs):
            report = tracer.run("verify.suite", False, fn, args, kwargs)
            tracer.add("verify.checks", len(report["checks"]))
            tracer.add("verify.checks_failed", sum(1 for c in report["checks"] if not c["pass"]))
            return report
        return traced

    return {
        "characters.char_table": char_table,
        "characters.disk_read": load_cached,
        "core.character_sum": character_sum,
        "core.connected_transform_multi": connected_multi,
        "jack.jack_basis": jack_basis,
        "verify.suite": verify_suite,
    }


def install(tracer) -> None:
    """Wrap every target and rebind each module and class reference to it."""
    import importlib

    mods = {name: importlib.import_module(f"hurwitz.{name}")
            for name in {t[0] for t in TARGETS}}
    for key, (mod, attr) in LRU_CACHES.items():
        tracer.lru[key] = getattr(mods[mod], attr)
    specials = _specials(tracer, mods)
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "hurwitz" or n.startswith("hurwitz.")]
    for mod_name, path, stat, hot in TARGETS:
        owner = mods[mod_name]
        *cls_path, attr = path.split(".")
        if cls_path:
            owner = getattr(owner, cls_path[0])
        original = vars(owner)[attr]
        if stat in specials:
            wrapper = specials[stat](original)
        else:
            wrapper = _plain(tracer, stat, hot, original)
        if cls_path:
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, wrapper)
            continue
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, name, wrapper)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def merge(traces) -> dict:
    """Sum the stats, counters and cache counts of several processes."""
    out = {"stats": {}, "counters": {}, "lru": {}, "spans": [], "dropped": 0}
    for t in traces:
        for name, (calls, total, self_s) in t["stats"].items():
            st = out["stats"].setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, n in t["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + n
        for name, (hits, misses) in t["lru"].items():
            h = out["lru"].setdefault(name, [0, 0])
            h[0] += hits
            h[1] += misses
        out["spans"].extend(t["spans"])
        out["dropped"] += t["dropped"]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_self(trace: dict, layer: str) -> float:
    """Self time summed over every wrapped function of one module."""
    return sum(v[2] for n, v in trace["stats"].items() if n.startswith(layer + "."))


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values from a (merged) trace, without the
    ``trace.*`` entries, which need the run's wall times."""
    stats, counters, lru = trace["stats"], trace["counters"], trace["lru"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def hit_ratio(key):
        hits, misses = lru.get(key, [0, 0])
        return _ratio(hits, hits + misses)

    visited = counters.get("core.character_sum.partitions", 0)
    factors = counters.get("core.character_sum.factor_calls", 0)
    sub = counters.get("core.connected_transform.subinstances", 0)
    return {
        "partitions.check_partition.calls": calls("partitions.check_partition"),
        "partitions.self_s": layer_self(trace, "partitions"),
        "characters.char_table.calls": calls("characters.char_table"),
        "characters.char_table.builds": counters.get("characters.char_table.builds", 0),
        "characters.char_table.build_s": counters.get("characters.char_table.build_s", 0.0),
        "characters.mn.hit_ratio": hit_ratio("characters.mn"),
        "characters.disk.reads": counters.get("characters.disk.reads", 0),
        "characters.disk.writes": counters.get("characters.disk.writes", 0),
        "characters.disk.read_s": counters.get("characters.disk.read_s", 0.0),
        "core.character_sum.calls": calls("core.character_sum"),
        "core.character_sum.self_s": self_s("core.character_sum"),
        "core.character_sum.partitions": visited,
        "core.character_sum.zero_skip_frac": _ratio(visited - factors, visited),
        "core.content_coefficient.misses": lru.get("core.content_coefficient", [0, 0])[1],
        "core.content_coefficient.hit_ratio": hit_ratio("core.content_coefficient"),
        "core.content_coefficient.self_s": self_s("core.content_coefficient"),
        "core.f_bar.hit_ratio": hit_ratio("core.f_bar"),
        "core.f_bar.self_s": self_s("core.f_bar"),
        "core.connected_transform.calls": calls("core.connected_transform_multi"),
        "core.connected_transform.self_s": self_s("core.connected_transform",
                                                  "core.connected_transform_multi"),
        "core.connected_transform.subinstances": sub,
        "core.connected_transform.zero_frac": _ratio(
            counters.get("core.connected_transform.zero_subinstances", 0), sub),
        "exactnum.truncseries_mul.calls": calls("exactnum.truncseries_mul"),
        "exactnum.truncseries_mul.self_s": self_s("exactnum.truncseries_mul"),
        "exactnum.multipoly_mul.calls": calls("exactnum.multipoly_mul"),
        "exactnum.multipoly_mul.self_s": self_s("exactnum.multipoly_mul"),
        "exactnum.multipoly_add.calls": calls("exactnum.multipoly_add"),
        "jack.jack_basis.builds": counters.get("jack.jack_basis.builds", 0),
        "jack.jack_basis.self_s": self_s("jack.jack_basis"),
        "jack.b_hurwitz_coefficient.calls": calls("jack.b_hurwitz_coefficient"),
        "jack.b_hurwitz_coefficient.self_s": self_s("jack.b_hurwitz_coefficient"),
        "asymptotics.leading_term.calls": calls("asymptotics.leading_term"),
        "asymptotics.leading_term.self_s": self_s("asymptotics.leading_term"),
        "asymptotics.ratio_report.self_s": self_s("asymptotics.ratio_report"),
        "asymptotics.pole_coefficient.self_s": self_s("asymptotics.pole_coefficient"),
        "oracle.count_factorizations.calls": calls("oracle.count_factorizations"),
        "oracle.count_factorizations.self_s": self_s("oracle.count_factorizations"),
        "oracle.block_walk.misses": lru.get("oracle.block_walk", [0, 0])[1],
        "oracle.block_walk.self_s": self_s("oracle.block_walk"),
        "oracle.group_algebra.self_s": self_s("oracle.group_algebra"),
        "oracle.bruteforce_character_table.self_s": self_s("oracle.bruteforce_character_table"),
        "verify.suite.self_s": self_s("verify.suite"),
        "verify.checks": counters.get("verify.checks", 0),
        "verify.checks_failed": counters.get("verify.checks_failed", 0),
        "cli.main.self_s": self_s("cli.main"),
        "cli.output_bytes": counters.get("cli.output_bytes", 0),
    }
