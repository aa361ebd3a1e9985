"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import shlex
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import golden  # noqa: E402
import pool  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = ["table", "--what", "ratio", "--kind", "gw", "--profiles", "2,1,1;3,1",
         "--gw-s", "3", "--r-min", "0", "--r-max", "40"]


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_times_on_nested_spans():
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 3.0, 6.0, 0),    # overlaps a: the union [1, 6] counts once
        (3, "c", 8.0, 12.0, 0),   # clipped to the parent's end
        (4, "d", 2.0, 3.0, 1),
        (5, "e", 2.5, 3.5, 1),    # overlaps d inside a
    ]
    got = tracer.self_times(spans)
    assert got[0] == pytest.approx(10 - (5 + 2))
    assert got[1] == pytest.approx(3 - 1.5)
    assert got[2] == pytest.approx(3)
    assert got[3] == pytest.approx(4)
    assert got[4] == pytest.approx(1)
    assert got[5] == pytest.approx(1)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_tracer_self_time_matches_span_arithmetic():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf(dt):
        clock.tick(dt)

    def mid():
        clock.tick(1)
        t.run("leaf", False, leaf, (2,), {})
        t.run("hot", True, leaf, (0.5,), {})
        clock.tick(1)

    def top():
        clock.tick(3)
        t.run("mid", False, mid, (), {})
        t.run("leaf", False, leaf, (4,), {})

    with t.request(7):
        t.run("top", False, top, (), {})
    assert t.stats["top"] == [1, 11.5, 3.0]
    assert t.stats["mid"] == [1, 4.5, 2.0]
    assert t.stats["leaf"] == [2, 6.0, 6.0]
    assert t.stats["hot"] == [1, 0.5, 0.5]
    # hot calls are not stored as spans, so in the span arithmetic their
    # time is their parent's (mid: 2.0 + 0.5); all else agrees
    names = {s[0]: s[1] for s in t.spans}
    got = sorted((names[i], v) for i, v in tracer.self_times(t.spans).items())
    assert got == [("leaf", 2.0), ("leaf", 4.0), ("mid", 2.5), ("top", 3.0)]
    assert all(s[5] == 7 for s in t.spans)
    top_span = next(s for s in t.spans if s[1] == "top")
    assert top_span[4] is None
    assert all(s[4] == top_span[0] for s in t.spans if s[1] == "mid")


# ---------------------------------------------------------------------------
# goldens
# ---------------------------------------------------------------------------

def _cli_output(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import contextlib
    import io

    from hurwitz import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_golden_accepts_the_recorded_output():
    goldens = golden.load()
    code, text = _cli_output(SMALL)
    result = {"exit": code, "raised": None, "digest": golden.value_digest(text),
              "pass": golden.verify_pass(text)}
    assert golden.failure(SMALL, result, goldens) is None


def test_perturbed_golden_value_is_flagged():
    goldens = golden.load()
    code, text = _cli_output(SMALL)
    payload = json.loads(text)
    exact = payload["rows"][0]["exact"]
    payload["rows"][0]["exact"] = exact + "1"
    perturbed = json.dumps(payload, indent=2)
    result = {"exit": code, "raised": None, "digest": golden.value_digest(perturbed),
              "pass": None}
    assert golden.failure(SMALL, result, goldens) == "value digest differs from the golden"
    # the echoed configuration is not a value field
    payload["rows"][0]["exact"] = exact
    payload["config"]["format"] = "other"
    same = {**result, "digest": golden.value_digest(json.dumps(payload))}
    assert golden.failure(SMALL, same, goldens) is None


def test_wrong_exit_raise_and_failed_verify_are_flagged():
    argv = ["verify", "gap", "--d", "5", "--s", "1"]
    goldens = {golden.request_key(argv): {"exit": 0, "digest": "x"}}
    ok = {"exit": 0, "raised": None, "digest": "x", "pass": True}
    assert golden.failure(argv, ok, goldens) is None
    assert golden.failure(argv, {**ok, "exit": 1}, goldens).startswith("exit")
    assert golden.failure(argv, {**ok, "raised": "boom"}, goldens).startswith("raised")
    assert golden.failure(argv, {**ok, "pass": False}, goldens) == "verify report does not pass"
    assert golden.failure(["verify", "gap"], ok, goldens) == "no golden recorded"


def test_csv_digest_ignores_comment_lines():
    a = "# config: {\"a\": 1}\nr,value\n1,2\n"
    b = "# config: {\"a\": 2}\nr,value\n1,2\n"
    c = "# config: {\"a\": 1}\nr,value\n1,3\n"
    assert golden.value_digest(a) == golden.value_digest(b) != golden.value_digest(c)


def test_every_pool_request_has_a_golden():
    goldens = golden.load()
    for name in pool.WORKLOADS:
        for argv, _ in pool.all_requests(name):
            assert golden.request_key(argv) in goldens


# ---------------------------------------------------------------------------
# request lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(pool.WORKLOADS))
def test_same_seed_same_request_list(workload):
    assert pool.requests(workload, 5) == pool.requests(workload, 5)
    lists = {json.dumps(pool.requests(workload, s)) for s in range(6)}
    assert len(lists) > 1


def test_chartable_phases_keep_their_order():
    reqs = pool.requests("chartable", 3)
    assert reqs[0] == (["chartable", "--d", "18"], True)
    assert sorted(a[2] for a, _ in reqs[-2:]) == ["16", "17"]
    assert all(not cached for _, cached in reqs[-2:])


@pytest.mark.parametrize("workload", ["sweep", "connected", "verify"])
def test_session_variants_are_one_request_in_two_formats(workload):
    for slot in pool.WORKLOADS[workload].slots:
        assert slot.variants == (slot.variants[0], slot.variants[0] + " --format csv")


def test_list_mode_prints_argv_without_running(tmp_path):
    # a directory with the benchmark alone: nothing could run there
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chartable", "--seed", "4",
         "--list"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    want = pool.requests("chartable", 4)
    assert len(lines) == len(want)
    for line, (argv, cached) in zip(lines, want):
        assert shlex.split(line.split("  #")[0]) == argv
        assert line.endswith("# session cache") == cached


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
        text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("session_s,ok", [(0.01, True), (4.0, True), (20.0, False)])
def test_session_count_does_not_depend_on_speed(monkeypatch, capsys, session_s, ok):
    """A fast program gets as many sessions as a slow one; past the
    ceiling of 3 x --seconds the run stops with no result."""
    goldens = golden.load()
    clock = FakeClock()
    ran = []

    def fake_session(workload, reqs, *, trace=False, tag="s"):
        ran.append(tag)
        clock.tick(session_s)
        results = [dict(goldens[golden.request_key(a)], raised=None, latency_s=0.01,
                        **{"pass": True}) for a, _ in reqs]
        return {"argvs": [a for a, _ in reqs], "results": results, "setups": [0.1],
                "rss_kib": 1024, "traces": []}

    monkeypatch.setattr(run, "spawn", lambda requests, **kw: (0.1, None))
    monkeypatch.setattr(run, "run_session", fake_session)
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=clock))
    code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "30"])
    last = capsys.readouterr().out.strip().splitlines()[-1:]
    if ok:
        assert code == 0 and json.loads(last[0])["correct"]
        assert len(ran) == pool.WORKLOADS["verify"].sessions
    else:
        assert code != 0 and not any('"correct"' in line for line in last)
        assert len(ran) == 1


# ---------------------------------------------------------------------------
# the traced worker changes no value
# ---------------------------------------------------------------------------

def test_traced_worker_passes_the_golden_check():
    goldens = golden.load()
    argv = ["compute", "--kind", "gw", "--profiles", "5,1;4,1,1",
            "--insertions", "2:3,3:1", "--r", "0", "--connected"]
    _, report = run.spawn([argv, SMALL], trace=True)
    for a, res in zip([argv, SMALL], report["results"]):
        assert golden.failure(a, res, goldens) is None
    layer = tracer.layer_metrics(report["trace"])
    assert layer["core.connected_transform.calls"] == 1
    assert layer["core.connected_transform.subinstances"] > 0
    assert layer["core.character_sum.calls"] > 0
    assert {s[5] for s in report["trace"]["spans"]} == {0, 1}
    assert set(layer) >= {n for n, _ in tracer.PER_LAYER} - {
        "trace.wall_s", "trace.overhead_frac", "trace.claim_share"}


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(pool.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
