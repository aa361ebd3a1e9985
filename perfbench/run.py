"""Benchmark of the hurwitz CLI: closed loop, one client, one thread.

Each request is one call of ``hurwitz.cli.main(argv)``, the README's
entry point.  Every output of every session is checked against the
committed goldens.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --list
    python3 perfbench/run.py --record            # rewrite goldens.json

A run times interpreter set-up on its own probes, then repeats whole
sessions of the seed's request list, each in fresh interpreters, a fixed
number of times per workload (``pool.Workload.sessions``), so a faster
program gets no more samples than a slower one.  ``--seconds`` is only a
ceiling: a run that would take more than CEILING_FACTOR times it stops
with an error.  Each request is timed by its least disturbed session,
since on a shared machine other tenants only ever add time; wall, median
and tail are taken over those times.
``--trace 1`` alternates untraced and traced sessions and reports the
per-layer metrics of the traced ones.  The last line of standard output
is the JSON result; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import golden  # noqa: E402
import pool  # noqa: E402
import tracer  # noqa: E402

SETUP_PROBES = 11
TAIL_BEYOND = 10  # requests that must lie beyond the tail percentile
WORKER_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # hard ceiling, whatever --seconds says
CEILING_FACTOR = 3  # slack for slow stretches; the counts fit in 30 s on a 2-core box
TRACE_PAIRS = 2

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_p50_s", "s"),
    ("req_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
]


class WorkerError(RuntimeError):
    pass


def _env(cache_dir):
    # byte-code caching stays on, as for an installed package
    env = {k: v for k, v in os.environ.items()
           if k not in ("HURWITZ_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    if cache_dir:
        env["HURWITZ_CACHE_DIR"] = cache_dir
    return env


def spawn(requests, *, trace=False, cache_dir=None, request_base=0, warmup=False):
    """Run one worker; return (set-up seconds, worker report or None for probes)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, env=_env(cache_dir),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise WorkerError(f"worker did not start: {err.strip()[-500:]}")
        job = "" if requests is None else json.dumps(
            {"requests": requests, "trace": trace, "request_base": request_base,
             "warmup": warmup})
        out, err = proc.communicate(job + "\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-500:]}")
    if requests is None:
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


def run_session(workload, reqs, *, trace=False, tag="s"):
    """One session of the request list: per-request results, set-up times,
    peak RSS in KiB and, when traced, the trace of every worker."""
    argvs = [argv for argv, _ in reqs]
    if workload.mode == pool.SESSION:
        setup, report = spawn(argvs, trace=trace, warmup=True)
        results = report["results"]
        return {"argvs": argvs, "results": results, "setups": [setup],
                "rss_kib": report["peak_rss_kib"],
                "traces": [report["trace"]] if trace else []}
    cache_dir = os.path.join(OUT_DIR, f"cache-{os.getpid()}-{tag}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    results, setups, rss, traces = [], [], 0, []
    try:
        for i, (argv, cached) in enumerate(reqs):
            setup, report = spawn([argv], trace=trace, request_base=i,
                                  cache_dir=cache_dir if cached else None)
            res = report["results"][0]
            res["latency_s"] += setup  # a CLI user waits for the interpreter too
            results.append(res)
            setups.append(setup)
            rss = max(rss, report["peak_rss_kib"])
            if trace:
                traces.append(report["trace"])
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"argvs": argvs, "results": results, "setups": setups, "rss_kib": rss,
            "traces": traces}


def tail(latencies):
    """(percentile, value): the highest rank with TAIL_BEYOND requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(1, n - TAIL_BEYOND)
    return 100.0 * k / n, ordered[k - 1]


def metadata():
    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    src = os.path.join(ROOT, "src", "hurwitz")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "src_lines": lines}


def check(sessions, goldens):
    attempted = failed = 0
    failures = []
    for s in sessions:
        for argv, res in zip(s["argvs"], s["results"]):
            attempted += 1
            why = golden.failure(argv, res, goldens)
            if why:
                failed += 1
                stderr = res.get("stderr", "").strip()
                failures.append(f"{golden.request_key(argv)}: {why}"
                                + (f" (stderr: {stderr})" if stderr else ""))
    return attempted, failed, failures


def best_latencies(sessions):
    """Each request's latency in the least disturbed of the sessions."""
    return [min(s["results"][i]["latency_s"] for s in sessions)
            for i in range(len(sessions[0]["results"]))]


def end_to_end(sessions, probes):
    best = best_latencies(sessions)
    pct, tail_value = tail(best)
    setups = probes + [t for s in sessions for t in s["setups"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best),
        "req_p50_s": statistics.median(best),
        "req_tail_s": tail_value,
        "peak_rss_mib": statistics.median(s["rss_kib"] for s in sessions) / 1024,
    }
    samples = {"setup_s": len(setups), "wall_s": len(best), "req_p50_s": len(best),
               "req_tail_s": len(best), "peak_rss_mib": len(sessions)}
    return values, samples, pct


# The reason each workload was chosen, checked on its traced run:
# (statement, share of traced wall_s, whether the share must reach half).
CLAIMS = {
    "sweep": ("exactnum.* + core.content_coefficient.self_s >= half of wall_s",
              lambda t, m: tracer.layer_self(t, "exactnum")
              + m["core.content_coefficient.self_s"], True),
    "connected": ("core.connected_transform.self_s >= half of wall_s",
                  lambda t, m: m["core.connected_transform.self_s"], True),
    "verify": ("no single layer of partitions.*, core.character_sum, "
               "exactnum.multipoly_mul, oracle.* reaches half of wall_s",
               lambda t, m: max(m["partitions.self_s"], m["core.character_sum.self_s"],
                                m["exactnum.multipoly_mul.self_s"],
                                tracer.layer_self(t, "oracle")), False),
    "chartable": ("characters.* + core.character_sum.self_s >= half of wall_s",
                  lambda t, m: tracer.layer_self(t, "characters")
                  + m["core.character_sum.self_s"], True),
}


def record_goldens():
    """Run every pool request once and write goldens.json."""
    out = {}
    for name in pool.WORKLOADS:
        argvs = [argv for argv, _ in pool.all_requests(name)]
        _, report = spawn(argvs)
        for argv, res in zip(argvs, report["results"]):
            if res["raised"] or res["exit"] != 0 or (argv[0] == "verify" and not res["pass"]):
                print(f"refusing to record a failing request: {golden.request_key(argv)} "
                      f"{res}", file=sys.stderr)
                return 1
            out[golden.request_key(argv)] = {"exit": res["exit"], "digest": res["digest"]}
        print(f"{name}: {len(argvs)} requests recorded", file=sys.stderr)
    with open(golden.GOLDEN_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(pool.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true",
                    help="print the seed's request list without running it")
    ap.add_argument("--record", action="store_true", help="rewrite goldens.json")
    args = ap.parse_args(argv)

    if args.list:
        if not args.workload:
            ap.error("--list needs --workload")
        for req_argv, cached in pool.requests(args.workload, args.seed):
            print(golden.request_key(req_argv) + ("  # session cache" if cached else ""))
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "hurwitz", "cli.py")):
        print("error: src/hurwitz is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record:
        return record_goldens()
    if not args.workload:
        ap.error("--workload is required")
    if not os.path.isfile(golden.GOLDEN_PATH):
        print("error: goldens.json is missing", file=sys.stderr)
        return 2

    goldens = golden.load()
    w = pool.WORKLOADS[args.workload]
    reqs = pool.requests(w.name, args.seed)
    argvs = [a for a, _ in reqs]
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        spawn(None)  # warm the byte-code cache; not measured
        probes = [spawn(None)[0] for _ in range(SETUP_PROBES)]
        sessions, traced = [], []
        if args.trace:
            # alternate, so both sides meet the same machine
            for i in range(TRACE_PAIRS):
                sessions.append(run_session(w, reqs, tag=f"u{i}"))
                traced.append(run_session(w, reqs, trace=True, tag=f"t{i}"))
        else:
            # a fixed number of whole sessions; each request then counts its
            # least disturbed one
            ceiling = min(RUN_BUDGET_S, CEILING_FACTOR * args.seconds)
            start = time.perf_counter()
            for i in range(w.sessions):
                sessions.append(run_session(w, reqs, tag=str(i)))
                projected = (time.perf_counter() - start) * w.sessions / (i + 1)
                if projected > ceiling:
                    raise WorkerError(f"{w.sessions} sessions would take {projected:.0f} s, "
                                      f"over the ceiling of {ceiling:.0f} s")
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, failures = check(sessions + traced, goldens)
    values, samples, pct = end_to_end(sessions, probes)
    meta = metadata()
    print(f"workload={w.name} seed={args.seed} mode={w.mode} sessions={len(sessions)} "
          f"requests/session={len(reqs)} (each request timed as its best session) "
          f"python={meta['python']} nproc={meta['nproc']} git_sha={meta['git_sha']} "
          f"src_lines={meta['src_lines']}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    for name, unit in END_TO_END:
        note = f" (p{pct:.1f})" if name == "req_tail_s" else ""
        print(f"{name} {values[name]:.6f} {unit} n={samples[name]}{note}")

    if not traced:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        # the layer split of the less disturbed traced session
        fastest = min(traced, key=lambda s: sum(r["latency_s"] for r in s["results"]))
        merged = tracer.merge(fastest["traces"])
        layer = tracer.layer_metrics(merged)
        traced_wall = sum(r["latency_s"] for r in fastest["results"])
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_frac"] = sum(best_latencies(traced)) / values["wall_s"] - 1
        text, share_of, at_least = CLAIMS[w.name]
        share = share_of(merged, layer) / traced_wall
        layer["trace.claim_share"] = share
        held = share >= 0.5 if at_least else share < 0.5
        print(f"claim {'HOLDS' if held else 'FAILS'}: {text} (share {share:.3f})")
        trace_path = os.path.join(OUT_DIR, f"trace-{w.name}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": w.name, "seed": args.seed, "requests": argvs,
                       "stats": merged["stats"], "counters": merged["counters"],
                       "lru": merged["lru"], "dropped_spans": merged["dropped"],
                       "spans": merged["spans"]}, fh)
        print(f"trace written to {os.path.relpath(trace_path, ROOT)} "
              f"({len(merged['spans'])} spans, {merged['dropped']} dropped)")
        metrics = {}
        for name, unit in tracer.PER_LAYER:
            metrics[name] = {"value": layer[name], "unit": unit}
            print(f"{name} {layer[name]} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
