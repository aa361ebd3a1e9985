"""Serve benchmark requests through ``hurwitz.cli.main`` in a fresh interpreter.

Protocol, on the standard streams:

1. The worker imports ``hurwitz.cli`` from the checkout's ``src/`` and
   builds the CLI parser, then prints ``ready``.  The parent times the
   interval from spawning the process to this line as set-up time.
2. It reads one JSON line from standard input:
   ``{"requests": [[argv...], ...], "trace": false, "warmup": false}``.
   An empty input ends the process at once (set-up probes do this).
   With ``warmup`` it first serves WARMUP, untimed and unchecked, so the
   first timed request does not pay for the interpreter's first call.
3. It runs every request in order, capturing each request's standard
   output, and prints one JSON line with per-request results, the
   process's peak resident memory and, when traced, the trace data.

Outputs are reduced here to the digest of their value fields; the parent
compares digests with the goldens.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# a degree-2 count: the memo entries it fills cost next to nothing to rebuild
WARMUP = ["compute", "--kind", "classical", "--d", "2", "--r", "2"]


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hurwitz import cli

    cli.build_parser()
    print("ready", flush=True)

    import contextlib
    import io
    import json
    import resource
    import time

    sys.path.insert(0, HERE)
    import golden

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)

    def run_request(argv):
        out = io.StringIO()
        err = io.StringIO()
        raised = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception as exc:  # a raising request is a failed request
            code = None
            raised = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        text = out.getvalue()
        result = {"latency_s": latency, "exit": code, "raised": raised,
                  "bytes": len(text.encode()), "stderr": err.getvalue()[-300:]}
        if raised is None:
            try:
                result["digest"] = golden.value_digest(text)
                result["pass"] = golden.verify_pass(text)
            except ValueError as exc:
                result["raised"] = f"unparsable output: {exc}"
        return result

    if job.get("warmup"):
        run_request(WARMUP)
    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer(cache_dir=os.environ.get("HURWITZ_CACHE_DIR"))
        tracing.install(tracer)
    results = []
    for i, argv in enumerate(job["requests"]):
        if tracer is None:
            results.append(run_request(argv))
            continue
        with tracer.request(job.get("request_base", 0) + i):
            results.append(run_request(argv))
        tracer.add("cli.output_bytes", results[-1]["bytes"])
    report = {
        "results": results,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.export()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
