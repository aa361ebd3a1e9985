"""Golden outputs: digests of the value fields of every pool request.

``goldens.json`` maps a request key (its argv, shell-quoted) to the exit
code and value digest recorded when the pool was defined.  A request
fails if it raises, exits with another code, produces another digest, or
is a ``verify`` report whose ``pass`` flag is not true.
"""

import csv
import hashlib
import json
import os
import shlex

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")



def request_key(argv) -> str:
    return shlex.join(argv)


def value_digest(text: str) -> str:
    """sha256 over the value fields of one CLI output.

    JSON outputs drop their top-level ``config`` object, which echoes the
    request, and are re-serialised canonically; CSV outputs drop their
    ``#`` comment lines.
    """
    body = text.strip()
    if body.startswith("{"):
        payload = json.loads(body)
        payload.pop("config", None)
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        canon = "\n".join(line for line in body.splitlines() if not line.startswith("#"))
    return hashlib.sha256(canon.encode()).hexdigest()


def verify_pass(text: str):
    """Whether a verify report passes (JSON ``pass`` flag, or every CSV
    check row marked ``pass``); None for other outputs."""
    body = text.strip()
    if body.startswith("{"):
        payload = json.loads(body)
        return payload.get("pass") if "suite" in payload else None
    rows = list(csv.reader(line for line in body.splitlines() if not line.startswith("#")))
    if not rows or rows[0] != ["check", "pass", "detail"]:
        return None
    return all(row[1] == "pass" for row in rows[1:])


def load(path: str = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def failure(argv, result: dict, goldens: dict):
    """Why a request result is wrong, or None when it matches its golden."""
    want = goldens.get(request_key(argv))
    if want is None:
        return "no golden recorded"
    if result.get("raised"):
        return f"raised {result['raised']}"
    if result.get("exit") != want["exit"]:
        return f"exit {result.get('exit')} != {want['exit']}"
    if result.get("digest") != want["digest"]:
        return "value digest differs from the golden"
    if argv[0] == "verify" and result.get("pass") is not True:
        return "verify report does not pass"
    return None
