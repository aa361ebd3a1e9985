"""An r-range is one pass: ``compute --r-min/--r-max`` prints what the
per-r requests print, and reads each family's weights once."""

import json
import shlex

import pytest

from hurwitz import core, jack
from hurwitz.cli import EXIT_OK, main

RANGES = {
    "classical": "--kind classical --d 5 --r-min 0 --r-max 10",
    "completed-two-profiles": "--kind completed --profiles 3,1,1;2,2,1 --s 2 --r-min 0 --r-max 6",
    "completed-three-profiles":
        "--kind completed --profiles 3,1,1;2,2,1;2,1,1,1 --r-min 1 --r-max 6",
    "orbifold-t-divides-d": "--kind orbifold --profiles 2,2,1,1 --t 2 --r-min 0 --r-max 6",
    "orbifold-t-not-dividing-d": "--kind orbifold --profiles 2,2,1 --t 2 --r-min 0 --r-max 4",
    "hypergeometric": "--kind hypergeometric --d 4 --K 1 --L 1 --M 1 --r-min 0 --r-max 5",
    "hypergeometric-caps":
        "--kind hypergeometric --d 4 --K 2 --L 1 --M 1 --u-deg 1 --v-deg 2 --r-min 0 --r-max 7",
    "hciz": "--kind hciz --profiles 2,1,1;3,1 --r-min 0 --r-max 6",
    "b-content": "--kind b-content --d 3 --K 1 --M 1 --b 1/2 --r-min 0 --r-max 5",
    "b-content-caps":
        "--kind b-content --d 3 --K 1 --L 1 --u-deg 1 --b 2 --r-min 2 --r-max 6",
    "dhr": "--kind completed --profiles 3,1;2,2 --r-min 0 --r-max 5 --normalization dhr",
    "connected-classical": "--kind classical --d 5 --r-min 0 --r-max 9 --connected",
    "connected-completed":
        "--kind completed --profiles 3,1,1;2,2,1 --s 2 --r-min 0 --r-max 4 --connected",
    "connected-hypergeometric":
        "--kind hypergeometric --profiles 2,1,1;2,1,1 --K 1 --L 1 --r-min 0 --r-max 5 --connected",
    "connected-orbifold":
        "--kind orbifold --profiles 3,1,1,1 --t 3 --r-min 0 --r-max 5 --connected",
}


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", RANGES)
def test_range_prints_the_per_r_results(capsys, case, fmt):
    argv = ["compute", *shlex.split(RANGES[case]), "--format", fmt]
    code, whole = run(capsys, argv)
    assert code == EXIT_OK
    lo = int(argv[argv.index("--r-min") + 1])
    hi = int(argv[argv.index("--r-max") + 1])
    base = [a for i, a in enumerate(argv)
            if a not in ("--r-min", "--r-max") and argv[i - 1] not in ("--r-min", "--r-max")]
    singles = []
    for r in range(lo, hi + 1):
        code, out = run(capsys, base + ["--r", str(r)])
        assert code == EXIT_OK
        singles.append(out)
    if fmt == "json":
        results = json.loads(whole)["results"]
        assert [json.dumps(blob, indent=2) for blob in results] == \
            [json.dumps(json.loads(out)["results"][0], indent=2) for out in singles]
        assert any(blob["value"] not in ("0", []) for blob in results) or \
            case == "orbifold-t-not-dividing-d"
    else:
        rows = whole.splitlines()[1:]
        assert rows == ["r,value"] + [out.splitlines()[2] for out in singles]


DISCONNECTED = {
    "classical": ("character_weights", "--kind classical --d 6 --r-min 0 --r-max 12"),
    "completed": ("character_weights",
                  "--kind completed --profiles 3,1,1;2,2,1 --r-min 0 --r-max 8"),
    "orbifold": ("character_weights", "--kind orbifold --profiles 2,2,1,1 --t 2 --r-max 8"),
    "hypergeometric": ("character_weights",
                       "--kind hypergeometric --d 5 --K 2 --M 1 --v-deg 2 --r-max 12"),
    "hciz": ("character_weights", "--kind hciz --profiles 2,1,1;3,1 --r-max 6"),
    "b-content": ("jack_weights", "--kind b-content --d 3 --K 1 --b 1/2 --r-max 6"),
}


@pytest.mark.parametrize("case", DISCONNECTED)
def test_disconnected_range_reads_the_weights_once(capsys, monkeypatch, case):
    name, flags = DISCONNECTED[case]
    module = jack if name == "jack_weights" else core
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    code, _ = run(capsys, ["compute", *shlex.split(flags)])
    assert code == EXIT_OK and len(calls) == 1


CONNECTED = {
    "classical": "--kind classical --d 6 --r-min 0 --r-max 10 --connected",
    "completed": "--kind completed --profiles 3,1,1;2,2,1 --r-min 0 --r-max 5 --connected",
    "hypergeometric": "--kind hypergeometric --d 4 --K 1 --L 1 --r-min 0 --r-max 5 --connected",
    "orbifold": "--kind orbifold --profiles 3,1,1,1 --t 3 --r-min 0 --r-max 6 --connected",
}
# the completed-cycle families read one connected spectrum, with no r in
# it; the content families run the exponential formula on one sweep per
# (profiles, degree); neither goes through the transform
SPECTRUM = ("classical", "completed", "orbifold")


def run_connected(capsys, monkeypatch, case):
    """Run a connected range and return every sub-instance the transform
    evaluates, every ``weighted_sweep`` call and the (profiles, degree)
    of every ``character_weights`` listing."""
    original_transform, original_sweep = core.connected_transform_multi, core.weighted_sweep
    original_weights = core.character_weights
    evaluated, sweeps, listed = [], [], []

    def transform(evaluator, *args, **kwargs):
        def recorded(*key):
            evaluated.append(key)
            return evaluator(*key)
        return original_transform(recorded, *args, **kwargs)

    def sweep(*args, **kwargs):
        sweeps.append(args)
        return original_sweep(*args, **kwargs)

    def weights(d, profiles):
        listed.append((profiles, d))
        return original_weights(d, profiles)

    monkeypatch.setattr(core, "connected_transform_multi", transform)
    monkeypatch.setattr(core, "weighted_sweep", sweep)
    monkeypatch.setattr(core, "character_weights", weights)
    code, _ = run(capsys, ["compute", *shlex.split(CONNECTED[case])])
    assert code == EXIT_OK and listed
    return evaluated, sweeps, listed


@pytest.mark.parametrize("case", CONNECTED)
def test_connected_range_evaluates_each_sub_instance_once(capsys, monkeypatch, case):
    # a sub-instance is one weight list, whatever the r range
    evaluated, _, listed = run_connected(capsys, monkeypatch, case)
    assert not evaluated and len(listed) == len(set(listed)) > 1


@pytest.mark.parametrize("case", CONNECTED)
def test_connected_range_sweeps_once_per_profiles_and_degree(capsys, monkeypatch, case):
    evaluated, sweeps, listed = run_connected(capsys, monkeypatch, case)
    assert not evaluated and len(listed) == len(set(listed))
    assert len(sweeps) == (0 if case in SPECTRUM else len(listed))


def test_empty_connected_range_is_empty():
    assert core.classical_hurwitz_sweep((), 5, connected=True) == []
    assert core.hypergeometric_hurwitz_sweep((), core.GSpec(K=1, L=1), (), d=4,
                                             connected=True) == []
