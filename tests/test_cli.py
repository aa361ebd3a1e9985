import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from hurwitz import characters, cli, core, oracle, verify
from hurwitz.cli import (
    EXIT_OK,
    EXIT_SIZE_LIMIT,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from hurwitz.core import GSpec
from hurwitz.jack import b_hurwitz_sweep
from hurwitz.partitions import partition_tuple


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_completed_example(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "completed", "--d", "3",
                           "--s", "1", "--profiles", "3", "--r", "2")
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["results"][0]["value"] == "1/2"
        assert blob["results"][0]["g"] == 0
        assert blob["config"]["kind"] == "completed"

    def test_hypergeometric_parity_zero(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "hypergeometric", "--d", "2",
                           "--K", "1", "--r", "3", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "r,value"
        assert lines[2] == "3,0"

    def test_orbifold_indivisible(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "orbifold", "--d", "3",
                           "--t", "2", "--r", "1")
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["value"] == "0"

    def test_classical_range(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "classical", "--d", "2",
                           "--r-min", "0", "--r-max", "4")
        blob = json.loads(out)
        values = [row["value"] for row in blob["results"]]
        assert values == ["1/2", "0", "1/2", "0", "1/2"]

    def test_monomial_extraction(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "hypergeometric", "--d", "3",
                           "--M", "1", "--v-deg", "2", "--r", "2")
        blob = json.loads(out)
        assert blob["results"][0]["value"] == "1/2"

    def test_hciz_alias(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "hciz",
                           "--profiles", "2;1,1", "--r", "1")
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["results"][0]["kind"] == "hciz"
        assert blob["results"][0]["G"] == {"K": 1, "L": 0, "M": 0}

    def test_gw(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "gw", "--profiles", "1;1",
                           "--insertions", "2:1", "--r", "0")
        blob = json.loads(out)
        assert blob["results"][0]["value"] == "247/5760"
        assert blob["results"][0]["g"] == 1

    def test_b_content(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "b-content", "--d", "2",
                           "--K", "1", "--b", "1", "--r", "2")
        blob = json.loads(out)
        assert blob["results"][0]["value"] == "1/4"

    @pytest.mark.parametrize("b", [("--b", "-1/2"), ("--b=-1/2",), ("--b", "-0.5")],
                             ids=["space", "equals", "decimal"])
    def test_b_content_at_a_negative_b(self, capsys, b):
        code, out, _ = run(capsys, "compute", "--kind", "b-content", "--d", "3", "--K", "1",
                           *b, "--r-min", "0", "--r-max", "4", "--format", "csv")
        want = b_hurwitz_sweep(range(5), GSpec(K=1), (), Fraction(-1, 2), d=3, monomial=())
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["r,value"] + [f"{r},{v}" for r, v in want.items()]
        assert any(want.values())

    @pytest.mark.parametrize("blocks", [("--K", "1", "--L", "1", "--u-deg", "1"),
                                        ("--K", "1", "--M", "1", "--v-deg", "2"),
                                        ("--K", "2")], ids=["u", "v", "no-monomial"])
    def test_b_content_at_b_zero_is_hypergeometric(self, capsys, blocks):
        flags = ("--profiles", "2,1", *blocks, "--r-min", "0", "--r-max", "5")
        b_content = json.loads(run(capsys, "compute", "--kind", "b-content", *flags,
                                   "--b", "0")[1])["results"]
        hyper = json.loads(run(capsys, "compute", "--kind", "hypergeometric", *flags)[1])
        keys = ("r", "value", "g", "g_integral", "monomial")
        assert [[row.get(k) for k in keys] for row in b_content] == \
            [[row.get(k) for k in keys] for row in hyper["results"]]
        # rs = 2g - 2 - d(N - 2) + sum of profile lengths, with d=3 and N=1
        assert [row["g"] for row in b_content] == ["-3/2", -1, "-1/2", 0, "1/2", 1]

    def test_dhr_normalization(self, capsys):
        _, paper, _ = run(capsys, "compute", "--kind", "completed", "--d", "3",
                          "--profiles", "3", "--r", "2")
        paper_value = json.loads(paper)["results"][0]["value"]
        assert paper_value == "1/2"
        # compute and table --what hurwitz share one results path
        for command in (("compute",), ("table", "--what", "hurwitz")):
            _, dhr, _ = run(capsys, *command, "--kind", "completed", "--d", "3",
                            "--profiles", "3", "--r", "2", "--normalization", "dhr")
            blob = json.loads(dhr)["results"][0]
            assert blob["value_paper"] == "1/2"
            # times d! = 6 and the single profile part 3
            assert blob["value"] == "9"

    def test_three_profiles_exact(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "completed",
                           "--profiles", "3;3;2,1", "--r", "1", "--format", "csv")
        assert code == EXIT_OK
        assert out.strip().splitlines()[2] == "1,1/6"

    def test_connected_flag(self, capsys):
        _, out, _ = run(capsys, "compute", "--kind", "classical", "--d", "2",
                        "--r", "0", "--connected")
        assert json.loads(out)["results"][0]["value"] == "0"


class TestVerify:
    def test_gap_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "gap", "--d", "6", "--s", "1")
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["pass"] is True
        assert "(9, 15)" in blob["checks"][0]["detail"]
        assert "(10, 15)" in blob["checks"][0]["detail"]

    def test_gap_reads_its_degree_off_the_profiles(self, capsys):
        code, out, _ = run(capsys, "verify", "gap", "--s", "2", "--profiles", "2,1")
        blob = json.loads(out)
        assert code == EXIT_OK and blob["pass"] is True and blob["config"]["d"] == 3

    def test_gap_without_a_degree_or_profiles(self, capsys):
        code, out, err = run(capsys, "verify", "gap", "--s", "2")
        assert code == EXIT_USAGE and out == ""
        assert "degree d is required when no profiles are given" in err

    def test_oracle_small(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--max-d", "3",
                           "--max-transpositions", "4")
        assert code == EXIT_OK
        assert json.loads(out)["pass"] is True

    def test_ratio_pass_and_fail_exit(self, capsys):
        code, _, _ = run(capsys, "verify", "ratio", "--kind", "monotone", "--d", "3",
                         "--K", "1", "--r-max", "30")
        assert code == EXIT_OK
        code, out, _ = run(capsys, "verify", "ratio", "--kind", "monotone", "--d", "3",
                           "--K", "1", "--r-max", "6", "--tolerance", "1/1000000000")
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out)["pass"] is False

    def test_ratio_degree_from_profiles(self, capsys):
        code, out, _ = run(capsys, "verify", "ratio", "--kind", "completed",
                           "--profiles", "3,1", "--r-max", "10")
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["config"]["d"] == 4
        assert blob["checks"][0]["name"].startswith("completed ratio d=4 ")


class TestTable:
    def test_structure_top_row(self, capsys):
        code, out, _ = run(capsys, "table", "--what", "structure", "--d", "4",
                           "--s", "1", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[1] == "m,C"
        assert lines[2] == "6,1"

    def test_structure_yang_note(self, capsys):
        _, out, _ = run(capsys, "table", "--what", "structure", "--profiles", "2,1,1",
                        "--s", "1")
        blob = json.loads(out)
        note = blob["yang_connected_subleading"]
        assert note["m"] == "3" and note["C_connected"] == "-8"

    @pytest.mark.parametrize("d", range(3, 7))
    def test_structure_yang_note_is_the_connected_spectrum(self, capsys, d):
        # the table's normalization is d!^2 over the spectrum's D
        m = math.comb(d - 1, 2)
        for mu in partition_tuple(d):
            _, out, _ = run(capsys, "table", "--what", "structure", "--s", "1",
                            "--profiles", ",".join(map(str, mu)))
            note = json.loads(out)["yang_connected_subleading"]
            denominator, spectrum = core.connected_spectrum(1, (mu,), d)
            assert note["m"] == str(m)
            assert Fraction(note["C_connected"]) == \
                Fraction(spectrum.get(m, 0) * math.factorial(d) ** 2, denominator), mu

    @pytest.mark.parametrize("mu", ["1", "2", "1,1"])
    def test_structure_yang_note_starts_at_d_three(self, capsys, mu):
        code, out, _ = run(capsys, "table", "--what", "structure", "--s", "1",
                           "--profiles", mu)
        assert code == EXIT_OK and "yang_connected_subleading" not in json.loads(out)

    def test_ratio_csv_header(self, capsys):
        code, out, _ = run(capsys, "table", "--what", "ratio", "--kind", "classical",
                           "--d", "3", "--r-min", "0", "--r-max", "10",
                           "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[1] == "r,exact,asymptotic,ratio"
        assert code == EXIT_OK

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "table", "--what", "structure", "--d", "4",
                           "--s", "1", "--output", str(target))
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["rows"][0] == {"m": "6", "C": "1"}

    def test_hurwitz_table_defaults_to_compute_block_count(self, capsys):
        # --K defaults to 0 as in compute; the ratio tables keep one block
        argv = ("--kind", "hypergeometric", "--d", "3", "--r", "2", "--format", "csv")
        _, compute, _ = run(capsys, "compute", *argv)
        _, table, _ = run(capsys, "table", "--what", "hurwitz", *argv)
        assert compute.splitlines()[1:] == table.splitlines()[1:] == ["r,value", "2,0"]
        assert '"K": 0' in table.splitlines()[0]
        _, ratio, _ = run(capsys, "table", "--what", "ratio", "--kind", "monotone",
                          "--d", "3", "--r-max", "4", "--format", "csv")
        assert '"K": 1' in ratio.splitlines()[0]


class TestRatioAtTwoBlocks:
    """At K >= 2 the leading term r^{K-1}/(K-1)! ... vanishes at r = 0, so
    the monotone and b ratio reports start at r = 1."""

    KINDS = [("monotone",), ("b", "--b", "1/2")]

    @pytest.mark.parametrize("kind", KINDS, ids=["monotone", "b"])
    def test_verify_converges_like_one_over_r(self, capsys, kind):
        argv = ("verify", "ratio", "--kind", *kind, "--d", "4", "--K", "2")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_VERIFY_FAILED
        detail = json.loads(out)["checks"][0]["detail"]
        error, at = detail.removeprefix("final |ratio-1| = ").split(" at ")
        assert at == "r=40" and abs(float(error) - 0.1) < 0.001
        code, _, _ = run(capsys, *argv, "--tolerance", "1/5")
        assert code == EXIT_OK

    @pytest.mark.parametrize("kind", KINDS, ids=["monotone", "b"])
    def test_table_starts_at_r_one(self, capsys, kind):
        code, out, _ = run(capsys, "table", "--what", "ratio", "--kind", *kind, "--d", "4",
                           "--K", "2", "--r-min", "0", "--r-max", "5", "--format", "csv")
        assert code == EXIT_OK
        rows = [int(line.split(",")[0]) for line in out.splitlines()[2:]]
        assert rows and min(rows) >= 1

    @pytest.mark.parametrize("kind", KINDS, ids=["monotone", "b"])
    def test_a_range_below_the_first_r_names_it(self, capsys, kind):
        code, out, err = run(capsys, "table", "--what", "ratio", "--kind", *kind, "--d", "4",
                             "--K", "2", "--r-min", "0", "--r-max", "0")
        assert code == EXIT_USAGE and out == ""
        assert "vanishes below r=1" in err


class TestRatioAtDegreeOne:
    """The leading term pairs two distinct partitions, and d = 1 has one:
    a ratio request at d = 1 is refused, not reported as 1/2."""

    KINDS = {"classical": ("--d", "1"), "completed": ("--d", "1", "--s", "2"),
             "gw": ("--profiles", "1;1")}

    @pytest.mark.parametrize("command", [
        ("table", "--what", "ratio", "--r-min", "0", "--r-max", "4"), ("verify", "ratio")],
        ids=["table", "verify"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_refused_naming_d(self, capsys, command, kind):
        code, out, err = run(capsys, *command, "--kind", kind, *self.KINDS[kind])
        assert code == EXIT_USAGE and out == ""
        assert "needs d >= 2, got d=1" in err


class TestRatioBytes:
    """The ratio outputs are pinned byte for byte (md5 of stdout)."""

    PINS = [
        ("9f1628be", "table --what ratio --kind classical --d 12 --r-min 0 --r-max 40"),
        ("1512f25d", "table --what ratio --kind completed --d 10 --s 2 --r-min 0 --r-max 40"),
        ("fecbb87f", "table --what ratio --kind monotone --d 6 --K 1 --u-deg 1 --v-deg 1 "
                     "--r-min 0 --r-max 40"),
        ("7a62895a", "table --what ratio --kind monotone --d 5 --K 3 --r-min 1 --r-max 40"),
        ("c7f620ae", "table --what ratio --kind b --d 5 --b 1/2 --K 1 --r-min 0 --r-max 40"),
        ("57ae2467", "table --what ratio --kind b --d 4 --b=-1/2 --K 1 --r-min 0 --r-max 40"),
        # |b+1| = 1: both poles; b+1 < 0: the column regime, then the row regime
        ("520b54ce", "table --what ratio --kind b --d 4 --b 0 --K 2 --r-min 0 --r-max 40"),
        ("cd574c4c", "table --what ratio --kind b --d 2 --b=-3/2 --K 1 --r-min 0 --r-max 40"),
        ("fda897a9", "table --what ratio --kind b --d 2 --b=-3 --K 1 --r-min 0 --r-max 40"),
        ("b7b6df00", "table --what ratio --kind gw --profiles 3,2,1;2,2,2 --gw-s 2 "
                     "--r-min 0 --r-max 40"),
        ("ffcac478", "verify ratio --kind monotone --d 4 --K 1"),
    ]

    def test_md5_of_each_output(self, capsys):
        got = []
        for _, request in self.PINS:
            code, out, _ = run(capsys, *request.split(), "--format", "csv")
            got.append((code, hashlib.md5(out.encode()).hexdigest()[:8]))
        assert got == [(EXIT_OK, pin) for pin, _ in self.PINS]


class TestJsonBytes:
    """One JSON output of each command is pinned byte for byte, its
    ``config`` object included (md5 of stdout)."""

    PINS = [
        ("8ac21475", "compute --kind hypergeometric --profiles 3,1;2,2 --K 1 --L 1 --M 1 --r 4"),
        ("8f4c8f65", "table --what ratio --kind monotone --d 5 --K 1 --r-min 0 --r-max 12"),
        ("4deb615e", "table --what structure --d 6 --profiles 2,2,1,1"),
        ("18af5172", "verify gap --d 5 --profiles 3,2"),
        ("e4d1f725", "chartable --d 5 --format json"),
    ]

    def test_md5_of_each_output(self, capsys):
        got = []
        for _, request in self.PINS:
            code, out, _ = run(capsys, *request.split())
            got.append((code, hashlib.md5(out.encode()).hexdigest()[:8]))
        assert got == [(EXIT_OK, pin) for pin, _ in self.PINS]


class TestCharTableCommand:
    def test_csv_dump(self, capsys):
        code, out, _ = run(capsys, "chartable", "--d", "3")
        lines = out.strip().splitlines()
        assert lines[1] == "lambda\\mu,3,2+1,1+1+1"
        assert lines[3] == "2+1,-1,0,2"

    def test_ceiling_exit(self, capsys):
        code, _, err = run(capsys, "chartable", "--d", "25")
        assert code == EXIT_SIZE_LIMIT
        assert "ceiling" in err

    def test_json_dump_builds_no_csv_rows(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("csv rows built for a JSON dump")

        monkeypatch.setattr(characters.CharTable, "csv_rows", refuse)
        code, out, _ = run(capsys, "chartable", "--d", "3", "--format", "json")
        blob = json.loads(out)
        assert code == EXIT_OK and blob["config"] == {"command": "chartable", "d": 3}
        assert blob["partitions"] == [[3], [2, 1], [1, 1, 1]]
        assert blob["entries"] == [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]


    @pytest.mark.parametrize("d", range(9))
    def test_json_dump_is_one_indented_dump(self, capsys, d):
        code, out, _ = run(capsys, "chartable", "--d", str(d), "--format", "json")
        table = characters.char_table(d)
        payload = {"config": {"command": "chartable", "d": d},
                   "partitions": table.partitions, "entries": table.entries}
        assert code == EXIT_OK and out == json.dumps(payload, indent=2) + "\n"

    def test_full_dump_memory_stays_near_the_table_size(self, capsys, monkeypatch):
        # 231 x 231 entries: the build and the CSV dump stay under 3 MiB
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)
        tracemalloc.start()
        try:
            code = main(["chartable", "--d", "16"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK and len(out) == 233
        assert peak < 3 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


class TestJsonWriter:
    @pytest.mark.parametrize("payload", [
        {"config": {"command": "x", "d": 3}, "rows": [[1, -2], [], [3]], "empty": []},
        {"table": ((1, 2), (3,)), "mixed": [[1, True]], "floats": [[1.5]], "nested": [[[1]]]},
        {"text": "a\nb\u00e9", "records": [{"k": [0]}, {}], "none": None, "tuple": (1, 2)},
        {"keys": {1: "an int key"}}, {1: [[2]]}, {},
        {"floats": [float("nan"), float("inf"), -float("inf")], "nan": float("nan"),
         "rows": [[1], [float("inf")]]},
        {"keys": {None: [1], True: {"a": 2}, False: "x"}}, {None: [[1]], True: "top"},
    ])
    def test_equals_json_dumps(self, payload):
        assert "".join(cli._json_chunks(payload)) == json.dumps(payload, indent=2)


USAGE = "usage: hurwitz [-h] {compute,verify,table,chartable} ...\n"


class TestFrontDoor:
    """A request that names its subcommand is parsed once, by that
    subcommand's parser; the top-level parser keeps help, unknown
    commands, an empty argv and leftover arguments."""

    @pytest.mark.parametrize("argv, usage", [(("--help",), "usage: hurwitz [-h]"),
                                             (("compute", "--help"), "usage: hurwitz compute")],
                             ids=["top", "compute"])
    def test_help_exits_zero(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0 and capsys.readouterr().out.startswith(usage)

    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: command"),
        (("nosuchcommand",), "argument command: invalid choice: 'nosuchcommand'"),
    ], ids=["empty", "unknown"])
    def test_no_command_exits_3(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(USAGE + "error: " + message)

    def test_unknown_flag_after_a_request_exits_3_under_the_top_usage(self, capsys):
        code, out, err = run(capsys, "compute", "--kind", "classical", "--d", "2", "--r", "2",
                             "--nope", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == USAGE + "error: unrecognized arguments: --nope 1\n"

    def test_a_negative_rational_is_a_value(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "b-content", "--d", "3", "--K", "1",
                           "--b", "-1/2", "--r", "2")
        assert code == EXIT_OK and json.loads(out)["config"]["b"] == "-1/2"

    def test_a_request_skips_the_top_level_parse(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser classified a request")

        monkeypatch.setattr(cli.build_parser(), "parse_known_args", refuse)
        code, out, _ = run(capsys, "compute", "--kind", "classical", "--d", "3", "--r", "2")
        assert code == EXIT_OK and json.loads(out)["config"]["command"] == "compute"

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["hurwitz", "compute", "--kind", "classical",
                                          "--d", "3", "--r", "2", "--format", "csv"])
        code = main()
        assert code == EXIT_OK and capsys.readouterr().out.splitlines()[-1] == "2,1/2"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "compute", "--kind", "nonsense")[0] == EXIT_USAGE

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "compute", "--kind", "completed", "--r", "2")
        assert code == EXIT_USAGE
        assert "required" in err or "degree" in err

    def test_missing_r(self, capsys):
        code, _, _ = run(capsys, "compute", "--kind", "classical", "--d", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        (("verify", "ratio", "--kind", "bogus", "--d", "3"), "unknown ratio kind"),
        (("table", "--what", "ratio", "--kind", "bogus", "--d", "3", "--r", "2"),
         "unknown ratio kind"),
        (("verify", "ratio", "--kind", "gw", "--d", "3", "--profiles", "3"),
         "two profiles"),
        (("compute", "--kind", "b-content", "--d", "0", "--K", "1", "--r", "0"),
         "degree must be positive"),
        (("compute", "--kind", "b-content", "--d", "2", "--K", "1", "--r", "2",
          "--connected"), "no connected version"),
        (("compute", "--kind", "classical", "--d", "3", "--profiles", "3", "--r", "2"),
         "takes no profiles"),
        (("compute", "--kind", "orbifold", "--d", "7", "--profiles", "2,1", "--t", "3",
          "--r", "1"), "contradicts profiles"),
        (("compute", "--kind", "gw", "--d", "5", "--profiles", "1;1", "--insertions",
          "2:1", "--r", "0"), "contradicts profiles"),
        (("compute", "--kind", "orbifold", "--d", "-2", "--t", "1", "--r", "0"),
         "degree must be positive: -2"),
        (("compute", "--kind", "orbifold", "--d", "0", "--t", "1", "--r", "0"),
         "degree must be positive: 0"),
        (("compute", "--kind", "classical", "--d", "4", "--r", "2", "--r-max", "10"),
         "give --r or --r-min/--r-max, not both"),
        (("table", "--what", "ratio", "--kind", "classical", "--d", "4", "--r", "6",
          "--r-min", "2", "--r-max", "10"), "give --r or --r-min/--r-max, not both"),
    ], ids=["verify-ratio-unknown-kind", "table-ratio-unknown-kind",
            "verify-ratio-gw-one-profile", "b-content-degree-zero",
            "b-content-connected", "classical-profiles", "orbifold-contradicting-d",
            "gw-contradicting-d", "orbifold-negative-degree", "orbifold-degree-zero",
            "compute-r-with-r-max", "table-ratio-r-with-range"])
    def test_rejected_request(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert message in err

    @pytest.mark.parametrize("orders", [("--r", "5"), ("--r-min", "0", "--r-max", "2"),
                                        ("--r-min", "1")], ids=["r5", "r0-2", "r1"])
    @pytest.mark.parametrize("command", [("compute",), ("table", "--what", "hurwitz")])
    def test_gw_takes_only_r_zero(self, capsys, command, orders):
        argv = (*command, "--kind", "gw", "--profiles", "1;1", "--insertions", "2:1",
                "--format", "csv")
        code, out, err = run(capsys, *argv, *orders)
        assert code == EXIT_USAGE and "--r" in err and out == ""
        code, out, _ = run(capsys, *argv, "--r", "0")
        assert code == EXIT_OK and out.splitlines()[1:] == ["r,value", ",247/5760"]


MONOTONE = ("--kind", "hypergeometric", "--d", "3", "--r", "2", "--K", "1")


class TestBadFlagValues:
    """A malformed flag value is a usage error naming the flag, not a traceback."""

    @pytest.mark.parametrize("argv, flag", [
        (("compute", *MONOTONE, "--L", "1", "--u-deg", "x"), "--u-deg"),
        (("compute", *MONOTONE, "--M", "2", "--v-deg", "1,x"), "--v-deg"),
        (("compute", *MONOTONE, "--M", "1", "--v-deg", "-1"), "--v-deg"),
        (("table", "--what", "ratio", "--kind", "monotone", "--d", "3", "--r-max", "4",
          "--u-deg", "x"), "--u-deg"),
        (("table", "--what", "ratio", "--kind", "monotone", "--d", "3", "--r-max", "4",
          "--v-deg", "-1"), "--v-deg"),
        (("verify", "ratio", "--kind", "monotone", "--d", "3", "--v-deg", "1,x"),
         "--v-deg"),
    ], ids=["compute-u-deg", "compute-v-deg-list", "compute-v-deg-negative",
            "table-ratio-u-deg", "table-ratio-v-deg-negative", "verify-ratio-v-deg"])
    def test_bad_degrees(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and flag in err and out == ""

    @pytest.mark.parametrize("argv, flag", [
        (("compute", "--kind", "b-content", "--d", "2", "--b", "1/0", "--r", "1"), "--b"),
        (("verify", "ratio", "--kind", "classical", "--d", "3", "--tolerance", "1/0"),
         "--tolerance"),
        (("table", "--what", "ratio", "--kind", "b", "--d", "3", "--b", "1/0", "--r-max", "4"),
         "--b"),
        (("compute", "--kind", "b-content", "--d", "2", "--b", "x", "--r", "1"), "--b"),
    ], ids=["compute-b-zero-denominator", "verify-ratio-tolerance-zero-denominator",
            "table-ratio-b-zero-denominator", "compute-b-not-a-number"])
    def test_bad_rationals(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and flag in err and out == ""

    @pytest.mark.parametrize("argv, flag", [
        (("verify", "oracle", "--max-d", "2", "--max-transpositions", "-1"),
         "--max-transpositions"),
        (("verify", "ratio", "--kind", "classical", "--d", "4", "--r-max", "-1"), "--r-max"),
        (("verify", "ratio", "--kind", "classical", "--d", "4", "--tolerance", "-1"),
         "--tolerance"),
        (("compute", "--kind", "gw", "--profiles", "2;2", "--insertions", "2:1,2:2",
          "--r", "0"), "--insertions"),
        (("compute", "--kind", "completed", "--d", "3", "--s", "-1", "--r", "1"), "--s"),
        (("verify", "ratio", "--kind", "completed", "--d", "3", "--s", "-1"), "--s"),
        (("compute", "--kind", "orbifold", "--d", "4", "--t", "-3", "--r", "1"), "--t"),
        (("compute", "--kind", "gw", "--profiles", "2;2", "--insertions", "2:-1",
          "--r", "0"), "--insertions"),
        (("compute", "--kind", "gw", "--profiles", "2;2", "--insertions", "2-1",
          "--r", "0"), "--insertions"),
        (("table", "--what", "ratio", "--kind", "classical", "--d", "3", "--r-max", "-1"),
         "--r-max"),
        (("table", "--what", "ratio", "--kind", "classical", "--d", "3", "--r-min", "-2",
          "--r-max", "3"), "--r-min"),
        (("compute", "--kind", "classical", "--d", "3", "--r", "-1"), "--r"),
        (("verify", "ratio", "--kind", "gw", "--profiles", "2;2", "--gw-s", "0"), "--gw-s"),
    ], ids=["verify-oracle-negative-transpositions", "verify-ratio-negative-r-max",
            "verify-ratio-negative-tolerance", "compute-gw-repeated-insertion-order",
            "compute-completed-negative-s", "verify-ratio-negative-s",
            "compute-orbifold-negative-t", "compute-gw-negative-insertion-count",
            "compute-gw-unparsable-insertion", "table-ratio-negative-r-max",
            "table-ratio-negative-r-min", "compute-negative-r", "verify-ratio-zero-gw-s"])
    def test_out_of_range_values(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and flag in err and out == ""

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["no-dir", "a-dir"])
    @pytest.mark.parametrize("command", [
        ("compute", "--kind", "classical", "--d", "3", "--r", "2"),
        ("verify", "gap", "--d", "3"),
    ], ids=["compute", "verify"])
    def test_unwritable_output(self, capsys, tmp_path, command, target):
        code, out, err = run(capsys, *command, "--output", str(tmp_path / target))
        assert code == EXIT_USAGE and "--output" in err and out == ""


class TestZeroFlags:
    """A zero --max-d or --r-max is a value, not a missing flag."""

    @pytest.mark.parametrize("argv", [("chartable", "--d", "3")], ids=["chartable"])
    def test_max_d_zero_is_a_ceiling(self, capsys, monkeypatch, argv):
        # a table filled earlier in the process costs nothing and is returned
        # whatever the ceiling, so start as a fresh process does
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)
        code, _, err = run(capsys, *argv, "--max-d", "0")
        assert code == EXIT_SIZE_LIMIT and "ceiling 0" in err

    def test_r_max_zero_checks_r_zero_only(self, capsys):
        code, out, _ = run(capsys, "verify", "ratio", "--kind", "classical", "--d", "4",
                           "--r-max", "0")
        blob = json.loads(out)
        assert blob["config"]["r_max"] == 0
        assert blob["checks"][0]["detail"].endswith("at r=0")
        assert code == (EXIT_OK if blob["pass"] else EXIT_VERIFY_FAILED)

    @pytest.mark.parametrize("suite", ["oracle", "characters", "stirling", "jack",
                                       "poles", "eigenvalue-order"])
    @pytest.mark.parametrize("max_d", ["0", "-1"])
    def test_verify_max_d_below_one(self, capsys, suite, max_d):
        code, _, err = run(capsys, "verify", suite, "--max-d", max_d)
        assert code == EXIT_USAGE and "--max-d" in err

    @pytest.mark.parametrize("suite", ["stirling", "poles", "eigenvalue-order"])
    def test_verify_sweep_from_two_needs_max_d_two(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--max-d", "1", "--format", "csv")
        assert code == EXIT_USAGE and "--max-d" in err and out == ""


class TestCeilingOverride:
    """The partition ceiling (40) bounds every request; the table ceiling
    (18) bounds only a full table, and ``chartable --max-d`` lowers or
    raises it.  Each test starts from an empty memo and no disk cache, as
    a fresh process does."""

    @pytest.fixture(autouse=True)
    def fresh_tables(self, monkeypatch):
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)

    def test_compute_ceiling_exit(self, capsys):
        code, out, err = run(capsys, "compute", "--kind", "classical", "--d", "41",
                             "--r", "0")
        assert code == EXIT_SIZE_LIMIT and "partition ceiling 40" in err and out == ""

    def test_max_d_lowers_ceiling(self, capsys):
        code, out, err = run(capsys, "chartable", "--d", "10", "--max-d", "9")
        assert code == EXIT_SIZE_LIMIT and "ceiling 9" in err and out == ""
        code, out, _ = run(capsys, "chartable", "--d", "10", "--max-d", "10")
        assert code == EXIT_OK and len(out.splitlines()) == 2 + 42

    def test_max_d_builds_degree_nineteen(self, capsys):
        # a sum creates the degree-19 handle and fixes no ceiling on it
        code, out, _ = run(capsys, "compute", "--kind", "classical", "--d", "19", "--r", "0")
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["value"] == "1/121645100408832000"
        code, out, err = run(capsys, "chartable", "--d", "19")
        assert code == EXIT_SIZE_LIMIT and "ceiling 18" in err and out == ""
        code, out, _ = run(capsys, "chartable", "--d", "19", "--max-d", "19")
        assert code == EXIT_OK and len(out.splitlines()) == 2 + 490

    def test_max_d_raises_ceiling(self, capsys, monkeypatch):
        # a lowered default stands in for 18, so no large table is built
        monkeypatch.setattr(characters, "DEFAULT_TABLE_CEILING", 5)
        code, out, err = run(capsys, "chartable", "--d", "6")
        assert code == EXIT_SIZE_LIMIT and "ceiling 5" in err and out == ""
        code, out, _ = run(capsys, "chartable", "--d", "6", "--max-d", "6")
        sign = [str((-1) ** (6 - len(mu))) for mu in characters.char_table(6).partitions]
        assert code == EXIT_OK and out.splitlines()[-1] == ",".join(["1+1+1+1+1+1", *sign])

    def test_verify_characters_stops_before_the_sweep(self, capsys):
        code, out, err = run(capsys, "verify", "characters", "--max-d", "19")
        assert code == EXIT_SIZE_LIMIT and "ceiling 18" in err and out == ""
        assert set(characters._tables) == {19}  # no table below d=19 was created

    def test_verify_characters_reads_a_cached_top_table(self, capsys, monkeypatch, tmp_path):
        # a lowered default stands in for 18, and d=6 for a cached d=19
        monkeypatch.setenv(characters.CACHE_DIR_ENV, str(tmp_path))
        characters.char_table(6).fill()
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.setattr(characters, "DEFAULT_TABLE_CEILING", 5)
        code, out, _ = run(capsys, "verify", "characters", "--max-d", "6")
        assert code == EXIT_OK and json.loads(out)["pass"]

    @pytest.mark.parametrize("argv", [
        ("compute", "--kind", "classical", "--d", "3", "--r", "2"),
        ("table", "--what", "hurwitz", "--kind", "classical", "--d", "3", "--r", "2"),
    ], ids=["compute", "hurwitz-table"])
    @pytest.mark.parametrize("max_d", ["0", "5"])
    def test_compute_has_no_max_d(self, capsys, argv, max_d):
        code, out, err = run(capsys, *argv, "--max-d", max_d)
        assert code == EXIT_USAGE and out == "" and "unrecognized arguments: --max-d" in err


class TestSumsAboveTheTableCeiling:
    """A character sum reads dimensions and columns, never the full table,
    so only the partition ceiling of 40 bounds it."""

    @pytest.mark.parametrize("argv", [
        ("compute", "--kind", "classical", "--d", "20", "--r", "20", "--connected"),
        ("table", "--what", "structure", "--d", "19", "--s", "1", "--format", "csv"),
        ("table", "--what", "ratio", "--kind", "monotone", "--d", "19", "--K", "1",
         "--r-max", "6", "--format", "csv"),
    ], ids=["connected-classical-20", "structure-19", "monotone-ratio-19"])
    def test_exits_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and out

    def test_classical_r_zero_is_one_over_d_factorial(self, capsys):
        # sum over lam of (dim/d!)^2 is 1/d!
        code, out, _ = run(capsys, "compute", "--kind", "classical", "--d", "40", "--r", "0")
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["value"] == f"1/{math.factorial(40)}"

    def test_verify_gap_at_degree_twenty(self, capsys):
        # its resummation identity checks the structure coefficients
        # against the direct character sum
        code, out, _ = run(capsys, "verify", "gap", "--d", "20", "--s", "1")
        blob = json.loads(out)
        assert code == EXIT_OK and blob["pass"] and len(blob["checks"]) == 3


class TestCharacterSumsReadColumns:
    """Completed sums and structure tables read dimensions and profile
    columns only: no full table, and no disk cache, at any degree."""

    @pytest.fixture(autouse=True)
    def cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(characters.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(characters, "_tables", {})

        def refuse(*args):
            raise AssertionError("the disk cache was touched")

        monkeypatch.setattr(characters, "_load_cached", refuse)
        monkeypatch.setattr(characters, "_store_cached", refuse)
        yield tmp_path
        assert list(tmp_path.iterdir()) == []

    def test_no_full_table_at_degree_eighteen(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "completed", "--profiles",
                           "6,6,6;3,3,3,3,3,3", "--r", "2")
        assert code == EXIT_OK and json.loads(out)["results"][0]["d"] == 18
        code, out, _ = run(capsys, "table", "--what", "structure", "--d", "18",
                           "--s", "1", "--format", "csv")
        assert code == EXIT_OK and out.splitlines()[1] == "m,C"
        assert characters._tables[18]._entries is None

    def test_no_full_table_above_the_table_ceiling(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "completed", "--profiles",
                           "3,3,3,3,3,3,1;2,2,2,2,2,2,2,2,2,1", "--r", "2")
        assert code == EXIT_OK and json.loads(out)["results"][0]["d"] == 19
        code, out, _ = run(capsys, "compute", "--kind", "classical", "--d", "19",
                           "--r", "4", "--connected")
        assert code == EXIT_OK
        assert characters._tables[19]._entries is None


class TestVerifySuitesSmoke:
    def test_characters_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "characters", "--max-d", "4")
        assert code == EXIT_OK and json.loads(out)["pass"]

    def test_stirling_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "stirling", "--max-d", "3")
        assert code == EXIT_OK and json.loads(out)["pass"]

    def test_jack_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "jack", "--max-d", "3")
        assert code == EXIT_OK and json.loads(out)["pass"]

    def test_poles_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "poles", "--max-d", "4")
        assert code == EXIT_OK and json.loads(out)["pass"]

    def test_hurwitz_table(self, capsys):
        code, out, _ = run(capsys, "table", "--what", "hurwitz", "--kind",
                           "classical", "--d", "2", "--r-min", "0", "--r-max", "2",
                           "--format", "csv")
        lines = out.strip().splitlines()
        assert code == EXIT_OK and lines[1] == "r,value"
        assert lines[2] == "0,1/2" and lines[3] == "1,0"


class TestOutputCheckedFirst:
    """A bad --output exits 3 before any work, and the file is written
    only once the result exists."""

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["no-dir", "a-dir"])
    def test_suite_never_runs(self, capsys, monkeypatch, tmp_path, target):
        def refuse(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(verify, "verify_gap", refuse)
        code, out, err = run(capsys, "verify", "gap", "--d", "3",
                             "--output", str(tmp_path / target))
        assert code == EXIT_USAGE and "--output" in err and out == ""

    def test_failed_request_leaves_the_file_alone(self, capsys, tmp_path):
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("kept\n")
        for target in (new, old):
            code, _, _ = run(capsys, "compute", "--kind", "classical", "--r", "2",
                             "--output", str(target))
            assert code == EXIT_USAGE  # no --d
        assert not new.exists() and old.read_text() == "kept\n"


RATIO_TABLE = ("table", "--what", "ratio", "--kind", "classical", "--d", "4", "--r-max", "8",
               "--format", "csv")
STRUCTURE_TABLE = ("table", "--what", "structure", "--d", "4", "--format", "csv")


class TestUnreadTableFlags:
    """Ratio and structure tables exit 3 on a flag they would ignore."""

    @pytest.mark.parametrize("table", [RATIO_TABLE, STRUCTURE_TABLE],
                             ids=["ratio", "structure"])
    @pytest.mark.parametrize("extra", [
        ("--connected",), ("--normalization", "dhr"), ("--L", "2"), ("--M", "1"),
        ("--insertions", "2:1"), ("--t", "3"),
    ], ids=["connected", "dhr", "L", "M", "insertions", "t"])
    def test_exits_naming_the_flag(self, capsys, table, extra):
        code, out, err = run(capsys, *table, *extra)
        assert code == EXIT_USAGE and extra[0] in err and out == ""

    @pytest.mark.parametrize("table", [RATIO_TABLE, STRUCTURE_TABLE],
                             ids=["ratio", "structure"])
    def test_default_values_are_accepted(self, capsys, table):
        _, plain, _ = run(capsys, *table)
        code, out, _ = run(capsys, *table, "--normalization", "paper", "--L", "0",
                           "--M", "0", "--t", "1")
        assert code == EXIT_OK and out == plain


class TestFlagsOnlySomeTablesRead:
    """Structure tables read no order, kind or block flag, and each ratio
    kind reads only its own family's flags; any other exits 3."""

    @pytest.mark.parametrize("extra", [
        ("--K", "3"), ("--K", "1"), ("--r", "5"), ("--r-min", "1"), ("--r-max", "3"),
        ("--kind", "monotone"), ("--u-deg", "1"), ("--v-deg", "1"), ("--b", "2"),
        ("--gw-s", "3"),
    ], ids=["K", "K-ratio-default", "r", "r-min", "r-max", "kind", "u-deg", "v-deg", "b",
            "gw-s"])
    def test_structure_exits_naming_the_flag(self, capsys, extra):
        code, out, err = run(capsys, *STRUCTURE_TABLE, *extra)
        assert code == EXIT_USAGE and extra[0] in err and out == ""

    @pytest.mark.parametrize("extra", [
        ("--K", "3"), ("--u-deg", "1"), ("--v-deg", "1"), ("--b", "2"), ("--gw-s", "3"),
    ], ids=["K", "u-deg", "v-deg", "b", "gw-s"])
    def test_classical_ratio_exits_naming_the_flag(self, capsys, extra):
        code, out, err = run(capsys, *RATIO_TABLE, *extra)
        assert code == EXIT_USAGE and extra[0] in err and out == ""
        assert "--kind classical" in err

    @pytest.mark.parametrize("argv, flag", [
        (("--kind", "completed", "--d", "4", "--K", "2"), "--K"),
        (("--kind", "monotone", "--d", "3", "--K", "2", "--s", "2"), "--s"),
        (("--kind", "b", "--d", "3", "--b", "1/2", "--gw-s", "3"), "--gw-s"),
        (("--kind", "gw", "--profiles", "2,1;3", "--u-deg", "1"), "--u-deg"),
    ], ids=["completed-K", "monotone-s", "b-gw-s", "gw-u-deg"])
    def test_other_ratio_kinds_exit_naming_the_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, "table", "--what", "ratio", *argv, "--r-max", "4")
        assert code == EXIT_USAGE and flag in err and out == ""

    @pytest.mark.parametrize("argv", [
        ("--kind", "classical", "--d", "4", "--s", "2"),
        ("--kind", "monotone", "--d", "3", "--K", "2", "--u-deg", "1"),
        ("--kind", "b", "--d", "5", "--K", "1", "--b", "1/2"),
        ("--kind", "gw", "--profiles", "2,1;3", "--gw-s", "3"),
    ], ids=["classical-s", "monotone", "b", "gw"])
    def test_ratio_kinds_accept_their_own_flags(self, capsys, argv):
        code, out, _ = run(capsys, "table", "--what", "ratio", *argv, "--r-max", "4")
        assert code == EXIT_OK and out

    def test_structure_accepts_the_default_values(self, capsys):
        _, plain, _ = run(capsys, *STRUCTURE_TABLE)
        code, out, _ = run(capsys, *STRUCTURE_TABLE, "--kind", "classical", "--b", "0",
                           "--gw-s", "2")
        assert code == EXIT_OK and out == plain


class TestVerifyRatioReadsOnlyItsKindsFlags:
    """``verify ratio`` exits 3 on a flag its kind does not read, as the
    ratio tables do, comparing with the verify parser's defaults."""

    CLASSICAL = ("verify", "ratio", "--kind", "classical", "--d", "4", "--r-max", "20",
                 "--format", "csv")

    @pytest.mark.parametrize("extra", [
        ("--K", "3"), ("--u-deg", "1"), ("--v-deg", "1"), ("--b", "2"), ("--gw-s", "3"),
    ], ids=["K", "u-deg", "v-deg", "b", "gw-s"])
    def test_classical_exits_naming_the_flag(self, capsys, extra):
        code, out, err = run(capsys, *self.CLASSICAL, *extra)
        assert code == EXIT_USAGE and out == ""
        assert f"{extra[0]} has no effect on verify ratio --kind classical" in err

    @pytest.mark.parametrize("argv, flag", [
        (("--kind", "completed", "--d", "4", "--K", "2"), "--K"),
        (("--kind", "monotone", "--d", "3", "--K", "2", "--s", "2"), "--s"),
        (("--kind", "b", "--d", "3", "--b", "1/2", "--gw-s", "3"), "--gw-s"),
        (("--kind", "gw", "--profiles", "2,1;3", "--u-deg", "1"), "--u-deg"),
    ], ids=["completed-K", "monotone-s", "b-gw-s", "gw-u-deg"])
    def test_other_kinds_exit_naming_the_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", "ratio", *argv, "--r-max", "4")
        assert code == EXIT_USAGE and flag in err and out == ""

    def test_verify_defaults_are_accepted(self, capsys):
        _, plain, _ = run(capsys, *self.CLASSICAL)
        code, out, _ = run(capsys, *self.CLASSICAL, "--K", "1", "--b", "0", "--gw-s", "2")
        assert code == EXIT_OK and out == plain

    @pytest.mark.parametrize("argv", [
        ("--kind", "classical", "--d", "4", "--s", "2"),
        ("--kind", "monotone", "--d", "3", "--K", "2", "--u-deg", "1"),
        ("--kind", "b", "--d", "5", "--K", "1", "--b", "1/2"),
        ("--kind", "gw", "--profiles", "2,1;3", "--gw-s", "3"),
    ], ids=["classical-s", "monotone", "b", "gw"])
    def test_kinds_accept_their_own_flags(self, capsys, argv):
        code, out, _ = run(capsys, "verify", "ratio", *argv, "--r-max", "4")
        assert code in (EXIT_OK, EXIT_VERIFY_FAILED) and json.loads(out)["checks"]


class TestVerifySuitesReadOnlyTheirFlags:
    """Each verify suite exits 3 on a flag it does not read, before any work."""

    @pytest.mark.parametrize("argv, flag", [
        (("oracle", "--max-d", "2", "--d", "7"), "--d"),
        (("oracle", "--max-d", "2", "--kind", "gw"), "--kind"),
        (("characters", "--max-d", "2", "--s", "2"), "--s"),
        (("stirling", "--max-d", "2", "--max-transpositions", "3"), "--max-transpositions"),
        (("jack", "--max-d", "2", "--profiles", "2,1"), "--profiles"),
        (("poles", "--max-d", "2", "--K", "2"), "--K"),
        (("eigenvalue-order", "--max-d", "3", "--tolerance", "1/2"), "--tolerance"),
        (("gap", "--d", "4", "--max-d", "3"), "--max-d"),
        (("gap", "--d", "4", "--r-max", "5"), "--r-max"),
        (("ratio", "--kind", "classical", "--d", "4", "--max-transpositions", "3"),
         "--max-transpositions"),
        (("ratio", "--kind", "classical", "--d", "4", "--max-d", "3"), "--max-d"),
    ], ids=["oracle-d", "oracle-kind", "characters-s", "stirling-max-transpositions",
            "jack-profiles", "poles-K", "eigenvalue-order-tolerance", "gap-max-d",
            "gap-r-max", "ratio-max-transpositions", "ratio-max-d"])
    def test_exits_naming_the_flag(self, capsys, monkeypatch, argv, flag):
        monkeypatch.setattr(verify, "verify_" + argv[0].replace("-", "_"), None)
        code, out, err = run(capsys, "verify", *argv, "--format", "csv")
        assert code == EXIT_USAGE and out == ""
        assert f"{flag} has no effect on verify {argv[0]}" in err

    def test_default_values_are_accepted(self, capsys):
        argv = ("verify", "oracle", "--max-d", "2", "--format", "csv")
        _, plain, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--kind", "classical", "--s", "1", "--K", "1")
        assert code == EXIT_OK and out == plain


class TestRationalFlagsAtTheirDefault:
    """An unread --b or --tolerance is compared with its default as a
    rational, and the config echo keeps the string as given."""

    @pytest.mark.parametrize("argv, flag, value", [
        (("compute", "--kind", "classical", "--d", "3", "--r", "2"), "--b", "0.0"),
        (("verify", "characters", "--max-d", "2"), "--b", "0/1"),
        (("table", "--what", "ratio", "--kind", "classical", "--d", "3", "--r-min", "0",
          "--r-max", "2"), "--b", "-0"),
        (("verify", "oracle", "--max-d", "2"), "--tolerance", "0.001"),
    ], ids=["compute-b", "verify-characters-b", "table-ratio-b", "verify-oracle-tolerance"])
    def test_default_written_another_way_is_accepted(self, capsys, argv, flag, value):
        code, out, err = run(capsys, *argv, flag, value, "--format", "csv")
        _, plain, _ = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[1:] == plain.splitlines()[1:]
        config = json.loads(out.splitlines()[0].removeprefix("# config: "))
        assert config.get(flag[2:], value) == value

    @pytest.mark.parametrize("flag", ["--b", "--tolerance"])
    def test_malformed_value_still_exits(self, capsys, flag):
        code, out, err = run(capsys, "verify", "oracle", "--max-d", "2", flag, "1/0")
        assert code == EXIT_USAGE and out == "" and f"{flag} wants a rational" in err


class TestVerifySuiteDefaults:
    """Without --max-d a suite sweeps to the default in its own signature."""

    @pytest.mark.parametrize("suite", ["oracle", "characters", "stirling", "jack",
                                       "poles", "eigenvalue-order"])
    def test_max_d_passed_only_when_given(self, capsys, monkeypatch, suite):
        calls = []

        def fake(**kwargs):
            calls.append(kwargs)
            return {"pass": True, "checks": []}

        monkeypatch.setattr(verify, "verify_" + suite.replace("-", "_"), fake)
        assert run(capsys, "verify", suite)[0] == EXIT_OK
        assert run(capsys, "verify", suite, "--max-d", "3")[0] == EXIT_OK
        assert [call.get("max_d") for call in calls] == [None, 3]

    def test_poles_default_is_the_cli_sweep(self):
        assert inspect.signature(verify.verify_poles).parameters["max_d"].default == 6

    def test_ratio_r_max_passed_only_when_given(self, capsys, monkeypatch):
        calls = []

        def fake(kind, **kwargs):
            calls.append(kwargs)
            return {"pass": True, "checks": []}

        monkeypatch.setattr(verify, "verify_ratio", fake)
        assert run(capsys, "verify", "ratio", "--d", "4")[0] == EXIT_OK
        assert run(capsys, "verify", "ratio", "--d", "4", "--r-max", "5")[0] == EXIT_OK
        assert [call.get("r_max") for call in calls] == [None, 5]

    def test_ratio_default_is_forty(self):
        assert inspect.signature(verify.verify_ratio).parameters["r_max"].default == 40


# One request of each compute kind, and the flags with a default that it does not read.
COMPUTE_KINDS = {
    "classical": (("--d", "3", "--r", "2"), ("--s", "--K", "--L", "--M", "--b", "--t")),
    "completed": (("--d", "3", "--profiles", "3", "--r", "2"),
                  ("--K", "--L", "--M", "--b", "--t")),
    "hypergeometric": (("--d", "3", "--M", "1", "--v-deg", "2", "--r", "2"),
                       ("--s", "--b", "--t")),
    "hciz": (("--profiles", "2;1,1", "--r", "1"), ("--s", "--K", "--L", "--M", "--b", "--t")),
    "orbifold": (("--d", "3", "--t", "2", "--r", "2"), ("--s", "--K", "--L", "--M", "--b")),
    "b-content": (("--d", "2", "--K", "1", "--b", "1", "--r", "2"), ("--s", "--t")),
    "gw": (("--profiles", "1;1", "--insertions", "2:1", "--r", "0"),
           ("--s", "--K", "--L", "--M", "--b", "--t")),
}
# each flag's default on compute, and another value
DEFAULT_AND_OTHER = {"--s": ("1", "2"), "--K": ("0", "3"), "--L": ("0", "1"),
                     "--M": ("0", "1"), "--b": ("0", "1/2"), "--t": ("1", "4")}


class TestComputeReadsOnlyItsKindsFlags:
    """Each compute kind exits 3 on a flag it does not read, as every other
    request does, and accepts the flag at its default."""

    @pytest.mark.parametrize("argv, flag", [
        (("compute", "--kind", "orbifold", "--d", "3", "--t", "2", "--r", "2", "--s", "2"),
         "--s"),
        (("compute", "--kind", "hciz", "--profiles", "2;1,1", "--r", "1", "--K", "3",
          "--L", "1"), "--K"),
        (("compute", "--kind", "gw", "--profiles", "1;1", "--insertions", "2:1", "--r", "0",
          "--s", "4"), "--s"),
        (("compute", "--kind", "classical", "--d", "3", "--r", "2", "--K", "2"), "--K"),
        (("compute", "--kind", "completed", "--d", "3", "--profiles", "3", "--r", "2",
          "--u-deg", "1"), "--u-deg"),
        (("compute", "--kind", "b-content", "--d", "2", "--K", "1", "--b", "1", "--r", "2",
          "--t", "4"), "--t"),
        (("table", "--what", "hurwitz", "--kind", "gw", "--profiles", "1;1", "--insertions",
          "2:1", "--r", "0", "--gw-s", "5"), "--gw-s"),
    ], ids=["orbifold-s", "hciz-K-L", "gw-s", "classical-K", "completed-u-deg", "b-content-t",
            "hurwitz-table-gw-gw-s"])
    def test_probe_exits_naming_the_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"{flag} has no effect on {' '.join(argv[:argv.index('--kind') + 2])}" in err

    @pytest.mark.parametrize("kind, flag", [
        (kind, flag) for kind, (_, unread) in COMPUTE_KINDS.items() for flag in unread])
    def test_unread_flag_exits_naming_it(self, capsys, kind, flag):
        argv, _ = COMPUTE_KINDS[kind]
        code, out, err = run(capsys, "compute", "--kind", kind, *argv,
                             flag, DEFAULT_AND_OTHER[flag][1])
        assert code == EXIT_USAGE and out == ""
        assert f"{flag} has no effect on compute --kind {kind}" in err

    @pytest.mark.parametrize("kind", COMPUTE_KINDS)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unread_flags_at_their_default_change_no_byte(self, capsys, kind, fmt):
        argv, unread = COMPUTE_KINDS[kind]
        plain = run(capsys, "compute", "--kind", kind, *argv, "--format", fmt)
        defaults = [arg for flag in unread for arg in (flag, DEFAULT_AND_OTHER[flag][0])]
        assert plain[0] == EXIT_OK
        assert run(capsys, "compute", "--kind", kind, *argv, *defaults,
                   "--format", fmt) == plain

    def test_defaults_read_once_per_process(self, capsys):
        cli._unread_flags.cache_clear()
        for _ in range(3):
            run(capsys, "compute", "--kind", "classical", "--d", "3", "--r", "2")
        assert cli._unread_flags.cache_info().misses == 1


class TestTablesReadNoMaxD:
    @pytest.mark.parametrize("table", [RATIO_TABLE, STRUCTURE_TABLE],
                             ids=["ratio", "structure"])
    def test_max_d_exits_naming_the_flag(self, capsys, table):
        code, out, err = run(capsys, *table, "--max-d", "2")
        assert code == EXIT_USAGE and out == "" and "unrecognized arguments: --max-d" in err


def _subcommands():
    return next(a for a in cli.build_parser()._actions if a.dest == "command").choices


class TestEveryFlagIsRead:
    """No flag can be silently ignored: each is read by some request, which
    refuses the flags it does not read."""

    @pytest.mark.parametrize("command", ["compute", "verify", "table", "chartable"])
    def test_every_flag_is_read_or_names_the_request(self, command):
        keys = [key for key in cli._READS if key.split()[0] == command]
        read = {name for key in keys for name in cli._READS[key]}
        for action in _subcommands()[command]._actions:
            if not action.option_strings or action.dest in ("help", "format", "output"):
                continue
            named = any(action.option_strings[0] in key.split() for key in keys)
            assert action.dest in read or named, action.option_strings[0]

    def test_every_kind_and_suite_has_an_entry(self):
        compute_kinds = next(a for a in _subcommands()["compute"]._actions
                             if a.dest == "kind").choices
        wanted = [f"compute --kind {k}" for k in compute_kinds]
        wanted += [f"table --what hurwitz --kind {k}" for k in compute_kinds]
        for kind in ("classical", "completed", "monotone", "b", "gw"):
            wanted += [f"table --what ratio --kind {kind}", f"verify ratio --kind {kind}"]
        wanted += [f"verify {suite}" for suite in verify.SUITES if suite != "ratio"]
        wanted += ["table --what structure", "chartable"]
        assert sorted(wanted) == sorted(cli._READS)


class TestOracleGuards:
    """``verify oracle`` checks its degree (6) and transposition (10) guards
    before the sweep, so no literal count runs above them."""

    @pytest.mark.parametrize("argv, message", [
        (("--max-d", "7", "--max-transpositions", "4"), "oracle degree 7 exceeds the guard 6"),
        (("--max-d", "7"), "oracle degree 7 exceeds the guard 6"),
        (("--max-d", "2", "--max-transpositions", "11"),
         "11 transpositions exceed the guard 10"),
    ], ids=["degree", "degree-default-transpositions", "transpositions"])
    def test_above_a_guard_exits_before_any_count(self, capsys, monkeypatch, argv, message):
        counted = []
        monkeypatch.setattr(oracle, "count_factorizations", counted.append)
        monkeypatch.setattr(oracle, "count_factorizations_sweep",
                            lambda *args: counted.append(args))
        monkeypatch.setattr(oracle, "_raw_counts", lambda *args: counted.append(args))
        code, out, err = run(capsys, "verify", "oracle", *argv)
        assert code == EXIT_SIZE_LIMIT and out == "" and message in err
        assert counted == []

    def test_at_the_guards_runs(self, capsys, monkeypatch):
        # the suite counts through the raw counter the guard test patches:
        # one call per degree, over every block list (436 lists of at most
        # 10 transpositions)
        counted = []
        original = oracle._raw_counts

        def recorded(d, block_lists, profile_lists):
            counted.append(block_lists)
            return original(d, block_lists, profile_lists)

        monkeypatch.setattr(oracle, "_raw_counts", recorded)
        code, out, _ = run(capsys, "verify", "oracle", "--max-d", "1",
                           "--max-transpositions", "10", "--format", "csv")
        assert code == EXIT_OK and out.splitlines()[-1] == "oracle equivalence d=1,pass,1308 queries"
        block_lists, = counted
        assert len(block_lists) == len(set(block_lists)) == 436


class TestStirlingCeiling:
    """``verify stirling`` is bounded by the oracle's degree guard (6)."""

    def test_above_the_guard_exits_naming_it(self, capsys):
        code, out, err = run(capsys, "verify", "stirling", "--max-d", "7")
        assert code == EXIT_SIZE_LIMIT and out == "" and "guard 6" in err

    def test_at_the_ceiling_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "stirling", "--max-d", "6")
        blob = json.loads(out)
        assert code == EXIT_OK and blob["pass"] and blob["config"]["max_d"] == 6


class TestDhrNormalizationOfPolynomials:
    @pytest.mark.parametrize("command", [("compute",), ("table", "--what", "hurwitz")],
                             ids=["compute", "table"])
    def test_polynomial_value_exits_naming_the_flag(self, capsys, command):
        code, out, err = run(capsys, *command, "--kind", "hypergeometric", "--d", "2",
                             "--K", "1", "--L", "1", "--r", "2", "--normalization", "dhr")
        assert code == EXIT_USAGE and out == "" and "--normalization dhr" in err

    def test_one_coefficient_is_scaled(self, capsys):
        code, out, _ = run(capsys, "compute", "--kind", "hypergeometric", "--d", "2",
                           "--K", "1", "--L", "1", "--r", "2", "--u-deg", "1",
                           "--normalization", "dhr")
        blob = json.loads(out)["results"][0]
        assert code == EXIT_OK and (blob["value_paper"], blob["value"]) == ("1/2", "1")


class TestShellEntryPoint:
    """A fresh interpreter, as a shell invocation of the CLI starts one."""

    ENV = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}

    @classmethod
    def python(cls, *args):
        return subprocess.run([sys.executable, *args], env=cls.ENV, capture_output=True,
                              text=True, timeout=120)

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        proc = self.python("-c", "import sys; before = set(sys.modules); import hurwitz.cli; "
                                 "print(sorted({'dataclasses', 'inspect'} & "
                                 "(set(sys.modules) - before)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_compute_as_a_module(self):
        proc = self.python("-m", "hurwitz.cli", "compute", "--kind", "classical", "--d", "3",
                           "--r", "2")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["results"][0]["value"] == "1/2"

    def test_closed_stdout_exits_three(self):
        # the table is over 64 KB, more than a pipe holds; the reader takes
        # 100 bytes unbuffered and closes its end, so the writer still has
        # bytes to write whatever its buffer sizes
        with subprocess.Popen([sys.executable, "-m", "hurwitz.cli", "chartable", "--d", "15"],
                              env=self.ENV, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            first = os.read(proc.stdout.fileno(), 100)
            proc.stdout.close()
            err = proc.stderr.read()
        assert first.startswith(b'# config: {"command": "chartable", "d": 15}\n')
        assert proc.returncode == EXIT_USAGE
        assert err == b"error: stdout was closed before the output was written\n"


# Requests that resolve defaults differently, run in one process.
INTERLEAVED = (
    ("table", "--what", "hurwitz", "--kind", "hypergeometric", "--d", "3", "--r", "2"),
    ("table", "--what", "ratio", "--kind", "monotone", "--d", "3", "--r-max", "4"),
    ("chartable", "--d", "4"),
    ("compute", "--kind", "completed", "--profiles", "3,1;2,2", "--r", "2",
     "--format", "json"),
    ("compute", "--kind", "nonsense"),
    ("compute", "--kind", "classical", "--r", "2"),
)


class TestSharedParser:
    """One parser serves every main() call of a process."""

    def test_built_once(self, capsys, monkeypatch):
        builds = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        cli.build_parser.cache_clear()
        try:
            cli.build_parser()
            one_build = len(builds)  # the parser and its subcommand parsers
            for _ in range(3):
                for argv in INTERLEAVED:
                    run(capsys, *argv)
        finally:
            cli.build_parser.cache_clear()
        assert one_build > 0 and len(builds) == one_build

    def test_same_bytes_as_a_fresh_parser(self, capsys):
        fresh = []
        for argv in INTERLEAVED:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        shared = [run(capsys, *argv) for argv in INTERLEAVED + INTERLEAVED]
        assert shared == fresh + fresh
        assert [code for code, _, _ in fresh] == [EXIT_OK] * 4 + [EXIT_USAGE] * 2
        assert json.loads(fresh[0][1])["results"][0]["value"] == "0"
        assert json.loads(fresh[1][1])["config"]["K"] == 1
        assert fresh[2][1].startswith("# config:")

    def test_resolved_defaults_stay_in_their_request(self, capsys):
        for argv in INTERLEAVED:
            run(capsys, *argv)
        args = cli.build_parser().parse_args(list(INTERLEAVED[0]))
        assert args.K is None
        _, out, _ = run(capsys, *INTERLEAVED[0])
        assert json.loads(out)["config"]["K"] == 0
