import json

import pytest

from hurwitz.cli import (
    EXIT_OK,
    EXIT_SIZE_LIMIT,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)


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
    ], ids=["verify-ratio-unknown-kind", "table-ratio-unknown-kind",
            "verify-ratio-gw-one-profile", "b-content-degree-zero",
            "b-content-connected", "classical-profiles"])
    def test_rejected_request(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert message in err


class TestCeilingOverride:
    def test_compute_ceiling_exit(self, capsys):
        code, _, err = run(capsys, "compute", "--kind", "classical", "--d", "19",
                           "--r", "0")
        assert code == EXIT_SIZE_LIMIT and "ceiling" in err

    def test_max_d_lowers_ceiling(self, capsys):
        code, _, _ = run(capsys, "compute", "--kind", "classical", "--d", "10",
                         "--r", "0", "--max-d", "9")
        assert code == EXIT_SIZE_LIMIT
        code, out, _ = run(capsys, "compute", "--kind", "classical", "--d", "10",
                           "--r", "0", "--max-d", "10")
        assert code == EXIT_OK


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
