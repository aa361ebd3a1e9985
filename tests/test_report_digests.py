"""The value digests of seven verify reports, in CSV and in JSON: a change
to how the oracle, the gap, the Stirling or the character suite reads its
sides keeps every value field.  The digest is the benchmark's (``perfbench/golden.py``): sha256
of the output without its configuration."""

import importlib.util
from pathlib import Path

import pytest

from hurwitz.cli import EXIT_OK, main

_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.py"
_spec = importlib.util.spec_from_file_location("_perfbench_golden", _GOLDEN)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

REPORTS = {  # id: (argv, {format: value digest})
    "oracle": (("verify", "oracle"), {
        "csv": "bbc3bdaf2fdb35013bb8e098332560848aa458efbf2e7e5a142a5b60beb1f67f",
        "json": "724dfd38e7197070d18d5aab36b799886d248ff0cda7acbd750ae479e745bbc5"}),
    "oracle-d3-t5": (("verify", "oracle", "--max-d", "3", "--max-transpositions", "5"), {
        "csv": "9985d0c6ad17a95550465294082f3b75d4a0fa7d9f44df633bf67402924b3d8f",
        "json": "8268538c50a9bfd535eea50120b85f715c43305134d155cb831961afcff126e8"}),
    "oracle-d6-t6": (("verify", "oracle", "--max-d", "6", "--max-transpositions", "6"), {
        "csv": "92560f042fdff53bcad0fb35cd4d8dfcf68450444bfa6a3984a56a55f8d7194b",
        "json": "73db471806ab49f602ebed4ec327f0f0e50930c47513e2fd0e4d8c273b3abb63"}),
    "stirling": (("verify", "stirling"), {
        "csv": "f20e4f0e5ac7f2df4e8a2047c12821742098008f42849286325f415130e891f1",
        "json": "1d68e0d068a806be8fce3a529f163b99a385a1f84b55e05e874ceab278002ab0"}),
    "characters": (("verify", "characters"), {
        "csv": "e9dfb414284d6db87162273f7631d78d1029ec5d2e1b82362d7dddc55d8f361b",
        "json": "e9a6eb7e50e139c3f44d2cfb0696c70fd349109504e63aa96eba77c42bb51fcb"}),
    "gap-d7-s3": (("verify", "gap", "--d", "7", "--s", "3", "--profiles", "4,2,1;3,3,1"), {
        "csv": "baa403f29e7c919faaa96a8e52d59e0f19dfa4c1042f9c3ed8051c48f220fd27",
        "json": "010b4877920ced9a7debed0bc6a9b807ab922f03434a100edd1f722aadabe1b7"}),
    "gap-d9-s2": (("verify", "gap", "--d", "9", "--s", "2", "--profiles", "6,2,1;5,2,2"), {
        "csv": "7a9568001ea69798c752aee83519109638d71f560848d16b4719686945545f6a",
        "json": "fae3ff5f8734e95f275edadc522d4ec10e8b801896d2725364a13eabe3104a20"}),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("report", list(REPORTS))
def test_the_report_values_keep_their_digest(capsys, report, fmt):
    argv, digests = REPORTS[report]
    code = main([*argv, "--format", fmt])
    out = capsys.readouterr().out
    assert code == EXIT_OK and golden.verify_pass(out) is True
    assert golden.value_digest(out) == digests[fmt]
