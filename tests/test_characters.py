import itertools
import json
import math
import sys
import threading

import pytest

from hurwitz import characters, oracle
from hurwitz.characters import CharTable, char_table, character, dim
from hurwitz.errors import DomainError, SizeLimitError
from hurwitz.partitions import class_data, enumerate_partitions, hook_lengths, transpose


def count_standard_tableaux(shape):
    """Backtracking SYT count, independent of the hook-length formula."""
    d = sum(shape)

    def rec(rows):
        if sum(rows) == d:
            return 1
        total = 0
        for i in range(len(shape)):
            if rows[i] < shape[i] and (i == 0 or rows[i - 1] > rows[i]):
                rows[i] += 1
                total += rec(rows)
                rows[i] -= 1
        return total

    return rec([0] * len(shape))


class TestValues:
    def test_trivial_and_sign_rows(self):
        for d in range(1, 8):
            for mu in enumerate_partitions(d):
                assert character((d,), mu) == 1
                assert character((1,) * d, mu) == (-1) ** (d - len(mu))

    def test_standard_rep_values(self):
        assert character((2, 1), (3,)) == -1
        assert character((2, 1), (1, 1, 1)) == 2

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            character((2, 1), (2,))

    @pytest.mark.parametrize("lam,expected", [((4,), 1), ((2, 1), 2), ((3, 2), 5)])
    def test_dim_examples(self, lam, expected):
        assert dim(lam) == expected
        assert count_standard_tableaux(lam) == expected

    @pytest.mark.parametrize("d", range(1, 9))
    def test_dim_is_identity_character(self, d):
        for lam in enumerate_partitions(d):
            assert dim(lam) == character(lam, (1,) * d)
            assert dim(lam) == count_standard_tableaux(lam)


class TestTable:
    def test_degree_one_and_two(self):
        assert char_table(1).entries == ((1,),)
        t = char_table(2)
        # columns follow the canonical reverse-lex class order ((2), (1,1))
        assert t.partitions == ((2,), (1, 1))
        assert t.value((2,), (2,)) == 1 and t.value((2,), (1, 1)) == 1
        assert t.value((1, 1), (2,)) == -1 and t.value((1, 1), (1, 1)) == 1

    def test_burnside_identity(self):
        t = char_table(5)
        assert sum(dim(lam) ** 2 for lam in t.partitions) == 120

    @pytest.mark.parametrize("d", range(1, 11))
    def test_column_orthogonality(self, d):
        t = char_table(d)
        parts = t.partitions
        for i, mu in enumerate(parts):
            z = class_data(mu).stabilizer
            for j, nu in enumerate(parts):
                s = sum(t.entries[k][i] * t.entries[k][j] for k in range(len(parts)))
                assert s == (z if i == j else 0)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_transpose_rule(self, d):
        t = char_table(d)
        for lam in t.partitions:
            for mu in t.partitions:
                assert t.value(transpose(lam), mu) == \
                    (-1) ** (d - len(mu)) * t.value(lam, mu)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_dimension_sum(self, d):
        assert sum(dim(lam) ** 2 for lam in enumerate_partitions(d)) == math.factorial(d)

    @pytest.mark.parametrize("d", range(1, oracle.ORACLE_MAX_DEGREE + 1))
    def test_against_permutation_module_bruteforce(self, d):
        brute = oracle.bruteforce_character_table(d)
        t = char_table(d)
        for lam in t.partitions:
            for mu in t.partitions:
                assert brute[lam][mu] == t.value(lam, mu)

    def test_ceiling(self, monkeypatch):
        # the table ceiling guards the full-table build only, so start from
        # an empty memo
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)
        table = char_table(19)  # a handle above the table ceiling does no table work
        assert table._entries is None and table.dims[-1] == 1
        with pytest.raises(SizeLimitError, match="character-table ceiling 18"):
            table.entries
        with pytest.raises(SizeLimitError, match="character-table ceiling 6"):
            char_table(7).fill(ceiling=6)
        entries = char_table(7).entries
        assert char_table(7).fill(ceiling=6) is entries  # filled entries cost nothing
        assert char_table(40).degree == 40
        with pytest.raises(SizeLimitError, match="partition ceiling 40"):
            char_table(41)

    def test_value_outside_the_degree(self):
        t = char_table(4)
        for bad in ((2, 1), (1, 3), (5,), ()):
            with pytest.raises(DomainError):
                t.value(bad, (4,))
            with pytest.raises(DomainError):
                t.value((4,), bad)
        assert t.value([2, 1, 1], [3, 1]) == 0 and t.index([1, 1, 1, 1]) == 4

    def test_csv_rows(self):
        rows = char_table(3).csv_rows()
        assert iter(rows) is rows  # rows are made as they are read
        rows = list(rows)
        assert rows[0] == ["lambda\\mu", "3", "2+1", "1+1+1"]
        assert rows[2] == ["2+1", "-1", "0", "2"]


class TestDiskCache:
    def test_roundtrip_and_corruption(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(characters.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(characters, "_tables", {})
        table = char_table(4)
        table.entries  # the full table is built, and stored, on first access
        path = tmp_path / "character-table-d4.json"
        assert path.is_file()
        blob = json.loads(path.read_text())
        assert blob["format"] == characters._TABLE_FORMAT
        assert blob["degree"] == 4

        # a fresh memo must reload from disk
        monkeypatch.setattr(characters, "_tables", {})
        assert char_table(4).entries == table.entries

        assert capsys.readouterr().err == ""

        # a rejected file is named on stderr with the reason, then rewritten
        good = path.read_text()
        bad_parts = dict(blob, partitions=blob["partitions"][::-1])
        bad_shape = dict(blob, entries=blob["entries"][:-1])
        bad_entry = dict(blob, entries=[[1.0] + row[1:] for row in blob["entries"]])
        for text, reason in [("{not json", "unreadable JSON"),
                             (json.dumps({"format": "other"}), "bad header"),
                             (json.dumps(bad_parts), "wrong partitions"),
                             (json.dumps(bad_shape), "wrong shape"),
                             (json.dumps(bad_entry), "an entry is not a JSON integer")]:
            path.write_text(text)
            monkeypatch.setattr(characters, "_tables", {})
            rebuilt = char_table(4)
            assert rebuilt.entries == table.entries
            assert path.read_text() == good
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and str(path) in err[0] and reason in err[0], err

    def test_stored_bytes_are_one_json_dump(self, tmp_path, monkeypatch):
        # the store streams its rows; the file is what one json.dumps wrote
        monkeypatch.setenv(characters.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(characters, "_tables", {})
        for d in range(9):
            table = char_table(d)
            blob = {
                "format": characters._TABLE_FORMAT,
                "version": characters._TABLE_VERSION,
                "degree": d,
                "partitions": [list(p) for p in table.partitions],
                "entries": [list(row) for row in table.entries],
            }
            assert (tmp_path / f"character-table-d{d}.json").read_text() == json.dumps(blob)
        assert len(list(tmp_path.iterdir())) == 9  # no temporary file is left

    def test_each_writer_has_its_own_temporary_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(characters.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(characters, "_tables", {})
        (tmp_path / "character-table-d4.tmp").mkdir()  # a fixed temporary name is taken
        entries = char_table(4).entries
        assert characters._load_cached(4) == entries
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "character-table-d4.json", "character-table-d4.tmp"]

    def test_garbage_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(characters.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(characters, "_tables", {})
        path = tmp_path / "character-table-d3.json"
        path.write_text("{not json")
        table = char_table(3)
        table.entries  # only the full table reads the disk cache
        assert table.value((2, 1), (3,)) == -1
        assert json.loads(path.read_text())["degree"] == 3

    def test_file_that_is_not_an_object(self, tmp_path, monkeypatch):
        monkeypatch.setenv(characters.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(characters, "_tables", {})
        path = tmp_path / "character-table-d3.json"
        path.write_text("[1]")
        assert characters._load_cached(3) is None
        assert char_table(3).entries == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))
        assert json.loads(path.read_text())["degree"] == 3

    @pytest.mark.parametrize("bad", ["1", 1.0, True], ids=["string", "float", "bool"])
    def test_entries_must_be_json_integers(self, tmp_path, monkeypatch, bad):
        monkeypatch.setenv(characters.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(characters, "_tables", {})
        good = char_table(4).entries
        path = tmp_path / "character-table-d4.json"
        blob = json.loads(path.read_text())
        assert blob["entries"][0][0] == 1
        blob["entries"][0][0] = bad  # equal to 1 under int(), but not an int
        path.write_text(json.dumps(blob))
        assert characters._load_cached(4) is None

        monkeypatch.setattr(characters, "_tables", {})
        assert char_table(4).entries == good
        rewritten = json.loads(path.read_text())["entries"]
        assert all(type(v) is int for row in rewritten for v in row)
        assert characters._load_cached(4) == good

    def test_stored_table_is_used_above_the_ceiling(self, tmp_path, monkeypatch):
        monkeypatch.setenv(characters.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(characters, "_tables", {})
        entries = char_table(19).fill(ceiling=19)
        assert (tmp_path / "character-table-d19.json").is_file()

        monkeypatch.setattr(characters, "_tables", {})
        table = char_table(19)
        assert table._entries is None  # creating a handle reads no disk
        assert table.entries == entries  # above the default ceiling of 18
        assert table.dims[0] == 1 and table.column((1,) * 19) == table.dims


class TestLazyFill:
    """A handle computes only the dimensions and columns asked for."""

    @pytest.mark.parametrize("d", range(15))
    def test_columns_equal_single_values(self, d, monkeypatch):
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)
        t = char_table(d)
        for mu in t.partitions:
            col = tuple(character(lam, mu) for lam in t.partitions)
            assert t.column(mu) == col
            assert tuple(t.value(lam, mu) for lam in t.partitions) == col
        assert t._entries is None

    @pytest.mark.parametrize("d", range(19))
    def test_dims_equal_hook_lengths(self, d):
        t = char_table(d)
        want = tuple(math.factorial(d) // math.prod(itertools.chain(*hook_lengths(lam)))
                     for lam in t.partitions)
        assert t.dims == want
        assert tuple(dim(lam) for lam in t.partitions) == want

    def test_column_rejects_other_degrees(self):
        t = char_table(4)
        for bad in ((2, 1), (5,), (1, 3)):
            with pytest.raises(DomainError):
                t.column(bad)
        assert t.column([2, 1, 1]) == t.column((2, 1, 1))

    def test_entries_reuse_and_drop_the_column_memos(self, monkeypatch):
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)
        t = char_table(8)
        col = t.column((3, 3, 2))
        assert characters._column.cache_info().currsize
        assert characters._add_strips.cache_info().currsize
        assert t.entries == tuple(zip(*(t.column(mu) for mu in t.partitions)))
        assert characters._column.cache_info().currsize == 0
        assert characters._add_strips.cache_info().currsize == 0
        assert t.column((3, 3, 2)) == col
        assert t.value((4, 4), (3, 3, 2)) == col[t.index((4, 4))]
        assert characters._column.cache_info().currsize == 0
        # the handle itself holds no column or strip memo
        assert set(vars(t)) == {"degree", "partitions", "_dims", "_entries"}

    def test_a_build_fits_the_memo_bounds(self, monkeypatch):
        # every sub-column and strip list of a d=18 build is still cached
        # when the build clears them: nothing was evicted on the way
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)
        characters._column.cache_clear()
        characters._add_strips.cache_clear()
        seen = []
        clear = characters._column.cache_clear

        def spy():
            seen.append((characters._column.cache_info(),
                         characters._add_strips.cache_info()))
            clear()

        monkeypatch.setattr(characters._column, "cache_clear", spy)
        assert len(char_table(18).entries) == 385
        [(columns, strips)] = seen
        assert 0 < columns.misses == columns.currsize <= columns.maxsize
        assert 0 < strips.misses == strips.currsize <= strips.maxsize

    def test_sub_columns_are_shared_between_degrees(self, monkeypatch):
        monkeypatch.setattr(characters, "_tables", {})
        characters._column.cache_clear()
        char_table(6).column((3, 2, 1))  # caches (3, 2, 1), (2, 1), (1,), ()
        before = characters._column.cache_info()
        char_table(7).column((4, 2, 1))  # reads the column of (2, 1)
        after = characters._column.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


class TestConcurrency:
    def test_single_published_table(self, monkeypatch):
        monkeypatch.setattr(characters, "_tables", {})
        results: list[CharTable] = []

        def fetch():
            results.append(char_table(6))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)

    def test_concurrent_fill(self, monkeypatch):
        # columns fill without a lock while another thread builds the entries
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)
        table = char_table(11)
        want = tuple(tuple(character(lam, mu) for mu in table.partitions)
                     for lam in table.partitions)
        seen: list = []

        def fill(i):
            order = table.partitions[::-1] if i % 2 else table.partitions
            cols = {mu: table.column(mu) for mu in order}
            seen.append((table.entries, cols, table.dims))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(seen) == 8
        for entries, cols, dims in seen:
            assert entries is seen[0][0] and entries == want
            assert all(cols[mu] == tuple(row[j] for row in want)
                       for j, mu in enumerate(table.partitions))
            assert dims == tuple(row[-1] for row in want)  # the (1^d) column


class TestColumnBuild:
    @pytest.mark.parametrize("d", range(15))
    def test_equals_single_values(self, d, monkeypatch):
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)
        t = char_table(d)
        assert t.entries == tuple(
            tuple(character(lam, mu) for mu in t.partitions) for lam in t.partitions)

    def test_build_does_not_evaluate_single_values(self, monkeypatch):
        monkeypatch.setattr(characters, "_tables", {})
        monkeypatch.delenv(characters.CACHE_DIR_ENV, raising=False)

        def refuse(lam, mu):
            raise AssertionError("character() called by a table build")

        monkeypatch.setattr(characters, "character", refuse)
        characters._mn.cache_clear()
        t = char_table(12)
        assert t._entries is None
        assert len(t.entries) == len(t.partitions) == 77
        assert characters._mn.cache_info().currsize == 0
