"""The one file layer: what write_table and write_json write, what read_rows
and read_json yield, and the FormatError each reader raises for a file it
cannot read, named by its path."""

import csv

import numpy as np
import pytest

from hmogkit.table import FormatError, read_json, read_rows, read_utf8, write_json, write_table


def test_write_table_quotes_specials_and_reads_back(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("id", "value"),
                [("a,b", 0.1), ('c"d', None), ("e\nf", -0.0), ("g h", 2 / 3)],
                comments=["config_hash=abc", "seed=7"])
    assert path.read_text(encoding="utf-8") == (
        "# config_hash=abc\n# seed=7\n"
        "id,value\n"
        '"a,b",0.1\n'
        '"c""d",\n'
        '"e\nf",-0.0\n'
        "g h,0.6666666666666666\n")
    assert list(read_rows(path)) == [
        (3, ["id", "value"]), (4, ["a,b", "0.1"]), (5, ['c"d', ""]),
        (6, ["e\nf", "-0.0"]), (8, ["g h", "0.6666666666666666"])]


def test_read_rows_counts_comment_and_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"# one\r\n# two\r\nh1,h2\r\n\r\n1,x\r\n# three\r\n2,y\r\n")
    assert list(read_rows(path)) == [(3, ["h1", "h2"]), (5, ["1", "x"]), (7, ["2", "y"])]


def test_read_rows_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"h1,h2\n1,caf\xe9\n")
    with pytest.raises(FormatError) as exc:
        list(read_rows(path))
    assert str(exc.value) == f"{path}: not UTF-8 (byte 0xe9)"


def test_read_rows_names_the_line_of_a_malformed_token(tmp_path):
    path = tmp_path / "t.csv"
    long = "x" * (csv.field_size_limit() + 1)
    path.write_text(f'# stamp\nh1,h2\n1,"{long}"\n', encoding="utf-8")
    rows = read_rows(path)
    assert next(rows) == (2, ["h1", "h2"])
    with pytest.raises(FormatError) as exc:
        next(rows)
    assert str(exc.value) == f"{path}:3: field larger than field limit ({len(long) - 1})"


def test_write_json_sorts_keys_and_writes_numpy_values_and_nan(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": np.int64(3), "a": [np.bool_(True), float("nan")],
                      "c": np.array([0.5, -0.0])})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": [\n    true,\n    NaN\n  ],\n  "b": 3,\n'
        '  "c": [\n    0.5,\n    -0.0\n  ]\n}\n')
    write_json(path, {"b": 1, "a": {}}, indent=1)
    assert path.read_text(encoding="utf-8") == '{\n "a": {},\n "b": 1\n}\n'
    assert read_json(path) == {"a": {}, "b": 1}


@pytest.mark.parametrize("data, error", [
    (b'{"a": 1', "not valid JSON (Expecting ',' delimiter: line 1 column 8 (char 7))"),
    (b"[1, 2]", "expected a JSON object"),
    (b'{"a": "caf\xe9"}', "not UTF-8 (byte 0xe9)"),
])
def test_read_json_names_the_file(tmp_path, data, error):
    path = tmp_path / "t.json"
    path.write_bytes(data)
    with pytest.raises(FormatError) as exc:
        read_json(path)
    assert str(exc.value) == f"{path}: {error}"


@pytest.mark.parametrize("data", [
    b'{"a": ' + b"9" * 5000 + b"}",  # past the int digit limit
    b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # past the recursion limit
], ids=["digits", "depth"])
def test_read_json_rejects_what_the_decoder_cannot_hold(tmp_path, data):
    # the decoder's own wording of these limits varies by Python version
    path = tmp_path / "t.json"
    path.write_bytes(data)
    with pytest.raises(FormatError) as exc:
        read_json(path)
    assert str(exc.value).startswith(f"{path}: not valid JSON (")


def test_read_utf8_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "map.txt"
    path.write_bytes(b"key_code = k\r\nt_ms = \xff\n")
    with pytest.raises(FormatError) as exc:
        read_utf8(path)
    assert str(exc.value) == f"{path}: not UTF-8 (byte 0xff)"
    path.write_bytes(b"key_code = k\r\nt_ms = t\n")
    assert read_utf8(path) == "key_code = k\nt_ms = t\n"
