"""The one CSV layer: what write_table writes and what read_rows yields."""

from hmogkit.table import read_rows, write_table


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
