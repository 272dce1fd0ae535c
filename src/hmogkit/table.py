"""The CSV format of every table hmogkit writes or reads.

A table is ``# `` comment lines, a header row and data rows. csv quotes a
field holding ',', '"' or LF (not a lone CR, on Python 3.11); a float is
written as its repr, which float() reads back exactly, and None as an empty
field. A line starting with '#' is a comment; readers skip it but count it,
so a reported line number is the file's own.
"""

from __future__ import annotations

import csv


def write_table(path, header, rows, comments=()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path):
    """Yield (line number, fields) for each non-empty row, header included;
    the number is the file line on which the row starts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader("\n" if line.startswith("#") else line for line in fh)
        end = 0
        for fields in reader:
            start, end = end + 1, reader.line_num
            if fields:
                yield start, fields
