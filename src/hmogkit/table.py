"""The one file layer: every CSV table and JSON object hmogkit writes or
reads is opened here, as UTF-8.

A table is ``# `` comment lines, a header row and data rows. csv quotes a
field holding ',', '"' or LF (not a lone CR, on Python 3.11); a float is
written as its repr, which float() reads back exactly, and None as an empty
field. A line starting with '#' is a comment; readers skip it but count it,
so a reported line number is the file's own. A JSON file holds one object.
A reader raises FormatError, led by the path (path:line for a CSV token),
for bytes that are not UTF-8, a malformed CSV token, or text that is not
one JSON object; open()'s OSError names the path too.
"""

from __future__ import annotations

import csv
import json

import numpy as np


class FormatError(Exception):
    """A file's bytes are not the format its reader expects."""


def _not_utf8(path, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not UTF-8 (byte 0x{exc.object[exc.start]:02x})")


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
        try:
            for fields in reader:
                start, end = end + 1, reader.line_num
                if fields:
                    yield start, fields
        except csv.Error as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def read_utf8(path) -> str:
    """The text of a file, with universal newlines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _tolist(o):
    if isinstance(o, (np.ndarray, np.generic)):
        return o.tolist()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def write_json(path, blob: dict, indent: int = 2) -> None:
    """blob with a final LF; a NumPy array or scalar is written as the list
    or number it holds."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, sort_keys=True, indent=indent, default=_tolist)
        fh.write("\n")


def read_json(path) -> dict:
    try:
        blob = json.loads(read_utf8(path))
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or too many digits or levels
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(blob, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return blob
