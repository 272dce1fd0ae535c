"""CSV ingestion and serialization for session recordings.

Canonical schemas (header row required):

  sensor.csv  session_id,sensor,t_ms,x,y,z          sensor in {acc,gyr,mag}
  touch.csv   session_id,tap_id,t_ms,x_px,y_px,contact_size
  taps.csv    session_id,tap_id,t_start_ms,t_end_ms  (optional; else min/max per tap_id)
  keys.csv    session_id,key_code,t_press_ms,t_release_ms

Every file is read and written through hmogkit.table: ``#`` lines are
comments, csv quoting applies, and a ParseError names the file line.
Foreign column names are adapted through a mapping config of
``canonical_column = source_column`` lines. An integer timestamp is kept
exactly, up to the int64 limit; a fractional one is floored to integer
milliseconds. Timestamps count from session start, so a negative one is
rejected.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain, repeat

import numpy as np

from ..table import read_rows, write_table
from .types import (
    Condition,
    CorpusError,
    KeyTable,
    Sensor,
    SENSOR_ORDER,
    SensorStream,
    Session,
    TapTable,
)

SENSOR_COLUMNS = ("session_id", "sensor", "t_ms", "x", "y", "z")
TOUCH_COLUMNS = ("session_id", "tap_id", "t_ms", "x_px", "y_px", "contact_size")
TAPS_COLUMNS = ("session_id", "tap_id", "t_start_ms", "t_end_ms")
KEY_COLUMNS = ("session_id", "key_code", "t_press_ms", "t_release_ms")

DEFAULT_RATE_HZ = 100.0


class ParseError(CorpusError):
    """Malformed input file; message carries file and line context."""


def parse_mapping(text: str) -> dict[str, str]:
    """Parse ``canonical = source`` lines; '#' starts a comment."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"mapping line {lineno}: expected 'canonical = source'")
        canonical, source = (part.strip() for part in line.split("=", 1))
        if not canonical or not source:
            raise ParseError(f"mapping line {lineno}: empty column name")
        mapping[canonical] = source
    return mapping


def load_mapping(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mapping(fh.read())


def _floor_ms(value: str, where: str) -> int:
    try:
        t = int(value)  # exact past 2**53, where a float rounds
    except ValueError:
        try:
            t = math.floor(float(value))
        except (ValueError, OverflowError):  # NaN and infinities too
            raise ParseError(f"{where}: bad timestamp {value!r}") from None
    if t < 0:
        raise ParseError(f"{where}: negative timestamp {value!r}")
    if t >= 2 ** 63:  # past the int64 timestamp columns
        raise ParseError(f"{where}: bad timestamp {value!r}")
    return t


def _tap_id(value: str, where: str) -> int:
    try:
        tap_id = int(value)
        if -2 ** 63 <= tap_id < 2 ** 63:  # tap ids are an int64 column
            return tap_id
    except ValueError:
        pass
    raise ParseError(f"{where}: bad tap_id {value!r}")


def _float(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"{where}: bad number {value!r}") from None


def _read_rows(path: str, canonical: tuple[str, ...],
               mapping: dict[str, str] | None):
    """Yield (lineno, dict keyed by canonical column names)."""
    mapping = mapping or {}
    rows = read_rows(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in header]
    index: dict[str, int] = {}
    for name in canonical:
        # one mapping file serves every input; fall back to the
        # canonical name in files that never used the source name
        source = mapping.get(name, name)
        if source in header:
            index[name] = header.index(source)
        elif name in header:
            index[name] = header.index(name)
        else:
            raise ParseError(f"{path}: missing column {source!r}")
    width = len(header)
    for lineno, row in rows:
        if len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        yield lineno, {name: row[i] for name, i in index.items()}


def _parse_sensor_file(path: str, mapping: dict[str, str] | None,
                       nominal_rate_hz: float) -> dict[Sensor, SensorStream]:
    times: dict[Sensor, list[int]] = {s: [] for s in SENSOR_ORDER}
    values: dict[Sensor, list[tuple[float, float, float]]] = {s: [] for s in SENSOR_ORDER}
    for lineno, row in _read_rows(path, SENSOR_COLUMNS, mapping):
        where = f"{path}:{lineno}"
        tag = row["sensor"].strip()
        try:
            sensor = Sensor(tag)
        except ValueError:
            raise ParseError(f"{where}: unknown sensor tag {tag!r}") from None
        t, seen = _floor_ms(row["t_ms"], where), times[sensor]
        if seen and t <= seen[-1]:
            raise ParseError(f"{where}: non-monotone timestamp for {tag} ({t} after {seen[-1]})")
        seen.append(t)
        values[sensor].append((_float(row["x"], where), _float(row["y"], where),
                               _float(row["z"], where)))
    return {sensor: SensorStream(sensor=sensor, nominal_rate_hz=nominal_rate_hz,
                                 t_ms=np.array(times[sensor], dtype=np.int64),
                                 values=np.array(values[sensor], dtype=np.float64))
            for sensor in SENSOR_ORDER if times[sensor]}


def _parse_touch_file(path: str, mapping: dict[str, str] | None,
                      boundaries: dict[int, tuple[int, int]] | None) -> TapTable:
    ids, t, values = [], [], []
    for lineno, row in _read_rows(path, TOUCH_COLUMNS, mapping):
        where = f"{path}:{lineno}"
        ids.append(_tap_id(row["tap_id"], where))
        t.append(_floor_ms(row["t_ms"], where))
        values.append((_float(row["x_px"], where), _float(row["y_px"], where),
                       _float(row["contact_size"], where)))
    ids, t = np.array(ids, dtype=np.int64), np.array(t, dtype=np.int64)
    values = np.array(values, dtype=np.float64).reshape(-1, 3)
    tap_id, inverse, counts = np.unique(ids, return_inverse=True, return_counts=True)
    # a tap spans its samples unless taps.csv declares its bounds
    by_tap, last = t[np.lexsort((t, ids))], np.cumsum(counts)
    t_start, t_end = by_tap[last - counts], by_tap[last - 1]
    if boundaries:
        declared = np.array(list(boundaries), dtype=np.int64)
        missing = declared[~np.isin(declared, tap_id)]
        if len(missing):
            raise ParseError(f"{path}: tap {missing[0]} declared with zero touch samples")
        rows = np.searchsorted(tap_id, declared)
        t_start[rows], t_end[rows] = np.array(list(boundaries.values()), dtype=np.int64).T
    # taps ordered by (start, id); each keeps its samples in file order
    order = np.lexsort((tap_id, t_start))
    samples = np.lexsort((ids, t_start[inverse]))
    return TapTable(tap_id=tap_id[order], t_start_ms=t_start[order], t_end_ms=t_end[order],
                    offsets=np.concatenate([[0], np.cumsum(counts[order])]),
                    t_samples=t[samples], xy_px=values[samples, :2],
                    contact_size=values[samples, 2])


def _parse_taps_file(path: str, mapping: dict[str, str] | None) -> dict[int, tuple[int, int]]:
    boundaries: dict[int, tuple[int, int]] = {}
    for lineno, row in _read_rows(path, TAPS_COLUMNS, mapping):
        where = f"{path}:{lineno}"
        tap_id = _tap_id(row["tap_id"], where)
        if tap_id in boundaries:
            raise ParseError(f"{where}: duplicate tap_id {tap_id}")
        boundaries[tap_id] = (_floor_ms(row["t_start_ms"], where), _floor_ms(row["t_end_ms"], where))
    return boundaries


def _parse_key_file(path: str, mapping: dict[str, str] | None) -> KeyTable:
    keys, press, release = [], [], []
    for lineno, row in _read_rows(path, KEY_COLUMNS, mapping):
        where = f"{path}:{lineno}"
        t = _floor_ms(row["t_press_ms"], where)
        if press and t < press[-1]:
            raise ParseError(f"{where}: non-monotone key press timestamps")
        key = row["key_code"].strip()
        if not key:
            raise ParseError(f"{where}: empty key code")
        if "\r" in key:  # keys.csv would leave it unquoted and split the row
            raise ParseError(f"{where}: key code {key!r} contains CR")
        keys.append(key)
        press.append(t)
        release.append(_floor_ms(row["t_release_ms"], where))
    return KeyTable(key=keys, t_press_ms=press, t_release_ms=release)


def parse_session(sensor_path: str, touch_path: str, key_path: str, *,
                  user_id: str, session_id: str, condition: Condition | str,
                  taps_path: str | None = None,
                  mapping: dict[str, str] | None = None,
                  nominal_rate_hz: float = DEFAULT_RATE_HZ) -> Session:
    """Build a validated Session from CSV files."""
    boundaries = _parse_taps_file(taps_path, mapping) if taps_path else None
    session = Session(
        user_id=user_id,
        session_id=session_id,
        condition=Condition(condition),
        streams=_parse_sensor_file(sensor_path, mapping, nominal_rate_hz),
        taps=_parse_touch_file(touch_path, mapping, boundaries),
        keys=_parse_key_file(key_path, mapping),
    )
    return session.validate()


# ---------------------------------------------------------------------------
# canonical serialization (round-trips exactly through parse_session)
# ---------------------------------------------------------------------------

def write_session(session: Session, directory: str) -> None:
    if session.session_id.startswith("#"):  # it leads every CSV row
        raise CorpusError(f"session_id {session.session_id!r} starts with '#', "
                          "which would make every CSV row a comment")
    os.makedirs(directory, exist_ok=True)
    sid = repeat(session.session_id)  # the first field of every row
    taps, keys = session.taps, session.keys
    streams = [(sensor.value, session.streams[sensor])
               for sensor in SENSOR_ORDER if sensor in session.streams]
    write_table(os.path.join(directory, "sensor.csv"), SENSOR_COLUMNS, chain.from_iterable(
        zip(sid, repeat(tag), stream.t_ms.tolist(), *stream.values.T.tolist())
        for tag, stream in streams))
    write_table(os.path.join(directory, "touch.csv"), TOUCH_COLUMNS, zip(
        sid, np.repeat(taps.tap_id, np.diff(taps.offsets)).tolist(), taps.t_samples.tolist(),
        *taps.xy_px.T.tolist(), taps.contact_size.tolist()))
    write_table(os.path.join(directory, "taps.csv"), TAPS_COLUMNS, zip(
        sid, taps.tap_id.tolist(), taps.t_start_ms.tolist(), taps.t_end_ms.tolist()))
    write_table(os.path.join(directory, "keys.csv"), KEY_COLUMNS, zip(
        sid, keys.key.tolist(), keys.t_press_ms.tolist(), keys.t_release_ms.tolist()))
    rates = {sensor.value: session.streams[sensor].nominal_rate_hz
             for sensor in SENSOR_ORDER if sensor in session.streams}
    meta = {
        "user_id": session.user_id,
        "session_id": session.session_id,
        "condition": session.condition.value,
        "nominal_rate_hz": rates,
    }
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_json(path: str, required: tuple[str, ...]) -> dict:
    """A JSON object holding the required keys; ParseError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(blob, dict):
        raise ParseError(f"{path}: expected a JSON object")
    missing = [key for key in required if key not in blob]
    if missing:
        raise ParseError(f"{path}: missing {', '.join(map(repr, missing))}")
    return blob


def id_problem(user_id, session_id) -> str | None:
    """What keeps a (user_id, session_id) pair from naming a session, as
    "<field> <value!r>, <reason>"; None when nothing does.

    The ids name the session's corpus directory <user_id>_<session_id>, so
    None, True or "" must not turn into one and a path separator would place
    it elsewhere. session_id leads every CSV row of the session: a leading
    '#' makes the row a comment, and a delimiter, quote or line break splits
    it. user_id is a field of every score and feature row; csv leaves a lone
    CR unquoted, and reading the row back splits it there.
    """
    for name, value in [("user_id", user_id), ("session_id", session_id)]:
        if not (isinstance(value, str) and value
                or isinstance(value, int) and not isinstance(value, bool)):
            return f"{name} {value!r}, expected a non-empty string or an integer"
        if any(c in str(value) for c in "/\\\0"):
            return f"{name} {value!r}, which must not contain '/', '\\' or NUL"
    if str(session_id).startswith("#") or any(c in str(session_id) for c in ',"\r\n'):
        return (f"session_id {session_id!r}, which must not start with '#'"
                " or contain ',', '\"', CR or LF")
    if "\r" in str(user_id):
        return f"user_id {user_id!r}, which must not contain CR"
    return None


def read_session(directory: str) -> Session:
    meta_path = os.path.join(directory, "meta.json")
    meta = _read_json(meta_path, ("user_id", "session_id", "condition"))
    problem = id_problem(meta["user_id"], meta["session_id"])
    if problem:
        raise ParseError(f"{meta_path}: {problem}")
    try:
        condition = Condition(meta["condition"])
    except ValueError:
        raise ParseError(f"{meta_path}: unknown condition {meta['condition']!r}") from None
    rates = meta.get("nominal_rate_hz", {})
    tags = {sensor.value for sensor in Sensor}
    if not isinstance(rates, dict) or not all(
            tag in tags and isinstance(value, (int, float))
            and not isinstance(value, bool) and math.isfinite(value) and value > 0
            for tag, value in rates.items()):
        raise ParseError(f"{meta_path}: nominal_rate_hz must map sensor tags to "
                         f"positive finite rates, got {rates!r}")
    rate = next(iter(rates.values()), DEFAULT_RATE_HZ)
    session = parse_session(
        os.path.join(directory, "sensor.csv"),
        os.path.join(directory, "touch.csv"),
        os.path.join(directory, "keys.csv"),
        taps_path=os.path.join(directory, "taps.csv"),
        # an integer id reads as its string, as ingest writes it
        user_id=str(meta["user_id"]),
        session_id=str(meta["session_id"]),
        condition=condition,
        nominal_rate_hz=rate,
    )
    # restore per-sensor rates (parse_session applies a single figure)
    for tag, value in rates.items():
        sensor = Sensor(tag)
        if sensor in session.streams:
            session.streams[sensor].nominal_rate_hz = value
    return session


def save_corpus(sessions: list[Session], root: str) -> None:
    os.makedirs(root, exist_ok=True)
    index = []
    for session in sorted(sessions, key=lambda s: (s.user_id, s.session_id)):
        rel = f"{session.user_id}_{session.session_id}"
        write_session(session, os.path.join(root, rel))
        index.append({
            "user_id": session.user_id,
            "session_id": session.session_id,
            "condition": session.condition.value,
            "path": rel,
        })
    with open(os.path.join(root, "index.json"), "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "sessions": index}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_corpus(root: str) -> list[Session]:
    index_path = os.path.join(root, "index.json")
    if not os.path.exists(index_path):
        raise ParseError(f"{root}: missing index.json")
    sessions = _read_json(index_path, ("sessions",))["sessions"]
    if not isinstance(sessions, list) or not all(
            isinstance(entry, dict) and isinstance(entry.get("path"), str)
            for entry in sessions):
        raise ParseError(f"{index_path}: every session entry needs a \"path\"")
    return [read_session(os.path.join(root, entry["path"])) for entry in sessions]
