import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from hmogkit.corpus.io import (
    ParseError,
    load_corpus,
    parse_mapping,
    parse_session,
    read_session,
    save_corpus,
    write_session,
)
from hmogkit.corpus.synth import make_corpus, make_profiles
from hmogkit.corpus.types import (
    CorpusError,
    SensorStream,
    Session,
    TapTable,
    downsample,
)
from hmogkit.hmog import _channel_block
from oracles import slice_span
from tables import key_table, tap_table, table_equal


def make_stream(t, values, rate=100.0):
    return SensorStream(nominal_rate_hz=rate,
                        t_ms=np.asarray(t), values=np.asarray(values, dtype=float))


def make_tap(tap_id, start, end, size=0.5, t_samples=None):
    t = [start] if t_samples is None else t_samples
    return (tap_id, start, end, t, np.tile([100.0, 200.0], (len(t), 1)), np.full(len(t), size))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_stream_rejects_nonmonotone_timestamps():
    with pytest.raises(CorpusError, match="strictly increasing"):
        make_stream([0, 10, 10], np.zeros((3, 3)))
    with pytest.raises(CorpusError, match="strictly increasing"):
        make_stream([0, 20, 10], np.zeros((3, 3)))


def test_stream_rejects_bad_shape_and_rate():
    with pytest.raises(CorpusError, match=r"\(n, 3\)"):
        make_stream([0, 10], np.zeros((2, 2)))
    with pytest.raises(CorpusError, match="length mismatch"):
        make_stream([0, 10, 20], np.zeros((2, 3)))
    with pytest.raises(CorpusError, match="positive"):
        make_stream([0], np.zeros((1, 3)), rate=0.0)


def test_channel_matrix_magnitude():
    # extraction's channel block: x, y, z, magnitude, then a -0.0 row
    s = make_stream([0, 10], [[3, 4, 0], [1, 2, 2]])
    m = _channel_block(s.values)
    assert m.shape == (3, 4)
    assert m[0, 3] == pytest.approx(5.0)
    assert m[1, 3] == pytest.approx(3.0)
    assert np.array_equal(m[:2, :3], s.values)
    assert np.all(m[2] == 0.0) and np.all(np.signbit(m[2]))


def test_channel_block_magnitude_bit_equal_to_numpy_sum():
    # the left-to-right sum of squares against NumPy's reduction over a row
    rng = np.random.default_rng(12)
    values = rng.normal(0, 1, (20_000, 3)) * 10.0 ** rng.integers(-8, 9, (20_000, 1))
    expected = np.sqrt(np.sum(values ** 2, axis=1))
    assert _channel_block(values)[:-1, 3].tobytes() == expected.tobytes()


def test_slice_span_endpoint_modes():
    t = np.array([0, 10, 20, 30])
    assert list(t[slice_span(t, 10, 20, True, True)]) == [10, 20]
    assert list(t[slice_span(t, 10, 20, False, True)]) == [20]
    assert list(t[slice_span(t, 10, 20, True, False)]) == [10]
    assert list(t[slice_span(t, 10, 20, False, False)]) == []
    # empty span collapses rather than producing a negative slice
    sl = slice_span(t, 25, 15, True, True)
    assert sl.stop == sl.start


def test_downsample_every_kth_from_zero():
    s = make_stream(np.arange(0, 100, 10), np.arange(30).reshape(10, 3))
    d = downsample(s, 3)
    assert list(d.t_ms) == [0, 30, 60, 90]
    assert d.nominal_rate_hz == pytest.approx(100.0 / 3)
    np.testing.assert_array_equal(d.values, s.values[::3])


def test_downsample_composition():
    s = make_stream(np.arange(0, 600, 10), np.random.default_rng(0).normal(size=(60, 3)))
    a = downsample(downsample(s, 2), 3)
    b = downsample(s, 6)
    np.testing.assert_array_equal(a.t_ms, b.t_ms)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.nominal_rate_hz == pytest.approx(b.nominal_rate_hz)


def test_downsample_rejects_bad_factor():
    s = make_stream([0, 10], np.zeros((2, 3)))
    for k in (0, -1, 1.5, True):
        with pytest.raises(CorpusError):
            downsample(s, k)


def test_downsample_values_are_a_read_only_view():
    s = make_stream(np.arange(0, 100, 10), np.arange(30).reshape(10, 3))
    d = downsample(s, 3)
    assert np.shares_memory(d.values, s.values)
    with pytest.raises(ValueError):
        d.values[0, 0] = 1.0
    assert s.values.flags.writeable
    # the timestamps are a contiguous array of their own
    assert not np.shares_memory(d.t_ms, s.t_ms)
    assert d.t_ms.flags.c_contiguous and d.t_ms.flags.owndata


def test_downsample_allocates_only_the_timestamps():
    # a 60 s stream at 100 Hz: what downsample leaves allocated is its
    # 24 kB of timestamps; a copy of the values would add 72 kB
    t = np.arange(0, 60_000, 10)
    s = make_stream(t, np.random.default_rng(0).normal(size=(len(t), 3)))
    tracemalloc.start()
    try:
        d = downsample(s, 2)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    slack = 4096
    assert live < d.t_ms.nbytes + slack < d.t_ms.nbytes + d.values.nbytes


def test_tap_table_validation():
    with pytest.raises(CorpusError, match="tap 1: end before start"):
        tap_table([make_tap(1, 100, 90)])
    with pytest.raises(CorpusError, match="tap 1: samples outside tap interval"):
        tap_table([make_tap(1, 100, 200, t_samples=[99])])
    with pytest.raises(CorpusError, match="tap 1: negative contact size"):
        tap_table([make_tap(1, 100, 200, size=-0.1)])
    with pytest.raises(CorpusError, match="tap 1: zero touch samples"):
        tap_table([make_tap(1, 100, 200, t_samples=[])])
    with pytest.raises(CorpusError, match="tap 2: touch samples out of order"):
        tap_table([make_tap(1, 100, 200), make_tap(2, 300, 400, t_samples=[350, 340])])
    # a sample earlier than the previous tap's last one is in order
    taps = tap_table([make_tap(1, 100, 200, t_samples=[100, 190]),
                      make_tap(2, 150, 400, t_samples=[160, 170])])
    assert taps.offsets.tolist() == [0, 2, 4]


def test_tap_table_names_first_offending_tap():
    # tap 9 fails a later check than tap 4 does; the first tap is named,
    # by its own first failing check
    taps = [make_tap(9, 100, 200, size=-1.0, t_samples=[150, 120]),
            make_tap(4, 300, 250), make_tap(6, 500, 600)]
    with pytest.raises(CorpusError, match=r"^tap 9: touch samples out of order$"):
        tap_table(taps)
    with pytest.raises(CorpusError, match=r"^tap 4: end before start$"):
        tap_table(taps[1:])


def test_tap_table_rejects_misshapen_columns():
    columns = dict(tap_id=[1], t_start_ms=[100], t_end_ms=[200], offsets=[0, 1],
                   t_samples=[100], xy_px=[[0.0, 0.0]], contact_size=[0.5])
    assert len(TapTable(**columns)) == 1
    for bad in ({"offsets": [0]}, {"offsets": [1, 1]}, {"offsets": []},
                {"t_end_ms": [200, 300]}, {"contact_size": [0.5, 0.6]}):
        with pytest.raises(CorpusError, match="taps: column lengths disagree with offsets"):
            TapTable(**{**columns, **bad})
    empty = TapTable()
    assert len(empty) == 0 and empty.offsets.tolist() == [0] and empty.xy_px.shape == (0, 2)


def test_key_table():
    keys = key_table([("a", 100, 160), ("b", 200, 200)])
    assert len(keys) == 2 and keys.key.tolist() == ["a", "b"]
    assert (keys.t_release_ms - keys.t_press_ms).tolist() == [60, 0]
    with pytest.raises(CorpusError, match="key 'b': release before press"):
        key_table([("a", 100, 160), ("b", 200, 190), ("c", 300, 290)])


def test_session_validate_rejects_overlapping_taps():
    with pytest.raises(CorpusError, match="taps overlap or out of order at tap 2"):
        Session(user_id="u", session_id="s", condition="sitting",
                taps=tap_table([make_tap(1, 100, 250), make_tap(2, 250, 400)]))
    Session(user_id="u", session_id="s", condition="sitting",
            taps=tap_table([make_tap(1, 100, 250), make_tap(2, 251, 400)]))


def test_session_validate_rejects_unsorted_keys():
    with pytest.raises(CorpusError, match="out of order"):
        Session(user_id="u", session_id="s", condition="sitting",
                keys=key_table([("a", 200, 260), ("b", 100, 160)]))


def test_session_rejects_unknown_condition_and_stream_key():
    with pytest.raises(CorpusError, match="^unknown condition 'running'$"):
        Session(user_id="u", session_id="s", condition="running")
    with pytest.raises(CorpusError, match="^unknown sensor 'baro'$"):
        Session(user_id="u", session_id="s", condition="sitting",
                streams={"baro": make_stream([0, 10], np.zeros((2, 3)))})


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def write_raw(tmp_path, sensor_rows, touch_rows, key_rows, taps_rows=None,
              sensor_header="session_id,sensor,t_ms,x,y,z",
              touch_header="session_id,tap_id,t_ms,x_px,y_px,contact_size"):
    sensor = tmp_path / "sensor.csv"
    sensor.write_text(sensor_header + "\n" + "".join(r + "\n" for r in sensor_rows))
    touch = tmp_path / "touch.csv"
    touch.write_text(touch_header + "\n" + "".join(r + "\n" for r in touch_rows))
    keys = tmp_path / "keys.csv"
    keys.write_text("session_id,key_code,t_press_ms,t_release_ms\n"
                    + "".join(r + "\n" for r in key_rows))
    taps = None
    if taps_rows is not None:
        taps = tmp_path / "taps.csv"
        taps.write_text("session_id,tap_id,t_start_ms,t_end_ms\n"
                        + "".join(r + "\n" for r in taps_rows))
    return sensor, touch, keys, taps


def test_parse_session_roundtrip_values(tmp_path):
    sensor, touch, keys, taps = write_raw(
        tmp_path,
        ["s1,acc,0,0.1,0.2,9.8", "s1,acc,10,0.1,0.2,9.8", "s1,gyr,0,0,0,0.01"],
        ["s1,1,100,540.5,960.25,0.5", "s1,1,110,541.0,961.0,0.55"],
        ["s1,a,50,120", "s1,b,300,390"],
        ["s1,1,95,130"],
    )
    session = parse_session(str(sensor), str(touch), str(keys),
                            user_id="u1", session_id="s1", condition="sitting",
                            taps_path=str(taps))
    assert set(session.streams) == {"acc", "gyr"}
    assert list(session.streams["acc"].t_ms) == [0, 10]
    taps = session.taps
    assert (taps.t_start_ms.tolist(), taps.t_end_ms.tolist()) == ([95], [130])
    assert taps.xy_px[0, 0] == pytest.approx(540.5)
    assert session.keys.key.tolist() == ["a", "b"]


def test_parse_session_tap_bounds_from_samples(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,acc,0,0,0,9.8"],
        ["s1,7,100,1,2,0.4", "s1,7,140,1,2,0.5"],
        [],
    )
    session = parse_session(str(sensor), str(touch), str(keys),
                            user_id="u", session_id="s1", condition="sitting")
    assert (session.taps.t_start_ms.tolist(), session.taps.t_end_ms.tolist()) == ([100], [140])


def test_parse_orders_taps_by_start_and_keeps_sample_order(tmp_path):
    # tap 2 is listed first but starts after tap 5, and their samples
    # interleave; tap 9 takes its bounds from taps.csv, the others from
    # their samples
    sensor, touch, keys, taps = write_raw(
        tmp_path,
        ["s1,acc,0,0,0,9.8"],
        ["s1,2,300,1,1,0.5", "s1,5,100,2,2,0.4", "s1,2,320,3,3,0.6",
         "s1,5,140,4,4,0.45", "s1,9,500,5,5,0.3"],
        [],
        ["s1,9,480,520"],
    )
    got = parse_session(str(sensor), str(touch), str(keys), user_id="u", session_id="s1",
                        condition="sitting", taps_path=str(taps)).taps
    assert table_equal(got, tap_table([
        (5, 100, 140, [100, 140], [[2, 2], [4, 4]], [0.4, 0.45]),
        (2, 300, 320, [300, 320], [[1, 1], [3, 3]], [0.5, 0.6]),
        (9, 480, 520, [500], [[5, 5]], [0.3])]))


def test_parse_fractional_timestamps_floored(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,acc,0.9,0,0,9.8", "s1,acc,10.2,0,0,9.8"],
        ["s1,1,100.7,1,2,0.4"],
        ["s1,a,50.99,120.01"],
    )
    session = parse_session(str(sensor), str(touch), str(keys),
                            user_id="u", session_id="s1", condition="sitting")
    assert list(session.streams["acc"].t_ms) == [0, 10]
    assert session.taps.t_start_ms.tolist() == [100]
    assert (session.keys.t_press_ms.tolist(), session.keys.t_release_ms.tolist()) == ([50], [120])


@pytest.mark.parametrize("touch_row, message", [
    ("s1,99999999999999999999,100,1,2,0.4", r"touch\.csv:2: bad tap_id '99999999999999999999'"),
    ("s1,1,1e19,1,2,0.4", r"touch\.csv:2: bad timestamp '1e19'"),
])
def test_parse_rejects_values_past_int64(tmp_path, touch_row, message):
    sensor, touch, keys, _ = write_raw(tmp_path, ["s1,acc,0,0,0,9.8"], [touch_row], [])
    with pytest.raises(ParseError, match=message):
        parse_session(str(sensor), str(touch), str(keys),
                      user_id="u", session_id="s1", condition="sitting")


def test_parse_error_carries_file_and_line(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,acc,0,0,0,9.8", "s1,acc,5,bad,0,9.8"],
        ["s1,1,100,1,2,0.4"],
        [],
    )
    with pytest.raises(ParseError, match=r"sensor\.csv:3.*bad number"):
        parse_session(str(sensor), str(touch), str(keys),
                      user_id="u", session_id="s1", condition="sitting")


def test_parse_error_line_counts_comment_lines(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,acc,0,0,0,9.8", "s1,acc,5,bad,0,9.8"],
        ["s1,1,100,1,2,0.4"],
        [],
        sensor_header="# recorded at 100 Hz\n# device A\n#\nsession_id,sensor,t_ms,x,y,z",
    )
    with pytest.raises(ParseError, match=r"sensor\.csv:6: bad number 'bad'"):
        parse_session(str(sensor), str(touch), str(keys),
                      user_id="u", session_id="s1", condition="sitting")


@pytest.mark.parametrize("text, t_ms", [
    ("9007199254740993", 2 ** 53 + 1),  # a float rounds it to 2**53
    ("9223372036854775807", 2 ** 63 - 1),
    ("9223372036854775808", None),
    ("nan", None),
    ("-0.5", None),
    ("12.7", 12),
    ("1e3", 1000),
])
def test_parse_sensor_timestamps_exactly(tmp_path, text, t_ms):
    sensor, touch, keys, _ = write_raw(tmp_path, [f"s1,acc,{text},0,0,9.8"],
                                       ["s1,1,100,1,2,0.4"], [])

    def parse():
        return parse_session(str(sensor), str(touch), str(keys),
                             user_id="u", session_id="s1", condition="sitting")
    if t_ms is None:
        with pytest.raises(ParseError, match=rf"sensor\.csv:2: (bad|negative) timestamp '{text}'"):
            parse()
    else:
        assert parse().streams["acc"].t_ms.tolist() == [t_ms]


@pytest.mark.parametrize("field, x", [
    ("1_0", 10.0),
    (" 1.5", 1.5),
    ("1.5 ", 1.5),
    ('"1.5"', 1.5),
    ("+2", 2.0),
    ("\u0661\u0662", 12.0),  # Arabic-Indic digits
    ("-0.0", -0.0),
    ("1e-320", 1e-320),  # subnormal
    ("1e400", math.inf),
    ("inf", math.inf),
    ("infinity", math.inf),
    ("-inf", -math.inf),
    ("nan", math.nan),
    ("NaN", math.nan),
    ("0x1p3", None),
    ("", None),
])
def test_parse_sensor_value_strings(tmp_path, field, x):
    # the strings a value column accepts, and the float each one reads as
    sensor, touch, keys, _ = write_raw(tmp_path, [f"s1,acc,0,{field},0,9.8"],
                                       ["s1,1,100,1,2,0.4"], [])

    def parse():
        return parse_session(str(sensor), str(touch), str(keys),
                             user_id="u", session_id="s1", condition="sitting")
    if x is None:
        with pytest.raises(ParseError, match=re.escape(f"sensor.csv:2: bad number {field!r}")):
            parse()
        return
    got = parse().streams["acc"].values[0, 0]
    if math.isnan(x):
        assert np.isnan(got)
    else:
        assert got == x and np.signbit(got) == np.signbit(x)


def test_parse_rejects_nonmonotone_sensor_rows(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,acc,10,0,0,9.8", "s1,acc,10,0,0,9.8"],
        ["s1,1,100,1,2,0.4"],
        [],
    )
    with pytest.raises(ParseError, match="non-monotone"):
        parse_session(str(sensor), str(touch), str(keys),
                      user_id="u", session_id="s1", condition="sitting")


def test_parse_missing_column(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,acc,0,0,0"],
        ["s1,1,100,1,2,0.4"],
        [],
        sensor_header="session_id,sensor,t_ms,x,y",
    )
    with pytest.raises(ParseError, match="missing column 'z'"):
        parse_session(str(sensor), str(touch), str(keys),
                      user_id="u", session_id="s1", condition="sitting")


def test_mapping_renames_columns(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,acc,0,1,2,3"],
        ["s1,1,100,1,2,0.4"],
        [],
        sensor_header="session_id,sensor,time,x,y,z",
    )
    mapping = parse_mapping("t_ms = time  # source uses 'time'\n")
    session = parse_session(str(sensor), str(touch), str(keys),
                            user_id="u", session_id="s1", condition="sitting",
                            mapping=mapping)
    assert list(session.streams["acc"].t_ms) == [0]


def test_parse_mapping_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_mapping("no separator here")
    with pytest.raises(ParseError, match="empty column"):
        parse_mapping("t_ms =")
    assert parse_mapping("# only a comment\n\n") == {}


def test_unknown_sensor_tag(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,baro,0,1,2,3"],
        ["s1,1,100,1,2,0.4"],
        [],
    )
    with pytest.raises(ParseError, match="unknown sensor tag 'baro'"):
        parse_session(str(sensor), str(touch), str(keys),
                      user_id="u", session_id="s1", condition="sitting")


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def session_equal(a: Session, b: Session) -> bool:
    if (a.user_id, a.session_id, a.condition) != (b.user_id, b.session_id, b.condition):
        return False
    if set(a.streams) != set(b.streams):
        return False
    for sensor in a.streams:
        sa, sb = a.streams[sensor], b.streams[sensor]
        if not (np.array_equal(sa.t_ms, sb.t_ms) and np.array_equal(sa.values, sb.values)
                and sa.nominal_rate_hz == sb.nominal_rate_hz):
            return False
    return table_equal(a.taps, b.taps) and table_equal(a.keys, b.keys)


def test_write_read_session_roundtrip(tmp_path, mini_sessions):
    session = mini_sessions[0]
    write_session(session, str(tmp_path / "sess"))
    back = read_session(str(tmp_path / "sess"))
    assert session_equal(session, back)


def test_save_load_corpus_roundtrip(tmp_path, mini_sessions):
    save_corpus(mini_sessions, str(tmp_path / "corpus"))
    back = load_corpus(str(tmp_path / "corpus"))
    assert len(back) == len(mini_sessions)
    by_key = {(s.user_id, s.session_id): s for s in mini_sessions}
    for session in back:
        assert session_equal(by_key[(session.user_id, session.session_id)], session)


def test_key_codes_with_csv_specials_roundtrip(tmp_path):
    session = Session(user_id="u", session_id="s1", condition="sitting",
                      keys=key_table([(",", 100, 160), ('"', 200, 250), ("a b", 300, 390)]))
    write_session(session, str(tmp_path / "sess"))
    back = read_session(str(tmp_path / "sess"))
    assert back.keys.key.tolist() == [",", '"', "a b"]
    assert session_equal(session, back)


def test_write_session_refuses_comment_session_id(tmp_path, mini_sessions):
    # a leading '#' would make every row of the session's files a comment
    session = dataclasses.replace(mini_sessions[0], session_id="#s1")
    with pytest.raises(CorpusError, match="session_id '#s1'"):
        write_session(session, str(tmp_path / "sess"))
    assert not (tmp_path / "sess").exists()


def tree_digest(root) -> str:
    """sha256 over the relative path and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_save_corpus_bytes_pinned(tmp_path):
    # any change to what the generator draws or how sessions are written
    # moves this hash; recorded on NumPy 2.4.6
    profiles = make_profiles(1, "sitting", 5, sessions=2, session_seconds=10.0)
    sessions = make_corpus(profiles, 5)
    assert all(len(s.taps) > 5 and len(s.keys) > 5 for s in sessions)
    save_corpus(sessions, str(tmp_path))
    assert tree_digest(tmp_path) == \
        "b456dd019bba01a9bf06a423cd981556ec8038f164fac269bf03c4772fd51bcb"


def test_load_corpus_requires_index(tmp_path):
    with pytest.raises(ParseError, match="missing index.json"):
        load_corpus(str(tmp_path))
