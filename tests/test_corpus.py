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
from hmogkit.corpus.types import (
    CorpusError,
    Condition,
    KeyEvent,
    Sensor,
    SensorStream,
    Session,
    TapEvent,
    downsample,
)
from oracles import slice_span


def make_stream(t, values, sensor=Sensor.ACC, rate=100.0):
    return SensorStream(sensor=sensor, nominal_rate_hz=rate,
                        t_ms=np.asarray(t), values=np.asarray(values, dtype=float))


def make_tap(tap_id, start, end, size=0.5):
    return TapEvent(tap_id=tap_id, t_start_ms=start, t_end_ms=end,
                    t_samples=np.array([start]), xy_px=np.array([[100.0, 200.0]]),
                    contact_size=np.array([size]))


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
    s = make_stream([0, 10], [[3, 4, 0], [1, 2, 2]])
    m = s.channel_matrix()
    assert m.shape == (2, 4)
    assert m[0, 3] == pytest.approx(5.0)
    assert m[1, 3] == pytest.approx(3.0)


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
    for k in (0, -1, 1.5):
        with pytest.raises(CorpusError):
            downsample(s, k)


def test_tap_event_validation():
    with pytest.raises(CorpusError, match="end before start"):
        make_tap(1, 100, 90)
    with pytest.raises(CorpusError, match="outside tap interval"):
        TapEvent(tap_id=1, t_start_ms=100, t_end_ms=200,
                 t_samples=np.array([99]), xy_px=np.array([[0.0, 0.0]]),
                 contact_size=np.array([0.5]))
    with pytest.raises(CorpusError, match="negative contact"):
        make_tap(1, 100, 200, size=-0.1)
    assert make_tap(1, 100, 230).duration_ms == 130


def test_key_event():
    assert KeyEvent("a", 100, 160).hold_ms == 60
    with pytest.raises(CorpusError, match="release before press"):
        KeyEvent("a", 100, 90)


def test_session_validate_rejects_overlapping_taps():
    s = Session(user_id="u", session_id="s", condition=Condition.SITTING,
                taps=[make_tap(1, 100, 250), make_tap(2, 250, 400)])
    with pytest.raises(CorpusError, match="overlap"):
        s.validate()
    ok = Session(user_id="u", session_id="s", condition=Condition.SITTING,
                 taps=[make_tap(1, 100, 250), make_tap(2, 251, 400)])
    assert ok.validate() is ok


def test_session_validate_rejects_unsorted_keys():
    s = Session(user_id="u", session_id="s", condition=Condition.SITTING,
                keys=[KeyEvent("a", 200, 260), KeyEvent("b", 100, 160)])
    with pytest.raises(CorpusError, match="out of order"):
        s.validate()


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
    assert set(session.streams) == {Sensor.ACC, Sensor.GYR}
    assert list(session.streams[Sensor.ACC].t_ms) == [0, 10]
    tap = session.taps[0]
    assert (tap.t_start_ms, tap.t_end_ms) == (95, 130)
    assert tap.xy_px[0, 0] == pytest.approx(540.5)
    assert [k.key for k in session.keys] == ["a", "b"]


def test_parse_session_tap_bounds_from_samples(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,acc,0,0,0,9.8"],
        ["s1,7,100,1,2,0.4", "s1,7,140,1,2,0.5"],
        [],
    )
    session = parse_session(str(sensor), str(touch), str(keys),
                            user_id="u", session_id="s1", condition="sitting")
    assert (session.taps[0].t_start_ms, session.taps[0].t_end_ms) == (100, 140)


def test_parse_fractional_timestamps_floored(tmp_path):
    sensor, touch, keys, _ = write_raw(
        tmp_path,
        ["s1,acc,0.9,0,0,9.8", "s1,acc,10.2,0,0,9.8"],
        ["s1,1,100.7,1,2,0.4"],
        ["s1,a,50.99,120.01"],
    )
    session = parse_session(str(sensor), str(touch), str(keys),
                            user_id="u", session_id="s1", condition="sitting")
    assert list(session.streams[Sensor.ACC].t_ms) == [0, 10]
    assert session.taps[0].t_start_ms == 100
    assert (session.keys[0].t_press_ms, session.keys[0].t_release_ms) == (50, 120)


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
    assert list(session.streams[Sensor.ACC].t_ms) == [0]


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
    if len(a.taps) != len(b.taps) or len(a.keys) != len(b.keys):
        return False
    for ta, tb in zip(a.taps, b.taps):
        if (ta.tap_id, ta.t_start_ms, ta.t_end_ms) != (tb.tap_id, tb.t_start_ms, tb.t_end_ms):
            return False
        if not (np.array_equal(ta.t_samples, tb.t_samples)
                and np.array_equal(ta.xy_px, tb.xy_px)
                and np.array_equal(ta.contact_size, tb.contact_size)):
            return False
    return a.keys == b.keys


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


def test_load_corpus_requires_index(tmp_path):
    with pytest.raises(ParseError, match="missing index.json"):
        load_corpus(str(tmp_path))
