"""Tap-window features: resistance, stability, between-tap blocks."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmogkit.corpus.types import (
    AXES, Condition, SENSOR_ORDER, Sensor, SensorStream, Session, downsample)
from hmogkit.hmog import (
    BETWEEN_BLOCK_MS,
    FEATURE_NAMES,
    RESISTANCE_FAMILIES,
    STABILITY_FAMILIES,
    _WINDOW_BYTES,
    _between_bounds,
    _clock_groups,
    _event_chunks,
    _first_match,
    _window_bounds,
    extract_hmog,
    feature_names_for,
)
from oracles import (
    channel_matrix, extract_hmog_oracle, resistance_block, stability_block, t_min,
    t_min_index, t_min_oracle)
from labels import session_ids, user_ids
from tables import tap_table


def make_tap(tap_id, t_start, t_end):
    return (tap_id, t_start, t_end, [t_start, t_end], np.zeros((2, 2)), np.full(2, 0.1))


def clock_session(clocks, taps, seed=0, rate_hz=100.0):
    """One stream per sensor on the t_ms array clocks[sensor]."""
    rng = np.random.default_rng(seed)
    streams = {}
    for sensor, t in clocks.items():
        t = np.asarray(t, dtype=np.int64)
        streams[sensor] = SensorStream(sensor=sensor, nominal_rate_hz=rate_hz, t_ms=t,
                                       values=rng.normal(0, 1, (len(t), 3)))
    return Session(user_id="u1", session_id="s01", condition=Condition.SITTING,
                   streams=streams, taps=tap_table(taps))


def grid_session(step_ms, total_ms, taps, seed=0, short_mag_ms=None):
    """All three sensors on one timestamp grid; mag optionally truncated."""
    t = np.arange(0, total_ms + 1, step_ms, dtype=np.int64)
    clocks = {sensor: t for sensor in SENSOR_ORDER}
    if short_mag_ms is not None:
        clocks[Sensor.MAG] = t[t <= short_mag_ms]
    return clock_session(clocks, taps, seed, rate_hz=1000.0 / step_ms)


# ---------------------------------------------------------------- names

def test_feature_name_count_and_split():
    assert len(FEATURE_NAMES) == 96
    assert len(set(FEATURE_NAMES)) == 96
    assert sum(1 for n in FEATURE_NAMES if n.rsplit("_", 1)[1].startswith("res")) == 60
    assert sum(1 for n in FEATURE_NAMES if n.rsplit("_", 1)[1].startswith("stab")) == 36


def test_feature_name_order_family_major():
    # family blocks of 12, each sensor-major then channel
    assert FEATURE_NAMES[0] == "acc_x_res1"
    assert FEATURE_NAMES[3] == "acc_m_res1"
    assert FEATURE_NAMES[4] == "gyr_x_res1"
    assert FEATURE_NAMES[11] == "mag_m_res1"
    assert FEATURE_NAMES[12] == "acc_x_res2"
    assert FEATURE_NAMES[60] == "acc_x_stab1"
    assert FEATURE_NAMES[-1] == "mag_m_stab3"
    families = RESISTANCE_FAMILIES + STABILITY_FAMILIES
    idx = 0
    for family in families:
        for sensor in SENSOR_ORDER:
            for axis in AXES:
                assert FEATURE_NAMES[idx] == f"{sensor.value}_{axis}_{family}"
                idx += 1


def test_feature_names_for_subset():
    acc_only = feature_names_for(["acc"])
    assert len(acc_only) == 32
    assert all(n.startswith("acc_") for n in acc_only)
    # order preserved relative to the full tuple
    pos = [FEATURE_NAMES.index(n) for n in acc_only]
    assert pos == sorted(pos)
    assert feature_names_for(SENSOR_ORDER) == FEATURE_NAMES
    assert feature_names_for([Sensor.GYR]) == feature_names_for(["gyr"])


# ---------------------------------------------------------------- resistance

def test_resistance_block_hand_values():
    before = np.array([1.0, 1.0])
    during = np.array([2.0, 4.0])
    after = np.array([3.0])
    out = resistance_block(before, during, after)
    # mean 3, population std 1, after-before 2, tap-before 2, max-before 3
    assert_allclose(out, [3.0, 1.0, 2.0, 2.0, 3.0])


def test_resistance_block_per_channel_columns():
    before = np.array([[1.0, 10.0], [1.0, 10.0]])
    during = np.array([[2.0, 20.0], [4.0, 40.0]])
    after = np.array([[3.0, 30.0]])
    out = resistance_block(before, during, after)
    assert out.shape == (5, 2)
    assert_allclose(out[:, 0], [3.0, 1.0, 2.0, 2.0, 3.0])
    assert_allclose(out[:, 1], [30.0, 10.0, 20.0, 20.0, 30.0])


def test_resistance_block_offset_invariance():
    rng = np.random.default_rng(3)
    before = rng.normal(0, 1, 7)
    during = rng.normal(0, 1, 9)
    after = rng.normal(0, 1, 5)
    base = resistance_block(before, during, after)
    shifted = resistance_block(before + 4.5, during + 4.5, after + 4.5)
    # only the raw mean moves with a constant offset
    assert_allclose(shifted[0], base[0] + 4.5, atol=1e-12)
    assert_allclose(shifted[1:], base[1:], atol=1e-12)


# ---------------------------------------------------------------- settle time

def test_t_min_index_hand_case():
    # suffix means 1.5, 1, 0.5, 0 -> last index
    assert t_min_index(np.array([4.0, 3.0, 2.0, 1.0]), 1.0) == 3


def test_t_min_index_tie_takes_earliest():
    # diffs 2,0,0: suffix means 2/3, 0, 0 -> tie between 1 and 2
    assert t_min_index(np.array([3.0, 1.0, 1.0]), 1.0) == 1
    assert t_min_index(np.array([5.0, 5.0]), 5.0) == 0


def test_t_min_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = rng.integers(1, 40)
        t_post = np.cumsum(rng.integers(5, 30, n)).astype(np.int64)
        z = rng.normal(0, 1, n)
        avg = rng.normal(0, 1)
        assert t_min(t_post, z, avg) == t_min_oracle(t_post, z, avg)


def test_t_min_empty_window_raises():
    with pytest.raises(ValueError):
        t_min(np.array([], dtype=np.int64), np.array([]), 0.0)


def test_t_min_index_per_channel():
    z = np.array([[4.0, 1.0], [1.0, 4.0]])
    idx = t_min_index(z, np.array([1.0, 1.0]))
    assert list(idx) == [1, 0]


def test_first_match_is_argmax_and_argmin():
    # values from a small set, so columns tie, with NaN, inf and -inf cells
    rng = np.random.default_rng(12)
    values = rng.choice([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf, np.nan],
                        (9, 40, 5), p=[0.1, 0.2, 0.15, 0.15, 0.2, 0.1, 0.1])
    assert np.isnan(values.max(axis=0)).any() and not np.isnan(values.max(axis=0)).all()
    assert (_first_match(values, values.max(axis=0)) == values.argmax(axis=0)).all()
    assert (_first_match(values, values.min(axis=0)) == values.argmin(axis=0)).all()


# ---------------------------------------------------------------- stability

def test_stability_block_hand_values():
    out = stability_block(
        t_start=1000, t_end=1130,
        before=np.array([1.0, 1.0]),
        during=np.array([2.0, 4.0]), t_during=np.array([1000, 1100]),
        after100=np.array([3.0]),
        t_post=np.array([1200, 1300]), z_post=np.array([3.0, 1.0]),
    )
    # settle: suffix means 1, 0 -> index 1 -> 1300 - 1130 = 170
    # centers 950 and 1180; dens 3-1=2 and 3-4=-1
    assert_allclose(out, [170.0, 115.0, -80.0])


def test_stability_block_zero_denominators_nan():
    out = stability_block(
        t_start=1000, t_end=1100,
        before=np.array([1.0, 1.0]),
        during=np.array([1.0, 1.0]), t_during=np.array([1000, 1100]),
        after100=np.array([1.0]),
        t_post=np.array([1150, 1250]), z_post=np.array([1.0, 1.0]),
    )
    assert out[0] == 50.0  # settle still defined: earliest index, t 1150
    assert np.isnan(out[1]) and np.isnan(out[2])


def test_stability_block_nan_isolated_per_channel():
    # channel 0 degenerate, channel 1 fine
    out = stability_block(
        t_start=1000, t_end=1100,
        before=np.array([[1.0, 1.0], [1.0, 1.0]]),
        during=np.array([[1.0, 2.0], [1.0, 4.0]]),
        t_during=np.array([1000, 1100]),
        after100=np.array([[1.0, 3.0]]),
        t_post=np.array([1150, 1250]),
        z_post=np.array([[1.0, 3.0], [1.0, 1.0]]),
    )
    assert np.isnan(out[1, 0]) and np.isnan(out[2, 0])
    assert np.isfinite(out[1, 1]) and np.isfinite(out[2, 1])
    assert_allclose(out[1, 1], 200.0 / 2.0)
    assert_allclose(out[2, 1], 50.0 / -1.0)


def test_stability_block_offset_invariance():
    rng = np.random.default_rng(5)
    before = rng.normal(0, 1, 7)
    during = rng.normal(0, 1, 9)
    t_during = np.arange(1000, 1090, 10)
    after100 = rng.normal(0, 1, 5)
    t_post = np.arange(1100, 1300, 10)
    z_post = rng.normal(0, 1, len(t_post))
    base = stability_block(1000, 1090, before, during, t_during, after100, t_post, z_post)
    off = stability_block(1000, 1090, before + 2.25, during + 2.25, t_during,
                          after100 + 2.25, t_post, z_post + 2.25)
    assert_allclose(off, base, atol=1e-9)


# ---------------------------------------------------------------- between blocks

def between_blocks(bounds, duration_ms=BETWEEN_BLOCK_MS):
    """_between_bounds of taps given as (start, end) pairs, as a list."""
    starts, ends = np.array(bounds, dtype=np.int64).reshape(-1, 2).T
    lo, hi = _between_bounds(starts, ends, duration_ms)
    return list(zip(lo.tolist(), hi.tolist()))


def test_between_blocks_gap_1000():
    blocks = between_blocks([(1000, 2000), (3000, 3100)])
    # usable span [2300, 2700): four 91 ms blocks
    assert blocks == [(2300, 2391), (2391, 2482), (2482, 2573), (2573, 2664)]
    assert all(hi <= 2700 for _, hi in blocks)


def test_between_blocks_gap_too_small():
    assert between_blocks([(1000, 2000), (2650, 2750)]) == []
    # negative usable span must not produce blocks either
    assert between_blocks([(1000, 2000), (2400, 2500)]) == []


def test_between_blocks_multiple_gaps_and_hint():
    taps = [(0, 100), (1091, 1191), (2182, 2282)]
    blocks = between_blocks(taps)
    # each gap spans 391 ms usable -> 4 blocks apiece
    assert len(blocks) == 8
    assert blocks[0] == (400, 491)
    assert blocks[4] == (1491, 1582)
    wide = between_blocks(taps, duration_ms=200)
    assert wide == [(400, 600), (1491, 1691)]
    assert between_blocks([(0, 100)]) == []


# ---------------------------------------------------------------- extraction

def test_extract_valid_tap_matches_blocks():
    taps = [make_tap(0, 500, 630)]
    session = grid_session(10, 2000, taps, seed=7)
    fm = extract_hmog(session)
    assert fm.values.shape == (1, 96)
    assert fm.columns == FEATURE_NAMES
    assert list(fm.t_ms) == [500]
    assert fm.meta["n_events"] == 1 and fm.meta["n_skipped"] == 0

    # recompute the acc block straight from the stream
    stream = session.streams[Sensor.ACC]
    t, chans = stream.t_ms, channel_matrix(stream.values)
    before = chans[(t >= 400) & (t < 500)]
    during = chans[(t >= 500) & (t <= 630)]
    after1 = chans[(t > 630) & (t <= 730)]
    res = resistance_block(before, during, after1)
    row = fm.values[0]
    for f_idx, family in enumerate(RESISTANCE_FAMILIES):
        for c_idx, axis in enumerate(AXES):
            assert row[fm.col_index(f"acc_{axis}_{family}")] == pytest.approx(res[f_idx, c_idx])

    post = (t > 630) & (t <= 830)
    stab = stability_block(500, 630, before, during, t[(t >= 500) & (t <= 630)],
                           after1, t[post], chans[post])
    for f_idx, family in enumerate(STABILITY_FAMILIES):
        for c_idx, axis in enumerate(AXES):
            assert row[fm.col_index(f"acc_{axis}_{family}")] == pytest.approx(stab[f_idx, c_idx])


def test_extract_skips_taps_without_context():
    # too close to either edge of the recording
    taps = [make_tap(0, 50, 180), make_tap(1, 900, 1030), make_tap(2, 1850, 1950)]
    session = grid_session(10, 2000, taps)
    fm = extract_hmog(session)
    assert fm.values.shape == (1, 96)
    assert list(fm.t_ms) == [900]
    assert fm.meta["n_skipped"] == 2


def test_extract_sensor_without_context_gets_nan_cells():
    taps = [make_tap(0, 900, 1030)]
    session = grid_session(10, 2000, taps, short_mag_ms=400)
    fm = extract_hmog(session)
    assert fm.values.shape == (1, 96)
    row = fm.values[0]
    mag_cols = [i for i, n in enumerate(FEATURE_NAMES) if n.startswith("mag_")]
    other = [i for i in range(96) if i not in mag_cols]
    assert np.isnan(row[mag_cols]).all()
    assert np.isfinite(row[other]).all()


def test_extract_missing_sensor_stream():
    taps = [make_tap(0, 900, 1030)]
    session = grid_session(10, 2000, taps)
    del session.streams[Sensor.GYR]
    row = extract_hmog(session).values[0]
    gyr = [i for i, n in enumerate(FEATURE_NAMES) if n.startswith("gyr_")]
    assert np.isnan(row[gyr]).all()
    assert np.isfinite(np.delete(row, gyr)).all()


def test_extract_short_taps_impossible_at_5hz():
    # on a 200 ms grid a 130 ms tap never has all four windows populated,
    # whatever its phase
    for q in range(0, 200, 7):
        session = grid_session(200, 4000, [make_tap(0, 2000 + q, 2130 + q)])
        fm = extract_hmog(session)
        assert fm.values.shape[0] == 0
        assert fm.meta["n_skipped"] == 1
    # a 210 ms tap aligned like the synthesizer's output survives
    ok = extract_hmog(grid_session(200, 4000, [make_tap(0, 900, 1110)]))
    assert ok.values.shape[0] == 1


def test_extract_between_mode_rows_at_block_starts():
    taps = [make_tap(0, 1000, 1100), make_tap(1, 2091, 2191)]
    session = grid_session(10, 4000, taps)
    fm = extract_hmog(session, mode="between")
    assert fm.meta["mode"] == "between"
    assert fm.meta["n_events"] == 4
    assert fm.meta["n_context_overlap"] == 0
    assert list(fm.t_ms) == [1400, 1491, 1582, 1673]
    assert np.isfinite(fm.values[:, fm.col_index("acc_x_res1")]).all()


def test_extract_counts_context_overlap():
    taps = [make_tap(0, 1000, 1100), make_tap(1, 1350, 1450), make_tap(2, 2000, 2100)]
    session = grid_session(10, 4000, taps)
    fm = extract_hmog(session)
    # 250 ms gap < 300 ms guard; both taps still extracted
    assert fm.meta["n_context_overlap"] == 1
    assert fm.values.shape[0] == 3


def test_extract_unknown_mode():
    session = grid_session(10, 1000, [])
    with pytest.raises(ValueError, match="mode"):
        extract_hmog(session, mode="sideways")


def test_extract_no_taps_empty_matrix():
    fm = extract_hmog(grid_session(10, 1000, []))
    assert fm.values.shape == (0, 96)
    assert fm.meta["n_events"] == 0


# ---------------------------------------------------------------- batched vs per-event

def assert_matches_oracle(session, mode):
    got = extract_hmog(session, mode=mode)
    want = extract_hmog_oracle(session, mode)
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.t_ms.dtype == want.t_ms.dtype
    assert got.t_ms.tobytes() == want.t_ms.tobytes()
    assert list(user_ids(got)) == list(user_ids(want))
    assert list(session_ids(got)) == list(session_ids(want))
    assert got.sessions == want.sessions == ((session.user_id, session.session_id),)
    assert got.meta == want.meta
    return got


@pytest.mark.parametrize("mode", ["during", "between"])
@pytest.mark.parametrize("factor", [1, 2, 6, 20])
def test_extract_bit_equal_to_oracle_synthetic(mini_sessions, factor, mode):
    s = mini_sessions[0]
    reduced = Session(user_id=s.user_id, session_id=s.session_id,
                      condition=s.condition, taps=s.taps, keys=s.keys,
                      streams={k: downsample(v, factor) for k, v in s.streams.items()})
    fm = assert_matches_oracle(reduced, mode)
    assert fm.meta["n_events"] > 0


@pytest.mark.parametrize("mode", ["during", "between"])
def test_extract_bit_equal_to_oracle_edges(mode):
    # taps at both recording edges, two taps 170 ms apart (overlapping
    # 300 ms contexts), no gyr stream and a mag stream that stops early
    taps = [make_tap(0, 40, 160), make_tap(1, 900, 1030), make_tap(2, 1200, 1310),
            make_tap(3, 2500, 2620), make_tap(4, 3850, 3960)]
    session = grid_session(10, 4000, taps, seed=4, short_mag_ms=1500)
    del session.streams[Sensor.GYR]
    fm = assert_matches_oracle(session, mode)
    if mode == "during":
        assert fm.meta["n_context_overlap"] == 1
        assert fm.meta["n_skipped"] == 2


@pytest.mark.parametrize("mode", ["during", "between"])
def test_extract_bit_equal_to_oracle_stream_ends(mode):
    # the first tap's before window starts on stream row 0 and the last
    # tap's post window ends on the last row, next to the -0.0 sentinel row
    taps = [make_tap(0, 100, 230), make_tap(1, 900, 1010), make_tap(2, 1700, 1800)]
    session = grid_session(10, 2000, taps, seed=8)
    fm = assert_matches_oracle(session, mode)
    if mode == "during":
        assert list(fm.t_ms) == [100, 900, 1700]
        assert np.isfinite(fm.values).all()


def test_extract_bit_equal_to_oracle_no_taps():
    for mode in ("during", "between"):
        assert_matches_oracle(grid_session(10, 1000, []), mode).meta["n_events"] == 0


@pytest.mark.parametrize("nan_ms", [950, 1200])
def test_extract_bit_equal_to_oracle_nan_sample(nan_ms):
    # one NaN acc sample inside the tap (NaN mean, std and max; stab3 is NaN
    # whichever row argmax picks) or in the settle window past after100
    # (argmin: the first NaN suffix mean, index 0, wins)
    session = grid_session(10, 2000, [make_tap(0, 900, 1030)], seed=9)
    stream = session.streams[Sensor.ACC]
    stream.values[np.searchsorted(stream.t_ms, nan_ms), 0] = np.nan
    row = assert_matches_oracle(session, "during").values[0]
    mean_tap = row[FEATURE_NAMES.index("acc_x_res1")]
    settle = row[FEATURE_NAMES.index("acc_x_stab1")]
    if nan_ms == 950:
        assert np.isnan(mean_tap) and np.isfinite(settle)
    else:
        assert np.isfinite(mean_tap) and settle == 10.0


def tap_at_900_session():
    """One 900-1030 ms tap at 100 Hz: before reads rows 800-890, during
    900-1030, after100 1040-1130 and post 1040-1230."""
    session = grid_session(10, 2000, [make_tap(0, 900, 1030)], seed=9)
    stream = session.streams[Sensor.ACC]
    return session, stream.t_ms, stream.values


def test_extract_first_match_tap_maximum_tie():
    # acc x peaks at 5.0 twice during the tap: t_max_in_tap is the first
    session, t, values = tap_at_900_session()
    values[(t == 940) | (t == 1000), 0] = 5.0
    row = assert_matches_oracle(session, "during").values[0]
    avg_after = values[(t > 1030) & (t <= 1130)].mean(axis=0)[0]
    stab3 = row[FEATURE_NAMES.index("acc_x_stab3")]
    assert stab3 == pytest.approx((1080 - 940) / (avg_after - 5.0), rel=1e-12)
    assert stab3 != pytest.approx((1080 - 1000) / (avg_after - 5.0), rel=1e-12)


def test_extract_first_match_settle_tie():
    # avg_before of acc x is 0.0 and the post window reads |z| = 5 on its
    # first 8 rows and |z| = 1 on its last 12: every suffix starting in the
    # last 12 rows has mean 1.0 exactly, and the earliest, 1120 ms, wins
    session, t, values = tap_at_900_session()
    values[(t >= 800) & (t < 900), 0] = 0.0
    post = (t > 1030) & (t <= 1230)
    signs = np.where(np.arange(20) % 2, -1.0, 1.0)
    values[post, 0] = signs * np.where(np.arange(20) < 8, 5.0, 1.0)
    row = assert_matches_oracle(session, "during").values[0]
    assert row[FEATURE_NAMES.index("acc_x_stab1")] == 1120 - 1030


def test_extract_first_match_all_minus_inf_during():
    # every max ties at -inf: the during window's first row, as argmax picks
    session, t, values = tap_at_900_session()
    values[(t >= 900) & (t <= 1030), 0] = -np.inf
    with np.errstate(invalid="ignore"):    # -inf - -inf in the std
        row = assert_matches_oracle(session, "during").values[0]
    assert row[FEATURE_NAMES.index("acc_x_res1")] == -np.inf
    assert np.isnan(row[FEATURE_NAMES.index("acc_x_res2")])
    assert row[FEATURE_NAMES.index("acc_x_stab3")] == 0.0


@pytest.mark.parametrize("mode", ["during", "between"])
def test_extract_nonfinite_and_huge_readings_do_not_warn(mode):
    # -inf, +inf and 1e200 readings inside tap and between-tap windows (10
    # taps of 100-280 ms, 1 s apart) give inf - inf and overflowing
    # squares; extraction prints no NumPy warning and keeps the oracle's bits
    taps = [make_tap(i, 500 + 1000 * i, 600 + 1020 * i) for i in range(10)]
    session = grid_session(10, 11_000, taps, seed=14)
    t = session.streams[Sensor.ACC].t_ms
    session.streams[Sensor.ACC].values[(t >= 900) & (t < 1400), 0] = -np.inf
    session.streams[Sensor.GYR].values[(t >= 1500) & (t < 4000), 1] = 1e200
    session.streams[Sensor.MAG].values[t % 700 == 0, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = extract_hmog(session, mode=mode)
    with np.errstate(all="ignore"):
        want = assert_matches_oracle(session, mode)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.n_rows > 0 and not np.isfinite(got.values).all()


def lengths_session(lengths, seed):
    """Taps of the given ms lengths, 450 ms apart, at 100 Hz."""
    taps, t0 = [], 500
    for i, length in enumerate(lengths):
        taps.append(make_tap(i, t0, t0 + int(length)))
        t0 += int(length) + 450
    return grid_session(10, t0 + 500, taps, seed=seed)


def short_taps_session(n_taps, press_ms=None, seed=5):
    """n_taps taps of 30-330 ms at 100 Hz, one press_ms press among them."""
    rng = np.random.default_rng(seed)
    lengths = list(rng.integers(30, 340, n_taps))
    if press_ms is not None:
        lengths.insert(n_taps // 2, press_ms)
    return lengths_session(lengths, seed)


@pytest.mark.parametrize("mode", ["during", "between"])
def test_extract_bit_equal_to_oracle_long_press(mode):
    # one 4 s press among short taps: the press's windows are far wider than
    # the others', which must not change any value
    fm = assert_matches_oracle(short_taps_session(30, press_ms=4000), mode)
    if mode == "during":
        assert fm.n_rows == 31


def test_extract_long_press_does_not_widen_short_windows():
    # events are chunked in order of their widest window, so one 20 s
    # press adds about its own windows to the peak memory, not 20 s per tap
    import tracemalloc

    def peak(session):
        tracemalloc.start()
        try:
            extract_hmog(session)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = peak(short_taps_session(200))
    with_press = peak(short_taps_session(200, press_ms=20_000))
    assert with_press < 2 * plain


def test_extract_bit_equal_to_oracle_negative_zero():
    # acc x reads -0.0 throughout the before and during windows of a short
    # tap, in a session whose widest window is a 600 ms tap: padding must
    # leave the all -0.0 sums exactly as NumPy returns them
    taps = [make_tap(0, 300, 350), make_tap(1, 1000, 1600)]
    session = grid_session(10, 2000, taps, seed=2)
    stream = session.streams[Sensor.ACC]
    stream.values[(stream.t_ms >= 200) & (stream.t_ms <= 350), 0] = -0.0
    fm = assert_matches_oracle(session, "during")
    assert fm.values[0, FEATURE_NAMES.index("acc_x_res1")] == 0.0


def test_extract_bit_equal_to_oracle_negative_zero_padded():
    # as above, with a 200 ms second tap whose widest window (during, 21
    # rows) is close to the first tap's (post, 20 rows): both share a
    # chunk, and the short tap's all -0.0 during window is padded from the
    # sentinel row
    taps = [make_tap(0, 300, 350), make_tap(1, 1000, 1200)]
    session = grid_session(10, 2000, taps, seed=2)
    stream = session.streams[Sensor.ACC]
    stream.values[(stream.t_ms >= 200) & (stream.t_ms <= 350), 0] = -0.0
    fm = assert_matches_oracle(session, "during")
    assert fm.values[0, FEATURE_NAMES.index("acc_x_res1")] == 0.0


# ---------------------------------------------------------------- sensor clocks

@pytest.mark.parametrize("mode", ["during", "between"])
def test_extract_bit_equal_to_oracle_mixed_clocks(mode):
    # acc and gyr share a 10 ms grid and one 8-column pass; mag reads a
    # 20 ms grid offset by 5 ms and gets a pass of its own
    grid = np.arange(0, 6001, 10)
    clocks = {Sensor.ACC: grid, Sensor.GYR: grid.copy(), Sensor.MAG: np.arange(5, 6001, 20)}
    taps = [make_tap(0, 500, 630), make_tap(1, 1800, 1900),
            make_tap(2, 3000, 3250), make_tap(3, 4700, 4780)]
    session = clock_session(clocks, taps, seed=11)
    assert [members for _, members in _clock_groups(session.streams)] == [[0, 1], [2]]
    fm = assert_matches_oracle(session, mode)
    assert fm.n_rows > 0
    assert np.isfinite(fm.values).all()


@pytest.mark.parametrize("mode", ["during", "between"])
def test_extract_bit_equal_to_oracle_equal_clock_copies(mode):
    # downsample gives every stream its own copy of the same timestamps;
    # equal arrays share one pass over a 12-column block
    session = short_taps_session(20, seed=12)
    for sensor in SENSOR_ORDER:
        session.streams[sensor] = downsample(session.streams[sensor], 2)
    acc, gyr, mag = (session.streams[s].t_ms for s in SENSOR_ORDER)
    assert acc is not gyr and gyr is not mag
    assert [members for _, members in _clock_groups(session.streams)] == [[0, 1, 2]]
    fm = assert_matches_oracle(session, mode)
    if mode == "during":
        assert fm.n_rows > 0


# ---------------------------------------------------------------- right-aligned post window

@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_extract_bit_equal_to_oracle_settle_after_nonfinite_rows():
    # six samples are missing after the first tap, so its post window (14
    # rows) is shorter than the second tap's (20) in the same chunk, and it
    # reads the 6 stream rows before it: the end of the tap, which holds a
    # NaN (acc x) and a +inf (acc y). A +inf in the first tap's before
    # window (gyr x) makes every suffix mean of its post window +inf, so
    # the settle time falls back on the window's first row.
    t = np.arange(0, 3001, 10)
    t = t[(t < 1100) | (t > 1150)]
    taps = [make_tap(0, 900, 1030), make_tap(1, 2000, 2100)]
    session = clock_session({sensor: t for sensor in SENSOR_ORDER}, taps, seed=13)
    assert np.count_nonzero((t > 1030) & (t <= 1230)) == 14
    assert np.count_nonzero((t > 2100) & (t <= 2300)) == 20
    acc = session.streams[Sensor.ACC].values
    acc[np.searchsorted(t, 1030), 0] = np.nan
    acc[np.searchsorted(t, 1020), 1] = np.inf
    session.streams[Sensor.GYR].values[np.searchsorted(t, 850), 0] = np.inf
    row = assert_matches_oracle(session, "during").values[0]
    for name in ("acc_x_stab1", "acc_y_stab1", "acc_z_stab1", "acc_m_stab1"):
        assert np.isfinite(row[FEATURE_NAMES.index(name)])
    assert np.isnan(row[FEATURE_NAMES.index("acc_x_res1")])
    assert row[FEATURE_NAMES.index("acc_y_res1")] == np.inf
    assert row[FEATURE_NAMES.index("gyr_x_stab1")] == 10.0


@pytest.mark.parametrize("mode", ["during", "between"])
def test_extract_bit_equal_to_oracle_settle_window_clipped_at_row_0(mode):
    # the first tap's post window is sampled every 2 ms (100 rows) and
    # starts on row 16; a 1 ms burst after the second tap gives it a
    # 200-row post window in the same chunk, so the first tap's
    # right-aligned window reaches 84 rows before row 0
    t = np.concatenate([np.arange(0, 151, 10), np.arange(152, 351, 2),
                        np.arange(360, 2101, 10), np.arange(2101, 2301, 1),
                        np.arange(2310, 4001, 10)])
    taps = [make_tap(0, 100, 150), make_tap(1, 2000, 2100)]
    session = clock_session({sensor: t for sensor in SENSOR_ORDER}, taps, seed=14)
    assert np.searchsorted(t, 150, side="right") == 16
    assert np.count_nonzero((t > 150) & (t <= 350)) == 100
    assert np.count_nonzero((t > 2100) & (t <= 2300)) == 200
    fm = assert_matches_oracle(session, mode)
    if mode == "during":
        assert fm.n_rows == 2
        assert np.isfinite(fm.values).all()


def test_extract_peak_memory_bounded_by_event_chunks():
    # events are taken in chunks of bounded size, so apart from the channel
    # block, which grows with the stream, the peak memory of 1,000 taps
    # stays close to that of 250
    import tracemalloc

    def peak_beyond_block(n_taps):
        taps = [make_tap(i, 500 + 700 * i, 600 + 700 * i) for i in range(n_taps)]
        session = grid_session(10, 700 * n_taps + 1000, taps, seed=15)
        block_bytes = (len(session.streams[Sensor.ACC]) + 1) * 3 * len(AXES) * 8
        tracemalloc.start()
        try:
            fm = extract_hmog(session)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fm.n_rows == n_taps
        return peak - block_bytes

    assert peak_beyond_block(1000) < 1.5 * peak_beyond_block(250)


# ---------------------------------------------------------------- event chunks

def check_chunks(widest, row_bytes):
    """The chunks of _event_chunks: each event once, in width order, each
    within the cap unless it holds one event, and each as long as it can
    be."""
    chunks = _event_chunks(widest, row_bytes)
    assert sorted(np.concatenate(chunks).tolist()) == list(range(len(widest)))
    for chunk, after in zip(chunks, chunks[1:]):
        assert widest[chunk].max() <= widest[after].min()
        assert (len(chunk) + 1) * widest[after[0]] * row_bytes > _WINDOW_BYTES
    for chunk in chunks:
        if len(chunk) > 1:
            assert len(chunk) * widest[chunk].max() * row_bytes <= _WINDOW_BYTES
    return chunks


def test_event_chunks_skewed_widths():
    rng = np.random.default_rng(16)
    widest = rng.permutation(np.repeat([1, 40, 2000], [300, 10, 1]))
    # 12-column rows: the cap cuts only between widths
    chunks = check_chunks(widest, 3 * len(AXES) * 8)
    assert [widest[c].max() for c in chunks] == [1, 40, 2000]
    # 1 KiB rows, 256 to the cap: it cuts the narrow events too, and the
    # widest event takes a chunk of its own, over the cap
    chunks = check_chunks(widest, 1 << 10)
    assert [len(c) for c in chunks] == [256, 44, 6, 4, 1]
    # widths spread evenly: the cap cuts chunks of mixed widths
    check_chunks(rng.integers(1, 300, 500), 3 * len(AXES) * 8)


@pytest.mark.parametrize("mode", ["during", "between"])
def test_extract_bit_equal_to_oracle_chunk_spans_widths(mode):
    # 30 ms and 340 ms taps and 0.6 s and 1.5 s presses, few enough to share
    # one chunk whose widest window is over 7 times its narrowest
    lengths = np.random.default_rng(17).permutation(np.repeat([30, 340, 600, 1500], [6, 6, 2, 2]))
    session = lengths_session(lengths, seed=17)
    t = session.streams[Sensor.ACC].t_ms
    _, _, n = _window_bounds(t, session.taps.t_start_ms, session.taps.t_end_ms)
    widest = n.max(axis=0)
    assert any(widest[c].max() > 2 * widest[c].min()
               for c in _event_chunks(widest, 3 * len(AXES) * 8))
    fm = assert_matches_oracle(session, mode)
    if mode == "during":
        assert fm.n_rows == len(lengths)
