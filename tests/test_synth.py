from dataclasses import fields, replace

import numpy as np
import pytest

from hmogkit.corpus.synth import (
    KEY_ALPHABET,
    SynthProfile,
    make_corpus,
    make_profiles,
    synthesize_user,
)
from hmogkit.corpus.types import Condition, Sensor
from oracles import synthesize_user_oracle
from tables import table_equal


def streams_equal(a, b):
    return (np.array_equal(a.t_ms, b.t_ms) and np.array_equal(a.values, b.values))


def test_same_seed_reproduces_everything():
    profile = SynthProfile(user_id="u", sessions=2, session_seconds=60.0)
    a = synthesize_user(profile, 99)
    b = synthesize_user(profile, 99)
    for sa, sb in zip(a, b):
        assert sa.session_id == sb.session_id
        for sensor in sa.streams:
            assert streams_equal(sa.streams[sensor], sb.streams[sensor])
        assert len(sa.taps) > 0 and len(sa.keys) > 0
        assert table_equal(sa.taps, sb.taps)
        assert table_equal(sa.keys, sb.keys)


def test_different_seeds_differ():
    profile = SynthProfile(user_id="u", sessions=1, session_seconds=60.0)
    a = synthesize_user(profile, 1)[0]
    b = synthesize_user(profile, 2)[0]
    assert not streams_equal(a.streams[Sensor.ACC], b.streams[Sensor.ACC])


def test_sessions_validate_and_have_all_sensors():
    profile = SynthProfile(user_id="u7", sessions=3, session_seconds=45.0)
    sessions = synthesize_user(profile, 5)
    assert [s.session_id for s in sessions] == ["s01", "s02", "s03"]
    for session in sessions:
        session.validate()
        assert set(session.streams) == {Sensor.ACC, Sensor.GYR, Sensor.MAG}
        assert session.user_id == "u7"


def test_sample_grid_and_span():
    profile = SynthProfile(user_id="u", sessions=1, session_seconds=30.0)
    session = synthesize_user(profile, 3)[0]
    for stream in session.streams.values():
        steps = np.diff(stream.t_ms)
        assert steps.min() == steps.max() == 10  # 100 Hz grid
        assert stream.t_ms[-1] <= 30_000


def test_tap_timing_constraints():
    profile = SynthProfile(user_id="u", sessions=1, session_seconds=120.0)
    session = synthesize_user(profile, 8)[0]
    taps = session.taps
    assert len(taps) > 50
    durations = taps.t_end_ms - taps.t_start_ms
    assert durations.min() >= 30 and durations.max() <= 340
    gaps = taps.t_start_ms[1:] - taps.t_end_ms[:-1]
    # end-to-start spacing keeps the 300 ms feature contexts from colliding
    assert gaps.min() >= 360
    t_last = session.streams[Sensor.ACC].t_ms[-1]
    assert np.all(taps.t_end_ms <= t_last)


def test_keys_use_alphabet():
    profile = SynthProfile(user_id="u", sessions=1, session_seconds=60.0)
    session = synthesize_user(profile, 4)[0]
    assert len(session.keys) > 10
    assert set(session.keys.key) <= set(KEY_ALPHABET)


def test_taps_produce_sensor_impulses():
    """Tap windows must be livelier than quiet stretches between taps."""
    profile = SynthProfile(
        user_id="u", sessions=1, session_seconds=120.0, tap_rate_hz=0.5,
        impulse_amp=np.full((3, 3), 0.8), key_rate_hz=0.0)
    session = synthesize_user(profile, 6)[0]
    acc = session.streams[Sensor.ACC]
    mag = np.sqrt(np.sum(acc.values ** 2, axis=1))
    during, quiet = [], []
    starts, ends = session.taps.t_start_ms, session.taps.t_end_ms
    for start in starts:
        in_tap = (acc.t_ms >= start) & (acc.t_ms <= start + 400)
        during.append(mag[in_tap].std())
    for end, start in zip(ends[:-1], starts[1:]):
        gap = (acc.t_ms > end + 500) & (acc.t_ms < start - 100)
        if gap.sum() > 5:
            quiet.append(mag[gap].std())
    assert np.mean(during) > 2 * np.mean(quiet)


def test_zero_rates_give_empty_tables():
    profile = SynthProfile(user_id="u", sessions=1, session_seconds=30.0,
                           tap_rate_hz=0.0, key_rate_hz=0.0)
    session = synthesize_user(profile, 2)[0]
    assert len(session.taps) == 0 and session.taps.offsets.tolist() == [0]
    assert session.taps.xy_px.shape == (0, 2)
    assert len(session.keys) == 0


def test_make_profiles_and_corpus():
    profiles = make_profiles(4, "walking", 13)
    assert len(profiles) == 4
    assert all(p.condition is Condition.WALKING for p in profiles)
    assert len({p.user_id for p in profiles}) == 4
    # per-user motion baselines must differ
    assert not np.allclose(profiles[0].base_offset, profiles[1].base_offset)

    sessions = make_corpus(profiles[:2], 13)
    assert len(sessions) == 2 * profiles[0].sessions
    again = make_corpus(profiles[:2], 13)
    for a, b in zip(sessions, again):
        assert streams_equal(a.streams[Sensor.ACC], b.streams[Sensor.ACC])


def test_make_profiles_overrides():
    profiles = make_profiles(2, "sitting", 9, sessions=5, session_seconds=77.0,
                             tap_rate_hz=0.7)
    assert all(p.sessions == 5 for p in profiles)
    assert all(p.session_seconds == 77.0 for p in profiles)
    assert all(p.tap_rate_hz == 0.7 for p in profiles)


def test_profile_validation():
    with pytest.raises(ValueError):
        SynthProfile(user_id="u", sessions=0).validate()
    with pytest.raises(ValueError):
        SynthProfile(user_id="u", tap_rate_hz=-1.0).validate()


_WALKER = make_profiles(1, "walking", 3, sessions=2, session_seconds=60.0)[0]


@pytest.mark.parametrize("profile", [
    *make_profiles(2, "sitting", 7, sessions=2, session_seconds=120.0),
    *make_profiles(2, "walking", 7, sessions=2, session_seconds=120.0),
    replace(_WALKER, tap_rate_hz=0.0),
    replace(_WALKER, key_rate_hz=0.0),
    replace(_WALKER, sample_rate_hz=16.0),          # a 62.5 ms sample step
    replace(_WALKER, touch_sample_step_ms=7),
    replace(_WALKER, session_seconds=1e-9),         # no sample, tap or key
    # taps 395 ms apart, so consecutive 400 ms impulse tails share samples
    replace(_WALKER, tap_rate_hz=20.0, tap_duration_mean_ms=35.0),
], ids=["sitting1", "sitting2", "walking1", "walking2", "no-taps", "no-keys",
        "16hz", "touch-7ms", "empty", "overlapping-tails"])
@pytest.mark.parametrize("seed", [0, 31])
def test_synthesize_user_matches_oracle_bitwise(profile, seed):
    sessions = synthesize_user(profile, seed)
    expected = synthesize_user_oracle(profile, seed)
    assert len(sessions) == len(expected) == profile.sessions
    for got, want in zip(sessions, expected):
        assert got.streams.keys() == want.streams.keys()
        for sensor, stream in got.streams.items():
            assert stream.t_ms.tobytes() == want.streams[sensor].t_ms.tobytes()
            assert stream.values.tobytes() == want.streams[sensor].values.tobytes()
        for table in ("taps", "keys"):
            got_table, want_table = getattr(got, table), getattr(want, table)
            for f in fields(got_table):
                a, b = getattr(got_table, f.name), getattr(want_table, f.name)
                assert a.dtype == b.dtype and a.shape == b.shape, (table, f.name)
                if a.dtype == object:
                    assert a.tolist() == b.tolist(), (table, f.name)
                else:
                    assert a.tobytes() == b.tobytes(), (table, f.name)


def test_overlapping_tails_profile_overlaps():
    # the oracle case above tests the order of add.at only if some sample
    # lies in two impulse tails, [start, start + 400 ms] of consecutive taps
    profile = replace(_WALKER, tap_rate_hz=20.0, tap_duration_mean_ms=35.0)
    session = synthesize_user(profile, 0)[0]
    t = session.streams[Sensor.ACC].t_ms
    starts = session.taps.t_start_ms
    shared = [np.any((t >= nxt) & (t <= start + 400)) for start, nxt in zip(starts, starts[1:])]
    assert sum(shared) > 10
