"""Tap geometry features, long-form keystroke events, latency filtering."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmogkit.corpus.synth import KEY_ALPHABET
from hmogkit.corpus.types import Session
from hmogkit.matrix import FeatureMatrix
from hmogkit.experiments import split_train_test
from hmogkit.touchkeys import (
    EVENT_COLUMNS,
    EXTENDED_KEYS,
    HOLD_UNIVERSE,
    TAP_FEATURE_NAMES,
    digraph_feature_names,
    hold_feature_names,
    keystroke_features,
    latency_outlier_filter,
    tap_features,
    widen,
)
from oracles import (
    dense_digraphs,
    digraph_events,
    filter_digraphs_oracle,
    keystroke_features_oracle,
    tap_features_oracle,
)
from labels import labelled, session_ids, stacked, user_ids
from tables import key_table, tap_table


def make_tap(tap_id, t_start, t_end, contact, first_xy=(0.0, 0.0)):
    contact = np.asarray(contact, dtype=np.float64)
    k = len(contact)
    t = np.linspace(t_start, t_end, k).astype(np.int64)
    xy = np.tile(np.asarray(first_xy, dtype=np.float64), (k, 1))
    return (tap_id, t_start, t_end, t, xy, contact)


def key_session(keys):
    return Session(user_id="u1", session_id="s01", condition="sitting",
                   streams={}, keys=key_table(keys))


# ---------------------------------------------------------------- universes

def test_tap_feature_names():
    assert len(TAP_FEATURE_NAMES) == 11
    assert TAP_FEATURE_NAMES[0] == "tap_duration"
    assert TAP_FEATURE_NAMES[-1] == "tap_velocity"


def test_key_universes():
    assert len(KEY_ALPHABET) == 35
    assert len(EXTENDED_KEYS) == 54
    assert len(HOLD_UNIVERSE) == 89
    assert len(set(HOLD_UNIVERSE)) == 89
    assert not set(KEY_ALPHABET) & set(EXTENDED_KEYS)


def test_feature_name_builders():
    holds = hold_feature_names()
    assert len(holds) == 89
    assert holds[0] == f"hold_{HOLD_UNIVERSE[0]}"
    assert holds[-1] == f"hold_{HOLD_UNIVERSE[-1]}"
    digs = digraph_feature_names()
    assert len(digs) == 35 * 35
    assert digs[0] == f"dig_{KEY_ALPHABET[0]}_{KEY_ALPHABET[0]}"
    # first-key-major layout
    assert digs[35] == f"dig_{KEY_ALPHABET[1]}_{KEY_ALPHABET[0]}"
    assert len(set(digs)) == 1225


# ---------------------------------------------------------------- tap features

def test_tap_features_hand_values():
    taps = [
        make_tap(0, 1000, 1130, [2.0, 4.0, 6.0], first_xy=(100.0, 0.0)),
        make_tap(1, 2000, 2100, [1.0, 1.0], first_xy=(400.0, 400.0)),
    ]
    session = Session(user_id="u1", session_id="s01", condition="sitting",
                      streams={}, taps=tap_table(taps))
    fm = tap_features(session)
    assert fm.columns == TAP_FEATURE_NAMES
    assert fm.values.shape == (2, 11)
    assert list(fm.t_ms) == [1000, 2000]

    row0 = dict(zip(fm.columns, fm.values[0]))
    assert row0["tap_duration"] == 130.0
    assert row0["contact_mean"] == 4.0
    assert row0["contact_median"] == 4.0
    assert_allclose(row0["contact_std"], np.sqrt(8.0 / 3.0))
    assert (row0["contact_q1"], row0["contact_q2"], row0["contact_q3"]) == (3.0, 4.0, 5.0)
    assert (row0["contact_first"], row0["contact_min"], row0["contact_max"]) == (2.0, 2.0, 6.0)
    assert np.isnan(row0["tap_velocity"])

    # 3-4-5 triangle, 300/400 px in one second
    row1 = dict(zip(fm.columns, fm.values[1]))
    assert_allclose(row1["tap_velocity"], 500.0)


def test_tap_features_empty_session():
    fm = tap_features(key_session([]))
    assert fm.values.shape == (0, 11)


def test_tap_velocity_uses_start_to_start_time():
    taps = [
        make_tap(0, 1000, 1100, [0.5], first_xy=(0.0, 0.0)),
        make_tap(1, 1500, 1600, [0.5], first_xy=(100.0, 0.0)),
    ]
    session = Session(user_id="u1", session_id="s01", condition="sitting",
                      streams={}, taps=tap_table(taps))
    fm = tap_features(session)
    assert_allclose(fm.values[1][-1], 100.0 / 0.5)


def tap_session(taps, user="u1", session_id="s01"):
    return Session(user_id=user, session_id=session_id, condition="sitting",
                   streams={}, taps=tap_table(taps))


def assert_same_matrix(got, want):
    assert got.columns == want.columns
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.t_ms.dtype == want.t_ms.dtype == np.int64
    assert got.t_ms.tobytes() == want.t_ms.tobytes()
    assert list(user_ids(got)) == list(user_ids(want))
    assert list(session_ids(got)) == list(session_ids(want))


def assert_taps_match_oracle(session):
    got = tap_features(session)
    assert_same_matrix(got, tap_features_oracle(session))
    return got


def test_tap_features_bit_equal_to_oracle_synthetic(mini_sessions):
    # several users and sessions; contact arrays of many lengths per session
    assert len({s.user_id for s in mini_sessions}) > 1
    for session in mini_sessions:
        assert len(np.unique(np.diff(session.taps.offsets))) > 1
        assert_taps_match_oracle(session)


def test_tap_features_bit_equal_to_oracle_empty_and_single():
    fm = assert_taps_match_oracle(tap_session([]))
    assert fm.values.shape == (0, 11)
    fm = assert_taps_match_oracle(
        tap_session([make_tap(0, 1000, 1100, [0.3, 0.5, 0.4], first_xy=(5.0, 7.0))]))
    assert fm.values.shape == (1, 11)
    assert np.isnan(fm.values[0, -1])


def test_tap_features_bit_equal_to_oracle_one_sample_contacts():
    rng = np.random.default_rng(3)
    taps = [make_tap(i, 1000 * i, 1000 * i + 40, [rng.uniform(0.2, 0.6)],
                     first_xy=rng.uniform(0.0, 1000.0, 2)) for i in range(6)]
    fm = assert_taps_match_oracle(tap_session(taps))
    assert np.all(fm.values[:, 3] == 0.0)


def test_tap_features_bit_equal_to_oracle_mixed_lengths():
    # short taps of 14-32 samples in shuffled order, two presses of about
    # 3,000 samples among them, one-sample taps and signed zeros
    rng = np.random.default_rng(11)
    lengths = [int(k) for k in rng.integers(14, 33, size=80)] + [2999, 3000, 1, 1]
    lengths = [lengths[i] for i in rng.permutation(len(lengths))]
    taps, t = [], 0
    for i, k in enumerate(lengths):
        contact = rng.uniform(0.1, 0.9, size=k)
        if i % 7 == 0:
            contact[rng.integers(k)] = -0.0
        taps.append(make_tap(i, t, t + 10 * k, contact,
                             first_xy=rng.uniform(0.0, 1000.0, 2)))
        t += 10 * k + int(rng.integers(50, 400))
    assert lengths != sorted(lengths)
    assert_taps_match_oracle(tap_session(taps))


def assert_sessions_match_one_by_one(sessions):
    got = tap_features(*sessions)
    assert_same_matrix(got, stacked([tap_features(s) for s in sessions]))
    return got


def taps_of(lengths, rng, t0=0):
    taps, t = [], t0
    for i, k in enumerate(lengths):
        taps.append(make_tap(i, t, t + 10 * k, rng.uniform(0.1, 0.9, size=k),
                             first_xy=rng.uniform(0.0, 1000.0, 2)))
        t += 10 * k + int(rng.integers(50, 400))
    return taps


def test_tap_features_sessions_equal_one_by_one_synthetic(mini_sessions):
    fm = assert_sessions_match_one_by_one(mini_sessions)
    # every session's first tap, and only those, has no velocity
    first = np.r_[True, fm.session[1:] != fm.session[:-1]]
    assert np.array_equal(np.isnan(fm.values[:, -1]), first)


@pytest.mark.parametrize("empty_at", [0, 1, 2])
def test_tap_features_sessions_equal_one_by_one_empty_session(empty_at):
    rng = np.random.default_rng(20 + empty_at)
    sessions = [tap_session(taps_of([12, 15, 12, 9], rng), "u1", f"s0{i}")
                for i in range(2)]
    sessions.insert(empty_at, tap_session([], "u2", "s09"))
    fm = assert_sessions_match_one_by_one(sessions)
    assert fm.n_rows == 8 and np.isnan(fm.values[[0, 4], -1]).all()


def test_tap_features_sessions_equal_one_by_one_one_tap_sessions():
    rng = np.random.default_rng(6)
    sessions = [tap_session(taps_of([int(k)], rng, t0=1000), f"u{i % 2}", f"s0{i}")
                for i, k in enumerate(rng.integers(1, 5, 5))]
    fm = assert_sessions_match_one_by_one(sessions)
    assert fm.n_rows == 5 and np.isnan(fm.values[:, -1]).all()
    assert_sessions_match_one_by_one(sessions[:1])


def test_tap_features_sessions_equal_one_by_one_lengths_span_sessions():
    # each contact length occurs in several sessions, in shuffled order,
    # and the sessions restart their clocks at 0
    rng = np.random.default_rng(13)
    sessions = [tap_session(taps_of(rng.permutation([1, 3, 3, 14, 14, 14, 30, 3000]), rng),
                            "u1" if i < 2 else "u2", f"s0{i}")
                for i in range(4)]
    assert_sessions_match_one_by_one(sessions)


# ---------------------------------------------------------------- keystrokes

def wide_keystrokes(session):
    holds, digs = keystroke_features(session)
    assert holds.columns == digs.columns == EVENT_COLUMNS
    return widen(holds, hold_feature_names()), widen(digs, digraph_feature_names())


def hand_keys():
    return [
        ("a", 1000, 1080),
        ("b", 1300, 1400),
        ("zz", 1600, 1650),
        ("c", 1900, 1960),
    ]


def extended_keys():
    return [
        ("d3", 1000, 1100),
        ("a", 1400, 1500),
    ]


def test_keystroke_features_hand_case():
    hold_events, dig_events = keystroke_features(key_session(hand_keys()))
    # one long-form row per event: (column index, value)
    assert hold_events.values.tolist() == [
        [HOLD_UNIVERSE.index("a"), 80.0], [HOLD_UNIVERSE.index("b"), 100.0],
        [HOLD_UNIVERSE.index("c"), 60.0]]
    assert dig_events.values.tolist() == [
        [digraph_feature_names().index("dig_a_b"), 300.0]]
    holds, digs = wide_keystrokes(key_session(hand_keys()))

    assert holds.columns == hold_feature_names()
    assert holds.values.shape == (3, 89)  # "zz" carries no hold feature
    assert list(holds.t_ms) == [1000, 1300, 1900]
    for i, (key, hold) in enumerate([("a", 80.0), ("b", 100.0), ("c", 60.0)]):
        row = holds.values[i]
        j = holds.col_index(f"hold_{key}")
        assert row[j] == hold
        assert np.isfinite(row).sum() == 1

    # only the a->b pair survives: zz breaks both pairs around it
    assert digs.values.shape == (1, 1225)
    assert list(digs.t_ms) == [1000]
    j = digs.col_index("dig_a_b")
    assert digs.values[0][j] == 300.0  # down-down latency
    assert np.isfinite(digs.values[0]).sum() == 1


def test_extended_keys_hold_but_no_digraph():
    holds, digs = wide_keystrokes(key_session(extended_keys()))
    assert holds.values.shape == (2, 89)
    assert holds.values[0][holds.col_index("hold_d3")] == 100.0
    assert digs.values.shape == (0, 1225)


def assert_keystrokes_match_oracle(session):
    for got, want in zip(wide_keystrokes(session), keystroke_features_oracle(session)):
        assert_same_matrix(got, want)


def test_keystroke_bit_equal_to_oracle_synthetic(mini_sessions):
    for session in mini_sessions:
        assert len(session.keys) > 1
        assert_keystrokes_match_oracle(session)


@pytest.mark.parametrize("keys", [hand_keys(), extended_keys(), []])
def test_keystroke_bit_equal_to_oracle_hand_cases(keys):
    assert_keystrokes_match_oracle(key_session(keys))


def test_widen_over_chosen_columns():
    events = digraph_events(filter_fixture())
    names = digraph_feature_names()
    keep = [names.index("dig_a_c"), names.index("dig_a_a")]
    out = widen(events, names, keep)
    assert out.columns == ("dig_a_c", "dig_a_a")
    assert list(out.t_ms) == [10, 20, 30, 30, 40]
    # the dig_a_b event at t=20 has no kept column: its row stays, empty
    assert_allclose(out.values, [[np.nan, 100.0], [np.nan, np.nan], [np.nan, 200.0],
                                 [50.0, np.nan], [75.0, np.nan]])


# ---------------------------------------------------------------- latency filter

def filter_fixture():
    columns = ("dig_a_a", "dig_a_b", "dig_a_c")
    values = np.array([
        [100.0, np.nan, np.nan],
        [np.nan, 600.0, np.nan],
        [200.0, np.nan, 50.0],
        [np.nan, np.nan, 75.0],
    ])
    ids = ["u1", "u1", "u2", "u2"]
    sess = ["s01", "s01", "s01", "s02"]
    t = np.array([10, 20, 30, 40], dtype=np.int64)
    return labelled(columns, values, ids, sess, t)


def filter_events():
    """The fixture's five latencies in long form; the row at t=30 holds two
    of them, so it becomes two events."""
    return digraph_events(filter_fixture())


def no_events():
    return FeatureMatrix.empty(EVENT_COLUMNS)


def assert_filtered(out, l_ms, m_min):
    """Output a second filter pass would leave unchanged: every training
    row holds one latency, at most l_ms, and every kept column has at least
    m_min of them."""
    finite = np.isfinite(out.values)
    assert np.all(finite.sum(axis=1) == 1)
    assert not np.any(out.values[finite] > l_ms)
    assert np.all(finite.sum(axis=0) >= m_min)


def test_latency_filter_drops_outliers_sparse_columns_empty_rows():
    out, test = latency_outlier_filter(filter_events(), filter_events(), 500.0, 2)
    # 600 exceeds the cap, dropping its event; dig_a_b then has no support
    assert out.columns == ("dig_a_a", "dig_a_c")
    assert out.values.shape == (4, 2)
    assert list(out.t_ms) == [10, 30, 30, 40]
    assert list(user_ids(out)) == ["u1", "u2", "u2", "u2"]
    assert_allclose(out.values[1:3], [[200.0, np.nan], [np.nan, 50.0]])
    assert_filtered(out, 500.0, 2)
    assert test.columns == out.columns
    assert test.values.tobytes() == out.values.tobytes()


def test_latency_filter_min_count_zero_keeps_all_columns():
    out, test = latency_outlier_filter(filter_events(), no_events(), 500.0, 0)
    assert out.columns == digraph_feature_names()
    assert test.columns == out.columns and test.n_rows == 0
    sub = out.select_columns(("dig_a_a", "dig_a_b", "dig_a_c"))
    assert sub.values.shape == (4, 3)
    assert np.all(~np.isfinite(sub.values[:, 1]))
    assert_filtered(out, 500.0, 0)


def test_latency_filter_keeps_values_at_cap():
    out, _ = latency_outlier_filter(filter_events(), no_events(), 600.0, 1)
    # 600 == cap stays; nothing removed
    assert out.columns == ("dig_a_a", "dig_a_b", "dig_a_c")
    assert out.values.shape == (5, 3)
    assert out.values[1][out.col_index("dig_a_b")] == 600.0


def assert_filter_matches_oracle(train_events, test_events, dense_train, dense_test,
                                 l_ms, m_min):
    train, test = latency_outlier_filter(train_events, test_events, l_ms, m_min)
    want_train, want_test = filter_digraphs_oracle(dense_train, dense_test, l_ms, m_min)
    assert_same_matrix(train, want_train)
    assert_filtered(train, l_ms, m_min)
    if train.n_features == 0:
        # the dense path left the unused test side whole when training kept
        # no column; the event path widens it over the same empty set
        assert test.n_features == 0
        want_test = want_test.select_columns(())
    assert_same_matrix(test, want_test)
    return train, test


def oracle_digraphs(sessions):
    return stacked([keystroke_features_oracle(s)[1] for s in sessions])


@pytest.mark.parametrize("m_min", [0, 1, 3])
def test_latency_filter_bit_equal_to_oracle_synthetic(mini_sessions, m_min):
    train_s, test_s = split_train_test(mini_sessions)
    train_events = keystroke_features(*train_s)[1]
    latencies = np.sort(train_events.values[:, 1])
    # the default cap, and a cap exactly at a training latency
    for l_ms in (1500.0, float(latencies[len(latencies) // 2])):
        train, _ = assert_filter_matches_oracle(
            train_events, keystroke_features(*test_s)[1],
            oracle_digraphs(train_s), oracle_digraphs(test_s), l_ms, m_min)
        assert train.n_features > 0 or l_ms < 1500.0


@pytest.mark.parametrize("m_min", [0, 1, 3])
@pytest.mark.parametrize("l_ms", [500.0, 600.0])
def test_latency_filter_bit_equal_to_oracle_hand_cases(m_min, l_ms):
    # 600.0 puts the dig_a_b latency exactly at the cap
    events = filter_events()
    dense = dense_digraphs(events)
    assert_filter_matches_oracle(events, events, dense, dense, l_ms, m_min)
    # the a->b latency of the hand case is 300 ms, exactly at this cap
    hand = key_session(hand_keys())
    assert_filter_matches_oracle(keystroke_features(hand)[1], keystroke_features(hand)[1],
                                 keystroke_features_oracle(hand)[1],
                                 keystroke_features_oracle(hand)[1], 300.0, m_min)
