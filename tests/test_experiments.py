"""Experiment configuration, corpus splits, and the end-to-end runners."""

import dataclasses
import json
import math
import typing

import numpy as np
import pytest

from hmogkit import experiments
from hmogkit.bkg import commit, grs_build, guessing
from hmogkit.corpus.synth import KEY_ALPHABET, make_corpus, make_profiles
from hmogkit.corpus.types import Condition, Session
from hmogkit.experiments import (
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    _channel_setup,
    build_sessions,
    extract_channels,
    run_auth,
    run_between,
    run_bkg,
    run_fuse,
    run_rate_sweep,
    split_train_test,
    training_sessions,
)
from hmogkit.hmog import extract_hmog
from hmogkit.matrix import FeatureMatrix
from hmogkit.pipeline import SESSION_STRIDE_MS, scan_aggregate
from hmogkit.touchkeys import (
    EVENT_COLUMNS,
    digraph_feature_names,
    keystroke_features,
    latency_outlier_filter,
    tap_features,
    widen,
)
from hmogkit.table import read_rows
from labels import labelled, scores_of, session_ids, stacked, user_ids
from oracles import digraph_events, lee_weight_oracle, open_table_oracle
from tables import tap_rows, tap_table


def bare_session(user, session_id):
    return Session(user_id=user, session_id=session_id,
                   condition=Condition.SITTING)


def fm_of(values, users, sessions, t, columns, table=()):
    return labelled(columns, values, users, sessions, np.asarray(t, dtype=np.int64), table)


# ---------------------------------------------------------------- config

def test_config_validate_accepts_defaults():
    config = ExperimentConfig()
    assert config.validate() is config


def test_config_validate_accepts_one_ms_scans():
    # int(0.001 * 1000) is exactly 1: the shortest window a scan can have
    ExperimentConfig(scan_seconds=(0.001,), bkg_scan_seconds=0.001).validate()


def test_config_validate_accepts_zero_separation_and_longest_spans():
    # 9.2e18 ms is just below 2**63, the int64 timestamp limit
    ExperimentConfig(separation=0.0, session_seconds=9.2e15, scan_seconds=(9.2e15,),
                     bkg_scan_seconds=9.2e15).validate()


@pytest.mark.parametrize("overrides", [
    {"channels": ("sonar",)},
    {"channels": ()},
    {"bkg_channels": ("sonar",)},
    {"sensors": ("acc", "baro")},
    {"sensors": ()},
    {"condition": "flying"},
    {"mode": "sideways"},
    {"metric": "cosine"},
    {"scan_seconds": ()},
    {"scan_seconds": (0.0,)},
    {"selector": "pca"},
    {"n_users": 1},
    {"sessions": 2},
    {"min_vectors": 0},
    {"workers": 0},
    {"downsample_factors": (0,)},
    {"downsample_factors": (1.5,)},
    {"bkg_n": 0},
    {"fusion_weights": {"sonar": 1.0}},
    {"fusion_weights": {"hmog": -0.5}},
    {"channels": ("tap", "tap")},
    {"bkg_channels": ()},
    {"bkg_channels": ("hmog", "hmog")},
    {"sensors": ("acc", "acc")},
    {"scan_seconds": (60.0, 60.0)},
    {"downsample_factors": ()},
    {"downsample_factors": (2, 2)},
    {"scan_seconds": (0.0001,)},
    {"scan_seconds": (60.0, 0.0009)},
    {"scan_seconds": (math.inf,)},
    {"bkg_scan_seconds": 0.0005},
    {"bkg_scan_seconds": math.inf},
    {"session_seconds": math.inf},
    {"session_seconds": 1e308},
    {"scan_seconds": (1e16,)},
    {"bkg_scan_seconds": 1e308},
    {"separation": -1.0},
    {"separation": math.inf},
    {"tap_rate_hz": -1.0},
    {"tap_rate_hz": math.inf},
    {"latency_max_ms": -5.0},
    {"latency_max_ms": 0.0},
    {"selector_value": -1.0},
    {"selector_value": 0.0},
    {"selector": "mrmr", "selector_value": math.inf},
    {"selector": None, "selector_value": -math.inf},
])
def test_config_validate_rejects(overrides):
    with pytest.raises(ConfigError):
        ExperimentConfig(**overrides).validate()


def test_config_validate_accepts_value_range_edges():
    # no tap rate, no latency cap, and a negative mrmr threshold are runs
    ExperimentConfig(tap_rate_hz=0.0, latency_max_ms=math.inf).validate()
    ExperimentConfig(selector="mrmr", selector_value=-1.0).validate()
    ExperimentConfig(selector=None, selector_value=-1.0).validate()


def test_config_gives_each_value_one_form():
    config = ExperimentConfig(channels=["hmog", "tap"], scan_seconds=[20.0, 60.0],
                              fusion_weights={"hmog": -0.0, "tap": 1})
    assert config.channels == ("hmog", "tap") and config.scan_seconds == (20.0, 60.0)
    assert config.fusion_weights == {"hmog": 0.0, "tap": 1.0}
    assert math.copysign(1.0, config.fusion_weights["hmog"]) == 1.0
    assert isinstance(config.fusion_weights["tap"], float)
    assert config == ExperimentConfig(channels=("hmog", "tap"), scan_seconds=(20.0, 60.0),
                                      fusion_weights={"hmog": 0.0, "tap": 1.0})
    # a list no longer fits a tuple field; only the conversion above admits it
    assert not experiments._fits(["hmog"], experiments._FIELD_TYPES["channels"])
    with pytest.raises(ConfigError, match="fusion_weights must be an object"):
        ExperimentConfig(fusion_weights=[1.0])


def test_default_config_hash_is_pinned():
    assert ExperimentConfig().config_hash() == "ab8f4e50556f76b3"


def test_float_fields_hash_alike_as_int_and_float():
    ints = {"session_seconds": 300, "separation": 2, "tap_rate_hz": 1,
            "scan_seconds": (60, 20), "selector_value": 1, "pca_fraction": 1,
            "latency_max_ms": 900, "fusion_step": 1, "bkg_scan_seconds": 30}
    hints = experiments._FIELD_TYPES
    assert set(ints) == {name for name, hint in hints.items()
                         if float in (hint, *typing.get_args(hint))}
    for name, value in ints.items():
        floats = tuple(map(float, value)) if isinstance(value, tuple) else float(value)
        as_int = ExperimentConfig(**{name: value})
        assert as_int.config_hash() == ExperimentConfig(**{name: floats}).config_hash(), name
        assert repr(getattr(as_int, name)) == repr(floats), name
    assert ExperimentConfig(scan_seconds=(60,)).config_hash() == "ab8f4e50556f76b3"


@pytest.mark.parametrize("overrides", [
    {"separation": True}, {"scan_seconds": (60.0, False)}, {"pca_fraction": True}])
def test_float_fields_reject_bools(overrides):
    with pytest.raises(ConfigError, match="must be"):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("name", ["session_seconds", "tap_rate_hz", "scan_seconds"])
def test_float_fields_reject_ints_beyond_float(name):
    value = (10 ** 400,) if name == "scan_seconds" else 10 ** 400
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        ExperimentConfig(**{name: value})


def test_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="two users"):
        ExperimentConfig(n_users=1)
    with pytest.raises(ConfigError, match="channels must not be empty"):
        dataclasses.replace(ExperimentConfig(), channels=())


def test_config_hash_ignores_result_neutral_fields():
    base = ExperimentConfig()
    moved = dataclasses.replace(base, out_dir="/tmp/elsewhere", workers=6)
    assert base.config_hash() == moved.config_hash()
    assert len(base.config_hash()) == 16
    int(base.config_hash(), 16)
    reseeded = dataclasses.replace(base, seed=8)
    assert reseeded.config_hash() != base.config_hash()


# ---------------------------------------------------------------- splits

def split_fixture():
    return [
        bare_session("B", "s02"), bare_session("A", "s03"),
        bare_session("A", "s01"), bare_session("B", "s01"),
        bare_session("A", "s02"), bare_session("B", "s03"),
    ]


def test_training_sessions_first_two_per_user():
    train = training_sessions(split_fixture())
    assert [(s.user_id, s.session_id) for s in train] == [
        ("A", "s01"), ("A", "s02"), ("B", "s01"), ("B", "s02")]


def test_split_train_test():
    train, test = split_train_test(split_fixture())
    assert len(train) == 4
    assert sorted((s.user_id, s.session_id) for s in test) == [
        ("A", "s03"), ("B", "s03")]


def test_split_requires_leftover_sessions():
    sessions = [bare_session("A", "s01"), bare_session("A", "s02"),
                bare_session("B", "s01"), bare_session("B", "s02")]
    with pytest.raises(InfeasibleError, match="testing"):
        split_train_test(sessions)


def test_session_table_sorted():
    # every channel holds every session, rows or not, in (user, session) order
    config = ExperimentConfig()
    for fm in extract_channels(split_fixture(), config.channels, config).values():
        assert fm.sessions == (("A", "s01"), ("A", "s02"), ("A", "s03"),
                               ("B", "s01"), ("B", "s02"), ("B", "s03"))


# ---------------------------------------------------------------- extraction

def test_extract_channel_shapes(mini_sessions):
    config = ExperimentConfig(n_users=3, sessions=3, session_seconds=120.0)
    one = mini_sessions[:1]
    assert extract_channels(one, ("hmog",), config)["hmog"].n_features == 96
    sub = dataclasses.replace(config, sensors=("acc",))
    acc = extract_channels(one, ("hmog",), sub)["hmog"]
    assert acc.n_features == 32
    assert all(c.startswith("acc_") for c in acc.columns)
    assert extract_channels(one, ("tap",), config)["tap"].n_features == 11
    assert extract_channels(one, ("keyhold",), config)["keyhold"].n_features == 89
    digraphs = extract_channels(one, ("digraph",), config)["digraph"]
    assert digraphs.columns == EVENT_COLUMNS
    assert widen(digraphs, digraph_feature_names()).n_features == 1225
    with pytest.raises(ConfigError):
        extract_channels(one, ("sonar",), config)


def test_extract_channel_orders_sessions(mini_sessions):
    config = ExperimentConfig(n_users=3, sessions=3, session_seconds=120.0)
    fm = extract_channels(list(reversed(mini_sessions)), ("tap",), config)["tap"]
    labels = list(zip(user_ids(fm), session_ids(fm)))
    assert labels == sorted(labels)


BATCHED = {
    "hmog_during": extract_hmog,
    "hmog_between": lambda *sessions: extract_hmog(*sessions, mode="between"),
    "tap": tap_features,
    "keyhold": lambda *sessions: keystroke_features(*sessions)[0],
    "digraph": lambda *sessions: keystroke_features(*sessions)[1],
}


@pytest.mark.parametrize("name", BATCHED)
def test_batched_extractor_equals_one_call_per_session(mini_sessions, name):
    extract = BATCHED[name]
    # given order, not sorted; an empty session; one session twice in a
    # row; every session starts and ends on an alphabet key, so a digraph
    # spanning two sessions would add a row the per-session calls do not have
    sessions = [mini_sessions[4], bare_session("u09", "s01"), mini_sessions[0],
                mini_sessions[8], mini_sessions[8]]
    assert all(s.keys.key[0] in KEY_ALPHABET and s.keys.key[-1] in KEY_ALPHABET
               for s in sessions if len(s.keys))
    got = extract(*sessions)
    parts = [extract(s) for s in sessions]
    want = stacked(parts)
    assert got.columns == want.columns
    assert got.values.tobytes() == want.values.tobytes()
    assert got.t_ms.tobytes() == want.t_ms.tobytes()
    assert list(user_ids(got)) == list(user_ids(want))
    assert list(session_ids(got)) == list(session_ids(want))
    assert got.sessions == tuple(sorted({(s.user_id, s.session_id) for s in sessions}))
    if name.startswith("hmog"):
        assert got.meta == {"mode": name.split("_")[1], **{
            key: sum(p.meta[key] for p in parts)
            for key in ("n_events", "n_skipped", "n_context_overlap")}}
    empty = extract()
    assert empty.columns == got.columns and empty.n_rows == 0


def test_extract_channels_one_keystroke_pass_per_side(mini_sessions, monkeypatch):
    from hmogkit import experiments
    calls = {name: [] for name in ("extract_hmog", "tap_features", "keystroke_features")}

    def counting(name):
        original = getattr(experiments, name)

        def extractor(*sessions, **kwargs):
            calls[name].append([(s.user_id, s.session_id) for s in sessions])
            return original(*sessions, **kwargs)
        return extractor

    for name in calls:
        monkeypatch.setattr(experiments, name, counting(name))
    config = ExperimentConfig(n_users=3, sessions=3, session_seconds=120.0)
    both = extract_channels(mini_sessions[:2], ("keyhold", "digraph"), config)
    assert len(calls["keystroke_features"]) == 1
    for channel in ("keyhold", "digraph"):
        single = extract_channels(mini_sessions[:2], (channel,), config)[channel]
        assert both[channel].columns == single.columns
        assert both[channel].values.tobytes() == single.values.tobytes()
    # channel set-up: one extraction per side covering every channel, so
    # one call of each extractor per side, with every session of that side
    for seen in calls.values():
        del seen[:]
    train_s, test_s = mini_sessions[:2], mini_sessions[2:3]
    channels = ("keyhold", "tap", "digraph", "hmog")
    extract_calls = []

    def counting_extract(sessions, chans, *args):
        extract_calls.append(tuple(chans))
        return extract_channels(sessions, chans, *args)

    monkeypatch.setattr(experiments, "extract_channels", counting_extract)
    matrices = experiments._channel_matrices(train_s, test_s, channels, config)
    assert extract_calls == [channels, channels]
    sides = [sorted((s.user_id, s.session_id) for s in side) for side in (train_s, test_s)]
    assert calls == {name: sides for name in calls}
    assert list(matrices) == list(channels)
    for channel in ("keyhold", "tap", "hmog"):
        train_fm, test_fm = matrices[channel]
        for got, side in ((train_fm, train_s), (test_fm, test_s)):
            want = extract_channels(side, (channel,), config)[channel]
            assert got.values.tobytes() == want.values.tobytes()
    want = latency_outlier_filter(extract_channels(train_s, ("digraph",), config)["digraph"],
                                  extract_channels(test_s, ("digraph",), config)["digraph"],
                                  config.latency_max_ms, config.latency_min_count)
    for got, fm in zip(matrices["digraph"], want):
        assert got.columns == fm.columns
        assert got.values.tobytes() == fm.values.tobytes()


def test_channel_setup_keystrokes_stay_below_one_dense_digraph_matrix(mini_sessions):
    import tracemalloc
    # the default latency filter; the old path built the dense 1,225-column
    # training matrix before filtering it
    config = ExperimentConfig(n_users=3, sessions=3, session_seconds=120.0,
                              min_vectors=5)
    train_s, test_s = split_train_test(mini_sessions)
    dense_bytes = extract_channels(train_s, ("digraph",), config)["digraph"].n_rows * 1225 * 8
    tracemalloc.start()
    try:
        data, _, notes = _channel_setup(config, train_s, test_s, ("keyhold", "digraph"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(data) == {"keyhold", "digraph"}, notes
    assert peak < dense_bytes


def test_filter_digraphs_train_decides_columns():
    config = ExperimentConfig(latency_max_ms=500.0, latency_min_count=2)
    columns = ("dig_a_b", "dig_a_c")
    train = fm_of([[100.0, np.nan], [200.0, np.nan], [np.nan, 900.0], [np.nan, 50.0]],
                  ["A"] * 4, ["s01"] * 4, [0, 1, 2, 3], columns)
    test = fm_of([[np.nan, 80.0], [150.0, np.nan]],
                 ["A"] * 2, ["s03"] * 2, [0, 1], columns)
    ftrain, ftest = latency_outlier_filter(digraph_events(train), digraph_events(test),
                                           config.latency_max_ms, config.latency_min_count)
    # dig_a_c has one sub-cap training value, below the min count
    assert ftrain.columns == ("dig_a_b",)
    assert ftest.columns == ("dig_a_b",)
    assert ftest.n_rows == 2


# ---------------------------------------------------------------- scans

def test_aggregate_scans_aligns_channels():
    table = [("u1", "s01"), ("u1", "s02")]
    wide = fm_of([[1.0], [3.0], [5.0], [7.0]], ["u1"] * 4,
                 ["s01", "s01", "s02", "s02"], [10000, 70000, 0, 65000], ["a"])
    narrow = fm_of([[2.0]], ["u1"], ["s01"], [30000], ["b"], table)
    agg_wide = scan_aggregate(wide, 60.0)
    agg_narrow = scan_aggregate(narrow, 60.0)
    stride = SESSION_STRIDE_MS
    assert list(agg_wide.t_ms) == [0, 60000, stride, 60000 + stride]
    # the narrow channel's one window lands on the same key as the wide one
    assert list(agg_narrow.t_ms) == [0]
    assert agg_wide.values[0][0] == 1.0   # [10000] alone in the first window
    assert agg_wide.values[1][0] == 3.0


def test_aggregate_scans_skips_absent_pairs():
    fm = fm_of([[1.0]], ["u1"], ["s01"], [0], ["a"], [("u2", "s01")])
    agg = scan_aggregate(fm, 60.0)
    assert agg.n_rows == 1
    empty = scan_aggregate(FeatureMatrix.empty(("a",)), 60.0)
    assert empty.n_rows == 0


# ---------------------------------------------------------------- corpora

def test_build_sessions_from_corpus_dir(mini_corpus_dir):
    config = ExperimentConfig(corpus_dir=str(mini_corpus_dir))
    sessions = build_sessions(config)
    assert len(sessions) == 9
    assert {s.user_id for s in sessions} == {"u01", "u02", "u03"}


def test_build_sessions_condition_filter(mini_corpus_dir):
    config = ExperimentConfig(corpus_dir=str(mini_corpus_dir), condition="walking")
    with pytest.raises(InfeasibleError, match="walking"):
        build_sessions(config)


def test_build_sessions_synthesizes():
    config = ExperimentConfig(n_users=2, sessions=3, session_seconds=40.0)
    sessions = build_sessions(config)
    assert len(sessions) == 6
    assert all(s.condition is Condition.SITTING for s in sessions)


# ---------------------------------------------------------------- runners

def auth_config(**overrides):
    base = dict(n_users=3, sessions=3, session_seconds=120.0, min_vectors=30,
                scan_seconds=(30.0,), seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_auth_bundle(mini_sessions, tmp_path):
    config = auth_config(out_dir=str(tmp_path))
    bundle = run_auth(config, mini_sessions)
    assert bundle["config_hash"] == config.config_hash()
    assert bundle["seed"] == 42
    entry = bundle["scans"]["30"]
    assert entry["channels"], "no channel produced decisions"
    for cell in entry["channels"].values():
        assert 0.0 <= cell["eer"] <= 1.0
        assert cell["n_genuine"] > 0 and cell["n_impostor"] > 0
    fused = entry["fused"]
    assert fused is not None
    assert sum(fused["weights"].values()) == pytest.approx(1.0)
    assert 0.0 <= fused["eer"] <= 1.0

    assert (tmp_path / "eer.csv").exists()
    assert (tmp_path / "enrollment.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config_hash"] == config.config_hash()
    eer_text = (tmp_path / "eer.csv").read_text()
    assert "np.float64" not in eer_text
    assert eer_text.startswith(f"# config_hash={config.config_hash()}\n")
    for channel in entry["channels"]:
        assert (tmp_path / f"scores_{channel}_30s.csv").exists()
        assert (tmp_path / f"det_{channel}_30s.csv").exists()
    assert (tmp_path / "scores_fused_30s.csv").exists()


def test_run_auth_single_channel_fuses_to_itself(mini_sessions):
    bundle = run_auth(auth_config(channels=("tap",)), mini_sessions)
    entry = bundle["scans"]["30"]
    assert set(entry["channels"]) == {"tap"}
    assert entry["fused"]["weights"] == {"tap": 1.0}
    assert entry["fused"]["eer"] == entry["channels"]["tap"]["eer"]


def test_run_auth_deterministic(mini_sessions):
    config = auth_config()
    a = run_auth(config, mini_sessions)
    b = run_auth(config, mini_sessions)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_auth_fixed_weights(mini_sessions):
    config = auth_config(channels=("hmog", "tap"),
                         fusion_weights={"hmog": 0.75, "tap": 0.25})
    bundle = run_auth(config, mini_sessions)
    fused = bundle["scans"]["30"]["fused"]
    assert fused["weights"] == {"hmog": 0.75, "tap": 0.25}


def test_run_rate_sweep(mini_sessions):
    config = auth_config(downsample_factors=(1, 2))
    bundle = run_rate_sweep(config, mini_sessions)
    assert set(bundle["factors"]) == {"1", "2"}
    assert bundle["factors"]["1"]["rate_hz"] == pytest.approx(100.0)
    assert bundle["factors"]["2"]["rate_hz"] == pytest.approx(50.0)
    for per in bundle["factors"].values():
        assert per["scans"], "factor produced no scored scans"
        for cell in per["scans"].values():
            assert cell["n_enrolled"] >= 2


def test_run_between_slow_taps(tmp_path):
    # sparse tapping leaves room for between-tap blocks
    config = ExperimentConfig(n_users=2, sessions=3, session_seconds=120.0,
                              tap_rate_hz=0.8, min_vectors=20,
                              scan_seconds=(30.0,), seed=11, out_dir=str(tmp_path))
    bundle = run_between(config, build_sessions(config))
    for mode in ("during", "between"):
        cell = bundle["modes"][mode]["scans"]["30"]
        assert 0.0 <= cell["eer"] <= 1.0
        assert cell["n_genuine"] > 0 and cell["n_impostor"] > 0
    text = (tmp_path / "between.csv").read_text()
    assert "during,30," in text and "between,30," in text


def test_run_between_modes_match_run_auth(tmp_path):
    # each mode of run_between is run_auth on the hmog channel in that mode
    base = ExperimentConfig(n_users=2, sessions=3, session_seconds=120.0,
                            tap_rate_hz=0.8, min_vectors=20, channels=("hmog",),
                            scan_seconds=(10.0, 30.0), seed=11)
    sessions = build_sessions(base)
    for mode in ("during", "between"):
        config = dataclasses.replace(base, mode=mode)
        between_dir, auth_dir = tmp_path / mode / "between", tmp_path / mode / "auth"
        between = run_between(dataclasses.replace(config, out_dir=str(between_dir)),
                              sessions)
        auth = run_auth(dataclasses.replace(config, out_dir=str(auth_dir)), sessions)
        cells = between["modes"][mode]["scans"]
        assert list(cells) == ["10", "30"]
        assert cells == {scan: entry["channels"]["hmog"]
                         for scan, entry in auth["scans"].items()}
        # the score rows below the stamps: run_between reads neither
        # channels nor mode, so its config hash differs from run_auth's
        for scan in cells:
            assert (list(read_rows(between_dir / f"scores_{mode}_{scan}s.csv"))
                    == list(read_rows(auth_dir / f"scores_hmog_{scan}s.csv")))


def test_run_bkg(mini_sessions):
    config = auth_config(bkg_n=7, bkg_l=4, bkg_p=11, bkg_scan_seconds=30.0)
    bundle = run_bkg(config, mini_sessions)
    assert bundle["code"] == {"n": 7, "l": 4, "p": 11, "radius": 2}
    report = bundle["channels"]["hmog"]
    assert "error" not in report
    assert report["log2_keyspace"] == pytest.approx(4 * np.log2(11))
    assert 0.0 <= report["far"] <= 1.0
    assert 0.0 <= report["frr"] <= 1.0
    assert report["eer"] == pytest.approx((report["far"] + report["frr"]) / 2)
    assert report["n_genuine"] > 0 and report["n_impostor"] > 0


@pytest.fixture(scope="module")
def close_sessions():
    """4 users x 3 sessions x 120 s whose profiles lie close together, so
    impostor windows open commitments too."""
    profiles = make_profiles(4, "sitting", 42, sessions=3, session_seconds=120.0,
                             separation=0.05)
    return make_corpus(profiles, 42)


def bkg_opens(monkeypatch, config, sessions):
    """The hmog report, the (password, probe) of every open run_bkg made,
    and every (password, probe) pair whose Lee distance from the grid that
    password committed is within the code's radius."""
    opens, near, committed = [], [], {}
    real_commit, real_open = experiments.commit, experiments.open_commitment
    real_table = experiments._open_table

    def committing(x, z, *, params, rng):
        committed[z] = np.asarray(x)
        return real_commit(x, z, params=params, rng=rng)

    def recording(commitment, y, z, *, params):
        opens.append((z, tuple(y.tolist())))
        return real_open(commitment, y, z, params=params)

    def table(commitments, grids, probes, users, params):
        for user in users:
            for y in probes.tolist():
                if lee_weight_oracle(np.subtract(y, committed[user]), params.p) <= params.radius:
                    near.append((user, tuple(y)))
        return real_table(commitments, grids, probes, users, params)

    monkeypatch.setattr(experiments, "commit", committing)
    monkeypatch.setattr(experiments, "_open_table", table)
    # the two names through which a runner can reach open_commitment
    monkeypatch.setattr(experiments, "open_commitment", recording)
    monkeypatch.setattr(guessing, "open_commitment", recording)
    return run_bkg(config, sessions)["channels"]["hmog"], opens, near


BKG_WIDE = dict(n_users=4, bkg_n=3, bkg_l=1, bkg_p=5, bkg_scan_seconds=5.0)


def test_run_bkg_opens_each_window_and_user_once(monkeypatch, close_sessions):
    report, opens, near = bkg_opens(monkeypatch, auth_config(**BKG_WIDE), close_sessions)
    windows = report["n_genuine"]
    assert windows > 0 and report["n_impostor"] == 3 * windows
    # each window against each user's commitment within the radius once,
    # and no other pair; the guessing distance reads the same table and
    # opens nothing
    assert sorted(opens) == sorted(near)
    assert report["far"] > 0 and report["guessing_distances"]
    assert report["enroll_notes"] == []


def test_run_bkg_users_without_probes(monkeypatch, close_sessions):
    # u03 has no test session: its commitment is still a target, but it
    # neither claims nor joins the guessing distance
    sessions = [s for s in close_sessions if (s.user_id, s.session_id) != ("u03", "s03")]
    assert len(sessions) == len(close_sessions) - 1
    report, opens, near = bkg_opens(monkeypatch, auth_config(**BKG_WIDE), sessions)
    windows = report["n_genuine"]
    assert report["n_impostor"] == 3 * windows
    assert sorted(opens) == sorted(near) and "u03" in {z for z, _ in opens}
    assert report["enroll_notes"] == ["no probes for u03"]
    assert "u03" not in report["guessing_distances"]
    assert report["non_guessed_pct"] + 100 * len(report["guessing_distances"]) / 3 == \
        pytest.approx(100.0)
    # one user left with probes
    alone = [s for s in sessions if s.user_id == "u01" or s.session_id != "s03"]
    with pytest.raises(InfeasibleError, match="hmog: fewer than two users have probe"):
        run_bkg(auth_config(**BKG_WIDE), alone)


def test_run_bkg_channel_without_fisher_scores_reports_error(mini_sessions, tmp_path):
    # u01 keeps one training tap: its tap matrix has a single row, so the
    # tap channel has no fisher scores, while keyhold still reports
    def cut(s):
        if s.user_id != "u01" or s.session_id == "s03":
            return s
        keep = 1 if s.session_id == "s01" else 0
        return dataclasses.replace(s, taps=tap_table(list(tap_rows(s.taps))[:keep]))

    sessions = [cut(s) for s in mini_sessions]
    config = auth_config(**BKG_WIDE, bkg_channels=("tap", "keyhold"), out_dir=str(tmp_path))
    reports = run_bkg(config, sessions)["channels"]
    assert reports["tap"]["error"] == "fisher scores need at least two vectors per user"
    assert "error" not in reports["keyhold"] and reports["keyhold"]["n_genuine"] > 0
    rows = [fields for _, fields in read_rows(tmp_path / "bkg.csv")]
    assert [row[0] for row in rows] == ["channel", "tap", "keyhold"]
    assert rows[1][-1] == reports["tap"]["error"]
    assert rows[2][-1] in ("yes", "no")
    # with one user left the check ahead of the scores reports it
    alone = [s for s in sessions if s.user_id == "u02"]
    with pytest.raises(InfeasibleError, match="tap: fewer than two users could enroll; "
                                              "keyhold: fewer than two users could enroll"):
        run_bkg(config, alone)


@pytest.mark.parametrize("n, l, p", [(13, 10, 29), (7, 2, 11), (6, 1, 7), (3, 1, 5)])
def test_open_table_matches_oracle(n, l, p):
    params = grs_build(n, l, p)
    rng = np.random.default_rng(n * 100 + p)
    users = ["u01", "u02", "u03", "u04"]
    center = rng.integers(0, p, n)
    grids = [(center + rng.integers(-1, 2, n)) % p for _ in users]
    commitments = [commit(grid, user, params=params, rng=rng)[0]
                   for grid, user in zip(grids, users)]
    # each probe a random walk of up to 2 tau + 2 unit steps from one
    # user's grid, so distances run from 0 to past the radius
    probes = []
    for _ in range(60):
        probe = grids[rng.integers(len(users))].copy()
        for i in rng.integers(0, n, rng.integers(0, 2 * params.radius + 3)):
            probe[i] = (probe[i] + rng.choice([-1, 1])) % p
        probes.append(probe)
    probes = np.array(probes)
    opened = experiments._open_table(commitments, grids, probes, users, params)
    oracle = open_table_oracle(commitments, probes, users, params)
    assert opened.dtype == oracle.dtype and np.array_equal(opened, oracle)
    distance = np.array([[lee_weight_oracle(y - grid, p) for grid in grids] for y in probes])
    # every pair within the radius opens, and both kinds occur
    assert opened[distance <= params.radius].all()
    assert opened.any() and not opened.all()


def test_run_bkg_rejects_bad_code(mini_sessions):
    config = auth_config(bkg_n=6, bkg_l=4, bkg_p=5)  # n > p
    with pytest.raises(ConfigError, match="code parameters"):
        run_bkg(config, mini_sessions)


def test_run_fuse_needs_two_channels(tmp_path):
    path = tmp_path / "only.csv"
    scores_of(["A", "A"], ["A", "B"], [0, 0], [1.0, 2.0]).write_csv(str(path))
    for paths, message in (
            ([("only", str(path))], "fuse needs score files of at least two channels, got 1"),
            # a repeated name would drop a file
            ([("a", str(path)), ("a", str(path))],
             "score names must not repeat an entry, got ['a', 'a']")):
        with pytest.raises(ConfigError) as raised:
            run_fuse(ExperimentConfig(), paths, None)
        assert str(raised.value) == message
