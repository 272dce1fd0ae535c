"""End-to-end command line coverage, including exit codes."""

import argparse
import csv
import dataclasses
import json
import math
import shutil

import pytest

from hmogkit.cli import build_config, main, make_parser
from hmogkit.corpus.io import load_corpus, save_corpus
from hmogkit.experiments import (
    AUTH_FIELDS,
    BETWEEN_FIELDS,
    BKG_FIELDS,
    CORPUS_FIELDS,
    EXTRACT_FIELDS,
    FUSE_FIELDS,
    OUT_DIR_ENV,
    SWEEP_FIELDS,
    TRAIN_FIELDS,
    ExperimentConfig,
    _enroll_channel,
    _stamp,
    build_sessions,
    run_extract,
    run_fuse,
    run_train,
    training_sessions,
)
from hmogkit.matrix import FeatureMatrix
from hmogkit.pipeline import save_templates
from hmogkit.verify import ScoreSet
from labels import actual_ids, claimed_ids, scores_of
from oracles import keystroke_features_oracle, latency_outlier_filter_oracle


SYNTH_ARGS = ["synth", "--users", "2", "--sessions", "3",
              "--session-seconds", "60", "--seed", "5"]


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    code = main([*SYNTH_ARGS, "--corpus-out", str(out)])
    assert code == 0
    return out


def eval_args(corpus, *extra):
    return ["eval", "--corpus", str(corpus), "--channels", "hmog,tap",
            "--scans", "20", "--min-vectors", "10", "--seed", "5", *extra]


def tree_bytes(root):
    """{path relative to root: bytes} of every file under root."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def csv_rows(path):
    """(header, rows) of a CSV file, comment lines skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    return header, rows


# ---------------------------------------------------------------- exit codes

def test_bad_metric_is_a_config_error(capsys):
    assert main(["eval", "--metric", "cosine"]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_corpus_is_a_data_error(tmp_path, capsys):
    code = main(["extract", "--corpus", str(tmp_path / "nope"),
                 "--features-out", str(tmp_path / "f.csv")])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_empty_condition_filter_is_infeasible(cli_corpus, capsys):
    code = main(eval_args(cli_corpus, "--condition", "walking"))
    assert code == 4
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "0.3"])
def test_bad_fusion_step_is_a_config_error(step, capsys):
    # rejected before any corpus is synthesized or extracted
    assert main(["eval", "--fusion-step", step]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: fusion step")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


SMALL = ["--users", "2", "--sessions", "3", "--session-seconds", "30"]


@pytest.fixture(scope="module")
def malformed_corpora(tmp_path_factory):
    """Corpus directories whose index.json, meta.json or recordings are broken."""
    root = tmp_path_factory.mktemp("malformed")
    index = json.dumps({"version": 1, "sessions": [{"path": "s1"}]})
    meta = json.dumps({"session_id": "s01", "condition": "sitting"})
    good_meta = json.dumps({"user_id": "u1", "session_id": "s01", "condition": "sitting"})
    taps = "session_id,tap_id,t_start_ms,t_end_ms\n"
    sensor = "session_id,sensor,t_ms,x,y,z\n"
    for name, files in [
            # a session shifted 5 s early: timestamps count from session start
            ("negative_t", {"taps.csv": taps,
                            "sensor.csv": sensor + "s01,acc,-5000,0.1,0.2,9.8\n"}),
            ("infinite_t", {"taps.csv": taps + "s01,1,100,inf\n"})]:
        (root / name / "s1").mkdir(parents=True)
        (root / name / "index.json").write_text(index)
        (root / name / "s1" / "meta.json").write_text(good_meta)
        for file_name, text in files.items():
            (root / name / "s1" / file_name).write_text(text)
    for name, index_text, meta_text in [
            ("index_not_json", "{not json", None),
            ("index_no_path", json.dumps({"sessions": [{"user_id": "u1"}]}), None),
            ("meta_not_json", index, "not json"),
            ("meta_no_user", index, meta),
            ("meta_bad_condition", index, json.dumps(
                {"user_id": "u1", "session_id": "s01", "condition": "running"})),
            ("meta_bad_rate", index, json.dumps(
                {"user_id": "u1", "session_id": "s01", "condition": "sitting",
                 "nominal_rate_hz": {"accel": 100.0}})),
            # json.load accepts Infinity; the rate would reach summary.json
            ("meta_inf_rate", index, json.dumps(
                {"user_id": "u1", "session_id": "s01", "condition": "sitting",
                 "nominal_rate_hz": {"acc": math.inf}})),
            # the ids follow ingest's rules: a lone CR in user_id would split
            # score rows, and a leading '#' makes every session row a comment
            ("meta_user_cr", index, json.dumps(
                {"user_id": "a\rb", "session_id": "s01", "condition": "sitting"})),
            ("meta_session_hash", index, json.dumps(
                {"user_id": "u1", "session_id": "#s01", "condition": "sitting"})),
            ("meta_user_null", index, json.dumps(
                {"user_id": None, "session_id": "s01", "condition": "sitting"}))]:
        (root / name / "s1").mkdir(parents=True)
        (root / name / "index.json").write_text(index_text)
        if meta_text is not None:
            (root / name / "s1" / "meta.json").write_text(meta_text)
    return root


@pytest.mark.parametrize("argv, config, code, message", [
    (["eval", *SMALL, "--channels", "hmog,tap", "--weights", "hmog=nan,tap=1"], None,
     2, "config error: fusion weight hmog=nan must be a finite nonnegative number"),
    (["eval", *SMALL, "--channels", "hmog,tap", "--weights", "hmog=1,tap=inf"], None,
     2, "config error: fusion weight tap=inf must be"),
    (["eval", *SMALL, "--channels", "hmog,tap", "--weights", "hmog=-1,tap=1"], None,
     2, "config error: fusion weight hmog=-1.0 must be"),
    (["fuse", "--weights", "good=nan,bad=1"], None, 2, "config error: fusion weight good=nan"),
    (["fuse", "--weights", "good=-inf,bad=1"], None, 2, "config error: fusion weight good=-inf"),
    (["fuse", "--weights", "good=1,bad=-0.5"], None, 2, "config error: fusion weight bad=-0.5"),
    (["bkg", *SMALL, "--field-prime", "65537"], None,
     2, "config error: field prime must be below 65536"),
    (["eval", *SMALL], {"scan_seconds": 60}, 2, "config error: scan_seconds must be"),
    (["eval", *SMALL], {"n_users": "three"}, 2, "config error: n_users must be int"),
    (["eval", *SMALL], {"fusion_weights": {"hmog": "x"}}, 2, "config error: fusion weight"),
    (["eval", *SMALL], {"seed": -1}, 2, "config error: seed must be nonnegative"),
    (["eval", *SMALL, "--scans", "20,nan"], None, 2, "config error: scan_seconds must be"),
    (["eval", *SMALL, "--tap-rate", "nan"], None, 2, "config error: tap_rate_hz must be"),
    (["eval", *SMALL, "--channels", "digraph"], None,
     4, "infeasible: digraph: no usable training vectors"),
    (["bkg", *SMALL, "--bkg-channels", "digraph"], None,
     4, "infeasible: digraph: not enough features"),
    (["eval", *SMALL, "--pca-fraction", "2"], None,
     2, "config error: pca_fraction must be in (0, 1], got 2.0"),
    (["eval", *SMALL[:4], "--session-seconds", "0"], None,
     2, "config error: session_seconds must be positive, got 0.0"),
    (["bkg", *SMALL, "--bkg-scan", "-1"], None,
     2, "config error: bkg_scan_seconds must be positive, got -1.0"),
    (["eval", *SMALL, "--latency-min-count", "-3"], None,
     2, "config error: latency_min_count must be nonnegative, got -3"),
    (["eval", "--corpus", "{corpora}/index_not_json"], None,
     3, "data error: {corpora}/index_not_json/index.json: not valid JSON"),
    (["eval", "--corpus", "{corpora}/index_no_path"], None,
     3, 'data error: {corpora}/index_no_path/index.json: every session entry needs a "path"'),
    (["eval", "--corpus", "{corpora}/meta_not_json"], None,
     3, "data error: {corpora}/meta_not_json/s1/meta.json: not valid JSON"),
    (["eval", "--corpus", "{corpora}/meta_no_user"], None,
     3, "data error: {corpora}/meta_no_user/s1/meta.json: missing 'user_id'"),
    (["eval", "--corpus", "{corpora}/meta_bad_condition"], None,
     3, "data error: {corpora}/meta_bad_condition/s1/meta.json: unknown condition 'running'"),
    (["eval", "--corpus", "{corpora}/meta_bad_rate"], None,
     3, "data error: {corpora}/meta_bad_rate/s1/meta.json: nominal_rate_hz must map"),
    (["eval", *SMALL, "--channels", "tap,tap", "--scans", "60,60"], None,
     2, "config error: channels must not repeat an entry, got ['tap', 'tap']"),
    (["eval", *SMALL, "--channels", "tap", "--scans", "60,60"], None,
     2, "config error: scan_seconds must not repeat an entry, got [60.0, 60.0]"),
    (["sweep", *SMALL, "--factors", "2,2"], None,
     2, "config error: downsample_factors must not repeat an entry, got [2, 2]"),
    (["bkg", *SMALL], {"bkg_channels": []}, 2, "config error: bkg_channels must not be empty"),
    (["sweep", *SMALL], {"downsample_factors": []},
     2, "config error: downsample_factors must not be empty"),
    (["eval", *SMALL], {"channels": []}, 2, "config error: channels must not be empty"),
    (["eval", "--corpus", "{corpora}/negative_t"], None,
     3, "data error: {corpora}/negative_t/s1/sensor.csv:2: negative timestamp '-5000'"),
    (["eval", "--corpus", "{corpora}/infinite_t"], None,
     3, "data error: {corpora}/infinite_t/s1/taps.csv:2: bad timestamp 'inf'"),
    (["eval", *SMALL, "--scans", "0.0001"], None,
     2, "config error: scan_seconds must be finite and at least 0.001 s, got 0.0001"),
    (["eval", *SMALL, "--scans", "20,inf"], None,
     2, "config error: scan_seconds must be finite and at least 0.001 s, got inf"),
    (["bkg", *SMALL, "--bkg-scan", "0.0009"], None,
     2, "config error: bkg_scan_seconds must be finite and at least 0.001 s, got 0.0009"),
    (["synth", *SMALL[:4], "--session-seconds", "inf", "--corpus-out", "{corpora}/inf"], None,
     2, "config error: session_seconds must be finite, got inf"),
    (["sweep", "--corpus", "{corpora}/meta_inf_rate"], None,
     3, "data error: {corpora}/meta_inf_rate/s1/meta.json: nominal_rate_hz must map"
        " sensor tags to positive finite rates, got {{'acc': inf}}"),
    (["eval", "--corpus", "{corpora}/meta_user_cr"], None,
     3, "data error: {corpora}/meta_user_cr/s1/meta.json: user_id 'a\\rb',"
        " which must not contain CR"),
    (["eval", "--corpus", "{corpora}/meta_session_hash"], None,
     3, "data error: {corpora}/meta_session_hash/s1/meta.json: session_id '#s01',"
        " which must not start with '#'"),
    (["eval", "--corpus", "{corpora}/meta_user_null"], None,
     3, "data error: {corpora}/meta_user_null/s1/meta.json: user_id None,"
        " expected a non-empty string or an integer"),
    (["bkg", *SMALL, "--bkg-channels", "tap"], None,
     4, "infeasible: tap: not enough features for the code length (11 features, code length 13)"),
    # n == p would put locator 0 at the last position, where the decoder
    # cannot keep the radius n - l - 1
    (["bkg", *SMALL, "--code-length", "7", "--message-length", "1", "--field-prime", "7"], None,
     2, "config error: bkg code parameters rejected: need n < p"),
    (["bkg", *SMALL, "--code-length", "13", "--message-length", "8", "--field-prime", "13"],
     None, 2, "config error: bkg code parameters rejected: need n < p"),
    # scan spans and session lengths are int64 milliseconds
    (["eval", *SMALL, "--scans", "1e16"], None,
     2, "config error: scan_seconds must be below 2**63 ms, got 1e+16"),
    (["eval", *SMALL, "--scans", "1e300"], None,
     2, "config error: scan_seconds must be below 2**63 ms, got 1e+300"),
    (["eval", *SMALL, "--scans", "1e308"], None,
     2, "config error: scan_seconds must be below 2**63 ms, got 1e+308"),
    (["bkg", *SMALL, "--bkg-scan", "1e308"], None,
     2, "config error: bkg_scan_seconds must be below 2**63 ms, got 1e+308"),
    (["synth", *SMALL[:4], "--session-seconds", "1e308", "--corpus-out", "{corpora}/big"], None,
     2, "config error: session_seconds must be below 2**63 ms, got 1e+308"),
    (["eval", *SMALL, "--separation", "-1"], None,
     2, "config error: separation must be finite and nonnegative, got -1.0"),
    (["eval", *SMALL, "--separation", "inf"], None,
     2, "config error: separation must be finite and nonnegative, got inf"),
    (["eval", *SMALL, "--tap-rate", "-1"], None,
     2, "config error: tap_rate_hz must be finite and nonnegative, got -1.0"),
    (["eval", *SMALL, "--tap-rate", "inf"], None,
     2, "config error: tap_rate_hz must be finite and nonnegative, got inf"),
    (["eval", *SMALL, "--latency-max", "-5"], None,
     2, "config error: latency_max_ms must be positive, got -5.0"),
    (["eval", *SMALL, "--selector-value", "-1"], None,
     2, "config error: fisher selector_value must be positive, got -1.0"),
    (["eval", *SMALL, "--selector", "mrmr", "--selector-value", "inf"], None,
     2, "config error: selector_value must be finite, got inf"),
])
def test_malformed_input_exits_with_one_line(tmp_path, capsys, malformed_corpora, argv,
                                              config, code, message):
    argv = [arg.format(corpora=malformed_corpora) for arg in argv]
    message = message.format(corpora=malformed_corpora)
    out = tmp_path / "out"
    if argv[0] != "synth":  # synth writes no output directory
        argv = [*argv, "--out-dir", str(out)]
    if argv[0] == "fuse":
        score_csv(tmp_path / "good.csv", [1.0, 2.0], [10.0, 11.0])
        score_csv(tmp_path / "bad.csv", [10.0, 11.0], [1.0, 2.0])
        argv += ["--scores", f"good={tmp_path / 'good.csv'}",
                 "--scores", f"bad={tmp_path / 'bad.csv'}"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(message)
    assert not out.exists()


def test_unknown_config_key_is_a_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sead": 1}')
    assert main(["eval", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------- pipeline

def test_synth_wrote_a_corpus(cli_corpus):
    assert (cli_corpus / "index.json").exists()
    assert len(load_corpus(str(cli_corpus))) == 6


@pytest.mark.parametrize("condition", ["sitting", "walking"])
def test_synth_writes_identical_bytes_twice(cli_corpus, tmp_path, condition):
    # walking draws gait phases between each sensor's noise block and its
    # impulse jitters, a draw order no benchmark workload reaches
    def synth(name):
        out = tmp_path / name
        assert main([*SYNTH_ARGS, "--condition", condition, "--corpus-out", str(out)]) == 0
        return tree_bytes(out)

    # cli_corpus is the first sitting run
    first = tree_bytes(cli_corpus) if condition == "sitting" else synth("first")
    assert synth("again") == first


def test_extract_writes_stamped_csv(cli_corpus, tmp_path):
    out = tmp_path / "tap.csv"
    code = main(["extract", "--corpus", str(cli_corpus), "--channel", "tap",
                 "--seed", "5", "--features-out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# config_hash=")
    assert "# seed=5" in text.splitlines()[1]
    assert "np.float64" not in text
    with open(out, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    assert len(header) == 3 + 11
    assert rows


def test_config_file_beats_flags(cli_corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 99}')
    out = tmp_path / "tap.csv"
    code = main(["extract", "--corpus", str(cli_corpus), "--channel", "tap",
                 "--seed", "1", "--config", str(cfg),
                 "--features-out", str(out)])
    assert code == 0
    assert "# seed=99" in out.read_text().splitlines()[1]


def test_train_writes_loadable_templates(cli_corpus, tmp_path):
    out = tmp_path / "templates.json"
    code = main(["train", "--corpus", str(cli_corpus), "--channel", "hmog",
                 "--min-vectors", "10", "--templates-out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["format"] == "hmogkit-templates-1"
    assert set(blob["templates"]) == {"u01", "u02"}
    assert blob["params"]["channel"] == "hmog"
    for saved in blob["templates"].values():
        width = len(saved["input_features"])
        assert width > 0 and len(saved["raw_means"]) == width
        assert len(saved["mu"]) == len(saved["sigma"]) == width
        assert saved["n_train"] >= 10
        assert saved["pca"] is None


@pytest.mark.parametrize("command, flags", [
    ("extract", ["--features-out"]), ("train", ["--min-vectors", "10", "--templates-out"])])
def test_single_channel_commands_ignore_fusion_weights(cli_corpus, tmp_path, command, flags):
    # a config file written for eval names fusion weights for channels that
    # extract and train, which neither fuse, do not run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fusion_weights": {"hmog": 0.5, "tap": 0.5}}))
    argv = [command, "--corpus", str(cli_corpus), "--channel", "hmog", *flags[:-1]]
    out_flag = flags[-1]
    assert main([*argv, "--config", str(cfg), out_flag, str(tmp_path / "got")]) == 0
    assert main([*argv, out_flag, str(tmp_path / "want")]) == 0
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def cli_config(argv, channel):
    """The config a keystroke extract or train run uses."""
    return dataclasses.replace(build_config(make_parser().parse_args(argv)),
                               channels=(channel,))


def dense_keystrokes(sessions, channel):
    """The channel's dense matrix built by the per-event oracle."""
    pick = ("keyhold", "digraph").index(channel)
    return FeatureMatrix.vstack([keystroke_features_oracle(s)[pick] for s in
                                 sorted(sessions, key=lambda s: (s.user_id, s.session_id))])


@pytest.mark.parametrize("channel", ["keyhold", "digraph"])
def test_keystroke_extract_matches_oracle_path(cli_corpus, tmp_path, channel):
    # the CSV holds every column, unfiltered, as the dense extraction wrote it
    out, want = tmp_path / "got.csv", tmp_path / "want.csv"
    argv = ["extract", "--corpus", str(cli_corpus), "--channel", channel,
            "--seed", "5", "--features-out", str(out)]
    assert main(argv) == 0
    config = cli_config(argv, channel)
    fm = dense_keystrokes(build_sessions(config), channel)
    assert fm.n_features == {"keyhold": 89, "digraph": 1225}[channel]
    fm.write_csv(str(want), _stamp(config))
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("flags", [
    ["--latency-min-count", "2"],
    ["--latency-min-count", "0"],
    ["--latency-min-count", "1", "--latency-max", "800"],
])
def test_train_digraph_matches_oracle_path(cli_corpus, tmp_path, flags):
    out, want = tmp_path / "got.json", tmp_path / "want.json"
    argv = ["train", "--corpus", str(cli_corpus), "--channel", "digraph",
            "--min-vectors", "10", *flags, "--templates-out", str(out)]
    assert main(argv) == 0
    config = cli_config(argv, "digraph")
    dense = dense_keystrokes(training_sessions(build_sessions(config)), "digraph")
    train_fm = latency_outlier_filter_oracle(dense, config.latency_max_ms,
                                             config.latency_min_count)
    templates, _ = _enroll_channel("digraph", train_fm, config)
    assert len(templates) == 2
    save_templates(str(want), templates,
                   params_echo={"channel": "digraph", "config_hash": config.config_hash(),
                                "seed": config.seed})
    assert out.read_bytes() == want.read_bytes()


def test_eval_outputs_and_reruns_identically(cli_corpus, tmp_path, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(eval_args(cli_corpus, "--out-dir", str(out1))) == 0
    stdout = capsys.readouterr().out
    assert "fused" in stdout and "hmog" in stdout
    for name in ("eer.csv", "enrollment.csv", "summary.json",
                 "scores_hmog_20s.csv", "scores_tap_20s.csv",
                 "scores_fused_20s.csv", "det_fused_20s.csv"):
        assert (out1 / name).exists(), name
    assert main(eval_args(cli_corpus, "--out-dir", str(out2))) == 0
    assert (out1 / "eer.csv").read_bytes() == (out2 / "eer.csv").read_bytes()
    assert (out1 / "scores_fused_20s.csv").read_bytes() == \
        (out2 / "scores_fused_20s.csv").read_bytes()
    a = json.loads((out1 / "summary.json").read_text())
    b = json.loads((out2 / "summary.json").read_text())
    # only the echoed output location may differ between reruns
    a["config"].pop("out_dir"), b["config"].pop("out_dir")
    assert a == b


def test_selector_none_round_trips(cli_corpus, tmp_path):
    out = tmp_path / "run"
    code = main(["eval", "--corpus", str(cli_corpus), "--channels", "hmog",
                 "--scans", "20", "--min-vectors", "10",
                 "--selector", "none", "--out-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["selector"] is None


def test_out_dir_env_default(cli_corpus, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(OUT_DIR_ENV, str(target))
    assert main(eval_args(cli_corpus)) == 0
    assert (target / "summary.json").exists()


# ---------------------------------------------------------------- fuse

def score_csv(path, genuine, impostor):
    scores = scores_of(["A"] * (len(genuine) + len(impostor)),
                      ["A"] * len(genuine) + ["B"] * len(impostor),
                      [*range(len(genuine)), *range(len(impostor))],
                      [*genuine, *impostor])
    scores.write_csv(str(path))


def test_fuse_searches_weights(tmp_path, capsys):
    score_csv(tmp_path / "good.csv", [1.0, 2.0], [10.0, 11.0])
    score_csv(tmp_path / "bad.csv", [10.0, 11.0], [1.0, 2.0])
    out = tmp_path / "fused"
    code = main(["fuse", "--scores", f"good={tmp_path / 'good.csv'}",
                 "--scores", f"bad={tmp_path / 'bad.csv'}",
                 "--fusion-step", "0.5", "--out-dir", str(out)])
    assert code == 0
    assert "fused eer=0.0000" in capsys.readouterr().out
    report = json.loads((out / "fusion.json").read_text())
    assert report["weights"] == {"bad": 0.0, "good": 1.0}
    assert report["eer"] == 0.0
    assert (out / "scores_fused.csv").exists()
    assert (out / "det_fused.csv").exists()


def test_fuse_fixed_weights(tmp_path, capsys):
    score_csv(tmp_path / "good.csv", [1.0, 2.0], [10.0, 11.0])
    score_csv(tmp_path / "bad.csv", [10.0, 11.0], [1.0, 2.0])
    code = main(["fuse", "--scores", f"good={tmp_path / 'good.csv'}",
                 "--scores", f"bad={tmp_path / 'bad.csv'}",
                 "--weights", "good=1,bad=0"])
    assert code == 0
    assert "eer=0.0000" in capsys.readouterr().out


def test_negative_zero_fusion_weight_reads_as_zero(cli_corpus, tmp_path, monkeypatch,
                                                   capsys):
    # relative output paths, so the out_dir echoed in summary.json matches too
    runs = []
    for weight in ("0", "-0"):
        work = tmp_path / f"weight{weight}"
        work.mkdir()
        monkeypatch.chdir(work)
        weights = ["--weights", f"hmog={weight},tap=1"]
        assert main(eval_args(cli_corpus, *weights, "--out-dir", "eval")) == 0
        assert main(["fuse", "--scores", "hmog=eval/scores_hmog_20s.csv",
                     "--scores", "tap=eval/scores_tap_20s.csv", *weights,
                     "--out-dir", "fuse"]) == 0
        runs.append((capsys.readouterr().out, tree_bytes(work)))
    assert 'weights={"hmog": 0.0, "tap": 1.0}' in runs[0][0]
    assert runs[1] == runs[0]


def test_fuse_needs_two_channels(tmp_path, capsys):
    score_csv(tmp_path / "only.csv", [1.0], [2.0])
    assert main(["fuse", "--scores", f"only={tmp_path / 'only.csv'}"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "config error: fuse needs score files of at least two channels, got 1"]


@pytest.mark.parametrize("row, message", [
    ("impostor,A,B,0", "expected 5 fields, got 4"),
    ("impostor,A,B,0,1.5,9", "expected 5 fields, got 6"),
    ("impostor,A,B,0,far", "score a number"),
    ("impostor,A,B,1.5,2.0", "t_ms must be an integer"),
    ("genuin,A,A,0,1.0", "unknown kind 'genuin'"),
    ("genuine,A,B,5,1.0", "kind genuine does not match"),
    ("impostor,A,A,5,1.0", "kind impostor does not match"),
    ("impostor,A,B,0,nan", "score must be finite, got 'nan'"),
    ("impostor,A,B,0,inf", "score must be finite, got 'inf'"),
    ("genuine,A,A,5,-inf", "score must be finite, got '-inf'"),
])
def test_fuse_bad_score_row_is_a_data_error(tmp_path, capsys, row, message):
    score_csv(tmp_path / "good.csv", [1.0, 2.0], [10.0, 11.0])
    bad = tmp_path / "bad.csv"
    score_csv(bad, [10.0, 11.0], [1.0, 2.0])
    lines = bad.read_text().splitlines()
    lines.insert(2, row)
    bad.write_text("\n".join(lines) + "\n")
    code = main(["fuse", "--scores", f"good={tmp_path / 'good.csv'}",
                 "--scores", f"bad={bad}", "--fusion-step", "0.5"])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"data error: {bad}:3: ")
    assert message in err


def test_user_ids_with_csv_specials_reach_fuse(cli_corpus, tmp_path, capsys):
    # ingest accepts these ids; every table they land in must split back.
    # Each user's sessions are copied under several ids, among them ids whose
    # string order is not their numeric (u10 < u9), case (B < a) or locale
    # (z < é) order
    sessions = load_corpus(str(cli_corpus))
    users = sorted({s.user_id for s in sessions})
    names = {users[0]: ["a,b", "u10", "B"], users[1]: ['c"d', "u9", "a", "é"]}
    everyone = {name for copies in names.values() for name in copies}
    corpus = tmp_path / "corpus"
    save_corpus([dataclasses.replace(s, user_id=name)
                 for s in sessions for name in names[s.user_id]], str(corpus))
    out = tmp_path / "results"
    assert main(eval_args(corpus, "--out-dir", str(out))) == 0
    scores = ScoreSet.read_csv(str(out / "scores_hmog_20s.csv"))
    assert set(claimed_ids(scores)) == set(actual_ids(scores)) == everyone
    assert main(["fuse", "--scores", f"hmog={out / 'scores_hmog_20s.csv'}",
                 "--scores", f"tap={out / 'scores_tap_20s.csv'}",
                 "--out-dir", str(tmp_path / "fused")]) == 0
    assert (tmp_path / "fused" / "fusion.json").exists()
    # each kind's decisions in (claimed, actual, t_ms) order as Python
    # compares the names, in every score file, the fused ones included
    paths = sorted(out.glob("scores_*.csv")) + [tmp_path / "fused" / "scores_fused.csv"]
    assert len(paths) == 4
    for path in paths:
        _, rows = csv_rows(path)
        assert {row[1] for row in rows} == {row[2] for row in rows} == everyone
        for kind in ("genuine", "impostor"):
            keys = [(claimed, actual, int(t)) for k, claimed, actual, t, _ in rows if k == kind]
            assert keys and keys == sorted(keys), (path.name, kind)
    features = tmp_path / "hmog.csv"
    assert main(["extract", "--corpus", str(corpus), "--channel", "hmog",
                 "--features-out", str(features)]) == 0
    with open(features, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    assert rows and {len(row) for row in rows} == {len(header)}
    assert {row[0] for row in rows} == everyone


def test_integer_user_ids_score_genuine_decisions(cli_corpus, tmp_path):
    # read_session accepts an integer user_id; a user's probes must still
    # be scored as genuine against that user's template
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_corpus, corpus)
    for meta in corpus.glob("*/meta.json"):
        blob = json.loads(meta.read_text())
        blob["user_id"] = int(blob["user_id"].lstrip("u"))
        meta.write_text(json.dumps(blob))
    assert main(eval_args(corpus, "--out-dir", str(tmp_path / "out"))) == 0
    scores = ScoreSet.read_csv(str(tmp_path / "out" / "scores_hmog_20s.csv"))
    assert scores.users == ("1", "2")
    assert len(scores.genuine) and len(scores.impostor)


def test_mixed_integer_and_string_user_ids_evaluate(cli_corpus, tmp_path):
    # one user named by an integer, the other by a string: every id reads
    # as a string, so the users sort together
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_corpus, corpus)
    for meta in corpus.glob("u01_*/meta.json"):
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "user_id": 1}))
    assert main(eval_args(corpus, "--out-dir", str(tmp_path / "out"))) == 0
    scores = ScoreSet.read_csv(str(tmp_path / "out" / "scores_hmog_20s.csv"))
    assert scores.users == ("1", "u02")
    assert len(scores.genuine) and len(scores.impostor)


# ---------------------------------------------------------------- experiments

def test_between_command(capsys):
    code = main(["between", "--users", "2", "--sessions", "3",
                 "--session-seconds", "120", "--tap-rate", "0.8",
                 "--min-vectors", "20", "--scans", "30", "--seed", "11"])
    assert code == 0
    out = capsys.readouterr().out
    assert "during" in out and "between" in out


def test_bkg_command(cli_corpus, capsys):
    code = main(["bkg", "--corpus", str(cli_corpus),
                 "--code-length", "7", "--message-length", "4",
                 "--field-prime", "11", "--bkg-scan", "30"])
    assert code == 0
    out = capsys.readouterr().out
    assert "code n=7 l=4 p=11 radius=2" in out
    assert "hmog" in out and "keys=" in out


def assert_run_outputs(out, run):
    """<run>.csv has rows, and it and summary.json carry the same config hash."""
    summary = json.loads((out / "summary.json").read_text())
    table = out / f"{run}.csv"
    assert table.read_text().startswith(f"# config_hash={summary['config_hash']}\n")
    header, rows = csv_rows(table)
    assert rows and {len(row) for row in rows} == {len(header)}
    return summary, header, rows


BKG_ARGS = ["bkg", "--bkg-scan", "20"]


def test_bkg_writes_a_row_per_channel(cli_corpus, tmp_path):
    # two channels, so two open tables; tap's 11 features are too few for
    # the default code length 13, so its row is an error row
    out = tmp_path / "bkg"
    code = main([*BKG_ARGS, "--corpus", str(cli_corpus), "--bkg-channels", "hmog,tap",
                 "--out-dir", str(out)])
    assert code == 0
    summary, header, rows = assert_run_outputs(out, "bkg")
    assert [row[0] for row in rows] == ["hmog", "tap"]
    hmog, tap = rows
    assert hmog[header.index("key_generation")] in ("yes", "no")
    reason = summary["channels"]["tap"]["error"]
    assert reason.startswith("not enough features for the code length")
    # no rates, and the reason somewhere in the row
    assert tap[1:6] == [""] * 5 and reason in tap


@pytest.mark.parametrize("run, flags", [
    ("between", ["--scans", "20"]),
    ("sweep", ["--factors", "1,2", "--scans", "20"]),
])
def test_runner_writes_table_and_summary(cli_corpus, tmp_path, run, flags):
    out = tmp_path / run
    code = main([run, *flags, "--corpus", str(cli_corpus), "--min-vectors", "10",
                 "--out-dir", str(out)])
    assert code == 0
    assert_run_outputs(out, run)


def test_sweep_command(cli_corpus, capsys):
    code = main(["sweep", "--corpus", str(cli_corpus), "--factors", "1,2",
                 "--scans", "20", "--min-vectors", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "factor   1 (100 Hz)" in out
    assert "factor   2 (50 Hz)" in out


def test_sweep_rate_from_a_training_session_with_sensor_rows(cli_corpus, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_corpus, corpus)
    header = "session_id,sensor,t_ms,x,y,z\n"
    # the first training session has no sensor rows; u02's stream gives the rate
    (corpus / "u01_s01" / "sensor.csv").write_text(header)
    argv = ["sweep", "--corpus", str(corpus), "--factors", "1,2", "--scans", "20",
            "--min-vectors", "10"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "factor   1 (100 Hz)" in out and "factor   2 (50 Hz)" in out
    # no training session has one
    for name in ("u01_s02", "u02_s01", "u02_s02"):
        (corpus / name / "sensor.csv").write_text(header)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == "infeasible: no training session has sensor rows\n"


# ---------------------------------------------------------------- ingest

RAW_SENSOR = """session_id,sensor,t_ms,x,y,z
s1,acc,0,0.1,0.2,9.8
s1,acc,10,0.1,0.2,9.8
s1,gyr,0,0,0,0.01
"""
RAW_TOUCH = """session_id,tap_id,t_ms,x_px,y_px,contact_size
s1,1,100,540.5,960.25,0.5
s1,1,110,541.0,961.0,0.55
"""
RAW_KEYS = """session_id,key_code,t_press_ms,t_release_ms
s1,a,50,120
s1,b,300,390
"""


def write_manifest(tmp_path, *entries):
    (tmp_path / "sensor.csv").write_text(RAW_SENSOR)
    (tmp_path / "touch.csv").write_text(RAW_TOUCH)
    (tmp_path / "keys.csv").write_text(RAW_KEYS)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"sessions": list(entries)}))
    return manifest


def test_ingest_builds_corpus(tmp_path, capsys):
    manifest = write_manifest(tmp_path, {
        "sensor_file": "sensor.csv", "touch_file": "touch.csv",
        "key_file": "keys.csv", "user_id": "u9", "session_id": "s1",
        "condition": "walking"})
    out = tmp_path / "corpus"
    code = main(["ingest", "--manifest", str(manifest),
                 "--corpus-out", str(out)])
    assert code == 0
    assert "ingested 1 sessions" in capsys.readouterr().out
    sessions = load_corpus(str(out))
    assert len(sessions) == 1
    assert sessions[0].user_id == "u9"
    assert sessions[0].keys.key.tolist() == ["a", "b"]


INGEST_ENTRY = {
    "sensor_file": "sensor.csv", "touch_file": "touch.csv",
    "key_file": "keys.csv", "user_id": "u9", "session_id": "s1",
    "condition": "walking"}


def assert_manifest_config_error(tmp_path, capsys, entries, message):
    manifest = write_manifest(tmp_path, *entries)
    out = tmp_path / "corpus"
    assert main(["ingest", "--manifest", str(manifest),
                 "--corpus-out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"config error: {manifest}: session ")
    assert "session 0" in err and message in err
    assert not out.exists()


def test_ingest_missing_manifest_field(tmp_path, capsys):
    entry = {k: v for k, v in INGEST_ENTRY.items() if k != "condition"}
    assert_manifest_config_error(tmp_path, capsys, [entry], "missing 'condition'")


@pytest.mark.parametrize("field, value, message", [
    ("condition", "running", "unknown condition 'running'"),
    ("rate_hz", "fast", "rate_hz 'fast'"),
    ("rate_hz", True, "rate_hz True"),
    ("rate_hz", None, "rate_hz None"),
    ("sensor_file", 7, "sensor_file 7, expected a path string"),
    ("touch_file", ["touch.csv"], "touch_file ['touch.csv'], expected a path string"),
    ("key_file", None, "key_file None, expected a path string"),
    ("taps_file", 5, "taps_file 5, expected a path string"),
    ("rate_hz", 0, "rate_hz 0, expected a positive finite number"),
    ("rate_hz", -5.0, "rate_hz -5.0, expected a positive finite number"),
    ("user_id", None, "user_id None, expected a non-empty string or an integer"),
    ("session_id", None, "session_id None, expected a non-empty string"),
    ("user_id", True, "user_id True, expected a non-empty string"),
    ("session_id", False, "session_id False, expected a non-empty string"),
    ("user_id", "", "user_id '', expected a non-empty string"),
    ("session_id", "", "session_id '', expected a non-empty string"),
    ("user_id", ["u9"], "user_id ['u9'], expected a non-empty string"),
    # a second entry naming the same session as the first
    ("sessions", [INGEST_ENTRY, {**INGEST_ENTRY, "condition": "sitting"}],
     "session 1 repeats user_id 'u9' and session_id 's1' of session 0"),
    ("sessions", [{**INGEST_ENTRY, "user_id": 9}, {**INGEST_ENTRY, "user_id": "9"}],
     "session 1 repeats user_id '9' and session_id 's1' of session 0"),
    ("user_id", "../../escaped", "user_id '../../escaped', which must not contain"),
    ("session_id", "s1/../..", "session_id 's1/../..', which must not contain"),
    ("user_id", "..\\u9", "user_id '..\\\\u9', which must not contain"),
    ("session_id", "s\x001", "session_id 's\\x001', which must not contain"),
    # session_id is the first field of every CSV row written for the session
    ("session_id", "#s1", "session_id '#s1', which must not start with '#'"),
    ("session_id", "s,1", "session_id 's,1', which must not start with '#' or contain"),
    ("session_id", 's"1', "session_id 's\"1', which must not start with '#' or contain"),
    ("session_id", "s\r1", "session_id 's\\r1', which must not start with '#' or contain"),
    ("session_id", "s\n1", "session_id 's\\n1', which must not start with '#' or contain"),
    # user_id is a field of every score row, and a lone CR there is unquoted
    ("user_id", "a\rb", "user_id 'a\\rb', which must not contain CR"),
])
def test_ingest_bad_manifest_field(tmp_path, capsys, field, value, message):
    entries = value if field == "sessions" else [{**INGEST_ENTRY, field: value}]
    assert_manifest_config_error(tmp_path, capsys, entries, message)


def test_ingest_key_code_with_cr_is_a_data_error(tmp_path, capsys):
    # keys.csv would leave the lone CR unquoted and split the row on reading
    manifest = write_manifest(tmp_path, INGEST_ENTRY)
    (tmp_path / "keys.csv").write_text(RAW_KEYS + 's1,"x\ry",500,560\n')
    out = tmp_path / "corpus"
    assert main(["ingest", "--manifest", str(manifest), "--corpus-out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"data error: {tmp_path / 'keys.csv'}:4: key code 'x\\ry' contains CR")
    assert not out.exists()


# ---------------------------------------------------------------- library runners

@pytest.mark.parametrize("channel", ["hmog", "tap", "keyhold", "digraph"])
def test_run_extract_writes_what_extract_writes(cli_corpus, tmp_path, channel):
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    cli.mkdir(), lib.mkdir()
    assert main(["extract", "--corpus", str(cli_corpus), "--channel", channel,
                 "--seed", "5", "--features-out", str(cli / "x.csv")]) == 0
    fm = run_extract(ExperimentConfig(corpus_dir=str(cli_corpus), seed=5), channel,
                     str(lib / "x.csv"))
    assert fm.n_rows > 0
    assert tree_bytes(lib) == tree_bytes(cli)


def test_run_train_writes_what_train_writes(cli_corpus, tmp_path):
    cli, lib = tmp_path / "cli" / "t.json", tmp_path / "lib" / "t.json"
    cli.parent.mkdir(), lib.parent.mkdir()
    assert main(["train", "--corpus", str(cli_corpus), "--channel", "hmog",
                 "--min-vectors", "10", "--templates-out", str(cli)]) == 0
    templates, failures = run_train(
        ExperimentConfig(corpus_dir=str(cli_corpus), min_vectors=10), "hmog", str(lib))
    assert sorted(templates) == ["u01", "u02"] and failures == []
    assert tree_bytes(lib.parent) == tree_bytes(cli.parent)


def test_run_train_writes_nothing_when_nobody_enrolls(cli_corpus, tmp_path):
    path = tmp_path / "t.json"
    templates, failures = run_train(
        ExperimentConfig(corpus_dir=str(cli_corpus), min_vectors=100000), "tap", str(path))
    assert templates == {} and [f["user_id"] for f in failures] == ["u01", "u02"]
    assert not path.exists()


@pytest.mark.parametrize("flags, weights", [
    (["--fusion-step", "0.5"], None),
    (["--weights", "good=1,bad=-0"], {"good": 1, "bad": -0.0}),
    (["--weights", "good=0.25"], {"good": 0.25}),
])
def test_run_fuse_writes_what_fuse_writes(tmp_path, capsys, flags, weights):
    score_csv(tmp_path / "good.csv", [1.0, 2.0, 4.0], [3.0, 10.0, 11.0])
    score_csv(tmp_path / "bad.csv", [10.0, 11.0, 5.0], [1.0, 2.0, 6.0])
    paths = [("good", str(tmp_path / "good.csv")), ("bad", str(tmp_path / "bad.csv"))]
    assert main(["fuse", *[f"--scores={name}={path}" for name, path in paths], *flags,
                 "--out-dir", str(tmp_path / "cli")]) == 0
    step = {"fusion_step": 0.5} if weights is None else {}
    report = run_fuse(ExperimentConfig(out_dir=str(tmp_path / "lib"), **step), paths, weights)
    assert tree_bytes(tmp_path / "lib") == tree_bytes(tmp_path / "cli")
    assert capsys.readouterr().out == (f"fused eer={report['eer']:.4f}  weights="
                                       f"{json.dumps(report['weights'], sort_keys=True)}\n")
    assert math.copysign(1.0, report["weights"]["bad"]) == 1.0


def test_config_file_lists_and_negative_zero_build_the_flag_config(tmp_path):
    flags = ["eval", "--channels", "hmog,tap", "--scans", "20,60", "--sensors", "acc,gyr",
             "--weights", "hmog=0,tap=1"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channels": ["hmog", "tap"], "scan_seconds": [20.0, 60.0],
                               "sensors": ["acc", "gyr"],
                               "fusion_weights": {"hmog": -0.0, "tap": 1}}))
    want = build_config(make_parser().parse_args(flags))
    got = build_config(make_parser().parse_args(["eval", "--config", str(cfg)]))
    assert got == want
    assert (got.channels, got.scan_seconds, got.sensors) == \
        (("hmog", "tap"), (20.0, 60.0), ("acc", "gyr"))
    assert got.fusion_weights == {"hmog": 0.0, "tap": 1.0}
    assert math.copysign(1.0, got.fusion_weights["hmog"]) == 1.0
    assert got.config_hash() == want.config_hash()


def test_config_file_ints_in_float_fields(tmp_path, capsys):
    # an int in a float field stamps the run as its float does; one too
    # large for a float is a config error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scan_seconds": [20, 60], "session_seconds": 120}))
    want = build_config(make_parser().parse_args(
        ["eval", "--scans", "20,60", "--session-seconds", "120"]))
    got = build_config(make_parser().parse_args(["eval", "--config", str(cfg)]))
    assert got.config_hash() == want.config_hash()
    cfg.write_text('{"session_seconds": 1' + "0" * 400 + "}")
    assert main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("config error: session_seconds must be float, got 1000")


# ---------------------------------------------------------------- flags per runner

RUNNER_FIELDS = {"synth": CORPUS_FIELDS, "extract": EXTRACT_FIELDS, "train": TRAIN_FIELDS,
                 "eval": AUTH_FIELDS, "fuse": FUSE_FIELDS, "bkg": BKG_FIELDS,
                 "sweep": SWEEP_FIELDS, "between": BETWEEN_FIELDS}

FLAG_OF = {
    "corpus_dir": "--corpus", "n_users": "--users", "sessions": "--sessions",
    "session_seconds": "--session-seconds", "condition": "--condition",
    "separation": "--separation", "tap_rate_hz": "--tap-rate", "channels": "--channels",
    "sensors": "--sensors", "mode": "--mode", "metric": "--metric", "scan_seconds": "--scans",
    "selector": "--selector", "selector_value": "--selector-value",
    "pca_fraction": "--pca-fraction", "min_vectors": "--min-vectors",
    "latency_max_ms": "--latency-max", "latency_min_count": "--latency-min-count",
    "fusion_step": "--fusion-step", "fusion_weights": "--weights",
    "downsample_factors": "--factors", "bkg_n": "--code-length", "bkg_l": "--message-length",
    "bkg_p": "--field-prime", "bkg_scan_seconds": "--bkg-scan", "bkg_channels": "--bkg-channels",
    "out_dir": "--out-dir", "seed": "--seed", "workers": "--workers",
}


def test_each_subcommand_takes_the_flags_its_runner_reads():
    assert set(FLAG_OF) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    action = next(a for a in make_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert set(action.choices) == {*RUNNER_FIELDS, "ingest"}
    for command, parser in action.choices.items():
        flags = {a.dest: a.option_strings for a in parser._actions if a.dest in FLAG_OF}
        names = RUNNER_FIELDS.get(command, ())
        assert flags == {name: [FLAG_OF[name]] for name in names}, command


REMOVED_FLAGS = {
    "synth": ["--out-dir", "--workers"],
    "extract": ["--latency-max", "--latency-min-count", "--out-dir", "--workers"],
    "train": ["--channels", "--scans", "--metric", "--fusion-step", "--weights",
              "--out-dir", "--workers"],
    "fuse": ["--workers"],
    "bkg": ["--channels", "--scans", "--metric", "--selector", "--selector-value",
            "--pca-fraction", "--min-vectors", "--fusion-step", "--weights", "--workers"],
    "sweep": ["--channels", "--latency-max", "--latency-min-count", "--fusion-step",
              "--weights"],
    "between": ["--channels", "--mode", "--latency-max", "--latency-min-count",
                "--fusion-step", "--weights", "--workers"],
}
REQUIRED_ARGS = {"synth": ["--corpus-out", "corpus"], "extract": ["--features-out", "f.csv"],
                 "train": ["--templates-out", "t.json"]}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in REMOVED_FLAGS.items() for flag in flags])
def test_flag_its_runner_does_not_read_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED_ARGS.get(command, []), flag, "1"])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {flag} 1" in capsys.readouterr().err


# a valid value other than its default for every config field
OTHER_VALUES = {
    "corpus_dir": "elsewhere", "n_users": 3, "sessions": 5, "session_seconds": 30,
    "condition": "walking", "separation": 0.5, "tap_rate_hz": 1.5,
    "channels": ["hmog", "tap"], "sensors": ["acc"], "mode": "between", "metric": "se",
    "scan_seconds": [30], "selector": "mrmr", "selector_value": 0.5, "pca_fraction": 0.9,
    "min_vectors": 5, "latency_max_ms": 900, "latency_min_count": 1, "fusion_step": 0.25,
    "fusion_weights": {"hmog": 1}, "downsample_factors": [1, 3], "bkg_n": 7, "bkg_l": 4,
    "bkg_p": 11, "bkg_scan_seconds": 30, "bkg_channels": ["tap"], "out_dir": "stray",
    "seed": 3, "workers": 2,
}

# a small run of each subcommand with flags it reads, writing under the
# working directory
SMALL_RUNS = {
    "synth": "--users 2 --sessions 3 --session-seconds 20 --corpus-out corpus",
    "extract": "--corpus {corpus} --features-out features.csv",
    "train": "--corpus {corpus} --min-vectors 10 --templates-out templates.json",
    "eval": "--corpus {corpus} --channels hmog,tap --scans 5 --min-vectors 10"
            " --fusion-step 0.25 --out-dir out",
    "fuse": "--scores good={good} --scores bad={bad} --fusion-step 0.5 --out-dir out",
    "bkg": "--corpus {corpus} --code-length 7 --message-length 4 --field-prime 11"
           " --bkg-scan 5 --out-dir out",
    "sweep": "--corpus {corpus} --factors 1,2 --scans 5 --min-vectors 10 --out-dir out",
    "between": "--corpus {corpus} --scans 5 --min-vectors 10 --out-dir out",
}


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """{corpus, good, bad}: a corpus of 2 users x 3 sessions x 20 s and two
    score files."""
    root = tmp_path_factory.mktemp("small")
    assert main(["synth", "--users", "2", "--sessions", "3", "--session-seconds", "20",
                 "--seed", "5", "--corpus-out", str(root / "corpus")]) == 0
    score_csv(root / "good.csv", [1.0, 2.0, 4.0], [3.0, 10.0, 11.0])
    score_csv(root / "bad.csv", [10.0, 11.0, 5.0], [1.0, 2.0, 6.0])
    return {"corpus": str(root / "corpus"), "good": str(root / "good.csv"),
            "bad": str(root / "bad.csv")}


@pytest.fixture(scope="module")
def small_run_outputs():
    """{command: (stdout, stderr, files)} of each small run, filled on first use."""
    return {}


@pytest.mark.parametrize("command, field", [
    (command, f.name) for command, names in RUNNER_FIELDS.items()
    for f in dataclasses.fields(ExperimentConfig) if f.name not in names])
def test_config_field_its_runner_does_not_read_changes_no_output_byte(
        command, field, small_inputs, small_run_outputs, tmp_path, monkeypatch, capsys):
    assert ExperimentConfig(**{field: OTHER_VALUES[field]}) != ExperimentConfig()
    argv = [command, *(arg.format(**small_inputs) for arg in SMALL_RUNS[command].split())]

    def run(work, *extra):
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        assert main([*argv, *extra]) == 0
        return (*capsys.readouterr(), tree_bytes(work))

    if command not in small_run_outputs:
        small_run_outputs[command] = run(tmp_path / "want")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: OTHER_VALUES[field]}))
    assert run(tmp_path / "got", "--config", str(cfg)) == small_run_outputs[command]
