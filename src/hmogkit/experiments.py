"""End-to-end runners behind the command line.

Every file a run writes comes from one of seven runners: run_extract,
run_train, run_fuse, and the four experiments run_auth, run_between,
run_rate_sweep and run_bkg. Each is a pure function of its inputs:
templates come from each user's first two sessions, scores from the
remaining ones, and all randomness descends from the master seed, so
reruns are byte-identical.

A config gives each value one form and checks itself when it is built, so
every ExperimentConfig a runner sees is valid. Each runner first narrows
its config to the fields it reads, named in the tuple next to it
(AUTH_FIELDS and so on), so a field it does not read changes neither its
outputs nor their stamps; the command line offers exactly these fields as
flags. The four experiments share one skeleton. _split splits the corpus;
test vectors are scored per scan window (pipeline.scan_aggregate, keyed by
session code); every per-scan result is an {eer, n_genuine, n_impostor}
cell from _cell; _bundle stamps the result with the config, its hash and
the seed; and _finish writes the score files, CSV tables and summary.json.
_finish is the only code that makes the output directory or writes into
it, and it runs after a run's last check, so a run that fails writes
nothing; an output directory that is an existing file fails before any
input is read. Output files carry the config hash and seed in comment
lines.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import numbers
import os
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import verify
from .bkg import (
    P_LIMIT,
    commit,
    fit_discretization,
    ds,
    grs_build,
    guessing_distance,
    lee_weight,
    open_commitment,
    OpenFailure,
)
from .corpus import (
    CONDITIONS,
    SENSOR_ORDER,
    Session,
    downsample,
    load_corpus,
    make_corpus,
    make_profiles,
)
from .hmog import extract_hmog, feature_names_for
from .matrix import FeatureMatrix
from .pipeline import (
    EnrollmentError,
    MIN_TEMPLATE_VECTORS,
    PipelineError,
    build_template,
    fill_missing,
    fisher_scores,
    fit_feature_prep,
    nanmean_columns,
    save_templates,
    scan_aggregate,
)
from .table import write_json, write_table
from .touchkeys import (
    digraph_feature_names,
    hold_feature_names,
    keystroke_features,
    latency_outlier_filter,
    tap_features,
    widen,
)

OUT_DIR_ENV = "HMOGKIT_OUT"

CHANNELS = ("hmog", "tap", "keyhold", "digraph")


class ConfigError(ValueError):
    """The requested run is malformed before any data is touched."""


class InfeasibleError(RuntimeError):
    """The run is well-formed but the data cannot support it."""


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_dir: str | None = None     # None synthesizes a corpus
    n_users: int = 8
    sessions: int = 4
    session_seconds: float = 300.0
    condition: str = "sitting"
    separation: float = 1.0
    tap_rate_hz: float | None = None  # None keeps per-user draws
    channels: tuple[str, ...] = CHANNELS
    sensors: tuple[str, ...] = SENSOR_ORDER
    mode: str = "during"
    metric: str = "sm"
    scan_seconds: tuple[float, ...] = (60.0,)
    selector: str | None = "fisher"
    selector_value: float = 0.95
    pca_fraction: float | None = None
    min_vectors: int = MIN_TEMPLATE_VECTORS
    latency_max_ms: float = 1500.0
    latency_min_count: int = 3
    fusion_step: float = 0.05
    fusion_weights: dict | None = None
    downsample_factors: tuple[int, ...] = (1, 2, 6, 20)
    bkg_n: int = 13
    bkg_l: int = 10
    bkg_p: int = 29
    bkg_scan_seconds: float = 60.0
    bkg_channels: tuple[str, ...] = ("hmog",)
    out_dir: str | None = None
    seed: int = 7
    workers: int = 1

    def __post_init__(self) -> None:
        # one form per value: a list becomes a tuple, a number in a float
        # field a float (so 60 hashes as 60.0 does), and a numeric fusion
        # weight a float with -0 read as 0, so it echoes and hashes as 0 does
        for f in fields(self):
            value, hint = getattr(self, f.name), _FIELD_TYPES[f.name]
            if isinstance(value, list) and typing.get_origin(hint) is tuple:
                value = tuple(value)
            if float in (hint, *typing.get_args(hint)):  # validate rejects the rest
                try:
                    if isinstance(value, tuple):
                        value = tuple(float(v) if is_number(v) else v for v in value)
                    elif is_number(value):
                        value = float(value)
                except OverflowError:
                    raise ConfigError(f"{f.name} must be {f.type}, got {value!r}") from None
            object.__setattr__(self, f.name, value)
        if self.fusion_weights is not None:
            if not isinstance(self.fusion_weights, dict):
                raise ConfigError("fusion_weights must be an object")
            object.__setattr__(self, "fusion_weights", {  # validate rejects the rest
                k: float(w) + 0.0 if is_number(w) else w for k, w in self.fusion_weights.items()})
        # every instance is checked, dataclasses.replace's included
        self.validate()

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, _FIELD_TYPES[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        # runs are keyed by these entries, so each list needs distinct ones
        for name in ("channels", "bkg_channels", "sensors", "scan_seconds",
                     "downsample_factors"):
            items = getattr(self, name)
            if not items:
                raise ConfigError(f"{name} must not be empty")
            if len(set(items)) < len(items):
                raise ConfigError(f"{name} must not repeat an entry, got {list(items)}")
        for name in self.channels:
            if name not in CHANNELS:
                raise ConfigError(f"unknown channel {name!r}")
        for name in self.bkg_channels:
            if name not in CHANNELS:
                raise ConfigError(f"unknown bkg channel {name!r}")
        for name in self.sensors:
            if name not in SENSOR_ORDER:
                raise ConfigError(f"unknown sensor {name!r}")
        if self.condition not in CONDITIONS:
            raise ConfigError(f"unknown condition {self.condition!r}")
        if self.mode not in ("during", "between"):
            raise ConfigError(f"mode must be during or between, got {self.mode!r}")
        if self.metric not in ("sm", "se"):
            raise ConfigError(f"metric must be sm or se, got {self.metric!r}")
        for scan_s in self.scan_seconds:
            _check_scan_length("scan_seconds", scan_s)
        if self.selector not in (None, "fisher", "mrmr"):
            raise ConfigError(f"unknown selector {self.selector!r}")
        if self.pca_fraction is not None and not 0 < self.pca_fraction <= 1:
            raise ConfigError(f"pca_fraction must be in (0, 1], got {self.pca_fraction}")
        if self.session_seconds <= 0:
            raise ConfigError(f"session_seconds must be positive, got {self.session_seconds}")
        if not math.isfinite(self.session_seconds):
            raise ConfigError(f"session_seconds must be finite, got {self.session_seconds}")
        if self.session_seconds * 1000 >= 2 ** 63:  # int64 timestamps
            raise ConfigError(
                f"session_seconds must be below 2**63 ms, got {self.session_seconds}")
        if not (math.isfinite(self.separation) and self.separation >= 0):
            raise ConfigError(
                f"separation must be finite and nonnegative, got {self.separation}")
        if self.tap_rate_hz is not None and not 0 <= self.tap_rate_hz < math.inf:
            raise ConfigError(
                f"tap_rate_hz must be finite and nonnegative, got {self.tap_rate_hz}")
        if self.latency_max_ms <= 0:  # inf is no cap
            raise ConfigError(f"latency_max_ms must be positive, got {self.latency_max_ms}")
        if not math.isfinite(self.selector_value):
            raise ConfigError(f"selector_value must be finite, got {self.selector_value}")
        if self.selector == "fisher" and self.selector_value <= 0:
            raise ConfigError(f"fisher selector_value must be positive, got {self.selector_value}")
        _check_scan_length("bkg_scan_seconds", self.bkg_scan_seconds)
        if self.latency_min_count < 0:
            raise ConfigError(
                f"latency_min_count must be nonnegative, got {self.latency_min_count}")
        if self.n_users < 2:
            raise ConfigError("need at least two users")
        if self.sessions < 3 and self.corpus_dir is None:
            raise ConfigError("synthetic corpora need >= 3 sessions for a test split")
        if self.min_vectors < 1:
            raise ConfigError("min_vectors must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if any(int(f) != f or f < 1 for f in self.downsample_factors):
            raise ConfigError("downsample factors must be positive integers")
        try:
            verify.grid_ticks(self.fusion_step)
        except verify.VerifyError as exc:
            raise ConfigError(str(exc)) from None
        if min(self.bkg_n, self.bkg_l, self.bkg_p) < 1:
            raise ConfigError("bkg parameters must be positive")
        if self.bkg_p >= P_LIMIT:
            raise ConfigError(f"field prime must be below {P_LIMIT}, as each code "
                              f"symbol is hashed as two bytes; got {self.bkg_p}")
        if self.fusion_weights is not None:
            check_fusion_weights(self.fusion_weights, self.channels)
        return self

    def canonical(self) -> dict:
        blob = asdict(self)
        for key, value in blob.items():
            if isinstance(value, tuple):
                blob[key] = list(value)
        return blob

    def narrow(self, names, **changes) -> "ExperimentConfig":
        """This config with every field outside names at its default, then
        changes applied: what a runner writes from it depends on names only."""
        return replace(self, **{**{f.name: f.default for f in fields(self)
                                   if f.name not in names}, **changes})

    def config_hash(self) -> str:
        # out_dir and workers never change results, so the hash that stamps
        # output files ignores them: reruns into another directory match.
        blob = self.canonical()
        del blob["out_dir"], blob["workers"]
        text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_scan_length(name: str, scan_s: float) -> None:
    """Scan windows are whole milliseconds wide (``int(scan_s * 1000)``), so
    a length under 1 ms would make each session one window, and one of
    2**63 ms or more would not fit the int64 timestamps."""
    if scan_s <= 0:
        raise ConfigError(f"{name} must be positive, got {scan_s}")
    if not math.isfinite(scan_s) or scan_s * 1000 < 1:
        raise ConfigError(f"{name} must be finite and at least 0.001 s, got {scan_s}")
    if scan_s * 1000 >= 2 ** 63:
        raise ConfigError(f"{name} must be below 2**63 ms, got {scan_s}")


def _fits(value, hint) -> bool:
    """Whether a config value has its field's annotated type. An integer
    fits a float field; a bool fits no number, and NaN no float."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        return any(_fits(value, arg) for arg in args)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_fits(v, args[0]) for v in value)
    if hint is float:
        return is_number(value) and not math.isnan(value)
    if hint is int:
        return is_number(value) and isinstance(value, numbers.Integral)
    return isinstance(value, hint)


def check_fusion_weights(weights: dict, channels) -> None:
    """Fixed fusion weights must name channels among the given ones and be
    finite nonnegative numbers."""
    bad = set(weights) - set(channels)
    if bad:
        raise ConfigError(f"fusion weights name unknown channels {sorted(bad)}")
    for name, w in weights.items():
        if not (is_number(w) and math.isfinite(w) and w >= 0):
            raise ConfigError(f"fusion weight {name}={w!r} must be a finite "
                              "nonnegative number")


def _map(fn, items, workers: int):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# corpus plumbing
# ---------------------------------------------------------------------------

# the fields build_sessions reads, the seed included; synth reads these only
CORPUS_FIELDS = ("corpus_dir", "n_users", "sessions", "session_seconds", "condition",
                 "separation", "tap_rate_hz", "seed")


def build_sessions(config: ExperimentConfig) -> list[Session]:
    if config.corpus_dir is not None:
        sessions = load_corpus(config.corpus_dir)
    else:
        overrides = {"sessions": config.sessions,
                     "session_seconds": config.session_seconds}
        if config.tap_rate_hz is not None:
            overrides["tap_rate_hz"] = config.tap_rate_hz
        profiles = make_profiles(config.n_users, config.condition, config.seed,
                                 separation=config.separation, **overrides)
        sessions = make_corpus(profiles, config.seed)
    keep = [s for s in sessions if s.condition == config.condition]
    if not keep:
        raise InfeasibleError(f"no sessions recorded under condition {config.condition!r}")
    return keep


def training_sessions(sessions: list[Session]) -> list[Session]:
    """The first two sessions of every user, by session id."""
    ordered = sorted(sessions, key=lambda s: (s.user_id, s.session_id))
    return [s for i, s in enumerate(ordered) if i < 2 or ordered[i - 2].user_id != s.user_id]


def split_train_test(sessions: list[Session]) -> tuple[list[Session], list[Session]]:
    """First two sessions per user train, the rest test."""
    train = training_sessions(sessions)
    train_keys = {(s.user_id, s.session_id) for s in train}
    test = [s for s in sessions
            if (s.user_id, s.session_id) not in train_keys]
    if not test:
        raise InfeasibleError("no sessions left for testing after the training split")
    return train, test


def extract_channels(sessions: list[Session], channels,
                     config: ExperimentConfig) -> dict[str, FeatureMatrix]:
    """Feature matrices of the given channels, each extractor called once
    over all the sessions in (user, session) order; keyhold and digraph
    share one keystroke_features call, and digraph latencies stay
    long-form events (see latency_outlier_filter). Every matrix holds the
    table of all the given sessions."""
    for channel in channels:
        if channel not in CHANNELS:
            raise ConfigError(f"unknown channel {channel!r}")
    ordered = sorted(sessions, key=lambda s: (s.user_id, s.session_id))
    out = {}
    if "hmog" in channels:
        out["hmog"] = extract_hmog(*ordered, mode=config.mode)
        if config.sensors != SENSOR_ORDER:
            out["hmog"] = out["hmog"].select_columns(feature_names_for(config.sensors))
    if "tap" in channels:
        out["tap"] = tap_features(*ordered)
    if "keyhold" in channels or "digraph" in channels:
        holds, out["digraph"] = keystroke_features(*ordered)
        if "keyhold" in channels:
            out["keyhold"] = widen(holds, hold_feature_names())
    return {channel: out[channel] for channel in channels}


def _channel_matrices(train_s: list[Session], test_s: list[Session], channels,
                      config: ExperimentConfig):
    """{channel: (train matrix, test matrix)} from one extraction per side;
    digraphs are filtered and widened over the columns training keeps."""
    train = extract_channels(train_s, channels, config)
    test = extract_channels(test_s, channels, config)
    if "digraph" in train:
        train["digraph"], test["digraph"] = latency_outlier_filter(
            train["digraph"], test["digraph"], config.latency_max_ms,
            config.latency_min_count)
    return {channel: (train[channel], test[channel]) for channel in channels}


# ---------------------------------------------------------------------------
# authentication runs
# ---------------------------------------------------------------------------

def _enroll_channel(channel: str, train_fm: FeatureMatrix,
                    config: ExperimentConfig):
    """Templates for every enrollable user plus per-user failure notes."""
    prep = None
    if channel == "hmog" and (config.selector is not None
                              or config.pca_fraction is not None):
        prep = fit_feature_prep(train_fm, selector=config.selector,
                                selector_value=config.selector_value,
                                pca_fraction=config.pca_fraction)
    templates, failures = {}, []
    for code in train_fm.users():
        user = train_fm.user_names[code]
        try:
            templates[user] = build_template(user, train_fm.for_user(code), prep,
                                             min_vectors=config.min_vectors)
        except EnrollmentError as exc:
            failures.append({"channel": channel, "user_id": user,
                             "reason": str(exc)})
    return templates, failures


def _channel_setup(config: ExperimentConfig, train_s: list[Session],
                   test_s: list[Session], channels):
    """Extract, filter, and enroll every requested channel."""
    data, failures, notes = {}, [], []
    matrices = _channel_matrices(train_s, test_s, channels, config)
    for channel in channels:
        # popped, so each training matrix is freed once its channel enrolls
        train_fm, test_fm = matrices.pop(channel)
        if train_fm.n_rows == 0 or train_fm.n_features == 0:
            notes.append(f"{channel}: no usable training vectors")
            continue
        try:
            templates, fails = _enroll_channel(channel, train_fm, config)
        except PipelineError as exc:
            notes.append(f"{channel}: {exc}")
            continue
        failures.extend(fails)
        if len(templates) < 2:
            notes.append(f"{channel}: fewer than two users enrolled")
            continue
        data[channel] = (templates, test_fm)
    return data, failures, notes


def _scan_eval(channel_data, scan_s: float, config: ExperimentConfig):
    """Per-channel score sets for one scan length."""
    out = {}
    for channel, (templates, test_fm) in channel_data.items():
        agg = scan_aggregate(test_fm, scan_s)
        if agg.n_rows == 0:
            continue
        scores = verify.gen_scores(templates, agg, config.metric)
        if len(scores.genuine) and len(scores.impostor):
            out[channel] = scores
    return out


def _fuse(per_channel: dict[str, verify.ScoreSet], weights: dict | None, step: float):
    """(weights, fused ScoreSet, eer): the fixed weights when given (a channel
    they omit weighs 0, and -0 reads as 0), else the grid search's best."""
    if weights is None:
        return verify.search_fusion_weights(per_channel, step)
    weights = {c: float(weights.get(c, 0.0)) + 0.0 for c in per_channel}
    fused = verify.fuse_scoresets(per_channel, weights)
    if not len(fused.genuine) or not len(fused.impostor):
        raise InfeasibleError("fixed fusion weights left no decisions")
    return weights, fused, verify.eer(fused.genuine, fused.impostor)


def _check_out_dir(config: ExperimentConfig) -> None:
    """Fail as _finish's mkdir would on an output directory that is an
    existing file or lies below one, before the run reads or builds
    anything."""
    if config.out_dir is None:
        return
    out = Path(config.out_dir)
    # the nearest existing path, out_dir itself or an ancestor, decides
    for path in (out, *out.parents):
        if os.path.lexists(path):
            if not path.is_dir():
                code = errno.EEXIST if path == out else errno.ENOTDIR
                raise OSError(code, os.strerror(code), str(out))
            return


def _stamp(config: ExperimentConfig) -> list[str]:
    return [f"config_hash={config.config_hash()}", f"seed={config.seed}"]


def _split(config: ExperimentConfig, sessions: list[Session] | None):
    """(train sessions, test sessions), from the given sessions or else the
    ones the config builds."""
    if sessions is None:
        sessions = build_sessions(config)
    return split_train_test(sessions)


def _cell(scores: verify.ScoreSet, eer: float | None = None) -> dict:
    """A scan's result for one score set; eer is computed unless given."""
    gen, imp = scores.genuine, scores.impostor
    return {"eer": verify.eer(gen, imp) if eer is None else eer,
            "n_genuine": len(gen), "n_impostor": len(imp)}


def _row(prefix: tuple, cell: dict) -> tuple:
    return (*prefix, cell["eer"], cell["n_genuine"], cell["n_impostor"])


def _bundle(config: ExperimentConfig, body: dict) -> dict:
    """An experiment's result: config, hash and seed ahead of the body."""
    return {"config": config.canonical(), "config_hash": config.config_hash(),
            "seed": config.seed, **body}


def _finish(config: ExperimentConfig, report: dict,
            tables: dict[str, tuple[tuple[str, ...], list[tuple]]],
            scores: dict[str, verify.ScoreSet] | None = None, *, det: bool = True,
            summary: str = "summary.json") -> dict:
    """Write a run's files and return its report.

    This is the one place that makes the output directory and writes into
    it, so a run that fails earlier leaves nothing. With an output
    directory, each {name: ScoreSet} becomes scores_<name>.csv and, with
    det, its DET curve det_<name>.csv; each {file name: (header, rows)}
    table a stamped CSV; and the report the summary file.
    """
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        comments = _stamp(config)
        for name, scoreset in (scores or {}).items():
            scoreset.write_csv(out / f"scores_{name}.csv", comments)
            if det:
                verify.write_det_csv(out / f"det_{name}.csv", verify.det_curve(
                    scoreset.genuine, scoreset.impostor), comments)
        for name, (header, rows) in tables.items():
            write_table(out / name, header, rows, comments)
        write_json(out / summary, report)
    return report


def _hmog_scans(config: ExperimentConfig, train_s: list[Session],
                test_s: list[Session]):
    """HMOG enrolled once and scored at every scan length: (templates,
    {scan key: (cell, scores)}, enrollment failures, notes). When nobody
    enrolls there are no scans and no per-scan notes."""
    channel_data, failures, notes = _channel_setup(config, train_s, test_s, ("hmog",))
    if not channel_data:
        return {}, {}, failures, notes
    scans = {}
    for scan_s in config.scan_seconds:
        scores = _scan_eval(channel_data, scan_s, config).get("hmog")
        if scores is None:
            notes.append(f"{scan_s:g}s produced no decisions")
            continue
        scans[f"{scan_s:g}"] = (_cell(scores), scores)
    return channel_data["hmog"][0], scans, failures, notes


AUTH_FIELDS = (*CORPUS_FIELDS, "channels", "sensors", "mode", "latency_max_ms",
               "latency_min_count", "metric", "scan_seconds", "selector",
               "selector_value", "pca_fraction", "min_vectors", "fusion_step",
               "fusion_weights", "out_dir", "workers")


def run_auth(config: ExperimentConfig,
             sessions: list[Session] | None = None) -> dict:
    """Verification experiment: per-channel and fused EER per scan length."""
    config = config.narrow(AUTH_FIELDS)
    _check_out_dir(config)
    train_s, test_s = _split(config, sessions)
    channel_data, failures, notes = _channel_setup(config, train_s, test_s,
                                                   config.channels)
    if not channel_data:
        raise InfeasibleError("; ".join(notes) or "no channel could enroll users")

    scans: dict[str, dict] = {}
    eer_rows: list[tuple] = []
    scoresets: dict[str, verify.ScoreSet] = {}

    def eval_scan(scan_s: float):
        return scan_s, _scan_eval(channel_data, scan_s, config)

    for scan_s, per_channel in _map(eval_scan, config.scan_seconds, config.workers):
        if not per_channel:
            notes.append(f"{scan_s:g}s: no scored decisions")
            continue
        cells = {channel: _cell(scores) for channel, scores in per_channel.items()}
        for channel, scores in per_channel.items():
            eer_rows.append(_row((f"{scan_s:g}", channel), cells[channel]))
            scoresets[f"{channel}_{scan_s:g}s"] = scores
        if len(per_channel) >= 2:
            weights, fused, value = _fuse(per_channel, config.fusion_weights,
                                          config.fusion_step)
        else:
            only = next(iter(per_channel))
            weights, fused, value = {only: 1.0}, per_channel[only], cells[only]["eer"]
        fused_cell = {**_cell(fused, value), "weights": weights}
        eer_rows.append(_row((f"{scan_s:g}", "fused"), fused_cell))
        scoresets[f"fused_{scan_s:g}s"] = fused
        scans[f"{scan_s:g}"] = {"channels": cells, "fused": fused_cell}

    if not scans:
        raise InfeasibleError("no scan length produced scored decisions")
    return _finish(config, _bundle(config, {"scans": scans, "enrollment_failures": failures,
                                            "notes": notes}), {
        "eer.csv": (("scan_s", "channel", "eer", "n_genuine", "n_impostor"), eer_rows),
        "enrollment.csv": (("channel", "user_id", "reason"),
                           [(f["channel"], f["user_id"], f["reason"]) for f in failures])},
        scoresets)


BETWEEN_FIELDS = (*CORPUS_FIELDS, "sensors", "metric", "scan_seconds", "selector",
                  "selector_value", "pca_fraction", "min_vectors", "out_dir")


def run_between(config: ExperimentConfig,
                sessions: list[Session] | None = None) -> dict:
    """During-tap vs between-tap comparison on the HMOG channel."""
    config = config.narrow(BETWEEN_FIELDS)
    _check_out_dir(config)
    train_s, test_s = _split(config, sessions)
    modes: dict[str, dict] = {}
    rows: list[tuple] = []
    notes: list[str] = []
    scoresets: dict[str, verify.ScoreSet] = {}
    for mode in ("during", "between"):
        _, scans, failures, mode_notes = _hmog_scans(
            replace(config, mode=mode), train_s, test_s)
        notes.extend(f"{mode}: {n}" for n in mode_notes)
        for scan_key, (cell, scores) in scans.items():
            rows.append(_row((mode, scan_key), cell))
            scoresets[f"{mode}_{scan_key}s"] = scores
        modes[mode] = {"scans": {k: cell for k, (cell, _) in scans.items()},
                       "enrollment_failures": failures}
    if not any(modes[m]["scans"] for m in modes):
        raise InfeasibleError("; ".join(notes) or "neither mode produced decisions")
    return _finish(config, _bundle(config, {"modes": modes, "notes": notes}),
                   {"between.csv": (("mode", "scan_s", "eer", "n_genuine", "n_impostor"), rows)},
                   scoresets, det=False)


def _downsample_session(session: Session, factor: int) -> Session:
    if factor == 1:
        return session
    return replace(session, streams={sensor: downsample(stream, factor)
                                     for sensor, stream in session.streams.items()})


SWEEP_FIELDS = (*CORPUS_FIELDS, "sensors", "mode", "metric", "scan_seconds", "selector",
                "selector_value", "pca_fraction", "min_vectors", "downsample_factors",
                "out_dir", "workers")


def run_rate_sweep(config: ExperimentConfig,
                   sessions: list[Session] | None = None) -> dict:
    """HMOG-only EER after downsampling the sensor streams per factor."""
    config = config.narrow(SWEEP_FIELDS)
    _check_out_dir(config)
    train_s, test_s = _split(config, sessions)
    # each factor reports the first training stream's rate, divided as
    # downsample divides it
    base = next((stream for s in train_s for stream in s.streams.values()), None)
    if base is None:
        raise InfeasibleError("no training session has sensor rows")

    def eval_factor(factor: int):
        train = [_downsample_session(s, factor) for s in train_s]
        test = [_downsample_session(s, factor) for s in test_s]
        templates, scans, failures, notes = _hmog_scans(config, train, test)
        return factor, {
            "rate_hz": base.nominal_rate_hz / factor,
            "scans": {k: {**cell, "n_enrolled": len(templates)}
                      for k, (cell, _) in scans.items()},
            "enrollment_failures": failures, "notes": notes}

    factors = {}
    rows = []
    for factor, per_factor in _map(eval_factor,
                                   [int(f) for f in config.downsample_factors],
                                   config.workers):
        factors[str(factor)] = per_factor
        for scan_key, cell in per_factor["scans"].items():
            rows.append((factor, per_factor["rate_hz"], scan_key, cell["eer"],
                         cell["n_enrolled"], cell["n_genuine"], cell["n_impostor"]))
    if not any(per["scans"] for per in factors.values()):
        raise InfeasibleError("no downsample factor produced scored decisions")
    return _finish(config, _bundle(config, {"factors": factors}), {"sweep.csv": (
        ("factor", "rate_hz", "scan_s", "eer", "n_enrolled", "n_genuine", "n_impostor"),
        rows)})


# ---------------------------------------------------------------------------
# single-channel runs and fusion of earlier scores
# ---------------------------------------------------------------------------

EXTRACT_FIELDS = (*CORPUS_FIELDS, "sensors", "mode")


def run_extract(config: ExperimentConfig, channel: str, path) -> FeatureMatrix:
    """One channel's features over every session, written to path as a
    stamped CSV; digraphs hold all 1,225 columns, unfiltered."""
    # the stamp names the channel
    config = config.narrow(EXTRACT_FIELDS, channels=(channel,))
    fm = extract_channels(build_sessions(config), (channel,), config)[channel]
    if channel == "digraph":
        fm = widen(fm, digraph_feature_names())
    fm.write_csv(path, _stamp(config))
    return fm


TRAIN_FIELDS = (*CORPUS_FIELDS, "sensors", "mode", "latency_max_ms", "latency_min_count",
                "selector", "selector_value", "pca_fraction", "min_vectors")


def run_train(config: ExperimentConfig, channel: str, path):
    """(templates, failures) of one channel from each user's training
    sessions; the templates are saved to path if any user enrolled."""
    config = config.narrow(TRAIN_FIELDS, channels=(channel,))
    sessions = training_sessions(build_sessions(config))
    train_fm, _ = _channel_matrices(sessions, [], (channel,), config)[channel]
    templates, failures = _enroll_channel(channel, train_fm, config)
    if templates:
        save_templates(path, templates, params_echo={
            "channel": channel, "config_hash": config.config_hash(), "seed": config.seed})
    return templates, failures


FUSE_FIELDS = ("fusion_step", "out_dir", "seed")


def run_fuse(config: ExperimentConfig, paths, weights: dict | None) -> dict:
    """The fusion.json report of the score files named by (name, path) pairs,
    fused with fixed weights or, when weights is None, the grid search's
    best; with an output directory, also the fused scores and DET curve."""
    config = config.narrow(FUSE_FIELDS)
    # names and weights are checked before any file is read
    paths = list(paths)
    names = [name for name, _ in paths]
    if len(set(names)) < len(names):
        raise ConfigError(f"score names must not repeat an entry, got {names}")
    if weights is not None:
        check_fusion_weights(weights, names)
    _check_out_dir(config)
    channels = {name: verify.ScoreSet.read_csv(path) for name, path in paths}
    if len(channels) < 2:
        raise ConfigError(f"fuse needs score files of at least two channels, got {len(channels)}")
    weights, fused, value = _fuse(channels, weights, config.fusion_step)
    report = {"config_hash": config.config_hash(), "seed": config.seed,
              **_cell(fused, value), "weights": weights}
    return _finish(config, report, {}, {"fused": fused}, summary="fusion.json")


# ---------------------------------------------------------------------------
# key generation
# ---------------------------------------------------------------------------

def _open_table(commitments, grids, probes: np.ndarray, users, params) -> np.ndarray:
    """opened[w, k]: does probe window w open users[k]'s commitment, made
    from grids[k] with users[k] as the password.

    Only the pairs whose Lee distance D[w, k], the Lee weight of
    (probes[w] - grids[k]) mod p, is within the code's radius are opened;
    the others stay closed. That is exact: decode never returns a codeword
    farther than the radius, and the code corrects every error within it,
    so a pair beyond the radius could open only through an HMAC-SHA-256
    collision. The pairs within still go through decode and the tag check.
    """
    opened = np.zeros((len(probes), len(users)), dtype=bool)
    # one user column at a time keeps the distances (windows x n)
    for k, (commitment, grid, user) in enumerate(zip(commitments, grids, users)):
        near = lee_weight(probes - grid, params.p).sum(axis=1) <= params.radius
        for w in np.flatnonzero(near).tolist():
            try:
                open_commitment(commitment, probes[w], user, params=params)
                opened[w, k] = True
            except OpenFailure:
                pass
    return opened


def _bkg_channel(channel: str, config: ExperimentConfig, params,
                 train_fm: FeatureMatrix, test_fm: FeatureMatrix) -> dict:
    report: dict = {"channel": channel, "log2_keyspace": config.bkg_l * math.log2(config.bkg_p)}
    if train_fm.n_rows == 0 or train_fm.n_features < params.n:
        report["error"] = (f"not enough features for the code length ({train_fm.n_features} "
                           f"features, code length {params.n})")
        return report

    codes = train_fm.users()
    users = [train_fm.user_names[k] for k in codes]
    if len(users) < 2:
        report["error"] = "fewer than two users could enroll"
        report["enroll_notes"] = []
        return report
    try:
        scores = fisher_scores(train_fm)
    except PipelineError as exc:
        report["error"] = str(exc)
        return report
    order = np.argsort(-scores, kind="stable")[:params.n]
    selected = [train_fm.columns[i] for i in order]
    train_sel = train_fm.select_columns(selected)
    test_sel = test_fm.select_columns(selected)
    pooled = fill_missing(nanmean_columns(train_sel.values), 0.0)
    spec = fit_discretization(train_sel.values, config.bkg_p)
    root = np.random.SeedSequence([config.seed, 0xB46])
    grids, commitments = [], []
    for code, user, child in zip(codes, users, root.spawn(len(users))):
        enrollment = fill_missing(nanmean_columns(train_sel.for_user(code).values), pooled)
        rng = np.random.default_rng(child)
        grids.append(ds(enrollment, spec))
        # the user id is the password
        commitments.append(commit(grids[-1], user, params=params, rng=rng)[0])

    # a probe per scan window of an enrolled user, claiming that user
    agg = scan_aggregate(test_sel, config.bkg_scan_seconds)
    column = {u: k for k, u in enumerate(users)}
    claimant = np.array([column.get(u, -1) for u in agg.user_names], dtype=np.int64)[agg.user]
    probes = ds(fill_missing(agg.values[claimant >= 0], pooled), spec)
    claimant = claimant[claimant >= 0]
    probed, first = np.unique(claimant, return_index=True)
    missing = [users[k] for k in np.setdiff1d(np.arange(len(users)), probed)]
    enroll_notes = [f"no probes for {', '.join(missing)}"] if missing else []
    if len(probed) < 2:
        report["error"] = "fewer than two users have probe vectors"
        report["enroll_notes"] = enroll_notes
        return report

    opened = _open_table(commitments, grids, probes, users, params)
    genuine = claimant[:, None] == np.arange(len(users))
    n_genuine, n_impostor = int(genuine.sum()), int((~genuine).sum())
    genuine_opens = int(opened[genuine].sum())
    far = int(opened[~genuine].sum()) / n_impostor
    frr = 1.0 - genuine_opens / n_genuine
    report.update({
        "far": far, "frr": frr, "eer": (far + frr) / 2,
        "n_genuine": n_genuine, "n_impostor": n_impostor,
        "key_generation_possible": genuine_opens > 0,
        "enroll_notes": enroll_notes,
    })
    # the guessing attacker holds each probed user's first probe window
    gd = guessing_distance(opened[np.ix_(first, probed)], [users[k] for k in probed])
    report["mean_guessing_distance"] = gd.mean_distance
    report["non_guessed_pct"] = gd.not_guessed_pct
    report["guessing_distances"] = {u: v for u, v in sorted(gd.distances.items())}
    return report


BKG_FIELDS = (*CORPUS_FIELDS, "sensors", "mode", "latency_max_ms", "latency_min_count",
              "bkg_n", "bkg_l", "bkg_p", "bkg_scan_seconds", "bkg_channels", "out_dir")


def run_bkg(config: ExperimentConfig,
            sessions: list[Session] | None = None) -> dict:
    """Key-generation experiment: per-channel FAR/FRR at the binary open
    decision, guessing distance, and keyspace size."""
    config = config.narrow(BKG_FIELDS)
    # the code is checked before any corpus is built or synthesized
    try:
        params = grs_build(config.bkg_n, config.bkg_l, config.bkg_p)
    except ValueError as exc:
        raise ConfigError(f"bkg code parameters rejected: {exc}") from None
    _check_out_dir(config)
    train_s, test_s = _split(config, sessions)
    matrices = _channel_matrices(train_s, test_s, config.bkg_channels, config)
    reports = [_bkg_channel(channel, config, params, *matrices.pop(channel))
               for channel in config.bkg_channels]
    if all("error" in r for r in reports):
        raise InfeasibleError("; ".join(f"{r['channel']}: {r['error']}"
                                        for r in reports))
    rows = [(r["channel"], *[None] * 5, r["error"]) if "error" in r else
            (r["channel"], r["eer"], r["far"], r["frr"], r["mean_guessing_distance"],
             r["non_guessed_pct"], "yes" if r["key_generation_possible"] else "no")
            for r in reports]
    return _finish(config, _bundle(config, {
        "code": {"n": params.n, "l": params.l, "p": params.p,
                 "radius": params.radius},
        "channels": {r["channel"]: {k: v for k, v in r.items() if k != "channel"}
                     for r in reports},
    }), {"bkg.csv": (("channel", "eer", "far", "frr", "mean_gd", "non_guessed_pct",
                      "key_generation"), rows)})
