"""Command line entry points, which parse and print: apart from ingest and
synth, each subcommand calls one of the seven runners in
hmogkit.experiments, and that runner writes every output file.

Flags are long-form only. A subcommand takes a flag for exactly the config
fields its runner reads (the runner's *_FIELDS tuple; CORPUS_FIELDS for
synth), and argparse rejects any other with exit 2. A JSON config file
passed via ``--config`` holds experiment-field overrides that take
precedence over flags; flags in turn override built-in defaults. The file
may name any config field: one the subcommand does not read is reset by
the runner, so it changes neither the outputs nor the config_hash. Exit
codes: 0 success, 2 configuration error, 3 data error, 4 infeasible
experiment. A file that cannot be opened, or read by hmogkit.table, ends in
one line naming it: exit 3, or 2 for the --config and --manifest files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import types
import typing
from pathlib import Path

from .corpus.io import DEFAULT_RATE_HZ, id_problem, load_mapping, parse_session, save_corpus
from .corpus.types import CONDITIONS, CorpusError
from .experiments import (
    AUTH_FIELDS,
    BETWEEN_FIELDS,
    BKG_FIELDS,
    CHANNELS,
    CORPUS_FIELDS,
    EXTRACT_FIELDS,
    FUSE_FIELDS,
    OUT_DIR_ENV,
    SWEEP_FIELDS,
    TRAIN_FIELDS,
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    build_sessions,
    is_number,
    run_auth,
    run_between,
    run_bkg,
    run_extract,
    run_fuse,
    run_rate_sweep,
    run_train,
)
from .pipeline import PipelineError
from .table import FormatError, read_json
from .verify import VerifyError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def _csv_of(cast):
    """A flag type reading a comma list of cast values as a tuple."""
    def parse(text: str) -> tuple:
        items = [part.strip() for part in text.split(",") if part.strip()]
        if not items:
            raise argparse.ArgumentTypeError("expected a comma-separated list")
        try:
            return tuple(cast(part) for part in items)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _weights(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in _csv_of(str)(text):
        name, sep, value = part.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"expected name=value, got {part!r}")
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return out


# (config field, flag, help) of every field; a subcommand takes the rows
# of the fields its runner reads
_FLAGS = (
    ("corpus_dir", "--corpus", "read sessions from this corpus directory"),
    ("n_users", "--users", "number of synthetic users when no corpus is given"),
    ("sessions", "--sessions", "synthetic sessions per user"),
    ("session_seconds", "--session-seconds", "synthetic session length in seconds"),
    ("condition", "--condition", "recording condition to keep (sitting or walking)"),
    ("separation", "--separation", "between-user separation of the synthetic profiles"),
    ("tap_rate_hz", "--tap-rate", "synthetic tap rate in Hz"),
    ("sensors", "--sensors", "comma list of sensors (acc,gyr,mag)"),
    ("mode", "--mode", "tap window mode: during or between"),
    ("latency_max_ms", "--latency-max", "digraph latency outlier ceiling in ms"),
    ("latency_min_count", "--latency-min-count",
     "minimum finite latencies to keep a digraph column"),
    ("channels", "--channels", "comma list of channels (hmog,tap,keyhold,digraph)"),
    ("metric", "--metric", "distance metric: sm or se"),
    ("scan_seconds", "--scans", "comma list of scan lengths in seconds"),
    ("selector", "--selector", "feature selector: fisher, mrmr, or none"),
    ("selector_value", "--selector-value",
     "score-mass fraction (fisher) or threshold (mrmr)"),
    ("pca_fraction", "--pca-fraction", "variance fraction kept by the PCA stage"),
    ("min_vectors", "--min-vectors", "enrollment floor in training vectors per user"),
    ("fusion_step", "--fusion-step", (
        "fusion weight grid step; it must divide 1.0. For k channels the grid has "
        "C(1/step + k - 1, k - 1) points, each fused and scored once: for four "
        "channels 1,771 at 0.05 and 176,851 at 0.01")),
    ("fusion_weights", "--weights", "fixed fusion weights, e.g. hmog=0.6,tap=0.4"),
    ("bkg_n", "--code-length", "code length n (number of committed features)"),
    ("bkg_l", "--message-length", "message length l (key is l field symbols)"),
    ("bkg_p", "--field-prime", "prime field size p"),
    ("bkg_scan_seconds", "--bkg-scan", "probe scan length in seconds"),
    ("bkg_channels", "--bkg-channels", "comma list of channels to commit"),
    ("downsample_factors", "--factors", "comma list of downsample factors, e.g. 1,2,6,20"),
    ("out_dir", "--out-dir", f"output directory (default ${OUT_DIR_ENV})"),
    ("seed", "--seed", "master seed"),
    ("workers", "--workers", "parallel workers; results stay in submission order"),
)


def _flag_type(hint):
    """The flag type of a config field's annotation: its own type, a comma
    list of a tuple's element type, or name=value weights for a dict."""
    if typing.get_origin(hint) is types.UnionType:
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if typing.get_origin(hint) is tuple:
        return _csv_of(typing.get_args(hint)[0])
    return _weights if hint is dict else hint


_FLAG_TYPES = {name: _flag_type(hint)
               for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def _load_config_file(path: str) -> dict:
    try:
        return read_json(path)
    except (OSError, FormatError) as exc:
        raise ConfigError(str(exc)) from None


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, overridden by flags, overridden by the --config file."""
    overrides = {k: v for k, v in vars(args).items()
                 if k in _FLAG_TYPES and v is not None}
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key not in _FLAG_TYPES:
                raise ConfigError(f"unknown config field {key!r}")
            overrides[key] = value
    # "none" on the command line or in the file means no selector at all;
    # a bare None would be eaten by the flag filter above.
    if overrides.get("selector") == "none":
        overrides["selector"] = None
    if overrides.get("out_dir") is None:
        overrides["out_dir"] = os.environ.get(OUT_DIR_ENV) or None
    return ExperimentConfig(**overrides)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    spec = _load_config_file(args.manifest)
    entries = spec.get("sessions")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{args.manifest}: expected a non-empty"
                          " \"sessions\" list")
    mapping = load_mapping(args.mapping) if args.mapping else None
    base = Path(args.manifest).parent
    sessions = []
    seen: dict[tuple[str, str], int] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"{args.manifest}: session {i} is not an object")
        try:
            sensor = entry["sensor_file"]
            touch = entry["touch_file"]
            keys = entry["key_file"]
            user_id = entry["user_id"]
            session_id = entry["session_id"]
            condition = entry["condition"]
        except KeyError as exc:
            raise ConfigError(
                f"{args.manifest}: session {i} is missing {exc}") from None
        problem = id_problem(user_id, session_id)
        if problem:
            raise ConfigError(f"{args.manifest}: session {i} has {problem}")
        key = (str(user_id), str(session_id))
        if key in seen:
            raise ConfigError(f"{args.manifest}: session {i} repeats user_id"
                              f" {key[0]!r} and session_id {key[1]!r} of"
                              f" session {seen[key]}")
        seen[key] = i
        if str(condition) not in CONDITIONS:
            raise ConfigError(f"{args.manifest}: session {i} has unknown"
                              f" condition {condition!r}")
        taps = entry.get("taps_file")
        for name, path in [("sensor_file", sensor), ("touch_file", touch),
                           ("key_file", keys), ("taps_file", taps)]:
            # taps_file is optional: absent or null means no tap file
            if not (isinstance(path, str) or name == "taps_file" and path is None):
                raise ConfigError(f"{args.manifest}: session {i} has {name}"
                                  f" {path!r}, expected a path string")
        rate = entry.get("rate_hz", args.rate)
        if not is_number(rate) or not math.isfinite(rate) or rate <= 0:
            raise ConfigError(f"{args.manifest}: session {i} has rate_hz"
                              f" {rate!r}, expected a positive finite number")
        sessions.append(parse_session(
            str(base / sensor), str(base / touch), str(base / keys),
            user_id=key[0], session_id=key[1],
            condition=str(condition),
            taps_path=str(base / taps) if taps else None,
            mapping=mapping,
            nominal_rate_hz=float(rate)))
    save_corpus(sessions, args.corpus_out)
    print(f"ingested {len(sessions)} sessions into {args.corpus_out}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    config = build_config(args).narrow(CORPUS_FIELDS)
    if config.corpus_dir is not None:
        raise ConfigError("synth generates a corpus; --corpus is not accepted")
    sessions = build_sessions(config)
    save_corpus(sessions, args.corpus_out)
    print(f"wrote {len(sessions)} sessions ({config.n_users} users)"
          f" to {args.corpus_out}  config_hash={config.config_hash()}")
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    config = build_config(args)
    if config.corpus_dir is None:
        raise ConfigError("extract needs --corpus")
    fm = run_extract(config, args.channel, args.features_out)
    print(f"{args.channel}: {fm.n_rows} rows x {fm.n_features} features"
          f" -> {args.features_out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = build_config(args)
    if config.corpus_dir is None:
        raise ConfigError("train needs --corpus")
    templates, failures = run_train(config, args.channel, args.templates_out)
    for failure in failures:
        print(f"skipped {failure['user_id']}: {failure['reason']}", file=sys.stderr)
    if not templates:
        raise InfeasibleError("no user met the enrollment floor")
    print(f"enrolled {len(templates)} users -> {args.templates_out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    bundle = run_auth(build_config(args))
    for scan_key in sorted(bundle["scans"], key=float):
        entry = bundle["scans"][scan_key]
        for channel in sorted(entry["channels"]):
            cell = entry["channels"][channel]
            print(f"scan {scan_key}s  {channel:<8} eer={cell['eer']:.4f}"
                  f"  ({cell['n_genuine']} gen / {cell['n_impostor']} imp)")
        fused = entry["fused"]
        print(f"scan {scan_key}s  fused    eer={fused['eer']:.4f}"
              f"  weights={json.dumps(fused['weights'], sort_keys=True)}")
    return EXIT_OK


def cmd_between(args: argparse.Namespace) -> int:
    bundle = run_between(build_config(args))
    for mode in ("during", "between"):
        scans = bundle["modes"][mode]["scans"]
        for scan_key in sorted(scans, key=float):
            cell = scans[scan_key]
            print(f"{mode:<8} scan {scan_key}s  eer={cell['eer']:.4f}"
                  f"  ({cell['n_genuine']} gen / {cell['n_impostor']} imp)")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    bundle = run_rate_sweep(build_config(args))
    for factor in sorted(bundle["factors"], key=int):
        per = bundle["factors"][factor]
        for scan_key in sorted(per["scans"], key=float):
            cell = per["scans"][scan_key]
            print(f"factor {factor:>3} ({per['rate_hz']:g} Hz)"
                  f"  scan {scan_key}s  eer={cell['eer']:.4f}"
                  f"  enrolled={cell['n_enrolled']}")
    return EXIT_OK


def cmd_bkg(args: argparse.Namespace) -> int:
    bundle = run_bkg(build_config(args))
    code = bundle["code"]
    print(f"code n={code['n']} l={code['l']} p={code['p']}"
          f" radius={code['radius']}")
    for channel in sorted(bundle["channels"]):
        report = bundle["channels"][channel]
        if "error" in report:
            print(f"{channel:<8} error: {report['error']}")
            continue
        gd = report["mean_guessing_distance"]
        print(f"{channel:<8} eer={report['eer']:.4f} far={report['far']:.4f}"
              f" frr={report['frr']:.4f} mean_gd={gd:.3f}"
              f" non_guessed={report['non_guessed_pct']:.1f}%"
              f" keys={'yes' if report['key_generation_possible'] else 'no'}")
    return EXIT_OK


def _score_paths(items):
    """(name, path) of each --scores item."""
    for item in items:
        name, sep, path = item.partition("=")
        if not sep:
            raise ConfigError(f"--scores expects name=path, got {item!r}")
        yield name.strip(), path


def cmd_fuse(args: argparse.Namespace) -> int:
    report = run_fuse(build_config(args), _score_paths(args.scores or []), args.weights)
    print(f"fused eer={report['eer']:.4f}"
          f"  weights={json.dumps(report['weights'], sort_keys=True)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmogkit",
        description="Movement-based verification and key generation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw recordings into a corpus")
    p.add_argument("--manifest", required=True,
                   help="JSON manifest with a \"sessions\" list")
    p.add_argument("--mapping", help="column mapping file (canonical = source)")
    p.add_argument("--rate", type=float, default=DEFAULT_RATE_HZ,
                   help=f"nominal sensor rate in Hz (default {DEFAULT_RATE_HZ:g})")
    p.add_argument("--corpus-out", required=True,
                   help="directory for the parsed corpus")
    p.set_defaults(handler=cmd_ingest)

    runs = {}
    for name, text, handler, names in [
            ("synth", "generate a synthetic corpus", cmd_synth, CORPUS_FIELDS),
            ("extract", "write a feature matrix CSV", cmd_extract, EXTRACT_FIELDS),
            ("train", "enroll templates from training sessions", cmd_train, TRAIN_FIELDS),
            ("eval", "verification experiment with fusion", cmd_eval, AUTH_FIELDS),
            ("fuse", "fuse score files from earlier runs", cmd_fuse, FUSE_FIELDS),
            ("bkg", "key-generation experiment", cmd_bkg, BKG_FIELDS),
            ("sweep", "sample-rate sweep on the hmog channel", cmd_sweep, SWEEP_FIELDS),
            ("between", "during-tap vs between-tap comparison", cmd_between,
             BETWEEN_FIELDS)]:
        p = runs[name] = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON file with config overrides (beats flags)")
        for field, flag, flag_help in _FLAGS:
            if field in names:
                p.add_argument(flag, dest=field, type=_FLAG_TYPES[field], help=flag_help)
        p.set_defaults(handler=handler)
    runs["synth"].add_argument("--corpus-out", required=True,
                               help="directory for the generated corpus")
    for name, out, text in [("extract", "--features-out", "CSV path for the extracted features"),
                            ("train", "--templates-out", "JSON path for the enrolled templates")]:
        runs[name].add_argument("--channel", default="hmog", choices=CHANNELS)
        runs[name].add_argument(out, required=True, help=text)
    runs["fuse"].add_argument("--scores", action="append", metavar="NAME=PATH",
                              help="score CSV per channel; repeat per channel")
    runs["fuse"].add_argument("--weights", type=_weights,
                              help="fixed weights per --scores name, e.g. hmog=0.6,tap=0.4")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, FormatError, PipelineError, VerifyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
