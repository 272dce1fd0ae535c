"""Canonical data model, CSV ingestion, and synthetic session generation."""

from .io import (
    DEFAULT_RATE_HZ,
    ParseError,
    load_corpus,
    load_mapping,
    parse_mapping,
    parse_session,
    read_session,
    save_corpus,
    write_session,
)
from .synth import KEY_ALPHABET, SynthProfile, make_corpus, make_profiles, synthesize_user
from .types import (
    AXES,
    Condition,
    CorpusError,
    KeyTable,
    Sensor,
    SENSOR_ORDER,
    SensorStream,
    Session,
    TapTable,
    downsample,
)

__all__ = [
    "AXES",
    "Condition",
    "CorpusError",
    "DEFAULT_RATE_HZ",
    "KEY_ALPHABET",
    "KeyTable",
    "ParseError",
    "SENSOR_ORDER",
    "Sensor",
    "SensorStream",
    "Session",
    "SynthProfile",
    "TapTable",
    "downsample",
    "load_corpus",
    "load_mapping",
    "make_corpus",
    "make_profiles",
    "parse_mapping",
    "parse_session",
    "read_session",
    "save_corpus",
    "synthesize_user",
    "write_session",
]
