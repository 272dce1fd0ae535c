"""Tap geometry features and keystroke timing features.

Tap features (11): duration, nine contact-size statistics, and the
point-to-point velocity between consecutive taps. Taps whose contact arrays
have the same length are reduced together as one (taps, length) array, and
every row is byte-equal to per-tap NumPy calls on that tap. Key features
are sparse event rows: one hold time per key press, one down-down latency
per consecutive key pair from the canonical 35-key alphabet (35 * 35 = 1225
possible digraphs).
"""

from __future__ import annotations

import numpy as np

from .corpus.synth import KEY_ALPHABET
from .corpus.types import Session
from .matrix import FeatureMatrix

TAP_FEATURE_NAMES: tuple[str, ...] = (
    "tap_duration",
    "contact_mean", "contact_median", "contact_std",
    "contact_q1", "contact_q2", "contact_q3",
    "contact_first", "contact_min", "contact_max",
    "tap_velocity",
)

# hold-time universe: the canonical alphabet plus an enumerated extension
# (digits and symbol keys), 89 keys in total by default
EXTENDED_KEYS: tuple[str, ...] = tuple(f"d{i}" for i in range(10)) + (
    "exclaim", "at", "hash", "dollar", "percent", "caret", "ampersand",
    "asterisk", "lparen", "rparen", "minus", "underscore", "plus", "equals",
    "lbracket", "rbracket", "lbrace", "rbrace", "semicolon", "colon",
    "quote", "backquote", "tilde", "less", "greater", "slash", "question",
    "backslash", "pipe", "euro", "pound", "yen", "degree", "bullet",
    "copyright", "registered", "trademark", "section", "paragraph",
    "ellipsis", "endash", "emdash", "currency", "micro",
)

HOLD_UNIVERSE: tuple[str, ...] = KEY_ALPHABET + EXTENDED_KEYS


def hold_feature_names(universe=HOLD_UNIVERSE) -> tuple[str, ...]:
    return tuple(f"hold_{key}" for key in universe)


def digraph_feature_names() -> tuple[str, ...]:
    return tuple(f"dig_{a}_{b}" for a in KEY_ALPHABET for b in KEY_ALPHABET)


def tap_features(session: Session) -> FeatureMatrix:
    """One row per tap. The first tap has no velocity (NaN)."""
    taps = session.taps
    n = len(taps)
    values = np.empty((n, len(TAP_FEATURE_NAMES)))
    t_start = np.array([tap.t_start_ms for tap in taps], dtype=np.int64)
    t_end = np.array([tap.t_end_ms for tap in taps], dtype=np.int64)
    sizes = [tap.contact_size for tap in taps]
    lengths = np.array([len(size) for size in sizes], dtype=np.intp)
    flat = np.concatenate(sizes) if n else np.empty(0)
    offsets = np.cumsum(lengths) - lengths
    values[:, 0] = t_end - t_start
    # each row of a contiguous (taps, length) block is reduced along axis 1
    # in the order a 1-D array of that length is, so equal-length groups
    # keep the per-tap bytes; padding to a common length would not
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        block = flat[offsets[rows, None] + np.arange(length)]
        values[rows, 1] = block.mean(axis=1)
        values[rows, 2] = np.median(block, axis=1)
        values[rows, 3] = block.std(axis=1)
        values[rows, 4:7] = np.percentile(block, [25, 50, 75], axis=1).T
        values[rows, 7] = block[:, 0]
        values[rows, 8] = block.min(axis=1)
        values[rows, 9] = block.max(axis=1)
    first_xy = np.array([tap.xy_px[0] for tap in taps]).reshape(n, 2)
    dx, dy = np.diff(first_xy, axis=0).T
    values[:1, 10] = np.nan
    values[1:, 10] = np.hypot(dx, dy) / (np.diff(t_start) / 1000.0)
    return FeatureMatrix(
        TAP_FEATURE_NAMES,
        values,
        np.full(n, session.user_id, dtype=object),
        np.full(n, session.session_id, dtype=object),
        t_start,
    )


def _sparse_matrix(session: Session, columns: tuple[str, ...],
                   entries: list[tuple[int, int, float]]) -> FeatureMatrix:
    n = len(entries)
    values = np.full((n, len(columns)), np.nan)
    ts = np.empty(n, dtype=np.int64)
    for i, (t, col, value) in enumerate(entries):
        values[i, col] = value
        ts[i] = t
    return FeatureMatrix(
        columns, values,
        np.full(n, session.user_id, dtype=object),
        np.full(n, session.session_id, dtype=object),
        ts,
    )


def keystroke_features(session: Session,
                       hold_universe=HOLD_UNIVERSE) -> tuple[FeatureMatrix, FeatureMatrix]:
    """(hold matrix, digraph matrix); one sparse row per event.

    Keys outside the hold universe carry no hold feature; digraph pairs
    containing a key outside the canonical alphabet are skipped.
    """
    hold_cols = hold_feature_names(hold_universe)
    hold_index = {key: i for i, key in enumerate(hold_universe)}
    holds = [(ev.t_press_ms, hold_index[ev.key], float(ev.hold_ms))
             for ev in session.keys if ev.key in hold_index]

    dig_cols = digraph_feature_names()
    dig_index = {key: i for i, key in enumerate(KEY_ALPHABET)}
    k = len(KEY_ALPHABET)
    digraphs = []
    for first, second in zip(session.keys, session.keys[1:]):
        if first.key not in dig_index or second.key not in dig_index:
            continue
        col = dig_index[first.key] * k + dig_index[second.key]
        digraphs.append((first.t_press_ms, col,
                         float(second.t_press_ms - first.t_press_ms)))

    return (_sparse_matrix(session, hold_cols, holds),
            _sparse_matrix(session, dig_cols, digraphs))


def latency_outlier_filter(fm: FeatureMatrix, l_ms: float, m_min: int) -> FeatureMatrix:
    """Drop latencies above l_ms, then drop features seen fewer than m_min
    times, in that order. Rows left without finite cells are removed.
    Applying the filter twice equals applying it once."""
    with np.errstate(invalid="ignore"):
        present = np.isfinite(fm.values) & ~(fm.values > l_ms)
    counts = np.sum(present, axis=0)
    keep_cols = np.flatnonzero(counts >= m_min) if m_min > 0 else np.arange(len(fm.columns))
    columns = tuple(fm.columns[i] for i in keep_cols)
    keep_rows = np.flatnonzero(np.any(present[:, keep_cols], axis=1))
    # one copy of the surviving block, cut in place
    values = fm.values[np.ix_(keep_rows, keep_cols)]
    with np.errstate(invalid="ignore"):
        values[values > l_ms] = np.nan
    return FeatureMatrix(columns, values, fm.user_ids[keep_rows],
                         fm.session_ids[keep_rows], fm.t_ms[keep_rows])
