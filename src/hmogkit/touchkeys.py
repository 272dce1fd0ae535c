"""Tap geometry features and keystroke timing features.

Tap features (11): duration, nine contact-size statistics, and the
point-to-point velocity between consecutive taps of a session. One call
takes all the sessions of a side: taps whose contact arrays have the same
length are reduced together as one (taps, length) array, whichever session
they come from, and every row is byte-equal to per-tap NumPy calls on that
tap.

Key features come out in long form: one row per event holding its column
index and its value (``EVENT_COLUMNS``), labelled with session and press
time. Events are one hold time per key press over the 89-key hold
universe, and one down-down latency per consecutive key pair over the
canonical 35-key alphabet (35 * 35 = 1225 digraphs). ``widen`` turns events
into the dense matrix the pipeline scores, NaN outside each event's cell.
Hold times are widened over all 89 columns; digraph latencies are widened
by ``latency_outlier_filter``, only over the digraphs the training side
keeps, so no 1,225-column matrix is built on the way.
"""

from __future__ import annotations

import numpy as np

from .corpus.synth import KEY_ALPHABET
from .corpus.types import Session
from .matrix import FeatureMatrix, encode

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

# a long-form key event: (column index in its universe, value in ms)
EVENT_COLUMNS: tuple[str, ...] = ("column", "value")


def hold_feature_names() -> tuple[str, ...]:
    return tuple(f"hold_{key}" for key in HOLD_UNIVERSE)


def digraph_feature_names() -> tuple[str, ...]:
    return tuple(f"dig_{a}_{b}" for a in KEY_ALPHABET for b in KEY_ALPHABET)


def tap_features(*sessions: Session) -> FeatureMatrix:
    """One row per tap of one or more sessions, the rows of each session in
    the given order. The first tap of each session has no velocity (NaN)."""
    tables = [s.taps for s in sessions]
    counts = [len(t) for t in tables]
    n = sum(counts)
    values = np.empty((n, len(TAP_FEATURE_NAMES)))
    t_start = np.concatenate([t.t_start_ms for t in tables])
    values[:, 0] = np.concatenate([t.t_end_ms for t in tables]) - t_start
    lengths = np.concatenate([np.diff(t.offsets) for t in tables])
    first = np.cumsum(lengths) - lengths          # each tap's first sample
    contact = np.concatenate([t.contact_size for t in tables])
    # each row of a contiguous (taps, length) block is reduced along axis 1
    # in the order a 1-D array of that length is, so equal-length groups
    # keep the per-tap bytes; padding to a common length would not
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        block = contact[first[rows, None] + np.arange(length)]
        values[rows, 1] = block.mean(axis=1)
        values[rows, 2] = np.median(block, axis=1)
        values[rows, 3] = block.std(axis=1)
        values[rows, 4:7] = np.percentile(block, [25, 50, 75], axis=1).T
        values[rows, 7] = block[:, 0]
        values[rows, 8] = block.min(axis=1)
        values[rows, 9] = block.max(axis=1)
    # velocity from the previous tap of the same session only
    xy = np.concatenate([t.xy_px[t.offsets[:-1]] for t in tables])
    session = np.repeat(np.arange(len(tables)), counts)
    later = np.flatnonzero(session[1:] == session[:-1]) + 1
    dx, dy = (xy[later] - xy[later - 1]).T
    values[:, 10] = np.nan
    values[later, 10] = np.hypot(dx, dy) / ((t_start[later] - t_start[later - 1]) / 1000.0)
    table, (code,) = encode([(s.user_id, s.session_id) for s in sessions])
    return FeatureMatrix(TAP_FEATURE_NAMES, values, np.repeat(code, counts), t_start, table)


def _events(session: Session, t_ms: np.ndarray, column: np.ndarray,
            value: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(EVENT_COLUMNS, np.column_stack([column, value]),
                         np.zeros(len(t_ms), dtype=np.int32), t_ms,
                         ((session.user_id, session.session_id),))


def _codes(keys: np.ndarray, universe: tuple[str, ...]) -> np.ndarray:
    """Index of every key in universe, -1 for a key outside it."""
    index = {key: i for i, key in enumerate(universe)}
    return np.fromiter((index.get(key, -1) for key in keys), dtype=np.intp, count=len(keys))


def keystroke_features(session: Session) -> tuple[FeatureMatrix, FeatureMatrix]:
    """(hold events, digraph events) in long form: one row per event.

    Keys outside the hold universe carry no hold feature; digraph pairs
    containing a key outside the canonical alphabet are skipped.
    """
    keys = session.keys
    hold = _codes(keys.key, HOLD_UNIVERSE)
    held = hold >= 0
    holds = _events(session, keys.t_press_ms[held], hold[held],
                    (keys.t_release_ms - keys.t_press_ms)[held])

    letter = _codes(keys.key, KEY_ALPHABET)
    pair = (letter[:-1] >= 0) & (letter[1:] >= 0)
    column = letter[:-1] * len(KEY_ALPHABET) + letter[1:]
    digraphs = _events(session, keys.t_press_ms[:-1][pair], column[pair],
                       np.diff(keys.t_press_ms)[pair])
    return holds, digraphs


def widen(events: FeatureMatrix, columns: tuple[str, ...], keep=None) -> FeatureMatrix:
    """Dense matrix of long-form events over ``columns``, or over their
    indices ``keep``: NaN off each event's cell, and an event whose column
    is not kept leaves an empty row."""
    keep = np.arange(len(columns)) if keep is None else np.asarray(keep)
    position = np.full(len(columns), -1)
    position[keep] = np.arange(len(keep))
    cell = position[events.values[:, 0].astype(np.intp)]
    rows = np.flatnonzero(cell >= 0)
    values = np.full((events.n_rows, len(keep)), np.nan)
    values[rows, cell[rows]] = events.values[rows, 1]
    return FeatureMatrix(tuple(columns[i] for i in keep), values, events.session,
                         events.t_ms, events.sessions)


def latency_outlier_filter(train: FeatureMatrix, test: FeatureMatrix, l_ms: float,
                           m_min: int) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Dense (train, test) digraph matrices from long-form latencies: those
    above l_ms go, and both sides are widened over the digraphs with at least
    m_min training latencies left. A training latency of a dropped digraph
    goes; a test one stays as a row without a finite cell."""
    train = train.take(train.values[:, 1] <= l_ms)
    test = test.take(test.values[:, 1] <= l_ms)
    names = digraph_feature_names()
    column = train.values[:, 0].astype(np.intp)
    kept = np.bincount(column, minlength=len(names)) >= m_min
    keep = np.flatnonzero(kept)
    return widen(train.take(kept[column]), names, keep), widen(test, names, keep)
