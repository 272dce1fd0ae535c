"""Hand-movement features around tap events.

Per (sensor, channel, tap) five resistance and three stability features are
computed from four windows relative to the tap interval [t_start, t_end]:

  before    [t_start - 100 ms, t_start)
  during    [t_start, t_end]
  after100  (t_end, t_end + 100 ms]
  after200  (t_end, t_end + 200 ms]

Channels are the three axes plus the magnitude; sensors are accelerometer,
gyroscope, magnetometer. 5 * 3 * 4 + 3 * 3 * 4 = 96 features per tap.

Extraction is batched per (session, sensor); Python loops over sensors only:

- bounds: each window edge of every event is found by one searchsorted
  over the arrays of event starts and ends;
- gather: usable events are sorted by their widest window and split into
  groups whose widest windows lie within a factor of two; per group the
  four windows are copied into padded (width, events, channels) arrays,
  width the longest window of its kind in the group, rows past an event's
  window length set to -0.0. Padding thus at most doubles the rows an event
  needs, and one long press does not widen the arrays of short taps;
- reduce: all 8 families x 4 channels come from array operations along the
  width axis.

The results are bit-identical to slicing each window out on its own and
calling NumPy's mean/std/max on it. Sums run along the outer axis, which
NumPy adds row by row in the same order as a (k, 4) window's mean(axis=0),
and the -0.0 padding adds exactly nothing (x + -0.0 == x for every x, both
zeros included); std is the mean of squared deviations from that mean, as
NumPy computes it; max and argmax see -inf in the padding, the settle-time
argmin +inf, so NaN and ties pick the same first index. t_min_index and
t_min run the settle-time kernel on one window, with no padding.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus.types import CHANNELS, Sensor, SENSOR_ORDER, Session
from .matrix import FeatureMatrix

BEFORE_MS = 100
AFTER_MS = 100
POST_MS = 200              # stability search window after tap end
CENTER_OFFSET_MS = 50      # window centers sit 50 ms outside the tap
BETWEEN_BLOCK_MS = 91      # pseudo-tap length between taps
BETWEEN_GUARD_MS = 300     # quiet margin after/before the surrounding taps

RESISTANCE_FAMILIES = tuple(f"res{i}" for i in range(1, 6))
STABILITY_FAMILIES = tuple(f"stab{i}" for i in range(1, 4))
N_FAMILIES = len(RESISTANCE_FAMILIES) + len(STABILITY_FAMILIES)

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{sensor.value}_{channel}_{family}"
    for family in RESISTANCE_FAMILIES + STABILITY_FAMILIES
    for sensor in SENSOR_ORDER
    for channel in CHANNELS
)


def feature_names_for(sensors) -> tuple[str, ...]:
    """The canonical 96-name order restricted to the given sensors."""
    tags = {Sensor(s).value for s in sensors}
    return tuple(name for name in FEATURE_NAMES if name.split("_")[0] in tags)


class _Windows(NamedTuple):
    """One kind of window for several events, padded to a common width.

    values is (width, events, channels) and t is (width, events), or None
    where no feature needs the timestamps; rows at or past an event's
    window length n hold -0.0.
    """

    values: np.ndarray
    t: np.ndarray | None
    n: np.ndarray

    def inside(self) -> np.ndarray:
        """(width, events, 1) mask of the rows inside each event's window."""
        return (np.arange(len(self.values))[:, None] < self.n)[..., None]

    def mean(self) -> np.ndarray:
        return self.values.sum(axis=0) / self.n[:, None]

    def std(self, mean: np.ndarray) -> np.ndarray:
        """Population form, from the window mean as numpy.std computes it."""
        dev = np.where(self.inside(), self.values - mean, -0.0)
        return np.sqrt((dev * dev).sum(axis=0) / self.n[:, None])

    def masked(self, fill: float) -> np.ndarray:
        return np.where(self.inside(), self.values, fill)

    def t_at(self, rows: np.ndarray) -> np.ndarray:
        """Timestamps at (events, channels) row indices."""
        return self.t[rows, np.arange(len(rows))[:, None]]


def _single(values) -> _Windows:
    """A (k,) or (k, channels) window as a batch of one event, without
    timestamps."""
    values = np.asarray(values, dtype=np.float64)
    shape = (len(values), 1) + (values.shape[1:] or (1,))
    return _Windows(values.reshape(shape), None, np.array([len(values)]))


def _resistance(before: _Windows, during: _Windows, after100: _Windows) -> np.ndarray:
    """(5, events, channels): mean and population std during the tap, then
    avg100msAfter - avg100msBefore, avgTap - avg100msBefore and
    maxTap - avg100msBefore."""
    avg_before = before.mean()
    avg_after = after100.mean()
    avg_tap = during.mean()
    max_tap = during.masked(-np.inf).max(axis=0)
    return np.stack([
        avg_tap,
        during.std(avg_tap),
        avg_after - avg_before,
        avg_tap - avg_before,
        max_tap - avg_before,
    ])


def _settle_index(post: _Windows, avg_before: np.ndarray) -> np.ndarray:
    """(events, channels) row whose suffix mean of |z - avg_before| is
    minimal, the earliest on ties.

    The suffix sums are a cumsum over the reversed width axis: the padding
    of shorter windows comes first there and adds nothing.
    """
    inside = post.inside()
    diffs = np.where(inside, np.abs(post.values - avg_before), 0.0)
    suffix = np.cumsum(diffs[::-1], axis=0)[::-1]
    counts = np.maximum(post.n - np.arange(len(diffs))[:, None], 1)
    return np.argmin(np.where(inside, suffix / counts[..., None], np.inf), axis=0)


def _stability(t_start: np.ndarray, t_end: np.ndarray, before: _Windows,
               during: _Windows, after100: _Windows, post: _Windows) -> np.ndarray:
    """(3, events, channels): t_min - t_end over the 200 ms post-tap window,
    (t_after_center - t_before_center) / (avg100msAfter - avg100msBefore) and
    (t_after_center - t_max_in_tap) / (avg100msAfter - maxTap); a zero
    denominator gives NaN for that feature only."""
    avg_before = before.mean()
    avg_after = after100.mean()
    lifted = during.masked(-np.inf)
    max_tap = lifted.max(axis=0)
    t_max_in_tap = during.t_at(lifted.argmax(axis=0))
    settle = post.t_at(_settle_index(post, avg_before)) - t_end[:, None]
    t_before_center = (t_start - CENTER_OFFSET_MS)[:, None]
    t_after_center = (t_end + CENTER_OFFSET_MS)[:, None]
    den2 = avg_after - avg_before
    den3 = avg_after - max_tap
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = np.where(den2 == 0, np.nan, (t_after_center - t_before_center) / den2)
        s3 = np.where(den3 == 0, np.nan, (t_after_center - t_max_in_tap) / den3)
    return np.stack([settle.astype(np.float64), s2, s3])


def t_min_index(z_post: np.ndarray, avg_before) -> np.ndarray:
    """Index whose suffix mean of |z - avg100msBefore| is minimal.

    avgDiffs[i] = mean over j >= i of |z[j] - avg_before|; ties resolve to
    the earliest index.
    """
    post = _single(z_post)
    avg = np.asarray(avg_before, dtype=np.float64).reshape(1, -1)
    return _settle_index(post, avg).reshape(np.shape(z_post)[1:])[()]


def t_min(t_post: np.ndarray, z_post: np.ndarray, avg_before: float) -> int:
    """Timestamp at which the post-tap signal is deemed settled."""
    if len(t_post) == 0:
        raise ValueError("empty post-tap window")
    return int(t_post[t_min_index(z_post, avg_before)])


def _between_bounds(starts: np.ndarray, ends: np.ndarray,
                    duration_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-taps of duration_ms, as many as fit from 300 ms after each tap
    ends to 300 ms before the next starts."""
    lo = ends[:-1] + BETWEEN_GUARD_MS
    hi = starts[1:] - BETWEEN_GUARD_MS
    count = np.maximum(0, (hi - lo) // duration_ms)
    # k-th block of its gap, for every block of every gap
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    block_starts = np.repeat(lo, count) + k * duration_ms
    return block_starts, block_starts + duration_ms


def _gather(t: np.ndarray, chans: np.ndarray, start: np.ndarray,
            n: np.ndarray) -> _Windows:
    """Windows chans[start[e]:start[e] + n[e]] of every event e, padded
    with -0.0, the exact additive identity."""
    offsets = np.arange(n.max())[:, None]
    inside = offsets < n
    rows = np.where(inside, start + offsets, start)
    return _Windows(np.where(inside[..., None], chans[rows], -0.0), t[rows], n)


def _width_groups(width: np.ndarray) -> list[np.ndarray]:
    """Indices of the events, sorted by width and split into groups whose
    widths lie within a factor of two of the group's narrowest; widths are
    >= 1, so there are at most log2(max / min) + 1 groups."""
    order = np.argsort(width, kind="stable")
    sorted_width = width[order]
    groups, first = [], 0
    while first < len(order):
        last = int(np.searchsorted(sorted_width, 2 * sorted_width[first], side="right"))
        groups.append(order[first:last])
        first = last
    return groups


def _blocks(t: np.ndarray, chans: np.ndarray, t_start: np.ndarray,
            t_end: np.ndarray, b0, d0, a0, a1, p1) -> np.ndarray:
    """(8 families, events, channels) features from window row bounds."""
    before = _gather(t, chans, b0, d0 - b0)
    during = _gather(t, chans, d0, a0 - d0)
    after100 = _gather(t, chans, a0, a1 - a0)
    post = _gather(t, chans, a0, p1 - a0)
    return np.concatenate([
        _resistance(before, during, after100),
        _stability(t_start, t_end, before, during, after100, post),
    ])


def _sensor_blocks(t: np.ndarray, chans: np.ndarray, t_start: np.ndarray,
                   t_end: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(usable, blocks): the events whose four windows are all nonempty and
    whose 300 ms context lies inside this sensor's recording, and their
    features as a (usable events, 8 families, channels) array."""
    b0 = np.searchsorted(t, t_start - BEFORE_MS, side="left")
    d0 = np.searchsorted(t, t_start, side="left")
    a0 = np.searchsorted(t, t_end, side="right")
    a1 = np.searchsorted(t, t_end + AFTER_MS, side="right")
    p1 = np.searchsorted(t, t_end + POST_MS, side="right")
    # after200 contains after100, so it is nonempty whenever after100 is
    usable = ((t_start - BEFORE_MS >= t[0]) & (t_end + POST_MS <= t[-1])
              & (d0 > b0) & (a0 > d0) & (a1 > a0))
    if not usable.any():
        return usable, None
    events = [bound[usable] for bound in (t_start, t_end, b0, d0, a0, a1, p1)]
    _, _, b0, d0, a0, _, p1 = events
    # post contains after100, so the widest window is before, during or post
    widest = np.maximum.reduce([d0 - b0, a0 - d0, p1 - a0])
    blocks = np.empty((len(widest), N_FAMILIES, chans.shape[1]))
    for group in _width_groups(widest):
        blocks[group] = _blocks(t, chans, *(e[group] for e in events)).transpose(1, 0, 2)
    return usable, blocks


def extract_hmog(session: Session, mode: str = "during") -> FeatureMatrix:
    """One 96-feature row per valid tap (or per between-tap block).

    A tap is skipped only when every sensor lacks usable context; a sensor
    without usable context contributes NaN cells. meta records counts of
    skipped events and of taps whose 300 ms contexts overlap a neighbour.
    """
    starts, ends = session.taps.t_start_ms, session.taps.t_end_ms
    if mode == "during":
        overlap = int(np.count_nonzero(starts[1:] - ends[:-1] < BETWEEN_GUARD_MS))
    elif mode == "between":
        starts, ends = _between_bounds(starts, ends, BETWEEN_BLOCK_MS)
        overlap = 0
    else:
        raise ValueError(f"unknown extraction mode {mode!r}")

    cells = np.full((len(starts), N_FAMILIES, len(SENSOR_ORDER), len(CHANNELS)), np.nan)
    any_valid = np.zeros(len(starts), dtype=bool)
    for s_idx, sensor in enumerate(SENSOR_ORDER):
        stream = session.streams.get(sensor)
        if stream is None or len(stream) == 0:
            continue
        usable, blocks = _sensor_blocks(stream.t_ms, stream.channel_matrix(),
                                        starts, ends)
        if blocks is not None:
            cells[usable, :, s_idx] = blocks
        any_valid |= usable

    rows = cells.reshape(len(starts), len(FEATURE_NAMES))[any_valid]
    n = len(rows)
    fm = FeatureMatrix(
        FEATURE_NAMES,
        rows,
        np.full(n, session.user_id, dtype=object),
        np.full(n, session.session_id, dtype=object),
        starts[any_valid],
    )
    fm.meta = {"mode": mode, "n_events": len(starts), "n_skipped": len(starts) - n,
               "n_context_overlap": overlap}
    return fm
