"""Hand-movement features around tap events.

Per (sensor, channel, tap) five resistance and three stability features are
computed from four windows relative to the tap interval [t_start, t_end]:

  before    [t_start - 100 ms, t_start)
  during    [t_start, t_end]
  after100  (t_end, t_end + 100 ms]
  after200  (t_end, t_end + 200 ms]

Channels (AXES) are the three axes plus the magnitude; sensors are
accelerometer, gyroscope, magnetometer: 5 * 3 * 4 + 3 * 3 * 4 = 96 features.

One call takes all the sessions of a side, their rows in the given order.
Within a session, extraction is batched per sensor clock; Python loops over
sessions, clocks and event chunks only:

- clocks: sensors whose t_ms arrays are equal share one clock, and every
  step below runs once per clock. Synthetic streams, downsampled ones
  included, put acc, gyr and mag on one clock; a recorded sensor on a
  clock of its own gets a pass of its own;
- block: for each of the clock's k sensors in turn, the x, y, z columns
  and the magnitude sqrt(x*x + y*y + z*z) go into one (n + 1, 4k) block
  whose last row is -0.0, the sentinel row;
- bounds: each window edge of every event is found by one searchsorted
  over the arrays of event starts and ends;
- gather: usable events are sorted by their widest window and cut
  greedily into chunks that keep every padded window array within
  256 KiB: larger temporaries are served by fresh mmaps that page-fault
  on every call. Sorted, at most log2(max / min) chunks span more than a
  factor of two in width, each padding at most one cap's worth, so one
  long press does not widen the arrays of short taps. Per chunk each of
  the four windows is one take of (width, events) row indices from the
  block, width the longest window of its kind in the chunk. Every window
  starts on row 0, every row past an event's window pointing at the
  sentinel row. Timestamps are not gathered: the rows of the tap maximum
  and of the settle time index the stream's t directly;
- reduce: each window mean, the masked tap maximum with the row it sits
  on, the settle row and each inside mask are computed once per chunk, and
  all 8 families x 4k channels come from whole-block array operations
  along the width axis: no reduction copies a window array transposed and
  the settle time's suffix sums are built in place. The result is
  scattered into each member sensor's cells.

The results are bit-identical to slicing each window out on its own and
calling NumPy's mean/std/max on it. The magnitude adds the squares left to
right, as NumPy's sum over a row of three does. Sums run along the outer
axis, which NumPy adds row by row in the same order as a (k, 4) window's
mean(axis=0), and the -0.0 padding adds exactly nothing (x + -0.0 == x for
every x, both zeros included); std is the mean of squared deviations from
that mean, as NumPy computes it. The tap maximum sees -inf in the padding,
and its row is the first row equal to the maximum or the first NaN, which
is the row argmax picks, so NaN and ties pick the same first index. The
settle time's suffix sums add the post window's rows from the last row of
the width back, one row at a time; the rows past the window read +0.0
there and come first, and +0.0 + x == x for every |z - avg| (+0.0, a
positive number, +inf or NaN), so each window suffix is the one a cumsum
over the reversed window alone gives. Row i of a window of n rows is
divided by n - i, the window's own count, so every suffix mean keeps its
bits. The rows past the window are divided by 1 and then read +inf, and
the settle row is the first row equal to the least suffix mean or the
first NaN, as argmin picks, so NaN and ties pick the same first row, and a
window of +inf means only falls back on its first row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus.types import AXES, SENSOR_ORDER, Session
from .matrix import FeatureMatrix, encode

BEFORE_MS = 100
AFTER_MS = 100
POST_MS = 200              # stability search window after tap end
CENTER_OFFSET_MS = 50      # window centers sit 50 ms outside the tap
BETWEEN_BLOCK_MS = 91      # pseudo-tap length between taps
BETWEEN_GUARD_MS = 300     # quiet margin after/before the surrounding taps

# Bytes of one padded window array, at most: events are taken in chunks
# that keep it about this size. Larger temporaries are served by fresh
# mmaps that page-fault on every call, which made 12-column blocks slower
# than the 4-column ones they replace, and they raise the peak memory.
_WINDOW_BYTES = 1 << 18

RESISTANCE_FAMILIES = tuple(f"res{i}" for i in range(1, 6))
STABILITY_FAMILIES = tuple(f"stab{i}" for i in range(1, 4))
N_FAMILIES = len(RESISTANCE_FAMILIES) + len(STABILITY_FAMILIES)

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{sensor}_{axis}_{family}"
    for family in RESISTANCE_FAMILIES + STABILITY_FAMILIES
    for sensor in SENSOR_ORDER
    for axis in AXES
)


def feature_names_for(sensors) -> tuple[str, ...]:
    """The canonical 96-name order restricted to the given sensor tags."""
    sensors = tuple(sensors)
    for sensor in sensors:
        if sensor not in SENSOR_ORDER:
            raise ValueError(f"unknown sensor {sensor!r}")
    return tuple(name for name in FEATURE_NAMES if name.split("_")[0] in sensors)


class _Windows(NamedTuple):
    """One kind of window for several events, padded to a common width.

    values is (width, events, channels); inside is the (width, events) mask
    of the rows inside each event's window, whose length is n. Each window
    starts on row 0 and the rows after it hold -0.0.
    """

    values: np.ndarray
    inside: np.ndarray
    n: np.ndarray

    def mean(self) -> np.ndarray:
        return self.values.sum(axis=0) / self.n[:, None]

    def std(self, mean: np.ndarray) -> np.ndarray:
        """Population form, from the window mean as numpy.std computes it."""
        dev = self.values - mean
        dev[~self.inside] = -0.0
        dev *= dev
        return np.sqrt(dev.sum(axis=0) / self.n[:, None])


def _first_match(values: np.ndarray, extreme: np.ndarray) -> np.ndarray:
    """(events, channels) first row of each column of the (width, events,
    channels) values that equals extreme, its max or min along the width
    axis, or that is NaN: the row argmax or argmin picks. Along the outer
    axis argmax and argmin first copy their input transposed; here only the
    one-byte mask of hits is copied."""
    hit = values == extreme
    hit |= np.isnan(values)
    return hit.argmax(axis=0)


def _settle_index(post: _Windows, avg_before: np.ndarray) -> np.ndarray:
    """(events, channels) row of each post window, counted from its first
    row, whose suffix mean of |z - avg_before| is minimal, the earliest on
    ties.

    The rows past a window read +0.0, and the suffix sums add the rows from
    the last one back, in place, as a cumsum over the reversed width axis
    would; row i of a window of n rows is divided by n - i, the rows past it
    by 1, and then masked to +inf, so an all +inf window falls back on its
    first row. The masks index whole (width, events) rows: a copyto whose
    mask is broadcast along the channels takes three times as long.
    """
    outside = ~post.inside
    suffix = post.values - avg_before
    np.abs(suffix, out=suffix)
    suffix[outside] = 0.0
    for i in range(len(suffix) - 2, -1, -1):
        np.add(suffix[i + 1], suffix[i], out=suffix[i])
    suffix /= np.where(outside, 1.0, post.n - np.arange(len(suffix))[:, None])[..., None]
    suffix[outside] = np.inf
    return _first_match(suffix, suffix.min(axis=0))


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


def _clock_groups(streams) -> list[tuple[np.ndarray, list[int]]]:
    """(t_ms, sensor indices) of each distinct clock among the nonempty
    streams, sensors in SENSOR_ORDER; streams with equal t_ms share one."""
    groups: list[tuple[np.ndarray, list[int]]] = []
    for s_idx, sensor in enumerate(SENSOR_ORDER):
        stream = streams.get(sensor)
        if stream is None or len(stream) == 0:
            continue
        for t, members in groups:
            if np.array_equal(t, stream.t_ms):
                members.append(s_idx)
                break
        else:
            groups.append((stream.t_ms, [s_idx]))
    return groups


def _channel_block(*values: np.ndarray) -> np.ndarray:
    """(n + 1, 4k) block with columns x, y, z and magnitude of each of the
    k (n, 3) value arrays in turn, and a last row of -0.0 that _gather
    reads for every row outside a window."""
    n = len(values[0])
    block = np.empty((n + 1, len(AXES) * len(values)))
    for j, sensor_values in enumerate(values):
        cols = block[:n, len(AXES) * j:len(AXES) * (j + 1)]
        cols[:, :3] = sensor_values
        x, y, z = sensor_values.T
        np.sqrt(x * x + y * y + z * z, out=cols[:, 3])
    block[n] = -0.0
    return block


def _gather(chans: np.ndarray, start: np.ndarray, n: np.ndarray) -> _Windows:
    """Windows chans[start[e]:start[e] + n[e]] of every event e, each
    starting on row 0; the rows past n[e] take the -0.0 last row of chans,
    the exact additive identity."""
    offsets = np.arange(n.max())[:, None]
    inside = offsets < n
    rows = np.where(inside, start + offsets, len(chans) - 1)
    return _Windows(chans.take(rows, axis=0), inside, n)


def _blocks(t: np.ndarray, chans: np.ndarray, t_start: np.ndarray,
            t_end: np.ndarray, start: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(8 families, events, channels) features of each event's windows
    before, during, after100 and post, given as (4, events) row starts and
    lengths into t and the padded channel block.

    Resistance: mean and population std during the tap, then
    avg100msAfter - avg100msBefore, avgTap - avg100msBefore and
    maxTap - avg100msBefore. Stability: t_min - t_end over the 200 ms
    post-tap window, (t_after_center - t_before_center) / (avg100msAfter -
    avg100msBefore) and (t_after_center - t_max_in_tap) / (avg100msAfter -
    maxTap); a zero denominator gives NaN for that feature only.
    """
    before, during, after100, post = (_gather(chans, s, k) for s, k in zip(start, n))
    avg_before = before.mean()
    avg_tap = during.mean()
    avg_after = after100.mean()
    std_tap = during.std(avg_tap)
    lifted = during.values  # lifted in place: the tap windows are not read again
    lifted[~during.inside] = -np.inf
    max_tap = lifted.max(axis=0)
    t_max_in_tap = t[start[1][:, None] + _first_match(lifted, max_tap)]
    settle_row = start[3][:, None] + _settle_index(post, avg_before)
    settle = t[settle_row] - t_end[:, None]
    t_before_center = (t_start - CENTER_OFFSET_MS)[:, None]
    t_after_center = (t_end + CENTER_OFFSET_MS)[:, None]
    den2 = avg_after - avg_before
    den3 = avg_after - max_tap
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = np.where(den2 == 0, np.nan, (t_after_center - t_before_center) / den2)
        s3 = np.where(den3 == 0, np.nan, (t_after_center - t_max_in_tap) / den3)
    return np.stack([avg_tap, std_tap, den2, avg_tap - avg_before,
                     max_tap - avg_before, settle.astype(np.float64), s2, s3])


def _window_bounds(t: np.ndarray, t_start: np.ndarray,
                   t_end: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(usable, start, n): the events whose four windows are all nonempty
    and whose 300 ms context lies inside the recording on clock t, and the
    (4, usable events) row starts and lengths of their windows before,
    during, after100 and post."""
    b0 = np.searchsorted(t, t_start - BEFORE_MS, side="left")
    d0 = np.searchsorted(t, t_start, side="left")
    a0 = np.searchsorted(t, t_end, side="right")
    a1 = np.searchsorted(t, t_end + AFTER_MS, side="right")
    p1 = np.searchsorted(t, t_end + POST_MS, side="right")
    # post contains after100, so it is nonempty whenever after100 is
    start = np.stack([b0, d0, a0, a0])
    n = np.stack([d0 - b0, a0 - d0, a1 - a0, p1 - a0])
    usable = ((t_start - BEFORE_MS >= t[0]) & (t_end + POST_MS <= t[-1])
              & (n[:3] > 0).all(axis=0))
    return usable, start[:, usable], n[:, usable]


def _event_chunks(widest: np.ndarray, row_bytes: int) -> list[np.ndarray]:
    """Indices of the events, sorted by their widest window and cut greedily
    into chunks whose events x widest window x row_bytes stay within
    _WINDOW_BYTES, at least one event each. No later event is narrower
    than a chunk's first, so only the next cap // widest[first] can fit."""
    order = np.argsort(widest, kind="stable")
    sorted_widest = widest[order]
    cap = _WINDOW_BYTES // row_bytes
    chunks, first = [], 0
    while first < len(order):
        ahead = sorted_widest[first:first + max(1, cap // int(sorted_widest[first]))]
        # events x widest grows with the events taken, so the fits are a prefix
        fits = np.arange(1, len(ahead) + 1) * ahead <= cap
        last = first + max(1, np.count_nonzero(fits))
        chunks.append(order[first:last])
        first = last
    return chunks


def _session_features(session: Session, mode: str):
    """(rows, t_ms, counts) of one session: its 96-feature rows, their event
    starts, and its (events, skipped events, overlapping tap contexts)."""
    starts, ends = session.taps.t_start_ms, session.taps.t_end_ms
    if mode == "during":
        overlap = int(np.count_nonzero(starts[1:] - ends[:-1] < BETWEEN_GUARD_MS))
    else:
        starts, ends = _between_bounds(starts, ends, BETWEEN_BLOCK_MS)
        overlap = 0

    cells = np.full((len(starts), N_FAMILIES, len(SENSOR_ORDER), len(AXES)), np.nan)
    any_valid = np.zeros(len(starts), dtype=bool)
    # a reading of ±inf or near the float maximum gives inf - inf and
    # overflowing squares; the NaN and inf cells they leave are the features
    with np.errstate(invalid="ignore", over="ignore"):
        for t, members in _clock_groups(session.streams):
            usable, start, lengths = _window_bounds(t, starts, ends)
            any_valid |= usable
            if not usable.any():
                continue
            chans = _channel_block(*(session.streams[SENSOR_ORDER[i]].values
                                     for i in members))
            events = np.flatnonzero(usable)
            for chunk in _event_chunks(lengths.max(axis=0), chans[0].nbytes):
                ids = events[chunk]
                features = _blocks(t, chans, starts[ids], ends[ids],
                                   start[:, chunk], lengths[:, chunk])
                features = features.reshape(N_FAMILIES, len(chunk), len(members),
                                            len(AXES))
                for j, s_idx in enumerate(members):
                    cells[ids, :, s_idx] = features[:, :, j].swapaxes(0, 1)

    rows = cells.reshape(len(starts), len(FEATURE_NAMES))[any_valid]
    return rows, starts[any_valid], (len(starts), len(starts) - len(rows), overlap)


def extract_hmog(*sessions: Session, mode: str = "during") -> FeatureMatrix:
    """One 96-feature row per valid tap (or per between-tap block) of each
    session, in the given order. A tap is skipped only when every sensor
    lacks usable context; a sensor without usable context contributes NaN
    cells. meta holds the mode and, summed over the sessions, n_events,
    n_skipped and n_context_overlap (taps whose 300 ms contexts overlap a
    neighbour)."""
    if mode not in ("during", "between"):
        raise ValueError(f"unknown extraction mode {mode!r}")
    # a zero-row part first, so that no sessions give an empty matrix
    empty = (np.empty((0, len(FEATURE_NAMES))), np.empty(0, dtype=np.int64), (0, 0, 0))
    rows, t_ms, counts = zip(empty, *(_session_features(s, mode) for s in sessions))
    table, (code,) = encode([(s.user_id, s.session_id) for s in sessions])
    fm = FeatureMatrix(FEATURE_NAMES, np.concatenate(rows),
                       np.repeat(code, [len(t) for t in t_ms[1:]]), np.concatenate(t_ms), table)
    fm.meta = {"mode": mode, **dict(zip(("n_events", "n_skipped", "n_context_overlap"),
                                        map(sum, zip(*counts))))}
    return fm
