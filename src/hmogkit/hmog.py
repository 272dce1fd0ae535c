"""Hand-movement features around tap events.

Per (sensor, channel, tap) five resistance and three stability features are
computed from four windows relative to the tap interval [t_start, t_end]:

  before    [t_start - 100 ms, t_start)
  during    [t_start, t_end]
  after100  (t_end, t_end + 100 ms]
  after200  (t_end, t_end + 200 ms]

Channels are the three axes plus the magnitude; sensors are accelerometer,
gyroscope, magnetometer. 5 * 3 * 4 + 3 * 3 * 4 = 96 features per tap.

Extraction is batched per (session, sensor clock); Python loops over
clocks, width groups and event chunks only:

- clocks: sensors whose t_ms arrays are equal share one clock, and every
  step below runs once per clock. Synthetic streams, downsampled ones
  included, put acc, gyr and mag on one clock; a recorded sensor on a
  clock of its own gets a pass of its own;
- block: for each of the clock's k sensors in turn, the x, y, z columns
  and the magnitude sqrt(x*x + y*y + z*z) go into one (n + 1, 4k) block
  whose last row is -0.0, the sentinel row;
- bounds: each window edge of every event is found by one searchsorted
  over the arrays of event starts and ends;
- gather: usable events are sorted by their widest window and split into
  groups whose widest windows lie within a factor of two, so one long
  press does not widen the arrays of short taps. Each group is taken in
  chunks of events that keep every padded window array within 256 KiB:
  larger temporaries are served by fresh mmaps that page-fault on every
  call, which cost more than the shared pass saves. Per chunk each
  of the four windows is one take of (width, events) row indices from
  the block, width the longest window of its kind in the chunk. Before,
  during and after100 start on row 0, every row past an event's window
  pointing at the sentinel row, so padding at most doubles the rows an
  event needs. The post window ends on the last row, the rows before it
  reading the stream rows there (clipped at row 0). Timestamps are not
  gathered: the argmax and argmin rows index the stream's t directly;
- reduce: each window mean, the masked tap maximum with its argmax and each
  inside mask are computed once per chunk, and all 8 families x 4k
  channels come from array operations along the width axis; the result
  is scattered into each member sensor's cells.

The results are bit-identical to slicing each window out on its own and
calling NumPy's mean/std/max on it. The magnitude adds the squares left to
right, as NumPy's sum over a row of three does. Sums run along the outer
axis, which NumPy adds row by row in the same order as a (k, 4) window's
mean(axis=0), and the -0.0 padding adds exactly nothing (x + -0.0 == x for
every x, both zeros included); std is the mean of squared deviations from
that mean, as NumPy computes it; max and argmax see -inf in the padding,
so NaN and ties pick the same first index. The settle time reverses the
right-aligned post window, so its cumsum starts on the window's last row
and adds the window's own rows in the same order as a cumsum over the
reversed window alone; the rows before the window come later and touch no
window suffix. Each suffix count W - i of the float array W, W-1, ..., 1
equals the window's own count, so every suffix mean keeps its bits. The
rows before the window read +inf in the argmin, so NaN and ties pick the
same first row, and a window of +inf means only falls back on its first
row.
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

# Bytes of one padded window array, at most: events are taken in chunks
# that keep it about this size. Larger temporaries are served by fresh
# mmaps that page-fault on every call, which made 12-column blocks slower
# than the 4-column ones they replace, and they raise the peak memory.
_WINDOW_BYTES = 1 << 18

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

    values is (width, events, channels); inside is the (width, events, 1)
    mask of the rows inside each event's window, whose length is n. A
    window gathered by _gather starts on row 0 and the rows after it hold
    -0.0; one gathered by _gather_tail ends on the last row and the rows
    before it hold whatever the stream has there.
    """

    values: np.ndarray
    inside: np.ndarray
    n: np.ndarray

    def mean(self) -> np.ndarray:
        return self.values.sum(axis=0) / self.n[:, None]

    def std(self, mean: np.ndarray) -> np.ndarray:
        """Population form, from the window mean as numpy.std computes it."""
        dev = np.where(self.inside, self.values - mean, -0.0)
        return np.sqrt((dev * dev).sum(axis=0) / self.n[:, None])


def _settle_index(post: _Windows, avg_before: np.ndarray) -> np.ndarray:
    """(events, channels) row of the right-aligned post windows whose suffix
    mean of |z - avg_before| is minimal, the earliest on ties.

    The suffix sums are a cumsum over the reversed width axis, which starts
    on each window's last row; the rows before a window come after it there
    and are masked to +inf, and an all +inf window falls back on its
    first row.
    """
    width = len(post.values)
    diffs = np.abs(post.values - avg_before)
    suffix = np.cumsum(diffs[::-1], axis=0)[::-1]
    counts = np.arange(width, 0, -1, dtype=np.float64)[:, None, None]
    index = np.argmin(np.where(post.inside, suffix / counts, np.inf), axis=0)
    return np.maximum(index, (width - post.n)[:, None])


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
    block = np.empty((n + 1, len(CHANNELS) * len(values)))
    for j, sensor_values in enumerate(values):
        cols = block[:n, len(CHANNELS) * j:len(CHANNELS) * (j + 1)]
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
    return _Windows(chans.take(rows, axis=0), inside[..., None], n)


def _gather_tail(chans: np.ndarray, stop: np.ndarray, n: np.ndarray) -> _Windows:
    """Windows chans[stop[e] - n[e]:stop[e]] of every event e, each ending
    on the last row; the first width - n[e] rows take the stream rows
    before the window, row indices below 0 clipped to 0."""
    offsets = np.arange(n.max())
    inside = offsets[:, None] >= len(offsets) - n
    rows = np.maximum(stop + (offsets - len(offsets))[:, None], 0)
    return _Windows(chans.take(rows, axis=0), inside[..., None], n)


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
    before, during, after100 = (_gather(chans, s, k) for s, k in zip(start[:3], n[:3]))
    stop = start[3] + n[3]
    post = _gather_tail(chans, stop, n[3])
    avg_before = before.mean()
    avg_tap = during.mean()
    avg_after = after100.mean()
    lifted = np.where(during.inside, during.values, -np.inf)
    max_tap = lifted.max(axis=0)
    t_max_in_tap = t[start[1][:, None] + lifted.argmax(axis=0)]
    settle_row = (stop - len(post.values))[:, None] + _settle_index(post, avg_before)
    settle = t[settle_row] - t_end[:, None]
    t_before_center = (t_start - CENTER_OFFSET_MS)[:, None]
    t_after_center = (t_end + CENTER_OFFSET_MS)[:, None]
    den2 = avg_after - avg_before
    den3 = avg_after - max_tap
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = np.where(den2 == 0, np.nan, (t_after_center - t_before_center) / den2)
        s3 = np.where(den3 == 0, np.nan, (t_after_center - t_max_in_tap) / den3)
    return np.stack([avg_tap, during.std(avg_tap), den2, avg_tap - avg_before,
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


def _chunk_blocks(t: np.ndarray, chans: np.ndarray, t_start: np.ndarray,
                  t_end: np.ndarray, start: np.ndarray, n: np.ndarray):
    """Yield (chunk, features) per width group and event chunk: chunk
    indexes the events, features is their (8 families, events, channels)
    array from _blocks."""
    widest = n.max(axis=0)
    for group in _width_groups(widest):
        step = max(1, _WINDOW_BYTES // (int(widest[group].max()) * chans[0].nbytes))
        for first in range(0, len(group), step):
            chunk = group[first:first + step]
            yield chunk, _blocks(t, chans, t_start[chunk], t_end[chunk],
                                 start[:, chunk], n[:, chunk])


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
    for t, members in _clock_groups(session.streams):
        usable, start, lengths = _window_bounds(t, starts, ends)
        any_valid |= usable
        if not usable.any():
            continue
        chans = _channel_block(*(session.streams[SENSOR_ORDER[i]].values for i in members))
        events = np.flatnonzero(usable)
        for chunk, features in _chunk_blocks(t, chans, starts[events], ends[events],
                                             start, lengths):
            features = features.reshape(N_FAMILIES, len(chunk), len(members), len(CHANNELS))
            for j, s_idx in enumerate(members):
                cells[events[chunk], :, s_idx] = features[:, :, j].swapaxes(0, 1)

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
