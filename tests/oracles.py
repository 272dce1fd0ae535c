"""Independent reference implementations used to check the package.

Everything here recomputes results with a different algorithm (plain loops,
explicit enumeration) so agreement with the library is meaningful. The
exceptions are resistance_block, stability_block, t_min_index and t_min:
they run hmog's batched kernels on a single tap or window, so the tests can
check those kernels against hand values.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hmogkit.bkg.code import DecodeFailure
from hmogkit.bkg.commitment import OpenFailure, open_commitment
from hmogkit.bkg.field import inv_mod
from hmogkit.corpus.types import (
    SENSOR_ORDER, Condition, KeyTable, SensorStream, Session, TapTable)
from hmogkit.hmog import (
    AFTER_MS, BEFORE_MS, BETWEEN_BLOCK_MS, BETWEEN_GUARD_MS, CENTER_OFFSET_MS,
    FEATURE_NAMES, POST_MS, _blocks, _gather_tail, _settle_index)
from hmogkit.corpus.synth import (
    _IMPULSE_TAIL_MS, _MIN_TAP_GAP_MS, _SESSION_LEAD_MS, KEY_ALPHABET, _key_hold_offset)
from hmogkit.matrix import FeatureMatrix
from hmogkit.pipeline import SIGMA_FLOOR, PipelineError, nanmean_columns
from hmogkit.touchkeys import (
    HOLD_UNIVERSE, TAP_FEATURE_NAMES, digraph_feature_names)
from hmogkit.verify import ScoreSet, VerifyError, eer, minmax_normalize
from labels import (
    actual_ids, claimed_ids, labelled, scores_of, session_ids, stacked, user_ids)
from tables import tap_rows


def eer_oracle(genuine, impostor) -> float:
    """Equal error rate by explicit threshold walk.

    FAR(th) = share of impostor scores <= th, FRR(th) = share of genuine
    scores > th, both evaluated at every pooled score value plus a virtual
    threshold below everything; the crossing of the two polylines is solved
    segment by segment.
    """
    gen = sorted(float(x) for x in genuine)
    imp = sorted(float(x) for x in impostor)
    points = sorted(set(gen) | set(imp))
    fars = [0.0] + [sum(1 for x in imp if x <= th) / len(imp) for th in points]
    frrs = [1.0] + [sum(1 for x in gen if x > th) / len(gen) for th in points]
    for k in range(len(fars)):
        d = fars[k] - frrs[k]
        if d == 0.0:
            return 0.5 * (fars[k] + frrs[k])
        if d > 0.0:
            f0, f1 = fars[k - 1], fars[k]
            r0, r1 = frrs[k - 1], frrs[k]
            t = (r0 - f0) / ((f1 - f0) - (r1 - r0))
            return f0 + t * (f1 - f0)
    return 0.5 * (fars[-1] + frrs[-1])


def rates_searchsorted_oracle(genuine, impostor):
    """(thresholds, FAR, FRR) at each pooled distinct score, counted by
    ``searchsorted`` on each kind's sorted scores."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    thresholds = np.unique(np.concatenate([genuine, impostor]))
    far = np.searchsorted(np.sort(impostor), thresholds, side="right") / len(impostor)
    frr = 1.0 - np.searchsorted(np.sort(genuine), thresholds, side="right") / len(genuine)
    return thresholds, far, frr


def eer_searchsorted_oracle(genuine, impostor) -> float:
    """Equal error rate of one score set with the arithmetic every EER
    hmogkit reports must reproduce bit for bit: first FAR >= FRR after a
    virtual (FAR 0, FRR 1) point, a plateau's value on an exact tie, and
    otherwise linear interpolation from the point before."""
    _, far, frr = rates_searchsorted_oracle(genuine, impostor)
    far = np.concatenate([[0.0], far])
    frr = np.concatenate([[1.0], frr])
    diff = far - frr
    k = int(np.searchsorted(diff >= 0, True))
    if k >= len(diff):
        return float(0.5 * (far[-1] + frr[-1]))
    if diff[k] == 0.0 or k == 0:
        return float(0.5 * (far[k] + frr[k]))
    d_far = far[k] - far[k - 1]
    d_frr = frr[k] - frr[k - 1]
    t = (frr[k - 1] - far[k - 1]) / (d_far - d_frr)
    return float(far[k - 1] + t * d_far)


def _single(values):
    """A (k,) or (k, channels) post window as a batch of one event,
    gathered by hmog's right-aligned take."""
    values = np.asarray(values, dtype=np.float64).reshape(len(values), -1)
    return _gather_tail(values, np.array([len(values)]), np.array([len(values)]))


def _one_tap(t_start, t_end, before, during, t_during, after100, t_post,
             z_post) -> np.ndarray:
    """The eight feature families of one tap from hmog's fused kernel, the
    four windows laid end to end in one padded channel block; value arrays
    are (k,) or (k, channels), the result (families,) + their channel
    shape."""
    windows = [np.asarray(w, dtype=np.float64) for w in (before, during, after100, z_post)]
    rows = [w.reshape(len(w), -1) for w in windows]
    n = np.array([[len(w)] for w in rows])
    start = np.cumsum(n, axis=0) - n
    chans = np.concatenate(rows + [np.full((1, rows[0].shape[1]), -0.0)])
    t = np.zeros(len(chans) - 1, dtype=np.int64)
    t[start[1, 0]:start[1, 0] + n[1, 0]] = t_during
    t[start[3, 0]:] = t_post
    block = _blocks(t, chans, np.array([t_start]), np.array([t_end]), start, n)
    return block.reshape((len(block),) + windows[0].shape[1:])


def resistance_block(before: np.ndarray, during: np.ndarray,
                     after100: np.ndarray) -> np.ndarray:
    """The five resistance features of one tap from hmog's fused kernel;
    inputs are (k,) or (k, channels) value arrays, after100 doubling as the
    post-tap window."""
    return _one_tap(0, 0, before, during, 0, after100, 0, after100)[:5]


def stability_block(t_start: int, t_end: int, before: np.ndarray,
                    during: np.ndarray, t_during: np.ndarray,
                    after100: np.ndarray, t_post: np.ndarray,
                    z_post: np.ndarray) -> np.ndarray:
    """The three stability features of one tap from hmog's fused kernel;
    value arrays are (k,) or (k, channels)."""
    return _one_tap(t_start, t_end, before, during, t_during, after100,
                    t_post, z_post)[5:]


def t_min_index(z_post: np.ndarray, avg_before) -> np.ndarray:
    """Index whose suffix mean of |z - avg100msBefore| is minimal, from
    hmog's settle-time kernel.

    avgDiffs[i] = mean over j >= i of |z[j] - avg_before|; ties resolve to
    the earliest index.
    """
    avg = np.asarray(avg_before, dtype=np.float64).reshape(1, -1)
    return _settle_index(_single(z_post), avg).reshape(np.shape(z_post)[1:])[()]


def t_min(t_post: np.ndarray, z_post: np.ndarray, avg_before: float) -> int:
    """Timestamp at which the post-tap signal is deemed settled."""
    if len(t_post) == 0:
        raise ValueError("empty post-tap window")
    return int(t_post[t_min_index(z_post, avg_before)])


def t_min_oracle(t_post, z_post, avg_before) -> int:
    """Settle time by brute suffix means: for every start index average the
    absolute deviations from avg_before over the rest of the window; the
    earliest minimizing index wins."""
    n = len(z_post)
    best_i = 0
    best_v = None
    for i in range(n):
        diffs = [abs(float(z_post[j]) - float(avg_before)) for j in range(i, n)]
        v = sum(diffs) / len(diffs)
        if best_v is None or v < best_v:
            best_i, best_v = i, v
    return int(t_post[best_i])


def lee_weight_oracle(vec, p: int) -> int:
    total = 0
    for v in vec:
        r = int(v) % p
        total += min(r, p - r)
    return total


def rank_mod_p_oracle(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over Z_p by Gauss-Jordan elimination."""
    m = matrix.astype(np.int64).copy() % p
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if m[row, col] % p:
                pivot = row
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = (m[rank] * inv_mod(int(m[rank, col]), p)) % p
        for row in range(rows):
            if row != rank and m[row, col]:
                m[row] = (m[row] - m[row, col] * m[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


_codebooks: dict[tuple[int, tuple[int, ...], bytes], np.ndarray] = {}


def codebook_oracle(generator: np.ndarray, p: int) -> np.ndarray:
    """Every codeword by explicit message enumeration, as a read-only
    (p^l, n) array in the order of itertools.product over the messages;
    cached per generator."""
    generator = np.asarray(generator, dtype=np.int64)
    key = (p, generator.shape, generator.tobytes())
    if key not in _codebooks:
        l, n = generator.shape
        words = []
        for msg in itertools.product(range(p), repeat=l):
            words.append([sum(msg[i] * int(generator[i, j]) for i in range(l)) % p
                          for j in range(n)])
        book = np.array(words, dtype=np.int64).reshape(p ** l, n)
        book.flags.writeable = False
        _codebooks[key] = book
    return _codebooks[key]


def decode_brute_oracle(word, params) -> np.ndarray:
    """Nearest codeword within the correction radius by a scan of the full
    codebook; DecodeFailure when none lies within it."""
    word = np.asarray(word, dtype=np.int64) % params.p
    book = codebook_oracle(params.generator, params.p)
    diff = (word - book) % params.p
    dist = np.minimum(diff, params.p - diff).sum(axis=1)
    best = int(np.argmin(dist))
    if int(dist[best]) > params.radius:
        raise DecodeFailure(f"no codeword within Lee radius {params.radius}")
    return book[best].copy()


def min_lee_distance_oracle(codebook: np.ndarray, p: int) -> int:
    """Minimum pairwise Lee distance over the full codebook."""
    arr = np.asarray(codebook, dtype=np.int64)
    m = len(arr)
    best = None
    for i in range(m):
        diff = (arr[i + 1:] - arr[i]) % p
        w = np.minimum(diff, p - diff).sum(axis=1)
        if len(w):
            lo = int(w.min())
            if best is None or lo < best:
                best = lo
    return best


def lee_patterns(n: int, p: int, w_max: int):
    """All nonzero vectors in Z_p^n with Lee weight <= w_max."""
    values = [(v, min(v, p - v)) for v in range(1, p)]

    def rec(pos: int, rem: int):
        if pos == n:
            yield ()
            return
        for tail in rec(pos + 1, rem):
            yield (0,) + tail
        for v, w in values:
            if w <= rem:
                for tail in rec(pos + 1, rem - w):
                    yield (v,) + tail

    for vec in rec(0, w_max):
        if any(vec):
            yield vec


def ds_oracle(x: float, lo: float, hi: float, d_range: int) -> int:
    """Scalar discretization: clip below to 0, above to d_range, otherwise
    floor of the proportional position scaled by d_range."""
    if x < lo:
        return 0
    if x > hi:
        return d_range
    return math.floor(d_range * (x - lo) / (hi - lo))


def assign_d_range_oracle(sigma: float, s_min: float, s_max: float, p: int) -> int:
    """Per-feature range: scale the deviation onto [0, (p-1)/2], round half
    up, and subtract from p - 1 so steadier features get finer grids."""
    if s_max == s_min:
        return p - 1
    scaled = (p - 1) / 2 * (sigma - s_min) / (s_max - s_min)
    return (p - 1) - math.floor(scaled + 0.5)


def open_table_oracle(commitments, probes, users, params) -> np.ndarray:
    """opened[w, k] by opening every (probe window, user) pair, with the
    user id as the password."""
    opened = np.zeros((len(probes), len(users)), dtype=bool)
    for w, grid in enumerate(probes):
        for k, user in enumerate(users):
            try:
                open_commitment(commitments[k], grid, user, params=params)
                opened[w, k] = True
            except OpenFailure:
                pass
    return opened


# ---------------------------------------------------------------------------
# HMOG extraction, one tap and one sensor at a time
# ---------------------------------------------------------------------------

def guessing_distance_oracle(opens: dict[str, dict[str, bool]]) -> tuple[dict, tuple]:
    """(distances, not guessed) from opens[j][i], one user at a time: each
    target's attempts sorted by foreign opens (most first), then user id."""
    users = sorted(opens)
    foreign = {j: sum(opens[j][i] for i in users if i != j) for j in users}
    distances, missed = {}, []
    for target in users:
        order = sorted((j for j in users if j != target), key=lambda j: (-foreign[j], j))
        hit = next((k for k, j in enumerate(order, start=1) if opens[j][target]), None)
        if hit is None:
            missed.append(target)
        else:
            distances[target] = math.log2(hit)
    return distances, tuple(missed)


def _hmog_resistance_oracle(before, during, after100):
    avg_before = before.mean(axis=0)
    avg_after = after100.mean(axis=0)
    avg_tap = during.mean(axis=0)
    return np.stack([avg_tap, during.std(axis=0), avg_after - avg_before,
                     avg_tap - avg_before, during.max(axis=0) - avg_before])


def _hmog_stability_oracle(t_start, t_end, before, during, t_during, after100,
                           t_post, z_post):
    avg_before = before.mean(axis=0)
    avg_after = after100.mean(axis=0)
    max_tap = during.max(axis=0)
    t_max_in_tap = t_during[np.argmax(during, axis=0)]
    diffs = np.abs(z_post - avg_before)
    suffix = np.cumsum(diffs[::-1], axis=0)[::-1]
    counts = np.arange(len(diffs), 0, -1, dtype=np.float64)[:, None]
    settle = t_post[np.argmin(suffix / counts, axis=0)] - t_end
    den2 = avg_after - avg_before
    den3 = avg_after - max_tap
    span = (t_end + CENTER_OFFSET_MS) - (t_start - CENTER_OFFSET_MS)
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = np.where(den2 == 0, np.nan, span / den2)
        s3 = np.where(den3 == 0, np.nan,
                      (t_end + CENTER_OFFSET_MS - t_max_in_tap) / den3)
    return np.stack([np.asarray(settle, dtype=np.float64), s2, s3])


def slice_span(t_ms: np.ndarray, lo: int, hi: int,
               include_lo: bool, include_hi: bool) -> slice:
    """Index slice of a sorted timestamp array covering [lo, hi] with
    configurable endpoint inclusion."""
    i0 = int(np.searchsorted(t_ms, lo, side="left" if include_lo else "right"))
    i1 = int(np.searchsorted(t_ms, hi, side="right" if include_hi else "left"))
    return slice(i0, max(i0, i1))


def channel_matrix(values: np.ndarray) -> np.ndarray:
    """(n, 4) matrix with columns x, y, z and the magnitude by NumPy's sum
    of squares."""
    return np.column_stack([values, np.sqrt(np.sum(values ** 2, axis=1))])


def _hmog_event_oracle(t, chans, t_start, t_end):
    """(resistance, stability) blocks of one sensor for one event, or None
    when a window is empty or the context leaves the recording."""
    if len(t) == 0 or t_start - BEFORE_MS < t[0] or t_end + POST_MS > t[-1]:
        return None
    sl_before = slice_span(t, t_start - BEFORE_MS, t_start, True, False)
    sl_during = slice_span(t, t_start, t_end, True, True)
    sl_after1 = slice_span(t, t_end, t_end + AFTER_MS, False, True)
    sl_after2 = slice_span(t, t_end, t_end + POST_MS, False, True)
    if min(sl.stop - sl.start
           for sl in (sl_before, sl_during, sl_after1, sl_after2)) == 0:
        return None
    before, during, after1 = chans[sl_before], chans[sl_during], chans[sl_after1]
    return (_hmog_resistance_oracle(before, during, after1),
            _hmog_stability_oracle(t_start, t_end, before, during, t[sl_during],
                                   after1, t[sl_after2], chans[sl_after2]))


def extract_hmog_oracle(session, mode: str = "during"):
    """extract_hmog by a Python loop over events and sensors, slicing each
    window out of the stream separately."""
    taps = [(t_start, t_end) for _, t_start, t_end, *_ in tap_rows(session.taps)]
    if mode == "during":
        events = taps
    else:
        events = []
        for (_, prev_end), (nxt_start, _) in zip(taps, taps[1:]):
            lo = prev_end + BETWEEN_GUARD_MS
            hi = nxt_start - BETWEEN_GUARD_MS
            for k in range(max(0, (hi - lo) // BETWEEN_BLOCK_MS)):
                events.append((lo + k * BETWEEN_BLOCK_MS,
                               lo + (k + 1) * BETWEEN_BLOCK_MS))
    streams = {sensor: (stream.t_ms, channel_matrix(stream.values))
               for sensor, stream in session.streams.items() if len(stream) > 0}
    rows, ts, skipped = [], [], 0
    for t_start, t_end in events:
        row = np.full(len(FEATURE_NAMES), np.nan)
        any_valid = False
        for s_idx, sensor in enumerate(SENSOR_ORDER):
            if sensor not in streams:
                continue
            blocks = _hmog_event_oracle(*streams[sensor], t_start, t_end)
            if blocks is None:
                continue
            any_valid = True
            for f_idx, block in enumerate(np.concatenate(blocks)):
                base = f_idx * 12 + s_idx * 4
                row[base:base + 4] = block
        if any_valid:
            rows.append(row)
            ts.append(t_start)
        else:
            skipped += 1
    overlap = sum(1 for (_, prev_end), (nxt_start, _) in zip(taps, taps[1:])
                  if nxt_start - prev_end < BETWEEN_GUARD_MS) \
        if mode == "during" else 0
    n = len(rows)
    fm = labelled(
        FEATURE_NAMES,
        np.array(rows) if rows else np.empty((0, len(FEATURE_NAMES))),
        [session.user_id] * n, [session.session_id] * n,
        np.array(ts, dtype=np.int64), [(session.user_id, session.session_id)])
    fm.meta = {"mode": mode, "n_events": len(events), "n_skipped": skipped,
               "n_context_overlap": overlap}
    return fm


def tap_features_oracle(session) -> FeatureMatrix:
    """tap_features by a Python loop over taps, one NumPy call per
    statistic per tap."""
    rows, ts = [], []
    prev_xy = None
    prev_t = None
    for _, t_start, t_end, _, xy, size in tap_rows(session.taps):
        q1, q2, q3 = np.percentile(size, [25, 50, 75])
        if prev_xy is None:
            velocity = np.nan
        else:
            dt_s = (t_start - prev_t) / 1000.0
            velocity = float(np.hypot(*(xy[0] - prev_xy)) / dt_s)
        rows.append([
            float(t_end - t_start),
            float(size.mean()), float(np.median(size)), float(size.std()),
            float(q1), float(q2), float(q3),
            float(size[0]), float(size.min()), float(size.max()),
            velocity,
        ])
        ts.append(t_start)
        prev_xy = xy[0]
        prev_t = t_start
    n = len(rows)
    return labelled(
        TAP_FEATURE_NAMES,
        np.array(rows) if rows else np.empty((0, len(TAP_FEATURE_NAMES))),
        [session.user_id] * n, [session.session_id] * n,
        np.array(ts, dtype=np.int64), [(session.user_id, session.session_id)])


def _sparse_matrix(session, columns: tuple[str, ...],
                   entries: list[tuple[int, int, float]]) -> FeatureMatrix:
    n = len(entries)
    values = np.full((n, len(columns)), np.nan)
    ts = np.empty(n, dtype=np.int64)
    for i, (t, col, value) in enumerate(entries):
        values[i, col] = value
        ts[i] = t
    return labelled(columns, values, [session.user_id] * n, [session.session_id] * n, ts,
                    [(session.user_id, session.session_id)])


def keystroke_features_oracle(session, hold_universe=HOLD_UNIVERSE):
    """(hold matrix, digraph matrix) built dense: one row per event, one
    finite cell per row, every other column NaN."""
    hold_cols = tuple(f"hold_{key}" for key in hold_universe)
    hold_index = {key: i for i, key in enumerate(hold_universe)}
    keys = list(zip(session.keys.key.tolist(), session.keys.t_press_ms.tolist(),
                    session.keys.t_release_ms.tolist()))
    holds = [(press, hold_index[key], float(release - press))
             for key, press, release in keys if key in hold_index]

    dig_cols = digraph_feature_names()
    dig_index = {key: i for i, key in enumerate(KEY_ALPHABET)}
    k = len(KEY_ALPHABET)
    digraphs = []
    for (first, press, _), (second, next_press, _) in zip(keys, keys[1:]):
        if first not in dig_index or second not in dig_index:
            continue
        col = dig_index[first] * k + dig_index[second]
        digraphs.append((press, col, float(next_press - press)))

    return (_sparse_matrix(session, hold_cols, holds),
            _sparse_matrix(session, dig_cols, digraphs))


def digraph_events(fm: FeatureMatrix) -> FeatureMatrix:
    """Long-form events of a dense matrix whose columns are digraph names:
    one (digraph index, value) row per finite cell, in row-major order."""
    names = digraph_feature_names()
    rows, cols = np.nonzero(np.isfinite(fm.values))
    values = [[names.index(fm.columns[j]), fm.values[i, j]] for i, j in zip(rows, cols)]
    return labelled(("column", "value"), np.array(values).reshape(len(rows), 2),
                    user_ids(fm)[rows], session_ids(fm)[rows], fm.t_ms[rows])


def dense_digraphs(events: FeatureMatrix) -> FeatureMatrix:
    """The dense 1,225-column matrix of long-form digraph events, one row
    per event, filled by a loop."""
    values = np.full((events.n_rows, len(digraph_feature_names())), np.nan)
    for i, (col, value) in enumerate(events.values):
        values[i, int(col)] = value
    return labelled(digraph_feature_names(), values, user_ids(events),
                    session_ids(events), events.t_ms)


def latency_outlier_filter_oracle(fm: FeatureMatrix, l_ms: float, m_min: int) -> FeatureMatrix:
    """Drop latencies above l_ms, then drop features seen fewer than m_min
    times, in that order, on one dense matrix. Rows left without finite
    cells are removed."""
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
    return labelled(columns, values, user_ids(fm)[keep_rows],
                    session_ids(fm)[keep_rows], fm.t_ms[keep_rows])


def filter_digraphs_oracle(train: FeatureMatrix, test: FeatureMatrix, l_ms: float,
                           m_min: int) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Filter dense train and test digraph matrices separately; the column
    set is decided on training data only and then imposed on the test side
    (left whole when training keeps no column)."""
    ftrain = latency_outlier_filter_oracle(train, l_ms, m_min)
    ftest = latency_outlier_filter_oracle(test, l_ms, 0)
    if ftrain.n_features == 0:
        return ftrain, ftest
    ftest = ftest.select_columns(ftrain.columns)
    return ftrain, ftest


def fuse_scoresets_oracle(channels, weights):
    """fuse_scoresets by a per-decision loop: every record is re-keyed
    through a dict and fused with Python sums, channel by channel in the
    order of ``channels``."""
    normalized = {name: minmax_normalize(s)[0] for name, s in channels.items()}
    keyed: dict[tuple[str, str, int], dict[str, float]] = {}
    for name, scores in normalized.items():
        for key, score in zip(zip(claimed_ids(scores), actual_ids(scores),
                                  scores.t_ms.tolist()), scores.score.tolist()):
            keyed.setdefault(key, {})[name] = score
    rows = []
    for key, per_channel in sorted(keyed.items()):
        wsum = sum(weights.get(c, 0.0) for c in per_channel)
        if wsum <= 0:
            continue
        rows.append((*key, sum(weights.get(c, 0.0) / wsum * s for c, s in per_channel.items())))
    return scores_of(*zip(*rows)) if rows else ScoreSet()


def gen_scores_oracle(templates, auth: FeatureMatrix, metric: str = "sm") -> ScoreSet:
    """gen_scores by a per-vector loop: each decision imputes one vector,
    projects it with one vector-matrix product and reduces it alone."""
    def project(template, v):
        v = np.where(np.isfinite(v), v, template.raw_means)
        pca = template.pca
        return v if pca is None else ((v - pca.center) / pca.scale) @ pca.components.T

    def sm_score(template, v):
        w = project(template, v)
        return float(np.sum(np.abs(w - template.mu) / template.sigma))

    def se_score(template, v):
        w = project(template, v)
        return float(np.sqrt(np.sum(((w - template.mu) / template.sigma) ** 2)))

    score_fn = {"sm": sm_score, "se": se_score}[metric]
    claimed, rows, scores = [], [], []
    for user, template in sorted(templates.items()):
        block = auth.values[:, [auth.col_index(name) for name in template.input_features]]
        for i, v in enumerate(block):
            if np.any(np.isfinite(v)):
                claimed.append(user)
                rows.append(i)
                scores.append(score_fn(template, v))
    rows = np.array(rows, dtype=np.intp)
    return scores_of(claimed, user_ids(auth)[rows], auth.t_ms[rows], scores)


def weight_grid(channel_names, step: float = 0.05):
    """Every weight dict on the step lattice that sums to 1.0: all tuples of
    tick counts, in lexicographic order, kept when they sum to 1 / step."""
    ticks = round(1.0 / step) if step > 0 else 0
    if ticks < 1 or abs(ticks * step - 1.0) > 1e-9:
        raise VerifyError(f"fusion step must divide 1.0, got {step!r}")
    names = list(channel_names)
    for combo in itertools.product(range(ticks + 1), repeat=len(names)):
        if sum(combo) == ticks:
            yield {name: k / ticks for name, k in zip(names, combo)}


def search_fusion_weights_oracle(channels, step: float = 0.05):
    """search_fusion_weights by fusing every grid point from the records."""
    best = None
    for weights in weight_grid(sorted(channels), step):
        fused = fuse_scoresets_oracle(channels, weights)
        if not len(fused.genuine) or not len(fused.impostor):
            continue
        value = eer(fused.genuine, fused.impostor)
        if best is None or value < best[2]:
            best = (weights, fused, value)
    if best is None:
        raise VerifyError("no weighting produced a scored decision set")
    return best


# ---------------------------------------------------------------------------
# fisher scores, one feature and one user at a time
# ---------------------------------------------------------------------------

def fisher_scores_oracle(fm: FeatureMatrix) -> np.ndarray:
    """fisher_scores by a loop over features and, in each, over users: the
    finite cells of one user's column as a 1-D array, two at least."""
    names = user_ids(fm)
    users = sorted(set(names.tolist()))
    if len(users) < 2:
        raise PipelineError("fisher scores need at least two users")
    per_user = [fm.values[names == u] for u in users]
    if any(len(block) < 2 for block in per_user):
        raise PipelineError("fisher scores need at least two vectors per user")
    d = fm.n_features
    scores = np.zeros(d)
    for j in range(d):
        means, variances = [], []
        for block in per_user:
            col = block[:, j]
            col = col[np.isfinite(col)]
            if len(col) < 2:
                continue
            means.append(col.mean())
            variances.append(col.var())
        if len(means) < 2:
            continue
        between = np.var(means)
        within = np.mean(variances)
        scores[j] = between / max(within, SIGMA_FLOOR ** 2)
    return scores


# ---------------------------------------------------------------------------
# scan windows, one session and one window at a time
# ---------------------------------------------------------------------------

_SESSION_STRIDE_MS = 1 << 44


def _scan_aggregate_one_session(fm: FeatureMatrix, t_seconds: float,
                                anchor_ms: int | None = None) -> FeatureMatrix:
    if t_seconds <= 0:
        raise PipelineError("scan length must be positive")
    if fm.n_rows == 0:
        return FeatureMatrix.empty(fm.columns)
    order = np.argsort(fm.t_ms, kind="stable")
    fm = fm.take(order)
    anchor = int(fm.t_ms[0]) if anchor_ms is None else int(anchor_ms)
    if fm.t_ms[0] < anchor:
        raise PipelineError("anchor is later than the first vector")
    span = int(t_seconds * 1000)
    idx = (fm.t_ms - anchor) // span
    rows, users, sessions, ts = [], [], [], []
    for w in np.unique(idx):
        block = fm.values[idx == w]
        agg = nanmean_columns(block)
        if not np.any(np.isfinite(agg)):
            continue
        rows.append(agg)
        where = np.flatnonzero(idx == w)[0]
        users.append(user_ids(fm)[where])
        sessions.append(session_ids(fm)[where])
        ts.append(anchor + int(w) * span)
    if not rows:
        return FeatureMatrix.empty(fm.columns)
    return labelled(fm.columns, np.array(rows), users, sessions, np.array(ts, dtype=np.int64))


def scan_aggregate_oracle(fm: FeatureMatrix, scan_s: float,
                          ordinals: dict[tuple[str, str], int]) -> FeatureMatrix:
    """scan_aggregate by a loop over sessions in key order, each aggregated
    window by window with windows anchored at 0, then shifted apart by the
    session ordinal."""
    parts = []
    for (user, session), ordinal in sorted(ordinals.items()):
        mask = (user_ids(fm) == user) & (session_ids(fm) == session)
        if not mask.any():
            continue
        agg = _scan_aggregate_one_session(fm.take(mask), scan_s, anchor_ms=0)
        if agg.n_rows == 0:
            continue
        parts.append(labelled(agg.columns, agg.values, user_ids(agg), session_ids(agg),
                              agg.t_ms + ordinal * _SESSION_STRIDE_MS))
    if not parts:
        return FeatureMatrix.empty(fm.columns)
    return stacked(parts)


def _tap_times_oracle(profile, duration_ms: int, rng):
    if profile.tap_rate_hz == 0:
        return []
    mean_cycle = 1000.0 / profile.tap_rate_hz
    taps = []
    t = _SESSION_LEAD_MS + int(rng.uniform(0, mean_cycle))
    while True:
        dur = int(np.clip(rng.normal(profile.tap_duration_mean_ms, profile.tap_duration_sd_ms),
                          30, 340))
        if t + dur + 300 >= duration_ms:
            break
        taps.append((t, t + dur))
        cycle = max(dur + _MIN_TAP_GAP_MS, rng.normal(mean_cycle, 0.25 * mean_cycle))
        t = t + int(cycle)
    return taps


def _make_taps_oracle(profile, times, rng) -> TapTable:
    starts, ends = np.array(times, dtype=np.int64).reshape(-1, 2).T
    step = profile.touch_sample_step_ms
    counts = (ends - starts) // step + 1
    offsets = np.concatenate([[0], np.cumsum(counts)])
    t = np.repeat(starts - step * offsets[:-1], counts) + step * np.arange(offsets[-1])
    xy, size = np.empty((offsets[-1], 2)), np.empty(offsets[-1])
    cx, cy = profile.tap_center_px
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        x0 = cx + rng.normal(0, profile.tap_spread_px)
        y0 = cy + rng.normal(0, profile.tap_spread_px)
        xy[lo:hi, 0] = x0 + np.cumsum(rng.normal(0, 0.7, hi - lo))
        xy[lo:hi, 1] = y0 + np.cumsum(rng.normal(0, 0.7, hi - lo))
        size[lo:hi] = np.clip(rng.normal(profile.contact_size_mean, profile.contact_size_sd,
                                         hi - lo), 0.01, 2.0)
    return TapTable(tap_id=np.arange(len(starts)), t_start_ms=starts, t_end_ms=ends,
                    offsets=offsets, t_samples=t, xy_px=xy, contact_size=size)


def _make_keys_oracle(profile, duration_ms: int, rng) -> KeyTable:
    if profile.key_rate_hz == 0:
        return KeyTable()
    weights = np.exp(0.9 * np.sin(profile.key_style + 2.3 * np.arange(len(KEY_ALPHABET))))
    weights /= weights.sum()
    mean_gap = 1000.0 / profile.key_rate_hz
    keys, press, release = [], [], []
    t = 200 + int(rng.uniform(0, mean_gap))
    while t < duration_ms - 500:
        idx = int(rng.choice(len(KEY_ALPHABET), p=weights))
        hold = np.clip(rng.normal(profile.key_hold_mean_ms + _key_hold_offset(profile, idx),
                                  profile.key_hold_sd_ms), 20, 400)
        keys.append(KEY_ALPHABET[idx])
        press.append(t)
        release.append(t + int(hold))
        t += max(120, int(rng.normal(mean_gap, 0.3 * mean_gap)))
    return KeyTable(key=keys, t_press_ms=press, t_release_ms=release)


def _make_streams_oracle(profile, duration_ms: int, taps, rng) -> dict:
    step = 1000.0 / profile.sample_rate_hz
    n = int(duration_ms / step)
    t = np.floor(np.arange(n) * step).astype(np.int64)
    streams = {}
    for s_idx, sensor in enumerate(SENSOR_ORDER):
        values = profile.base_offset[s_idx] + rng.normal(0, profile.noise_sd[s_idx], (n, 3))
        if profile.condition is Condition.WALKING:
            phase = rng.uniform(0, 2 * np.pi, 3)
            wave = np.sin(2 * np.pi * profile.gait_freq_hz * (t[:, None] / 1000.0) + phase)
            values = values + profile.gait_amp[s_idx] * wave
        for t_start, _ in taps:
            i0 = int(np.searchsorted(t, t_start, side="left"))
            i1 = int(np.searchsorted(t, t_start + _IMPULSE_TAIL_MS, side="right"))
            if i0 >= i1:
                continue
            dt = (t[i0:i1] - t_start) / profile.impulse_decay_ms
            jitter = 1.0 + rng.normal(0, 0.08)
            values[i0:i1] += jitter * np.exp(-dt)[:, None] * profile.impulse_amp[s_idx]
        streams[sensor] = SensorStream(sensor=sensor, nominal_rate_hz=profile.sample_rate_hz,
                                       t_ms=t, values=values)
    return streams


def synthesize_user_oracle(profile, seed) -> list[Session]:
    """synthesize_user with one scalar draw or small vector draw per tap,
    per key and per tap impulse, in the order the corpus bytes depend on."""
    profile.validate()
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    sessions = []
    for s_idx, child in enumerate(ss.spawn(profile.sessions)):
        rng = np.random.default_rng(child)
        duration_ms = int(profile.session_seconds * 1000)
        times = _tap_times_oracle(profile, duration_ms, rng)
        taps = _make_taps_oracle(profile, times, rng)
        keys = _make_keys_oracle(profile, duration_ms, rng)
        streams = _make_streams_oracle(profile, duration_ms, times, rng)
        sessions.append(Session(
            user_id=profile.user_id,
            session_id=f"s{s_idx + 1:02d}",
            condition=profile.condition,
            streams=streams,
            taps=taps,
            keys=keys,
        ).validate())
    return sessions
