"""Distance scoring, score-level fusion, and error-rate curves.

Scores are distances: small means similar. FAR(th) is the fraction of
impostor distances <= th; FRR(th) is the fraction of genuine distances
above th. The EER is read off the piecewise-linear FAR/FRR polyline over
the pooled score values.

A ScoreSet is columnar: four parallel arrays (claimed, actual, t_ms,
score), one row per decision, with claimed and actual int32 codes into its
sorted user names; a decision is genuine when claimed == actual. Every
stage after scoring works on these arrays.

Scoring takes one block of probe rows per template; each row's score is
bit-equal to scoring its vector alone (see ``Template.project``).

Fusion min-max normalizes each channel once and aligns the decisions
(claimed, actual, t_ms) once, in sorted order, into a (decisions x
channels) score matrix with a presence mask. The weight grid search then
scores the weight lattice in blocks of grid points, a fixed number of
(point, decision) cells at a time, so memory stays bounded at any step.
A block's weights form a (points x channels) array, and the block is
fused into a (points x decisions) array with array operations, one channel
column at a time in the order of the ``channels`` dict: the weight sum
first, then the sum of (weight / weight sum) * score. Every cell sees the
same additions in the same order as a per-decision loop, or as fusing its
point alone (``fuse_scoresets`` fuses a one-row block), so the fused scores
are bit-equal to it; a matrix product ``S @ w / (M @ w)`` would round
differently and let BLAS reorder the sum. An absent channel's term is
skipped, which is what adding +0.0 does to a sum that starts at +0.0 and
so is never -0.0.

Each row of the fused block is then scored with one row-wise EER: the row
is sorted once, its kept decisions (present channels carrying weight) are
taken in score order, and the genuine and impostor decisions up to each
distinct score are counted. FAR and FRR are those counts divided as a
``searchsorted`` count over each kind's sorted scores would be, and the
crossing is found and interpolated with the same float operations as a
one-set EER, so each row's EER is bit-equal to ``eer`` on that point's
kept decisions; ``eer`` is the one-row case of the same kernel. The search
keeps the first grid point with the smallest EER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, combinations, islice, repeat

import numpy as np

from .matrix import FeatureMatrix, encode
from .table import read_rows, write_table


class VerifyError(ValueError):
    pass


# scaled Manhattan (sm) and Euclidean (se) distance of each row of z = (w - mu) / sigma
_METRICS = {"sm": lambda z: np.abs(z).sum(axis=1), "se": lambda z: np.sqrt((z ** 2).sum(axis=1))}


_CSV_HEADER = ["kind", "claimed", "actual", "t_ms", "score"]


@dataclass(eq=False)
class ScoreSet:
    """Scored decisions; ``genuine`` and ``impostor`` are each kind's scores."""

    claimed: np.ndarray = ()   # (n,) int32 code in users
    actual: np.ndarray = ()    # (n,) int32 code in users
    t_ms: np.ndarray = ()      # (n,) int64
    score: np.ndarray = ()     # (n,) float64
    users: tuple[str, ...] = ()  # sorted distinct user names

    def __post_init__(self) -> None:
        self.claimed = np.asarray(self.claimed, dtype=np.int32)
        self.actual = np.asarray(self.actual, dtype=np.int32)
        self.t_ms = np.asarray(self.t_ms, dtype=np.int64)
        self.score = np.asarray(self.score, dtype=np.float64)
        if not len(self.claimed) == len(self.actual) == len(self.t_ms) == len(self.score):
            raise VerifyError("score columns differ in length")

    @property
    def genuine(self) -> np.ndarray:
        return self.score[self.claimed == self.actual]

    @property
    def impostor(self) -> np.ndarray:
        return self.score[self.claimed != self.actual]

    def write_csv(self, path: str, header_comments=()) -> None:
        genuine = self.claimed == self.actual
        names = np.array(self.users, dtype=object)
        write_table(path, _CSV_HEADER, chain.from_iterable(
            zip(repeat(kind), names[self.claimed[rows]].tolist(), names[self.actual[rows]].tolist(),
                self.t_ms[rows].tolist(), self.score[rows].tolist())
            for kind, rows in (("genuine", genuine), ("impostor", ~genuine))),
            header_comments)

    @classmethod
    def read_csv(cls, path: str) -> "ScoreSet":
        rows = read_rows(path)
        if next(rows, (0, None))[1] != _CSV_HEADER:
            raise VerifyError(f"{path}: unexpected header")
        columns = ([], [], [], [])
        for n, fields in rows:
            if len(fields) != 5:
                raise VerifyError(f"{path}:{n}: expected 5 fields, got {len(fields)}")
            kind, claimed, actual, t, score = fields
            if kind not in ("genuine", "impostor"):
                raise VerifyError(f"{path}:{n}: unknown kind {kind!r}")
            if (kind == "genuine") != (claimed == actual):
                raise VerifyError(f"{path}:{n}: kind {kind} does not match "
                                  f"claimed {claimed!r} and actual {actual!r}")
            try:
                row = (claimed, actual, np.int64(int(t)), float(score))
            except (ValueError, OverflowError):
                raise VerifyError(f"{path}:{n}: t_ms must be an integer and score "
                                  f"a number, got {t!r} and {score!r}") from None
            if not math.isfinite(row[3]):
                raise VerifyError(f"{path}:{n}: score must be finite, got {score!r}")
            for column, value in zip(columns, row):
                column.append(value)
        users, (claimed, actual) = encode(columns[0], columns[1])
        return cls(claimed, actual, columns[2], columns[3], users)


def gen_scores(templates: dict, auth: FeatureMatrix, metric: str = "sm") -> ScoreSet:
    """Score every authentication vector against every enrolled template.

    A vector is skipped for a template when it shares no finite cell with
    the template's input features (no evidence, no decision). A template
    feature missing from ``auth`` raises KeyError with its name.
    """
    if metric not in _METRICS:
        raise VerifyError(f"unknown metric {metric!r}")
    reduce = _METRICS[metric]
    index = {name: j for j, name in enumerate(auth.columns)}
    users, (claimants, actual) = encode(sorted(templates), auth.user_names)
    # each list starts with an empty block, so no templates give an empty ScoreSet
    claimed, rows, scores = [np.empty(0, np.int32)], [np.empty(0, np.intp)], [np.empty(0)]
    for code, (_, template) in zip(claimants, sorted(templates.items())):
        block = auth.values[:, [index[name] for name in template.input_features]]
        hits = np.flatnonzero(np.isfinite(block).any(axis=1))
        claimed.append(np.full(len(hits), code, dtype=np.int32))
        rows.append(hits)
        scores.append(reduce((template.project(block[hits]) - template.mu) / template.sigma))
    rows = np.concatenate(rows)
    return ScoreSet(np.concatenate(claimed), actual[auth.user[rows]], auth.t_ms[rows],
                    np.concatenate(scores), users)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def minmax_normalize(scores: ScoreSet) -> tuple[ScoreSet, tuple[float, float]]:
    """Map the pooled scores onto [0, 1]; a degenerate pool maps to 0."""
    if len(scores.score) == 0:
        raise VerifyError("empty score set")
    lo, hi = float(scores.score.min()), float(scores.score.max())
    span = hi - lo
    normalized = (scores.score - lo) / span if span > 0 else np.zeros(len(scores.score))
    return replace(scores, score=normalized), (lo, hi)


def _align(channels: dict[str, ScoreSet]):
    """Normalize each channel once and align the decisions of all channels.

    Returns (keys, S, M, genuine): the claimed, actual and t_ms arrays of the
    decisions in sorted (claimed, actual, t_ms) order, and the users their
    codes index; their normalized scores, one column per channel in the
    order of ``channels``, 0.0 where a channel has no score; the presence
    mask of S; and the genuine mask. A channel that scores one decision twice
    keeps the later score.
    """
    normalized = [minmax_normalize(scores)[0] for scores in channels.values()]
    users, codes = encode(*(s.users for s in normalized))
    # codes are ranks in string order, so they sort as the names do
    keys = np.concatenate([np.stack([code[s.claimed], code[s.actual], s.t_ms])
                           for code, s in zip(codes, normalized)], axis=1)
    (c, a, t), row = np.unique(keys, axis=1, return_inverse=True)
    row = row.reshape(-1)
    # column-major, so that each channel's column is contiguous
    S = np.zeros((len(t), len(normalized)), order="F")
    M = np.zeros(S.shape, dtype=bool, order="F")
    bounds = np.cumsum([len(scores.score) for scores in normalized])[:-1]
    for j, (scores, rows) in enumerate(zip(normalized, np.split(row, bounds))):
        # NumPy does not promise which of repeated fancy indices is written last
        last = len(rows) - 1 - np.unique(rows[::-1], return_index=True)[1]
        S[rows[last], j] = scores.score[last]
        M[rows[last], j] = True
    return (c, a, t, users), S, M, c == a


def _fuse_aligned(S: np.ndarray, M: np.ndarray, W: np.ndarray):
    """Fuse each row of weights W (points x channels) over every aligned decision.

    Returns (fused, keep), both (points x decisions): the fused scores, and
    the mask of decisions whose present channels carry weight > 0. Fused
    scores outside ``keep`` are meaningless.
    """
    wsum = np.zeros((len(W), len(S)))
    for j in range(S.shape[1]):
        np.add(wsum, W[:, j, None], out=wsum, where=M[:, j])
    fused = np.zeros(wsum.shape)
    term = np.empty(wsum.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(S.shape[1]):
            np.divide(W[:, j, None], wsum, out=term)
            term *= S[:, j]
            np.add(fused, term, out=fused, where=M[:, j])
    return fused, ~(wsum <= 0)


def fuse_scoresets(channels: dict[str, ScoreSet],
                   weights: dict[str, float], *, aligned=None) -> ScoreSet:
    """Fuse per-channel score sets after min-max normalization.

    Decisions are aligned on (claimed, actual, t_ms); channels missing a
    decision are dropped from it and the remaining weights renormalized.
    Decisions whose present channels carry zero weight are excluded.
    ``aligned`` is ``_align(channels)`` when the caller already holds it.
    """
    (claimed, actual, t_ms, users), S, M, _ = _align(channels) if aligned is None else aligned
    W = np.array([[float(weights.get(c, 0.0)) for c in channels]])
    fused, keep = (a[0] for a in _fuse_aligned(S, M, W))
    return ScoreSet(claimed[keep], actual[keep], t_ms[keep], fused[keep], users)


def grid_ticks(step: float) -> int:
    """Lattice points per unit weight; the step must be positive and divide 1.0."""
    ticks = round(1.0 / step) if step > 0 and math.isfinite(1.0 / step) else 0
    if not abs(ticks * step - 1.0) <= 1e-9:
        raise VerifyError(f"fusion step must be positive and divide 1.0, got {step!r}")
    return ticks


# cells (grid points x decisions) fused and scored at once; bounds the
# search's memory at any grid step
_BLOCK_CELLS = 1 << 15


def _lattice_blocks(ticks: int, k: int, size: int):
    """The k-part compositions of ``ticks`` in lexicographic order, as
    (points x k) integer arrays of at most ``size`` rows.

    A composition is a choice of k - 1 bar positions among ticks + k - 1
    slots (stars and bars); the combinations come in lexicographic order,
    and so do the part counts read off them.
    """
    bars = combinations(range(ticks + k - 1), k - 1)
    while True:
        chunk = list(islice(bars, size))
        if not chunk:
            return
        edges = np.array(chunk, dtype=np.intp).reshape(len(chunk), k - 1)
        edges = np.pad(edges, ((0, 0), (1, 1)), constant_values=(-1, ticks + k - 1))
        yield np.diff(edges, axis=1) - 1


def search_fusion_weights(channels: dict[str, ScoreSet], step: float = 0.05):
    """Grid-search fusion weights minimizing fused EER.

    The grid holds every split of 1.0 into ``1 / step`` equal ticks over the
    channels in sorted name order. Returns (weights, fused ScoreSet, eer).
    Ties keep the grid point whose tick counts come first in lexicographic
    order.
    """
    aligned = _align(channels)
    _, S, M, genuine = aligned
    names = sorted(channels)
    ticks = grid_ticks(step)
    columns = [names.index(c) for c in channels]
    best = None
    for block in _lattice_blocks(ticks, len(names), max(1, _BLOCK_CELLS // len(S))):
        fused, keep = _fuse_aligned(S, M, block[:, columns] / ticks)
        values = _eer_rows(fused, genuine, keep)
        scored = np.flatnonzero(~np.isnan(values))
        if len(scored) == 0:
            continue
        i = scored[np.argmin(values[scored])]   # the first minimum
        if best is None or values[i] < best[1]:
            best = (block[i].tolist(), float(values[i]))
    if best is None:
        raise VerifyError("no weighting produced a scored decision set")
    combo, value = best
    weights = {name: k / ticks for name, k in zip(names, combo)}
    return weights, fuse_scoresets(channels, weights, aligned=aligned), value


# ---------------------------------------------------------------------------
# error rates
# ---------------------------------------------------------------------------

def _one_row(genuine: np.ndarray, impostor: np.ndarray):
    """(scores, genuine mask, keep) of the pooled scores as a one-row block."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    if len(genuine) == 0 or len(impostor) == 0:
        raise VerifyError("eer needs nonempty genuine and impostor scores")
    scores = np.concatenate([genuine, impostor])
    if not np.all(np.isfinite(scores)):
        raise VerifyError("eer needs finite scores")
    is_genuine = np.arange(len(scores)) < len(genuine)
    return scores[None], is_genuine, np.ones((1, len(scores)), dtype=bool)


def _rate_points(scores: np.ndarray, genuine: np.ndarray, keep: np.ndarray):
    """FAR and FRR of each row of a block at each of its distinct kept scores.

    ``scores`` and ``keep`` are (rows x decisions), ``genuine`` is the
    (decisions,) genuine mask. Each row is sorted by score once and its kept
    decisions taken in that order, which is a sort on (excluded, score) cut
    to the kept decisions: an excluded decision is dropped by its mask and
    never read as a score. The genuine and impostor decisions up to each
    distinct score are counted, and FAR and FRR divide the counts as
    ``searchsorted`` counts would be divided. Returns flat arrays (row,
    threshold, far, frr), rows ascending and thresholds ascending within a
    row; a row without both genuine and impostor decisions has no points.
    """
    order = np.argsort(scores, axis=1)
    kept = np.take_along_axis(keep, order, axis=1)
    value = np.take_along_axis(scores, order, axis=1)[kept]
    cell = order[kept]
    n_kept = keep.sum(axis=1)
    row = np.repeat(np.arange(len(scores)), n_kept)
    first = np.cumsum(n_kept) - n_kept          # flat index of each row's first kept decision
    n_genuine_before = np.concatenate([[0], np.cumsum(genuine[cell])])
    n_genuine = n_genuine_before[first + n_kept] - n_genuine_before[first]
    n_impostor = n_kept - n_genuine
    # the last decision of each run of equal scores in a row, in rows with both kinds
    end = np.ones(len(value), dtype=bool)
    end[:-1] = (value[1:] != value[:-1]) | (row[1:] != row[:-1])
    end &= ((n_genuine > 0) & (n_impostor > 0))[row]
    idx = np.flatnonzero(end)
    row = row[idx]
    start = first[row]
    below = idx + 1 - start                     # kept decisions scoring <= the threshold
    gen_below = n_genuine_before[idx + 1] - n_genuine_before[start]
    far = (below - gen_below) / n_impostor[row]
    frr = 1.0 - gen_below / n_genuine[row]
    return row, value[idx], far, frr


def _eer_rows(scores: np.ndarray, genuine: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """EER of each row of a block over its kept decisions (see ``_rate_points``).

    A row without both genuine and impostor decisions reads nan. FAR - FRR
    is nondecreasing along a row's thresholds and reads 1 at the last one,
    where FAR is 1 and FRR 0, so every scored row crosses exactly once; the
    virtual threshold below every score (FAR 0, FRR 1) precedes its first.
    """
    row, _, far, frr = _rate_points(scores, genuine, keep)
    diff = far - frr
    row_start = np.ones(len(row), dtype=bool)
    row_start[1:] = row[1:] != row[:-1]
    crossed = diff >= 0
    k = np.flatnonzero(crossed & (row_start | ~np.roll(crossed, 1)))
    far0 = np.where(row_start[k], 0.0, far[k - 1])
    frr0 = np.where(row_start[k], 1.0, frr[k - 1])
    d_far = far[k] - far0
    d_frr = frr[k] - frr0
    t = (frr0 - far0) / (d_far - d_frr)
    values = np.full(len(scores), np.nan)
    # a crossing on an exact FAR == FRR plateau reports that plateau value
    values[row[k]] = np.where(diff[k] == 0.0, 0.5 * (far[k] + frr[k]), far0 + t * d_far)
    return values


def det_curve(genuine: np.ndarray, impostor: np.ndarray) -> np.ndarray:
    """(threshold, FAR, FRR) rows; FAR nondecreasing, FRR nonincreasing."""
    _, thresholds, far, frr = _rate_points(*_one_row(genuine, impostor))
    return np.column_stack([thresholds, far, frr])


def write_det_csv(path: str, det: np.ndarray, header_comments=()) -> None:
    write_table(path, ("threshold", "far", "frr"), det.tolist(), header_comments)


def eer(genuine: np.ndarray, impostor: np.ndarray) -> float:
    """Equal error rate of distance scores.

    FAR - FRR is nondecreasing along the threshold sweep; the EER is the
    common value where the interpolated polylines cross. A crossing on an
    exact FAR == FRR plateau reports that plateau value. The scores must be
    finite.
    """
    return float(_eer_rows(*_one_row(genuine, impostor))[0])
