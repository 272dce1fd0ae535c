"""Distance scoring, score-level fusion, and error-rate curves.

Scores are distances: small means similar. FAR(th) is the fraction of
impostor distances <= th; FRR(th) is the fraction of genuine distances
above th. The EER is read off the piecewise-linear FAR/FRR polyline over
the pooled score values.

A ScoreSet is columnar: four parallel arrays (claimed, actual, t_ms,
score), one row per decision; a decision is genuine when claimed ==
actual. Every stage after scoring works on these arrays.

Fusion min-max normalizes each channel once and aligns the decisions
(claimed, actual, t_ms) once, in sorted order, into a (decisions x
channels) score matrix with a presence mask. A weight vector is then fused
over every decision with array operations, one channel column at a time in
the order of the ``channels`` dict: the weight sum first, then the sum of
(weight / weight sum) * score. That is the order in which a per-decision
loop adds the terms, so the fused scores are bit-equal to it; a matrix
product ``S @ w / (M @ w)`` would round differently and let BLAS reorder
the sum. An absent channel adds +0.0, which changes no sum: a sum that
starts from +0.0, as Python's ``sum`` does, is never -0.0. The weight grid
search aligns once and fuses each grid point with the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .matrix import FeatureMatrix
from .table import read_rows, write_table


class VerifyError(ValueError):
    pass


def sm_score(template, v: np.ndarray) -> float:
    """Scaled Manhattan distance in the template's prepared space."""
    w = template.project(v)
    return float(np.sum(np.abs(w - template.mu) / template.sigma))


def se_score(template, v: np.ndarray) -> float:
    """Scaled Euclidean distance in the template's prepared space."""
    w = template.project(v)
    return float(np.sqrt(np.sum(((w - template.mu) / template.sigma) ** 2)))


_METRICS = {"sm": sm_score, "se": se_score}


_CSV_HEADER = ["kind", "claimed", "actual", "t_ms", "score"]


@dataclass(eq=False)
class ScoreSet:
    """Scored decisions; ``genuine`` and ``impostor`` are each kind's scores."""

    claimed: np.ndarray = ()   # (n,) object
    actual: np.ndarray = ()    # (n,) object
    t_ms: np.ndarray = ()      # (n,) int64
    score: np.ndarray = ()     # (n,) float64

    def __post_init__(self) -> None:
        self.claimed = np.asarray(self.claimed, dtype=object)
        self.actual = np.asarray(self.actual, dtype=object)
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
        write_table(path, _CSV_HEADER, chain.from_iterable(
            zip(repeat(kind), self.claimed[rows].tolist(), self.actual[rows].tolist(),
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
            for column, value in zip(columns, row):
                column.append(value)
        return cls(*columns)


def gen_scores(templates: dict, auth: FeatureMatrix, metric: str = "sm") -> ScoreSet:
    """Score every authentication vector against every enrolled template.

    A vector is skipped for a template when it shares no finite cell with
    the template's input features (no evidence, no decision).
    """
    if metric not in _METRICS:
        raise VerifyError(f"unknown metric {metric!r}")
    score_fn = _METRICS[metric]
    claimed, rows, scores = [], [], []
    col_cache: dict[tuple[str, ...], np.ndarray] = {}
    for user, template in sorted(templates.items()):
        feats = template.input_features
        if feats not in col_cache:
            col_cache[feats] = np.array([auth.col_index(name) for name in feats])
        block = auth.values[:, col_cache[feats]]
        hits = np.flatnonzero(np.any(np.isfinite(block), axis=1))
        claimed += [user] * len(hits)
        rows += hits.tolist()
        scores += [score_fn(template, block[i]) for i in hits]
    rows = np.array(rows, dtype=np.intp)
    return ScoreSet(claimed, auth.user_ids[rows].astype(str), auth.t_ms[rows], scores)


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
    return ScoreSet(scores.claimed, scores.actual, scores.t_ms, normalized), (lo, hi)


def _align(channels: dict[str, ScoreSet]):
    """Normalize each channel once and align the decisions of all channels.

    Returns (keys, S, M, genuine): the claimed, actual and t_ms arrays of the
    decisions in sorted (claimed, actual, t_ms) order; their normalized
    scores, one column per channel in the order of ``channels``, 0.0 where a
    channel has no score; the presence mask of S; and the genuine mask. A
    channel that scores one decision twice keeps the later score.
    """
    normalized = [minmax_normalize(scores)[0] for scores in channels.values()]
    claimed, actual, t_ms = (np.concatenate([getattr(s, name) for s in normalized])
                             for name in ("claimed", "actual", "t_ms"))
    # users coded by rank in string order sort as the (claimed, actual, t_ms) tuples
    names, codes = np.unique(np.concatenate([claimed, actual]), return_inverse=True)
    (c, a, t), row = np.unique(np.stack([codes[:len(claimed)], codes[len(claimed):], t_ms]),
                               axis=1, return_inverse=True)
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
    return (names[c], names[a], t), S, M, c == a


def _fuse_aligned(S: np.ndarray, M: np.ndarray, weights: list[float]):
    """Fuse one weight per column over every aligned decision.

    Returns (fused, keep): the fused scores, and the mask of decisions
    whose present channels carry weight > 0. Fused scores outside ``keep``
    are meaningless.
    """
    wsum = np.zeros(len(S))
    for j, w in enumerate(weights):
        wsum = wsum + np.where(M[:, j], w, 0.0)
    fused = np.zeros(len(S))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, w in enumerate(weights):
            fused = fused + np.where(M[:, j], (w / wsum) * S[:, j], 0.0)
    return fused, ~(wsum <= 0)


def fuse_scoresets(channels: dict[str, ScoreSet],
                   weights: dict[str, float]) -> ScoreSet:
    """Fuse per-channel score sets after min-max normalization.

    Decisions are aligned on (claimed, actual, t_ms); channels missing a
    decision are dropped from it and the remaining weights renormalized.
    Decisions whose present channels carry zero weight are excluded.
    """
    (claimed, actual, t_ms), S, M, _ = _align(channels)
    fused, keep = _fuse_aligned(S, M, [float(weights.get(c, 0.0)) for c in channels])
    return ScoreSet(claimed[keep], actual[keep], t_ms[keep], fused[keep])


def grid_ticks(step: float) -> int:
    """Lattice points per unit weight; the step must be positive and divide 1.0."""
    ticks = round(1.0 / step) if step > 0 and math.isfinite(1.0 / step) else 0
    if not abs(ticks * step - 1.0) <= 1e-9:
        raise VerifyError(f"fusion step must be positive and divide 1.0, got {step!r}")
    return ticks


def weight_grid(channel_names, step: float = 0.05):
    """All nonnegative weight dicts over the channels summing to 1.0 on a
    fixed lattice, in deterministic order."""
    names = list(channel_names)
    ticks = grid_ticks(step)

    def parts(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for head in range(remaining + 1):
            for tail in parts(remaining - head, slots - 1):
                yield (head,) + tail

    for combo in parts(ticks, len(names)):
        yield {name: k / ticks for name, k in zip(names, combo)}


def search_fusion_weights(channels: dict[str, ScoreSet], step: float = 0.05):
    """Grid-search fusion weights minimizing fused EER.

    Returns (weights, fused ScoreSet, eer). Ties keep the first grid point.
    """
    _, S, M, genuine = _align(channels)
    impostor = ~genuine
    best = None
    for weights in weight_grid(sorted(channels), step):
        fused, keep = _fuse_aligned(S, M, [weights[c] for c in channels])
        gen, imp = fused[keep & genuine], fused[keep & impostor]
        if len(gen) == 0 or len(imp) == 0:
            continue
        value = eer(gen, imp)
        if best is None or value < best[1]:
            best = (weights, value)
    if best is None:
        raise VerifyError("no weighting produced a scored decision set")
    weights, value = best
    return weights, fuse_scoresets(channels, weights), value


# ---------------------------------------------------------------------------
# error rates
# ---------------------------------------------------------------------------

def _rates(genuine: np.ndarray, impostor: np.ndarray):
    """FAR and FRR evaluated at each pooled distinct score."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    if len(genuine) == 0 or len(impostor) == 0:
        raise VerifyError("eer needs nonempty genuine and impostor scores")
    thresholds = np.unique(np.concatenate([genuine, impostor]))
    g = np.sort(genuine)
    i = np.sort(impostor)
    far = np.searchsorted(i, thresholds, side="right") / len(i)
    frr = 1.0 - np.searchsorted(g, thresholds, side="right") / len(g)
    return thresholds, far, frr


def det_curve(genuine: np.ndarray, impostor: np.ndarray) -> np.ndarray:
    """(threshold, FAR, FRR) rows; FAR nondecreasing, FRR nonincreasing."""
    thresholds, far, frr = _rates(genuine, impostor)
    return np.column_stack([thresholds, far, frr])


def write_det_csv(path: str, det: np.ndarray, header_comments=()) -> None:
    write_table(path, ("threshold", "far", "frr"), det.tolist(), header_comments)


def eer(genuine: np.ndarray, impostor: np.ndarray) -> float:
    """Equal error rate of distance scores.

    FAR - FRR is nondecreasing along the threshold sweep; the EER is the
    common value where the interpolated polylines cross. A crossing on an
    exact FAR == FRR plateau reports that plateau value.
    """
    _, far, frr = _rates(genuine, impostor)
    # virtual left endpoint: threshold below every score
    far = np.concatenate([[0.0], far])
    frr = np.concatenate([[1.0], frr])
    diff = far - frr
    k = int(np.searchsorted(diff >= 0, True))  # first index with FAR >= FRR
    if k >= len(diff):
        return float(0.5 * (far[-1] + frr[-1]))
    if diff[k] == 0.0:
        return float(0.5 * (far[k] + frr[k]))
    if k == 0:
        return float(0.5 * (far[0] + frr[0]))
    d_far = far[k] - far[k - 1]
    d_frr = frr[k] - frr[k - 1]
    t = (frr[k - 1] - far[k - 1]) / (d_far - d_frr)
    return float(far[k - 1] + t * d_far)
