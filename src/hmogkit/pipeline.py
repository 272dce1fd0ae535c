"""Feature selection, projection, templates, scan aggregation, and
template serialization.

Selection and projection are fitted on pooled training data; templates are
per-user mean/stdev models over the resulting space. Missing cells are
imputed with template means at scoring time.

Test vectors are scored as scan windows: scan_aggregate averages each
session's vectors over fixed windows anchored at the session's zero, and
keys every window by its session code and start, so one key names the same
stretch of recording in every channel extracted from the same sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import FeatureMatrix
from .table import write_json

SIGMA_FLOOR = 1e-6

MIN_TEMPLATE_VECTORS = 80

# keeps the scan windows of different sessions apart: a session's window
# keys start at its code times this stride (2**44 ms is about 557 years)
SESSION_STRIDE_MS = 1 << 44

# equal-frequency bins per feature for mRMR's mutual information
MRMR_BINS = 10

# fisher_scores copies one user's rows at a time, a chunk of features of at
# most this many bytes (at least one feature), and scan_aggregate copies
# windows of one length at most this many bytes at a time (at least one
# window), so neither peak grows with the matrix
_FISHER_BYTES = 1 << 18


class PipelineError(ValueError):
    """Bad pipeline input (too few users/vectors, unusable parameters)."""


class EnrollmentError(PipelineError):
    """Too few training vectors to build a template."""


def nanmean_columns(values: np.ndarray) -> np.ndarray:
    """Column means over finite cells; NaN where a column has none.
    Unlike np.nanmean this stays silent on empty columns. A stack of
    (rows, columns) matrices gives one row of means per matrix."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    counts = finite.sum(axis=-2)
    sums = np.where(finite, values, 0.0).sum(axis=-2)
    return np.divide(sums, counts, out=np.full(sums.shape, np.nan),
                     where=counts > 0)


def fill_missing(x: np.ndarray, fill) -> np.ndarray:
    """x with every non-finite cell replaced by fill (broadcast), as a new
    C-ordered array: reductions over it then add in one order, whatever
    the layout of x."""
    return np.ascontiguousarray(np.where(np.isfinite(x), x, fill))


# ---------------------------------------------------------------------------
# Fisher-score selection
# ---------------------------------------------------------------------------

def fisher_scores(fm: FeatureMatrix) -> np.ndarray:
    """Between-user variance of per-user means over mean within-user
    variance, per feature. Variances are population form; the denominator
    is floored at SIGMA_FLOOR**2. Features with fewer than two users
    contributing two finite values each score 0.

    Each user's rows are reduced as contiguous (features x rows) chunks of
    at most _FISHER_BYTES, one user at a time: a contiguous row adds up in
    the order a 1-D column does, so every moment has the per-column bits."""
    counts = np.unique(fm.user, return_counts=True)[1]
    if len(counts) < 2:
        raise PipelineError("fisher scores need at least two users")
    if counts.min() < 2:
        raise PipelineError("fisher scores need at least two vectors per user")
    order = np.argsort(fm.user, kind="stable")
    ends = np.cumsum(counts)
    d = fm.n_features
    # (features x users) moments; has[j, k]: user k has two finite values in j
    means = np.zeros((d, len(counts)))
    variances = np.zeros((d, len(counts)))
    has = np.zeros((d, len(counts)), dtype=bool)
    for k, (start, end) in enumerate(zip(ends - counts, ends)):
        rows = order[start:end]
        step = max(1, _FISHER_BYTES // (8 * len(rows)))
        for a in range(0, d, step):
            block = np.ascontiguousarray(fm.values[rows, a:a + step].T)
            dense = np.isfinite(block).all(axis=1)
            finite = block if dense.all() else block[dense]
            means[a:a + step, k][dense] = finite.mean(axis=1)
            variances[a:a + step, k][dense] = finite.var(axis=1)
            has[a:a + step, k] = dense
            # a feature with a non-finite cell for this user: its finite cells
            for j in np.flatnonzero(~dense).tolist():
                col = block[j][np.isfinite(block[j])]
                if len(col) >= 2:
                    means[a + j, k] = col.mean()
                    variances[a + j, k] = col.var()
                    has[a + j, k] = True
    scores = np.zeros(d)
    full = has.all(axis=1)
    scores[full] = (means[full].var(axis=1)
                    / np.maximum(variances[full].mean(axis=1), SIGMA_FLOOR ** 2))
    # features to which only some users contribute
    for j in np.flatnonzero(~full & (has.sum(axis=1) >= 2)).tolist():
        between = np.var(means[j, has[j]])
        within = np.mean(variances[j, has[j]])
        scores[j] = between / max(within, SIGMA_FLOOR ** 2)
    return scores


def select_by_fisher(scores: np.ndarray, columns, fraction: float) -> list[str]:
    """Smallest descending-score prefix whose score mass reaches
    fraction * total; ties keep the fixed column order. fraction >= 1
    selects everything."""
    columns = list(columns)
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != len(columns):
        raise PipelineError("scores and columns disagree")
    if np.any(scores < 0):
        raise PipelineError("fisher scores must be nonnegative")
    order = np.argsort(-scores, kind="stable")
    if fraction >= 1.0:
        return [columns[i] for i in order]
    total = float(scores.sum())
    target = fraction * total
    if target <= 0:
        return []
    cum = np.cumsum(scores[order])
    k = int(np.searchsorted(cum, target * (1 - 1e-12), side="left")) + 1
    return [columns[i] for i in order[:k]]


# ---------------------------------------------------------------------------
# mRMR selection (mutual-information difference form)
# ---------------------------------------------------------------------------

def _discretize_column(col: np.ndarray) -> np.ndarray:
    """Equal-frequency bin codes; NaN -> -1."""
    codes = np.full(len(col), -1, dtype=np.int64)
    finite = np.isfinite(col)
    vals = col[finite]
    if len(vals) == 0:
        return codes
    edges = np.unique(np.quantile(vals, np.linspace(0, 1, MRMR_BINS + 1)[1:-1]))
    codes[finite] = np.searchsorted(edges, vals, side="right")
    return codes


def _mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    """I(a; b) in bits over rows where both codes are known (>= 0)."""
    mask = (a >= 0) & (b >= 0)
    if not np.any(mask):
        return 0.0
    a = a[mask]
    b = b[mask]
    n = len(a)
    na = a.max() + 1
    nb = b.max() + 1
    joint = np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb) / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(pa, pb)
    return float(np.sum(joint[nz] * np.log2(joint[nz] / outer[nz])))


def mrmr_select(fm: FeatureMatrix, threshold: float) -> list[str]:
    """Greedy max-relevance min-redundancy selection.

    Candidate score = I(feature; user) - mean I(feature; already selected);
    stops when the best score drops to the threshold or below. Features are
    discretized into equal-frequency bins; user codes are the classes.
    """
    labels = fm.user
    codes = [_discretize_column(fm.values[:, j]) for j in range(fm.n_features)]
    relevance = np.array([_mutual_information(codes[j], labels)
                          for j in range(fm.n_features)])
    selected: list[int] = []
    pairwise: dict[tuple[int, int], float] = {}

    def mutual_information(j: int, s: int) -> float:
        if (j, s) not in pairwise:
            pairwise[j, s] = _mutual_information(codes[j], codes[s])
        return pairwise[j, s]

    candidates = list(range(fm.n_features))
    while candidates:
        best_j, best_score = None, -np.inf
        for j in candidates:
            if selected:
                redundancy = np.mean([mutual_information(j, s) for s in selected])
            else:
                redundancy = 0.0
            score = relevance[j] - redundancy
            if score > best_score:
                best_j, best_score = j, score
        if best_score <= threshold:
            break
        selected.append(best_j)
        candidates.remove(best_j)
    return [fm.columns[j] for j in selected]


# ---------------------------------------------------------------------------
# PCA on standardized features
# ---------------------------------------------------------------------------

@dataclass
class PcaBasis:
    center: np.ndarray       # (d,) feature means
    scale: np.ndarray        # (d,) feature stdevs, floored
    components: np.ndarray   # (k, d) orthonormal rows
    variances: np.ndarray    # (k,) descending eigenvalues

    def transform(self, v: np.ndarray) -> np.ndarray:
        return ((np.asarray(v, dtype=np.float64) - self.center) / self.scale) @ self.components.T


def pca_fit(x: np.ndarray, variance_fraction: float) -> PcaBasis:
    """Top-k eigenvectors of the sample covariance of standardized
    features, k minimal with cumulative variance >= fraction * total."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(x) < 2:
        raise PipelineError("pca needs a (n >= 2, d) matrix")
    if not np.all(np.isfinite(x)):
        raise PipelineError("pca input must be finite (impute first)")
    if not 0 < variance_fraction <= 1.0:
        raise PipelineError(f"variance fraction must be in (0, 1], got {variance_fraction}")
    center = x.mean(axis=0)
    scale = np.maximum(x.std(axis=0), SIGMA_FLOOR)
    xs = (x - center) / scale
    cov = np.cov(xs, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    w = np.maximum(w[order], 0.0)
    v = v[:, order]
    tol = max(len(w), 1) * np.finfo(np.float64).eps * (w[0] if len(w) else 0.0)
    w[w <= tol] = 0.0
    nonzero = int(np.count_nonzero(w))
    total = float(w.sum())
    if total == 0:
        k = 1
    else:
        cum = np.cumsum(w[:nonzero])
        k = int(np.searchsorted(cum, variance_fraction * total * (1 - 1e-12), side="left")) + 1
        k = min(k, nonzero)
    components = v[:, :k].T.copy()
    # deterministic sign: largest-magnitude entry of each component positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1
    return PcaBasis(center=center, scale=scale, components=components, variances=w[:k])


# ---------------------------------------------------------------------------
# fitted preparation (selection + optional PCA) and per-user templates
# ---------------------------------------------------------------------------

@dataclass
class FeaturePrep:
    selected: tuple[str, ...]
    pooled_means: np.ndarray          # per selected feature, for imputation
    pca: PcaBasis | None = None


def fit_feature_prep(fm: FeatureMatrix, *, selector: str | None = None,
                     selector_value: float = 1.0,
                     pca_fraction: float | None = None) -> FeaturePrep:
    """Fit selection and projection on pooled training data."""
    if selector is None:
        selected = list(fm.columns)
    elif selector == "fisher":
        selected = select_by_fisher(fisher_scores(fm), fm.columns, selector_value)
    elif selector == "mrmr":
        selected = mrmr_select(fm, selector_value)
    else:
        raise PipelineError(f"unknown selector {selector!r}")
    if not selected:
        raise PipelineError("selection kept no features")
    sub = fm.select_columns(selected)
    pooled = fill_missing(nanmean_columns(sub.values), 0.0)
    pca = None
    if pca_fraction is not None:
        pca = pca_fit(fill_missing(sub.values, pooled), pca_fraction)
    return FeaturePrep(selected=tuple(selected), pooled_means=pooled, pca=pca)


@dataclass
class Template:
    """Per-user verification template in the prepared feature space."""

    user_id: str
    input_features: tuple[str, ...]
    raw_means: np.ndarray             # imputation values in input space
    mu: np.ndarray                    # mean in prepared space
    sigma: np.ndarray                 # population stdev, floored
    n_train: int
    pca: PcaBasis | None = None

    def project(self, v: np.ndarray) -> np.ndarray:
        """Impute missing input cells with the template mean, then apply
        the projection the template was built in."""
        v = fill_missing(v, self.raw_means)
        # one-row products, so a row gets the same bits alone or in a block:
        # one (rows x d) product lets BLAS split each row's sum differently
        return self.pca.transform(v[..., None, :])[..., 0, :] if self.pca is not None else v


def build_template(user_id: str, fm: FeatureMatrix, prep: FeaturePrep | None = None,
                   *, min_vectors: int = MIN_TEMPLATE_VECTORS) -> Template:
    """Mean/stdev template from one user's training vectors.

    Raises EnrollmentError below min_vectors. Without a prep, features with
    no finite training value are dropped; with PCA the pooled training mean
    fills such gaps so dimensions stay aligned.
    """
    if fm.n_rows < min_vectors:
        raise EnrollmentError(
            f"{user_id}: {fm.n_rows} training vectors < required {min_vectors}")
    sub = fm.select_columns(prep.selected) if prep is not None else fm
    values = sub.values
    columns = list(sub.columns)
    raw_means = nanmean_columns(values)
    pca = prep.pca if prep is not None else None
    if pca is None:
        usable = np.isfinite(raw_means)
        if not np.any(usable):
            raise EnrollmentError(f"{user_id}: no finite training data")
        values = values[:, usable]
        columns = [c for c, u in zip(columns, usable) if u]
        raw_means = raw_means[usable]
    else:
        raw_means = fill_missing(raw_means, prep.pooled_means)
    filled = fill_missing(values, raw_means)
    projected = filled if pca is None else pca.transform(filled)
    mu = projected.mean(axis=0)
    sigma = np.maximum(projected.std(axis=0), SIGMA_FLOOR)
    return Template(user_id=user_id, input_features=tuple(columns),
                    raw_means=raw_means, mu=mu, sigma=sigma,
                    n_train=fm.n_rows, pca=pca)


# ---------------------------------------------------------------------------
# scan aggregation
# ---------------------------------------------------------------------------

def scan_aggregate(fm: FeatureMatrix, scan_s: float) -> FeatureMatrix:
    """Feature-wise mean over consecutive non-overlapping scan windows.

    Windows are scan_s long and start at multiples of scan_s from each
    session's zero, so the same window lines up across channels. A row's
    window key, which is also its output timestamp, is
    session * SESSION_STRIDE_MS + t_ms // span * span, with the row's
    session code. Windows come out in key order; a window whose mean has no
    finite cell is dropped.

    Windows with the same row count are reduced together: nanmean_columns
    takes one (windows, rows, features) gather of at most _FISHER_BYTES (at
    least one window), so no gather copies the whole matrix. NumPy adds each
    window of such a stack in the order it adds the window alone, so every
    mean keeps the bits of a window-by-window reduction. np.add.reduceat
    would not: it adds rows one after another, where NumPy sums a
    contiguous run pairwise, and tap means then differ in the last bit.
    """
    if scan_s <= 0:
        raise PipelineError("scan length must be positive")
    span = int(scan_s * 1000)
    if fm.n_rows == 0:
        return FeatureMatrix.empty(fm.columns)
    # stable, so rows with equal (session, t_ms) keep their input order and
    # each window's mean adds its rows in the same order as the oracle
    order = np.lexsort((fm.t_ms, fm.session))
    key = fm.session[order].astype(np.int64) * SESSION_STRIDE_MS + fm.t_ms[order] // span * span
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    lengths = np.diff(starts, append=len(key))
    means = np.empty((len(starts), fm.n_features))
    row_bytes = 8 * max(1, fm.n_features)
    for length in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == length)
        step = max(1, _FISHER_BYTES // (length * row_bytes))
        for a in range(0, len(group), step):
            windows = group[a:a + step]
            members = order[starts[windows][:, None] + np.arange(length)]
            means[windows] = nanmean_columns(fm.values.take(members, axis=0))
    keep = np.isfinite(means).any(axis=1)
    first = order[starts[keep]]
    return FeatureMatrix(fm.columns, means[keep], fm.session[first], key[starts[keep]],
                         fm.sessions)


# ---------------------------------------------------------------------------
# template serialization
# ---------------------------------------------------------------------------

_TEMPLATE_FORMAT = "hmogkit-templates-1"


def save_templates(path: str, templates: dict[str, Template],
                   params_echo: dict | None = None) -> None:
    write_json(path, {
        "format": _TEMPLATE_FORMAT,
        "params": params_echo or {},
        "templates": {user: {"input_features": t.input_features, "raw_means": t.raw_means,
                             "mu": t.mu, "sigma": t.sigma, "n_train": t.n_train,
                             "pca": None if t.pca is None else vars(t.pca)}
                      for user, t in sorted(templates.items())},
    }, indent=1)
