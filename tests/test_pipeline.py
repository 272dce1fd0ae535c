"""Selection, PCA, templates, scan aggregation, template serialization."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmogkit import pipeline
from hmogkit.corpus.synth import make_corpus, make_profiles
from hmogkit.experiments import (
    CHANNELS, ExperimentConfig, extract_channels, training_sessions)
from hmogkit.matrix import FeatureMatrix
from hmogkit.pipeline import (
    MIN_TEMPLATE_VECTORS,
    SESSION_STRIDE_MS,
    SIGMA_FLOOR,
    EnrollmentError,
    PipelineError,
    Template,
    build_template,
    fisher_scores,
    fit_feature_prep,
    mrmr_select,
    nanmean_columns,
    pca_fit,
    save_templates,
    scan_aggregate,
    select_by_fisher,
)
from hmogkit.touchkeys import digraph_feature_names, widen
from labels import labelled, session_ids, user_ids
from oracles import fisher_scores_oracle, scan_aggregate_oracle


def fm_of(values, users, sessions=None, t=None, columns=None):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if columns is None:
        columns = tuple(f"f{j}" for j in range(values.shape[1]))
    sessions = sessions if sessions is not None else ["s01"] * n
    t = t if t is not None else np.arange(n) * 1000
    return labelled(columns, values, users, sessions, np.asarray(t, dtype=np.int64))


# ---------------------------------------------------------------- nan means

def test_nanmean_columns_silent_on_empty():
    values = np.array([[1.0, np.nan], [3.0, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nanmean_columns(values)
    assert out[0] == 2.0
    assert np.isnan(out[1])


def test_nanmean_columns_mixed():
    out = nanmean_columns(np.array([[1.0, 5.0], [np.nan, 7.0], [3.0, np.nan]]))
    assert_allclose(out, [2.0, 6.0])


# ---------------------------------------------------------------- fisher

def fisher_fixture():
    return fm_of([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0], [6.0, 1.0]],
                 ["A", "A", "B", "B"])


def test_fisher_scores_hand_case():
    scores = fisher_scores(fisher_fixture())
    # per-user means 1 and 5, both variances 1 -> between 4 / within 1
    assert_allclose(scores[0], 4.0)
    assert scores[1] == 0.0  # constant feature


def test_fisher_scores_affine_invariance():
    rng = np.random.default_rng(2)
    values = rng.normal(0, 1, (20, 3))
    users = ["A"] * 10 + ["B"] * 10
    base = fisher_scores(fm_of(values, users))
    moved = fisher_scores(fm_of(values * 3.7 - 11.0, users))
    assert_allclose(moved, base, rtol=1e-9)


def test_fisher_scores_sparse_feature_zero():
    # user A contributes a single finite value: fewer than two users remain
    values = np.array([[1.0], [np.nan], [4.0], [6.0]])
    assert fisher_scores(fm_of(values, ["A", "A", "B", "B"]))[0] == 0.0


def test_fisher_scores_input_errors():
    with pytest.raises(PipelineError, match="two users"):
        fisher_scores(fm_of([[1.0], [2.0]], ["A", "A"]))
    with pytest.raises(PipelineError, match="two vectors"):
        fisher_scores(fm_of([[1.0], [2.0], [3.0]], ["A", "A", "B"]))


def assert_fisher_matches_oracle(fm):
    got = fisher_scores(fm)
    assert got.tobytes() == fisher_scores_oracle(fm).tobytes()
    return got


# the benchmark's workloads: users drawn with seed 7, recordings with seed 0
WORKLOADS = {
    "auth": dict(n_users=3),
    "sweep": dict(n_users=2),
    "keygen": dict(n_users=12, session_seconds=60.0, bkg_scan_seconds=2.0),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fisher_scores_bit_equal_to_oracle_workloads(workload):
    config = ExperimentConfig(seed=0, **WORKLOADS[workload])
    profiles = make_profiles(config.n_users, config.condition, 7, sessions=config.sessions,
                             session_seconds=config.session_seconds)
    train = training_sessions(make_corpus(profiles, config.seed))
    fm = extract_channels(train, ("hmog",), config)["hmog"]
    assert fm.n_rows > 1000 and fm.n_features == 96
    assert np.all(assert_fisher_matches_oracle(fm) > 0)


def test_fisher_scores_bit_equal_to_oracle_special_columns():
    rng = np.random.default_rng(24)
    users = np.repeat(["u3", "u1", "u4", "u2"], 40)
    values = rng.normal(0.0, 1.0, (160, 8)) + rng.normal(0.0, 3.0, 4).repeat(40)[:, None]
    # NaN and +-inf cells spread over column 0
    values[rng.choice(160, 30, replace=False), 0] = np.nan
    values[rng.choice(160, 5, replace=False), 0] = np.inf
    values[rng.choice(160, 5, replace=False), 0] = -np.inf
    # one user with a single finite value: three users contribute
    values[users == "u1", 1] = np.nan
    values[np.flatnonzero(users == "u1")[7], 1] = 2.5
    # one user with exactly two finite values, the fewest that contribute
    values[np.flatnonzero(users == "u3")[2:], 6] = np.nan
    values[np.flatnonzero(users == "u3")[0], 6] = 40.0
    # one user contributes: score 0
    values[users != "u2", 2] = np.nan
    # constant everywhere: 0 / floor
    values[:, 3] = 4.0
    # constant per user: between variance over the floored within variance
    values[:, 4] = (users == "u4") * 1.5
    # no finite cell at all
    values[:, 5] = np.nan
    # rows shuffled, so each user's rows are scattered
    order = rng.permutation(160)
    scores = assert_fisher_matches_oracle(fm_of(values[order], users[order]))
    assert np.isfinite(scores[0]) and scores[0] > 0
    assert scores[1] > 0
    assert scores[2] == scores[3] == scores[5] == 0.0
    assert scores[4] == np.var([0.0, 0.0, 1.5, 0.0]) / SIGMA_FLOOR ** 2


def test_fisher_scores_bit_equal_to_oracle_chunks():
    rng = np.random.default_rng(5)
    # 2,000 rows a user: a chunk holds 16 of the 40 features
    users = rng.choice(["a", "b", "c"], 6000)
    values = rng.normal(0.0, 1.0, (6000, 40)) * rng.uniform(0.5, 2.0, 40)
    values[rng.choice(6000, 50), rng.choice(40, 50)] = np.nan
    assert 8 * np.bincount(np.unique(users, return_inverse=True)[1]).min() * 40 \
        > 2 * pipeline._FISHER_BYTES
    assert_fisher_matches_oracle(fm_of(values, users))
    # one feature of one user is wider than the cap: one feature a chunk
    users = np.repeat(["a", "b"], 40000)
    values = rng.normal(0.0, 1.0, (80000, 3)) + (users == "b")[:, None]
    values[::1000, 1] = np.nan
    assert 8 * 40000 > pipeline._FISHER_BYTES
    assert_fisher_matches_oracle(fm_of(values, users))


def test_fisher_scores_peak_memory_within_matrix_bytes():
    rng = np.random.default_rng(8)
    fm = fm_of(rng.normal(0.0, 1.0, (2000, 96)), np.repeat(["a", "b", "c", "d"], 500))
    fisher_scores(fm)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fisher_scores(fm)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= fm.values.nbytes


def test_select_by_fisher_prefix():
    scores = np.array([4.0, 1.0, 3.0, 2.0])
    cols = ["f0", "f1", "f2", "f3"]
    assert select_by_fisher(scores, cols, 1.0) == ["f0", "f2", "f3", "f1"]
    assert select_by_fisher(scores, cols, 0.5) == ["f0", "f2"]
    # mass 4/10 reached exactly by the first feature
    assert select_by_fisher(scores, cols, 0.4) == ["f0"]


def test_select_by_fisher_ties_stable():
    assert select_by_fisher(np.ones(3), ["a", "b", "c"], 0.3) == ["a"]
    assert select_by_fisher(np.ones(3), ["a", "b", "c"], 0.6) == ["a", "b"]


def test_select_by_fisher_prefix_nesting():
    rng = np.random.default_rng(9)
    scores = rng.uniform(0, 5, 12)
    cols = [f"f{i}" for i in range(12)]
    prev: set = set()
    for fraction in (0.2, 0.4, 0.6, 0.8, 0.95, 1.0):
        now = set(select_by_fisher(scores, cols, fraction))
        assert prev <= now
        prev = now


def test_select_by_fisher_degenerate():
    assert select_by_fisher(np.zeros(3), ["a", "b", "c"], 0.9) == []
    with pytest.raises(PipelineError):
        select_by_fisher(np.array([-1.0]), ["a"], 0.9)
    with pytest.raises(PipelineError):
        select_by_fisher(np.ones(2), ["a"], 0.9)


# ---------------------------------------------------------------- mrmr

def mrmr_fixture():
    # f0 separates the users exactly, f1 is constant, f2 duplicates f0
    labels = np.repeat([0.0, 10.0], 20)
    values = np.column_stack([labels, np.full(40, 7.0), labels])
    return fm_of(values, ["A"] * 20 + ["B"] * 20)


def test_mrmr_informative_feature_first():
    assert mrmr_select(mrmr_fixture(), 0.0) == ["f0"]


def test_mrmr_threshold_and_cap():
    fm = mrmr_fixture()
    assert mrmr_select(fm, 2.0) == []
    low = mrmr_select(fm, -0.5)
    assert low[0] == "f0" and set(low) == {"f0", "f1", "f2"}


def test_mrmr_deterministic():
    fm = mrmr_fixture()
    assert mrmr_select(fm, 0.0) == mrmr_select(fm, 0.0)


def test_mrmr_computes_each_pair_once(monkeypatch):
    # 30 features, six users; every feature carries some of the user signal
    rng = np.random.default_rng(12)
    signal = np.repeat(np.arange(6.0), 50)
    values = rng.normal(size=(300, 30)) + signal[:, None] * rng.uniform(0, 1, 30)
    fm = fm_of(values, np.repeat([f"u{i}" for i in range(6)], 50))
    calls = []
    real = pipeline._mutual_information
    monkeypatch.setattr(pipeline, "_mutual_information",
                        lambda a, b: calls.append(1) or real(a, b))
    selected = mrmr_select(fm, 0.0)
    assert selected == ["f6", "f11", "f20", "f1", "f21", "f23", "f13", "f27", "f14",
                        "f28", "f19", "f8", "f18", "f10", "f4", "f25", "f29", "f15", "f5"]
    # 30 relevances, then each selected feature against every feature still
    # a candidate after it: 29 + 28 + ... + 11; one MI per lookup made 3,260
    assert len(calls) == 30 + sum(range(11, 30))


# ---------------------------------------------------------------- pca

def test_pca_rank_one_structure():
    t = np.linspace(-1, 1, 30)
    basis = pca_fit(np.column_stack([t, 2 * t]), 1.0)
    assert basis.components.shape == (1, 2)
    assert_allclose(np.abs(basis.components[0]), np.sqrt(0.5), atol=1e-9)
    assert basis.components[0, 0] > 0  # deterministic sign


def test_pca_orthonormal_descending():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, (60, 6)) @ rng.normal(0, 1, (6, 6))
    basis = pca_fit(x, 1.0)
    k = len(basis.variances)
    assert_allclose(basis.components @ basis.components.T, np.eye(k), atol=1e-9)
    assert np.all(np.diff(basis.variances) <= 1e-12)
    for row in basis.components:
        assert row[np.argmax(np.abs(row))] > 0
    assert_allclose(basis.transform(basis.center), np.zeros(k), atol=1e-9)


def test_pca_fraction_picks_minimal_k():
    rng = np.random.default_rng(8)
    x = rng.normal(0, 1, (80, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
    full = pca_fit(x, 1.0)
    total = full.variances.sum()
    for fraction in (0.5, 0.9, 0.98):
        basis = pca_fit(x, fraction)
        k = len(basis.variances)
        assert basis.variances.sum() >= fraction * total * (1 - 1e-9)
        if k > 1:
            assert basis.variances[:-1].sum() < fraction * total


def test_pca_transform_formula():
    rng = np.random.default_rng(6)
    x = rng.normal(2, 3, (40, 4))
    basis = pca_fit(x, 1.0)
    v = rng.normal(0, 1, 4)
    expected = ((v - basis.center) / basis.scale) @ basis.components.T
    assert_allclose(basis.transform(v), expected, atol=1e-12)


def test_pca_degenerate_constant_input():
    basis = pca_fit(np.ones((5, 3)), 0.95)
    assert basis.components.shape[0] == 1
    assert basis.variances[0] == 0.0


def test_pca_input_errors():
    with pytest.raises(PipelineError):
        pca_fit(np.ones((1, 3)), 0.9)
    with pytest.raises(PipelineError):
        pca_fit(np.array([[1.0, np.nan], [2.0, 3.0]]), 0.9)
    with pytest.raises(PipelineError):
        pca_fit(np.ones((4, 2)), 0.0)
    with pytest.raises(PipelineError):
        pca_fit(np.ones((4, 2)), 1.5)


# ---------------------------------------------------------------- feature prep

def test_fit_feature_prep_no_selector():
    fm = fm_of([[1.0, np.nan], [3.0, 4.0]], ["A", "B"])
    prep = fit_feature_prep(fm)
    assert prep.selected == ("f0", "f1")
    assert_allclose(prep.pooled_means, [2.0, 4.0])
    assert prep.pca is None


def test_fit_feature_prep_fisher_subset():
    fm = fisher_fixture()
    prep = fit_feature_prep(fm, selector="fisher", selector_value=0.9)
    assert prep.selected == ("f0",)
    assert prep.pooled_means.shape == (1,)
    assert prep.pca is None


def test_fit_feature_prep_mrmr():
    prep = fit_feature_prep(mrmr_fixture(), selector="mrmr", selector_value=0.0)
    assert prep.selected == ("f0",)


def test_fit_feature_prep_pca():
    rng = np.random.default_rng(3)
    fm = fm_of(rng.normal(0, 1, (30, 4)), ["A"] * 15 + ["B"] * 15)
    prep = fit_feature_prep(fm, pca_fraction=1.0)
    assert prep.pca is not None
    assert prep.selected == ("f0", "f1", "f2", "f3")
    assert_allclose(prep.pooled_means, fm.values.mean(axis=0))
    v = np.array([np.nan, 1.0, 2.0, np.nan])
    out = prep.pca.transform(np.where(np.isfinite(v), v, prep.pooled_means))
    assert out.shape == (len(prep.pca.variances),)
    assert np.all(np.isfinite(out))


def test_fit_feature_prep_errors():
    fm = fisher_fixture()
    with pytest.raises(PipelineError, match="selector"):
        fit_feature_prep(fm, selector="pca")
    constant = fm_of(np.ones((4, 2)), ["A", "A", "B", "B"])
    with pytest.raises(PipelineError, match="no features"):
        fit_feature_prep(constant, selector="fisher", selector_value=0.9)


# ---------------------------------------------------------------- templates

def test_build_template_hand_case():
    fm = fm_of([[1.0, np.nan], [3.0, 4.0]], ["A", "A"])
    t = build_template("A", fm, min_vectors=2)
    assert t.input_features == ("f0", "f1")
    assert_allclose(t.raw_means, [2.0, 4.0])
    assert_allclose(t.mu, [2.0, 4.0])
    assert_allclose(t.sigma, [1.0, SIGMA_FLOOR])  # constant column floored
    assert t.n_train == 2
    assert_allclose(t.project(np.array([np.nan, 10.0])), [2.0, 10.0])


def test_build_template_sums_rows_in_c_order():
    # select_columns leaves values column-major; the imputed copy must be
    # row-major, as the stored templates were built, or mean and std add
    # in another order and move the last bits
    rng = np.random.default_rng(8)
    values = rng.normal(0, 1, (500, 6)) * 10.0 ** rng.integers(-3, 4, 6)
    values[rng.random(values.shape) < 0.1] = np.nan
    fm = fm_of(values, ["A"] * 500).select_columns(["f5", "f0", "f3", "f1", "f4", "f2"])
    assert not fm.values.flags.c_contiguous
    t = build_template("A", fm, min_vectors=2)
    filled = np.where(np.isfinite(fm.values), fm.values, t.raw_means).copy(order="C")
    assert t.mu.tobytes() == filled.mean(axis=0).tobytes()
    assert t.sigma.tobytes() == np.maximum(filled.std(axis=0), SIGMA_FLOOR).tobytes()


def test_build_template_drops_empty_columns():
    fm = fm_of([[1.0, np.nan], [3.0, np.nan]], ["A", "A"])
    t = build_template("A", fm, min_vectors=2)
    assert t.input_features == ("f0",)
    assert_allclose(t.mu, [2.0])


def test_build_template_min_vectors():
    fm = fm_of([[1.0]], ["A"])
    with pytest.raises(EnrollmentError, match="1 training vectors"):
        build_template("A", fm, min_vectors=2)
    assert MIN_TEMPLATE_VECTORS == 80


def test_build_template_all_nan():
    fm = fm_of(np.full((3, 2), np.nan), ["A"] * 3)
    with pytest.raises(EnrollmentError, match="no finite"):
        build_template("A", fm, min_vectors=2)


def test_build_template_with_prep_keeps_dimensions():
    rng = np.random.default_rng(5)
    values = rng.normal(0, 1, (30, 4))
    values[:, 2] = np.nan  # hole for one user, pooled mean must fill it
    pooled_fm = fm_of(rng.normal(0, 1, (30, 4)), ["A"] * 15 + ["B"] * 15)
    prep = fit_feature_prep(pooled_fm, pca_fraction=1.0)
    t = build_template("A", fm_of(values, ["A"] * 30), prep, min_vectors=10)
    assert len(t.input_features) == 4
    assert t.raw_means[2] == prep.pooled_means[2]
    assert t.pca is prep.pca
    assert t.mu.shape == (len(prep.pca.variances),)
    assert np.all(np.isfinite(t.project(np.full(4, np.nan))))


# ---------------------------------------------------------------- scans

def scan_fixture():
    values = [[1.0, 10.0], [3.0, np.nan], [np.nan, 20.0], [7.0, 70.0]]
    return fm_of(values, ["A"] * 4, sessions=["s01"] * 4,
                 t=[0, 5000, 10000, 65000])


def test_scan_aggregate_hand_windows():
    out = scan_aggregate(scan_fixture(), 60.0)
    assert out.values.shape == (2, 2)
    assert list(out.t_ms) == [0, 60000]
    assert_allclose(out.values[0], [2.0, 15.0])
    assert_allclose(out.values[1], [7.0, 70.0])
    assert list(user_ids(out)) == ["A", "A"]


def test_scan_aggregate_anchor():
    fm = fm_of([[1.0], [5.0]], ["A", "A"], t=[65000, 70000])
    out = scan_aggregate(fm, 60.0)
    # both rows fall in the second window anchored at zero
    assert list(out.t_ms) == [60000]
    assert_allclose(out.values[0], [3.0])
    # a later session's windows are anchored at its own zero: ("A", "s01")
    # is the fourth session of this table
    fm = labelled(fm.columns, fm.values, ["A", "A"], ["s01", "s01"], fm.t_ms,
                  table=[(user, "s01") for user in "012"])
    out = scan_aggregate(fm, 60.0)
    assert list(out.t_ms) == [3 * SESSION_STRIDE_MS + 60000]


def test_scan_aggregate_sorts_input():
    fm = scan_fixture()
    shuffled = fm.take(np.array([3, 0, 2, 1]))
    out = scan_aggregate(shuffled, 60.0)
    assert list(out.t_ms) == [0, 60000]
    assert_allclose(out.values[0], [2.0, 15.0])


def test_scan_aggregate_drops_empty_windows():
    values = [[1.0], [np.nan], [5.0]]
    fm = fm_of(values, ["A"] * 3, t=[0, 61000, 122000])
    out = scan_aggregate(fm, 60.0)
    assert list(out.t_ms) == [0, 120000]


def test_scan_aggregate_edge_inputs():
    empty = FeatureMatrix.empty(("f0",))
    assert scan_aggregate(empty, 60.0).n_rows == 0
    with pytest.raises(PipelineError):
        scan_aggregate(empty, 0.0)


@pytest.mark.parametrize("scan_s", [2.0, 60.0])
def test_scan_aggregate_matches_oracle(mini_sessions, scan_s):
    config = ExperimentConfig(n_users=3, sessions=3, session_seconds=120.0)
    matrices = extract_channels(mini_sessions, CHANNELS, config)
    matrices["digraph"] = widen(matrices["digraph"], digraph_feature_names())
    # shuffled rows with timestamps floored to whole seconds: ties inside a
    # window must keep their input order
    hmog = matrices["hmog"]
    shuffled = hmog.take(np.random.default_rng(3).permutation(hmog.n_rows))
    matrices["hmog_tied"] = FeatureMatrix(
        shuffled.columns, shuffled.values, shuffled.session,
        shuffled.t_ms // 1000 * 1000, shuffled.sessions)
    assert len(np.unique(matrices["hmog_tied"].t_ms)) < hmog.n_rows
    table = sorted({(s.user_id, s.session_id) for s in mini_sessions})
    for name, fm in matrices.items():
        assert fm.sessions == tuple(table), name
        got = scan_aggregate(fm, scan_s)
        want = scan_aggregate_oracle(fm, scan_s, {key: i for i, key in enumerate(table)})
        assert got.n_rows > 0, name
        assert got.columns == want.columns, name
        assert got.values.tobytes() == want.values.tobytes(), name
        assert user_ids(got).tolist() == user_ids(want).tolist(), name
        assert session_ids(got).tolist() == session_ids(want).tolist(), name
        assert got.t_ms.tobytes() == want.t_ms.tobytes(), name


# the sessions random_scan_matrix deals windows to, in table order
SCAN_SESSIONS = (("A", "s01"), ("A", "s02"), ("B", "s01"), ("C", "s09"))


def random_scan_matrix(rng, n_columns, lengths):
    """Windows of the given row counts on a 2 s scan, dealt in turn to the
    sessions of SCAN_SESSIONS, rows shuffled. Cells are NaN or inf at
    random, every seventh window is NaN throughout, and with more than one
    column the last is NaN throughout. Returns the matrix and the number of
    windows scan_aggregate keeps."""
    keys = SCAN_SESSIONS
    blocks, labels, kept = [], [], 0
    for w, length in enumerate(lengths):
        block = rng.normal(0.0, 1.0, (length, n_columns)) * 10.0 ** rng.integers(-3, 4)
        block[rng.random(block.shape) < 0.1] = np.nan
        block[rng.random(block.shape) < 0.02] = np.inf
        if n_columns > 1:
            block[:, -1] = np.nan
        if w % 7 == 0:
            block[:] = np.nan
        key = keys[w % len(keys)]
        kept += bool(np.isfinite(block).any())
        blocks.append(block)
        t = w // len(keys) * 2000 + rng.integers(0, 2000, length)
        labels += [(*key, ms) for ms in t.tolist()]
    order = rng.permutation(len(labels))
    users, sessions, t = zip(*(labels[i] for i in order))
    return fm_of(np.vstack(blocks)[order], users, sessions, t), kept


def assert_scan_matches_oracle(fm):
    got = scan_aggregate(fm, 2.0)
    want = scan_aggregate_oracle(fm, 2.0, {key: i for i, key in enumerate(SCAN_SESSIONS)})
    assert got.columns == want.columns
    assert got.values.tobytes() == want.values.tobytes()
    assert user_ids(got).tolist() == user_ids(want).tolist()
    assert session_ids(got).tolist() == session_ids(want).tolist()
    assert got.t_ms.tobytes() == want.t_ms.tobytes()
    return got


@pytest.mark.parametrize("n_columns", [1, 3, 11, 96])
def test_scan_aggregate_bit_equal_to_oracle_random(n_columns):
    # every length from 1 to 40 rows, past the 8 rows at which NumPy starts
    # summing a contiguous run pairwise, four times each
    rng = np.random.default_rng(n_columns)
    lengths = rng.permutation(np.repeat(np.arange(1, 41), 4))
    fm, kept = random_scan_matrix(rng, n_columns, lengths)
    got = assert_scan_matches_oracle(fm)
    assert 0 < got.n_rows == kept < len(lengths)


def test_scan_aggregate_bit_equal_to_oracle_split_group():
    # 30 windows of 40 rows x 96 columns, 30,720 bytes each: the byte cap
    # cuts the one length group into several gathers
    rng = np.random.default_rng(40)
    assert 30 * 40 * 96 * 8 > 3 * pipeline._FISHER_BYTES
    fm, kept = random_scan_matrix(rng, 96, np.full(30, 40))
    assert assert_scan_matches_oracle(fm).n_rows == kept


def test_scan_aggregate_peak_memory_bounded_by_window_groups():
    # windows of one length are gathered at most _FISHER_BYTES at a time,
    # never the whole matrix: 8x the windows raise the peak by the larger
    # output and the per-row sort keys, far less than the 12 MB matrix
    def fm_windows(n_windows, length=20, n_columns=96):
        n = n_windows * length
        t = np.arange(n) // length * 2000 + np.arange(n) % length * 50
        values = np.random.default_rng(4).normal(0.0, 1.0, (n, n_columns))
        return fm_of(values, ["A"] * n, t=t)

    def peak(fm):
        scan_aggregate(fm, 2.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = scan_aggregate(fm, 2.0)
            return tracemalloc.get_traced_memory()[1] - base, out
        finally:
            tracemalloc.stop()

    small, _ = peak(fm_windows(100))
    big_fm = fm_windows(800)
    big, big_out = peak(big_fm)
    assert big_out.n_rows == 800
    assert big - small < big_out.values.nbytes + 64 * big_fm.n_rows
    assert big_out.values.nbytes + 64 * big_fm.n_rows < big_fm.values.nbytes / 4


# ---------------------------------------------------------------- persistence

def test_template_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    fm = fm_of(rng.normal(0, 1, (30, 4)), ["A"] * 15 + ["B"] * 15)
    prep = fit_feature_prep(fm, pca_fraction=1.0)
    templates = {
        "A": build_template("A", fm.for_user(0), prep, min_vectors=5),
        "B": build_template("B", fm.for_user(1), min_vectors=5),
    }
    path = tmp_path / "templates.json"
    save_templates(str(path), templates, params_echo={"channel": "hmog"})
    blob = json.loads(path.read_text())
    assert blob["format"] == "hmogkit-templates-1"
    assert blob["params"] == {"channel": "hmog"}
    assert set(blob["templates"]) == {"A", "B"}
    for user in ("A", "B"):
        orig, saved = templates[user], blob["templates"][user]
        assert saved["input_features"] == list(orig.input_features)
        for key in ("raw_means", "mu", "sigma"):
            assert np.array_equal(np.array(saved[key]), getattr(orig, key))
        assert saved["n_train"] == orig.n_train
    assert blob["templates"]["B"]["pca"] is None
    pca, saved = templates["A"].pca, blob["templates"]["A"]["pca"]
    for key in ("center", "scale", "components", "variances"):
        assert np.array_equal(np.array(saved[key]), getattr(pca, key))
