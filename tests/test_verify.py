"""Distance scores, fusion, and the EER reader."""

import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmogkit import verify
from hmogkit.experiments import (
    CHANNELS, ExperimentConfig, _channel_matrices, split_train_test)
from hmogkit.pipeline import Template, build_template, fit_feature_prep, scan_aggregate
from hmogkit.verify import (
    ScoreSet,
    VerifyError,
    det_curve,
    eer,
    fuse_scoresets,
    gen_scores,
    minmax_normalize,
    search_fusion_weights,
)
from labels import actual_ids, claimed_ids, labelled, scores_of
from oracles import (
    eer_oracle,
    eer_searchsorted_oracle,
    fuse_scoresets_oracle,
    gen_scores_oracle,
    rates_searchsorted_oracle,
    search_fusion_weights_oracle,
    weight_grid,
)


def make_template(user="A", features=("f0", "f1"), mu=(0.0, 0.0),
                  sigma=(1.0, 2.0), raw_means=(0.0, 0.0)):
    return Template(user_id=user, input_features=tuple(features),
                    raw_means=np.array(raw_means, dtype=np.float64),
                    mu=np.array(mu, dtype=np.float64),
                    sigma=np.array(sigma, dtype=np.float64), n_train=1)


def make_auth(values, users, t=None):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    t = t if t is not None else np.arange(n) * 1000
    return labelled(("f0", "f1"), values, users, ["s01"] * n, np.asarray(t, dtype=np.int64))


def score_set(genuine, impostor, claimed="A", actual_other="B"):
    return scores_of(
        [claimed] * (len(genuine) + len(impostor)),
        [claimed] * len(genuine) + [actual_other] * len(impostor),
        [1000 * i for i in range(len(genuine))] + [1000 * i for i in range(len(impostor))],
        [*genuine, *impostor],
    )


# ---------------------------------------------------------------- metrics

def test_sm_se_hand_values():
    templates = {"A": make_template()}
    auth = make_auth([[1.0, 4.0]], ["A"])
    assert gen_scores(templates, auth, "sm").score.tolist() == pytest.approx([3.0])  # 1/1 + 4/2
    assert gen_scores(templates, auth, "se").score.tolist() == pytest.approx([np.sqrt(5.0)])


def test_metrics_impute_from_template_means():
    scores = gen_scores({"A": make_template()}, make_auth([[np.nan, 4.0]], ["A"]))
    assert scores.score.tolist() == pytest.approx([2.0])


# ---------------------------------------------------------------- gen_scores

def test_gen_scores_split_and_order():
    templates = {"B": make_template("B"), "A": make_template("A", mu=(1.0, 1.0))}
    auth = make_auth([[0.0, 0.0], [2.0, 2.0]], ["A", "B"])
    scores = gen_scores(templates, auth)
    assert len(scores.genuine) == 2
    assert len(scores.impostor) == 2
    genuine = scores.claimed == scores.actual
    # claimed users iterate in sorted order
    assert scores.users == ("A", "B")
    assert scores.claimed.dtype == scores.actual.dtype == np.int32
    assert claimed_ids(scores)[genuine].tolist() == ["A", "B"]
    assert actual_ids(scores)[genuine][0] == "A"
    assert scores.t_ms[genuine][0] == 0
    assert scores.t_ms.dtype == np.int64
    # A's template: v=[0,0], mu=[1,1], sigma=[1,2] -> 1 + 0.5
    assert scores.genuine[0] == pytest.approx(1.5)


def test_gen_scores_skips_rows_without_overlap():
    templates = {"A": make_template("A")}
    auth = make_auth([[0.5, 0.5], [np.nan, np.nan]], ["A", "A"])
    scores = gen_scores(templates, auth)
    assert len(scores.genuine) == 1


def test_gen_scores_partial_overlap_per_template():
    narrow = Template(user_id="B", input_features=("f1",),
                      raw_means=np.array([0.0]), mu=np.array([0.0]),
                      sigma=np.array([1.0]), n_train=1)
    templates = {"A": make_template("A"), "B": narrow}
    auth = make_auth([[3.0, np.nan]], ["A"])
    scores = gen_scores(templates, auth)
    # the row still scores against A (f0 finite) but not against B
    assert len(scores.genuine) == 1
    assert len(scores.impostor) == 0


def test_gen_scores_unknown_metric():
    with pytest.raises(VerifyError, match="metric"):
        gen_scores({"A": make_template()}, make_auth([[1.0, 1.0]], ["A"]), metric="xx")


def test_gen_scores_missing_template_feature_raises():
    templates = {"A": make_template(), "B": make_template("B", features=("f0", "f9"))}
    with pytest.raises(KeyError, match="f9"):
        gen_scores(templates, make_auth([[1.0, 1.0]], ["A"]))


# (selector, selector value, PCA variance fraction)
PREPS = [("fisher", 0.95, None), ("fisher", 0.95, 0.9), (None, 1.0, 0.8), ("mrmr", 0.0, None)]


@pytest.fixture(scope="module")
def enrolled(mini_sessions):
    """enrolled(channel, prep) -> (templates, probe matrices): every user's
    template and the test side's vectors, raw and in 10 s scan windows."""
    train_s, test_s = split_train_test(mini_sessions)
    matrices = _channel_matrices(train_s, test_s, CHANNELS, ExperimentConfig())

    @functools.cache
    def enroll(channel, prep):
        train_fm, test_fm = matrices[channel]
        selector, value, pca = prep
        if channel == "digraph" and selector == "fisher":
            # no digraph column here has two users with two latencies each,
            # so every Fisher score is 0 and only the whole ranking keeps any
            value = 1.0
        fitted = fit_feature_prep(train_fm, selector=selector, selector_value=value,
                                  pca_fraction=pca)
        users = train_fm.user_names
        templates = {users[k]: build_template(users[k], train_fm.for_user(k), fitted,
                                              min_vectors=2)
                     for k in train_fm.users()}
        return templates, (test_fm, scan_aggregate(test_fm, 10.0))
    return enroll


@pytest.mark.parametrize("prep", PREPS, ids=lambda p: "-".join(map(str, p)))
@pytest.mark.parametrize("metric", ["sm", "se"])
@pytest.mark.parametrize("channel", CHANNELS)
def test_gen_scores_matches_oracle(enrolled, channel, metric, prep):
    templates, probes = enrolled(channel, prep)
    for auth in probes:
        got = gen_scores(templates, auth, metric)
        want = gen_scores_oracle(templates, auth, metric)
        assert len(got.genuine) and len(got.impostor)
        assert got.score.tobytes() == want.score.tobytes()
        assert claimed_ids(got).tolist() == claimed_ids(want).tolist()
        assert actual_ids(got).tolist() == actual_ids(want).tolist()
        assert got.t_ms.tobytes() == want.t_ms.tobytes()


# ---------------------------------------------------------------- fusion

def test_minmax_normalize():
    scores = score_set([2.0], [4.0, 6.0])
    out, (lo, hi) = minmax_normalize(scores)
    assert (lo, hi) == (2.0, 6.0)
    assert out.genuine[0] == 0.0
    assert out.impostor.tolist() == [0.5, 1.0]


def test_minmax_normalize_matches_scalar_formula():
    rng = np.random.default_rng(29)
    scores = score_set(rng.gamma(2.0, 1.0, 40), rng.gamma(2.0, 1.8, 60))
    out, (lo, hi) = minmax_normalize(scores)
    want = [(s - lo) / (hi - lo) for s in scores.score.tolist()]
    assert out.score.tolist() == want


def test_minmax_normalize_degenerate_and_empty():
    out, (lo, hi) = minmax_normalize(score_set([5.0], [5.0]))
    assert (lo, hi) == (5.0, 5.0)
    assert out.genuine[0] == 0.0 and out.impostor[0] == 0.0
    with pytest.raises(VerifyError):
        minmax_normalize(ScoreSet())


def test_fuse_scoresets_alignment():
    ch1 = scores_of(["A", "A"], ["A", "B"], [0, 0], [0.0, 10.0])
    ch2 = scores_of(["A", "A", "A"], ["A", "B", "B"], [0, 0, 1], [5.0, 5.0, 15.0])
    fused = fuse_scoresets({"c1": ch1, "c2": ch2}, {"c1": 0.5, "c2": 0.5})
    assert len(fused.genuine) == 1 and len(fused.impostor) == 2
    by_key = dict(zip(zip(claimed_ids(fused), actual_ids(fused), fused.t_ms.tolist()),
                      fused.score.tolist()))
    assert by_key[("A", "A", 0)] == pytest.approx(0.0)
    assert by_key[("A", "B", 0)] == pytest.approx(0.5)   # 1.0 and 0.0, equal weight
    assert by_key[("A", "B", 1)] == pytest.approx(1.0)   # only c2 present


def test_fuse_scoresets_drops_zero_weight_decisions():
    ch1 = scores_of(["A", "A"], ["A", "B"], [0, 0], [0.0, 10.0])
    ch2 = scores_of(["A", "A"], ["B", "B"], [1, 2], [15.0, 1.0])
    fused = fuse_scoresets({"c1": ch1, "c2": ch2}, {"c1": 1.0, "c2": 0.0})
    assert len(fused.genuine) == 1
    assert fused.t_ms[fused.claimed != fused.actual].tolist() == [0]


def test_weight_grid():
    grid = list(weight_grid(["a", "b"], step=0.5))
    assert grid == [{"a": 0.0, "b": 1.0}, {"a": 0.5, "b": 0.5}, {"a": 1.0, "b": 0.0}]
    assert len(list(weight_grid(["a", "b", "c"], step=0.5))) == 6
    assert len(list(weight_grid(["a", "b"], step=0.05))) == 21
    with pytest.raises(VerifyError, match="step"):
        list(weight_grid(["a", "b"], step=0.3))


def test_search_fusion_weights_prefers_clean_channel():
    rng = np.random.default_rng(3)
    good = score_set(rng.uniform(0, 1, 20), rng.uniform(10, 11, 20))
    # the bad channel is anti-informative
    bad = score_set(rng.uniform(10, 11, 20), rng.uniform(0, 1, 20))
    weights, fused, value = search_fusion_weights({"good": good, "bad": bad}, step=0.5)
    assert value == 0.0
    assert weights == {"bad": 0.0, "good": 1.0}
    assert len(fused.genuine) == 20


def random_channels(seed, names, users=("A", "B", "C"), n_times=6):
    """Score sets over one decision grid; each channel misses a random share
    of the decisions and scores a few of them twice (the later score counts).
    The first channel alone also scores user D, so at grid points where it
    weighs 0 those decisions drop out."""
    rng = np.random.default_rng(seed)
    keys = [(c, a, 1000 * t) for c in users for a in users for t in range(n_times)]
    keys += [("D", "D", 0), ("D", "A", 0), ("A", "D", 1000)]
    channels = {}
    for j, name in enumerate(names):
        rows = []
        for claimed, actual, t_ms in keys:
            if claimed == "D" or actual == "D":
                if j > 0:
                    continue
            elif rng.random() < 0.25:
                continue
            score = float(rng.gamma(2.0, 1.0 if claimed == actual else 1.8))
            rows.append((claimed, actual, t_ms, score))
            if rng.random() < 0.05:
                rows.append((claimed, actual, t_ms, score * 1.5))
        channels[name] = scores_of(*zip(*rows))
    return channels


def degenerate_channel(channels):
    """A channel scoring every decision of ``channels`` with one value."""
    first = next(iter(channels.values()))
    return ScoreSet(first.claimed, first.actual, first.t_ms, np.full(len(first.score), 3.0),
                    first.users)


def csv_bytes(scores, path):
    scores.write_csv(str(path))
    return path.read_bytes()


def assert_search_matches_oracle(channels, step, tmp_path):
    weights, fused, value = search_fusion_weights(channels, step)
    o_weights, o_fused, o_value = search_fusion_weights_oracle(channels, step)
    assert weights == o_weights
    assert type(value) is float and value == o_value
    assert csv_bytes(fused, tmp_path / "lib.csv") == csv_bytes(o_fused, tmp_path / "oracle.csv")


# channel dicts in several insertion orders, most not the sorted one that the
# weight grid uses; they pin the order in which each decision's channel
# terms are summed
FUSION_NAMES = {
    2: [("tap", "hmog"), ("hmog", "tap")],
    3: [("tap", "keyhold", "hmog"), ("keyhold", "hmog", "tap")],
    4: [("hmog", "tap", "keyhold", "digraph"), ("digraph", "tap", "hmog", "keyhold")],
}


@pytest.mark.parametrize("step", [0.5, 0.25, 0.05])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_search_fusion_weights_matches_oracle(k, step, tmp_path):
    for seed, names in enumerate(FUSION_NAMES[k]):
        channels = random_channels(100 * k + seed, names)
        assert_search_matches_oracle(channels, step, tmp_path)
        # the same channels in reverse insertion order
        reordered = dict(reversed(list(channels.items())))
        assert_search_matches_oracle(reordered, step, tmp_path)


@pytest.mark.parametrize("step", [0.5, 0.25, 0.05])
def test_search_fusion_weights_matches_oracle_degenerate_channel(step, tmp_path):
    channels = random_channels(7, ("tap", "hmog", "keyhold"))
    channels["flat"] = degenerate_channel(channels)
    channels = {name: channels[name] for name in ("keyhold", "flat", "hmog", "tap")}
    assert_search_matches_oracle(channels, step, tmp_path)


def test_search_fusion_weights_tie_keeps_first_grid_point(tmp_path):
    rng = np.random.default_rng(11)
    good = score_set(rng.uniform(0, 1, 15), rng.uniform(10, 11, 15))
    also_good = score_set(rng.uniform(0, 1, 15), rng.uniform(10, 11, 15))
    bad = score_set(rng.uniform(10, 11, 15), rng.uniform(0, 1, 15))
    channels = {"z_bad": bad, "b_good": also_good, "a_good": good}
    for step in (0.5, 0.25):
        grid = list(weight_grid(sorted(channels), step))
        values = []
        for weights in grid:
            fused = fuse_scoresets_oracle(channels, weights)
            values.append(eer(fused.genuine, fused.impostor))
        best = min(values)
        assert values.count(best) >= 2
        first = grid[values.index(best)]
        assert search_fusion_weights(channels, step)[0] == first
        assert_search_matches_oracle(channels, step, tmp_path)


def test_search_fusion_weights_spans_blocks(tmp_path):
    # two clean channels reach EER 0 in different blocks; the first block's
    # point must win, and the search must agree with the oracle
    rng = np.random.default_rng(13)
    noisy = random_channels(404, ("b", "d"))
    clean = score_set(rng.uniform(0, 1, 30), rng.uniform(10, 11, 30))
    channels = {"d": noisy["d"], "c_good": clean, "a_good": clean, "b": noisy["b"]}
    n_decisions = len(verify._align(channels)[1])
    grid = list(weight_grid(sorted(channels), 0.05))
    per_block = verify._BLOCK_CELLS // n_decisions
    assert len(grid) > 2 * per_block
    weights = search_fusion_weights(channels, 0.05)[0]
    assert weights == {"a_good": 0.0, "b": 0.0, "c_good": 1.0, "d": 0.0}
    assert grid.index({"a_good": 1.0, "b": 0.0, "c_good": 0.0, "d": 0.0}) >= per_block
    assert_search_matches_oracle(channels, 0.05, tmp_path)


def test_search_fusion_weights_memory_is_blocked():
    import tracemalloc
    rng = np.random.default_rng(19)
    channels = {name: score_set(rng.gamma(2.0, 1.0, 20), rng.gamma(2.0, 1.8, 20))
                for name in ("hmog", "tap", "keyhold", "digraph")}
    # 176,851 grid points x 40 decisions: one float64 array over the whole
    # grid would take 57 MB
    tracemalloc.start()
    try:
        search_fusion_weights(channels, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------- row-wise eer

def grid_block(channels, step):
    """(fused, keep, genuine) of every grid point of ``channels`` as one block;
    each row is checked bit for bit against fusing its point alone."""
    _, S, M, genuine = verify._align(channels)
    W = np.array([[w[c] for c in channels] for w in weight_grid(sorted(channels), step)])
    fused, keep = verify._fuse_aligned(S, M, W)
    for p in range(0, len(W), 7):
        one, one_keep = verify._fuse_aligned(S, M, W[p:p + 1])
        assert one_keep[0].tolist() == keep[p].tolist()
        assert one[0][keep[p]].tobytes() == fused[p][keep[p]].tobytes()
    return fused, keep, genuine


def assert_rows_match_eer(fused, keep, genuine):
    """Each row's EER is repr-equal to eer and to the searchsorted oracle on
    that row's kept decisions, and its thresholds and rates bit-equal to the
    oracle's; a row lacking either kind reads nan and has no thresholds."""
    values = verify._eer_rows(fused, genuine, keep)
    thresholds, end, far, frr = verify._rate_points(fused, genuine, keep)
    scored = 0
    for p, value in enumerate(values.tolist()):
        gen, imp = fused[p][keep[p] & genuine], fused[p][keep[p] & ~genuine]
        if len(gen) and len(imp):
            assert repr(value) == repr(eer(gen, imp)) == repr(eer_searchsorted_oracle(gen, imp))
            at = end[p]
            assert np.column_stack([thresholds[p][at], far[p][at], frr[p][at]]).tobytes() == \
                np.column_stack(rates_searchsorted_oracle(gen, imp)).tobytes()
            scored += 1
        else:
            assert np.isnan(value) and not end[p].any()
    return scored


def test_eer_rows_random_overlapping_scores():
    fused, keep, genuine = grid_block(random_channels(31, ("tap", "hmog", "keyhold")), 0.1)
    assert keep.all(axis=1).any()
    assert assert_rows_match_eer(fused, keep, genuine) == len(fused)


def test_eer_rows_heavy_ties():
    fused, keep, genuine = grid_block(random_channels(37, ("hmog", "tap")), 0.05)
    fused = np.round(fused, 1)
    assert len(np.unique(fused[keep])) <= 11
    assert_rows_match_eer(fused, keep, genuine)


def test_eer_rows_keep_differs_between_rows():
    # only the first channel scores user D's decisions; where it weighs 0 they drop
    fused, keep, genuine = grid_block(random_channels(41, ("digraph", "tap", "hmog")), 0.1)
    assert len(np.unique(keep, axis=0)) > 1
    want = verify._eer_rows(fused, genuine, keep)
    assert_rows_match_eer(fused, keep, genuine)
    # an excluded decision is never read as a score, whatever value it holds
    for filler in (-np.inf, 0.0, 1.0, np.nan):
        garbage = np.where(keep, fused, filler)
        assert verify._eer_rows(garbage, genuine, keep).tobytes() == want.tobytes()


def test_eer_rows_skip_rows_lacking_a_kind():
    # "gen" scores only genuine decisions and "imp" only impostor ones, so
    # the grid points that weigh one of them alone lack the other kind
    both = random_channels(43, ("hmog",))["hmog"]
    genuine = both.claimed == both.actual
    channels = {
        "gen": ScoreSet(both.claimed[genuine], both.actual[genuine], both.t_ms[genuine],
                        both.score[genuine], both.users),
        "imp": ScoreSet(both.claimed[~genuine], both.actual[~genuine], both.t_ms[~genuine],
                        both.score[~genuine], both.users),
        "hmog": both,
    }
    fused, keep, genuine = grid_block(channels, 0.25)
    values = verify._eer_rows(fused, genuine, keep)
    assert np.isnan(values).sum() == 2
    assert assert_rows_match_eer(fused, keep, genuine) == len(fused) - 2
    assert verify._eer_rows(fused[:0], genuine, keep[:0]).shape == (0,)
    none = np.zeros_like(keep)
    assert np.isnan(verify._eer_rows(fused, genuine, none)).all()


def test_eer_rows_random_blocks():
    rng = np.random.default_rng(61)
    seen = {"nothing": 0, "one kind": 0, "scored": 0}
    for trial in range(300):
        n_rows, n = int(rng.integers(1, 7)), int(rng.integers(1, 61))
        if trial % 2:
            levels = int(rng.integers(1, 13))    # heavy ties
            fused = rng.integers(0, levels, (n_rows, n)).astype(np.float64)
        else:
            fused = rng.normal(0, 1, (n_rows, n))
        genuine = rng.random(n) < rng.uniform(0.1, 0.9)
        keep = rng.random((n_rows, n)) < rng.uniform(0.2, 1.0, (n_rows, 1))
        if trial % 3 == 0:
            keep[0] = False
        if trial % 4 == 0:
            keep[-1] &= genuine if trial % 8 else ~genuine
        for kept in keep:
            kinds = len(set(genuine[kept].tolist()))
            seen[("nothing", "one kind", "scored")[kinds]] += 1
        want = verify._eer_rows(fused, genuine, keep)
        assert assert_rows_match_eer(fused, keep, genuine) == (~np.isnan(want)).sum()
        # an excluded decision is never read as a score, whatever value it holds
        for filler in (np.nan, np.inf, -np.inf):
            garbage = np.where(keep, fused, filler)
            assert verify._eer_rows(garbage, genuine, keep).tobytes() == want.tobytes()
    assert min(seen.values()) >= 50


@pytest.mark.parametrize("k", [2, 3, 4])
def test_fuse_scoresets_matches_oracle(k, tmp_path):
    for seed, names in enumerate(FUSION_NAMES[k]):
        channels = random_channels(200 * k + seed, names)
        channels["flat"] = degenerate_channel(channels)
        rng = np.random.default_rng(seed)
        fixed = [
            {name: float(w) for name, w in zip(channels, rng.uniform(0, 1, k + 1))},
            {name: 0.0 if i == 0 else 1.0 for i, name in enumerate(channels)},
            {names[-1]: 0.7},   # the other channels get weight 0
            {name: 2.0 for name in channels},
        ]
        for weights in fixed:
            fused = fuse_scoresets(channels, weights)
            oracle = fuse_scoresets_oracle(channels, weights)
            assert csv_bytes(fused, tmp_path / "lib.csv") == \
                csv_bytes(oracle, tmp_path / "oracle.csv")
            assert eer(fused.genuine, fused.impostor) == eer(oracle.genuine, oracle.impostor)


# ---------------------------------------------------------------- eer

def test_eer_frozen_values():
    assert eer(np.array([1.0, 2.0, 4.0]), np.array([3.0, 5.0, 6.0])) == pytest.approx(1 / 3)
    assert eer(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == pytest.approx(0.5)
    assert eer(np.array([1.0, 2.0]), np.array([5.0, 6.0])) == 0.0
    # anti-informative scores cross at the far end
    assert eer(np.array([9.0, 10.0]), np.array([1.0, 2.0])) == pytest.approx(1.0)


def test_eer_returns_plain_float():
    value = eer(np.array([1.0]), np.array([2.0]))
    assert type(value) is float


def test_eer_matches_oracle():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n_g = int(rng.integers(1, 40))
        n_i = int(rng.integers(1, 40))
        if trial % 2:
            g = rng.integers(0, 12, n_g).astype(np.float64)  # heavy ties
            i = rng.integers(0, 12, n_i).astype(np.float64)
        else:
            g = rng.normal(0, 1, n_g)
            i = rng.normal(0.7, 1, n_i)
        assert eer(g, i) == pytest.approx(eer_oracle(g, i), abs=1e-9)


def test_eer_and_det_match_searchsorted_oracle():
    rng = np.random.default_rng(53)
    for trial in range(300):
        n_g = int(rng.integers(1, 40))
        n_i = int(rng.integers(1, 40))
        if trial % 3 == 0:
            g = rng.integers(0, 12, n_g).astype(np.float64)
            i = rng.integers(0, 12, n_i).astype(np.float64)
        elif trial % 3 == 1:
            g = np.round(rng.gamma(2.0, 1.0, n_g), 1)
            i = np.round(rng.gamma(2.0, 1.8, n_i), 1)
        else:
            g = rng.normal(0, 1, n_g)
            i = rng.normal(0.7, 1, n_i)
        assert repr(eer(g, i)) == repr(eer_searchsorted_oracle(g, i))
        assert det_curve(g, i).tobytes() == np.column_stack(
            rates_searchsorted_oracle(g, i)).tobytes()


def test_eer_plateau_crossing_reports_the_plateau():
    # FAR == FRR == 5/6 exactly at threshold 6; interpolating from the point
    # before would round to 0.8333333333333333
    g = np.array([3.0, 5.0, 6.0, 7.0, 7.0, 7.0])
    i = np.array([1.0, 2.0, 4.0, 4.0, 4.0, 6.0])
    assert repr(eer(g, i)) == repr(eer_searchsorted_oracle(g, i)) == "0.8333333333333334"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eer_rejects_non_finite_scores(bad):
    with pytest.raises(VerifyError, match="finite"):
        eer(np.array([1.0, bad]), np.array([2.0]))
    with pytest.raises(VerifyError, match="finite"):
        eer(np.array([1.0]), np.array([bad, 2.0]))
    with pytest.raises(VerifyError, match="finite"):
        det_curve(np.array([1.0]), np.array([bad]))


def test_eer_affine_invariance():
    rng = np.random.default_rng(23)
    g = rng.normal(0, 1, 30)
    i = rng.normal(1, 1, 25)
    base = eer(g, i)
    assert eer(3.0 * g + 7.0, 3.0 * i + 7.0) == pytest.approx(base, abs=1e-12)


def test_eer_empty_raises():
    with pytest.raises(VerifyError):
        eer(np.array([]), np.array([1.0]))


def test_det_curve_shape_and_monotonicity():
    rng = np.random.default_rng(5)
    det = det_curve(rng.normal(0, 1, 40), rng.normal(1, 1, 40))
    assert det.shape[1] == 3
    assert np.all(np.diff(det[:, 0]) > 0)
    assert np.all(np.diff(det[:, 1]) >= 0)
    assert np.all(np.diff(det[:, 2]) <= 0)
    assert det[-1, 1] == 1.0 and det[-1, 2] == 0.0


# ---------------------------------------------------------------- csv

def test_scoreset_csv_roundtrip(tmp_path):
    scores = score_set([0.1234567890123, 1.5], [2.0 / 3.0])
    path = tmp_path / "scores.csv"
    scores.write_csv(str(path), header_comments=["config_hash=abc", "seed=7"])
    text = path.read_text()
    assert "np.float64" not in text
    assert text.startswith("# config_hash=abc\n# seed=7\n")
    back = ScoreSet.read_csv(str(path))
    assert back.genuine.tolist() == scores.genuine.tolist()
    assert back.impostor.tolist() == scores.impostor.tolist()
    genuine = back.claimed == back.actual
    assert claimed_ids(back)[genuine][0] == "A"
    assert actual_ids(back)[~genuine][0] == "B"


def test_scoreset_write_csv_genuine_rows_first(tmp_path):
    # rows interleave the kinds, as gen_scores leaves them
    scores = scores_of(["A", "A", "B", "B"], ["B", "A", "B", "A"], [5, 1, 2, 7],
                      [0.5, 0.25, np.float64(1.0) / 3.0, 2.0])
    path = tmp_path / "scores.csv"
    scores.write_csv(str(path))
    assert path.read_text().splitlines() == [
        "kind,claimed,actual,t_ms,score",
        "genuine,A,A,1,0.25",
        "genuine,B,B,2,0.3333333333333333",
        "impostor,A,B,5,0.5",
        "impostor,B,A,7,2.0",
    ]
    back = ScoreSet.read_csv(str(path))
    assert back.genuine.tolist() == [0.25, 1.0 / 3.0]
    assert back.impostor.tolist() == [0.5, 2.0]


def test_scoreset_read_rejects_t_ms_beyond_64_bits(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("kind,claimed,actual,t_ms,score\n"
                    "genuine,A,A,9223372036854775807,1.0\n"
                    "impostor,A,B,9223372036854775808,2.0\n")
    with pytest.raises(VerifyError, match=r"scores.csv:3: t_ms must be an integer"):
        ScoreSet.read_csv(str(path))


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_scoreset_read_rejects_non_finite_scores(tmp_path, score):
    path = tmp_path / "scores.csv"
    path.write_text("kind,claimed,actual,t_ms,score\n"
                    "genuine,A,A,0,1.0\n"
                    f"impostor,A,B,0,{score}\n")
    with pytest.raises(VerifyError, match=rf"scores.csv:3: score must be finite, got '{score}'"):
        ScoreSet.read_csv(str(path))


def test_scoreset_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(VerifyError, match="header"):
        ScoreSet.read_csv(str(path))
