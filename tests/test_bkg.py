"""Field arithmetic, Lee-metric codes, fuzzy commitments, guessing distance."""

import hashlib
import hmac as stdlib_hmac
import itertools

import numpy as np
import pytest

from hmogkit.bkg.code import (
    CodeConstructionError,
    DecodeFailure,
    decode,
    encode,
    grs_build,
)
from hmogkit.bkg.commitment import (
    DEFAULT_CONTEXT,
    Commitment,
    DiscretizationSpec,
    OpenFailure,
    assign_d_range,
    commit,
    derive_key,
    derive_tag,
    ds,
    fit_discretization,
    open_commitment,
)
from hmogkit.bkg.field import (
    inv_mod,
    is_prime,
    lee_weight,
    lee_weight_total,
    poly_add,
    poly_divide_linear,
    poly_divmod,
    poly_mul,
    poly_sub,
    poly_trim,
)
from hmogkit.bkg.guessing import guessing_distance
from oracles import (
    assign_d_range_oracle,
    codebook_oracle,
    decode_brute_oracle,
    ds_oracle,
    guessing_distance_oracle,
    lee_patterns,
    lee_weight_oracle,
    min_lee_distance_oracle,
    rank_mod_p_oracle,
)


# ---------------------------------------------------------------- field

def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for k in range(-3, 30):
        assert is_prime(k) == (k in primes)
    assert is_prime(101) and is_prime(65537)
    assert not is_prime(91) and not is_prime(100)


def test_inv_mod():
    for p in (2, 5, 29):
        for a in range(1, p):
            assert (a * inv_mod(a, p)) % p == 1
    assert inv_mod(7 + 29, 29) == inv_mod(7, 29)
    with pytest.raises(ValueError):
        inv_mod(0, 5)


def test_lee_weight_values():
    assert [lee_weight(v, 5) for v in range(5)] == [0, 1, 2, 2, 1]
    assert list(lee_weight(np.arange(7), 7)) == [0, 1, 2, 3, 3, 2, 1]
    assert lee_weight(-1, 5) == 1
    vec = np.array([0, 1, 3, 4])
    assert lee_weight_total(vec, 5) == lee_weight_oracle(vec, 5) == 4


def test_poly_basic_ops():
    p = 5
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_add([1, 2], [4, 3, 2], p) == [0, 0, 2]
    assert poly_sub([1], [1], p) == []
    assert poly_mul([1, 1], [1, 4], p) == [1, 0, 4]  # (1+x)(1+4x) = 1+5x+4x^2
    assert poly_mul([], [1, 2], p) == []


def test_poly_divmod_identity():
    rng = np.random.default_rng(6)
    p = 7
    for _ in range(100):
        a = poly_trim([int(c) for c in rng.integers(0, p, rng.integers(0, 8))])
        b = poly_trim([int(c) for c in rng.integers(0, p, rng.integers(1, 5))])
        if not b:
            continue
        q, r = poly_divmod(a, b, p)
        assert poly_add(poly_mul(q, b, p), r, p) == a
        assert len(r) < len(b)
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1, 2], [], p)


def test_poly_divide_linear():
    p = 5
    # (1 - 2x)(2 + 3x) = 2 + 4x + 4x^2 over Z_5
    assert poly_divide_linear([2, 4, 4], 2, p) == [2, 3]
    assert poly_divide_linear([1, 0, 0], 1, p) is None
    assert poly_divide_linear([], 3, p) == []


# ---------------------------------------------------------------- code build

def test_grs_frozen_4_2_5():
    params = grs_build(4, 2, 5)
    assert list(params.multipliers) == [4, 3, 2, 1]
    assert params.generator.tolist() == [[4, 3, 2, 1], [4, 1, 1, 4]]
    assert params.parity.tolist() == [[1, 1, 1, 1], [1, 2, 3, 4]]
    assert not np.any((params.generator @ params.parity.T) % 5)
    assert params.radius == 1


def test_grs_construction_errors():
    with pytest.raises(CodeConstructionError, match="prime"):
        grs_build(4, 2, 6)
    with pytest.raises(CodeConstructionError, match="l < n"):
        grs_build(4, 4, 5)
    with pytest.raises(CodeConstructionError, match="n < p"):
        grs_build(6, 2, 5)
    # n == p would give the last position locator 0 mod p
    with pytest.raises(CodeConstructionError, match="need n < p, got n=5, p=5"):
        grs_build(5, 2, 5)


def test_every_code_up_to_p_31_has_full_rank():
    # grs_build does not check the rank: for n < p the locators 1..n are
    # distinct and nonzero, so G = V diag(v) with V Vandermonde and v_i != 0
    codes = [(n, l, p) for p in range(3, 32) if is_prime(p)
             for n in range(2, p) for l in range(1, n)]
    assert len(codes) == 1450
    for n, l, p in codes:
        assert rank_mod_p_oracle(grs_build(n, l, p).generator, p) == l, (n, l, p)


def test_encode_linearity_and_shape():
    params = grs_build(6, 3, 7)
    rng = np.random.default_rng(2)
    for _ in range(50):
        m1 = rng.integers(0, 7, 3)
        m2 = rng.integers(0, 7, 3)
        lhs = encode((m1 + m2) % 7, params)
        rhs = (encode(m1, params) + encode(m2, params)) % 7
        assert np.array_equal(lhs, rhs)
    with pytest.raises(ValueError, match="length"):
        encode([1, 2], params)


def test_codebook_matches_oracle():
    params = grs_build(4, 2, 5)
    book = np.array([encode(m, params) for m in itertools.product(range(5), repeat=2)])
    oracle = codebook_oracle(params.generator, 5)
    assert len(book) == 25
    assert np.array_equal(book, oracle)
    assert min_lee_distance_oracle(oracle, 5) == 2 * (4 - 2)


def test_decode_all_patterns_within_radius_4_2_5():
    params = grs_build(4, 2, 5)
    patterns = [np.zeros(4, dtype=np.int64)] + [np.array(e) for e in lee_patterns(4, 5, params.radius)]
    assert len(patterns) == 1 + 8
    for word in codebook_oracle(params.generator, params.p):
        for e in patterns:
            noisy = (word + e) % 5
            assert np.array_equal(decode(noisy, params), word)
            assert np.array_equal(decode_brute_oracle(noisy, params), word)


def test_decode_beyond_radius_fails_4_2_5():
    params = grs_build(4, 2, 5)
    rng = np.random.default_rng(3)
    for e in lee_patterns(4, 5, 2):
        if lee_weight_total(np.array(e), 5) != 2:
            continue
        word = codebook_oracle(params.generator, params.p)[rng.integers(0, 25)]
        noisy = (word + np.array(e)) % 5
        with pytest.raises(DecodeFailure):
            decode(noisy, params)
        with pytest.raises(DecodeFailure):
            decode_brute_oracle(noisy, params)


def test_decoders_agree_on_random_words():
    params = grs_build(6, 3, 7)
    rng = np.random.default_rng(8)
    for _ in range(300):
        word = rng.integers(0, 7, 6)
        try:
            fast = decode(word, params)
            fast_fail = False
        except DecodeFailure:
            fast_fail = True
        try:
            slow = decode_brute_oracle(word, params)
            slow_fail = False
        except DecodeFailure:
            slow_fail = True
        assert fast_fail == slow_fail
        if not fast_fail:
            assert np.array_equal(fast, slow)


def test_every_small_code_corrects_its_radius():
    # every accepted code with p <= 7 (p = 2 admits none), exhaustively:
    # the minimum Lee distance backs the radius, and both decoders correct
    # every error within it
    codes = [(n, l, p) for p in (3, 5, 7) for n in range(2, p) for l in range(1, n)]
    assert len(codes) == 22
    checked = 0
    for n, l, p in codes:
        params = grs_build(n, l, p)
        assert min_lee_distance_oracle(codebook_oracle(params.generator, p), p) >= 2 * (n - l)
        word = encode(np.arange(1, l + 1), params)
        for e in lee_patterns(n, p, params.radius):
            noisy = (word + np.array(e)) % p
            assert np.array_equal(decode(noisy, params), word), (n, l, p, e)
            assert np.array_equal(decode_brute_oracle(noisy, params), word), (n, l, p, e)
            checked += 1
    assert checked == 2156


def test_zero_locator_code_roundtrip():
    # the n == p code (5,2,5) would give its last position locator 0 and is
    # rejected; its n = p - 1 replacement (4,2,5) corrects every error within
    # the radius, including errors on the last position
    with pytest.raises(CodeConstructionError, match="need n < p, got n=5, p=5"):
        grs_build(5, 2, 5)
    params = grs_build(4, 2, 5)
    assert params.radius == 1
    rng = np.random.default_rng(4)
    words = codebook_oracle(params.generator, params.p)
    patterns = [np.zeros(4, dtype=np.int64)] + [np.array(e) for e in lee_patterns(4, 5, 1)]
    for e in patterns:
        word = words[rng.integers(0, len(words))]
        noisy = (word + e) % 5
        assert np.array_equal(decode(noisy, params), word)
    word = words[7]
    for tail in (1, 4):
        e = np.zeros(4, dtype=np.int64)
        e[3] = tail
        assert np.array_equal(decode((word + e) % 5, params), word)


def words_for_every_syndrome(params):
    """One word per syndrome: the words supported on the first n - l
    positions, whose parity columns form an invertible Vandermonde block."""
    r = params.n - params.l
    grids = np.meshgrid(*[np.arange(params.p)] * r, indexing="ij")
    words = np.zeros((params.p ** r, params.n), dtype=np.int64)
    words[:, :r] = np.stack([g.ravel() for g in grids], axis=1)
    syndromes = (words @ params.parity.T) % params.p
    assert len({tuple(s) for s in syndromes.tolist()}) == params.p ** r
    return words, syndromes


def test_decode_every_syndrome_13_10_29():
    params = grs_build(13, 10, 29)
    errors = [(0,) * 13] + list(lee_patterns(13, 29, params.radius))
    assert len(errors) == 365
    leader = {tuple(((params.parity @ np.array(e)) % 29).tolist()): np.array(e)
              for e in errors}
    assert len(leader) == 365
    words, syndromes = words_for_every_syndrome(params)
    decoded = 0
    for word, s in zip(words, syndromes.tolist()):
        e = leader.get(tuple(s))
        if e is None:
            with pytest.raises(DecodeFailure):
                decode(word, params)
        else:
            assert np.array_equal(decode(word, params), (word - e) % 29)
            decoded += 1
    assert decoded == 365


def test_decode_every_syndrome_zero_locator_7_3_7():
    # the n == p code (7,3,7) is rejected; on its n = p - 1 replacement
    # (6,3,7) decode agrees with decode_brute_oracle on every syndrome
    with pytest.raises(CodeConstructionError, match="need n < p, got n=7, p=7"):
        grs_build(7, 3, 7)
    params = grs_build(6, 3, 7)
    assert len(codebook_oracle(params.generator, params.p)) == 343
    words, _ = words_for_every_syndrome(params)
    assert len(words) == 343
    decoded = 0
    for word in words:
        try:
            expected = decode_brute_oracle(word, params)
        except DecodeFailure:
            with pytest.raises(DecodeFailure):
                decode(word, params)
            continue
        assert np.array_equal(decode(word, params), expected)
        decoded += 1
    assert decoded > 0


@pytest.mark.parametrize("n,l,p", [(6, 3, 7), (13, 10, 29)])
def test_inverse_powers_table(n, l, p):
    params = grs_build(n, l, p)
    table = params.inverse_powers
    assert table.shape == (n, n - l + 1)
    assert table.dtype == np.int64
    for k in range(n):
        for j in range(n - l + 1):
            assert (int(table[k, j]) * pow(k + 1, j, p)) % p == 1
            assert 0 < table[k, j] < p


def test_decode_input_validation():
    params = grs_build(4, 2, 5)
    with pytest.raises(ValueError, match="length"):
        decode([1, 2, 3], params)


# ---------------------------------------------------------------- discretize

def test_ds_hand_values():
    spec = DiscretizationSpec(d_range=np.array([4]), f_min=np.array([0.0]),
                              f_max=np.array([1.0]))
    assert ds(np.array([-0.5]), spec)[0] == 0
    assert ds(np.array([1.5]), spec)[0] == 4
    assert ds(np.array([0.25]), spec)[0] == 1
    assert ds(np.array([0.999]), spec)[0] == 3
    assert ds(np.array([1.0]), spec)[0] == 4
    assert ds(np.array([0.0]), spec)[0] == 0


def test_ds_matches_oracle():
    rng = np.random.default_rng(9)
    spec = DiscretizationSpec(d_range=np.array([4, 22, 7]),
                              f_min=np.array([-1.0, 0.0, 3.0]),
                              f_max=np.array([1.0, 10.0, 3.5]))
    for _ in range(200):
        x = rng.uniform(-3, 13, 3)
        got = ds(x, spec)
        for j in range(3):
            assert got[j] == ds_oracle(x[j], spec.f_min[j], spec.f_max[j],
                                       int(spec.d_range[j]))
    # a block of vectors discretizes row by row
    block = rng.uniform(-3, 13, (50, 3))
    assert np.array_equal(ds(block, spec), np.array([ds(row, spec) for row in block]))


def test_ds_input_errors():
    spec = DiscretizationSpec(d_range=np.array([4]), f_min=np.array([0.0]),
                              f_max=np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        ds(np.array([np.nan]), spec)
    with pytest.raises(ValueError, match="length"):
        ds(np.array([0.1, 0.2]), spec)
    with pytest.raises(ValueError, match="length"):
        ds(np.zeros((2, 2, 1)), spec)


def test_discretization_spec_validation():
    with pytest.raises(ValueError):
        DiscretizationSpec(d_range=np.array([0]), f_min=np.array([0.0]),
                           f_max=np.array([1.0]))
    with pytest.raises(ValueError):
        DiscretizationSpec(d_range=np.array([2]), f_min=np.array([1.0]),
                           f_max=np.array([1.0]))
    with pytest.raises(ValueError):
        DiscretizationSpec(d_range=np.array([2, 2]), f_min=np.array([0.0]),
                           f_max=np.array([1.0]))


def test_assign_d_range_frozen():
    assert list(assign_d_range(np.array([1.0, 3.0]), 23)) == [22, 11]
    assert list(assign_d_range(np.ones(4), 23)) == [22, 22, 22, 22]
    # half-up rounding, not banker's: scaled 0.5 -> 1
    assert list(assign_d_range(np.array([0.0, 1.0, 22.0]), 23)) == [22, 21, 11]


def test_assign_d_range_matches_oracle():
    rng = np.random.default_rng(10)
    for p in (5, 23, 29):
        for _ in range(50):
            sig = rng.uniform(0, 4, rng.integers(1, 9))
            got = assign_d_range(sig, p)
            lo, hi = sig.min(), sig.max()
            for j in range(len(sig)):
                assert got[j] == assign_d_range_oracle(sig[j], lo, hi, p)


def test_assign_d_range_errors():
    with pytest.raises(ValueError):
        assign_d_range(np.array([]), 23)
    with pytest.raises(ValueError):
        assign_d_range(np.array([-1.0]), 23)
    with pytest.raises(ValueError):
        assign_d_range(np.array([np.nan]), 23)


def test_fit_discretization():
    rng = np.random.default_rng(11)
    values = rng.normal(0, 1, (200, 3))
    values[:, 1] *= 10.0
    values[:5, 0] = np.nan
    values[:, 2] = 4.0  # constant
    spec = fit_discretization(values, 23)
    assert spec.n == 3
    assert spec.f_min[0] == pytest.approx(np.nanpercentile(values[:, 0], 1))
    assert spec.f_max[1] == pytest.approx(np.nanpercentile(values[:, 1], 99))
    # degenerate feature gets a hair of width and the steadiest grid
    assert spec.f_max[2] == pytest.approx(4.0 + 1e-9)
    assert spec.d_range[2] == 22
    assert spec.d_range[1] == 11  # noisiest feature, coarsest grid
    with pytest.raises(ValueError):
        fit_discretization(np.full((4, 2), np.nan), 23)
    with pytest.raises(ValueError):
        fit_discretization(np.empty((0, 2)), 23)


# ---------------------------------------------------------------- prf

def test_prf_frozen_vectors():
    cw = np.array([0, 1, 28, 5, 17])
    assert derive_key(cw, "alice", 29).hex() == \
        "d8cc39aff08cb337a85b08985cba5585c9182dd7a2e020e44ac43a100f8ef7b6"
    assert derive_tag(cw, "alice", 29).hex() == \
        "e39bd0151f5441b65bfce3a872ef9957309992bec3350c5f81de0b38eff6f8b1"
    assert derive_key(cw, DEFAULT_CONTEXT, 29).hex() == \
        "49bf62a4c898e68094d341e4907090d1ae19c767ce596a0ffc196b316df51a1d"


def test_prf_matches_stdlib_recomputation():
    cw = np.array([3, 0, 11, 7])
    key_material = b"\x00\x03\x00\x00\x00\x0b\x00\x07"
    expect_key = stdlib_hmac.new(key_material, b"pw" + b"\x00", hashlib.sha256).digest()
    expect_tag = stdlib_hmac.new(key_material, b"pw" + b"\x01", hashlib.sha256).digest()
    assert derive_key(cw, "pw", 13) == expect_key
    assert derive_tag(cw, "pw", 13) == expect_tag
    assert expect_key != expect_tag


def test_prf_rejects_wide_primes():
    with pytest.raises(ValueError, match="two bytes"):
        derive_key(np.array([1, 2]), "pw", 65537)


# ---------------------------------------------------------------- commitments

@pytest.fixture(scope="module")
def code637():
    return grs_build(6, 3, 7)


def test_commit_open_roundtrip(code637):
    rng = np.random.default_rng(20)
    x = rng.integers(0, 7, 6)
    commitment, key = commit(x, "secret", params=code637, rng=rng)
    assert len(key) == 32
    assert open_commitment(commitment, x, "secret", params=code637) == key
    # any perturbation within the Lee radius still opens
    for e in lee_patterns(6, 7, code637.radius):
        y = (x + np.array(e)) % 7
        assert open_commitment(commitment, y, "secret", params=code637) == key


def test_commit_default_context(code637):
    rng = np.random.default_rng(21)
    x = rng.integers(0, 7, 6)
    commitment, key = commit(x, None, params=code637, rng=rng)
    assert open_commitment(commitment, x, None, params=code637) == key
    assert open_commitment(commitment, x, DEFAULT_CONTEXT, params=code637) == key


def test_commit_deterministic_under_seeded_rng(code637):
    x = np.arange(6) % 7
    c1, k1 = commit(x, "pw", params=code637, rng=np.random.default_rng(42))
    c2, k2 = commit(x, "pw", params=code637, rng=np.random.default_rng(42))
    assert np.array_equal(c1.delta, c2.delta)
    assert c1.tag == c2.tag and k1 == k2


def test_open_rejections_are_indistinguishable(code637):
    rng = np.random.default_rng(22)
    x = rng.integers(0, 7, 6)
    commitment, _ = commit(x, "secret", params=code637, rng=rng)

    with pytest.raises(OpenFailure) as wrong_pw:
        open_commitment(commitment, x, "SECRET", params=code637)
    far = (x + np.array([3, 3, 3, 0, 0, 0])) % 7  # Lee weight 9 > radius 2
    with pytest.raises(OpenFailure) as bad_probe:
        open_commitment(commitment, far, "secret", params=code637)
    assert type(wrong_pw.value) is type(bad_probe.value)
    assert str(wrong_pw.value) == str(bad_probe.value)

    flipped = Commitment(params_n=commitment.params_n, params_l=commitment.params_l,
                         params_p=commitment.params_p, delta=commitment.delta,
                         tag=bytes([commitment.tag[0] ^ 1]) + commitment.tag[1:])
    with pytest.raises(OpenFailure):
        open_commitment(flipped, x, "secret", params=code637)


def test_commit_input_validation(code637):
    rng = np.random.default_rng(23)
    with pytest.raises(ValueError, match="length"):
        commit(np.array([1, 2]), "pw", params=code637, rng=rng)
    with pytest.raises(ValueError, match=r"\[0, p\)"):
        commit(np.array([0, 1, 2, 3, 4, 9]), "pw", params=code637, rng=rng)


def test_open_checks_code_parameters(code637):
    rng = np.random.default_rng(24)
    x = rng.integers(0, 7, 6)
    commitment, _ = commit(x, "pw", params=code637, rng=rng)
    other = grs_build(6, 2, 7)
    with pytest.raises(ValueError, match="parameters"):
        open_commitment(commitment, x, "pw", params=other)


# ---------------------------------------------------------------- guessing

def open_table(commitments, vectors, passwords, params):
    """opened[j, i]: does user j's vector open user i's commitment, both
    axes in sorted user order."""
    users = sorted(commitments)
    opened = np.zeros((len(users), len(users)), dtype=bool)
    for j, prober in enumerate(users):
        for i, target in enumerate(users):
            try:
                open_commitment(commitments[target], vectors[prober],
                                passwords[target], params=params)
                opened[j, i] = True
            except OpenFailure:
                pass
    return users, opened


def test_guessing_distance_hand_case(code637):
    rng = np.random.default_rng(30)
    x_ab = np.array([1, 2, 3, 4, 5, 6])
    x_c = np.array([4, 5, 6, 0, 1, 2])  # far from x_ab in Lee distance
    vectors = {"A": x_ab, "B": x_ab, "C": x_c}
    passwords = {"A": "pa", "B": "pb", "C": "pc"}
    commitments = {}
    for user, vec in vectors.items():
        commitments[user], _ = commit(vec, passwords[user], params=code637, rng=rng)

    users, opens = open_table(commitments, vectors, passwords, code637)
    a, b, c = (users.index(u) for u in "ABC")
    assert opens.diagonal().all()  # own probe always opens
    assert opens[a, b] and opens[b, a]
    assert not opens[a, c] and not opens[c, a]

    report = guessing_distance(opens, users)
    assert report.distances == {"A": 0.0, "B": 0.0}  # first attempt, log2(1)
    assert report.not_guessed == ("C",)
    assert report.mean_distance == 0.0
    assert report.not_guessed_pct == pytest.approx(100.0 / 3.0)
    # the users may come in any order; ties still go by user id
    shuffled = [c, a, b]
    assert guessing_distance(opens[np.ix_(shuffled, shuffled)], ["C", "A", "B"]) == report


def test_guessing_distance_attempt_order():
    # P opens two foreign commitments, Q one, R and S none: every target is
    # tried with P first, then Q, then R and S by id
    users = ["P", "Q", "R", "S"]
    opens = np.array([[1, 0, 1, 1],
                      [0, 1, 0, 1],
                      [0, 0, 1, 0],
                      [0, 0, 0, 1]], dtype=bool)
    report = guessing_distance(opens, users)
    assert report.distances == {"R": 0.0, "S": 0.0}
    assert report.not_guessed == ("P", "Q")
    opens[2, 1] = True  # R opens Q: R ties with Q, and Q's second attempt is R
    report = guessing_distance(opens, users)
    assert report.distances == {"Q": 1.0, "R": 0.0, "S": 0.0}
    assert report.not_guessed == ("P",)


def test_guessing_distance_matches_oracle():
    rng = np.random.default_rng(33)
    for n in (2, 3, 5, 8):
        users = [f"u{k}" for k in range(n)]
        for density in (0.1, 0.3, 0.6):
            opens = rng.random((n, n)) < density
            report = guessing_distance(opens, users)
            distances, missed = guessing_distance_oracle(
                {j: {i: bool(opens[a, b]) for b, i in enumerate(users)}
                 for a, j in enumerate(users)})
            assert report.distances == distances
            assert report.not_guessed == missed


def test_guessing_distance_nobody_guessed(code637):
    rng = np.random.default_rng(31)
    vectors = {"A": np.array([0, 0, 0, 0, 0, 0]), "B": np.array([3, 3, 3, 3, 3, 3])}
    passwords = {"A": "pa", "B": "pb"}
    commitments = {u: commit(v, passwords[u], params=code637, rng=rng)[0]
                   for u, v in vectors.items()}
    users, opens = open_table(commitments, vectors, passwords, code637)
    report = guessing_distance(opens, users)
    assert report.distances == {}
    assert set(report.not_guessed) == {"A", "B"}
    assert np.isnan(report.mean_distance)
    assert report.not_guessed_pct == 100.0


def test_guessing_distance_user_mismatch(code637):
    rng = np.random.default_rng(32)
    c, _ = commit(np.zeros(6, dtype=np.int64), "pw", params=code637, rng=rng)
    # A's commitment against the probes of A and B: B has no commitment
    opens = np.zeros((2, 1), dtype=bool)
    for j, vec in enumerate([np.zeros(6), np.full(6, 3)]):
        try:
            open_commitment(c, vec, "pw", params=code637)
            opens[j, 0] = True
        except OpenFailure:
            pass
    with pytest.raises(ValueError, match="same users"):
        guessing_distance(opens, ["A", "B"])
    with pytest.raises(ValueError, match="same users"):
        guessing_distance(np.ones((2, 2), dtype=bool), ["A", "A"])
