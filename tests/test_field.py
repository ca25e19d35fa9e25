import numpy as np
import pytest

from bfglm.errors import DivisionByZero, InvalidInput
from bfglm.field import _FFT_MAX_SIZE, _FFT_MIN_LEN, Field, Rng, is_prime
from bfglm.sparse import SparseMat, horner, mat_vec

PRIMES = [101, 65537]


def test_is_prime_edges():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)
    assert is_prime(101)
    assert is_prime(65537)
    assert not is_prime(65536)
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) - 3)


def test_field_rejects_bad_modulus():
    with pytest.raises(InvalidInput):
        Field(10)
    with pytest.raises(InvalidInput):
        Field(1 << 62)


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms_bulk(p):
    # elements are plain ints in [0, p) under % p arithmetic: Field reduces
    # arrays into that range and supplies the inverse
    f = Field(p)
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, 10000)
    b = rng.integers(0, p, 10000)
    c = rng.integers(0, p, 10000)
    assert np.array_equal(f.array(a + b), (a + b) % p)
    assert np.array_equal(f.array(a - b), (a - b) % p)
    assert np.array_equal(f.array(a.astype(object) * b), (a * b) % p)
    assert np.array_equal(f.array(-c), (p - c) % p)
    for x, y in zip(a[:300], b[:300]):
        x, y = int(x), int(y)
        if y:
            assert y * f.inv(y) % p == 1
            assert x * f.inv(y) % p * y % p == x


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_of_zero_raises(p):
    f = Field(p)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        3 * f.inv(2 * p) % p


# every width of Field.exact and Field.axpy: one int64 product (101,
# 67108859), limbs of one operand (2^31 - 1, 3037000493, the largest prime
# with (p-1)^2 < 2^63), limbs of both (3037000507 up to 2^62 - 57, the
# largest prime a Field takes, whose limbs are all full)
TIER_PRIMES = [
    101, 67108859, (1 << 31) - 1, 3037000493, 3037000507, (1 << 47) - 115, (1 << 61) - 1, (1 << 62) - 57
]


def _heavy_row_oracle(triples, X, p):
    """M . X mod p on Python ints, M given by its (row, col, value) triples
    and X as a list of rows."""
    out = [[0] * len(X[0]) for _ in X]
    for r, c, v in triples:
        out[r] = [a + v * x for a, x in zip(out[r], X[c])]
    return [[a % p for a in row] for row in out]


@pytest.mark.parametrize("p", TIER_PRIMES)
def test_products_match_python_ints_at_the_accumulation_limit(p):
    # k = _acc_limit terms still fit one int64 sum and k + 1 do not; past
    # p^2 > 2^63 every product takes limbs of both operands, whose count
    # grows with k; every entry is p - 1, the largest term
    f = Field(p)
    assert f._acc_limit == (2**63 - 1) // (p - 1) ** 2
    top = p - 1
    for k in sorted({max(1, min(k, 3000)) for k in (f._acc_limit, f._acc_limit + 1)} | {2, 300}):
        A, B = np.full((3, k), top), np.full((k, 2), top)
        want = (A.astype(object) @ B.astype(object)) % p
        assert np.array_equal(f.matmul(A, B), want.astype(np.int64))
        assert f.matmul(A, B).dtype == np.int64
        a = np.full(k, top)
        want = np.convolve(a.astype(object), a.astype(object)) % p
        assert np.array_equal(f.convolve(a, a), want.astype(np.int64))
        # (p-1)(p-1) + p-1 = 0, and with an array of multipliers
        assert not f.axpy(top, a, a).any() and not f.axpy(a, a, a).any()
        assert np.array_equal(f.axpy(top, a), np.ones(k, dtype=np.int64))
        # one heavy row of k entries over a diagonal: D = k + 1 columns
        D = k + 1
        triples = [(0, c, top) for c in range(k)] + [(r, r, top) for r in range(1, D)]
        M = SparseMat.from_coo(f, D, *map(list, zip(*triples)))
        w = np.full(D, top)
        want = _heavy_row_oracle(triples, [[top]] * D, p)
        assert np.array_equal(mat_vec(M, w), np.array([row[0] for row in want]))
        W = np.full((D, 2), top)
        want = [[0, 0]] * D
        for c in (top, 0, top):
            want = [[(a + c * top) % p for a in row] for row in _heavy_row_oracle(triples, want, p)]
        got = horner(M, [top, 0, top], W)
        assert got.dtype == np.int64 and np.array_equal(got, np.array(want))


# 2^31 - 1 and 3037000493 sum at most 2 and 1 products in an int64
@pytest.mark.parametrize("p", [101, 65537, (1 << 31) - 1, 3037000493, (1 << 61) - 1])
def test_matmul_matches_object_oracle(p):
    f = Field(p)
    rng = np.random.default_rng(3)
    A = rng.integers(0, min(p, 1 << 31), (9, 17))
    B = rng.integers(0, min(p, 1 << 31), (17, 5))
    got = f.matmul(f.array(A), f.array(B))
    want = (A.astype(object) @ B.astype(object)) % p
    assert np.array_equal(np.asarray(got, dtype=object), want)


@pytest.mark.parametrize("p", [101, 65537, (1 << 61) - 1])
def test_convolve_matches_object_oracle(p):
    f = Field(p)
    rng = np.random.default_rng(4)
    a = rng.integers(0, min(p, 1 << 31), 33)
    b = rng.integers(0, min(p, 1 << 31), 21)
    got = f.convolve(f.array(a), f.array(b))
    want = np.convolve(a.astype(object), b.astype(object)) % p
    assert np.array_equal(np.asarray(got, dtype=object), want)


# one int64 product, limbs of one operand at two widths, then limbs of both
# (direct path only)
WIDE_PRIMES = [101, 67108859, (1 << 31) - 1, (1 << 61) - 1]


def _schoolbook(a, b, p):
    return np.convolve(np.asarray(a, dtype=object), np.asarray(b, dtype=object)) % p


@pytest.mark.parametrize("p", WIDE_PRIMES)
@pytest.mark.parametrize(
    "la, lb",
    [
        (_FFT_MIN_LEN, _FFT_MIN_LEN + 40),
        (_FFT_MIN_LEN + 1, _FFT_MIN_LEN + 1),
        (_FFT_MIN_LEN + 1, 3 * _FFT_MIN_LEN),
        (3, 3 * _FFT_MIN_LEN),
    ],
)
def test_convolve_across_the_fft_crossover(p, la, lb):
    f = Field(p)
    rng = np.random.default_rng(la + lb)
    a = f.array([int(x) % p for x in rng.integers(0, 1 << 62, la)])
    b = f.array([int(x) % p for x in rng.integers(0, 1 << 62, lb)])
    got = np.asarray(f.convolve(a, b), dtype=object)
    assert np.array_equal(got, _schoolbook(a, b, p))
    # worst case for the rounding error: every coefficient p - 1
    top_a, top_b = f.array([p - 1] * la), f.array([p - 1] * lb)
    got = np.asarray(f.convolve(top_a, top_b), dtype=object)
    assert np.array_equal(got, _schoolbook(top_a, top_b, p))


@pytest.mark.parametrize("p", [101, 67108859, (1 << 31) - 1, 3037000493])
def test_convolve_exact_at_the_transform_size_cap(p):
    # 3037000493 is the largest prime with (p-1)^2 < 2^63
    f = Field(p)
    n = _FFT_MAX_SIZE // 2
    top = f.array([p - 1] * n)
    got = f.convolve(top, top)
    assert len(got) == 2 * n - 1
    # (p-1)^2 = 1 mod p, so coefficient k counts the products it sums
    k = np.arange(2 * n - 1)
    assert np.array_equal(got, np.minimum(k + 1, 2 * n - 1 - k) % p)
    # the plan's own rule: a plan up to k N = 2^18, none past it
    assert f._fft_plan(1, n, n, 0, 2 * n - 1)[0] == _FFT_MAX_SIZE
    assert f._fft_plan(1, n + 1, n + 1, 0, 2 * n + 1) is None
    assert f._fft_plan(2, n, n, 0, 2 * n - 1) is None


def test_no_fft_plan_on_the_object_tier():
    assert Field((1 << 61) - 1)._fft_plan(1, 600, 600, 0, 1199) is None
    # three 16-bit limbs are exact at size 256 for 47 bits, but the int64
    # Horner of _from_spectra, (p - 1) 2^16 plus a limb sum, would overflow
    assert Field((1 << 46) - 57)._fft_plan(1, 100, 100, 0, 199) == (256, 3, 16)
    assert Field((1 << 47) - 115)._fft_plan(1, 100, 100, 0, 199) is None


@pytest.mark.parametrize("p,n", [(101, 1 << 17), (67108859, 1 << 13), (67108859, (1 << 13) + 1)])
def test_convolve_exact_at_the_limb_count_switches(p, n):
    # the largest transforms on fewer limbs: one 7-bit limb at p = 101 up to
    # size 2^18, two 13-bit limbs at 67108859 up to 2^14, three past it
    f = Field(p)
    top = f.array([p - 1] * n)
    got = f.convolve(top, top)
    k = np.arange(2 * n - 1)
    assert np.array_equal(got, np.minimum(k + 1, 2 * n - 1 - k) % p)


def test_matmul_chunking_consistent(f101):
    # a long inner axis, still within the accumulation limit at p = 101
    rng = np.random.default_rng(9)
    A = rng.integers(0, 101, (3, 5000))
    B = rng.integers(0, 101, (5000, 2))
    got = f101.matmul(f101.array(A), f101.array(B))
    want = (A.astype(object) @ B.astype(object)) % 101
    assert np.array_equal(np.asarray(got, dtype=object), want)


@pytest.mark.parametrize("p", [67108859, 3037000493])
def test_matmul_limb_chunks(p):
    # past the accumulation limit: 2 limb products at 67108859, 3 at 3037000493
    f = Field(p)
    rng = np.random.default_rng(9)
    A = rng.integers(0, p, (3, 100000))
    B = rng.integers(0, p, (100000, 2))
    got = f.matmul(A, B)
    want = (A.astype(object) @ B.astype(object)) % p
    assert np.array_equal(np.asarray(got, dtype=object), want)
    top = np.full(100000, p - 1)
    assert int(f.matmul(top, top)) == 100000 % p


@pytest.mark.parametrize("p", [67108859, (1 << 31) - 1])
@pytest.mark.parametrize("past", [0, 1])
def test_matmul_at_the_accumulation_limit(p, past):
    # inner dimension _acc_limit (one int64 product) and one more (limbs),
    # every term at its largest
    f = Field(p)
    k = f._acc_limit + past
    A, B = np.full((3, k), p - 1), np.full((k, 2), p - 1)
    want = (A.astype(object) @ B.astype(object)) % p
    assert np.array_equal(np.asarray(f.matmul(A, B), dtype=object), want)


def test_matmul_limb_recombination_cannot_overflow():
    # two terms at 3037000493 take 30-bit limbs of B; with low limbs of all
    # ones, the top product (p - 2) shifted by 30 bits plus the low product
    # passes 2**63 unless the low product is reduced mod p first
    p = 3037000493
    f = Field(p)
    A, B = np.full(2, p - 1), np.full(2, (1 << 31) - 1)
    assert int(f.matmul(A, B)) == 2 * (p - 1) * ((1 << 31) - 1) % p


@pytest.mark.parametrize("p", [(1 << 31) - 1, 3037000493])
def test_convolve_past_the_accumulation_limit_in_two_products(p, monkeypatch):
    # _acc_limit is 2 and 1 here; 400 terms need two limb products, not one
    # product per chunk of _acc_limit terms
    f = Field(p)
    calls = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
    n = 400
    top = f.array([p - 1] * n)
    got = f.convolve(top, top)
    # (p-1)^2 = 1 mod p, so coefficient k counts the products it sums
    k = np.arange(2 * n - 1)
    assert np.array_equal(got, np.minimum(k + 1, 2 * n - 1 - k) % p)
    assert len(calls) <= 2


def test_rng_determinism(f101):
    a = Rng(12345)
    b = Rng(12345)
    assert [a.element(f101) for _ in range(20)] == [b.element(f101) for _ in range(20)]
    assert np.array_equal(a.block(f101, 4, 3), b.block(f101, 4, 3))
    ca, cb = a.child(), b.child()
    assert [ca.element(f101) for _ in range(5)] == [cb.element(f101) for _ in range(5)]


def test_rng_ranges(f101):
    rng = Rng(6)
    vals = [rng.element(f101) for _ in range(500)]
    assert all(0 <= v < 101 for v in vals)
    nz = [rng.nonzero_element(f101) for _ in range(500)]
    assert all(1 <= v < 101 for v in nz)
    perm = rng.permutation(10)
    assert sorted(perm.tolist()) == list(range(10))


def test_sample_block_shape(f101):
    B = Rng(1).block(f101, 7, 3)
    assert B.shape == (7, 3)
    assert int(B.min()) >= 0 and int(B.max()) < 101
