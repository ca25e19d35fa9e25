import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfglm.errors import DivisionByZero, InsufficientTerms, NotCoprime, NotInvertible
from bfglm.field import Field
from bfglm.unipoly import (
    ModularProduct,
    Poly,
    TransposedProduct,
    _fit,
    _remainders,
    berlekamp_massey,
    charpoly_from_power_sums,
    crt_pair,
    laurent_expand,
    power_projection,
    rational_reconstruct,
    squarefree_part,
    transposed_modmul,
)

from oracles import euclid_remainders, power_projection_naive, scalar_numerator_direct

F = Field(101)


def P(*coeffs):
    """Poly from low-to-high coefficients over F_101."""
    return Poly(F, coeffs)


coeff_lists = st.lists(st.integers(0, 100), min_size=0, max_size=8)


def test_construction_and_trim():
    assert P(1, 2, 0, 0).degree == 1
    assert P().is_zero()
    assert P(0, 0).is_zero()
    assert Poly.zero(F).degree == -1
    assert Poly.one(F).is_one()
    assert Poly.x(F) == P(0, 1)
    assert Poly.constant(F, 205) == P(3)


def test_basic_arithmetic():
    a = P(1, 2, 3)
    b = P(5, 0, 0, 7)
    assert a + b == P(6, 2, 3, 7)
    assert a - a == Poly.zero(F)
    assert (-a) + a == Poly.zero(F)
    assert a * Poly.zero(F) == Poly.zero(F)
    assert a * Poly.one(F) == a
    assert P(0, 1) * P(0, 1) == P(0, 0, 1)
    assert a.scale(2) == P(2, 4, 6)
    assert a.truncate(2) == P(1, 2)


def test_quo_rem_fixture():
    # (T^2+8T+61) = (T+3)(T+5) + 46 over F_101
    q, r = P(61, 8, 1).quo_rem(P(3, 1))
    assert q == P(5, 1)
    assert r == P(46)
    with pytest.raises(DivisionByZero):
        P(1, 1).quo_rem(Poly.zero(F))


def test_gcd_fixture():
    # gcd((T-2)(T-7), (T-2)(T-9)) = T - 2 = T + 99
    a = P(14, 92, 1)
    b = P(18, 90, 1)
    assert a.gcd(b) == P(99, 1)
    g, u = a.xgcd(b)
    v, r = (g - u * a).quo_rem(b)
    assert r.is_zero()
    assert u * a + v * b == g


def test_modinv_and_modmul():
    m = P(61, 8, 1)
    a = P(7, 3)
    inv = a.modinv(m)
    assert a.modmul(inv, m).is_one()
    with pytest.raises(NotInvertible):
        P(99, 1).modinv(P(14, 92, 1))


def test_eval_and_derivative():
    q = P(61, 8, 1)
    assert q.eval(33) == 0
    assert q.eval(60) == 0
    assert q.eval(0) == 61
    assert P(7, 5, 3).derivative() == P(5, 6)


@pytest.mark.parametrize("p", [101, 67108859, 2**61 - 1])
def test_eval_on_an_array_matches_scalar_eval(p):
    f = Field(p)
    rng = np.random.default_rng(3)
    q = Poly(f, rng.integers(0, p, 40))
    xs = f.array(rng.integers(0, p, (3, 5)))
    want = [[sum(int(c) * pow(x, i, p) for i, c in enumerate(q.c)) % p for x in row] for row in xs.tolist()]
    got = q.eval(xs)
    assert got.shape == (3, 5) and got.tolist() == want
    scalar = [[q.eval(x) for x in row] for row in xs.tolist()]
    assert scalar == want and all(type(v) is int for row in scalar for v in row)
    assert Poly.zero(f).eval(xs).tolist() == [[0] * 5] * 3


def test_series_inv():
    a = P(1, 7, 9, 2)
    inv = a.series_inv(10)
    assert (a * inv).truncate(10).is_one()


def test_berlekamp_massey_fibonacci():
    fib = [1, 1, 2, 3, 5, 8, 13, 21]
    m = berlekamp_massey(fib, F, 2)
    assert m == P(100, 100, 1)
    with pytest.raises(InsufficientTerms):
        berlekamp_massey(fib[:3], F, 2)


def test_berlekamp_massey_constant_and_zero():
    assert berlekamp_massey([5, 5, 5, 5], F, 2) == P(100, 1)
    assert berlekamp_massey([0, 0, 0, 0], F, 2).is_one()


def test_scalar_numerator_fibonacci():
    m = P(100, 100, 1)
    assert scalar_numerator_direct([1, 1], F, m) == Poly.x(F)


def test_two_point_weighted_sequence():
    # ell_s = 17*1^s + 33*3^s, minimal poly (T-1)(T-3)
    seq = [(17 + 33 * pow(3, s, 101)) % 101 for s in range(8)]
    m = berlekamp_massey(seq, F, 2)
    assert m == P(3, 97, 1)
    num = scalar_numerator_direct(seq[:2], F, m)
    assert num == P(17, 50)
    assert laurent_expand(num, m, 8) == seq


def test_laurent_expand_roundtrip_random():
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        den = Poly(F, list(rng.integers(0, 101, d)) + [1])
        num = Poly(F, rng.integers(0, 101, d))
        seq = laurent_expand(num, den, 2 * d + 3)
        assert scalar_numerator_direct(seq[:d], F, den) == num


def test_crt_pair():
    q1 = P(99, 1)  # T - 2
    q2 = P(96, 1)  # T - 5
    [a] = crt_pair([P(7)], q1, [P(11)], q2)
    assert a.eval(2) == 7
    assert a.eval(5) == 11
    with pytest.raises(NotCoprime):
        crt_pair([P(7)], q1, [P(11)], q1)


def test_crt_pair_lifts_every_pair_with_one_cofactor():
    q1 = P(99, 1) * P(98, 1)  # (T - 2)(T - 3)
    q2 = P(96, 1)  # T - 5
    lifted = crt_pair([P(7), P(1, 1), P(0)], q1, [P(11), P(4), P(9)], q2)
    for r, (a1, a2) in zip(lifted, [(P(7), P(11)), (P(1, 1), P(4)), (P(0), P(9))]):
        assert r.degree < 3
        assert r % q1 == a1 % q1 and r % q2 == a2 % q2
    # the coprimality check runs even with no pair to lift
    with pytest.raises(NotCoprime):
        crt_pair([], q1, [], P(99, 1))


def test_squarefree_part():
    cube = P(96, 1) * P(96, 1) * P(96, 1)
    assert squarefree_part(cube) == P(96, 1)
    q = P(61, 8, 1)
    assert squarefree_part(q) == q
    assert squarefree_part(q.scale(3)) == q


def test_transposed_modmul_is_transpose_of_multiplication():
    rng = np.random.default_rng(5)
    m = Poly(F, list(rng.integers(0, 101, 6)) + [1])
    g = Poly(F, rng.integers(0, 101, 6))
    ell = [int(v) for v in rng.integers(0, 101, 6)]
    moved = transposed_modmul(g, ell, m)
    for _ in range(10):
        b = Poly(F, rng.integers(0, 101, 6))
        gb = g.modmul(b, m)
        lhs = sum(ell[i] * gb.coeff(i) for i in range(6)) % 101
        rhs = sum(int(moved[i]) * b.coeff(i) for i in range(6)) % 101
        assert lhs == rhs


@pytest.mark.parametrize("t", [1, 2, 5, 16, 40])
def test_power_projection_matches_naive(t):
    rng = np.random.default_rng(t)
    m = Poly(F, list(rng.integers(0, 101, 5)) + [1])
    h = Poly(F, rng.integers(0, 101, 5))
    ell = [int(v) for v in rng.integers(0, 101, 5)]
    assert power_projection(m, h, [ell], t)[0].tolist() == power_projection_naive(m, h, ell, t)


def test_power_projection_edges():
    m = P(61, 8, 1)
    ell = [3, 7]
    zero = Poly.zero(F)
    assert power_projection(m, zero, [ell], 4)[0].tolist() == power_projection_naive(m, zero, ell, 4)
    x = Poly.x(F)
    assert power_projection(m, x, [ell], 6)[0].tolist() == power_projection_naive(m, x, ell, 6)


def test_rational_reconstruct():
    den = P(61, 8, 1)
    num = P(5, 9)
    prec = 7
    series = (num * den.series_inv(prec)).truncate(prec)
    got = rational_reconstruct(series, prec, 2, 2)
    assert got is not None
    n, d = got
    assert d == den and n == num
    # inconsistent input gives None
    bad = series + Poly(F, [0, 0, 0, 0, 0, 0, 1])
    assert rational_reconstruct(bad, prec, 1, 1) is None


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_ring_properties(a, b, c):
    pa, pb, pc = Poly(F, a), Poly(F, b), Poly(F, c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_division_identity(a, b):
    pa, pb = Poly(F, a), Poly(F, b)
    if pb.is_zero():
        return
    q, r = pa.quo_rem(pb)
    assert q * pb + r == pa
    assert r.degree < pb.degree


@given(coeff_lists, coeff_lists)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(a, b):
    pa, pb = Poly(F, a), Poly(F, b)
    g = pa.gcd(pb)
    if g.is_zero():
        assert pa.is_zero() and pb.is_zero()
        return
    assert (pa % g).is_zero()
    assert (pb % g).is_zero()
    assert g.lead() == 1


# -- the fast paths, against loop references --------------------------------

# one int64 product, limbs of one operand at two widths, then limbs of both
# (direct convolutions, no FFT)
WIDE_PRIMES = [101, 67108859, (1 << 31) - 1, (1 << 61) - 1]


def _rand(field, n, rng, nonzero_lead=False):
    c = [int(x) % field.p for x in rng.integers(0, 1 << 62, n)]
    if nonzero_lead and n:
        c[-1] = c[-1] or 1
    return c


def _quo_rem_reference(a, b, p):
    """Long division on Python ints."""
    r = list(a)
    d = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * (len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i] * inv % p
        q[i - d] = c
        for j in range(d + 1):
            r[i - d + j] = (r[i - d + j] - c * b[j]) % p
    return q, r[:d]


def _laurent_reference(A, F, k):
    """v_s from A = F * sum_s v_s T^-(s+1), one term at a time."""
    p, r = F.field.p, F.degree
    inv_lc = pow(F.lead(), p - 2, p)
    v = []
    for s in range(k):
        if s < r:
            acc = A.coeff(r - 1 - s) - sum(F.coeff(r - s + j) * v[j] for j in range(s))
        else:
            acc = -sum(F.coeff(i) * v[s - r + i] for i in range(r))
        v.append(acc * inv_lc % p)
    return v


def _berlekamp_massey_reference(terms, p):
    """Connection polynomial of the shortest recurrence, on Python lists."""
    C, B = [1], [1]
    L, m, b = 0, 1, 1
    for n, tn in enumerate(terms):
        d = (tn + sum(C[i] * terms[n - i] for i in range(1, L + 1))) % p
        if d == 0:
            m += 1
            continue
        coef = d * pow(b, p - 2, p) % p
        T = C[:]
        C = C + [0] * max(0, len(B) + m - len(C))
        for i, bi in enumerate(B):
            C[i + m] = (C[i + m] - coef * bi) % p
        if 2 * L <= n:
            L, B, b, m = n + 1 - L, T, d, 1
        else:
            m += 1
    return [C[L - i] if L - i < len(C) else 0 for i in range(L + 1)]


@pytest.mark.parametrize("p", WIDE_PRIMES)
@pytest.mark.parametrize("d", [5, 600])
def test_quo_rem_matches_long_division(p, d):
    f = Field(p)
    rng = np.random.default_rng(d)
    b = _rand(f, d + 1, rng, nonzero_lead=True)
    b[-1] = max(2, b[-1])  # non-monic
    divisor = Poly(f, b)
    # short quotient lengths, then a long one; the divisor keeps its cached
    # inverse and extends it as k grows
    for k in [7, 8, 9, 700, 10]:
        a = _rand(f, d + k, rng, nonzero_lead=True)
        q, r = Poly(f, a).quo_rem(divisor)
        q_ref, r_ref = _quo_rem_reference(a, b, p)
        assert q == Poly(f, q_ref)
        assert r == Poly(f, r_ref)


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_laurent_expand_matches_recurrence(p):
    f = Field(p)
    rng = np.random.default_rng(7)
    r = 250
    den = Poly(f, _rand(f, r + 1, rng, nonzero_lead=True))
    num = Poly(f, _rand(f, r, rng))
    for k in [r - 37, r, 2 * r + 13]:
        assert laurent_expand(num, den, k) == _laurent_reference(num, den, k)


@pytest.mark.parametrize("p, r", [(p, 200) for p in WIDE_PRIMES] + [(67108859, 600)])
def test_power_projection_matches_naive_at_large_degree(p, r):
    # r = 600 takes every series product through the FFT
    f = Field(p)
    rng = np.random.default_rng(r)
    m = Poly(f, _rand(f, r + 1, rng, nonzero_lead=True))
    h = Poly(f, _rand(f, r, rng))
    ell = _rand(f, r, rng)
    t = 2 * r + 37
    naive = power_projection_naive(m, h, ell, t + 1)
    assert power_projection(m, h, [ell], t)[0].tolist() == naive[:t]
    # transposing the product by h shifts the projected power sequence
    moved = transposed_modmul(h, ell, m)
    assert power_projection_naive(m, h, moved, 20) == naive[1:21]


@pytest.mark.parametrize("p", [101, 67108859, (1 << 61) - 1])
@pytest.mark.parametrize("k", [1, 4, 12])
@pytest.mark.parametrize("t", [23, 60, 97])
def test_power_projection_of_a_block_matches_naive(p, k, t):
    # r = 30: t below 2r, at 2r, and past it through the recurrence tail
    f = Field(p)
    rng = np.random.default_rng(k * t)
    m = Poly(f, _rand(f, 31, rng, nonzero_lead=True))
    h = Poly(f, _rand(f, 30, rng))
    ells = [_rand(f, 30, rng) for _ in range(k)]
    got = power_projection(m, h, f.array(ells), t)
    assert got.shape == (k, t)
    for row, ell in zip(got, ells):
        assert [int(x) for x in row] == power_projection_naive(m, h, ell, t)


def test_power_projection_shares_one_baby_step_table(monkeypatch):
    # four forms of length 2r: one table of nb = ceil(sqrt(2r)) baby steps
    # (nb modular products with the giant step's H^nb) and at most 4 ceil(2r/nb)
    # transposed products; a loop over the forms would build four tables
    import math

    from bfglm import unipoly

    f = Field(67108859)
    rng = np.random.default_rng(5)
    r = 50
    nb = math.isqrt(2 * r - 1) + 1
    m = Poly(f, _rand(f, r + 1, rng, nonzero_lead=True))
    h = Poly(f, _rand(f, r, rng))
    ells = f.array([_rand(f, r, rng) for _ in range(4)])
    want = [power_projection_naive(m, h, ell, 2 * r) for ell in ells]
    calls = {"modular": 0, "transposed": 0}
    modular, transposed = unipoly.ModularProduct.__call__, unipoly.TransposedProduct.__call__

    def counting_modular(*args):
        calls["modular"] += 1
        return modular(*args)

    def counting_transposed(*args):
        calls["transposed"] += 1
        return transposed(*args)

    monkeypatch.setattr(unipoly.ModularProduct, "__call__", counting_modular)
    monkeypatch.setattr(unipoly.TransposedProduct, "__call__", counting_transposed)
    got = power_projection(m, h, ells, 2 * r)
    assert got.tolist() == want
    assert calls["modular"] == nb
    assert 0 < calls["transposed"] <= 4 * math.ceil(2 * r / nb)


def _transposed_reference(G, ell, F):
    """The transposed product as three full convolutions: the generated
    sequence ext extended to r + len(G) - 1 terms, then the middle product."""
    f = F.field
    r, g = F.degree, G.c
    n = r + len(g) - 1
    N = f.convolve(F.c[::-1], ell)[:r]
    ext = _fit(f.convolve(N, F._rev_inv(n)), n, f)
    return f.convolve(ext, g[::-1])[len(g) - 1 : n]


@pytest.mark.parametrize(
    "p, r, nl",
    # transforms of 2 limbs, then of 3: 268435399 < 2^28 switches past
    # size 4096, 67108859 past 16384; r = 40 and 2^61 - 1 convolve
    [(268435399, 2000, 2), (268435399, 2100, 3), (67108859, 8000, 2), (67108859, 8300, 3),
     (67108859, 40, None), ((1 << 61) - 1, 40, None)],
)
def test_transposed_product_matches_three_convolutions(p, r, nl):
    f = Field(p)
    rng = np.random.default_rng(r)
    m = Poly(f, _rand(f, r + 1, rng, nonzero_lead=True))
    if nl is not None:
        assert f._fft_plan(1, r, r, 0, r)[1] == nl
        assert f._fft_plan(1, 2 * r - 1, r, r - 1, 2 * r - 1)[1] == nl
    ell = f.array(_rand(f, r, rng))
    # a full-length multiplier, a short one, a constant and zero
    for lg in [r, r // 3, 1, 0]:
        g = Poly(f, _rand(f, lg, rng, nonzero_lead=True))
        got = TransposedProduct(g, m)(ell)
        want = _transposed_reference(g, ell, m) if lg else f.zeros(r)
        assert np.array_equal(np.asarray(got, dtype=object), np.asarray(want, dtype=object))
        assert transposed_modmul(g, ell, m) == [int(x) for x in want]
        # and the product it transposes, on the same operands
        assert Poly._raw(f, ModularProduct(g, m)(ell)) == g.modmul(Poly(f, ell), m)


@pytest.mark.parametrize("p", [101, (1 << 61) - 1])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_modular_product_of_short_moduli(p, r):
    # r = 1 has no quotient term to take
    f = Field(p)
    rng = np.random.default_rng(r)
    m = Poly(f, _rand(f, r + 1, rng, nonzero_lead=True))
    a = f.array(_rand(f, r, rng))
    for lg in [r, 1, 0]:
        g = Poly(f, _rand(f, lg, rng, nonzero_lead=True))
        assert Poly._raw(f, ModularProduct(g, m)(a)) == g.modmul(Poly(f, a), m)


def test_power_projection_takes_each_fixed_spectrum_once(monkeypatch):
    # r = 600: every product of a baby or giant step runs on the FFT, whose
    # fixed factors are transformed once for all steps and forms: H,
    # rev(F)^{-1} mod T^(r-1) and F mod T^r of the baby steps, rev(F) mod
    # T^r, rev(F)^{-1} and rev(G) of the giant steps
    import math
    from collections import Counter

    from bfglm import field as field_mod

    f = Field(67108859)
    rng = np.random.default_rng(8)
    r, k, t = 600, 3, 601
    m = Poly(f, _rand(f, r + 1, rng, nonzero_lead=True))
    h = Poly(f, _rand(f, r, rng))
    ells = f.array([_rand(f, r, rng) for _ in range(k)])
    nb = math.isqrt(2 * r - 1) + 1
    giant = Poly.one(f)
    for _ in range(nb):
        giant = giant.modmul(h, m)
    fixed = [h.c, m._rev_inv(r - 1), m.c[:r], m.c[::-1][:r], m._rev_inv(r + giant.degree), giant.c[::-1]]
    seen = Counter()
    spectra = field_mod.Field._spectra

    def counting(self, x, plan):
        seen[x.tobytes()] += 1
        return spectra(self, x, plan)

    monkeypatch.setattr(field_mod.Field, "_spectra", counting)
    got = power_projection(m, h, ells, t)
    # H mod F = H is also the table's row 1, which the next step transforms
    assert [seen[np.ascontiguousarray(x).tobytes()] for x in fixed] == [2, 1, 1, 1, 1, 1]
    # several giant steps, each taken by every form
    assert math.ceil(t / nb) - 1 > 1
    for row, ell in zip(got, ells):
        assert [int(x) for x in row] == power_projection_naive(m, h, ell, t)


@pytest.mark.parametrize("p", WIDE_PRIMES + [3037000493])
def test_charpoly_from_power_sums(p):
    f = Field(p)
    rng = np.random.default_rng(3)
    roots = _rand(f, 30, rng) + [0, 0]
    want = Poly.one(f)
    for a in roots:
        want = want * Poly(f, [-a % p, 1])
    sums = [sum(pow(a, s, p) for a in roots) % p for s in range(len(roots) + 1)]
    assert charpoly_from_power_sums(sums, f) == want


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_berlekamp_massey_long_recurrence(p):
    f = Field(p)
    rng = np.random.default_rng(11)
    r = 220
    gen = Poly(f, _rand(f, r, rng) + [1])
    # impulse response of gen: its minimal polynomial is gen itself
    seq = [0] * (r - 1) + [1]
    while len(seq) < 2 * r:
        seq.append(-sum(gen.coeff(i) * seq[len(seq) - r + i] for i in range(r)) % p)
    assert berlekamp_massey(seq, f, r) == gen
    noise = _rand(f, 2 * r, rng)
    got = berlekamp_massey(noise, f, r)
    assert [got.coeff(i) for i in range(got.degree + 1)] == _berlekamp_massey_reference(noise, p)


# 2^61 - 1 takes axpy's object path
EUCLID_PRIMES = [101, 65537, 67108859, (1 << 31) - 1, (1 << 61) - 1]


def _euclid_pairs(f, rng):
    """Random pairs, lacunary pairs (non-normal remainder sequences), pairs
    with a common factor, zero operands, and deg a < deg b."""

    def lacunary(n):
        return [c if rng.random() < 0.15 else 0 for c in _rand(f, n, rng, nonzero_lead=True)]

    g = Poly(f, _rand(f, 5, rng, nonzero_lead=True))
    common = [(Poly(f, _rand(f, 30, rng)) * g).c.tolist(), (Poly(f, _rand(f, 22, rng)) * g).c.tolist()]
    return [
        (_rand(f, 40, rng), _rand(f, 33, rng)),
        (_rand(f, 12, rng), _rand(f, 25, rng)),
        (lacunary(45), lacunary(32)),
        ([1] + [0] * 19 + [1], [0, 0, 3] + [0] * 7 + [1]),
        common,
        ([], _rand(f, 9, rng, nonzero_lead=True)),
        (_rand(f, 9, rng, nonzero_lead=True), []),
        ([], []),
    ]


@pytest.mark.parametrize("p", EUCLID_PRIMES)
def test_remainders_match_the_long_division_euclid(p):
    f = Field(p)
    rng = np.random.default_rng(p % 1009)
    for a, b in _euclid_pairs(f, rng):
        # the whole sequence, then stops between the two degrees and below
        degs = sorted({len(a) - 1, len(b) - 1})
        for stop in sorted({-1, 0, degs[0] // 2, (degs[0] + degs[-1]) // 2, max(degs[-1] - 1, -1)}):
            ref = euclid_remainders(a, b, p, stop)
            got = _remainders(f.array(a), f.array(b), f, stop, cofactor=True)
            assert [x.tolist() for x in got] == list(ref)
            plain = _remainders(f.array(a), f.array(b), f, stop)
            assert [x if x is None else x.tolist() for x in plain] == [ref[0], None, ref[2], None]
        A, B = Poly(f, a), Poly(f, b)
        g, s = A.xgcd(B)
        assert g == A.gcd(B)
        if not B.is_zero():
            # the cofactor is already reduced mod b, as modinv and crt_pair use it
            assert s.degree < B.degree - g.degree
            assert ((s * A - g) % B).is_zero()
