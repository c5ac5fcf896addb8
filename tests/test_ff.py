import random
from math import gcd

import numpy as np
import pytest

import _field_referee as referee
from hypergf import Q_CAP, FieldError, make_field, odd_prime_powers
from hypergf.ff import _find_modulus, is_prime, numpy_tables, prime_factors


def test_make_field_f5(field):
    ctx = field(5)
    assert (ctx.p, ctx.r, ctx.q) == (5, 1, 5)
    assert ctx.gen == 2          # smallest element of order 4
    assert ctx.log.item(4) == 2      # 2**2 = 4
    assert ctx.log.item(1) == 0
    assert ctx.log.item(2) == 1      # log(gen**k) = k
    assert ctx.modulus == (0, 1)


@pytest.mark.parametrize("p,r", [(4, 1), (2, 3)])
def test_even_characteristic_rejected(p, r):
    with pytest.raises(FieldError, match="odd|prime"):
        make_field(p, r)


def test_composite_and_bad_degree_rejected():
    with pytest.raises(FieldError, match="prime"):
        make_field(9)
    with pytest.raises(FieldError, match="degree"):
        make_field(5, 0)


def test_cap_enforced(monkeypatch):
    assert Q_CAP == 2 ** 16
    # the cap is fixed: the environment does not set it
    for env in (None, "100", "abc"):
        if env is not None:
            monkeypatch.setenv("HYPERGF_Q_CAP", env)
        with pytest.raises(FieldError, match="cap"):
            make_field(257, 2)       # 66049 > 2**16
        assert make_field(251, 2).q == 63001   # just inside the cap
        assert make_field(101).q == 101


def test_f9_modulus_and_square_root_of_minus_one(field):
    ctx = field(3, 2)
    assert ctx.modulus == (1, 0, 1)          # t^2 + 1 is the lex-smallest
    t = ctx.from_coeffs((0, 1))
    assert ctx.mul(t, t) == ctx.neg(ctx.one)  # t*t = -1
    assert ctx.coeffs(ctx.gen) == (1, 1)


def test_extension_moduli_are_lex_smallest(field):
    assert field(5, 2).modulus == (1, 1, 1)
    assert field(3, 3).modulus == (1, 0, 2, 1)
    assert field(7, 2).modulus == (1, 0, 1)
    assert field(3, 4).modulus == (1, 0, 1, 1, 1)


def test_modulus_search_equals_the_full_search():
    # ff skips the candidates and trial divisors that t divides; the
    # referee tries every monic polynomial from code 0 on
    extensions = [(p, r) for p, r in odd_prime_powers(Q_CAP) if r > 1]
    assert len(extensions) == 78
    for p, r in extensions:
        assert _find_modulus(p, r) == referee.find_modulus(p, r), (p, r)


def test_elements_order(field):
    # codes enumerate coefficient tuples lexicographically
    assert [field(5).coeffs(x) for x in range(5)] == [(0,), (1,), (2,), (3,), (4,)]
    ctx = field(3, 2)
    assert [ctx.coeffs(x) for x in range(4)] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert ctx.coeffs(8) == (2, 2)


def test_prime_field_arithmetic(field):
    ctx = field(5)
    assert ctx.inv(3) == 2
    assert ctx.neg(1) == 4
    assert ctx.add(3, 4) == 2
    assert ctx.sub(1, 3) == 3
    assert ctx.mul(3, 4) == 2
    assert referee.power(ctx, 2, 10) == 4  # 1024 mod 5
    assert referee.power(ctx, 0, 7) == 0
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_extension_field_laws(field):
    ctx = field(3, 3)
    xs = list(range(ctx.q))
    for x in xs:
        assert ctx.add(x, ctx.neg(x)) == 0
        if x:
            assert ctx.mul(x, ctx.inv(x)) == ctx.one
    # spot associativity/distributivity on a grid
    sample = xs[::5] + [ctx.one, ctx.gen]
    for a in sample:
        for b in sample:
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in sample[:4]:
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@pytest.mark.parametrize("p,r", odd_prime_powers(121))
def test_generator_completeness(p, r, field):
    ctx = field(p, r)
    q = ctx.q
    powers = {referee.power(ctx, ctx.gen, k) for k in range(q - 1)}
    assert powers == set(range(1, q))
    assert referee.power(ctx, ctx.gen, (q - 1) // 2) == ctx.neg(ctx.one)


@pytest.mark.parametrize("p,r", [(5, 1), (13, 1), (3, 2), (7, 2), (3, 3)])
def test_dlog_is_homomorphism(p, r, field):
    ctx = field(p, r)
    n, log = ctx.q - 1, ctx.log.item
    for x in range(1, ctx.q):
        for y in range(1, ctx.q):
            assert log(ctx.mul(x, y)) == (log(x) + log(y)) % n


def test_make_field_is_pure():
    a = make_field(3, 2)
    b = make_field(3, 2)
    assert a.modulus == b.modulus
    assert a.gen == b.gen
    assert np.array_equal(a.exp, b.exp)
    assert np.array_equal(a.log, b.log)


def test_element_coercion(field):
    ctx = field(5)
    assert ctx.element(-1) == 4
    assert ctx.element(7) == 2
    ext = field(3, 2)
    assert ext.element((1, 2)) == ext.from_coeffs((1, 2))
    assert ext.element(-1) == ext.neg(ext.one)
    with pytest.raises(FieldError):
        ext.from_coeffs((1, 2, 1))


def test_number_theory_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(48) == [2, 3]
    assert odd_prime_powers(13) == [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]
    # is_prime against the sieve
    primes = [2] + [p for p, r in odd_prime_powers(5000) if r == 1]
    assert [n for n in range(5001) if is_prime(n)] == primes
    assert not any(is_prime(n) for n in (-1, -2, -3, -7, -65521))
    assert is_prime(65519) and is_prime(65521)      # the two largest primes below 2**16
    assert not is_prime(65519 * 65521)


def test_odd_prime_powers_sieve_matches_trial_division():
    # the listing by is_prime, sorted by q, is a prefix at each smaller limit
    def listing(limit):
        pairs = []
        for p in (p for p in range(3, limit + 1, 2) if is_prime(p)):
            r = 1
            while p ** r <= limit:
                pairs.append((p, r))
                r += 1
        return sorted(pairs, key=lambda pr: pr[0] ** pr[1])

    pairs = listing(2000)
    for limit in range(-2, 2001):
        assert odd_prime_powers(limit) == [pr for pr in pairs if pr[0] ** pr[1] <= limit], limit
    assert odd_prime_powers(65536) == listing(65536)


# ---------------------------------------------------------------------------
# the doubling fill against the per-element referee
# ---------------------------------------------------------------------------

def _same_as_referee(ctx, generator=None):
    modulus, gen, exp, log = referee.referee_field(ctx.p, ctx.r, generator)
    assert (ctx.modulus, ctx.gen) == (modulus, gen)
    assert ctx.exp.tolist() == exp
    assert ctx.log.tolist() == [0] + log[1:]


def test_fill_equals_referee_for_every_small_field():
    for p, r in odd_prime_powers(1000):
        _same_as_referee(make_field(p, r))


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_re_indexed_generator_equals_referee(p, r):
    # every generator gen**u of the field, re-indexed from the default one
    ctx = make_field(p, r)
    n = ctx.q - 1
    for u in (u for u in range(1, n) if gcd(u, n) == 1):
        alt = referee.with_generator(ctx, u)
        assert alt.gen == referee.power(ctx, ctx.gen, u)
        _same_as_referee(alt, alt.gen)


@pytest.mark.parametrize("p,r", [(65521, 1), (3, 10), (7, 5)])
def test_fill_at_large_fields(p, r):
    ctx = make_field(p, r)
    q = ctx.q
    assert np.array_equal(np.sort(ctx.exp), np.arange(1, q))
    assert np.array_equal(ctx.log[ctx.exp], np.arange(q - 1))
    rng = random.Random(p * 100 + r)
    for k in [0, q - 2] + rng.sample(range(q - 2), 40):
        step = referee.mul_codes(p, ctx.modulus, ctx.exp.item(k), ctx.gen)
        assert step == ctx.exp.item((k + 1) % (q - 1))


def test_one_store_read_only(field):
    for ctx in (field(13), field(3, 2)):
        t = numpy_tables(ctx)
        assert t.log_ is ctx.log
        assert ctx.log.dtype == ctx.exp.dtype == np.int64
        assert (len(ctx.exp), len(ctx.log), ctx.log[0]) == (ctx.q - 1, ctx.q, 0)
        for arr in (ctx.exp, ctx.log, t.mlog, t.mexp):
            with pytest.raises(ValueError):
                arr[1] = 0
        assert type(ctx.mul(2, 3)) is int


# ---------------------------------------------------------------------------
# the kernels, which the scalar methods call too, against the referees:
# digit-wise sums through the codec and schoolbook products
# ---------------------------------------------------------------------------

def _digitwise(ctx, a, b, sign):
    return ctx.from_coeffs([ca + sign * cb for ca, cb in zip(ctx.coeffs(a), ctx.coeffs(b))])


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (5, 2), (3, 3)])
def test_vmul_equals_scalar_mul_on_every_pair(p, r, field):
    ctx = field(p, r)
    codes = np.arange(ctx.q)
    expected = [[referee.mul_codes(p, ctx.modulus, a, b) for b in range(ctx.q)]
                for a in range(ctx.q)]
    assert numpy_tables(ctx).vmul(codes[:, None], codes[None, :]).tolist() == expected
    assert [[ctx.mul(a, b) for b in range(ctx.q)] for a in range(ctx.q)] == expected
    assert type(ctx.mul(2, 2)) is int


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (5, 2), (3, 3), (5, 3)])
def test_vadd_vsub_equal_scalar_on_every_pair(p, r, field):
    # prime fields add residues, extensions go through products
    ctx = field(p, r)
    t, codes = numpy_tables(ctx), np.arange(ctx.q)
    pairs = [(a, b) for a in range(ctx.q) for b in range(ctx.q)]
    for vop, op, sign in ((t.vadd, ctx.add, 1), (t.vsub, ctx.sub, -1)):
        expected = [_digitwise(ctx, a, b, sign) for a, b in pairs]
        assert vop(codes[:, None], codes[None, :]).ravel().tolist() == expected
        assert [op(a, b) for a, b in pairs] == expected
    negated = [_digitwise(ctx, 0, a, -1) for a in range(ctx.q)]
    assert t.neg_.tolist() == [ctx.neg(a) for a in range(ctx.q)] == negated
    assert t.one_minus.tolist() == [_digitwise(ctx, ctx.one, a, -1) for a in range(ctx.q)]
    assert all(type(op(2, 1)) is int for op in (ctx.add, ctx.sub))
    assert type(ctx.neg(2)) is int


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (3, 3)])
def test_vinv_equals_scalar_inv_and_refuses_zero(p, r, field):
    ctx = field(p, r)
    t = numpy_tables(ctx)
    nonzero = np.arange(1, ctx.q)
    inverses = t.vinv(nonzero).tolist()
    assert inverses == [ctx.inv(a) for a in range(1, ctx.q)]
    assert all(referee.mul_codes(p, ctx.modulus, a, x) == ctx.one
               for a, x in enumerate(inverses, start=1))
    assert type(ctx.inv(2)) is int
    for zero in (0, np.int64(0), np.arange(ctx.q), nonzero[None, :] - 1):
        with pytest.raises(ZeroDivisionError):
            t.vinv(zero)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("p,r", [(7, 5), (3, 10)])
def test_kernels_equal_referees_on_a_sample(p, r):
    ctx = make_field(p, r)
    t = numpy_tables(ctx)
    rng = np.random.default_rng(p * 100 + r)
    a, b = rng.integers(0, ctx.q, (2, 100_000))
    a[:100] = 0                               # zero operands on either side
    b[100:200] = 0
    weights = [p ** (r - 1 - i) for i in range(r)]
    da, db = (np.stack([x // w % p for w in weights], axis=1) for x in (a, b))
    assert np.array_equal(t.vadd(a, b), ((da + db) % p) @ weights)
    assert np.array_equal(t.vsub(a, b), ((da - db) % p) @ weights)
    assert np.array_equal(t.neg_[a], ((-da) % p) @ weights)
    got = t.vmul(a, b)
    for i in range(0, len(a), 100):           # the schoolbook product is slow
        assert got[i] == referee.mul_codes(p, ctx.modulus, int(a[i]), int(b[i]))
    nonzero = a[a != 0][::100]
    assert all(referee.mul_codes(p, ctx.modulus, int(x), int(y)) == ctx.one
               for x, y in zip(nonzero, t.vinv(nonzero)))


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2)])
def test_codes_outside_the_field_are_refused(p, r, field):
    ctx = field(p, r)
    for x in (-1, ctx.q, 10 ** 9):
        with pytest.raises(ValueError, match="not an element code"):
            ctx.check_code(x)
        for op in (ctx.add, ctx.sub, ctx.mul):
            for args in ((x, 0), (0, x), (x, 1), (1, x)):
                with pytest.raises(ValueError, match="not an element code"):
                    op(*args)
        for op in (ctx.neg, ctx.inv, ctx.coeffs):
            with pytest.raises(ValueError, match="not an element code"):
                op(x)


def test_generator_is_part_of_a_fields_identity(field):
    default = field(13)
    alt = referee.with_generator(default, 5)      # 2**5 = 6 also generates F_13^x
    assert (default.gen, alt.gen) == (2, 6)
    assert [referee.power(alt, 6, k) for k in range(12)] == alt.exp.tolist()
    assert default != alt and default == make_field(13)
    assert hash(default) == hash(make_field(13))
