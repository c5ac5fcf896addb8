import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _chisum_referee as chisum_referee
import _clausen_referee as clausen_referee
import _field_referee as field_referee
import _window_referee as window_referee
from hypergf import (
    Character,
    HypSpec,
    TwoSquares,
    WeierstrassParams,
    cornacchia,
    count_weierstrass,
    ff,
    hyp,
    hyp_eval,
    make_field,
    ono_value_minus1,
    phi_at_minus_one,
    quadratic_character,
    trivial_character,
    two_f_one,
)
from hypergf.audit import cached_field, identity_by_key
from hypergf.chars import same_field
from hypergf.cyclo import NonRationalValueError, rational_from_vector, reduce_mod_cyclotomic
from hypergf.ff import FieldError, is_prime, odd_prime_powers


def _phi_phi_eps(ctx, x):
    phi = quadratic_character(ctx)
    eps = trivial_character(ctx)
    return HypSpec(top=(phi, phi), bottom=(eps,), x=x)


def _curve_value(ctx, lam):
    # independent route: the series value from a brute-force point count
    total = count_weierstrass(ctx, WeierstrassParams(ctx.one, lam)).total
    return Fraction(total - ctx.q - 1, ctx.q)


def test_anchor_values(field):
    f5, f7, f13 = field(5), field(7), field(13)
    assert two_f_one(f5, f5.neg(f5.one)) == Fraction(2, 5)
    assert two_f_one(f13, 2) == Fraction(-6, 13)
    assert two_f_one(f13, 4) == Fraction(2, 13)
    assert two_f_one(f7, f7.neg(f7.one)) == 0
    # each anchor agrees with the point-count oracle
    for ctx, lam in [(f5, 4), (f13, 2), (f13, 4), (f7, 6)]:
        assert two_f_one(ctx, lam) == _curve_value(ctx, lam)


def test_value_at_zero_and_one(field):
    ctx = field(5)
    assert two_f_one(ctx, 0) == 0
    assert hyp_eval(_phi_phi_eps(ctx, 0)) == 0
    # 1 is evaluated like any other argument, not special-cased
    assert two_f_one(ctx, 1) == Fraction(-1, 5)


def test_value_at_one_is_the_closed_form(field):
    # F(1) = phi(-1)/q * sum over y of phi(y) phi(1-y)^2 = -phi(-1)/q
    for p, r in odd_prime_powers(1000) + [(4093, 1), (65521, 1), (3, 10)]:
        ctx = field(p, r)
        assert two_f_one(ctx, ctx.one) == Fraction(-phi_at_minus_one(ctx), ctx.q), (p, r)


@pytest.mark.parametrize("p,r", odd_prime_powers(49))
def test_specialized_equals_generic(p, r, field):
    ctx = field(p, r)
    for lam in range(ctx.q):
        assert two_f_one(ctx, lam) == hyp_eval(_phi_phi_eps(ctx, lam))


@pytest.mark.parametrize("p,r", [(503, 1), (7, 3), (1009, 1)])
def test_popcount_equals_integral_form_on_whole_field(p, r):
    # the benchmark's fields; the integral form is a separate code path
    ctx = make_field(p, r)
    phi, eps = quadratic_character(ctx), trivial_character(ctx)
    expected = [Fraction(v, ctx.q)
                for v in hyp.hyp_numerators((phi, phi), (eps,), range(ctx.q)).tolist()]
    keys = set(ctx._cache)
    assert two_f_one(ctx, 0) == expected[0] == 0
    assert set(ctx._cache) == keys
    # one per-field key on the first nonzero lambda, no memo after it
    assert two_f_one(ctx, 1) == expected[1]
    assert len(set(ctx._cache) - keys) == 1
    keys = set(ctx._cache)
    assert [two_f_one(ctx, lam) for lam in range(ctx.q)] == expected
    assert set(ctx._cache) == keys


def test_popcount_equals_window_referee_on_every_field_to_1000(field):
    for p, r in odd_prime_powers(1000):
        ctx = field(p, r)
        q = ctx.q
        lams = range(1, q)
        expected = [Fraction(num, q) for num in window_referee.numerators(ctx, lams)]
        assert [two_f_one(ctx, lam) for lam in lams] == expected, (p, r)


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (7, 3), (1009, 1)])
def test_popcount_at_the_edges_of_the_log_range(p, r, field):
    # k = 0 (lambda = 1) has one dead term and every other k two; k = 1 and
    # k = n-1 put the second next to either end of the n-1 live bits,
    # lambda = -1 is k = n/2, and F_3 has n = 2
    ctx = field(p, r)
    n = ctx.q - 1
    minus_one, last = ctx.neg(ctx.one), ctx.exp.item(n - 1)
    assert ctx.log[ctx.one] == 0 and ctx.log[minus_one] == n // 2 and ctx.log[last] == n - 1
    for lam in (ctx.one, minus_one, last, ctx.exp.item(1)):
        [num] = window_referee.numerators(ctx, [lam])
        assert two_f_one(ctx, lam) == Fraction(num, ctx.q), lam
    assert two_f_one(ctx, ctx.one) == Fraction(-phi_at_minus_one(ctx), ctx.q)


@pytest.mark.parametrize("p,r", [(65521, 1), (3, 10), (65267, 1), (7, 5)])
def test_popcount_equals_window_referee_at_seeded_lambdas(p, r, field):
    # two large primes (q-1 = 2^4 * 3^2 * 5 * 7 * 13 and 2 * 32633) and two
    # extensions with q = 3 mod 4 and q = 1 mod 4
    ctx = field(p, r)
    rng = random.Random(ctx.q)
    lams = rng.sample(range(1, ctx.q), 200)
    expected = [Fraction(num, ctx.q) for num in window_referee.numerators(ctx, lams)]
    assert [two_f_one(ctx, lam) for lam in lams] == expected


@pytest.mark.parametrize("p,r", [(3, 1), (13, 1), (3, 5), (503, 1), (7, 3), (1009, 1),
                                 (4093, 1)])
def test_numerator_values_stay_within_the_hasse_bound(p, r):
    # a whole-field pass keeps one value per distinct numerator:
    # |q F(lambda)| <= 2 sqrt(q) off {0, 1} (Hasse, on y^2 = x(x+1)(x+lambda))
    # and q F(1) = -phi(-1), so never more than 4 sqrt(q) + 3 of them;
    # nothing is kept per lambda
    ctx = make_field(p, r)
    values = [two_f_one(ctx, lam) for lam in range(ctx.q)]
    kept = ctx._cache["squared_phi_binom_table"][-1]   # the values kept with the planes
    assert len(kept) <= 4 * ctx.q ** 0.5 + 3
    assert set(kept.values()) == set(values[1:])
    assert all(value == Fraction(num, ctx.q) for num, value in kept.items())


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2)])
def test_two_f_one_rejects_codes_outside_the_field(p, r, field):
    ctx = field(p, r)
    for lam in (-1, ctx.q, 10 ** 9):
        with pytest.raises(ValueError, match="not an element code"):
            two_f_one(ctx, lam)


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2)])
def test_generic_series_rejects_codes_outside_the_field(p, r, field):
    # a negative code used to wrap round to q-1 (F_9: 2/9 instead of F(-1) = 2/3)
    ctx = field(p, r)
    phi, eps = quadratic_character(ctx), trivial_character(ctx)
    for x in (-1, ctx.q, 10 ** 9):
        with pytest.raises(ValueError, match="not an element code"):
            _phi_phi_eps(ctx, x)
        with pytest.raises(ValueError, match="not an element code"):
            hyp.hyp_numerators((phi, phi), (eps,), [1, x])
    assert hyp_eval(_phi_phi_eps(ctx, ctx.element(-1))) == two_f_one(ctx, ctx.element(-1))


def test_fields_that_differ_in_generator_do_not_mix(field):
    default = field(13)
    alt = field_referee.with_generator(default, 5)      # generator 2**5 = 6
    chi, chi_alt = Character(default, 1), Character(alt, 1)
    assert chi != chi_alt     # chi_1(6) is a different root of unity on each
    eps = trivial_character(default)
    with pytest.raises(ValueError, match="one field"):
        same_field(chi, chi_alt)
    with pytest.raises(ValueError, match="one field"):
        HypSpec(top=(chi, chi_alt), bottom=(eps,), x=2)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_phi_eps_phi_closed_form(p, r, field):
    # the (phi, eps; phi) sum collapses to -phi(-1)(1+phi(x))/q off x in {0, 1}
    ctx = field(p, r)
    phi = quadratic_character(ctx)
    eps = trivial_character(ctx)
    pm1 = 1 if ctx.q % 4 == 1 else -1
    for lam in range(ctx.q):
        if lam in (ctx.zero, ctx.one):
            continue
        got = hyp_eval(HypSpec(top=(phi, eps), bottom=(phi,), x=lam))
        phival = 0 if lam == 0 else (1 if ctx.log[lam] % 2 == 0 else -1)
        assert got == Fraction(-pm1 * (1 + phival), ctx.q)


@pytest.mark.parametrize("p,r", odd_prime_powers(49))
def test_reflection_ratio_inversion(p, r, field):
    ctx = field(p, r)
    one = ctx.one
    pm1 = 1 if ctx.q % 4 == 1 else -1

    def phi_sign(x):
        return 0 if x == 0 else (1 if ctx.log[x] % 2 == 0 else -1)

    for lam in range(ctx.q):
        if lam not in (ctx.zero, one):
            assert two_f_one(ctx, lam) == pm1 * two_f_one(ctx, ctx.sub(one, lam))
        if lam != one:
            arg = ctx.mul(lam, ctx.inv(ctx.sub(lam, one))) if lam else 0
            assert two_f_one(ctx, lam) == \
                phi_sign(ctx.sub(one, lam)) * two_f_one(ctx, arg)
        if lam != ctx.zero:
            assert two_f_one(ctx, ctx.inv(lam)) == phi_sign(lam) * two_f_one(ctx, lam)


@pytest.mark.parametrize("p,r", odd_prime_powers(49))
def test_denominator_bound(p, r, field):
    ctx = field(p, r)
    q = ctx.q
    for lam in range(q):
        scaled = q * (q - 1) * two_f_one(ctx, lam)
        assert scaled.denominator == 1


@pytest.mark.parametrize("p,r", [(2003, 1), (65521, 1), (3, 9)])
def test_series_matches_counts_at_large_fields(p, r, field):
    # the other series tests stop at q <= 49; these reach the field-size cap
    ctx = field(p, r)
    q = ctx.q
    pm1 = 1 if q % 4 == 1 else -1
    rng = random.Random(q)
    lams = [lam for lam in rng.sample(range(q), 10) if lam not in (ctx.zero, ctx.one)]
    for lam in lams[:8]:
        value = two_f_one(ctx, lam)
        assert value == _curve_value(ctx, lam)
        assert (q * value).denominator == 1
        assert value == pm1 * two_f_one(ctx, ctx.sub(ctx.one, lam))


@st.composite
def _generic_specs(draw):
    # every odd prime power q <= 27, so 9, 25 and 27 are drawn too; the
    # characters lean on eps and phi, where most values are rational
    ctx = cached_field(*draw(st.sampled_from(odd_prime_powers(27))))
    n = ctx.q - 1
    index = st.one_of(st.sampled_from([0, n // 2]), st.integers(0, n - 1))
    k = draw(st.integers(1, 4))
    top = tuple(Character(ctx, draw(index)) for _ in range(k))
    bottom = tuple(Character(ctx, draw(index)) for _ in range(k - 1))
    return HypSpec(top=top, bottom=bottom, x=draw(st.integers(0, ctx.q - 1)))


@settings(max_examples=300, deadline=None, database=None)
@given(_generic_specs())
def test_recursion_matches_the_chi_sum(spec):
    # Greene's recursion against his definition: the same value, or the
    # same non-rational canonical form (the chi-sum vector carries an
    # extra factor q-1 against the recursion's q**(k-1) F)
    ctx = spec.ctx
    n = ctx.q - 1
    row = hyp._series_rows(ctx, [c.j for c in spec.top], [c.j for c in spec.bottom],
                           np.array([spec.x]))[0]
    assert reduce_mod_cyclotomic(chisum_referee.chisum_vector(spec), n) == \
        reduce_mod_cyclotomic([n * int(v) for v in row], n)
    try:
        want = chisum_referee.hyp_eval(spec)
    except NonRationalValueError:
        with pytest.raises(NonRationalValueError):
            hyp_eval(spec)
    else:
        assert hyp_eval(spec) == want


def _numerators_or_none(ctx, tops, bots, xs):
    """hyp_numerators at ``xs``, or None if a value there is not rational."""
    try:
        return hyp.hyp_numerators(tuple(Character(ctx, j) for j in tops),
                                  tuple(Character(ctx, j) for j in bots), xs).tolist()
    except NonRationalValueError:
        return None


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (3, 3)])
def test_series_rows_do_not_depend_on_the_block(p, r, monkeypatch):
    # the default budget takes every code in one block; 1 and n put one
    # row in each block of both kernels and of hyp_numerators' top level,
    # and 3n three (the last one shorter unless 3 divides q)
    q = p ** r
    n = q - 1
    xs = np.arange(q)
    cases = [(tops[:k], bots[:k - 1]) for k in (2, 3, 4)
             for tops, bots in (([n // 2] * 4, [0] * 3), ([1, 3, n // 2, 2], [n - 1, 0, 5]))]
    ctx = make_field(p, r)
    want = [hyp._series_rows(ctx, tops, bots, xs) for tops, bots in cases]
    nums = [_numerators_or_none(ctx, tops, bots, xs) for tops, bots in cases]
    assert nums[0] is not None and nums[2] is not None      # the phi-only cases
    for budget in (1, n, 3 * n):
        monkeypatch.setattr(ff, "BLOCK_CELLS", budget)
        ctx = make_field(p, r)
        for (tops, bots), rows, num in zip(cases, want, nums):
            assert (hyp._series_rows(ctx, tops, bots, xs) == rows).all(), (budget, tops, bots)
            assert _numerators_or_none(ctx, tops, bots, xs) == num, (budget, tops, bots)


def _per_row_numerators(ctx, top, bottom, xs):
    """q**(k-1) times the series at each x, read off each row on its own
    by the long division and by rational_from_vector."""
    n = ctx.q - 1
    rows = hyp._series_rows(ctx, [c.j for c in top], [c.j for c in bottom], np.asarray(xs))
    out = []
    for row in rows.tolist():
        can = reduce_mod_cyclotomic(row, n)
        assert not any(can[1:]) and rational_from_vector(row, n) == can[0]
        out.append(can[0])
    return out


def test_hyp_numerators_is_hyp_eval_per_argument(field):
    ctx = field(3, 3)
    top = (Character(ctx, 13), Character(ctx, 0), Character(ctx, 13))
    bottom = (Character(ctx, 13), Character(ctx, 0))
    xs = list(range(ctx.q))
    # the block extraction against each row's own, at every order of the spec
    for k in (1, 2, 3):
        nums = _per_row_numerators(ctx, top[:k], bottom[:k - 1], xs)
        got = hyp.hyp_numerators(top[:k], bottom[:k - 1], xs)
        assert got.dtype == np.int64 and got.tolist() == nums
        assert [hyp_eval(HypSpec(top=top[:k], bottom=bottom[:k - 1], x=x)) for x in xs] == \
            [Fraction(v, ctx.q ** (k - 1)) for v in nums]
    assert nums[0] == 0


@pytest.mark.parametrize("p,r", [(853, 1), (727, 1), (5, 4)])
def test_g316_lhs_is_the_per_row_extraction(p, r, field):
    # the audit's lhs column, over q, on the whole domain
    ctx = field(p, r)
    g316 = identity_by_key("G-316")
    lam = g316.points(ctx)
    lhs, _ = g316.evaluate(ctx, lam)
    phi, eps = quadratic_character(ctx), trivial_character(ctx)
    assert lhs.den == ctx.q and lhs.num.dtype == np.int64
    assert lhs.num.tolist() == _per_row_numerators(ctx, (phi, eps), (phi,), lam[:, 0])


def _phi_series(ctx, order, xs):
    """q**(order-1) times the (phi, ..., phi; eps, ..., eps) series at each x."""
    phi, eps = quadratic_character(ctx), trivial_character(ctx)
    return hyp.hyp_numerators((phi,) * order, (eps,) * (order - 1), xs).tolist()


@pytest.mark.parametrize("fields", [odd_prime_powers(128), [(509, 1)]],
                         ids=["q<=128", "q=509"])
def test_order_3_series_is_the_clausen_curve_trace(fields, field):
    # q^2 3F2(phi, phi, phi; eps, eps | lam/(lam+1)) = phi(1+lam)(a(lam)^2 - q)
    for p, r in fields:
        ctx = field(p, r)
        xs, want = clausen_referee.clausen_sides(ctx)
        assert _phi_series(ctx, 3, xs) == want.tolist(), ctx.q


def test_order_4_series_at_one_is_the_ahlgren_ono_value(field):
    # p^3 4F3(phi, phi, phi, phi; eps, eps, eps | 1) = -a(p) - p
    primes = [p for p in range(3, 258, 2) if is_prime(p)]
    a = clausen_referee.eta_coefficients(primes[-1])
    assert a[1:8] == [1, 0, -4, 0, -2, 0, 24]        # the level-8 newform of weight 4
    for p in primes:
        assert _phi_series(field(p), 4, [1])[0] == -a[p] - p, p


def test_order_bound(monkeypatch, field):
    hyp.check_order(4096, 3)                       # 4096 * 4095 < 2^24 cells
    with pytest.raises(FieldError, match="cell bound"):
        hyp.check_order(4099, 3)
    hyp.check_order(65521, 2)                      # no column below a 2F1
    hyp.check_order(3, 40)                         # 3^39 < 2^62
    with pytest.raises(FieldError, match="2\\^62"):
        hyp.check_order(3, 41)
    # (k-3) q^2 (q-1) cells of recursion within 2^30; order 3 has none
    hyp.check_order(4093, 3)
    hyp.check_order(1021, 4)                       # 1021^2 * 1020 < 2^30
    with pytest.raises(FieldError, match="cells of recursion"):
        hyp.check_order(1031, 4)                   # the next prime power
    hyp.check_order(811, 5)                        # 2 * 811^2 * 810 < 2^30
    with pytest.raises(FieldError, match="cells of recursion"):
        hyp.check_order(821, 5)
    # hyp_eval refuses before any row is allocated
    ctx = field(7)
    phi = quadratic_character(ctx)
    monkeypatch.setattr(hyp, "MAX_COLUMN_CELLS", 7 * 6 - 1)
    monkeypatch.setattr(hyp, "numpy_tables", None)
    with pytest.raises(FieldError, match="order-3"):
        hyp_eval(HypSpec(top=(phi,) * 3, bottom=(phi,) * 2, x=3))
    monkeypatch.setattr(hyp, "MAX_COLUMN_CELLS", 7 * 6)
    monkeypatch.setattr(hyp, "MAX_RECURSION_CELLS", 7 * 7 * 6 - 1)
    with pytest.raises(FieldError, match="order-4 .* recursion"):
        hyp_eval(HypSpec(top=(phi,) * 4, bottom=(phi,) * 3, x=3))


def test_generator_choice_does_not_change_values(field):
    default = field(13)
    alt = field_referee.with_generator(default, 7)      # generator 2**7 = 11
    assert alt.gen == 11
    for lam in range(13):
        assert two_f_one(default, lam) == two_f_one(alt, lam)
    ext = field(3, 2)
    alt_ext = field_referee.with_generator(ext, ext.q - 2)     # gen**-1
    assert alt_ext.gen == ext.inv(ext.gen) != ext.gen
    for lam in range(9):
        assert two_f_one(ext, lam) == two_f_one(alt_ext, lam)


def test_hyp_spec_validation(field):
    ctx = field(5)
    phi = quadratic_character(ctx)
    with pytest.raises(ValueError, match="one more top"):
        HypSpec(top=(phi,), bottom=(phi,), x=1)
    with pytest.raises(ValueError, match="one field"):
        HypSpec(top=(phi, quadratic_character(field(7))), bottom=(phi,), x=1)


# ---------------------------------------------------------------------------
# two squares
# ---------------------------------------------------------------------------

def test_cornacchia_anchors():
    assert cornacchia(13) == TwoSquares(x=3, y=2, p=13)
    assert cornacchia(5) == TwoSquares(x=1, y=2, p=5)
    with pytest.raises(ValueError, match="3 mod 4"):
        cornacchia(7)
    with pytest.raises(ValueError, match="prime"):
        cornacchia(2)
    with pytest.raises(ValueError, match="prime"):
        cornacchia(25)


def test_cornacchia_all_primes_to_229():
    for p in range(5, 230):
        if not is_prime(p) or p % 4 != 1:
            continue
        ts = cornacchia(p)
        assert ts.x ** 2 + ts.y ** 2 == p
        assert ts.x % 2 == 1 and ts.y % 2 == 0
        assert ts.x > 0 and ts.y > 0
        # brute-force uniqueness of the normalized representation
        brute = [(x, isqrt(p - x * x)) for x in range(1, isqrt(p) + 1, 2)
                 if isqrt(p - x * x) ** 2 == p - x * x]
        assert (ts.x, ts.y) in brute


def test_cornacchia_matches_brute_force_below_2000():
    # the normalized representation is unique; search it exhaustively
    for p in range(5, 2000, 4):
        if not is_prime(p):
            continue
        brute = next((x, y) for x in range(1, isqrt(p) + 1, 2)
                     for y in [isqrt(p - x * x)] if x * x + y * y == p and y > 0)
        ts = cornacchia(p)
        assert (ts.x, ts.y) == brute, p


def test_two_squares_validation():
    with pytest.raises(ValueError):
        TwoSquares(x=2, y=3, p=13)     # x even
    with pytest.raises(ValueError):
        TwoSquares(x=3, y=3, p=13)     # not a representation


def test_ono_values(field):
    assert ono_value_minus1(5) == Fraction(2, 5)
    assert ono_value_minus1(13) == Fraction(-6, 13)
    assert ono_value_minus1(7) == 0
    assert ono_value_minus1(229) == Fraction(-30, 229)   # 229 = 15^2 + 2^2
    with pytest.raises(ValueError):
        ono_value_minus1(9)
    # spot-check against the series engine
    for p in (17, 29, 19):
        ctx = field(p)
        assert two_f_one(ctx, p - 1) == ono_value_minus1(p)


def test_ono_sign_normalization_invariance():
    # the closed form is invariant under x -> -x and y -> -y
    for p in (5, 13, 17, 29, 37, 229):
        ts = cornacchia(p)
        values = set()
        for sx in (ts.x, -ts.x):
            for sy in (ts.y, -ts.y):
                exponent = (sx + sy + 1) // 2
                values.add(Fraction(2 * sx * (-1) ** (exponent % 2), p))
        assert values == {ono_value_minus1(p)}
