from fractions import Fraction

import pytest

import _lemma_suite
from hypergf import (
    Character,
    NonRationalValueError,
    phi_at_minus_one,
    quadratic_character,
    trivial_character,
)
from hypergf.chars import jacobi_vector, same_field, scaled_binomial_vector
from hypergf.cli import _render
from hypergf.cyclo import convolve_cyclic, rational_from_vector, reduce_mod_cyclotomic


def _value(vec, n, den=1):
    """The canonical form of an integer vector over ``den``, as charsum prints it."""
    return tuple(Fraction(c, den) for c in reduce_mod_cyclotomic(vec, n))


def _embedding(vec, n):
    re, im = _render(vec, n, 1)["embedding"]
    return complex(re, im)


def test_character_group_structure(field):
    ctx = field(13)
    eps = trivial_character(ctx)
    phi = quadratic_character(ctx)
    assert (eps.j, phi.j) == (0, 6)
    assert Character(ctx, phi.j + phi.j) == eps
    chi = Character(ctx, 5)
    assert Character(ctx, chi.j + 9).j == 2           # index addition mod 12
    conj = Character(ctx, -chi.j)
    assert conj.j == 7
    assert Character(ctx, chi.j + conj.j) == eps
    with pytest.raises(ValueError):
        same_field(chi, Character(field(5), 1))


@pytest.mark.parametrize("p,r,want", [(5, 1, 1), (7, 1, -1), (13, 1, 1),
                                      (3, 2, 1), (3, 3, -1), (7, 2, 1)])
def test_phi_at_minus_one(p, r, want, field):
    ctx = field(p, r)
    assert phi_at_minus_one(ctx) == want
    assert want == (1 if ctx.q % 4 == 1 else -1)
    # agrees with direct evaluation: -1 = gen**k has phi(-1) = (-1)**k
    assert (-1) ** ctx.log.item(ctx.neg(ctx.one)) == want


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (13, 1)])
def test_jacobi_eps_eps(p, r, field):
    ctx = field(p, r)
    assert rational_from_vector(jacobi_vector(ctx, 0, 0), ctx.q - 1) == ctx.q - 2


def test_jacobi_values_f5(field):
    ctx = field(5)
    assert rational_from_vector(jacobi_vector(ctx, 2, 2), 4) == -1      # terms -1 +1 -1
    j11 = jacobi_vector(ctx, 1, 1)
    assert _value(j11, 4) == (Fraction(-1), Fraction(-2))   # -1 - 2*zeta
    j33 = jacobi_vector(ctx, 3, 3)                          # the conjugates
    assert _value(j33, 4) == (Fraction(-1), Fraction(2))
    assert rational_from_vector(convolve_cyclic(j11, j33, 4), 4) == 5   # |J|^2 = q
    assert abs(abs(_embedding(j11, 4)) - 5 ** 0.5) < 1e-9
    with pytest.raises(ValueError):
        same_field(Character(ctx, 1), Character(field(7), 1))


def test_binomial_values(field):
    ctx = field(5)

    def binom(ja, jb):
        return _value(scaled_binomial_vector(ctx, ja, jb), 4, ctx.q)

    assert binom(0, 0) == (Fraction(5 - 2, 5), 0)
    for ja in (2, 1, 3):                               # phi, chi, chi^3
        assert binom(ja, 0) == (Fraction(-1, 5), 0)
    assert binom(2, 2) == (Fraction(-1, 5), 0)
    assert binom(3, 1) == (Fraction(1, 5), Fraction(-2, 5))  # (1 - 2i)/5


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (13, 1)])
def test_q_times_binomial_is_integral(p, r, field):
    # q (A choose B) = B(-1) J(A, conj(B)): an integer vector, with B(-1)
    # read off the log of -1
    ctx = field(p, r)
    n = ctx.q - 1
    minus_one = ctx.log.item(ctx.neg(ctx.one))
    for ja in range(n):
        for jb in range(n):
            vec = scaled_binomial_vector(ctx, ja, jb)
            assert all(type(c) is int for c in vec)
            sign = -1 if (jb * minus_one) % n else 1
            assert vec == [sign * c for c in jacobi_vector(ctx, ja, -jb % n)]


def test_vector_kernel_matches_the_definition(field):
    # J(chi_ja, chi_jb) summed one x at a time from the field's log table
    ctx = field(9 // 3, 2)
    n = ctx.q - 1
    for ja in range(n):
        for jb in range(n):
            want = [0] * n
            for x in range(ctx.q):
                y = ctx.sub(ctx.one, x)
                if x and y:
                    want[(ja * ctx.log.item(x) + jb * ctx.log.item(y)) % n] += 1
            assert jacobi_vector(ctx, ja, jb) == want, (ja, jb)


def test_jacobi_is_symmetric(field):
    for ctx in (field(7), field(3, 2)):
        n = ctx.q - 1
        for ja in range(n):
            for jb in range(n):
                assert jacobi_vector(ctx, ja, jb) == jacobi_vector(ctx, jb, ja)


def test_pipeline_embeddings_survive_reduction(field):
    # the complex embedding of a raw accumulation equals that of its
    # canonical form, for real pipeline outputs
    ctx = field(13)
    n = ctx.q - 1
    for ja, jb in [(1, 1), (3, 7), (5, 2), (6, 6)]:
        vec = jacobi_vector(ctx, ja, jb)
        can = list(reduce_mod_cyclotomic(vec, n))
        reduced = can + [0] * (n - len(can))
        assert abs(_embedding(vec, n) - _embedding(reduced, n)) < 1e-6
        # |J(A,B)| = sqrt(q) for A, B, AB all nontrivial
        if ja and jb and (ja + jb) % n:
            assert abs(abs(_embedding(vec, n)) - 13 ** 0.5) < 1e-9


def test_galois_stable_sums_are_rational(field):
    # summing a symbol family over all characters lands in the rationals
    ctx = field(13)
    n = ctx.q - 1
    phi = quadratic_character(ctx)
    total = [0] * n
    for chi in (Character(ctx, j) for j in range(n)):
        vec = scaled_binomial_vector(ctx, (phi.j + chi.j) % n, chi.j)
        total = [t + v for t, v in zip(total, vec)]
    rational_from_vector(total, n)   # must not raise
    with pytest.raises(NonRationalValueError):
        rational_from_vector(jacobi_vector(ctx, 1, 1), n)      # a lone Jacobi sum is not


# ---------------------------------------------------------------------------
# lemma property suite (moderate grid here; the full acceptance grid runs in
# test_acceptance)
# ---------------------------------------------------------------------------

LEMMA_FIELDS = [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2)]


@pytest.mark.parametrize("check", _lemma_suite.ALL_CHECKS,
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("p,r", LEMMA_FIELDS)
def test_lemma_suite(p, r, check, field):
    failures = check(field(p, r))
    assert failures == [], failures[:5]
