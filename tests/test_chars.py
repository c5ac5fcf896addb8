from fractions import Fraction

import pytest

import _lemma_suite
from hypergf import (
    Character,
    GroupRingElement,
    NonRationalValueError,
    binomial_symbol,
    jacobi_sum,
    phi_at_minus_one,
    quadratic_character,
    trivial_character,
)
from hypergf.chars import jacobi_vector, scaled_binomial_vector
from hypergf.cyclo import convolve_cyclic, rational_from_vector, reduce_mod_cyclotomic


def _value(vec, n):
    """The canonical form of an integer vector, as the display value gives it."""
    return tuple(Fraction(c) for c in reduce_mod_cyclotomic(vec, n))


def _rational(elt):
    """The rational value of a display value; raises unless it is rational."""
    return rational_from_vector(elt.num, elt.n) / elt.den


def test_character_group_structure(field):
    ctx = field(13)
    eps = trivial_character(ctx)
    phi = quadratic_character(ctx)
    assert eps.is_trivial and phi.is_quadratic
    assert (phi * phi).is_trivial
    chi = Character(ctx, 5)
    assert (chi * Character(ctx, 9)).j == 2           # index addition mod 12
    assert chi.conjugate().j == 7
    assert (chi * chi.conjugate()).is_trivial
    with pytest.raises(ValueError):
        chi * Character(field(5), 1)


@pytest.mark.parametrize("p,r,want", [(5, 1, 1), (7, 1, -1), (13, 1, 1),
                                      (3, 2, 1), (3, 3, -1), (7, 2, 1)])
def test_phi_at_minus_one(p, r, want, field):
    ctx = field(p, r)
    assert phi_at_minus_one(ctx) == want
    assert want == (1 if ctx.q % 4 == 1 else -1)
    # agrees with direct evaluation: -1 = gen**k has phi(-1) = (-1)**k
    assert (-1) ** ctx.dlog(ctx.neg(ctx.one)) == want


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (13, 1)])
def test_jacobi_eps_eps(p, r, field):
    ctx = field(p, r)
    eps = trivial_character(ctx)
    assert _rational(jacobi_sum(eps, eps)) == ctx.q - 2


def test_jacobi_values_f5(field):
    ctx = field(5)
    phi = quadratic_character(ctx)
    chi = Character(ctx, 1)
    assert _rational(jacobi_sum(phi, phi)) == -1      # terms -1 +1 -1
    j11 = jacobi_sum(chi, chi)
    assert j11.canonical() == (Fraction(-1), Fraction(-2))   # -1 - 2*zeta
    j33 = jacobi_sum(chi.conjugate(), chi.conjugate())
    assert j33.canonical() == (Fraction(-1), Fraction(2))
    assert rational_from_vector(convolve_cyclic(j11.num, j33.num, 4), 4) == 5   # |J|^2 = q
    assert abs(abs(j11.embed()) - 5 ** 0.5) < 1e-9
    with pytest.raises(ValueError):
        jacobi_sum(chi, Character(field(7), 1))


def test_binomial_values(field):
    ctx = field(5)
    eps = trivial_character(ctx)
    phi = quadratic_character(ctx)
    chi = Character(ctx, 1)
    chi3 = Character(ctx, 3)
    assert _rational(binomial_symbol(eps, eps)) == Fraction(5 - 2, 5)
    for a in (phi, chi, chi3):
        assert _rational(binomial_symbol(a, eps)) == Fraction(-1, 5)
    assert _rational(binomial_symbol(phi, phi)) == Fraction(-1, 5)
    got = binomial_symbol(chi3, chi)
    assert got.canonical() == (Fraction(1, 5), Fraction(-2, 5))  # (1 - 2i)/5


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (13, 1)])
def test_q_times_binomial_is_integral(p, r, field):
    ctx = field(p, r)
    n = ctx.q - 1
    for ja in range(n):
        for jb in range(n):
            symbol = binomial_symbol(Character(ctx, ja), Character(ctx, jb))
            assert ctx.q % symbol.den == 0
            assert all((ctx.q * c).denominator == 1 for c in symbol.canonical())


def test_vector_kernel_matches_object_layer(field):
    ctx = field(9 // 3, 2)
    n = ctx.q - 1
    for ja in range(n):
        for jb in range(n):
            a, b = Character(ctx, ja), Character(ctx, jb)
            assert _value(jacobi_vector(ctx, ja, jb), n) == jacobi_sum(a, b).canonical()
            assert tuple(c / ctx.q for c in _value(scaled_binomial_vector(ctx, ja, jb), n)
                         ) == binomial_symbol(a, b).canonical()


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
        elt = jacobi_sum(Character(ctx, ja), Character(ctx, jb))
        can = [int(c) for c in elt.canonical()]
        reduced = GroupRingElement(n, can + [0] * (n - len(can)))
        assert abs(elt.embed() - reduced.embed()) < 1e-6
        # |J(A,B)| = sqrt(q) for A, B, AB all nontrivial
        if ja and jb and (ja + jb) % n:
            assert abs(abs(elt.embed()) - 13 ** 0.5) < 1e-9


def test_galois_stable_sums_are_rational(field):
    # summing a symbol family over all characters lands in the rationals
    ctx = field(13)
    n = ctx.q - 1
    phi = quadratic_character(ctx)
    total = [0] * n
    for chi in (Character(ctx, j) for j in range(n)):
        vec = scaled_binomial_vector(ctx, (phi * chi).j, chi.j)
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
