import random
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _family_referee as family_referee
import _quartic_referee as quartic_referee
from hypergf import (
    CurveCount,
    EdwardsParams,
    GeneralHuffParams,
    HuffParams,
    ParameterError,
    WeierstrassParams,
    count_edwards_affine,
    count_general_huff,
    count_general_huff_quartic,
    count_huff,
    count_weierstrass,
    ff,
    map_points,
)
from hypergf.audit import cached_field, identity_by_key
from hypergf.curves import (
    _line_counts,
    edwards_affine_family,
    general_huff_family,
    general_huff_quartic_family,
    huff_family,
    valid_pairs,
    weierstrass_family,
)
from hypergf.ff import make_field, odd_prime_powers

# (family table, its per-parameter counter, the counter's parameters)
AB_FAMILIES = [
    (general_huff_family, count_general_huff, GeneralHuffParams),
    (huff_family, count_huff, HuffParams),
    (weierstrass_family, count_weierstrass, WeierstrassParams),
    (general_huff_quartic_family, count_general_huff_quartic, GeneralHuffParams),
]


def _brute_general_huff(p, a, b):
    # independent oracle: plain modular arithmetic, no field machinery
    return sum(1 for x in range(p) for y in range(p)
               if (x * (a * y * y - 1) - y * (b * x * x - 1)) % p == 0)


def _brute_huff(p, a, b):
    return sum(1 for x in range(p) for y in range(p)
               if (a * x * (y * y - 1) - b * y * (x * x - 1)) % p == 0)


def test_general_huff_anchors(field):
    ctx = field(5)
    c14 = count_general_huff(ctx, GeneralHuffParams(1, 4))
    assert (c14.affine, c14.total) == (5, 8)
    c12 = count_general_huff(ctx, GeneralHuffParams(1, 2))
    assert (c12.affine, c12.total) == (5, 8)
    assert c14.at_infinity == 3
    assert _brute_general_huff(5, 1, 4) == 5
    assert _brute_general_huff(5, 1, 2) == 5
    with pytest.raises(ParameterError):
        count_general_huff(ctx, GeneralHuffParams(1, 1))
    with pytest.raises(ParameterError):
        count_general_huff(ctx, GeneralHuffParams(0, 2))


def test_huff_anchors(field):
    assert count_huff(field(5), HuffParams(1, 2)).total == 8
    assert count_huff(field(5), HuffParams(1, 2)).affine == 5
    assert count_huff(field(7), HuffParams(1, 2)).total == 8
    assert _brute_huff(5, 1, 2) == 5
    assert _brute_huff(7, 1, 2) == 5
    with pytest.raises(ParameterError):
        count_huff(field(5), HuffParams(1, 4))   # 4^2 = 1^2 mod 5


def test_weierstrass_anchors(field):
    assert count_weierstrass(field(5), WeierstrassParams(1, 4)).total == 8
    assert count_weierstrass(field(5), WeierstrassParams(2, 4)).total == 4
    assert count_weierstrass(field(13), WeierstrassParams(1, 12)).total == 8
    assert count_weierstrass(field(5), WeierstrassParams(1, 4)).at_infinity == 1
    with pytest.raises(ParameterError):
        count_weierstrass(field(5), WeierstrassParams(3, 3))


def test_edwards_anchors(field):
    ctx = field(5)
    assert count_edwards_affine(ctx, EdwardsParams(4)) == 4
    with pytest.raises(ParameterError):
        count_edwards_affine(ctx, EdwardsParams(1))
    with pytest.raises(ParameterError):
        count_edwards_affine(ctx, EdwardsParams(0))
    # the four axis points always solve the equation
    for ctx in (field(7), field(13), field(3, 2)):
        for d2 in range(2, ctx.q):
            if d2 in (ctx.zero, ctx.one):
                continue
            assert count_edwards_affine(ctx, EdwardsParams(d2)) >= 4


def test_curve_count_invariants():
    with pytest.raises(ValueError):
        CurveCount(affine=5, at_infinity=3, total=9)
    with pytest.raises(ValueError):
        CurveCount(affine=-1, at_infinity=1, total=0)


def test_quartic_path_anchors(field):
    ctx = field(5)
    q14 = count_general_huff_quartic(ctx, GeneralHuffParams(1, 4))
    assert q14.total == 8
    assert q14.total == count_general_huff(ctx, GeneralHuffParams(1, 4)).total
    assert count_general_huff_quartic(ctx, GeneralHuffParams(1, 2)).total == 8
    assert count_general_huff_quartic(field(7), GeneralHuffParams(1, 2)).total == 8


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)])
def test_cross_model_consistency(p, r, field):
    ctx = field(p, r)
    q = ctx.q
    for a in range(1, q):
        for b in range(1, q):
            if a == b:
                continue
            g = count_general_huff(ctx, GeneralHuffParams(a, b))
            w = count_weierstrass(ctx, WeierstrassParams(a, b))
            qt = count_general_huff_quartic(ctx, GeneralHuffParams(a, b))
            assert g.total == w.total
            assert qt.total == g.total
            # Hasse window: |N - (q+1)| <= 2 sqrt(q), i.e. <= floor(sqrt(4q))
            assert abs(w.total - (q + 1)) <= isqrt(4 * q)
            assert w.total == count_weierstrass(ctx, WeierstrassParams(b, a)).total
            if ctx.mul(a, a) != ctx.mul(b, b):
                h = count_huff(ctx, HuffParams(a, b))
                g2 = count_general_huff(
                    ctx, GeneralHuffParams(ctx.mul(a, a), ctx.mul(b, b)))
                assert h.total == g2.total


def test_map_points_ghuff_to_weier(field):
    ctx = field(5)
    rep = map_points(ctx, "ghuff", "weier", GeneralHuffParams(1, 2))
    assert rep.mapped == 4
    assert rep.exceptional_source == 1      # (0, 0) has y = x
    assert rep.exceptional_target == 3      # the three 2-torsion points v = 0
    assert rep.injective and rep.images_on_target
    assert rep.source_total == rep.target_total == 8
    # the non-exceptional sets biject
    assert rep.mapped == rep.source_total - 3 - rep.exceptional_source
    assert rep.mapped == rep.target_total - 1 - rep.exceptional_target


def test_map_points_inverse_direction(field):
    ctx = field(5)
    rep = map_points(ctx, "weier", "ghuff", GeneralHuffParams(1, 2))
    assert rep.mapped == 4
    assert rep.exceptional_source == 3
    assert rep.exceptional_target == 1
    assert rep.injective and rep.images_on_target
    assert rep.totals_match


@pytest.mark.parametrize("p,r", [(7, 1), (13, 1), (3, 2)])
def test_map_points_structure_sweep(p, r, field):
    ctx = field(p, r)
    q = ctx.q
    pairs = [(a, b) for a in range(1, q) for b in range(1, q) if a != b][:40]
    for a, b in pairs:
        rep = map_points(ctx, "ghuff", "weier", GeneralHuffParams(a, b))
        assert rep.injective and rep.images_on_target
        assert rep.totals_match
        assert rep.mapped == rep.source_total - 3 - rep.exceptional_source
        assert rep.mapped == rep.target_total - 1 - rep.exceptional_target


def test_map_points_huff_pairs(field):
    ctx = field(5)
    rep = map_points(ctx, "huff", "ghuff", HuffParams(1, 2))
    assert rep.target_params == (1, 4)
    assert rep.source_total == rep.target_total == 8
    assert rep.injective is None
    edw = map_points(ctx, "huff", "edwards", HuffParams(1, 2))
    assert edw.target_params == (4,)        # d = (1-2)/(1+2) = 3, d^2 = 4
    assert edw.source_total == 8 and edw.target_total == 4
    with pytest.raises(ParameterError):
        map_points(ctx, "huff", "edwards", HuffParams(1, 4))  # b/a = -1
    with pytest.raises(ParameterError):
        map_points(ctx, "edwards", "huff", HuffParams(1, 2))


def _valid(params, ctx):
    try:
        params.validate(ctx)
    except ParameterError:
        return False
    return True


def _reference(count, params, ctx, *args):
    """The per-parameter count, or -1 where the parameters are invalid."""
    try:
        result = count(ctx, params(*args))
    except ParameterError:
        return -1
    return getattr(result, "total", result)


@pytest.mark.parametrize("p,r", [(3, 4), (101, 1)])
def test_family_tables_match_counts(p, r, field):
    ctx = field(p, r)
    q = ctx.q
    rng = random.Random(q)
    sample = [(rng.randrange(q), rng.randrange(q)) for _ in range(60)]
    for family, count, params in AB_FAMILIES:
        table = family(ctx)
        assert table.shape == (q, q) and table.dtype.kind == "i"
        for a, b in sample:
            assert table[a, b] == _reference(count, params, ctx, a, b), (a, b)
        # -1 exactly where validate() raises
        invalid = [[not _valid(params(a, b), ctx) for b in range(q)] for a in range(q)]
        assert ((table == -1) == invalid).all()
    edw = edwards_affine_family(ctx)
    assert edw.shape == (q,)
    for d2 in range(q):
        assert edw[d2] == _reference(count_edwards_affine, EdwardsParams, ctx, d2), d2


@pytest.mark.parametrize("p,r", [(151, 1), (149, 1), (5, 3), (11, 2), (3, 4), (13, 1),
                                 (3, 2)])
def test_quartic_family_matches_the_direct_sum(p, r, field):
    ctx = field(p, r)
    assert (general_huff_quartic_family(ctx) == quartic_referee.quartic_family(ctx)).all()


@pytest.mark.parametrize("p,r", [(151, 1), (149, 1), (5, 3), (11, 2), (3, 4), (37, 1),
                                 (7, 2), (13, 1), (3, 2), (3, 3)])
def test_line_count_families_match_the_broadcast_kernels(p, r, field):
    ctx = field(p, r)
    for family in (general_huff_family, weierstrass_family):
        want = getattr(family_referee, family.__name__)(ctx)
        assert family(ctx).tolist() == want.tolist(), family.__name__


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (3, 3)])
def test_line_count_families_do_not_depend_on_the_block(p, r, monkeypatch):
    # the line counts take q cells per row and per step: a budget of 1 puts
    # one row in a block, 3q three, and q^2 or 3q^2 every row in one block;
    # the referees cut their rows of a by about q^2 cells per a
    q = p ** r
    for budget in (1, 3 * q, q * q, 3 * q * q):
        monkeypatch.setattr(ff, "BLOCK_CELLS", budget)
        ctx = make_field(p, r)                     # fresh: tables are per field
        for family in (general_huff_family, weierstrass_family):
            want = getattr(family_referee, family.__name__)(ctx)
            assert family(ctx).tolist() == want.tolist(), (family.__name__, budget)


@pytest.mark.parametrize("p,r,budget", [(13, 1, None), (3, 2, None), (3, 3, 2 * 27),
                                        (5, 2, None)])
def test_line_counts_are_the_count_of_each_line(p, r, budget, monkeypatch):
    # K[s, m] = #{i : s u[i] - v[i] = m} at random pairs with repeats; at
    # q = 27 a budget of 2q cells cuts the rows s into 14 blocks
    if budget is not None:
        monkeypatch.setattr(ff, "BLOCK_CELLS", budget)
    ctx = make_field(p, r)
    q = ctx.q
    u, v = np.random.default_rng(q).integers(0, q, size=(2, 4 * q))
    want = np.zeros((q, q), dtype=np.int64)
    for s in range(q):
        for ui, vi in zip(u.tolist(), v.tolist()):
            want[s, ctx.sub(ctx.mul(s, ui), vi)] += 1
    assert _line_counts(ctx, u, v).tolist() == want.tolist()


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (5, 2)])
def test_valid_pairs_is_each_validate(p, r, field):
    ctx = field(p, r)
    q = ctx.q
    for params, squares in ((GeneralHuffParams, False), (WeierstrassParams, False),
                            (HuffParams, True)):
        want = [[_valid(params(a, b), ctx) for b in range(q)] for a in range(q)]
        assert valid_pairs(ctx, squares).tolist() == want, params.__name__


@pytest.mark.parametrize("p,r", [(3, 2), (7, 1)])
def test_codes_outside_the_field_are_refused(p, r, field):
    ctx = field(p, r)
    q = ctx.q
    for bad in (-1, q, q + 3):
        calls = [(count_edwards_affine, EdwardsParams(bad))]
        for a, b in ((1, bad), (bad, 1)):
            calls += [(count_general_huff, GeneralHuffParams(a, b)),
                      (count_general_huff_quartic, GeneralHuffParams(a, b)),
                      (count_huff, HuffParams(a, b)),
                      (count_weierstrass, WeierstrassParams(a, b))]
            calls += [(lambda ctx, params, pair=pair: map_points(ctx, *pair, params),
                       HuffParams(a, b))
                      for pair in (("ghuff", "weier"), ("weier", "ghuff"),
                                   ("huff", "ghuff"), ("huff", "edwards"))]
        for call, params in calls:
            with pytest.raises(ValueError, match="is not an element code"):
                call(ctx, params)


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (3, 3)])
def test_family_tables_built_in_blocks_of_a_match_counts(p, r, monkeypatch):
    # a budget of 3q cells puts three rows of the line counts in a block
    # (the last one shorter at q = 13); a budget of 1 puts one row in each
    q = p ** r
    for budget in (3 * q, 1):
        monkeypatch.setattr(ff, "BLOCK_CELLS", budget)
        ctx = make_field(p, r)                     # fresh: tables are per field
        for family, count, params in (AB_FAMILIES[0], *AB_FAMILIES[2:]):
            want = [[_reference(count, params, ctx, a, b) for b in range(q)]
                    for a in range(q)]
            assert family(ctx).tolist() == want, (family.__name__, budget)


def _per_curve_survey(ctx, pairs):
    """Every exhaustive count and both general Huff <-> Weierstrass map
    directions at ``pairs``, with each refusal as its message."""
    def outcome(call, *args):
        try:
            return call(ctx, *args)
        except ParameterError as exc:
            return str(exc)
    out = [outcome(count_edwards_affine, EdwardsParams(d2)) for d2 in range(ctx.q)]
    for a, b in pairs:
        out += [outcome(count_general_huff, GeneralHuffParams(a, b)),
                outcome(count_huff, HuffParams(a, b)),
                outcome(map_points, "ghuff", "weier", GeneralHuffParams(a, b)),
                outcome(map_points, "weier", "ghuff", GeneralHuffParams(a, b))]
    return out


@pytest.mark.parametrize("p,r", [(13, 1), (3, 2), (5, 2), (3, 3), (31, 1)])
def test_per_curve_counts_and_maps_do_not_depend_on_the_block(p, r, monkeypatch):
    # the default budget takes F_q in one block of x rows, a budget of q
    # or 1 takes one row per block, and 3q three (the last one shorter
    # unless 3 divides q)
    q = p ** r
    rng = random.Random(q)
    pairs = [(0, 1), (1, 1), (1, 2)] + [(rng.randrange(q), rng.randrange(q))
                                        for _ in range(12)]
    want = _per_curve_survey(make_field(p, r), pairs)
    assert sum(isinstance(w, str) for w in want) < len(want) // 2
    for budget in (q, 1, 3 * q):
        monkeypatch.setattr(ff, "BLOCK_CELLS", budget)
        assert _per_curve_survey(make_field(p, r), pairs) == want, budget


def test_per_curve_kernels_stay_within_the_block_budget(field):
    # a whole q x q grid of int64 at F_4093 is 128 MiB; the enumerator
    # holds a few BLOCK_CELLS-sized arrays at once
    ctx = field(4093)
    calls = {
        "count_general_huff": lambda: count_general_huff(ctx, GeneralHuffParams(1, 4)),
        "count_huff": lambda: count_huff(ctx, HuffParams(1, 2)),
        "count_edwards_affine": lambda: count_edwards_affine(ctx, EdwardsParams(4)),
        "map_points": lambda: map_points(ctx, "ghuff", "weier", GeneralHuffParams(1, 4)),
    }
    calls["count_huff"]()                       # field tables outside the trace
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, (name, peak)


def test_family_tables_are_cached_and_read_only(field):
    ctx = field(13)
    for family in (general_huff_family, huff_family, weierstrass_family,
                   general_huff_quartic_family, edwards_affine_family):
        table = family(ctx)
        assert family(ctx) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0


@st.composite
def _field_and_pair(draw):
    p, r = draw(st.sampled_from(odd_prime_powers(49)))
    q = p ** r
    a = draw(st.integers(1, q - 1))
    b = draw(st.integers(1, q - 1).filter(lambda b: b != a))
    return cached_field(p, r), a, b


@settings(max_examples=60, deadline=None, database=None)
@given(_field_and_pair())
def test_family_tables_and_c2_on_random_pairs(drawn):
    ctx, a, b = drawn
    lhs, rhs = identity_by_key("C2").evaluate(ctx, np.array([(a, b)]))
    assert lhs == rhs
    for family, count, params in AB_FAMILIES:
        assert family(ctx)[a, b] == _reference(count, params, ctx, a, b)
    if b != ctx.one:
        assert edwards_affine_family(ctx)[b] == count_edwards_affine(ctx, EdwardsParams(b))
