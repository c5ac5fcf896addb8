"""The curve counts and point sets by their earlier kernel: each model's
defining equation tested at every affine pair (x, y), in blocks of x rows
within ``ff.BLOCK_CELLS`` cells.  ``curves`` replaced it with one walk
over the lines y = s x (Huff, general Huff, the general Huff points) or
over x (Edwards, the Weierstrass points); this keeps the q**2 enumeration
as its referee.
"""

import numpy as np

from hypergf.curves import _on_general_huff, _on_weierstrass
from hypergf.ff import numpy_tables, row_blocks


def _on_huff(ctx, a, b):
    t = numpy_tables(ctx)
    sq_m1 = t.vsub(t.sq, ctx.one)
    return lambda x, y: t.vmul(t.vmul(a, x), sq_m1[y]) == t.vmul(sq_m1[x], t.vmul(b, y))


def _on_edwards(ctx, d2):
    t = numpy_tables(ctx)
    return lambda x, y: (t.vadd(t.sq[x], t.sq[y])
                         == t.vadd(ctx.one, t.vmul(d2, t.vmul(t.sq[x], t.sq[y]))))


def affine_points(ctx, on_curve):
    """Pair codes x*q + y, ascending, of the affine solutions of
    ``on_curve``, tested on blocks of x rows against every y."""
    q, codes = ctx.q, np.arange(ctx.q)
    return np.concatenate([xs.start * q + on_curve(codes[xs, None], codes).ravel().nonzero()[0]
                           for xs in row_blocks(q, q)])


def general_huff_points(ctx, a, b):
    return affine_points(ctx, _on_general_huff(ctx, a, b))


def weierstrass_points(ctx, a, b):
    return affine_points(ctx, _on_weierstrass(ctx, a, b))


def huff_affine(ctx, a, b):
    return len(affine_points(ctx, _on_huff(ctx, a, b)))


def edwards_affine(ctx, d2):
    return len(affine_points(ctx, _on_edwards(ctx, d2)))
