"""The general Huff, Huff and Weierstrass families by broadcasts over
blocks of consecutive a within ``ff.BLOCK_CELLS`` cells, sharing no kernel
with ``curves``: general Huff bincounts the solved b per a, Weierstrass
sums the square-root count of x(x+a)(x+b) over x, and Huff reads the
general Huff table at (a^2, b^2), the curve with the same count.
``curves`` reads each family from its per-curve kernel at one curve per
scaling class; these stay as its referees.
"""

import numpy as np

from hypergf import ff
from hypergf.curves import valid_pairs
from hypergf.ff import numpy_tables


def _rows_over_a(q, cells, rows):
    """A (q, q) table whose rows a >= 1 are ``rows(a)`` for blocks of
    consecutive a's, ``cells`` int64 cells per a.  Row 0 is left unset."""
    table, codes = np.empty((q, q), dtype=np.int64), np.arange(q)
    step = max(1, ff.BLOCK_CELLS // cells)
    for lo in range(1, q, step):
        a = slice(lo, min(lo + step, q))
        table[a] = rows(codes[a])
    return table


def general_huff_family(ctx):
    """``count_general_huff`` total at ``[a, b]``, -1 where a b (a - b) = 0."""
    # x y != 0 fixes b = a (y/x) - (x-y)/(x^2 y)
    t = numpy_tables(ctx)
    q = ctx.q
    nz = np.arange(1, q)
    x, y = nz[:, None], nz[None, :]
    inv_x2y = t.vinv(t.vmul(t.sq[x], y))
    slope = t.vmul(t.vmul(x, t.sq[y]), inv_x2y).ravel()   # y/x
    offset = t.vmul(t.vsub(x, y), inv_x2y).ravel()        # (x-y)/(x^2 y)

    def rows(a):
        b = t.vsub(t.vmul(a[:, None], slope), offset)
        at = np.arange(len(a))[:, None] * q + b
        return 1 + 3 + np.bincount(at.ravel(), minlength=len(a) * q).reshape(-1, q)
    return np.where(valid_pairs(ctx), _rows_over_a(q, len(slope), rows), -1)


def weierstrass_family(ctx):
    """``count_weierstrass`` total at ``[a, b]``, -1 where a b (a - b) = 0."""
    t = numpy_tables(ctx)
    q = ctx.q
    codes = np.arange(q)
    x_plus_b = t.vadd(codes[:, None], codes[None, :])     # [x, b]

    def rows(a):
        left = t.vmul(codes, t.vadd(codes, a[:, None]))       # x(x+a) at [a, x]
        return 1 + t.nsqrt[t.vmul(left[:, :, None], x_plus_b)].sum(axis=1)
    return np.where(valid_pairs(ctx), _rows_over_a(q, q * q, rows), -1)


def huff_family(ctx):
    """``count_huff`` total at ``[a, b]``, -1 where a b (a^2 - b^2) = 0."""
    sq = numpy_tables(ctx).sq
    return general_huff_family(ctx)[sq[:, None], sq]
