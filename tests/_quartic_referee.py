"""The general Huff quartic family by its earlier kernel: phi of
b^2 x^4 + (4a - 2b) x^2 + 1 at every (a, x, b), summed over the nonzero
x for one a at a time.  ``curves.general_huff_quartic_family`` reads the
quartic kernel at one curve per scaling class; this keeps the direct sum
over every a as its referee.
"""

import numpy as np

from hypergf.ff import numpy_tables


def quartic_family(ctx):
    """The quartic route's total at ``[a, b]``, -1 where a b (a - b) = 0."""
    t = numpy_tables(ctx)
    q = ctx.q
    codes = np.arange(q)
    x2 = t.sq[1:, None]                                   # nonzero x
    two_b = t.vadd(codes, codes)[None, :]
    # b^2 x^4 - 2b x^2 + 1 at [x, b]; row a adds 4a x^2
    rest = t.vadd(t.vsub(t.vmul(t.sq[None, :], t.vmul(x2, x2)), t.vmul(two_b, x2)),
                  ctx.one)
    four = ctx.element(4)
    table = np.full((q, q), -1, dtype=np.int64)
    for a in range(1, q):
        four_a_x2 = t.vmul(ctx.mul(four, a), x2)
        table[a, 1:] = q + 3 + t.phi[t.vadd(rest, four_a_x2)].sum(axis=0)[1:]
        table[a, a] = -1
    return table
