"""Two classical evaluations of order >= 3 series, computed with no
characters: the oracles the generic series of :mod:`hypergf.hyp` is
held to at large q.

Clausen curves (K. Ono, "Values of Gaussian hypergeometric series",
Trans. AMS 350, 1998).  For E(lam): y^2 = (x-1)(x^2+lam) and
a(lam) = q + 1 - #E(lam)(F_q), the point at infinity counted,

    q^2 3F2(phi, phi, phi; eps, eps | lam/(lam+1)) = phi(1+lam) (a(lam)^2 - q)

for lam not in {0, -1}.  The curve is counted by how many y square to
each right-hand side, and phi(v) is that number less one.

Ahlgren-Ono (J. reine angew. Math. 518, 2000).  For an odd prime p,

    p^3 4F3(phi, phi, phi, phi; eps, eps, eps | 1) = -a(p) - p,

with eta(2z)^4 eta(4z)^4 = sum a(n) q^n, whose coefficients come from
the integer power series q prod over m of (1 - q^(2m))^4 (1 - q^(4m))^4.
"""

from __future__ import annotations

import numpy as np

from hypergf.ff import FieldContext, numpy_tables


def clausen_sides(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray]:
    """The arguments lam/(lam+1) and the values phi(1+lam) (a(lam)^2 - q),
    one per lam not in {0, -1}: q^2 times the order-3 series there."""
    t = numpy_tables(ctx)
    q = ctx.q
    codes = np.arange(q)
    square = t.vmul(codes, codes)
    roots = np.bincount(square, minlength=q)           # #{y : y^2 = v}
    lam = codes[(codes != 0) & (codes != t.neg_[ctx.one])]
    # row per lam, column per x: the right-hand side (x-1)(x^2+lam)
    rhs = t.vmul(t.vsub(codes, ctx.one)[None, :], t.vadd(square[None, :], lam[:, None]))
    a = q - roots[rhs].sum(axis=1)                     # q + 1 - (affine + 1)
    one_plus = t.vadd(lam, ctx.one)
    return t.vmul(lam, t.inv_[one_plus]), (roots[one_plus] - 1) * (a * a - q)


def eta_coefficients(limit: int) -> list[int]:
    """a(0), ..., a(limit) of eta(2z)^4 eta(4z)^4."""
    series = [1] + [0] * limit        # the product, before the factor q
    for step in (2, 4):
        for m in range(step, limit + 1, step):
            for _ in range(4):        # times (1 - q^m)
                for k in range(limit, m - 1, -1):
                    series[k] -= series[k - m]
    return [0] + series[:limit]
