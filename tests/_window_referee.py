"""q F(lambda) for the (phi, phi; eps) sum by an int64 window dot product.

This is the referee :func:`hypergf.hyp.two_f_one` is held to.  Greene's
sum phi(-1)/q * sum over y of phi(y) phi(1-y) phi(1-lambda y), taken in
log coordinates: with y = g**i, lambda = g**k and u[j] = phi(1 - g**j)
(indices mod q-1), phi(y) phi(1-y) = (-1)**i u[i] and phi(1-lambda y) =
u[i+k], so q F(lambda) is the weights phi(-1) (-1)**i u[i] dotted with
the contiguous window u2[k : k+q-1] of u2 = (u, u).  It shares the
field's tables with the package but none of its bit-plane arithmetic:
numpy int64 vectors and one dot product per argument, O(q) each.
"""

from __future__ import annotations

import numpy as np

from hypergf.chars import phi_at_minus_one
from hypergf.ff import FieldContext, numpy_tables


def numerators(ctx: FieldContext, lams) -> list[int]:
    """q F(lambda) at each nonzero element code of ``lams``."""
    t = numpy_tables(ctx)
    u = t.phi[t.one_minus[ctx.exp]]         # phi(1 - g**i); phi(g**i) = (-1)**i
    w = phi_at_minus_one(ctx) * t.phi[ctx.exp] * u
    u2 = np.concatenate((u, u))
    out = []
    for lam in lams:
        if not 0 < lam < ctx.q:
            raise ValueError(f"{lam} is not a nonzero element code of F_{ctx.q}")
        k = ctx.log.item(lam)
        out.append(int(w @ u2[k:k + len(w)]))
    return out
