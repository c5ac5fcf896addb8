"""Cyclic convolution as a Python double loop over the nonzero entries.

This is the referee :func:`hypergf.cyclo.convolve_cyclic` is held to:
exact at any size, since it never leaves Python ints, and it shares no
code with the one ``np.convolve`` and fold.  O(len(a) len(b)) steps.
"""

from __future__ import annotations


def convolve_cyclic(a, b, n: int) -> list[int]:
    """out[m] = sum of a[i] b[j] over i + j = m mod n."""
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % n] += ai * bj
    return out
