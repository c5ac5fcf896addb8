"""Finite fields F_q of odd characteristic with full discrete-log tables.

A field context is built once by :func:`make_field` and is immutable
afterwards.  Elements are represented by integer *codes* in ``0..q-1``:
the code of an element with coefficient vector ``(c_0, ..., c_{r-1})``
(``c_i`` multiplying ``t^i`` in F_p[t]/(modulus)) is its rank in the
lexicographic order of coefficient vectors.  For prime fields the code
is simply the residue, so codes read naturally as integers mod p.

Everything downstream keys on this fixed representation:

* the modulus is the lexicographically smallest monic irreducible of
  its degree (compared as the tuple ``(c_0, ..., c_{r-1})``),
* the generator is the smallest element (in code order) of
  multiplicative order q-1,

so discrete logarithms, character values, and every derived table are
reproducible across runs.  The exp/log arrays are filled by doubling:
multiplication by an element is an r x r matrix over F_p, so the powers
gen**m .. gen**(2m-1) are the first m powers times the matrix of gen**m,
about log2(q) numpy steps.

Arithmetic runs on that store alone (:class:`NumpyTables`; the scalar
methods call its kernels), and digits serve only I/O, the modulus search
and the fill.  1 is the top digit c_0 = 1, at place value ``one``, so
1 + y has code ``(y + one) % q``, and a + b = a (1 + b/a) for a != 0.
"""

from __future__ import annotations

from functools import wraps
from math import isqrt

import numpy as np

# the largest field size q allowed
Q_CAP = 1 << 16
# kernels that run over blocks of rows keep each block within this many int64 cells
BLOCK_CELLS = 2 ** 20


def row_blocks(stop: int, cells: int) -> list[slice]:
    """range(stop) cut into runs of one row, or of few enough rows that
    their ``cells`` cells each fit in ``BLOCK_CELLS``."""
    step = max(1, BLOCK_CELLS // cells)
    return [slice(lo, min(lo + step, stop)) for lo in range(0, stop, step)]


class FieldError(ValueError):
    """Raised when a field cannot be constructed as requested."""


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def odd_prime_powers(limit: int) -> list[tuple[int, int]]:
    """All (p, r) with p an odd prime, p**r <= limit, sorted by q = p**r.
    The odd primes come from a sieve of Eratosthenes over the odd numbers."""
    if limit < 3:
        return []
    odd = np.ones((limit + 1) // 2, dtype=bool)        # odd[i]: is 2i + 1 prime
    odd[0] = False
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    out = []
    for p in (2 * np.flatnonzero(odd) + 1).tolist():
        q, r = p, 1
        while q <= limit:
            out.append((p, r))
            r += 1
            q *= p
    return sorted(out, key=lambda pr: pr[0] ** pr[1])


def _power(mul, one: int, base: int, e: int) -> int:
    """base**e, e >= 0, by square-and-multiply with the product ``mul``."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc


# ---------------------------------------------------------------------------
# element codec: an element's code is the base-p number of its coefficient
# vector (c_0, ..., c_{r-1}), c_0 the most significant digit
# ---------------------------------------------------------------------------

def _weights(p: int, r: int) -> list[int]:
    """Place values of the digits (c_0, ..., c_{r-1}) of a code."""
    return [p ** (r - 1 - i) for i in range(r)]


def _digits(code, weights) -> list:
    """Digits (c_0, ..., c_{r-1}) of an element code."""
    out = []
    for w in weights:
        out.append(code // w)
        code = code % w
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (dense, low coefficient first), used only to
# find the modulus and the multiplication matrices of make_field
# ---------------------------------------------------------------------------

def _poly_rem(num, den: tuple[int, ...], p: int) -> list[int]:
    """num modulo the monic den over F_p: the low len(den) - 1 coefficients."""
    num = list(num)
    d = len(den) - 1
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            for j in range(d + 1):
                num[k - d + j] = (num[k - d + j] - c * den[j]) % p
    return num[:d]


def _monic_polys(p: int, deg: int):
    # the monic polynomials of the given degree that t does not divide, lexicographic
    weights = _weights(p, deg)
    for idx in range(p ** (deg - 1), p ** deg):          # c_0 != 0
        yield tuple(_digits(idx, weights)) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    # trial division by every monic factor of degree <= deg/2
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for f in _monic_polys(p, d):
            if not any(_poly_rem(poly, f, p)):
                return False
    return True


def _find_modulus(p: int, r: int) -> tuple[int, ...]:
    if r == 1:
        return (0, 1)  # the polynomial t; degenerate prime-field modulus
    # a skipped multiple of t is reducible at r >= 2, and t divides no factor of the rest
    return next(f for f in _monic_polys(p, r) if _is_irreducible(f, p))


class FieldContext:
    """A fully materialized finite field F_q, q = p**r, p an odd prime.

    Its only discrete-log store is two read-only int64 arrays: exp[k] is
    the code of gen**k (k < q-1) and log[code] its dlog, with log[0] = 0,
    which every caller masks.  Immutable; all methods are pure reads and
    scalar ones return Python ints, so a context can be shared freely.
    """

    __slots__ = (
        "p", "r", "q", "modulus", "gen", "exp", "log",
        "_pow_weights", "_cache",
    )

    def __init__(self, p: int, r: int, modulus: tuple[int, ...],
                 gen: int, exp: np.ndarray, log: np.ndarray):
        self.p = p
        self.r = r
        self.q = p ** r
        self.modulus = modulus
        self.gen = gen
        self.exp = exp
        self.log = log
        self._pow_weights = _weights(p, r)
        self._cache: dict = {}

    # -- identity / hashing: a field is (p, r, gen).  The modulus follows
    #    from (p, r); gen fixes every discrete log and character value.
    def __eq__(self, other):
        return (isinstance(other, FieldContext)
                and (self.p, self.r, self.gen) == (other.p, other.r, other.gen))

    def __hash__(self):
        return hash((self.p, self.r, self.gen))

    def __repr__(self):
        return f"FieldContext(p={self.p}, r={self.r}, q={self.q})"

    # -- element codecs ----------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return self._pow_weights[0]

    def check_code(self, x: int) -> int:
        """x if it is an element code (in range(q)), else ValueError."""
        if not 0 <= x < self.q:
            raise ValueError(f"{x} is not an element code of F_{self.q}")
        return x

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{r-1}) of the element code x."""
        return tuple(_digits(self.check_code(x), self._pow_weights))

    def from_coeffs(self, coeffs) -> int:
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.r and any(cs[self.r:]):
            raise FieldError(f"coefficient vector longer than degree {self.r}")
        return sum(c * w for c, w in zip(cs, self._pow_weights))

    def element(self, value) -> int:
        """Coerce an int (reduced mod p, constant element) or coefficient
        iterable into an element code."""
        return self.from_coeffs([value] if isinstance(value, int) else value)

    # -- arithmetic: the table kernels on checked codes (-1 reads the last)

    def add(self, a: int, b: int) -> int:
        return int(numpy_tables(self).vadd(self.check_code(a), self.check_code(b)))

    def sub(self, a: int, b: int) -> int:
        return int(numpy_tables(self).vsub(self.check_code(a), self.check_code(b)))

    def neg(self, a: int) -> int:
        return int(numpy_tables(self).neg_[self.check_code(a)])

    def mul(self, a: int, b: int) -> int:
        return int(numpy_tables(self).vmul(self.check_code(a), self.check_code(b)))

    def inv(self, a: int) -> int:
        # refused here, so the kernel's array-wide zero test is not paid per scalar
        if self.check_code(a) == 0:
            raise ZeroDivisionError("inverse of zero in finite field")
        return int(numpy_tables(self).inv_[a])


def check_field_size(p: int, r: int) -> int:
    """q = p**r, or :class:`FieldError` over :data:`Q_CAP`, found from r
    alone (q >= 2**r) without forming p**r when r >= the cap's bit length."""
    if (abs(p) >= 2 and r >= Q_CAP.bit_length()) or p ** r > Q_CAP:
        raise FieldError(f"q = {p}**{r} exceeds the cap {Q_CAP}")
    return p ** r


def make_field(p: int, r: int = 1) -> FieldContext:
    """Construct F_{p**r} deterministically.

    The modulus is the lexicographically smallest monic irreducible of
    degree r over F_p and the generator the smallest element of order
    q-1.

    Raises :class:`FieldError` when p is even or composite, r < 1, or
    q exceeds the cap (:data:`Q_CAP`, 2**16).
    """
    if r < 1:
        raise FieldError(f"extension degree must be >= 1, got {r}")
    if p % 2 == 0:
        raise FieldError(f"characteristic must be odd, got p={p}")
    q = check_field_size(p, r)          # before the primality test
    if not is_prime(p):
        raise FieldError(f"p={p} is not prime")

    modulus = _find_modulus(p, r)
    assert r * (p - 1) ** 2 < 2 ** 63, "int64 matrix products over F_p overflow"
    n, weights, eye = q - 1, _weights(p, r), np.eye(r, dtype=np.int64)

    def matmul(a, b):
        return (a @ b) % p

    def mul_matrix(b):
        # digits(x*b) = matmul(digits(x), mul_matrix(b)): row j is t**j * b
        row = _digits(b, weights)
        return np.array([_poly_rem([0] * j + row, modulus, p) for j in range(r)],
                        dtype=np.int64)

    def order_is_maximal(g):
        # g has order q-1 iff g**((q-1)/l) != 1 for every prime l | q-1
        m = mul_matrix(g)
        return all(not np.array_equal(_power(matmul, eye, m, n // ell), eye)
                   for ell in prime_factors(n))

    gen = next(g for g in range(1, q) if order_is_maximal(g))

    # digits of gen**k: rows [m, 2m) are rows [0, m) times gen**m, whose
    # matrix ``step`` is then squared
    digits = np.zeros((n, r), dtype=np.int64)
    digits[0, 0] = 1
    step, m = mul_matrix(gen), 1
    while m < n:
        k = min(m, n - m)
        digits[m:m + k] = matmul(digits[:k], step)
        step, m = matmul(step, step), m + k
    exp = digits @ np.array(weights, dtype=np.int64)
    if not np.array_equal(np.sort(exp), np.arange(1, q)):
        raise FieldError("generator does not enumerate the multiplicative group")
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(n)
    exp.flags.writeable = log.flags.writeable = False
    return FieldContext(p, r, modulus, gen, exp, log)


# ---------------------------------------------------------------------------
# derived tables, built lazily per field: the array kernels and every table
# the counting, character-sum and audit layers keep with a field
# ---------------------------------------------------------------------------

def per_field(build):
    """``build(ctx)``, kept in ``ctx._cache`` under build's name; arrays read-only."""
    key = build.__name__

    @wraps(build)
    def memo(ctx: FieldContext):
        value = ctx._cache.get(key)
        if value is None:
            value = ctx._cache[key] = build(ctx)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return value
    return memo


class NumpyTables:
    """Vectorized views of one field: the context's own log array
    (``log_[0]`` is 0 and must always be masked), inverses, negation,
    squares, the number-of-square-roots table, quadratic-character values,
    and the codes of 1-x.

    Products go through one padded table, read-only like the store it is
    derived from: ``mlog`` is ``log_`` with code 0 sent to 2n-1, and
    ``mexp`` is ``ctx.exp`` repeated to length 2n-1 followed by 2n zeros, so
    ``mexp[mlog[a] + mlog[b]]`` is a*b for every pair of codes, zeros
    included, with no reduction mod n and no mask.

    Sums follow the module's 1 + y rule, a + b = a ((b inv_[a] + one) % q),
    plus b where a = 0 (``inv_[0]`` is 0).  Prime fields (``one`` = 1) add
    residue codes instead: 4-5 times faster than the two products."""

    __slots__ = ("q", "n", "one", "log_", "mlog", "mexp", "inv_", "neg_",
                 "sq", "nsqrt", "phi", "one_minus")

    def __init__(self, ctx: FieldContext):
        q = self.q = ctx.q
        n = self.n = q - 1
        self.one = ctx.one
        self.log_ = ctx.log
        # a log sum of two nonzero codes is at most 2n-2; one with a zero
        # factor lands in [2n-1, 4n-2], where mexp holds zeros
        self.mlog = ctx.log.copy()
        self.mlog[0] = 2 * n - 1
        self.mexp = np.concatenate([ctx.exp, ctx.exp[:n - 1], np.zeros(2 * n, np.int64)])
        self.mlog.flags.writeable = self.mexp.flags.writeable = False
        codes = np.arange(q)
        # n - mlog[0] = 1 - n reads mexp's zeros from the end
        self.inv_ = self.mexp[n - self.mlog]
        self.neg_ = self.vmul(codes, ctx.exp[n // 2])       # gen**(n/2) = -1
        self.sq = self.vmul(codes, codes)
        self.nsqrt = np.bincount(self.sq, minlength=q)
        self.phi = 1 - 2 * (self.log_ % 2)
        self.phi[0] = 0
        self.one_minus = (self.neg_ + self.one) % q

    def vadd(self, a, b):
        if self.one == 1:                     # prime-field codes are residues
            return (a + b) % self.q
        return self.vmul(a, (self.vmul(b, self.inv_[a]) + self.one) % self.q) + (a == 0) * b

    def vsub(self, a, b):
        return self.vadd(a, self.neg_[b])

    def vmul(self, a, b):
        return self.mexp[self.mlog[a] + self.mlog[b]]

    def vinv(self, a):
        """1/a for nonzero codes a; ZeroDivisionError if any code is 0."""
        if not np.all(a):
            raise ZeroDivisionError("inverse of zero in finite field")
        return self.inv_[a]


@per_field
def numpy_tables(ctx: FieldContext) -> NumpyTables:
    return NumpyTables(ctx)
