"""Exact verification of the binomial-symbol and character-sum lemmas.

Each check compares two group-ring expressions for exact equality of
canonical forms.  Everything is accumulated as raw integer vectors
(scaled so denominators clear) and zero-tested modulo the cyclotomic
polynomial in one batch per lemma, which keeps a full sweep over all
characters of F_49 under a second.

Every function returns a list of failure labels; empty means the lemma
holds everywhere it was tested.
"""

from __future__ import annotations

import random

import numpy as np

from hypergf.chars import char_sign_at_minus_one, jacobi_vector, scaled_binomial_vector
from hypergf.cyclo import cyclotomic_polynomial
from hypergf.ff import FieldContext, numpy_tables


def scaled_binomial_table(ctx: FieldContext) -> np.ndarray:
    """Cached (n, n, n) int64 array T with T[ja, jb] = q*(chi_ja choose
    chi_jb) as a vector.  Intended for fields small enough that the whole
    symbol table fits comfortably (the property sweeps, q <= 49)."""
    table = ctx._cache.get("scaled_binomial_table")
    if table is None:
        n = ctx.q - 1
        table = np.empty((n, n, n), dtype=np.int64)
        for ja in range(n):
            for jb in range(n):
                table[ja, jb] = scaled_binomial_vector(ctx, ja, jb)
        table.setflags(write=False)
        ctx._cache["scaled_binomial_table"] = table
    return table


def batch_nonzero_mod_cyclotomic(matrix: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of rows of an int64 (rows, n) matrix that are nonzero
    modulo Phi_n.  This is the bulk zero-test behind the property sweeps;
    callers guarantee magnitudes small enough that the at-most-doubling
    per elimination step stays inside int64."""
    phi = np.array(cyclotomic_polynomial(n), dtype=np.int64)
    deg = len(phi) - 1
    work = matrix.astype(np.int64, copy=True)
    for k in range(work.shape[1] - 1, deg - 1, -1):
        lead = work[:, k].copy()
        if not lead.any():
            continue
        work[:, k] = 0
        work[:, k - deg:k] -= lead[:, None] * phi[None, :deg]
    return work[:, :deg].any(axis=1)


def _conv(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    full = np.convolve(a, b)
    out = np.zeros(n, dtype=np.int64)
    for start in range(0, len(full), n):
        chunk = full[start:start + n]
        out[: len(chunk)] += chunk
    return out


def _rot(vec: np.ndarray, shift: int, n: int) -> np.ndarray:
    return np.roll(vec, shift % n)


def _gather_index(n: int) -> np.ndarray:
    # G[d, j, m] = (m - j*d) mod n: rotation index for sums over chi
    mm = np.arange(n)[None, None, :]
    jj = np.arange(n)[None, :, None]
    dd = np.arange(n)[:, None, None]
    return (mm - jj * dd) % n


def _report(labels: list, diffs: list[np.ndarray], n: int) -> list:
    if not diffs:
        return []
    bad = batch_nonzero_mod_cyclotomic(np.stack(diffs), n)
    return [labels[i] for i in np.nonzero(bad)[0]]


def _dlog4(ctx: FieldContext) -> int:
    four = ctx.add(ctx.add(ctx.one, ctx.one), ctx.add(ctx.one, ctx.one))
    return ctx.log[four]


def check_binomial_expansions(ctx: FieldContext) -> list:
    """A(1+x) and conj(A)(1-x) as character sums: for every A and x,
    A(1+x) = delta(x) + q/(q-1) sum_chi (A | chi) chi(x) and
    conj(A)(1-x) = delta(x) + q/(q-1) sum_chi (A chi | chi) chi(x),
    both scaled by q(q-1) so the test is integral."""
    q, n = ctx.q, ctx.q - 1
    T = scaled_binomial_table(ctx)
    gidx = _gather_index(n)
    rows_idx = np.arange(n)[None, :, None]
    labels, diffs = [], []
    for variant in ("one_plus", "one_minus"):
        for ja in range(n):
            if variant == "one_plus":
                ta = T[ja]                          # rows (A | chi_jc)
            else:
                ta = T[(ja + np.arange(n)) % n, np.arange(n)]  # (A chi | chi)
            acc_all = ta[rows_idx, gidx].sum(axis=1)           # acc per dlog x
            for x in range(q):
                lhs = np.zeros(n, dtype=np.int64)
                arg = ctx.add(ctx.one, x) if variant == "one_plus" else ctx.sub(ctx.one, x)
                e = ja if variant == "one_plus" else (-ja) % n
                if arg != 0:
                    lhs[(e * ctx.log[arg]) % n] += q * (q - 1)
                if x == 0:
                    lhs[0] -= q * (q - 1)
                    acc = np.zeros(n, dtype=np.int64)
                else:
                    acc = acc_all[ctx.log[x]]
                labels.append((variant, q, ja, x))
                diffs.append(lhs - q * acc)
    return _report(labels, diffs, n)


def check_symbol_identities(ctx: FieldContext) -> list:
    """Pointwise symbol identities:
    (A|B) = (A|A conj(B)),
    (A|B) = (B conj(A)|B) B(-1),
    (A|eps) = (A|A) = -1/q + (q-1)/q delta(A)."""
    q, n = ctx.q, ctx.q - 1
    T = scaled_binomial_table(ctx)
    labels, diffs = [], []
    for ja in range(n):
        for jb in range(n):
            labels.append(("transpose", q, ja, jb))
            diffs.append(T[ja, jb] - T[ja, (ja - jb) % n])
            s = char_sign_at_minus_one(ctx, jb)
            labels.append(("reflect", q, ja, jb))
            diffs.append(T[ja, jb] - s * T[(jb - ja) % n, jb])
        want = np.zeros(n, dtype=np.int64)
        want[0] = -1 + (q - 1) * (1 if ja == 0 else 0)
        labels.append(("eps-column", q, ja))
        diffs.append(T[ja, 0] - want)
        labels.append(("diagonal", q, ja))
        diffs.append(T[ja, ja] - want)
    return _report(labels, diffs, n)


def check_product_identities(ctx: FieldContext) -> list:
    """The two inverse-free product forms:
    (B^2 chi^2|chi)(phi|phi B) = (phi B chi|chi)(B chi|B^2 chi) B chi(4),
    (A^2|A B)(phi|B) = (A|B)(phi A|A B) A(4)."""
    q, n = ctx.q, ctx.q - 1
    h = n // 2
    T = scaled_binomial_table(ctx)
    d4 = _dlog4(ctx)
    labels, diffs = [], []
    for jb in range(n):
        for jc in range(n):
            lhs = _conv(T[(2 * jb + 2 * jc) % n, jc], T[h, (h + jb) % n], n)
            rhs = _conv(T[(h + jb + jc) % n, jc], T[(jb + jc) % n, (2 * jb + jc) % n], n)
            labels.append(("square-split", q, jb, jc))
            diffs.append(lhs - _rot(rhs, (jb + jc) * d4, n))
    for ja in range(n):
        for jb in range(n):
            lhs = _conv(T[(2 * ja) % n, (ja + jb) % n], T[h, jb], n)
            rhs = _conv(T[ja, jb], T[(h + ja) % n, (ja + jb) % n], n)
            labels.append(("duplication", q, ja, jb))
            diffs.append(lhs - _rot(rhs, ja * d4, n))
    return _report(labels, diffs, n)


def check_quadratic_sieve(ctx: FieldContext, trials: int = 20,
                          seed: int = 20240601) -> list:
    """sum phi(x) f(x) = sum f(x^2) - sum f(x) for seeded pseudo-random
    group-ring-valued f."""
    q, n = ctx.q, ctx.q - 1
    t = numpy_tables(ctx)
    rng = random.Random(seed)
    sq = t.sq.tolist()
    phi = t.phi.tolist()
    labels, diffs = [], []
    for trial in range(trials):
        fmap = np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(q)],
                        dtype=np.int64)
        lhs = np.zeros(n, dtype=np.int64)
        rhs = np.zeros(n, dtype=np.int64)
        for x in range(q):
            if phi[x]:
                lhs += phi[x] * fmap[x]
            rhs += fmap[sq[x]] - fmap[x]
        labels.append(("quadratic-sieve", q, trial))
        diffs.append(lhs - rhs)
    return _report(labels, diffs, n)


def check_quadratic_substitution(ctx: FieldContext) -> list:
    """sum_x psi(x^2) chi(1+a x^2) = psi(-1/a) J(psi, chi)
    + phi psi(-1/a) J(phi psi, chi) for all psi, chi, a != 0; and the
    chi = phi specialization written with binomial symbols."""
    q, n = ctx.q, ctx.q - 1
    h = n // 2
    t = numpy_tables(ctx)
    T = scaled_binomial_table(ctx)
    J = np.empty((n, n, n), dtype=np.int64)
    for ja in range(n):
        for jb in range(n):
            J[ja, jb] = jacobi_vector(ctx, ja, jb)

    nz = np.arange(1, q)
    ax2 = t.vmul(nz[:, None], t.sq[None, nz])            # a * x^2, a rows
    arg = t.vadd(ctx.one, ax2)                           # 1 + a x^2
    valid = arg != 0
    darg = t.log_[arg]
    dx2 = t.log_[t.sq[nz]]                               # dlog(x^2)
    a_rows = np.broadcast_to(np.arange(q - 1)[:, None], ax2.shape)
    # shift of psi(-1/a): dlog(-1/a) = dlog(-1) - dlog(a)
    dm1 = ctx.log[ctx.neg(ctx.one)]
    dmia = (dm1 - t.log_[nz]) % n
    marange = np.arange(n)[None, :]
    pm1 = char_sign_at_minus_one(ctx, h)

    labels, diffs = [], []
    for jpsi in range(n):
        base = (jpsi * dx2)[None, :]
        # rotation gathers for psi(-1/a) and (phi psi)(-1/a), per a
        rot1 = (marange - ((jpsi * dmia) % n)[:, None]) % n
        rot2 = (marange - ((((h + jpsi) % n) * dmia) % n)[:, None]) % n
        for jchi in range(n):
            idx = (base + jchi * darg) % n
            lhs = np.zeros((q - 1, n), dtype=np.int64)
            np.add.at(lhs, (a_rows[valid], idx[valid]), 1)
            rhs = J[jpsi, jchi][rot1] + J[(h + jpsi) % n, jchi][rot2]
            for ai, a in enumerate(nz):
                labels.append(("substitution", q, jpsi, jchi, int(a)))
                diffs.append(lhs[ai] - rhs[ai])
        # chi = phi specialization, via the q-scaled symbol table:
        # lhs = phi(-1) [ psi(-1/a) q(psi|phi psi) + phi psi(-1/a) q(phi psi|psi) ]
        idx = (base + h * darg) % n
        lhs = np.zeros((q - 1, n), dtype=np.int64)
        np.add.at(lhs, (a_rows[valid], idx[valid]), 1)
        rhs = pm1 * (T[jpsi, (h + jpsi) % n][rot1] + T[(h + jpsi) % n, jpsi][rot2])
        for ai, a in enumerate(nz):
            labels.append(("substitution-phi", q, jpsi, int(a)))
            diffs.append(lhs[ai] - rhs[ai])
    return _report(labels, diffs, n)


def check_symbol_evaluations(ctx: FieldContext) -> list:
    """(phi|chi) = (phi chi|chi) chi(-1); (eps|eps) = (q-2)/q;
    (chi^2|chi) = (phi chi|chi) chi(4) for chi != eps."""
    q, n = ctx.q, ctx.q - 1
    h = n // 2
    T = scaled_binomial_table(ctx)
    d4 = _dlog4(ctx)
    labels, diffs = [], []
    for jc in range(n):
        s = char_sign_at_minus_one(ctx, jc)
        labels.append(("phi-column", q, jc))
        diffs.append(T[h, jc] - s * T[(h + jc) % n, jc])
        if jc != 0:
            labels.append(("square-column", q, jc))
            diffs.append(T[(2 * jc) % n, jc] - _rot(T[(h + jc) % n, jc], jc * d4, n))
    want = np.zeros(n, dtype=np.int64)
    want[0] = q - 2
    labels.append(("eps-eps", q))
    diffs.append(T[0, 0] - want)
    return _report(labels, diffs, n)


ALL_CHECKS = (
    check_binomial_expansions,
    check_symbol_identities,
    check_product_identities,
    check_quadratic_sieve,
    check_quadratic_substitution,
    check_symbol_evaluations,
)


def run_all(ctx: FieldContext) -> list:
    failures = []
    for check in ALL_CHECKS:
        failures.extend(check(ctx))
    return failures
