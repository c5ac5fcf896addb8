"""Command-line interface.

One executable, ``hypergf``, with subcommands for field inspection
(``field``), series evaluation (``eval2f1``, ``evalnfn``), curve
counting (``count``), two-squares special values (``special``), raw
character sums (``charsum``), and the identity audit (``audit``).

Data goes to stdout as JSON (or CSV for audit reports); diagnostics go
to stderr.  Exit codes: 0 success / all audited identities PASS,
1 usage error, 2 computation error, 3 audit found failing identities.

Field elements are given as plain integers (reduced mod p, so -1 means
the additive inverse of 1) or, for extension fields, as comma-separated
coefficient vectors like ``--a=1,2`` (c0 first; use the ``=`` form when
the first coefficient is negative).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import audit as audit_mod
from . import curves
from .chars import Character, binomial_symbol, jacobi_sum
from .cyclo import NonRationalValueError
from .ff import FieldError, check_field_size, make_field
from .hyp import HypSpec, check_order, cornacchia, hyp_eval, ono_value_minus1, two_f_one


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _element_arg(text: str):
    if "," in text:
        return tuple(int(c) for c in text.split(","))
    return int(text)


def _index_list(text: str) -> list[int]:
    return [int(c) for c in text.split(",")]


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _echo_element(ctx, code: int):
    return code if ctx.r == 1 else list(ctx.coeffs(code))


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypergf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_args(p):
        p.add_argument("--p", type=int, required=True, help="odd prime characteristic")
        p.add_argument("--r", type=int, default=1, help="extension degree (default 1)")

    p_field = sub.add_parser("field", help="construct a field and print its data")
    add_field_args(p_field)

    p_eval = sub.add_parser("eval2f1", help="evaluate the (phi,phi;eps) series")
    add_field_args(p_eval)
    p_eval.add_argument("--lambda", dest="lam", type=_element_arg, required=True)

    p_nfn = sub.add_parser("evalnfn", help="evaluate a generic hypergeometric sum")
    add_field_args(p_nfn)
    p_nfn.add_argument("--top", type=_index_list, required=True,
                       help="comma-separated top character indices")
    p_nfn.add_argument("--bottom", type=_index_list, default=[],
                       help="comma-separated bottom character indices")
    p_nfn.add_argument("--x", type=_element_arg, required=True)

    p_count = sub.add_parser("count", help="count rational points on a curve")
    p_count.add_argument("--model", choices=("ghuff", "huff", "weier", "edwards"),
                         required=True)
    add_field_args(p_count)
    p_count.add_argument("--a", type=_element_arg, required=True,
                         help="curve parameter a (d^2 for the edwards model)")
    p_count.add_argument("--b", type=_element_arg,
                         help="curve parameter b (unused for edwards)")

    p_special = sub.add_parser("special", help="two-squares decomposition and F(-1)")
    p_special.add_argument("--p", type=int, required=True)

    p_charsum = sub.add_parser("charsum", help="Jacobi sum and binomial symbol")
    add_field_args(p_charsum)
    p_charsum.add_argument("--ja", type=int, required=True, help="index of A")
    p_charsum.add_argument("--jb", type=int, required=True, help="index of B")

    p_audit = sub.add_parser("audit", help="run the identity audit")
    group = p_audit.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity", help="audit one identity by key")
    group.add_argument("--all", action="store_true", help="audit the whole registry")
    p_audit.add_argument("--qmax", type=int, required=True)
    p_audit.add_argument("--provenance", choices=audit_mod.PROVENANCES)
    p_audit.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _cmd_field(args) -> int:
    ctx = make_field(args.p, args.r)
    out = {
        "p": ctx.p, "r": ctx.r, "q": ctx.q,
        "modulus": list(ctx.modulus),
        "generator": _echo_element(ctx, ctx.gen),
    }
    print(json.dumps(out, separators=(",", ":")))
    return 0


def _cmd_eval2f1(args) -> int:
    ctx = make_field(args.p, args.r)
    lam = ctx.element(args.lam)
    value = two_f_one(ctx, lam)
    out = {
        "q": ctx.q,
        "lambda": _echo_element(ctx, lam),
        "value": _frac_str(value),
        "decimal": float(value),
    }
    print(json.dumps(out, separators=(",", ":")))
    return 0


def _cmd_evalnfn(args) -> int:
    if len(args.top) != len(args.bottom) + 1:
        raise UsageError("--top needs exactly one more index than --bottom")
    check_order(check_field_size(args.p, args.r), len(args.top))  # before make_field
    ctx = make_field(args.p, args.r)
    x = ctx.element(args.x)
    spec = HypSpec(
        top=tuple(Character(ctx, j) for j in args.top),
        bottom=tuple(Character(ctx, j) for j in args.bottom),
        x=x,
    )
    try:
        value = hyp_eval(spec)
    except NonRationalValueError:
        raise UsageError(f"the value at x={args.x} is not rational; "
                         "evalnfn prints rational values only") from None
    out = {
        "q": ctx.q,
        "top": [c.j for c in spec.top],
        "bottom": [c.j for c in spec.bottom],
        "x": _echo_element(ctx, x),
        "value": _frac_str(value),
        "decimal": float(value),
    }
    print(json.dumps(out, separators=(",", ":")))
    return 0


def _cmd_count(args) -> int:
    ctx = make_field(args.p, args.r)
    a = ctx.element(args.a)
    if args.model == "edwards":
        affine = curves.count_edwards_affine(ctx, curves.EdwardsParams(a))
        count = curves.CurveCount(affine=affine, at_infinity=0, total=affine)
    else:
        if args.b is None:
            raise UsageError(f"--b is required for model {args.model}")
        b = ctx.element(args.b)
        if args.model == "ghuff":
            count = curves.count_general_huff(ctx, curves.GeneralHuffParams(a, b))
        elif args.model == "huff":
            count = curves.count_huff(ctx, curves.HuffParams(a, b))
        else:
            count = curves.count_weierstrass(ctx, curves.WeierstrassParams(a, b))
    out = {"affine": count.affine, "at_infinity": count.at_infinity,
           "total": count.total}
    print(json.dumps(out, separators=(",", ":")))
    return 0


def _cmd_special(args) -> int:
    p = args.p
    check_field_size(p, 1)                   # before any primality test
    ts = cornacchia(p) if p % 4 == 1 else None
    value = ts.value_minus1 if ts else ono_value_minus1(p)
    out = {"x": ts and ts.x, "y": ts and ts.y, "two_f_one_minus1": _frac_str(value)}
    print(json.dumps(out, separators=(",", ":")))
    return 0


def _cmd_charsum(args) -> int:
    ctx = make_field(args.p, args.r)
    a = Character(ctx, args.ja)
    b = Character(ctx, args.jb)
    jac = jacobi_sum(a, b)
    binom = binomial_symbol(a, b)

    def render(elt):
        z = elt.embed()
        return {"poly": elt.poly_string(), "embedding": [z.real, z.imag]}

    out = {
        "q": ctx.q, "n": ctx.q - 1, "ja": a.j, "jb": b.j,
        "jacobi": render(jac), "binom": render(binom),
    }
    print(json.dumps(out, separators=(",", ":")))
    return 0


def _cmd_audit(args) -> int:
    if args.qmax < 3:
        raise UsageError("--qmax must be at least 3")
    if args.identity is not None:
        try:
            ident = audit_mod.identity_by_key(args.identity)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        qs = [p ** r for (p, r) in audit_mod.capped_prime_powers(args.qmax, [ident])]
        reports = []
        if not args.provenance or ident.provenance == args.provenance:
            reports = [audit_mod.audit_identity(args.identity, qs)]
    else:
        reports = audit_mod.sweep(args.qmax, include=args.provenance)
    # every refusal is raised above, before the first byte is written; a
    # stdout with no byte buffer (a StringIO in its place) takes text
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)
    for chunk in audit_mod.emit_chunks(reports, args.format):
        if out is None:
            sys.stdout.write(chunk.decode())
        else:
            out.write(chunk)
    return 3 if any(not rep.passed for rep in reports) else 0


_COMMANDS = {
    "field": _cmd_field,
    "eval2f1": _cmd_eval2f1,
    "evalnfn": _cmd_evalnfn,
    "count": _cmd_count,
    "special": _cmd_special,
    "charsum": _cmd_charsum,
    "audit": _cmd_audit,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, FieldError, curves.ParameterError) as exc:
        # precondition violations, refused before any computation, and
        # values evalnfn cannot print
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader (e.g. head) closed the pipe; suppress the noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
