"""Command-line front end.

Subcommands: eval, bracket, basis, aut, check, reduce, verify.  Elements
travel as inline strings, automorphisms as JSON files ('-' reads stdin).
Exit codes: 0 success; 2 when --assert is set and a verdict is negative,
or when `verify` finds a counterexample; 64 usage errors; 65 malformed
input.  Every path is a thin adapter over the library: JSON output is
exactly the library serialization.  LMC_FORMAT=text|json overrides the
default output format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cosets, endo, liealg, normal, syntax, verify
from .errors import (
    ContextMismatch,
    DimensionMismatch,
    DomainError,
    LmcError,
    ParseError,
    UsageError,
    ValidationError,
)
from .liealg import Context

EXIT_OK = 0
EXIT_ASSERT = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Largest algebra dimension a command accepts: enumerating or operating on
# a much larger L_{m,c} would run for hours or exhaust memory.
MAX_DIM = 10_000


def _check_size(ctx: Context) -> None:
    """Reject a context whose polynomials exceed the exponent field (bad
    input) or whose algebra is larger than MAX_DIM (usage error)."""
    ctx.zero_poly()
    if liealg.algebra_dim(ctx, bound=MAX_DIM) > MAX_DIM:
        raise UsageError(
            f"L_{{{ctx.m},{ctx.c}}} has dimension above {MAX_DIM}, the limit of lmc"
        )


def _context(args) -> Context:
    try:
        ctx = Context(args.m, args.c)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    _check_size(ctx)
    return ctx


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _load_aut(path: str):
    return syntax.parse_automorphism(_read_file(path), check_context=_check_size)


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        print(json.dumps(payload, indent=2))


def _format(args, default: str) -> str:
    if getattr(args, "format", None):
        return args.format
    return os.environ.get("LMC_FORMAT", default)


# -- subcommands ---------------------------------------------------------------


def _cmd_eval(args) -> int:
    ctx = _context(args)
    u = syntax.parse_element(ctx, args.expr)
    basis = syntax.print_element(u, "basis")
    wreath = syntax.print_element(u, "wreath")
    if _format(args, "text") == "text":
        print(f"basis:  {basis}")
        print(f"wreath: {wreath}")
    else:
        _emit({"m": ctx.m, "c": ctx.c, "basis": basis, "wreath": wreath}, "json")
    return EXIT_OK


def _cmd_bracket(args) -> int:
    ctx = _context(args)
    u = syntax.parse_element(ctx, args.e1)
    v = syntax.parse_element(ctx, args.e2)
    result = syntax.print_element(liealg.bracket(u, v), "basis")
    if _format(args, "text") == "text":
        print(result)
    else:
        _emit({"m": ctx.m, "c": ctx.c, "basis": result}, "json")
    return EXIT_OK


def _cmd_basis(args) -> int:
    ctx = _context(args)
    degrees = list(range(1, ctx.c + 1)) if args.degree is None else [args.degree]
    table = {}
    for k in degrees:
        tuples = liealg.enumerate_basis(ctx, k)
        table[k] = {
            "dim": len(tuples),
            "tuples": ["(" + ",".join(map(str, t)) + ")" for t in tuples],
        }
    if _format(args, "text") == "text":
        total = 0
        for k, row in table.items():
            total += row["dim"]
            print(f"degree {k}: dim {row['dim']}: {' '.join(row['tuples'])}")
        if args.degree is None:
            print(f"total dim {total}")
    else:
        _emit({"m": ctx.m, "c": ctx.c, "degrees": {str(k): v for k, v in table.items()}}, "json")
    return EXIT_OK


_AUT_ARITY = {"compose": 2, "invert": 1, "commutator": 2, "jacobian": 1, "apply": 2}


def _cmd_aut(args) -> int:
    op = args.op
    fmt = _format(args, "text" if op == "apply" else "json")
    arity = _AUT_ARITY[op]
    if len(args.args) != arity:
        what = "FILE EXPR" if op == "apply" else f"{arity} automorphism file(s)"
        raise UsageError(f"aut {op} takes {what}")
    if op == "compose":
        result = endo.compose(_load_aut(args.args[0]), _load_aut(args.args[1]))
    elif op == "invert":
        result = endo.invert(_load_aut(args.args[0]))
    elif op == "commutator":
        result = endo.group_commutator(_load_aut(args.args[0]), _load_aut(args.args[1]))
    elif op == "jacobian":
        phi = _load_aut(args.args[0])
        jac = endo.jacobian(phi)
        payload = {
            "m": phi.ctx.m,
            "c": phi.ctx.c,
            "jacobian": [[syntax.print_poly(p) for p in row] for row in jac.rows],
        }
        _emit(payload, fmt)
        return EXIT_OK
    else:  # apply
        phi = _load_aut(args.args[0])
        u = syntax.parse_element(phi.ctx, args.args[1])
        out = syntax.print_element(phi.apply(u), "basis")
        if fmt == "text":
            print(out)
        else:
            _emit({"m": phi.ctx.m, "c": phi.ctx.c, "basis": out}, "json")
        return EXIT_OK
    print(syntax.print_automorphism(result, "json" if fmt == "json" else "text"))
    return EXIT_OK


def _element_printer(u):
    return syntax.print_element(u, "basis")


def _cmd_check(args) -> int:
    phi = _load_aut(args.file)
    kind = args.kind
    negative = False
    if kind == "ia":
        result = phi.is_ia()
        payload = {"check": "ia", "result": result}
        negative = not result
    elif kind == "inner":
        if not phi.is_ia():
            raise ValidationError("inner automorphisms are IA; input is not")
        u = normal.recognize_inner(phi)
        payload = {
            "check": "inner",
            "result": u is not None,
            "generator": None if u is None else _element_printer(u),
        }
        negative = u is None
    elif kind == "ginner":
        if not phi.is_ia():
            raise ValidationError("generalized inner automorphisms are IA; input is not")
        g = normal.recognize_ginn(phi)
        payload = {
            "check": "ginner",
            "result": g is not None,
            "f": None if g is None else [str(p) for p in g.f],
        }
        negative = g is None
    else:  # normal
        verdict = normal.decide_normal(phi, search_witness=args.witness)
        payload = {"check": "normal"}
        payload.update(verdict.to_dict(_element_printer))
        inner = phi.is_ia() and normal.recognize_inner(phi) is not None
        payload["inner"] = inner
        negative = not verdict.normal
    _emit(payload, _format(args, "json"))
    if args.do_assert and negative:
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_reduce(args) -> int:
    phi = _load_aut(args.file)
    if not phi.is_ia():
        raise ValidationError("reduction expects an IA automorphism")
    # The conjugator phi o form^-1, from the parameters of form = psi_p o phi
    # (modulo IN) or of form = psi_p with phi = psi_g (modulo Inn).
    if args.modulo == "in":
        form = cosets.reduce_mod_in(phi)
        subgroup = "IN"
        warnings = []
        conj = normal.ginn_invert(form.params)
    else:
        g = normal.recognize_ginn(phi)
        if g is None:
            raise ValidationError(
                "reduction modulo the inner automorphisms needs a normal "
                "(generalized inner) IA automorphism"
            )
        form = cosets.reduce_mod_inn_normal(g)
        subgroup = "Inn"
        warnings = cosets.psi_diagnostics(form.jac).get("warnings", [])
        conj = normal.ginn_compose(g, normal.ginn_invert(form.params))
    conjugator = normal.ginn_to_endo(conj)
    payload = {
        "subgroup": subgroup,
        "canonical_jacobian": [
            [syntax.print_poly(p) for p in row] for row in form.jac.rows
        ],
        "conjugator": syntax.automorphism_dict(conjugator),
    }
    if warnings:
        payload["warnings"] = warnings
    _emit(payload, _format(args, "json"))
    return EXIT_OK


def _cmd_verify(args) -> int:
    ctx = _context(args)
    report = verify.check_law(args.law, ctx, args.trials, args.seed, args.coeff_bound)
    _emit(report.to_dict(), _format(args, "json"))
    return EXIT_OK if report.ok else EXIT_ASSERT


# -- wiring -----------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="lmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ctx(p):
        p.add_argument("--m", type=int, required=True, help="number of generators")
        p.add_argument("--c", type=int, required=True, help="nilpotency class")

    def add_fmt(p):
        p.add_argument("--format", choices=("text", "json"), default=None)

    p = sub.add_parser("eval", help="parse an element, print basis and wreath forms")
    add_ctx(p)
    p.add_argument("expr")
    add_fmt(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bracket", help="Lie bracket of two elements, basis form")
    add_ctx(p)
    p.add_argument("e1")
    p.add_argument("e2")
    add_fmt(p)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("basis", help="basis tuples and dimension table")
    add_ctx(p)
    p.add_argument("--degree", type=int, default=None)
    add_fmt(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("aut", help="automorphism algebra on JSON files")
    p.add_argument("op", choices=("compose", "invert", "commutator", "jacobian", "apply"))
    p.add_argument(
        "args",
        nargs="+",
        help="automorphism JSON files ('-' for stdin); aut apply takes FILE EXPR",
    )
    add_fmt(p)
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("check", help="ia / inner / ginner / normal verdicts")
    p.add_argument("kind", choices=("ia", "inner", "ginner", "normal"))
    p.add_argument("file")
    p.add_argument("--witness", action="store_true", help="search for a witness ideal")
    p.add_argument("--assert", dest="do_assert", action="store_true")
    add_fmt(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="canonical coset representative")
    p.add_argument("--modulo", choices=("in", "inn"), required=True)
    p.add_argument("file")
    add_fmt(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="seeded randomized law checking")
    p.add_argument("--law", choices=verify.LAW_NAMES, required=True)
    add_ctx(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coeff-bound", type=int, default=3)
    add_fmt(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"lmc: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ParseError,
        ValidationError,
        ContextMismatch,
        DimensionMismatch,
        DomainError,
    ) as exc:
        print(f"lmc: bad input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LmcError as exc:  # pragma: no cover - safety net
        print(f"lmc: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
