"""Command-line front end.

Subcommands: eval, bracket, basis, aut, check, reduce, verify.  Elements
travel as inline strings, automorphisms as JSON files ('-' reads stdin).
Exit codes: 0 success; 2 when --assert is set and a verdict is negative,
or when `verify` finds a counterexample; 64 usage errors; 65 malformed
input.  Every path is a thin adapter over the library: JSON output is
exactly the library serialization.  LMC_FORMAT=text|json overrides the
default output format; an empty LMC_FORMAT counts as unset, and any other
value is a usage error.  One '--' before a subcommand name is dropped, so
`lmc -- basis ...` runs `lmc basis ...`.

The arguments of every subcommand are one table, SUBCOMMANDS: a command
line of the plain shape _read_argv knows is read from it directly, and
argparse, built from the same table, reads every form that reader
declines and gives every help text and error message.  One output rule,
in _print: each handler gives its JSON payload and, where it has one, its
text rendering; JSON prints the payload on one line, and text prints the
rendering, or the payload indented by 2 where there is none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

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

FORMATS = ("text", "json")  # values of --format and LMC_FORMAT


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Largest algebra dimension a command accepts: enumerating or operating on
# a much larger L_{m,c} would run for hours or exhaust memory.
MAX_DIM = 10_000

# Largest number of term pairs a dense Jacobian product may make, which is
# at most m^3 * C(c-1+2m, 2m): the binomial counts the pairs of monomials in
# m variables of total degree at most c-1.  At a few million pairs a second
# this bounds a product at seconds; every command on elements, maps or a law
# checks it, since dimension alone admits contexts such as (3,30) where a
# group commutator runs for minutes.
MAX_PAIRS = 10**7


MAX_TRIALS = 10_000  # largest `verify --trials`; a trial takes up to seconds


def _check_size(ctx: Context, pairs: bool = True) -> None:
    """Reject a context whose polynomials exceed the exponent field (bad
    input), or whose algebra is larger than MAX_DIM or, with pairs, whose
    Jacobian products cost more than MAX_PAIRS (usage errors)."""
    ctx.zero_poly()
    name = f"L_{{{ctx.m},{ctx.c}}}"
    if liealg.algebra_dim(ctx, bound=MAX_DIM) > MAX_DIM:
        raise UsageError(f"{name} has dimension above {MAX_DIM}, the limit of lmc")
    cost = ctx.m**3 * math.comb(ctx.c - 1 + 2 * ctx.m, 2 * ctx.m) if pairs else 0
    if cost > MAX_PAIRS:
        raise UsageError(
            f"{name} makes up to {cost} term pairs per Jacobian product"
            f" (m^3 * C(c-1+2m, 2m)), above {MAX_PAIRS}, the limit of lmc"
        )


def _context(args, pairs: bool = True) -> Context:
    try:
        ctx = Context(args.m, args.c)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    _check_size(ctx, pairs)
    return ctx


def _read_file(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _load_aut(path: str):
    return syntax.parse_automorphism(_read_file(path), check_context=_check_size)


def _env_format():
    """LMC_FORMAT, or None when it is unset or empty; any value but text
    and json is a usage error."""
    value = os.environ.get("LMC_FORMAT", "")
    if value and value not in FORMATS:
        raise UsageError(f"LMC_FORMAT must be text or json, got {value!r}")
    return value or None


def _print(args, default: str, payload, text=None) -> None:
    """Print a subcommand's output by the one output rule (module
    docstring) in the format --format, else LMC_FORMAT, else default.
    payload is the JSON value, or a function of the format that gives the
    whole output; text, where given, makes the text rendering."""
    fmt = args.format or _env_format() or default
    if callable(payload):
        print(payload(fmt))
    elif fmt == "text" and text is not None:
        print(text())
    else:
        print(json.dumps(payload, indent=2 if fmt == "text" else None))


# -- subcommands ---------------------------------------------------------------


def _cmd_eval(args) -> int:
    ctx = _context(args)
    u = syntax.parse_element(ctx, args.expr)
    basis = syntax.print_element(u, "basis")
    wreath = syntax.print_element(u, "wreath")
    payload = {"m": ctx.m, "c": ctx.c, "basis": basis, "wreath": wreath}
    _print(args, "text", payload, lambda: f"basis:  {basis}\nwreath: {wreath}")
    return EXIT_OK


def _cmd_bracket(args) -> int:
    ctx = _context(args)
    u = syntax.parse_element(ctx, args.e1)
    v = syntax.parse_element(ctx, args.e2)
    result = syntax.print_element(liealg.bracket(u, v), "basis")
    _print(args, "text", {"m": ctx.m, "c": ctx.c, "basis": result}, lambda: result)
    return EXIT_OK


def _cmd_basis(args) -> int:
    ctx = _context(args, pairs=False)  # enumerating tuples makes no product
    degrees = range(1, ctx.c + 1) if args.degree is None else [args.degree]
    table = {}
    for k in degrees:
        tuples = ["(" + ",".join(map(str, t)) + ")" for t in liealg.enumerate_basis(ctx, k)]
        table[str(k)] = {"dim": len(tuples), "tuples": tuples}

    def text():
        lines = [f"degree {k}: dim {r['dim']}: {' '.join(r['tuples'])}" for k, r in table.items()]
        if args.degree is None:
            lines.append(f"total dim {sum(r['dim'] for r in table.values())}")
        return "\n".join(lines)

    _print(args, "text", {"m": ctx.m, "c": ctx.c, "degrees": table}, text)
    return EXIT_OK


# op -> (number of arguments, library call on the first file's map and the
# other arguments: more maps, or for apply the element text)
_AUT_OPS = {
    "compose": (2, endo.compose),
    "invert": (1, endo.invert),
    "commutator": (2, endo.group_commutator),
    "jacobian": (1, endo.jacobian),
    "apply": (2, lambda phi, expr: phi.apply(syntax.parse_element(phi.ctx, expr))),
}


def _cmd_aut(args) -> int:
    op = args.op
    arity, call = _AUT_OPS[op]
    if len(args.args) != arity:
        what = "FILE EXPR" if op == "apply" else f"{arity} automorphism file(s)"
        raise UsageError(f"aut {op} takes {what}")
    phi = _load_aut(args.args[0])
    rest = args.args[1:] if op == "apply" else [_load_aut(path) for path in args.args[1:]]
    result = call(phi, *rest)
    if op == "apply":
        out = syntax.print_element(result, "basis")
        _print(args, "text", {"m": phi.ctx.m, "c": phi.ctx.c, "basis": out}, lambda: out)
    elif op == "jacobian":
        _print(args, "json", {"m": phi.ctx.m, "c": phi.ctx.c, "jacobian": syntax.jacobian_rows(result)})
    else:
        _print(args, "json", lambda fmt: syntax.print_automorphism(result, fmt))
    return EXIT_OK


def _cmd_check(args) -> int:
    phi = _load_aut(args.file)
    kind = args.kind
    if kind in ("inner", "ginner") and not phi.is_ia():
        what = "inner" if kind == "inner" else "generalized inner"
        raise ValidationError(f"{what} automorphisms are IA; input is not")
    if kind == "ia":
        payload = {"check": "ia", "result": phi.is_ia()}
    elif kind == "inner":
        u = normal.recognize_inner(phi)
        generator = None if u is None else syntax.print_element(u)
        payload = {"check": "inner", "result": u is not None, "generator": generator}
    elif kind == "ginner":
        g = normal.recognize_ginn(phi)
        f = None if g is None else [str(p) for p in g.f]
        payload = {"check": "ginner", "result": g is not None, "f": f}
    else:  # normal
        verdict = normal.decide_normal(phi, search_witness=args.witness)
        payload = {"check": "normal", **verdict.to_dict(syntax.print_element)}
        g = verdict.aut.g if verdict.normal and phi.is_ia() else None
        payload["inner"] = g is not None and normal.inner_generator(g) is not None
    _print(args, "json", payload)
    negative = not payload["normal" if kind == "normal" else "result"]
    return EXIT_ASSERT if args.do_assert and negative else EXIT_OK


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
    payload = {
        "subgroup": subgroup,
        "canonical_jacobian": syntax.jacobian_rows(form.jac),
        "conjugator": syntax.automorphism_dict(normal.ginn_to_endo(conj)),
    }
    if warnings:
        payload["warnings"] = warnings
    _print(args, "json", payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials {args.trials} is above {MAX_TRIALS}, the limit of lmc")
    ctx = _context(args)
    report = verify.check_law(args.law, ctx, args.trials, args.seed, args.coeff_bound)
    _print(args, "json", report.to_dict())
    return EXIT_OK if report.ok else EXIT_ASSERT


# -- wiring -----------------------------------------------------------------------

FLAG = "flag"  # the kind of an option that stores True when given


class Arg(NamedTuple):
    """One argument of a subcommand: a positional name or a '--' option.
    kind is str, int, a tuple of choices, or FLAG."""

    name: str
    kind: object = str
    default: object = None
    required: bool = False
    nargs: str | None = None
    help: str | None = None
    dest: str | None = None

    @property
    def key(self) -> str:
        """The Namespace attribute, named as argparse names it."""
        return self.dest or self.name.lstrip("-").replace("-", "_")


_M = Arg("--m", int, required=True, help="number of generators")
_C = Arg("--c", int, required=True, help="nilpotency class")
_FORMAT = Arg("--format", FORMATS)

# name -> (help, arguments in declaration order, handler), in help order.
SUBCOMMANDS = {
    "eval": (
        "parse an element, print basis and wreath forms",
        (_M, _C, Arg("expr"), _FORMAT),
        _cmd_eval,
    ),
    "bracket": (
        "Lie bracket of two elements, basis form",
        (_M, _C, Arg("e1"), Arg("e2"), _FORMAT),
        _cmd_bracket,
    ),
    "basis": (
        "basis tuples and dimension table",
        (_M, _C, Arg("--degree", int), _FORMAT),
        _cmd_basis,
    ),
    "aut": (
        "automorphism algebra on JSON files",
        (
            Arg("op", tuple(_AUT_OPS)),
            Arg(
                "args",
                nargs="+",
                help="automorphism JSON files ('-' for stdin); aut apply takes FILE EXPR",
            ),
            _FORMAT,
        ),
        _cmd_aut,
    ),
    "check": (
        "ia / inner / ginner / normal verdicts",
        (
            Arg("kind", ("ia", "inner", "ginner", "normal")),
            Arg("file"),
            Arg("--witness", FLAG, False, help="search for a witness ideal"),
            Arg("--assert", FLAG, False, dest="do_assert"),
            _FORMAT,
        ),
        _cmd_check,
    ),
    "reduce": (
        "canonical coset representative",
        (Arg("--modulo", ("in", "inn"), required=True), Arg("file"), _FORMAT),
        _cmd_reduce,
    ),
    "verify": (
        "seeded randomized law checking",
        (
            Arg("--law", verify.LAW_NAMES, required=True),
            _M,
            _C,
            Arg("--trials", int, 100),
            Arg("--seed", int, 0),
            Arg("--coeff-bound", int, 3),
            _FORMAT,
        ),
        _cmd_verify,
    ),
}


def _add_argument(parser, arg: Arg) -> None:
    kwargs = {"help": arg.help}
    if arg.kind == FLAG:
        kwargs["action"] = "store_true"
    else:
        kwargs["nargs"] = arg.nargs
        if arg.kind is int:
            kwargs["type"] = int
        elif isinstance(arg.kind, tuple):
            kwargs["choices"] = arg.kind
    if arg.name.startswith("-"):
        kwargs.update(dest=arg.key, default=arg.default, required=arg.required)
    parser.add_argument(arg.name, **kwargs)


def _build_parser(names=SUBCOMMANDS) -> _Parser:
    """The parser of `lmc` with the subcommands named (all by default)."""
    # --help shows the docstring without its last paragraph, a note on the code
    parser = _Parser(prog="lmc", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, table, func = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for arg in table:
            _add_argument(p, arg)
        p.set_defaults(func=func)
    return parser


def _parser_for(argv) -> _Parser:
    """A parser for argv: one that knows only the subcommand argv[0] names,
    or, for any other argv (help, '--', an unknown name, nothing), the full
    parser, so that every help text and error message is the full one's."""
    if argv and argv[0] in SUBCOMMANDS:
        return _build_parser((argv[0],))
    return _build_parser()


def _option_value(arg: Arg, token):
    """token read as the value of option arg, or None when there is no
    token, it starts with '-', or it is not of arg's kind."""
    if token is None or token.startswith("-"):
        return None
    if arg.kind is int:
        try:
            return int(token)
        except ValueError:
            return None
    if isinstance(arg.kind, tuple) and token not in arg.kind:
        return None
    return token


def _read_argv(argv):
    """The Namespace argparse makes of argv, read from SUBCOMMANDS without
    building a parser, or None for any argv not of this shape: a subcommand
    name; options spelled exactly as declared, each value valid for its
    kind and not starting with '-'; every required option; the positionals
    as one run, which may hold a single '--' that some token follows, every
    token after it a positional.  Declined argv go to argparse.  Never
    raises and never prints."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, table, func = SUBCOMMANDS[argv[0]]
    options = {arg.name: arg for arg in table if arg.name.startswith("-")}
    values = {arg.key: arg.default for arg in table}
    given, words, closed = set(), [], False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            if closed:
                return None
            rest = list(tokens)
            if not rest or "--" in rest:
                return None
            words += rest
        elif not token.startswith("-"):
            if closed:
                return None  # a second run of positionals
            words.append(token)
        else:
            arg = options.get(token)
            if arg is None:
                return None
            closed = bool(words)
            value = True if arg.kind == FLAG else _option_value(arg, next(tokens, None))
            if value is None:
                return None
            values[arg.key] = value
            given.add(token)
    if any(arg.required and name not in given for name, arg in options.items()):
        return None
    positionals = [arg for arg in table if not arg.name.startswith("-")]
    if positionals and positionals[-1].nargs == "+":
        n = len(positionals) - 1
        if len(words) <= n:
            return None
        words = [*words[:n], words[n:]]
    if len(words) != len(positionals):
        return None
    for arg, word in zip(positionals, words):
        if isinstance(arg.kind, tuple) and word not in arg.kind:
            return None
        values[arg.key] = word
    return argparse.Namespace(command=argv[0], **values, func=func)


def _report(kind: str, exc: Exception) -> None:
    # One line, also when the message quotes an argument with line breaks.
    print(f"lmc: {kind}: {' '.join(str(exc).splitlines())}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) > 1 and argv[0] == "--" and argv[1] in SUBCOMMANDS:
        argv = argv[1:]  # argparse would take the '--' for the subcommand name
    try:
        args = _read_argv(argv) or _parser_for(argv).parse_args(argv)
        _env_format()
        return args.func(args)
    except UsageError as exc:
        _report("usage error", exc)
        return EXIT_USAGE
    except (
        ParseError,
        ValidationError,
        ContextMismatch,
        DimensionMismatch,
        DomainError,
    ) as exc:
        _report("bad input", exc)
        return EXIT_DATA
    except LmcError as exc:  # pragma: no cover - safety net
        _report("error", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
