"""Per-layer counters and self times, taken from outside the program.

Tracer.install() replaces public functions of the lmc modules (module
attributes and class attributes) with wrappers that count calls and
record a span per call; uninstall() puts the originals back.  Nothing
under src/ is edited.  Callers inside lmc look these names up through the
module or class at call time, so the wrappers see every internal call.

A layer's self time is the time of its spans minus the time of the spans
they enclose.  Kernel functions are only counted, not timed: they run
inside TruncPoly spans, which already carry their time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from lmc import arith, cli, cosets, endo, liealg, linalg, normal, syntax, verify

# (layer, owner, attribute names) of every timed span.
SPANS = (
    ("arith", arith.TruncPoly, (
        "__init__", "__add__", "__sub__", "__neg__", "__mul__", "scale", "mul_var",
        "divide_var", "graded", "split_var", "with_cap", "__eq__",
    )),
    ("liealg", liealg.LieElement, (
        "__init__", "__add__", "__sub__", "__neg__", "scale", "full_poly", "__eq__",
    )),
    ("liealg", liealg, (
        "zero", "generator", "bracket", "bracket_chain", "ad_polynomial_action",
        "membership_defect", "enumerate_basis", "from_basis", "to_basis",
        "element_vector", "vector_to_element", "ideal_closure", "span_of",
    )),
    ("linalg", linalg.SparseSolver, ("__init__", "solve")),
    ("linalg", linalg.SpanBasis, ("add", "reduce", "contains")),
    ("linalg", linalg, ("mat_inv", "mat_mul")),
    ("endo", endo.JacobianMatrix, (
        "__matmul__", "__add__", "__sub__", "__eq__", "column_defect",
        "satisfies_s_condition", "neumann_inverse",
    )),
    ("endo", endo.Endomorphism, ("apply", "is_ia", "__eq__")),
    ("endo", endo, (
        "compose", "jacobian", "ia_from_jacobian", "exp_ad", "linear_endo",
        "decompose", "invert", "group_commutator",
    )),
    ("normal", normal.NormalAut, ("to_endo",)),
    ("normal", normal, (
        "ginn_to_endo", "ginn_compose", "ginn_invert", "ginn_apply", "ginn_jacobian",
        "recognize_ginn", "recognize_inner", "preserves_ideal", "decide_normal",
        "check_law_guard",
    )),
    ("cosets", cosets, (
        "shape_check", "psi_diagnostics", "reduce_mod_in", "reduce_mod_inn_normal",
        "same_coset",
    )),
    ("verify", verify, ("sample", "check_law")),
    ("syntax", syntax, (
        "parse_element", "parse_poly", "parse_automorphism", "print_poly",
        "print_element", "automorphism_dict", "print_automorphism",
    )),
    ("cli", cli, ("main",)),
)

# Spans whose nested calls are counted: exp_ad under recognize_inner is a
# peel step, preserves_ideal under decide_normal a witness ideal tried.
NESTED = {
    "endo.exp_ad": ("normal.recognize_inner", "normal.recognize_inner.peel_steps"),
    "normal.preserves_ideal": ("normal.decide_normal", "normal.witness.ideals_tried"),
}
SCOPES = {scope for scope, _ in NESTED.values()}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.extra = Counter()
        self.self_s = defaultdict(float)
        self._stack = [0.0]  # time of enclosed spans, one slot per open span
        self._open = Counter()
        self._saved = []
        self._basis_cache = None

    # -- installation ----------------------------------------------------------

    def install(self):
        for layer, owner, names in SPANS:
            for name in names:
                qual = f"{layer}.{name}"
                self._patch(owner, name, self._span(layer, qual, vars(owner)[name]))
        impl = arith._impl
        self._patch(impl, "pmul", self._pmul(impl.pmul))
        self._patch(impl, "padd", self._counted("arith.padd", impl.padd))
        self._patch(impl, "psub", self._counted("arith.padd", impl.psub))
        self._basis_cache = liealg._basis_solver.cache_info()

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        info = liealg._basis_solver.cache_info()
        self.extra["liealg.basis_solver.hits"] += info.hits - self._basis_cache.hits
        self.extra["liealg.basis_solver.misses"] += info.misses - self._basis_cache.misses

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    # -- wrappers ----------------------------------------------------------------

    def _span(self, layer, qual, fn):
        calls, self_s, stack, opened = self.calls, self.self_s, self._stack, self._open
        clock = time.perf_counter
        nested = NESTED.get(qual)
        scoped = qual in SCOPES
        after = _AFTER.get(qual)
        extra = self.extra

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if nested and opened[nested[0]]:
                extra[nested[1]] += 1
            if scoped:
                opened[qual] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                if scoped:
                    opened[qual] -= 1
            if after:
                after(extra, args, result)
            return result

        return wrapper

    def _counted(self, qual, fn):
        calls = self.calls

        def wrapper(*args):
            calls[qual] += 1
            return fn(*args)

        return wrapper

    def _pmul(self, fn):
        calls, extra = self.calls, self.extra

        def wrapper(a, b, cap):
            calls["arith.pmul"] += 1
            extra["arith.pmul.term_pairs"] += len(a) * len(b)
            return fn(a, b, cap)

        return wrapper

    # -- results -------------------------------------------------------------------

    def counts(self) -> dict:
        """Deterministic per-layer counts: the same inputs after the same
        history give the same numbers."""
        c, x = self.calls, self.extra
        hits, misses = x["liealg.basis_solver.hits"], x["liealg.basis_solver.misses"]
        return {
            "arith.pmul.calls": c["arith.pmul"],
            "arith.pmul.term_pairs": x["arith.pmul.term_pairs"],
            "arith.term_pairs_per_pmul": _ratio(x["arith.pmul.term_pairs"], c["arith.pmul"]),
            "arith.padd.calls": c["arith.padd"],
            "liealg.bracket.calls": c["liealg.bracket"],
            "liealg.to_basis.calls": c["liealg.to_basis"],
            "liealg.from_basis.calls": c["liealg.from_basis"],
            "liealg.ideal_closure.calls": c["liealg.ideal_closure"],
            "liealg.basis_solver.hit_ratio": _ratio(hits, hits + misses),
            "linalg.solver.builds": c["linalg.__init__"],
            "linalg.solver.columns": x["linalg.solver.columns"],
            "linalg.solver.rank_ratio": _ratio(x["linalg.solver.rank"], x["linalg.solver.columns"]),
            "linalg.solve.calls": c["linalg.solve"],
            "linalg.span.add.calls": c["linalg.add"],
            "linalg.span.add_useful_ratio": _ratio(x["linalg.span.useful"], c["linalg.add"]),
            "endo.apply.calls": c["endo.apply"],
            "endo.compose.calls": c["endo.compose"],
            "endo.invert.calls": c["endo.invert"],
            "endo.neumann_inverse.calls": c["endo.neumann_inverse"],
            "endo.exp_ad.calls": c["endo.exp_ad"],
            "normal.recognize_ginn.calls": c["normal.recognize_ginn"],
            "normal.recognize_inner.calls": c["normal.recognize_inner"],
            "normal.recognize_inner.peel_steps": x["normal.recognize_inner.peel_steps"],
            "normal.preserves_ideal.calls": c["normal.preserves_ideal"],
            "normal.witness.ideals_tried": x["normal.witness.ideals_tried"],
            # the whole process so far: the cache is filled during set-up
            "normal.ad_solver.builds": len(normal._AD_SOLVERS),
            "cosets.reduce_mod_in.calls": c["cosets.reduce_mod_in"],
            "cosets.reduce_mod_inn_normal.calls": c["cosets.reduce_mod_inn_normal"],
            "cosets.shape_check.calls": c["cosets.shape_check"],
            "verify.sample.calls": c["verify.sample"],
            "syntax.parse.calls": sum(
                c[f"syntax.{n}"] for n in ("parse_element", "parse_poly", "parse_automorphism")
            ),
            "syntax.print.calls": sum(
                c[f"syntax.{n}"]
                for n in ("print_poly", "print_element", "automorphism_dict", "print_automorphism")
            ),
        }

    def self_times(self) -> dict:
        out = {
            f"{layer}.self_s": self.self_s[layer]
            for layer in ("arith", "liealg", "linalg", "endo", "normal", "cosets", "verify", "syntax")
        }
        out["cli.main.self_s"] = self.self_s["cli"]
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _solver_built(extra, args, result):
    solver = args[0]
    extra["linalg.solver.columns"] += solver.ncols
    extra["linalg.solver.rank"] += solver.rank()


def _span_added(extra, args, result):
    if result:
        extra["linalg.span.useful"] += 1


_AFTER = {"linalg.__init__": _solver_built, "linalg.add": _span_added}
