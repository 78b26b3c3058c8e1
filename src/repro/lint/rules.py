"""The per-file reprolint rule set (R001–R009).

Each rule targets a failure mode this codebase has actually hit (or is one
refactor away from hitting): seedless RNG fallbacks, shadow generator
streams that decorrelate replay, set-iteration order leaking into recorded
figures, drifting optimizer/estimator contracts, and the usual Python
footguns that silently corrupt evaluation results.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, attribute_chain
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

NP_RANDOM = "numpy.random"

#: numpy.random constructors that are deterministic *when given a seed*.
_SEEDED_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


def _is_constant_literal(node: ast.expr) -> bool:
    """True for literals (incl. unary-negated numbers) but not names."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return isinstance(node.operand, ast.Constant)
    return False


def _has_no_arguments(call: ast.Call) -> bool:
    return not call.args and not call.keywords


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


def _positional_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    return [a.arg for a in args.posonlyargs + args.args]


# ======================================================================
@register
class SeedlessRNG(Rule):
    id = "R001"
    name = "seedless-rng"
    summary = (
        "RNG pulled from global entropy: `np.random.default_rng()` with no "
        "argument, stdlib `random.*`, or legacy `np.random.<fn>` state calls"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved.startswith(NP_RANDOM + "."):
                tail = resolved[len(NP_RANDOM) + 1 :]
                if tail in _SEEDED_CONSTRUCTORS:
                    # Generator() without a bit generator is a TypeError,
                    # not a determinism hazard.
                    if tail != "Generator" and _has_no_arguments(node):
                        yield self.finding(
                            ctx,
                            node,
                            f"`np.random.{tail}()` with no seed draws from OS "
                            "entropy; derive the generator from the "
                            "SeedSequence tree (pass a seed or an rng)",
                        )
                elif "." not in tail:
                    yield self.finding(
                        ctx,
                        node,
                        f"`np.random.{tail}(...)` uses numpy's global RNG "
                        "state; use a `np.random.Generator` threaded from "
                        "the caller instead",
                    )
            elif resolved == "random" or resolved.startswith("random."):
                tail = resolved[len("random.") :] if "." in resolved else ""
                if tail == "Random" and not _has_no_arguments(node):
                    continue  # random.Random(seed) is an owned, seeded stream
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib `random.{tail or 'random'}` relies on global "
                    "(or OS) RNG state; use a seeded `np.random.Generator` "
                    "threaded from the caller",
                )


# ======================================================================
@register
class ShadowRNGStream(Rule):
    id = "R002"
    name = "shadow-rng-stream"
    summary = (
        "generator built from a hard-coded constant inside a function that "
        "already receives `rng`/`seed` (decorrelates replay)"
    )

    _CONSTRUCTORS = {
        NP_RANDOM + ".default_rng",
        NP_RANDOM + ".RandomState",
        NP_RANDOM + ".SeedSequence",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: list[Finding] = []
        rule = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.stack: list[set[str]] = []

            def _visit_func(self, node) -> None:
                self.stack.append(_function_params(node))
                self.generic_visit(node)
                self.stack.pop()

            visit_FunctionDef = _visit_func
            visit_AsyncFunctionDef = _visit_func

            def visit_Call(self, node: ast.Call) -> None:
                resolved = ctx.resolve(node.func)
                if resolved in rule._CONSTRUCTORS and self.stack:
                    params = self.stack[-1]
                    governed = params & {"rng", "seed"}
                    values = list(node.args) + [kw.value for kw in node.keywords]
                    if governed and values and all(map(_is_constant_literal, values)):
                        given = " and ".join(f"`{p}`" for p in sorted(governed))
                        findings.append(
                            rule.finding(
                                ctx,
                                node,
                                "generator seeded from a hard-coded constant "
                                f"inside a function that receives {given}; "
                                "derive it from the provided parameter so "
                                "replay stays correlated",
                            )
                        )
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings


# ======================================================================
@register
class UnorderedIteration(Rule):
    id = "R003"
    name = "unordered-iteration"
    summary = (
        "iteration over `set(...)`/`.keys()` feeding ordered output; sort "
        "first (the fig6 bug class)"
    )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"set", "frozenset"}
        return False

    @staticmethod
    def _is_keys_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
            and not node.keywords
        )

    def _check_iterable(self, ctx: FileContext, node: ast.expr) -> Iterator[Finding]:
        if self._is_set_expr(node):
            yield self.finding(
                ctx,
                node,
                "iterating an unordered set feeds hash-dependent order into "
                "downstream output; wrap in `sorted(...)`",
            )
        elif self._is_keys_call(node):
            yield self.finding(
                ctx,
                node,
                "iterating `.keys()` hides the ordering contract; iterate "
                "the mapping directly or use `sorted(...)` to make the "
                "order explicit",
            )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iterable(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iterable(ctx, gen.iter)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"list", "tuple", "enumerate"}
                and len(node.args) == 1
                and self._is_set_expr(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"`{node.func.id}(set(...))` materializes hash-dependent "
                    "order; use `sorted(set(...))`",
                )


# ======================================================================
@register
class OptimizerContract(Rule):
    id = "R004"
    name = "optimizer-contract"
    summary = (
        "Optimizer subclasses must define conforming `suggest(self, history)`/"
        "`observe(self, observation)` and accept `seed`; randomized "
        "estimators must expose a `seed` attribute"
    )

    @staticmethod
    def _base_names(cls: ast.ClassDef) -> list[str]:
        names: list[str] = []
        for base in cls.bases:
            chain = attribute_chain(base)
            if chain:
                names.append(chain[-1])
        return names

    def _optimizer_classes(self, classes: list[ast.ClassDef]) -> set[str]:
        """Names of classes that (transitively, within this module) extend
        a class named ``Optimizer`` / ``*Optimizer``."""
        optimizers = {
            c.name for c in classes if any(b.endswith("Optimizer") for b in self._base_names(c))
        }
        changed = True
        while changed:
            changed = False
            for c in classes:
                if c.name not in optimizers and any(
                    b in optimizers for b in self._base_names(c)
                ):
                    optimizers.add(c.name)
                    changed = True
        return optimizers

    @staticmethod
    def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
        return {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    @staticmethod
    def _uses_randomness(cls: ast.ClassDef, ctx: FileContext) -> bool:
        for node in ast.walk(cls):
            if isinstance(node, ast.Call):
                resolved = ctx.resolve(node.func)
                if resolved and resolved.startswith((NP_RANDOM + ".", "random.")):
                    return True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if "rng" in _function_params(node):
                    return True
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "rng"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return True
        return False

    @staticmethod
    def _assigns_self_seed(cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "seed"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
        return False

    def _check_signature(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        method: ast.FunctionDef,
        expected: tuple[str, ...],
    ) -> Iterator[Finding]:
        params = _positional_params(method)
        if tuple(params[: len(expected)]) != expected:
            want = ", ".join(expected)
            yield self.finding(
                ctx,
                method,
                f"`{cls.name}.{method.name}` must start with positional "
                f"parameters ({want}); got ({', '.join(params) or 'none'})",
            )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        classes = [n for n in ctx.nodes if isinstance(n, ast.ClassDef)]
        optimizers = self._optimizer_classes(classes)
        for cls in classes:
            methods = self._methods(cls)
            if cls.name in optimizers:
                if "suggest" in methods:
                    yield from self._check_signature(
                        ctx, cls, methods["suggest"], ("self", "history")
                    )
                if "observe" in methods:
                    yield from self._check_signature(
                        ctx, cls, methods["observe"], ("self", "observation")
                    )
                init = methods.get("__init__")
                if init is not None and "seed" not in _function_params(init):
                    yield self.finding(
                        ctx,
                        init,
                        f"`{cls.name}.__init__` must accept a `seed` "
                        "parameter so sessions can thread the SeedSequence "
                        "tree through every optimizer",
                    )
            elif "fit" in methods and self._uses_randomness(cls, ctx):
                init = methods.get("__init__")
                if (
                    init is not None
                    and "seed" not in _function_params(init)
                    and not self._assigns_self_seed(cls)
                ):
                    yield self.finding(
                        ctx,
                        init,
                        f"randomized estimator `{cls.name}` must expose a "
                        "`seed` (constructor parameter or `self.seed` "
                        "attribute) for reproducible refits",
                    )


# ======================================================================
@register
class MutableDefaultArgument(Rule):
    id = "R005"
    name = "mutable-default-argument"
    summary = "mutable default argument shared across calls"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}

    def _is_mutable(self, node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and build inside the function",
                    )


# ======================================================================
@register
class SwallowedException(Rule):
    id = "R006"
    name = "swallowed-exception"
    summary = (
        "bare `except:` or `except Exception: pass` hides evaluation "
        "failures instead of recording them"
    )

    @staticmethod
    def _catches_everything(node: ast.ExceptHandler) -> bool:
        handled = node.type
        if handled is None:
            return True
        names: list[ast.expr] = (
            list(handled.elts) if isinstance(handled, ast.Tuple) else [handled]
        )
        for name in names:
            chain = attribute_chain(name)
            if chain and chain[-1] in {"Exception", "BaseException"}:
                return True
        return False

    @staticmethod
    def _body_is_noop(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt and "
                    "hides real failures; name the exception types",
                )
            elif self._catches_everything(node) and self._body_is_noop(node.body):
                yield self.finding(
                    ctx,
                    node,
                    "`except Exception: pass` silently swallows evaluation "
                    "failures; record the failure (clamp, log, or re-raise)",
                )


# ======================================================================
@register
class WallClockInResults(Rule):
    id = "R007"
    name = "wall-clock-in-results"
    summary = (
        "`time.time()`/`datetime.now()` in result-producing code makes "
        "outputs run-dependent; use `perf_counter` for durations or inject "
        "timestamps"
    )

    _BANNED = {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in self._BANNED:
                yield self.finding(
                    ctx,
                    node,
                    f"`{resolved}()` reads the wall clock, making results "
                    "differ between runs; use `time.perf_counter()` for "
                    "durations or accept the timestamp as a parameter",
                )


# ======================================================================
@register
class FloatEquality(Rule):
    id = "R008"
    name = "float-equality"
    summary = (
        "float `==`/`!=` against a non-sentinel literal; use a tolerance "
        "(`math.isclose`, `np.isclose`) instead"
    )

    #: Exact sentinel values commonly used as flags/edge guards; IEEE-754
    #: represents these exactly and the codebase compares against them on
    #: purpose (e.g. zero-variance guards).
    _SENTINELS = (0.0, 1.0, -1.0)

    @classmethod
    def _nonsentinel_float(cls, node: ast.expr) -> float | None:
        value: object | None = None
        if isinstance(node, ast.Constant):
            value = node.value
        elif (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
        ):
            inner = node.operand.value
            if isinstance(inner, float):
                value = -inner if isinstance(node.op, ast.USub) else inner
        if not isinstance(value, float):
            return None
        if any(value == s for s in cls._SENTINELS):
            return None
        return value

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[i], operands[i + 1]):
                    value = self._nonsentinel_float(side)
                    if value is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"exact float comparison against {value!r} is "
                            "representation-dependent; compare with a "
                            "tolerance or suppress with a reason if the "
                            "value is an exact sentinel",
                        )
                        break


# ======================================================================
@register
class UnclassifiedExceptionHandler(Rule):
    id = "R009"
    name = "unclassified-exception-handler"
    summary = (
        "catch-all `except` handler that neither re-raises nor records a "
        "classified failure (Observation / RunResult / FailureKind)"
    )

    #: Lower-cased substrings of a terminal call name that indicate the
    #: handler converts the exception into recorded failure state rather
    #: than swallowing it (e.g. ``RunResult``, ``_failed_obs``,
    #: ``Observation``, ``FailureKind``, ``_worker_death_result``).
    _FAILURE_TOKENS = ("observation", "obs", "result", "failure")

    @classmethod
    def _records_failure(cls, body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if not isinstance(node, ast.Call):
                    continue
                chain = attribute_chain(node.func)
                if not chain:
                    continue
                terminal = chain[-1].lower()
                if any(token in terminal for token in cls._FAILURE_TOKENS):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not SwallowedException._catches_everything(node):
                continue
            if self._records_failure(node.body):
                continue
            yield self.finding(
                ctx,
                node,
                "catch-all handler neither re-raises nor records the failure "
                "as an Observation/RunResult/FailureKind; classify the "
                "failure (or suppress with a reason explaining why losing "
                "it is safe)",
            )
