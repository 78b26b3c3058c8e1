"""Per-file fact extraction for the whole-program passes.

From the per-file pass's parse (:class:`~repro.lint.context.FileContext`
and its shared node list) this distills a :class:`FileSummary` —
everything the program rules need, and nothing they don't.  The heart is
a two-color intra-procedural taint analysis:

- **seed** taint tracks values derived from the SeedSequence tree
  (``seed``/``rng`` parameters, ``*.seed`` attribute loads, RNG
  constructor results) through assignments, arithmetic, unpacking, and
  call arguments to the RNG sinks (R010) and records how each ``seed``
  parameter is consumed (R011);
- **clock** taint tracks values derived from wall-clock reads
  (``time.time()``, ``datetime.now()``, ...) into record-dict writes and
  hash/serialization sinks (R014).

Cross-module flows cannot be decided per file; wherever a value's taint
hinges on what a callee returns, the summary records the callee as a
*dependency* and the program pass resolves it against the global
fixpoint of seed-returning / clock-returning functions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.lint.context import FileContext, attribute_chain, collect_aliases
from repro.lint.rules import _SEEDED_CONSTRUCTORS, WallClockInResults

#: Resolved call targets that *create* an RNG stream.  A call with at
#: least one argument is a seed **sink**: whatever flows in determines
#: every draw that comes out.
RNG_SINKS = frozenset(
    {f"numpy.random.{name}" for name in _SEEDED_CONSTRUCTORS} | {"random.Random"}
)

#: Resolved call targets that read the wall clock (shared with R007).
CLOCK_SOURCES = frozenset(WallClockInResults._BANNED)

#: Resolved call targets whose arguments get hashed/serialized into
#: durable artifacts — the terminal sinks of the R014 flow.
HASH_SINKS = frozenset(
    {
        "json.dumps",
        "json.dump",
        "hashlib.sha256",
        "hashlib.sha1",
        "hashlib.md5",
        "hashlib.blake2b",
        "pickle.dumps",
        "pickle.dump",
    }
)

_SEED_NAME_RE = re.compile(r"seed|random_state", re.IGNORECASE)

#: Functions whose *name* marks them as producing recorded/fingerprinted
#: payloads; clock taint reaching a dict value inside them is an R014.
RECORDISH_NAME_RE = re.compile(
    r"to_record|to_payload|fingerprint|telemetry|checkpoint|journal|snapshot",
    re.IGNORECASE,
)


def is_seedish(name: str) -> bool:
    """Names that carry seed provenance by convention."""
    return bool(_SEED_NAME_RE.search(name)) or name.lower() in {"rng", "rngs", "seeds"}


# ----------------------------------------------------------------------
# taint values
# ----------------------------------------------------------------------
@dataclass
class Taint:
    """Taint state of one value for one color.

    ``definite`` means the taint is proven locally; ``deps`` lists callee
    names whose (globally computed) return taint would also taint this
    value.  Absence of both means clean.
    """

    definite: bool = False
    deps: frozenset[str] = frozenset()

    def merged(self, other: "Taint") -> "Taint":
        return Taint(self.definite or other.definite, self.deps | other.deps)

    @property
    def clean(self) -> bool:
        return not self.definite and not self.deps


@dataclass
class Taints:
    seed: Taint = field(default_factory=Taint)
    clock: Taint = field(default_factory=Taint)

    def merged(self, other: "Taints") -> "Taints":
        return Taints(self.seed.merged(other.seed), self.clock.merged(other.clock))


_CLEAN = Taints()


# ----------------------------------------------------------------------
# recorded facts
# ----------------------------------------------------------------------
@dataclass
class SinkCall:
    """One RNG-constructor call with >= 1 argument."""

    line: int
    col: int
    callee: str
    #: "tainted" | "untainted" | "constant" (all-literal args: R002's
    #: territory, not a provenance break).
    status: str
    #: Callee names that could rescue an "untainted" verdict globally.
    deps: list[str] = field(default_factory=list)


@dataclass
class SeedParamUse:
    """How one seed/rng parameter is consumed inside its function."""

    name: str
    calls: int = 0  # forwarded as a call argument (sub-component)
    sinks: int = 0  # fed into an RNG sink
    returns: int = 0  # returned to the caller
    other: int = 0  # any other read (arithmetic, conditions, ...)
    none_checks: int = 0  # `seed is None` style guards only
    stores: list[str] = field(default_factory=list)  # `self.X = seed`


@dataclass
class DictWrite:
    """A string-keyed dict value written inside a function."""

    line: int
    col: int
    key: str
    clock_definite: bool = False
    clock_deps: list[str] = field(default_factory=list)


@dataclass
class HashSinkArg:
    """Clock taint of an argument to a hash/serialization sink."""

    line: int
    col: int
    callee: str
    clock_definite: bool = False
    clock_deps: list[str] = field(default_factory=list)


@dataclass
class FunctionFacts:
    """Compact summary of one top-level function or method."""

    name: str
    qualname: str  # "func" or "Class.method" within the module
    line: int
    col: int
    # signature shape (for R012)
    pos_params: list[str] = field(default_factory=list)
    n_required_pos: int = 0
    required_kwonly: list[str] = field(default_factory=list)
    all_params: list[str] = field(default_factory=list)
    has_vararg: bool = False
    has_kwarg: bool = False
    is_stub: bool = False
    # seed provenance (R010/R011)
    seed_params: list[SeedParamUse] = field(default_factory=list)
    reads_seed_attr: bool = False
    sink_calls: list[SinkCall] = field(default_factory=list)
    return_seed_definite: bool = False
    return_seed_deps: list[str] = field(default_factory=list)
    # clock flow (R014)
    return_clock_definite: bool = False
    return_clock_deps: list[str] = field(default_factory=list)
    dict_writes: list[DictWrite] = field(default_factory=list)
    hash_sink_args: list[HashSinkArg] = field(default_factory=list)
    # checkpoint schema (R013)
    record_write_keys: list[str] = field(default_factory=list)
    record_read_keys: list[str] = field(default_factory=list)


@dataclass
class ClassFacts:
    name: str
    line: int
    col: int
    #: Raw (unresolved) dotted base names, e.g. ``["Optimizer"]`` or
    #: ``["base.Optimizer"]`` — the ProgramIndex resolves them.
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionFacts] = field(default_factory=dict)


@dataclass
class ContractCall:
    """A ``<recv>.suggest(...)`` / ``<recv>.observe(...)`` call site."""

    line: int
    col: int
    method: str
    n_pos: int
    kwargs: list[str] = field(default_factory=list)
    has_star: bool = False
    has_kwstar: bool = False
    receiver: str = ""


@dataclass
class FileSummary:
    """Everything the whole-program passes need from one file."""

    path: str
    module: str  # dotted module name ("" when unknown)
    package: str  # top-level package name ("" for loose files)
    is_init: bool = False
    aliases: dict[str, str] = field(default_factory=dict)
    attr_loads: list[str] = field(default_factory=list)
    functions: list[FunctionFacts] = field(default_factory=list)
    classes: list[ClassFacts] = field(default_factory=list)
    contract_calls: list[ContractCall] = field(default_factory=list)
    #: line -> suppression codes, so program findings honor inline
    #: ``# reprolint: disable=`` comments without re-reading the file.
    suppressions: dict[int, list[str]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# expression taint evaluation
# ----------------------------------------------------------------------
class _FunctionAnalyzer:
    """Intra-procedural, flow-insensitive-to-a-fault taint walk.

    The statement list is processed in order twice, so a name assigned
    below its first use inside a loop still converges.  Precision favors
    *over*-tainting: a false "tainted" merely silences a finding, while a
    false "untainted" would page a human.
    """

    def __init__(self, summary: FileSummary, module: str, cls: str | None) -> None:
        self.summary = summary
        self.module = module
        self.cls = cls
        self.env: dict[str, Taints] = {}

    # -- callee canonicalization ---------------------------------------
    def resolve_callee(self, func: ast.expr) -> str | None:
        """Best-effort canonical name of a call target.

        ``f()`` -> alias target or ``module.f`` (assumed local);
        ``self.m()`` -> ``module.Class.m``; ``obj.m()`` -> ``?m`` (matched
        leniently by terminal name at index time); unresolvable -> None.
        """
        chain = attribute_chain(func)
        if chain is None:
            return None
        root = chain[0]
        target = self.summary.aliases.get(root)
        if target is not None:
            return ".".join([target, *chain[1:]])
        if len(chain) == 1:
            return f"{self.module}.{root}" if self.module else f"?{root}"
        if root == "self" and self.cls and len(chain) == 2:
            return f"{self.module}.{self.cls}.{chain[1]}"
        return f"?{chain[-1]}"

    # -- expression evaluation -----------------------------------------
    def eval(self, node: ast.expr | None) -> Taints:
        if node is None:
            return _CLEAN
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Default: union over child expressions (f-strings, slices, ...).
        out = _CLEAN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out = out.merged(self.eval(child))
        return out

    def _eval_Name(self, node: ast.Name) -> Taints:
        taints = self.env.get(node.id, _CLEAN)
        if is_seedish(node.id):
            taints = taints.merged(Taints(seed=Taint(definite=True)))
        return taints

    def _eval_Attribute(self, node: ast.Attribute) -> Taints:
        taints = self.eval(node.value)
        if is_seedish(node.attr):
            taints = taints.merged(Taints(seed=Taint(definite=True)))
        return taints

    def _eval_Constant(self, node: ast.Constant) -> Taints:
        return _CLEAN

    def _eval_Compare(self, node: ast.Compare) -> Taints:
        return _CLEAN  # a boolean is neither a seed nor a timestamp

    def _eval_Lambda(self, node: ast.Lambda) -> Taints:
        return _CLEAN

    def _eval_comprehension(self, node: ast.expr) -> Taints:
        # Bind each generator target from its iterable so the element
        # expression sees the provenance (`[default_rng(c) for c in
        # seed_seq.spawn(n)]` is seeded, not shadowed).
        for gen in node.generators:  # type: ignore[attr-defined]
            self.bind(gen.target, self.eval(gen.iter))
        if isinstance(node, ast.DictComp):
            return self.eval(node.key).merged(self.eval(node.value))
        return self.eval(node.elt)  # type: ignore[attr-defined]

    _eval_ListComp = _eval_comprehension
    _eval_SetComp = _eval_comprehension
    _eval_GeneratorExp = _eval_comprehension
    _eval_DictComp = _eval_comprehension

    def _eval_Call(self, node: ast.Call) -> Taints:
        callee = self.resolve_callee(node.func)
        out = _CLEAN
        # Receiver propagation: `child.spawn(4)`, `seeds.server`, and any
        # method on a tainted object stays tainted.
        if isinstance(node.func, ast.Attribute):
            out = out.merged(self.eval(node.func.value))
        for arg in node.args:
            inner = arg.value if isinstance(arg, ast.Starred) else arg
            out = out.merged(self.eval(inner))
        for kw in node.keywords:
            out = out.merged(self.eval(kw.value))
        if callee is not None:
            terminal = callee.rsplit(".", 1)[-1]
            if callee in CLOCK_SOURCES:
                out = out.merged(Taints(clock=Taint(definite=True)))
            elif callee in RNG_SINKS or is_seedish(terminal):
                # An RNG stream (or a seed-deriving helper's result) is
                # itself seed provenance for everything downstream.
                out = out.merged(Taints(seed=Taint(definite=True)))
            else:
                dep = frozenset({callee})
                out = out.merged(
                    Taints(seed=Taint(deps=dep), clock=Taint(deps=dep))
                )
        return out

    # -- statement walk -------------------------------------------------
    def bind(self, target: ast.expr, taints: Taints) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(target.id, _CLEAN).merged(taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt.value if isinstance(elt, ast.Starred) else elt, taints)
        # Attribute/subscript stores don't create local bindings.

    def process(self, body: list[ast.stmt]) -> None:
        for _ in range(2):
            for stmt in body:
                self._process_stmt(stmt)

    def _process_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes analyzed separately (or not at all)
        if isinstance(stmt, ast.Assign):
            taints = self.eval(stmt.value)
            for target in stmt.targets:
                self.bind(target, taints)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.bind(stmt.target, self.eval(stmt.iter))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, self.eval(item.context_expr))
        else:
            # Evaluate bare expressions (returns, calls, conditions) too:
            # comprehensions bind their targets as a side effect, and the
            # sink extraction later reads those bindings from the env.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._process_stmt(child)


# ----------------------------------------------------------------------
# per-function extraction
# ----------------------------------------------------------------------
def _signature_facts(node: ast.FunctionDef | ast.AsyncFunctionDef) -> dict:
    args = node.args
    pos = [a.arg for a in args.posonlyargs + args.args]
    n_required_pos = max(0, len(pos) - len(args.defaults))
    required_kwonly = [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is None
    ]
    all_params = list(pos) + [a.arg for a in args.kwonlyargs]
    return {
        "pos_params": pos,
        "n_required_pos": n_required_pos,
        "required_kwonly": required_kwonly,
        "all_params": all_params,
        "has_vararg": args.vararg is not None,
        "has_kwarg": args.kwarg is not None,
    }


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Bodies that only raise/pass/document — abstract hooks, not drops."""
    for stmt in node.body:
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / Ellipsis
        return False
    return True


def _walk_scope(root: ast.AST):
    """Walk a function's *own* scope: descend into everything except
    nested function/class/lambda bodies, whose facts belong to them."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _build_parents(root: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _classify_seed_params(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    analyzer: _FunctionAnalyzer,
) -> list[SeedParamUse]:
    args = node.args
    param_names = [
        a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
    ]
    seed_names = [
        name for name in param_names if is_seedish(name) and name != "self"
    ]
    if not seed_names:
        return []
    uses = {name: SeedParamUse(name=name) for name in seed_names}
    parents = _build_parents(node)

    def _in_return(n: ast.AST) -> bool:
        current = n
        while current is not node and current in parents:
            current = parents[current]
            if isinstance(current, ast.Return):
                return True
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False

    for sub in ast.walk(node):
        if not isinstance(sub, ast.Name) or sub.id not in uses:
            continue
        if not isinstance(sub.ctx, ast.Load):
            continue
        use = uses[sub.id]
        parent = parents.get(sub)
        if isinstance(parent, ast.Call) and sub in parent.args:
            callee = analyzer.resolve_callee(parent.func)
            if callee in RNG_SINKS:
                use.sinks += 1
            else:
                use.calls += 1
        elif isinstance(parent, ast.keyword):
            call = parents.get(parent)
            callee = (
                analyzer.resolve_callee(call.func)
                if isinstance(call, ast.Call)
                else None
            )
            if callee in RNG_SINKS:
                use.sinks += 1
            else:
                use.calls += 1
        elif isinstance(parent, ast.Starred):
            use.calls += 1
        elif isinstance(parent, ast.Assign) and any(
            isinstance(t, ast.Attribute) for t in parent.targets
        ):
            for t in parent.targets:
                if isinstance(t, ast.Attribute):
                    use.stores.append(t.attr)
        elif isinstance(parent, ast.AnnAssign) and isinstance(
            parent.target, ast.Attribute
        ):
            use.stores.append(parent.target.attr)
        elif isinstance(parent, ast.Compare) and any(
            isinstance(c, ast.Constant) and c.value is None
            for c in parent.comparators
        ):
            use.none_checks += 1
        elif _in_return(sub):
            use.returns += 1
        else:
            use.other += 1
    return list(uses.values())


def _all_constant(call: ast.Call) -> bool:
    values = [
        a.value if isinstance(a, ast.Starred) else a for a in call.args
    ] + [kw.value for kw in call.keywords]

    def _const(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
            return True
        return False

    return bool(values) and all(_const(v) for v in values)


def _extract_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    summary: FileSummary,
    module: str,
    cls: str | None,
) -> FunctionFacts:
    facts = FunctionFacts(
        name=node.name,
        qualname=f"{cls}.{node.name}" if cls else node.name,
        line=node.lineno,
        col=node.col_offset + 1,
        is_stub=_is_stub(node),
        **_signature_facts(node),
    )

    analyzer = _FunctionAnalyzer(summary, module, cls)
    # Parameters seed the environment so assignments propagate provenance.
    for use in _classify_seed_params(node, analyzer):
        facts.seed_params.append(use)
        analyzer.env[use.name] = Taints(seed=Taint(definite=True))
    analyzer.process(node.body)

    scope = list(_walk_scope(node))
    return_taints = _CLEAN
    for sub in scope:
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            if is_seedish(sub.attr):
                facts.reads_seed_attr = True
        if isinstance(sub, ast.Return) and sub.value is not None:
            return_taints = return_taints.merged(analyzer.eval(sub.value))
        if not isinstance(sub, ast.Call):
            continue
        callee = analyzer.resolve_callee(sub.func)
        if callee is None:
            continue
        if callee in RNG_SINKS and (sub.args or sub.keywords):
            if _all_constant(sub):
                status, deps = "constant", []
            else:
                arg_taints = _CLEAN
                for arg in sub.args:
                    inner = arg.value if isinstance(arg, ast.Starred) else arg
                    arg_taints = arg_taints.merged(analyzer.eval(inner))
                for kw in sub.keywords:
                    arg_taints = arg_taints.merged(analyzer.eval(kw.value))
                if arg_taints.seed.definite:
                    status, deps = "tainted", []
                else:
                    status, deps = "untainted", sorted(arg_taints.seed.deps)
            facts.sink_calls.append(
                SinkCall(
                    line=sub.lineno,
                    col=sub.col_offset + 1,
                    callee=callee,
                    status=status,
                    deps=deps,
                )
            )
        elif callee in HASH_SINKS:
            arg_taints = _CLEAN
            for arg in sub.args:
                inner = arg.value if isinstance(arg, ast.Starred) else arg
                arg_taints = arg_taints.merged(analyzer.eval(inner))
            if not arg_taints.clock.clean:
                facts.hash_sink_args.append(
                    HashSinkArg(
                        line=sub.lineno,
                        col=sub.col_offset + 1,
                        callee=callee,
                        clock_definite=arg_taints.clock.definite,
                        clock_deps=sorted(arg_taints.clock.deps),
                    )
                )

    facts.return_seed_definite = return_taints.seed.definite
    facts.return_seed_deps = sorted(return_taints.seed.deps)
    facts.return_clock_definite = return_taints.clock.definite
    facts.return_clock_deps = sorted(return_taints.clock.deps)

    _extract_record_schema(node, scope, analyzer, facts)
    return facts


def _extract_record_schema(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    scope: list[ast.AST],
    analyzer: _FunctionAnalyzer,
    facts: FunctionFacts,
) -> None:
    """String dict keys written / read inside the function (R013, R014)."""
    write_keys: list[str] = []
    read_keys: list[str] = []
    for sub in scope:
        if isinstance(sub, ast.Dict):
            for key_node, value_node in zip(sub.keys, sub.values):
                if isinstance(key_node, ast.Constant) and isinstance(
                    key_node.value, str
                ):
                    write_keys.append(key_node.value)
                    taints = analyzer.eval(value_node)
                    if not taints.clock.clean:
                        facts.dict_writes.append(
                            DictWrite(
                                line=value_node.lineno,
                                col=value_node.col_offset + 1,
                                key=key_node.value,
                                clock_definite=taints.clock.definite,
                                clock_deps=sorted(taints.clock.deps),
                            )
                        )
        elif isinstance(sub, ast.Subscript) and isinstance(
            sub.slice, ast.Constant
        ) and isinstance(sub.slice.value, str):
            if isinstance(sub.ctx, ast.Store):
                write_keys.append(sub.slice.value)
                parent_assign = None
                # Find the Assign whose target this subscript is, to taint
                # the stored value; cheap linear check over the statement.
                for cand in ast.walk(node):
                    if isinstance(cand, ast.Assign) and sub in cand.targets:
                        parent_assign = cand
                        break
                if parent_assign is not None:
                    taints = analyzer.eval(parent_assign.value)
                    if not taints.clock.clean:
                        facts.dict_writes.append(
                            DictWrite(
                                line=sub.lineno,
                                col=sub.col_offset + 1,
                                key=sub.slice.value,
                                clock_definite=taints.clock.definite,
                                clock_deps=sorted(taints.clock.deps),
                            )
                        )
            elif isinstance(sub.ctx, ast.Del):
                # `del record["k"]` removes the field again (projections).
                write_keys = [k for k in write_keys if k != sub.slice.value]
            else:
                read_keys.append(sub.slice.value)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "get"
            and sub.args
            and isinstance(sub.args[0], ast.Constant)
            and isinstance(sub.args[0].value, str)
        ):
            read_keys.append(sub.args[0].value)
    facts.record_write_keys = sorted(set(write_keys))
    facts.record_read_keys = sorted(set(read_keys))


# ----------------------------------------------------------------------
# module-level extraction
# ----------------------------------------------------------------------
_CONTRACT_METHODS = {"suggest", "observe"}


def extract_summary(
    ctx: FileContext,
    module: str,
    package: str,
    is_init: bool,
    suppressions: dict[int, list[str]] | None = None,
) -> FileSummary:
    """Distill one parsed file into its :class:`FileSummary`.

    Module-wide facts come from ``ctx.nodes``; only the top-level
    functions and classes are descended into again, scope by scope.
    """
    summary = FileSummary(
        path=ctx.path,
        module=module,
        package=package,
        is_init=is_init,
        suppressions=suppressions or {},
    )
    # Unlike the per-file view, summaries resolve relative imports.
    parts = module.split(".") if module else []
    summary.aliases = collect_aliases(ctx.nodes, parts if is_init else parts[:-1])

    attr_loads: set[str] = set()
    for node in ctx.nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attr_loads.add(node.attr)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CONTRACT_METHODS
        ):
            chain = attribute_chain(node.func.value)
            receiver = ".".join(chain) if chain else ""
            summary.contract_calls.append(
                ContractCall(
                    line=node.lineno,
                    col=node.col_offset + 1,
                    method=node.func.attr,
                    n_pos=sum(
                        1 for a in node.args if not isinstance(a, ast.Starred)
                    ),
                    kwargs=[kw.arg for kw in node.keywords if kw.arg is not None],
                    has_star=any(isinstance(a, ast.Starred) for a in node.args),
                    has_kwstar=any(kw.arg is None for kw in node.keywords),
                    receiver=receiver,
                )
            )
    summary.attr_loads = sorted(attr_loads)

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions.append(
                _extract_function(stmt, summary, module, None)
            )
        elif isinstance(stmt, ast.ClassDef):
            bases = []
            for base in stmt.bases:
                chain = attribute_chain(base)
                if chain:
                    bases.append(".".join(chain))
            cls_facts = ClassFacts(
                name=stmt.name,
                line=stmt.lineno,
                col=stmt.col_offset + 1,
                bases=bases,
            )
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls_facts.methods[item.name] = _extract_function(
                        item, summary, module, stmt.name
                    )
            summary.classes.append(cls_facts)
    return summary
