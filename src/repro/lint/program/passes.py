"""The whole-program rules R010–R014.

Each rule consumes a :class:`~repro.lint.program.graph.ProgramIndex`
(one per analysis scope) and yields ordinary findings; the driver
applies per-path configuration and inline suppressions exactly as it
does for per-file rules.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.program.graph import IndexedFunction, ProgramIndex
from repro.lint.registry import ProgramRule, register

#: Receivers we are confident hold an Optimizer at a suggest/observe
#: call site; anything else is left unchecked rather than guessed at.
_OPTIMIZER_RECEIVER_RE = re.compile(r"(?:^|[._])(?:opt|optimizer|tuner|base)s?$")

_TO_RECORD_RE = re.compile(r"^_?(?P<entity>\w+)_to_(?P<form>record|payload)$")
_FROM_RECORD_RE = re.compile(r"^_?(?P<form>record|payload)_to_(?P<entity>\w+)$")


# ======================================================================
@register
class UntaintedSeedSink(ProgramRule):
    id = "R010"
    name = "untainted-seed-sink"
    summary = (
        "RNG constructed from a value that never derives from the seed "
        "the scope received — the seed exists but does not reach the sink"
    )

    def check_program(self, index: ProgramIndex) -> Iterator[Finding]:
        for fn in index.all_functions():
            facts = fn.facts
            if not facts.seed_params and not facts.reads_seed_attr:
                # No seed in scope: nothing to drop.  R001/R002 police
                # the no-seed-anywhere and hard-coded-constant cases.
                continue
            for sink in facts.sink_calls:
                if sink.status != "untainted":
                    continue
                if sink.deps and index.seed_dep_tainted(sink.deps):
                    continue
                available = ", ".join(
                    f"`{u.name}`" for u in facts.seed_params
                ) or "`self.seed`"
                yield Finding(
                    rule=self.id,
                    path=fn.summary.path,
                    line=sink.line,
                    col=sink.col,
                    message=(
                        f"`{sink.callee.rsplit('.', 1)[-1]}(...)` in "
                        f"`{facts.qualname}` is seeded from a value with no "
                        f"provenance from the {available} this scope "
                        "receives; thread the seed through so replay stays "
                        "correlated"
                    ),
                )


# ======================================================================
@register
class DroppedSeed(ProgramRule):
    id = "R011"
    name = "dropped-seed"
    summary = (
        "`seed`/`rng` parameter accepted but never forwarded to an RNG "
        "sink, a sub-component, or an attribute anybody reads"
    )

    def check_program(self, index: ProgramIndex) -> Iterator[Finding]:
        for fn in index.all_functions():
            facts = fn.facts
            if facts.is_stub:
                continue
            for use in facts.seed_params:
                if use.calls or use.sinks or use.returns or use.other:
                    continue
                # A store to an attribute someone, somewhere reads is a
                # forward; a store nobody ever reads is still a drop.
                if any(attr in index.attr_loads for attr in use.stores):
                    continue
                if use.stores:
                    detail = (
                        f"stored to {', '.join(f'`self.{a}`' for a in sorted(set(use.stores)))}"
                        " which no code ever reads"
                    )
                else:
                    detail = "never read after binding"
                if use.none_checks:
                    detail += " (only `is None` checks)"
                yield Finding(
                    rule=self.id,
                    path=fn.summary.path,
                    line=facts.line,
                    col=facts.col,
                    message=(
                        f"`{facts.qualname}` accepts `{use.name}` but drops "
                        f"it: {detail}; forward it to the component's RNG or "
                        "sub-components (or remove the parameter)"
                    ),
                )


# ======================================================================
@register
class OptimizerCallSiteContract(ProgramRule):
    id = "R012"
    name = "optimizer-callsite-contract"
    summary = (
        "suggest/observe signatures validated program-wide: every "
        "Optimizer subclass must stay callable as `suggest(history)` / "
        "`observe(observation)` from every call site"
    )

    _ARITY = {"suggest": ("history", 1), "observe": ("observation", 1)}

    def check_program(self, index: ProgramIndex) -> Iterator[Finding]:
        optimizers = index.optimizer_classes()

        # (a) definition side: an override that cannot be invoked with the
        # canonical single positional argument breaks every driver.
        signatures: dict[str, list] = {name: [] for name in self._ARITY}
        for canonical, indexed in optimizers.items():
            for method, (arg_name, arity) in self._ARITY.items():
                facts = indexed.facts.methods.get(method)
                if facts is None:
                    continue
                signatures[method].append((canonical, facts))
                n_required = max(0, facts.n_required_pos - 1)  # minus self
                n_max = len(facts.pos_params) - 1
                problems = []
                if n_required > arity:
                    problems.append(
                        f"requires {n_required} positional arguments"
                    )
                if n_max < arity and not facts.has_vararg:
                    problems.append(
                        f"accepts only {n_max} positional arguments"
                    )
                if facts.required_kwonly:
                    names = ", ".join(facts.required_kwonly)
                    problems.append(
                        f"has default-less keyword-only parameters ({names})"
                    )
                if problems:
                    yield Finding(
                        rule=self.id,
                        path=indexed.summary.path,
                        line=facts.line,
                        col=facts.col,
                        message=(
                            f"`{indexed.facts.name}.{method}` drifts from "
                            f"the Optimizer contract `{method}(self, "
                            f"{arg_name})`: {'; '.join(problems)} — every "
                            "session/executor drives optimizers "
                            "polymorphically"
                        ),
                    )

        # (b) call side: sites whose argument shape no conforming
        # optimizer could accept.
        if not optimizers:
            return
        for summary in index.summaries:
            for call in summary.contract_calls:
                if call.method not in self._ARITY:
                    continue
                if not _OPTIMIZER_RECEIVER_RE.search(call.receiver or ""):
                    continue
                if call.has_star or call.has_kwstar:
                    continue
                arg_name, arity = self._ARITY[call.method]
                n_args = call.n_pos + sum(
                    1 for kw in call.kwargs if kw == arg_name
                )
                if n_args != arity:
                    yield Finding(
                        rule=self.id,
                        path=summary.path,
                        line=call.line,
                        col=call.col,
                        message=(
                            f"`{call.receiver}.{call.method}(...)` passes "
                            f"{n_args} argument(s); the Optimizer contract "
                            f"is `{call.method}({arg_name})` — this call "
                            "breaks at least one registered optimizer"
                        ),
                    )
                    continue
                unknown_kwargs = [
                    kw
                    for kw in call.kwargs
                    if kw != arg_name
                    and any(
                        not facts.has_kwarg and kw not in facts.all_params
                        for _, facts in signatures[call.method]
                    )
                ]
                if unknown_kwargs:
                    names = ", ".join(sorted(unknown_kwargs))
                    yield Finding(
                        rule=self.id,
                        path=summary.path,
                        line=call.line,
                        col=call.col,
                        message=(
                            f"`{call.receiver}.{call.method}(...)` passes "
                            f"keyword(s) {names} that at least one "
                            "registered optimizer does not accept"
                        ),
                    )


# ======================================================================
@register
class CheckpointSchemaSymmetry(ProgramRule):
    id = "R013"
    name = "checkpoint-schema-symmetry"
    summary = (
        "field sets written by `X_to_record` and read by `record_to_X` "
        "must match — an asymmetric field silently vanishes on resume"
    )

    def check_program(self, index: ProgramIndex) -> Iterator[Finding]:
        writers: dict[tuple[str, str], IndexedFunction] = {}
        readers: dict[tuple[str, str], IndexedFunction] = {}
        for fn in index.all_functions():
            match = _TO_RECORD_RE.match(fn.facts.name)
            if match and fn.facts.record_write_keys:
                writers[(match.group("entity"), match.group("form"))] = fn
            match = _FROM_RECORD_RE.match(fn.facts.name)
            if match and fn.facts.record_read_keys:
                readers[(match.group("entity"), match.group("form"))] = fn

        for key in sorted(set(writers) & set(readers)):
            writer, reader = writers[key], readers[key]
            written = set(writer.facts.record_write_keys)
            read = set(reader.facts.record_read_keys)
            for field in sorted(written - read):
                yield Finding(
                    rule=self.id,
                    path=writer.summary.path,
                    line=writer.facts.line,
                    col=writer.facts.col,
                    message=(
                        f"`{writer.facts.qualname}` writes field "
                        f"`{field}` that `{reader.facts.qualname}` never "
                        "reads — the field is silently lost on the "
                        "record→object round trip"
                    ),
                )
            for field in sorted(read - written):
                yield Finding(
                    rule=self.id,
                    path=reader.summary.path,
                    line=reader.facts.line,
                    col=reader.facts.col,
                    message=(
                        f"`{reader.facts.qualname}` reads field "
                        f"`{field}` that `{writer.facts.qualname}` never "
                        "writes — resume would fault (or silently default) "
                        "on every record"
                    ),
                )


# ======================================================================
@register
class ClockIntoRecordedValues(ProgramRule):
    id = "R014"
    name = "clock-into-recorded-values"
    summary = (
        "wall-clock value flows (possibly through other modules' helpers) "
        "into a recorded/fingerprinted payload"
    )

    def check_program(self, index: ProgramIndex) -> Iterator[Finding]:
        from repro.lint.program.summary import RECORDISH_NAME_RE

        for fn in index.all_functions():
            facts = fn.facts
            recordish = bool(RECORDISH_NAME_RE.search(facts.name))
            if recordish:
                for write in facts.dict_writes:
                    if write.clock_definite or index.clock_dep_tainted(
                        write.clock_deps
                    ):
                        yield Finding(
                            rule=self.id,
                            path=fn.summary.path,
                            line=write.line,
                            col=write.col,
                            message=(
                                f"record field `{write.key}` in "
                                f"`{facts.qualname}` derives from the wall "
                                "clock; recorded values must be "
                                "run-independent (use perf_counter "
                                "durations or inject the timestamp)"
                            ),
                        )
            for arg in facts.hash_sink_args:
                if arg.clock_definite or index.clock_dep_tainted(arg.clock_deps):
                    yield Finding(
                        rule=self.id,
                        path=fn.summary.path,
                        line=arg.line,
                        col=arg.col,
                        message=(
                            f"wall-clock-derived value flows into "
                            f"`{arg.callee}` in `{facts.qualname}`; "
                            "fingerprints/serialized payloads built from "
                            "the clock differ on every run"
                        ),
                    )
