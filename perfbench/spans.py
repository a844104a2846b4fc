"""Span recording for the traced run.

`Tracer.install()` rebinds the cross-module names the package calls through
(`symorder.ordering.mul`, `symorder.lie._embedding_images`,
`StructureConstants.validate`, ...) to wrappers that record one span per
call: name, start, end, parent span and case id.  Counts are computed from
each call's arguments and result, at the call boundary, never inside a
kernel loop.  `Tracer.uninstall()` puts the original objects back; the timed
run never installs anything, which `installed_hooks()` lets it check.

Self time is a span's duration minus the time its child spans cover, so the
recursive word-cache calls (`_vacuum_action`, `_operator_sum`) charge each
level only for its own work.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

# Every hook: (module, attribute, span name).  An attribute of the form
# "Class.method" is rebound on the class.  The same original object reached
# through several modules gets one shared wrapper.
HOOKS = [
    ("symorder.ordering", "mul", "weyl.mul"),
    ("symorder.lie", "mul", "weyl.mul"),
    ("symorder.ordering", "fock_apply", "weyl.fock_apply"),
    ("symorder.ordering", "truncate", "weyl.truncate"),
    ("symorder.lie", "truncate", "weyl.truncate"),
    ("symorder.generators", "random_family", "generators.random_family"),
    ("symorder.cli", "random_family", "generators.random_family"),
    ("symorder.generators", "build_generators", "generators.build_generators"),
    ("symorder.cli", "build_generators", "generators.build_generators"),
    ("symorder.ordering", "theorem_check", "ordering.theorem_check"),
    ("symorder.cli", "theorem_check", "ordering.theorem_check"),
    ("symorder.ordering", "e_map", "ordering.e_map"),
    ("symorder.ordering", "pi_project", "ordering.pi_project"),
    ("symorder.ordering", "span_dimension", "ordering.span_dimension"),
    ("symorder.cli", "span_dimension", "ordering.span_dimension"),
    ("symorder.ordering", "cancellation_check", "ordering.cancellation_check"),
    ("symorder.cli", "cancellation_check", "ordering.cancellation_check"),
    ("symorder.ordering", "_vacuum_action", "ordering.word_recursion"),
    ("symorder.ordering", "_operator_sum", "ordering.word_recursion"),
    ("symorder.ordering", "exact_rank", "linalg.exact_rank"),
    ("symorder.lie", "StructureConstants.validate", "lie.validate"),
    ("symorder.lie", "_embedding_images", "lie.embedding_images"),
    ("symorder.lie", "homomorphism_defect", "lie.homomorphism_defect"),
    ("symorder.cli", "homomorphism_defect", "lie.homomorphism_defect"),
    ("symorder.lie", "derived_family", "lie.derived_family"),
    ("symorder.cli", "derived_family", "lie.derived_family"),
    ("symorder.cli", "load_structure_constants", "cli.load_structure_constants"),
    ("symorder.cli", "render_text", "cli.render"),
    ("symorder.cli", "render_json", "cli.render"),
    ("symorder.cli", "main", "cli.main"),
]

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "case")


def _owner(module: str, attribute: str) -> tuple[Any, str]:
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def installed_hooks() -> list[str]:
    """The hooked names currently bound to a wrapper (empty when untraced)."""
    found = []
    for module, attribute, _span in HOOKS:
        owner, name = _owner(module, attribute)
        if hasattr(getattr(owner, name), "__bench_span__"):
            found.append(f"{module}.{attribute}")
    return found


# -- per-call accounting ---------------------------------------------------------
# Each takes (counters, args, kwargs, result) and adds exact counts.


def _count_mul(c: Counter, args: tuple, _kw: dict, result: Any) -> None:
    a, b = args
    c["weyl.mul.term_pairs"] += a.term_count() * b.term_count()
    out = result.term_count()
    c["weyl.mul.out_terms"] += out
    if out > c["weyl.mul.peak_out_terms"]:
        c["weyl.mul.peak_out_terms"] = out


def _count_fock(c: Counter, args: tuple, _kw: dict, _result: Any) -> None:
    a, p = args
    c["weyl.fock_apply.term_pairs"] += a.term_count() * p.term_count()


def _count_truncate(c: Counter, args: tuple, _kw: dict, result: Any) -> None:
    c["weyl.truncate.terms_in"] += args[0].term_count()
    c["weyl.truncate.terms_kept"] += result.term_count()


def _count_generators(c: Counter, _args: tuple, _kw: dict, result: Any) -> None:
    c["generators.generator_terms"] += sum(g.term_count() for g in result.generators)


def _count_rank(c: Counter, args: tuple, _kw: dict, result: Any) -> None:
    rows = args[0]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    c["linalg.exact_rank.cells"] += nrows * ncols
    if result == min(nrows, ncols):
        c["linalg.exact_rank.full_rank"] += 1


def _count_main(c: Counter, args: tuple, kwargs: dict, _result: Any) -> None:
    argv = args[0] if args else kwargs.get("argv") or []
    c["cli.invocations"] += 1
    if "--sc" in argv:
        c["cli.sc_invocations"] += 1


ACCOUNTING: dict[str, Callable[[Counter, tuple, dict, Any], None]] = {
    "weyl.mul": _count_mul,
    "weyl.fock_apply": _count_fock,
    "weyl.truncate": _count_truncate,
    "generators.build_generators": _count_generators,
    "linalg.exact_rank": _count_rank,
    "cli.main": _count_main,
}


class Tracer:
    """Records spans and exact counters while installed.

    Counters and self times accumulate per pass; `take_pass()` returns and
    clears them.  Spans are kept in memory only while `keep_spans` is set
    and are written out once, by the caller, at the end of the run.
    """

    def __init__(self) -> None:
        self.case_id: int | None = None
        self.keep_spans = False
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0
        self._recursion_depth = 0
        self._counts: Counter = Counter()
        self._self_ns: Counter = Counter()
        self._tables: set = set()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_id, 0]
        self._next_id += 1
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            self._self_ns[name] += duration - frame[1]
            self._counts[name + ".calls"] += 1
            if parent is not None:
                parent[1] += duration
            if self.keep_spans:
                self.spans.append((frame[0], name, start, end,
                                   parent[0] if parent else None, self.case_id))

    def case(self, case_id: int, fn: Callable[[], Any]) -> Any:
        """Run one case under a root span carrying its id."""
        self.case_id = case_id
        try:
            return self.call("case", fn, (), {})
        finally:
            self.case_id = None

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        account = ACCOUNTING.get(name)

        if name == "ordering.word_recursion":
            return self._wrap_word_recursion(name, fn)
        if name == "lie.embedding_images":

            @functools.wraps(fn)
            def wrapper(sc, *args, **kwargs):
                self._tables.add((self.case_id, sc.n, frozenset(sc.items())))
                return self.call(name, fn, (sc, *args), kwargs)

        elif account is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = self.call(name, fn, args, kwargs)
                account(self._counts, args, kwargs, result)
                return result

        wrapper.__bench_span__ = name
        return wrapper

    def _wrap_word_recursion(self, name: str, fn: Callable) -> Callable:
        # Lookups are calls into the recursion; misses are the growth of the
        # generator set's word cache across each outermost call.
        @functools.wraps(fn)
        def wrapper(gens, counts):
            outer = self._recursion_depth == 0
            cache = getattr(gens, "_word_cache", None)
            before = len(cache) if outer and cache is not None else 0
            self._recursion_depth += 1
            try:
                return self.call(name, fn, (gens, counts), {})
            finally:
                self._recursion_depth -= 1
                self._counts["ordering.word_cache.lookups"] += 1
                if outer and cache is not None:
                    self._counts["ordering.word_cache.misses"] += len(cache) - before

        wrapper.__bench_span__ = name
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for module, attribute, span in HOOKS:
            owner, name = _owner(module, attribute)
            original = getattr(owner, name)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(span, original)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrappers[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- per-pass results ---------------------------------------------------------

    def take_pass(self) -> tuple[dict[str, int], dict[str, int]]:
        """(exact counters, self time in ns per span name) since the last call."""
        counts = dict(self._counts)
        counts["lie.embedding_images.tables"] = len(self._tables)
        self_ns = dict(self._self_ns)
        self._counts.clear()
        self._self_ns.clear()
        self._tables.clear()
        return counts, self_ns
