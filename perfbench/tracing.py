"""Spans around calls into each hetcache module, recorded from outside ``src/``.

Wrappers are installed at the names callers look up (``hetcache.cli.solve_lp``
and ``hetcache.bounds.solve_lp`` are two different bindings of one
function), so each span knows which module called it.  Spans live in memory;
per-layer metrics are derived from them after the job, and the run writes
them out when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import hetcache.baselines
import hetcache.bounds
import hetcache.cli
import hetcache.scheme_lp
import hetcache.simulator


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counts of one traced job."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    slack: tuple = (0.0, 0.0, 0.0)  # (used share, max discrepancy, bound)
    command: int | None = None
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(name, start, end, parent, self.command)

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error(self)
                raise
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# counters taken from arguments and results, outside the timed span


def _program_counts(tracer: Tracer, programs) -> None:
    for lp in programs:
        tracer.add("scheme_lp.programs", 1)
        tracer.add("scheme_lp.rows", lp.n_rows)
        tracer.add("scheme_lp.cols", lp.n_vars)
        tracer.add("scheme_lp.nnz", sum(len(row) for row, _ in lp.eq_rows + lp.ub_rows))


def _on_build(tracer, _args, result):
    _program_counts(tracer, [result[0]])


def _on_build_layers(tracer, _args, result):
    _program_counts(tracer, [lp for lp, _ in result])
    tracer.add("baselines.programs", len(result))


def _on_solve(tracer, _args, result):
    tracer.add("lp_core.solves", 1)
    tracer.add("lp_core.iterations", result.iterations)
    if not result.is_optimal:
        tracer.add("lp_core.failures", 1)


def _on_bound_solve(tracer, args, result):
    _on_solve(tracer, args, result)
    tracer.add("bounds.lp_rows", args[0].n_rows)


def _on_solve_error(tracer):
    tracer.add("lp_core.solves", 1)
    tracer.add("lp_core.failures", 1)


def _on_library(tracer, _args, library):
    tracer.add("simulator.library_bytes_computed",
               sum(arr.nbytes for layers in library.files for arr in layers))


def _on_deliver(tracer, _args, log):
    tracer.add("simulator.bits_sent", log.total_bits)


def _on_verify(tracer, _args, report):
    used = report.max_discrepancy / report.discrepancy_bound
    if used >= tracer.slack[0]:
        tracer.slack = (used, report.max_discrepancy, report.discrepancy_bound)


# (module, attribute, span name, result hook, error hook)
_TARGETS = (
    (hetcache.cli, "load_instance", "model.load", None, None),
    (hetcache.cli, "build_o1", "scheme_lp.build", _on_build, None),
    (hetcache.cli, "build_o2", "scheme_lp.build", _on_build, None),
    (hetcache.cli, "build_intra_restricted", "scheme_lp.build", _on_build, None),
    (hetcache.baselines, "build_intra_layer", "scheme_lp.build", _on_build_layers, None),
    (hetcache.scheme_lp, "make_variable_index", "scheme_lp.index", None, None),
    (hetcache.cli, "extract_scheme", "scheme_lp.extract", None, None),
    (hetcache.cli, "scheme_problems", "scheme_lp.check", None, None),
    (hetcache.cli, "solve_lp", "lp_core.cli.solve", _on_solve, _on_solve_error),
    (hetcache.baselines, "solve_lp", "lp_core.baselines.solve", _on_solve, _on_solve_error),
    (hetcache.bounds, "solve_lp", "lp_core.bounds.solve", _on_bound_solve, _on_solve_error),
    (hetcache.cli, "theorem1_load", "closed_form", None, None),
    (hetcache.cli, "corner_points", "closed_form", None, None),
    (hetcache.cli, "threshold_allocation", "closed_form", None, None),
    (hetcache.cli, "cutset_budget", "bounds.budget", None, None),
    (hetcache.cli, "cutset_fixed", "bounds.fixed", None, None),
    (hetcache.cli, "baseline_load", "baselines.load", None, None),
    (hetcache.cli, "verify", "simulator.verify", _on_verify, None),
    (hetcache.simulator, "make_library", "simulator.library", _on_library, None),
    (hetcache.simulator, "quantize", "simulator.quantize", None, None),
    (hetcache.simulator, "place", "simulator.place", None, None),
    (hetcache.simulator, "deliver", "simulator.deliver", _on_deliver, None),
    (hetcache.simulator, "decode", "simulator.decode", None, None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper, and restore on exit.

    A target the package no longer has is skipped and listed in
    ``tracer.missing``, so a refactor that removes a function leaves the
    traced run working, with that layer reading zero.
    """
    saved = []
    try:
        for module, attr, name, on_result, on_error in _TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, on_result, on_error))
        # split rules are looked up in a table, and scheme parsing is a classmethod
        splits = getattr(hetcache.baselines, "_SPLITS", None)
        if splits is None:
            tracer.missing.append("hetcache.baselines._SPLITS")
        else:
            saved.append((splits, None, dict(splits)))
            for key, fn in list(splits.items()):
                splits[key] = tracer.wrap("baselines.split", fn)
        scheme_cls = getattr(hetcache.scheme_lp, "SchemeSolution", None)
        from_json = vars(scheme_cls).get("from_json_dict") if scheme_cls else None
        if not isinstance(from_json, classmethod):
            tracer.missing.append("hetcache.scheme_lp.SchemeSolution.from_json_dict")
        else:
            saved.append((scheme_cls, "from_json_dict", from_json))
            parse = tracer.wrap("scheme_lp.check", from_json.__func__)
            scheme_cls.from_json_dict = classmethod(parse)
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            if attr is None:
                target.update(original)
            else:
                setattr(target, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced job


def _total(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _self(spans, name: str) -> float:
    """Time inside ``name`` spans that no child span covers."""
    ids = {i for i, s in enumerate(spans) if s.name == name}
    covered = sum(s.duration for s in spans if s.parent in ids)
    return sum(spans[i].duration for i in ids) - covered


def _count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


SOLVE_CALLERS = ("cli", "baselines", "bounds")
SOLVE_SPANS = tuple(f"lp_core.{caller}.solve" for caller in SOLVE_CALLERS)


def solve_times_ms(spans) -> list:
    return [s.duration * 1e3 for s in spans if s.name in SOLVE_SPANS]


def job_layers(tracer: Tracer) -> dict:
    """Per-layer seconds and counts of one job, keyed by metric name."""
    spans = tracer.spans
    counts = tracer.counts
    by_caller = {c: _total(spans, f"lp_core.{c}.solve") for c in SOLVE_CALLERS}
    solve_s = sum(by_caller.values())
    iterations = counts.get("lp_core.iterations", 0)
    out = {
        "cli.self_s": _self(spans, "cli.main"),
        "model.load_s": _total(spans, "model.load"),
        "scheme_lp.index_s": _total(spans, "scheme_lp.index"),
        "scheme_lp.assemble_s": _self(spans, "scheme_lp.build"),
        "scheme_lp.extract_s": _total(spans, "scheme_lp.extract"),
        "scheme_lp.check_s": _total(spans, "scheme_lp.check"),
        "lp_core.solve_s": solve_s,
        "lp_core.ms_per_iter": solve_s * 1e3 / iterations if iterations else 0.0,
        "closed_form.s": _total(spans, "closed_form"),
        "closed_form.calls": _count(spans, "closed_form"),
        "bounds.budget_s": _total(spans, "bounds.budget"),
        "bounds.fixed_s": _total(spans, "bounds.fixed"),
        "bounds.calls": _count(spans, "bounds.budget") + _count(spans, "bounds.fixed"),
        "baselines.split_s": _total(spans, "baselines.split"),
        "baselines.self_s": _self(spans, "baselines.load"),
        "simulator.library_s": _total(spans, "simulator.library"),
        "simulator.quantize_s": _total(spans, "simulator.quantize"),
        "simulator.place_s": _total(spans, "simulator.place"),
        "simulator.deliver_s": _total(spans, "simulator.deliver"),
        "simulator.decode_s": _total(spans, "simulator.decode"),
        "simulator.verify_self_s": _self(spans, "simulator.verify"),
        "simulator.slack_used": tracer.slack[0],
        "simulator.max_discrepancy": tracer.slack[1],
        "simulator.discrepancy_bound": tracer.slack[2],
    }
    for caller, seconds in by_caller.items():
        out[f"lp_core.{caller}.solve_s"] = seconds
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    return out


COUNTS = (
    "scheme_lp.programs",
    "scheme_lp.rows",
    "scheme_lp.cols",
    "scheme_lp.nnz",
    "lp_core.solves",
    "lp_core.iterations",
    "lp_core.failures",
    "bounds.lp_rows",
    "baselines.programs",
    "simulator.bits_sent",
    "simulator.library_bytes_computed",
)


def median_layers(jobs: list) -> dict:
    """Median of each per-layer metric over traced jobs."""
    return {key: statistics.median(job[key] for job in jobs) for key in jobs[0]}
