"""Span tracing of robustmix's layers from outside the library.

Each traced public function is replaced, at every module attribute and
dispatch-table entry that holds it, by a wrapper that records a span
(name, start, end, parent index).  Callers look functions up by those
names at call time, so the library itself stays unmodified.  Spans stay
in memory; `layer_metrics` turns one iteration's spans into per-layer
counts, self times and ratios.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from unittest import mock

from robustmix import cli, evaluation, instances, solvers, tuning, uncertainty
from robustmix.uncertainty import (
    BudgetedSet,
    EllipsoidSet,
    HullSet,
    IntervalSet,
    ScenarioMatrix,
)

SET_NAMES = {
    IntervalSet: "interval",
    BudgetedSet: "budgeted",
    HullSet: "hull",
    EllipsoidSet: "ellipsoid",
}
FAMILIES = ("interval", "budgeted", "hull", "ellipsoid")
METHODS = ("interval", "budgeted-enum", "midpoint", "bnb", "local")


def _nominal_name(args, kwargs):
    forced = kwargs.get("forced_in", args[2] if len(args) > 2 else ())
    return "instances.nominal_solve." + ("forced" if forced else "plain")


def _build_set_name(args, kwargs):
    return "uncertainty.build_set." + kwargs.get("set_type", args[1])


def _worst_case_name(args, kwargs):
    return "uncertainty.worst_case." + SET_NAMES.get(type(args[0]), "other")


FROM_CSV = ScenarioMatrix.__dict__["from_csv"].__func__
# Original function -> span name (a string, or a function of the call's
# positional and keyword arguments).
TRACED = {
    instances.nominal_solve: _nominal_name,
    uncertainty.worst_case: _worst_case_name,
    uncertainty.build_set: _build_set_name,
    uncertainty.build_mixture: "tuning.build_mixture",
    solvers.evaluate_wrp: "solvers.evaluate_wrp",
    solvers.solve_auto: "solvers.auto",
    solvers.solve_interval_mix: "solvers.interval",
    solvers.solve_budgeted_mix: "solvers.budgeted-enum",
    solvers.solve_midpoint_approx: "solvers.midpoint",
    solvers.solve_ellipsoid_parametric: "solvers.parametric",
    solvers.solve_bnb: "solvers.bnb",
    solvers.solve_local_search: "solvers.local",
    tuning.solve_for_pair: "tuning.solve_for_pair",
    tuning.tune: "tuning.tune",
    evaluation.score: "evaluation.score",
    cli.main: "cli.main",
    FROM_CSV: "uncertainty.from_csv",
}
# build_mixture is traced only where the tuner looks it up; elsewhere its
# own cost is negligible and its build_set children carry the work.
PATCH_MODULES = (solvers, tuning, cli, uncertainty, evaluation)
SKIP = {(uncertainty, "build_mixture"), (cli, "build_mixture")}


class Tracer:
    """Records spans and the few counts a span cannot carry.

    `only` limits tracing to the functions whose span names it lists;
    calls to a span name in `keep` are also kept whole, as
    (name, args, result, seconds), for the output checks.
    """

    def __init__(self, only=None, keep=()):
        self.traced = {fn: n for fn, n in TRACED.items() if only is None or n in only}
        self.keep = frozenset(keep)
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.kept: list[tuple] = []
        self._stack: list[int] = []
        self.bnb_nodes = 0
        self.bnb_capped = 0
        self.raised: dict[str, int] = defaultdict(int)
        self.solved_x: list[tuple] = []  # (pair, x) per tuner solve

    def reset(self):
        self.spans.clear()
        self.kept.clear()
        self._stack.clear()
        self.bnb_nodes = self.bnb_capped = 0
        self.raised.clear()
        self.solved_x.clear()

    def wrap(self, fn, namer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fixed = namer if isinstance(namer, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = fixed or namer(args, kwargs)
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = clock()
                stack.pop()
                self.raised[name] += 1
                raise
            record[2] = clock()
            stack.pop()
            if name in self.keep:
                self.kept.append((name, args, result, record[2] - record[1]))
            if name == "solvers.bnb":
                self.bnb_nodes += result.nodes_explored
                self.bnb_capped += not result.optimal
            elif name == "tuning.solve_for_pair":
                self.solved_x.append((args[1], result.solution.x))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function at each name it is looked up by."""
        wrappers = {fn: self.wrap(fn, namer) for fn, namer in self.traced.items()}
        with contextlib.ExitStack() as stack:
            for module in PATCH_MODULES:
                for key, value in list(vars(module).items()):
                    if (module, key) not in SKIP and callable(value) and value in wrappers:
                        stack.enter_context(mock.patch.object(module, key, wrappers[value]))
            stack.enter_context(
                mock.patch.dict(
                    cli.METHODS,
                    {k: wrappers[v] for k, v in cli.METHODS.items() if v in wrappers},
                )
            )
            if FROM_CSV in wrappers:
                traced_csv = staticmethod(wrappers[FROM_CSV])
                stack.enter_context(mock.patch.object(ScenarioMatrix, "from_csv", traced_csv))
            yield self


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _p) in enumerate(spans)]


def layer_metrics(tracer: Tracer, tune_evals: int = 0) -> dict[str, float]:
    """Per-layer counts, self times (s) and ratios for one iteration."""
    spans = tracer.spans
    selfs = _self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    max_s: dict[str, float] = defaultdict(float)
    bnb_oracle = local_fallback = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        incl_s[name] += end - start
        max_s[name] = max(max_s[name], end - start)
        if name.startswith("instances.nominal_solve"):
            p = parent
            while p >= 0 and not spans[p][0].startswith("solvers."):
                p = spans[p][3]
            bnb_oracle += p >= 0 and spans[p][0] == "solvers.bnb"
        elif name == "solvers.local":
            local_fallback += parent >= 0 and spans[parent][0] == "tuning.solve_for_pair"

    m: dict[str, float] = {}

    def layer(name):
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = self_s[name]

    for kind in ("forced", "plain"):
        layer("instances.nominal_solve." + kind)
    m["instances.nominal_solve.forced.max_ms"] = 1e3 * max_s["instances.nominal_solve.forced"]
    m["instances.nominal_solve.infeasible"] = sum(
        v for k, v in tracer.raised.items() if k.startswith("instances.nominal_solve")
    )
    for family in FAMILIES:
        layer("uncertainty.build_set." + family)
        layer("uncertainty.worst_case." + family)
    layer("uncertainty.from_csv")
    for method in METHODS:
        layer("solvers." + method)
    layer("solvers.evaluate_wrp")
    nodes = tracer.bnb_nodes
    m["solvers.bnb.nodes"] = nodes
    m["solvers.bnb.capped"] = tracer.bnb_capped
    m["solvers.bnb.nodes_per_s"] = nodes / incl_s["solvers.bnb"] if nodes else 0.0
    m["solvers.bnb.oracle_per_node"] = bnb_oracle / nodes if nodes else 0.0
    layer("tuning.solve_for_pair")
    layer("tuning.build_mixture")
    m["tuning.local_fallback.calls"] = local_fallback
    tune_s = incl_s["tuning.tune"]
    m["tuning.evals_per_s"] = tune_evals / tune_s if tune_s else 0.0
    solved = tracer.solved_x
    m["tuning.distinct_x_ratio"] = len(set(solved)) / len(solved) if solved else 0.0
    layer("evaluation.score")
    layer("cli.main")
    return m
