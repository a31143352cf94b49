"""The three benchmark workloads: input generation, timed phases, checks.

Every workload pins the instance that an acceptance criterion or the
roadmap names (generator, pair and split seed 1) and derives from the
benchmark seed a random relabelling of its nodes and arcs.  A relabelled
instance is the same problem in another arc order: objectives are
unchanged, while adjacency and search order change with the seed.
Fresh generator seeds would change the work itself up to twenty-fold
(criterion-7 tuning took 0.46 s to 10.8 s over eight seeds), which no
run length can average out.  Each run solves `copies` relabellings to
average the order-dependent part.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from robustmix import cli, evaluation, solvers, tuning, uncertainty
from robustmix.evaluation import scalarize, split_scenarios
from robustmix.instances import (
    Graph,
    Instance,
    Solution,
    gen_synthetic,
    graph_to_text,
    sample_st_pairs,
)
from robustmix.uncertainty import ScenarioMatrix, mixture_spec_to_json

W = (0.4, 0.3, 0.3)  # criterion-7 scalarization weights
ALPHA = 0.05
TOL = 1e-9
README_MIX = [
    {"weight": 0.7502, "type": "hull", "lambda": 0.2234},
    {"weight": 0.9796, "type": "ellipsoid", "lambda": 5.4609},
]


def relabel(graph: Graph, data: ScenarioMatrix, pairs, rng):
    """Permute node ids and arc order; scenario columns follow the arcs."""
    node = rng.permutation(graph.num_nodes)
    order = rng.permutation(graph.n)  # new index of each arc
    arcs = [None] * graph.n
    for i, (tail, head) in enumerate(graph.arcs):
        arcs[order[i]] = (int(node[tail]), int(node[head]))
    costs = np.empty_like(data.costs)
    costs[:, order] = data.costs
    moved = [(int(node[s]), int(node[t])) for s, t in pairs]
    return Graph(graph.num_nodes, tuple(arcs)), ScenarioMatrix(costs), moved


def is_simple_path(graph: Graph, pair, x) -> bool:
    """Is the 0/1 vector x the arc set of a simple source-target path?"""
    if len(x) != graph.n or any(v not in (0, 1) for v in x):
        return False
    succ = {}
    for i, v in enumerate(x):
        if v:
            tail, head = graph.arcs[i]
            if tail in succ:
                return False
            succ[tail] = head
    node, seen = pair[0], {pair[0]}
    for _ in range(len(succ)):
        if node not in succ:
            return False
        node = succ[node]
        if node in seen:
            return False
        seen.add(node)
    return node == pair[1]


class Outcome:
    """Counts attempted and failed operations; keeps failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def solve(self, graph, pair, mix, report, what: str):
        """One pair-solve: a simple path whose objective is recomputable."""
        x = report.solution.x
        ok = is_simple_path(graph, pair, x) and abs(
            report.objective - solvers.evaluate_wrp(mix, x)
        ) <= TOL * max(1.0, abs(report.objective))
        return self.op(ok, f"{what} {pair}: bad path or objective")


def pair_and_mixture(name: str, args: tuple):
    """The (pair, mixture) of a kept solve call."""
    if name == "tuning.solve_for_pair":  # (graph, pair, mix, ...)
        return args[1], args[2]
    inst = args[0]  # solvers.*: (inst, mix, ...)
    return (inst.source, inst.target), args[1]


# A workload has `setup(seed, copy, workdir) -> inputs`,
# `iterate(inputs, timed) -> payload` and
# `check(inputs, payload, solves, out) -> quality metrics`.  `iterate`
# runs each timed operation as `timed(phase, fn, *args)`.  `solves` are
# the kept calls, as (span name, args, report, seconds), to the span
# names the workload lists in `solves`; the runner's tracer keeps them.


class Acceptance:
    """Criterion 7: the 3x41 baseline grid, then tune(budget=2000)."""

    name = "acceptance"
    copies = 3
    phases = ("baseline_s", "tune_s")
    solves = ("tuning.solve_for_pair",)

    def setup(self, seed: int, copy: int, workdir: Path) -> dict:
        graph, data = gen_synthetic(6, 6, 40, "two_block", seed=1)
        pairs = sample_st_pairs(graph, 6, min_hops=4, seed=1)
        graph, data, pairs = relabel(graph, data, pairs, np.random.default_rng([seed, copy]))
        split = split_scenarios(data.K, 0.75, seed=1)
        return {"graph": graph, "data": data, "pairs": pairs, "split": split}

    def iterate(self, inp: dict, timed) -> dict:
        g, data, pairs, split = inp["graph"], inp["data"], inp["pairs"], inp["split"]
        grids = [
            timed("baseline_s", tuning.baseline_grid, kind, g, pairs, data, split)
            for kind in ("interval", "hull", "ellipsoid")
        ]
        space = tuning.ConfigSpace(budget=2000)
        result = timed("tune_s", tuning.tune, space, g, pairs, data, split, W, seed=1)
        return {"grids": grids, "result": result, "evals": result.evaluations}

    def check(self, inp: dict, pay: dict, solves: list, out: Outcome) -> dict:
        g, data, pairs, split = inp["graph"], inp["data"], inp["pairs"], inp["split"]
        for name, args, report, _ in solves:
            out.solve(g, *pair_and_mixture(name, args), report, name)
        result = pay["result"]
        out.op(result.completed_full_eval, "tune did not evaluate a config on every pair")
        best_baseline = min(
            scalarize(m_out, W) for grid in pay["grids"] for _, _, m_out in grid
        )
        # Criterion 7's out-of-sample check of the tuned mixture.
        mix = uncertainty.build_mixture(result.best.to_specs(), data.subset(split.train_idx))
        solutions = []
        for pair in pairs:
            report = tuning.solve_for_pair(g, pair, mix, node_cap=150)
            out.solve(g, pair, mix, report, "tuned solve")
            solutions.append(report.solution)
        tuned = scalarize(evaluation.score(solutions, data.subset(split.test_idx), ALPHA), W)
        return {
            "solution_cost": tuned,
            "tuned_oos_cost": tuned,
            "best_baseline_oos_cost": best_baseline,
        }


MIXTURES = {
    "interval": [
        {"weight": 0.6, "type": "interval", "lambda": 0.3},
        {"weight": 0.4, "type": "interval", "lambda": 0.8},
    ],
    "budgeted": [{"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": 10}],
    "hull": [
        {"weight": 0.5, "type": "hull", "lambda": 0.5},
        {"weight": 0.5, "type": "hull", "lambda": 1.0},
    ],
}
# (solution label, mixture file, --method, pairs file).  The budgeted
# solve makes ~1013 Dijkstra calls per pair (about 1.7 s at 30+ hops),
# so it takes only the first pair, which keeps an iteration near 3.5 s
# and lets a run repeat it several times.
PAPER_SOLVES = (
    ("interval", "interval", "auto", "pairs"),
    ("budgeted", "budgeted", "auto", "pairs_head"),
    ("midpoint", "hull", "midpoint", "pairs"),
)


def _run_cli(argv: list[str]) -> int:
    """cli.main in-process, its console output captured and discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _pairs_csv(pairs) -> str:
    return "source,target\n" + "".join(f"{s},{t}\n" for s, t in pairs)


def _score(mixture_spec, train: ScenarioMatrix, sol_paths: dict):
    """Score every solution file under one mixture built from `train`."""
    mix = uncertainty.build_mixture(mixture_spec, train)
    docs, scores = {}, {}
    for label, path in sol_paths.items():
        with open(path, encoding="utf-8") as fh:
            docs[label] = json.load(fh)["solutions"]
        scores[label] = [solvers.evaluate_wrp(mix, rec["x"]) for rec in docs[label]]
    return mix, docs, scores


class PaperScale:
    """The 23x23 two-block grid (1012 arcs) through the CLI, then scoring."""

    name = "paper-scale"
    copies = 1
    phases = ("solve_s", "score_s")
    solves = ("solvers.auto", "solvers.midpoint")

    def setup(self, seed: int, copy: int, workdir: Path) -> dict:
        graph, data = gen_synthetic(23, 23, 271, "two_block", seed=1)
        pairs = sample_st_pairs(graph, 8, min_hops=30, seed=1)
        graph, data, pairs = relabel(graph, data, pairs, np.random.default_rng([seed, copy]))
        split = split_scenarios(data.K, 0.75, seed=1)  # 203 train, 68 test
        workdir.mkdir(parents=True, exist_ok=True)
        files = {
            "graph": graph_to_text(graph),
            "train": data.subset(split.train_idx).to_csv(),
            "test": data.subset(split.test_idx).to_csv(),
            "pairs": _pairs_csv(pairs),
            "pairs_head": _pairs_csv(pairs[:1]),
        }
        files.update({name: mixture_spec_to_json(spec) for name, spec in MIXTURES.items()})
        paths = {}
        for name, text in files.items():
            paths[name] = str(workdir / name)
            with open(paths[name], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        return {
            "graph": graph,
            "pairs": pairs,
            "paths": paths,
            "dir": workdir,
            "train": ScenarioMatrix.from_csv(files["train"]),
            "test": ScenarioMatrix.from_csv(files["test"]),
        }

    def iterate(self, inp: dict, timed) -> dict:
        p, d = inp["paths"], inp["dir"]
        codes = []
        for label, mixture, method, pairs in PAPER_SOLVES:
            codes.append(timed("solve_s", _run_cli, [
                "solve", "--graph", p["graph"], "--scenarios", p["train"],
                "--mixture", p[mixture], "--pairs", p[pairs], "--method", method,
                "--seed", "1", "--out", str(d / f"sol_{label}.json"),
            ]))
        for label, *_ in PAPER_SOLVES:
            codes.append(timed("solve_s", _run_cli, [
                "evaluate", "--solutions", str(d / f"sol_{label}.json"),
                "--scenarios", p["test"], "--seed", "1",
                "--out", str(d / f"metrics_{label}.txt"),
            ]))
        sol_paths = {label: d / f"sol_{label}.json" for label, *_ in PAPER_SOLVES}
        mix, docs, scores = timed("score_s", _score, README_MIX, inp["train"], sol_paths)
        return {"codes": codes, "docs": docs, "mix": mix, "scores": scores}

    def check(self, inp: dict, pay: dict, solves: list, out: Outcome) -> dict:
        g, pairs, d = inp["graph"], inp["pairs"], inp["dir"]
        for i, code in enumerate(pay["codes"]):
            out.op(code == 0, f"CLI call {i} exited {code}")
        solves = iter(solves)
        costs = []
        for label, *_ in PAPER_SOLVES:
            recs = pay["docs"][label]
            for j, rec in enumerate(recs):
                name, args, report, _ = next(solves)
                pair, mix = pair_and_mixture(name, args)
                out.solve(g, pair, mix, report, label)
                out.op(
                    pair == pairs[j] == (rec["source"], rec["target"])
                    and tuple(rec["x"]) == report.solution.x
                    and abs(rec["objective"] - float(f"{report.objective:.6f}")) <= TOL,
                    f"{label} {pair}: solution file disagrees with the solver",
                )
            solutions = [Solution(tuple(rec["x"]), 0.0) for rec in recs]
            expect = evaluation.score(solutions, inp["test"], ALPHA)
            text = (d / f"metrics_{label}.txt").read_text(encoding="utf-8")
            out.op(text == expect.format_line() + "\n", f"evaluate {label}: wrong metrics")
            costs.append(scalarize(expect, W))
        # Independent recomputation of the hull + ellipsoid score.
        (w_hull, hull), (w_ell, ell) = pay["mix"].components
        for label, values in pay["scores"].items():
            for rec, value in zip(pay["docs"][label], values):
                x = np.asarray(rec["x"], dtype=float)
                quad = max(float(x @ ell.sigma @ x), 0.0)
                ref = w_hull * float((hull.points @ x).max()) + w_ell * (
                    float(ell.mu @ x) + math.sqrt(ell.lam * quad)
                )
                out.op(abs(value - ref) <= TOL * max(1.0, abs(ref)), f"score {label}")
        return {"solution_cost": float(np.mean(costs))}


def _corner(mixture_spec, data, graph, pair, node_cap):
    """Build the mixture, then prove the corner-to-corner pair."""
    mix = uncertainty.build_mixture(mixture_spec, data)
    return mix, solvers.solve_auto(Instance.spath(graph, *pair), mix, max_nodes=node_cap)


class BnbProve:
    """Branch-and-bound to a proof on the 8x8 grid, hull + ellipsoid."""

    name = "bnb-prove"
    copies = 3
    phases = ("corner_s", "pairs_s")
    solves = ("solvers.auto",)
    node_cap = 4000  # safety net only: hitting it is a failure

    def setup(self, seed: int, copy: int, workdir: Path) -> dict:
        graph, data = gen_synthetic(8, 8, 40, "two_block", seed=1)
        pairs = [(0, graph.num_nodes - 1)] + sample_st_pairs(graph, 12, min_hops=6, seed=1)
        graph, data, pairs = relabel(graph, data, pairs, np.random.default_rng([seed, copy]))
        return {"graph": graph, "data": data, "pairs": pairs}

    def iterate(self, inp: dict, timed) -> dict:
        g, pairs = inp["graph"], inp["pairs"]
        mix, _ = timed("corner_s", _corner, README_MIX, inp["data"], g, pairs[0], self.node_cap)
        for pair in pairs[1:]:
            timed("pairs_s", solvers.solve_auto, Instance.spath(g, *pair), mix,
                  max_nodes=self.node_cap)
        return {"mix": mix}

    def check(self, inp: dict, pay: dict, solves: list, out: Outcome) -> dict:
        g, mix = inp["graph"], pay["mix"]
        if "brute" not in inp:  # reference optima, computed once per copy
            inp["brute"] = [
                solvers.solve_brute_force(Instance.spath(g, *pair), mix).objective
                for pair in inp["pairs"]
            ]
        objectives = []
        for pair, (name, args, report, _), ref in zip(inp["pairs"], solves, inp["brute"]):
            solved_pair, solved_mix = pair_and_mixture(name, args)
            out.solve(g, pair, mix, report, "bnb")
            out.op(report.optimal, f"bnb {pair}: node cap {self.node_cap} hit")
            out.op(
                solved_pair == pair
                and solved_mix is mix
                and abs(report.objective - ref) <= TOL * max(1.0, abs(ref)),
                f"bnb {pair}: {report.objective} != brute force {ref}",
            )
            objectives.append(report.objective)
        out.op(len(objectives) == len(inp["pairs"]), "bnb: a pair was not solved")
        return {"solution_cost": float(np.mean(objectives))}


WORKLOADS = {w.name: w for w in (Acceptance, PaperScale, BnbProve)}

# Per workload: (layer metric, predicate, description) that a traced
# iteration must satisfy, so a workload that stops exercising its layer
# fails instead of silently measuring something else.
COVERAGE = {
    "acceptance": [
        ("instances.nominal_solve.forced.calls", lambda v: v > 0, "forced-arc calls > 0"),
    ],
    "paper-scale": [
        ("instances.nominal_solve.forced.calls", lambda v: v == 0, "forced-arc calls = 0"),
        ("uncertainty.build_set.ellipsoid.calls", lambda v: v > 0, "builds an ellipsoid"),
    ],
    "bnb-prove": [
        ("instances.nominal_solve.forced.calls", lambda v: v > 0, "forced-arc calls > 0"),
        ("solvers.bnb.capped", lambda v: v == 0, "no capped BnB solve"),
    ],
}
