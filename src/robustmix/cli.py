"""Batch command-line front end, the only module that opens a file.

Subcommands read and write plain files, UTF-8 with LF line ends.  Each
run's manifest goes to `--manifest PATH`, else to `<first
output>.manifest.json`.  Exit codes: 0 success, 1 a `verify` suite
failed, 2 invalid input or an unreadable or unwritable file, 3
infeasible, 4 budget exceeded: an enumeration cap (nothing is written),
a `tune` run that did not evaluate a configuration on every pair, or a
`solve` record from a branch-and-bound search whose `--max-nodes` cap
left a node that could still improve the incumbent (outputs written).
The heuristic methods `midpoint` and `local` exit 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import astuple

from . import __version__
from .errors import (
    CapExceededError,
    InfeasibleError,
    ParseError,
    UnsupportedError,
)
from .evaluation import ALPHA, check_weights, score, split_scenarios, weight_grid
from .instances import (
    NOISE_MODELS,
    Instance,
    Solution,
    gen_synthetic,
    graph_to_text,
    parse_graph,
    sample_st_pairs,
)
from .mip_emit import emit_model
from .solvers import (
    solve_auto,
    solve_bnb,
    solve_brute_force,
    solve_budgeted_mix,
    solve_interval_mix,
    solve_local_search,
    solve_midpoint_approx,
)
from .tuning import TUNABLE_TYPES, ConfigSpace, baseline_grid, tune
from .uncertainty import (
    ScenarioMatrix,
    build_mixture,
    mixture_spec_from_json,
    mixture_spec_to_json,
)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4


def _write_manifest(args, argv: list[str], outputs: list[str], started: float):
    """The run's manifest, at `--manifest` or beside the first output."""
    if args.manifest is None and not outputs:
        return
    path = outputs[0] + ".manifest.json" if args.manifest is None else args.manifest
    doc = {
        "command": args.command,
        "argv": argv,
        "seed": args.seed,
        "outputs": outputs,
        "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    _write_json(path, doc)


def _write(path: str, text: str) -> None:
    """The CLI's one way to write a file: `text` as UTF-8, its line ends
    kept as LF on every platform, in one write."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, doc) -> None:
    """`doc` as sorted, 2-space indented JSON plus a newline, in one write."""
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    """`header` and `rows` as `csv.writer` lines ending in LF."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write(path, buf.getvalue())


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_pairs(path: str) -> list[tuple[int, int]]:
    """The pairs CSV: header source,target, then one row of two integers
    per pair; empty lines are skipped anywhere, as in a scenario CSV."""
    pairs = []
    rows = [row for row in csv.reader(io.StringIO(_read(path))) if row]
    if not rows or rows[0] != ["source", "target"]:
        raise ParseError("pairs CSV must start with header source,target")
    if len(rows) == 1:
        raise ParseError("empty pair list: the pairs CSV has a header but no rows")
    for row in rows[1:]:
        if len(row) != 2:
            raise ParseError(f"bad pairs row {row!r}")
        pairs.append((int(row[0]), int(row[1])))
    return pairs


def _reject_unread(args, mode: str, *names: str) -> None:
    """Raise ParseError on the first of the options `names` that was
    given, since `mode` does not read it."""
    for name in names:
        if getattr(args, name) is not None:
            raise ParseError(f"--{name.replace('_', '-')} is not read {mode}")


def _check_columns(scenarios: ScenarioMatrix, n: int, owner="graph", unit="arcs"):
    """The scenario columns are the items, so their counts must agree."""
    if scenarios.n != n:
        raise ParseError(
            f"scenario CSV has {scenarios.n} columns, {owner} has {n} {unit}"
        )


def _read_graph_and_scenarios(args):
    """`--graph` and `--scenarios`, read and parsed in that order, with
    one scenario column per arc checked."""
    graph = parse_graph(_read(args.graph))
    scenarios = ScenarioMatrix.from_csv(_read(args.scenarios))
    _check_columns(scenarios, graph.n)
    return graph, scenarios


def _specs_json(config) -> str:
    """A tuned configuration's component specs as one line of sorted JSON."""
    return json.dumps(config.to_specs(), sort_keys=True)


def _parse_weights(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("--weights needs three comma-separated values")
    w = tuple(float(p) for p in parts)
    try:
        check_weights(w)
    except ValueError:
        raise ParseError(f"weights must be finite and nonnegative, got {text}") from None
    return w


# --method name -> call(inst, mix, args); the sorted names are the choices.
METHODS = {
    "auto": lambda inst, mix, args: solve_auto(inst, mix, max_nodes=args.max_nodes),
    "brute": lambda inst, mix, args: solve_brute_force(inst, mix),
    "bnb": lambda inst, mix, args: solve_bnb(inst, mix, max_nodes=args.max_nodes),
    "budgeted-enum": lambda inst, mix, args: solve_budgeted_mix(inst, mix),
    "interval": lambda inst, mix, args: solve_interval_mix(inst, mix),
    "midpoint": lambda inst, mix, args: solve_midpoint_approx(inst, mix),
    "local": lambda inst, mix, args: solve_local_search(inst, mix, seed=args.seed),
}


def _cmd_gen(args):
    graph, scenarios = gen_synthetic(
        args.width, args.height, args.scenarios, args.noise, args.seed
    )
    _write(args.out_graph, graph_to_text(graph))
    _write(args.out_scenarios, scenarios.to_csv())
    print(f"nodes={graph.num_nodes} arcs={graph.n} scenarios={scenarios.K}")
    return EXIT_OK, [args.out_graph, args.out_scenarios]


def _cmd_pairs(args):
    if args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    if args.min_hops < 0:
        raise ParseError(f"--min-hops must be nonnegative, got {args.min_hops}")
    graph = parse_graph(_read(args.graph))
    pairs = sample_st_pairs(graph, args.count, args.min_hops, args.seed)
    _write_csv(args.out, ["source", "target"], pairs)
    print(f"pairs={len(pairs)}")
    return EXIT_OK, [args.out]


def _cmd_solve(args):
    if args.max_nodes is not None and args.max_nodes < 0:
        raise ParseError(f"--max-nodes must be nonnegative, got {args.max_nodes}")
    if args.method not in ("auto", "bnb"):
        _reject_unread(args, f"by --method {args.method}", "max_nodes")
    if args.pairs is not None:
        _reject_unread(args, "with --pairs", "source", "target")
        pairs = _load_pairs(args.pairs)
    elif args.source is None or args.target is None:
        raise ParseError("need --source/--target or --pairs")
    else:
        pairs = [(args.source, args.target)]
    graph, scenarios = _read_graph_and_scenarios(args)
    specs = mixture_spec_from_json(_read(args.mixture))
    mix = build_mixture(specs, scenarios)
    records = []
    cut_short = False
    for s, t in pairs:
        report = METHODS[args.method](Instance.spath(graph, s, t), mix, args)
        cut_short |= report.method == "bnb" and not report.optimal
        records.append(
            {
                "source": s,
                "target": t,
                "x": list(report.solution.x),
                "objective": float(f"{report.objective:.6f}"),
                "optimal": report.optimal,
                "method": report.method,
            }
        )
        print(f"objective={report.objective:.6f} optimal={str(report.optimal).lower()}")
    if args.out:
        _write_json(args.out, {"solutions": records})
    return EXIT_BUDGET if cut_short else EXIT_OK, [args.out] if args.out else []


def _load_solutions(text: str) -> list[Solution]:
    """Parse the solutions JSON that `solve --out` writes; every `x`
    entry must be the integer 0 or 1."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid solutions JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("solutions"), list):
        raise ParseError("solutions JSON must be an object with a 'solutions' list")
    solutions = []
    for i, rec in enumerate(doc["solutions"]):
        if not isinstance(rec, dict) or not isinstance(rec.get("x"), list):
            raise ParseError(f"solution record {i} needs an 'x' list")
        if any(type(v) is not int or v not in (0, 1) for v in rec["x"]):
            raise ParseError(f"solution record {i} has an 'x' entry that is not 0 or 1")
        try:
            objective = float(rec.get("objective", 0.0))
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"solution record {i} has a bad 'objective': {exc}"
            ) from None
        solutions.append(Solution(tuple(rec["x"]), objective))
    return solutions


def _cmd_evaluate(args):
    scenarios = ScenarioMatrix.from_csv(_read(args.scenarios))
    solutions = _load_solutions(_read(args.solutions))
    metrics = score(solutions, scenarios, args.alpha)
    print(metrics.format_line())
    if args.out:
        _write(args.out, metrics.format_line() + "\n")
    return EXIT_OK, [args.out] if args.out else []


def _cmd_baseline(args):
    graph, scenarios = _read_graph_and_scenarios(args)
    pairs = _load_pairs(args.pairs)
    split = split_scenarios(scenarios.K, args.ratio, args.seed)
    grid = baseline_grid(args.type, graph, pairs, scenarios, split)
    rows = [
        [f"{args.type}_lambda_{lam:.6f}", sample, *(f"{v:.6f}" for v in astuple(m))]
        for lam, m_in, m_out in grid
        for sample, m in (("in", m_in), ("out", m_out))
    ]
    _write_csv(args.out, ["label", "sample", "avg", "max", "cvar"], rows)
    print(f"rows={len(rows)}")
    return EXIT_OK, [args.out]


def _cmd_tune(args):
    graph, scenarios = _read_graph_and_scenarios(args)
    pairs = _load_pairs(args.pairs)
    split = split_scenarios(scenarios.K, args.ratio, args.seed)
    space = ConfigSpace(budget=args.budget, max_parents=args.max_parents)
    if args.weight_grid is not None:
        weight_list = weight_grid(args.weight_grid)
    else:
        weight_list = [_parse_weights(args.weights)]

    results = [
        tune(space, graph, pairs, scenarios, split, w, args.seed) for w in weight_list
    ]
    print(f"budget={args.budget} runs={len(weight_list)}")

    outputs = [args.out_config]
    if len(results) == 1:
        _write(args.out_config, mixture_spec_to_json(results[0].best.to_specs()))
    else:
        header = ["w_avg", "w_max", "w_cvar", "cost", "config"]
        rows = [
            [*(f"{v:.6f}" for v in (*w, result.best_cost)), _specs_json(result.best)]
            for w, result in zip(weight_list, results)
        ]
        _write_csv(args.out_config, header, rows)
    if args.out_trace:
        header = ["generation", "config_id", "pairs", "cost", "params"]
        rows = [
            [e.generation, e.config_id, e.pairs_used, f"{e.cost:.6f}", _specs_json(e.config)]
            for result in results
            for e in result.trace
        ]
        _write_csv(args.out_trace, header, rows)
        outputs.append(args.out_trace)
    complete = all(result.completed_full_eval for result in results)
    return EXIT_OK if complete else EXIT_BUDGET, outputs


def _cmd_emit_mip(args):
    if args.graph is not None:
        _reject_unread(args, "with --graph", "select_n", "select_p")
        if args.source is None or args.target is None:
            raise ParseError("emit-mip with --graph needs --source/--target")
        graph, scenarios = _read_graph_and_scenarios(args)
        inst = Instance.spath(graph, args.source, args.target)
    else:
        _reject_unread(args, "without --graph", "source", "target")
        if args.select_n is None or args.select_p is None:
            raise ParseError("emit-mip needs --graph or --select-n/--select-p")
        scenarios = ScenarioMatrix.from_csv(_read(args.scenarios))
        _check_columns(scenarios, args.select_n, "selection", "items")
        inst = Instance.selection(args.select_n, args.select_p)
    mix = build_mixture(mixture_spec_from_json(_read(args.mixture)), scenarios)
    text, stats = emit_model(inst, mix)
    _write(args.out, text)
    print(
        f"binary={stats.num_binary} continuous={stats.num_continuous} "
        f"rows={stats.num_constraints}"
    )
    return EXIT_OK, [args.out]


def _cmd_verify(args):
    ok = run_suites(args.suite, seed=args.seed, trials=args.trials)
    return EXIT_OK if ok else EXIT_FAILED, []


def build_parser() -> argparse.ArgumentParser:
    """The `robustmix` argument parser, one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="robustmix",
        description="Robust combinatorial optimization under mixtures of "
        "uncertainty sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--manifest", default=None)

    p = sub.add_parser("gen", help="generate a synthetic grid instance")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--scenarios", type=int, required=True)
    p.add_argument("--noise", choices=NOISE_MODELS, default="mult")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-scenarios", required=True)
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pairs", help="sample origin-destination pairs")
    p.add_argument("--graph", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--min-hops", type=int, default=0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("solve", help="solve one mixture on one or more pairs")
    p.add_argument("--graph", required=True)
    p.add_argument("--scenarios", required=True)
    p.add_argument("--mixture", required=True)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--pairs", default=None)
    p.add_argument("--method", choices=sorted(METHODS), default="auto")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", help="score solutions against scenarios")
    p.add_argument("--solutions", required=True)
    p.add_argument("--scenarios", required=True)
    p.add_argument("--alpha", type=float, default=ALPHA)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("baseline", help="41-point single-type lambda grid")
    p.add_argument("--type", choices=TUNABLE_TYPES, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--scenarios", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--ratio", type=float, default=0.75)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("tune", help="racing tuner for mixture hyperparameters")
    p.add_argument("--graph", required=True)
    p.add_argument("--scenarios", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--max-parents", type=int, default=3)
    p.add_argument("--ratio", type=float, default=0.75)
    weights = p.add_mutually_exclusive_group(required=True)
    weights.add_argument("--weights", default=None)
    weights.add_argument("--weight-grid", type=float, default=None)
    p.add_argument("--out-config", required=True)
    p.add_argument("--out-trace", default=None)
    common(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("emit-mip", help="emit the combined model as an LP file")
    p.add_argument("--graph", default=None)
    p.add_argument("--scenarios", required=True)
    p.add_argument("--mixture", required=True)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--select-n", type=int, default=None)
    p.add_argument("--select-p", type=int, default=None)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_emit_mip)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand on `argv` (default: `sys.argv[1:]`) and return
    its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        code, outputs = args.func(args)
        _write_manifest(args, argv, outputs, started)
        return code
    except (ParseError, UnsupportedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CapExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
