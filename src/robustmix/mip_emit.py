"""Emission of the dualized mixture models as CPLEX-LP files.

Budgeted components are dualized with threshold/overflow variables,
hull components get one epigraph variable and one row per point,
polyhedral components are dualized with one multiplier per row, and
interval components fold into the linear objective.  Ellipsoids are
conic and rejected.  Variable naming is stable for diffing:
x_<i>, pi_<j>, rho_<j>_<i>, alpha_<j>_<r>, y_<j> with j the mixture
component index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .analysis import dual_certificate
from .errors import ParseError, UnsupportedError
from .instances import Instance, Solution
from .solvers import evaluate_wrp
from .uncertainty import Mixture

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class ModelStats:
    num_binary: int
    num_continuous: int
    num_constraints: int

    def __str__(self) -> str:
        return f"{self.num_binary}/{self.num_continuous}/{self.num_constraints}"


@dataclass
class _Model:
    """The objective, rows and continuous variables emitted so far."""

    obj_x: np.ndarray  # linear objective coefficients of x
    obj_terms: list = field(default_factory=list)  # (coef, variable)
    rows: list = field(default_factory=list)  # (name, terms, sense, rhs)
    cont_vars: list = field(default_factory=list)


def _interval_block(model: _Model, j: int, weight: float, uset, n: int):
    model.obj_x += weight * uset.hi


def _budgeted_block(model: _Model, j: int, weight: float, uset, n: int):
    model.obj_x += weight * uset.lo
    pi = f"pi_{j}"
    model.cont_vars.append(pi)
    model.obj_terms.append((weight * uset.gamma, pi))
    for i in range(n):
        rho = f"rho_{j}_{i}"
        model.cont_vars.append(rho)
        model.obj_terms.append((weight, rho))
        model.rows.append(
            (
                f"bud_{j}_{i}",
                [(1.0, pi), (1.0, rho), (-float(uset.deviations[i]), f"x_{i}")],
                ">=",
                0.0,
            )
        )


def _hull_block(model: _Model, j: int, weight: float, uset, n: int):
    y = f"y_{j}"
    model.cont_vars.append(y)
    model.obj_terms.append((weight, y))
    for k in range(uset.num_points):
        terms = [(1.0, y)]
        for i in range(n):
            coef = float(uset.points[k, i])
            if coef != 0.0:
                terms.append((-coef, f"x_{i}"))
        model.rows.append((f"hull_{j}_{k}", terms, ">=", 0.0))


def _polyhedron_block(model: _Model, j: int, weight: float, uset, n: int):
    m = uset.V.shape[0]
    alphas = [f"alpha_{j}_{r}" for r in range(m)]
    model.cont_vars.extend(alphas)
    for r in range(m):
        model.obj_terms.append((weight * float(uset.d[r]), alphas[r]))
    for i in range(n):
        terms = []
        for r in range(m):
            coef = float(uset.V[r, i])
            if coef != 0.0:
                terms.append((coef, alphas[r]))
        terms.append((-1.0, f"x_{i}"))
        model.rows.append((f"poly_{j}_{i}", terms, ">=", 0.0))


def _budgeted_completion(point: dict, j: int, uset, x, lp: LpModel) -> None:
    cert = dual_certificate(Mixture(((1.0, uset),)), x)
    point[f"pi_{j}"] = cert.pi[0]
    for i, rho in enumerate(cert.rho[0]):
        point[f"rho_{j}_{i}"] = rho


def _hull_completion(point: dict, j: int, uset, x, lp: LpModel) -> None:
    best = 0.0
    for name, terms, sense, rhs in lp.constraints:
        if name.startswith(f"hull_{j}_"):
            load = -sum(
                coef * point.get(var, 0.0)
                for var, coef in terms.items()
                if var != f"y_{j}"
            )
            best = max(best, load)
    point[f"y_{j}"] = best


class _Family(NamedTuple):
    """How one set family enters the LP model on n items."""

    counts: Callable  # (uset, n) -> (continuous variables, rows)
    block: Callable  # (model, j, weight, uset, n) adds its part to the model
    completion: Callable  # (point, j, uset, x, lp) sets its variables; a message skips


_POLYHEDRON_SKIP = "polyhedral completion skipped (needs an LP solver)"
_FAMILIES = {
    "interval": _Family(lambda u, n: (0, 0), _interval_block, lambda *_: None),
    "budgeted": _Family(lambda u, n: (1 + n, n), _budgeted_block, _budgeted_completion),
    "hull": _Family(lambda u, n: (1, u.num_points), _hull_block, _hull_completion),
    "polyhedron": _Family(
        lambda u, n: (u.V.shape[0], n), _polyhedron_block, lambda *_: _POLYHEDRON_SKIP
    ),
}


def _family(uset) -> _Family:
    if uset.name not in _FAMILIES:
        raise UnsupportedError("conic objective unsupported in LP format")
    return _FAMILIES[uset.name]


def expected_stats(inst: Instance, mix: Mixture) -> ModelStats:
    """Closed-form variable and row counts for the combined model."""
    n = inst.n
    counts = [_family(uset).counts(uset, n) for _, uset in mix.components]
    cont = sum(c for c, _ in counts)
    rows = sum(r for _, r in counts)
    rows += 1 if inst.kind == "selection" else inst.graph.num_nodes
    return ModelStats(n, cont, rows)


def _coef(v: float) -> str:
    return f"{v:.12g}"


def _expr(terms: list[tuple[float, str]]) -> str:
    parts = []
    for coef, name in terms:
        if not parts:
            parts.append(f"{_coef(coef)} {name}")
        elif coef < 0:
            parts.append(f"- {_coef(-coef)} {name}")
        else:
            parts.append(f"+ {_coef(coef)} {name}")
    return " ".join(parts)


def emit_model(inst: Instance, mix: Mixture, out_path: str) -> ModelStats:
    """Write the weighted model as an LP file; returns the binary,
    continuous and row counts of what it wrote."""
    n = inst.n
    model = _Model(np.zeros(n))
    for j, (weight, uset) in enumerate(mix.components):
        _family(uset).block(model, j, weight, uset, n)
    obj_x, rows = model.obj_x, model.rows

    x_terms = [(float(obj_x[i]), f"x_{i}") for i in range(n) if obj_x[i] != 0.0]
    objective = x_terms + model.obj_terms
    if not objective:
        objective = [(0.0, "x_0")]

    if inst.kind == "selection":
        rows.append(
            ("card", [(1.0, f"x_{i}") for i in range(n)], "=", float(inst.p))
        )
    else:
        g = inst.graph
        # one pass in arc order; a self-loop gets its + term before its -
        flow: list[list[tuple[float, str]]] = [[] for _ in range(g.num_nodes)]
        for i, (tail, head) in enumerate(g.arcs):
            flow[tail].append((1.0, f"x_{i}"))
            flow[head].append((-1.0, f"x_{i}"))
        for v, terms in enumerate(flow):
            rhs = 1.0 if v == inst.source else (-1.0 if v == inst.target else 0.0)
            rows.append((f"flow_{v}", terms or [(0.0, "x_0")], "=", rhs))

    lines = ["\\ robustmix weighted model", "Minimize", f" obj: {_expr(objective)}"]
    lines.append("Subject To")
    for name, terms, sense, rhs in rows:
        lines.append(f" {name}: {_expr(terms)} {sense} {_coef(rhs)}")
    lines.append("Bounds")
    for i in range(n):
        lines.append(f" 0 <= x_{i} <= 1")
    for var in model.cont_vars:
        lines.append(f" {var} >= 0")
    lines.append("General")
    for i in range(n):
        lines.append(f" x_{i}")
    lines.append("End")

    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return ModelStats(n, len(model.cont_vars), len(rows))


@dataclass
class LpModel:
    objective: dict[str, float]
    constraints: list[tuple[str, dict[str, float], str, float]]
    bounds: dict[str, tuple[float, float]]
    general: set[str]


def _parse_terms(tokens: list[str]) -> dict[str, float]:
    terms: dict[str, float] = {}
    sign = 1.0
    coef: float | None = None
    for tok in tokens:
        if tok == "+":
            sign = 1.0
            continue
        if tok == "-":
            sign = -1.0
            continue
        try:
            value = float(tok)
        except ValueError:
            value = None
        if value is not None:
            if coef is not None:
                raise ParseError(f"two consecutive numbers near {tok!r}")
            coef = value
            continue
        if not _NAME.match(tok):
            raise ParseError(f"bad variable name {tok!r}")
        terms[tok] = terms.get(tok, 0.0) + sign * (1.0 if coef is None else coef)
        sign, coef = 1.0, None
    if coef is not None:
        raise ParseError("dangling coefficient in expression")
    return terms


def parse_lp(text: str) -> LpModel:
    """Strict parser for the subset of LP format this package emits."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("\\")
    ]
    section = None
    objective: dict[str, float] = {}
    constraints: list[tuple[str, dict[str, float], str, float]] = []
    bounds: dict[str, tuple[float, float]] = {}
    general: set[str] = set()
    seen_sections = []

    for ln in lines:
        low = ln.lower()
        if low in ("minimize", "subject to", "bounds", "general", "end"):
            section = low
            seen_sections.append(low)
            continue
        if section == "minimize":
            if ":" not in ln:
                raise ParseError("objective line missing label")
            _, expr = ln.split(":", 1)
            objective = _parse_terms(expr.split())
        elif section == "subject to":
            if ":" not in ln:
                raise ParseError(f"constraint missing label: {ln!r}")
            name, rest = ln.split(":", 1)
            name = name.strip()
            if not _NAME.match(name):
                raise ParseError(f"bad constraint name {name!r}")
            tokens = rest.split()
            sense_idx = None
            for i, tok in enumerate(tokens):
                if tok in (">=", "<=", "="):
                    sense_idx = i
                    break
            if sense_idx is None or sense_idx != len(tokens) - 2:
                raise ParseError(f"constraint needs '<terms> <sense> <rhs>': {ln!r}")
            terms = _parse_terms(tokens[:sense_idx])
            sense = tokens[sense_idx]
            try:
                rhs = float(tokens[-1])
            except ValueError:
                raise ParseError(f"bad rhs in {ln!r}") from None
            constraints.append((name, terms, sense, rhs))
        elif section == "bounds":
            tokens = ln.split()
            if len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                bounds[tokens[2]] = (float(tokens[0]), float(tokens[4]))
            elif len(tokens) == 3 and tokens[1] == ">=":
                bounds[tokens[0]] = (float(tokens[2]), float("inf"))
            elif len(tokens) == 3 and tokens[1] == "=":
                v = float(tokens[2])
                bounds[tokens[0]] = (v, v)
            else:
                raise ParseError(f"bad bounds line {ln!r}")
        elif section == "general":
            if not _NAME.match(ln):
                raise ParseError(f"bad general entry {ln!r}")
            general.add(ln)
        elif section == "end":
            raise ParseError("content after End")
        else:
            raise ParseError(f"content before Minimize: {ln!r}")

    if seen_sections != ["minimize", "subject to", "bounds", "general", "end"]:
        raise ParseError(f"bad section layout {seen_sections}")
    return LpModel(objective, constraints, bounds, general)


@dataclass
class EmitCheck:
    ok: bool
    objective_match: bool
    message: str = ""


def check_emitted(
    inst: Instance, mix: Mixture, solution: Solution, path: str
) -> EmitCheck:
    """Round-trip validation of an emitted model without an external solver.

    Re-parses the file, fixes x to the given solution, completes the
    continuous variables in closed form (duals for budgeted rows,
    row-max for epigraph rows), checks constraint feasibility, and
    compares the file objective against the in-process objective.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            model = parse_lp(fh.read())
    except ParseError as exc:
        return EmitCheck(False, False, f"parse-back failure: {exc}")

    stats = expected_stats(inst, mix)
    n_bin = len(model.general)
    found = ModelStats(n_bin, len(model.bounds) - n_bin, len(model.constraints))
    if found != stats:
        message = f"structure mismatch: file has {found}, expected {stats}"
        return EmitCheck(False, False, message)

    point = {f"x_{i}": float(xi) for i, xi in enumerate(solution.x)}
    for j, (_, uset) in enumerate(mix.components):
        skipped = _family(uset).completion(point, j, uset, solution.x, model)
        if skipped:
            return EmitCheck(True, False, skipped)

    for name, terms, sense, rhs in model.constraints:
        lhs = sum(coef * point.get(var, 0.0) for var, coef in terms.items())
        sat = {
            ">=": lhs >= rhs - 1e-6,
            "<=": lhs <= rhs + 1e-6,
            "=": abs(lhs - rhs) <= 1e-6,
        }[sense]
        if not sat:
            return EmitCheck(False, False, f"constraint {name} violated at point")

    file_obj = sum(coef * point.get(var, 0.0) for var, coef in model.objective.items())
    true_obj = evaluate_wrp(mix, solution.x)
    match = abs(file_obj - true_obj) <= 1e-6
    msg = "" if match else f"objective {file_obj} != {true_obj}"
    return EmitCheck(True, match, msg)
