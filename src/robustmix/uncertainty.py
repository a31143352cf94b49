"""Uncertainty set representations, data-driven builders and worst cases.

Five set families are supported: interval boxes, budgeted (Gamma) sets,
convex hulls of discrete scenario points, ellipsoids, and polyhedra in
H-representation.  Polyhedra are carried only so they can be emitted as
mixed-integer models; in-process worst-case evaluation rejects them.

Each family's class is the one place that defines its behaviour:
`name`, `worst_case(x) -> (value, member)`, `center()`, the fixed
`bound_member()` that branch-and-bound bounds with, and the per-item
`spread()` it branches on.  A new family touches its class, `build_set`
and, if it can be emitted as an LP, one entry of `mip_emit._FAMILIES`.

The lambda-scaled builders reconstruct standard data-driven
constructions around the columnwise scenario mean: lambda interpolates
between the point set at the mean (lambda = 0) and, for interval and
hull sets, the observed scenario range (lambda = 1).  For ellipsoids
lambda is the squared-radius bound of (c - mu)' Sigma^-1 (c - mu) <=
lambda, hence the sqrt(lambda) factor in the support function.  The
ellipsoid's nonnegativity side constraint is deliberately dropped in
worst_case, which makes it a slightly conservative upper bound.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError, UnsupportedError

LAMBDA_RANGES = {
    "interval": (0.0, 1.0),
    "hull": (0.0, 1.0),
    "budgeted": (0.0, 1.0),
    "ellipsoid": (0.0, 20.0),
}


@dataclass(frozen=True)
class ScenarioMatrix:
    """K observed cost vectors over n items (K rows, n columns)."""

    costs: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 2:
            raise ValueError("scenario matrix must be 2-D")
        if not np.all(np.isfinite(costs)) or np.any(costs < 0):
            raise ValueError("scenario costs must be finite and nonnegative")
        object.__setattr__(self, "costs", costs)

    @property
    def K(self) -> int:
        return self.costs.shape[0]

    @property
    def n(self) -> int:
        return self.costs.shape[1]

    def subset(self, rows) -> "ScenarioMatrix":
        return ScenarioMatrix(self.costs[np.asarray(rows, dtype=int)])

    @staticmethod
    def from_csv(text: str) -> "ScenarioMatrix":
        """Parse the scenario CSV: header arc_0,...,arc_{n-1}, then rows.

        Accepted format: comma-separated, `"`-quoted fields allowed, LF
        or CRLF line ends, empty lines skipped anywhere.  Every row has n
        entries, each a decimal float as `float()` reads it (surrounding
        whitespace, nan and inf included; digit-group underscores and
        non-ASCII digits are not).  An empty file, a wrong header, a
        header with no rows, a row of another length and a non-numeric
        or empty entry raise ParseError.

        Cost: the header goes through `csv.reader`; the body is one
        `np.loadtxt` call, which parses in C with the same
        string-to-double routine as `float()`, so the values are
        bit-identical to a per-entry `float()` parse and a K x n file
        costs O(K n) with no Python work per entry.
        """
        head, _, body = text.lstrip("\r\n").partition("\n")
        if not head:
            raise ParseError("empty scenario CSV")
        try:
            header = next(csv.reader([head], strict=True))
        except csv.Error as exc:
            raise ParseError(f"bad scenario CSV header: {exc}") from None
        if header != [f"arc_{i}" for i in range(len(header))]:
            raise ParseError("scenario CSV header must be arc_0,...,arc_{n-1}")
        if not body.strip("\r\n"):
            raise ParseError("scenario CSV has a header but no rows")
        try:
            data = np.loadtxt(
                io.StringIO(body), delimiter=",", quotechar='"', comments=None, ndmin=2
            )
        except ValueError as exc:
            raise ParseError(f"non-numeric or ragged scenario CSV: {exc}") from None
        if data.shape[1] != len(header):
            raise ParseError(
                f"ragged scenario CSV: rows have {data.shape[1]} entries, "
                f"header has {len(header)}"
            )
        return ScenarioMatrix(data)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"arc_{i}" for i in range(self.n)])
        for row in self.costs:
            writer.writerow([f"{v:.6f}" for v in row])
        return buf.getvalue()


@dataclass(frozen=True)
class _Box:
    """lo <= hi bounds, shared by the interval and budgeted families."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be 1-D vectors of equal length")
        if np.any(lo > hi + 1e-12):
            raise ValueError(f"{self.name} set requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0


@dataclass(frozen=True)
class IntervalSet(_Box):
    name = "interval"

    def worst_case(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return float(self.hi @ x), self.hi.copy()

    def bound_member(self) -> np.ndarray:
        return self.hi  # the worst case for every x: the bound is tight

    def spread(self) -> np.ndarray:
        return np.zeros(self.n)


@dataclass(frozen=True)
class BudgetedSet(_Box):
    gamma: int
    name = "budgeted"

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.gamma <= self.n):
            raise ValueError("gamma must lie in [0, n]")

    @property
    def deviations(self) -> np.ndarray:
        return self.hi - self.lo

    def worst_case(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        dev = self.deviations * x
        c = self.lo.copy()
        top = np.argsort(-dev, kind="stable")[: self.gamma]
        if top.size:
            c[top] += self.deviations[top]
        return float(self.lo @ x + dev[top].sum()), c

    def bound_member(self) -> np.ndarray:
        return self.lo  # the only member guaranteed for every Gamma

    def spread(self) -> np.ndarray:
        return self.deviations


@dataclass(frozen=True)
class HullSet:
    points: np.ndarray  # K_j rows of n-vectors
    name = "hull"

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("hull needs at least one point")
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def worst_case(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        values = self.points @ x
        k = int(np.argmax(values))  # argmax keeps the lowest index on ties
        return float(values[k]), self.points[k].copy()

    def center(self) -> np.ndarray:
        return self.points.mean(axis=0)

    bound_member = center

    def spread(self) -> np.ndarray:
        return self.points.max(axis=0) - self.points.min(axis=0)


def _is_psd(sigma: np.ndarray, tol: float = 1e-9) -> bool:
    """Is the smallest eigenvalue of symmetric `sigma` at least -tol?

    A Cholesky factorisation of sigma + tol I succeeds when that matrix
    is positive definite, i.e. when every eigenvalue of sigma exceeds
    -tol, up to rounding of order n eps ||sigma||, which bounds the error
    of eigvalsh as well.  It costs about a third of eigvalsh, which runs
    only when the factorisation fails and decides by the same rule.
    """
    try:
        np.linalg.cholesky(sigma + tol * np.eye(sigma.shape[0]))
    except np.linalg.LinAlgError:
        return not np.linalg.eigvalsh(sigma).min() < -tol
    return True


@dataclass(frozen=True)
class EllipsoidSet:
    mu: np.ndarray
    sigma: np.ndarray
    lam: float
    name = "ellipsoid"

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError("sigma must be n x n")
        if not np.allclose(sigma, sigma.T, atol=1e-9):
            raise ValueError("sigma must be symmetric")
        if not _is_psd(sigma):
            raise ValueError("sigma must be positive semidefinite")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    def is_diagonal(self) -> bool:
        return self._is_diagonal

    @cached_property
    def _is_diagonal(self) -> bool:
        return bool(np.allclose(self.sigma, np.diag(np.diag(self.sigma)), atol=1e-12))

    def worst_case(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        quad = max(float(x @ self.sigma @ x), 0.0)
        value = float(self.mu @ x + np.sqrt(self.lam * quad))
        if quad > 0 and self.lam > 0:
            c = self.mu + np.sqrt(self.lam) * (self.sigma @ x) / np.sqrt(quad)
        else:
            c = self.mu.copy()
        return value, c

    def center(self) -> np.ndarray:
        return self.mu.copy()

    bound_member = center

    def spread(self) -> np.ndarray:
        return np.sqrt(self.lam * np.maximum(np.diag(self.sigma), 0))


@dataclass(frozen=True)
class PolyhedronSet:
    """{c >= 0 : V c <= d} in H-representation; emission-only."""

    V: np.ndarray
    d: np.ndarray
    name = "polyhedron"

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if V.ndim != 2 or d.shape != (V.shape[0],):
            raise ValueError("V must be m x n and d length m")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.V.shape[1]

    def worst_case(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        raise UnsupportedError("polyhedral worst case unsupported: emit MIP instead")

    def center(self) -> np.ndarray:
        raise UnsupportedError("polyhedral sets have no usable center here")

    bound_member = spread = center


UncertaintySet = IntervalSet | BudgetedSet | HullSet | EllipsoidSet | PolyhedronSet


def build_set(
    data: ScenarioMatrix,
    set_type: str,
    lam: float,
    gamma: int | None = None,
    ridge: float | None = None,
) -> UncertaintySet:
    """Construct a lambda-scaled uncertainty set from scenario data.

    interval: [mu - lam (mu - colmin), mu + lam (colmax - mu)]
    hull:     {mu + lam (c^k - mu)} with duplicate points removed
    budgeted: interval bounds plus a deviation budget `gamma`
    ellipsoid: mean/covariance with a ridge for degenerate data

    Cost on K scenarios over n items: interval and budgeted sets take
    O(K n).  The hull keeps the first occurrence of each distinct point,
    in scenario order, by hashing each row's bytes: O(K n) expected.
    The ellipsoid takes O(K n^2) for the covariance plus O(n^3) for the
    PSD check in EllipsoidSet (one Cholesky factorisation on well-posed
    data).
    """
    if set_type not in LAMBDA_RANGES:
        raise UnsupportedError(f"unknown set type {set_type!r}")
    lo_l, hi_l = LAMBDA_RANGES[set_type]
    if not (lo_l <= lam <= hi_l):
        raise ValueError(
            f"lambda {lam} out of range [{lo_l}, {hi_l}] for {set_type}"
        )
    mu = data.costs.mean(axis=0)

    if set_type in ("interval", "budgeted"):
        lo = mu - lam * (mu - data.costs.min(axis=0))
        hi = mu + lam * (data.costs.max(axis=0) - mu)
        if set_type == "interval":
            return IntervalSet(lo, hi)
        if gamma is None:
            raise ValueError("budgeted set requires gamma")
        return BudgetedSet(lo, hi, int(gamma))

    if set_type == "hull":
        points = mu[None, :] + lam * (data.costs - mu[None, :])
        first: dict[bytes, int] = {}
        for k, row in enumerate(points + 0.0):  # + 0.0 maps -0.0 to 0.0
            first.setdefault(row.tobytes(), k)
        return HullSet(points[list(first.values())])

    if data.K < 2:
        raise ValueError("ellipsoid requires at least 2 scenarios")
    sigma = np.cov(data.costs, rowvar=False, bias=False)
    sigma = np.atleast_2d(sigma)
    if ridge is None:
        ridge = 1e-6 * np.trace(sigma) / data.n
    sigma = sigma + ridge * np.eye(data.n)
    return EllipsoidSet(mu, sigma, lam)


def worst_case(uset: UncertaintySet, x) -> tuple[float, np.ndarray]:
    """max over the set of c . x for binary x; returns (value, argmax c)."""
    return uset.worst_case(np.asarray(x, dtype=float))


def center(uset: UncertaintySet) -> np.ndarray:
    """A representative member of the set (mean / midpoint / mu)."""
    return uset.center()


@dataclass(frozen=True)
class Mixture:
    """Weighted list of uncertainty sets: the objective is
    sum_j p_j max_{c in U_j} c . x.

    Weights are nonnegative but not required to sum to one.
    """

    components: tuple[tuple[float, UncertaintySet], ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("mixture needs at least one component")
        comps = []
        for weight, uset in self.components:
            w = float(weight)
            if not np.isfinite(w) or w < 0:
                raise ValueError("weights must be finite and nonnegative")
            comps.append((w, uset))
        object.__setattr__(self, "components", tuple(comps))

    @property
    def N(self) -> int:
        return len(self.components)

    def set_types(self) -> tuple[str, ...]:
        return tuple(u.name for _, u in self.components)

    def require(self, set_type: str, message: str) -> None:
        """Raise UnsupportedError(message) unless all components are `set_type`."""
        if any(u.name != set_type for _, u in self.components):
            raise UnsupportedError(message)


def mixture_spec_from_json(text: str) -> list[dict]:
    """Parse the mixture JSON file into a list of component specs."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid mixture JSON: {exc}") from None
    if not isinstance(doc, dict) or "components" not in doc:
        raise ParseError("mixture JSON must contain a 'components' list")
    comps = doc["components"]
    if not isinstance(comps, list) or not comps:
        raise ParseError("'components' must be a nonempty list")
    specs = []
    for i, comp in enumerate(comps):
        if "weight" not in comp or "type" not in comp:
            raise ParseError(f"component {i} needs 'weight' and 'type'")
        spec = {
            "weight": float(comp["weight"]),
            "type": str(comp["type"]),
            "lambda": float(comp.get("lambda", 0.0)),
        }
        if "gamma" in comp:
            spec["gamma"] = int(comp["gamma"])
        if "ridge" in comp:
            spec["ridge"] = float(comp["ridge"])
        specs.append(spec)
    return specs


def mixture_spec_to_json(specs: list[dict]) -> str:
    return json.dumps({"components": specs}, indent=2) + "\n"


def build_mixture(specs: list[dict], data: ScenarioMatrix) -> Mixture:
    """Realize mixture component specs against scenario data."""
    components = []
    for spec in specs:
        uset = build_set(
            data,
            spec["type"],
            spec["lambda"],
            gamma=spec.get("gamma"),
            ridge=spec.get("ridge"),
        )
        components.append((spec["weight"], uset))
    return Mixture(tuple(components))
