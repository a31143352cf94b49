"""Uncertainty set representations, data-driven builders and worst cases.

Five set families are supported: interval boxes, budgeted (Gamma) sets,
convex hulls of discrete scenario points, ellipsoids, and polyhedra in
H-representation.  Polyhedra are carried only so they can be emitted as
mixed-integer models; in-process worst-case evaluation rejects them.

Every array these classes hold is read-only and their own: a builder's
fresh array is sealed and kept, and anything else is copied once.  So
the values they compute once and keep (a matrix's column statistics
and scenario factor, a hull's centre, a mixture's bound costs) can
never go stale.

Each family's class is the one place that defines its behaviour, in
four methods besides its `name`: the support function `support(x)`
(max over the set of c . x), a maximizing member `member(x)`, the
fixed member `bound_member()` that branch-and-bound bounds with, and
the per-item `spread()` it branches on.  `worst_case(uset, x)` is the
one place that pairs a value with its member.  A member may be a
read-only array the set holds (an interval's `hi`, a hull's point row,
an ellipsoid's `mu`); no caller writes to one.  A new family touches
its class, `build_set` and, if it can be emitted as an LP, one entry of
`mip_emit._FAMILIES`.  Evaluations call `ndarray.dot`, not `@`: the
same result, about 0.8 us sooner per call on vectors of tens of items.

The lambda-scaled builders reconstruct standard data-driven
constructions around the columnwise scenario mean: lambda interpolates
between the point set at the mean (lambda = 0) and, for interval and
hull sets, the observed scenario range (lambda = 1).  For ellipsoids
lambda is the squared-radius bound of (c - mu)' Sigma^-1 (c - mu) <=
lambda, hence the sqrt(lambda) factor in the support function.  The
ellipsoid's covariance is its factor, Sigma = F'F + ridge I, whether
the covariance was given or built: every evaluation goes through F, a
built one shares its matrix's K x n centred F, and `sigma` (F'F plus
the ridge on its diagonal: the given matrix, or the sample covariance,
up to rounding) is formed only when read.  The ellipsoid's
nonnegativity side constraint is deliberately dropped in its support,
which makes it a slightly conservative upper bound whose members may
have negative entries (`instances.can_price` says where they price).
"""

from __future__ import annotations

import csv
import io
import json
import math
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


def _sealed(arr: np.ndarray) -> np.ndarray:
    """Make a freshly computed array read-only and return it."""
    arr.setflags(write=False)
    return arr


def _owned(values) -> np.ndarray:
    """`values` as a read-only float array that no caller can write to.

    A sealed array that owns its data (a memo, or a builder's fresh
    array) is kept as it is, and so is the fresh array that converting
    a list or another dtype makes; anything else, such as the caller's
    writable array or a view of one, is copied once.
    """
    arr = np.asarray(values, dtype=float)
    if not arr.flags.owndata or (arr is values and arr.flags.writeable):
        arr = arr.copy()
    return _sealed(arr)


@dataclass(frozen=True)
class ScenarioMatrix:
    """K observed cost vectors over n items (K rows, n columns).

    The columnwise statistics that `build_set` reads are computed once
    per matrix, on first use, and kept read-only."""

    costs: np.ndarray

    def __post_init__(self):
        costs = _owned(self.costs)
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

    @cached_property
    def mean(self) -> np.ndarray:
        return _sealed(self.costs.mean(axis=0))

    @cached_property
    def col_min(self) -> np.ndarray:
        return _sealed(self.costs.min(axis=0))

    @cached_property
    def col_max(self) -> np.ndarray:
        return _sealed(self.costs.max(axis=0))

    @cached_property
    def factor(self) -> np.ndarray:
        """(costs - mean) / sqrt(K - 1): the K x n factor F whose F' F is
        the sample covariance.  Every ellipsoid built from this matrix
        shares it.  Needs K >= 2."""
        return _sealed((self.costs - self.mean) / np.sqrt(self.K - 1))

    @cached_property
    def _default_ridge(self) -> float:
        """1e-6 times the mean variance, summed from `factor`; it keeps
        degenerate data positive definite."""
        return 1e-6 * float(np.einsum("ki,ki->", self.factor, self.factor)) / self.n

    def subset(self, rows) -> "ScenarioMatrix":
        return ScenarioMatrix(_sealed(self.costs[np.asarray(rows, dtype=int)]))

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
        return ScenarioMatrix(_sealed(data))

    def to_csv(self) -> str:
        """The header and one line per scenario, each cost as `f"{v:.6f}"`.

        A formatted finite float never holds a comma, quote or line end,
        so joining the fields gives the bytes `csv.writer` would write,
        without its per-field quoting checks over numpy scalars.  Rows
        are converted to Python floats and written one at a time, so no
        float list of the whole matrix is held at once."""
        buf = io.StringIO()
        buf.write(",".join(f"arc_{i}" for i in range(self.n)))
        for row in self.costs:
            buf.write("\n")
            buf.write(",".join(f"{v:.6f}" for v in row.tolist()))
        buf.write("\n")
        return buf.getvalue()


@dataclass(frozen=True)
class _Box:
    """lo <= hi bounds, shared by the interval and budgeted families."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _owned(self.lo)
        hi = _owned(self.hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be 1-D vectors of equal length")
        if np.any(lo > hi + 1e-12):
            raise ValueError(f"{self.name} set requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return self.lo.shape[0]


@dataclass(frozen=True)
class IntervalSet(_Box):
    name = "interval"

    def support(self, x: np.ndarray) -> float:
        return float(self.hi.dot(x))

    def member(self, x: np.ndarray) -> np.ndarray:
        return self.hi  # the worst case for every x: the bound is tight

    def bound_member(self) -> np.ndarray:
        return self.hi

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

    @cached_property
    def deviations(self) -> np.ndarray:
        return _sealed(self.hi - self.lo)

    def _top(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Deviations at x and the gamma largest ones' items, stable on ties."""
        dev = self.deviations * x
        return dev, np.argsort(-dev, kind="stable")[: self.gamma]

    def support(self, x: np.ndarray) -> float:
        dev, top = self._top(x)
        return float(self.lo.dot(x) + dev[top].sum())

    def member(self, x: np.ndarray) -> np.ndarray:
        top = self._top(x)[1]
        c = self.lo.copy()
        c[top] += self.deviations[top]
        return c

    def bound_member(self) -> np.ndarray:
        return self.lo  # the only member guaranteed for every Gamma

    def spread(self) -> np.ndarray:
        return self.deviations


@dataclass(frozen=True)
class HullSet:
    points: np.ndarray  # K_j rows of n-vectors
    name = "hull"

    def __post_init__(self):
        points = _owned(self.points)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("hull needs at least one point")
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def support(self, x: np.ndarray) -> float:
        return float(self.points.dot(x).max())

    def member(self, x: np.ndarray) -> np.ndarray:
        # argmax keeps the lowest index on ties
        return self.points[int(np.argmax(self.points.dot(x)))]

    @cached_property
    def _center(self) -> np.ndarray:
        return _sealed(self.points.mean(axis=0))

    def bound_member(self) -> np.ndarray:
        """The centre: the mean of the points."""
        return self._center

    def spread(self) -> np.ndarray:
        return _sealed(self.points.max(axis=0) - self.points.min(axis=0))


_PSD_TOL = 1e-9


def _check_psd(smallest: float) -> None:
    """Reject a covariance whose smallest eigenvalue is below -1e-9."""
    if not smallest >= -_PSD_TOL:  # NaN fails too
        raise ValueError("sigma must be positive semidefinite")


@dataclass(frozen=True)
class EllipsoidSet:
    """{mu + sqrt(lam) Sigma^(1/2) u : |u| <= 1}, with Sigma held as a
    factor: Sigma = F' F + ridge I for a read-only array F, K x n for a
    built ellipsoid and n x n for a given covariance.

    Every evaluation goes through F, in O(K n): the support at x is
    mu . x + sqrt(lam (|F x|^2 + ridge x . x)).  `EllipsoidSet(mu,
    sigma, lam)` checks a given covariance for symmetry (within 1e-9)
    and PSD (smallest eigenvalue at least -1e-9) and factors it with
    the one eigendecomposition that also gives the PSD verdict; the
    matrix itself is not kept.  `from_data` (what `build_set` calls)
    takes the matrix's shared K x n centred factor instead, so no n x n
    array is formed.  Either way `sigma`, built only when read, is
    F' F plus `ridge` on the diagonal.
    """

    mu: np.ndarray
    lam: float
    factor: np.ndarray
    ridge: float
    name = "ellipsoid"

    def __init__(self, mu, sigma, lam: float):
        mu = _owned(mu)
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError("sigma must be n x n")
        if not np.allclose(sigma, sigma.T, atol=1e-9):
            raise ValueError("sigma must be symmetric")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("sigma must be finite")
        eigenvalues, vectors = np.linalg.eigh(sigma)
        _check_psd(eigenvalues.min(initial=0.0))
        factor = (vectors * np.sqrt(np.maximum(eigenvalues, 0.0))).T
        self._init(mu, lam, _sealed(factor), 0.0)

    @classmethod
    def from_data(
        cls, data: ScenarioMatrix, lam: float, ridge: float | None = None
    ) -> "EllipsoidSet":
        """The ellipsoid at the data's mean with its sample covariance
        plus `ridge` times the identity (by default 1e-6 times the mean
        variance).  A negative ridge must leave that sum PSD: the data
        rank bounds its smallest eigenvalue, so only K >= n takes an
        O(K n^2) singular value decomposition.  Needs K >= 2."""
        if ridge is not None and not np.isfinite(ridge):
            raise ValueError(f"ridge {ridge!r} must be finite")
        factor = data.factor
        shift = data._default_ridge if ridge is None else float(ridge)
        if shift < 0:
            smallest = 0.0
            if data.K >= data.n:
                smallest = float(np.linalg.svd(factor, compute_uv=False).min()) ** 2
            _check_psd(smallest + shift)
        self = cls.__new__(cls)
        self._init(data.mean, lam, factor, shift)
        return self

    def _init(self, mu, lam: float, factor: np.ndarray, ridge: float) -> None:
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        for name, value in (("mu", mu), ("lam", lam), ("factor", factor), ("ridge", ridge)):
            object.__setattr__(self, name, value)

    @cached_property
    def sigma(self) -> np.ndarray:
        """F' F + ridge I, built on first read."""
        sigma = self.factor.T.dot(self.factor)
        sigma.flat[:: self.n + 1] += self.ridge
        return _sealed(sigma)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    def _quad(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """F x and x' Sigma x, clipped at zero."""
        fx = self.factor.dot(x)
        return fx, max(float(fx.dot(fx)) + self.ridge * float(x.dot(x)), 0.0)

    def support(self, x: np.ndarray) -> float:
        quad = self._quad(x)[1]
        return float(self.mu.dot(x)) + math.sqrt(self.lam * quad)

    def member(self, x: np.ndarray) -> np.ndarray:
        """mu + sqrt(lam) Sigma x / sqrt(x' Sigma x), or mu where that
        quotient is undefined."""
        fx, quad = self._quad(x)
        if quad > 0 and self.lam > 0:
            sigma_x = self.factor.T.dot(fx) + self.ridge * x
            return self.mu + math.sqrt(self.lam) * sigma_x / math.sqrt(quad)
        return self.mu

    def bound_member(self) -> np.ndarray:
        return self.mu

    def spread(self) -> np.ndarray:
        """sqrt(lam Sigma_ii): Sigma's diagonal from F's column sums of squares."""
        variance = np.einsum("ki,ki->i", self.factor, self.factor) + self.ridge
        return _sealed(np.sqrt(self.lam * np.maximum(variance, 0)))


@dataclass(frozen=True)
class PolyhedronSet:
    """{c >= 0 : V c <= d} in H-representation; emission-only."""

    V: np.ndarray
    d: np.ndarray
    name = "polyhedron"

    def __post_init__(self):
        V = _owned(self.V)
        d = _owned(self.d)
        if V.ndim != 2 or d.shape != (V.shape[0],):
            raise ValueError("V must be m x n and d length m")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.V.shape[1]

    def support(self, *args) -> float:
        raise UnsupportedError("polyhedral sets are emission-only: emit MIP instead")

    member = bound_member = spread = support


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

    Cost on K scenarios over n items: the column mean, min and max take
    O(K n) once per matrix (`ScenarioMatrix` keeps them), after which an
    interval or budgeted set takes O(n).  The hull keeps the first
    occurrence of each distinct point, in scenario order, by hashing
    each row's bytes: O(K n) expected.  The ellipsoid's centred factor
    takes O(K n) once per matrix, and every ellipsoid built from it
    shares that one read-only K x n array, whatever its ridge; it
    evaluates in O(K n) and is PSD by construction.  A negative `ridge`
    is checked against the smallest eigenvalue of the sample
    covariance, which costs an O(K n^2) singular value decomposition
    when K >= n and nothing when K < n (the rank bound makes it 0); a
    non-finite one is rejected.
    """
    if set_type not in LAMBDA_RANGES:
        raise UnsupportedError(f"unknown set type {set_type!r}")
    lo_l, hi_l = LAMBDA_RANGES[set_type]
    if not (lo_l <= lam <= hi_l):
        raise ValueError(
            f"lambda {lam} out of range [{lo_l}, {hi_l}] for {set_type}"
        )
    mu = data.mean

    if set_type in ("interval", "budgeted"):
        lo = mu - lam * (mu - data.col_min)
        hi = mu + lam * (data.col_max - mu)
        if set_type == "interval":
            return IntervalSet(_sealed(lo), _sealed(hi))
        if gamma is None:
            raise ValueError("budgeted set requires gamma")
        return BudgetedSet(_sealed(lo), _sealed(hi), int(gamma))

    if set_type == "hull":
        points = mu[None, :] + lam * (data.costs - mu[None, :])
        first: dict[bytes, int] = {}
        for k, row in enumerate(points + 0.0):  # + 0.0 maps -0.0 to 0.0
            first.setdefault(row.tobytes(), k)
        return HullSet(_sealed(points[list(first.values())]))

    if data.K < 2:
        raise ValueError("ellipsoid requires at least 2 scenarios")
    return EllipsoidSet.from_data(data, lam, ridge)


def worst_case(uset: UncertaintySet, x) -> tuple[float, np.ndarray]:
    """max over the set of c . x and a member attaining it: (value, argmax c)."""
    x = np.asarray(x, dtype=float)
    return uset.support(x), uset.member(x)


@dataclass(frozen=True)
class Mixture:
    """Weighted list of uncertainty sets: the objective is
    sum_j p_j max_{c in U_j} c . x.

    Weights are nonnegative but not required to sum to one.  All
    components have the same item count n.  The solver inputs that do
    not depend on the instance (the bound costs, checked once for the
    nominal oracle, the branching spread and the set types) are
    computed once per mixture, on first use, and shared by every solve.
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
        if len({uset.n for _, uset in comps}) > 1:
            raise ValueError("mixture components must have the same n")
        object.__setattr__(self, "components", tuple(comps))

    @property
    def n(self) -> int:
        return self.components[0][1].n

    @cached_property
    def types(self) -> frozenset[str]:
        """The distinct set types, which `solve_auto` dispatches on."""
        return frozenset(u.name for _, u in self.components)

    def require(self, set_type: str, message: str) -> None:
        """Raise UnsupportedError(message) unless all components are `set_type`."""
        if self.types != {set_type}:
            raise UnsupportedError(message)

    def weighted_sum(self, method: str, *args) -> np.ndarray:
        """sum_j p_j U_j.<method>(*args), summed in index order."""
        total = np.zeros(self.n)
        for weight, uset in self.components:
            total += weight * getattr(uset, method)(*args)
        return total

    @cached_property
    def bound_costs(self) -> np.ndarray:
        """The weighted sum of each set's fixed `bound_member()`: cost . x
        never exceeds the objective."""
        return _sealed(self.weighted_sum("bound_member"))

    @cached_property
    def checked_bound_costs(self):
        """`bound_costs` checked once for `nominal_solve` (`OracleCosts`);
        a solve on an instance of another n raises ValueError."""
        from .instances import check_costs  # instances imports this module

        return check_costs(self.bound_costs, self.n)

    @cached_property
    def branch_spread(self) -> np.ndarray:
        """The weighted sum of each set's per-item `spread()` between
        worst case and bound member; branch-and-bound branches on it."""
        return _sealed(self.weighted_sum("spread"))


# the component keys beyond weight, type and lambda that a set type reads
_EXTRA_KEYS = {"budgeted": ("gamma",), "ellipsoid": ("ridge",)}


def mixture_spec_from_json(text: str) -> list[dict]:
    """Parse the mixture JSON file into a list of component specs.

    A component may hold only `weight`, `type` and `lambda`, plus
    `gamma` when budgeted and `ridge` when an ellipsoid; any other key,
    a misspelt one included, raises ParseError naming it."""
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
        if not isinstance(comp, dict) or "weight" not in comp or "type" not in comp:
            raise ParseError(f"component {i} needs 'weight' and 'type'")
        kind = str(comp["type"])
        read = ("weight", "type", "lambda", *_EXTRA_KEYS.get(kind, ()))
        unread = [key for key in comp if key not in read]
        if unread:
            raise ParseError(f"component {i} key {unread[0]!r} is not read by {kind!r}")
        for key in ("weight", "lambda", "gamma", "ridge"):
            if isinstance(comp.get(key), bool):
                raise ParseError(f"component {i} {key} {comp[key]!r} is not a number")
        try:
            spec = {
                "weight": float(comp["weight"]),
                "type": kind,
                "lambda": float(comp.get("lambda", 0.0)),
            }
            if "gamma" in comp:
                gamma = comp["gamma"]
                if not float(gamma).is_integer():
                    raise ParseError(f"component {i} gamma {gamma!r} is not an integer")
                spec["gamma"] = int(gamma)
            if "ridge" in comp:
                spec["ridge"] = float(comp["ridge"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"component {i} has a non-numeric value: {exc}") from None
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
