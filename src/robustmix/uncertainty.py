"""Uncertainty sets, their data-driven builders and the oracle's cost check.

Five families: interval, budgeted (Gamma), convex hull, ellipsoid, and
H-representation polyhedra, which are emission-only.  Each class defines
`support(x)` (max over the set of c . x), a maximizing `member(x)`, the
fixed `bound_member()` and the per-item `spread()`.  Every array a
matrix, set or mixture holds is finite, read-only and its own.
Builders scale around the scenario mean: lambda = 0 is the mean point,
lambda = 1 the observed range for interval and hull sets, and an
ellipsoid's lambda bounds (c - mu)' Sigma^-1 (c - mu).  Its support
drops the side constraint c >= 0, so it is slightly conservative and
its members may have negative entries.
"""

from __future__ import annotations

import csv
import json
import math
import operator
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


def _owned(values, name: str) -> np.ndarray:
    """`values` as a read-only float array that no caller can write to:
    a sealed array that owns its data is kept, anything else a caller
    could write to is copied.  Raises ValueError, naming the array,
    unless every entry is finite."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if not arr.flags.owndata or (arr is values and arr.flags.writeable):
        arr = arr.copy()
    return _sealed(arr)


@dataclass(frozen=True)
class ScenarioMatrix:
    """K observed cost vectors over n items (K rows, n columns).  Raises
    ValueError unless the costs are 2-D, finite and nonnegative, with
    at least one row and one column."""

    costs: np.ndarray

    def __post_init__(self):
        costs = _owned(self.costs, "scenario costs")
        if costs.ndim != 2:
            raise ValueError("scenario matrix must be 2-D")
        if costs.shape[0] == 0:
            raise ValueError("empty scenario pool: no scenario rows")
        if costs.shape[1] == 0:
            raise ValueError("scenario matrix has no columns")
        if np.any(costs < 0):
            raise ValueError("scenario costs must be nonnegative")
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
    def spread_down(self) -> np.ndarray:
        """How far each column's mean lies above its minimum."""
        return _sealed(self.mean - self.costs.min(axis=0))

    @cached_property
    def spread_up(self) -> np.ndarray:
        """How far each column's maximum lies above its mean."""
        return _sealed(self.costs.max(axis=0) - self.mean)

    @cached_property
    def factor(self) -> np.ndarray:
        """(costs - mean) / sqrt(K - 1): the K x n factor F whose F' F is
        the sample covariance.  Needs K >= 2."""
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
        """Parse the scenario CSV: header arc_0,...,arc_{n-1}, then rows of
        n comma-separated entries, each `"`-quoted or not and read bit for
        bit as `float()` reads it (no digit-group underscores or non-ASCII
        digits).  Lines end in LF or CRLF; empty ones are skipped.  Raises
        ParseError on an empty file, a wrong header, no rows, a row of
        another length or a bad entry, and ValueError on a non-finite or
        negative cost."""
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
        try:  # a list of lines: an io.StringIO copy takes 4 bytes a character
            data = np.loadtxt(
                body.split("\n"), delimiter=",", quotechar='"', comments=None, ndmin=2
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
        """The CSV `from_csv` reads: the header, then one line per scenario
        with each cost as `f"{v:.6f}"`.  Rows go out in blocks of about
        CSV_BLOCK_ENTRIES costs, each formatted by numpy unless it holds a
        cost of 2**33 or more or a -0.0; such a block takes `%.6f`."""
        parts = [",".join(f"arc_{i}" for i in range(self.n)), "\n"]
        row_format = ",".join(["%.6f"] * self.n) + "\n"
        step = max(1, CSV_BLOCK_ENTRIES // self.n)
        for start in range(0, self.K, step):
            block = self.costs[start:start + step]
            if (block >= _EXACT_BELOW).any() or np.signbit(block).any():
                parts.extend(row_format % tuple(row) for row in block.tolist())
            else:
                parts.append(_csv_lines(block))
        return "".join(parts)


# ScenarioMatrix.to_csv formats this many costs per numpy block.  Its
# temporaries grow with the block, so the block size bounds the memory
# the writer adds to a large matrix.
CSV_BLOCK_ENTRIES = 16384
# Below 2**33 a cost times 10**6 stays below 2**53, so `_micros` is exact.
_EXACT_BELOW = 2.0**33
_VELTKAMP = 2.0**27 + 1.0


def _micros(v: np.ndarray) -> np.ndarray:
    """round(v * 10**6) of the exact product, half to even, as int64, for
    0 <= v < 2**33.  The float product p rounds like the exact one except
    where p is itself half an integer; there the sign of its Dekker
    two-product error decides (10**6 needs no split: its low part is 0)."""
    p = v * 1e6
    units = np.rint(p)
    ties = np.flatnonzero(np.abs(p - units) == 0.5)
    if ties.size:
        t, pt = v[ties], p[ties]
        c = t * _VELTKAMP
        hi = c - (c - t)
        err = (hi * 1e6 - pt) + (t - hi) * 1e6  # the exact v * 10**6 - p
        units[ties] = np.where(err > 0, np.ceil(pt), np.where(err < 0, np.floor(pt), units[ties]))
    return units.astype(np.int64)


def _put_digits(cols: np.ndarray, values: np.ndarray, keep_zeros: bool):
    """Write `values` in decimal, right-aligned, into the uint8 columns
    `cols`, which are wide enough.  Unless `keep_zeros`, a leading zero
    (any but the last column) becomes a NUL byte."""
    for j in range(cols.shape[1] - 1, -1, -1):
        rest = values // 10
        digit = (values - rest * 10).astype(np.uint8) + ord("0")
        if not keep_zeros and j < cols.shape[1] - 1:
            digit[values == 0] = 0
        cols[:, j] = digit
        values = rest


def _csv_lines(block: np.ndarray) -> str:
    """The rows of `block` as CSV lines with each cost as `f"{v:.6f}"`,
    for costs in [0, 2**33) and no -0.0: each cost is written into a
    fixed-width byte row padded with NUL bytes, which are then dropped."""
    micros = _micros(block.ravel())
    whole = micros // 1000000
    width = len(str(int(whole.max())))
    text = np.empty((micros.size, width + 8), np.uint8)
    _put_digits(text[:, :width], whole, False)
    text[:, width] = ord(".")
    # uint32 divides by 10 faster than int64.
    _put_digits(text[:, width + 1:-1], (micros - whole * 1000000).astype(np.uint32), True)
    text[:, -1] = ord(",")
    text.reshape(*block.shape, -1)[:, -1, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")


@dataclass(frozen=True)
class _Box:
    """Componentwise bounds lo <= hi, shared by the interval and budgeted
    families.  Raises ValueError unless lo and hi are finite 1-D vectors
    of one length with lo <= hi + 1e-12."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _owned(self.lo, "lo")
        hi = _owned(self.hi, "hi")
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be 1-D vectors of equal length")
        if np.any(lo > hi + 1e-12):
            raise ValueError(f"{self.name} set requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        self._check_fields()

    @classmethod
    def from_data(cls, data: ScenarioMatrix, lam: float, **fields):
        """The box [mu - lam (mu - colmin), mu + lam (colmax - mu)] around
        the data's column means mu; `fields` sets the fields beyond lo and
        hi (a budgeted gamma).  Raises ValueError unless lam is finite and
        nonnegative, or on an invalid field."""
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(f"lambda {lam} must be finite and nonnegative")
        mu = data.mean
        self = cls.__new__(cls)
        # No lo <= hi check: rounding is monotone, so mu - colmin >=
        # mu - colmax holds as computed, and scaling by lam >= 0 and adding
        # mu keep the order, even where the mean is rounded out of range.
        object.__setattr__(self, "lo", _sealed(mu - lam * data.spread_down))
        object.__setattr__(self, "hi", _sealed(mu + lam * data.spread_up))
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        self._check_fields()
        return self

    def _check_fields(self) -> None:
        """Check the fields beyond lo and hi; a plain box has none."""

    @property
    def n(self) -> int:
        return self.lo.shape[0]


@dataclass(frozen=True)
class IntervalSet(_Box):
    name = "interval"

    def support(self, x: np.ndarray) -> float:
        # ndarray.dot here and below: @ is the same, with more call overhead
        return float(self.hi.dot(x))

    def member(self, x: np.ndarray) -> np.ndarray:
        return self.hi  # the worst case for every x: the bound is tight

    def bound_member(self) -> np.ndarray:
        return self.hi

    def spread(self) -> np.ndarray:
        return np.zeros(self.n)


@dataclass(frozen=True)
class BudgetedSet(_Box):
    """A box of which at most gamma items leave lo; gamma is an integer in [0, n]."""

    gamma: int
    name = "budgeted"

    def _check_fields(self) -> None:
        try:
            operator.index(self.gamma)
        except TypeError:
            raise ValueError(f"gamma {self.gamma!r} must be an integer") from None
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
        points = _owned(self.points, "hull points")
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

    def bound_member(self) -> np.ndarray:
        """The centre: the mean of the points."""
        return self.points.mean(axis=0)

    def spread(self) -> np.ndarray:
        return _sealed(self.points.max(axis=0) - self.points.min(axis=0))


_PSD_TOL = 1e-9


def _check_psd(smallest: float) -> None:
    """Reject a covariance whose smallest eigenvalue is below -1e-9."""
    if not smallest >= -_PSD_TOL:  # NaN fails too
        raise ValueError("sigma must be positive semidefinite")


@dataclass(frozen=True)
class EllipsoidSet:
    """{mu + sqrt(lam) Sigma^(1/2) u : |u| <= 1}, Sigma = F' F + ridge I
    for a read-only factor F.  `EllipsoidSet(mu, sigma, lam)` raises
    ValueError unless lam >= 0 and mu are finite and sigma is an n x n
    finite matrix, symmetric within 1e-9 and PSD (smallest eigenvalue at least
    -1e-9)."""

    mu: np.ndarray
    lam: float
    factor: np.ndarray
    ridge: float
    name = "ellipsoid"

    def __init__(self, mu, sigma, lam: float):
        mu = _owned(mu, "mu")
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
        variance).  Raises ValueError on fewer than 2 scenarios, a
        non-finite ridge, a negative one that leaves the sum not PSD, or
        a lam that is negative or not finite."""
        if data.K < 2:
            raise ValueError("ellipsoid requires at least 2 scenarios")
        if ridge is not None and not np.isfinite(ridge):
            raise ValueError(f"ridge {ridge!r} must be finite")
        factor = data.factor
        shift = data._default_ridge if ridge is None else float(ridge)
        if shift < 0:
            smallest = 0.0  # the sample covariance is singular when K < n
            if data.K >= data.n:
                smallest = float(np.linalg.svd(factor, compute_uv=False).min()) ** 2
            _check_psd(smallest + shift)
        self = cls.__new__(cls)
        self._init(data.mean, lam, factor, shift)
        return self

    def _init(self, mu, lam: float, factor: np.ndarray, ridge: float) -> None:
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(f"lambda must be nonnegative and finite: {lam!r}")
        for name, value in (("mu", mu), ("lam", lam), ("factor", factor), ("ridge", ridge)):
            object.__setattr__(self, name, value)

    @cached_property
    def sigma(self) -> np.ndarray:
        """Sigma as an n x n array, built on first read."""
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
    """{c >= 0 : V c <= d} in H-representation.  Emission-only: its set
    methods raise UnsupportedError."""

    V: np.ndarray
    d: np.ndarray
    name = "polyhedron"

    def __post_init__(self):
        V = _owned(self.V, "V")
        d = _owned(self.d, "d")
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
    """A lambda-scaled uncertainty set from scenario data.

    interval:  [mu - lam (mu - colmin), mu + lam (colmax - mu)]
    hull:      {mu + lam (c^k - mu)}, each distinct point once, in order
    budgeted:  interval bounds plus a deviation budget `gamma`
    ellipsoid: `EllipsoidSet.from_data` with `ridge`

    Raises UnsupportedError on an unknown type, and ValueError on a
    lambda outside `LAMBDA_RANGES`, a budgeted set without a valid
    gamma, an ellipsoid from fewer than 2 scenarios or a bad ridge."""
    if set_type not in LAMBDA_RANGES:
        raise UnsupportedError(f"unknown set type {set_type!r}")
    lo_l, hi_l = LAMBDA_RANGES[set_type]
    if not (lo_l <= lam <= hi_l):
        raise ValueError(
            f"lambda {lam} out of range [{lo_l}, {hi_l}] for {set_type}"
        )
    if set_type == "interval":
        return IntervalSet.from_data(data, lam)
    if set_type == "budgeted":
        if gamma is None:
            raise ValueError("budgeted set requires gamma")
        return BudgetedSet.from_data(data, lam, gamma=gamma)

    mu = data.mean
    if set_type == "hull":
        points = mu[None, :] + lam * (data.costs - mu[None, :])
        first: dict[bytes, int] = {}
        # + 0.0 maps -0.0 to 0.0, so points equal in value hash equal
        for k, row in enumerate(points + 0.0):
            first.setdefault(row.tobytes(), k)
        return HullSet(_sealed(points[list(first.values())]))

    return EllipsoidSet.from_data(data, lam, ridge)


def worst_case(uset: UncertaintySet, x) -> tuple[float, np.ndarray]:
    """max over the set of c . x and a member attaining it: (value, argmax c)."""
    x = np.asarray(x, dtype=float)
    return uset.support(x), uset.member(x)


@dataclass(frozen=True)
class OracleCosts:
    """A cost vector checked once by `check_costs` for the nominal oracle:
    its n finite costs as Python floats, and whether none is negative."""

    n: int
    values: tuple[float, ...]
    nonnegative: bool


def _check_finite(costs: np.ndarray) -> bool:
    """Raise ValueError unless every cost is finite; return whether none
    is negative."""
    if costs.size == 0:
        return True
    lo, hi = float(costs.min()), float(costs.max())  # a NaN makes both NaN
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError("costs must be finite")
    return lo >= 0


def check_costs(costs, n: int) -> OracleCosts:
    """A copy of the length-n cost vector `costs`, checked for the nominal
    oracle.  Raises ValueError on another length or a non-finite cost;
    negative costs are recorded, not rejected."""
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (n,):
        raise ValueError(f"costs length {costs.shape} does not match n={n}")
    return OracleCosts(n, tuple(costs.tolist()), _check_finite(costs))


@dataclass(frozen=True)
class Mixture:
    """Weighted uncertainty sets; the objective is
    sum_j p_j max_{c in U_j} c . x.  Raises ValueError on no component,
    a weight that is negative or not finite (weights need not sum to
    one), or components of different n."""

    components: tuple[tuple[float, UncertaintySet], ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("mixture needs at least one component")
        comps = []
        for weight, uset in self.components:
            w = float(weight)
            if not (math.isfinite(w) and w >= 0):
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
    def checked_bound_costs(self) -> OracleCosts:
        """`bound_costs` checked for the nominal oracle."""
        return check_costs(self.bound_costs, self.n)

    @cached_property
    def branch_rank(self) -> tuple[int, ...]:
        """Each item's place in branch-and-bound's branching order: the
        largest weighted sum of each set's per-item `spread()` between
        worst case and bound member first, then the smaller index."""
        order = np.argsort(-self.weighted_sum("spread"), kind="stable")
        rank = np.empty(self.n, dtype=np.intp)
        rank[order] = np.arange(self.n)
        return tuple(rank.tolist())


# the component keys beyond weight, type and lambda that a set type reads
_EXTRA_KEYS = {"budgeted": ("gamma",), "ellipsoid": ("ridge",)}


def mixture_spec_from_json(text: str) -> list[dict]:
    """The component specs of a mixture JSON file.  A component may hold
    only `weight`, `type` and `lambda`, plus `gamma` when budgeted and
    `ridge` when an ellipsoid.  Raises ParseError on invalid JSON, any
    other key, a missing weight or type, or a value of the wrong kind."""
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
    """The mixture JSON file that `mixture_spec_from_json` reads."""
    return json.dumps({"components": specs}, indent=2) + "\n"


def build_mixture(specs: list[dict], data: ScenarioMatrix) -> Mixture:
    """The `Mixture` of component specs built on `data` (`build_set`)."""
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
