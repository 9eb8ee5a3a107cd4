"""Classical perceptron domain model: labeled data, hyperplanes, margins,
version-space membership, Gaussian candidate sampling and planted datasets.

A :class:`Dataset` is stored as arrays, ``X`` (N, M) float64 and ``y`` (N,)
int64, validated once when it is built; :class:`DataPoint` is the per-point
view for callers that want one.  :func:`generate_planted_dataset` writes its
accepted points straight into those arrays, and the order of its per-point
draws (``random``, ``standard_normal(dim)``, ``random`` on each try) is the
seeded contract: the same seed gives the same dataset bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Planted clusters have radius CLUSTER_RADIUS_FACTOR * gamma; each point gets
# at most MAX_TRIES_PER_POINT rejection-sampling draws.
CLUSTER_RADIUS_FACTOR = 4.0
MAX_TRIES_PER_POINT = 1000


@dataclass(frozen=True, eq=False)
class DataPoint:
    x: np.ndarray
    y: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1 or x.size < 1:
            raise ValueError("x must be a nonempty vector")
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        if self.y not in (+1, -1):
            raise ValueError(f"label must be +1 or -1, got {self.y}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", int(self.y))


@dataclass(frozen=True, eq=False)
class Hyperplane:
    w: np.ndarray
    b: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        b = float(self.b)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("w must be a nonempty vector")
        if not (np.isfinite(w).all() and math.isfinite(b)):
            raise ValueError("hyperplane entries must be finite")
        if not (w.any() or b != 0.0):
            raise ValueError("(w, b) must not be the zero vector")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.w.size


class Dataset:
    """N labeled points held as read-only arrays ``X`` (N, M) float64 and
    ``y`` (N,) int64, plus the margin the data is claimed to have.

    ``Dataset(points, claimed_margin)`` stacks a list of :class:`DataPoint`;
    :meth:`from_arrays` takes the arrays.  Both run the one check in
    :meth:`_set`: at least one point, one dimension M >= 1 shared by all,
    finite coordinates, labels +1 or -1 and a positive claimed margin."""

    def __init__(self, points, claimed_margin: float):
        points = list(points)
        if not points:
            raise ValueError("dataset needs at least one point")
        dims = {p.x.size for p in points}
        if len(dims) != 1:
            raise ValueError(f"points have mixed dimensions: {sorted(dims)}")
        self._set(np.stack([p.x for p in points]), np.array([p.y for p in points]),
                  claimed_margin)

    @classmethod
    def from_arrays(cls, X, y, claimed_margin: float) -> Dataset:
        data = cls.__new__(cls)
        data._set(X, y, claimed_margin)
        return data

    def _set(self, X, y, claimed_margin: float) -> None:
        X = np.array(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"X must be a nonempty (N, M) array, got shape {X.shape}")
        if y.shape != X.shape[:1]:
            raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
        if not np.isfinite(X).all():
            raise ValueError("x must be finite")
        if not ((y == 1) | (y == -1)).all():
            raise ValueError("labels must be +1 or -1")
        if not (claimed_margin > 0):
            raise ValueError("claimed_margin must be positive")
        y = y.astype(np.int64)
        X.flags.writeable = y.flags.writeable = False
        self.X, self.y, self.claimed_margin = X, y, claimed_margin

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def points(self) -> list[DataPoint]:
        """One :class:`DataPoint` per row, built on each access."""
        return [DataPoint(x, int(label)) for x, label in zip(self.X, self.y)]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored (X, y), X of shape (N, M) and y of shape (N,)."""
        return self.X, self.y


def classify(p: Hyperplane, x) -> int:
    """sgn(w.x + b) with the boundary mapped to +1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != p.w.shape:
        raise ValueError(f"dimension mismatch: plane {p.w.shape}, point {x.shape}")
    return +1 if float(p.w @ x) + p.b >= 0.0 else -1


def correctly_classifies(p: Hyperplane, d: DataPoint) -> bool:
    """Strict condition (w.x + b) y > 0; boundary points never count."""
    if d.x.shape != p.w.shape:
        raise ValueError("dimension mismatch")
    return (float(p.w @ d.x) + p.b) * d.y > 0.0


def geometric_margin(data: Dataset, p: Hyperplane) -> float:
    """min_i y_i (w.x_i + b) / ||w||; positive iff p is in the version space."""
    wn = float(np.linalg.norm(p.w))
    if wn == 0.0:
        raise ValueError("zero weight vector has no geometric margin")
    X, y = data.as_arrays()
    if X.shape[1] != p.dim:
        raise ValueError("dimension mismatch")
    return float(np.min(y * (X @ p.w + p.b)) / wn)


def in_version_space(data: Dataset, p: Hyperplane) -> bool:
    """True iff p classifies every point strictly correctly."""
    X, y = data.as_arrays()
    if X.shape[1] != p.dim:
        raise ValueError("dimension mismatch")
    return bool(np.all(y * (X @ p.w + p.b) > 0.0))


def sample_hyperplanes(count: int, dim: int, rng_seed) -> list[Hyperplane]:
    """``count`` hyperplanes with i.i.d. standard normal entries in R^(dim+1),
    reproducible bit-exact from the seed."""
    if count < 1 or dim < 1:
        raise ValueError("count and dim must be >= 1")
    rng = np.random.default_rng(rng_seed)
    draws = rng.standard_normal((count, dim + 1))
    return [Hyperplane(row[:dim], float(row[dim])) for row in draws]


def required_sample_count(gamma: float, epsilon: float, c: float = 2.0) -> int:
    """K = ceil(c * ln(1/epsilon) / gamma), at least 1."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and positive, got {c}")
    bound = c * math.log(1.0 / epsilon) / gamma
    if not math.isfinite(bound):
        raise ValueError(f"c ln(1/eps) / gamma overflows at c = {c}")
    return max(1, math.ceil(bound))


def generate_planted_dataset(
    n_points: int,
    dim: int,
    gamma: float,
    rng_seed,
) -> tuple[Dataset, Hyperplane]:
    """Dataset labeled by a planted unit-norm hyperplane whose geometric
    margin is at least ``gamma``.

    Points form two clusters of radius ``CLUSTER_RADIUS_FACTOR * gamma``
    centered on either side of the plane, then rejection-sampled so that no
    point lies within ``gamma`` of it.  Keeping the cluster spread
    proportional to gamma keeps the Gaussian version-space hit rate scaling
    linearly in gamma with an N-independent constant.

    Each try draws ``random()`` (the cluster), ``standard_normal(dim)`` (the
    direction) and ``random()`` (the radius), in that order; accepted points
    go straight into the returned arrays.
    """
    if n_points < 1 or dim < 1:
        raise ValueError("n_points and dim must be >= 1")
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    rng = np.random.default_rng(rng_seed)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    b = float(rng.uniform(-0.3, 0.3) * gamma)
    rho = CLUSTER_RADIUS_FACTOR * gamma
    # Cluster centers sit at signed distance +-(gamma + rho) from the plane.
    centers = ((gamma + rho - b) * w, (-(gamma + rho) - b) * w)
    random, normal, power = rng.random, rng.standard_normal, 1.0 / dim
    X = np.empty((n_points, dim))
    y = np.empty(n_points, dtype=np.int64)
    for i in range(n_points):
        for _ in range(MAX_TRIES_PER_POINT):
            center = centers[int(random() < 0.5)]
            direction = normal(dim)
            # the ddot and rounded sqrt np.linalg.norm runs on a float vector
            direction /= math.sqrt(direction.dot(direction))
            radius = rho * random() ** power
            x = center + radius * direction
            margin = float(w @ x) + b
            if abs(margin) >= gamma:
                X[i] = x
                y[i] = +1 if margin >= 0 else -1
                break
        else:
            raise RuntimeError(
                f"rejection sampling exhausted after {MAX_TRIES_PER_POINT} tries; "
                f"gamma={gamma} is infeasible for this geometry"
            )
    return Dataset.from_arrays(X, y, claimed_margin=gamma), Hyperplane(w, b)


def save_dataset(data: Dataset, path) -> None:
    """Text format: header ``N M gamma``, then one ``x_1 .. x_M y`` line per
    point.  Floats are written with repr precision so a round trip is
    bit-exact."""
    lines = [f"{data.n_points} {data.dim} {data.claimed_margin!r}"]
    for x, label in zip(*data.as_arrays()):
        coords = " ".join(repr(float(v)) for v in x)
        lines.append(f"{coords} {int(label):d}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_rows(path, header: str, shape, parse_row):
    """Strict reader of the package's text formats: the ``header`` line,
    exactly the rows ``shape(header tokens) = (value, rows, fields per row)``
    declares, each parsed by ``parse_row``, then only blank lines.  Returns
    ``(value, parsed rows)``; a defect raises a ValueError naming its line."""
    with open(path) as fh:
        lines = [line.split() for line in fh.read().splitlines()] or [[]]
    line = 1
    try:
        if len(lines[0]) != len(header.split()):
            raise ValueError(f"header must be '{header}'")
        value, count, width = shape(lines[0])
        if count < 1 or width < 1:
            raise ValueError(f"the counts in '{header}' must be positive")
        rows = []
        for line in range(2, count + 2):
            if line > len(lines):
                raise ValueError(f"missing row {line - 1} of {count}")
            if len(lines[line - 1]) != width:
                raise ValueError(f"expected {width} fields, got {len(lines[line - 1])}")
            rows.append(parse_row(lines[line - 1]))
        for line in range(count + 2, len(lines) + 1):
            if lines[line - 1]:
                raise ValueError(f"content after the {count} declared rows")
    except ValueError as exc:
        raise ValueError(f"line {line}: {exc}") from None
    return value, rows


def load_dataset(path) -> Dataset:
    def shape(tokens):
        return float(tokens[2]), int(tokens[0]), int(tokens[1]) + 1

    def point(fields):
        return DataPoint(np.array([float(v) for v in fields[:-1]]), int(fields[-1]))

    gamma, points = _read_rows(path, "N M gamma", shape, point)
    return Dataset(points, claimed_margin=gamma)
