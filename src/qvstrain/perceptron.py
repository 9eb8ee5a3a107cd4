"""Classical perceptron domain model: labeled data, hyperplanes, margins,
version-space membership, Gaussian candidate sampling and planted datasets.

A :class:`Dataset` is stored as arrays, ``X`` (N, M) float64 and ``y`` (N,)
int64, validated once when it is built.  :func:`generate_planted_dataset`
computes its points in place in those arrays, and the order of its
per-point draws (``random``, ``standard_normal(dim)``, ``random``) is the
seeded contract: the same seed gives the same dataset bit for bit.  Every
point drawn lies at least gamma from the plane, so the N points are the
first N draws.  They are drawn in that order into the rows of a block and
computed a block at a time with each point's own arithmetic, so the
contract is the one a per-point loop keeps (the tests keep that loop as
the reference).  A hyperplane is one (M + 1,) row ``[w | b]``, and a set
of K of them one (K, M + 1) array of such rows.
"""

from __future__ import annotations

import math

import numpy as np

# Planted clusters have radius CLUSTER_RADIUS_FACTOR * gamma; their points
# are computed in blocks of at most PLANTED_BLOCK_BYTES of arrays.
CLUSTER_RADIUS_FACTOR = 4.0
PLANTED_BLOCK_BYTES = 1 << 18


class Dataset:
    """N labeled points held as read-only arrays ``X`` (N, M) float64 and
    ``y`` (N,) int64, plus the margin the data is claimed to have.

    ``Dataset(X, y, claimed_margin)`` keeps its own copies of the arrays and
    runs the one check: at least one point and one dimension M >= 1, ``y``
    of shape (N,), finite coordinates, labels +1 or -1 and a positive
    claimed margin."""

    def __init__(self, X, y, claimed_margin: float):
        self._keep(np.array(X, dtype=np.float64), np.array(y), claimed_margin)

    @classmethod
    def _owning(cls, X: np.ndarray, y: np.ndarray, claimed_margin: float) -> Dataset:
        """The Dataset of arrays its caller has just written and keeps no
        other use of, ``X`` float64 and ``y`` int64: the same check, and
        the arrays are held without a copy."""
        data = cls.__new__(cls)
        data._keep(X, y, claimed_margin)
        return data

    def _keep(self, X: np.ndarray, y: np.ndarray, claimed_margin: float) -> None:
        """Check X, y and the margin, and hold the arrays read-only."""
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
        y = y.astype(np.int64, copy=False)
        X.flags.writeable = y.flags.writeable = False
        self.X, self.y, self.claimed_margin = X, y, claimed_margin

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def _functional_margins(data: Dataset, plane: np.ndarray) -> np.ndarray:
    """y_i (w.x_i + b) for every point, for the row ``plane`` = [w | b]."""
    if plane.shape != (data.dim + 1,):
        raise ValueError("dimension mismatch")
    return data.y * (data.X @ plane[:-1] + plane[-1])


def geometric_margin(data: Dataset, plane: np.ndarray) -> float:
    """min_i y_i (w.x_i + b) / ||w||; positive iff the plane is in the
    version space."""
    wn = float(np.linalg.norm(plane[:-1]))
    if wn == 0.0:
        raise ValueError("zero weight vector has no geometric margin")
    return float(np.min(_functional_margins(data, plane)) / wn)


def in_version_space(data: Dataset, plane: np.ndarray) -> bool:
    """True iff the row ``plane`` = [w | b] classifies every point strictly
    correctly."""
    return bool(np.all(_functional_margins(data, plane) > 0.0))


def sample_hyperplanes(count: int, dim: int, rng_seed) -> np.ndarray:
    """``count`` candidate hyperplanes as one (count, dim + 1) float64 array
    of rows ``[w | b]``: the i.i.d. standard normal draws themselves,
    reproducible bit-exact from the seed."""
    if count < 1 or dim < 1:
        raise ValueError("count and dim must be >= 1")
    return np.random.default_rng(rng_seed).standard_normal((count, dim + 1))


def _check_gamma(gamma: float) -> None:
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")


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


def _planted_block_rows(dim: int) -> int:
    """Points per block of :func:`generate_planted_dataset`: the most for
    which four dim-vectors and sixteen 8-byte words each fit in
    PLANTED_BLOCK_BYTES.  A block computes its points in their own rows of
    ``X``; beyond them it holds one dim-vector per point (the gathered
    cluster centers) and fewer than sixteen words, eight of which are the
    two lists of Python floats (a pointer and a 24-byte float per entry)
    that the radius goes through."""
    return max(1, PLANTED_BLOCK_BYTES // (8 * (4 * dim + 16)))


def generate_planted_dataset(
    n_points: int,
    dim: int,
    gamma: float,
    rng_seed,
) -> tuple[Dataset, np.ndarray]:
    """Dataset labeled by a planted hyperplane, returned as its row
    ``[w | b]`` with unit-norm w, whose geometric margin is at least
    ``gamma``.

    Points are drawn uniformly from two balls of radius
    ``rho = CLUSTER_RADIUS_FACTOR * gamma`` centered at signed distance
    +-(gamma + rho) from the plane, so a point's distance from it is at
    least gamma + rho - radius >= gamma.  Keeping the cluster spread
    proportional to gamma keeps the Gaussian version-space hit rate scaling
    linearly in gamma with an N-independent constant.

    Point i draws ``random()`` (the cluster), ``standard_normal(dim)`` (the
    direction) and ``random()`` (the radius), in that order.  The draws go
    into the rows of a block (the radius together with the next point's
    cluster), and each block is computed in its rows of ``X`` with the
    per-point arithmetic: each row's dot products run through BLAS ddot,
    as ``x.dot(x)`` does, and the radius through Python's float pow.  A
    point within gamma of the plane can come only from rounding; it raises
    RuntimeError rather than return a set whose claimed margin is false.
    """
    if n_points < 1 or dim < 1:
        raise ValueError("n_points and dim must be >= 1")
    _check_gamma(gamma)
    rng = np.random.default_rng(rng_seed)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    b = float(rng.uniform(-0.3, 0.3) * gamma)
    rho = CLUSTER_RADIUS_FACTOR * gamma
    # Cluster centers sit at signed distance +-(gamma + rho) from the plane.
    centers = np.array([(gamma + rho - b) * w, (-(gamma + rho) - b) * w])
    random, normal, power = rng.random, rng.standard_normal, 1.0 / dim
    X = np.empty((n_points, dim))
    y = np.empty(n_points, dtype=np.int64)
    rows = min(n_points, _planted_block_rows(dim))
    # u[2t] is point t's cluster draw and u[2t + 1] its radius draw, so row
    # t of ``pairs`` holds point t's radius and point t + 1's cluster
    u = np.empty(2 * rows + 1)
    pairs = u[1:].reshape(rows, 2)
    u[0] = random()
    for first in range(0, n_points, rows):
        x = X[first : first + rows]
        tries = len(x)
        for t in range(tries):
            normal(out=x[t])
            random(out=pairs[t])
        # stacked (1, M) @ (M, 1) products: one BLAS ddot per row, rounded as
        # x.dot(x) and w @ x round; (x * x).sum(1) and einsum round otherwise
        x /= np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
        # Python's float pow, as one point computes it
        x *= rho * np.array([v**power for v in u[1 : 2 * tries : 2].tolist()])[:, None]
        x += centers[(u[: 2 * tries : 2] < 0.5).astype(np.intp)]
        margin = (x[:, None, :] @ w[:, None])[:, 0, 0] + b
        if not (np.abs(margin) >= gamma).all():
            raise RuntimeError(f"a planted point rounded to within gamma = {gamma} of the plane")
        y[first : first + tries] = np.where(margin >= 0, 1, -1)
        u[0] = u[2 * tries]
    return Dataset._owning(X, y, claimed_margin=gamma), np.append(w, b)


def save_dataset(data: Dataset, path) -> None:
    """Text format: header ``N M gamma``, then one ``x_1 .. x_M y`` line per
    point.  Floats are written with repr precision so a round trip is
    bit-exact."""
    lines = [f"{data.n_points} {data.dim} {data.claimed_margin!r}"]
    for x, label in zip(data.X, data.y):
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
        x, label = [float(v) for v in fields[:-1]], int(fields[-1])
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        if label not in (1, -1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        return x, label

    gamma, rows = _read_rows(path, "N M gamma", shape, point)
    X, y = zip(*rows)
    return Dataset(X, y, claimed_margin=gamma)
