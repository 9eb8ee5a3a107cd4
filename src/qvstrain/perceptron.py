"""Classical perceptron domain model: labeled data, hyperplanes, margins,
version-space membership, Gaussian candidate sampling and planted datasets.

A :class:`Dataset` is stored as arrays, ``X`` (N, M) float64 and ``y`` (N,)
int64, validated once when it is built.  :func:`generate_planted_dataset`
writes its accepted points straight into those arrays, and the order of its
per-point draws (``random``, ``standard_normal(dim)``, ``random`` on each
try) is the seeded contract: the same seed gives the same dataset bit for
bit.  The tries are drawn in that order into the rows of a block and
evaluated a block at a time with each try's own arithmetic, so the contract
is the one the per-try loop kept (the tests keep that loop as the
reference).  A hyperplane is one (M + 1,) row ``[w | b]``, and a set of K
of them one (K, M + 1) array of such rows.
"""

from __future__ import annotations

import math

import numpy as np

# Planted clusters have radius CLUSTER_RADIUS_FACTOR * gamma; each point gets
# at most MAX_TRIES_PER_POINT rejection-sampling draws, evaluated in blocks of
# at most PLANTED_BLOCK_BYTES of arrays.
CLUSTER_RADIUS_FACTOR = 4.0
MAX_TRIES_PER_POINT = 1000
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
    """Tries per block of :func:`generate_planted_dataset`: the most whose
    arrays, about four dim-vectors and sixteen 8-byte words each, fit in
    PLANTED_BLOCK_BYTES.  Eight of the words are the two lists of Python
    floats (a pointer and a 24-byte float per entry) that the radius goes
    through."""
    return max(1, PLANTED_BLOCK_BYTES // (8 * (4 * dim + 16)))


def _take_accepted(accepted: np.ndarray, streak: int, need: int) -> tuple[np.ndarray, int]:
    """Acceptance bookkeeping of one block of tries.

    ``accepted`` flags the block's tries in draw order, ``streak`` counts the
    rejected tries that ended the blocks before it and ``need`` (>= 1) the
    points still missing.  Returns the indices of the first ``need``
    accepted tries and the streak this block passes on: 0 once the last
    point is found, else the rejected tries since the last acceptance.  It
    raises RuntimeError when one point's tries reach MAX_TRIES_PER_POINT
    rejections in a row, where a per-point loop would give up.

    A try's margin is at least gamma + rho - radius >= gamma, so a try is
    rejected only by rounding: no seeded run reaches the RuntimeError, and
    only the tests cover it."""
    taken = accepted.nonzero()[0][:need]
    done = taken.size == need
    # the rejections before each taken try and, while points are still
    # missing, the ones after the last
    ends = taken if done else np.concatenate((taken, [accepted.size]))
    runs = ends.copy()
    runs[1:] -= ends[:-1] + 1
    runs[0] += streak
    if runs.max() >= MAX_TRIES_PER_POINT:
        raise RuntimeError(
            f"rejection sampling exhausted after {MAX_TRIES_PER_POINT} tries for one point"
        )
    return taken, 0 if done else int(runs[-1])


def generate_planted_dataset(
    n_points: int,
    dim: int,
    gamma: float,
    rng_seed,
) -> tuple[Dataset, np.ndarray]:
    """Dataset labeled by a planted hyperplane, returned as its row
    ``[w | b]`` with unit-norm w, whose geometric margin is at least
    ``gamma``.

    Points form two clusters of radius ``CLUSTER_RADIUS_FACTOR * gamma``
    centered on either side of the plane, then rejection-sampled so that no
    point lies within ``gamma`` of it.  Keeping the cluster spread
    proportional to gamma keeps the Gaussian version-space hit rate scaling
    linearly in gamma with an N-independent constant.

    Each try draws ``random()`` (the cluster), ``standard_normal(dim)`` (the
    direction) and ``random()`` (the radius), in that order, and the first
    ``n_points`` accepted tries are the points.  Tries are drawn into the
    rows of a block (the radius together with the next try's cluster) and
    evaluated a block at a time, with the per-try arithmetic: each row's
    dot products run through BLAS ddot, as ``x.dot(x)`` does, and the
    radius through Python's float pow.  The generator is local, so draws
    past the last needed try change nothing.
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
    directions = np.empty((rows, dim))
    # u[2t] is try t's cluster draw and u[2t + 1] its radius draw, so row t
    # of ``pairs`` holds try t's radius and try t + 1's cluster
    u = np.empty(2 * rows + 1)
    pairs = u[1:].reshape(rows, 2)
    u[0] = random()
    filled = streak = 0
    while filled < n_points:
        tries = min(rows, n_points - filled)
        for t in range(tries):
            normal(out=directions[t])
            random(out=pairs[t])
        d = directions[:tries]
        # stacked (1, M) @ (M, 1) products: one BLAS ddot per row, rounded as
        # x.dot(x) and w @ x round; (d * d).sum(1) and einsum round otherwise
        d /= np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]
        # Python's float pow, as one try computes it
        radius = rho * np.array([v**power for v in u[1 : 2 * tries : 2].tolist()])
        x = centers[(u[: 2 * tries : 2] < 0.5).astype(np.intp)]
        x += radius[:, None] * d
        margin = (x[:, None, :] @ w[:, None])[:, 0, 0] + b
        taken, streak = _take_accepted(np.abs(margin) >= gamma, streak, n_points - filled)
        X[filled : filled + taken.size] = x[taken]
        y[filled : filled + taken.size] = np.where(margin[taken] >= 0, 1, -1)
        filled += taken.size
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
