"""Classical reference algorithms: the exact sequential version-space scan,
online perceptron training, and the unmetered brute-force column AND."""

from __future__ import annotations

import numpy as np

from .oracles import OracleHandle
from .perceptron import Dataset, _functional_margins
from .search import SearchOutcome


# rows of a column's first read in the classical scan; each later read doubles
SCAN_FIRST_ROWS = 64


def _first_zero(column: np.ndarray) -> int:
    """The row of the first 0 of a 0/1 column, or its length if it is all
    ones.  The column is read in blocks of SCAN_FIRST_ROWS rows, doubling,
    up to the block that holds its first 0 (a block's first 0 is its
    argmin), so the rows read are at most twice the rows up to that 0, plus
    SCAN_FIRST_ROWS."""
    first, rows = 0, SCAN_FIRST_ROWS
    while first < column.size:
        block = column[first : first + rows]
        at = int(block.argmin())
        if not block[at]:
            return first + at
        first, rows = first + rows, 2 * rows
    return column.size


def classical_version_space_search(handle: OracleHandle) -> SearchOutcome:
    """Scan columns left to right, rows top down, leaving a column at its
    first 0 (:func:`_first_zero`); every f lookup is metered as one
    classical query.  A column with no 0 is all ones, N lookups, and ends
    the scan."""
    bits = handle.table.bits
    queries = 0
    index = None
    for j in range(handle.n_cols):
        first = _first_zero(bits[:, j])
        if first == handle.n_rows:
            queries += handle.n_rows
            index = j
            break
        queries += first + 1
    handle.ledger.record("classical_f", queries)
    trials = {"columns_scanned": handle.n_cols if index is None else index + 1}
    return SearchOutcome(index=index, queries={"classical_f": queries}, trials=trials)


def brute_force_g(handle: OracleHandle) -> np.ndarray:
    """Exact column-AND vector over the true table; unmetered test oracle."""
    return handle.table.bits.all(axis=0).astype(np.uint8)


def online_train(
    data: Dataset, max_updates: int, initial: np.ndarray | None = None
) -> np.ndarray | None:
    """Additive-update online training: every point with y (w.x + b) <= 0
    triggers w += y x, b += y; returns the first hyperplane surviving a full
    clean pass, as its row [w | b], or None if the update budget runs out.
    Starts from the zero vector unless the row ``initial`` is given; the
    nonstrict trigger makes the very first point an update from zero and
    guarantees any returned plane strictly separates the data."""
    if max_updates < 1:
        raise ValueError("max_updates must be >= 1")
    X, y = data.X, data.y
    w = initial[:-1].astype(float) if initial is not None else np.zeros(data.dim)
    b = float(initial[-1]) if initial is not None else 0.0
    updates = 0
    while updates <= max_updates:
        clean = True
        for i in range(data.n_points):
            if y[i] * (float(w @ X[i]) + b) <= 0.0:
                w = w + y[i] * X[i]
                b = b + float(y[i])
                updates += 1
                clean = False
                if updates > max_updates:
                    return None
        if clean:
            return np.append(w, b)
    return None


def perceptron_mistake_bound(data: Dataset, separator: np.ndarray) -> float:
    """(R s / gamma)**2 bound on online updates, with R the largest augmented
    point norm, s the augmented norm of the known separator row [w | b] and
    gamma its worst-case functional margin over the data."""
    R = float(np.sqrt((np.linalg.norm(data.X, axis=1) ** 2 + 1.0).max()))
    s = float(np.sqrt(np.linalg.norm(separator[:-1]) ** 2 + separator[-1] ** 2))
    functional = float(np.min(_functional_margins(data, separator)))
    if functional <= 0.0:
        raise ValueError("separator must classify the data with positive margin")
    return (R * s / functional) ** 2
