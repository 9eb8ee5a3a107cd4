"""Two-level AND-OR formula evaluation: the direct Boolean evaluator and the
reduction that answers it through multi-criterion search.

An instance is the OR of K AND-blocks of N bits each, held as the N x K
:class:`~qvstrain.oracles.TruthTable` whose column j is AND-block j; its
bit string z lists the table column by column, z[i + j*N] = bits[i, j]."""

from __future__ import annotations

import numpy as np

from .oracles import OracleHandle, TruthTable, _bit_row
from .perceptron import _read_rows
from .search import SearchOutcome, multi_criterion_search


def table_from_blocks(n_rows: int, n_cols: int, z) -> TruthTable:
    """The N x K table of the column-major bit string z (length N*K)."""
    return TruthTable(np.asarray(z, dtype=np.uint8).reshape(n_cols, n_rows).T)


def evaluate_direct(table: TruthTable) -> int:
    """Exact Boolean value of the two-level formula."""
    return int(table.bits.all(axis=0).any())


def evaluate_via_search(table: TruthTable, rng_seed=None) -> tuple[int, SearchOutcome]:
    """Run multi-criterion search over the table; Found maps to 1, NotFound
    to 0.  Correct with probability >= 2/3."""
    outcome = multi_criterion_search(OracleHandle(table), rng_seed)
    return int(outcome.found), outcome


def save_instance(table: TruthTable, path) -> None:
    """Text format: header ``N K`` then the N*K bits of z as one 0/1 line."""
    with open(path, "w") as fh:
        fh.write(f"{table.n_rows} {table.n_cols}\n")
        fh.write("".join(str(int(v)) for v in table.bits.T.ravel()) + "\n")


def load_instance(path) -> TruthTable:
    def shape(tokens):
        return (int(tokens[0]), int(tokens[1])), 1, 1

    (n, k), (bits,) = _read_rows(path, "N K", shape, lambda fields: _bit_row(fields[0]))
    if n < 1 or k < 1:
        raise ValueError("line 1: N and K must be positive")
    if len(bits) != n * k:
        raise ValueError(f"line 2: expected N*K = {n * k} bits, got {len(bits)}")
    return table_from_blocks(n, k, bits)
