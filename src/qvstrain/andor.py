"""Two-level AND-OR formula evaluation: the direct Boolean evaluator and the
reduction that answers it through multi-criterion search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import OracleHandle, TruthTable
from .perceptron import _read_rows
from .search import BEQConfig, SearchOutcome, multi_criterion_search


@dataclass(frozen=True, eq=False)
class AndOrInstance:
    """OR of K AND-blocks of N bits each; bit z[i + j*N] feeds row i of
    block j (column-major against the oracle table)."""

    n_rows: int
    n_cols: int
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.uint8)
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("fan-ins must be positive")
        if z.shape != (self.n_rows * self.n_cols,):
            raise ValueError(
                f"bit string length {z.size} does not match N*K = {self.n_rows * self.n_cols}"
            )
        if not np.isin(z, (0, 1)).all():
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "z", z)

    def as_table(self) -> TruthTable:
        return TruthTable(self.z.reshape(self.n_cols, self.n_rows).T)


def evaluate_direct(inst: AndOrInstance) -> int:
    """Exact Boolean value of the two-level formula."""
    blocks = inst.z.reshape(inst.n_cols, inst.n_rows)
    return int(blocks.all(axis=1).any())


def evaluate_via_search(
    inst: AndOrInstance, cfg: BEQConfig | None = None, rng_seed=None
) -> tuple[int, SearchOutcome]:
    """Wrap the bits as an oracle table and run multi-criterion search;
    Found maps to 1, NotFound to 0.  Correct with probability >= 2/3."""
    outcome = multi_criterion_search(OracleHandle(inst.as_table()), cfg, rng_seed)
    value = int(outcome.found and outcome.index < inst.n_cols)
    return value, outcome


def save_instance(inst: AndOrInstance, path) -> None:
    """Text format: header ``N K`` then the N*K bits as one 0/1 line."""
    with open(path, "w") as fh:
        fh.write(f"{inst.n_rows} {inst.n_cols}\n")
        fh.write("".join(str(int(v)) for v in inst.z) + "\n")


def load_instance(path) -> AndOrInstance:
    def shape(tokens):
        return (int(tokens[0]), int(tokens[1])), 1, 1

    (n, k), (bits,) = _read_rows(path, "N K", shape, lambda fields: [int(c) for c in fields[0]])
    if len(bits) != n * k:
        raise ValueError(f"line 2: expected N*K = {n * k} bits, got {len(bits)}")
    return AndOrInstance(n, k, np.array(bits, dtype=np.uint8))
