import hypothesis
import numpy as np
import pytest

from qvstrain.oracles import OracleHandle, TruthTable

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")

# 4x3 fixture used throughout: third column all ones, so g = (0, 0, 1) and
# the column sums are (1, 3, 4).
FIXTURE_BITS = np.array(
    [
        [0, 1, 1],
        [0, 1, 1],
        [0, 0, 1],
        [1, 1, 1],
    ],
    dtype=np.uint8,
)


@pytest.fixture
def fixture_table() -> TruthTable:
    return TruthTable(FIXTURE_BITS.copy())


@pytest.fixture
def fixture_handle(fixture_table) -> OracleHandle:
    return OracleHandle(fixture_table)


def random_state_amps(rng, num_qubits: int) -> np.ndarray:
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return amps / np.linalg.norm(amps)


def random_kernel_table(rng, rows: int | None = None, cols: int | None = None) -> OracleHandle:
    """1-16 x 1-8 table (or rows x cols), so rows and columns are often
    padded, with an all-ones and an all-zeros column forced in at random."""
    if rows is None:
        rows, cols = int(rng.integers(1, 17)), int(rng.integers(1, 9))
    bits = (rng.random((rows, cols)) < rng.uniform(0.0, 1.0)).astype(np.uint8)
    if rng.random() < 0.5:
        bits[:, int(rng.integers(0, cols))] = 1
    if rng.random() < 0.5:
        bits[:, int(rng.integers(0, cols))] = 0
    return OracleHandle(TruthTable(bits))
