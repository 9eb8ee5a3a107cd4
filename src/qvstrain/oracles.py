"""The Boolean classification matrix f(i, j), its quantum bit- and
phase-oracle forms, and the query ledger that every complexity claim is
stated in.

Non-power-of-two tables are padded up to full registers: padded data rows
read f = 1 inside real columns (a phantom point must never block a column's
AND) and padded hyperplane columns read f = 0 everywhere (a phantom plane
must never look like a solution).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .perceptron import Dataset, _read_rows
from .statevec import RegisterLayout, StateVector, _bits, _check_qubits

LEDGER_TAGS = ("bit_oracle", "phase_oracle", "controlled_phase_oracle", "classical_f")

# amplitudes per batch of basis states in controlled_phase_oracle_identity_gap:
# 512 KiB, the whole buffer the check reuses for every batch of a table
GAP_BLOCK_AMPS = 1 << 15


@dataclass
class QueryLedger:
    """Monotone counters of oracle invocations.  ``bit_oracle`` is the
    universal currency: a phase-oracle call under c control qubits costs
    2**c bit queries (1 plain, 2 singly controlled), and every such call is
    charged through :meth:`charge`; ``record`` is left to the literal
    bit-oracle constructions, the classical baselines and the search's
    flush of its run ledger.

    Every charge is made where an algorithm logically runs a circuit: the
    gate-level oracles here per call (per row of a batch), and through them
    the Grover steps, phase estimation and ``sim_and`` of
    :mod:`qvstrain.counting`; ``quantum_count`` per shot;
    the search per iteration and per verification shot.  Amplitude kernels
    and exact diagnostics never charge."""

    bit_oracle: int = 0
    phase_oracle: int = 0
    controlled_phase_oracle: int = 0
    classical_f: int = 0

    def record(self, tag: str, times: int = 1) -> None:
        if times < 0:
            raise ValueError("ledger only counts forward")
        setattr(self, tag, getattr(self, tag) + times)

    def charge(self, calls: int, controls: int = 0) -> None:
        """``calls`` phase-oracle calls under ``controls`` control qubits,
        under ``phase_oracle`` (no control) or ``controlled_phase_oracle``,
        plus ``calls * 2**controls`` bit queries."""
        self.record("controlled_phase_oracle" if controls else "phase_oracle", calls)
        self.record("bit_oracle", calls << controls)

    def snapshot(self) -> dict[str, int]:
        return {tag: getattr(self, tag) for tag in LEDGER_TAGS}


class TruthTable:
    """N x K matrix over {0, 1}; rows index data elements, columns index
    hyperplanes."""

    def __init__(self, bits):
        arr = np.asarray(bits)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("truth table must be a nonempty 2-D array")
        # checked before the cast, which would truncate 0.5 and reject -1
        # with an OverflowError; bool needs no check, uint8 only its maximum
        if arr.dtype == np.uint8:
            bad = arr.max() > 1
        else:
            bad = arr.dtype != np.bool_ and not ((arr == 0) | (arr == 1)).all()
        if bad:
            raise ValueError("truth table entries must be 0 or 1")
        self.bits = arr.astype(np.uint8, copy=False)

    @property
    def n_rows(self) -> int:
        return self.bits.shape[0]

    @property
    def n_cols(self) -> int:
        return self.bits.shape[1]

    def __eq__(self, other):
        return isinstance(other, TruthTable) and np.array_equal(self.bits, other.bits)


def from_perceptron(data: Dataset, planes: np.ndarray) -> TruthTable:
    """bits[i][j] = 1 iff plane j strictly correctly classifies point i, for
    ``planes`` the (K, M + 1) array of rows ``[w | b]``, in one product."""
    if planes.ndim != 2 or planes.shape[0] < 1:
        raise ValueError("need at least one hyperplane")
    if planes.shape[1] != data.dim + 1:
        raise ValueError("hyperplane dimension does not match the data")
    margins = data.y[:, None] * (data.X @ planes[:, :-1].T + planes[:, -1])
    return TruthTable(margins > 0.0)


def save_truth_table(table: TruthTable, path) -> None:
    """Text format: header ``N K`` then N rows of K space-separated bits."""
    with open(path, "w") as fh:
        fh.write(f"{table.n_rows} {table.n_cols}\n")
        for row in table.bits:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def _bit_row(fields) -> list[int]:
    """The bits of one line of a table or instance file, each field or
    character 0 or 1, else a ValueError that the reader prefixes with the
    line."""
    row = [int(v) for v in fields]
    if not set(row) <= {0, 1}:
        raise ValueError("truth table entries must be 0 or 1")
    return row


def load_truth_table(path) -> TruthTable:
    _, rows = _read_rows(path, "N K", lambda t: (None, int(t[0]), int(t[1])), _bit_row)
    return TruthTable(rows)


def _ceil_log2(x: int) -> int:
    return max(0, (x - 1).bit_length())


def _padded_f(tables: list[TruthTable], f: np.ndarray) -> np.ndarray:
    """The 0/1 classification matrices of tables padded to (2**n, 2**k),
    written over every entry of ``f``, a (T, 2**n, 2**k) float64 C array,
    and returned as its (T, 2**k, 2**n) transpose: f[t, j, i] = f(i, j) of
    table t, with phantom rows 1 in real columns and phantom columns 0."""
    for t, table in enumerate(tables):
        f[t, : table.n_rows, : table.n_cols] = table.bits
        f[t, table.n_rows :, : table.n_cols] = 1.0
        f[t, :, table.n_cols :] = 0.0
    return f.transpose(0, 2, 1)


def _column_counts(handle: OracleHandle, j: int | None = None) -> np.ndarray:
    """The f = 1 rows of every column of the handle's padded f, (2**k,)
    float64, from the table's bits: a real column's ones plus the phantom
    rows, and 0 for a phantom column.  With ``j``, column j's count alone,
    (1,), from that column of the bits.  Bits are summed as float64 into
    the counts (exact for 0/1), so no per-column temporary is held."""
    bits = handle.table.bits if j is None else handle.table.bits[:, j : j + 1]
    counts = np.zeros(1 << handle.k if j is None else 1)
    real = counts[: bits.shape[1]]
    bits.sum(axis=0, dtype=np.float64, out=real)
    real += (1 << handle.n) - handle.n_rows
    return counts


class OracleHandle:
    """A truth table bound to a query ledger, and ``f[j, i] = f(i, j)`` over
    the padded registers (:func:`_padded_f`), (2**k, 2**n) float64, built on
    first read: only the gate engine reads it."""

    def __init__(self, table: TruthTable):
        self.table = table
        self.ledger = QueryLedger()
        self.n = _ceil_log2(table.n_rows)
        self.k = _ceil_log2(table.n_cols)

    @cached_property
    def f(self) -> np.ndarray:
        return _padded_f([self.table], np.empty((1, 1 << self.n, 1 << self.k)))[0]

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @property
    def n_cols(self) -> int:
        return self.table.n_cols

    def layout(self, l: int = 0, scratch: bool = False) -> RegisterLayout:
        return RegisterLayout(self.n, self.k, l, 1 if scratch else 0)


def _check_table_layout(layout: RegisterLayout, handle: OracleHandle) -> None:
    if layout.n != handle.n or layout.k != handle.k:
        raise ValueError(
            f"layout registers ({layout.n}, {layout.k}) do not match the "
            f"padded table ({handle.n}, {handle.k})"
        )


def _rows(state: StateVector) -> int:
    """States held: 1, or the rows of a batch."""
    return state.amps.size >> state.num_qubits


def _sign_tensor(handle: OracleHandle) -> np.ndarray:
    """(-1)**f(i, j), formed per call from the handle's f, with one axis
    per plane and data qubit, highest first, so it broadcasts against the
    trailing axes of a :func:`_bits` view."""
    return (1.0 - 2.0 * handle.f).reshape((2,) * (handle.n + handle.k))


def _swap_indices(state: StateVector, layout: RegisterLayout, handle: OracleHandle):
    """The bit oracle's swap as (scatter, gather) indices into the (rows,
    2**q) view: the basis indices with the scratch bit 0 and a marked
    (j, i) in the low bits (j * 2**n + i), over every value of the qubits
    above and between, then their partners with the bit set, and the same
    two sets in the other order."""
    s, low = layout.scratch_qubit, layout.n + layout.k
    above = np.arange(1 << (state.num_qubits - s - 1)) << (s + 1)
    between = np.arange(1 << (s - low)) << low
    zero = (above[:, None, None] + between[:, None] + np.flatnonzero(handle.f)).ravel()
    one = zero + (1 << s)
    return np.concatenate((zero, one)), np.concatenate((one, zero))


def _swap_marked(state: StateVector, handle: OracleHandle, swap) -> StateVector:
    """One bit-oracle call through the indices of :func:`_swap_indices`: one
    gather and one scatter, charged once per row of a batch."""
    scatter, gather = swap
    flat = state.amps.reshape(-1, 1 << state.num_qubits)
    flat[:, scatter] = flat[:, gather]
    handle.ledger.record("bit_oracle", _rows(state))
    return state


def apply_bit_oracle(state: StateVector, layout: RegisterLayout, handle: OracleHandle) -> StateVector:
    """XOR the scratch qubit with f(i, j) on every basis state: swap the
    scratch-0 and scratch-1 amplitudes of the marked (i, j) entries, in one
    gather and one scatter on the (rows, 2**q) view of the amplitudes.  Each
    row of a batch is one call."""
    _check_table_layout(layout, handle)
    if layout.scratch_qubit is None:
        raise ValueError("bit oracle needs a scratch qubit in the layout")
    return _swap_marked(state, handle, _swap_indices(state, layout, handle))


def apply_phase_oracle(
    state: StateVector, layout: RegisterLayout, handle: OracleHandle, controls=()
) -> StateVector:
    """Multiply each |i, j, .> component by (-1)**f(i, j), restricted to the
    sector where every control bit is 1.

    Metering: a plain call is one bit query (phase kickback off a |-> scratch);
    each control layer doubles the underlying bit-oracle count, so one control
    costs 2 and c controls cost 2**c.  Each row of a batch is one call.
    """
    _check_table_layout(layout, handle)
    cs = _check_qubits(state, controls)
    if any(c < layout.n + layout.k for c in cs):
        raise ValueError("oracle controls must lie above the data/plane registers")
    view = _bits(state, ones=cs)
    view *= _sign_tensor(handle)
    handle.ledger.charge(_rows(state), controls=len(cs))
    return state


def apply_controlled_phase_oracle(
    state: StateVector, control: int, layout: RegisterLayout, handle: OracleHandle
) -> StateVector:
    """Controlled phase oracle built literally from two bit-oracle calls
    around a CZ between the control and the scratch qubit; the scratch must
    enter in |0> and is returned to |0>.  The two calls share one build of
    the swap's indices."""
    _check_table_layout(layout, handle)
    if layout.scratch_qubit is None:
        raise ValueError("controlled phase oracle needs a scratch qubit")
    s = layout.scratch_qubit
    # the scratch-1 half's squared norm over the whole batch: the scratch is
    # the top qubit, so in either layout the half is one contiguous run, read
    # through a float view of it without copying
    half = _bits(state, ones=(s,)).ravel(order="K").view(np.float64)
    if np.dot(half, half) > 1e-9**2:
        raise AssertionError("scratch qubit must be |0> at entry")
    swap = _swap_indices(state, layout, handle)
    _swap_marked(state, handle, swap)
    cz = _bits(state, ones=_check_qubits(state, (control, s)))
    cz *= -1.0
    _swap_marked(state, handle, swap)
    handle.ledger.record("controlled_phase_oracle", _rows(state))
    return state


def controlled_phase_oracle_identity_gap(table: TruthTable) -> float:
    """Worst amplitude difference, over every scratch-|0> basis state,
    between the literal two-bit-oracle-call construction of the controlled
    phase oracle and the directly applied controlled phase.  The basis
    states run in batches of at most GAP_BLOCK_AMPS amplitudes through the
    literal construction and then the direct oracle, its own inverse and a
    -1 on each input's own amplitude, so what is left off each input is
    exactly the difference of the two.

    Every batch is written into one (2**q, rows) buffer, zeroed once per
    table, and run as its transpose, the amplitude-major batch of
    :class:`StateVector`.  A batch whose inputs all agree leaves the buffer
    all zeros, which is already the next batch's start, so only a batch
    with a nonzero entry is read for its maximum and zeroed again.  The
    traced peak is the buffer plus the largest temporary of one gate, the
    bit oracle's gathered copy of the marked entries: at (n, k) = (4, 4)
    and density 1/2, a 512 KiB buffer and 240-290 KiB, under 0.8 MiB.  The
    oracle calls are charged to the handle's own throwaway ledger."""
    handle = OracleHandle(table)
    layout = handle.layout(l=1, scratch=True)
    control = layout.phase_qubits[0]
    dim = 1 << layout.num_qubits
    inputs = dim // 2  # the scratch is the top qubit: x < dim / 2 holds it at |0>
    # powers of two, so the batches tile the inputs exactly
    rows = min(inputs, max(1, GAP_BLOCK_AMPS // dim))
    buf = np.zeros((dim, rows), dtype=np.complex128)
    flat = buf.reshape(-1)
    gap = 0.0
    for first in range(0, inputs, rows):
        # row r holds basis state first + r: buf[first + r, r]
        ones = flat[first * rows : (first + rows) * rows : rows + 1]
        ones[...] = 1.0
        state = StateVector(layout.num_qubits, buf.T)
        apply_controlled_phase_oracle(state, control, layout, handle)
        apply_phase_oracle(state, layout, handle, controls=(control,))
        ones -= 1.0
        if flat.view(np.float64).any():
            gap = max(gap, float(np.abs(buf).max()))
            buf.fill(0.0)
    return gap
