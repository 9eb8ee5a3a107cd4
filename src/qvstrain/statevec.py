"""Dense statevector engine: register bookkeeping plus the few gates the
counting and search circuits need.

Bit convention: global qubit ``t`` is bit ``t`` (weight ``2**t``) of the
basis-state integer, so ``amps[x]`` belongs to the basis state whose qubit
``t`` reads ``(x >> t) & 1``.  Registers are packed from the low bits up in
the order data -> hyperplane -> phase -> scratch.  Inside the phase register
the most significant readout bit (the one that distinguishes angles >= pi/2)
sits on the register's highest-order qubit.

Every gate here, and ``oracles.apply_phase_oracle``, acts on one writable
view (:func:`_bits`): the amplitudes with one axis of size 2 per qubit and
the control bits sliced in place, so none of them builds an index array.
The exception is ``oracles.apply_bit_oracle`` (and the controlled phase
oracle built from two of its swaps): it swaps the marked entries through
gather and scatter indices built once per call, and the controlled phase
oracle's two swaps share one build.  No gate keeps an index array between
calls.
A state may hold a batch of B rows, amplitudes of shape (B, 2**q); every
gate acts on each row alone.  A batch is held amplitude-major: the
(B, 2**q) array is the transpose of a C-contiguous (2**q, B) array, so the
B values of one amplitude index sit side by side and each gate's work on
one index is one contiguous run (a single state is C-contiguous).
Splitting the last axis into qubits is still a view.  This gate engine is
the reference: production runs the closed forms of :mod:`qvstrain.counting`,
and the tests check those closed forms against the gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit counts for the data (n), hyperplane (k), phase (l) and scratch
    (a) registers, with the fixed packing order documented in the module
    docstring."""

    n: int
    k: int
    l: int = 0
    a: int = 0

    def __post_init__(self):
        if self.n < 0 or self.k < 0 or self.l < 0:
            raise ValueError("register sizes must be nonnegative")
        if self.a not in (0, 1):
            raise ValueError("at most one scratch qubit is supported")
        if self.num_qubits < 1:
            raise ValueError("layout must contain at least one qubit")

    @property
    def num_qubits(self) -> int:
        return self.n + self.k + self.l + self.a

    @property
    def data_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def plane_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n, self.n + self.k))

    @property
    def phase_qubits(self) -> tuple[int, ...]:
        """Phase register, least significant readout bit first."""
        base = self.n + self.k
        return tuple(range(base, base + self.l))

    @property
    def phase_msb(self) -> int:
        """Qubit holding the most significant bit of the phase readout."""
        if self.l == 0:
            raise ValueError("layout has no phase register")
        return self.n + self.k + self.l - 1

    @property
    def scratch_qubit(self) -> int | None:
        return self.n + self.k + self.l if self.a else None


class StateVector:
    """Normalized complex amplitudes over ``2**num_qubits`` basis states:
    one state of shape (2**q,), or a batch of states as the rows of a
    (B, 2**q) array held amplitude-major (Fortran order; an array already
    in that order is wrapped without a copy).  ``norm`` and
    :func:`inner_product` take one state."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: np.ndarray):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        # Fortran order: a batch amplitude-major, a single state contiguous
        amps = np.asarray(amps, dtype=np.complex128, order="F")
        if amps.ndim not in (1, 2) or amps.shape[-1] != 1 << num_qubits:
            raise ValueError(
                f"amplitude array must have shape ({1 << num_qubits},) or "
                f"(B, {1 << num_qubits}), got {amps.shape}"
            )
        self.num_qubits = num_qubits
        self.amps = amps

    @classmethod
    def basis(cls, num_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy(order="K"))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def new_uniform(layout: RegisterLayout, fixed_j: int | None = None) -> StateVector:
    """Uniform superposition on the data and phase registers; the hyperplane
    register is |j> when ``fixed_j`` is given, otherwise uniform too.  The
    scratch qubit, if present, starts in |0>."""
    if fixed_j is not None and not (0 <= fixed_j < (1 << layout.k)):
        raise ValueError(f"fixed_j={fixed_j} out of range for k={layout.k}")
    dn, dk, dl = 1 << layout.n, 1 << layout.k, 1 << layout.l
    free = dn * dl * (dk if fixed_j is None else 1)
    amps = np.zeros(1 << layout.num_qubits, dtype=np.complex128)
    fill = 1.0 / math.sqrt(free)
    body = amps[: dn * dk * dl].reshape(dl, dk, dn)  # scratch bit 0 sector
    if fixed_j is None:
        body[...] = fill
    else:
        body[:, fixed_j, :] = fill
    return StateVector(layout.num_qubits, amps)


def _bits(state: StateVector, ones=(), zeros=()) -> np.ndarray:
    """Writable view of ``state.amps`` with one axis of size 2 per qubit,
    qubit t on axis -1 - t (a batch keeps its row axis in front).  The
    axes of the qubits in ``ones`` and ``zeros`` keep size 1, sliced to
    bit 1 and bit 0, so every qubit stays on its axis."""
    view = state.amps.reshape(state.amps.shape[:-1] + (2,) * state.num_qubits)
    index = [slice(None)] * view.ndim
    for q in ones:
        index[-1 - q] = slice(1, 2)
    for q in zeros:
        index[-1 - q] = slice(0, 1)
    return view[tuple(index)]


def _check_qubits(state: StateVector, qubits) -> tuple[int, ...]:
    qs = tuple(int(q) for q in qubits)
    if len(set(qs)) != len(qs):
        raise ValueError(f"duplicate qubit indices: {qs}")
    for q in qs:
        if not (0 <= q < state.num_qubits):
            raise ValueError(f"qubit {q} out of range for {state.num_qubits} qubits")
    return qs


def apply_hadamards(state: StateVector, qubits, controls=()) -> StateVector:
    """Apply H to each listed qubit (in listed order).  With ``controls``,
    the whole block acts only on the sector where every control bit is 1.
    Test-only: with :func:`apply_phase_flip_all_zero` it builds the literal
    diffusion H, flip, H that tests/test_counting.py checks
    ``counting._diffuse_data`` (in ``grover_operator``) against."""
    qs = _check_qubits(state, qubits)
    cs = _check_qubits(state, controls)
    if set(qs) & set(cs):
        raise ValueError("control and target qubits overlap")
    for q in qs:
        a, b = _bits(state, cs, (q,)), _bits(state, cs + (q,))
        total = a + b
        b -= a
        b *= -SQRT1_2
        np.multiply(total, SQRT1_2, out=a)
    return state


def apply_phase_flip_all_zero(state: StateVector, qubits, controls=()) -> StateVector:
    """Reflection 2|0..0><0..0| - I on the listed qubits, negating all but the
    all-zero components; test-only, the flip of apply_hadamards' diffusion."""
    qs = _check_qubits(state, qubits)
    cs = _check_qubits(state, controls)
    if set(qs) & set(cs):
        raise ValueError("control and target qubits overlap")
    for view in (_bits(state, cs), _bits(state, cs, qs)):
        view *= -1.0
    return state


def apply_open_controlled_z(
    state: StateVector, target: int, open_controls, closed_controls=()
) -> StateVector:
    """Negate amplitudes with target bit 1, every open control 0 and every
    closed control 1."""
    (tq,) = _check_qubits(state, (target,))
    zeros = _check_qubits(state, open_controls)
    ones = _check_qubits(state, closed_controls)
    if tq in zeros or tq in ones or set(zeros) & set(ones):
        raise ValueError("overlapping target/control qubits")
    view = _bits(state, (tq,) + ones, zeros)
    view *= -1.0
    return state


def _fourier_on_register(state: StateVector, qubits, inverse: bool) -> StateVector:
    qs = _check_qubits(state, qubits)
    if not qs:
        raise ValueError("need at least one qubit for the Fourier transform")
    l = len(qs)
    # register axes last, most significant first, so they flatten to r
    view = np.moveaxis(_bits(state), [-1 - q for q in reversed(qs)], range(-l, 0))
    block = view.reshape(view.shape[:-l] + (1 << l,))
    if inverse:
        block = np.fft.fft(block, axis=-1) / math.sqrt(1 << l)
    else:
        block = np.fft.ifft(block, axis=-1) * math.sqrt(1 << l)
    view[...] = block.reshape(view.shape)
    return state


def apply_qft(state: StateVector, qubits) -> StateVector:
    """QFT on the listed register (qubits ordered least significant first):
    |r> -> sum_y exp(2 pi i r y / 2**l) |y> / sqrt(2**l)."""
    return _fourier_on_register(state, qubits, inverse=False)


def apply_inverse_qft(state: StateVector, qubits) -> StateVector:
    """Inverse QFT on the listed register; maps the Fourier state of a phase
    fraction to the basis state holding its binary digits, most significant
    digit on the last listed qubit."""
    return _fourier_on_register(state, qubits, inverse=True)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, first argument conjugated.  Test-only: the literal <in|SimAnd|in>
    that tests/test_counting.py checks ``counting.sim_and_overlap`` against."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit counts differ")
    return complex(np.vdot(a.amps, b.amps))
