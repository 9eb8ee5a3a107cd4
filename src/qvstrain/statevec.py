"""Dense statevector engine: register bookkeeping plus the few gates the
counting and search circuits need.

Bit convention: global qubit ``t`` is bit ``t`` (weight ``2**t``) of the
basis-state integer, so ``amps[x]`` belongs to the basis state whose qubit
``t`` reads ``(x >> t) & 1``.  Registers are packed from the low bits up in
the order data -> hyperplane -> phase -> scratch.  Inside the phase register
the most significant readout bit (the one that distinguishes angles >= pi/2)
sits on the register's highest-order qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    """Normalized complex amplitudes over ``2**num_qubits`` basis states."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: np.ndarray):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        if amps.shape != (1 << num_qubits,):
            raise ValueError(
                f"amplitude array must have length {1 << num_qubits}, got {amps.shape}"
            )
        self.num_qubits = num_qubits
        self.amps = amps

    @classmethod
    def basis(cls, num_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy())

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


@lru_cache(maxsize=512)
def _masked_indices(
    num_qubits: int,
    ones: tuple[int, ...],
    zeros: tuple[int, ...],
) -> np.ndarray:
    """Flat indices whose bits are 1 on ``ones`` and 0 on ``zeros``."""
    x = np.arange(1 << num_qubits, dtype=np.int64)
    keep = np.ones(x.size, dtype=bool)
    for q in ones:
        keep &= (x >> q) & 1 == 1
    for q in zeros:
        keep &= (x >> q) & 1 == 0
    return np.nonzero(keep)[0]


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
    the whole block acts only on the sector where every control bit is 1."""
    qs = _check_qubits(state, qubits)
    cs = _check_qubits(state, controls)
    if set(qs) & set(cs):
        raise ValueError("control and target qubits overlap")
    amps = state.amps
    for q in qs:
        i0 = _masked_indices(state.num_qubits, cs, (q,))
        i1 = i0 + (1 << q)
        a = amps[i0]
        b = amps[i1]
        amps[i0] = (a + b) * SQRT1_2
        amps[i1] = (a - b) * SQRT1_2
    return state


def apply_phase_flip_all_zero(state: StateVector, qubits, controls=()) -> StateVector:
    """Reflection 2|0..0><0..0| - I on the listed qubits: components with all
    listed bits 0 keep their sign, everything else is negated."""
    qs = _check_qubits(state, qubits)
    cs = _check_qubits(state, controls)
    if set(qs) & set(cs):
        raise ValueError("control and target qubits overlap")
    sector = _masked_indices(state.num_qubits, cs, ())
    state.amps[sector] *= -1.0
    kept = _masked_indices(state.num_qubits, cs, qs)
    state.amps[kept] *= -1.0
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
    idx = _masked_indices(state.num_qubits, (tq,) + ones, zeros)
    state.amps[idx] *= -1.0
    return state


@lru_cache(maxsize=128)
def _register_gather(num_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Flat-index permutation g with g[m * 2**l + r] = x, where r is the
    value of the listed register (qubits[0] least significant) inside x and
    m enumerates the remaining qubits."""
    l = len(qubits)
    rest = tuple(q for q in range(num_qubits) if q not in qubits)
    x = np.arange(1 << num_qubits, dtype=np.int64)
    r = np.zeros_like(x)
    for t, q in enumerate(qubits):
        r |= ((x >> q) & 1) << t
    m = np.zeros_like(x)
    for u, q in enumerate(rest):
        m |= ((x >> q) & 1) << u
    g = np.empty_like(x)
    g[(m << l) | r] = x
    return g


def _fourier_on_register(state: StateVector, qubits, inverse: bool) -> StateVector:
    qs = _check_qubits(state, qubits)
    if not qs:
        raise ValueError("need at least one qubit for the Fourier transform")
    g = _register_gather(state.num_qubits, qs)
    dim = 1 << len(qs)
    block = state.amps[g].reshape(-1, dim)
    if inverse:
        block = np.fft.fft(block, axis=1) / math.sqrt(dim)
    else:
        block = np.fft.ifft(block, axis=1) * math.sqrt(dim)
    state.amps[g] = block.ravel()
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
    """<a|b> with the first argument conjugated."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit counts differ")
    return complex(np.vdot(a.amps, b.amps))
