"""Quantum counting core: the Grover operator over the data register, phase
estimation of its rotation angle, and the AND-simulation circuit that turns
"column j is all ones" into a Grover phase with bounded error.

The circuits here never measure; readouts are exact amplitude diagnostics.
The production kernels are closed forms in the spectrum of the data-register
Grover operator G = D S (oracle signs S, then the diffusion D).  On column j
with b_j ones out of 2**n rows (padded rows count as ones), G rotates
span{1_{f=0}, 1_{f=1}} by 2 theta_j, sin theta_j = sqrt(b_j / 2**n), and acts
as -1 on the zero-sum vectors of the f=0 rows and +1 on those of the f=1
rows.  The AND-simulation is phase estimation, a sign flip of the 10..0
readout, then uncompute, so with w_r = (-1)**r / sqrt(2**l)

    SimAnd = I - 2 sum_lambda |u_lambda><u_lambda| (x) Pi_lambda,
    u_lambda,r = w_r lambda**(-r),

over the eigenvalues lambda and eigenprojections Pi_lambda of G.  Every
closed form thus reads a column through its count b_j alone, so the
readouts take the handle's column counts
(:func:`~qvstrain.oracles._column_counts`), never its table f, and a
one-column readout counts that column alone.  The phase
readout on the uniform input is the Fejer-kernel law of amplitude
estimation, 1/2 Fejer(s | theta/pi) + 1/2 Fejer(s | 1 - theta/pi)
(:func:`phase_register_distribution`, an FFT kept for ``quantum_count``,
which samples the whole readout).  At the 10..0 readout s = 2**(l-1) the
two branches are complex conjugates, each 2**-l sum_r (-1)**r e^{2i r theta}
= mean_r mu_r with mu the rotation spectrum (:func:`_phase_spectrum`), so
P(readout = 10..0) = |mean_r mu_r|**2 (:func:`_kick_probabilities`, the
one evaluation of the spectrum, which the search also calls), the
probability that a phase-kickback shot votes "all ones".  :func:`_readouts`
turns it into the overlaps <in|SimAnd|in> = 1 - 2 |mean_r mu_r|**2, signs
and fidelities that the diagnostics and ``verify`` read: they run no
simulation.  The search applies SimAnd to its factored state with kernels
of its own (:mod:`qvstrain.search`).

Each circuit thus runs two ways: the closed forms above in production, and
the gate engine of :mod:`qvstrain.statevec` and :mod:`qvstrain.oracles` as
their one reference.  ``grover_operator[_inverse]`` is ``apply_phase_oracle``
plus the data diffusion on the control-1 view of the state,
``phase_estimate[_inverse]`` is the ladder of those steps plus the Fourier
transform on the phase register, and ``sim_and`` is phase estimation, the
10..0 flip and the inverse; the tests check the closed forms against them.

Metering rule: the private kernels, here and in the search, never touch a
ledger.  The ledger is charged where an algorithm logically runs a circuit,
always through :meth:`QueryLedger.charge`: the gate engine per oracle call, so
``grover_operator[_inverse]`` once per step, ``phase_estimate[_inverse]``
2**l - 1 times, one singly controlled call per step, and ``sim_and``
2 * (2**l - 1) times, the cost :func:`meter_sim_and` charges for the
search's iterations; and ``quantum_count`` once per shot
(:func:`meter_phase_estimate`).  The exact-amplitude diagnostics
``sim_and_overlap``, ``g_tilde_readout`` and ``phase_register_distribution``
charge nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import (OracleHandle, QueryLedger, _check_table_layout, _column_counts,
                      apply_phase_oracle)
from .statevec import (
    RegisterLayout,
    StateVector,
    _bits,
    _check_qubits,
    apply_inverse_qft,
    apply_open_controlled_z,
    apply_qft,
)


# Spectrum values per block of columns in _readouts.  Under tracemalloc a
# full block peaks at about 103 KB: its 32 KiB complex spectrum and about
# 67 KB of numpy's buffers for the broadcast complex multiply that builds it.
READOUT_BLOCK_AMPS = 1 << 11


def l_bits(n: int) -> int:
    """Phase-register width ceil(n/2) + 3 used by every counting circuit."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n + 1) // 2 + 3


def meter_phase_estimate(ledger: QueryLedger, l: int, times: int = 1) -> None:
    """2**l - 1 singly-controlled Grover steps per phase estimation."""
    ledger.charge(times * ((1 << l) - 1), controls=1)


def meter_sim_and(ledger: QueryLedger, l: int, times: int = 1, controlled: bool = False) -> None:
    """Two phase estimations; ``controlled`` adds a control to every call."""
    ledger.charge(times * 2 * ((1 << l) - 1), controls=2 if controlled else 1)


# -- amplitude kernels ---------------------------------------------------------


def _diffuse_data(view: np.ndarray, d: int, axis=-1) -> None:
    """2|+><+| - I over the register on ``axis`` (an axis or a tuple of
    axes, d amplitudes in all): psi -> (2/d) * sum - psi."""
    total = view.sum(axis=axis, keepdims=True)
    np.negative(view, out=view)
    view += total * (2.0 / d)


def _rotation_angles(ones: np.ndarray, n: int) -> np.ndarray:
    """The Grover angle theta, sin theta = sqrt(ones / 2**n), of columns
    with ``ones`` f = 1 rows out of 2**n."""
    return np.arcsin(np.sqrt(ones / (1 << n)))


def _phase_spectrum(theta: np.ndarray, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """mu = (-e^{2i theta})**r = sqrt(2**l) w_r lambda**r, broadcast over the
    Grover angles ``theta`` and the phase register values ``r``, written
    into ``out`` if given."""
    out = np.multiply(2j * r, theta, out=out)
    np.exp(out, out=out)
    return np.multiply(1.0 - 2.0 * (r & 1), out, out=out)


def _kick_probabilities(
    ones: np.ndarray, n: int, l: int, out: np.ndarray | None = None
) -> np.ndarray:
    """P(readout = 10..0) after phase estimation from the uniform data
    register, per column with ``ones`` f = 1 rows out of 2**n, under a phase
    register of l bits: |mean_r mu_r|**2 with mu (:func:`_phase_spectrum`)
    held as (..., columns, 2**l), written into ``out`` if given, so each
    column sums along the contiguous last axis, in one (pairwise) order for
    a column, a table or a stack.  The sum is divided by its length, which
    is what ``mean`` computes, without its per-call overhead; a mean of
    unit-modulus numbers, so no clip is needed to use it as a probability."""
    mu = _phase_spectrum(_rotation_angles(ones, n)[..., None], np.arange(1 << l), out=out)
    return np.abs(mu.sum(axis=-1) / mu.shape[-1]) ** 2


# -- public operations ---------------------------------------------------------


def _check(state: StateVector, layout: RegisterLayout, handle: OracleHandle) -> None:
    _check_table_layout(layout, handle)
    if state.num_qubits != layout.num_qubits:
        raise ValueError("state size does not match the layout")
    if layout.a != 0:
        raise ValueError("counting circuits use scratch-free layouts")


def _grover_step(state, layout, handle, control, inverse: bool) -> StateVector:
    _check(state, layout, handle)
    controls = _check_qubits(state, () if control is None else (control,))
    if any(c < layout.n + layout.k for c in controls):
        raise ValueError("control must lie above the data/plane registers")
    if not inverse:
        apply_phase_oracle(state, layout, handle, controls)
    # the data qubits are the last n axes of the view
    _diffuse_data(_bits(state, ones=controls), 1 << layout.n, axis=tuple(range(-layout.n, 0)))
    if inverse:
        apply_phase_oracle(state, layout, handle, controls)
    return state


def grover_operator(
    state: StateVector, layout: RegisterLayout, handle: OracleHandle, control: int | None = None
) -> StateVector:
    """One amplitude-amplification step on the data register: the phase
    oracle followed by the reflection about |+>^n, acting identically on
    every hyperplane component.  With ``control`` (a qubit above the
    data/plane registers) the whole step is applied on the control-1 sector
    and the oracle call costs two bit queries."""
    return _grover_step(state, layout, handle, control, inverse=False)


def grover_operator_inverse(
    state: StateVector, layout: RegisterLayout, handle: OracleHandle, control: int | None = None
) -> StateVector:
    """Exact inverse of :func:`grover_operator` at the same query cost."""
    return _grover_step(state, layout, handle, control, inverse=True)


def phase_estimate(state: StateVector, layout: RegisterLayout, handle: OracleHandle) -> StateVector:
    """Controlled-Grover ladder (2**t steps controlled on phase qubit t)
    followed by the inverse Fourier transform on the phase register.  The
    phase register must enter in |+>^l.  Each step charges its oracle call,
    2 * (2**l - 1) bit queries in all."""
    _check(state, layout, handle)
    if layout.l < 1:
        raise ValueError("phase estimation needs a phase register")
    for t, control in enumerate(layout.phase_qubits):
        for _ in range(1 << t):
            grover_operator(state, layout, handle, control)
    return apply_inverse_qft(state, layout.phase_qubits)


def phase_estimate_inverse(
    state: StateVector, layout: RegisterLayout, handle: OracleHandle
) -> StateVector:
    """Exact inverse of :func:`phase_estimate` at the same query cost."""
    _check(state, layout, handle)
    if layout.l < 1:
        raise ValueError("phase estimation needs a phase register")
    apply_qft(state, layout.phase_qubits)
    for t in reversed(range(layout.l)):
        for _ in range(1 << t):
            grover_operator_inverse(state, layout, handle, layout.phase_qubits[t])
    return state


def sim_and(state: StateVector, layout: RegisterLayout, handle: OracleHandle) -> StateVector:
    """Phase estimation, a Z on the top phase qubit open-controlled on the
    remaining phase qubits (so only the s = 10..0 readout is flipped), then
    the inverse phase estimation.

    On each |j> component the output is approximately (-1)**g~(j) times the
    input, where g~(j) agrees with the column-AND g(j) with probability at
    least 2/3, exactly when g(j) = 1.  Runs the circuit on the gate engine,
    the reference for the search's closed form; its 2 * (2**l - 1) singly
    controlled oracle calls cost exactly 4 * (2**l - 1) bit queries
    regardless of the table.
    """
    phase_estimate(state, layout, handle)
    apply_open_controlled_z(state, layout.phase_msb, layout.phase_qubits[:-1])
    return phase_estimate_inverse(state, layout, handle)


@dataclass(frozen=True)
class GTildeReadout:
    """Sign imprinted on one hyperplane component (-1, +1, or 0 where the
    overlap vanishes) and the squared overlap with the ideal +-|input>
    outcome."""

    sign: int
    fidelity: float


def _phase_bits(j: int, handle: OracleHandle, l: int | None) -> int:
    """The phase-register width for a readout on hyperplane j: ``l``, or
    :func:`l_bits` if None, after checking j and l."""
    if not (0 <= j < (1 << handle.k)):
        raise ValueError(f"hyperplane index {j} out of range")
    if l is None:
        l = l_bits(handle.n)
    if l < 1:
        raise ValueError("phase estimation needs a phase register")
    return l


def sim_and_overlap(j: int, handle: OracleHandle, l: int | None = None) -> complex:
    """<input| SimAnd |input> for the basis hyperplane j, under a phase
    register of l bits: exactly 1 - 2 P(s = 10..0), since SimAnd flips that
    readout between phase estimation and its uncompute, with P(s = 10..0)
    the kick probability of column j's count (:func:`_kick_probabilities`).
    The overlap is real.  An exact amplitude diagnostic: charges nothing."""
    l = _phase_bits(j, handle, l)
    overlap, _, _ = _readouts(_column_counts(handle, j), handle.n, l)
    return complex(overlap[0])


def g_tilde_readout(j: int, handle: OracleHandle, l: int | None = None) -> GTildeReadout:
    """Deterministic diagnostic of the AND-simulation on hyperplane j:
    sign of Re <in|out> and |<in|out>|**2 (:func:`_readouts`).  Charges
    nothing."""
    l = _phase_bits(j, handle, l)
    _, sign, fidelity = _readouts(_column_counts(handle, j), handle.n, l)
    return GTildeReadout(sign=int(sign[0]), fidelity=float(fidelity[0]))


def _readouts(counts: np.ndarray, n: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The overlaps eta = <in|SimAnd|in> = 1 - 2 P(s = 10..0), their signs
    and their fidelities eta**2, of columns with ``counts`` f = 1 rows out
    of 2**n under a phase register of l bits.  The counts go through
    :func:`_kick_probabilities` in blocks whose spectrum holds at most
    READOUT_BLOCK_AMPS values; a column is read through its count alone, so
    a count's readout is the same whichever block it is read in.  The sign
    is 0 where |eta| <= 1e-12, the tolerance the kernels are tested to:
    there the overlap may be 0 in exact arithmetic, and the sign of its
    computed value would be the sign of a rounding error."""
    overlap = np.empty(counts.shape)
    cols = max(1, READOUT_BLOCK_AMPS >> l)
    for first in range(0, counts.size, cols):
        kicks = _kick_probabilities(counts[first : first + cols], n, l)
        overlap[first : first + cols] = 1.0 - 2.0 * kicks
    sign = (overlap > 1e-12).astype(np.int8) - (overlap < -1e-12)
    return overlap, sign, overlap ** 2


def phase_register_distribution(
    j: int, handle: OracleHandle, l: int | None = None
) -> np.ndarray:
    """Exact readout distribution of the phase register after phase
    estimation on hyperplane j from the uniform data register: the uniform
    state has weight 1/2 on each rotation eigenvector e^{+-2i theta_j}, so
    P(s) = 1/2 Fejer(s | theta_j/pi) + 1/2 Fejer(s | 1 - theta_j/pi), with
    Fejer(s | phi) = |2**-l sum_r e^{2 pi i r (phi - s/2**l)}|**2.  Runs no
    circuit and charges nothing."""
    l = _phase_bits(j, handle, l)
    dl = 1 << l
    theta = _rotation_angles(_column_counts(handle, j)[0], handle.n)
    # phase-register state of each branch lambda = e^{+-2i theta} after the
    # ladder, sum_r lambda**r |r> / sqrt(2**l), then the inverse Fourier transform
    branches = np.exp(np.outer((2j, -2j), np.arange(dl) * theta)) / math.sqrt(dl)
    readout = np.fft.fft(branches, axis=1) / math.sqrt(dl)
    return 0.5 * (np.abs(readout) ** 2).sum(axis=0)


@dataclass(frozen=True)
class CountEstimate:
    """Modal phase-estimation readout: the folded bit string, its angle
    theta_hat = pi * s / 2**l, and the solution-count estimate
    2**n * sin(theta_hat)**2 over the padded data register."""

    s_bits: str
    theta_hat: float
    l_hat: float


def quantum_count(
    j: int, handle: OracleHandle, shots: int, rng_seed=None, l: int | None = None
) -> CountEstimate:
    """Sample the phase-register readout ``shots`` times, fold the two
    conjugate branches s and 2**l - s onto one angle, and return the modal
    estimate.  Each shot is metered as one full phase estimation."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = phase_register_distribution(j, handle, l)  # checks j and l
    dl = probs.size
    l = dl.bit_length() - 1
    meter_phase_estimate(handle.ledger, l, times=shots)
    rng = np.random.default_rng(rng_seed)
    samples = rng.choice(dl, size=shots, p=probs / probs.sum())
    folded = np.minimum(samples, dl - samples)
    mode = int(np.bincount(folded, minlength=(dl // 2) + 1).argmax())
    theta = math.pi * mode / dl
    return CountEstimate(
        s_bits=format(mode, f"0{l}b"),
        theta_hat=theta,
        l_hat=(1 << handle.n) * math.sin(theta) ** 2,
    )


def phase_gap_bound_check(n: int, m):
    """For a column with m misclassified elements out of 2**n, check that the
    conjugate phase branch (2 pi - 2 theta) / 2 pi clears 1/2 by at least one
    unit in the last of the ceil(n/2) + 3 phase bits, which is what forces a
    nonzero trailing readout bit whenever the column AND is 0.  ``m`` is an
    int (the result is a bool) or an integer array (a bool array)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = np.asarray(m)
    if not ((1 <= m) & (m <= (1 << n))).all():
        raise ValueError(f"m must be in [1, {1 << n}], got {m}")
    # theta = arccos(sqrt(m / 2**n)), then (2 pi - 2 theta) / 2 pi, in one array
    lhs = np.asarray(m / (1 << n))
    np.arccos(np.sqrt(lhs, out=lhs), out=lhs)
    np.subtract(2.0 * math.pi, np.multiply(2.0, lhs, out=lhs), out=lhs)
    lhs /= 2.0 * math.pi
    ok = lhs >= 0.5 + 2.0 ** -l_bits(n)
    return bool(ok) if ok.ndim == 0 else ok

