"""Search layer: bounded-error search driven by the AND-simulation oracle,
with a randomized Grover schedule for an unknown number of marked items,
multi-criterion search, and the end-to-end version-space trainer.

Within one search run the unitary pieces are deterministic, so iterated
states and verification overlaps are computed once per table and reused
across Monte Carlo repetitions.  Each iteration applies the AND-simulation
in its closed form from the Grover spectrum, SimAnd = I - 2 sum_lambda
|u_lambda><u_lambda| (x) Pi_lambda (see :mod:`qvstrain.counting`), so no
Grover step is executed; a verification shot votes with the probability
(1 - Re <in|SimAnd|in>) / 2, read off the Fejer-kernel phase readout.  The
amplitude kernels and the overlap diagnostic charge nothing; the search
alone charges the ledger, by the closed-form cost of what each run
logically performs: one AND-simulation per Grover iteration and one
controlled AND-simulation per verification shot (:func:`meter_sim_and`).

The search state is held in three factors, psi(r, j, i) = A[r & 1, j, i] +
B[r, j, f(i, j)] + C[r, i] (:class:`SimAndSearchOracle`), so it takes
O(2**(k+n) + 2**(l+k) + 2**(l+n)) memory instead of 2**(l+k+n) amplitudes.
A search whose peak (:func:`search_state_bytes`) would exceed
:func:`state_byte_limit` (the machine's physical memory, or the process's
address-space limit if that is smaller) is refused before anything is
allocated.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field

import numpy as np

from .counting import _rotation_shifts, _rotation_spectrum, l_bits, meter_sim_and, sim_and_overlap
from .oracles import OracleHandle, QueryLedger, _ceil_log2, from_perceptron
from .perceptron import Dataset, Hyperplane, required_sample_count, sample_hyperplanes

GROWTH = 6.0 / 5.0
SMALL_ARRAY_BYTES = 1 << 15


def state_byte_limit() -> int:
    """Bytes a search state may take: the machine's physical memory, or the
    process's address-space limit (RLIMIT_AS) if that is smaller."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return limit if soft == resource.RLIM_INFINITY else min(limit, soft)


def search_state_bytes(n_rows: int, n_cols: int) -> int:
    """Bytes a search over an N x K table holds at its peak: the oracle
    handle's padded table and sign matrix (9 bytes per padded entry); the
    three factors of :class:`SimAndSearchOracle` (2 * 2**(k+n) + 2 * 2**(l+k)
    + 2**(l+n) complex amplitudes of 16 bytes), its f=1 mask (1 byte per
    entry) and the marginals of every iteration the schedule can reach; and
    one iteration's temporaries: six (2**l, 2**k) complex sums and shifts,
    the (2**l, 2**n) products with the table, numpy's cast buffers (at most
    one (2**k, 2**n) complex array) and SMALL_ARRAY_BYTES for the vectors."""
    n, k = _ceil_log2(n_rows), _ceil_log2(n_cols)
    l = l_bits(n)
    kn, lk, ln = 1 << (k + n), 1 << (l + k), 1 << (l + n)
    tables = 10 * kn
    factors = 16 * (2 * kn + 2 * lk + ln)
    marginals = 8 * (1 << k) * (_iteration_cap(k) + 1)
    temporaries = 16 * (kn + 6 * lk + ln)
    return tables + factors + marginals + temporaries + SMALL_ARRAY_BYTES


def _require_state_fits(n_rows: int, n_cols: int) -> None:
    """Refuse, before anything is built, a search over an N x K table whose
    state (:func:`search_state_bytes`) would exceed :func:`state_byte_limit`."""
    need = search_state_bytes(n_rows, n_cols)
    limit = state_byte_limit()
    if need > limit:
        raise ValueError(
            f"the search state needs {need} bytes, over the limit of {limit} bytes"
        )


@dataclass(frozen=True)
class BEQConfig:
    """Knobs of the bounded-error search: odd majority-vote width for
    candidate verification and number of full cutoff schedules to run
    before giving up."""

    verify_repeats: int = 15
    max_rounds: int = 3

    def __post_init__(self):
        if self.verify_repeats < 3 or self.verify_repeats % 2 == 0:
            raise ValueError("verify_repeats must be odd and >= 3")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class SearchOutcome:
    """Found(index) or NotFound(None), with the run's ledger snapshot and
    iteration metadata."""

    index: int | None
    queries: dict[str, int] = field(default_factory=dict)
    trials: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.index is not None

    @property
    def result(self) -> int:
        """The index, or -1 for NotFound."""
        return self.index if self.index is not None else -1


def _iteration_cap(k: int) -> int:
    return max(1, math.ceil(math.pi / 4.0 * math.sqrt(1 << k)))


def _schedule(k: int, passes: int):
    """Yield the randomized-iteration bound m per round: grows by 6/5 each
    round, capped at ceil(pi/4 * sqrt(2**k)); the full growth schedule is
    repeated ``passes`` times."""
    cap = float(_iteration_cap(k))
    for _ in range(passes):
        m = 1.0
        while True:
            yield m
            if m >= cap:
                break
            m = min(m * GROWTH, cap)


class SimAndSearchOracle:
    """The AND-simulation circuit bound to an oracle handle, prepared for use
    as the reflection inside bounded-error search.

    From the uniform start every (reflection, hyperplane diffusion) iterate
    has the exact form

        psi(r, j, i) = A[r & 1, j, i] + B[r, j, f(i, j)] + C[r, i]

    over phase row r, hyperplane j and data row i, so the oracle holds the
    three factors (2 x 2**k x 2**n, 2**l x 2**k x 2 and 2**l x 2**n complex)
    instead of 2**(l+k+n) amplitudes.  The AND-simulation adds its plain and
    alternating corrections over r to A and its per-(r, j) shifts
    (:func:`~qvstrain.counting._rotation_shifts`) to B; the diffusion over j
    negates A and B and adds twice their mean over j to C.  The only work of
    order 2**(l+k+n) is two matrix products per iteration: C against the
    table, which gives the f=1 row sums and the marginal's B.C term, and the
    change of B against the table, for the diffusion's mean.

    Caches the deterministic pieces per table: the factors, advanced in
    place, the hyperplane marginal after every iteration so far, and the
    per-column verification overlaps.  Nothing here charges the ledger; the
    search charges each run through :func:`meter_sim_and`.
    """

    def __init__(self, handle: OracleHandle):
        self.handle = handle
        self.n = handle.n
        self.k = handle.k
        self.l = l_bits(handle.n)
        _require_state_fits(handle.n_rows, handle.n_cols)
        dl, dk, dn = 1 << self.l, 1 << self.k, 1 << self.n
        self._is_one = handle.signs < 0
        self._ones, *self._spectrum = _rotation_spectrum(handle.signs, dl)
        # A[r & 1] as two (2**k, 2**n) arrays, B[f] as (2, 2**l, 2**k), C
        self._a = [np.zeros((dk, dn), dtype=np.complex128) for _ in range(2)]
        self._b = np.zeros((2, dl, dk), dtype=np.complex128)
        self._c = np.full((dl, dn), 1.0 / math.sqrt(dl * dk * dn), dtype=np.complex128)
        self._sums = self._reduce()
        self._marginals = [self._plane_marginal()]
        self._kick: dict[int, float] = {}

    def _reduce(self) -> tuple:
        """The sums of the factors that both the marginal and the next
        AND-simulation read: per parity, A's row sums over all rows and over
        the f=1 rows; C's row sums, its sums over the f=1 rows of each column
        (C @ F^T, taken from the signs as (rowsum - C @ signs^T) / 2), and its
        sums over the even and the odd phase rows."""
        signs, c = self.handle.signs, self._c
        a_sum = np.array([a.sum(axis=1) for a in self._a])
        a_one = np.array([np.einsum("ji,ji->j", a, signs) for a in self._a])
        np.subtract(a_sum, a_one, out=a_one)
        a_one *= 0.5
        c_sum = c.sum(axis=1)
        c_one = np.empty((c.shape[0], signs.shape[0]), dtype=np.complex128)
        c_one.real = c.real @ signs.T
        c_one.imag = c.imag @ signs.T
        np.subtract(c_sum[:, None], c_one, out=c_one)
        c_one *= 0.5
        c_par = np.array([c[0::2].sum(axis=0), c[1::2].sum(axis=0)])
        return a_sum, a_one, c_sum, c_one, c_par

    def _step(self) -> None:
        """One AND-simulation, then the diffusion over the hyperplane
        register, on the factors.  Since 2/2**l times the 2**(l-1) phase
        rows of one parity is 1, the AND-simulation maps A[p] to
        -signs * A[1 - p], less 2/2**l times the plain sum over r of the B
        and C terms on the f=0 rows and (-1)**p times their alternating sum
        on the f=1 rows.  The diffusion's negation is folded in."""
        signs, is_one, b, c = self.handle.signs, self._is_one, self._b, self._c
        dl, dk, dn = c.shape[0], b.shape[2], c.shape[1]
        a_sum, a_one, c_sum, c_one, c_par = self._sums
        parity = np.arange(dl) & 1
        # (r, j) sums of psi over the f=1 rows and over the f=0 rows
        sum_b = c_one + a_one[parity]
        sum_b += self._ones * b[1]
        sum_a = c_sum[:, None] - c_one
        sum_a += (a_sum - a_one)[parity]
        sum_a += (dn - self._ones) * b[0]
        shift_a, shift_b = _rotation_shifts(sum_a, sum_b, *self._spectrum)
        w = 2.0 / dl
        b_plain = w * b[0].sum(axis=0)
        b_alt = w * (b[1, 0::2].sum(axis=0) - b[1, 1::2].sum(axis=0))
        c_plain, c_alt = w * (c_par[0] + c_par[1]), w * (c_par[0] - c_par[1])
        # negated: A[0] = signs * A[1] + (plain | alt), A[1] = signs * A[0]
        # + (plain | -alt), written over the buffers of A[1] and A[0]
        a0, a1 = self._a
        np.multiply(a0, signs, out=a0)
        np.multiply(a1, signs, out=a1)
        self._a = [a1, a0]
        for a, alt_j, alt_i in ((a1, b_alt, c_alt), (a0, -b_alt, -c_alt)):
            a += b_plain[:, None]
            a += c_plain
            np.add(a, (alt_j - b_plain)[:, None], out=a, where=is_one)
            np.add(a, alt_i - c_plain, out=a, where=is_one)
        b[0] += shift_a
        b[1] += shift_b
        del shift_a, shift_b
        np.negative(b, out=b)
        # C less 2/2**k times the sum over j of the negated A and B, where
        # sum_j B[r, j, f(i, j)] = sum_j B[r, j, 0] + (dB @ F)[r, i] and
        # dB @ F = (rowsum(dB) - dB @ signs) / 2
        d_b = b[1] - b[0]
        g = 2.0 / dk
        c[0::2] -= g * self._a[0].sum(axis=0)
        c[1::2] -= g * self._a[1].sum(axis=0)
        c -= (g * (b[0].sum(axis=1) + 0.5 * d_b.sum(axis=1)))[:, None]
        for part, d_part in ((c.real, d_b.real), (c.imag, d_b.imag)):
            product = d_part @ signs
            product *= 0.5 * g
            part += product
            del product  # one (2**l, 2**n) product at a time

    def _plane_marginal(self) -> np.ndarray:
        """The sum over r and i of |A + B + C|**2 for each hyperplane j,
        expanded into the squared factors and their cross terms, each read
        off the reductions or one pass over A."""
        b, c = self._b, self._c
        dl, dn = c.shape
        dk = b.shape[2]
        a_sum, a_one, c_sum, c_one, c_par = self._sums
        marg = np.zeros(dk)
        for p, a in enumerate(self._a):
            flat = a.view(np.float64)
            marg += (dl // 2) * np.einsum("jx,jx->j", flat, flat)  # |A|^2
            b_par = b[:, p::2].sum(axis=1)
            cross = (a_sum[p] - a_one[p]) * b_par[0].conj() + a_one[p] * b_par[1].conj()
            cross += a @ c_par[p].conj()  # A.B and A.C
            marg += 2.0 * cross.real
        pairs = b.view(np.float64).reshape(2, dl, dk, 2)
        norms = np.einsum("frjx,frjx->fj", pairs, pairs)
        marg += (dn - self._ones) * norms[0] + self._ones * norms[1]  # |B|^2
        marg += np.vdot(c, c).real  # |C|^2
        for f, c_rows in ((0, c_sum[:, None] - c_one), (1, c_one)):  # B.C
            c_pairs = c_rows.view(np.float64).reshape(dl, dk, 2)
            marg += 2.0 * np.einsum("rjx,rjx->j", pairs[f], c_pairs)
        # cancellation can leave a true zero a rounding error below 0
        np.maximum(marg, 0.0, out=marg)
        return marg / marg.sum()

    def plane_marginal(self, r: int) -> np.ndarray:
        """Measurement distribution of the hyperplane register after r
        (reflection, diffusion) iterations from the fully uniform state."""
        while len(self._marginals) <= r:
            self._step()
            self._sums = self._reduce()
            self._marginals.append(self._plane_marginal())
        return self._marginals[r]

    def kick_probability(self, j: int) -> float:
        """Probability that one phase-kickback shot votes "column j is all
        ones": (1 - Re <in|SimAnd|in>) / 2 on the |j> component."""
        if j not in self._kick:
            eta = sim_and_overlap(j, self.handle, self.l)
            self._kick[j] = min(1.0, max(0.0, (1.0 - eta.real) / 2.0))
        return self._kick[j]


def _majority_vote(oracle: SimAndSearchOracle, j: int, repeats: int, rng, ledger: QueryLedger):
    """Majority of ``repeats`` kickback shots, stopping early once decided;
    each drawn shot is metered as one controlled AND-simulation."""
    p = oracle.kick_probability(j)
    need = repeats // 2 + 1
    ones = zeros = shots = 0
    while ones < need and zeros < need:
        shots += 1
        meter_sim_and(ledger, oracle.l, controlled=True)
        if rng.random() < p:
            ones += 1
        else:
            zeros += 1
    return ones >= need, shots


def bounded_error_search(
    oracle: SimAndSearchOracle, cfg: BEQConfig, rng_seed=None
) -> SearchOutcome:
    """Search for a hyperplane index whose entire column is 1, using the
    AND-simulation circuit both as the (imperfect) Grover reflection and,
    through majority-voted phase-kickback shots, as the verifier of each
    measured candidate."""
    rng = np.random.default_rng(rng_seed)
    ledger = QueryLedger()
    rounds = 0
    iterations = 0
    verifications = 0
    found = None
    for m in _schedule(oracle.k, cfg.max_rounds):
        rounds += 1
        r = int(rng.integers(0, max(1, math.ceil(m))))
        marginal = oracle.plane_marginal(r)
        meter_sim_and(ledger, oracle.l, times=r)
        iterations += r
        j = int(rng.choice(marginal.size, p=marginal))
        accepted, shots = _majority_vote(oracle, j, cfg.verify_repeats, rng, ledger)
        verifications += shots
        if accepted:
            found = j
            break
    trials = {"rounds": rounds, "iterations": iterations, "verification_shots": verifications}
    if found is None:
        trials["reason"] = "budget_exhausted"
    for tag, value in ledger.snapshot().items():
        oracle.handle.ledger.record(tag, value)
    return SearchOutcome(index=found, queries=ledger.snapshot(), trials=trials)


def multi_criterion_search(
    handle: OracleHandle, cfg: BEQConfig | None = None, rng_seed=None
) -> SearchOutcome:
    """Find j with f(i, j) = 1 for every data row i, with bounded error on
    both the Found and NotFound branches."""
    cfg = cfg if cfg is not None else BEQConfig()
    return bounded_error_search(SimAndSearchOracle(handle), cfg, rng_seed)


@dataclass
class TrainResult:
    """Outcome of one version-space training run."""

    plane: Hyperplane | None
    outcome: SearchOutcome
    sampled: int
    failure_kind: str | None = None  # "sampling" | "search" | None

    @property
    def found(self) -> bool:
        return self.plane is not None


def train_perceptron(
    data: Dataset,
    epsilon: float,
    cfg: BEQConfig | None = None,
    rng_seed=None,
    c: float = 2.0,
) -> TrainResult:
    """Sample K = ceil(c ln(1/eps) / gamma) Gaussian hyperplanes, build the
    classification oracle and search it for a version-space member.  On
    NotFound the result distinguishes "no sampled plane separates the data"
    from "the search missed one" via an unmetered table scan."""
    from .baselines import brute_force_g  # baselines imports this module
    gamma = data.claimed_margin
    K = required_sample_count(gamma, epsilon, c)
    _require_state_fits(data.n_points, K)
    rng = np.random.default_rng(rng_seed)
    plane_seed, search_seed = (int(s) for s in rng.integers(0, 2**63, size=2))
    planes = sample_hyperplanes(K, data.dim, plane_seed)
    handle = OracleHandle(from_perceptron(data, planes))
    outcome = multi_criterion_search(handle, cfg, search_seed)
    if outcome.found and outcome.index < K:
        return TrainResult(plane=planes[outcome.index], outcome=outcome, sampled=K)
    kind = "search" if brute_force_g(handle).any() else "sampling"
    return TrainResult(plane=None, outcome=outcome, sampled=K, failure_kind=kind)

