"""Search layer: randomized-schedule Grover search for an unknown number of
marked items, bounded-error search driven by the AND-simulation oracle,
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

The search holds one dense state of 2**(l+k+n) complex amplitudes
(16 bytes each) plus O(2**(l+k) + 2**(k+n)) temporaries; a search whose
state would exceed :func:`state_byte_limit` (the machine's physical memory,
or the process's address-space limit if that is smaller) is refused before
anything is allocated.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field

import numpy as np

from .counting import _diffuse_data, _sim_and_flat, l_bits, meter_sim_and, sim_and_overlap
from .oracles import OracleHandle, QueryLedger, _ceil_log2, from_perceptron
from .perceptron import Dataset, Hyperplane, required_sample_count, sample_hyperplanes

GROWTH = 6.0 / 5.0


def state_byte_limit() -> int:
    """Bytes a search state may take: the machine's physical memory, or the
    process's address-space limit (RLIMIT_AS) if that is smaller."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return limit if soft == resource.RLIM_INFINITY else min(limit, soft)


def _require_state_fits(n_rows: int, n_cols: int) -> None:
    """Refuse, before anything is built, a search over an N x K table whose
    state of 2**(l+k+n) amplitudes would exceed :func:`state_byte_limit`."""
    n, k = _ceil_log2(n_rows), _ceil_log2(n_cols)
    qubits = l_bits(n) + k + n
    limit = state_byte_limit()
    if 16 << qubits > limit:
        raise ValueError(
            f"the search state needs {16 << qubits} bytes (2**{qubits} "
            f"amplitudes), over the limit of {limit} bytes"
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


def _normalize_marked(k: int, marked) -> np.ndarray:
    """Only a predicate or a bool array of length 2**k is a mask; any other
    collection lists the marked indices, each in [0, 2**k)."""
    size = 1 << k
    if callable(marked):
        return np.array([bool(marked(j)) for j in range(size)])
    arr = np.asarray(marked if isinstance(marked, np.ndarray) else list(marked))
    if arr.dtype == bool and arr.shape == (size,):
        return arr.copy()
    idx = arr.astype(np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ValueError(f"marked indices must lie in [0, {size}), got {arr.tolist()}")
    flags = np.zeros(size, dtype=bool)
    flags[idx] = True
    return flags


def grover_search_unknown_m(k: int, marked, rng_seed, max_rounds: int = 3) -> SearchOutcome:
    """Grover search over 2**k items with an unknown number of marked ones:
    each round applies a uniformly drawn number of iterations below a
    growing bound, measures, and checks the candidate with one classical
    oracle query.  ``marked`` may be a predicate, a bool mask of length
    2**k, or a collection of marked indices."""
    flags = _normalize_marked(k, marked)
    rng = np.random.default_rng(rng_seed)
    size = 1 << k
    uniform = np.full(size, 1.0 / math.sqrt(size))
    oracle_queries = 0
    rounds = 0
    iterations = 0
    for m in _schedule(k, max_rounds):
        rounds += 1
        r = int(rng.integers(0, max(1, math.ceil(m))))
        amps = uniform.copy()
        for _ in range(r):
            amps[flags] *= -1.0
            amps = (2.0 * amps.mean()) - amps
            oracle_queries += 1
        iterations += r
        probs = amps**2
        j = int(rng.choice(size, p=probs / probs.sum()))
        oracle_queries += 1  # classical check of the candidate
        if flags[j]:
            return SearchOutcome(
                index=j,
                queries={"h_oracle": oracle_queries},
                trials={"rounds": rounds, "iterations": iterations},
            )
    return SearchOutcome(
        index=None,
        queries={"h_oracle": oracle_queries},
        trials={"rounds": rounds, "iterations": iterations, "reason": "budget_exhausted"},
    )


class SimAndSearchOracle:
    """The AND-simulation circuit bound to an oracle handle, prepared for use
    as the reflection inside bounded-error search.

    Caches the deterministic pieces per table: one full-register state,
    advanced in place by (reflection, hyperplane diffusion) iterations, the
    hyperplane marginal after every iteration so far, and the per-column
    verification overlaps.  Nothing here charges the ledger; the search
    charges each run through :func:`meter_sim_and`.
    """

    def __init__(self, handle: OracleHandle):
        self.handle = handle
        self.n = handle.n
        self.k = handle.k
        self.l = l_bits(handle.n)
        _require_state_fits(handle.n_rows, handle.n_cols)
        dim = 1 << (self.l + self.k + self.n)
        self._state = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
        self._marginals = [self._plane_marginal(self._state)]
        self._kick: dict[int, float] = {}

    def _plane_marginal(self, amps: np.ndarray) -> np.ndarray:
        dn, dk = 1 << self.n, 1 << self.k
        probs = np.abs(amps.reshape(-1, dk, dn)) ** 2
        marg = probs.sum(axis=(0, 2))
        return marg / marg.sum()

    def _extend_to(self, r: int) -> None:
        dn, dk = 1 << self.n, 1 << self.k
        while len(self._marginals) <= r:
            _sim_and_flat(self._state, self.n, self.k, self.l, self.handle.signs)
            _diffuse_data(self._state.reshape(-1, dk, dn), dk, axis=1)
            self._marginals.append(self._plane_marginal(self._state))

    def plane_marginal(self, r: int) -> np.ndarray:
        """Measurement distribution of the hyperplane register after r
        (reflection, diffusion) iterations from the fully uniform state."""
        self._extend_to(r)
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

