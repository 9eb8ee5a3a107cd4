"""Search layer: bounded-error search driven by the AND-simulation oracle,
with a randomized Grover schedule for an unknown number of marked items,
multi-criterion search, and the end-to-end version-space trainer.

Within one search run the unitary pieces are deterministic, so iterated
states and verification probabilities are computed once per table and
reused across Monte Carlo repetitions.  From the uniform start every
(AND-simulation, hyperplane diffusion) iterate has the exact form

    psi(r, j, i) = P[f, r, j] + Q[r, i] + f E[r & 1, i],  f = f(i, j),

over phase row r, hyperplane j and data row i, so a search holds three
factors (2 x 2**l x 2**k, 2**l x 2**n and 2 x 2**n complex) instead of
2**(l+k+n) amplitudes, and no factor is the size of the table.  Each
iteration applies the AND-simulation in its closed form from the Grover
spectrum of each column's row count (see :mod:`qvstrain.counting`), so no
Grover step is executed: :func:`_rotation_shifts` adds its per-(r, j)
shifts to P and :meth:`_SearchStack._step` its eigenspace corrections;
the diffusion over j negates P and E and adds twice their mean over j to
Q.  The only work of order 2**(l+k+n) is two products with the table per
iteration: Q's, for the f=1 row sums, and P[1] - P[0]'s, for the
diffusion's mean.  A verification shot votes "all ones" with the
probability P(readout = 10..0) = |mean_r mu[r, j]|**2, read for every
column j at once off the same evaluation of the spectrum
(:func:`_rotation_spectrum`, the kick vector that
:func:`~qvstrain.counting._kick_probabilities` returns).

Tables of one padded shape can be searched through one stack
(:meth:`SimAndSearchOracle.stack`): their states are held with a leading
table axis and advanced together, each product and reduction still per
table, so a table's numbers do not depend on the stack it is in; a single
search is a stack of one.  The search is one fixed construction: a
majority vote of VERIFY_REPEATS shots per candidate, and at most
MAX_ROUNDS passes of the randomized-iteration schedule.  The kernels
charge nothing; the search alone charges the ledger, once per run, from
the iterations and shots it tallies: one AND-simulation per Grover
iteration and one controlled AND-simulation per verification shot
(:func:`meter_sim_and`).

Every array over two of the axes r, j and i, each iteration's scratch
included, is laid out by :func:`_stack_plan` in one allocation made when
the search is built, so an iteration allocates only vectors.  A search
whose peak (:func:`search_state_bytes`: the plan, the vectors and numpy's
buffers, for one table or a stack) would exceed :func:`state_byte_limit`
(the machine's physical memory, or the address-space limit less what the
process maps, if smaller) is refused before anything is allocated; the
stack checks again just before its allocation.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import resource
from dataclasses import dataclass, field

import numpy as np

from .counting import _kick_probabilities, l_bits, meter_sim_and
from .oracles import OracleHandle, QueryLedger, _ceil_log2, _padded_f, from_perceptron
from .perceptron import Dataset, required_sample_count, sample_hyperplanes

GROWTH = 6.0 / 5.0
SMALL_ARRAY_BYTES = 1 << 15
# Kickback shots in a candidate's majority vote: odd, so no vote ties; if
# each shot errs with probability at most 1/3, the vote errs with at most 0.09.
VERIFY_REPEATS = 15
# Passes of the full randomized-iteration schedule before the search reports
# NotFound.
MAX_ROUNDS = 3


@functools.cache
def _map_blas_buffer() -> None:
    """One 256 x 256 product, once per process, so that the BLAS work buffer
    (32 MiB with OpenBLAS, kept once mapped) is mapped."""
    probe = np.ones((256, 256))
    np.dot(probe, probe)


def physical_memory() -> int:
    """Bytes of the machine's physical memory, which every process shares."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def state_byte_limit() -> int:
    """Bytes a search state may take: the machine's physical memory, or, if
    smaller, the address-space limit (RLIMIT_AS) less what the process maps
    (VmSize; 0 without /proc), read after :func:`_map_blas_buffer` so that
    it includes the BLAS work buffer."""
    limit = physical_memory()
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        return limit
    _map_blas_buffer()
    try:
        with open("/proc/self/statm") as fh:
            soft -= int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        pass
    return min(limit, soft)


def _require_bytes(need: int, what: str) -> None:
    """Raise a ValueError opening with ``what`` ("the tables need") if
    ``need`` bytes exceed :func:`state_byte_limit`."""
    limit = state_byte_limit()
    if need > limit:
        raise ValueError(f"{what} {need} bytes, over the limit of {limit} bytes")


def _stack_plan(n: int, k: int, tables: int) -> dict[str, tuple[tuple[int, ...], np.dtype]]:
    """The shape and dtype of every array over (r, j), (r, i) or (j, i) that
    a stack of ``tables`` searches over 2**n x 2**k tables holds, in the
    order :class:`_SearchStack` lays them out in its one allocation: the
    tables f (the C arrays the stack reads transposed), P's two halves, the
    rotation spectrum mu, psi's sums over the f=0 and the f=1 rows, Q, and
    the scratch every iteration writes, one complex (r, j) and one float
    (r, i) array."""
    c16, f8 = np.dtype(np.complex128), np.dtype(np.float64)
    dl = 1 << l_bits(n)
    rj, ri = ((tables, dl, 1 << k), c16), (tables, dl, 1 << n)
    return {"f": ((tables, 1 << n, 1 << k), f8), "p0": rj, "p1": rj, "mu": rj, "sum_a": rj,
            "sum_b": rj, "q": (ri, c16), "scratch": rj, "floats": (ri, f8)}


def search_state_bytes(n_rows: int, n_cols: int, tables: int = 1) -> int:
    """Bytes a search over an N x K table holds at its peak, or a stack of
    ``tables`` such searches advanced together (:class:`SimAndSearchOracle`):
    the arrays of :func:`_stack_plan`; per table, every reachable marginal
    with its CDF and the kick vector, 256 bytes per data row for E and the
    vectors over i, and 256 bytes per plane for the vectors over j (the
    shifts' weights and sums over r); once per stack, numpy's iterator
    buffers (three complex operands) and SMALL_ARRAY_BYTES for the rest."""
    n, k = _ceil_log2(n_rows), _ceil_log2(n_cols)
    planned = sum(math.prod(shape) * dtype.itemsize
                  for shape, dtype in _stack_plan(n, k, tables).values())
    marginals = 8 * (1 << k) * (2 * _iteration_cap(k) + 2)
    vectors = 256 * ((1 << n) + (1 << k))
    shared = 48 * np.getbufsize() + SMALL_ARRAY_BYTES
    return planned + tables * (marginals + vectors) + shared


def _require_state_fits(n_rows: int, n_cols: int) -> None:
    """Refuse, before anything is built, a search over an N x K table whose
    state (:func:`search_state_bytes`) would exceed :func:`state_byte_limit`."""
    _require_bytes(search_state_bytes(n_rows, n_cols), "the search state needs")


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


@functools.cache
def _schedule(k: int) -> tuple[int, ...]:
    """The r bound max(1, ceil(m)) of every round: m grows by 6/5 a round,
    capped at ceil(pi/4 * sqrt(2**k)), and the growth is repeated
    MAX_ROUNDS times."""
    cap = float(_iteration_cap(k))
    bounds, m = [], 1.0
    while True:
        bounds.append(max(1, math.ceil(m)))
        if m >= cap:
            return tuple(bounds) * MAX_ROUNDS
        m = min(m * GROWTH, cap)


def _cdf(marginal: np.ndarray) -> np.ndarray:
    """The CDF that ``Generator.choice(size, p=marginal)`` builds, for each
    marginal along the last axis: the cumulative sum, divided by its last
    entry."""
    cdf = marginal.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _draw(cdf: np.ndarray, rng) -> int:
    """The index ``rng.choice(cdf.size, p=marginal)`` returns for the
    marginal of ``cdf`` (:func:`_cdf`), from the same one ``rng.random()``
    draw, so the generator ends in the same state, without choice's
    per-call checks of p."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _rotation_spectrum(ones, n: int, mu, buf) -> tuple[np.ndarray, ...]:
    """Per column of a stack of tables with ``ones`` its (tables, columns)
    f = 1 row counts out of 2**n, from one call of
    :func:`~qvstrain.counting._kick_probabilities`, which writes the
    spectrum into ``buf`` (a complex C array of mu's size) in its
    (tables, columns, 2**l) layout, then copied into ``mu``, the
    (tables, 2**l, columns) C array that :func:`_rotation_shifts` reads:
    the f=0 and the f=1 row counts as one (2, tables, 1, columns) array;
    the (tables, columns) kick probabilities that call returns; and mu's
    (5, 2, tables, 1, columns) complex weights per column.  With a and b
    the inverse square roots of the two row counts (0 for an empty count)
    and c = 2/2**l, the weights' rows are [a, ib] and [a, -ib] (kx and ky
    from the rotation-plane sums), [c a**2, c b**2] (the row means), and
    [-c a/2, -c a/2] and [ic b/2, -ic b/2] (the f=0 and the f=1 rows'
    factors of dx and dy).
    The size-1 axes broadcast over r."""
    tables, dl, columns = mu.shape
    spectrum = buf.reshape(tables, columns, dl)
    kicks = _kick_probabilities(ones, n, dl.bit_length() - 1, out=spectrum)
    np.copyto(mu, spectrum.transpose(0, 2, 1))
    counts = np.array([(1 << n) - ones, ones])[:, :, None]
    inv = np.divide(1.0, np.sqrt(counts), out=np.zeros(counts.shape), where=counts > 0)
    coef = inv[[0, 1, 0, 1, 0, 1, 0, 0, 1, 1]].reshape(5, 2, *inv.shape[1:])  # [a, b] ... [b, b]
    coef[2] **= 2
    c = 2.0 / dl
    scale = np.array([[1.0, 1j], [1.0, -1j], [c, c], [-0.5 * c, -0.5 * c], [0.5j * c, -0.5j * c]])
    return counts, kicks, coef * scale[:, :, None, None, None]


@functools.cache
def _phase_rows(dl: int) -> np.ndarray:
    """Real weights over the dl values r of a phase register, as the rows of
    one read-only (4, dl) array: 1, (-1)**r, 1 on the even r and 1 on the
    odd r."""
    rows = np.zeros((4, dl))
    rows[0] = 1.0
    rows[1] = 1.0 - 2.0 * (np.arange(dl) & 1)
    rows[2, 0::2] = 1.0
    rows[3, 1::2] = 1.0
    rows.flags.writeable = False
    return rows


def _row_sums(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``weights @ x`` for a complex (..., 2**l, m) C array x and real
    weights over r (one row, or a stack of rows of :func:`_phase_rows`), from
    one real product per table with x's float view: numpy's sums over a
    leading axis cost more than the product."""
    return (weights @ x.view(np.float64)).view(np.complex128)


def _by_parity(x: np.ndarray) -> np.ndarray:
    """A (..., 2**l, m) array viewed as (..., 2**(l-1), 2, m), with axis -2
    the parity of the phase row r."""
    return x.reshape(*x.shape[:-2], -1, 2, x.shape[-1])


def _rotation_shifts(sum_a, sum_b, mu, coef, buf) -> tuple[np.ndarray, np.ndarray]:
    """The part of SimAnd = I - 2 sum_lambda |u_lambda><u_lambda| (x) Pi_lambda
    that is constant over the f=0 rows and over the f=1 rows of each (r, j).

    ``sum_a`` and ``sum_b`` are the (tables, 2**l, columns) complex sums of
    a stack of states over the f=0 and the f=1 rows; ``mu`` and ``coef`` are
    :func:`_rotation_spectrum`'s.  The -1 eigenspace (zero-sum part of the
    f=0 rows) pairs with u_r = 1/sqrt(2**l), so the f=0 rows lose 2/2**l
    times the plain sum over r; the +1 eigenspace (zero-sum part of the f=1
    rows) pairs with u_r = w_r, the alternating sum.  Those two corrections
    are :meth:`_SearchStack._step`'s; they also remove the row means, which
    ``shift_a`` and ``shift_b`` put back.  The rotation plane is handled in its eigenbasis
    x = alpha + i beta (lambda = e^{2i theta}), y = alpha - i beta
    (lambda = e^{-2i theta}), with alpha, beta the normalized f=0 and f=1
    row sums.

    The six sums over r (of mu and conj(mu) times each row sum, and the row
    sums' plain and alternating sums) are products with rows of
    :func:`_phase_rows` into one array, weighted per column by ``coef`` in
    one product; each product with mu or conj(mu) is written into ``buf``
    (a complex array of mu's shape) or over the consumed sums, so the kernel
    allocates nothing of their size.  Every product runs per table, so each
    table's shifts do not depend on the stack it is in.

    Returns what each f=0 row (``shift_a``) and each f=1 row (``shift_b``)
    of (r, j) gains, written over ``sum_a`` and ``sum_b``."""
    ones, signs = _phase_rows(mu.shape[1])[:2]
    pairs_a, pairs_b = sum_a.view(np.float64), sum_b.view(np.float64)
    np.multiply(mu, sum_a, out=buf)
    pairs = buf.view(np.float64)
    sums = np.empty((6, pairs.shape[0], pairs.shape[2]))
    np.matmul(ones, pairs, out=sums[0])
    np.multiply(mu, sum_b, out=buf)
    np.matmul(ones, pairs, out=sums[1])
    np.matmul(ones, pairs_a, out=sums[4])
    np.matmul(signs, pairs_b, out=sums[5])
    np.conjugate(mu, out=buf)
    np.multiply(buf, sum_a, out=sum_a)
    np.matmul(ones, pairs_a, out=sums[2])
    np.multiply(buf, sum_b, out=sum_b)
    np.matmul(ones, pairs_b, out=sums[3])
    # [[a mu.a, ib mu.b], [a mu~.a, -ib mu~.b], [c a**2 sum a, c b**2 alt b]]:
    # the first two rows sum to kx and ky, sqrt(2**(l+1)) times the
    # rotation-plane amplitudes on <u_lambda|; the last holds the row means
    sums = sums.view(np.complex128).reshape(coef[:3].shape)
    sums *= coef[:3]
    # factors[h] scales dx = conj(mu) kx and dy = mu ky into the f=h rows' shift
    factors = coef[3:] * sums[:2].sum(axis=1)
    np.multiply(buf, factors[0, 0], out=sum_a)
    np.multiply(buf, factors[1, 0], out=sum_b)
    np.multiply(mu, factors[0, 1], out=buf)
    buf += sums[2, 0]
    sum_a += buf
    np.multiply(mu, factors[1, 1], out=buf)
    alternating = _by_parity(buf)
    alternating += signs[:2, None] * sums[2, 1][:, :, None]
    sum_b += buf
    return sum_a, sum_b


class _SearchStack:
    """The factors of :class:`SimAndSearchOracle` for T tables of one padded
    shape, held with a leading table axis and advanced together: every
    product and reduction runs per table, in the order one table alone
    runs it, so a table's marginals, CDFs and kicks do not depend on the
    stack it is in.  Every array over (r, j), (r, i) or (j, i), the scratch
    included, is a part of one allocation laid out by :func:`_stack_plan`:
    the tables (:func:`~qvstrain.oracles._padded_f`), the spectrum and
    each iteration write into them, so an iteration allocates only
    vectors."""

    def __init__(self, handles: list[OracleHandle]):
        n, k = handles[0].n, handles[0].k
        if any((h.n, h.k) != (n, k) for h in handles):
            raise ValueError("the tables of a stack must share one padded shape")
        tables = len(handles)
        _require_bytes(search_state_bytes(1 << n, 1 << k, tables), "the search state needs")
        self.l = l_bits(n)
        dl, dk, dn = 1 << self.l, 1 << k, 1 << n
        # one block, reused whole by the next build once freed: freed arrays
        # under the allocator's mmap threshold let it trim the heap, and
        # each build would fault the same pages in again
        plan = _stack_plan(n, k, tables).values()
        sizes = [math.prod(shape) * dtype.itemsize for shape, dtype in plan]
        block = np.empty(sum(sizes), np.uint8)
        f, *self.p, self._mu, self._sum_a, self._sum_b, self.q, self._scratch, self._floats = (
            np.ndarray(shape, dtype, buffer=block, offset=start)
            for (shape, dtype), start in zip(plan, itertools.accumulate(sizes, initial=0)))
        self.f = _padded_f([h.table for h in handles], f)
        for half in self.p:
            half.fill(0.0)
        self.q.fill(1.0 / math.sqrt(dl * dk * dn))
        self.e = np.zeros((tables, 2, dn), dtype=np.complex128)
        self._counts, self.kicks, self._coef = _rotation_spectrum(
            self.f.sum(axis=-1), n, self._mu, self._scratch)
        self._cols = self.f.sum(axis=1)[:, None]  # f=1 columns per row
        # views every iteration reads, as the arrays are updated in place:
        # f by data row; Q, P[1] and the f=1 sums by the parity of r; Q's
        # and P's real and imaginary parts; Q as one row and one column of
        # floats per table; the scratch as two float (T, 2**l, 2**k) halves
        self._f_t = self.f.transpose(0, 2, 1)
        self._q_parity, self._p1_parity = _by_parity(self.q), _by_parity(self.p[1])
        self._sum_b_parity = _by_parity(self._sum_b)
        self._q_parts = [self.q.view(np.float64)[:, :, x::2] for x in range(2)]
        self._p_parts = [[half.view(np.float64)[:, :, x::2] for half in self.p] for x in range(2)]
        self._q_row = self.q.view(np.float64).reshape(tables, 1, -1)
        self._q_col = self._q_row.transpose(0, 2, 1)
        self._halves = self._scratch.view(np.float64).reshape(2, tables, dl, dk)
        # the uniform start has P = E = 0: psi's sums are Q's, and each
        # plane's weight in the marginal is |Q|**2 (adding the zero terms
        # would change no bit)
        self._q_sums()
        self.marginals, self.cdfs = [], []
        weights = np.empty((tables, dk))
        weights[:] = self._q_norms()
        self._add_marginal(weights)

    def _ones_sums(self, x: np.ndarray) -> np.ndarray:
        """Each row of x summed over the f=1 rows of every column, x @ f^T
        per table, from two real products."""
        f_t = self._f_t
        out = np.empty((*x.shape[:-1], f_t.shape[-1]), dtype=np.complex128)
        out.real = x.real @ f_t
        out.imag = x.imag @ f_t
        return out

    def _q_sums(self) -> None:
        """Q's sums over the f=0 and over the f=1 rows of each (r, j), into
        the sums, and over the even and the odd phase rows.  Each part of Q
        is copied into the float scratch for its product with f: numpy would
        copy the strided part itself, outside the planned memory."""
        q, sum_b = self.q, self._sum_b
        for part, half in zip(self._q_parts, self._halves):
            np.copyto(self._floats, part)
            np.matmul(self._floats, self._f_t, out=half)
        sum_b.real, sum_b.imag = self._halves
        np.subtract(q.sum(axis=2)[:, :, None], sum_b, out=self._sum_a)
        self._q_par = _row_sums(_phase_rows(q.shape[1])[2:], q)

    def _reduce(self) -> None:
        """The sums that both the marginal and the next AND-simulation read:
        psi's sums over the f=0 and over the f=1 rows of each (r, j), and Q's
        sums over the even and the odd phase rows."""
        self._q_sums()
        for sums, count, half in zip((self._sum_a, self._sum_b), self._counts, self.p):
            np.multiply(count, half, out=self._scratch)
            sums += self._scratch
        self._sum_b_parity += self._ones_sums(self.e)[:, None]

    def _q_norms(self) -> np.ndarray:
        """|Q|**2 per table, as a (T, 1) column: one dot product of Q's
        float view with itself."""
        return (self._q_row @ self._q_col)[:, 0]

    def _step(self) -> None:
        """One AND-simulation, then the diffusion over the hyperplane
        register, on the factors.  With w = 2/2**l, the f=0 rows lose w times
        the plain sum of psi over r and the f=1 rows (-1)**r w times its
        alternating sum.  On Q the two differ by 2w times its sum over the
        phase rows of the other parity, which E takes; since w times the
        2**(l-1) rows of one parity is 1, E's own term moves to the other
        parity unchanged.  The diffusion's negation of P is folded into its
        update: each half becomes its correction less (P + shift)."""
        f, p, q, e, q_par = self.f, self.p, self.q, self.e, self._q_par
        dl, dk = p[0].shape[1:]
        rows = _phase_rows(dl)
        w = 2.0 / dl
        corr_a = (w * _row_sums(rows[0], p[0]))[:, None]
        corr_b = (w * _row_sums(rows[1], p[1]))[:, None, None] * rows[1, :2, None]
        # the shifts are written over the sums
        shifts = _rotation_shifts(self._sum_a, self._sum_b, self._mu, self._coef, self._scratch)
        for half, shift in zip(p, shifts):
            half += shift
        np.subtract(corr_a, p[0], out=p[0])
        np.subtract(corr_b, self._p1_parity, out=self._p1_parity)
        e[:] = e[:, ::-1] + 2.0 * w * q_par[:, ::-1]
        # Q less w times its sum over r, plus 2/2**k times the sum over j of
        # P[f] + f E before P's negation, where sum_j P[f(i, j), r, j] =
        # sum_j P[0, r, j] + ((P[1] - P[0]) @ f)[r, i]
        g = 2.0 / dk
        self._q_parity += (g * self._cols * e - w * (q_par[:, 0] + q_par[:, 1])[:, None])[:, None]
        q -= (g * p[0].sum(axis=2))[:, :, None]
        # g (P[1] - P[0]) before the negation, its real and imaginary parts
        # in the scratch's two halves, C arrays the products read in place
        d_p = self._halves
        for x in range(2):
            np.subtract(*self._p_parts[x], out=d_p[x])
        d_p *= g
        for x in range(2):  # one (T, 2**l, 2**n) product at a time
            np.matmul(d_p[x], f, out=self._floats)
            self._q_parts[x] += self._floats
        np.negative(e, out=e)

    def _plane_weights(self) -> np.ndarray:
        """The sum over r and i of |psi|**2 for each hyperplane j of each
        table: P's terms read off the row sums, |Q|**2, and the sum over r
        of |Q + E|**2 - |Q|**2 on the f=1 rows."""
        p, e, q_par, t = self.p, self.e, self._q_par, self._scratch
        tables, dl, dk = p[0].shape
        # twice the sum over r of Re(conj(P) (sums - count P / 2)) per half
        ones = _phase_rows(dl)[0]
        terms = []
        for p_f, sum_f, count in zip(p, (self._sum_a, self._sum_b), self._counts):
            np.multiply(p_f, -0.5 * count, out=t)
            t += sum_f
            pairs = t.view(np.float64)
            pairs *= p_f.view(np.float64)
            terms.append(ones @ pairs)
        terms[0] += terms[1]
        weights = 2.0 * terms[0].reshape(tables, dk, 2).sum(axis=2)  # the (real, imag) pair per plane
        weights += self._q_norms()
        extra = ((2.0 * q_par + (dl // 2) * e).conj() * e).real.sum(axis=1)
        weights += (self.f @ extra[:, :, None])[:, :, 0]
        return weights

    def _add_marginal(self, weights: np.ndarray) -> None:
        """Cache the marginals of the current iterates, normalized from
        their (T, 2**k) plane weights, and their CDFs."""
        # cancellation can leave a true zero a rounding error below 0
        np.maximum(weights, 0.0, out=weights)
        self.marginals.append(weights / weights.sum(axis=1, keepdims=True))
        self.cdfs.append(_cdf(self.marginals[-1]))

    def advance(self, r: int) -> None:
        """Advance every table to at least r (reflection, diffusion)
        iterations from the fully uniform state."""
        while len(self.marginals) <= r:
            self._step()
            self._reduce()
            self._add_marginal(self._plane_weights())


class SimAndSearchOracle:
    """The AND-simulation circuit bound to an oracle handle, prepared for use
    as the reflection inside bounded-error search, over the factored state
    of the module docstring.

    The factors live in a stack of tables of one padded shape, advanced
    together (:meth:`stack`); ``SimAndSearchOracle(handle)`` is a stack of
    one.  The stack caches the deterministic pieces per table: the factors,
    advanced in place to the largest iteration count any of its tables has
    asked for; the hyperplane marginal after every iteration so far, with
    the CDF its candidates are drawn from; and the kick vector, every
    column's verification probability.  This oracle reads its table's row
    of each.  Nothing here charges the ledger; the search charges each run
    once, from its tallies, through :func:`meter_sim_and`.
    """

    def __init__(self, handle: OracleHandle, *, _stack: _SearchStack | None = None,
                 _table: int = 0):
        """The oracle of ``handle``, table ``_table`` of the stack ``_stack``,
        or of a stack of one built here if that is None."""
        self.handle = handle
        self.n = handle.n
        self.k = handle.k
        self._stack = _SearchStack([handle]) if _stack is None else _stack
        self._table = _table
        self.l = self._stack.l
        self._kicks = self._stack.kicks[_table]

    @classmethod
    def stack(cls, handles: list[OracleHandle]) -> list[SimAndSearchOracle]:
        """One oracle per handle, over one stack of the handles' tables,
        which must share one padded shape.  The stack is checked against
        :func:`state_byte_limit` before its tables and factors are built."""
        shared = _SearchStack(handles)
        return [cls(h, _stack=shared, _table=t) for t, h in enumerate(handles)]

    def plane_marginal(self, r: int) -> np.ndarray:
        """Measurement distribution of the hyperplane register after r
        (reflection, diffusion) iterations from the fully uniform state."""
        self._stack.advance(r)
        return self._stack.marginals[r][self._table]

    def sample_plane(self, r: int, rng) -> int:
        """One measurement of the hyperplane register after r iterations:
        the index ``rng.choice(size, p=plane_marginal(r))`` returns, read
        off the cached CDF (:func:`_draw`)."""
        self.plane_marginal(r)
        return _draw(self._stack.cdfs[r][self._table], rng)

    def kick_probability(self, j: int) -> float:
        """Probability that one phase-kickback shot votes "column j is all
        ones": (1 - Re <in|SimAnd|in>) / 2 = |mean_r mu[r, j]|**2 on the |j>
        component.  A phantom column has no f = 1 rows, so theta = 0 and
        mu[r, j] = (-1)**r: its probability is exactly 0.0, no shot votes
        for it, and the search never returns a padded index."""
        return self._kicks[j]


def _majority_vote(p: float, rng) -> tuple[bool, int]:
    """Majority of VERIFY_REPEATS kickback shots, each voting "all ones"
    with probability ``p``, stopping early once decided: (accepted, shots
    drawn)."""
    need = VERIFY_REPEATS // 2 + 1
    ones = zeros = 0
    while ones < need and zeros < need:
        if rng.random() < p:
            ones += 1
        else:
            zeros += 1
    return ones >= need, ones + zeros


def bounded_error_search(oracle: SimAndSearchOracle, rng_seed=None) -> SearchOutcome:
    """Search for a hyperplane index whose entire column is 1, using the
    AND-simulation circuit both as the (imperfect) Grover reflection and,
    through majority-voted phase-kickback shots, as the verifier of each
    measured candidate."""
    rng = np.random.default_rng(rng_seed)
    rounds = iterations = verifications = 0
    found = None
    for bound in _schedule(oracle.k):
        rounds += 1
        r = int(rng.integers(0, bound))
        j = oracle.sample_plane(r, rng)
        iterations += r
        accepted, shots = _majority_vote(oracle.kick_probability(j), rng)
        verifications += shots
        if accepted:
            found = j
            break
    ledger = QueryLedger()
    meter_sim_and(ledger, oracle.l, times=iterations)
    meter_sim_and(ledger, oracle.l, times=verifications, controlled=True)
    for tag, value in ledger.snapshot().items():
        oracle.handle.ledger.record(tag, value)
    trials = {"rounds": rounds, "iterations": iterations, "verification_shots": verifications}
    return SearchOutcome(index=found, queries=ledger.snapshot(), trials=trials)


def multi_criterion_search(handle: OracleHandle, rng_seed=None) -> SearchOutcome:
    """Find j with f(i, j) = 1 for every data row i, with bounded error on
    both the Found and NotFound branches."""
    return bounded_error_search(SimAndSearchOracle(handle), rng_seed)


@dataclass
class TrainResult:
    """Outcome of one version-space training run."""

    plane: np.ndarray | None  # the found row [w | b] of the sampled planes
    outcome: SearchOutcome
    sampled: int
    failure_kind: str | None = None  # "sampling" | "search" | None

    @property
    def found(self) -> bool:
        return self.plane is not None


def train_perceptron(
    data: Dataset,
    epsilon: float,
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
    outcome = multi_criterion_search(handle, search_seed)
    if outcome.found:
        return TrainResult(plane=planes[outcome.index], outcome=outcome, sampled=K)
    kind = "search" if brute_force_g(handle).any() else "sampling"
    return TrainResult(plane=None, outcome=outcome, sampled=K, failure_kind=kind)

