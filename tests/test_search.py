import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qvstrain.counting import _kick_probabilities, l_bits, sim_and
from qvstrain.oracles import OracleHandle, TruthTable, _column_counts
from qvstrain.perceptron import generate_planted_dataset, in_version_space
from qvstrain import search
from qvstrain.search import (
    SimAndSearchOracle,
    bounded_error_search,
    multi_criterion_search,
    search_state_bytes,
    train_perceptron,
)
from qvstrain.statevec import new_uniform

from .conftest import random_kernel_table

class TestBoundedErrorSearch:
    def test_fixture_finds_solution_column(self, fixture_handle):
        oracle = SimAndSearchOracle(fixture_handle)
        hits = sum(
            bounded_error_search(oracle, rng_seed=seed).index == 2
            for seed in range(60)
        )
        assert hits >= 40

    def test_all_zero_table_not_found(self):
        handle = OracleHandle(TruthTable(np.zeros((4, 4), dtype=np.uint8)))
        out = bounded_error_search(SimAndSearchOracle(handle), rng_seed=3)
        assert not out.found
        assert out.trials["reason"] == "budget_exhausted"

    def test_all_ones_table_finds_anything(self):
        handle = OracleHandle(TruthTable(np.ones((4, 4), dtype=np.uint8)))
        out = bounded_error_search(SimAndSearchOracle(handle), rng_seed=4)
        assert out.found and 0 <= out.index < 4

    def test_all_marked_first_round(self):
        # every candidate is a solution, so the first round's is accepted
        handle = OracleHandle(TruthTable(np.ones((8, 8), dtype=np.uint8)))
        for seed in range(10):
            out = bounded_error_search(SimAndSearchOracle(handle), rng_seed=seed)
            assert out.found and out.trials["rounds"] == 1

    def test_query_metering_matches_cost_model(self, fixture_handle):
        oracle = SimAndSearchOracle(fixture_handle)
        out = bounded_error_search(oracle, rng_seed=5)
        l = l_bits(fixture_handle.n)
        expected = (
            out.trials["iterations"] * 4 * (2**l - 1)
            + out.trials["verification_shots"] * 8 * (2**l - 1)
        )
        assert out.queries["bit_oracle"] == expected
        assert out.queries["classical_f"] == 0

    def test_handle_ledger_accumulates(self, fixture_handle):
        oracle = SimAndSearchOracle(fixture_handle)
        before = fixture_handle.ledger.snapshot()["bit_oracle"]
        out = bounded_error_search(oracle, rng_seed=6)
        after = fixture_handle.ledger.snapshot()["bit_oracle"]
        assert after - before == out.queries["bit_oracle"]

    def test_soundness_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            bits = (rng.random((1 << n, 1 << k)) < rng.uniform(0.3, 0.9)).astype(np.uint8)
            handle = OracleHandle(TruthTable(bits))
            seed = int(rng.integers(2**31))
            out = bounded_error_search(SimAndSearchOracle(handle), rng_seed=seed)
            if out.found:
                assert bits[:, out.index].all()

    def test_single_row_reduces_to_plain_search(self):
        # N = 1: the data register is empty and the circuit is an exact
        # phase oracle on the row's entries
        bits = np.array([[0, 1, 0, 0]], dtype=np.uint8)
        handle = OracleHandle(TruthTable(bits))
        assert handle.n == 0
        hits = 0
        for seed in range(30):
            out = bounded_error_search(SimAndSearchOracle(handle), rng_seed=seed)
            hits += out.index == 1
        assert hits >= 20


class TestSimAndSearchOracle:
    def test_marginals_independent_of_request_order(self, fixture_handle):
        jumped = SimAndSearchOracle(fixture_handle)
        stepped = SimAndSearchOracle(fixture_handle)
        jump = {6: jumped.plane_marginal(6), 2: jumped.plane_marginal(2)}
        steps = [stepped.plane_marginal(r) for r in range(7)]
        for r, marginal in jump.items():
            np.testing.assert_array_equal(marginal, steps[r])

    def test_holds_no_full_register_array(self, fixture_handle):
        oracle = SimAndSearchOracle(fixture_handle)
        oracle.plane_marginal(6)
        dim = 1 << (oracle.l + oracle.k + oracle.n)
        assert max(v.size for v in held_arrays(oracle)) < dim

    def test_holds_no_table_sized_factor(self):
        # n = k = 8, l = 7: the table has 2**16 entries, each factor at most 2**15
        bits = (np.random.default_rng(5).random((256, 256)) < 0.9).astype(np.uint8)
        oracle = SimAndSearchOracle(OracleHandle(TruthTable(bits)))
        oracle.plane_marginal(2)
        assert (oracle.n, oracle.k, oracle.l) == (8, 8, 7)
        sizes = [v.size for v in held_arrays(oracle) if np.iscomplexobj(v)]
        assert sizes and max(sizes) < 1 << 16

    @pytest.mark.parametrize("shape", [(4, 3), (64, 47), (16, 200), (300, 4), (4096, 8),
                                       (256, 256)],
                             ids=["4x3", "64x47", "16x200", "300x4", "4096x8", "256x256"])
    def test_peak_allocation_within_search_state_bytes(self, shape):
        rng = np.random.default_rng(3)
        handle = OracleHandle(TruthTable((rng.random(shape) < 0.9).astype(np.uint8)))
        tracemalloc.start()
        try:
            SimAndSearchOracle(handle).plane_marginal(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= search_state_bytes(*shape)

    def test_state_size_limit_checked_first(self, fixture_handle, monkeypatch):
        need = search_state_bytes(4, 3)
        monkeypatch.setattr(search, "state_byte_limit", lambda: need)
        assert SimAndSearchOracle(fixture_handle).plane_marginal(0).size == 4
        monkeypatch.setattr(search, "state_byte_limit", lambda: need - 1)
        with pytest.raises(ValueError, match=f"needs {need} bytes"):
            SimAndSearchOracle(fixture_handle)

    def test_guard_maps_the_blas_buffer_once(self, monkeypatch):
        # under a cap every call reads what the process maps, but only the
        # first multiplies the probe that maps the BLAS work buffer
        products, reads = [], []
        dot, read = np.dot, open

        def counted(record, call):
            return lambda *args: record.append(args) or call(*args)

        monkeypatch.setattr(search.resource, "getrlimit", lambda _: (1 << 40, 1 << 40))
        monkeypatch.setattr(np, "dot", counted(products, dot))
        monkeypatch.setattr(search, "open", counted(reads, read), raising=False)
        search._map_blas_buffer.cache_clear()
        for _ in range(3):
            search.state_byte_limit()
        assert len(products) == 1 and len(reads) == 3

    @pytest.mark.parametrize("bits", [
        # a criterion-5 table whose zero column summed to -5.4e-16 unclipped
        [[1, 0, 0, 0], [1, 0, 1, 1]],
        [[0, 0, 0, 0]] * 4,
    ], ids=["criterion-5", "all-zero"])
    def test_marginals_are_distributions(self, bits):
        oracle = SimAndSearchOracle(OracleHandle(TruthTable(np.array(bits, dtype=np.uint8))))
        for r in range(9):
            marginal = oracle.plane_marginal(r)
            assert (marginal >= 0.0).all()
            assert marginal.sum() == pytest.approx(1.0, abs=1e-12)


def padded_tables(rng, n: int, k: int, count: int) -> list[OracleHandle]:
    """``count`` random tables of one padded shape (2**n rows, 2**k
    columns), each with its own row and column counts, so rows and columns
    are often padded."""
    def size(bits):
        return 1 if bits == 0 else int(rng.integers((1 << (bits - 1)) + 1, (1 << bits) + 1))

    return [OracleHandle(TruthTable((rng.random((size(n), size(k))) < rng.uniform(0.0, 1.0))
                                    .astype(np.uint8))) for _ in range(count)]


class TestSearchStack:
    """Tables of one padded shape searched through one stack: each table's
    oracle reads what its own one-table oracle reads, bit for bit."""

    @given(n=st.integers(0, 4), k=st.integers(0, 4), count=st.integers(1, 5),
           zero=st.booleans(), seed=st.integers(0, 2**31), data=st.data())
    @example(n=3, k=2, count=3, zero=True, seed=0, data=None)
    def test_each_table_reads_its_own_oracle(self, n, k, count, zero, seed, data):
        handles = padded_tables(np.random.default_rng(seed), n, k, count)
        if zero:
            handles[-1] = OracleHandle(TruthTable(np.zeros_like(handles[-1].table.bits)))
        stacked = SimAndSearchOracle.stack(handles)
        alone = [SimAndSearchOracle(handle) for handle in handles]
        # (table, r) requests in arbitrary order: the stack advances to the
        # largest r any table has asked for
        requests = st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, 6)),
                            min_size=1, max_size=12)
        for t, r in [(count - 1, 6), (0, 2)] if data is None else data.draw(requests):
            assert (stacked[t].plane_marginal(r) == alone[t].plane_marginal(r)).all()
            a, b = np.random.default_rng(seed + r), np.random.default_rng(seed + r)
            assert ([stacked[t].sample_plane(r, a) for _ in range(4)]
                    == [alone[t].sample_plane(r, b) for _ in range(4)])
        for s, a in zip(stacked, alone):
            columns = range(1 << k)
            assert [s.kick_probability(j) for j in columns] == [a.kick_probability(j)
                                                                for j in columns]

    def test_init_runs_once_per_table(self, monkeypatch):
        # a stacked oracle is built by the one constructor, as a lone one is
        calls = []
        init = SimAndSearchOracle.__init__

        def counted(self, handle, **kwargs):
            calls.append(kwargs.get("_table"))
            init(self, handle, **kwargs)

        monkeypatch.setattr(SimAndSearchOracle, "__init__", counted)
        oracles = SimAndSearchOracle.stack(padded_tables(np.random.default_rng(5), 2, 2, 3))
        assert calls == [0, 1, 2]
        assert [o._table for o in oracles] == [0, 1, 2]
        assert len({id(o._stack) for o in oracles}) == 1

    @given(n=st.integers(0, 4), k=st.integers(1, 4), count=st.integers(1, 4),
           seed=st.integers(0, 2**31))
    @example(n=2, k=2, count=3, seed=0)
    def test_phantom_columns_never_kick(self, n, k, count, seed):
        # a phantom column has theta = 0, so its spectrum (-1)**r sums to
        # exactly 0 and no vote shot (rng.random() < p) can accept it
        handles = padded_tables(np.random.default_rng(seed), n, k, count)
        stacked = SimAndSearchOracle.stack(handles)
        for handle, oracle in zip(handles, stacked, strict=True):
            for o in (oracle, SimAndSearchOracle(handle)):
                assert [o.kick_probability(j) for j in range(handle.n_cols, 1 << k)] == \
                    [0.0] * ((1 << k) - handle.n_cols)

    def test_tables_of_other_shapes_refused(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="one padded shape"):
            SimAndSearchOracle.stack(padded_tables(rng, 2, 2, 2) + padded_tables(rng, 3, 2, 1))

    def test_state_size_limit_checked_first(self, monkeypatch):
        handles = padded_tables(np.random.default_rng(1), 2, 2, 3)
        need = search_state_bytes(4, 4, 3)
        monkeypatch.setattr(search, "state_byte_limit", lambda: need)
        assert len(SimAndSearchOracle.stack(handles)) == 3
        monkeypatch.setattr(search, "state_byte_limit", lambda: need - 1)
        with pytest.raises(ValueError, match=f"needs {need} bytes"):
            SimAndSearchOracle.stack(handles)

    @given(n=st.integers(0, 4), k=st.integers(0, 4), count=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**31))
    @example(n=3, k=2, count=3, seed=0)
    def test_tables_are_laid_out_as_the_handles_f(self, n, k, count, seed):
        # the stack builds its own tables; each equals its handle's f, built
        # on first read, in the layout the products read
        handles = padded_tables(np.random.default_rng(seed), n, k, count)
        tables = search._SearchStack(handles).f
        assert not any("f" in vars(handle) for handle in handles)
        for table, handle in zip(tables, handles, strict=True):
            assert (table == handle.f).all()
            assert table.strides == handle.f.strides
            assert (_column_counts(handle) == handle.f.sum(axis=1)).all()

    @pytest.mark.parametrize("shape,count", [((4, 3), 5), ((64, 8), 3), ((64, 47), 6),
                                             ((16, 200), 2), ((300, 4), 4), ((256, 8), 3)],
                             ids=["4x3x5", "64x8x3", "64x47x6", "16x200x2", "300x4x4",
                                  "256x8x3"])
    def test_peak_allocation_within_search_state_bytes(self, shape, count):
        rng = np.random.default_rng(3)
        handles = [OracleHandle(TruthTable((rng.random(shape) < 0.9).astype(np.uint8)))
                   for _ in range(count)]
        tracemalloc.start()
        try:
            SimAndSearchOracle.stack(handles)[0].plane_marginal(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= search_state_bytes(*shape, count)

    @pytest.mark.parametrize("shape,count", [((4096, 8), 1), ((256, 256), 1), ((64, 8), 3)],
                             ids=["4096x8", "256x256", "64x8x3"])
    def test_iteration_allocates_only_vectors(self, shape, count):
        # the arrays over two of r, j and i are allocated when the stack is
        # built: an iteration allocates vectors and numpy's buffers only
        rng = np.random.default_rng(3)
        handles = [OracleHandle(TruthTable((rng.random(shape) < 0.9).astype(np.uint8)))
                   for _ in range(count)]
        oracle = SimAndSearchOracle.stack(handles)[0]
        oracle.plane_marginal(1)
        tracemalloc.start()
        try:
            oracle.plane_marginal(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vectors = count * 256 * ((1 << oracle.n) + (1 << oracle.k))
        assert peak <= vectors + 48 * np.getbufsize() + search.SMALL_ARRAY_BYTES

    @pytest.mark.parametrize("shape,count", [((4, 3), 1), ((64, 47), 1), ((300, 4), 1),
                                             ((64, 8), 3)],
                             ids=["4x3", "64x47", "300x4", "64x8x3"])
    def test_holds_exactly_the_planned_arrays(self, shape, count):
        rng = np.random.default_rng(4)
        handles = [OracleHandle(TruthTable((rng.random(shape) < 0.9).astype(np.uint8)))
                   for _ in range(count)]
        oracle = SimAndSearchOracle.stack(handles)[0]
        oracle.plane_marginal(3)
        # the C arrays over two of r, j and i, each once (f is held as the
        # transpose of its plan entry too)
        dl, dk, dn = 1 << oracle.l, 1 << oracle.k, 1 << oracle.n
        pairs = [sorted(pair) for pair in ((dl, dk), (dl, dn), (dk, dn))]
        held = {(a.ctypes.data, a.shape, a.dtype.str): a for a in held_arrays(oracle)
                if a.ndim == 3 and a.flags.c_contiguous and a.shape[0] == count
                and sorted(a.shape[1:]) in pairs}
        plan = search._stack_plan(oracle.n, oracle.k, count).values()
        assert sorted(key[1:] for key in held) == sorted((shape, np.dtype(dtype).str)
                                                         for shape, dtype in plan)
        # all parts of one allocation, of the plan's bytes
        (block,) = {id(a.base): a.base for a in held.values()}.values()
        assert block.nbytes == sum(a.nbytes for a in held.values())


# marginals over 1-64 planes, with zero entries and single-entry ones
marginal_weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1,
                            max_size=64).filter(lambda w: sum(w) > 0.0)


class TestCandidateDraw:
    """The search draws each candidate from a CDF cached per iteration count
    in place of ``Generator.choice(size, p=marginal)``; the two must give the
    same index from the same generator and leave it in the same state."""

    @given(weights=marginal_weights, seed=st.integers(0, 2**32), draws=st.integers(1, 20))
    @example(weights=[1.0], seed=0, draws=3)
    @example(weights=[0.0, 0.0, 1.0, 0.0], seed=1, draws=5)
    def test_cached_cdf_draw_equals_choice(self, weights, seed, draws):
        marginal = np.array(weights) / sum(weights)
        cached, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        cdf = search._cdf(marginal)
        for _ in range(draws):
            assert search._draw(cdf, cached) == reference.choice(marginal.size, p=marginal)
        assert cached.bit_generator.state == reference.bit_generator.state

    @given(seed=st.integers(0, 2**31))
    def test_sample_plane_equals_choice_on_marginal(self, seed):
        rng = np.random.default_rng(seed)
        oracle = SimAndSearchOracle(random_kernel_table(rng))
        cached, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for r in (0, 3, 1, 3):
            marginal = oracle.plane_marginal(r)
            assert oracle.sample_plane(r, cached) == reference.choice(marginal.size, p=marginal)
        assert cached.bit_generator.state == reference.bit_generator.state


@given(seed=st.integers(0, 2**31))
@example(seed=0)
def test_kick_vector_equals_kick_kernel(seed):
    # one spectrum feeds the kick vector and the shifts' constants; the kick
    # vector is still summed in the kernel's order, so it is equal bit for bit
    handle = random_kernel_table(np.random.default_rng(seed))
    oracle = SimAndSearchOracle(handle)
    kicks = np.array([oracle.kick_probability(j) for j in range(1 << oracle.k)])
    assert (kicks == _kick_probabilities(_column_counts(handle), oracle.n, oracle.l)).all()


def held_arrays(value):
    """Every array an oracle (or a container in it) holds."""
    if isinstance(value, np.ndarray):
        yield value
        return
    if isinstance(value, (SimAndSearchOracle, search._SearchStack)):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from held_arrays(v)


def dense_iterate(oracle) -> np.ndarray:
    """psi(r, j, i) = P[f, r, j] + Q[r, i] + f E[r & 1, i], f = f(i, j)."""
    dl, stack, t = 1 << oracle.l, oracle._stack, oracle._table
    f = oracle.handle.f > 0
    p = np.where(f, stack.p[1][t][:, :, None], stack.p[0][t][:, :, None])
    e = stack.e[t][np.arange(dl) & 1][:, None, :]
    return p + stack.q[t][:, None, :] + f * e


class TestFactoredState:
    """The factored iterate against its reference: the ladder ``sim_and`` on
    the gate engine, then the diffusion over the hyperplane register."""

    @given(rows=st.integers(1, 16), cols=st.integers(1, 8), seed=st.integers(0, 2**31))
    @example(rows=1, cols=6, seed=0)
    @example(rows=11, cols=1, seed=1)
    def test_iterates_equal_ladder_reference(self, rows, cols, seed):
        handle = random_kernel_table(np.random.default_rng(seed), rows, cols)
        oracle = SimAndSearchOracle(handle)
        layout = handle.layout(l=oracle.l)
        dl, dk, dn = 1 << layout.l, 1 << layout.k, 1 << layout.n
        ref = new_uniform(layout)
        for r in range(1, 5):
            sim_and(ref, layout, handle)
            psi = ref.amps.reshape(dl, dk, dn)
            psi[...] = 2.0 * psi.mean(axis=1, keepdims=True) - psi
            marginal = oracle.plane_marginal(r)
            assert np.abs(dense_iterate(oracle) - psi).max() < 1e-12
            expected = (np.abs(psi) ** 2).sum(axis=(0, 2))
            assert np.abs(marginal - expected / expected.sum()).max() < 1e-12

class TestMultiCriterionSearch:
    def test_fixture(self, fixture_handle):
        out = multi_criterion_search(fixture_handle, rng_seed=0)
        assert out.index == 2

    def test_padded_columns_never_returned(self):
        bits = np.ones((4, 3), dtype=np.uint8)  # k pads to 4 columns
        handle = OracleHandle(TruthTable(bits))
        for seed in range(20):
            out = multi_criterion_search(handle, rng_seed=seed)
            if out.found:
                assert out.index < 3


class TestTrainPerceptron:
    def test_easy_margin_trains(self):
        wins = 0
        for seed in range(20):
            data, _ = generate_planted_dataset(12, 2, 0.4, rng_seed=seed)
            result = train_perceptron(data, epsilon=0.1, rng_seed=seed)
            if result.found:
                assert in_version_space(data, result.plane)
                wins += 1
        assert wins >= 11  # conservative floor; empirically ~0.9

    def test_not_found_reports_kind(self):
        # a fully contradictory dataset has an empty version space, so the
        # failure must be labeled a sampling failure
        data, planted = generate_planted_dataset(8, 2, 0.2, rng_seed=1)
        from qvstrain.perceptron import Dataset

        twisted = Dataset(data.X, np.where(np.arange(8) % 2, data.y, -data.y),
                          claimed_margin=0.2)
        result = train_perceptron(twisted, epsilon=0.5, rng_seed=2)
        if not result.found:
            assert result.failure_kind == "sampling"

    def test_uses_sample_count_formula(self):
        data, _ = generate_planted_dataset(8, 2, 0.25, rng_seed=3)
        result = train_perceptron(data, epsilon=0.1, rng_seed=4)
        assert result.sampled == 19  # ceil(2 ln 10 / 0.25)


def test_search_never_builds_the_handles_f(monkeypatch):
    # only the gate engine reads a handle's f
    handle = OracleHandle(TruthTable(np.ones((4, 3), dtype=np.uint8)))
    multi_criterion_search(handle, rng_seed=0)
    stacked = padded_tables(np.random.default_rng(2), 2, 2, 3)
    for seed, oracle in enumerate(SimAndSearchOracle.stack(stacked)):
        bounded_error_search(oracle, rng_seed=seed)
    trained = []

    class Recorded(OracleHandle):
        def __init__(self, table):
            super().__init__(table)
            trained.append(self)

    monkeypatch.setattr(search, "OracleHandle", Recorded)
    data, _ = generate_planted_dataset(8, 2, 0.25, rng_seed=3)
    train_perceptron(data, epsilon=0.1, rng_seed=4)
    assert len(trained) == 1
    assert not any("f" in vars(h) for h in [handle, *stacked, *trained])


def test_search_outcome_result_codes(fixture_handle):
    out = multi_criterion_search(fixture_handle, rng_seed=1)
    assert out.result == out.index
    empty = OracleHandle(TruthTable(np.zeros((2, 2), dtype=np.uint8)))
    missing = multi_criterion_search(empty, rng_seed=1)
    assert missing.result == -1
