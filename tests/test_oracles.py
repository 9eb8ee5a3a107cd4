import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvstrain import oracles
from qvstrain.oracles import (
    OracleHandle,
    QueryLedger,
    TruthTable,
    apply_bit_oracle,
    apply_controlled_phase_oracle,
    apply_phase_oracle,
    controlled_phase_oracle_identity_gap,
    from_perceptron,
    load_truth_table,
    save_truth_table,
)
from qvstrain.perceptron import generate_planted_dataset, in_version_space, sample_hyperplanes
from qvstrain.statevec import StateVector, apply_open_controlled_z, new_uniform

from .conftest import random_state_amps


def random_table(rng, n_max=3, k_max=3) -> TruthTable:
    rows = 1 << int(rng.integers(1, n_max + 1))
    cols = 1 << int(rng.integers(1, k_max + 1))
    return TruthTable((rng.random((rows, cols)) < 0.5).astype(np.uint8))


class TestTruthTable:
    @pytest.mark.parametrize("bits", [[[0, 2]], [[1], [255]], [[0.5, 1.9]], [[-1, 1]]])
    def test_rejects_entries_other_than_zero_and_one(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            TruthTable(bits)

    def test_keeps_zero_one_entries(self):
        assert TruthTable([[0, 1], [1, 1]]).bits.tolist() == [[0, 1], [1, 1]]

    def test_handle_matrix_is_the_padded_f(self):
        handle = OracleHandle(TruthTable([[0, 1, 1], [1, 0, 1], [1, 1, 1]]))
        padded = np.zeros((4, 4), dtype=np.uint8)
        padded[:3, :3] = handle.table.bits
        padded[3, :3] = 1
        expected = padded.T.astype(np.float64)
        assert handle.f.dtype == np.float64
        assert np.array_equal(handle.f, expected)
        assert handle.f.strides == expected.strides


class TestFromPerceptron:
    def test_planted_instance_columns(self):
        # regenerated two-cluster instance: the planted plane gives an
        # all-ones column, two non-members each contain a zero
        data, planted = generate_planted_dataset(12, 2, 0.195, rng_seed=20)
        others = []
        seed = 0
        while len(others) < 2:
            (cand,) = sample_hyperplanes(1, 2, rng_seed=1000 + seed)
            seed += 1
            if not in_version_space(data, cand):
                others.append(cand)
        table = from_perceptron(data, np.vstack([planted, *others]))
        assert table.bits[:, 0].all()
        assert not table.bits[:, 1].all()
        assert not table.bits[:, 2].all()

    def test_planted_single_column(self):
        data, planted = generate_planted_dataset(6, 2, 0.2, rng_seed=8)
        table = from_perceptron(data, planted[None])
        assert table.bits.shape == (6, 1)
        assert table.bits.all()

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**31))
    def test_matches_entrywise_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        data, _ = generate_planted_dataset(5, 2, 0.1, rng_seed=seed)
        planes = sample_hyperplanes(4, 2, rng_seed=seed + 1)
        table = from_perceptron(data, planes)
        X, y = data.X, data.y
        for i in range(5):
            for j, (*w, b) in enumerate(planes):
                expected = (float(np.dot(w, X[i])) + b) * y[i] > 0
                assert table.bits[i, j] == int(expected)


class TestPadding:
    def test_padded_rows_pass_padded_columns_fail(self):
        bits = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)  # 3x3
        handle = OracleHandle(TruthTable(bits))
        assert (handle.n, handle.k) == (2, 2)
        padded = handle.f.T
        assert padded.shape == (4, 4)
        # phantom row must not block real columns
        assert padded[3, :3].all()
        # phantom column must not look like a solution
        assert not padded[:, 3].any()
        np.testing.assert_array_equal(padded[:3, :3], bits)


class TestBitOracle:
    def test_sets_scratch_for_one_entry(self, fixture_handle):
        layout = fixture_handle.layout(scratch=True)
        x = 3 + (2 << 2)  # i=3, j=2, scratch 0
        state = StateVector.basis(layout.num_qubits, x)
        apply_bit_oracle(state, layout, fixture_handle)
        assert state.amps[x + (1 << layout.scratch_qubit)] == pytest.approx(1.0)
        assert fixture_handle.ledger.bit_oracle == 1

    def test_involution(self, fixture_handle):
        layout = fixture_handle.layout(scratch=True)
        rng = np.random.default_rng(5)
        state = StateVector(layout.num_qubits, random_state_amps(rng, layout.num_qubits))
        ref = state.amps.copy()
        apply_bit_oracle(state, layout, fixture_handle)
        apply_bit_oracle(state, layout, fixture_handle)
        np.testing.assert_allclose(state.amps, ref, atol=1e-12)

    def test_all_zero_table_is_identity(self):
        handle = OracleHandle(TruthTable(np.zeros((4, 4), dtype=np.uint8)))
        layout = handle.layout(scratch=True)
        rng = np.random.default_rng(6)
        state = StateVector(layout.num_qubits, random_state_amps(rng, layout.num_qubits))
        ref = state.amps.copy()
        apply_bit_oracle(state, layout, handle)
        np.testing.assert_allclose(state.amps, ref, atol=1e-12)

    def test_requires_scratch(self, fixture_handle):
        layout = fixture_handle.layout()
        state = new_uniform(layout)
        with pytest.raises(ValueError):
            apply_bit_oracle(state, layout, fixture_handle)


class TestPhaseOracle:
    def test_all_ones_column_flips_everything(self, fixture_handle):
        layout = fixture_handle.layout()
        state = new_uniform(layout, fixed_j=2)
        ref = state.amps.copy()
        apply_phase_oracle(state, layout, fixture_handle)
        np.testing.assert_allclose(state.amps, -ref, atol=1e-12)

    def test_sparse_column_flips_one_row(self, fixture_handle):
        layout = fixture_handle.layout()
        state = new_uniform(layout, fixed_j=0)
        ref = state.amps.copy()
        apply_phase_oracle(state, layout, fixture_handle)
        expected = ref.copy()
        expected[3] *= -1  # only f(3, 0) = 1 in column 0
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    def test_involution(self, fixture_handle):
        layout = fixture_handle.layout()
        rng = np.random.default_rng(7)
        state = StateVector(layout.num_qubits, random_state_amps(rng, layout.num_qubits))
        ref = state.amps.copy()
        apply_phase_oracle(state, layout, fixture_handle)
        apply_phase_oracle(state, layout, fixture_handle)
        np.testing.assert_allclose(state.amps, ref, atol=1e-12)

    def test_ledger_accounting(self, fixture_handle):
        layout = fixture_handle.layout()
        state = new_uniform(layout)
        apply_phase_oracle(state, layout, fixture_handle)
        snap = fixture_handle.ledger.snapshot()
        assert snap["phase_oracle"] == 1 and snap["bit_oracle"] == 1

    def test_two_controls_cost_four_bits(self, fixture_handle):
        layout = fixture_handle.layout(l=2)
        state = new_uniform(layout)
        ref = state.amps.copy()
        apply_phase_oracle(state, layout, fixture_handle, controls=layout.phase_qubits)
        assert fixture_handle.ledger.snapshot() == {
            "bit_oracle": 4, "phase_oracle": 0, "controlled_phase_oracle": 1, "classical_f": 0,
        }
        # only the sector with both phase bits set picks up (-1)**f
        flipped = ref.reshape(4, 4, 4).copy()
        flipped[3] *= 1.0 - 2.0 * fixture_handle.f
        np.testing.assert_allclose(state.amps, flipped.reshape(-1), atol=1e-12)


class TestControlledPhaseOracle:
    def test_control_zero_is_identity(self, fixture_handle):
        layout = fixture_handle.layout(l=1, scratch=True)
        control = layout.phase_qubits[0]
        x = 1 + (1 << 2)  # i=1, j=1, control 0
        state = StateVector.basis(layout.num_qubits, x)
        apply_controlled_phase_oracle(state, control, layout, fixture_handle)
        assert state.amps[x] == pytest.approx(1.0)

    def test_control_one_flips_marked_entry(self, fixture_handle):
        layout = fixture_handle.layout(l=1, scratch=True)
        control = layout.phase_qubits[0]
        x = 2 + (2 << 2) + (1 << control)  # i=2, j=2 has f = 1
        state = StateVector.basis(layout.num_qubits, x)
        apply_controlled_phase_oracle(state, control, layout, fixture_handle)
        assert state.amps[x] == pytest.approx(-1.0)
        # scratch disentangled: nothing outside the scratch-0 sector
        assert np.max(np.abs(state.amps[(1 << layout.scratch_qubit) :])) < 1e-12

    def test_ledger_factor_of_two(self, fixture_handle):
        layout = fixture_handle.layout(l=1, scratch=True)
        control = layout.phase_qubits[0]
        state = new_uniform(layout)
        apply_controlled_phase_oracle(state, control, layout, fixture_handle)
        snap = fixture_handle.ledger.snapshot()
        assert snap["controlled_phase_oracle"] == 1
        assert snap["bit_oracle"] == 2

    def test_rejects_dirty_scratch(self, fixture_handle):
        layout = fixture_handle.layout(l=1, scratch=True)
        state = StateVector.basis(layout.num_qubits, 1 << layout.scratch_qubit)
        with pytest.raises(AssertionError):
            apply_controlled_phase_oracle(state, layout.phase_qubits[0], layout, fixture_handle)

    @pytest.mark.parametrize("leak,dirty", [(5e-10, False), (2e-9, True)])
    def test_scratch_norm_tolerance_is_batch_wide(self, fixture_handle, leak, dirty):
        # the scratch-1 norm over both rows of a batch against 1e-9
        layout = fixture_handle.layout(l=1, scratch=True)
        amps = np.zeros((2, 1 << layout.num_qubits), dtype=complex)
        amps[:, 0] = 1.0
        amps[1, (1 << layout.scratch_qubit) + 5] = leak * (0.6 + 0.8j)
        state = StateVector(layout.num_qubits, amps)
        control = layout.phase_qubits[0]
        if dirty:
            with pytest.raises(AssertionError):
                apply_controlled_phase_oracle(state, control, layout, fixture_handle)
        else:
            apply_controlled_phase_oracle(state, control, layout, fixture_handle)

    def test_dense_identity_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gap = controlled_phase_oracle_identity_gap(random_table(rng))
            assert gap < 1e-10


class TestLedger:
    def test_monotone(self):
        ledger = QueryLedger()
        ledger.record("bit_oracle", 5)
        ledger.record("classical_f")
        assert ledger.snapshot() == {
            "bit_oracle": 5,
            "phase_oracle": 0,
            "controlled_phase_oracle": 0,
            "classical_f": 1,
        }
        with pytest.raises(ValueError):
            ledger.record("bit_oracle", -1)

    @pytest.mark.parametrize("controls,expected", [
        (0, {"bit_oracle": 3, "phase_oracle": 3, "controlled_phase_oracle": 0}),
        (1, {"bit_oracle": 6, "phase_oracle": 0, "controlled_phase_oracle": 3}),
        (2, {"bit_oracle": 12, "phase_oracle": 0, "controlled_phase_oracle": 3}),
    ])
    def test_charge_doubles_bits_per_control(self, controls, expected):
        ledger = QueryLedger()
        ledger.charge(3, controls=controls)
        assert ledger.snapshot() == {**expected, "classical_f": 0}


class TestTableIO:
    def test_round_trip(self, tmp_path, fixture_table):
        path = tmp_path / "table.txt"
        save_truth_table(fixture_table, path)
        assert load_truth_table(path) == fixture_table
        first = path.read_text().splitlines()[0]
        assert first == "4 3"

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            TruthTable(np.array([[0, 2]]))


def per_state_identity_gap(table: TruthTable) -> float:
    """The identity gap as one pair of basis states at a time: the check
    the batched controlled_phase_oracle_identity_gap must reproduce."""
    handle = OracleHandle(table)
    layout = handle.layout(l=1, scratch=True)
    control = layout.phase_qubits[0]
    gap = 0.0
    for x in range(1 << layout.num_qubits):
        if (x >> layout.scratch_qubit) & 1:
            continue
        built = StateVector.basis(layout.num_qubits, x)
        direct = StateVector.basis(layout.num_qubits, x)
        oracles.apply_controlled_phase_oracle(built, control, layout, handle)
        apply_phase_oracle(direct, layout, handle, controls=(control,))
        gap = max(gap, float(np.max(np.abs(built.amps - direct.amps))))
    return gap


def cz_on_a_data_qubit(state, control, layout, handle):
    """A broken construction: the CZ between the scratch and data qubit 0
    instead of the control."""
    apply_bit_oracle(state, layout, handle)
    apply_open_controlled_z(state, layout.scratch_qubit, (), closed_controls=(0,))
    apply_bit_oracle(state, layout, handle)
    return state


def cz_open_on_plane_qubit_1(state, control, layout, handle):
    """A broken construction: the CZ fires only where plane qubit 1 reads 0.
    At (n, k) = (4, 4) that qubit is bit 5 of the input index, so the
    identity check's 32-row batches of the control-1 half alternate between
    dirty and clean.  Every batch must enter as basis states, one nonzero
    per row, so a dirty batch left in the buffer fails here."""
    assert np.count_nonzero(state.amps) == state.amps.size >> state.num_qubits
    apply_bit_oracle(state, layout, handle)
    apply_open_controlled_z(state, layout.scratch_qubit, (layout.plane_qubits[1],),
                            closed_controls=(control,))
    apply_bit_oracle(state, layout, handle)
    return state


class TestIdentityGap:
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**31))
    def test_batched_equals_per_state_loop(self, seed):
        table = random_table(np.random.default_rng(seed), n_max=4, k_max=4)
        assert controlled_phase_oracle_identity_gap(table) == per_state_identity_gap(table)

    def test_broken_construction_has_a_gap(self, monkeypatch):
        table = random_table(np.random.default_rng(3), n_max=4, k_max=4)
        monkeypatch.setattr(oracles, "apply_controlled_phase_oracle", cz_on_a_data_qubit)
        gap = controlled_phase_oracle_identity_gap(table)
        assert gap > 0.5
        assert gap == per_state_identity_gap(table)

    def test_dirty_batches_are_refilled(self, monkeypatch):
        table = TruthTable((np.random.default_rng(6).random((16, 16)) < 0.5).astype(np.uint8))
        monkeypatch.setattr(oracles, "apply_controlled_phase_oracle", cz_open_on_plane_qubit_1)
        gap = controlled_phase_oracle_identity_gap(table)
        assert gap > 0.5
        assert gap == per_state_identity_gap(table)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 4), k=st.integers(2, 4))
    def test_refilled_batches_equal_per_state_loop(self, seed, n, k):
        table = TruthTable(np.random.default_rng(seed).random((1 << n, 1 << k)) < 0.5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "apply_controlled_phase_oracle", cz_open_on_plane_qubit_1)
            assert controlled_phase_oracle_identity_gap(table) == per_state_identity_gap(table)

    def test_peak_allocation_is_blocked(self):
        # n + k = 8, so q = 10: one batch of all 512 scratch-|0> basis
        # states would take 8 MiB per copy; blocks of GAP_BLOCK_AMPS
        # amplitudes (512 KiB) keep the peak under two blocks
        table = TruthTable((np.random.default_rng(4).random((16, 16)) < 0.5).astype(np.uint8))
        controlled_phase_oracle_identity_gap(table)  # warm imports and caches
        tracemalloc.start()
        try:
            gap = controlled_phase_oracle_identity_gap(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap == 0.0
        assert peak < 1 << 20, f"peak {peak} B"


@pytest.mark.parametrize("rows", [4, 256])
def test_controlled_phase_oracle_buffers_do_not_grow_with_the_state(rows):
    # the sign multiply on the control-1 view goes through numpy's buffered
    # iterator: three buffers of at most np.getbufsize() complex values,
    # 48 * getbufsize() bytes, whether the batch is 64 KiB or 4 MiB; the rest
    # is the sign tensor (-1)**f formed from the handle's f, a table-sized array
    table = TruthTable((np.random.default_rng(5).random((16, 16)) < 0.5).astype(np.uint8))
    handle = OracleHandle(table)
    layout = handle.layout(l=1, scratch=True)
    state = StateVector(layout.num_qubits, np.ones((rows, 1 << layout.num_qubits), complex))
    controls = (layout.phase_qubits[0],)
    apply_phase_oracle(state, layout, handle, controls=controls)  # warm caches
    tracemalloc.start()
    try:
        apply_phase_oracle(state, layout, handle, controls=controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * np.getbufsize() + 4 * handle.f.nbytes, f"peak {peak} B"


@given(seed=st.integers(0, 10_000), rows=st.integers(1, 4), data=st.data())
def test_batch_oracle_equals_oracle_on_each_row(seed, rows, data):
    """An oracle on a batch acts on every row as on that row alone, and
    charges the ledger once per row."""
    rng = np.random.default_rng(seed)
    table = random_table(rng)
    layout = OracleHandle(table).layout(l=2, scratch=True)
    q, control, scratch = layout.num_qubits, layout.phase_qubits[0], layout.scratch_qubit
    amps = np.stack([random_state_amps(rng, q) for _ in range(rows)])
    amps.reshape(rows, 2, -1)[:, 1] = 0.0  # scratch |0>, as the controlled oracle needs
    controls = data.draw(st.sampled_from([(), (control,), layout.phase_qubits, (scratch,)]))
    oracle = data.draw(st.sampled_from([
        lambda s, h: apply_bit_oracle(s, layout, h),
        lambda s, h: apply_phase_oracle(s, layout, h, controls=controls),
        lambda s, h: apply_controlled_phase_oracle(s, control, layout, h),
    ]))
    batch_handle, single_handle = OracleHandle(table), OracleHandle(table)
    batch = oracle(StateVector(q, amps.copy()), batch_handle)
    singles = [oracle(StateVector(q, row.copy()), single_handle).amps for row in amps]
    np.testing.assert_array_equal(batch.amps, np.stack(singles))
    assert batch_handle.ledger.snapshot() == single_handle.ledger.snapshot()
