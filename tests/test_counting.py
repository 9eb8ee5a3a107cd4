import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvstrain import cli
from qvstrain.counting import (
    READOUT_BLOCK_AMPS,
    GTildeReadout,
    _readouts,
    phase_gap_bound_check,
    g_tilde_readout,
    grover_operator,
    grover_operator_inverse,
    l_bits,
    meter_sim_and,
    phase_estimate,
    phase_estimate_inverse,
    phase_register_distribution,
    quantum_count,
    sim_and,
    sim_and_overlap,
)
from qvstrain.oracles import (OracleHandle, QueryLedger, TruthTable, _column_counts,
                              apply_phase_oracle)
from qvstrain.search import SimAndSearchOracle
from qvstrain.statevec import (
    apply_hadamards,
    apply_inverse_qft,
    apply_open_controlled_z,
    apply_phase_flip_all_zero,
    apply_qft,
    inner_product,
    new_uniform,
)

from .conftest import FIXTURE_BITS, random_kernel_table

# -- independent closed-form reference ------------------------------------------
#
# Phase estimation of the Grover rotation with angle theta reads the register
# value s with probability (1/2)(|kernel(s | theta/pi)|^2
#                              + |kernel(s | 1 - theta/pi)|^2),
# where kernel(s | phi) = (1/2**l) sum_x exp(2 pi i x (phi - s/2**l)) is the
# standard finite Fourier kernel.  This is computed here without any circuit
# machinery and anchors every derived expectation below.


def kernel(s: int, phi: float, l: int) -> complex:
    x = np.arange(1 << l)
    return np.exp(2j * np.pi * x * (phi - s / (1 << l))).sum() / (1 << l)


def reference_distribution(n: int, L: int, l: int) -> np.ndarray:
    theta = math.asin(math.sqrt(L / (1 << n)))
    out = np.empty(1 << l)
    for s in range(1 << l):
        out[s] = 0.5 * abs(kernel(s, theta / math.pi, l)) ** 2 + 0.5 * abs(
            kernel(s, 1.0 - theta / math.pi, l)
        ) ** 2
    return out


def reference_overlap(n: int, L: int, l: int) -> float:
    """<in|SimAnd|in> = 1 - 2 P(s = 10..0), exact for the measurement-free
    circuit."""
    return 1.0 - 2.0 * reference_distribution(n, L, l)[1 << (l - 1)]


def kernel_widths(handle) -> set[int]:
    return {l_bits(handle.n), max(1, math.ceil(handle.n / 2))}


class TestSpectralKernels:
    """The closed-form phase readout against its one reference, the gate
    engine: ``phase_estimate`` runs the controlled-Grover ladder gate by gate
    (phase oracle, data diffusion, Fourier transform on the phase register).
    The search's closed-form AND-simulation is checked against the ladder
    ``sim_and`` in ``test_search.py::TestFactoredState``."""

    @given(seed=st.integers(0, 2**31))
    def test_readout_equals_phase_estimation_marginal(self, seed):
        rng = np.random.default_rng(seed)
        handle = random_kernel_table(rng)
        for l in kernel_widths(handle):
            layout = handle.layout(l=l)
            for j in range(1 << handle.k):
                state = phase_estimate(new_uniform(layout, fixed_j=j), layout, handle)
                marginal = (np.abs(state.amps.reshape(1 << l, -1)) ** 2).sum(axis=1)
                got = phase_register_distribution(j, handle, l)
                assert np.abs(got - marginal).max() < 1e-12


class TestPhaseRegisterWidth:
    def test_quantum_count_needs_a_phase_register(self):
        handle = OracleHandle(TruthTable(np.ones((4, 2), dtype=np.uint8)))
        with pytest.raises(ValueError, match="needs a phase register"):
            quantum_count(1, handle, 3, 0, l=0)

    def test_overlap_needs_a_phase_register(self, fixture_handle):
        with pytest.raises(ValueError, match="needs a phase register"):
            sim_and_overlap(0, fixture_handle, 0)


class TestLBits:
    @pytest.mark.parametrize("n,expected", [(0, 3), (1, 4), (2, 4), (5, 6), (6, 6)])
    def test_values(self, n, expected):
        assert l_bits(n) == expected


class TestGroverOperator:
    def test_all_ones_column_global_flip(self, fixture_handle):
        layout = fixture_handle.layout()
        state = new_uniform(layout, fixed_j=2)
        ref = state.copy()
        grover_operator(state, layout, fixture_handle)
        assert inner_product(ref, state) == pytest.approx(-1.0, abs=1e-12)

    def test_single_solution_rotates_onto_it(self, fixture_handle):
        # column 0 holds one solution at i=3: theta = pi/6, so one step lands
        # exactly on |i=3> (sin 3 theta = 1)
        layout = fixture_handle.layout()
        state = new_uniform(layout, fixed_j=0)
        grover_operator(state, layout, fixture_handle)
        probs = np.abs(state.amps.reshape(1 << layout.k, 1 << layout.n)) ** 2
        assert probs[0, 3] == pytest.approx(1.0, abs=1e-12)

    def test_stays_in_plane_block(self, fixture_handle):
        layout = fixture_handle.layout()
        state = new_uniform(layout, fixed_j=1)
        grover_operator(state, layout, fixture_handle)
        block = state.amps.reshape(1 << layout.k, 1 << layout.n)
        mass_elsewhere = np.abs(block[[0, 2, 3], :]).max()
        assert mass_elsewhere < 1e-12

    def test_matches_generic_gate_sequence(self, fixture_handle):
        layout = fixture_handle.layout()
        fast = new_uniform(layout)
        generic = fast.copy()
        grover_operator(fast, layout, fixture_handle)
        apply_phase_oracle(generic, layout, fixture_handle)
        apply_hadamards(generic, layout.data_qubits)
        apply_phase_flip_all_zero(generic, layout.data_qubits)
        apply_hadamards(generic, layout.data_qubits)
        np.testing.assert_allclose(fast.amps, generic.amps, atol=1e-12)

    def test_inverse_restores(self, fixture_handle):
        layout = fixture_handle.layout(l=2)
        state = new_uniform(layout)
        ref = state.amps.copy()
        control = layout.phase_qubits[1]
        grover_operator(state, layout, fixture_handle, control=control)
        grover_operator_inverse(state, layout, fixture_handle, control=control)
        np.testing.assert_allclose(state.amps, ref, atol=1e-12)

    def test_query_costs(self, fixture_handle):
        layout = fixture_handle.layout(l=1)
        state = new_uniform(layout)
        grover_operator(state, layout, fixture_handle)
        assert fixture_handle.ledger.bit_oracle == 1
        grover_operator(state, layout, fixture_handle, control=layout.phase_qubits[0])
        assert fixture_handle.ledger.bit_oracle == 3
        assert fixture_handle.ledger.controlled_phase_oracle == 1


class TestPhaseEstimate:
    def test_exact_readout_for_full_column(self, fixture_handle):
        layout = fixture_handle.layout(l=l_bits(2))
        state = new_uniform(layout, fixed_j=2)
        phase_estimate(state, layout, fixture_handle)
        marginal = (
            np.abs(state.amps.reshape(1 << layout.l, -1)) ** 2
        ).sum(axis=1)
        assert marginal[0b1000] == pytest.approx(1.0, abs=1e-12)

    def test_matches_generic_gate_ladder(self, fixture_handle):
        layout = fixture_handle.layout(l=l_bits(2))
        fast = new_uniform(layout, fixed_j=1)
        generic = fast.copy()
        phase_estimate(fast, layout, fixture_handle)
        for t, control in enumerate(layout.phase_qubits):
            for _ in range(1 << t):
                apply_phase_oracle(generic, layout, fixture_handle, controls=(control,))
                apply_hadamards(generic, layout.data_qubits, controls=(control,))
                apply_phase_flip_all_zero(
                    generic, layout.data_qubits, controls=(control,)
                )
                apply_hadamards(generic, layout.data_qubits, controls=(control,))
        apply_inverse_qft(generic, layout.phase_qubits)
        np.testing.assert_allclose(fast.amps, generic.amps, atol=1e-10)

    def test_marginal_matches_reference_kernel(self, fixture_handle):
        l = l_bits(2)
        for j, L in ((0, 1), (1, 3), (2, 4), (3, 0)):
            got = phase_register_distribution(j, fixture_handle, l)
            np.testing.assert_allclose(
                got, reference_distribution(2, L, l), atol=1e-10
            )

    @settings(max_examples=15)
    @given(seed=st.integers(0, 2**31))
    def test_marginal_matches_reference_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        bits = (rng.random((1 << n, 2)) < rng.uniform(0.2, 0.9)).astype(np.uint8)
        handle = OracleHandle(TruthTable(bits))
        j = int(rng.integers(0, 2))
        L = int(bits[:, j].sum())
        got = phase_register_distribution(j, handle, l_bits(n))
        np.testing.assert_allclose(got, reference_distribution(n, L, l_bits(n)), atol=1e-10)

    def test_query_cost_exact(self, fixture_handle):
        layout = fixture_handle.layout(l=4)
        state = new_uniform(layout, fixed_j=0)
        phase_estimate(state, layout, fixture_handle)
        assert fixture_handle.ledger.bit_oracle == 30  # 2 * (2**4 - 1)

    def test_inverse_is_exact_inverse(self, fixture_handle):
        layout = fixture_handle.layout(l=4)
        state = new_uniform(layout, fixed_j=1)
        ref = state.amps.copy()
        phase_estimate(state, layout, fixture_handle)
        phase_estimate_inverse(state, layout, fixture_handle)
        np.testing.assert_allclose(state.amps, ref, atol=1e-10)


class TestSimAnd:
    def test_full_column_exact_minus_one(self, fixture_handle):
        layout = fixture_handle.layout(l=l_bits(2))
        state = new_uniform(layout, fixed_j=2)
        ref = state.copy()
        sim_and(state, layout, fixture_handle)
        eta = inner_product(ref, state)
        assert abs(eta - (-1.0)) < 1e-9

    def test_partial_column_keeps_sign(self, fixture_handle):
        readout = g_tilde_readout(0, fixture_handle)
        assert readout.sign == +1
        assert readout.fidelity >= 2 / 3

    def test_all_zero_table_never_flips(self):
        handle = OracleHandle(TruthTable(np.zeros((4, 2), dtype=np.uint8)))
        for j in range(2):
            readout = g_tilde_readout(j, handle)
            assert readout.sign == +1
            assert readout.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_overlaps_match_reference_kernel(self, fixture_handle):
        l = l_bits(2)
        for j, L in ((0, 1), (1, 3), (2, 4), (3, 0)):
            eta = sim_and_overlap(j, fixture_handle, l)
            assert eta.imag == pytest.approx(0.0, abs=1e-10)
            assert eta.real == pytest.approx(reference_overlap(2, L, l), abs=1e-9)

    def test_single_column_path_equals_full_circuit(self, fixture_handle):
        layout = fixture_handle.layout(l=l_bits(2))
        for j in range(4):
            ref = new_uniform(layout, fixed_j=j)
            state = ref.copy()
            sim_and(state, layout, fixture_handle)
            eta_reduced = sim_and_overlap(j, fixture_handle)
            assert inner_product(ref, state) == pytest.approx(eta_reduced, abs=1e-12)

    @given(rows=st.integers(1, 16), cols=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_overlap_readout_equals_circuit_random_tables(self, rows, cols, seed):
        # sim_and_overlap reads 1 - 2 P(10..0) off the rotation spectrum; the
        # public sim_and circuit must give the same <in|out> on every column,
        # at the working register width and at the too-narrow ceil(n/2), and
        # at the working width the search's kick probability must be
        # (1 - Re <in|out>) / 2, phantom columns included
        rng = np.random.default_rng(seed)
        bits = (rng.random((rows, cols)) < rng.uniform(0.2, 1.0)).astype(np.uint8)
        if rng.random() < 0.5:
            bits[:, int(rng.integers(0, cols))] = 1
        handle = OracleHandle(TruthTable(bits))
        oracle = SimAndSearchOracle(handle)
        for l in {l_bits(handle.n), max(1, math.ceil(handle.n / 2))}:
            layout = handle.layout(l=l)
            for j in range(1 << handle.k):
                ref = new_uniform(layout, fixed_j=j)
                eta = inner_product(ref, sim_and(ref.copy(), layout, handle))
                assert abs(sim_and_overlap(j, handle, l) - eta) < 1e-12
                if l == oracle.l:
                    assert abs(oracle.kick_probability(j) - (1.0 - eta.real) / 2.0) < 1e-12

    def test_block_diagonal_and_coherent(self, fixture_handle):
        # on a superposed hyperplane register every |j> block is scaled by
        # its own eta_j; no mass leaks between blocks
        layout = fixture_handle.layout(l=l_bits(2))
        state = new_uniform(layout)
        sim_and(state, layout, fixture_handle)
        dk, dn, dl = 1 << layout.k, 1 << layout.n, 1 << layout.l
        out = state.amps.reshape(dl, dk, dn)
        uniform_block = np.full((dl, dn), 1.0 / math.sqrt(dl * dn * dk))
        for j in range(dk):
            eta = sim_and_overlap(j, fixture_handle)
            block = out[:, j, :]
            residual = block - eta * uniform_block
            assert np.linalg.norm(residual) ** 2 * dk <= 1 / 3 + 1e-9

    def test_ancilla_restoration_bound(self, fixture_handle):
        layout = fixture_handle.layout(l=l_bits(2))
        for j in range(4):
            ref = new_uniform(layout, fixed_j=j)
            state = ref.copy()
            sim_and(state, layout, fixture_handle)
            eta = inner_product(ref, state)
            orthogonal_mass = 1.0 - abs(eta) ** 2
            assert orthogonal_mass <= 1 / 3 + 1e-9

    def test_query_cost_independent_of_table(self):
        for bits in (np.zeros((8, 2)), np.ones((8, 2)), FIXTURE_BITS[:, :2]):
            handle = OracleHandle(TruthTable(np.asarray(bits, dtype=np.uint8)))
            l = l_bits(handle.n)
            layout = handle.layout(l=l)
            state = new_uniform(layout)
            sim_and(state, layout, handle)
            assert handle.ledger.bit_oracle == 4 * (2**l - 1)
            assert handle.ledger.controlled_phase_oracle == 2 * ((1 << l) - 1)


def charge_of(handle, op, *args, **kwargs) -> dict:
    """Ledger increments made by one call of ``op``."""
    before = handle.ledger.snapshot()
    op(*args, **kwargs)
    return {tag: value - before[tag] for tag, value in handle.ledger.snapshot().items()}


def cost(bits=0, phase=0, controlled=0) -> dict:
    return {"bit_oracle": bits, "phase_oracle": phase,
            "controlled_phase_oracle": controlled, "classical_f": 0}


class TestMeteringRule:
    """Each public circuit operation charges exactly its closed-form cost
    (``sim_and``: TestSimAnd.test_query_cost_independent_of_table); the
    exact-amplitude diagnostics charge nothing."""

    def test_grover_steps(self, fixture_handle):
        layout = fixture_handle.layout(l=2)
        state = new_uniform(layout)
        control = layout.phase_qubits[1]
        for op in (grover_operator, grover_operator_inverse):
            assert charge_of(fixture_handle, op, state, layout, fixture_handle) == cost(
                bits=1, phase=1
            )
            assert charge_of(
                fixture_handle, op, state, layout, fixture_handle, control=control
            ) == cost(bits=2, controlled=1)

    def test_phase_estimation_both_ways(self, fixture_handle):
        l = 4
        layout = fixture_handle.layout(l=l)
        state = new_uniform(layout)
        steps = (1 << l) - 1
        for op in (phase_estimate, phase_estimate_inverse):
            assert charge_of(fixture_handle, op, state, layout, fixture_handle) == cost(
                bits=2 * steps, controlled=steps
            )

    def test_diagnostics_charge_nothing(self, fixture_handle):
        for j in range(4):
            sim_and_overlap(j, fixture_handle)
            g_tilde_readout(j, fixture_handle)
            phase_register_distribution(j, fixture_handle)
        assert fixture_handle.ledger.snapshot() == cost()


class TestGTildeReadout:
    def test_fixture_values(self, fixture_handle):
        full = g_tilde_readout(2, fixture_handle)
        assert (full.sign, round(full.fidelity, 9)) == (-1, 1.0)
        near = g_tilde_readout(1, fixture_handle)
        assert near.sign == +1 and near.fidelity >= 2 / 3

    def test_all_ones_table(self):
        handle = OracleHandle(TruthTable(np.ones((4, 4), dtype=np.uint8)))
        for j in range(4):
            readout = g_tilde_readout(j, handle)
            assert readout.sign == -1
            assert readout.fidelity == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**31))
    def test_sign_tracks_column_and_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 3))
        bits = (rng.random((1 << n, 1 << k)) < rng.uniform(0.3, 1.0)).astype(np.uint8)
        handle = OracleHandle(TruthTable(bits))
        for j in range(1 << k):
            g = int(bits[:, j].all())
            readout = g_tilde_readout(j, handle)
            assert readout.sign == (-1 if g else +1)
            assert readout.fidelity >= 2 / 3
            if g:
                assert readout.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_zero_overlap_reads_sign_zero(self):
        # one 1 in two rows: theta = pi/4, so at l = 1 the readout 1 has
        # probability exactly 1/2 and Re <in|SimAnd|in> is 0 in exact
        # arithmetic; its computed sign would be that of a rounding error
        handle = OracleHandle(TruthTable(np.array([[0], [1]], dtype=np.uint8)))
        readout = g_tilde_readout(0, handle, l=1)
        assert readout.sign == 0
        assert readout.fidelity < 1e-24

    def test_low_precision_register_breaks_sign_guarantee(self):
        # with the phase register cut to ceil(n/2) bits the nearly-full
        # column is misread: the readout flips sign on a non-solution
        n = 2
        bits = np.ones((1 << n, 2), dtype=np.uint8)
        bits[0, 0] = 0  # L = 2**n - 1 in column 0
        handle = OracleHandle(TruthTable(bits))
        readout = g_tilde_readout(0, handle, l=(n + 1) // 2)
        assert readout.sign == -1  # wrong: g(0) = 0
        healthy = g_tilde_readout(0, handle)
        assert healthy.sign == +1 and healthy.fidelity >= 2 / 3

    def test_table_readout_equals_per_column_readout(self):
        # verify reads a table's column counts in blocks; on verify's own
        # table draws, at the working and the too-narrow register width,
        # every column must read bit for bit what the one-column readout
        # reads (summing the spectrum in another order moves some
        # fidelities by an ulp)
        rng = np.random.default_rng(13)
        columns = 0
        for _ in range(500):
            handle = OracleHandle(cli._random_table(rng, 6, 6, force_close_column=True))
            for l in (l_bits(handle.n), (handle.n + 1) // 2):
                _, sign, fidelity = _readouts(_column_counts(handle), handle.n, l)
                table = [GTildeReadout(int(s), float(f)) for s, f in zip(sign, fidelity)]
                assert table == [g_tilde_readout(j, handle, l) for j in range(1 << handle.k)]
                columns += len(table)
        assert columns > 20_000


class TestReadoutsReadCounts:
    """A readout depends on a column through its count of f = 1 rows alone,
    so it reads the table's column counts and never builds the handle's
    float64 f, which is for the gate engine."""

    @pytest.mark.parametrize("readout", [
        lambda h: sim_and_overlap(1, h),
        lambda h: g_tilde_readout(3, h),
        lambda h: phase_register_distribution(1, h),
        lambda h: quantum_count(1, h, shots=4, rng_seed=0),
        lambda h: cli._sign_fidelity_sweep(np.random.default_rng(0), 5, 4, 3, False),
    ], ids=["sim_and_overlap", "g_tilde_readout", "phase_register_distribution", "quantum_count", "sign_fidelity_sweep"])
    def test_no_readout_builds_f(self, monkeypatch, readout):
        read = []
        f = OracleHandle.f
        monkeypatch.setattr(OracleHandle, "f", property(lambda h: read.append(h) or f.func(h)))
        readout(OracleHandle(TruthTable(FIXTURE_BITS)))
        assert read == []

    def test_readout_peak_is_under_the_tables_f(self):
        import tracemalloc
        table = TruthTable((np.random.default_rng(5).random((1024, 64)) < 0.9).astype(np.uint8))
        g_tilde_readout(3, OracleHandle(table))  # numpy's one-off set-up
        handle = OracleHandle(table)
        tracemalloc.start()
        try:
            g_tilde_readout(3, handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 10, f"peak {peak} B"  # f alone would be 512 KiB

    def test_full_block_peak_is_under_verifys_small_budget(self):
        import tracemalloc
        # verify budgets one block of the spectrum in VERIFY_SMALL_BYTES
        n, l = 8, 7
        counts = np.arange(READOUT_BLOCK_AMPS >> l, dtype=np.float64)  # one full block
        _readouts(counts, n, l)  # numpy's one-off set-up
        tracemalloc.start()
        try:
            _readouts(counts, n, l)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (READOUT_BLOCK_AMPS << 4) < peak < cli.VERIFY_SMALL_BYTES, f"peak {peak} B"


class TestQuantumCount:
    def test_exact_for_full_column(self, fixture_handle):
        est = quantum_count(2, fixture_handle, shots=32, rng_seed=1)
        assert est.s_bits == "1000"
        assert est.l_hat == pytest.approx(4.0, abs=1e-12)

    def test_rounds_to_true_counts(self, fixture_handle):
        est1 = quantum_count(1, fixture_handle, shots=64, rng_seed=2)
        assert est1.s_bits == "0101"
        assert abs(est1.theta_hat - math.pi / 3) <= math.pi / 16
        assert round(est1.l_hat) == 3
        est0 = quantum_count(0, fixture_handle, shots=64, rng_seed=3)
        assert round(est0.l_hat) == 1
        assert abs(est0.theta_hat - math.pi / 6) <= math.pi / 16

    def test_near_full_column_distinguished(self):
        # n = 3 with L = 7: the modal readout must not collide with the
        # all-ones signature 10000
        bits = np.ones((8, 2), dtype=np.uint8)
        bits[5, 0] = 0
        handle = OracleHandle(TruthTable(bits))
        est = quantum_count(0, handle, shots=128, rng_seed=4)
        assert est.s_bits != "1" + "0" * (l_bits(3) - 1)
        assert round(est.l_hat) == 7

    def test_ledger_charges_per_shot(self, fixture_handle):
        shots = 5
        quantum_count(1, fixture_handle, shots=shots, rng_seed=0)
        assert fixture_handle.ledger.bit_oracle == shots * 2 * ((1 << l_bits(2)) - 1)

    def test_requires_shots(self, fixture_handle):
        with pytest.raises(ValueError):
            quantum_count(0, fixture_handle, shots=0, rng_seed=0)

    def test_empty_column_estimates_zero(self, fixture_handle):
        # padded column 3 is all zeros: the readout is exactly s = 0
        est = quantum_count(3, fixture_handle, shots=16, rng_seed=9)
        assert est.s_bits == "0000"
        assert est.theta_hat == 0.0 and est.l_hat == 0.0


class TestPhaseGapBound:
    def test_worked_example(self):
        # n=2, m=1: theta = pi/3, ratio 2/3 against 1/2 + 1/16
        assert phase_gap_bound_check(2, 1)

    def test_fully_misclassified(self):
        assert phase_gap_bound_check(2, 4)  # theta = 0, ratio 1

    def test_exhaustive_small(self):
        for n in range(1, 9):
            for m in range(1, (1 << n) + 1):
                assert phase_gap_bound_check(n, m)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            phase_gap_bound_check(2, 0)
        with pytest.raises(ValueError):
            phase_gap_bound_check(2, 5)
        with pytest.raises(ValueError):
            phase_gap_bound_check(2, np.array([1, 2, 5]))

    def test_array_form_matches_the_scalar_arithmetic(self):
        # the same test written with math.acos, one m at a time
        for n in range(1, 15):
            m = np.arange(1, (1 << n) + 1)
            theta = [math.acos(math.sqrt(v / (1 << n))) for v in range(1, (1 << n) + 1)]
            expected = [(2.0 * math.pi - 2.0 * t) / (2.0 * math.pi) >= 0.5 + 2.0 ** -l_bits(n)
                        for t in theta]
            got = phase_gap_bound_check(n, m)
            assert got.dtype == bool and got.tolist() == expected
        assert type(phase_gap_bound_check(3, 2)) is bool

    def test_fails_below_standard_width(self):
        # the same inequality with one fewer bit would be violated for m=1
        # at some n, confirming the width is load-bearing
        violations = [
            n
            for n in range(1, 13)
            if (2 * math.pi - 2 * math.acos(math.sqrt(1 / (1 << n))))
            / (2 * math.pi)
            < 0.5 + 2.0 ** -((n + 1) // 2 + 0)
        ]
        assert violations


class TestControlledSimAndCost:
    def test_doubling(self):
        # a control on every oracle call doubles the bit queries it charges
        plain, controlled = QueryLedger(), QueryLedger()
        meter_sim_and(plain, 4)
        meter_sim_and(controlled, 4, controlled=True)
        assert plain.bit_oracle == 4 * (2**4 - 1)
        assert controlled.bit_oracle == 8 * (2**4 - 1)


class TestControlledCircuitKickback:
    def test_literal_ancilla_controlled_circuit_matches_kick_probability(
        self, fixture_handle
    ):
        """The verification shot samples an ancilla wrapped in Hadamards
        around a controlled AND-simulation in which only the phase-bearing
        gates (oracle calls and the central flip) carry the extra control:
        with the ancilla off, the remaining gates cancel pairwise.  The
        literal circuit's ancilla statistics must match the overlap formula
        (1 - Re <in|SimAnd|in>) / 2 that the search layer samples from."""
        layout = fixture_handle.layout(l=l_bits(2), scratch=True)
        anc = layout.scratch_qubit
        for j in range(4):
            state = new_uniform(layout, fixed_j=j)
            apply_hadamards(state, [anc])
            for t, ctrl in enumerate(layout.phase_qubits):
                for _ in range(1 << t):
                    apply_phase_oracle(
                        state, layout, fixture_handle, controls=(ctrl, anc)
                    )
                    apply_hadamards(state, layout.data_qubits, controls=(ctrl,))
                    apply_phase_flip_all_zero(
                        state, layout.data_qubits, controls=(ctrl,)
                    )
                    apply_hadamards(state, layout.data_qubits, controls=(ctrl,))
            apply_inverse_qft(state, layout.phase_qubits)
            apply_open_controlled_z(
                state,
                layout.phase_msb,
                layout.phase_qubits[:-1],
                closed_controls=(anc,),
            )
            apply_qft(state, layout.phase_qubits)
            for t in reversed(range(layout.l)):
                ctrl = layout.phase_qubits[t]
                for _ in range(1 << t):
                    apply_hadamards(state, layout.data_qubits, controls=(ctrl,))
                    apply_phase_flip_all_zero(
                        state, layout.data_qubits, controls=(ctrl,)
                    )
                    apply_hadamards(state, layout.data_qubits, controls=(ctrl,))
                    apply_phase_oracle(
                        state, layout, fixture_handle, controls=(ctrl, anc)
                    )
            apply_hadamards(state, [anc])
            p_literal = float((np.abs(state.amps[(1 << anc) :]) ** 2).sum())
            eta = sim_and_overlap(j, fixture_handle)
            assert p_literal == pytest.approx((1.0 - eta.real) / 2.0, abs=1e-10)
