import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvstrain.statevec import (
    RegisterLayout,
    StateVector,
    apply_hadamards,
    apply_inverse_qft,
    apply_open_controlled_z,
    apply_phase_flip_all_zero,
    apply_qft,
    inner_product,
    new_uniform,
)

from .conftest import random_state_amps

SQRT1_2 = 1.0 / math.sqrt(2.0)


class TestRegisterLayout:
    def test_packing_order(self):
        lay = RegisterLayout(n=2, k=3, l=4, a=1)
        assert lay.data_qubits == (0, 1)
        assert lay.plane_qubits == (2, 3, 4)
        assert lay.phase_qubits == (5, 6, 7, 8)
        assert lay.phase_msb == 8
        assert lay.scratch_qubit == 9
        assert lay.num_qubits == 10

    def test_registers_disjoint_and_covering(self):
        lay = RegisterLayout(n=3, k=2, l=5, a=1)
        qubits = lay.data_qubits + lay.plane_qubits + lay.phase_qubits + (lay.scratch_qubit,)
        assert sorted(qubits) == list(range(lay.num_qubits))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            RegisterLayout(n=-1, k=0)
        with pytest.raises(ValueError):
            RegisterLayout(n=0, k=0, l=0, a=0)
        with pytest.raises(ValueError):
            RegisterLayout(n=1, k=1, a=2)


class TestNewUniform:
    def test_fixed_plane_small(self):
        # one data qubit in |+>, one plane qubit pinned to |0>
        state = new_uniform(RegisterLayout(n=1, k=1), fixed_j=0)
        np.testing.assert_allclose(state.amps, [SQRT1_2, SQRT1_2, 0, 0], atol=1e-12)

    def test_fixed_plane_counts(self):
        state = new_uniform(RegisterLayout(n=2, k=2, l=4), fixed_j=2)
        nonzero = np.abs(state.amps) > 1e-12
        assert nonzero.sum() == 64
        np.testing.assert_allclose(np.abs(state.amps[nonzero]), 1 / 8, atol=1e-12)
        # every nonzero amplitude sits on plane value 2
        idx = np.nonzero(nonzero)[0]
        assert np.all((idx >> 2) % 4 == 2)

    def test_fully_uniform(self):
        state = new_uniform(RegisterLayout(n=2, k=2, l=4))
        np.testing.assert_allclose(state.amps, 1 / 16, atol=1e-12)

    def test_out_of_range_plane(self):
        with pytest.raises(ValueError):
            new_uniform(RegisterLayout(n=1, k=1), fixed_j=2)


class TestHadamards:
    def test_uniform_from_zero(self):
        state = StateVector.basis(3, 0)
        apply_hadamards(state, range(3))
        np.testing.assert_allclose(state.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(0)
        state = StateVector(3, random_state_amps(rng, 3))
        ref = state.amps.copy()
        apply_hadamards(state, [1])
        apply_hadamards(state, [1])
        np.testing.assert_allclose(state.amps, ref, atol=1e-12)

    def test_minus_state_to_one(self):
        state = StateVector(1, np.array([SQRT1_2, -SQRT1_2]))
        apply_hadamards(state, [0])
        np.testing.assert_allclose(state.amps, [0, 1], atol=1e-12)

    def test_rejects_bad_qubits(self):
        state = StateVector.basis(2, 0)
        with pytest.raises(ValueError):
            apply_hadamards(state, [2])
        with pytest.raises(ValueError):
            apply_hadamards(state, [0, 0])

    def test_controlled_block_only_hits_control_one_sector(self):
        # control qubit 1, target qubit 0; |10> -> |1->|+>... i.e. H on target
        state = StateVector.basis(2, 0b10)
        apply_hadamards(state, [0], controls=[1])
        np.testing.assert_allclose(state.amps, [0, 0, SQRT1_2, SQRT1_2], atol=1e-12)
        state = StateVector.basis(2, 0b00)
        apply_hadamards(state, [0], controls=[1])
        np.testing.assert_allclose(state.amps, [1, 0, 0, 0], atol=1e-12)


class TestPhaseFlipAllZero:
    def test_fixed_point_all_zero(self):
        state = StateVector.basis(2, 0)
        apply_phase_flip_all_zero(state, [0, 1])
        np.testing.assert_allclose(state.amps, [1, 0, 0, 0], atol=1e-12)

    def test_flips_nonzero_basis(self):
        state = StateVector.basis(2, 0b01)
        apply_phase_flip_all_zero(state, [0, 1])
        np.testing.assert_allclose(state.amps, [0, -1, 0, 0], atol=1e-12)

    def test_uniform_pattern(self):
        state = StateVector(2, np.full(4, 0.5))
        apply_phase_flip_all_zero(state, [0, 1])
        np.testing.assert_allclose(state.amps, [0.5, -0.5, -0.5, -0.5], atol=1e-12)

    def test_matches_dense_reflection(self):
        # brute-force dense comparison of 2|0><0| - I on the listed subspace
        rng = np.random.default_rng(1)
        for q, listed in ((2, (0,)), (3, (0, 2)), (4, (1, 2, 3)), (4, (0, 1, 2, 3))):
            proj = np.zeros((1 << q, 1 << q))
            for x in range(1 << q):
                for z in range(1 << q):
                    if all((x >> t) & 1 == 0 and (z >> t) & 1 == 0 for t in listed):
                        same_rest = all(
                            (x >> t) & 1 == (z >> t) & 1
                            for t in range(q)
                            if t not in listed
                        )
                        proj[x, z] = 1.0 if same_rest else 0.0
            dense = 2 * proj - np.eye(1 << q)
            amps = random_state_amps(rng, q)
            state = StateVector(q, amps.copy())
            apply_phase_flip_all_zero(state, listed)
            np.testing.assert_allclose(state.amps, dense @ amps, atol=1e-12)


class TestOpenControlledZ:
    def test_plain_z_without_controls(self):
        state = StateVector.basis(1, 1)
        apply_open_controlled_z(state, 0, [])
        np.testing.assert_allclose(state.amps, [0, -1], atol=1e-12)

    def test_flips_when_controls_zero(self):
        state = StateVector.basis(3, 0b001)  # target 0 reads 1, controls {1,2} read 0
        apply_open_controlled_z(state, 0, [1, 2])
        np.testing.assert_allclose(state.amps[0b001], -1, atol=1e-12)

    def test_inert_when_a_control_is_one(self):
        state = StateVector.basis(3, 0b011)
        apply_open_controlled_z(state, 0, [1, 2])
        np.testing.assert_allclose(state.amps[0b011], +1, atol=1e-12)

    def test_closed_controls(self):
        state = StateVector.basis(3, 0b101)
        apply_open_controlled_z(state, 0, [1], closed_controls=[2])
        np.testing.assert_allclose(state.amps[0b101], -1, atol=1e-12)
        state = StateVector.basis(3, 0b001)
        apply_open_controlled_z(state, 0, [1], closed_controls=[2])
        np.testing.assert_allclose(state.amps[0b001], +1, atol=1e-12)

    def test_rejects_overlap(self):
        state = StateVector.basis(2, 0)
        with pytest.raises(ValueError):
            apply_open_controlled_z(state, 0, [0])


class TestFourier:
    def test_qft_then_inverse_is_identity(self):
        rng = np.random.default_rng(2)
        state = StateVector(4, random_state_amps(rng, 4))
        ref = state.amps.copy()
        apply_qft(state, [0, 1, 2, 3])
        apply_inverse_qft(state, [0, 1, 2, 3])
        np.testing.assert_allclose(state.amps, ref, atol=1e-10)

    def test_phase_half_reads_top_bit(self):
        # Fourier state of phase 1/2: sum_x exp(2 pi i x / 2) |x> / 4 -> s = 1000
        l = 4
        amps = np.exp(2j * np.pi * np.arange(16) * 0.5) / 4.0
        state = StateVector(l, amps)
        apply_inverse_qft(state, range(l))
        expected = np.zeros(16)
        expected[0b1000] = 1.0
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    def test_uniform_reads_zero(self):
        state = StateVector(3, np.full(8, 1 / math.sqrt(8)))
        apply_inverse_qft(state, range(3))
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    def test_respects_listed_order(self):
        # Fourier state built against a permuted wire order must read out on
        # the same wires: register value r(x) = sum_t bit(qs[t], x) * 2**t.
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            r = np.zeros(8, dtype=np.int64)
            for t, qb in enumerate(order):
                r |= ((np.arange(8) >> qb) & 1) << t
            amps = np.exp(2j * np.pi * r * (3 / 8)) / math.sqrt(8)
            state = StateVector(3, amps)
            apply_inverse_qft(state, order)
            hit = int(np.argmax(np.abs(state.amps)))
            assert r[hit] == 3
            assert abs(state.amps[hit]) == pytest.approx(1.0, abs=1e-12)


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(3)
        state = StateVector(3, random_state_amps(rng, 3))
        assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        a = StateVector.basis(2, 0)
        b = StateVector.basis(2, 1)
        assert inner_product(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_plus_zero_overlap(self):
        plus = StateVector(1, np.array([SQRT1_2, SQRT1_2]))
        zero = StateVector.basis(1, 0)
        assert inner_product(plus, zero) == pytest.approx(SQRT1_2, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(StateVector.basis(1, 0), StateVector.basis(2, 0))


@given(
    seed=st.integers(0, 10_000),
    q=st.integers(1, 5),
    data=st.data(),
)
def test_gates_preserve_norm_and_invert(seed, q, data):
    """Any gate followed by its inverse is the identity; norms never drift."""
    rng = np.random.default_rng(seed)
    state = StateVector(q, random_state_amps(rng, q))
    ref = state.amps.copy()
    choice = data.draw(st.sampled_from(["h", "flip", "ocz", "qft"]))
    qubits = data.draw(
        st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True)
    )
    if choice == "h":
        apply_hadamards(state, qubits)
        assert abs(state.norm() - 1.0) < 1e-9
        apply_hadamards(state, list(reversed(qubits)))
    elif choice == "flip":
        apply_phase_flip_all_zero(state, qubits)
        assert abs(state.norm() - 1.0) < 1e-9
        apply_phase_flip_all_zero(state, qubits)
    elif choice == "ocz":
        target, controls = qubits[0], qubits[1:]
        apply_open_controlled_z(state, target, controls)
        assert abs(state.norm() - 1.0) < 1e-9
        apply_open_controlled_z(state, target, controls)
    else:
        apply_qft(state, qubits)
        assert abs(state.norm() - 1.0) < 1e-9
        apply_inverse_qft(state, qubits)
    np.testing.assert_allclose(state.amps, ref, atol=1e-10)


@given(seed=st.integers(0, 10_000), q=st.integers(1, 5), rows=st.integers(1, 4), data=st.data())
def test_batch_gate_equals_gate_on_each_row(seed, q, rows, data):
    """A gate on a (B, 2**q) batch acts on every row as it acts on that row
    alone."""
    rng = np.random.default_rng(seed)
    batch = StateVector(q, np.stack([random_state_amps(rng, q) for _ in range(rows)]))
    singles = [StateVector(q, row.copy()) for row in batch.amps]
    qubits = data.draw(st.permutations(range(q)))
    split = data.draw(st.integers(1, q))
    targets, controls = qubits[:split], qubits[split:]
    gate = data.draw(st.sampled_from([
        lambda s: apply_hadamards(s, targets, controls),
        lambda s: apply_phase_flip_all_zero(s, targets, controls),
        lambda s: apply_open_controlled_z(s, targets[0], controls, targets[1:]),
        lambda s: apply_qft(s, targets),
        lambda s: apply_inverse_qft(s, targets),
    ]))
    gate(batch)
    for single in singles:
        gate(single)
    np.testing.assert_allclose(batch.amps, np.stack([s.amps for s in singles]), rtol=0, atol=1e-14)


def test_state_vector_shapes():
    assert StateVector(2, np.eye(4)[:3]).amps.shape == (3, 4)
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((1, 1, 4))):
        with pytest.raises(ValueError, match="amplitude array must have shape"):
            StateVector(2, bad)


def test_batch_is_held_amplitude_major():
    """A batch is the transpose of a C-contiguous (2**q, B) array, taken as
    given when it already is one; a single state stays C-contiguous, and
    copy() keeps either layout."""
    batch = StateVector(3, np.ones((5, 8)))
    assert batch.amps.T.flags.c_contiguous
    buf = np.zeros((8, 5), dtype=np.complex128)
    wrapped = StateVector(3, buf.T)
    assert np.shares_memory(wrapped.amps, buf)
    single = StateVector(3, np.arange(16.0)[::2])
    assert single.amps.flags.c_contiguous
    for state in (batch, wrapped, single):
        copied = state.copy()
        assert not np.shares_memory(copied.amps, state.amps)
        assert copied.amps.strides == state.amps.strides
        np.testing.assert_array_equal(copied.amps, state.amps)
