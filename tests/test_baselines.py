import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvstrain.baselines import (
    brute_force_g,
    classical_version_space_search,
    online_train,
    perceptron_mistake_bound,
)
from qvstrain.oracles import OracleHandle, TruthTable
from qvstrain.perceptron import (
    Dataset,
    generate_planted_dataset,
    in_version_space,
)


class TestClassicalSearch:
    def test_fixture_exact_count(self, fixture_handle):
        # top-down, left-to-right with early exit: column 0 fails at row 0
        # (1 query), column 1 at row 2 (3 queries), column 2 scans all 4
        out = classical_version_space_search(fixture_handle)
        assert out.index == 2
        assert out.queries["classical_f"] == 1 + 3 + 4
        assert fixture_handle.ledger.classical_f == 8

    def test_all_zero_table(self):
        handle = OracleHandle(TruthTable(np.zeros((4, 3), dtype=np.uint8)))
        out = classical_version_space_search(handle)
        assert not out.found
        assert out.queries["classical_f"] == 3  # each column fails at row 0

    def test_bottom_fail_worst_case(self):
        # every column all ones except the last row: the scan pays N per
        # column, N * K in total, and still finds nothing
        bits = np.ones((6, 4), dtype=np.uint8)
        bits[5, :] = 0
        handle = OracleHandle(TruthTable(bits))
        out = classical_version_space_search(handle)
        assert not out.found
        assert out.queries["classical_f"] == 6 * 4

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**31))
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random((5, 4)) < rng.uniform(0.2, 0.9)).astype(np.uint8)
        handle = OracleHandle(TruthTable(bits))
        out = classical_version_space_search(handle)
        g = brute_force_g(handle)
        if out.found:
            assert g[out.index] == 1
            assert not g[: out.index].any()  # first solution left to right
        else:
            assert not g.any()


class TestBruteForceG:
    def test_fixture(self, fixture_handle):
        np.testing.assert_array_equal(brute_force_g(fixture_handle), [0, 0, 1])

    def test_all_ones(self):
        handle = OracleHandle(TruthTable(np.ones((3, 5), dtype=np.uint8)))
        np.testing.assert_array_equal(brute_force_g(handle), np.ones(5))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**31))
    def test_matches_per_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random((6, 3)) < 0.7).astype(np.uint8)
        handle = OracleHandle(TruthTable(bits))
        g = brute_force_g(handle)
        for j in range(3):
            assert g[j] == int(all(bits[i, j] for i in range(6)))

    def test_unmetered(self, fixture_handle):
        brute_force_g(fixture_handle)
        assert fixture_handle.ledger.snapshot() == {
            "bit_oracle": 0,
            "phase_oracle": 0,
            "controlled_phase_oracle": 0,
            "classical_f": 0,
        }


class TestOnlineTrain:
    def test_converges_within_mistake_bound(self):
        for seed in range(10):
            data, planted = generate_planted_dataset(50, 2, 0.2, rng_seed=seed)
            bound = perceptron_mistake_bound(data, planted)
            plane = online_train(data, max_updates=math.ceil(bound))
            assert plane is not None
            assert in_version_space(data, plane)

    def test_separating_initial_plane_zero_updates(self):
        data, planted = generate_planted_dataset(20, 2, 0.3, rng_seed=3)
        plane = online_train(data, max_updates=1, initial=planted)
        assert np.array_equal(plane, planted)

    def test_single_point_one_update(self):
        data = Dataset([[2.0, 1.0]], [+1], claimed_margin=0.5)
        plane = online_train(data, max_updates=1)
        assert plane is not None
        np.testing.assert_array_equal(plane, [2.0, 1.0, 1.0])

    def test_budget_exhaustion_returns_none(self):
        # contradictory labels on the same point can never separate
        data = Dataset([[1.0, 0.0], [1.0, 0.0]], [+1, -1], claimed_margin=0.1)
        assert online_train(data, max_updates=50) is None

    def test_rejects_bad_budget(self):
        data = Dataset([[1.0]], [+1], claimed_margin=0.1)
        with pytest.raises(ValueError):
            online_train(data, max_updates=0)


class TestMistakeBound:
    def test_requires_separating_plane(self):
        data = Dataset([[1.0, 0.0]], [-1], claimed_margin=0.1)
        with pytest.raises(ValueError):
            perceptron_mistake_bound(data, np.array([1.0, 0.0, 0.0]))
