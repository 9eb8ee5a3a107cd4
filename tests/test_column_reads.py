"""Questions about one column read that column alone: the classical scan
reads each column up to its first 0, in blocks, and a column's padded
count is read from its own bits."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qvstrain.baselines import SCAN_FIRST_ROWS, classical_version_space_search
from qvstrain.oracles import OracleHandle, TruthTable, _column_counts
from qvstrain.search import SearchOutcome

from .conftest import random_kernel_table


def entry_scan(handle: OracleHandle) -> SearchOutcome:
    """The reference scan: one f lookup per iteration, columns left to
    right, rows top down, leaving a column at its first 0."""
    bits = handle.table.bits
    queries = 0
    for j in range(handle.n_cols):
        ok = True
        for i in range(handle.n_rows):
            queries += 1
            if bits[i, j] == 0:
                ok = False
                break
        if ok:
            handle.ledger.record("classical_f", queries)
            return SearchOutcome(index=j, queries={"classical_f": queries},
                                 trials={"columns_scanned": j + 1})
    handle.ledger.record("classical_f", queries)
    return SearchOutcome(index=None, queries={"classical_f": queries},
                         trials={"columns_scanned": handle.n_cols})


@st.composite
def scan_tables(draw):
    """A 1-12 x 1-8 table whose columns are each all ones, all zeros, all
    ones but the last row, or random."""
    rows = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(["ones", "zeros", "last_zero", "random"]),
                          min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    bits = (rng.random((rows, len(kinds))) < rng.uniform(0.3, 1.0)).astype(np.uint8)
    for j, kind in enumerate(kinds):
        if kind != "random":
            bits[:, j] = kind != "zeros"
        if kind == "last_zero":
            bits[-1, j] = 0
    return bits


class TestPerColumnScan:
    @given(bits=scan_tables())
    @example(bits=np.array([[1, 0, 1]], dtype=np.uint8))
    @example(bits=np.array([[0, 1, 1]], dtype=np.uint8))
    @example(bits=np.array([[1], [1], [0]], dtype=np.uint8))
    @example(bits=np.array([[1], [1], [1]], dtype=np.uint8))
    @example(bits=np.array([[0]], dtype=np.uint8))
    @example(bits=np.array([[1]], dtype=np.uint8))
    def test_equals_per_entry_loop(self, bits):
        scanned, reference = OracleHandle(TruthTable(bits)), OracleHandle(TruthTable(bits))
        out, ref = classical_version_space_search(scanned), entry_scan(reference)
        assert out.index == ref.index
        assert out.queries == ref.queries
        assert list(out.trials.items()) == list(ref.trials.items())
        assert scanned.ledger.snapshot() == reference.ledger.snapshot()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("solution", [False, True], ids=["no-solution", "all-ones-column"])
    def test_blocks_equal_per_entry_loop(self, seed, solution):
        # first 0s far past the first block, and N not a multiple of it
        rng = np.random.default_rng(seed)
        rows = 7 * SCAN_FIRST_ROWS + 37
        bits = (rng.random((rows, 16)) < rng.uniform(0.99, 0.999)).astype(np.uint8)
        bits[rows - 1 - seed, :] = 0  # no column is all ones by chance
        if solution:
            bits[:, int(rng.integers(0, 16))] = 1
        scanned, reference = OracleHandle(TruthTable(bits)), OracleHandle(TruthTable(bits))
        out, ref = classical_version_space_search(scanned), entry_scan(reference)
        assert (out.index is None) is not solution
        assert (out.index, out.queries, out.trials) == (ref.index, ref.queries, ref.trials)
        assert scanned.ledger.snapshot() == reference.ledger.snapshot()


class TestColumnCounts:
    @given(seed=st.integers(0, 2**31))
    @example(seed=0)
    def test_one_column_equals_its_slice_of_the_table(self, seed):
        # padded tables: phantom rows count as ones, phantom columns read 0
        handle = random_kernel_table(np.random.default_rng(seed))
        counts = _column_counts(handle)
        for j in range(1 << handle.k):
            one = _column_counts(handle, j)
            assert one.shape == (1,) and one.dtype == counts.dtype
            assert (one == counts[j : j + 1]).all()
