import numpy as np
import pytest

from qvstrain.andor import (
    evaluate_direct,
    evaluate_via_search,
    load_instance,
    save_instance,
    table_from_blocks,
)
from qvstrain.oracles import TruthTable

from .conftest import FIXTURE_BITS


def fixture_instance() -> TruthTable:
    return TruthTable(FIXTURE_BITS.copy())


def zeros(n: int, k: int) -> TruthTable:
    return TruthTable(np.zeros((n, k), dtype=np.uint8))


class TestEvaluateDirect:
    def test_fixture_has_full_block(self):
        assert evaluate_direct(fixture_instance()) == 1

    def test_all_zero(self):
        assert evaluate_direct(zeros(3, 3)) == 0

    def test_single_full_block(self):
        z = np.zeros(12, dtype=np.uint8)
        z[4:8] = 1  # block j=1 all ones
        assert evaluate_direct(table_from_blocks(4, 3, z)) == 1

    def test_bit_to_table_mapping(self):
        # column-major flattening: z[i + j*N] = bits[i][j]
        table = table_from_blocks(4, 3, FIXTURE_BITS.T.reshape(-1))
        np.testing.assert_array_equal(table.bits, FIXTURE_BITS)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            table_from_blocks(3, 3, np.zeros(8, dtype=np.uint8))


class TestEvaluateViaSearch:
    def test_fixture_agrees(self):
        value, outcome = evaluate_via_search(fixture_instance(), rng_seed=0)
        assert value == 1 == evaluate_direct(fixture_instance())
        assert outcome.queries["bit_oracle"] > 0

    def test_all_zero_agrees(self):
        value, _ = evaluate_via_search(zeros(3, 3), rng_seed=1)
        assert value == 0

    def test_random_agreement_smoke(self):
        rng = np.random.default_rng(2)
        agree = 0
        for _ in range(15):
            n, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            z = (rng.random(n * k) < rng.uniform(0.3, 0.95)).astype(np.uint8)
            table = table_from_blocks(n, k, z)
            value, _ = evaluate_via_search(table, rng_seed=int(rng.integers(2**31)))
            agree += value == evaluate_direct(table)
        assert agree >= 12


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        table = fixture_instance()
        path = tmp_path / "inst.txt"
        save_instance(table, path)
        assert load_instance(path) == table
        header, bits = path.read_text().splitlines()
        assert header == "4 3"
        assert bits == "".join(str(v) for v in FIXTURE_BITS.T.reshape(-1))
