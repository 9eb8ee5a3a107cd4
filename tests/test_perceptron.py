import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvstrain.oracles import from_perceptron
from qvstrain.perceptron import (
    CLUSTER_RADIUS_FACTOR,
    PLANTED_BLOCK_BYTES,
    Dataset,
    _planted_block_rows,
    generate_planted_dataset,
    geometric_margin,
    in_version_space,
    load_dataset,
    required_sample_count,
    sample_hyperplanes,
    save_dataset,
)

class TestCorrectlyClassifies:
    # the strict condition (w.x + b) y > 0, as from_perceptron's bit and
    # in_version_space's membership of a one-point dataset
    @staticmethod
    def holds(p, x, label) -> bool:
        data = Dataset([x], [label], claimed_margin=0.1)
        bit = bool(from_perceptron(data, p[None]).bits[0, 0])
        assert bit == in_version_space(data, p)
        return bit

    def test_strictly_positive(self):
        p = np.array([1.0, 0.0, 0.0])
        assert self.holds(p, [1.0, 0.0], +1)

    def test_boundary_fails_strictness(self):
        p = np.array([1.0, 0.0, 0.0])
        assert not self.holds(p, [0.0, 0.0], +1)
        assert not self.holds(p, [0.0, 3.0], -1)

    def test_negative_class(self):
        p = np.array([1.0, 0.0, 0.0])
        assert self.holds(p, [-1.0, 0.0], -1)

    def test_dimension_mismatch(self):
        p = np.array([1.0, 0.0, 0.0])
        data = Dataset([[1.0]], [+1], claimed_margin=0.1)
        for check in (lambda: from_perceptron(data, p[None]),
                      lambda: from_perceptron(data, np.empty((0, 2))),
                      lambda: in_version_space(data, p), lambda: geometric_margin(data, p)):
            with pytest.raises(ValueError):
                check()


class TestGeometricMargin:
    def test_single_point(self):
        data = Dataset([[2.0, 0.0]], [+1], claimed_margin=1.0)
        p = np.array([1.0, 0.0, 0.0])
        assert geometric_margin(data, p) == pytest.approx(2.0)

    def test_misclassified_flips_sign(self):
        data = Dataset([[2.0, 0.0]], [-1], claimed_margin=1.0)
        p = np.array([1.0, 0.0, 0.0])
        assert geometric_margin(data, p) == pytest.approx(-2.0)

    def test_zero_weight_rejected(self):
        data = Dataset([[1.0, 1.0]], [+1], claimed_margin=0.5)
        with pytest.raises(ValueError):
            geometric_margin(data, np.array([0.0, 0.0, 1.0]))

    def test_planted_margin_close_to_requested(self):
        # regenerated instance at the reference figure's parameters
        data, planted = generate_planted_dataset(12, 2, 0.195, rng_seed=20)
        margin = geometric_margin(data, planted)
        assert margin >= 0.195
        assert margin == pytest.approx(0.195, abs=0.2)


class TestVersionSpace:
    def test_planted_plane_always_member(self):
        for seed in range(20):
            data, planted = generate_planted_dataset(16, 2, 0.15, rng_seed=seed)
            assert in_version_space(data, planted)

    def test_flipped_labels_never_member(self):
        data, planted = generate_planted_dataset(10, 2, 0.2, rng_seed=4)
        flipped = Dataset(data.X, -data.y, data.claimed_margin)
        assert not in_version_space(flipped, planted)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**31))
    def test_membership_iff_positive_margin(self, seed):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((6, 2)), np.where(rng.random(6) < 0.5, 1, -1),
                       claimed_margin=0.1)
        p = rng.standard_normal(3)
        if np.linalg.norm(p[:-1]) == 0:
            return
        assert in_version_space(data, p) == (geometric_margin(data, p) > 0)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**31), alpha=st.floats(1e-3, 1e3))
    def test_scaling_invariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((5, 3)), np.where(rng.random(5) < 0.5, 1, -1),
                       claimed_margin=0.1)
        p = rng.standard_normal(4)
        scaled = alpha * p
        assert in_version_space(data, p) == in_version_space(data, scaled)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_hyperplanes(3, 2, rng_seed=11)
        b = sample_hyperplanes(3, 2, rng_seed=11)
        assert a.shape == (3, 3) and a.dtype == np.float64
        assert np.array_equal(a, b)
        # the rows are the generator's draws themselves, [w | b]
        assert np.array_equal(a, np.random.default_rng(11).standard_normal((3, 3)))

    def test_moments(self):
        draws = sample_hyperplanes(10_000, 2, rng_seed=123)
        assert np.all(np.abs(draws.mean(axis=0)) < 4 / math.sqrt(10_000))
        assert np.all((draws.var(axis=0) > 0.9) & (draws.var(axis=0) < 1.1))


class TestRequiredSampleCount:
    def test_simple_formula(self):
        assert required_sample_count(1.0, 1 / math.e, c=2.0) == 2

    def test_reference_value(self):
        assert required_sample_count(0.1, 0.1, c=2.0) == 47

    def test_halving_gamma_doubles(self):
        for gamma in (0.4, 0.2, 0.1):
            k1 = required_sample_count(gamma, 0.1)
            k2 = required_sample_count(gamma / 2, 0.1)
            assert abs(k2 - 2 * k1) <= 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            required_sample_count(0.0, 0.1)
        with pytest.raises(ValueError):
            required_sample_count(0.5, 1.0)


class TestPlantedGenerator:
    def test_margin_postcondition_many_seeds(self):
        for seed in range(100):
            data, planted = generate_planted_dataset(8, 2, 0.2, rng_seed=seed)
            assert geometric_margin(data, planted) >= 0.2
            assert in_version_space(data, planted)

    def test_deterministic(self):
        d1, p1 = generate_planted_dataset(6, 3, 0.1, rng_seed=9)
        d2, p2 = generate_planted_dataset(6, 3, 0.1, rng_seed=9)
        assert np.array_equal(p1, p2)
        assert np.array_equal(d1.X, d2.X) and np.array_equal(d1.y, d2.y)

    def test_unit_norm_plant(self):
        _, planted = generate_planted_dataset(5, 4, 0.3, rng_seed=2)
        assert np.linalg.norm(planted[:-1]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            generate_planted_dataset(5, 2, 0.0, rng_seed=1)
        with pytest.raises(ValueError):
            generate_planted_dataset(5, 2, 1.0, rng_seed=1)


def reference_planted_dataset(n_points, dim, gamma, rng_seed):
    """The per-try loop ``generate_planted_dataset`` evaluates in blocks:
    (X, y, [w | b]), one point at a time through three Generator calls per
    try, with the vector arithmetic of a single try."""
    rng = np.random.default_rng(rng_seed)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    b = float(rng.uniform(-0.3, 0.3) * gamma)
    rho = CLUSTER_RADIUS_FACTOR * gamma
    centers = ((gamma + rho - b) * w, (-(gamma + rho) - b) * w)
    X = np.empty((n_points, dim))
    y = np.empty(n_points, dtype=np.int64)
    for i in range(n_points):
        for _ in range(1000):
            center = centers[int(rng.random() < 0.5)]
            direction = rng.standard_normal(dim)
            direction /= math.sqrt(direction.dot(direction))
            radius = rho * rng.random() ** (1.0 / dim)
            x = center + radius * direction
            margin = float(w @ x) + b
            if abs(margin) >= gamma:
                X[i] = x
                y[i] = +1 if margin >= 0 else -1
                break
        else:
            raise RuntimeError("rejection sampling exhausted")
    return X, y, np.append(w, b)


class TestBlockedPlantedGenerator:
    @given(data=st.data(), dim=st.integers(1, 6), past_one_block=st.booleans(),
           gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=40)
    def test_equals_per_try_loop_bit_for_bit(self, data, dim, past_one_block, gamma, seed):
        rows = _planted_block_rows(dim)
        n = data.draw(st.integers(1, rows)) + (rows if past_one_block else 0)
        got, plane = generate_planted_dataset(n, dim, gamma, rng_seed=seed)
        X, y, expected_plane = reference_planted_dataset(n, dim, gamma, seed)
        assert got.X.tobytes() == X.tobytes()
        assert got.y.tobytes() == y.tobytes()
        assert plane.tobytes() == expected_plane.tobytes()

    @staticmethod
    def block_peak(dim: int) -> int:
        """The traced peak of three blocks' worth of points beyond the
        returned arrays, which the Dataset holds without a copy."""
        n = 3 * _planted_block_rows(dim)
        generate_planted_dataset(1, dim, 0.1, rng_seed=0)  # numpy.random's one-off import
        tracemalloc.start()
        try:
            data, _ = generate_planted_dataset(n, dim, 0.1, rng_seed=dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - (data.X.nbytes + data.y.nbytes)

    @pytest.mark.parametrize("dim", [1, 2, 6, 40, 400, 1000])
    def test_block_arrays_stay_within_the_budget(self, dim):
        assert self.block_peak(dim) <= PLANTED_BLOCK_BYTES

    def test_blocks_use_the_budget(self):
        # a block budgeted for more than it holds is cut smaller than it need be
        assert self.block_peak(40) > PLANTED_BLOCK_BYTES // 2


class OnTheEdge(np.random.Generator):
    """A Generator whose every direction is the plane's normal w (all ones
    at M = 1), whose b is 0, whose cluster draws pick the negative cluster
    and whose radius draws are 1.0, so every point lies exactly gamma from
    the plane before rounding."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        if out is None:
            return np.ones(size)
        out[...] = 1.0
        return out

    def uniform(self, low=0.0, high=1.0, size=None):
        return 0.0

    def random(self, size=None, dtype=np.float64, out=None):
        if out is None:
            return 0.0
        out[...] = (1.0, 0.0)  # a radius draw, then the next cluster draw
        return out


class TestPlantedMarginCheck:
    def test_point_rounded_within_gamma_raises(self):
        # gamma = 0.1: the margin rounds to 0.4 - 0.5 = -0.09999999999999998
        with pytest.raises(RuntimeError, match="within gamma"):
            generate_planted_dataset(3, 1, 0.1, rng_seed=OnTheEdge())

    def test_point_rounded_past_gamma_is_kept(self):
        # gamma = 0.3: rho + center = 1.2 - 1.5 = -0.30000000000000004
        data, plane = generate_planted_dataset(3, 1, 0.3, rng_seed=OnTheEdge())
        assert plane.tolist() == [1.0, 0.0]
        assert data.y.tolist() == [-1, -1, -1] and (data.X == 1.2 - 1.5).all()


class TestGammaSamplingLaw:
    def test_hit_rate_tracks_gamma(self):
        # quick version of the acceptance sweep: 2000 samples per gamma
        for gamma in (0.1, 0.3):
            data, _ = generate_planted_dataset(12, 2, gamma, rng_seed=5)
            X, y = data.X, data.y
            rng = np.random.default_rng(99)
            W = rng.standard_normal((2000, 2))
            B = rng.standard_normal(2000)
            hits = ((y[:, None] * (X @ W.T + B[None, :])) > 0).all(axis=0)
            fraction = hits.mean()
            assert gamma / 10 <= fraction <= 10 * gamma


class TestDatasetIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        labels = np.where(rng.random(9) < 0.5, 1, -1)
        X = np.stack([rng.standard_normal(3) * rng.uniform(1e-8, 1e8) for _ in labels])
        data = Dataset(X, labels, claimed_margin=0.07213000931)
        path = tmp_path / "data.txt"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert loaded.claimed_margin == data.claimed_margin
        assert loaded.n_points == data.n_points
        assert np.array_equal(loaded.X, data.X) and np.array_equal(loaded.y, data.y)

    def test_header_format(self, tmp_path):
        data, _ = generate_planted_dataset(4, 2, 0.25, rng_seed=3)
        path = tmp_path / "d.txt"
        save_dataset(data, path)
        header = path.read_text().splitlines()[0].split()
        assert header[0] == "4" and header[1] == "2"
        assert float(header[2]) == 0.25


class TestValidation:
    def test_label_must_be_pm_one(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset([[1.0]], [0], claimed_margin=0.1)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [1.0, 2.0]], [1, 1], claimed_margin=0.1)

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[1.0]], [1], claimed_margin=0.0)


class TestPlantedGeneratorDigests:
    # SHA-256 of X.tobytes() + y.tobytes(), recorded before the generator
    # wrote its points into preallocated arrays; any drift in the seeded
    # draw order or in the per-point arithmetic changes them.
    @pytest.mark.parametrize("n,m,gamma,seed,digest", [
        (64, 2, 0.1, 0, "ede3397a457790b96a8290b377077d1708e9a863da5b982101f49f59bdc7cacb"),
        (16, 5, 0.2, 3, "6e411ee543920e3a6bdefb379c1264dc2ffc75b8bfc4406233a3252aa901499f"),
        (8, 2, 0.2, 1, "fb39f096bd6447e8f5dc078c61f579ec2b0fcd2bab82aea248b9df19d09caf2a"),
        (1, 1, 0.5, 11, "c68f7f534b0398d1f2bb07750df1faeef6253231f6b3305f0c8d5ae748226035"),
        (512, 3, 0.05, 7, "95865159c34b0f6f1e67efc5a75ab177a241808ccb4b8b8c9543d5fb94c01b50"),
    ])
    def test_arrays_match_recorded_digest(self, n, m, gamma, seed, digest):
        data, _ = generate_planted_dataset(n, m, gamma, rng_seed=seed)
        X, y = data.X, data.y
        assert X.dtype == np.float64 and y.dtype == np.int64
        assert X.shape == (n, m) and y.shape == (n,)
        assert hashlib.sha256(X.tobytes() + y.tobytes()).hexdigest() == digest


class TestArrayDataset:
    def test_stores_validated_read_only_arrays(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = Dataset(X, [1, -1], 0.5)
        stored, labels = data.X, data.y
        assert labels.dtype == np.int64 and labels.tolist() == [1, -1]
        X[0, 0] = 7.0  # the dataset holds its own copy
        assert stored[0, 0] == 1.0
        with pytest.raises(ValueError):
            stored[0, 0] = 7.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_x(self, value):
        with pytest.raises(ValueError, match="finite"):
            Dataset([[0.5, value]], [1], 0.1)

    @pytest.mark.parametrize("label", [0, 2, 0.5])
    def test_rejects_labels_other_than_pm_one(self, label):
        with pytest.raises(ValueError, match="labels"):
            Dataset([[0.5], [1.0]], [1, label], 0.1)

    @pytest.mark.parametrize("X,y", [
        ([[1.0, 2.0], [3.0, 4.0]], [1]),
        ([[1.0, 2.0]], [[1]]),
        ([1.0, 2.0], [1, 1]),
        (np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),
        (np.zeros((2, 0)), [1, 1]),
    ], ids=["short-y", "2d-y", "1d-x", "no-points", "no-features"])
    def test_rejects_mismatched_or_empty_shapes(self, X, y):
        with pytest.raises(ValueError):
            Dataset(X, y, 0.1)

    def test_rejects_empty_point_list(self):
        with pytest.raises(ValueError):
            Dataset([], [], claimed_margin=0.1)
