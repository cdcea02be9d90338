"""Tests for repro.op.profile."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import GridPartition, make_gaussian_clusters
from repro.exceptions import ProfileError, ShapeError
from repro.op import (
    CellProfile,
    EmpiricalProfile,
    GaussianMixtureProfile,
    ground_truth_profile_for_clusters,
    profile_from_dataset,
)


@pytest.fixture()
def gmm_profile():
    weights = np.array([0.7, 0.3])
    means = np.array([[0.3, 0.3], [0.7, 0.7]])
    variances = np.full((2, 2), 0.01)
    return GaussianMixtureProfile(weights, means, variances, component_labels=np.array([0, 1]))


class TestGaussianMixtureProfile:
    def test_density_higher_at_means(self, gmm_profile):
        at_mean = gmm_profile.density(np.array([[0.3, 0.3]]))[0]
        far = gmm_profile.density(np.array([[0.05, 0.95]]))[0]
        assert at_mean > far

    def test_density_respects_weights(self, gmm_profile):
        heavy = gmm_profile.density(np.array([[0.3, 0.3]]))[0]
        light = gmm_profile.density(np.array([[0.7, 0.7]]))[0]
        assert heavy > light

    def test_log_density_consistent(self, gmm_profile):
        x = np.random.default_rng(0).random((10, 2))
        np.testing.assert_allclose(
            np.log(gmm_profile.density(x)), gmm_profile.log_density(x), atol=1e-9
        )

    def test_responsibilities_sum_to_one(self, gmm_profile):
        x = np.random.default_rng(0).random((20, 2))
        resp = gmm_profile.responsibilities(x)
        np.testing.assert_allclose(resp.sum(axis=1), np.ones(20), atol=1e-12)

    def test_samples_follow_weights(self, gmm_profile):
        x, labels = gmm_profile.sample_labeled(4000, rng=0)
        assert np.mean(labels == 0) == pytest.approx(0.7, abs=0.03)
        assert np.all(x >= 0) and np.all(x <= 1)

    def test_sample_without_labels(self):
        profile = GaussianMixtureProfile(
            np.array([1.0]), np.array([[0.5, 0.5]]), np.array([[0.01, 0.01]])
        )
        x, labels = profile.sample_labeled(10, rng=0)
        assert labels is None
        assert x.shape == (10, 2)

    def test_class_prior(self, gmm_profile):
        np.testing.assert_allclose(gmm_profile.class_prior(2), [0.7, 0.3])

    def test_class_prior_requires_labels(self):
        profile = GaussianMixtureProfile(
            np.array([1.0]), np.array([[0.5, 0.5]]), np.array([[0.01, 0.01]])
        )
        with pytest.raises(ProfileError):
            profile.class_prior(2)

    def test_cell_probabilities_sum_to_one(self, gmm_profile):
        partition = GridPartition(2, bins_per_dim=5)
        probs = gmm_profile.cell_probabilities(partition, num_samples=2000, rng=0)
        assert probs.shape == (25,)
        assert probs.sum() == pytest.approx(1.0)

    def test_wrong_dimension_rejected(self, gmm_profile):
        with pytest.raises(ShapeError):
            gmm_profile.density(np.zeros((3, 5)))

    @pytest.mark.parametrize(
        "weights,means,variances",
        [
            (np.array([0.5]), np.zeros((2, 2)), np.ones((2, 2))),
            (np.array([-0.5, 1.5]), np.zeros((2, 2)), np.ones((2, 2))),
            (np.array([0.5, 0.5]), np.zeros((2, 2)), np.zeros((2, 2))),
        ],
    )
    def test_invalid_construction(self, weights, means, variances):
        with pytest.raises(ProfileError):
            GaussianMixtureProfile(weights, means, variances)

    def test_invalid_sample_size(self, gmm_profile):
        with pytest.raises(ProfileError):
            gmm_profile.sample(0)


class TestEmpiricalProfile:
    def test_density_peaks_near_samples(self):
        samples = np.array([[0.2, 0.2], [0.8, 0.8]])
        profile = EmpiricalProfile(samples, bandwidth=0.05)
        near = profile.density(np.array([[0.21, 0.2]]))[0]
        far = profile.density(np.array([[0.5, 0.5]]))[0]
        assert near > far

    def test_weights_change_density(self):
        samples = np.array([[0.2, 0.2], [0.8, 0.8]])
        skewed = EmpiricalProfile(samples, weights=np.array([0.9, 0.1]), bandwidth=0.05)
        assert skewed.density(np.array([[0.2, 0.2]]))[0] > skewed.density(np.array([[0.8, 0.8]]))[0]

    def test_sampling_respects_weights(self):
        samples = np.array([[0.0, 0.0], [1.0, 1.0]])
        profile = EmpiricalProfile(
            samples, labels=np.array([0, 1]), weights=np.array([0.85, 0.15])
        )
        _, labels = profile.sample_labeled(3000, rng=0)
        assert np.mean(labels == 0) == pytest.approx(0.85, abs=0.03)

    def test_resample_noise_moves_points(self):
        samples = np.full((5, 3), 0.5)
        noisy = EmpiricalProfile(samples, resample_noise=0.05)
        drawn = noisy.sample(50, rng=0)
        assert not np.allclose(drawn, 0.5)
        assert np.all(drawn >= 0) and np.all(drawn <= 1)

    def test_resample_noise_none_uses_bandwidth(self):
        samples = np.random.default_rng(0).random((30, 2))
        assert EmpiricalProfile(samples, resample_noise=None).resample_noise == (
            EmpiricalProfile(samples).bandwidth
        )
        profile = EmpiricalProfile(samples, bandwidth=0.3, resample_noise=None)
        assert profile.resample_noise == 0.3

    def test_class_prior(self):
        profile = EmpiricalProfile(np.zeros((4, 2)), labels=np.array([0, 0, 1, 1]))
        np.testing.assert_allclose(profile.class_prior(2), [0.5, 0.5])

    def test_class_prior_requires_labels(self):
        with pytest.raises(ProfileError):
            EmpiricalProfile(np.zeros((4, 2))).class_prior(2)

    def test_invalid_construction(self):
        with pytest.raises(ProfileError):
            EmpiricalProfile(np.zeros((0, 2)))
        with pytest.raises(ProfileError):
            EmpiricalProfile(np.zeros((3, 2)), weights=np.array([1.0, 1.0]))
        with pytest.raises(ProfileError):
            EmpiricalProfile(np.zeros((3, 2)), bandwidth=-1.0)


def _reference_kde_density(profile, x):
    """The 256-row broadcast block formula the cache-sized KDE kernel replaced."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h2 = profile.bandwidth**2
    d = profile.num_features
    log_norm = -0.5 * d * np.log(2 * np.pi * h2)
    densities = np.zeros(len(x))
    block = 256
    for start in range(0, len(x), block):
        chunk = x[start : start + block]
        sq_dist = np.sum((chunk[:, None, :] - profile.samples[None, :, :]) ** 2, axis=2)
        log_kernel = log_norm - 0.5 * sq_dist / h2
        max_log = log_kernel.max(axis=1, keepdims=True)
        weighted = profile.weights[None, :] * np.exp(log_kernel - max_log)
        densities[start : start + block] = np.exp(max_log[:, 0]) * weighted.sum(axis=1)
    return densities


def _assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestEmpiricalDensityKernel:
    """The memoised KDE kernel is pinned bit for bit to the old block formula."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pool_size=st.integers(1, 40),
        # NumPy's contiguous sum unrolls 8-way from 8 elements on; the digits
        # pool has 100 features.  Large pools get a few rows per kernel block.
        num_features=st.sampled_from([1, 2, 5, 8, 9, 17, 100]),
        bandwidth=st.one_of(st.none(), st.floats(0.01, 2.0)),
        uniform_weights=st.booleans(),
        size=st.sampled_from([1, 255, 256, 257, 600]),
    )
    def test_bit_identical_to_block_reference(
        self, seed, pool_size, num_features, bandwidth, uniform_weights, size
    ):
        rng = np.random.default_rng(seed)
        samples = rng.normal(0.5, 0.3, size=(pool_size, num_features))
        weights = None if uniform_weights else rng.random(pool_size) + 1e-3
        profile = EmpiricalProfile(samples, weights=weights, bandwidth=bandwidth)
        x = rng.normal(0.5, 0.4, size=(size, num_features))
        # pool rows and rows repeated within one call
        shared = min(size, pool_size)
        x[:shared] = samples[:shared]
        x[rng.integers(0, size, size // 3)] = x[rng.integers(0, size, size // 3)]
        expected = _reference_kde_density(profile, x)

        _assert_same_bits(profile.density(x), expected)  # cold memo
        _assert_same_bits(profile.density(x), expected)  # warm, same rows
        _assert_same_bits(profile.density(x[::3]), expected[::3])  # subset
        order = rng.permutation(size)
        _assert_same_bits(profile.density(x[order]), expected[order])  # shuffled

        # non-contiguous rows and float32 inputs, against a fresh memo
        fresh = copy.deepcopy(profile)
        _assert_same_bits(fresh.density(np.asfortranarray(x)), expected)
        _assert_same_bits(fresh.density(np.repeat(x, 2, axis=1)[:, ::2]), expected)
        x32 = x.astype(np.float32)
        _assert_same_bits(fresh.density(x32), _reference_kde_density(profile, x32))
        _assert_same_bits(
            EmpiricalProfile(samples, weights=weights, bandwidth=bandwidth).density(x32),
            _reference_kde_density(profile, x32),
        )

    @pytest.mark.parametrize("pool_size", [700, 40, 3])
    def test_kernel_blocks_of_one_and_many_rows(self, pool_size):
        # 700 x 100 exceeds the scratch buffer (one row per block), 40 x 100
        # gets 16 rows per block and 3 x 100 takes all 300 rows in one block
        rng = np.random.default_rng(pool_size)
        profile = EmpiricalProfile(rng.random((pool_size, 100)), weights=rng.random(pool_size))
        x = rng.random((300, 100))
        x[::7] = x[:43]
        _assert_same_bits(profile.density(x), _reference_kde_density(profile, x))

    def test_signed_zero_rows_are_distinct_memo_keys(self):
        samples = np.random.default_rng(0).random((30, 4))
        profile = EmpiricalProfile(samples, bandwidth=0.2)
        positive = np.array([[0.0, 0.5, 0.0, 0.25]])
        negative = np.array([[-0.0, 0.5, 0.0, 0.25]])
        assert positive.tobytes() != negative.tobytes()
        both = np.concatenate([positive, negative, negative, positive])
        expected = _reference_kde_density(profile, both)
        _assert_same_bits(profile.density(both), expected)
        _assert_same_bits(profile.density(negative), expected[1:2])
        assert len(profile._memo) == 2

    def test_pickle_bytes_unchanged_by_density_calls(self):
        rng = np.random.default_rng(1)
        profile = EmpiricalProfile(rng.random((50, 3)), labels=np.arange(50) % 2)
        before = pickle.dumps(profile)
        profile.density(rng.random((120, 3)))
        assert len(profile._memo) == 120
        assert pickle.dumps(profile) == before

    def test_unpickled_and_deepcopied_profiles_agree(self):
        rng = np.random.default_rng(2)
        profile = EmpiricalProfile(rng.random((40, 5)), weights=rng.random(40) + 0.1)
        x = rng.random((300, 5))
        warm = profile.density(x)
        for clone in (pickle.loads(pickle.dumps(profile)), copy.deepcopy(profile)):
            assert len(clone._memo) == 0
            assert clone._memo_lock is not profile._memo_lock
            _assert_same_bits(clone.density(x), warm)

    def test_memo_is_bounded_fifo(self):
        rng = np.random.default_rng(3)
        profile = EmpiricalProfile(rng.random((10, 2)), bandwidth=0.1)
        bound = 4 * len(profile.samples)
        x = rng.random((3 * bound + 7, 2))
        expected = _reference_kde_density(profile, x)
        _assert_same_bits(profile.density(x), expected)
        assert len(profile._memo) == bound
        # the most recent rows are kept; a hit does not refresh a row, the
        # oldest insert is evicted first
        assert list(profile._memo) == [row.tobytes() for row in x[-bound:]]
        profile.density(x[-bound : -bound + 1])
        profile.density(x[:1])
        assert x[-bound].tobytes() not in profile._memo
        assert x[-bound + 1].tobytes() in profile._memo
        assert next(reversed(profile._memo)) == x[0].tobytes()
        for start in range(0, len(x), 9):
            _assert_same_bits(profile.density(x[start : start + 9]), expected[start : start + 9])
            assert len(profile._memo) <= bound

    def test_threads_share_one_memo(self):
        rng = np.random.default_rng(4)
        profile = EmpiricalProfile(rng.random((8, 3)), bandwidth=0.3)
        x = rng.random((5 * 4 * len(profile.samples), 3))
        expected = _reference_kde_density(profile, x)
        mismatches = []
        finished = []

        def worker(index):
            order = np.random.default_rng(index).permutation(len(x))
            for start in range(0, len(order), 7):
                rows = order[start : start + 7]
                if not np.array_equal(profile.density(x[rows]), expected[rows]):
                    mismatches.append(index)
            finished.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(8))
        assert mismatches == []
        assert len(profile._memo) <= 4 * len(profile.samples)


class TestCellProfile:
    def test_density_and_sampling(self):
        partition = GridPartition(2, bins_per_dim=2)
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        profile = CellProfile(partition, probs)
        # density at a point in cell 0 equals its cell probability
        point = partition.cell_center(0)[None, :]
        assert profile.density(point)[0] == pytest.approx(0.7)
        samples = profile.sample(2000, rng=0)
        cells = partition.assign(samples)
        assert np.mean(cells == 0) == pytest.approx(0.7, abs=0.05)

    def test_cell_probabilities_same_partition(self):
        partition = GridPartition(2, bins_per_dim=2)
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        profile = CellProfile(partition, probs)
        np.testing.assert_allclose(profile.cell_probabilities(partition), probs)

    def test_invalid_construction(self):
        partition = GridPartition(2, bins_per_dim=2)
        with pytest.raises(ProfileError):
            CellProfile(partition, np.array([0.5, 0.5]))
        with pytest.raises(ProfileError):
            CellProfile(partition, np.array([-1.0, 1.0, 0.5, 0.5]))


class TestFactories:
    def test_ground_truth_matches_generator(self):
        priors = [0.4, 0.3, 0.2, 0.1]
        dataset = make_gaussian_clusters(
            5000, num_classes=4, cluster_std=0.05, class_priors=priors, rng=0
        )
        profile = ground_truth_profile_for_clusters(4, 2, 0.05, class_priors=priors)
        # data drawn from the generator should have much higher density than
        # uniform points under the ground-truth profile
        data_density = profile.density(dataset.x[:200]).mean()
        uniform_density = profile.density(np.random.default_rng(1).random((200, 2))).mean()
        assert data_density > 2 * uniform_density
        np.testing.assert_allclose(profile.class_prior(4), np.array(priors))

    def test_profile_from_dataset_reweights_classes(self):
        dataset = make_gaussian_clusters(400, num_classes=4, rng=0)
        profile = profile_from_dataset(dataset, class_priors=[0.7, 0.1, 0.1, 0.1])
        np.testing.assert_allclose(profile.class_prior(4), [0.7, 0.1, 0.1, 0.1], atol=1e-9)
        _, labels = profile.sample_labeled(2000, rng=0)
        assert np.mean(labels == 0) == pytest.approx(0.7, abs=0.04)

    def test_profile_from_dataset_invalid_priors(self):
        dataset = make_gaussian_clusters(100, num_classes=4, rng=0)
        with pytest.raises(ProfileError):
            profile_from_dataset(dataset, class_priors=[0.5, 0.5])

    def test_normalized_density_reference_mean_one(self):
        dataset = make_gaussian_clusters(300, num_classes=4, rng=0)
        profile = profile_from_dataset(dataset)
        values = profile.normalized_density(dataset.x, dataset.x)
        assert np.mean(values) == pytest.approx(1.0, rel=0.2)
