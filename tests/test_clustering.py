"""KDE oracles, the valley split, clustering and pruning-rate assignment."""

import time

import numpy as np
import pytest

from fedsim.clustering import (
    ClientProfile,
    DensityEstimate,
    apply_durations,
    cluster_durations,
    cluster_profiles,
    format_cluster_report,
    gaussian_kernel,
    kde_density,
    load_durations,
    measure_durations,
    save_durations,
    silverman_bandwidth,
    _deep_minima,
    _split,
    _valley_runs,
)
from fedsim.errors import ConfigError


def brute_force_kde(grid, sample, h):
    """The textbook double loop the vectorised estimator must reproduce."""

    out = np.zeros_like(grid)
    for gi, g in enumerate(grid):
        total = 0.0
        for x in sample:
            u = (g - x) / h
            total += np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
        out[gi] = total / (len(sample) * h)
    return out


class TestGaussianKernel:
    def test_quadrature_integrates_to_one(self):
        u = np.linspace(-8, 8, 100_001)
        integral = np.trapezoid(gaussian_kernel(u), u)
        np.testing.assert_allclose(integral, 1.0, atol=1e-6)

    def test_symmetry_and_peak(self):
        u = np.linspace(0.1, 5, 50)
        np.testing.assert_array_equal(gaussian_kernel(u), gaussian_kernel(-u))
        np.testing.assert_allclose(gaussian_kernel(0.0), 1 / np.sqrt(2 * np.pi), rtol=1e-15)


class TestBandwidth:
    def test_matches_silverman_formula(self):
        rng = np.random.default_rng(42)
        x = rng.normal(3.0, 2.0, size=100)
        std = np.std(x, ddof=1)
        iqr = np.percentile(x, 75) - np.percentile(x, 25)
        expected = 0.9 * min(std, iqr / 1.34) * 100 ** (-0.2)
        np.testing.assert_allclose(silverman_bandwidth(x), expected, rtol=1e-12)

    def test_degenerate_sample_gets_positive_floor(self):
        assert silverman_bandwidth(np.full(10, 7.0)) > 0
        assert silverman_bandwidth(np.array([4.0])) > 0


class TestKdeDensity:
    def test_matches_brute_force_to_1e12(self):
        rng = np.random.default_rng(7)
        sample = rng.normal(5, 2, size=40)
        est = kde_density(sample, bandwidth=0.8)
        reference = brute_force_kde(est.grid, sample, 0.8)
        np.testing.assert_allclose(est.density, reference, rtol=1e-12, atol=1e-15)

    def test_grid_span_and_size(self):
        sample = np.array([2.0, 4.0, 9.0])
        est = kde_density(sample, bandwidth=0.5)
        assert est.grid.size == 512
        np.testing.assert_allclose(est.grid[0], 2.0 - 1.5)
        np.testing.assert_allclose(est.grid[-1], 9.0 + 1.5)

    def test_density_integrates_to_about_one(self):
        rng = np.random.default_rng(11)
        sample = rng.normal(0, 1, size=200)
        est = kde_density(sample)
        np.testing.assert_allclose(np.trapezoid(est.density, est.grid), 1.0, atol=5e-3)


class TestValleyClustering:
    def test_boundary_tie_goes_to_faster_cluster(self):
        grid = np.arange(11, dtype=np.float64)
        density = np.array([5, 4, 3, 2, 1, 0.5, 1, 2, 3, 4, 5], dtype=np.float64)
        est = DensityEstimate(grid, density)
        part, cuts = _split(est, np.array([4.9, 5.0, 5.1]), 1.0)
        np.testing.assert_array_equal(cuts, [5.0])
        np.testing.assert_array_equal(part, [0, 0, 1])

    def test_valleys_are_every_interior_minimum(self):
        # oracle: every interior minimum, plateaus at their midpoint
        rng = np.random.default_rng(31)
        for _ in range(300):
            size = int(rng.integers(3, 40))
            density = rng.integers(0, 5, size=size).astype(np.float64) * rng.random()
            grid = np.sort(rng.normal(size=size))
            expected = np.asarray(
                [0.5 * (grid[a] + grid[b]) for a, b in _valley_runs(density)], dtype=np.float64
            )
            assert _deep_minima(density, grid, 1.0).tobytes() == expected.tobytes()

    def test_plateau_valley_uses_midpoint(self):
        grid = np.arange(7, dtype=np.float64)
        density = np.array([5, 4, 1, 1, 1, 4, 5], dtype=np.float64)
        est = DensityEstimate(grid, density)
        _, cuts = _split(est, np.array([1.0, 5.0]), 1.0)
        np.testing.assert_array_equal(cuts, [3.0])

    def test_empty_valley_intervals_are_dropped_and_parts_renumbered(self):
        grid = np.arange(9, dtype=np.float64)
        density = np.array([5, 1, 5, 1, 5, 1, 5, 1, 5], dtype=np.float64)
        est = DensityEstimate(grid, density)
        # valleys at 1, 3, 5, 7; nothing lies between 1 and 5
        part, cuts = _split(est, np.array([6.0, 0.5, 5.5, 8.0]), 1.0)
        np.testing.assert_array_equal(part, [1, 0, 1, 2])
        np.testing.assert_array_equal(cuts, [5.0, 7.0])

    def test_trimodal_sample_recovers_three_clusters(self):
        rng = np.random.default_rng(2024)
        means = [2.0, 8.0, 30.0]
        durations = np.concatenate([rng.normal(m, 0.3, size=10) for m in means])
        truth = np.repeat([0, 1, 2], 10)
        start = time.perf_counter()
        assignment = cluster_durations(durations)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert assignment.cluster_count == 3
        np.testing.assert_array_equal(assignment.cluster_of, truth)
        # brute force: every reported boundary separates generating components
        comp_max = [durations[truth == c].max() for c in range(3)]
        comp_min = [durations[truth == c].min() for c in range(3)]
        for b in assignment.boundaries:
            assert all(b < comp_min[c] or b > comp_max[c] for c in range(3))
        expected_rates = assignment.cluster_means[0] / assignment.cluster_means
        np.testing.assert_allclose(assignment.rates, expected_rates, atol=1e-4)
        assert assignment.rates[0] == 1.0

    def test_single_pass_resolves_trimodal_at_moderate_bandwidth(self):
        rng = np.random.default_rng(2024)
        durations = np.concatenate([rng.normal(m, 0.3, size=10) for m in (2.0, 8.0, 30.0)])
        assignment = cluster_durations(durations, bandwidth=0.5, refine=False)
        assert assignment.cluster_count == 3
        np.testing.assert_array_equal(assignment.cluster_of, np.repeat([0, 1, 2], 10))

    def test_refinement_leaves_unimodal_sample_alone(self):
        rng = np.random.default_rng(5)
        durations = rng.normal(10, 0.5, size=30)
        single = cluster_durations(durations, refine=False)
        refined = cluster_durations(durations)
        assert single.cluster_count == 1
        assert refined.cluster_count == 1

    def test_refinement_is_permutation_invariant(self):
        rng = np.random.default_rng(12)
        durations = np.concatenate(
            [rng.normal(m, 0.3, size=8) for m in (2.0, 8.0, 30.0)]
        )
        base = cluster_durations(durations)
        perm = rng.permutation(durations.size)
        shuffled = cluster_durations(durations[perm])
        np.testing.assert_array_equal(shuffled.cluster_of, base.cluster_of[perm])

    def test_membership_is_permutation_invariant(self):
        rng = np.random.default_rng(3)
        durations = np.concatenate([rng.normal(2, 0.2, 8), rng.normal(10, 0.2, 8)])
        base = cluster_durations(durations, refine=False)
        perm = rng.permutation(durations.size)
        shuffled = cluster_durations(durations[perm], refine=False)
        np.testing.assert_array_equal(shuffled.cluster_of, base.cluster_of[perm])

    def test_duplication_invariance_at_fixed_bandwidth(self):
        rng = np.random.default_rng(4)
        durations = np.concatenate([rng.normal(3, 0.2, 6), rng.normal(12, 0.2, 6)])
        base = cluster_durations(durations, bandwidth=0.5, refine=False)
        doubled = np.concatenate([durations, durations])
        dup = cluster_durations(doubled, bandwidth=0.5, refine=False)
        np.testing.assert_array_equal(dup.cluster_of[: durations.size], base.cluster_of)
        np.testing.assert_array_equal(dup.cluster_of[durations.size :], base.cluster_of)

    def test_unimodal_sample_is_one_cluster(self):
        rng = np.random.default_rng(5)
        durations = rng.normal(10, 0.5, size=30)
        assignment = cluster_durations(durations, refine=False)
        assert assignment.cluster_count == 1
        np.testing.assert_array_equal(assignment.rates, [1.0])

    def test_cluster_means_strictly_increase(self):
        rng = np.random.default_rng(6)
        durations = np.concatenate(
            [rng.normal(m, 0.3, size=12) for m in (1.5, 6.0, 14.0, 40.0)]
        )
        assignment = cluster_durations(durations, refine=False)
        assert np.all(np.diff(assignment.cluster_means) > 0)

    def test_refinement_only_splits(self):
        # every unrefined boundary survives and no refined cluster spans two
        # unrefined ones, at Silverman's bandwidth (even samples) and fixed ones
        rng = np.random.default_rng(17)
        split_further = 0
        for sample in range(300):
            modes = rng.uniform(0.5, 40.0, size=int(rng.integers(1, 5)))
            spreads = rng.uniform(0.01, 3.0, size=modes.size)
            component = rng.integers(0, modes.size, size=int(rng.integers(1, 40)))
            durations = np.abs(rng.normal(modes[component], spreads[component])) + 0.05
            h = None if sample % 2 == 0 else float(rng.uniform(0.05, 3.0))
            single = cluster_durations(durations, h, refine=False)
            refined = cluster_durations(durations, h)
            assert set(single.boundaries.tolist()) <= set(refined.boundaries.tolist())
            for c in range(refined.cluster_count):
                assert np.unique(single.cluster_of[refined.members(c)]).size == 1
            split_further += refined.cluster_count > single.cluster_count
        assert split_further > 0


class TestRates:
    def test_rates_are_fastest_over_mean_and_monotone(self):
        rng = np.random.default_rng(8)
        durations = np.concatenate([rng.normal(m, 0.2, 10) for m in (2.0, 5.0, 9.0)])
        assignment = cluster_durations(durations, refine=False)
        np.testing.assert_allclose(
            assignment.rates, assignment.cluster_means[0] / assignment.cluster_means, rtol=1e-12
        )
        assert assignment.rates[0] == 1.0
        assert np.all(np.diff(assignment.rates) < 0)
        assert np.all(assignment.rates <= 1.0)

    def test_ladder_snapping_nearest(self):
        durations = np.array([2.0, 2.0, 8.0, 8.0])
        snapped = cluster_durations(durations, bandwidth=0.5, ladder=(1.0, 0.8, 0.6))
        # raw rates are [1.0, 0.25] -> snapped to [1.0, 0.6]
        np.testing.assert_array_equal(snapped.cluster_means, [2.0, 8.0])
        np.testing.assert_array_equal(snapped.rates, [1.0, 0.6])

    def test_ladder_tie_prefers_smaller(self):
        durations = np.array([3.5, 3.5, 10.0, 10.0])
        # raw slow rate = 3.5/10 = 0.35, equidistant from 0.3 and 0.4
        snapped = cluster_durations(durations, bandwidth=0.5, ladder=(0.3, 0.4, 1.0))
        np.testing.assert_array_equal(snapped.cluster_means, [3.5, 10.0])
        np.testing.assert_array_equal(snapped.rates, [1.0, 0.3])

    def test_fastest_cluster_takes_the_rung_nearest_one(self):
        profiles = [ClientProfile(i, 1.0, d) for i, d in enumerate([2.0] * 5 + [5.0] * 5)]
        assignment = cluster_profiles(profiles, ladder=(0.5, 0.3))
        # raw rates are [1.0, 0.4]; a ladder without 1.0 cannot give the fastest 1.0
        assert assignment.cluster_count == 2
        np.testing.assert_array_equal(assignment.rates, [0.5, 0.5])


class TestProfiling:
    def _profiles(self, speeds):
        return [ClientProfile(i, s) for i, s in enumerate(speeds)]

    def test_zero_noise_is_exact_product(self):
        measured = measure_durations(self._profiles([1.0, 2.0, 4.0]), 3.0, 0.0, seed=0)
        np.testing.assert_allclose(
            [p.measured_duration for p in measured], [3.0, 6.0, 12.0], rtol=1e-15
        )

    def test_noise_is_bounded_and_seeded(self):
        profiles = self._profiles([2.0] * 200)
        measured = measure_durations(profiles, 5.0, 0.05, seed=1)
        durations = np.array([p.measured_duration for p in measured])
        assert np.all(durations >= 10.0 * (1 - 0.15) - 1e-12)
        assert np.all(durations <= 10.0 * (1 + 0.15) + 1e-12)
        again = measure_durations(profiles, 5.0, 0.05, seed=1)
        np.testing.assert_array_equal(durations, [p.measured_duration for p in again])

    def test_durations_file_round_trip(self, tmp_path):
        measured = measure_durations(self._profiles([1.0, 3.0, 9.0]), 2.0, 0.05, seed=7)
        path = tmp_path / "durations.csv"
        save_durations(path, measured)
        loaded = load_durations(path)
        reattached = apply_durations(self._profiles([1.0, 3.0, 9.0]), loaded)
        for a, b in zip(measured, reattached):
            assert a.measured_duration == b.measured_duration  # repr round-trip is exact

    def test_durations_file_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.5\nnot a line\n")
        with pytest.raises(ConfigError, match="bad.csv:2"):
            load_durations(path)
        path.write_text("0,1.5\n0,2.5\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_durations(path)
        for bad in ("-3", "nan", "inf", "-inf"):
            path.write_text(f"0,1.5\n1,{bad}\n")
            with pytest.raises(ConfigError, match="bad.csv:2: duration must be positive and finite"):
                load_durations(path)
        with pytest.raises(ConfigError, match="exist"):
            load_durations(tmp_path / "missing.csv")
        path.write_text("# only comments\n")
        with pytest.raises(ConfigError, match="no duration"):
            load_durations(path)

    def test_apply_durations_id_mismatch(self, tmp_path):
        profiles = self._profiles([1.0, 2.0])
        with pytest.raises(ConfigError, match="lacks"):
            apply_durations(profiles, {0: 1.0})
        with pytest.raises(ConfigError, match="unknown"):
            apply_durations(profiles, {0: 1.0, 1: 2.0, 5: 9.0})

    def test_end_to_end_profile_clustering_report(self):
        profiles = self._profiles([1.0] * 5 + [2.5] * 5)
        measured = measure_durations(profiles, 4.0, 0.02, seed=3)
        assignment = cluster_profiles(measured, ladder=[1.0, 0.8, 0.6, 0.4])
        assert assignment.cluster_count == 2
        assert assignment.rates[0] == 1.0
        assert assignment.rates[1] == 0.4  # 1/2.5
        report = format_cluster_report(assignment, measured)
        assert "clusters: 2" in report
        assert "cluster 0" in report and "cluster 1" in report
        assert "rate=0.4000" in report
