import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from radial import theorylab as tl
from radial.errors import ConfigurationError, DimensionMismatch, ParameterError


def config(omega=1, r_tilde=10.0, d=2, phi=0.95, beta=None):
    if beta is None:
        beta = 2 * omega + 1
    return tl.TheoryConfig(beta=beta, d=d, r_tilde=r_tilde, phi=phi, omega=omega)


def random_instance(rng, d, omega, n):
    """In-ball radii from uniform draws in a d-cube, labels fair coins."""
    x = rng.uniform(-1, 1, size=(4 * n, d))
    radii = np.sort(np.linalg.norm(x, axis=1))[:n]
    labels = rng.integers(0, 2, n)
    return radii, labels


class TestDesignState:
    def test_single_column_zeta(self):
        state = tl.design_state(np.array([1.0, 2.0]), config())
        assert_allclose(state.zeta, 25.0 / 17.0, atol=1e-12)

    def test_closed_form_weights(self):
        state = tl.design_state(np.array([1.0, 2.0]), config())
        assert state.event_holds
        assert_allclose(state.rho, [4.0 / 3.0, -1.0 / 3.0], atol=1e-12)
        assert_allclose(state.rho.sum(), 1.0, atol=1e-12)

    def test_equal_radii_fail_event(self):
        state = tl.design_state(np.full(5, 0.7), config(phi=0.99))
        assert_allclose(state.zeta, 5.0, atol=1e-9)
        assert not state.event_holds
        assert state.rho.size == 0

    def test_too_few_points(self):
        state = tl.design_state(np.array([0.5]), config(omega=2))
        assert state.n_inside == 1
        assert state.zeta is None
        assert not state.event_holds

    def test_empty_window(self):
        state = tl.design_state(np.array([5.0, 6.0]), config(r_tilde=1.0))
        assert state.n_inside == 0
        assert not state.event_holds

    def test_weight_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            omega = int(rng.integers(1, 3))
            n = int(rng.integers(5, 120))
            radii, _ = random_instance(rng, d, omega, n)
            state = tl.design_state(radii, config(omega=omega, d=d))
            if not state.event_holds:
                continue
            assert_allclose(state.rho.sum(), 1.0, atol=1e-9)
            assert_allclose(state.rho @ state.rho, 1.0 / (n - state.zeta), atol=1e-9)
            for _ in range(5):
                b = rng.normal(size=omega)
                assert_allclose(state.rho @ (state.r_matrix @ b), 0.0, atol=1e-9)

    def test_zeta_within_projector_bounds(self):
        # <1, P 1> = |P 1|^2 for an orthogonal projector P, so 0 <= zeta <= N;
        # zeta = N is attained when the ones vector lies in the column span
        # (equal radii), which is exactly what the guard event excludes.
        rng = np.random.default_rng(1)
        for _ in range(100):
            omega = int(rng.integers(1, 4))
            n = int(rng.integers(1, 50))
            radii = rng.uniform(0.01, 1.0, n)
            state = tl.design_state(radii, config(omega=omega, r_tilde=2.0))
            if state.zeta is not None:
                assert -1e-9 <= state.zeta <= n + 1e-9


class TestClosedFormEstimator:
    def test_hand_value(self):
        state = tl.design_state(np.array([1.0, 2.0]), config())
        assert_allclose(tl.lrr_closed_form(state, [1, 0]), 4.0 / 3.0, atol=1e-12)

    def test_zero_labels(self):
        state = tl.design_state(np.array([1.0, 2.0]), config())
        assert tl.lrr_closed_form(state, [0, 0]) == 0.0

    def test_event_failure_returns_zero(self):
        state = tl.design_state(np.full(5, 0.7), config(phi=0.99))
        assert tl.lrr_closed_form(state, np.ones(5)) == 0.0

    def test_length_mismatch(self):
        state = tl.design_state(np.array([1.0, 2.0]), config())
        with pytest.raises(DimensionMismatch):
            tl.lrr_closed_form(state, [1, 0, 1])

    def test_all_ones_average_to_one(self):
        rng = np.random.default_rng(2)
        radii, _ = random_instance(rng, 2, 1, 30)
        cfg = config()
        assert_allclose(tl.theory_lrr(radii, cfg, np.ones(30)), 1.0, atol=1e-9)

    def test_small_window_returns_zero(self):
        cfg = config(omega=2)
        assert tl.theory_lrr(np.array([0.5, 0.6]), cfg, [1, 1]) == 0.0


class TestFitMatchesClosedForm:
    def test_equivalence_on_random_instances(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 300:
            d = int(rng.integers(1, 4))
            omega = int(rng.integers(1, 3))
            n = int(rng.integers(5, 200))
            radii, labels = random_instance(rng, d, omega, n)
            cfg = config(omega=omega, d=d)
            state = tl.design_state(radii, cfg)
            direct = tl.theory_lrr(radii, cfg, labels)
            oracle = tl.lrr_closed_form(state, labels)
            assert abs(direct - oracle) <= 1e-8
            checked += 1


class TestUniformBallAnalytics:
    def test_moment_examples(self):
        assert_allclose(tl.ball_moment(2, 1, 1.0), 2.0 / 3.0)
        assert_allclose(tl.ball_moment(2, 2, 1.0), 0.5)
        assert tl.ball_moment(5, 3, 0.0) == 0.0

    def test_moment_against_monte_carlo(self):
        rng = np.random.default_rng(4)
        n = 200_000
        for d in (1, 2, 3):
            for k in (1, 2):
                r = tl.sample_ball_radii(rng, n, d, 0.8)
                sample = r**k
                se = sample.std(ddof=1) / np.sqrt(n)
                assert abs(sample.mean() - tl.ball_moment(d, k, 0.8)) <= 3 * se

    def test_constants(self):
        c2 = tl.uniform_ball_constants(2)
        assert_allclose([c2.rho_star, c2.phi], [8.0 / 9.0, 17.0 / 18.0])
        c1 = tl.uniform_ball_constants(1)
        assert_allclose([c1.rho_star, c1.phi], [0.75, 7.0 / 8.0])
        for d in range(1, 12):
            c = tl.uniform_ball_constants(d)
            assert c.rho_star < c.phi < 1.0


class TestZetaConcentration:
    def test_single_point_ratio_is_one(self):
        rows = tl.zeta_concentration(2, 1.0, [1], reps=10, rng_seed=0)
        assert_allclose(rows[0].ratio_mean, 1.0, atol=1e-12)
        assert_allclose(rows[0].ratio_sd, 0.0, atol=1e-12)

    def test_concentrates_at_limit(self):
        rows = tl.zeta_concentration(2, 1.0, [2000], reps=200, rng_seed=0)
        assert abs(rows[0].ratio_mean - 8.0 / 9.0) <= 0.05
        rows = tl.zeta_concentration(1, 1.0, [2000], reps=200, rng_seed=0)
        assert abs(rows[0].ratio_mean - 0.75) <= 0.05

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ParameterError):
            tl.zeta_concentration(0, 1.0, [10], 2, 0)

    def test_nonpositive_cutoff_rejected(self):
        for r_tilde in (0.0, -1.0):
            with pytest.raises(ParameterError):
                tl.zeta_concentration(2, r_tilde, [10], 2, 0)

    @pytest.mark.parametrize("r_tilde, needle", [
        (-1.0, "cutoff radius must be positive"),
        (0.0, "cutoff radius must be positive"),
        (math.nan, "cutoff radius must be positive"),
        (math.inf, "cutoff radius must be positive and finite"),
    ], ids=["negative", "zero", "nan", "infinite"])
    def test_bad_cutoff_radius_is_named(self, r_tilde, needle):
        with pytest.raises(ParameterError, match=needle):
            tl.zeta_concentration(2, r_tilde, [10, 100, 2000], 2, 0)

    def test_cutoff_scale_invariance(self):
        a = tl.zeta_concentration(2, 1.0, [100], reps=50, rng_seed=5)
        b = tl.zeta_concentration(2, 17.0, [100], reps=50, rng_seed=5)
        assert_allclose(a[0].ratio_mean, b[0].ratio_mean, atol=1e-12)


class TestRateExperiment:
    def test_risk_decreases_for_constant_truth(self):
        flat = lambda x, c: np.full(x.shape[0], 0.5)
        report = tl.rate_experiment(
            beta=2, d=1, sample_sizes=[200, 800, 3200], reps=60, rng_seed=0, eta_fn=flat
        )
        assert report.risks[0] > report.risks[-1] > 0.0

    def test_theoretical_slopes(self):
        report = tl.rate_experiment(beta=2, d=1, sample_sizes=[100, 200, 400], reps=5, rng_seed=0)
        assert_allclose(report.theoretical_slope, -0.8)
        report = tl.rate_experiment(beta=2, d=2, sample_sizes=[100, 200, 400], reps=5, rng_seed=0)
        assert_allclose(report.theoretical_slope, -2.0 / 3.0)

    def test_deterministic_given_seed(self):
        a = tl.rate_experiment(beta=2, d=1, sample_sizes=[100, 200, 400], reps=10, rng_seed=9)
        b = tl.rate_experiment(beta=2, d=1, sample_sizes=[100, 200, 400], reps=10, rng_seed=9)
        assert a == b

    def test_rejects_short_size_list(self):
        with pytest.raises(ParameterError):
            tl.rate_experiment(beta=2, d=1, sample_sizes=[100, 200], reps=5, rng_seed=0)

    def test_rejects_beta_whose_guard_event_cannot_hold(self):
        def never_drawn(x, c):
            raise AssertionError("drew a sample")

        # beta = 30 gives omega = 14, so the guard event needs 15 points.
        with pytest.raises(ConfigurationError, match="beta = 30"):
            tl.rate_experiment(beta=30, d=1, sample_sizes=[5, 10, 14], reps=1, eta_fn=never_drawn)


class TestTheoryConfig:
    def test_omega_defaults_from_strict_floor(self):
        cfg = tl.TheoryConfig(beta=5.0, d=1, r_tilde=0.5)
        assert cfg.omega == 2

    def test_boundary_smoothness_needs_explicit_omega(self):
        with pytest.raises(ParameterError):
            tl.TheoryConfig(beta=2.0, d=1, r_tilde=0.5)
        cfg = tl.TheoryConfig(beta=2.0, d=1, r_tilde=0.5, omega=1)
        assert cfg.omega == 1

    def test_default_threshold_matches_uniform_constant(self):
        cfg = tl.TheoryConfig(beta=5.0, d=2, r_tilde=0.5)
        assert_allclose(cfg.phi, 17.0 / 18.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            tl.TheoryConfig(beta=3.0, d=1, r_tilde=-1.0)
        with pytest.raises(ParameterError):
            tl.TheoryConfig(beta=3.0, d=1, r_tilde=0.5, phi=1.5)
        with pytest.raises(ParameterError, match="finite"):
            tl.TheoryConfig(beta=math.inf, d=1, r_tilde=0.5, omega=1)


def test_csv_writers(tmp_path):
    report = tl.rate_experiment(beta=2, d=1, sample_sizes=[100, 200, 400], reps=5, rng_seed=0)
    out = tmp_path / "rate.csv"
    tl.write_rate_csv(report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,risk_mean,risk_se"
    assert len(lines) == 4

    rows = tl.zeta_concentration(2, 1.0, [10, 100], reps=20, rng_seed=0)
    out = tmp_path / "zeta.csv"
    tl.write_zeta_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,zeta_over_N_mean,zeta_over_N_sd"
    assert len(lines) == 3
