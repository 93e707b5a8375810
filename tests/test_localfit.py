import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import expit

from radial import localfit
from radial.errors import DimensionMismatch, ParameterError, RadialError
from radial.localfit import (
    RIDGE,
    SEPARATION_NORM,
    SEPARATION_RIDGE,
    MultivariatePoly,
    RadialFeatures,
    RadialPoly,
    fit_logistic,
    solve_wls,
)


def _loglik(features, targets, weights, theta, ridge=0.0):
    f = features @ theta
    ll = np.sum(weights * (targets * f - np.logaddexp(0.0, f)))
    return ll - 0.5 * ridge * np.sum(theta[1:] ** 2)


class TestFeatureMaps:
    def test_multivariate_count(self):
        from math import comb

        for d in (1, 2, 3, 4):
            for q in (0, 1, 2, 3):
                assert MultivariatePoly(q, d).output_dim == comb(d + q, q)

    def test_radial_dims(self):
        assert RadialPoly(3).output_dim == 4
        assert RadialPoly(2, even=True).output_dim == 3

    def test_evaluate_radial_at_zero(self):
        assert RadialPoly(2).expand(0.0) @ [0.3, -1.0, 5.0] == 0.3

    def test_evaluate_multivariate(self):
        assert MultivariatePoly(1, 2).expand([1.0, 1.0]) @ [1.0, 2.0, 3.0] == 6.0

    def test_evaluate_even(self):
        assert_allclose(RadialPoly(1, even=True).expand(2.0) @ [0.5, -0.1], 0.1)

    def test_even_basis_values(self):
        assert_allclose(RadialPoly(2, even=True).expand(2.0), [1.0, 4.0, 16.0])

    def test_multivariate_expand_is_the_product_of_powers_bitwise(self):
        rng = np.random.default_rng(9)
        for degree in range(5):
            for dim in range(1, 6):
                x = rng.normal(size=(7, 29, dim)) * rng.choice([1e-3, 1.0, 50.0])
                x.flat[::31] = np.nan
                x.flat[::37] = 0.0
                x.flat[::41] = -np.inf
                exps = localfit._monomial_exponents(degree, dim)
                want = np.prod(x[..., None, :] ** exps, axis=-1)
                got = MultivariatePoly(degree, dim).expand(x)
                assert got.tobytes() == want.tobytes()


class TestWls:
    def test_exact_line(self):
        feats = RadialPoly(1).expand(np.array([1.0, 2.0, 3.0]))
        theta, flag = solve_wls(feats, [1.0, 2.0, 3.0], np.ones(3))
        assert_allclose(theta, [0.0, 1.0], atol=1e-12)
        assert not flag

    def test_constant_mean(self):
        theta, _ = solve_wls(np.ones((3, 1)), [1.0, 0.0, 1.0], np.ones(3))
        assert_allclose(theta, [2.0 / 3.0])

    def test_weighted_mean(self):
        theta, _ = solve_wls(np.ones((2, 1)), [1.0, 0.0], [3.0, 1.0])
        assert_allclose(theta, [0.75])

    def test_rank_deficient_least_norm(self):
        # duplicated column: solutions (a, b) with a + b = 1; least norm is (1/2, 1/2)
        feats = np.column_stack([np.arange(1.0, 5.0), np.arange(1.0, 5.0)])
        theta, flag = solve_wls(feats, np.arange(1.0, 5.0), np.ones(4))
        assert flag
        assert_allclose(theta, [0.5, 0.5], atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, p = rng.integers(5, 30), rng.integers(1, 5)
            X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
            y = rng.normal(size=n)
            w = rng.uniform(0.1, 2.0, size=n)
            theta, flag = solve_wls(X, y, w)
            assert not flag
            resid = X.T @ (w * (y - X @ theta))
            assert_allclose(resid, 0.0, atol=1e-8)

    def test_intercept_invariant_under_radial_rescaling(self):
        rng = np.random.default_rng(4)
        for basis in (RadialPoly(2), RadialPoly(4), RadialPoly(1, even=True), RadialPoly(2, even=True)):
            r = rng.uniform(0.01, 1.0, size=40)
            y = rng.normal(size=40)
            w = rng.uniform(0.5, 1.5, size=40)
            base, _ = solve_wls(basis.expand(r), y, w)
            for c in (1e-3, 0.1, 7.0, 1e3):
                scaled, _ = solve_wls(basis.expand(c * r), y, w)
                assert_allclose(scaled[0], base[0], rtol=1e-9, atol=1e-12)

    def test_batched_matches_looped(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 10, 3))
        X[..., 0] = 1.0
        y = rng.normal(size=(6, 10))
        w = rng.uniform(0.1, 1.0, size=(6, 10))
        theta, flags = solve_wls(X, y, w)
        for b in range(6):
            tb, fb = solve_wls(X[b], y[b], w[b])
            assert_allclose(theta[b], tb, atol=1e-10)
            assert flags[b] == fb

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_batch_rows_match_single_problem_fits_bitwise(self, order):
        rng = np.random.default_rng(6)
        for basis in (RadialPoly(2), MultivariatePoly(2, 2)):
            z = rng.uniform(0.0, 2.0, (4, 30, 2))
            X = basis.expand(z[..., 0] if isinstance(basis, RadialPoly) else z)
            y = rng.normal(size=(4, 30))
            w = rng.uniform(0.1, 1.0, size=(4, 30))
            w[1, 20:] = 0.0
            X, y, w = (np.asarray(a, order=order) for a in (X, y, w))
            theta, flags = solve_wls(X, y, w)
            for b in range(4):
                tb, fb = solve_wls(X[b], y[b], w[b])
                assert theta[b].tobytes() == tb.tobytes()
                assert flags[b] == fb

    def test_ill_conditioned_small_radii(self):
        # powers up to r^4 of radii near 1e-3 destroy raw normal equations;
        # the standardized solve must still interpolate
        r = np.linspace(1e-3, 2e-3, 12)
        y = 0.4 + 3.0 * r**2
        theta, flag = solve_wls(RadialPoly(2, even=True).expand(r), y, np.ones(12))
        assert not flag
        assert_allclose(theta[0], 0.4, atol=1e-6)


class TestLogistic:
    def test_constant_mle(self):
        theta, converged, _ = fit_logistic(np.ones((3, 1)), [1.0, 0.0, 1.0], np.ones(3))
        assert converged
        assert_allclose(theta[0], np.log(2.0), atol=1e-6)

    def test_half_targets_give_null_model(self):
        feats = RadialPoly(2).expand(np.array([0.5, 1.0, 1.5, 2.0]))
        theta, _, _ = fit_logistic(feats, np.full(4, 0.5), np.ones(4))
        assert_allclose(theta, 0.0, atol=1e-9)

    def test_weighted_mle(self):
        theta, _, _ = fit_logistic(np.ones((2, 1)), [1.0, 0.0], [3.0, 1.0])
        assert_allclose(expit(theta[0]), 0.75, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            r = rng.uniform(0, 2, size=n)
            feats = RadialPoly(2).expand(r)
            y = rng.integers(0, 2, n).astype(float)
            w = rng.uniform(0.2, 2.0, size=n)
            theta, _, _ = fit_logistic(feats, y, w)
            pr = expit(feats @ theta)
            grad = feats.T @ (w * (y - pr))
            h = 1e-6
            for j in range(theta.shape[0]):
                e = np.zeros_like(theta)
                e[j] = h
                fd = (_loglik(feats, y, w, theta + e) - _loglik(feats, y, w, theta - e)) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-5

    def test_recovers_generating_theta_on_noiseless_logits(self):
        rng = np.random.default_rng(7)
        theta_star = np.array([0.3, -1.2, 0.8])
        r = rng.uniform(0, 2, size=200)
        feats = RadialPoly(2).expand(r)
        targets = expit(feats @ theta_star)
        with mock.patch.object(localfit, "RIDGE", 0.0):
            theta, converged, _ = fit_logistic(feats, targets, np.ones(200))
        assert converged
        assert_allclose(theta, theta_star, atol=1e-4)

    def test_saturated_fit_stays_finite(self):
        theta, _, _ = fit_logistic(np.ones((5, 1)), np.ones(5), np.ones(5))
        assert np.isfinite(theta).all()
        assert expit(theta[0]) > 0.99

    def test_separation_is_ridged(self):
        # perfectly separable in r: untamed coefficients would diverge
        r = np.array([0.1, 0.2, 0.3, 1.1, 1.2, 1.3])
        y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        theta, _, _ = fit_logistic(RadialPoly(1).expand(r), y, np.ones(6))
        assert np.isfinite(theta).all()
        assert np.linalg.norm(theta) < 1e4

    def test_fractional_targets_accepted(self):
        feats = RadialPoly(1).expand(np.array([1.0, 2.0, 3.0]))
        _, converged, _ = fit_logistic(feats, [0.4, 0.5, 0.6], np.ones(3))
        assert converged

    def test_batched_matches_looped(self):
        rng = np.random.default_rng(8)
        r = rng.uniform(0, 2, size=(5, 30))
        feats = RadialPoly(2).expand(r)
        y = rng.integers(0, 2, (5, 30)).astype(float)
        w = rng.uniform(0.2, 1.0, size=(5, 30))
        theta, conv, _ = fit_logistic(feats, y, w)
        for b in range(5):
            tb, cb, _ = fit_logistic(feats[b], y[b], w[b])
            assert_allclose(theta[b], tb, atol=1e-7)
            assert conv[b] == cb


def ulps(got, want):
    """|got - want| in units in the last place of the larger magnitude."""
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))


class TestSoftplusSigmoid:
    """The one-exp pointwise helper of the Newton loop against numpy's
    logaddexp and scipy's expit."""

    F = np.concatenate((
        np.linspace(-745.0, 745.0, 200_001),
        np.random.default_rng(0).uniform(-745.0, 745.0, 100_000),
        np.random.default_rng(1).normal(0.0, 8.0, 100_000),
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300],
    ))

    def test_softplus_within_two_ulps_of_logaddexp(self):
        softplus, _ = localfit._softplus_sigmoid(self.F)
        assert ulps(softplus, np.logaddexp(0.0, self.F)).max() <= 2

    def test_sigmoid_within_four_ulps_of_expit(self):
        _, sigmoid = localfit._softplus_sigmoid(self.F)
        want = expit(self.F)
        # Below f = -709.78 expit's own exp(-f) overflows and it returns 0;
        # there the sigmoid keeps the subnormal e^f, checked below.
        normal = want >= np.finfo(np.float64).tiny
        assert ulps(sigmoid, want)[normal].max() <= 4
        far = self.F < -40.0
        assert np.array_equal(sigmoid[far], np.exp(self.F[far]))

    def test_limits_are_exact_without_warnings(self):
        big = np.finfo(np.float64).max
        f = np.array([-big, -1e308, -1e3, -746.0, 746.0, 1e3, 1e308, big])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            softplus, sigmoid = localfit._softplus_sigmoid(f)
        assert np.array_equal(sigmoid, [0, 0, 0, 0, 1, 1, 1, 1])
        assert np.array_equal(softplus, np.maximum(f, 0.0))
        assert localfit._softplus_sigmoid(np.zeros(1))[1][0] == 0.5


class TestSigmoid:
    """The program's one sigmoid, which reads out every logistic intercept."""

    F = TestSoftplusSigmoid.F

    def test_is_the_newton_loops_sigmoid_bitwise(self):
        # So TestSoftplusSigmoid's bounds against expit hold for it too.
        assert np.array_equal(localfit.sigmoid(self.F), localfit._softplus_sigmoid(self.F)[1])
        assert np.array_equal(localfit.sigmoid(np.array([0.0, -0.0])), [0.5, 0.5])

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-745.0, 745.0) | st.floats(-1e-15, 1e-15))
    def test_classes_at_one_half_agree_with_expit(self, f):
        # For -4e-16 < f < 0 both are within 4 ulps of 1/2 but round to
        # different sides: expit's 1 + e^-f rounds to 2 up to f = -3.3e-16,
        # giving exactly 1/2, while e^f < 1 from f = -4.5e-17 on, so e / (1 + e)
        # is below 1/2.
        got, want = localfit.sigmoid(np.array([f])), expit(np.array([f]))
        if -4e-16 < f < 0:
            assert ulps(got, want).max() <= 4
        else:
            assert (got >= 0.5) == (want >= 0.5)

    def test_no_warning_at_the_ends(self):
        f = np.array([-1e308, -709.8, 709.8, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = localfit.sigmoid(f)
        assert np.array_equal(got, [0.0, np.exp(-709.8), 1.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_newton_starts_from_evaluate_at_zero_bitwise(self, B, n, p, seed):
        # _newton reads its first objective and probabilities off in closed
        # form instead of evaluating f = 0; they must be _evaluate's bits.
        rng = np.random.default_rng(seed)
        y = rng.choice([0.0, 1.0, rng.uniform()], size=(B, n))
        w = rng.exponential(size=(B, n)) * (rng.uniform(size=(B, n)) < 0.8)
        theta, pen = np.zeros((B, p)), rng.uniform(size=(B, p))
        for ridge in (RIDGE, SEPARATION_RIDGE):
            got = localfit._evaluate_at_zero(y, w, theta, ridge, pen)
            want = localfit._evaluate(np.zeros_like(y), y, w, theta, ridge, pen)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def einsum_penalized_loglik(X, y, w, theta, ridge, pen):
    """Reference objective: contracts X with theta once per call."""
    f = np.einsum("bnp,bp->bn", X, theta)
    ll = (w * (y * f - np.logaddexp(0.0, f))).sum(axis=-1)
    return ll - 0.5 * ridge * ((theta**2) * pen).sum(axis=-1)


def einsum_newton(X, y, w, ridge, pen, max_iter, tol):
    """Reference: the damped Newton loop with every contraction an einsum
    over the whole batch and the line search rescoring X[pending]."""
    B, n, p = X.shape
    theta = np.zeros((B, p))
    converged = np.zeros(B, dtype=bool)
    iterations = np.full(B, max_iter, dtype=np.int64)
    active = np.ones(B, dtype=bool)
    obj = einsum_penalized_loglik(X, y, w, theta, ridge, pen)

    for it in range(1, max_iter + 1):
        f = np.einsum("bnp,bp->bn", X, theta)
        pr = expit(f)
        grad = np.einsum("bnp,bn->bp", X, w * (y - pr)) - ridge * theta * pen
        gmax = np.abs(grad).max(axis=-1)

        finite = np.isfinite(gmax)
        done = active & finite & (gmax < tol)
        converged |= done
        iterations[done] = it - 1
        broken = active & ~finite
        iterations[broken] = it - 1
        active &= ~(done | broken)
        if not active.any():
            break

        curv = w * pr * (1.0 - pr)
        H = np.einsum("bnp,bn,bnq->bpq", X, curv, X)
        H += ridge * pen[:, :, None] * np.eye(p)
        diag_scale = np.einsum("bpp->b", H) / p
        H += (1e-12 * np.maximum(diag_scale, 1.0) + 1e-300)[:, None, None] * np.eye(p)
        try:
            step = np.linalg.solve(H, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.einsum("bpq,bq->bp", np.linalg.pinv(H), grad)

        pending = active.copy()
        alpha = 1.0
        for _ in range(localfit._MAX_HALVINGS + 1):
            if not pending.any():
                break
            cand = theta[pending] + alpha * step[pending]
            cand_obj = einsum_penalized_loglik(X[pending], y[pending], w[pending], cand, ridge, pen[pending])
            accept = cand_obj > obj[pending] - 1e-12 * (1.0 + np.abs(obj[pending]))
            accept &= np.isfinite(cand_obj)
            if accept.any():
                rows = np.flatnonzero(pending)[accept]
                theta[rows] = cand[accept]
                obj[rows] = cand_obj[accept]
                keep_pending = pending.copy()
                keep_pending[rows] = False
                pending = keep_pending
            alpha *= 0.5
        stalled = pending
        iterations[stalled] = it
        active &= ~stalled

    return theta, converged, iterations


def fit_both(features, targets, weights):
    """fit_logistic through the solver and through the einsum reference,
    each with the number of Newton runs it made (2 after a separation refit)."""
    out = []
    for newton in (localfit._newton, lambda design, *args: einsum_newton(design.X, *args)):
        with mock.patch.object(localfit, "_newton", side_effect=newton) as spy:
            out.append((fit_logistic(features, targets, weights), spy.call_count))
    return out


@st.composite
def logistic_problems(draw):
    """Radial or multivariate batches with zero-weight padding rows and
    binary, fractional, separated or all-equal (saturated) targets, in C
    or Fortran memory order."""
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        basis = RadialPoly(draw(st.integers(0, 3)))
        z = rng.uniform(0.0, draw(st.sampled_from([1e-3, 1.0, 50.0])), batch + (30,))
        features = basis.expand(z)
    else:
        basis = MultivariatePoly(draw(st.integers(0, 2)), draw(st.integers(1, 3)))
        points = rng.normal(size=batch + (30, basis.dim))
        z = points[..., 0]
        features = basis.expand(points)
    # Every problem keeps at least as many weighted rows as coefficients,
    # as the estimators' degree reduction guarantees.
    n = draw(st.integers(basis.output_dim, 30))
    active = n - draw(st.integers(0, n - basis.output_dim))
    features, z = features[..., :n, :], z[..., :n]
    weights = rng.uniform(0.1, 2.0, batch + (n,))
    weights[..., active:] = 0.0
    kind = draw(st.sampled_from(["binary", "fractional", "separated", "saturated"]))
    if kind == "binary":
        targets = rng.integers(0, 2, batch + (n,)).astype(float)
    elif kind == "fractional":
        targets = rng.uniform(0.0, 1.0, batch + (n,))
    elif kind == "separated":
        targets = (z < np.median(z[..., :active], axis=-1, keepdims=True)).astype(float)
    else:
        targets = np.full(batch + (n,), float(rng.integers(0, 2)))
    if draw(st.booleans()):
        # Callers hand in sliced and fancy-indexed arrays too.
        features, targets, weights = map(np.asfortranarray, (features, targets, weights))
    return features, targets, weights


class TestNewtonMatchesEinsumReference:
    @settings(max_examples=200, deadline=None)
    @given(logistic_problems())
    def test_fit_logistic_matches_reference(self, problem):
        features, _, weights = problem
        (got, runs), (want, want_runs) = fit_both(*problem)
        assert runs == want_runs
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        f_got = np.einsum("...np,...p->...n", features, got[0])
        f_want = np.einsum("...np,...p->...n", features, want[0])
        rows = weights > 0
        assert np.all(np.abs(expit(f_got) - expit(f_want))[rows] <= 1e-10)
        # Once a weighted row has |x.theta| > 30, its likelihood term is flat
        # to 1e-13 and only the 1e-8 ridge pins theta along that direction,
        # so theta moves with the order of the sums (by up to ~6e-9 of its
        # largest coefficient); there the probabilities above are compared.
        unsaturated = np.where(rows, np.abs(f_want), 0.0).max(axis=-1) <= 30
        floor = 1e-12 * np.abs(want[0]).max(axis=-1, keepdims=True)
        close = np.abs(got[0] - want[0]) <= 1e-10 * np.abs(want[0]) + floor
        assert np.all(close[unsaturated])

    @settings(max_examples=100, deadline=None)
    @given(logistic_problems())
    def test_batch_rows_match_single_problem_fits_bitwise(self, problem):
        features, targets, weights = problem
        theta, converged, iterations = fit_logistic(features, targets, weights)
        for idx in np.ndindex(targets.shape[:-1]):
            t1, c1, i1 = fit_logistic(features[idx], targets[idx], weights[idx])
            assert theta[idx].tobytes() == t1.tobytes()
            assert converged[idx] == c1 and iterations[idx] == i1

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_large_saturated_and_separated_windows(self, degree):
        # At n = 2e4 a saturated fit's likelihood is a sum of 2e4 terms of
        # size |f|, so an objective that rounds to that scale would accept
        # or reject line-search steps the reference does not.
        rng = np.random.default_rng(degree)
        r = rng.uniform(0.0, 1.0, (4, 20_000))
        y = np.stack([np.ones(r.shape[1]), np.zeros(r.shape[1]),
                      r[2] < np.median(r[2]), r[3] < 0.3]).astype(float)
        for w in (np.ones_like(r), 1.0 / np.maximum(r, 1e-3)):
            (got, runs), (want, want_runs) = fit_both(RadialPoly(degree).expand(r), y, w)
            assert runs == want_runs
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])

    def test_separated_batch_takes_the_refit(self):
        # Row 0 is separated by a gap of 2e-3 at r = 0.5, so its
        # coefficients pass SEPARATION_NORM at the default ridge; row 1 is not
        # separated and is fitted once.
        r = np.array([[0.1, 0.2, 0.499, 0.501, 0.8, 0.9], [0.5, 0.1, 0.9, 0.3, 0.7, 1.1]])
        y = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
        features = RadialPoly(1).expand(r)
        (got, runs), (want, want_runs) = fit_both(features, y, np.ones_like(r))
        assert runs == want_runs == 2
        assert np.linalg.norm(got[0][0]) < SEPARATION_NORM
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        assert_allclose(got[0], want[0], rtol=1e-10)


def frozen_newton(design, y, w, ridge, pen, max_iter, tol, events):
    """The damped Newton loop as it stood before its bookkeeping was
    trimmed, kept to pin ``localfit._newton`` bit for bit. It adds to the
    set ``events`` each of "broken", "compacted", "partial" (a line-search
    pass that accepts some problems only) and "stalled" that a call meets."""
    B, n = y.shape
    p = pen.shape[-1]
    theta_out = np.zeros((B, p))
    converged = np.zeros(B, dtype=bool)
    iterations = np.full(B, max_iter, dtype=np.int64)
    rows = np.arange(B)
    theta = np.zeros((B, p))
    active = np.ones(B, dtype=bool)
    f = np.zeros((B, n))
    obj, pr = localfit._evaluate_at_zero(y, w, theta, ridge, pen)

    for it in range(1, max_iter + 1):
        resid = y - pr
        resid *= w
        grad = design.tdot(resid) - ridge * theta * pen
        gmax = np.abs(grad).max(axis=-1)

        finite = np.isfinite(gmax)
        done = active & finite & (gmax < tol)
        converged[rows[done]] = True
        iterations[rows[done]] = it - 1
        broken = active & ~finite
        iterations[rows[broken]] = it - 1
        if broken.any():
            events.add("broken")
        active &= ~(done | broken)
        if not active.any():
            break
        if 2 * np.count_nonzero(active) <= active.size:
            events.add("compacted")
            theta_out[rows[~active]] = theta[~active]
            keep = np.flatnonzero(active)
            rows, y, w, pen, theta, f, obj, pr, grad, active = (
                a[keep] for a in (rows, y, w, pen, theta, f, obj, pr, grad, active)
            )
            design = design.take(keep)

        curv = w * pr
        curv *= 1.0 - pr
        H = design.gram(curv)
        H += ridge * pen[:, :, None] * np.eye(p)
        diag_scale = np.einsum("bpp->b", H) / p
        H += (1e-12 * np.maximum(diag_scale, 1.0) + 1e-300)[:, None, None] * np.eye(p)
        try:
            step = np.linalg.solve(H, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = (np.linalg.pinv(H) @ grad[..., None])[..., 0]
        fstep = design.dot(step)

        pending = active.copy()
        alpha = 1.0
        for _ in range(localfit._MAX_HALVINGS + 1):
            if not pending.any():
                break
            whole = pending.all()
            sel = slice(None) if whole else pending
            cand = theta[sel] + alpha * step[sel]
            cand_f = f[sel] + alpha * fstep[sel]
            cand_obj, cand_pr = localfit._evaluate(cand_f, y[sel], w[sel], cand, ridge, pen[sel])
            accept = cand_obj > obj[sel] - 1e-12 * (1.0 + np.abs(obj[sel]))
            accept &= np.isfinite(cand_obj)
            if whole and accept.all():
                theta, f, obj, pr = cand, cand_f, cand_obj, cand_pr
                pending[:] = False
                break
            if accept.any():
                if not accept.all():
                    events.add("partial")
                moved = np.flatnonzero(pending)[accept]
                theta[moved] = cand[accept]
                f[moved] = cand_f[accept]
                obj[moved] = cand_obj[accept]
                pr[moved] = cand_pr[accept]
                pending[moved] = False
            alpha *= 0.5
        if pending.any():
            events.add("stalled")
        iterations[rows[pending]] = it
        active &= ~pending

    theta_out[rows] = theta
    return theta_out, converged, iterations


def newton_batch(seed: int, radial: bool):
    """A function that builds one flattened batch for ``_newton`` afresh,
    ``(design, y, w, ridge, pen, max_iter, tol)``: a radial or dense design
    with zero-weight padding, rows of binary, fractional, separated and
    all-equal targets, rows whose targets hold a NaN (their gradient is not
    finite), and rows whose design is scaled by 1e200 (their Hessian
    overflows, so every step is rejected and the row stalls)."""
    rng = np.random.default_rng(seed)
    B, n = int(rng.integers(1, 9)), int(rng.integers(10, 41))
    if radial:
        basis = [RadialPoly(1), RadialPoly(2), RadialPoly(3),
                 RadialPoly(1, even=True), RadialPoly(2, even=True)][rng.integers(5)]
        z = rng.uniform(0.0, rng.choice([1e-3, 1.0, 50.0]), (B, n)) + rng.choice([0.0, 1e4])
        features = RadialFeatures(z, basis)
    else:
        basis = MultivariatePoly(int(rng.integers(0, 3)), int(rng.integers(1, 4)))
        points = rng.normal(size=(B, n, basis.dim))
        z, features = points[..., 0], basis.expand(points)
    p = basis.output_dim
    w = rng.uniform(0.1, 2.0, (B, n))
    w[:, n - int(rng.integers(0, n - p + 1)):] = 0.0
    kinds = rng.integers(0, 6, B)
    y = np.where((kinds == 0)[:, None], rng.integers(0, 2, (B, n)), rng.uniform(size=(B, n)))
    y[kinds == 2] = (z < np.median(z, axis=-1, keepdims=True))[kinds == 2]
    y[kinds == 3] = float(rng.integers(0, 2))
    y[kinds == 4, 0] = np.nan
    ridge = [RIDGE, SEPARATION_RIDGE][rng.integers(2)]
    max_iter = [3, localfit.MAX_ITER][rng.integers(2)]

    def build():
        design, scaling = localfit._design(features, w)
        blown = design.M if radial else design.X
        blown[kinds == 5] *= 1e200
        pen = (1.0 / scaling[0] ** 2).reshape(-1, p)
        pen[:, 0] = 0.0
        return design, y.copy(), w.copy(), ridge, pen, max_iter, localfit.TOL

    return build


class TestNewtonMatchesFrozenLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_theta_and_flags_bitwise(self, seed, radial):
        build = newton_batch(seed, radial)
        with np.errstate(all="ignore"):
            got = localfit._newton(*build())
            want = frozen_newton(*build(), set())
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("radial", [False, True])
    def test_batches_reach_every_path(self, radial):
        events = set()
        with np.errstate(all="ignore"):
            for seed in range(40):
                frozen_newton(*newton_batch(seed, radial)(), events)
        assert events == {"broken", "compacted", "partial", "stalled"}


def fit_recording_refit(features, targets, weights):
    """fit_logistic, and the targets of the problems it refit with
    SEPARATION_RIDGE (None when it made no refit)."""
    with mock.patch.object(localfit, "_newton", side_effect=localfit._newton) as spy:
        out = fit_logistic(features, targets, weights)
    return out, (spy.call_args_list[1].args[1] if spy.call_count == 2 else None)


def flat_batch(features, *arrays):
    """A problem batch as the solver bodies take it: C-contiguous (B, n, p)
    features, or ``RadialFeatures`` over (B, n) radii, and each of ``arrays``
    as C-contiguous (B, n)."""
    n = np.shape(features)[-2]
    if isinstance(features, RadialFeatures):
        features = RadialFeatures(features.radii.reshape(-1, n), features.basis)
    else:
        features = np.ascontiguousarray(features, dtype=np.float64).reshape(-1, n, np.shape(features)[-1])
    return (features, *(np.ascontiguousarray(a, dtype=np.float64).reshape(-1, n) for a in arrays))


def dense_sensitivity(features, weights):
    """Per problem, how far rounding can move the dense path's fit: the
    condition number of its weighted standardized design, times how much
    larger each raw column is than its spread (rounding a column of radii
    near 1e4 costs 1e4 times more after standardization than near 0)."""
    Xs, scale = localfit._standardize(features, weights)[:2]
    kappa = np.linalg.cond(np.sqrt(weights)[..., None] * Xs)
    col_max = np.abs(np.where(weights[..., None] > 0, features, 0.0)).max(axis=-2)
    return kappa * (col_max / scale).max(axis=-1)


@st.composite
def radial_problems(draw):
    """Radial bases over radii near 0 at three scales or offset far from 0,
    with zero-weight padding rows and binary, fractional, separated or
    all-equal targets, in C or Fortran memory order."""
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        basis = RadialPoly(draw(st.integers(0, 3)))
    else:
        basis = RadialPoly(draw(st.integers(1, 2)), even=True)
    offset, width = draw(st.sampled_from([(0.0, 1e-6), (0.0, 2.0), (0.0, 1e6), (10.0, 0.01), (1e4, 1.0)]))
    n = draw(st.integers(basis.output_dim, 30))
    radii = offset + rng.uniform(0.0, width, batch + (n,))
    active = n - draw(st.integers(0, n - basis.output_dim))
    weights = rng.uniform(0.1, 2.0, batch + (n,))
    weights[..., active:] = 0.0
    kind = draw(st.sampled_from(["binary", "fractional", "separated", "saturated"]))
    if kind == "binary":
        targets = rng.integers(0, 2, batch + (n,)).astype(float)
    elif kind == "fractional":
        targets = rng.uniform(0.0, 1.0, batch + (n,))
    elif kind == "separated":
        targets = (radii < np.median(radii[..., :active], axis=-1, keepdims=True)).astype(float)
    else:
        targets = np.full(batch + (n,), float(rng.integers(0, 2)))
    if draw(st.booleans()):
        radii, targets, weights = map(np.asfortranarray, (radii, targets, weights))
    return radii, basis, targets, weights


class TestRadialDesign:
    @settings(max_examples=300, deadline=None)
    @given(radial_problems())
    def test_fit_logistic_matches_dense_path(self, problem):
        radii, basis, targets, weights = problem
        features = basis.expand(radii)
        (got, got_refit), (want, want_refit) = (
            fit_recording_refit(f, targets, weights)
            for f in (RadialFeatures(radii, basis), features)
        )
        # The two paths round differently, so they agree only as far as the
        # problem lets rounding move its fit. Where that is far (cubic and
        # quartic columns of radii 1e4 + U(0, 1); there both paths stop about
        # 1e-7 in probability from a 60-digit solution), a stall or a refit
        # can differ as well, so flags are compared only on problems posed
        # well enough.
        sensitivity = dense_sensitivity(features, weights)
        tol = (1e-10 + 1e-12 * sensitivity)[..., None]
        well_posed = sensitivity <= 1e6
        assert np.array_equal(got[1][well_posed], want[1][well_posed])
        assert np.array_equal(got[2][well_posed], want[2][well_posed])
        if np.all(well_posed):
            assert (got_refit is None) == (want_refit is None)
            if got_refit is not None:
                assert np.array_equal(got_refit, want_refit)
        f_got = np.einsum("...np,...p->...n", features, got[0])
        f_want = np.einsum("...np,...p->...n", features, want[0])
        rows = weights > 0
        assert np.all((np.abs(expit(f_got) - expit(f_want)) <= tol)[rows])
        # Theta is compared only for converged fits with |x.theta| <= 10 on
        # every weighted row. Elsewhere the likelihood is flat to rounding
        # along some direction (an intercept that drives all-equal targets
        # toward 0 or 1 stops where the gradient falls below tol), and theta
        # moves along it as rounding differs.
        unsaturated = np.where(rows, np.abs(f_want), 0.0).max(axis=-1) <= 10
        floor = 1e-12 * np.abs(want[0]).max(axis=-1, keepdims=True)
        close = np.abs(got[0] - want[0]) <= tol * np.abs(want[0]) + floor
        assert np.all(close[unsaturated & want[1] & well_posed])

    @settings(max_examples=100, deadline=None)
    @given(radial_problems())
    def test_batch_rows_match_single_problem_fits_bitwise(self, problem):
        radii, basis, targets, weights = problem
        theta, converged, iterations = fit_logistic(RadialFeatures(radii, basis), targets, weights)
        for idx in np.ndindex(targets.shape[:-1]):
            t1, c1, i1 = fit_logistic(RadialFeatures(radii[idx], basis), targets[idx], weights[idx])
            assert theta[idx].tobytes() == t1.tobytes()
            assert converged[idx] == c1 and iterations[idx] == i1

    @pytest.mark.parametrize("basis", [RadialPoly(2), RadialPoly(2, even=True)])
    def test_long_batch_rows_match_single_problems_bitwise(self, basis):
        # Past 8192 radii einsum splits a batch row's sum at its buffer
        # size, and a lone problem's not; the radius moments must not.
        rng = np.random.default_rng(11)
        radii = np.sort(rng.uniform(0.0, 2.0, (3, 12_345)), axis=-1)
        targets = (rng.uniform(size=radii.shape) < 0.5).astype(float)
        weights = rng.uniform(0.0, 1.0, radii.shape)
        features = RadialFeatures(radii, basis)
        for solve in (solve_wls, fit_logistic):
            batch = solve(features, targets, weights)
            for b in range(3):
                single = solve(RadialFeatures(radii[b], basis), targets[b], weights[b])
                assert all(a[b].tobytes() == s.tobytes() for a, s in zip(batch, single))

    @pytest.mark.parametrize("basis", [RadialPoly(0), RadialPoly(3), RadialPoly(2, even=True)])
    def test_features_read_as_the_expanded_array(self, basis):
        radii = np.random.default_rng(7).uniform(0.0, 2.0, (4, 9))
        features = RadialFeatures(radii, basis)
        expanded = basis.expand(radii)
        assert np.shape(features) == expanded.shape and np.shape(features)[-2] == 9
        assert np.asarray(features).tobytes() == expanded.tobytes()
        y, w = radii[..., ::-1].copy(), np.ones_like(radii)
        assert_wls_matches_dense(features, y, w)

    def test_offset_radii_converge_with_centered_powers(self):
        # Radii 1e3 + U(0, 0.01): without centering, the power sums cancel
        # catastrophically in M^T K M; about a quarter of these fits then stop
        # unconverged, and probabilities move by about 1e-7.
        rng = np.random.default_rng(11)
        radii = 1e3 + rng.uniform(0.0, 0.01, (50, 40))
        targets = (rng.uniform(size=radii.shape) < expit(200.0 * (radii - 1e3 - 0.005))).astype(float)
        weights = np.ones_like(radii)
        got = fit_logistic(RadialFeatures(radii, RadialPoly(2)), targets, weights)
        want = fit_logistic(RadialPoly(2).expand(radii), targets, weights)
        assert got[1].all() and np.array_equal(got[2], want[2])
        features = RadialPoly(2).expand(radii)
        p_got = expit(np.einsum("...np,...p->...n", features, got[0]))
        p_want = expit(np.einsum("...np,...p->...n", features, want[0]))
        assert np.abs(p_got - p_want).max() <= 1e-8


def assert_wls_matches_dense(features, targets, weights):
    """solve_wls of ``RadialFeatures`` against its solve of the expanded
    array, as far as rounding can move each problem's fit
    (``dense_sensitivity``): the fitted values on the weighted rows
    everywhere, and the coefficients and the rank flag wherever the problem
    is posed well enough."""
    expanded = features.basis.expand(features.radii)
    theta, flag = solve_wls(features, targets, weights)
    want, want_flag = solve_wls(expanded, targets, weights)
    sensitivity = dense_sensitivity(expanded, weights)
    tol = 1e-10 + 1e-12 * sensitivity
    well_posed = sensitivity <= 1e6
    assert np.array_equal(flag[well_posed], want_flag[well_posed])
    y_scale = np.maximum(np.abs(targets).max(axis=-1), 1.0)
    f_gap = np.abs(np.einsum("...np,...p->...n", expanded, theta - want))
    assert np.all((f_gap <= (tol * y_scale)[..., None])[weights > 0])
    # Coefficients in the units of their columns: a column of radii near
    # 1e-6 squared pins its coefficient only to about eps / 1e-12.
    col_max = np.abs(np.where(weights[..., None] > 0, expanded, 0.0)).max(axis=-2)
    gap = (np.abs(theta - want) * col_max)[well_posed]
    size = (np.abs(want) * col_max)[well_posed].max(axis=-1, keepdims=True)
    assert np.all(gap <= tol[well_posed][..., None] * size)


@st.composite
def wls_problems(draw):
    """Radial least-squares batches over radii near 0 or offset up to 1e4,
    with zero-weight padding rows, some problems with fewer distinct radii
    than columns, in C or Fortran memory order."""
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        basis = RadialPoly(draw(st.integers(0, 3)))
    else:
        basis = RadialPoly(draw(st.integers(1, 2)), even=True)
    offset, width = draw(st.sampled_from([(0.0, 1e-6), (0.0, 2.0), (0.0, 1e6), (1.0, 1.0), (1e2, 1.0), (1e4, 1.0)]))
    n = draw(st.integers(1, 30))
    radii = offset + rng.uniform(0.0, width, batch + (n,))
    if draw(st.booleans()):
        # Some problems draw their radii from fewer levels than the basis
        # has columns, so their dense design is rank deficient.
        levels = offset + rng.uniform(0.0, width, draw(st.integers(1, basis.output_dim)))
        few = rng.uniform(size=batch) < 0.5
        radii = np.where(few[..., None], rng.choice(levels, batch + (n,)), radii)
    active = draw(st.integers(1, n))
    weights = rng.uniform(0.1, 2.0, batch + (n,))
    weights[..., active:] = 0.0
    if draw(st.booleans()):
        targets = rng.integers(0, 2, batch + (n,)).astype(float)
    else:
        targets = rng.normal(size=batch + (n,))
    if draw(st.booleans()):
        radii, targets, weights = map(np.asfortranarray, (radii, targets, weights))
    return RadialFeatures(radii, basis), targets, weights


class TestRadialWls:
    @settings(max_examples=300, deadline=None)
    @given(wls_problems())
    def test_solve_matches_dense_route(self, problem):
        assert_wls_matches_dense(*problem)

    @settings(max_examples=300, deadline=None)
    @given(wls_problems())
    def test_column_scaling_matches_dense_moments(self, problem):
        # The scaling read from power sums against _standardize's moments
        # of the expanded array. The dense moments lose about eps times how
        # much larger a column is than its spread.
        features, weights = flat_batch(problem[0], problem[2])
        expanded = features.basis.expand(features.radii)
        got = localfit._radial_design(features, weights)[1]
        want = localfit._standardize(np.ascontiguousarray(expanded), weights)[1:]
        assert np.array_equal(got[2], want[2])
        assert_allclose(got[3], want[3], rtol=1e-13)
        scale, want_scale = got[0], want[0]
        col_max = np.abs(np.where(weights[..., None] > 0, expanded, 0.0)).max(axis=-2)
        tol = 1e-10 + 1e-12 * col_max / want_scale
        assert np.all(np.abs(scale - want_scale) <= tol * want_scale)
        assert np.all(np.abs(got[1] - want[1]) <= tol * np.maximum(col_max, 1e-300))

    @settings(max_examples=100, deadline=None)
    @given(wls_problems())
    def test_batch_rows_match_single_problem_solves_bitwise(self, problem):
        features, targets, weights = problem
        theta, flag = solve_wls(features, targets, weights)
        for idx in np.ndindex(targets.shape[:-1]):
            t1, f1 = solve_wls(RadialFeatures(features.radii[idx], features.basis), targets[idx], weights[idx])
            assert theta[idx].tobytes() == t1.tobytes()
            assert flag[idx] == f1

    def test_features_expand_only_for_the_dense_fallback(self):
        # Row 1 has two distinct radii, so the Gram matrix of its three
        # columns is singular; it alone goes to the SVD of the expanded array.
        rng = np.random.default_rng(8)
        radii = rng.uniform(0.0, 2.0, (3, 12))
        radii[1] = np.repeat([0.5, 1.5], 6)
        targets = rng.normal(size=(3, 12))
        weights = rng.uniform(0.1, 2.0, (3, 12))
        basis = RadialPoly(2)

        def solve(rows):
            """solve_wls of these rows, and the expanded arrays it solved by SVD."""
            features = RadialFeatures(radii[rows], basis)
            with mock.patch.object(RadialFeatures, "__array__", side_effect=AssertionError("expanded")):
                with mock.patch.object(localfit, "_svd_solve", side_effect=localfit._svd_solve) as spy:
                    out = solve_wls(features, targets[rows], weights[rows])
            return out, [c.args[0] for c in spy.call_args_list]

        _, dense = solve([0, 2])
        assert dense == []
        (theta, flag), dense = solve([0, 1, 2])
        assert len(dense) == 1 and dense[0].shape == (1, 12, 3)
        want, want_flag = solve_wls(basis.expand(radii[1]), targets[1], weights[1])
        assert theta[1].tobytes() == want.tobytes() and flag[1] == want_flag and flag[1]


def least_norm_reference(A, b, n):
    """The least-norm minimizer of |A theta - b| for each problem of a
    (B, k, p) batch by its SVD, singular values up to max(n, p) eps s_max
    taken as zero, and whether any were: how the dense design's problems
    were solved before the Gram route."""
    p = A.shape[-1]
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    cutoff = max(n, p) * np.finfo(np.float64).eps * s.max(axis=-1, keepdims=True)
    keep = s > cutoff
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    utb = np.einsum("...nk,...n->...k", U, b)
    return np.einsum("...kp,...k->...p", Vt, s_inv * utb), keep.sum(axis=-1) < p


def svd_design_reference(design, y, w):
    """The standardized coefficients of each problem of a flattened design by
    the SVD of its weighted standardized array (for the radial design, U M
    formed from the powers of u), and their rank flags."""
    X = design.X if isinstance(design, localfit._DenseDesign) else np.swapaxes(design.low, -1, -2) @ design.M
    sw = np.sqrt(w)
    return least_norm_reference(sw[..., None] * X, sw * y, y.shape[-1])


def expanded_svd_reference(X, y, w):
    """solve_wls of the dense (B, n, p) array ``X`` as it was before the
    Gram route: the SVD of the standardized, weighted array."""
    Xs, *scaling = localfit._standardize(X, w)
    sw = np.sqrt(w)
    theta_s, flag = least_norm_reference(sw[..., None] * Xs, sw * y, X.shape[-2])
    return localfit._destandardize(theta_s, *scaling), flag


@st.composite
def dense_wls_problems(draw):
    """Dense least-squares batches: the expanded arrays of ``wls_problems``,
    or ``MultivariatePoly`` designs over points of several scales, some
    problems drawing their points from fewer levels than the basis has
    columns, with zero-weight padding rows."""
    if draw(st.booleans()):
        features, targets, weights = draw(wls_problems())
        return features.basis.expand(features.radii), targets, weights
    batch = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = MultivariatePoly(draw(st.integers(0, 2)), draw(st.integers(1, 3)))
    center, width = draw(st.sampled_from([(0.0, 1e-3), (0.0, 1.0), (5.0, 1.0), (0.0, 1e3)]))
    n = draw(st.integers(1, 30))
    z = center + width * rng.uniform(-1.0, 1.0, batch + (n, basis.dim))
    if draw(st.booleans()):
        levels = center + width * rng.uniform(-1.0, 1.0, (draw(st.integers(1, basis.output_dim)), basis.dim))
        few = rng.uniform(size=batch) < 0.5
        z = np.where(few[..., None, None], levels[rng.integers(0, len(levels), batch + (n,))], z)
    weights = rng.uniform(0.1, 2.0, batch + (n,))
    weights[..., draw(st.integers(1, n)):] = 0.0
    return basis.expand(z), rng.normal(size=batch + (n,)), weights


def off_center_quadratics():
    """Quadratics in two variables over points near (5, 5): 7 of the 8
    problems have cond(G) under the limit, and the normal equations alone
    miss their SVD solve by up to 1.5e-12 of the coefficients' size."""
    rng = np.random.default_rng(0)
    z = 5.0 + rng.uniform(-1.0, 1.0, (8, 30, 2))
    return MultivariatePoly(2, 2).expand(z), rng.normal(size=(8, 30)), rng.uniform(0.1, 2.0, (8, 30))


def gram_route(features, targets, weights):
    """The flattened design of a problem batch, its targets and weights, and
    the Gram route's standardized coefficients and solved problems."""
    features, y, w = flat_batch(features, targets, weights)
    design, _ = localfit._design(features, w)
    return (design, y, w, *localfit._gram_solve(design, y, w))


class TestGramRoute:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(wls_problems(), dense_wls_problems()))
    @example(off_center_quadratics())
    def test_gram_route_matches_the_svd_solve(self, problem):
        # The normal equations alone lose up to about cond(G) eps = 2.2e-12
        # of the coefficients' size at cond(G) = 1e4; the refinement step
        # brings that down to the SVD's own error.
        design, y, w, theta_s, solved = gram_route(*problem)
        want, want_flag = svd_design_reference(design, y, w)
        gap = np.abs(theta_s - want).max(axis=-1)
        assert np.all(gap[solved] <= 1e-12 * (1.0 + np.abs(want).max(axis=-1)[solved]))
        assert not want_flag[solved].any()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(wls_problems(), dense_wls_problems()))
    def test_problems_past_the_limit_take_the_svd_of_the_expanded_array_bitwise(self, problem):
        features, targets, weights = problem
        design, y, w, theta_s, solved = gram_route(*problem)
        p = np.shape(features)[-1]
        theta, flag = solve_wls(features, targets, weights)
        theta, flag = theta.reshape(-1, p), flag.reshape(-1)
        assert not flag[solved].any()
        rest = ~solved
        X = np.ascontiguousarray(features, dtype=np.float64).reshape(-1, y.shape[-1], p)[rest]
        want, want_flag = expanded_svd_reference(X, y[rest], w[rest])
        assert theta[rest].tobytes() == want.tobytes()
        assert np.array_equal(flag[rest], want_flag)

    def test_rank_deficient_problems_past_the_limit(self):
        # Two of the three problems repeat two radii, so their Gram matrix
        # is singular and the SVD reports their rank.
        rng = np.random.default_rng(13)
        radii = rng.uniform(0.0, 1.0, (3, 10))
        radii[1:] = np.repeat([0.2, 0.7], 5)
        targets, weights = rng.normal(size=(3, 10)), rng.uniform(0.5, 1.5, (3, 10))
        expanded = RadialPoly(3).expand(radii)
        want, want_flag = expanded_svd_reference(expanded[1:], targets[1:], weights[1:])
        for features in (RadialFeatures(radii, RadialPoly(3)), expanded):
            theta, flag = solve_wls(features, targets, weights)
            assert np.array_equal(flag, [False, True, True]) and want_flag.all()
            assert theta[1:].tobytes() == want.tobytes()


@st.composite
def blocked_problems(draw):
    """Batches of 1 to 8 problems over a multivariate or a radial basis,
    whose fourth problem is separated by two points 2e-3 apart and whose sixth has
    collinear columns, when the batch has them: with blocks of 3 problems
    they take the separation refit and the SVD in a later block."""
    batch = draw(st.sampled_from([(1,), (2,), (3,), (4,), (7,), (2, 4)]))
    B = int(np.prod(batch))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 30))
    z = rng.uniform(0.0, 2.0, (B, n))
    if B > 3:
        z[3, :2] = 1.0 - 1e-3, 1.0 + 1e-3
    if draw(st.booleans()):
        basis = MultivariatePoly(draw(st.integers(1, 2)), 2)
        points = np.stack([z, rng.uniform(0.0, 2.0, (B, n))], axis=-1)
        if B > 3:
            points[3, 1, 1] = points[3, 0, 1]
        if B > 5:
            points[5, :, 1] = points[5, :, 0]
        features = basis.expand(points).reshape(batch + (n, basis.output_dim))
    else:
        basis = RadialPoly(draw(st.integers(1, 2)), even=draw(st.booleans()))
        if B > 5:
            z[5] = rng.choice(rng.uniform(0.0, 2.0, basis.output_dim - 1), n)
        features = RadialFeatures(z.reshape(batch + (n,)), basis)
    targets = rng.integers(0, 2, (B, n)).astype(float)
    if B > 3:
        targets[3] = z[3] < 1.0
    weights = rng.uniform(0.1, 2.0, (B, n))
    return features, targets.reshape(batch + (n,)), weights.reshape(batch + (n,))


def rows_of(features, idx):
    if isinstance(features, RadialFeatures):
        return RadialFeatures(features.radii[idx], features.basis)
    return features[idx]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBlocks:
    @settings(max_examples=80, deadline=None)
    @given(blocked_problems(), st.sampled_from([fit_logistic, solve_wls]))
    def test_blocks_match_one_call_and_single_problems_bitwise(self, problem, solve):
        features, targets, weights = problem
        batch_shape, n = targets.shape[:-1], targets.shape[-1]
        whole = solve(features, targets, weights)
        spies = [mock.patch.object(localfit, name, side_effect=getattr(localfit, name))
                 for name in ("_newton", "_svd_solve")]
        with mock.patch.object(localfit, "_BLOCK_POINTS", 3 * n), spies[0] as newton, spies[1] as svd:
            blocked = solve(features, targets, weights)
        B = int(np.prod(batch_shape))
        if solve is fit_logistic:
            assert newton.call_count >= -(-B // 3)
            if B > 3:
                assert SEPARATION_RIDGE in [c.args[3] for c in newton.call_args_list]
        elif B > 5:
            assert svd.call_count >= 1 and blocked[1].reshape(-1)[5]
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want) and same_bits(got, want)
        for idx in np.ndindex(batch_shape):
            single = solve(rows_of(features, idx), targets[idx], weights[idx])
            assert all(same_bits(got[idx], one) for got, one in zip(blocked, single))

    @pytest.mark.parametrize("solve", [fit_logistic, solve_wls])
    def test_peak_memory_is_bounded_by_the_block(self, solve):
        # At (2000, 500) the radial design's powers alone are 40 MB; blocks
        # of _BLOCK_POINTS points hold the working set to a few MB.
        rng = np.random.default_rng(3)
        radii = np.sort(rng.uniform(0.0, 2.0, (2000, 500)), axis=-1)
        targets = (rng.uniform(size=radii.shape) < 0.5).astype(float)
        weights = np.ones_like(radii)
        features = RadialFeatures(radii, RadialPoly(2))
        tracemalloc.start()
        try:
            solve(features, targets, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("solve", [fit_logistic, solve_wls])
    @pytest.mark.parametrize("radial", [False, True])
    def test_empty_batch_keeps_its_shape(self, solve, radial):
        for batch_shape, n in (((0,), 5), ((2, 0), 4)):
            radii = np.ones(batch_shape + (n,))
            features = (RadialFeatures(radii, RadialPoly(2)) if radial
                        else np.ones(batch_shape + (n, 3)))
            theta, *flags = solve(features, radii, radii)
            assert theta.shape == batch_shape + (3,)
            assert all(f.shape == batch_shape for f in flags)

    @pytest.mark.parametrize("solve", [fit_logistic, solve_wls])
    @pytest.mark.parametrize("radial", [False, True])
    def test_shapes_are_checked_at_the_entry_point(self, solve, radial):
        def features(shape):
            return RadialFeatures(np.ones(shape), RadialPoly(1)) if radial else np.ones(shape + (2,))

        rng = np.random.default_rng(4)
        y, w = rng.integers(0, 2, (2, 3, 6)).astype(float), rng.uniform(0.5, 1.5, (2, 3, 6))
        for bad in (y.reshape(3, 2, 6), y.reshape(6, 6), y[..., :5], y[0]):
            for args in ((bad, w), (y, bad)):
                with pytest.raises(DimensionMismatch, match=r"\(2, 3, 6\)") as err:
                    solve(features((2, 3, 6)), *args)
                assert isinstance(err.value, RadialError)
        with pytest.raises(DimensionMismatch, match=r"n >= 1"):
            solve(features((2, 0)), np.ones((2, 0)), np.ones((2, 0)))
        # Dense features with no point axis or no feature axis.
        for bad in (np.float64(2.0), np.ones(3)):
            with pytest.raises(DimensionMismatch, match=r"\(\.\.\., n, p\); got \((3,)?\)"):
                solve(bad, np.ones(3), np.ones(3))
        solve(features((2, 3, 6)), y, w)

    @pytest.mark.parametrize("body", ["_fit_logistic", "_solve_wls"])
    @pytest.mark.parametrize("radial", [False, True])
    def test_bodies_get_flat_c_contiguous_blocks(self, body, radial):
        rng = np.random.default_rng(6)
        n = 7
        radii = np.asfortranarray(rng.uniform(0.0, 2.0, (2, 3, n)))
        basis = RadialPoly(2)
        features = RadialFeatures(radii, basis) if radial else np.asfortranarray(basis.expand(radii))
        targets = np.asfortranarray(rng.integers(0, 2, (2, 3, n)).astype(float))
        weights = np.asfortranarray(rng.uniform(0.5, 1.5, (2, 3, n)))
        # RadialFeatures hold their radii in C order already.
        assert not any(a.flags.c_contiguous for a in (targets, weights) + (() if radial else (features,)))
        solve = fit_logistic if body == "_fit_logistic" else solve_wls
        with (mock.patch.object(localfit, "_BLOCK_POINTS", 4 * n),
              mock.patch.object(localfit, body, side_effect=getattr(localfit, body)) as spy):
            solve(features, targets, weights)
        assert [len(c.args[1]) for c in spy.call_args_list] == [4, 2]
        for X, y, w in (c.args for c in spy.call_args_list):
            X = X.radii if radial else X
            assert X.ndim == (2 if radial else 3) and X.flags.c_contiguous
            assert y.ndim == w.ndim == 2 and y.flags.c_contiguous and w.flags.c_contiguous


def test_feature_maps_reject_bad_params():
    with pytest.raises(ParameterError):
        RadialPoly(-1, even=True)
    with pytest.raises(ParameterError):
        MultivariatePoly(-1, 2)
