import math

import numpy as np
import pytest
from scipy.special import jnp_zeros, spherical_jn

from neumann_bounds.oracle import mesh_domain, neumann_mu2
from neumann_bounds.poincare import FORM_DEVIATION, CertTerm, PoincareBound, pi_p, pi_p_quadrature
from neumann_bounds.qc_transfer import (
    EigenBound,
    QCMapData,
    TransferError,
    ball_lower_bound,
    eigen_transfer,
    eigen_transfer_lipschitz,
    example_c,
    poincare_transfer,
    q_grid,
    q_pq_norm,
    whitney_qc_bound,
)

PI2 = math.pi**2


def base_bound(value, p, r=None):
    return PoincareBound(
        value=value, p=p, form=FORM_DEVIATION, r=r,
        terms=(CertTerm("base", "given", value**p),),
    )


def constant_map(op_norm, jac, n=2, volume=1.0, K=None, alpha=math.inf, lipschitz=True):
    """Constant derivative data: one quadrature sample weighted by the volume."""
    return QCMapData(
        n=n,
        K=K if K is not None else op_norm**n / jac,
        weights=[volume],
        dphi=[op_norm],
        jac=[jac],
        alpha=alpha,
        lipschitz=lipschitz,
    )


class TestMapData:
    def test_from_linear_diag(self):
        m = QCMapData.from_linear([[2.0, 0.0], [0.0, 1.0]], 1.0)
        assert m.K == pytest.approx(2.0, rel=1e-14)
        assert m.ess_sup_dphi() == pytest.approx(2.0, rel=1e-14)
        assert m.lipschitz

    def test_distortion_at_least_one(self):
        with pytest.raises(TransferError):
            constant_map(1.0, 1.0, K=0.5)

    def test_quasiconformality_enforced(self):
        with pytest.raises(TransferError):
            constant_map(2.0, 1.0, K=1.0)  # |D phi|^2 = 4 > K |J| = 1

    def test_distortion_slack_is_relative(self):
        # the rounding of K |J| grows with |A|^n; a relative slack accepts
        # every linear map at any scale and still refuses a real excess
        rng = np.random.default_rng(1)
        for _ in range(300):
            QCMapData.from_linear(rng.uniform(-1.0, 1.0, (2, 2)) * 10.0 ** rng.uniform(3, 8), 1.0)
        for scale in (1e-6, 1.0, 1e6):  # |D phi|^2 exceeds K |J| = 2 scale^2 by 1e-10 of it
            with pytest.raises(TransferError, match="violates"):
                constant_map(scale * math.sqrt(2.0 * (1.0 + 1e-10)), scale**2, K=2.0)

    def test_sampled_validation(self):
        with pytest.raises(TransferError):
            QCMapData(n=2, K=1.0, weights=[1.0], dphi=[1.0], jac=[-1.0])
        with pytest.raises(TransferError):
            QCMapData(n=2, K=1.0, weights=[1.0, 1.0], dphi=[1.0], jac=[1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weights_past_float_range_refused_when_built(self):
        # then no scaled sum of a transfer can overflow
        with pytest.raises(TransferError, match="quadrature weights must sum to a finite domain volume"):
            QCMapData(n=2, K=1.0, weights=[1e308, 1e308], dphi=[1.0, 1.0], jac=[1.0, 1.0])

    def test_infinite_derivative_sample_refused(self):
        # K = inf admits |D phi| = |J| = inf in the distortion check
        with pytest.raises(TransferError, match="nonnegative and finite"):
            QCMapData(n=2, K=math.inf, weights=[1.0], dphi=[math.inf], jac=[math.inf])

    def test_singular_linear_map_rejected(self):
        with pytest.raises(TransferError):
            QCMapData.from_linear([[1.0, 0.0], [0.0, 0.0]], 1.0)


class TestQpqNorm:
    def test_constant_derivative(self):
        m = constant_map(2.0, 2.0)  # n=2, |Dphi| = 2 on the unit square
        assert q_pq_norm(m, 3.0, 2.0) == pytest.approx(4.0 ** (1.0 / 6.0), rel=1e-14)

    def test_p_equals_n(self):
        m = constant_map(3.0, 4.5, volume=2.0)
        assert q_pq_norm(m, 2.0, 1.5) == pytest.approx(2.0 ** ((2 - 1.5) / 3.0), rel=1e-14)

    def test_identity_map(self):
        m = constant_map(1.0, 1.0, volume=0.7)
        p, q = 3.0, 2.0
        assert q_pq_norm(m, p, q) == pytest.approx(0.7 ** ((p - q) / (p * q)), rel=1e-14)

    def test_invalid_exponents(self):
        m = constant_map(1.0, 1.0)
        with pytest.raises(TransferError):
            q_pq_norm(m, 2.0, 2.0)
        with pytest.raises(TransferError):
            q_pq_norm(m, 2.0, 0.5)

    def test_closed_form_matches_quadrature_for_linear_map(self):
        mat = [[2.0, 0.3], [0.0, 1.0]]
        closed = QCMapData.from_linear(mat, 1.0)
        # quadrature samples of the constant field on a 50x50 midpoint grid
        cells = 50
        w = np.full(cells * cells, 1.0 / (cells * cells))
        sup = float(np.linalg.norm(np.asarray(mat), 2))
        jac = abs(np.linalg.det(np.asarray(mat)))
        sampled = QCMapData(
            n=2, K=closed.K,
            weights=w, dphi=np.full_like(w, sup), jac=np.full_like(w, jac),
            alpha=math.inf, lipschitz=True,
        )
        for p, q in [(3.0, 2.0), (4.0, 1.0), (2.5, 1.7)]:
            assert q_pq_norm(sampled, p, q) == pytest.approx(
                q_pq_norm(closed, p, q), rel=1e-10
            )

    def test_divergent_integral(self):
        # p < n makes the inner exponent negative, so a zero sample diverges
        m = QCMapData(n=3, K=1.0, weights=[0.5, 0.5], dphi=[0.0, 1.0], jac=[1.0, 1.0])
        with pytest.raises(TransferError, match="diverges"):
            q_pq_norm(m, 2.5, 2.4999999)

    def test_huge_samples_near_the_grid_top_match_the_sup_factor(self):
        # |D phi|^(inner) overflows unscaled; the scaled integral tends to the
        # supremum factor (ess sup |D phi|)^((p-n)/p) = 1e100 as q -> p
        m = QCMapData(n=2, K=1e300, weights=[1.0], dphi=[1e300], jac=[1e308])
        sup_factor = m.ess_sup_dphi() ** ((3.0 - m.n) / 3.0)
        assert q_pq_norm(m, 3.0, 2.9999999) == pytest.approx(sup_factor, rel=1e-12)


def closed_form_q_pq_norm(op_norm, domain_volume, n, p, q):
    """The closed-form branch q_pq_norm had for constant derivative data."""
    inner = (p - n) * q / (p - q)
    outer = (p - q) / (p * q)
    # evaluated in log space: the combined exponent inner * outer equals
    # (p - n)/p, so the value is benign even when q approaches p and the
    # inner exponent blows up
    log_integral = inner * math.log(op_norm) + math.log(domain_volume)
    return math.exp(outer * log_integral)


def closed_form_dphi_integral_norm(op_norm, domain_volume, alpha):
    """The closed-form branch dphi_integral_norm had for constant derivative data."""
    if math.isinf(alpha):
        return op_norm
    return op_norm * domain_volume ** (1.0 / alpha)


LINEAR_MAPS = {
    2: ([[2.0, 0.3], [0.0, 1.0]], [[0.7, -0.2], [0.4, 1.3]], [[1.0, 0.0], [0.0, 1.0]]),
    3: ([[1.5, 0.2, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 0.8]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
}


class TestLinearMapAsOneSample:
    """A linear map is one quadrature sample weighted by the domain volume."""

    @pytest.mark.parametrize("volume", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_matches_closed_form(self, p, n, volume):
        for matrix in LINEAR_MAPS[n]:
            m = QCMapData.from_linear(matrix, volume)
            op_norm = float(np.linalg.norm(np.asarray(matrix), 2))
            for q in q_grid(p):
                assert q_pq_norm(m, p, q) == pytest.approx(
                    closed_form_q_pq_norm(op_norm, volume, n, p, q), rel=1e-14
                )
            for alpha in (n + 0.5, 8.0, math.inf):
                assert m.dphi_integral_norm(alpha) == pytest.approx(
                    closed_form_dphi_integral_norm(op_norm, volume, alpha), rel=1e-14
                )

    def test_unit_volume_takes_the_first_grid_point(self):
        # every q gives the same factor L^((p-n)/p), so the minimum is the
        # first; the log-space closed form picked q = 2.80 here by rounding
        m = QCMapData.from_linear([[2.0, 0.0], [0.0, 1.0]], 1.0)
        base = base_bound(0.5, 3.0, r=6.0)
        assert poincare_transfer(m, base, 3.0).q_star == 1.0
        assert dict(eigen_transfer(m, base, 3.0).provenance[1].inputs)["q_star"] == 1.0

    def test_huge_sample_alpha_norm(self):
        # |D phi|^alpha overflows unscaled; one unit-weight sample is its own norm
        m = QCMapData(n=2, K=1e300, weights=[1.0], dphi=[1e200], jac=[1e300], alpha=8.0,
                      lipschitz=False)
        assert m.dphi_integral_norm(8.0) == pytest.approx(1e200, rel=1e-14)
        # and many samples, from 1e-150 to 1e150, against the log-space sum
        wide = sampled_map(WIDE_DPHI)
        reference = math.exp(log_space_integral(wide, 8.0) / 8.0)
        assert wide.dphi_integral_norm(8.0) == pytest.approx(reference, rel=1e-12)

    def test_distortion_beyond_float_range_refused(self):
        with pytest.raises(TransferError, match=r"linear map \[\[1e\+200"):
            QCMapData.from_linear([[1e200, 0.0], [0.0, 1e-200]], 1.0)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_matrix_named(self, entry):
        with pytest.raises(TransferError, match=r"linear map matrix \[\[.*finite entries"):
            QCMapData.from_linear([[entry, 0.0], [0.0, 1.0]], 1.0)

    @pytest.mark.parametrize("volume", [0.0, -1.0, math.nan])
    def test_nonpositive_volume_refused(self, volume):
        with pytest.raises(TransferError, match="domain volume"):
            QCMapData.from_linear([[1.0, 0.0], [0.0, 1.0]], volume)


def sampled_map(dphi, n=2):
    """Sampled map on a unit-volume domain with |J| = |D phi|^n, so K = 1."""
    dphi = np.asarray(dphi, dtype=float)
    w = np.full(len(dphi), 1.0 / len(dphi))
    return QCMapData(n=n, K=1.0, weights=w, dphi=dphi, jac=np.maximum(dphi, 1e-3) ** n)


# samples whose unscaled powers overflow at the grid top and at alpha = 8
WIDE_DPHI = np.geomspace(1e-150, 1e150, 1000)


def log_space_integral(m, a):
    """log of sum w |D phi|^a, summed in log space."""
    terms = np.log(m.weights) + a * np.log(m.dphi)
    top = terms.max()
    return top + math.log(np.exp(terms - top).sum())


def log_space_q_pq_norm(m, p, q):
    inner = (p - m.n) * q / (p - q)
    outer = (p - q) / (p * q)
    return math.exp(outer * log_space_integral(m, inner))


class TestSampledQpqNormAwayFromPEqualsN:
    """The sampled distortion integral stays finite as q approaches p != n."""

    @pytest.mark.parametrize("dphi", [np.linspace(1.0, 1.5, 1000), WIDE_DPHI],
                             ids=["narrow", "wide"])
    @pytest.mark.parametrize("p", [3.0, 1.5])
    def test_matches_log_space_up_to_the_grid_top(self, p, dphi):
        m = sampled_map(dphi)
        for q in q_grid(p):
            assert q_pq_norm(m, p, q) == pytest.approx(log_space_q_pq_norm(m, p, q), rel=1e-9)
        # the limit q -> p is the sup (p > n) or inf (p < n) distortion factor
        limit = (dphi.max() if p > 2.0 else dphi.min()) ** ((p - 2.0) / p)
        assert q_pq_norm(m, p, p - 1e-6) == pytest.approx(limit, rel=1e-5)

    @pytest.mark.parametrize("p", [3.0, 1.5])
    def test_eigen_transfer_completes(self, p):
        m = sampled_map(np.linspace(1.0, 1.5, 1000))
        out = eigen_transfer(m, base_bound(0.5, p, r=2.0 * p), p)
        assert math.isfinite(out.mu_lower) and out.mu_lower > 0.0

    def test_p_equals_n_unchanged(self):
        m = sampled_map(np.linspace(0.0, 1.5, 1000))
        for q in q_grid(2.0):
            outer = (2.0 - q) / (2.0 * q)
            assert q_pq_norm(m, 2.0, q) == float(m.weights.sum()) ** outer

    def test_zero_sample_with_negative_exponent_rejected(self):
        m = sampled_map(np.linspace(0.0, 1.5, 1000))
        with pytest.raises(TransferError, match="diverges"):
            q_pq_norm(m, 1.5, 1.2)
        assert math.isfinite(q_pq_norm(m, 3.0, 2.0))


def sup_derivative_power(m, p):
    """The factor Q_p^p L^n that the Lipschitz transfer records, with
    Q_p = (ess sup |D phi|)^((p - n)/p) the supremum distortion factor."""
    out = eigen_transfer_lipschitz(m, EigenBound(mu_lower=1.0, p=p), p)
    return next(f.value for f in out.provenance if f.rule == "sup-derivative-power")


class TestQpSupNorm:
    def test_values(self):
        m = constant_map(2.0, 2.67, n=3)
        assert m.ess_sup_dphi() ** ((4.0 - m.n) / 4.0) == pytest.approx(2.0 ** 0.25, rel=1e-14)
        assert sup_derivative_power(m, 4.0) == pytest.approx((2.0 ** 0.25) ** 4 * 2.0**3, rel=1e-14)
        assert sup_derivative_power(m, 3.0) == 2.0**3  # p = n: Q_p = 1

    def test_isometry(self):
        m = constant_map(1.0, 1.0)
        for p in (2.0, 3.0, 7.0):
            assert sup_derivative_power(m, p) == 1.0

    def test_non_lipschitz_rejected(self):
        m = constant_map(1.0, 1.0, lipschitz=False)
        with pytest.raises(TransferError):
            eigen_transfer_lipschitz(m, EigenBound(mu_lower=1.0, p=2.0), 2.0)


class TestPoincareTransfer:
    def test_alpha_infinity_takes_s_equal_r(self):
        m = constant_map(1.5, 1.5, K=1.5)
        base = base_bound(0.4, 2.0, r=4.0)
        result = poincare_transfer(m, base, 2.0)
        s = dict(result.chain[1].inputs)["s"]
        assert s == 4.0
        assert any("alpha = inf" in note for note in result.notes)

    def test_s_formula(self):
        m = QCMapData(n=2, K=1.0, weights=[1.0], dphi=[1.0], jac=[1.0],
                      alpha=4.0, lipschitz=False)
        base = base_bound(0.4, 2.0, r=4.0)
        result = poincare_transfer(m, base, 2.0)
        assert dict(result.chain[1].inputs)["s"] == pytest.approx(2.0, rel=1e-14)

    def test_identity_neutrality_unit_volume(self):
        m = constant_map(1.0, 1.0, volume=1.0)
        base = base_bound(0.37, 2.0, r=4.0)
        result = poincare_transfer(m, base, 2.0)
        assert result.bound == pytest.approx(0.37, rel=1e-12)

    def test_chain_product_equals_bound(self):
        m = QCMapData.from_linear([[2.0, 0.1], [0.0, 0.8]], 1.3)
        base = base_bound(0.5, 2.0, r=5.0)
        result = poincare_transfer(m, base, 2.0)
        product = math.prod(f.value for f in result.chain)
        assert result.bound == pytest.approx(product, rel=1e-12)
        assert 1.0 <= result.q_star < 2.0

    def test_alpha_too_small(self):
        field = {"weights": [1.0], "dphi": [1.0], "jac": [1.0]}
        m = QCMapData(n=2, K=1.0, **field,
                      alpha=2.0, lipschitz=False)
        with pytest.raises(TransferError, match="alpha too small"):
            poincare_transfer(m, base_bound(0.4, 2.0, r=4.0), 2.0)
        m = QCMapData(n=2, K=1.0, **field,
                      alpha=2.2, lipschitz=False)
        with pytest.raises(TransferError, match="alpha too small"):
            # s = (0.2/2.2) * 4 < 1
            poincare_transfer(m, base_bound(0.4, 2.0, r=4.0), 2.0)

    def test_requires_p_below_r(self):
        m = constant_map(1.0, 1.0)
        with pytest.raises(TransferError):
            poincare_transfer(m, base_bound(0.4, 2.0, r=2.0), 2.0)


class TestEigenTransfer:
    def test_identity_on_unit_square_below_fem(self):
        m = constant_map(1.0, 1.0, volume=1.0)
        base = base_bound(math.sqrt(2.0) / math.pi, 2.0, r=4.0)
        out = eigen_transfer(m, base, 2.0)
        fem = neumann_mu2(mesh_domain({"kind": "rectangle", "bounds": [0, 0, 1, 1]}, 0.05)).mu2
        assert out.mu_lower <= fem
        # identity with unit volume: the bound collapses to base^-p
        assert out.mu_lower == pytest.approx(base.value**-2.0, rel=1e-12)

    def test_distortion_linear_in_k(self):
        base = base_bound(0.5, 2.0, r=4.0)
        m1 = constant_map(1.2, 1.2**2, K=2.0)
        m2 = constant_map(1.2, 1.2**2, K=4.0)
        a = eigen_transfer(m1, base, 2.0)
        b = eigen_transfer(m2, base, 2.0)
        assert b.mu_lower == pytest.approx(a.mu_lower / 2.0, rel=1e-12)

    def test_min_over_grid_dominates_single_points(self):
        m = QCMapData.from_linear([[1.7, 0.2], [0.1, 0.9]], 1.0)
        base = base_bound(0.5, 2.0, r=4.0)
        p = 2.0
        out = eigen_transfer(m, base, p)
        alpha_req = 2 * 4.0 / (4.0 - p)
        norm = m.dphi_integral_norm(alpha_req) ** 2
        for q in q_grid(p):
            single = 1.0 / (m.K * q_pq_norm(m, p, q) ** p * norm * base.value**p)
            assert out.mu_lower >= single - 1e-15

    def test_exponent_and_integrability_guards(self):
        m = constant_map(1.0, 1.0)
        with pytest.raises(TransferError):
            eigen_transfer(m, base_bound(0.5, 2.0, r=2.0), 2.0)
        shallow = QCMapData(n=2, K=1.0, weights=[1.0], dphi=[1.0], jac=[1.0],
                            alpha=3.0, lipschitz=False)
        with pytest.raises(TransferError, match="integrability"):
            eigen_transfer(shallow, base_bound(0.5, 2.0, r=4.0), 2.0)


class TestEigenTransferLipschitz:
    def test_identity_map_preserves_bound(self):
        m = constant_map(1.0, 1.0)
        base = EigenBound(mu_lower=PI2, p=2.0)
        out = eigen_transfer_lipschitz(m, base, 2.0)
        assert out.mu_lower == pytest.approx(PI2, rel=1e-12)

    @pytest.mark.parametrize("a", [1.0, 2.0, 4.0])
    def test_diag_stretch_closed_form(self, a):
        m = QCMapData.from_linear([[a, 0.0], [0.0, 1.0]], 1.0)
        base = EigenBound(mu_lower=PI2, p=2.0)
        out = eigen_transfer_lipschitz(m, base, 2.0)
        assert out.mu_lower == pytest.approx(PI2 / a**3, rel=1e-12)
        assert out.mu_lower <= PI2 / a**2 + 1e-12  # true rectangle eigenvalue

    def test_diag_stretch_against_fem(self):
        a = 2.0
        m = QCMapData.from_linear([[a, 0.0], [0.0, 1.0]], 1.0)
        base = EigenBound(mu_lower=PI2, p=2.0)
        out = eigen_transfer_lipschitz(m, base, 2.0)
        fem = neumann_mu2(mesh_domain({"kind": "rectangle", "bounds": [0, 0, a, 1]}, 0.05)).mu2
        assert out.mu_lower <= fem

    def test_doubling_sup_derivative(self):
        base = EigenBound(mu_lower=1.0, p=3.0)
        m1 = constant_map(1.0, 0.5, K=2.0)
        m2 = constant_map(2.0, 4.0, K=2.0)
        a = eigen_transfer_lipschitz(m1, base, 3.0)
        b = eigen_transfer_lipschitz(m2, base, 3.0)
        assert b.mu_lower == pytest.approx(a.mu_lower / 2.0**3, rel=1e-12)

    def test_non_lipschitz_rejected(self):
        m = constant_map(1.0, 1.0, lipschitz=False)
        with pytest.raises(TransferError):
            eigen_transfer_lipschitz(m, EigenBound(mu_lower=1.0, p=2.0), 2.0)


class TestBallLowerBound:
    # the exact p = 2 eigenvalue of the unit ball is the squared first zero of
    # the radial mode's derivative: of J_1 in 2D, of the spherical j_1 in 3D
    def test_planar_bound_below_exact_value(self):
        out = ball_lower_bound(2, 2.0)
        assert out.mu_lower == pytest.approx((math.pi / 2.0) ** 2, rel=1e-14)
        assert out.mu_lower < jnp_zeros(1, 1)[0] ** 2

    def test_three_dimensional_bound_below_exact_value(self):
        out = ball_lower_bound(3, 2.0)
        from scipy.optimize import brentq

        zero = brentq(lambda t: spherical_jn(1, t, derivative=True), 1.0, 3.0)
        assert out.mu_lower == pytest.approx((math.pi / 2.0) ** 2, rel=1e-14)
        assert out.mu_lower < zero**2

    def test_every_dimension_takes_the_half_period_power(self):
        for p in (2.0, 3.0):
            bounds = [ball_lower_bound(n, p) for n in (2, 3, 5)]
            assert all(b == bounds[0] for b in bounds)
            assert [f.rule for f in bounds[0].provenance] == ["convex-half-period-power"]

    def test_p3_uses_half_period(self):
        out = ball_lower_bound(2, 3.0)
        assert out.mu_lower == pytest.approx((pi_p(3.0) / 2.0) ** 3, rel=1e-13)
        assert out.mu_lower == pytest.approx((pi_p_quadrature(3.0) / 2.0) ** 3, rel=1e-8)

    def test_p_below_two_rejected(self):
        with pytest.raises(TransferError):
            ball_lower_bound(2, 1.5)


class TestExampleC:
    def test_distortion_square_value(self):
        s6, s2 = math.sqrt(6.0), math.sqrt(2.0)
        direct = 2.0 * math.sqrt(4.0 + s6 + s2) / (4.0 - s6 - s2)
        out = example_c(1.0, 4.0, ball_lower_bound(3, 4.0))
        k_bound = next(f for f in out.provenance if f.rule == "star-distortion-bound")
        assert dict(k_bound.inputs)["K_squared"] == pytest.approx(direct, abs=1e-9)
        assert direct == pytest.approx(41.149, abs=1e-3)

    def test_delta_scaling(self):
        base = ball_lower_bound(3, 4.0)
        one = example_c(1.0, 4.0, base)
        two = example_c(2.0, 4.0, base)
        assert two.mu_lower == pytest.approx(one.mu_lower / 2.0**4, rel=1e-12)

    def test_matches_hand_composition(self):
        p = 4.0
        base = ball_lower_bound(3, p)
        out = example_c(1.0, p, base)
        s6, s2 = math.sqrt(6.0), math.sqrt(2.0)
        k_bound = math.sqrt(2.0 * math.sqrt(4.0 + s6 + s2) / (4.0 - s6 - s2))
        l_bound = 2.0 * (math.sqrt(4.0 + s6 - s2) + math.sqrt(4.0 - s6 + s2)) / (s6 - s2)
        assert out.mu_lower == pytest.approx(
            base.mu_lower / (k_bound * l_bound**p), rel=1e-12
        )

    def test_requires_p_above_three(self):
        with pytest.raises(TransferError):
            example_c(1.0, 3.0, ball_lower_bound(3, 4.0))


class TestWhitneyQcBound:
    def test_identity_map(self):
        chain_bound = base_bound(2.5, 2.0)
        m = constant_map(1.0, 1.0)
        out = whitney_qc_bound(chain_bound, m, 2.0)
        assert out.mu_lower == pytest.approx(2.5**-2.0, rel=1e-12)

    def test_monotone_decreasing_in_chain_bound(self):
        m = QCMapData.from_linear([[2.0, 0.0], [0.0, 1.0]], 1.5)
        small = whitney_qc_bound(base_bound(2.0, 2.0), m, 2.0)
        large = whitney_qc_bound(base_bound(4.0, 2.0), m, 2.0)
        assert large.mu_lower < small.mu_lower

    def test_stretched_union_against_fem(self):
        # pair bound for two overlapping unit squares, image under diag(2,1)
        from neumann_bounds.geometry import ConvexCell, cell_volume, intersection_volume
        from neumann_bounds.poincare import SpectralParams, convex_cell_constant, pair_constant

        q1 = ConvexCell([(0, 0), (1, 0), (1, 1), (0, 1)])
        q2 = ConvexCell([(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)])
        params = SpectralParams(p=2.0, n=2)
        b = convex_cell_constant(q1, params)
        chain_bound = pair_constant(cell_volume(q1), cell_volume(q2), intersection_volume(q1, q2), b, b,
                                    2.0)
        m = QCMapData.from_linear([[2.0, 0.0], [0.0, 1.0]], 1.5)
        out = whitney_qc_bound(chain_bound, m, 2.0)
        image = mesh_domain(
            {"kind": "rect_union", "rects": [[0, 0, 2, 1], [1, 0, 3, 1]]}, 0.08
        )
        assert out.mu_lower <= neumann_mu2(image).mu2

    def test_exponent_mismatch_rejected(self):
        with pytest.raises(TransferError):
            whitney_qc_bound(base_bound(2.0, 2.0), constant_map(1.0, 1.0), 3.0)
