"""Level-set masses and topology tests across all three model kinds.

The vacuum rows are closed forms: on {f = c} in the M = 1 exterior the
sphere sits at r = 2/(1 - c^2), H = 2c/r, kappa = 1/r^2, the Hawking mass is
exactly M and the Brown-York mass 2M/(1 + c).  The warped-chart rows were
computed independently at high precision and frozen.
"""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from staticstar.errors import BadParams, DomainError, NoLevelSet, NotARegularValue
from staticstar import catalog, conformal, quasilocal
from staticstar.geometry import (ConformalBatch, ConformalFlat, Piece, WarpedProduct, _g_hessian,
                                 conformal_curvature, conformal_hessian)
from staticstar.numerics import RadialFunction, sphere_rule
from staticstar.quasilocal import (
    SphereClass,
    hawking_inequality_slack,
    hawking_mass,
    level_set_data,
    mass_sweep,
    sphere_classification,
    topology_identity_residual,
    willmore_energy,
    write_sweep_csv,
)

from fd import fd_derivative


class TestFunctionals:
    def test_hawking_mass_units(self):
        # area of the unit sphere with vanishing Willmore energy: m = 1
        assert hawking_mass(16.0 * math.pi, 0.0) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            hawking_mass(0.0, 1.0)

    def test_willmore_flat_sphere(self):
        # H = 2 on the unit sphere in flat space: int H^2 dA = 16 pi
        w = willmore_energy(2.0, 1.0)
        assert w == pytest.approx(16.0 * math.pi, rel=1e-12)
        # one value per node of the rule, as the audit passes its traces
        nodes = sphere_rule(quasilocal.AUDIT_DEGREE)[0]
        assert willmore_energy(np.full(len(nodes), 2.0), 1.0) == w
        with pytest.raises(DomainError):
            willmore_energy(2.0, -1.0)

    def test_identity_and_slack_need_a_level(self):
        with pytest.raises(DomainError):
            topology_identity_residual(1.0, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            hawking_inequality_slack(1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            hawking_inequality_slack(1.0, 1.0, 1.0, 0.0, -1.0, 1.0)

    def test_classification_window(self):
        # vacuum data: window [0, 4 kappa / c]; h < 0 lies outside
        cls, (lo, hi) = sphere_classification(-0.375, 0.140625, 0.5, 0.0)
        assert cls is SphereClass.SPHERE_FORCED
        assert lo == pytest.approx(0.0) and hi == pytest.approx(1.125)
        cls, win = sphere_classification(0.5, 0.140625, 0.5, 0.0)
        assert cls is SphereClass.TORUS_WINDOW and win is not None
        # negative discriminant: no real thresholds
        cls, win = sphere_classification(0.5, 0.1, 1.0, -1.0)
        assert cls is SphereClass.INDETERMINATE and win is None
        with pytest.raises(DomainError):
            sphere_classification(0.5, 0.1, -1.0, 0.0)

    @pytest.mark.parametrize("c", [0.001, 0.003, 0.02])
    def test_classification_ignores_round_off_in_a_zero_discriminant(self, c):
        # schwarzschild_interior at f = 1/2: kappa^2 + c^2 rho_0 = 0 exactly,
        # and the computed value's sign followed the scan grid
        model = catalog.build("schwarzschild_interior", c=c)
        verdicts = []
        for grid_n in (200, 228, 256, 2048):
            (rep,) = quasilocal.level_set_data(model, 0.5, grid_n=grid_n)
            verdicts.append((rep.classification, rep.thresholds))
        cls, (lo, hi) = verdicts[0]
        assert cls is SphereClass.SPHERE_FORCED and lo == hi
        for got_cls, got in verdicts[1:]:
            assert got_cls is cls
            assert got == pytest.approx((lo, hi), rel=1e-12, abs=0.0)


class TestVacuumLevels:
    @pytest.mark.parametrize(
        "c,kappa,H,m_by",
        [
            (0.1, 0.245025, 0.099, 2.0 / 1.1),
            (0.5, 0.140625, 0.375, 4.0 / 3.0),
            (0.9, 0.009025, 0.171, 2.0 / 1.9),
        ],
    )
    def test_closed_forms(self, vacuum, c, kappa, H, m_by):
        reports = level_set_data(vacuum, c)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.r == pytest.approx(2.0 / (1.0 - c * c), rel=1e-12)
        assert rep.kappa == pytest.approx(kappa, rel=1e-10)
        assert rep.mean_curvature == pytest.approx(H, rel=1e-10)
        assert rep.h_level == pytest.approx(-H, rel=1e-10)
        assert rep.m_hawking == pytest.approx(1.0, abs=1e-12)
        assert rep.m_brown_york == pytest.approx(m_by, rel=1e-10)
        assert abs(rep.chi_identity_residual) <= 1e-9
        assert abs(rep.inequality_slack) <= 1e-9
        assert rep.classification is SphereClass.SPHERE_FORCED
        lo, hi = rep.thresholds
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(4.0 * kappa / c, rel=1e-10)

    def test_report_json_keys(self, vacuum):
        d = level_set_data(vacuum, 0.5)[0].to_json_dict()
        for key in ("level", "r", "area", "H", "h_level", "H0", "willmore",
                    "kappa", "rho0", "m_hawking", "m_brown_york",
                    "chi_identity_residual", "inequality_slack",
                    "classification", "thresholds"):
            assert key in d
        assert d["classification"] == "SphereForced"
        # radial charts are umbilical by symmetry: no pointwise audit fields
        assert "umbilical_spread" not in d

    def test_brown_york_direct(self, vacuum):
        # f = sqrt(1 - 2/r) = 1/2 on the sphere r = 8/3
        rep = level_set_data(vacuum, 0.5)[0]
        assert rep.r == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert rep.m_brown_york == pytest.approx(4.0 / 3.0, rel=1e-12)


class TestWarpedLevels:
    """Twin spheres of the warped star at the level c = f(1)."""

    LEVEL = 0.4203044601423583          # f at t = 1

    def test_twin_pair(self, witten):
        reports = level_set_data(witten, self.LEVEL)
        assert len(reports) == 2
        inner, outer = reports
        assert inner.r == pytest.approx(1.0, abs=1e-9)
        assert outer.r == pytest.approx(3.3998455044895458, abs=1e-9)

        assert inner.area == pytest.approx(7.2888173891158350, rel=1e-12)
        assert inner.mean_curvature == pytest.approx(1.1028822590871328, rel=1e-12)
        assert inner.kappa == pytest.approx(0.69105769580928797, rel=1e-12)
        assert inner.rho0 == pytest.approx(0.39336656953298371, rel=1e-12)
        assert inner.m_hawking == pytest.approx(0.31363268050814495, rel=1e-12)
        assert inner.m_brown_york == pytest.approx(0.44174415173115264, rel=1e-12)
        assert inner.classification is SphereClass.SPHERE_FORCED
        lo, hi = inner.thresholds
        assert lo == pytest.approx(-0.23112496936277876, rel=1e-10)
        assert hi == pytest.approx(6.8078593259311073, rel=1e-10)

        assert outer.area == pytest.approx(12.510493444869373, rel=1e-12)
        assert outer.mean_curvature == pytest.approx(0.0089129658436400369, rel=1e-10)
        assert outer.kappa == pytest.approx(0.90536352278547230, rel=1e-12)
        assert outer.rho0 == pytest.approx(-1.0236456800294854, rel=1e-12)
        assert outer.m_hawking == pytest.approx(0.49887725657167804, rel=1e-12)
        assert outer.m_brown_york == pytest.approx(0.99333757418011835, rel=1e-12)
        assert outer.classification is SphereClass.SPHERE_FORCED
        lo, hi = outer.thresholds
        assert lo == pytest.approx(0.50478893214234273, rel=1e-10)
        assert hi == pytest.approx(8.1114748351164963, rel=1e-10)

        # the descending branch flips the signed convention
        assert inner.h_level == pytest.approx(-inner.mean_curvature, rel=1e-12)
        assert outer.h_level == pytest.approx(+outer.mean_curvature, rel=1e-12)

    def test_indeterminate_level(self, witten):
        # just below the lapse maximum the discriminant goes negative
        reports = level_set_data(witten, 0.96994453180030282169)
        rep = reports[0]
        assert len(reports) == 2
        assert rep.r == pytest.approx(2.0, abs=1e-9)
        assert rep.area == pytest.approx(11.678546165044130, rel=1e-12)
        assert rep.mean_curvature == pytest.approx(0.14657428130346242, rel=1e-12)
        assert rep.kappa == pytest.approx(0.23457309965885361, rel=1e-12)
        assert rep.m_hawking == pytest.approx(0.47960779938112321, rel=1e-12)
        assert rep.m_brown_york == pytest.approx(0.89591823636226036, rel=1e-12)
        assert rep.classification is SphereClass.INDETERMINATE
        assert rep.thresholds is None

    def test_identity_and_slack_hold(self, witten):
        for rep in level_set_data(witten, self.LEVEL):
            assert abs(rep.chi_identity_residual) <= 1e-9
            assert abs(rep.inequality_slack) <= 1e-9

    def test_window_restriction(self, witten):
        reports = level_set_data(witten, self.LEVEL, window=(0.05, 1.5))
        assert len(reports) == 1
        assert reports[0].r == pytest.approx(1.0, abs=1e-9)


class TestStellarLevels:
    def test_exterior_level_recovers_the_mass(self, const_star):
        c = 0.7
        reports = level_set_data(const_star, c)
        assert len(reports) == 1
        rep = reports[0]
        M = const_star.mass
        assert rep.r == pytest.approx(2.0 * M / (1.0 - c * c), rel=1e-10)
        assert rep.m_hawking == pytest.approx(M, rel=1e-10)
        assert rep.m_brown_york == pytest.approx(2.0 * M / (1.0 + c), rel=1e-10)
        assert rep.rho0 == 0.0

    def test_interior_level(self, const_star):
        rep = level_set_data(const_star, 0.5)[0]
        assert rep.r < const_star.r_b
        assert rep.rho0 == pytest.approx(
            8.0 * math.pi * const_star.rho(rep.r), rel=1e-12
        )
        assert rep.m_hawking == pytest.approx(1.1799531854230731, rel=1e-6)
        assert abs(rep.chi_identity_residual) <= 1e-9
        assert abs(rep.inequality_slack) <= 1e-9
        assert rep.classification is SphereClass.SPHERE_FORCED


class TestConformalLevels:
    def test_pointwise_surface_audit(self, conformal_witten):
        reports = level_set_data(conformal_witten, 0.5)
        assert len(reports) == 1
        rep = reports[0]
        # sin(log(1+u)/2) = 1/2 at u = e^{pi/3} - 1
        assert rep.r == pytest.approx(math.exp(math.pi / 3.0) - 1.0, abs=1e-9)
        assert rep.umbilical_spread is not None and rep.umbilical_spread < 1e-10
        assert rep.grad_constancy is not None and rep.grad_constancy < 1e-8
        # umbilical + constant H: the quadrature Willmore energy is H^2 * area
        assert rep.willmore == pytest.approx(
            rep.area * rep.mean_curvature**2, rel=1e-10
        )
        assert abs(rep.chi_identity_residual) <= 1e-9
        assert abs(rep.inequality_slack) <= 1e-9
        d = rep.to_json_dict()
        assert "umbilical_spread" in d and "grad_constancy" in d

    def test_dimension_gate(self):
        m = conformal.build_model("witten", n=4, span=(0.0, 4.0))
        with pytest.raises(DomainError):
            level_set_data(m, 0.3)

    def test_window_is_clipped_to_the_domain(self):
        # the domain ends at u = 3; past it the closed-form lapse reaches
        # 0.9 at u = 8.389 and 0.5 again at u = 186.9
        m = conformal.build_model("witten", n=3, span=(0.0, 3.0))
        with pytest.raises(NoLevelSet):
            level_set_data(m, 0.9, window=(0.5, 40.0))
        reports = level_set_data(m, 0.5, window=(0.1, 400.0))
        assert [rep.r for rep in reports] == pytest.approx([math.exp(math.pi / 3.0) - 1.0],
                                                           abs=1e-9)

    def test_no_sphere_past_the_lapse_zero(self):
        # the lapse crosses zero at u = 3.810, where the domain is cut; its
        # dense output, extrapolated past it, reaches 0.05 again at u = 12.32
        m = conformal.build_model(SQRT_ONE_PLUS_U, n=3, ic=(1.0, -0.5), span=(0.0, 10.0))
        assert m.truncated and m.domain[1] == pytest.approx(3.810, abs=1e-3)
        for window in (None, (0.1, 400.0), (0.5, 40.0)):
            reports = level_set_data(m, 0.05, window=window)
            assert [rep.r for rep in reports] == pytest.approx([3.482006856091119], rel=1e-12)

    def test_needs_spherical_invariant(self):
        inv = conformal.BasicInvariant(0.0, (1.0, 0.0, 0.0), (0.0,) * 3)
        m = conformal.build_model("unit", n=3, invariant=inv, span=(0.0, 4.0))
        with pytest.raises(DomainError):
            level_set_data(m, 0.5)


# an off-centre spherical invariant: tau > 0, alpha != 0, centre (-0.2, 0.1, -0.3)
OFF_CENTRE = conformal.BasicInvariant(1.0, (0.4, -0.2, 0.6), (0.3, 0.1, 0.2))
SQRT_ONE_PLUS_U = RadialFunction(
    value=lambda u: np.sqrt(1.0 + np.asarray(u, dtype=float)),
    d1=lambda u: 0.5 / np.sqrt(1.0 + np.asarray(u, dtype=float)),
    d2=lambda u: -0.25 * (1.0 + np.asarray(u, dtype=float)) ** -1.5,
    domain=(-1.0 + 1e-12, math.inf),
)


def _skew_lapse(x):
    """f = exp(0.3 x) + y^2 - xz/2 at a point or a batch, as (value, gradient,
    Hessian) written out by hand: its level sets are not round, so A is not
    umbilic."""
    x = np.asarray(x, dtype=float)
    value = np.exp(0.3 * x[..., 0]) + x[..., 1] ** 2 - 0.5 * x[..., 0] * x[..., 2]
    gradient = np.stack([0.3 * np.exp(0.3 * x[..., 0]) - 0.5 * x[..., 2],
                         2.0 * x[..., 1], -0.5 * x[..., 0]], axis=-1)
    hessian = np.zeros(x.shape + (3,))
    hessian[..., 0, 0] = 0.09 * np.exp(0.3 * x[..., 0])
    hessian[..., 0, 2] = hessian[..., 2, 0] = -0.5
    hessian[..., 1, 1] = 2.0
    return value, gradient, hessian


def _skew_shape(ansatz, x):
    """(A, trace) of the skew lapse's level sets through ``x``: the kernel
    the public shape_operator calls, fed the chart's ConformalBatch reading
    of phi and the hand-written lapse arrays."""
    _, grad_f, hess_f = _skew_lapse(x)
    a11, a22, a12, _ = quasilocal._shape(x, ConformalBatch(ansatz, x).phi, grad_f, hess_f)
    A = np.stack([np.stack([a11, a12], axis=-1), np.stack([a12, a22], axis=-1)], axis=-2)
    return A, a11 + a22


def _skew_hessian(ansatz, x):
    """Hess_g of the skew lapse at ``x``, by the kernel behind conformal_hessian."""
    _, grad_f, hess_f = _skew_lapse(x)
    phi = ConformalBatch(ansatz, x).phi
    return _g_hessian(phi.v, phi.grad, grad_f, hess_f)


def _fd_conformal_hessian(phi_value, f_value, x):
    """Hess_g f from values only: finite-difference derivatives plus connection terms."""
    e = np.eye(3)

    def along(fn, v, order):
        return fd_derivative(lambda t: fn(x + t * v), 0.0, order=order)

    hf = np.array([[along(f_value, e[i], 2) if i == j else
                    0.25 * (along(f_value, e[i] + e[j], 2) - along(f_value, e[i] - e[j], 2))
                    for j in range(3)] for i in range(3)])
    gp = np.array([along(phi_value, e[i], 1) for i in range(3)])
    gf = np.array([along(f_value, e[i], 1) for i in range(3)])
    p = phi_value(x)
    return hf + (np.outer(gp, gf) + np.outer(gf, gp)) / p - (gp @ gf / p) * np.eye(3)


class TestBatchedShapeOperator:
    @pytest.fixture(scope="class")
    def model(self):
        # OFF_CENTRE's level spheres exist for u >= -C/(4 tau) = 0.46, and the
        # construction checks sample the whole span
        return conformal.build_model(SQRT_ONE_PLUS_U, n=3, invariant=OFF_CENTRE,
                                     ic=(1.0, 0.2), span=(0.5, 12.0))

    @pytest.fixture(scope="class")
    def points(self):
        """Points on 12 different level spheres, 1 < u < 8, random directions."""
        rng = np.random.default_rng(11)
        u = rng.uniform(1.0, 8.0, 12)
        dirs = rng.standard_normal((12, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return OFF_CENTRE.center + OFF_CENTRE.sphere_radius(u)[:, None] * dirs

    @pytest.mark.parametrize("lapse", [False, True], ids=["skew-field", "model-lapse"])
    def test_batch_equals_rows(self, model, points, lapse):
        ansatz = model.pieces[0].ansatz

        def shape(x):
            return quasilocal.shape_operator(ansatz, model.f, x) if lapse else _skew_shape(ansatz, x)

        A, tr = shape(points)
        assert A.shape == (len(points), 2, 2) and tr.shape == (len(points),)
        for k, x in enumerate(points):
            A_k, tr_k = shape(x)
            assert A_k.shape == (2, 2) and np.ndim(tr_k) == 0
            np.testing.assert_allclose(A[k], A_k, rtol=1e-14, atol=1e-14)
            assert tr[k] == pytest.approx(float(tr_k), rel=1e-14, abs=1e-14)
        spread = np.hypot(A[:, 0, 0] - A[:, 1, 1], 2.0 * A[:, 0, 1])
        if lapse:  # level sets of the lapse are the invariant's round spheres
            assert np.max(spread) < 1e-12
        else:
            assert np.min(spread) > 1e-3

    def test_hessian_matches_finite_differences(self, model, points):
        ansatz = model.pieces[0].ansatz

        def phi_value(y):
            return SQRT_ONE_PLUS_U.value(OFF_CENTRE.value(y))

        hess = _skew_hessian(ansatz, points)
        assert hess.shape == (len(points), 3, 3)
        for k, x in enumerate(points):
            np.testing.assert_allclose(hess[k], _skew_hessian(ansatz, x),
                                       rtol=1e-14, atol=1e-14)
            # second differences at h = 5e-4 of values up to ~20 lose ~1e-7 to roundoff
            np.testing.assert_allclose(
                hess[k], _fd_conformal_hessian(phi_value, lambda y: _skew_lapse(y)[0], x),
                rtol=0, atol=1e-6)

    def test_centre_in_batch_is_not_a_regular_value(self, model, points):
        batch = np.vstack([points[:3], OFF_CENTRE.center])
        with pytest.raises(NotARegularValue):
            quasilocal.shape_operator(model.pieces[0].ansatz, model.f, batch)

    def test_nonpositive_factor_in_batch(self, model, points):
        two_minus_u = RadialFunction(
            lambda u: 2.0 - u, d1=lambda u: -1.0 + 0.0 * u, d2=lambda u: 0.0 * u)
        ansatz = ConformalFlat(two_minus_u, OFF_CENTRE)
        batch = np.vstack([OFF_CENTRE.point_at(1.0), points])  # u > 2 in `points`
        with pytest.raises(DomainError):
            _skew_shape(ansatz, batch)
        for public in (lambda x: conformal_hessian(ansatz, model.f, x),
                       lambda x: conformal_curvature(ansatz, x),
                       lambda x: quasilocal.shape_operator(ansatz, model.f, x)):
            with pytest.raises(DomainError):
                public(batch)
            public(OFF_CENTRE.point_at(1.0))  # phi = 1 there

    @pytest.mark.parametrize("shape", [(4, 2), (3, 3, 3)])
    def test_malformed_point_arrays(self, model, shape):
        ansatz = model.pieces[0].ansatz
        x = np.ones(shape)
        for call in (lambda: quasilocal.shape_operator(ansatz, model.f, x),
                     lambda: conformal_hessian(ansatz, model.f, x),
                     lambda: conformal_curvature(ansatz, x),
                     lambda: ConformalBatch(ansatz, x),
                     lambda: OFF_CENTRE.gradient(x),
                     lambda: OFF_CENTRE.hessian(x)):
            with pytest.raises(BadParams):
                call()


class TestLevelScan:
    def test_critical_level(self):
        flat = catalog.build("einstein_static", c=0.25)
        with pytest.raises(NotARegularValue):
            level_set_data(flat, 1.0)      # f is identically 1

    def test_unreached_level(self, vacuum):
        with pytest.raises(NoLevelSet):
            level_set_data(vacuum, 2.0)    # vacuum lapse stays below 1

    def test_unsupported_model(self):
        with pytest.raises(BadParams):
            level_set_data(object(), 0.5)

    def test_sweep_skips_and_keeps_level_order(self, vacuum):
        reports = mass_sweep(vacuum, [0.5, 2.0, 0.1])
        assert [rep.level for rep in reports] == [0.5, 0.1]
        # rows follow the requested level order, not radial order
        assert reports[0].r > reports[1].r

    def test_sweep_csv(self, tmp_path, vacuum):
        reports = mass_sweep(vacuum, [0.5, 0.1])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "c,r,area,H,kappa,rho0,m_hawking,m_brown_york,chi_residual,ineq_slack"
        assert len(lines) == 3
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.5 and first[1] == pytest.approx(8.0 / 3.0, rel=1e-12)


class TestLapseExtremum:
    """witten_stellar's lapse sin(log cosh t) peaks at 1 at t = acosh(e^{pi/2})."""

    def test_maximum_is_not_a_regular_value(self, witten):
        with pytest.raises(NotARegularValue):
            level_set_data(witten, 1.0)

    def test_just_below_the_maximum_gives_two_spheres(self, witten):
        t_star = math.acosh(math.exp(math.pi / 2.0))
        inner, outer = level_set_data(witten, 0.999)
        assert inner.r < t_star < outer.r

    def test_above_the_maximum_has_no_level_set(self, witten):
        with pytest.raises(NoLevelSet):
            level_set_data(witten, 1.2)


def test_sweep_window(witten):
    reports = mass_sweep(witten, [TestWarpedLevels.LEVEL, 0.6], window=(0.05, 1.5))
    assert [rep.level for rep in reports] == [TestWarpedLevels.LEVEL, 0.6]
    assert all(rep.r <= 1.5 for rep in reports)


def _each_level(model, levels, **kwargs):
    """The reports of level_set_data level by level, skipping the levels with
    no level set: what a sweep returns, and raises, level by level."""
    out = []
    for c in levels:
        try:
            out += level_set_data(model, c, **kwargs)
        except NoLevelSet:
            continue
    return out


class TestSweepErrors:
    """The first level that fails, in the given order, decides what a sweep raises."""

    def _raises_as_each_level(self, model, levels, kind):
        with pytest.raises(kind) as each:
            _each_level(model, levels)
        with pytest.raises(kind) as swept:
            mass_sweep(model, levels)
        assert str(swept.value) == str(each.value)
        return str(swept.value)

    @pytest.mark.parametrize("c", [0.05, 0.2, 0.3])
    def test_constant_lapse(self, c):
        flat = catalog.build("einstein_static", c=c)   # f is identically 1
        msg = self._raises_as_each_level(flat, [0.5, 1.0, 0.7], NotARegularValue)
        assert msg.startswith("c=1.0 is a critical value")

    def test_lapse_maximum_after_regular_levels(self, witten):
        msg = self._raises_as_each_level(witten, [0.5, 2.0, 0.3, 1.0, 0.7], NotARegularValue)
        assert msg.startswith("c=1.0 is a critical value of the lapse (f = c where")

    def test_repeated_critical_levels(self, witten):
        flat = catalog.build("einstein_static", c=0.2)
        assert "c=1.0 " in self._raises_as_each_level(witten, [0.5, 1.0, 0.999, 1.0], NotARegularValue)
        assert "c=1.0 " in self._raises_as_each_level(flat, [1.0, 1.0], NotARegularValue)

    def test_non_finite_level_after_a_critical_one(self, witten):
        for bad in (math.nan, math.inf):
            self._raises_as_each_level(witten, [0.5, 1.0, bad], NotARegularValue)
        msg = self._raises_as_each_level(witten, [0.5, math.nan, 1.0], BadParams)
        assert msg == "level c=nan is not finite"

    def test_non_finite_first_level(self, vacuum):
        self._raises_as_each_level(vacuum, [math.inf, 0.5], BadParams)
        with pytest.raises(BadParams, match="grid"):
            mass_sweep(vacuum, [math.inf, 0.5], grid_n=1)

    def test_a_sphere_that_fails_to_read_after_a_level_that_fails_to_report(self):
        """b = sin r < 0 past pi, so the sphere of f = r - 1 at c = 3 has no
        chart, and c = 0 has a sphere whose identity divides by c: reading
        both spheres in one call must not raise before the c = 0 report does."""
        warped = WarpedProduct(RadialFunction.from_formula(lambda r: np.sin(r)))
        zero = RadialFunction.constant(0.0)
        piece = Piece("warped", warped, RadialFunction.from_formula(lambda r: r - 1.0),
                      zero, zero, interval=(0.1, 5.0))
        model = SimpleNamespace(pieces=[piece])
        assert self._raises_as_each_level(model, [0.0, 3.0], DomainError) \
            == "the identity divides by the level value c"
        assert self._raises_as_each_level(model, [2.0, 3.0], DomainError).startswith(
            "non-positive areal radius")
        assert len(mass_sweep(model, [1.0, 2.0])) == 2

    def test_a_level_with_no_sphere_before_a_critical_one(self, witten):
        self._raises_as_each_level(witten, [3.0, -1.0, 1.0], NotARegularValue)
        assert mass_sweep(witten, []) == []

    def test_a_later_level_failing_in_an_earlier_piece(self):
        """f touches c = 0.5 at r = 1 in piece 0 and c = 2 at r = 3 in piece
        1, so one pass over [2, 0.5] meets the second level's touch first;
        the sweep still raises the first level's."""
        flat = WarpedProduct(RadialFunction.from_formula(lambda r: r))
        zero = RadialFunction.constant(0.0)
        model = SimpleNamespace(pieces=[
            Piece("inner", flat, RadialFunction.from_formula(lambda r: 0.5 + (r - 1.0) ** 2),
                  zero, zero, interval=(0.1, 2.3)),
            Piece("outer", flat, RadialFunction.from_formula(lambda r: 2.0 + (r - 3.0) ** 2),
                  zero, zero, interval=(2.3, 5.0)),
        ])
        assert self._raises_as_each_level(model, [0.5, 2.0], NotARegularValue).startswith(
            "c=0.5 is a critical value")
        assert self._raises_as_each_level(model, [2.0, 0.5], NotARegularValue).startswith(
            "c=2.0 is a critical value")

    def test_a_level_reads_all_its_spheres_before_it_reports(self):
        """f = (r - 1)(r - 4) is 0 at r = 1, whose report divides by c = 0,
        and at r = 4, where b = sin r < 0 leaves no sphere: the sphere reads
        come first."""
        warped = WarpedProduct(RadialFunction.from_formula(lambda r: np.sin(r)))
        zero = RadialFunction.constant(0.0)
        piece = Piece("warped", warped, RadialFunction.from_formula(lambda r: (r - 1.0) * (r - 4.0)),
                      zero, zero, interval=(0.1, 5.0))
        with pytest.raises(DomainError, match="^non-positive areal radius"):
            level_set_data(SimpleNamespace(pieces=[piece]), 0.0)


def _logged_pieces(model, log):
    """The model's pieces with lapses that append (piece, derivative, points)
    to ``log`` on every call: points is None for a float, else the array size."""
    def logged(i, name, fn):
        def call(r):
            log.append((i, name, None if np.ndim(r) == 0 else np.size(r)))
            return fn(r)
        return call

    return [dataclasses.replace(p, f=RadialFunction(
        logged(i, "value", p.f.value), logged(i, "d1", p.f.d1), logged(i, "d2", p.f.d2),
        domain=p.f.domain)) for i, p in enumerate(model.pieces)]


@pytest.mark.parametrize("fixture, levels", [
    # a star's interior and vacuum exterior are two pieces, each with roots here
    ("const_star", [0.45, 0.5, 0.7]),
    ("const_star", [0.5, 0.9, 0.7]),
    ("witten", [0.3, 0.6, 0.999]),
    ("conformal_witten", [0.3, 0.5, 0.9]),
])
def test_sweep_reads_each_lapse_once_and_matches_each_level(request, fixture, levels):
    """A sweep is the one-level results end to end, and reads each piece's
    lapse on its scan grid in one call and f' at all of its roots in one
    more; Brent's polish reads single points, and a conformal sphere's audit
    its own nodes."""
    model = request.getfixturevalue(fixture)
    swept = [rep.to_json_dict() for rep in mass_sweep(model, levels)]
    single = [rep.to_json_dict() for c in levels for rep in level_set_data(model, c)]
    assert json.dumps(swept) == json.dumps(single)

    log = []
    logged = SimpleNamespace(pieces=_logged_pieces(model, log))
    again = [rep.to_json_dict() for rep in mass_sweep(logged, levels)]
    assert json.dumps(again) == json.dumps(swept)
    audit_nodes = len(sphere_rule(quasilocal.AUDIT_DEGREE)[0])
    for i in range(len(model.pieces)):
        arrays = [(name, n) for j, name, n in log if j == i and n not in (None, audit_nodes)]
        assert [name for name, _ in arrays] == ["value", "d1"], arrays
        assert arrays[0][1] == 2048 and arrays[1][1] >= 1, arrays


def test_round_sphere_willmore_is_h_squared_area(vacuum, witten):
    for rep in level_set_data(vacuum, 0.5) + level_set_data(witten, 0.6):
        assert rep.willmore == pytest.approx(rep.mean_curvature**2 * rep.area, rel=1e-15)
