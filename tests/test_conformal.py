"""Conformally flat models: the quadric invariant, lapse ODE, dual routes."""

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from staticstar.errors import BadParams, DomainError, SignLoss
from staticstar import geometry
from staticstar.geometry import (
    EIGHT_PI,
    ConformalBatch,
    ConformalFlat,
    FluidData,
    _entry,
    _report,
    _spf_arrays_conformal,
    _spf_report_conformal,
    conformal_curvature,
    conformal_hessian,
    spf_residuals,
)
from staticstar.numerics import Jet, ProfileAt, RadialFunction, chebyshev_grid, sphere_rule
from staticstar import catalog, conformal, energy, quasilocal
from staticstar.conformal import (
    BasicInvariant,
    build_model,
    solve_lapse,
    witten_lapse,
)

from fd import fd_derivative


def pressure_closed_form(
    phi: RadialFunction,
    f: RadialFunction,
    invariant: BasicInvariant,
    lam: float,
    n: int,
    u,
):
    """Independent closed form for the physical pressure.

        8 pi rho - Lambda = (n-1)/n * { [ (n/2)(n-2) phi'^2 - n phi phi' f'/f ] q
                                        + 2 n tau (phi/f) [ f' phi - (n-2) f phi' ] }

    with q = 4 tau u + C.  A separate code path from the trace route of
    the model's ``rho``; the two must agree on solutions of the lapse
    ODE, and ``TestDensityPressure.test_routes_agree`` compares them.
    """
    u = np.asarray(u, dtype=float)
    tau, C = invariant.tau, invariant.C
    q = 4.0 * tau * u + C
    p = np.asarray(phi.value(u), dtype=float)
    p1 = np.asarray(phi.d1(u), dtype=float)
    fv = np.asarray(f.value(u), dtype=float)
    f1 = np.asarray(f.d1(u), dtype=float)
    if np.any(fv == 0.0):
        raise DomainError("lapse vanishes on evaluation set")
    bracket = (0.5 * n * (n - 2) * p1 * p1 - n * p * p1 * f1 / fv) * q \
        + 2.0 * n * tau * (p / fv) * (f1 * p - (n - 2) * fv * p1)
    rho_geo = (n - 1) / n * bracket
    return (rho_geo + lam) / EIGHT_PI


def sqrt_one_plus_u():
    """phi = sqrt(1+u) as an analytic RadialFunction (the witten factor)."""
    return RadialFunction(
        value=lambda u: np.sqrt(1.0 + np.asarray(u, dtype=float)),
        d1=lambda u: 0.5 / np.sqrt(1.0 + np.asarray(u, dtype=float)),
        d2=lambda u: -0.25 * (1.0 + np.asarray(u, dtype=float)) ** -1.5,
        provenance="analytic",
        domain=(-1.0 + 1e-9, math.inf),
    )


def _logged(rf: RadialFunction, name: str, log: list) -> RadialFunction:
    """``rf`` with each call of value, d1 and d2 logged as (name, which, the points' bytes)."""

    def logging(which, fn):
        def call(u):
            log.append((name, which, np.asarray(u, dtype=float).tobytes()))
            return fn(u)

        return call

    return dataclasses.replace(rf, value=logging("value", rf.value),
                               d1=logging("d1", rf.d1), d2=logging("d2", rf.d2))


def _geo_fluid(m) -> FluidData:
    """A conformal model's geometric fluid, from :func:`conformal._geo_pair`
    on fresh readings of phi and f at the points, as the model's checks form it."""

    def pair(u):
        u = np.asarray(u, dtype=float)
        return conformal._geo_pair(m.invariant, m.n, u, ProfileAt(m.phi, u), ProfileAt(m.f, u))

    return FluidData(f=m.f, mu=lambda u: pair(u)[0], rho=lambda u: pair(u)[1])


class TestBasicInvariant:
    def test_round_sphere_case(self):
        inv = BasicInvariant(1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        x = np.array([1.0, 1.0, 1.0])
        assert inv.value(x) == pytest.approx(3.0)
        assert inv.C == 0.0
        g = inv.gradient(x)
        assert float(g @ g) == pytest.approx(4.0 * inv.tau * 3.0 + inv.C)
        assert np.trace(inv.hessian(x)) == pytest.approx(6.0)

    def test_plane_case(self):
        inv = BasicInvariant(0.0, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert inv.value((2.0, 0.0, 0.0)) == pytest.approx(2.0)
        assert inv.C == 1.0
        assert not inv.degenerate
        np.testing.assert_allclose(inv.point_at(5.0), [5.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            inv.center

    def test_degenerate_case(self):
        inv = BasicInvariant(0.0, (0.0, 0.0), (1.0, 0.0))
        assert inv.degenerate
        with pytest.raises(DomainError):
            inv.point_at(1.0)

    def test_shifted_center(self):
        inv = BasicInvariant(1.0, (2.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        np.testing.assert_allclose(inv.center, [-1.0, 0.0, 0.0])
        assert inv.C == 4.0

    def test_sphere_radius(self):
        inv = BasicInvariant(1.0, (0.0,) * 3, (0.0,) * 3)
        assert inv.sphere_radius(4.0) == pytest.approx(2.0)
        with pytest.raises(DomainError):
            inv.sphere_radius(-1.0)
        flat = BasicInvariant(0.0, (1.0, 0.0), (0.0, 0.0))
        with pytest.raises(DomainError):
            flat.sphere_radius(1.0)

    def test_point_at_direction(self):
        inv = BasicInvariant(1.0, (0.0,) * 3, (0.0,) * 3)
        np.testing.assert_allclose(
            inv.point_at(4.0, direction=(0.0, 0.0, 2.0)), [0.0, 0.0, 2.0]
        )
        with pytest.raises(BadParams):
            inv.point_at(4.0, direction=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("tau, alpha, beta", [
        (1.0, (0.4, -0.2, 0.6), (0.0, 0.1, 0.0)),   # off-centre spheres
        (0.0, (1.0, 0.5, 0.0), (0.3, 0.0, -0.1)),   # planes
    ])
    def test_grad_sq_is_the_gradient_norm_as_a_function_of_u(self, tau, alpha, beta):
        inv = BasicInvariant(tau, alpha, beta)
        assert "C" not in vars(inv)
        x = np.random.default_rng(5).standard_normal((16, 3))
        grad = inv.gradient(x)
        np.testing.assert_allclose(inv.grad_sq(inv.value(x)), np.sum(grad * grad, axis=-1),
                                   rtol=1e-12, atol=1e-12)
        # C is summed on the first read and then kept, with the same bits
        assert vars(inv)["C"] is inv.C
        assert inv.C == float(sum(a * a - 4.0 * tau * b for a, b in zip(alpha, beta)))
        assert inv.grad_sq(0.7) == 4.0 * tau * 0.7 + inv.C

    @pytest.mark.parametrize("n", [3, 6])
    def test_gradient_and_hessian_shapes(self, n):
        rng = np.random.default_rng(n)
        inv = BasicInvariant(0.8, tuple(rng.standard_normal(n)), tuple(rng.standard_normal(n)))
        x = rng.standard_normal((4, n))
        assert inv.gradient(x[0]).shape == (n,) and inv.hessian(x[0]).shape == (n, n)
        assert inv.gradient(x).shape == (4, n) and inv.hessian(x).shape == (4, n, n)
        np.testing.assert_array_equal(inv.hessian(x), np.broadcast_to(1.6 * np.eye(n), (4, n, n)))
        for k, xk in enumerate(x):
            assert inv.gradient(xk).tobytes() == inv.gradient(x)[k].tobytes()
            # the polynomial's derivatives against stencils of u along each axis
            for i in range(n):
                e = np.eye(n)[i]
                assert inv.gradient(xk)[i] == pytest.approx(
                    fd_derivative(lambda t: inv.value(xk + t * e), 0.0, order=1), abs=1e-9)
        for bad in (np.ones(n + 1), np.ones((4, n - 1)), np.ones((2, 2, n)), np.float64(1.0)):
            with pytest.raises(BadParams):
                inv.gradient(bad)
            with pytest.raises(BadParams):
                inv.hessian(bad)

    def test_construction_guards(self):
        with pytest.raises(BadParams):
            BasicInvariant(1.0, (1.0, 0.0), (0.0,))
        with pytest.raises(BadParams):
            BasicInvariant(1.0, (), ())

    @pytest.mark.parametrize("tau, alpha, beta", [
        (-0.5, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),   # point_at missed u by 15-20%
        (math.nan, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        (math.inf, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        (1.0, (0.0, -math.inf, 0.0), (0.0, 0.0, 0.0)),
        (1.0, (0.0, 0.0, 0.0), (math.nan, 0.0, 0.0)),
        (0.0, (1.0, 0.0, 0.0), (0.0, 0.0, math.inf)),
    ], ids=["negative-tau", "nan-tau", "inf-tau", "inf-alpha", "nan-beta", "inf-beta"])
    def test_a_negative_or_non_finite_coefficient_is_refused(self, tau, alpha, beta):
        with pytest.raises(BadParams):
            BasicInvariant(tau, alpha, beta)
        # so no build samples such an invariant's level sets
        with pytest.raises(BadParams):
            build_model("unit", n=3, invariant=BasicInvariant(tau, alpha, beta),
                        span=(0.0, 0.4), ic=(1.0, 0.1))


class TestWittenLapse:
    def test_warped_values(self):
        assert witten_lapse(3, 1.0, 0.0, 1.0) == pytest.approx(
            math.sin(math.log(math.cosh(1.0))), rel=1e-15
        )
        assert witten_lapse(3, 1.0, 0.0, 1.0) == pytest.approx(
            0.4203044601423583, rel=1e-14
        )
        assert witten_lapse(3, 0.0, 2.5, 0.0) == 2.5
        with pytest.raises(BadParams):
            witten_lapse(2, 1.0, 0.0, 1.0)

    def test_charts_agree(self):
        # u = sinh^2 r identifies the invariant chart with the warped one
        f_u = conformal._witten_u_lapse(5, 0.7, -0.2, (0.0, 200.0))
        for r in (0.3, 1.0, 2.7):
            u = math.sinh(r) ** 2
            assert f_u(u) == pytest.approx(
                witten_lapse(5, 0.7, -0.2, r), rel=1e-13
            )

    @pytest.mark.parametrize("params", [{}, {"A": 0.6, "B": 0.8}, {"A": 2.0, "B": -0.5}])
    def test_catalog_chart_agrees(self, params):
        # witten_stellar's lapse is the n = 3 Witten lapse in the warped variable
        model = catalog.build("witten_stellar", **params)
        A, B = model.params["A"], model.params["B"]
        f = model.pieces[0].fluid.f
        t = np.linspace(*model.pieces[0].scan_window(), 9)
        np.testing.assert_allclose(f.value(t), witten_lapse(3, A, B, t), rtol=1e-14, atol=1e-15)
        for r in t[::4]:
            assert f(float(r)) == pytest.approx(witten_lapse(3, A, B, float(r)), rel=1e-14)

    @pytest.mark.parametrize("A,B", [(0.6, 0.8), (2.0, -0.5)])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_runs_through_a_jet(self, n, A, B):
        r = np.linspace(0.05, 1.5, 13)
        jet = witten_lapse(n, A, B, Jet(r, 1.0, 0.0))
        # the value is the plain call's, for an array and for each float
        assert jet.v.tobytes() == witten_lapse(n, A, B, r).tobytes()
        for x in r:
            one = witten_lapse(n, A, B, Jet(float(x), 1.0, 0.0))
            assert isinstance(one.v, float) and one.v == witten_lapse(n, A, B, float(x))
        # f' = 2w tanh r (A cos phi - B sin phi), phi = 2w log cosh r
        w = 0.5 * math.sqrt(n - 2.0)
        phase = 2.0 * w * np.log(np.cosh(r))
        d1 = 2.0 * w * np.tanh(r) * (A * np.cos(phase) - B * np.sin(phase))
        # relative to max |f'|: near a zero of f' both sides are differences
        np.testing.assert_allclose(jet.d1, d1, rtol=0.0, atol=1e-14 * np.max(np.abs(d1)))
        if n == 3:  # witten_stellar's f is this lapse, differentiated by the same jet
            model = catalog.build("witten_stellar", A=A, B=B)
            f = model.pieces[0].fluid.f
            t = np.linspace(*model.pieces[0].scan_window(), 9)
            want = witten_lapse(3, A, B, Jet(t, 1.0, 0.0))
            assert f.d1(t).tobytes() == want.d1.tobytes()
            assert f.d2(t).tobytes() == want.d2.tobytes()


class TestSolveLapse:
    def test_matches_closed_form(self):
        f = solve_lapse(sqrt_one_plus_u(), 3, (0.0, 10.0), (0.0, 0.5))
        grid = chebyshev_grid(0.0, 10.0, 256)
        exact = np.sin(0.5 * np.log1p(grid))
        assert np.max(np.abs(f.value(grid) - exact)) <= 1e-8

    def test_second_derivative_is_the_ode(self):
        phi = sqrt_one_plus_u()
        f = solve_lapse(phi, 3, (0.0, 10.0), (0.0, 0.5))
        for u in (0.5, 3.0, 8.0):
            rhs = (f.value(u) * phi.d2(u) - 2.0 * phi.d1(u) * f.d1(u)) / phi.value(u)
            assert f.d2(u) == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("phi", [
        sqrt_one_plus_u(),
        RadialFunction(
            value=lambda u: 1.0 + 0.1 * np.asarray(u, dtype=float) + 0.02 * np.asarray(u) ** 2,
            d1=lambda u: 0.1 + 0.04 * np.asarray(u, dtype=float),
            d2=lambda u: np.full(np.shape(u), 0.04),
            domain=(-1.0, 20.0),
        ),
    ], ids=["sqrt", "quadratic"])
    def test_derivatives_match_finite_differences(self, phi):
        # d1 is the carried f' and d2 the ODE right-hand side, not derivatives
        # of the dense output; the routes differ by its interpolation error,
        # about 1e-7 at the default rel_tol = 1e-8.  At rel_tol = 1e-13 that
        # error is a few times the stencil's round-off, which the Richardson
        # pair makes about 3.3 eps |f| / h; the bound allows 30 times that.
        f = solve_lapse(phi, 3, (0.0, 10.0), (1.0, 0.2), rel_tol=1e-13, abs_tol=1e-15)
        u = chebyshev_grid(0.01, 9.99, 200)
        h = np.maximum(1e-5, 1e-5 * np.abs(u))  # fd_derivative's first-order step
        for fn, deriv in ((f.value, f.d1), (f.d1, f.d2)):
            tol = 100.0 * np.finfo(float).eps * np.max(np.abs(fn(u))) / h
            err = np.abs(fd_derivative(fn, u) - deriv(u))
            assert np.all(err <= tol), np.max(err / tol)

    def test_sign_loss_truncates(self):
        one = RadialFunction.constant(1.0, (-math.inf, math.inf))
        f = solve_lapse(one, 3, (0.0, 2.0), (1.0, -1.0))
        assert f.domain[1] == pytest.approx(1.0, abs=1e-6)
        assert f.domain[1] < 1.0
        assert f.value(0.5) == pytest.approx(0.5, abs=1e-9)

    def test_immediate_crossing_cannot_truncate(self):
        one = RadialFunction.constant(1.0, (-math.inf, math.inf))
        with pytest.raises(SignLoss):
            solve_lapse(one, 3, (0.0, 2.0), (0.0, -1.0))

    def test_bad_arguments(self):
        one = RadialFunction.constant(1.0, (-math.inf, math.inf))
        with pytest.raises(BadParams):
            solve_lapse(one, 2, (0.0, 1.0), (1.0, 0.0))
        with pytest.raises(BadParams):
            solve_lapse(one, 3, (1.0, 1.0), (1.0, 0.0))

    def test_nonpositive_factor_rejected(self):
        dying = RadialFunction(
            value=lambda u: 1.0 - np.asarray(u, dtype=float),
            d1=lambda u: -np.ones_like(np.asarray(u, dtype=float)),
            d2=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
            provenance="analytic",
            domain=(-math.inf, math.inf),
        )
        with pytest.raises(DomainError):
            solve_lapse(dying, 3, (0.0, 2.0), (1.0, 0.0))

    @pytest.mark.parametrize("which", ["value", "d1", "d2"])
    def test_a_non_finite_factor_is_a_domain_error_where_it_turns(self, which, capfd):
        """phi, phi' or phi'' NaN past u = 3: the right-hand side refuses the
        first such u, rather than letting NaN stages shrink the step until it
        collapses, and numpy never meets the NaN (no warning, no stderr)."""
        parts = {
            "value": lambda u: 1.0 + 0.1 * u * u,
            "d1": lambda u: 0.2 * u,
            "d2": lambda u: 0.2 + 0.0 * u,
        }

        def turning(fn):
            return lambda u: np.where(np.asarray(u) > 3.0, np.nan, fn(np.asarray(u, dtype=float)))

        phi = RadialFunction(**{k: turning(fn) if k == which else fn for k, fn in parts.items()})
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=r"not finite at u=3\.\d+"):
                solve_lapse(phi, 3, (0.0, 10.0), (1.0, 0.2))
        assert seen == []
        assert capfd.readouterr().err == ""


class TestDensityPressure:
    """Frozen fluid samples for the standard sine-branch model, n = 3."""

    @pytest.mark.parametrize(
        "u,f,mu8pi,rho8pi",
        [
            (0.5, 0.20134667064605301, 13.0 / 3.0, 4.8197913524635796),
            (3.0, 0.63896127631363480, 2.25, -0.64805514834799596),
            (10.0, 0.93165723782410899, 16.0 / 11.0, -1.0200015466275558),
        ],
    )
    def test_frozen_samples(self, conformal_witten, u, f, mu8pi, rho8pi):
        # read off the piece: u = 10 is the domain's end, outside the
        # model's windows and its open domain
        piece = conformal_witten.pieces[0]
        assert conformal_witten.f(u) == pytest.approx(f, rel=1e-12)
        assert EIGHT_PI * piece.mu_phys(u) == pytest.approx(mu8pi, rel=1e-12)
        assert EIGHT_PI * piece.rho_phys(u) == pytest.approx(rho8pi, rel=1e-12)

    def test_routes_agree(self, conformal_witten):
        m = conformal_witten
        grid = chebyshev_grid(0.05, 9.95, 128)
        via_trace = m.rho(grid)
        via_closed = pressure_closed_form(
            m.phi, m.f, m.invariant, m.lam, m.n, grid
        )
        assert np.max(np.abs(via_trace - via_closed)) <= 1e-12

    def test_cosmological_split(self, conformal_witten):
        lam = 0.2
        m0, m1 = (build_model("witten", n=3, lam=v) for v in (0.0, lam))
        mu0, rho0 = m0.mu(3.0), m0.rho(3.0)
        mu1, rho1 = m1.mu(3.0), m1.rho(3.0)
        assert mu1 == pytest.approx(mu0 - lam / EIGHT_PI, rel=1e-14)
        assert rho1 == pytest.approx(rho0 + lam / EIGHT_PI, rel=1e-14)

    def test_vanishing_lapse_rejected(self, conformal_witten):
        # f(0) = 0: the piece's fluid refuses u = 0, which the model's
        # windows and open domain leave out
        with pytest.raises(DomainError, match="lapse vanishes"):
            conformal_witten.pieces[0].mu_phys(0.0)
        with pytest.raises(BadParams, match="r=0.0 outside every piece of conformal"):
            conformal_witten.mu(0.0)


CHECK_CASES = ["witten-3", "witten-4", "witten-5", "witten-6", "unit", "custom", "truncated",
               "plane"]


def _case_model(case: str):
    """The build behind one of ``CHECK_CASES``."""
    if case.startswith("witten"):
        return build_model("witten", n=int(case[-1]), span=(0.0, 6.0))
    if case == "unit":
        return build_model("unit", n=3, ic=(1.0, 0.2), span=(0.0, 5.0))
    if case == "custom":
        return build_model(sqrt_one_plus_u(), n=3, ic=(0.9, 0.2), span=(0.0, 8.0))
    if case == "truncated":
        one = RadialFunction.constant(1.0, (-math.inf, math.inf))
        m = build_model(one, n=3, ic=(1.0, -1.0), span=(0.0, 2.0))
        assert m.truncated
        return m
    inv = BasicInvariant(0.0, (1.0, 0.5, -0.5), (0.0, 0.0, 0.0))
    return build_model("witten", n=3, invariant=inv, span=(0.0, 5.0))


def _check_rays(m):
    """(grid values, on-axis points, off-axis points) of a build's field checks,
    rebuilt here from the domain, the padding and the off-axis seed."""
    inv, n = m.invariant, m.n
    lo, hi = m.domain
    pad = max(1e-6 * (hi - lo), 1e-9)
    sparse = chebyshev_grid(lo + pad, hi - pad, 64)[::4]
    draw = np.random.default_rng(conformal._OFF_AXIS_SEED).standard_normal(n)
    if inv.tau > 0.0:
        return sparse, inv.point_at(sparse), inv.point_at(sparse, direction=draw)
    a = np.asarray(inv.alpha)
    draw -= (draw @ a) / (a @ a) * a
    return sparse, inv.point_at(sparse), inv.point_at(sparse) + draw


def _assert_public_routes_match(ansatz, f: RadialFunction, x):
    """The public conformal_curvature, conformal_hessian and (n = 3)
    shape_operator give the bytes of the kernels reading one ConformalBatch
    of ``x``."""
    batch = ConformalBatch(ansatz, x, f)
    kernels = {
        "curvature": geometry._conformal_ricci(batch.phi.v, batch.phi.grad, batch.phi.hess),
        "hessian": (geometry._g_hessian(batch.phi.v, batch.phi.grad, batch.f.grad,
                                        batch.f.hess),),
    }
    public = {
        "curvature": conformal_curvature(ansatz, x),
        "hessian": (conformal_hessian(ansatz, f, x),),
    }
    if ansatz.n == 3:
        a11, a22, a12, _ = quasilocal._shape(x, batch.phi, batch.f.grad, batch.f.hess)
        kernels["shape"] = (np.stack([np.stack([a11, a12], axis=-1),
                                      np.stack([a12, a22], axis=-1)], axis=-2), a11 + a22)
        public["shape"] = quasilocal.shape_operator(ansatz, f, x)
    for name, arrays in kernels.items():
        for got, want in zip(public[name], arrays, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _residuals_as_written(ansatz, fluid, grid, tol):
    """spf_residuals on a ConformalFlat chart written out from its kernels:
    one ConformalBatch on the reference ray, mu and then rho called on the
    grid values, and the four residuals of the static perfect-fluid system."""
    n = ansatz.n
    batch = ConformalBatch(ansatz, ansatz.invariant.point_at(grid), fluid.f)
    p, fval = batch.phi.v, batch.f.v
    mu = np.asarray(fluid.mu(grid), dtype=float)
    rho = np.asarray(fluid.rho(grid), dtype=float)
    ric, r_scal = geometry._conformal_ricci(p, batch.phi.grad, batch.phi.hess)
    hess = geometry._g_hessian(p, batch.phi.grad, batch.f.grad, batch.f.hess)
    metric = np.eye(n) / (p * p)[:, None, None]
    lap = (p * p) * np.trace(hess, axis1=-2, axis2=-1)
    fc = fval[:, None, None]
    residuals = {
        "field[ij]": fc * ric - hess - ((mu - rho) / (n - 1))[:, None, None] * fc * metric,
        "trace": lap - ((n - 2) * mu + n * rho) / (n - 1) * fval,
        "scalar-curvature": mu - 0.5 * r_scal,
        "traceless": fc * (ric - (r_scal / n)[:, None, None] * metric)
        - (hess - (lap / n)[:, None, None] * metric),
    }
    return _report([_entry(eq, vals, grid) for eq, vals in residuals.items()], grid, tol)


class TestConformalResiduals:
    @pytest.mark.parametrize("case", CHECK_CASES)
    @pytest.mark.parametrize("which", ["model", "piece"])
    def test_residuals_are_the_kernels_residuals_byte_for_byte(self, case, which):
        # the geometric fluid as the checks form it, and the piece's
        # physical pair bridged back: the report's bytes as the kernels give them
        m = _case_model(case)
        piece = m.pieces[0]
        fluid = _geo_fluid(m) if which == "model" else piece.fluid
        grid = chebyshev_grid(*piece.interval, 24)
        got = spf_residuals(piece.ansatz, fluid, grid, tol=1e-7)
        want = _residuals_as_written(piece.ansatz, fluid, grid, tol=1e-7)
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
        assert got.passed

    @pytest.mark.parametrize("bad", ["phi", "f"])
    def test_a_batch_that_fails_its_checks_reads_no_fluid(self, conformal_witten, bad):
        # phi > 0 and then f > 0 on the batch, before mu or rho is read
        piece = conformal_witten.pieces[0]
        grid = chebyshev_grid(*piece.interval, 8)
        negative = RadialFunction.constant(-1.0)
        ansatz = ConformalFlat(negative, piece.ansatz.invariant) if bad == "phi" else piece.ansatz

        def unread(u):
            raise AssertionError("fluid read before the batch's checks")

        fluid = FluidData(f=negative, mu=unread, rho=unread)
        what = "conformal factor" if bad == "phi" else "lapse"
        with pytest.raises(DomainError,
                           match=re.escape(f"{what} non-positive at grid value {float(grid[0])}")):
            spf_residuals(ansatz, fluid, grid)

    def test_mu_is_read_before_rho_once_each(self, conformal_witten):
        m = conformal_witten
        grid = chebyshev_grid(*m.pieces[0].interval, 8)
        calls = []
        geo = m.pieces[0].fluid
        fluid = FluidData(f=m.f, mu=lambda u: calls.append(("mu", u)) or geo.mu(u),
                          rho=lambda u: calls.append(("rho", u)) or geo.rho(u))
        spf_residuals(m.pieces[0].ansatz, fluid, grid)
        assert [who for who, _ in calls] == ["mu", "rho"]
        assert all(u is grid for _, u in calls)


class TestConformalBatch:
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("kind", ["off-centre", "plane"])
    def test_lift_matches_finite_differences(self, kind, n):
        # phi(u(x)) and f(u(x)) against stencils of x -> rf(u(x)), with u
        # written out here: an off-centre tau > 0 invariant and a plane one
        # (tau = 0, alpha != 0), both preset profiles closed forms
        rng = np.random.default_rng(n)
        alpha, beta = rng.uniform(-0.6, 0.6, n), rng.uniform(0.0, 0.3, n)
        tau = 1.0 if kind == "off-centre" else 0.0
        inv = BasicInvariant(tau, tuple(alpha), tuple(beta))
        u0 = max(0.0, -inv.C / 4.0) + 0.05 if tau else 0.0
        m = build_model("witten", n=n, invariant=inv, span=(u0, u0 + 6.0))
        u = rng.uniform(u0 + 0.5, u0 + 5.5, 4)
        if tau:
            dirs = rng.standard_normal((4, n))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            x = inv.center + inv.sphere_radius(u)[:, None] * dirs
        else:
            shift = rng.standard_normal((4, n))
            shift -= (shift @ alpha)[:, None] / (alpha @ alpha) * alpha
            x = inv.point_at(u) + shift

        def u_of(y):
            return np.sum(tau * y * y + alpha * y + beta, axis=-1)

        batch = ConformalBatch(m.pieces[0].ansatz, x, m.f)
        e = np.eye(n)
        for rf, lifted in ((m.phi, batch.phi), (m.f, batch.f)):
            for k, xk in enumerate(x):
                def along(v, order, xk=xk, rf=rf):
                    return fd_derivative(lambda t: rf.value(u_of(xk + t * v)), 0.0, order=order)

                grad = np.array([along(e[i], 1) for i in range(n)])
                hess = np.array([[along(e[i], 2) if i == j else
                                  0.25 * (along(e[i] + e[j], 2) - along(e[i] - e[j], 2))
                                  for j in range(n)] for i in range(n)])
                assert lifted.v[k] == pytest.approx(rf.value(u_of(xk)), rel=1e-14)
                np.testing.assert_allclose(lifted.grad[k], grad, rtol=0, atol=1e-9)
                # second differences at h = 5e-4 lose up to ~2e-8 to round-off
                np.testing.assert_allclose(lifted.hess[k], hess, rtol=0, atol=2e-7)

    @pytest.mark.parametrize("n", [3, 5])
    def test_public_routes_match_at_one_point_and_in_a_batch(self, n):
        m = build_model("witten", n=n)
        ansatz, inv = m.pieces[0].ansatz, m.invariant
        dirs = np.random.default_rng(n).standard_normal((5, n))
        x = np.concatenate([inv.point_at(np.linspace(0.5, 4.0, 5), direction=dirs[0]),
                            inv.center + dirs])
        _assert_public_routes_match(ansatz, m.f, x)
        for xk in x:
            assert xk.shape == (n,)
            _assert_public_routes_match(ansatz, m.f, xk)

    @pytest.mark.parametrize("case", CHECK_CASES)
    def test_public_routes_match_on_the_check_rays(self, case):
        m = _case_model(case)
        _, on_points, off_points = _check_rays(m)
        _assert_public_routes_match(m.pieces[0].ansatz, m.f,
                                    np.concatenate([on_points, off_points]))

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.7])
    def test_public_routes_match_on_the_audit_nodes(self, c):
        m = build_model("witten", n=3)
        ansatz, inv = m.pieces[0].ansatz, m.invariant
        (rep,) = quasilocal.level_set_data(m, c)
        x = inv.center + float(inv.sphere_radius(rep.r)) * sphere_rule(quasilocal.AUDIT_DEGREE)[0]
        assert x.shape == (648, 3)
        _assert_public_routes_match(ansatz, m.f, x)
        # the audit's three figures, each read through the public routes
        A, traces = quasilocal.shape_operator(ansatz, m.f, x)
        batch = ConformalBatch(ansatz, x, m.f)
        gnorms = batch.phi.v * np.linalg.norm(batch.f.grad, axis=-1)
        b = geometry.coordinate_sphere(ansatz, rep.r)[0]
        expect = (float(np.max(np.hypot(A[:, 0, 0] - A[:, 1, 1], 2.0 * A[:, 0, 1]))),
                  float(np.std(gnorms) / np.mean(gnorms)),
                  quasilocal.willmore_energy(traces, b))
        assert quasilocal._sphere_audit(ansatz, m.f, rep.r, b) == expect


class TestBuildModel:
    @pytest.mark.parametrize("phi", ["witten", "custom"])
    def test_one_profile_jet_per_point_set(self, monkeypatch, phi):
        # a build reads each profile (value, d1, d2) once on each of its two
        # point sets, whatever reads them: the 64-point ODE grid (the
        # lapse-ODE residual, and the rays' fluid at its rows) and u on the
        # stacked rays (the curvature, the lapse Hessian and the closure)
        log = []
        if phi == "witten":  # both preset profiles are closed forms
            real = RadialFunction.from_formula
            names = iter(("phi", "f"))
            monkeypatch.setattr(RadialFunction, "from_formula", classmethod(
                lambda cls, fn, domain: _logged(real(fn, domain), next(names), log)))
        else:  # the lapse's own d2 reads phi unlogged: only the build's reads count
            raw = RadialFunction.from_formula(lambda u: 1.0 + 0.1 * u, (-1.0, math.inf))
            real = conformal.solve_lapse
            monkeypatch.setattr(conformal, "solve_lapse", lambda _, *args: _logged(
                real(raw, *args), "f", log))
            phi = _logged(raw, "phi", log)
        m = build_model(phi, span=(0.0, 4.0))
        assert m.passed
        grid = chebyshev_grid(*m.pieces[0].interval, 64)
        point_sets = {grid.tobytes(), m.checks["closure"].grid.tobytes()}
        assert len(point_sets) == 2
        for name in ("phi", "f"):
            for kind in ("value", "d1", "d2"):
                reads = [u for who, what, u in log if (who, what) == (name, kind)]
                assert len(reads) == 2 and set(reads) == point_sets, (name, kind)
        # after the build, mu and rho each read phi and f once at their points
        u = np.linspace(0.5, 3.5, 7)
        mu, rho = geometry.to_physical(*conformal._geo_pair(
            m.invariant, m.n, u, ProfileAt(m.phi, u), ProfileAt(m.f, u)), m.lam)
        for accessor, want in ((m.mu, mu), (m.rho, rho)):
            del log[:]
            np.testing.assert_array_equal(accessor(u), want)
            assert sorted(what for _, what, _ in log) == ["d1", "d1", "d2", "d2", "value",
                                                          "value"]

    def test_one_batch_per_build(self, monkeypatch):
        # the on-axis, off-axis and closure checks read one batch: u on the
        # stacked rays once, and one curvature and one lapse Hessian from it;
        # the fluid's algebra runs on the ODE grid's readings at the rays'
        # grid values and, for the closure, on the batch's own readings
        counts = {"value": 0, "_conformal_ricci": 0, "_g_hessian": 0, "_geo_pair": 0,
                  "conformal_curvature": 0, "conformal_hessian": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(BasicInvariant, "value")
        for name in ("_conformal_ricci", "_g_hessian", "conformal_curvature",
                     "conformal_hessian"):
            counted(geometry, name)
        counted(conformal, "_geo_pair")
        assert build_model("witten", n=3).passed
        assert counts == {"value": 1, "_conformal_ricci": 1, "_g_hessian": 1, "_geo_pair": 2,
                          "conformal_curvature": 0, "conformal_hessian": 0}

    @pytest.mark.parametrize("case", ["witten-3", "witten-4", "witten-5", "witten-12", "unit",
                                      "custom", "plane"])
    def test_rays_fluid_has_the_bits_of_a_reading_on_the_rays(self, monkeypatch, case):
        # the rays' (mu_geo, rho_geo) come from the 64-point grid's readings,
        # at the rays' rows; they equal _geo_pair on fresh readings at the rays
        seen = []
        real = conformal._spf_arrays_conformal

        def spy(ansatz, f, x, grid, fluid):
            seen.append((grid, fluid()))
            return real(ansatz, f, x, grid, fluid)

        monkeypatch.setattr(conformal, "_spf_arrays_conformal", spy)
        m = build_model("witten", n=12) if case == "witten-12" else _case_model(case)
        assert m.passed and m.truncated == (case == "witten-12")
        ((rays, (mu, rho)),) = seen
        sparse = _check_rays(m)[0]
        np.testing.assert_array_equal(rays, np.concatenate([sparse, sparse]))
        want_mu, want_rho = conformal._geo_pair(m.invariant, m.n, rays, ProfileAt(m.phi, rays),
                                                ProfileAt(m.f, rays))
        assert mu.shape == rho.shape == rays.shape
        assert np.array_equal(mu, want_mu) and np.array_equal(rho, want_rho)

    def test_a_build_that_fails_the_batch_checks_forms_no_fluid(self, monkeypatch):
        # f = -1 + u/2 is negative on the rays' first grid values: the batch's
        # f > 0 check raises before the rays' fluid is formed
        calls = []
        real = conformal._geo_pair
        monkeypatch.setattr(conformal, "_geo_pair", lambda *args: calls.append(args) or real(*args))
        with pytest.raises(DomainError, match=r"^lapse non-positive at grid value 9\.99"):
            build_model("unit", n=3, ic=(-1.0, 0.5))
        assert calls == []

    @pytest.mark.parametrize("hi", [1e-12, 1e-9, 2e-9])
    @pytest.mark.parametrize("phi", ["witten", "unit", "custom"])
    def test_a_span_too_short_for_the_checks_is_bad_params(self, phi, hi):
        # the checks sample the span less max(1e-6 span, 1e-9) at each end
        if phi == "custom":
            phi = sqrt_one_plus_u()
        with pytest.raises(BadParams, match=re.escape(f"span (0.0, {hi!r}) is too short")):
            build_model(phi, n=3, span=(0.0, hi))

    @pytest.mark.parametrize("phi, ic, where", [
        ("unit", (3e-9, -1.0), "at u=3e-09"),
        ("unit", (2e-9, -1.0), "at u=2e-09"),
        ("witten", (2.5e-9, -1.0), "at u=2.4999"),  # the closed-form zero, to 7 digits
        ("custom", (3e-9, -1.0), "just past u="),
    ])
    def test_a_lapse_cut_that_leaves_the_checks_no_window_is_a_sign_loss(self, phi, ic, where):
        if phi == "custom":
            phi = RadialFunction.constant(1.0, (-math.inf, math.inf))
        with pytest.raises(SignLoss, match=re.escape(f"lapse crosses zero {where}")):
            build_model(phi, n=3, ic=ic)

    @pytest.mark.parametrize("kw", [
        {"span": (0.0, 2.5e-9)},
        {"ic": (3.5e-9, -1.0)},
    ], ids=["short-span", "early-cut"])
    @pytest.mark.parametrize("phi", ["witten", "unit"])
    def test_a_domain_just_longer_than_the_padding_builds(self, phi, kw):
        # both presets' lapses with ic (3.5e-9, -1) cross zero near u = 3.5e-9
        m = build_model(phi, n=3, **kw)
        lo, hi = m.pieces[0].interval
        assert lo < hi and set(m.checks) == {"lapse-ode", "field[on-axis]", "field[off-axis]",
                                               "closure"}

    @pytest.mark.parametrize("case", CHECK_CASES)
    def test_fused_checks_match_per_ray_reference(self, case):
        # each check byte for byte as three separate evaluations give it:
        # spf_residuals on each ray, and the closure against its own
        # curvature call
        m = _case_model(case)
        inv = m.invariant
        sparse, on_points, off_points = _check_rays(m)
        ansatz = m.pieces[0].ansatz
        fluid = _geo_fluid(m)
        points = np.concatenate([on_points, off_points])
        us = inv.value(points)
        _, r_scal = conformal_curvature(ansatz, points)
        closure = fluid.mu(us) - 0.5 * r_scal
        off_axis = _spf_arrays_conformal(ansatz, m.f, off_points, sparse,
                                         lambda: (fluid.mu(sparse), fluid.rho(sparse)))[0]
        reference = {
            "field[on-axis]": spf_residuals(ansatz, fluid, sparse, tol=1e-7),
            "field[off-axis]": _spf_report_conformal(off_axis, sparse, slice(None), tol=1e-7),
            "closure": _report([_entry("mu-vs-half-R", closure, us)], us, tol=1e-7),
        }
        assert m.passed
        for name, rep in reference.items():
            assert json.dumps(m.checks[name].to_json_dict()) == json.dumps(rep.to_json_dict())
        np.testing.assert_array_equal(m.checks["field[on-axis]"].grid, sparse)

    @pytest.mark.parametrize("case", CHECK_CASES + ["degenerate"])
    def test_checks_are_the_reports_of_verify_at_64(self, case):
        if case == "degenerate":
            flat = BasicInvariant(0.0, (0.0,) * 3, (1.0, 0.0, 0.0))
            m = build_model("unit", n=3, invariant=flat)
        else:
            m = _case_model(case)
        assert isinstance(m, catalog.AnalyticModel)
        result = m.verify(64)
        assert json.dumps({k: rep.to_json_dict() for k, rep in result.reports.items()}) == \
            json.dumps({k: rep.to_json_dict() for k, rep in m.checks.items()})
        assert result.passed == m.passed and result.junction == {}

    def test_verify_reads_its_grid_size(self, conformal_witten):
        reports = conformal_witten.verify(96).reports
        assert len(reports["lapse-ode"].grid) == 96
        assert len(reports["field[on-axis]"].grid) == 16  # every sixth grid value

    def test_a_hand_built_model_runs_its_checks(self, conformal_witten):
        # phi = sqrt(1 + u) with f = 1 + 0.3 u, which does not solve the lapse ODE
        wrong = RadialFunction.from_formula(lambda u: 1.0 + 0.3 * u, (0.0, 10.0))
        m = conformal.ConformalModel(sqrt_one_plus_u(), wrong, conformal_witten.invariant,
                                     0.0, (0.0, 10.0))
        assert set(m.checks) == {"lapse-ode", "field[on-axis]", "field[off-axis]", "closure"}
        assert not m.passed and not m.checks["lapse-ode"].passed
        # a model is no dataclass: no copy carries another model's checks
        with pytest.raises(TypeError):
            dataclasses.replace(conformal_witten, f=wrong)
        # nor does a catalog model of its piece pass with no checks
        bare = catalog.AnalyticModel("bare", {}, m.pieces)
        with pytest.raises(BadParams, match="bare has a conformally flat piece and no hook"):
            bare.verify()

    def test_phi_invariant_and_lam_are_the_pieces(self):
        # read through the one piece, as f is: none can be set beside it
        m = build_model("unit", n=3, lam=0.2)
        piece = m.pieces[0]
        assert m.phi is piece.ansatz.phi_radial and m.invariant is piece.ansatz.invariant
        assert m.lam == piece.lam == 0.2 and m.f is piece.f
        sphere = BasicInvariant(1.0, (0.0,) * 3, (0.0,) * 3)
        for name, other in (("phi", sqrt_one_plus_u()), ("invariant", sphere), ("lam", 0.0),
                            ("f", piece.f)):
            with pytest.raises(AttributeError):
                setattr(m, name, other)
        assert m.lam == 0.2 and m.phi is piece.ansatz.phi_radial

    def test_a_scan_reads_phi_once_on_its_grid(self, monkeypatch):
        # scan_model forms the fluid pair once: phi's value, d1 and d2 are
        # each read once, on the scan's grid (the lapse reads phi unlogged)
        log = []
        raw = RadialFunction.from_formula(lambda u: 1.0 + 0.1 * u, (-1.0, math.inf))
        real = conformal.solve_lapse
        monkeypatch.setattr(conformal, "solve_lapse", lambda _, *args: real(raw, *args))
        m = build_model(_logged(raw, "phi", log), span=(0.0, 4.0))
        del log[:]
        scan = energy.scan_model(m, n=64)
        assert sorted(what for _, what, _ in log) == ["d1", "d2", "value"]
        assert {u for _, _, u in log} == {scan.grid.tobytes()}
        np.testing.assert_array_equal(scan.mu, m.mu(scan.grid))
        np.testing.assert_array_equal(scan.rho, m.rho(scan.grid))

    def test_domain_is_the_lapse_domain(self):
        # the domain may start on a zero of f; the piece's two windows and,
        # outside them, the open domain are where a model is evaluated
        m = build_model("witten", n=3)
        assert m.domain == (0.0, 10.0) and m.f.value(0.0) == 0.0
        for end in m.domain:
            with pytest.raises(BadParams, match=f"r={end} outside every piece"):
                m.mu(end)
        piece = m.pieces[0]
        for window in (piece.interval, piece.scan_interval):
            u = chebyshev_grid(*window, 64)
            assert np.all(np.isfinite(m.mu(u))) and np.all(np.isfinite(m.rho(u)))

    def test_standard_model(self, conformal_witten):
        m = conformal_witten
        assert m.passed, {k: r.worst for k, r in m.checks.items()}
        assert set(m.checks) == {
            "lapse-ode", "field[on-axis]", "field[off-axis]", "closure",
        }
        assert m.label == "witten" and not m.truncated and not m.degenerate
        assert m.domain == (0.0, 10.0)

    def test_higher_dimension(self):
        m = build_model("witten", n=5, span=(0.0, 6.0))
        assert m.passed, {k: r.worst for k, r in m.checks.items()}

    def test_initial_conditions_honored(self):
        m = build_model("witten", n=3, ic=(0.3, 0.1))
        assert m.f.value(0.0) == pytest.approx(0.3, abs=1e-12)
        assert m.f.d1(0.0) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.1, -0.3])
    @pytest.mark.parametrize("phi", ["witten", "unit", "custom"])
    def test_physical_pair_is_the_bridged_geometric_one(self, phi, lam):
        if phi == "custom":
            m = build_model(sqrt_one_plus_u(), n=3, ic=(0.9, 0.2), span=(0.0, 8.0), lam=lam)
        else:
            m = build_model(phi, n=3, lam=lam, span=(0.0, 5.0))
        u = np.linspace(*m.domain, 35)[1:-1]  # off the witten lapse zero at u = 0
        geo = _geo_fluid(m)
        mu, rho = geometry.to_physical(geo.mu(u), geo.rho(u), lam)
        assert m.mu(u).tobytes() == mu.tobytes() and m.rho(u).tobytes() == rho.tobytes()

    def test_unit_preset_is_vacuum_plus_lambda(self):
        lam = 0.4
        m = build_model("unit", n=3, lam=lam, span=(0.0, 5.0))
        assert m.passed
        assert m.mu(2.0) == pytest.approx(-lam / EIGHT_PI, abs=1e-15)
        assert m.rho(2.0) == pytest.approx(lam / EIGHT_PI, abs=1e-15)

    def test_degenerate_invariant_short_circuits(self):
        inv = BasicInvariant(0.0, (0.0,) * 3, (1.0, 0.0, 0.0))
        m = build_model("unit", n=3, invariant=inv)
        assert m.degenerate and m.checks == {}

    def test_dimension_and_degeneracy_come_from_the_invariant(self):
        flat = BasicInvariant(0.0, (0.0,) * 4, (1.0, 0.0, 0.0, 0.0))
        for m in (build_model("witten", n=5, span=(0.0, 6.0)),
                  build_model("unit", n=4, invariant=flat)):
            assert not {"n", "degenerate"} & set(vars(m))
            assert (m.n, m.degenerate) == (m.invariant.n, m.invariant.degenerate)
            assert m.n == len(m.invariant.alpha)

    def test_custom_factor_goes_through_the_integrator(self):
        m = build_model(sqrt_one_plus_u(), n=3, ic=(0.0, 0.5), span=(0.0, 6.0))
        assert m.label == "custom"
        assert m.passed, {k: r.worst for k, r in m.checks.items()}

    def test_truncation_flagged(self):
        one = RadialFunction.constant(1.0, (-math.inf, math.inf))
        m = build_model(one, n=3, ic=(1.0, -1.0), span=(0.0, 2.0))
        assert m.truncated and m.domain[1] < 2.0
        assert m.passed   # the surviving window is still a solution

    def test_witten_preset_is_cut_where_the_solved_lapse_is(self):
        # f = sin(w log(1 + u)) with w = sqrt(10)/2 turns down through zero at
        # u = expm1(pi / w) = 6.293..., inside the default span (0, 10)
        preset = build_model("witten", n=12)
        solved = build_model(sqrt_one_plus_u(), n=12, ic=(0.0, math.sqrt(10.0) / 2.0))
        for m in (preset, solved):
            assert m.truncated and m.passed, {k: r.worst for k, r in m.checks.items()}
        assert preset.domain[1] == pytest.approx(solved.domain[1], rel=1e-8)
        # the preset's cut is the closed-form zero u_zero less the margin 1e-9 * u_zero
        u_zero = math.expm1(2.0 * math.pi / math.sqrt(10.0))
        assert preset.domain[1] == pytest.approx(u_zero - 1e-9 * u_zero, rel=1e-15)

    def test_unit_preset_is_cut_before_its_zero(self):
        m = build_model("unit", n=3, ic=(1.0, -0.5))
        assert m.truncated and m.passed
        # just before f = 1 - u/2 reaches zero at u = 2, by the margin 1e-9 * (2 - 0)
        assert m.domain[1] == pytest.approx(2.0 - 2e-9, rel=1e-15) and m.domain[1] < 2.0
        assert m.f.domain == m.domain

    @pytest.mark.parametrize("phi", ["witten", "unit"])
    def test_a_preset_starting_on_a_downward_zero_is_a_sign_loss(self, phi):
        with pytest.raises(SignLoss):
            build_model(phi, n=3, ic=(0.0, -0.5))

    @pytest.mark.parametrize("phi", ["witten", "unit", "custom"])
    def test_a_zero_start_with_zero_slope_is_a_sign_loss_on_every_path(self, phi):
        # f(u0) = 0 with f'(u0) = 0 is f == 0, a zero at u0 as solve_lapse's event reads it
        if phi == "custom":
            phi = RadialFunction.constant(1.0, (-math.inf, math.inf))
        with pytest.raises(SignLoss, match="immediately at u=0.0"):
            build_model(phi, n=3, ic=(0.0, 0.0))

    def test_degenerate_invariant_refuses_an_unknown_preset(self):
        flat = BasicInvariant(0.0, (0.0,) * 3, (0.0,) * 3)
        with pytest.raises(BadParams, match="unknown phi preset 'spiral'"):
            build_model("spiral", n=3, invariant=flat)

    @pytest.mark.parametrize("ic", [(0.0, 0.0), (0.0, 0.5)])
    def test_degenerate_invariant_refuses_a_zero_lapse(self, ic):
        # the lapse is the constant f(u0) whatever f'(u0) says
        flat = BasicInvariant(0.0, (0.0,) * 3, (0.0,) * 3)
        with pytest.raises(SignLoss):
            build_model("unit", n=3, invariant=flat, ic=ic)

    def test_degenerate_invariant_refuses_a_negative_lapse(self):
        flat = BasicInvariant(0.0, (0.0,) * 3, (0.0,) * 3)
        with pytest.raises(DomainError, match="lapse non-positive"):
            build_model("unit", n=3, invariant=flat, ic=(-1.0, 0.0))

    @pytest.mark.parametrize("slope", [5.0, -0.5, 1e-300])
    def test_degenerate_invariant_refuses_a_slope(self, slope):
        # on a constant u the lapse is the constant f(u0): no slope can be met
        flat = BasicInvariant(0.0, (0.0,) * 3, (0.0,) * 3)
        with pytest.raises(BadParams, match="lapse is constant"):
            build_model("unit", n=3, invariant=flat, ic=(1.0, slope))
        m = build_model("unit", n=3, invariant=flat, ic=(1.0, 0.0))
        assert m.degenerate and m.passed and m.f(0.5) == 1.0

    def test_witten_default_start_is_an_upward_zero(self):
        # f(0) = 0 with f'(0) > 0 is not a cut: the first downward zero of
        # sin(log(1 + u) / 2) is at u = expm1(2 pi), far past the span
        m = build_model("witten", n=3, span=(0.0, 12.0))
        assert not m.truncated and m.domain == (0.0, 12.0)

    def test_dimension_above_the_cap_is_refused(self):
        with pytest.raises(BadParams, match=f"n <= {conformal.N_MAX}"):
            build_model("unit", n=conformal.N_MAX + 1)

    def test_guards(self):
        with pytest.raises(BadParams):
            build_model("witten", n=2)
        with pytest.raises(BadParams):
            build_model("spiral", n=3)
        with pytest.raises(BadParams):
            build_model("witten", n=3, invariant=BasicInvariant(1.0, (0.0,) * 2, (0.0,) * 2))

    def test_span_below_the_invariants_range(self):
        # |x|^2 >= 0: no level set below u = 0, where witten's phi is still defined
        with pytest.raises(BadParams, match="below the invariant's range"):
            build_model("witten", n=3, span=(-0.5, 5.0))
        # C = 0.61, so the level spheres are empty below u = -C/(4 tau) = -0.1525
        shifted = BasicInvariant(1.0, (0.4, -0.2, 0.1), (0.0, 0.0, -0.1))
        with pytest.raises(BadParams):
            build_model("witten", n=3, invariant=shifted, span=(-0.2, 5.0))
        assert build_model("unit", n=3, invariant=shifted, span=(-0.15, 5.0)).domain[0] == -0.15
        # C = 16 admits u >= -4, but witten's phi = sqrt(1 + u) needs u > -1
        wide = BasicInvariant(1.0, (4.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="non-positive at u=-3.0"):
            build_model("witten", n=3, invariant=wide, span=(-3.0, 1.0))
        # a degenerate invariant has no range to leave
        flat = BasicInvariant(0.0, (0.0,) * 3, (0.0,) * 3)
        assert build_model("unit", n=3, invariant=flat, span=(-0.5, 5.0)).domain == (-0.5, 5.0)
