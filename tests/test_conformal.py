"""Conformally flat models: the quadric invariant, lapse ODE, dual routes."""

import dataclasses
import json
import math

import numpy as np
import pytest

from staticstar.errors import BadParams, DomainError, SignLoss
from staticstar import geometry
from staticstar.geometry import EIGHT_PI, _entry, _report, conformal_curvature, spf_residuals
from staticstar.numerics import Jet, RadialFunction, chebyshev_grid
from staticstar import catalog, conformal
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
    :meth:`ConformalModel.rho`; the two must agree on solutions of the lapse
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


class TestBasicInvariant:
    def test_round_sphere_case(self):
        inv = BasicInvariant(1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        x = np.array([1.0, 1.0, 1.0])
        assert inv.value(x) == pytest.approx(3.0)
        assert inv.C == 0.0
        g = inv.as_field().gradient(x)
        assert float(g @ g) == pytest.approx(4.0 * inv.tau * 3.0 + inv.C)
        assert np.trace(inv.as_field().hessian(x)) == pytest.approx(6.0)

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

    def test_construction_guards(self):
        with pytest.raises(BadParams):
            BasicInvariant(1.0, (1.0, 0.0), (0.0,))
        with pytest.raises(BadParams):
            BasicInvariant(1.0, (), ())


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
        m = conformal_witten
        assert m.f(u) == pytest.approx(f, rel=1e-12)
        assert EIGHT_PI * m.mu(u) == pytest.approx(mu8pi, rel=1e-12)
        assert EIGHT_PI * m.rho(u) == pytest.approx(rho8pi, rel=1e-12)

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
        m0, m1 = (dataclasses.replace(conformal_witten, lam=v) for v in (0.0, lam))
        mu0, rho0 = m0.mu(3.0), m0.rho(3.0)
        mu1, rho1 = m1.mu(3.0), m1.rho(3.0)
        assert mu1 == pytest.approx(mu0 - lam / EIGHT_PI, rel=1e-14)
        assert rho1 == pytest.approx(rho0 + lam / EIGHT_PI, rel=1e-14)

    def test_vanishing_lapse_rejected(self, conformal_witten):
        with pytest.raises(DomainError):
            conformal_witten.mu(0.0)


class TestBuildModel:
    @pytest.mark.parametrize("phi", ["witten", "custom"])
    def test_one_geo_pair_per_point_set(self, monkeypatch, phi):
        # the on- and off-axis residuals share their grid; the closure check
        # has its own points: two evaluations per build, whatever reads them
        calls = []
        real = conformal._geo_pair

        def counted(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(conformal, "_geo_pair", counted)
        if phi == "custom":
            phi = RadialFunction.from_formula(lambda u: 1.0 + 0.1 * u, (-1.0, math.inf))
        m = build_model(phi, span=(0.0, 4.0))
        assert m.passed
        assert len(calls) == 2
        u = np.linspace(0.5, 3.5, 7)
        mu, rho = geometry.to_physical(*conformal._geo_pair(m.phi, m.f, m.invariant, m.n, u),
                                       m.lam)
        del calls[:]
        np.testing.assert_array_equal(m.mu(u), mu)
        np.testing.assert_array_equal(m.rho(u), rho)
        m.mu_geo(u), m.rho_geo(u)
        assert len(calls) == 1

    def test_one_curvature_pass_per_build(self, monkeypatch):
        # the on-axis, off-axis and closure checks read one batched evaluation
        counts = {"conformal_curvature": 0, "conformal_hessian": 0, "_geo_pair": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(geometry, "conformal_curvature")
        counted(geometry, "conformal_hessian")
        counted(conformal, "_geo_pair")
        assert build_model("witten", n=3).passed
        assert counts == {"conformal_curvature": 1, "conformal_hessian": 1, "_geo_pair": 2}

    @pytest.mark.parametrize("case", [
        "witten-3", "witten-4", "witten-5", "witten-6", "unit", "custom", "truncated", "plane",
    ])
    def test_fused_checks_match_per_ray_reference(self, case):
        # each check byte for byte as three separate evaluations give it:
        # spf_residuals on each ray, and the closure against its own
        # curvature call
        if case.startswith("witten"):
            m = build_model("witten", n=int(case[-1]), span=(0.0, 6.0))
        elif case == "unit":
            m = build_model("unit", n=3, ic=(1.0, 0.2), span=(0.0, 5.0))
        elif case == "custom":
            m = build_model(sqrt_one_plus_u(), n=3, ic=(0.9, 0.2), span=(0.0, 8.0))
        elif case == "truncated":
            one = RadialFunction.constant(1.0, (-math.inf, math.inf))
            m = build_model(one, n=3, ic=(1.0, -1.0), span=(0.0, 2.0))
            assert m.truncated
        else:
            inv = BasicInvariant(0.0, (1.0, 0.5, -0.5), (0.0, 0.0, 0.0))
            m = build_model("witten", n=3, invariant=inv, span=(0.0, 5.0))
        inv, n = m.invariant, m.n
        lo, hi = m.domain
        pad = max(1e-6 * (hi - lo), 1e-9)
        sparse = chebyshev_grid(lo + pad, hi - pad, 64)[::4]
        draw = np.random.default_rng(conformal._OFF_AXIS_SEED).standard_normal(n)
        if inv.tau > 0.0:
            off_ray = lambda u: inv.point_at(u, direction=draw)  # noqa: E731
        else:
            a = np.asarray(inv.alpha)
            draw -= (draw @ a) / (a @ a) * a
            off_ray = lambda u: inv.point_at(u) + draw  # noqa: E731
        ansatz = m.to_ansatz()
        fluid = m.fluid()
        points = np.concatenate([ansatz.point_of(sparse), off_ray(sparse)])
        us = inv.value(points)
        _, r_scal = conformal_curvature(ansatz.phi, points)
        closure = np.asarray(m.mu_geo(us), dtype=float) - 0.5 * r_scal
        reference = {
            "field[on-axis]": spf_residuals(ansatz, fluid, sparse, tol=1e-7),
            "field[off-axis]": spf_residuals(
                dataclasses.replace(ansatz, point_of=off_ray), fluid, sparse, tol=1e-7),
            "closure": _report([_entry("mu-vs-half-R", closure, us)], us, tol=1e-7),
        }
        assert m.passed
        for name, rep in reference.items():
            assert json.dumps(m.checks[name].to_json_dict()) == json.dumps(rep.to_json_dict())
        np.testing.assert_array_equal(m.checks["field[on-axis]"].grid, sparse)

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
        mu, rho = geometry.to_physical(m.mu_geo(u), m.rho_geo(u), lam)
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
        field_names = {f.name for f in dataclasses.fields(conformal.ConformalModel)}
        assert not {"n", "degenerate"} & field_names
        flat = BasicInvariant(0.0, (0.0,) * 4, (1.0, 0.0, 0.0, 0.0))
        for m in (build_model("witten", n=5, span=(0.0, 6.0)),
                  build_model("unit", n=4, invariant=flat)):
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
        # the preset's cut is the closed-form zero less solve_lapse's margin 1e-9 * span
        assert preset.domain[1] == pytest.approx(
            math.expm1(2.0 * math.pi / math.sqrt(10.0)) - 1e-8, rel=1e-15)

    def test_unit_preset_is_cut_before_its_zero(self):
        m = build_model("unit", n=3, ic=(1.0, -0.5))
        assert m.truncated and m.passed
        # just before f = 1 - u/2 reaches zero at u = 2, by the margin 1e-9 * span
        assert m.domain[1] == pytest.approx(2.0 - 1e-8, rel=1e-15) and m.domain[1] < 2.0
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
