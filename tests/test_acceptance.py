"""Release gate: twelve closed-form and property checks, one test per item.

Every test here pins a quantity with a known exact value (or an exact
implication) at the tolerance the package promises.  These are deliberately
flat functions — ``pytest -v`` prints one PASS/FAIL line per line item, and
nothing in this file is parametrized so that the line count stays twelve.

Tolerances are asserted literally even where the implementation does far
better; the point is the contract, not the headroom.
"""

import math
import time

import numpy as np

from staticstar import catalog, conformal, energy, quasilocal, tov
from staticstar.geometry import conformal_curvature
from staticstar.numerics import RadialFunction, chebyshev_grid

from fd import fd_derivative

FOUR_PI = 4.0 * math.pi


def _sqrt_one_plus_u() -> RadialFunction:
    u = lambda x: np.asarray(x, dtype=float)  # noqa: E731
    return RadialFunction(
        value=lambda x: np.sqrt(1.0 + u(x)),
        d1=lambda x: 0.5 / np.sqrt(1.0 + u(x)),
        d2=lambda x: -0.25 * (1.0 + u(x)) ** -1.5,
        provenance="analytic",
        domain=(-1.0 + 1e-9, math.inf),
    )


def test_c01_constant_density_interior_matches_closed_form():
    """e^{-gamma} from a constant-density run equals 1 - (8 pi c/3) r^2
    to 1e-8 across the interior, and the integration takes under a second."""
    c = 0.001
    eos = tov.EquationOfState.from_spec(f"constant:c={c}")
    t0 = time.perf_counter()
    profile = tov.integrate_tov(eos, 0.0005)
    elapsed = time.perf_counter() - t0
    r_b = tov.detect_surface(profile)
    grid = chebyshev_grid(profile.R_START, r_b, 257)
    got = np.array([1.0 - 2.0 * profile.m(r) / r for r in grid])
    want = 1.0 - (8.0 * math.pi * c / 3.0) * grid**2
    assert np.max(np.abs(got - want)) < 1e-8
    assert elapsed < 1.0


def test_c02_vacuum_hawking_mass_recovers_total_mass(vacuum):
    """The Hawking mass of every vacuum coordinate sphere is the total mass:
    at r = 3, 4, 8 and 100 (levels c = sqrt(1 - 2/r)) it is 1 to 1e-10."""
    for r in (3.0, 4.0, 8.0, 100.0):
        level = math.sqrt(1.0 - 2.0 / r)
        reports = quasilocal.level_set_data(vacuum, level,
                                            window=(0.8 * r, 1.25 * r))
        assert len(reports) == 1
        rep = reports[0]
        assert abs(rep.r - r) < 1e-8
        assert abs(rep.m_hawking - 1.0) < 1e-10


def test_c03_vacuum_brown_york_and_surface_gravity(vacuum):
    """On the vacuum level set {f = c}: m_BY = 2M/(1+c) and the surface
    gravity kappa = (1-c^2)^2/(4M), both to 1e-10 (here M = 1)."""
    for c in (0.1, 0.5, 0.9):
        rep = quasilocal.level_set_data(vacuum, c)[0]
        assert abs(rep.m_brown_york - 2.0 / (1.0 + c)) < 1e-10
        assert abs(rep.kappa - (1.0 - c * c) ** 2 / 4.0) < 1e-10


def test_c04_vacuum_saturates_hawking_inequality(vacuum):
    """Vacuum coordinate spheres are the equality case of the Hawking-mass
    inequality: the slack vanishes to 1e-9 on every sphere sampled."""
    levels = [0.1, 0.5, 0.9] + [math.sqrt(1.0 - 2.0 / r)
                                for r in (3.0, 4.0, 8.0, 100.0)]
    for c in levels:
        rep = quasilocal.level_set_data(vacuum, c)[0]
        assert abs(rep.inequality_slack) <= 1e-9


def test_c05_flat_unit_sphere_willmore_energy():
    """Quadrature of H^2 over the flat unit sphere (H = 2) gives 16 pi to
    1e-10, hence a vanishing Hawking mass."""
    w = quasilocal.willmore_energy(2.0, 1.0)
    assert abs(w - 16.0 * math.pi) < 1e-10
    assert abs(quasilocal.hawking_mass(FOUR_PI, w)) < 1e-10


def test_c06_lapse_solver_matches_closed_form():
    """solve_lapse with the conformal factor sqrt(1+u), n = 3, reproduces
    sin(log sqrt(1+u)) to 1e-8 over [0, 10], in under 0.1 s."""
    phi = _sqrt_one_plus_u()
    t0 = time.perf_counter()
    f = conformal.solve_lapse(phi, 3, (0.0, 10.0), (0.0, 0.5))
    elapsed = time.perf_counter() - t0
    grid = chebyshev_grid(0.0, 10.0, 256)
    exact = np.sin(0.5 * np.log1p(grid))
    assert np.max(np.abs(f.value(grid) - exact)) < 1e-8
    assert elapsed < 0.1


def test_c07_warped_stellar_model_verifies(witten):
    """The warped stellar model passes its field-equation residuals at 1e-7,
    its tilde-chart density reproduction at 1e-9, and samples both sectional
    curvatures positive at 1000 points."""
    result = witten.verify()
    assert result.passed

    field = result.reports["field[star]"]
    assert field.passed
    assert max(e.max for e in field.entries) < 1e-7

    tilde = result.reports["tilde-chart[star]"]
    assert tilde.passed
    assert max(e.max for e in tilde.entries) < 1e-9

    sect = result.reports["sectional-curvature[star]"]
    assert sect.passed
    assert len(np.asarray(sect.grid)) == 1000
    assert max(e.max for e in sect.entries) == 0.0


def test_c08_euler_characteristic_identity(vacuum, witten):
    """The chi-identity residual (chi = 2 for level-set spheres) stays below
    1e-6 on vacuum and warped-stellar level sets alike."""
    reports = []
    for c in (0.1, 0.5, 0.9):
        reports += quasilocal.level_set_data(vacuum, c)
    for c in (math.sin(math.log(math.cosh(1.0))), 0.6):
        reports += quasilocal.level_set_data(witten, c)
    assert len(reports) >= 7  # the warped levels come in twin pairs
    for rep in reports:
        assert abs(rep.chi_identity_residual) < 1e-6


def test_c09_tov_runs_satisfy_conservation(const_star):
    """Every successful TOV run satisfies 2 rho' + v'(rho + mu) = 0 to 1e-6
    pointwise, with both derivatives recomputed by finite differences from
    sampled values only (so the check is independent of the solver's own
    v' = -2 rho'/(mu+rho) identity)."""

    def worst_residual(profile, hi):
        # stay off the center series: the FD stencil needs room below r
        grid = chebyshev_grid(0.05 * hi, hi, 129)
        domain = (profile.R_START, 1.01 * hi)
        rho1 = fd_derivative(profile.rho, grid, domain=domain)
        v1 = fd_derivative(profile.v, grid, domain=domain)
        rho = profile.rho(grid)
        return float(np.max(np.abs(2.0 * rho1 + v1 * (rho + profile.eos.mu(rho)))))

    runs = []

    p1 = const_star.profile
    runs.append((p1, 0.98 * const_star.r_b))

    eos2 = tov.EquationOfState.from_spec("constant:c=0.002")
    p2 = tov.integrate_tov(eos2, 0.0008)
    p2 = tov.integrate_lapse(p2, r_b=tov.detect_surface(p2))
    runs.append((p2, 0.98 * tov.detect_surface(p2)))

    # a surfaceless run: generalized Chaplygin gas relaxing onto its
    # constant-pressure attractor, lapse normalized at the outer edge
    eos3 = tov.EquationOfState.from_spec("chaplygin:c=0.001")
    p3 = tov.integrate_tov(eos3, -0.0008, tov.SolverOptions(r_max=5.0))
    p3 = tov.integrate_lapse(p3)
    runs.append((p3, 0.98 * p3.r_end))

    for profile, hi in runs:
        assert worst_residual(profile, hi) < 1e-6


def test_c10_conformal_density_closes_against_curvature():
    """For every conformally flat model the closed-form density equals half
    the scalar curvature of phi^{-2} delta computed by the generic curvature
    machinery, to 1e-7 — both through the built-in closure check and at
    fresh off-grid Cartesian points."""
    models = [conformal.build_model("witten", n=3),
              conformal.build_model("witten", n=5),
              conformal.build_model("unit", n=3)]
    for model in models:
        rep = model.checks["closure"]
        assert rep.passed
        assert max(e.max for e in rep.entries) < 1e-7

    m = models[0]
    ansatz = m.pieces[0].ansatz
    for x in ([0.3, 0.0, 0.0], [0.7, 0.2, 0.1], [1.5, -0.4, 0.8]):
        x = np.asarray(x, dtype=float)
        u = m.invariant.value(x)
        _, r_scal = conformal_curvature(ansatz, x)
        assert abs(float(m.mu_geo(u)) - 0.5 * float(r_scal)) < 1e-7


def test_c11_tabulated_eos_reproduces_analytic_run(const_star):
    """A tabulated equation of state sampled from the constant-density
    closed form integrates to the same star as the analytic one: surface
    radius, total mass and the rho/m/f profiles agree to 1e-6."""
    rho_c = 0.0005
    rows = np.linspace(-0.1 * rho_c, 1.5 * rho_c, 40)
    table = tov.Tabulated(rows, np.full(rows.shape, 0.001))
    profile = tov.integrate_tov(table, rho_c)
    twin = tov.match_exterior(profile, tov.detect_surface(profile))

    assert abs(twin.r_b - const_star.r_b) < 1e-6
    assert abs(twin.mass - const_star.mass) < 1e-6
    grid = chebyshev_grid(2.0 * profile.R_START,
                          0.98 * min(twin.r_b, const_star.r_b), 65)
    for r in grid:
        assert abs(twin.rho(r) - const_star.rho(r)) < 1e-6
        assert abs(twin.profile.m(r) - const_star.profile.m(r)) < 1e-6
        assert abs(twin.f(r) - const_star.f(r)) < 1e-6


def test_c12_energy_condition_implications(const_star):
    """DEC implies WEC implies NEC, pointwise and in aggregate, on a scan of
    every catalog model and of an integrated star."""
    scans = [energy.scan_model(catalog.build(model_id))
             for model_id in sorted(catalog.MODELS)]
    scans.append(energy.scan_model(const_star))
    for scan in scans:
        nec = scan.mu + scan.rho >= -energy.BAND
        wec = nec & (scan.mu >= -energy.BAND)
        dec = scan.mu - np.abs(scan.rho) >= -energy.BAND
        assert np.all(wec | ~dec)
        assert np.all(nec | ~wec)
        assert scan.wec or not scan.dec
        assert scan.nec or not scan.wec
