"""Property-based checks of the structural invariants."""

import functools
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from staticstar import catalog, conformal, quasilocal, tov
from staticstar.energy import BAND, scan_conditions, scan_model
from staticstar.errors import DomainError, NoLevelSet, NotARegularValue, StaticStarError
from staticstar.geometry import _entry, to_geometric, to_physical
from staticstar.numerics import RadialFunction, chebyshev_grid

from fd import fd_derivative

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
coeffs = st.lists(st.floats(min_value=-2.0, max_value=2.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=2, max_size=5)


@given(coeffs, st.floats(min_value=0.5, max_value=2.0))
def test_fd_matches_polynomial_derivative(cs, r):
    poly = np.polynomial.Polynomial(cs)
    got = fd_derivative(lambda x: float(poly(x)), r, order=1,
                        domain=(0.0, 3.0))
    want = float(poly.deriv()(r))
    assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


@given(finite, finite, st.floats(min_value=-1.0, max_value=1.0,
                                 allow_nan=False, allow_infinity=False))
def test_unit_bridge_round_trip(mu, rho, lam):
    mu_g, rho_g = to_geometric(mu, rho, lam)
    mu_p, rho_p = to_physical(mu_g, rho_g, lam)
    assert math.isclose(mu_p, mu, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(rho_p, rho, rel_tol=1e-12, abs_tol=1e-12)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
def test_condition_implications(pairs):
    grid = np.arange(1.0, 1.0 + len(pairs))
    mu = np.array([p[0] for p in pairs])
    rho = np.array([p[1] for p in pairs])
    scan = scan_conditions(mu, rho, grid)
    assert (not scan.dec) or scan.wec
    assert (not scan.wec) or scan.nec
    if not (scan.nec and scan.wec and scan.dec):
        assert scan.first_violation is not None


@given(st.lists(finite, min_size=1, max_size=50))
def test_entry_max_dominates_rms(vals):
    entry = _entry("eq", np.array(vals), np.arange(len(vals), dtype=float))
    assert entry.max >= entry.rms - 1e-15 and entry.rms >= 0.0
    assert abs(vals[int(entry.worst_r)]) == entry.max


@given(st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
def test_hawking_mass_monotone_in_willmore(area, w1, dw):
    m1 = quasilocal.hawking_mass(area, w1)
    m2 = quasilocal.hawking_mass(area, w1 + dw)
    assert m2 <= m1 + 1e-15


@given(st.integers(min_value=3, max_value=6),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.1, max_value=3.0))
def test_witten_charts_agree(n, A, B, r):
    u = math.sinh(r) ** 2
    in_u = conformal._witten_u_lapse(n, A, B, (0.0, 150.0))(u)
    in_r = conformal.witten_lapse(n, A, B, r)
    assert abs(in_u - in_r) <= 1e-10 * max(1.0, abs(in_r))


@given(st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_classification_matches_window(kappa, c, rho0, h):
    cls, win = quasilocal.sphere_classification(h, kappa, c, rho0)
    disc = kappa * kappa + c * c * rho0
    if disc < 0.0:
        assert cls is quasilocal.SphereClass.INDETERMINATE and win is None
    else:
        lo, hi = win
        inside = lo <= h <= hi
        assert (cls is quasilocal.SphereClass.TORUS_WINDOW) == inside


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.01, max_value=5.0),
       st.integers(min_value=8, max_value=64))
def test_chebyshev_grid_shape(lo, width, n):
    grid = chebyshev_grid(lo, lo + width, n)
    assert len(grid) == n
    assert grid[0] == lo and grid[-1] == lo + width
    assert np.all(np.diff(grid) > 0.0)


@given(st.floats(min_value=0.1, max_value=4.0),
       st.lists(st.floats(min_value=-3.0, max_value=3.0,
                          allow_nan=False, allow_infinity=False),
                min_size=6, max_size=6))
def test_invariant_identities(tau, parts):
    inv = conformal.BasicInvariant(tau, tuple(parts[:3]), tuple(parts[3:]))
    x = np.array([0.3, -1.2, 0.7])
    u = inv.value(x)
    g = inv.gradient(x)
    # |grad u|^2 = 4 tau u + C and Lap u = 2 n tau
    lhs, rhs = float(g @ g), 4.0 * tau * u + inv.C
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
    lap = float(np.trace(inv.hessian(x)))
    assert abs(lap - 2.0 * inv.n * tau) <= 1e-12 * max(1.0, abs(lap))
    manual = sum(tau * xi * xi + a * xi + b
                 for xi, a, b in zip(x, inv.alpha, inv.beta))
    assert math.isclose(u, manual, rel_tol=1e-12, abs_tol=1e-12)


SQRT_ONE_PLUS_U = RadialFunction.from_formula(lambda u: np.sqrt(1.0 + u),
                                              (-1.0 + 1e-9, math.inf))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["witten", "custom"]),
       st.tuples(st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0)),
       st.tuples(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.5, max_value=20.0)),
       st.tuples(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.1, max_value=4e2)),
       st.floats(min_value=0.0, max_value=1.0))
def test_conformal_spheres_lie_in_the_scan_window(phi, ic, span, window, t):
    phi = SQRT_ONE_PLUS_U if phi == "custom" else phi
    model = conformal.build_model(phi, n=3, ic=ic, span=(span[0], span[0] + span[1]))
    lo, hi = model.pieces[0].scan_window()
    c = float(model.f(lo + t * (hi - lo)))  # a level the lapse reaches in its domain
    window = (window[0], window[0] + window[1])
    try:
        reports = quasilocal.level_set_data(model, c, window=window)
    except (NoLevelSet, NotARegularValue):
        return
    assert all(max(lo, window[0]) <= rep.r <= min(hi, window[1]) for rep in reports)


@settings(max_examples=5, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
def test_lapse_ode_is_linear(f0, fp0, scale):
    phi = RadialFunction(
        value=lambda u: np.sqrt(1.0 + np.asarray(u, dtype=float)),
        d1=lambda u: 0.5 / np.sqrt(1.0 + np.asarray(u, dtype=float)),
        d2=lambda u: -0.25 * (1.0 + np.asarray(u, dtype=float)) ** -1.5,
        provenance="analytic",
        domain=(-1.0 + 1e-9, math.inf),
    )
    span = (0.0, 2.0)

    def whole_span(ic):
        """The lapse with data ic, or None when it crosses zero in the span:
        truncated (or, at the left end, refused), it is not comparable."""
        try:
            f = conformal.solve_lapse(phi, 3, span, ic)
        except conformal.SignLoss:
            return None
        return None if f.domain[1] < span[1] else f

    base = conformal.solve_lapse(phi, 3, span, (1.0, 0.25))
    if f0 <= 0.0:
        return   # starts at or below zero: no lapse to superpose
    other = whole_span((f0, fp0))
    combined_ic = (1.0 + scale * f0, 0.25 + scale * fp0)
    if other is None or combined_ic[0] <= 0.0:
        return   # the combined lapse may start non-positive: skip quietly
    combined = whole_span(combined_ic)
    if combined is None:
        return
    for u in (0.5, 1.5):
        want = base.value(u) + scale * other.value(u)
        assert abs(combined.value(u) - want) <= 1e-6 * max(1.0, abs(want))


# --- whole pipeline: EOS -> star -> level set -> energy conditions --------------

def _decade(lo, hi):
    """Floats spread evenly in log10 between 10**lo and 10**hi."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


_sign = st.sampled_from([1.0, 1.0, 1.0, -1.0])


@st.composite
def _tabulated(draw):
    rho_c = draw(_decade(-4.0, -2.0))
    n = draw(st.integers(min_value=4, max_value=40))
    rows = np.linspace(-draw(st.floats(0.0, 0.2)) * rho_c,
                       draw(st.floats(1.0, 2.0)) * rho_c, n)
    if draw(st.booleans()):
        mu = draw(_decade(-4.0, -2.0)) * (1.0 + draw(st.floats(0.0, 3.0)) * rows / rho_c)
    else:
        mu = np.array(draw(st.lists(st.floats(-1e-3, 1e-2, allow_subnormal=False),
                                    min_size=n, max_size=n)))
    return tov.Tabulated(rows, mu), rho_c


_stars = st.one_of(
    st.tuples(_decade(-4.0, -2.0).map(tov.ConstantDensity),
              st.tuples(_decade(-5.5, -1.0), _sign).map(lambda p: p[0] * p[1])),
    st.tuples(_decade(-3.0, 0.0).map(tov.Chaplygin),
              st.tuples(_decade(-4.0, 0.0), _sign).map(lambda p: p[0] * p[1])),
    _tabulated(),
)


def _pipeline(eos, rho_c, t):
    """integrate_tov -> detect_surface -> match_exterior -> level_set_data -> scan_model.

    The level is the fraction ``t`` of the way from the central lapse to 1.
    """
    profile = tov.integrate_tov(eos, rho_c)
    model = tov.match_exterior(profile, tov.detect_surface(profile))
    f_center = model.f(profile.R_START)
    level = f_center + t * (1.0 - f_center)
    return model, level, quasilocal.level_set_data(model, level), scan_model(model)


@settings(max_examples=30, deadline=None)
@given(_stars, st.floats(min_value=0.05, max_value=0.95))
def test_pipeline_fails_only_with_package_errors(star, t):
    eos, rho_c = star
    try:
        _pipeline(eos, rho_c, t)
    except StaticStarError:
        pass


@settings(max_examples=25, deadline=None)
@given(_decade(-4.0, -2.0), _decade(-1.5, 1.0), st.floats(min_value=0.05, max_value=0.95))
def test_constant_density_pipeline_matches_interior_schwarzschild(c, ratio, t):
    rho_c = ratio * c
    model, level, reports, scan = _pipeline(tov.ConstantDensity(c), rho_c, t)
    # y = sqrt(1 - a r^2), f = (3 y_b - y)/2 inside, sqrt(1 - 2M/r) outside
    a = 8.0 * math.pi * c / 3.0
    y_b = (c + rho_c) / (c + 3.0 * rho_c)
    r_b = math.sqrt((1.0 - y_b * y_b) / a)
    mass = 4.0 * math.pi / 3.0 * c * r_b**3

    def f(r):
        return 1.5 * y_b - 0.5 * math.sqrt(1.0 - a * r * r) if r < r_b \
            else math.sqrt(1.0 - 2.0 * mass / r)

    # acceptance-gate tolerances: e^{-gamma} to 1e-8 (c01); radius, mass and
    # lapse to 1e-6 (c11), taken relative because r_b reaches 30 here
    r = np.linspace(model.profile.R_START, model.r_b, 65)
    assert np.max(np.abs(1.0 - 2.0 * model.profile.m(r) / r - (1.0 - a * r * r))) < 1e-8
    assert math.isclose(model.r_b, r_b, rel_tol=1e-6)
    assert math.isclose(model.mass, mass, rel_tol=1e-6)
    assert all(math.isclose(model.f(x), f(x), rel_tol=1e-6) for x in r)
    assert len(reports) == 1
    rep = reports[0]
    assert math.isclose(f(rep.r), level, rel_tol=1e-6)
    m_enclosed = mass if rep.r >= r_b else 4.0 * math.pi / 3.0 * c * rep.r**3
    assert math.isclose(rep.m_hawking, m_enclosed, rel_tol=1e-6)
    # mu = c > 0 and rho > 0 inside: NEC and WEC hold, and DEC (rho <= mu)
    # exactly when rho_c <= c, up to the scan's band of BAND
    assert scan.nec and scan.wec
    if abs(rho_c - c) > 10.0 * BAND:
        assert scan.dec == (rho_c < c)


# --- on a Schwarzschild-form chart the Hawking mass is the mass function -------

def _assert_hawking_mass_is_m(model, levels, mass, rel_tol=1e-13):
    """m_hawking of every level sphere {f = c}, c in ``levels``, is mass(r)
    at its r, to ``rel_tol`` relative.

    On a round sphere the Hawking mass is (b/2)(1 - b_s^2), with 1 - b_s^2 =
    2m/r read from the chart, not formed as the difference 1 - W/16 pi of
    numbers near 1, so nearly flat spheres keep their relative digits too.
    """
    spheres = [rep for c in levels for rep in quasilocal.level_set_data(model, c)]
    assert spheres
    for rep in spheres:
        assert math.isclose(rep.m_hawking, mass(rep.r), rel_tol=rel_tol,
                            abs_tol=0.0), (rep.r, rep.m_hawking)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.tuples(_decade(-4.0, -2.0).map(tov.ConstantDensity), _decade(-5.5, -1.0)),
                 _tabulated()),
       st.floats(min_value=0.05, max_value=0.95))
def test_hawking_mass_is_the_mass_function_of_a_tov_star(star, t):
    eos, rho_c = star
    try:
        profile = tov.integrate_tov(eos, rho_c)
        model = tov.match_exterior(profile, tov.detect_surface(profile))
    except StaticStarError:
        assume(False)
    f_center = model.f(profile.R_START)

    def mass(r):
        return profile.m(r) if r <= model.r_b else model.mass

    _assert_hawking_mass_is_m(model, [f_center + t * (1.0 - f_center)], mass)


def test_hawking_mass_is_the_mass_function_of_the_vacuum():
    model = catalog.build("schwarzschild_exterior", M=1.5)
    _assert_hawking_mass_is_m(model, [0.05, 0.3, 0.6, 0.9, 0.99], lambda r: 1.5)


def test_hawking_mass_is_the_mass_function_of_wyman():
    model = catalog.build("wyman")  # R = 2, M = 0.2
    r_b = model.extras["r_b"]
    f_b = model.f(r_b)
    levels = [model.f(0.05 * r_b), model.f(0.5 * r_b), f_b, 0.5 * (f_b + 1.0), 0.99]
    _assert_hawking_mass_is_m(model, levels, lambda r: min(r, r_b) ** 5 / (2.0 * 2.0**4))


def test_hawking_mass_of_a_nearly_flat_sphere_keeps_its_digits():
    """The wyman sphere at r = 0.0725 has 2m/r = 1.7e-6; 1 - W/16 pi read
    m(r) there to only 1.2e-10 relative."""
    model = catalog.build("wyman")  # R = 2, M = 0.2
    _assert_hawking_mass_is_m(model, [model.f(0.0725)], lambda r: r**5 / (2.0 * 2.0**4),
                              rel_tol=1e-15)


def _mu_outcome(eos, rho):
    """``eos.mu(rho)`` as its bytes, or the text of the DomainError it raises."""
    try:
        return np.asarray(eos.mu(rho), dtype=float).tobytes()
    except DomainError as exc:
        return str(exc)


@given(_tabulated(), st.data())
def test_tabulated_mu_on_a_float_is_its_array_path(table, data):
    eos, _ = table
    lo, hi = eos.rho_min, eos.rho_max
    rho = data.draw(st.one_of(
        st.floats(lo, hi),
        st.floats(max_value=lo, exclude_max=True),
        st.floats(min_value=hi, exclude_min=True),
        st.sampled_from([-math.inf, math.inf, math.nan]),
    ))
    got, want = _mu_outcome(eos, rho), _mu_outcome(eos, np.array([rho]))
    assert got == want
    assert isinstance(got, str) == (rho < lo or rho > hi)
    if math.isnan(rho):
        assert math.isnan(eos.mu(rho))
    elif lo <= rho <= hi:
        assert type(eos.mu(rho)) is float


@functools.cache
def _sweep_model(name):
    """The models a sweep is checked on: the six catalog entries, the README
    constant-density star, a bag star read from a ``table:`` CSV and the
    n = 3 conformal witten model."""
    if name in catalog.MODELS:
        return catalog.build(name)
    if name == "schwarzschild_interior:c=0.01":
        return catalog.build("schwarzschild_interior", c=0.01)
    if name == "conformal":
        return conformal.build_model("witten", n=3)
    if name == "readme_star":
        eos, rho_c = tov.EquationOfState.from_spec("constant:c=0.001"), 5e-4
    else:  # a self-bound bag model mu = 3 rho + 4B, tabulated
        rho = np.linspace(-3.5e-4, 5.25e-4, 60).tolist()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bag.csv")
            with open(path, "w") as fh:
                fh.write("rho,mu\n" + "".join(f"{r!r},{3.0 * r + 4e-4!r}\n" for r in rho))
            eos = tov.EquationOfState.from_spec(f"table:{path}")
        rho_c = 3.5e-4
    profile = tov.integrate_tov(eos, rho_c)
    return tov.match_exterior(profile, tov.detect_surface(profile))


SWEEP_MODELS = sorted(catalog.MODELS) + ["schwarzschild_interior:c=0.01", "readme_star",
                                         "bag_table_star", "conformal"]


def _lapse_range(model):
    """(min, max) of the lapse over the finite part of every piece's scan window."""
    vals = np.concatenate([np.asarray(p.f.value(np.linspace(p.scan_window()[0],
                                                            min(p.scan_window()[1], 1e4), 512)))
                           for p in model.pieces])
    return float(np.min(vals)), float(np.max(vals))


def _outcome(run):
    """The reports' JSON, or the type and message of the package error raised."""
    try:
        return json.dumps([rep.to_json_dict() for rep in run()])
    except StaticStarError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SWEEP_MODELS), st.data())
def test_sweep_is_the_one_level_results_concatenated(name, data):
    """mass_sweep gives, byte for byte, the one-level reports level after
    level, skipping levels with no sphere, or raises what the first failing
    level raises: for unsorted and repeated levels, levels the lapse never
    reaches and critical levels (the maximum of witten_stellar's lapse, 1.0
    for the constant lapses)."""
    model = _sweep_model(name)
    lo, hi = _lapse_range(model)
    level = st.one_of(st.floats(lo, hi), st.floats(lo, hi),
                      st.floats(hi + 1e-6, hi + 1.0), st.floats(lo - 1.0, lo - 1e-6),
                      st.sampled_from([1.0, hi]))
    levels = data.draw(st.lists(level, min_size=1, max_size=3 if name == "conformal" else 6))
    levels += data.draw(st.lists(st.sampled_from(levels), max_size=2))
    levels = data.draw(st.permutations(levels))

    def each_level():
        out = []
        for c in levels:
            try:
                out += quasilocal.level_set_data(model, c, grid_n=512)
            except NoLevelSet:
                continue
        return out

    assert _outcome(lambda: quasilocal.mass_sweep(model, levels, grid_n=512)) \
        == _outcome(each_level)
