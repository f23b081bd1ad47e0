import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.interpolate import PchipInterpolator, PPoly
from scipy.optimize import brentq

from staticstar import catalog, conformal, energy, geometry, numerics, quasilocal, tov
from staticstar.config import RunConfig
from staticstar.errors import BadParams, DomainError, StaticStarError, StepFailure
from staticstar.numerics import (
    GRID_N_MAX,
    ProfileAt,
    RadialFunction,
    check_grid_n,
    chebyshev_grid,
    refine_root,
    sign_brackets,
    sphere_rule,
)

from fd import fd_derivative


@pytest.mark.parametrize("refused", [
    lambda: RadialFunction.constant(1.0, domain=(2.0, 2.0)),
    lambda: RadialFunction(math.sin, math.cos, math.sin, provenance="finite-difference"),
    lambda: chebyshev_grid(0.0, 1.0, 1),
    lambda: sphere_rule(0),
], ids=["empty-domain", "provenance", "one-point-grid", "degree-0-rule"])
def test_deliberate_refusals_are_bad_params(refused):
    with pytest.raises(BadParams):
        refused()


VACUUM = "schwarzschild_exterior:M=1"


@pytest.mark.parametrize("refused", [
    lambda: quasilocal.level_set_data(catalog.parse_model_spec(VACUUM), 0.5, grid_n=0),
    lambda: quasilocal.level_set_data(catalog.parse_model_spec(VACUUM), 0.5, grid_n=1),
    lambda: quasilocal.level_set_data(catalog.parse_model_spec(VACUUM), 0.5, grid_n=64.0),
    lambda: quasilocal.mass_sweep(catalog.parse_model_spec(VACUUM), [0.5], grid_n=0),
    lambda: quasilocal.mass_sweep(catalog.parse_model_spec(VACUUM), [0.5], grid_n=1),
    lambda: chebyshev_grid(0.0, 1.0, 2.5),
    lambda: chebyshev_grid(0.0, 1.0, True),
    lambda: tov.SolverOptions(grid_n=8.5),
    lambda: RunConfig(grid_n=8.5),
    lambda: energy.scan_model(catalog.parse_model_spec(VACUUM), n=2.5),
    lambda: energy.scan_model(catalog.parse_model_spec(VACUUM), n=-1),
    # one point past the cap, refused before anything is allocated
    lambda: check_grid_n(GRID_N_MAX + 1, 2),
    lambda: quasilocal.level_set_data(catalog.parse_model_spec(VACUUM), 0.5, grid_n=GRID_N_MAX + 1),
    lambda: chebyshev_grid(0.0, 1.0, GRID_N_MAX + 1),
    lambda: tov.SolverOptions(grid_n=GRID_N_MAX + 1),
    lambda: RunConfig(grid_n=GRID_N_MAX + 1),
    lambda: energy.scan_model(catalog.parse_model_spec(VACUUM), n=GRID_N_MAX + 1),
], ids=["level-set-grid-0", "level-set-grid-1", "level-set-float-grid", "sweep-grid-0",
        "sweep-grid-1", "chebyshev-float-n",
        "chebyshev-bool-n", "solver-float-grid", "config-float-grid", "scan-float-n",
        "scan-negative-n", "cap-plus-one", "level-set-cap-plus-one", "chebyshev-cap-plus-one",
        "solver-cap-plus-one", "config-cap-plus-one", "scan-cap-plus-one"])
def test_library_edges_refuse_bad_sizes_and_shapes(refused):
    """Grid sizes that are not integers from the documented least size (2, or
    1 for an energy-condition scan) to GRID_N_MAX, and a batch where one point
    is documented, are BadParams, not a raw IndexError, TypeError or
    ValueError, not a wrong answer and not an allocation the host cannot
    hold."""
    with pytest.raises(BadParams):
        refused()


def test_the_cap_itself_is_a_grid_size():
    assert check_grid_n(GRID_N_MAX, 2) is None


def test_two_point_scan_finds_the_vacuum_sphere():
    """The smallest admissible scan still brackets f = c: sqrt(1 - 2/r) = 0.5
    at r = 8/3."""
    (rep,) = quasilocal.level_set_data(catalog.parse_model_spec(VACUUM), 0.5, grid_n=2)
    assert rep.r == pytest.approx(8.0 / 3.0, rel=1e-12)


# u = |x|^2 as a quadric invariant
_SQUARED_RADIUS = conformal.BasicInvariant(1.0, (0.0,) * 3, (0.0,) * 3)
# an off-centre one: tau != 1, alpha != 0
_SKEW_INVARIANT = conformal.BasicInvariant(0.7, (0.4, -0.2, 0.6), (0.3, 0.1, 0.2))


def _profile_at(rf, inv, x):
    """rf read at u(x), with the gradient and Hessian of u from ``inv``."""
    return ProfileAt(rf, inv.value(x), inv.gradient(x), inv.hessian(x))


def test_profile_chain_rule_closed_form():
    # F(x) = (|x|^2)^2: gradient 4 |x|^2 x, hessian 4 |x|^2 I + 8 x x^T
    outer = RadialFunction(lambda u: u**2, d1=lambda u: 2.0 * u, d2=lambda u: 2.0 + 0 * u)
    x = np.array([1.0, -1.0, 0.5])
    u = float(x @ x)
    at = _profile_at(outer, _SQUARED_RADIUS, x)
    assert np.allclose(at.grad, 4.0 * u * x)
    assert np.allclose(at.hess, 4.0 * u * np.eye(3) + 8.0 * np.outer(x, x))


@pytest.mark.parametrize("rf", [
    RadialFunction(np.exp, d1=np.exp, d2=np.exp),
    RadialFunction.from_formula(lambda u: np.sin(u) / (2.0 + u), (-1.5, math.inf)),
], ids=["exp", "from-formula"])
def test_profile_chain_rule_matches_finite_differences(rf):
    """grad and hess of rf(u(x)), read through a ProfileAt, against stencils
    of x -> rf(u(x)) with u written out here."""
    x = np.array([[0.1, 0.2, 0.3], [0.5, -0.5, 0.0], [-0.3, 0.4, -0.6]])
    at = _profile_at(rf, _SKEW_INVARIANT, x)
    inv, e = _SKEW_INVARIANT, np.eye(3)

    def u_of(y):
        return np.sum(inv.tau * y * y + np.asarray(inv.alpha) * y + np.asarray(inv.beta), axis=-1)

    for k, xk in enumerate(x):
        def along(v, order, xk=xk):
            return fd_derivative(lambda t: rf.value(u_of(xk + t * v)), 0.0, order=order)

        grad = np.array([along(e[i], 1) for i in range(3)])
        hess = np.array([[along(e[i], 2) if i == j else
                          0.25 * (along(e[i] + e[j], 2) - along(e[i] - e[j], 2))
                          for j in range(3)] for i in range(3)])
        np.testing.assert_allclose(at.grad[k], grad, rtol=0, atol=1e-9)
        # second differences at h = 5e-4 lose up to ~2e-8 to round-off
        np.testing.assert_allclose(at.hess[k], hess, rtol=0, atol=2e-7)


def test_profile_reading_batches_like_its_rows():
    rf = RadialFunction(np.exp, d1=np.exp, d2=np.exp)
    pts = np.array([[0.1, 0.2, 0.3], [0.5, -0.5, 0.0]])
    at = _profile_at(rf, _SQUARED_RADIUS, pts)
    for k, x in enumerate(pts):
        u = float(x @ x)
        want = math.exp(u) * (2.0 * np.eye(3) + 4.0 * np.outer(x, x))
        np.testing.assert_allclose(at.hess[k], want, rtol=1e-14)
        np.testing.assert_allclose(at.grad[k], 2.0 * math.exp(u) * x, rtol=1e-14)
        row = _profile_at(rf, _SQUARED_RADIUS, x)
        assert row.grad.tobytes() == at.grad[k].tobytes()
        assert row.hess.tobytes() == at.hess[k].tobytes()


@pytest.mark.parametrize("shape", [(4, 2), (3, 3, 3), (2,)])
@pytest.mark.parametrize("read", [
    _SQUARED_RADIUS.value,
    _SQUARED_RADIUS.gradient,
    _SQUARED_RADIUS.hessian,
    lambda x: geometry.ConformalBatch(
        geometry.ConformalFlat(RadialFunction.constant(1.0), _SQUARED_RADIUS), x),
], ids=["invariant-value", "invariant-gradient", "invariant-hessian", "batch"])
def test_package_point_readers_reject_malformed_point_arrays(read, shape):
    with pytest.raises(BadParams):
        read(np.ones(shape))


# ---------------------------------------------------------------------------
# grids, brackets, roots
# ---------------------------------------------------------------------------


def test_chebyshev_grid_basic():
    g = chebyshev_grid(0.0, 1.0, 33)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert len(g) == 33
    assert np.all(np.diff(g) > 0)


@pytest.mark.parametrize("n", [2, 3, 64, 512, numerics._SHARED_NODES_MAX + 1])
def test_chebyshev_grids_share_read_only_nodes_and_return_their_own_array(n):
    """The unit nodes are cos(pi j / (n - 1)) bit for bit, shared and read-only
    up to _SHARED_NODES_MAX points; every grid is a new, writable array."""
    nodes = np.cos(np.pi * np.arange(n) / (n - 1))
    if n <= numerics._SHARED_NODES_MAX:
        shared = numerics._lobatto_nodes(n)
        assert _same_bits(shared, nodes) and not shared.flags.writeable
        assert numerics._lobatto_nodes(n) is shared
    lo, hi = 1e-6, 2.7
    a, b = chebyshev_grid(lo, hi, n), chebyshev_grid(lo, hi, n)
    assert a is not b and a.flags.writeable and b.flags.writeable
    assert a[0] == lo and a[-1] == hi
    assert _same_bits(a[1:-1], (0.5 * (lo + hi) - 0.5 * (hi - lo) * nodes)[1:-1])
    a[:] = 0.0
    assert _same_bits(b, chebyshev_grid(lo, hi, n))


def test_sign_brackets_sin():
    grid = np.linspace(0.5, 10.0, 400)
    brackets = sign_brackets(grid, np.sin(grid))
    roots = [refine_root(math.sin, a, b) for a, b in brackets]
    assert np.allclose(roots, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-10)


def test_sign_brackets_exact_zero_degenerate():
    grid = np.array([-1.0, 0.0, 1.0])
    brackets = sign_brackets(grid, grid)
    # the exact grid zero is reported as a degenerate bracket
    assert (0.0, 0.0) in brackets
    assert refine_root(lambda x: x, 0.0, 0.0) == 0.0


def test_refine_root_degenerate_bracket_returns_its_point():
    assert refine_root(math.cos, 1.25, 1.25) == 1.25


def test_refine_root_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(DomainError, match="sign change"):
        refine_root(math.cos, 2.0, 3.0)  # cos < 0 on [2, 3]


@pytest.mark.parametrize("func", [
    lambda x: math.nan if x > 0.9 else x - 0.5,          # at an end of the bracket
    lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5,    # at the first iterate
])
def test_refine_root_rejects_nan(func):
    with pytest.raises(DomainError, match="NaN"):
        refine_root(func, 0.0, 1.0)


# --- Brent's method against scipy's brentq --------------------------------------

def _lapse_brackets(model, rng, levels):
    """(g, a, b): sign brackets of f - c on each piece at random levels c."""
    for piece in model.pieces:
        f = piece.fluid.f
        grid = np.linspace(*piece.scan_window(), 128)
        f_grid = f.value(grid)
        for c in rng.uniform(f_grid.min(), f_grid.max(), levels):
            for a, b in sign_brackets(grid, f_grid - c):
                yield (lambda r, f=f, c=c: float(f.value(r)) - c), a, b


def _polynomial_brackets(rng, count):
    """(p, a, b): random polynomials on random intervals where they change sign."""
    while count:
        coef = rng.normal(size=rng.integers(2, 8))
        a, b = rng.uniform(-3.0, 3.0, 2)
        p = np.polynomial.Polynomial(coef)
        if p(a) * p(b) < 0.0:
            count -= 1
            yield (lambda x, p=p: float(p(x))), float(a), float(b)


def test_refine_root_is_brentq_bit_for_bit():
    rng = np.random.default_rng(20231)
    cases = [
        *_lapse_brackets(catalog.build("witten_stellar"), rng, 250),
        *_lapse_brackets(catalog.build("witten_stellar", A=0.6, B=0.8), rng, 100),
        *_lapse_brackets(catalog.build("wyman"), rng, 150),
        *_polynomial_brackets(rng, 500),
    ]
    assert len(cases) >= 1000
    rtol = 4.0 * np.finfo(float).eps
    diff = [(a, b) for g, a, b in cases
            if refine_root(g, a, b) != brentq(g, a, b, xtol=1e-12, rtol=rtol)]
    assert diff == []


def test_refine_root_follows_brentq_through_an_underflowed_step():
    # on f ~ 1e-200 the denominator of the inverse quadratic step underflows to 0
    def f(x):
        return 1e-200 * (x**3 - 0.1)

    rtol = 4.0 * np.finfo(float).eps
    assert refine_root(f, 0.0, 1.0) == brentq(f, 0.0, 1.0, xtol=1e-12, rtol=rtol)


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------


def test_sphere_rule_weights_sum_to_sphere_area():
    _, wts = sphere_rule()
    assert abs(wts.sum() - 4.0 * math.pi) < 1e-12


def test_sphere_rule_exact_on_even_monomials():
    pts, wts = sphere_rule()
    # int x^2 dOmega = 4 pi / 3, int x^2 y^2 z^2 dOmega = 4 pi / 105
    assert abs(wts @ pts[:, 0] ** 2 - 4 * math.pi / 3) < 1e-12
    xyz2 = pts[:, 0] ** 2 * pts[:, 1] ** 2 * pts[:, 2] ** 2
    assert abs(wts @ xyz2 - 4 * math.pi / 105) < 1e-13


def test_sphere_rule_kills_odd_and_harmonic_terms():
    pts, wts = sphere_rule()
    assert abs(wts @ pts[:, 2]) < 1e-13
    assert abs(wts @ (3 * pts[:, 2] ** 2 - 1.0)) < 1e-12


def _sphere_rule_loop(degree):
    """The rule written as the explicit theta-major, then phi, double loop."""
    n_theta = (degree + 2) // 2
    n_phi = degree + 1
    mu, w_mu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_theta = np.sqrt(1.0 - mu**2)
    pts = np.empty((n_theta * n_phi, 3))
    wts = np.empty(n_theta * n_phi)
    k = 0
    for i in range(n_theta):
        for j in range(n_phi):
            pts[k] = (sin_theta[i] * np.cos(phi[j]), sin_theta[i] * np.sin(phi[j]), mu[i])
            wts[k] = w_mu[i] * (2.0 * np.pi / n_phi)
            k += 1
    return pts, wts


@pytest.mark.parametrize("degree", [1, 2, 35])
def test_sphere_rule_matches_the_explicit_loop_bit_for_bit(degree):
    pts, wts = sphere_rule(degree)
    want_pts, want_wts = _sphere_rule_loop(degree)
    assert pts.shape == want_pts.shape and wts.shape == want_wts.shape
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(wts, want_wts)


def test_sphere_rule_is_shared_and_read_only():
    pts, wts = sphere_rule(35)
    again = sphere_rule(35)
    assert again[0] is pts and again[1] is wts
    with pytest.raises(ValueError):
        pts[0, 0] = 2.0
    with pytest.raises(ValueError):
        wts[0] = 2.0


def test_sign_brackets_exact_zero_among_sign_changes():
    grid = np.linspace(-1.0, 10.0, 401)
    vals = np.sin(grid)
    vals[200] = 0.0
    # each bracket is one grid step holding a root of sin, in grid order,
    # with the planted zero reported as the degenerate bracket at its point
    want = [0.0, math.pi, grid[200], 2.0 * math.pi, 3.0 * math.pi]
    brackets = sign_brackets(grid, vals)
    assert len(brackets) == len(want)
    assert brackets[2] == (grid[200], grid[200])
    for (a, b), root in zip(brackets, want):
        assert a <= root <= b and b - a < 1.01 * (grid[1] - grid[0])
    with pytest.raises(DomainError):
        sign_brackets(grid, np.full(grid.shape, np.nan))


# --- the RK45 port against scipy's solve_ivp ----------------------------------------

def _scipy_coefficients(sol):
    """scipy's RK45 dense output in local powers, one piece per step.

    Each of its segments is y_old + h Q [x, ..., x^k] with x = (t - t_old)/h,
    so c[k] = y_old and c[k-1-j] = Q[:, j] / h^j.
    """
    parts = sol.interpolants
    h = np.array([p.h for p in parts])
    q = np.array([p.Q for p in parts])
    k = q.shape[2]
    c = np.empty((k + 1,) + q.shape[:2])
    c[k] = [p.y_old for p in parts]
    c[k - 1::-1] = np.moveaxis(q / h[:, None, None] ** np.arange(k), 2, 0)
    return c


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _recorded_call(module, build):
    """The arguments ``build`` passes to ``module.solve_ivp``, and the port's result."""
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs, numerics.solve_ivp(*args, **kwargs)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "solve_ivp", spy)
        try:
            build()
        except StaticStarError:
            pass
    assert len(calls) == 1
    return calls[0]


def _terminal(fn, direction):
    fn.terminal, fn.direction = True, direction
    return fn


def _tov_run(eos, rho_c, **options):
    return lambda: _recorded_call(
        tov, lambda: tov.integrate_tov(eos, rho_c, tov.SolverOptions(**options)))


def _sqrt_phi():
    return RadialFunction(
        value=lambda u: np.sqrt(1.0 + np.asarray(u, dtype=float)),
        d1=lambda u: 0.5 / np.sqrt(1.0 + np.asarray(u, dtype=float)),
        d2=lambda u: -0.25 * (1.0 + np.asarray(u, dtype=float)) ** -1.5,
        domain=(-1.0 + 1e-9, math.inf),
    )


def _lapse_run(ic):
    return lambda: _recorded_call(
        conformal, lambda: conformal.solve_lapse(_sqrt_phi(), 3, (0.0, 10.0), ic))


def _direct_run(fun, span, y0, events=(), **tol):
    def run():
        kwargs = dict(events=events, **tol)
        return (fun, span, y0), kwargs, numerics.solve_ivp(fun, span, y0, **kwargs)
    return run


def _event_on_a_breakpoint():
    """An event that rises to exactly 0 at the third breakpoint, which its
    direction -1 does not count, and falls below 0 in the next step: its root
    is that breakpoint, so the last step is dropped, as scipy drops it."""
    fun, span, y0 = (lambda t, y: (y[1], -y[0])), (0.0, 10.0), (1.0, 0.0)
    tb = float(numerics.solve_ivp(fun, span, y0).t[3])
    return _direct_run(fun, span, y0,
                       events=(_terminal(lambda t, y: 0.0 if t == tb else -1.0, -1.0),))()


_TWIN_RHO = np.linspace(-5e-4, 7.5e-4, 40)
# the EOS shapes of a tov_stars pass: a self-bound bag model mu = 3 rho + 4B,
# finite at the surface, and a Gamma = 2 polytrope rho = K mu^2, mu -> 0 there
_BAG_RHO = np.linspace(-3.5e-4, 5.25e-4, 60)
_SOFT_RHO = np.linspace(-2e-4, 3e-4, 60)

SOLVE_CASES = {
    "tov-constant": _tov_run(tov.ConstantDensity(0.001), 5e-4),
    "tov-constant-rejections": _tov_run(tov.ConstantDensity(1.5e-3), 9e-4, rel_tol=1e-4),
    "tov-table-twin": _tov_run(tov.Tabulated(_TWIN_RHO, np.full(_TWIN_RHO.shape, 0.001)), 5e-4),
    "tov-horizon-hit": _tov_run(tov.Chaplygin(1.0), -1.0 / math.sqrt(3.0)),
    "tov-no-surface": _tov_run(tov.ConstantDensity(0.001), 5e-4, r_max=5.0),
    "tov-bag-table": _tov_run(tov.Tabulated(_BAG_RHO, 3.0 * _BAG_RHO + 4e-4), 3.5e-4),
    "tov-soft-table": _tov_run(
        tov.Tabulated(_SOFT_RHO, np.sqrt(np.maximum(_SOFT_RHO, 0.0) / 100.0)), 2e-4),
    # a Custom EOS gets the right-hand side's Python floats
    "tov-custom": _tov_run(tov.Custom(lambda rho: 1e-3 + rho + 1e3 * rho * rho), 5e-4),
    "lapse": _lapse_run((1.0, 0.2)),
    "lapse-sign-loss": _lapse_run((1.0, -0.5)),
    "event-in-first-step": _direct_run(lambda t, y: (-1.0,), (0.0, 10.0), (1e-7,),
                                       events=(_terminal(lambda t, y: y[0], -1.0),)),
    "event-at-start": _direct_run(lambda t, y: (-1.0,), (0.0, 10.0), (0.0,),
                                  events=(_terminal(lambda t, y: y[0], -1.0),)),
    # both cross in one step; the earlier root, the second event's, ends the run
    "two-events-in-one-step": _direct_run(
        lambda t, y: (1.0,), (0.0, 10.0), (0.0,),
        events=(_terminal(lambda t, y: y[0] - 0.95, 1.0), _terminal(lambda t, y: y[0] - 0.9, 0.0))),
    "step-size-collapse": _direct_run(lambda t, y: [v * v for v in y], (0.0, 2.0), (1.0,)),
    "rtol-below-100-eps": _direct_run(lambda t, y: [-v for v in y], (0.0, 3.0), (1.0, 2.0),
                                      rtol=1e-17, atol=1e-20),
    # hundreds of accepted steps, past the dense-output buffer's first capacity,
    # and an event whose root lies in a step after the buffer has grown
    "many-steps": _direct_run(lambda t, y: (y[1], -y[0]), (0.0, 100.0), (1.0, 0.0),
                              events=(_terminal(lambda t, y: y[0] * y[0] + y[1] * y[1] + t - 80.0,
                                                1.0),),
                              rtol=1e-6, atol=1e-10),
    "event-on-a-breakpoint": _event_on_a_breakpoint,
}


def _assert_is_scipy(call):
    """The port's result ``call[2]`` is scipy's RK45 solve of ``call[:2]``, bit for bit."""
    (fun, span, y0), kwargs, got = call
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # scipy's note that it raised rtol
        want = scipy_solve_ivp(fun, span, y0, method="RK45", dense_output=True, **kwargs)
    assert (got.status, got.message, got.nfev) == (want.status, want.message, want.nfev)
    assert _same_bits(got.t, want.t)
    assert len(got.t_events) == len(want.t_events)
    assert all(_same_bits(a, b) for a, b in zip(got.t_events, want.t_events))
    if want.sol.interpolants:
        assert _same_bits(got.dense.x, want.sol.ts)
        assert _same_bits(got.dense.c, _scipy_coefficients(want.sol))
    else:
        assert got.dense is None


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_solve_ivp_is_scipy_rk45_bit_for_bit(case):
    call = SOLVE_CASES[case]()
    _assert_is_scipy(call)
    got = call[2]
    if case == "step-size-collapse":
        assert got.status == -1 and got.t[-1] < 1.0
    if case == "tov-constant-rejections":  # six calls per attempt, accepted or not
        assert got.nfev > 2 + 6 * (len(got.t) - 1)
    if "event" in case or case == "many-steps":
        assert got.status == 1
    if case == "many-steps":
        assert len(got.t) - 1 > 4 * numerics._FIRST_STEPS
    if case == "event-on-a-breakpoint":
        assert len(got.t) == 4 and got.t_events[0][0] == got.t[-1]
        assert got.dense.c.shape[1] == 3


def test_a_nan_in_y_new_rejects_the_step_as_np_maximum_does():
    """A right-hand side that stays finite overflows y to +inf, a step its
    infinite error scale accepts, then turns negative, so y_new = inf - inf
    is NaN.  scipy's scale takes ``np.maximum``, which keeps the NaN: every
    attempt is rejected until the step size collapses.  A max that dropped
    the NaN would accept the step and run on to the end."""
    nan_seen = []

    def fun(t, y):
        nan_seen.append(math.isnan(y[0]))
        return (1.7e308 if t < 1.0 else -1.7e308,)

    with np.errstate(all="ignore"):
        call = _direct_run(fun, (0.0, 3.0), (0.0,))()
        assert any(nan_seen) and call[2].status == -1
        _assert_is_scipy(call)


@pytest.mark.parametrize("rtol", [1e-3, 1e-2])
def test_a_zero_atol_divides_an_underflowed_state_as_numpy_does(rtol):
    """With atol = 0, y' = -y decays until the state and its scale underflow
    to zero; e h / 0 is then inf or nan, as numpy divides, not an error."""
    with np.errstate(divide="ignore", invalid="ignore"):
        call = _direct_run(lambda t, y: [-v for v in y], (0.0, 1000.0), (1.0,),
                           rtol=rtol, atol=0.0)()
        _assert_is_scipy(call)


def test_an_overflowed_first_step_estimate_divides_as_numpy_does():
    """With atol 0 on a state of 1e-185, |f0| / scale squares past the float
    range, so d1 = inf and the first guess h0 = 0.01 d0 / d1 is 0; scipy's
    numpy floats divide d2 by it to nan, not a ZeroDivisionError, and the
    solve starts from the minimum step."""
    with np.errstate(all="ignore"):
        call = _direct_run(lambda t, y: [y[1], -y[0]], (0.0, 1.0), (1e-185, 1.0), atol=0.0)()
        _assert_is_scipy(call)
    assert call[2].status == 0


@pytest.mark.parametrize("refused", [
    lambda: numerics.solve_ivp(lambda t, y: [-v for v in y], (0, 1), [1.0], atol=-1e-6),
    lambda: numerics.solve_ivp(lambda t, y: [-v for v in y], (0, 1), [1.0], rtol=-1.0),
    lambda: numerics.solve_ivp(lambda t, y: [-v for v in y], (0, 1), [1.0, 2.0],
                               atol=[1e-6, math.nan]),
    lambda: numerics.solve_ivp(lambda t, y: [-v for v in y], (0, 1), [1.0], rtol=math.nan),
    lambda: conformal.solve_lapse(_sqrt_phi(), 3, (0, 10), (1.0, 0.2), abs_tol=-1e-6),
], ids=["negative-atol", "negative-rtol", "nan-atol-entry", "nan-rtol",
        "solve-lapse-negative-abs-tol"])
def test_a_negative_or_nan_tolerance_is_bad_params(refused):
    """scipy refuses a negative atol; a negative rtol, or a NaN, is no
    tolerance either, and none of them may return a solution."""
    with pytest.raises(BadParams, match="tolerances must be non-negative"):
        refused()


def test_every_fun_and_event_call_gets_a_list_of_floats():
    """f(t0), the first-step probe, every stage, the events at each step and
    the event-root refinement all get ``y`` as a list of Python floats; the
    count of fun's calls is ``nfev``."""
    states = {"fun": [], "event": []}

    def fun(t, y):
        states["fun"].append(y)
        return np.array([y[1], -y[0]])

    def crossing(t, y):
        states["event"].append(y)
        return y[0] + 0.5

    got = numerics.solve_ivp(fun, (0.0, 20.0), (1.0, 0.0), rtol=1e-8, atol=1e-10,
                             events=(_terminal(crossing, -1.0),))
    assert got.status == 1 and got.nfev == len(states["fun"])
    # the events' calls: t0, each of the accepted steps and Brent's iterations
    assert len(states["event"]) > len(got.t)
    for y in states["fun"] + states["event"]:
        assert type(y) is list and len(y) == 2 and all(type(v) is float for v in y)


_TOV_STARS = st.one_of(
    # tov_stars' constant-density stars, and its self-bound bag models mu = 3 rho + 4B
    st.tuples(st.just("constant"), st.floats(1e-3, 2e-3), st.floats(0.4, 0.8)),
    st.tuples(st.just("bag"), st.floats(8e-5, 1.2e-4), st.floats(3e-4, 4e-4)),
)


@settings(max_examples=25, deadline=None)
@given(_TOV_STARS, st.sampled_from([1e-4, 1e-6, 1e-8, 1e-12]))
@example(("constant", 1.5e-3, 0.6), 1e-12)
@example(("bag", 1e-4, 3.5e-4), 1e-12)
def test_tov_solves_are_scipy_rk45_bit_for_bit(star, rel_tol):
    """Loose tolerances reject attempts on the constant stars; the tightest
    takes several hundred steps."""
    kind, a, b = star
    if kind == "constant":
        eos, rho_c = tov.ConstantDensity(a), a * b
    else:
        rho = np.linspace(-b, 1.5 * b, 60)
        eos, rho_c = tov.Tabulated(rho, 3.0 * rho + 4.0 * a), b
    _assert_is_scipy(_tov_run(eos, rho_c, rel_tol=rel_tol)())


_ANY_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308]),
                       st.floats())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, st.sampled_from([0.0, 1e-10, 1.0])),
    min_size=n, max_size=n)), st.floats(1e-3, 10.0), st.sampled_from([1e-3, 1e-12]))
def test_error_norm_is_scipys_on_every_float(rows, h, rtol):
    """NaN, inf, zero and an atol of 0 included: the list arithmetic gives the
    norm of scipy's ``norm(e h / (atol + np.maximum(|y|, |y_new|) rtol))``."""
    e, y, y_new, atol = (list(col) for col in zip(*rows))
    with np.errstate(all="ignore"):
        got = numerics._error_norm(e, y, y_new, h, rtol, atol, np.empty(len(e)),
                                      struct.Struct(f"{len(e)}d").pack_into)
        scale = np.array(atol) + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        x = np.array(e) * h / scale
        want = np.linalg.norm(x) / x.size ** 0.5
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("wrap", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
def test_solve_ivp_takes_fun_results_as_tuple_list_or_array(wrap):
    """The stage rows take fun's result as it comes: every container gives the
    bits of scipy's solve, whose fun returns an ndarray."""

    def fun(t, y):
        return wrap((y[1], -y[0] - 0.1 * y[1] * abs(y[1])))

    def crossing(t, y):
        return y[0] + 0.5

    events = (_terminal(crossing, -1.0),)
    got = numerics.solve_ivp(fun, (0.0, 20.0), (1.0, 0.0), rtol=1e-8, atol=1e-10, events=events)
    want = scipy_solve_ivp(lambda t, y: np.array(fun(t, y)), (0.0, 20.0), (1.0, 0.0),
                           method="RK45", dense_output=True, rtol=1e-8, atol=1e-10, events=events)
    assert got.status == want.status == 1 and got.nfev == want.nfev
    assert _same_bits(got.t, want.t) and _same_bits(got.t_events[0], want.t_events[0])
    assert _same_bits(got.dense.c, _scipy_coefficients(want.sol))


@pytest.mark.parametrize("wrap", [float, np.float64, np.array], ids=["float", "float64", "0-d"])
def test_a_one_state_fun_may_return_its_value_bare(wrap):
    """Not a sequence: the stage row takes it as numpy assigns it, as scipy's does."""
    _assert_is_scipy(_direct_run(lambda t, y: wrap(-y[0] + math.sin(t)), (0.0, 5.0), (1.0,),
                                 rtol=1e-6)())


@pytest.mark.parametrize("wrap", [tuple, list, np.array, float], ids=["tuple", "list", "1-d", "bare"])
def test_a_one_value_result_broadcasts_over_two_states(wrap):
    """One value for both states, as numpy broadcasts it into scipy's stage row."""
    def fun(t, y):
        v = -0.5 * y[0] * abs(y[1])
        return v if wrap is float else wrap([v])

    _assert_is_scipy(_direct_run(fun, (0.0, 5.0), (1.0, 2.0), rtol=1e-6)())


@pytest.mark.parametrize("wrap", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
@pytest.mark.parametrize("t_turn", [-1.0, 0.5], ids=["from-the-start", "in-a-stage"])
def test_a_three_value_result_for_two_states_is_refused_as_scipy_refuses_it(wrap, t_turn):
    """Three values for two states: the ValueError numpy raises for scipy,
    whether the first call returns them or only a stage after the first step."""
    def fun(t, y):
        return wrap((y[1], -y[0], 0.0) if t > t_turn else (y[1], -y[0]))

    for solve in (numerics.solve_ivp, scipy_solve_ivp):
        with pytest.raises(ValueError):
            solve(fun, (0.0, 5.0), (1.0, 0.0))


@st.composite
def _random_solves(draw):
    """A solve of y_i' = a_i y_{i+1} + b_i y_i - 0.1 y_i |y_i| + c_i sin t,
    damped for large |y|, whose fun returns a tuple, list or ndarray."""
    n = draw(st.integers(1, 4))
    a, b, c = (draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)) for _ in range(3))
    wrap = draw(st.sampled_from([tuple, list, np.array]))

    def fun(t, y):
        y = [float(v) for v in y]
        s = math.sin(t)
        return wrap([a[i] * y[(i + 1) % n] + b[i] * y[i] - 0.1 * y[i] * abs(y[i]) + c[i] * s
                     for i in range(n)])

    atol = draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), min_size=n, max_size=n))
    # a state whose scale |y0| rtol is 0 (atol 0, y0 0 or subnormal) makes the
    # first step size NaN, and scipy's attempt loop never leaves a NaN step
    # (the port reports status -1); 1e-300 still reaches the overflowed d1
    # of test_an_overflowed_first_step_estimate_divides_as_numpy_does
    y0 = [draw(st.floats(-2.0, 2.0).filter(lambda v: abs(v) >= 1e-300) if at == 0.0
               else st.floats(-2.0, 2.0)) for at in atol]
    rtol = 10.0 ** draw(st.floats(-12.0, -3.0))
    events = []
    for _ in range(draw(st.integers(0, 2))):
        i, level = draw(st.integers(0, n - 1)), draw(st.floats(-1.5, 1.5))
        events.append(_terminal(lambda t, y, i=i, level=level: float(y[i]) - level,
                                draw(st.sampled_from([-1.0, 0.0, 1.0]))))
    return _direct_run(fun, (0.0, draw(st.floats(0.5, 8.0))), tuple(y0),
                       events=tuple(events), rtol=rtol, atol=atol)


@settings(max_examples=40, deadline=None)
@given(_random_solves())
def test_solve_ivp_is_scipy_rk45_on_random_systems(run):
    """Status, nfev, the breakpoints, the event roots and every dense
    coefficient, bit for bit, over 1-4 states, per-state atol with zeros,
    rtol 1e-12 to 1e-3 and up to two terminal events of direction -1, 0 or +1."""
    with np.errstate(all="ignore"):
        _assert_is_scipy(run())


def test_a_collapsed_step_is_a_step_failure(monkeypatch):
    def diverging(*args, **kwargs):
        return numerics.solve_ivp(lambda t, y: [v * v for v in y], (0.0, 2.0), (1.0, 1.0),
                                  **kwargs)

    monkeypatch.setattr(conformal, "solve_ivp", diverging)
    with pytest.raises(StepFailure, match="step size"):
        conformal.solve_lapse(_sqrt_phi(), 3, (0.0, 10.0), (1.0, 0.2))


@pytest.mark.parametrize("span, y0, atol", [
    ((1.0, 1.0), (1.0,), 1e-6), ((1.0, 0.0), (1.0,), 1e-6),
    ((0.0, 1.0), (math.inf,), 1e-6), ((0.0, 1.0), 1.0, 1e-6),
    ((0.0, 1.0), ((1.0, 2.0),), 1e-6), ((0.0, 1.0), (), 1e-6),
    # scipy's `atol` has wrong shape: neither one value nor one per state
    ((0.0, 1.0), (1.0, 2.0), (1e-6, 1e-6, 1e-6)), ((0.0, 1.0), (1.0, 2.0), ((1e-6, 1e-6),)),
    ((0.0, 1.0), (1.0, 2.0), (1e-6,)),
], ids=["empty-span", "backward-span", "infinite-state", "0-d-state", "2-d-state",
        "empty-state", "atol-of-3-for-2-states", "atol-of-shape-1x2", "atol-of-1-for-2-states"])
def test_solve_ivp_refuses_what_it_does_not_port(span, y0, atol):
    with pytest.raises(BadParams):
        numerics.solve_ivp(lambda t, y: [-v for v in y], span, y0, atol=atol)


# --- ODE-backed evaluators read the dense output ------------------------------------

def _tov_evaluators():
    profile = tov.integrate_tov(tov.ConstantDensity(0.001), 0.0005)
    return profile.rho, profile.m, profile.v_free_fn


def _lapse_evaluators():
    f = conformal.solve_lapse(_sqrt_phi(), 3, (0.0, 10.0), (1.0, 0.2))
    return f.value, f.d1


ODE_CASES = {"tov": (tov, _tov_evaluators), "lapse": (conformal, _lapse_evaluators)}


@pytest.fixture(params=sorted(ODE_CASES))
def ode_case(request):
    """The evaluators of one ODE-backed object and scipy's OdeSolution of its ODE."""
    module, build = ODE_CASES[request.param]
    evaluators = []
    (args, kwargs, _) = _recorded_call(module, lambda: evaluators.extend(build()))
    sol = scipy_solve_ivp(*args, method="RK45", dense_output=True, **kwargs)
    return evaluators, sol.sol


def _ode_points(sol):
    """Random points, every breakpoint and both ends of the solution."""
    rng = np.random.default_rng(11)
    return np.concatenate([rng.uniform(sol.ts[0], sol.ts[-1], 400), sol.ts])


def test_ode_backed_evaluators_read_the_ppoly(ode_case):
    evaluators, sol = ode_case
    t = _ode_points(sol)
    want = sol(t)
    block = t[:20].reshape(4, 5)
    for i, fn in enumerate(evaluators):
        scale = np.max(np.abs(want[i]))
        assert np.max(np.abs(fn(t) - want[i])) <= 1e-14 * scale
        assert fn(block).shape == block.shape
        np.testing.assert_array_equal(fn(block), fn(t[:20]).reshape(4, 5))
        for x in (sol.ts[0], float(t[0]), sol.ts[-1]):
            got = fn(float(x))
            assert type(got) is float
            assert abs(got - sol(x)[i]) <= 1e-14 * scale


# --- piecewise polynomials and fits against scipy's ----------------------------------

def _random_ppoly(rng, pieces, degree, *trailing):
    x = np.cumsum(rng.uniform(0.01, 1.0, pieces + 1)) - 3.0
    return rng.normal(size=(degree + 1, pieces) + trailing), x


@pytest.mark.parametrize("trailing", [(), (3,)])
def test_piecewise_poly_is_ppoly_bit_for_bit(trailing):
    rng = np.random.default_rng(7)
    c, x = _random_ppoly(rng, 40, 4, *trailing)
    pp, want = numerics.PiecewisePoly(c, x), PPoly(c, x)
    points = np.concatenate([
        rng.uniform(x[0], x[-1], 500), x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
        [x[0] - 1.5, x[-1] + 2.5, -1e3, 1e3, np.nan],
    ])
    for t in (points, points[:60].reshape(6, 10), np.asarray(points[3])):
        assert _same_bits(pp(t), want(t))
    assert np.all(np.isnan(pp(np.array([np.nan]))))
    for i in range(trailing[0] if trailing else 0):
        part = pp.component(i)
        assert _same_bits(part(points), want(points)[:, i])
        for t in points[::25]:
            got = part(float(t))
            assert type(got) is float and _same_bits(got, want(t)[i])
        assert type(part(np.float64(1.0))) is float and type(part(np.array(1.0))) is float
    if not trailing:
        for t in points[::7]:
            got = pp(float(t))
            assert type(got) is float and _same_bits(got, want(t))


def test_piecewise_poly_reads_a_few_points_as_floats_to_the_same_bits():
    rng = np.random.default_rng(9)
    c, x = _random_ppoly(rng, 40, 4)
    pp, want = numerics.PiecewisePoly(c, x), PPoly(c, x)
    points = np.concatenate([rng.uniform(x[0], x[-1], 200), x, np.nextafter(x, -np.inf),
                             [x[0] - 1.5, x[-1] + 2.5, np.nan]])
    for k in range(1, numerics._FEW_POINTS + 2):  # the float path and the first array past it
        for i in range(0, len(points) - k, k):
            t = points[i:i + k]
            got = pp(t)
            assert type(got) is np.ndarray and got.shape == t.shape
            assert _same_bits(got, want(t))
    assert pp(np.empty(0)).shape == (0,)
    square = points[:4].reshape(2, 2)
    assert _same_bits(pp(square), want(square))


@pytest.mark.parametrize("degree", [3, 0])
def test_piecewise_poly_derivative_matches_ppoly(degree):
    rng = np.random.default_rng(8)
    c, x = _random_ppoly(rng, 60, degree)
    got, want = numerics.PiecewisePoly(c, x).derivative(), PPoly(c, x).derivative()
    t = np.concatenate([rng.uniform(x[0], x[-1], 300), x])
    # c[:-1] * [K, ..., 1] on both sides: the same floats
    assert _same_bits(got.c, want.c) and _same_bits(got(t), want(t))


PCHIP_TABLES = {
    "random": (np.cumsum(np.random.default_rng(3).uniform(0.1, 1.0, 30)),
               np.random.default_rng(4).normal(size=30)),
    "monotone": (np.linspace(-1e-3, 2e-3, 40), 3.0 * np.linspace(-1e-3, 2e-3, 40) + 4e-4),
    "flat-runs": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),
    "sign-changes": (np.linspace(0.0, 10.0, 25), np.sin(np.linspace(0.0, 10.0, 25))),
    "soft-surface": (np.linspace(-2e-4, 3e-4, 60),
                     np.sqrt(np.maximum(np.linspace(-2e-4, 3e-4, 60), 0.0) / 100.0)),
    "two-rows": ([0.0, 1.0], [1.0, 3.0]),
    "three-rows": ([0.0, 1.0, 3.0], [2.0, -1.0, 5.0]),
    "subnormal": ([0.0, 1.0, 2.0, 3.0], [0.0, 1e-310, 0.0, 1e-3]),
}


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e-6, 10.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)),
             min_size=n, max_size=n))))
def test_pchip_is_scipy_pchip_on_random_rows(rows):
    """Steps of any size, flat runs, extrema and sign changes, at both ends too."""
    steps, y = rows
    x = np.cumsum([0.0] + steps)
    if not np.all(np.diff(x) > 0.0):
        return
    with np.errstate(all="ignore"):
        got, want = numerics.pchip(x, y), PchipInterpolator(x, y)
    assert _same_bits(got.x, want.x) and _same_bits(got.c, want.c)


@pytest.mark.parametrize("table", sorted(PCHIP_TABLES))
def test_pchip_is_scipy_pchip_bit_for_bit(table):
    x, y = (np.asarray(v, dtype=float) for v in PCHIP_TABLES[table])
    with np.errstate(all="ignore"):
        got = numerics.pchip(x, y)
        want = PchipInterpolator(x, y)
    assert _same_bits(got.x, want.x) and _same_bits(got.c, want.c)
    if table != "subnormal":  # its cubic terms overflow past the rows
        t = np.linspace(x[0], x[-1], 301)
        assert _same_bits(got(t), want(t))
