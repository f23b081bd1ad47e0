"""Closed-form derivatives checked by routes independent of the formulas.

Every radial function of the catalog and of the conformal presets is written
once and differentiated by a second-order Jet.  These tests hold the Jet to
sympy, the catalog's derivatives to finite differences of their own values,
Wyman's lapse to mpmath, and each piece's geometric mu and rho to the
convention bridge applied to its physical pair.
"""

import math
import operator

import mpmath
import numpy as np
import pytest
import sympy

from staticstar import catalog, conformal
from staticstar.geometry import SchwarzschildForm, WarpedProduct, to_geometric
from staticstar.numerics import Jet, RadialFunction, chebyshev_grid

from fd import fd_derivative

# -- every closed form against finite differences ------------------------------

MODEL_SPECS = [
    "schwarzschild_exterior",
    "schwarzschild_interior",
    "schwarzschild_interior:c=0.001",
    "gamma_zero",
    "gamma_zero:c1=0.5,c2=2",
    "einstein_static",
    "wyman",
    "witten_stellar",
    "witten_stellar:A=0.6,B=0.8,lam=0.1",
]

PRESETS = {
    "witten-n3": dict(phi="witten", n=3),
    "witten-n4-ic": dict(phi="witten", n=4, ic=(0.3, 0.2)),
    "unit-ic": dict(phi="unit", ic=(1.0, 0.5)),
}


def _closed_forms():
    """(id, RadialFunction, window of interior test points)."""
    out = []
    for spec in MODEL_SPECS:
        model = catalog.parse_model_spec(spec)
        for p in model.pieces:
            named = {
                "f": p.fluid.f,
                "mu": p.mu_phys,
                "rho": p.rho_phys,
            }
            if isinstance(p.ansatz, SchwarzschildForm):
                named.update(m=p.ansatz.m)
            if isinstance(p.ansatz, WarpedProduct):
                named.update(phi=p.ansatz.phi)
            out += [(f"{spec}/{p.label}/{k}", rf, p.interval) for k, rf in named.items()]
        if "mu_printed" in model.extras:
            interval = model.pieces[0].interval
            out.append((f"{spec}/mu_printed", model.extras["mu_printed"], interval))
    for name, kw in PRESETS.items():
        cm = conformal.build_model(**kw)
        out += [(f"conformal:{name}/{k}", getattr(cm, k), cm.domain) for k in ("phi", "f")]
    return out


CLOSED_FORMS = _closed_forms()


def _agree_to_scale(exact, fd, lower_scale):
    """|exact - fd| within 1e-6 of the larger of max|fd| and ``lower_scale``.

    The scale floor is the next-lower derivative over the window length, so
    a constant (exact derivative 0, differences at round-off) passes while a
    wrong sign or coefficient cannot.
    """
    scale = max(float(np.max(np.abs(fd))), lower_scale)
    np.testing.assert_allclose(exact, fd, rtol=0.0, atol=1e-6 * scale)


@pytest.mark.parametrize(
    "rf,window", [c[1:] for c in CLOSED_FORMS], ids=[c[0] for c in CLOSED_FORMS]
)
def test_derivatives_match_finite_differences(rf, window):
    lo, hi = window
    r = chebyshev_grid(lo, hi, 9)[1:-1]
    d1 = np.asarray(rf.d1(r), dtype=float)
    d2 = np.asarray(rf.d2(r), dtype=float)
    span = hi - lo
    _agree_to_scale(
        d1, fd_derivative(rf.value, r, order=1, domain=rf.domain),
        float(np.max(np.abs(rf.value(r)))) / span,
    )
    _agree_to_scale(
        d2, fd_derivative(rf.d1, r, order=1, domain=rf.domain),
        float(np.max(np.abs(d1))) / span,
    )


def _geometric_pairs():
    """(id, piece, the model's Lambda, 0 for mu / 1 for rho) for every
    catalog piece."""
    out = []
    for spec in MODEL_SPECS:
        model = catalog.parse_model_spec(spec)
        lam = model.params.get("lam", 0.0)
        for p in model.pieces:
            out += [(f"{spec}/{p.label}/{k}_geo", p, lam, i)
                    for i, k in enumerate(("mu", "rho"))]
    return out


GEOMETRIC_PAIRS = _geometric_pairs()


@pytest.mark.parametrize(
    "piece,lam,which", [c[1:] for c in GEOMETRIC_PAIRS], ids=[c[0] for c in GEOMETRIC_PAIRS]
)
def test_geometric_fluid_is_the_bridged_physical_pair(piece, lam, which):
    """The geometric mu and rho are values only: 8 pi mu_phys + lam and
    8 pi rho_phys - lam, the same floats as the scalar convention bridge."""
    lo, hi = piece.interval
    r = chebyshev_grid(lo, hi, 9)
    fluid = piece.fluid
    got = np.asarray((fluid.mu, fluid.rho)[which](r), dtype=float)
    want = to_geometric(piece.mu_phys(r), piece.rho_phys(r), lam)[which]
    assert got.shape == r.shape
    np.testing.assert_array_equal(got, np.broadcast_to(want, r.shape))


def test_wyman_lapse_derivatives_match_mpmath(wyman):
    """f' and f'' near the centre, where asin(sqrt(1 - r^4/R^4)) loses digits."""
    r = 5e-3 * wyman.extras["r_b"]
    f = wyman.pieces[0].fluid.f
    with mpmath.workdps(40):
        a1, a2, R = mpmath.mpf(wyman.extras["a1"]), mpmath.mpf(wyman.extras["a2"]), 2

        def lapse(x):
            h = mpmath.asin(mpmath.sqrt(1 - x**4 / R**4)) / 2
            return a1 * mpmath.sinh(h) + a2 * mpmath.cosh(h)

        exact = [float(mpmath.diff(lapse, mpmath.mpf(r), k)) for k in (1, 2)]
    assert float(f.d1(r)) == pytest.approx(exact[0], rel=1e-13, abs=0.0)
    assert float(f.d2(r)) == pytest.approx(exact[1], rel=1e-13, abs=0.0)


# -- the Jet against sympy -----------------------------------------------------

X = sympy.Symbol("x")
INNER = sympy.Rational(3, 10) + X / 5 + X**2 / 20      # in (0.35, 0.65) at the points
OTHER = sympy.Rational(11, 10) - X / 5 + X**2 / 20
POINTS = (0.25, 0.8, 1.3)


def _at(expr, x0):
    return [float(sympy.diff(expr, X, k).subs(X, x0)) for k in range(3)]


def _jet(expr, x0):
    return Jet(*_at(expr, x0))


def _assert_jet(got, expr, x0):
    want = _at(expr, x0)
    for k, (g, w) in enumerate(zip((got.v, got.d1, got.d2), want)):
        assert g == pytest.approx(w, rel=1e-13, abs=0.0), (k, x0)


UNARY = {
    "negative": (operator.neg, operator.neg),
    "sqrt": (np.sqrt, sympy.sqrt),
    "log": (np.log, sympy.log),
    "log1p": (np.log1p, lambda e: sympy.log(1 + e)),
    "sin": (np.sin, sympy.sin),
    "cos": (np.cos, sympy.cos),
    "tan": (np.tan, sympy.tan),
    "sinh": (np.sinh, sympy.sinh),
    "cosh": (np.cosh, sympy.cosh),
    "tanh": (np.tanh, sympy.tanh),
    "arccos": (np.arccos, sympy.acos),
    "square": (lambda j: j**2, lambda e: e**2),
    "fourth-power": (lambda j: np.power(j, 4), lambda e: e**4),
    "power-1.5": (lambda j: j**-1.5, lambda e: e**sympy.Rational(-3, 2)),
}


@pytest.mark.parametrize("x0", POINTS)
@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_rule_matches_sympy(name, x0):
    jet_op, sym_op = UNARY[name]
    _assert_jet(jet_op(_jet(INNER, x0)), sym_op(INNER), x0)


BINARY = {
    "add": operator.add,
    "subtract": operator.sub,
    "multiply": operator.mul,
    "divide": operator.truediv,
}


@pytest.mark.parametrize("x0", POINTS)
@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_rule_matches_sympy(name, x0):
    op = BINARY[name]
    a, b, c = _jet(INNER, x0), _jet(OTHER, x0), 0.7
    _assert_jet(op(a, b), op(INNER, OTHER), x0)
    _assert_jet(op(a, c), op(INNER, sympy.Float(c, 30)), x0)
    _assert_jet(op(c, a), op(sympy.Float(c, 30), INNER), x0)
    # numpy operands hand the operation to the jet
    _assert_jet(op(np.float64(c), a), op(sympy.Float(c, 30), INNER), x0)


def test_array_operands_and_components():
    x = np.array([0.25, 0.8, 1.3])
    jet = np.sin(np.ones(3) * Jet(x, np.ones(3), np.zeros(3)))
    np.testing.assert_allclose(jet.v, np.sin(x), rtol=1e-15)
    np.testing.assert_allclose(jet.d1, np.cos(x), rtol=1e-15)
    np.testing.assert_allclose(jet.d2, -np.sin(x), rtol=1e-15)


def test_derivatives_share_a_jet_but_never_a_stale_one():
    rf = RadialFunction.from_formula(lambda r: r * np.sin(r))
    r = np.array([0.5, 1.0])
    d1 = rf.d1(r)
    np.testing.assert_allclose(d1, np.sin(r) + r * np.cos(r), rtol=1e-15)
    d1[:] = 0.0                    # writing into a result
    np.testing.assert_allclose(rf.d1(r), np.sin(r) + r * np.cos(r), rtol=1e-15)
    r[0] = 2.0                     # moving the points in place
    np.testing.assert_allclose(rf.d2(r), 2.0 * np.cos(r) - r * np.sin(r), rtol=1e-15)
    assert rf.d1(0.5) == pytest.approx(math.sin(0.5) + 0.5 * math.cos(0.5), rel=1e-15)
    assert rf.d1(2.0) == pytest.approx(math.sin(2.0) + 2.0 * math.cos(2.0), rel=1e-15)
    # a formula linear in r still returns derivatives shaped like r
    affine = RadialFunction.from_formula(lambda u: 2.0 + 3.0 * (u - 1.0))
    np.testing.assert_array_equal(affine.d1(r), [3.0, 3.0])
    np.testing.assert_array_equal(affine.d2(r), [0.0, 0.0])


def test_unsupported_ufunc_is_refused():
    with pytest.raises(TypeError):
        np.arctan(Jet(0.5, 1.0, 0.0))


def test_nested_jet_on_wyman_density_matches_sympy(wyman):
    """rho uses f' from a jet of the lapse, so its own d1/d2 run a jet of jets."""
    r = sympy.Symbol("r", positive=True)
    a1, a2 = (sympy.Float(wyman.extras[k], 30) for k in ("a1", "a2"))
    x = 1 - (r / 2) ** 4  # the fixture has R = 2
    h = sympy.asin(sympy.sqrt(x)) / 2
    f = a1 * sympy.sinh(h) + a2 * sympy.cosh(h)
    rho = (-1 / r**2 + x * (2 * sympy.diff(f, r) / (r * f) + 1 / r**2)) / (8 * sympy.pi)
    exact = [sympy.lambdify(r, sympy.diff(rho, r, k), "mpmath") for k in range(3)]
    rho_rf = wyman.pieces[0].rho_phys
    # nearer the centre rho' is a difference of terms ~1/r, which costs digits
    for r0 in (0.75, 1.0, 1.4):
        with mpmath.workdps(30):
            want = [float(g(mpmath.mpf(r0))) for g in exact]
        assert rho_rf.d1(r0) == pytest.approx(want[1], rel=1e-13, abs=0.0), r0
        assert rho_rf.d2(r0) == pytest.approx(want[2], rel=1e-13, abs=0.0), r0
        assert rho_rf(r0) == pytest.approx(want[0], rel=1e-13, abs=0.0), r0
