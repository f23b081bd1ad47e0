"""End-to-end CLI runs, in process: exit codes, output shapes, config."""

import argparse
import dataclasses
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import staticstar
from staticstar import catalog, cli, conformal, numerics, tov
from staticstar.cli import main
from staticstar.config import RunConfig
from staticstar.numerics import RadialFunction

STAR = ["--eos", "constant:c=0.001", "--rho-c", "0.0005"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- happy paths --------------------------------------------------------------

def test_tov_text_output(capsys, tmp_path):
    out_csv = tmp_path / "star.csv"
    code, out, _ = run(capsys, "tov", *STAR, "--out", str(out_csv))
    assert code == 0
    lines = out.splitlines()
    labels = ("surface radius r_b = ", "total mass       M = ", "central lapse    f = ")
    assert [line[: len(label)] for line, label in zip(lines, labels)] == list(labels)
    r_b, mass, f_center = (float(line[len(label):]) for line, label in zip(lines, labels))
    # interior Schwarzschild: r_b = sqrt(240/pi), M = 0.32 r_b, f(0) = 0.4
    assert r_b == pytest.approx(8.740387444736632, abs=1e-7)
    assert mass == pytest.approx(2.796923982315722, abs=1e-7)
    assert f_center == pytest.approx(0.4, abs=1e-6)
    assert lines[3] == f"profile written to {out_csv}"
    assert out_csv.read_text().splitlines()[0] == "r,m,mu,rho,exp_neg_gamma,exp_v,f"


def test_tov_json_output(capsys):
    code, out, _ = run(capsys, "tov", *STAR, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r_b"] == pytest.approx(8.740387444736632, abs=1e-5)
    assert payload["mass"] == pytest.approx(2.796923982315722, abs=1e-5)
    assert payload["f_center"] == pytest.approx(0.4, abs=1e-6)
    assert payload["negative_density_seen"] is False


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert out.split() == sorted(catalog.MODELS)
    code, out, _ = run(capsys, "catalog", "list", "--json")
    assert json.loads(out) == {"models": sorted(catalog.MODELS)}


def test_catalog_verify_with_params(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "witten_stellar",
                       "--param", "B=1.0", "--grid-n", "48")
    assert code == 0
    assert "model witten_stellar: PASS" in out


def test_verify_spec_shows_diagnostic_failure(capsys):
    code, out, _ = run(capsys, "verify", "wyman:R=2,M=0.2", "--grid-n", "48")
    assert code == 0                      # diagnostics don't gate
    assert "model wyman: PASS" in out
    assert "FAIL diagnostic[printed-mu]" in out


def test_mass_json_values(capsys):
    code, out, _ = run(capsys, "mass", "--model", "schwarzschild_exterior:M=1",
                       "--level", "0.5", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["r"] == pytest.approx(8.0 / 3.0, rel=1e-10)
    assert row["m_hawking"] == pytest.approx(1.0, abs=1e-10)
    assert row["m_brown_york"] == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert row["classification"] == "SphereForced"
    assert row["thresholds"][1] == pytest.approx(1.125, rel=1e-10)


def test_mass_multiple_levels_csv(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "mass", "--model", "schwarzschild_exterior:M=1",
                       "--level", "0.1", "--level", "0.5", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("c,r,area,H,")
    assert len(lines) == 3
    assert out.count("m_hawking=") == 2


def test_mass_from_eos(capsys):
    code, out, _ = run(capsys, "mass", *STAR, "--level", "0.7", "--json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["m_hawking"] == pytest.approx(2.796924, abs=1e-4)


def test_audit_text(capsys):
    code, out, _ = run(capsys, "audit", "--model", "witten_stellar")
    assert code == 0                      # violations are findings, not errors
    assert "DEC: violated" in out
    assert "first violation: DEC at r" in out


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "--phi", "witten", "--n", "5",
                       "--span", "0,6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["n"] == 5
    assert set(payload["checks"]) == {
        "lapse-ode", "field[on-axis]", "field[off-axis]", "closure",
    }


@pytest.mark.parametrize("argv", [
    ("--phi", "witten", "--n", "12"),
    ("--phi", "witten", "--n", "5", "--span", "0,40"),
    ("--phi", "witten", "--ic", "1,-0.5"),
    ("--phi", "unit", "--ic", "1,-0.5"),
], ids=["witten-n12", "witten-n5-span40", "witten-ic", "unit-ic"])
def test_a_preset_lapse_that_loses_sign_is_truncated(capsys, argv):
    code, out, _ = run(capsys, "build", *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["truncated"] is True and payload["passed"] is True


@pytest.mark.parametrize("span", ["0,1e9", "0,1e12"])
def test_a_long_span_cuts_the_lapse_just_before_its_zero(capsys, span):
    # the n = 3 witten lapse turns down through zero at u = expm1(2 pi) = 534.49...;
    # the margin scales with that zero, not with the span
    code, out, _ = run(capsys, "build", "--phi", "witten", "--span", span, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["truncated"] is True and payload["passed"] is True
    assert payload["domain"][1] < math.expm1(2.0 * math.pi)
    assert payload["domain"][1] == pytest.approx(math.expm1(2.0 * math.pi), abs=1e-6)


@pytest.mark.parametrize("phi", ["witten", "unit"])
def test_a_preset_starting_on_a_flat_zero_is_a_sign_loss(capsys, phi):
    code, _, err = run(capsys, "build", "--phi", phi, "--ic", "0,0")
    assert code == 3
    assert err == "error: SignLoss: lapse crossed zero immediately at u=0.0\n"


@pytest.mark.parametrize("hi", ["1e-12", "2e-9"])
def test_a_span_too_short_for_the_checks_is_a_usage_error(capsys, hi):
    code, out, err = run(capsys, "build", "--phi", "witten", "--span", f"0,{hi}")
    assert (code, out) == (1, "")
    assert err == (f"error: span (0.0, {float(hi)!r}) is too short for the checks, which sample "
                   f"it less max(1e-6 span, 1e-9) at each end: it must be longer than 2e-9\n")


def test_a_lapse_cut_too_near_its_start_is_a_sign_loss(capsys):
    code, out, err = run(capsys, "build", "--phi", "unit", "--ic", "3e-9,-1")
    assert (code, out) == (3, "")
    assert err.startswith("error: SignLoss: lapse crosses zero at u=3e-09, which leaves the "
                          "domain [0.0, 1.9999999999999997e-09], too short for the checks")


@pytest.mark.parametrize("argv", [("--phi", "witten", "--span", "0,2.5e-9"),
                                  ("--phi", "unit", "--ic", "3.5e-9,-1")])
def test_a_domain_just_longer_than_the_padding_builds(capsys, argv):
    code, out, _ = run(capsys, "build", *argv, "--json")
    assert code == 0 and set(json.loads(out)["checks"]) == {
        "lapse-ode", "field[on-axis]", "field[off-axis]", "closure"}


def test_a_dimension_above_the_cap_is_refused(capsys):
    code, _, err = run(capsys, "build", "--phi", "unit", "--n", str(conformal.N_MAX + 1))
    assert code == 1
    assert err == f"error: need 3 <= n <= {conformal.N_MAX}, got {conformal.N_MAX + 1}\n"


def test_json_is_deterministic(capsys):
    _, first, _ = run(capsys, "mass", "--model", "schwarzschild_exterior:M=1",
                      "--level", "0.5", "--json")
    _, second, _ = run(capsys, "mass", "--model", "schwarzschild_exterior:M=1",
                       "--level", "0.5", "--json")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("verify", "wyman", "--json"),
    ("mass", "--model", "witten_stellar", "--level", "0.42", "--json"),
    ("build", "--phi", "witten", "--json"),
    ("audit", "--eos", "constant:c=0.001", "--rho-c", "5e-4", "--json"),
])
def test_json_output_is_json_dumps_indent_2_sorted(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


_TRICKY_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028\U0001f600'),
                                 st.characters()), max_size=6)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _TRICKY_TEXT, st.floats(), st.floats().map(np.float64),
    st.integers(), st.integers(min_value=10**29, max_value=10**30 - 1).map(lambda i: i * (-1) ** i))
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TRICKY_TEXT, inner, max_size=4)),
    max_leaves=24)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
def test_dump_is_json_dumps_indent_2_sorted(c_encoder):
    """``cli._dump`` writes the bytes of ``json.dumps(indent=2,
    sort_keys=True)``; without ``_json``'s encoder it is that call."""
    @settings(max_examples=400, deadline=None)
    @given(_JSON_TREES)
    def check(tree):
        assert cli._dump(tree) == json.dumps(tree, indent=2, sort_keys=True)

    with pytest.MonkeyPatch.context() as mp:
        if not c_encoder:
            mp.setattr(json.encoder, "c_make_encoder", None)
            mp.setattr(cli, "_dump_at", None)
        check()


@pytest.mark.parametrize("tree", [
    {1: [1.5], 2.5: {}, 0: "x", -3: [[]]},
    {True: [None], False: 2},
    {None: ({"a": 1},)},
    {float("nan"): [1], 1e300: 0.0},
], ids=["int-float", "bool", "none", "nan-key"])
def test_dump_writes_keys_that_are_not_str_as_json_dumps(tree):
    assert cli._dump(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), {1, 2}],
                         ids=["int64", "bool_", "set"])
@pytest.mark.parametrize("where", [
    lambda x: x, lambda x: [1, x], lambda x: {"a": 1, "b": x},
    lambda x: {"a": [], "b": [x, "s"]}, lambda x: [{"k": x}, [2]],
], ids=["top", "leaf-list", "leaf-dict", "nested-dict", "nested-list"])
def test_dump_refuses_what_json_dumps_refuses(value, where):
    with pytest.raises(TypeError):
        json.dumps(where(value), indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._dump(where(value))


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _documented_examples():
    """Every ``staticstar ...`` line of the cli docstring and README's Quick start (CLI)."""
    readme = README.read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start (CLI)", 1)[1].split("```")[1]
    lines = cli.__doc__.splitlines() + quick_start.splitlines()
    return [line.strip() for line in lines if line.strip().startswith("staticstar ")]


@pytest.mark.parametrize("example", _documented_examples())
def test_documented_example_succeeds(capsys, monkeypatch, tmp_path, example):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *shlex.split(example)[1:])
    assert code == 0, err


def _readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


# the quick start's comment states r_b, M and f(0) to four decimals
_STATED_DIGITS = re.compile(r"print\(star\.r_b, star\.mass, star\.f\(0\.0\)\) +# (.+)")


@pytest.mark.parametrize("block", _readme_python_blocks(), ids=lambda b: b.split("\n", 1)[0])
def test_readme_python_block_runs(tmp_path, block):
    out = subprocess.run([sys.executable, "-c", block], env=_fresh_env(), cwd=tmp_path,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    stated = _STATED_DIGITS.search(block)
    if stated is not None:
        printed = out.splitlines()[0].split()
        assert [f"{float(x):.4f}" for x in printed] == stated.group(1).split(", ")


def test_readme_quick_start_states_its_digits():
    assert sum(bool(_STATED_DIGITS.search(b)) for b in _readme_python_blocks()) == 1


# --- exit codes ---------------------------------------------------------------

def test_unknown_model_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "schwarzschild")
    assert code == 1 and "unknown model" in err


def test_bad_model_param(capsys):
    code, _, err = run(capsys, "verify", "wyman:xyz")
    assert code == 1 and "bad model parameter" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tov", "--eos", "constant:c=0.001"),
        # mass builds catalog and TOV models, whose round level spheres need
        # no quadrature: there is no degree to choose
        ("mass", *STAR, "--level", "0.6", "--quad-degree", "5"),
        # each subcommand takes only the shared flags it reads
        ("verify", "wyman", "--out", "x.json"),
        # a catalog model's Lambda is a model parameter, --param lam=...
        ("catalog", "verify", "witten_stellar", "--lam", "0.5"),
        ("audit", "--model", "wyman", "--out", "x.json"),
        ("build", "--phi", "witten", "--abs-tol", "1e-3"),
        ("build", "--phi", "witten", "--grid-n", "64"),
        # the surface threshold is the constant tov.SURFACE_TOL_SCALE
        ("tov", *STAR, "--surface-tol-scale", "1e-10"),
        # no catalog model has a dimension parameter
        ("catalog", "verify", "witten_stellar", "--n", "3"),
        ("catalog", "list", "--n", "3"),
    ],
)
def test_missing_or_unknown_flag(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and "usage:" in err and "Traceback" not in err


# a value that starts with a minus sign, after its flag: the split form parses
# as the '=' form does on every Python, and so reaches the handler
NEGATIVE_VALUES = [
    (("tov", *STAR[:2], "--rho-c"), "-1e-4"),
    (("mass", "--model", "witten_stellar", "--level"), "-1e-3"),
    (("mass", "--model", "witten_stellar", "--level", "0.5", "--window"), "-1,20"),
    (("build", "--span"), "-0.5,5"),
    (("build", "--phi", "unit", "--ic"), "-1,0.5"),
]


@pytest.mark.parametrize("head, value", NEGATIVE_VALUES, ids=[v for _, v in NEGATIVE_VALUES])
def test_a_negative_value_after_its_flag_reads_as_the_equals_form(capsys, head, value):
    split = run(capsys, *head, value)
    joined = run(capsys, *head[:-1], f"{head[-1]}={value}")
    assert split == joined
    assert "usage:" not in split[2] and "expected one argument" not in split[2]


@pytest.mark.parametrize("argv, last_line", [
    (("mass", "--model", "witten_stellar", "--level", "0.5", "--window", "--json"),
     "staticstar mass: error: argument --window: expected one argument"),
    (("mass", *STAR, "--level", "0.6", "--quad-degree", "5"),
     "staticstar: error: unrecognized arguments: --quad-degree 5"),
    (("verify", "wyman", "-x"), "staticstar: error: unrecognized arguments: -x"),
], ids=["flag-after-flag", "unknown-flag", "unknown-short-flag"])
def test_an_option_word_is_still_an_option(capsys, argv, last_line):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.splitlines()[-1] == last_line


def test_catalog_verify_needs_id(capsys):
    code, _, err = run(capsys, "catalog", "verify")
    assert code == 1 and "needs a model id" in err


def test_bad_param_syntax(capsys):
    code, _, err = run(capsys, "catalog", "verify", "wyman", "--param", "R2.5")
    assert code == 1 and "key=value" in err


def test_failed_gate_is_exit_2(capsys, monkeypatch):
    model = catalog.build("schwarzschild_interior", c=0.001)
    piece = model.pieces[0]
    wrong = RadialFunction.constant(0.05, piece.mu_phys.domain)
    model.pieces[0] = dataclasses.replace(piece, mu_phys=wrong)
    monkeypatch.setitem(catalog.MODELS, "broken", lambda **kw: model)
    code, out, _ = run(capsys, "verify", "broken", "--grid-n", "32")
    assert code == 2
    assert "model schwarzschild_interior: FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("tov", "--eos", "constant:c=abc", "--rho-c", "0.0005"),
        ("verify", "wyman:R=x"),
        ("catalog", "verify", "wyman", "--param", "R=x"),
        ("verify", "wyman:Q=1"),
        # witten_stellar is 3-dimensional: it takes no dimension parameter
        ("verify", "witten_stellar:n=3"),
        # non-finite catalog parameters, on every route into catalog.build
        ("verify", "schwarzschild_exterior:M=inf"),
        ("verify", "einstein_static:c=inf"),
        ("verify", "witten_stellar:t_max=nan"),
        ("verify", "schwarzschild_interior:c=nan"),
        ("catalog", "verify", "witten_stellar", "--param", "t_max=nan"),
        ("mass", "--model", "einstein_static:c=inf", "--level", "0.5"),
        ("audit", "--model", "schwarzschild_exterior:M=inf"),
        # a conformal span that is not finite and increasing
        ("build", "--phi", "witten", "--span", "5,1"),
        ("build", "--phi", "witten", "--span", "0,nan"),
        ("build", "--phi", "unit", "--span", "0,inf"),
        # a span starting below u = -C/(4 tau), where witten's level sets are empty
        ("build", "--phi", "witten", "--span=-0.5,5"),
        # a non-finite level, or a scan window that is not finite and increasing
        ("mass", "--model", "schwarzschild_exterior", "--level", "0.6", "--window", "5,1"),
        ("mass", *STAR, "--level", "0.6", "--window", "1,inf"),
        ("mass", "--model", "schwarzschild_exterior", "--level", "nan"),
        # non-finite numbers on the build and tov routes
        ("build", "--phi", "witten", "--lam", "nan", "--json"),
        ("build", "--phi", "witten", "--ic", "nan,0"),
        ("tov", "--eos", "constant:c=nan", "--rho-c", "5e-4"),
        ("tov", "--eos", "constant:c=0.001", "--rho-c", "inf"),
        # mass and audit take one model source: --model, or --eos with --rho-c
        ("mass", "--model", "schwarzschild_exterior:M=1", *STAR, "--level", "0.5"),
        ("mass", "--model", "schwarzschild_exterior:M=1", "--rho-c", "5e-4", "--level", "0.5"),
        ("audit", "--model", "wyman", *STAR),
        ("audit", "--model", "wyman", "--eos", "constant:c=0.001"),
        # a catalog model runs no integrator: its tolerances are not read
        ("audit", "--model", "wyman", "--json", "--abs-tol", "1e-3"),
        ("audit", "--model", "wyman", "--rel-tol", "1e-5"),
        ("mass", "--model", "schwarzschild_exterior:M=1", "--level", "0.5", "--abs-tol", "1e-3"),
        # catalog list reads none of the arguments of catalog verify
        ("catalog", "list", "--grid-n", "64"),
        ("catalog", "list", "wyman"),
        ("catalog", "list", "--param", "R=2", "--json"),
    ],
)
def test_malformed_spec_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: ")


def test_a_small_grid_is_refused_in_the_library_edges_words(capsys):
    code, _, err = run(capsys, "tov", *STAR, "--grid-n", "4")
    assert code == 1
    assert err == "error: a grid needs an integer number of points, at least 8; got 4\n"


@pytest.mark.parametrize("argv", [
    ("audit", "--model", "gamma_zero", "--grid-n", "1000000000"),
    ("verify", "wyman", "--grid-n", str(numerics.GRID_N_MAX + 1)),
    ("tov", *STAR, "--grid-n", str(numerics.GRID_N_MAX + 1)),
], ids=["audit-1e9", "verify-cap-plus-one", "tov-cap-plus-one"])
def test_a_huge_grid_is_refused_before_it_is_allocated(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: a grid takes at most {numerics.GRID_N_MAX} points; got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    ("tov", "--eos", "constant:C=0.001", "--rho-c", "5e-4"),
    ("tov", "--eos", "constant:c=0.001,k=3", "--rho-c", "5e-4"),
    ("verify", "wyman:R=2,R=3"),
    ("catalog", "verify", "wyman", "--param", "R=2", "--param", "R=3"),
    ("verify", "wyman:model_id=3"),
    ("audit", "--model", "wyman:R=1e100,M=1"),
    ("verify", "witten_stellar:t_max=1e6"),
], ids=["eos-unknown-key-C", "eos-unknown-key-k", "repeated-key", "repeated-param",
        "build-argument-as-key", "wyman-R-overflows", "witten-t_max-overflows"])
def test_a_spec_has_one_grammar(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err


def test_param_items_join_the_spec(capsys):
    joined = run(capsys, "catalog", "verify", "wyman", "--param", "R=2.5", "--param", "M=0.3",
                 "--json")
    assert joined[0] == 0 and joined == run(capsys, "verify", "wyman:R=2.5,M=0.3", "--json")
    # a --param holding a comma reads as two items
    assert run(capsys, "catalog", "verify", "wyman", "--param", "R=2.5,M=0.3", "--json") == joined


def test_unknown_parameter_names_the_accepted_ones(capsys):
    code, _, err = run(capsys, "verify", "wyman:Q=1")
    assert code == 1 and "'Q'" in err and "R, M" in err


def test_level_at_lapse_maximum_is_exit_3(capsys):
    code, _, err = run(capsys, "mass", "--model", "witten_stellar", "--level", "1.0")
    assert code == 3 and "NotARegularValue" in err


def test_nan_from_the_eos_is_exit_3(capsys, monkeypatch):
    # no EOS spec gives a NaN, so the spec parser is stood in for
    eos = tov.Custom(lambda rho: np.where(np.asarray(rho) < 2e-4, np.nan, 1e-3))
    monkeypatch.setattr(tov.EquationOfState, "from_spec", staticmethod(lambda spec: eos))
    code, _, err = run(capsys, "tov", *STAR)
    assert code == 3 and "DomainError" in err and "non-finite mu" in err


def test_mass_window_and_level_order(capsys):
    code, out, _ = run(capsys, "mass", "--model", "witten_stellar", "--level", "0.6",
                       "--level", "0.3", "--window", "0.05,1.5", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [row["level"] for row in rows] == [0.6, 0.3]
    assert all(row["r"] <= 1.5 for row in rows)


def test_no_level_set_is_exit_3(capsys):
    code, _, err = run(capsys, "mass", "--model", "schwarzschild_exterior:M=1",
                       "--level", "2.0")
    assert code == 3 and "NoLevelSet" in err


def test_bad_output_path_is_exit_4(capsys):
    code, _, err = run(capsys, "tov", *STAR, "--out", "/no/such/dir/star.csv")
    assert code == 4 and "i/o error" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# --- configuration ------------------------------------------------------------

def test_config_file_applies(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[staticstar]\ngrid_n = 64\n")
    code, out, _ = run(capsys, "audit", "--model", "schwarzschild_interior:c=0.001",
                       "--config", str(cfg), "--json")
    assert code == 0
    assert json.loads(out)["n_points"] == 64


def test_cli_flag_beats_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[staticstar]\ngrid_n = 64\n")
    code, out, _ = run(capsys, "audit", "--model", "schwarzschild_interior:c=0.001",
                       "--config", str(cfg), "--grid-n", "32", "--json")
    assert code == 0
    assert json.loads(out)["n_points"] == 32


def test_config_tolerances_are_shared_by_catalog_models(capsys, tmp_path):
    # a config file serves every subcommand, so a catalog model ignores its tolerances
    cfg = tmp_path / "run.ini"
    cfg.write_text("[staticstar]\nabs_tol = 1e-3\nrel_tol = 1e-5\n")
    argv = ("audit", "--model", "wyman", "--json")
    assert run(capsys, *argv, "--config", str(cfg)) == run(capsys, *argv)


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "audit", "--model", "schwarzschild_interior:c=0.001",
                       "--config", "/no/such/config.ini")
    assert code == 4


@pytest.mark.parametrize("key", ["grid_m", "quad_degree", "surface_tol_scale"])
def test_unknown_config_key(capsys, tmp_path, key):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[staticstar]\n{key} = 64\n")
    code, _, err = run(capsys, "audit", "--model", "schwarzschild_interior:c=0.001",
                       "--config", str(cfg))
    assert code == 1 and key in err


# --- shared flags ---------------------------------------------------------------

# the shared flags each subcommand takes: exactly those its handler reads
SHARED_FLAGS = {
    "tov": {"--config", "--json", "--grid-n", "--abs-tol", "--rel-tol", "--out"},
    "mass": {"--config", "--json", "--grid-n", "--abs-tol", "--rel-tol", "--out"},
    "audit": {"--config", "--json", "--grid-n", "--abs-tol", "--rel-tol"},
    "catalog": {"--config", "--json", "--grid-n"},
    "verify": {"--config", "--json", "--grid-n"},
    "build": {"--config", "--json", "--lam"},
}
ALL_SHARED = set().union(*SHARED_FLAGS.values()) | {"--surface-tol-scale"}


def test_each_subcommand_takes_only_the_shared_flags_it_reads():
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SHARED_FLAGS)
    for name, expected in SHARED_FLAGS.items():
        taken = {s for a in sub.choices[name]._actions for s in a.option_strings}
        assert taken & ALL_SHARED == expected, name


def _dip_eos(tmp_path):
    """A table EOS with mu < 0 on 1e-4 < rho < 2e-4: the energy conditions
    first fail inside the star, at a radius that moves with the solution."""
    rows = [(-5e-4 + i * 2.5e-5, 1e-3) for i in range(51)]
    rows = [(x, -0.25 * x if 1e-4 < x < 2e-4 else y) for x, y in rows]
    path = tmp_path / "dip.csv"
    path.write_text("rho,mu\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    return ["--eos", f"table:{path}", "--rho-c", "5e-4"]


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for command, flags in SHARED_FLAGS.items() for flag in sorted(flags)],
)
def test_every_shared_flag_changes_a_result(capsys, monkeypatch, tmp_path, command, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text("[staticstar]\ngrid_n = 64\nlam = 0.5\n")
    base = {
        "tov": ["tov", *STAR],
        "mass": ["mass", *STAR, "--level", "0.7"],
        "audit": ["audit", *_dip_eos(tmp_path)],
        "catalog": ["catalog", "verify", "wyman"],
        "verify": ["verify", "wyman"],
        "build": ["build", "--phi", "witten"],
    }[command]
    value = {"--config": ["run.ini"], "--json": [], "--grid-n": ["64"], "--abs-tol": ["1e-6"],
             "--rel-tol": ["1e-5"], "--out": ["out.csv"], "--lam": ["0.5"]}[flag]
    if flag != "--json":
        base.append("--json")

    def result(*argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        return out, sorted(os.listdir(tmp_path))

    before = result(*base)
    assert result(*base, flag, *value) != before


# --- one parser per process ---------------------------------------------------

def _fresh_parser_run(capsys, *argv):
    cli._build_parser.cache_clear()
    return run(capsys, *argv)


def test_param_from_one_call_does_not_reach_the_next(capsys):
    argv = ("catalog", "verify", "witten_stellar", "--json")
    fresh = _fresh_parser_run(capsys, *argv)
    with_param = run(capsys, *argv, "--param", "A=2")
    assert with_param[0] == 0 and with_param[1] != fresh[1]
    assert run(capsys, *argv) == fresh


def test_levels_from_one_call_do_not_reach_the_next(capsys):
    model = ("--model", "schwarzschild_exterior:M=1", "--json")
    code, out, _ = run(capsys, "mass", *model, "--level", "0.1", "--level", "0.5")
    assert code == 0 and len(json.loads(out)) == 2
    code, out, _ = run(capsys, "mass", *model, "--level", "0.3")
    assert code == 0
    assert [row["level"] for row in json.loads(out)] == [0.3]


def test_config_from_one_call_does_not_reach_the_next(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[staticstar]\ngrid_n = 96\n")
    argv = ("audit", "--model", "schwarzschild_interior:c=0.001", "--json")
    code, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0 and json.loads(out)["n_points"] == 96
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["n_points"] == RunConfig().grid_n


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _fresh_parser_run(capsys, "catalog", "list")
    per_tree = len(built)
    assert per_tree > 0
    for _ in range(9):
        run(capsys, "catalog", "list")
    assert len(built) == per_tree


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "wyman", "--grid-n", "48", "--json"),
        ("verify", "wyman", "--grid-n", "48"),
        ("--help",),
        ("mass", "--help"),
    ],
)
def test_repeated_argv_gives_identical_bytes(capsys, argv):
    first = _fresh_parser_run(capsys, *argv)
    assert first[0] == 0 and first[1]
    for _ in range(3):
        assert run(capsys, *argv) == first


def test_usage_error_repeats(capsys):
    argv = ("mass", "--model", "schwarzschild_exterior:M=1")
    first = _fresh_parser_run(capsys, *argv)
    assert first[0] == 1 and "--level" in first[2]
    for _ in range(3):
        assert run(capsys, *argv) == first



# --- a subcommand's line through its own parser ----------------------------------

ROOT = pathlib.Path(__file__).resolve().parents[1]

# command lines whose parse both routes must agree on: every subcommand, help
# and abbreviations, missing and repeated values, '--', a negative value,
# unrecognized flags, and the lines that still go through the top-level parser
PARSE_CORPUS = [
    ("tov", *STAR),
    ("tov", *STAR, "--json", "--grid-n", "64"),
    ("tov", "--eos", "constant:c=0.001"),
    ("tov", "--eos"),
    ("tov", *STAR, "--abs-tol", "inf"),
    ("tov", *STAR, "--rel-tol", "inf"),
    ("catalog", "list"),
    ("catalog", "list", "--json"),
    ("catalog", "verify", "witten_stellar", "--param", "B=1.0", "--param", "A=0.5",
     "--grid-n", "48"),
    ("catalog",),
    ("catalog", "show"),
    ("catalog", "verify", "--param"),
    ("verify", "wyman", "--grid-n", "96", "--json"),
    ("verify", "wyman", "--gri", "48"),
    ("verify", "wyman", "--grid-n=48"),
    ("verify", "wyman", "--grid-n"),
    ("verify", "wyman", "--grid-n", "4.5"),
    ("verify", "wyman", "--grid-n", "48", "--grid-n", "64"),
    ("verify", "wyman", "--json", "--json"),
    ("verify",),
    ("verify", "wyman", "--out", "x.json"),
    ("verify", "wyman", "extra"),
    ("verify", "wyman", "-x"),
    ("verify", "--", "wyman"),
    ("verify", "wyman", "--config"),
    ("verify", "-h"),
    ("verify", "--he"),
    ("mass", "--model", "schwarzschild_exterior:M=1", "--level", "0.5"),
    ("mass", "--model", "schwarzschild_exterior:M=1", "--level", "0.1", "--level", "0.5",
     "--json"),
    ("mass", "--model", "schwarzschild_exterior:M=1", "--level", "-0.5"),
    ("mass", "--model", "schwarzschild_exterior:M=1"),
    ("mass", "--level", "0.5"),
    ("mass", "--model", "witten_stellar", "--level", "0.6", "--window", "0.05,1.5"),
    ("mass", "--help"),
    ("audit", "--model", "witten_stellar"),
    ("audit", "--model", "wyman", "--abs-tol", "1e-3"),
    ("audit", *STAR, "--json"),
    ("build", "--phi", "witten", "--json"),
    ("build", "--phi", "witten", "--span=-0.5,5"),
    ("build", "--phi", "witten", "--span", "-0.5,5"),
    ("build", "--phi", "witten", "--lam", "-0.5", "--json"),
    *[(*head, value) for head, value in NEGATIVE_VALUES],
    ("build", "--n", "x"),
    (),
    ("--help",),
    ("-h",),
    ("--he",),
    ("bogus",),
    ("bogus", "--json"),
    ("Verify", "wyman"),
    ("--json", "verify", "wyman"),
    ("-h", "verify"),
    ("--", "verify", "wyman"),
]


def _ci_usage_errors():
    """The command lines of CI's usage-error loop in the "Console script" step."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = text.split("# malformed input is a usage error", 1)[1]
    loop = step[step.index("for argv in "):step.index("; do")]
    return [tuple(line.split()) for line in shlex.split(loop.replace("\\\n", " "))[3:]]


def _workload_argvs(workdir):
    """The command lines of the benchmark's three workloads at seeds 1 and 7."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [req.argv for name in workloads.WORKLOADS for seed in (1, 7)
            for req in workloads.generate(name, seed, str(workdir)) if req.argv is not None]


def _parsed(parse, argv):
    """The namespace ``parse`` fills from ``argv`` (repr, so that NaN equals
    itself), or the code it exits with."""
    try:
        return repr(sorted(vars(parse(list(argv))).items()))
    except SystemExit as exc:
        return exc.code


def test_a_subcommand_line_parses_as_the_whole_tree_parses_it(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    corpus = PARSE_CORPUS + _ci_usage_errors() + _workload_argvs(tmp_path)
    assert len(corpus) > 100
    parser = cli._build_parser()
    for argv in corpus:
        assert (_parsed(lambda a: cli._parse_args(parser, a), argv)
                == _parsed(parser.parse_args, argv)), argv
    capsys.readouterr()
    ours = [run(capsys, *argv) for argv in corpus]
    monkeypatch.setattr(cli, "_parse_args", lambda parser, argv: parser.parse_args(argv))
    for argv, got in zip(corpus, ours):
        assert got == run(capsys, *argv), argv
    assert {code for code, _, _ in ours} == {0, 1, 3}


def test_argv_none_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["staticstar", "verify", "wyman", "--grid-n", "48"])
    code = main()
    assert (code, *capsys.readouterr()) == run(capsys, "verify", "wyman", "--grid-n", "48")


def test_only_lines_without_a_leading_subcommand_run_the_top_level_parser(capsys, monkeypatch):
    parser = cli._build_parser()
    calls = []
    parse_known_args = parser.parse_known_args

    def counting(*args, **kwargs):
        calls.append(args)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counting)
    assert run(capsys, "verify", "wyman", "--grid-n", "48", "--json")[0] == 0
    assert run(capsys, "catalog", "list")[0] == 0
    code, _, err = run(capsys, "verify", "wyman", "--out", "x.json")
    assert code == 1 and err.startswith("usage: staticstar [-h]")
    assert err.endswith("staticstar: error: unrecognized arguments: --out x.json\n")
    assert calls == []
    for argv in (("--help",), ("bogus",), ()):
        run(capsys, *argv)
    assert len(calls) == 3


# --- import footprint -----------------------------------------------------------

def _fresh_env():
    """The environment of a fresh interpreter that imports staticstar from this tree."""
    src = os.path.dirname(os.path.dirname(staticstar.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _fresh_python(code, *args):
    """Runs ``code`` in a fresh interpreter that imports staticstar from this tree."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_fresh_env(),
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("body", ["rho,mu\n", ""], ids=["header-only", "empty"])
def test_a_table_with_no_rows_prints_one_error_line(tmp_path, body):
    # in a fresh interpreter, so that a warning numpy prints would reach stderr
    path = tmp_path / "eos.csv"
    path.write_text(body)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from staticstar.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "tov", "--eos", f"table:{path}", "--rho-c", "5e-4"],
        env=_fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: table EOS {str(path)!r} has no rows\n"


@pytest.mark.parametrize("name,how", [
    ("abs_tol", "flag"), ("rel_tol", "flag"), ("abs_tol", "config"), ("rel_tol", "config"),
])
def test_an_infinite_tolerance_is_refused_without_a_warning(tmp_path, name, how):
    # an infinite abs_tol takes rho and m out of the step-size control, and an
    # infinite rel_tol made numpy warn before the integrator failed
    if how == "flag":
        extra = ["--" + name.replace("_", "-"), "inf"]
    else:
        (tmp_path / "run.ini").write_text(f"[staticstar]\n{name} = inf\n")
        extra = ["--config", str(tmp_path / "run.ini")]
    proc = subprocess.run([sys.executable, "-m", "staticstar.cli", "tov", *STAR, *extra],
                          env=_fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {name} must be finite, got inf\n"


def _table_eos(tmp_path):
    """A ``table:`` twin of constant:c=0.001, reaching below rho = 0."""
    path = tmp_path / "twin.csv"
    path.write_text("rho,mu\n" + "".join(f"{-5e-4 + i * 1.25e-3 / 39!r},0.001\n"
                                          for i in range(40)))
    return f"table:{path}"


# Runs each argv through cli.main in one fresh interpreter, in order, and
# prints the exit code and the scipy modules loaded after each.
FOOTPRINT = """
import contextlib, io, json, sys
from staticstar import cli
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out.append((code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print(json.dumps(out))
"""

NO_ODE_COMMANDS = (
    ["verify", "wyman"],
    ["catalog", "verify", "wyman"],
    ["audit", "--model", "wyman"],
    ["mass", "--model", "witten_stellar", "--level", "0.5"],
    ["build", "--phi", "witten"],
)


def test_commands_without_an_ode_import_no_scipy(tmp_path):
    # the ODE commands too: the integrator and the fits are numpy code
    argvs = [*NO_ODE_COMMANDS, ["tov", *STAR], ["mass", *STAR, "--level", "0.6"],
             ["audit", "--eos", _table_eos(tmp_path), "--rho-c", "0.0005"]]
    for argv, (code, loaded) in zip(argvs, _fresh_python(FOOTPRINT, json.dumps(argvs))):
        assert (code, loaded) == (0, []), argv


# scipy made unimportable, then a table star, a custom conformal factor and a
# CSV export
WITHOUT_SCIPY = """
import contextlib, io, json, math, os, sys
sys.modules["scipy"] = None
import numpy as np
from staticstar import cli, conformal, tov
from staticstar.numerics import RadialFunction
table, work = sys.argv[1:]
codes = []
for argv in (["tov", "--eos", table, "--rho-c", "0.0005", "--json"],
             ["mass", "--eos", table, "--rho-c", "0.0005", "--level", "0.6", "--json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
phi = RadialFunction.from_formula(lambda u: np.sqrt(1.0 + u), (-1.0 + 1e-9, math.inf))
f = conformal.solve_lapse(phi, 3, (0.0, 10.0), (1.0, 0.2))
star = tov.integrate_tov(tov.ConstantDensity(0.001), 0.0005)
path = os.path.join(work, "star.csv")
tov.profile_to_csv(star, path)
with open(path, encoding="utf-8") as fh:
    header = fh.readline().strip()
rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
print(json.dumps({"codes": codes, "f": [f(5.0), f.d1(5.0), f.d2(5.0)], "header": header,
                  "same": rows.tobytes() == star.samples.tobytes(),
                  "ends": [rows[-1, 0], star.r_end, star.surface_event_r]}))
"""


def test_ode_paths_run_without_scipy(tmp_path):
    out = _fresh_python(WITHOUT_SCIPY, _table_eos(tmp_path), str(tmp_path))
    assert out["codes"] == [0, 0]
    assert all(math.isfinite(x) for x in out["f"])
    # the table is the profile's samples, and ends on the star's surface
    assert out["header"] == ",".join(tov.CSV_COLUMNS) and out["same"] is True
    last_r, r_end, surface_r = out["ends"]
    assert last_r == r_end == surface_r
