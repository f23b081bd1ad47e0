"""Command-line interface.

Exit codes: 0 success; 1 usage or bad parameters; 2 a verification gate
failed (residuals above tolerance, failed build checks); 3 a mathematical or
integration failure (horizon hit, no surface, no level set, step failure,
domain errors); 4 I/O failure.

Each subcommand takes only the shared flags it reads (a catalog model takes
its Lambda as ``--param lam=...`` or ``id:lam=...``, not as ``--lam``)::

    tov, mass        --config --json --grid-n --abs-tol --rel-tol --out
    audit            --config --json --grid-n --abs-tol --rel-tol
    catalog, verify  --config --json --grid-n
    build            --config --json --lam

``mass``/``audit`` with ``--model`` refuse ``--abs-tol``/``--rel-tol``, and
``catalog list`` refuses a model id, ``--param`` and ``--grid-n``:
neither runs what those flags tune.

A command line whose first word names a subcommand is parsed by that
subcommand's own parser alone; what it leaves over is refused with the
top-level usage line, as the whole tree refuses it.  Every other command line
goes through the top-level parser: no arguments, ``-h``/``--help``, an
unknown subcommand, an option before the subcommand, and ``argv=None``
(``sys.argv[1:]``).  Both routes print the same bytes and exit alike.  A
word that starts with a minus sign and a digit, or a minus sign, a dot and a
digit (``--rho-c -1e-4``, ``--span -0.5,5``), is a value, read as its
``--flag=value`` form is, on every Python version.

Examples
--------
::

    staticstar tov --eos constant:c=0.001 --rho-c 0.0005 --out star.csv
    staticstar catalog list
    staticstar catalog verify witten_stellar --param B=1.0
    staticstar verify wyman:R=2,M=0.2 --json
    staticstar mass --model schwarzschild_exterior:M=1 --level 0.5 --json
    staticstar audit --eos constant:c=0.001 --rho-c 0.0005
    staticstar build --phi witten --n 3 --span 0,10
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import catalog, conformal, energy, quasilocal, tov
from .config import RunConfig, load_config, merge_config
from .errors import BadParams, NoLevelSet, StaticStarError, UnknownModel

__all__ = ["main"]


def _fmt(x) -> str:
    return repr(float(x))


def _dump(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``.

    ``indent`` sends ``json.dumps`` through its pure-Python encoder.  Here
    only the dicts and lists that hold a container are walked in Python; every
    other container, and each run of scalar-valued keys of a dict, is one call
    of the C encoder.
    """
    if json.encoder.c_make_encoder is None:
        return json.dumps(obj, indent=2, sort_keys=True)
    return _dump_at(obj, 0)


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _c_encoder(depth: int):
    """(C encoder, newline and indent) of a container at ``depth``: the
    encoder sorts keys and separates items by a newline and the indent of
    ``depth + 1``."""
    pad = "\n" + "  " * depth
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", "," + pad + "  ", True, False, True), pad


def _dump_at(obj, depth: int) -> str:
    enc, pad = _c_encoder(depth)
    if isinstance(obj, dict):
        values, bra, ket = obj.values(), "{", "}"
    elif isinstance(obj, (list, tuple)):
        values, bra, ket = obj, "[", "]"
    else:
        return "".join(enc(obj, depth))
    if not obj:
        return bra + ket
    if not any(isinstance(v, _CONTAINERS) for v in values):
        return bra + pad + "  " + "".join(enc(obj, depth))[1:-1] + pad + ket
    parts = []
    if bra == "{":
        run = {}
        for k, v in sorted(obj.items()):
            if isinstance(v, _CONTAINERS):
                if run:
                    parts.append("".join(enc(run, depth))[1:-1])
                    run = {}
                # a key that is not a str as the C encoder writes it: '{KEY: null}'
                key = (json.encoder.encode_basestring_ascii(k) if type(k) is str
                       else "".join(enc({k: None}, depth))[1:-7])
                parts.append(key + ": " + _dump_at(v, depth + 1))
            else:
                run[k] = v
    else:
        run = []
        for v in obj:
            if isinstance(v, _CONTAINERS):
                if run:
                    parts.append("".join(enc(run, depth))[1:-1])
                    run = []
                parts.append(_dump_at(v, depth + 1))
            else:
                run.append(v)
    if run:
        parts.append("".join(enc(run, depth))[1:-1])
    return bra + pad + "  " + ("," + pad + "  ").join(parts) + pad + ket


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise BadParams(f"{what} must be two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise BadParams(f"{what} must be numeric, got {text!r}") from exc


# ----------------------------------------------------------------------------
# model sources shared by mass/audit
# ----------------------------------------------------------------------------

def _tov_model(args, cfg: RunConfig) -> tov.StellarModel:
    eos = tov.EquationOfState.from_spec(args.eos)
    opts = tov.SolverOptions(abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol, grid_n=cfg.grid_n)
    profile = tov.integrate_tov(eos, args.rho_c, opts)
    r_b = tov.detect_surface(profile)
    return tov.match_exterior(profile, r_b)


def _resolve_model(args, cfg: RunConfig):
    if args.model:
        if args.eos or args.rho_c is not None:
            raise BadParams("give --model or --eos/--rho-c, not both")
        if args.abs_tol is not None or args.rel_tol is not None:
            raise BadParams("--abs-tol/--rel-tol tune the TOV integrator; "
                            "a catalog --model runs none")
        return catalog.parse_model_spec(args.model)
    if args.eos:
        if args.rho_c is None:
            raise BadParams("--eos also needs --rho-c")
        return _tov_model(args, cfg)
    raise BadParams("give a model with --model ID[:k=v,...] or --eos/--rho-c")


# ----------------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------------

def _cmd_tov(args, cfg: RunConfig) -> int:
    model = _tov_model(args, cfg)
    prof = model.profile
    if args.out:
        tov.profile_to_csv(prof, args.out)
    payload = {
        "eos": args.eos,
        "rho_center": args.rho_c,
        "r_b": model.r_b,
        "mass": model.mass,
        "f_center": prof.f(prof.R_START),
        "samples": prof.grid_n,
        "negative_density_seen": prof.negative_density_seen,
        "out": args.out,
    }
    if args.json:
        print(_dump(payload))
    else:
        print(f"surface radius r_b = {_fmt(model.r_b)}")
        print(f"total mass       M = {_fmt(model.mass)}")
        print(f"central lapse    f = {_fmt(payload['f_center'])}")
        if args.out:
            print(f"profile written to {args.out}")
    return 0


def _cmd_catalog(args, cfg: RunConfig) -> int:
    if args.action == "list":
        unread = [name for name, given in (
            ("model id", args.catalog_model), ("--param", args.param),
            ("--grid-n", args.grid_n is not None)) if given]
        if unread:
            raise BadParams(f"catalog list takes no {', '.join(unread)}; catalog verify does")
        ids = sorted(catalog.MODELS)
        if args.json:
            print(_dump({"models": ids}))
        else:
            for mid in ids:
                print(mid)
        return 0
    # action == "verify"
    if not args.catalog_model:
        raise BadParams("catalog verify needs a model id")
    # each --param is one more item of the spec ID:key=value,...
    params = ",".join(args.param or ())
    model = catalog.parse_model_spec(f"{args.catalog_model}:{params}" if params
                                     else args.catalog_model)
    return _print_verify(model, args, cfg)


def _print_verify(model, args, cfg: RunConfig) -> int:
    result = model.verify(grid_n=cfg.grid_n)
    if args.json:
        print(_dump(result.to_json_dict()))
    else:
        print(f"model {result.model_id}: {'PASS' if result.passed else 'FAIL'}")
        for name, rep in result.reports.items():
            status = "ok  " if rep.passed else "FAIL"
            print(f"  {status} {name}  worst={rep.worst:.3e}  tol={rep.tol:g}")
        for where, val in result.junction.items():
            print(f"  junction {where}: {val:.3e}")
        for note in result.notes:
            print(f"  note: {note}")
    return 0 if result.passed else 2


def _cmd_verify(args, cfg: RunConfig) -> int:
    model = catalog.parse_model_spec(args.model)
    return _print_verify(model, args, cfg)


def _cmd_mass(args, cfg: RunConfig) -> int:
    model = _resolve_model(args, cfg)
    levels = [float(c) for c in args.level]
    window = _parse_pair(args.window, "--window") if args.window else None
    reports = quasilocal.mass_sweep(
        model, levels, grid_n=max(cfg.grid_n, 256), window=window,
    )
    if not reports:
        raise NoLevelSet(f"no level sets found for levels {levels}")
    if args.out:
        quasilocal.write_sweep_csv(reports, args.out)
    if args.json:
        print(_dump([rep.to_json_dict() for rep in reports]))
    else:
        for rep in reports:
            print(
                f"c={_fmt(rep.level)} r={_fmt(rep.r)} "
                f"m_hawking={_fmt(rep.m_hawking)} m_brown_york={_fmt(rep.m_brown_york)} "
                f"class={rep.classification.value}"
            )
        if args.out:
            print(f"sweep written to {args.out}")
    return 0


def _cmd_audit(args, cfg: RunConfig) -> int:
    model = _resolve_model(args, cfg)
    scan = energy.scan_model(model, n=cfg.grid_n)
    if args.json:
        print(_dump(scan.to_json_dict()))
    else:
        for name in ("wec", "nec", "dec"):
            print(f"{name.upper()}: {'satisfied' if getattr(scan, name) else 'violated'}")
        if scan.first_violation is not None:
            name, r = scan.first_violation
            print(f"first violation: {name.upper()} at r = {_fmt(r)}")
    return 0


def _cmd_build(args, cfg: RunConfig) -> int:
    ic = _parse_pair(args.ic, "--ic") if args.ic else None
    span = _parse_pair(args.span, "--span") if args.span else (0.0, 10.0)
    model = conformal.build_model(args.phi, n=args.n, ic=ic, lam=cfg.lam, span=span)
    if args.json:
        payload = {
            "label": model.label,
            "n": model.n,
            "lam": model.lam,
            "domain": list(model.domain),
            "truncated": model.truncated,
            "degenerate": model.degenerate,
            "passed": model.passed,
            "checks": {name: rep.to_json_dict() for name, rep in model.checks.items()},
        }
        print(_dump(payload))
    else:
        print(f"conformal model {model.label!r} on u in [{_fmt(model.domain[0])}, "
              f"{_fmt(model.domain[1])}]: {'PASS' if model.passed else 'FAIL'}")
        for name, rep in model.checks.items():
            status = "ok  " if rep.passed else "FAIL"
            print(f"  {status} {name}  worst={rep.worst:.3e}  tol={rep.tol:g}")
        if model.truncated:
            print("  note: lapse lost positivity; domain truncated")
    return 0 if model.passed else 2


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every ``main`` call.

    ``parse_args`` fills a fresh namespace on each call and leaves the parser
    as it was, so one tree serves every request in a process.
    """
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", help="config file ([staticstar] key = value)")
    base.add_argument("--json", action="store_true", help="machine-readable output")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file path")
    tols = argparse.ArgumentParser(add_help=False)
    tols.add_argument("--abs-tol", type=float,
                      help="absolute tolerance of the TOV integrator (tov; mass, audit with --eos)")
    tols.add_argument("--rel-tol", type=float,
                      help="relative tolerance of the TOV integrator (tov; mass, audit with --eos)")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-n", type=int,
                      help="TOV profile rows (tov; mass, audit with --eos), residual grid "
                           "(verify, catalog verify), scan points (audit; mass scans at "
                           "least 256)")
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lam", type=float, help="cosmological constant of the built model")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--model", help="catalog model spec id[:k=v,...]")
    source.add_argument("--eos", help="equation of state (integrated star source)")
    source.add_argument("--rho-c", type=float)

    parser = argparse.ArgumentParser(
        prog="staticstar",
        description="Static perfect-fluid stellar models: integration, "
                    "exact-solution checks, quasi-local masses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tov", parents=[base, out, tols, grid],
                       help="integrate an interior model from an equation of state")
    p.add_argument("--eos", required=True,
                   help="constant:c=..., chaplygin:c=..., or table:path.csv")
    p.add_argument("--rho-c", type=float, required=True, dest="rho_c",
                   help="central pressure value")
    p.set_defaults(handler=_cmd_tov)

    p = sub.add_parser("catalog", parents=[base, grid], help="exact-solution catalog")
    p.add_argument("action", choices=("list", "verify"))
    p.add_argument("catalog_model", nargs="?", help="model id (for verify)")
    p.add_argument("--param", action="append", help="extra key=value model parameter")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("verify", parents=[base, grid],
                       help="verify a catalog model given as id[:k=v,...]")
    p.add_argument("model")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("mass", parents=[base, out, tols, grid, source],
                       help="quasi-local masses on lapse level sets")
    p.add_argument("--level", action="append", required=True, type=float,
                   help="lapse level c (repeatable)")
    p.add_argument("--window", help="scan window lo,hi in the radial variable")
    p.set_defaults(handler=_cmd_mass)

    p = sub.add_parser("audit", parents=[base, tols, grid, source],
                       help="energy-condition scan (WEC / NEC / DEC)")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("build", parents=[base, lam],
                       help="build and validate a conformally flat model")
    p.add_argument("--phi", default="witten",
                   help="'witten', 'unit' (closed-form presets)")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--ic", help="initial lapse data f,f' at span start")
    p.add_argument("--span", help="invariant span lo,hi (default 0,10)")
    p.set_defaults(handler=_cmd_build)

    # A word that starts with a minus sign and then a digit, or a dot and a
    # digit, is a value (-1e-4, -0.5,5), never an option: no option of the
    # tree starts with a digit.  Argparse's own test for a negative number
    # differs between Python versions; 3.11's takes only plain decimals.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """``parser.parse_args(argv)``, without the top-level pass when ``argv[0]``
    names a subcommand: the whole tree would hand every later argument to that
    subcommand's parser unread, and refuse what it leaves over."""
    if argv:
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        subparser = sub.choices.get(argv[0])
        if subparser is not None:
            args, extras = subparser.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse_args(parser, argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        file_overrides = load_config(args.config) if args.config else None
        cfg = merge_config(
            file_overrides,
            {key: getattr(args, key, None) for key in ("abs_tol", "rel_tol", "grid_n", "lam")},
        )
        return args.handler(args, cfg)
    except (BadParams, UnknownModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StaticStarError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
