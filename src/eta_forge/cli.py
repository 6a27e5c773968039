"""Command-line surface with machine-readable output.

Every computational operation of the library is reachable as a
subcommand; results are wrapped in a JSON envelope (schema below) or, for
scan/list commands, CSV rows.  Numeric payload values carry their error
bound whenever the underlying operation produces one, and complex numbers
are serialized as {"re": <decimal string>, "im": <decimal string>} at
full working precision so nothing is lost through float JSON.

Envelope:
    {"schema_version": "1.0", "command": "...",
     "parameters": {...}, "results": {...}, "diagnostics": {...}}

Exit codes: 0 success, 1 computational error (structured error object on
stdout), 2 usage error.  Output is strict JSON: a result or bound that is
not finite becomes a RangeError object with exit code 1, and non-finite
numeric arguments are usage errors.

Settings and commands are each described once.  SETTINGS holds each global
setting's value parser, default and flag help; COMMANDS holds each (group,
command)'s handler, help, arguments and CSV columns.  A setting comes from
its flag, else its ETA_FORGE_* variable, else a key=value config file
(--config or ETA_FORGE_CONFIG), else its default.  All three go through its
parser, and a bad value in any of them exits 2, even where a higher source
overrides it.  --precision-bits and --tol form one PrecisionContext on both
tiers, so a --tol the precision cannot meet exits 2.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from . import __version__
from .errors import EtaForgeError, RangeError
from .finite_eta import Family, FiniteEtaSpec, evaluate, trivial_zero_report
from .hasse_global import eta_global, functional_equation_residual, refine_zero, zeta_global
from .kernel_integrals import integrate_L, verify_identity
from .numerics import FAST_BITS, ComplexPoint, PrecisionContext, _mpmath, _workprec
from .proto_zeros import ScanConfig, default_step, planck_resolution, proto_cloud, scan_line
from .weyl_algebra import UnitPhase, lemma_suite, normal_order, rest_frames
from .weyl_powers import clifford_contains, equilibrium_identity_check, pi_s

mp = _mpmath(globals())

SCHEMA_VERSION = "1.0"
ENV_PREFIX = "ETA_FORGE_"

# Published envelope schema (JSON Schema draft 2020-12).  Success envelopes
# carry results+diagnostics; failure envelopes carry a structured error.
ENVELOPE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "command", "parameters"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "results": {"type": "object"},
        "diagnostics": {"type": "object"},
        "error": {
            "type": "object",
            "required": ["type", "message"],
            "properties": {
                "type": {"type": "string"},
                "message": {"type": "string"},
                "location": {"type": "string"},
                "center": {"type": "string"},
                "best": {"type": "string"},
            },
        },
    },
    "oneOf": [{"required": ["results", "diagnostics"]}, {"required": ["error"]}],
    "$defs": {
        "complex": {
            "type": "object",
            "required": ["re", "im"],
            "properties": {"re": {"type": "string"}, "im": {"type": "string"}},
        },
    },
}


# ---------------------------------------------------------------------------
# value serialization and parsing
# ---------------------------------------------------------------------------

def _num_str(x) -> str:
    if isinstance(x, float):
        return repr(x)
    # mpmath float: decimal digits matching its binary precision
    dps = max(17, int(mp.mp.prec * 0.30103) + 2)
    return mp.nstr(x, dps, strip_zeros=True)


def _cplx(z: ComplexPoint) -> dict:
    return {"re": _num_str(z.re), "im": _num_str(z.im)}


def parse_complex(text: str) -> complex:
    """Accept '2', '-0.5', '0.5+14.1i', '1.2i', 'i', with i or j."""
    t = text.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    if t in ("i", "+i"):
        return 1j
    if t == "-i":
        return -1j
    t = t.replace("+i", "+1i").replace("-i", "-1i")
    if t.endswith("i"):
        t = t[:-1] + "j"
    else:
        t = t.replace("i", "j")  # interior form like 1i+2 is rejected by complex()
    try:
        z = complex(t)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"complex number must be finite, got {text!r}")
    return z


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _family(text: str) -> Family:
    try:
        return Family(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"family must be 'hasse' or 'hstar', got {text!r}")


def _integer(least: int, what: str):
    """Parser of an integer argument of at least ``least``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {value}")
        return value
    return integer


_nonneg_int, _pos_int = _integer(0, "non-negative"), _integer(1, "positive")


def _format(text: str) -> str:
    if text not in ("json", "csv"):
        raise argparse.ArgumentTypeError(f"format must be 'json' or 'csv', got {text!r}")
    return text


def _switch(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"must be 1/true/yes/on or 0/false/no/off, got {text!r}")


def _phase(text: str):
    t = text.strip().lower().replace("j", "i")
    table = {"1": 1 + 0j, "+1": 1 + 0j, "-1": -1 + 0j,
             "i": 1j, "+i": 1j, "1i": 1j, "-i": -1j, "-1i": -1j}
    if t in table:
        return table[t]
    try:
        return UnitPhase(Fraction(t))  # fraction of a full turn
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"phase must be 1, -1, i, -i or a rational fraction of a turn, got {text!r}"
        ) from exc


# ---------------------------------------------------------------------------
# settings: --key-name flag, ETA_FORGE_KEY_NAME variable, key_name config key
# ---------------------------------------------------------------------------

class Setting(NamedTuple):
    parse: Callable[[str], object]
    default: object
    help: str


SETTINGS = {
    "precision_bits": Setting(int, FAST_BITS, "working mantissa bits (53 = fast tier)"),
    "tol": Setting(_finite_float, None, "target relative error (default 1e-13 on the fast "
                                        "tier, 2^(8 - bits) above it)"),
    "format": Setting(_format, "json", "output format (csv only for scan/list commands)"),
    "jobs": Setting(_pos_int, 1, "accepted for compatibility; has no effect"),
    # the flag takes no value; _switch reads the variable and the config key
    "no_timing": Setting(_switch, False, "omit timing from diagnostics"),
}


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise EtaForgeError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def resolve_settings(args: argparse.Namespace) -> dict:
    """flags > environment > config file > defaults; every value present is parsed."""
    config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    config = _read_config_file(config_path) if config_path else {}
    settings = {}
    for key, setting in SETTINGS.items():
        found = [setting.parse(text) for text in
                 (config.get(key), os.environ.get(ENV_PREFIX + key.upper())) if text is not None]
        flag = getattr(args, key)  # argparse ran the flag's text through the same parser
        settings[key] = flag if flag is not None else found[-1] if found else setting.default
    return settings


def _context(settings: dict) -> PrecisionContext:
    bits, tol = settings["precision_bits"], settings["tol"]
    if tol is None:
        tol = 1e-13 if bits <= FAST_BITS else 2.0 ** (8 - bits)
    return PrecisionContext(bits, tol)


# ---------------------------------------------------------------------------
# handlers: (args, ctx) -> (results, diagnostics)
# ---------------------------------------------------------------------------

def _eta_eval(args, ctx):
    res = evaluate(FiniteEtaSpec(_family(args.family), args.n), parse_complex(args.s), ctx)
    return {"value": _cplx(res.value)}, {"abs_err_bound": res.abs_err}


def _eta_zeros(args, ctx):
    report = trivial_zero_report(FiniteEtaSpec(_family(args.family), args.n))
    rows = [{"argument": a, "value": str(v)} for a, v in report]
    return {"zeros": rows, "all_exactly_zero": True}, {"count": len(rows)}


def _integral_compute(args, ctx):
    res = integrate_L(_family(args.family), args.n, parse_complex(args.s), ctx,
                      budget=args.budget)
    return ({"value": _cplx(res.value)},
            {"abs_err_estimate": res.abs_err_estimate, "evaluations": res.evaluations})


def _verify(family: Family, args, ctx):
    res = verify_identity(family, args.n, parse_complex(args.s), ctx, budget=args.budget)
    return {
        "lhs": _cplx(res.lhs) if res.lhs is not None else None,
        "rhs": _cplx(res.rhs) if res.rhs is not None else None,
        "residual": None if res.rhs is None else res.residual,  # None at a genuine pole
        "skipped": res.skipped,
        "reason": res.reason,
    }, {}


def _series(fn, args, ctx):
    """zeta_global, eta_global and pi_s: a value with its terms and tail bound."""
    res = fn(parse_complex(args.s), ctx)
    return ({"value": _cplx(res.value)},
            {"terms_used": res.terms_used, "tail_bound": res.tail_bound})


def _funceq_check(args, ctx):
    return {"residual": functional_equation_residual(parse_complex(args.s), ctx)}, {}


def _zero_refine(args, ctx):
    rec = refine_zero(args.t0, ctx)
    return {"t": rec.t, "residual_eta": rec.residual_eta}, {"iterations": rec.iterations}


def _records(records, **diagnostics):
    rows = [{"n": r.spec.n, "sigma": r.sigma, "t": r.t,
             "magnitude": r.magnitude, "decay": r.decay, "magnitude_err": r.magnitude_err}
            for r in records]
    return {"records": rows}, {"count": len(rows), **diagnostics}


def _proto_scan(args, ctx):
    spec = FiniteEtaSpec(_family(args.family), args.n)
    step = args.step if args.step is not None else default_step(spec)
    cfg = ScanConfig(spec, args.sigma, args.t_min, args.t_max, step)
    return _records(scan_line(cfg, ctx, jobs=args.jobs), step=step)


def _proto_cloud(args, ctx):
    return _records(proto_cloud(args.n_max, args.sigma, args.t_center, args.half_width,
                                ctx, jobs=args.jobs))


def _planck(args, ctx):
    info = planck_resolution(args.p)
    return {"p": info.p, "hbar_p": info.hbar_p, "resolution": info.resolution}, {}


def _weyl_normal_order(args, ctx):
    poly = normal_order(args.word)
    return {"poly": str(poly)}, {"terms": len(poly.terms)}


def _weyl_lemmas(args, ctx):
    rep = lemma_suite(args.n_max)
    return ({"n_max": rep.n_max, "passed": True, "checks": list(rep.checks)},
            {"count": len(rep.checks)})


def _weyl_rest_frames(args, ctx):
    return {"frames": [{"w": str(f.w), "h_scale": str(f.h_scale),
                        "time_scale": str(f.time_scale), "swaps_ab": f.swaps_ab}
                       for f in rest_frames(_phase(args.u))]}, {}


def _weyl_equilibrium(args, ctx):
    return {"scalar": str(equilibrium_identity_check()), "matches": "2s^2 - 2s + 1"}, {}


def _apow_clifford(args, ctx):
    return {"contains": clifford_contains(parse_complex(args.s), args.side),
            "side": args.side}, {}


# ---------------------------------------------------------------------------
# commands: an argument is (flag, add_argument keywords), required unless it
# has a default; csv names the results list and its columns
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    group: str
    name: str | None  # None: the group is itself the command
    handler: Callable
    help: str
    arguments: tuple = ()
    csv: tuple[str, tuple[str, ...]] | None = None


GROUPS = {"eta": "finite eta families", "integral": "kernel integrals",
          "verify": "integral-identity residuals", "zeta": "global zeta",
          "eta-global": "global eta", "funceq": "reflection identity",
          "zero": "critical-line zeros", "proto": "proto-zero scanning",
          "planck": "local resolving power of a prime", "weyl": "exact Weyl-algebra kernel",
          "apow": "operator binomial powers"}

_FAMILY = ("--family", {})
_N = ("--n", {"type": _nonneg_int})
_S = ("--s", {})
_BUDGET = ("--budget", {"type": _pos_int, "default": 200_000})
_SIGMA = ("--sigma", {"type": _finite_float})
_N_MAX = ("--n-max", {"type": _pos_int})
_RECORDS = ("records", ("n", "sigma", "t", "magnitude", "decay", "magnitude_err"))

COMMANDS = (
    Command("eta", "eval", _eta_eval, "evaluate a finite eta sum", (_FAMILY, _N, _S)),
    Command("eta", "zeros", _eta_zeros, "exact trivial-zero report", (_FAMILY, _N),
            csv=("zeros", ("argument", "value"))),
    Command("integral", "compute", _integral_compute, "quadrature value of L_n(s)",
            (_FAMILY, _N, _S, _BUDGET)),
    Command("verify", "thm1", partial(_verify, Family.HSTAR),
            "harmonic kernel identity (hstar)", (_N, _S, _BUDGET)),
    Command("verify", "thm2", partial(_verify, Family.HASSE),
            "rising-factorial kernel identity (hasse)", (_N, _S, _BUDGET)),
    Command("zeta", "eval", partial(_series, zeta_global),
            "zeta by Euler-Maclaurin on the whole plane", (_S,)),
    Command("eta-global", "eval", partial(_series, eta_global),
            "globally convergent eta series", (_S,)),
    Command("funceq", "check", _funceq_check, "relative residual of the identity", (_S,)),
    Command("zero", "refine", _zero_refine, "Newton-refine an ordinate",
            (("--t0", {"type": _finite_float}),)),
    Command("proto", "scan", _proto_scan, "scan a vertical line for minima",
            (("--family", {"default": "hasse"}), _N, _SIGMA,
             ("--t-min", {"type": _finite_float}), ("--t-max", {"type": _finite_float}),
             ("--step", {"type": _finite_float, "default": None})), csv=_RECORDS),
    Command("proto", "cloud", _proto_cloud, "union of scans for n = 1..n_max",
            (_N_MAX, _SIGMA, ("--t-center", {"type": _finite_float}),
             ("--half-width", {"type": _finite_float})), csv=_RECORDS),
    Command("planck", None, _planck, GROUPS["planck"], (("--p", {"type": int}),)),
    Command("weyl", "normal-order", _weyl_normal_order, "canonical form of a word",
            (("--word", {}),)),
    Command("weyl", "lemmas", _weyl_lemmas, "exact ladder-identity suite", (_N_MAX,)),
    Command("weyl", "rest-frames", _weyl_rest_frames, "phases w with w^4 = u^2",
            (("--u", {}),), csv=("frames", ("w", "h_scale", "time_scale", "swaps_ab"))),
    Command("weyl", "equilibrium", _weyl_equilibrium,
            "scalar of the truncated product b^s a^s"),
    Command("apow", "pi-s", partial(_series, pi_s), "coherence series sum_k C(s,k)", (_S,)),
    Command("apow", "clifford", _apow_clifford, "convergence-domain membership",
            (_S, ("--side", {"choices": ("a", "b"), "default": "a"}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eta-forge",
        description="Finite eta families, kernel integral identities, "
                    "critical-line zero machinery and an exact Weyl-algebra kernel.")
    parser.add_argument("--version", action="version", version=__version__)
    for key, setting in SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if setting.parse is _switch:
            parser.add_argument(flag, action="store_const", const=True, help=setting.help)
        else:
            parser.add_argument(flag, type=setting.parse, help=setting.help,
                                metavar="{json,csv}" if key == "format" else None)
    parser.add_argument("--config", default=None, help="key=value configuration file")

    groups = parser.add_subparsers(dest="group", required=True)
    commands = {}
    for cmd in COMMANDS:
        if cmd.name is None:
            p = groups.add_parser(cmd.group, help=cmd.help)
        else:
            if cmd.group not in commands:
                commands[cmd.group] = groups.add_parser(
                    cmd.group, help=GROUPS[cmd.group]).add_subparsers(
                    dest="command", required=True)
            p = commands[cmd.group].add_parser(cmd.name, help=cmd.help)
        p.set_defaults(cmd=cmd)
        for flag, keywords in cmd.arguments:
            p.add_argument(flag, required="default" not in keywords, **keywords)
    return parser


def _parameters_of(args: argparse.Namespace) -> dict:
    skip = {"cmd", "group", "command", "config", *SETTINGS}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _emit(command: str, args: argparse.Namespace, **body) -> None:
    """Print the envelope with ``body``: results and diagnostics, or an error."""
    envelope = {"schema_version": SCHEMA_VERSION, "command": command,
                "parameters": _parameters_of(args), **body}
    print(json.dumps(envelope, sort_keys=True, allow_nan=False))


def _fail(command: str, args: argparse.Namespace, exc: EtaForgeError) -> int:
    """Print the structured error envelope; exit code 1."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("location", "center", "best"):
        val = getattr(exc, attr, None)
        if val is not None:
            error[attr] = str(val)
    _emit(command, args, error=error)
    return 1


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_settings(args)
        ctx = _context(settings)
    except (OSError, EtaForgeError, ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"bad configuration: {exc}")
    vars(args).update(settings)  # the handlers read jobs from args

    cmd = args.cmd
    command = cmd.group + (f" {cmd.name}" if cmd.name else "")
    if args.format == "csv" and cmd.csv is None:
        parser.error(f"--format csv is only available for scan/list commands, not '{command}'")

    started = time.perf_counter()
    try:
        with _workprec(ctx):
            results, diagnostics = cmd.handler(args, ctx)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except EtaForgeError as exc:
        return _fail(command, args, exc)
    except OverflowError as exc:
        return _fail(command, args, RangeError(f"overflow: {exc}"))

    if args.format == "csv":
        key, columns = cmd.csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([str(v).lower() if isinstance(v, bool) else v
                          for v in map(row.get, columns)] for row in results[key])
        return 0

    if not args.no_timing:
        diagnostics["timing_ms"] = round((time.perf_counter() - started) * 1e3, 3)
    try:
        _emit(command, args, results=results, diagnostics=diagnostics)
    except ValueError:  # a float result or bound that JSON cannot carry
        return _fail(command, args, RangeError("result or error bound is not finite"))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
