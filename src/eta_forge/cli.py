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

Configuration precedence: command-line flags, then ETA_FORGE_* environment
variables, then a key=value config file (--config or ETA_FORGE_CONFIG),
then built-in defaults.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

import mpmath as mp

from . import __version__
from .errors import EtaForgeError, RangeError
from .finite_eta import Family, FiniteEtaSpec, evaluate, trivial_zero_report
from .hasse_global import eta_global, functional_equation_residual, refine_zero, zeta_global
from .kernel_integrals import integrate_L, verify_identity
from .numerics import FAST_BITS, ComplexPoint, PrecisionContext
from .proto_zeros import ScanConfig, default_step, planck_resolution, proto_cloud, scan_line
from .weyl_algebra import UnitPhase, lemma_suite, normal_order, rest_frames
from .weyl_powers import clifford_contains, equilibrium_identity_check, pi_s

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

_SETTING_KEYS = ("precision_bits", "tol", "format", "jobs", "no_timing")
# tol None: 1e-13 on the fast tier, PrecisionContext.extended's 2^(8 - bits) above it
_DEFAULTS = {"precision_bits": FAST_BITS, "tol": None, "format": "json",
             "jobs": 1, "no_timing": False}


# ---------------------------------------------------------------------------
# value serialization
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


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _pos_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


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
# configuration
# ---------------------------------------------------------------------------

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


def _coerce_setting(key: str, raw):
    if key == "precision_bits":
        return int(raw)
    if key == "tol":
        return _finite_float(raw)
    if key == "jobs":
        return _pos_int(raw)
    if key == "no_timing":
        if isinstance(raw, bool):
            return raw
        return str(raw).strip().lower() in ("1", "true", "yes", "on")
    return str(raw)


def resolve_settings(args: argparse.Namespace) -> dict:
    """flags > environment > config file > defaults."""
    settings = dict(_DEFAULTS)
    config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        for key, val in _read_config_file(config_path).items():
            if key in _SETTING_KEYS:
                settings[key] = _coerce_setting(key, val)
    for key in _SETTING_KEYS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            settings[key] = _coerce_setting(key, env)
    for key in _SETTING_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = _coerce_setting(key, val)
    return settings


def _context(settings: dict) -> PrecisionContext:
    bits = settings["precision_bits"]
    tol = settings["tol"]
    if bits <= FAST_BITS:
        return PrecisionContext(FAST_BITS, 1e-13 if tol is None else tol)
    if tol is None:
        return PrecisionContext.extended(bits)
    return PrecisionContext(bits, max(tol, 2.0 ** (1 - bits)))


# ---------------------------------------------------------------------------
# command implementations: each returns (results, diagnostics, csv_rows)
# ---------------------------------------------------------------------------

def _records_payload(records):
    rows = [{"n": r.spec.n, "sigma": r.sigma, "t": r.t,
             "magnitude": r.magnitude, "decay": r.decay} for r in records]
    return rows


def cmd_eta_eval(args, ctx, settings):
    spec = FiniteEtaSpec(_family(args.family), args.n)
    res = evaluate(spec, parse_complex(args.s), ctx)
    return ({"value": _cplx(res.value)}, {"abs_err_bound": res.abs_err}, None)


def cmd_eta_zeros(args, ctx, settings):
    spec = FiniteEtaSpec(_family(args.family), args.n)
    report = trivial_zero_report(spec)
    rows = [{"argument": a, "value": str(v)} for a, v in report]
    return ({"zeros": rows, "all_exactly_zero": True}, {"count": len(rows)},
            ([("argument", "value")] + [(a, str(v)) for a, v in report]))


def cmd_integral_compute(args, ctx, settings):
    res = integrate_L(_family(args.family), args.n, parse_complex(args.s), ctx,
                      budget=args.budget)
    return ({"value": _cplx(res.value)},
            {"abs_err_estimate": res.abs_err_estimate, "evaluations": res.evaluations},
            None)


def _cmd_verify(family: Family, args, ctx):
    res = verify_identity(family, args.n, parse_complex(args.s), ctx, budget=args.budget)
    results = {
        "lhs": _cplx(res.lhs) if res.lhs is not None else None,
        "rhs": _cplx(res.rhs) if res.rhs is not None else None,
        "residual": None if res.rhs is None else res.residual,  # None at a genuine pole
        "skipped": res.skipped,
        "reason": res.reason,
    }
    return (results, {}, None)


def cmd_verify_thm1(args, ctx, settings):
    return _cmd_verify(Family.HSTAR, args, ctx)


def cmd_verify_thm2(args, ctx, settings):
    return _cmd_verify(Family.HASSE, args, ctx)


def cmd_zeta_eval(args, ctx, settings):
    res = zeta_global(parse_complex(args.s), ctx)
    return ({"value": _cplx(res.value)},
            {"terms_used": res.terms_used, "tail_bound": res.tail_bound}, None)


def cmd_eta_global_eval(args, ctx, settings):
    res = eta_global(parse_complex(args.s), ctx)
    return ({"value": _cplx(res.value)},
            {"terms_used": res.terms_used, "tail_bound": res.tail_bound}, None)


def cmd_funceq_check(args, ctx, settings):
    residual = functional_equation_residual(parse_complex(args.s), ctx)
    return ({"residual": residual}, {}, None)


def cmd_zero_refine(args, ctx, settings):
    rec = refine_zero(args.t0, ctx)
    return ({"t": rec.t, "residual_eta": rec.residual_eta},
            {"iterations": rec.iterations}, None)


def cmd_proto_scan(args, ctx, settings):
    spec = FiniteEtaSpec(_family(args.family), args.n)
    step = args.step if args.step is not None else default_step(spec)
    cfg = ScanConfig(spec=spec, sigma=args.sigma, t_min=args.t_min,
                     t_max=args.t_max, step=step)
    records = scan_line(cfg, ctx, jobs=settings["jobs"])
    rows = _records_payload(records)
    csv_rows = [("n", "sigma", "t", "magnitude", "decay")] + [
        (r["n"], repr(r["sigma"]), repr(r["t"]), repr(r["magnitude"]), repr(r["decay"]))
        for r in rows]
    return ({"records": rows}, {"count": len(rows), "step": step}, csv_rows)


def cmd_proto_cloud(args, ctx, settings):
    records = proto_cloud(args.n_max, args.sigma, args.t_center, args.half_width,
                          ctx, jobs=settings["jobs"])
    rows = _records_payload(records)
    csv_rows = [("n", "sigma", "t", "magnitude", "decay")] + [
        (r["n"], repr(r["sigma"]), repr(r["t"]), repr(r["magnitude"]), repr(r["decay"]))
        for r in rows]
    return ({"records": rows}, {"count": len(rows)}, csv_rows)


def cmd_planck(args, ctx, settings):
    info = planck_resolution(args.p)
    return ({"p": info.p, "hbar_p": info.hbar_p, "resolution": info.resolution}, {}, None)


def cmd_weyl_normal_order(args, ctx, settings):
    poly = normal_order(args.word)
    return ({"poly": str(poly)}, {"terms": len(poly.terms)}, None)


def cmd_weyl_lemmas(args, ctx, settings):
    rep = lemma_suite(args.n_max)
    return ({"n_max": rep.n_max, "passed": True, "checks": list(rep.checks)},
            {"count": len(rep.checks)}, None)


def cmd_weyl_rest_frames(args, ctx, settings):
    frames = rest_frames(_phase(args.u))
    rows = [{"w": str(f.w), "h_scale": str(f.h_scale),
             "time_scale": str(f.time_scale), "swaps_ab": f.swaps_ab}
            for f in frames]
    csv_rows = [("w", "h_scale", "time_scale", "swaps_ab")] + [
        (r["w"], r["h_scale"], r["time_scale"], str(r["swaps_ab"]).lower()) for r in rows]
    return ({"frames": rows}, {}, csv_rows)


def cmd_weyl_equilibrium(args, ctx, settings):
    scalar = equilibrium_identity_check()
    return ({"scalar": str(scalar), "matches": "2s^2 - 2s + 1"}, {}, None)


def cmd_apow_pi_s(args, ctx, settings):
    res = pi_s(parse_complex(args.s), ctx)
    return ({"value": _cplx(res.value)},
            {"terms_used": res.terms_used, "tail_bound": res.tail_bound}, None)


def cmd_apow_clifford(args, ctx, settings):
    inside = clifford_contains(parse_complex(args.s), args.side)
    return ({"contains": inside, "side": args.side}, {}, None)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eta-forge",
        description="Finite eta families, kernel integral identities, "
                    "critical-line zero machinery and an exact Weyl-algebra kernel.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--precision-bits", type=int, default=None, dest="precision_bits",
                        help="working mantissa bits (53 = fast tier)")
    parser.add_argument("--tol", type=float, default=None,
                        help="target relative error (default 1e-13 on the fast tier, "
                             "2^(8 - bits) above it)")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (csv only for scan/list commands)")
    parser.add_argument("--jobs", type=_pos_int, default=None,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--no-timing", action="store_const", const=True, default=None,
                        dest="no_timing", help="omit timing from diagnostics")
    parser.add_argument("--config", default=None, help="key=value configuration file")

    sub = parser.add_subparsers(dest="group", required=True)

    def add(grp, name, fn, **kwargs):
        p = grp.add_parser(name, **kwargs)
        p.set_defaults(handler=fn)
        return p

    g_eta = sub.add_parser("eta", help="finite eta families").add_subparsers(
        dest="command", required=True)
    p = add(g_eta, "eval", cmd_eta_eval, help="evaluate a finite eta sum")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--s", required=True)
    p = add(g_eta, "zeros", cmd_eta_zeros, help="exact trivial-zero report")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)

    g_int = sub.add_parser("integral", help="kernel integrals").add_subparsers(
        dest="command", required=True)
    p = add(g_int, "compute", cmd_integral_compute, help="quadrature value of L_n(s)")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--budget", type=_pos_int, default=200_000)

    g_ver = sub.add_parser("verify", help="integral-identity residuals").add_subparsers(
        dest="command", required=True)
    for name, fn, hlp in (("thm1", cmd_verify_thm1, "harmonic kernel identity (hstar)"),
                          ("thm2", cmd_verify_thm2, "rising-factorial kernel identity (hasse)")):
        p = add(g_ver, name, fn, help=hlp)
        p.add_argument("--n", type=_nonneg_int, required=True)
        p.add_argument("--s", required=True)
        p.add_argument("--budget", type=_pos_int, default=200_000)

    g_zeta = sub.add_parser("zeta", help="global zeta").add_subparsers(
        dest="command", required=True)
    p = add(g_zeta, "eval", cmd_zeta_eval, help="zeta via the weighted series")
    p.add_argument("--s", required=True)

    g_etag = sub.add_parser("eta-global", help="global eta").add_subparsers(
        dest="command", required=True)
    p = add(g_etag, "eval", cmd_eta_global_eval, help="globally convergent eta series")
    p.add_argument("--s", required=True)

    g_feq = sub.add_parser("funceq", help="reflection identity").add_subparsers(
        dest="command", required=True)
    p = add(g_feq, "check", cmd_funceq_check, help="relative residual of the identity")
    p.add_argument("--s", required=True)

    g_zero = sub.add_parser("zero", help="critical-line zeros").add_subparsers(
        dest="command", required=True)
    p = add(g_zero, "refine", cmd_zero_refine, help="Newton-refine an ordinate")
    p.add_argument("--t0", type=_finite_float, required=True)

    g_proto = sub.add_parser("proto", help="proto-zero scanning").add_subparsers(
        dest="command", required=True)
    p = add(g_proto, "scan", cmd_proto_scan, help="scan a vertical line for minima")
    p.add_argument("--family", default="hasse")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--t-min", type=_finite_float, required=True, dest="t_min")
    p.add_argument("--t-max", type=_finite_float, required=True, dest="t_max")
    p.add_argument("--step", type=_finite_float, default=None)
    p = add(g_proto, "cloud", cmd_proto_cloud, help="union of scans for n = 1..n_max")
    p.add_argument("--n-max", type=_pos_int, required=True, dest="n_max")
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--t-center", type=_finite_float, required=True, dest="t_center")
    p.add_argument("--half-width", type=_finite_float, required=True, dest="half_width")

    p = sub.add_parser("planck", help="local resolving power of a prime")
    p.set_defaults(handler=cmd_planck, command=None)
    p.add_argument("--p", type=int, required=True)

    g_weyl = sub.add_parser("weyl", help="exact Weyl-algebra kernel").add_subparsers(
        dest="command", required=True)
    p = add(g_weyl, "normal-order", cmd_weyl_normal_order, help="canonical form of a word")
    p.add_argument("--word", required=True)
    p = add(g_weyl, "lemmas", cmd_weyl_lemmas, help="exact ladder-identity suite")
    p.add_argument("--n-max", type=_pos_int, required=True, dest="n_max")
    p = add(g_weyl, "rest-frames", cmd_weyl_rest_frames, help="phases w with w^4 = u^2")
    p.add_argument("--u", required=True)
    add(g_weyl, "equilibrium", cmd_weyl_equilibrium,
        help="scalar of the truncated product b^s a^s")

    g_apow = sub.add_parser("apow", help="operator binomial powers").add_subparsers(
        dest="command", required=True)
    p = add(g_apow, "pi-s", cmd_apow_pi_s, help="coherence series sum_k C(s,k)")
    p.add_argument("--s", required=True)
    p = add(g_apow, "clifford", cmd_apow_clifford, help="convergence-domain membership")
    p.add_argument("--s", required=True)
    p.add_argument("--side", choices=("a", "b"), default="a")

    return parser


_CSV_COMMANDS = {("eta", "zeros"), ("proto", "scan"), ("proto", "cloud"),
                 ("weyl", "rest-frames")}


def _parameters_of(args: argparse.Namespace) -> dict:
    skip = {"handler", "group", "command", "config", *_SETTING_KEYS}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _emit(envelope: dict) -> None:
    print(json.dumps(envelope, sort_keys=True, allow_nan=False))


def _fail(command: str, args: argparse.Namespace, exc: EtaForgeError) -> int:
    """Print the structured error envelope; exit code 1."""
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": _parameters_of(args),
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }
    for attr in ("location", "center", "best"):
        val = getattr(exc, attr, None)
        if val is not None:
            envelope["error"][attr] = str(val)
    _emit(envelope)
    return 1


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_settings(args)
        ctx = _context(settings)
    except (OSError, EtaForgeError, ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"bad configuration: {exc}")

    command = args.group + (f" {args.command}" if getattr(args, "command", None) else "")
    if settings["format"] == "csv" and (args.group, args.command) not in _CSV_COMMANDS:
        parser.error(f"--format csv is only available for scan/list commands, not '{command}'")

    started = time.perf_counter()
    try:
        if ctx.is_fast:
            results, diagnostics, csv_rows = args.handler(args, ctx, settings)
        else:
            with mp.workprec(ctx.working_bits):
                results, diagnostics, csv_rows = args.handler(args, ctx, settings)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except EtaForgeError as exc:
        return _fail(command, args, exc)
    except OverflowError as exc:
        return _fail(command, args, RangeError(f"overflow: {exc}"))

    if settings["format"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
        return 0

    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": _parameters_of(args),
        "results": results,
        "diagnostics": diagnostics,
    }
    if not settings["no_timing"]:
        envelope["diagnostics"]["timing_ms"] = round(
            (time.perf_counter() - started) * 1e3, 3)
    try:
        _emit(envelope)
    except ValueError:  # a float result or bound that JSON cannot carry
        return _fail(command, args, RangeError("result or error bound is not finite"))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
