"""Reference computations made independently of eta-forge, and the checks
that compare each operation's output against them.

The references come from mpmath's own zeta machinery (``zeta``,
``altzeta``, ``zetazero``) at the working precision plus 64 bits, from
naive high-precision finite sums, from closed forms evaluated in mpmath,
and from an exact model of the Weyl algebra acting on polynomials
(a = multiplication by x, b = u d/dx).  Nothing here calls the package
under test; its outputs are only read.

Every check returns ``None`` when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import mpmath as mp

GUARD_BITS = 64
FAST_TARGET = 1e-13            # default target_rel_err of the fast tier
REFINE_T_TOL = 1e-8            # Newton zero vs mpmath.zetazero
REFINE_RESIDUAL = 1e-10        # |eta| at a refined zero
FUNCEQ_TOL = 1e-7              # relative residual of the reflection identity
IDENTITY_TOL = 1e-8            # kernel identity, relative to max(1, |rhs|)
PI_S_TOL = 1e-12               # pi(s) = 2^s


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------

def _mpc(point, bits: int):
    """A ComplexPoint (or anything with .re/.im) as an mpc at `bits`."""
    with mp.workprec(bits):
        return mp.mpc(mp.mpf(point.re), mp.mpf(point.im))


def _bits_of(ctx) -> int:
    return 53 if ctx is None else ctx.working_bits


def _target_of(ctx) -> float:
    return FAST_TARGET if ctx is None else ctx.target_rel_err


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def eta_ref(s, bits: int):
    with mp.workprec(bits + GUARD_BITS):
        return mp.altzeta(mp.mpc(s))


def zeta_ref(s, bits: int):
    with mp.workprec(bits + GUARD_BITS):
        return mp.zeta(mp.mpc(s))


@lru_cache(maxsize=None)
def zero_ordinate(k: int) -> float:
    with mp.workprec(100):
        return float(mp.zetazero(k).imag)


def _finite_prec(n: int, s: complex, bits: int) -> int:
    # the terms reach C(2n, n) ~ 4^n and |t| adds phase bits
    return bits + GUARD_BITS + 2 * n + int(abs(s.imag)) + 16


def hasse_sum(n: int, s, bits: int = 53):
    """sum_{k=0}^{n} (-1)^k C(n,k) (k+1)^(-s), naively at high precision."""
    s = complex(s)
    with mp.workprec(_finite_prec(n, s, bits)):
        sm = mp.mpc(s)
        return mp.fsum((-1) ** k * math.comb(n, k) * mp.power(k + 1, -sm) for k in range(n + 1))


def hstar_sum(n: int, w, bits: int = 53):
    """sum_{k=1}^{n} (-1)^(k-1) C(2n, n+k) k^(-w), naively at high precision."""
    w = complex(w)
    with mp.workprec(_finite_prec(2 * n, w, bits)):
        wm = mp.mpc(w)
        return mp.fsum((-1) ** (k - 1) * math.comb(2 * n, n + k) * mp.power(k, -wm)
                       for k in range(1, n + 1))


def hasse_max_term(n: int, sigma: float) -> float:
    return max(math.comb(n, k) * (k + 1) ** (-sigma) for k in range(n + 1))


def kernel_integral_ref(family: str, n: int, s: complex) -> complex:
    """Closed form of integral_0^inf x^(s-1) / kernel(x) dx, in mpmath."""
    with mp.workprec(120):
        sm = mp.mpc(s)
        if family == "hasse":
            v = mp.pi / mp.sin(mp.pi * sm) * hasse_sum(n, 1 - s, 120) / mp.factorial(n)
        else:
            v = mp.pi / mp.sin(mp.pi * sm / 2) * hstar_sum(n, -s, 120) / mp.factorial(2 * n)
        return complex(v)


# ---------------------------------------------------------------------------
# numeric checks
# ---------------------------------------------------------------------------

def check_global(kind: str, args, out) -> tuple[str | None, float]:
    """eta_global / zeta_global: the error must be within the returned tail
    bound and within target_rel_err * |reference|.  Also returns the error
    as a share of the target."""
    s, ctx = args[0], args[1]
    bits = _bits_of(ctx)
    ref = eta_ref(s, bits) if kind == "eta_global" else zeta_ref(s, bits)
    with mp.workprec(bits + GUARD_BITS):
        err = abs(_mpc(out.value, bits + GUARD_BITS) - ref)
        limit = _target_of(ctx) * abs(ref)
        share = float(err / limit)
        if not err <= out.tail_bound:
            return f"{kind}({s}) error {mp.nstr(err, 3)} above tail_bound {out.tail_bound:.3g}", share
        if not err <= limit:
            return f"{kind}({s}) error {mp.nstr(err, 3)} above target*|ref| {mp.nstr(limit, 3)}", share
    return None, share


def check_refine(args, out) -> str | None:
    t0 = args[0]
    k = min(range(1, 30), key=lambda j: abs(zero_ordinate(j) - t0))
    ref = zero_ordinate(k)
    if not abs(out.t - ref) <= REFINE_T_TOL:
        return f"refine_zero({t0}) gave t = {out.t!r}, zetazero({k}) = {ref!r}"
    if not (0 <= out.residual_eta <= REFINE_RESIDUAL and out.iterations >= 1):
        return f"refine_zero({t0}) residual {out.residual_eta} / iterations {out.iterations}"
    return None


def check_funceq(args, out) -> str | None:
    if not (isinstance(out, float) and 0 <= out <= FUNCEQ_TOL):
        return f"functional_equation_residual({args[0]}) = {out!r} above {FUNCEQ_TOL}"
    return None


def check_evaluate(args, out) -> str | None:
    """Finite HASSE sum: error within the returned bound and the target."""
    spec, s, ctx = args
    bits = _bits_of(ctx)
    ref = hasse_sum(spec.n, s, bits)
    with mp.workprec(bits + GUARD_BITS):
        err = abs(_mpc(out.value, bits + GUARD_BITS) - ref)
        if not err <= out.abs_err:
            return f"evaluate(n={spec.n}, {s}) error {mp.nstr(err, 3)} above its bound {out.abs_err:.3g}"
        if not err <= _target_of(ctx) * abs(ref):
            return f"evaluate(n={spec.n}, {s}) relative error {mp.nstr(err / abs(ref), 3)} above target"
    return None


def scan_step(n: int) -> float:
    """Default HASSE grid step: the resolution 2 pi / ln p of the largest
    prime p <= n + 1, divided by 20."""
    p = next(q for q in range(n + 1, 1, -1) if all(q % d for d in range(2, math.isqrt(q) + 1)))
    return 1.0 / (math.log(p) / (2.0 * math.pi)) / 20.0


def grid_minima(n: int, sigma: float, t_min: float, t_max: float, step: float):
    """Brackets (t[i-1], t[i+1]) of the strict minima of the reference
    |eta_n(sigma + i t)| on the grid t_min + i * step, up to t_max."""
    count = int(math.floor((t_max - t_min) / step + 1e-9)) + 1
    ts = [t_min + i * step for i in range(count)]
    mags = [abs(hasse_sum(n, complex(sigma, t))) for t in ts]
    return [(ts[i - 1], ts[i + 1]) for i in range(1, count - 1)
            if mags[i] < mags[i - 1] and mags[i] < mags[i + 1]]


def check_scan(records, n: int, sigma: float, t_min: float, t_max: float,
               step: float) -> str | None:
    """One record per strict grid minimum of the reference, inside its
    bracket; each magnitude must match the high-precision sum, and each
    ordinate must be a local minimum to the polish width (step / 100)."""
    brackets = grid_minima(n, sigma, t_min, t_max, step)
    records = sorted(records, key=lambda r: r.t)
    if len(records) != len(brackets):
        return (f"scan n={n} [{t_min:.4f}, {t_max:.4f}]: {len(records)} records, "
                f"{len(brackets)} grid minima in the reference")
    width = step / 100.0
    # evaluate's contract: relative to |value|, or to the largest term where
    # the sum cancels
    floor = FAST_TARGET * hasse_max_term(n, sigma)
    for r, (lo, hi) in zip(records, brackets):
        if not lo <= r.t <= hi:
            return f"record n={n} t={r.t} outside the grid bracket [{lo}, {hi}] of its minimum"
        here = abs(hasse_sum(n, complex(sigma, r.t)))
        tol = max(FAST_TARGET * float(here), floor)
        if not abs(r.magnitude - float(here)) <= tol:
            return f"record n={n} t={r.t}: magnitude {r.magnitude} vs reference {mp.nstr(here, 17)}"
        for t in (r.t - width, r.t + width):
            if abs(hasse_sum(n, complex(sigma, t))) < here - tol:
                return f"record n={n} t={r.t} is not a local minimum to width {width}"
    return None


def check_scan_line(args, out) -> str | None:
    cfg = args[0]
    if any(r.spec.n != cfg.spec.n or r.sigma != cfg.sigma for r in out):
        return "scan_line record with the wrong n or sigma"
    return check_scan(out, cfg.spec.n, cfg.sigma, cfg.t_min, cfg.t_max, scan_step(cfg.spec.n))


def check_proto_cloud(args, out) -> str | None:
    n_max, sigma, t_center, half_width = args[:4]
    if any(not 1 <= r.spec.n <= n_max for r in out):
        return "proto_cloud record with n outside 1..n_max"
    for n in range(1, n_max + 1):
        reason = check_scan([r for r in out if r.spec.n == n], n, sigma,
                            t_center - half_width, t_center + half_width, scan_step(n))
        if reason:
            return reason
    return None


def check_identity(args, out) -> str | None:
    family, n, s = args[0], args[1], args[2]
    if out.skipped:
        return f"verify_identity({family.value}, {n}, {s}) skipped: {out.reason}"
    if not 0 <= out.residual <= IDENTITY_TOL:
        return f"verify_identity({family.value}, {n}, {s}) residual {out.residual} above {IDENTITY_TOL}"
    ref = kernel_integral_ref(family.value, n, s)
    scale = max(1.0, abs(ref))
    for side, value in (("integral", out.lhs), ("closed form", out.rhs)):
        if not abs(value.to_complex() - ref) <= IDENTITY_TOL * scale:
            return f"verify_identity({family.value}, {n}, {s}) {side} {value} vs reference {ref}"
    return None


def check_pi_s(args, out) -> str | None:
    s = complex(args[0])
    ref = 2 ** s
    err = abs(out.value.to_complex() - ref)
    if not (err <= out.tail_bound and err <= PI_S_TOL * abs(ref)):
        return f"pi_s({s}) error {err:.3g} vs 2^s (tail_bound {out.tail_bound:.3g})"
    return None


# ---------------------------------------------------------------------------
# exact Weyl-algebra model: a = x*, b = u d/dx acting on polynomials in x
# ---------------------------------------------------------------------------
#
# Normal forms are read into plain dicts {(i, j): {k: (re, im)}}: the
# coefficient of u^k a^i b^j (or s^k a^i b^j) as a pair of Fractions.  A
# polynomial in x is {degree: (re, im)}.  The algebra acts faithfully on
# polynomials, and an operator sum c_ij x^i (u d/dx)^j with j <= J is zero
# exactly when it kills 1, x, ..., x^J, so comparing actions on those
# monomials decides equality of normal forms.

_ONE = (Fraction(1), Fraction(0))


def weyl_terms(poly) -> dict:
    """A WeylPoly as a plain dict."""
    return {ij: {k: (c.re, c.im) for k, c in coeff.coeffs.items()}
            for ij, coeff in poly.terms.items()}


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _padd(p, q, scale=_ONE):
    out = dict(p)
    for k, v in q.items():
        v = _gmul(v, scale)
        w = out.get(k, (Fraction(0), Fraction(0)))
        w = (w[0] + v[0], w[1] + v[1])
        if w[0] or w[1]:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def _apply_letter(letter: str, poly: dict, u: int) -> dict:
    if letter == "A":
        return {k + 1: v for k, v in poly.items()}
    return {k - 1: (v[0] * k * u, v[1] * k * u) for k, v in poly.items() if k > 0}


def word_action(word: str, m: int, u: int) -> dict:
    """The word (leftmost letter acting last) applied to x^m."""
    poly = {m: _ONE}
    for letter in reversed(word):
        poly = _apply_letter(letter, poly, u)
    return poly


def _symbol_value(coeffs: dict, x: int):
    """A coefficient polynomial {power: (re, im)} evaluated at integer x."""
    acc = (Fraction(0), Fraction(0))
    for k, (re, im) in coeffs.items():
        acc = (acc[0] + re * x ** k, acc[1] + im * x ** k)
    return acc


def normal_form_action(terms: dict, poly: dict, u: int, sym: int) -> dict:
    """sum c_ij(sym) x^i (u d/dx)^j applied to `poly`."""
    out = {}
    for (i, j), coeffs in terms.items():
        piece = dict(poly)
        for _ in range(j):
            piece = _apply_letter("B", piece, u)
        piece = {k + i: v for k, v in piece.items()}
        out = _padd(out, piece, _symbol_value(coeffs, sym))
    return out


def _max_j(terms: dict) -> int:
    return max((j for (_, j) in terms), default=0)


def _degree(terms: dict) -> int:
    return max((k for coeffs in terms.values() for k in coeffs), default=0)


def check_normal_order(word: str, terms: dict) -> str | None:
    for (i, j) in terms:
        if i + j > len(word) or (len(word) - i - j) % 2:
            return f"normal_order({word}) has an impossible monomial a^{i} b^{j}"
    top = max(word.count("B"), _max_j(terms))
    # at each (i, j) the true coefficient has u-degree <= len/2 and the
    # output's has _degree(terms), so one more nonzero u than the larger
    # decides the difference
    for u in range(1, max(len(word) // 2, _degree(terms)) + 2):
        for m in range(top + 1):
            if word_action(word, m, u) != normal_form_action(terms, {m: _ONE}, u, u):
                return f"normal_order({word}) differs from the polynomial model at u={u}, x^{m}"
    return None


def check_product(terms: dict, factors: list[dict]) -> str | None:
    """`terms` must act as the composition of the factors (right one first)."""
    # u-degree of the true product: the factors' degrees plus one per
    # contraction, and each factor takes part in at most i + j of them;
    # one more nonzero u than the larger of that and the output's degree
    # decides the difference
    udeg = sum(_degree(f) + max((i + j for (i, j) in f), default=0) for f in factors)
    udeg = max(udeg, _degree(terms))
    top = max([_max_j(terms)] + [_max_j(f) for f in factors])
    for u in range(1, udeg + 2):
        for m in range(top + 1):
            want = {m: _ONE}
            for f in reversed(factors):
                want = normal_form_action(f, want, u, u)
            if want != normal_form_action(terms, {m: _ONE}, u, u):
                return f"product differs from the polynomial model at u={u}, x^{m}"
    return None


def _binom_series_action(k_max: int, s: int, letter: str, poly: dict) -> dict:
    """sum_{k<=K} C(s,k) (X - 1)^k applied to poly, with u = 1."""
    out = {}
    for k in range(k_max + 1):
        piece = dict(poly)
        for _ in range(k):
            piece = _padd(_apply_letter(letter, piece, 1), piece, (Fraction(-1), Fraction(0)))
        out = _padd(out, piece, (Fraction(math.comb(s, k)), Fraction(0)))
    return out


def check_operator_power(k: int, terms: dict) -> str | None:
    """Truncated b^s times truncated a^s at order K, checked at s = 0..D,
    where D is the larger of the model's s-degree 2K and the output's, so
    that D + 1 values decide the coefficients."""
    top = max(k, _max_j(terms))
    for s in range(0, max(2 * k, _degree(terms)) + 1):
        for m in range(top + 1):
            want = _binom_series_action(k, s, "B", _binom_series_action(k, s, "A", {m: _ONE}))
            if want != normal_form_action(terms, {m: _ONE}, 1, s):
                return f"operator power K={k} differs from the model at s={s}, x^{m}"
    return None


def check_equilibrium(out) -> str | None:
    got = {k: (c.re, c.im) for k, c in out.coeffs.items()}
    want = {0: (Fraction(1), Fraction(0)), 1: (Fraction(-2), Fraction(0)),
            2: (Fraction(2), Fraction(0))}
    if got != want:
        return f"equilibrium scalar {out} is not 1 + 2s(s-1)"
    return None


def check_lemma_suite(n_max: int, out) -> str | None:
    if out.n_max != n_max or len(set(out.checks)) != 5 * n_max or len(out.checks) != 5 * n_max:
        return f"lemma_suite({n_max}) reported {len(out.checks)} checks"
    for n in range(1, n_max + 1):
        if f"[b, a^{n}] = {n}u a^{n - 1}" not in out.checks:
            return f"lemma_suite({n_max}) is missing [b, a^{n}]"
    return None


def check_rest_frames(u, out) -> str | None:
    turns = {1: Fraction(0), -1: Fraction(1, 2), 1j: Fraction(1, 4),
             -1j: Fraction(3, 4)}.get(u, u)
    want = sorted((turns / 2 + Fraction(k, 4)) % 1 for k in range(4))
    if [f.w.turns for f in out] != want:
        return f"rest_frames({u}) phases {[str(f.w.turns) for f in out]}"
    for f in out:
        w2 = (2 * f.w.turns) % 1
        if f.time_scale.turns != w2 or f.h_scale.turns != (-w2) % 1:
            return f"rest_frames({u}) scalings wrong at w = {f.w.turns}"
        if f.swaps_ab != (w2 == (turns + Fraction(1, 2)) % 1):
            return f"rest_frames({u}) swap flag wrong at w = {f.w.turns}"
    return None


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def check_op(op, out) -> tuple[str | None, float | None]:
    """Check one operation's output.  Returns (reason or None, error as a
    share of the target for the global series, else None)."""
    kind, args = op.kind, op.args
    if kind in ("eta_global", "zeta_global"):
        return check_global(kind, args, out)
    if kind == "refine_zero":
        reason = check_refine(args, out)
    elif kind == "funceq":
        reason = check_funceq(args, out)
    elif kind == "evaluate":
        reason = check_evaluate(args, out)
    elif kind == "scan_line":
        reason = check_scan_line(args, out)
    elif kind == "proto_cloud":
        reason = check_proto_cloud(args, out)
    elif kind == "verify_identity":
        reason = check_identity(args, out)
    elif kind == "pi_s":
        reason = check_pi_s(args, out)
    elif kind == "normal_order":
        reason = check_normal_order(args[0].upper(), weyl_terms(out))
    elif kind == "product":
        reason = check_product(weyl_terms(out), [weyl_terms(a) for a in args])
    elif kind == "power":
        reason = check_product(weyl_terms(out), [weyl_terms(args[0])] * args[1])
    elif kind == "operator_power":
        reason = check_operator_power(args[0], weyl_terms(out))
    elif kind == "equilibrium":
        reason = check_equilibrium(out)
    elif kind == "lemma_suite":
        reason = check_lemma_suite(args[0], out)
    elif kind == "rest_frames":
        reason = check_rest_frames(args[0], out)
    else:
        reason = f"no check for operation kind {kind!r}"
    return reason, None


# ---------------------------------------------------------------------------
# cold CLI envelopes
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def parse_envelope(text: str) -> dict:
    """Strict JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


_TERM = re.compile(r"(\d+)?\s*(u(?:\^(\d+))?)?\s*(a(?:\^(\d+))?)?\s*(b(?:\^(\d+))?)?")


def _power(factor: str | None, exponent: str | None) -> int:
    return 0 if factor is None else int(exponent or 1)


def parse_word_normal_form(text: str) -> dict:
    """Read the printed normal form of a word ("a^2 b^2 + 4u a b + 2u^2").
    Normal forms of words have positive integer coefficients, so only
    that subset of the text form is accepted."""
    terms = {}
    for part in text.split(" + "):
        m = _TERM.fullmatch(part.strip())
        if not part.strip() or m is None:
            raise ValueError(f"unexpected normal-form term {part!r}")
        coef, u, uk, a, ai, b, bj = m.groups()
        k, i, j = _power(u, uk), _power(a, ai), _power(b, bj)
        terms.setdefault((i, j), {})[k] = (Fraction(int(coef) if coef else 1), Fraction(0))
    return terms


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _complex_arg(text: str) -> complex:
    return complex(text.replace("i", "j"))


def check_cli(workload: str, argv: list[str], envelope: dict) -> str | None:
    """Check a cold CLI envelope of the workload's representative command."""
    if "error" in envelope or "results" not in envelope:
        return f"CLI returned an error envelope: {envelope.get('error')}"
    res, diag = envelope["results"], envelope["diagnostics"]
    if workload == "critical-line":
        rec = SimpleNamespace(t=res["t"], residual_eta=res["residual_eta"],
                              iterations=diag["iterations"])
        return check_refine((float(_arg(argv, "--t0")),), rec)
    if workload == "finite-sums":
        n = int(_arg(argv, "--n"))
        recs = [SimpleNamespace(t=r["t"], magnitude=r["magnitude"]) for r in res["records"]]
        if any(r["n"] != n for r in res["records"]):
            return "CLI scan record with the wrong n"
        return check_scan(recs, n, float(_arg(argv, "--sigma")), float(_arg(argv, "--t-min")),
                          float(_arg(argv, "--t-max")), scan_step(n))
    if workload == "extended":
        bits = int(_arg(argv, "--precision-bits"))
        ctx = SimpleNamespace(working_bits=bits, target_rel_err=float(_arg(argv, "--tol")))
        with mp.workprec(bits + GUARD_BITS):
            value = SimpleNamespace(re=mp.mpf(res["value"]["re"]), im=mp.mpf(res["value"]["im"]))
        out = SimpleNamespace(value=value, tail_bound=diag["tail_bound"])
        return check_global("eta_global", (_complex_arg(_arg(argv, "--s")), ctx), out)[0]
    word = _arg(argv, "--word").upper()
    return check_normal_order(word, parse_word_normal_form(res["poly"]))
