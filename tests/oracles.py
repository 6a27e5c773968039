"""Independent reference computations used by the test suite.

Nothing here imports the package under test: the zeta values come from a
self-contained Euler-Maclaurin summation, series limits from brute-force
partial sums with iterated averaging, finite sums from exact rational
arithmetic, and the operator algebra from an explicit matrix model on a
truncated polynomial space.  These stay independent of the code paths
they are used to check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta
# ---------------------------------------------------------------------------

def em_zeta(s, prec: int = 100, N: int = 40, M: int = 20):
    """zeta(s) by Euler-Maclaurin: direct head, integral + half term at N,
    Bernoulli corrections.  Valid on the whole plane minus s = 1 for
    moderate |Im s| (plenty for these tests)."""
    with mp.workprec(prec):
        s = mp.mpc(s)
        total = mp.mpc(0)
        for k in range(1, N):
            total += mp.power(k, -s)
        Nn = mp.mpf(N)
        total += mp.power(Nn, 1 - s) / (s - 1)
        total += mp.power(Nn, -s) / 2
        rising = s
        for j in range(1, M + 1):
            total += (mp.bernoulli(2 * j) / mp.factorial(2 * j)
                      * rising * mp.power(Nn, -s - 2 * j + 1))
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        return total


def em_eta(s, prec: int = 100):
    """eta(s) = (1 - 2^(1-s)) zeta(s) from the Euler-Maclaurin oracle."""
    with mp.workprec(prec):
        s = mp.mpc(s)
        return (1 - mp.power(2, 1 - s)) * em_zeta(s, prec)


def em_critical_zero(t0: float, prec: int = 100) -> mp.mpf:
    """Critical-line ordinate near t0 via Newton on the Euler-Maclaurin
    zeta (derivative by central differences at matching precision).  Stops
    once a step no longer halves the one before: past Newton's quadratic
    phase the steps are rounding and difference noise."""
    with mp.workprec(prec):
        t = mp.mpf(t0)
        h = mp.mpf(2) ** (-prec // 3)
        last = mp.inf
        for _ in range(80):
            f = em_zeta(mp.mpc(mp.mpf(1) / 2, t), prec)
            fp = (em_zeta(mp.mpc(mp.mpf(1) / 2, t + h), prec)
                  - em_zeta(mp.mpc(mp.mpf(1) / 2, t - h), prec)) / (2 * h)
            step = -(f / fp)
            t += step.real
            if abs(step) >= last / 2 or abs(step) < mp.mpf(10) ** (-(prec * 3) // 10):
                break
            last = abs(step)
        return t


# ---------------------------------------------------------------------------
# Hasse's series for eta as one weighted Dirichlet sum, and Sondow's bound
# ---------------------------------------------------------------------------

def euler_weights(n: int) -> tuple[tuple[int, ...], int]:
    """(c, d): the partial sum S = sum_{m<n} 2^-(m+1) eta_m(s) of Hasse's series (Euler's
    transform of the alternating series) as (1/d) sum_{k<n} c_k (k+1)^-s, with the integer
    weights c_k = (-1)^k sum_{j>k} C(n, j) and d = 2^n."""
    out, tail, c = [], 0, 1  # c = C(n, j) for j = n, n - 1, ..., 1
    for j in range(n, 0, -1):
        tail += c
        out.append(-tail if j % 2 == 0 else tail)  # base j has the sign (-1)^(j-1)
        c = c * j // (n - j + 1)
    return tuple(reversed(out)), 1 << n


_GAMMA_MIN = 0.8856  # Gamma(x) > 0.8856 for every x > 0 (its minimum is 0.885603...)


def sondow_bound(s: complex, n: int) -> float:
    """Sondow's (1994) bound on |eta(s) - S| for S of n terms, Re s > -n: eta - S = Gamma(s)^-1
    int_0^1 (-ln y)^(s-1) ((1-y)/2)^n / (1+y) dy, so |eta - S| <= 2^-n (1/(sigma+n) +
    Gamma(sigma, 1)) / |Gamma(s)|, with |Gamma(x)/Gamma(x+it)|^2 <= (1 + t^2/x^2)
    sinh(pi t)/(pi t) after a shift to x >= 1 (0 at the poles of Gamma, where S is exact)."""
    sigma, tau = s.real, abs(s.imag)
    if sigma + n <= 0:
        return math.inf  # the remainder integral diverges
    m = max(0, math.ceil(1.0 - sigma))  # 1/Gamma(z) = z (z+1) ... (z+m-1) / Gamma(z+m)
    y = math.pi * tau  # log sinh(y)/y, bounded above
    log_g = (y - math.log(2.0 * y) if y > 20.0 else math.log(math.sinh(y) / y) if y else 0.0)
    x = -n * math.log(2.0) + math.log(math.hypot(1.0, tau / (sigma + m))) + 0.5 * log_g
    for j in range(m):
        if not (d := math.hypot(sigma + j, tau)):
            return 0.0
        x += math.log(d)
    gamma_1 = 1.0 if m == 0 else 1.0 / math.e / _GAMMA_MIN  # Gamma(x, 1) <= Gamma(x) or 1/e
    return math.exp(x + math.log(1.0 / (_GAMMA_MIN * (sigma + n)) + gamma_1))


# ---------------------------------------------------------------------------
# brute-force series limits with iterated averaging
# ---------------------------------------------------------------------------

def _averaged_limit(partials):
    row = list(partials)
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) / 2 for i in range(len(row) - 1)]
    return row[0]


def alt_harmonic_limit(terms: int = 120) -> float:
    """sum (-1)^(k-1)/k by partial sums plus averaging acceleration."""
    acc = 0.0
    partials = []
    for k in range(1, terms + 1):
        acc += (-1) ** (k - 1) / k
        partials.append(acc)
    return _averaged_limit(partials[60:])


def alt_zeta_direct(s: complex, terms: int = 400, keep: int = 60) -> complex:
    """sum (-1)^(k-1) k^(-s) accelerated; good for Re(s) >= 1."""
    acc = 0.0 + 0.0j
    partials = []
    for k in range(1, terms + 1):
        acc += (-1) ** (k - 1) * k ** (-complex(s))
        partials.append(acc)
    return _averaged_limit(partials[terms - keep:])


def binom_series_partial(s: complex, terms: int = 140, keep: int = 64) -> complex:
    """sum_k C(s, k) by brute-force partial sums with tail averaging."""
    c = 1.0 + 0.0j
    acc = 0.0 + 0.0j
    partials = []
    for k in range(terms):
        acc += c
        partials.append(acc)
        c *= (complex(s) - k) / (k + 1)
    return _averaged_limit(partials[terms - keep:])


# ---------------------------------------------------------------------------
# exact rational finite sums (the defining formulas, literally)
# ---------------------------------------------------------------------------

def rational_eta_hasse(n: int, m: int) -> Fraction:
    """sum_{k=0}^{n} (-1)^k C(n,k) (k+1)^(-m) in exact rationals."""
    return sum((Fraction((-1) ** k * math.comb(n, k)) * Fraction(k + 1) ** (-m)
                for k in range(n + 1)), Fraction(0))


def rational_eta_hstar(n: int, m: int) -> Fraction:
    """sum_{k=1}^{n} (-1)^(k-1) C(2n, n+k) k^(-m) in exact rationals."""
    return sum((Fraction((-1) ** (k - 1) * math.comb(2 * n, n + k)) * Fraction(k) ** (-m)
                for k in range(1, n + 1)), Fraction(0))


def eta_hasse_highprec(n: int, s, prec: int = 250, order: int = 0):
    """The HASSE finite sum at `prec` bits, summed naively (safe: the
    precision dwarfs the cancellation for the n used in tests).  With
    order > 0, its order-th s-derivative: each summand (k+1)^(-s) gains
    the factor (-ln(k+1))^order."""
    with mp.workprec(prec):
        sm = mp.mpc(s)
        return sum(((-1) ** k * math.comb(n, k) * (-mp.log(k + 1)) ** order
                    * mp.exp(-sm * mp.log(k + 1)) for k in range(n + 1)), mp.mpc(0))


def eta_hstar_highprec(n: int, s, prec: int = 250, order: int = 0):
    with mp.workprec(prec):
        sm = mp.mpc(s)
        return sum(((-1) ** (k - 1) * math.comb(2 * n, n + k) * (-mp.log(k)) ** order
                    * mp.exp(-sm * mp.log(k)) for k in range(1, n + 1)), mp.mpc(0))


def dirichlet_highprec(coefs, s, prec: int = 250, order: int = 0):
    """sum_b coefs[b-1] b^(-s) (-ln b)^order at `prec` bits, every base
    from its own exp and log (no multiplicativity), summed naively."""
    with mp.workprec(prec):
        sm = mp.mpc(s)
        return sum((c * (-mp.log(b)) ** order * mp.exp(-sm * mp.log(b))
                    for b, c in enumerate(coefs, 1) if c), mp.mpc(0))


# ---------------------------------------------------------------------------
# truncated polynomial-space matrix model of the algebra ([b, a] = u)
# ---------------------------------------------------------------------------

def fock_matrix(letter: str, dim: int, u: int = 1):
    """a acts as multiplication by x, b as u * d/dx on polynomials,
    truncated to basis {1, x, ..., x^(dim-1)}.  Entries are exact ints."""
    m = [[0] * dim for _ in range(dim)]
    if letter.upper() == "A":
        for k in range(dim - 1):
            m[k + 1][k] = 1
    elif letter.upper() == "B":
        for k in range(1, dim):
            m[k - 1][k] = u * k
    else:
        raise ValueError(letter)
    return m


def mat_mul(x, y):
    n = len(x)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        xi = x[i]
        oi = out[i]
        for k in range(n):
            v = xi[k]
            if v:
                yk = y[k]
                for j in range(n):
                    if yk[j]:
                        oi[j] += v * yk[j]
    return out


def mat_add(x, y, scale=1):
    n = len(x)
    return [[x[i][j] + scale * y[i][j] for j in range(n)] for i in range(n)]


def word_matrix(word: str, dim: int, u: int = 1):
    """Operator product of a word, leftmost letter acting last."""
    n = dim
    acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for letter in reversed(word.upper()):
        acc = mat_mul(fock_matrix(letter, dim, u), acc)
    return acc


def monomial_matrix(i: int, j: int, dim: int, u: int = 1):
    """Matrix of the normal-ordered monomial a^i b^j."""
    acc = [[1 if p == q else 0 for q in range(dim)] for p in range(dim)]
    for _ in range(j):
        acc = mat_mul(fock_matrix("B", dim, u), acc)
    for _ in range(i):
        acc = mat_mul(fock_matrix("A", dim, u), acc)
    return acc
