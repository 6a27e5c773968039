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
    zeta (derivative by central differences at matching precision)."""
    with mp.workprec(prec):
        t = mp.mpf(t0)
        h = mp.mpf(2) ** (-prec // 3)
        for _ in range(80):
            f = em_zeta(mp.mpc(mp.mpf(1) / 2, t), prec)
            fp = (em_zeta(mp.mpc(mp.mpf(1) / 2, t + h), prec)
                  - em_zeta(mp.mpc(mp.mpf(1) / 2, t - h), prec)) / (2 * h)
            step = -(f / fp)
            t += step.real
            if abs(step) < mp.mpf(10) ** (-(prec * 3) // 10):
                break
        return t


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
