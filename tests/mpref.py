"""Reference values of the Al-Salam-Chihara kernels from their defining
formulas, evaluated in mpmath to at least 50 significant digits.

Every input is taken exactly: a float or ``np.longdouble`` x enters as the
rational ``np.longdouble(x).as_integer_ratio()``, so a reference differs from
the library's value only by the library's own rounding.  Formulas follow
Koekoek, Lesky & Swarttouw, *Hypergeometric Orthogonal Polynomials and Their
q-Analogues* (2010), section 14.8 (Al-Salam-Chihara), and Gasper & Rahman,
*Basic Hypergeometric Series* (2004), for the terminating 3phi2.

The terminating series is summed term by term, not with ``mpmath.qhyper``:
at a base such as 0.49, base^(-k) is not exact in mpf, the series then never
terminates and ``qhyper`` raises ``NoConvergence``.  Its terms grow like
base^(-k(k-1)/2) while the sum stays O(1), so the working precision is
raised until 50 digits survive the cancellation, read off as the ratio of
the largest term to the sum.
"""

import functools
import math

import mpmath
import numpy as np
from mpmath import mp

#: significant digits every reference carries
DIGITS = 50
_GUARD = 10


def exact(x):
    """x as an exact mpf, or mpc for a complex x; call at >= 64-bit precision."""
    if np.iscomplexobj(x):
        return mpmath.mpc(exact(np.real(x)), exact(np.imag(x)))
    num, den = np.longdouble(x).as_integer_ratio()
    return mpmath.mpf(num) / den


def rel_err(got, ref) -> float:
    """|got - ref| / |ref|, with ``got`` taken exactly."""
    with mp.workdps(DIGITS + _GUARD):
        return float(abs(exact(got) - ref) / abs(ref))


@functools.lru_cache(maxsize=None)
def _qp_inf(x, q):
    """(x; q)_inf at the reference precision.  Kept: the weight's numerator
    and the c-function's denominator do not depend on the sector.  Near
    q = 1 the product needs more factors than mpmath's default cap (about
    70,000 at q = 0.998)."""
    with mp.workdps(DIGITS + _GUARD):
        return mpmath.qp(x, q, maxterms=10 ** 6)


def phi32_terminating(k: int, alpha, beta, base, w, last: int | None = None):
    """3phi2(base^-k, alpha w, alpha/w; alpha beta, 0 | base; base), its
    terms i = 0..last (default k, where the series terminates) summed in
    mpmath.

    alpha, beta and base are taken exactly; ``w`` is a number taken exactly,
    or a function returning w at the current working precision.  Term i is
    term i-1 times the ratio of the Pochhammer products at i and i-1.
    """
    last = k if last is None else last
    # the largest term is about base^(-last (k - (last+1)/2))
    dps = int(last * (k - (last + 1) / 2) * -math.log10(float(base))) \
        + DIGITS + 2 * _GUARD
    while True:
        with mp.workdps(dps):
            al, be, q = exact(alpha), exact(beta), exact(base)
            ww = w() if callable(w) else exact(w)
            term = mpmath.mpf(1)
            terms = [term]
            for i in range(last):
                p = q ** i
                term *= (1 - q ** -k * p) * (1 - al * ww * p) * (1 - al / ww * p) \
                    * q / ((1 - q * p) * (1 - al * be * p))
                terms.append(term)
            total = mpmath.fsum(terms)
            lost = float(mpmath.log10(max(abs(t) for t in terms) / abs(total)))
            if dps - lost >= DIGITS + _GUARD:
                return total
        dps = max(2 * dps, int(lost) + DIGITS + 2 * _GUARD)


def asc_polynomial(k: int, p, w, last: int | None = None):
    """Q_k(z; a, b | base) at z = (w + 1/w)/2 (KLS 14.8.1):
    (a b; base)_k a^(-k) 3phi2(base^-k, a w, a/w; a b, 0 | base; base);
    ``w`` and ``last`` as in :func:`phi32_terminating`."""
    series = phi32_terminating(k, p.a, p.b, p.base, w, last)
    with mp.workdps(DIGITS + _GUARD):
        a, b, q = exact(p.a), exact(p.b), exact(p.base)
        return mpmath.qp(a * b, q, k) * a ** -k * series


def eigenfunction(j: int, p, w, last: int | None = None):
    """The sector eigenfunction at x = q^(-2j) for the family p = asc_params,
    Q_j b^j / (a b; base)_j = (b/a)^j 3phi2(base^-j, a w, a/w; a b, 0 | base;
    base), which is 1 at j = 0; ``w`` and ``last`` as in
    :func:`phi32_terminating`."""
    series = phi32_terminating(j, p.a, p.b, p.base, w, last)
    with mp.workdps(DIGITS + _GUARD):
        return (exact(p.b) / exact(p.a)) ** j * series


def eigenfunction_at_mass(j: int, p, kd: int):
    """:func:`eigenfunction` at the kd-th mass point w = a base^kd, where
    (a/w; base)_i = (base^-kd; base)_i ends the series after kd+1 terms."""
    return eigenfunction(j, p, lambda: exact(p.a) * exact(p.base) ** kd,
                         last=min(j, kd))


def band_w(z):
    """w = z + i sqrt(1 - z^2) for a band point z taken exactly, as a
    function returning w at the current working precision (the ``w`` of
    :func:`phi32_terminating`)."""
    return lambda: exact(z) + 1j * mpmath.sqrt(1 - exact(z) ** 2)


def eigenfunction_band(J: int, p, z) -> list:
    """The sector eigenfunction at x = q^(-2j), j = 0..J, at a band point z
    taken exactly, as Q_j b^j / (a b; base)_j with Q_j from the three-term
    recurrence (KLS 14.8.4) run in mpmath.  On the band the forward
    recurrence is stable; the values are taken at two working precisions and
    must agree to DIGITS digits."""
    def run(dps):
        with mp.workdps(dps):
            a, b, q, zz = exact(p.a), exact(p.b), exact(p.base), exact(z)
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            scale = mpmath.mpf(1)  # b^j / (a b; base)_j
            out = [cur]
            for k in range(J):
                prev, cur = cur, (2 * zz - (a + b) * q ** k) * cur \
                    - (1 - q ** k) * (1 - a * b * q ** (k - 1)) * prev
                scale *= b / (1 - a * b * q ** k)
                out.append(cur * scale)
            return out
    low, high = run(DIGITS + _GUARD), run(2 * (DIGITS + _GUARD))
    with mp.workdps(2 * (DIGITS + _GUARD)):
        assert all(abs(x - y) <= mpmath.mpf(10) ** -DIGITS * abs(y)
                   for x, y in zip(low, high))
    return high


def profile_error(got, ref, p) -> float:
    """Worst error of profile values got[j] against references ref[j] (real
    parts taken), each in units of max(|ref[j]|, |b^j / (a b; base)_j|).
    The profile is Q_j b^j / (a b; base)_j, and Q_j passes through zero on
    the band, so this is the error of Q_j relative to max(|Q_j|, 1)."""
    worst = 0.0
    with mp.workdps(DIGITS + _GUARD):
        a, b, q = exact(p.a), exact(p.b), exact(p.base)
        unit = mpmath.mpf(1)
        for j, (g, r) in enumerate(zip(got, ref)):
            err = abs(exact(g) - mpmath.re(r)) / max(abs(r), unit)
            worst = max(worst, float(err))
            unit *= abs(b / (1 - a * b * q ** j))
    return worst


def band_weight(theta, p):
    """w(cos theta) = |(e^(2 i theta); base)_inf
    / ((a e^(i theta), b e^(i theta); base)_inf)|^2 (KLS 14.8.2)."""
    with mp.workdps(DIGITS + _GUARD):
        a, b, q = exact(p.a), exact(p.b), exact(p.base)
        u = mpmath.expj(exact(theta))
        return abs(_qp_inf(u * u, q) / (_qp_inf(a * u, q) * _qp_inf(b * u, q))) ** 2


def inverse_norm(n: int, p):
    """(base^(n+1), a b base^n; base)_inf, the reciprocal of the n-th squared
    norm of the orthogonality measure (KLS 14.8.2)."""
    with mp.workdps(DIGITS + _GUARD):
        a, b, q = exact(p.a), exact(p.b), exact(p.base)
        return _qp_inf(q ** (n + 1), q) * _qp_inf(a * b * q ** n, q)


def masses(p) -> list:
    """The point masses w_k at x_k = (a base^k + 1/(a base^k))/2 for every
    k >= 0 with a base^k > 1 (KLS 14.8.2):

        w_k = (a^-2; q)_inf / (q, a b, b/a; q)_inf
              * (1 - a^2 q^(2k)) (a^2, a b; q)_k / ((1 - a^2) (q, a q/b; q)_k)
              * q^(-k^2) (a^3 b)^(-k).
    """
    with mp.workdps(DIGITS + _GUARD):
        a, b, q = exact(p.a), exact(p.b), exact(p.base)
        head = _qp_inf(a ** -2, q) / (_qp_inf(q, q) * _qp_inf(a * b, q)
                                      * _qp_inf(b / a, q))
        out = []
        k = 0
        while a * q ** k > 1:
            out.append(head * (1 - a ** 2 * q ** (2 * k))
                       * mpmath.qp(a ** 2, q, k) * mpmath.qp(a * b, q, k)
                       / ((1 - a ** 2) * mpmath.qp(q, q, k)
                          * mpmath.qp(a * q / b, q, k))
                       * q ** (-k * k) * (a ** 3 * b) ** -k)
            k += 1
        return out


def c_function(p, q, arg):
    """(a u, b u; base)_inf / (u^2; base)_inf at u = q^arg, the sector's
    c-function for the family p = asc_params."""
    with mp.workdps(DIGITS + _GUARD):
        a, b, base = exact(p.a), exact(p.b), exact(p.base)
        u = mpmath.exp(exact(arg) * mpmath.log(exact(q)))
        return _qp_inf(a * u, base) * _qp_inf(b * u, base) / _qp_inf(u * u, base)
