"""The two special-function values the package needs, in pure Python.

``ndtri`` is a port of the Cephes routine of the same name (Stephen L.
Moshier, as shipped in scipy.special), kept operation for operation so
that it returns the same bits: C4.5 pruning takes ``ndtri(1 - cf)``.
``t_critical`` gives the two-sided Student-t critical value for the
corrected resampled t-test, whose degrees of freedom are always an
integer.
"""

from __future__ import annotations

import math

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (  # leading 1.0 implied
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)

# z = sqrt(-2 log y) in [2, 8), i.e. y in (exp(-32), exp(-2)]
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)

# z = sqrt(-2 log y) in [8, 64), i.e. y in (exp(-2048), exp(-32)]
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple) -> float:
    """Horner evaluation, highest power first (Cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """As :func:`_polevl` with an implied leading coefficient of 1
    (Cephes ``p1evl``)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """The x at which the standard normal CDF equals ``y0``.  Returns
    -inf at 0, +inf at 1, and nan outside [0, 1] or for nan."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def _two_sided_tail(t: float, df: int) -> float:
    """P(|T| > t) for Student's t with integer ``df`` >= 1 and t >= 0:
    one minus the finite series of Abramowitz & Stegun 26.7.3 (odd df)
    and 26.7.4 (even df) in theta = atan(t / sqrt(df))."""
    root_df = math.sqrt(df)
    hyp2 = df + t * t
    sin = t / math.sqrt(hyp2)
    cos2 = df / hyp2
    if df % 2:
        term, total = root_df / math.sqrt(hyp2), 0.0
        for k in range(1, (df - 1) // 2 + 1):  # cos, (2/3) cos^3, ... cos^(df-2)
            total += term
            term *= (2 * k) / (2 * k + 1) * cos2
        return 1.0 - 2.0 / math.pi * (math.atan2(t, root_df) + sin * total)
    term, total = 1.0, 0.0
    for k in range(df // 2):  # 1, (1/2) cos^2, ... cos^(df-2)
        total += term
        term *= (2 * k + 1) / (2 * k + 2) * cos2
    return 1.0 - sin * total


def t_critical(df: int, alpha: float) -> float:
    """Two-sided critical value of Student's t: the t > 0 with
    P(|T| > t) = ``alpha`` for integer ``df`` >= 1 and 0 < alpha < 1.

    Newton's method on the closed-form tail, started from the normal
    value, which lies below the root; the tail is convex for t > 0, so
    the iterates rise to the root, and a bracket guards against rounding.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    log_norm = (  # log of the density's constant
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )
    lo, hi = 0.0, math.inf
    t = -ndtri(alpha / 2.0)
    for _ in range(200):
        excess = _two_sided_tail(t, df) - alpha
        if excess == 0.0:
            return t
        if excess > 0.0:
            lo = t
        else:
            hi = t
        density = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = excess / (2.0 * density)
        nxt = t + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * t
        if abs(nxt - t) <= 4.0 * math.ulp(t):
            return nxt
        t = nxt
    return t
