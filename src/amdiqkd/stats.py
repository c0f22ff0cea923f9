"""Numerical primitives shared by the protocol and the reference protocols.

Two multiplicative Chernoff-style interval maps (observed-from-expected and
expected-from-observed) with their bound helpers, the random-sampling
correction that links a measured error rate to a phase-error rate, the binary
entropy function, and the two click-model primitives ``i0m1`` and
``no_click``.  Counts are treated as reals: the estimators are routinely
applied to expected values.

``FLOATS`` is the operations namespace that the bodies of
:mod:`amdiqkd.channel`, :mod:`amdiqkd.decoy`, :mod:`amdiqkd.keyrate` and
:mod:`amdiqkd.baselines` run on to work on plain numbers; ``amdiqkd.batch.COLUMNS`` holds the same
operations on numpy columns.  ``each`` applies a C-library ``math`` function
to every element of an array, for the batch forms in :mod:`amdiqkd.batch`
and the optimizer's decoding.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

__all__ = [
    "binary_entropy",
    "chernoff_observed",
    "chernoff_expected",
    "expected_lower",
    "expected_upper",
    "observed_lower",
    "observed_upper",
    "sampling_correction",
    "i0m1",
    "no_click",
    "FLOATS",
    "each",
]

# Error rates are clamped into this open interval before the log in
# sampling_correction; the protocol can legitimately observe zero errors.
RATE_FLOOR = 1e-12


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with 0*log2(0) taken as 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _beta(eps: float) -> float:
    """Log-inverse exponent ln(1/eps) of a failure probability eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {eps!r}")
    return math.log(1.0 / eps)


def chernoff_observed(expected: float, eps: float) -> tuple[float, float]:
    """Interval (lower, upper) containing the observed count given its expected value.

    With probability at least 1 - 2*eps a draw with mean ``expected`` lands in
    [lower, upper].
    """
    if not 0.0 <= expected < math.inf:
        raise ValueError(f"expected count must be finite and >= 0, got {expected!r}")
    beta = _beta(eps)
    upper = expected + beta / 2.0 + math.sqrt(2.0 * beta * expected + beta * beta / 4.0)
    lower = max(expected - math.sqrt(2.0 * beta * expected), 0.0)
    return lower, upper


def chernoff_expected(observed: float, eps: float) -> tuple[float, float]:
    """Interval (lower, upper) containing the expected value given an observed count."""
    if not 0.0 <= observed < math.inf:
        raise ValueError(f"observed count must be finite and >= 0, got {observed!r}")
    beta = _beta(eps)
    upper = observed + beta + math.sqrt(2.0 * beta * observed + beta * beta)
    lower = max(observed - beta / 2.0 - math.sqrt(2.0 * beta * observed + beta * beta / 4.0), 0.0)
    return lower, upper


# Bound helpers of the estimation chains; eps=None disables statistical slack,
# which is how the soundness tests compare against Monte Carlo ground truth.

def expected_lower(observed: float, eps: float | None) -> float:
    return observed if eps is None else chernoff_expected(observed, eps)[0]


def expected_upper(observed: float, eps: float | None) -> float:
    return observed if eps is None else chernoff_expected(observed, eps)[1]


def observed_lower(expected: float, eps: float | None) -> float:
    if expected <= 0.0:
        return 0.0
    return expected if eps is None else chernoff_observed(expected, eps)[0]


def observed_upper(expected: float, eps: float | None) -> float:
    if expected <= 0.0:
        return 0.0
    return expected if eps is None else chernoff_observed(expected, eps)[1]


def sampling_correction(n: float, k: float, rate: float, eps: float) -> float:
    """Upper deviation of a rate under random sampling without replacement.

    Given ``n`` kept events, ``k`` test events and an error rate ``rate``
    measured on the test events, returns the amount by which the unobserved
    rate on the kept events can exceed ``rate`` except with probability
    ``eps``.  Vanishes as n, k grow at fixed rate.
    """
    if n <= 0.0 or k <= 0.0:
        raise ValueError(f"sample sizes must be positive, got n={n!r}, k={k!r}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate!r}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {eps!r}")
    lam = min(max(rate, RATE_FLOOR), 1.0 - RATE_FLOOR)
    total = n + k
    a_max = max(n, k)
    g = (total / (n * k)) * math.log(total / (2.0 * math.pi * n * k * lam * (1.0 - lam) * eps * eps))
    if g < 0.0:
        # Statistics so large that the log went negative: no correction needed.
        return 0.0
    ag = a_max * g / total
    num = (1.0 - 2.0 * lam) * ag + math.sqrt(ag * ag + 4.0 * lam * (1.0 - lam) * g)
    den = 2.0 + 2.0 * a_max * ag / total
    return num / den


def i0m1(x: float) -> float:
    """I0(x) - 1, the modified Bessel function of order 0 less one.

    Summed from its power series, whose terms are all positive, so the result
    keeps full relative precision also where I0(x) is close to 1.
    """
    q = 0.25 * x * x
    term = total = q
    k = 1
    while term > 1e-17 * total:
        k += 1
        term *= q / (k * k)
        total += term
    return total


def no_click(mean: float, p_d: float) -> tuple[float, float]:
    """Silence probability y = (1 - p_d) exp(-mean) of one threshold detector, and 1 - y.

    ``mean`` is the mean detected photon number and ``p_d`` the dark-count
    probability; 1 - y is formed without cancellation, so a bin that clicks
    only on dark counts still gets full relative precision.
    """
    log_y = math.log1p(-p_d) - mean
    return math.exp(log_y), -math.expm1(log_y)


# The operations of the estimation bodies, on plain numbers.  Besides the
# functions above: ``square`` is v ** 2, ``all`` is whether every element of a
# condition holds, ``min_over`` is the least of fn(*point) over the points,
# ``sort_terms`` orders (coefficient, count) terms by coefficient, stably, and
# ``first_max`` is the first of the tuples with the largest first element.
FLOATS = SimpleNamespace(
    exp=math.exp, expm1=math.expm1, log1p=math.log1p, sin=math.sin, cos=math.cos,
    sqrt=math.sqrt, square=lambda v: v ** 2, maximum=max, minimum=min, all=bool,
    where=lambda cond, yes, no: yes if cond else no,
    i0m1=i0m1, no_click=no_click, entropy=binary_entropy,
    expected_lower=expected_lower, expected_upper=expected_upper,
    observed_lower=observed_lower, observed_upper=observed_upper,
    sampling_correction=sampling_correction,
    min_over=lambda fn, points: min(fn(*point) for point in points),
    sort_terms=partial(sorted, key=itemgetter(0)),
    first_max=partial(max, key=itemgetter(0)),
)


def each(fn, x) -> np.ndarray:
    """The ``math`` function ``fn`` applied to every element of ``x``.

    numpy's vectorized exp, log1p, expm1 and pow may differ from the C
    library's in the last bit; this keeps the batch forms on the C library.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
