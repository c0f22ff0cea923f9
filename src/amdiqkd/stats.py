"""Numerical primitives shared by the protocol and the reference protocols.

Two multiplicative Chernoff-style interval maps (observed-from-expected and
expected-from-observed) with their bound helpers, the random-sampling
correction that links a measured error rate to a phase-error rate, the binary
entropy function, and the two click-model primitives ``i0m1`` and
``no_click``.  Counts are treated as reals: the estimators are routinely
applied to expected values.

Each formula but ``i0m1`` (whose series stops per element) is written once,
as a body on the base operations of a namespace (``exp``, ``log``, ``sqrt``,
``maximum``, ``where``, ...), so it runs unchanged on plain numbers, numpy
columns or at any precision; ``with_helpers`` binds the bodies to such a
namespace.  On ``FLOATS`` the checked public functions ``binary_entropy`` and
``sampling_correction`` stand in for their bodies; the other formulas have
one name, their body, and run on floats as ``FLOATS.no_click`` and so on.

The bodies of :mod:`amdiqkd.channel`, :mod:`amdiqkd.decoy`,
:mod:`amdiqkd.keyrate` and :mod:`amdiqkd.baselines` take one of two such
namespaces as their first argument: ``FLOATS`` for one candidate (plain
numbers) and ``COLUMNS`` for a batch (numpy (B,) columns, one row per
parameter set, the optimizer's generations).  So a body never branches on a
value: ``where``, ``maximum`` and ``minimum`` stand for the branches, and a
branch that the result does not use is worked out on placeholder values,
never on a zero divisor.  ``ops_for`` picks the namespace from a value, so
each public entry of those modules takes one candidate or a batch.
``COLUMNS`` calls the C library's exp, log, sin, cos and pow through
``each`` (which the optimizer's decoding uses too), where numpy's own may
round differently, so a row of a batch equals the same candidate scored
alone to rounding, and bit for bit wherever the float sums add left to
right.  ``stacked`` and ``by_pair`` turn per-label columns into (B, L)
arrays and (B, L, L) tables back into label-pair columns, for the tables
that broadcast over all label pairs at once.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from operator import itemgetter
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "binary_entropy",
    "chernoff_observed",
    "chernoff_expected",
    "sampling_correction",
    "i0m1",
    "with_helpers",
    "FLOATS",
    "COLUMNS",
    "ops_for",
    "each",
    "stacked",
    "by_pair",
]

# Error rates are clamped into this open interval before the log in
# sampling_correction; the protocol can legitimately observe zero errors.
RATE_FLOOR = 1e-12

LN2 = math.log(2.0)


@lru_cache(maxsize=64)
def _beta(eps: float) -> float:
    """Log-inverse exponent ln(1/eps) of a failure probability eps in (0, 1),
    kept per eps (a chain reads it ~20 times); a bad eps raises every time."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {eps!r}")
    return math.log(1.0 / eps)


# The ends of the two Chernoff maps, at beta = ln(1/eps).

def _observed_low(ops, expected, beta):
    return ops.maximum(expected - ops.sqrt(2.0 * beta * expected), 0.0)


def _observed_high(ops, expected, beta):
    return expected + beta / 2.0 + ops.sqrt(2.0 * beta * expected + beta * beta / 4.0)


def _expected_low(ops, observed, beta):
    return ops.maximum(observed - beta / 2.0 - ops.sqrt(2.0 * beta * observed + beta * beta / 4.0), 0.0)


def _expected_high(ops, observed, beta):
    return observed + beta + ops.sqrt(2.0 * beta * observed + beta * beta)


# Bound helpers of the estimation chains: one end of a map.  eps=None
# disables statistical slack, which is how the soundness tests compare against
# Monte Carlo ground truth.  An expected count <= 0 has observed bounds 0; it
# is clamped at 0 before the map, which keeps a NaN, so ``count`` on FLOATS
# still rejects one.

def _expected_bound(end, ops, observed, eps: float | None):
    return observed if eps is None else end(ops, ops.count(observed), ops.beta(eps))


def _observed_bound(end, ops, expected, eps: float | None):
    bound = expected if eps is None else end(ops, ops.count(ops.maximum(expected, 0.0)), ops.beta(eps))
    return ops.where(expected <= 0.0, 0.0, bound)


def _sampling_correction(ops, n, k, rate, eps: float):
    lam = ops.minimum(ops.maximum(rate, RATE_FLOOR), 1.0 - RATE_FLOOR)
    total = n + k
    a_max = ops.maximum(n, k)
    g = (total / (n * k)) * ops.log(total / (2.0 * math.pi * n * k * lam * (1.0 - lam) * eps * eps))
    ag = a_max * g / total
    num = (1.0 - 2.0 * lam) * ag + ops.sqrt(ops.maximum(ag * ag + 4.0 * lam * (1.0 - lam) * g, 0.0))
    den = 2.0 + 2.0 * a_max * ag / total
    # statistics so large that the log went negative need no correction
    return ops.where(g < 0.0, 0.0, num / den)


def _binary_entropy(ops, x):
    # log1p(-x) keeps the digits that 1 - x rounds away for x near 0
    inner = (x > 0.0) & (x < 1.0)
    x = ops.where(inner, x, 0.5)
    return ops.where(inner, -x * ops.log2(x) - (1.0 - x) * ops.log1p(-x) / LN2, 0.0)


def _no_click(ops, mean, p_d: float):
    """Silence probability y = (1 - p_d) exp(-mean) of one threshold detector, and 1 - y.

    ``mean`` is the mean detected photon number and ``p_d`` the dark-count
    probability; 1 - y is formed without cancellation, so a bin that clicks
    only on dark counts still gets full relative precision.
    """
    log_y = ops.log1p(-p_d) - mean
    return ops.exp(log_y), -ops.expm1(log_y)


_BODIES = {
    "expected_lower": partial(_expected_bound, _expected_low),
    "expected_upper": partial(_expected_bound, _expected_high),
    "observed_lower": partial(_observed_bound, _observed_low),
    "observed_upper": partial(_observed_bound, _observed_high),
    "sampling_correction": _sampling_correction,
    "entropy": _binary_entropy,
    "no_click": _no_click,
}


def with_helpers(ops: SimpleNamespace, **checked) -> SimpleNamespace:
    """``ops``, a namespace of base operations, with every body above bound to
    it under its public name (``entropy`` for ``binary_entropy``), or the
    function that ``checked`` gives for that name."""
    for name, body in _BODIES.items():
        setattr(ops, name, checked[name] if name in checked else partial(body, ops))
    return ops


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with 0*log2(0) taken as 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x!r}")
    return _binary_entropy(FLOATS, x)


def _count(x: float) -> float:
    if not 0.0 <= x < math.inf:
        raise ValueError(f"count must be finite and >= 0, got {x!r}")
    return x


def chernoff_observed(expected: float, eps: float) -> tuple[float, float]:
    """Interval (lower, upper) containing the observed count given its expected value.

    With probability at least 1 - 2*eps a draw with mean ``expected`` lands in
    [lower, upper].
    """
    expected, beta = _count(expected), _beta(eps)
    return _observed_low(FLOATS, expected, beta), _observed_high(FLOATS, expected, beta)


def chernoff_expected(observed: float, eps: float) -> tuple[float, float]:
    """Interval (lower, upper) containing the expected value given an observed count."""
    observed, beta = _count(observed), _beta(eps)
    return _expected_low(FLOATS, observed, beta), _expected_high(FLOATS, observed, beta)


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
    return _sampling_correction(FLOATS, n, k, rate, eps)


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


# The operations of the estimation bodies, on plain numbers.  Besides the
# ``math`` functions: ``count`` passes a count through and rejects one that
# is not finite and >= 0, ``beta`` is ln(1/eps) of a float eps, ``square`` is
# v ** 2, ``min_over`` is the least of fn(*point) over the points,
# ``sort_terms`` orders (coefficient, count) terms by coefficient, stably, and
# ``first_max`` is the first of the tuples with the largest first element.
FLOATS = with_helpers(
    SimpleNamespace(
        exp=math.exp, expm1=math.expm1, log=math.log, log1p=math.log1p, log2=math.log2,
        sin=math.sin, cos=math.cos, sqrt=math.sqrt, square=lambda v: v ** 2,
        maximum=max, minimum=min, where=lambda cond, yes, no: yes if cond else no,
        count=_count, beta=_beta, i0m1=i0m1,
        min_over=lambda fn, points: min(fn(*point) for point in points),
        sort_terms=partial(sorted, key=itemgetter(0)),
        first_max=partial(max, key=itemgetter(0)),
    ),
    sampling_correction=sampling_correction, entropy=binary_entropy,
)


def each(fn, x):
    """The ``math`` function ``fn`` applied to every element of ``x``; a float
    ``x`` gives ``fn(x)``.

    numpy's vectorized exp, log1p, expm1 and pow may differ from the C
    library's in the last bit; this keeps the column path on the C library,
    so a batch and one candidate at a time give the same digits.
    """
    if isinstance(x, float):
        return fn(x)
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def i0m1_batch(x: np.ndarray) -> np.ndarray:
    """``i0m1`` per element: each element's series stops where its scalar one does."""
    q = 0.25 * x * x
    term = q
    total = q.copy()
    k = 1
    going = term > 1e-17 * total
    while going.any():
        k += 1
        term = np.where(going, term * (q / (k * k)), term)
        total = np.where(going, total + term, total)
        going &= term > 1e-17 * total
    return total


def _min_over(fn, points):
    """The least of ``fn(*point)`` over ``points`` per row, with all points in
    one call: each argument stacked to (P, B)."""
    return fn(*(np.stack(column) for column in zip(*points))).min(axis=0)


def _sort_terms(terms):
    """``sorted(terms)`` by coefficient in every row, stable as sorted() is:
    the (coefficient, count) columns of each rank in turn."""
    columns = np.broadcast_arrays(*(v for term in terms for v in term))
    coefs, counts = np.stack(columns[0::2]), np.stack(columns[1::2])
    order = np.argsort(coefs, axis=0, kind="stable")
    return list(zip(np.take_along_axis(coefs, order, axis=0),
                    np.take_along_axis(counts, order, axis=0)))


def _first_max(candidates):
    """The first of ``candidates`` with the largest first element, per row:
    the candidates are tuples of columns, and so is the result."""
    stacks = [np.stack(np.broadcast_arrays(*column)) for column in zip(*candidates)]
    best = np.argmax(stacks[0], axis=0)[None]  # the first of equal maxima
    return tuple(np.take_along_axis(column, best, axis=0)[0] for column in stacks)


# The operations of FLOATS on numpy columns, with the bodies above bound to
# them; min_over, sort_terms and first_max work per row.
COLUMNS = with_helpers(SimpleNamespace(
    exp=partial(each, math.exp), expm1=partial(each, math.expm1), log=partial(each, math.log),
    log1p=partial(each, math.log1p), log2=partial(each, math.log2), sin=partial(each, math.sin),
    cos=partial(each, math.cos), sqrt=np.sqrt, square=partial(each, FLOATS.square),
    maximum=np.maximum, minimum=np.minimum, where=np.where, count=np.asarray,
    beta=_beta,
    i0m1=i0m1_batch, min_over=_min_over, sort_terms=_sort_terms, first_max=_first_max,
))


def ops_for(value) -> SimpleNamespace:
    """The namespace of the bodies for ``value``: ``COLUMNS`` for a numpy
    array (a batch of candidates), ``FLOATS`` for anything else (one candidate)."""
    return COLUMNS if isinstance(value, np.ndarray) else FLOATS


def stacked(values: Mapping[str, np.ndarray], labels: Sequence[str]) -> np.ndarray:
    """The (B,) columns of ``values`` as one (B, L) array in ``labels`` order."""
    return np.stack([values[l] for l in labels], axis=-1)


def by_pair(table: np.ndarray, labels: Sequence[str]) -> dict:
    """A (B, L, L) table as a {(label_a, label_b): (B,) column} dict."""
    return {(la, lb): table[:, i, j] for i, la in enumerate(labels)
            for j, lb in enumerate(labels)}
