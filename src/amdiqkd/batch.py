"""The column namespace and its helpers, for scoring many parameter sets on
one link at once (the optimizer's generations, see :mod:`amdiqkd.optimizer`).

There is one entry per protocol: ``keyrate.evaluate``,
``baselines.mdi_key_rate`` and ``baselines.bb84_key_rate`` take floats (one
candidate) or (B,) columns (a batch) and pick their operations with
:func:`amdiqkd.stats.ops_for`, which imports this module on the first
batch, so a process that never scores one does not load it.

``COLUMNS`` is the operations namespace of the bodies in
:mod:`amdiqkd.channel`, :mod:`amdiqkd.decoy`, :mod:`amdiqkd.keyrate` and
:mod:`amdiqkd.baselines` on numpy columns, the counterpart of
:data:`amdiqkd.stats.FLOATS`.  It lists base operations only, which call the
C library's exp, log, sin, cos and pow (through :func:`amdiqkd.stats.each`)
where numpy's own may round differently, and the column forms of ``i0m1``,
``min_over``, ``sort_terms`` and ``first_max``; ``with_helpers`` binds the
bodies of :mod:`amdiqkd.stats` to them.  So a row of a batch equals the same
candidate scored alone to rounding, and bit for bit wherever the float sums
add left to right.  ``stacked`` and ``by_pair`` turn per-label columns into
(B, L) arrays and (B, L, L) tables back into label-pair columns, for the
tables that broadcast over all label pairs at once.
"""

from __future__ import annotations

import math
from functools import partial
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .stats import FLOATS, _beta, each, with_helpers

__all__ = ["COLUMNS", "stacked", "by_pair"]


# ---------------------------------------------------------------------------
# column operations
# ---------------------------------------------------------------------------

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
    stacked = [np.stack(np.broadcast_arrays(*column)) for column in zip(*candidates)]
    best = np.argmax(stacked[0], axis=0)[None]  # the first of equal maxima
    return tuple(np.take_along_axis(column, best, axis=0)[0] for column in stacked)


# the base operations of stats.FLOATS on numpy columns, with the bodies of
# amdiqkd.stats bound to them: the operations of the bodies in
# amdiqkd.channel, amdiqkd.decoy, amdiqkd.keyrate and amdiqkd.baselines
COLUMNS = with_helpers(SimpleNamespace(
    exp=partial(each, math.exp), expm1=partial(each, math.expm1), log=partial(each, math.log),
    log1p=partial(each, math.log1p), log2=partial(each, math.log2), sin=partial(each, math.sin),
    cos=partial(each, math.cos), sqrt=np.sqrt, square=partial(each, FLOATS.square),
    maximum=np.maximum, minimum=np.minimum, where=np.where, count=np.asarray,
    beta=_beta,
    i0m1=i0m1_batch, min_over=_min_over, sort_terms=_sort_terms, first_max=_first_max,
))


# ---------------------------------------------------------------------------
# label-pair tables
# ---------------------------------------------------------------------------

def stacked(values: Mapping[str, np.ndarray], labels: Sequence[str]) -> np.ndarray:
    """The (B,) columns of ``values`` as one (B, L) array in ``labels`` order."""
    return np.stack([values[l] for l in labels], axis=-1)


def by_pair(table: np.ndarray, labels: Sequence[str]) -> dict:
    """A (B, L, L) table as a {(label_a, label_b): (B,) column} dict."""
    return {(la, lb): table[:, i, j] for i, la in enumerate(labels)
            for j, lb in enumerate(labels)}

