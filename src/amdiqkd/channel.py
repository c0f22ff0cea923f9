"""Expected observables of an asynchronous MDI-QKD link.

Weak coherent pulses from two parties interfere on a 50:50 beam splitter at
an untrusted middle node; a time bin is kept when exactly one of the two
threshold detectors fires.  Kept clicks are paired with the nearest later
click inside a pairing window, and each pair is classified by the per-party
two-bin intensity totals.  This module evaluates the closed forms for:

* the per-bin click probability at fixed or averaged interference phase,
* the number of pairs and the mean pairing interval,
* the coincidence table over intensity totals (with phase sifting for the
  matched-phase groups used as the X basis),
* the X-basis error count including interferometer misalignment and the
  slow phase drift accumulated over the pairing interval,
* the Z-basis bit error rate of each key group.

The group structure of a label set (the single-bin label pairs that survive
click filtering, the per-party two-bin totals, the (total_a, total_b)
coincidence groups with their surviving (early, late) splits, and the
phase-sifted groups) has one owner, :class:`GroupLayout`, built once per
(labels, click_filtering) and read by every module that walks the groups.
The per-group tables (:func:`split_sums`, the counts, the Z error rates and
:func:`amdiqkd.decoy.pairing_probs`) are :class:`GroupValues` mappings: a
group is worked out on its first read, so the chain pays only for the groups
it reads, and iterating yields every group, in order.

The observables are written once, as bodies that take an operations namespace
first (see :mod:`amdiqkd.decoy`).  :func:`click_table` and
:func:`expected_observables` are the one entry for a single candidate and a
batch: :class:`SourceConfig` holds floats for one candidate or (B,) columns
for a batch, its pairing window included (checked either way), and the
bodies run on :data:`amdiqkd.stats.FLOATS` or on numpy columns, one row per
candidate, with the click table as a {label pair: column} dict.  So a body
never branches on a value; without kept clicks or pairs, it works on
placeholder values.  A :class:`ChannelLink` holds only the fibre and timing
constants, so one link serves every candidate.

Every phase average is an exact I0 closed form, accurate to rounding on long
links.  An event-level Monte Carlo counterpart lives in
:mod:`amdiqkd.oracle`; every closed form here is validated against it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .stats import FLOATS, ops_for

__all__ = [
    "LABEL_ORDER",
    "DetectorPair",
    "ChannelLink",
    "GroupLayout",
    "GroupValues",
    "SourceConfig",
    "ObservableSet",
    "pair_gain",
    "click_table",
    "kept_click_prob",
    "expected_observables",
    "split_sums",
    "validate_party",
]

# Canonical ordering of intensity labels, brightest first.
LABEL_ORDER = ("mu", "omega", "nu", "o")

LabelPair = tuple[str, str]
CountKey = tuple[LabelPair, LabelPair]


@dataclass(frozen=True)
class DetectorPair:
    """The relay's two threshold detectors (assumed identical).

    eta_d        detection efficiency, in (0, 1]
    dark_rate_hz dark counts per second per detector
    """

    eta_d: float
    dark_rate_hz: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_d <= 1.0:
            raise ValueError(f"eta_d must be in (0, 1], got {self.eta_d!r}")
        if self.dark_rate_hz < 0.0:
            raise ValueError(f"dark_rate_hz must be >= 0, got {self.dark_rate_hz!r}")

    def dark_prob(self, clock_hz: float) -> float:
        """Per-time-bin dark count probability at the given clock rate."""
        p = self.dark_rate_hz / clock_hz
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dark probability {p!r} outside [0, 1)")
        return p


@dataclass(frozen=True)
class ChannelLink:
    """Fibre spans from both parties to the relay plus timing parameters.

    length_a_km / length_b_km   fibre lengths to the relay
    attenuation_db_per_km       fibre loss coefficient
    clock_hz                    pulse repetition rate F
    phase_drift_rad_per_s       fibre phase drift rate
    laser_offset_hz             residual laser frequency difference
    interference_error          interferometer misalignment error rate
    phase_slices                number of discrete global phases M (even)
    """

    length_a_km: float
    length_b_km: float
    attenuation_db_per_km: float
    clock_hz: float
    phase_drift_rad_per_s: float = 0.0
    laser_offset_hz: float = 0.0
    interference_error: float = 0.0
    phase_slices: int = 16

    def __post_init__(self) -> None:
        if not (0.0 <= self.length_a_km < math.inf and 0.0 <= self.length_b_km < math.inf):
            raise ValueError("fibre lengths must be finite and >= 0")
        if self.clock_hz <= 0.0:
            raise ValueError("clock_hz must be positive")
        if self.phase_slices < 2 or self.phase_slices % 2:
            raise ValueError("phase_slices must be an even integer >= 2")
        if not 0.0 <= self.interference_error < 0.5:
            raise ValueError("interference_error must be in [0, 0.5)")

    @cached_property
    def eta_a(self) -> float:
        return 10.0 ** (-self.attenuation_db_per_km * self.length_a_km / 10.0)

    @cached_property
    def eta_b(self) -> float:
        return 10.0 ** (-self.attenuation_db_per_km * self.length_b_km / 10.0)

    @property
    def total_km(self) -> float:
        return self.length_a_km + self.length_b_km

    @property
    def phase_rate_rad_per_s(self) -> float:
        """Relative phase rate of the two parties' fields, 2π·laser offset + drift."""
        return 2.0 * math.pi * self.laser_offset_hz + self.phase_drift_rad_per_s

    def drift_phase(self, t_mean_s: float) -> float:
        """Phase offset accumulated over the mean pairing interval."""
        return t_mean_s * self.phase_rate_rad_per_s


def _require(ok, message: str, *shown: Mapping) -> None:
    """Raise ValueError(message) unless ``ok`` holds: a bool, or a (B,) column
    of them that must hold on every row.  The message ends with the values of
    the ``shown`` mappings; for columns it names the first failing candidate
    and shows that row."""
    if isinstance(ok, np.ndarray):
        if ok.all():
            return
        bad = int(np.argmin(ok))
        message = f"candidate {bad}: {message}"
        shown = [{k: np.broadcast_to(v, ok.shape)[bad] for k, v in m.items()} for m in shown]
    elif ok:
        return
    got = ", ".join(str({k: float(v) for k, v in m.items()}) for m in shown)
    raise ValueError(f"{message}, got {got}" if shown else message)


def validate_party(intensities: Mapping[str, float], probabilities: Mapping[str, float]) -> None:
    """Reject one party's levels unless inf > mu > (omega >) nu > o = 0 with
    send probabilities in (0, 1) that sum to one.

    The levels and probabilities are floats or (B,) columns, one row per
    candidate; every row must pass.
    """
    labels = set(intensities)
    if labels != set(probabilities) or not {"mu", "nu", "o"} <= labels <= set(LABEL_ORDER):
        raise ValueError(f"levels and probabilities must both have the labels mu, nu, o and "
                         f"optionally omega, got {sorted(intensities)}, {sorted(probabilities)}")
    ordered = [intensities[l] for l in LABEL_ORDER if l in labels]
    ok = ordered[-1] == 0.0
    for hi, lo in zip(ordered, ordered[1:]):
        ok = ok & (hi > lo) & (hi < math.inf)
    total = 0.0
    for p in probabilities.values():
        ok = ok & (p > 0.0) & (p < 1.0)
        total = total + p
    ok = ok & (abs(total - 1.0) <= 1e-9)
    _require(ok, "intensities must be finite and strictly decreasing mu > (omega >) nu > o = 0 "
             "and probabilities in (0, 1) must sum to 1", intensities, probabilities)


@dataclass(frozen=True)
class SourceConfig:
    """Per-party intensity sets and send probabilities, and the relay's
    post-processing of the clicks.

    Three-intensity operation uses labels {mu, nu, o}; adding "omega" on both
    sides selects the four-intensity variant.  With ``click_filtering`` on,
    single-bin clicks where the two parties used different non-vacuum levels
    are discarded before pairing; a kept click pairs with the next one only
    within ``pairing_window_bins`` time bins.  The levels, probabilities and
    window are floats (one candidate) or (B,) columns (a batch, one row per
    candidate), each checked in ``__post_init__``; ``layout`` is shared per
    label set.
    """

    intensities_a: Mapping[str, float]
    probabilities_a: Mapping[str, float]
    intensities_b: Mapping[str, float]
    probabilities_b: Mapping[str, float]
    click_filtering: bool = True
    pairing_window_bins: float = 1e6
    layout: "GroupLayout" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        validate_party(self.intensities_a, self.probabilities_a)
        validate_party(self.intensities_b, self.probabilities_b)
        if set(self.intensities_a) != set(self.intensities_b):
            raise ValueError("both parties must use the same label set")
        window = self.pairing_window_bins
        _require((window >= 1.0) & (window < math.inf),
                 "pairing_window_bins must be finite and >= 1")
        object.__setattr__(self, "layout",
                           _group_layout(tuple(self.intensities_a), self.click_filtering))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.layout.labels

    @property
    def four_intensity(self) -> bool:
        return "omega" in self.layout.labels

    @property
    def survival_prob(self) -> float:
        """Probability that a click survives filtering, from send probabilities."""
        p_s = 1.0
        for la, lb in self.layout.dropped:
            p_s -= self.probabilities_a[la] * self.probabilities_b[lb]
        return p_s

    @classmethod
    def from_params(cls, params: Mapping[str, float], four_intensity: bool = False,
                    click_filtering: bool = True) -> "SourceConfig":
        """Build a config from a flat candidate, floats or (B,) columns: the
        levels mu, nu (and omega with ``four_intensity``) of sides a and b as
        ``_read_sides`` reads them, and the window ``tc_bins`` if present."""
        levels = ("mu", "nu", "omega") if four_intensity else ("mu", "nu")
        return cls(*_read_sides(params, levels, "ab", optional=("tc_bins",)),
                   click_filtering=click_filtering,
                   pairing_window_bins=params.get("tc_bins", cls.pairing_window_bins))


@lru_cache(maxsize=None)
def _flat_keys(levels: tuple, sides: str, required: tuple, optional: tuple) -> tuple:
    """The keys a flat candidate must carry, and those it may carry."""
    must = frozenset(f"{p}{l}_{s}" for s in sides for l in levels for p in ("", "p_"))
    return must.union(required), must.union(required, optional)


def _read_sides(params: Mapping[str, float], levels: tuple, sides: str, required: tuple = (),
                optional: tuple = ()) -> list:
    """[levels, send probabilities] of each side of a flat candidate that holds
    exactly ``<l>_<side>``, ``p_<l>_<side>`` and ``required`` (and may hold
    ``optional``), else ValueError naming the keys.  The vacuum probability is
    what the others leave, added left to right in ``levels`` order."""
    must, allowed = _flat_keys(levels, sides, required, optional)
    if not must <= params.keys() <= allowed:
        raise ValueError(f"flat parameters: missing keys {sorted(must - params.keys())}, "
                         f"unread keys {sorted(params.keys() - allowed)}")
    read = []
    for side in sides:
        ints = {l: params[f"{l}_{side}"] for l in levels}
        probs = {l: params[f"p_{l}_{side}"] for l in levels}
        total = 0.0
        for p in probs.values():
            total = total + p
        ints["o"] = np.zeros_like(ints["mu"]) if isinstance(ints["mu"], np.ndarray) else 0.0
        probs["o"] = 1.0 - total
        read += [ints, probs]
    return read


@dataclass(frozen=True)
class GroupLayout:
    """Coincidence-group structure of one label set under one filtering choice.

    labels   the label set, in LABEL_ORDER
    kept     single-bin label pairs (label_a, label_b) that survive click
             filtering, in LABEL_ORDER
    dropped  the other single-bin label pairs, in LABEL_ORDER
    totals   one party's unordered two-bin label combinations, canonically ordered
    groups   the (total_a, total_b) coincidence groups, total_a major
    splits   per group, the (early, late) single-bin label pairs it arises
             from, skipping those with a filtered bin
    sifted   matched-phase groups: the same bright level in all four bins
    """

    labels: tuple[str, ...]
    kept: tuple[LabelPair, ...]
    dropped: tuple[LabelPair, ...]
    totals: tuple[LabelPair, ...]
    groups: tuple[CountKey, ...]
    splits: tuple[tuple[tuple[LabelPair, LabelPair], ...], ...]
    sifted: tuple[CountKey, ...]

    @cached_property
    def group_pos(self) -> dict[CountKey, int]:
        """Position of each group in ``groups``."""
        return {g: i for i, g in enumerate(self.groups)}

    @cached_property
    def splits_of(self) -> dict[CountKey, tuple[tuple[LabelPair, LabelPair], ...]]:
        """``splits`` keyed by group."""
        return dict(zip(self.groups, self.splits))

    @cached_property
    def single_level(self) -> dict[CountKey, LabelPair]:
        """Each group ((k_a, o), (k_b, o)) of bright levels, mapped to (k_a, k_b)."""
        bright = [l for l in self.labels if l != "o"]
        return {((ka, "o"), (kb, "o")): (ka, kb) for ka in bright for kb in bright}


@lru_cache(maxsize=None)
def _group_layout(names: tuple[str, ...], click_filtering: bool) -> GroupLayout:
    """The layout of the label set ``names``, given in any order."""
    labels = tuple(l for l in LABEL_ORDER if l in names)
    bright = [l for l in labels if l != "o"]
    pairs = [(la, lb) for la in labels for lb in labels]
    kept = tuple((la, lb) for la, lb in pairs
                 if not (click_filtering and la != lb and la in bright and lb in bright))
    dropped = tuple(pair for pair in pairs if pair not in kept)
    totals = tuple((l1, l2) for i, l1 in enumerate(labels) for l2 in labels[i:])
    groups = tuple((ta, tb) for ta in totals for tb in totals)

    def orders(total: LabelPair) -> tuple[LabelPair, ...]:
        return (total,) if total[0] == total[1] else (total, total[::-1])

    splits = tuple(
        tuple(
            ((ae, be), (al, bl))
            for ae, al in orders(ta)
            for be, bl in orders(tb)
            if (ae, be) in kept and (al, bl) in kept
        )
        for ta, tb in groups
    )
    sifted = tuple(((l, l), (l, l)) for l in bright)
    return GroupLayout(labels, kept, dropped, totals, groups, splits, sifted)


_UNSET = object()


class GroupValues(Mapping):
    """A read-only {group: value} mapping over the keys of the dict ``groups``.

    ``value(group)`` works out a group's value on its first read, and the
    mapping keeps it; it raises KeyError for a key that is not a group.
    Iterating yields every group, in order, so ``items()``, ``len``, ``==``,
    ``dict(m)`` and ``{**m}`` see the whole table.
    """

    __slots__ = ("_groups", "_value", "_known")

    def __init__(self, groups: Mapping[CountKey, object], value) -> None:
        self._groups = groups
        self._value = value
        self._known: dict[CountKey, float] = {}

    def __getitem__(self, key: CountKey) -> float:
        # a sentinel, not KeyError, marks a first read: raising costs more
        # than the sum
        value = self._known.get(key, _UNSET)
        if value is _UNSET:
            value = self._known[key] = self._value(key)
        return value

    def __iter__(self):
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


def split_sums(layout: GroupLayout, weight: Mapping[LabelPair, float],
               finish=None) -> GroupValues:
    """Sum over (early, late) splits of weight[early] * weight[late], per group.

    ``weight`` maps each kept single-bin label pair (label_a, label_b) to its
    weight; the result is keyed by the (total_a, total_b) coincidence groups
    and works out a group's sum on its first read (see :class:`GroupValues`).
    ``finish(group, sum)``, if given, turns the sum into the group's value.
    """
    splits_of = layout.splits_of

    def split_sum(key: CountKey):
        acc = 0.0
        for early, late in splits_of[key]:
            acc += weight[early] * weight[late]
        return acc if finish is None else finish(key, acc)

    return GroupValues(layout.group_pos, split_sum)


def _pair_terms(ops, k_a, k_b, link: ChannelLink, det: DetectorPair):
    """Silence probability y of one port at its phase-free mean, 1 - y, and the
    Bessel argument c = eta_d sqrt(eta_a k_a eta_b k_b): at phase theta the
    ports see eta_d (eta_a k_a + eta_b k_b)/2 +- c cos(theta) photons."""
    t_a, t_b = link.eta_a * k_a, link.eta_b * k_b
    y, click = ops.no_click(0.5 * det.eta_d * (t_a + t_b), det.dark_prob(link.clock_hz))
    return y, click, det.eta_d * ops.sqrt(t_a * t_b)


def _pair_gain(ops, k_a, k_b, link: ChannelLink, det: DetectorPair):
    y, click, c = _pair_terms(ops, k_a, k_b, link, det)
    return 2.0 * y * (ops.i0m1(c) + click)


def pair_gain(k_a: float, k_b: float, link: ChannelLink, det: DetectorPair) -> float:
    """Phase-averaged single-click probability for intensities (k_a | k_b).

    Equals the average over theta of the left plus right single-click
    probabilities, 2y I0(c) - 2y^2, written as 2y [(I0(c) - 1) + (1 - y)].
    """
    if k_a < 0.0 or k_b < 0.0:
        raise ValueError("intensities must be >= 0")
    return _pair_gain(FLOATS, k_a, k_b, link, det)


def _click_correlations(ops, k_a, k_b, delta, link: ChannelLink, det: DetectorPair):
    """Phase averages of click products of two bins whose phases differ by ``delta``.

    Returns (opposite, same), the means over theta of q_L q_R' + q_R q_L' and
    q_L q_L' + q_R q_R' (primes at theta + delta):
    2y^2 [I0(2c sin(delta/2)) - 2y I0(c) + y^2] and the same with cos.
    """
    y, click, c = _pair_terms(ops, k_a, k_b, link, det)
    common = click * click - 2.0 * y * ops.i0m1(c)
    scale = 2.0 * y * y
    opposite = scale * (ops.i0m1(2.0 * c * ops.sin(0.5 * delta)) + common)
    same = scale * (ops.i0m1(2.0 * c * ops.cos(0.5 * delta)) + common)
    return opposite, same


def click_table(
    source: SourceConfig, link: ChannelLink, det: DetectorPair
) -> dict[LabelPair, float]:
    """Phase-averaged single-click probability of every single-bin label pair.

    A column source gets the pair gain of all L x L label pairs at once, from
    one (B, L, L) table.
    """
    ints_a, ints_b, labels = source.intensities_a, source.intensities_b, source.labels
    ops = ops_for(ints_a["mu"])
    if ops is FLOATS:
        return {(la, lb): pair_gain(ints_a[la], ints_b[lb], link, det)
                for la in labels for lb in labels}
    from .batch import by_pair, stacked

    k_a, k_b = stacked(ints_a, labels), stacked(ints_b, labels)
    return by_pair(_pair_gain(ops, k_a[:, :, None], k_b[:, None, :], link, det), labels)


def kept_click_prob(source: SourceConfig, table: Mapping[LabelPair, float]) -> float:
    """Probability that a time bin produces a click that survives filtering."""
    q_tot = 0.0
    for la, lb in source.layout.kept:
        q_tot += source.probabilities_a[la] * source.probabilities_b[lb] * table[(la, lb)]
    return q_tot


def _pairing_statistics(ops, n_pulses: float, q_tot, window, clock_hz: float):
    """Number of formed pairs and mean pairing interval in seconds.

    A kept click pairs with the next kept click if it arrives within the
    pairing window of ``window`` bins; otherwise it is dropped and the next
    click starts a new attempt.  Without kept clicks (q_tot == 0) there are no
    pairs, and the interval is infinite.
    """
    if not 0.0 < n_pulses < math.inf:
        raise ValueError(f"n_pulses must be finite and positive, got {n_pulses!r}")
    _require((q_tot >= 0.0) & (q_tot < 1.0), "q_tot must be in [0, 1)", {"q_tot": q_tot})
    live = q_tot > 0.0
    q = ops.where(live, q_tot, 0.5)
    # P(next click within the window) = 1 - (1 - q_tot)^window
    q_window = -ops.expm1(window * ops.log1p(-q))
    n_pairs = ops.where(live, n_pulses * q / (1.0 + 1.0 / q_window), 0.0)
    t_mean = (1.0 - window * q * (1.0 / q_window - 1.0)) / (clock_hz * q)
    return n_pairs, ops.where(live, t_mean, math.inf)


def _coincidence_counts(ops, source, link: ChannelLink, det: DetectorPair, n_pairs, q_tot, table):
    """Expected coincidence count per (total_a, total_b) group; ``q_tot`` > 0.
    A group's count is worked out on its first read (see :func:`split_sums`).

    Matched-phase groups (both parties using the same bright level in both
    bins) keep only the 2/M phase-sifted fraction, with both bins at the same
    phase, so the count carries the phase average of the squared click
    probability.
    """
    layout = source.layout
    p_a, p_b = source.probabilities_a, source.probabilities_b
    fractions = {(la, lb): p_a[la] * p_b[lb] * table[(la, lb)] / q_tot for la, lb in layout.kept}

    def count(key: CountKey, acc):
        if key not in layout.sifted:
            return n_pairs * acc
        (level_a, _), (level_b, _) = key
        weight = p_a[level_a] * p_b[level_b] / q_tot
        opposite, same = _click_correlations(
            ops, source.intensities_a[level_a], source.intensities_b[level_b], 0.0, link, det
        )
        return n_pairs * (2.0 / link.phase_slices) * weight * weight * (opposite + same)

    return split_sums(layout, fractions, count)


def _xbasis_error_count(ops, source, link: ChannelLink, det: DetectorPair, n_pairs, t_mean_s,
                        q_tot):
    """Expected error count in the matched-phase decoy-decoy group; ``q_tot`` > 0.

    The late bin of a pair is evaluated at a phase shifted by the drift
    accumulated over the mean pairing interval ``t_mean_s``; the
    interferometer misalignment swaps the error/no-error classification with
    probability ``link.interference_error``.
    """
    delta = link.drift_phase(t_mean_s)
    nu_a = source.intensities_a["nu"]
    nu_b = source.intensities_b["nu"]
    weight = ops.square(source.probabilities_a["nu"] * source.probabilities_b["nu"] / q_tot)
    e_mis = link.interference_error
    wrong, right = _click_correlations(ops, nu_a, nu_b, delta, link, det)
    return n_pairs * (2.0 / link.phase_slices) * weight * ((1.0 - e_mis) * wrong + e_mis * right)


def _z_error_rates(ops, source, table):
    """Bit error rate of each single-bright-level coincidence group.

    A bit error happens exactly when both parties put their bright pulse in
    the same bin (the partner bin then clicks on dark counts or leakage);
    bright pulses in different bins always yield agreeing bits.  A group's
    rate is worked out on its first read (see :class:`GroupValues`).
    """
    kept, levels = source.layout.kept, source.layout.single_level

    def rate(key: CountKey):
        ka, kb = levels[key]
        same = table[(ka, kb)] * table[("o", "o")] if (ka, kb) in kept else 0.0
        diff = table[(ka, "o")] * table[("o", kb)]
        total = same + diff
        some = total > 0.0
        return ops.where(some, same / ops.where(some, total, 1.0), 0.0)

    return GroupValues(levels, rate)


@dataclass
class ObservableSet:
    """Everything the estimation chain consumes about one link configuration;
    for a batch, every value but ``n_pulses`` is per row, in (B,) columns.

    ``counts`` and ``z_qber`` are :class:`GroupValues`: a group is worked out
    on its first read, and iterating yields every group, in layout order.
    """

    n_pulses: float
    n_pairs: float
    t_mean_s: float
    q_tot: float
    counts: Mapping[CountKey, float]
    m_x: float
    z_qber: Mapping[CountKey, float] = field(default_factory=dict)


def expected_observables(
    source: SourceConfig, link: ChannelLink, det: DetectorPair, n_pulses: float
) -> ObservableSet:
    """Full closed-form observable set of one configuration, or of each row of
    a column source.  Without pairs, the counts and ``m_x`` are zero."""
    table = click_table(source, link, det)
    return _observables(ops_for(source.intensities_a["mu"]), source, link, det, n_pulses, table)


def _observables(ops, source, link: ChannelLink, det: DetectorPair, n_pulses: float,
                 table) -> ObservableSet:
    """``expected_observables`` from the click table of ``source``."""
    q_tot = kept_click_prob(source, table)
    n_pairs, t_mean = _pairing_statistics(ops, n_pulses, q_tot, source.pairing_window_bins,
                                          link.clock_hz)
    q = ops.where(q_tot > 0.0, q_tot, 0.5)
    counts = _coincidence_counts(ops, source, link, det, n_pairs, q, table)
    m_x = _xbasis_error_count(ops, source, link, det, n_pairs,
                              ops.where(n_pairs > 0.0, t_mean, 0.0), q)
    return ObservableSet(n_pulses, n_pairs, t_mean, q_tot, counts, m_x,
                         _z_error_rates(ops, source, table))
