"""Event-level Monte Carlo oracle for the asynchronous link.

Simulates only the time bins that give a kept single click, drawn by
thinning.  One table holds a joint row per label and arrived photon count
of each party, kept label pairs only, weighted by its prior times a bound
on its single-click probability; a bin is a candidate with probability the
sum of the weights, and a candidate is accepted with its exact click
probability over the bound.  At a candidate: its row, the draw of the
parties' phase-slice difference, first-order interference at the relay's
beam splitter, detector inefficiency and dark counts; then
nearest-neighbour pairing of the kept clicks inside the source's pairing
window (``SourceConfig.pairing_window_bins``), sifting and classification.
Used exclusively to validate the closed forms in :mod:`amdiqkd.channel` and
the soundness of the decoy bounds; never part of the key-rate pipeline.

The bins run in chunks with independent random streams, drawn on one thread
per CPU and paired and tallied in chunk order as they land, so memory is
bounded by the chunk and the result does not depend on the thread count.

Clicks are sampled in the classical-field picture, which reproduces the
coherent-state statistics of the closed forms exactly: photons arriving in a
bin are routed to the left port independently with weight
``1/2 + sqrt(AB) cos(phase) / (A + B)`` set by the arriving intensities.
A tally reads only whether a party's source photons in a pair number 0, 1
or more, so each row of the table also carries its emission class: the
arrived count plus the photons the fibre lost (Poisson thinning), capped at
2, with its exact conditional weight.

Ground-truth tallies:

* Z-basis groups are bin-localised, so the per-event source photon numbers
  are the physical truth and are tallied directly.
* In the matched-phase X-basis group the photon-number layers interfere
  across the two bins, so source attribution is resampled from the quantum
  posterior given the announced phases and the observed click pattern.  The
  posterior uses an exact small-photon-number model of the two-bin
  interferometer (``_arrived_grid``); the slow phase drift is
  neglected inside the posterior only.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import ChannelLink, DetectorPair, SourceConfig

__all__ = ["OracleResult", "simulate", "LayerPosterior"]


# ---------------------------------------------------------------------------
# exact two-bin interference model for small photon numbers
# ---------------------------------------------------------------------------
#
# Alice's n_a photons enter the output modes (L_early, R_early, L_late,
# R_late) with amplitudes (1, 1, s, s)/2, s = -1 for a pi phase difference,
# Bob's n_b photons with (1, -1, 1, -1)/2.  Expanding both multinomials, the
# amplitude of an output occupancy o sums a product of binomials over the
# ways to split o between the parties; that sum is the coefficient of
# t**n_a in (t + 1)**p (t - 1)**(N - p), N = n_a + n_b, where p counts the
# photons in the modes whose two coefficients agree in sign (L_early and
# L_late for s = 1, L_early and R_late for s = -1).  So
#
#     P(o | n_a, n_b) = n_a! n_b! / (4**N prod(o!)) * K_N[p(o), n_a]**2,
#
# with K_N integer-valued and exact in float64 for N <= 56, well past the
# photon-number caps of the posterior.

_FACT = np.array([math.factorial(n) for n in range(171)], dtype=float)


@lru_cache(maxsize=None)
def _split_amplitudes(n: int) -> np.ndarray:
    """K[p, j]: coefficient of t**j in (t + 1)**p (t - 1)**(n - p)."""
    out = np.zeros((n + 1, n + 1))
    for p in range(n + 1):
        q = n - p
        plus = [math.comb(p, i) for i in range(p + 1)]
        minus = [math.comb(q, i) * (-1) ** (q - i) for i in range(q + 1)]
        out[p] = np.convolve(plus, minus)
    return out


def _bin_click_prob(n_fire, n_quiet, eta_d: float, p_d: float):
    """P(exactly the detector holding n_fire photons clicks in a bin)."""
    quiet = (1.0 - p_d) * (1.0 - eta_d) ** n_quiet
    fire = 1.0 - (1.0 - p_d) * (1.0 - eta_d) ** n_fire
    return fire * quiet


def _arrived_grid(
    cap_a: int,
    cap_b: int,
    matched_pi: bool,
    det_early: int,
    det_late: int,
    eta_d: float,
    p_d: float,
) -> np.ndarray:
    """P(single-click pattern | n_a, n_b photons arrived at the beam splitter),
    for every n_a <= cap_a, n_b <= cap_b at once, as a (cap_a + 1, cap_b + 1)
    array.

    ``det_early``/``det_late`` select which detector clicked in each bin
    (0 = left, 1 = right).  Each occupancy keeps its own fire * quiet click
    product; occupancies that share the sign-agreeing count p and the total N
    differ only in 1 / prod(o!) and the click products, so their sum is the
    anti-diagonal N of one 2-D convolution of the early-bin and late-bin
    tables.
    """
    n_max = cap_a + cap_b
    photons = np.arange(n_max + 1)
    # click[f, q]: the detector holding f photons clicks, the one with q stays quiet
    click = _bin_click_prob(photons[:, None], photons[None, :], eta_d, p_d)
    inv = 1.0 / _FACT[photons]
    # indexed by the photon numbers in the (left, right) port of each bin
    early = (click.T if det_early else click) * inv[:, None] * inv[None, :]
    late = (click.T if det_late else click) * inv[:, None] * inv[None, :]
    if matched_pi:  # p counts R_late instead of L_late
        late = late.T
    # grouped[p, q] = sum over early + late occupancies with (p, q) photons
    grouped = np.zeros((2 * n_max + 1, 2 * n_max + 1))
    for i in range(n_max + 1):
        for j in range(n_max + 1 - i):
            grouped[i:i + n_max + 1, j:j + n_max + 1] += early[i, j] * late
    out = np.zeros((cap_a + 1, cap_b + 1))
    for n in range(n_max + 1):
        n_a = np.arange(max(0, n - cap_b), min(n, cap_a) + 1)
        per_p = grouped[np.arange(n + 1), n - np.arange(n + 1)]
        sums = per_p @ _split_amplitudes(n)[:, n_a] ** 2
        out[n_a, n - n_a] = _FACT[n_a] * _FACT[n - n_a] / 4.0**n * sums
    return out


def _poisson_cap(mean: float) -> int:
    n, cum, term = 0, math.exp(-mean), math.exp(-mean)
    while 1.0 - cum > 1e-9 and n < 40:
        n += 1
        term *= mean / n
        cum += term
    return max(n, 2)


class LayerPosterior:
    """Posterior over emitted photon-number layers for matched X-basis pairs."""

    def __init__(
        self,
        emitted_a: float,
        emitted_b: float,
        eta_a: float,
        eta_b: float,
        eta_d: float,
        p_d: float,
    ) -> None:
        self.cap_a = _poisson_cap(emitted_a)
        self.cap_b = _poisson_cap(emitted_b)
        self.prior_a = np.array(
            [math.exp(-emitted_a) * emitted_a**n / math.factorial(n) for n in range(self.cap_a + 1)]
        )
        self.prior_b = np.array(
            [math.exp(-emitted_b) * emitted_b**n / math.factorial(n) for n in range(self.cap_b + 1)]
        )
        self.thin_a = self._thinning(self.cap_a, eta_a)
        self.thin_b = self._thinning(self.cap_b, eta_b)
        self.eta_d = eta_d
        self.p_d = p_d
        self._cache: dict[tuple[bool, int, int], np.ndarray] = {}

    @staticmethod
    def _thinning(cap: int, eta: float) -> np.ndarray:
        t = np.zeros((cap + 1, cap + 1))
        for n in range(cap + 1):
            for k in range(n + 1):
                t[n, k] = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
        return t

    def probs(self, matched_pi: bool, det_early: int, det_late: int) -> np.ndarray:
        """Posterior matrix over (emitted_a, emitted_b), normalized."""
        key = (matched_pi, det_early, det_late)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        arrived = _arrived_grid(
            self.cap_a, self.cap_b, matched_pi, det_early, det_late, self.eta_d, self.p_d
        )
        emitted = self.thin_a @ arrived @ self.thin_b.T
        joint = self.prior_a[:, None] * emitted * self.prior_b[None, :]
        total = joint.sum()
        post = joint / total if total > 0.0 else joint
        self._cache[key] = post
        return post

    def sample(
        self, matched_pi: np.ndarray, det_early: np.ndarray, det_late: np.ndarray, rng
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw the emitted layers (n_a, n_b) of each event, in event order.

        Consumes one ``rng.random()`` per event whose pattern has nonzero
        probability, exactly as ``rng.choice(post.size, p=post)`` per event
        would; impossible events get (-1, -1) and consume nothing.
        """
        code = (matched_pi.astype(np.int64) * 2 + det_early) * 2 + det_late
        cdfs = {}
        for c in sorted(set(code.tolist())):  # not np.unique, whose first call imports numpy.ma
            flat = self.probs(bool(c >> 2), (c >> 1) & 1, c & 1).reshape(-1)
            total = flat.sum()
            if total > 0.0:
                cdf = (flat / total).cumsum()
                cdf /= cdf[-1]
                cdfs[c] = cdf
        possible = np.isin(code, list(cdfs))
        rows = np.nonzero(possible)[0]
        u = rng.random(rows.size)
        flat_idx = np.full(code.size, -1, dtype=np.int64)
        for c, cdf in cdfs.items():
            sel = code[rows] == c
            flat_idx[rows[sel]] = cdf.searchsorted(u[sel], side="right")
        width = self.cap_b + 1
        return (np.where(possible, flat_idx // width, -1), np.where(possible, flat_idx % width, -1))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass
class GroupTruth:
    count: int = 0
    errors: int = 0
    a_vacuum: int = 0
    b_vacuum: int = 0
    single_photon_pairs: int = 0
    single_photon_errors: int = 0


@dataclass
class OracleResult:
    n_bins: int
    n_clicks: int
    n_pairs: int
    t_mean_s: float
    counts: dict
    m_x: int
    x_matched: int
    z_truth: dict
    x_truth: GroupTruth = field(default_factory=GroupTruth)
    x_vacuum: int = 0
    x_vacuum_errors: int = 0


def _inverse_cdf(weights) -> tuple[np.ndarray, np.ndarray]:
    """The cdf of ``weights`` and its guide table, whose entry g is the first
    row with cdf above g / 1024 (Chen and Asau's indexed search)."""
    cdf = np.cumsum(weights, dtype=float)
    cdf /= cdf[-1] if cdf.size else 1.0
    return cdf, cdf.searchsorted(np.arange(1024) / 1024, side="right")


def _draw(table: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` for uniforms u: the row of u's
    guide cell if its cdf is above u, else one searchsorted of all such u."""
    cdf, guide = table
    row = guide[(u * guide.size).astype(np.intp)]
    step = np.flatnonzero(u >= cdf[row])
    row[step] = cdf.searchsorted(u[step], side="right")
    return row


def _party_rows(intensities, probabilities, labels, eta: float):
    """One party's rows (l, n) with P(l, n) = p_l Poisson(n; eta k_l), n the
    arrived photons of label l.  A label's rows stop where the rest of its
    Poisson tail is below 1e-16 of the party's P(n >= 1), so the cap grows
    with the mean.  Also returns each label's arriving and lost means."""
    k = np.array([intensities[l] for l in labels])
    p = np.array([probabilities[l] for l in labels])
    mean = eta * k
    q = float(np.sum(p * -np.expm1(-mean)))
    rows = []
    for l, m in enumerate(mean.tolist()):
        term, n = p[l] * math.exp(-m), 0
        rows.append((l, 0, term))
        while m > 0.0:
            n += 1
            term *= m / n
            rows.append((l, n, term))
            # the tail past n is below its next term / (1 - m / (n + 2))
            if n + 2 > m and term * m / (n + 1) <= 1e-16 * q * (1.0 - m / (n + 2)):
                break
    label, count, prior = (np.array(column) for column in zip(*rows))
    return label, count, prior, mean, (1.0 - eta) * k


def _emitted_rows(label, count, prior, lost):
    """Each party row (l, n) split by its source photon number, capped at 2:
    the n arrived photons plus the Poisson(m) the fibre lost, m = lost[l],
    which is all a tally reads of it.  n = 0 becomes e = 0, 1 or 2+ with
    weights e**-m, m e**-m and the rest, n = 1 becomes e = 1 or 2+ with
    e**-m and 1 - e**-m, and n >= 2 stays 2+.  Returns (l, n, e, P(l, n, e))
    of the rows with a positive weight."""
    rows = []
    for l, n, p in zip(label.tolist(), count.tolist(), prior.tolist()):
        m = float(lost[l])
        kept, gone = math.exp(-m), -math.expm1(-m)  # no photon lost, some lost
        shares = {0: [(0, kept), (1, m * kept), (2, gone - m * kept)],
                  1: [(1, kept), (2, gone)]}.get(n, [(2, 1.0)])
        rows.extend((l, n, e, p * share) for e, share in shares if share > 0.0)
    return (np.array(column) for column in zip(*rows))


def _class_code(l_a, e_a, l_b, e_b, n_labels: int) -> np.ndarray:
    """A click's class ((l_a 3 + e_a) L + l_b) 3 + e_b, l the labels, e the
    emission classes, L labels: all a tally reads but slice and detector."""
    return np.ravel_multi_index((l_a, e_a, l_b, e_b), (n_labels, 3) * 2).astype(np.int16)


class _Candidates:
    """The joint rows (l_a, n_a, e_a, l_b, n_b, e_b) a candidate bin draws
    from: every pair of party rows split by emission class (``_emitted_rows``)
    whose label pair is kept, n = 0 rows included, so a dark-only click is one
    more row.  A row weighs P_a P_b B(n), n = n_a + n_b,

        B(n) = c (1 + t**n - 2 c t**n),  c = 1 - p_d,  t = 1 - eta_d,

    the largest single-click probability over the routing weight w: that
    probability is convex in w, so it peaks at w = 0 or 1, and B is exact
    for n <= 1.  A bin is a candidate with probability ``rate``, the sum of
    the weights."""

    def __init__(self, source: SourceConfig, link: ChannelLink, det: DetectorPair) -> None:
        labels = source.labels
        *rows_a, mean_a, lost_a = _party_rows(
            source.intensities_a, source.probabilities_a, labels, link.eta_a)
        *rows_b, mean_b, lost_b = _party_rows(
            source.intensities_b, source.probabilities_b, labels, link.eta_b)
        la, na, ea, pa = _emitted_rows(*rows_a, lost_a)
        lb, nb, eb, pb = _emitted_rows(*rows_b, lost_b)
        kept = np.zeros((len(labels), len(labels)), dtype=bool)
        for l_a, l_b in source.layout.kept:
            kept[labels.index(l_a), labels.index(l_b)] = True
        n = na[:, None] + nb[None, :]
        t, c = 1.0 - det.eta_d, 1.0 - det.dark_prob(link.clock_hz)
        bound = c * (1.0 + t**n - 2.0 * c * t**n)
        weight = np.where(kept[la[:, None], lb[None, :]], pa[:, None] * pb[None, :] * bound, 0.0)
        i, j = np.nonzero(weight)
        self.rate = float(weight[i, j].sum())
        self.rows = _inverse_cdf(weight[i, j])
        # weight 1/2 + sqrt(ab) cos(phase) / (a + b) of the arriving intensities
        a, b = mean_a[la[i]], mean_b[lb[j]]
        self.visibility = np.sqrt(a * b) / np.where(a + b > 0.0, a + b, 1.0)
        self.count_a, self.count_b = na[i], nb[j]
        self.cls = _class_code(la[i], ea[i], lb[j], eb[j], len(labels))
        self.photons, self.bound = n[i, j].astype(float), bound[i, j]
        self.quiet = c * t**self.photons  # a detector holding all n photons stays silent


def _bernoulli_sites(rng, p: float, size: int) -> np.ndarray:
    """Sorted positions of the successes among ``size`` Bernoulli(p) trials,
    placed by geometric gaps, in batches until one passes the end."""
    sites, last = np.empty(0, dtype=np.int64), -1
    while p > 0.0 and last < size:
        gaps = rng.geometric(p, int(size * p + 5.0 * math.sqrt(size * p)) + 1)
        sites = np.concatenate((sites, last + np.cumsum(gaps)))
        last = sites[-1]
    return sites[: sites.searchsorted(size)]


def _click_chunk(rng, size, start_idx, candidates, link, det, drift_per_bin):
    """Simulate one chunk of time bins; return compact arrays of kept clicks:
    bin index, class (``_class_code``: both labels and emission classes),
    slice difference and the detector that clicked.

    Thinning (Lewis and Shedler): candidate bins are Bernoulli(rate) trials
    placed by geometric gaps, and one uniform draws each one's row, which
    fixes the labels, the arrived photons and the emission classes.  The
    phase reads only the slice difference d = (s_a - s_b) mod M, so that is
    drawn in place of the two slices.  Its n photons route left with weight
    w; with t = 1 - eta_d and c = 1 - p_d, only the left detector clicks with
    probability c ((w + (1 - w) t)**n - c t**n), only the right with w and
    1 - w swapped, and one more uniform times the row's B(n) picks left,
    right or reject.
    """
    m_slices = link.phase_slices
    idx = start_idx + _bernoulli_sites(rng, candidates.rate, size)
    row = _draw(candidates.rows, rng.random(idx.size))
    diff = rng.integers(0, m_slices, size=idx.size, dtype=np.int16)

    phase = (2.0 * math.pi / m_slices) * diff + drift_per_bin * idx
    weight = np.clip(0.5 + candidates.visibility[row] * np.cos(phase), 0.0, 1.0)
    n, quiet = candidates.photons[row], candidates.quiet[row]
    t, c = 1.0 - det.eta_d, 1.0 - det.dark_prob(link.clock_hz)
    p_left = c * ((weight + (1.0 - weight) * t) ** n - quiet)
    p_right = c * ((1.0 - weight + weight * t) ** n - quiet)
    u = rng.random(idx.size) * candidates.bound[row]
    sel = np.flatnonzero(u < p_left + p_right)
    right = (u >= p_left)[sel].view(np.int8)  # 0 = left detector, 1 = right
    return idx[sel], candidates.cls[row[sel]], diff[sel], right


def _pair_scan(indices: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy nearest-successor pairing; returns positions of early/late clicks.

    Walking the clicks in order, a click pairs with the pending one before it
    when their gap is at most ``window``.  Inside each maximal run of clicks
    whose successive gaps are all within the window this pairs (r, r+1),
    (r+2, r+3), ... from the run start r, so the k-th late click of the scan
    (from 0) is at r + 1 + 2 (k - P), with P the pairs of the runs before r.
    """
    starts = np.concatenate(([0], np.flatnonzero(np.diff(indices) > window) + 1))
    pairs = np.diff(starts, append=indices.size) // 2
    late = np.repeat(starts + 1 - 2 * (np.cumsum(pairs) - pairs), pairs) + 2 * np.arange(pairs.sum())
    return late - 1, late


# a pair's flag bits, under its group in its key group * 32 + flags; each
# group tallies its pairs in one histogram over the flags
_Z_ERR, _A_VAC, _B_VAC, _SINGLE_PAIR, _MATCHED = 1, 2, 4, 8, 16


def _pair_keys(source: SourceConfig) -> np.ndarray:
    """The (C, C) table of pair keys, the matched phase aside, by the classes
    of the early and late click, C = 9 L**2 (``_class_code``); the group, the
    position of (total_a, total_b) in ``layout.groups``, is t_a * T + t_b."""
    labels, totals = source.labels, source.layout.totals
    n = len(labels)
    tot_code = np.empty((n, n), dtype=np.intp)
    for code, (l1, l2) in enumerate(totals):
        i, j = labels.index(l1), labels.index(l2)
        tot_code[i, j] = tot_code[j, i] = code
    la, ea, lb, eb = (f[:, None] for f in np.unravel_index(np.arange(9 * n**2), (n, 3) * 2))
    e_a, e_b, o = ea + ea.T, eb + eb.T, labels.index("o")
    return (
        (tot_code[la, la.T] * len(totals) + tot_code[lb, lb.T]) * 32
        + ((la != o) == (lb != o)) * _Z_ERR  # Z truth reads the early click's labels
        + (e_a == 0) * _A_VAC + (e_b == 0) * _B_VAC + ((e_a == 1) & (e_b == 1)) * _SINGLE_PAIR
    )


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def simulate(
    source: SourceConfig,
    link: ChannelLink,
    det: DetectorPair,
    n_bins: int,
    seed: int,
    chunk_bins: int = 1_000_000,
) -> OracleResult:
    """Run the event-level simulation and tally everything.

    Deterministic for fixed (seed, n_bins, chunk_bins), whatever the number
    of CPUs: each chunk of bins has its own random stream, and a thread pool
    with one worker per CPU draws the chunks, about that many in flight.
    Within a chunk only candidate bins are drawn, thinned to the kept
    single clicks by the row bounds of one ``_Candidates`` table (see
    ``_click_chunk``): the work grows with the number of clicks, not with
    the number of bins.

    Kept clicks pair greedily with their nearest successor: inside each
    maximal run of clicks whose successive gaps are at most the source's
    pairing window, clicks (r, r+1), (r+2, r+3), ... pair from the run start r.
    That walk holds at most one pending click, so each chunk is paired and
    tallied as it lands, in chunk order, behind the previous chunk's last
    click when that one is unpaired; memory is bounded by the chunk, not by
    the run.  A pair is tallied by one ``_pair_keys`` lookup of its click
    classes.  Drawing the class flips and posterior layers per chunk, in
    chunk order, consumes their streams as one draw over the run would.
    """
    # imported here, not with the module, so that the CLI starts without it
    from concurrent.futures import ThreadPoolExecutor

    for name, value in (("n_bins", n_bins), ("chunk_bins", chunk_bins)):
        if not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    layout = source.layout
    candidates = _Candidates(source, link, det)

    drift_per_bin = link.phase_rate_rad_per_s / link.clock_hz
    n_chunks = (n_bins + chunk_bins - 1) // chunk_bins
    streams = np.random.SeedSequence(seed).spawn(n_chunks + 2)
    class_rng = np.random.default_rng(streams[-2])
    posterior_rng = np.random.default_rng(streams[-1])

    def clicks(chunk: int):
        size = min(chunk_bins, n_bins - chunk * chunk_bins)
        rng = np.random.default_rng(streams[chunk])
        return _click_chunk(rng, size, chunk * chunk_bins, candidates, link, det, drift_per_bin)

    nu_group = layout.group_pos[(("nu", "nu"), ("nu", "nu"))]
    m_slices = link.phase_slices
    posterior = LayerPosterior(
        emitted_a=2.0 * source.intensities_a["nu"],
        emitted_b=2.0 * source.intensities_b["nu"],
        eta_a=link.eta_a,
        eta_b=link.eta_b,
        eta_d=det.eta_d,
        p_d=det.dark_prob(link.clock_hz),
    )

    hist = np.zeros((len(layout.groups), 32), dtype=np.int64)
    pair_key = _pair_keys(source)
    n_classes = np.intp(len(pair_key))  # an intp, so that the class products do not wrap
    # d_late - d_early lies in (-M, M), and a negative index wraps to its value mod M
    is_matched = np.isin(np.arange(m_slices), (0, m_slices // 2))
    # X group: pairs, errors, single-photon pairs and their errors, pairs
    # with a vacuum layer and their errors
    x_tally = np.zeros(6, dtype=np.int64)
    n_clicks = n_pairs = gap_sum = 0
    carry = ()
    workers = min(n_chunks, _cpus())
    with ThreadPoolExecutor(workers) as pool:
        ahead = [pool.submit(clicks, chunk) for chunk in range(workers)]
        for chunk in range(n_chunks):
            parts = ahead.pop(0).result()
            if chunk + workers < n_chunks:
                ahead.append(pool.submit(clicks, chunk + workers))
            n_clicks += parts[0].size
            if carry:
                parts = [np.concatenate(pair) for pair in zip(carry, parts)]
            idx, cls, diff, det_click = parts
            early, late = _pair_scan(idx, source.pairing_window_bins)
            paired = late.size > 0 and late[-1] == idx.size - 1
            carry = () if paired or not idx.size else [p[-1:] for p in parts]
            n_pairs += early.size
            gap_sum += int((idx[late] - idx[early]).sum())

            key = pair_key.take(cls[early] * n_classes + cls[late])  # flat [early, late]
            matched = is_matched[diff[late] - diff[early]]
            hist += np.bincount(key + matched * _MATCHED, minlength=hist.size).reshape(hist.shape)

            # X-basis classification on the matched decoy-decoy group
            x_pos = np.flatnonzero(((key >> 5) == nu_group) & matched)
            x_early, x_late = early[x_pos], late[x_pos]
            phi_x = np.mod(diff[x_late] - diff[x_early], m_slices)
            det_early, det_late = det_click[x_early], det_click[x_late]
            same_det = det_early == det_late
            raw_error = np.where(phi_x == 0, ~same_det, same_det)
            x_error = raw_error ^ (class_rng.random(x_pos.size) < link.interference_error)
            lay_a, lay_b = posterior.sample(phi_x == m_slices // 2, det_early, det_late, posterior_rng)
            single = (lay_a == 1) & (lay_b == 1)
            vacuum = (lay_a == 0) | (lay_b == 0)
            x_tally += [x_pos.size] + [
                np.count_nonzero(f) for f in (x_error, single, single & x_error, vacuum, vacuum & x_error)
            ]

    # per group: pairs, Z errors, a vacuum, b vacuum, single-photon pairs and
    # their errors (the GroupTruth fields, in order), then matched-phase pairs
    bits = np.arange(32)
    group_tally = np.array([
        hist[:, (bits & mask) == mask].sum(axis=1)
        for mask in (0, _Z_ERR, _A_VAC, _B_VAC, _SINGLE_PAIR, _SINGLE_PAIR | _Z_ERR, _MATCHED)
    ])
    column = layout.group_pos
    counts = dict(zip(layout.groups, group_tally[0].tolist()))
    for key in layout.sifted:
        counts[key] = int(group_tally[6, column[key]])
    z_truth = {key: GroupTruth(*group_tally[:6, column[key]].tolist()) for key in layout.single_level}
    x_count, x_errors, x_single, x_single_errors, x_vac, x_vac_err = x_tally.tolist()

    return OracleResult(
        n_bins=n_bins,
        n_clicks=n_clicks,
        n_pairs=n_pairs,
        t_mean_s=gap_sum / n_pairs / link.clock_hz if n_pairs else math.inf,
        counts=counts,
        m_x=x_errors,
        x_matched=x_count,
        z_truth=z_truth,
        x_truth=GroupTruth(
            count=x_count,
            errors=x_errors,
            single_photon_pairs=x_single,
            single_photon_errors=x_single_errors,
        ),
        x_vacuum=x_vac,
        x_vacuum_errors=x_vac_err,
    )
