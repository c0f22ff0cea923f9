import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdiqkd.channel import (
    ChannelLink,
    DetectorPair,
    SourceConfig,
    expected_observables,
)
from amdiqkd.decoy import estimate, pairing_probs, xbasis_vacuum_errors_lower, z_key_groups
from amdiqkd import cli, oracle
from amdiqkd.oracle import (
    LayerPosterior,
    GroupTruth,
    _pair_scan,
    simulate,
)

from phase_model import pair_gain_phase

# a bright, short-reach configuration keeps counts healthy at small n_bins
DET = DetectorPair(0.8, 1e5)
LINK = ChannelLink(
    10.0, 15.0, 0.16, clock_hz=1e9,
    phase_drift_rad_per_s=5900.0, laser_offset_hz=10.0,
    interference_error=0.04, phase_slices=8,
)
SRC = SourceConfig.from_params(dict(
    mu_a=0.5, nu_a=0.15, p_mu_a=0.35, p_nu_a=0.35,
    mu_b=0.45, nu_b=0.12, p_mu_b=0.35, p_nu_b=0.35, tc_bins=2000.0,
), click_filtering=True)


@pytest.fixture(scope="module")
def run():
    return simulate(SRC, LINK, DET, 2_000_000, seed=11)


class TestInterferenceEngine:
    def test_single_photon_pair_anticorrelated(self):
        # matched phases: a lone photon pair never splits the wrong way
        assert float(oracle._arrived_grid(1, 1, False, 0, 0, 1.0, 0.0)[1, 1]) == pytest.approx(0.25)
        assert float(oracle._arrived_grid(1, 1, False, 0, 1, 1.0, 0.0)[1, 1]) == 0.0
        assert float(oracle._arrived_grid(1, 1, True, 0, 0, 1.0, 0.0)[1, 1]) == 0.0
        assert float(oracle._arrived_grid(1, 1, True, 0, 1, 1.0, 0.0)[1, 1]) == pytest.approx(0.25)

    def test_one_sided_photons_uncorrelated(self):
        # with one party dark the detector choice is a fair coin in each bin
        same = float(oracle._arrived_grid(0, 2, False, 0, 0, 1.0, 0.0)[0, 2])
        diff = float(oracle._arrived_grid(0, 2, False, 0, 1, 1.0, 0.0)[0, 2])
        assert same == pytest.approx(diff)

    def test_hom_suppression(self):
        # two photons meeting in the same bin never split between detectors
        table = dict_occupancy_table(1, 1, False)
        assert table.get((1, 1, 0, 0), 0.0) == pytest.approx(0.0, abs=1e-12)
        assert table.get((0, 0, 1, 1), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_poisson_mixture_recovers_coherent_statistics(self):
        # mixing the photon-number model over Poisson layers must reproduce the
        # phase-averaged classical-field pattern probabilities exactly
        nu_a, nu_b = 0.15, 0.10
        p_d = DET.dark_prob(LINK.clock_hz)
        a2 = LINK.eta_a * 2.0 * nu_a
        b2 = LINK.eta_b * 2.0 * nu_b

        def poisson(mean, n):
            return math.exp(-mean) * mean**n / math.factorial(n)

        thetas = 2.0 * math.pi * np.arange(4096) / 4096
        for parity, phi in ((False, 0.0), (True, math.pi)):
            for d_e in (0, 1):
                for d_l in (0, 1):
                    fock = sum(
                        poisson(a2, na) * poisson(b2, nb)
                        * float(oracle._arrived_grid(
                            na, nb, parity, d_e, d_l, DET.eta_d, p_d)[na, nb])
                        for na in range(12)
                        for nb in range(12)
                    )
                    qle, qre = pair_gain_phase(nu_a, nu_b, thetas, LINK, DET)
                    qll, qrl = pair_gain_phase(nu_a, nu_b, thetas + phi, LINK, DET)
                    coherent = float(np.mean((qle, qre)[d_e] * (qll, qrl)[d_l]))
                    assert fock == pytest.approx(coherent, rel=1e-10)

    def test_posterior_normalised(self):
        post = LayerPosterior(0.3, 0.24, LINK.eta_a, LINK.eta_b, 0.8, 1e-4)
        for parity in (False, True):
            for d_e in (0, 1):
                for d_l in (0, 1):
                    assert post.probs(parity, d_e, d_l).sum() == pytest.approx(1.0, rel=1e-9)


class TestSimulation:
    def test_dark_only_and_silent_limits(self):
        silent = DetectorPair(0.8, 0.0)
        src = SourceConfig.from_params(dict(
            mu_a=1e-3, nu_a=1e-4, p_mu_a=0.3, p_nu_a=0.3,
            mu_b=1e-3, nu_b=1e-4, p_mu_b=0.3, p_nu_b=0.3,
        ))
        res = simulate(src, ChannelLink(400.0, 400.0, 0.16, clock_hz=1e9, phase_slices=8),
                       silent, 200_000, seed=3)
        assert res.n_clicks == 0 and res.n_pairs == 0

    @pytest.mark.parametrize("n_bins", [0, -5])
    def test_rejects_empty_run(self, n_bins):
        with pytest.raises(ValueError, match="n_bins"):
            simulate(SRC, LINK, DET, n_bins, seed=1)

    @pytest.mark.parametrize("name, value", [
        ("chunk_bins", 0), ("chunk_bins", -5), ("chunk_bins", 1.5e5),
        ("n_bins", 1e6), ("n_bins", "7"),
    ])
    def test_rejects_bad_sizes(self, name, value):
        sizes = {"n_bins": 1000, "chunk_bins": 300, name: value}
        with pytest.raises(ValueError, match=name):
            simulate(SRC, LINK, DET, seed=1, **sizes)

    def test_accepts_numpy_integers(self):
        res = simulate(SRC, LINK, DET, np.int64(1000), seed=1, chunk_bins=np.int32(300))
        assert res == simulate(SRC, LINK, DET, 1000, seed=1, chunk_bins=300)

    def test_deterministic_for_fixed_seed(self, run):
        again = simulate(SRC, LINK, DET, 2_000_000, seed=11)
        assert again.counts == run.counts
        assert again.m_x == run.m_x
        assert again.x_truth == run.x_truth

    def test_seed_changes_outcome(self, run):
        other = simulate(SRC, LINK, DET, 2_000_000, seed=12)
        assert other.counts != run.counts

    def test_pair_totals_and_interval(self, run):
        obs = expected_observables(SRC, LINK, DET, 2_000_000.0)
        assert abs(run.n_pairs - obs.n_pairs) <= 5.0 * math.sqrt(obs.n_pairs)
        assert run.t_mean_s == pytest.approx(obs.t_mean_s, rel=0.05)
        assert run.n_pairs <= 2_000_000 * (run.n_clicks / run.n_bins) / 2.0 + 1.0

    def test_counts_within_five_sigma(self, run):
        obs = expected_observables(SRC, LINK, DET, 2_000_000.0)
        for key, expected in obs.counts.items():
            if expected < 25.0:
                continue
            assert abs(run.counts[key] - expected) <= 5.0 * math.sqrt(expected), key

    def test_xbasis_errors_within_five_sigma(self, run):
        obs = expected_observables(SRC, LINK, DET, 2_000_000.0)
        assert abs(run.m_x - obs.m_x) <= 5.0 * math.sqrt(obs.m_x)

    def test_z_error_rates_within_five_sigma(self, run):
        obs = expected_observables(SRC, LINK, DET, 2_000_000.0)
        key = (("mu", "o"), ("mu", "o"))
        truth = run.z_truth[key]
        expected = obs.z_qber[key] * obs.counts[key]
        assert abs(truth.errors - expected) <= 5.0 * math.sqrt(max(expected, 1.0))


@pytest.fixture(scope="module")
def big_run():
    return simulate(SRC, LINK, DET, 5_000_000, seed=13)


class TestDecoySoundness:
    def test_bounds_never_beat_ground_truth(self, big_run):
        counts = {k: float(v) for k, v in big_run.counts.items()}
        est = estimate(counts, float(big_run.m_x), SRC, LINK.phase_slices, eps=None)
        groups = z_key_groups(SRC)
        s0_truth = sum(max(big_run.z_truth[g].a_vacuum, big_run.z_truth[g].b_vacuum) for g in groups)
        s11_truth = sum(big_run.z_truth[g].single_photon_pairs for g in groups)
        assert est.s0_z_star <= s0_truth + 5.0 * math.sqrt(max(s0_truth, 1))
        assert est.s11_z_star <= s11_truth + 5.0 * math.sqrt(s11_truth)
        assert est.s11_x_star <= (
            big_run.x_truth.single_photon_pairs
            + 5.0 * math.sqrt(max(big_run.x_truth.single_photon_pairs, 1))
        )
        assert est.t11_x >= (
            big_run.x_truth.single_photon_errors
            - 5.0 * math.sqrt(max(big_run.x_truth.single_photon_errors, 1))
        )

    def test_vacuum_origin_error_bound(self, big_run):
        counts = {k: float(v) for k, v in big_run.counts.items()}
        probs = pairing_probs(SRC, LINK.phase_slices)
        m0 = xbasis_vacuum_errors_lower(counts, probs, SRC, None)
        assert m0 <= big_run.x_vacuum_errors + 5.0 * math.sqrt(max(big_run.x_vacuum_errors, 1))

    def test_vacuum_layers_err_at_one_half(self, big_run):
        # posterior-resampled vacuum events must be phase-insensitive coin flips
        rate = big_run.x_vacuum_errors / max(big_run.x_vacuum, 1)
        sigma = 0.5 / math.sqrt(max(big_run.x_vacuum, 1))
        assert abs(rate - 0.5) <= 5.0 * sigma

    def test_single_photon_pairs_err_near_misalignment(self, big_run):
        # single-photon pairs see only misalignment plus residual drift
        rate = big_run.x_truth.single_photon_errors / max(big_run.x_truth.single_photon_pairs, 1)
        assert rate < 0.15


# ---------------------------------------------------------------------------
# reference implementations the vectorized oracle must reproduce
# ---------------------------------------------------------------------------

def greedy_pairs(indices, window):
    """The click-by-click pairing walk: pair with the pending click if close."""
    early, late = [], []
    pending, pending_idx = -1, 0
    for pos in range(indices.size):
        if pending >= 0 and indices[pos] - pending_idx <= window:
            early.append(pending)
            late.append(pos)
            pending = -1
        else:
            pending, pending_idx = pos, indices[pos]
    return early, late


def multinomial_expansion(n, coefs):
    """Coefficients of (sum_m coefs[m] x_m)**n as occupancy -> coefficient."""
    terms = {(0, 0, 0, 0): 1.0 + 0.0j}
    for _ in range(n):
        new = {}
        for occ, amp in terms.items():
            for m, c in enumerate(coefs):
                key = occ[:m] + (occ[m] + 1,) + occ[m + 1:]
                new[key] = new.get(key, 0.0j) + amp * c
        terms = new
    return terms


def dict_occupancy_table(n_a, n_b, matched_pi):
    """Occupancy distribution by expanding both parties' multinomials."""
    phase = -1.0 if matched_pi else 1.0
    poly_a = multinomial_expansion(n_a, (0.5, 0.5, 0.5 * phase, 0.5 * phase))
    poly_b = multinomial_expansion(n_b, (0.5, -0.5, 0.5, -0.5))
    combined = {}
    for occ_a, amp_a in poly_a.items():
        for occ_b, amp_b in poly_b.items():
            key = tuple(x + y for x, y in zip(occ_a, occ_b))
            combined[key] = combined.get(key, 0.0j) + amp_a * amp_b
    norm = math.factorial(n_a) * math.factorial(n_b)
    return {
        occ: abs(amp) ** 2 * math.prod(math.factorial(m) for m in occ) / norm
        for occ, amp in combined.items()
    }


def dict_pattern(n_a, n_b, matched_pi, det_early, det_late, eta_d, p_d):
    def click(fire, quiet):
        return (1.0 - (1.0 - p_d) * (1.0 - eta_d) ** fire) * (1.0 - p_d) * (1.0 - eta_d) ** quiet

    total = 0.0
    for (le, re, ll, rl), prob in dict_occupancy_table(n_a, n_b, matched_pi).items():
        early = click(re, le) if det_early else click(le, re)
        late = click(rl, ll) if det_late else click(ll, rl)
        total += prob * early * late
    return total


def draw_labels(rng, cdf, size):
    """``rng.choice(cdf.size, size, p=...)`` given the cdf that ``choice``
    builds from p: the number of cdf edges at or below a uniform draw."""
    u = rng.random(size)
    labels = np.zeros(size, dtype=np.int8)
    for edge in cdf[:-1]:
        labels += u >= edge
    return labels


def bright_bins(labels, intensities):
    """Bins whose label has a nonzero intensity."""
    bright = np.ones(labels.size, dtype=bool)
    for dark in np.flatnonzero(intensities == 0.0):
        bright &= labels != dark
    return np.nonzero(bright)[0]


def per_bin_click_chunk(rng, size, start_idx, src_arrays, link, det, drift_per_bin):
    """The sampler that draws every bin: labels, slices, Poisson emission,
    binomial fibre loss and routing, and both detectors' click uniforms.
    It returns the fields of ``oracle._click_chunk``: the slice difference,
    and the labels and source photon numbers capped at 2 encoded by
    ``oracle._class_code``.  The oracle's event sampler must reproduce its
    tallies in distribution."""
    (ints_a, cdf_a, ints_b, cdf_b, kept_matrix) = src_arrays
    m_slices = link.phase_slices
    eta_a, eta_b, eta_d = link.eta_a, link.eta_b, det.eta_d
    p_d = det.dark_prob(link.clock_hz)

    la = draw_labels(rng, cdf_a, size)
    lb = draw_labels(rng, cdf_b, size)
    sa = rng.integers(0, m_slices, size=size, dtype=np.int16)
    sb = rng.integers(0, m_slices, size=size, dtype=np.int16)
    bright_a = bright_bins(la, ints_a)
    bright_b = bright_bins(lb, ints_b)
    n_src_a = np.zeros(size, dtype=np.int16)
    n_src_b = np.zeros(size, dtype=np.int16)
    n_src_a[bright_a] = rng.poisson(ints_a[la[bright_a]])
    n_src_b[bright_b] = rng.poisson(ints_b[lb[bright_b]])
    emit_a = np.nonzero(n_src_a)[0]
    emit_b = np.nonzero(n_src_b)[0]
    arr_a = np.zeros(size, dtype=np.int16)
    arr_b = np.zeros(size, dtype=np.int16)
    arr_a[emit_a] = rng.binomial(n_src_a[emit_a], eta_a)
    arr_b[emit_b] = rng.binomial(n_src_b[emit_b], eta_b)

    total_arrived = arr_a + arr_b
    hit = np.nonzero(total_arrived)[0]
    phase = (
        2.0 * math.pi * (sa[hit].astype(np.float64) - sb[hit]) / m_slices
        + drift_per_bin * (start_idx + hit)
    )
    a_mean = eta_a * ints_a[la[hit]]
    b_mean = eta_b * ints_b[lb[hit]]
    weight = np.clip(0.5 + np.sqrt(a_mean * b_mean) * np.cos(phase) / (a_mean + b_mean), 0.0, 1.0)
    n_hit = total_arrived[hit].astype(np.int64)
    n_left = rng.binomial(n_hit, weight)

    click_prob = 1.0 - (1.0 - p_d) * (1.0 - eta_d) ** np.arange(n_hit.max(initial=0) + 1)
    thr_l = np.full(size, click_prob[0])
    thr_r = np.full(size, click_prob[0])
    thr_l[hit] = click_prob[n_left]
    thr_r[hit] = click_prob[n_hit - n_left]
    click_l = rng.random(size) < thr_l
    click_r = rng.random(size) < thr_r
    single = np.nonzero(click_l != click_r)[0]
    sel = single[kept_matrix[la[single], lb[single]]]
    cls = oracle._class_code(la[sel], np.minimum(n_src_a[sel], 2), lb[sel], np.minimum(n_src_b[sel], 2),
                             ints_a.size)
    return start_idx + sel, cls, np.mod(sa[sel] - sb[sel], m_slices), click_r[sel].astype(np.int8)


def per_bin_sampler(source):
    """``per_bin_click_chunk`` in the place of ``oracle._click_chunk``."""
    labels = source.labels
    cdf_a = np.cumsum([source.probabilities_a[l] for l in labels])
    cdf_b = np.cumsum([source.probabilities_b[l] for l in labels])
    kept_matrix = np.zeros((len(labels), len(labels)), dtype=bool)
    for la, lb in source.layout.kept:
        kept_matrix[labels.index(la), labels.index(lb)] = True
    src_arrays = (
        np.array([source.intensities_a[l] for l in labels]), cdf_a / cdf_a[-1],
        np.array([source.intensities_b[l] for l in labels]), cdf_b / cdf_b[-1],
        kept_matrix,
    )

    def click_chunk(rng, size, start_idx, _tables, link, det, drift_per_bin):
        return per_bin_click_chunk(rng, size, start_idx, src_arrays, link, det, drift_per_bin)

    return click_chunk


def decode_class(cls, n_labels):
    """(l_a, e_a, l_b, e_b) of click classes ((l_a 3 + e_a) L + l_b) 3 + e_b."""
    rest, e_b = np.divmod(np.asarray(cls, dtype=np.int64), 3)
    rest, l_b = np.divmod(rest, n_labels)
    l_a, e_a = np.divmod(rest, 3)
    return l_a, e_a, l_b, e_b


def whole_run_simulate(source, link, det, n_bins, seed, chunk_bins=1_000_000):
    """``simulate`` that keeps every kept click of the run, then pairs and
    tallies them in one pass, field by field from the decoded click classes.
    The streaming oracle must equal it exactly."""
    labels = source.labels
    n_labels = len(labels)
    layout = source.layout
    tables = oracle._Candidates(source, link, det)

    drift_per_bin = link.phase_rate_rad_per_s / link.clock_hz
    n_chunks = (n_bins + chunk_bins - 1) // chunk_bins
    streams = np.random.SeedSequence(seed).spawn(n_chunks + 2)
    class_rng = np.random.default_rng(streams[-2])
    posterior_rng = np.random.default_rng(streams[-1])

    fields = [[] for _ in range(4)]
    for chunk in range(n_chunks):
        size = min(chunk_bins, n_bins - chunk * chunk_bins)
        rng = np.random.default_rng(streams[chunk])
        parts = oracle._click_chunk(rng, size, chunk * chunk_bins, tables, link, det, drift_per_bin)
        for store, arr in zip(fields, parts):
            store.append(arr)
    idx, cls, diff, det_click = (np.concatenate(f) for f in fields)
    la, na, lb, nb = decode_class(cls, n_labels)  # n: the source photons, capped at 2

    early, late = _pair_scan(idx, source.pairing_window_bins)
    n_pairs = early.size
    gaps = idx[late] - idx[early]

    tot_code = np.empty((n_labels, n_labels), dtype=np.int16)
    code_of = {}
    for code, (l1, l2) in enumerate(layout.totals):
        i, j = labels.index(l1), labels.index(l2)
        tot_code[i, j] = tot_code[j, i] = code_of[(l1, l2)] = code
    t_a = tot_code[la[early], la[late]]
    t_b = tot_code[lb[early], lb[late]]

    m_slices = link.phase_slices
    phi_ab = np.mod(diff[late].astype(np.int32) - diff[early], m_slices)
    matched0 = phi_ab == 0
    matched_pi = phi_ab == m_slices // 2
    matched = matched0 | matched_pi

    n_totals = len(layout.totals)
    group_code = t_a.astype(np.int32) * n_totals + t_b
    counts = dict(zip(layout.groups, np.bincount(group_code, minlength=n_totals**2).tolist()))
    for ta, tb in layout.sifted:
        mask = (t_a == code_of[ta]) & (t_b == code_of[tb])
        counts[(ta, tb)] = int(np.count_nonzero(mask & matched))

    o_code = labels.index("o")
    z_truth = {}
    a_vac_pair = (na[early] + na[late]) == 0
    b_vac_pair = (nb[early] + nb[late]) == 0
    a_single = (na[early].astype(np.int32) + na[late]) == 1
    b_single = (nb[early].astype(np.int32) + nb[late]) == 1
    z_error = (la[early] != o_code) == (lb[early] != o_code)
    bright = [l for l in labels if l != "o"]
    for ka in bright:
        for kb in bright:
            key = ((ka, "o"), (kb, "o"))
            mask = (t_a == code_of[(ka, "o")]) & (t_b == code_of[(kb, "o")])
            singles = mask & a_single & b_single
            z_truth[key] = GroupTruth(
                count=int(np.count_nonzero(mask)),
                errors=int(np.count_nonzero(mask & z_error)),
                a_vacuum=int(np.count_nonzero(mask & a_vac_pair)),
                b_vacuum=int(np.count_nonzero(mask & b_vac_pair)),
                single_photon_pairs=int(np.count_nonzero(singles)),
                single_photon_errors=int(np.count_nonzero(singles & z_error)),
            )

    nu_code = code_of[("nu", "nu")]
    x_pos = np.nonzero((t_a == nu_code) & (t_b == nu_code) & matched)[0]
    same_det = det_click[early[x_pos]] == det_click[late[x_pos]]
    raw_error = np.where(matched0[x_pos], ~same_det, same_det)
    flips = class_rng.random(x_pos.size) < link.interference_error
    x_error = np.logical_xor(raw_error, flips)
    posterior = LayerPosterior(
        emitted_a=2.0 * source.intensities_a["nu"],
        emitted_b=2.0 * source.intensities_b["nu"],
        eta_a=link.eta_a,
        eta_b=link.eta_b,
        eta_d=det.eta_d,
        p_d=det.dark_prob(link.clock_hz),
    )
    lay_a, lay_b = posterior.sample(
        matched_pi[x_pos], det_click[early[x_pos]], det_click[late[x_pos]], posterior_rng
    )
    single = (lay_a == 1) & (lay_b == 1)
    vacuum = (lay_a == 0) | (lay_b == 0)
    return oracle.OracleResult(
        n_bins=n_bins,
        n_clicks=int(idx.size),
        n_pairs=int(n_pairs),
        t_mean_s=float(gaps.mean() / link.clock_hz) if n_pairs else math.inf,
        counts=counts,
        m_x=int(np.count_nonzero(x_error)),
        x_matched=int(x_pos.size),
        z_truth=z_truth,
        x_truth=GroupTruth(
            count=int(x_pos.size),
            errors=int(np.count_nonzero(x_error)),
            single_photon_pairs=int(np.count_nonzero(single)),
            single_photon_errors=int(np.count_nonzero(single & x_error)),
        ),
        x_vacuum=int(np.count_nonzero(vacuum)),
        x_vacuum_errors=int(np.count_nonzero(vacuum & x_error)),
    )


class TestPairScan:
    @settings(max_examples=300, deadline=None)
    @given(
        gaps=st.lists(st.integers(0, 40), max_size=80),
        window=st.one_of(st.integers(0, 20), st.floats(0.0, 20.0)),
    )
    def test_matches_greedy_walk(self, gaps, window):
        indices = np.cumsum(np.asarray(gaps, dtype=np.int64))
        early, late = _pair_scan(indices, window)
        assert (early.tolist(), late.tolist()) == greedy_pairs(indices, window)

    @pytest.mark.parametrize(
        "indices, window, expected",
        [
            ([], 5, ([], [])),
            ([7], 5, ([], [])),
            ([0, 5, 10, 15, 20], 5, ([0, 2], [1, 3])),  # gaps equal to the window pair
            ([3, 4, 6, 7, 9], 100, ([0, 2], [1, 3])),  # one run spanning everything
            ([0, 6, 9, 12, 20], 5, ([1], [2])),
            ([0, 3, 7, 10, 12], 3.0, ([0, 2], [1, 3])),  # float window, int64 indices
            ([0, 3, 7, 10, 12], 2.5, ([3], [4])),
        ],
    )
    def test_edge_cases(self, indices, window, expected):
        idx = np.asarray(indices, dtype=np.int64)
        early, late = _pair_scan(idx, window)
        assert early.dtype == late.dtype == np.int64
        assert (early.tolist(), late.tolist()) == expected == greedy_pairs(idx, window)


class TestFockTables:
    @pytest.mark.parametrize("matched_pi", [False, True])
    def test_dict_occupancy_table_sums_to_one(self, matched_pi):
        for n_a, n_b in itertools.product(range(7), repeat=2):
            table = dict_occupancy_table(n_a, n_b, matched_pi)
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("eta_d, p_d", [(0.8, 1e-4), (0.8, 1e-8), (1.0, 0.0), (0.3, 2.5e-11)])
    def test_pattern_matches_dict_expansion(self, eta_d, p_d):
        for n_a, n_b, matched_pi, d_e, d_l in itertools.product(
            range(7), range(7), (False, True), (0, 1), (0, 1)
        ):
            got = float(oracle._arrived_grid(n_a, n_b, matched_pi, d_e, d_l, eta_d, p_d)[n_a, n_b])
            want = dict_pattern(n_a, n_b, matched_pi, d_e, d_l, eta_d, p_d)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


# four labels and a chunk size that does not divide the run; the expected
# values pin the event sampler's random stream
GOLDEN_DET = DetectorPair(0.8, 1e5)
GOLDEN_LINK = ChannelLink(
    15.0, 15.0, 0.16, clock_hz=1e9,
    phase_drift_rad_per_s=5900.0, laser_offset_hz=10.0,
    interference_error=0.04, phase_slices=8,
)
GOLDEN_SRC = SourceConfig.from_params(dict(
    mu_a=0.6, nu_a=0.12, p_mu_a=0.3, p_nu_a=0.3,
    mu_b=0.5, nu_b=0.15, p_mu_b=0.3, p_nu_b=0.35,
    omega_a=0.3, p_omega_a=0.15, omega_b=0.25, p_omega_b=0.15, tc_bins=2000.0,
), four_intensity=True, click_filtering=True)
GOLDEN_COUNTS = {
    (("mu", "mu"), ("mu", "mu")): 594, (("mu", "mu"), ("mu", "o")): 1935,
    (("mu", "mu"), ("o", "o")): 383, (("mu", "omega"), ("mu", "omega")): 683,
    (("mu", "omega"), ("mu", "o")): 510, (("mu", "omega"), ("omega", "o")): 258,
    (("mu", "omega"), ("o", "o")): 230, (("mu", "nu"), ("mu", "nu")): 1745,
    (("mu", "nu"), ("mu", "o")): 482, (("mu", "nu"), ("nu", "o")): 685,
    (("mu", "nu"), ("o", "o")): 184, (("mu", "o"), ("mu", "mu")): 1987,
    (("mu", "o"), ("mu", "omega")): 529, (("mu", "o"), ("mu", "nu")): 777,
    (("mu", "o"), ("mu", "o")): 843, (("mu", "o"), ("omega", "o")): 210,
    (("mu", "o"), ("nu", "o")): 356, (("omega", "omega"), ("omega", "omega")): 11,
    (("omega", "omega"), ("omega", "o")): 74, (("omega", "omega"), ("o", "o")): 31,
    (("omega", "nu"), ("omega", "nu")): 251, (("omega", "nu"), ("omega", "o")): 78,
    (("omega", "nu"), ("nu", "o")): 182, (("omega", "nu"), ("o", "o")): 46,
    (("omega", "o"), ("mu", "omega")): 281, (("omega", "o"), ("mu", "o")): 232,
    (("omega", "o"), ("omega", "omega")): 69, (("omega", "o"), ("omega", "nu")): 116,
    (("omega", "o"), ("omega", "o")): 64, (("omega", "o"), ("nu", "o")): 75,
    (("omega", "o"), ("o", "o")): 1, (("nu", "nu"), ("nu", "nu")): 81,
    (("nu", "nu"), ("nu", "o")): 168, (("nu", "nu"), ("o", "o")): 23,
    (("nu", "o"), ("mu", "nu")): 768, (("nu", "o"), ("mu", "o")): 201,
    (("nu", "o"), ("omega", "nu")): 170, (("nu", "o"), ("omega", "o")): 55,
    (("nu", "o"), ("nu", "nu")): 275, (("nu", "o"), ("nu", "o")): 71,
    (("o", "o"), ("mu", "mu")): 478, (("o", "o"), ("mu", "omega")): 258,
    (("o", "o"), ("mu", "nu")): 335, (("o", "o"), ("mu", "o")): 1,
    (("o", "o"), ("omega", "omega")): 30, (("o", "o"), ("omega", "nu")): 84,
    (("o", "o"), ("nu", "nu")): 57,
}
# (count, errors, a_vacuum, b_vacuum, single_photon_pairs, single_photon_errors)
GOLDEN_Z_TRUTH = {
    (("mu", "o"), ("mu", "o")): (843, 1, 1, 0, 406, 1),
    (("mu", "o"), ("omega", "o")): (210, 0, 0, 0, 115, 0),
    (("mu", "o"), ("nu", "o")): (356, 0, 0, 1, 233, 0),
    (("omega", "o"), ("mu", "o")): (232, 0, 0, 1, 133, 0),
    (("omega", "o"), ("omega", "o")): (64, 0, 0, 0, 43, 0),
    (("omega", "o"), ("nu", "o")): (75, 0, 0, 0, 58, 0),
    (("nu", "o"), ("mu", "o")): (201, 0, 0, 1, 126, 0),
    (("nu", "o"), ("omega", "o")): (55, 0, 0, 0, 46, 0),
    (("nu", "o"), ("nu", "o")): (71, 0, 0, 0, 63, 0),
}


def test_random_stream_is_pinned():
    res = simulate(GOLDEN_SRC, GOLDEN_LINK, GOLDEN_DET, 400_000, seed=21, chunk_bins=150_000)
    assert (res.n_clicks, res.n_pairs) == (38109, 19054)
    assert {k: v for k, v in res.counts.items() if v} == GOLDEN_COUNTS
    assert (res.m_x, res.x_matched) == (19, 81)
    assert res.x_truth == GroupTruth(
        count=81, errors=19, single_photon_pairs=30, single_photon_errors=1
    )
    assert (res.x_vacuum, res.x_vacuum_errors) == (35, 15)
    assert {k: tuple(vars(g).values()) for k, g in res.z_truth.items()} == GOLDEN_Z_TRUTH


# every field of simulate's result on each validate-oracle config (three
# labels filtered, three unfiltered on an asymmetric link, four filtered) at
# 1e6 bins in chunks that do not divide the run: counts in the order of
# layout.groups, the GroupTruth fields of x_truth and of each Z group
# ((bright label of a, of b) -> fields), x_vacuum with its errors
ORACLE_CONFIG_PINS = [
    dict(seed=7, n_clicks=121734, n_pairs=60867, t_mean_s=8.203114988417368e-09,
         counts=[2106, 0, 8785, 0, 0, 2380, 0, 6381, 2987, 0, 3291, 1590, 7644, 2612, 4062, 0,
                 1366, 3, 0, 0, 0, 299, 1163, 290, 0, 2765, 1335, 962, 483, 2, 1644, 1143, 7,
                 203, 0, 0],
         m_x=75, x_matched=299, x_truth=(299, 75, 0, 0, 87, 3), x_vacuum=(130, 56),
         z_truth={("mu", "mu"): (4062, 9, 6, 11, 2162, 2), ("mu", "nu"): (1366, 0, 1, 4, 906, 0),
                  ("nu", "mu"): (1335, 0, 2, 1, 871, 0), ("nu", "nu"): (483, 1, 2, 2, 397, 0)}),
    dict(seed=8, n_clicks=172823, n_pairs=86411, t_mean_s=5.769300204835033e-09,
         counts=[765, 5181, 2306, 2178, 1962, 440, 6594, 10206, 3840, 3728, 2679, 433, 4300,
                 6023, 1641, 1888, 869, 0, 3646, 4787, 1219, 375, 857, 107, 4790, 5605, 859,
                 1694, 422, 0, 1520, 1636, 0, 407, 0, 0],
         m_x=108, x_matched=375, x_truth=(375, 108, 0, 0, 87, 2), x_vacuum=(159, 80),
         z_truth={("mu", "mu"): (1641, 0, 0, 0, 722, 0), ("mu", "nu"): (869, 0, 0, 0, 487, 0),
                  ("nu", "mu"): (859, 0, 0, 0, 514, 0), ("nu", "nu"): (422, 0, 0, 0, 323, 0)}),
    dict(seed=9, n_clicks=100773, n_pairs=50386, t_mean_s=9.885543603381892e-09,
         counts=[1605, 0, 0, 5834, 0, 0, 0, 0, 0, 1414, 0, 1766, 0, 1637, 0, 0, 842, 0, 0, 753,
                 0, 0, 3171, 1407, 0, 0, 0, 0, 1532, 690, 5926, 1647, 1392, 2899, 0, 0, 763, 0,
                 714, 0, 0, 0, 0, 0, 42, 0, 228, 0, 0, 123, 0, 0, 0, 0, 0, 477, 196, 0, 422,
                 178, 0, 912, 0, 800, 218, 180, 225, 0, 168, 0, 0, 0, 0, 0, 0, 0, 0, 124, 356,
                 81, 0, 0, 1557, 661, 0, 431, 199, 364, 127, 0, 1464, 743, 641, 0, 89, 190, 0,
                 92, 0, 0],
         m_x=29, x_matched=124, x_truth=(124, 29, 0, 0, 43, 0), x_vacuum=(51, 26),
         z_truth={("mu", "mu"): (2899, 0, 0, 0, 1317, 0), ("mu", "omega"): (763, 0, 0, 0, 420, 0),
                  ("mu", "nu"): (714, 0, 0, 0, 467, 0), ("omega", "mu"): (800, 0, 0, 0, 452, 0),
                  ("omega", "omega"): (225, 0, 0, 0, 147, 0),
                  ("omega", "nu"): (168, 0, 0, 0, 136, 0), ("nu", "mu"): (661, 0, 0, 0, 408, 0),
                  ("nu", "omega"): (199, 0, 0, 0, 147, 0), ("nu", "nu"): (127, 0, 0, 0, 105, 0)}),
]


@pytest.mark.parametrize("config", range(len(ORACLE_CONFIG_PINS)))
def test_validate_oracle_configs_are_pinned(config):
    pin = ORACLE_CONFIG_PINS[config]
    src, link, det = cli._oracle_setup(cli._ORACLE_CONFIGS[config])
    res = simulate(src, link, det, 1_000_000, seed=pin["seed"], chunk_bins=300_007)
    assert list(res.counts) == list(src.layout.groups)
    assert res == oracle.OracleResult(
        n_bins=1_000_000, n_clicks=pin["n_clicks"], n_pairs=pin["n_pairs"],
        t_mean_s=pin["t_mean_s"], counts=dict(zip(src.layout.groups, pin["counts"])),
        m_x=pin["m_x"], x_matched=pin["x_matched"],
        z_truth={((ka, "o"), (kb, "o")): GroupTruth(*fields)
                 for (ka, kb), fields in pin["z_truth"].items()},
        x_truth=GroupTruth(*pin["x_truth"]),
        x_vacuum=pin["x_vacuum"][0], x_vacuum_errors=pin["x_vacuum"][1],
    )


# mu near 3 on a short link: most candidate bins carry n >= 2 photons,
# where the click bound B(n) is loose and the thinning rejects
BRIGHT_LINK = replace(GOLDEN_LINK, length_a_km=2.0, length_b_km=3.0)
BRIGHT_SRC = SourceConfig.from_params(dict(
    mu_a=3.0, nu_a=0.6, p_mu_a=0.3, p_nu_a=0.3,
    mu_b=2.8, nu_b=0.5, p_mu_b=0.3, p_nu_b=0.35, tc_bins=2000.0,
), click_filtering=True)


def tallies(res, groups):
    """The oracle numbers the event sampler must reproduce in distribution."""
    out = {
        "n_clicks": res.n_clicks,
        "n_pairs": res.n_pairs,
        "z_a_vacuum": sum(g.a_vacuum for g in res.z_truth.values()),
        "z_b_vacuum": sum(g.b_vacuum for g in res.z_truth.values()),
        "x_count": res.x_truth.count,
        "x_errors": res.x_truth.errors,
        "x_single_photon_pairs": res.x_truth.single_photon_pairs,
        "x_single_photon_errors": res.x_truth.single_photon_errors,
        "x_vacuum": res.x_vacuum,
        "x_vacuum_errors": res.x_vacuum_errors,
    }
    out.update({f"z_single_photon_pairs{g}": t.single_photon_pairs for g, t in res.z_truth.items()})
    out.update({f"count{g}": res.counts[g] for g in groups})
    return out


class TestEventSampler:
    N_BINS = 400_000
    SEEDS = range(8)

    def test_matches_per_bin_sampler(self, monkeypatch):
        # mean tallies over the seeds agree within 5 standard errors of their
        # difference; each side's variance is its sample variance, floored at
        # the Poisson variance of its mean so that a few equal small tallies
        # do not shrink the window to nothing
        obs = expected_observables(GOLDEN_SRC, GOLDEN_LINK, GOLDEN_DET, float(self.N_BINS))
        groups = [g for g, expected in obs.counts.items() if expected >= 25.0]

        def runs():
            return [
                tallies(simulate(GOLDEN_SRC, GOLDEN_LINK, GOLDEN_DET, self.N_BINS, seed=s), groups)
                for s in self.SEEDS
            ]

        event = runs()
        monkeypatch.setattr(oracle, "_click_chunk", per_bin_sampler(GOLDEN_SRC))
        per_bin = runs()
        k = len(self.SEEDS)
        for name in event[0]:
            a = np.array([r[name] for r in event], dtype=float)
            b = np.array([r[name] for r in per_bin], dtype=float)
            var = max(a.var(ddof=1), a.mean()) + max(b.var(ddof=1), b.mean())
            z = (a.mean() - b.mean()) / math.sqrt(max(var, 1.0) / k)
            assert abs(z) <= 5.0, (name, a.mean(), b.mean())

    def test_matches_per_bin_sampler_bright(self, monkeypatch):
        # the bright source with 1e5 Hz darks, where B(n) is loose
        src, link = BRIGHT_SRC, BRIGHT_LINK
        candidates = oracle._Candidates(src, link, GOLDEN_DET)
        loose = np.diff(candidates.rows[0], prepend=0.0)[candidates.photons >= 2].sum()
        assert loose > 0.5
        n_bins = 200_000
        obs = expected_observables(src, link, GOLDEN_DET, float(n_bins))
        groups = [g for g, expected in obs.counts.items() if expected >= 25.0]

        def runs():
            return [tallies(simulate(src, link, GOLDEN_DET, n_bins, seed=s), groups)
                    for s in self.SEEDS]

        event = runs()
        monkeypatch.setattr(oracle, "_click_chunk", per_bin_sampler(src))
        per_bin = runs()
        for name in event[0]:
            a = np.array([r[name] for r in event], dtype=float)
            b = np.array([r[name] for r in per_bin], dtype=float)
            var = max(a.var(ddof=1), a.mean()) + max(b.var(ddof=1), b.mean())
            z = (a.mean() - b.mean()) / math.sqrt(max(var, 1.0) / len(self.SEEDS))
            assert abs(z) <= 5.0, (name, a.mean(), b.mean())

    def test_matches_per_bin_sampler_lossy(self, monkeypatch):
        # 40 + 40 km (eta near 0.23): most emitted photons are lost, so a third
        # of the candidate rows carry an emission class above their arrived count
        link = replace(GOLDEN_LINK, length_a_km=40.0, length_b_km=40.0)
        candidates = oracle._Candidates(GOLDEN_SRC, link, GOLDEN_DET)
        _, emitted_a, _, emitted_b = decode_class(candidates.cls, len(GOLDEN_SRC.labels))
        lost = ((emitted_a > np.minimum(candidates.count_a, 2))
                | (emitted_b > np.minimum(candidates.count_b, 2)))
        assert np.diff(candidates.rows[0], prepend=0.0)[lost].sum() > 0.3
        n_bins = 1_000_000
        obs = expected_observables(GOLDEN_SRC, link, GOLDEN_DET, float(n_bins))
        groups = [g for g, expected in obs.counts.items() if expected >= 25.0]

        def runs():
            return [tallies(simulate(GOLDEN_SRC, link, GOLDEN_DET, n_bins, seed=s), groups)
                    for s in self.SEEDS]

        event = runs()
        monkeypatch.setattr(oracle, "_click_chunk", per_bin_sampler(GOLDEN_SRC))
        per_bin = runs()
        for name in event[0]:
            a = np.array([r[name] for r in event], dtype=float)
            b = np.array([r[name] for r in per_bin], dtype=float)
            var = max(a.var(ddof=1), a.mean()) + max(b.var(ddof=1), b.mean())
            z = (a.mean() - b.mean()) / math.sqrt(max(var, 1.0) / len(self.SEEDS))
            assert abs(z) <= 5.0, (name, a.mean(), b.mean())

    def test_guided_draw_is_searchsorted(self):
        rng = np.random.default_rng(9)
        for weights in ([1.0], [0.0, 2.0, 0.0, 1.0], [1e-17] * 30 + [1.0] + [1e-20] * 30,
                        rng.random(50) ** 8):
            table = oracle._inverse_cdf(weights)
            cdf = table[0]
            u = np.concatenate((rng.random(20_000), cdf[:-1], np.arange(1024) / 1024,
                                np.nextafter(cdf[:-1], 0.0), [np.nextafter(1.0, 0.0)]))
            u = u[(u >= 0.0) & (u < 1.0)]
            assert np.array_equal(oracle._draw(table, u), cdf.searchsorted(u, side="right"))

    def test_bernoulli_sites(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert oracle._bernoulli_sites(rng, 0.0, 1000).size == 0
        assert rng.bit_generator.state == state  # p = 0 draws nothing
        counts = []
        for size in (1, 7, 1000):
            for _ in range(200):
                sites = oracle._bernoulli_sites(rng, 0.3, size)
                assert np.all(np.diff(sites) > 0)
                assert sites.size == 0 or (sites[0] >= 0 and sites[-1] < size)
                counts.append(sites.size / size)
        assert np.mean(counts[-200:]) == pytest.approx(0.3, abs=5.0 * math.sqrt(0.21 / 200_000))

        class UnitGaps:
            def geometric(self, p, n):
                return np.ones(n, dtype=np.int64)

        # a run of short gaps that outlasts the first batch draws more
        assert oracle._bernoulli_sites(UnitGaps(), 0.01, 1000).tolist() == list(range(1000))

    def test_without_dark_counts(self):
        det = DetectorPair(0.8, 0.0)
        res = simulate(SRC, LINK, det, 400_000, seed=4)
        obs = expected_observables(SRC, LINK, det, 400_000.0)
        assert abs(res.n_pairs - obs.n_pairs) <= 5.0 * math.sqrt(obs.n_pairs)

    def test_no_arrivals(self):
        # fibre transmittance underflows to zero: no bin ever sees a photon
        dark_link = ChannelLink(400.0, 400.0, 10.0, clock_hz=1e9, phase_slices=8)
        assert dark_link.eta_a == dark_link.eta_b == 0.0
        silent = simulate(SRC, dark_link, DetectorPair(0.8, 0.0), 200_000, seed=3)
        assert silent.n_clicks == 0 and silent.n_pairs == 0
        src = SourceConfig.from_params(dict(
            mu_a=0.5, nu_a=0.15, p_mu_a=0.35, p_nu_a=0.35,
            mu_b=0.45, nu_b=0.12, p_mu_b=0.35, p_nu_b=0.35,
        ), click_filtering=False)
        det = DetectorPair(0.8, 1e5)
        p_d = det.dark_prob(dark_link.clock_hz)
        res = simulate(src, dark_link, det, 1_000_000, seed=3)
        expected = 2.0 * p_d * (1.0 - p_d) * 1_000_000
        assert abs(res.n_clicks - expected) <= 5.0 * math.sqrt(expected)

    def test_single_bin(self):
        res = simulate(SRC, LINK, DET, 1, seed=2)
        assert res.n_bins == 1 and res.n_clicks in (0, 1) and res.n_pairs == 0

    def test_click_indices_across_chunks(self, monkeypatch):
        # a chunk size that does not divide the run: indices stay strictly
        # increasing and inside the run, and the short last chunk clicks at
        # the rate of the others
        seen = []

        def spy(indices, window):
            seen.append(indices.copy())
            return _pair_scan(indices, window)

        monkeypatch.setattr(oracle, "_pair_scan", spy)
        n_bins, chunk = 250_000, 60_000
        res = simulate(SRC, LINK, DET, n_bins, seed=6, chunk_bins=chunk)
        # one scan per chunk; a scan starts with the click the previous one
        # left pending, which is that scan's last index
        idx = np.concatenate(
            [seen[0]] + [s[1:] if s.size and prev.size and s[0] == prev[-1] else s
                         for prev, s in zip(seen, seen[1:])]
        )
        assert len(seen) == 5
        assert idx.size == res.n_clicks
        assert np.all(np.diff(idx) > 0) and idx[0] >= 0 and idx[-1] < n_bins
        per_chunk = np.bincount(idx // chunk)
        assert per_chunk.size == 5 and per_chunk.min() > 0
        expected = res.n_clicks * (n_bins - 4 * chunk) / n_bins
        assert abs(per_chunk[-1] - expected) <= 5.0 * math.sqrt(expected)
        again = simulate(SRC, LINK, DET, n_bins, seed=6, chunk_bins=chunk)
        assert (again.counts, again.x_truth) == (res.counts, res.x_truth)


def single_click_prob(n, w, eta_d, p_d):
    """P(exactly one detector clicks) with n photons routed left with weight
    w, summed over the binomial routing term by term."""
    c, t = 1.0 - p_d, 1.0 - eta_d
    return sum(
        math.comb(n, k) * w**k * (1.0 - w) ** (n - k)
        * ((1.0 - c * t**k) * c * t ** (n - k) + (1.0 - c * t ** (n - k)) * c * t**k)
        for k in range(n + 1)
    )


class TestCandidateTable:
    LABELS = ("mu", "nu", "o")
    PROBABILITIES = {"mu": 0.3, "nu": 0.5, "o": 0.2}
    CASES = {
        "filtering": (SRC, LINK, DET),
        "four-intensity": (GOLDEN_SRC, GOLDEN_LINK, GOLDEN_DET),
        "bright-no-filtering": (replace(BRIGHT_SRC, click_filtering=False), BRIGHT_LINK,
                                DetectorPair(0.6, 1e5)),
        "no-darks": (SRC, LINK, DetectorPair(0.8, 0.0)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_row_weight_is_prior_times_bound(self, case):
        # each row carries P_a(l_a, n_a, e_a) P_b(l_b, n_b, e_b) B(n) / rate,
        # to 1e-15 (the rounding of the cdf steps) against 30 digits, where
        # P(l, n, e) is P(l, n) times the chance that the n arrived photons
        # plus the Poisson((1 - eta) k_l) lost ones make e, capped at 2; and
        # rate is the closed-form sum over all n: E[t**N] = exp(-m (1 - t))
        # for Poisson N of mean m
        import mpmath

        src, link, det = self.CASES[case]
        table = oracle._Candidates(src, link, det)
        labels = src.labels
        weights = np.diff(table.rows[0], prepend=0.0)
        for intensities, probabilities, eta in ((src.intensities_a, src.probabilities_a, link.eta_a),
                                                (src.intensities_b, src.probabilities_b, link.eta_b)):
            # a party's split rows sum back to its P(l, n), to rounding
            label, count, prior, _, lost = oracle._party_rows(intensities, probabilities, labels, eta)
            s_label, s_count, emitted, s_prior = oracle._emitted_rows(label, count, prior, lost)
            assert set(emitted.tolist()) <= {0, 1, 2} and np.all(emitted >= np.minimum(s_count, 2))
            for l, n, p in zip(label, count, prior):
                split = s_prior[(s_label == l) & (s_count == n)]
                assert math.fsum(split) == pytest.approx(p, rel=1e-15)
        with mpmath.workdps(30):
            p_d = mpmath.mpf(det.dark_prob(link.clock_hz))
            c, t = 1 - p_d, 1 - mpmath.mpf(det.eta_d)

            def prior(intensities, probabilities, eta, l, n, e):
                m = mpmath.mpf(eta) * intensities[labels[l]]
                lost = (1 - mpmath.mpf(eta)) * intensities[labels[l]]
                arrived = probabilities[labels[l]] * mpmath.exp(-m) * m**n / mpmath.factorial(n)
                below = [mpmath.exp(-lost) * lost**j / mpmath.factorial(j) for j in range(max(2 - n, 0))]
                share = below[e - n] if e < 2 else 1 - mpmath.fsum(below)
                return arrived * share

            want = []
            label_a, emitted_a, label_b, emitted_b = decode_class(table.cls, len(labels))
            for la, na, ea, lb, nb, eb in zip(label_a, table.count_a, emitted_a,
                                              label_b, table.count_b, emitted_b):
                assert (labels[la], labels[lb]) in src.layout.kept
                n = int(na) + int(nb)
                want.append(
                    prior(src.intensities_a, src.probabilities_a, link.eta_a, la, int(na), int(ea))
                    * prior(src.intensities_b, src.probabilities_b, link.eta_b, lb, int(nb), int(eb))
                    * c * (1 + t**n - 2 * c * t**n)
                )
            total = mpmath.fsum(want)
            for got, w in zip(weights, want):
                assert got == pytest.approx(float(w / total), rel=1e-12, abs=1e-15)
            mean_a = {l: link.eta_a * k for l, k in src.intensities_a.items()}
            mean_b = {l: link.eta_b * k for l, k in src.intensities_b.items()}
            closed = mpmath.fsum(
                src.probabilities_a[la] * src.probabilities_b[lb]
                * c * (1 + (1 - 2 * c) * mpmath.exp(-(1 - t) * (mean_a[la] + mean_b[lb])))
                for la, lb in src.layout.kept
            )
            assert table.rate == pytest.approx(float(closed), rel=1e-13)
            assert table.rate == pytest.approx(float(total), rel=1e-13)

    def test_party_tail_is_cut_below_1e_16(self):
        # a label's rows run n = 0, 1, ..., cap and stop at a Poisson tail
        # below 1e-16 of the party's P(n >= 1)
        import mpmath

        eta = 0.5
        caps = []
        for mu in (1e-3, 0.3, 3.0, 30.0):
            intensities = {"mu": mu, "nu": mu / 4.0, "o": 0.0}
            label, count, _, mean, lost = oracle._party_rows(
                intensities, self.PROBABILITIES, self.LABELS, eta
            )
            q = sum(self.PROBABILITIES[l] * -math.expm1(-eta * intensities[l]) for l in self.LABELS)
            for l, name in enumerate(self.LABELS):
                m = eta * intensities[name]
                assert (mean[l], lost[l]) == (m, (1.0 - eta) * intensities[name])
                cap = int(count[label == l].max())
                assert count[label == l].tolist() == list(range(cap + 1))
                tail = float(mpmath.gammainc(cap + 1, 0, m, regularized=True))
                assert self.PROBABILITIES[name] * tail < 1e-16 * q
            assert count[label == 2].tolist() == [0]  # the vacuum label never arrives
            caps.append(int(count.max()))
        assert caps == sorted(caps) and caps[0] < caps[-1]

    @pytest.mark.parametrize("eta_d, dark_hz", [(0.8, 1e5), (0.3, 10.0), (1.0, 1e6), (0.8, 0.0)])
    def test_bound_is_the_largest_single_click_prob(self, eta_d, dark_hz):
        # B(n) >= P(left) + P(right) for every w, with equality at w = 0 and
        # w = 1, for every n in the table
        det = DetectorPair(eta_d, dark_hz)
        table = oracle._Candidates(BRIGHT_SRC, BRIGHT_LINK, det)
        p_d = det.dark_prob(BRIGHT_LINK.clock_hz)
        bounds = dict(zip(table.photons.astype(int).tolist(), table.bound.tolist()))
        assert max(bounds) >= 10
        for n, bound in bounds.items():
            probs = [single_click_prob(n, w, eta_d, p_d) for w in np.linspace(0.0, 1.0, 41)]
            assert max(probs) <= bound * (1.0 + 1e-13)
            assert probs[0] == pytest.approx(bound, rel=1e-13)
            assert probs[-1] == pytest.approx(bound, rel=1e-13)

    @pytest.mark.parametrize("src", [SRC, replace(SRC, click_filtering=False), GOLDEN_SRC],
                             ids=["filtering", "no-filtering", "four-intensity"])
    def test_class_codes_and_pair_keys(self, src):
        # the rows' classes decode to exactly the joint rows (l_a, n_a, e_a,
        # l_b, n_b, e_b) of the kept label pairs (with dark counts every one
        # weighs more than 0), and the key of every (early, late) pair of
        # classes holds the group and flag bits that the per-field tally
        # gives for a pair of clicks of those classes
        table = oracle._Candidates(src, LINK, DET)
        labels, layout = src.labels, src.layout
        n_labels, n_classes = len(labels), 9 * len(labels) ** 2
        assert table.cls.dtype == np.int16
        assert np.all((table.cls >= 0) & (table.cls < n_classes))
        la, ea, lb, eb = decode_class(table.cls, n_labels)
        got = list(zip(*(f.tolist() for f in (la, table.count_a, ea, lb, table.count_b, eb))))

        def split_rows(intensities, probabilities, eta):
            label, count, prior, _, lost = oracle._party_rows(intensities, probabilities, labels, eta)
            return list(zip(*(f.tolist() for f in oracle._emitted_rows(label, count, prior, lost))))

        want = [
            (l_a, n_a, e_a, l_b, n_b, e_b)
            for l_a, n_a, e_a, _ in split_rows(src.intensities_a, src.probabilities_a, LINK.eta_a)
            for l_b, n_b, e_b, _ in split_rows(src.intensities_b, src.probabilities_b, LINK.eta_b)
            if (labels[l_a], labels[l_b]) in layout.kept
        ]
        assert len(set(got)) == len(got) and sorted(got) == sorted(want)

        la, ea, lb, eb = decode_class(np.arange(n_classes), n_labels)
        early, late = (c.ravel() for c in np.indices((n_classes, n_classes)))
        tot_code = np.empty((n_labels, n_labels), dtype=np.int64)
        for code, (l1, l2) in enumerate(layout.totals):
            i, j = labels.index(l1), labels.index(l2)
            tot_code[i, j] = tot_code[j, i] = code
        t_a, t_b = tot_code[la[early], la[late]], tot_code[lb[early], lb[late]]
        group = t_a * len(layout.totals) + t_b
        assert all(layout.groups[g] == (layout.totals[i], layout.totals[j])
                   for g, i, j in set(zip(group.tolist(), t_a.tolist(), t_b.tolist())))
        o_code = labels.index("o")
        e_a, e_b = ea[early] + ea[late], eb[early] + eb[late]
        flags = (
            ((la[early] != o_code) == (lb[early] != o_code)) * oracle._Z_ERR
            + (e_a == 0) * oracle._A_VAC + (e_b == 0) * oracle._B_VAC
            + ((e_a == 1) & (e_b == 1)) * oracle._SINGLE_PAIR
        )
        want = (group * 32 + flags).reshape(n_classes, n_classes)
        assert np.array_equal(oracle._pair_keys(src), want)

    def test_empty_without_arrivals_or_darks(self):
        dark_link = ChannelLink(400.0, 400.0, 10.0, clock_hz=1e9, phase_slices=8)
        det = DetectorPair(0.8, 0.0)
        table = oracle._Candidates(SRC, dark_link, det)
        assert table.rate == 0.0 and table.bound.size == 0
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        parts = oracle._click_chunk(rng, 100_000, 0, table, dark_link, det, 0.0)
        assert all(p.size == 0 for p in parts)
        assert rng.bit_generator.state == state  # nothing is drawn


class TestStreaming:
    FAR_LINK = ChannelLink(
        60.0, 60.0, 0.16, clock_hz=1e9,
        phase_drift_rad_per_s=5900.0, laser_offset_hz=10.0,
        interference_error=0.04, phase_slices=8,
    )
    CASES = {
        # the pairing window spans hundreds of chunks
        "window-longer-than-chunk": (replace(SRC, pairing_window_bins=3e6), LINK, 300_000, 7_000),
        # about one click per chunk, so many chunks click not at all
        "empty-chunks": (SRC, FAR_LINK, 40_000, 50),
        "single-bin": (SRC, LINK, 1, 1_000_000),
        "four-intensity": (GOLDEN_SRC, GOLDEN_LINK, 400_000, 150_000),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_whole_run(self, monkeypatch, case, seed):
        src, link, n_bins, chunk = self.CASES[case]
        want = whole_run_simulate(src, link, DET, n_bins, seed, chunk)
        clicks = []
        inner = oracle._click_chunk

        def spy(*args):
            parts = inner(*args)
            clicks.append(parts[0].size)
            return parts

        monkeypatch.setattr(oracle, "_click_chunk", spy)
        assert simulate(src, link, DET, n_bins, seed, chunk_bins=chunk) == want
        assert len(clicks) == -(-n_bins // chunk)
        if case == "empty-chunks":
            assert 0 < clicks.count(0) < len(clicks) and want.n_pairs > 0

    def test_worker_count_does_not_matter(self, monkeypatch):
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(oracle, "_cpus", lambda: workers)
            runs.append(simulate(GOLDEN_SRC, GOLDEN_LINK, GOLDEN_DET, 400_000, seed=8, chunk_bins=30_000))
        assert runs[0] == runs[1]
        assert runs[0] == whole_run_simulate(GOLDEN_SRC, GOLDEN_LINK, GOLDEN_DET, 400_000, 8, 30_000)
