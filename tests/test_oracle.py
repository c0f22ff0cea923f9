import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdiqkd.channel import (
    ChannelLink,
    DetectorPair,
    SourceConfig,
    expected_observables,
    pair_gain_phase,
)
from amdiqkd.decoy import estimate, pairing_probs, xbasis_vacuum_errors_lower, z_key_groups
from amdiqkd.oracle import (
    LayerPosterior,
    GroupTruth,
    _pair_scan,
    pattern_given_arrived,
    simulate,
)

# a bright, short-reach configuration keeps counts healthy at small n_bins
DET = DetectorPair(0.8, 1e5)
LINK = ChannelLink(
    10.0, 15.0, 0.16, clock_hz=1e9,
    phase_drift_rad_per_s=5900.0, laser_offset_hz=10.0,
    interference_error=0.04, pairing_window_bins=2000.0, phase_slices=8,
)
SRC = SourceConfig.from_params(
    mu_a=0.5, nu_a=0.15, p_mu_a=0.35, p_nu_a=0.35,
    mu_b=0.45, nu_b=0.12, p_mu_b=0.35, p_nu_b=0.35,
    click_filtering=True,
)


@pytest.fixture(scope="module")
def run():
    return simulate(SRC, LINK, DET, 2_000_000, seed=11)


class TestInterferenceEngine:
    def test_single_photon_pair_anticorrelated(self):
        # matched phases: a lone photon pair never splits the wrong way
        assert pattern_given_arrived(1, 1, False, 0, 0, 1.0, 0.0) == pytest.approx(0.25)
        assert pattern_given_arrived(1, 1, False, 0, 1, 1.0, 0.0) == 0.0
        assert pattern_given_arrived(1, 1, True, 0, 0, 1.0, 0.0) == 0.0
        assert pattern_given_arrived(1, 1, True, 0, 1, 1.0, 0.0) == pytest.approx(0.25)

    def test_one_sided_photons_uncorrelated(self):
        # with one party dark the detector choice is a fair coin in each bin
        same = pattern_given_arrived(0, 2, False, 0, 0, 1.0, 0.0)
        diff = pattern_given_arrived(0, 2, False, 0, 1, 1.0, 0.0)
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
                        * pattern_given_arrived(na, nb, parity, d_e, d_l, DET.eta_d, p_d)
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
        src = SourceConfig.from_params(
            mu_a=1e-3, nu_a=1e-4, p_mu_a=0.3, p_nu_a=0.3,
            mu_b=1e-3, nu_b=1e-4, p_mu_b=0.3, p_nu_b=0.3,
        )
        res = simulate(src, ChannelLink(400.0, 400.0, 0.16, clock_hz=1e9, phase_slices=8),
                       silent, 200_000, seed=3)
        assert res.n_clicks == 0 and res.n_pairs == 0

    @pytest.mark.parametrize("n_bins", [0, -5])
    def test_rejects_empty_run(self, n_bins):
        with pytest.raises(ValueError, match="n_bins"):
            simulate(SRC, LINK, DET, n_bins, seed=1)

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
            got = pattern_given_arrived(n_a, n_b, matched_pi, d_e, d_l, eta_d, p_d)
            want = dict_pattern(n_a, n_b, matched_pi, d_e, d_l, eta_d, p_d)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


# four labels and a chunk size that does not divide the run; the expected
# values come from the implementation that made every Poisson and binomial
# draw for every bin, so they also pin that zero-mean and zero-trial draws
# consume no random numbers
GOLDEN_DET = DetectorPair(0.8, 1e5)
GOLDEN_LINK = ChannelLink(
    15.0, 15.0, 0.16, clock_hz=1e9,
    phase_drift_rad_per_s=5900.0, laser_offset_hz=10.0,
    interference_error=0.04, pairing_window_bins=2000.0, phase_slices=8,
)
GOLDEN_SRC = SourceConfig.from_params(
    mu_a=0.6, nu_a=0.12, p_mu_a=0.3, p_nu_a=0.3,
    mu_b=0.5, nu_b=0.15, p_mu_b=0.3, p_nu_b=0.35,
    omega_a=0.3, p_omega_a=0.15, omega_b=0.25, p_omega_b=0.15,
    click_filtering=True,
)
GOLDEN_COUNTS = {
    (("mu", "mu"), ("mu", "mu")): 589, (("mu", "mu"), ("mu", "o")): 1874,
    (("mu", "mu"), ("o", "o")): 417, (("mu", "omega"), ("mu", "omega")): 696,
    (("mu", "omega"), ("mu", "o")): 514, (("mu", "omega"), ("omega", "o")): 275,
    (("mu", "omega"), ("o", "o")): 179, (("mu", "nu"), ("mu", "nu")): 1674,
    (("mu", "nu"), ("mu", "o")): 457, (("mu", "nu"), ("nu", "o")): 673,
    (("mu", "nu"), ("o", "o")): 193, (("mu", "o"), ("mu", "mu")): 2086,
    (("mu", "o"), ("mu", "omega")): 523, (("mu", "o"), ("mu", "nu")): 780,
    (("mu", "o"), ("mu", "o")): 775, (("mu", "o"), ("omega", "o")): 210,
    (("mu", "o"), ("nu", "o")): 341, (("mu", "o"), ("o", "o")): 1,
    (("omega", "omega"), ("omega", "omega")): 16, (("omega", "omega"), ("omega", "o")): 82,
    (("omega", "omega"), ("o", "o")): 31, (("omega", "nu"), ("omega", "nu")): 247,
    (("omega", "nu"), ("omega", "o")): 79, (("omega", "nu"), ("nu", "o")): 187,
    (("omega", "nu"), ("o", "o")): 38, (("omega", "o"), ("mu", "omega")): 291,
    (("omega", "o"), ("mu", "o")): 217, (("omega", "o"), ("omega", "omega")): 68,
    (("omega", "o"), ("omega", "nu")): 123, (("omega", "o"), ("omega", "o")): 66,
    (("omega", "o"), ("nu", "o")): 89, (("nu", "nu"), ("nu", "nu")): 82,
    (("nu", "nu"), ("nu", "o")): 172, (("nu", "nu"), ("o", "o")): 35,
    (("nu", "o"), ("mu", "nu")): 724, (("nu", "o"), ("mu", "o")): 185,
    (("nu", "o"), ("omega", "nu")): 215, (("nu", "o"), ("omega", "o")): 57,
    (("nu", "o"), ("nu", "nu")): 304, (("nu", "o"), ("nu", "o")): 69,
    (("o", "o"), ("mu", "mu")): 468, (("o", "o"), ("mu", "omega")): 252,
    (("o", "o"), ("mu", "nu")): 352, (("o", "o"), ("mu", "o")): 1,
    (("o", "o"), ("omega", "omega")): 31, (("o", "o"), ("omega", "nu")): 98,
    (("o", "o"), ("nu", "nu")): 80,
}
# (count, errors, a_vacuum, b_vacuum, single_photon_pairs, single_photon_errors)
GOLDEN_Z_TRUTH = {
    (("mu", "o"), ("mu", "o")): (775, 0, 2, 1, 360, 0),
    (("mu", "o"), ("omega", "o")): (210, 0, 0, 2, 108, 0),
    (("mu", "o"), ("nu", "o")): (341, 0, 0, 2, 214, 0),
    (("omega", "o"), ("mu", "o")): (217, 0, 0, 0, 129, 0),
    (("omega", "o"), ("omega", "o")): (66, 0, 0, 0, 45, 0),
    (("omega", "o"), ("nu", "o")): (89, 0, 0, 1, 62, 0),
    (("nu", "o"), ("mu", "o")): (185, 0, 0, 0, 120, 0),
    (("nu", "o"), ("omega", "o")): (57, 0, 0, 0, 41, 0),
    (("nu", "o"), ("nu", "o")): (69, 0, 0, 0, 63, 0),
}


def test_random_stream_is_pinned():
    res = simulate(GOLDEN_SRC, GOLDEN_LINK, GOLDEN_DET, 400_000, seed=21, chunk_bins=150_000)
    assert (res.n_clicks, res.n_pairs) == (37956, 18978)
    assert {k: v for k, v in res.counts.items() if v} == GOLDEN_COUNTS
    assert (res.m_x, res.x_matched) == (26, 82)
    assert res.x_truth == GroupTruth(
        count=82, errors=26, single_photon_pairs=28, single_photon_errors=1
    )
    assert (res.x_vacuum, res.x_vacuum_errors) == (38, 22)
    assert {k: tuple(vars(g).values()) for k, g in res.z_truth.items()} == GOLDEN_Z_TRUTH
