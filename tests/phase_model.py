"""The phase-resolved click model that the closed forms of
:mod:`amdiqkd.channel` average over the interference phase: the reference of
the phase averages in ``test_channel.py`` and ``test_oracle.py``."""

import math

import numpy as np

from amdiqkd.channel import ChannelLink, DetectorPair


def click_given_means(mean_l, mean_r, p_d):
    """Single-click probabilities for given mean detected photon numbers."""
    silent_l = (1.0 - p_d) * np.exp(-mean_l)
    silent_r = (1.0 - p_d) * np.exp(-mean_r)
    q_l = (1.0 - silent_l) * silent_r
    q_r = silent_l * (1.0 - silent_r)
    return q_l, q_r


def pair_gain_phase(
    k_a: float, k_b: float, theta, link: ChannelLink, det: DetectorPair
) -> tuple[float, float]:
    """Left/right single-click probabilities at interference phase ``theta``.

    The two output ports see mean detected photon numbers
    eta_d * [ (eta_a k_a + eta_b k_b)/2 +- sqrt(eta_a k_a eta_b k_b) cos(theta) ].
    Accepts a scalar or an ndarray of phases.
    """
    if k_a < 0.0 or k_b < 0.0:
        raise ValueError("intensities must be >= 0")
    s = 0.5 * (link.eta_a * k_a + link.eta_b * k_b)
    c = math.sqrt(link.eta_a * k_a * link.eta_b * k_b)
    p_d = det.dark_prob(link.clock_hz)
    cos_t = np.cos(theta)
    return click_given_means(det.eta_d * (s + c * cos_t), det.eta_d * (s - c * cos_t), p_d)
