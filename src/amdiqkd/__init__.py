"""Asynchronous (mode-pairing) MDI-QKD: closed-form link simulation,
finite-key decoy-state estimation, global parameter optimization, and an
event-level Monte Carlo oracle for validating all of it."""

from .channel import ChannelLink, DetectorPair, ObservableSet, SourceConfig, expected_observables
from .decoy import DecoyEstimate, estimate, pairing_probs
from .keyrate import KeyRateReport, ProtocolVariant, evaluate, key_length, repeaterless_bound
from .optimizer import OptimResult, SearchSpace, async_search_space, optimize_link
from .oracle import OracleResult, simulate
from .stats import binary_entropy, chernoff_expected, chernoff_observed, sampling_correction

__all__ = [
    "ChannelLink",
    "DetectorPair",
    "ObservableSet",
    "SourceConfig",
    "expected_observables",
    "DecoyEstimate",
    "estimate",
    "pairing_probs",
    "KeyRateReport",
    "ProtocolVariant",
    "evaluate",
    "key_length",
    "repeaterless_bound",
    "OptimResult",
    "SearchSpace",
    "async_search_space",
    "optimize_link",
    "OracleResult",
    "simulate",
    "binary_entropy",
    "chernoff_expected",
    "chernoff_observed",
    "sampling_correction",
]

__version__ = "0.1.0"
