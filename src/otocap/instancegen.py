"""Deterministic generation of benchmark network instances.

Seeds map to instances through a counter-based Philox generator; the
same GenSpec always reproduces the same instance bit for bit.  The
generator name and numpy version are recorded in the instance metadata
so the provenance of a saved instance is never ambiguous.

Channel models:

* ``unit`` -- every kept link has coefficient 1.
* ``rayleigh`` -- real and imaginary parts drawn i.i.d. normal with
  variance scale/2 each, so E|h|^2 = scale.
* ``los`` -- free-space line-of-sight amplitude c / (4 pi d f) with
  zero phase; distances come from an explicit matrix or from nodes
  placed on a line at ``spacing_m`` intervals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import NetworkInstance, _check_relay_count, admissible_links

__all__ = [
    "GenSpec",
    "generate",
    "platooning_instance",
    "friis_amplitude",
]

SPEED_OF_LIGHT = 299792458.0

TOPOLOGIES = ("line", "diamond", "full", "random")
CHANNELS = ("unit", "rayleigh", "los")


@dataclass(frozen=True)
class GenSpec:
    """Everything that determines a generated instance."""

    topology: str
    relays: int
    channel: str = "unit"
    power: float = 1.0
    alpha: float = 1.0
    beta: float = 0.0
    seed: int = 0
    edge_probability: float = 1.0
    scale: float = 1.0
    spacing_m: float = 10.0
    frequency_ghz: float = 60.0
    distance_matrix: tuple[tuple[float, ...], ...] | None = None


def friis_amplitude(distance_m: float, frequency_ghz: float) -> float:
    """Free-space amplitude c / (4 pi d f)."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return SPEED_OF_LIGHT / (4.0 * np.pi * distance_m * frequency_ghz * 1e9)


def _full_links(n: int) -> list[tuple[int, int]]:
    """All admissible directed links, receiver-major canonical order."""
    return [(i, j) for j, i in np.argwhere(admissible_links(n)).tolist()]


def _topology_links(spec: GenSpec, rng: np.random.Generator) -> list[tuple[int, int]]:
    n = spec.relays
    if spec.topology == "line":
        return [(i, i + 1) for i in range(n + 1)]
    if spec.topology == "diamond":
        if n != 2:
            raise ValueError(f"diamond topology requires exactly 2 relays, got {n}")
        return [(0, 1), (0, 2), (1, 3), (2, 3)]
    if spec.topology == "full":
        return _full_links(n)
    # "random": generate has checked the name against TOPOLOGIES
    candidates = _full_links(n)
    keep = rng.random(len(candidates)) < spec.edge_probability
    return [e for e, k in zip(candidates, keep) if k]


def _link_distance(spec: GenSpec, i: int, j: int) -> float:
    if spec.distance_matrix is not None:
        return float(spec.distance_matrix[i][j])
    return spec.spacing_m * abs(i - j)


def _gains(
    spec: GenSpec, links: list[tuple[int, int]], rng: np.random.Generator
) -> dict[tuple[int, int], complex]:
    if spec.channel == "unit":
        return {e: 1.0 + 0.0j for e in links}
    if spec.channel == "rayleigh":
        draws = rng.normal(0.0, np.sqrt(spec.scale / 2.0), size=(len(links), 2))
        return {e: complex(re, im) for e, (re, im) in zip(links, draws)}
    # "los": generate has checked the name against CHANNELS
    return {
        (i, j): complex(friis_amplitude(_link_distance(spec, i, j), spec.frequency_ghz))
        for i, j in links
    }


def generate(spec: GenSpec) -> NetworkInstance:
    """Produce the instance a GenSpec describes, deterministically.

    The random stream is consumed in a fixed order (topology keep
    decisions over the canonical link list first, then channel draws per
    kept link), so adding links never reshuffles unrelated draws.
    Raises ValueError for a spec outside the generator's ranges, or with
    the ``NetworkInstance`` constructor's text when the instance would be
    invalid.
    """
    if spec.topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {spec.topology!r}")
    if spec.channel not in CHANNELS:
        raise ValueError(f"unknown channel model {spec.channel!r}")
    _check_relay_count(spec.relays)
    if not 0.0 <= spec.edge_probability <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    if spec.scale <= 0:
        raise ValueError("rayleigh scale must be positive")

    rng = np.random.Generator(np.random.Philox(spec.seed))
    links = _topology_links(spec, rng)
    gains = _gains(spec, links, rng)

    meta = {
        "generator": {
            k: v for k, v in asdict(spec).items() if v is not None
        },
        "rng": "numpy.random.Philox",
        "numpy_version": np.__version__,
    }
    return NetworkInstance.from_links(
        spec.relays, gains, spec.power, spec.alpha, spec.beta, metadata=meta
    )


def platooning_instance(
    n_relays: int,
    snr: float = 100.0,
    spacing_m: float = 10.0,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> NetworkInstance:
    """Line network at the 60 GHz vehicle-platooning operating point.

    Hop amplitudes follow the free-space formula at 10 m spacing, which
    at 60 GHz gives |h| of order 1e-4.  The transmit power is calibrated
    so that the per-hop receive SNR is ``snr * 1e-4`` -- at the nominal
    snr=100 that is P|h|^2 = 1e-2, the regime where treating side lobes
    as noise costs less than one bit per relay even at beta = 1.
    Equivalently: a transmit-to-noise-floor ratio near 68 dB, about
    10 dBm through a 1 GHz thermal noise floor with a 10 dB noise
    figure.
    """
    n_relays = _check_relay_count(n_relays)
    if snr <= 0:
        raise ValueError("snr must be positive")
    amp = friis_amplitude(spacing_m, 60.0)
    power = snr * 1e-4 / amp**2
    links = {(i, i + 1): complex(amp) for i in range(n_relays + 1)}
    meta = {
        "generator": {
            "topology": "line",
            "channel": "los",
            "snr": snr,
            "spacing_m": spacing_m,
            "frequency_ghz": 60.0,
        },
        "power_calibration": "power chosen so per-hop P|h|^2 = snr * 1e-4",
    }
    return NetworkInstance.from_links(
        n_relays, links, power, alpha, beta, metadata=meta
    )
