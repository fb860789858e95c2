"""Deterministic instance generation and the platooning benchmark."""

import math

import numpy as np
import pytest

import otocap as oc
from conftest import state_effective_channel  # noqa: F401  (shared conftest import path)


def nonzero_links(inst):
    return {
        (i, j)
        for j in range(1, inst.num_relays + 2)
        for i in range(inst.num_relays + 1)
        if inst.channel[j, i] != 0
    }


def test_generation_is_bit_identical():
    spec = oc.GenSpec(topology="random", relays=3, channel="rayleigh",
                      edge_probability=0.7, seed=42, scale=1.5, beta=0.2)
    a, b = oc.generate(spec), oc.generate(spec)
    assert np.array_equal(a.channel, b.channel)
    assert a.metadata == b.metadata
    c = oc.generate(oc.GenSpec(**{**spec.__dict__, "seed": 43}))
    assert not np.array_equal(a.channel, c.channel)


def test_line_topology_links():
    inst = oc.generate(oc.GenSpec(topology="line", relays=3))
    assert nonzero_links(inst) == {(0, 1), (1, 2), (2, 3), (3, 4)}


def test_diamond_topology_links():
    inst = oc.generate(oc.GenSpec(topology="diamond", relays=2))
    assert nonzero_links(inst) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    with pytest.raises(ValueError, match="diamond"):
        oc.generate(oc.GenSpec(topology="diamond", relays=3))


def test_full_topology_links():
    inst = oc.generate(oc.GenSpec(topology="full", relays=2))
    expected = {
        (i, j) for j in (1, 2, 3) for i in (0, 1, 2) if i != j
    }
    assert nonzero_links(inst) == expected


def test_random_probability_extremes():
    empty = oc.generate(oc.GenSpec(topology="random", relays=2,
                                   edge_probability=0.0, seed=1))
    assert nonzero_links(empty) == set()

    dense = oc.generate(oc.GenSpec(topology="random", relays=3,
                                   edge_probability=1.0, seed=5))
    full = oc.generate(oc.GenSpec(topology="full", relays=3, seed=5))
    assert np.array_equal(dense.channel, full.channel)


def test_random_subset_of_full():
    spec = oc.GenSpec(topology="random", relays=3, channel="rayleigh",
                      edge_probability=0.5, seed=9)
    inst = oc.generate(spec)
    full = oc.generate(oc.GenSpec(topology="full", relays=3))
    assert nonzero_links(inst) <= nonzero_links(full)


def test_unit_channel_gains():
    inst = oc.generate(oc.GenSpec(topology="full", relays=2, channel="unit"))
    for (i, j) in nonzero_links(inst):
        assert inst.channel[j, i] == 1.0 + 0.0j


def test_rayleigh_mean_square_matches_scale():
    total = 0.0
    for seed in range(10000):
        inst = oc.generate(oc.GenSpec(topology="line", relays=0,
                                      channel="rayleigh", scale=2.0, seed=seed))
        total += abs(inst.channel[1, 0]) ** 2
    mean = total / 10000
    assert abs(mean - 2.0) / 2.0 < 0.05


def test_friis_amplitude_hand_value():
    amp = oc.friis_amplitude(10.0, 60.0)
    assert math.isclose(amp, 299792458.0 / (4 * math.pi * 10.0 * 60e9),
                        rel_tol=1e-12)
    assert math.isclose(oc.friis_amplitude(20.0, 60.0), amp / 2.0, rel_tol=1e-12)
    assert oc.friis_amplitude(10.0, 120.0) < amp
    with pytest.raises(ValueError):
        oc.friis_amplitude(0.0, 60.0)
    with pytest.raises(ValueError):
        oc.friis_amplitude(-1.0, 60.0)


def test_los_channel_uses_distances():
    inst = oc.generate(oc.GenSpec(topology="line", relays=1, channel="los",
                                  spacing_m=10.0, frequency_ghz=60.0))
    amp = oc.friis_amplitude(10.0, 60.0)
    assert math.isclose(abs(inst.channel[1, 0]), amp, rel_tol=1e-12)
    assert math.isclose(abs(inst.channel[2, 1]), amp, rel_tol=1e-12)

    dm = ((0.0, 10.0, 30.0), (10.0, 0.0, 20.0), (30.0, 20.0, 0.0))
    custom = oc.generate(oc.GenSpec(topology="line", relays=1, channel="los",
                                    distance_matrix=dm))
    assert math.isclose(abs(custom.channel[2, 1]),
                        oc.friis_amplitude(20.0, 60.0), rel_tol=1e-12)


def test_generation_metadata_records_provenance():
    inst = oc.generate(oc.GenSpec(topology="line", relays=1, seed=7))
    assert inst.metadata["rng"] == "numpy.random.Philox"
    assert inst.metadata["numpy_version"] == np.__version__
    assert inst.metadata["generator"]["seed"] == 7
    assert inst.metadata["generator"]["topology"] == "line"


def test_bad_spec_rejected():
    with pytest.raises(ValueError, match="topology"):
        oc.generate(oc.GenSpec(topology="ring", relays=2))
    with pytest.raises(ValueError, match="channel"):
        oc.generate(oc.GenSpec(topology="line", relays=2, channel="rician"))
    with pytest.raises(ValueError):
        oc.generate(oc.GenSpec(topology="line", relays=-1))
    with pytest.raises(ValueError):
        oc.generate(oc.GenSpec(topology="random", relays=2, edge_probability=1.5))
    with pytest.raises(ValueError):
        oc.generate(oc.GenSpec(topology="line", relays=2, channel="rayleigh",
                               scale=0.0))


@pytest.mark.parametrize("relays", [1.5, 1001, -1, "2"])
def test_bad_relay_count_raises_the_documented_value_error(relays):
    text = f"num_relays must be in [0, 1000], got {relays}"
    with pytest.raises(ValueError) as exc:
        oc.generate(oc.GenSpec(topology="line", relays=relays))
    assert str(exc.value) == text
    with pytest.raises(ValueError) as exc:
        oc.platooning_instance(relays)
    assert str(exc.value) == text
    # numpy integers are integers
    assert oc.platooning_instance(np.int64(2)).num_relays == 2


def test_platooning_operating_point():
    inst = oc.platooning_instance(3)
    assert nonzero_links(inst) == {(0, 1), (1, 2), (2, 3), (3, 4)}
    amp = abs(inst.channel[1, 0])
    assert math.isclose(amp, oc.friis_amplitude(10.0, 60.0), rel_tol=1e-12)
    snr_per_hop = inst.power * amp**2
    assert math.isclose(snr_per_hop, 1e-2, rel_tol=1e-12)
    assert 1e-3 <= snr_per_hop <= 1e-1
    assert inst.alpha == 1.0 and inst.beta == 1.0


def test_platooning_snr_scaling():
    lo = oc.platooning_instance(2, snr=10.0)
    hi = oc.platooning_instance(2, snr=1000.0)
    assert math.isclose(hi.power / lo.power, 100.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        oc.platooning_instance(2, snr=0.0)


def test_platooning_side_lobe_cost_is_small():
    inst = oc.platooning_instance(3)
    report = oc.verify_instance(inst)
    rates = oc.link_rates(inst)
    assert max(rates.leakage.values()) <= 1.0
    n = inst.num_relays
    delta = oc.max_degree(inst)
    assert report.tsn_gap_bound <= n * (math.log2(delta) + 1.0) + 1e-12
    assert report.tsn_gap <= report.tsn_gap_bound + 1e-6
