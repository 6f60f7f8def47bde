"""Tests and property checks for the Keff coupling model."""

import pytest

from repro.noise.keff import (
    DEFAULT_KEFF_MODEL,
    KeffModel,
    PanelOccupant,
    capacitive_violations,
    coupling_coefficient,
    panel_couplings,
    total_coupling,
)


class TestCouplingCoefficient:
    def test_decreases_with_distance(self):
        near = coupling_coefficient(distance=1, shields_between=0)
        far = coupling_coefficient(distance=5, shields_between=0)
        assert near > far > 0.0

    def test_shield_attenuates(self):
        bare = coupling_coefficient(distance=3, shields_between=0)
        one = coupling_coefficient(distance=3, shields_between=1)
        two = coupling_coefficient(distance=3, shields_between=2)
        assert bare > one > two
        assert one == pytest.approx(bare / DEFAULT_KEFF_MODEL.shield_attenuation)

    def test_adjacent_shield_bonus(self):
        without = coupling_coefficient(distance=2, shields_between=0, victim_has_adjacent_shield=False)
        with_shield = coupling_coefficient(distance=2, shields_between=0, victim_has_adjacent_shield=True)
        assert with_shield < without

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            coupling_coefficient(distance=0, shields_between=0)
        with pytest.raises(ValueError):
            coupling_coefficient(distance=1, shields_between=-1)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            KeffModel(shield_attenuation=1.0)
        with pytest.raises(ValueError):
            KeffModel(adjacent_shield_bonus=0.5)
        with pytest.raises(ValueError):
            KeffModel(distance_exponent=0.0)


class TestTotalCoupling:
    def test_sums_over_sensitive_aggressors_only(self):
        occupants = [
            PanelOccupant(track=0, net_id=10),
            PanelOccupant(track=1, net_id=11),
            PanelOccupant(track=2, net_id=12),
        ]
        victim = occupants[1]
        only_one = total_coupling(victim, occupants, aggressor_net_ids={10})
        both = total_coupling(victim, occupants, aggressor_net_ids={10, 12})
        assert both == pytest.approx(2.0 * only_one)

    def test_shield_between_reduces(self):
        bare = [
            PanelOccupant(track=0, net_id=1),
            PanelOccupant(track=2, net_id=2),
        ]
        shielded = [
            PanelOccupant(track=0, net_id=1),
            PanelOccupant(track=1, net_id=None),
            PanelOccupant(track=2, net_id=2),
        ]
        bare_k = total_coupling(bare[1], bare, {1})
        shielded_k = total_coupling(shielded[2], shielded, {1})
        assert shielded_k < bare_k

    def test_victim_must_be_signal(self):
        occupants = [PanelOccupant(track=0, net_id=None), PanelOccupant(track=1, net_id=1)]
        with pytest.raises(ValueError):
            total_coupling(occupants[0], occupants, {1})

    def test_duplicate_tracks_rejected(self):
        occupants = [PanelOccupant(track=0, net_id=1), PanelOccupant(track=0, net_id=2)]
        with pytest.raises(ValueError):
            total_coupling(occupants[0], occupants, {2})

    def test_negative_track_rejected(self):
        with pytest.raises(ValueError):
            PanelOccupant(track=-1, net_id=1)


class TestPanelCouplings:
    def test_symmetric_two_net_panel(self):
        occupants = [PanelOccupant(track=0, net_id=1), PanelOccupant(track=1, net_id=2)]
        sensitivity = {1: {2}, 2: {1}}
        couplings = panel_couplings(occupants, sensitivity)
        assert couplings[1] == pytest.approx(couplings[2])
        assert couplings[1] == pytest.approx(1.0)

    def test_insensitive_nets_have_zero_coupling(self):
        occupants = [PanelOccupant(track=0, net_id=1), PanelOccupant(track=1, net_id=2)]
        couplings = panel_couplings(occupants, {})
        assert couplings[1] == pytest.approx(0.0)
        assert couplings[2] == pytest.approx(0.0)

    def test_shields_have_no_entry(self):
        occupants = [PanelOccupant(track=0, net_id=1), PanelOccupant(track=1, net_id=None)]
        couplings = panel_couplings(occupants, {})
        assert set(couplings) == {1}


class TestCapacitiveViolations:
    def test_adjacent_sensitive_pair_detected(self):
        occupants = [PanelOccupant(track=0, net_id=1), PanelOccupant(track=1, net_id=2)]
        assert capacitive_violations(occupants, {1: {2}}) == [(1, 2)]

    def test_shield_breaks_adjacency(self):
        occupants = [
            PanelOccupant(track=0, net_id=1),
            PanelOccupant(track=1, net_id=None),
            PanelOccupant(track=2, net_id=2),
        ]
        assert capacitive_violations(occupants, {1: {2}}) == []

    def test_gap_breaks_adjacency(self):
        occupants = [PanelOccupant(track=0, net_id=1), PanelOccupant(track=2, net_id=2)]
        assert capacitive_violations(occupants, {1: {2}}) == []

    def test_insensitive_adjacency_is_fine(self):
        occupants = [PanelOccupant(track=0, net_id=1), PanelOccupant(track=1, net_id=2)]
        assert capacitive_violations(occupants, {}) == []
