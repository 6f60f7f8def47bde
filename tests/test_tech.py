"""Tests for the technology node descriptions and parasitic extraction."""


import pytest

from repro.tech.driver import DriverModel, ReceiverModel, UniformInterfaceModel
from repro.tech.itrs import ITRS_100NM, ITRS_130NM, ITRS_70NM, get_technology
from repro.tech.parasitics import (
    WireGeometry,
    coupling_capacitance_per_meter,
    extract_parasitics,
    ground_capacitance_per_meter,
    inductive_coupling_ratio,
    mutual_inductance_per_meter,
    self_inductance_per_meter,
    wire_resistance_per_meter,
)


class TestTechnologyNodes:
    def test_paper_node_parameters(self):
        assert ITRS_100NM.vdd == pytest.approx(1.05)
        assert ITRS_100NM.clock_ghz == pytest.approx(3.0)
        assert ITRS_100NM.feature_size == pytest.approx(0.10e-6)

    def test_default_crosstalk_bound_is_fifteen_percent_of_vdd(self):
        bound = ITRS_100NM.default_crosstalk_bound()
        assert bound == pytest.approx(0.15, abs=1e-6)
        assert bound / ITRS_100NM.vdd == pytest.approx(0.1428, abs=1e-3)

    def test_noise_table_window_matches_paper(self):
        assert ITRS_100NM.crosstalk_noise_floor == pytest.approx(0.10, abs=1e-6)
        assert ITRS_100NM.crosstalk_noise_ceiling == pytest.approx(0.20, abs=1e-6)

    def test_clock_period_and_rise_time(self):
        assert ITRS_100NM.clock_period == pytest.approx(1.0 / 3.0e9)
        assert ITRS_100NM.rise_time == pytest.approx(0.1 * ITRS_100NM.clock_period)

    def test_track_pitch_is_width_plus_spacing(self):
        assert ITRS_100NM.track_pitch == pytest.approx(
            ITRS_100NM.wire_width + ITRS_100NM.wire_spacing
        )

    def test_lookup_by_name_and_alias(self):
        assert get_technology("itrs-0.10um") is ITRS_100NM
        assert get_technology("100nm") is ITRS_100NM
        assert get_technology("0.13um") is ITRS_130NM
        assert get_technology("70NM") is ITRS_70NM

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            get_technology("45nm")

    def test_scaled_copy_changes_only_requested_fields(self):
        stronger = ITRS_100NM.scaled(driver_resistance=15.0)
        assert stronger.driver_resistance == pytest.approx(15.0)
        assert stronger.wire_width == ITRS_100NM.wire_width
        assert stronger.name == ITRS_100NM.name

    def test_nodes_are_physically_ordered(self):
        # Smaller nodes have smaller wires and lower supply.
        assert ITRS_70NM.wire_width < ITRS_100NM.wire_width < ITRS_130NM.wire_width
        assert ITRS_70NM.vdd < ITRS_100NM.vdd < ITRS_130NM.vdd


class TestWireGeometry:
    def test_from_technology(self):
        geometry = WireGeometry.from_technology(ITRS_100NM, length=1e-3)
        assert geometry.width == ITRS_100NM.wire_width
        assert geometry.length == pytest.approx(1e-3)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            WireGeometry(width=0.0, spacing=1e-6, thickness=1e-6, height=1e-6, length=1e-3)
        with pytest.raises(ValueError):
            WireGeometry(width=1e-6, spacing=1e-6, thickness=1e-6, height=1e-6, length=-1.0)


class TestParasitics:
    def test_resistance_scales_inversely_with_cross_section(self):
        narrow = WireGeometry(width=0.25e-6, spacing=0.5e-6, thickness=1e-6, height=0.8e-6, length=1e-3)
        wide = WireGeometry(width=0.5e-6, spacing=0.5e-6, thickness=1e-6, height=0.8e-6, length=1e-3)
        r_narrow = wire_resistance_per_meter(narrow, ITRS_100NM.resistivity)
        r_wide = wire_resistance_per_meter(wide, ITRS_100NM.resistivity)
        assert r_narrow == pytest.approx(2.0 * r_wide, rel=1e-9)

    def test_ground_capacitance_grows_with_width(self):
        narrow = WireGeometry(width=0.3e-6, spacing=0.5e-6, thickness=1e-6, height=0.8e-6, length=1e-3)
        wide = WireGeometry(width=0.9e-6, spacing=0.5e-6, thickness=1e-6, height=0.8e-6, length=1e-3)
        assert ground_capacitance_per_meter(wide, 2.8) > ground_capacitance_per_meter(narrow, 2.8)

    def test_coupling_capacitance_decreases_with_spacing(self):
        tight = WireGeometry(width=0.5e-6, spacing=0.3e-6, thickness=1e-6, height=0.8e-6, length=1e-3)
        loose = WireGeometry(width=0.5e-6, spacing=1.2e-6, thickness=1e-6, height=0.8e-6, length=1e-3)
        assert coupling_capacitance_per_meter(tight, 2.8) > coupling_capacitance_per_meter(loose, 2.8)

    def test_self_inductance_positive_and_grows_with_length(self):
        short = WireGeometry.from_technology(ITRS_100NM, length=0.5e-3)
        long = WireGeometry.from_technology(ITRS_100NM, length=4e-3)
        assert self_inductance_per_meter(short) > 0.0
        assert self_inductance_per_meter(long) > self_inductance_per_meter(short)

    def test_mutual_inductance_decays_slowly_with_distance(self):
        geometry = WireGeometry.from_technology(ITRS_100NM, length=2e-3)
        near = mutual_inductance_per_meter(geometry, centre_distance=1e-6)
        far = mutual_inductance_per_meter(geometry, centre_distance=10e-6)
        assert near > far > 0.0
        # Logarithmic decay: a 10x distance increase loses far less than 10x coupling.
        assert far > near / 10.0

    def test_mutual_inductance_rejects_non_positive_distance(self):
        geometry = WireGeometry.from_technology(ITRS_100NM, length=2e-3)
        with pytest.raises(ValueError):
            mutual_inductance_per_meter(geometry, centre_distance=0.0)

    def test_extract_parasitics_bundle(self):
        parasitics = extract_parasitics(ITRS_100NM, length=1e-3)
        assert parasitics.resistance > 0
        assert parasitics.ground_capacitance > 0
        assert parasitics.coupling_capacitance > 0
        assert parasitics.self_inductance > parasitics.mutual_inductance > 0

    def test_extract_parasitics_far_neighbour_couples_less(self):
        adjacent = extract_parasitics(ITRS_100NM, length=1e-3, neighbour_tracks=1)
        distant = extract_parasitics(ITRS_100NM, length=1e-3, neighbour_tracks=4)
        assert distant.coupling_capacitance < adjacent.coupling_capacitance
        assert distant.mutual_inductance < adjacent.mutual_inductance

    def test_extract_parasitics_rejects_bad_neighbour(self):
        with pytest.raises(ValueError):
            extract_parasitics(ITRS_100NM, length=1e-3, neighbour_tracks=0)

    def test_capacitive_screening_faster_than_inductive(self):
        """The core physical motivation of the paper: Cc screens quickly, M does not."""
        near = extract_parasitics(ITRS_100NM, length=2e-3, neighbour_tracks=1)
        far = extract_parasitics(ITRS_100NM, length=2e-3, neighbour_tracks=5)
        cc_ratio = far.coupling_capacitance / near.coupling_capacitance
        m_ratio = far.mutual_inductance / near.mutual_inductance
        assert m_ratio > cc_ratio

    def test_inductive_coupling_ratio_bounded(self):
        ratio = inductive_coupling_ratio(ITRS_100NM, length=2e-3, neighbour_tracks=1)
        assert 0.0 < ratio < 1.0

    def test_scaled_to_length(self):
        parasitics = extract_parasitics(ITRS_100NM, length=1e-3)
        lumped = parasitics.scaled_to_length(2e-3)
        assert lumped.resistance == pytest.approx(parasitics.resistance * 2e-3)
        with pytest.raises(ValueError):
            parasitics.scaled_to_length(0.0)


class TestDriverReceiver:
    def test_interface_from_technology(self, interface_model):
        assert interface_model.driver.resistance == pytest.approx(ITRS_100NM.driver_resistance)
        assert interface_model.driver.vdd == pytest.approx(ITRS_100NM.vdd)
        assert interface_model.receiver.capacitance == pytest.approx(ITRS_100NM.load_capacitance)

    def test_invalid_driver_parameters(self):
        with pytest.raises(ValueError):
            DriverModel(resistance=-1.0, rise_time=1e-11, vdd=1.0)
        with pytest.raises(ValueError):
            DriverModel(resistance=30.0, rise_time=0.0, vdd=1.0)
        with pytest.raises(ValueError):
            ReceiverModel(capacitance=0.0)

    def test_cache_key_distinguishes_interfaces(self, interface_model):
        other = UniformInterfaceModel(
            driver=DriverModel(resistance=60.0, rise_time=interface_model.driver.rise_time, vdd=1.05),
            receiver=interface_model.receiver,
        )
        assert interface_model.cache_key() != other.cache_key()
        assert interface_model.cache_key() == UniformInterfaceModel.from_technology(ITRS_100NM).cache_key()
