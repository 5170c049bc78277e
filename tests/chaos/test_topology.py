"""Failure-domain topology: construction, queries, and correlated plans."""

from __future__ import annotations

import pytest

from repro.chaos import (
    CRASH,
    RACK,
    REVIVE,
    SWITCH,
    FailureDomainTopology,
    FaultPlan,
    domain_wipe_events,
    random_plan,
)


class TestConstruction:
    def test_regular_grid(self):
        topo = FailureDomainTopology.regular(4, 2)
        assert topo.racks == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert topo.device_ids == tuple(range(8))
        assert topo.num_devices == 8

    def test_regular_with_switches_and_offset(self):
        topo = FailureDomainTopology.regular(4, 2, num_switches=2,
                                             first_device=10)
        assert topo.racks[0] == (10, 11)
        assert topo.switches == ((0, 1), (2, 3))
        assert topo.domains(SWITCH) == ((10, 11, 12, 13), (14, 15, 16, 17))

    def test_regular_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FailureDomainTopology.regular(0, 2)
        with pytest.raises(ValueError, match="evenly divide"):
            FailureDomainTopology.regular(4, 2, num_switches=3)

    def test_duplicate_device_rejected(self):
        with pytest.raises(ValueError, match="appears in racks"):
            FailureDomainTopology(((0, 1), (1, 2)))

    def test_switch_domains_must_partition_racks(self):
        with pytest.raises(ValueError, match="partition"):
            FailureDomainTopology(((0,), (1,)), switches=((0,),))
        with pytest.raises(ValueError, match="unknown rack"):
            FailureDomainTopology(((0,), (1,)), switches=((0, 7), (1,)))

    def test_empty_rack_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FailureDomainTopology(((0, 1), ()))


class TestSpec:
    def test_racks_spec(self):
        topo = FailureDomainTopology.from_spec("racks=4x8")
        assert len(topo.racks) == 4
        assert topo.blast_radius(RACK) == 8

    def test_racks_and_switches_spec(self):
        topo = FailureDomainTopology.from_spec("racks=4x2,switches=2")
        assert topo.blast_radius(SWITCH) == 4

    @pytest.mark.parametrize("spec", [
        "racks=4", "racks=ax8", "4x8", "racks=4x8,power=2", "switches=2",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FailureDomainTopology.from_spec(spec)


class TestQueries:
    def test_switch_level_degenerates_to_racks(self):
        topo = FailureDomainTopology.regular(3, 2)       # no switch domains
        assert topo.domains(SWITCH) == topo.racks
        assert topo.blast_radius(SWITCH) == topo.blast_radius(RACK)

    def test_members_bounds(self):
        topo = FailureDomainTopology.regular(2, 3)
        assert topo.members(RACK, 1) == (3, 4, 5)
        with pytest.raises(ValueError, match="no rack domain"):
            topo.members(RACK, 2)

    def test_validate_devices_reports_both_directions(self):
        topo = FailureDomainTopology.regular(2, 2)       # devices 0..3
        topo.validate_devices(range(4))
        with pytest.raises(ValueError, match="undeclared"):
            topo.validate_devices(range(5), owner="pool")
        with pytest.raises(ValueError, match="not in cluster"):
            topo.validate_devices(range(3), owner="cluster")

    def test_describe_mentions_shape_and_blast_radius(self):
        text = FailureDomainTopology.regular(4, 8, num_switches=2).describe()
        assert "4 rack(s) x 8" in text
        assert "2 switch domain(s)" in text
        assert "blast radius 16" in text


class TestDomainWipes:
    def test_wipe_events_are_atomic_and_paired(self):
        topo = FailureDomainTopology.regular(3, 2)
        events = domain_wipe_events(topo, RACK, 1, 2.0, 3.5)
        crashes = [e for e in events if e.kind == CRASH]
        revives = [e for e in events if e.kind == REVIVE]
        assert [e.device_id for e in crashes] == [2, 3]
        assert all(e.time == 2.0 for e in crashes)
        assert [e.device_id for e in revives] == [2, 3]
        assert all(e.time == 3.5 for e in revives)
        # The pair forms a valid plan on its own.
        FaultPlan.from_events(events, topology=topo, min_healthy=1)

    def test_plan_validation_enforces_min_healthy_floor(self):
        topo = FailureDomainTopology.regular(2, 2)
        events = domain_wipe_events(topo, RACK, 0, 1.0, 2.0)
        events += domain_wipe_events(topo, RACK, 1, 1.5, 2.5)  # overlap: 0 up
        with pytest.raises(ValueError, match="min_healthy"):
            FaultPlan.from_events(events, topology=topo, min_healthy=1)

    def test_describe_includes_topology(self):
        topo = FailureDomainTopology.regular(3, 2)
        plan = FaultPlan.from_events(
            domain_wipe_events(topo, RACK, 0, 1.0, 2.0),
            topology=topo, min_healthy=2)
        text = plan.describe()
        assert "3 rack(s) x 2" in text
        assert ">= 2" in text


class TestCorrelatedRandomPlans:
    def test_wipes_take_whole_domains_atomically(self):
        topo = FailureDomainTopology.regular(4, 2)
        plan = random_plan(
            seed=11, duration=60.0, devices=8, crash_rate=0.0,
            straggler_rate=0.0, topology=topo, wipe_rate=0.3)
        plan.validate()
        crashes_at = {}
        for e in plan.events:
            if e.kind == CRASH:
                crashes_at.setdefault(e.time, []).append(e.device_id)
        assert crashes_at, "wipe_rate=0.3 over 60s drew no wipes"
        for time, ids in crashes_at.items():
            rack = next(r for r in range(len(topo.racks))
                        if ids[0] in topo.members(RACK, r))
            assert sorted(ids) == list(topo.members(RACK, rack)), (
                f"wipe at t={time} is not an atomic rack: {ids}")

    def test_correlated_stragglers_cover_a_rack(self):
        topo = FailureDomainTopology.regular(3, 2)
        plan = random_plan(
            seed=5, duration=40.0, devices=6, crash_rate=0.0,
            straggler_rate=0.4, topology=topo, correlated_stragglers=True)
        plan.validate()
        starts = {}
        for e in plan.events:
            if e.kind == "straggler_start":
                starts.setdefault(e.time, []).append(e.device_id)
        assert starts, "straggler_rate=0.4 over 40s drew no windows"
        for time, ids in starts.items():
            rack = next(r for r in range(len(topo.racks))
                        if ids[0] in topo.members(RACK, r))
            assert sorted(ids) == list(topo.members(RACK, rack))

    def test_infeasible_blast_radius_rejected_up_front(self):
        topo = FailureDomainTopology.regular(1, 4)       # one rack of 4
        with pytest.raises(ValueError, match="blast radius"):
            random_plan(
                seed=0, duration=10.0, devices=4, crash_rate=0.0,
                topology=topo, wipe_rate=0.1, min_healthy=1)

    def test_correlated_modes_require_topology(self):
        with pytest.raises(ValueError, match="topology"):
            random_plan(seed=0, duration=10.0, devices=4,
                                  wipe_rate=0.1)
        with pytest.raises(ValueError, match="topology"):
            random_plan(seed=0, duration=10.0, devices=4,
                                  correlated_stragglers=True)

    def test_legacy_draws_unchanged_by_topology_declaration(self):
        # Declaring a topology without enabling any correlated mode must
        # leave the sampled plan byte-identical — the new RNG streams are
        # derived, not interleaved.
        legacy = random_plan(seed=9, duration=30.0, devices=6,
                                       crash_rate=0.2, straggler_rate=0.2,
                                       network_rate=0.1)
        topo = FailureDomainTopology.regular(3, 2)
        declared = random_plan(seed=9, duration=30.0, devices=6,
                                         crash_rate=0.2, straggler_rate=0.2,
                                         network_rate=0.1, topology=topo)
        assert legacy.events == declared.events
