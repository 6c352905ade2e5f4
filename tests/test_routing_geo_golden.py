"""Golden tests of the greedy-geo backend on hand-checked topologies."""

from __future__ import annotations

import pytest

from repro.logs.records import LogCategory
from repro.routing.geo import GeoConfig, GreedyGeoNode
from tests.conftest import CHAIN_POSITIONS, make_network

#: Beacons go out every 2 s (plus jitter); 8 s covers several rounds.
BEACON_TIME = 8.0

#: A "void" topology: S's only neighbour U is *farther* from the target T
#: than S itself, so greedy forwarding dead-ends at S and must fall back to
#: the perimeter stub; from U onward greedy progress resumes via V.
#: Distances (range 250): S-U 200, U-V 200, V-T ~236; S-T 340 (out of range),
#: U-T ~389 > S-T 340 (no greedy progress at S).
VOID_POSITIONS = {
    "S": (0.0, 0.0),
    "U": (0.0, 200.0),
    "V": (200.0, 200.0),
    "T": (340.0, 10.0),
}


def make_geo_network(positions, radio_range: float = 250.0, seed: int = 0,
                     config: GeoConfig | None = None):
    """Build a network plus one started greedy-geo node per position."""
    network = make_network(positions, radio_range=radio_range, seed=seed)
    nodes = {}
    for index, node_id in enumerate(positions):
        nodes[node_id] = GreedyGeoNode(node_id, network, config=config,
                                       seed=seed + index)
    for node in nodes.values():
        node.start()
    return network, nodes


@pytest.fixture
def geo_chain():
    """The 4-node chain A - B - C - D with started greedy-geo nodes."""
    return make_geo_network(CHAIN_POSITIONS)


def test_beacons_build_neighbor_position_tables(geo_chain):
    network, nodes = geo_chain
    network.run(until=BEACON_TIME)
    assert nodes["A"].symmetric_neighbors() == {"B"}
    assert nodes["B"].symmetric_neighbors() == {"A", "C"}
    position, _expiry = nodes["B"].neighbor_positions["C"]
    assert position == CHAIN_POSITIONS["C"]


def test_greedy_progress_along_chain(geo_chain):
    network, nodes = geo_chain
    network.run(until=BEACON_TIME)
    # B is A's only neighbour and strictly closer to D: pure greedy, no
    # fallback.
    assert nodes["A"].next_hop("D") == "B"
    assert nodes["B"].next_hop("D") == "C"

    delivered = []
    nodes["D"].data_handlers.append(
        lambda packet, last_hop: delivered.append((packet.payload, packet.hops)))
    assert nodes["A"].send_data("D", "geo-ping") is True
    network.run(until=BEACON_TIME + 2.0)
    assert delivered == [("geo-ping", ["A", "B", "C"])]
    assert nodes["A"].perimeter_fallbacks == 0


def test_perimeter_fallback_escapes_void(geo_chain):
    network, nodes = make_geo_network(VOID_POSITIONS)
    network.run(until=BEACON_TIME)

    delivered = []
    nodes["T"].data_handlers.append(
        lambda packet, last_hop: delivered.append((packet.payload, packet.hops)))
    assert nodes["S"].send_data("T", "void-ping") is True
    network.run(until=BEACON_TIME + 2.0)

    # The packet escaped the void via the fallback hop S -> U, then resumed
    # greedy progress U -> V -> T.
    assert delivered == [("void-ping", ["S", "U", "V"])]
    assert nodes["S"].perimeter_fallbacks == 1
    fallbacks = [
        record for record in nodes["S"].log.by_category(LogCategory.ROUTE)
        if record.event == "PERIMETER_FALLBACK"
    ]
    assert fallbacks and fallbacks[0].get("via") == "U"
    # Downstream nodes forwarded greedily.
    assert nodes["U"].perimeter_fallbacks == 0
    assert nodes["V"].perimeter_fallbacks == 0


def test_fallback_never_revisits_packet_path(geo_chain):
    """The perimeter stub excludes nodes already on the packet's path."""
    network, nodes = make_geo_network(VOID_POSITIONS)
    network.run(until=BEACON_TIME)
    from repro.routing.base import DataPacket

    # A packet that already visited U must not be bounced back to it.
    packet = DataPacket(source="S", destination="T", payload="x",
                        hops=["U", "S"])
    assert nodes["S"].next_hop_for(packet) is None


def test_unknown_destination_is_unroutable(geo_chain):
    network, nodes = geo_chain
    network.run(until=BEACON_TIME)
    # No position service entry -> no next hop -> the base class reports an
    # unrecoverable no-route drop.
    assert nodes["A"].send_data("ghost", "lost") is False
    drops = [
        record for record in nodes["A"].log.by_category(LogCategory.DROP)
        if record.get("reason") == "no_route"
    ]
    assert drops


def test_neighbor_expiry_after_node_failure(geo_chain):
    network, nodes = geo_chain
    network.run(until=BEACON_TIME)
    assert "B" in nodes["A"].symmetric_neighbors()
    nodes["B"].stop()
    hold = nodes["A"].config.neighbor_hold_time
    network.run(until=network.now + hold + 2.0)
    assert "B" not in nodes["A"].symmetric_neighbors()
    removed = [
        record for record in nodes["A"].log.by_category(LogCategory.NEIGHBOR)
        if record.event == "NEIGHBOR_REMOVED" and record.get("neighbor") == "B"
    ]
    assert removed
    # With its only neighbour gone, A cannot route anywhere.
    assert nodes["A"].next_hop("D") is None


def test_beacon_record_logs_position_as_x_then_y():
    """The beacon's position is an ordered pair: x first, never sorted."""
    network, nodes = make_geo_network({"A": (530.25, 41.0), "B": (600.0, 41.0)})
    network.run(until=BEACON_TIME)
    beacons = nodes["A"].log.by_event("GEO_BEACON")
    assert beacons
    assert {record.get("position") for record in beacons} == {"530.25,41.0"}
    assert "position=530.25,41.0" in nodes["A"].log.dump_text()
