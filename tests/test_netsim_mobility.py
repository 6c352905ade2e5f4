"""Tests for placement and mobility models."""

from __future__ import annotations

import random

import pytest

from repro.netsim.mobility import (
    GaussMarkovMobility,
    GridPlacement,
    RandomWalkMobility,
    RandomWaypointMobility,
    ReferencePointGroupMobility,
    StaticPlacement,
    UniformRandomPlacement,
    chain_positions,
    ring_positions,
)
from repro.netsim.network import Network
from repro.netsim.engine import Simulator


NODE_IDS = [f"n{i}" for i in range(9)]


def test_static_placement_returns_given_positions():
    placement = StaticPlacement({"a": (1.0, 2.0), "b": (3.0, 4.0)})
    assert placement.place(["a", "b"]) == {"a": (1.0, 2.0), "b": (3.0, 4.0)}


def test_static_placement_missing_node_raises():
    placement = StaticPlacement({"a": (1.0, 2.0)})
    with pytest.raises(ValueError):
        placement.place(["a", "b"])


def test_grid_placement_spacing_and_shape():
    placement = GridPlacement(spacing=100.0)
    positions = placement.place(NODE_IDS)
    assert len(positions) == 9
    assert positions["n0"] == (0.0, 0.0)
    assert positions["n1"] == (100.0, 0.0)
    assert positions["n3"] == (0.0, 100.0)


def test_grid_placement_explicit_columns():
    placement = GridPlacement(spacing=10.0, columns=2)
    positions = placement.place(["a", "b", "c"])
    assert positions["c"] == (0.0, 10.0)


def test_uniform_random_placement_within_bounds():
    placement = UniformRandomPlacement(width=50.0, height=20.0, rng=random.Random(5))
    positions = placement.place(NODE_IDS)
    for x, y in positions.values():
        assert 0.0 <= x <= 50.0
        assert 0.0 <= y <= 20.0


def test_uniform_random_placement_deterministic_with_seed():
    a = UniformRandomPlacement(rng=random.Random(9)).place(NODE_IDS)
    b = UniformRandomPlacement(rng=random.Random(9)).place(NODE_IDS)
    assert a == b


def test_random_waypoint_moves_nodes_over_time():
    mobility = RandomWaypointMobility(width=500.0, height=500.0, min_speed=10.0,
                                      max_speed=20.0, rng=random.Random(3))
    network = Network(simulator=Simulator(), mobility=mobility, seed=3)
    network.add_nodes(["a", "b"])
    before = dict(network.positions)
    network.run(until=20.0)
    after = dict(network.positions)
    assert any(before[n] != after[n] for n in before)


def test_random_waypoint_stays_within_bounds():
    mobility = RandomWaypointMobility(width=100.0, height=100.0, min_speed=20.0,
                                      max_speed=40.0, rng=random.Random(11))
    network = Network(simulator=Simulator(), mobility=mobility, seed=11)
    network.add_nodes(NODE_IDS)
    network.run(until=60.0)
    for x, y in network.positions.values():
        assert -1e-6 <= x <= 100.0 + 1e-6
        assert -1e-6 <= y <= 100.0 + 1e-6


def test_random_walk_moves_and_stays_in_bounds():
    mobility = RandomWalkMobility(width=50.0, height=50.0, max_step=5.0,
                                  rng=random.Random(2))
    network = Network(simulator=Simulator(), mobility=mobility, seed=2)
    network.add_nodes(["a", "b", "c"])
    before = dict(network.positions)
    network.run(until=30.0)
    after = dict(network.positions)
    assert any(before[n] != after[n] for n in before)
    for x, y in after.values():
        assert 0.0 <= x <= 50.0
        assert 0.0 <= y <= 50.0


def test_ring_positions_equidistant_from_center():
    positions = ring_positions(["a", "b", "c", "d"], radius=100.0, center=(10.0, 10.0))
    for x, y in positions.values():
        assert ((x - 10.0) ** 2 + (y - 10.0) ** 2) ** 0.5 == pytest.approx(100.0)


def test_chain_positions_spacing():
    positions = chain_positions(["a", "b", "c"], spacing=75.0)
    assert positions == {"a": (0.0, 0.0), "b": (75.0, 0.0), "c": (150.0, 0.0)}


def test_gauss_markov_moves_and_stays_in_bounds():
    mobility = GaussMarkovMobility(width=200.0, height=200.0, mean_speed=5.0,
                                   rng=random.Random(4))
    network = Network(simulator=Simulator(), mobility=mobility, seed=4)
    network.add_nodes(NODE_IDS)
    before = dict(network.positions)
    network.run(until=60.0)
    after = dict(network.positions)
    assert any(before[n] != after[n] for n in before)
    for x, y in after.values():
        assert 0.0 <= x <= 200.0
        assert 0.0 <= y <= 200.0


def test_gauss_markov_is_deterministic_with_seed():
    def run():
        mobility = GaussMarkovMobility(width=300.0, height=300.0,
                                       rng=random.Random(17))
        network = Network(simulator=Simulator(), mobility=mobility, seed=17)
        network.add_nodes(NODE_IDS)
        network.run(until=25.0)
        return dict(network.positions)

    assert run() == run()


def test_gauss_markov_motion_is_temporally_correlated():
    """With alpha close to 1, consecutive steps point the same way —
    the property that distinguishes Gauss-Markov from a random walk."""
    mobility = GaussMarkovMobility(width=10_000.0, height=10_000.0,
                                   mean_speed=5.0, alpha=0.95,
                                   speed_stddev=0.1, direction_stddev=0.05,
                                   rng=random.Random(6))
    network = Network(simulator=Simulator(), mobility=mobility, seed=6)
    network.add_nodes(["a"])
    # Re-centre so edge reflections cannot interfere with the measurement.
    network.set_position("a", (5_000.0, 5_000.0))
    positions = []
    for step in range(1, 11):
        network.run(until=float(step))
        positions.append(network.positions["a"])
    steps = [(x2 - x1, y2 - y1) for (x1, y1), (x2, y2)
             in zip(positions, positions[1:])]
    dots = [
        ax * bx + ay * by
        for (ax, ay), (bx, by) in zip(steps, steps[1:])
    ]
    assert all(dot > 0.0 for dot in dots)  # never reverses within 10 steps


def test_rpgm_members_follow_their_reference_point():
    mobility = ReferencePointGroupMobility(width=1000.0, height=1000.0,
                                           group_count=2, member_radius=80.0,
                                           min_speed=5.0, max_speed=10.0,
                                           rng=random.Random(8))
    network = Network(simulator=Simulator(), mobility=mobility, seed=8)
    network.add_nodes(NODE_IDS)
    network.run(until=40.0)
    # Every member sits inside its group's disc (clamped at the edges).
    for node_id, (x, y) in network.positions.items():
        group = mobility._group_of[node_id]
        rx, ry = mobility._references[group]
        ex = min(max(rx + mobility._offsets[node_id][0], 0.0), 1000.0)
        ey = min(max(ry + mobility._offsets[node_id][1], 0.0), 1000.0)
        assert (x, y) == (ex, ey)
        assert 0.0 <= x <= 1000.0 and 0.0 <= y <= 1000.0


def test_rpgm_groups_stay_clustered_while_moving():
    mobility = ReferencePointGroupMobility(width=2000.0, height=2000.0,
                                           group_count=3, member_radius=50.0,
                                           min_speed=2.0, max_speed=6.0,
                                           rng=random.Random(12))
    network = Network(simulator=Simulator(), mobility=mobility, seed=12)
    network.add_nodes([f"m{i}" for i in range(12)])
    before = dict(network.positions)
    network.run(until=50.0)
    after = dict(network.positions)
    assert any(before[n] != after[n] for n in before)
    # Intra-group spread is bounded by the disc diameter.
    groups = {}
    for node_id, position in after.items():
        groups.setdefault(mobility._group_of[node_id], []).append(position)
    for members in groups.values():
        xs = [p[0] for p in members]
        ys = [p[1] for p in members]
        assert max(xs) - min(xs) <= 100.0 + 1e-6
        assert max(ys) - min(ys) <= 100.0 + 1e-6


def test_static_install_is_noop():
    placement = StaticPlacement({"a": (0.0, 0.0)})
    network = Network(simulator=Simulator(), mobility=placement)
    network.add_nodes(["a"])
    network.run(until=10.0)
    assert network.positions["a"] == (0.0, 0.0)


# ----------------------------------------------- vector vs. scalar bit parity

class _TickNetwork:
    """Minimal network stand-in for driving ``_advance`` directly."""

    class _Clock:
        now = 0.0

    def __init__(self, positions):
        self.positions = dict(positions)
        self.simulator = self._Clock()


_MODEL_FACTORIES = [
    lambda rng: RandomWaypointMobility(width=300.0, height=300.0,
                                       min_speed=1.0, max_speed=8.0,
                                       pause_time=1.5, rng=rng),
    lambda rng: RandomWalkMobility(width=300.0, height=300.0,
                                   max_step=12.0, rng=rng),
    lambda rng: GaussMarkovMobility(width=300.0, height=300.0,
                                    mean_speed=4.0, alpha=0.6, rng=rng),
    lambda rng: ReferencePointGroupMobility(width=300.0, height=300.0,
                                            group_count=3, rng=rng),
]


@pytest.mark.parametrize("factory", _MODEL_FACTORIES,
                         ids=["waypoint", "walk", "gauss_markov", "rpgm"])
@pytest.mark.parametrize("node_count", [8, 40])
def test_vector_advance_bit_identical_to_scalar(factory, node_count):
    """The numpy tick path must be indistinguishable from the scalar loop:
    bit-identical trajectories AND an identical RNG stream afterwards (one
    extra or reordered draw would diverge every later tick of a run).

    ``_advance_vector`` is invoked directly rather than through the
    ``_advance`` dispatcher so the parity contract holds even for models
    (waypoint) whose production tick stays scalar by measured choice."""

    def run(mode):
        model = factory(random.Random(97))
        ids = [f"v{i}" for i in range(node_count)]
        network = _TickNetwork(model.place(ids))
        for tick in range(120):
            network.simulator.now = (tick + 1) * model.update_interval
            if mode == "scalar":
                model._advance_scalar(network)
            else:
                model._advance_vector(network)
        return network.positions, model.rng.getstate()

    scalar_positions, scalar_rng = run("scalar")
    vector_positions, vector_rng = run("vector")
    assert list(scalar_positions) == list(vector_positions)
    for node_id in scalar_positions:
        sx, sy = scalar_positions[node_id]
        vx, vy = vector_positions[node_id]
        assert (sx, sy) == (vx, vy)
        assert isinstance(vx, float) and isinstance(vy, float)
    assert scalar_rng == vector_rng


def test_small_networks_fall_back_to_scalar(monkeypatch):
    """Below the vector threshold the models must not pay array overhead."""
    import repro.netsim.mobility as mobility_module

    calls = []
    model = RandomWalkMobility(rng=random.Random(1))
    original = model._advance_vector

    def spy(network):
        calls.append(len(network.positions))
        return original(network)

    monkeypatch.setattr(model, "_advance_vector", spy)
    network = _TickNetwork(model.place([f"s{i}" for i in range(4)]))
    model._advance(network)
    assert calls == []  # 4 nodes < _VECTOR_MIN_NODES: scalar path taken
    assert mobility_module._VECTOR_MIN_NODES > 4


def test_raised_size_threshold_forces_the_scalar_tick(monkeypatch):
    import repro.netsim.mobility as mobility_module

    monkeypatch.setattr(mobility_module, "_VECTOR_MIN_NODES", 10 ** 6)
    model = GaussMarkovMobility(rng=random.Random(2))
    monkeypatch.setattr(model, "_advance_vector", None)  # any call would fail
    network = _TickNetwork(model.place([f"g{i}" for i in range(16)]))
    before = dict(network.positions)
    network.simulator.now = model.update_interval
    model._advance(network)
    assert network.positions != before


def test_waypoint_vector_tick_matches_scalar_through_network_run():
    """End-to-end: a Network driven by the periodic mobility event produces
    the same trajectories whether ticks run vectorised or scalar (waypoint
    dispatches scalar in production, so the vector path is forced here)."""

    def run(force_vector):
        mobility = RandomWaypointMobility(width=200.0, height=200.0,
                                          min_speed=2.0, max_speed=6.0,
                                          rng=random.Random(31))
        if force_vector:
            mobility._advance = (  # type: ignore[method-assign]
                lambda network: mobility._advance_vector(network))
        network = Network(simulator=Simulator(), mobility=mobility, seed=31)
        network.add_nodes([f"w{i}" for i in range(24)])
        network.run(until=40.0)
        return dict(network.positions)

    assert run(force_vector=False) == run(force_vector=True)
