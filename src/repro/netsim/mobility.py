"""Node placement and mobility models.

Placement models assign initial coordinates; mobility models additionally
update coordinates over simulated time.  Models operate on a mutable mapping
``positions: dict[node_id, (x, y)]`` owned by the network, so the medium
always sees the current coordinates.

Vectorised ticks
----------------
Each mobility model advances *all* nodes inside one periodic engine event.
With enough nodes to amortise array setup (``_VECTOR_MIN_NODES``), the
per-tick ``_advance`` runs over numpy position arrays instead of a per-node
Python loop, and the surviving writes land in the position table through a
single bulk ``update`` (one position-epoch bump instead of N).  The vector
paths are **bit-identical** to the scalar loops, which stay in place for
small populations:

* random draws are consumed from the model's ``random.Random`` in exactly
  the scalar per-node order (numpy never draws; draws are taken flat and
  split back with strided views);
* elementwise float64 arithmetic mirrors the scalar expressions operation
  for operation (`numpy` rounds identically for ``+ - * /``, ``minimum``/
  ``maximum`` and — on every platform we test — ``cos``/``sin``);
* Euclidean norms keep calling ``math.hypot`` per node: ``np.hypot`` is
  *not* bit-identical to ``math.hypot`` (~0.6 % of draws differ in the last
  ulp on glibc), and one flipped arrival decision would diverge a whole
  campaign.  ``tests/test_netsim_mobility.py`` pins vector-vs-scalar
  trajectory equality per model.

Which models actually dispatch to the array path is a measured decision:
random walk, Gauss–Markov and RPGM ticks are draw/trig-bound and win
(~1.3–1.8× at 1,024 nodes); random waypoint's mover tick is gather-bound
(three dict lookups plus one exact hypot per node, no draws), measured
slower vectorised at every population, so its production tick stays on the
scalar loop while the vector implementation remains parity-tested.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

Position = Tuple[float, float]

#: Below this many nodes the array setup outweighs the vector win.
_VECTOR_MIN_NODES = 8


class MobilityModel(Protocol):
    """Protocol implemented by all placement / mobility models."""

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        """Return the initial position of every node."""
        ...

    def install(self, network) -> None:
        """Attach the model to the network (schedule periodic moves if mobile)."""
        ...


@dataclass
class StaticPlacement:
    """Fixed, caller-supplied coordinates."""

    positions: Dict[str, Position]

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        missing = [nid for nid in node_ids if nid not in self.positions]
        if missing:
            raise ValueError(f"no position supplied for nodes: {missing}")
        return {nid: self.positions[nid] for nid in node_ids}

    def install(self, network) -> None:  # static: nothing to schedule
        return None


@dataclass
class GridPlacement:
    """Place nodes on a regular grid with the given ``spacing``.

    The grid is as square as possible; spacing is chosen relative to the radio
    range so that the resulting topology is multi-hop (important for the
    2-hop-neighbour investigations of the paper).
    """

    spacing: float = 180.0
    origin: Position = (0.0, 0.0)
    columns: Optional[int] = None

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        n = len(node_ids)
        cols = self.columns or max(1, int(math.ceil(math.sqrt(n))))
        ox, oy = self.origin
        positions: Dict[str, Position] = {}
        for index, nid in enumerate(node_ids):
            row, col = divmod(index, cols)
            positions[nid] = (ox + col * self.spacing, oy + row * self.spacing)
        return positions

    def install(self, network) -> None:
        return None


@dataclass
class UniformRandomPlacement:
    """Uniform random placement in a ``width`` × ``height`` rectangle."""

    width: float = 1000.0
    height: float = 1000.0
    rng: random.Random = field(default_factory=random.Random)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        return {
            nid: (self.rng.uniform(0.0, self.width), self.rng.uniform(0.0, self.height))
            for nid in node_ids
        }

    def install(self, network) -> None:
        return None


@dataclass
class RandomWaypointMobility:
    """Random-waypoint mobility.

    Each node picks a random destination and speed in ``[min_speed, max_speed]``,
    moves there in straight line, pauses ``pause_time`` seconds, then repeats.
    Positions are updated every ``update_interval`` seconds of simulated time.
    """

    width: float = 1000.0
    height: float = 1000.0
    min_speed: float = 1.0
    max_speed: float = 5.0
    pause_time: float = 2.0
    update_interval: float = 1.0
    rng: random.Random = field(default_factory=random.Random)
    _targets: Dict[str, Position] = field(default_factory=dict)
    _speeds: Dict[str, float] = field(default_factory=dict)
    _pause_until: Dict[str, float] = field(default_factory=dict)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        positions = {
            nid: (self.rng.uniform(0.0, self.width), self.rng.uniform(0.0, self.height))
            for nid in node_ids
        }
        for nid in node_ids:
            self._pick_new_target(nid)
        return positions

    def install(self, network) -> None:
        network.simulator.schedule_periodic(
            self.update_interval,
            self._advance,
            network,
            start_delay=self.update_interval,
        )

    # internal ------------------------------------------------------------
    def _pick_new_target(self, node_id: str) -> None:
        self._targets[node_id] = (
            self.rng.uniform(0.0, self.width),
            self.rng.uniform(0.0, self.height),
        )
        self._speeds[node_id] = self.rng.uniform(self.min_speed, self.max_speed)

    def _advance(self, network) -> None:
        # Measured choice: the waypoint mover tick is gather-bound — three
        # dict lookups and one exact ``math.hypot`` per node, *zero* RNG
        # draws — and the array path's marshalling costs more than the
        # handful of flops it vectorises at every population we bench.
        # Production ticks therefore stay scalar; ``_advance_vector`` is
        # kept bit-identical and parity-tested so the dispatch remains a
        # pure performance decision (see tests/test_netsim_mobility.py).
        self._advance_scalar(network)

    def _advance_scalar(self, network) -> None:
        now = network.simulator.now
        for node_id, position in list(network.positions.items()):
            if self._pause_until.get(node_id, 0.0) > now:
                continue
            target = self._targets.get(node_id)
            if target is None:
                self._pick_new_target(node_id)
                target = self._targets[node_id]
            speed = self._speeds.get(node_id, self.min_speed)
            step = speed * self.update_interval
            dx, dy = target[0] - position[0], target[1] - position[1]
            dist = math.hypot(dx, dy)
            if dist <= step:
                network.positions[node_id] = target
                self._pause_until[node_id] = now + self.pause_time
                self._pick_new_target(node_id)
            else:
                network.positions[node_id] = (
                    position[0] + dx / dist * step,
                    position[1] + dy / dist * step,
                )

    def _advance_vector(self, network) -> None:
        now = network.simulator.now
        positions = network.positions
        pause_until = self._pause_until
        targets = self._targets
        active = [nid for nid in positions if not pause_until.get(nid, 0.0) > now]
        if not active:
            return
        if any(nid not in targets for nid in active):
            # Lazily-targeted nodes interleave target draws with arrival
            # draws mid-tick; the reference loop keeps that order exact.
            self._advance_scalar(network)
            return
        pts = [positions[nid] for nid in active]
        tgt = [targets[nid] for nid in active]
        speeds_map = self._speeds
        min_speed = self.min_speed
        steps = np.array([speeds_map.get(nid, min_speed) for nid in active])
        steps *= self.update_interval
        px = np.array([p[0] for p in pts])
        py = np.array([p[1] for p in pts])
        dxs = np.array([t[0] for t in tgt]) - px
        dys = np.array([t[1] for t in tgt]) - py
        # math.hypot, not np.hypot: the latter differs in the last ulp on
        # ~0.6 % of inputs, enough to flip an arrival comparison.
        dists = np.array(list(map(math.hypot, dxs.tolist(), dys.tolist())))
        arrived = dists <= steps
        with np.errstate(divide="ignore", invalid="ignore"):
            # dist == 0 only on arrivals, which never read these lanes.
            nxs = (px + dxs / dists * steps).tolist()
            nys = (py + dys / dists * steps).tolist()
        if not arrived.any():
            # Common tick shape: everyone still in transit, no draws due.
            positions.update(zip(active, zip(nxs, nys)))
            return
        arrived = arrived.tolist()
        updates = {}
        for i, nid in enumerate(active):
            if arrived[i]:
                updates[nid] = tgt[i]
                pause_until[nid] = now + self.pause_time
                self._pick_new_target(nid)
            else:
                updates[nid] = (nxs[i], nys[i])
        positions.update(updates)


@dataclass
class RandomWalkMobility:
    """Brownian-style random walk: each update, move a random small step."""

    width: float = 1000.0
    height: float = 1000.0
    max_step: float = 10.0
    update_interval: float = 1.0
    rng: random.Random = field(default_factory=random.Random)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        return {
            nid: (self.rng.uniform(0.0, self.width), self.rng.uniform(0.0, self.height))
            for nid in node_ids
        }

    def install(self, network) -> None:
        network.simulator.schedule_periodic(
            self.update_interval,
            self._advance,
            network,
            start_delay=self.update_interval,
        )

    def _advance(self, network) -> None:
        if len(network.positions) < _VECTOR_MIN_NODES:
            self._advance_scalar(network)
        else:
            self._advance_vector(network)

    def _advance_scalar(self, network) -> None:
        for node_id, (x, y) in list(network.positions.items()):
            nx = x + self.rng.uniform(-self.max_step, self.max_step)
            ny = y + self.rng.uniform(-self.max_step, self.max_step)
            network.positions[node_id] = (
                min(max(nx, 0.0), self.width),
                min(max(ny, 0.0), self.height),
            )

    def _advance_vector(self, network) -> None:
        positions = network.positions
        ids = list(positions)
        pts = [positions[nid] for nid in ids]
        m = self.max_step
        u = self.rng.uniform
        # Flat (dx, dy, dx, dy, …) draws in scalar per-node order; strided
        # views split them back without a list-of-tuples array build.
        delta = np.array([u(-m, m) for _ in range(2 * len(ids))])
        nxs = np.array([p[0] for p in pts])
        nxs += delta[0::2]
        nys = np.array([p[1] for p in pts])
        nys += delta[1::2]
        nxs = np.minimum(np.maximum(nxs, 0.0), self.width)
        nys = np.minimum(np.maximum(nys, 0.0), self.height)
        positions.update(zip(ids, zip(nxs.tolist(), nys.tolist())))


@dataclass
class GaussMarkovMobility:
    """Gauss–Markov mobility (temporally correlated speed and heading).

    Each node carries a speed and a direction updated every
    ``update_interval`` seconds by the Gauss–Markov recurrence::

        s_t = α·s_{t−1} + (1−α)·s̄ + √(1−α²)·N(0, σ_s)
        d_t = α·d_{t−1} + (1−α)·d̄ + √(1−α²)·N(0, σ_d)

    with memory factor ``alpha`` ∈ [0, 1]: 1 keeps the previous velocity
    forever (linear motion), 0 degenerates to a memoryless random walk.
    Unlike random waypoint, movement has no pause/teleport discontinuities
    and no density concentration at the area centre, so neighbourhoods churn
    smoothly — a better model for vehicles and patrols.  Nodes bounce off the
    area edges by reflecting their mean direction.
    """

    width: float = 1000.0
    height: float = 1000.0
    mean_speed: float = 3.0
    alpha: float = 0.75
    speed_stddev: float = 1.0
    direction_stddev: float = 0.6
    update_interval: float = 1.0
    rng: random.Random = field(default_factory=random.Random)
    _speeds: Dict[str, float] = field(default_factory=dict)
    _directions: Dict[str, float] = field(default_factory=dict)
    _mean_directions: Dict[str, float] = field(default_factory=dict)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        positions = {
            nid: (self.rng.uniform(0.0, self.width), self.rng.uniform(0.0, self.height))
            for nid in node_ids
        }
        for nid in node_ids:
            self._speeds[nid] = max(0.0, self.rng.gauss(self.mean_speed, self.speed_stddev))
            direction = self.rng.uniform(0.0, 2.0 * math.pi)
            self._directions[nid] = direction
            self._mean_directions[nid] = direction
        return positions

    def install(self, network) -> None:
        network.simulator.schedule_periodic(
            self.update_interval,
            self._advance,
            network,
            start_delay=self.update_interval,
        )

    def _advance(self, network) -> None:
        if len(network.positions) < _VECTOR_MIN_NODES:
            self._advance_scalar(network)
        else:
            self._advance_vector(network)

    def _advance_scalar(self, network) -> None:
        a = min(max(self.alpha, 0.0), 1.0)
        noise = math.sqrt(max(0.0, 1.0 - a * a))
        for node_id, (x, y) in list(network.positions.items()):
            speed = self._speeds.get(node_id, self.mean_speed)
            direction = self._directions.get(node_id, 0.0)
            mean_direction = self._mean_directions.get(node_id, direction)
            speed = (a * speed + (1.0 - a) * self.mean_speed
                     + noise * self.rng.gauss(0.0, self.speed_stddev))
            direction = (a * direction + (1.0 - a) * mean_direction
                         + noise * self.rng.gauss(0.0, self.direction_stddev))
            speed = max(0.0, speed)
            step = speed * self.update_interval
            nx = x + step * math.cos(direction)
            ny = y + step * math.sin(direction)
            # Reflect off the edges and flip the mean direction so the
            # recurrence keeps pulling the node back into the area.
            if nx < 0.0 or nx > self.width:
                nx = min(max(nx, 0.0), self.width)
                direction = math.pi - direction
                mean_direction = math.pi - mean_direction
            if ny < 0.0 or ny > self.height:
                ny = min(max(ny, 0.0), self.height)
                direction = -direction
                mean_direction = -mean_direction
            self._speeds[node_id] = speed
            self._directions[node_id] = direction
            self._mean_directions[node_id] = mean_direction
            network.positions[node_id] = (nx, ny)

    def _advance_vector(self, network) -> None:
        positions = network.positions
        ids = list(positions)
        a = min(max(self.alpha, 0.0), 1.0)
        noise = math.sqrt(max(0.0, 1.0 - a * a))
        pts = [positions[nid] for nid in ids]
        speeds_map = self._speeds
        dirs_map = self._directions
        means_map = self._mean_directions
        mean_speed = self.mean_speed
        speed = np.array([speeds_map.get(nid, mean_speed) for nid in ids])
        dir_list = [dirs_map.get(nid, 0.0) for nid in ids]
        direction = np.array(dir_list)
        mean_direction = np.array(
            [means_map.get(nid, d) for nid, d in zip(ids, dir_list)]
        )
        g = self.rng.gauss
        # Per node: speed noise then direction noise, exactly as the scalar
        # loop draws them (gauss caches a spare deviate, so order matters);
        # drawn flat and split by strided views.
        stddevs = (self.speed_stddev, self.direction_stddev)
        draws = np.array([g(0.0, stddevs[k & 1]) for k in range(2 * len(ids))])
        speed = a * speed + (1.0 - a) * mean_speed + noise * draws[0::2]
        direction = a * direction + (1.0 - a) * mean_direction + noise * draws[1::2]
        speed = np.maximum(speed, 0.0)
        step = speed * self.update_interval
        nx = np.array([p[0] for p in pts]) + step * np.cos(direction)
        ny = np.array([p[1] for p in pts]) + step * np.sin(direction)
        out_x = (nx < 0.0) | (nx > self.width)
        nx = np.where(out_x, np.minimum(np.maximum(nx, 0.0), self.width), nx)
        direction = np.where(out_x, math.pi - direction, direction)
        mean_direction = np.where(out_x, math.pi - mean_direction, mean_direction)
        out_y = (ny < 0.0) | (ny > self.height)
        ny = np.where(out_y, np.minimum(np.maximum(ny, 0.0), self.height), ny)
        direction = np.where(out_y, -direction, direction)
        mean_direction = np.where(out_y, -mean_direction, mean_direction)
        speeds_map.update(zip(ids, speed.tolist()))
        dirs_map.update(zip(ids, direction.tolist()))
        means_map.update(zip(ids, mean_direction.tolist()))
        positions.update(zip(ids, zip(nx.tolist(), ny.tolist())))


@dataclass
class ReferencePointGroupMobility:
    """Reference-point group mobility (RPGM).

    Nodes are partitioned into ``group_count`` groups.  Each group has a
    *reference point* performing random-waypoint motion; every member
    follows its group's reference point while wandering inside a disc of
    radius ``member_radius`` around it.  This produces the clustered,
    platoon-like topologies of tactical MANETs — the setting the source
    paper targets — where whole neighbourhoods move together and inter-group
    links are the scarce, churning resource.
    """

    width: float = 1000.0
    height: float = 1000.0
    group_count: int = 3
    member_radius: float = 120.0
    min_speed: float = 1.0
    max_speed: float = 5.0
    update_interval: float = 1.0
    rng: random.Random = field(default_factory=random.Random)
    _group_of: Dict[str, int] = field(default_factory=dict)
    _references: Dict[int, Position] = field(default_factory=dict)
    _targets: Dict[int, Position] = field(default_factory=dict)
    _speeds: Dict[int, float] = field(default_factory=dict)
    _offsets: Dict[str, Position] = field(default_factory=dict)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        groups = max(1, min(self.group_count, len(node_ids)))
        positions: Dict[str, Position] = {}
        for group in range(groups):
            self._references[group] = (
                self.rng.uniform(0.0, self.width),
                self.rng.uniform(0.0, self.height),
            )
            self._pick_group_target(group)
        for index, nid in enumerate(node_ids):
            group = index % groups
            self._group_of[nid] = group
            self._offsets[nid] = self._random_offset()
            positions[nid] = self._member_position(group, nid)
        return positions

    def install(self, network) -> None:
        network.simulator.schedule_periodic(
            self.update_interval,
            self._advance,
            network,
            start_delay=self.update_interval,
        )

    # internal ------------------------------------------------------------
    def _random_offset(self) -> Position:
        angle = self.rng.uniform(0.0, 2.0 * math.pi)
        radius = self.member_radius * math.sqrt(self.rng.random())
        return (radius * math.cos(angle), radius * math.sin(angle))

    def _pick_group_target(self, group: int) -> None:
        self._targets[group] = (
            self.rng.uniform(0.0, self.width),
            self.rng.uniform(0.0, self.height),
        )
        self._speeds[group] = self.rng.uniform(self.min_speed, self.max_speed)

    def _member_position(self, group: int, node_id: str) -> Position:
        rx, ry = self._references[group]
        ox, oy = self._offsets[node_id]
        return (
            min(max(rx + ox, 0.0), self.width),
            min(max(ry + oy, 0.0), self.height),
        )

    def _advance(self, network) -> None:
        if len(network.positions) < _VECTOR_MIN_NODES:
            self._advance_scalar(network)
        else:
            self._advance_vector(network)

    def _advance_references(self) -> None:
        for group, reference in list(self._references.items()):
            target = self._targets[group]
            speed = self._speeds[group]
            step = speed * self.update_interval
            dx, dy = target[0] - reference[0], target[1] - reference[1]
            dist = math.hypot(dx, dy)
            if dist <= step:
                self._references[group] = target
                self._pick_group_target(group)
            else:
                self._references[group] = (
                    reference[0] + dx / dist * step,
                    reference[1] + dy / dist * step,
                )

    def _advance_scalar(self, network) -> None:
        self._advance_references()
        for node_id in list(network.positions):
            group = self._group_of.get(node_id)
            if group is None:
                continue
            # Members drift within the disc: small random perturbation of the
            # offset, clamped back to member_radius.
            ox, oy = self._offsets[node_id]
            ox += self.rng.uniform(-2.0, 2.0)
            oy += self.rng.uniform(-2.0, 2.0)
            norm = math.hypot(ox, oy)
            if norm > self.member_radius:
                scale = self.member_radius / norm
                ox, oy = ox * scale, oy * scale
            self._offsets[node_id] = (ox, oy)
            network.positions[node_id] = self._member_position(group, node_id)

    def _advance_vector(self, network) -> None:
        # Reference points stay scalar: a handful of groups, and the loop
        # keeps the group-order target draws obvious.
        self._advance_references()
        positions = network.positions
        group_of = self._group_of
        ids = [nid for nid in positions if nid in group_of]
        if not ids:
            return
        u = self.rng.uniform
        offs = [self._offsets[nid] for nid in ids]
        delta = np.array([u(-2.0, 2.0) for _ in range(2 * len(ids))])
        ox = np.array([o[0] for o in offs]) + delta[0::2]
        oy = np.array([o[1] for o in offs]) + delta[1::2]
        radius = self.member_radius
        norms = np.array(list(map(math.hypot, ox.tolist(), oy.tolist())))
        over = norms > radius
        with np.errstate(divide="ignore", invalid="ignore"):
            # Lanes inside the disc never read the (possibly inf) scale.
            scale = radius / norms
            ox = np.where(over, ox * scale, ox)
            oy = np.where(over, oy * scale, oy)
        references = self._references
        ref_pts = [references[group_of[nid]] for nid in ids]
        px = np.minimum(np.maximum(np.array([r[0] for r in ref_pts]) + ox,
                                   0.0), self.width)
        py = np.minimum(np.maximum(np.array([r[1] for r in ref_pts]) + oy,
                                   0.0), self.height)
        self._offsets.update(zip(ids, zip(ox.tolist(), oy.tolist())))
        positions.update(zip(ids, zip(px.tolist(), py.tolist())))


def ring_positions(node_ids: Sequence[str], radius: float, center: Position = (0.0, 0.0)) -> Dict[str, Position]:
    """Place nodes evenly on a circle (useful for fully controlled topologies)."""
    n = len(node_ids)
    positions: Dict[str, Position] = {}
    for index, nid in enumerate(node_ids):
        angle = 2.0 * math.pi * index / max(n, 1)
        positions[nid] = (
            center[0] + radius * math.cos(angle),
            center[1] + radius * math.sin(angle),
        )
    return positions


def chain_positions(node_ids: Sequence[str], spacing: float, origin: Position = (0.0, 0.0)) -> Dict[str, Position]:
    """Place nodes on a straight horizontal chain (multi-hop line topology)."""
    ox, oy = origin
    return {nid: (ox + index * spacing, oy) for index, nid in enumerate(node_ids)}
