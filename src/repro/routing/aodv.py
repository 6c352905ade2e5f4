"""AODV (RFC 3561) backend: reactive route discovery.

A deliberately compact Ad hoc On-Demand Distance Vector implementation:
periodic HELLO beacons for neighbour sensing, RREQ flooding with
per-(originator, id) duplicate suppression, RREP unicast back along the
reverse route, RERR propagation on broken links, destination sequence
numbers for freshness, hop-count metric, and active-route expiry.  Data
packets with no route are buffered while a route discovery runs, matching
the protocol's on-demand character.

The implementation reuses the protocol-agnostic machinery of
:class:`repro.routing.base.RoutingProtocol` — audit logging, attack hooks,
the data plane — so drop attacks and the misbehaviour detector work on AODV
exactly as they do on OLSR: relayed RREQs are logged with their
``(origin, seq)`` pair (the duplicate-suppression invariant applies
unchanged), and vetoed relays surface as ``DROP`` records the log analyzer
turns into evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.logs.records import LogCategory
from repro.routing.base import DataPacket, RoutingProtocol
from repro.routing.registry import register_protocol


@dataclass
class AodvConfig:
    """Per-node AODV configuration (RFC 3561 defaults, scaled to the sim)."""

    hello_interval: float = 2.0
    #: HELLOs that may be missed before the neighbour is considered lost.
    allowed_hello_loss: int = 2
    active_route_timeout: float = 15.0
    #: Hold time of the (originator, rreq_id) duplicate table.
    path_discovery_time: float = 5.0
    rreq_ttl: int = 16
    #: Route-discovery retries before buffered packets are dropped.
    rreq_retries: int = 2
    rreq_retry_interval: float = 2.0
    housekeeping_interval: float = 1.0
    emission_jitter: float = 0.5
    start_delay_max: float = 1.0
    forward_jitter: float = 0.1
    #: Packets buffered per destination while discovery is in flight.
    buffer_limit: int = 16

    @property
    def neighbor_hold_time(self) -> float:
        """How long a neighbour survives without a fresh HELLO."""
        return self.hello_interval * self.allowed_hello_loss + self.emission_jitter


# ------------------------------------------------------------------ messages
@dataclass(slots=True)
class AodvHello:
    """1-hop beacon used for neighbour sensing (RFC 3561 §6.9)."""

    originator: str
    seq: int
    message_type: str = "AODV_HELLO"

    def size_bytes(self) -> int:
        return 24


@dataclass(slots=True)
class RouteRequest:
    """RREQ flooded toward an unknown destination (RFC 3561 §6.3)."""

    originator: str
    rreq_id: int
    originator_seq: int
    destination: str
    destination_seq: Optional[int]
    hop_count: int = 0
    ttl: int = 16
    message_type: str = "RREQ"

    def size_bytes(self) -> int:
        return 24


@dataclass(slots=True)
class RouteReply:
    """RREP unicast back along the reverse route (RFC 3561 §6.6)."""

    originator: str  # the RREQ originator the reply travels toward
    destination: str  # the route target being answered for
    destination_seq: int
    hop_count: int
    lifetime: float
    message_type: str = "RREP"

    def size_bytes(self) -> int:
        return 20


@dataclass(slots=True)
class RouteError:
    """RERR listing destinations that became unreachable (RFC 3561 §6.11)."""

    originator: str
    unreachable: Tuple[Tuple[str, int], ...]
    message_type: str = "RERR"

    def size_bytes(self) -> int:
        return 12 + 8 * len(self.unreachable)


# --------------------------------------------------------------- route table
@dataclass
class AodvRoute:
    """One routing-table entry (RFC 3561 §6.2)."""

    destination: str
    next_hop: str
    hop_count: int
    destination_seq: int
    expiry_time: float
    valid: bool = True

    def is_active(self, now: float) -> bool:
        return self.valid and self.expiry_time > now


class AodvNode(RoutingProtocol):
    """One AODV router attached to a simulated network."""

    protocol_name = "aodv"

    def __init__(
        self,
        node_id: str,
        network,
        config: Optional[AodvConfig] = None,
        log_store=None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, network, log_store=log_store, seed=seed)
        self.config = config if isinstance(config, AodvConfig) else AodvConfig()
        self.sequence_number = 0
        self._rreq_id = 0
        self.routes: Dict[str, AodvRoute] = {}
        self._neighbor_expiry: Dict[str, float] = {}
        self._seen_rreqs: Dict[Tuple[str, int], float] = {}
        self._pending: Dict[str, List[DataPacket]] = {}
        #: Per-destination discovery state: (attempts, next_retry_time).
        self._discovery: Dict[str, Tuple[int, float]] = {}

    # ------------------------------------------------------------------ life
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.log.log(self.now, LogCategory.SYSTEM, "NODE_STARTED",
                     protocol=self.protocol_name)
        start_delay = self.rng.uniform(0.0, self.config.start_delay_max)
        self._schedule_periodic(
            self.config.hello_interval,
            self._emit_hello,
            start_delay=start_delay,
            jitter=self.config.emission_jitter,
            rng=self.rng,
        )
        self._schedule_periodic(
            self.config.housekeeping_interval,
            self._housekeeping,
            start_delay=self.config.housekeeping_interval,
        )

    # ----------------------------------------------------------- state views
    def symmetric_neighbors(self) -> Set[str]:
        now = self.now
        return {n for n, expiry in self._neighbor_expiry.items() if expiry > now}

    def next_hop(self, destination: str) -> Optional[str]:
        route = self.routes.get(destination)
        if route is None or not route.is_active(self.now):
            return None
        # Using a route keeps it alive (RFC 3561 §6.2).
        route.expiry_time = max(route.expiry_time,
                                self.now + self.config.active_route_timeout)
        return route.next_hop

    def route_distance(self, destination: str) -> Optional[int]:
        route = self.routes.get(destination)
        if route is None or not route.is_active(self.now):
            return None
        return route.hop_count

    def known_destinations(self) -> Set[str]:
        now = self.now
        return {d for d, r in self.routes.items() if r.is_active(now)}

    def routing_entries(self) -> List[Tuple[str, str, int, int, bool]]:
        """Stable snapshot of the route table, for tests and reports."""
        return [
            (d, r.next_hop, r.hop_count, r.destination_seq, r.is_active(self.now))
            for d, r in sorted(self.routes.items())
        ]

    # -------------------------------------------------------------- reception
    def handle_control(self, payload: object, last_hop: str) -> None:
        # Drop copies of our own flooded messages; a RouteReply is exempt
        # because its ``originator`` names the requester it travels toward.
        if (not isinstance(payload, RouteReply)
                and getattr(payload, "originator", None) == self.node_id):
            return
        if isinstance(payload, (AodvHello, RouteRequest, RouteReply, RouteError)):
            for tap in self.message_taps:
                tap(payload, last_hop, self)
            self.stats.record_received(payload.message_type)
        if isinstance(payload, AodvHello):
            self._on_hello(payload, last_hop)
        elif isinstance(payload, RouteRequest):
            self._on_rreq(payload, last_hop)
        elif isinstance(payload, RouteReply):
            self._on_rrep(payload, last_hop)
        elif isinstance(payload, RouteError):
            self._on_rerr(payload, last_hop)

    # ---------------------------------------------------------------- beacons
    def _emit_hello(self) -> None:
        if not self._started:
            return
        hello = AodvHello(originator=self.node_id, seq=self.sequence_number)
        self.interface.broadcast(hello, size_bytes=hello.size_bytes())
        self.stats.record_sent("AODV_HELLO")
        self.log.log(self.now, LogCategory.MESSAGE_TX, "AODV_HELLO",
                     seq=hello.seq)

    def _on_hello(self, hello: AodvHello, last_hop: str) -> None:
        now = self.now
        origin = hello.originator
        known = self._neighbor_expiry.get(origin, 0.0) > now
        self._neighbor_expiry[origin] = now + self.config.neighbor_hold_time
        if not known:
            self.log.log(now, LogCategory.NEIGHBOR, "NEIGHBOR_ADDED",
                         neighbor=origin)
        self._update_route(origin, origin, 1, hello.seq,
                           lifetime=self.config.neighbor_hold_time)

    # -------------------------------------------------------- route discovery
    def _on_rreq(self, rreq: RouteRequest, last_hop: str) -> None:
        now = self.now
        self.log.log(now, LogCategory.MESSAGE_RX, "RREQ",
                     origin=rreq.originator, last_hop=last_hop,
                     seq=rreq.rreq_id, destination=rreq.destination,
                     ttl=rreq.ttl, hops=rreq.hop_count)
        key = (rreq.originator, rreq.rreq_id)
        if self._seen_rreqs.get(key, 0.0) > now:
            self.stats.duplicates_suppressed += 1
            self.log.log(now, LogCategory.DUPLICATE, "DUPLICATE_DETECTED",
                         origin=rreq.originator, seq=rreq.rreq_id)
            return
        self._seen_rreqs[key] = now + self.config.path_discovery_time

        # Reverse route toward the originator (RFC 3561 §6.5).
        self._update_route(rreq.originator, last_hop, rreq.hop_count + 1,
                           rreq.originator_seq)

        if rreq.destination == self.node_id:
            # We are the destination: answer with a fresh sequence number.
            self.sequence_number = max(self.sequence_number,
                                       rreq.destination_seq or 0) + 1
            self._send_rrep(
                requester=rreq.originator,
                target=self.node_id,
                target_seq=self.sequence_number,
                hop_count=0,
                via=last_hop,
            )
            return

        route = self.routes.get(rreq.destination)
        if route is not None and route.is_active(now) and (
            rreq.destination_seq is None
            or route.destination_seq >= rreq.destination_seq
        ):
            # Intermediate node with a fresh-enough route replies itself.
            self._send_rrep(
                requester=rreq.originator,
                target=rreq.destination,
                target_seq=route.destination_seq,
                hop_count=route.hop_count,
                via=last_hop,
            )
            return

        self._forward_rreq(rreq, last_hop)

    def _forward_rreq(self, rreq: RouteRequest, last_hop: str) -> None:
        if rreq.ttl <= 1:
            self.log.log(self.now, LogCategory.DROP, "TTL_EXPIRED",
                         origin=rreq.originator, seq=rreq.rreq_id)
            return
        for forward_filter in self.forward_filters:
            if not forward_filter(rreq, last_hop, self):
                self.stats.messages_dropped += 1
                self.log.log(self.now, LogCategory.DROP, "FILTERED",
                             origin=rreq.originator, seq=rreq.rreq_id,
                             reason="forward_filter", last_hop=last_hop)
                return
        forwarded = replace(rreq, hop_count=rreq.hop_count + 1, ttl=rreq.ttl - 1)
        delay = self.rng.uniform(0.0, self.config.forward_jitter)
        self.simulator.post(delay, self._broadcast, forwarded)
        self.stats.messages_forwarded += 1
        self.log.log(self.now, LogCategory.FORWARD, "RELAYED",
                     origin=rreq.originator, seq=rreq.rreq_id,
                     ttl=forwarded.ttl, last_hop=last_hop)

    def _broadcast(self, message) -> None:
        self.interface.broadcast(message, size_bytes=message.size_bytes())

    def _send_rrep(self, requester: str, target: str, target_seq: int,
                   hop_count: int, via: str) -> None:
        rrep = RouteReply(
            originator=requester,
            destination=target,
            destination_seq=target_seq,
            hop_count=hop_count,
            lifetime=self.config.active_route_timeout,
        )
        self.interface.unicast(via, rrep, size_bytes=rrep.size_bytes())
        self.stats.record_sent("RREP")
        self.log.log(self.now, LogCategory.MESSAGE_TX, "RREP",
                     destination=target, requester=requester,
                     seq=target_seq, hops=hop_count)

    def _on_rrep(self, rrep: RouteReply, last_hop: str) -> None:
        self.log.log(self.now, LogCategory.MESSAGE_RX, "RREP",
                     origin=rrep.destination, last_hop=last_hop,
                     seq=rrep.destination_seq, hops=rrep.hop_count)
        # Forward route toward the replied-for target (RFC 3561 §6.7).
        self._update_route(rrep.destination, last_hop, rrep.hop_count + 1,
                           rrep.destination_seq, lifetime=rrep.lifetime)
        if rrep.originator == self.node_id:
            return  # discovery complete; pending traffic was flushed on update
        reverse = self.routes.get(rrep.originator)
        if reverse is None or not reverse.is_active(self.now):
            self.log.log(self.now, LogCategory.DROP, "FILTERED",
                         reason="no_reverse_route", origin=rrep.destination,
                         destination=rrep.originator)
            return
        for forward_filter in self.forward_filters:
            if not forward_filter(rrep, last_hop, self):
                self.stats.messages_dropped += 1
                self.log.log(self.now, LogCategory.DROP, "FILTERED",
                             origin=rrep.destination, reason="forward_filter",
                             last_hop=last_hop)
                return
        forwarded = replace(rrep, hop_count=rrep.hop_count + 1)
        self.interface.unicast(reverse.next_hop, forwarded,
                               size_bytes=forwarded.size_bytes())
        self.stats.messages_forwarded += 1
        # No ``seq`` field: RREPs are unicast, the flooding invariant does
        # not apply to them (mirrors the data-plane relay records).
        self.log.log(self.now, LogCategory.FORWARD, "RELAYED",
                     origin=rrep.destination, destination=rrep.originator,
                     kind="rrep")

    # ------------------------------------------------------------ route errors
    def _on_rerr(self, rerr: RouteError, last_hop: str) -> None:
        self.log.log(self.now, LogCategory.MESSAGE_RX, "RERR",
                     origin=rerr.originator, last_hop=last_hop,
                     unreachable=sorted(d for d, _ in rerr.unreachable))
        invalidated: List[Tuple[str, int]] = []
        for destination, seq in rerr.unreachable:
            route = self.routes.get(destination)
            if route is not None and route.valid and route.next_hop == last_hop:
                route.valid = False
                route.destination_seq = max(route.destination_seq, seq)
                self.log.log(self.now, LogCategory.ROUTE, "ROUTE_INVALIDATED",
                             destination=destination, via=last_hop)
                invalidated.append((destination, route.destination_seq))
        if invalidated:
            self._broadcast_rerr(invalidated)

    def _broadcast_rerr(self, unreachable: List[Tuple[str, int]]) -> None:
        rerr = RouteError(originator=self.node_id,
                          unreachable=tuple(sorted(unreachable)))
        self.interface.broadcast(rerr, size_bytes=rerr.size_bytes())
        self.stats.record_sent("RERR")
        self.log.log(self.now, LogCategory.MESSAGE_TX, "RERR",
                     unreachable=sorted(d for d, _ in rerr.unreachable))

    # ------------------------------------------------------------- data plane
    def _on_no_route(self, packet: DataPacket) -> bool:
        if packet.source == self.node_id:
            queue = self._pending.setdefault(packet.destination, [])
            if len(queue) >= self.config.buffer_limit:
                self.log.log(self.now, LogCategory.DROP, "FILTERED",
                             reason="buffer_full", destination=packet.destination)
                return False
            queue.append(packet)
            if packet.destination not in self._discovery:
                self._originate_rreq(packet.destination)
            return True
        # Transiting packet hit a broken route: drop and report upstream.
        self.log.log(self.now, LogCategory.DROP, "FILTERED",
                     reason="no_route", origin=packet.source,
                     destination=packet.destination)
        route = self.routes.get(packet.destination)
        seq = route.destination_seq + 1 if route is not None else 1
        self._broadcast_rerr([(packet.destination, seq)])
        return False

    def _originate_rreq(self, destination: str) -> None:
        now = self.now
        self._rreq_id += 1
        self.sequence_number += 1
        known = self.routes.get(destination)
        rreq = RouteRequest(
            originator=self.node_id,
            rreq_id=self._rreq_id,
            originator_seq=self.sequence_number,
            destination=destination,
            destination_seq=known.destination_seq if known is not None else None,
            hop_count=0,
            ttl=self.config.rreq_ttl,
        )
        self._seen_rreqs[(self.node_id, self._rreq_id)] = (
            now + self.config.path_discovery_time
        )
        attempts, _ = self._discovery.get(destination, (0, 0.0))
        self._discovery[destination] = (
            attempts + 1, now + self.config.rreq_retry_interval
        )
        self._broadcast(rreq)
        self.stats.record_sent("RREQ")
        self.log.log(now, LogCategory.MESSAGE_TX, "RREQ",
                     destination=destination, seq=rreq.rreq_id,
                     originator_seq=rreq.originator_seq, ttl=rreq.ttl)

    def _flush_pending(self, destination: str) -> None:
        self._discovery.pop(destination, None)
        for packet in self._pending.pop(destination, []):
            self._route_data(packet)

    # --------------------------------------------------------------- routes
    def _update_route(self, destination: str, next_hop: str, hop_count: int,
                      destination_seq: int, lifetime: Optional[float] = None) -> None:
        if destination == self.node_id:
            return
        now = self.now
        hold = lifetime if lifetime is not None else self.config.active_route_timeout
        route = self.routes.get(destination)
        fresher = (
            route is None
            or not route.is_active(now)
            or destination_seq > route.destination_seq
            or (destination_seq == route.destination_seq
                and hop_count < route.hop_count)
        )
        if fresher:
            changed = (
                route is None or not route.valid
                or route.next_hop != next_hop or route.hop_count != hop_count
            )
            self.routes[destination] = AodvRoute(
                destination=destination,
                next_hop=next_hop,
                hop_count=hop_count,
                destination_seq=destination_seq,
                expiry_time=now + hold,
                valid=True,
            )
            if changed:
                self.log.log(now, LogCategory.ROUTE, "ROUTE_UPDATED",
                             destination=destination, next_hop=next_hop,
                             hops=hop_count, seq=destination_seq)
        elif (route.valid and route.next_hop == next_hop
              and route.hop_count == hop_count):
            route.expiry_time = max(route.expiry_time, now + hold)
        if destination in self._pending and self.routes[destination].is_active(now):
            self._flush_pending(destination)

    # ------------------------------------------------------------ maintenance
    def _housekeeping(self) -> None:
        now = self.now
        lost = sorted(n for n, expiry in self._neighbor_expiry.items()
                      if expiry <= now)
        for neighbor in lost:
            del self._neighbor_expiry[neighbor]
            self.log.log(now, LogCategory.LINK, "LINK_EXPIRED", neighbor=neighbor)
            self.log.log(now, LogCategory.NEIGHBOR, "NEIGHBOR_REMOVED",
                         neighbor=neighbor)
        if lost:
            broken: List[Tuple[str, int]] = []
            for destination in sorted(self.routes):
                route = self.routes[destination]
                if route.valid and route.next_hop in set(lost):
                    route.valid = False
                    route.destination_seq += 1
                    self.log.log(now, LogCategory.ROUTE, "ROUTE_INVALIDATED",
                                 destination=destination, via=route.next_hop,
                                 reason="link_lost")
                    broken.append((destination, route.destination_seq))
            if broken:
                self._broadcast_rerr(broken)
        for destination in sorted(self.routes):
            route = self.routes[destination]
            if route.valid and route.expiry_time <= now:
                route.valid = False
                self.log.log(now, LogCategory.ROUTE, "ROUTE_EXPIRED",
                             destination=destination)
        self._seen_rreqs = {k: v for k, v in self._seen_rreqs.items() if v > now}
        self._retry_discoveries(now)

    def _retry_discoveries(self, now: float) -> None:
        for destination in sorted(self._discovery):
            attempts, next_retry = self._discovery[destination]
            if now < next_retry:
                continue
            if self.next_hop(destination) is not None:
                self._flush_pending(destination)
            elif attempts > self.config.rreq_retries:
                del self._discovery[destination]
                for packet in self._pending.pop(destination, []):
                    self.log.log(now, LogCategory.DROP, "FILTERED",
                                 reason="route_discovery_failed",
                                 destination=destination)
            else:
                self._originate_rreq(destination)

    # ---------------------------------------------------------------- helpers
    def describe(self) -> Dict[str, object]:
        data = super().describe()
        data["sequence_number"] = self.sequence_number
        data["pending_discoveries"] = sorted(self._discovery)
        return data


def _build_aodv(node_id, network, config=None, log_store=None, seed=None):
    return AodvNode(node_id, network, config=config,
                    log_store=log_store, seed=seed)


register_protocol(
    "aodv",
    _build_aodv,
    "AODV (RFC 3561): reactive RREQ/RREP/RERR discovery, sequence numbers, "
    "route expiry, hop-count metric",
)
