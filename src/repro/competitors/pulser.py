"""Pulser-style explicit incast notification.

Pulser (Almasi et al.) detects incast *in the network* and notifies every
implicated sender explicitly, instead of waiting for per-flow congestion
signals to trickle back.  Modeled here as an agent at the receiver's
attachment point — the vantage the last-hop ToR has — that feeds every
arriving data packet into a detection backend and, when the backend fires,
multicasts an early congestion *pulse* to all active senders.

The pulse reuses the transport's NACK machinery, which is exactly the
point of comparison with the paper's proxy: a NACK for the receiver's
next-expected sequence makes the sender treat that segment as lost *now*
(severe multiplicative back-off plus one immediate retransmission),
delivering the early-notification benefit without any proxy detour.  The
price the bake-off exposes is the spurious retransmission each pulse
induces and the detection lag of the backend itself.

Two registry entries share this wiring: ``pulser`` runs the single-vantage
:class:`~repro.patterns.detector.OnlineIncastDetector`, ``pulser-dist``
the sketch-merging :class:`~repro.patterns.distributed.
DistributedIncastDetector` — the detection backend is scheme-selectable
via :func:`~repro.patterns.distributed.make_detection_backend`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.packet import Packet, PacketType, make_nack
from repro.proxy.streamlined import ProxyStats
from repro.schemes import SchemeWiring
from repro.transport.connection import Connection
from repro.units import milliseconds

# Read per packet: a module global loads faster than an enum member.
_DATA = PacketType.DATA

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Host, PacketHandler
    from repro.patterns.detector import DetectionEvent, DetectorSettings
    from repro.patterns.distributed import DetectionBackend
    from repro.schemes import SchemeContext
    from repro.sim.simulator import Simulator
    from repro.transport.connection import Connection as _Connection


class PulserAgent:
    """The in-network detector + notifier, folded onto the receiver host.

    Taps each watched flow's packet handler to feed the detection backend,
    and on every detection multicasts one pulse NACK per active flow back
    to its sender.

    Exposes :class:`~repro.proxy.streamlined.ProxyStats` so the runner
    aggregates pulses into the result's ``proxy_nacks_sent`` column.
    """

    def __init__(
        self, sim: "Simulator", host: "Host", backend: "DetectionBackend"
    ) -> None:
        self.sim = sim
        self.host = host
        self.backend = backend
        self.stats = ProxyStats()
        self._flows: list[tuple["_Connection", "Host"]] = []

    def watch(self, conn: "Connection", sender_host: "Host") -> None:
        """Interpose on ``conn``'s receiver handler to observe arrivals."""
        host = self.host
        flow_id = conn.flow_id
        inner = host.handlers[flow_id]
        host.unregister_handler(flow_id)

        def tap(packet: Packet, _inner: "PacketHandler" = inner) -> None:
            event: "DetectionEvent | None" = None
            if packet.kind == _DATA and not packet.trimmed:
                event = self.backend.observe(
                    self.sim.now, packet.src, host.id, packet.payload_bytes
                )
            _inner(packet)
            if event is not None:
                # Emit off the delivery call stack, as a zero-delay event:
                # the pulses then leave after every event already queued for
                # this tick, and the ``pulser``/``pulser-dist`` golden
                # digests pin that same-tick order.
                self.sim.schedule(0, self._emit_pulses)

        host.register_handler(flow_id, tap)
        self._flows.append((conn, sender_host))

    def _emit_pulses(self) -> None:
        for conn, sender_host in self._flows:
            receiver = conn.receiver
            if receiver.completed:
                continue
            # NACK the receiver's next-expected sequence: almost always in
            # flight mid-incast, so the sender takes a severe cut at once.
            # If it is not in flight the sender ignores the pulse — the
            # notification is best-effort, like any in-network signal.
            pulse = make_nack(
                conn.flow_id, receiver.cum, self.host.id, sender_host.id
            )
            self.stats.nacks_sent += 1
            self.host.send(pulse)


def _pulser_settings(ctx: "SchemeContext") -> DetectorSettings:
    """Thresholds scaled to the scenario so smoke-sized runs still detect."""
    from repro.patterns.detector import DetectorSettings

    scenario = ctx.scenario
    return DetectorSettings(
        window_ps=milliseconds(1),
        min_sources=max(2, min(3, len(ctx.senders))),
        min_bytes=max(1, min(1_000_000, scenario.total_bytes // 8)),
        cooldown_ps=milliseconds(1),
    )


def _wire_pulser_common(ctx: "SchemeContext", backend_name: str) -> SchemeWiring:
    from repro.patterns.distributed import make_detection_backend

    wiring = SchemeWiring()
    backend = make_detection_backend(backend_name, _pulser_settings(ctx))
    agent = PulserAgent(ctx.sim, ctx.receiver, backend)
    wiring.nack_proxies.append(agent)
    for i, (host, size) in enumerate(zip(ctx.senders, ctx.sizes)):
        conn = Connection(
            ctx.net, host, ctx.receiver, size, ctx.scenario.transport,
            on_receiver_complete=ctx.make_on_done(i),
            on_sender_fail=ctx.make_on_fail(i),
            label=f"{ctx.scenario.scheme}{i}",
        )
        agent.watch(conn, host)
        wiring.senders.append(conn.sender)
        conn.start()
    return wiring


def _wire_pulser(ctx: "SchemeContext") -> SchemeWiring:
    """Pulser with the single-vantage online detector."""
    return _wire_pulser_common(ctx, "online")


def _wire_pulser_dist(ctx: "SchemeContext") -> SchemeWiring:
    """Pulser with the distributed sketch-merging detector."""
    return _wire_pulser_common(ctx, "distributed")
