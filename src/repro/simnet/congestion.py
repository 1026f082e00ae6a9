"""Congestion control for the simulated fabric: bounded egress queues,
ECN marking, and a DCQCN-flavoured per-QP rate limiter.

The ``busy_until`` link model already yields exact FIFO queueing, but the
queues are unbounded and invisible to senders: every flow sees an ideal
pipe, so the classic datacenter pathologies (N:1 incast collapse,
elephants starving mice) never appear. This module closes that gap with
three deterministic mechanisms, all guarded so that a cluster without an
installed plane executes the exact pre-congestion code paths
(``congestion=None`` keeps every fingerprint metric bit-identical):

* **Bounded egress queues** — each destination downlink (the switch
  egress port) carries a *virtual queue*: occupancy that fills per
  admitted packet and drains at line rate, computed in closed form (no
  extra kernel events). A sender whose message would overflow the
  configured capacity holds the WQE back just long enough for the queue
  to drain room (PFC-style lossless hold-off), so the level stays
  bounded by construction. The ``busy_until`` horizon cannot play this
  role — it absorbs every posted byte at post time, hold-offs included.
* **ECN marking** — when the virtual-queue occupancy observed at
  admission time crosses the ``kmin``/``kmax`` band, packets are marked
  with a RED-style ramp. Marking is *deterministic*: an error-diffusion
  accumulator per link replaces the RNG coin flip, so a mark pattern is
  a pure function of the traffic timeline.
* **DCQCN-flavoured rate control** — a marked packet triggers a CNP back
  to the sending QP one control-latency after arrival. The QP reacts
  with multiplicative decrease (scaled by the EWMA mark estimate
  ``alpha``), then recovers through fast-recovery / additive-increase /
  hyper-increase timer rounds driven by the event kernel. UD multicast
  uses a simpler mark-aware pacing factor per sending node.

Timers and CNPs schedule kernel events **only while a plane is installed**
— which is allowed: with congestion enabled the contract is per-seed
bit-reproducibility, not event-pattern neutrality. Any configured jitter
draws from the node's ``backoff_rng`` stream (deterministic per seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.planelog import EDGE, EVENT

if TYPE_CHECKING:
    from repro.simnet.cluster import Cluster
    from repro.simnet.node import Node

_INF = math.inf


@dataclass(frozen=True)
class CongestionConfig:
    """ECN / rate-limit policy of one cluster (``FlowOptions(congestion=...)``).

    The defaults scale the DCQCN paper's constants down to the
    simulator's microsecond-scale flows: the band sits at a handful of
    8 KiB segments, the CNP gate and recovery period at a few RTTs.
    """

    #: Egress queue bound per link, in bytes. A sender holds a WQE back
    #: until the destination queue has room (lossless PFC-style
    #: hold-off). ``inf`` disables the bound.
    queue_capacity: float = 256 * 1024
    #: ECN band: below ``kmin`` bytes of occupancy nothing is marked.
    kmin: float = 32 * 1024
    #: Above ``kmax`` every packet is marked; in between the marking
    #: probability ramps linearly from 0 to ``pmax``.
    kmax: float = 128 * 1024
    #: Marking probability at the top of the linear ramp.
    pmax: float = 0.25
    #: Rate floor as a fraction of line rate — guarantees progress, so a
    #: throttled flow can never hang (the no-hang invariant leans on it).
    min_rate_fraction: float = 0.01
    #: EWMA gain for the mark estimate ``alpha`` (DCQCN's ``g``).
    alpha_g: float = 0.0625
    #: Minimum gap between successive multiplicative decreases (the CNP
    #: gate, DCQCN's per-flow CNP timer), in ns.
    cnp_interval: float = 4_000.0
    #: Period of the rate-increase / alpha-decay timer, in ns.
    recovery_period: float = 16_000.0
    #: Fast-recovery rounds (rate halves back toward target) before
    #: additive increase starts raising the target.
    fast_recovery_rounds: int = 5
    #: Additive increase per recovery round, as a fraction of line rate.
    ai_fraction: float = 0.005
    #: Hyper-increase per round (after ``5 * fast_recovery_rounds``
    #: mark-free rounds), as a fraction of line rate.
    hai_fraction: float = 0.05
    #: Relative jitter on the recovery period (desynchronizes incast
    #: senders). Drawn from the node's ``backoff_rng`` stream; 0 draws
    #: no randomness at all.
    recovery_jitter: float = 0.0
    #: UD multicast: multiplicative pacing-factor cut on a congested
    #: member downlink, and the additive recovery step per period.
    ud_decrease: float = 0.5
    ud_recovery_step: float = 0.1

    def __post_init__(self) -> None:
        if self.queue_capacity <= 0:
            raise ConfigurationError("queue_capacity must be positive")
        if not 0 < self.kmin <= self.kmax:
            raise ConfigurationError("need 0 < kmin <= kmax")
        if not 0.0 < self.pmax <= 1.0:
            raise ConfigurationError("pmax must be in (0, 1]")
        if not 0.0 < self.min_rate_fraction <= 1.0:
            raise ConfigurationError("min_rate_fraction must be in (0, 1]")
        if not 0.0 < self.alpha_g <= 1.0:
            raise ConfigurationError("alpha_g must be in (0, 1]")
        if self.cnp_interval <= 0 or self.recovery_period <= 0:
            raise ConfigurationError(
                "cnp_interval and recovery_period must be positive")
        if self.fast_recovery_rounds < 1:
            raise ConfigurationError("fast_recovery_rounds must be >= 1")
        if self.ai_fraction <= 0 or self.hai_fraction <= 0:
            raise ConfigurationError(
                "ai_fraction and hai_fraction must be positive")
        if self.recovery_jitter < 0 or self.recovery_jitter >= 1:
            raise ConfigurationError("recovery_jitter must be in [0, 1)")
        if not 0.0 < self.ud_decrease < 1.0:
            raise ConfigurationError("ud_decrease must be in (0, 1)")
        if not 0.0 < self.ud_recovery_step <= 1.0:
            raise ConfigurationError("ud_recovery_step must be in (0, 1]")

    @classmethod
    def unbounded(cls) -> "CongestionConfig":
        """A config whose thresholds never trip: the plane's machinery
        runs end to end but adds zero delay, marks nothing, and schedules
        no events — the neutrality probe used by
        ``fingerprint.py --check-congestion-neutral``."""
        return cls(queue_capacity=_INF, kmin=_INF, kmax=_INF)

    @classmethod
    def datacenter(cls) -> "CongestionConfig":
        """The scenario-suite config: a band tight enough that 8:1 incast
        marks, with mild recovery jitter to desynchronize senders. The
        floor/recovery constants are tuned so marking stays heavy under
        fan-in while completion-time inflation stays small (incast
        senders synchronize on a capacity-pinned queue, so a too-low
        floor with slow additive increase collapses aggregate demand far
        below line rate)."""
        return cls(queue_capacity=192 * 1024, kmin=24 * 1024,
                   kmax=96 * 1024, min_rate_fraction=0.05,
                   cnp_interval=8_000.0, recovery_period=8_000.0,
                   ai_fraction=0.02, hai_fraction=0.1,
                   recovery_jitter=0.1)


class _LinkQueue:
    """Virtual egress queue of one link: occupancy that fills on each
    admitted packet and drains at line rate, in closed form (no kernel
    events). The ``busy_until`` horizon can't serve as the queue — every
    posted-but-unserialized byte lands on it *at post time*, even bytes a
    PFC hold-off is still keeping at the sender — so the plane tracks
    what the switch egress port would actually hold: bytes whose
    admission time has passed but whose serialization hasn't finished.
    ``admit`` keeps this level ≤ ``queue_capacity`` by construction.

    Also carries the marking accumulator and per-link tallies."""

    __slots__ = ("level", "last", "accum", "packets", "marks", "peak",
                 "pfc_stalls")

    def __init__(self) -> None:
        #: Queue level in bytes at time ``last``.
        self.level = 0.0
        self.last = 0.0
        self.accum = 0.0
        self.packets = 0
        self.marks = 0
        self.peak = 0.0
        self.pfc_stalls = 0

    def admit(self, t: float, size: int, capacity: float,
              bandwidth: float) -> tuple[float, float]:
        """Admit ``size`` bytes arriving at the port at ``t``. Returns
        ``(holdoff_delay, level_after)``: the PFC hold-off needed to keep
        the queue within ``capacity`` (0.0 when it fits) and the
        occupancy including this packet (what RED marks against)."""
        level = self.level - (t - self.last) * bandwidth
        if level < 0.0:
            level = 0.0
        delay = 0.0
        if level + size > capacity:
            # Hold the packet at the sender until the queue has drained
            # room for it — lossless PFC back-pressure in closed form.
            delay = (level + size - capacity) / bandwidth
            level = capacity - size
        level += size
        self.level = level
        self.last = t + delay
        if level > self.peak:
            self.peak = level
        return delay, level

    def peek(self, now: float, bandwidth: float) -> float:
        """Occupancy at ``now`` (conservative: a level stamped by a
        hold-off in the near future is reported undrained)."""
        elapsed = now - self.last
        if elapsed <= 0.0:
            return self.level
        level = self.level - elapsed * bandwidth
        return level if level > 0.0 else 0.0


class _RcRate:
    """DCQCN state of one RC queue pair (sender side)."""

    __slots__ = ("plane", "qp", "rate", "target", "alpha", "next_free",
                 "last_cut", "rounds", "timer_armed", "cnps", "cuts",
                 "last_occupancy")

    def __init__(self, plane: "CongestionPlane", qp) -> None:
        self.plane = plane
        self.qp = qp
        line = plane.line_rate
        self.rate = line
        self.target = line
        self.alpha = 1.0
        #: Pacing horizon: absolute ns at which the next WQE may start.
        self.next_free = 0.0
        self.last_cut = -_INF
        self.rounds = 0
        self.timer_armed = False
        self.cnps = 0
        self.cuts = 0
        #: Egress-queue level seen by this QP's latest admitted WQE
        #: (bytes, including the WQE itself) — what ``rc_sent`` marks
        #: against.
        self.last_occupancy = 0.0

    # -- CNP reaction (multiplicative decrease) ---------------------------
    def on_cnp(self) -> None:
        plane = self.plane
        cfg = plane.config
        self.cnps += 1
        plane.cnps_delivered += 1
        self.alpha = (1.0 - cfg.alpha_g) * self.alpha + cfg.alpha_g
        now = plane.env.now
        if now - self.last_cut < cfg.cnp_interval:
            return  # CNP gate: at most one cut per interval
        self.last_cut = now
        self.target = self.rate
        floor = plane.min_rate
        self.rate = max(floor, self.rate * (1.0 - self.alpha / 2.0))
        self.rounds = 0
        self.cuts += 1
        plane._emit_rate(self)
        self._arm_timer()

    # -- recovery timer (additive / hyper increase) -----------------------
    def _arm_timer(self) -> None:
        if self.timer_armed:
            return
        self.timer_armed = True
        plane = self.plane
        cfg = plane.config
        period = cfg.recovery_period
        if cfg.recovery_jitter:
            period *= 1.0 + cfg.recovery_jitter * (
                self.qp.node.backoff_rng.random() - 0.5)
        env = plane.env
        env.schedule_train([(env._now + period, self._on_recovery, None)])

    def _on_recovery(self, _arg) -> None:
        self.timer_armed = False
        plane = self.plane
        cfg = plane.config
        line = plane.line_rate
        self.alpha *= 1.0 - cfg.alpha_g
        self.rounds += 1
        if self.rounds > cfg.fast_recovery_rounds:
            # Past fast recovery: raise the target (hyper-increase once
            # the path has stayed mark-free for a long stretch).
            step = (cfg.hai_fraction
                    if self.rounds > 5 * cfg.fast_recovery_rounds
                    else cfg.ai_fraction)
            self.target = min(line, self.target + step * line)
        self.rate = min(line, 0.5 * (self.rate + self.target))
        plane._emit_rate(self)
        if self.rate < line or self.alpha > 1e-3:
            self._arm_timer()

    # -- admission --------------------------------------------------------
    def admit(self, size: int) -> float:
        """Delay (ns from now) to add before this WQE's wire reservation:
        rate pacing plus the bounded-egress-queue hold-off."""
        plane = self.plane
        now = plane.env.now
        delay = 0.0
        rate = self.rate
        if rate < plane.line_rate:
            start = self.next_free
            if start < now:
                start = now
            self.next_free = start + size / rate
            delay = start - now
        pacing = delay
        qp = self.qp
        dst = qp.remote_node
        hold = 0.0
        if dst is not qp.node:
            down = dst.downlink
            queue = plane._link(down)
            hold, level = queue.admit(now + delay, size,
                                      plane.config.queue_capacity,
                                      down.bandwidth)
            if hold > 0.0:
                delay += hold
                queue.pfc_stalls += 1
                plane.pfc_stalls += 1
            self.last_occupancy = level
        if delay > 0.0:
            obs = qp.node.metrics
            if obs is not None and obs.causal:
                tid = f"qp{qp.qpn}"
                if pacing > 0.0:
                    obs.log((EDGE, now + pacing, now, "ecn_pacing",
                             qp.node.node_id, tid, None, None))
                if hold > 0.0:
                    # Charged against the *destination* — hold-off is the
                    # hot target's bounded egress queue pushing back, which
                    # is what hot-target ranking sums per node.
                    obs.log((EDGE, now + pacing + hold, now + pacing,
                             "congestion_holdoff", dst.node_id, tid, None,
                             qp.node.node_id))
        return delay


class _UdPace:
    """Mark-aware pacing state of one node's UD multicast sends."""

    __slots__ = ("factor", "next_free", "last_cut", "timer_armed", "cuts")

    def __init__(self) -> None:
        self.factor = 1.0
        self.next_free = 0.0
        self.last_cut = -_INF
        self.timer_armed = False
        self.cuts = 0


class CongestionPlane:
    """Congestion state of one cluster (``cluster.congestion``).

    Installed via :meth:`repro.simnet.cluster.Cluster.install_congestion`
    (directly, or implicitly by initializing a flow whose
    ``FlowOptions.congestion`` is set). Queue pairs consult the plane per
    posted operation through one attribute lookup that short-circuits on
    ``None`` — an uninstalled plane costs the hot path nothing and keeps
    the event pattern of a build without this module.
    """

    def __init__(self, cluster: "Cluster", config: CongestionConfig) -> None:
        if not isinstance(config, CongestionConfig):
            raise ConfigurationError(
                f"install_congestion needs a CongestionConfig, got "
                f"{type(config).__name__}")
        self.cluster = cluster
        self.env = cluster.env
        self.config = config
        self.line_rate = cluster.profile.link_bandwidth
        self.min_rate = config.min_rate_fraction * self.line_rate
        self._rc: dict = {}
        self._by_path: dict[tuple[int, int], list[_RcRate]] = {}
        self._by_dst: dict[int, list[_RcRate]] = {}
        self._ud: dict[int, _UdPace] = {}
        self._links: dict = {}
        self._trace_log = None
        # Plane-wide tallies (per-link detail lives in _LinkStats).
        self.packets_seen = 0
        self.ecn_marks = 0
        self.cnps_delivered = 0
        self.pfc_stalls = 0
        self.ud_cuts = 0

    # -- state lookup ------------------------------------------------------
    def rc_state(self, qp) -> _RcRate:
        state = self._rc.get(qp)
        if state is None:
            state = self._rc[qp] = _RcRate(self, qp)
            src = qp.node.node_id
            dst = qp.remote_node.node_id
            self._by_path.setdefault((src, dst), []).append(state)
            self._by_dst.setdefault(dst, []).append(state)
        return state

    def _link(self, link) -> _LinkQueue:
        queue = self._links.get(link)
        if queue is None:
            queue = self._links[link] = _LinkQueue()
        return queue

    def _occupancy(self, link, now: float) -> float:
        """Virtual-queue level of ``link`` at ``now`` (0 when the link
        has never carried congestion-tracked traffic)."""
        queue = self._links.get(link)
        if queue is None:
            return 0.0
        return queue.peek(now, link.bandwidth)

    # -- RC hot-path hooks (called from rdma.qp) ---------------------------
    def rc_admit(self, qp, size: int) -> "tuple[float, _RcRate | None]":
        """Admission delay for one RC data WQE (pacing + queue bound) and
        the QP's rate state, which the caller hands back to
        :meth:`rc_sent` after the wire reservation — ``None`` on
        loopback, which bypasses the switch: no egress queue, no mark."""
        if qp.remote_node is qp.node:
            return 0.0, None
        state = self.rc_state(qp)
        return state.admit(size), state

    def rc_sent(self, state: _RcRate, size: int,
                arrival_delay: float) -> None:
        """Observe one admitted RC data WQE after its wire reservation:
        record egress occupancy, decide the ECN mark, and schedule the
        CNP back to the QP when marked. ``state`` is what
        :meth:`rc_admit` returned for the WQE (never ``None``)."""
        qp = state.qp
        dst = qp.remote_node
        # The queue level this WQE saw at admission time (set by
        # rc_admit just before the wire reservation) — the switch's RED
        # engine marks against instantaneous egress occupancy.
        occupancy = state.last_occupancy
        stats = self._link(dst.downlink)
        stats.packets += 1
        self.packets_seen += 1
        metrics = dst.metrics
        if metrics is not None:
            metrics.observe("net.queue_depth", occupancy)
        cfg = self.config
        if occupancy <= cfg.kmin:
            return
        if occupancy >= cfg.kmax:
            probability = 1.0
        else:
            probability = (cfg.pmax * (occupancy - cfg.kmin)
                           / (cfg.kmax - cfg.kmin))
        # Deterministic RED: error-diffusion accumulator instead of a
        # coin flip — the mark pattern is a pure function of the traffic.
        stats.accum += probability
        if stats.accum < 1.0:
            return
        stats.accum -= 1.0
        stats.marks += 1
        self.ecn_marks += 1
        if metrics is not None:
            metrics.inc("net.ecn_marks")
            metrics.observe("net.mark_occupancy", occupancy)
        log = self._trace()
        if log is not None:
            log((EVENT, self.env.now, "ECN_MARK", "congestion", dst.node_id,
                 f"qp{qp.qpn}", {"occupancy": int(occupancy)}))
        # The receiver NIC turns the mark into a CNP one control latency
        # after the marked packet arrives.
        env = self.env
        env.schedule_train([
            (env._now + (arrival_delay + self.cluster.profile.wire_latency),
             _RcRate.on_cnp, state)])

    # -- UD multicast hooks ------------------------------------------------
    def ud_state(self, node: "Node") -> _UdPace:
        state = self._ud.get(node.node_id)
        if state is None:
            state = self._ud[node.node_id] = _UdPace()
        return state

    def ud_admit(self, node: "Node", size: int) -> float:
        """Pacing delay for one multicast datagram from ``node``."""
        state = self.ud_state(node)
        if state.factor >= 1.0:
            return 0.0
        now = self.env.now
        start = state.next_free
        if start < now:
            start = now
        state.next_free = start + size / (self.line_rate * state.factor)
        delay = start - now
        if delay > 0.0 and node.metrics is not None and node.metrics.causal:
            node.metrics.log((EDGE, now + delay, now, "ecn_pacing",
                              node.node_id, "ud", None, None))
        return delay

    def ud_sent(self, node: "Node", members, size: int) -> None:
        """Observe one multicast send: each member downlink's virtual
        queue absorbs the datagram (no hold-off — UD is unacknowledged,
        so the bytes are already committed to the wire), and the
        most-congested member drives the pacing factor (cut at most once
        per CNP interval)."""
        now = self.env.now
        worst = 0.0
        for member in members:
            if member is node:
                continue
            down = member.downlink
            queue = self._link(down)
            _, occupancy = queue.admit(now, size, _INF, down.bandwidth)
            queue.packets += 1
            metrics = member.metrics
            if metrics is not None:
                metrics.observe("net.queue_depth", occupancy)
            if occupancy > worst:
                worst = occupancy
        self.packets_seen += 1
        cfg = self.config
        state = self.ud_state(node)
        if worst > cfg.kmin:
            if now - state.last_cut >= cfg.cnp_interval:
                state.last_cut = now
                state.factor = max(cfg.min_rate_fraction,
                                   state.factor * cfg.ud_decrease)
                state.cuts += 1
                self.ud_cuts += 1
                metrics = node.metrics
                if metrics is not None:
                    metrics.inc("net.ud_pace_cuts")
                log = self._trace()
                if log is not None:
                    log((EVENT, now, "RATE_CHANGE", "congestion",
                         node.node_id, "ud", {"factor": state.factor}))
                self._arm_ud_recovery(node, state)

    def _arm_ud_recovery(self, node: "Node", state: _UdPace) -> None:
        if state.timer_armed:
            return
        state.timer_armed = True
        env = self.env
        env.schedule_train([(env._now + self.config.recovery_period,
                             self._ud_recover, (node, state))])

    def _ud_recover(self, args) -> None:
        """Recovery-timer action of one node's UD pacing factor."""
        node, state = args
        state.timer_armed = False
        state.factor = min(1.0, state.factor + self.config.ud_recovery_step)
        log = self._trace()
        if log is not None:
            log((EVENT, self.env.now, "RATE_CHANGE", "congestion",
                 node.node_id, "ud", {"factor": state.factor}))
        if state.factor < 1.0:
            self._arm_ud_recovery(node, state)

    # -- failure-detection queries (flow layer) ----------------------------
    def throttled_path(self, src: "Node", dst: "Node") -> bool:
        """True while traffic from ``src`` to ``dst`` is visibly
        congestion-limited: the egress queue at either end sits above
        ``kmin``, or a rate limiter on the path is cut below line rate.
        Self-clearing by construction — queues drain monotonically and
        recovery timers restore every rate to line — so a failure
        deadline granting grace on this query can never hang."""
        now = self.env.now
        kmin = self.config.kmin
        if self._occupancy(dst.downlink, now) >= kmin:
            return True
        if self._occupancy(src.uplink, now) >= kmin:
            return True
        threshold = self.line_rate * 0.95
        for state in self._by_path.get((src.node_id, dst.node_id), ()):
            if state.rate < threshold:
                return True
        ud = self._ud.get(src.node_id)
        return ud is not None and ud.factor < 0.95

    def throttled_inbound(self, node: "Node") -> bool:
        """True while any path *into* ``node`` is congestion-limited
        (consume-side deadline grace)."""
        now = self.env.now
        if self._occupancy(node.downlink, now) >= self.config.kmin:
            return True
        threshold = self.line_rate * 0.95
        for state in self._by_dst.get(node.node_id, ()):
            if state.rate < threshold:
                return True
        for ud in self._ud.values():
            if ud.factor < 0.95:
                return True
        return False

    # -- observability -----------------------------------------------------
    def _trace(self):
        """The obs plane log's ``append`` (``None`` while observability
        is off), resolved lazily: the first use creates the
        ``"congestion"`` trace ring the plane's events are derived into.
        Pure Python-side bookkeeping — zero kernel events, zero RNG."""
        if self._trace_log is None:
            obs = self.cluster.obs
            if obs is not None:
                obs.tracer("congestion", True)
                self._trace_log = obs.records.append
        return self._trace_log

    def _emit_rate(self, state: _RcRate) -> None:
        qp = state.qp
        metrics = qp.node.metrics
        if metrics is not None:
            metrics.inc("net.rate_changes")
        log = self._trace()
        if log is not None:
            log((EVENT, self.env.now, "RATE_CHANGE", "congestion",
                 qp.node.node_id, f"qp{qp.qpn}",
                 {"rate": state.rate, "target": state.target,
                  "alpha": state.alpha}))

    def stats(self) -> dict:
        """JSON-safe snapshot: plane tallies, per-link queue/mark detail
        (integer bytes — see ``Link.busy_until_ns``), per-QP final rates."""
        now = self.env.now
        links = {}
        for link, queue in self._links.items():
            links[link.name] = {
                "packets": queue.packets,
                "marks": queue.marks,
                "mark_rate": (queue.marks / queue.packets
                              if queue.packets else 0.0),
                "peak_queue_bytes": int(queue.peak),
                "queue_bytes": int(queue.peek(now, link.bandwidth)),
                "horizon_backlog_bytes": link.backlog_bytes(now),
                "pfc_stalls": queue.pfc_stalls,
            }
        rates = {}
        for state in self._rc.values():
            qp = state.qp
            key = f"{qp.node.name}:{qp.qpn}->{qp.remote_node.name}"
            rates[key] = {
                "rate_fraction": state.rate / self.line_rate,
                "cnps": state.cnps,
                "cuts": state.cuts,
            }
        return {
            "packets_seen": self.packets_seen,
            "ecn_marks": self.ecn_marks,
            "cnps_delivered": self.cnps_delivered,
            "pfc_stalls": self.pfc_stalls,
            "ud_cuts": self.ud_cuts,
            "links": links,
            "qp_rates": rates,
        }


def stall_is_congestion(node: "Node",
                        remote: "Node | None" = None) -> bool:
    """Failure-detection helper: is a stall observed at ``node`` plausibly
    congestion rather than peer failure? ``remote`` names the send-side
    peer (writers); ``None`` asks about any inbound path (targets).
    False whenever no plane is installed — the deadline semantics of a
    congestion-free build are untouched."""
    plane = node.cluster.congestion
    if plane is None:
        return False
    if remote is None:
        return plane.throttled_inbound(node)
    return plane.throttled_path(node, remote)


# -- default-config hook (fingerprint --check-congestion-neutral) ------------
#: When set, every newly built Cluster installs a congestion plane with
#: this config in its constructor — the harness hook that proves an
#: unbounded config causes zero timeline drift even for clusters built
#: deep inside bench helpers.
_default_config: "CongestionConfig | None" = None


def set_default_config(config: "CongestionConfig | None") -> None:
    """Install ``config`` on every cluster created from now on (``None``
    clears). Intended for harnesses, not applications."""
    global _default_config
    _default_config = config


def _install_default(cluster: "Cluster") -> None:
    if _default_config is not None:
        cluster.install_congestion(_default_config)
