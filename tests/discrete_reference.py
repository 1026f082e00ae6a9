"""The discrete per-WQE RC write walk and the per-group CPU charge of a
batched push, kept as test oracles.

Under an active fault plane ``QueuePair.post_lone`` and ``post_train``
take the macro walk: each WQE is admitted against the path state when it
is posted (a train WQE at its wire start), and its actions are cut at the
peer's crash instant, which the plane fixed when it was installed. This
module keeps the walk that walk replaced, member for member: an arrival
event, a prefix timer and a completion action per admitted WQE, each
re-checking the peer's liveness when it fires.

``ShuffleSource.push_batch`` charges the CPU once per flush boundary:
the groups that only stage rows add their delays to one absolute
deadline, slept before the next flush. This module keeps the walk that
replaced, one sleep per channel group and then its staging
(:func:`push_batch_per_group`).

``UdQueuePair.post_send_multicast`` walks a datagram's fan-out as one
macro-event. This module keeps the fan-out it replaced, one
``Fabric.multicast`` arrival timer per member
(:func:`post_send_multicast_per_member`); ``per_member_multicast()``
sends every multicast post through it and yields
``{"datagrams": n}``.

``installed()`` patches ``QueuePair`` so that, while the block runs and a
fault plane is active, every write takes these discrete events; with no
active fault plane the product methods run unchanged. It also sends every
``push_batch`` through the per-group walk, fault plane or not. It yields a
count of the WQEs posted through the discrete walk::

    with discrete_reference.installed() as posts:
        cluster.run()
    assert posts["wqes"] > 0

Equivalence tests run the same workload once under ``installed()`` and
once without it and compare everything observable with ``==``.

``Environment.schedule_train`` queues each run of equal-instant actions
as a queue entry of its own. This module keeps the walk that replaced:
one pooled :class:`MacroEvent` per train, queued under the one sequence
number the train drew and re-queued under it once per distinct instant.
``macro_walker()`` sends every train through it and yields
``{"trains": n}``.

A latency ``ShuffleSource.push`` whose credit window is open runs ahead
of the clock: it charges its CPU time to the thread's local instant and
queues its write as a link of the thread's chain
(``Environment.run_ahead``). This module keeps the push that replaced:
it returns the channel's ``_write_slot``, which sleeps through the
charge and posts when the thread resumes (:func:`sleeping_push`);
``sleeping_latency_push()`` sends every push through it and yields
``{"pushes": n}``, the number of latency pushes it made.
"""

import heapq
from contextlib import contextmanager

from repro.common.errors import (
    FlowClosedError,
    FlowError,
    FlowTimeoutError,
    QpFlushedError,
)
from repro.common.planelog import TRAIN, WQE
from repro.core.flowdef import NO_FLUSH
from repro.core.routing import _HASH_MASK, _HASH_MULT
from repro.core.shuffle import (
    _FLAG_WORDS,
    _FOOTER_PACK_INTO,
    ShuffleSource,
    _route_slot,
    _struct_error,
)
from repro.rdma.completion import Opcode, WcStatus, WorkRequest
from repro.rdma.memory import MemoryRegion
from repro.rdma.qp import (
    _ORDERED_TAIL,
    QueuePair,
    UdQueuePair,
    _as_bytes,
    _commit_write,
    _split_ordered_tail,
)
from repro.simnet.kernel import _PENDING, Environment, Event


# -- the four discrete members, as ``QueuePair`` carried them -----------------

def _post_lone_discrete(self, wr, size, pieces, region, offset,
                        faults, congestion) -> None:
    """Eager posting under an active fault plane (a congestion plane
    may be stacked on it): admit the WQE against the path state now,
    then arm its discrete events."""
    if wr is None:
        wr = WorkRequest(self.env, None, Opcode.WRITE, False)
    admit = faults.rc_admission(self.node, self.remote_node)
    if admit is None:
        self._flush_after(wr, faults.detection_timeout,
                          WcStatus.RETRY_EXC_ERR)
        return
    rate = None
    if congestion is not None:
        paced, rate = congestion.rc_admit(self, size)
        admit += paced
    # Admission precedes arbitration here: the planes anchor their
    # edges on [now, now + admit], the NIC edge starts where they end.
    issue_delay = self.nic.engine_delay(size <= self._inline_max) + admit
    split = size - _ORDERED_TAIL
    prefix_pieces, tail_pieces = (
        _split_ordered_tail(pieces, split) if split > 0 else ((), pieces))
    self._post_discrete(wr, size, prefix_pieces, tail_pieces, region,
                        offset, admit, issue_delay, 0.0, rate)


def _post_discrete(self, wr: WorkRequest, size: int, prefix_pieces,
                   tail_pieces, region: MemoryRegion, base: int,
                   arb_from: float, arb_to: float, held: float,
                   rate) -> None:
    """The discrete per-WQE body every admitted write takes while a
    fault plane is active (:meth:`_post_lone_discrete`,
    :meth:`_post_train_sequential`): an arrival event, a prefix timer
    one tail-serialization earlier when ``prefix_pieces`` is
    non-empty, and a completion action (``QueuePair._finish``) at the
    instant its timer fired, each re-checking the peer's
    liveness when it fires. NIC arbitration spans the offsets
    ``[arb_from, arb_to]`` from now; the WQE is handed to the wire
    ``held`` ns after that (admission a train applies per WQE at its
    wire-start time). ``rate`` is the congestion plane's state of
    this QP when one is stacked on the fault plane (``rc_admit``
    returned it), else ``None``."""
    env = self.env
    self.nic.bytes_posted += size
    arrival = self.node.cluster.fabric.unicast(
        self.node, self.remote_node, size, delay=arb_to + held)
    if rate is not None:
        rate.plane.rc_sent(rate, size, arrival.delay)
    obs = self._obs
    if obs is not None and obs.causal:
        # The admission planes log the delay they add themselves.
        now = env.now
        obs.log((WQE, self, now + arb_from, now + arb_to,
                 now + arb_to + held, now + arrival.delay))
    if prefix_pieces:
        prefix_timer = env.timeout(max(
            0.0, arrival.delay
            - _ORDERED_TAIL / self.nic.profile.link_bandwidth))
        prefix_timer.callbacks.append(
            self._commit_if_alive(region, base, prefix_pieces))
    arrival.callbacks.append(
        self._commit_if_alive(region, base, tail_pieces))
    env.schedule_train([(env.now + (arrival.delay + self._ack_delta),
                         self._finish, (wr, size))])


def _commit_if_alive(self, region: MemoryRegion, base: int, parts):
    """Event callback committing ``parts`` into ``region`` unless the
    peer crashed while they were in flight."""
    def commit(_event):
        faults = self._faults()
        if faults is not None and not faults.node_alive(self.remote_node):
            return  # crashed memory accepts no more commits
        _commit_write((region, base, parts))
    return commit


def _post_train_sequential(self, entries, faults, congestion) -> None:
    """Train posting under an active fault plane (a congestion plane
    may be stacked on it).

    The NIC drains a doorbell train sequentially, so each WQE is
    admitted against the path state at its own wire-serialization start
    time (NIC issue or the uplink busy horizon, whichever is later):
    an outage that begins mid-train delivers the prefix of the train
    and flushes the failing WQE *and every later one* with
    ``RETRY_EXC_ERR`` (the QP enters the error state; real RC flushes
    the rest of the send queue). A stacked congestion plane paces and
    marks each admitted WQE as :meth:`post_train` does without faults.
    Admitted WQEs take the discrete per-WQE body
    (:meth:`_post_discrete`), whose events re-check the peer's
    liveness when they fire; arrival and ack timestamps stay
    bit-identical to the macro walk when the planes add zero delay.
    That body completes a WorkRequest per WQE, so a ``None`` entry
    gets one here.
    """
    env = self.env
    nic = self.nic
    inline_max = self._inline_max
    loopback = self.remote_node is self.node
    uplink = None if loopback else self.node.uplink
    flush_rest = False
    for wr, size, pieces, region, offset in entries:
        if wr is None:
            wr = WorkRequest(env, None, Opcode.WRITE, False)
        if flush_rest:
            self._flush_after(wr, faults.detection_timeout,
                              WcStatus.RETRY_EXC_ERR)
            continue
        inline = size <= inline_max
        offset_delay = nic.engine_delay(inline)
        wire_at = env.now + offset_delay
        if uplink is not None and uplink.busy_until > wire_at:
            wire_at = uplink.busy_until
        admit = faults.rc_admission(self.node, self.remote_node,
                                    at=wire_at)
        if admit is None:
            flush_rest = True
            self._flush_after(wr, faults.detection_timeout,
                              WcStatus.RETRY_EXC_ERR)
            continue
        rate = None
        if congestion is not None:
            paced, rate = congestion.rc_admit(self, size)
            admit += paced
        # Trains coalesce the prefix into the arrival commit.
        self._post_discrete(wr, size, (), pieces, region, offset, 0.0,
                            offset_delay, admit, rate)


_MEMBERS = {"_post_lone_discrete": _post_lone_discrete,
            "_post_discrete": _post_discrete,
            "_commit_if_alive": _commit_if_alive,
            "_post_train_sequential": _post_train_sequential}


# -- a batched push, one CPU charge per channel group ------------------------

def push_batch_per_group(self, tuples, target=None):
    """``ShuffleSource.push_batch`` as it charged the CPU per group: each
    bandwidth group yields its channel's ``charge_batch`` delay, then
    stages, then drives the flush staging returned; a latency group
    sends each row with the channel's ``_send``."""
    if self.closed:
        raise FlowClosedError("push on a closed flow source")
    if tuples.__class__ is not list and tuples.__class__ is not tuple:
        tuples = list(tuples)
    channels = self._channels
    if target is not None:
        if not 0 <= target < len(channels) or target in self._failed:
            raise self._bad_target(target)
        live = (target,)
        groups = (tuples,)
    else:
        live = self._live
        if self._router is None or not live:
            raise self._unroutable()
        if len(live) == 1:
            groups = (tuples,)
        else:
            count = len(live)
            route_many = self._route_many
            if route_many is not None:
                groups = route_many(tuples, count)
            else:
                groups = [[] for _ in range(count)]
                for values in tuples:
                    slot = self._router(values, count)
                    if slot.__class__ is not int or not 0 <= slot < count:
                        slot = _route_slot(slot, count)
                    groups[slot].append(values)
    fill = self._fill
    for slot, group in enumerate(groups):
        if group:
            try:
                index = live[slot]
            except IndexError:
                raise FlowError(
                    f"route_many filled group {slot}: targets are "
                    f"[0, {len(live)})") from None
            try:
                channel = channels[index]
                if self._latency:
                    for values in group:
                        yield from channel._send(
                            channel._push_delay, channel.schema.pack_into,
                            values, channel._tuple_size)
                else:
                    yield channel.charge_batch(len(group))
                    flush = channel.stage_batch(group, fill)
                    if flush is not NO_FLUSH:
                        yield from flush
            except (QpFlushedError, FlowTimeoutError) as exc:
                if target is not None:
                    yield from self._fail_named(target, exc)
                yield from self._handle_channel_failure(index, exc)
                remaining = [values for rest in groups[slot:]
                             for values in rest]
                yield from self.push_batch(remaining)
                return


# -- the entry points' fault branch, as it selected the members ---------------

@contextmanager
def installed():
    """Send every write posted while the block runs under an active
    fault plane through the discrete walk, and every ``push_batch``
    through the per-group charge; yield ``{"wqes": n}``, the number of
    WQEs (lone writes plus train entries) the discrete walk posted."""
    counts = {"wqes": 0}
    post_lone = QueuePair.post_lone
    post_train = QueuePair.post_train
    push_batch = ShuffleSource.push_batch

    def discrete_lone(self, wr, size, pieces, region, offset):
        faults = self._faults()
        if faults is None:
            post_lone(self, wr, size, pieces, region, offset)
            return
        counts["wqes"] += 1
        obs = self._obs
        if obs is not None:
            self._obs_wqes_posted += 1
            if wr is not None and wr.signaled:
                self._obs_wqes_signaled += 1
            if not self._obs_wqes_posted & 15:
                obs.bound()  # the plane log's memory bound
        self._post_lone_discrete(wr, size, pieces, region, offset,
                                 faults, self.node.cluster.congestion)

    def discrete_train(self, entries):
        faults = self._faults()
        if faults is None or not entries:
            post_train(self, entries)
            return
        counts["wqes"] += len(entries)
        self.nic.doorbell_trains += 1
        obs = self._obs
        if obs is not None:
            count = signaled = 0
            for entry in entries:
                count += 1
                wr = entry[0]
                if wr is not None and wr.signaled:
                    signaled += 1
            self._obs_wqes_posted += count
            self._obs_wqes_signaled += signaled
            self._obs_trains += 1
            if not self._obs_trains & 15:
                obs.bound()  # the plane log's memory bound
            # The per-WQE path logs its own arbitration and wire spans.
            obs.log((TRAIN, self.env._now, self, count, (), ()))
        self._post_train_sequential(entries, faults, self.node.cluster.congestion)

    for name, member in _MEMBERS.items():
        setattr(QueuePair, name, member)
    QueuePair.post_lone = discrete_lone
    QueuePair.post_train = discrete_train
    ShuffleSource.push_batch = push_batch_per_group
    try:
        yield counts
    finally:
        ShuffleSource.push_batch = push_batch
        QueuePair.post_lone = post_lone
        QueuePair.post_train = post_train
        for name in _MEMBERS:
            delattr(QueuePair, name)


# -- a multicast fan-out, one arrival timer per member ------------------------

def post_send_multicast_per_member(self, group, payload, wr_id=None):
    """``UdQueuePair.post_send_multicast`` as it fanned a datagram out:
    ``Fabric.multicast`` arms one arrival timer per member that was not
    lost, and each timer delivers its member's copy when it fires."""
    data = _as_bytes(payload)
    members = group.member_nodes
    size = len(data)
    node = self.node
    cluster = node.cluster
    congestion = cluster.congestion
    offset_delay = self.nic.engine_delay(
        size <= self.nic.profile.max_inline_size)
    if congestion is not None:
        offset_delay += congestion.ud_admit(node, size)
    self.nic.bytes_posted += size
    deliver = group._deliver
    for member, arrival in cluster.fabric.multicast(
            node, members, size, delay=offset_delay).items():
        if arrival is not None:  # else lost in the fabric
            arrival.callbacks.append(
                lambda _event, args=(member.node_id, data): deliver(args))
    if congestion is not None:
        congestion.ud_sent(node, members, size)
    wr = WorkRequest(self.env, wr_id, Opcode.SEND, False)
    wr._complete_at(
        self.env.now + (offset_delay + size / self.nic.profile.link_bandwidth))
    return wr


@contextmanager
def per_member_multicast():
    """Send every multicast posted while the block runs through
    :func:`post_send_multicast_per_member`; yield ``{"datagrams": n}``,
    the number of datagrams it posted."""
    counts = {"datagrams": 0}
    product = UdQueuePair.post_send_multicast

    def per_member(self, group, payload, wr_id=None):
        counts["datagrams"] += 1
        return post_send_multicast_per_member(self, group, payload, wr_id)

    UdQueuePair.post_send_multicast = per_member
    try:
        yield counts
    finally:
        UdQueuePair.post_send_multicast = product


# -- a train walked by one pooled macro-event ---------------------------------

#: Upper bound on the idle records an environment's pool keeps.
_MACRO_POOL_CAP = 256


class MacroEvent(Event):
    """One reusable queue entry that walks a sorted train of
    ``(when, fn, arg)`` actions.

    Every action fires at its exact absolute timestamp with one live
    queue entry per train, re-queued once per hop under the sequence
    number the train drew when it was scheduled. The walker state lives
    in slots on a pooled record, and exhausted records go back to
    ``pool``, the list of idle records of their environment.
    """

    __slots__ = ("actions", "index", "end", "seq", "pool", "_cb")

    def __init__(self, env: Environment, pool: list) -> None:
        super().__init__(env)
        #: Sorted ``(when, fn, arg)`` train being walked (``None`` when
        #: the record is idle in the pool).
        self.actions = None
        self.index = 0
        #: The train's length when it was scheduled.
        self.end = 0
        #: Sequence number of the train's first hop.
        self.seq = 0
        self.pool = pool
        # The permanent one-element callback list: ``step()`` clears
        # ``callbacks`` before invoking us, and every re-arm restores it.
        self._cb = [self._fire]
        self.callbacks = self._cb

    def _fire(self, _event) -> None:
        env = self.env
        actions = self.actions
        index = self.index
        total = self.end
        now = env._now
        while index < total:
            action = actions[index]
            if action[0] > now:
                break
            index += 1
            action[1](action[2])
        if index < total:
            # Re-arm for the next hop (strictly later than now) under the
            # train's one sequence number.
            self.index = index
            self._processed = False
            self.callbacks = self._cb
            heapq.heappush(env._queue, (actions[index][0], self.seq, self))
            return
        self.actions = None
        if len(self.pool) < _MACRO_POOL_CAP:
            self.pool.append(self)


@contextmanager
def macro_walker():
    """Walk every train scheduled while the block runs with a pooled
    :class:`MacroEvent` — the first hop queued through ``_schedule_abs``
    (an instant at or before ``now`` on the next step) and the train
    read up to its length at the call; yield ``{"trains": n}``, the
    number of non-empty trains it walked."""
    counts = {"trains": 0}
    pools = {}
    product = Environment.schedule_train

    def schedule_train(env, actions):
        if not actions:
            return
        counts["trains"] += 1
        pool = pools.setdefault(env, [])
        if pool:
            macro = pool.pop()
            macro._value = _PENDING
            macro._exception = None
            macro._defused = False
            macro._scheduled = False
            macro._processed = False
            macro.callbacks = macro._cb
        else:
            macro = MacroEvent(env, pool)
        macro.actions = actions
        macro.index = 0
        macro.end = len(actions)
        env._schedule_abs(macro, actions[0][0])
        macro.seq = env._sequence

    Environment.schedule_train = schedule_train
    try:
        yield counts
    finally:
        Environment.schedule_train = product


# -- the sleeping latency push, as ShuffleSource.push carried it --------------

def sleeping_push(self, values, target=None, _product=ShuffleSource.push):
    """``ShuffleSource.push`` with the latency branch it had before a push
    ran ahead of the clock: the tuple is staged in place, and the
    channel's ``_write_slot`` — a sleep of the push's CPU charge, then
    the post — is returned for the caller to drive (unguarded while the
    credit window is open and no refresh is pending). A bandwidth push
    is the product's."""
    if not self._latency:
        return _product(self, values, target)
    if self.closed:
        raise FlowClosedError("push on a closed flow source")
    explicit = target is not None
    if explicit:
        if (not 0 <= target < len(self._channels)
                or target in self._failed):
            raise self._bad_target(target)
    else:
        count = self._fanout
        if not count or self._router is None:
            raise self._unroutable()
        index = self._key_index
        if index is not None and (key := values[index]).__class__ is int:
            slot = (((key & _HASH_MASK) * _HASH_MULT & _HASH_MASK)
                    >> 32) % count
        else:
            slot = self._router(values, count)
            if self._vet_routes and (slot.__class__ is not int
                                     or not 0 <= slot < count):
                slot = _route_slot(slot, count)
        target = self._live[slot]
    channel = self._channels[target]
    if channel.closed:
        raise FlowClosedError("push on a closed flow source")
    credit = channel._credit
    seq = credit.sent
    base = (seq % channel._staging_slots) * channel._slot_size
    staging = channel._staging
    try:
        channel._pack_tuple(staging, base, *values)
    except _struct_error as exc:
        raise channel.schema.mismatch(values, exc) from None
    used = channel._tuple_size
    _FOOTER_PACK_INTO(staging, base + channel.segment_payload, used,
                      _FLAG_WORDS[0], seq)
    flush = channel._write_slot(
        channel._staging_view[base:base + channel._slot_size], used, 0,
        channel._push_delay)
    if credit.pending is None and seq - credit.consumed < channel._segments:
        return flush
    return self._guarded_flush(flush, values, target, explicit)


@contextmanager
def sleeping_latency_push():
    """Send every ``ShuffleSource.push`` made while the block runs through
    :func:`sleeping_push`; yield ``{"pushes": n}``, the number of latency
    pushes it made."""
    counts = {"pushes": 0}
    product = ShuffleSource.push

    def push(self, values, target=None):
        if self._latency:
            counts["pushes"] += 1
        return sleeping_push(self, values, target, product)

    ShuffleSource.push = push
    try:
        yield counts
    finally:
        ShuffleSource.push = product
