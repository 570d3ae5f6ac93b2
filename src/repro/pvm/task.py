"""Tasks: the processes of the PVM-like virtual machine.

A task runs a user generator on one host.  Its communication methods
are generators themselves (``yield from task.send(...)``) because they
consume virtual time on the host's CPU and NIC resources.

The timing of ``send(dst, payload)`` (see DESIGN.md §5):

1. **pack** — hold the sender host's CPU for
   ``machine.pack_time(nbytes)`` (PVM XDR encoding; slower on slower
   CPUs — the asymmetry behind the paper's p = 2 gather inversion);
2. **inject** — hold the sender's NIC out-port for
   ``nbytes · max(machine.nic_gap, network.gap)``;
3. **wire** — after ``network.latency``, the message reaches the
   receiver (the network is the LCA cluster's network);
4. **drain** — hold the receiver's NIC in-port for
   ``nbytes · max(receiver.nic_gap, network.gap)``; many senders
   targeting one receiver serialise here;
5. **unpack** — charged to the receiver's CPU inside ``recv``.

``send`` returns after step 2 (asynchronous, like ``pvm_send``); the
returned event completes at mailbox delivery so BSP-style supersteps
can wait for communication to finish.
"""

from __future__ import annotations

import typing as t

from repro.errors import PvmError, TimeoutError
from repro.pvm.message import Message, payload_nbytes
from repro.sim.events import AnyOf, Event

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import NetworkSpec
    from repro.pvm.delivery import DeliveryPolicy
    from repro.pvm.vm import Host, VirtualMachine

__all__ = ["Task"]


class Task:
    """One task (process) of the virtual machine.

    Created via :meth:`repro.pvm.VirtualMachine.spawn`; user code
    receives the task object as its first argument.
    """

    __slots__ = (
        "vm", "tid", "host", "name", "mailbox", "_delivered_uids",
        "_link_names", "sent_messages", "sent_bytes",
        "received_messages", "received_bytes", "process", "macro_now",
    )

    def __init__(self, vm: "VirtualMachine", tid: int, host: "Host", name: str) -> None:
        self.vm = vm
        self.tid = tid
        self.host = host
        self.name = name
        from repro.sim.resources import Store

        self.mailbox = Store(vm.engine, name=f"{name}.mailbox")
        #: Uids already delivered here (suppresses retransmit duplicates).
        self._delivered_uids: set[int] = set()
        #: Cached per-destination event/process labels (f-strings are
        #: too expensive to rebuild on every send).
        self._link_names: dict[int, tuple[str, str]] = {}
        #: Statistics: (messages, bytes) sent and received.
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0
        self.received_bytes = 0
        self.process: t.Any = None  # set by VirtualMachine.spawn
        #: Private local clock under the macro-event path (the task's
        #: superstep segment runs at one engine instant there, so the
        #: engine clock lags the task's virtual progress); ``None`` on
        #: the object path, where engine time is task time.
        self.macro_now: float | None = None

    def _names_for(self, target: "Task") -> tuple[str, str]:
        """Cached ``(arrival, delivery-process)`` labels for a destination."""
        names = self._link_names.get(target.tid)
        if names is None:
            link = f"{self.name}->{target.name}"
            names = (link, "deliver:" + link)
            self._link_names[target.tid] = names
        return names

    # -- communication -------------------------------------------------------
    def send(
        self,
        dst: int,
        payload: t.Any,
        *,
        tag: int = 0,
        nbytes: int | None = None,
        policy: "DeliveryPolicy | None" = None,
    ) -> t.Generator[Event, t.Any, Event]:
        """Send ``payload`` to task ``dst``; returns the delivery event.

        A generator: ``delivery = yield from task.send(...)``.  Control
        returns once the message has been packed and injected; the
        returned event succeeds (with the :class:`Message`) when the
        message lands in the destination mailbox.

        ``policy`` (default: the machine's ``delivery`` policy) selects
        the delivery guarantee under injected faults.  With an *armed*
        policy the send watches a timeout and retransmits with bounded
        exponential backoff; the returned event then fails with
        :class:`~repro.errors.TimeoutError` once every attempt is
        exhausted.  Without one, a dropped message resolves the event
        with ``None`` (at-most-once: the sender never learns).
        """
        vm = self.vm
        engine = vm.engine
        tracing = vm.tracer.enabled
        target = vm.task(dst)
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        if size < 0:
            raise PvmError(f"nbytes must be >= 0, got {size}")
        sent_at = engine.now
        self.sent_messages += 1
        self.sent_bytes += size

        if target is self:
            # Loopback: a processor does not send data to itself.
            message = Message(self.tid, dst, tag, payload, 0, sent_at, engine.now)
            self.mailbox.put(message)
            done = engine.event(name=f"{self.name}.self-send")
            done.succeed(message)
            return done

        host = self.host
        spec = host.spec
        if target.host is host:
            # Same-host IPC between distinct tasks: packed through the
            # daemon on the shared CPU, but never touches the NIC or
            # the wire.
            pack = spec.pack_time(size)
            start = engine.now
            yield from host.cpu.occupy(pack)
            if tracing:
                vm.record_span("pack", spec.name, start, nbytes=size, dst=dst, local=True)
            message = Message(self.tid, dst, tag, payload, size, sent_at, engine.now)
            target.mailbox.put(message)
            done = engine.event(name=f"{self.name}.local-send")
            done.succeed(message)
            return done

        network, level = vm.route(host, target.host)
        multiplier = vm.topology.pair_multiplier(host.machine_id, target.host.machine_id)
        if policy is None:
            policy = vm.delivery
        metrics = vm.metrics
        net_labels = (("network", network.name),)
        metrics.inc("repro_messages_sent_total", 1.0, net_labels)
        metrics.inc("repro_bytes_sent_total", float(size), net_labels)

        # 1. pack on the sender CPU
        pack = spec.pack_time(size)
        start = engine.now
        yield from host.cpu.occupy(pack)
        if tracing:
            vm.record_span("pack", spec.name, start, nbytes=size, dst=dst)

        # 2. inject through the sender NIC
        inject = size * network.effective_gap(spec.nic_gap) * multiplier
        if vm.injector is not None:
            inject = vm.injector.transfer_time(network.name, engine.now, inject)
        start = engine.now
        yield from host.nic_out.occupy(inject)
        if tracing:
            vm.record_span(
                "inject", spec.name, start,
                nbytes=size, dst=dst, network=network.name, level=level,
            )

        # 3 + 4. wire latency then drain at the receiver, in background.
        arrival_name, deliver_name = self._names_for(target)
        done = engine.event(name=arrival_name)

        if policy is None or not policy.armed:
            # Fire-and-forget: one attempt; `done` resolves at delivery
            # (or with None at a fault-layer drop).
            engine.process(
                self._delivery(target, network, multiplier, size, payload, tag,
                               sent_at, uid=None, arrival=done, attempt=0),
                name=deliver_name,
            )
            return done

        # Reliable path: watch a timeout, retransmit with backoff, and
        # fail `done` with TimeoutError once attempts are exhausted.
        uid = vm.take_uid()
        arrival = engine.event(name=f"{self.name}->{target.name}#0")
        engine.process(
            self._delivery(target, network, multiplier, size, payload, tag,
                           sent_at, uid=uid, arrival=arrival, attempt=0),
            name=f"deliver:{self.name}->{target.name}#0",
        )
        monitor = engine.process(
            self._retry_monitor(target, network, multiplier, size, payload, tag,
                                sent_at, uid, policy, arrival, done),
            name=f"retry:{self.name}->{target.name}",
        )
        vm._fault_processes.append(monitor)
        return done

    def _delivery(
        self,
        target: "Task",
        network: "NetworkSpec",
        multiplier: float,
        size: int,
        payload: t.Any,
        tag: int,
        sent_at: float,
        *,
        uid: int | None,
        arrival: Event,
        attempt: int,
    ) -> t.Generator[Event, t.Any, None]:
        """One delivery attempt: wire latency, receiver drain, mailbox put.

        With a fault injector the message may be dropped (the attempt
        vanishes; ``arrival`` resolves with ``None`` only on the
        fire-and-forget path, where ``uid`` is None) or delayed.
        Retransmissions (``uid`` set) are suppressed at the receiver if
        an earlier attempt already landed.
        """
        vm = self.vm
        engine = vm.engine
        tracing = vm.tracer.enabled
        injector = vm.injector
        latency = network.latency
        if injector is not None:
            dropped, extra_delay = injector.message_fate(network.name, engine.now)
            if dropped:
                if tracing:
                    vm.record_span(
                        "drop", self.host.spec.name, engine.now,
                        dst=target.tid, nbytes=size, attempt=attempt,
                    )
                if uid is None:
                    arrival.succeed(None)
                return
            latency += injector.extra_latency(network.name, engine.now) + extra_delay
        yield engine.timeout(latency)
        drain = size * network.effective_gap(target.host.spec.nic_gap) * multiplier
        if injector is not None:
            drain = injector.transfer_time(network.name, engine.now, drain)
        start = engine.now
        yield from target.host.nic_in.occupy(drain)
        if tracing:
            vm.record_span(
                "drain", target.host.spec.name, start,
                nbytes=size, src=self.tid, network=network.name,
            )
        if uid is not None:
            if uid in target._delivered_uids:
                return  # a prior attempt already delivered this send
            target._delivered_uids.add(uid)
        message = Message(self.tid, target.tid, tag, payload, size, sent_at, engine.now, uid)
        target.mailbox.put(message)
        arrival.succeed(message)

    def _retry_monitor(
        self,
        target: "Task",
        network: "NetworkSpec",
        multiplier: float,
        size: int,
        payload: t.Any,
        tag: int,
        sent_at: float,
        uid: int,
        policy: "DeliveryPolicy",
        first_arrival: Event,
        done: Event,
    ) -> t.Generator[Event, t.Any, None]:
        """Timeout/retransmit loop backing one reliable send.

        Each round waits ``policy.timeout`` for *any* outstanding
        attempt to land (late originals count); on expiry the payload
        is re-injected through the sender NIC after a bounded
        exponential backoff.  Exhaustion fails ``done``.
        """
        vm = self.vm
        engine = vm.engine
        arrivals = [first_arrival]
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                vm.metrics.inc("repro_send_retries_total")
                backoff = policy.backoff_for(attempt - 1)
                if backoff > 0:
                    yield engine.timeout(backoff)
                inject = size * network.effective_gap(self.host.spec.nic_gap) * multiplier
                if vm.injector is not None:
                    inject = vm.injector.transfer_time(network.name, engine.now, inject)
                start = engine.now
                yield from self.host.nic_out.occupy(inject)
                if vm.tracer.enabled:
                    vm.record_span(
                        "inject", self.host.spec.name, start,
                        nbytes=size, dst=target.tid, network=network.name, retry=attempt,
                    )
                arrival = engine.event(name=f"{self.name}->{target.name}#{attempt}")
                engine.process(
                    self._delivery(target, network, multiplier, size, payload, tag,
                                   sent_at, uid=uid, arrival=arrival, attempt=attempt),
                    name=f"deliver:{self.name}->{target.name}#{attempt}",
                )
                arrivals.append(arrival)
            timer = engine.timeout(policy.timeout)
            yield AnyOf(engine, (*arrivals, timer), name=f"{self.name}.sendwait")
            delivered = next((a for a in arrivals if a.triggered and a.ok), None)
            if delivered is not None:
                done.succeed(delivered.value)
                return
            vm.metrics.inc("repro_send_timeouts_total")
            if vm.tracer.enabled:
                vm.record_span(
                    "timeout", self.host.spec.name, engine.now,
                    dst=target.tid, nbytes=size, attempt=attempt,
                )
        vm.metrics.inc("repro_sends_failed_total")
        done.fail(TimeoutError(
            f"send {self.name} -> {target.name} undelivered after "
            f"{policy.max_attempts} attempt(s) of {policy.timeout:g}s each",
            src=self.tid, dst=target.tid, attempts=policy.max_attempts,
        ))

    def recv(
        self,
        source: int | None = None,
        tag: int | None = None,
    ) -> t.Generator[Event, t.Any, Message]:
        """Blocking receive with PVM-style wildcards; charges unpack time.

        A generator: ``msg = yield from task.recv(...)``.
        """
        if source is None and tag is None:
            message: Message = yield self.mailbox.get()
        else:
            message = yield self.mailbox.get(lambda m: m.matches(source, tag))
        unpack = self.host.spec.unpack_time(message.nbytes)
        if unpack > 0:
            vm = self.vm
            start = vm.engine.now
            yield from self.host.cpu.occupy(unpack)
            if vm.tracer.enabled:
                vm.record_span(
                    "unpack", self.host.spec.name, start,
                    nbytes=message.nbytes, src=message.src,
                )
        self.received_messages += 1
        self.received_bytes += message.nbytes
        return message

    def try_recv(self, source: int | None = None, tag: int | None = None) -> Message | None:
        """Non-blocking probe-and-take (``pvm_nrecv``); no unpack charge."""
        if source is None and tag is None:
            message = self.mailbox.try_take()
        else:
            message = self.mailbox.try_take(lambda m: m.matches(source, tag))
        if message is not None:
            self.received_messages += 1
            self.received_bytes += message.nbytes
        return message

    # -- computation -----------------------------------------------------------
    def compute(self, work: float) -> t.Generator[Event, t.Any, None]:
        """Consume ``work`` CPU work units on this task's host.

        A generator: ``yield from task.compute(...)``.
        """
        duration = self.host.spec.compute_time(work)
        vm = self.vm
        start = vm.engine.now
        yield from self.host.cpu.occupy(duration)
        if vm.tracer.enabled:
            vm.record_span("compute", self.host.spec.name, start, work=work)

    def sleep(self, duration: float) -> Event:
        """An event that fires after ``duration`` (idle wait, no CPU)."""
        return self.vm.engine.timeout(duration)

    @property
    def now(self) -> float:
        """Current virtual time (this task's local clock under the
        macro-event path)."""
        macro_now = self.macro_now
        return self.vm.engine.now if macro_now is None else macro_now

    def __repr__(self) -> str:
        return f"<Task {self.tid} {self.name!r} on {self.host.spec.name}>"
