//! The simulation kernel: virtual time, the event queue, the MAC/link
//! timing model and per-port accounting.

use crate::burst::PacketBurst;
use crate::component::ComponentId;
use crate::event::EventKind;
use crate::link::LinkSpec;
use crate::stats::PortCounters;
use crate::trace::{TraceEvent, Tracer};
use crate::wheel::TimerWheel;
use osnt_packet::{Packet, IFG_LEN};
use osnt_time::{SimDuration, SimTime};

/// Outcome of [`Kernel::transmit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxResult {
    /// The frame was accepted by the MAC.
    Transmitted {
        /// Instant the first bit goes on the wire (now, or when the MAC
        /// finishes earlier frames).
        tx_start: SimTime,
        /// Instant the last bit arrives at the peer.
        delivery: SimTime,
    },
    /// The output buffer was full; the frame was tail-dropped.
    Dropped,
    /// The port has no link attached; the frame went nowhere.
    NotConnected,
}

impl TxResult {
    /// True when the frame made it onto the wire.
    pub fn is_transmitted(&self) -> bool {
        matches!(self, TxResult::Transmitted { .. })
    }
}

/// Outcome of [`Kernel::transmit_burst`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTx {
    /// Frames accepted onto the wire.
    pub accepted: u64,
    /// Frame bytes accepted (conventional length, summed).
    pub accepted_bytes: u64,
    /// Frames tail-dropped at the output buffer.
    pub dropped: u64,
    /// Wire start instant of the first accepted frame.
    pub first_tx_start: Option<SimTime>,
    /// Wire start instant of the last accepted frame.
    pub last_tx_start: Option<SimTime>,
    /// Arrival instant of the last accepted frame's final bit.
    pub last_delivery: Option<SimTime>,
    /// True when the port has no link: nothing was sent.
    pub not_connected: bool,
}

#[derive(Debug, Clone, Copy)]
struct Wire {
    spec: LinkSpec,
    peer: ComponentId,
    peer_port: usize,
}

#[derive(Debug, Clone)]
struct OutPort {
    wire: Option<Wire>,
    /// Instant the MAC becomes free to start another frame (includes the
    /// inter-frame gap of the previous frame).
    busy_until: SimTime,
    /// Frame bytes accepted but not yet fully serialised.
    queued_bytes: usize,
    /// Output buffer capacity in frame bytes (`None` = unbounded; tester
    /// ports pace themselves, switch ports set a real limit).
    buffer_bytes: Option<usize>,
    counters: PortCounters,
}

impl OutPort {
    fn new() -> Self {
        OutPort {
            wire: None,
            busy_until: SimTime::ZERO,
            queued_bytes: 0,
            buffer_bytes: None,
            counters: PortCounters::default(),
        }
    }
}

/// Bits of the event key reserved for the per-source sequence counter.
/// The remaining high bits hold the source component id, so keys order
/// by `(source component, per-source seq)` — see [`event_key`].
pub(crate) const SRC_SEQ_BITS: u32 = 40;

/// Largest component id the key encoding supports (16M components).
pub(crate) const MAX_COMPONENTS: usize = 1 << (64 - SRC_SEQ_BITS);

/// The total event order is ascending `(time, event_key)`. The key packs
/// `(source component id, per-source sequence number)` so that ties at
/// one instant break by source component id, then by the order the
/// source scheduled them. Crucially the key depends only on *which*
/// component scheduled the event and on that component's own scheduling
/// history — never on the global interleaving — so a sharded run
/// computes byte-identical keys to the single-threaded kernel and
/// dispatches in byte-identical order.
#[inline]
pub(crate) fn event_key(src: ComponentId, ctr: u64) -> u64 {
    // 2^40 events per component outlasts any realistic run (a port at
    // 14.88 Mpps takes ~20 simulated hours to get there).
    debug_assert!(
        ctr < 1 << SRC_SEQ_BITS,
        "per-component event counter overflow"
    );
    ((src.0 as u64) << SRC_SEQ_BITS) | ctr
}

/// Allocate `src`'s next event key.
#[inline]
fn next_key(comp_seq: &mut [u64], src: ComponentId) -> u64 {
    let ctr = comp_seq[src.0];
    comp_seq[src.0] = ctr + 1;
    event_key(src, ctr)
}

/// Queue an event on the local wheel, or hand it to the shard router
/// when its target lives on another shard (`remote`). The `(src, ctr)`
/// key travels with it so the destination wheel slots it into the same
/// total order the single-threaded kernel would.
#[inline]
fn route(
    queue: &mut TimerWheel<EventKind>,
    router: &mut Option<crate::shard::ShardRouter>,
    remote: bool,
    time: SimTime,
    key: u64,
    kind: EventKind,
) {
    match router {
        Some(r) if remote => r.send(time, key, kind),
        _ => queue.push(time, key, kind),
    }
}

/// Report `ev` at `at` to every installed tracer. With none installed
/// (the common case, and every perf path) this inlines to a load and a
/// branch, and the event construction sinks away.
#[inline]
fn trace(tracers: &mut [Box<dyn Tracer>], at: SimTime, ev: TraceEvent) {
    if tracers.is_empty() {
        return;
    }
    for tr in tracers {
        tr.trace(at, &ev);
    }
}

/// The simulation kernel. Components receive `&mut Kernel` in their event
/// handlers; harness code reaches it through [`crate::Sim::kernel`].
pub struct Kernel {
    now: SimTime,
    /// Per-component event sequence counters (the low bits of
    /// [`event_key`]). Indexed by component id; counts every event the
    /// component has scheduled, including cross-shard ones.
    comp_seq: Vec<u64>,
    queue: TimerWheel<EventKind>,
    /// ports[component][port]
    ports: Vec<Vec<OutPort>>,
    tracers: Vec<Box<dyn Tracer>>,
    pub(crate) events_dispatched: u64,
    /// Cross-shard routing state — `None` on single-threaded sims, so the
    /// fast path pays one branch.
    pub(crate) router: Option<crate::shard::ShardRouter>,
    /// Supervision heartbeat + cooperative abort flag — `None` on
    /// unsupervised runs, so the dispatch loop pays one branch.
    pub(crate) progress: Option<std::sync::Arc<osnt_time::ProgressProbe>>,
    /// Reusable arrival buffer for batch delivery (capacity persists
    /// across bursts; taken/restored around each `on_packet_batch`).
    pub(crate) batch_buf: Vec<(SimTime, Packet)>,
}

impl Kernel {
    pub(crate) fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            comp_seq: Vec::new(),
            queue: TimerWheel::new(),
            ports: Vec::new(),
            tracers: Vec::new(),
            events_dispatched: 0,
            router: None,
            progress: None,
            batch_buf: Vec::new(),
        }
    }

    pub(crate) fn add_component_ports(&mut self, n_ports: usize) {
        assert!(
            self.ports.len() < MAX_COMPONENTS,
            "component id space exhausted"
        );
        self.ports
            .push((0..n_ports).map(|_| OutPort::new()).collect());
        self.comp_seq.push(0);
    }

    pub(crate) fn add_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracers.push(tracer);
    }

    pub(crate) fn connect_simplex(
        &mut self,
        src: ComponentId,
        src_port: usize,
        dst: ComponentId,
        dst_port: usize,
        spec: LinkSpec,
    ) {
        let port = self.out_port_mut(src, src_port);
        assert!(
            port.wire.is_none(),
            "port {src_port} of component {} already connected",
            src.0
        );
        port.wire = Some(Wire {
            spec,
            peer: dst,
            peer_port: dst_port,
        });
    }

    fn out_port_mut(&mut self, comp: ComponentId, port: usize) -> &mut OutPort {
        self.ports
            .get_mut(comp.0)
            .unwrap_or_else(|| panic!("unknown component id {}", comp.0))
            .get_mut(port)
            .unwrap_or_else(|| panic!("component {} has no port {port}", comp.0))
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far (debugging / progress metric).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Schedule `kind` at `time` on behalf of `src` (the component whose
    /// handler — or wiring — created the event). Events whose target
    /// lives on another shard are routed over that shard's inbound
    /// channel instead of the local wheel; the `(src, ctr)` key travels
    /// with them so the destination wheel slots them into the same total
    /// order the single-threaded kernel would.
    fn push_event(&mut self, time: SimTime, src: ComponentId, kind: EventKind) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let key = next_key(&mut self.comp_seq, src);
        let remote = self
            .router
            .as_ref()
            .is_some_and(|r| r.is_remote(kind.target()));
        route(&mut self.queue, &mut self.router, remote, time, key, kind);
    }

    /// Insert an event that arrived from another shard, carrying the key
    /// its source computed. Crate-internal: the shard executive calls
    /// this while draining inbound channels at a window boundary.
    pub(crate) fn inject(&mut self, time: SimTime, key: u64, kind: EventKind) {
        debug_assert!(time >= self.now, "cross-shard event arrived in the past");
        self.queue.push(time, key, kind);
    }

    /// Earliest pending event time in picoseconds (`None` when idle).
    /// (`&mut` because the wheel may migrate overflow entries to find
    /// its minimum.)
    pub(crate) fn peek_next_ps(&mut self) -> Option<u64> {
        self.queue.peek().map(|(t, _)| t.as_ps())
    }

    /// Every installed simplex wire as `(src, peer, propagation)` —
    /// the shard builder derives lookahead from this.
    pub(crate) fn wire_endpoints(
        &self,
    ) -> impl Iterator<Item = (ComponentId, ComponentId, SimDuration)> + '_ {
        self.ports.iter().enumerate().flat_map(|(src, ports)| {
            ports.iter().filter_map(move |p| {
                p.wire
                    .map(|w| (ComponentId(src), w.peer, w.spec.propagation))
            })
        })
    }

    /// Clone this kernel's static state (wiring, counters, clock) for
    /// one shard of a sharded build. The event queue must be empty and
    /// no tracers registered: events are created per-shard by
    /// `on_start`, and `Box<dyn Tracer>` cannot be replicated (the
    /// sharded builder rejects traced sims up front).
    pub(crate) fn replicate_for_shard(&self) -> Kernel {
        assert_eq!(self.queue.len(), 0, "replicate before scheduling events");
        assert_eq!(
            self.tracers.len(),
            0,
            "kernel tracers are not supported on sharded sims"
        );
        Kernel {
            now: self.now,
            comp_seq: self.comp_seq.clone(),
            queue: TimerWheel::new(),
            ports: self.ports.clone(),
            tracers: Vec::new(),
            events_dispatched: 0,
            router: None,
            // Shards share the one probe: `fetch_max` publishing keeps
            // the high-water mark coherent across workers.
            progress: self.progress.clone(),
            batch_buf: Vec::new(),
        }
    }

    /// Arm a timer for `me` firing after `delay` with discriminator
    /// `tag`. A zero delay fires after the current handler returns, at
    /// the same simulated time.
    pub fn schedule_timer(&mut self, me: ComponentId, delay: SimDuration, tag: u64) {
        self.push_event(self.now + delay, me, EventKind::Timer { target: me, tag });
    }

    /// Arm a timer at an absolute instant (must not be in the past).
    pub fn schedule_timer_at(&mut self, me: ComponentId, at: SimTime, tag: u64) {
        assert!(
            at >= self.now,
            "schedule_timer_at: {at} is in the past (now {})",
            self.now
        );
        self.push_event(at, me, EventKind::Timer { target: me, tag });
    }

    /// The earliest instant a frame offered now on (`me`, `port`) would
    /// start transmission — `now`, or later if the MAC is still clocking
    /// out earlier frames. The TX timestamping unit sits exactly here,
    /// "just before the transmit 10GbE MAC".
    pub fn next_tx_start(&self, me: ComponentId, port: usize) -> SimTime {
        let p = &self.ports[me.0][port];
        self.now.max(p.busy_until)
    }

    /// Bytes currently buffered in (`me`, `port`)'s output MAC.
    pub fn tx_queue_bytes(&self, me: ComponentId, port: usize) -> usize {
        self.ports[me.0][port].queued_bytes
    }

    /// Set (or clear) the output-buffer capacity of a port, in frame
    /// bytes. Frames offered while the buffer is full are tail-dropped.
    pub fn set_tx_buffer(&mut self, me: ComponentId, port: usize, bytes: Option<usize>) {
        self.out_port_mut(me, port).buffer_bytes = bytes;
    }

    /// Counter snapshot for (`comp`, `port`).
    pub fn counters(&self, comp: ComponentId, port: usize) -> PortCounters {
        self.ports[comp.0][port].counters
    }

    /// Transmit `packet` out of (`me`, `port`).
    ///
    /// Models a store-and-forward MAC: the frame starts when the port is
    /// free, occupies the wire for its serialisation time (including
    /// preamble and inter-frame gap) and is delivered to the peer when its
    /// last bit arrives.
    pub fn transmit(&mut self, me: ComponentId, port: usize, packet: Packet) -> TxResult {
        let now = self.now;
        let mut frame = Some(packet);
        let r = self.transmit_frames(me, port, true, |_| frame.take().map(|p| (now, p)), None);
        match (r.first_tx_start, r.last_delivery) {
            (Some(tx_start), Some(delivery)) => TxResult::Transmitted { tx_start, delivery },
            _ if r.not_connected => TxResult::NotConnected,
            _ => TxResult::Dropped,
        }
    }

    /// Transmit a run of frames back to back out of (`me`, `port`).
    ///
    /// `frames` is a factory, not an iterator: it is handed the wire
    /// start instant the MAC has reserved for the next frame and returns
    /// the frame with its earliest start (`None` ends the run). The frame
    /// starts at that instant, or later if the MAC is still clocking out
    /// earlier frames — exactly the wire timing a [`Kernel::transmit`]
    /// at that instant would have produced.
    ///
    /// * A generator returns the slot itself. Knowing the departure
    ///   instant *before* the frame is built is what lets it embed TX
    ///   timestamps on the batched path.
    /// * A burst forwarder ([`crate::Component::on_burst`], during which
    ///   `now` reads the burst-start instant) returns each member's own
    ///   arrival or release instant.
    ///
    /// A frame may still be tail-dropped by the output buffer, as in
    /// [`Kernel::transmit`]; the slot is then re-offered to the next
    /// frame. Each accepted frame's wire start is appended to `tx_starts`
    /// when provided (the generator's departure log).
    ///
    /// On a port without a buffer cap the accepted frames leave as one
    /// [`crate::PacketBurst`] event plus one merged TxDone. The burst is
    /// a single timer-wheel entry carrying per-member arrival instants
    /// and the per-member event keys the per-frame path would have
    /// allocated, so deliveries keep their total order (the dispatch loop
    /// splits the burst lazily when a timer or foreign event
    /// interleaves). A buffer-capped port keeps the per-frame
    /// TxDone/Deliver stream: a merged TxDone would hold the run's
    /// queued bytes until its last frame ends and tail-drop later frames
    /// that per-frame transmits would accept.
    pub fn transmit_burst(
        &mut self,
        me: ComponentId,
        port: usize,
        frames: impl FnMut(SimTime) -> Option<(SimTime, Packet)>,
        tx_starts: Option<&mut Vec<SimTime>>,
    ) -> BatchTx {
        self.transmit_frames(me, port, false, frames, tx_starts)
    }

    /// The one MAC-reservation loop behind [`Kernel::transmit`] and
    /// [`Kernel::transmit_burst`]. `per_frame` (forced on capped ports)
    /// schedules each accepted frame's TxDone and then its Deliver, the
    /// scalar event stream; otherwise the run leaves as one burst (a
    /// plain Deliver when only one frame was accepted — no box) followed
    /// by one merged TxDone.
    fn transmit_frames(
        &mut self,
        me: ComponentId,
        port: usize,
        per_frame: bool,
        mut frames: impl FnMut(SimTime) -> Option<(SimTime, Packet)>,
        mut tx_starts: Option<&mut Vec<SimTime>>,
    ) -> BatchTx {
        let mut out = BatchTx::default();
        // The port, wire and event-queue borrows are split so the loop
        // body touches disjoint fields instead of re-resolving the port
        // per frame.
        let Kernel {
            now,
            ports,
            comp_seq,
            queue,
            router,
            tracers,
            ..
        } = self;
        let now = *now;
        let p = &mut ports[me.0][port];
        let Some(wire) = p.wire else {
            out.not_connected = true;
            return out;
        };
        let per_frame = per_frame || p.buffer_bytes.is_some();
        // Is the peer on another shard? Resolved once for the run — a
        // wire's peer never moves.
        let remote = router.as_ref().is_some_and(|r| r.is_remote(wire.peer));
        // Burst-mode accumulation: the first accepted member stays
        // unboxed until a second one joins it.
        let mut first: Option<(SimTime, u64, Packet)> = None;
        let mut burst: Option<Box<PacketBurst>> = None;
        let mut run_bytes = 0usize;
        let mut last_tx_end = None;
        // Runs are overwhelmingly same-sized frames: memoise the
        // serialisation times for the last wire length seen.
        let mut ser_cache: Option<(usize, SimDuration, SimDuration)> = None;
        while let Some((earliest, packet)) = frames(now.max(p.busy_until)) {
            debug_assert!(
                earliest >= now,
                "transmit: earliest start {earliest} is in the past (now {now})"
            );
            let frame_len = packet.frame_len();
            let wire_len = packet.wire_len();
            if let Some(cap) = p.buffer_bytes {
                if p.queued_bytes + frame_len > cap {
                    p.counters.tx_drops += 1;
                    out.dropped += 1;
                    trace(
                        tracers,
                        now,
                        TraceEvent::TxDropped {
                            src: me,
                            port,
                            frame_len,
                        },
                    );
                    continue;
                }
            }
            let (ser_visible, ser_total) = match ser_cache {
                Some((len, vis, tot)) if len == wire_len => (vis, tot),
                _ => {
                    // Time on the wire: preamble + frame (visible), then
                    // the IFG before the next frame may start.
                    let vis = wire.spec.serialization(wire_len - IFG_LEN);
                    let tot = wire.spec.serialization(wire_len);
                    ser_cache = Some((wire_len, vis, tot));
                    (vis, tot)
                }
            };
            let tx_start = earliest.max(p.busy_until);
            let tx_end = tx_start + ser_visible;
            let delivery = tx_end + wire.spec.propagation;
            p.busy_until = tx_start + ser_total;
            p.queued_bytes += frame_len;
            p.counters.tx_frames += 1;
            p.counters.tx_bytes += frame_len as u64;
            out.accepted += 1;
            out.accepted_bytes += frame_len as u64;
            out.first_tx_start.get_or_insert(tx_start);
            out.last_tx_start = Some(tx_start);
            out.last_delivery = Some(delivery);
            if let Some(ts) = tx_starts.as_deref_mut() {
                ts.push(tx_start);
            }
            if per_frame {
                // TxDone targets `me`, which is by definition local.
                let key = next_key(comp_seq, me);
                queue.push(
                    tx_end,
                    key,
                    EventKind::TxDone {
                        src: me,
                        port,
                        frame_len,
                    },
                );
                let key = next_key(comp_seq, me);
                let deliver = EventKind::Deliver {
                    dst: wire.peer,
                    port: wire.peer_port,
                    packet,
                };
                route(queue, router, remote, delivery, key, deliver);
            } else {
                let key = next_key(comp_seq, me);
                run_bytes += frame_len;
                last_tx_end = Some(tx_end);
                if let Some(b) = burst.as_mut() {
                    b.push(delivery, packet);
                } else if let Some((t0, k0, p0)) = first.take() {
                    let mut b = Box::new(PacketBurst::new(k0));
                    b.push(t0, p0);
                    b.push(delivery, packet);
                    burst = Some(b);
                } else {
                    first = Some((delivery, key, packet));
                }
            }
            trace(
                tracers,
                now,
                TraceEvent::TxAccepted {
                    src: me,
                    port,
                    frame_len,
                },
            );
        }
        let (dst, dst_port) = (wire.peer, wire.peer_port);
        if let Some(burst) = burst {
            let (time, key) = (burst.first_time(), burst.first_key());
            let ev = EventKind::DeliverBurst {
                dst,
                port: dst_port,
                burst,
            };
            route(queue, router, remote, time, key, ev);
        } else if let Some((time, key, packet)) = first {
            let ev = EventKind::Deliver {
                dst,
                port: dst_port,
                packet,
            };
            route(queue, router, remote, time, key, ev);
        }
        if let Some(tx_end) = last_tx_end {
            let key = next_key(comp_seq, me);
            queue.push(
                tx_end,
                key,
                EventKind::TxDone {
                    src: me,
                    port,
                    frame_len: run_bytes,
                },
            );
        }
        out
    }

    /// Put a partially consumed burst back on the queue under its next
    /// member's own `(time, key)` — the lazy-split half of burst
    /// dispatch (the un-consumed tail re-enters the total order exactly
    /// where its members always were).
    pub(crate) fn requeue_burst(&mut self, dst: ComponentId, port: usize, burst: Box<PacketBurst>) {
        debug_assert!(!burst.is_empty(), "requeue of an empty burst");
        self.queue.push(
            burst.first_time(),
            burst.first_key(),
            EventKind::DeliverBurst { dst, port, burst },
        );
    }

    /// Count a frame received on (`dst`, `port`) that arrived at `at`.
    pub(crate) fn note_rx(&mut self, dst: ComponentId, port: usize, frame_len: usize, at: SimTime) {
        let p = self.out_port_mut(dst, port);
        p.counters.rx_frames += 1;
        p.counters.rx_bytes += frame_len as u64;
        trace(
            &mut self.tracers,
            at,
            TraceEvent::Delivered {
                dst,
                port,
                frame_len,
            },
        );
    }

    pub(crate) fn note_tx_done(&mut self, src: ComponentId, port: usize, frame_len: usize) {
        let p = self.out_port_mut(src, port);
        debug_assert!(p.queued_bytes >= frame_len);
        p.queued_bytes -= frame_len;
    }

    /// Hand a burst's members to `each` one at a time, every member at
    /// its own `(time, key)` slot of the total order. Member 0 was just
    /// popped as the burst's event; each later member follows only while
    /// it is due by `limit` and still precedes the queue head — a timer
    /// `each` just armed, a TxDone, a competing delivery — and so would
    /// be the next event a scalar run dispatches. The member stamps
    /// `now` and `events_dispatched` exactly as a popped `Deliver`
    /// would. A remaining tail re-enters the queue under its own key.
    pub(crate) fn replay_burst(
        &mut self,
        dst: ComponentId,
        port: usize,
        mut burst: Box<PacketBurst>,
        limit: SimTime,
        mut each: impl FnMut(&mut Kernel, SimTime, Packet),
    ) {
        let (t0, pkt0) = burst.pop_front().expect("bursts are non-empty");
        debug_assert_eq!(t0, self.now, "burst scheduled at member 0's arrival");
        self.note_rx(dst, port, pkt0.frame_len(), t0);
        each(self, t0, pkt0);
        while let Some(&(t, _)) = burst.members().first() {
            if t > limit
                || self
                    .queue
                    .peek()
                    .is_some_and(|h| h < (t, burst.first_key()))
            {
                self.requeue_burst(dst, port, burst);
                return;
            }
            let (t, pkt) = burst.pop_front().expect("checked above");
            self.now = t;
            self.events_dispatched += 1;
            self.note_rx(dst, port, pkt.frame_len(), t);
            each(self, t, pkt);
        }
    }

    /// Extend a delivery batch: keep popping events at or before `limit`
    /// for as long as the head of the queue is either another delivery
    /// to the same `(dst, port)` or a `TxDone` (which carries no handler
    /// and only decrements per-port byte accounting, so running it
    /// inline preserves observable state exactly). Stops — leaving the
    /// queue untouched — at the first timer, foreign delivery, or event
    /// past `limit`.
    ///
    /// Every event (and every burst member, via
    /// [`Kernel::replay_burst`]) is popped at its exact position in the
    /// total order and stamps `now`/`events_dispatched` just like
    /// [`Kernel::pop_event_until`], so a run with coalescing dispatches
    /// the same events in the same order as one without — only the
    /// handler granularity changes.
    pub(crate) fn coalesce_arrivals(
        &mut self,
        dst: ComponentId,
        port: usize,
        limit: SimTime,
        batch: &mut Vec<(SimTime, Packet)>,
    ) {
        loop {
            let take = match self.queue.peek_item() {
                Some((t, _seq, kind)) if t <= limit => match kind {
                    EventKind::Deliver {
                        dst: d, port: p, ..
                    }
                    | EventKind::DeliverBurst {
                        dst: d, port: p, ..
                    } => *d == dst && *p == port,
                    EventKind::TxDone { .. } => true,
                    EventKind::Timer { .. } => false,
                },
                _ => false,
            };
            if !take {
                return;
            }
            let (time, kind) = self.pop_event_until(limit).expect("peeked above");
            match kind {
                EventKind::Deliver { dst, port, packet } => {
                    self.note_rx(dst, port, packet.frame_len(), time);
                    batch.push((time, packet));
                }
                EventKind::DeliverBurst { dst, port, burst } => {
                    self.replay_burst(dst, port, burst, limit, |_, t, pkt| batch.push((t, pkt)));
                }
                EventKind::TxDone {
                    src,
                    port,
                    frame_len,
                } => self.note_tx_done(src, port, frame_len),
                EventKind::Timer { .. } => unreachable!("filtered above"),
            }
        }
    }

    /// Pop the next event if it fires at or before `limit`.
    pub(crate) fn pop_event_until(&mut self, limit: SimTime) -> Option<(SimTime, EventKind)> {
        let (time, _seq, kind) = self.queue.pop_at_or_before(limit)?;
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.events_dispatched += 1;
        Some((time, kind))
    }

    pub(crate) fn advance_now(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::engine::SimBuilder;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What the kernel told a `Probe`.
    #[derive(Default)]
    struct ProbeLog {
        /// Per single send: (predicted start, result, now, queued bytes
        /// after).
        sends: Vec<(SimTime, TxResult, SimTime, usize)>,
        /// The burst's outcome and its frames' wire starts.
        burst: Option<(BatchTx, Vec<SimTime>)>,
    }

    /// Transmits on command and records what the kernel told it: a burst
    /// of `burst` 64 B frames at t=0 (if nonzero), then each plan entry
    /// as one `transmit`.
    struct Probe {
        plan: Vec<(SimTime, usize)>, // (when, frame_len)
        burst: u64,
        log: Rc<RefCell<ProbeLog>>,
    }
    const TAG_BURST: u64 = u64::MAX;
    impl Component for Probe {
        fn on_start(&mut self, k: &mut Kernel, me: ComponentId) {
            if self.burst > 0 {
                k.schedule_timer_at(me, SimTime::ZERO, TAG_BURST);
            }
            for (i, (t, _)) in self.plan.iter().enumerate() {
                k.schedule_timer_at(me, *t, i as u64);
            }
        }
        fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
        fn on_timer(&mut self, k: &mut Kernel, me: ComponentId, tag: u64) {
            if tag == TAG_BURST {
                let (mut starts, mut left) = (Vec::new(), self.burst);
                let frames = |slot| {
                    (left > 0).then(|| {
                        left -= 1;
                        (slot, Packet::zeroed(64))
                    })
                };
                let r = k.transmit_burst(me, 0, frames, Some(&mut starts));
                self.log.borrow_mut().burst = Some((r, starts));
                return;
            }
            let (_, len) = self.plan[tag as usize];
            let predicted = k.next_tx_start(me, 0);
            let r = k.transmit(me, 0, Packet::zeroed(len));
            let queued = k.tx_queue_bytes(me, 0);
            self.log
                .borrow_mut()
                .sends
                .push((predicted, r, k.now(), queued));
        }
    }

    struct Sink;
    impl Component for Sink {
        fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    }

    const PROBE: ComponentId = ComponentId(0);
    const SINK: ComponentId = ComponentId(1);

    /// Run a `Probe` into a sink over a 10G link, with an optional
    /// output-buffer cap on the probe's port.
    fn run_probe(
        plan: Vec<(SimTime, usize)>,
        burst: u64,
        cap: Option<usize>,
    ) -> (crate::engine::Sim, ProbeLog) {
        let log = Rc::new(RefCell::new(ProbeLog::default()));
        let mut b = SimBuilder::new();
        let probe = Probe {
            plan,
            burst,
            log: log.clone(),
        };
        b.add_component("probe", Box::new(probe), 1);
        b.add_component("sink", Box::new(Sink), 1);
        b.connect(PROBE, 0, SINK, 0, crate::link::LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.kernel_mut().set_tx_buffer(PROBE, 0, cap);
        sim.run_until(SimTime::from_ms(10));
        let log = log.take();
        (sim, log)
    }

    fn run(plan: Vec<(SimTime, usize)>) -> Vec<(SimTime, TxResult, SimTime, usize)> {
        run_probe(plan, 0, None).1.sends
    }

    #[test]
    fn next_tx_start_predicts_transmit_exactly() {
        // Two immediate sends: the second starts when the first's wire
        // slot ends.
        let r = run(vec![
            (SimTime::ZERO, 64),
            (SimTime::ZERO, 64),
            (SimTime::from_us(100), 1518),
        ]);
        for (predicted, result, _, _) in &r {
            let TxResult::Transmitted { tx_start, .. } = result else {
                panic!("expected transmit");
            };
            assert_eq!(predicted, tx_start);
        }
        let TxResult::Transmitted { tx_start, .. } = r[1].1 else {
            panic!()
        };
        assert_eq!(tx_start.as_ps(), 67_200, "second frame waits one slot");
    }

    #[test]
    fn queued_bytes_rise_then_drain() {
        let r = run(vec![(SimTime::ZERO, 64), (SimTime::ZERO, 64)]);
        // Right after the second transmit both frames are still in the
        // MAC (first is mid-serialisation at t=0).
        assert_eq!(r[1].3, 128);
        // And after the run everything drained — verified via a fresh
        // sim since we can't peek here; covered by the fact that both
        // frames were delivered (counter test below).
    }

    #[test]
    fn counters_and_queue_drain() {
        let plan = vec![(SimTime::ZERO, 64), (SimTime::ZERO, 1518)];
        let (sim, _) = run_probe(plan, 0, None);
        let k = sim.kernel();
        assert_eq!(k.counters(PROBE, 0).tx_frames, 2);
        assert_eq!(k.counters(PROBE, 0).tx_bytes, 64 + 1518);
        assert_eq!(k.counters(SINK, 0).rx_frames, 2);
        assert_eq!(k.tx_queue_bytes(PROBE, 0), 0, "MAC drained");
    }

    #[test]
    fn transmit_burst_matches_per_frame_wire_timing() {
        // Per-frame reference: three back-to-back 64B transmits.
        let per_frame = run(vec![
            (SimTime::ZERO, 64),
            (SimTime::ZERO, 64),
            (SimTime::ZERO, 64),
        ]);
        let reference: Vec<SimTime> = per_frame
            .iter()
            .map(|(_, r, _, _)| match r {
                TxResult::Transmitted { tx_start, .. } => *tx_start,
                other => panic!("expected transmit, got {other:?}"),
            })
            .collect();

        let (sim, log) = run_probe(Vec::new(), 3, None);
        let (r, tx_starts) = log.burst.expect("burst ran");
        assert_eq!(tx_starts, reference, "same wire slots");
        assert_eq!(r.accepted, 3);
        assert_eq!(r.accepted_bytes, 3 * 64);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.first_tx_start, Some(SimTime::ZERO));
        assert_eq!(r.last_tx_start, reference.last().copied());
        let k = sim.kernel();
        assert_eq!(k.counters(PROBE, 0).tx_frames, 3);
        assert_eq!(k.counters(SINK, 0).rx_frames, 3);
        assert_eq!(
            k.tx_queue_bytes(PROBE, 0),
            0,
            "coalesced TxDone drained MAC"
        );
    }

    #[test]
    fn transmit_burst_respects_buffer_cap() {
        let (sim, log) = run_probe(Vec::new(), 5, Some(128)); // two 64B frames
        let (r, _) = log.burst.expect("burst ran");
        assert_eq!(r.accepted, 2);
        assert_eq!(r.dropped, 3);
        assert_eq!(sim.kernel().counters(PROBE, 0).tx_drops, 3);
        assert_eq!(sim.kernel().counters(SINK, 0).rx_frames, 2);
    }

    /// On a capped port each burst member drains from the buffer when
    /// its own last bit leaves, as with per-frame transmits: a later
    /// frame is not tail-dropped behind bytes that are already gone.
    #[test]
    fn transmit_burst_on_capped_port_drains_per_frame() {
        let then = (SimTime::from_ns(80), 64);
        let two = vec![(SimTime::ZERO, 64), (SimTime::ZERO, 64)];
        let (_, per_frame) = run_probe([two, vec![then]].concat(), 0, Some(128));
        let (_, burst) = run_probe(vec![then], 2, Some(128));
        let expected = TxResult::Transmitted {
            tx_start: SimTime::from_ps(134_400),
            delivery: SimTime::from_ps(134_400 + 57_600 + 10_000),
        };
        assert_eq!(per_frame.sends[2].1, expected);
        assert_eq!(burst.burst.expect("burst ran").0.accepted, 2);
        assert_eq!(burst.sends[0].1, expected);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut b = SimBuilder::new();
        let a = b.add_component("a", Box::new(Sink), 1);
        let c = b.add_component("c", Box::new(Sink), 1);
        let d = b.add_component("d", Box::new(Sink), 1);
        b.connect(a, 0, c, 0, crate::link::LinkSpec::ten_gig());
        b.connect(a, 0, d, 0, crate::link::LinkSpec::ten_gig());
    }

    #[test]
    #[should_panic(expected = "has no port")]
    fn bad_port_panics() {
        let mut b = SimBuilder::new();
        let a = b.add_component("a", Box::new(Sink), 1);
        let c = b.add_component("c", Box::new(Sink), 1);
        b.connect(a, 5, c, 0, crate::link::LinkSpec::ten_gig());
    }
}
