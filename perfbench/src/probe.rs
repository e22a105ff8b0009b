//! A pass-through [`Component`] wrapper that times handlers from outside.
//!
//! [`Probe`] forwards every `Component` method, the batching and burst
//! opt-ins included, so wrapping a component never changes how the
//! kernel dispatches to it. A dropped opt-in would silently turn
//! coalescing off; the parity tests compare traced and untraced runs for
//! exactly that reason.
//!
//! With a [`Layer`] attached, each handler call is bracketed by a wall
//! clock read and the calling thread's allocation count
//! ([`crate::alloc`]). Without one, the probe only records what the
//! benchmark needs from an untraced run: the instant `on_start` fired and
//! the kernel's event count at the last handler call.

use crate::{alloc, Mark};
use osnt_netsim::{Component, ComponentId, Kernel, PacketBurst};
use osnt_packet::Packet;
use osnt_time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Accumulated handler cost of one bucket of a layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// Host nanoseconds spent inside handlers.
    pub ns: u64,
    /// Handler calls.
    pub calls: u64,
    /// Frames handed to the handlers.
    pub frames: u64,
    /// Allocations made inside the handlers.
    pub allocs: u64,
}

impl Cost {
    /// The cost accrued between `earlier` and `self`.
    pub fn since(self, earlier: Cost) -> Cost {
        Cost {
            ns: self.ns - earlier.ns,
            calls: self.calls - earlier.calls,
            frames: self.frames - earlier.frames,
            allocs: self.allocs - earlier.allocs,
        }
    }

    /// Sum of two costs.
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            ns: self.ns + other.ns,
            calls: self.calls + other.calls,
            frames: self.frames + other.frames,
            allocs: self.allocs + other.allocs,
        }
    }
}

#[derive(Debug, Default)]
struct Bucket {
    ns: AtomicU64,
    calls: AtomicU64,
    frames: AtomicU64,
    allocs: AtomicU64,
}

impl Bucket {
    fn add(&self, ns: u64, frames: u64, allocs: u64) {
        self.ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        self.frames.fetch_add(frames, Relaxed);
        self.allocs.fetch_add(allocs, Relaxed);
    }

    fn read(&self) -> Cost {
        Cost {
            ns: self.ns.load(Relaxed),
            calls: self.calls.load(Relaxed),
            frames: self.frames.load(Relaxed),
            allocs: self.allocs.load(Relaxed),
        }
    }
}

/// Handler cost of one layer, split into data-path and control-path
/// work. Shared between the probe (which may run on a shard thread) and
/// the harness, which reads it between runs.
#[derive(Debug, Default)]
pub struct Layer {
    data: Bucket,
    ctl: Bucket,
}

impl Layer {
    /// A fresh, shareable layer tally.
    pub fn shared() -> Arc<Layer> {
        Arc::new(Layer::default())
    }

    /// Data-path cost so far.
    pub fn data(&self) -> Cost {
        self.data.read()
    }

    /// Control-path cost so far.
    pub fn ctl(&self) -> Cost {
        self.ctl.read()
    }

    /// Both buckets together.
    pub fn total(&self) -> Cost {
        self.data().plus(self.ctl())
    }
}

type DropHook<C> = Box<dyn FnOnce(&C, u64)>;

/// The wrapper. See the module docs.
pub struct Probe<C: Component> {
    inner: C,
    layer: Option<Arc<Layer>>,
    ctl_port: Option<usize>,
    data_timer: u64,
    started: Option<Arc<OnceLock<Mark>>>,
    events_seen: u64,
    on_drop: Option<DropHook<C>>,
}

impl<C: Component> Probe<C> {
    /// Wrap `inner`; by itself the probe measures nothing.
    pub fn new(inner: C) -> Self {
        Probe {
            inner,
            layer: None,
            ctl_port: None,
            data_timer: 0,
            started: None,
            events_seen: 0,
            on_drop: None,
        }
    }

    /// Time every handler call into `layer`.
    pub fn timed(mut self, layer: Arc<Layer>) -> Self {
        self.layer = Some(layer);
        self
    }

    /// Count calls on `ctl_port`, `on_start`, and timers other than
    /// `data_timer` as control-path work.
    pub fn control_split(mut self, ctl_port: usize, data_timer: u64) -> Self {
        self.ctl_port = Some(ctl_port);
        self.data_timer = data_timer;
        self
    }

    /// Record the host instant (and process CPU clock) at which
    /// `on_start` is first called.
    pub fn mark_start(mut self, cell: Arc<OnceLock<Mark>>) -> Self {
        self.started = Some(cell);
        self
    }

    /// Run `hook` with the wrapped component and the kernel event count
    /// seen at its last handler call when the probe is dropped (the
    /// simulation owns it, so this is how a harness reads it back).
    pub fn on_drop(mut self, hook: impl FnOnce(&C, u64) + 'static) -> Self {
        self.on_drop = Some(Box::new(hook));
        self
    }

    fn call<R>(
        &mut self,
        ctl: bool,
        frames: u64,
        kernel: &mut Kernel,
        f: impl FnOnce(&mut C, &mut Kernel) -> R,
    ) -> R {
        let r = match &self.layer {
            None => f(&mut self.inner, kernel),
            Some(layer) => {
                let a0 = alloc::thread_calls();
                let t0 = Instant::now();
                let r = f(&mut self.inner, kernel);
                let ns = t0.elapsed().as_nanos() as u64;
                let allocs = alloc::thread_calls() - a0;
                let bucket = if ctl { &layer.ctl } else { &layer.data };
                bucket.add(ns, frames, allocs);
                r
            }
        };
        self.events_seen = kernel.events_dispatched();
        r
    }

    fn is_ctl_port(&self, port: usize) -> bool {
        self.ctl_port == Some(port)
    }
}

impl<C: Component> Drop for Probe<C> {
    fn drop(&mut self) {
        if let Some(hook) = self.on_drop.take() {
            hook(&self.inner, self.events_seen);
        }
    }
}

impl<C: Component> Component for Probe<C> {
    fn on_start(&mut self, kernel: &mut Kernel, me: ComponentId) {
        if let Some(cell) = &self.started {
            let _ = cell.set(Mark::now());
        }
        let ctl = self.ctl_port.is_some();
        self.call(ctl, 0, kernel, |c, k| c.on_start(k, me));
    }

    fn on_packet(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, packet: Packet) {
        let ctl = self.is_ctl_port(port);
        let frames = u64::from(!ctl);
        self.call(ctl, frames, kernel, |c, k| c.on_packet(k, me, port, packet));
    }

    fn on_timer(&mut self, kernel: &mut Kernel, me: ComponentId, tag: u64) {
        let ctl = self.ctl_port.is_some() && tag != self.data_timer;
        self.call(ctl, 0, kernel, |c, k| c.on_timer(k, me, tag));
    }

    fn wants_packet_batches(&self) -> bool {
        self.inner.wants_packet_batches()
    }

    fn wants_packet_batches_on(&self, port: usize) -> bool {
        self.inner.wants_packet_batches_on(port)
    }

    fn batch_window(&self) -> Option<SimDuration> {
        self.inner.batch_window()
    }

    fn on_packet_batch(
        &mut self,
        kernel: &mut Kernel,
        me: ComponentId,
        port: usize,
        batch: &mut Vec<(SimTime, Packet)>,
    ) {
        let ctl = self.is_ctl_port(port);
        let frames = if ctl { 0 } else { batch.len() as u64 };
        self.call(ctl, frames, kernel, |c, k| {
            c.on_packet_batch(k, me, port, batch)
        });
    }

    fn wants_bursts(&self) -> bool {
        self.inner.wants_bursts()
    }

    fn on_burst(&mut self, kernel: &mut Kernel, me: ComponentId, port: usize, burst: PacketBurst) {
        let ctl = self.is_ctl_port(port);
        let frames = if ctl { 0 } else { burst.len() as u64 };
        self.call(ctl, frames, kernel, |c, k| c.on_burst(k, me, port, burst));
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
