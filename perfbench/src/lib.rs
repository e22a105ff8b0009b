//! The repository benchmark: three workloads through the simulator's
//! public APIs, each run as a closed batch job to a fixed simulated
//! horizon, with host-side measurements taken around the calls.
//!
//! * [`of_burst`] — the burst datapath: generator → `FaultyLink` →
//!   tuple-space `OpenFlowSwitch` → hardware-filtering `MonitorPort`.
//! * [`fig2`] — the paper's demo Part I through
//!   `LatencyExperiment::run` on the sharded executive.
//! * [`churn`] — the paper's demo Part II: OFLOPS-turbo flow_mod churn
//!   beside a live data-plane probe.
//!
//! One repetition of a workload returns a [`Rep`]. Untraced repetitions
//! feed the end-to-end metrics; traced ones wrap components in
//! [`probe::Probe`] and fill [`Rep::layers`]. See `README.md` for the
//! metric definitions and why each workload was chosen.

pub mod alloc;
pub mod churn;
pub mod fig2;
pub mod of_burst;
pub mod probe;

use osnt_netsim::{Component, ComponentId, SimBuilder};
use probe::{Cost, Layer, Probe};
use std::sync::Arc;
use std::time::Instant;

/// What one repetition measured and produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds before simulated traffic started.
    pub setup_s: f64,
    /// Host seconds of the timed run.
    pub run_s: f64,
    /// Process CPU seconds (all threads) during the timed run.
    pub cpu_s: f64,
    /// Frames the generators offered.
    pub frames: u64,
    /// FLOW_MODs the controller sent.
    pub flow_mods: u64,
    /// Frames and flow_mods the conservation ledger cannot account
    /// for, plus flow_mod errors and control timeouts.
    pub failed: u64,
    /// Digest of every simulated output the workload checks.
    pub digest: u64,
    /// Kernel events dispatched (as far as the workload can see them).
    pub events: u64,
    /// Whether the workload's own output check (against a reference run)
    /// passed.
    pub correct: bool,
    /// Per-layer figures (traced repetitions only).
    pub layers: Option<Layers>,
}

/// Raw per-layer figures of one traced repetition. Handler costs cover
/// the timed run, except the control-path buckets, which cover the whole
/// repetition (flow_mods are installed during set-up on `of_burst`).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Generator handlers.
    pub gen: Cost,
    /// `FaultyLink` handlers.
    pub link: Cost,
    /// OpenFlow switch data-path handlers.
    pub switch: Cost,
    /// OpenFlow switch control-path handlers (whole repetition).
    pub switch_ctl: Cost,
    /// Controller handlers (whole repetition).
    pub ctl: Cost,
    /// Monitor handlers.
    pub mon: Cost,
    /// Legacy-switch DUT handlers.
    pub dut: Cost,
    /// Process-wide allocations during the timed run.
    pub allocs: u64,
    /// Process-wide bytes requested during the timed run.
    pub alloc_bytes: u64,
    /// Handler time of every wrapped component in the timed run, both
    /// buckets.
    pub wrapped_ns: u64,
    /// Kernel events per offered frame.
    pub events_per_frame: f64,
    /// Sharded-executive counters summed over shards (zero on a single
    /// kernel).
    pub shard: ShardTally,
}

/// Sharded-executive counters summed over shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardTally {
    /// Window rounds executed (shards that dispatched something).
    pub windows: u64,
    /// Barrier crossings.
    pub barrier_waits: u64,
    /// Cross-shard ring pushes.
    pub ring_pushes: u64,
    /// Pushes that overflowed into a spill vector.
    pub spill_events: u64,
}

impl ShardTally {
    /// Sum the per-shard counters a sharded run reported.
    pub fn from_stats(stats: &[osnt_netsim::ShardStats]) -> Self {
        stats.iter().fold(ShardTally::default(), |t, s| ShardTally {
            windows: t.windows + s.windows_executed,
            barrier_waits: t.barrier_waits + s.barrier_waits,
            ring_pushes: t.ring_pushes + s.ring_pushes,
            spill_events: t.spill_events + s.spill_events,
        })
    }

    /// Component-wise sum.
    pub fn plus(self, o: ShardTally) -> Self {
        ShardTally {
            windows: self.windows + o.windows,
            barrier_waits: self.barrier_waits + o.barrier_waits,
            ring_pushes: self.ring_pushes + o.ring_pushes,
            spill_events: self.spill_events + o.spill_events,
        }
    }
}

/// One layer tally per wrapped component kind of a traced repetition.
#[derive(Debug, Default)]
pub struct Tallies {
    /// Generator.
    pub gen: Arc<Layer>,
    /// Link / fault stage.
    pub link: Arc<Layer>,
    /// OpenFlow switch.
    pub switch: Arc<Layer>,
    /// Controller.
    pub ctl: Arc<Layer>,
    /// Monitor.
    pub mon: Arc<Layer>,
    /// Legacy-switch DUT.
    pub dut: Arc<Layer>,
}

/// Every tally and the process allocation totals at one instant;
/// subtract two of these to get the cost of the timed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TallySnap {
    gen: Cost,
    link: Cost,
    switch: Cost,
    mon: Cost,
    dut: Cost,
    wrapped_ns: u64,
    allocs: (u64, u64),
}

impl Tallies {
    /// Read every tally and the process allocation totals.
    pub fn snap(&self) -> TallySnap {
        TallySnap {
            gen: self.gen.total(),
            link: self.link.total(),
            switch: self.switch.data(),
            mon: self.mon.total(),
            dut: self.dut.total(),
            wrapped_ns: [
                &self.gen,
                &self.link,
                &self.switch,
                &self.ctl,
                &self.mon,
                &self.dut,
            ]
            .iter()
            .map(|l| l.total().ns)
            .sum(),
            allocs: alloc::totals(),
        }
    }

    /// Per-layer figures for the timed run between `before` and
    /// `after`. Control-path buckets are taken whole.
    pub fn layers(&self, before: &TallySnap, after: &TallySnap) -> Layers {
        Layers {
            gen: after.gen.since(before.gen),
            link: after.link.since(before.link),
            switch: after.switch.since(before.switch),
            switch_ctl: self.switch.ctl(),
            ctl: self.ctl.total(),
            mon: after.mon.since(before.mon),
            dut: after.dut.since(before.dut),
            wrapped_ns: after.wrapped_ns - before.wrapped_ns,
            allocs: after.allocs.0 - before.allocs.0,
            alloc_bytes: after.allocs.1 - before.allocs.1,
            events_per_frame: 0.0,
            shard: ShardTally::default(),
        }
    }
}

/// Add `c` to `b`, wrapped in a probe that times it into `layer` when
/// one is given.
pub fn add_probed<C: Component + 'static>(
    b: &mut SimBuilder,
    name: &str,
    c: C,
    ports: usize,
    layer: Option<&Arc<Layer>>,
) -> ComponentId {
    match layer {
        Some(l) => b.add_component(name, Box::new(Probe::new(c).timed(l.clone())), ports),
        None => b.add_component(name, Box::new(c), ports),
    }
}

/// A host instant together with the process CPU clock at that instant.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Wall clock.
    pub at: Instant,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

impl Mark {
    /// Now.
    pub fn now() -> Self {
        Mark {
            at: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by the whole process (user plus system, every
/// thread), in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) and the clock id is a constant the kernel defines; the call
    // writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, 64 bit: a dependency-free digest for simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold a number in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a value's `Debug` rendering in (streamed, never buffered).
    pub fn debug(&mut self, v: &impl std::fmt::Debug) -> &mut Self {
        use std::fmt::Write;
        write!(self, "{v:?}").expect("digest writes are infallible");
        self
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Derive an independent sub-seed from the workload seed (SplitMix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
