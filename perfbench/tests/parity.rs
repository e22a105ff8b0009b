//! Wrapping components in timing probes must not change what a run does:
//! traced and untraced repetitions of every workload give identical
//! output digests and identical kernel event counts. A probe that
//! dropped a batching or burst opt-in would turn coalescing off and show
//! up here as a different event count.

use osnt_netsim::{Component, ComponentId, Kernel};
use osnt_packet::Packet;
use osnt_perfbench::churn::Churn;
use osnt_perfbench::fig2::Fig2;
use osnt_perfbench::of_burst::OfBurst;
use osnt_perfbench::probe::{Layer, Probe};
use osnt_perfbench::Rep;
use osnt_time::SimDuration;

fn assert_parity(name: &str, plain: &Rep, traced: &Rep) {
    assert!(plain.correct && traced.correct, "{name}: reference check");
    assert_eq!(plain.failed, 0, "{name}: untraced ledger");
    assert_eq!(traced.failed, 0, "{name}: traced ledger");
    assert!(plain.frames > 0, "{name}: no traffic");
    assert_eq!(plain.digest, traced.digest, "{name}: digests differ");
    assert_eq!(plain.events, traced.events, "{name}: event counts differ");
    assert_eq!(plain.frames, traced.frames, "{name}: frames differ");
    assert!(plain.layers.is_none() && traced.layers.is_some());
}

#[test]
fn of_burst_traced_equals_untraced() {
    let w = OfBurst {
        seed: 7,
        frames: 20_000,
    };
    let (plain, traced) = (w.rep(false), w.rep(true));
    assert_parity("of_burst", &plain, &traced);
    let l = traced.layers.expect("traced");
    // Every datapath layer saw the traffic, in bursts where it batches.
    assert!(l.gen.calls > 0 && l.gen.calls < plain.frames / 8);
    assert!(l.link.calls > 0 && l.link.calls < plain.frames / 8);
    assert!(l.switch.frames > 0 && l.mon.frames > 0);
    assert!(l.ctl.calls > 0 && l.switch_ctl.calls > 0);
}

#[test]
fn fig2_traced_equals_untraced() {
    let w = Fig2::new(7, SimDuration::from_ms(1)).expect("reference run");
    let plain = w.rep(false).expect("untraced run");
    let traced = w.rep(true).expect("traced run");
    assert_parity("fig2_sharded", &plain, &traced);
    let l = traced.layers.expect("traced");
    assert!(l.dut.frames > 0);
    assert!(l.shard.windows > 0 && l.shard.ring_pushes > 0);
}

#[test]
fn churn_traced_equals_untraced() {
    let w = Churn::new(7, 12, SimDuration::from_ms(10));
    let (plain, traced) = (w.rep(false), w.rep(true));
    assert_parity("oflops_churn", &plain, &traced);
    assert!(plain.flow_mods > 12 * 128);
    let l = traced.layers.expect("traced");
    assert!(l.switch.frames > 0 && l.switch_ctl.calls > 0 && l.ctl.calls > 0);
}

/// A component whose every opt-in differs from the trait default.
struct Odd;

impl Component for Odd {
    fn on_packet(&mut self, _: &mut Kernel, _: ComponentId, _: usize, _: Packet) {}
    fn wants_packet_batches(&self) -> bool {
        true
    }
    fn wants_packet_batches_on(&self, port: usize) -> bool {
        port == 3
    }
    fn batch_window(&self) -> Option<SimDuration> {
        Some(SimDuration::from_ns(42))
    }
    fn wants_bursts(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "odd"
    }
}

#[test]
fn probe_forwards_every_opt_in() {
    let p = Probe::new(Odd).timed(Layer::shared());
    assert!(p.wants_packet_batches());
    assert!(p.wants_packet_batches_on(3));
    assert!(!p.wants_packet_batches_on(0));
    assert_eq!(p.batch_window(), Some(SimDuration::from_ns(42)));
    assert!(p.wants_bursts());
    assert_eq!(p.name(), "odd");
}
