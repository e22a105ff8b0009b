//! Integration tests of the extension features: link impairment with
//! sequence-tracked loss measurement, echo-under-load, kernel tracing on
//! the burst datapath, and the RFC 2544 throughput search wired through
//! the CLI-facing APIs.

use osnt::core::{analyze_sequence, DeviceConfig, OsntDevice, PortRole};
use osnt::gen::workload::FixedTemplate;
use osnt::gen::{FlowPool, GenConfig, GeneratorPort, Schedule, StampConfig};
use osnt::mon::{HostPathConfig, MonConfig};
use osnt::netsim::trace::VecTracer;
use osnt::netsim::{
    Component, ComponentId, FaultConfig, FaultStats, FaultyLink, Kernel, LinkSpec, LossModel,
    SimBuilder, TraceEvent, Tracer,
};
use osnt::oflops::modules::{EchoLoadModule, RoundRobinDst};
use osnt::oflops::{Testbed, TestbedSpec};
use osnt::packet::{hash::crc32, Packet};
use osnt::switch::OfSwitchConfig;
use osnt::time::{DriftModel, HwClock, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn tester_measures_impaired_link_loss_with_sequence_tags() {
    // OSNT port 0 → impaired link (10% loss) → OSNT port 1.
    let mut b = SimBuilder::new();
    let n_frames = 5_000u64;
    let device = OsntDevice::install(
        &mut b,
        DeviceConfig {
            clock_model: DriftModel::ideal(),
            clock_seed: 1,
            gps: None,
            gps_signal: osnt::time::GpsSignal::always_on(),
            ports: vec![
                PortRole::generator(
                    Box::new(FixedTemplate::new(FixedTemplate::udp_frame(256)).with_sequence_tag()),
                    GenConfig {
                        schedule: Schedule::ConstantPps(1_000_000.0),
                        count: Some(n_frames),
                        ..GenConfig::default()
                    },
                ),
                PortRole::monitor_only().with_monitor(MonConfig {
                    host: HostPathConfig::unlimited(),
                    ..MonConfig::default()
                }),
            ],
        },
    );
    let (link, _) = FaultyLink::new(FaultConfig {
        loss: LossModel::Uniform { probability: 0.10 },
        seed: 99,
        ..FaultConfig::default()
    })
    .expect("valid fault config");
    let imp = b.add_component("impairment", Box::new(link), 2);
    b.connect(device.ports[0].id, 0, imp, 0, LinkSpec::ten_gig());
    b.connect(imp, 1, device.ports[1].id, 0, LinkSpec::ten_gig());
    let mut sim = b.build();
    sim.run_until(SimTime::from_ms(50));

    let capture = device.ports[1].capture.borrow();
    let report = analyze_sequence(&capture);
    assert_eq!(report.duplicated, 0);
    assert_eq!(report.reordered, 0);
    let measured_loss = report.loss_fraction(n_frames);
    assert!(
        (measured_loss - 0.10).abs() < 0.02,
        "measured loss {measured_loss} vs injected 0.10"
    );
    // Holes detected by the tracker match the arithmetic of the capture.
    assert_eq!(
        report.tagged as u64 + report.lost,
        report.max_seq + 1,
        "every sequence number is either seen or counted lost"
    );
}

#[test]
fn impairment_jitter_inflates_measured_latency_spread() {
    use osnt::core::{latencies_from_capture, Summary};
    use osnt::gen::txstamp::StampConfig;
    let run = |jitter_us: u64| {
        let mut b = SimBuilder::new();
        let device = OsntDevice::install(
            &mut b,
            DeviceConfig {
                clock_model: DriftModel::ideal(),
                clock_seed: 1,
                gps: None,
                gps_signal: osnt::time::GpsSignal::always_on(),
                ports: vec![
                    PortRole::generator(
                        Box::new(FixedTemplate::new(FixedTemplate::udp_frame(256))),
                        GenConfig {
                            schedule: Schedule::ConstantPps(100_000.0),
                            count: Some(1_000),
                            stamp: Some(StampConfig::default_payload()),
                            ..GenConfig::default()
                        },
                    ),
                    PortRole::monitor_only().with_monitor(MonConfig {
                        host: HostPathConfig::unlimited(),
                        ..MonConfig::default()
                    }),
                ],
            },
        );
        let (link, _) = FaultyLink::new(FaultConfig {
            jitter: SimDuration::from_us(jitter_us),
            seed: 3,
            ..FaultConfig::default()
        })
        .expect("valid fault config");
        let imp = b.add_component("imp", Box::new(link), 2);
        b.connect(device.ports[0].id, 0, imp, 0, LinkSpec::ten_gig());
        b.connect(imp, 1, device.ports[1].id, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(SimTime::from_ms(50));
        let capture = device.ports[1].capture.borrow();
        let lat = latencies_from_capture(&capture, StampConfig::DEFAULT_OFFSET);
        Summary::from_durations(&lat).unwrap()
    };
    let clean = run(0);
    let jittered = run(50);
    assert!(
        clean.stddev_ns < 10.0,
        "clean path stddev {}",
        clean.stddev_ns
    );
    assert!(
        jittered.stddev_ns > 1_000.0,
        "jittered path stddev {}",
        jittered.stddev_ns
    );
    assert!(jittered.max_ns > clean.max_ns + 10_000.0);
}

#[test]
fn echo_rtt_inflates_during_flow_mod_burst() {
    // 40 echoes every 500 µs; a 100-rule burst at t = 10 ms.
    let (module, state) =
        EchoLoadModule::new(40, SimDuration::from_us(500), SimTime::from_ms(10), 100);
    let spec = TestbedSpec {
        switch: OfSwitchConfig::default(),
        probe: Some((
            Box::new(RoundRobinDst::new(4, 128)),
            GenConfig {
                // Tiny probe just to keep the dataplane busy.
                schedule: Schedule::ConstantPps(10_000.0),
                start_at: SimTime::from_ms(1),
                stop_at: Some(SimTime::from_ms(30)),
                ..GenConfig::default()
            },
        )),
        ..TestbedSpec::control_only()
    };
    let mut tb = Testbed::build(spec, Box::new(module));
    tb.run_until(SimTime::from_ms(40));
    let st = state.borrow();
    assert!(st.rtts.len() >= 38, "echoes answered: {}", st.rtts.len());
    let baseline = st.baseline_rtt().expect("baseline");
    let worst = st.worst_rtt_after_burst().expect("worst");
    // 100 × 25 µs of flow_mod CPU stands between an echo and its reply.
    assert!(
        worst >= baseline.saturating_mul(5),
        "worst {worst} vs baseline {baseline}"
    );
    assert!(worst >= SimDuration::from_ms(1), "worst {worst}");
}

/// A batch-capable sink: logs every frame's arrival instant and payload
/// digest, and the size of every handler call.
struct BatchSink {
    log: Rc<RefCell<SinkLog>>,
}

#[derive(Debug, Default, PartialEq)]
struct SinkLog {
    /// (arrival, payload crc32) per frame.
    frames: Vec<(SimTime, u32)>,
    /// Frames per handler call.
    calls: Vec<usize>,
}

impl Component for BatchSink {
    fn on_packet(&mut self, k: &mut Kernel, _: ComponentId, _: usize, pkt: Packet) {
        let mut log = self.log.borrow_mut();
        log.frames.push((k.now(), crc32(pkt.data())));
        log.calls.push(1);
    }
    fn wants_packet_batches(&self) -> bool {
        true
    }
    fn on_packet_batch(
        &mut self,
        _: &mut Kernel,
        _: ComponentId,
        _: usize,
        batch: &mut Vec<(SimTime, Packet)>,
    ) {
        let mut log = self.log.borrow_mut();
        log.calls.push(batch.len());
        for (t, pkt) in batch.drain(..) {
            log.frames.push((t, crc32(pkt.data())));
        }
    }
}

/// Shared-handle tracer so the test can read the trace after the run.
struct SharedTracer(Rc<RefCell<VecTracer>>);

impl Tracer for SharedTracer {
    fn trace(&mut self, time: SimTime, event: &TraceEvent) {
        self.0.borrow_mut().trace(time, event);
    }
}

/// Everything one run of the tracing pipeline lets the test observe.
struct TracedRun {
    sink: SinkLog,
    faults: FaultStats,
    departures: Vec<SimTime>,
    events_dispatched: u64,
    /// `Delivered` trace records as (receiver, instant).
    delivered: Vec<(ComponentId, SimTime)>,
    link: ComponentId,
    sink_id: ComponentId,
}

/// Generator (batch 32, back to back) → lossy `FaultyLink` → batch sink,
/// with or without a kernel tracer.
fn run_burst_pipeline(traced: bool) -> TracedRun {
    let mut b = SimBuilder::new();
    let clock = Rc::new(RefCell::new(HwClock::ideal()));
    let (gen, gen_stats) = GeneratorPort::new(
        Box::new(FlowPool::new(64, 64, 5)),
        GenConfig {
            schedule: Schedule::BackToBack,
            count: Some(3_000),
            stamp: Some(StampConfig::default_payload()),
            record_departures: true,
            batch: 32,
            ..GenConfig::default()
        },
        clock,
    );
    let (link, faults) = FaultyLink::new(FaultConfig {
        loss: LossModel::Uniform { probability: 0.02 },
        seed: 11,
        ..FaultConfig::default()
    })
    .expect("valid fault config");
    let log = Rc::new(RefCell::new(SinkLog::default()));
    let gen = b.add_component("gen", Box::new(gen), 1);
    let link = b.add_component("link", Box::new(link), 2);
    let sink_id = b.add_component("sink", Box::new(BatchSink { log: log.clone() }), 1);
    b.connect(gen, 0, link, 0, LinkSpec::ten_gig());
    b.connect(link, 1, sink_id, 0, LinkSpec::ten_gig());
    let trace = Rc::new(RefCell::new(VecTracer::default()));
    if traced {
        b.add_tracer(Box::new(SharedTracer(trace.clone())));
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_ms(1));
    let delivered = trace
        .borrow()
        .events
        .iter()
        .filter_map(|(t, ev)| match ev {
            TraceEvent::Delivered { dst, .. } => Some((*dst, *t)),
            _ => None,
        })
        .collect();
    let sink = std::mem::take(&mut *log.borrow_mut());
    let departures = std::mem::take(&mut gen_stats.borrow_mut().departures);
    let faults = *faults.borrow();
    TracedRun {
        sink,
        faults,
        departures,
        events_dispatched: sim.kernel().events_dispatched(),
        delivered,
        link,
        sink_id,
    }
}

#[test]
fn kernel_tracer_observes_burst_datapath_without_changing_it() {
    let plain = run_burst_pipeline(false);
    let traced = run_burst_pipeline(true);
    assert_eq!(plain.departures.len(), 3_000);
    assert!(plain.faults.dropped > 0, "the loss model must bite");
    assert!(
        plain.sink.calls.iter().any(|&n| n > 1),
        "the sink must receive coalesced batches"
    );
    assert_eq!(traced.sink, plain.sink, "sink observables");
    assert_eq!(traced.faults, plain.faults, "fault tallies");
    assert_eq!(traced.departures, plain.departures, "departures");
    assert_eq!(traced.events_dispatched, plain.events_dispatched);
    assert!(plain.delivered.is_empty());

    // One `Delivered` per frame, each at that frame's own arrival: at
    // the link, a 64 B frame's last bit lands 57.6 ns of wire time plus
    // 10 ns of propagation after its departure...
    let at = |dst| -> Vec<SimTime> {
        traced
            .delivered
            .iter()
            .filter(|(d, _)| *d == dst)
            .map(|(_, t)| *t)
            .collect()
    };
    let link_arrivals: Vec<SimTime> = traced
        .departures
        .iter()
        .map(|&tx| tx + SimDuration::from_ps(57_600 + 10_000))
        .collect();
    assert_eq!(at(traced.link), link_arrivals);
    // ...and at the sink, exactly when the sink saw it.
    let sink_arrivals: Vec<SimTime> = traced.sink.frames.iter().map(|(t, _)| *t).collect();
    assert_eq!(at(traced.sink_id), sink_arrivals);
    assert_eq!(
        traced.delivered.len(),
        link_arrivals.len() + sink_arrivals.len()
    );
}
