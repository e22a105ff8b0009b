//! `oflops_churn`: the paper's demo Part II, OFLOPS-turbo flow_mod churn
//! beside a live data-plane probe.
//!
//! The topology is `oflops_turbo::Testbed`'s: a controller on the switch's
//! control port, an OSNT card feeding OpenFlow port 1 and capturing ports
//! 2 and 3. `FlowChurnModule` runs rounds of ADD plus strict DELETE over
//! a live window of /32 rules, each fenced by a tracked barrier, while a
//! Poisson `RoundRobinDst` probe crosses the data plane.
//!
//! The benchmark assembles that topology itself from the same public
//! parts, in the same order, so it can wrap the switch and controller in
//! probes and read the switch's port counters. Once per process it also
//! runs `Testbed::build` and requires identical outputs and event counts.

use crate::probe::Probe;
use crate::{add_probed, sub_seed, Digest, Layers, Mark, Rep, Tallies};
use oflops_turbo::controller::ControlLogEntry;
use oflops_turbo::modules::flow_churn::{FlowChurnModule, FlowChurnState};
use oflops_turbo::modules::probe::RoundRobinDst;
use oflops_turbo::{ControlDir, OflopsController, RetryPolicy, Testbed, TestbedSpec};
use osnt_core::{DeviceConfig, OsntDevice, PortRole};
use osnt_gen::{GenConfig, Schedule, StampConfig};
use osnt_mon::{CaptureBuffer, HostPathConfig, MonConfig, MonStats};
use osnt_netsim::{LinkSpec, SimBuilder};
use osnt_openflow::messages::Message;
use osnt_switch::fabric::TIMER_FORWARD;
use osnt_switch::{Classifier, OfSwitchConfig, OpenFlowSwitch};
use osnt_time::{DriftModel, GpsSignal, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// ADDs per round.
pub const BATCH: usize = 128;
/// Live /32 rules the deletes hold the table at.
pub const WINDOW: usize = 4096;
/// Probe load as a fraction of 10G line rate.
pub const PROBE_LOAD: f64 = 0.2;
/// Probe frame length.
pub const FRAME_LEN: usize = 64;
/// Churn and probe traffic start here, after the baseline barrier.
pub const START: SimTime = SimTime::from_ms(1);

/// The workload at a given seed and size.
#[derive(Debug, Clone)]
pub struct Churn {
    /// Workload seed.
    pub seed: u64,
    /// Churn rounds.
    pub rounds: usize,
    /// Probe window; every round must complete inside it.
    pub duration: SimDuration,
    /// Digest and total event count of the `Testbed::build` reference.
    reference: (u64, u64),
}

/// Outputs of one run, from either assembly.
struct Outputs<'a> {
    log: &'a [ControlLogEntry],
    captures: [&'a CaptureBuffer; 2],
    mons: [MonStats; 2],
    gen_sent: u64,
    state: &'a FlowChurnState,
}

impl Outputs<'_> {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for e in self.log {
            d.debug(e);
        }
        for cap in self.captures {
            for c in &cap.packets {
                d.u64(c.rx_stamp.to_ps())
                    .u64(c.rx_true.as_ps())
                    .bytes(c.packet.data());
            }
        }
        d.debug(&self.mons)
            .u64(self.gen_sent)
            .debug(&self.state.round_latencies)
            .u64(self.state.mods_sent)
            .finish()
    }
}

impl Churn {
    /// The workload; runs the `Testbed::build` reference.
    pub fn new(seed: u64, rounds: usize, duration: SimDuration) -> Self {
        let mut churn = Churn {
            seed,
            rounds,
            duration,
            reference: (0, 0),
        };
        let (module, state) = churn.module();
        let (workload, gen) = churn.probe();
        let spec = TestbedSpec {
            switch: switch_config(),
            probe: Some((Box::new(workload), gen)),
            clock_model: DriftModel::ideal(),
            clock_seed: churn.clock_seed(),
            control_faults: None,
            retry: retry(),
            progress: None,
        };
        let mut tb = Testbed::build(spec, Box::new(module));
        tb.run_until(churn.horizon());
        let out = Outputs {
            log: &tb.control_log.borrow(),
            captures: [&tb.capture_a.borrow(), &tb.capture_b.borrow()],
            mons: [*tb.mon_a.borrow(), *tb.mon_b.borrow()],
            gen_sent: tb.gen_stats.as_ref().map_or(0, |g| g.borrow().sent_frames),
            state: &state.borrow(),
        };
        churn.reference = (out.digest(), tb.sim.kernel().events_dispatched());
        churn
    }

    fn clock_seed(&self) -> u64 {
        sub_seed(self.seed, 1)
    }

    fn module(&self) -> (FlowChurnModule, Rc<RefCell<FlowChurnState>>) {
        FlowChurnModule::new(self.rounds, BATCH, WINDOW, START)
    }

    fn probe(&self) -> (RoundRobinDst, GenConfig) {
        let mean_pps = PROBE_LOAD * osnt_packet::line_rate_pps(10_000_000_000, FRAME_LEN);
        (
            RoundRobinDst::new(self.rounds * BATCH, FRAME_LEN),
            GenConfig {
                schedule: Schedule::Poisson {
                    mean_pps,
                    seed: sub_seed(self.seed, 2),
                },
                count: None,
                stop_at: Some(START + self.duration),
                start_at: START,
                stamp: Some(StampConfig::default_payload()),
                record_departures: false,
                batch: 1,
            },
        )
    }

    /// Simulated instant by which every frame has been delivered.
    pub fn horizon(&self) -> SimTime {
        START + self.duration + SimDuration::from_ms(1)
    }

    /// Run one repetition; `traced` wraps the switch and controller.
    pub fn rep(&self, traced: bool) -> Rep {
        let t_setup = std::time::Instant::now();
        let tallies = traced.then(Tallies::default);
        let t = tallies.as_ref();
        let (module, state) = self.module();
        let (workload, gen) = self.probe();

        // The same components, names and wiring order as `Testbed::build`.
        let mut b = SimBuilder::new();
        let switch = OpenFlowSwitch::new(switch_config());
        let (ctrl_port, sw_ports) = (switch.control_port(), switch.kernel_ports());
        let sw = match t {
            Some(t) => {
                let p = Probe::new(switch)
                    .timed(t.switch.clone())
                    .control_split(ctrl_port, TIMER_FORWARD);
                b.add_component("of-switch", Box::new(p), sw_ports)
            }
            None => b.add_component("of-switch", Box::new(switch), sw_ports),
        };
        let (controller, control_log) = OflopsController::with_policy(Box::new(module), retry());
        let control_errors = controller.errors_handle();
        let ctl = add_probed(&mut b, "controller", controller, 1, t.map(|t| &t.ctl));
        b.connect(ctl, 0, sw, ctrl_port, LinkSpec::one_gig());
        let unlimited = || MonConfig {
            host: HostPathConfig::unlimited(),
            ..MonConfig::default()
        };
        let device = OsntDevice::install(
            &mut b,
            DeviceConfig {
                clock_model: DriftModel::ideal(),
                clock_seed: self.clock_seed(),
                gps: None,
                gps_signal: GpsSignal::always_on(),
                ports: vec![
                    PortRole::generator(Box::new(workload), gen),
                    PortRole::monitor_only().with_monitor(unlimited()),
                    PortRole::monitor_only().with_monitor(unlimited()),
                ],
            },
        );
        for (i, port) in device.ports.iter().enumerate() {
            b.connect(port.id, 0, sw, i, LinkSpec::ten_gig());
        }
        let mut sim = b.build();
        sim.run_until(START);
        let setup_s = t_setup.elapsed().as_secs_f64();

        let events0 = sim.kernel().events_dispatched();
        let snap0 = t.map(Tallies::snap);
        let t0 = Mark::now();
        sim.run_until(self.horizon());
        let t1 = Mark::now();
        let snap1 = t.map(Tallies::snap);
        let events_total = sim.kernel().events_dispatched();

        let log = control_log.borrow();
        let st = state.borrow();
        let gen_sent = device.ports[0]
            .gen_stats
            .as_ref()
            .map_or(0, |g| g.borrow().sent_frames);
        let mons = [
            *device.ports[1].mon_stats.borrow(),
            *device.ports[2].mon_stats.borrow(),
        ];

        // Frame ledger: the probe reaches the switch; what the switch
        // forwards reaches a monitor, which captures or filters it; the
        // rest the switch dropped at a full queue or by rule (the
        // priority-0 drop-all catches probes of rules not live yet).
        let k = sim.kernel();
        let sw_in = k.counters(sw, 0);
        let mut forwarded = 0;
        let mut failed = gen_sent.abs_diff(sw_in.rx_frames);
        for (i, m) in mons.iter().enumerate() {
            let out = k.counters(sw, i + 1);
            forwarded += out.tx_frames + out.tx_drops;
            failed += out.tx_frames.abs_diff(m.rx_frames)
                + m.rx_frames.abs_diff(
                    m.crc_fail + m.filtered_out + m.host_frames + m.host_drops + m.capture_shed,
                );
        }
        failed += forwarded.saturating_sub(sw_in.rx_frames);
        // Flow_mod ledger: every FLOW_MOD sent is fenced by a later
        // barrier reply; errors and control timeouts count as failures.
        let (mut sent_mods, mut fenced_mods) = (0u64, 0u64);
        for e in log.iter() {
            match (e.dir, &e.message) {
                (ControlDir::Sent, Message::FlowMod(_)) => sent_mods += 1,
                (ControlDir::Received, Message::BarrierReply) => fenced_mods = sent_mods,
                (ControlDir::Received, Message::Error { .. }) => failed += 1,
                _ => {}
            }
        }
        failed += (sent_mods - fenced_mods)
            + sent_mods.abs_diff(st.mods_sent + 1)
            + control_errors.borrow().len() as u64
            + (self.rounds - st.round_latencies.len().min(self.rounds)) as u64;

        let digest = Outputs {
            log: &log,
            captures: [
                &device.ports[1].capture.borrow(),
                &device.ports[2].capture.borrow(),
            ],
            mons,
            gen_sent,
            state: &st,
        }
        .digest();

        let layers = t.map(|t| {
            let (s0, s1) = (snap0.expect("traced"), snap1.expect("traced"));
            Layers {
                events_per_frame: (events_total - events0) as f64 / gen_sent.max(1) as f64,
                ..t.layers(&s0, &s1)
            }
        });
        Rep {
            setup_s,
            run_s: (t1.at - t0.at).as_secs_f64(),
            cpu_s: t1.cpu_s - t0.cpu_s,
            frames: gen_sent,
            flow_mods: sent_mods,
            failed,
            digest,
            events: events_total - events0,
            correct: st.done && (digest, events_total) == self.reference,
            layers,
        }
    }
}

/// The switch under test: honest barriers, a fast management CPU like a
/// software switch, the tuple-space classifier set explicitly.
pub fn switch_config() -> OfSwitchConfig {
    OfSwitchConfig {
        n_ports: 3,
        table_capacity: WINDOW + 256,
        flowmod_proc: SimDuration::from_us(1),
        hw_install_delay: SimDuration::from_us(10),
        honest_barrier: true,
        classifier: Classifier::TupleSpace,
        compiled_lookup: true,
        batch: true,
        ..OfSwitchConfig::default()
    }
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        timeout: SimDuration::from_ms(50),
        max_retries: 3,
        jitter_seed: Some(RetryPolicy::DEFAULT_JITTER_SEED),
    }
}
