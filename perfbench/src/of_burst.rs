//! `of_burst`: the burst datapath on one kernel.
//!
//! ```text
//!   gen (FlowPool, 64 B, batch 32) ─▶ FaultyLink (uniform loss)
//!     ─▶ OpenFlowSwitch (tuple space) ─▶ MonitorPort (hardware filter)
//!   OflopsController ─▶ switch control port (rules installed in set-up)
//! ```
//!
//! Set-up builds the components and runs the simulated preamble: the
//! controller installs one exact rule per flow plus decoy rules of other
//! mask shapes and fences them with a barrier. The timed run then sends
//! `frames` minimum-size frames back to back at 10G line rate.

use crate::probe::Probe;
use crate::{add_probed, sub_seed, Digest, Layers, Mark, Rep, Tallies};
use oflops_turbo::{MeasurementModule, ModuleCtx, OflopsController, RetryPolicy};
use osnt_gen::{FlowPool, GenConfig, GeneratorPort, Schedule, StampConfig};
use osnt_mon::{FilterAction, FilterTable, HostPathConfig, MonConfig, MonitorPort, ThinConfig};
use osnt_netsim::{FaultConfig, FaultyLink, LinkSpec, LossModel, SimBuilder};
use osnt_openflow::match_field::wildcards;
use osnt_openflow::messages::{FlowMod, Message};
use osnt_openflow::{Action, OfMatch};
use osnt_packet::{MacAddr, WildcardRule};
use osnt_switch::fabric::TIMER_FORWARD;
use osnt_switch::{Classifier, OfSwitchConfig, OpenFlowSwitch};
use osnt_time::{HwClock, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Distinct UDP flows the generator draws from.
pub const N_FLOWS: u16 = 4096;
/// Minimum-size Ethernet frames.
pub const FRAME_LEN: usize = 64;
/// Generator batch (frames offered per timer event).
pub const GEN_BATCH: u64 = 32;
/// Uniform loss probability on the link.
pub const LOSS: f64 = 0.001;
/// Decoy rules per extra mask shape (four shapes).
pub const DECOYS_PER_SHAPE: u16 = 64;
/// The monitor captures every `CAPTURE_STRIDE`-th flow and drops the
/// rest in hardware.
pub const CAPTURE_STRIDE: u16 = 512;
/// Traffic starts here; the rule preamble must be fenced before it.
pub const TRAFFIC_START: SimTime = SimTime::from_ms(10);
/// Wire time of one 64 B frame at 10 Gb/s (84 B with preamble and gap).
const FRAME_TIME: SimDuration = SimDuration::from_ps(67_200);
/// Switch data port facing the link.
const SW_IN: usize = 0;
/// Switch data port facing the monitor (OpenFlow port 2).
const SW_OUT: usize = 1;

/// The workload at a given seed and size.
#[derive(Debug, Clone)]
pub struct OfBurst {
    /// Workload seed.
    pub seed: u64,
    /// Frames per repetition.
    pub frames: u64,
}

/// The exact rule for one pool flow: every header field the pool varies
/// or fixes, so the whole table shares one tuple.
fn flow_rule(flow: u16) -> FlowMod {
    let o = flow.to_be_bytes();
    let mut m = OfMatch::any();
    m.dl_src = MacAddr::local(1);
    m.dl_dst = MacAddr::local(2);
    m.dl_type = 0x0800;
    m.nw_proto = 17;
    m.nw_src = Ipv4Addr::new(10, 0, o[0], o[1]);
    m.nw_dst = Ipv4Addr::new(10, 1, 0, 1);
    m.tp_src = 10_000 + flow;
    m.tp_dst = 9001;
    m.wildcards &= !(wildcards::DL_SRC
        | wildcards::DL_DST
        | wildcards::DL_TYPE
        | wildcards::NW_PROTO
        | wildcards::TP_SRC
        | wildcards::TP_DST);
    m.set_nw_src_prefix(32);
    m.set_nw_dst_prefix(32);
    FlowMod::add(
        m,
        100,
        vec![Action::Output {
            port: SW_OUT as u16 + 1,
            max_len: 0,
        }],
    )
}

/// Rules of four other mask shapes that never match the pool's traffic,
/// at a higher priority, so every lookup probes their tuples first.
fn decoy_rules() -> Vec<FlowMod> {
    let fwd = || {
        vec![Action::Output {
            port: SW_OUT as u16 + 1,
            max_len: 0,
        }]
    };
    let mut mods = Vec::new();
    for i in 0..DECOYS_PER_SHAPE {
        let b = i as u8;
        let mut dst24 = OfMatch::ipv4_dst(Ipv4Addr::new(10, 2, b, 0));
        dst24.set_nw_dst_prefix(24);
        mods.push(FlowMod::add(dst24, 200, fwd()));
        mods.push(FlowMod::add(OfMatch::udp_dst_port(20_000 + i), 200, fwd()));
        let mut src24 = OfMatch::any();
        src24.dl_type = 0x0800;
        src24.nw_src = Ipv4Addr::new(172, 16, b, 0);
        src24.wildcards &= !wildcards::DL_TYPE;
        src24.set_nw_src_prefix(24);
        mods.push(FlowMod::add(src24, 200, fwd()));
        let mut mac = OfMatch::any();
        mac.dl_src = MacAddr::local(100 + b);
        mac.wildcards &= !wildcards::DL_SRC;
        mods.push(FlowMod::add(mac, 200, fwd()));
    }
    mods
}

/// Every rule the controller installs, in order: per-flow exact rules,
/// decoys, then a priority-0 drop-all so a miss never punts.
pub fn table_mods() -> Vec<FlowMod> {
    let mut mods: Vec<FlowMod> = (0..N_FLOWS).map(flow_rule).collect();
    mods.extend(decoy_rules());
    mods.push(FlowMod::add(OfMatch::any(), 0, Vec::new()));
    mods
}

/// Sends the rule table, then a tracked barrier; records when the
/// barrier reply arrived.
struct Installer {
    mods: Vec<FlowMod>,
    barrier: Option<u32>,
    fenced: Rc<Cell<Option<SimTime>>>,
}

impl MeasurementModule for Installer {
    fn on_ready(&mut self, ctx: &mut ModuleCtx<'_>) {
        for fm in self.mods.drain(..) {
            ctx.send(Message::FlowMod(fm));
        }
        self.barrier = Some(ctx.send_tracked(Message::BarrierRequest));
    }

    fn on_message(&mut self, ctx: &mut ModuleCtx<'_>, message: &Message, xid: u32) {
        if matches!(message, Message::BarrierReply) && Some(xid) == self.barrier {
            self.fenced.set(Some(ctx.now()));
        }
    }
}

/// Switch configuration: tuple-space classifier set explicitly, a table
/// large enough for the rule set, and a fast management CPU.
pub fn switch_config() -> OfSwitchConfig {
    OfSwitchConfig {
        n_ports: 2,
        table_capacity: 8192,
        flowmod_proc: SimDuration::from_us(1),
        hw_install_delay: SimDuration::from_us(10),
        honest_barrier: true,
        classifier: Classifier::TupleSpace,
        compiled_lookup: true,
        batch: true,
        ..OfSwitchConfig::default()
    }
}

/// Monitor configuration: capture every `CAPTURE_STRIDE`-th flow by UDP
/// source port, drop the rest in hardware, lossless host path.
pub fn mon_config() -> MonConfig {
    let mut filter = FilterTable::drop_by_default();
    for flow in (0..N_FLOWS).step_by(usize::from(CAPTURE_STRIDE)) {
        filter.push(
            WildcardRule::any().with_src_port(10_000 + flow),
            FilterAction::Capture,
        );
    }
    MonConfig {
        filter,
        thin: ThinConfig::disabled(),
        host: HostPathConfig::unlimited(),
        compiled_filter: true,
        batch: true,
        capture_limit: None,
    }
}

impl OfBurst {
    /// Simulated instant by which every frame has been delivered.
    pub fn horizon(&self) -> SimTime {
        TRAFFIC_START + FRAME_TIME.saturating_mul(self.frames) + SimDuration::from_ms(1)
    }

    /// Run one repetition; `traced` wraps every component in a probe.
    pub fn rep(&self, traced: bool) -> Rep {
        let t_setup = std::time::Instant::now();
        let tallies = traced.then(Tallies::default);
        let clock = Rc::new(RefCell::new(HwClock::ideal()));
        let (gen, gen_stats) = GeneratorPort::new(
            Box::new(FlowPool::new(N_FLOWS, FRAME_LEN, sub_seed(self.seed, 1))),
            GenConfig {
                schedule: Schedule::BackToBack,
                count: Some(self.frames),
                stop_at: None,
                start_at: TRAFFIC_START,
                stamp: Some(StampConfig::default_payload()),
                record_departures: false,
                batch: GEN_BATCH,
            },
            clock.clone(),
        );
        let (link, fault_stats) = FaultyLink::new(FaultConfig {
            loss: LossModel::Uniform { probability: LOSS },
            seed: sub_seed(self.seed, 2),
            ..FaultConfig::default()
        })
        .expect("uniform loss config is valid");
        let switch = OpenFlowSwitch::new(switch_config());
        let (ctrl_port, sw_ports) = (switch.control_port(), switch.kernel_ports());
        let (mon, capture, mon_stats) = MonitorPort::new(mon_config(), clock);
        let fenced = Rc::new(Cell::new(None));
        let mods = table_mods();
        let n_mods = mods.len() as u64;
        let installer = Installer {
            mods,
            barrier: None,
            fenced: fenced.clone(),
        };
        let (ctl, control_log) = OflopsController::with_policy(
            Box::new(installer),
            RetryPolicy {
                timeout: SimDuration::from_ms(50),
                max_retries: 3,
                jitter_seed: None,
            },
        );
        let control_errors = ctl.errors_handle();

        let mut b = SimBuilder::new();
        let t = tallies.as_ref();
        let g = add_probed(&mut b, "gen", gen, 1, t.map(|t| &t.gen));
        let l = add_probed(&mut b, "link", link, 2, t.map(|t| &t.link));
        let sw = match t {
            Some(t) => {
                let p = Probe::new(switch)
                    .timed(t.switch.clone())
                    .control_split(ctrl_port, TIMER_FORWARD);
                b.add_component("switch", Box::new(p), sw_ports)
            }
            None => b.add_component("switch", Box::new(switch), sw_ports),
        };
        let m = add_probed(&mut b, "mon", mon, 1, t.map(|t| &t.mon));
        let c = add_probed(&mut b, "ctl", ctl, 1, t.map(|t| &t.ctl));
        b.connect(c, 0, sw, ctrl_port, LinkSpec::one_gig());
        b.connect(g, 0, l, 0, LinkSpec::ten_gig());
        b.connect(l, 1, sw, SW_IN, LinkSpec::ten_gig());
        b.connect(sw, SW_OUT, m, 0, LinkSpec::ten_gig());
        let mut sim = b.build();
        sim.run_until(TRAFFIC_START);
        let setup_s = t_setup.elapsed().as_secs_f64();

        let events0 = sim.kernel().events_dispatched();
        let snap0 = tallies.as_ref().map(Tallies::snap);
        let t0 = Mark::now();
        sim.run_until(self.horizon());
        let t1 = Mark::now();
        let snap1 = tallies.as_ref().map(Tallies::snap);
        let events = sim.kernel().events_dispatched() - events0;

        // Conservation ledger: every offered frame is sent, lost on the
        // link by the fault model, dropped at a full switch queue, or
        // reaches the monitor, which filters or captures it.
        let gs = gen_stats.borrow();
        let fs = *fault_stats.borrow();
        let ms = *mon_stats.borrow();
        let k = sim.kernel();
        let (sw_in, sw_out) = (k.counters(sw, SW_IN), k.counters(sw, SW_OUT));
        let punts = control_log
            .borrow()
            .iter()
            .filter(|e| matches!(e.message, Message::PacketIn(_)))
            .count() as u64;
        let mut failed = gs.sent_frames.abs_diff(self.frames)
            + gs.dropped
            + fs.offered.abs_diff(gs.sent_frames)
            + fs.offered.abs_diff(fs.dropped + fs.delivered)
            + fs.delivered.abs_diff(sw_in.rx_frames)
            + sw_in.rx_frames.abs_diff(sw_out.tx_frames + sw_out.tx_drops)
            + punts
            + sw_out.tx_frames.abs_diff(ms.rx_frames)
            + ms.rx_frames.abs_diff(
                ms.crc_fail + ms.filtered_out + ms.host_frames + ms.host_drops + ms.capture_shed,
            );
        // Flow_mods: every rule is fenced by the barrier before traffic.
        if fenced.get().is_none_or(|t| t > TRAFFIC_START) {
            failed += n_mods;
        }
        failed += control_errors.borrow().len() as u64
            + control_log
                .borrow()
                .iter()
                .filter(|e| matches!(e.message, Message::Error { .. }))
                .count() as u64;

        let mut d = Digest::default();
        d.debug(&ms).debug(&fs).u64(gs.sent_frames);
        for cap in &capture.borrow().packets {
            d.u64(cap.rx_stamp.to_ps())
                .u64(cap.rx_true.as_ps())
                .bytes(cap.packet.data())
                .u64(cap.orig_len as u64);
        }

        let layers = tallies.as_ref().map(|t| {
            let (s0, s1) = (snap0.expect("traced"), snap1.expect("traced"));
            Layers {
                events_per_frame: events as f64 / self.frames as f64,
                ..t.layers(&s0, &s1)
            }
        });
        Rep {
            setup_s,
            run_s: (t1.at - t0.at).as_secs_f64(),
            cpu_s: t1.cpu_s - t0.cpu_s,
            frames: gs.sent_frames,
            flow_mods: n_mods,
            failed,
            digest: d.finish(),
            events,
            correct: true,
            layers,
        }
    }
}
