//! `fig2_sharded`: the paper's demo Part I through
//! `LatencyExperiment::run` on two shards.
//!
//! A `LegacySwitch` DUT is attached through the `attach` closure, on a
//! shard of its own, so every frame crosses the shard boundary twice.
//! 64 B frames carry a 2% Poisson probe plus Poisson background at each
//! load of [`LOADS`]. `run` builds and runs in one call, so set-up ends
//! when the DUT's `on_start` fires; the DUT's probe records that instant.
//!
//! Output check: each load's `LatencyReport` must equal a one-shard run
//! of the same seed, made once per process outside the timed region.

use crate::probe::Probe;
use crate::{sub_seed, Digest, Mark, Rep, ShardTally, Tallies};
use osnt_core::experiment::DutAttachment;
use osnt_core::{LatencyExperiment, LatencyReport};
use osnt_netsim::ShardStats;
use osnt_switch::{LegacyConfig, LegacySwitch};
use osnt_time::{DriftModel, GpsSignal, SimDuration};
use std::sync::{Arc, Mutex, OnceLock};

/// Background loads, as fractions of line rate.
pub const LOADS: [f64; 3] = [0.5, 0.9, 0.99];
/// Frame length of both streams.
pub const FRAME_LEN: usize = 64;
/// Probe load.
pub const PROBE_LOAD: f64 = 0.02;

/// What the DUT probe hands back when the simulation drops it.
#[derive(Debug, Clone, Copy, Default)]
struct DutTally {
    output_drops: u64,
    events_seen: u64,
}

/// One `LatencyExperiment::run` call and what was measured around it.
struct Call {
    report: LatencyReport,
    /// Host time from the call to the DUT's `on_start`.
    setup_s: f64,
    /// Host time from the DUT's `on_start` to the call's return.
    run_s: f64,
    cpu_s: f64,
    dut: DutTally,
    shard: ShardTally,
}

/// The workload at a given seed and size.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Workload seed.
    pub seed: u64,
    /// Generation window of each load.
    pub duration: SimDuration,
    /// The one-shard reference reports, one per load.
    reference: Vec<LatencyReport>,
    /// Frames offered and kernel events of the one-shard reference.
    reference_frames: u64,
    reference_events: u64,
}

fn frames_of(r: &LatencyReport) -> u64 {
    r.probe_sent + r.background_sent
}

impl Fig2 {
    /// The workload; runs the one-shard reference.
    pub fn new(seed: u64, duration: SimDuration) -> Result<Self, String> {
        let mut fig2 = Fig2 {
            seed,
            duration,
            reference: Vec::new(),
            reference_frames: 0,
            reference_events: 0,
        };
        for (i, &load) in LOADS.iter().enumerate() {
            let call = fig2.call(i, load, 1, None)?;
            fig2.reference_frames += frames_of(&call.report);
            fig2.reference_events += call.dut.events_seen;
            fig2.reference.push(call.report);
        }
        Ok(fig2)
    }

    fn experiment(&self, index: usize, load: f64, shards: usize) -> LatencyExperiment {
        // Every field set explicitly: `shards: None` would read
        // `OSNT_SHARDS` from the environment.
        LatencyExperiment {
            frame_len: FRAME_LEN,
            probe_load: PROBE_LOAD,
            background_load: load,
            duration: self.duration,
            warmup: SimDuration::from_ps(self.duration.as_ps() / 5),
            clock_model: DriftModel::ideal(),
            seed: sub_seed(self.seed, index as u64),
            probe_faults: None,
            progress: None,
            record_raw: false,
            shards: Some(shards),
            gps_signal: Some(GpsSignal::always_on()),
            capture_limit: None,
            shard_stats_sink: None,
        }
    }

    fn call(
        &self,
        index: usize,
        load: f64,
        shards: usize,
        tallies: Option<&Tallies>,
    ) -> Result<Call, String> {
        let sink = Arc::new(Mutex::new(Vec::<ShardStats>::new()));
        let exp = LatencyExperiment {
            shard_stats_sink: tallies.map(|_| sink.clone()),
            ..self.experiment(index, load, shards)
        };
        let started = Arc::new(OnceLock::new());
        let tally = Arc::new(Mutex::new(DutTally::default()));
        let cfg = LegacyConfig {
            n_ports: 3,
            ..LegacyConfig::default()
        };
        let t_call = Mark::now();
        let report = exp
            .run(|b| {
                let hook = tally.clone();
                let mut p = Probe::new(LegacySwitch::new(cfg))
                    .mark_start(started.clone())
                    .on_drop(move |sw: &LegacySwitch, events_seen| {
                        *hook.lock().expect("DUT tally poisoned") = DutTally {
                            output_drops: sw.output_drops(),
                            events_seen,
                        };
                    });
                if let Some(t) = tallies {
                    p = p.timed(t.dut.clone());
                }
                DutAttachment {
                    id: b.add_component("legacy-dut", Box::new(p), 3),
                    probe_in: 0,
                    bg_in: 2,
                    out: 1,
                }
            })
            .map_err(|e| format!("fig2 load {load}: {e}"))?;
        let t_end = Mark::now();
        let start = *started.get().ok_or("DUT on_start never ran")?;
        let dut = *tally.lock().expect("DUT tally poisoned");
        let shard = ShardTally::from_stats(&sink.lock().expect("shard sink poisoned"));
        Ok(Call {
            report,
            setup_s: (start.at - t_call.at).as_secs_f64(),
            run_s: (t_end.at - start.at).as_secs_f64(),
            cpu_s: t_end.cpu_s - start.cpu_s,
            dut,
            shard,
        })
    }

    /// Run one repetition (every load on two shards); `traced` times the
    /// DUT and collects the executive's counters.
    pub fn rep(&self, traced: bool) -> Result<Rep, String> {
        let tallies = traced.then(Tallies::default);
        let snap0 = tallies.as_ref().map(Tallies::snap);
        let mut rep = Rep::default();
        let mut shard = ShardTally::default();
        let mut reports = Vec::new();
        for (i, &load) in LOADS.iter().enumerate() {
            let call = self.call(i, load, 2, tallies.as_ref())?;
            let r = &call.report;
            rep.setup_s += call.setup_s;
            rep.run_s += call.run_s;
            rep.cpu_s += call.cpu_s;
            rep.frames += frames_of(r);
            rep.events += call.dut.events_seen;
            // Ledger: every offered frame is captured, filtered (the
            // background), failed its CRC, dropped on the host path or
            // at the capture limit, refused by the generator's MAC, or
            // dropped at a full DUT output queue.
            let accounted = r.probe_received as u64
                + r.filtered_out
                + r.crc_fail
                + r.host_drops
                + r.capture_shed
                + r.probe_gen_dropped
                + call.dut.output_drops;
            rep.failed += frames_of(r).abs_diff(accounted);
            shard = shard.plus(call.shard);
            reports.push(call.report);
        }
        // Output check: each sharded report equals the one-shard one.
        rep.correct = reports == self.reference;
        rep.digest = Digest::default().debug(&reports).finish();
        if let Some(t) = &tallies {
            let snap1 = t.snap();
            let mut layers = t.layers(&snap0.expect("traced"), &snap1);
            // The DUT shard's kernel is all the probe can see; events per
            // frame come from the one-shard reference instead.
            layers.events_per_frame = self.reference_events as f64 / self.reference_frames as f64;
            layers.shard = shard;
            rep.layers = Some(layers);
        }
        Ok(rep)
    }
}
