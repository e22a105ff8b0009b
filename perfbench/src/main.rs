//! The benchmark command.
//!
//! ```text
//! osnt-perfbench --workload <of_burst|fig2_sharded|oflops_churn>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs repetitions of one workload until `--seconds` of host time have
//! passed (at least three), checks every repetition's outputs, and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run alternates untraced and traced repetitions,
//! requires their outputs and event counts to be identical, and reports
//! the wrappers' cost as `trace.overhead_share`.

use osnt_perfbench::alloc::{self, CountingAlloc};
use osnt_perfbench::churn::Churn;
use osnt_perfbench::fig2::Fig2;
use osnt_perfbench::of_burst::OfBurst;
use osnt_perfbench::{peak_rss_mb, Rep};
use osnt_time::SimDuration;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Output digests are pinned for this seed only; at any other seed the
/// checks are the ledgers, determinism across repetitions, the reference
/// runs, and traced-equals-untraced.
const DEFAULT_SEED: u64 = 1;

/// Digest of each workload's outputs at [`DEFAULT_SEED`].
const PINNED: [(&str, u64); 3] = [
    ("of_burst", 0xa7f9_82f2_fc5c_badb),
    ("fig2_sharded", 0xf399_1c13_b049_0c75),
    ("oflops_churn", 0x1cf3_4163_993c_bef1),
];

/// Fewest repetitions of each kind a run makes, however short `--seconds`.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

enum Bench {
    OfBurst(OfBurst),
    Fig2(Fig2),
    Churn(Churn),
}

impl Bench {
    /// The workload at its benchmark size: a fraction of a second of
    /// host time per repetition, so a run takes many repetitions.
    /// Reference runs happen here, outside every timed region.
    fn new(name: &str, seed: u64) -> Result<Bench, String> {
        Ok(match name {
            "of_burst" => Bench::OfBurst(OfBurst {
                seed,
                frames: 150_000,
            }),
            "fig2_sharded" => Bench::Fig2(Fig2::new(seed, SimDuration::from_ms(4))?),
            "oflops_churn" => Bench::Churn(Churn::new(seed, 120, SimDuration::from_ms(30))),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// Whether the rate and CPU metrics come from the fastest repetition
    /// rather than the median one. On one kernel (one thread) the host
    /// only ever adds time, in phases of seconds that a median follows,
    /// so the best repetition is the steady figure. `fig2_sharded` runs
    /// two shard threads that meet at a barrier every window; the rare
    /// repetitions in which the host happens to run both vCPUs at once
    /// are up to four times faster, so there the median is the steady
    /// figure.
    fn best_of(&self) -> bool {
        !matches!(self, Bench::Fig2(_))
    }

    fn rep(&self, traced: bool) -> Result<Rep, String> {
        alloc::enable(traced);
        let rep = match self {
            Bench::OfBurst(w) => Ok(w.rep(traced)),
            Bench::Fig2(w) => w.rep(traced),
            Bench::Churn(w) => Ok(w.rep(traced)),
        };
        alloc::enable(false);
        rep
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Per-layer figures of one traced repetition, by metric name.
fn layer_metrics(r: &Rep) -> Vec<(&'static str, &'static str, f64)> {
    let l = r.layers.as_ref().expect("traced repetition");
    let f = r.frames;
    let m = r.flow_mods;
    let run_ns = r.run_s * 1e9;
    vec![
        (
            "kernel.ns_per_frame",
            "ns",
            per(run_ns - l.wrapped_ns as f64, f),
        ),
        ("kernel.events_per_frame", "1/frame", l.events_per_frame),
        ("gen.ns_per_frame", "ns", per(l.gen.ns as f64, f)),
        ("gen.calls_per_frame", "1/frame", per(l.gen.calls as f64, f)),
        (
            "gen.allocs_per_frame",
            "1/frame",
            per(l.gen.allocs as f64, f),
        ),
        ("link.ns_per_frame", "ns", per(l.link.ns as f64, f)),
        (
            "link.calls_per_frame",
            "1/frame",
            per(l.link.calls as f64, f),
        ),
        ("switch.ns_per_frame", "ns", per(l.switch.ns as f64, f)),
        (
            "switch.calls_per_frame",
            "1/frame",
            per(l.switch.calls as f64, f),
        ),
        (
            "switch.allocs_per_frame",
            "1/frame",
            per(l.switch.allocs as f64, f),
        ),
        (
            "switch.ctl_ns_per_flow_mod",
            "ns",
            per(l.switch_ctl.ns as f64, m),
        ),
        ("ctl.ns_per_flow_mod", "ns", per(l.ctl.ns as f64, m)),
        (
            "ctl.allocs_per_flow_mod",
            "1/flow_mod",
            per(l.ctl.allocs as f64, m),
        ),
        ("mon.ns_per_frame", "ns", per(l.mon.ns as f64, f)),
        ("mon.calls_per_frame", "1/frame", per(l.mon.calls as f64, f)),
        (
            "mon.allocs_per_frame",
            "1/frame",
            per(l.mon.allocs as f64, f),
        ),
        ("dut.ns_per_frame", "ns", per(l.dut.ns as f64, f)),
        ("dut.calls_per_frame", "1/frame", per(l.dut.calls as f64, f)),
        (
            "shard.windows_per_frame",
            "1/frame",
            per(l.shard.windows as f64, f),
        ),
        (
            "shard.barrier_waits_per_frame",
            "1/frame",
            per(l.shard.barrier_waits as f64, f),
        ),
        (
            "shard.ring_pushes_per_frame",
            "1/frame",
            per(l.shard.ring_pushes as f64, f),
        ),
        ("shard.spill_events", "count", l.shard.spill_events as f64),
        ("shard.dut_busy_share", "fraction", l.dut.ns as f64 / run_ns),
        ("alloc.per_frame", "1/frame", per(l.allocs as f64, f)),
        (
            "alloc.bytes_per_frame",
            "B/frame",
            per(l.alloc_bytes as f64, f),
        ),
    ]
}

fn main() -> ExitCode {
    let osnt_vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("OSNT_"))
        .collect();
    if !osnt_vars.is_empty() {
        eprintln!(
            "refusing to run: library code reads OSNT_* variables, and {} set",
            osnt_vars.join(", ")
        );
        return ExitCode::from(2);
    }
    if !alloc::pin_malloc_thresholds() {
        eprintln!("osnt-perfbench: glibc refused the fixed malloc thresholds");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("osnt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("osnt-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let bench = Bench::new(&args.workload, args.seed)?;
    // Warm-up: fills caches and lazy state; checked, not measured.
    let first = bench.rep(false)?;
    let mut problems = Vec::new();
    if args.seed == DEFAULT_SEED {
        let pinned = PINNED
            .iter()
            .find(|(n, _)| *n == args.workload)
            .map_or(0, |(_, d)| *d);
        if pinned != first.digest {
            problems.push(format!(
                "digest {:#018x} differs from the pinned {pinned:#018x}",
                first.digest
            ));
        }
    }
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || plain.len() < MIN_REPS {
        plain.push(bench.rep(false)?);
        if args.trace {
            traced.push(bench.rep(true)?);
        }
    }
    let all: Vec<&Rep> = std::iter::once(&first)
        .chain(&plain)
        .chain(&traced)
        .collect();
    for (i, r) in all.iter().enumerate() {
        if !r.correct {
            problems.push(format!(
                "repetition {i}: output check against the reference failed"
            ));
        }
        if (r.digest, r.events) != (first.digest, first.events) {
            problems.push(format!(
                "repetition {i}: digest {:#018x} / {} events, first had {:#018x} / {}",
                r.digest, r.events, first.digest, first.events
            ));
        }
    }
    let attempted: u64 = all.iter().map(|r| r.frames + r.flow_mods).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    eprintln!(
        "{}: seed {}, {} untraced + {} traced repetitions, {} frames and {} flow_mods each",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        first.frames,
        first.flow_mods
    );

    let rates: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.0}", r.frames as f64 / r.run_s))
        .collect();
    eprintln!("  untraced frames/s by repetition: {}", rates.join(" "));
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let names = layer_metrics(&traced[0]);
        for (k, (name, unit, _)) in names.iter().enumerate() {
            let v = median(traced.iter().map(|r| layer_metrics(r)[k].2).collect());
            metrics.push((name, unit, v));
        }
        let run_s = |v: &[Rep]| median(v.iter().map(|r| r.run_s).collect());
        metrics.push((
            "trace.overhead_share",
            "fraction",
            run_s(&traced) / run_s(&plain) - 1.0,
        ));
        metrics.push(("failed_share", "fraction", per(failed as f64, attempted)));
    } else {
        let rates: Vec<f64> = plain.iter().map(|r| r.frames as f64 / r.run_s).collect();
        let cpu: Vec<f64> = plain
            .iter()
            .map(|r| r.cpu_s * 1e9 / r.frames as f64)
            .collect();
        let (rate, cpu) = if bench.best_of() {
            (
                rates.iter().copied().fold(0.0, f64::max),
                cpu.iter().copied().fold(f64::INFINITY, f64::min),
            )
        } else {
            (median(rates), median(cpu))
        };
        metrics.push(("frames_per_s", "1/s", rate));
        metrics.push(("cpu_ns_per_frame", "ns", cpu));
        // Set-up runs on the calling thread on every workload, so the
        // fastest set-up is the steady figure there too.
        metrics.push((
            "setup_s",
            "s",
            plain
                .iter()
                .map(|r| r.setup_s)
                .fold(f64::INFINITY, f64::min),
        ));
        metrics.push(("peak_rss_mb", "MiB", peak_rss_mb()));
    }
    for (name, unit, v) in &metrics {
        eprintln!("  {name:32} {v:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty() && failed == 0,
        body.join(", ")
    ))
}
