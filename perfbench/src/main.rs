//! The repository benchmark. One run measures one workload for
//! `--seconds`, checks the program's outputs, and prints as its last
//! line `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics when untraced (`--trace 0`), the per-layer
//! metrics when traced (`--trace 1`). `run.py` builds this binary and
//! `rvmond` and invokes it; see `WORKLOADS.md` for the workloads.
//!
//! ```text
//! rv-perfbench --workload bloat-all|h2-all|rvmond-2t --seed N --seconds S
//!              --trace 0|1 [--size full|tiny] [--rvmond BIN] [--scratch DIR]
//! ```

mod daemon;
mod engine;
mod lines;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use rv_core::EngineStats;

use crate::util::Report;

/// Lines per SYNC on rvmond-2t. Each SYNC costs the daemon an fsync; on
/// a host whose fsync latency drifts, a window this size keeps fsync a
/// small share of a window's time, so the timings stay comparable
/// between runs.
pub const SYNC_EVERY: u64 = 1024;

/// The `rvmond-2t` tenants, each named after the workload profile its
/// line mix is derived from.
pub const TENANTS: [&str; 2] = ["bloat", "avrora"];

/// Input size: `full` for measurement, `tiny` for the self-test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The end-to-end metrics and their units, as `BENCHMARK.json` names
/// them.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_kib", "KiB"),
    ("peak_monitor_kib", "KiB"),
    ("sync_rtt_p50_us", "us"),
    ("sync_rtt_p90_us", "us"),
    ("durable_bytes", "bytes"),
    ("recovery_s", "s"),
];

/// The per-layer metrics and their units. `service.*` and `snapshot.*`
/// are reported once per tenant.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("workloads.self_s", "s"),
        ("heap.collections", "count"),
        ("heap.gc_pause_s", "s"),
        ("spec.compile_s", "s"),
        ("engine.busy_s", "s"),
        ("engine.process_p50_ns", "ns"),
        ("engine.process_p99_ns", "ns"),
        ("engine.process_max_ns", "ns"),
        ("engine.cache_hit_frac", "ratio"),
        ("engine.monitors_created", "count"),
        ("engine.monitors_flagged", "count"),
        ("engine.monitors_collected", "count"),
        ("engine.peak_live_monitors", "count"),
        ("engine.triggers", "count"),
        ("engine.dead_keys", "count"),
        ("engine.creations_skipped", "count"),
        ("engine.collected_per_created", "ratio"),
        ("client.send_busy_s", "s"),
        ("client.sync_calls", "count"),
        ("client.reconnects", "count"),
        ("client.resent_lines", "count"),
        ("client.sync_rtt_p99_us", "us"),
        ("journal.bytes", "bytes"),
        ("trace.events_per_s", "events/s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for tenant in TENANTS {
        for (n, u) in [
            ("service.queue_wait_p50_us", "us"),
            ("service.queue_wait_p99_us", "us"),
            ("service.engine_p50_us", "us"),
            ("service.engine_p99_us", "us"),
            ("service.journal_append_p50_us", "us"),
            ("service.journal_fsync_p50_us", "us"),
            ("service.journal_fsync_count", "count"),
            ("service.lines_per_fsync", "lines/fsync"),
            ("snapshot.bytes", "bytes"),
            ("snapshot.count", "count"),
        ] {
            names.push((format!("{n}.{tenant}"), u));
        }
    }
    names
}

/// The engine counters every workload that runs the engine reports.
pub fn engine_layer(report: &mut Report, s: &EngineStats) {
    let ratio = |a: u64, b: u64| a as f64 / (b.max(1) as f64);
    report.metric("engine.cache_hit_frac", ratio(s.cache_hits, s.events));
    report.metric("engine.monitors_created", s.monitors_created as f64);
    report.metric("engine.monitors_flagged", s.monitors_flagged as f64);
    report.metric("engine.monitors_collected", s.monitors_collected as f64);
    report.metric("engine.peak_live_monitors", s.peak_live_monitors as f64);
    report.metric("engine.triggers", s.triggers as f64);
    report.metric("engine.dead_keys", s.dead_keys as f64);
    report.metric("engine.creations_skipped", s.creations_skipped as f64);
    report.metric("engine.collected_per_created", ratio(s.monitors_collected, s.monitors_created));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    rvmond: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        size: Size::Full,
        rvmond: PathBuf::from("rvmond"),
        scratch: PathBuf::from(".perfbench_tmp"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--rvmond" => args.rvmond = PathBuf::from(value),
            "--scratch" => args.scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rv-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        name @ ("bloat-all" | "h2-all") => {
            let shape = engine::Shape::new(name, args.seed, args.size);
            if args.traced {
                engine::measure_traced(&shape, args.seed, args.seconds)
            } else {
                engine::measure(&shape, args.seed, args.seconds)
            }
        }
        "rvmond-2t" => daemon::measure(
            args.seed,
            args.seconds,
            args.size,
            args.traced,
            &args.rvmond,
            &args.scratch,
        ),
        other => {
            eprintln!("rv-perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    for m in &report.mismatches {
        eprintln!("rv-perfbench: CHECK FAILED: {m}");
    }
    let names: Vec<(String, &str)> = if args.traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    println!("{}", report.to_json(&names));
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
