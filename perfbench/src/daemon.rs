//! The `rvmond-2t` workload: a fresh release `rvmond` serving two
//! tenants in a closed loop, one `ResilientClient` on one thread per
//! tenant, a SYNC barrier every [`SYNC_EVERY`] lines.
//!
//! Each cycle spawns the daemon on ephemeral ports over a fresh root on
//! disk, drives both tenants' lines, checks every tenant's goal reports
//! against the in-process replica, SIGKILLs the daemon, restarts it over
//! the same root and times recovery, checks the recovered counts, and
//! finally kills the daemon and removes the root — also when the cycle
//! fails. A run repeats cycles for `--seconds` and reports trimmed means
//! (timings) or medians over cycles.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

use rv_core::service::TenantOptions;
use rv_core::{ClientStats, EngineStats, ReconnectPolicy, ResilientClient};
use rv_spec::CompiledSpec;
use rv_workloads::Profile;

use crate::lines::{generate, hash_record, replay, Replayed, SPEC};
use crate::util::{
    derive_seed, files_with_prefix, fnv1a, fs_type, json_number, json_object, median, quantile,
    secs, trimmed_mean, vm_hwm_kib, Report, FNV_OFFSET,
};
use crate::{engine_layer, Size, SYNC_EVERY, TENANTS};

/// Cycles a run makes even when `--seconds` is shorter.
const MIN_CYCLES: usize = 2;
/// The daemon's `--checkpoint-every`. At its default of 256 events, the
/// avrora tenant's growing checkpoints are written and fsynced 77 times a
/// cycle, and the host's drifting disk latency sets the run's timings.
const CHECKPOINT_EVERY: &str = "4096";
/// Spec compilations timed for `spec.compile_s`.
const COMPILE_REPS: usize = 25;

/// A running `rvmond`. Dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `rvmond` over `root` and waits for its listen banner,
    /// which it prints only after recovering every tenant on the root.
    /// The daemon's stderr goes to [`log_of`]`(root)`.
    fn spawn(bin: &Path, root: &Path) -> Result<Daemon, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log_of(root))
            .map_err(|e| format!("cannot open the daemon log: {e}"))?;
        let mut child = Command::new(bin)
            .arg("--root")
            .arg(root)
            .args(["--port", "0", "--http-port", "0", "--checkpoint-every", CHECKPOINT_EVERY])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let mut daemon = Daemon { child, addr: String::new(), drain: None };
        // `rvmond ingest on ADDR http on URL`
        match (read, banner.split_whitespace().nth(3)) {
            (Ok(_), Some(addr)) if banner.starts_with("rvmond ingest on ") => {
                daemon.addr = addr.to_owned();
                daemon.drain = Some(std::thread::spawn(move || drain(stdout)));
                Ok(daemon)
            }
            _ => {
                let log = std::fs::read_to_string(log_of(root)).unwrap_or_default();
                Err(format!("rvmond printed no listen banner (got {banner:?}); stderr:\n{log}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

/// Keeps reading the daemon's stdout so it can never block on a full
/// pipe; ends when the daemon exits.
fn drain(mut stdout: BufReader<ChildStdout>) {
    let _ = std::io::copy(&mut stdout.by_ref(), &mut std::io::sink());
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn log_of(root: &Path) -> PathBuf {
    root.with_extension("log")
}

/// A daemon root and its log, removed when dropped.
struct Root(PathBuf);

impl Drop for Root {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(log_of(&self.0));
    }
}

/// One tenant's input and the reports it must produce.
struct Tenant {
    name: &'static str,
    lines: Vec<String>,
    event_lines: u64,
    replica: Replayed,
}

impl Tenant {
    fn new(name: &'static str, seed: u64, count: usize, traced: bool) -> Tenant {
        let profile = Profile::by_name(name).expect("tenant names are workload profiles");
        let lines = generate(&profile, derive_seed(seed, name), count);
        let event_lines = lines.iter().filter(|l| !l.starts_with('!')).count() as u64;
        let replica = replay(&lines, traced);
        Tenant { name, lines, event_lines, replica }
    }

    fn session(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.name.as_bytes()) | 1
    }

    fn connect(&self, addr: &str, session: u64) -> Result<ResilientClient, String> {
        let policy = ReconnectPolicy { seed: session, ..ReconnectPolicy::default() };
        ResilientClient::connect(addr, self.name, SPEC, TenantOptions::default(), session, policy)
            .map_err(|e| format!("{}: connect: {e}", self.name))
    }
}

/// What one tenant's closed loop measured.
#[derive(Default)]
struct Drive {
    /// Seconds from the common start until the final SYNC returned.
    done_s: f64,
    rtts_us: Vec<f64>,
    send_busy_s: f64,
    syncs: u64,
    trigger_hash: u64,
    stats_json: String,
    client: ClientStats,
}

/// Sends every line, SYNCs every [`SYNC_EVERY`] lines and after the
/// last, then pulls the goal reports and the daemon's STATS reply.
fn drive(
    mut client: ResilientClient,
    lines: &[String],
    start: Instant,
    traced: bool,
) -> Result<Drive, String> {
    let mut out = Drive { trigger_hash: FNV_OFFSET, ..Drive::default() };
    let sync = |client: &mut ResilientClient, out: &mut Drive| {
        let t0 = Instant::now();
        client.sync().map_err(|e| format!("sync: {e}"))?;
        out.rtts_us.push(secs(t0) * 1e6);
        out.syncs += 1;
        Ok::<(), String>(())
    };
    for (n, line) in lines.iter().enumerate() {
        let t0 = traced.then(Instant::now);
        client.send(line).map_err(|e| format!("send: {e}"))?;
        if let Some(t0) = t0 {
            out.send_busy_s += secs(t0);
        }
        if ((n + 1) as u64).is_multiple_of(SYNC_EVERY) {
            sync(&mut client, &mut out)?;
        }
    }
    if !(lines.len() as u64).is_multiple_of(SYNC_EVERY) {
        sync(&mut client, &mut out)?;
    }
    out.done_s = secs(start);
    loop {
        let batch = client.poll_triggers(4096).map_err(|e| format!("poll: {e}"))?;
        if batch.is_empty() {
            break;
        }
        out.trigger_hash = batch.iter().fold(out.trigger_hash, hash_record);
    }
    out.stats_json = client.server_stats_json().map_err(|e| format!("stats: {e}"))?;
    out.client = client.bye();
    Ok(out)
}

/// What one cycle measured.
struct Cycle {
    setup_s: f64,
    events_per_s: f64,
    peak_rss_kib: f64,
    durable_bytes: f64,
    recovery_s: f64,
    drives: Vec<Drive>,
    /// Per tenant: journal bytes, checkpoint bytes, checkpoint count.
    files: Vec<(u64, u64, u64)>,
}

fn stage(stats: &str, key: &str) -> f64 {
    json_object(stats, "stages").and_then(|s| json_number(s, key)).unwrap_or(0.0)
}

fn field(stats: &str, object: &str, key: &str) -> Option<u64> {
    json_object(stats, object).and_then(|s| json_number(s, key)).map(|v| v as u64)
}

fn cycle(
    bin: &Path,
    root: &Path,
    tenants: &[Tenant],
    traced: bool,
    report: &mut Report,
) -> Result<Cycle, String> {
    let _root = Root(root.to_path_buf());
    std::fs::create_dir_all(root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    // Write back what earlier cycles (or a build) left dirty, so that it
    // does not compete with this cycle's fsyncs.
    Command::new("sync").status().map_err(|e| format!("cannot run sync: {e}"))?;
    let t0 = Instant::now();
    report.attempted += 1;
    let daemon = Daemon::spawn(bin, root)?;
    let mut clients = Vec::new();
    for t in tenants {
        report.attempted += 1;
        clients.push(t.connect(&daemon.addr, t.session())?);
    }
    let setup_s = secs(t0);

    let start = Instant::now();
    let results: Vec<Result<Drive, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .zip(clients)
            .map(|(t, c)| s.spawn(move || drive(c, &t.lines, start, traced)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect()
    });
    let mut drives = Vec::new();
    for (t, r) in tenants.iter().zip(results) {
        let d = r.map_err(|e| format!("{}: {e}", t.name))?;
        report.attempted += t.lines.len() as u64 + d.syncs;
        let tenant_events = field(&d.stats_json, "tenant", "events");
        let engine = |key| field(&d.stats_json, "engine", key);
        let r = &t.replica.stats;
        report.check(d.trigger_hash == t.replica.trigger_hash, || {
            format!("{}: trigger stream differs from the in-process replica", t.name)
        });
        report.check(tenant_events == Some(t.event_lines), || {
            format!("{}: daemon processed {tenant_events:?} of {} events", t.name, t.event_lines)
        });
        let daemon_counts =
            ["events", "monitors_created", "monitors_flagged", "monitors_collected", "triggers"]
                .map(engine);
        let replica_counts =
            [r.events, r.monitors_created, r.monitors_flagged, r.monitors_collected, r.triggers]
                .map(Some);
        report.check(daemon_counts == replica_counts, || {
            format!(
                "{}: daemon E/M/FM/CM/triggers {daemon_counts:?}, replica {replica_counts:?}",
                t.name
            )
        });
        report.check(d.stats_json.contains("\"state\":\"running\""), || {
            format!("{}: tenant is not running after the load", t.name)
        });
        drives.push(d);
    }
    let acked: usize = tenants.iter().map(|t| t.lines.len()).sum();
    let wall = drives.iter().map(|d| d.done_s).fold(0.0, f64::max);
    let peak_rss_kib = vm_hwm_kib(&daemon.pid()).unwrap_or(0.0);
    let files: Vec<(u64, u64, u64)> = tenants
        .iter()
        .map(|t| {
            let dir = root.join(t.name);
            let (journal, _) = files_with_prefix(&dir, "journal-");
            let (snap, count) = files_with_prefix(&dir, "checkpoint-");
            (journal, snap, count)
        })
        .collect();
    let durable_bytes = files.iter().map(|(j, s, _)| j + s).sum::<u64>() as f64;

    let t0 = Instant::now();
    drop(daemon);
    report.attempted += 1;
    let daemon = Daemon::spawn(bin, root)?;
    let recovery_s = secs(t0);
    for t in tenants {
        // A new session: this client only asks for STATS.
        let mut client = t.connect(&daemon.addr, t.session() ^ 2)?;
        let stats = client.server_stats_json().map_err(|e| format!("{}: stats: {e}", t.name))?;
        let _ = client.bye();
        let events = field(&stats, "tenant", "events");
        report.check(events == Some(t.event_lines), || {
            format!("{}: recovered {events:?} events, {} were acknowledged", t.name, t.event_lines)
        });
    }
    Ok(Cycle {
        setup_s,
        events_per_s: acked as f64 / wall,
        peak_rss_kib,
        durable_bytes,
        recovery_s,
        drives,
        files,
    })
}

pub fn measure(
    seed: u64,
    seconds: f64,
    size: Size,
    traced: bool,
    bin: &Path,
    scratch: &Path,
) -> Report {
    let mut report = Report::new();
    let count = if size == Size::Tiny { 1_000 } else { 20_000 };
    let tenants: Vec<Tenant> =
        TENANTS.iter().map(|&n| Tenant::new(n, seed, count, traced)).collect();
    let compile: Vec<f64> = (0..COMPILE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(
                CompiledSpec::from_source(SPEC).expect("the tenant spec compiles"),
            );
            secs(t0)
        })
        .collect();
    if let Err(e) = std::fs::create_dir_all(scratch) {
        report.check(false, || format!("cannot create {}: {e}", scratch.display()));
        return report;
    }

    let mut cycles = Vec::new();
    let started = Instant::now();
    while cycles.len() < MIN_CYCLES || secs(started) < seconds {
        let root = scratch.join(format!("rvmond-{}-{}", std::process::id(), cycles.len()));
        match cycle(bin, &root, &tenants, traced, &mut report) {
            Ok(c) => cycles.push(c),
            Err(e) => {
                report.failed += 1;
                report.check(false, || e);
                break;
            }
        }
    }
    println!(
        "perfbench: workload=rvmond-2t seed={seed} lines_per_tenant={count} cycles={} \
         syncs={} fs={} E={} M={} FM={} CM={} triggers={}",
        cycles.len(),
        cycles.iter().flat_map(|c| &c.drives).map(|d| d.syncs).sum::<u64>(),
        fs_type(scratch),
        tenants.iter().map(|t| t.replica.stats.events).sum::<u64>(),
        tenants.iter().map(|t| t.replica.stats.monitors_created).sum::<u64>(),
        tenants.iter().map(|t| t.replica.stats.monitors_flagged).sum::<u64>(),
        tenants.iter().map(|t| t.replica.stats.monitors_collected).sum::<u64>(),
        tenants.iter().map(|t| t.replica.stats.triggers).sum::<u64>(),
    );
    if cycles.is_empty() {
        return report;
    }
    if traced {
        report.metric("trace.events_per_s", timed_per_cycle(&cycles, |c| c.events_per_s));
        report.metric("spec.compile_s", median(&compile));
        layer_metrics(&mut report, &tenants, &cycles);
    } else {
        report.metric("setup_s", timed_per_cycle(&cycles, |c| c.setup_s));
        report.metric("events_per_s", timed_per_cycle(&cycles, |c| c.events_per_s));
        report.metric("peak_rss_kib", per_cycle(&cycles, |c| c.peak_rss_kib));
        let peak_bytes: usize = tenants.iter().map(|t| t.replica.peak_bytes).sum();
        report.metric("peak_monitor_kib", peak_bytes as f64 / 1024.0);
        // The avrora tenant's round trips run about twice the bloat
        // tenant's, so the p50 of both together falls in the gap between
        // two clusters and jumps; the mean of the tenants' p50s does not.
        let p50 = |c: &Cycle| {
            let p50s = c.drives.iter().map(|d| quantile(&mut d.rtts_us.clone(), 0.50));
            p50s.sum::<f64>() / c.drives.len() as f64
        };
        report.metric("sync_rtt_p50_us", timed_per_cycle(&cycles, p50));
        // A slow spell of the host lasting a few seconds holds the slowest
        // 1% of a run's SYNCs, so the run's p99 reads the host. Each
        // cycle's p90 (its 4th slowest of 40) is the daemon's own tail; a
        // spell moves the trimmed mean over cycles only by its share.
        let p90 = |c: &Cycle| quantile(&mut rtts(c), 0.90);
        report.metric("sync_rtt_p90_us", timed_per_cycle(&cycles, p90));
        report.metric("durable_bytes", per_cycle(&cycles, |c| c.durable_bytes));
        report.metric("recovery_s", timed_per_cycle(&cycles, |c| c.recovery_s));
    }
    report
}

/// Both tenants' SYNC round trips in `cycle`, in µs.
fn rtts(cycle: &Cycle) -> Vec<f64> {
    cycle.drives.iter().flat_map(|d| d.rtts_us.iter().copied()).collect()
}

/// The median over cycles of `f`.
fn per_cycle(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    median(&cycles.iter().map(f).collect::<Vec<_>>())
}

/// The trimmed mean over cycles of the timing `f` (see [`trimmed_mean`]).
fn timed_per_cycle(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    trimmed_mean(&cycles.iter().map(f).collect::<Vec<_>>())
}

fn layer_metrics(report: &mut Report, tenants: &[Tenant], cycles: &[Cycle]) {
    let replica = tenants.iter().fold(EngineStats::default(), |mut acc, t| {
        acc.merge_from(&t.replica.stats);
        acc
    });
    let mut spans: Vec<f64> =
        tenants.iter().flat_map(|t| t.replica.spans_ns.iter().map(|&n| f64::from(n))).collect();
    report.metric("engine.busy_s", spans.iter().sum::<f64>() / 1e9);
    report.metric("engine.process_p50_ns", quantile(&mut spans, 0.50));
    report.metric("engine.process_p99_ns", quantile(&mut spans, 0.99));
    report.metric("engine.process_max_ns", spans.last().copied().unwrap_or(0.0));
    engine_layer(report, &replica);
    report.metric(
        "heap.collections",
        tenants.iter().map(|t| t.replica.heap.collections).sum::<u64>() as f64,
    );
    report.metric(
        "heap.gc_pause_s",
        tenants.iter().map(|t| t.replica.heap.gc_pause_ns).sum::<u64>() as f64 / 1e9,
    );

    let sum_drives = |f: &dyn Fn(&Drive) -> f64| {
        per_cycle(cycles, |c: &Cycle| c.drives.iter().map(f).sum::<f64>())
    };
    report.metric("client.send_busy_s", sum_drives(&|d| d.send_busy_s));
    report.metric("client.sync_calls", sum_drives(&|d| d.syncs as f64));
    let clients = cycles.iter().flat_map(|c| &c.drives).map(|d| d.client);
    let (reconnects, resent) =
        clients.fold((0, 0), |(r, s), c| (r + c.reconnects, s + c.resent_lines));
    report.metric("client.reconnects", reconnects as f64);
    report.metric("client.resent_lines", resent as f64);
    let mut all: Vec<f64> = cycles.iter().flat_map(rtts).collect();
    report.metric("client.sync_rtt_p99_us", quantile(&mut all, 0.99));

    report.metric(
        "journal.bytes",
        per_cycle(cycles, |c| c.files.iter().map(|f| f.0).sum::<u64>() as f64),
    );
    for (i, t) in tenants.iter().enumerate() {
        let lines = t.lines.len() as f64;
        let stage_of =
            |key: &'static str| per_cycle(cycles, |c: &Cycle| stage(&c.drives[i].stats_json, key));
        let name = t.name;
        for key in [
            "queue_wait_p50_us",
            "queue_wait_p99_us",
            "engine_p50_us",
            "engine_p99_us",
            "journal_append_p50_us",
            "journal_fsync_p50_us",
            "journal_fsync_count",
        ] {
            report.metric(format!("service.{key}.{name}"), stage_of(key));
        }
        let fsyncs = stage_of("journal_fsync_count");
        report.metric(format!("service.lines_per_fsync.{name}"), lines / fsyncs.max(1.0));
        report.metric(format!("snapshot.bytes.{name}"), per_cycle(cycles, |c| c.files[i].1 as f64));
        report.metric(format!("snapshot.count.{name}"), per_cycle(cycles, |c| c.files[i].2 as f64));
    }
}
