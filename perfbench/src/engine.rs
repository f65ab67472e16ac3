//! The in-process workloads `bloat-all` and `h2-all`: Figure 9(A)'s
//! "ALL" column, every evaluated property monitored at once under RV
//! (coenable-set lazy monitor GC), on one of two workload profiles that
//! stress the engine in opposite ways (see `WORKLOADS.md`).
//!
//! The untraced run drives `rv_workloads::run` into the public
//! `rv_bench::MonitorSink`; the traced run drives the same stream into
//! [`TracedSink`], which times each `PropertyMonitor::process` call from
//! outside the engine. Both runs are gated against an untimed run of the
//! same stream under `GcPolicy::AllParamsDead`.

use std::time::Instant;

use rv_bench::{MonitorSink, System};
use rv_core::{Binding, EngineConfig, EngineStats, GcPolicy, PropertyMonitor};
use rv_heap::Heap;
use rv_props::Property;
use rv_workloads::{project, EventSink, Profile, SimEvent, WorkloadReport};

use crate::util::{derive_seed, median, quantile, secs, trimmed_mean, vm_hwm_kib, Report};
use crate::{engine_layer, Size};

/// Constructions timed for `setup_s` per measured iteration (spread over
/// the run so that one slow moment cannot set the figure).
const SETUP_REPS: usize = 8;
/// Checkpoints taken for `durable_bytes` and `recovery_s`.
const CHECKPOINTS: u64 = 64;
/// Measured iterations a run makes even when `--seconds` is shorter.
const MIN_ITERATIONS: usize = 2;
/// Dispatched events per in-process sync point. The host stalls the
/// benchmark for milliseconds many times a second, and a stall inflates
/// the one window it falls in. At 1024 events (about 1 ms) stalled
/// windows were numerous enough in some iterations to set the tail; at
/// 64 events an iteration has 11k–33k windows and the stalls are a small
/// share of them, so the tail is the engine's own slow windows.
const WINDOW_EVENTS: u64 = 64;

/// One engine workload: a profile and the input size it runs at.
pub struct Shape {
    pub name: &'static str,
    profile: Profile,
    scale: f64,
}

impl Shape {
    /// `bloat-all` (index-heavy) or `h2-all` (creation- and
    /// collection-heavy), with the profile's seed replaced by one
    /// derived from `seed`.
    pub fn new(workload: &str, seed: u64, size: Size) -> Shape {
        let (name, mut profile, full, tiny) = match workload {
            "bloat-all" => ("bloat-all", Profile::bloat(), 1.5, 0.05),
            _ => ("h2-all", Profile::h2(), 10.0, 0.4),
        };
        profile.seed = derive_seed(seed, name);
        let scale = if size == Size::Tiny { tiny } else { full };
        Shape { name, profile, scale }
    }

    fn run(&self, sink: &mut impl EventSink) -> WorkloadReport {
        rv_workloads::run(&self.profile, self.scale, sink)
    }
}

/// Final engine statistics per property. Every field repeats exactly
/// for a given input, so iterations must agree on all of them.
type Counts = Vec<(Property, EngineStats)>;

fn merged(counts: &Counts) -> EngineStats {
    counts.iter().fold(EngineStats::default(), |mut acc, (_, s)| {
        acc.merge_from(s);
        acc
    })
}

fn sink_counts(sink: &MonitorSink) -> Counts {
    sink.engine_stats().into_iter().filter_map(|(p, s)| Some((p, s?))).collect()
}

/// The correctness gate: RV must report exactly the triggers of the
/// all-params-dead reference, and create exactly its monitors — the GC
/// policy may change neither verdicts nor the creation discipline.
fn gate_against_reference(shape: &Shape, counts: &Counts, report: &mut Report) {
    let mut reference = MonitorSink::new(System::Mop, &Property::EVALUATED);
    shape.run(&mut reference);
    let expected = sink_counts(&reference);
    report.check(expected.len() == counts.len(), || "property sets differ".into());
    for ((p, got), (_, want)) in counts.iter().zip(&expected) {
        report.check(
            got.triggers == want.triggers && got.monitors_created == want.monitors_created,
            || {
                format!(
                    "{p:?}: triggers/M {}/{} under RV, {}/{} under AllParamsDead",
                    got.triggers, got.monitors_created, want.triggers, want.monitors_created
                )
            },
        );
    }
}

/// Prints the line that identifies the run's input: the seed and the
/// counts a traced and an untraced run of the same seed must share.
fn print_inputs(shape: &Shape, seed: u64, iterations: usize, counts: &Counts) {
    let s = merged(counts);
    println!(
        "perfbench: workload={} seed={seed} profile={} scale={} iterations={iterations} \
         E={} M={} FM={} CM={} triggers={}",
        shape.name,
        shape.profile.name,
        shape.scale,
        s.events,
        s.monitors_created,
        s.monitors_flagged,
        s.monitors_collected,
        s.triggers,
    );
}

/// Runs `iteration` until `seconds` have passed (and at least
/// [`MIN_ITERATIONS`] times), checking that every iteration ends with
/// the same engine statistics. Returns the first iteration's.
fn iterate(
    seconds: f64,
    report: &mut Report,
    mut iteration: impl FnMut(&mut Report) -> Counts,
) -> (Counts, usize) {
    let started = Instant::now();
    let first = iteration(report);
    let mut n = 1;
    while n < MIN_ITERATIONS || secs(started) < seconds {
        let counts = iteration(report);
        report.check(counts == first, || "iterations disagree on the engine statistics".into());
        n += 1;
    }
    (first, n)
}

/// Forwards to a [`MonitorSink`] and marks a sync point every
/// [`WINDOW_EVENTS`] dispatched events. In-process dispatch is synchronous,
/// so the time between two sync points is how long that window of
/// events took to be monitored — the in-process counterpart of
/// rvmond's SYNC round trip.
struct Windowed<'a> {
    inner: MonitorSink,
    next_sync: u64,
    last: Instant,
    windows_us: &'a mut Vec<f64>,
}

impl EventSink for Windowed<'_> {
    fn emit(&mut self, heap: &Heap, event: &SimEvent) {
        self.inner.emit(heap, event);
        if self.inner.events >= self.next_sync {
            self.next_sync += WINDOW_EVENTS;
            let now = Instant::now();
            self.windows_us.push((now - self.last).as_secs_f64() * 1e6);
            self.last = now;
        }
    }

    fn at_exit(&mut self, heap: &Heap) {
        self.inner.at_exit(heap);
    }
}

fn timed_sink(setup: &mut Vec<f64>) -> MonitorSink {
    let t0 = Instant::now();
    let sink = MonitorSink::new(System::Rv, &Property::EVALUATED);
    setup.push(secs(t0));
    sink
}

/// The untraced run: every end-to-end metric.
pub fn measure(shape: &Shape, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let mut setup = Vec::new();
    let (mut rates, mut peaks, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    let (mut window_p50s, mut window_p90s) = (Vec::new(), Vec::new());
    let (mut peak_rss, mut checkpoints, mut restore_s) = (0.0, None, Vec::new());
    let (counts, iterations) = iterate(seconds, &mut report, |report| {
        for _ in 1..SETUP_REPS {
            timed_sink(&mut setup);
        }
        let inner = timed_sink(&mut setup);
        let t0 = Instant::now();
        let mut sink =
            Windowed { inner, next_sync: WINDOW_EVENTS, last: t0, windows_us: &mut windows };
        shape.run(&mut sink);
        let wall = secs(t0);
        let sink = sink.inner;
        window_p50s.push(quantile(&mut windows, 0.50));
        window_p90s.push(quantile(&mut windows, 0.90));
        windows.clear();
        rates.push(sink.events as f64 / wall);
        peaks.push(sink.peak_bytes as f64 / 1024.0);
        report.attempted += sink.events;
        report.failed +=
            sink.engine_monitors().iter().filter(|(_, m)| m.last_error().is_some()).count() as u64;
        // The first iteration ran in a fresh process: its peak is what a
        // user monitoring this program once would see. Restores are
        // timed between later iterations, spread over the run.
        match &checkpoints {
            None => {
                peak_rss = vm_hwm_kib("self").unwrap_or(0.0);
                checkpoints = Some(take_checkpoints(shape, sink.events, report));
            }
            Some(taken) => restore_s.push(restore_round(taken, restore_s.is_empty(), report)),
        }
        sink_counts(&sink)
    });
    let durable_bytes: usize =
        checkpoints.iter().flatten().flatten().map(|(_, bytes)| bytes.len()).sum();
    gate_against_reference(shape, &counts, &mut report);
    print_inputs(shape, seed, iterations, &counts);

    report.metric("setup_s", trimmed_mean(&setup));
    report.metric("events_per_s", trimmed_mean(&rates));
    report.metric("peak_rss_kib", peak_rss);
    report.metric("peak_monitor_kib", median(&peaks));
    report.metric("sync_rtt_p50_us", trimmed_mean(&window_p50s));
    report.metric("sync_rtt_p90_us", trimmed_mean(&window_p90s));
    report.metric("durable_bytes", durable_bytes as f64);
    report.metric("recovery_s", trimmed_mean(&restore_s));
    report
}

/// A monitor of `property` configured as `MonitorSink` configures RV.
fn fresh_monitor(property: Property) -> PropertyMonitor {
    let spec = rv_props::compiled(property).expect("bundled properties compile");
    let config = EngineConfig { policy: GcPolicy::CoenableLazy, ..EngineConfig::default() };
    PropertyMonitor::new(spec, &config)
}

/// One checkpoint: every property's monitors, serialized.
type Checkpoint = Vec<(Property, Vec<u8>)>;

/// Runs the stream once more, untimed, checkpointing every property's
/// monitors at [`CHECKPOINTS`] evenly spaced points of its
/// `dispatched` events — what a journaled run with that cadence would
/// persist.
fn take_checkpoints(shape: &Shape, dispatched: u64, report: &mut Report) -> Vec<Checkpoint> {
    let mut sink = Checkpointing {
        inner: MonitorSink::new(System::Rv, &Property::EVALUATED),
        every: (dispatched / CHECKPOINTS).max(1),
        taken: Vec::new(),
    };
    shape.run(&mut sink);
    let complete = sink.taken.iter().all(|c| c.len() == Property::EVALUATED.len());
    report.check(complete && sink.taken.len() as u64 >= CHECKPOINTS, || {
        format!("{} of {CHECKPOINTS} checkpoints taken, complete: {complete}", sink.taken.len())
    });
    sink.taken
}

struct Checkpointing {
    inner: MonitorSink,
    every: u64,
    taken: Vec<Checkpoint>,
}

impl EventSink for Checkpointing {
    fn emit(&mut self, heap: &Heap, event: &SimEvent) {
        let before = self.inner.events;
        self.inner.emit(heap, event);
        if before / self.every != self.inner.events / self.every {
            let checkpoint = self
                .inner
                .engine_monitors()
                .into_iter()
                .filter_map(|(p, m)| Some((p, m.snapshot_bytes()?)))
                .collect();
            self.taken.push(checkpoint);
        }
    }

    fn at_exit(&mut self, heap: &Heap) {
        self.inner.at_exit(heap);
    }
}

/// Restores every checkpoint into fresh monitors; returns the mean time
/// per checkpoint. With `verify`, the restored monitors must checkpoint
/// to the same bytes.
fn restore_round(checkpoints: &[Checkpoint], verify: bool, report: &mut Report) -> f64 {
    let mut total = 0.0;
    for checkpoint in checkpoints {
        let mut fresh: Vec<PropertyMonitor> =
            checkpoint.iter().map(|(p, _)| fresh_monitor(*p)).collect();
        let t0 = Instant::now();
        let restored: Vec<_> = checkpoint
            .iter()
            .zip(&mut fresh)
            .map(|((p, bytes), monitor)| monitor.restore_snapshot(bytes, p.paper_name()))
            .collect();
        total += secs(t0);
        for (((p, bytes), monitor), outcome) in checkpoint.iter().zip(&fresh).zip(restored) {
            match outcome {
                Err(e) => report.check(false, || format!("{p:?}: restore failed: {e}")),
                Ok(()) if verify => report
                    .check(monitor.snapshot_bytes().as_ref() == Some(bytes), || {
                        format!("{p:?}: restored monitors checkpoint to different bytes")
                    }),
                Ok(()) => {}
            }
        }
    }
    total / checkpoints.len().max(1) as f64
}

/// Dispatches like `MonitorSink` (projection, then name → event id and
/// parameter binding), with a span around every `process` call.
struct TracedSink {
    monitors: Vec<(Property, PropertyMonitor)>,
    spans_ns: Vec<u32>,
    events: u64,
}

impl TracedSink {
    fn new() -> TracedSink {
        let monitors = Property::EVALUATED.iter().map(|&p| (p, fresh_monitor(p))).collect();
        TracedSink { monitors, spans_ns: Vec::new(), events: 0 }
    }
}

impl EventSink for TracedSink {
    fn emit(&mut self, heap: &Heap, event: &SimEvent) {
        for (property, monitor) in &mut self.monitors {
            let Some((name, objs)) = project(event, *property) else { continue };
            let spec = monitor.spec();
            let id = spec.alphabet.lookup(name).expect("projected events are in the alphabet");
            let pairs: Vec<_> = spec.event_params[id.as_usize()]
                .iter()
                .copied()
                .zip(objs.as_slice().iter().copied())
                .collect();
            let binding = Binding::from_pairs(&pairs);
            self.events += 1;
            let t0 = Instant::now();
            monitor.process(heap, id, binding);
            self.spans_ns.push(u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX));
        }
    }
}

/// The traced run: every per-layer metric, with the engine layer timed
/// by spans around `PropertyMonitor::process`.
pub fn measure_traced(shape: &Shape, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let compile: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            for p in Property::EVALUATED {
                std::hint::black_box(rv_props::compiled(p).expect("bundled properties compile"));
            }
            secs(t0)
        })
        .collect();
    let (mut self_s, mut busy_s, mut rates, mut gc_pause_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p99, mut max_ns) = (Vec::new(), Vec::new(), 0.0f64);
    let mut collections = 0;
    let (counts, iterations) = iterate(seconds, &mut report, |report| {
        let mut sink = TracedSink::new();
        let t0 = Instant::now();
        let workload = shape.run(&mut sink);
        let wall = secs(t0);
        let busy = sink.spans_ns.iter().map(|&n| f64::from(n)).sum::<f64>() / 1e9;
        busy_s.push(busy);
        self_s.push(wall - busy);
        rates.push(sink.events as f64 / wall);
        gc_pause_s.push(workload.heap.gc_pause_ns as f64 / 1e9);
        collections = workload.heap.collections;
        let mut spans: Vec<f64> = sink.spans_ns.iter().map(|&n| f64::from(n)).collect();
        p50.push(quantile(&mut spans, 0.50));
        p99.push(quantile(&mut spans, 0.99));
        max_ns = max_ns.max(spans.last().copied().unwrap_or(0.0));
        report.attempted += sink.events;
        report.failed +=
            sink.monitors.iter().filter(|(_, m)| m.last_error().is_some()).count() as u64;
        sink.monitors.iter().map(|(p, m)| (*p, m.stats())).collect()
    });
    gate_against_reference(shape, &counts, &mut report);
    print_inputs(shape, seed, iterations, &counts);

    report.metric("workloads.self_s", median(&self_s));
    report.metric("heap.collections", collections as f64);
    report.metric("heap.gc_pause_s", median(&gc_pause_s));
    report.metric("spec.compile_s", median(&compile));
    report.metric("engine.busy_s", median(&busy_s));
    report.metric("engine.process_p50_ns", median(&p50));
    report.metric("engine.process_p99_ns", median(&p99));
    report.metric("engine.process_max_ns", max_ns);
    engine_layer(&mut report, &merged(&counts));
    report.metric("trace.events_per_s", trimmed_mean(&rates));
    report
}
