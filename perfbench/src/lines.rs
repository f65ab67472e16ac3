//! The `rvmond-2t` inputs and their in-process replica.
//!
//! [`generate`] derives a trace-grammar line stream from a workload
//! profile the way `loadgen` does: one `create` per iterator, about
//! `nexts_per_iter` `next`s each, `update`s at a rate set by the
//! profile's map share, and every `gc_period` lines the oldest half of
//! the live iterators freed and collected. Collections are never freed,
//! so a tenant's monitor state grows with its collection count.
//!
//! [`replay`] feeds the same lines to an in-process `PropertyMonitor`
//! over a heap managed the way an rvmond tenant manages its own, so its
//! goal reports are the ones the daemon must deliver.

use std::collections::HashMap;
use std::time::Instant;

use rv_core::service::TriggerRecord;
use rv_core::{Binding, EngineConfig, EngineStats, PropertyMonitor};
use rv_heap::{Heap, HeapConfig, HeapStats, ObjId};
use rv_spec::CompiledSpec;
use rv_workloads::Profile;

use crate::util::{fnv1a, splitmix64, FNV_OFFSET};

/// The spec both tenants monitor: UnsafeIter, the paper's running
/// example (the same spec `loadgen` registers).
pub const SPEC: &str = "\
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next* update+ next
    @match { report \"improper Concurrent Modification found!\"; }
}
";

/// `count` lines for a tenant whose mix follows `profile`, drawn from
/// `seed`.
pub fn generate(profile: &Profile, seed: u64, count: usize) -> Vec<String> {
    let mut rng = seed;
    let unit = |rng: &mut u64| (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
    // Every create is followed by ~nexts `next`s, so the steady-state
    // create share is 1/(1+nexts).
    let p_create = 1.0 / (1.0 + profile.nexts_per_iter.max(0.1));
    let p_update = profile.map_fraction.clamp(0.01, 0.9) * p_create;
    let gc_period = profile.gc_period.max(64);
    let mut colls = 0u64;
    let mut iters: Vec<(u64, u64)> = Vec::new();
    let mut lines = Vec::with_capacity(count);
    let mut step = 0usize;
    while lines.len() < count {
        step += 1;
        if step.is_multiple_of(gc_period) && iters.len() > 8 {
            let retired: Vec<String> =
                iters.drain(..iters.len() / 2).map(|(_, i)| format!(" i{i}")).collect();
            lines.push(format!("!free{}", retired.concat()));
            lines.push("!gc".to_owned());
            continue;
        }
        let roll = unit(&mut rng);
        if iters.is_empty() || roll < p_create {
            let c = if colls == 0 || unit(&mut rng) < 0.5 {
                colls += 1;
                colls
            } else {
                1 + splitmix64(&mut rng) % colls
            };
            iters.push((c, step as u64));
            lines.push(format!("create c{c} i{step}"));
        } else if roll < p_create + p_update {
            let (c, _) = iters[(splitmix64(&mut rng) as usize) % iters.len()];
            lines.push(format!("update c{c}"));
        } else {
            let (_, i) = iters[(splitmix64(&mut rng) as usize) % iters.len()];
            lines.push(format!("next i{i}"));
        }
    }
    lines.truncate(count);
    lines
}

/// Folds one goal report into a trigger-stream hash. The journal
/// sequence number is left out: it counts the daemon's journal records,
/// which an in-process monitor does not write.
pub fn hash_report(h: u64, block: usize, step: u64, verdict: u8, binding: &Binding) -> u64 {
    fnv1a(h, format!("b{block} s{step} v{verdict} {binding:?}\n").as_bytes())
}

pub fn hash_record(h: u64, t: &TriggerRecord) -> u64 {
    hash_report(h, usize::from(t.block), t.step, t.verdict.to_byte(), &t.binding)
}

/// What the replica saw.
pub struct Replayed {
    pub stats: EngineStats,
    pub heap: HeapStats,
    pub trigger_hash: u64,
    /// Peak `estimated_bytes`, sampled every 4096 lines and at the end.
    pub peak_bytes: usize,
    /// Span of each `process` call, when traced.
    pub spans_ns: Vec<u32>,
}

/// Feeds `lines` to a fresh monitor of [`SPEC`] exactly as an rvmond
/// tenant does: each first-mentioned object name allocates a pinned
/// object, `!free` unpins, `!gc` collects.
pub fn replay(lines: &[String], traced: bool) -> Replayed {
    let spec = CompiledSpec::from_source(SPEC).expect("the tenant spec compiles");
    let config = EngineConfig { record_triggers: true, ..EngineConfig::default() };
    let mut monitor = PropertyMonitor::new(spec, &config);
    let alphabet = monitor.spec().alphabet.clone();
    let event_params = monitor.spec().event_params.clone();
    let mut heap = Heap::new(HeapConfig::manual());
    let class = heap.register_class("Obj");
    let mut objects: HashMap<String, ObjId> = HashMap::new();
    let mut out = Replayed {
        stats: EngineStats::default(),
        heap: HeapStats::default(),
        trigger_hash: FNV_OFFSET,
        peak_bytes: 0,
        spans_ns: Vec::new(),
    };
    for (n, line) in lines.iter().enumerate() {
        if n % 4096 == 0 {
            out.peak_bytes = out.peak_bytes.max(monitor.estimated_bytes());
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("!gc") => {
                heap.collect();
            }
            Some("!free") => {
                for name in words {
                    heap.unpin(objects[name]);
                }
            }
            Some(event_name) => {
                let event = alphabet.lookup(event_name).expect("generated events are in the spec");
                let pairs: Vec<_> = event_params[event.as_usize()]
                    .iter()
                    .zip(words)
                    .map(|(&p, name)| {
                        let obj = *objects.entry(name.to_owned()).or_insert_with(|| {
                            let frame = heap.enter_frame();
                            let o = heap.alloc(class);
                            heap.pin(o);
                            heap.exit_frame(frame);
                            o
                        });
                        (p, obj)
                    })
                    .collect();
                let before: Vec<usize> =
                    monitor.engines().iter().map(|e| e.triggers().len()).collect();
                let t0 = traced.then(Instant::now);
                monitor.process(&heap, event, Binding::from_pairs(&pairs));
                if let Some(t0) = t0 {
                    out.spans_ns.push(u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX));
                }
                for (block, engine) in monitor.engines().iter().enumerate() {
                    for t in &engine.triggers()[before[block]..] {
                        out.trigger_hash = hash_report(
                            out.trigger_hash,
                            block,
                            t.step as u64,
                            t.verdict.to_byte(),
                            &t.binding,
                        );
                    }
                }
            }
            None => {}
        }
    }
    out.peak_bytes = out.peak_bytes.max(monitor.estimated_bytes());
    out.stats = monitor.stats();
    out.heap = heap.stats();
    out
}
