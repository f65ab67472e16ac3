//! Checkpoint files and recovery planning.
//!
//! A checkpoint is one file (`checkpoint-00000000`, `checkpoint-00000001`,
//! …) containing a full serialized engine state ([`Engine::snapshot_bytes`]
//! or [`PropertyMonitor::snapshot_bytes`]) together with the journal
//! sequence number it covers:
//!
//! ```text
//! [magic "RVCK"] [version: u8] [generation: u64 LE] [seq: u64 LE]
//! [payload_len: u64 LE] [payload] [crc32: u32 LE]
//! ```
//!
//! The CRC covers everything between the magic and itself. Checkpoints are
//! written to a temp file and renamed into place, so a crash mid-write
//! leaves the previous generation intact; a checkpoint that fails
//! validation is *skipped* (recovery falls back to an older generation, or
//! to a full journal replay) rather than fatal — the journal, not the
//! checkpoint, is the source of truth.
//!
//! [`plan_recovery`] combines a [`read_journal`] scan with the checkpoint
//! directory listing and picks the newest usable checkpoint whose covered
//! sequence does not exceed the durable journal prefix (a checkpoint that
//! "knows more" than the journal is unusable: the heap history needed to
//! replay past it was lost with the torn tail). [`Recovery::replay`] then
//! turns the plan back into a running monitor — the one journal replayer
//! `rvmond`, `rvmon recover`/`replay`/`top` and the recovery bench share.
//!
//! [`Engine::snapshot_bytes`]: crate::Engine::snapshot_bytes
//! [`PropertyMonitor::snapshot_bytes`]: crate::PropertyMonitor::snapshot_bytes

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use rv_heap::{Heap, HeapConfig, ObjId};
use rv_logic::EventId;
use rv_spec::CompiledSpec;

use crate::binding::Binding;
use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::journal::{
    crc32, read_journal, BaseCounters, JournalScan, Record, AUX_FATAL, AUX_FREE, AUX_GC, AUX_OBJ,
    AUX_RELOAD, AUX_SLINE, AUX_SPEC, AUX_SWEEP,
};
use crate::multi::PropertyMonitor;
use crate::obs::EngineObserver;
use crate::script::{Line, Names, ScriptError};
use crate::service::TriggerRecord;

/// Checkpoint file magic: the first four bytes.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"RVCK";

/// On-disk checkpoint container version.
pub const CHECKPOINT_VERSION: u8 = 1;

// --- Little-endian wire helpers ------------------------------------------
//
// Shared by the checkpoint container and the engine snapshot encoders
// (engine.rs / multi.rs). Hand-rolled like the rest of the workspace: the
// build stays serde-free.

/// Appends a `u16` in little-endian order.
pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` in little-endian order.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte string.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian reader over snapshot bytes. Every
/// accessor returns `None` past the end; decoders bubble that up as a
/// corrupt-snapshot detail instead of panicking.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        let raw: [u8; 2] = self.bytes.get(self.pos..self.pos + 2)?.try_into().ok()?;
        self.pos += 2;
        Some(u16::from_le_bytes(raw))
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let raw: [u8; 4] = self.bytes.get(self.pos..self.pos + 4)?.try_into().ok()?;
        self.pos += 4;
        Some(u32::from_le_bytes(raw))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let raw: [u8; 8] = self.bytes.get(self.pos..self.pos + 8)?.try_into().ok()?;
        self.pos += 8;
        Some(u64::from_le_bytes(raw))
    }

    /// Reads a length to be used as an element count, rejecting counts
    /// that could not possibly fit in the remaining bytes (corrupt length
    /// fields must not drive allocations).
    pub(crate) fn count(&mut self) -> Option<usize> {
        let n = self.u64()?;
        let n = usize::try_from(n).ok()?;
        (n <= self.bytes.len().saturating_sub(self.pos).saturating_add(1)).then_some(n)
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    /// Reads a length-prefixed byte string written by [`put_bytes`].
    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.count()?;
        self.take(n)
    }

    /// Reads a binding written by `journal::encode_binding`.
    pub(crate) fn binding(&mut self) -> Option<crate::binding::Binding> {
        crate::journal::decode_binding(self.bytes, &mut self.pos)
    }

    /// Whether every byte was consumed (trailing garbage is corruption).
    pub(crate) fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// --- Checkpoint container ------------------------------------------------

/// A validated checkpoint loaded from disk.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// The checkpoint generation (monotone per run).
    pub generation: u64,
    /// The journal sequence the payload covers (exclusive): every journal
    /// record with `seq <` this is reflected in the payload.
    pub seq: u64,
    /// The serialized engine state.
    pub payload: Vec<u8>,
    /// The file the checkpoint was loaded from.
    pub file: String,
}

/// The canonical file name for checkpoint `generation` under `dir`.
#[must_use]
pub fn checkpoint_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("checkpoint-{generation:08}"))
}

/// Durably writes checkpoint `generation` covering journal sequence `seq`
/// (exclusive). The file is written and fsynced under a temporary name,
/// then renamed into place, so a crash at any byte leaves either the
/// previous generation or a complete new one. Returns the file size.
///
/// # Errors
///
/// Any IO error writing, syncing, or renaming.
pub fn write_checkpoint(
    dir: &Path,
    generation: u64,
    seq: u64,
    payload: &[u8],
) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut body = Vec::with_capacity(payload.len() + 33);
    body.push(CHECKPOINT_VERSION);
    put_u64(&mut body, generation);
    put_u64(&mut body, seq);
    put_bytes(&mut body, payload);
    let crc = crc32(&body);
    let tmp = dir.join(format!("checkpoint-{generation:08}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(&CHECKPOINT_MAGIC)?;
    f.write_all(&body)?;
    f.write_all(&crc.to_le_bytes())?;
    f.sync_all()?;
    drop(f);
    let path = checkpoint_path(dir, generation);
    std::fs::rename(&tmp, &path)?;
    Ok((CHECKPOINT_MAGIC.len() + body.len() + 4) as u64)
}

fn corrupt(path: &Path, detail: impl Into<String>) -> EngineError {
    EngineError::CorruptSnapshot { file: path.display().to_string(), detail: detail.into() }
}

/// Loads and validates one checkpoint file.
///
/// # Errors
///
/// [`EngineError::CorruptSnapshot`] on any validation failure: bad magic,
/// stale version, CRC mismatch, or an inconsistent length field.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, EngineError> {
    let bytes =
        std::fs::read(path).map_err(|e| corrupt(path, format!("unreadable checkpoint: {e}")))?;
    if bytes.len() < CHECKPOINT_MAGIC.len() + 1 + 8 + 8 + 8 + 4 {
        return Err(corrupt(path, "truncated checkpoint (shorter than the fixed header)"));
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err(corrupt(path, "bad magic (not a checkpoint)"));
    }
    let body = &bytes[4..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if stored != crc32(body) {
        return Err(corrupt(path, "CRC mismatch"));
    }
    let mut c = Cursor::new(body);
    let version = c.u8().expect("length checked above");
    if version != CHECKPOINT_VERSION {
        return Err(corrupt(
            path,
            format!("unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"),
        ));
    }
    let generation = c.u64().expect("length checked above");
    let seq = c.u64().expect("length checked above");
    let payload = c.bytes().ok_or_else(|| corrupt(path, "inconsistent payload length"))?.to_vec();
    if !c.finished() {
        return Err(corrupt(path, "trailing bytes after payload"));
    }
    Ok(Checkpoint { generation, seq, payload, file: path.display().to_string() })
}

/// Lists checkpoint generations present in `dir`, ascending.
#[must_use]
pub fn list_checkpoints(dir: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut gens: Vec<u64> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            let digits = name.strip_prefix("checkpoint-")?;
            if digits.len() == 8 {
                digits.parse().ok()
            } else {
                None
            }
        })
        .collect();
    gens.sort_unstable();
    gens
}

/// Loads the newest usable checkpoint: the highest generation that
/// validates *and* covers no more than `max_seq` journal records. Unusable
/// candidates are skipped and reported in the second component (file plus
/// reason), so callers can surface what recovery had to ignore.
#[must_use]
pub fn load_latest_checkpoint(dir: &Path, max_seq: u64) -> (Option<Checkpoint>, Vec<String>) {
    let mut skipped = Vec::new();
    for generation in list_checkpoints(dir).into_iter().rev() {
        let path = checkpoint_path(dir, generation);
        match load_checkpoint(&path) {
            Ok(cp) if cp.seq <= max_seq => return (Some(cp), skipped),
            Ok(cp) => skipped.push(format!(
                "{}: covers journal seq {} but only {} records are durable",
                cp.file, cp.seq, max_seq
            )),
            Err(e) => skipped.push(e.to_string()),
        }
    }
    (None, skipped)
}

/// Everything recovery needs, in one plan: the durable journal prefix,
/// the checkpoint (if any) restoration should start from, and the spec
/// lineage replay compiles engines from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Recovery {
    /// The durable journal prefix (plus where a torn tail was cut).
    pub scan: JournalScan,
    /// The newest usable checkpoint, if any. `None` means a full replay
    /// from sequence 0 — audits set it so on purpose.
    pub checkpoint: Option<Checkpoint>,
    /// Checkpoints that existed but had to be skipped (corrupt, stale
    /// version, or covering more records than the journal retained), with
    /// reasons — for audit output.
    pub skipped_checkpoints: Vec<String>,
    /// Every spec the journal carries as `(seq, source)`: the `AUX_SPEC`
    /// record at sequence 0, then one entry per `AUX_RELOAD` cutover.
    /// Empty when the journal does not begin with a spec record.
    pub(crate) specs: Vec<(u64, String)>,
}

/// Why [`Recovery::replay`] could not rebuild the monitor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplayError {
    /// A spec the checkpoint or the records before it speak no longer
    /// compiles.
    Spec(String),
    /// The journal or the checkpoint does not replay.
    Corrupt(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Spec(msg) | ReplayError::Corrupt(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ReplayError {}

/// What [`Recovery::replay`] rebuilt. Callers finish the job their own
/// way (`reflag_dead_keys`, `check_invariants`, `finish`, resuming the
/// journal).
#[derive(Debug)]
pub struct Replayed<O: EngineObserver> {
    /// The monitor for the spec in force at the end of the journal.
    pub monitor: PropertyMonitor<O>,
    /// The heap rebuilt from the whole record prefix (identical
    /// `ObjId`s: allocation order is replayed exactly).
    pub heap: Heap,
    /// The client-visible name → `ObjId` table from `AUX_OBJ` records.
    pub(crate) names: Names,
    /// Events dispatched past the checkpoint, across every spec.
    pub events: u64,
    /// Reports at or below the journaled trigger high-water mark:
    /// already delivered, so not reported again.
    pub suppressed: u64,
    /// Reports past the high-water mark, in key order — first-time
    /// deliveries a crash tore from the journal.
    pub(crate) refired: Vec<TriggerRecord>,
    /// Per-session `cseq` high-water marks from `AUX_SLINE`/`AUX_FATAL`.
    pub(crate) sessions: HashMap<u64, u64>,
    /// 1 plus the number of `AUX_RELOAD` cutovers.
    pub(crate) spec_version: u64,
    /// The token of the last cutover (0 if none).
    pub(crate) reload_token: u64,
    /// The counter base the last cutover carried.
    pub(crate) base: BaseCounters,
}

impl Recovery {
    /// The journal sequence restoration starts replaying from: the
    /// checkpoint's covered sequence, or 0 for a full replay.
    #[must_use]
    pub fn replay_from(&self) -> u64 {
        self.checkpoint.as_ref().map_or(0, |c| c.seq)
    }

    /// Rebuilds the monitor the journal describes: compiles the spec in
    /// force at the checkpoint and restores the checkpoint into it,
    /// rebuilds the heap and the name → `ObjId` map from the whole record
    /// prefix, and dispatches every event from [`replay_from`] on —
    /// swapping in a fresh engine (observers from `observers`) at each
    /// `AUX_RELOAD` past the checkpoint. Reports at or below the
    /// journal's trigger high-water mark are counted as suppressed; the
    /// rest are returned as refired. Triggers are always recorded,
    /// whatever `config.record_triggers` says.
    ///
    /// Both record dialects replay: `rvmond` journals (`AUX_OBJ`,
    /// `AUX_SLINE`, `AUX_FATAL`, `AUX_RELOAD`, plus session-0 events and
    /// directives) and `rvmon run` journals (`Event`, `AUX_GC`,
    /// `AUX_FREE`, `AUX_SWEEP`). An `Event` or `AUX_OBJ` naming an object
    /// that is not live in the rebuilt heap is accepted only if it is
    /// exactly the heap's next allocation (objects are first-mentioned in
    /// declared parameter order), and every `!gc` forgets the names of the
    /// objects it reclaims, as [`Names::collect`] does live.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Spec`] when a spec in force at or before the
    /// checkpoint no longer compiles; [`ReplayError::Corrupt`] when the
    /// journal does not
    /// begin with a spec record, the checkpoint does not restore, or a
    /// record does not replay (truncated payload, unknown event or
    /// object, arity mismatch, heap divergence, engine error).
    ///
    /// [`replay_from`]: Self::replay_from
    pub fn replay<O: EngineObserver>(
        &self,
        config: &EngineConfig,
        mut observers: impl FnMut(usize) -> O,
    ) -> Result<Replayed<O>, ReplayError> {
        let config = &EngineConfig { record_triggers: true, ..config.clone() };
        let replay_from = self.replay_from();
        let Some((_, first)) = self.specs.first() else {
            return Err(ReplayError::Corrupt(
                "journal does not begin with a spec record".to_owned(),
            ));
        };
        let compile = |source: &str| {
            CompiledSpec::from_source(source).map_err(|d| {
                ReplayError::Spec(format!("journaled spec no longer compiles: {}", d.message))
            })
        };
        // The spec whose declarations the records being replayed speak.
        let mut in_force = compile(first)?;
        // The checkpoint reflects every record below `replay_from`, so
        // it speaks the last spec cut over before it.
        let at_checkpoint = match self.specs[1..].iter().rev().find(|(seq, _)| *seq < replay_from) {
            Some((_, source)) => compile(source)?,
            None => in_force.clone(),
        };
        let mut monitor = PropertyMonitor::with_observers(at_checkpoint, config, &mut observers);
        if let Some(cp) = &self.checkpoint {
            monitor
                .restore_snapshot(&cp.payload, &cp.file)
                .map_err(|e| ReplayError::Corrupt(e.to_string()))?;
        }
        let mut heap = Heap::new(HeapConfig::manual());
        let names = Names::new(&mut heap);
        let mut r = Replayed {
            monitor,
            heap,
            names,
            events: 0,
            suppressed: 0,
            refired: Vec::new(),
            sessions: HashMap::new(),
            spec_version: 1,
            reload_token: 0,
            base: BaseCounters::default(),
        };
        let hwm = self.scan.trigger_high_water_mark();
        for sr in &self.scan.records {
            let seq = sr.seq;
            let live = seq >= replay_from;
            match &sr.record {
                Record::Event { event, binding } => {
                    let Some(params) = in_force.event_params.get(event.as_usize()) else {
                        return Err(ReplayError::Corrupt(format!(
                            "journal record {seq}: unknown event e{}",
                            event.as_usize()
                        )));
                    };
                    for &p in params {
                        let Some(obj) = binding.get(p) else {
                            return Err(ReplayError::Corrupt(format!(
                                "journal record {seq} binds a different parameter set than \
                                 event {} declares",
                                event.as_usize()
                            )));
                        };
                        r.recreate(seq, obj)?;
                    }
                    if live {
                        r.dispatch(seq, *event, *binding, hwm)?;
                    }
                }
                Record::Aux { tag: AUX_GC, .. } => {
                    r.names.collect(&mut r.heap);
                }
                Record::Aux { tag: AUX_SWEEP, .. } => r.sweep(live),
                Record::Aux { tag: AUX_FREE, bytes } => {
                    for chunk in bytes.chunks_exact(8) {
                        let bits = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                        let obj = ObjId::from_bits(bits);
                        if !r.heap.is_alive(obj) {
                            return Err(ReplayError::Corrupt(format!(
                                "journal record {seq} frees object {bits:#x} never allocated"
                            )));
                        }
                        r.heap.unpin(obj);
                    }
                }
                Record::Aux { tag: AUX_OBJ, bytes } => {
                    let Some(bits) = le_u64(bytes, 0) else {
                        return Err(ReplayError::Corrupt(format!(
                            "journal record {seq}: truncated AUX_OBJ"
                        )));
                    };
                    let obj = ObjId::from_bits(bits);
                    r.recreate(seq, obj)?;
                    r.names.insert(&String::from_utf8_lossy(&bytes[8..]), obj);
                }
                Record::Aux { tag: AUX_SLINE, bytes } => {
                    let (Some(session), Some(cseq)) = (le_u64(bytes, 0), le_u64(bytes, 8)) else {
                        return Err(ReplayError::Corrupt(format!(
                            "journal record {seq}: truncated AUX_SLINE"
                        )));
                    };
                    r.note_session(session, cseq);
                    let line = String::from_utf8_lossy(&bytes[16..]);
                    let corrupt =
                        |msg: String| ReplayError::Corrupt(format!("journal record {seq}{msg}"));
                    let parsed = r.names.parse(&in_force, &line).map_err(|e| match e {
                        ScriptError::UnknownEvent(name) => {
                            corrupt(format!(": unknown event `{name}`"))
                        }
                        ScriptError::Arity { .. } => {
                            corrupt(format!(": event arity mismatch in `{line}`"))
                        }
                        ScriptError::UnknownObject(name) => {
                            corrupt(format!(" frees unknown object `{name}`"))
                        }
                    })?;
                    match parsed {
                        None => {}
                        Some(Line::Gc) => {
                            r.names.collect(&mut r.heap);
                        }
                        Some(Line::Sweep) => r.sweep(live),
                        Some(Line::Free(objs)) => {
                            for obj in objs {
                                r.heap.unpin(obj);
                            }
                        }
                        Some(Line::Event(ev)) => {
                            let binding = r.names.bind_known(&in_force, &ev).map_err(|name| {
                                corrupt(format!(" references `{name}` with no AUX_OBJ record"))
                            })?;
                            if live {
                                r.dispatch(seq, ev.event, binding, hwm)?;
                            }
                        }
                    }
                }
                Record::Aux { tag: AUX_FATAL, bytes } => {
                    // The dedup mark of a `!fatal` that already killed one
                    // incarnation: advancing the HWM here turns the
                    // client's resend into a no-op instead of a kill loop.
                    let (Some(session), Some(cseq)) = (le_u64(bytes, 0), le_u64(bytes, 8)) else {
                        return Err(ReplayError::Corrupt(format!(
                            "journal record {seq}: truncated AUX_FATAL"
                        )));
                    };
                    r.note_session(session, cseq);
                }
                Record::Aux { tag: AUX_RELOAD, bytes } => {
                    let Some((token, base, source)) = BaseCounters::decode_reload(bytes) else {
                        return Err(ReplayError::Corrupt(format!(
                            "journal record {seq}: malformed AUX_RELOAD"
                        )));
                    };
                    r.spec_version += 1;
                    r.reload_token = token;
                    r.base = base;
                    if live {
                        in_force = CompiledSpec::from_source(&source).map_err(|d| {
                            ReplayError::Corrupt(format!(
                                "journal record {seq}: reloaded spec no longer compiles: {}",
                                d.message
                            ))
                        })?;
                        r.monitor = PropertyMonitor::with_observers(
                            in_force.clone(),
                            config,
                            &mut observers,
                        );
                    } else {
                        in_force = compile(&source)?;
                    }
                }
                _ => {}
            }
        }
        Ok(r)
    }
}

impl<O: EngineObserver> Replayed<O> {
    /// Dispatches one replayed event and classifies each report it fires
    /// against the durable high-water mark.
    fn dispatch(
        &mut self,
        seq: u64,
        event: EventId,
        binding: Binding,
        hwm: Option<(u64, u32)>,
    ) -> Result<(), ReplayError> {
        let (suppressed, refired) = (&mut self.suppressed, &mut self.refired);
        self.monitor
            .try_process_keyed(&self.heap, event, binding, seq, |t| {
                if hwm.is_some_and(|h| t.key() <= h) {
                    *suppressed += 1;
                } else {
                    refired.push(t);
                }
            })
            .map_err(|e| ReplayError::Corrupt(format!("engine error at record {seq}: {e}")))?;
        self.events += 1;
        Ok(())
    }

    /// A journaled object's first mention: the rebuilt heap must hand out
    /// exactly `obj`, or the heap history diverged.
    fn recreate(&mut self, seq: u64, obj: ObjId) -> Result<(), ReplayError> {
        self.names.recreate(&mut self.heap, obj).map_err(|fresh| {
            ReplayError::Corrupt(format!(
                "heap replay diverged at record {seq}: journal names object {:#x} but the \
                 rebuilt heap allocated {:#x}",
                obj.to_bits(),
                fresh.to_bits()
            ))
        })
    }

    /// A journaled full sweep; the checkpoint already reflects the ones
    /// before it.
    fn sweep(&mut self, live: bool) {
        if live {
            for engine in self.monitor.engines_mut() {
                engine.full_sweep(&self.heap);
            }
        }
    }

    fn note_session(&mut self, session: u64, cseq: u64) {
        if session != 0 {
            let hwm = self.sessions.entry(session).or_insert(0);
            *hwm = (*hwm).max(cseq);
        }
    }
}

/// The little-endian `u64` at byte `at` of a record payload, if present.
fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

/// Scans the journal in `dir`, picks the newest usable checkpoint, and
/// reads the spec lineage.
///
/// # Errors
///
/// [`EngineError::CorruptJournal`] when the journal *head* is unusable
/// (bad magic / stale version). Torn tails and corrupt checkpoints are not
/// errors — they are truncated or skipped, respectively, and reported in
/// the returned plan.
pub fn plan_recovery(dir: &Path) -> Result<Recovery, EngineError> {
    let scan = read_journal(dir)?;
    let (checkpoint, skipped_checkpoints) = load_latest_checkpoint(dir, scan.next_seq);
    let mut specs = Vec::new();
    let mut records = scan.records.iter();
    if let Some(sr) = records.next() {
        if let Record::Aux { tag: AUX_SPEC, bytes } = &sr.record {
            if let Ok(source) = String::from_utf8(bytes.clone()) {
                specs.push((sr.seq, source));
                specs.extend(records.filter_map(|sr| match &sr.record {
                    Record::Aux { tag: AUX_RELOAD, bytes } => {
                        BaseCounters::decode_reload(bytes).map(|(_, _, source)| (sr.seq, source))
                    }
                    _ => None,
                }));
            }
        }
    }
    Ok(Recovery { scan, checkpoint, skipped_checkpoints, specs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rv-snapshot-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn replay_rejects_a_session_line_naming_too_many_objects() {
        let dir = temp_dir("arity");
        let spec = "\
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next* update+ next
    @match { report \"improper Concurrent Modification found!\"; }
}
";
        let obj = |index: u64, name: &str| {
            let mut bytes = (index << 32).to_le_bytes().to_vec();
            bytes.extend_from_slice(name.as_bytes());
            Record::Aux { tag: AUX_OBJ, bytes }
        };
        let mut sline = [1u64.to_le_bytes(), 1u64.to_le_bytes()].concat();
        sline.extend_from_slice(b"create c1 i1 junk");
        let mut w = crate::journal::JournalWriter::create(&dir).unwrap();
        w.append(&Record::Aux { tag: AUX_SPEC, bytes: spec.as_bytes().to_vec() }).unwrap();
        w.append(&obj(0, "c1")).unwrap();
        w.append(&obj(1, "i1")).unwrap();
        w.append(&Record::Aux { tag: AUX_SLINE, bytes: sline }).unwrap();
        w.sync().unwrap();
        drop(w);
        let plan = plan_recovery(&dir).unwrap();
        match plan.replay(&EngineConfig::default(), |_| crate::obs::NoopObserver) {
            Err(ReplayError::Corrupt(msg)) => {
                assert!(msg.contains("event arity mismatch"), "unexpected error: {msg}");
            }
            other => panic!("expected a corrupt-journal error, got {:?}", other.map(|r| r.events)),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_round_trips() {
        let dir = temp_dir("roundtrip");
        let payload = vec![1u8, 2, 3, 4, 5];
        let bytes = write_checkpoint(&dir, 3, 17, &payload).unwrap();
        assert!(bytes > payload.len() as u64);
        let cp = load_checkpoint(&checkpoint_path(&dir, 3)).unwrap();
        assert_eq!(cp.generation, 3);
        assert_eq!(cp.seq, 17);
        assert_eq!(cp.payload, payload);
        assert_eq!(list_checkpoints(&dir), vec![3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoints_yield_typed_errors() {
        let dir = temp_dir("corrupt");
        write_checkpoint(&dir, 0, 5, b"payload").unwrap();
        let path = checkpoint_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        // Bit-flip inside the payload: CRC must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(matches!(err, EngineError::CorruptSnapshot { .. }), "{err}");
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
        // Truncation below the fixed header.
        std::fs::write(&path, b"RVCK").unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Foreign file.
        std::fs::write(&path, b"not a checkpoint at all, definitely").unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_usable_checkpoint_wins_and_overreaching_ones_are_skipped() {
        let dir = temp_dir("latest");
        write_checkpoint(&dir, 0, 4, b"gen0").unwrap();
        write_checkpoint(&dir, 1, 9, b"gen1").unwrap();
        write_checkpoint(&dir, 2, 30, b"gen2").unwrap();
        // Only 12 journal records are durable: generation 2 covers too
        // much and must be skipped in favour of generation 1.
        let (cp, skipped) = load_latest_checkpoint(&dir, 12);
        let cp = cp.unwrap();
        assert_eq!(cp.generation, 1);
        assert_eq!(cp.payload, b"gen1");
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].contains("covers journal seq 30"), "{}", skipped[0]);
        // Corrupt generation 1 as well: fall back to generation 0.
        let p1 = checkpoint_path(&dir, 1);
        let mut b = std::fs::read(&p1).unwrap();
        let last = b.len() - 1;
        b[last] ^= 0xFF;
        std::fs::write(&p1, &b).unwrap();
        let (cp, skipped) = load_latest_checkpoint(&dir, 12);
        assert_eq!(cp.unwrap().generation, 0);
        assert_eq!(skipped.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_recovery_over_empty_dir_is_a_full_replay_of_nothing() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = plan_recovery(&dir).unwrap();
        assert!(plan.checkpoint.is_none());
        assert_eq!(plan.replay_from(), 0);
        assert!(plan.scan.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_rejects_overruns_and_oversized_counts() {
        let mut out = Vec::new();
        put_u16(&mut out, 7);
        put_u32(&mut out, 8);
        put_u64(&mut out, 9);
        put_bytes(&mut out, b"xy");
        let mut c = Cursor::new(&out);
        assert_eq!(c.u16(), Some(7));
        assert_eq!(c.u32(), Some(8));
        assert_eq!(c.u64(), Some(9));
        assert_eq!(c.bytes(), Some(&b"xy"[..]));
        assert!(c.finished());
        assert_eq!(c.u8(), None);
        // A length field claiming more elements than bytes remain.
        let mut bogus = Vec::new();
        put_u64(&mut bogus, u64::MAX);
        let mut c = Cursor::new(&bogus);
        assert_eq!(c.count(), None);
    }
}
