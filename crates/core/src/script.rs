//! The trace-line grammar — the one reader of textual event streams:
//! `rvmon`'s events files, `rvmond`'s ingest lines and the `AUX_SLINE`
//! records a daemon journal replays.
//!
//! A line is `event obj…` (objects named by the client, as many as the
//! event declares parameters), a directive — `!free obj…` unpins,
//! `!gc` collects the heap, `!sweep` runs a full monitor sweep — or
//! blank; `#` starts a comment. [`Names`] maps names to heap objects: a
//! name's first mention allocates a pinned object in a throwaway frame,
//! so the pin is its only root and `!free` then `!gc` really reclaims it.
//! The `!gc` that reclaims an object forgets its name, so the table stays
//! as large as the live named objects and a later mention of the name
//! allocates a fresh object instead of dispatching on a dead handle.
//!
//! The module parses lines and resolves names, nothing else: journaling,
//! telemetry and the choice of sweep stay with each caller.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::str::SplitWhitespace;

use rv_heap::{ClassId, Heap, ObjId};
use rv_logic::EventId;
use rv_spec::CompiledSpec;

use crate::binding::Binding;

/// `raw` without its `#` comment and surrounding whitespace — the form a
/// daemon journals in `AUX_SLINE` records.
#[must_use]
pub(crate) fn content(raw: &str) -> &str {
    raw.split('#').next().unwrap_or("").trim()
}

/// One non-blank trace line.
#[derive(Debug)]
pub enum Line<'a> {
    /// `!gc`: collect the heap (through [`Names::collect`]).
    Gc,
    /// `!sweep`: a full monitor sweep of every engine.
    Sweep,
    /// `!free obj…`: the objects to unpin, every name already resolved.
    Free(Vec<ObjId>),
    /// `event obj…` with its arity checked; bind it with [`Names::bind`]
    /// or [`Names::bind_known`].
    Event(EventLine<'a>),
}

/// An event line whose object names are not resolved yet.
#[derive(Clone, Debug)]
pub struct EventLine<'a> {
    /// The event dispatched.
    pub event: EventId,
    objects: SplitWhitespace<'a>,
}

/// Why a line does not parse or bind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScriptError<'a> {
    /// The head word is neither a directive nor an event of the spec.
    UnknownEvent(&'a str),
    /// The event names the wrong number of objects.
    Arity {
        /// The event's name.
        event: &'a str,
        /// Parameters it declares.
        takes: usize,
        /// Objects the line names.
        got: usize,
    },
    /// `!free` of a name the table does not hold.
    UnknownObject(&'a str),
}

impl fmt::Display for ScriptError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::UnknownEvent(name) => write!(
                f,
                "`{name}` is not an event of this spec (directives are !free, !gc, !sweep)"
            ),
            ScriptError::Arity { event, takes, got } => {
                write!(f, "event `{event}` takes {takes} object(s), got {got}")
            }
            ScriptError::UnknownObject(name) => write!(f, "unknown object `{name}`"),
        }
    }
}

/// The name → [`ObjId`] table of one trace.
#[derive(Debug)]
pub struct Names {
    class: ClassId,
    objects: HashMap<String, ObjId>,
}

impl Names {
    /// An empty table whose objects are allocated in a class it registers
    /// on `heap`.
    pub fn new(heap: &mut Heap) -> Names {
        Names { class: heap.register_class("Obj"), objects: HashMap::new() }
    }

    /// Parses one line against `spec`; `Ok(None)` for a blank or comment
    /// line. `!free` checks every name before the caller unpins any.
    ///
    /// # Errors
    ///
    /// [`ScriptError::UnknownEvent`] for an unknown event or `!directive`,
    /// [`ScriptError::Arity`], or [`ScriptError::UnknownObject`] for a
    /// `!free` of a name the table does not hold.
    pub fn parse<'a>(
        &self,
        spec: &CompiledSpec,
        raw: &'a str,
    ) -> Result<Option<Line<'a>>, ScriptError<'a>> {
        let mut words = content(raw).split_whitespace();
        let Some(head) = words.next() else {
            return Ok(None);
        };
        Ok(Some(match head {
            "!gc" => Line::Gc,
            "!sweep" => Line::Sweep,
            "!free" => Line::Free(
                words
                    .map(|name| {
                        self.objects.get(name).copied().ok_or(ScriptError::UnknownObject(name))
                    })
                    .collect::<Result<_, _>>()?,
            ),
            name => {
                let event = spec.alphabet.lookup(name).ok_or(ScriptError::UnknownEvent(name))?;
                let takes = spec.event_params[event.as_usize()].len();
                let got = words.clone().count();
                if got != takes {
                    return Err(ScriptError::Arity { event: name, takes, got });
                }
                Line::Event(EventLine { event, objects: words })
            }
        }))
    }

    /// Binds `line`'s objects to its event's parameters, allocating each
    /// name on its first mention; `fresh` sees every allocation, in
    /// parameter order.
    pub fn bind(
        &mut self,
        heap: &mut Heap,
        spec: &CompiledSpec,
        line: &EventLine<'_>,
        mut fresh: impl FnMut(&str, ObjId),
    ) -> Binding {
        let resolve = |name: &str| {
            if let Some(&obj) = self.objects.get(name) {
                return Ok::<_, Infallible>(obj);
            }
            let obj = alloc_pinned(heap, self.class);
            self.objects.insert(name.to_owned(), obj);
            fresh(name, obj);
            Ok(obj)
        };
        let Ok(binding) = bind_with(spec, line, resolve);
        binding
    }

    /// Binds `line`'s objects when every name must already be in the
    /// table, as in a journal whose allocations are records of their own.
    ///
    /// # Errors
    ///
    /// The first name the table does not hold.
    pub(crate) fn bind_known<'a>(
        &self,
        spec: &CompiledSpec,
        line: &EventLine<'a>,
    ) -> Result<Binding, &'a str> {
        bind_with(spec, line, |name| self.objects.get(name).copied().ok_or(name))
    }

    /// Enters `name → obj`, as a daemon journal's `AUX_OBJ` record does.
    pub(crate) fn insert(&mut self, name: &str, obj: ObjId) {
        self.objects.insert(name.to_owned(), obj);
    }

    /// Makes the journaled `obj` live in a heap being rebuilt: nothing if
    /// it is, else the first-mention allocation, which must hand out
    /// exactly `obj`.
    ///
    /// # Errors
    ///
    /// The object the heap allocated instead, when the heap's history
    /// diverged from the journal's.
    pub(crate) fn recreate(&self, heap: &mut Heap, obj: ObjId) -> Result<(), ObjId> {
        if heap.is_alive(obj) {
            return Ok(());
        }
        let fresh = alloc_pinned(heap, self.class);
        if fresh == obj {
            Ok(())
        } else {
            Err(fresh)
        }
    }

    /// `!gc`: collects `heap` and forgets the name of every object it
    /// reclaimed. Returns the number of objects reclaimed.
    pub fn collect(&mut self, heap: &mut Heap) -> usize {
        let reclaimed = heap.collect();
        if reclaimed > 0 {
            self.objects.retain(|_, obj| heap.is_alive(*obj));
        }
        reclaimed
    }
}

/// A first mention's object: allocated in a throwaway frame and pinned,
/// so the pin is its only root.
fn alloc_pinned(heap: &mut Heap, class: ClassId) -> ObjId {
    let frame = heap.enter_frame();
    let obj = heap.alloc(class);
    heap.pin(obj);
    heap.exit_frame(frame);
    obj
}

/// The binding of `line`'s names, resolved in parameter order.
fn bind_with<'a, E>(
    spec: &CompiledSpec,
    line: &EventLine<'a>,
    mut resolve: impl FnMut(&'a str) -> Result<ObjId, E>,
) -> Result<Binding, E> {
    let mut binding = Binding::BOTTOM;
    for (&p, name) in spec.event_params[line.event.as_usize()].iter().zip(line.objects.clone()) {
        binding = binding.with(p, resolve(name)?);
    }
    Ok(binding)
}

#[cfg(test)]
mod tests {
    use rv_heap::HeapConfig;

    use super::*;

    const SPEC: &str = "\
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next* update+ next
    @match { report \"improper Concurrent Modification found!\"; }
}
";

    /// Runs `lines` through a fresh table the way `rvmon trace` does and
    /// renders each line's outcome, then the heap's and table's sizes.
    fn run(lines: &[&str]) -> Vec<String> {
        let spec = CompiledSpec::from_source(SPEC).expect("spec compiles");
        let mut heap = Heap::new(HeapConfig::manual());
        let mut names = Names::new(&mut heap);
        let mut out = Vec::new();
        for raw in lines {
            out.push(match names.parse(&spec, raw) {
                Ok(None) => "blank".to_owned(),
                Ok(Some(Line::Gc)) => format!("gc {}", names.collect(&mut heap)),
                Ok(Some(Line::Sweep)) => "sweep".to_owned(),
                Ok(Some(Line::Free(objs))) => {
                    for &obj in &objs {
                        heap.unpin(obj);
                    }
                    format!("free {}", objs.len())
                }
                Ok(Some(Line::Event(line))) => {
                    let mut allocated = 0;
                    let b = names.bind(&mut heap, &spec, &line, |_, _| allocated += 1);
                    format!("e{} {b:?} +{allocated}", line.event.as_usize())
                }
                Err(e) => format!("error: {e}"),
            });
        }
        out.push(format!("live {} names {}", heap.live_count(), names.objects.len()));
        out
    }

    #[test]
    fn grammar() {
        let cases: &[(&[&str], &[&str])] = &[
            (&["", "   ", "# only a comment"], &["blank", "blank", "blank", "live 0 names 0"]),
            (
                &["create c1 i1  # c1 first", "update c1", "!sweep", "next i1"],
                &["e0 ⟨x0↦#0g0, x1↦#1g0⟩ +2", "e1 ⟨x0↦#0g0⟩ +0", "sweep", "e2 ⟨x1↦#1g0⟩ +0", "live 2 names 2"],
            ),
            // A name mentioned twice on its first line is allocated once.
            (&["create x x", "next x"], &["e0 ⟨x0↦#0g0, x1↦#0g0⟩ +1", "e2 ⟨x1↦#0g0⟩ +0", "live 1 names 1"]),
            (
                &["create c1 i1", "!free i1", "!gc", "!gc"],
                &["e0 ⟨x0↦#0g0, x1↦#1g0⟩ +2", "free 1", "gc 1", "gc 0", "live 1 names 1"],
            ),
            // A collected name is forgotten: its next mention is a fresh object.
            (
                &["create c1 i1", "!free i1", "!gc", "next i1"],
                &["e0 ⟨x0↦#0g0, x1↦#1g0⟩ +2", "free 1", "gc 1", "e2 ⟨x1↦#1g1⟩ +1", "live 2 names 2"],
            ),
            // `!free` checks every name before unpinning any.
            (
                &["create c1 i1", "!free c1 ghost", "!gc"],
                &["e0 ⟨x0↦#0g0, x1↦#1g0⟩ +2", "error: unknown object `ghost`", "gc 0", "live 2 names 2"],
            ),
            (
                &["push s", "!zap", "!fatal"],
                &[
                    "error: `push` is not an event of this spec (directives are !free, !gc, !sweep)",
                    "error: `!zap` is not an event of this spec (directives are !free, !gc, !sweep)",
                    "error: `!fatal` is not an event of this spec (directives are !free, !gc, !sweep)",
                    "live 0 names 0",
                ],
            ),
            (
                &["create c1", "update c1 c2", "next"],
                &[
                    "error: event `create` takes 2 object(s), got 1",
                    "error: event `update` takes 1 object(s), got 2",
                    "error: event `next` takes 1 object(s), got 0",
                    "live 0 names 0",
                ],
            ),
        ];
        for (lines, want) in cases {
            assert_eq!(run(lines), *want, "lines {lines:?}");
        }
    }

    #[test]
    fn bind_known_and_recreate_follow_the_table() {
        let spec = CompiledSpec::from_source(SPEC).expect("spec compiles");
        let mut heap = Heap::new(HeapConfig::manual());
        let mut names = Names::new(&mut heap);
        let Ok(Some(Line::Event(line))) = names.parse(&spec, "create c1 i1") else {
            panic!("create parses");
        };
        assert_eq!(names.bind_known(&spec, &line), Err("c1"));
        let slot = |index: u64| ObjId::from_bits(index << 32);
        assert_eq!(names.recreate(&mut heap, slot(0)), Ok(()));
        assert_eq!(names.recreate(&mut heap, slot(0)), Ok(()), "a live object is not reallocated");
        names.insert("c1", slot(0));
        assert_eq!(names.bind_known(&spec, &line), Err("i1"));
        assert_eq!(names.recreate(&mut heap, slot(7)), Err(slot(1)), "the heap diverged");
        assert_eq!(heap.live_count(), 2);
    }
}
