//! The one document sweep behind Algorithms 1 and 3 and acceptance.
//!
//! Theorem 5.1 of the paper states Algorithm 3 (counting) as Algorithm 1
//! (`Evaluate`) with a per-state count in place of each per-state list, and
//! deciding acceptance is the same walk with nothing attached to a state at
//! all. [`Sweep`] is that walk, written once and generic over two seams:
//!
//! * the [`Stepper`] seam picks the automaton backend (eager tables, the lazy
//!   determinization cache, or a frozen snapshot with its private delta);
//! * the [`Payload`] seam picks what each live state carries — the DAG arena's
//!   node lists for [`crate::Evaluator`], a [`crate::Counter`] for
//!   [`crate::CountCache`], and `()` for acceptance. The choice is by type,
//!   so every combination monomorphizes to its own loop with no runtime
//!   branch on the payload.
//!
//! The sweep alternates `Capturing(i)` (the extended variable transitions
//! taken right before letter `i`) and `Reading(i)` (the letter transition on
//! letter `i`) over a sparse active-state set, in one of three loops
//! ([`EngineMode`]): byte at a time, over bulk-classified class runs, or
//! jumping between interesting bytes with the skip scanner. The skipping
//! loops pass the class of letter `i` to `Capturing(i)`, which then drops
//! captures the next `Reading` would wipe ([`Stepper::capture_dies`]; eager
//! backend only, never at `|d|`). All three payloads therefore execute the
//! same positions, tick the same step fuel and make the same skip decisions.
//!
//! [`Shell`] is the per-worker state around a sweep: the engine mode, the
//! per-document limits, the cache-budget override, and the embedded lazy
//! cache and frozen-overflow delta the lazy and frozen backends step through.

use crate::byteclass::ClassRuns;
use crate::det::{SkipScanner, Stepper};
use crate::document::Document;
use crate::enumerate::{EngineMode, Stage, StageTrace};
use crate::error::SpannerError;
use crate::lazy::{FrozenCache, FrozenDelta, LazyCache, LazyDetSeva};
use crate::limits::{EvalLimits, LimitChecker};
use crate::markerset::MarkerSet;
use crate::sparse::SparseSet;

/// What a sweep carries per automaton state, and the paper's three list
/// operations on it.
pub(crate) trait Payload {
    /// The per-state value: a node list, a run count, or nothing.
    type Val: Clone;
    /// What a finished sweep returns.
    type Out;
    /// The value of a state no partial run reaches.
    fn empty() -> Self::Val;
    /// Resets per-document storage and returns the initial state's value.
    fn start(&mut self) -> Self::Val;
    /// `list.add`: extends `list` with the runs of `src` taking the capture
    /// `markers` right before letter `pos`. `fresh` means `list` was empty.
    fn add(
        &mut self,
        list: &mut Self::Val,
        fresh: bool,
        markers: MarkerSet,
        pos: usize,
        src: &Self::Val,
    ) -> Result<(), SpannerError>;
    /// `list.append`: extends `list` with the runs of `src`. `fresh` means
    /// `list` was empty before this `Reading` phase.
    fn append(
        &mut self,
        list: &mut Self::Val,
        fresh: bool,
        src: &Self::Val,
    ) -> Result<(), SpannerError>;
    /// Folds the values of the live final states, in active-set order.
    fn finish<'v>(
        &mut self,
        finals: impl Iterator<Item = (usize, &'v Self::Val)>,
    ) -> Result<Self::Out, SpannerError>
    where
        Self::Val: 'v;
    /// The number of cells of `list` a [`StageTrace`] reports.
    fn cells(&self, _list: &Self::Val) -> usize {
        1
    }
}

/// Acceptance: live states carry nothing, and the document is accepted when
/// a final state is live after the last `Capturing` phase.
impl Payload for () {
    type Val = ();
    type Out = bool;
    fn empty() {}
    fn start(&mut self) {}
    #[inline]
    fn add(
        &mut self,
        _: &mut (),
        _: bool,
        _: MarkerSet,
        _: usize,
        _: &(),
    ) -> Result<(), SpannerError> {
        Ok(())
    }
    #[inline]
    fn append(&mut self, _: &mut (), _: bool, _: &()) -> Result<(), SpannerError> {
        Ok(())
    }
    fn finish<'v>(
        &mut self,
        mut finals: impl Iterator<Item = (usize, &'v ())>,
    ) -> Result<bool, SpannerError> {
        Ok(finals.next().is_some())
    }
}

/// The payload-generic sweep state: per-state values, the sparse active
/// sets, and the scratch of the three loops. Every buffer keeps its capacity
/// across documents, so a warm sweep allocates nothing.
///
/// Invariant between phases: `active` holds exactly the states a partial run
/// reaches, and `vals[q]` is [`Payload::empty`] for every inactive `q`.
#[derive(Debug, Clone)]
pub(crate) struct Sweep<P: Payload> {
    pub(crate) payload: P,
    vals: Vec<P::Val>,
    /// Phase-start snapshots of `vals` for the active states.
    old: Vec<P::Val>,
    active: SparseSet,
    /// The active set under construction during a `Reading` phase.
    next_active: SparseSet,
    /// Byte → alphabet-class buffer of the class-run loop.
    class_buf: Vec<u8>,
    /// The cached masks of the skip-scanning loop.
    scanner: SkipScanner,
    /// Live state ids handed to [`Stepper::maintain`]…
    maint_ids: Vec<u32>,
    /// …and their values, saved across the id remap.
    maint_vals: Vec<P::Val>,
    checker: LimitChecker,
}

impl<P: Payload + Default> Default for Sweep<P> {
    fn default() -> Self {
        Sweep {
            payload: P::default(),
            vals: Vec::new(),
            old: Vec::new(),
            active: SparseSet::default(),
            next_active: SparseSet::default(),
            class_buf: Vec::new(),
            scanner: SkipScanner::default(),
            maint_ids: Vec::new(),
            maint_vals: Vec::new(),
            checker: LimitChecker::unlimited(),
        }
    }
}

impl<P: Payload> Sweep<P> {
    /// Capacity of the class-run loop's byte-class buffer.
    pub(crate) fn class_buf_capacity(&self) -> usize {
        self.class_buf.capacity()
    }

    /// Capacity of the per-state value vector.
    pub(crate) fn vals_capacity(&self) -> usize {
        self.vals.capacity()
    }

    /// Sweeps `doc` under the shell's mode and limits and folds the final
    /// states. Traced runs always walk byte by byte: a [`StageTrace`] records
    /// the live states after every phase. Fails only when a limit trips or
    /// the payload fails; the next run resets all state either way.
    pub(crate) fn run<S: Stepper>(
        &mut self,
        aut: &mut S,
        doc: &Document,
        shell: &Shell,
        trace: Option<&mut Vec<StageTrace>>,
    ) -> Result<P::Out, SpannerError> {
        self.checker = LimitChecker::start(&shell.limits);
        let n_states = aut.state_bound();
        // A lazy stepper may discover states past `n_states` mid-document;
        // `ensure_state` grows the per-state storage on demand.
        let start = self.payload.start();
        self.vals.clear();
        self.vals.resize(n_states, P::empty());
        self.old.clear();
        self.old.resize(n_states, P::empty());
        self.active.reset(n_states);
        self.next_active.reset(n_states);
        let init = aut.start_state();
        self.ensure_state(init);
        self.vals[init] = start;
        self.active.insert(init);

        match shell.mode {
            _ if trace.is_some() => self.per_byte(aut, doc, trace)?,
            EngineMode::PerByte => self.per_byte(aut, doc, None)?,
            EngineMode::ClassRuns => {
                let mut class_buf = std::mem::take(&mut self.class_buf);
                aut.classify_document(doc, &mut class_buf);
                let result = self.class_runs(aut, doc, &class_buf);
                self.class_buf = class_buf;
                result?
            }
            EngineMode::SkipScan => self.skip_scan(aut, doc)?,
        }

        let vals = &self.vals;
        let finals = self.active.iter().filter(|&q| aut.is_final(q)).map(|q| (q, &vals[q]));
        self.payload.finish(finals)
    }

    /// The byte-at-a-time loop: the reference engine and the backend of
    /// traced runs.
    fn per_byte<S: Stepper>(
        &mut self,
        aut: &mut S,
        doc: &Document,
        mut trace: Option<&mut Vec<StageTrace>>,
    ) -> Result<(), SpannerError> {
        let bytes = doc.bytes();
        for i in 0..=bytes.len() {
            self.checker.tick()?;
            self.maintenance_point(aut)?;
            self.capture(aut, i, None)?;
            self.record(trace.as_deref_mut(), Stage::Capturing, i);
            if i == bytes.len() {
                break;
            }
            let cls = aut.byte_class(bytes[i]);
            self.read(aut, cls)?;
            self.record(trace.as_deref_mut(), Stage::Reading, i);
        }
        Ok(())
    }

    /// The class-run loop: walk maximal runs of one alphabet class and
    /// consume the rest of a run in one step once every live state is
    /// [`Stepper::run_skippable`] on its class — the per-byte walk would
    /// leave every value, the active set and every reachable output
    /// unchanged over those positions. Other positions execute one at a
    /// time, re-testing after each (a capture can create or destroy
    /// skippability).
    fn class_runs<S: Stepper>(
        &mut self,
        aut: &mut S,
        doc: &Document,
        class_buf: &[u8],
    ) -> Result<(), SpannerError> {
        for run in ClassRuns::new(class_buf) {
            let cls = run.class as usize;
            let end = run.start + run.len;
            let mut i = run.start;
            while i < end {
                self.maintenance_point(aut)?;
                if self.active.as_slice().iter().all(|&q| aut.run_skippable(q as usize, cls)) {
                    // Skipped positions cost no step fuel; one clock check
                    // covers the consumed run.
                    self.checker.tick_jump()?;
                    break;
                }
                self.checker.tick()?;
                self.capture(aut, i, Some(cls))?;
                self.read(aut, cls)?;
                i += 1;
            }
        }
        self.maintenance_point(aut)?;
        self.capture(aut, doc.len(), None)
    }

    /// The skip-scanning loop ([`EngineMode::SkipScan`]): keep the active
    /// set's skippable classes as one intersected mask and jump straight to
    /// the next interesting byte. Skip decisions are the class-run loop's
    /// byte for byte (see `SkipScanner`), so lazily determinized automata
    /// intern subset states in the same order under both.
    fn skip_scan<S: Stepper>(&mut self, aut: &mut S, doc: &Document) -> Result<(), SpannerError> {
        let bytes = doc.bytes();
        self.scanner.reset();
        let mut i = 0usize;
        while i < bytes.len() {
            if aut.wants_maintenance() {
                // Eviction rewrites state ids and forgets memoized skip
                // entries: every cached view is stale.
                self.maintenance_point(aut)?;
                self.scanner.reset();
            }
            let cls = aut.byte_class(bytes[i]);
            if self.scanner.should_skip(aut, self.active.as_slice(), cls) {
                // Skipped stretches cost no step fuel; the scan that finds
                // the next interesting byte amortizes one clock check.
                self.checker.tick_jump()?;
                match self.scanner.next_interesting(aut.partition(), bytes, i + 1) {
                    Some(j) => i = j,
                    None => break,
                }
                continue;
            }
            self.checker.tick()?;
            self.capture(aut, i, Some(cls))?;
            self.read(aut, cls)?;
            self.scanner.executed();
            i += 1;
            if self.active.is_empty() {
                // No live runs, no future output: the rest of the document
                // is vacuously skippable.
                break;
            }
        }
        self.maintenance_point(aut)?;
        self.capture(aut, doc.len(), None)
    }

    /// Grows the per-state storage to cover state id `q`: a no-op for eager
    /// automata, whose state space is fixed, and an amortized bump when a
    /// lazy automaton interns fresh subsets.
    #[inline]
    fn ensure_state(&mut self, q: usize) {
        if q >= self.vals.len() {
            let n = q + 1;
            self.vals.resize(n, P::empty());
            self.old.resize(n, P::empty());
            self.active.grow(n);
            self.next_active.grow(n);
        }
    }

    /// Once-per-position cache-budget hook: when a lazy stepper is over
    /// budget, hand it the live state ids, let it clear-and-restart, and
    /// remap the per-state values onto the rewritten ids. Free for eager
    /// automata (`wants_maintenance` is a constant `false`). Each eviction
    /// feeds the thrash guard, whose verdict is returned only after the
    /// remap completes, so the invariants hold on the error path too.
    #[inline]
    fn maintenance_point<S: Stepper>(&mut self, aut: &mut S) -> Result<(), SpannerError> {
        if !aut.wants_maintenance() {
            return Ok(());
        }
        // Save the live values in active order and clear the old slots
        // before any new id is written (old and new id ranges overlap).
        let mut ids = std::mem::take(&mut self.maint_ids);
        let mut saved = std::mem::take(&mut self.maint_vals);
        ids.clear();
        ids.extend_from_slice(self.active.as_slice());
        saved.clear();
        for &q in &ids {
            saved.push(std::mem::replace(&mut self.vals[q as usize], P::empty()));
        }
        let mut verdict = Ok(());
        if aut.maintain(&mut ids) {
            verdict = self.checker.note_clear();
            self.active.clear();
            for &q in &ids {
                self.ensure_state(q as usize);
                self.active.insert(q as usize);
            }
        }
        // Without an eviction the ids are untouched: this restores the slots.
        for (&q, val) in ids.iter().zip(saved.drain(..)) {
            self.vals[q as usize] = val;
        }
        self.maint_ids = ids;
        self.maint_vals = saved;
        verdict
    }

    /// `Capturing(i)`: the extended variable transitions taken right before
    /// letter `i`, applied to the phase-start values of the live states (the
    /// paper's lazy copy of every list). With `next_cls`, the class of
    /// letter `i`, captures the next `Reading` phase would wipe are not made
    /// ([`Stepper::capture_dies`]).
    // Forced: with a plain hint the phases stay outlined from the three
    // loops, which measured ~10% slower counting on dense documents.
    #[inline(always)]
    fn capture<S: Stepper>(
        &mut self,
        aut: &mut S,
        i: usize,
        next_cls: Option<usize>,
    ) -> Result<(), SpannerError> {
        let live = self.active.len();
        for idx in 0..live {
            let q = self.active.get(idx);
            self.old[q] = self.vals[q].clone();
        }
        for idx in 0..live {
            let q = self.active.get(idx);
            if !aut.has_markers(q) {
                continue;
            }
            let src = self.old[q].clone();
            // Indexed, so `capture_dies` can read `aut` between transitions.
            let mut k = 0;
            while let Some(&(markers, p)) = aut.markers_from(q).get(k) {
                k += 1;
                if next_cls.is_some_and(|cls| aut.capture_dies(p, cls)) {
                    continue;
                }
                self.ensure_state(p);
                let fresh = self.active.insert(p);
                self.payload.add(&mut self.vals[p], fresh, markers, i, &src)?;
            }
        }
        Ok(())
    }

    /// `Reading(i)`: the letter transition on the byte whose alphabet class
    /// is `cls`.
    #[inline(always)]
    fn read<S: Stepper>(&mut self, aut: &mut S, cls: usize) -> Result<(), SpannerError> {
        let live = self.active.len();
        for idx in 0..live {
            let q = self.active.get(idx);
            self.old[q] = std::mem::replace(&mut self.vals[q], P::empty());
        }
        self.next_active.clear();
        for idx in 0..live {
            let q = self.active.get(idx);
            if let Some(p) = aut.step_class(q, cls) {
                self.ensure_state(p);
                let fresh = self.next_active.insert(p);
                self.payload.append(&mut self.vals[p], fresh, &self.old[q])?;
            }
        }
        std::mem::swap(&mut self.active, &mut self.next_active);
        Ok(())
    }

    /// Appends the live states, in state order, to a traced run's log.
    fn record(&self, trace: Option<&mut Vec<StageTrace>>, stage: Stage, pos: usize) {
        if let Some(trace) = trace {
            let mut nonempty: Vec<(usize, usize)> =
                self.active.iter().map(|q| (q, self.payload.cells(&self.vals[q]))).collect();
            nonempty.sort_unstable();
            trace.push(StageTrace { stage, pos, nonempty });
        }
    }
}

/// Whether `aut` accepts `doc` (`⟦A⟧(d)` is non-empty): a one-shot
/// acceptance sweep in the default [`EngineMode`], without limits.
pub(crate) fn accepts<S: Stepper>(aut: &mut S, doc: &Document) -> bool {
    infallible(Sweep::<()>::default().run(aut, doc, &Shell::default(), None))
}

/// Unwraps the result of an infallible entry point. With no [`EvalLimits`]
/// configured nothing can trip; with limits configured, callers must use
/// the fallible `try_*` entry points.
pub(crate) fn infallible<T>(result: Result<T, SpannerError>) -> T {
    result.unwrap_or_else(|e| {
        panic!("evaluation limit tripped on an infallible entry point (use try_*): {e}")
    })
}

/// The per-worker state around a sweep, shared by every engine that embeds
/// one: the engine mode, the per-document limits, the one-off cache-budget
/// override, and the lazy cache and frozen-overflow delta of the backends
/// the engine last stepped through.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shell {
    pub(crate) mode: EngineMode,
    pub(crate) limits: EvalLimits,
    /// Lazy-cache/delta byte budget for the next runs (degradation retries,
    /// fault injection); `None` uses the automaton's configured budget.
    pub(crate) budget_override: Option<usize>,
    /// The lazy cache of the automaton last stepped, tagged with its id so a
    /// different lazy automaton gets a fresh cache.
    lazy: Option<(u64, LazyCache)>,
    /// The overflow delta of the frozen snapshot last stepped, tagged with
    /// the snapshot's id (delta state ids are relative to one freeze).
    frozen: Option<(u64, FrozenDelta)>,
}

impl Shell {
    /// Runs `f` on the embedded cache for `aut`: the retained one when it
    /// belongs to `aut`, a fresh one otherwise, bound first with the
    /// effective byte budget so an earlier override never leaks into an
    /// un-overridden run. The cache stays embedded (warm) afterwards, even
    /// when `f` fails.
    pub(crate) fn with_lazy<R>(
        &mut self,
        aut: &LazyDetSeva,
        f: impl FnOnce(&Shell, &mut LazyCache) -> R,
    ) -> R {
        let mut cache = match self.lazy.take() {
            Some((id, cache)) if id == aut.id() => cache,
            _ => aut.create_cache(),
        };
        cache.bind(aut);
        cache.set_budget(self.budget_override.unwrap_or(aut.config().memory_budget));
        let result = f(self, &mut cache);
        self.lazy = Some((aut.id(), cache));
        result
    }

    /// Runs `f` on the embedded overflow delta for `frozen` (see
    /// [`Shell::with_lazy`]).
    pub(crate) fn with_frozen<R>(
        &mut self,
        aut: &LazyDetSeva,
        frozen: &FrozenCache,
        f: impl FnOnce(&Shell, &mut FrozenDelta) -> R,
    ) -> R {
        let mut delta = match self.frozen.take() {
            Some((id, delta)) if id == frozen.id() => delta,
            _ => FrozenDelta::new(),
        };
        delta.bind(frozen, aut);
        delta.set_budget(self.budget_override.unwrap_or(aut.config().memory_budget));
        let result = f(self, &mut delta);
        self.frozen = Some((frozen.id(), delta));
        result
    }

    pub(crate) fn lazy_cache(&self) -> Option<&LazyCache> {
        self.lazy.as_ref().map(|(_, c)| c)
    }

    pub(crate) fn frozen_delta(&self) -> Option<&FrozenDelta> {
        self.frozen.as_ref().map(|(_, d)| d)
    }

    /// Installs `cache`, rebound to `aut`, as the embedded lazy cache.
    pub(crate) fn install_lazy_cache(&mut self, aut: &LazyDetSeva, mut cache: LazyCache) {
        cache.bind(aut);
        self.lazy = Some((aut.id(), cache));
    }

    /// Bytes held by the embedded cache and delta.
    pub(crate) fn governed_bytes(&self) -> usize {
        self.lazy_cache().map_or(0, LazyCache::memory_bytes)
            + self.frozen_delta().map_or(0, FrozenDelta::memory_bytes)
    }

    /// Drops the embedded cache and sheds the delta; returns the bytes freed.
    pub(crate) fn shed_cold_memory(&mut self) -> usize {
        let mut freed = 0;
        if let Some((_, cache)) = self.lazy.take() {
            freed += cache.memory_bytes();
        }
        if let Some((_, delta)) = self.frozen.as_mut() {
            freed += delta.shed();
        }
        freed
    }
}
