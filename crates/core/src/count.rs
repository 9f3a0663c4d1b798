//! Algorithm 3 of the paper: counting the number of output mappings.
//!
//! Theorem 5.1 states that for a deterministic sequential eVA `A` and a
//! document `d`, `|⟦A⟧(d)|` can be computed in time `O(|A| × |d|)`. The
//! algorithm mirrors Algorithm 1 but, instead of the per-state lists that
//! encode the mappings, it keeps a per-state *count* of partial runs: because
//! `A` is sequential every partial run encodes a valid partial mapping, and
//! because `A` is deterministic different runs encode different mappings, so
//! the run counts equal the mapping counts.
//!
//! Like the enumeration engine, counting comes in two forms: the reusable
//! [`CountCache`] (zero steady-state allocation, skip-mask scanning fast
//! path — the serving configuration) and the one-shot [`count_mappings`]
//! convenience wrapper. Run skipping leaves counts unchanged for the same reason it
//! leaves the enumeration lists unchanged: on a skippable class every live
//! state's count moves onto itself and every capture attempt is zeroed by the
//! following `Reading` phase before it can reach a final state.

use crate::byteclass::ClassRuns;
use crate::det::{DetSeva, SkipScanner, Stepper};
use crate::document::Document;
use crate::enumerate::EngineMode;
use crate::error::SpannerError;
use crate::lazy::{FrozenCache, FrozenDelta, FrozenStepper, LazyCache, LazyDetSeva, LazyStepper};
use crate::limits::{EvalLimits, LimitChecker};
use crate::sparse::SparseSet;

/// Numeric types usable as mapping counters.
///
/// The number of output mappings can be as large as `Θ(|d|^{2ℓ})` for a spanner
/// with `ℓ` variables, so callers choose the trade-off: exact checked `u64`,
/// exact wide `u128`, or approximate `f64` (never overflows, loses precision
/// beyond 2⁵³).
pub trait Counter: Clone {
    /// The additive identity.
    fn zero() -> Self;
    /// The count of a single run.
    fn one() -> Self;
    /// Checked addition; `None` signals overflow.
    fn checked_add(&self, other: &Self) -> Option<Self>;
    /// Whether the counter is zero.
    fn is_zero(&self) -> bool;
}

impl Counter for u64 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn checked_add(&self, other: &Self) -> Option<Self> {
        u64::checked_add(*self, *other)
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
}

impl Counter for u128 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn checked_add(&self, other: &Self) -> Option<Self> {
        u128::checked_add(*self, *other)
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
}

impl Counter for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn checked_add(&self, other: &Self) -> Option<Self> {
        Some(self + other)
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
}

/// Counts `|⟦A⟧(d)|` for a deterministic sequential eVA in `O(|A| × |d|)` time
/// and `O(|Q|)` space (Algorithm 3 / Theorem 5.1).
///
/// Returns [`SpannerError::CountOverflow`] if the chosen [`Counter`] overflows.
///
/// ```
/// # use spanners_core::{EvaBuilder, DetSeva, ByteClass, MarkerSet, VarRegistry, Document};
/// # use spanners_core::count_mappings;
/// // x captures every span of the document: Σ* x{Σ*} Σ*
/// let mut reg = VarRegistry::new();
/// let x = reg.intern("x").unwrap();
/// let mut b = EvaBuilder::new(reg);
/// let q0 = b.add_state();
/// let q1 = b.add_state();
/// let q2 = b.add_state();
/// b.set_initial(q0);
/// b.set_final(q2);
/// let any = ByteClass::any();
/// b.add_letter(q0, any, q0);
/// b.add_letter(q1, any, q1);
/// b.add_letter(q2, any, q2);
/// b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
/// b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
/// let aut = DetSeva::compile(&b.build().unwrap()).unwrap();
/// // spans [i, j⟩ with i < j (markers cannot be adjacent) … on "abcd" there are C(5,2) = 10.
/// let n: u64 = count_mappings(&aut, &Document::from("abcd")).unwrap();
/// assert_eq!(n, 10);
/// ```
pub fn count_mappings<C: Counter>(aut: &DetSeva, doc: &Document) -> Result<C, SpannerError> {
    CountCache::new().count(aut, doc)
}

/// The reusable engine behind Algorithm 3 — the counting mirror of
/// [`crate::Evaluator`].
///
/// A `CountCache` owns the per-state count vectors, the sparse active sets,
/// and the byte-class buffer of the class-run fast path, all retained across
/// [`CountCache::count`] calls: in steady state (same automaton, comparable
/// document sizes) counting performs **zero heap allocation**. The one-shot
/// [`count_mappings`] wrapper creates a fresh cache per call.
///
/// ```
/// # use spanners_core::{EvaBuilder, DetSeva, ByteClass, MarkerSet, VarRegistry, Document};
/// # use spanners_core::CountCache;
/// # let mut reg = VarRegistry::new();
/// # let x = reg.intern("x").unwrap();
/// # let mut b = EvaBuilder::new(reg);
/// # let q0 = b.add_state();
/// # let q1 = b.add_state();
/// # let q2 = b.add_state();
/// # b.set_initial(q0);
/// # b.set_final(q2);
/// # let any = ByteClass::any();
/// # b.add_letter(q0, any, q0);
/// # b.add_letter(q1, any, q1);
/// # b.add_letter(q2, any, q2);
/// # b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
/// # b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
/// # let aut = DetSeva::compile(&b.build().unwrap()).unwrap();
/// let mut cache = CountCache::<u64>::new();
/// for text in ["stream of", "many documents", "served by one cache"] {
///     let n = cache.count(&aut, &Document::from(text)).unwrap();
///     assert!(n > 0);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CountCache<C: Counter> {
    /// N[q] = number of partial runs currently ending in q. Dense storage, but
    /// both phases walk only the sparse set of states with a non-zero count —
    /// the same active-state organisation as the enumeration engine.
    counts: Vec<C>,
    /// Phase-start snapshots of `counts` for the active states.
    old: Vec<C>,
    /// States with a (possibly) non-zero count in the current phase.
    active: SparseSet,
    /// The active set under construction during a `Reading` phase.
    next_active: SparseSet,
    /// Reusable byte → alphabet-class buffer of the class-run fast path.
    class_buf: Vec<u8>,
    /// The cached mask state of the scanning engine (mirrors
    /// `Evaluator::scanner`; the protocol lives in `SkipScanner`).
    scanner: SkipScanner,
    /// Live-id scratch of the clear-and-restart eviction protocol (lazy
    /// automata only; see [`Stepper::maintain`]).
    maint_ids: Vec<u32>,
    /// The live states' counts, saved across an eviction's id remap.
    maint_counts: Vec<C>,
    /// The lazy determinization cache of the automaton last counted with
    /// [`CountCache::count_lazy`], tagged with the automaton's identity
    /// (mirrors [`crate::Evaluator`]'s embedded cache).
    lazy: Option<(u64, LazyCache)>,
    /// The per-worker overflow delta of the [`FrozenCache`] last counted
    /// with [`CountCache::count_frozen`], tagged with the snapshot's
    /// identity (mirrors [`crate::Evaluator`]'s embedded delta).
    frozen: Option<(u64, FrozenDelta)>,
    /// Which inner loop drives Algorithm 3.
    mode: EngineMode,
    /// Per-document resource limits applied by every count (default: none).
    limits: EvalLimits,
    /// The per-run limit enforcement state, restarted by every count.
    checker: LimitChecker,
    /// One-off lazy-cache/delta byte-budget override (mirrors
    /// [`crate::Evaluator::set_cache_budget_override`]).
    budget_override: Option<usize>,
}

impl<C: Counter> Default for CountCache<C> {
    fn default() -> Self {
        CountCache {
            counts: Vec::new(),
            old: Vec::new(),
            active: SparseSet::new(0),
            next_active: SparseSet::new(0),
            class_buf: Vec::new(),
            scanner: SkipScanner::default(),
            maint_ids: Vec::new(),
            maint_counts: Vec::new(),
            lazy: None,
            frozen: None,
            mode: EngineMode::default(),
            limits: EvalLimits::none(),
            checker: LimitChecker::unlimited(),
            budget_override: None,
        }
    }
}

impl<C: Counter> CountCache<C> {
    /// A fresh cache using the default [`EngineMode::SkipScan`] loop.
    /// Buffers grow on first use and are retained across calls.
    pub fn new() -> Self {
        CountCache::default()
    }

    /// A fresh cache driving Algorithm 3 with the given engine.
    pub fn with_mode(mode: EngineMode) -> Self {
        CountCache { mode, ..CountCache::default() }
    }

    /// The engine mode this cache runs.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Switches the engine mode for subsequent [`CountCache::count`] calls.
    pub fn set_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
    }

    /// The per-document resource limits applied by every count.
    pub fn limits(&self) -> EvalLimits {
        self.limits
    }

    /// Sets per-document resource limits for subsequent counts. Counting
    /// entry points already return `Result`, so tripped limits surface as
    /// ordinary errors ([`SpannerError::StepBudgetExceeded`],
    /// [`SpannerError::DeadlineExceeded`], [`SpannerError::BudgetExceeded`]).
    pub fn set_limits(&mut self, limits: EvalLimits) {
        self.limits = limits;
    }

    /// Overrides the lazy-cache/frozen-delta byte budget for subsequent
    /// counts (mirrors [`crate::Evaluator::set_cache_budget_override`]).
    pub fn set_cache_budget_override(&mut self, budget: Option<usize>) {
        self.budget_override = budget;
    }

    /// The active lazy-cache/frozen-delta byte-budget override, if any.
    pub fn cache_budget_override(&self) -> Option<usize> {
        self.budget_override
    }

    /// Current capacity of the per-state count vector (diagnostics: a warm
    /// cache keeps its capacity across documents instead of reallocating).
    pub fn counts_capacity(&self) -> usize {
        self.counts.capacity()
    }

    /// Current capacity of the byte-class buffer.
    pub fn class_buf_capacity(&self) -> usize {
        self.class_buf.capacity()
    }

    /// Counts `|⟦A⟧(d)|` (Algorithm 3 / Theorem 5.1), reusing all previously
    /// allocated capacity. Returns [`SpannerError::CountOverflow`] if the
    /// counter type overflows.
    pub fn count(&mut self, aut: &DetSeva, doc: &Document) -> Result<C, SpannerError> {
        let mut stepper: &DetSeva = aut;
        self.count_run(&mut stepper, doc)
    }

    /// Like [`CountCache::count`] but over a **lazily determinized**
    /// automaton, using (and retaining, warm) the cache embedded in this
    /// `CountCache` — the Algorithm 3 mirror of
    /// [`crate::Evaluator::eval_lazy`].
    pub fn count_lazy(&mut self, aut: &LazyDetSeva, doc: &Document) -> Result<C, SpannerError> {
        let mut cache = match self.lazy.take() {
            Some((id, cache)) if id == aut.id() => cache,
            _ => aut.create_cache(),
        };
        cache.bind(aut);
        cache.set_budget(self.budget_override.unwrap_or(aut.config().memory_budget));
        let mut stepper = LazyStepper::new(aut, &mut cache);
        let result = self.count_run(&mut stepper, doc);
        self.lazy = Some((aut.id(), cache));
        result
    }

    /// The embedded lazy determinization cache, if a lazy automaton has been
    /// counted (diagnostics; mirrors [`crate::Evaluator::lazy_cache`]).
    pub fn lazy_cache(&self) -> Option<&LazyCache> {
        self.lazy.as_ref().map(|(_, c)| c)
    }

    /// Like [`CountCache::count_lazy`] but stepping through a **shared
    /// frozen snapshot** with this cache's private, per-document
    /// [`FrozenDelta`] — the Algorithm 3 mirror of
    /// [`crate::Evaluator::eval_frozen`]. The count is a pure function of
    /// `(frozen, doc)`, identical across workers and thread counts.
    pub fn count_frozen(
        &mut self,
        aut: &LazyDetSeva,
        frozen: &FrozenCache,
        doc: &Document,
    ) -> Result<C, SpannerError> {
        let mut delta = self.take_frozen_delta(frozen);
        delta.bind(frozen, aut);
        delta.set_budget(self.budget_override.unwrap_or(aut.config().memory_budget));
        let result = {
            let mut stepper = FrozenStepper::new(aut, frozen, &mut delta);
            self.count_run(&mut stepper, doc)
        };
        self.frozen = Some((frozen.id(), delta));
        result
    }

    /// Takes the embedded delta out for a count against `frozen`, replacing
    /// it with a fresh one if it belonged to a different snapshot (mirrors
    /// `Evaluator::take_frozen_delta`).
    fn take_frozen_delta(&mut self, frozen: &FrozenCache) -> FrozenDelta {
        match self.frozen.take() {
            Some((id, delta)) if id == frozen.id() => delta,
            _ => FrozenDelta::new(),
        }
    }

    /// The embedded frozen-overflow delta, if a frozen snapshot has been
    /// counted (diagnostics; mirrors [`crate::Evaluator::frozen_delta`]).
    pub fn frozen_delta(&self) -> Option<&FrozenDelta> {
        self.frozen.as_ref().map(|(_, d)| d)
    }

    /// Bytes currently held by this cache's **governed** memory (mirrors
    /// [`crate::Evaluator::governed_bytes`]): the embedded lazy
    /// determinization cache plus the frozen-overflow delta.
    pub fn governed_bytes(&self) -> usize {
        let lazy = self.lazy.as_ref().map_or(0, |(_, c)| c.memory_bytes());
        let frozen = self.frozen.as_ref().map_or(0, |(_, d)| d.memory_bytes());
        lazy + frozen
    }

    /// Sheds this cache's governed memory for the global governor (mirrors
    /// [`crate::Evaluator::shed_cold_memory`]); returns the bytes freed.
    pub fn shed_cold_memory(&mut self) -> usize {
        let mut freed = 0;
        if let Some((_, cache)) = self.lazy.take() {
            freed += cache.memory_bytes();
        }
        if let Some((_, delta)) = self.frozen.as_mut() {
            freed += delta.shed();
        }
        freed
    }

    /// The Algorithm 3 loop, generic over the eager/lazy [`Stepper`] seam.
    fn count_run<S: Stepper>(&mut self, aut: &mut S, doc: &Document) -> Result<C, SpannerError> {
        self.checker = LimitChecker::start(&self.limits);
        let n_states = aut.state_bound();
        // Reset retained storage without releasing capacity; `ensure_state`
        // grows it when a lazy stepper discovers states mid-document.
        self.counts.clear();
        self.counts.resize(n_states, C::zero());
        self.old.clear();
        self.old.resize(n_states, C::zero());
        self.active.reset(n_states);
        self.next_active.reset(n_states);
        let init = aut.start_state();
        self.ensure_state(init);
        self.counts[init] = C::one();
        self.active.insert(init);

        // Invariant: `active` ⊇ the states with a non-zero count, and
        // counts[q] is zero for every state outside `active`.
        match self.mode {
            EngineMode::PerByte => {
                let bytes = doc.bytes();
                for i in 0..=bytes.len() {
                    self.checker.tick()?;
                    self.maintenance_point(aut)?;
                    self.capture_phase(aut)?;
                    if i == bytes.len() {
                        break;
                    }
                    let cls = aut.byte_class(bytes[i]);
                    self.read_phase(aut, cls)?;
                }
            }
            EngineMode::ClassRuns => {
                // Run-skipping loop: identical counts by the argument in the
                // module docs — a skippable class moves every live count onto
                // itself and zeroes every capture attempt at the next Reading.
                let mut class_buf = std::mem::take(&mut self.class_buf);
                aut.classify_document(doc, &mut class_buf);
                let result = self.count_class_runs(aut, &class_buf);
                self.class_buf = class_buf;
                result?;
            }
            EngineMode::SkipScan => {
                // Skip-mask scanning (the counting mirror of
                // `Evaluator::run_skip_scan`; the mask/interest caching and
                // invalidation protocol is shared via `SkipScanner`): jump
                // straight to the next interesting byte — same skip
                // decisions as the class-run loop, per-interesting-byte cost
                // model. Short skips under a fresh mask probe one chunk
                // against the mask; only longer ones rebuild the interest
                // table and bulk-scan.
                let bytes = doc.bytes();
                self.scanner.reset();
                let mut i = 0usize;
                while i < bytes.len() {
                    if aut.wants_maintenance() {
                        self.maintenance_point(aut)?;
                        self.scanner.reset();
                    }
                    let cls = aut.byte_class(bytes[i]);
                    if self.scanner.should_skip(aut, self.active.as_slice(), cls) {
                        self.checker.tick_jump()?;
                        match self.scanner.next_interesting(aut.partition(), bytes, i + 1) {
                            Some(j) => i = j,
                            None => break,
                        }
                        continue;
                    }
                    self.checker.tick()?;
                    self.capture_phase(aut)?;
                    self.read_phase(aut, cls)?;
                    self.scanner.executed();
                    i += 1;
                    if self.active.is_empty() {
                        break;
                    }
                }
                self.maintenance_point(aut)?;
                self.capture_phase(aut)?;
            }
        }

        let mut total = C::zero();
        for idx in 0..self.active.len() {
            let q = self.active.get(idx);
            if aut.is_final(q) {
                total = total.checked_add(&self.counts[q]).ok_or(SpannerError::CountOverflow)?;
            }
        }
        Ok(total)
    }

    /// The class-run counting loop, split out so `count_run` can restore the
    /// classification buffer even when a limit error aborts the document.
    fn count_class_runs<S: Stepper>(
        &mut self,
        aut: &mut S,
        class_buf: &[u8],
    ) -> Result<(), SpannerError> {
        for run in ClassRuns::new(class_buf) {
            let cls = run.class as usize;
            let end = run.start + run.len;
            let mut i = run.start;
            while i < end {
                self.maintenance_point(aut)?;
                if self.active.as_slice().iter().all(|&q| aut.run_skippable(q as usize, cls)) {
                    self.checker.tick_jump()?;
                    break;
                }
                self.checker.tick()?;
                self.capture_phase(aut)?;
                self.read_phase(aut, cls)?;
                i += 1;
            }
        }
        self.maintenance_point(aut)?;
        self.capture_phase(aut)?;
        Ok(())
    }

    /// Grows the per-state storage to cover state id `q` (no-op for eager
    /// automata; amortized bump when a lazy automaton interns fresh subsets).
    #[inline]
    fn ensure_state(&mut self, q: usize) {
        if q >= self.counts.len() {
            let n = q + 1;
            self.counts.resize(n, C::zero());
            self.old.resize(n, C::zero());
            self.active.grow(n);
            self.next_active.grow(n);
        }
    }

    /// Once-per-position cache-budget hook; the counting mirror of
    /// [`crate::Evaluator`]'s maintenance point (counts are saved across the
    /// eviction's id remap instead of lists).
    #[inline]
    fn maintenance_point<S: Stepper>(&mut self, aut: &mut S) -> Result<(), SpannerError> {
        if !aut.wants_maintenance() {
            return Ok(());
        }
        let mut ids = std::mem::take(&mut self.maint_ids);
        let mut saved = std::mem::take(&mut self.maint_counts);
        ids.clear();
        ids.extend_from_slice(self.active.as_slice());
        saved.clear();
        for &q in &ids {
            saved.push(self.counts[q as usize].clone());
            self.counts[q as usize] = C::zero();
        }
        // The remap completes even when the thrash guard trips, so the
        // engine stays internally consistent after an error return.
        let mut verdict = Ok(());
        if aut.maintain(&mut ids) {
            verdict = self.checker.note_clear();
            self.active.clear();
            for (k, &q) in ids.iter().enumerate() {
                let q = q as usize;
                self.ensure_state(q);
                self.active.insert(q);
                self.counts[q] = saved[k].clone();
            }
        } else {
            for (k, &q) in ids.iter().enumerate() {
                self.counts[q as usize] = saved[k].clone();
            }
        }
        self.maint_ids = ids;
        self.maint_counts = saved;
        verdict
    }

    /// `Capturing(i)`: extend runs with extended variable transitions.
    #[inline]
    fn capture_phase<S: Stepper>(&mut self, aut: &mut S) -> Result<(), SpannerError> {
        let live = self.active.len();
        for idx in 0..live {
            let q = self.active.get(idx);
            self.old[q] = self.counts[q].clone();
        }
        for idx in 0..live {
            let q = self.active.get(idx);
            if !aut.has_markers(q) {
                continue;
            }
            for &(_, p) in aut.markers_from(q) {
                self.ensure_state(p);
                self.active.insert(p);
                self.counts[p] =
                    self.counts[p].checked_add(&self.old[q]).ok_or(SpannerError::CountOverflow)?;
            }
        }
        Ok(())
    }

    /// `Reading(i)`: extend runs with the letter transition on class `cls`.
    #[inline]
    fn read_phase<S: Stepper>(&mut self, aut: &mut S, cls: usize) -> Result<(), SpannerError> {
        let live = self.active.len();
        for idx in 0..live {
            let q = self.active.get(idx);
            self.old[q] = self.counts[q].clone();
            self.counts[q] = C::zero();
        }
        self.next_active.clear();
        for idx in 0..live {
            let q = self.active.get(idx);
            if let Some(p) = aut.step_class(q, cls) {
                self.ensure_state(p);
                self.next_active.insert(p);
                self.counts[p] =
                    self.counts[p].checked_add(&self.old[q]).ok_or(SpannerError::CountOverflow)?;
            }
        }
        std::mem::swap(&mut self.active, &mut self.next_active);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::enumerate::EnumerationDag;
    use crate::eva::{Eva, EvaBuilder};
    use crate::markerset::MarkerSet;
    use crate::variable::VarRegistry;

    /// The Figure 3 automaton.
    fn figure3() -> Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let y = reg.intern("y").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q = b.add_states(10);
        b.set_initial(q[0]);
        b.set_final(q[9]);
        let ms = MarkerSet::new;
        b.add_var(q[0], ms().with_open(x), q[1]).unwrap();
        b.add_var(q[0], ms().with_open(y), q[2]).unwrap();
        b.add_var(q[0], ms().with_open(x).with_open(y), q[3]).unwrap();
        b.add_letter(q[3], ByteClass::from_bytes(b"ab"), q[3]);
        b.add_byte(q[1], b'a', q[4]);
        b.add_byte(q[2], b'a', q[5]);
        b.add_var(q[4], ms().with_open(y), q[6]).unwrap();
        b.add_var(q[5], ms().with_open(x), q[7]).unwrap();
        b.add_byte(q[6], b'b', q[8]);
        b.add_byte(q[7], b'b', q[8]);
        b.add_var(q[8], ms().with_close(x).with_close(y), q[9]).unwrap();
        b.add_var(q[3], ms().with_close(x).with_close(y), q[9]).unwrap();
        b.build().unwrap()
    }

    /// The "every span into x" spanner over the full byte alphabet.
    fn all_spans_spanner() -> Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        let any = ByteClass::any();
        b.add_letter(q0, any, q0);
        b.add_letter(q1, any, q1);
        b.add_letter(q2, any, q2);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
        // Also allow the empty capture {x⊢, ⊣x} in a single step.
        b.add_var(q0, MarkerSet::new().with_open(x).with_close(x), q2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure3_count_is_three() {
        let aut = DetSeva::compile(&figure3()).unwrap();
        let n: u64 = count_mappings(&aut, &Document::from("ab")).unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn count_matches_enumeration_and_naive() {
        let eva = figure3();
        let aut = DetSeva::compile(&eva).unwrap();
        for text in ["", "a", "ab", "ba", "abab", "aabb", "ababab", "bbbaaa"] {
            let doc = Document::from(text);
            let n: u64 = count_mappings(&aut, &doc).unwrap();
            let dag = EnumerationDag::build(&aut, &doc);
            assert_eq!(
                n as usize,
                dag.collect_mappings().len(),
                "enumeration mismatch on {text:?}"
            );
            assert_eq!(n as u128, dag.count_paths(), "path count mismatch on {text:?}");
            assert_eq!(n as usize, eva.eval_naive(&doc).len(), "naive mismatch on {text:?}");
        }
    }

    #[test]
    fn all_spans_count_formula() {
        // The all-spans spanner outputs every span [i, j⟩ of d, of which there
        // are (n+1)(n+2)/2 … minus nothing: empty spans are produced by the
        // single-step {x⊢,⊣x} transition, proper spans by the two-step route.
        let aut = DetSeva::compile(&all_spans_spanner()).unwrap();
        for n in [0usize, 1, 2, 3, 10, 50] {
            let doc = Document::new(vec![b'z'; n]);
            let count: u64 = count_mappings(&aut, &doc).unwrap();
            assert_eq!(count as usize, (n + 1) * (n + 2) / 2, "n = {n}");
        }
    }

    #[test]
    fn counts_agree_across_counter_types() {
        let aut = DetSeva::compile(&all_spans_spanner()).unwrap();
        let doc = Document::new(vec![b'q'; 100]);
        let a: u64 = count_mappings(&aut, &doc).unwrap();
        let b: u128 = count_mappings(&aut, &doc).unwrap();
        let c: f64 = count_mappings(&aut, &doc).unwrap();
        assert_eq!(a as u128, b);
        assert_eq!(a as f64, c);
    }

    #[test]
    fn zero_count_on_rejecting_document() {
        let aut = DetSeva::compile(&figure3()).unwrap();
        let n: u64 = count_mappings(&aut, &Document::from("zzz")).unwrap();
        assert_eq!(n, 0);
        let n: u64 = count_mappings(&aut, &Document::empty()).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn counting_scales_to_documents_where_enumeration_cannot() {
        // On a 20k-byte document the all-spans spanner has ~200M outputs —
        // far too many to materialize, but counting them is immediate.
        let aut = DetSeva::compile(&all_spans_spanner()).unwrap();
        let n = 20_000usize;
        let doc = Document::new(vec![b'x'; n]);
        let count: u64 = count_mappings(&aut, &doc).unwrap();
        assert_eq!(count as usize, (n + 1) * (n + 2) / 2);
    }

    #[test]
    fn overflow_is_reported() {
        // A spanner with 4 independent span variables over a long document
        // overflows u64? (n²/2)⁴ ≈ 10²⁹ for n = 10⁴ — too slow to build that
        // way; instead force overflow with a tiny counter type.
        #[derive(Clone)]
        struct Tiny(u8);
        impl Counter for Tiny {
            fn zero() -> Self {
                Tiny(0)
            }
            fn one() -> Self {
                Tiny(1)
            }
            fn checked_add(&self, other: &Self) -> Option<Self> {
                self.0.checked_add(other.0).map(Tiny)
            }
            fn is_zero(&self) -> bool {
                self.0 == 0
            }
        }
        let aut = DetSeva::compile(&all_spans_spanner()).unwrap();
        let doc = Document::new(vec![b'x'; 100]);
        let res: Result<Tiny, _> = count_mappings(&aut, &doc);
        assert!(matches!(res, Err(SpannerError::CountOverflow)));
        // f64 never overflows.
        let res: Result<f64, _> = count_mappings(&aut, &doc);
        assert!(res.is_ok());
    }
}
