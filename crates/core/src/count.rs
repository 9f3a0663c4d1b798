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
//! Counting runs the very sweep of the enumeration engine (`sweep.rs`) with
//! a [`Counter`] in place of each node list, so it has the same three loops,
//! the same backends and the same step fuel per position. It comes in two
//! forms: the reusable [`CountCache`] (zero steady-state allocation,
//! skip-mask scanning fast path — the serving configuration) and the
//! one-shot [`count_mappings`] convenience wrapper. Run skipping leaves
//! counts unchanged for the same reason it leaves the enumeration lists
//! unchanged: on a skippable class every live state's count moves onto
//! itself and every capture attempt is zeroed by the following `Reading`
//! phase before it can reach a final state. For the same reason the
//! skipping loops skip dead captures on the eager backend, as the
//! enumeration engine does.

use std::marker::PhantomData;

use crate::det::DetSeva;
use crate::document::Document;
use crate::enumerate::EngineMode;
use crate::error::SpannerError;
use crate::lazy::{FrozenCache, FrozenDelta, FrozenStepper, LazyCache, LazyDetSeva, LazyStepper};
use crate::limits::EvalLimits;
use crate::markerset::MarkerSet;
use crate::sweep::{Payload, Shell, Sweep};

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
/// [`crate::Evaluator`], running the same sweep with a count in place of
/// each node list.
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
    shell: Shell,
    sweep: Sweep<Counts<C>>,
}

impl<C: Counter> Default for CountCache<C> {
    fn default() -> Self {
        CountCache { shell: Shell::default(), sweep: Sweep::default() }
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
        let mut cache = CountCache::new();
        cache.set_mode(mode);
        cache
    }

    /// The engine mode this cache runs.
    pub fn mode(&self) -> EngineMode {
        self.shell.mode
    }

    /// Switches the engine mode for subsequent [`CountCache::count`] calls.
    pub fn set_mode(&mut self, mode: EngineMode) {
        self.shell.mode = mode;
    }

    /// The per-document resource limits applied by every count.
    pub fn limits(&self) -> EvalLimits {
        self.shell.limits
    }

    /// Sets per-document resource limits for subsequent counts. Counting
    /// entry points already return `Result`, so tripped limits surface as
    /// ordinary errors ([`SpannerError::StepBudgetExceeded`],
    /// [`SpannerError::DeadlineExceeded`], [`SpannerError::BudgetExceeded`]).
    pub fn set_limits(&mut self, limits: EvalLimits) {
        self.shell.limits = limits;
    }

    /// Overrides the lazy-cache/frozen-delta byte budget for subsequent
    /// counts (mirrors [`crate::Evaluator::set_cache_budget_override`]).
    pub fn set_cache_budget_override(&mut self, budget: Option<usize>) {
        self.shell.budget_override = budget;
    }

    /// The active lazy-cache/frozen-delta byte-budget override, if any.
    pub fn cache_budget_override(&self) -> Option<usize> {
        self.shell.budget_override
    }

    /// Current capacity of the per-state count vector (diagnostics: a warm
    /// cache keeps its capacity across documents instead of reallocating).
    pub fn counts_capacity(&self) -> usize {
        self.sweep.vals_capacity()
    }

    /// Current capacity of the byte-class buffer.
    pub fn class_buf_capacity(&self) -> usize {
        self.sweep.class_buf_capacity()
    }

    /// Counts `|⟦A⟧(d)|` (Algorithm 3 / Theorem 5.1), reusing all previously
    /// allocated capacity. Returns [`SpannerError::CountOverflow`] if the
    /// counter type overflows.
    pub fn count(&mut self, aut: &DetSeva, doc: &Document) -> Result<C, SpannerError> {
        self.sweep.run(&mut &*aut, doc, &self.shell, None)
    }

    /// Like [`CountCache::count`] but over a **lazily determinized**
    /// automaton, using (and retaining, warm) the cache embedded in this
    /// `CountCache` — the Algorithm 3 mirror of
    /// [`crate::Evaluator::eval_lazy`].
    pub fn count_lazy(&mut self, aut: &LazyDetSeva, doc: &Document) -> Result<C, SpannerError> {
        let sweep = &mut self.sweep;
        self.shell.with_lazy(aut, |shell, cache| {
            sweep.run(&mut LazyStepper::new(aut, cache), doc, shell, None)
        })
    }

    /// The embedded lazy determinization cache, if a lazy automaton has been
    /// counted (diagnostics; mirrors [`crate::Evaluator::lazy_cache`]).
    pub fn lazy_cache(&self) -> Option<&LazyCache> {
        self.shell.lazy_cache()
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
        let sweep = &mut self.sweep;
        self.shell.with_frozen(aut, frozen, |shell, delta| {
            sweep.run(&mut FrozenStepper::new(aut, frozen, delta), doc, shell, None)
        })
    }

    /// The embedded frozen-overflow delta, if a frozen snapshot has been
    /// counted (diagnostics; mirrors [`crate::Evaluator::frozen_delta`]).
    pub fn frozen_delta(&self) -> Option<&FrozenDelta> {
        self.shell.frozen_delta()
    }

    /// Bytes currently held by this cache's **governed** memory (mirrors
    /// [`crate::Evaluator::governed_bytes`]): the embedded lazy
    /// determinization cache plus the frozen-overflow delta.
    pub fn governed_bytes(&self) -> usize {
        self.shell.governed_bytes()
    }

    /// Sheds this cache's governed memory for the global governor (mirrors
    /// [`crate::Evaluator::shed_cold_memory`]); returns the bytes freed.
    pub fn shed_cold_memory(&mut self) -> usize {
        self.shell.shed_cold_memory()
    }
}

/// Algorithm 3's payload: each live state carries `N[q]`, the number of
/// partial runs ending in it; `add` and `append` are checked additions.
#[derive(Debug, Clone)]
struct Counts<C>(PhantomData<C>);

impl<C> Default for Counts<C> {
    fn default() -> Self {
        Counts(PhantomData)
    }
}

impl<C: Counter> Payload for Counts<C> {
    type Val = C;
    type Out = C;

    fn empty() -> C {
        C::zero()
    }

    fn start(&mut self) -> C {
        C::one()
    }

    #[inline]
    fn add(
        &mut self,
        n: &mut C,
        _: bool,
        _: MarkerSet,
        _: usize,
        src: &C,
    ) -> Result<(), SpannerError> {
        *n = n.checked_add(src).ok_or(SpannerError::CountOverflow)?;
        Ok(())
    }

    #[inline]
    fn append(&mut self, n: &mut C, _: bool, src: &C) -> Result<(), SpannerError> {
        *n = n.checked_add(src).ok_or(SpannerError::CountOverflow)?;
        Ok(())
    }

    fn finish<'v>(
        &mut self,
        mut finals: impl Iterator<Item = (usize, &'v C)>,
    ) -> Result<C, SpannerError>
    where
        C: 'v,
    {
        finals.try_fold(C::zero(), |total, (_, n)| {
            total.checked_add(n).ok_or(SpannerError::CountOverflow)
        })
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
