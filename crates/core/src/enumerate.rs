//! Algorithm 1 (Evaluate) and Algorithm 2 (Enumerate) of the paper:
//! linear-time preprocessing followed by constant-delay enumeration.
//!
//! `Evaluate` processes the document once, alternating a `Capturing(i)` phase
//! (simulating the extended variable transitions taken immediately before the
//! `i`-th letter) and a `Reading(i)` phase (simulating the letter transition on
//! the `i`-th letter). While doing so it incrementally builds the *reverse dual
//! DAG* whose nodes are annotated marker sets `(S, i)` and whose sink `⊥`
//! plays the role of the initial product state. The per-state `list_q`
//! structures are singly linked lists supporting the three O(1) operations the
//! paper requires — `add` (prepend), `lazycopy` (copy of the `(start, end)`
//! pair) and `append` (splice another list after the end element).
//!
//! Both phases are driven by a **sparse active-state set** ([`SparseSet`]):
//! only states whose list is non-empty are visited, so the cost per document
//! position is proportional to the number of *live* states (plus the work of
//! their transitions), not to the total number of automaton states. This is
//! the same organisation production regex engines use for NFA simulation and
//! is what makes the `O(|A| × |d|)` preprocessing bound tight in practice.
//!
//! On top of the sparse loop sit two **run-skipping fast paths**. The default
//! is **skip-mask scanning** ([`EngineMode::SkipScan`]): every automaton
//! state carries a bitset of the alphabet classes on which a `(Capturing;
//! Reading)` step is provably a no-op for it ([`DetSeva::skip_mask`]), the
//! active set's bitsets are intersected into one [`ClassMask`] (recomputed
//! only when the active set changes), and the loop jumps from one
//! *interesting* byte to the next with a chunked, memchr-style scanner
//! ([`find_next_interesting`]) — skippable stretches cost a vectorisable LUT
//! scan no matter how many class runs they span. The older **class-run**
//! path ([`EngineMode::ClassRuns`]) bulk-classifies the document
//! ([`crate::byteclass::AlphabetPartition::classify_into`]), walks maximal
//! same-class runs and consumes any run on whose class every live state is
//! [`DetSeva::run_skippable`] in `O(live states)`; it remains as the
//! fallback and differential baseline. Long stretches of "noise" between
//! matches (the common case in Example 2.1-style extraction) then cost
//! almost nothing; the byte-at-a-time loop remains available as
//! [`EngineMode::PerByte`] and for traced runs.
//!
//! On the eager backend the skipping loops also drop *dead captures* into a
//! state with no letter transition on the next byte ([`Stepper::capture_dies`]),
//! whose lists the next `Reading` phase would wipe. Each node is its own list
//! cell, so the DAG lives in one arena.
//!
//! The evaluation state (node arena, list vectors, active sets) lives in
//! a reusable [`Evaluator`], so a long-running service evaluating one compiled
//! spanner over millions of documents performs **no allocation after
//! warm-up** — each [`Evaluator::eval`] call recycles the previous document's
//! capacity. [`EnumerationDag::build`] remains as the one-shot convenience
//! wrapper producing an owned DAG.
//!
//! `Enumerate` then traverses the DAG depth-first from the lists of the final
//! states; every time it reaches `⊥` the markers collected along the path form
//! exactly one output mapping. The delay between two consecutive outputs is
//! bounded by a function of the number of variables only — it does not depend
//! on the document.

use crate::byteclass::ClassRuns;
use crate::det::{DetSeva, SkipScanner, Stepper};
use crate::document::Document;
use crate::error::SpannerError;
use crate::lazy::{FrozenCache, FrozenDelta, FrozenStepper, LazyCache, LazyDetSeva, LazyStepper};
use crate::limits::{EvalLimits, LimitChecker};
use crate::mapping::Mapping;
use crate::markerset::MarkerSet;
use crate::span::Span;
use crate::sparse::SparseSet;
use crate::variable::{VarRegistry, MAX_VARIABLES};

/// Index of a node (and of its list cell) in the DAG arena. Node 0 is the sink `⊥`.
type NodeId = u32;

const BOTTOM: NodeId = 0;
/// The null id: the `next` of a list's last cell and the head of an empty list.
const NIL: NodeId = u32::MAX;

/// Converts the arena length into the id of the node about to be pushed. The
/// check is on in release builds: a wrapped id would alias [`NIL`] (end of
/// list) or an existing node and silently corrupt the DAG.
#[inline]
fn next_arena_id(len: usize) -> NodeId {
    assert!(len < NIL as usize, "DAG node arena overflow: {len} nodes exceed the u32 id space");
    len as NodeId
}

/// A singly linked list of DAG nodes, represented as the `(start, end)` pair of
/// pointers described in the paper. Cheap to copy (`lazycopy` is a bitwise copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ListRef {
    head: NodeId,
    tail: NodeId,
}

impl ListRef {
    const EMPTY: ListRef = ListRef { head: NIL, tail: NIL };

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// A DAG node `((S, i), list)`: an annotated marker set plus the list of nodes
/// it points to (the last variable transitions of the runs it extends). A node
/// enters one list when created, so it is also that list's cell: `next` is
/// written at most once (by `append`), as in the paper.
#[derive(Debug, Clone, Copy)]
struct Node {
    markers: MarkerSet,
    pos: u32,
    list: ListRef,
    next: NodeId,
}

/// The arena-backed DAG produced by Algorithm 1: nodes (each also a list
/// cell) and the root lists of the final states. Shared by the owned
/// [`EnumerationDag`] and the borrowed [`DagView`] an [`Evaluator`] hands out.
#[derive(Debug, Clone, Default)]
struct DagStore {
    nodes: Vec<Node>,
    /// Lists of the final states after the last `Capturing` phase
    /// (the entry points of Algorithm 2), in increasing state order.
    roots: Vec<ListRef>,
}

impl DagStore {
    fn iter(&self) -> MappingIter<'_> {
        MappingIter {
            store: self,
            next_root: 0,
            stack: Vec::with_capacity(2 * MAX_VARIABLES + 2),
            path: Vec::with_capacity(2 * MAX_VARIABLES + 2),
        }
    }

    fn count_paths(&self) -> u128 {
        // Memoized number of paths from each node to ⊥.
        let mut memo: Vec<Option<u128>> = vec![None; self.nodes.len()];
        memo[BOTTOM as usize] = Some(1);
        let mut total = 0u128;
        for root in &self.roots {
            total += self.count_list(*root, &mut memo);
        }
        total
    }

    fn count_list(&self, list: ListRef, memo: &mut Vec<Option<u128>>) -> u128 {
        let mut sum = 0u128;
        for node in self.list_cells(list) {
            sum += self.count_node(node, memo);
        }
        sum
    }

    fn count_node(&self, node: NodeId, memo: &mut Vec<Option<u128>>) -> u128 {
        if let Some(v) = memo[node as usize] {
            return v;
        }
        let list = self.nodes[node as usize].list;
        let v = self.count_list(list, memo);
        memo[node as usize] = Some(v);
        v
    }

    /// Iterates over the cell ids of a list, honouring the `(start, end)` bounds
    /// (cells appended after `end` by later `append` operations are not visible).
    fn list_cells(&self, list: ListRef) -> ListCellIter<'_> {
        ListCellIter { store: self, cur: list.head, tail: list.tail }
    }
}

/// Which inner loop an [`Evaluator`] (or a `CountCache`) drives Algorithm 1 /
/// Algorithm 3 with.
///
/// All modes produce **identical outputs**: the same mappings, the same
/// counts, the same root lists (and, for a fixed automaton state space, the
/// same enumeration order — see `tests/skip_scan.rs` for the one caveat
/// around mid-document eviction of lazily determinized automata). The
/// run-skipping modes may allocate *fewer* DAG nodes, because the per-byte
/// walk also materializes capture attempts that the very next `Reading`
/// phase provably kills (they are unreachable from every root); the
/// skipping loops elide those positions wholesale and, on the eager backend
/// only, each capture into a state with no letter transition on the next
/// byte ([`Stepper::capture_dies`]; never in the final `Capturing(|d|)`).
/// Diagnostic arena sizes (`num_nodes`, `num_cells`) are therefore
/// comparable only within one mode and backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Skip-mask scanning — the default. The active set's skippable classes
    /// are maintained as one intersected [`crate::ClassMask`] (one AND per
    /// surviving state, recomputed only when the active set changes), and
    /// the loop jumps straight to the next *interesting* byte — no
    /// `ClassRuns` materialization, no per-run predicate test. A skip first
    /// probes up to 16 bytes against the mask; a longer stretch expands the
    /// mask into a byte-level [`crate::InterestMask`] and finishes with the
    /// chunked [`crate::find_next_interesting`] scanner.
    /// Skip decisions are byte-for-byte the class-run engine's (the mask
    /// under-approximates with exactly the memoized skip entries), so
    /// outputs are identical; only the scanning cost model changes from
    /// "per run" to "per interesting byte".
    #[default]
    SkipScan,
    /// Iterate the document as run-length-encoded alphabet-class runs
    /// (vectorised bulk classification + `O(live states)` consumption of
    /// runs on which every live state is [`DetSeva::run_skippable`]).
    /// Retained as the first fallback and as the differential baseline for
    /// [`EngineMode::SkipScan`].
    ClassRuns,
    /// The classic byte-at-a-time sparse loop. Used automatically for traced
    /// runs (a [`StageTrace`] needs per-position granularity) and kept
    /// selectable so differential tests can pin the engines against each
    /// other byte for byte.
    PerByte,
}

/// The reusable evaluation engine behind Algorithm 1.
///
/// An `Evaluator` owns every piece of mutable state the `Evaluate` loop needs:
/// the DAG node arena, the per-state list vectors, and the sparse
/// active-state sets. Calling [`Evaluator::eval`] runs Algorithm 1 and returns
/// a [`DagView`] borrowing the arenas; the next `eval` call reuses all of the
/// retained capacity, so in steady state (same automaton, comparable document
/// sizes) evaluation performs **zero heap allocation**:
///
/// ```
/// # use spanners_core::{EvaBuilder, DetSeva, ByteClass, MarkerSet, VarRegistry, Document};
/// # use spanners_core::Evaluator;
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
/// let mut evaluator = Evaluator::new();
/// for text in ["stream of", "many documents", "served by one cache"] {
///     let doc = Document::from(text);
///     let dag = evaluator.eval(&aut, &doc);
///     let _n = dag.iter().count(); // constant-delay enumeration
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Evaluator {
    store: DagStore,
    /// `list_q` for every state (dense, indexed by state id).
    lists: Vec<ListRef>,
    /// Phase-start snapshots of `lists` for the active states.
    old: Vec<ListRef>,
    /// States with a non-empty list in the current phase.
    active: SparseSet,
    /// The active set under construction during a `Reading` phase.
    next_active: SparseSet,
    /// Scratch for collecting `(final state, list)` pairs before sorting.
    root_scratch: Vec<(u32, ListRef)>,
    /// Reusable per-document byte → alphabet-class buffer (the vectorised
    /// classification pass of the class-run engine). Retained across `eval`
    /// calls like the arenas, so steady-state allocation stays zero.
    class_buf: Vec<u8>,
    /// The cached mask state of the scanning engine (see
    /// [`EngineMode::SkipScan`] and `SkipScanner`): the active set's
    /// intersected skippable-class mask, the live snapshot it was built for,
    /// and the derived byte-interest table. Retained like the arenas.
    scanner: SkipScanner,
    /// Scratch for the clear-and-restart eviction protocol of a lazy
    /// automaton: the live state ids handed to [`Stepper::maintain`]…
    maint_ids: Vec<u32>,
    /// …and the live states' lists, saved across the id remap.
    maint_lists: Vec<ListRef>,
    /// The lazy determinization cache of the automaton last evaluated with
    /// [`Evaluator::eval_lazy`], tagged with the automaton's identity so a
    /// different lazy automaton gets a fresh cache. Kept inside the evaluator
    /// because the cache is exactly the same kind of per-worker mutable,
    /// warm-capacity state as the DAG arenas.
    lazy: Option<(u64, LazyCache)>,
    /// The per-worker overflow delta of the [`FrozenCache`] last evaluated
    /// with [`Evaluator::eval_frozen`], tagged with the *snapshot's* identity
    /// (delta state ids are relative to one specific freeze).
    frozen: Option<(u64, FrozenDelta)>,
    /// Which inner loop drives Algorithm 1.
    mode: EngineMode,
    /// Per-document resource limits applied by every run (default: none).
    limits: EvalLimits,
    /// The per-run limit enforcement state, restarted by every run.
    checker: LimitChecker,
    /// One-off lazy-cache/delta byte-budget override for the next runs
    /// (graceful-degradation retries, fault injection); `None` uses the
    /// automaton's configured budget.
    budget_override: Option<usize>,
}

impl Evaluator {
    /// A fresh evaluator with empty arenas, using the default
    /// [`EngineMode::SkipScan`] loop. Arenas grow on first use and are
    /// retained across [`Evaluator::eval`] calls.
    pub fn new() -> Evaluator {
        Evaluator::default()
    }

    /// A fresh evaluator driving Algorithm 1 with the given engine.
    pub fn with_mode(mode: EngineMode) -> Evaluator {
        Evaluator { mode, ..Evaluator::default() }
    }

    /// The engine mode this evaluator runs.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Switches the engine mode for subsequent [`Evaluator::eval`] calls.
    pub fn set_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
    }

    /// The per-document resource limits applied by every run.
    pub fn limits(&self) -> EvalLimits {
        self.limits
    }

    /// Sets per-document resource limits for subsequent runs. With limits
    /// configured, use the fallible entry points ([`Evaluator::try_eval`],
    /// [`Evaluator::try_eval_lazy`], [`Evaluator::try_eval_frozen`]); the
    /// infallible ones panic if a limit trips.
    pub fn set_limits(&mut self, limits: EvalLimits) {
        self.limits = limits;
    }

    /// Overrides the lazy-cache/frozen-delta byte budget for subsequent runs
    /// (`None` restores the automaton's configured budget). This is the
    /// degradation-ladder hook: a document that thrashed the cache can be
    /// retried once under an enlarged budget without recompiling anything.
    pub fn set_cache_budget_override(&mut self, budget: Option<usize>) {
        self.budget_override = budget;
    }

    /// The active lazy-cache/frozen-delta byte-budget override, if any.
    pub fn cache_budget_override(&self) -> Option<usize> {
        self.budget_override
    }

    /// Runs Algorithm 1 (`Evaluate`) over the document and returns a view of
    /// the resulting DAG, reusing all previously allocated arena capacity.
    ///
    /// Preprocessing time is `O(|A| × |d|)` in the worst case, and
    /// `O(live states × |d|)` in the common case where only a few automaton
    /// states carry runs at any position.
    pub fn eval<'a>(&'a mut self, aut: &'a DetSeva, doc: &Document) -> DagView<'a> {
        let mut stepper: &DetSeva = aut;
        self.run(&mut stepper, doc, None);
        DagView { store: &self.store, registry: aut.registry(), doc_len: doc.len() }
    }

    /// [`Evaluator::eval`] under the configured [`EvalLimits`]: a tripped
    /// step budget or deadline surfaces as an `Err` instead of a panic, and
    /// the evaluator stays reusable (the next run resets all state).
    pub fn try_eval<'a>(
        &'a mut self,
        aut: &'a DetSeva,
        doc: &Document,
    ) -> Result<DagView<'a>, SpannerError> {
        let mut stepper: &DetSeva = aut;
        self.try_run(&mut stepper, doc, None)?;
        Ok(DagView { store: &self.store, registry: aut.registry(), doc_len: doc.len() })
    }

    /// Whether the eager automaton accepts `doc`, under the configured
    /// [`EvalLimits`] — the fallible counterpart of [`DetSeva::accepts`],
    /// placed on the evaluator so limits live in one place for all engines.
    pub fn try_accepts(&mut self, aut: &DetSeva, doc: &Document) -> Result<bool, SpannerError> {
        let mut stepper: &DetSeva = aut;
        crate::det::try_accepts_generic(&mut stepper, doc, &self.limits)
    }

    /// Like [`Evaluator::eval`] but moves the finished DAG out as an owned
    /// [`EnumerationDag`], surrendering the arena capacity (the evaluator's
    /// arenas start empty again). Use when the DAG must outlive the evaluator.
    pub fn eval_owned(&mut self, aut: &DetSeva, doc: &Document) -> EnumerationDag {
        let mut stepper: &DetSeva = aut;
        self.run(&mut stepper, doc, None);
        EnumerationDag {
            store: std::mem::take(&mut self.store),
            registry: aut.registry().clone(),
            doc_len: doc.len(),
        }
    }

    /// Runs Algorithm 1 over a **lazily determinized** automaton: subset
    /// states and transition rows are discovered on demand inside the
    /// evaluator's embedded [`LazyCache`] (created on first use, retained —
    /// warm — across documents, and replaced when a different lazy automaton
    /// is evaluated). Behaviour is otherwise identical to [`Evaluator::eval`]:
    /// same engine modes, same zero-steady-state-allocation contract once
    /// both the arenas and the cache are warm.
    pub fn eval_lazy<'a>(&'a mut self, aut: &'a LazyDetSeva, doc: &Document) -> DagView<'a> {
        let mut cache = self.prepare_lazy_cache(aut);
        let mut stepper = LazyStepper::new(aut, &mut cache);
        self.run(&mut stepper, doc, None);
        self.lazy = Some((aut.id(), cache));
        DagView { store: &self.store, registry: aut.registry(), doc_len: doc.len() }
    }

    /// [`Evaluator::eval_lazy`] under the configured [`EvalLimits`] (see
    /// [`Evaluator::try_eval`]). The embedded cache survives a tripped limit
    /// — already-interned subset states stay warm for the retry.
    pub fn try_eval_lazy<'a>(
        &'a mut self,
        aut: &'a LazyDetSeva,
        doc: &Document,
    ) -> Result<DagView<'a>, SpannerError> {
        let mut cache = self.prepare_lazy_cache(aut);
        let mut stepper = LazyStepper::new(aut, &mut cache);
        let run = self.try_run(&mut stepper, doc, None);
        self.lazy = Some((aut.id(), cache));
        run?;
        Ok(DagView { store: &self.store, registry: aut.registry(), doc_len: doc.len() })
    }

    /// Like [`Evaluator::eval_lazy`] but moving the finished DAG out as an
    /// owned [`EnumerationDag`] (see [`Evaluator::eval_owned`]).
    pub fn eval_lazy_owned(&mut self, aut: &LazyDetSeva, doc: &Document) -> EnumerationDag {
        let mut cache = self.prepare_lazy_cache(aut);
        let mut stepper = LazyStepper::new(aut, &mut cache);
        self.run(&mut stepper, doc, None);
        self.lazy = Some((aut.id(), cache));
        EnumerationDag {
            store: std::mem::take(&mut self.store),
            registry: aut.registry().clone(),
            doc_len: doc.len(),
        }
    }

    /// Whether the lazily determinized automaton accepts `doc`, using (and
    /// warming) the evaluator's embedded [`LazyCache`] — the hot-path match
    /// check: unlike a one-shot `accepts` with a fresh cache, repeated calls
    /// reuse all previously discovered subset states and transition rows.
    pub fn accepts_lazy(&mut self, aut: &LazyDetSeva, doc: &Document) -> bool {
        let mut cache = self.prepare_lazy_cache(aut);
        let accepted = aut.accepts(&mut cache, doc);
        self.lazy = Some((aut.id(), cache));
        accepted
    }

    /// [`Evaluator::accepts_lazy`] under the configured [`EvalLimits`]: the
    /// match check honours step budgets and deadlines like a full run.
    pub fn try_accepts_lazy(
        &mut self,
        aut: &LazyDetSeva,
        doc: &Document,
    ) -> Result<bool, SpannerError> {
        let mut cache = self.prepare_lazy_cache(aut);
        let accepted = {
            let mut stepper = LazyStepper::new(aut, &mut cache);
            crate::det::try_accepts_generic(&mut stepper, doc, &self.limits)
        };
        self.lazy = Some((aut.id(), cache));
        accepted
    }

    /// The embedded lazy determinization cache, if a lazy automaton has been
    /// evaluated (diagnostics: subset-state count, eviction count, capacity
    /// signature for allocation-retention assertions).
    pub fn lazy_cache(&self) -> Option<&LazyCache> {
        self.lazy.as_ref().map(|(_, c)| c)
    }

    /// Installs `cache` as the embedded lazy cache for `aut`, replacing
    /// whatever was there. Subsequent [`Evaluator::eval_lazy`] calls extend
    /// it in place — the warm-up hook of the generational re-freeze path,
    /// which thaws a frozen snapshot (delta evidence merged), replays sample
    /// documents through it here, and freezes the result as the next
    /// generation. A cache bound to a different automaton is reset by the
    /// rebind, exactly as [`LazyCache::bind`] documents.
    pub fn install_lazy_cache(&mut self, aut: &LazyDetSeva, mut cache: LazyCache) {
        cache.bind(aut);
        self.lazy = Some((aut.id(), cache));
    }

    /// Runs Algorithm 1 against a **shared frozen snapshot** of a lazy
    /// determinization cache (see [`LazyCache::freeze`]): every subset state
    /// and row the snapshot holds is a flat shared-table read, and anything
    /// discovered beyond it lives in this evaluator's private, per-document
    /// [`FrozenDelta`] — the parallel-serving counterpart of
    /// [`Evaluator::eval_lazy`]. Because the delta resets (capacity retained)
    /// at the start of every call, the result — mappings, counts **and
    /// enumeration order** — is a pure function of `(frozen, doc)`, identical
    /// across workers and thread counts.
    pub fn eval_frozen<'a>(
        &'a mut self,
        aut: &'a LazyDetSeva,
        frozen: &FrozenCache,
        doc: &Document,
    ) -> DagView<'a> {
        let mut delta = self.prepare_frozen_delta(aut, frozen);
        let mut stepper = FrozenStepper::new(aut, frozen, &mut delta);
        self.run(&mut stepper, doc, None);
        self.frozen = Some((frozen.id(), delta));
        DagView { store: &self.store, registry: aut.registry(), doc_len: doc.len() }
    }

    /// [`Evaluator::eval_frozen`] under the configured [`EvalLimits`] (see
    /// [`Evaluator::try_eval`]). The per-worker delta survives a tripped
    /// limit; the next frozen run resets it per the determinism contract.
    pub fn try_eval_frozen<'a>(
        &'a mut self,
        aut: &'a LazyDetSeva,
        frozen: &FrozenCache,
        doc: &Document,
    ) -> Result<DagView<'a>, SpannerError> {
        let mut delta = self.prepare_frozen_delta(aut, frozen);
        let mut stepper = FrozenStepper::new(aut, frozen, &mut delta);
        let run = self.try_run(&mut stepper, doc, None);
        self.frozen = Some((frozen.id(), delta));
        run?;
        Ok(DagView { store: &self.store, registry: aut.registry(), doc_len: doc.len() })
    }

    /// Whether the automaton accepts `doc`, stepping through the shared
    /// frozen snapshot with this evaluator's private delta — the frozen
    /// counterpart of [`Evaluator::accepts_lazy`].
    pub fn accepts_frozen(
        &mut self,
        aut: &LazyDetSeva,
        frozen: &FrozenCache,
        doc: &Document,
    ) -> bool {
        let mut delta = self.prepare_frozen_delta(aut, frozen);
        let accepted = {
            let mut stepper = FrozenStepper::new(aut, frozen, &mut delta);
            crate::det::accepts_generic(&mut stepper, doc)
        };
        self.frozen = Some((frozen.id(), delta));
        accepted
    }

    /// [`Evaluator::accepts_frozen`] under the configured [`EvalLimits`].
    pub fn try_accepts_frozen(
        &mut self,
        aut: &LazyDetSeva,
        frozen: &FrozenCache,
        doc: &Document,
    ) -> Result<bool, SpannerError> {
        let mut delta = self.prepare_frozen_delta(aut, frozen);
        let accepted = {
            let mut stepper = FrozenStepper::new(aut, frozen, &mut delta);
            crate::det::try_accepts_generic(&mut stepper, doc, &self.limits)
        };
        self.frozen = Some((frozen.id(), delta));
        accepted
    }

    /// The embedded frozen-overflow delta, if a frozen snapshot has been
    /// evaluated (diagnostics: overflow-state count, eviction count, capacity
    /// signature).
    pub fn frozen_delta(&self) -> Option<&FrozenDelta> {
        self.frozen.as_ref().map(|(_, d)| d)
    }

    /// Bytes currently held by this evaluator's **governed** memory: the
    /// embedded lazy determinization cache plus the frozen-overflow delta —
    /// the caches a global [`crate::MemoryGovernor`] ledgers and can shed.
    /// (The enumeration node store is per-document working memory, not
    /// governed.)
    pub fn governed_bytes(&self) -> usize {
        let lazy = self.lazy.as_ref().map_or(0, |(_, c)| c.memory_bytes());
        let frozen = self.frozen.as_ref().map_or(0, |(_, d)| d.memory_bytes());
        lazy + frozen
    }

    /// Sheds this evaluator's governed memory for the global governor
    /// (severity 1 of the shedding ladder): drops the embedded lazy cache
    /// outright and [`FrozenDelta::shed`]s the frozen-overflow delta.
    /// Returns the bytes freed. The evaluator stays fully usable — the next
    /// lazy run rebuilds its cache from scratch, the next frozen run
    /// re-interns overflow states on demand, and results are unchanged
    /// (byte-identical) because both caches are pure memoization.
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

    /// Takes the embedded cache out for an evaluation of `aut`, replacing it
    /// with a fresh one if it belonged to a different lazy automaton.
    fn take_lazy_cache(&mut self, aut: &LazyDetSeva) -> LazyCache {
        match self.lazy.take() {
            Some((id, cache)) if id == aut.id() => cache,
            _ => aut.create_cache(),
        }
    }

    /// Takes the embedded delta out for an evaluation against `frozen`,
    /// replacing it with a fresh one if it belonged to a different snapshot.
    fn take_frozen_delta(&mut self, frozen: &FrozenCache) -> FrozenDelta {
        match self.frozen.take() {
            Some((id, delta)) if id == frozen.id() => delta,
            _ => FrozenDelta::new(),
        }
    }

    /// Takes the embedded cache out, bound to `aut` with the effective byte
    /// budget (the automaton's configured budget, or the evaluator's one-off
    /// override). Binding first makes the budget deterministic per run: a
    /// previous run's override never leaks into an un-overridden run.
    fn prepare_lazy_cache(&mut self, aut: &LazyDetSeva) -> LazyCache {
        let mut cache = self.take_lazy_cache(aut);
        cache.bind(aut);
        cache.set_budget(self.budget_override.unwrap_or(aut.config().memory_budget));
        cache
    }

    /// Takes the embedded delta out, bound to `frozen` with the effective
    /// byte budget (see [`Evaluator::prepare_lazy_cache`]).
    fn prepare_frozen_delta(&mut self, aut: &LazyDetSeva, frozen: &FrozenCache) -> FrozenDelta {
        let mut delta = self.take_frozen_delta(frozen);
        delta.bind(frozen, aut);
        delta.set_budget(self.budget_override.unwrap_or(aut.config().memory_budget));
        delta
    }

    /// Current capacity of the node arena (diagnostics: a warmed-up evaluator
    /// keeps its capacity across documents instead of reallocating).
    pub fn node_capacity(&self) -> usize {
        self.store.nodes.capacity()
    }

    /// Current capacity of the cell arena: the node arena (a node is its own cell).
    pub fn cell_capacity(&self) -> usize {
        self.store.nodes.capacity()
    }

    /// Current capacity of the byte-class buffer (diagnostics: like the
    /// arenas, it is retained across documents in steady state).
    pub fn class_buf_capacity(&self) -> usize {
        self.class_buf.capacity()
    }

    /// Infallible shim over [`Evaluator::try_run`] for the legacy entry
    /// points: with no [`EvalLimits`] configured (the default) nothing can
    /// trip; with limits configured, a tripped limit panics here — callers
    /// that set limits must use the `try_*` entry points.
    fn run<S: Stepper>(
        &mut self,
        aut: &mut S,
        doc: &Document,
        trace: Option<&mut Vec<StageTrace>>,
    ) {
        if let Err(e) = self.try_run(aut, doc, trace) {
            panic!("evaluation limit tripped on an infallible entry point (use try_eval*): {e}");
        }
    }

    /// The core of Algorithm 1, shared by every public entry point and
    /// generic over the eager/lazy [`Stepper`] seam.
    ///
    /// Traced runs always use the per-byte loop: a [`StageTrace`] records the
    /// list state after *every* `Capturing`/`Reading` phase, which requires
    /// per-position granularity the run-skipping loop deliberately elides.
    ///
    /// Fails only when a configured [`EvalLimits`] trips; on failure the
    /// partially built DAG is abandoned (the next run resets all state, so
    /// the evaluator remains reusable).
    fn try_run<S: Stepper>(
        &mut self,
        aut: &mut S,
        doc: &Document,
        trace: Option<&mut Vec<StageTrace>>,
    ) -> Result<(), SpannerError> {
        self.checker = LimitChecker::start(&self.limits);
        let n_states = aut.state_bound();
        // Reset retained storage without releasing capacity. A lazy stepper
        // may discover states past `n_states` mid-document; `ensure_state`
        // grows the per-state storage on demand.
        self.store.nodes.clear();
        self.store.roots.clear();
        self.lists.clear();
        self.lists.resize(n_states, ListRef::EMPTY);
        self.old.clear();
        self.old.resize(n_states, ListRef::EMPTY);
        self.active.reset(n_states);
        self.next_active.reset(n_states);

        // Node 0 is the sink ⊥; only its cell (`next`) is ever read.
        let sink = Node { markers: MarkerSet::new(), pos: 0, list: ListRef::EMPTY, next: NIL };
        self.store.nodes.push(sink);
        // list_q for every state q: initially empty except list_{q0} = [⊥].
        let init = aut.start_state();
        self.ensure_state(init);
        self.lists[init] = ListRef { head: BOTTOM, tail: BOTTOM };
        self.active.insert(init);

        if self.mode == EngineMode::PerByte || trace.is_some() {
            self.run_per_byte(aut, doc, trace)?;
        } else if self.mode == EngineMode::ClassRuns {
            self.run_class_runs(aut, doc)?;
        } else {
            self.run_skip_scan(aut, doc)?;
        }

        // Roots: the (non-empty) lists of the final states, in state order so
        // enumeration order is independent of active-set insertion order.
        self.root_scratch.clear();
        for idx in 0..self.active.len() {
            let q = self.active.get(idx);
            if aut.is_final(q) {
                self.root_scratch.push((q as u32, self.lists[q]));
            }
        }
        self.root_scratch.sort_unstable_by_key(|&(q, _)| q);
        self.store.roots.extend(self.root_scratch.iter().map(|&(_, l)| l));
        Ok(())
    }

    /// The classic byte-at-a-time sparse loop (kept verbatim as the reference
    /// engine and as the per-position backend of traced runs).
    ///
    /// Loop invariant: `active` holds exactly the states whose list is
    /// non-empty, and `lists[q]` is EMPTY for every inactive q.
    fn run_per_byte<S: Stepper>(
        &mut self,
        aut: &mut S,
        doc: &Document,
        mut trace: Option<&mut Vec<StageTrace>>,
    ) -> Result<(), SpannerError> {
        let bytes = doc.bytes();
        for i in 0..=bytes.len() {
            self.checker.tick()?;
            self.maintenance_point(aut)?;
            self.capture_phase(aut, i, None);
            if let Some(t) = trace.as_deref_mut() {
                t.push(StageTrace::capture(i, &self.store, &self.lists));
            }
            if i == bytes.len() {
                break;
            }
            let cls = aut.byte_class(bytes[i]);
            self.read_phase(aut, cls);
            if let Some(t) = trace.as_deref_mut() {
                t.push(StageTrace::read(i, &self.store, &self.lists));
            }
        }
        Ok(())
    }

    /// The run-skipping loop: classify the whole document into alphabet
    /// classes in one vectorised pass, then walk maximal class runs. Whenever
    /// every live state is [`DetSeva::run_skippable`] on the run's class, the
    /// remainder of the run is consumed in one step — the per-byte walk would
    /// leave every list, the active set, and all reachable DAG structure
    /// bitwise unchanged over those positions (see `run_skippable` for the
    /// proof obligations), so nothing needs to be executed. Positions that
    /// fail the test fall back to the per-byte phases, one byte at a time,
    /// re-testing after each byte (capture transitions mid-run can both
    /// create and destroy skippability).
    fn run_class_runs<S: Stepper>(
        &mut self,
        aut: &mut S,
        doc: &Document,
    ) -> Result<(), SpannerError> {
        let mut class_buf = std::mem::take(&mut self.class_buf);
        aut.classify_document(doc, &mut class_buf);
        let result = self.run_class_runs_inner(aut, doc, &class_buf);
        self.class_buf = class_buf;
        result
    }

    /// Body of [`Evaluator::run_class_runs`], split out so the class buffer
    /// is restored on the error path too.
    fn run_class_runs_inner<S: Stepper>(
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
                    // The rest of the run is a no-op for every live state
                    // (vacuously so once the active set is empty). Skipped
                    // positions cost no step fuel; one clock check covers
                    // the whole consumed run.
                    self.checker.tick_jump()?;
                    break;
                }
                self.checker.tick()?;
                self.capture_phase(aut, i, Some(cls));
                self.read_phase(aut, cls);
                i += 1;
            }
        }
        self.maintenance_point(aut)?;
        self.capture_phase(aut, doc.len(), None);
        Ok(())
    }

    /// The skip-mask scanning loop ([`EngineMode::SkipScan`]): instead of
    /// materializing class runs and testing each one, maintain the active
    /// set's skippable classes as one intersected [`ClassMask`] and jump
    /// straight to the next *interesting* byte.
    ///
    /// Per executed position this costs what the class-run loop costs (one
    /// predicate test per live state, then the `Capturing`/`Reading`
    /// phases); per *skippable* stretch it costs a chunked LUT scan —
    /// `find_next_interesting` — regardless of how many class runs the
    /// stretch spans. The mask is rebuilt only when the active set changes.
    /// The byte-level interest table is rebuilt only when a skip under a new
    /// mask outlasts a one-chunk probe, so the short skips between churning
    /// active sets of dense regions test the mask directly instead
    /// ([`SkipScanner::next_interesting`]).
    ///
    /// Skip decisions are identical to the class-run engine's: a byte is
    /// skipped either because its class is in the mask — which, by the
    /// [`Stepper::skip_mask`] contract, means every live state has a
    /// *memoized* skippable entry for it — or because the same
    /// all-live-states [`Stepper::run_skippable`] test the class-run loop
    /// performs just succeeded. Lazily determinized automata therefore
    /// intern subset states in exactly the same order under both engines.
    fn run_skip_scan<S: Stepper>(
        &mut self,
        aut: &mut S,
        doc: &Document,
    ) -> Result<(), SpannerError> {
        let bytes = doc.bytes();
        self.scanner.reset();
        let mut i = 0usize;
        while i < bytes.len() {
            if aut.wants_maintenance() {
                // Eviction rewrites state ids and forgets memoized skip
                // entries: every cached view is stale. (The re-interned live
                // states are the same subsets under new ids, so a stale mask
                // would still under-approximate — but dropping it keeps the
                // reasoning local.)
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
            self.capture_phase(aut, i, Some(cls));
            self.read_phase(aut, cls);
            self.scanner.executed();
            i += 1;
            if self.active.is_empty() {
                // No live runs, no future output: the rest of the document
                // is vacuously skippable.
                break;
            }
        }
        self.maintenance_point(aut)?;
        self.capture_phase(aut, doc.len(), None);
        Ok(())
    }

    /// Grows the per-state storage (lists, snapshots, active sets) to cover
    /// state id `q` — a no-op for eager automata, whose state space is fixed,
    /// and an amortized bump when a lazy automaton interns fresh subsets.
    #[inline]
    fn ensure_state(&mut self, q: usize) {
        if q >= self.lists.len() {
            let n = q + 1;
            self.lists.resize(n, ListRef::EMPTY);
            self.old.resize(n, ListRef::EMPTY);
            self.active.grow(n);
            self.next_active.grow(n);
        }
    }

    /// Once-per-position cache-budget hook: when a lazy stepper reports it is
    /// over budget, hand it the live state ids, let it clear-and-restart, and
    /// remap the evaluator's per-state structures onto the rewritten ids.
    /// Free for eager automata (`wants_maintenance` is a constant `false`).
    /// Each performed eviction feeds the thrash guard, whose verdict is
    /// returned only after the remap completes — the evaluator's invariants
    /// hold even on the error path.
    #[inline]
    fn maintenance_point<S: Stepper>(&mut self, aut: &mut S) -> Result<(), SpannerError> {
        if !aut.wants_maintenance() {
            return Ok(());
        }
        // Save the live lists in active order and clear the old slots before
        // any new id is written (old and new id ranges overlap).
        let mut ids = std::mem::take(&mut self.maint_ids);
        let mut saved = std::mem::take(&mut self.maint_lists);
        ids.clear();
        ids.extend_from_slice(self.active.as_slice());
        saved.clear();
        for &q in &ids {
            saved.push(self.lists[q as usize]);
            self.lists[q as usize] = ListRef::EMPTY;
        }
        let mut verdict = Ok(());
        if aut.maintain(&mut ids) {
            verdict = self.checker.note_clear();
            self.active.clear();
            for (k, &q) in ids.iter().enumerate() {
                let q = q as usize;
                self.ensure_state(q);
                self.active.insert(q);
                self.lists[q] = saved[k];
            }
        } else {
            // No eviction after all: restore the slots untouched.
            for (k, &q) in ids.iter().enumerate() {
                self.lists[q as usize] = saved[k];
            }
        }
        self.maint_ids = ids;
        self.maint_lists = saved;
        verdict
    }

    /// `Capturing(i)`: the extended variable transitions taken immediately
    /// before letter `i`. Lazycopies the lists of the phase-start active
    /// states (the paper's lazy copy of every list; inactive lists are EMPTY).
    /// With `next_cls`, the class of letter `i`, captures the next `Reading`
    /// phase would wipe are not made ([`Stepper::capture_dies`]).
    #[inline]
    fn capture_phase<S: Stepper>(&mut self, aut: &mut S, i: usize, next_cls: Option<usize>) {
        let live = self.active.len();
        for idx in 0..live {
            let q = self.active.get(idx);
            self.old[q] = self.lists[q];
        }
        for idx in 0..live {
            let q = self.active.get(idx);
            if !aut.has_markers(q) {
                continue;
            }
            let src = self.old[q];
            // Indexed, so `capture_dies` can read `aut` between transitions.
            let mut k = 0;
            while let Some(&(markers, p)) = aut.markers_from(q).get(k) {
                k += 1;
                if next_cls.is_some_and(|cls| aut.capture_dies(p, cls)) {
                    continue;
                }
                self.ensure_state(p);
                let id = next_arena_id(self.store.nodes.len());
                // list_p.add(node): the node is the fresh cell, prepended.
                let next = if self.active.insert(p) {
                    // p had an empty list: start it.
                    self.lists[p] = ListRef { head: id, tail: id };
                    NIL
                } else {
                    std::mem::replace(&mut self.lists[p].head, id)
                };
                self.store.nodes.push(Node { markers, pos: i as u32, list: src, next });
            }
        }
    }

    /// `Reading(i)`: the letter transition on the byte whose alphabet class
    /// is `cls`.
    #[inline]
    fn read_phase<S: Stepper>(&mut self, aut: &mut S, cls: usize) {
        let live = self.active.len();
        for idx in 0..live {
            let q = self.active.get(idx);
            self.old[q] = self.lists[q];
            self.lists[q] = ListRef::EMPTY;
        }
        self.next_active.clear();
        for idx in 0..live {
            let q = self.active.get(idx);
            if let Some(p) = aut.step_class(q, cls) {
                self.ensure_state(p);
                let src = self.old[q];
                // list_p.append(list_old_q)
                if self.next_active.insert(p) {
                    self.lists[p] = src;
                } else {
                    let cur = &mut self.lists[p];
                    let tail = &mut self.store.nodes[cur.tail as usize].next;
                    debug_assert_eq!(*tail, NIL, "append target must end in null");
                    *tail = src.head;
                    cur.tail = src.tail;
                }
            }
        }
        std::mem::swap(&mut self.active, &mut self.next_active);
    }
}

/// A borrowed view of the DAG held inside an [`Evaluator`] — the zero-copy
/// result of [`Evaluator::eval`]. Supports the same read operations as
/// [`EnumerationDag`] (enumerate, count, materialize) without owning the
/// arenas, so the evaluator can recycle them for the next document as soon as
/// the view is dropped.
#[derive(Debug, Clone, Copy)]
pub struct DagView<'a> {
    store: &'a DagStore,
    registry: &'a VarRegistry,
    doc_len: usize,
}

impl<'a> DagView<'a> {
    /// The variable registry of the automaton that produced this DAG.
    pub fn registry(&self) -> &'a VarRegistry {
        self.registry
    }

    /// Length of the document this DAG was built over.
    pub fn document_len(&self) -> usize {
        self.doc_len
    }

    /// Number of DAG nodes created (including the sink `⊥`).
    pub fn num_nodes(&self) -> usize {
        self.store.nodes.len()
    }

    /// Number of list cells created: `num_nodes`, as a node is its own cell.
    pub fn num_cells(&self) -> usize {
        self.store.nodes.len()
    }

    /// Number of root lists (non-empty final-state lists).
    pub fn num_roots(&self) -> usize {
        self.store.roots.len()
    }

    /// Whether the spanner produced no output on this document.
    pub fn is_empty(&self) -> bool {
        self.store.roots.is_empty()
    }

    /// Algorithm 2 as a pull-based iterator with constant delay per item.
    pub fn iter(&self) -> MappingIter<'a> {
        self.store.iter()
    }

    /// Materializes all output mappings (in enumeration order).
    pub fn collect_mappings(&self) -> Vec<Mapping> {
        self.iter().collect()
    }

    /// Counts mappings by counting root-to-`⊥` paths (see
    /// [`EnumerationDag::count_paths`]).
    pub fn count_paths(&self) -> u128 {
        self.store.count_paths()
    }
}

/// The output of Algorithm 1: a compact DAG representation of all output
/// mappings of a deterministic sequential eVA over a document.
///
/// Build it with [`EnumerationDag::build`] (one-shot) or keep a reusable
/// [`Evaluator`] when evaluating many documents; enumerate with
/// [`EnumerationDag::iter`] (constant delay per item), count paths with
/// [`EnumerationDag::count_paths`], or materialize with
/// [`EnumerationDag::collect_mappings`].
#[derive(Debug, Clone)]
pub struct EnumerationDag {
    store: DagStore,
    registry: VarRegistry,
    doc_len: usize,
}

impl EnumerationDag {
    /// Runs Algorithm 1 (`Evaluate`) over the document, producing the DAG.
    ///
    /// This is a thin convenience wrapper creating a fresh [`Evaluator`] per
    /// call; preprocessing time is `O(|A| × |d|)`. Hot paths evaluating many
    /// documents should hold on to one [`Evaluator`] instead, which amortizes
    /// every allocation across documents.
    pub fn build(aut: &DetSeva, doc: &Document) -> EnumerationDag {
        Evaluator::new().eval_owned(aut, doc)
    }

    /// Like [`EnumerationDag::build`] but records, after every `Capturing`/
    /// `Reading` phase, which state lists are non-empty and how many cells each
    /// holds. Used by tests that replay the trace of Figure 5 and by the
    /// benchmark harness to report DAG growth; slower than `build`.
    pub fn build_with_trace(aut: &DetSeva, doc: &Document) -> (EnumerationDag, Vec<StageTrace>) {
        let mut traces = Vec::new();
        let mut evaluator = Evaluator::new();
        let mut stepper: &DetSeva = aut;
        evaluator.run(&mut stepper, doc, Some(&mut traces));
        let dag = EnumerationDag {
            store: std::mem::take(&mut evaluator.store),
            registry: aut.registry().clone(),
            doc_len: doc.len(),
        };
        (dag, traces)
    }

    /// The variable registry of the automaton that produced this DAG.
    pub fn registry(&self) -> &VarRegistry {
        &self.registry
    }

    /// Length of the document this DAG was built over.
    pub fn document_len(&self) -> usize {
        self.doc_len
    }

    /// Number of DAG nodes created (including the sink `⊥`).
    pub fn num_nodes(&self) -> usize {
        self.store.nodes.len()
    }

    /// Number of list cells created: `num_nodes`, as a node is its own cell.
    pub fn num_cells(&self) -> usize {
        self.store.nodes.len()
    }

    /// Number of root lists (non-empty final-state lists).
    pub fn num_roots(&self) -> usize {
        self.store.roots.len()
    }

    /// Whether the spanner produced no output on this document.
    pub fn is_empty(&self) -> bool {
        self.store.roots.is_empty()
    }

    /// Algorithm 2 as a pull-based iterator with constant delay per item.
    pub fn iter(&self) -> MappingIter<'_> {
        self.store.iter()
    }

    /// Materializes all output mappings (in enumeration order).
    pub fn collect_mappings(&self) -> Vec<Mapping> {
        self.iter().collect()
    }

    /// Runs Algorithm 2 with a callback instead of an iterator; stops early if
    /// the callback returns `false`. Returns the number of mappings visited.
    pub fn for_each_mapping<F: FnMut(Mapping) -> bool>(&self, mut f: F) -> usize {
        let mut n = 0;
        for m in self.iter() {
            n += 1;
            if !f(m) {
                break;
            }
        }
        n
    }

    /// Counts the number of output mappings by counting paths from the roots to
    /// `⊥` in the DAG. Because the source automaton is deterministic, paths are
    /// in bijection with output mappings.
    ///
    /// This is an alternative to Algorithm 3 (see [`crate::count`]) that reuses
    /// an already-built DAG; it runs in time linear in the DAG size.
    pub fn count_paths(&self) -> u128 {
        self.store.count_paths()
    }
}

struct ListCellIter<'a> {
    store: &'a DagStore,
    cur: NodeId,
    tail: NodeId,
}

impl Iterator for ListCellIter<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = Some(self.cur).filter(|&c| c != NIL)?;
        self.cur = if cur == self.tail { NIL } else { self.store.nodes[cur as usize].next };
        Some(cur)
    }
}

/// Snapshot of the per-state lists after one phase of Algorithm 1
/// (used to reproduce the trace of Figure 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTrace {
    /// Which phase produced this snapshot.
    pub stage: Stage,
    /// 0-based position of the phase (the paper uses 1-based positions).
    pub pos: usize,
    /// `(state, number of list cells)` for every state with a non-empty list.
    pub nonempty: Vec<(usize, usize)>,
}

/// The two phases of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The `Capturing(i)` phase (variable transitions before letter `i`).
    Capturing,
    /// The `Reading(i)` phase (the letter transition on letter `i`).
    Reading,
}

impl StageTrace {
    fn capture(pos: usize, store: &DagStore, lists: &[ListRef]) -> StageTrace {
        StageTrace { stage: Stage::Capturing, pos, nonempty: Self::snapshot(store, lists) }
    }
    fn read(pos: usize, store: &DagStore, lists: &[ListRef]) -> StageTrace {
        StageTrace { stage: Stage::Reading, pos, nonempty: Self::snapshot(store, lists) }
    }
    /// Counts each list's cells by walking it (traced runs only).
    fn snapshot(store: &DagStore, lists: &[ListRef]) -> Vec<(usize, usize)> {
        lists
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(q, l)| (q, store.list_cells(*l).count()))
            .collect()
    }
}

/// A frame of the depth-first traversal of Algorithm 2.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Next cell to visit in the current list ([`NIL`] = list exhausted).
    cursor: NodeId,
    /// Last cell belonging to the current list.
    tail: NodeId,
    /// Whether entering this frame pushed an entry onto the marker path.
    pushed: bool,
}

/// Iterator over the output mappings encoded by an [`EnumerationDag`] or a
/// [`DagView`] (Algorithm 2 of the paper).
///
/// Each call to [`next`](Iterator::next) performs a bounded amount of work that
/// depends only on the number of variables of the spanner, never on the
/// document length — this is the constant-delay guarantee.
#[derive(Debug, Clone)]
pub struct MappingIter<'a> {
    store: &'a DagStore,
    next_root: usize,
    stack: Vec<Frame>,
    /// Markers collected along the current DFS path, from the last variable
    /// transition of the run (largest position) down towards `⊥`.
    path: Vec<(MarkerSet, u32)>,
}

impl MappingIter<'_> {
    fn push_list(&mut self, list: ListRef, pushed: bool) {
        debug_assert!(!list.is_empty());
        self.stack.push(Frame { cursor: list.head, tail: list.tail, pushed });
    }

    /// Builds the mapping for the markers currently on `path`.
    ///
    /// The path stores marker sets in decreasing position order, so the close
    /// position of every variable is seen before its open position.
    fn build_mapping(&self) -> Mapping {
        let mut end_pos = [0u32; MAX_VARIABLES];
        let mut mapping = Mapping::new();
        for &(markers, pos) in &self.path {
            for v in markers.closed_vars().iter() {
                end_pos[v.index()] = pos;
            }
            for v in markers.opened_vars().iter() {
                mapping.insert(v, Span::new_unchecked(pos as usize, end_pos[v.index()] as usize));
            }
        }
        mapping
    }
}

impl Iterator for MappingIter<'_> {
    type Item = Mapping;

    fn next(&mut self) -> Option<Mapping> {
        loop {
            // Refill from the next root list when the stack is exhausted.
            if self.stack.is_empty() {
                if self.next_root >= self.store.roots.len() {
                    return None;
                }
                let root = self.store.roots[self.next_root];
                self.next_root += 1;
                self.push_list(root, false);
                continue;
            }
            let top = self.stack.last_mut().expect("stack is non-empty");
            let id = top.cursor;
            if id == NIL {
                // Current list exhausted: backtrack.
                let frame = self.stack.pop().expect("stack is non-empty");
                if frame.pushed {
                    self.path.pop();
                }
                continue;
            }
            // Advance the cursor within the current list: one load reads the
            // cell and its node.
            let node = self.store.nodes[id as usize];
            top.cursor = if id == top.tail { NIL } else { node.next };

            if id == BOTTOM {
                // A complete path: emit one mapping.
                return Some(self.build_mapping());
            }
            self.path.push((node.markers, node.pos));
            self.push_list(node.list, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::eva::{Eva, EvaBuilder};
    use crate::mapping::dedup_mappings;
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

    fn det(eva: &Eva) -> DetSeva {
        DetSeva::compile(eva).unwrap()
    }

    fn enumerate_sorted(aut: &DetSeva, doc: &Document) -> Vec<Mapping> {
        let dag = EnumerationDag::build(aut, doc);
        let mut out = dag.collect_mappings();
        dedup_mappings(&mut out);
        out
    }

    #[test]
    fn figure3_matches_paper_output() {
        let eva = figure3();
        let aut = det(&eva);
        let doc = Document::from("ab");
        let out = enumerate_sorted(&aut, &doc);
        assert_eq!(out, eva.eval_naive(&doc));
        assert_eq!(out.len(), 3);
        // Spot-check µ3(x) = µ3(y) = [1,3⟩.
        let x = eva.registry().get("x").unwrap();
        let y = eva.registry().get("y").unwrap();
        let mu3 = Mapping::from_pairs([
            (x, Span::from_paper(1, 3).unwrap()),
            (y, Span::from_paper(1, 3).unwrap()),
        ]);
        assert!(out.contains(&mu3));
    }

    #[test]
    fn no_duplicates_are_enumerated() {
        let eva = figure3();
        let aut = det(&eva);
        for text in ["ab", "abab", "aabb", "aaabbb", "ababab"] {
            let doc = Document::from(text);
            let dag = EnumerationDag::build(&aut, &doc);
            let all = dag.collect_mappings();
            let mut deduped = all.clone();
            dedup_mappings(&mut deduped);
            assert_eq!(all.len(), deduped.len(), "duplicates on {text:?}");
        }
    }

    #[test]
    fn agreement_with_naive_on_many_documents() {
        let eva = figure3();
        let aut = det(&eva);
        for text in ["", "a", "b", "ab", "ba", "aa", "bb", "aab", "abb", "abab", "bbaa", "aabab"] {
            let doc = Document::from(text);
            let fast = enumerate_sorted(&aut, &doc);
            let slow = eva.eval_naive(&doc);
            assert_eq!(fast, slow, "mismatch on {text:?}");
        }
    }

    #[test]
    fn empty_output_documents() {
        let eva = figure3();
        let aut = det(&eva);
        let dag = EnumerationDag::build(&aut, &Document::from("zz"));
        assert!(dag.is_empty());
        assert_eq!(dag.collect_mappings(), vec![]);
        assert_eq!(dag.count_paths(), 0);
        let dag = EnumerationDag::build(&aut, &Document::empty());
        assert!(dag.is_empty());
    }

    #[test]
    fn count_paths_matches_enumeration() {
        let eva = figure3();
        let aut = det(&eva);
        for text in ["ab", "abab", "aaabbb", "abababab"] {
            let doc = Document::from(text);
            let dag = EnumerationDag::build(&aut, &doc);
            assert_eq!(dag.count_paths(), dag.collect_mappings().len() as u128, "on {text:?}");
        }
    }

    #[test]
    fn figure5_trace_nonempty_lists() {
        // Reproduces the table of Figure 5: which lists are non-empty after
        // each stage when running the Figure 3 automaton on d = ab.
        let eva = figure3();
        let aut = det(&eva);
        let (_, traces) = EnumerationDag::build_with_trace(&aut, &Document::from("ab"));
        // Stages: Capturing(1), Reading(1), Capturing(2), Reading(2), Capturing(3)
        assert_eq!(traces.len(), 5);

        let states =
            |t: &StageTrace| -> Vec<usize> { t.nonempty.iter().map(|(q, _)| *q).collect() };

        // Capturing(1): q0 (still holds ⊥), q1, q2, q3.
        assert_eq!(traces[0].stage, Stage::Capturing);
        assert_eq!(states(&traces[0]), vec![0, 1, 2, 3]);
        // Reading(1): q3, q4, q5.
        assert_eq!(traces[1].stage, Stage::Reading);
        assert_eq!(states(&traces[1]), vec![3, 4, 5]);
        // Capturing(2): q3, q4, q5, q6, q7, q9.
        assert_eq!(states(&traces[2]), vec![3, 4, 5, 6, 7, 9]);
        // Reading(2): q3, q8 (with two cells: one from q6's list, one from q7's).
        assert_eq!(states(&traces[3]), vec![3, 8]);
        let q8_len = traces[3].nonempty.iter().find(|(q, _)| *q == 8).unwrap().1;
        assert_eq!(q8_len, 2);
        // Capturing(3): q3, q8, q9 (q9's list has the two closing nodes).
        assert_eq!(states(&traces[4]), vec![3, 8, 9]);
        let q9_len = traces[4].nonempty.iter().find(|(q, _)| *q == 9).unwrap().1;
        assert_eq!(q9_len, 2);
    }

    #[test]
    fn figure6_dag_shape() {
        // The DAG of Figure 6 has 8 proper nodes (plus ⊥): {x⊢,1}, {y⊢,1},
        // {x⊢y⊢,1}, {y⊢,2}, {x⊢,2}, {⊣x⊣y,2 via q3}… — concretely, Algorithm 1
        // creates one node per (variable transition, live source) pair:
        //   Capturing(1): 3 nodes, Capturing(2): 3 nodes, Capturing(3): 2 nodes.
        // The per-byte engine is verbatim Algorithm 1.
        let eva = figure3();
        let aut = det(&eva);
        let doc = Document::from("ab");
        let mut per_byte = Evaluator::with_mode(EngineMode::PerByte);
        let dag = per_byte.eval(&aut, &doc);
        assert_eq!(dag.num_nodes(), 1 + 8);
        assert_eq!(dag.num_roots(), 1);
        assert_eq!(dag.count_paths(), 3);
        // The default engine drops {⊣x⊣y,2 via q3}: q9 has no letter
        // transition on `b`, so Reading(2) wipes it.
        let dag = EnumerationDag::build(&aut, &doc);
        assert_eq!(dag.num_nodes(), 1 + 7);
        assert_eq!(dag.num_roots(), 1);
        assert_eq!(dag.count_paths(), 3);
    }

    /// A hand-built eager contact spanner in the style of Example 2.1:
    /// `.* name{[A-Z][a-z]+} ' ' 'x' phone{[0-9-]+} 'y' .*`.
    fn contact() -> Eva {
        let mut reg = VarRegistry::new();
        let name = reg.intern("name").unwrap();
        let phone = reg.intern("phone").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q = b.add_states(11);
        b.set_initial(q[0]);
        b.set_final(q[10]);
        let ms = MarkerSet::new;
        let upper = ByteClass::from_bytes(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ");
        let lower = ByteClass::from_bytes(b"abcdefghijklmnopqrstuvwxyz");
        let digits = ByteClass::from_bytes(b"0123456789-");
        b.add_letter(q[0], ByteClass::any(), q[0]);
        b.add_var(q[0], ms().with_open(name), q[1]).unwrap();
        b.add_letter(q[1], upper, q[2]);
        b.add_letter(q[2], lower, q[3]);
        b.add_letter(q[3], lower, q[3]);
        b.add_var(q[3], ms().with_close(name), q[4]).unwrap();
        b.add_byte(q[4], b' ', q[5]);
        b.add_byte(q[5], b'x', q[6]);
        b.add_var(q[6], ms().with_open(phone), q[7]).unwrap();
        b.add_letter(q[7], digits, q[8]);
        b.add_letter(q[8], digits, q[8]);
        b.add_var(q[8], ms().with_close(phone), q[9]).unwrap();
        b.add_byte(q[9], b'y', q[10]);
        b.add_letter(q[10], ByteClass::any(), q[10]);
        b.build().unwrap()
    }

    #[test]
    fn dead_captures_are_dropped_only_by_the_eager_skipping_loops() {
        let eva = contact();
        let aut = det(&eva);
        let lazy = LazyDetSeva::new(&eva, crate::lazy::LazyConfig::default()).unwrap();
        let doc = Document::from("Ann x555-12y, Bob x7y; bob x8y");
        let reference = eva.eval_naive(&doc);
        assert_eq!(reference.len(), 2);
        // q0 offers `name⊢` before every byte. The per-byte loop makes all
        // of those captures; the skipping loops skip q0-only stretches, and
        // on the eager backend they also drop the captures the next byte
        // kills (`name⊢` before a non-capital, `⊣name` inside a name, `⊣phone`
        // inside a number). The final `name⊢` at |d| is always made.
        let nodes = [
            (EngineMode::PerByte, 45, 45),
            (EngineMode::ClassRuns, 10, 20),
            (EngineMode::SkipScan, 10, 20),
        ];
        for (mode, eager_nodes, lazy_nodes) in nodes {
            let mut ev = Evaluator::with_mode(mode);
            let dag = ev.eval(&aut, &doc);
            assert_eq!(dag.num_nodes(), eager_nodes, "eager {mode:?}");
            assert_eq!(dag.num_cells(), eager_nodes, "eager {mode:?}");
            let mut out = dag.collect_mappings();
            dedup_mappings(&mut out);
            assert_eq!(out, reference, "eager {mode:?}");
            let mut ev = Evaluator::with_mode(mode);
            let dag = ev.eval_lazy(&lazy, &doc);
            assert_eq!(dag.num_nodes(), lazy_nodes, "lazy {mode:?}");
            let mut out = dag.collect_mappings();
            dedup_mappings(&mut out);
            assert_eq!(out, reference, "lazy {mode:?}");
        }
    }

    #[test]
    fn a_node_is_its_own_list_cell_in_24_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 24);
    }

    #[test]
    fn next_arena_id_accepts_every_id_below_nil() {
        assert_eq!(next_arena_id(0), BOTTOM);
        assert_eq!(next_arena_id(u32::MAX as usize - 1), u32::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "DAG node arena overflow")]
    fn next_arena_id_refuses_the_nil_id() {
        let _ = next_arena_id(u32::MAX as usize);
    }

    #[test]
    fn lazy_and_frozen_steppers_never_report_dead_captures() {
        let eva = contact();
        let lazy = LazyDetSeva::new(&eva, crate::lazy::LazyConfig::default()).unwrap();
        let mut cache = lazy.create_cache();
        assert!(lazy.accepts(&mut cache, &Document::from("Ann x5y")));
        let frozen = {
            let mut ev = Evaluator::new();
            let _ = ev.eval_lazy(&lazy, &Document::from("Ann x5y, Bob x6y"));
            ev.lazy_cache().unwrap().freeze(&lazy)
        };
        let mut delta = FrozenDelta::new();
        delta.bind(&frozen, &lazy);
        let classes = lazy.num_alphabet_classes();
        let before = (cache.num_states(), cache.memory_bytes(), cache.capacity_signature());
        let delta_before = (delta.memory_bytes(), delta.capacity_signature());
        {
            let stepper = LazyStepper::new(&lazy, &mut cache);
            let frozen_stepper = FrozenStepper::new(&lazy, &frozen, &mut delta);
            // Probe well past the states either side has interned.
            for q in 0..64 {
                for cls in 0..classes {
                    assert!(!stepper.capture_dies(q, cls), "lazy ({q}, {cls})");
                    assert!(!frozen_stepper.capture_dies(q, cls), "frozen ({q}, {cls})");
                }
            }
        }
        assert_eq!((cache.num_states(), cache.memory_bytes(), cache.capacity_signature()), before);
        assert_eq!((delta.memory_bytes(), delta.capacity_signature()), delta_before);
    }

    #[test]
    fn enumeration_is_lazy_and_resumable() {
        let eva = figure3();
        let aut = det(&eva);
        let doc = Document::from("ab");
        let dag = EnumerationDag::build(&aut, &doc);
        let total = dag.collect_mappings().len();
        assert!(total > 1);
        let mut it = dag.iter();
        let first = it.next().unwrap();
        let rest: Vec<_> = it.collect();
        assert_eq!(rest.len(), total - 1);
        assert!(!rest.contains(&first));
        // for_each_mapping with early stop
        let visited = dag.for_each_mapping(|_| false);
        assert_eq!(visited, 1);
        let visited = dag.for_each_mapping(|_| true);
        assert_eq!(visited, total);
    }

    #[test]
    fn nested_captures_quadratic_output() {
        // Spanner: Σ* x{ Σ* y{ Σ* } } with x spanning a suffix-prefix structure.
        // Simpler: x captures any prefix boundary… Instead, build the spanner
        // "x captures any span, y captures any sub-span starting where x starts"
        // via a small hand-rolled deterministic seVA:
        //   x opens at any position, y opens with x, y closes anywhere later,
        //   x closes anywhere after y closes.
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let y = reg.intern("y").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state(); // before x opens
        let q1 = b.add_state(); // x and y open
        let q2 = b.add_state(); // y closed
        let q3 = b.add_state(); // x closed (final)
        b.set_initial(q0);
        b.set_final(q3);
        let any = ByteClass::any();
        b.add_letter(q0, any, q0);
        b.add_letter(q1, any, q1);
        b.add_letter(q2, any, q2);
        b.add_letter(q3, any, q3);
        let ms = MarkerSet::new;
        b.add_var(q0, ms().with_open(x).with_open(y), q1).unwrap();
        b.add_var(q1, ms().with_close(y), q2).unwrap();
        b.add_var(q2, ms().with_close(x), q3).unwrap();
        // Also allow y and x to close at the same position as they open, etc.
        let eva = b.build().unwrap();
        let aut = DetSeva::compile(&eva).unwrap();
        for n in [0usize, 1, 2, 5, 9] {
            let doc = Document::new(vec![b'a'; n]);
            let out = enumerate_sorted(&aut, &doc);
            // The three variable transitions fire at positions i < j < k (they
            // cannot be consecutive, so at least one letter separates them):
            // x = [i, k⟩, y = [i, j⟩ with 0 ≤ i < j < k ≤ n, i.e. C(n+1, 3) outputs.
            let expected = if n >= 2 { (n + 1) * n * (n - 1) / 6 } else { 0 };
            assert_eq!(out.len(), expected, "n = {n}");
            assert_eq!(out, eva.eval_naive(&doc), "naive mismatch at n = {n}");
        }
    }

    #[test]
    fn delay_is_document_independent() {
        // Not a timing test (that lives in the benches); here we check the
        // *structural* property that the DFS stack depth during enumeration is
        // bounded by the number of variable transitions of a run, not by |d|.
        let eva = figure3();
        let aut = det(&eva);
        for n in [4usize, 16, 64, 256] {
            let text: String = std::iter::repeat_n("ab", n).collect();
            let dag = EnumerationDag::build(&aut, &Document::from(text.as_str()));
            let mut it = dag.iter();
            let mut max_stack = 0;
            while it.next().is_some() {
                max_stack = max_stack.max(it.stack.len());
            }
            // Figure 3 runs contain at most 3 variable transitions, so the stack
            // holds at most 3 node frames plus the root frame.
            assert!(max_stack <= 4, "stack depth {max_stack} at n = {n}");
        }
    }

    #[test]
    fn multiple_final_states_are_all_roots() {
        // Two final states reached through different branches:
        //   q0 -{x⊢}-> q1 -a-> q2 -{⊣x}-> f1       (x = [1,2⟩)
        //   q0 -a-> q3 -{x⊢,⊣x}-> f2                (x = empty span at position 2)
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        let q3 = b.add_state();
        let f1 = b.add_state();
        let f2 = b.add_state();
        b.set_initial(q0);
        b.set_final(f1);
        b.set_final(f2);
        let ms = MarkerSet::new;
        b.add_var(q0, ms().with_open(x), q1).unwrap();
        b.add_byte(q1, b'a', q2);
        b.add_var(q2, ms().with_close(x), f1).unwrap();
        b.add_byte(q0, b'a', q3);
        b.add_var(q3, ms().with_open(x).with_close(x), f2).unwrap();
        let eva = b.build().unwrap();
        assert!(eva.is_sequential());
        let aut = DetSeva::compile(&eva).unwrap();
        let doc = Document::from("a");
        let out = enumerate_sorted(&aut, &doc);
        assert_eq!(out.len(), 2);
        assert_eq!(out, eva.eval_naive(&doc));
        let dag = EnumerationDag::build(&aut, &doc);
        assert_eq!(dag.num_roots(), 2);
    }

    #[test]
    fn build_with_trace_matches_plain_build() {
        let eva = figure3();
        let aut = det(&eva);
        let doc = Document::from("abab");
        let plain = EnumerationDag::build(&aut, &doc);
        let (traced, stages) = EnumerationDag::build_with_trace(&aut, &doc);
        assert_eq!(plain.collect_mappings(), traced.collect_mappings());
        assert_eq!(stages.len(), 2 * 4 + 1);
    }

    #[test]
    fn evaluator_reuse_matches_one_shot_builds() {
        let eva = figure3();
        let aut = det(&eva);
        let mut evaluator = Evaluator::new();
        for text in ["ab", "", "abab", "zz", "aabb", "ababab", "a"] {
            let doc = Document::from(text);
            let reused = evaluator.eval(&aut, &doc);
            let fresh = EnumerationDag::build(&aut, &doc);
            assert_eq!(reused.num_nodes(), fresh.num_nodes(), "nodes on {text:?}");
            assert_eq!(reused.num_cells(), fresh.num_cells(), "cells on {text:?}");
            assert_eq!(reused.num_roots(), fresh.num_roots(), "roots on {text:?}");
            assert_eq!(reused.count_paths(), fresh.count_paths(), "paths on {text:?}");
            assert_eq!(reused.collect_mappings(), fresh.collect_mappings(), "mappings on {text:?}");
        }
    }

    #[test]
    fn evaluator_retains_arena_capacity_across_documents() {
        let eva = figure3();
        let aut = det(&eva);
        let mut evaluator = Evaluator::new();
        // Warm up on the largest document of the batch.
        let big: String = std::iter::repeat_n("ab", 512).collect();
        let _ = evaluator.eval(&aut, &Document::from(big.as_str()));
        let warm_nodes = evaluator.node_capacity();
        let warm_cells = evaluator.cell_capacity();
        assert!(warm_nodes > 0 && warm_cells > 0);
        // Subsequent smaller documents must not grow (or shrink) the arenas.
        for n in [1usize, 17, 100, 512] {
            let text: String = std::iter::repeat_n("ab", n).collect();
            let view = evaluator.eval(&aut, &Document::from(text.as_str()));
            assert!(!view.is_empty());
            assert_eq!(evaluator.node_capacity(), warm_nodes, "node arena reallocated at n={n}");
            assert_eq!(evaluator.cell_capacity(), warm_cells, "cell arena reallocated at n={n}");
        }
    }

    #[test]
    fn evaluator_adapts_to_different_automata() {
        // One evaluator serving two automata of different state counts.
        let f3 = det(&figure3());
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
        let ms = MarkerSet::new;
        b.add_var(q0, ms().with_open(x), q1).unwrap();
        b.add_var(q1, ms().with_close(x), q2).unwrap();
        let small = DetSeva::compile(&b.build().unwrap()).unwrap();

        let mut evaluator = Evaluator::new();
        for _ in 0..3 {
            let doc = Document::from("ab");
            assert_eq!(evaluator.eval(&f3, &doc).count_paths(), 3);
            let doc = Document::from("aaa");
            assert_eq!(
                evaluator.eval(&small, &doc).count_paths(),
                EnumerationDag::build(&small, &doc).count_paths()
            );
        }
    }

    #[test]
    fn eval_owned_produces_independent_dag() {
        let eva = figure3();
        let aut = det(&eva);
        let mut evaluator = Evaluator::new();
        let dag = evaluator.eval_owned(&aut, &Document::from("ab"));
        // The evaluator can immediately be reused…
        let view = evaluator.eval(&aut, &Document::from("abab"));
        // …while the owned DAG remains valid and unchanged.
        assert_eq!(dag.count_paths(), 3);
        assert_eq!(
            view.count_paths(),
            EnumerationDag::build(&aut, &Document::from("abab")).count_paths()
        );
    }
}
