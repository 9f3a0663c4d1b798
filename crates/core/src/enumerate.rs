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
//! The document walk itself — the sparse active-state set
//! ([`crate::SparseSet`]), the three loops of [`EngineMode`], the lazy-cache
//! maintenance points and the two phases — is the sweep shared with
//! Algorithm 3 and with acceptance (`sweep.rs`); this module supplies the
//! DAG arena as the sweep's per-state payload. Only states whose list is
//! non-empty are visited, so the cost per position is proportional to the
//! number of *live* states, not to the total number of automaton states.
//!
//! On top of the sparse loop sit two **run-skipping fast paths**. The default
//! is **skip-mask scanning** ([`EngineMode::SkipScan`]): every automaton
//! state carries a bitset of the alphabet classes on which a `(Capturing;
//! Reading)` step is provably a no-op for it ([`DetSeva::skip_mask`]), the
//! active set's bitsets are intersected into one [`crate::ClassMask`]
//! (recomputed only when the active set changes), and the loop jumps from one
//! *interesting* byte to the next with a chunked, memchr-style scanner
//! ([`crate::find_next_interesting`]) — skippable stretches cost a
//! vectorisable LUT scan no matter how many class runs they span. The older
//! **class-run** path ([`EngineMode::ClassRuns`]) bulk-classifies the
//! document ([`crate::byteclass::AlphabetPartition::classify_into`]), walks
//! maximal same-class runs and consumes any run on whose class every live
//! state is [`DetSeva::run_skippable`] in `O(live states)`; it remains as the
//! differential baseline. Long stretches of "noise" between matches (the
//! common case in Example 2.1-style extraction) then cost almost nothing;
//! the byte-at-a-time loop remains available as [`EngineMode::PerByte`] and
//! for traced runs.
//!
//! On the eager backend the skipping loops also drop *dead captures* into a
//! state with no letter transition on the next byte
//! ([`crate::Stepper::capture_dies`]), whose lists the next `Reading` phase
//! would wipe. Each node is its own list cell, so the DAG lives in one arena.
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

use crate::det::DetSeva;
use crate::document::Document;
use crate::error::SpannerError;
use crate::lazy::{FrozenCache, FrozenDelta, FrozenStepper, LazyCache, LazyDetSeva, LazyStepper};
use crate::limits::EvalLimits;
use crate::mapping::Mapping;
use crate::markerset::MarkerSet;
use crate::span::Span;
use crate::sweep::{infallible, Payload, Shell, Sweep};
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

/// Which inner loop an [`Evaluator`] (or a [`crate::CountCache`]) drives
/// Algorithm 1, Algorithm 3 and acceptance with.
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
/// byte ([`crate::Stepper::capture_dies`]; never in the final `Capturing(|d|)`).
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
///
/// The same evaluator also decides acceptance (`accepts_*`), through the
/// same sweep with nothing attached to a state, under the same mode, limits
/// and embedded caches.
#[derive(Debug, Clone, Default)]
pub struct Evaluator {
    shell: Shell,
    dag: Sweep<Dag>,
    accept: Sweep<()>,
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
        let mut evaluator = Evaluator::new();
        evaluator.set_mode(mode);
        evaluator
    }

    /// The engine mode this evaluator runs.
    pub fn mode(&self) -> EngineMode {
        self.shell.mode
    }

    /// Switches the engine mode for subsequent runs.
    pub fn set_mode(&mut self, mode: EngineMode) {
        self.shell.mode = mode;
    }

    /// The per-document resource limits applied by every run.
    pub fn limits(&self) -> EvalLimits {
        self.shell.limits
    }

    /// Sets per-document resource limits for subsequent runs. With limits
    /// configured, use the fallible entry points ([`Evaluator::try_eval`],
    /// [`Evaluator::try_eval_lazy`], [`Evaluator::try_eval_frozen`], and the
    /// `try_accepts*` family); the infallible ones panic if a limit trips.
    pub fn set_limits(&mut self, limits: EvalLimits) {
        self.shell.limits = limits;
    }

    /// Overrides the lazy-cache/frozen-delta byte budget for subsequent runs
    /// (`None` restores the automaton's configured budget). This is the
    /// degradation-ladder hook: a document that thrashed the cache can be
    /// retried once under an enlarged budget without recompiling anything.
    pub fn set_cache_budget_override(&mut self, budget: Option<usize>) {
        self.shell.budget_override = budget;
    }

    /// The active lazy-cache/frozen-delta byte-budget override, if any.
    pub fn cache_budget_override(&self) -> Option<usize> {
        self.shell.budget_override
    }

    /// Runs Algorithm 1 (`Evaluate`) over the document and returns a view of
    /// the resulting DAG, reusing all previously allocated arena capacity.
    ///
    /// Preprocessing time is `O(|A| × |d|)` in the worst case, and
    /// `O(live states × |d|)` in the common case where only a few automaton
    /// states carry runs at any position.
    pub fn eval<'a>(&'a mut self, aut: &'a DetSeva, doc: &Document) -> DagView<'a> {
        infallible(self.try_eval(aut, doc))
    }

    /// [`Evaluator::eval`] under the configured [`EvalLimits`]: a tripped
    /// step budget or deadline surfaces as an `Err` instead of a panic, and
    /// the evaluator stays reusable (the next run resets all state).
    pub fn try_eval<'a>(
        &'a mut self,
        aut: &'a DetSeva,
        doc: &Document,
    ) -> Result<DagView<'a>, SpannerError> {
        self.dag.run(&mut &*aut, doc, &self.shell, None)?;
        Ok(self.view(aut.registry(), doc))
    }

    /// Whether the eager automaton accepts `doc`, under the configured mode
    /// and [`EvalLimits`] — the fallible counterpart of [`DetSeva::accepts`],
    /// placed on the evaluator so limits live in one place for all engines.
    pub fn try_accepts(&mut self, aut: &DetSeva, doc: &Document) -> Result<bool, SpannerError> {
        self.accept.run(&mut &*aut, doc, &self.shell, None)
    }

    /// Like [`Evaluator::eval`] but moves the finished DAG out as an owned
    /// [`EnumerationDag`], surrendering the arena capacity (the evaluator's
    /// arenas start empty again). Use when the DAG must outlive the evaluator.
    pub fn eval_owned(&mut self, aut: &DetSeva, doc: &Document) -> EnumerationDag {
        infallible(self.try_eval(aut, doc));
        self.take_dag(aut.registry(), doc)
    }

    /// Runs Algorithm 1 over a **lazily determinized** automaton: subset
    /// states and transition rows are discovered on demand inside the
    /// evaluator's embedded [`LazyCache`] (created on first use, retained —
    /// warm — across documents, and replaced when a different lazy automaton
    /// is evaluated). Behaviour is otherwise identical to [`Evaluator::eval`]:
    /// same engine modes, same zero-steady-state-allocation contract once
    /// both the arenas and the cache are warm.
    pub fn eval_lazy<'a>(&'a mut self, aut: &'a LazyDetSeva, doc: &Document) -> DagView<'a> {
        infallible(self.try_eval_lazy(aut, doc))
    }

    /// [`Evaluator::eval_lazy`] under the configured [`EvalLimits`] (see
    /// [`Evaluator::try_eval`]). The embedded cache survives a tripped limit
    /// — already-interned subset states stay warm for the retry.
    pub fn try_eval_lazy<'a>(
        &'a mut self,
        aut: &'a LazyDetSeva,
        doc: &Document,
    ) -> Result<DagView<'a>, SpannerError> {
        let dag = &mut self.dag;
        self.shell.with_lazy(aut, |shell, cache| {
            dag.run(&mut LazyStepper::new(aut, cache), doc, shell, None)
        })?;
        Ok(self.view(aut.registry(), doc))
    }

    /// Like [`Evaluator::eval_lazy`] but moving the finished DAG out as an
    /// owned [`EnumerationDag`] (see [`Evaluator::eval_owned`]).
    pub fn eval_lazy_owned(&mut self, aut: &LazyDetSeva, doc: &Document) -> EnumerationDag {
        infallible(self.try_eval_lazy(aut, doc));
        self.take_dag(aut.registry(), doc)
    }

    /// Whether the lazily determinized automaton accepts `doc`, using (and
    /// warming) the evaluator's embedded [`LazyCache`] — the hot-path match
    /// check: unlike a one-shot `accepts` with a fresh cache, repeated calls
    /// reuse all previously discovered subset states and transition rows.
    pub fn accepts_lazy(&mut self, aut: &LazyDetSeva, doc: &Document) -> bool {
        infallible(self.try_accepts_lazy(aut, doc))
    }

    /// [`Evaluator::accepts_lazy`] under the configured [`EvalLimits`]: the
    /// match check honours step budgets and deadlines like a full run.
    pub fn try_accepts_lazy(
        &mut self,
        aut: &LazyDetSeva,
        doc: &Document,
    ) -> Result<bool, SpannerError> {
        let accept = &mut self.accept;
        self.shell.with_lazy(aut, |shell, cache| {
            accept.run(&mut LazyStepper::new(aut, cache), doc, shell, None)
        })
    }

    /// The embedded lazy determinization cache, if a lazy automaton has been
    /// evaluated (diagnostics: subset-state count, eviction count, capacity
    /// signature for allocation-retention assertions).
    pub fn lazy_cache(&self) -> Option<&LazyCache> {
        self.shell.lazy_cache()
    }

    /// Installs `cache` as the embedded lazy cache for `aut`, replacing
    /// whatever was there. Subsequent [`Evaluator::eval_lazy`] calls extend
    /// it in place — the warm-up hook of the generational re-freeze path,
    /// which thaws a frozen snapshot (delta evidence merged), replays sample
    /// documents through it here, and freezes the result as the next
    /// generation. A cache bound to a different automaton is reset by the
    /// rebind, exactly as [`LazyCache::bind`] documents.
    pub fn install_lazy_cache(&mut self, aut: &LazyDetSeva, cache: LazyCache) {
        self.shell.install_lazy_cache(aut, cache);
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
        infallible(self.try_eval_frozen(aut, frozen, doc))
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
        let dag = &mut self.dag;
        self.shell.with_frozen(aut, frozen, |shell, delta| {
            dag.run(&mut FrozenStepper::new(aut, frozen, delta), doc, shell, None)
        })?;
        Ok(self.view(aut.registry(), doc))
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
        infallible(self.try_accepts_frozen(aut, frozen, doc))
    }

    /// [`Evaluator::accepts_frozen`] under the configured [`EvalLimits`].
    pub fn try_accepts_frozen(
        &mut self,
        aut: &LazyDetSeva,
        frozen: &FrozenCache,
        doc: &Document,
    ) -> Result<bool, SpannerError> {
        let accept = &mut self.accept;
        self.shell.with_frozen(aut, frozen, |shell, delta| {
            accept.run(&mut FrozenStepper::new(aut, frozen, delta), doc, shell, None)
        })
    }

    /// The embedded frozen-overflow delta, if a frozen snapshot has been
    /// evaluated (diagnostics: overflow-state count, eviction count, capacity
    /// signature).
    pub fn frozen_delta(&self) -> Option<&FrozenDelta> {
        self.shell.frozen_delta()
    }

    /// Bytes currently held by this evaluator's **governed** memory: the
    /// embedded lazy determinization cache plus the frozen-overflow delta —
    /// the caches a global [`crate::MemoryGovernor`] ledgers and can shed.
    /// (The enumeration node store is per-document working memory, not
    /// governed.)
    pub fn governed_bytes(&self) -> usize {
        self.shell.governed_bytes()
    }

    /// Sheds this evaluator's governed memory for the global governor
    /// (severity 1 of the shedding ladder): drops the embedded lazy cache
    /// outright and [`FrozenDelta::shed`]s the frozen-overflow delta.
    /// Returns the bytes freed. The evaluator stays fully usable — the next
    /// lazy run rebuilds its cache from scratch, the next frozen run
    /// re-interns overflow states on demand, and results are unchanged
    /// (byte-identical) because both caches are pure memoization.
    pub fn shed_cold_memory(&mut self) -> usize {
        self.shell.shed_cold_memory()
    }

    /// Current capacity of the node arena (diagnostics: a warmed-up evaluator
    /// keeps its capacity across documents instead of reallocating).
    pub fn node_capacity(&self) -> usize {
        self.dag.payload.store.nodes.capacity()
    }

    /// Current capacity of the cell arena: the node arena (a node is its own cell).
    pub fn cell_capacity(&self) -> usize {
        self.dag.payload.store.nodes.capacity()
    }

    /// Current capacity of the byte-class buffer (diagnostics: like the
    /// arenas, it is retained across documents in steady state).
    pub fn class_buf_capacity(&self) -> usize {
        self.dag.class_buf_capacity()
    }

    /// A view of the DAG the last run built.
    fn view<'a>(&'a self, registry: &'a VarRegistry, doc: &Document) -> DagView<'a> {
        DagView { store: &self.dag.payload.store, registry, doc_len: doc.len() }
    }

    /// Moves the DAG the last run built out, with its arena capacity.
    fn take_dag(&mut self, registry: &VarRegistry, doc: &Document) -> EnumerationDag {
        let store = std::mem::take(&mut self.dag.payload.store);
        EnumerationDag { store, registry: registry.clone(), doc_len: doc.len() }
    }
}

/// Algorithm 1's payload: each live state carries the list of DAG nodes its
/// runs end in; `add` prepends a fresh node (its own list cell) and `append`
/// splices in O(1).
#[derive(Debug, Clone, Default)]
struct Dag {
    store: DagStore,
    /// Scratch for sorting `(final state, list)` pairs into the roots.
    root_scratch: Vec<(usize, ListRef)>,
}

impl Payload for Dag {
    type Val = ListRef;
    type Out = ();

    fn empty() -> ListRef {
        ListRef::EMPTY
    }

    /// Empties the arena and pushes the sink ⊥ (node 0; only its cell, `next`,
    /// is ever read): `list_{q0} = [⊥]`.
    fn start(&mut self) -> ListRef {
        let nodes = &mut self.store.nodes;
        nodes.clear();
        nodes.push(Node { markers: MarkerSet::new(), pos: 0, list: ListRef::EMPTY, next: NIL });
        ListRef { head: BOTTOM, tail: BOTTOM }
    }

    #[inline]
    fn add(
        &mut self,
        list: &mut ListRef,
        fresh: bool,
        markers: MarkerSet,
        pos: usize,
        src: &ListRef,
    ) -> Result<(), SpannerError> {
        let id = next_arena_id(self.store.nodes.len());
        // The node is the fresh cell, prepended.
        let next = if fresh {
            *list = ListRef { head: id, tail: id };
            NIL
        } else {
            std::mem::replace(&mut list.head, id)
        };
        self.store.nodes.push(Node { markers, pos: pos as u32, list: *src, next });
        Ok(())
    }

    #[inline]
    fn append(
        &mut self,
        list: &mut ListRef,
        fresh: bool,
        src: &ListRef,
    ) -> Result<(), SpannerError> {
        if fresh {
            *list = *src;
        } else {
            let tail = &mut self.store.nodes[list.tail as usize].next;
            debug_assert_eq!(*tail, NIL, "append target must end in null");
            *tail = src.head;
            list.tail = src.tail;
        }
        Ok(())
    }

    /// Roots: the lists of the live final states, in state order so
    /// enumeration order is independent of active-set insertion order.
    fn finish<'v>(
        &mut self,
        finals: impl Iterator<Item = (usize, &'v ListRef)>,
    ) -> Result<(), SpannerError> {
        self.root_scratch.clear();
        self.root_scratch.extend(finals.map(|(q, l)| (q, *l)));
        self.root_scratch.sort_unstable_by_key(|&(q, _)| q);
        self.store.roots.clear();
        self.store.roots.extend(self.root_scratch.iter().map(|&(_, l)| l));
        Ok(())
    }

    /// Counts a list's cells by walking it (traced runs only).
    fn cells(&self, list: &ListRef) -> usize {
        self.store.list_cells(*list).count()
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
        infallible(evaluator.dag.run(&mut &*aut, doc, &evaluator.shell, Some(&mut traces)));
        (evaluator.take_dag(aut.registry(), doc), traces)
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
    use crate::det::Stepper;
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
