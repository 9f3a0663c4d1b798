//! Lazy hybrid determinization: subset construction on demand, behind a
//! bounded memory budget (the regex-automata "hybrid" lazy-DFA idiom, adapted
//! to extended VA).
//!
//! [`crate::det::DetSeva`] compiles a *deterministic* automaton into dense
//! tables up front, and the eager subset construction
//! (`spanners_automata::determinize`) that feeds it can blow up exponentially
//! before the first byte of input is read — exactly the cost the
//! constant-delay framework is meant to amortize away. [`LazyDetSeva`] instead
//! keeps the **nondeterministic** (but sequential) eVA in a compact
//! CSR layout and determinizes *during* evaluation:
//!
//! * deterministic states are interned **subset keys** (sorted NFA state
//!   sets) discovered as the document is read;
//! * per-(state, class) letter-table entries and marker-transition CSR rows
//!   are filled the first time they are stepped — including the
//!   `run_skippable` / `has_markers` fast-path metadata, which the eager
//!   compiler precomputes and this cache derives lazily;
//! * everything mutable lives in a [`LazyCache`] governed by a configurable
//!   byte budget ([`LazyConfig`]); when the budget is exceeded the cache is
//!   **cleared and restarted**: the evaluation engine's live states are
//!   re-interned into the fresh cache and every other state is forgotten,
//!   so memory stays bounded no matter how adversarial the automaton is.
//!
//! The cache plugs into the existing evaluation engines
//! ([`crate::Evaluator`], [`crate::CountCache`]) through the
//! [`crate::det::Stepper`] abstraction, so both the per-byte and the
//! class-run run-skipping fast paths work unchanged on lazily determinized
//! automata. Outputs are byte-for-byte the mappings/counts of the eagerly
//! determinized automaton — determinization (lazy or not) preserves the
//! semantics, and subset states make Algorithm 1 duplicate-free even though
//! the source automaton is nondeterministic.
//!
//! # Sharing a warm cache across threads: the frozen/delta split
//!
//! A [`LazyCache`] is inherently single-threaded — every step may mutate it.
//! For batch/serving workloads where N workers evaluate the *same* spanner
//! over many documents, that would mean N caches each re-determinizing the
//! same subsets: exactly the waste the lazy engine exists to avoid. The
//! frozen/delta split amortizes the work instead:
//!
//! * [`LazyCache::freeze`] snapshots a warm cache into a [`FrozenCache`] — an
//!   immutable CSR table of every subset state, transition row and skip entry
//!   discovered so far. A `FrozenCache` is `Send + Sync` (it has no interior
//!   mutability) and is meant to be shared by reference or `Arc` across
//!   worker threads;
//! * each worker owns a small mutable [`FrozenDelta`] holding the *overflow*:
//!   states and rows first stepped after the freeze. Deltas are scratch — they
//!   reset (retaining capacity) at the start of each document, so every
//!   evaluation result is a pure function of `(frozen cache, document)`,
//!   independent of which worker ran it or what it processed before. This is
//!   what makes parallel batch output deterministic and byte-for-byte equal
//!   to a single-threaded run over the same frozen snapshot;
//! * a [`FrozenStepper`] pairs the shared frozen half with one worker's delta
//!   behind the same [`crate::det::Stepper`] seam the other engines use, so
//!   frozen evaluation reuses the per-byte and class-run loops unchanged.
//!
//! A well-chosen freeze point (after warming on representative documents)
//! leaves the delta empty in steady state: stepping is then pure shared-table
//! reads, the per-worker memory cost is a few retained-capacity buffers, and
//! the zero-allocation contract of the warm engines is preserved.

use crate::byteclass::{AlphabetPartition, ClassMask};
use crate::det::Stepper;
use crate::document::Document;
use crate::error::SpannerError;
use crate::eva::{Eva, StateId};
use crate::markerset::MarkerSet;
use crate::sparse::SparseSet;
use crate::variable::VarRegistry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel for "no transition" in a lazy letter-table row.
const NO_TARGET: u32 = u32::MAX;
/// Sentinel for "not yet computed" in a lazy letter-table row.
const UNKNOWN: u32 = u32::MAX - 1;
/// Sentinel for "marker row not yet materialized".
const VARS_UNMATERIALIZED: u32 = u32::MAX;
/// Three-valued per-(state, class) skip metadata.
const SKIP_UNKNOWN: u8 = 0;
const SKIP_YES: u8 = 1;
const SKIP_NO: u8 = 2;

/// Monotone source of identities tying a [`LazyCache`] to the [`LazyDetSeva`]
/// whose subset ids it holds (ids from different automata must never mix).
/// [`FrozenCache`] snapshots draw from the same counter: a [`FrozenDelta`]
/// holds state ids relative to one specific freeze, so snapshots need
/// identities of their own.
static NEXT_SEVA_ID: AtomicU64 = AtomicU64::new(1);

/// Draws a fresh process-unique engine/grammar identity from the shared
/// counter — also used by [`crate::slp::SlpRules`] and the eager
/// [`crate::DetSeva`], whose identities key the SLP memo tables alongside
/// lazy-cache and frozen-snapshot ids (one id space, no collisions).
pub(crate) fn next_engine_id() -> u64 {
    NEXT_SEVA_ID.fetch_add(1, Ordering::Relaxed)
}

/// Capacity snapshot of a [`LazyCache`]'s (or [`FrozenDelta`]'s) internal
/// buffers, used by allocation-retention assertions: in steady state — warm
/// cache, no evictions — repeated evaluation must leave the signature
/// unchanged. The `Display` form labels each buffer for bench/diagnostic
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySignature(pub [usize; 10]);

impl fmt::Display for CapacitySignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [keys, offsets, finals, letters, skips, masks, vars, index, slp_counts, slp_sets] =
            self.0;
        write!(
            f,
            "keys={keys} offsets={offsets} finals={finals} letters={letters} \
             skips={skips} masks={masks} vars={vars} index={index} \
             slp_counts={slp_counts} slp_sets={slp_sets}"
        )
    }
}

/// How a [`LazyCache`] reclaims memory once it exceeds its byte budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Clear-and-restart: forget every interned state except the evaluation
    /// engine's live set and rebuild from scratch. Simple and exact, but a
    /// working set slightly above budget re-determinizes its hottest states
    /// on every clear ([`LazyCache::wasted_states`] measures that waste).
    #[default]
    ClearRestart,
    /// Segmented second-chance: states referenced since the previous eviction
    /// carry a *hot* bit; an eviction keeps the live set plus hot states (in
    /// id order) up to half the byte budget, compacts the survivors in place
    /// (remapping ids and transition targets; rows pointing at evicted states
    /// revert to *unknown*), and clears every hot bit so survivors must be
    /// re-referenced to survive again. Skip metadata is a semantic property
    /// of the surviving subset states, so it is carried over verbatim.
    /// Multi-tenant shared caches want this: one tenant's cold blow-up no
    /// longer wipes the hot states every other tenant is actively using.
    Segmented,
}

/// Configuration of the lazy determinization cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LazyConfig {
    /// Approximate byte budget of one [`LazyCache`]. When the cached subset
    /// states, transition rows and interning index exceed this many bytes the
    /// cache is evicted (per [`LazyConfig::eviction`]) at the next document
    /// position. The budget is soft: the working set of a single position is
    /// always admitted, so evaluation makes progress even under absurdly
    /// small budgets (it merely thrashes).
    pub memory_budget: usize,
    /// The eviction policy applied when the budget is exceeded.
    pub eviction: EvictionPolicy,
}

impl LazyConfig {
    /// A config with the given byte budget and the default
    /// ([`EvictionPolicy::ClearRestart`]) eviction policy.
    pub fn with_budget(memory_budget: usize) -> Self {
        LazyConfig { memory_budget, ..LazyConfig::default() }
    }

    /// Builder-style override of the eviction policy.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }
}

impl Default for LazyConfig {
    fn default() -> Self {
        // Matches the regex-automata hybrid default order of magnitude: big
        // enough that realistic spanners never evict, small enough that a
        // pathological blow-up cannot take the process down.
        LazyConfig { memory_budget: 8 * 1024 * 1024, eviction: EvictionPolicy::ClearRestart }
    }
}

/// A sequential (possibly nondeterministic) extended VA prepared for **lazy
/// determinization** — the immutable half of the hybrid engine.
///
/// Construction is linear in the source automaton (no subset construction
/// happens here): the eVA's letter transitions are laid out as a
/// per-(state, alphabet-class) CSR of target lists and its variable
/// transitions as per-state sorted runs, which is exactly what the on-demand
/// subset stepping of [`LazyCache`] consumes. All mutable state lives in the
/// cache, so one `LazyDetSeva` can be shared by many evaluators, each with
/// its own cache (create one with [`LazyDetSeva::create_cache`]).
#[derive(Debug, Clone)]
pub struct LazyDetSeva {
    id: u64,
    registry: VarRegistry,
    partition: AlphabetPartition,
    config: LazyConfig,
    num_nfa_states: usize,
    ncls: usize,
    initial: u32,
    nfa_finals: Vec<bool>,
    /// Letter CSR: targets of NFA state `q` on class `cls` are
    /// `letter_targets[letter_offsets[q*ncls+cls] .. letter_offsets[q*ncls+cls+1]]`.
    letter_offsets: Vec<u32>,
    letter_targets: Vec<u32>,
    /// Variable CSR: `(markers, target)` pairs of NFA state `q`, sorted by
    /// `(markers, target)` so subset grouping is a linear merge.
    var_offsets: Vec<u32>,
    var_pairs: Vec<(MarkerSet, u32)>,
    num_vars: usize,
    source_size: usize,
}

impl LazyDetSeva {
    /// Prepares a sequential eVA for lazy determinization.
    ///
    /// The input may be nondeterministic — that is the point: the subset
    /// construction happens on demand during evaluation instead of up front.
    /// Returns [`SpannerError::NotSequential`] if the automaton is not
    /// sequential (Algorithm 1 requires sequentiality for its outputs to be
    /// exactly the valid runs).
    pub fn new(eva: &Eva, config: LazyConfig) -> Result<Self, SpannerError> {
        eva.check_sequential()?;
        Self::new_trusted(eva, config)
    }

    /// Like [`LazyDetSeva::new`] but trusting the caller that the automaton
    /// is sequential (e.g. guaranteed by construction via the Section 4
    /// translations).
    pub fn new_trusted(eva: &Eva, config: LazyConfig) -> Result<Self, SpannerError> {
        let partition = AlphabetPartition::from_classes(eva.letter_classes().iter());
        let ncls = partition.num_classes();
        let n = eva.num_states();
        // Same hostile-size guard as the eager compiler: CSR offsets are u32.
        if n.checked_mul(ncls).is_none_or(|p| p >= u32::MAX as usize) {
            return Err(SpannerError::BudgetExceeded {
                what: "lazy determinizer letter CSR (states × alphabet classes)",
                limit: u32::MAX as usize,
            });
        }
        // Bucket the letter transitions per (state, class), then flatten.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n * ncls];
        let mut cls_scratch = Vec::new();
        for (q, t) in eva.all_letter_transitions() {
            partition.classes_intersecting_into(&t.class, &mut cls_scratch);
            for &cls in &cls_scratch {
                buckets[q * ncls + cls].push(t.target as u32);
            }
        }
        let mut letter_offsets = Vec::with_capacity(n * ncls + 1);
        let mut letter_targets = Vec::new();
        letter_offsets.push(0);
        for bucket in &mut buckets {
            bucket.sort_unstable();
            bucket.dedup();
            letter_targets.extend_from_slice(bucket);
            if letter_targets.len() > u32::MAX as usize {
                return Err(SpannerError::BudgetExceeded {
                    what: "lazy determinizer letter target arena",
                    limit: u32::MAX as usize,
                });
            }
            letter_offsets.push(letter_targets.len() as u32);
        }
        let mut var_offsets = Vec::with_capacity(n + 1);
        let mut var_pairs: Vec<(MarkerSet, u32)> = Vec::new();
        let mut pair_scratch: Vec<(MarkerSet, u32)> = Vec::new();
        var_offsets.push(0);
        for q in 0..n {
            pair_scratch.clear();
            pair_scratch
                .extend(eva.var_transitions(q).iter().map(|t| (t.markers, t.target as u32)));
            pair_scratch.sort_unstable();
            pair_scratch.dedup();
            var_pairs.extend_from_slice(&pair_scratch);
            if var_pairs.len() > u32::MAX as usize {
                return Err(SpannerError::BudgetExceeded {
                    what: "lazy determinizer variable transition arena",
                    limit: u32::MAX as usize,
                });
            }
            var_offsets.push(var_pairs.len() as u32);
        }
        Ok(LazyDetSeva {
            id: NEXT_SEVA_ID.fetch_add(1, Ordering::Relaxed),
            registry: eva.registry().clone(),
            partition,
            config,
            num_nfa_states: n,
            ncls,
            initial: eva.initial() as u32,
            nfa_finals: (0..n).map(|q| eva.is_final(q)).collect(),
            letter_offsets,
            letter_targets,
            var_offsets,
            var_pairs,
            num_vars: eva.registry().len(),
            source_size: eva.size(),
        })
    }

    /// A unique identity for cache-binding checks (clones share it: they are
    /// the same automaton, so their subset ids are interchangeable).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The variable registry naming the capture variables.
    pub fn registry(&self) -> &VarRegistry {
        &self.registry
    }

    /// Number of capture variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of states of the underlying nondeterministic eVA.
    #[inline]
    pub fn num_nfa_states(&self) -> usize {
        self.num_nfa_states
    }

    /// Number of alphabet equivalence classes.
    #[inline]
    pub fn num_alphabet_classes(&self) -> usize {
        self.ncls
    }

    /// The configured cache behaviour.
    #[inline]
    pub fn config(&self) -> &LazyConfig {
        &self.config
    }

    /// The paper's size measure `|A|` of the source automaton.
    pub fn source_size(&self) -> usize {
        self.source_size
    }

    /// Creates a cache sized for this automaton. One cache per evaluation
    /// thread; the same cache amortizes determinization across documents.
    pub fn create_cache(&self) -> LazyCache {
        let mut cache = LazyCache::default();
        cache.bind(self);
        cache
    }

    /// Whether the document is accepted (i.e. `⟦A⟧(d)` is non-empty), using
    /// (and lazily extending) `cache`. Linear time, bounded memory.
    pub fn accepts(&self, cache: &mut LazyCache, doc: &Document) -> bool {
        crate::sweep::accepts(&mut LazyStepper::new(self, cache), doc)
    }

    /// NFA letter targets of `q` on alphabet class `cls`.
    #[inline]
    fn letter_targets(&self, q: usize, cls: usize) -> &[u32] {
        let slot = q * self.ncls + cls;
        &self.letter_targets
            [self.letter_offsets[slot] as usize..self.letter_offsets[slot + 1] as usize]
    }

    /// NFA variable transitions of `q`, sorted by `(markers, target)`.
    #[inline]
    fn var_pairs_of(&self, q: usize) -> &[(MarkerSet, u32)] {
        &self.var_pairs[self.var_offsets[q] as usize..self.var_offsets[q + 1] as usize]
    }
}

/// The mutable half of the hybrid engine: interned subset states, lazily
/// filled transition rows, and the byte budget governing them.
///
/// A cache belongs to exactly one [`LazyDetSeva`] at a time (it rebinds —
/// discarding its contents — when used with a different automaton). All
/// storage is retained across documents and across evictions, so a **warm
/// cache performs no heap allocation on hits**: stepping an already-filled
/// row is one flat load, exactly like the eager tables.
#[derive(Debug, Clone)]
pub struct LazyCache {
    seva_id: u64,
    ncls: usize,
    budget: usize,
    policy: EvictionPolicy,
    /// Subset key of det state `q`: `keys[key_offsets[q]..key_offsets[q+1]]`
    /// (sorted NFA state ids).
    key_offsets: Vec<u32>,
    keys: Vec<u32>,
    /// Whether the subset contains a final NFA state (known at intern time).
    finals: Vec<bool>,
    /// Lazily materialized marker rows: `var_pairs[var_starts[q]..+var_lens[q]]`,
    /// or `var_starts[q] == VARS_UNMATERIALIZED`.
    var_starts: Vec<u32>,
    var_lens: Vec<u32>,
    /// `letter_rows[q*ncls+cls]`: target id, `NO_TARGET`, or `UNKNOWN`.
    letter_rows: Vec<u32>,
    /// `skip_rows[q*ncls+cls]`: `SKIP_UNKNOWN` / `SKIP_YES` / `SKIP_NO`.
    skip_rows: Vec<u8>,
    /// Per-state skippable-class bitsets mirroring the memoized `SKIP_YES`
    /// entries of `skip_rows` (a clear bit means *unknown or not skippable*).
    /// The scanning engine intersects these across the live states; keeping
    /// only memoized-yes bits means the mask never triggers a computation the
    /// class-run engine would not also perform, so subset interning order is
    /// identical across engine modes. Cleared with their states on eviction.
    skip_masks: Vec<ClassMask>,
    /// Flat arena of materialized det marker rows, sorted by marker set
    /// within each row (deterministic capture order).
    var_pairs: Vec<(MarkerSet, StateId)>,
    /// Subset key → det state id.
    index: HashMap<Box<[u32]>, u32>,
    /// Second-chance reference bits: `hot[q]` is set when `q` is stepped and
    /// cleared on eviction, so [`EvictionPolicy::Segmented`] keeps exactly
    /// the states referenced since the previous eviction.
    hot: Vec<bool>,
    /// Approximate bytes held by states, rows and index entries.
    bytes: usize,
    clears: u64,
    states_interned: u64,
    // Reusable scratch (retained like everything else).
    set_scratch: SparseSet,
    key_scratch: Vec<u32>,
    group_scratch: Vec<(MarkerSet, u32)>,
    row_scratch: Vec<(MarkerSet, StateId)>,
    target_scratch: Vec<u32>,
    evict_keys: Vec<u32>,
    evict_offsets: Vec<u32>,
    evict_remap: Vec<u32>,
    evict_rows: Vec<(MarkerSet, StateId)>,
}

impl Default for LazyCache {
    fn default() -> Self {
        LazyCache {
            seva_id: 0,
            ncls: 0,
            budget: usize::MAX,
            policy: EvictionPolicy::ClearRestart,
            key_offsets: Vec::new(),
            keys: Vec::new(),
            finals: Vec::new(),
            var_starts: Vec::new(),
            var_lens: Vec::new(),
            letter_rows: Vec::new(),
            skip_rows: Vec::new(),
            skip_masks: Vec::new(),
            var_pairs: Vec::new(),
            index: HashMap::new(),
            hot: Vec::new(),
            bytes: 0,
            clears: 0,
            states_interned: 0,
            set_scratch: SparseSet::new(0),
            key_scratch: Vec::new(),
            group_scratch: Vec::new(),
            row_scratch: Vec::new(),
            target_scratch: Vec::new(),
            evict_keys: Vec::new(),
            evict_offsets: Vec::new(),
            evict_remap: Vec::new(),
            evict_rows: Vec::new(),
        }
    }
}

impl LazyCache {
    /// An unbound cache; it binds to the first automaton it is used with.
    pub fn new() -> LazyCache {
        LazyCache::default()
    }

    /// Number of deterministic subset states currently interned.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.finals.len()
    }

    /// Approximate bytes currently held (states + rows + index entries).
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// How many clear-and-restart evictions have happened over the cache's
    /// lifetime (across rebinds it resets to zero).
    #[inline]
    pub fn clear_count(&self) -> u64 {
        self.clears
    }

    /// Total subset states interned over the cache's lifetime, including
    /// states re-created after evictions — `states_interned() - num_states()`
    /// measures determinization work wasted to thrashing.
    #[inline]
    pub fn states_interned(&self) -> u64 {
        self.states_interned
    }

    /// The byte budget inherited from the bound automaton's [`LazyConfig`].
    #[inline]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Capacity snapshot of every internal buffer, for allocation-retention
    /// assertions (the lazy analogue of the E1b arena-capacity checks): in
    /// steady state — warm cache, no evictions — repeated evaluation must
    /// leave this signature unchanged.
    pub fn capacity_signature(&self) -> CapacitySignature {
        CapacitySignature([
            self.keys.capacity(),
            self.key_offsets.capacity(),
            self.finals.capacity(),
            self.letter_rows.capacity(),
            self.skip_rows.capacity(),
            self.skip_masks.capacity(),
            self.var_pairs.capacity(),
            self.index.capacity(),
            0,
            0,
        ])
    }

    /// Determinization work wasted to clear-and-restart eviction:
    /// `states_interned() - num_states()`, i.e. how many subset states were
    /// built more than once over the cache's lifetime. Zero on a cache whose
    /// budget covers its working set; large values mean the budget is below
    /// the working-set size and eviction tuning is warranted.
    #[inline]
    pub fn wasted_states(&self) -> u64 {
        self.states_interned - self.num_states() as u64
    }

    /// Snapshots this cache into an immutable, shareable [`FrozenCache`].
    ///
    /// The snapshot captures every subset state, every filled transition row
    /// (entries not yet stepped stay "unknown" and are computed by each
    /// worker's [`FrozenDelta`] on demand), the skip metadata, and the
    /// interning index. `seva` must be the automaton this cache is bound to;
    /// an unbound (never used) cache freezes into an empty snapshot, which is
    /// valid — every state then lives in the deltas.
    ///
    /// # Panics
    ///
    /// Panics if the cache is bound to a *different* automaton.
    pub fn freeze(&self, seva: &LazyDetSeva) -> FrozenCache {
        assert!(
            self.seva_id == seva.id || self.seva_id == 0,
            "LazyCache::freeze: cache is bound to a different automaton"
        );
        let ncls = seva.ncls;
        if self.seva_id == 0 {
            return FrozenCache {
                id: NEXT_SEVA_ID.fetch_add(1, Ordering::Relaxed),
                seva_id: seva.id,
                ncls,
                key_offsets: vec![0],
                keys: Vec::new(),
                finals: Vec::new(),
                var_starts: Vec::new(),
                var_lens: Vec::new(),
                letter_rows: Vec::new(),
                skip_rows: Vec::new(),
                skip_masks: Vec::new(),
                var_pairs: Vec::new(),
                index: HashMap::new(),
                slp_memo: None,
            };
        }
        FrozenCache {
            id: NEXT_SEVA_ID.fetch_add(1, Ordering::Relaxed),
            seva_id: self.seva_id,
            ncls: self.ncls,
            key_offsets: self.key_offsets.clone(),
            keys: self.keys.clone(),
            finals: self.finals.clone(),
            var_starts: self.var_starts.clone(),
            var_lens: self.var_lens.clone(),
            letter_rows: self.letter_rows.clone(),
            skip_rows: self.skip_rows.clone(),
            skip_masks: self.skip_masks.clone(),
            var_pairs: self.var_pairs.clone(),
            index: self.index.clone(),
            slp_memo: None,
        }
    }

    /// Binds the cache to `seva`, resetting it if it was bound to a
    /// different automaton.
    pub fn bind(&mut self, seva: &LazyDetSeva) {
        if self.seva_id == seva.id {
            return;
        }
        self.seva_id = seva.id;
        self.ncls = seva.ncls;
        self.budget = seva.config.memory_budget;
        self.policy = seva.config.eviction;
        self.clears = 0;
        self.states_interned = 0;
        self.set_scratch.reset(seva.num_nfa_states);
        self.clear_states();
    }

    /// Overrides the byte budget for subsequent maintenance checks (one-off
    /// degradation retries and deterministic fault injection). [`bind`] to a
    /// *different* automaton resets the budget back to that automaton's
    /// [`LazyConfig`]; rebinding the same automaton keeps the override, so
    /// callers that want it one-off must restore it themselves.
    ///
    /// [`bind`]: LazyCache::bind
    pub(crate) fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
    }

    /// Drops every interned state and row, keeping allocated capacity.
    fn clear_states(&mut self) {
        self.key_offsets.clear();
        self.key_offsets.push(0);
        self.keys.clear();
        self.finals.clear();
        self.var_starts.clear();
        self.var_lens.clear();
        self.letter_rows.clear();
        self.skip_rows.clear();
        self.skip_masks.clear();
        self.var_pairs.clear();
        self.index.clear();
        self.hot.clear();
        self.bytes = 0;
    }

    /// Approximate bytes a fresh state with a `key_len`-element subset key
    /// costs: the key is stored twice (arena + index), the letter/skip rows
    /// and the skippable-class mask are allocated eagerly per state (so cache
    /// hits never allocate), and the index entry carries hash-map overhead.
    #[inline]
    fn state_cost(&self, key_len: usize) -> usize {
        key_len * 8 + self.ncls * 5 + std::mem::size_of::<ClassMask>() + 64
    }

    #[inline]
    fn key_range(&self, q: usize) -> (usize, usize) {
        (self.key_offsets[q] as usize, self.key_offsets[q + 1] as usize)
    }

    /// Looks up or creates the det state for the (sorted) subset `key`.
    fn intern(&mut self, key: &[u32], seva: &LazyDetSeva) -> u32 {
        if let Some(&id) = self.index.get(key) {
            return id;
        }
        let id = self.finals.len();
        assert!(id < (UNKNOWN as usize) - 1, "lazy determinizer exhausted the u32 id space");
        self.keys.extend_from_slice(key);
        self.key_offsets.push(self.keys.len() as u32);
        self.finals.push(key.iter().any(|&q| seva.nfa_finals[q as usize]));
        self.var_starts.push(VARS_UNMATERIALIZED);
        self.var_lens.push(0);
        self.letter_rows.resize(self.letter_rows.len() + self.ncls, UNKNOWN);
        self.skip_rows.resize(self.skip_rows.len() + self.ncls, SKIP_UNKNOWN);
        self.skip_masks.push(ClassMask::empty());
        self.hot.push(false);
        self.index.insert(key.into(), id as u32);
        self.bytes += self.state_cost(key.len());
        self.states_interned += 1;
        id as u32
    }

    /// The det state of the subset `{initial}` (interning it on first use).
    fn start_state(&mut self, seva: &LazyDetSeva) -> StateId {
        let id = self.intern(&[seva.initial], seva) as StateId;
        self.hot[id] = true;
        id
    }

    /// The memoized skippable-class bitset of `q`: exactly the `SKIP_YES`
    /// entries computed so far (a pure read — see [`Stepper::skip_mask`]).
    #[inline]
    fn skip_mask(&self, q: StateId) -> ClassMask {
        self.skip_masks[q]
    }

    /// Lazy `δ(q, cls)`: fills the letter-row entry on first use.
    fn step_class(&mut self, seva: &LazyDetSeva, q: StateId, cls: usize) -> Option<StateId> {
        self.hot[q] = true;
        let slot = q * self.ncls + cls;
        let t = self.letter_rows[slot];
        if t == NO_TARGET {
            return None;
        }
        if t != UNKNOWN {
            return Some(t as StateId);
        }
        // First step of this (state, class): union the NFA targets of every
        // subset member, intern the resulting subset, memoize.
        self.set_scratch.clear();
        let (a, b) = self.key_range(q);
        for i in a..b {
            let nq = self.keys[i] as usize;
            for &t in seva.letter_targets(nq, cls) {
                self.set_scratch.insert(t as usize);
            }
        }
        if self.set_scratch.is_empty() {
            self.letter_rows[slot] = NO_TARGET;
            return None;
        }
        let mut ks = std::mem::take(&mut self.key_scratch);
        ks.clear();
        ks.extend_from_slice(self.set_scratch.as_slice());
        ks.sort_unstable();
        let id = self.intern(&ks, seva);
        self.key_scratch = ks;
        self.letter_rows[slot] = id;
        Some(id as StateId)
    }

    /// Materializes the marker row of `q` (grouping the subset members'
    /// variable transitions by marker set, interning each target subset) and
    /// returns its `(start, len)` extent in the row arena.
    fn materialize_vars(&mut self, seva: &LazyDetSeva, q: StateId) -> (u32, u32) {
        let start = self.var_starts[q];
        if start != VARS_UNMATERIALIZED {
            return (start, self.var_lens[q]);
        }
        let mut groups = std::mem::take(&mut self.group_scratch);
        groups.clear();
        let (a, b) = self.key_range(q);
        for i in a..b {
            let nq = self.keys[i] as usize;
            groups.extend_from_slice(seva.var_pairs_of(nq));
        }
        // Group by marker set; targets of one group become one subset state.
        // The sort also fixes a deterministic (marker-set-ordered) capture
        // order, independent of subset member order.
        groups.sort_unstable();
        groups.dedup();
        let mut row = std::mem::take(&mut self.row_scratch);
        let mut ks = std::mem::take(&mut self.key_scratch);
        row.clear();
        let mut i = 0;
        while i < groups.len() {
            let markers = groups[i].0;
            ks.clear();
            while i < groups.len() && groups[i].0 == markers {
                ks.push(groups[i].1);
                i += 1;
            }
            // Sorted and deduplicated already (inherited from `groups`).
            let id = self.intern(&ks, seva);
            row.push((markers, id as StateId));
        }
        let start = self.var_pairs.len() as u32;
        let len = row.len() as u32;
        self.var_pairs.extend_from_slice(&row);
        self.var_starts[q] = start;
        self.var_lens[q] = len;
        self.bytes += row.len() * std::mem::size_of::<(MarkerSet, StateId)>();
        self.group_scratch = groups;
        self.row_scratch = row;
        self.key_scratch = ks;
        (start, len)
    }

    /// Lazy `Markers_δ(q)` with targets.
    fn markers_from(&mut self, seva: &LazyDetSeva, q: StateId) -> &[(MarkerSet, StateId)] {
        let (start, len) = self.materialize_vars(seva, q);
        &self.var_pairs[start as usize..(start + len) as usize]
    }

    /// Lazy `has_markers(q)` — materializes the row on first use.
    fn has_markers(&mut self, seva: &LazyDetSeva, q: StateId) -> bool {
        self.materialize_vars(seva, q).1 != 0
    }

    /// Lazy `run_skippable(q, cls)` — derives (and memoizes) the same
    /// per-(state, class) predicate the eager compiler precomputes: `q`
    /// self-loops on `cls` and every marker target of `q` dies on `cls`.
    fn run_skippable(&mut self, seva: &LazyDetSeva, q: StateId, cls: usize) -> bool {
        match self.skip_rows[q * self.ncls + cls] {
            SKIP_YES => return true,
            SKIP_NO => return false,
            _ => {}
        }
        let skip = self.compute_skippable(seva, q, cls);
        // Note: `compute_skippable` may intern states, growing `skip_rows`
        // at the end — the slot index for `q` is unaffected.
        self.skip_rows[q * self.ncls + cls] = if skip { SKIP_YES } else { SKIP_NO };
        if skip {
            // Keep the per-state mask in lockstep with the SKIP_YES memo so
            // the scanning engine sees every learned entry.
            self.skip_masks[q].insert(cls);
        }
        skip
    }

    fn compute_skippable(&mut self, seva: &LazyDetSeva, q: StateId, cls: usize) -> bool {
        if self.step_class(seva, q, cls) != Some(q) {
            return false;
        }
        let (start, len) = self.materialize_vars(seva, q);
        let mut targets = std::mem::take(&mut self.target_scratch);
        targets.clear();
        targets.extend(
            self.var_pairs[start as usize..(start + len) as usize].iter().map(|&(_, p)| p as u32),
        );
        let mut skip = true;
        for &p in &targets {
            if self.step_class(seva, p as StateId, cls).is_some() {
                skip = false;
                break;
            }
        }
        self.target_scratch = targets;
        skip
    }

    /// Evicts per the configured [`EvictionPolicy`], rewriting the engine's
    /// `live` ids in place. Always returns `true` (an eviction happened).
    fn evict(&mut self, seva: &LazyDetSeva, live: &mut [u32]) -> bool {
        match self.policy {
            EvictionPolicy::ClearRestart => self.evict_clear_restart(seva, live),
            EvictionPolicy::Segmented => self.evict_segmented(live),
        }
    }

    /// Clear-and-restart eviction: forget everything, re-intern exactly the
    /// `live` states (their subset keys survive the clear via a scratch
    /// snapshot) and rewrite each live id in place. Row contents — including
    /// skip metadata — are recomputed on demand after the restart.
    fn evict_clear_restart(&mut self, seva: &LazyDetSeva, live: &mut [u32]) -> bool {
        let mut ek = std::mem::take(&mut self.evict_keys);
        let mut eo = std::mem::take(&mut self.evict_offsets);
        ek.clear();
        eo.clear();
        eo.push(0);
        for &q in live.iter() {
            let (a, b) = self.key_range(q as usize);
            ek.extend_from_slice(&self.keys[a..b]);
            eo.push(ek.len() as u32);
        }
        self.clear_states();
        for (k, q) in live.iter_mut().enumerate() {
            let key = &ek[eo[k] as usize..eo[k + 1] as usize];
            *q = self.intern(key, seva);
        }
        self.clears += 1;
        self.evict_keys = ek;
        self.evict_offsets = eo;
        true
    }

    /// Segmented second-chance eviction: keep the engine's `live` states
    /// (mandatory) plus hot states — those stepped since the previous
    /// eviction — admitted in id order until the survivors cost half the
    /// budget, then compact every per-state array **in place**. Surviving
    /// states keep their subset keys, final flags, skip metadata and (when
    /// every target also survives) their materialized marker rows, so a warm
    /// working set shared across tenants is not rebuilt from scratch after
    /// each eviction. Letter entries pointing at dropped states revert to
    /// *unknown* and are recomputed on demand. Hot bits reset: a survivor
    /// must be referenced again to survive the next eviction.
    ///
    /// The half-budget target leaves headroom so consecutive maintenance
    /// calls always reclaim memory; like clear-and-restart, the live set is
    /// admitted unconditionally, so budgets below one position's working set
    /// merely thrash (the engines' clear guard still applies, via the same
    /// `maintain → note_clear` path).
    ///
    /// [`FrozenDelta`] keeps plain clear-and-restart: its base states live in
    /// the immutable snapshot, so per-worker overflow is cheap to rebuild.
    fn evict_segmented(&mut self, live: &mut [u32]) -> bool {
        // Remap-table sentinels; real ids are `< UNKNOWN - 1` (see `intern`).
        const DROPPED: u32 = u32::MAX;
        const KEEP: u32 = u32::MAX - 1;
        let n = self.finals.len();
        let pair = std::mem::size_of::<(MarkerSet, StateId)>();
        let mut remap = std::mem::take(&mut self.evict_remap);
        remap.clear();
        remap.resize(n, DROPPED);
        let mut retained = 0usize;
        for &q in live.iter() {
            let q = q as usize;
            if remap[q] == DROPPED {
                remap[q] = KEEP;
                let (a, b) = self.key_range(q);
                retained += self.state_cost(b - a);
            }
        }
        let target = self.budget / 2;
        for (q, slot) in remap.iter_mut().enumerate() {
            if *slot != DROPPED || !self.hot[q] {
                continue;
            }
            let (a, b) = self.key_range(q);
            let cost = self.state_cost(b - a) + self.var_lens[q] as usize * pair;
            if retained + cost > target {
                continue;
            }
            *slot = KEEP;
            retained += cost;
        }
        // Survivors get new ids in old-id order, so `new_id <= old_id` and
        // the forward in-place compaction below never reads a slot it has
        // already overwritten.
        let mut kept = 0u32;
        for slot in remap.iter_mut() {
            if *slot != DROPPED {
                *slot = kept;
                kept += 1;
            }
        }
        let kept = kept as usize;
        let mut rows = std::mem::take(&mut self.evict_rows);
        rows.clear();
        let mut w_key = 0usize;
        let mut bytes = 0usize;
        for q in 0..n {
            if remap[q] == DROPPED {
                continue;
            }
            let nq = remap[q] as usize;
            let (a, b) = self.key_range(q);
            self.keys.copy_within(a..b, w_key);
            w_key += b - a;
            self.key_offsets[nq + 1] = w_key as u32;
            self.finals[nq] = self.finals[q];
            // Skip metadata is a property of the subset's *contents* (does it
            // self-loop, do its marker targets die), independent of state
            // ids, so memoized entries and the mirror mask carry over
            // verbatim and stay in lockstep.
            self.skip_masks[nq] = self.skip_masks[q];
            self.hot[nq] = false;
            for cls in 0..self.ncls {
                let t = self.letter_rows[q * self.ncls + cls];
                self.letter_rows[nq * self.ncls + cls] = if t == NO_TARGET {
                    NO_TARGET
                } else if t == UNKNOWN || remap[t as usize] == DROPPED {
                    UNKNOWN
                } else {
                    remap[t as usize]
                };
                self.skip_rows[nq * self.ncls + cls] = self.skip_rows[q * self.ncls + cls];
            }
            let start = self.var_starts[q];
            let len = self.var_lens[q] as usize;
            if start != VARS_UNMATERIALIZED
                && self.var_pairs[start as usize..start as usize + len]
                    .iter()
                    .all(|&(_, p)| remap[p] != DROPPED)
            {
                let rs = rows.len() as u32;
                rows.extend(
                    self.var_pairs[start as usize..start as usize + len]
                        .iter()
                        .map(|&(m, p)| (m, remap[p] as StateId)),
                );
                self.var_starts[nq] = rs;
                self.var_lens[nq] = len as u32;
                bytes += len * pair;
            } else {
                // Not yet materialized, or some target was dropped: the whole
                // row is recomputed on demand (rows are all-or-nothing).
                self.var_starts[nq] = VARS_UNMATERIALIZED;
                self.var_lens[nq] = 0;
            }
            bytes += self.state_cost(b - a);
        }
        self.keys.truncate(w_key);
        self.key_offsets.truncate(kept + 1);
        self.finals.truncate(kept);
        self.var_starts.truncate(kept);
        self.var_lens.truncate(kept);
        self.letter_rows.truncate(kept * self.ncls);
        self.skip_rows.truncate(kept * self.ncls);
        self.skip_masks.truncate(kept);
        self.hot.truncate(kept);
        std::mem::swap(&mut self.var_pairs, &mut rows);
        // The old arena becomes the next eviction's scratch (capacity kept).
        self.evict_rows = rows;
        self.index.retain(|_, v| remap[*v as usize] != DROPPED);
        for v in self.index.values_mut() {
            *v = remap[*v as usize];
        }
        self.bytes = bytes;
        self.clears += 1;
        for q in live.iter_mut() {
            *q = remap[*q as usize];
        }
        self.evict_remap = remap;
        true
    }
}

/// The pairing of a [`LazyDetSeva`] with a [`LazyCache`] that implements
/// [`Stepper`] — what the evaluation engines actually drive.
///
/// Constructing one binds (and if necessary resets) the cache to the
/// automaton. The stepper borrows both halves for the duration of one
/// evaluation; ids it hands out index the cache.
#[derive(Debug)]
pub struct LazyStepper<'a> {
    seva: &'a LazyDetSeva,
    cache: &'a mut LazyCache,
}

impl<'a> LazyStepper<'a> {
    /// Pairs an automaton with a cache, binding the cache first.
    pub fn new(seva: &'a LazyDetSeva, cache: &'a mut LazyCache) -> Self {
        cache.bind(seva);
        LazyStepper { seva, cache }
    }
}

impl Stepper for LazyStepper<'_> {
    #[inline]
    fn state_bound(&self) -> usize {
        self.cache.num_states()
    }

    #[inline]
    fn start_state(&mut self) -> StateId {
        self.cache.start_state(self.seva)
    }

    #[inline]
    fn is_final(&self, q: StateId) -> bool {
        self.cache.finals[q]
    }

    #[inline]
    fn byte_class(&self, byte: u8) -> usize {
        self.seva.partition.class_of(byte)
    }

    #[inline]
    fn partition(&self) -> &AlphabetPartition {
        &self.seva.partition
    }

    #[inline]
    fn classify_document(&self, doc: &Document, out: &mut Vec<u8>) {
        self.seva.partition.classify_into(doc.bytes(), out);
    }

    #[inline]
    fn step_class(&mut self, q: StateId, cls: usize) -> Option<StateId> {
        self.cache.step_class(self.seva, q, cls)
    }

    #[inline]
    fn has_markers(&mut self, q: StateId) -> bool {
        self.cache.has_markers(self.seva, q)
    }

    #[inline]
    fn markers_from(&mut self, q: StateId) -> &[(MarkerSet, StateId)] {
        self.cache.markers_from(self.seva, q)
    }

    #[inline]
    fn run_skippable(&mut self, q: StateId, cls: usize) -> bool {
        self.cache.run_skippable(self.seva, q, cls)
    }

    #[inline]
    fn skip_mask(&mut self, q: StateId) -> ClassMask {
        self.cache.skip_mask(q)
    }

    #[inline]
    fn wants_maintenance(&self) -> bool {
        self.cache.bytes > self.cache.budget
    }

    #[inline]
    fn maintain(&mut self, live: &mut [u32]) -> bool {
        self.cache.evict(self.seva, live)
    }
}

/// Approximate bytes of one hash-map override entry in a [`FrozenDelta`]
/// (key + value + bucket overhead) — the frozen analogue of the index-entry
/// share of [`LazyCache::state_cost`].
const OVERRIDE_COST: usize = 24;

/// An immutable snapshot of a warm [`LazyCache`]: every subset state,
/// transition row and skip entry discovered up to the freeze point, in the
/// same CSR layout, with the interning index retained for key lookups.
///
/// A `FrozenCache` has no interior mutability, so it is `Send + Sync` and can
/// be shared by plain reference (e.g. across [`std::thread::scope`] workers)
/// or `std::sync::Arc`. Rows the warm cache had not yet filled stay *unknown*
/// in the snapshot; each worker computes those — and any subset state first
/// discovered after the freeze — inside its own private [`FrozenDelta`].
/// Create snapshots with [`LazyCache::freeze`]; drive them through
/// [`FrozenStepper`].
#[derive(Debug, Clone)]
pub struct FrozenCache {
    /// Identity of this snapshot (deltas bind to it: state ids above the
    /// frozen range are meaningful only relative to one specific freeze).
    id: u64,
    /// Identity of the [`LazyDetSeva`] the snapshotted cache was bound to.
    seva_id: u64,
    ncls: usize,
    key_offsets: Vec<u32>,
    keys: Vec<u32>,
    finals: Vec<bool>,
    var_starts: Vec<u32>,
    var_lens: Vec<u32>,
    letter_rows: Vec<u32>,
    skip_rows: Vec<u8>,
    /// Immutable per-state skippable-class masks (the memoized `SKIP_YES`
    /// bits at freeze time), shared read-only by every worker exactly like
    /// the rows — `Send + Sync` because nothing here mutates.
    skip_masks: Vec<ClassMask>,
    var_pairs: Vec<(MarkerSet, StateId)>,
    index: HashMap<Box<[u32]>, u32>,
    /// Warm SLP memo rows computed against the pre-freeze cache (state ids
    /// are preserved by freezing, so the rows remain valid here), shared
    /// read-only by every worker's [`crate::SlpEvaluator`]. Attached by
    /// [`crate::CompiledSpanner::freeze_warm_slp`]; `None` on plain freezes.
    slp_memo: Option<std::sync::Arc<crate::slp::SlpSharedMemo>>,
}

impl FrozenCache {
    /// A unique identity for delta-binding checks.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Identity of the [`LazyDetSeva`] this snapshot belongs to.
    #[inline]
    pub fn seva_id(&self) -> u64 {
        self.seva_id
    }

    /// Number of frozen subset states. Worker deltas hand out ids starting
    /// here.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.finals.len()
    }

    /// Approximate bytes held by the snapshot (states, rows, index).
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * 8
            + self.key_offsets.len() * 4
            + self.finals.len()
            + self.letter_rows.len() * 4
            + self.skip_rows.len()
            + self.skip_masks.len() * std::mem::size_of::<ClassMask>()
            + self.var_starts.len() * 8
            + self.var_pairs.len() * std::mem::size_of::<(MarkerSet, StateId)>()
            + self.index.len() * 48
            + self.slp_memo.as_ref().map_or(0, |m| m.memory_bytes())
    }

    /// Attaches a warm SLP memo snapshot (see
    /// [`crate::CompiledSpanner::freeze_warm_slp`]).
    pub(crate) fn set_slp_memo(&mut self, memo: std::sync::Arc<crate::slp::SlpSharedMemo>) {
        self.slp_memo = Some(memo);
    }

    /// The attached warm SLP memo, if any.
    pub fn slp_memo(&self) -> Option<&std::sync::Arc<crate::slp::SlpSharedMemo>> {
        self.slp_memo.as_ref()
    }

    /// A fresh per-worker overflow delta bound to this snapshot.
    pub fn create_delta(&self, seva: &LazyDetSeva) -> FrozenDelta {
        let mut delta = FrozenDelta::default();
        delta.bind(self, seva);
        delta
    }

    /// Thaws the snapshot back into a mutable [`LazyCache`] holding exactly
    /// the frozen states and rows — the starting point of a re-freeze
    /// generation when no delta evidence is available.
    pub fn thaw(&self, seva: &LazyDetSeva) -> LazyCache {
        self.thaw_with(None, seva)
    }

    /// Thaws the snapshot **merged with one worker's overflow delta** into a
    /// mutable [`LazyCache`]: the generational re-freeze path. The merged
    /// cache holds every frozen state plus every delta overflow state (ids
    /// preserved — delta-local states already carry absolute ids), with the
    /// delta's row/skip/marker overrides folded into the flat rows and the
    /// delta's skippable-class mask overrides replacing the frozen masks, so
    /// scan coverage learned since the freeze is carried forward into the
    /// next generation instead of being rediscovered from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is bound to a different snapshot, or `seva` is not
    /// the automaton this snapshot was frozen from.
    pub fn thaw_merged(&self, delta: &FrozenDelta, seva: &LazyDetSeva) -> LazyCache {
        assert_eq!(
            delta.frozen_id, self.id,
            "FrozenCache::thaw_merged: delta is bound to a different snapshot"
        );
        self.thaw_with(Some(delta), seva)
    }

    fn thaw_with(&self, delta: Option<&FrozenDelta>, seva: &LazyDetSeva) -> LazyCache {
        assert_eq!(
            self.seva_id, seva.id,
            "FrozenCache::thaw: snapshot belongs to a different automaton"
        );
        let ncls = self.ncls;
        let frozen_keys = self.keys.len() as u32;
        let frozen_pairs = self.var_pairs.len() as u32;

        let mut key_offsets = self.key_offsets.clone();
        let mut keys = self.keys.clone();
        let mut finals = self.finals.clone();
        let mut var_starts = self.var_starts.clone();
        let mut var_lens = self.var_lens.clone();
        let mut letter_rows = self.letter_rows.clone();
        let mut skip_rows = self.skip_rows.clone();
        let mut skip_masks = self.skip_masks.clone();
        let mut var_pairs = self.var_pairs.clone();
        let mut index = self.index.clone();

        if let Some(d) = delta {
            // Overrides of frozen states' unknown slots fold into the rows.
            for (&slot, &t) in &d.letter_overrides {
                letter_rows[slot as usize] = t;
            }
            for (&slot, &s) in &d.skip_overrides {
                skip_rows[slot as usize] = if s { SKIP_YES } else { SKIP_NO };
            }
            // Mask overrides were seeded from the frozen mask, so replacing
            // (not or-ing) carries every memoized bit forward.
            for (&q, &m) in &d.mask_overrides {
                skip_masks[q as usize] = m;
            }
            for (&q, &(start, len)) in &d.var_overrides {
                var_starts[q as usize] = start + frozen_pairs;
                var_lens[q as usize] = len;
            }
            // Overflow states append verbatim: their ids are already absolute
            // (base = frozen state count), so rows and index entries are
            // valid in the merged numbering without rewriting.
            key_offsets.extend(d.key_offsets.iter().skip(1).map(|&o| o + frozen_keys));
            keys.extend_from_slice(&d.keys);
            finals.extend_from_slice(&d.finals);
            var_starts.extend(d.var_starts.iter().map(|&s| {
                if s == VARS_UNMATERIALIZED {
                    s
                } else {
                    s + frozen_pairs
                }
            }));
            var_lens.extend_from_slice(&d.var_lens);
            letter_rows.extend_from_slice(&d.letter_rows);
            skip_rows.extend_from_slice(&d.skip_rows);
            skip_masks.extend_from_slice(&d.skip_masks);
            var_pairs.extend_from_slice(&d.var_pairs);
            for (key, &id) in &d.index {
                index.insert(key.clone(), id);
            }
        }

        let mut cache = LazyCache {
            seva_id: self.seva_id,
            ncls,
            budget: seva.config.memory_budget,
            key_offsets,
            keys,
            finals,
            var_starts,
            var_lens,
            letter_rows,
            skip_rows,
            skip_masks,
            var_pairs,
            index,
            bytes: 0,
            clears: 0,
            states_interned: 0,
            ..LazyCache::default()
        };
        cache.states_interned = cache.num_states() as u64;
        cache.policy = seva.config.eviction;
        // Thawed states start cold: they must be referenced to survive a
        // segmented eviction, exactly like freshly interned states.
        cache.hot.resize(cache.num_states(), false);
        cache.set_scratch.reset(seva.num_nfa_states);
        // Rebuild the byte accounting the way interning + materialization
        // would have: per-state cost plus the materialized marker rows.
        let mut bytes = 0;
        for q in 0..cache.num_states() {
            let (a, b) = cache.key_range(q);
            bytes += cache.state_cost(b - a);
            if cache.var_starts[q] != VARS_UNMATERIALIZED {
                bytes += cache.var_lens[q] as usize * std::mem::size_of::<(MarkerSet, StateId)>();
            }
        }
        cache.bytes = bytes;
        cache
    }
}

/// The per-worker mutable half of the frozen/delta split: subset states and
/// transition rows first needed *after* the freeze.
///
/// A delta owns three kinds of overflow, all retained-capacity buffers:
///
/// * **local states** — subsets absent from the frozen snapshot, with ids
///   `frozen.num_states()..` and the same lazily filled row layout as a
///   [`LazyCache`];
/// * **row overrides** — letter/skip/marker entries of *frozen* states whose
///   slot was still unknown at freeze time (small hash maps keyed by slot);
/// * **scratch** — the reusable buffers of the subset construction.
///
/// Deltas are scratch state: [`FrozenStepper::new`] resets the contents
/// (keeping capacity) at the start of every document, so an evaluation's
/// result — including enumeration order — is a pure function of the frozen
/// snapshot and the document, independent of worker scheduling. A byte budget
/// (inherited from the automaton's [`LazyConfig`]) bounds the delta exactly
/// like a [`LazyCache`]: on overflow the local states are cleared and the
/// engine's live states re-interned, frozen ids staying untouched.
///
/// The subset-construction methods below deliberately mirror [`LazyCache`]'s
/// (they differ in how a state id resolves to its key/row — frozen-then-local
/// with override maps vs. a single arena). **Algorithmic fixes to one must be
/// mirrored in the other**; `tests/batch_runtime.rs` pins the two paths
/// against each other byte for byte.
#[derive(Debug, Clone)]
pub struct FrozenDelta {
    frozen_id: u64,
    base: u32,
    ncls: usize,
    budget: usize,
    // Local states (absolute id = base + local index), LazyCache layout.
    key_offsets: Vec<u32>,
    keys: Vec<u32>,
    finals: Vec<bool>,
    var_starts: Vec<u32>,
    var_lens: Vec<u32>,
    letter_rows: Vec<u32>,
    skip_rows: Vec<u8>,
    /// Per-local-state skippable-class masks, mirroring `skip_rows` exactly
    /// like [`LazyCache::skip_masks`] — rebuilt on eviction with their states.
    skip_masks: Vec<ClassMask>,
    var_pairs: Vec<(MarkerSet, StateId)>,
    index: HashMap<Box<[u32]>, u32>,
    // Overrides for frozen states' unknown slots.
    letter_overrides: HashMap<u32, u32>,
    skip_overrides: HashMap<u32, bool>,
    var_overrides: HashMap<u32, (u32, u32)>,
    /// Frozen states whose skippable-class mask grew after the freeze: the
    /// frozen masks themselves are immutable and shared, so newly memoized
    /// `SKIP_YES` entries land here (keyed by frozen state id, seeded from
    /// the frozen mask). Cleared with the other overrides.
    mask_overrides: HashMap<u32, ClassMask>,
    bytes: usize,
    clears: u64,
    states_interned: u64,
    // Reusable scratch (retained like everything else).
    set_scratch: SparseSet,
    key_scratch: Vec<u32>,
    group_scratch: Vec<(MarkerSet, u32)>,
    row_scratch: Vec<(MarkerSet, StateId)>,
    target_scratch: Vec<u32>,
    evict_keys: Vec<u32>,
    evict_offsets: Vec<u32>,
}

impl Default for FrozenDelta {
    fn default() -> Self {
        FrozenDelta {
            frozen_id: 0,
            base: 0,
            ncls: 0,
            budget: usize::MAX,
            key_offsets: vec![0],
            keys: Vec::new(),
            finals: Vec::new(),
            var_starts: Vec::new(),
            var_lens: Vec::new(),
            letter_rows: Vec::new(),
            skip_rows: Vec::new(),
            skip_masks: Vec::new(),
            var_pairs: Vec::new(),
            index: HashMap::new(),
            letter_overrides: HashMap::new(),
            skip_overrides: HashMap::new(),
            var_overrides: HashMap::new(),
            mask_overrides: HashMap::new(),
            bytes: 0,
            clears: 0,
            states_interned: 0,
            set_scratch: SparseSet::new(0),
            key_scratch: Vec::new(),
            group_scratch: Vec::new(),
            row_scratch: Vec::new(),
            target_scratch: Vec::new(),
            evict_keys: Vec::new(),
            evict_offsets: Vec::new(),
        }
    }
}

impl FrozenDelta {
    /// An unbound delta; it binds to the first frozen snapshot it is used
    /// with (see [`FrozenStepper::new`]).
    pub fn new() -> FrozenDelta {
        FrozenDelta::default()
    }

    /// Identity of the [`FrozenCache`] this delta is bound to (zero when
    /// unbound) — the guard the re-freeze path checks before merging delta
    /// evidence into a new generation.
    #[inline]
    pub fn snapshot_id(&self) -> u64 {
        self.frozen_id
    }

    /// Number of *overflow* states currently held (subsets the frozen
    /// snapshot does not cover). Zero in the steady state of a well-warmed
    /// snapshot.
    #[inline]
    pub fn num_overflow_states(&self) -> usize {
        self.finals.len()
    }

    /// Overflow states interned over the delta's lifetime, including states
    /// re-created after per-document resets and evictions — the measure of
    /// determinization work the freeze failed to amortize.
    #[inline]
    pub fn states_interned(&self) -> u64 {
        self.states_interned
    }

    /// How many budget-driven clear-and-restart evictions have happened
    /// (per-document resets are not counted).
    #[inline]
    pub fn clear_count(&self) -> u64 {
        self.clears
    }

    /// Approximate bytes currently held by overflow states and overrides.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// Capacity snapshot of the delta's buffers, for allocation-retention
    /// assertions (mirrors [`LazyCache::capacity_signature`]).
    pub fn capacity_signature(&self) -> CapacitySignature {
        CapacitySignature([
            self.keys.capacity(),
            self.key_offsets.capacity(),
            self.finals.capacity(),
            self.letter_rows.capacity(),
            self.skip_rows.capacity(),
            self.skip_masks.capacity(),
            self.var_pairs.capacity(),
            self.index.capacity(),
            0,
            0,
        ])
    }

    /// Overrides the byte budget for subsequent maintenance checks (see
    /// [`LazyCache::set_budget`]).
    pub(crate) fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
    }

    /// Binds the delta to `frozen`, resetting it if it was bound to a
    /// different snapshot.
    pub(crate) fn bind(&mut self, frozen: &FrozenCache, seva: &LazyDetSeva) {
        assert_eq!(
            frozen.seva_id, seva.id,
            "FrozenStepper: snapshot belongs to a different automaton"
        );
        if self.frozen_id == frozen.id {
            return;
        }
        self.frozen_id = frozen.id;
        self.base = frozen.num_states() as u32;
        self.ncls = frozen.ncls;
        self.budget = seva.config.memory_budget;
        self.clears = 0;
        self.states_interned = 0;
        self.set_scratch.reset(seva.num_nfa_states);
        self.clear_local();
    }

    /// Sheds the delta for the global memory governor: drops every overflow
    /// state and override **and releases the backing allocations** (unlike
    /// the internal evictions, which keep capacity for reuse). Returns the
    /// bytes freed. The delta stays bound to its snapshot and remains fully
    /// usable — subsequent documents re-intern overflow states on demand,
    /// exactly as after a budget eviction.
    ///
    /// Lifetime counters ([`FrozenDelta::states_interned`],
    /// [`FrozenDelta::clear_count`]) are untouched: a governor shed is not a
    /// budget-driven eviction, so it never trips the per-document thrash
    /// guard.
    pub fn shed(&mut self) -> usize {
        let freed = self.bytes;
        self.clear_local();
        self.keys.shrink_to_fit();
        self.key_offsets.shrink_to_fit();
        self.finals.shrink_to_fit();
        self.var_starts.shrink_to_fit();
        self.var_lens.shrink_to_fit();
        self.letter_rows.shrink_to_fit();
        self.skip_rows.shrink_to_fit();
        self.skip_masks.shrink_to_fit();
        self.var_pairs.shrink_to_fit();
        self.index.shrink_to_fit();
        self.letter_overrides.shrink_to_fit();
        self.skip_overrides.shrink_to_fit();
        self.var_overrides.shrink_to_fit();
        self.mask_overrides.shrink_to_fit();
        freed
    }

    /// Drops every overflow state and override, keeping allocated capacity.
    fn clear_local(&mut self) {
        self.key_offsets.clear();
        self.key_offsets.push(0);
        self.keys.clear();
        self.finals.clear();
        self.var_starts.clear();
        self.var_lens.clear();
        self.letter_rows.clear();
        self.skip_rows.clear();
        self.skip_masks.clear();
        self.var_pairs.clear();
        self.index.clear();
        self.letter_overrides.clear();
        self.skip_overrides.clear();
        self.var_overrides.clear();
        self.mask_overrides.clear();
        self.bytes = 0;
    }

    /// Key extent of state `q`: `(lives_in_frozen, start, end)` into the
    /// owning arena's `keys`.
    #[inline]
    fn key_extent(&self, frozen: &FrozenCache, q: usize) -> (bool, usize, usize) {
        let base = self.base as usize;
        if q < base {
            (true, frozen.key_offsets[q] as usize, frozen.key_offsets[q + 1] as usize)
        } else {
            let lq = q - base;
            (false, self.key_offsets[lq] as usize, self.key_offsets[lq + 1] as usize)
        }
    }

    /// Looks up or creates the state for the (sorted) subset `key`: frozen
    /// states are found in the shared index, overflow states in the delta's.
    fn intern(&mut self, key: &[u32], frozen: &FrozenCache, seva: &LazyDetSeva) -> u32 {
        if let Some(&id) = frozen.index.get(key) {
            return id;
        }
        if let Some(&id) = self.index.get(key) {
            return id;
        }
        let id = self.base as usize + self.finals.len();
        assert!(
            id < (UNKNOWN as usize) - 1,
            "frozen-delta determinizer exhausted the u32 id space"
        );
        self.keys.extend_from_slice(key);
        self.key_offsets.push(self.keys.len() as u32);
        self.finals.push(key.iter().any(|&q| seva.nfa_finals[q as usize]));
        self.var_starts.push(VARS_UNMATERIALIZED);
        self.var_lens.push(0);
        self.letter_rows.resize(self.letter_rows.len() + self.ncls, UNKNOWN);
        self.skip_rows.resize(self.skip_rows.len() + self.ncls, SKIP_UNKNOWN);
        self.skip_masks.push(ClassMask::empty());
        self.index.insert(key.into(), id as u32);
        self.bytes += key.len() * 8 + self.ncls * 5 + std::mem::size_of::<ClassMask>() + 64;
        self.states_interned += 1;
        id as u32
    }

    /// The skippable-class bitset of `q` over the frozen/delta split: the
    /// shared frozen mask (plus any delta-local override) for frozen states,
    /// the delta-local mask for overflow states. A pure read, like
    /// [`LazyCache::skip_mask`].
    #[inline]
    fn skip_mask(&self, frozen: &FrozenCache, q: StateId) -> ClassMask {
        let base = self.base as usize;
        if q < base {
            match self.mask_overrides.get(&(q as u32)) {
                Some(&m) => m,
                None => frozen.skip_masks[q],
            }
        } else {
            self.skip_masks[q - base]
        }
    }

    /// Lazy `δ(q, cls)` over the frozen/delta split: frozen rows are flat
    /// loads; unknown frozen slots memoize into the override map; overflow
    /// states use delta-local rows.
    fn step_class(
        &mut self,
        frozen: &FrozenCache,
        seva: &LazyDetSeva,
        q: StateId,
        cls: usize,
    ) -> Option<StateId> {
        let base = self.base as usize;
        let cached = if q < base {
            frozen.letter_rows[q * self.ncls + cls]
        } else {
            self.letter_rows[(q - base) * self.ncls + cls]
        };
        match cached {
            NO_TARGET => return None,
            t if t != UNKNOWN => return Some(t as StateId),
            _ => {}
        }
        if q < base {
            if let Some(&t) = self.letter_overrides.get(&((q * self.ncls + cls) as u32)) {
                return if t == NO_TARGET { None } else { Some(t as StateId) };
            }
        }
        // First step of this (state, class) since the freeze: union the NFA
        // targets of every subset member, intern, memoize.
        self.set_scratch.clear();
        let (in_frozen, a, b) = self.key_extent(frozen, q);
        for i in a..b {
            let nq = (if in_frozen { frozen.keys[i] } else { self.keys[i] }) as usize;
            for &t in seva.letter_targets(nq, cls) {
                self.set_scratch.insert(t as usize);
            }
        }
        let target = if self.set_scratch.is_empty() {
            NO_TARGET
        } else {
            let mut ks = std::mem::take(&mut self.key_scratch);
            ks.clear();
            ks.extend_from_slice(self.set_scratch.as_slice());
            ks.sort_unstable();
            let id = self.intern(&ks, frozen, seva);
            self.key_scratch = ks;
            id
        };
        if q < base {
            self.letter_overrides.insert((q * self.ncls + cls) as u32, target);
            self.bytes += OVERRIDE_COST;
        } else {
            self.letter_rows[(q - base) * self.ncls + cls] = target;
        }
        if target == NO_TARGET {
            None
        } else {
            Some(target as StateId)
        }
    }

    /// Materializes the marker row of `q` into the delta arena (frozen states
    /// with a frozen row never reach here — see [`FrozenDelta::markers_row`]),
    /// returning its `(start, len)` extent.
    fn materialize_vars(
        &mut self,
        frozen: &FrozenCache,
        seva: &LazyDetSeva,
        q: StateId,
    ) -> (u32, u32) {
        let base = self.base as usize;
        if q < base {
            if let Some(&ext) = self.var_overrides.get(&(q as u32)) {
                return ext;
            }
            debug_assert_eq!(frozen.var_starts[q], VARS_UNMATERIALIZED);
        } else {
            let lq = q - base;
            if self.var_starts[lq] != VARS_UNMATERIALIZED {
                return (self.var_starts[lq], self.var_lens[lq]);
            }
        }
        let mut groups = std::mem::take(&mut self.group_scratch);
        groups.clear();
        let (in_frozen, a, b) = self.key_extent(frozen, q);
        for i in a..b {
            let nq = (if in_frozen { frozen.keys[i] } else { self.keys[i] }) as usize;
            groups.extend_from_slice(seva.var_pairs_of(nq));
        }
        groups.sort_unstable();
        groups.dedup();
        let mut row = std::mem::take(&mut self.row_scratch);
        let mut ks = std::mem::take(&mut self.key_scratch);
        row.clear();
        let mut i = 0;
        while i < groups.len() {
            let markers = groups[i].0;
            ks.clear();
            while i < groups.len() && groups[i].0 == markers {
                ks.push(groups[i].1);
                i += 1;
            }
            let id = self.intern(&ks, frozen, seva);
            row.push((markers, id as StateId));
        }
        let start = self.var_pairs.len() as u32;
        let len = row.len() as u32;
        self.var_pairs.extend_from_slice(&row);
        if q < base {
            self.var_overrides.insert(q as u32, (start, len));
            self.bytes += OVERRIDE_COST;
        } else {
            let lq = q - base;
            self.var_starts[lq] = start;
            self.var_lens[lq] = len;
        }
        self.bytes += row.len() * std::mem::size_of::<(MarkerSet, StateId)>();
        self.group_scratch = groups;
        self.row_scratch = row;
        self.key_scratch = ks;
        (start, len)
    }

    /// `Markers_δ(q)` with targets, reading the frozen row when it exists and
    /// the delta row (materializing it first) otherwise.
    fn markers_row<'s>(
        &'s mut self,
        frozen: &'s FrozenCache,
        seva: &LazyDetSeva,
        q: StateId,
    ) -> &'s [(MarkerSet, StateId)] {
        let base = self.base as usize;
        if q < base && frozen.var_starts[q] != VARS_UNMATERIALIZED {
            let start = frozen.var_starts[q] as usize;
            return &frozen.var_pairs[start..start + frozen.var_lens[q] as usize];
        }
        let (start, len) = self.materialize_vars(frozen, seva, q);
        &self.var_pairs[start as usize..(start + len) as usize]
    }

    /// Lazy `has_markers(q)` over the split.
    fn has_markers(&mut self, frozen: &FrozenCache, seva: &LazyDetSeva, q: StateId) -> bool {
        let base = self.base as usize;
        if q < base && frozen.var_starts[q] != VARS_UNMATERIALIZED {
            return frozen.var_lens[q] != 0;
        }
        self.materialize_vars(frozen, seva, q).1 != 0
    }

    /// Lazy `run_skippable(q, cls)` over the split (frozen skip entries are
    /// flat loads; unknown ones memoize into the override map).
    fn run_skippable(
        &mut self,
        frozen: &FrozenCache,
        seva: &LazyDetSeva,
        q: StateId,
        cls: usize,
    ) -> bool {
        let base = self.base as usize;
        let local = if q < base {
            match frozen.skip_rows[q * self.ncls + cls] {
                SKIP_YES => return true,
                SKIP_NO => return false,
                _ => {}
            }
            if let Some(&s) = self.skip_overrides.get(&((q * self.ncls + cls) as u32)) {
                return s;
            }
            None
        } else {
            match self.skip_rows[(q - base) * self.ncls + cls] {
                SKIP_YES => return true,
                SKIP_NO => return false,
                _ => {}
            }
            Some(q - base)
        };
        let skip = self.compute_skippable(frozen, seva, q, cls);
        match local {
            None => {
                self.skip_overrides.insert((q * self.ncls + cls) as u32, skip);
                self.bytes += OVERRIDE_COST;
                if skip {
                    // The frozen per-state mask is immutable; record the newly
                    // learned bit in a delta-local override seeded from it.
                    let mut mask = self
                        .mask_overrides
                        .get(&(q as u32))
                        .copied()
                        .unwrap_or(frozen.skip_masks[q]);
                    mask.insert(cls);
                    if self.mask_overrides.insert(q as u32, mask).is_none() {
                        self.bytes += OVERRIDE_COST + std::mem::size_of::<ClassMask>();
                    }
                }
            }
            Some(lq) => {
                // `compute_skippable` may intern states, growing `skip_rows`
                // at the end — the slot index for `lq` is unaffected.
                self.skip_rows[lq * self.ncls + cls] = if skip { SKIP_YES } else { SKIP_NO };
                if skip {
                    self.skip_masks[lq].insert(cls);
                }
            }
        }
        skip
    }

    fn compute_skippable(
        &mut self,
        frozen: &FrozenCache,
        seva: &LazyDetSeva,
        q: StateId,
        cls: usize,
    ) -> bool {
        if self.step_class(frozen, seva, q, cls) != Some(q) {
            return false;
        }
        let mut targets = std::mem::take(&mut self.target_scratch);
        targets.clear();
        targets.extend(self.markers_row(frozen, seva, q).iter().map(|&(_, p)| p as u32));
        let mut skip = true;
        for &p in &targets {
            if self.step_class(frozen, seva, p as StateId, cls).is_some() {
                skip = false;
                break;
            }
        }
        self.target_scratch = targets;
        skip
    }

    /// Clear-and-restart eviction of the *delta only*: overflow states and
    /// overrides are forgotten, live overflow states re-interned (their ids
    /// rewritten in place); frozen ids — immutable by construction — are left
    /// untouched, so the shared snapshot never churns.
    fn evict(&mut self, frozen: &FrozenCache, seva: &LazyDetSeva, live: &mut [u32]) -> bool {
        let base = self.base;
        let mut ek = std::mem::take(&mut self.evict_keys);
        let mut eo = std::mem::take(&mut self.evict_offsets);
        ek.clear();
        eo.clear();
        eo.push(0);
        for &q in live.iter() {
            if q >= base {
                let lq = (q - base) as usize;
                let (a, b) = (self.key_offsets[lq] as usize, self.key_offsets[lq + 1] as usize);
                ek.extend_from_slice(&self.keys[a..b]);
            }
            eo.push(ek.len() as u32);
        }
        self.clear_local();
        for (k, q) in live.iter_mut().enumerate() {
            if *q >= base {
                let key = &ek[eo[k] as usize..eo[k + 1] as usize];
                *q = self.intern(key, frozen, seva);
            }
        }
        self.clears += 1;
        self.evict_keys = ek;
        self.evict_offsets = eo;
        true
    }
}

/// The pairing of a shared [`FrozenCache`] with one worker's private
/// [`FrozenDelta`] (plus the immutable [`LazyDetSeva`]) that implements
/// [`Stepper`] — the parallel-serving counterpart of [`LazyStepper`].
///
/// Constructing one binds the delta to the snapshot (resetting it if it was
/// bound elsewhere) and then **resets the delta's contents** — capacity
/// retained — so the evaluation about to run depends only on the snapshot
/// and the document, never on what this worker processed before.
#[derive(Debug)]
pub struct FrozenStepper<'a> {
    seva: &'a LazyDetSeva,
    frozen: &'a FrozenCache,
    delta: &'a mut FrozenDelta,
}

impl<'a> FrozenStepper<'a> {
    /// Pairs the three halves, binding and resetting the delta first.
    pub fn new(seva: &'a LazyDetSeva, frozen: &'a FrozenCache, delta: &'a mut FrozenDelta) -> Self {
        delta.bind(frozen, seva);
        delta.clear_local();
        FrozenStepper { seva, frozen, delta }
    }
}

impl Stepper for FrozenStepper<'_> {
    #[inline]
    fn state_bound(&self) -> usize {
        self.frozen.num_states() + self.delta.num_overflow_states()
    }

    #[inline]
    fn start_state(&mut self) -> StateId {
        self.delta.intern(&[self.seva.initial], self.frozen, self.seva) as StateId
    }

    #[inline]
    fn is_final(&self, q: StateId) -> bool {
        let base = self.delta.base as usize;
        if q < base {
            self.frozen.finals[q]
        } else {
            self.delta.finals[q - base]
        }
    }

    #[inline]
    fn byte_class(&self, byte: u8) -> usize {
        self.seva.partition.class_of(byte)
    }

    #[inline]
    fn partition(&self) -> &AlphabetPartition {
        &self.seva.partition
    }

    #[inline]
    fn classify_document(&self, doc: &Document, out: &mut Vec<u8>) {
        self.seva.partition.classify_into(doc.bytes(), out);
    }

    #[inline]
    fn step_class(&mut self, q: StateId, cls: usize) -> Option<StateId> {
        self.delta.step_class(self.frozen, self.seva, q, cls)
    }

    #[inline]
    fn has_markers(&mut self, q: StateId) -> bool {
        self.delta.has_markers(self.frozen, self.seva, q)
    }

    #[inline]
    fn markers_from(&mut self, q: StateId) -> &[(MarkerSet, StateId)] {
        self.delta.markers_row(self.frozen, self.seva, q)
    }

    #[inline]
    fn run_skippable(&mut self, q: StateId, cls: usize) -> bool {
        self.delta.run_skippable(self.frozen, self.seva, q, cls)
    }

    #[inline]
    fn skip_mask(&mut self, q: StateId) -> ClassMask {
        self.delta.skip_mask(self.frozen, q)
    }

    #[inline]
    fn wants_maintenance(&self) -> bool {
        self.delta.bytes > self.delta.budget
    }

    #[inline]
    fn maintain(&mut self, live: &mut [u32]) -> bool {
        self.delta.evict(self.frozen, self.seva, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::eva::EvaBuilder;
    use crate::markerset::MarkerSet;
    use crate::variable::VarRegistry;

    /// A small nondeterministic eVA: two overlapping letter ranges from the
    /// same state (cannot be fed to `DetSeva::compile`).
    fn nondet_eva() -> Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        let q3 = b.add_state();
        b.set_initial(q0);
        b.set_final(q3);
        let ms = MarkerSet::new;
        b.add_var(q0, ms().with_open(x), q1).unwrap();
        b.add_letter(q1, ByteClass::range(b'a', b'm'), q1);
        b.add_letter(q1, ByteClass::range(b'g', b'z'), q2);
        b.add_letter(q2, ByteClass::range(b'a', b'z'), q2);
        b.add_var(q1, ms().with_close(x), q3).unwrap();
        b.add_var(q2, ms().with_close(x), q3).unwrap();
        b.add_letter(q3, ByteClass::any(), q3);
        b.build().unwrap()
    }

    #[test]
    fn prepares_without_subset_construction() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        assert_eq!(lazy.num_nfa_states(), 4);
        assert_eq!(lazy.num_vars(), 1);
        assert_eq!(lazy.source_size(), eva.size());
        // No subset states exist until a document is evaluated.
        let cache = lazy.create_cache();
        assert_eq!(cache.num_states(), 0);
        assert_eq!(cache.clear_count(), 0);
    }

    #[test]
    fn accepts_matches_naive_nonemptiness() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let mut cache = lazy.create_cache();
        for text in ["", "a", "g", "z", "ag", "gz", "abcxyz", "A", "a!b"] {
            let doc = Document::from(text);
            assert_eq!(
                lazy.accepts(&mut cache, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "acceptance mismatch on {text:?}"
            );
        }
        assert!(cache.num_states() > 0, "evaluation interned subset states");
    }

    #[test]
    fn accepts_under_tiny_budget_evicts_but_stays_correct() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::with_budget(1)).unwrap();
        let mut cache = lazy.create_cache();
        let doc = Document::from("agzagzagz");
        assert!(lazy.accepts(&mut cache, &doc));
        assert!(cache.clear_count() > 0, "tiny budget must force evictions");
        assert!(!lazy.accepts(&mut cache, &Document::from("!!!")));
    }

    #[test]
    fn rejects_non_sequential() {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_byte(q1, b'a', q2);
        let eva = b.build().unwrap();
        assert!(matches!(
            LazyDetSeva::new(&eva, LazyConfig::default()),
            Err(SpannerError::NotSequential(_))
        ));
        assert!(LazyDetSeva::new_trusted(&eva, LazyConfig::default()).is_ok());
    }

    #[test]
    fn cache_rebinds_to_a_different_automaton() {
        let a = LazyDetSeva::new(&nondet_eva(), LazyConfig::default()).unwrap();
        let b = LazyDetSeva::new(&nondet_eva(), LazyConfig::default()).unwrap();
        assert_ne!(a.id(), b.id());
        let mut cache = a.create_cache();
        assert!(a.accepts(&mut cache, &Document::from("az")));
        let populated = cache.num_states();
        assert!(populated > 0);
        // Binding to `b` resets; binding back to `a` resets again.
        let _ = b.accepts(&mut cache, &Document::from("az"));
        assert!(a.accepts(&mut cache, &Document::from("az")));
    }

    #[test]
    fn frozen_snapshot_matches_live_cache_on_acceptance() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let mut cache = lazy.create_cache();
        // Warm on a couple of documents, then freeze.
        for text in ["az", "gz"] {
            let _ = lazy.accepts(&mut cache, &Document::from(text));
        }
        let frozen = cache.freeze(&lazy);
        assert_eq!(frozen.seva_id(), lazy.id());
        assert_eq!(frozen.num_states(), cache.num_states());
        assert!(frozen.memory_bytes() > 0);
        let mut delta = frozen.create_delta(&lazy);
        for text in ["", "a", "g", "z", "ag", "gz", "abcxyz", "A", "a!b", "zzzagq"] {
            let doc = Document::from(text);
            let mut stepper = FrozenStepper::new(&lazy, &frozen, &mut delta);
            assert_eq!(
                crate::sweep::accepts(&mut stepper, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "frozen acceptance mismatch on {text:?}"
            );
        }
    }

    #[test]
    fn thaw_round_trips_the_frozen_states() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let mut cache = lazy.create_cache();
        for text in ["az", "gz", "abcxyz"] {
            let _ = lazy.accepts(&mut cache, &Document::from(text));
        }
        let frozen = cache.freeze(&lazy);
        let mut thawed = frozen.thaw(&lazy);
        assert_eq!(thawed.num_states(), frozen.num_states());
        assert_eq!(thawed.states_interned(), frozen.num_states() as u64);
        assert!(thawed.memory_bytes() > 0);
        // The thawed cache keeps working as a live cache.
        for text in ["", "az", "gz", "A", "a!b"] {
            let doc = Document::from(text);
            assert_eq!(
                lazy.accepts(&mut thawed, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "thawed acceptance mismatch on {text:?}"
            );
        }
    }

    #[test]
    fn thaw_merged_folds_delta_overflow_into_the_next_generation() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        // Freeze early — off a single short document — so later documents
        // force both overflow states and row overrides into the delta.
        let mut cache = lazy.create_cache();
        let _ = lazy.accepts(&mut cache, &Document::from("a"));
        let frozen = cache.freeze(&lazy);
        let mut delta = frozen.create_delta(&lazy);
        let texts = ["az", "gz", "abcxyz", "zzzagq", "a!b"];
        // Drive one document so the per-document reset of FrozenStepper::new
        // does not wipe the evidence we are about to merge.
        let mut stepper = FrozenStepper::new(&lazy, &frozen, &mut delta);
        let _ = crate::sweep::accepts(&mut stepper, &Document::from("abcxyz"));
        assert!(
            delta.num_overflow_states() > 0 || !delta.letter_overrides.is_empty(),
            "test premise: the delta must hold evidence to merge"
        );
        assert_eq!(delta.snapshot_id(), frozen.id());

        let merged = frozen.thaw_merged(&delta, &lazy);
        assert_eq!(merged.num_states(), frozen.num_states() + delta.num_overflow_states());
        // Re-freeze the merged cache: the next generation answers everything
        // the old snapshot could, plus what the delta learned.
        let gen2 = merged.freeze(&lazy);
        assert_ne!(gen2.id(), frozen.id());
        assert_eq!(gen2.seva_id(), lazy.id());
        let mut d2 = gen2.create_delta(&lazy);
        for text in texts.iter().chain(["", "g", "A"].iter()) {
            let doc = Document::from(*text);
            let mut stepper = FrozenStepper::new(&lazy, &gen2, &mut d2);
            assert_eq!(
                crate::sweep::accepts(&mut stepper, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "gen2 acceptance mismatch on {text:?}"
            );
        }
        // The warmed snapshot covers the replayed document: re-running it
        // creates no overflow states in a fresh delta.
        let mut d3 = gen2.create_delta(&lazy);
        let mut stepper = FrozenStepper::new(&lazy, &gen2, &mut d3);
        let _ = crate::sweep::accepts(&mut stepper, &Document::from("abcxyz"));
        assert_eq!(d3.num_overflow_states(), 0, "merged generation must absorb the delta");
    }

    #[test]
    #[should_panic(expected = "bound to a different snapshot")]
    fn thaw_merged_rejects_a_foreign_delta() {
        let lazy = LazyDetSeva::new(&nondet_eva(), LazyConfig::default()).unwrap();
        let frozen_a = lazy.create_cache().freeze(&lazy);
        let frozen_b = lazy.create_cache().freeze(&lazy);
        let delta = frozen_a.create_delta(&lazy);
        let _ = frozen_b.thaw_merged(&delta, &lazy);
    }

    #[test]
    fn empty_freeze_evaluates_entirely_in_the_delta() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let frozen = lazy.create_cache().freeze(&lazy);
        assert_eq!(frozen.num_states(), 0);
        let mut delta = FrozenDelta::new();
        let doc = Document::from("agz");
        let mut stepper = FrozenStepper::new(&lazy, &frozen, &mut delta);
        assert!(crate::sweep::accepts(&mut stepper, &doc));
        assert!(delta.num_overflow_states() > 0, "all states must live in the delta");
    }

    #[test]
    fn delta_resets_per_document_and_keeps_capacity() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        let frozen = lazy.create_cache().freeze(&lazy);
        let mut delta = FrozenDelta::new();
        let doc = Document::from("agzagz");
        for round in 0..3 {
            let mut stepper = FrozenStepper::new(&lazy, &frozen, &mut delta);
            assert!(crate::sweep::accepts(&mut stepper, &doc), "round {round}");
        }
        // Three identical documents: the per-document reset makes the third
        // run intern exactly what the first did, with warm capacity.
        let sig = delta.capacity_signature();
        let per_doc = delta.states_interned() / 3;
        assert_eq!(delta.states_interned(), per_doc * 3, "interning is not per-document stable");
        let mut stepper = FrozenStepper::new(&lazy, &frozen, &mut delta);
        assert!(crate::sweep::accepts(&mut stepper, &doc));
        assert_eq!(delta.capacity_signature(), sig, "warm delta reallocated");
    }

    #[test]
    fn delta_eviction_under_tiny_budget_stays_correct() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::with_budget(1)).unwrap();
        let frozen = lazy.create_cache().freeze(&lazy);
        let mut delta = FrozenDelta::new();
        let doc = Document::from("agzagzagz");
        let mut stepper = FrozenStepper::new(&lazy, &frozen, &mut delta);
        assert!(crate::sweep::accepts(&mut stepper, &doc));
        assert!(delta.clear_count() > 0, "a 1-byte budget must force delta evictions");
        let mut stepper = FrozenStepper::new(&lazy, &frozen, &mut delta);
        assert!(!crate::sweep::accepts(&mut stepper, &Document::from("!!!")));
    }

    #[test]
    fn frozen_cache_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<FrozenCache>();
        check::<LazyDetSeva>();
        check::<FrozenDelta>();
        check::<LazyCache>();
    }

    #[test]
    fn wasted_states_and_signature_display() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::with_budget(1)).unwrap();
        let mut cache = lazy.create_cache();
        let doc = Document::from("agzagzagz");
        assert!(lazy.accepts(&mut cache, &doc));
        assert!(cache.clear_count() > 0);
        assert_eq!(cache.wasted_states(), cache.states_interned() - cache.num_states() as u64);
        assert!(cache.wasted_states() > 0, "thrashing must waste interned states");
        let rendered = cache.capacity_signature().to_string();
        assert!(rendered.contains("keys=") && rendered.contains("index="), "{rendered}");
    }

    #[test]
    fn skip_masks_mirror_memoized_entries_and_survive_freezing() {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, LazyConfig::default()).unwrap();
        // Drive the scanning engine so `run_skippable` memoizes entries: the
        // `!` tail leaves only the final `Σ`-looping subset live, which is
        // skippable on the non-letter class once its capture row is empty.
        let mut evaluator = crate::Evaluator::new();
        for text in ["agz!!!!!!", "zzzzzagq!!!!"] {
            let _ = evaluator.eval_lazy(&lazy, &Document::from(text)).num_nodes();
        }
        let cache = evaluator.lazy_cache().expect("lazy evaluation populated the cache");
        let ncls = lazy.num_alphabet_classes();
        let mut memoized_yes = 0;
        for q in 0..cache.num_states() {
            let mask = cache.skip_mask(q);
            for cls in 0..ncls {
                let memo = cache.skip_rows[q * ncls + cls];
                assert_eq!(
                    mask.contains(cls),
                    memo == SKIP_YES,
                    "mask out of lockstep with memo, state {q}, class {cls}"
                );
                memoized_yes += (memo == SKIP_YES) as usize;
            }
        }
        assert!(memoized_yes > 0, "the documents above must memoize at least one skip entry");
        // Freezing carries the masks verbatim into the shared snapshot.
        let frozen = cache.freeze(&lazy);
        assert_eq!(frozen.skip_masks, cache.skip_masks);
        // A delta-local state's mask starts empty and fills with its memos.
        let delta = frozen.create_delta(&lazy);
        assert_eq!(delta.skip_mask(&frozen, 0), frozen.skip_masks[0]);
    }

    #[test]
    fn clones_share_identity_and_caches() {
        let a = LazyDetSeva::new(&nondet_eva(), LazyConfig::default()).unwrap();
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        let mut cache = a.create_cache();
        assert!(a.accepts(&mut cache, &Document::from("az")));
        let warm = cache.num_states();
        assert!(b.accepts(&mut cache, &Document::from("az")));
        assert_eq!(cache.num_states(), warm, "clone reused the warm cache without rebinding");
    }

    /// Sorted mapping sets of the given documents under one config — the
    /// oracle shape for the segmented-eviction differential tests.
    fn mapping_sets(config: LazyConfig, docs: &[&str]) -> Vec<Vec<crate::Mapping>> {
        let eva = nondet_eva();
        let lazy = LazyDetSeva::new(&eva, config).unwrap();
        let mut evaluator = crate::Evaluator::new();
        docs.iter()
            .map(|text| {
                let mut out: Vec<_> =
                    evaluator.eval_lazy(&lazy, &Document::from(*text)).iter().collect();
                out.sort_unstable();
                out
            })
            .collect()
    }

    #[test]
    fn segmented_eviction_preserves_mappings_byte_for_byte() {
        let docs = ["agzagzagz", "abcxyz", "", "a!b", "zzzzzagqagqagq", "gggggggg"];
        let oracle = mapping_sets(LazyConfig::default(), &docs);
        for budget in [1, 200, 400, 800] {
            let config = LazyConfig::with_budget(budget).with_eviction(EvictionPolicy::Segmented);
            assert_eq!(
                mapping_sets(config, &docs),
                oracle,
                "segmented eviction changed outputs at budget {budget}"
            );
        }
    }

    #[test]
    fn segmented_eviction_spares_hot_states() {
        // A budget just below the warm working set: both policies evict on
        // every document cycle, but segmented carries the hot core across
        // evictions instead of re-interning it each time.
        let eva = nondet_eva();
        let doc = Document::from("agzagzagzagzagzagz");
        let waste_of = |policy: EvictionPolicy| {
            let config = LazyConfig::with_budget(500).with_eviction(policy);
            let lazy = LazyDetSeva::new(&eva, config).unwrap();
            let mut cache = lazy.create_cache();
            for _ in 0..8 {
                assert!(lazy.accepts(&mut cache, &doc));
            }
            assert!(cache.clear_count() > 0, "budget must force evictions under {policy:?}");
            cache.wasted_states()
        };
        let clear_restart = waste_of(EvictionPolicy::ClearRestart);
        let segmented = waste_of(EvictionPolicy::Segmented);
        assert!(
            segmented < clear_restart,
            "segmented ({segmented} wasted) must beat clear-restart ({clear_restart} wasted)"
        );
    }

    #[test]
    fn freeze_after_segmented_eviction_stays_correct() {
        let eva = nondet_eva();
        let config = LazyConfig::with_budget(500).with_eviction(EvictionPolicy::Segmented);
        let lazy = LazyDetSeva::new(&eva, config).unwrap();
        let mut cache = lazy.create_cache();
        for text in ["agzagzagzagzagzagz", "abcxyz", "zzzzzagq"] {
            let _ = lazy.accepts(&mut cache, &Document::from(text));
        }
        assert!(cache.clear_count() > 0, "test premise: the snapshot saw an eviction");
        // The compacted survivor table freezes into a consistent snapshot:
        // every document still evaluates to the naive-oracle answer.
        let frozen = cache.freeze(&lazy);
        let mut delta = frozen.create_delta(&lazy);
        for text in ["", "a", "g", "z", "ag", "gz", "abcxyz", "A", "a!b", "agzagzagz"] {
            let doc = Document::from(text);
            let mut stepper = FrozenStepper::new(&lazy, &frozen, &mut delta);
            assert_eq!(
                crate::sweep::accepts(&mut stepper, &doc),
                !eva.eval_naive(&doc).is_empty(),
                "post-eviction frozen acceptance mismatch on {text:?}"
            );
        }
    }
}
