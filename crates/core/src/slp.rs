//! Grammar-aware evaluation over SLP-compressed documents.
//!
//! A *straight-line program* (SLP) is an acyclic context-free grammar in
//! Chomsky-ish normal form — every rule is a pair `X → L R` over previously
//! defined symbols, terminals are single bytes — whose derivation produces
//! exactly one document. Repetitive corpora (logs especially) compress 10–50×
//! into this form, and the Muñoz–Riveros line of work shows spanners can be
//! evaluated **directly on the grammar**, in time proportional to the
//! *compressed* size, instead of decompressing first.
//!
//! The engine here exploits the same structure the byte engines already
//! compute per position. One position of Algorithm 3 applies the transform
//! `T_b = Read_b ∘ Capture` to the per-state count vector; `T_b` is linear,
//! so the transform of a nonterminal's whole expansion is the product of its
//! children's transforms. Per `(nonterminal, det-state)` the engine memoizes
//!
//! * the **transition summary** — the set of det states reachable after
//!   reading the expansion from one source state (for acceptance), and
//! * the **mapping-count row** — how many partial mappings end in each of
//!   those states (for counting),
//!
//! computed bottom-up on demand and composed in `O(#rules)` per document
//! instead of `O(#bytes)`. The final `Capturing` step of the byte engines
//! (which runs once *after* the last position) is applied once at the end,
//! outside the grammar composition, so the per-position transform stays
//! associative and the memoized rows agree byte-for-byte with
//! [`crate::CountCache`] / [`crate::DetSeva::accepts`] on the decompressed
//! document — `tests/slp.rs` pins this differentially.
//!
//! [`SlpEvaluator`] mirrors [`crate::CountCache`]'s engine-embedding idiom:
//! it drives the eager [`DetSeva`], the live lazy engine, and the
//! frozen/delta split of the batch runtime, owning the per-worker
//! [`LazyCache`] / [`FrozenDelta`] plus the memo tables. A warm memo can be
//! snapshotted into an immutable [`SlpSharedMemo`] and attached to a
//! [`FrozenCache`] (see [`crate::CompiledSpanner::freeze_warm_slp`]), so N
//! workers compose documents off one shared bottom-up pass instead of
//! recomputing it N times.

use std::collections::HashMap;
use std::sync::Arc;

use crate::det::{DetSeva, Stepper};
use crate::document::Document;
use crate::error::SpannerError;
use crate::lazy::{
    next_engine_id, CapacitySignature, FrozenCache, FrozenDelta, FrozenStepper, LazyCache,
    LazyDetSeva, LazyStepper,
};
use crate::limits::{EvalLimits, LimitChecker};
use crate::sweep::Shell;

/// Symbols below this bound are terminals (the byte itself); symbol
/// `FIRST_NONTERMINAL + k` names rule `k`.
const FIRST_NONTERMINAL: u32 = 256;

/// Default byte budget of the per-evaluator memo tables (rows are cleared
/// and recomputed on demand past this), mirroring
/// [`crate::lazy::LazyConfig`]'s default determinization budget.
pub const DEFAULT_MEMO_BUDGET: usize = 8 * 1024 * 1024;

/// The rule set of a straight-line program: rule `k` (symbol `256 + k`)
/// expands to the pair of earlier symbols `rules[k]`.
///
/// Rule sets are validated acyclic at construction (every rule references
/// only terminals and *earlier* rules) and are shared between the documents
/// of a corpus via `Arc` — the memoized per-rule summaries are keyed by the
/// rule set's identity, so documents sharing one `SlpRules` also share one
/// bottom-up pass.
#[derive(Debug, Clone)]
pub struct SlpRules {
    /// Process-unique identity (memo keying).
    id: u64,
    /// `rules[k] = (left, right)`, both `< 256 + k`.
    rules: Vec<(u32, u32)>,
    /// Expansion length of each rule's derivation, in bytes.
    lens: Vec<u64>,
}

impl SlpRules {
    /// Validates and packages a rule list. Every rule may reference only
    /// terminals (`0..256`) and strictly earlier rules; expansion lengths
    /// must fit `u64`.
    pub fn new(rules: Vec<(u32, u32)>) -> Result<SlpRules, SpannerError> {
        if rules.len() > (u32::MAX - FIRST_NONTERMINAL) as usize {
            return Err(SpannerError::InvalidConfig { what: "too many SLP rules for u32 symbols" });
        }
        let mut lens: Vec<u64> = Vec::with_capacity(rules.len());
        for (k, &(l, r)) in rules.iter().enumerate() {
            let bound = FIRST_NONTERMINAL + k as u32;
            if l >= bound || r >= bound {
                return Err(SpannerError::InvalidConfig {
                    what: "SLP rule references an undefined or later symbol",
                });
            }
            let len_of = |s: u32| -> u64 {
                if s < FIRST_NONTERMINAL {
                    1
                } else {
                    lens[(s - FIRST_NONTERMINAL) as usize]
                }
            };
            let len = len_of(l).checked_add(len_of(r)).ok_or(SpannerError::InvalidConfig {
                what: "SLP expansion length overflows u64",
            })?;
            lens.push(len);
        }
        Ok(SlpRules { id: next_engine_id(), rules, lens })
    }

    /// An empty rule set (documents are then plain terminal sequences).
    pub fn empty() -> SlpRules {
        SlpRules::new(Vec::new()).expect("empty rule set is always valid")
    }

    /// Process-unique identity of this rule set (memo keying).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of rules.
    #[inline]
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// The `(left, right)` pair of nonterminal symbol `sym`.
    #[inline]
    pub(crate) fn rule(&self, sym: u32) -> (u32, u32) {
        self.rules[(sym - FIRST_NONTERMINAL) as usize]
    }

    /// Expansion length of `sym` in bytes.
    #[inline]
    pub fn symbol_len(&self, sym: u32) -> u64 {
        if sym < FIRST_NONTERMINAL {
            1
        } else {
            self.lens[(sym - FIRST_NONTERMINAL) as usize]
        }
    }
}

/// One SLP-compressed document: a shared rule set plus the top-level symbol
/// sequence whose expansion is the document.
///
/// Build one offline with `spanners-workloads`' Re-Pair-style builder, or
/// [`Slp::literal`] for an uncompressed terminal sequence. Evaluate with
/// [`SlpEvaluator`] through the
/// [`CompiledSpanner`](crate::CompiledSpanner::count_slp_with) facades.
#[derive(Debug, Clone)]
pub struct Slp {
    rules: Arc<SlpRules>,
    sequence: Vec<u32>,
    /// Total expansion length in bytes.
    len: u64,
}

impl Slp {
    /// Packages a compressed document, validating that the sequence only
    /// references defined symbols and that the expansion length fits `u64`.
    pub fn new(rules: Arc<SlpRules>, sequence: Vec<u32>) -> Result<Slp, SpannerError> {
        let bound = FIRST_NONTERMINAL + rules.num_rules() as u32;
        let mut len = 0u64;
        for &sym in &sequence {
            if sym >= bound {
                return Err(SpannerError::InvalidConfig {
                    what: "SLP sequence references an undefined symbol",
                });
            }
            len = len
                .checked_add(rules.symbol_len(sym))
                .ok_or(SpannerError::InvalidConfig { what: "SLP document length overflows u64" })?;
        }
        Ok(Slp { rules, sequence, len })
    }

    /// An uncompressed SLP: every byte of `bytes` as a terminal symbol.
    pub fn literal(bytes: &[u8]) -> Slp {
        let rules = Arc::new(SlpRules::empty());
        let sequence = bytes.iter().map(|&b| b as u32).collect();
        Slp::new(rules, sequence).expect("terminal sequences are always valid")
    }

    /// The shared rule set.
    #[inline]
    pub fn rules(&self) -> &Arc<SlpRules> {
        &self.rules
    }

    /// The top-level symbol sequence.
    #[inline]
    pub fn sequence(&self) -> &[u32] {
        &self.sequence
    }

    /// Length of the decompressed document in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the decompressed document is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compressed size in symbols: the top-level sequence plus two symbols
    /// per rule (the grammar is shared across a corpus, so per-document cost
    /// is dominated by the sequence).
    pub fn compressed_size(&self) -> usize {
        self.sequence.len() + 2 * self.rules.num_rules()
    }

    /// `decompressed bytes / compressed symbols` — the factor the
    /// grammar-aware engine's per-document work is divided by.
    pub fn compression_ratio(&self) -> f64 {
        self.len as f64 / self.compressed_size().max(1) as f64
    }

    /// Expands the SLP into `out` (cleared first), iteratively — grammars
    /// from the Re-Pair builder can be deep, so no recursion.
    pub fn decompress_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(usize::try_from(self.len).unwrap_or(0));
        let mut stack: Vec<u32> = Vec::new();
        for &top in &self.sequence {
            stack.push(top);
            while let Some(sym) = stack.pop() {
                if sym < FIRST_NONTERMINAL {
                    out.push(sym as u8);
                } else {
                    let (l, r) = self.rules.rule(sym);
                    stack.push(r);
                    stack.push(l);
                }
            }
        }
    }

    /// Expands the SLP into a fresh [`Document`].
    pub fn decompress(&self) -> Document {
        let mut bytes = Vec::new();
        self.decompress_into(&mut bytes);
        Document::new(bytes)
    }
}

/// Reference to a memoized (or scratch-computed) row.
#[derive(Debug, Clone, Copy)]
enum RowRef {
    /// The row lives in the terminal scratch buffer.
    Term,
    /// `count_arena[a..b]` / `set_arena[a..b]` of the local memo.
    Local(usize, usize),
    /// Same, of the shared (frozen-attached) memo.
    Shared(usize, usize),
}

/// Memo tables: per `(rule-set id, symbol, source det state)`, the
/// mapping-count row (for counting) and the reachable-state row (for
/// acceptance), flat CSR-style arenas behind small hash indexes.
#[derive(Debug, Clone, Default)]
struct RowTables {
    count_index: HashMap<(u64, u32, u32), u32>,
    count_offsets: Vec<u32>,
    count_arena: Vec<(u32, u64)>,
    set_index: HashMap<(u64, u32, u32), u32>,
    set_offsets: Vec<u32>,
    set_arena: Vec<u32>,
    /// Approximate bytes held (arena entries + index overhead).
    bytes: usize,
}

/// Approximate index-entry overhead of one memoized row (hash-map key,
/// value, bucket share, offset slot).
const ROW_COST: usize = 64;

impl RowTables {
    fn clear(&mut self) {
        self.count_index.clear();
        self.count_offsets.clear();
        self.count_arena.clear();
        self.set_index.clear();
        self.set_offsets.clear();
        self.set_arena.clear();
        self.bytes = 0;
    }

    fn is_empty(&self) -> bool {
        self.count_index.is_empty() && self.set_index.is_empty()
    }

    fn num_rows(&self) -> usize {
        self.count_index.len() + self.set_index.len()
    }

    fn lookup_count(&self, key: (u64, u32, u32)) -> Option<(usize, usize)> {
        let &ri = self.count_index.get(&key)?;
        let ri = ri as usize;
        Some((self.count_offsets[ri] as usize, self.count_offsets[ri + 1] as usize))
    }

    fn lookup_set(&self, key: (u64, u32, u32)) -> Option<(usize, usize)> {
        let &ri = self.set_index.get(&key)?;
        let ri = ri as usize;
        Some((self.set_offsets[ri] as usize, self.set_offsets[ri + 1] as usize))
    }
}

/// An immutable snapshot of warm memo tables, attached to a
/// [`FrozenCache`] and shared read-only across batch workers (`Send + Sync`
/// — plain data). Built by [`crate::CompiledSpanner::freeze_warm_slp`]: the
/// rows were computed against the pre-freeze [`LazyCache`], and freezing
/// preserves state ids, so they remain valid against the snapshot.
#[derive(Debug, Clone)]
pub struct SlpSharedMemo {
    tables: RowTables,
}

impl SlpSharedMemo {
    /// Approximate bytes held by the shared rows.
    pub fn memory_bytes(&self) -> usize {
        self.tables.bytes
    }

    /// Number of memoized `(rule set, symbol, state)` rows.
    pub fn num_rows(&self) -> usize {
        self.tables.num_rows()
    }
}

/// One explicit-stack frame of the bottom-up count-row computation:
/// `row(sym, q) = Σ_{(p, c) ∈ row(left, q)} c · row(right, p)`.
#[derive(Debug, Default)]
struct CountFrame {
    sym: u32,
    q: u32,
    left_ready: bool,
    idx: usize,
    left: Vec<(u32, u64)>,
    acc: Vec<(u32, u64)>,
}

/// Set-row sibling of [`CountFrame`]:
/// `reach(sym, q) = ⋃_{p ∈ reach(left, q)} reach(right, p)`.
#[derive(Debug, Default)]
struct SetFrame {
    sym: u32,
    q: u32,
    left_ready: bool,
    idx: usize,
    left: Vec<u32>,
    acc: Vec<u32>,
}

/// The reusable workspace of one evaluator: memo tables, frame stacks and
/// scratch buffers, all retained-capacity across documents.
#[derive(Debug)]
struct Workspace {
    memo: RowTables,
    /// `(engine id, epoch)` the local memo rows are valid for. Engine ids
    /// come from the shared process-wide counter ([`next_engine_id`]), so
    /// one pair disambiguates eager/lazy/frozen contexts; the epoch is the
    /// lazy cache's clear count (state ids move on eviction) or a
    /// per-document generation for frozen runs (delta-local ids die with
    /// the per-document delta reset).
    ctx: (u64, u64),
    /// Effective memo byte budget for the current run.
    budget: usize,
    /// Budget-driven memo clears over the evaluator's lifetime.
    clears: u64,
    /// Rows computed over the evaluator's lifetime (cache-efficiency
    /// diagnostic: `rows_built - memo.num_rows()` is recompute waste).
    rows_built: u64,
    checker: LimitChecker,
    frames: Vec<CountFrame>,
    free_frames: Vec<CountFrame>,
    sframes: Vec<SetFrame>,
    free_sframes: Vec<SetFrame>,
    /// Capture sources of one terminal row: the state plus its marker
    /// targets (one entry per marker pair — multiplicity is mapping count).
    srcs: Vec<u32>,
    /// Terminal count row scratch.
    trow: Vec<(u32, u64)>,
    /// Terminal set row scratch.
    tset: Vec<u32>,
    /// Count-fold frontier: `(state, partial-mapping count)`.
    frontier: Vec<(u32, u64)>,
    next: Vec<(u32, u64)>,
    /// Acceptance-fold live set (sorted).
    live: Vec<u32>,
    next_live: Vec<u32>,
    /// Maintenance scratch (live ids handed to [`Stepper::maintain`]).
    maint: Vec<u32>,
}

impl Default for Workspace {
    fn default() -> Workspace {
        Workspace {
            memo: RowTables::default(),
            ctx: (0, 0),
            budget: DEFAULT_MEMO_BUDGET,
            clears: 0,
            rows_built: 0,
            checker: LimitChecker::unlimited(),
            frames: Vec::new(),
            free_frames: Vec::new(),
            sframes: Vec::new(),
            free_sframes: Vec::new(),
            srcs: Vec::new(),
            trow: Vec::new(),
            tset: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            live: Vec::new(),
            next_live: Vec::new(),
            maint: Vec::new(),
        }
    }
}

impl Workspace {
    /// Starts one evaluation: arms the limit checker, sets the effective
    /// memo budget, and drops memoized rows if the engine context changed
    /// (different automaton/snapshot, or state ids moved since).
    fn begin(&mut self, limits: &EvalLimits, engine: u64, epoch: u64, budget: usize) {
        self.checker = LimitChecker::start(limits);
        self.budget = budget;
        if self.ctx != (engine, epoch) {
            self.memo.clear();
            self.ctx = (engine, epoch);
        }
    }

    /// Runs the clear-and-restart eviction protocol when the underlying
    /// cache is over budget: live frontier ids are handed to
    /// [`Stepper::maintain`], remapped in place, and the local memo — whose
    /// rows reference pre-eviction ids — is dropped. Mirrors
    /// `CountCache::maintenance_point`; the remap completes even when the
    /// thrash guard trips, so the error is propagated *after* the state is
    /// consistent again.
    fn maintain_ids<S: Stepper>(
        &mut self,
        st: &mut S,
        ids: &mut [u32],
    ) -> Result<(), SpannerError> {
        if !st.wants_maintenance() {
            return Ok(());
        }
        self.maint.clear();
        self.maint.extend_from_slice(ids);
        if st.maintain(&mut self.maint) {
            ids.copy_from_slice(&self.maint);
            self.memo.clear();
            // Evictions remap state ids exactly once per clear, so bumping
            // the epoch keeps rows memoized *after* this point valid for the
            // next run against the same cache.
            self.ctx.1 += 1;
            self.checker.note_clear()?;
        }
        Ok(())
    }

    fn maintain_count_frontier<S: Stepper>(&mut self, st: &mut S) -> Result<(), SpannerError> {
        if !st.wants_maintenance() {
            return Ok(());
        }
        let mut ids = std::mem::take(&mut self.next_live);
        ids.clear();
        ids.extend(self.frontier.iter().map(|&(q, _)| q));
        let verdict = self.maintain_ids(st, &mut ids);
        for (slot, &q) in self.frontier.iter_mut().zip(ids.iter()) {
            slot.0 = q;
        }
        self.next_live = ids;
        verdict
    }

    fn maintain_live<S: Stepper>(&mut self, st: &mut S) -> Result<(), SpannerError> {
        if !st.wants_maintenance() {
            return Ok(());
        }
        let mut ids = std::mem::take(&mut self.live);
        let verdict = self.maintain_ids(st, &mut ids);
        // Remapped ids need not preserve order; the fold relies on
        // sortedness for merging.
        ids.sort_unstable();
        self.live = ids;
        verdict
    }

    /// Computes the terminal count row for reading byte `b` from state `q`
    /// into `self.trow`: `Capture` forks `{q: 1}` into `q` plus one entry
    /// per marker pair (the phase-start snapshot means marker steps do not
    /// chain), then `Read` steps every source on `b`'s class.
    fn terminal_count_row<S: Stepper>(&mut self, st: &mut S, b: u8, q: u32) {
        self.srcs.clear();
        self.srcs.push(q);
        let qq = q as usize;
        if st.has_markers(qq) {
            for &(_, r) in st.markers_from(qq) {
                self.srcs.push(r as u32);
            }
        }
        let cls = st.byte_class(b);
        self.trow.clear();
        for i in 0..self.srcs.len() {
            if let Some(t) = st.step_class(self.srcs[i] as usize, cls) {
                self.trow.push((t as u32, 1));
            }
        }
        self.trow.sort_unstable_by_key(|&(p, _)| p);
        merge_sorted_counts_saturating(&mut self.trow);
    }

    /// Set sibling of [`Workspace::terminal_count_row`], into `self.tset`.
    fn terminal_set_row<S: Stepper>(&mut self, st: &mut S, b: u8, q: u32) {
        self.srcs.clear();
        self.srcs.push(q);
        let qq = q as usize;
        if st.has_markers(qq) {
            for &(_, r) in st.markers_from(qq) {
                self.srcs.push(r as u32);
            }
        }
        let cls = st.byte_class(b);
        self.tset.clear();
        for i in 0..self.srcs.len() {
            if let Some(t) = st.step_class(self.srcs[i] as usize, cls) {
                self.tset.push(t as u32);
            }
        }
        self.tset.sort_unstable();
        self.tset.dedup();
    }

    /// The final-`Capturing` weight of state `q`: how many mappings one
    /// partial mapping ending in `q` contributes after the end-of-document
    /// capture step — `[q final] + #{marker pairs of q with a final target}`.
    fn weight<S: Stepper>(&mut self, st: &mut S, q: u32) -> u64 {
        let qq = q as usize;
        let mut w = u64::from(st.is_final(qq));
        if st.has_markers(qq) {
            self.srcs.clear();
            for &(_, r) in st.markers_from(qq) {
                self.srcs.push(r as u32);
            }
            for i in 0..self.srcs.len() {
                w += u64::from(st.is_final(self.srcs[i] as usize));
            }
        }
        w
    }

    fn lookup_count(&self, key: (u64, u32, u32), shared: Option<&RowTables>) -> Option<RowRef> {
        if let Some((a, b)) = self.memo.lookup_count(key) {
            return Some(RowRef::Local(a, b));
        }
        if let Some((a, b)) = shared.and_then(|sh| sh.lookup_count(key)) {
            return Some(RowRef::Shared(a, b));
        }
        None
    }

    fn lookup_set(&self, key: (u64, u32, u32), shared: Option<&RowTables>) -> Option<RowRef> {
        if let Some((a, b)) = self.memo.lookup_set(key) {
            return Some(RowRef::Local(a, b));
        }
        if let Some((a, b)) = shared.and_then(|sh| sh.lookup_set(key)) {
            return Some(RowRef::Shared(a, b));
        }
        None
    }

    /// Memoizes a freshly computed count row, clearing the tables first if
    /// the budget would be exceeded (clear-and-restart: memoized rows are
    /// deterministic, so recomputation on demand is always correct). A
    /// budget clear counts against [`EvalLimits::max_cache_clears`], so
    /// persistent memo thrash surfaces as the same recoverable
    /// `BudgetExceeded` the degradation ladder keys on; the clear completes
    /// before the verdict propagates, leaving the tables consistent.
    fn insert_count_row(
        &mut self,
        key: (u64, u32, u32),
        row: &[(u32, u64)],
    ) -> Result<(), SpannerError> {
        let cost = std::mem::size_of_val(row) + ROW_COST;
        if self.memo.bytes + cost > self.budget && !self.memo.is_empty() {
            self.memo.clear();
            self.clears += 1;
            self.checker.note_clear()?;
        }
        if self.memo.count_offsets.is_empty() {
            self.memo.count_offsets.push(0);
        }
        let ri = (self.memo.count_offsets.len() - 1) as u32;
        self.memo.count_arena.extend_from_slice(row);
        self.memo.count_offsets.push(self.memo.count_arena.len() as u32);
        self.memo.count_index.insert(key, ri);
        self.memo.bytes += cost;
        self.rows_built += 1;
        Ok(())
    }

    /// Set sibling of [`Workspace::insert_count_row`].
    fn insert_set_row(&mut self, key: (u64, u32, u32), row: &[u32]) -> Result<(), SpannerError> {
        let cost = std::mem::size_of_val(row) + ROW_COST;
        if self.memo.bytes + cost > self.budget && !self.memo.is_empty() {
            self.memo.clear();
            self.clears += 1;
            self.checker.note_clear()?;
        }
        if self.memo.set_offsets.is_empty() {
            self.memo.set_offsets.push(0);
        }
        let ri = (self.memo.set_offsets.len() - 1) as u32;
        self.memo.set_arena.extend_from_slice(row);
        self.memo.set_offsets.push(self.memo.set_arena.len() as u32);
        self.memo.set_index.insert(key, ri);
        self.memo.bytes += cost;
        self.rows_built += 1;
        Ok(())
    }

    /// Resolves the count row of `(sym, q)` without descending: terminal
    /// rows are computed inline (into `self.trow`), nonterminal rows come
    /// from the local or shared memo. `None` means "not memoized yet".
    fn quick_count_row<S: Stepper>(
        &mut self,
        st: &mut S,
        gid: u64,
        sym: u32,
        q: u32,
        shared: Option<&RowTables>,
    ) -> Option<RowRef> {
        if sym < FIRST_NONTERMINAL {
            self.terminal_count_row(st, sym as u8, q);
            return Some(RowRef::Term);
        }
        self.lookup_count((gid, sym, q), shared)
    }

    /// Set sibling of [`Workspace::quick_count_row`].
    fn quick_set_row<S: Stepper>(
        &mut self,
        st: &mut S,
        gid: u64,
        sym: u32,
        q: u32,
        shared: Option<&RowTables>,
    ) -> Option<RowRef> {
        if sym < FIRST_NONTERMINAL {
            self.terminal_set_row(st, sym as u8, q);
            return Some(RowRef::Term);
        }
        self.lookup_set((gid, sym, q), shared)
    }

    /// Copies the referenced count row into `out`.
    fn copy_count_row(&self, rref: RowRef, shared: Option<&RowTables>, out: &mut Vec<(u32, u64)>) {
        out.clear();
        match rref {
            RowRef::Term => out.extend_from_slice(&self.trow),
            RowRef::Local(a, b) => out.extend_from_slice(&self.memo.count_arena[a..b]),
            RowRef::Shared(a, b) => {
                out.extend_from_slice(&shared.expect("shared ref").count_arena[a..b])
            }
        }
    }

    /// Copies the referenced set row into `out`.
    fn copy_set_row(&self, rref: RowRef, shared: Option<&RowTables>, out: &mut Vec<u32>) {
        out.clear();
        match rref {
            RowRef::Term => out.extend_from_slice(&self.tset),
            RowRef::Local(a, b) => out.extend_from_slice(&self.memo.set_arena[a..b]),
            RowRef::Shared(a, b) => {
                out.extend_from_slice(&shared.expect("shared ref").set_arena[a..b])
            }
        }
    }

    /// Adds `c ×` the referenced count row into `acc` (checked arithmetic).
    fn accumulate_count(
        &self,
        rref: RowRef,
        c: u64,
        shared: Option<&RowTables>,
        acc: &mut Vec<(u32, u64)>,
    ) -> Result<(), SpannerError> {
        let row: &[(u32, u64)] = match rref {
            RowRef::Term => &self.trow,
            RowRef::Local(a, b) => &self.memo.count_arena[a..b],
            RowRef::Shared(a, b) => &shared.expect("shared ref").count_arena[a..b],
        };
        for &(p, w) in row {
            let v = c.checked_mul(w).ok_or(SpannerError::CountOverflow)?;
            acc.push((p, v));
        }
        Ok(())
    }

    fn take_count_frame(&mut self, sym: u32, q: u32) -> CountFrame {
        let mut f = self.free_frames.pop().unwrap_or_default();
        f.sym = sym;
        f.q = q;
        f.left_ready = false;
        f.idx = 0;
        f.left.clear();
        f.acc.clear();
        f
    }

    fn take_set_frame(&mut self, sym: u32, q: u32) -> SetFrame {
        let mut f = self.free_sframes.pop().unwrap_or_default();
        f.sym = sym;
        f.q = q;
        f.left_ready = false;
        f.idx = 0;
        f.left.clear();
        f.acc.clear();
        f
    }

    /// Aborts an in-flight computation, recycling every frame (capacity
    /// retained) so the evaluator is reusable after an error.
    fn abort_count(&mut self, f: CountFrame) {
        self.free_frames.push(f);
        while let Some(g) = self.frames.pop() {
            self.free_frames.push(g);
        }
    }

    fn abort_set(&mut self, f: SetFrame) {
        self.free_sframes.push(f);
        while let Some(g) = self.sframes.pop() {
            self.free_sframes.push(g);
        }
    }

    /// Computes and memoizes the count row of nonterminal `(root_sym,
    /// root_q)` with an explicit frame stack (Re-Pair grammars can be deep).
    /// Demand-driven: only rows reachable from live frontier states are
    /// computed, which also bounds every intermediate count by a count the
    /// byte engine would hold at some document position.
    fn compute_count_row<S: Stepper>(
        &mut self,
        st: &mut S,
        rules: &SlpRules,
        gid: u64,
        root_sym: u32,
        root_q: u32,
        shared: Option<&RowTables>,
    ) -> Result<(), SpannerError> {
        debug_assert!(self.frames.is_empty());
        let root = self.take_count_frame(root_sym, root_q);
        self.frames.push(root);
        'outer: while let Some(mut f) = self.frames.pop() {
            if let Err(e) = self.checker.tick() {
                self.abort_count(f);
                return Err(e);
            }
            let (lsym, rsym) = rules.rule(f.sym);
            if !f.left_ready {
                match self.quick_count_row(st, gid, lsym, f.q, shared) {
                    Some(rref) => {
                        self.copy_count_row(rref, shared, &mut f.left);
                        f.left_ready = true;
                    }
                    None => {
                        let child = self.take_count_frame(lsym, f.q);
                        self.frames.push(f);
                        self.frames.push(child);
                        continue 'outer;
                    }
                }
            }
            while f.idx < f.left.len() {
                if let Err(e) = self.checker.tick() {
                    self.abort_count(f);
                    return Err(e);
                }
                let (p, c) = f.left[f.idx];
                match self.quick_count_row(st, gid, rsym, p, shared) {
                    Some(rref) => {
                        if let Err(e) = self.accumulate_count(rref, c, shared, &mut f.acc) {
                            self.abort_count(f);
                            return Err(e);
                        }
                        f.idx += 1;
                    }
                    None => {
                        let child = self.take_count_frame(rsym, p);
                        self.frames.push(f);
                        self.frames.push(child);
                        continue 'outer;
                    }
                }
            }
            // All right rows folded in: merge duplicate end states and
            // memoize. The insert always lands (clear-and-restart first if
            // over budget), so the parent's next lookup is a guaranteed hit.
            f.acc.sort_unstable_by_key(|&(p, _)| p);
            if let Err(e) = merge_sorted_counts(&mut f.acc) {
                self.abort_count(f);
                return Err(e);
            }
            if let Err(e) = self.insert_count_row((gid, f.sym, f.q), &f.acc) {
                self.abort_count(f);
                return Err(e);
            }
            self.free_frames.push(f);
        }
        Ok(())
    }

    /// Set sibling of [`Workspace::compute_count_row`].
    fn compute_set_row<S: Stepper>(
        &mut self,
        st: &mut S,
        rules: &SlpRules,
        gid: u64,
        root_sym: u32,
        root_q: u32,
        shared: Option<&RowTables>,
    ) -> Result<(), SpannerError> {
        debug_assert!(self.sframes.is_empty());
        let root = self.take_set_frame(root_sym, root_q);
        self.sframes.push(root);
        'outer: while let Some(mut f) = self.sframes.pop() {
            if let Err(e) = self.checker.tick() {
                self.abort_set(f);
                return Err(e);
            }
            let (lsym, rsym) = rules.rule(f.sym);
            if !f.left_ready {
                match self.quick_set_row(st, gid, lsym, f.q, shared) {
                    Some(rref) => {
                        self.copy_set_row(rref, shared, &mut f.left);
                        f.left_ready = true;
                    }
                    None => {
                        let child = self.take_set_frame(lsym, f.q);
                        self.sframes.push(f);
                        self.sframes.push(child);
                        continue 'outer;
                    }
                }
            }
            while f.idx < f.left.len() {
                if let Err(e) = self.checker.tick() {
                    self.abort_set(f);
                    return Err(e);
                }
                let p = f.left[f.idx];
                match self.quick_set_row(st, gid, rsym, p, shared) {
                    Some(rref) => {
                        match rref {
                            RowRef::Term => f.acc.extend_from_slice(&self.tset),
                            RowRef::Local(a, b) => {
                                f.acc.extend_from_slice(&self.memo.set_arena[a..b])
                            }
                            RowRef::Shared(a, b) => f
                                .acc
                                .extend_from_slice(&shared.expect("shared ref").set_arena[a..b]),
                        }
                        f.idx += 1;
                    }
                    None => {
                        let child = self.take_set_frame(rsym, p);
                        self.sframes.push(f);
                        self.sframes.push(child);
                        continue 'outer;
                    }
                }
            }
            f.acc.sort_unstable();
            f.acc.dedup();
            if let Err(e) = self.insert_set_row((gid, f.sym, f.q), &f.acc) {
                self.abort_set(f);
                return Err(e);
            }
            self.free_sframes.push(f);
        }
        Ok(())
    }

    /// The count row of `(sym, q)`, memoizing nonterminals on first use.
    fn ensure_count_row<S: Stepper>(
        &mut self,
        st: &mut S,
        rules: &SlpRules,
        gid: u64,
        sym: u32,
        q: u32,
        shared: Option<&RowTables>,
    ) -> Result<RowRef, SpannerError> {
        if let Some(rref) = self.quick_count_row(st, gid, sym, q, shared) {
            return Ok(rref);
        }
        self.compute_count_row(st, rules, gid, sym, q, shared)?;
        Ok(self.lookup_count((gid, sym, q), shared).expect("row memoized by compute_count_row"))
    }

    /// Set sibling of [`Workspace::ensure_count_row`].
    fn ensure_set_row<S: Stepper>(
        &mut self,
        st: &mut S,
        rules: &SlpRules,
        gid: u64,
        sym: u32,
        q: u32,
        shared: Option<&RowTables>,
    ) -> Result<RowRef, SpannerError> {
        if let Some(rref) = self.quick_set_row(st, gid, sym, q, shared) {
            return Ok(rref);
        }
        self.compute_set_row(st, rules, gid, sym, q, shared)?;
        Ok(self.lookup_set((gid, sym, q), shared).expect("row memoized by compute_set_row"))
    }

    /// The counting fold: start from `{initial: 1}`, apply each sequence
    /// symbol's memoized row, then apply the final-capture weights —
    /// byte-identical to `CountCache`'s per-byte loop on the decompressed
    /// document (`tests/slp.rs` pins this).
    fn count_run<S: Stepper>(
        &mut self,
        st: &mut S,
        slp: &Slp,
        shared: Option<&RowTables>,
    ) -> Result<u64, SpannerError> {
        // At least one tick per document, so zero deadlines and injected
        // expirations trip even on empty sequences.
        self.checker.tick()?;
        let rules = slp.rules().clone();
        let gid = rules.id();
        let start = st.start_state() as u32;
        self.frontier.clear();
        self.frontier.push((start, 1));
        for &sym in slp.sequence() {
            self.maintain_count_frontier(st)?;
            self.next.clear();
            for fi in 0..self.frontier.len() {
                self.checker.tick()?;
                let (q, c) = self.frontier[fi];
                let rref = self.ensure_count_row(st, &rules, gid, sym, q, shared)?;
                let mut next = std::mem::take(&mut self.next);
                let res = self.accumulate_count(rref, c, shared, &mut next);
                self.next = next;
                res?;
            }
            self.next.sort_unstable_by_key(|&(p, _)| p);
            std::mem::swap(&mut self.frontier, &mut self.next);
            merge_sorted_counts(&mut self.frontier)?;
            if self.frontier.is_empty() {
                return Ok(0);
            }
        }
        self.maintain_count_frontier(st)?;
        let mut total = 0u64;
        for fi in 0..self.frontier.len() {
            let (q, c) = self.frontier[fi];
            let w = self.weight(st, q);
            let add = c.checked_mul(w).ok_or(SpannerError::CountOverflow)?;
            total = total.checked_add(add).ok_or(SpannerError::CountOverflow)?;
        }
        Ok(total)
    }

    /// The acceptance fold: reachable-state sets instead of count vectors
    /// (no overflow), accepting iff any live state has a positive
    /// final-capture weight. Matches `DetSeva::accepts` on the decompressed
    /// document.
    fn accepts_run<S: Stepper>(
        &mut self,
        st: &mut S,
        slp: &Slp,
        shared: Option<&RowTables>,
    ) -> Result<bool, SpannerError> {
        self.checker.tick()?;
        let rules = slp.rules().clone();
        let gid = rules.id();
        let start = st.start_state() as u32;
        self.live.clear();
        self.live.push(start);
        for &sym in slp.sequence() {
            self.maintain_live(st)?;
            self.next_live.clear();
            for li in 0..self.live.len() {
                self.checker.tick()?;
                let q = self.live[li];
                let rref = self.ensure_set_row(st, &rules, gid, sym, q, shared)?;
                let mut next = std::mem::take(&mut self.next_live);
                self.copy_set_row_append(rref, shared, &mut next);
                self.next_live = next;
            }
            self.next_live.sort_unstable();
            self.next_live.dedup();
            std::mem::swap(&mut self.live, &mut self.next_live);
            if self.live.is_empty() {
                return Ok(false);
            }
        }
        self.maintain_live(st)?;
        for li in 0..self.live.len() {
            let q = self.live[li];
            if self.weight(st, q) > 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Appends the referenced set row to `out` (no clear — union building).
    fn copy_set_row_append(&self, rref: RowRef, shared: Option<&RowTables>, out: &mut Vec<u32>) {
        match rref {
            RowRef::Term => out.extend_from_slice(&self.tset),
            RowRef::Local(a, b) => out.extend_from_slice(&self.memo.set_arena[a..b]),
            RowRef::Shared(a, b) => {
                out.extend_from_slice(&shared.expect("shared ref").set_arena[a..b])
            }
        }
    }
}

/// Merges adjacent duplicate states of a sorted `(state, count)` row,
/// summing counts with checked arithmetic.
fn merge_sorted_counts(row: &mut Vec<(u32, u64)>) -> Result<(), SpannerError> {
    let mut out = 0usize;
    for i in 0..row.len() {
        if out > 0 && row[out - 1].0 == row[i].0 {
            row[out - 1].1 =
                row[out - 1].1.checked_add(row[i].1).ok_or(SpannerError::CountOverflow)?;
        } else {
            row[out] = row[i];
            out += 1;
        }
    }
    row.truncate(out);
    Ok(())
}

/// [`merge_sorted_counts`] for terminal rows, where every count is `1` and
/// the sum is bounded by the row length — saturation can never be observed,
/// it just keeps this helper infallible.
fn merge_sorted_counts_saturating(row: &mut Vec<(u32, u64)>) {
    let mut out = 0usize;
    for i in 0..row.len() {
        if out > 0 && row[out - 1].0 == row[i].0 {
            row[out - 1].1 = row[out - 1].1.saturating_add(row[i].1);
        } else {
            row[out] = row[i];
            out += 1;
        }
    }
    row.truncate(out);
}

/// The grammar-aware evaluation engine: counts mappings and decides matches
/// over [`Slp`]-compressed documents **without decompressing**, in time
/// proportional to the compressed size once its per-`(symbol, state)` memo
/// is warm.
///
/// Mirrors [`crate::CountCache`]'s embedding idiom: the evaluator owns the
/// per-worker halves of whichever engine it is driven against — a
/// [`LazyCache`] for live lazy automata, a [`FrozenDelta`] for the shared
/// frozen snapshots of the batch runtime — plus the memo tables and scratch,
/// all retained-capacity across documents. Counts are `u64` (the batch
/// runtime's counting type); wider counts can always fall back to the byte
/// engines on the decompressed document.
#[derive(Debug, Default)]
pub struct SlpEvaluator {
    ws: Workspace,
    /// Limits, cache-budget override, and the embedded lazy cache and
    /// frozen-overflow delta (the byte engines' per-worker shell; grammar
    /// composition has no byte loop, so its engine mode is unused).
    shell: Shell,
    /// Per-frozen-run generation: delta-local state ids die with the
    /// per-document delta reset, so each frozen run gets a fresh epoch.
    frozen_gen: u64,
    memo_budget: usize,
    memo_budget_override: Option<usize>,
}

impl SlpEvaluator {
    /// A fresh evaluator with the default memo budget and no limits.
    pub fn new() -> SlpEvaluator {
        SlpEvaluator { memo_budget: DEFAULT_MEMO_BUDGET, ..SlpEvaluator::default() }
    }

    /// Sets the per-document evaluation limits (steps, deadlines, thrash
    /// guard) applied by subsequent runs.
    pub fn set_limits(&mut self, limits: EvalLimits) {
        self.shell.limits = limits;
    }

    /// Overrides the byte budget of the embedded determinization cache /
    /// overflow delta (`None` restores the automaton's configured budget) —
    /// the degradation-ladder hook, mirroring
    /// [`crate::CountCache::set_cache_budget_override`].
    pub fn set_cache_budget_override(&mut self, budget: Option<usize>) {
        self.shell.budget_override = budget;
    }

    /// Sets the byte budget of the memo tables (rows are cleared and
    /// recomputed on demand past it).
    pub fn set_memo_budget(&mut self, budget: usize) {
        self.memo_budget = budget;
    }

    /// One-off override of the memo budget (`None` restores
    /// [`SlpEvaluator::set_memo_budget`]'s value) — the ladder's boost hook.
    pub fn set_memo_budget_override(&mut self, budget: Option<usize>) {
        self.memo_budget_override = budget;
    }

    /// The memo byte budget subsequent runs will enforce.
    pub fn memo_budget(&self) -> usize {
        self.memo_budget_override.unwrap_or(self.memo_budget)
    }

    /// Approximate bytes currently held by the memo tables.
    pub fn memo_bytes(&self) -> usize {
        self.ws.memo.bytes
    }

    /// Number of `(rule set, symbol, state)` rows currently memoized.
    pub fn memo_rows(&self) -> usize {
        self.ws.memo.num_rows()
    }

    /// Budget-driven memo clears over the evaluator's lifetime (context
    /// switches and eviction-driven invalidations are not counted).
    pub fn memo_clears(&self) -> u64 {
        self.ws.clears
    }

    /// Rows computed over the evaluator's lifetime, including rows rebuilt
    /// after budget clears — `rows_built() - memo_rows()` measures
    /// composition work wasted to memo thrashing.
    pub fn rows_built(&self) -> u64 {
        self.ws.rows_built
    }

    /// Total bytes held: memo tables plus the embedded cache or delta.
    pub fn memory_bytes(&self) -> usize {
        self.ws.memo.bytes + self.shell.governed_bytes()
    }

    /// Capacity snapshot for allocation-retention assertions: the embedded
    /// cache/delta buffers in the first eight slots (zeros when the
    /// evaluator has only driven eager automata), the SLP memo arenas in the
    /// last two — the E10b diagnostics see SLP memory through the same lens
    /// as the determinization caches.
    pub fn capacity_signature(&self) -> CapacitySignature {
        let mut sig = match (self.shell.lazy_cache(), self.shell.frozen_delta()) {
            (Some(cache), _) => cache.capacity_signature(),
            (None, Some(delta)) => delta.capacity_signature(),
            (None, None) => CapacitySignature([0; 10]),
        };
        sig.0[8] = self.ws.memo.count_arena.capacity();
        sig.0[9] = self.ws.memo.set_arena.capacity();
        sig
    }

    /// Bytes currently held by this evaluator's **governed** memory — the
    /// same total as [`SlpEvaluator::memory_bytes`]: memo tables plus the
    /// embedded determinization cache or overflow delta, all of which a
    /// global [`crate::MemoryGovernor`] can shed.
    pub fn governed_bytes(&self) -> usize {
        self.memory_bytes()
    }

    /// Sheds the determinization-side memory for the global governor
    /// (severity 1, mirrors [`crate::Evaluator::shed_cold_memory`]): drops
    /// the embedded lazy cache and [`FrozenDelta::shed`]s the overflow
    /// delta. The memo tables are untouched — they are severity 2, see
    /// [`SlpEvaluator::shed_memos`]. Returns the bytes freed.
    pub fn shed_cold_memory(&mut self) -> usize {
        self.shell.shed_cold_memory()
    }

    /// Sheds the SLP memo tables for the global governor (severity 2 of the
    /// shedding ladder): every memoized row is dropped and recomputed on
    /// demand, exactly as after a budget-driven clear — results stay
    /// byte-identical. Returns the bytes freed. Unlike budget clears, a
    /// governor shed is **not** counted by [`SlpEvaluator::memo_clears`]
    /// and never trips the per-document thrash guard.
    pub fn shed_memos(&mut self) -> usize {
        let freed = self.ws.memo.bytes;
        self.ws.memo.clear();
        freed
    }

    /// The embedded lazy determinization cache, if the evaluator has driven
    /// a lazy automaton (the freeze source of
    /// [`crate::CompiledSpanner::freeze_warm_slp`]).
    pub fn lazy_cache(&self) -> Option<&LazyCache> {
        self.shell.lazy_cache()
    }

    /// The embedded frozen-overflow delta, if the evaluator has stepped
    /// through a frozen snapshot.
    pub fn frozen_delta(&self) -> Option<&FrozenDelta> {
        self.shell.frozen_delta()
    }

    /// Snapshots the current memo into an immutable [`SlpSharedMemo`].
    /// Only meaningful right after warm runs against the cache about to be
    /// frozen (freezing preserves state ids, so the rows stay valid against
    /// the snapshot); returns `None` when nothing is memoized.
    pub fn shared_memo_snapshot(&self) -> Option<SlpSharedMemo> {
        if self.ws.memo.is_empty() {
            return None;
        }
        Some(SlpSharedMemo { tables: self.ws.memo.clone() })
    }

    /// Counts `|⟦A⟧(d)|` over the compressed document against an eager
    /// automaton. The memo persists across documents (eager state ids never
    /// move), so a corpus sharing one rule set is composed from one
    /// bottom-up pass.
    pub fn count(&mut self, det: &DetSeva, slp: &Slp) -> Result<u64, SpannerError> {
        let budget = self.memo_budget();
        self.ws.begin(&self.shell.limits, det.id(), 0, budget);
        self.ws.count_run(&mut &*det, slp, None)
    }

    /// Whether the spanner produces at least one mapping on the compressed
    /// document (eager automaton).
    pub fn accepts(&mut self, det: &DetSeva, slp: &Slp) -> Result<bool, SpannerError> {
        let budget = self.memo_budget();
        self.ws.begin(&self.shell.limits, det.id(), 0, budget);
        self.ws.accepts_run(&mut &*det, slp, None)
    }

    /// [`SlpEvaluator::count`] against a live lazy automaton, determinizing
    /// on demand inside the evaluator's embedded budgeted [`LazyCache`].
    /// Rows are keyed to the cache's eviction epoch: evictions move state
    /// ids, so they drop the memo alongside the evicted states.
    pub fn count_lazy(&mut self, aut: &LazyDetSeva, slp: &Slp) -> Result<u64, SpannerError> {
        let budget = self.memo_budget();
        let ws = &mut self.ws;
        self.shell.with_lazy(aut, |shell, cache| {
            ws.begin(&shell.limits, aut.id(), cache.clear_count(), budget);
            ws.count_run(&mut LazyStepper::new(aut, cache), slp, None)
        })
    }

    /// [`SlpEvaluator::accepts`] against a live lazy automaton.
    pub fn accepts_lazy(&mut self, aut: &LazyDetSeva, slp: &Slp) -> Result<bool, SpannerError> {
        let budget = self.memo_budget();
        let ws = &mut self.ws;
        self.shell.with_lazy(aut, |shell, cache| {
            ws.begin(&shell.limits, aut.id(), cache.clear_count(), budget);
            ws.accepts_run(&mut LazyStepper::new(aut, cache), slp, None)
        })
    }

    /// [`SlpEvaluator::count`] stepping through a shared [`FrozenCache`]
    /// snapshot with the evaluator's private overflow delta — the per-worker
    /// entry point of the batch runtime. Rows memoized by
    /// [`crate::CompiledSpanner::freeze_warm_slp`] are read from the
    /// snapshot's attached [`SlpSharedMemo`]; leftover rows land in the
    /// local memo, which lives one document (delta-local state ids die with
    /// the per-document delta reset).
    pub fn count_frozen(
        &mut self,
        aut: &LazyDetSeva,
        frozen: &FrozenCache,
        slp: &Slp,
    ) -> Result<u64, SpannerError> {
        self.frozen_gen += 1;
        let (epoch, budget) = (self.frozen_gen, self.memo_budget());
        let ws = &mut self.ws;
        self.shell.with_frozen(aut, frozen, |shell, delta| {
            ws.begin(&shell.limits, frozen.id(), epoch, budget);
            let shared = frozen.slp_memo().map(|m| &m.tables);
            ws.count_run(&mut FrozenStepper::new(aut, frozen, delta), slp, shared)
        })
    }

    /// [`SlpEvaluator::accepts`] through a shared frozen snapshot.
    pub fn accepts_frozen(
        &mut self,
        aut: &LazyDetSeva,
        frozen: &FrozenCache,
        slp: &Slp,
    ) -> Result<bool, SpannerError> {
        self.frozen_gen += 1;
        let (epoch, budget) = (self.frozen_gen, self.memo_budget());
        let ws = &mut self.ws;
        self.shell.with_frozen(aut, frozen, |shell, delta| {
            ws.begin(&shell.limits, frozen.id(), epoch, budget);
            let shared = frozen.slp_memo().map(|m| &m.tables);
            ws.accepts_run(&mut FrozenStepper::new(aut, frozen, delta), slp, shared)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::count::CountCache;
    use crate::eva::EvaBuilder;
    use crate::markerset::MarkerSet;
    use crate::spanner::{CompiledSpanner, EnginePolicy};
    use crate::variable::VarRegistry;

    /// `Σ* (x{a+}) Σ*`-ish spanner: captures every maximal-ish run of `a`s
    /// (one mapping per (start, end) pair reachable), deterministic.
    fn letter_runs_eva() -> crate::eva::Eva {
        let mut reg = VarRegistry::new();
        let x = reg.intern("x").unwrap();
        let mut b = EvaBuilder::new(reg);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.set_final(q2);
        b.add_letter(q0, ByteClass::any(), q0);
        b.add_byte(q1, b'a', q1);
        b.add_letter(q2, ByteClass::any(), q2);
        b.add_var(q0, MarkerSet::new().with_open(x), q1).unwrap();
        b.add_var(q1, MarkerSet::new().with_close(x), q2).unwrap();
        b.build().unwrap()
    }

    fn doubling_slp(base: &str, doublings: usize) -> Slp {
        // sequence = one symbol expanding to base^(2^doublings)
        let mut rules: Vec<(u32, u32)> = Vec::new();
        let bytes = base.as_bytes();
        // Chain the base string into one symbol.
        let mut cur = bytes[0] as u32;
        for &b in &bytes[1..] {
            rules.push((cur, b as u32));
            cur = FIRST_NONTERMINAL + (rules.len() - 1) as u32;
        }
        for _ in 0..doublings {
            rules.push((cur, cur));
            cur = FIRST_NONTERMINAL + (rules.len() - 1) as u32;
        }
        Slp::new(Arc::new(SlpRules::new(rules).unwrap()), vec![cur]).unwrap()
    }

    #[test]
    fn rules_validation_rejects_forward_references() {
        assert!(SlpRules::new(vec![(256, 97)]).is_err(), "self reference must be rejected");
        assert!(SlpRules::new(vec![(97, 300)]).is_err(), "forward reference must be rejected");
        let rules = Arc::new(SlpRules::new(vec![(97, 98)]).unwrap());
        assert!(Slp::new(rules, vec![257]).is_err(), "undefined sequence symbol must be rejected");
    }

    #[test]
    fn decompress_expands_the_derivation() {
        let slp = doubling_slp("ab", 3);
        assert_eq!(slp.len(), 16);
        assert_eq!(slp.decompress().bytes(), b"abababababababab");
        assert!(slp.compression_ratio() > 1.0);
        let lit = Slp::literal(b"xyz");
        assert_eq!(lit.decompress().bytes(), b"xyz");
        assert_eq!(lit.len(), 3);
    }

    #[test]
    fn count_matches_byte_engine_on_expanded_document() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let mut ev = SlpEvaluator::new();
        let mut cache: CountCache<u64> = CountCache::new();
        for (base, doublings) in [("ab", 0), ("aab", 2), ("xaay", 3), ("a", 4)] {
            let slp = doubling_slp(base, doublings);
            let doc = slp.decompress();
            let expect: u64 = cache.count(&det, &doc).unwrap();
            assert_eq!(ev.count(&det, &slp).unwrap(), expect, "{base} ^ 2^{doublings}");
            assert_eq!(ev.accepts(&det, &slp).unwrap(), expect > 0);
        }
    }

    #[test]
    fn empty_and_literal_sequences_match_byte_engine() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let mut ev = SlpEvaluator::new();
        let mut cache: CountCache<u64> = CountCache::new();
        for text in ["", "a", "baaab", "zzz"] {
            let slp = Slp::literal(text.as_bytes());
            let doc = Document::from(text);
            let expect: u64 = cache.count(&det, &doc).unwrap();
            assert_eq!(ev.count(&det, &slp).unwrap(), expect, "{text:?}");
            assert_eq!(ev.accepts(&det, &slp).unwrap(), det.accepts(&doc), "{text:?}");
        }
    }

    #[test]
    fn lazy_and_frozen_paths_match_eager() {
        let eva = letter_runs_eva();
        let spanner = CompiledSpanner::from_eva_with(&eva, EnginePolicy::Lazy).unwrap();
        let lazy = spanner.lazy_automaton().unwrap();
        let det = DetSeva::compile(&eva).unwrap();
        let slps: Vec<Slp> =
            [("aab", 2), ("xaay", 3)].iter().map(|&(base, d)| doubling_slp(base, d)).collect();
        let mut eager = SlpEvaluator::new();
        let mut ev = SlpEvaluator::new();
        for slp in &slps {
            let expect = eager.count(&det, slp).unwrap();
            assert_eq!(ev.count_lazy(lazy, slp).unwrap(), expect);
            assert_eq!(ev.accepts_lazy(lazy, slp).unwrap(), expect > 0);
        }
        // Freeze the warm cache (memo attached) and re-check through the
        // frozen/delta split.
        let frozen = spanner.freeze_warm_slp(&slps).unwrap();
        assert!(frozen.slp_memo().is_some(), "warm freeze must attach a shared memo");
        let mut worker = SlpEvaluator::new();
        for slp in &slps {
            let expect = eager.count(&det, slp).unwrap();
            assert_eq!(worker.count_frozen(lazy, &frozen, slp).unwrap(), expect);
            assert_eq!(worker.accepts_frozen(lazy, &frozen, slp).unwrap(), expect > 0);
        }
    }

    #[test]
    fn tiny_memo_budget_thrashes_but_stays_correct() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let slp = doubling_slp("aab", 4);
        let mut ev = SlpEvaluator::new();
        let expect = ev.count(&det, &slp).unwrap();
        let mut tiny = SlpEvaluator::new();
        tiny.set_memo_budget(1);
        assert_eq!(tiny.count(&det, &slp).unwrap(), expect);
        assert!(tiny.memo_clears() > 0, "a one-byte budget must thrash the memo");
        assert!(tiny.rows_built() > tiny.memo_rows() as u64, "thrash implies rebuilt rows");
    }

    #[test]
    fn step_budget_trips_and_leaves_the_evaluator_reusable() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let slp = doubling_slp("aab", 6);
        let expect = SlpEvaluator::new().count(&det, &slp).unwrap();
        // Cold memo: the bottom-up pass needs far more than two ticks.
        let mut ev = SlpEvaluator::new();
        ev.set_limits(EvalLimits::none().with_max_steps(2));
        assert!(matches!(ev.count(&det, &slp), Err(SpannerError::StepBudgetExceeded { .. })));
        ev.set_limits(EvalLimits::none());
        assert_eq!(ev.count(&det, &slp).unwrap(), expect, "evaluator must recover after a trip");
    }

    #[test]
    fn capacity_signature_exposes_memo_arenas_and_stays_stable_when_warm() {
        let eva = letter_runs_eva();
        let det = DetSeva::compile(&eva).unwrap();
        let slp = doubling_slp("aab", 3);
        let mut ev = SlpEvaluator::new();
        let _ = ev.count(&det, &slp).unwrap();
        let _ = ev.accepts(&det, &slp).unwrap();
        let sig = ev.capacity_signature();
        assert!(sig.0[8] > 0, "count arena capacity must be visible");
        assert!(sig.0[9] > 0, "set arena capacity must be visible");
        let rendered = sig.to_string();
        assert!(rendered.contains("slp_counts=") && rendered.contains("slp_sets="), "{rendered}");
        // Warm rerun: no new rows, no reallocation.
        let rows = ev.memo_rows();
        let _ = ev.count(&det, &slp).unwrap();
        assert_eq!(ev.memo_rows(), rows, "warm rerun must not rebuild rows");
        assert_eq!(ev.capacity_signature(), sig, "warm rerun reallocated memo buffers");
    }
}
