//! Checkout/checkin pools of warm per-worker evaluation engines.
//!
//! A pool is the serving-side answer to "one warm [`Evaluator`] per worker":
//! workers check an engine out for a document (or a run of documents), and
//! the drop of the guard checks it back in with **all retained capacity** —
//! DAG arenas, per-state buffers, class buffers, lazy caches and frozen
//! deltas included. In steady state a pool stops allocating entirely: the
//! same engines cycle between workers, and a batch of N threads creates at
//! most N engines over the pool's lifetime no matter how many documents it
//! serves.

use spanners_core::{CountCache, Counter, EngineMode, Evaluator, SlpEvaluator};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks a pool mutex, recovering from poisoning: the pooled engines are
/// plain data whose invariants cannot be broken mid-operation, so a panic in
/// some other worker never invalidates the freelist itself.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// An engine a [`Pool`] hands out, one per worker at a time.
pub trait PoolEngine: Send {
    /// A fresh engine running `mode` (grammar composition has no byte loop,
    /// so [`SlpEvaluator`] has no mode to take).
    fn create(mode: EngineMode) -> Self;
    /// Bytes of memory a global [`spanners_core::MemoryGovernor`] ledgers
    /// (see [`Evaluator::governed_bytes`]).
    fn governed_bytes(&self) -> usize;
    /// Sheds the recoverable part of that memory; returns the bytes freed
    /// (see [`Evaluator::shed_cold_memory`]).
    fn shed_cold_memory(&mut self) -> usize;
}

impl PoolEngine for Evaluator {
    fn create(mode: EngineMode) -> Self {
        Evaluator::with_mode(mode)
    }
    fn governed_bytes(&self) -> usize {
        Evaluator::governed_bytes(self)
    }
    fn shed_cold_memory(&mut self) -> usize {
        Evaluator::shed_cold_memory(self)
    }
}

impl<C: Counter + Send> PoolEngine for CountCache<C> {
    fn create(mode: EngineMode) -> Self {
        CountCache::with_mode(mode)
    }
    fn governed_bytes(&self) -> usize {
        CountCache::governed_bytes(self)
    }
    fn shed_cold_memory(&mut self) -> usize {
        CountCache::shed_cold_memory(self)
    }
}

impl PoolEngine for SlpEvaluator {
    fn create(_: EngineMode) -> Self {
        SlpEvaluator::new()
    }
    fn governed_bytes(&self) -> usize {
        SlpEvaluator::governed_bytes(self)
    }
    fn shed_cold_memory(&mut self) -> usize {
        SlpEvaluator::shed_cold_memory(self)
    }
}

/// A pool of warm [`Evaluator`]s (Algorithm 1 engines).
pub type EvaluatorPool = Pool<Evaluator>;
/// A pool of warm [`CountCache`]s (Algorithm 3 engines).
pub type CountCachePool<C> = Pool<CountCache<C>>;
/// A pool of warm [`SlpEvaluator`]s (grammar-aware engines). Checked-in
/// evaluators keep their `(symbol, state)` memo tables alongside their lazy
/// caches and frozen deltas, so a batch over one shared rule set composes
/// most documents from already-memoized rows.
pub type SlpEvaluatorPool = Pool<SlpEvaluator>;
/// Checkout guard of an [`EvaluatorPool`].
pub type PooledEvaluator<'p> = Pooled<'p, Evaluator>;
/// Checkout guard of a [`CountCachePool`].
pub type PooledCountCache<'p, C> = Pooled<'p, CountCache<C>>;
/// Checkout guard of an [`SlpEvaluatorPool`].
pub type PooledSlpEvaluator<'p> = Pooled<'p, SlpEvaluator>;

/// A pool of warm per-worker engines.
///
/// ```
/// use spanners_runtime::EvaluatorPool;
/// let pool = EvaluatorPool::new();
/// {
///     let mut evaluator = pool.checkout(); // fresh engine: the pool was empty
///     let _ = &mut *evaluator;             // …use it…
/// } // drop checks it back in, capacity retained
/// assert_eq!(pool.idle(), 1);
/// assert_eq!(pool.engines_created(), 1);
/// let _again = pool.checkout(); // the same warm engine, not a new one
/// assert_eq!(pool.engines_created(), 1);
/// ```
#[derive(Debug)]
pub struct Pool<E: PoolEngine> {
    /// Idle engines, each tagged with the serving generation it last ran
    /// under (`0` for untagged batch work). Tag-aware checkouts prefer an
    /// engine of their own generation — its [`spanners_core::FrozenDelta`]
    /// is already bound to that generation's snapshot, so no rebind-reset.
    idle: Mutex<Vec<(u64, E)>>,
    mode: EngineMode,
    created: AtomicUsize,
    quarantined: AtomicUsize,
}

impl<E: PoolEngine> Default for Pool<E> {
    fn default() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
            mode: EngineMode::default(),
            created: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        }
    }
}

impl Pool<Evaluator> {
    /// An empty pool whose engines run the given mode.
    pub fn with_mode(mode: EngineMode) -> Self {
        Pool { mode, ..Pool::default() }
    }
}

impl<C: Counter + Send> Pool<CountCache<C>> {
    /// An empty pool whose caches run the given mode.
    pub fn with_mode(mode: EngineMode) -> Self {
        Pool { mode, ..Pool::default() }
    }
}

impl Pool<SlpEvaluator> {
    /// Sheds every idle evaluator's SLP memo tables (severity 2 of the
    /// global shedding ladder; see [`SlpEvaluator::shed_memos`]); returns
    /// how many freed bytes.
    pub fn shed_memos(&self) -> u64 {
        let mut idle = lock(&self.idle);
        idle.iter_mut().map(|(_, e)| e.shed_memos()).filter(|&freed| freed > 0).count() as u64
    }
}

impl<E: PoolEngine> Pool<E> {
    /// An empty pool handing out engines in the default
    /// [`EngineMode::SkipScan`].
    pub fn new() -> Self {
        Pool::default()
    }

    /// Checks an engine out: a warm one when available, a fresh one
    /// otherwise. The returned guard checks it back in on drop.
    pub fn checkout(&self) -> Pooled<'_, E> {
        self.checkout_tagged(0)
    }

    /// Checks an engine out preferring one last used under generation `tag`
    /// (falling back to any warm engine, then to a fresh one). The guard
    /// remembers the tag and checks the engine back in under it.
    pub fn checkout_tagged(&self, tag: u64) -> Pooled<'_, E> {
        crate::faults::checkout_fault();
        let engine = {
            let mut idle = lock(&self.idle);
            match idle.iter().rposition(|&(t, _)| t == tag) {
                Some(i) => Some(idle.swap_remove(i).1),
                None => idle.pop().map(|(_, e)| e),
            }
        };
        let engine = engine.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            E::create(self.mode)
        });
        Pooled { pool: self, engine: Some(engine), tag }
    }

    /// Number of engines currently checked in.
    pub fn idle(&self) -> usize {
        lock(&self.idle).len()
    }

    /// Total engines ever created — the warm-reuse diagnostic: a pool serving
    /// from warm engines stops incrementing this.
    pub fn engines_created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Total engines quarantined (see [`Pooled::quarantine`]) — each was
    /// dropped instead of checked back in, and a fresh replacement was
    /// checked in pre-emptively in its place.
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Governed bytes held by the idle engines (lazy caches, frozen deltas
    /// and, for SLP evaluators, memo tables) — what this pool settles into a
    /// global [`spanners_core::MemoryGovernor`]. Checked-out engines are
    /// counted at the next settle point, after their batch checks them back
    /// in.
    pub fn governed_bytes(&self) -> usize {
        lock(&self.idle).iter().map(|(_, e)| e.governed_bytes()).sum()
    }

    /// Sheds every idle engine's recoverable governed memory (severity 1 of
    /// the global shedding ladder; see [`Evaluator::shed_cold_memory`]).
    /// Returns the number of engines that actually freed bytes.
    pub fn shed_cold(&self) -> u64 {
        let mut idle = lock(&self.idle);
        idle.iter_mut().map(|(_, e)| e.shed_cold_memory()).filter(|&freed| freed > 0).count() as u64
    }
}

/// Checkout guard of a [`Pool`]; derefs to the engine and returns it
/// (capacity retained) on drop.
#[derive(Debug)]
pub struct Pooled<'p, E: PoolEngine> {
    pool: &'p Pool<E>,
    engine: Option<E>,
    tag: u64,
}

impl<E: PoolEngine> Deref for Pooled<'_, E> {
    type Target = E;
    fn deref(&self) -> &E {
        self.engine.as_ref().expect("engine present until drop")
    }
}

impl<E: PoolEngine> DerefMut for Pooled<'_, E> {
    fn deref_mut(&mut self) -> &mut E {
        self.engine.as_mut().expect("engine present until drop")
    }
}

impl<E: PoolEngine> Pooled<'_, E> {
    /// Consumes the guard **without** checking the engine back in: the
    /// engine is dropped and the pool's quarantine counter bumped. Used by
    /// panic containment — an engine whose evaluation unwound mid-document
    /// may hold arbitrarily corrupted arena state, so it must never serve
    /// another document. Replenishment is **pre-emptive**: a fresh engine is
    /// checked in immediately (counted in `engines_created`), so a pool
    /// hammered by sustained panics never drains toward zero engines and
    /// `engines_created` stays exactly `quarantined + peak concurrency`.
    pub fn quarantine(mut self) {
        if self.engine.take().is_some() {
            self.pool.quarantined.fetch_add(1, Ordering::Relaxed);
            self.pool.created.fetch_add(1, Ordering::Relaxed);
            lock(&self.pool.idle).push((self.tag, E::create(self.pool.mode)));
        }
    }
}

impl<E: PoolEngine> Drop for Pooled<'_, E> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            lock(&self.pool.idle).push((self.tag, engine));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_warm_engines() {
        let pool = EvaluatorPool::new();
        assert_eq!(pool.idle(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.engines_created(), 2);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 2);
        let _c = pool.checkout();
        assert_eq!(pool.engines_created(), 2, "warm engine must be reused");
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn count_pool_mirrors_evaluator_pool() {
        let pool: CountCachePool<u64> = CountCachePool::new();
        {
            let _a = pool.checkout();
        }
        assert_eq!(pool.idle(), 1);
        let _b = pool.checkout();
        assert_eq!(pool.engines_created(), 1);
    }

    #[test]
    fn slp_pool_mirrors_evaluator_pool() {
        let pool = SlpEvaluatorPool::new();
        {
            let _a = pool.checkout();
        }
        assert_eq!(pool.idle(), 1);
        let _b = pool.checkout();
        assert_eq!(pool.engines_created(), 1);
        pool.checkout().quarantine();
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.idle(), 1, "quarantine must check a fresh replacement in");
    }

    #[test]
    fn pool_recovers_from_lock_poisoning() {
        let pool = EvaluatorPool::new();
        // Poison the freelist mutex: panic on another thread while holding it.
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = lock(&pool.idle);
                panic!("poison the pool lock");
            });
            assert!(handle.join().is_err());
        });
        assert!(pool.idle.is_poisoned());
        // The pool recovers: checkout/checkin still work on the poisoned lock.
        {
            let _engine = pool.checkout();
        }
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.engines_created(), 1);
        let _again = pool.checkout();
        assert_eq!(pool.engines_created(), 1, "warm engine reused across poisoning");
    }

    #[test]
    fn panic_while_holding_guard_leaves_pool_usable() {
        let pool = EvaluatorPool::new();
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _engine = pool.checkout();
                panic!("worker died holding a checkout guard");
            });
            assert!(handle.join().is_err());
        });
        // The guard's Drop ran during unwinding: the engine was checked back
        // in, and the pool serves the next caller.
        assert_eq!(pool.idle(), 1);
        let _engine = pool.checkout();
        assert_eq!(pool.engines_created(), 1);
    }

    #[test]
    fn quarantined_engines_are_replaced_preemptively() {
        let pool = EvaluatorPool::new();
        {
            let engine = pool.checkout();
            engine.quarantine();
        }
        // The poisoned engine is gone, but a fresh replacement is already
        // checked in: the pool never drains toward zero under quarantines.
        assert_eq!(pool.idle(), 1, "quarantine must check a fresh replacement in");
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.engines_created(), 2);
        // The next checkout reuses the replacement — no further creation.
        let _fresh = pool.checkout();
        assert_eq!(pool.engines_created(), 2);

        let count_pool: CountCachePool<u64> = CountCachePool::new();
        count_pool.checkout().quarantine();
        assert_eq!(count_pool.idle(), 1);
        assert_eq!(count_pool.quarantined(), 1);
        let _fresh = count_pool.checkout();
        assert_eq!(count_pool.engines_created(), 2);
    }

    #[test]
    fn sustained_quarantines_keep_the_pool_stocked_and_creation_bounded() {
        // The replenishment invariant of the streaming runtime: a pool
        // hammered by panics (every other document quarantining its engine)
        // must never be found empty by the next checkout, and engines_created
        // must stay exactly quarantined + peak concurrency.
        let pool = EvaluatorPool::new();
        for i in 0..100 {
            let engine = pool.checkout();
            // Live engines (created minus quarantined) never dip below the
            // peak concurrency of 1: every checkout after the first found a
            // warm engine waiting, so creation tracks quarantines exactly.
            assert_eq!(
                pool.engines_created() - pool.quarantined(),
                1,
                "pool drained or overcreated at iteration {i}"
            );
            if i % 2 == 1 {
                engine.quarantine();
            }
        }
        assert_eq!(pool.quarantined(), 50);
        assert_eq!(pool.engines_created(), 51);
        assert_eq!(pool.idle(), 1, "exactly one live engine remains at quiescence");
    }

    #[test]
    fn tagged_checkout_prefers_matching_generation() {
        let pool = EvaluatorPool::new();
        // Seed two engines under generations 1 and 2.
        {
            let _g1 = pool.checkout_tagged(1);
            let _g2 = pool.checkout_tagged(2);
        }
        assert_eq!(pool.idle(), 2);
        // A generation-2 checkout takes the generation-2 engine, leaving the
        // generation-1 engine idle.
        {
            let _e = pool.checkout_tagged(2);
            assert_eq!(pool.engines_created(), 2, "matching engine must be reused");
        }
        // A checkout for an unseen generation falls back to any warm engine
        // rather than creating a cold one.
        let _e = pool.checkout_tagged(7);
        assert_eq!(pool.engines_created(), 2, "fallback must reuse a warm engine");
    }

    #[test]
    fn pools_are_shareable_across_threads() {
        fn shared<T: Send + Sync>() {}
        shared::<EvaluatorPool>();
        shared::<CountCachePool<u64>>();
        shared::<SlpEvaluatorPool>();
        let pool = EvaluatorPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _engine = pool.checkout();
                    }
                });
            }
        });
        // Contention bound: never more engines than peak concurrent checkouts.
        assert!(pool.engines_created() <= 4, "created {}", pool.engines_created());
        assert_eq!(pool.idle(), pool.engines_created());
    }
}
