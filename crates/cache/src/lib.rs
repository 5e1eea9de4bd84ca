#![warn(missing_docs)]

//! # bitlevel-cache
//!
//! A content-hashed compile cache for [`CompiledSchedule`] artifacts.
//!
//! Every `DesignFlow` evaluation used to recompile its schedule from
//! scratch — the explorer's frontier re-verification compiled each design a
//! second time, and repeated interactive evaluations paid the full
//! `try_compile` cost every call. This crate removes that redundancy:
//!
//! * **Cache key** — [`schedule_key`] digests the *content* of the
//!   (expanded structure, mapping/schedule, machine description) triple with
//!   a platform-stable FNV-1a-128 ([`digest::StableHasher`]), salted with
//!   [`CACHE_KEY_VERSION`] and the schedule wire-format version. Anything
//!   that changes compiled output changes the key; renaming or re-deriving
//!   an identical structure does not.
//! * **Memory layer** — an `Arc`-shared LRU map; all clones of a
//!   [`CompileCache`] (and therefore all clones of a `DesignFlow`) share one
//!   store, so the explorer's search and its re-verification hit the same
//!   entries. Each [`CacheEntry`] also keeps the timing-only artefacts that
//!   are pure functions of its key — the Definition 4.1 feasibility report,
//!   the faultless mapped report, and one LSGP partition layout — computed
//!   on first use and dropped with the entry; they are never persisted.
//! * **Disk layer** — optional (`--cache-dir`): entries persist as
//!   checksummed `*.blsc` images (see `bitlevel_systolic::persist`), written
//!   atomically (temp file + rename). Corrupted, truncated, or
//!   version-skewed files are detected on load, counted in
//!   [`CacheStats::corrupt_entries`], and degrade to a recorded miss +
//!   recompile — never a panic, never a wrong schedule.
//! * **Counters** — [`CacheStats`] snapshots hits/misses/evictions for
//!   reports, trace events, and the zero-redundant-compile assertions in
//!   the test suite.

use bitlevel_ir::AlgorithmTriplet;
use bitlevel_mapping::{check_feasibility, FeasibilityReport, Interconnect, MappingMatrix};
use bitlevel_systolic::{
    CompileError, CompiledSchedule, MappedRunReport, PartitionError, PartitionedSchedule,
    SCHEDULE_FORMAT_VERSION,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod digest;

pub use digest::{CacheKey, StableHasher};

/// Version of the *key derivation* itself (what is hashed, in which order).
/// Bumping it orphans every existing entry instead of colliding with it.
pub const CACHE_KEY_VERSION: u32 = 1;

/// Default capacity of the in-memory layer (entries). Schedules for the
/// paper-scale designs are a few hundred KB; 256 of them stay well under a
/// hundred MB while covering any realistic explorer frontier.
pub const DEFAULT_MEMORY_CAPACITY: usize = 256;

/// File extension of persisted schedule images.
pub const DISK_ENTRY_EXT: &str = "blsc";

/// Digest of a (structure, mapping, machine) triple under the current key
/// and wire-format versions: the canonical cache key of one compiled
/// schedule. A change to either version constant orphans all old keys.
pub fn schedule_key(alg: &AlgorithmTriplet, t: &MappingMatrix, ic: &Interconnect) -> CacheKey {
    CacheKey::of_parts(
        CACHE_KEY_VERSION.wrapping_add(SCHEDULE_FORMAT_VERSION << 16),
        &(alg, t, ic),
    )
}

/// Where a cache lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory layer.
    MemoryHit,
    /// Served from a persisted disk entry (and promoted to memory).
    DiskHit,
    /// Not cached (or the disk entry was unusable): freshly compiled.
    Miss,
}

impl CacheOutcome {
    /// True for both hit flavours.
    pub fn is_hit(&self) -> bool {
        !matches!(self, CacheOutcome::Miss)
    }
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheOutcome::MemoryHit => write!(f, "memory-hit"),
            CacheOutcome::DiskHit => write!(f, "disk-hit"),
            CacheOutcome::Miss => write!(f, "miss-compiled"),
        }
    }
}

/// A monotonic snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups answered from disk.
    pub disk_hits: u64,
    /// Lookups that compiled fresh (including after a corrupt disk entry).
    pub misses: u64,
    /// Entries evicted from the memory layer by capacity pressure.
    pub evictions: u64,
    /// Disk entries rejected as corrupt/truncated/version-skewed.
    pub corrupt_entries: u64,
    /// Disk writes that failed (permissions, full disk, ...). Non-fatal:
    /// the result is still returned, only persistence is lost.
    pub disk_write_errors: u64,
    /// Entries currently resident in the memory layer.
    pub resident: usize,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.disk_hits + self.misses
    }

    /// The counter movement since an `earlier` snapshot of the same cache:
    /// every monotone counter is `self - earlier` (saturating, so snapshots
    /// taken out of order degrade to zeros instead of wrapping), while
    /// `resident` — a gauge, not a counter — carries the later value.
    ///
    /// This is the per-request attribution primitive of the evaluation
    /// service: a handler snapshots the shared cache before and after its
    /// work ([`CompileCache::snapshot`]) and the delta says what *this*
    /// request cost, immune to interleaved lookups racing the subtraction
    /// (concurrent handlers can inflate each other's deltas, but the sum of
    /// all deltas never under-counts a compile).
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            corrupt_entries: self.corrupt_entries.saturating_sub(earlier.corrupt_entries),
            disk_write_errors: self
                .disk_write_errors
                .saturating_sub(earlier.disk_write_errors),
            resident: self.resident,
        }
    }

    /// Warm fraction: hits (either layer) over lookups, 0.0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            (self.hits + self.disk_hits) as f64 / total as f64
        }
    }

    /// Total schedule compilations the cache performed ( = misses).
    pub fn compiles(&self) -> u64 {
        self.misses
    }
}

/// One resident memory-layer entry: a compiled schedule, its content key,
/// and the timing-only artefacts derived from the same (structure,
/// mapping, machine) triple. Each artefact is computed on first use and
/// shared by every later hit — through any clone of the cache — until the
/// entry is evicted or the memory layer cleared; a disk-hit promotion
/// starts a fresh entry. None of them is persisted, so the `.blsc` format
/// is the schedule's alone.
pub struct CacheEntry {
    key: CacheKey,
    schedule: Arc<CompiledSchedule>,
    feasibility: OnceLock<FeasibilityReport>,
    report: OnceLock<MappedRunReport>,
    /// At most one LSGP layout, for the worker count last requested: that
    /// count arrives from untrusted clients, so the slot must stay bounded.
    partition: Mutex<Option<Arc<PartitionedSchedule>>>,
}

impl CacheEntry {
    fn new(key: CacheKey, schedule: Arc<CompiledSchedule>) -> Self {
        CacheEntry {
            key,
            schedule,
            feasibility: OnceLock::new(),
            report: OnceLock::new(),
            partition: Mutex::new(None),
        }
    }

    /// The content key this entry was looked up (and stored) under.
    pub fn key(&self) -> CacheKey {
        self.key
    }

    /// The compiled schedule.
    pub fn schedule(&self) -> &Arc<CompiledSchedule> {
        &self.schedule
    }

    /// The Definition 4.1 verdict of the entry's triple. `alg`, `t` and `ic`
    /// must be the triple the entry was looked up with (same content key);
    /// the first call checks them, every later call returns that report.
    pub fn feasibility(
        &self,
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
    ) -> &FeasibilityReport {
        self.feasibility.get_or_init(|| {
            debug_assert_eq!(schedule_key(alg, t, ic), self.key, "foreign triple");
            check_feasibility(t, alg, ic)
        })
    }

    /// The faultless timing-only run, [`CompiledSchedule::mapped_report`].
    pub fn mapped_report(&self) -> &MappedRunReport {
        self.report.get_or_init(|| self.schedule.mapped_report())
    }

    /// The schedule clustered onto `workers` physical workers. The layout
    /// for the most recently requested count is kept, so repeated requests
    /// share one [`PartitionedSchedule`]; another count rebuilds and
    /// replaces it. Errors are O(1) checks and are not stored.
    pub fn partition(&self, workers: usize) -> Result<Arc<PartitionedSchedule>, PartitionError> {
        let mut slot = self.partition.lock().expect("partition slot poisoned");
        if let Some(part) = slot.as_ref() {
            if part.stats().workers_requested == workers {
                return Ok(Arc::clone(part));
            }
        }
        let part = Arc::new(PartitionedSchedule::try_new(
            Arc::clone(&self.schedule),
            workers,
        )?);
        *slot = Some(Arc::clone(&part));
        Ok(part)
    }
}

struct MemStore {
    map: HashMap<CacheKey, (u64, Arc<CacheEntry>)>,
    stamp: u64,
}

struct CacheInner {
    mem: Mutex<MemStore>,
    capacity: usize,
    disk_dir: Option<PathBuf>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt_entries: AtomicU64,
    disk_write_errors: AtomicU64,
    /// Keys whose compile is in flight right now (single-flight dedup):
    /// concurrent misses on the same key elect one compiling leader, the
    /// rest block on `pending_cv` and re-read the published entry.
    pending: Mutex<HashSet<CacheKey>>,
    pending_cv: Condvar,
}

/// Clears a key's in-flight claim and wakes the waiters — on success, on a
/// compile error, and on unwind alike (RAII, so a panicking compile never
/// strands its followers).
struct PendingGuard<'a> {
    inner: &'a CacheInner,
    key: CacheKey,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.inner
            .pending
            .lock()
            .expect("pending set poisoned")
            .remove(&self.key);
        self.inner.pending_cv.notify_all();
    }
}

/// The shared compile cache. Cloning is cheap (`Arc`) and every clone sees
/// the same store and counters — `DesignFlow` clones share warmth.
#[derive(Clone)]
pub struct CompileCache {
    inner: Arc<CacheInner>,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::new()
    }
}

impl fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("CompileCache")
            .field("resident", &s.resident)
            .field("hits", &s.hits)
            .field("disk_hits", &s.disk_hits)
            .field("misses", &s.misses)
            .field("disk_dir", &self.inner.disk_dir)
            .finish()
    }
}

impl CompileCache {
    /// An in-memory cache with [`DEFAULT_MEMORY_CAPACITY`].
    pub fn new() -> Self {
        CompileCache::with_capacity(DEFAULT_MEMORY_CAPACITY)
    }

    /// An in-memory cache holding at most `capacity` entries (min 1);
    /// least-recently-used entries are evicted beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        CompileCache {
            inner: Arc::new(CacheInner {
                mem: Mutex::new(MemStore {
                    map: HashMap::new(),
                    stamp: 0,
                }),
                capacity: capacity.max(1),
                disk_dir: None,
                hits: AtomicU64::new(0),
                disk_hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                corrupt_entries: AtomicU64::new(0),
                disk_write_errors: AtomicU64::new(0),
                pending: Mutex::new(HashSet::new()),
                pending_cv: Condvar::new(),
            }),
        }
    }

    /// A cache backed by a persistent directory: misses are written through
    /// as atomic `*.blsc` images, and lookups missing in memory try the
    /// directory before recompiling. The directory is created eagerly;
    /// creation failure is recorded as a write error and the cache degrades
    /// to memory-only rather than failing.
    pub fn with_disk_dir(dir: impl Into<PathBuf>) -> Self {
        CompileCache::with_capacity_and_disk_dir(DEFAULT_MEMORY_CAPACITY, dir)
    }

    /// [`CompileCache::with_disk_dir`] with an explicit memory capacity.
    pub fn with_capacity_and_disk_dir(capacity: usize, dir: impl Into<PathBuf>) -> Self {
        let dir: PathBuf = dir.into();
        let mut write_errors = 0;
        let disk_dir = match std::fs::create_dir_all(&dir) {
            Ok(()) => Some(dir),
            Err(_) => {
                write_errors = 1;
                None
            }
        };
        let base = CompileCache::with_capacity(capacity);
        // `Arc::try_unwrap` is safe here: `base` has the only reference.
        let mut inner = Arc::try_unwrap(base.inner).unwrap_or_else(|_| unreachable!());
        inner.disk_dir = disk_dir;
        inner.disk_write_errors = AtomicU64::new(write_errors);
        CompileCache {
            inner: Arc::new(inner),
        }
    }

    /// The persistent directory, when this cache has one.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.inner.disk_dir.as_deref()
    }

    /// [`CompileCache::get_or_compile_entry`], projected onto the schedule.
    pub fn get_or_compile(
        &self,
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
    ) -> Result<(Arc<CompiledSchedule>, CacheOutcome), CompileError> {
        self.get_or_compile_entry(alg, t, ic)
            .map(|(entry, outcome)| (Arc::clone(entry.schedule()), outcome))
    }

    /// The lookup-or-compile entry point: memory, then disk, then
    /// [`CompiledSchedule::try_compile`]. Compile *errors* are returned
    /// (and not cached — `try_compile` rejects oversized inputs in O(1), so
    /// negative caching would buy nothing); compiled schedules are inserted
    /// into memory and written through to disk when configured. The key is
    /// hashed once per lookup and comes back as [`CacheEntry::key`].
    ///
    /// Lookups are **single-flight**: when several threads miss on the same
    /// key at once, exactly one of them compiles (or reads disk) while the
    /// others block until the entry is published and then take a memory hit
    /// — N concurrent identical requests cost one compile, which the
    /// evaluation service's concurrency tests counter-assert. Distinct keys
    /// never wait on each other, and a leader that errors (or panics)
    /// releases its followers to retry.
    pub fn get_or_compile_entry(
        &self,
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
    ) -> Result<(Arc<CacheEntry>, CacheOutcome), CompileError> {
        let key = schedule_key(alg, t, ic);
        loop {
            if let Some(entry) = self.lookup_memory(&key) {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((entry, CacheOutcome::MemoryHit));
            }
            // Claim the key, or wait for the thread that already has.
            {
                let mut pending = self.inner.pending.lock().expect("pending set poisoned");
                if pending.contains(&key) {
                    while pending.contains(&key) {
                        pending = self
                            .inner
                            .pending_cv
                            .wait(pending)
                            .expect("pending set poisoned");
                    }
                    // The leader published (or failed); re-read memory.
                    continue;
                }
                pending.insert(key);
            }
            let _claim = PendingGuard {
                inner: &self.inner,
                key,
            };
            if let Some(sched) = self.lookup_disk(&key) {
                let entry = self.insert_memory(key, sched);
                self.inner.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((entry, CacheOutcome::DiskHit));
            }
            let sched = CompiledSchedule::try_compile(alg, t, ic)?;
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            let entry = self.insert_memory(key, sched);
            self.write_disk(&key, entry.schedule());
            return Ok((entry, CacheOutcome::Miss));
        }
    }

    /// A point-in-time snapshot of the counters (alias of
    /// [`CompileCache::snapshot`], kept for the original call sites).
    pub fn stats(&self) -> CacheStats {
        self.snapshot()
    }

    /// A coherent snapshot of the counters, taken under the store lock so
    /// `resident` and the counters describe the same instant with respect
    /// to insertions and evictions. Pair two snapshots with
    /// [`CacheStats::delta`] to attribute hits/misses to one request even
    /// while other threads keep the shared cache busy.
    pub fn snapshot(&self) -> CacheStats {
        let mem = self.inner.mem.lock().expect("cache poisoned");
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            disk_hits: self.inner.disk_hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            corrupt_entries: self.inner.corrupt_entries.load(Ordering::Relaxed),
            disk_write_errors: self.inner.disk_write_errors.load(Ordering::Relaxed),
            resident: mem.map.len(),
        }
    }

    /// Drops every in-memory entry (counters are kept). Used by tests and
    /// the cold/warm bench to force the disk path.
    pub fn clear_memory(&self) {
        self.inner.mem.lock().expect("cache poisoned").map.clear();
    }

    fn lookup_memory(&self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let mut mem = self.inner.mem.lock().expect("cache poisoned");
        mem.stamp += 1;
        let stamp = mem.stamp;
        mem.map.get_mut(key).map(|(s, entry)| {
            *s = stamp;
            Arc::clone(entry)
        })
    }

    /// Publishes a fresh entry for `sched` (evicting beyond capacity).
    fn insert_memory(&self, key: CacheKey, sched: CompiledSchedule) -> Arc<CacheEntry> {
        let entry = Arc::new(CacheEntry::new(key, Arc::new(sched)));
        let mut mem = self.inner.mem.lock().expect("cache poisoned");
        mem.stamp += 1;
        let stamp = mem.stamp;
        mem.map.insert(key, (stamp, Arc::clone(&entry)));
        while mem.map.len() > self.inner.capacity {
            let oldest = mem
                .map
                .iter()
                .min_by_key(|(_, (s, _))| *s)
                .map(|(k, _)| *k)
                .expect("map over capacity is non-empty");
            mem.map.remove(&oldest);
            self.inner.evictions.fetch_add(1, Ordering::Relaxed);
        }
        entry
    }

    fn entry_path(&self, key: &CacheKey) -> Option<PathBuf> {
        self.inner
            .disk_dir
            .as_ref()
            .map(|d| d.join(format!("{}.{DISK_ENTRY_EXT}", key.hex())))
    }

    fn lookup_disk(&self, key: &CacheKey) -> Option<CompiledSchedule> {
        let path = self.entry_path(key)?;
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return None, // absent (or unreadable): plain miss
        };
        match CompiledSchedule::from_bytes(&bytes) {
            Ok(sched) => Some(sched),
            Err(_) => {
                // Corrupt / truncated / version-skewed: record it, drop the
                // bad file so the recompile's write-through replaces it, and
                // degrade to a miss.
                self.inner.corrupt_entries.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn write_disk(&self, key: &CacheKey, sched: &CompiledSchedule) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let bytes = sched.to_bytes();
        // Atomic publish: write a unique temp file, then rename into place.
        // Readers either see the old complete entry or the new one, never a
        // torn write.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
            self.inner.disk_write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_ir::{BoxSet, Dependence, DependenceSet, Predicate};
    use bitlevel_mapping::PaperDesign;

    fn matmul_structure(u: i64, p: i64) -> AlgorithmTriplet {
        let j = BoxSet::cube(3, 1, u).product(&BoxSet::cube(2, 1, p));
        AlgorithmTriplet::new(
            j,
            DependenceSet::new(vec![
                Dependence::conditional([0, 1, 0, 0, 0], "x", Predicate::eq_const(3, 1)),
                Dependence::conditional([1, 0, 0, 0, 0], "y", Predicate::eq_const(4, 1)),
                Dependence::conditional(
                    [0, 0, 1, 0, 0],
                    "z",
                    Predicate::eq_const(3, p).or(&Predicate::eq_const(4, 1)),
                ),
                Dependence::conditional([0, 0, 0, 1, 0], "x", Predicate::ne_const(3, 1)),
                Dependence::conditional([0, 0, 0, 0, 1], "y,c", Predicate::ne_const(4, 1)),
                Dependence::uniform([0, 0, 0, 1, -1], "z"),
                Dependence::conditional([0, 0, 0, 0, 2], "c'", Predicate::eq_const(3, p)),
            ]),
            "bit-level matmul, Expansion II (composed order)",
        )
    }

    fn triple(p: i64) -> (AlgorithmTriplet, MappingMatrix, Interconnect) {
        let design = PaperDesign::TimeOptimal;
        (
            matmul_structure(3, p),
            design.mapping(p),
            design.interconnect(p),
        )
    }

    #[test]
    fn same_triple_hits_different_triple_misses() {
        let cache = CompileCache::new();
        let (alg, t, ic) = triple(3);
        let (first, o1) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let (second, o2) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        assert_eq!(o2, CacheOutcome::MemoryHit);
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit returns the same artifact"
        );

        let (alg2, t2, ic2) = triple(2);
        let (_, o3) = cache.get_or_compile(&alg2, &t2, &ic2).unwrap();
        assert_eq!(o3, CacheOutcome::Miss);

        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.disk_hits), (1, 2, 0));
        assert_eq!(s.resident, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn key_is_content_based_not_identity_based() {
        let (alg, t, ic) = triple(3);
        let (alg_b, t_b, ic_b) = triple(3); // fresh, equal values
        assert_eq!(
            schedule_key(&alg, &t, &ic),
            schedule_key(&alg_b, &t_b, &ic_b)
        );
        let other = PaperDesign::NearestNeighbour;
        assert_ne!(
            schedule_key(&alg, &t, &ic),
            schedule_key(&alg, &other.mapping(3), &other.interconnect(3))
        );
    }

    #[test]
    fn clones_share_the_store() {
        let cache = CompileCache::new();
        let clone = cache.clone();
        let (alg, t, ic) = triple(3);
        cache.get_or_compile(&alg, &t, &ic).unwrap();
        let (_, o) = clone.get_or_compile(&alg, &t, &ic).unwrap();
        assert_eq!(o, CacheOutcome::MemoryHit);
        assert_eq!(clone.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_at_capacity_one() {
        let cache = CompileCache::with_capacity(1);
        let (alg3, t3, ic3) = triple(3);
        let (alg2, t2, ic2) = triple(2);
        cache.get_or_compile(&alg3, &t3, &ic3).unwrap();
        cache.get_or_compile(&alg2, &t2, &ic2).unwrap(); // evicts the first
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().resident, 1);
        let (_, o) = cache.get_or_compile(&alg3, &t3, &ic3).unwrap();
        assert_eq!(o, CacheOutcome::Miss, "evicted entry recompiles");
    }

    #[test]
    fn compile_errors_pass_through_untouched() {
        let cache = CompileCache::new();
        let deps: Vec<Dependence> = (0..65)
            .map(|k| Dependence::uniform(bitlevel_linalg_ivec([1, 0]), &format!("c{k}")))
            .collect();
        let alg = AlgorithmTriplet::new(BoxSet::cube(2, 1, 3), DependenceSet::new(deps), "wide");
        let t = MappingMatrix::new(
            bitlevel_linalg_imat(&[&[1, 0], &[0, 1]]),
            bitlevel_linalg_ivec([1, 1]),
        );
        let ic = Interconnect::new(bitlevel_linalg_imat(&[&[1, 0], &[0, 1]]));
        let err = cache.get_or_compile(&alg, &t, &ic).unwrap_err();
        assert_eq!(err, CompileError::TooManyColumns { m: 65 });
        // Errors are neither counted as misses nor cached.
        let s = cache.stats();
        assert_eq!((s.misses, s.resident), (0, 0));
    }

    fn bitlevel_linalg_ivec<const N: usize>(v: [i64; N]) -> bitlevel_linalg::IVec {
        bitlevel_linalg::IVec::from(v)
    }

    fn bitlevel_linalg_imat(rows: &[&[i64]]) -> bitlevel_linalg::IMat {
        bitlevel_linalg::IMat::from_rows(rows)
    }

    #[test]
    fn concurrent_identical_misses_compile_exactly_once() {
        let cache = CompileCache::new();
        let (alg, t, ic) = triple(3);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = cache.clone();
            let (alg, t, ic) = (alg.clone(), t.clone(), ic.clone());
            handles.push(std::thread::spawn(move || {
                cache.get_or_compile(&alg, &t, &ic).unwrap().0
            }));
        }
        let scheds: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let s = cache.snapshot();
        assert_eq!(s.misses, 1, "single-flight: one compile for 8 racers");
        assert_eq!(s.hits, 7, "followers take memory hits");
        for pair in scheds.windows(2) {
            assert!(
                Arc::ptr_eq(&pair[0], &pair[1]),
                "all racers share the one published artifact"
            );
        }
    }

    #[test]
    fn snapshot_delta_attributes_one_request() {
        let cache = CompileCache::new();
        let (alg, t, ic) = triple(3);
        let before = cache.snapshot();
        cache.get_or_compile(&alg, &t, &ic).unwrap();
        let mid = cache.snapshot();
        cache.get_or_compile(&alg, &t, &ic).unwrap();
        cache.get_or_compile(&alg, &t, &ic).unwrap();
        let after = cache.snapshot();
        let first = mid.delta(&before);
        assert_eq!((first.misses, first.hits), (1, 0));
        let warm = after.delta(&mid);
        assert_eq!((warm.misses, warm.hits), (0, 2));
        assert_eq!(warm.resident, 1, "delta carries the later gauge value");
        // Out-of-order snapshots saturate to zero instead of wrapping.
        let backwards = before.delta(&after);
        assert_eq!((backwards.misses, backwards.hits), (0, 0));
    }

    #[test]
    fn disk_layer_round_trips_and_survives_cold_starts() {
        let dir = std::env::temp_dir().join(format!("blc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (alg, t, ic) = triple(3);
        {
            let cache = CompileCache::with_disk_dir(&dir);
            let (_, o) = cache.get_or_compile(&alg, &t, &ic).unwrap();
            assert_eq!(o, CacheOutcome::Miss);
            assert_eq!(cache.stats().disk_write_errors, 0);
        }
        // A brand-new cache (cold memory) over the same dir: disk hit.
        let cache = CompileCache::with_disk_dir(&dir);
        let (sched, o) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        assert_eq!(o, CacheOutcome::DiskHit);
        assert_eq!(
            *sched,
            CompiledSchedule::try_compile(&alg, &t, &ic).unwrap()
        );
        // And the promoted entry now hits memory.
        let (_, o) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        assert_eq!(o, CacheOutcome::MemoryHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_degrades_to_recompile() {
        let dir = std::env::temp_dir().join(format!("blc-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (alg, t, ic) = triple(3);
        let cache = CompileCache::with_disk_dir(&dir);
        cache.get_or_compile(&alg, &t, &ic).unwrap();
        let path = cache.entry_path(&schedule_key(&alg, &t, &ic)).unwrap();
        // Corrupt the persisted image, drop memory, and look up again.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        cache.clear_memory();
        let (sched, o) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(cache.stats().corrupt_entries, 1);
        assert_eq!(
            *sched,
            CompiledSchedule::try_compile(&alg, &t, &ic).unwrap()
        );
        // The recompile re-published a good entry.
        cache.clear_memory();
        let (_, o) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        assert_eq!(o, CacheOutcome::DiskHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The three stored artefacts of an entry, as addresses.
    fn artefacts(entry: &CacheEntry, workers: usize) -> [*const (); 3] {
        let (alg, t, ic) = triple(3);
        [
            entry.feasibility(&alg, &t, &ic) as *const _ as *const (),
            entry.mapped_report() as *const _ as *const (),
            Arc::as_ptr(&entry.partition(workers).unwrap()) as *const (),
        ]
    }

    #[test]
    fn entry_artefacts_are_computed_once_and_shared_by_hits_and_clones() {
        let cache = CompileCache::new();
        let (alg, t, ic) = triple(3);
        let (first, o) = cache.get_or_compile_entry(&alg, &t, &ic).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(first.key(), schedule_key(&alg, &t, &ic));
        assert!(first.feasibility(&alg, &t, &ic).is_feasible());
        assert_eq!(
            first
                .mapped_report()
                .divergences_from(&first.schedule().mapped_report()),
            Vec::<&str>::new()
        );
        let shared = artefacts(&first, 2);
        let (hit, o) = cache.clone().get_or_compile_entry(&alg, &t, &ic).unwrap();
        assert_eq!(o, CacheOutcome::MemoryHit);
        assert!(
            Arc::ptr_eq(&first, &hit),
            "a hit returns the resident entry"
        );
        assert_eq!(artefacts(&hit, 2), shared, "hits share every artefact");
        let (sched, _) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        assert!(Arc::ptr_eq(&sched, first.schedule()));
    }

    #[test]
    fn eviction_clearing_and_disk_promotion_start_fresh_entries() {
        let (alg, t, ic) = triple(3);
        let (alg2, t2, ic2) = triple(2);
        let fresh_after = |cache: &CompileCache, drop_entry: &dyn Fn(&CompileCache)| {
            let (old, _) = cache.get_or_compile_entry(&alg, &t, &ic).unwrap();
            let old_artefacts = artefacts(&old, 2);
            drop_entry(cache);
            // `old` stays alive, so a fresh entry cannot reuse its addresses.
            let (new, o) = cache.get_or_compile_entry(&alg, &t, &ic).unwrap();
            assert!(!Arc::ptr_eq(&old, &new));
            let new_artefacts = artefacts(&new, 2);
            for (a, b) in old_artefacts.iter().zip(&new_artefacts) {
                assert_ne!(a, b, "a fresh entry recomputes its artefacts");
            }
            o
        };
        let lru = CompileCache::with_capacity(1);
        let evict = |c: &CompileCache| {
            c.get_or_compile(&alg2, &t2, &ic2).unwrap();
        };
        assert_eq!(fresh_after(&lru, &evict), CacheOutcome::Miss);
        assert_eq!(lru.stats().evictions, 2);

        let cleared = CompileCache::new();
        let clear = |c: &CompileCache| c.clear_memory();
        assert_eq!(fresh_after(&cleared, &clear), CacheOutcome::Miss);

        let dir = std::env::temp_dir().join(format!("blc-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = CompileCache::with_disk_dir(&dir);
        assert_eq!(fresh_after(&disk, &clear), CacheOutcome::DiskHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partition_slot_keeps_one_layout_for_the_last_requested_count() {
        let cache = CompileCache::new();
        let (alg, t, ic) = triple(3);
        let (entry, _) = cache.get_or_compile_entry(&alg, &t, &ic).unwrap();
        let mut layouts: Vec<std::sync::Weak<PartitionedSchedule>> = Vec::new();
        for workers in [1, 2, 3, 2] {
            let part = entry.partition(workers).unwrap();
            let built = PartitionedSchedule::try_new(Arc::clone(entry.schedule()), workers);
            assert_eq!(part.stats(), built.unwrap().stats(), "workers {workers}");
            assert!(Arc::ptr_eq(&part, &entry.partition(workers).unwrap()));
            layouts.push(Arc::downgrade(&part));
            drop(part);
            let resident = layouts.iter().filter(|w| w.strong_count() > 0).count();
            assert_eq!(resident, 1, "one layout resident after workers {workers}");
        }
        // Errors are O(1), not stored, and leave the resident layout alone.
        assert_eq!(entry.partition(0).unwrap_err(), PartitionError::ZeroWorkers);
        assert_eq!(layouts[3].strong_count(), 1);
    }

    #[test]
    fn unwritable_disk_dir_degrades_to_memory_only() {
        // A path under a *file* cannot be created as a directory.
        let blocker = std::env::temp_dir().join(format!("blc-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"x").unwrap();
        let cache = CompileCache::with_disk_dir(blocker.join("sub"));
        assert!(cache.disk_dir().is_none());
        assert_eq!(cache.stats().disk_write_errors, 1);
        let (alg, t, ic) = triple(2);
        let (_, o) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        let (_, o) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        assert_eq!(o, CacheOutcome::MemoryHit);
        let _ = std::fs::remove_file(&blocker);
    }
}
