//! Durable warm start: crash-safe [`SolveCache`] snapshots.
//!
//! A restarted scheduler should serve its first burst warm instead of
//! re-solving (and re-simulating) everything from cold. This module
//! gives the cache a versioned on-disk snapshot format and two
//! operations:
//!
//! * [`SolveCache::save_to`] — serialise the store (solve
//!   entries with their LRU recency stamps, memoized [`SimOutcome`]s,
//!   cumulative hit/miss/eviction statistics) **crash-safely**: the
//!   snapshot is written to a temporary sibling file, fsynced, and
//!   atomically renamed over the target, so a kill at any instant
//!   leaves either the previous snapshot or the new one — never a
//!   torn file.
//! * [`SolveCache::load_from`] — parse and validate a snapshot fully
//!   *before* touching the cache, classifying every failure as a
//!   [`SnapshotError`]; a corrupt, truncated, or mismatched file
//!   leaves the cache exactly as it was (a cold start), never a
//!   partial restore, and never a panic.
//!
//! # Snapshot format (version 5)
//!
//! Little-endian throughout, laid out like the store it saves. A
//! 36-byte header:
//!
//! | field         | size | meaning                                       |
//! |---------------|------|-----------------------------------------------|
//! | magic         | 8    | `b"DHPCACHE"`                                 |
//! | version       | 4    | format version, this module writes 5          |
//! | `config_hash` | 8    | [`SolveCache::config_hash`] of the solver     |
//! | body length   | 8    | byte length of the body                       |
//! | body checksum | 8    | FNV-1a over the body bytes                    |
//!
//! then the body, all of it under the checksum: the counters (hits,
//! misses, evictions, sim hits, sim misses; 8 bytes each), the recency
//! clock (8), the entry count (8), and one record per memoized key in
//! ascending key order:
//!
//! | field      | size        | meaning                                          |
//! |------------|-------------|--------------------------------------------------|
//! | key        | 8 + 8 + 1 + 8 | fingerprint, lease shape, algorithm (0 DagHetPart, 1 DagHetMem), config hash |
//! | stamp      | 8           | LRU recency stamp, at most the clock             |
//! | kind       | 1           | 0 a memoized `NoSolution` (the record ends here), 1 a solve, 2 a solve with its sim |
//! | makespan   | 8           | `f64` bits                                       |
//! | `k'`       | 8           | block count of the winning configuration         |
//! | blocks     | 8 + 4·n     | task count `n`, then each task's block, numbered densely in order of first appearance |
//! | processors | 8 + 8·k     | one lease-local processor per block (`u64::MAX`: none) |
//! | sim        | var         | kind 2 only: makespan (8), task starts and finishes (each `8 + 8·n`), lanes (`8 + 12·l`: processor `u32`, busy time `f64`) |
//!
//! A sim lives on the solve it simulates, so a sim without one cannot
//! be written down. A solve's wall-clock `elapsed` is not saved: no
//! reader of a memoized result uses it, and a restored entry has
//! [`Duration::ZERO`], so the bytes are a pure function of the cache
//! contents.
//!
//! Snapshots of any other version are refused as
//! [`SnapshotError::WrongVersion`] and degrade to a classified cold
//! start — the same recovery semantics as any other incompatibility.
//! The version is checked before any later offset is read, so a
//! version-4 file (two more 8-byte fields after `config_hash`) is
//! refused, not misread. The reader checks every length prefix against
//! the bytes left before it allocates anything, and refuses as
//! [`SnapshotError::Malformed`] a record out of key order, a stamp past
//! the clock, a block array that is not densely numbered and a
//! processor table with other than one entry per block. Whether an
//! entry fits the graph and the lease its key names, which the reader
//! cannot see, the store checks at each read for them: an entry that
//! does not fit is dropped and solved again.

// Digest-pinned output: no hash-ordered collection may reach it.
#![deny(clippy::disallowed_types)]

use crate::mapping::Mapping;
use crate::metrics::MappingResult;
use crate::partial::{Algorithm, CachedSolve, SimOutcome, SolveCache, SolveCacheStats, StoreImage};
use dhp_dag::fingerprint::fnv1a_bytes;
use dhp_dag::{NodeId, Partition};
use dhp_platform::ProcId;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Leading magic bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"DHPCACHE";

/// The snapshot format version this module reads and writes.
pub const FORMAT_VERSION: u32 = 5;

/// Why a snapshot failed to load. Every variant is a **cold start**,
/// never a panic; [`SnapshotError::Missing`] is the expected first-run
/// case and callers usually treat it silently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// No file at the given path (a first run; silent cold start).
    Missing,
    /// The file exists but could not be read.
    Io(String),
    /// The file is shorter than its header or body length claims.
    Truncated,
    /// The file does not start with [`MAGIC`] — not a snapshot.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    WrongVersion(u32),
    /// The body bytes do not match the header checksum (bit rot or a
    /// torn write that bypassed the atomic-rename protocol).
    ChecksumMismatch,
    /// The snapshot was saved under a different solver configuration;
    /// its entries would be keyed wrongly, so none are loaded.
    ConfigMismatch {
        /// `config_hash` recorded in the snapshot header.
        found: u64,
        /// `config_hash` of the loading run's solver configuration.
        expected: u64,
    },
    /// The frame is intact but the body inside it does not parse.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Missing => write!(f, "no snapshot file"),
            SnapshotError::Io(e) => write!(f, "cannot read snapshot: {e}"),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadMagic => write!(f, "not a solve-cache snapshot (bad magic)"),
            SnapshotError::WrongVersion(v) => write!(
                f,
                "snapshot format version {v} (this build reads {FORMAT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot body fails its checksum"),
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot was saved under solver config {found:016x}, this run uses {expected:016x}"
            ),
            SnapshotError::Malformed(e) => write!(f, "snapshot record is malformed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What a successful [`SolveCache::load_from`] restored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadSummary {
    /// Solve entries restored.
    pub solves: usize,
    /// Simulation outcomes restored.
    pub sims: usize,
}

// ------------------------------------------------------------- writing

/// The processor-table word of a block mapped to no processor.
const NO_PROC: u64 = u64::MAX;

/// Appends each word little-endian.
fn put(body: &mut Vec<u8>, words: impl IntoIterator<Item = u64>) {
    for w in words {
        body.extend_from_slice(&w.to_le_bytes());
    }
}

/// Appends a length-prefixed array of `f64` bit patterns.
fn put_f64s(body: &mut Vec<u8>, xs: &[f64]) {
    put(body, [xs.len() as u64]);
    put(body, xs.iter().map(|x| x.to_bits()));
}

/// The body of a snapshot of `image` (see the module docs).
fn encode(image: &StoreImage) -> Vec<u8> {
    let mut body = Vec::new();
    let s = image.stats;
    let counters = [s.hits, s.misses, s.evictions, s.sim_hits, s.sim_misses];
    let entries = image.entries.len() as u64;
    put(&mut body, counters.into_iter().chain([image.tick, entries]));
    for (key, entry, stamp) in &image.entries {
        let (fp, shape, algorithm, chash) = *key;
        put(&mut body, [fp, shape]);
        body.push(algorithm as u8);
        put(&mut body, [chash, *stamp]);
        let CachedSolve::Solved { local, sim } = entry else {
            body.push(0);
            continue;
        };
        body.push(1 + u8::from(sim.is_some()));
        let (partition, procs) = (&local.mapping.partition, &local.mapping.proc_of_block);
        let n = partition.len();
        put(
            &mut body,
            [local.makespan.to_bits(), local.kprime as u64, n as u64],
        );
        for u in 0..n {
            body.extend_from_slice(&partition.block_of(NodeId(u as u32)).0.to_le_bytes());
        }
        put(&mut body, [procs.len() as u64]);
        put(
            &mut body,
            procs.iter().map(|p| p.map_or(NO_PROC, |p| u64::from(p.0))),
        );
        if let Some(sim) = sim {
            put(&mut body, [sim.makespan.to_bits()]);
            put_f64s(&mut body, &sim.task_start);
            put_f64s(&mut body, &sim.task_finish);
            put(&mut body, [sim.lanes.len() as u64]);
            for &(p, busy) in &sim.lanes {
                body.extend_from_slice(&p.to_le_bytes());
                put(&mut body, [busy.to_bits()]);
            }
        }
    }
    body
}

// ------------------------------------------------------------- reading

fn malformed(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(what.into())
}

/// A cursor over a snapshot body. Every read is bounds-checked, and
/// every length prefix is checked against the bytes left before it
/// sizes an allocation.
struct Body<'a>(&'a [u8]);

impl Body<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let Some((head, rest)) = self.0.split_first_chunk::<N>() else {
            return Err(malformed("a record runs past the end of the body"));
        };
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        self.take().map(u8::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        self.u64().map(f64::from_bits)
    }

    /// A length prefix, then that many items of at least `size` bytes
    /// each, read by `item`.
    fn vec<T>(
        &mut self,
        size: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.u64()?;
        let left = self.0.len();
        if n > (left / size) as u64 {
            return Err(malformed(format!(
                "{n} items of {size} bytes claimed with {left} bytes left"
            )));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A solve record's payload, after its kind byte.
    fn solve(&mut self) -> Result<MappingResult, SnapshotError> {
        let makespan = self.f64()?;
        let kprime = usize::try_from(self.u64()?).map_err(|_| malformed("k' overflows usize"))?;
        let partition = Partition::try_from_dense(self.vec(4, Body::u32)?)
            .ok_or_else(|| malformed("block array is not densely numbered"))?;
        let proc_of_block = self.vec(8, |b| match b.u64()? {
            NO_PROC => Ok(None),
            p => u32::try_from(p)
                .map(|p| Some(ProcId(p)))
                .map_err(|_| malformed(format!("processor {p} overflows u32"))),
        })?;
        if proc_of_block.len() != partition.num_blocks() {
            return Err(malformed(format!(
                "{} processor entries for {} blocks",
                proc_of_block.len(),
                partition.num_blocks()
            )));
        }
        Ok(MappingResult {
            mapping: Mapping {
                partition,
                proc_of_block,
            },
            makespan,
            kprime,
            elapsed: Duration::ZERO,
        })
    }

    fn sim(&mut self) -> Result<SimOutcome, SnapshotError> {
        Ok(SimOutcome {
            makespan: self.f64()?,
            task_start: self.vec(8, Body::f64)?,
            task_finish: self.vec(8, Body::f64)?,
            lanes: self.vec(12, |b| Ok((b.u32()?, b.f64()?)))?,
        })
    }
}

/// Parses a checksummed body back into the store it was saved from.
fn decode(body: &[u8]) -> Result<StoreImage, SnapshotError> {
    let mut b = Body(body);
    let stats = SolveCacheStats {
        hits: b.u64()?,
        misses: b.u64()?,
        evictions: b.u64()?,
        sim_hits: b.u64()?,
        sim_misses: b.u64()?,
    };
    let tick = b.u64()?;
    let mut last = None;
    // A record is at least its key, stamp and kind byte.
    let entries = b.vec(8 + 8 + 1 + 8 + 8 + 1, |b| {
        let (fp, shape) = (b.u64()?, b.u64()?);
        let algorithm = match b.u8()? {
            0 => Algorithm::DagHetPart,
            1 => Algorithm::DagHetMem,
            a => return Err(malformed(format!("unknown algorithm byte {a}"))),
        };
        let key = (fp, shape, algorithm, b.u64()?);
        if last.is_some_and(|prev| prev >= key) {
            return Err(malformed(format!("key {key:x?} is out of order")));
        }
        last = Some(key);
        let stamp = b.u64()?;
        if stamp > tick {
            return Err(malformed(format!("stamp {stamp} is past the clock {tick}")));
        }
        let entry = match b.u8()? {
            0 => CachedSolve::NoSolution,
            kind @ (1 | 2) => CachedSolve::Solved {
                local: Arc::new(b.solve()?),
                sim: if kind == 2 {
                    Some(Arc::new(b.sim()?))
                } else {
                    None
                },
            },
            kind => return Err(malformed(format!("unknown entry kind {kind}"))),
        };
        Ok((key, entry, stamp))
    })?;
    if !b.0.is_empty() {
        return Err(malformed("trailing bytes after the last record"));
    }
    Ok(StoreImage {
        tick,
        stats,
        entries,
    })
}

/// Byte offset of the body: magic + version + config_hash + body
/// length + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// The header (see the module docs) followed by `body`.
fn frame(config_hash: u64, body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + body.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    frame.extend_from_slice(&config_hash.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
    frame.extend_from_slice(&fnv1a_bytes(body.iter().copied()).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

impl SolveCache {
    /// Serialises the cache to `path` **crash-safely**: the snapshot
    /// is written to a `.tmp` sibling, flushed and fsynced, then
    /// atomically renamed over `path` (and the parent directory
    /// fsynced), so a kill at any instant leaves either the previous
    /// snapshot or the complete new one on disk.
    ///
    /// `config_hash` stamps the header: a later
    /// [`SolveCache::load_from`] under a different solver
    /// configuration refuses the whole file rather than serving
    /// wrongly-keyed entries.
    pub fn save_to(&self, path: &Path, config_hash: u64) -> std::io::Result<()> {
        let frame = frame(config_hash, &encode(&self.snapshot()));

        // Temp file + fsync + atomic rename + directory fsync: the
        // rename is the commit point; everything before it is
        // invisible to a concurrent or subsequent load.
        let tmp = temp_sibling(path);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&frame)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Persist the rename itself; best-effort on filesystems
            // that refuse to open directories.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Restores a snapshot saved by [`SolveCache::save_to`] into this
    /// cache: entries come back with their sims and keep their relative
    /// LRU order (saved recency stamps; the clock advances to the saved
    /// one), and the snapshot's cumulative statistics carry over. If this cache is capacity-bounded and the snapshot
    /// exceeds the bound, least-recently-used entries are evicted down
    /// to capacity.
    ///
    /// The file is parsed and validated **fully before** the cache is
    /// touched: on any [`SnapshotError`] the cache is exactly as it
    /// was. A disabled cache ignores the file and reports an empty
    /// [`LoadSummary`].
    pub fn load_from(
        &self,
        path: &Path,
        expected_config_hash: u64,
    ) -> Result<LoadSummary, SnapshotError> {
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(SnapshotError::Missing)
            }
            Err(e) => return Err(SnapshotError::Io(e.to_string())),
            Ok(b) => b,
        };
        let Some((header, body)) = bytes.split_first_chunk::<HEADER_LEN>() else {
            // An empty or half-written header: if the magic does not
            // even match what is there, call it foreign, else torn.
            if !bytes.is_empty() && !MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated);
        };
        let mut header = Body(header);
        if header.take()? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = header.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::WrongVersion(version));
        }
        let found = header.u64()?;
        if found != expected_config_hash {
            return Err(SnapshotError::ConfigMismatch {
                found,
                expected: expected_config_hash,
            });
        }
        if header.u64()? != body.len() as u64 {
            return Err(SnapshotError::Truncated);
        }
        let checksum = header.u64()?;
        if fnv1a_bytes(body.iter().copied()) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        // Parse everything first; the cache is only touched once the
        // whole body has decoded cleanly.
        let image = decode(body)?;
        if !self.is_enabled() {
            return Ok(LoadSummary::default());
        }
        let summary = LoadSummary {
            solves: image.entries.len(),
            sims: image
                .entries
                .iter()
                .filter(|(_, entry, _)| matches!(entry, CachedSolve::Solved { sim: Some(_), .. }))
                .count(),
        };
        self.restore(image);
        Ok(summary)
    }
}

/// The temporary sibling `save_to` stages its write in: same
/// directory (so the rename is atomic), `.tmp`-suffixed file name.
pub fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daghetpart::DagHetPartConfig;
    use crate::partial::{schedule_on_subcluster, CacheView, Solver};
    use dhp_dag::builder;
    use dhp_platform::{Cluster, Processor};

    fn cluster() -> Cluster {
        Cluster::new(
            vec![
                Processor::new("m0", 2.0, 64.0),
                Processor::new("m1", 4.0, 128.0),
                Processor::new("m2", 1.0, 32.0),
                Processor::new("m3", 8.0, 256.0),
            ],
            1.0,
        )
    }

    /// A temp directory unique to the calling test.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dhp-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Populates a cache with two solved entries (one hit to order the
    /// LRU stamps), a memoized NoSolution, and one sim outcome;
    /// returns the graphs for later probing. Every key carries the
    /// default DagHetPart settings' config hash.
    fn populate(cache: &SolveCache) -> (Vec<dhp_dag::Dag>, u64) {
        let c = cluster();
        let solver = Solver::new(Algorithm::DagHetPart, DagHetPartConfig::default());
        let lease = [dhp_platform::ProcId(3), dhp_platform::ProcId(1)];
        let shape = c.shape_of_slice(&lease);
        let graphs: Vec<dhp_dag::Dag> = (4..6).map(|n| builder::chain(n, 2.0, 4.0, 1.0)).collect();
        let view = CacheView::direct(cache, &solver);
        let solve = |g: &dhp_dag::Dag, ids: &[dhp_platform::ProcId]| {
            view.solve(g, g.fingerprint(), &c, ids)
        };
        for g in &graphs {
            solve(g, &lease).unwrap();
        }
        // Refresh g0 so the snapshot carries a non-trivial LRU order.
        solve(&graphs[0], &lease).unwrap();
        let big = builder::chain(40, 1.0, 30.0, 5.0);
        let _ = solve(&big, &[dhp_platform::ProcId(2)]);
        let key = view.key(graphs[0].fingerprint(), shape);
        view.sim_outcome_keyed(key, || SimOutcome {
            makespan: 12.5,
            task_start: vec![0.0, 2.5, 5.0, 7.5],
            task_finish: vec![2.5, 5.0, 7.5, 12.5],
            lanes: vec![(0, 10.0), (1, 2.5)],
        });
        (graphs, shape)
    }

    #[test]
    fn snapshot_roundtrips_entries_stamps_stats_and_sims() {
        let dir = scratch("roundtrip");
        let path = dir.join("cache.snap");
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let (graphs, shape) = populate(&cache);
        let saved_stats = cache.stats();
        cache.save_to(&path, chash).unwrap();

        let restored = SolveCache::new();
        let summary = restored.load_from(&path, chash).unwrap();
        assert_eq!(summary, LoadSummary { solves: 3, sims: 1 });
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.sim_len(), 1);
        assert_eq!(restored.stats(), saved_stats, "cumulative stats carry over");

        // Warm probes: both solves hit, the sim hits bit-exactly.
        let c = cluster();
        let sub = c.subcluster(&[dhp_platform::ProcId(3), dhp_platform::ProcId(1)]);
        let solver = Solver::new(Algorithm::DagHetPart, cfg.clone());
        let view = CacheView::direct(&restored, &solver);
        for g in &graphs {
            let direct = schedule_on_subcluster(g, &sub, Algorithm::DagHetPart, &cfg).unwrap();
            let warm = view
                .solve(g, g.fingerprint(), &c, sub.global_ids())
                .unwrap();
            assert_eq!(warm.makespan, direct.local.makespan);
            assert_eq!(
                warm.mapping.proc_of_block,
                direct.local.mapping.proc_of_block
            );
        }
        let key = view.key(graphs[0].fingerprint(), shape);
        let sim = view.sim_outcome_keyed(key, || panic!("restored sim must hit"));
        assert_eq!(sim.makespan, 12.5);
        assert_eq!(sim.lanes, vec![(0, 10.0), (1, 2.5)]);
        let after = restored.stats();
        assert_eq!(after.hits, saved_stats.hits + graphs.len() as u64);
        assert_eq!(after.misses, saved_stats.misses);
        assert_eq!(after.sim_hits, saved_stats.sim_hits + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_lru_order_survives_the_roundtrip() {
        let dir = scratch("lru");
        let path = dir.join("cache.snap");
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let unbounded = SolveCache::new();
        let (graphs, shape) = populate(&unbounded);
        unbounded.save_to(&path, chash).unwrap();

        // Load into a capacity-2 cache: the snapshot's 3 entries evict
        // down to 2, and the victim is the entry with the *oldest*
        // restored stamp (the NoSolution probe was last, g1 before it,
        // g0 was refreshed) — so g1... wait, g0 refreshed last of the
        // solves; order is g1 < g0 < NoSolution. The victim is g1.
        let capped = SolveCache::with_capacity(2);
        capped.load_from(&path, chash).unwrap();
        assert_eq!(capped.len(), 2);
        assert!(capped.is_warm(graphs[0].fingerprint(), shape, Algorithm::DagHetPart, chash));
        assert!(!capped.is_warm(graphs[1].fingerprint(), shape, Algorithm::DagHetPart, chash));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_classified_not_a_panic() {
        let dir = scratch("missing");
        let cache = SolveCache::new();
        assert_eq!(
            cache.load_from(&dir.join("nope.snap"), 1).unwrap_err(),
            SnapshotError::Missing
        );
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_files_degrade_to_classified_cold_starts() {
        let dir = scratch("hostile");
        let path = dir.join("cache.snap");
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        populate(&cache);
        cache.save_to(&path, chash).unwrap();
        let good = std::fs::read(&path).unwrap();

        let load = |bytes: &[u8]| -> (SolveCache, Result<LoadSummary, SnapshotError>) {
            let p = dir.join("mut.snap");
            std::fs::write(&p, bytes).unwrap();
            let fresh = SolveCache::new();
            let loaded = fresh.load_from(&p, chash);
            (fresh, loaded)
        };
        let try_load = |bytes: &[u8]| -> SnapshotError {
            let (fresh, loaded) = load(bytes);
            // The failed load never half-populates the cache.
            assert!(fresh.is_empty() && fresh.sim_len() == 0);
            loaded.unwrap_err()
        };

        // Truncated: drop the tail of the body.
        assert_eq!(try_load(&good[..good.len() - 7]), SnapshotError::Truncated);
        // Truncated inside the header.
        assert_eq!(try_load(&good[..10]), SnapshotError::Truncated);
        // Bit flip in the body: checksum catches it.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(try_load(&flipped), SnapshotError::ChecksumMismatch);
        // Foreign file.
        assert_eq!(
            try_load(b"{\"not\": \"a snapshot\"}"),
            SnapshotError::BadMagic
        );
        // Wrong format version — a later one, and the previous one
        // (whose header is two fields longer; it is never parsed).
        for v in [99u32, 4] {
            let mut wrong_ver = good.clone();
            wrong_ver[8..12].copy_from_slice(&v.to_le_bytes());
            assert_eq!(try_load(&wrong_ver), SnapshotError::WrongVersion(v));
        }
        // An entry count no body of this length can hold is refused
        // before it sizes anything, checksum re-stamped; one that is
        // merely one too many runs off the end of the body.
        let body = &good[HEADER_LEN..];
        let count_at = 6 * 8;
        assert_eq!(body[count_at..count_at + 8], 3u64.to_le_bytes());
        for claimed in [u64::MAX, 4] {
            let mut more = body.to_vec();
            more[count_at..count_at + 8].copy_from_slice(&claimed.to_le_bytes());
            let err = try_load(&frame(chash, &more));
            assert!(matches!(err, SnapshotError::Malformed(_)), "{err:?}");
        }
        // One solved entry over two tasks in two blocks, the block
        // array and the processor table made hostile by hand.
        let one_solve = |proc_of_block: Vec<Option<ProcId>>| -> Vec<u8> {
            let local = MappingResult {
                mapping: Mapping {
                    partition: Partition::from_dense(vec![0, 1]),
                    proc_of_block,
                },
                makespan: 1.0,
                kprime: 2,
                elapsed: Duration::ZERO,
            };
            let image = StoreImage {
                tick: 1,
                stats: SolveCacheStats::default(),
                entries: vec![(
                    (1, 2, Algorithm::DagHetPart, chash),
                    CachedSolve::Solved {
                        local: Arc::new(local),
                        sim: None,
                    },
                    1,
                )],
            };
            encode(&image)
        };
        let fine = one_solve(vec![Some(ProcId(0)), Some(ProcId(1))]);
        assert_eq!(
            load(&frame(chash, &fine)).1,
            Ok(LoadSummary { solves: 1, sims: 0 }),
            "premise: the hand-built entry loads"
        );
        // Blocks [0, 1] → [1, 0]: still two blocks, one processor
        // each, but block 1 comes before block 0.
        let blocks: Vec<u8> = [
            2u64.to_le_bytes().as_slice(),
            &0u32.to_le_bytes(),
            &1u32.to_le_bytes(),
        ]
        .concat();
        let at = fine
            .windows(blocks.len())
            .position(|w| w == blocks)
            .unwrap();
        let mut non_dense = fine.clone();
        non_dense[at + 8..at + 12].copy_from_slice(&1u32.to_le_bytes());
        non_dense[at + 12..at + 16].copy_from_slice(&0u32.to_le_bytes());
        // A processor table one entry short of the block count.
        let short = one_solve(vec![Some(ProcId(0))]);
        // Records in descending and in repeated key order, a stamp past
        // the clock (1), a byte after the last record and an unknown
        // entry kind.
        let no_solutions = |fps: [u64; 2], stamp: u64| -> Vec<u8> {
            let key = |fp| (fp, 2, Algorithm::DagHetPart, chash);
            let entries = fps.map(|fp| (key(fp), CachedSolve::NoSolution, stamp));
            encode(&StoreImage {
                tick: 1,
                stats: SolveCacheStats::default(),
                entries: entries.to_vec(),
            })
        };
        assert_eq!(
            load(&frame(chash, &no_solutions([1, 2], 1))).1,
            Ok(LoadSummary { solves: 2, sims: 0 }),
            "premise: ascending keys load"
        );
        let mut trailing = fine.clone();
        trailing.push(0);
        // The last byte is the last record's kind.
        let mut unknown_kind = no_solutions([1, 2], 1);
        *unknown_kind.last_mut().unwrap() = 3;
        for body in [
            non_dense,
            short,
            no_solutions([2, 1], 1),
            no_solutions([1, 1], 1),
            no_solutions([1, 2], 2),
            trailing,
            unknown_kind,
        ] {
            let err = try_load(&frame(chash, &body));
            assert!(matches!(err, SnapshotError::Malformed(_)), "{err:?}");
        }
        // Wrong solver config: the whole file is refused.
        let fresh = SolveCache::new();
        let err = fresh.load_from(&path, chash ^ 1).unwrap_err();
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }));
        assert!(fresh.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every prefix of a saved file, and seeded single-byte mutations
    /// of its body with the checksum re-stamped: each load returns `Ok`
    /// or a classified error — never a panic — and an `Err` leaves the
    /// cache empty.
    #[test]
    fn prefixes_and_mutated_bodies_never_panic() {
        let dir = scratch("hostile-bytes");
        let path = dir.join("cache.snap");
        let chash = SolveCache::config_hash(&DagHetPartConfig::default());
        let cache = SolveCache::new();
        populate(&cache);
        cache.save_to(&path, chash).unwrap();
        let good = std::fs::read(&path).unwrap();

        let load = |bytes: &[u8]| -> Result<LoadSummary, SnapshotError> {
            std::fs::write(&path, bytes).unwrap();
            let fresh = SolveCache::new();
            let loaded = fresh.load_from(&path, chash);
            if loaded.is_err() {
                assert!(fresh.is_empty(), "a failed load restored entries");
            }
            loaded
        };
        for end in 0..good.len() {
            let err = load(&good[..end]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "{end}: {err:?}"
            );
        }

        let body = &good[HEADER_LEN..];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            // xorshift64: a fixed seed, no dependency.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut ok, mut malformed) = (0, 0);
        for _ in 0..2_000 {
            let mut mutated = body.to_vec();
            let at = next() as usize % mutated.len();
            mutated[at] ^= (next() % 255 + 1) as u8;
            match load(&frame(chash, &mutated)) {
                Ok(_) => ok += 1,
                Err(SnapshotError::Malformed(_)) => malformed += 1,
                Err(e) => panic!("a re-stamped body gave {e:?}"),
            }
        }
        // Neither outcome is vacuous: flipped stamps, makespans and
        // counters still load; flipped lengths, kinds and keys do not.
        assert!(
            ok > 0 && malformed > 0,
            "{ok} loaded, {malformed} malformed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_kill_between_temp_write_and_rename_leaves_the_old_snapshot() {
        let dir = scratch("kill");
        let path = dir.join("cache.snap");
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        populate(&cache);
        cache.save_to(&path, chash).unwrap();

        // Simulate the crash window: a later save that died after
        // writing its temp file but before the rename. The temp
        // sibling holds garbage; the committed snapshot is untouched.
        std::fs::write(temp_sibling(&path), b"torn half-written snapshot").unwrap();
        let restored = SolveCache::new();
        let summary = restored.load_from(&path, chash).unwrap();
        assert_eq!(summary.solves, 3);
        assert_eq!(restored.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_overwrites_atomically() {
        let dir = scratch("overwrite");
        let path = dir.join("cache.snap");
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        cache.save_to(&path, chash).unwrap(); // empty snapshot
        let restored = SolveCache::new();
        assert_eq!(
            restored.load_from(&path, chash).unwrap(),
            LoadSummary::default()
        );
        populate(&cache);
        cache.save_to(&path, chash).unwrap(); // replaces in place
        assert_eq!(restored.load_from(&path, chash).unwrap().solves, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_caches_validate_but_do_not_restore() {
        let dir = scratch("disabled");
        let path = dir.join("cache.snap");
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        populate(&cache);
        cache.save_to(&path, chash).unwrap();
        let disabled = SolveCache::disabled();
        assert_eq!(
            disabled.load_from(&path, chash).unwrap(),
            LoadSummary::default()
        );
        assert!(disabled.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
