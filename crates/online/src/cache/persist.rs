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

use super::store::{CachedSolve, SimOutcome, SolveCache, SolveCacheStats, StoreImage};
use dhp_core::{Algorithm, Mapping, MappingResult};
use dhp_dag::fingerprint::fnv1a_bytes;
use dhp_dag::{NodeId, Partition};
use dhp_platform::ProcId;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Leading magic bytes of every snapshot.
const MAGIC: [u8; 8] = *b"DHPCACHE";

/// The snapshot format version this module reads and writes.
const FORMAT_VERSION: u32 = 5;

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
    /// The file does not start with the `DHPCACHE` magic — not a
    /// snapshot.
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
pub(crate) fn encode(image: &StoreImage) -> Vec<u8> {
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
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// The header (see the module docs) followed by `body`.
pub(crate) fn frame(config_hash: u64, body: &[u8]) -> Vec<u8> {
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
