//! Durable warm start: crash-safe [`SolveCache`] snapshots.
//!
//! A restarted scheduler should serve its first burst warm instead of
//! re-solving (and re-simulating) everything from cold. This module
//! gives the cache a versioned on-disk snapshot format and two
//! operations:
//!
//! * [`SolveCache::save_to`] — serialise the striped store (solve
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
//! # Snapshot format (version 3)
//!
//! A little-endian binary frame around length-prefixed JSON records
//! (the workspace's vendored serde shims provide the JSON):
//!
//! | field         | size | meaning                                       |
//! |---------------|------|-----------------------------------------------|
//! | magic         | 8    | `b"DHPCACHE"`                                 |
//! | version       | 4    | format version, this module writes 3          |
//! | `config_hash` | 8    | [`SolveCache::config_hash`] of the solver     |
//! | stripes       | 4    | stripe count at save time (informational)     |
//! | solves        | 8    | number of solve records in the body           |
//! | sims          | 8    | number of sim records in the body             |
//! | body length   | 8    | byte length of the body                       |
//! | body checksum | 8    | FNV-1a over the body bytes                    |
//! | body          | var  | records: meta, solves, then sims              |
//!
//! Snapshots of any other version are refused as
//! [`SnapshotError::WrongVersion`] and degrade to a classified cold
//! start — the same recovery semantics as any other incompatibility.
//!
//! The header sits outside the body checksum, so the two record counts
//! are checked against the body before anything is sized by them: every
//! record carries a 4-byte length prefix, so a count above
//! `body length / 4` is [`SnapshotError::Malformed`].
//!
//! Every record is a `u32` byte length followed by that many bytes of
//! UTF-8 JSON. All `u64` hashes, recency stamps, and `f64` bit
//! patterns are hex-*strings* in the JSON: the vendored value tree
//! stores numbers as `f64`, which cannot represent full-range 64-bit
//! integers exactly, and a warm start must round-trip bit-exactly.
//!
//! The stripe count is informational only: stripe membership is a pure
//! function of the key, so a snapshot loads correctly into a cache
//! with any stripe count.

use crate::metrics::MappingResult;
use crate::partial::{Algorithm, SimOutcome, SolveCache, SolveCacheStats};
use dhp_dag::fingerprint::fnv1a_bytes;
use dhp_dag::Partition;
use dhp_platform::ProcId;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Leading magic bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"DHPCACHE";

/// The snapshot format version this module reads and writes.
pub const FORMAT_VERSION: u32 = 3;

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
    /// The frame is intact but a record inside it does not parse.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Missing => write!(f, "no snapshot file"),
            SnapshotError::Io(e) => write!(f, "cannot read snapshot: {e}"),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadMagic => write!(f, "not a solve-cache snapshot (bad magic)"),
            SnapshotError::WrongVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
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

// ------------------------------------------------------------ JSON DTOs
//
// All u64 values (FNV hashes, recency stamps, f64 bit patterns) travel
// as 16-digit hex strings — see the module docs.

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn unhex(s: &str) -> Result<u64, SnapshotError> {
    u64::from_str_radix(s, 16).map_err(|_| SnapshotError::Malformed(format!("bad hex u64: {s:?}")))
}

fn hex_f64(x: f64) -> String {
    hex(x.to_bits())
}

fn unhex_f64(s: &str) -> Result<f64, SnapshotError> {
    unhex(s).map(f64::from_bits)
}

/// Aggregate counters and the recency clock.
#[derive(Serialize, Deserialize)]
struct MetaDto {
    tick: String,
    hits: String,
    misses: String,
    evictions: String,
    sim_hits: String,
    sim_misses: String,
}

/// A cache key: `(fingerprint, shape, algorithm, config_hash)`.
#[derive(Serialize, Deserialize)]
struct KeyDto {
    fp: String,
    shape: String,
    algo: String,
    chash: String,
}

impl KeyDto {
    fn pack(fp: u64, shape: u64, algorithm: Algorithm, chash: u64) -> KeyDto {
        KeyDto {
            fp: hex(fp),
            shape: hex(shape),
            algo: algorithm.name().to_string(),
            chash: hex(chash),
        }
    }

    fn unpack(&self) -> Result<(u64, u64, Algorithm, u64), SnapshotError> {
        let algorithm = Algorithm::parse(&self.algo).ok_or_else(|| {
            SnapshotError::Malformed(format!("unknown algorithm {:?}", self.algo))
        })?;
        Ok((
            unhex(&self.fp)?,
            unhex(&self.shape)?,
            algorithm,
            unhex(&self.chash)?,
        ))
    }
}

/// A solved entry's payload: the lease-local [`MappingResult`].
/// `elapsed` is nanoseconds as a plain number (solver wall-clock times
/// are far below the 2^53 exactness bound).
#[derive(Serialize, Deserialize)]
struct SolvedDto {
    partition: Partition,
    proc_of_block: Vec<Option<ProcId>>,
    makespan: String,
    kprime: usize,
    elapsed_nanos: u64,
}

/// One memoized solve: key, LRU stamp, and the outcome (`None` is a
/// memoized `NoSolution`).
#[derive(Serialize, Deserialize)]
struct SolveDto {
    key: KeyDto,
    stamp: String,
    solved: Option<SolvedDto>,
}

/// One memoized simulation outcome.
#[derive(Serialize, Deserialize)]
struct SimDto {
    key: KeyDto,
    makespan: String,
    task_start: Vec<String>,
    task_finish: Vec<String>,
    lanes: Vec<(u32, String)>,
}

impl SimDto {
    fn pack(sim: &SimOutcome) -> SimDto {
        SimDto {
            key: KeyDto {
                fp: String::new(),
                shape: String::new(),
                algo: String::new(),
                chash: String::new(),
            },
            makespan: hex_f64(sim.makespan),
            task_start: sim.task_start.iter().copied().map(hex_f64).collect(),
            task_finish: sim.task_finish.iter().copied().map(hex_f64).collect(),
            lanes: sim.lanes.iter().map(|&(p, b)| (p, hex_f64(b))).collect(),
        }
    }

    fn unpack(&self) -> Result<SimOutcome, SnapshotError> {
        Ok(SimOutcome {
            makespan: unhex_f64(&self.makespan)?,
            task_start: self
                .task_start
                .iter()
                .map(|s| unhex_f64(s))
                .collect::<Result<_, _>>()?,
            task_finish: self
                .task_finish
                .iter()
                .map(|s| unhex_f64(s))
                .collect::<Result<_, _>>()?,
            lanes: self
                .lanes
                .iter()
                .map(|(p, b)| Ok((*p, unhex_f64(b)?)))
                .collect::<Result<_, SnapshotError>>()?,
        })
    }
}

// ------------------------------------------------------------- framing

fn push_record<T: Serialize>(body: &mut Vec<u8>, dto: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(dto).map_err(std::io::Error::other)?;
    let bytes = json.as_bytes();
    body.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    body.extend_from_slice(bytes);
    Ok(())
}

/// A cursor over the length-prefixed records of a snapshot body.
struct Records<'a> {
    body: &'a [u8],
    pos: usize,
}

impl Records<'_> {
    fn next<T: Deserialize>(&mut self) -> Result<T, SnapshotError> {
        let len = read_u32(self.body, self.pos)? as usize;
        let len_end = self.pos + 4;
        let end = len_end + len;
        if end > self.body.len() {
            return Err(SnapshotError::Truncated);
        }
        let json = std::str::from_utf8(&self.body[len_end..end])
            .map_err(|e| SnapshotError::Malformed(format!("record is not UTF-8: {e}")))?;
        self.pos = end;
        serde_json::from_str(json).map_err(|e| SnapshotError::Malformed(format!("{e:?}")))
    }
}

fn read_u32(bytes: &[u8], at: usize) -> Result<u32, SnapshotError> {
    bytes
        .get(at..)
        .and_then(|b| b.first_chunk::<4>())
        .map(|b| u32::from_le_bytes(*b))
        .ok_or(SnapshotError::Truncated)
}

fn read_u64(bytes: &[u8], at: usize) -> Result<u64, SnapshotError> {
    bytes
        .get(at..)
        .and_then(|b| b.first_chunk::<8>())
        .map(|b| u64::from_le_bytes(*b))
        .ok_or(SnapshotError::Truncated)
}

/// Byte offset of the body: magic + version + config_hash + stripes +
/// solve count + sim count + body length + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 8 + 8 + 8 + 8;

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
        let solves = self.snapshot_solves();
        let sims = self.snapshot_sims();
        let stats = self.stats();

        let mut body = Vec::new();
        push_record(
            &mut body,
            &MetaDto {
                tick: hex(self.tick_value()),
                hits: hex(stats.hits),
                misses: hex(stats.misses),
                evictions: hex(stats.evictions),
                sim_hits: hex(stats.sim_hits),
                sim_misses: hex(stats.sim_misses),
            },
        )?;
        for (key, entry, stamp) in &solves {
            let (fp, shape, algorithm, chash) = *key;
            push_record(
                &mut body,
                &SolveDto {
                    key: KeyDto::pack(fp, shape, algorithm, chash),
                    stamp: hex(*stamp),
                    solved: entry.as_ref().map(|local| SolvedDto {
                        partition: local.mapping.partition.clone(),
                        proc_of_block: local.mapping.proc_of_block.clone(),
                        makespan: hex_f64(local.makespan),
                        kprime: local.kprime,
                        elapsed_nanos: local.elapsed.as_nanos() as u64,
                    }),
                },
            )?;
        }
        for (key, sim) in &sims {
            let (fp, shape, algorithm, chash) = *key;
            let mut dto = SimDto::pack(sim);
            dto.key = KeyDto::pack(fp, shape, algorithm, chash);
            push_record(&mut body, &dto)?;
        }

        let mut frame = Vec::with_capacity(HEADER_LEN + body.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&config_hash.to_le_bytes());
        frame.extend_from_slice(&(self.stripes() as u32).to_le_bytes());
        frame.extend_from_slice(&(solves.len() as u64).to_le_bytes());
        frame.extend_from_slice(&(sims.len() as u64).to_le_bytes());
        frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
        frame.extend_from_slice(&fnv1a_bytes(body.iter().copied()).to_le_bytes());
        frame.extend_from_slice(&body);

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
    /// cache: solve entries keep their relative LRU order (saved
    /// recency stamps; the clock advances past them), sim outcomes are
    /// re-attached, and the snapshot's cumulative statistics carry
    /// over. If this cache is capacity-bounded and the snapshot
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
        if bytes.len() < HEADER_LEN {
            // An empty or half-written header: if the magic does not
            // even match what is there, call it foreign, else torn.
            if !bytes.is_empty() && !MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = read_u32(&bytes, 8)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::WrongVersion(version));
        }
        let file_chash = read_u64(&bytes, 12)?;
        if file_chash != expected_config_hash {
            return Err(SnapshotError::ConfigMismatch {
                found: file_chash,
                expected: expected_config_hash,
            });
        }
        let body_len = read_u64(&bytes, 40)?;
        let checksum = read_u64(&bytes, 48)?;
        let body = &bytes[HEADER_LEN..];
        if body.len() as u64 != body_len {
            return Err(SnapshotError::Truncated);
        }
        // The counts sit outside the checksum: bound them by what the
        // body can hold (a record is at least its 4-byte length prefix)
        // before they size anything.
        let count = |at: usize, what: &str| -> Result<usize, SnapshotError> {
            let n = read_u64(&bytes, at)?;
            if n > body_len / 4 {
                return Err(SnapshotError::Malformed(format!(
                    "header claims {n} {what} records in a {body_len}-byte body"
                )));
            }
            Ok(n as usize)
        };
        let n_solves = count(24, "solve")?;
        let n_sims = count(32, "sim")?;
        if fnv1a_bytes(body.iter().copied()) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }

        // Parse everything into plain values first; the cache is only
        // mutated once the whole body has deserialised cleanly.
        let mut records = Records { body, pos: 0 };
        let meta: MetaDto = records.next()?;
        let tick = unhex(&meta.tick)?;
        let carried = SolveCacheStats {
            hits: unhex(&meta.hits)?,
            misses: unhex(&meta.misses)?,
            evictions: unhex(&meta.evictions)?,
            sim_hits: unhex(&meta.sim_hits)?,
            sim_misses: unhex(&meta.sim_misses)?,
        };
        let mut solves = Vec::with_capacity(n_solves);
        for _ in 0..n_solves {
            let dto: SolveDto = records.next()?;
            let (fp, shape, algorithm, chash) = dto.key.unpack()?;
            let stamp = unhex(&dto.stamp)?;
            let solved = match dto.solved {
                None => None,
                Some(s) => Some(MappingResult {
                    mapping: crate::mapping::Mapping {
                        partition: s.partition,
                        proc_of_block: s.proc_of_block,
                    },
                    makespan: unhex_f64(&s.makespan)?,
                    kprime: s.kprime,
                    elapsed: Duration::from_nanos(s.elapsed_nanos),
                }),
            };
            solves.push(((fp, shape, algorithm, chash), solved, stamp));
        }
        let mut sims = Vec::with_capacity(n_sims);
        for _ in 0..n_sims {
            let dto: SimDto = records.next()?;
            let key = dto.key.unpack()?;
            sims.push((key, dto.unpack()?));
        }
        if records.pos != body.len() {
            return Err(SnapshotError::Malformed(
                "trailing bytes after the last record".to_string(),
            ));
        }

        if !self.is_enabled() {
            return Ok(LoadSummary::default());
        }
        let summary = LoadSummary {
            solves: solves.len(),
            sims: sims.len(),
        };
        for (key, solved, stamp) in solves {
            self.restore_solve(key, solved.map(Arc::new), stamp);
        }
        for (key, sim) in sims {
            self.restore_sim(key, Arc::new(sim));
        }
        self.finish_restore(tick, carried);
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
    use crate::partial::{schedule_on_subcluster, CacheView};
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
    /// returns the graphs for later probing.
    fn populate(cache: &SolveCache, chash: u64) -> (Vec<dhp_dag::Dag>, u64) {
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let lease = [dhp_platform::ProcId(3), dhp_platform::ProcId(1)];
        let shape = c.shape_of_slice(&lease);
        let graphs: Vec<dhp_dag::Dag> = (4..6).map(|n| builder::chain(n, 2.0, 4.0, 1.0)).collect();
        let view = CacheView::direct(cache);
        let solve = |g: &dhp_dag::Dag, ids: &[dhp_platform::ProcId]| {
            view.solve(
                g,
                g.fingerprint(),
                &c,
                ids,
                Algorithm::DagHetPart,
                &cfg,
                chash,
            )
        };
        for g in &graphs {
            solve(g, &lease).unwrap();
        }
        // Refresh g0 so the snapshot carries a non-trivial LRU order.
        solve(&graphs[0], &lease).unwrap();
        let big = builder::chain(40, 1.0, 30.0, 5.0);
        let _ = solve(&big, &[dhp_platform::ProcId(2)]);
        view.sim_outcome(
            graphs[0].fingerprint(),
            shape,
            Algorithm::DagHetPart,
            chash,
            || SimOutcome {
                makespan: 12.5,
                task_start: vec![0.0, 2.5],
                task_finish: vec![2.5, 12.5],
                lanes: vec![(0, 10.0), (1, 2.5)],
            },
        );
        (graphs, shape)
    }

    #[test]
    fn snapshot_roundtrips_entries_stamps_stats_and_sims() {
        let dir = scratch("roundtrip");
        let path = dir.join("cache.snap");
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let (graphs, shape) = populate(&cache, chash);
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
        let view = CacheView::direct(&restored);
        for g in &graphs {
            let direct = schedule_on_subcluster(g, &sub, Algorithm::DagHetPart, &cfg).unwrap();
            let warm = view
                .solve(
                    g,
                    g.fingerprint(),
                    &c,
                    sub.global_ids(),
                    Algorithm::DagHetPart,
                    &cfg,
                    chash,
                )
                .unwrap();
            assert_eq!(warm.makespan, direct.local.makespan);
            assert_eq!(
                warm.mapping.proc_of_block,
                direct.local.mapping.proc_of_block
            );
        }
        let sim = view.sim_outcome(
            graphs[0].fingerprint(),
            shape,
            Algorithm::DagHetPart,
            chash,
            || panic!("restored sim must hit"),
        );
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
        let (graphs, shape) = populate(&unbounded, chash);
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
        populate(&cache, chash);
        cache.save_to(&path, chash).unwrap();
        let good = std::fs::read(&path).unwrap();

        let try_load = |bytes: &[u8]| -> SnapshotError {
            let p = dir.join("mut.snap");
            std::fs::write(&p, bytes).unwrap();
            let fresh = SolveCache::new();
            let err = fresh.load_from(&p, chash).unwrap_err();
            // The failed load never half-populates the cache.
            assert!(fresh.is_empty() && fresh.sim_len() == 0);
            err
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
        // (whose header is one field longer; it is never parsed).
        for v in [99u32, 2] {
            let mut wrong_ver = good.clone();
            wrong_ver[8..12].copy_from_slice(&v.to_le_bytes());
            assert_eq!(try_load(&wrong_ver), SnapshotError::WrongVersion(v));
        }
        // The record counts sit outside the checksum. A count no body
        // of this length can hold is refused before it sizes anything;
        // one that is merely too large runs into the next section or
        // off the end of the body.
        for at in [24, 32] {
            let mut huge = good.clone();
            huge[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(matches!(try_load(&huge), SnapshotError::Malformed(_)));
            let mut one_more = good.clone();
            let n = read_u64(&good, at).unwrap() + 1;
            one_more[at..at + 8].copy_from_slice(&n.to_le_bytes());
            let err = try_load(&one_more);
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::Malformed(_)),
                "{err:?}"
            );
        }
        // Wrong solver config: the whole file is refused.
        let fresh = SolveCache::new();
        let err = fresh.load_from(&path, chash ^ 1).unwrap_err();
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }));
        assert!(fresh.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_kill_between_temp_write_and_rename_leaves_the_old_snapshot() {
        let dir = scratch("kill");
        let path = dir.join("cache.snap");
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        populate(&cache, chash);
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
        populate(&cache, chash);
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
        populate(&cache, chash);
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
