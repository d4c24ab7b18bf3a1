//! On-disk persistence for [`AnalysisSession`]: the crash-safe cache under
//! `--cache-dir`.
//!
//! # Layout
//!
//! ```text
//! <cache-dir>/
//!   LOCK              advisory lock (owner pid; stale locks taken over)
//!   manifest.araa     container: sources + per-procedure entry index
//!   e<checksum>.araa  immutable content-addressed per-procedure entries
//!   quarantine/       rejected files, renamed aside — never deleted blind
//! ```
//!
//! Every file is a [`support::persist`] container (magic, format version,
//! kind, toolchain+options fingerprint, payload, checksum footer) written
//! through [`atomic_write`]. Entry files are *content-addressed*: named by
//! the FNV-1a checksum of their full container bytes and never modified in
//! place. A save writes any new entry files first, then atomically renames
//! the new manifest over the old one, then garbage-collects entries the new
//! manifest no longer references. A crash at any instant therefore leaves
//! either the old manifest with all of its entries, or the new manifest
//! with all of its entries — never a mix.
//!
//! An entry holds what is cheaper to load than to recompute: the
//! procedure's local (IPL) summary, its `.rgn` rows and its failure
//! records. Propagated summaries are not stored. As in OpenUH's split,
//! they are re-derived from the local summaries whenever they are needed.
//!
//! The session remembers each procedure's entry address (checksum and
//! length) from the last load or save, and keeps it across an update only
//! where that procedure's local summary, rows and failure records were
//! moved over verbatim. A save references such an entry by name, if the
//! file is still there, instead of encoding it again, so a steady-state
//! save encodes only what the update changed.
//!
//! # Load = prime + propagate, `update` = recompute
//!
//! [`AnalysisSession::load`] re-parses the manifest's stored sources
//! (deterministic — the rebuilt `Program` is bit-identical to the one the
//! cache was saved against), validates every per-procedure entry
//! (fingerprint, container checksum, manifest binding), installs the
//! validated local summaries, rows and failure records, and re-runs
//! propagation over the local summaries, with the step budget and panic
//! containment `update` uses. Two cases install the local summaries
//! instead, as a failed propagation holds them, and mark the state so the
//! next update skips its fast path and re-propagates and re-extracts every
//! procedure (IPL stays cached): the manifest records a propagation
//! degradation (the saved summaries were not a function of the locals), or
//! the load's own propagation panics or runs out of budget.
//!
//! The next [`AnalysisSession::update`] then runs the ordinary incremental
//! machinery: procedures with a validated entry are verified cache hits,
//! anything rejected is simply *dirty* and recomputed cold, and its
//! call-graph ancestors re-propagate — exactly the affected procedures,
//! nothing else. Warm-from-disk results are thereby byte-identical to cold
//! runs by construction, because both go through the same (oracle-tested)
//! update path.
//!
//! Any rejected file is moved into `quarantine/` (suffixed with the failure
//! class) and recorded as a cache [`Degradation`] retrievable via
//! [`AnalysisSession::cache_incidents`] — corruption degrades precision of
//! nothing and costs only recomputation, and the evidence stays on disk.

use super::{
    fallback_ipa, file_key, propagate_contained, raw_name, AnalysisSession, SessionState,
};
use crate::driver::{Analysis, AnalysisOptions, Degradation};
use crate::row::RgnRow;
use frontend::{parse_source_with_recovery, SourceFile};
use ipa::callgraph::CallGraph;
use ipa::ProcSummary;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Duration;
use support::faultpoint;
use support::hash::{fnv1a, StableHasher};
use support::idx::Idx;
use support::persist::{
    atomic_write, quarantine_file, quarantine_suffix, read_container, read_container_addressed,
    read_container_loose, read_file_raw, toolchain_fingerprint, write_container_addressed,
    ByteReader, ByteWriter, DirLock, Persist,
};
use support::{Error, Result};
use whirl::hash::{budget_salt, proc_fingerprint};
use whirl::ProcId;

/// Manifest file name inside a cache directory.
pub const MANIFEST_FILE: &str = "manifest.araa";
/// Container kind tag of the manifest.
const KIND_MANIFEST: &str = "araa-session-manifest";
/// Container kind tag of per-procedure entries.
const KIND_ENTRY: &str = "araa-session-entry";
/// How long a session waits for a live lock holder before degrading to
/// cache-less operation.
const LOCK_WAIT: Duration = Duration::from_secs(5);

fn entry_name(checksum: u64) -> String {
    format!("e{checksum:016x}.araa")
}

fn is_entry_name(name: &str) -> bool {
    name.len() == 22 && name.starts_with('e') && name.ends_with(".araa")
}

fn cache_incident(detail: String) -> Degradation {
    Degradation { proc: "(cache)".to_string(), stage: "cache".to_string(), detail }
}

// ---------------------------------------------------------------------------
// Codec for the core-owned persisted types
// ---------------------------------------------------------------------------

impl Persist for Degradation {
    fn save(&self, w: &mut ByteWriter) {
        w.str(&self.proc);
        w.str(&self.stage);
        w.str(&self.detail);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Degradation { proc: r.str()?, stage: r.str()?, detail: r.str()? })
    }
}

impl Persist for RgnRow {
    fn save(&self, w: &mut ByteWriter) {
        w.str(&self.proc);
        w.str(&self.array);
        w.str(&self.file);
        self.mode.save(w);
        w.u64(self.refs);
        w.u8(self.dims);
        w.str(&self.lb);
        w.str(&self.ub);
        w.str(&self.stride);
        w.i64(self.elem_size);
        w.str(&self.data_type);
        w.str(&self.dim_size);
        w.i64(self.tot_size);
        w.i64(self.size_bytes);
        w.str(&self.mem_loc);
        w.i64(self.acc_density);
        self.via.save(w);
        w.u32(self.line);
        w.u32(self.first_line);
        w.u32(self.last_line);
        w.bool(self.is_global);
        w.bool(self.remote);
        self.precision.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(RgnRow {
            proc: r.str()?,
            array: r.str()?,
            file: r.str()?,
            mode: Persist::load(r)?,
            refs: r.u64()?,
            dims: r.u8()?,
            lb: r.str()?,
            ub: r.str()?,
            stride: r.str()?,
            elem_size: r.i64()?,
            data_type: r.str()?,
            dim_size: r.str()?,
            tot_size: r.i64()?,
            size_bytes: r.i64()?,
            mem_loc: r.str()?,
            acc_density: r.i64()?,
            via: Persist::load(r)?,
            line: r.u32()?,
            first_line: r.u32()?,
            last_line: r.u32()?,
            is_global: r.bool()?,
            remote: r.bool()?,
            precision: Persist::load(r)?,
        })
    }
}

/// One manifest line: procedure name, its content fingerprint, and the
/// checksum (= file name) of its entry container.
struct ManifestEntry {
    proc: String,
    fp: u64,
    checksum: u64,
}

impl Persist for ManifestEntry {
    fn save(&self, w: &mut ByteWriter) {
        w.str(&self.proc);
        w.u64(self.fp);
        w.u64(self.checksum);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(ManifestEntry { proc: r.str()?, fp: r.u64()?, checksum: r.u64()? })
    }
}

/// The manifest payload: everything needed to rebuild a session state given
/// the per-procedure entry files.
struct Manifest {
    sources: Vec<SourceFile>,
    entries: Vec<ManifestEntry>,
    extract_env: Option<u64>,
    prop_degr: Vec<Degradation>,
    degradations: Vec<Degradation>,
}

impl Persist for Manifest {
    fn save(&self, w: &mut ByteWriter) {
        self.sources.save(w);
        self.entries.save(w);
        self.extract_env.save(w);
        self.prop_degr.save(w);
        self.degradations.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Manifest {
            sources: Vec::load(r)?,
            entries: Vec::load(r)?,
            extract_env: Persist::load(r)?,
            prop_degr: Vec::load(r)?,
            degradations: Vec::load(r)?,
        })
    }
}

/// One per-procedure cache entry: what [`SessionState`] holds for a single
/// procedure that is cheaper to load than to recompute. The propagated
/// summary is not stored; `load` re-derives it from the local summaries.
struct Entry {
    local: ProcSummary,
    rows: Vec<RgnRow>,
    ipl_fail: Option<(String, String)>,
    extract_fail: Option<String>,
}

impl Persist for Entry {
    fn save(&self, w: &mut ByteWriter) {
        self.local.save(w);
        self.rows.save(w);
        self.ipl_fail.save(w);
        self.extract_fail.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Entry {
            local: Persist::load(r)?,
            rows: Vec::load(r)?,
            ipl_fail: Persist::load(r)?,
            extract_fail: Persist::load(r)?,
        })
    }
}

fn decode<T: Persist>(payload: &[u8]) -> Result<T> {
    let mut r = ByteReader::new(payload);
    let v = T::load(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Encodes procedure `i` of `state` as an [`Entry`] payload, straight from
/// the state's slices (no intermediate `Entry` is built).
fn encode_entry(state: &SessionState, i: usize) -> Vec<u8> {
    let mut w = ByteWriter::new();
    state.local[i].save(&mut w);
    let rows = &state.analysis.rows[state.proc_rows[i].clone()];
    w.usize(rows.len());
    for row in rows {
        row.save(&mut w);
    }
    state.ipl_fail[i].save(&mut w);
    state.extract_fail[i].save(&mut w);
    w.into_bytes()
}

// ---------------------------------------------------------------------------
// SessionStore
// ---------------------------------------------------------------------------

/// Handle to one on-disk session cache directory. Carries the directory
/// path and the toolchain+options fingerprint every container in it must
/// match. Cheap to clone; all operations take the directory's advisory
/// lock for their duration.
#[derive(Debug, Clone)]
pub struct SessionStore {
    dir: PathBuf,
    fingerprint: u64,
}

/// What [`SessionStore::stats`] reports.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// A manifest file is present.
    pub manifest: bool,
    /// Procedures indexed by the manifest (0 when absent or unreadable).
    pub procedures: usize,
    /// Source files recorded in the manifest.
    pub sources: usize,
    /// Entry files on disk.
    pub entry_files: usize,
    /// Total bytes across manifest + entry files.
    pub bytes: u64,
    /// Files sitting in `quarantine/`.
    pub quarantined: usize,
}

/// What [`SessionStore::verify`] reports.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Files that validated completely (manifest binding included).
    pub ok: usize,
    /// Entry files on disk that no manifest entry references. Harmless —
    /// a crash between manifest commit and garbage collection leaves
    /// these; the next save sweeps them.
    pub orphans: usize,
    /// Human-readable descriptions of everything that failed validation.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// True when nothing failed validation.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The toolchain+options fingerprint stamped into every container this
/// store writes. Thread count is deliberately excluded: results are
/// deterministic across `threads` (tested), so caches are shareable.
fn store_fingerprint(opts: &AnalysisOptions) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(toolchain_fingerprint());
    h.write_u64(opts.layout_base);
    h.write_u8(u8::from(opts.include_propagated));
    h.write_u64(budget_salt(&opts.budget));
    h.finish()
}

impl SessionStore {
    /// A store rooted at `dir` for sessions running with `opts`.
    pub fn new(dir: impl Into<PathBuf>, opts: &AnalysisOptions) -> Self {
        SessionStore { dir: dir.into(), fingerprint: store_fingerprint(opts) }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fingerprint containers in this store must carry.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn lock(&self) -> Result<DirLock> {
        DirLock::acquire(&self.dir, LOCK_WAIT)
    }

    /// What is in the cache, counted by scanning the directory under the
    /// lock, so reads are not torn by a concurrent save.
    pub fn stats(&self) -> Result<CacheStats> {
        let _lock = self.lock()?;
        let mut stats = CacheStats::default();
        let mpath = self.dir.join(MANIFEST_FILE);
        if let Ok(bytes) = std::fs::read(&mpath) {
            stats.manifest = true;
            stats.bytes += bytes.len() as u64;
            if let Ok((kind, _, payload)) = read_container_loose(&bytes) {
                if kind == KIND_MANIFEST {
                    if let Ok(m) = decode::<Manifest>(&payload) {
                        stats.procedures = m.entries.len();
                        stats.sources = m.sources.len();
                    }
                }
            }
        }
        for entry in self.entry_files()? {
            stats.entry_files += 1;
            stats.bytes += std::fs::metadata(&entry).map(|m| m.len()).unwrap_or(0);
        }
        stats.quarantined =
            std::fs::read_dir(self.dir.join("quarantine")).map_or(0, |rd| rd.count());
        // Reconcile the live registry with what the store actually holds:
        // the gauge is otherwise only written at save time, so a process
        // that never saved (or a drain that flushed elsewhere) would keep
        // reporting a stale entry count.
        support::obs::set_gauge(
            support::obs::Gauge::StoreEntries,
            stats.entry_files as u64,
        );
        Ok(stats)
    }

    /// Validates every file: manifest structure, per-entry container
    /// integrity, the manifest↔entry checksum binding, and the
    /// fingerprint match against this store's options. Read-only — nothing
    /// is quarantined or deleted (loading does that); the report is for
    /// inspection.
    pub fn verify(&self) -> Result<VerifyReport> {
        let _lock = self.lock()?;
        let mut report = VerifyReport::default();
        let mpath = self.dir.join(MANIFEST_FILE);
        let mut referenced: BTreeMap<String, u64> = BTreeMap::new();
        match std::fs::read(&mpath) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                report.problems.push("no manifest (cache is empty or was cleared)".to_string());
            }
            Err(e) => report.problems.push(format!("manifest unreadable: {e}")),
            Ok(bytes) => match read_container_loose(&bytes) {
                Err(cerr) => report.problems.push(format!("manifest: {cerr}")),
                Ok((kind, fp, payload)) if kind == KIND_MANIFEST => {
                    if fp != self.fingerprint {
                        report.problems.push(format!(
                            "manifest fingerprint {fp:016x} does not match these \
                             options/toolchain ({:016x}); a load would quarantine it",
                            self.fingerprint
                        ));
                    }
                    match decode::<Manifest>(&payload) {
                        Ok(m) => {
                            report.ok += 1;
                            for e in &m.entries {
                                referenced.insert(entry_name(e.checksum), e.checksum);
                            }
                        }
                        Err(e) => report.problems.push(format!("manifest payload: {e}")),
                    }
                }
                Ok((kind, _, _)) => {
                    report.problems.push(format!("manifest has kind `{kind}`"));
                }
            },
        }
        for path in self.entry_files()? {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let Ok(bytes) = std::fs::read(&path) else {
                report.problems.push(format!("{name}: unreadable"));
                continue;
            };
            match read_container_loose(&bytes) {
                Err(cerr) => report.problems.push(format!("{name}: {cerr}")),
                Ok((kind, fp, _)) => {
                    if kind != KIND_ENTRY {
                        report.problems.push(format!("{name}: unexpected kind `{kind}`"));
                    } else if fp != self.fingerprint {
                        report.problems.push(format!(
                            "{name}: fingerprint {fp:016x} does not match these options"
                        ));
                    } else {
                        match referenced.get(&name) {
                            None => report.orphans += 1,
                            Some(&sum) if fnv1a(&bytes) != sum => report
                                .problems
                                .push(format!("{name}: contents do not match manifest record")),
                            Some(_) => report.ok += 1,
                        }
                    }
                }
            }
        }
        for name in referenced.keys() {
            if !self.dir.join(name).exists() {
                report.problems.push(format!("{name}: referenced by manifest but missing"));
            }
        }
        Ok(report)
    }

    /// Deletes the manifest, every entry file, and the quarantine
    /// directory. Returns how many files were removed. The explicit
    /// destructive operation — loading never does this.
    pub fn clear(&self) -> Result<usize> {
        let _lock = self.lock()?;
        let mut removed = 0usize;
        let mpath = self.dir.join(MANIFEST_FILE);
        if std::fs::remove_file(&mpath).is_ok() {
            removed += 1;
        }
        for path in self.entry_files()? {
            if std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        let qdir = self.dir.join("quarantine");
        if let Ok(rd) = std::fs::read_dir(&qdir) {
            removed += rd.filter(|e| e.is_ok()).count();
            let _ = std::fs::remove_dir_all(&qdir);
        }
        Ok(removed)
    }

    fn entry_files(&self) -> Result<Vec<PathBuf>> {
        Ok(self.entry_names()?.iter().map(|name| self.dir.join(name)).collect())
    }

    /// Names of the entry files in the directory, from one listing.
    fn entry_names(&self) -> Result<BTreeSet<String>> {
        let rd = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeSet::new()),
            Err(e) => return Err(Error::io(format!("reading {}", self.dir.display()), e)),
        };
        Ok(rd
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|name| is_entry_name(name))
            .collect())
    }

    /// Writes `state` to disk under the crash-safe protocol: entry files
    /// first (content-addressed, immutable, skipped when already present),
    /// then the manifest via atomic rename, then garbage collection of
    /// entries the new manifest no longer references. Returns every
    /// procedure's entry address `(fnv1a, len)`. Faultpoints
    /// `persist::entry_write` (once per procedure, in order),
    /// `persist::pre_manifest`, `persist::post_manifest` and `persist::gc`
    /// (plus the ones inside [`atomic_write`]) simulate a crash at each
    /// stage.
    ///
    /// An entry whose carried address names a file in the directory is
    /// referenced without being encoded; every other entry is encoded and
    /// hashed in one pass. The directory is listed once, under the lock:
    /// that listing answers the existence checks and drives GC.
    fn save_state(&self, state: &SessionState) -> Result<Vec<(u64, u64)>> {
        let _span = support::obs::span("store.save");
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| Error::io(format!("creating {}", self.dir.display()), e))?;
        let _lock = self.lock()?;
        let on_disk = self.entry_names()?;
        let n = state.fps.len();
        let mut entries = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        for i in 0..n {
            let carried =
                state.entry_addr[i].filter(|&(sum, _)| on_disk.contains(&entry_name(sum)));
            let (addr, container) = match carried {
                Some(addr) => {
                    support::obs::incr(support::obs::Counter::StoreCarried);
                    (addr, None)
                }
                None => {
                    support::obs::incr(support::obs::Counter::StoreEncoded);
                    let (container, sum) = write_container_addressed(
                        KIND_ENTRY,
                        self.fingerprint,
                        &encode_entry(state, i),
                    );
                    ((sum, container.len() as u64), Some(container))
                }
            };
            let name = entry_name(addr.0);
            faultpoint::hit("persist::entry_write");
            if let Some(container) = container {
                if !on_disk.contains(&name) && !referenced.contains(&name) {
                    atomic_write(&self.dir.join(&name), &container)?;
                }
            }
            referenced.insert(name);
            entries.push(ManifestEntry {
                proc: raw_name(&state.analysis.program, ProcId::from_usize(i)),
                fp: state.fps[i],
                checksum: addr.0,
            });
            addrs.push(addr);
        }
        let manifest = Manifest {
            sources: state.sources.clone(),
            entries,
            extract_env: state.extract_env,
            prop_degr: state.prop_degr.clone(),
            degradations: state.analysis.degradations.clone(),
        };
        let mut w = ByteWriter::new();
        manifest.save(&mut w);
        let (container, _) =
            write_container_addressed(KIND_MANIFEST, self.fingerprint, &w.into_bytes());
        faultpoint::hit("persist::pre_manifest");
        atomic_write(&self.dir.join(MANIFEST_FILE), &container)?;
        faultpoint::hit("persist::post_manifest");
        // GC entries the committed manifest no longer references. A crash
        // anywhere in here leaves only unreferenced litter, swept next save.
        faultpoint::hit("persist::gc");
        for name in on_disk.difference(&referenced) {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        support::obs::set_gauge(
            support::obs::Gauge::StoreEntries,
            referenced.len() as u64,
        );
        Ok(addrs)
    }
}

// ---------------------------------------------------------------------------
// Session integration
// ---------------------------------------------------------------------------

impl AnalysisSession {
    /// Like [`AnalysisSession::new`], with an on-disk cache attached at
    /// `dir`. Call [`load`](Self::load) to warm-start from whatever the
    /// directory holds, and [`persist`](Self::persist) after updates to
    /// save the current state.
    pub fn with_cache_dir(opts: AnalysisOptions, dir: impl Into<PathBuf>) -> Self {
        let mut s = AnalysisSession::new(opts);
        s.store = Some(SessionStore::new(dir, &s.opts));
        s
    }

    /// The attached store, if the session was created with a cache dir.
    pub fn store(&self) -> Option<&SessionStore> {
        self.store.as_ref()
    }

    /// Cache incidents recorded by [`load`](Self::load) and
    /// [`persist`](Self::persist): quarantined files, lock timeouts, write
    /// failures. These are deliberately kept out of
    /// [`Analysis::degradations`] — cache trouble never changes analysis
    /// *results* (only how much had to be recomputed), so warm and cold
    /// results stay comparable — but callers should surface them with the
    /// same severity as degradations.
    pub fn cache_incidents(&self) -> &[Degradation] {
        &self.cache_incidents
    }

    /// Warm-starts the session from the attached cache directory. Returns
    /// `true` when a state was installed (possibly partial: procedures
    /// whose entries failed validation are left cold and will be
    /// recomputed by the next [`update`](Self::update)). Returns `false` —
    /// never an error — when there is no store, no manifest, or the
    /// manifest was rejected; rejected files are quarantined and recorded
    /// in [`cache_incidents`](Self::cache_incidents).
    ///
    /// Propagated summaries are not stored: the load re-derives them from
    /// the cached local summaries (see the module docs for when it holds
    /// the local summaries instead).
    ///
    /// Call [`update`](Self::update) with the current sources afterwards;
    /// until then [`analysis`](Self::analysis) reflects the persisted
    /// snapshot (and may be incomplete if entries were quarantined).
    pub fn load(&mut self) -> bool {
        let Some(store) = self.store.clone() else { return false };
        let mut incidents = Vec::new();
        let loaded = self.load_inner(&store, &mut incidents);
        self.cache_incidents.extend(incidents);
        loaded
    }

    fn load_inner(&mut self, store: &SessionStore, incidents: &mut Vec<Degradation>) -> bool {
        if !store.dir.exists() {
            return false;
        }
        let _span = support::obs::span("store.load");
        let _lock = match store.lock() {
            Ok(l) => l,
            Err(e) => {
                incidents.push(cache_incident(format!("{e}; proceeding without cache")));
                return false;
            }
        };
        let mpath = store.dir.join(MANIFEST_FILE);
        let bytes = match read_file_raw(&mpath) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return false,
            Err(e) => {
                incidents.push(cache_incident(format!("manifest unreadable: {e}")));
                return false;
            }
            Ok(b) => b,
        };
        let manifest = match read_container(&bytes, KIND_MANIFEST, store.fingerprint)
            .map_err(Error::from)
            .and_then(|payload| decode::<Manifest>(&payload))
        {
            Ok(m) => m,
            Err(e) => {
                let suffix = match read_container(&bytes, KIND_MANIFEST, store.fingerprint) {
                    Err(ref cerr) => quarantine_suffix(cerr),
                    Ok(_) => "malformed",
                };
                let dest = quarantine_file(&mpath, suffix)
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|qe| format!("(quarantine failed: {qe})"));
                incidents.push(cache_incident(format!(
                    "manifest rejected ({e}); moved to {dest}; starting cold"
                )));
                return false;
            }
        };

        // Rebuild the program from the stored sources. Parsing and assembly
        // are deterministic, so this is bit-identical to the program the
        // cache was saved against; if it no longer assembles (toolchain
        // drift should be caught by the fingerprint first), start cold.
        let parsed: Vec<_> =
            manifest.sources.iter().map(parse_source_with_recovery).collect();
        let (program, _diags) = match frontend::assemble_to_h_with_recovery(
            &parsed,
            self.opts.layout_base,
        ) {
            Ok(out) => out,
            Err(e) => {
                incidents.push(cache_incident(format!(
                    "cached sources no longer assemble ({e}); starting cold"
                )));
                return false;
            }
        };
        let cg = CallGraph::build(&program);
        let n = cg.size();
        let fps: Vec<u64> = (0..n)
            .map(|i| proc_fingerprint(&program, ProcId::from_usize(i), self.salt))
            .collect();
        let by_name: BTreeMap<&str, &ManifestEntry> =
            manifest.entries.iter().map(|e| (e.proc.as_str(), e)).collect();

        let mut local: Vec<ProcSummary> = (0..n).map(|_| ProcSummary::default()).collect();
        let mut per_rows: Vec<Vec<RgnRow>> = (0..n).map(|_| Vec::new()).collect();
        let mut ipl_fail: Vec<Option<(String, String)>> = (0..n).map(|_| None).collect();
        let mut extract_fail: Vec<Option<String>> = (0..n).map(|_| None).collect();
        let mut entry_addr: Vec<Option<(u64, u64)>> = vec![None; n];
        for i in 0..n {
            let name = raw_name(&program, ProcId::from_usize(i));
            // The span records only when the procedure actually primes;
            // every reject path cancels it and bumps the reject counter
            // instead, so warm-from-disk traces distinguish the two.
            let mut prime_span = support::obs::span_arg("store.prime", || name.clone());
            let Some(me) = by_name.get(name.as_str()) else {
                prime_span.cancel();
                support::obs::incr(support::obs::Counter::StoreRejected);
                incidents.push(cache_incident(format!(
                    "no cache entry for `{name}`; recomputing it"
                )));
                continue;
            };
            if me.fp != fps[i] {
                prime_span.cancel();
                support::obs::incr(support::obs::Counter::StoreRejected);
                incidents.push(cache_incident(format!(
                    "cache entry for `{name}` is stale; recomputing it"
                )));
                continue;
            }
            let path = store.dir.join(entry_name(me.checksum));
            let bytes = match read_file_raw(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    prime_span.cancel();
                    support::obs::incr(support::obs::Counter::StoreRejected);
                    incidents.push(cache_incident(format!(
                        "cache entry for `{name}` is missing; recomputing it"
                    )));
                    continue;
                }
                Err(e) => {
                    prime_span.cancel();
                    support::obs::incr(support::obs::Counter::StoreRejected);
                    incidents.push(cache_incident(format!(
                        "cache entry for `{name}` unreadable ({e}); recomputing it"
                    )));
                    continue;
                }
                Ok(b) => b,
            };
            // Bind the file to the manifest record, then validate and
            // decode the container.
            let entry = match read_container_addressed(
                &bytes,
                KIND_ENTRY,
                store.fingerprint,
                me.checksum,
            ) {
                Err(cerr) => {
                    let suffix = quarantine_suffix(&cerr);
                    Err((Error::from(cerr), suffix))
                }
                Ok(payload) => decode::<Entry>(payload).map_err(|e| (e, "malformed")),
            };
            match entry {
                Ok(entry) => {
                    local[i] = entry.local;
                    per_rows[i] = entry.rows;
                    ipl_fail[i] = entry.ipl_fail;
                    extract_fail[i] = entry.extract_fail;
                    entry_addr[i] = Some((me.checksum, bytes.len() as u64));
                    support::obs::incr(support::obs::Counter::StorePrimed);
                }
                Err((e, suffix)) => {
                    prime_span.cancel();
                    support::obs::incr(support::obs::Counter::StoreRejected);
                    let dest = quarantine_file(&path, suffix)
                        .map(|p| p.display().to_string())
                        .unwrap_or_else(|qe| format!("(quarantine failed: {qe})"));
                    incidents.push(cache_incident(format!(
                        "cache entry for `{name}` rejected ({e}); moved to {dest}; \
                         recomputing it"
                    )));
                }
            }
        }

        // Assemble the row table in emission (call-graph pre-)order.
        let mut rows: Vec<RgnRow> = Vec::new();
        let mut proc_rows: Vec<std::ops::Range<usize>> = vec![0..0; n];
        for pid in cg.pre_order() {
            let i = pid.as_usize();
            let start = rows.len();
            rows.append(&mut per_rows[i]);
            proc_rows[i] = start..rows.len();
        }
        // Re-derive the propagated summaries from the locals, as a full
        // update would. A rejected procedure holds an empty local summary,
        // so its ancestors' results are wrong here, but the next update
        // finds it dirty and re-propagates exactly those ancestors. Where
        // the summaries the cache was saved from were not a function of the
        // locals (a propagation degradation is on record), or this
        // propagation fails, hold the locals as a failed propagation does
        // and have the next update re-propagate everything.
        let propagated = manifest.prop_degr.is_empty().then(|| {
            propagate_contained(
                &program,
                &cg,
                local.clone(),
                &vec![true; n],
                &local,
                self.opts.budget,
            )
        });
        let (ipa, stale_propagation) = match propagated {
            Some((ipa, None)) => (ipa, false),
            _ => (fallback_ipa(&cg, &local), true),
        };
        let all_valid = entry_addr.iter().all(Option::is_some);
        let by_hash = (0..n)
            .filter(|&i| entry_addr[i].is_some())
            .map(|i| (fps[i], ProcId::from_usize(i)))
            .collect();
        // Prime the parse cache with the parses assembly borrowed: the next
        // update reuses them for unchanged files.
        let keys: Vec<u64> = manifest.sources.iter().map(file_key).collect();
        self.file_cache.extend(keys.iter().copied().zip(parsed));
        // Only a fully-validated state may satisfy the identical-input fast
        // path; a partial one must force the next update through the full
        // classify-and-recompute machinery.
        let file_keys = if all_valid { keys } else { Vec::new() };
        let state = SessionState {
            analysis: Analysis {
                program,
                callgraph: cg,
                ipa,
                rows,
                degradations: manifest.degradations,
            },
            local,
            by_hash,
            ipl_fail,
            prop_degr: manifest.prop_degr,
            fps,
            proc_rows,
            extract_fail,
            extract_env: manifest.extract_env,
            file_keys,
            sources: manifest.sources,
            // A load keeps no widened result: a propagation that ran out of
            // budget or time is replaced by the local summaries above, and
            // tainted states are never persisted (see `persist`).
            tainted: false,
            stale_propagation,
            entry_addr,
        };
        if let Some(old) = self.state.replace(state) {
            if let Some(tx) = &self.graveyard {
                if let Err(back) = tx.send(old) {
                    self.graveyard = None;
                    drop(back.0);
                }
            }
        }
        true
    }

    /// Saves the current state to the attached cache directory. Returns
    /// `true` on success; `false` (with a recorded cache incident) when
    /// there is no store, no state yet, or the save failed. Persistence is
    /// best-effort by design: a full disk or a held lock costs the next
    /// run its warm start, never this run its results.
    pub fn persist(&mut self) -> bool {
        let Some(store) = self.store.clone() else { return false };
        let Some(state) = self.state.as_mut() else { return false };
        // Memory- or deadline-exhausted results are environmentally
        // widened; writing them out would replace a good on-disk state with
        // conservative junk that outlives the exhaustion.
        if state.tainted {
            return false;
        }
        match store.save_state(state) {
            Ok(addrs) => {
                state.entry_addr = addrs.into_iter().map(Some).collect();
                true
            }
            Err(e) => {
                self.cache_incidents
                    .push(cache_incident(format!("cache save failed: {e}")));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use support::budget::BudgetConfig;
    use support::obs::{ClockKind, Collector, Counter};
    use support::testdir::TestDir;
    use whirl::Lang;

    const MAIN_F: &str = "\
program main
  real a(20)
  common /g/ a
  integer i
  do i = 1, 10
    a(i) = 0.0
  end do
  call mid
  call side
end
";
    const MID_F: &str = "\
subroutine mid
  real a(20)
  common /g/ a
  a(11) = 1.0
  call leaf
end
";
    const LEAF_F: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 20
    a(i) = 2.0
  end do
end
";
    const SIDE_F: &str = "\
subroutine side
  real a(20)
  common /g/ a
  real t(5)
  integer i
  do i = 1, 5
    t(i) = a(i)
  end do
end
";

    /// The four-file program with `edits` applied as (file, from, to)
    /// text substitutions.
    fn program(edits: &[(&str, &str, &str)]) -> Vec<SourceFile> {
        [("main.f", MAIN_F), ("mid.f", MID_F), ("leaf.f", LEAF_F), ("side.f", SIDE_F)]
            .iter()
            .map(|&(name, text)| {
                let text = edits
                    .iter()
                    .filter(|e| e.0 == name)
                    .fold(text.to_string(), |t, e| t.replace(e.1, e.2));
                assert!(edits.iter().all(|e| e.0 != name || text != *e.1), "edit missed {name}");
                SourceFile::new(name, text, Lang::Fortran)
            })
            .collect()
    }

    fn manifest_on_disk(store: &SessionStore) -> Manifest {
        let bytes = std::fs::read(store.dir.join(MANIFEST_FILE)).expect("manifest");
        let payload = read_container(&bytes, KIND_MANIFEST, store.fingerprint).expect("valid");
        decode(&payload).expect("decodes")
    }

    /// Persists `s` and checks the oracle: every manifest address is the
    /// address of re-encoding that procedure's current state, the store
    /// verifies clean with no orphans, `stats` counts one entry file per
    /// procedure and nothing quarantined, and a fresh load primes every
    /// procedure and reproduces a cold run's rows. Returns the save's
    /// `(store.encoded, store.carried)`.
    fn persist_and_check(s: &mut AnalysisSession, sources: &[SourceFile]) -> (u64, u64) {
        let c = Collector::new(ClockKind::Logical);
        {
            let _g = support::obs::attach(c.clone());
            assert!(s.persist(), "{:?}", s.cache_incidents());
        }
        let encoded = c.counter(Counter::StoreEncoded);
        let carried = c.counter(Counter::StoreCarried);
        let store = s.store().expect("store").clone();
        let state = s.state.as_ref().expect("state");
        let n = state.fps.len();
        assert_eq!(encoded + carried, n as u64, "every procedure is encoded or carried");
        let manifest = manifest_on_disk(&store);
        assert_eq!(manifest.entries.len(), n);
        for (i, e) in manifest.entries.iter().enumerate() {
            let (container, sum) =
                write_container_addressed(KIND_ENTRY, store.fingerprint, &encode_entry(state, i));
            assert_eq!(e.checksum, sum, "manifest address of `{}` is stale", e.proc);
            assert_eq!(state.entry_addr[i], Some((sum, container.len() as u64)), "{}", e.proc);
        }
        let report = store.verify().expect("verify");
        assert!(report.clean(), "{:?}", report.problems);
        assert_eq!(report.orphans, 0);
        let stats = store.stats().expect("stats");
        assert_eq!((stats.procedures, stats.entry_files, stats.quarantined), (n, n, 0));

        let fresh_obs = Collector::new(ClockKind::Logical);
        let mut fresh = AnalysisSession::with_cache_dir(*s.options(), store.dir());
        {
            let _g = support::obs::attach(fresh_obs.clone());
            assert!(fresh.load());
        }
        assert!(fresh.cache_incidents().is_empty(), "{:?}", fresh.cache_incidents());
        assert_eq!(fresh_obs.counter(Counter::StorePrimed), n as u64, "every procedure primes");
        let delta = fresh.update(sources).expect("warm update");
        assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
        let cold = Analysis::analyze(sources, *s.options()).expect("cold");
        assert_eq!(fresh.analysis().expect("analysis").rows, cold.rows);
        (encoded, carried)
    }

    #[test]
    fn carried_addresses_name_exactly_the_current_entry_bytes() {
        let dir = TestDir::new("store-carried");
        let opts = AnalysisOptions::default();
        let mut s = AnalysisSession::with_cache_dir(opts, dir.path());
        let leaf_edit = ("leaf.f", "do i = 12, 20", "do i = 12, 18");
        let main_edit = ("main.f", "do i = 1, 10", "do i = 1, 9");
        let layout_edit = ("side.f", "real t(5)", "real t(8)");

        let v = program(&[]);
        s.update(&v).expect("cold");
        assert_eq!(persist_and_check(&mut s, &v), (4, 0), "cold: every entry is new");

        // A leaf edit re-propagates its ancestor chain; `side` is untouched.
        let v = program(&[leaf_edit]);
        let d = s.update(&v).expect("leaf edit");
        assert_eq!(d.propagation_recomputed.len(), 3, "{d:?}");
        assert_eq!(persist_and_check(&mut s, &v), (3, 1));

        // A caller-only edit: only `main` changes.
        let v = program(&[leaf_edit, main_edit]);
        let d = s.update(&v).expect("caller edit");
        assert_eq!(d.propagation_recomputed, vec!["main".to_string()], "{d:?}");
        assert_eq!(persist_and_check(&mut s, &v), (1, 3));

        // A reorder rebases every summary: nothing is carried, yet the
        // re-encoded entries are the same bytes.
        let mut v = program(&[leaf_edit, main_edit]);
        v.reverse();
        let d = s.update(&v).expect("reorder");
        assert_eq!(d.summary_cache_misses, 0, "{d:?}");
        assert_eq!(persist_and_check(&mut s, &v), (4, 0));

        // A layout-shifting edit changes the extraction environment, so
        // every row is re-extracted and nothing is carried.
        let env_before = s.state.as_ref().expect("state").extract_env;
        let mut v = program(&[leaf_edit, main_edit, layout_edit]);
        v.reverse();
        s.update(&v).expect("layout edit");
        assert_ne!(s.state.as_ref().expect("state").extract_env, env_before);
        assert_eq!(persist_and_check(&mut s, &v), (4, 0));

        // A fresh load sets every address; an edit then carries the rest.
        let mut s = AnalysisSession::with_cache_dir(opts, dir.path());
        assert!(s.load());
        s.update(&v).expect("warm start");
        let mut v = program(&[main_edit, layout_edit]);
        v.reverse();
        s.update(&v).expect("leaf edit after load");
        assert_eq!(persist_and_check(&mut s, &v), (3, 1));

        // An entry file deleted behind the session's back: its carried
        // address no longer names a file, so it is re-encoded and written.
        let store = s.store().expect("store").clone();
        let side = manifest_on_disk(&store)
            .entries
            .into_iter()
            .find(|e| e.proc == "side")
            .expect("side entry");
        let side_path = dir.path().join(entry_name(side.checksum));
        std::fs::remove_file(&side_path).expect("delete side entry");
        let mut v = program(&[layout_edit]);
        v.reverse();
        s.update(&v).expect("caller edit");
        assert_eq!(persist_and_check(&mut s, &v), (2, 2));
        assert!(side_path.exists(), "the vanished entry is rewritten");
    }

    #[test]
    fn entry_names_are_stable_and_recognizable() {
        let name = entry_name(0xdead_beef_0123_4567);
        assert_eq!(name, "edeadbeef01234567.araa");
        assert!(is_entry_name(&name));
        assert!(!is_entry_name("manifest.araa"));
        assert!(!is_entry_name("edead.araa"));
        assert!(!is_entry_name("quarantine"));
    }

    #[test]
    fn fingerprint_depends_on_options_not_threads() {
        let a = store_fingerprint(&AnalysisOptions::default());
        let b = store_fingerprint(&AnalysisOptions::builder().threads(8).build());
        assert_eq!(a, b, "thread count must not split the cache");
        let c = store_fingerprint(&AnalysisOptions::builder().include_propagated(false).build());
        assert_ne!(a, c);
        let d = store_fingerprint(
            &AnalysisOptions::builder().budget(BudgetConfig::tiny()).build(),
        );
        assert_ne!(a, d);
        let e = store_fingerprint(&AnalysisOptions::builder().layout_base(0x1000).build());
        assert_ne!(a, e);
    }
}
