//! Incremental analysis sessions: re-analyze only what an edit touched.
//!
//! [`AnalysisSession`] is a long-lived handle that owns the last compiled
//! [`Program`], its call graph, and a content-addressed cache of
//! per-procedure summaries keyed by a stable hash of (procedure IR,
//! [`BudgetConfig`]). Each
//! [`AnalysisSession::update`] call:
//!
//! 1. re-parses only the source files whose text changed (per-file parse
//!    cache keyed by a content hash of name + language + text) and
//!    re-assembles the program unit by unit, a unit being one source file
//!    ([`frontend::units`]): a cached file whose numbering and global
//!    segment are unchanged keeps its lowered unit, its trees moved out of
//!    the previous program, and every other file is checked and lowered
//!    again. The call graph re-scans only the re-lowered procedures;
//! 2. classifies every procedure *clean* (cache hit, rebased onto the new
//!    symbol tables) or *dirty* (new or edited). A reused unit's
//!    procedures are their previous selves: they keep their fingerprints
//!    and, when no global, procedure or name moved, are identity-clean
//!    with no verification walk. Every other procedure is fingerprinted
//!    ([`whirl::hash::proc_fingerprint`]), and a hash hit is verified
//!    structurally by [`whirl::hash::procs_correspond`]. In the update a
//!    [`AnalysisSession::load`] runs, a procedure with no in-memory
//!    candidate is clean when the validated cache entry filed under its
//!    name has its fingerprint (the *disk tier*);
//! 3. recomputes IPL summaries only for dirty procedures, fanned over the
//!    same parallel workers as a cold run;
//! 4. invalidates propagated summaries only for call-graph *ancestors* of
//!    dirty procedures (a procedure's propagated summary depends exactly on
//!    its call-graph descendants) and re-runs bottom-up propagation over
//!    that affected set, reusing rebased cached summaries everywhere else.
//!    A propagated summary is the local summary followed by one *slice* per
//!    call site, the callee records translated there. An affected caller
//!    keeps the slices of its sites whose callee is unaffected and
//!    re-translates only the others (see [`propagate_spliced`]), provided
//!    the previous propagation was healthy and caller and callee are
//!    identity-clean: verified hits whose symbol maps are the identity.
//!    A state whose propagation raised a degradation (its budget ran out,
//!    or it panicked and holds the local summaries) is never reused: the
//!    next update skips the identical-input fast path and re-propagates
//!    every procedure;
//! 5. decides once per procedure what it takes over from the previous
//!    state (`Reuse`): its rows move whole (a clean, unaffected
//!    procedure whose extraction environment — addresses, file names,
//!    type columns — is unchanged); a spliced caller keeps the rows of its
//!    local part and its kept slices and re-extracts only its
//!    re-translated slices, whose reference and line-span columns total
//!    each callee over all of its sites; a load's cache entry gives its
//!    rows when they are this propagation's (see [`store`]); or every row
//!    is extracted afresh. One row walk reads that decision, and only
//!    re-extracted rows are diffed against the previous table.
//!
//! The same decision carries the rest: a summary keeps its
//! [`ipa::Revision`], its slice lengths and its on-disk entry address only
//! when its rows move whole from an identity-clean procedure. A consumer
//! that keys on revisions (the lint cache) needs no hashing.
//!
//! Every reuse is verified, never assumed: a fingerprint collision fails
//! structural verification and degrades to a cache miss; a summary that
//! mentions a symbol the verifier could not re-identify fails its rebase
//! and is recomputed. A cold start (the first `update`, or
//! [`Analysis::analyze`]) runs every step with an all-dirty mask, which is
//! byte-for-byte the non-incremental pipeline.

pub mod store;

pub use store::{CacheStats, SessionStore, VerifyReport};

use store::{DiskTier, Filed};

use crate::driver::{Analysis, AnalysisOptions, Degradation};
use crate::extract::{extract_range_rows, resolve_formal_addresses, ExtractOptions};
use crate::row::RgnRow;
use frontend::{Assembly, ParsedSource, SourceFile, UnitInput, UnitTable};
use ipa::callgraph::CallGraph;
use ipa::isolate::{panic_message, summarize_subset_isolated};
use ipa::propagate::{propagate_spliced, NO_SLICE};
use ipa::rebase::rebase_summary;
use ipa::{AccessRecord, IpaResult, ProcSummary};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use support::budget::{self, BudgetConfig};
use support::hash::StableHasher;
use support::idx::Idx;
use support::Result;
use whirl::hash::{
    budget_salt, global_symbol_map, proc_fingerprint, procs_correspond, SymbolMaps,
};
use whirl::{Lang, ProcId, Program};

/// What one [`AnalysisSession::update`] actually did: which procedures were
/// re-analyzed, what came from the cache, and how the row table changed.
#[derive(Debug, Clone, Default)]
pub struct AnalysisDelta {
    /// Procedures whose IPL summary was recomputed (new or edited), by name.
    pub summaries_recomputed: Vec<String>,
    /// Procedures whose propagated summary was recomputed (the dirty set
    /// plus its call-graph ancestors), by name. A caller that kept some of
    /// its call-site slices and re-translated the rest is listed too.
    pub propagation_recomputed: Vec<String>,
    /// Procedures whose cached summary was verified and reused.
    pub summary_cache_hits: usize,
    /// Procedures summarized from scratch (no verified cache entry).
    pub summary_cache_misses: usize,
    /// Source files that had to be re-parsed.
    pub files_reparsed: usize,
    /// Source files served from the parse cache.
    pub files_cached: usize,
    /// Per source file, in source order: its lowered unit moved over from
    /// the previous update (every file when the source set is unchanged)
    /// instead of being lowered afresh (sema, AST→VH, VH→H).
    pub units_reused: Vec<bool>,
    /// `.rgn` rows carried over verbatim from the previous update: every
    /// row of a procedure whose summary and extraction environment are
    /// unchanged, and of a re-propagated caller its local rows and the
    /// rows of the call-site slices it kept.
    pub rows_reused: usize,
    /// `.rgn` rows rebuilt by re-running extraction: whole procedures, and
    /// the re-translated slices of a caller that kept the rest. With
    /// `rows_reused` it covers every row of the table.
    pub rows_recomputed: usize,
    /// Rows present now but not in the previous table.
    pub rows_added: usize,
    /// Rows present previously but gone now.
    pub rows_removed: usize,
    /// Rows whose identity (procedure, array, mode, via, line) persists but
    /// whose content changed.
    pub rows_changed: usize,
    /// The refreshed analysis' degradation list (same as
    /// [`Analysis::degradations`]).
    pub degradations: Vec<Degradation>,
}

/// Everything retained between updates.
struct SessionState {
    analysis: Analysis,
    /// Where each source file's lowered unit sits in `analysis.program`,
    /// for the next update's assembly to reuse.
    units: UnitTable,
    /// Pre-propagation (local) summaries, one per procedure.
    local: Vec<ProcSummary>,
    /// Fingerprint → procedure: the content-addressed cache index.
    by_hash: BTreeMap<u64, ProcId>,
    /// Contained IPL failure per procedure (stage, detail), carried by
    /// classification hits so degradation reports stay stable across
    /// updates.
    ipl_fail: Vec<Option<(String, String)>>,
    /// The degradation this state's propagation raised, if any. Such a
    /// state is never reused: the next update re-propagates everything.
    prop_degr: Vec<Degradation>,
    /// Per-procedure fingerprints, parallel to the program's procedures
    /// (carried over for the procedures of reused units).
    fps: Vec<u64>,
    /// Each procedure's row slice within `analysis.rows` (rows are emitted
    /// in call-graph pre-order, so every procedure's rows are contiguous).
    proc_rows: Vec<std::ops::Range<usize>>,
    /// Per call site of `analysis.callgraph` (numbered by
    /// [`CallGraph::site_range`]), the length of its slice in the caller's
    /// propagated summary: the records translated at that site, which come
    /// after the caller's local records and before the next site's.
    /// [`NO_SLICE`] where not known: everywhere after a failed propagation,
    /// and for procedures whose propagated summary was rebased.
    slice_lens: Vec<u32>,
    /// Contained extraction failure per procedure.
    extract_fail: Vec<Option<String>>,
    /// Hash of the whole extraction environment — symbol names, classes,
    /// addresses (including resolved formals), type columns, procedure
    /// metadata. `None` when it could not be computed — never reused.
    extract_env: Option<u64>,
    /// Ordered content keys of the source set this state was built from.
    file_keys: Vec<u64>,
    /// Built while the ambient memory budget was exhausted or the
    /// update's deadline had expired: the answer is sound but
    /// environmentally widened. Served once, never reused by the fast path,
    /// never persisted; the next update recomputes cold.
    tainted: bool,
    /// The source set itself, retained so the state can be persisted (the
    /// on-disk cache stores sources and re-derives the program from them).
    sources: Vec<SourceFile>,
    /// Per procedure, the content address and length of an on-disk
    /// entry container holding exactly this state's entry bytes for it, so
    /// a save can reference that file instead of re-encoding. Set by
    /// `load` for every entry whose rows it took and by a successful
    /// `persist` for every entry; `update` carries it only where the
    /// entry's inputs were moved verbatim.
    entry_addr: Vec<Option<(u64, u64)>>,
    /// This state's `.rgn` document, rendered by the first
    /// [`AnalysisSession::rgn_document`] call and never before. It needs
    /// no invalidation: an update that changes anything builds a new
    /// state, and nothing it renders from changes within one.
    rgn: OnceLock<String>,
}

/// A verified cache hit: the old procedure it corresponds to, the symbol
/// translation maps that rebase its cached summaries, and whether those maps
/// are a total identity (in which case cached summaries can be *moved*
/// instead of rebased).
struct CleanProc {
    old: ProcId,
    maps: SymbolMaps,
    identity: bool,
}

/// What a procedure takes over from the previous state, decided once per
/// update after propagation. The row walk, the row diff, revisions, slice
/// lengths and entry addresses all read it.
#[derive(Clone, Copy)]
enum Reuse {
    /// Every row is extracted afresh.
    Fresh,
    /// A spliced caller: the rows of its local part and of its kept slices
    /// move from `old`; those of its re-translated slices are extracted.
    Splice(ProcId),
    /// Every row moves from `old`. `verbatim`: the summary moved too
    /// (identity clean), so its revision, slice lengths and entry address
    /// carry over with the rows.
    Move { old: ProcId, verbatim: bool },
    /// A load's cache entry: its rows, extraction failure and address are
    /// this propagation's, so they come from the entry.
    Disk,
}

/// Long-lived incremental analysis handle. See the module docs for the
/// update algorithm and [`AnalysisDelta`] for what each update reports.
///
/// ```
/// use araa::{AnalysisOptions, AnalysisSession};
///
/// let mut session = AnalysisSession::new(AnalysisOptions::default());
/// let delta = session.update(&workloads::mini_lu::sources()).unwrap();
/// assert_eq!(delta.summary_cache_hits, 0); // cold start
///
/// // Same sources again: everything is served from the cache.
/// let delta = session.update(&workloads::mini_lu::sources()).unwrap();
/// assert_eq!(delta.summary_cache_misses, 0);
/// assert!(delta.summaries_recomputed.is_empty());
/// assert!(session.analysis().is_some());
/// ```
pub struct AnalysisSession {
    opts: AnalysisOptions,
    salt: u64,
    file_cache: BTreeMap<u64, ParsedSource>,
    state: Option<SessionState>,
    /// Hands displaced states to a long-lived dropper thread: deallocating
    /// an entire program (trees, symbol tables, row table) costs about as
    /// much as a warm update itself, so it happens off the critical path.
    /// `None` once the thread is gone (its handle is never joined — it owns
    /// nothing but garbage).
    graveyard: Option<std::sync::mpsc::Sender<SessionState>>,
    /// On-disk cache attached via [`with_cache_dir`](Self::with_cache_dir).
    store: Option<SessionStore>,
    /// Incidents recorded by [`load`](Self::load) / [`persist`](Self::persist):
    /// quarantined files, lock timeouts, failed saves.
    cache_incidents: Vec<Degradation>,
}

impl AnalysisSession {
    /// Creates an empty session. The options are fixed for the session's
    /// lifetime (they are part of every cache key).
    pub fn new(opts: AnalysisOptions) -> Self {
        let (tx, rx) = std::sync::mpsc::channel::<SessionState>();
        let spawned = std::thread::Builder::new()
            .name("araa-session-dropper".to_string())
            .spawn(move || while rx.recv().is_ok() {})
            .is_ok();
        AnalysisSession {
            salt: budget_salt(&opts.budget),
            opts,
            file_cache: BTreeMap::new(),
            state: None,
            graveyard: spawned.then_some(tx),
            store: None,
            cache_incidents: Vec::new(),
        }
    }

    /// The options this session analyzes with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.opts
    }

    /// The analysis produced by the most recent successful [`update`](Self::update).
    pub fn analysis(&self) -> Option<&Analysis> {
        self.state.as_ref().map(|s| &s.analysis)
    }

    /// The `.rgn` document of the last analysis, byte for byte
    /// [`Analysis::rgn_document`]. The first call after an update or a
    /// [`load`](Self::load) that built a new state renders it; later calls
    /// return the same text until the next such update.
    pub fn rgn_document(&self) -> Option<&str> {
        let state = self.state.as_ref()?;
        Some(state.rgn.get_or_init(|| {
            let _span = support::obs::span("session.render_rgn");
            state.analysis.rgn_document()
        }))
    }

    /// Consumes the session, yielding the last analysis.
    pub fn into_analysis(self) -> Option<Analysis> {
        self.state.map(|s| s.analysis)
    }

    /// Ships a displaced state to the dropper thread; if that fails (thread
    /// gone, or it never spawned) the state drops inline.
    fn retire(&mut self, state: Option<SessionState>) {
        let (Some(state), Some(tx)) = (state, &self.graveyard) else { return };
        if tx.send(state).is_err() {
            self.graveyard = None;
        }
    }

    /// Re-analyzes `sources`, recomputing only what changed since the last
    /// update. The first call is a cold start (everything is "changed").
    /// On error (nothing parseable at all) the previous state is kept
    /// untouched.
    pub fn update<I>(&mut self, sources: I) -> Result<AnalysisDelta>
    where
        I: IntoIterator,
        I::Item: Into<SourceFile>,
    {
        self.update_with(sources.into_iter().map(Into::into).collect(), None)
    }

    /// [`update`](Self::update), where a procedure with no in-memory
    /// candidate takes the entry `tier` files under its name when the
    /// fingerprints match. The tier holds a [`load`](Self::load)'s
    /// validated entries, whose summaries are numbered as the program its
    /// manifest's sources assemble to, and those are the `sources` a load
    /// passes. A load's update publishes no update counters: its work
    /// shows as `store.primed`, `store.rejected` and spans, and the
    /// caller's next update counts as it would after any update.
    fn update_with(
        &mut self,
        sources: Vec<SourceFile>,
        mut tier: Option<&mut DiskTier>,
    ) -> Result<AnalysisDelta> {
        let mut delta = AnalysisDelta::default();
        let keys: Vec<u64> = sources.iter().map(file_key).collect();
        let _update_span = support::obs::span("session.update");

        // Fast path: the exact source set of the last update (same files,
        // same order, same text) reassembles to a bit-identical program, so
        // the retained state already *is* the answer.
        if let Some(p) = &self.state {
            if keys == p.file_keys && !p.tainted && p.prop_degr.is_empty() {
                delta.files_cached = sources.len();
                delta.units_reused = vec![true; sources.len()];
                delta.summary_cache_hits = p.analysis.program.procedure_count();
                delta.rows_reused = p.analysis.rows.len();
                delta.degradations = p.analysis.degradations.clone();
                record_update_obs(
                    &delta,
                    0,
                    0,
                    p.analysis.program.procedure_count() as u64,
                    p.analysis.rows.len() as u64,
                );
                return Ok(delta);
            }
        }

        // A previous update that ran out of memory budget or time left
        // widened summaries and possibly truncated parses behind. Sound to
        // serve, wrong to build on: drop the state *and* the parse cache it
        // poisoned so this update recomputes from scratch.
        if self.state.as_ref().is_some_and(|p| p.tainted) {
            let old = self.state.take();
            self.retire(old);
            self.file_cache.clear();
        }

        // 1. Parse, reusing cached per-file parses for unchanged text, and
        // assemble, reusing every lowered unit `frontend::units` admits.
        let parse_span = support::obs::span("session.parse");
        let mut next_cache = BTreeMap::new();
        // Content key → served from the cache; a key seen twice is parsed
        // afresh the second time, so it counts as fresh.
        let mut hits: BTreeMap<u64, bool> = BTreeMap::new();
        for (s, &key) in sources.iter().zip(&keys) {
            // Move the cached parse into the next cache (rebuilt here so it
            // evicts files no longer in the source set).
            let (p, hit) = match self.file_cache.remove(&key) {
                Some(hit) => {
                    delta.files_cached += 1;
                    (hit, true)
                }
                None => {
                    delta.files_reparsed += 1;
                    (frontend::parse_source_with_recovery(s), false)
                }
            };
            hits.entry(key).and_modify(|h| *h = false).or_insert(hit);
            next_cache.insert(key, p);
        }
        // Assembly borrows the cached parses, in source order, and moves the
        // trees of reused units out of the previous program.
        let assembled = {
            let inputs: Vec<UnitInput<'_>> = keys
                .iter()
                .map(|&key| UnitInput { parse: &next_cache[&key], key, cached: hits[&key] })
                .collect();
            let prev = self.state.as_mut().map(|p| (&mut p.analysis.program, &p.units));
            frontend::assemble_units(&inputs, prev, self.opts.layout_base)
        };
        let assembly = match assembled {
            Ok(out) => out,
            Err(e) => {
                // Keep the parses (they are valid) so the next attempt's
                // cache is no worse than before this failed one — unless
                // the effective memory budget is exhausted: then they may
                // be budget-truncated, and caching them would replay this
                // failure even after the caller raises the budget. Drop
                // everything so the retry reparses cold.
                let mem_exhausted =
                    support::memory::current().is_some_and(|b| b.exhausted());
                if mem_exhausted {
                    self.file_cache.clear();
                } else {
                    self.file_cache.extend(next_cache);
                }
                return Err(e);
            }
        };
        // Commit the parse cache only once assembly succeeded, evicting
        // entries for files no longer in the source set.
        self.file_cache = next_cache;
        drop(parse_span);
        let reused = assembly.reused_procs();
        let Assembly { program, diags, units, reused: units_reused, stable } = assembly;
        delta.units_reused = units_reused;
        let mut degradations: Vec<Degradation> =
            diags.iter().map(Degradation::from_frontend).collect();

        // A reused procedure keeps its `ProcId`, its call sites and its
        // callees' `ProcId`s: only the others are scanned for calls.
        let cg = CallGraph::rebuild(
            &program,
            self.state.as_ref().map(|p| &p.analysis.callgraph),
            &reused,
        );
        let n = cg.size();
        // Own the previous state: clean procedures *move* their cached
        // summaries and rows out instead of cloning. Nothing after this
        // point returns early, so a dropped `prev` is always replaced.
        let mut prev = self.state.take();

        // 2. Fingerprint and classify every procedure.
        let classify_span = support::obs::span("session.classify");
        let proc_map = match &prev {
            Some(p) => old_to_new_procs(&p.analysis.program, &program),
            None => BTreeMap::new(),
        };
        // Fingerprints travel with reused units: a reused procedure is its
        // previous self. Every other procedure is fingerprinted afresh.
        let fps: Vec<u64> = (0..n)
            .map(|i| match &prev {
                Some(p) if reused[i] => p.fps[i],
                _ => proc_fingerprint(&program, ProcId::from_usize(i), self.salt),
            })
            .collect();
        // When nothing shifted — same procedures in the same slots, every
        // shared symbol mapping to itself — a verified-clean procedure's
        // cached summaries are already in the new program's terms and can be
        // moved wholesale (`rebase_summary` would be the identity).
        let procs_identity = match &prev {
            Some(p) => {
                p.analysis.program.procedure_count() == n
                    && proc_map.len() == n
                    && proc_map.iter().all(|(o, nw)| o == nw)
            }
            None => false,
        };
        // Globals and names keep their numbers when the assembly was
        // stable; otherwise the tables are compared name by name. The map
        // is built at most once, when a rebase or this check needs it.
        let mut global_map: Option<SymbolMaps> = None;
        let global_identity = stable
            || prev.as_ref().is_none_or(|p| {
                identity_maps(
                    global_map.insert(global_symbol_map(&p.analysis.program, &program)),
                )
            });
        let mut clean: Vec<Option<CleanProc>> = (0..n).map(|_| None).collect();
        // By procedure, the cache entry a load's classification took, its
        // local summary and IPL failure moved out (empty outside a load).
        let mut disk: BTreeMap<usize, Filed> = BTreeMap::new();
        let mut locals: Vec<Option<ProcSummary>> = (0..n).map(|_| None).collect();
        // Contained IPL failure per procedure: a hit carries its recorded
        // incident (the reused summary is the degraded one, so the report
        // must keep saying so), a recompute records its own.
        let mut ipl_fail: Vec<Option<(String, String)>> = vec![None; n];
        let mut dirty: Vec<ProcId> = Vec::new();
        let mut cache_rejects = 0u64;
        let mut cache_rebases = 0u64;
        for (i, &fp) in fps.iter().enumerate() {
            let id = ProcId::from_usize(i);
            // Whether a fingerprint candidate existed at all: a candidate
            // that falls through to the dirty set is a *reject* (hash hit,
            // failed verification or rebase), not a plain recompute.
            let mut had_candidate = false;
            if let Some(p) = prev.as_mut() {
                if let Some(&old_id) = p.by_hash.get(&fp) {
                    had_candidate = true;
                    // A reused procedure is its previous self: on a stable
                    // assembly every symbol it names kept its number, else
                    // its maps come from the procedure as it stands. Any
                    // other hash hit is trusted only after full structural
                    // verification, which also yields the rebasing maps.
                    let maps = if reused[i] && old_id == id {
                        if stable {
                            Some(SymbolMaps::default())
                        } else {
                            procs_correspond(&program, id, &program, id)
                        }
                    } else {
                        procs_correspond(&p.analysis.program, old_id, &program, id)
                    };
                    if let Some(mut maps) = maps {
                        // Identity maps on an identity program layout: move
                        // the cached summary; rebasing would copy it term by
                        // term only to reproduce it exactly.
                        let identity =
                            procs_identity && global_identity && identity_maps(&maps);
                        let local = if identity {
                            Some(std::mem::take(&mut p.local[old_id.as_usize()]))
                        } else if maps.merge(global_map.get_or_insert_with(|| {
                            global_symbol_map(&p.analysis.program, &program)
                        })) {
                            rebase_summary(&p.local[old_id.as_usize()], &maps, &proc_map)
                        } else {
                            None
                        };
                        if let Some(local) = local {
                            clean[i] = Some(CleanProc { old: old_id, maps, identity });
                            locals[i] = Some(local);
                            ipl_fail[i] = p.ipl_fail[old_id.as_usize()].clone();
                            delta.summary_cache_hits += 1;
                            if !identity {
                                cache_rebases += 1;
                            }
                            continue;
                        }
                    }
                }
            }
            // A load rebuilt the program from its manifest's sources, so an
            // entry's local summary is already in this numbering: it moves.
            if let Some(t) = tier.as_deref_mut().filter(|_| !had_candidate) {
                let name = program.name_of(program.procedure(id).name);
                if let Some(mut filed) = t.take(name, fp) {
                    locals[i] = Some(std::mem::take(&mut filed.entry.local));
                    ipl_fail[i] = filed.entry.ipl_fail.take();
                    disk.insert(i, filed);
                    delta.summary_cache_hits += 1;
                    continue;
                }
            }
            if had_candidate {
                cache_rejects += 1;
            }
            delta.summary_cache_misses += 1;
            dirty.push(id);
        }
        drop(classify_span);

        // 3. Recompute IPL only for the dirty set, on the usual workers.
        let ipl_span = support::obs::span("session.ipl");
        for (id, summary, failure) in
            summarize_subset_isolated(&program, &dirty, self.opts.threads, self.opts.budget)
        {
            let i = id.as_usize();
            locals[i] = Some(summary);
            ipl_fail[i] = failure.map(|f| (f.stage.to_string(), f.detail));
        }
        let locals: Vec<ProcSummary> =
            locals.into_iter().map(Option::unwrap_or_default).collect();
        delta.summaries_recomputed =
            dirty.iter().map(|&id| raw_name(&program, id)).collect();
        for (i, f) in ipl_fail.iter().enumerate() {
            if let Some((stage, detail)) = f {
                degradations.push(Degradation {
                    proc: raw_name(&program, ProcId::from_usize(i)),
                    stage: stage.clone(),
                    detail: detail.clone(),
                });
            }
        }

        drop(ipl_span);
        // 4. Propagation is invalidated for ancestors of dirty procedures;
        // everyone else reuses a rebased cached propagated summary. A
        // summary that fails its rebase joins the recompute set (and so do
        // its ancestors) — looped until the set is stable. A state whose
        // propagation raised a degradation is never reused: everything
        // re-propagates.
        let prop_span = support::obs::span("session.propagate");
        let mut seeds = dirty.clone();
        let mut prop_rebased: Vec<Option<ProcSummary>> = (0..n).map(|_| None).collect();
        let degraded = prev.as_ref().is_some_and(|p| !p.prop_degr.is_empty());
        let mut affected = if degraded {
            vec![true; n]
        } else {
            cg.ancestor_closure(seeds.iter().copied())
        };
        loop {
            let mut grew = false;
            for i in 0..n {
                if affected[i] || prop_rebased[i].is_some() {
                    continue;
                }
                let rebased = match (&clean[i], prev.as_mut()) {
                    (Some(c), Some(p)) if c.identity => Some(std::mem::take(
                        &mut p.analysis.ipa.summaries[c.old.as_usize()],
                    )),
                    (Some(c), Some(p)) => rebase_summary(
                        &p.analysis.ipa.summaries[c.old.as_usize()],
                        &c.maps,
                        &proc_map,
                    ),
                    _ => None,
                };
                match rebased {
                    Some(s) => prop_rebased[i] = Some(s),
                    None => {
                        seeds.push(ProcId::from_usize(i));
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
            affected = cg.ancestor_closure(seeds.iter().copied());
        }
        delta.propagation_recomputed = (0..n)
            .filter(|&i| affected[i])
            .map(|i| raw_name(&program, ProcId::from_usize(i)))
            .collect();

        // An affected caller whose previous propagation is on hand keeps the
        // slices of its call sites whose callee did not change, and only the
        // other sites are translated again. That needs a healthy previous
        // propagation with known slice lengths, and an identity-clean caller
        // and callee (same slots, same trees, same symbols), with the callee
        // outside the affected set. Such a caller is *spliced*.
        let identity = |i: usize| clean[i].as_ref().is_some_and(|c| c.identity);
        let mut kept: Vec<u32> = Vec::new();
        let mut spliced = vec![false; n];
        if let Some(p) = prev.as_ref().filter(|_| !degraded) {
            kept = vec![NO_SLICE; cg.site_count()];
            for (i, c) in clean.iter().enumerate() {
                let Some(c) = c.as_ref().filter(|c| c.identity && affected[i]) else { continue };
                let old_lens = &p.slice_lens[p.analysis.callgraph.site_range(c.old)];
                if old_lens.contains(&NO_SLICE) {
                    continue;
                }
                spliced[i] = true;
                let id = ProcId::from_usize(i);
                for ((site, k), &len) in cg.calls(id).iter().zip(cg.site_range(id)).zip(old_lens) {
                    let callee = site.callee.as_usize();
                    if identity(callee) && !affected[callee] {
                        kept[k] = len;
                    }
                }
            }
        }
        // Affected slots start from local summaries (a spliced caller's
        // from its previous propagated summary, cut down to the local part
        // and the kept slices); everything else holds its full (rebased)
        // propagated summary, exactly the `propagate_spliced` contract.
        // With an all-true mask and nothing kept this is the cold pipeline.
        let mut summaries: Vec<ProcSummary> = Vec::with_capacity(n);
        for i in 0..n {
            match (&clean[i], prev.as_mut()) {
                (Some(c), Some(p)) if spliced[i] => {
                    // An identity-clean summary moved before a rebase
                    // failure made this caller affected waits in
                    // `prop_rebased`.
                    let mut s = prop_rebased[i].take().unwrap_or_else(|| {
                        std::mem::take(&mut p.analysis.ipa.summaries[c.old.as_usize()])
                    });
                    let old_lens = &p.slice_lens[p.analysis.callgraph.site_range(c.old)];
                    let site_kept = &kept[cg.site_range(ProcId::from_usize(i))];
                    keep_slices(&mut s.accesses, old_lens, site_kept);
                    summaries.push(s);
                }
                _ if affected[i] => summaries.push(locals[i].clone()),
                _ => match prop_rebased[i].take() {
                    Some(s) => summaries.push(s),
                    // Unreachable by construction (the loop above only exits
                    // once every unaffected slot is rebased); a local
                    // summary is still a sound stand-in.
                    None => summaries.push(locals[i].clone()),
                },
            }
        }
        let (mut ipa, lens, raised) = propagate_contained(
            &program,
            &cg,
            summaries,
            &affected,
            &kept,
            &locals,
            self.opts.budget,
        );
        // Only this run's own degradation is on record: a previous one made
        // everything re-propagate above.
        let prop_degr: Vec<Degradation> = raised.into_iter().collect();
        degradations.extend(prop_degr.iter().cloned());
        drop(prop_span);

        let extract_span = support::obs::span("session.extract");
        // 5. Decide each procedure's reuse. Row extraction reads, besides the
        // summary, an environment (addresses, object files, type columns)
        // that is hashed whole; rows move only where it hashed as last time.
        let exopts = ExtractOptions { include_propagated: self.opts.include_propagated };
        let mut layout_failure: Option<String> = None;
        let formal_addr = match catch_unwind(AssertUnwindSafe(|| {
            resolve_formal_addresses(&program, &cg)
        })) {
            Ok(m) => m,
            Err(payload) => {
                layout_failure = Some(panic_message(payload.as_ref()));
                BTreeMap::new()
            }
        };
        let extract_env: Option<u64> =
            catch_unwind(AssertUnwindSafe(|| extract_env_hash(&program, &formal_addr)))
                .ok();
        let env_matches = match (&prev, extract_env) {
            (Some(p), Some(e)) => p.extract_env == Some(e),
            _ => false,
        };
        // A load's entry holds rows extracted from the saved propagation.
        // They are this one's where both propagations were healthy, the
        // environment hashes as the manifest recorded, and the procedure
        // reaches no procedure whose IPL was recomputed.
        let disk_trusted = tier.as_ref().is_some_and(|t| {
            let env_matches = extract_env.is_some() && t.extract_env == extract_env;
            t.healthy && prop_degr.is_empty() && env_matches
        });
        let disk_stale =
            if disk_trusted { cg.ancestor_closure(dirty.iter().copied()) } else { Vec::new() };
        // Rows move only out of a successful propagation (a failed one holds
        // the local summaries everywhere): a clean, unaffected procedure's
        // whole, and a spliced caller's local part and kept slices unless its
        // previous extraction failed.
        let reuse: Vec<Reuse> = (0..n)
            .map(|i| match (&clean[i], prev.as_ref()) {
                (Some(c), Some(p)) if env_matches && lens.is_some() => {
                    if !affected[i] {
                        Reuse::Move { old: c.old, verbatim: c.identity }
                    } else if spliced[i] && p.extract_fail[c.old.as_usize()].is_none() {
                        Reuse::Splice(c.old)
                    } else {
                        Reuse::Fresh
                    }
                }
                _ if disk_trusted && disk.contains_key(&i) && !disk_stale[i] => Reuse::Disk,
                _ => Reuse::Fresh,
            })
            .collect();
        // A summary keeps its revision, and its slice lengths, only where its
        // rows move whole with it; every other summary gets a new revision
        // (one built this update has one already). A renamed source file
        // needs no rule: fingerprints and `procs_correspond` compare source
        // names, so its procedures are never clean.
        let mut slice_lens = lens.unwrap_or_else(|| vec![NO_SLICE; cg.site_count()]);
        for (i, (s, &r)) in ipa.summaries.iter_mut().zip(&reuse).enumerate() {
            match (r, prev.as_ref()) {
                (Reuse::Move { old, verbatim: true }, Some(p)) => {
                    let old = &p.slice_lens[p.analysis.callgraph.site_range(old)];
                    slice_lens[cg.site_range(ProcId::from_usize(i))].copy_from_slice(old);
                }
                (Reuse::Move { .. }, _) => {}
                _ => s.remint(),
            }
        }

        // 6. The row walk, in call-graph pre-order. A procedure's rows are
        // its head (a spliced caller's local part, else all of them) and,
        // for a spliced caller, one part per call site, one row per record.
        // A part moves from the previous table where the decision keeps it
        // and is extracted otherwise. All extracted parts of a procedure come
        // from one call, so each callee's rows total over all of its sites.
        let mut old_rows =
            prev.as_mut().map(|p| std::mem::take(&mut p.analysis.rows)).unwrap_or_default();
        let mut rows: Vec<RgnRow> = Vec::new();
        let mut proc_rows: Vec<std::ops::Range<usize>> = vec![0..0; n];
        // Moved rows carry their procedure's recorded extraction failure.
        let mut extract_fail: Vec<Option<String>> = reuse
            .iter()
            .enumerate()
            .map(|(i, &r)| match (r, prev.as_ref()) {
                (Reuse::Move { old, .. }, Some(p)) => p.extract_fail[old.as_usize()].clone(),
                (Reuse::Disk, _) => disk.get_mut(&i).and_then(|d| d.entry.extract_fail.take()),
                _ => None,
            })
            .collect();
        // The previous rows that moved and the rows extracted afresh, as
        // coalesced ranges: the diff compares only what did not move.
        let mut moved: Vec<std::ops::Range<usize>> = Vec::new();
        let mut fresh: Vec<std::ops::Range<usize>> = Vec::new();
        let mut stale: Vec<std::ops::Range<usize>> = Vec::new();
        let mut from_disk = 0;
        let slice_rows = |len: u32| if exopts.include_propagated { len as usize } else { 0 };
        let order = cg.pre_order();
        for &pid in &order {
            let i = pid.as_usize();
            let start = rows.len();
            if let (Reuse::Disk, Some(d)) = (reuse[i], disk.get_mut(&i)) {
                from_disk += d.entry.rows.len();
                rows.append(&mut d.entry.rows);
                proc_rows[i] = start..rows.len();
                continue;
            }
            let summary = &ipa.summaries[i];
            // Where the old rows start (`None`: nothing moves), the head's
            // length (old rows if it moves, records if it is extracted), and
            // a spliced caller's sites with their old slice lengths.
            let (from, head, sites, old_lens) = match (reuse[i], prev.as_ref()) {
                (Reuse::Move { old, .. }, Some(p)) => {
                    let range = &p.proc_rows[old.as_usize()];
                    (Some(range.start), range.len(), 0..0, &[][..])
                }
                (Reuse::Splice(old), Some(p)) => (
                    Some(p.proc_rows[old.as_usize()].start),
                    locals[i].accesses.len(),
                    cg.site_range(pid),
                    &p.slice_lens[p.analysis.callgraph.site_range(old)],
                ),
                _ => (None, summary.accesses.len(), 0..0, &[][..]),
            };
            stale.clear();
            if from.is_none() {
                stale.push(0..head);
            }
            let mut at = head;
            for k in sites.clone() {
                let len = slice_lens[k] as usize;
                if kept[k] == NO_SLICE {
                    stale.push(at..at + len);
                }
                at += len;
            }
            let extracted = if stale.is_empty() {
                Ok(Vec::new())
            } else {
                let _span = support::obs::span_arg("extract.rows", || raw_name(&program, pid));
                catch_unwind(AssertUnwindSafe(|| {
                    extract_range_rows(&program, pid, summary, &stale, exopts, &formal_addr)
                }))
            };
            match extracted {
                Ok(new_rows) => {
                    // An extracted head has no sites after it: it takes
                    // every extracted row.
                    let head_part = (from.is_some(), head, new_rows.len());
                    let site_parts = sites.zip(old_lens).map(|(k, &old_len)| {
                        (kept[k] != NO_SLICE, slice_rows(old_len), slice_rows(slice_lens[k]))
                    });
                    let mut new_rows = new_rows.into_iter();
                    let mut from = from.unwrap_or(0);
                    for (keep, old_len, new_len) in std::iter::once(head_part).chain(site_parts) {
                        let at = rows.len();
                        if keep {
                            let taken = old_rows[from..from + old_len].iter_mut();
                            rows.extend(taken.map(std::mem::take));
                            push_range(&mut moved, from..from + old_len);
                        } else {
                            rows.extend(new_rows.by_ref().take(new_len));
                            push_range(&mut fresh, at..rows.len());
                        }
                        from += old_len;
                    }
                }
                Err(payload) => extract_fail[i] = Some(panic_message(payload.as_ref())),
            }
            proc_rows[i] = start..rows.len();
        }
        delta.rows_reused = from_disk + moved.iter().map(ExactSizeIterator::len).sum::<usize>();
        delta.rows_recomputed = fresh.iter().map(ExactSizeIterator::len).sum();
        if let Some(detail) = layout_failure {
            degradations.push(Degradation {
                proc: "(layout)".to_string(),
                stage: "extract".to_string(),
                detail,
            });
        }
        for &pid in &order {
            if let Some(detail) = &extract_fail[pid.as_usize()] {
                degradations.push(Degradation {
                    proc: raw_name(&program, pid),
                    stage: "extract".to_string(),
                    detail: detail.clone(),
                });
            }
        }

        drop(extract_span);
        let _diff_span = support::obs::span("session.diff");
        // 7. Diff the row table against the previous update and commit. The
        // diff key starts with the procedure name and includes the callee,
        // and moved rows are verbatim, so they contribute nothing: diff only
        // the extracted rows against the previous rows that did not move.
        match prev.as_mut() {
            Some(p) => {
                moved.sort_unstable_by_key(|r| r.start);
                let mut old_sub: Vec<&RgnRow> = Vec::new();
                let mut at = 0;
                for r in &moved {
                    old_sub.extend(&old_rows[at..r.start]);
                    at = r.end;
                }
                old_sub.extend(&old_rows[at..]);
                let new_sub: Vec<&RgnRow> = fresh.iter().flat_map(|r| &rows[r.clone()]).collect();
                diff_rows(&old_sub, &new_sub, &mut delta);
                // Back into the displaced state, for the dropper thread.
                p.analysis.rows = old_rows;
            }
            None => delta.rows_added = rows.len(),
        }
        // The memory budget is the ambient scope entered by the caller (the
        // CLI's `--mem-budget-mb`, a serve request): it widens at the same
        // checkpoints as the step budgets, so its exhaustion must show up
        // as a structured degradation — and taint the retained state so
        // nothing widened-by-circumstance is ever reused or persisted. An
        // expired deadline widens at the same checkpoints and taints alike
        // (its degradations are already on record, one per widened phase).
        let mem_exhausted = support::memory::current().filter(|b| b.exhausted());
        let tainted = mem_exhausted.is_some() || support::deadline::expired();
        if let Some(b) = mem_exhausted {
            degradations.push(Degradation {
                proc: "(session)".to_string(),
                stage: "memory".to_string(),
                detail: format!(
                    "memory budget of {} MiB exhausted; results widened conservatively",
                    b.limit_bytes() >> 20
                ),
            });
        }
        delta.degradations = degradations.clone();
        if tier.is_none() {
            record_update_obs(&delta, cache_rejects, cache_rebases, n as u64, rows.len() as u64);
        }
        let by_hash = fps
            .iter()
            .enumerate()
            .map(|(i, &fp)| (fp, ProcId::from_usize(i)))
            .collect();
        // An entry address survives only where every input of the entry was
        // moved verbatim: the local summary, the rows and both failure
        // records.
        let entry_addr = reuse
            .iter()
            .enumerate()
            .map(|(i, &r)| match (r, prev.as_ref()) {
                (Reuse::Move { old, verbatim: true }, Some(p)) => p.entry_addr[old.as_usize()],
                (Reuse::Disk, _) => disk.get(&i).map(|d| d.addr),
                _ => None,
            })
            .collect();
        self.state = Some(SessionState {
            analysis: Analysis { program, callgraph: cg, ipa, rows, degradations },
            units,
            local: locals,
            by_hash,
            fps,
            ipl_fail,
            prop_degr,
            proc_rows,
            slice_lens,
            extract_fail,
            extract_env,
            file_keys: keys,
            sources,
            tainted,
            entry_addr,
            rgn: OnceLock::new(),
        });
        self.retire(prev);
        Ok(delta)
    }
}

/// Publishes one update's delta to the observability layer. The cache
/// counters obey the tested invariant
/// `cache.hits + cache.recomputes == session.procedures` (rejects are a
/// subset of recomputes: a hash hit whose verification or rebase failed),
/// and the unit counters count every file of the update once:
/// `units.reused + units.lowered == parse.files_reparsed +
/// parse.files_cached`.
fn record_update_obs(delta: &AnalysisDelta, rejects: u64, rebases: u64, procs: u64, rows: u64) {
    use support::obs::{self, Counter, Gauge};
    obs::add(Counter::CacheHits, delta.summary_cache_hits as u64);
    obs::add(Counter::CacheRecomputes, delta.summary_cache_misses as u64);
    obs::add(Counter::CacheRejects, rejects);
    obs::add(Counter::CacheRebases, rebases);
    obs::add(Counter::FilesReparsed, delta.files_reparsed as u64);
    obs::add(Counter::FilesCached, delta.files_cached as u64);
    let reused = delta.units_reused.iter().filter(|&&r| r).count();
    obs::add(Counter::UnitsReused, reused as u64);
    obs::add(Counter::UnitsLowered, (delta.units_reused.len() - reused) as u64);
    obs::add(Counter::RowsReused, delta.rows_reused as u64);
    obs::add(Counter::RowsRecomputed, delta.rows_recomputed as u64);
    obs::add(Counter::DegradeEvents, delta.degradations.len() as u64);
    obs::set_gauge(Gauge::SessionProcedures, procs);
    obs::set_gauge(Gauge::SessionRows, rows);
    obs::set_gauge(Gauge::SessionDegradations, delta.degradations.len() as u64);
}

/// Content key of one source file for the parse cache.
fn file_key(s: &SourceFile) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&s.name);
    h.write_u8(match s.lang {
        Lang::C => 0,
        Lang::Fortran => 1,
    });
    h.write_str(&s.text);
    h.finish()
}

/// Old `ProcId` → new `ProcId`, matched by procedure name (names are unique
/// per program — duplicates are degraded away during recovery).
fn old_to_new_procs(old: &Program, new: &Program) -> BTreeMap<ProcId, ProcId> {
    let index = new.proc_index();
    old.procedures
        .iter_enumerated()
        .filter_map(|(old_id, proc)| {
            let name = new.interner.get(old.name_of(proc.name))?;
            Some((old_id, *index.get(&name)?))
        })
        .collect()
}

/// Whether every entry of `maps` maps a symbol to itself.
fn identity_maps(maps: &SymbolMaps) -> bool {
    maps.st.iter().all(|(o, n)| o == n) && maps.sym.iter().all(|(o, n)| o == n)
}

/// The procedure's raw (undecorated) name, as degradation reports use it.
pub(crate) fn raw_name(program: &Program, id: ProcId) -> String {
    program.name_of(program.procedure(id).name).to_string()
}

/// Appends `r` to `ranges`, extending the last range when `r` continues it.
fn push_range(ranges: &mut Vec<std::ops::Range<usize>>, r: std::ops::Range<usize>) {
    match ranges.last_mut() {
        Some(last) if last.end == r.start => last.end = r.end,
        _ if r.is_empty() => {}
        _ => ranges.push(r),
    }
}

/// One contained propagation run: [`propagate_spliced`] over `summaries`
/// (local summaries, plus any `kept` slices, in `affected` slots; full
/// propagated ones elsewhere) under a fresh step budget, with a panic
/// caught. Returns the result, the slice lengths the run reported (`None`
/// when it panicked), and the degradation it raised: its budget ran out
/// (the result holds widened summaries), or it panicked (the result holds
/// [`fallback_ipa`] of `locals`).
fn propagate_contained(
    program: &Program,
    cg: &CallGraph,
    summaries: Vec<ProcSummary>,
    affected: &[bool],
    kept: &[u32],
    locals: &[ProcSummary],
    budget: BudgetConfig,
) -> (IpaResult, Option<Vec<u32>>, Option<Degradation>) {
    let scope = budget::enter(budget);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut s = summaries;
        let (cut, lens) = propagate_spliced(program, cg, &mut s, affected, kept);
        (s, cut, lens)
    }));
    let exhausted = budget::exhaustion();
    drop(scope);
    match outcome {
        Ok((summaries, recursion_cut, lens)) => {
            let raised = exhausted.map(|label| Degradation {
                proc: "(propagation)".to_string(),
                stage: "budget".to_string(),
                detail: format!("{label} budget exhausted; some propagated regions widened"),
            });
            let index_facts = ipa::validated_index_facts(&summaries);
            (IpaResult { summaries, recursion_cut, index_facts }, Some(lens), raised)
        }
        Err(payload) => {
            let raised = Degradation {
                proc: "(propagation)".to_string(),
                stage: "ipa".to_string(),
                detail: panic_message(payload.as_ref()),
            };
            (fallback_ipa(cg, locals), None, Some(raised))
        }
    }
}

/// Cuts a spliced caller's previous propagated records down to what
/// [`propagate_spliced`] expects in its slot: the local part followed by
/// the kept slices. `old_lens` are the caller's previous slice lengths,
/// `kept` its entries of the keep vector ([`NO_SLICE`] for a slice that
/// is translated again).
fn keep_slices(accesses: &mut Vec<AccessRecord>, old_lens: &[u32], kept: &[u32]) {
    let total: usize = old_lens.iter().map(|&len| len as usize).sum();
    let mut slices = accesses.split_off(accesses.len() - total).into_iter();
    for (&len, &keep) in old_lens.iter().zip(kept) {
        let slice = slices.by_ref().take(len as usize);
        if keep == NO_SLICE {
            slice.for_each(drop);
        } else {
            accesses.extend(slice);
        }
    }
}

/// What a failed propagation leaves: every procedure holds its local
/// summary.
fn fallback_ipa(cg: &CallGraph, locals: &[ProcSummary]) -> IpaResult {
    IpaResult {
        index_facts: ipa::validated_index_facts(locals),
        summaries: locals.to_vec(),
        recursion_cut: cg.is_recursive(),
    }
}

/// Hashes everything row extraction reads *besides* the summaries
/// themselves: per-procedure metadata (display name, object file, language)
/// and the whole symbol table — names, classes, addresses (including
/// resolved formal addresses) and the type-table columns. Row reuse
/// requires this environment unchanged *and* the procedure's summary to be
/// a verified rebase of the cached one, so together the two conditions
/// cover every input of [`extract_range_rows`]. A layout-shifting edit
/// changes this hash and disables row reuse for that one update —
/// conservative, never unsound.
fn extract_env_hash(program: &Program, formal_addr: &BTreeMap<whirl::StIdx, u64>) -> u64 {
    let mut h = StableHasher::new();
    for (_, proc) in program.procedures.iter_enumerated() {
        h.write_str(ipa::callgraph::display_name(program, proc));
        // `write_str(&proc.object_file(..))`, without building the string.
        h.write_str_parts(&[proc.object_stem(&program.interner), ".o"]);
        h.write_u8(match proc.lang {
            Lang::C => 0,
            Lang::Fortran => 1,
        });
    }
    for (st, entry) in program.symbols.iter() {
        h.write_str(program.name_of(entry.name));
        h.write_u8(entry.class as u8);
        h.write_u64(entry.address);
        match formal_addr.get(&st) {
            Some(&a) => {
                h.write_u8(1);
                h.write_u64(a);
            }
            None => h.write_u8(0),
        }
        let ty = entry.ty;
        h.write_i64(program.types.element_size(ty));
        h.write_str(program.types.elem_type(ty).display_name());
        h.write_i64(program.types.total_elements(ty));
        h.write_i64(program.types.size_bytes(ty));
        let bounds = program.types.dim_bounds(ty);
        for &b in bounds {
            h.write_i64(b.extent());
        }
        for &b in bounds {
            match b {
                whirl::DimBound::Const { lb, ub } => {
                    h.write_u8(0);
                    h.write_i64(lb);
                    h.write_i64(ub);
                }
                whirl::DimBound::Runtime => h.write_u8(1),
            }
        }
    }
    h.finish()
}

/// Counts row-table differences between two updates. Rows are identified by
/// (procedure, array, mode, via, line); a key present on both sides with
/// different content counts as *changed*, everything else as added/removed.
fn diff_rows(old: &[&RgnRow], new: &[&RgnRow], delta: &mut AnalysisDelta) {
    // The common warm case — nothing moved — short-circuits the grouping.
    if old == new {
        return;
    }
    type Key<'a> = (&'a str, &'a str, u8, Option<&'a str>, u32);
    fn key(r: &RgnRow) -> Key<'_> {
        (&r.proc, &r.array, r.mode as u8, r.via.as_deref(), r.line)
    }
    let mut old_map: BTreeMap<Key, Vec<&RgnRow>> = BTreeMap::new();
    for &r in old {
        old_map.entry(key(r)).or_default().push(r);
    }
    let mut new_map: BTreeMap<Key, Vec<&RgnRow>> = BTreeMap::new();
    for &r in new {
        new_map.entry(key(r)).or_default().push(r);
    }
    for (k, o) in &old_map {
        match new_map.get(k) {
            None => delta.rows_removed += o.len(),
            Some(nv) => {
                // Multiset intersection; per-key groups are tiny (the key
                // includes the source line), so quadratic matching is fine.
                let mut used = vec![false; nv.len()];
                let mut inter = 0usize;
                for r in o {
                    if let Some(j) =
                        nv.iter().enumerate().position(|(j, n)| !used[j] && *n == *r)
                    {
                        used[j] = true;
                        inter += 1;
                    }
                }
                let matched = o.len().min(nv.len());
                delta.rows_changed += matched - inter.min(matched);
                if nv.len() > o.len() {
                    delta.rows_added += nv.len() - o.len();
                } else {
                    delta.rows_removed += o.len() - nv.len();
                }
            }
        }
    }
    for (k, nv) in &new_map {
        if !old_map.contains_key(k) {
            delta.rows_added += nv.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAIN_F: &str = "\
program main
  real a(20)
  common /g/ a
  integer i
  do i = 1, 10
    a(i) = 0.0
  end do
  call mid
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
    const LEAF_F_EDITED: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 18
    a(i) = 2.0
  end do
end
";

    /// `extract_env_hash` as it read when it built a `String` per object
    /// file and a `Vec` per symbol's extents: the manifest stores the
    /// value, so the allocation-free version must match it bit for bit.
    fn extract_env_hash_reference(
        program: &Program,
        formal_addr: &BTreeMap<whirl::StIdx, u64>,
    ) -> u64 {
        let mut h = StableHasher::new();
        for (_, proc) in program.procedures.iter_enumerated() {
            h.write_str(ipa::callgraph::display_name(program, proc));
            h.write_str(&proc.object_file(&program.interner));
            h.write_u8(match proc.lang {
                Lang::C => 0,
                Lang::Fortran => 1,
            });
        }
        for (st, entry) in program.symbols.iter() {
            h.write_str(program.name_of(entry.name));
            h.write_u8(entry.class as u8);
            h.write_u64(entry.address);
            match formal_addr.get(&st) {
                Some(&a) => {
                    h.write_u8(1);
                    h.write_u64(a);
                }
                None => h.write_u8(0),
            }
            let ty = entry.ty;
            h.write_i64(program.types.element_size(ty));
            h.write_str(program.types.elem_type(ty).display_name());
            h.write_i64(program.types.total_elements(ty));
            h.write_i64(program.types.size_bytes(ty));
            for d in program.types.dim_sizes(ty) {
                h.write_i64(d);
            }
            for &b in program.types.dim_bounds(ty) {
                match b {
                    whirl::DimBound::Const { lb, ub } => {
                        h.write_u8(0);
                        h.write_i64(lb);
                        h.write_i64(ub);
                    }
                    whirl::DimBound::Runtime => h.write_u8(1),
                }
            }
        }
        h.finish()
    }

    #[test]
    fn extract_env_hash_matches_the_allocating_reference() {
        use workloads::synthetic::{generate, SynthConfig};
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../workloads/irregular_corpus");
        let mut programs: Vec<(String, Vec<SourceFile>)> = vec![
            ("mini_lu".into(), workloads::mini_lu::sources().into_iter().map(Into::into).collect()),
            (
                "synthetic_24".into(),
                vec![generate(&SynthConfig { procedures: 24, ..SynthConfig::default() }).into()],
            ),
        ];
        let mut names: Vec<_> = std::fs::read_dir(&corpus)
            .expect("irregular corpus")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            let text = std::fs::read_to_string(corpus.join(&name)).expect("corpus file");
            programs.push((name.clone(), vec![SourceFile::new(&name, &text, Lang::Fortran)]));
        }
        for (label, sources) in programs {
            let program = frontend::compile_to_h(&sources, frontend::DEFAULT_LAYOUT_BASE)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let formal_addr = resolve_formal_addresses(&program, &CallGraph::build(&program));
            assert_eq!(
                extract_env_hash(&program, &formal_addr),
                extract_env_hash_reference(&program, &formal_addr),
                "{label}"
            );
        }
    }

    fn files(leaf: &str) -> Vec<SourceFile> {
        vec![
            SourceFile::new("main.f", MAIN_F, Lang::Fortran),
            SourceFile::new("mid.f", MID_F, Lang::Fortran),
            SourceFile::new("leaf.f", leaf, Lang::Fortran),
        ]
    }

    #[test]
    fn identical_update_is_fully_cached() {
        let mut s = AnalysisSession::new(AnalysisOptions::default());
        let cold = s.update(&files(LEAF_F)).unwrap();
        assert_eq!(cold.summary_cache_hits, 0);
        assert_eq!(cold.summary_cache_misses, 3);
        assert_eq!(cold.files_reparsed, 3);
        let warm = s.update(&files(LEAF_F)).unwrap();
        assert_eq!(warm.summary_cache_hits, 3);
        assert_eq!(warm.summary_cache_misses, 0);
        assert_eq!(warm.files_cached, 3);
        assert!(warm.summaries_recomputed.is_empty());
        assert!(warm.propagation_recomputed.is_empty());
        assert_eq!(warm.rows_recomputed, 0);
        assert_eq!(warm.rows_added + warm.rows_removed + warm.rows_changed, 0);
        assert!(warm.rows_reused > 0);
    }

    #[test]
    fn reordered_sources_stay_fully_cached() {
        // Same files, different order: every content key survives but the
        // ordered key list differs, so this skips the identical-input fast
        // path and exercises the full verify-and-rebase machinery across a
        // program whose procedure and symbol indices all shifted.
        let mut s = AnalysisSession::new(AnalysisOptions::default());
        s.update(&files(LEAF_F)).unwrap();
        let mut reversed = files(LEAF_F);
        reversed.reverse();
        let warm = s.update(&reversed).unwrap();
        assert_eq!(warm.summary_cache_hits, 3);
        assert_eq!(warm.summary_cache_misses, 0);
        assert_eq!(warm.files_cached, 3);
        assert!(warm.summaries_recomputed.is_empty());
        assert!(warm.propagation_recomputed.is_empty(), "{warm:?}");
        let cold = Analysis::analyze(&reversed, AnalysisOptions::default()).unwrap();
        assert_eq!(s.analysis().unwrap().rows, cold.rows);
    }

    #[test]
    fn leaf_edit_dirties_only_its_ancestor_chain() {
        let mut s = AnalysisSession::new(AnalysisOptions::default());
        s.update(&files(LEAF_F)).unwrap();
        let d = s.update(&files(LEAF_F_EDITED)).unwrap();
        assert_eq!(d.summaries_recomputed, vec!["leaf".to_string()]);
        // Everyone transitively calls leaf here, so propagation touches all.
        let mut prop = d.propagation_recomputed.clone();
        prop.sort();
        assert_eq!(prop, ["leaf", "main", "mid"]);
        assert_eq!(d.summary_cache_hits, 2);
        assert_eq!(d.files_reparsed, 1);
        assert_eq!(d.files_cached, 2);
    }

    #[test]
    fn warm_rows_match_cold_rows_after_edit() {
        let mut s = AnalysisSession::new(AnalysisOptions::default());
        s.update(&files(LEAF_F)).unwrap();
        s.update(&files(LEAF_F_EDITED)).unwrap();
        let cold = Analysis::analyze(&files(LEAF_F_EDITED), AnalysisOptions::default())
            .unwrap();
        let warm = s.analysis().unwrap();
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(warm.degradations, cold.degradations);
    }

    #[test]
    fn failed_update_keeps_previous_state() {
        let mut s = AnalysisSession::new(AnalysisOptions::default());
        s.update(&files(LEAF_F)).unwrap();
        let rows_before = s.analysis().unwrap().rows.len();
        let err = s.update(&[SourceFile::new("bad.f", "subroutine\n", Lang::Fortran)]);
        assert!(err.is_err());
        assert_eq!(s.analysis().unwrap().rows.len(), rows_before);
        // And the session still works afterwards.
        let d = s.update(&files(LEAF_F)).unwrap();
        assert_eq!(d.summary_cache_misses, 0);
    }

    #[test]
    fn the_rgn_document_renders_once_per_state() {
        use support::obs::{self, ClockKind, Collector};
        let c = Collector::new(ClockKind::Logical);
        let _obs = obs::attach(std::sync::Arc::clone(&c));
        let renders =
            || c.events().iter().filter(|e| e.name == "session.render_rgn").count();
        let cold = |leaf| {
            Analysis::analyze(files(leaf), AnalysisOptions::default()).unwrap().rgn_document()
        };
        let mut s = AnalysisSession::new(AnalysisOptions::default());
        assert_eq!(s.rgn_document(), None);
        s.update(files(LEAF_F)).unwrap();
        assert_eq!(renders(), 0, "an update renders nothing");
        let first = cold(LEAF_F);
        assert_eq!(s.rgn_document(), Some(first.as_str()));
        let memo = s.rgn_document().map(str::as_ptr);
        assert_eq!(renders(), 1, "two reads render once");

        // Identical input keeps the state, and so its memo; so does an
        // update that fails.
        s.update(files(LEAF_F)).unwrap();
        assert!(s.update([SourceFile::new("bad.f", "subroutine\n", Lang::Fortran)]).is_err());
        assert_eq!(s.rgn_document().map(str::as_ptr), memo);
        assert_eq!(renders(), 1);

        // A one-file edit builds a new state, rendered on its first read.
        s.update(files(LEAF_F_EDITED)).unwrap();
        assert_eq!(renders(), 1);
        let edited = cold(LEAF_F_EDITED);
        assert_ne!(edited, first);
        assert_eq!(s.rgn_document(), Some(edited.as_str()));
        assert_eq!(renders(), 2);
    }

    #[test]
    fn row_diff_counts_adds_removes_changes() {
        let mut s = AnalysisSession::new(AnalysisOptions::default());
        s.update(&files(LEAF_F)).unwrap();
        let d = s.update(&files(LEAF_F_EDITED)).unwrap();
        // The leaf edit shrinks its DEF region: same row identity, new
        // bounds — a change, not an add/remove pair.
        assert!(d.rows_changed > 0, "{d:?}");
    }
}
