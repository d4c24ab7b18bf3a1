//! Incremental analysis sessions: re-analyze only what an edit touched.
//!
//! [`AnalysisSession`] is a long-lived handle that owns the last compiled
//! [`Program`], its call graph, and a content-addressed cache of
//! per-procedure summaries keyed by a stable hash of (procedure IR,
//! [`BudgetConfig`](support::budget::BudgetConfig)). Each
//! [`AnalysisSession::update`] call:
//!
//! 1. re-parses only the source files whose text changed (per-file parse
//!    cache keyed by a content hash of name + language + text);
//! 2. fingerprints every procedure of the re-assembled program
//!    ([`whirl::hash::proc_fingerprint`]) and classifies it *clean* (cache
//!    hit, verified structurally by [`whirl::hash::procs_correspond`] and
//!    rebased onto the new symbol tables) or *dirty* (new or edited);
//! 3. recomputes IPL summaries only for dirty procedures, fanned over the
//!    same parallel workers as a cold run;
//! 4. invalidates propagated summaries only for call-graph *ancestors* of
//!    dirty procedures (a procedure's propagated summary depends exactly on
//!    its call-graph descendants) and re-runs bottom-up propagation over
//!    that affected set, reusing rebased cached summaries everywhere else;
//! 5. re-extracts `.rgn` rows only for procedures whose summaries or
//!    extraction environment (addresses, file names, type columns) changed.
//!
//! Every reuse is verified, never assumed: a fingerprint collision fails
//! structural verification and degrades to a cache miss; a summary that
//! mentions a symbol the verifier could not re-identify fails its rebase
//! and is recomputed. A cold start (the first `update`, or
//! [`Analysis::analyze`]) runs every step with an all-dirty mask, which is
//! byte-for-byte the non-incremental pipeline.

pub mod store;

pub use store::{CacheStats, SessionStore, VerifyReport};

use crate::driver::{Analysis, AnalysisOptions, Degradation};
use crate::extract::{extract_proc_rows, resolve_formal_addresses, ExtractOptions};
use crate::row::RgnRow;
use frontend::{ParsedSource, SourceFile};
use ipa::callgraph::CallGraph;
use ipa::isolate::{panic_message, summarize_subset_isolated};
use ipa::propagate::propagate_subset;
use ipa::rebase::rebase_summary;
use ipa::{IpaResult, ProcSummary};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// plus its call-graph ancestors), by name.
    pub propagation_recomputed: Vec<String>,
    /// Procedures whose cached summary was verified and reused.
    pub summary_cache_hits: usize,
    /// Procedures summarized from scratch (no verified cache entry).
    pub summary_cache_misses: usize,
    /// Source files that had to be re-parsed.
    pub files_reparsed: usize,
    /// Source files served from the parse cache.
    pub files_cached: usize,
    /// `.rgn` rows carried over verbatim from the previous update.
    pub rows_reused: usize,
    /// `.rgn` rows rebuilt by re-running extraction.
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
    /// Pre-propagation (local) summaries, one per procedure.
    local: Vec<ProcSummary>,
    /// Fingerprint → procedure: the content-addressed cache index.
    by_hash: BTreeMap<u64, ProcId>,
    /// Contained IPL failure per procedure (stage, detail), replayed for
    /// clean procedures so degradation reports stay stable across updates.
    ipl_fail: Vec<Option<(String, String)>>,
    /// Propagation-stage degradations still in force (cached propagated
    /// summaries keep their widened shape until recomputed).
    prop_degr: Vec<Degradation>,
    /// Per-procedure fingerprints, parallel to the program's procedures
    /// (reused for procedures whose file the parse cache served verbatim).
    fps: Vec<u64>,
    /// Each procedure's row slice within `analysis.rows` (rows are emitted
    /// in call-graph pre-order, so every procedure's rows are contiguous).
    proc_rows: Vec<std::ops::Range<usize>>,
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
    /// The propagated summaries are not a function of `local`: a load found
    /// a propagation degradation on record, or its own propagation panicked
    /// or ran out of budget, and installed the local summaries instead. The
    /// next update skips the fast path and re-propagates and re-extracts
    /// every procedure; IPL stays cached.
    stale_propagation: bool,
    /// The source set itself, retained so the state can be persisted (the
    /// on-disk cache stores sources and re-derives the program from them).
    sources: Vec<SourceFile>,
    /// Per procedure, the content address `(fnv1a, len)` of an on-disk
    /// entry container holding exactly this state's entry bytes for it, so
    /// a save can reference that file instead of re-encoding. Set by
    /// `load` for every validated entry and by a successful `persist` for
    /// every entry; `update` carries it only where the entry's inputs were
    /// moved verbatim.
    entry_addr: Vec<Option<(u64, u64)>>,
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

    /// Consumes the session, yielding the last analysis.
    pub fn into_analysis(self) -> Option<Analysis> {
        self.state.map(|s| s.analysis)
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
        let sources: Vec<SourceFile> = sources.into_iter().map(Into::into).collect();
        let mut delta = AnalysisDelta::default();
        let keys: Vec<u64> = sources.iter().map(file_key).collect();
        let _update_span = support::obs::span("session.update");

        // Fast path: the exact source set of the last update (same files,
        // same order, same text) reassembles to a bit-identical program, so
        // the retained state already *is* the answer.
        if let Some(p) = &self.state {
            if keys == p.file_keys && !p.tainted && !p.stale_propagation {
                delta.files_cached = sources.len();
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
            if let Some(old) = self.state.take() {
                if let Some(tx) = &self.graveyard {
                    if let Err(back) = tx.send(old) {
                        self.graveyard = None;
                        drop(back.0);
                    }
                }
            }
            self.file_cache.clear();
        }

        // 1. Parse, reusing cached per-file parses for unchanged text.
        let parse_span = support::obs::span("session.parse");
        let mut next_cache = BTreeMap::new();
        // File name → served-from-cache, ambiguous duplicates demoted.
        let mut hit_names: BTreeMap<&str, bool> = BTreeMap::new();
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
            hit_names
                .entry(s.name.as_str())
                .and_modify(|h| *h = false)
                .or_insert(hit);
            next_cache.insert(key, p);
        }
        // Assembly borrows the cached parses, in source order.
        let parsed = keys.iter().filter_map(|k| next_cache.get(k));
        let (program, diags) =
            match frontend::assemble_to_h_with_recovery(parsed, self.opts.layout_base) {
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
        let mut degradations: Vec<Degradation> =
            diags.iter().map(Degradation::from_frontend).collect();

        let cg = CallGraph::build(&program);
        let n = cg.size();
        // Own the previous state: clean procedures *move* their cached
        // summaries and rows out instead of cloning. Nothing after this
        // point returns early, so a dropped `prev` is always replaced.
        let mut prev = self.state.take();

        // 2. Fingerprint and classify every procedure.
        let classify_span = support::obs::span("session.classify");
        let (global_map, proc_map, old_by_name) = match &prev {
            Some(p) => (
                global_symbol_map(&p.analysis.program, &program),
                old_to_new_procs(&p.analysis.program, &program),
                procs_by_name(&p.analysis.program),
            ),
            None => (SymbolMaps::default(), BTreeMap::new(), BTreeMap::new()),
        };
        // The fingerprint of a procedure from a cache-hit file is unchanged
        // from last update (the fingerprint only reads that file's tree plus
        // symbol data the verifier re-checks anyway), so reuse it. A stale
        // reuse can only cause a spurious hash hit, which structural
        // verification then rejects — correctness never rides on this.
        let fps: Vec<u64> = (0..n)
            .map(|i| {
                let id = ProcId::from_usize(i);
                if let Some(p) = &prev {
                    let proc = program.procedure(id);
                    let fname = program.interner.resolve(proc.file);
                    if hit_names.get(fname).copied().unwrap_or(false) {
                        if let Some(&old_id) =
                            old_by_name.get(program.name_of(proc.name))
                        {
                            let op = p.analysis.program.procedure(old_id);
                            if p.analysis.program.interner.resolve(op.file) == fname {
                                return p.fps[old_id.as_usize()];
                            }
                        }
                    }
                }
                proc_fingerprint(&program, id, self.salt)
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
        let global_identity = identity_maps(&global_map);
        let mut clean: Vec<Option<CleanProc>> = (0..n).map(|_| None).collect();
        let mut locals: Vec<Option<ProcSummary>> = (0..n).map(|_| None).collect();
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
                    // A hash hit is only trusted after full structural
                    // verification, which also yields the rebasing maps.
                    if let Some(mut maps) =
                        procs_correspond(&p.analysis.program, old_id, &program, id)
                    {
                        // Identity maps on an identity program layout: move
                        // the cached summary; rebasing would copy it term by
                        // term only to reproduce it exactly.
                        let identity =
                            procs_identity && global_identity && identity_maps(&maps);
                        let local = if identity {
                            Some(std::mem::take(&mut p.local[old_id.as_usize()]))
                        } else if maps.merge(&global_map) {
                            rebase_summary(&p.local[old_id.as_usize()], &maps, &proc_map)
                        } else {
                            None
                        };
                        if let Some(local) = local {
                            clean[i] = Some(CleanProc { old: old_id, maps, identity });
                            locals[i] = Some(local);
                            delta.summary_cache_hits += 1;
                            if !identity {
                                cache_rebases += 1;
                            }
                            continue;
                        }
                    }
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
        let mut ipl_fail: Vec<Option<(String, String)>> = (0..n).map(|_| None).collect();
        for (id, summary, failure) in
            summarize_subset_isolated(&program, &dirty, self.opts.threads, self.opts.budget)
        {
            let i = id.as_usize();
            locals[i] = Some(summary);
            ipl_fail[i] = failure.map(|f| (f.stage.to_string(), f.detail));
        }
        if let Some(p) = prev.as_ref() {
            // Clean procedures replay their recorded IPL incident (if any):
            // the reused summary is the degraded one, so the report must
            // keep saying so.
            for (i, c) in clean.iter().enumerate() {
                if let Some(c) = c {
                    ipl_fail[i] = p.ipl_fail[c.old.as_usize()].clone();
                }
            }
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
        // propagated summaries are stale re-propagates everything.
        let prop_span = support::obs::span("session.propagate");
        let mut seeds = dirty.clone();
        let mut prop_rebased: Vec<Option<ProcSummary>> = (0..n).map(|_| None).collect();
        let mut affected = if prev.as_ref().is_some_and(|p| p.stale_propagation) {
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

        // Affected slots start from local summaries; everything else holds
        // its full (rebased) propagated summary, exactly the
        // `propagate_subset` contract. With an all-true mask this is the
        // cold pipeline.
        let mut summaries: Vec<ProcSummary> = Vec::with_capacity(n);
        for i in 0..n {
            if affected[i] {
                summaries.push(locals[i].clone());
            } else {
                match prop_rebased[i].take() {
                    Some(s) => summaries.push(s),
                    // Unreachable by construction (the loop above only exits
                    // once every unaffected slot is rebased); a local
                    // summary is still a sound stand-in.
                    None => summaries.push(locals[i].clone()),
                }
            }
        }
        let (ipa, raised) =
            propagate_contained(&program, &cg, summaries, &affected, &locals, self.opts.budget);
        let mut prop_degr: Vec<Degradation> = match (prev.as_ref(), affected.iter().all(|&a| a))
        {
            // Partial recompute: degradations attached to still-cached
            // propagated summaries remain in force.
            (Some(p), false) => p.prop_degr.clone(),
            // Full recompute (or cold start): this run is authoritative.
            _ => Vec::new(),
        };
        if let Some(d) = raised {
            push_unique(&mut prop_degr, d);
        }
        degradations.extend(prop_degr.iter().cloned());
        drop(prop_span);

        let extract_span = support::obs::span("session.extract");
        // 5. Row extraction, per procedure: reuse rows verbatim when the
        // summary was reused *and* the extraction environment (addresses,
        // object files, type columns) hashed identically to last update's.
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
        let order = cg.pre_order();
        let mut rows: Vec<RgnRow> = Vec::new();
        let mut proc_rows: Vec<std::ops::Range<usize>> = vec![0..0; n];
        let mut extract_fail: Vec<Option<String>> = (0..n).map(|_| None).collect();
        let mut reused_procs = vec![false; n];
        for &pid in &order {
            let i = pid.as_usize();
            let start = rows.len();
            let reused = match (&clean[i], prev.as_ref()) {
                (Some(c), Some(p)) if env_matches && !affected[i] => {
                    let old = c.old.as_usize();
                    rows.extend_from_slice(&p.analysis.rows[p.proc_rows[old].clone()]);
                    extract_fail[i] = p.extract_fail[old].clone();
                    true
                }
                _ => false,
            };
            if reused {
                reused_procs[i] = true;
                delta.rows_reused += rows.len() - start;
            } else {
                let _span =
                    support::obs::span_arg("extract.rows", || raw_name(&program, pid));
                match catch_unwind(AssertUnwindSafe(|| {
                    extract_proc_rows(&program, pid, &ipa.summaries[i], exopts, &formal_addr)
                })) {
                    Ok(r) => {
                        delta.rows_recomputed += r.len();
                        rows.extend(r);
                    }
                    Err(payload) => {
                        extract_fail[i] = Some(panic_message(payload.as_ref()))
                    }
                }
            }
            proc_rows[i] = start..rows.len();
        }
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
        // 6. Diff the row table against the previous update and commit. The
        // diff key starts with the procedure name and reused spans are
        // verbatim copies, so those procedures contribute nothing — diff
        // only the spans of procedures that were actually re-extracted (and
        // of old procedures with no reused counterpart).
        match prev.as_ref() {
            Some(p) => {
                let consumed: std::collections::BTreeSet<usize> = (0..n)
                    .filter(|&i| reused_procs[i])
                    .filter_map(|i| clean[i].as_ref().map(|c| c.old.as_usize()))
                    .collect();
                let old_sub: Vec<&RgnRow> = (0..p.proc_rows.len())
                    .filter(|i| !consumed.contains(i))
                    .flat_map(|i| p.analysis.rows[p.proc_rows[i].clone()].iter())
                    .collect();
                let new_sub: Vec<&RgnRow> = (0..n)
                    .filter(|&i| !reused_procs[i])
                    .flat_map(|i| rows[proc_rows[i].clone()].iter())
                    .collect();
                diff_rows(&old_sub, &new_sub, &mut delta);
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
        record_update_obs(&delta, cache_rejects, cache_rebases, n as u64, rows.len() as u64);
        let by_hash = fps
            .iter()
            .enumerate()
            .map(|(i, &fp)| (fp, ProcId::from_usize(i)))
            .collect();
        // An entry address survives only where every input of the entry was
        // moved verbatim: the local summary (identity clean), the rows
        // (reused) and both failure records (replayed with them).
        let entry_addr = (0..n)
            .map(|i| match (&clean[i], prev.as_ref()) {
                (Some(c), Some(p)) if c.identity && reused_procs[i] => {
                    p.entry_addr[c.old.as_usize()]
                }
                _ => None,
            })
            .collect();
        self.state = Some(SessionState {
            analysis: Analysis { program, callgraph: cg, ipa, rows, degradations },
            local: locals,
            by_hash,
            fps,
            ipl_fail,
            prop_degr,
            proc_rows,
            extract_fail,
            extract_env,
            file_keys: keys,
            sources,
            tainted,
            stale_propagation: false,
            entry_addr,
        });
        // Ship the displaced state to the dropper thread; if that fails
        // (thread gone, or it never spawned) just drop inline.
        if let Some(p) = prev.take() {
            if let Some(tx) = &self.graveyard {
                if let Err(back) = tx.send(p) {
                    self.graveyard = None;
                    drop(back.0);
                }
            }
        }
        Ok(delta)
    }
}

/// Publishes one update's delta to the observability layer. The cache
/// counters obey the tested invariant
/// `cache.hits + cache.recomputes == session.procedures` (rejects are a
/// subset of recomputes: a hash hit whose verification or rebase failed).
fn record_update_obs(delta: &AnalysisDelta, rejects: u64, rebases: u64, procs: u64, rows: u64) {
    use support::obs::{self, Counter, Gauge};
    obs::add(Counter::CacheHits, delta.summary_cache_hits as u64);
    obs::add(Counter::CacheRecomputes, delta.summary_cache_misses as u64);
    obs::add(Counter::CacheRejects, rejects);
    obs::add(Counter::CacheRebases, rebases);
    obs::add(Counter::FilesReparsed, delta.files_reparsed as u64);
    obs::add(Counter::FilesCached, delta.files_cached as u64);
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
    let mut map = BTreeMap::new();
    for (old_id, proc) in old.procedures.iter_enumerated() {
        if let Some(new_id) = new.find_procedure(old.name_of(proc.name)) {
            map.insert(old_id, new_id);
        }
    }
    map
}

/// Procedure name → `ProcId` for every procedure of `p`.
fn procs_by_name(p: &Program) -> BTreeMap<String, ProcId> {
    p.procedures
        .iter_enumerated()
        .map(|(id, proc)| (p.name_of(proc.name).to_string(), id))
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

fn push_unique(list: &mut Vec<Degradation>, d: Degradation) {
    if !list.contains(&d) {
        list.push(d);
    }
}

/// One contained propagation run, shared by `update` and `load`:
/// [`propagate_subset`] over `summaries` (local summaries in `affected`
/// slots, full propagated ones elsewhere) under a fresh step budget, with
/// a panic caught. Returns the result and the degradation the run raised:
/// its budget ran out (the result holds widened summaries), or it panicked
/// (the result holds [`fallback_ipa`] of `locals`).
fn propagate_contained(
    program: &Program,
    cg: &CallGraph,
    summaries: Vec<ProcSummary>,
    affected: &[bool],
    locals: &[ProcSummary],
    budget: BudgetConfig,
) -> (IpaResult, Option<Degradation>) {
    let scope = budget::enter(budget);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut s = summaries;
        let cut = propagate_subset(program, cg, &mut s, affected);
        (s, cut)
    }));
    let exhausted = budget::exhaustion();
    drop(scope);
    match outcome {
        Ok((summaries, recursion_cut)) => {
            let raised = exhausted.map(|label| Degradation {
                proc: "(propagation)".to_string(),
                stage: "budget".to_string(),
                detail: format!("{label} budget exhausted; some propagated regions widened"),
            });
            let index_facts = ipa::validated_index_facts(&summaries);
            (IpaResult { summaries, recursion_cut, index_facts }, raised)
        }
        Err(payload) => {
            let raised = Degradation {
                proc: "(propagation)".to_string(),
                stage: "ipa".to_string(),
                detail: panic_message(payload.as_ref()),
            };
            (fallback_ipa(cg, locals), Some(raised))
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
/// cover every input of [`extract_proc_rows`]. A layout-shifting edit
/// changes this hash and disables row reuse for that one update —
/// conservative, never unsound.
fn extract_env_hash(program: &Program, formal_addr: &BTreeMap<whirl::StIdx, u64>) -> u64 {
    let mut h = StableHasher::new();
    for (_, proc) in program.procedures.iter_enumerated() {
        h.write_str(&ipa::callgraph::display_name(program, proc));
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
        for b in program.types.dim_bounds(ty) {
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
    fn row_diff_counts_adds_removes_changes() {
        let mut s = AnalysisSession::new(AnalysisOptions::default());
        s.update(&files(LEAF_F)).unwrap();
        let d = s.update(&files(LEAF_F_EDITED)).unwrap();
        // The leaf edit shrinks its DEF region: same row identity, new
        // bounds — a change, not an add/remove pair.
        assert!(d.rows_changed > 0, "{d:?}");
    }
}
