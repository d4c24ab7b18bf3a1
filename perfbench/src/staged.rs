//! The traced replay: the pipeline re-run stage by stage through each
//! crate's public entry points, one span per layer, so the layers'
//! medians can be set against the end-to-end ops they make up.

use araa::{extract_rows, Analysis, AnalysisOptions, ExtractOptions};
use frontend::{ParsedSource, SourceFile};
use ipa::{CallGraph, IpaResult, ProcSummary};
use perfbench::trace::Tracer;
use regions::access::Precision;
use support::idx::Idx;
use whirl::{ProcId, Program};
use workloads::GenSource;

fn salt(opts: &AnalysisOptions) -> u64 {
    whirl::hash::budget_salt(&opts.budget)
}

fn files(sources: &[GenSource]) -> Vec<SourceFile> {
    sources.iter().map(Into::into).collect()
}

fn assemble(parsed: Vec<ParsedSource>) -> Result<Program, String> {
    let (program, diags) = frontend::assemble_with_recovery(parsed).map_err(|e| e.to_string())?;
    match diags.first() {
        Some(d) => Err(format!("frontend degraded: {d}")),
        None => Ok(program),
    }
}

/// What a cold replay leaves behind for the IPL breakdown and checks.
pub struct Cold {
    pub analysis: Analysis,
    pub locals: Vec<ProcSummary>,
    pub docs: [String; 3],
}

/// One-shot cold pipeline, staged (root span `staged.cold`).
pub fn cold(tr: &mut Tracer, sources: &[GenSource], opts: AnalysisOptions) -> Result<Cold, String> {
    let root = tr.enter("staged.cold");
    let files = files(sources);
    let parsed = tr.time("frontend.parse", || {
        files
            .iter()
            .map(frontend::parse_source_with_recovery)
            .collect::<Vec<_>>()
    });
    let program = tr.time("frontend.assemble", || assemble(parsed));
    let mut program = program?;
    tr.time("whirl.lower", || {
        whirl::lower::lower_program(&mut program);
        program.assign_layout(opts.layout_base);
    });
    let salt = salt(&opts);
    tr.time("whirl.fingerprint", || {
        program
            .procedures
            .indices()
            .map(|id| whirl::hash::proc_fingerprint(&program, id, salt))
            .collect::<Vec<_>>()
    });
    let cg = tr.time("ipa.callgraph", || CallGraph::build(&program));
    let ipl = tr.time("ipa.ipl", || {
        ipa::isolate::summarize_all_isolated(&program, opts.budget)
    });
    if let Some(f) = ipl.failures.first() {
        tr.exit(root);
        return Err(format!("IPL degraded: {f:?}"));
    }
    let locals = ipl.summaries;
    // The clone is part of the layer: the session clones local summaries
    // into the propagation slots the same way.
    let ipa = tr.time("ipa.propagate", || {
        ipa::propagate::propagate(&program, &cg, locals.clone())
    });
    let exopts = ExtractOptions {
        include_propagated: opts.include_propagated,
    };
    let rows = tr.time("araa.extract", || extract_rows(&program, &cg, &ipa, exopts));
    let analysis = Analysis {
        program,
        callgraph: cg,
        ipa,
        rows,
        degradations: Vec::new(),
    };
    let docs = tr.time("araa.emit", || {
        [
            analysis.rgn_document(),
            analysis.dgn_document(),
            analysis.cfg_document(),
        ]
    });
    tr.exit(root);
    Ok(Cold {
        analysis,
        locals,
        docs,
    })
}

/// Re-runs the two sub-layers of IPL that the interval fallback adds
/// (root span `staged.ipl_parts`), on exactly the procedures IPL ran them
/// for: index-fact derivation where a procedure produced facts or still
/// consumes them, the interval fixpoint where it consumes them. A
/// consumer is a procedure with an interval or unbounded record, since
/// only records FM left unbounded reach the fallback. These spans
/// re-measure work `ipa.ipl` already contains, so they are kept out of
/// the cold op's staged sum.
pub fn ipl_parts(tr: &mut Tracer, program: &Program, locals: &[ProcSummary]) -> usize {
    let consumers: Vec<ProcId> = (0..locals.len())
        .filter(|&i| {
            locals[i]
                .accesses
                .iter()
                .any(|r| r.precision >= Precision::Interval)
        })
        .map(ProcId::from_usize)
        .collect();
    let derivers: Vec<ProcId> = (0..locals.len())
        .filter(|&i| !locals[i].index_facts.is_empty())
        .map(ProcId::from_usize)
        .chain(consumers.iter().copied())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let root = tr.enter("staged.ipl_parts");
    let facts = tr.time("ipa.index_facts", || {
        derivers
            .iter()
            .map(|&id| (id, ipa::index_facts::derive(program, id)))
            .collect::<std::collections::BTreeMap<_, _>>()
    });
    let empty = Default::default();
    tr.time("ipa.interval", || {
        for &id in &consumers {
            std::hint::black_box(ipa::interval_ai::analyze_proc(
                program,
                id,
                facts.get(&id).unwrap_or(&empty),
            ));
        }
    });
    tr.exit(root);
    consumers.len()
}

/// The incremental state the edit replay carries from edit to edit.
pub struct EditState {
    opts: AnalysisOptions,
    parsed: Vec<ParsedSource>,
    program: Program,
    fps: Vec<u64>,
    locals: Vec<ProcSummary>,
    ipa: IpaResult,
    cg: CallGraph,
}

impl EditState {
    /// Builds the state for `sources` (untimed).
    pub fn new(sources: &[GenSource], opts: AnalysisOptions) -> Result<EditState, String> {
        let parsed: Vec<ParsedSource> = files(sources)
            .iter()
            .map(frontend::parse_source_with_recovery)
            .collect();
        let mut program = assemble(parsed.clone())?;
        whirl::lower::lower_program(&mut program);
        program.assign_layout(opts.layout_base);
        let salt = salt(&opts);
        let fps = program
            .procedures
            .indices()
            .map(|id| whirl::hash::proc_fingerprint(&program, id, salt))
            .collect();
        let cg = CallGraph::build(&program);
        let locals = ipa::isolate::summarize_all_isolated(&program, opts.budget).summaries;
        let ipa = ipa::propagate::propagate(&program, &cg, locals.clone());
        Ok(EditState {
            opts,
            parsed,
            program,
            fps,
            locals,
            ipa,
            cg,
        })
    }

    /// Replays one edit of file `dirty_file` (root span `staged.edit`):
    /// re-parse that file, assemble and lower the whole program,
    /// fingerprint the edited file's procedures (the session reuses the
    /// others' fingerprints), re-summarize the procedures whose
    /// fingerprint moved, and propagate over their ancestor closure.
    /// Returns the number of procedures propagation recomputed.
    pub fn edit(
        &mut self,
        tr: &mut Tracer,
        sources: &[GenSource],
        dirty_file: usize,
    ) -> Result<usize, String> {
        let root = tr.enter("staged.edit");
        let file = SourceFile::from(&sources[dirty_file]);
        let parsed = tr.time("frontend.parse", || {
            self.parsed[dirty_file] = frontend::parse_source_with_recovery(&file);
            self.parsed.clone()
        });
        let program = tr.time("frontend.assemble", || assemble(parsed));
        let mut program = match program {
            Ok(p) => p,
            Err(e) => {
                tr.exit(root);
                return Err(e);
            }
        };
        let opts = self.opts;
        tr.time("whirl.lower", || {
            whirl::lower::lower_program(&mut program);
            program.assign_layout(opts.layout_base);
        });
        if program.procedure_count() != self.fps.len() {
            tr.exit(root);
            return Err("an edit changed the procedure count".to_string());
        }
        let salt = salt(&opts);
        let fname = file.name.as_str();
        let dirty = tr.time("whirl.fingerprint", || {
            let mut dirty = Vec::new();
            for id in program.procedures.indices() {
                let proc = program.procedure(id);
                if program.interner.resolve(proc.file) != fname {
                    continue;
                }
                let fp = whirl::hash::proc_fingerprint(&program, id, salt);
                if fp != self.fps[id.as_usize()] {
                    self.fps[id.as_usize()] = fp;
                    dirty.push(id);
                }
            }
            dirty
        });
        let cg = tr.time("ipa.callgraph", || CallGraph::build(&program));
        let fresh = tr.time("ipa.ipl_edit", || {
            ipa::isolate::summarize_subset_isolated(&program, &dirty, 1, opts.budget)
        });
        for (id, summary, failure) in fresh {
            if let Some(f) = failure {
                tr.exit(root);
                return Err(format!("IPL degraded: {f:?}"));
            }
            self.locals[id.as_usize()] = summary;
        }
        let recomputed = tr.time("ipa.propagate_edit", || {
            let affected = cg.ancestor_closure(dirty.iter().copied());
            let mut summaries: Vec<ProcSummary> = (0..affected.len())
                .map(|i| {
                    if affected[i] {
                        self.locals[i].clone()
                    } else {
                        std::mem::take(&mut self.ipa.summaries[i])
                    }
                })
                .collect();
            let recursion_cut =
                ipa::propagate::propagate_subset(&program, &cg, &mut summaries, &affected);
            let index_facts = ipa::validated_index_facts(&summaries);
            self.ipa = IpaResult {
                summaries,
                recursion_cut,
                index_facts,
            };
            affected.iter().filter(|&&a| a).count()
        });
        self.program = program;
        self.cg = cg;
        tr.exit(root);
        Ok(recomputed)
    }

    /// The `.rgn` rows the replayed state extracts to (untimed; checked
    /// against the session's rows).
    pub fn rows(&self) -> Vec<araa::RgnRow> {
        let exopts = ExtractOptions {
            include_propagated: self.opts.include_propagated,
        };
        extract_rows(&self.program, &self.cg, &self.ipa, exopts)
    }
}
