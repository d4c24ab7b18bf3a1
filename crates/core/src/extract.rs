//! Algorithm 1: array-analysis extraction.
//!
//! "We first traverse the call graph cg (pre-order) in which each node
//! (ipan) consists of: procedure which the node represents, symbol table
//! index information and file header information from which the array
//! regions information can be obtained per each source file based on the
//! access mode. ... We iterate each region to extract the bounds information
//! represented by [LB, UB, Stride]. Then, we iterate the WHIRL tree ... We
//! check whether the operator of the wn is an OPR_ARRAY."
//!
//! This module turns an [`ipa::IpaResult`] into the `.rgn` rows the Dragon
//! tool consumes, converting the compiler-level regions (row-major,
//! zero-based) back into source-language bounds — the adjustment the paper
//! performs "to make our tool aware of the application's source code
//! language, and to fulfill our goal of showing the actual bounds".

use crate::row::RgnRow;
use ipa::callgraph::display_name;
use ipa::{AccessRecord, CallGraph, IpaResult};
use regions::access::AccessMode;
use regions::space::Space;
use regions::triplet::{Bound, Triplet};
use std::collections::BTreeMap;
use support::idx::Idx;
use whirl::lower::source_dim;
use whirl::{ProcId, Program, StClass, StIdx};

/// Extraction options.
#[derive(Debug, Clone, Copy)]
pub struct ExtractOptions {
    /// Include interprocedurally-propagated rows (`from_call` records).
    pub include_propagated: bool,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions { include_propagated: true }
    }
}

/// Runs Algorithm 1 over an analyzed program, producing one row per region
/// per access mode, in call-graph pre-order.
pub fn extract_rows(
    program: &Program,
    cg: &CallGraph,
    ipa: &IpaResult,
    opts: ExtractOptions,
) -> Vec<RgnRow> {
    let formal_addr = resolve_formal_addresses(program, cg);
    let mut rows = Vec::new();
    for proc_id in cg.pre_order() {
        let summary = ipa.summary(proc_id);
        let all = 0..summary.accesses.len();
        let all = std::slice::from_ref(&all);
        rows.extend(extract_range_rows(program, proc_id, summary, all, opts, &formal_addr));
    }
    rows
}

/// Builds the rows of the records in `ranges` (in order) of one
/// procedure's summary. A row's references and line-span columns total
/// its group — (array, mode, `from_call`, locality) — over the records in
/// `ranges` only, so `ranges` must hold every record of each group it
/// touches: all of a procedure's records, or all re-translated call sites
/// of a spliced caller, whose callee's sites are re-translated together.
pub(crate) fn extract_range_rows(
    program: &Program,
    proc_id: ProcId,
    summary: &ipa::ProcSummary,
    ranges: &[std::ops::Range<usize>],
    opts: ExtractOptions,
    formal_addr: &BTreeMap<StIdx, u64>,
) -> Vec<RgnRow> {
    support::faultpoint::hit("extract::rows");
    let records = || ranges.iter().flat_map(|r| &summary.accesses[r.clone()]);
    type Group = (StIdx, AccessMode, Option<ProcId>, bool);
    // References column: total per (array, mode, via, locality) within
    // this scope — remote (coindexed) accesses count separately from
    // local ones so the PGAS view stays meaningful.
    let mut ref_totals: BTreeMap<Group, u64> = BTreeMap::new();
    // Line range per group: the span of source lines the references cover,
    // so each row can anchor tools (lint, browse) to first and last sighting.
    let mut line_spans: BTreeMap<Group, (u32, u32)> = BTreeMap::new();
    for rec in records() {
        let key = (rec.array, rec.mode, rec.from_call, rec.remote);
        *ref_totals.entry(key).or_insert(0) += 1;
        line_spans
            .entry(key)
            .and_modify(|(lo, hi)| {
                *lo = (*lo).min(rec.line);
                *hi = (*hi).max(rec.line);
            })
            .or_insert((rec.line, rec.line));
    }
    let mut rows = Vec::new();
    for rec in records() {
        if rec.from_call.is_some() && !opts.include_propagated {
            continue;
        }
        let key = (rec.array, rec.mode, rec.from_call, rec.remote);
        let refs = ref_totals[&key];
        let span = line_spans[&key];
        rows.push(build_row(program, proc_id, rec, refs, span, formal_addr));
    }
    rows
}

/// Maps each formal array symbol to a display address: when every call site
/// binds the same actual array, the formal shows the actual's address (the
/// paper's Fig. 12 shows `xcr`'s rows in `verify` carrying the caller
/// array's address `b79edfa0`). Ambiguous or unbound formals show 0.
pub(crate) fn resolve_formal_addresses(
    program: &Program,
    cg: &CallGraph,
) -> BTreeMap<StIdx, u64> {
    let mut bindings: BTreeMap<StIdx, Option<u64>> = BTreeMap::new();
    for caller in (0..cg.size()).map(ProcId::from_usize) {
        for site in cg.calls(caller) {
            let callee = program.procedure(site.callee);
            for (pos, &formal) in callee.formals.iter().enumerate() {
                let Some(actual) = site.array_actuals.get(pos).copied().flatten() else {
                    continue;
                };
                let mut addr = program.symbols.get(actual).address;
                if addr == 0 {
                    // The actual is itself a formal: follow one level.
                    addr = *bindings
                        .get(&actual)
                        .and_then(|o| o.as_ref())
                        .unwrap_or(&0);
                }
                match bindings.get(&formal) {
                    None => {
                        bindings.insert(formal, Some(addr));
                    }
                    Some(Some(prev)) if *prev != addr => {
                        bindings.insert(formal, None); // ambiguous
                    }
                    _ => {}
                }
            }
        }
    }
    bindings
        .into_iter()
        .filter_map(|(st, a)| a.map(|a| (st, a)))
        .collect()
}

fn build_row(
    program: &Program,
    proc_id: ProcId,
    rec: &AccessRecord,
    refs: u64,
    (first_line, last_line): (u32, u32),
    formal_addr: &BTreeMap<StIdx, u64>,
) -> RgnRow {
    let proc = program.procedure(proc_id);
    let entry = program.symbols.get(rec.array);
    let ty = entry.ty;
    let array = program.name_of(entry.name).to_string();
    let lang = proc.lang;

    // File column: local rows name this procedure's object file; propagated
    // rows name the callee's (that is where the access physically is).
    let file = match rec.from_call {
        Some(callee) => program.procedure(callee).object_file(&program.interner),
        None => proc.object_file(&program.interner),
    };

    let declared = program.types.dim_bounds(ty);
    let n = rec.region.ndims();
    // Map H-order (row-major, zero-based) triplets back to source order and
    // source bounds.
    let mut lb_parts = vec![String::new(); n];
    let mut ub_parts = vec![String::new(); n];
    let mut stride_parts = vec![String::new(); n];
    for (hd, trip) in rec.region.dims.iter().enumerate() {
        let sd = source_dim(lang, n, hd);
        let shift = declared.get(sd).map(|b| b.lower_in(lang)).unwrap_or(0);
        let (lb, ub, stride) = shift_triplet(trip, shift);
        lb_parts[sd] = render_bound(&lb, &rec.space, program);
        ub_parts[sd] = render_bound(&ub, &rec.space, program);
        stride_parts[sd] = render_bound(&stride, &rec.space, program);
    }

    let size_bytes = program.types.size_bytes(ty);
    let mem_loc = if entry.class == StClass::Formal {
        formal_addr.get(&rec.array).copied().unwrap_or(0)
    } else {
        entry.address
    };

    RgnRow {
        proc: display_name(program, proc).to_string(),
        array,
        file,
        mode: rec.mode,
        refs,
        dims: n as u8,
        lb: lb_parts.join("|"),
        ub: ub_parts.join("|"),
        stride: stride_parts.join("|"),
        elem_size: program.types.element_size(ty),
        data_type: program.types.elem_type(ty).display_name().to_string(),
        dim_size: program
            .types
            .dim_sizes(ty)
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join("|"),
        tot_size: program.types.total_elements(ty),
        size_bytes,
        mem_loc: format!("{mem_loc:x}"),
        acc_density: RgnRow::density(refs, size_bytes),
        via: rec
            .from_call
            .map(|c| program.name_of(program.procedure(c).name).to_string()),
        line: rec.line,
        first_line,
        last_line,
        is_global: entry.class == StClass::Global,
        remote: rec.remote,
        precision: rec.precision,
    }
}

/// Adds the declared lower bound back onto a zero-based triplet.
fn shift_triplet(t: &Triplet, shift: i64) -> (Bound, Bound, Bound) {
    let shift_bound = |b: &Bound| match b {
        Bound::Const(c) => Bound::Const(c + shift),
        Bound::Expr(e) => {
            let mut e = e.clone();
            e.add_constant(shift);
            match e.as_constant() {
                Some(c) => Bound::Const(c),
                None => Bound::Expr(e),
            }
        }
        other => other.clone(),
    };
    (shift_bound(&t.lb), shift_bound(&t.ub), t.stride.clone())
}

fn render_bound(b: &Bound, space: &Space, program: &Program) -> String {
    match b {
        Bound::Const(c) => c.to_string(),
        Bound::Expr(e) => e.render(&|v| space.name(v, &program.interner)),
        Bound::Messy => "MESSY".to_string(),
        Bound::Unprojected => "UNPROJECTED".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    use whirl::Lang;

    fn analyze_c(src: &str) -> (Program, Vec<RgnRow>) {
        let p = compile_to_h(&[SourceFile::new("matrix.c", src, Lang::C)], DEFAULT_LAYOUT_BASE)
            .unwrap();
        let (cg, r) = ipa::analyze(&p);
        let rows = extract_rows(&p, &cg, &r, ExtractOptions::default());
        (p, rows)
    }

    fn analyze_f(name: &str, src: &str) -> (Program, Vec<RgnRow>) {
        let p = compile_to_h(&[SourceFile::new(name, src, Lang::Fortran)], DEFAULT_LAYOUT_BASE)
            .unwrap();
        let (cg, r) = ipa::analyze(&p);
        let rows = extract_rows(&p, &cg, &r, ExtractOptions::default());
        (p, rows)
    }

    #[test]
    fn fig9_rows_regenerated() {
        let matrix = workloads::fig10::source();
        let (_p, rows) = analyze_c(&matrix.text);
        let aarr: Vec<&RgnRow> = rows.iter().filter(|r| r.array == "aarr").collect();
        // 2 DEF rows + 3 USE rows.
        assert_eq!(aarr.len(), 5, "{aarr:#?}");
        let fmt = |r: &RgnRow| {
            format!(
                "{} {} {}:{}:{} e{} {} d{} t{} b{} ad{}",
                r.mode, r.refs, r.lb, r.ub, r.stride, r.elem_size, r.data_type,
                r.dim_size, r.tot_size, r.size_bytes, r.acc_density
            )
        };
        let lines: Vec<String> = aarr.iter().map(|r| fmt(r)).collect();
        // Fig. 9's exact rows.
        assert!(lines.contains(&"DEF 2 0:7:1 e4 int d20 t20 b80 ad2".to_string()), "{lines:#?}");
        assert!(lines.contains(&"DEF 2 1:8:1 e4 int d20 t20 b80 ad2".to_string()), "{lines:#?}");
        assert!(lines.contains(&"USE 3 2:6:2 e4 int d20 t20 b80 ad3".to_string()), "{lines:#?}");
        assert_eq!(
            lines.iter().filter(|l| *l == "USE 3 0:7:1 e4 int d20 t20 b80 ad3").count(),
            2,
            "{lines:#?}"
        );
        // File and memory location columns.
        assert!(aarr.iter().all(|r| r.file == "matrix.o"));
        assert!(aarr.iter().all(|r| r.mem_loc == format!("{DEFAULT_LAYOUT_BASE:x}")));
        assert!(aarr.iter().all(|r| r.is_global));
    }

    #[test]
    fn fortran_bounds_shown_in_source_terms() {
        let (_p, rows) = analyze_f(
            "s.f",
            "\
subroutine s
  double precision a(4, 9)
  common /c/ a
  integer i, j
  do i = 1, 4
    do j = 2, 8
      a(i, j) = 0.0
    end do
  end do
end
",
        );
        let def = rows
            .iter()
            .find(|r| r.array == "a" && r.mode == AccessMode::Def)
            .unwrap();
        // Source order (i-dim first), source bounds (1-based).
        assert_eq!(def.lb, "1|2");
        assert_eq!(def.ub, "4|8");
        assert_eq!(def.stride, "1|1");
        assert_eq!(def.dim_size, "4|9");
        assert_eq!(def.dims, 2);
    }

    #[test]
    fn fig1_propagated_rows_show_source_bounds_and_via() {
        let fig1 = workloads::fig1::source();
        let (_p, rows) = analyze_f(&fig1.name, &fig1.text);
        let add_rows: Vec<&RgnRow> =
            rows.iter().filter(|r| r.proc == "add" && r.via.is_some()).collect();
        assert_eq!(add_rows.len(), 2);
        let idef = add_rows.iter().find(|r| r.mode == AccessMode::Def).unwrap();
        assert_eq!(idef.display_mode(), "IDEF");
        assert_eq!((idef.lb.as_str(), idef.ub.as_str()), ("1|1", "100|100"));
        assert_eq!(idef.via.as_deref(), Some("p1"));
        assert_eq!(idef.file, "fig1.o", "propagated row names the callee's file");
        let iuse = add_rows.iter().find(|r| r.mode == AccessMode::Use).unwrap();
        assert_eq!((iuse.lb.as_str(), iuse.ub.as_str()), ("101|101", "200|200"));
    }

    #[test]
    fn formal_rows_resolve_unique_actual_address() {
        let (p, rows) = analyze_f(
            "v.f",
            "\
program main
  double precision xcr(5)
  call verify(xcr)
end
subroutine verify(xcr)
  double precision xcr(5)
  double precision t
  integer m
  do m = 1, 5
    t = xcr(m)
  end do
end
",
        );
        let formal = rows
            .iter()
            .find(|r| r.proc == "verify" && r.mode == AccessMode::Formal)
            .unwrap();
        // The formal displays the actual's (main's local xcr) address.
        let sym = p.interner.get("xcr").unwrap();
        let actual_st = p
            .symbols
            .iter()
            .find(|(_, e)| e.name == sym && e.class == StClass::Local)
            .map(|(i, _)| i)
            .unwrap();
        let expect = format!("{:x}", p.symbols.get(actual_st).address);
        assert_eq!(formal.mem_loc, expect);
        assert_ne!(formal.mem_loc, "0");
        // The USE rows in verify share it.
        let uses: Vec<&RgnRow> = rows
            .iter()
            .filter(|r| r.proc == "verify" && r.mode == AccessMode::Use)
            .collect();
        assert!(!uses.is_empty());
        assert!(uses.iter().all(|r| r.mem_loc == expect));
    }

    #[test]
    fn symbolic_upper_bound_renders_variable_name() {
        let (_p, rows) = analyze_f(
            "s.f",
            "\
subroutine s(n)
  double precision a(100)
  common /c/ a
  integer n, i
  do i = 1, n
    a(i) = 0.0
  end do
end
",
        );
        let def = rows
            .iter()
            .find(|r| r.array == "a" && r.mode == AccessMode::Def)
            .unwrap();
        assert_eq!(def.lb, "1");
        assert_eq!(def.ub, "$n", "zero-based n-1 shifts back to n");
    }

    #[test]
    fn propagation_can_be_disabled() {
        let fig1 = workloads::fig1::source();
        let p = compile_to_h(
            &[SourceFile::new(&fig1.name, &fig1.text, Lang::Fortran)],
            DEFAULT_LAYOUT_BASE,
        )
        .unwrap();
        let (cg, r) = ipa::analyze(&p);
        let rows =
            extract_rows(&p, &cg, &r, ExtractOptions { include_propagated: false });
        assert!(rows.iter().all(|row| row.via.is_none()));
    }

    #[test]
    fn line_span_covers_first_and_last_reference() {
        // aarr USE references sit on three lines (8, 8, 12 in matrix.c);
        // the row's span must run from the first to the last sighting.
        let matrix = workloads::fig10::source();
        let (_p, rows) = analyze_c(&matrix.text);
        let uses: Vec<&RgnRow> = rows
            .iter()
            .filter(|r| r.array == "aarr" && r.mode == AccessMode::Use)
            .collect();
        assert!(!uses.is_empty());
        let span = (uses[0].first_line, uses[0].last_line);
        assert!(span.0 <= span.1);
        assert!(uses.iter().all(|r| (r.first_line, r.last_line) == span));
        // The span is shared per (array, mode): it covers every USE line,
        // so it must extend beyond any single row's own anchor line.
        assert!(uses.iter().all(|r| span.0 <= r.line && r.line <= span.1));
        assert!(span.0 < span.1, "uses span multiple source lines: {span:?}");
        // Single-line groups collapse to a point span.
        let defs: Vec<&RgnRow> = rows
            .iter()
            .filter(|r| r.array == "aarr" && r.mode == AccessMode::Def)
            .collect();
        assert!(defs.iter().all(|r| r.first_line <= r.last_line));
    }

    #[test]
    fn rows_emitted_in_call_graph_pre_order() {
        let (p, rows) = analyze_f(
            "o.f",
            "\
program main
  real a(5)
  common /c/ a
  a(1) = 0.0
  call leaf
end
subroutine leaf
  real a(5)
  common /c/ a
  a(2) = 0.0
end
",
        );
        let _ = p;
        let first_main = rows.iter().position(|r| r.proc == "MAIN__").unwrap();
        let first_leaf = rows.iter().position(|r| r.proc == "leaf").unwrap();
        assert!(first_main < first_leaf);
    }
}
