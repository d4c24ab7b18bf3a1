//! Unit-by-unit assembly: the source file is the reuse granule of the
//! whole front end, as it already is for parsing.
//!
//! An assembled [`Program`]'s tables are laid out as the *global segment*
//! — the merged globals in name order, then one symbol per procedure,
//! stubs included — followed by each unit's entries in source order: its
//! procedures' locals, formals and implicit scalars, one type per symbol,
//! and the names the unit interned first. [`assemble_units`] records where
//! each unit's run starts and ends in a [`UnitTable`], so the next assembly
//! can take a unit from the previous program instead of lowering it again.
//!
//! A unit is reused only when all of these hold:
//! 1. its parse is the very one the previous assembly lowered (the
//!    caller's parse cache served it under the same content key);
//! 2. recovery rewrote its module neither then nor now (no stubbed callee,
//!    no gutted procedure, no dropped duplicate or global);
//! 3. the global segment equals the previous one by value: the merged
//!    globals with their shapes, and the procedure-name list;
//! 4. its numbering starts where it started before: the same first symbol,
//!    type, name and procedure, with the names ahead of it equal to the
//!    previous program's, name for name.
//!
//! Under these its sema outcome, its lowered trees and its table entries
//! are the previous ones exactly, so the assembled program equals a cold
//! assembly. Every other unit goes through sema, AST→VH and VH→H again. A
//! reused unit's entries are copied (a few per unit) and its trees moved
//! out of the previous program, but only once every fallible step has
//! passed: a failed assembly leaves the previous program intact.

use crate::ast::Module;
use crate::lower::{lower_segment, lower_unit, var_type};
use crate::sema::{self, ProgramEnv};
use crate::ParsedSource;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use support::idx::Idx;
use support::Result;
use whirl::{Level, ProcId, Procedure, Program, StIdx, TyIdx, WhirlTree};

/// One source file handed to [`assemble_units`].
#[derive(Debug, Clone, Copy)]
pub struct UnitInput<'a> {
    /// The file's (recovering) parse.
    pub parse: &'a ParsedSource,
    /// The caller's content key of the file; units are matched across
    /// assemblies by it.
    pub key: u64,
    /// The parse is the one the caller kept from an earlier assembly, not
    /// a fresh parse of the same text.
    pub cached: bool,
}

/// Where one unit's entries sit in an assembled program: the positions
/// in the symbol table, the type table, the interner and the procedure
/// list where its runs start and end.
#[derive(Debug, Clone)]
struct LoweredUnit {
    key: u64,
    /// Recovery left the module as parsed.
    as_parsed: bool,
    start: [u32; 4],
    end: [u32; 4],
}

impl LoweredUnit {
    fn run(&self, table: usize) -> Range<usize> {
        self.start[table] as usize..self.end[table] as usize
    }
}

/// Positions of `program`'s symbol table, type table, interner and
/// procedure list: where the next unit's runs start.
fn table_ends(program: &Program) -> [u32; 4] {
    [
        program.symbols.len(),
        program.types.len(),
        program.interner.len(),
        program.procedure_count(),
    ]
    .map(|n| n as u32)
}

/// What the next assembly needs to reuse the units of an assembled
/// program besides the program itself: each unit's place in the
/// program's tables, and the one part of the global segment the tables
/// do not hold.
#[derive(Debug, Default)]
pub struct UnitTable {
    /// Per merged global, in symbol order (the program's first symbols):
    /// it is a coarray.
    coarrays: Vec<bool>,
    /// One per source file, in source order.
    units: Vec<LoweredUnit>,
}

impl UnitTable {
    /// Whether `env`'s merged globals and `modules`' procedure names,
    /// after recovery, are the global segment `old` (the program this
    /// table describes) was lowered against, compared by value.
    fn same_segment(&self, old: &Program, env: &ProgramEnv, modules: &[Cow<'_, Module>]) -> bool {
        self.coarrays.len() == env.globals.len()
            && env.globals.iter().zip(&self.coarrays).enumerate().all(|(i, ((name, info), &co))| {
                let e = old.symbols.get(StIdx::from_usize(i));
                info.coarray == co
                    && old.name_of(e.name) == name
                    && old.types.get(e.ty).kind == var_type(info)
            })
            && proc_names(modules).eq(old.procedures.iter().map(|p| old.name_of(p.name)))
    }
}

/// An assembled program, with the record the next assembly reuses it by.
#[derive(Debug)]
pub struct Assembly {
    /// The program: H-level and laid out after [`assemble_units`].
    pub program: Program,
    /// Parse and recovery diagnostics, as [`crate::assemble_with_recovery`]
    /// reports them.
    pub diags: Vec<support::Error>,
    /// Where each unit sits, for the next assembly.
    pub units: UnitTable,
    /// Per source file: its unit moved over from the previous program.
    pub reused: Vec<bool>,
    /// The global segment and the interner equal the previous program's,
    /// so every global, procedure and name kept its number.
    pub stable: bool,
}

impl Assembly {
    /// Per procedure: it belongs to a reused unit, so it equals the
    /// previous program's procedure with the same `ProcId`.
    pub fn reused_procs(&self) -> Vec<bool> {
        let mut mask = vec![false; self.program.procedure_count()];
        for (u, unit) in self.units.units.iter().enumerate() {
            if self.reused[u] {
                mask[unit.run(PROCS)].fill(true);
            }
        }
        mask
    }
}

/// Assembles `inputs` with the recovery semantics of
/// [`crate::assemble_with_recovery`], lowers to H WHIRL and assigns the
/// static data layout, reusing every unit of `prev` (the previous program
/// and its [`UnitTable`]) that the module docs' rule admits. With no
/// `prev` this is the cold assembly. Reused trees are moved out of the
/// previous program, so the caller drops it afterwards; on `Err` it is
/// untouched.
pub fn assemble_units(
    inputs: &[UnitInput<'_>],
    prev: Option<(&mut Program, &UnitTable)>,
    layout_base: u64,
) -> Result<Assembly> {
    let mut assembly = lower_units(inputs, prev)?;
    whirl::lower::lower_program(&mut assembly.program);
    assembly.program.assign_layout(layout_base);
    Ok(assembly)
}

/// [`assemble_units`] before VH→H lowering and layout: reused procedures
/// are H-level, the others VH-level.
pub(crate) fn lower_units(
    inputs: &[UnitInput<'_>],
    prev: Option<(&mut Program, &UnitTable)>,
) -> Result<Assembly> {
    let mut modules: Vec<Cow<'_, Module>> =
        inputs.iter().map(|u| Cow::Borrowed(&u.parse.module)).collect();
    let mut diags: Vec<support::Error> =
        inputs.iter().flat_map(|u| u.parse.diags.iter().cloned()).collect();
    if modules.iter().all(|m| m.procs.is_empty()) {
        // Nothing survived: degrading further would mean analyzing an empty
        // program, which only hides the failure. Surface the first cause.
        return Err(diags.into_iter().next().unwrap_or_else(|| {
            support::Error::semantic("no procedures found in any source file")
        }));
    }
    let _span = support::obs::span("frontend.assemble");
    crate::stub_undefined_callees(&mut modules, &mut diags);
    let (old, table) = match prev {
        Some((program, table)) => (Some(program), Some(table)),
        None => (None, None),
    };
    // The previous unit each input may reuse: the one lowered from the
    // same cached parse, with no other unit sharing its key.
    let mut by_key: BTreeMap<u64, Option<&LoweredUnit>> = BTreeMap::new();
    for u in table.iter().flat_map(|t| &t.units) {
        by_key.entry(u.key).and_modify(|e| *e = None).or_insert(Some(u));
    }
    let prev_unit: Vec<Option<&LoweredUnit>> = inputs
        .iter()
        .map(|i| if i.cached { by_key.get(&i.key).copied().flatten() } else { None })
        .collect();
    // Recovery may rewrite any module, so a unit's reusability is settled
    // only once its module is final.
    let reusable = |m: &Cow<'_, Module>, u: Option<&LoweredUnit>| {
        matches!(m, Cow::Borrowed(_)) && u.is_some_and(|u| u.as_parsed)
    };

    // Sema, with recovery. A reusable unit under an unchanged global
    // segment passed this very check in the previous assembly, and its
    // outcome depends on nothing else, so only the other units are checked.
    let (mut env, same_segment) = {
        let _sema = support::obs::span("frontend.sema");
        loop {
            // An error comes with the module it belongs to.
            let checked = sema::resolve_globals(&modules).and_then(|mut env| {
                let same = match (old.as_deref(), table) {
                    (Some(old), Some(t)) => t.same_segment(old, &env, &modules),
                    _ => false,
                };
                for (at, (m, &u)) in modules.iter().zip(&prev_unit).enumerate() {
                    if !(same && reusable(m, u)) {
                        sema::check_module(&mut env, m).map_err(|e| (at, e))?;
                    }
                }
                Ok((env, same))
            });
            match checked {
                Ok(done) => break done,
                Err((at, e)) => {
                    if !crate::degrade_offender(&mut modules[at], &e, &mut diags) {
                        return Err(e);
                    }
                }
            }
        }
    };

    let lower_span = support::obs::span("frontend.lower");
    let mut program = Program::new();
    let segment = lower_segment(&mut program, &env, proc_names(&modules));
    // The program's names so far equal the previous program's, name for
    // name: an equal global segment interns the same names in the same
    // order, and so does every reused unit after it.
    let mut names_same = same_segment;
    let mut units = Vec::with_capacity(inputs.len());
    let mut reused = vec![false; inputs.len()];
    for (u, (m, input)) in modules.iter().zip(inputs).enumerate() {
        let start = table_ends(&program);
        let take = match (old.as_deref(), prev_unit[u]) {
            (Some(old), Some(pu)) if names_same && reusable(m, Some(pu)) && pu.start == start => {
                Some((old, pu))
            }
            _ => None,
        };
        if let Some((old, pu)) = take {
            copy_entries(&mut program, old, pu);
            reused[u] = true;
        } else {
            if same_segment && reusable(m, prev_unit[u]) {
                // Its check was skipped above; it cannot fail now.
                sema::check_module(&mut env, m)?;
            }
            lower_unit(&mut program, m, input.parse.lang, &env, &segment)?;
            let minted = start[NAMES] as usize..program.interner.len();
            names_same = names_same
                && old.as_deref().is_some_and(|old| {
                    let new_names = program.interner.strings(minted.clone());
                    minted.end <= old.interner.len() && new_names.eq(old.interner.strings(minted))
                });
        }
        units.push(LoweredUnit {
            key: input.key,
            as_parsed: matches!(m, Cow::Borrowed(_)),
            start,
            end: table_ends(&program),
        });
    }
    drop(lower_span);
    let stable =
        names_same && old.as_deref().is_some_and(|o| o.interner.len() == program.interner.len());

    // Every fallible step is behind us: move the reused trees over.
    if let Some(old) = old {
        let _link = support::obs::span("frontend.link");
        for unit in units.iter().zip(&reused).filter(|(_, &r)| r).map(|(unit, _)| unit) {
            for i in unit.run(PROCS) {
                let id = ProcId::from_usize(i);
                program.procedure_mut(id).tree = std::mem::take(&mut old.procedure_mut(id).tree);
            }
        }
    }
    let table = UnitTable { coarrays: env.globals.values().map(|g| g.coarray).collect(), units };
    Ok(Assembly { program, diags, units: table, reused, stable })
}

/// Appends unit `unit` of `old` to `program`: its symbol and type entries
/// and its names verbatim (they land at the same indices), and its
/// procedures' metadata with empty trees, which the link step fills.
fn copy_entries(program: &mut Program, old: &Program, unit: &LoweredUnit) {
    for name in old.interner.strings(unit.run(NAMES)) {
        program.interner.intern(name);
    }
    for i in unit.run(TYPES) {
        program.types.add(old.types.get(TyIdx::from_usize(i)).kind.clone());
    }
    for i in unit.run(SYMBOLS) {
        let e = old.symbols.get(StIdx::from_usize(i));
        program.symbols.add(e.name, e.ty, e.class);
    }
    for i in unit.run(PROCS) {
        let p = old.procedure(ProcId::from_usize(i));
        program.add_procedure(Procedure {
            formals: p.formals.clone(),
            tree: WhirlTree::new(),
            level: Level::High,
            ..*p
        });
    }
}

/// The tables a unit has a run in, in [`table_ends`] order.
const SYMBOLS: usize = 0;
const TYPES: usize = 1;
const NAMES: usize = 2;
const PROCS: usize = 3;

/// Every procedure name of `modules`, in `ProcId` order.
fn proc_names<'m>(modules: &'m [Cow<'_, Module>]) -> impl Iterator<Item = &'m str> {
    modules.iter().flat_map(|m| m.procs.iter().map(|p| p.name.as_str()))
}
