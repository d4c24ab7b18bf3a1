//! Whole-program container: procedures, shared symbol/type tables.
//!
//! OpenUH's IPA phase works on merged per-unit summaries; we model the merged
//! view directly — one [`SymbolTable`]/[`TypeTable`] for the whole program,
//! one [`WhirlTree`] per procedure, and per-procedure metadata (source file,
//! formals, source language) that the later analysis stages need.

use crate::node::WhirlTree;
use crate::symtab::{StIdx, SymbolTable, TypeTable};
use std::collections::HashMap;
use support::define_idx;
use support::idx::IndexVec;
use support::intern::Symbol;
use support::Interner;

define_idx! {
    /// Index of a procedure within a [`Program`].
    pub struct ProcId;
}

/// Source language of a procedure — drives the array-subscript convention
/// ("OpenUH uses (row major, zero indexing) for all languages. To surpass
/// this obstacle, we modify the bounds ... to make our tool aware of the
/// application's source code language").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lang {
    /// C: row-major, zero-based — WHIRL order is source order.
    C,
    /// Fortran: column-major, declared (usually 1-based) bounds — lowered to
    /// row-major zero-based by reversing dimensions and shifting indices.
    Fortran,
}

/// The WHIRL abstraction level a tree currently sits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Very High: `ARRAY` subscripts still in source order with declared
    /// lower bounds.
    VeryHigh,
    /// High: `ARRAY` rewritten to row-major zero-based — the level "where
    /// the IPA phase operates".
    High,
}

/// One procedure: its tree plus metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Procedure {
    /// Procedure name.
    pub name: Symbol,
    /// Its symbol-table entry.
    pub st: StIdx,
    /// Source file the procedure was parsed from (e.g. `verify.f`).
    pub file: Symbol,
    /// Line of the procedure header.
    pub linenum: u32,
    /// Source language.
    pub lang: Lang,
    /// Formal parameters, in declaration order.
    pub formals: Vec<StIdx>,
    /// The WHIRL tree.
    pub tree: WhirlTree,
    /// Current IR level of `tree`.
    pub level: Level,
}

impl Procedure {
    /// The object-file name the Dragon `File` column shows (`verify.f` →
    /// `verify.o`).
    pub fn object_file(&self, interner: &Interner) -> String {
        format!("{}.o", self.object_stem(interner))
    }

    /// [`Procedure::object_file`] without its `.o`: the source file name
    /// up to its last `.`, borrowed.
    pub fn object_stem<'i>(&self, interner: &'i Interner) -> &'i str {
        let src = interner.resolve(self.file);
        src.rsplit_once('.').map_or(src, |(stem, _ext)| stem)
    }
}

/// A whole program after front-end processing.
#[derive(Debug, Default, PartialEq)]
pub struct Program {
    /// Identifier interner shared by every table.
    pub interner: Interner,
    /// Merged symbol table.
    pub symbols: SymbolTable,
    /// Merged type table.
    pub types: TypeTable,
    /// All procedures.
    pub procedures: IndexVec<ProcId, Procedure>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a procedure, returning its id.
    pub fn add_procedure(&mut self, p: Procedure) -> ProcId {
        self.procedures.push(p)
    }

    /// Finds a procedure by name.
    pub fn find_procedure(&self, name: &str) -> Option<ProcId> {
        let sym = self.interner.get(name)?;
        self.procedures
            .iter_enumerated()
            .find(|(_, p)| p.name == sym)
            .map(|(id, _)| id)
    }

    /// Procedure lookup.
    pub fn procedure(&self, id: ProcId) -> &Procedure {
        &self.procedures[id]
    }

    /// Mutable procedure lookup.
    pub fn procedure_mut(&mut self, id: ProcId) -> &mut Procedure {
        &mut self.procedures[id]
    }

    /// Number of procedures.
    pub fn procedure_count(&self) -> usize {
        self.procedures.len()
    }

    /// Resolves a symbol name.
    pub fn name_of(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Maps a procedure-name symbol to its `ProcId` (for call resolution).
    pub fn proc_by_symbol(&self, name: Symbol) -> Option<ProcId> {
        self.procedures
            .iter_enumerated()
            .find(|(_, p)| p.name == name)
            .map(|(id, _)| id)
    }

    /// Every procedure by its name symbol, built in one pass for callers
    /// that resolve many names; agrees with [`proc_by_symbol`](Self::proc_by_symbol).
    pub fn proc_index(&self) -> HashMap<Symbol, ProcId> {
        let mut index = HashMap::with_capacity(self.procedures.len());
        for (id, p) in self.procedures.iter_enumerated() {
            index.entry(p.name).or_insert(id);
        }
        index
    }

    /// Assigns static memory addresses to every array symbol (the Dragon
    /// `Mem_Loc` column). Returns the first free address.
    pub fn assign_layout(&mut self, base: u64) -> u64 {
        let _span = support::obs::span("whirl.layout");
        self.symbols.assign_layout(&self.types, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symtab::{DataType, StClass};

    fn skeleton_program() -> (Program, ProcId) {
        let mut p = Program::new();
        let name = p.interner.intern("verify");
        let file = p.interner.intern("verify.f");
        let ty = p.types.scalar(DataType::Void);
        let st = p.symbols.add(name, ty, StClass::Proc);
        let id = p.add_procedure(Procedure {
            name,
            st,
            file,
            linenum: 1,
            lang: Lang::Fortran,
            formals: vec![],
            tree: WhirlTree::new(),
            level: Level::VeryHigh,
        });
        (p, id)
    }

    #[test]
    fn find_procedure_by_name() {
        let (p, id) = skeleton_program();
        assert_eq!(p.find_procedure("verify"), Some(id));
        assert_eq!(p.find_procedure("missing"), None);
        assert_eq!(p.procedure_count(), 1);
    }

    #[test]
    fn object_file_name_mapping() {
        let (p, id) = skeleton_program();
        assert_eq!(p.procedure(id).object_file(&p.interner), "verify.o");
    }

    #[test]
    fn object_file_without_extension() {
        let mut p = Program::new();
        let name = p.interner.intern("main");
        let file = p.interner.intern("prog");
        let ty = p.types.scalar(DataType::Void);
        let st = p.symbols.add(name, ty, StClass::Proc);
        let id = p.add_procedure(Procedure {
            name,
            st,
            file,
            linenum: 1,
            lang: Lang::C,
            formals: vec![],
            tree: WhirlTree::new(),
            level: Level::VeryHigh,
        });
        assert_eq!(p.procedure(id).object_file(&p.interner), "prog.o");
    }

    #[test]
    fn proc_by_symbol_round_trip() {
        let (p, id) = skeleton_program();
        let sym = p.procedure(id).name;
        assert_eq!(p.proc_by_symbol(sym), Some(id));
    }
}
