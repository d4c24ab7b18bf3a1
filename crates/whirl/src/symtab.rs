//! WHIRL symbol (ST) and type (TY) tables.
//!
//! "The front-ends generate a WHIRL file that consists of WHIRL instructions
//! and WHIRL symbol tables. We have used the fields ST_IDX and TY_IDX to
//! refer to the symbol tables in order to extract the array information."
//! A [`SymbolTable`] stores every named entity of a compilation unit; a
//! [`TypeTable`] stores scalar and array types, including per-dimension
//! declared bounds, from which element size, dimension sizes, total size and
//! allocated bytes — the columns of the Dragon table — are all derived.

use support::define_idx;
use support::intern::Symbol;

define_idx! {
    /// Index into the symbol table (the paper's `ST_IDX`).
    pub struct StIdx;
}

define_idx! {
    /// Index into the type table (the paper's `TY_IDX`).
    pub struct TyIdx;
}

/// Scalar machine types with their display names and sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 1-byte character.
    Char,
    /// 4-byte signed integer (`int` / Fortran `INTEGER`).
    I4,
    /// 8-byte signed integer (`long` / `INTEGER*8`).
    I8,
    /// 4-byte float (`float` / `REAL`).
    F4,
    /// 8-byte float (`double` / `DOUBLE PRECISION`).
    F8,
    /// No value (procedures).
    Void,
}

impl DataType {
    /// Size of one element in bytes (the Dragon `Element Size` column).
    pub fn size_bytes(self) -> i64 {
        match self {
            DataType::Char => 1,
            DataType::I4 | DataType::F4 => 4,
            DataType::I8 | DataType::F8 => 8,
            DataType::Void => 0,
        }
    }

    /// The Dragon `Data Type` column spelling (C-style, as in Figs. 9/12/14).
    pub fn display_name(self) -> &'static str {
        match self {
            DataType::Char => "char",
            DataType::I4 => "int",
            DataType::I8 => "long",
            DataType::F4 => "float",
            DataType::F8 => "double",
            DataType::Void => "void",
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// One declared dimension: inclusive `lb..=ub`, or a runtime extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimBound {
    /// Compile-time constant bounds (`A(1:200)`, `int a[20]` ⇒ `0:19`).
    Const { lb: i64, ub: i64 },
    /// Extent unknown at compile time (assumed-shape / VLA). The paper:
    /// "For variable length arrays, the size of entire array will be
    /// displayed as zero."
    Runtime,
}

impl DimBound {
    /// Number of elements along this dimension (0 when runtime).
    pub fn extent(self) -> i64 {
        match self {
            DimBound::Const { lb, ub } => (ub - lb + 1).max(0),
            DimBound::Runtime => 0,
        }
    }

    /// The declared lower bound (0 when runtime — the zero-based default).
    pub fn lower(self) -> i64 {
        match self {
            DimBound::Const { lb, .. } => lb,
            DimBound::Runtime => 0,
        }
    }

    /// The declared lower bound with the language's default for runtime
    /// dims: a Fortran assumed-size `x(*)` is still 1-based, a C `double
    /// *x` is 0-based.
    pub fn lower_in(self, lang: crate::Lang) -> i64 {
        match self {
            DimBound::Const { lb, .. } => lb,
            DimBound::Runtime => match lang {
                crate::Lang::Fortran => 1,
                crate::Lang::C => 0,
            },
        }
    }
}

/// The content of a type-table entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TyKind {
    /// A scalar.
    Scalar(DataType),
    /// An array of scalars with per-dimension declared bounds, in *source
    /// order* (dimension 0 = leftmost subscript in the source language).
    Array {
        /// Element type.
        elem: DataType,
        /// Declared bounds per source dimension.
        dims: Vec<DimBound>,
        /// False for F90 non-contiguous (assumed-shape/strided) arrays; the
        /// WHIRL convention surfaces this as a *negative* element size.
        contiguous: bool,
    },
    /// A procedure type (return type only; formals live in the symbol).
    Proc(DataType),
}

/// One type-table entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TyEntry {
    /// The type content.
    pub kind: TyKind,
}

/// The TY table.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TypeTable {
    entries: support::idx::IndexVec<TyIdx, TyEntry>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry.
    pub fn add(&mut self, kind: TyKind) -> TyIdx {
        self.entries.push(TyEntry { kind })
    }

    /// Convenience: add a scalar type.
    pub fn scalar(&mut self, dt: DataType) -> TyIdx {
        self.add(TyKind::Scalar(dt))
    }

    /// Convenience: add a contiguous array type.
    pub fn array(&mut self, elem: DataType, dims: Vec<DimBound>) -> TyIdx {
        self.add(TyKind::Array { elem, dims, contiguous: true })
    }

    /// Looks up an entry.
    pub fn get(&self, idx: TyIdx) -> &TyEntry {
        &self.entries[idx]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The element data type (scalars are their own elements).
    pub fn elem_type(&self, idx: TyIdx) -> DataType {
        match &self.get(idx).kind {
            TyKind::Scalar(dt) => *dt,
            TyKind::Array { elem, .. } => *elem,
            TyKind::Proc(dt) => *dt,
        }
    }

    /// WHIRL element size: positive for contiguous arrays, *negative* for
    /// non-contiguous F90 arrays ("If it is negative, it specifies a
    /// non-contiguous array").
    pub fn element_size(&self, idx: TyIdx) -> i64 {
        match &self.get(idx).kind {
            TyKind::Scalar(dt) => dt.size_bytes(),
            TyKind::Array { elem, contiguous, .. } => {
                let s = elem.size_bytes();
                if *contiguous {
                    s
                } else {
                    -s
                }
            }
            TyKind::Proc(_) => 0,
        }
    }

    /// Number of dimensions (0 for scalars).
    pub fn num_dims(&self, idx: TyIdx) -> u8 {
        match &self.get(idx).kind {
            TyKind::Array { dims, .. } => dims.len() as u8,
            _ => 0,
        }
    }

    /// The per-dimension extents in source order — the Dragon `Dim_Size`
    /// column (`64|65|65|5` for the LU `u` array).
    pub fn dim_sizes(&self, idx: TyIdx) -> Vec<i64> {
        match &self.get(idx).kind {
            TyKind::Array { dims, .. } => dims.iter().map(|d| d.extent()).collect(),
            _ => Vec::new(),
        }
    }

    /// Declared bounds in source order (none for a scalar), borrowed.
    pub fn dim_bounds(&self, idx: TyIdx) -> &[DimBound] {
        match &self.get(idx).kind {
            TyKind::Array { dims, .. } => dims,
            _ => &[],
        }
    }

    /// Total element count — the Dragon `Tot_Size` column. Zero when any
    /// dimension is runtime-sized (the paper's VLA rule).
    pub fn total_elements(&self, idx: TyIdx) -> i64 {
        match &self.get(idx).kind {
            TyKind::Array { dims, .. } => {
                let mut total = 1i64;
                for d in dims {
                    let e = d.extent();
                    if e == 0 {
                        return 0;
                    }
                    total = total.saturating_mul(e);
                }
                total
            }
            TyKind::Scalar(_) => 1,
            TyKind::Proc(_) => 0,
        }
    }

    /// Allocated bytes — the Dragon `Size_bytes` column.
    pub fn size_bytes(&self, idx: TyIdx) -> i64 {
        self.total_elements(idx) * self.element_size(idx).abs()
    }
}

/// How a symbol is stored / what it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StClass {
    /// File-scope / COMMON-block variable.
    Global,
    /// Procedure-local variable.
    Local,
    /// Formal parameter of the owning procedure.
    Formal,
    /// A procedure name.
    Proc,
}

/// One symbol-table entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StEntry {
    /// The symbol's name.
    pub name: Symbol,
    /// Its type.
    pub ty: TyIdx,
    /// Storage class.
    pub class: StClass,
    /// Assigned static address (the Dragon `Mem_Loc` column, shown in hex).
    /// Zero until layout runs; formals keep 0 because they alias actuals.
    pub address: u64,
}

/// The ST table.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SymbolTable {
    entries: support::idx::IndexVec<StIdx, StEntry>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a symbol.
    pub fn add(&mut self, name: Symbol, ty: TyIdx, class: StClass) -> StIdx {
        self.entries.push(StEntry { name, ty, class, address: 0 })
    }

    /// Looks up an entry.
    pub fn get(&self, idx: StIdx) -> &StEntry {
        &self.entries[idx]
    }

    /// Mutable lookup (layout assignment).
    pub fn get_mut(&mut self, idx: StIdx) -> &mut StEntry {
        &mut self.entries[idx]
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(StIdx, &StEntry)`.
    pub fn iter(&self) -> impl Iterator<Item = (StIdx, &StEntry)> {
        self.entries.iter_enumerated()
    }

    /// Finds the first symbol with this name. A linear scan of the
    /// program-wide table (4 001 entries on `synth_1k`): for tests and
    /// one-off lookups, not for loops over procedures.
    pub fn find(&self, name: Symbol) -> Option<StIdx> {
        self.iter().find(|(_, e)| e.name == name).map(|(i, _)| i)
    }

    /// Assigns static addresses to every global/local array, mimicking the
    /// compiler's data layout so `Mem_Loc` is populated. Arrays are placed
    /// sequentially from `base`, 16-byte aligned. Scalars and procedures
    /// keep address 0; formals keep 0 because they alias their actuals.
    pub fn assign_layout(&mut self, types: &TypeTable, base: u64) -> u64 {
        let mut next = base;
        for e in self.entries.iter_mut() {
            let is_array = matches!(types.get(e.ty).kind, TyKind::Array { .. });
            if is_array && e.class != StClass::Formal {
                e.address = next;
                let bytes = types.size_bytes(e.ty).max(0) as u64;
                next = (next + bytes + 15) & !15;
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use support::Interner;

    fn aarr_ty(types: &mut TypeTable) -> TyIdx {
        // int aarr[20]  ⇒  bounds 0:19.
        types.array(DataType::I4, vec![DimBound::Const { lb: 0, ub: 19 }])
    }

    #[test]
    fn data_type_sizes_and_names() {
        assert_eq!(DataType::I4.size_bytes(), 4);
        assert_eq!(DataType::F8.size_bytes(), 8);
        assert_eq!(DataType::Char.size_bytes(), 1);
        assert_eq!(DataType::F8.display_name(), "double");
        assert_eq!(DataType::I4.to_string(), "int");
    }

    #[test]
    fn fig9_aarr_metrics() {
        // Paper Fig. 9: aarr — elem 4, int, dim 20, tot 20, 80 bytes.
        let mut types = TypeTable::new();
        let ty = aarr_ty(&mut types);
        assert_eq!(types.element_size(ty), 4);
        assert_eq!(types.elem_type(ty), DataType::I4);
        assert_eq!(types.dim_sizes(ty), vec![20]);
        assert_eq!(types.total_elements(ty), 20);
        assert_eq!(types.size_bytes(ty), 80);
        assert_eq!(types.num_dims(ty), 1);
    }

    #[test]
    fn table2_xcr_metrics() {
        // Paper Table II: xcr — double, dims 1:5, tot 5, 40 bytes.
        let mut types = TypeTable::new();
        let ty = types.array(DataType::F8, vec![DimBound::Const { lb: 1, ub: 5 }]);
        assert_eq!(types.element_size(ty), 8);
        assert_eq!(types.total_elements(ty), 5);
        assert_eq!(types.size_bytes(ty), 40);
    }

    #[test]
    fn table3_u_metrics() {
        // Paper Table III / Fig. 14: u — 4-D double 64|65|65|5,
        // tot 1_352_000, bytes 10_816_000.
        let mut types = TypeTable::new();
        let ty = types.array(
            DataType::F8,
            vec![
                DimBound::Const { lb: 1, ub: 64 },
                DimBound::Const { lb: 1, ub: 65 },
                DimBound::Const { lb: 1, ub: 65 },
                DimBound::Const { lb: 1, ub: 5 },
            ],
        );
        assert_eq!(types.dim_sizes(ty), vec![64, 65, 65, 5]);
        assert_eq!(types.total_elements(ty), 1_352_000);
        assert_eq!(types.size_bytes(ty), 10_816_000);
    }

    #[test]
    fn runtime_dimension_zeroes_total_size() {
        let mut types = TypeTable::new();
        let ty = types.add(TyKind::Array {
            elem: DataType::F8,
            dims: vec![DimBound::Runtime],
            contiguous: true,
        });
        assert_eq!(types.total_elements(ty), 0);
        assert_eq!(types.size_bytes(ty), 0);
    }

    #[test]
    fn noncontiguous_array_has_negative_element_size() {
        let mut types = TypeTable::new();
        let ty = types.add(TyKind::Array {
            elem: DataType::F8,
            dims: vec![DimBound::Const { lb: 1, ub: 10 }],
            contiguous: false,
        });
        assert_eq!(types.element_size(ty), -8);
        // Allocated bytes still use the magnitude.
        assert_eq!(types.size_bytes(ty), 80);
    }

    #[test]
    fn symbol_lookup_by_name() {
        let mut it = Interner::new();
        let mut types = TypeTable::new();
        let ty = aarr_ty(&mut types);
        let mut st = SymbolTable::new();
        let name = it.intern("aarr");
        let idx = st.add(name, ty, StClass::Global);
        assert_eq!(st.find(name), Some(idx));
        assert_eq!(st.find(it.intern("missing")), None);
        assert_eq!(st.get(idx).class, StClass::Global);
    }

    #[test]
    fn layout_assigns_aligned_disjoint_addresses() {
        let mut it = Interner::new();
        let mut types = TypeTable::new();
        let t1 = aarr_ty(&mut types); // 80 bytes
        let t2 = types.array(DataType::F8, vec![DimBound::Const { lb: 1, ub: 5 }]); // 40 B
        let scalar = types.scalar(DataType::I4);
        let mut st = SymbolTable::new();
        let a = st.add(it.intern("a"), t1, StClass::Global);
        let b = st.add(it.intern("b"), t2, StClass::Local);
        let s = st.add(it.intern("n"), scalar, StClass::Local);
        let f = st.add(it.intern("x"), t2, StClass::Formal);
        let end = st.assign_layout(&types, 0x5559_9870);
        let (aa, ba) = (st.get(a).address, st.get(b).address);
        assert_eq!(aa, 0x5559_9870);
        assert!(ba > aa + 79, "b must not overlap a");
        assert_eq!(ba % 16, 0);
        assert_eq!(st.get(s).address, 0, "scalars are not placed");
        assert_eq!(st.get(f).address, 0, "formals alias their actuals");
        assert!(end > ba);
    }

    #[test]
    fn dim_bound_helpers() {
        let d = DimBound::Const { lb: 1, ub: 65 };
        assert_eq!(d.extent(), 65);
        assert_eq!(d.lower(), 1);
        assert_eq!(DimBound::Runtime.extent(), 0);
    }
}
