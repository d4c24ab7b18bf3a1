//! Shared infrastructure for the ARAA workspace.
//!
//! This crate hosts the small, dependency-free building blocks every other
//! crate leans on: a string interner ([`intern::Interner`]), strongly-typed
//! index newtypes ([`idx`]), a CSV reader/writer pair used for the `.rgn`
//! exchange format ([`csv`]), an ASCII table renderer used by the Dragon
//! text UI ([`table`]), the worker pool every per-procedure fan-out runs
//! on ([`par`]), and the workspace-wide error type ([`error`]).

pub mod budget;
pub mod csv;
pub mod deadline;
pub mod error;
pub mod faultpoint;
pub mod hash;
pub mod idx;
pub mod intern;
pub mod json;
pub mod memory;
pub mod obs;
pub mod par;
pub mod persist;
pub mod table;
pub mod testdir;

pub use error::{Error, Pos, Result};
pub use intern::{Interner, Symbol};
