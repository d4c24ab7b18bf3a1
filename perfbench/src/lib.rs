//! The repository benchmark: seeded workloads, a closed loop of the
//! operations a user of `dragon` waits for, and a traced stage-by-stage
//! replay for per-layer numbers. See `perfbench/README.md`.

pub mod calib;
pub mod checks;
pub mod gen;
pub mod trace;
