//! On-memory layout of every kernel structure the crash kernel must parse.
//!
//! The definitions themselves live in the shared [`ow_layout`] crate — the
//! single source of truth for magics, encoded sizes, layout versions and
//! the [`Record`] codec — so that the main kernel (writer), the crash
//! kernel (reader, `ow-core`), the flight recorder (`ow-trace`) and the
//! fault injector (`ow-faultinject`) can never drift apart. This module
//! re-exports the whole vocabulary under the kernel's traditional
//! `crate::layout` path.
//!
//! Simulated physical memory is the kernel's ground truth (§3): process
//! descriptors, VMAs, file tables, page-cache nodes, swap descriptors,
//! terminal and IPC state are all written through to `ow_simhw::PhysMem`
//! in these layouts, and the handoff block at frame 0 carries the
//! [`LAYOUT_VERSION`] stamp that lets a crash kernel of a different
//! generation refuse cleanly instead of misparsing.

pub use ow_layout::*;
