//! `ow-layout` — the versioned record codec every crate shares.
//!
//! Otherworld's premise is that the crash kernel parses the dead kernel's
//! structures out of raw physical memory and survives their corruption
//! (§3–§4). That only works if exactly one definition of every layout
//! exists; this crate is that definition:
//!
//! * [`Cursor`]/[`CursorMut`] — checked little-endian cursors over
//!   simulated physical memory, with Table 4 byte accounting.
//! * [`Record`] — the declarative codec trait: magic, layout version,
//!   footprint, body codec and deep validation per structure, with the
//!   single magic gate ([`check_magic`]) provided once.
//! * `records` — every kernel structure the crash kernel must parse, from
//!   the frame-0 [`HandoffBlock`] to [`SockDesc`].
//! * [`trace`] — the flight-recorder region layout and its CRC-framed
//!   record slots.
//! * [`crc`] — the one shared CRC-32, guarding trace slots and the §4
//!   descriptor checksums alike.
//! * [`registry`] — the enumeration of every resurrection-relevant
//!   structure (name, guard, size, version), from which the fault
//!   injector derives wild-write victim footprints and the Table 4
//!   accounting cross-checks itself; its [`LAYOUT_VERSION`] is stamped
//!   into the handoff block so a crash kernel of a different generation
//!   refuses cleanly instead of misparsing.
//! * [`samples`] — canonical sample values behind the golden-encoding and
//!   corruption tests.

#![forbid(unsafe_code)]

pub mod crc;
mod cursor;
mod record;
mod records;
pub mod registry;
pub mod samples;
pub mod trace;

pub use cursor::{check_magic, pack_str, unpack_str, Cursor, CursorMut, LayoutError};
pub use record::Record;
pub use records::*;
pub use registry::{
    classify_victim, footprint, lookup, max_footprint, Guard, LayoutEntry, LAYOUT_VERSION, REGISTRY,
};
