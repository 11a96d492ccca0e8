//! The reader side: recovering the flight record from a dead kernel.
//!
//! This mirrors the validated-reader discipline of `ow-core::reader`: the
//! crash kernel treats the trace region as untrusted bytes, because wild
//! writes may have landed anywhere in it between the fault and the panic.
//! Validation is strictly *per slot* — CRC over the payload, a sane event
//! kind, and the sequence number mapping back to the slot it sits in — so
//! corruption costs exactly the records it hit. Even a corrupted header
//! only loses the metrics, never the events. Nothing here can abort: the
//! worst possible input yields an empty record with everything counted.

use crate::layout::{hdr_off, rec_off, EventKind, PanicStep, RECORD_SIZE, TRACE_MAGIC};
use crate::metrics::{MetricsSnapshot, NUM_COUNTERS, NUM_HISTOGRAMS};
use crate::ring::TraceRing;
use ow_layout::trace::{field_u32, field_u64, slot_crc_ok};
use ow_simhw::{PhysMem, PAGE_SIZE};

/// One validated, decoded trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Simulated cycle timestamp.
    pub cycles: u64,
    /// What happened.
    pub kind: EventKind,
    /// Pid the event is attributed to (0 when none).
    pub pid: u64,
    /// First argument (kind-specific).
    pub arg0: u64,
    /// Second argument (kind-specific).
    pub arg1: u64,
}

impl TraceEvent {
    /// Compact human-readable form, used in campaign cause annotations.
    pub fn describe(&self) -> String {
        match self.kind {
            EventKind::PanicStep => match PanicStep::from_u64(self.arg0) {
                Some(step) => format!("panic:{}", step.name()),
                None => format!("panic:step?{}", self.arg0),
            },
            EventKind::SyscallEnter => format!("syscall_enter(nr={}, pid={})", self.arg0, self.pid),
            EventKind::SyscallExit => format!("syscall_exit(nr={}, pid={})", self.arg0, self.pid),
            EventKind::PageFault => format!("page_fault(va={:#x}, pid={})", self.arg0, self.pid),
            EventKind::SwapIn => format!("swap_in(slot={}, pfn={})", self.arg0, self.arg1),
            EventKind::SwapOut => format!("swap_out(slot={}, pfn={})", self.arg0, self.arg1),
            EventKind::ProtectionTrap => format!("protection_trap(addr={:#x})", self.arg0),
            EventKind::FaultInjected => {
                format!("fault_injected(kind={}, writes={})", self.arg0, self.arg1)
            }
            EventKind::Armed => format!("armed(gen={})", self.arg0),
            EventKind::RecoveryPanicContained => {
                format!(
                    "recovery_panic_contained(pid={}, rung={})",
                    self.pid, self.arg0
                )
            }
            EventKind::RecoveryDegraded => {
                format!("recovery_degraded(pid={}, rung={})", self.pid, self.arg0)
            }
            EventKind::RecoveryWatchdogFired => {
                format!(
                    "recovery_watchdog_fired(pid={}, budget={})",
                    self.pid, self.arg0
                )
            }
            EventKind::RecoveryEscalated => {
                format!(
                    "recovery_escalated(gen_offset={}, reason={})",
                    self.arg0, self.arg1
                )
            }
            EventKind::RecoveryRolledBack => {
                format!(
                    "recovery_rolled_back(epoch={}, records={})",
                    self.arg0, self.arg1
                )
            }
        }
    }

    /// Whether this is a panic-path record.
    pub fn is_panic_step(&self) -> bool {
        self.kind == EventKind::PanicStep
    }
}

/// Per-kind event totals over one or many recovered flight records.
///
/// The parallel campaign engine recovers one [`FlightRecord`] per
/// experiment inside whichever worker shard ran it; the campaign merger
/// folds each experiment's counts into a campaign-wide total **in seed
/// order**, so the aggregate is identical however the experiments were
/// sharded. Addition is commutative, but merging in seed order keeps the
/// invariant trivially auditable next to the rest of the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    counts: [u64; EventKind::ALL.len()],
}

impl EventCounts {
    /// Counts one event.
    pub fn add(&mut self, kind: EventKind) {
        for (k, c) in EventKind::ALL.iter().zip(self.counts.iter_mut()) {
            if *k == kind {
                *c += 1;
            }
        }
    }

    /// Folds another tally into this one (shard / experiment merge).
    pub fn merge(&mut self, other: &EventCounts) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += *o;
        }
    }

    /// Count for one kind.
    pub fn get(&self, kind: EventKind) -> u64 {
        EventKind::ALL
            .iter()
            .zip(self.counts.iter())
            .find(|(k, _)| **k == kind)
            .map(|(_, &c)| c)
            .unwrap_or(0)
    }

    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(kind, count)` pairs in discriminant order.
    pub fn iter(&self) -> impl Iterator<Item = (EventKind, u64)> + '_ {
        EventKind::ALL
            .iter()
            .zip(self.counts.iter())
            .map(|(k, &c)| (*k, c))
    }

    /// JSON object of the non-zero kinds, keys in discriminant order (a
    /// deterministic byte sequence for the campaign exports).
    pub fn to_json(&self) -> crate::json::Value {
        use crate::json::Value;
        Value::obj(
            self.iter()
                .filter(|(_, c)| *c > 0)
                .map(|(k, c)| (k.name(), Value::from(c))),
        )
    }
}

/// Everything recovered from a dead kernel's trace region.
#[derive(Debug, Clone, Default)]
pub struct FlightRecord {
    /// Valid records, oldest first.
    pub events: Vec<TraceEvent>,
    /// Slots that were written but failed validation (wild-write damage).
    pub corrupt_records: u64,
    /// Whether the region header survived (magic + geometry checks).
    pub header_valid: bool,
    /// Records the dead kernel dropped at emit time.
    pub dropped: u64,
    /// Generation that armed the ring.
    pub generation: u32,
    /// The dead kernel's write cursor (records ever emitted).
    pub write_seq: u64,
    /// Metrics registry snapshot (zeroed when the header was corrupt).
    pub metrics: MetricsSnapshot,
}

impl FlightRecord {
    /// Recovers the dead kernel's flight record the way the crash kernel
    /// does: the handoff block locates the trace region, then
    /// [`FlightRecord::recover`] reads it. An unreadable handoff block
    /// yields the empty record.
    pub fn from_handoff(phys: &PhysMem) -> FlightRecord {
        ow_layout::HandoffBlock::read(phys)
            .map(|(h, _)| FlightRecord::recover(phys, h.trace_base, h.trace_frames))
            .unwrap_or_default()
    }

    /// Recovers the flight record from `phys`. Never fails: corruption is
    /// skipped and counted, and the worst case is an empty record.
    pub fn recover(phys: &PhysMem, base_frame: u64, frames: u64) -> FlightRecord {
        let mut rec = FlightRecord::default();
        if frames < TraceRing::MIN_FRAMES || base_frame + frames > phys.frames() {
            return rec;
        }
        let ring = TraceRing { base_frame, frames };
        let base = ring.base_addr();
        let capacity = ring.capacity();

        // Header: validated independently of the records. A corrupt header
        // costs the metrics, not the events.
        let magic_ok = phys.read_u32(base + hdr_off::MAGIC) == Ok(TRACE_MAGIC);
        let cap_ok = phys.read_u32(base + hdr_off::CAPACITY).map(u64::from) == Ok(capacity);
        rec.header_valid = magic_ok && cap_ok;
        if rec.header_valid {
            rec.write_seq = phys.read_u64(base + hdr_off::WRITE_SEQ).unwrap_or(0);
            rec.dropped = phys.read_u64(base + hdr_off::DROPPED).unwrap_or(0);
            rec.generation = phys.read_u32(base + hdr_off::GENERATION).unwrap_or(0);
            for (i, c) in rec
                .metrics
                .counters
                .iter_mut()
                .enumerate()
                .take(NUM_COUNTERS)
            {
                *c = phys
                    .read_u64(base + hdr_off::COUNTERS + 8 * i as u64)
                    .unwrap_or(0);
            }
            for (h, hist) in rec
                .metrics
                .histograms
                .iter_mut()
                .enumerate()
                .take(NUM_HISTOGRAMS)
            {
                for (b, bucket) in hist.iter_mut().enumerate().take(64) {
                    *bucket = phys
                        .read_u64(base + hdr_off::HISTOGRAMS + (h as u64) * 8 * 64 + 8 * b as u64)
                        .unwrap_or(0);
                }
            }
        }

        // Records: per-slot validation, nothing trusted across slots.
        let slots_base = base + PAGE_SIZE as u64;
        let mut buf = [0u8; RECORD_SIZE as usize];
        for i in 0..capacity {
            if phys.read(slots_base + i * RECORD_SIZE, &mut buf).is_err() {
                rec.corrupt_records += 1;
                continue;
            }
            if buf.iter().all(|&b| b == 0) {
                continue; // never written (arm() zeroes the region)
            }
            if !slot_crc_ok(&buf) {
                rec.corrupt_records += 1;
                continue;
            }
            let seq = field_u64(&buf, rec_off::SEQ);
            let kind_raw = field_u32(&buf, rec_off::KIND);
            let Some(kind) = EventKind::from_u32(kind_raw) else {
                rec.corrupt_records += 1;
                continue;
            };
            // A record is only credible in the slot its sequence number
            // maps to; anything else is a stray copy.
            if seq % capacity != i {
                rec.corrupt_records += 1;
                continue;
            }
            rec.events.push(TraceEvent {
                seq,
                cycles: field_u64(&buf, rec_off::CYCLES),
                kind,
                pid: field_u64(&buf, rec_off::PID),
                arg0: field_u64(&buf, rec_off::ARG0),
                arg1: field_u64(&buf, rec_off::ARG1),
            });
        }
        rec.events.sort_by_key(|e| e.seq);
        rec
    }

    /// The newest record, if any.
    pub fn last_event(&self) -> Option<&TraceEvent> {
        self.events.last()
    }

    /// Tallies the recovered events by kind (the campaign-level flight
    /// annotation each experiment contributes to its shard's merge).
    pub fn event_counts(&self) -> EventCounts {
        let mut counts = EventCounts::default();
        for e in &self.events {
            counts.add(e.kind);
        }
        counts
    }

    /// A one-line summary of the last `n` events (newest last), the cause
    /// annotation attached to every campaign outcome.
    pub fn tail_summary(&self, n: usize) -> String {
        if self.events.is_empty() {
            return if self.corrupt_records > 0 {
                format!("no trace ({} corrupt records)", self.corrupt_records)
            } else {
                "no trace".to_string()
            };
        }
        let start = self.events.len().saturating_sub(n);
        let mut parts: Vec<String> = self
            .events
            .iter()
            .skip(start)
            .map(|e| e.describe())
            .collect();
        if self.corrupt_records > 0 {
            parts.push(format!("[{} corrupt]", self.corrupt_records));
        }
        parts.join(" -> ")
    }

    /// JSON form of the whole record (events, damage counters, metrics),
    /// used by the bench table binaries' export path.
    pub fn to_json(&self) -> crate::json::Value {
        use crate::json::Value;
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                Value::obj([
                    ("seq", Value::from(e.seq)),
                    ("cycles", Value::from(e.cycles)),
                    ("kind", Value::from(e.kind.name())),
                    ("pid", Value::from(e.pid)),
                    ("arg0", Value::from(e.arg0)),
                    ("arg1", Value::from(e.arg1)),
                ])
            })
            .collect();
        let counters: Vec<Value> = self
            .metrics
            .counters
            .iter()
            .map(|&c| Value::from(c))
            .collect();
        Value::obj([
            ("header_valid", Value::Bool(self.header_valid)),
            ("generation", Value::from(self.generation as u64)),
            ("write_seq", Value::from(self.write_seq)),
            ("dropped", Value::from(self.dropped)),
            ("corrupt_records", Value::from(self.corrupt_records)),
            ("counters", Value::Array(counters)),
            ("events", Value::Array(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counter;

    #[test]
    fn recover_from_unarmed_memory_is_empty() {
        let phys = PhysMem::new(8);
        let rec = FlightRecord::recover(&phys, 4, 4);
        assert!(!rec.header_valid);
        assert!(rec.events.is_empty());
        assert_eq!(rec.corrupt_records, 0);
    }

    #[test]
    fn recover_out_of_bounds_region_is_empty() {
        let phys = PhysMem::new(8);
        let rec = FlightRecord::recover(&phys, 7, 4);
        assert!(rec.events.is_empty());
    }

    #[test]
    fn wild_write_corrupts_only_the_record_it_hit() {
        let mut phys = PhysMem::new(8);
        let ring = TraceRing::arm(&mut phys, 4, 4, 0).unwrap();
        for i in 0..10u64 {
            ring.emit(&mut phys, i, EventKind::SyscallEnter, 1, i, 0);
        }
        // A wild write lands in record slot 3.
        let slot3 = ring.base_addr() + PAGE_SIZE as u64 + 3 * RECORD_SIZE;
        phys.corrupt_u64(slot3 + 8, 0xdead_beef_dead_beef);
        let rec = FlightRecord::recover(&phys, 4, 4);
        assert_eq!(rec.corrupt_records, 1);
        assert_eq!(rec.events.len(), 9);
        assert!(rec.events.iter().all(|e| e.seq != 3));
        // Neighbors are intact.
        assert!(rec.events.iter().any(|e| e.seq == 2));
        assert!(rec.events.iter().any(|e| e.seq == 4));
    }

    #[test]
    fn corrupt_header_loses_metrics_but_not_events() {
        let mut phys = PhysMem::new(8);
        let ring = TraceRing::arm(&mut phys, 4, 4, 0).unwrap();
        ring.counter_add(&mut phys, Counter::Syscalls, 5);
        for i in 0..4u64 {
            ring.emit(&mut phys, i, EventKind::PageFault, 2, i * 0x1000, 0);
        }
        // Smash the magic.
        phys.corrupt_u64(ring.base_addr(), 0xffff_ffff);
        let rec = FlightRecord::recover(&phys, 4, 4);
        assert!(!rec.header_valid);
        assert_eq!(rec.metrics.counter(Counter::Syscalls), 0);
        assert_eq!(rec.events.len(), 4);
    }

    #[test]
    fn event_counts_tally_and_merge_by_kind() {
        let mut phys = PhysMem::new(8);
        let ring = TraceRing::arm(&mut phys, 4, 4, 0).unwrap();
        ring.emit(&mut phys, 1, EventKind::SyscallEnter, 1, 3, 0);
        ring.emit(&mut phys, 2, EventKind::SyscallEnter, 1, 4, 0);
        ring.emit(&mut phys, 3, EventKind::PageFault, 1, 0x1000, 0);
        let counts = FlightRecord::recover(&phys, 4, 4).event_counts();
        assert_eq!(counts.get(EventKind::SyscallEnter), 2);
        assert_eq!(counts.get(EventKind::PageFault), 1);
        assert_eq!(counts.total(), 3);

        let mut merged = counts;
        merged.merge(&counts);
        assert_eq!(merged.get(EventKind::SyscallEnter), 4);
        assert_eq!(merged.total(), 6);

        let json = merged.to_json().to_pretty();
        assert!(json.contains("\"syscall_enter\""), "{json}");
        assert!(!json.contains("\"swap_in\""), "zero kinds omitted: {json}");
    }

    #[test]
    fn tail_summary_names_the_panic_step() {
        let mut phys = PhysMem::new(8);
        let ring = TraceRing::arm(&mut phys, 4, 4, 0).unwrap();
        ring.emit(&mut phys, 1, EventKind::SyscallEnter, 1, 3, 0);
        ring.emit_panic_step(&mut phys, 2, PanicStep::Entered, 0);
        ring.emit_panic_step(&mut phys, 3, PanicStep::Handoff, 0);
        let rec = FlightRecord::recover(&phys, 4, 4);
        let s = rec.tail_summary(8);
        assert!(s.contains("panic:handoff"), "{s}");
        assert!(rec.last_event().unwrap().is_panic_step());
    }
}
