//! Interprocedural effect summaries, read off call-graph reachability.
//!
//! Each function gets a summary — the effects its execution *may* have, in
//! the same over-approximate spirit as the graph itself:
//!
//! * [`READS_DEAD`] — reads raw `PhysMem` (dead-kernel or reader-derived
//!   bytes; the `phys.read*`/`phys.slice*` intrinsics).
//! * [`WRITES_LIVE`] — mutates live kernel state through `PhysMem`
//!   (`phys.write*`/`slice_mut`/frame stores).
//! * [`ALLOCATES`] — touches the kernel heap (`kheap.alloc`/`free`).
//! * [`PANICS`] — contains an uncontained panic-capable site.
//! * [`NONDET`] — observes wall clock, environment, thread topology,
//!   `HashMap`/`HashSet` iteration order, or builds a raw-seed RNG.
//!
//! Intrinsic effects come from [`crate::extract`]. A function's summary
//! carries an effect when some function it reaches ([`Graph::reach`]) has
//! an intrinsic site of that effect. One edge kind is special: a call made
//! inside a `supervisor::contain(...)` argument masks [`PANICS`] (the
//! runtime boundary owns that panic) but still propagates the other four —
//! containment catches unwinding, it does not undo writes, allocations, or
//! nondeterminism. The rules walk the graph the same way: only the panic
//! rule stops at `contain(...)`.
//!
//! [`summary`] pairs each effect with a [`Witness`], the call path to the
//! first intrinsic site in BFS order — this is what `--effects` prints, so
//! justifying an allow never requires re-deriving the analysis.

use crate::extract::{FnDef, PanicKind};
use crate::graph::{DefId, Graph};

/// Reads raw `PhysMem` (dead-kernel/reader-derived bytes).
pub const READS_DEAD: u8 = 1 << 0;
/// Writes live kernel state through `PhysMem`.
pub const WRITES_LIVE: u8 = 1 << 1;
/// Allocates or frees on the kernel heap.
pub const ALLOCATES: u8 = 1 << 2;
/// Contains an uncontained panic-capable site.
pub const PANICS: u8 = 1 << 3;
/// Observes a nondeterministic input.
pub const NONDET: u8 = 1 << 4;

/// Every effect bit with its report name, in display order.
pub const ALL_EFFECTS: [(u8, &str); 5] = [
    (READS_DEAD, "reads-dead-memory"),
    (WRITES_LIVE, "writes-live-state"),
    (ALLOCATES, "allocates"),
    (PANICS, "panics"),
    (NONDET, "nondeterministic"),
];

/// The first intrinsic site of `bit` in `def`: (line, description).
pub fn intrinsic_site(def: &FnDef, bit: u8) -> Option<(u32, String)> {
    match bit {
        READS_DEAD => def
            .taint_reads
            .first()
            .map(|(l, m)| (*l, format!("PhysMem::{m}"))),
        WRITES_LIVE => def
            .taint_writes
            .first()
            .map(|(l, m)| (*l, format!("PhysMem::{m}"))),
        ALLOCATES => def.kheap_allocs.first().map(|(l, w)| (*l, w.clone())),
        PANICS => def.panics.iter().find(|p| !p.contained).map(|p| {
            let what = match &p.kind {
                PanicKind::Unwrap => "unwrap()".to_string(),
                PanicKind::Expect => "expect()".to_string(),
                PanicKind::Macro(m) => format!("{m}!"),
                PanicKind::Indexing => "slice/array indexing".to_string(),
            };
            (p.line, what)
        }),
        NONDET => def.nondet.first().map(|s| (s.line, s.what.clone())),
        _ => None,
    }
}

/// One concrete justification for an effect bit in a summary: the call
/// path from the queried function to an intrinsic site.
#[derive(Debug, Clone)]
pub struct Witness {
    /// `file:fn` hops, starting at the queried function.
    pub path: Vec<String>,
    /// 1-based line of the intrinsic site in the last hop.
    pub line: u32,
    /// What the intrinsic site is.
    pub what: String,
}

/// The effect summary of `from`: each effect, in display order, that some
/// function `from` reaches has intrinsically, with the witness path to the
/// first such site in BFS order. Empty for a pure function.
pub fn summary(graph: &Graph, from: DefId) -> Vec<(&'static str, Witness)> {
    let all = graph.reach(&[from], false);
    let uncontained = graph.reach(&[from], true);
    ALL_EFFECTS
        .iter()
        .filter_map(|&(bit, name)| {
            let (order, parents) = if bit == PANICS { &uncontained } else { &all };
            order.iter().find_map(|&id| {
                let (line, what) = intrinsic_site(graph.def(id), bit)?;
                let path = graph.witness(parents, id);
                Some((name, Witness { path, line, what }))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::graph::FileEntry;
    use crate::lexer::lex;

    fn entry(path: &str, src: &str) -> FileEntry {
        let (toks, ds) = lex(src);
        FileEntry {
            path: path.to_string(),
            model: extract(&toks, ds, false),
        }
    }

    fn id_of(g: &Graph, name: &str) -> DefId {
        g.all_defs().find(|&id| g.def(id).name == name).unwrap()
    }

    /// The effect names in `name`'s summary, in display order.
    fn effects(g: &Graph, name: &str) -> Vec<&'static str> {
        summary(g, id_of(g, name))
            .into_iter()
            .map(|(e, _)| e)
            .collect()
    }

    #[test]
    fn intrinsic_effects_seed_the_summary() {
        let files = vec![entry(
            "a.rs",
            "fn f() { phys.read(0, b); phys.write(0, b); kheap.alloc(8); \
             x.unwrap(); let t = Instant::now(); }",
        )];
        let g = Graph::build(&files);
        assert_eq!(
            effects(&g, "f"),
            vec![
                "reads-dead-memory",
                "writes-live-state",
                "allocates",
                "panics",
                "nondeterministic"
            ]
        );
    }

    #[test]
    fn effects_propagate_transitively_to_callers() {
        let files = vec![entry(
            "a.rs",
            "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { phys.write_u64(0, 1); }",
        )];
        let g = Graph::build(&files);
        assert_eq!(effects(&g, "top"), vec!["writes-live-state"]);
        assert_eq!(effects(&g, "mid"), vec!["writes-live-state"]);
    }

    #[test]
    fn contain_masks_panics_but_not_other_effects() {
        let files = vec![entry(
            "a.rs",
            "fn top() { contain(|| risky()); }\n\
             fn risky() { x.unwrap(); phys.write(0, b); }",
        )];
        let g = Graph::build(&files);
        assert_eq!(
            effects(&g, "top"),
            vec!["writes-live-state"],
            "contained panic must not propagate; containment does not undo writes"
        );
        assert_eq!(effects(&g, "risky"), vec!["writes-live-state", "panics"]);
    }

    #[test]
    fn recursion_terminates_and_reaches_every_effect() {
        let files = vec![entry(
            "a.rs",
            "fn a() { b(); }\nfn b() { a(); let t = SystemTime::now(); }",
        )];
        let g = Graph::build(&files);
        assert_eq!(effects(&g, "a"), vec!["nondeterministic"]);
        assert_eq!(effects(&g, "b"), vec!["nondeterministic"]);
    }

    #[test]
    fn pure_function_has_an_empty_summary() {
        let files = vec![entry("a.rs", "fn f(x: u64) -> u64 { x + 1 }")];
        let g = Graph::build(&files);
        assert!(effects(&g, "f").is_empty());
    }

    #[test]
    fn witness_path_ends_at_the_first_intrinsic_site_in_bfs_order() {
        let files = vec![
            entry(
                "a.rs",
                "fn top() { mid(); far(); }\nfn far() { kheap.free(8); }",
            ),
            entry(
                "b.rs",
                "fn mid() { leaf(); }\nfn leaf() { kheap.alloc(64); }",
            ),
        ];
        let g = Graph::build(&files);
        let s = summary(&g, id_of(&g, "top"));
        assert_eq!(s.len(), 1, "only allocates: {s:?}");
        let (name, w) = &s[0];
        assert_eq!(*name, "allocates");
        assert_eq!(w.path, vec!["a.rs:top", "a.rs:far"]);
        assert_eq!(w.what, "kheap.free");
        let s = summary(&g, id_of(&g, "mid"));
        assert_eq!(s[0].1.path, vec!["b.rs:mid", "b.rs:leaf"]);
        assert_eq!(s[0].1.what, "kheap.alloc");
        assert_eq!(s[0].1.line, 2);
    }
}
