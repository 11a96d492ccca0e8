//! Workspace-wide call graph: indexes every extracted function, resolves
//! call sites against workspace definitions (names outside the workspace —
//! `std`, core — simply don't resolve and fall away), and computes
//! reachability with per-function witness paths.
//!
//! Resolution is deliberately over-approximate: a method call with an
//! unknown receiver type matches every workspace method of that name. The
//! extractor's binding-type inference ([`crate::extract::FnDef::types`])
//! plus a few domain receiver hints (`phys` is always the simulated
//! physical memory) keep the approximation tight in practice.

use crate::extract::{Call, CallKind, FileModel, FnDef};
use std::collections::HashMap;

/// One scanned file: workspace-relative path plus its extracted model.
pub struct FileEntry {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Extracted model.
    pub model: FileModel,
}

/// Identifier of a function definition in the graph.
pub type DefId = usize;

/// What [`Graph::reach`] found: the reached definitions in BFS order, and
/// each one's call-graph parent.
pub type Reach = (Vec<DefId>, HashMap<DefId, DefId>);

/// The workspace call graph.
pub struct Graph<'a> {
    files: &'a [FileEntry],
    /// Flattened (file index, fn index) per definition.
    defs: Vec<(usize, usize)>,
    by_name: HashMap<&'a str, Vec<DefId>>,
    /// Receiver-name → type hints that hold workspace-wide by naming
    /// convention, tried after local binding inference.
    hints: HashMap<&'static str, &'static str>,
}

impl<'a> Graph<'a> {
    /// Builds the graph over all non-test functions in `files`.
    pub fn build(files: &'a [FileEntry]) -> Self {
        let mut defs = Vec::new();
        let mut by_name: HashMap<&str, Vec<DefId>> = HashMap::new();
        for (fi, entry) in files.iter().enumerate() {
            for (ni, f) in entry.model.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let id = defs.len();
                defs.push((fi, ni));
                by_name.entry(f.name.as_str()).or_default().push(id);
            }
        }
        let hints = HashMap::from([
            ("phys", "PhysMem"),
            ("machine", "Machine"),
            ("kheap", "KHeap"),
        ]);
        Graph {
            files,
            defs,
            by_name,
            hints,
        }
    }

    /// The definition behind an id.
    pub fn def(&self, id: DefId) -> &'a FnDef {
        let (fi, ni) = self.defs[id];
        &self.files[fi].model.fns[ni]
    }

    /// The file path a definition lives in.
    pub fn file_of(&self, id: DefId) -> &'a str {
        &self.files[self.defs[id].0].path
    }

    /// All definition ids, in file order.
    pub fn all_defs(&self) -> impl Iterator<Item = DefId> {
        0..self.defs.len()
    }

    /// Ids of every non-test function defined in `path`.
    pub fn defs_in_file(&self, path: &str) -> Vec<DefId> {
        self.defs
            .iter()
            .enumerate()
            .filter(|(_, (fi, _))| self.files[*fi].path == path)
            .map(|(id, _)| id)
            .collect()
    }

    /// Resolves one call site made from `caller` to workspace definitions.
    pub fn resolve(&self, call: &Call, caller: &FnDef) -> Vec<DefId> {
        let Some(cands) = self.by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        let with_ctx = |want: &str| -> Vec<DefId> {
            cands
                .iter()
                .copied()
                .filter(|&id| self.def(id).ctx.as_deref() == Some(want))
                .collect()
        };
        let trait_defaults = || -> Vec<DefId> {
            cands
                .iter()
                .copied()
                .filter(|&id| self.def(id).ctx_is_trait)
                .collect()
        };
        match &call.kind {
            CallKind::Free => cands
                .iter()
                .copied()
                .filter(|&id| self.def(id).ctx.is_none())
                .collect(),
            CallKind::Qualified { qualifier } => {
                let want = if qualifier == "Self" {
                    caller.ctx.clone().unwrap_or_default()
                } else {
                    qualifier.clone()
                };
                let direct = with_ctx(&want);
                if !direct.is_empty() {
                    return direct;
                }
                let defaults = trait_defaults();
                if !defaults.is_empty() {
                    return defaults;
                }
                // `module::free_fn(...)` — the qualifier was a module.
                cands
                    .iter()
                    .copied()
                    .filter(|&id| self.def(id).ctx.is_none())
                    .collect()
            }
            CallKind::Method { receiver } => {
                let rtype: Option<String> = match receiver.as_deref() {
                    Some("self") => caller.ctx.clone(),
                    Some(r) => caller
                        .types
                        .iter()
                        .rev()
                        .find(|(n, _)| n == r)
                        .map(|(_, t)| t.clone())
                        .or_else(|| self.hints.get(r).map(|t| (*t).to_string())),
                    None => None,
                };
                match rtype {
                    Some(t) => {
                        let direct = with_ctx(&t);
                        if !direct.is_empty() {
                            direct
                        } else {
                            // The concrete type doesn't define it: a trait
                            // default, or a non-workspace (std) method.
                            trait_defaults()
                        }
                    }
                    // A closure-taking method on an unknown receiver is a
                    // std iterator/Option/Result adapter (`.map(|x| …)`);
                    // matching it against same-named workspace methods
                    // (e.g. `PageTable::map`) would wire every iterator
                    // chain into the page tables. The closure body's calls
                    // are attributed to the caller, so nothing is lost.
                    None if call.closure_arg => Vec::new(),
                    // Unknown receiver: every workspace method of the name.
                    None => cands
                        .iter()
                        .copied()
                        .filter(|&id| self.def(id).ctx.is_some())
                        .collect(),
                }
            }
        }
    }

    /// BFS reachability from `roots`. Calls made inside `contain(...)`
    /// regions are not traversed when `skip_contained` is set — the
    /// supervisor's runtime boundary already owns those panics. Returns
    /// every reachable definition in BFS order (roots first), and for each
    /// the id of the call-graph parent it was first reached through (roots
    /// map to themselves).
    pub fn reach(&self, roots: &[DefId], skip_contained: bool) -> Reach {
        let mut parent: HashMap<DefId, DefId> = HashMap::new();
        let mut order: Vec<DefId> = Vec::new();
        for &r in roots {
            if parent.insert(r, r).is_none() {
                order.push(r);
            }
        }
        // `order` doubles as the BFS queue: `next` is its head.
        let mut next = 0;
        while let Some(&id) = order.get(next) {
            next += 1;
            let f = self.def(id);
            for call in &f.calls {
                if skip_contained && call.contained {
                    continue;
                }
                for target in self.resolve(call, f) {
                    if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(target) {
                        e.insert(id);
                        order.push(target);
                    }
                }
            }
        }
        (order, parent)
    }

    /// The witness path root → … → `id`, as `file:fn` strings.
    pub fn witness(&self, parents: &HashMap<DefId, DefId>, id: DefId) -> Vec<String> {
        let mut path = Vec::new();
        let mut cur = id;
        loop {
            let f = self.def(cur);
            path.push(format!("{}:{}", self.file_of(cur), f.name));
            match parents.get(&cur) {
                Some(&p) if p != cur => cur = p,
                _ => break,
            }
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::lexer::lex;

    fn entry(path: &str, src: &str) -> FileEntry {
        let (toks, ds) = lex(src);
        FileEntry {
            path: path.to_string(),
            model: extract(&toks, ds, false),
        }
    }

    #[test]
    fn free_call_reaches_across_files() {
        let files = vec![
            entry("a.rs", "fn root() { helper(); }"),
            entry("b.rs", "fn helper() { leaf(); }\nfn leaf() {}"),
        ];
        let g = Graph::build(&files);
        let roots = g.defs_in_file("a.rs");
        let (reached, parents) = g.reach(&roots, true);
        assert_eq!(reached.len(), 3);
        let leaf = g.all_defs().find(|&id| g.def(id).name == "leaf").unwrap();
        let w = g.witness(&parents, leaf);
        assert_eq!(w, vec!["a.rs:root", "b.rs:helper", "b.rs:leaf"]);
    }

    #[test]
    fn reach_lists_definitions_in_bfs_order() {
        let files = vec![entry(
            "a.rs",
            "fn root() { deep(); wide(); }\nfn deep() { leaf(); }\nfn wide() {}\nfn leaf() {}",
        )];
        let g = Graph::build(&files);
        let (reached, _) = g.reach(&g.defs_in_file("a.rs")[..1], true);
        let names: Vec<&str> = reached.iter().map(|&id| g.def(id).name.as_str()).collect();
        assert_eq!(names, vec!["root", "deep", "wide", "leaf"]);
    }

    #[test]
    fn typed_receiver_narrows_resolution() {
        let files = vec![entry(
            "a.rs",
            "fn root(g: &Guard) { g.check(); }\n\
                 impl Guard { fn check(&self) { self.inner(); } fn inner(&self) {} }\n\
                 impl Other { fn check(&self) { bad(); } }\n\
                 fn bad() {}",
        )];
        let g = Graph::build(&files);
        let root = g.all_defs().find(|&id| g.def(id).name == "root").unwrap();
        let (reached, _) = g.reach(&[root], true);
        let names: Vec<&str> = reached.iter().map(|&id| g.def(id).name.as_str()).collect();
        assert!(names.contains(&"inner"), "Guard::check reached via type");
        assert!(
            !names.contains(&"bad"),
            "Other::check must not be pulled in"
        );
    }

    #[test]
    fn unknown_receiver_over_approximates() {
        let files = vec![entry(
            "a.rs",
            "fn root(x: &Unknown) { y.check(); }\nimpl A { fn check(&self) {} }\nimpl B { fn check(&self) {} }",
        )];
        let g = Graph::build(&files);
        let root = g.all_defs().find(|&id| g.def(id).name == "root").unwrap();
        let (reached, _) = g.reach(&[root], true);
        assert_eq!(reached.len(), 3, "both candidate methods reached");
    }

    #[test]
    fn contained_calls_are_not_traversed() {
        let files = vec![entry(
            "a.rs",
            "fn root() { contain(|| risky()); safe(); }\nfn risky() {}\nfn safe() {}",
        )];
        let g = Graph::build(&files);
        let root = g.all_defs().find(|&id| g.def(id).name == "root").unwrap();
        let (reached, _) = g.reach(&[root], true);
        let names: Vec<&str> = reached.iter().map(|&id| g.def(id).name.as_str()).collect();
        assert!(names.contains(&"safe"));
        assert!(!names.contains(&"risky"));
    }

    #[test]
    fn phys_hint_resolves_without_annotation() {
        let files = vec![entry(
            "a.rs",
            "fn root(k: &Kernel) { k.machine.phys.read(0, b); }\n\
             impl PhysMem { fn read(&self) { leaf(); } }\n\
             impl Kernel { fn read(&self) { other(); } }\n\
             fn leaf() {}\nfn other() {}",
        )];
        let g = Graph::build(&files);
        let root = g.all_defs().find(|&id| g.def(id).name == "root").unwrap();
        let (reached, _) = g.reach(&[root], true);
        let names: Vec<&str> = reached.iter().map(|&id| g.def(id).name.as_str()).collect();
        assert!(names.contains(&"leaf"));
        assert!(
            !names.contains(&"other"),
            "phys receiver must not match Kernel::read"
        );
    }

    #[test]
    fn closure_adapter_on_unknown_receiver_does_not_resolve() {
        let files = vec![entry(
            "a.rs",
            "fn root(xs: &[u64]) { xs.iter().map(|x| x + 1).count(); pt.map(va, pa); }\n\
             impl PageTable { fn map(&mut self) { write_pte(); } }\nfn write_pte() {}",
        )];
        let g = Graph::build(&files);
        let root = g.all_defs().find(|&id| g.def(id).name == "root").unwrap();
        let (reached, _) = g.reach(&[root], true);
        let names: Vec<&str> = reached.iter().map(|&id| g.def(id).name.as_str()).collect();
        assert!(
            names.contains(&"write_pte"),
            "pt.map(va, pa) (no closure) must still over-approximate"
        );
        let f = g.def(root);
        let adapter = f
            .calls
            .iter()
            .find(|c| c.name == "map" && c.closure_arg)
            .expect("iterator .map(|x| …) extracted with closure_arg");
        assert!(
            g.resolve(adapter, f).is_empty(),
            ".map(|x| …) on an unknown receiver must not match PageTable::map"
        );
    }

    #[test]
    fn self_calls_resolve_to_own_impl() {
        let files = vec![entry(
            "a.rs",
            "impl A { fn go(&self) { self.helper(); } fn helper(&self) {} }\n\
             impl B { fn helper(&self) { bad(); } }\nfn bad() {}",
        )];
        let g = Graph::build(&files);
        let root = g.all_defs().find(|&id| g.def(id).name == "go").unwrap();
        let (reached, _) = g.reach(&[root], true);
        let names: Vec<&str> = reached.iter().map(|&id| g.def(id).name.as_str()).collect();
        assert!(!names.contains(&"bad"));
    }
}
