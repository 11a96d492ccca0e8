//! ow-lint: crash-safety static analysis for the Otherworld workspace.
//!
//! Otherworld's crash kernel walks the raw, possibly corrupted physical
//! memory of a dead kernel (§4 of the paper); this tool machine-checks the
//! discipline that makes that survivable. Eight invariants:
//!
//! 1. **recovery-panic** — no `unwrap`/`expect`/`panic!`-family macro, and
//!    no slice indexing in dead-data-handling crates, in any function
//!    transitively reachable from the crash-kernel entry points
//!    (`crates/core/src/{otherworld,reader,resurrect,supervisor}.rs`).
//!    Calls inside `supervisor::contain(...)` arguments are exempt: that
//!    is the runtime containment boundary, and injected faults live there
//!    by design.
//! 2. **untrusted-read** — no direct `PhysMem` reads outside `ow-layout`,
//!    `ow-simhw`, and an explicit allowlist, so every byte from the dead
//!    kernel flows through magic/CRC/bounds-checked cursors.
//! 3. **record-registry** — every `impl Record for T` has a `reg!(T)`
//!    layout-registry entry and a golden-encoding sample case.
//! 4. **panic-path-alloc** — the panic/kexec handoff makes no `kheap`
//!    allocations, inside `contain(...)` or not.
//! 5. **crash-point-label** — every `crash_point!` label matches the
//!    `area.component.action` grammar, is unique workspace-wide, and is
//!    declared in the crash-point registry; a registered label no code
//!    hits is stale.
//! 6. **validate-before-adopt** — dead-kernel bytes reaching the adopt
//!    seam (`try_build_adopt_plan`, `rollback::apply`, the kexec
//!    frame/morph adopters) must flow through a typed validated reader or
//!    the `WarmSeal`/`EpochCheckpoint` codec before being written into
//!    live kernel state; in `crates/core` a function that both raw-reads
//!    and raw-writes `PhysMem` is flagged by construction.
//! 7. **validation-write-free** — nothing reachable from the rollback
//!    freshness check or `try_build_adopt_plan` carries the
//!    `writes-live-state` effect; validation is write-free until the
//!    attempt stamp burns (DESIGN.md §14).
//! 8. **campaign-determinism** — in `crates/faultinject` and
//!    `crates/bench`, nothing reachable from the campaign/merge roots
//!    observes wall clock, environment, thread identity, or
//!    `HashMap`/`HashSet` iteration order, and every RNG seed derives via
//!    the `stream_seed`/`experiment_seed` family — the byte-identical
//!    `--jobs` guarantee.
//!
//! Rules 1, 4, 6, 7 and 8 flag sites in everything their roots reach on
//! one call graph ([`graph::Graph::reach`]). Only rule 1 stops at
//! `contain(...)`: containment catches a panic, but it does not undo an
//! allocation, a write, or a nondeterministic read. The same walk gives
//! each function its effect summary ([`effects`]): which of five effects —
//! `reads-dead-memory`, `writes-live-state`, `allocates`, `panics`,
//! `nondeterministic` — its execution may have. `ow-lint --effects <fn>`
//! prints a function's summary with one witness path per effect.
//!
//! The escape hatch is a justified comment on (or directly above) the
//! offending line: `// ow-lint: allow(<rule>) -- <reason>`. An allow
//! without a reason, or one that suppresses nothing, is itself a finding;
//! the active allow list is exported in the `--json` report and baselined
//! in `BENCH_lint.json` so it cannot grow silently.
//!
//! The analysis is a hand-rolled lexer plus a name-based call graph — no
//! dependencies, no rustc internals — so it runs as a tier-1 CI gate on a
//! bare toolchain. It is deliberately over-approximate where receiver
//! types are unknown, and blind to calls through function pointers
//! (`(image.fresh)(...)`); the supervisor's runtime containment covers
//! that residue.

#![forbid(unsafe_code)]

pub mod effects;
pub mod extract;
pub mod graph;
pub mod lexer;
pub mod rules;

pub use rules::{AllowEntry, Finding};

use graph::FileEntry;
use std::path::{Path, PathBuf};

/// What to scan and which files anchor each rule.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; all other paths are relative to it.
    pub root: PathBuf,
    /// Directories (relative) to scan for `.rs` files.
    pub scan: Vec<String>,
    /// Files whose non-test functions are recovery-path roots (rule 1).
    pub recovery_roots: Vec<String>,
    /// Files whose functions are panic-path roots (rule 4).
    pub panic_path: Vec<String>,
    /// Path prefixes where slice indexing counts as a rule-1 violation —
    /// the crates that handle dead-kernel data. Elsewhere only
    /// unwrap/expect/panic-macros are flagged: the main kernel indexing
    /// its own live structures is not walking untrusted memory.
    pub index_scope: Vec<String>,
    /// Path prefixes exempt from rule 2 (the validated-cursor layer
    /// itself and the simulated hardware).
    pub taint_exempt: Vec<String>,
    /// Files allowed to read `PhysMem` directly, with the reason why.
    pub taint_allow: Vec<(String, String)>,
    /// The layout registry file (rule 3 `reg!` entries).
    pub registry_file: String,
    /// The golden-sample file (rule 3 sample cases).
    pub samples_file: String,
    /// The crash-point registry file (rule 5 label declarations).
    pub crashpoint_registry_file: String,
    /// `(file, fn)` roots of the adopt seam (rule 6): functions that write
    /// dead-kernel-derived values into live kernel state.
    pub adopt_roots: Vec<(String, String)>,
    /// Path prefixes where a function mixing raw `PhysMem` reads and
    /// writes is a rule-6 finding by construction.
    pub adopt_write_scope: Vec<String>,
    /// `(file, fn)` roots of the validation passes (rule 7): everything
    /// they reach must be free of the `writes-live-state` effect.
    pub validation_roots: Vec<(String, String)>,
    /// Path prefixes where campaign determinism (rule 8) applies.
    pub determinism_scope: Vec<String>,
    /// Function names (within the determinism scope) that produce or merge
    /// campaign results — the rule-8 reachability roots.
    pub determinism_roots: Vec<String>,
}

impl Config {
    /// The real Otherworld workspace layout, rooted at `root`.
    pub fn workspace(root: &Path) -> Config {
        let s = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        Config {
            root: root.to_path_buf(),
            // apps (user programs outside the kernel trust boundary, run
            // under containment) are not scanned; see DESIGN.md. bench and
            // faultinject are scanned for rule 8 only — their panics are
            // harness-side and unreachable from the rule-1/4 roots.
            scan: s(&[
                "crates/bench",
                "crates/core",
                "crates/crashpoint",
                "crates/faultinject",
                "crates/kernel",
                "crates/layout",
                "crates/simhw",
                "crates/trace",
                "crates/lint",
                "src",
            ]),
            recovery_roots: s(&[
                "crates/core/src/otherworld.rs",
                "crates/core/src/reader.rs",
                "crates/core/src/resurrect.rs",
                "crates/core/src/supervisor.rs",
            ]),
            panic_path: s(&["crates/kernel/src/panic.rs", "crates/kernel/src/kexec.rs"]),
            // simhw is deliberately absent: the hardware model's accessors
            // are the bounds-checking layer itself (`Result`-returning,
            // `check()`-guarded), and its buffers are the backing store —
            // a wild write in the *simulated* kernel cannot change a host
            // `Vec`'s length. Its unwraps/asserts are still rule-1 sites.
            index_scope: s(&["crates/core/", "crates/layout/", "crates/trace/"]),
            taint_exempt: s(&["crates/layout/", "crates/simhw/", "crates/lint/"]),
            taint_allow: vec![
                (
                    "crates/kernel/src/ipc.rs".to_string(),
                    "main kernel moving bytes through memory it owns".to_string(),
                ),
                (
                    "crates/kernel/src/swap.rs".to_string(),
                    "main kernel paging its own frames to its own swap".to_string(),
                ),
                (
                    "crates/kernel/src/pagecache.rs".to_string(),
                    "main kernel filling cache frames it just allocated".to_string(),
                ),
                (
                    "crates/kernel/src/term.rs".to_string(),
                    "main kernel rendering its own terminal frames".to_string(),
                ),
                (
                    "crates/kernel/src/vm.rs".to_string(),
                    "page-table walks over live mappings the main kernel owns".to_string(),
                ),
                (
                    "crates/trace/src/ring.rs".to_string(),
                    "the recorder owns its reserved ring frames".to_string(),
                ),
                (
                    "crates/trace/src/recover.rs".to_string(),
                    "CRC-framed ring recovery; every record is validated before use".to_string(),
                ),
                (
                    "crates/faultinject/src/recovery.rs".to_string(),
                    "fault injector reading sealed checkpoint bytes to corrupt them; \
                     harness-side wild writes are the point"
                        .to_string(),
                ),
            ],
            registry_file: "crates/layout/src/registry.rs".to_string(),
            samples_file: "crates/layout/src/samples.rs".to_string(),
            crashpoint_registry_file: "crates/crashpoint/src/registry.rs".to_string(),
            adopt_roots: pairs(&[
                ("crates/core/src/otherworld.rs", "try_build_adopt_plan"),
                ("crates/core/src/rollback.rs", "apply"),
                ("crates/kernel/src/kexec.rs", "adopt_frames"),
                ("crates/kernel/src/kexec.rs", "morph_into_main_with"),
            ]),
            adopt_write_scope: s(&["crates/core/"]),
            validation_roots: pairs(&[
                ("crates/core/src/rollback.rs", "validate"),
                ("crates/core/src/otherworld.rs", "try_build_adopt_plan"),
            ]),
            determinism_scope: s(&["crates/faultinject/", "crates/bench/"]),
            determinism_roots: s(&[
                "run_campaign",
                "run_recovery_campaign",
                "campaign_crashpoints",
                "run_indexed",
                "parallel_map",
                "table3_jobs",
                "table3_json",
                "table4",
                "crashpoints_json",
                "table5_json",
                "recovery_json",
                "table6_json",
                "table6_matrix",
                "campaign_json",
                "to_json",
            ]),
        }
    }
}

fn pairs(v: &[(&str, &str)]) -> Vec<(String, String)> {
    v.iter()
        .map(|(a, b)| ((*a).to_string(), (*b).to_string()))
        .collect()
}

/// The result of a lint run.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by file, line, rule.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub scanned_files: usize,
    /// Every escape-hatch directive currently suppressing something,
    /// sorted by file and line.
    pub allows: Vec<AllowEntry>,
    /// Number of escape-hatch directives currently suppressing something.
    pub allows_used: usize,
}

impl Report {
    /// Machine-readable rendering for trend tracking (`--json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"file\":{},\"line\":{},\"function\":{},\"message\":{},\"via\":[",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.function),
                json_str(&f.message),
            ));
            for (j, v) in f.via.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(v));
            }
            out.push_str("]}");
        }
        out.push_str("],\"allows\":[");
        for (i, a) in self.allows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rules\":[");
            for (j, r) in a.rules.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(r));
            }
            out.push_str(&format!(
                "],\"file\":{},\"line\":{},\"reason\":{}}}",
                json_str(&a.file),
                a.line,
                json_str(&a.reason),
            ));
        }
        out.push_str(&format!(
            "],\"scanned_files\":{},\"allows_used\":{}}}",
            self.scanned_files, self.allows_used
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs the lint. Fails only on I/O problems (unreadable root); findings
/// are data, not errors.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let files = load_files(cfg)?;
    let (findings, allows) = rules::check(cfg, &files);
    let allows_used = allows.len();
    Ok(Report {
        findings,
        scanned_files: files.len(),
        allows,
        allows_used,
    })
}

/// Loads and extracts every file in the scan set, deterministic order.
pub fn load_files(cfg: &Config) -> Result<Vec<FileEntry>, String> {
    let mut paths = Vec::new();
    for dir in &cfg.scan {
        let p = cfg.root.join(dir);
        if p.exists() {
            walk(&p, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for p in &paths {
        let rel = p
            .strip_prefix(&cfg.root)
            .map_err(|e| e.to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let (toks, directives) = lexer::lex(&src);
        let force_test = rel
            .split('/')
            .any(|seg| seg == "tests" || seg == "benches" || seg == "examples");
        let model = extract::extract(&toks, directives, force_test);
        files.push(FileEntry { path: rel, model });
    }
    Ok(files)
}

/// Renders the effect summary of every workspace function named (or
/// `Type::`-qualified as) `function`, with one witness path per effect —
/// the `--effects` debug subcommand. Errors when nothing matches.
pub fn effects_of(cfg: &Config, function: &str) -> Result<String, String> {
    let files = load_files(cfg)?;
    let graph = graph::Graph::build(&files);
    let mut out = String::new();
    let mut matched = false;
    for id in graph.all_defs() {
        let def = graph.def(id);
        let qualified = match &def.ctx {
            Some(c) => format!("{c}::{}", def.name),
            None => def.name.clone(),
        };
        if def.name != function && qualified != function {
            continue;
        }
        matched = true;
        let summary = effects::summary(&graph, id);
        let names: Vec<&str> = summary.iter().map(|(name, _)| *name).collect();
        let effects = if names.is_empty() {
            "(pure)".to_string()
        } else {
            names.join(" + ")
        };
        out.push_str(&format!(
            "{}:{} fn {qualified}\n  effects: {effects}\n",
            graph.file_of(id),
            def.line,
        ));
        for (name, w) in summary {
            out.push_str(&format!(
                "  {name}: {} at line {}\n    via {}\n",
                w.what,
                w.line,
                w.path.join(" -> "),
            ));
        }
    }
    if !matched {
        return Err(format!("no workspace function named `{function}`"));
    }
    Ok(out)
}

/// Recursive `.rs` discovery, deterministic order, skipping build output,
/// VCS internals, and the lint's own seeded-violation fixtures.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .collect();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for e in entries {
        let p = e.path();
        let name = e.file_name().to_string_lossy().into_owned();
        if p.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}
