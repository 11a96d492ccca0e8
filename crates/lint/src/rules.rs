//! The eight crash-safety rules, plus the escape-hatch bookkeeping
//! (`allow-missing-reason` and `stale-allow` meta-findings). Five checks
//! (rules 1, 4, 6a, 7 and 8a) walk [`Graph::reach`] from a root set and
//! flag sites in everything reached; three (rules 2, 6b and 8b) scan every
//! function in a path scope; rules 3 and 5 check registries.

use crate::extract::{FnDef, NondetKind, PanicKind};
use crate::graph::{DefId, FileEntry, Graph};
use crate::Config;
use std::collections::{HashMap, HashSet};

/// A rule's site extractor: the `(line, message)` violations one function,
/// defined in the given file, contributes.
type Sites<'a> = &'a dyn Fn(&FnDef, &str) -> Vec<(u32, String)>;

/// Rule 1: panic on the recovery path.
pub const RECOVERY_PANIC: &str = "recovery-panic";
/// Rule 2: raw dead-memory read outside the validated-cursor layer.
pub const UNTRUSTED_READ: &str = "untrusted-read";
/// Rule 3: record codec without registry entry or golden sample.
pub const RECORD_REGISTRY: &str = "record-registry";
/// Rule 4: heap allocation on the panic/kexec handoff path.
pub const PANIC_PATH_ALLOC: &str = "panic-path-alloc";
/// Rule 5: malformed, duplicate, unregistered, or stale crash-point label.
pub const CRASH_POINT_LABEL: &str = "crash-point-label";
/// Rule 6: dead-kernel bytes adopted into live state without flowing
/// through a typed validated reader or the `WarmSeal`/`EpochCheckpoint`
/// codec.
pub const VALIDATE_BEFORE_ADOPT: &str = "validate-before-adopt";
/// Rule 7: a `writes-live-state` effect reachable from a validation pass
/// (validation must be write-free until the attempt stamp burns).
pub const VALIDATION_WRITE_FREE: &str = "validation-write-free";
/// Rule 8: a nondeterministic effect feeding campaign merged results, or a
/// raw (underived) RNG seed in campaign code.
pub const CAMPAIGN_DETERMINISM: &str = "campaign-determinism";
/// Meta: an allow directive with no `-- reason` justification.
pub const ALLOW_MISSING_REASON: &str = "allow-missing-reason";
/// Meta: an allow directive that suppresses nothing.
pub const STALE_ALLOW: &str = "stale-allow";

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (one of the constants in this module).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function, when the rule is function-scoped.
    pub function: String,
    /// Human-readable description.
    pub message: String,
    /// Call-graph witness path from a recovery/panic-path root, when the
    /// rule is reachability-based.
    pub via: Vec<String>,
}

/// Whether `label` follows the `area.component.action` naming grammar: at
/// least three dot-separated segments, each `[a-z][a-z0-9_]*`. Mirrors
/// `ow_crashpoint::label_grammar_ok`, kept local so the lint stays
/// dependency-free; `crates/crashpoint` unit tests pin the two in sync by
/// asserting the grammar over the same registry this rule reads.
fn label_grammar_ok(label: &str) -> bool {
    let segs: Vec<&str> = label.split('.').collect();
    segs.len() >= 3
        && segs.iter().all(|seg| {
            let mut chars = seg.chars();
            matches!(chars.next(), Some('a'..='z'))
                && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
        })
}

/// One escape-hatch directive currently suppressing a violation — the
/// active allow list `Report::to_json` exports and `BENCH_lint.json`
/// baselines.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The rules the directive allows.
    pub rules: Vec<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the directive.
    pub line: u32,
    /// The `-- <reason>` justification (empty when missing — which is
    /// itself an `allow-missing-reason` finding).
    pub reason: String,
}

/// Tracks which escape-hatch directives suppressed a violation.
struct Allows {
    /// `used[file][directive]`.
    used: Vec<Vec<bool>>,
}

impl Allows {
    fn new(files: &[FileEntry]) -> Self {
        Allows {
            used: files
                .iter()
                .map(|f| vec![false; f.model.directives.len()])
                .collect(),
        }
    }

    /// Tries to match a violation at `line` against a directive on the
    /// same or the preceding line that allows `rule`. Marks it used.
    fn try_allow(&mut self, files: &[FileEntry], file_idx: usize, line: u32, rule: &str) -> bool {
        for (di, d) in files[file_idx].model.directives.iter().enumerate() {
            let line_ok = d.line == line || d.line + 1 == line;
            if line_ok && d.allows.iter().any(|a| a == rule) {
                self.used[file_idx][di] = true;
                return true;
            }
        }
        false
    }
}

/// Runs every rule over the scanned files. Returns the findings (sorted by
/// file, line, rule) and the escape hatches actually in use.
pub fn check(cfg: &Config, files: &[FileEntry]) -> (Vec<Finding>, Vec<AllowEntry>) {
    let graph = Graph::build(files);
    let mut allows = Allows::new(files);
    let mut findings = Vec::new();
    let file_idx = |path: &str| files.iter().position(|f| f.path == path);
    let in_scope =
        |scope: &[String], path: &str| scope.iter().any(|p| path.starts_with(p.as_str()));
    // Every definition in the given files.
    let file_roots = |paths: &[String]| -> Vec<DefId> {
        paths.iter().flat_map(|f| graph.defs_in_file(f)).collect()
    };
    // Resolves `(file, fn name)` root pairs to definition ids.
    let named_roots = |pairs: &[(String, String)]| -> Vec<DefId> {
        pairs
            .iter()
            .flat_map(|(file, name)| {
                graph
                    .defs_in_file(file)
                    .into_iter()
                    .filter(|&id| graph.def(id).name == *name)
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let campaign_roots: Vec<DefId> = graph
        .all_defs()
        .filter(|&id| {
            in_scope(&cfg.determinism_scope, graph.file_of(id))
                && cfg.determinism_roots.contains(&graph.def(id).name)
        })
        .collect();

    // The reachability rules, one row each: the rule, its roots, whether
    // `contain(...)` stops the walk, and the sites a reached function
    // contributes. Only rule 1 stops there: the supervisor's boundary owns
    // a contained panic, but containment does not undo an allocation, a
    // write, or a nondeterministic read.
    let reach_rules: [(&str, Vec<DefId>, bool, Sites); 5] = [
        // Rule 1: panic-freedom of the recovery path.
        (
            RECOVERY_PANIC,
            file_roots(&cfg.recovery_roots),
            true,
            &|def, path| {
                let indexing_counts = in_scope(&cfg.index_scope, path);
                def.panics
                    .iter()
                    .filter(|site| !site.contained)
                    .filter_map(|site| {
                        let desc = match &site.kind {
                            PanicKind::Unwrap => "unwrap() can panic".to_string(),
                            PanicKind::Expect => "expect() can panic".to_string(),
                            PanicKind::Macro(m) => format!("{m}! can panic"),
                            PanicKind::Indexing if indexing_counts => {
                                "slice/array indexing can panic".to_string()
                            }
                            PanicKind::Indexing => return None,
                        };
                        Some((site.line, format!("{desc} on the recovery path")))
                    })
                    .collect()
            },
        ),
        // Rule 4: no-alloc panic path.
        (
            PANIC_PATH_ALLOC,
            file_roots(&cfg.panic_path),
            false,
            &|def, _| {
                def.kheap_allocs
                    .iter()
                    .map(|(line, what)| (*line, format!("{what} on the panic/kexec handoff path")))
                    .collect()
            },
        ),
        // Rule 6a: validate-before-adopt. No function reachable from the
        // adopt seam (`try_build_adopt_plan`, `rollback::apply`, the kexec
        // frame/morph adopters) may read raw `PhysMem` outside the codec
        // layer — on this path even the rule-2 file allowlist is not
        // enough, because the bytes it produces are *written back into
        // live kernel state*, so they must come through a typed validated
        // reader or the WarmSeal/EpochCheckpoint codec.
        (
            VALIDATE_BEFORE_ADOPT,
            named_roots(&cfg.adopt_roots),
            false,
            &|def, path| {
                if in_scope(&cfg.taint_exempt, path) {
                    return Vec::new();
                }
                def.taint_reads
                    .iter()
                    .map(|(line, method)| {
                        let message = format!(
                            "raw PhysMem::{method} feeds the adopt seam; dead-kernel bytes must \
                             flow through a typed validated reader or the \
                             WarmSeal/EpochCheckpoint codec before adoption"
                        );
                        (*line, message)
                    })
                    .collect()
            },
        ),
        // Rule 7: validation-write-free. Nothing reachable from a
        // validation pass may carry the writes-live-state effect —
        // DESIGN.md §14's "zero writes during validation"; the attempt
        // stamp burns only after the validation root returns.
        (
            VALIDATION_WRITE_FREE,
            named_roots(&cfg.validation_roots),
            false,
            &|def, _| {
                def.taint_writes
                    .iter()
                    .map(|(line, method)| {
                        let message = format!(
                            "PhysMem::{method} reachable from a validation pass; validation \
                             must be write-free until the attempt stamp burns"
                        );
                        (*line, message)
                    })
                    .collect()
            },
        ),
        // Rule 8a: campaign-determinism. Everything reachable from the
        // campaign/merge roots in the determinism scope feeds merged
        // results or JSON output, so it must not observe wall clock,
        // environment, thread identity, or HashMap/HashSet iteration order
        // — the byte-identical `--jobs` guarantee. Experiment bodies run
        // contained, and containment catches panics, not nondeterminism.
        (CAMPAIGN_DETERMINISM, campaign_roots, false, &|def, _| {
            def.nondet
                .iter()
                .filter(|site| site.kind != NondetKind::RawSeed)
                .map(|site| {
                    let message = format!(
                        "{} feeds merged campaign results; output must be byte-identical \
                         across --jobs",
                        site.what
                    );
                    (site.line, message)
                })
                .collect()
        }),
    ];
    for (rule, roots, skip_contained, sites) in reach_rules {
        let (mut reached, parents) = graph.reach(&roots, skip_contained);
        reached.sort_unstable();
        for id in reached {
            let (def, path) = (graph.def(id), graph.file_of(id));
            let Some(fi) = file_idx(path) else { continue };
            for (line, message) in sites(def, path) {
                if !allows.try_allow(files, fi, line, rule) {
                    findings.push(Finding {
                        rule: rule.to_string(),
                        file: path.to_string(),
                        line,
                        function: def.name.clone(),
                        message,
                        via: graph.witness(&parents, id),
                    });
                }
            }
        }
    }

    // The scope scans, one row each: the rule and the sites a function
    // contributes, none when its file is out of the rule's scope.
    let scope_rules: [(&str, Sites); 3] = [
        // Rule 2: untrusted-read taint.
        (UNTRUSTED_READ, &|def, path| {
            if in_scope(&cfg.taint_exempt, path) || cfg.taint_allow.iter().any(|(p, _)| p == path) {
                return Vec::new();
            }
            def.taint_reads
                .iter()
                .map(|(line, method)| {
                    let message = format!(
                        "raw PhysMem::{method} outside ow-layout and the allowlist; dead-kernel \
                         bytes must flow through validated cursors"
                    );
                    (*line, message)
                })
                .collect()
        }),
        // Rule 6b: within the adopt-write scope, a function that both
        // raw-reads and raw-writes `PhysMem` is adopting unvalidated bytes
        // by construction, reachable or not.
        (VALIDATE_BEFORE_ADOPT, &|def, path| {
            let Some((read_line, _)) = def.taint_reads.first() else {
                return Vec::new();
            };
            if !in_scope(&cfg.adopt_write_scope, path) {
                return Vec::new();
            }
            def.taint_writes
                .iter()
                .map(|(line, method)| {
                    let message = format!(
                        "PhysMem::{method} in a function that also raw-reads dead memory \
                         (line {read_line}); route the bytes through a validated codec before \
                         writing them into live state"
                    );
                    (*line, message)
                })
                .collect()
        }),
        // Rule 8b: raw RNG seeds, scope-wide — a seed is wrong at its
        // construction site, wherever that is.
        (CAMPAIGN_DETERMINISM, &|def, path| {
            if !in_scope(&cfg.determinism_scope, path) {
                return Vec::new();
            }
            def.nondet
                .iter()
                .filter(|site| site.kind == NondetKind::RawSeed)
                .map(|site| {
                    let message = format!(
                        "{}; campaign RNG seeds must derive via the \
                         stream_seed/experiment_seed family",
                        site.what
                    );
                    (site.line, message)
                })
                .collect()
        }),
    ];
    for (rule, sites) in scope_rules {
        for id in graph.all_defs() {
            let (def, path) = (graph.def(id), graph.file_of(id));
            let Some(fi) = file_idx(path) else { continue };
            for (line, message) in sites(def, path) {
                if !allows.try_allow(files, fi, line, rule) {
                    findings.push(Finding {
                        rule: rule.to_string(),
                        file: path.to_string(),
                        line,
                        function: def.name.clone(),
                        message,
                        via: Vec::new(),
                    });
                }
            }
        }
    }

    // Rule 3: record-codec completeness.
    let reg_args: HashSet<&str> = files
        .iter()
        .find(|f| f.path == cfg.registry_file)
        .map(|f| f.model.reg_macro_args.iter().map(String::as_str).collect())
        .unwrap_or_default();
    let samples: Vec<&str> = files
        .iter()
        .find(|f| f.path == cfg.samples_file)
        .map(|f| f.model.strings.iter().map(|(s, _)| s.as_str()).collect())
        .unwrap_or_default();
    for (fi, entry) in files.iter().enumerate() {
        for ri in &entry.model.record_impls {
            let t = ri.type_name.as_str();
            if !reg_args.contains(t) && !allows.try_allow(files, fi, ri.line, RECORD_REGISTRY) {
                findings.push(Finding {
                    rule: RECORD_REGISTRY.to_string(),
                    file: entry.path.clone(),
                    line: ri.line,
                    function: String::new(),
                    message: format!(
                        "impl Record for {t} has no reg!({t}) entry in {}",
                        cfg.registry_file
                    ),
                    via: Vec::new(),
                });
            }
            let sampled = samples
                .iter()
                .any(|s| *s == t || s.starts_with(&format!("{t}(")));
            if !sampled && !allows.try_allow(files, fi, ri.line, RECORD_REGISTRY) {
                findings.push(Finding {
                    rule: RECORD_REGISTRY.to_string(),
                    file: entry.path.clone(),
                    line: ri.line,
                    function: String::new(),
                    message: format!(
                        "impl Record for {t} has no golden-encoding sample case in {}",
                        cfg.samples_file
                    ),
                    via: Vec::new(),
                });
            }
        }
    }

    // Rule 5: crash-point label discipline. Campaign cells are addressed by
    // label (`--point <label>`), so a malformed, colliding, unregistered,
    // or stale label silently breaks reproduction-by-name.
    let registry_labels: Vec<(&str, u32)> = files
        .iter()
        .find(|f| f.path == cfg.crashpoint_registry_file)
        .map(|f| {
            f.model
                .strings
                .iter()
                .filter(|(s, _)| label_grammar_ok(s))
                .map(|(s, l)| (s.as_str(), *l))
                .collect()
        })
        .unwrap_or_default();
    let mut first_site: HashMap<&str, (&str, u32)> = HashMap::new();
    let mut hit_labels: HashSet<&str> = HashSet::new();
    for (fi, entry) in files.iter().enumerate() {
        for (label, line) in &entry.model.crash_point_labels {
            hit_labels.insert(label.as_str());
            if !label_grammar_ok(label) {
                if !allows.try_allow(files, fi, *line, CRASH_POINT_LABEL) {
                    findings.push(Finding {
                        rule: CRASH_POINT_LABEL.to_string(),
                        file: entry.path.clone(),
                        line: *line,
                        function: String::new(),
                        message: format!(
                            "crash_point!(\"{label}\") does not match the \
                             `area.component.action` label grammar"
                        ),
                        via: Vec::new(),
                    });
                }
                // A malformed label cannot be meaningfully registered;
                // don't pile a second finding onto the same site.
                continue;
            }
            if let Some(&(ffile, fline)) = first_site.get(label.as_str()) {
                if !allows.try_allow(files, fi, *line, CRASH_POINT_LABEL) {
                    findings.push(Finding {
                        rule: CRASH_POINT_LABEL.to_string(),
                        file: entry.path.clone(),
                        line: *line,
                        function: String::new(),
                        message: format!(
                            "crash_point!(\"{label}\") duplicates the label at {ffile}:{fline}; \
                             labels must be unique workspace-wide"
                        ),
                        via: Vec::new(),
                    });
                }
                continue;
            }
            first_site.insert(label.as_str(), (entry.path.as_str(), *line));
            if !registry_labels.iter().any(|(r, _)| *r == label)
                && !allows.try_allow(files, fi, *line, CRASH_POINT_LABEL)
            {
                findings.push(Finding {
                    rule: CRASH_POINT_LABEL.to_string(),
                    file: entry.path.clone(),
                    line: *line,
                    function: String::new(),
                    message: format!(
                        "crash_point!(\"{label}\") is not declared in {}",
                        cfg.crashpoint_registry_file
                    ),
                    via: Vec::new(),
                });
            }
        }
    }
    if let Some(reg_fi) = file_idx(&cfg.crashpoint_registry_file) {
        for &(label, line) in &registry_labels {
            if !hit_labels.contains(label)
                && !allows.try_allow(files, reg_fi, line, CRASH_POINT_LABEL)
            {
                findings.push(Finding {
                    rule: CRASH_POINT_LABEL.to_string(),
                    file: cfg.crashpoint_registry_file.clone(),
                    line,
                    function: String::new(),
                    message: format!(
                        "registered crash point \"{label}\" has no crash_point!(\"{label}\") \
                         site; stale registry entry"
                    ),
                    via: Vec::new(),
                });
            }
        }
    }

    // Meta-findings: every used directive needs a reason, every unused
    // directive is stale.
    let mut allow_list: Vec<AllowEntry> = Vec::new();
    for (fi, entry) in files.iter().enumerate() {
        for (di, d) in entry.model.directives.iter().enumerate() {
            if allows.used[fi][di] {
                allow_list.push(AllowEntry {
                    rules: d.allows.clone(),
                    file: entry.path.clone(),
                    line: d.line,
                    reason: d.reason.clone().unwrap_or_default(),
                });
                if d.reason.is_none() {
                    findings.push(Finding {
                        rule: ALLOW_MISSING_REASON.to_string(),
                        file: entry.path.clone(),
                        line: d.line,
                        function: String::new(),
                        message: format!(
                            "ow-lint: allow({}) needs a `-- <reason>` justification",
                            d.allows.join(", ")
                        ),
                        via: Vec::new(),
                    });
                }
            } else {
                findings.push(Finding {
                    rule: STALE_ALLOW.to_string(),
                    file: entry.path.clone(),
                    line: d.line,
                    function: String::new(),
                    message: format!(
                        "ow-lint: allow({}) suppresses nothing; remove it",
                        d.allows.join(", ")
                    ),
                    via: Vec::new(),
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    allow_list.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    (findings, allow_list)
}
