//! Containment masks only panics. `supervisor::contain(...)` owns a panic
//! raised inside it, so the recovery-panic walk stops there; it does not
//! undo an allocation or a write, so the panic-path and validation rules
//! walk through it, and `--effects` reports what they report.

use ow_lint::extract::extract;
use ow_lint::graph::{FileEntry, Graph};
use ow_lint::lexer::lex;
use ow_lint::Finding;

fn entry(path: &str, src: &str) -> FileEntry {
    let (toks, directives) = lex(src);
    FileEntry {
        path: path.to_string(),
        model: extract(&toks, directives, false),
    }
}

fn check(files: &[FileEntry]) -> Vec<Finding> {
    let cfg = ow_lint::Config::workspace(std::path::Path::new("."));
    ow_lint::rules::check(&cfg, files).0
}

#[test]
fn contained_allocation_is_still_on_the_panic_path() {
    let files = vec![
        entry(
            "crates/kernel/src/panic.rs",
            "pub fn do_panic(k: &mut Kernel) {\ncontain(|| helper(k));\n}\n",
        ),
        entry(
            "crates/kernel/src/scratch.rs",
            "pub fn helper(k: &mut Kernel) {\nk.kheap.alloc(64);\n}\n",
        ),
    ];
    let findings = check(&files);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, "panic-path-alloc");
    assert_eq!(
        (f.file.as_str(), f.line),
        ("crates/kernel/src/scratch.rs", 2)
    );
    assert_eq!(
        f.via,
        vec![
            "crates/kernel/src/panic.rs:do_panic",
            "crates/kernel/src/scratch.rs:helper"
        ]
    );

    // The effect summary of the root agrees with the rule, witness and all.
    let g = Graph::build(&files);
    let root = g
        .all_defs()
        .find(|&id| g.def(id).name == "do_panic")
        .unwrap();
    let summary = ow_lint::effects::summary(&g, root);
    assert_eq!(summary.len(), 1, "{summary:?}");
    assert_eq!(summary[0].0, "allocates");
    assert_eq!(summary[0].1.path, f.via);
}

#[test]
fn contained_write_is_still_inside_the_validation_pass() {
    let files = vec![entry(
        "crates/core/src/rollback.rs",
        "pub fn validate(k: &Kernel) -> bool {\ncontain(|| stamp(k));\ntrue\n}\n\
         fn stamp(k: &Kernel) {\nk.machine.phys.write_u64(0, 1);\n}\n",
    )];
    let findings = check(&files);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, "validation-write-free");
    assert_eq!((f.function.as_str(), f.line), ("stamp", 6));
    assert_eq!(
        f.via,
        vec![
            "crates/core/src/rollback.rs:validate",
            "crates/core/src/rollback.rs:stamp"
        ]
    );
}

#[test]
fn contained_panic_is_off_the_recovery_path() {
    // Every function in a recovery-root file is a root, so the contained
    // callee lives elsewhere.
    let files = vec![
        entry(
            "crates/core/src/otherworld.rs",
            "pub fn microreboot() {\ncontain(|| risky());\n}\n",
        ),
        entry(
            "crates/core/src/deep.rs",
            "pub fn risky() {\nx.unwrap();\n}\n",
        ),
    ];
    let findings = check(&files);
    assert!(findings.is_empty(), "{findings:#?}");
}
