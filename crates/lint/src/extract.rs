//! Per-function extraction: walks the token stream of one file and builds
//! a model of every function — its qualified name, the calls it makes, the
//! panic-capable sites it contains, its raw `PhysMem` reads and writes,
//! its `kheap` allocations, and its nondeterminism sites (wall clock,
//! environment, thread identity, `HashMap`/`HashSet` iteration, raw-seed
//! RNG construction). These per-function facts are the *intrinsic* effects;
//! [`crate::effects`] unions them over everything a function reaches.
//!
//! Resolution is name-based and deliberately over-approximate (a method
//! call `.foo(` may match several `impl` blocks); the call-graph layer
//! resolves against workspace definitions only, so `std` names fall away.

use crate::lexer::{Directive, Tok, Token};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(...)` — a free function.
    Free,
    /// `x.foo(...)` — a method; `receiver` is the identifier immediately
    /// before the dot, when there is one (`x.y.foo()` yields `y`).
    Method {
        /// Last identifier of the receiver chain, if lexically evident.
        receiver: Option<String>,
    },
    /// `A::foo(...)` — qualified; `qualifier` is the segment before `::`.
    Qualified {
        /// Path segment immediately before the final `::`.
        qualifier: String,
    },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (final path segment).
    pub name: String,
    /// Call flavor, for resolution.
    pub kind: CallKind,
    /// 1-based line.
    pub line: u32,
    /// True when the call happens inside a `contain(...)` argument — the
    /// supervisor's runtime panic-containment boundary.
    pub contained: bool,
    /// True when the first argument is a closure (`|..|` / `move |..|`).
    /// A closure-taking method on an *unknown* receiver is almost always a
    /// std iterator/`Option`/`Result` adapter (`.map`, `.filter`, …), so
    /// resolution skips it instead of matching same-named workspace
    /// methods; the closure body's own calls are still attributed to the
    /// caller, so nothing inside the closure is lost.
    pub closure_arg: bool,
}

/// Why a site can panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` / `.unwrap_err()`.
    Unwrap,
    /// `.expect(..)` / `.expect_err(..)`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` /
    /// `assert*!` (the name is kept for the report).
    Macro(String),
    /// `expr[index]` — slice/array indexing, which panics out of bounds.
    Indexing,
}

/// One potentially panicking site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What kind of panic this is.
    pub kind: PanicKind,
    /// 1-based line.
    pub line: u32,
    /// Inside a `contain(...)` argument (runtime-contained, so exempt).
    pub contained: bool,
}

/// Why a site is nondeterministic (rule 8 / the `nondeterministic` effect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NondetKind {
    /// `Instant::now` / `SystemTime::now` — wall-clock time.
    Time,
    /// `env::var` / `env::var_os` — process environment.
    Env,
    /// `thread::current` / `available_parallelism` — host topology.
    Thread,
    /// Iteration over a `HashMap`/`HashSet` — unordered by design.
    MapIter,
    /// `SimRng` built from a seed that does not derive via the
    /// `stream_seed`/`experiment_seed` family.
    RawSeed,
}

/// One nondeterministic site.
#[derive(Debug, Clone)]
pub struct NondetSite {
    /// Why the site is nondeterministic.
    pub kind: NondetKind,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of what was matched.
    pub what: String,
}

/// One extracted function.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// `impl`/`trait` context (last path segment of the self type), if any.
    pub ctx: Option<String>,
    /// Whether the context was a `trait` block (so the body is a default
    /// method usable by every implementor).
    pub ctx_is_trait: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// All call sites.
    pub calls: Vec<Call>,
    /// All panic-capable sites.
    pub panics: Vec<PanicSite>,
    /// `phys.read*`/`phys.slice*` sites: (line, method name).
    pub taint_reads: Vec<(u32, String)>,
    /// `phys.write*`/`phys.slice_mut`/frame-store sites: (line, method).
    pub taint_writes: Vec<(u32, String)>,
    /// `kheap.alloc`/`kheap.free`/`KHeap::…` sites: (line, description).
    pub kheap_allocs: Vec<(u32, String)>,
    /// Nondeterministic sites (time, env, thread, map iteration, raw-seed
    /// RNG construction).
    pub nondet: Vec<NondetSite>,
    /// Defined inside a `#[cfg(test)]` region (or a tests/ file).
    pub in_test: bool,
    /// Locally inferred binding types: `(name, type last segment)` from
    /// parameter annotations, `let x: T`, and `let x = T::ctor(...)` /
    /// `let x = T { ... }`. Used to disambiguate method-call receivers.
    pub types: Vec<(String, String)>,
}

/// A whole-file record-codec fact: `impl Record for X` at some line.
#[derive(Debug, Clone)]
pub struct RecordImpl {
    /// The implementing type's name.
    pub type_name: String,
    /// 1-based line of the `impl`.
    pub line: u32,
}

/// Everything extracted from one source file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Functions defined in the file (test functions included, flagged).
    pub fns: Vec<FnDef>,
    /// `impl Record for X` sites.
    pub record_impls: Vec<RecordImpl>,
    /// Escape-hatch directives.
    pub directives: Vec<Directive>,
    /// Every string literal in the file with its 1-based line (for
    /// registry/sample matching).
    pub strings: Vec<(String, u32)>,
    /// `reg!(X)` macro argument names (layout-registry entries).
    pub reg_macro_args: Vec<String>,
    /// `crash_point!("label")` call sites outside test code: (label, line).
    pub crash_point_labels: Vec<(String, u32)>,
    /// Identifiers annotated `: HashMap<…>` / `: HashSet<…>` anywhere in
    /// the file (struct fields and bindings alike) — iteration over them
    /// is order-nondeterministic.
    pub map_typed: Vec<String>,
}

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

const PHYS_READ_METHODS: &[&str] = &[
    "read",
    "read_u8",
    "read_u16",
    "read_u32",
    "read_u64",
    "slice",
    "slice_mut",
];

const PHYS_WRITE_METHODS: &[&str] = &[
    "write",
    "write_u8",
    "write_u16",
    "write_u32",
    "write_u64",
    "slice_mut",
    "zero_frame",
    "copy_frame",
    "corrupt_u64",
];

/// Method names whose invocation observes a `HashMap`/`HashSet`'s
/// unordered internal layout.
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Identifier names that mark a seed expression as *derived* — flowing
/// through the splitmix-based stream/experiment seed family (or any
/// binding whose name says it carries a seed).
fn is_seed_derived_ident(s: &str) -> bool {
    s.contains("seed") || s == "mix64"
}

/// Keywords that can precede `[` without the bracket being an index
/// expression, and that are never call names.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

fn punct(t: &Token, c: char) -> bool {
    t.tok == Tok::Punct(c)
}

/// Extracts the model of one lexed file. `force_test` marks every function
/// as test code (used for files under `tests/`, `benches/`, `examples/`).
pub fn extract(toks: &[Token], directives: Vec<Directive>, force_test: bool) -> FileModel {
    let mut model = FileModel {
        directives,
        ..FileModel::default()
    };
    for t in toks {
        if let Tok::Str(s) = &t.tok {
            model.strings.push((s.clone(), t.line));
        }
    }
    collect_reg_macros(toks, &mut model);
    collect_map_typed(toks, &mut model);
    let map_typed = model.map_typed.clone();
    let test_spans = if force_test {
        vec![(0, toks.len())]
    } else {
        cfg_test_spans(toks)
    };
    collect_crash_points(toks, &test_spans, &mut model);

    // Context stack: (brace depth when the block opened, name, is_trait).
    let mut ctx: Vec<(i32, String, bool)> = Vec::new();
    let mut depth: i32 = 0;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                while matches!(ctx.last(), Some((d, _, _)) if *d > depth) {
                    ctx.pop();
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                let is_trait = kw == "trait";
                if let Some((name, trait_name, body_open)) = parse_block_header(toks, i, is_trait) {
                    if let (Some(tn), false) = (&trait_name, is_trait) {
                        if tn == "Record" {
                            model.record_impls.push(RecordImpl {
                                type_name: name.clone(),
                                line: toks[i].line,
                            });
                        }
                    }
                    ctx.push((depth + 1, name, is_trait));
                    depth += 1;
                    i = body_open + 1;
                } else {
                    i += 1;
                }
            }
            Tok::Ident(kw) if kw == "fn" => {
                let in_test = force_test || test_spans.iter().any(|&(a, b)| i >= a && i < b);
                let (def, next) = parse_fn(toks, i, &ctx, in_test, &map_typed);
                if let Some(d) = def {
                    model.fns.push(d);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    model
}

/// Finds `reg!(Name)` macro invocations.
fn collect_reg_macros(toks: &[Token], model: &mut FileModel) {
    for w in toks.windows(4) {
        if ident(&w[0]) == Some("reg") && punct(&w[1], '!') && punct(&w[2], '(') {
            if let Some(name) = ident(&w[3]) {
                model.reg_macro_args.push(name.to_string());
            }
        }
    }
}

/// Finds `name: HashMap<…>` / `name: HashSet<…>` annotations anywhere in
/// the file — struct fields and `let`/parameter bindings look identical
/// lexically, and either makes later iteration over `name` unordered.
fn collect_map_typed(toks: &[Token], model: &mut FileModel) {
    let mut i = 0usize;
    while i + 2 < toks.len() {
        let is_annot = ident(&toks[i]).is_some_and(|s| !is_keyword(s))
            && punct(&toks[i + 1], ':')
            && !punct(&toks[i + 2], ':');
        if is_annot {
            let name = ident(&toks[i]).unwrap_or_default().to_string();
            let mut j = i + 2;
            if let Some(t) = read_type(toks, &mut j) {
                if (t == "HashMap" || t == "HashSet") && !model.map_typed.contains(&name) {
                    model.map_typed.push(name);
                }
            }
            i += 1;
        } else {
            i += 1;
        }
    }
}

/// Finds `crash_point!("label")` invocations, skipping test code (tests
/// arm synthetic labels that are not part of the shipped registry).
fn collect_crash_points(toks: &[Token], test_spans: &[(usize, usize)], model: &mut FileModel) {
    for (i, w) in toks.windows(4).enumerate() {
        if ident(&w[0]) == Some("crash_point") && punct(&w[1], '!') && punct(&w[2], '(') {
            if let Tok::Str(label) = &w[3].tok {
                if !test_spans.iter().any(|&(a, b)| i >= a && i < b) {
                    model.crash_point_labels.push((label.clone(), w[3].line));
                }
            }
        }
    }
}

/// Token spans covered by `#[cfg(test)]` + following item (module or fn).
fn cfg_test_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = punct(&toks[i], '#')
            && punct(&toks[i + 1], '[')
            && ident(&toks[i + 2]) == Some("cfg")
            && punct(&toks[i + 3], '(')
            && ident(&toks[i + 4]) == Some("test")
            && punct(&toks[i + 5], ')')
            && punct(&toks[i + 6], ']');
        if is_cfg_test {
            // The guarded item runs to its matching close brace.
            let mut j = i + 7;
            let mut d = 0i32;
            let mut opened = false;
            while j < toks.len() {
                if punct(&toks[j], '{') {
                    d += 1;
                    opened = true;
                } else if punct(&toks[j], '}') {
                    d -= 1;
                    if opened && d == 0 {
                        break;
                    }
                } else if punct(&toks[j], ';') && !opened {
                    break;
                }
                j += 1;
            }
            spans.push((i, (j + 1).min(toks.len())));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

/// Parses an `impl`/`trait` block header starting at `start` (the keyword).
/// Returns (context type name, implemented trait name, index of the `{`).
fn parse_block_header(
    toks: &[Token],
    start: usize,
    is_trait: bool,
) -> Option<(String, Option<String>, usize)> {
    let mut i = start + 1;
    // Skip generic parameters after the keyword.
    i = skip_generics(toks, i);
    let first = read_path_last_segment(toks, &mut i)?;
    if is_trait {
        let open = find_body_open(toks, i)?;
        return Some((first, None, open));
    }
    // `impl Trait for Type {` or `impl Type {`.
    let mut trait_name = None;
    let mut type_name = first;
    if ident(toks.get(i)?) == Some("for") {
        i += 1;
        let second = read_path_last_segment(toks, &mut i)?;
        trait_name = Some(type_name);
        type_name = second;
    }
    let open = find_body_open(toks, i)?;
    Some((type_name, trait_name, open))
}

/// Skips a balanced `<...>` group if one starts at `i`.
fn skip_generics(toks: &[Token], mut i: usize) -> usize {
    if toks.get(i).map(|t| punct(t, '<')) != Some(true) {
        return i;
    }
    let mut d = 0i32;
    while i < toks.len() {
        if punct(&toks[i], '<') {
            d += 1;
        } else if punct(&toks[i], '>') {
            d -= 1;
            if d == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Reads a (possibly generic) path and returns its final segment,
/// advancing `i` past it. `&mut PhysMem` style sigils are skipped first.
fn read_path_last_segment(toks: &[Token], i: &mut usize) -> Option<String> {
    while matches!(toks.get(*i)?.tok, Tok::Punct('&') | Tok::Punct('\'')) {
        *i += 1;
    }
    if matches!(&toks.get(*i)?.tok, Tok::Lifetime) {
        *i += 1;
    }
    if ident(toks.get(*i)?) == Some("mut") {
        *i += 1;
    }
    let mut last;
    loop {
        let seg = ident(toks.get(*i)?)?.to_string();
        *i += 1;
        *i = skip_generics(toks, *i);
        last = Some(seg);
        // Continue through `::`.
        if punct(toks.get(*i)?, ':') && toks.get(*i + 1).map(|t| punct(t, ':')) == Some(true) {
            *i += 2;
        } else {
            break;
        }
    }
    last
}

/// Finds the `{` opening the block body, skipping a `where` clause.
fn find_body_open(toks: &[Token], mut i: usize) -> Option<usize> {
    let mut angle = 0i32;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('{') if angle <= 0 => return Some(i),
            Tok::Punct(';') if angle <= 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses one `fn` item starting at the `fn` keyword; returns the model
/// (None for a bodiless trait-method declaration) and the index to resume
/// scanning at — the token *after* the signature, so nested items inside
/// the body are found by the main loop… except we fully consume the body
/// here to collect sites, so resumption is after the body instead; nested
/// `fn` items are extracted recursively below.
fn parse_fn(
    toks: &[Token],
    start: usize,
    ctx: &[(i32, String, bool)],
    in_test: bool,
    map_typed: &[String],
) -> (Option<FnDef>, usize) {
    let name = match toks.get(start + 1).and_then(ident) {
        Some(n) => n.to_string(),
        None => return (None, start + 1),
    };
    // Locate the body `{` (or `;` for a bodiless declaration): scan past
    // the signature with paren/angle balancing.
    let mut i = start + 2;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut body_open = None;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
            Tok::Punct('<') if paren == 0 => angle += 1,
            Tok::Punct('>') if paren == 0 => {
                // `->` return arrow: the `>` pairs with a `-`, not a `<`.
                let is_arrow = i > 0 && punct(&toks[i - 1], '-');
                if !is_arrow {
                    angle -= 1;
                }
            }
            Tok::Punct('{') if paren == 0 && angle <= 0 => {
                body_open = Some(i);
                break;
            }
            Tok::Punct(';') if paren == 0 && angle <= 0 => {
                return (None, i + 1);
            }
            _ => {}
        }
        i += 1;
    }
    let Some(open) = body_open else {
        return (None, i);
    };
    // Body extent by brace matching.
    let mut d = 0i32;
    let mut j = open;
    while j < toks.len() {
        if punct(&toks[j], '{') {
            d += 1;
        } else if punct(&toks[j], '}') {
            d -= 1;
            if d == 0 {
                break;
            }
        }
        j += 1;
    }
    let body = &toks[open + 1..j.min(toks.len())];
    let (ctx_name, ctx_is_trait) = match ctx.last() {
        Some((_, n, t)) => (Some(n.clone()), *t),
        None => (None, false),
    };
    let mut types = Vec::new();
    collect_param_types(toks, start + 2, open, &mut types);
    collect_let_types(body, &mut types);
    let mut def = FnDef {
        name,
        ctx: ctx_name,
        ctx_is_trait,
        line: toks[start].line,
        calls: Vec::new(),
        panics: Vec::new(),
        taint_reads: Vec::new(),
        taint_writes: Vec::new(),
        kheap_allocs: Vec::new(),
        nondet: Vec::new(),
        in_test,
        types,
    };
    collect_sites(body, &mut def, map_typed);
    (Some(def), j + 1)
}

/// Reads a type's last path segment, skipping reference/mutability sigils
/// and `dyn`/`impl` prefixes.
fn read_type(toks: &[Token], i: &mut usize) -> Option<String> {
    loop {
        match toks.get(*i).map(|t| &t.tok) {
            Some(Tok::Punct('&')) | Some(Tok::Lifetime) => *i += 1,
            Some(Tok::Ident(s)) if s == "mut" || s == "dyn" || s == "impl" => *i += 1,
            _ => break,
        }
    }
    read_path_last_segment(toks, i)
}

/// Harvests `name: Type` parameter annotations from the signature span.
fn collect_param_types(toks: &[Token], from: usize, to: usize, out: &mut Vec<(String, String)>) {
    let mut i = from;
    while i < to {
        let is_annot = ident(&toks[i]).is_some_and(|s| !is_keyword(s))
            && toks.get(i + 1).map(|t| punct(t, ':')) == Some(true)
            && toks.get(i + 2).map(|t| punct(t, ':')) != Some(true);
        if is_annot {
            let name = ident(&toks[i]).unwrap_or_default().to_string();
            let mut j = i + 2;
            if let Some(t) = read_type(toks, &mut j) {
                out.push((name, t));
            }
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
}

/// Harvests `let x: T` and `let x = T::ctor(...)` / `let x = T { .. }`
/// binding types from a function body.
fn collect_let_types(body: &[Token], out: &mut Vec<(String, String)>) {
    let mut i = 0usize;
    while i < body.len() {
        if ident(&body[i]) != Some("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if body.get(j).and_then(ident) == Some("mut") {
            j += 1;
        }
        let Some(name) = body.get(j).and_then(ident).map(str::to_string) else {
            i = j;
            continue;
        };
        let j2 = j + 1;
        match body.get(j2).map(|t| &t.tok) {
            Some(Tok::Punct(':')) if body.get(j2 + 1).map(|t| punct(t, ':')) != Some(true) => {
                let mut k = j2 + 1;
                if let Some(t) = read_type(body, &mut k) {
                    out.push((name, t));
                }
                i = k.max(j2 + 1);
            }
            Some(Tok::Punct('=')) => {
                let mut k = j2 + 1;
                while matches!(body.get(k).map(|t| &t.tok), Some(Tok::Punct('&')))
                    || body.get(k).and_then(ident) == Some("mut")
                {
                    k += 1;
                }
                let mut segs: Vec<String> = Vec::new();
                while let Some(s) = body.get(k).and_then(ident) {
                    if is_keyword(s) {
                        break;
                    }
                    segs.push(s.to_string());
                    k += 1;
                    k = skip_generics(body, k);
                    let colons = body.get(k).map(|t| punct(t, ':')) == Some(true)
                        && body.get(k + 1).map(|t| punct(t, ':')) == Some(true);
                    if colons {
                        k += 2;
                    } else {
                        break;
                    }
                }
                let ty = match body.get(k).map(|t| &t.tok) {
                    // `Type::ctor(` — the type is the segment before the fn.
                    Some(Tok::Punct('(')) if segs.len() >= 2 => Some(segs[segs.len() - 2].clone()),
                    // `Type { .. }` struct literal.
                    Some(Tok::Punct('{')) if !segs.is_empty() => Some(segs[segs.len() - 1].clone()),
                    _ => None,
                };
                if let Some(t) = ty {
                    out.push((name, t));
                }
                i = k.max(j2 + 1);
            }
            _ => i = j2,
        }
    }
}

/// Whether the receiver name `r` is known (file-wide annotation or local
/// binding inference) to be a `HashMap`/`HashSet`.
fn receiver_is_map(r: &str, def: &FnDef, map_typed: &[String]) -> bool {
    if let Some((_, t)) = def.types.iter().rev().find(|(n, _)| n == r) {
        return t == "HashMap" || t == "HashSet";
    }
    map_typed.iter().any(|m| m == r)
}

/// Scans forward from the token *after* a call's `(` and reports whether
/// the argument list (to the matching close paren) mentions an identifier
/// from the seed-derivation family.
fn args_derive_seed(body: &[Token], open: usize) -> bool {
    let mut depth = 1i32;
    let mut j = open + 1;
    while j < body.len() && depth > 0 {
        match &body[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth -= 1,
            Tok::Ident(s) if is_seed_derived_ident(s) => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// Walks a function body and records calls, panic sites, taint reads and
/// writes, kheap allocations, and nondeterminism sites. Regions inside
/// `contain(...)` arguments are flagged.
fn collect_sites(body: &[Token], def: &mut FnDef, map_typed: &[String]) {
    let mut paren_depth = 0i32;
    // Paren depths at which a `contain(` argument list is open.
    let mut contain_stack: Vec<i32> = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        let contained = !contain_stack.is_empty();
        match &t.tok {
            Tok::Punct('(') => {
                paren_depth += 1;
            }
            Tok::Punct(')') => {
                if contain_stack.last() == Some(&paren_depth) {
                    contain_stack.pop();
                }
                paren_depth -= 1;
            }
            Tok::Ident(kw) if kw == "in" => {
                // `for … in <expr> {`: iteration over a plain (possibly
                // referenced, possibly dotted) path whose final identifier
                // is map-typed observes unordered layout. Method-call
                // iteration (`m.keys()`) is caught by the call arm below.
                let mut j = i + 1;
                while matches!(body.get(j).map(|t| &t.tok), Some(Tok::Punct('&')))
                    || body.get(j).and_then(ident) == Some("mut")
                {
                    j += 1;
                }
                let mut last: Option<&str> = None;
                while let Some(s) = body.get(j).and_then(ident) {
                    if is_keyword(s) {
                        last = None;
                        break;
                    }
                    last = Some(s);
                    if body.get(j + 1).map(|t| punct(t, '.')) == Some(true) {
                        j += 2;
                    } else {
                        j += 1;
                        break;
                    }
                }
                let ends_body = body.get(j).map(|t| punct(t, '{')) == Some(true);
                if let (Some(r), true) = (last, ends_body) {
                    if receiver_is_map(r, def, map_typed) {
                        def.nondet.push(NondetSite {
                            kind: NondetKind::MapIter,
                            line: t.line,
                            what: format!("iteration over HashMap/HashSet `{r}`"),
                        });
                    }
                }
            }
            Tok::Punct('[') => {
                // Indexing when the previous token can end an expression.
                let is_index = match body.get(i.wrapping_sub(1)).map(|p| &p.tok) {
                    Some(Tok::Ident(s)) => !is_keyword(s),
                    Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Str(_)) => true,
                    _ => false,
                };
                if is_index {
                    def.panics.push(PanicSite {
                        kind: PanicKind::Indexing,
                        line: t.line,
                        contained,
                    });
                }
            }
            Tok::Ident(name) if !is_keyword(name) => {
                let next = body.get(i + 1);
                let next_is = |c: char| next.map(|t| punct(t, c)) == Some(true);
                if next_is('!') {
                    // Macro invocation.
                    if PANIC_MACROS.contains(&name.as_str()) {
                        def.panics.push(PanicSite {
                            kind: PanicKind::Macro(name.clone()),
                            line: t.line,
                            contained,
                        });
                    }
                    i += 2;
                    continue;
                }
                if next_is('(') {
                    let prev = body.get(i.wrapping_sub(1));
                    let prev2 = body.get(i.wrapping_sub(2));
                    let kind = if prev.map(|p| punct(p, '.')) == Some(true) {
                        let receiver = prev2.and_then(ident).map(str::to_string);
                        CallKind::Method { receiver }
                    } else if prev.map(|p| punct(p, ':')) == Some(true)
                        && prev2.map(|p| punct(p, ':')) == Some(true)
                    {
                        let qualifier = body
                            .get(i.wrapping_sub(3))
                            .and_then(ident)
                            .unwrap_or("")
                            .to_string();
                        CallKind::Qualified { qualifier }
                    } else {
                        CallKind::Free
                    };
                    let closure_arg = match body.get(i + 2).map(|t| &t.tok) {
                        Some(Tok::Punct('|')) => true,
                        Some(Tok::Ident(s)) if s == "move" => {
                            body.get(i + 3).map(|t| punct(t, '|')) == Some(true)
                        }
                        _ => false,
                    };
                    collect_nondet_call(def, name, &kind, body, i, map_typed, t.line);
                    record_call(def, name, kind, t.line, contained, closure_arg);
                    if name == "contain" {
                        // The argument list opens at depth+1; everything
                        // until it closes is runtime-contained.
                        contain_stack.push(paren_depth + 1);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Detects nondeterministic call sites: wall-clock reads, environment
/// reads, thread-topology queries, `HashMap`/`HashSet` iteration, and
/// `SimRng` construction from a seed that does not derive through the
/// `stream_seed`/`experiment_seed` family. `i` indexes the callee name in
/// `body` (the `(` sits at `i + 1`).
fn collect_nondet_call(
    def: &mut FnDef,
    name: &str,
    kind: &CallKind,
    body: &[Token],
    i: usize,
    map_typed: &[String],
    line: u32,
) {
    let site = if name == "available_parallelism" {
        Some((
            NondetKind::Thread,
            "thread::available_parallelism()".to_string(),
        ))
    } else {
        match kind {
            CallKind::Qualified { qualifier } => match (qualifier.as_str(), name) {
                ("Instant", "now") | ("SystemTime", "now") => {
                    Some((NondetKind::Time, format!("{qualifier}::now()")))
                }
                ("env", "var") | ("env", "var_os") => {
                    Some((NondetKind::Env, format!("env::{name}()")))
                }
                ("thread", "current") => {
                    Some((NondetKind::Thread, "thread::current()".to_string()))
                }
                ("SimRng", "seed_from_u64") | ("SimRng", "new")
                    if !args_derive_seed(body, i + 1) =>
                {
                    Some((
                        NondetKind::RawSeed,
                        format!("SimRng::{name} with a raw (underived) seed"),
                    ))
                }
                _ => None,
            },
            CallKind::Method { receiver } => receiver
                .as_deref()
                .filter(|r| MAP_ITER_METHODS.contains(&name) && receiver_is_map(r, def, map_typed))
                .map(|r| {
                    (
                        NondetKind::MapIter,
                        format!("HashMap/HashSet `{r}`.{name}()"),
                    )
                }),
            CallKind::Free => None,
        }
    };
    if let Some((kind, what)) = site {
        def.nondet.push(NondetSite { kind, line, what });
    }
}

/// Classifies and records a single call site on `def`.
fn record_call(
    def: &mut FnDef,
    name: &str,
    kind: CallKind,
    line: u32,
    contained: bool,
    closure_arg: bool,
) {
    if let CallKind::Method { receiver } = &kind {
        if PANIC_METHODS.contains(&name) {
            def.panics.push(PanicSite {
                kind: if name.starts_with("unwrap") {
                    PanicKind::Unwrap
                } else {
                    PanicKind::Expect
                },
                line,
                contained,
            });
            return;
        }
        if receiver.as_deref() == Some("phys") {
            if PHYS_READ_METHODS.contains(&name) {
                def.taint_reads.push((line, name.to_string()));
            }
            if PHYS_WRITE_METHODS.contains(&name) {
                def.taint_writes.push((line, name.to_string()));
            }
        }
        if receiver.as_deref() == Some("kheap") && (name == "alloc" || name == "free") {
            def.kheap_allocs.push((line, format!("kheap.{name}")));
        }
    }
    if let CallKind::Qualified { qualifier } = &kind {
        if qualifier == "KHeap" {
            def.kheap_allocs.push((line, format!("KHeap::{name}")));
        }
    }
    def.calls.push(Call {
        name: name.to_string(),
        kind,
        line,
        contained,
        closure_arg,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        let (toks, ds) = lex(src);
        extract(&toks, ds, false)
    }

    #[test]
    fn free_method_and_qualified_calls() {
        let m = model("fn f() { g(); x.h(); A::B::k(); }");
        let f = &m.fns[0];
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["g", "h", "k"]);
        assert_eq!(
            f.calls[2].kind,
            CallKind::Qualified {
                qualifier: "B".into()
            }
        );
    }

    #[test]
    fn impl_context_qualifies_methods() {
        let m = model("impl Foo { fn bar(&self) {} }\ntrait T { fn d(&self) { self.e(); } }");
        assert_eq!(m.fns[0].ctx.as_deref(), Some("Foo"));
        assert!(!m.fns[0].ctx_is_trait);
        assert_eq!(m.fns[1].ctx.as_deref(), Some("T"));
        assert!(m.fns[1].ctx_is_trait);
    }

    #[test]
    fn record_impls_are_found() {
        let m = model("impl Record for ProcDesc { fn x() {} }\nimpl Clone for Y {}");
        assert_eq!(m.record_impls.len(), 1);
        assert_eq!(m.record_impls[0].type_name, "ProcDesc");
    }

    #[test]
    fn panic_sites_classified() {
        let m = model(
            "fn f(v: &[u8]) { v.first().unwrap(); v.get(0).expect(\"x\"); panic!(\"y\"); v[0]; }",
        );
        let kinds: Vec<&PanicKind> = m.fns[0].panics.iter().map(|p| &p.kind).collect();
        assert_eq!(kinds.len(), 4);
        assert!(matches!(kinds[0], PanicKind::Unwrap));
        assert!(matches!(kinds[1], PanicKind::Expect));
        assert!(matches!(kinds[2], PanicKind::Macro(m) if m == "panic"));
        assert!(matches!(kinds[3], PanicKind::Indexing));
    }

    #[test]
    fn debug_assert_is_not_a_panic_site() {
        let m = model("fn f() { debug_assert!(true); debug_assert_eq!(1, 1); }");
        assert!(m.fns[0].panics.is_empty());
    }

    #[test]
    fn array_literals_and_attributes_are_not_indexing() {
        let m = model("#[derive(Debug)]\nfn f() { let a = [0u8; 4]; let b: [u8; 2] = [1, 2]; }");
        assert!(m.fns[0].panics.is_empty());
    }

    #[test]
    fn slicing_counts_as_indexing() {
        let m = model("fn f(b: &[u8]) { let _ = &b[..4]; }");
        assert_eq!(m.fns[0].panics.len(), 1);
        assert!(matches!(m.fns[0].panics[0].kind, PanicKind::Indexing));
    }

    #[test]
    fn contain_region_exempts_sites_and_calls() {
        let m = model("fn f() { contain(|| { x.unwrap(); inner(); }); outer(); y.unwrap(); }");
        let f = &m.fns[0];
        let contained_panics: Vec<bool> = f.panics.iter().map(|p| p.contained).collect();
        assert_eq!(contained_panics, vec![true, false]);
        let inner = f.calls.iter().find(|c| c.name == "inner").unwrap();
        assert!(inner.contained);
        let outer = f.calls.iter().find(|c| c.name == "outer").unwrap();
        assert!(!outer.contained);
    }

    #[test]
    fn cfg_test_functions_are_flagged() {
        let m =
            model("fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n");
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }

    #[test]
    fn phys_reads_and_kheap_allocs_are_recorded() {
        let m =
            model("fn f(k: &K) { k.machine.phys.read_u32(0); phys.read(a, b); k.kheap.alloc(8); }");
        let f = &m.fns[0];
        assert_eq!(f.taint_reads.len(), 2);
        assert_eq!(f.kheap_allocs.len(), 1);
    }

    #[test]
    fn receiver_is_last_chain_ident() {
        let m = model("fn f() { a.b.phys.read(0, x); }");
        assert_eq!(m.fns[0].taint_reads.len(), 1);
    }

    #[test]
    fn binding_types_are_inferred() {
        let m = model(
            "fn f(phys: &mut PhysMem, n: u64) { let g = ChainGuard::new(4); \
             let d: ProcDesc = x; let h = HandoffBlock { a: 1 }; }",
        );
        let ty = |n: &str| {
            m.fns[0]
                .types
                .iter()
                .find(|(k, _)| k == n)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(ty("phys"), Some("PhysMem"));
        assert_eq!(ty("g"), Some("ChainGuard"));
        assert_eq!(ty("d"), Some("ProcDesc"));
        assert_eq!(ty("h"), Some("HandoffBlock"));
    }

    #[test]
    fn reg_macro_args_collected() {
        let m = model("static R: &[E] = &[reg!(HandoffBlock), reg!(ProcDesc)];");
        assert_eq!(m.reg_macro_args, vec!["HandoffBlock", "ProcDesc"]);
    }

    #[test]
    fn crash_point_labels_collected_with_lines() {
        let m = model(
            "fn f() {\n    ow_crashpoint::crash_point!(\"kernel.swap.slot.write\");\n}\n\
             fn g() { crash_point!(\"recovery.reader.vma.walk\"); }",
        );
        assert_eq!(
            m.crash_point_labels,
            vec![
                ("kernel.swap.slot.write".to_string(), 2),
                ("recovery.reader.vma.walk".to_string(), 4),
            ]
        );
    }

    #[test]
    fn crash_point_labels_in_test_code_are_skipped() {
        let m = model(
            "#[cfg(test)]\nmod tests {\n    fn t() { crash_point!(\"synthetic.test.label\"); }\n}",
        );
        assert!(m.crash_point_labels.is_empty());
    }

    #[test]
    fn phys_writes_are_recorded() {
        let m = model(
            "fn f(k: &mut K) { k.machine.phys.write_u8(0, 1); phys.write(a, b); \
             phys.zero_frame(3); phys.read(a, c); }",
        );
        let f = &m.fns[0];
        assert_eq!(f.taint_writes.len(), 3);
        assert_eq!(f.taint_reads.len(), 1);
    }

    #[test]
    fn time_env_thread_sites_are_nondet() {
        let m = model(
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); \
             let j = std::env::var(\"X\"); let c = thread::current(); \
             let p = std::thread::available_parallelism(); }",
        );
        let kinds: Vec<NondetKind> = m.fns[0].nondet.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                NondetKind::Time,
                NondetKind::Time,
                NondetKind::Env,
                NondetKind::Thread,
                NondetKind::Thread,
            ]
        );
    }

    #[test]
    fn raw_seed_rng_is_nondet_but_derived_is_not() {
        let m = model(
            "fn f(seed: u64) { let a = SimRng::seed_from_u64(42); \
             let b = SimRng::seed_from_u64(stream_seed(seed, 1)); \
             let c = SimRng::seed_from_u64(experiment_seed); \
             let d = SimRng::seed_from_u64(cell_seed); }",
        );
        let raw: Vec<&NondetSite> = m.fns[0]
            .nondet
            .iter()
            .filter(|s| s.kind == NondetKind::RawSeed)
            .collect();
        assert_eq!(raw.len(), 1, "only the literal 42 is underived");
        assert_eq!(raw[0].line, 1);
    }

    #[test]
    fn map_iteration_is_nondet_via_annotation_and_inference() {
        let m = model(
            "struct S { map: HashMap<u64, u64> }\n\
             fn f(s: &S) { for (k, v) in &s.map { use_kv(k, v); } }\n\
             fn g() { let m: HashMap<u64, u64> = HashMap::new(); m.keys(); }\n\
             fn h() { let b: BTreeMap<u64, u64> = BTreeMap::new(); for x in &b {} b.keys(); }",
        );
        assert_eq!(m.map_typed, vec!["map".to_string(), "m".to_string()]);
        assert_eq!(m.fns[0].nondet.len(), 1, "for-in over a HashMap field");
        assert_eq!(m.fns[1].nondet.len(), 1, "keys() on an inferred HashMap");
        assert!(m.fns[2].nondet.is_empty(), "BTreeMap iteration is ordered");
    }

    #[test]
    fn map_lookup_is_not_nondet() {
        let m = model(
            "fn f() { let m: HashMap<u64, u64> = HashMap::new(); \
             m.get(&1); m.insert(1, 2); m.contains_key(&1); m.len(); }",
        );
        assert!(
            m.fns[0].nondet.is_empty(),
            "point lookups are deterministic"
        );
    }

    #[test]
    fn nested_fn_inside_body_is_not_lost_to_parent() {
        // Nested fns are swallowed by the parent body walk (their sites
        // attach to the parent) — conservative for reachability.
        let m = model("fn outer() { fn inner() { x.unwrap(); } inner(); }");
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].panics.len(), 1);
    }
}
