//! The five rule passes.
//!
//! Every pass walks the token stream of one [`lexed`](crate::lexer::lex)
//! file plus a little per-file context ([`FileContext`]): which crate the
//! file belongs to, whether a given line is inside a `#[cfg(test)]` module,
//! and the escape-hatch annotations.  The rules and what they protect:
//!
//! | slug         | protects                                                    |
//! |--------------|-------------------------------------------------------------|
//! | `hash-iter`  | deterministic crates from unordered `HashMap`/`HashSet` iteration |
//! | `unwrap`     | pipeline-facing library code from panicking on bad input    |
//! | `wall-clock` | `CommStats`/bench JSON from wall-clock nondeterminism       |
//! | `comm-phase` | every simulated collective from unattributed accounting     |
//! | `extras-key` | the `CommStats::extras` namespace from stringly-typed drift |

use crate::lexer::{LexedFile, Token, TokenKind};

/// One rule violation, ready to print as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule slug (`hash-iter`, `unwrap`, `wall-clock`, `comm-phase`,
    /// `extras-key`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Everything a rule pass needs to know about the file besides its tokens.
pub struct FileContext<'a> {
    /// Repo-relative path, used in violation output and path-based scoping.
    pub path: &'a str,
    /// The crate directory name under `crates/` (e.g. `sparse`), or `""` for
    /// files outside `crates/` (the root package).
    pub crate_name: &'a str,
    /// True when the whole file is test/bench/example code (under `tests/`,
    /// `benches/` or `examples/`).
    pub test_file: bool,
    /// Line spans (1-based, inclusive) of `#[cfg(test)] mod … { … }` bodies.
    pub test_spans: Vec<(u32, u32)>,
}

impl FileContext<'_> {
    fn is_test_line(&self, line: u32) -> bool {
        self.test_file || self.test_spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }
}

/// Crates whose output must be bit-identical: no unordered iteration.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["sparse", "overlap", "sketch", "strgraph", "dist", "pipeline"];

/// Crates whose library code feeds the pipeline and must return `Err`
/// instead of panicking.
pub const PIPELINE_FACING_CRATES: &[&str] =
    &["seq", "overlap", "sketch", "strgraph", "dist", "pipeline"];

/// The one module allowed to define `CommStats::extras` key literals.
pub const EXTRAS_REGISTRY_PATH: &str = "crates/dist/src/extras.rs";

/// Run every rule pass over one lexed file.
pub fn check_file(lexed: &LexedFile, ctx: &FileContext<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    hash_iter(lexed, ctx, &mut out);
    unwrap_in_library(lexed, ctx, &mut out);
    wall_clock(lexed, ctx, &mut out);
    comm_phase(lexed, ctx, &mut out);
    extras_key(lexed, ctx, &mut out);
    out
}

fn violation(ctx: &FileContext<'_>, line: u32, rule: &'static str, message: String) -> Violation {
    Violation { path: ctx.path.to_string(), line, rule, message }
}

/// Compute the line spans of `#[cfg(test)] mod … { … }` bodies by brace
/// matching, so in-file unit-test modules are exempt from the library rules.
pub fn test_mod_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes between #[cfg(test)] and the item.
        let mut j = i + 7;
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            let mut depth = 0usize;
            while j < tokens.len() {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // The guarded item: whatever it is (mod, fn, use…), exempt its body.
        let start_line = tokens[i].line;
        let mut depth = 0usize;
        let mut end_line = start_line;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                depth += 1;
            } else if tokens[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end_line = tokens[j].line;
                    break;
                }
            } else if tokens[j].is_punct(';') && depth == 0 {
                end_line = tokens[j].line; // e.g. `#[cfg(test)] use …;`
                break;
            }
            j += 1;
        }
        spans.push((start_line, end_line));
        i = j.max(i + 7);
    }
    spans
}

// ---------------------------------------------------------------------------
// Rule: hash-iter
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// No `HashMap`/`HashSet` iteration in deterministic crates: a hash map's
/// iteration order depends on the hasher seed and insertion history, so any
/// fold over it that is not order-insensitive breaks bit-identical output.
fn hash_iter(lexed: &LexedFile, ctx: &FileContext<'_>, out: &mut Vec<Violation>) {
    if !DETERMINISTIC_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let toks = &lexed.tokens;
    // Pass 1: names bound to a HashMap/HashSet — via a type ascription whose
    // head type is HashMap/HashSet (possibly `std::collections::`-qualified),
    // or via an initializer calling `HashMap::…` / `HashSet::…`.
    let mut hashed: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident
            || !(toks[i].text == "HashMap" || toks[i].text == "HashSet")
        {
            continue;
        }
        // Walk back over `std :: collections ::` qualification to the marker
        // before the type/constructor: `:` (ascription) or `=` (initializer).
        let mut j = i;
        while j >= 2
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && j >= 3
            && toks[j - 3].kind == TokenKind::Ident
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        let name = if toks[j - 1].is_punct(':') && j >= 2 && !toks[j - 2].is_punct(':') {
            // `name: HashMap<…>` — only when this is the *head* of the type.
            toks[j - 2].clone()
        } else if toks[j - 1].is_punct('=') && j >= 2 {
            // `name = HashMap::new()` (also covers `with_capacity`, `from`).
            toks[j - 2].clone()
        } else {
            continue;
        };
        if name.kind == TokenKind::Ident {
            hashed.push(name.text);
        }
    }
    if hashed.is_empty() {
        return;
    }
    // Pass 2: iteration over a tracked name — `name.iter()`-family calls and
    // `for … in [&[mut]] name {`.
    for i in 0..toks.len() {
        let line = toks[i].line;
        if ctx.is_test_line(line) || lexed.is_allowed("hash-iter", line) {
            continue;
        }
        // name . method (
        if i + 3 < toks.len()
            && toks[i].kind == TokenKind::Ident
            && hashed.contains(&toks[i].text)
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokenKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
            && toks[i + 3].is_punct('(')
        {
            out.push(violation(
                ctx,
                toks[i + 2].line,
                "hash-iter",
                format!(
                    "`{}.{}()` iterates a HashMap/HashSet in a deterministic crate; \
                     use BTreeMap/BTreeSet, sort the result, or annotate \
                     `// lint: allow(hash-iter)` with a justification",
                    toks[i].text, toks[i + 2].text
                ),
            ));
        }
        // for … in [&[mut]] name {
        if toks[i].is_ident("in") {
            let mut j = i + 1;
            while j < toks.len() && (toks[j].is_punct('&') || toks[j].is_ident("mut")) {
                j += 1;
            }
            if j + 1 < toks.len()
                && toks[j].kind == TokenKind::Ident
                && hashed.contains(&toks[j].text)
                && toks[j + 1].is_punct('{')
            {
                out.push(violation(
                    ctx,
                    toks[j].line,
                    "hash-iter",
                    format!(
                        "`for … in {}` iterates a HashMap/HashSet in a deterministic crate",
                        toks[j].text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: unwrap
// ---------------------------------------------------------------------------

/// No `unwrap()`/`expect()` in pipeline-facing library code: bad input must
/// surface as `Err`, not a panic mid-superstep.  `.unwrap()` directly on a
/// `lock()`/`read()`/`write()` result is exempt — mutex poisoning after
/// another thread's panic is not an input error, and propagating it would
/// infect every signature with a useless error arm.
fn unwrap_in_library(lexed: &LexedFile, ctx: &FileContext<'_>, out: &mut Vec<Violation>) {
    if !PIPELINE_FACING_CRATES.contains(&ctx.crate_name) || ctx.test_file {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let call = i + 2 < toks.len()
            && toks[i].is_punct('.')
            && toks[i + 1].kind == TokenKind::Ident
            && (toks[i + 1].text == "unwrap" || toks[i + 1].text == "expect")
            && toks[i + 2].is_punct('(');
        if !call {
            continue;
        }
        let line = toks[i + 1].line;
        if ctx.is_test_line(line) || lexed.is_allowed("unwrap", line) {
            continue;
        }
        // lock()/read()/write() carve-out: `… lock ( ) . unwrap (`.
        if i >= 3
            && toks[i - 1].is_punct(')')
            && toks[i - 2].is_punct('(')
            && toks[i - 3].kind == TokenKind::Ident
            && matches!(toks[i - 3].text.as_str(), "lock" | "read" | "write")
        {
            continue;
        }
        out.push(violation(
            ctx,
            line,
            "unwrap",
            format!(
                "`.{}()` in pipeline-facing library code; return an Err, prove the \
                 invariant with a restructure, or annotate `// lint: allow(unwrap)`",
                toks[i + 1].text
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------------

/// No wall-clock reads outside `crates/bench`: anything feeding `CommStats`
/// or committed bench JSON must be a deterministic count, and a stray
/// `Instant::now()` is how timing sneaks into "exact" accounting.
fn wall_clock(lexed: &LexedFile, ctx: &FileContext<'_>, out: &mut Vec<Violation>) {
    if ctx.crate_name == "bench" {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let is_clock_read = i + 3 < toks.len()
            && toks[i].kind == TokenKind::Ident
            && (toks[i].text == "Instant" || toks[i].text == "SystemTime")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("now");
        if !is_clock_read {
            continue;
        }
        let line = toks[i].line;
        if ctx.is_test_line(line) || lexed.is_allowed("wall-clock", line) {
            continue;
        }
        out.push(violation(
            ctx,
            line,
            "wall-clock",
            format!(
                "`{}::now()` outside crates/bench; timings belong in the bench crate or \
                 the annotated StageTimings sink",
                toks[i].text
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Rule: comm-phase
// ---------------------------------------------------------------------------

const COLLECTIVE_CALLS: &[&str] =
    &["alltoallv_counted", "record_allreduce", "record_broadcast", "record_p2p"];

/// Every collective call must be lexically inside a function that takes or
/// names a `CommPhase`, so all traffic is attributed to a phase rather than
/// silently lumped.
fn comm_phase(lexed: &LexedFile, ctx: &FileContext<'_>, out: &mut Vec<Violation>) {
    let toks = &lexed.tokens;
    let fns = fn_spans(toks);
    for i in 0..toks.len() {
        let is_call = i + 1 < toks.len()
            && toks[i].kind == TokenKind::Ident
            && COLLECTIVE_CALLS.contains(&toks[i].text.as_str())
            && toks[i + 1].is_punct('(')
            && !(i >= 1 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('.')));
        if !is_call {
            continue;
        }
        let line = toks[i].line;
        if ctx.is_test_line(line) || lexed.is_allowed("comm-phase", line) {
            continue;
        }
        // Innermost enclosing fn whose span (signature + body) names
        // CommPhase.
        let enclosing = fns
            .iter()
            .filter(|&&(start, end, _)| start < i && i <= end)
            .max_by_key(|&&(start, _, _)| start);
        let attributed = match enclosing {
            Some(&(_, _, names_phase)) => names_phase,
            None => false,
        };
        if !attributed {
            out.push(violation(
                ctx,
                line,
                "comm-phase",
                format!(
                    "`{}` called outside any function that takes or names a CommPhase; \
                     collective traffic must be phase-attributed",
                    toks[i].text
                ),
            ));
        }
    }
}

/// `(start_token, end_token, mentions_CommPhase)` for every `fn` item, body
/// found by brace matching from the signature.
fn fn_spans(toks: &[Token]) -> Vec<(usize, usize, bool)> {
    let mut spans: Vec<(usize, usize, bool)> = Vec::new();
    let mut stack: Vec<Option<usize>> = Vec::new();
    let mut pending_fn: Option<usize> = None;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("fn") {
            pending_fn = Some(i);
        } else if t.is_punct(';') && stack.iter().all(|s| s.is_none()) {
            pending_fn = None; // bodyless trait-method declaration
        } else if t.is_punct('{') {
            if let Some(f) = pending_fn.take() {
                spans.push((f, usize::MAX, false));
                stack.push(Some(spans.len() - 1));
            } else {
                stack.push(None);
            }
        } else if t.is_punct('}') {
            if let Some(Some(idx)) = stack.pop() {
                spans[idx].1 = i;
            }
        }
    }
    for span in &mut spans {
        if span.1 == usize::MAX {
            span.1 = toks.len().saturating_sub(1);
        }
        span.2 = toks[span.0..=span.1].iter().any(|t| t.is_ident("CommPhase"));
    }
    spans
}

// ---------------------------------------------------------------------------
// Rule: extras-key
// ---------------------------------------------------------------------------

const EXTRAS_METHODS: &[&str] = &["bump_extra", "max_extra", "set_extra", "extra"];

/// Every `CommStats::extras` key must come from the registry module
/// ([`EXTRAS_REGISTRY_PATH`]): passing a raw string literal to an extras
/// method invites two spellings of the same counter.
fn extras_key(lexed: &LexedFile, ctx: &FileContext<'_>, out: &mut Vec<Violation>) {
    if ctx.path == EXTRAS_REGISTRY_PATH || ctx.test_file {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let is_literal_key = i + 3 < toks.len()
            && toks[i].is_punct('.')
            && toks[i + 1].kind == TokenKind::Ident
            && EXTRAS_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].is_punct('(')
            && toks[i + 3].kind == TokenKind::Str;
        if !is_literal_key {
            continue;
        }
        let line = toks[i + 3].line;
        if ctx.is_test_line(line) || lexed.is_allowed("extras-key", line) {
            continue;
        }
        out.push(violation(
            ctx,
            line,
            "extras-key",
            format!(
                "extras key literal \"{}\" passed to `{}`; use a named constant from {}",
                toks[i + 3].text,
                toks[i + 1].text,
                EXTRAS_REGISTRY_PATH
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx<'a>(path: &'a str, crate_name: &'a str, src: &str) -> (LexedFile, FileContext<'a>) {
        let lexed = lex(src);
        let test_spans = test_mod_spans(&lexed.tokens);
        let test_file =
            path.contains("/tests/") || path.contains("/benches/") || path.contains("/examples/");
        (lexed, FileContext { path, crate_name, test_file, test_spans })
    }

    fn run(path: &str, crate_name: &str, src: &str) -> Vec<Violation> {
        let (lexed, c) = ctx(path, crate_name, src);
        check_file(&lexed, &c)
    }

    #[test]
    fn test_mod_spans_cover_cfg_test_bodies() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let lexed = lex(src);
        let spans = test_mod_spans(&lexed.tokens);
        assert_eq!(spans, [(2, 5)]);
    }

    #[test]
    fn fn_spans_find_the_innermost_function() {
        let src = "fn outer(p: CommPhase) { fn inner() { call(); } }";
        let lexed = lex(src);
        let spans = fn_spans(&lexed.tokens);
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.2).expect("outer names CommPhase");
        let inner = spans.iter().find(|s| !s.2).expect("inner does not");
        assert!(outer.0 < inner.0 && inner.1 < outer.1);
    }

    #[test]
    fn hash_iter_ignores_maps_nested_in_other_types() {
        // Vec<HashMap<…>> — the bound name is a Vec; iterating it is fine.
        let src = "fn f() { let inbox: Vec<HashMap<u32, u32>> = Vec::new(); \
                   for x in inbox.iter() { use_it(x); } }";
        assert!(run("crates/sparse/src/x.rs", "sparse", src).is_empty());
    }

    #[test]
    fn hash_iter_fires_on_for_loops_over_a_map() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for kv in &m { go(kv); } }";
        let v = run("crates/sparse/src/x.rs", "sparse", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hash-iter");
    }

    #[test]
    fn unwrap_lock_carveout_and_plain_unwrap() {
        let src = "fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n\
                   fn g(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let v = run("crates/dist/src/x.rs", "dist", src);
        assert_eq!(v.len(), 1, "only the Option unwrap fires: {v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn comm_phase_requires_an_attributed_function() {
        let good = "fn f(stats: &CommStats, phase: CommPhase) { record_p2p(stats, phase, 8); }";
        assert!(run("crates/sparse/src/x.rs", "sparse", good).is_empty());
        let bad = "fn f(stats: &CommStats) { record_p2p(stats, something(), 8); }";
        let v = run("crates/sparse/src/x.rs", "sparse", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "comm-phase");
    }

    #[test]
    fn extras_key_allows_constants_and_flags_literals() {
        let good = "fn f(s: &CommStats) { s.bump_extra(ALIGNED_CELLS_KEY, 1); }";
        assert!(run("crates/strgraph/src/x.rs", "strgraph", good).is_empty());
        let bad = "fn f(s: &CommStats) { s.bump_extra(\"aligned_cells\", 1); }";
        let v = run("crates/strgraph/src/x.rs", "strgraph", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "extras-key");
        assert!(v[0].message.contains("aligned_cells"));
    }

    #[test]
    fn registry_module_itself_is_exempt() {
        let src = "pub fn flops_key(p: u32) -> String { format!(\"spgemm_flops_{p}\") }";
        assert!(run(EXTRAS_REGISTRY_PATH, "dist", src).is_empty());
    }
}
