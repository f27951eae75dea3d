//! Fixture corpus: every rule has at least one must-fire and one
//! must-not-fire case, the escape hatch is proven to work (and to expire
//! after one line), and the classic lexer traps — rule-looking text inside
//! comments and string literals — are pinned as non-findings.

use dibella_lint::lint_source;

/// Assert the fixture produces exactly the given `(line, rule)` findings.
fn expect(path: &str, src: &str, expected: &[(u32, &str)]) {
    let found: Vec<(u32, &str)> =
        lint_source(path, src).iter().map(|v| (v.line, v.rule)).collect();
    assert_eq!(found, expected, "fixture {path}:\n{src}");
}

// ---------------------------------------------------------------------------
// hash-iter
// ---------------------------------------------------------------------------

#[test]
fn hash_iter_must_fire_on_every_iteration_method() {
    let src = "use std::collections::HashMap;\n\
               fn f() {\n\
               let mut m: HashMap<u32, u32> = HashMap::new();\n\
               let _a: Vec<_> = m.keys().collect();\n\
               let _b: Vec<_> = m.values().collect();\n\
               let _c: Vec<_> = m.iter().collect();\n\
               for kv in &m { drop(kv); }\n\
               let _d: Vec<_> = m.into_iter().collect();\n\
               }\n";
    expect(
        "crates/overlap/src/fx.rs",
        src,
        &[(4, "hash-iter"), (5, "hash-iter"), (6, "hash-iter"), (7, "hash-iter"), (8, "hash-iter")],
    );
}

#[test]
fn hash_iter_must_not_fire_on_membership_or_btreemap() {
    let src = "use std::collections::{BTreeMap, HashSet};\n\
               fn f() {\n\
               let mut seen: HashSet<u32> = HashSet::new();\n\
               seen.insert(3);\n\
               assert!(seen.contains(&3));\n\
               let mut b: BTreeMap<u32, u32> = BTreeMap::new();\n\
               b.insert(1, 2);\n\
               for kv in &b { drop(kv); }\n\
               }\n";
    expect("crates/sparse/src/fx.rs", src, &[]);
}

#[test]
fn hash_iter_is_scoped_to_deterministic_crates() {
    let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for kv in &m { drop(kv); } }";
    // align is not on the deterministic list; sparse is.
    expect("crates/align/src/fx.rs", src, &[]);
    expect("crates/sparse/src/fx.rs", src, &[(1, "hash-iter")]);
}

#[test]
fn hash_iter_escape_hatch_covers_the_next_line_only() {
    let src = "fn f() {\n\
               let m: HashMap<u32, u32> = HashMap::new();\n\
               // lint: allow(hash-iter) — folded with a commutative op\n\
               let _s: u32 = m.values().sum();\n\
               let _t: u32 = m.values().sum();\n\
               }\n";
    expect("crates/dist/src/fx.rs", src, &[(5, "hash-iter")]);
}

// ---------------------------------------------------------------------------
// unwrap
// ---------------------------------------------------------------------------

#[test]
fn unwrap_must_fire_in_library_code() {
    let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n\
               pub fn g(r: Result<u32, ()>) -> u32 { r.expect(\"boom\") }\n";
    expect("crates/seq/src/fx.rs", src, &[(1, "unwrap"), (2, "unwrap")]);
}

#[test]
fn unwrap_must_not_fire_on_lock_poisoning_or_unwrap_or() {
    let src = "pub fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n\
               pub fn g(l: &std::sync::RwLock<u32>) -> u32 { *l.read().unwrap() }\n\
               pub fn h(l: &std::sync::RwLock<u32>) { *l.write().unwrap() = 3; }\n\
               pub fn i(o: Option<u32>) -> u32 { o.unwrap_or(0) }\n\
               pub fn j(o: Option<u32>) -> u32 { o.unwrap_or_default() }\n";
    expect("crates/dist/src/fx.rs", src, &[]);
}

#[test]
fn unwrap_must_not_fire_in_test_modules_or_test_files() {
    let src = "pub fn lib_ok() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               #[test]\n\
               fn t() { Some(1).unwrap(); }\n\
               }\n";
    expect("crates/seq/src/fx.rs", src, &[]);
    // Whole-file exemption for integration tests.
    expect("crates/seq/tests/fx.rs", "fn t() { Some(1).unwrap(); }", &[]);
}

#[test]
fn unwrap_is_scoped_to_pipeline_facing_crates() {
    let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }";
    expect("crates/bench/src/fx.rs", src, &[]);
    expect("crates/pipeline/src/fx.rs", src, &[(1, "unwrap")]);
}

#[test]
fn unwrap_escape_hatch_works_inline_and_above() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n\
               *v.last().unwrap() // lint: allow(unwrap) — caller checks non-empty\n\
               }\n\
               pub fn g(v: &[u32]) -> u32 {\n\
               // lint: allow(unwrap) — caller checks non-empty\n\
               *v.last().unwrap()\n\
               }\n";
    expect("crates/strgraph/src/fx.rs", src, &[]);
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

#[test]
fn wall_clock_must_fire_outside_bench() {
    let src = "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n\
               pub fn g() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
    expect("crates/sketch/src/fx.rs", src, &[(1, "wall-clock"), (2, "wall-clock")]);
}

#[test]
fn wall_clock_must_not_fire_in_bench_or_when_annotated() {
    let src = "pub fn f() -> std::time::Instant { std::time::Instant::now() }";
    expect("crates/bench/src/fx.rs", src, &[]);
    let annotated = "pub fn timed() {\n\
                     // lint: allow(wall-clock) — the designated timing sink\n\
                     let _t = std::time::Instant::now();\n\
                     }\n";
    expect("crates/pipeline/src/fx.rs", annotated, &[]);
}

#[test]
fn wall_clock_elapsed_and_duration_are_fine() {
    let src = "pub fn f(start: std::time::Instant) -> f64 { start.elapsed().as_secs_f64() }";
    expect("crates/pipeline/src/fx.rs", src, &[]);
}

// ---------------------------------------------------------------------------
// comm-phase
// ---------------------------------------------------------------------------

#[test]
fn comm_phase_must_fire_when_no_function_names_a_phase() {
    let src = "fn f(stats: &CommStats) { record_broadcast(stats, other(), 8, 4); }";
    expect("crates/sketch/src/fx.rs", src, &[(1, "comm-phase")]);
}

#[test]
fn comm_phase_must_not_fire_when_the_function_takes_or_names_one() {
    let src = "fn takes(stats: &CommStats, phase: CommPhase) {\n\
               record_broadcast(stats, phase, 8, 4);\n\
               }\n\
               fn names(stats: &CommStats) {\n\
               let recv = alltoallv_counted(send(), stats, CommPhase::KmerCounting, 2);\n\
               drop(recv);\n\
               }\n";
    expect("crates/seq/src/fx.rs", src, &[]);
}

#[test]
fn comm_phase_checks_the_innermost_function() {
    // The outer fn names CommPhase but the inner helper does not: the call
    // inside the helper is unattributed.
    let src = "fn outer(phase: CommPhase) {\n\
               fn helper(stats: &CommStats) { record_p2p(stats, other(), 8); }\n\
               }\n";
    expect("crates/sparse/src/fx.rs", src, &[(2, "comm-phase")]);
}

#[test]
fn comm_phase_ignores_definitions_and_imports() {
    let src = "use dibella_dist::{alltoallv_counted, record_broadcast, record_p2p};\n\
               pub fn record_p2p(stats: &CommStats, phase: CommPhase, words: u64) {\n\
               bump(stats, phase, words);\n\
               }\n";
    expect("crates/dist/src/fx.rs", src, &[]);
}

// ---------------------------------------------------------------------------
// extras-key
// ---------------------------------------------------------------------------

#[test]
fn extras_key_must_fire_on_raw_literals() {
    let src = "fn f(s: &CommStats) {\n\
               s.bump_extra(\"aligned_cells\", 2);\n\
               s.max_extra(\"peak\", 9);\n\
               s.set_extra(\"x\", 1);\n\
               let _v = s.extra(\"x\");\n\
               }\n";
    expect(
        "crates/sparse/src/fx.rs",
        src,
        &[(2, "extras-key"), (3, "extras-key"), (4, "extras-key"), (5, "extras-key")],
    );
}

#[test]
fn extras_key_must_not_fire_on_registry_constants_or_in_the_registry() {
    let src = "fn f(s: &CommStats) {\n\
               s.bump_extra(ALIGNED_CELLS_KEY, 2);\n\
               s.bump_extra(&flops_key(phase), 2);\n\
               }\n";
    expect("crates/sparse/src/fx.rs", src, &[]);
    // The registry module itself defines the literals.
    let registry = "pub const ALIGNED_CELLS_KEY: &str = \"aligned_cells\";";
    expect("crates/dist/src/extras.rs", registry, &[]);
}

#[test]
fn extras_key_must_not_fire_in_tests() {
    let src = "fn lib_ok() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               fn t(s: &CommStats) { s.bump_extra(\"xdrop_terminations\", 3); }\n\
               }\n";
    expect("crates/dist/src/fx.rs", src, &[]);
}

// ---------------------------------------------------------------------------
// lexer traps shared by all rules
// ---------------------------------------------------------------------------

#[test]
fn rule_text_in_comments_and_strings_never_fires() {
    let src = "//! m.iter() over a HashMap, o.unwrap(), Instant::now()\n\
               /* record_p2p(stats, 1) and s.bump_extra(\"k\", 1) in a block\n\
               /* nested */ comment */\n\
               pub fn f() -> &'static str {\n\
               \"m.keys() Instant::now() record_broadcast( .unwrap() bump_extra(\\\"k\\\"\"\n\
               }\n\
               pub fn g() -> &'static str { r#\"o.expect(\"x\") in a raw string\"# }\n";
    expect("crates/pipeline/src/fx.rs", src, &[]);
}

#[test]
fn char_literals_and_lifetimes_do_not_derail_scanning() {
    // If the lexer mistook `'a` for an unterminated char, the unwrap below
    // would be swallowed into a literal and the must-fire would be missed.
    let src = "pub fn f<'a>(v: &'a [u32]) -> u32 { let c = 'x'; drop(c); *v.first().unwrap() }";
    expect("crates/seq/src/fx.rs", src, &[(1, "unwrap")]);
}

#[test]
fn a_clean_multi_rule_file_is_clean() {
    let src = "use std::collections::BTreeMap;\n\
               pub fn f(stats: &CommStats, phase: CommPhase) -> Result<u32, String> {\n\
               let mut m: BTreeMap<u32, u32> = BTreeMap::new();\n\
               m.insert(1, 2);\n\
               let total: u32 = m.values().sum();\n\
               record_p2p(stats, phase, total as u64);\n\
               stats.bump_extra(ALIGNED_CELLS_KEY, 1);\n\
               m.get(&1).copied().ok_or_else(|| \"missing\".to_string())\n\
               }\n";
    expect("crates/sparse/src/fx.rs", src, &[]);
}
