//! The line passes: project-specific per-line rules the compiler cannot
//! express and the call graph does not cover, run over every non-test
//! `.rs` file of the workspace walk (the `[ignore].files` mcheck shims
//! included — they leave the graph, not the line passes).
//!
//! | id                    | scope                 | requirement |
//! |-----------------------|-----------------------|-------------|
//! | `safety-comment`      | all crates/tools      | every `unsafe` carries a `// SAFETY:` comment on the same line or within 5 lines above |
//! | `ordering-rationale`  | all crates/tools      | every non-`SeqCst` atomic ordering carries an `// ordering:` rationale on the same line or within 8 lines above |
//! | `hot-path-sleep`      | declared hot files    | no `thread::sleep` on the serving hot path (the client read-path stall class) |
//! | `can-panic`           | declared drain files  | no `unwrap`/`expect`/`panic!`-family macros or slice indexing anywhere in the serve drain and net decode files |
//! | `std-sync-import`     | façade-ported crates  | no direct `std::sync`/`std::thread`/`std::time::Instant` — sync primitives go through `magnon_core::sync` so `cfg(mcheck)` can instrument them |
//!
//! None of these is a restatement of a `[[root]]` proof. The drain-file
//! panic check is file-wide: it covers functions no root reaches and
//! functions whose root proof fails through ambiguous-method fan-out.
//! The hot-path sleep ban cannot be a `can-block` root, because the
//! pipeline and client files block on tickets and sockets by design. The drain-file check reports under the `can-panic` id, so one
//! `// analyze: allow(can-panic) — reason` waiver silences both it and
//! the intrinsic fact on that site.
//!
//! `#[cfg(test)]` items (whole `mod tests { … }` blocks included) are
//! skipped entirely — test code may unwrap.

use std::fmt;

use crate::lex::{
    has_macro, has_slice_index, has_word, is_doc_comment, is_ident_char, trim_reason,
    waiver_reason, LineViews, WAIVER_TAG,
};
use crate::WaiverDecl;

/// Files where blocking the thread stalls unrelated requests: the
/// serve drain/submit path and the net client's shared read path
/// (`magnon-net/src/server.rs` is deliberately absent — its accept
/// loop and writer pump own their threads and may back off).
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/serve/src/scheduler.rs",
    "crates/serve/src/request.rs",
    "crates/serve/src/telemetry.rs",
    "crates/serve/src/pipeline.rs",
    "crates/net/src/client.rs",
];

/// Files whose failure mode must be an error value, not a panic: a
/// panic in the serve drain kills a worker shard; a panic in frame
/// decoding lets one malformed peer kill a connection thread.
pub const DRAIN_PATH_FILES: &[&str] = &[
    "crates/serve/src/scheduler.rs",
    "crates/net/src/protocol.rs",
];

/// Crates that must not import `std::sync`/`std::thread`/
/// `std::time::Instant` directly: the façade-ported serving crates
/// (dodging `magnon_core::sync` dodges `cfg(mcheck)` instrumentation)
/// plus the crates the scheduler and compiler lean on — `crates/check`
/// (whose *modeled* world must go through the façade; its own
/// controller lock is the waived exception), `crates/compiler` and
/// `crates/circuits` (pure data-structure crates where a stray
/// `Instant` or ad-hoc thread would be a design smell and invisible to
/// the model checker).
pub const FACADE_DIRS: &[&str] = &[
    "crates/serve/src",
    "crates/net/src",
    "crates/check/src",
    "crates/compiler/src",
    "crates/circuits/src",
];

pub const NON_SEQCST: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

pub const PANIC_TOKENS: &[&str] = &[".unwrap()", ".expect("];
pub const PANIC_MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];
pub const STD_SYNC_TOKENS: &[&str] = &["std::sync::", "std::thread", "std::time::Instant"];

/// The retired waiver syntax. A leftover is a finding, not a silent
/// no-op, so nobody believes a site is waived when it is not.
const RETIRED_TAG: &str = "lint: allow(";

/// The line rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    SafetyComment,
    OrderingRationale,
    HotPathSleep,
    DrainPathPanic,
    StdSyncImport,
    RetiredWaiver,
}

impl Rule {
    /// Every id a waiver may name for a line rule (`can-panic` doubles
    /// as the intrinsic fact's id).
    pub const WAIVABLE: [Rule; 5] = [
        Rule::SafetyComment,
        Rule::OrderingRationale,
        Rule::HotPathSleep,
        Rule::DrainPathPanic,
        Rule::StdSyncImport,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::OrderingRationale => "ordering-rationale",
            Rule::HotPathSleep => "hot-path-sleep",
            Rule::DrainPathPanic => "can-panic",
            Rule::StdSyncImport => "std-sync-import",
            Rule::RetiredWaiver => "waiver-syntax",
        }
    }

    pub fn requirement(self) -> &'static str {
        match self {
            Rule::SafetyComment => {
                "`unsafe` needs a `// SAFETY:` comment on the same line or within 5 lines above"
            }
            Rule::OrderingRationale => {
                "non-SeqCst atomic ordering needs an `// ordering:` rationale on the same line \
                 or within 8 lines above"
            }
            Rule::HotPathSleep => {
                "no `thread::sleep` in declared hot-path modules — a sleeping worker stalls \
                 every request behind it (park on a channel or condvar instead)"
            }
            Rule::DrainPathPanic => {
                "no `unwrap`/`expect`/panic macros/slice indexing in drain or decode files — \
                 return an error so one bad request cannot kill the worker"
            }
            Rule::StdSyncImport => {
                "no direct `std::sync`/`std::thread`/`std::time::Instant` in façade-ported \
                 crates — import through `magnon_core::sync` so `cfg(mcheck)` instruments it"
            }
            Rule::RetiredWaiver => {
                "the `lint:` waiver tag is retired and waives nothing — write \
                 `// analyze: allow(<rule>) — <reason>`"
            }
        }
    }
}

/// One violation, addressable as `file:line`.
#[derive(Debug)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file,
            self.line,
            self.rule.id(),
            self.rule.requirement(),
            self.excerpt.trim()
        )
    }
}

/// Whether any comment in the `window` lines ending at `idx` (same
/// line included) contains `marker`.
fn rationale_nearby(lines: &[LineViews], idx: usize, window: usize, marker: &str) -> bool {
    lines[idx.saturating_sub(window)..=idx]
        .iter()
        .any(|l| l.comment.contains(marker))
}

/// Whether a fully-expanded `use` group path hits the façade ban list.
/// `::self` re-imports the module itself; a trailing `::` is an open
/// prefix whose items are judged individually.
fn banned_group_path(path: &str) -> bool {
    let p = path.strip_suffix("::self").unwrap_or(path);
    let p = p.trim_end_matches(':');
    ["std::sync", "std::thread", "std::time::Instant"]
        .iter()
        .any(|b| p == *b || (p.starts_with(b) && p[b.len()..].starts_with("::")))
}

/// Lines (0-based) where a brace-grouped `use std::…{…}` import pulls
/// in a banned façade path. Grouped forms — `use std::{thread, io}`,
/// `use std::time::{Duration, Instant}` — evade the plain
/// [`STD_SYNC_TOKENS`] scan because the banned path never appears
/// contiguously; this pass expands group prefixes (nested groups and
/// `as` renames included) across line boundaries and flags the line
/// each offending leaf lands on.
pub fn grouped_std_import_lines(lines: &[LineViews]) -> Vec<usize> {
    let mut flagged: Vec<usize> = Vec::new();
    let mut in_item = false;
    let mut stack: Vec<String> = Vec::new();
    let mut seg = String::new();
    let mut alias_skip = false;
    for (idx, line) in lines.iter().enumerate() {
        let mut code: &str = &line.code;
        'line: loop {
            if !in_item {
                let Some(pos) = code.find("use std::") else {
                    break 'line;
                };
                let boundary = code[..pos]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !is_ident_char(c));
                code = &code[pos + "use std::".len()..];
                if boundary {
                    in_item = true;
                    stack.clear();
                    seg = String::from("std::");
                    alias_skip = false;
                }
                continue 'line;
            }
            let mut resume: Option<usize> = None;
            for (ci, ch) in code.char_indices() {
                match ch {
                    '{' => {
                        stack.push(seg.clone());
                        alias_skip = false;
                    }
                    '}' | ',' | ';' => {
                        if !stack.is_empty() && banned_group_path(&seg) {
                            flagged.push(idx);
                        }
                        alias_skip = false;
                        match ch {
                            '}' => seg = stack.pop().unwrap_or_else(|| String::from("std::")),
                            ',' => {
                                seg = stack
                                    .last()
                                    .cloned()
                                    .unwrap_or_else(|| String::from("std::"))
                            }
                            _ => {
                                in_item = false;
                                resume = Some(ci + 1);
                            }
                        }
                        if resume.is_some() {
                            break;
                        }
                    }
                    c if (is_ident_char(c) || c == ':') && !alias_skip => seg.push(c),
                    c if c.is_whitespace()
                        && seg.chars().next_back().is_some_and(is_ident_char) =>
                    {
                        alias_skip = true;
                    }
                    _ => {}
                }
            }
            match resume {
                Some(r) => code = &code[r..],
                None => break 'line,
            }
        }
    }
    flagged.dedup();
    flagged
}

/// Runs the line passes over one lexed file. `rel` is the
/// workspace-relative path with forward slashes (it selects the scoped
/// rules); `test_mask` marks the `#[cfg(test)]` lines to skip.
pub fn lint_lines(
    rel: &str,
    source: &str,
    lines: &[LineViews],
    test_mask: &[bool],
) -> Vec<Finding> {
    let hot_path = HOT_PATH_FILES.contains(&rel);
    let drain_path = DRAIN_PATH_FILES.contains(&rel);
    let facade = FACADE_DIRS.iter().any(|d| rel.starts_with(d));
    let grouped_std = if facade {
        grouped_std_import_lines(lines)
    } else {
        Vec::new()
    };
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    let report = |idx: usize, rule: Rule, findings: &mut Vec<Finding>| {
        if rule == Rule::RetiredWaiver || waiver_reason(lines, idx, rule.id()).is_none() {
            findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule,
                excerpt: raw_lines.get(idx).unwrap_or(&"").to_string(),
            });
        }
    };
    for (idx, line) in lines.iter().enumerate() {
        if test_mask[idx] {
            continue;
        }
        if line.comment.contains(RETIRED_TAG) && !is_doc_comment(&line.comment) {
            report(idx, Rule::RetiredWaiver, &mut findings);
        }
        let code = &line.code;
        if code.trim().is_empty() {
            continue;
        }
        if has_word(code, "unsafe") && !rationale_nearby(lines, idx, 5, "SAFETY:") {
            report(idx, Rule::SafetyComment, &mut findings);
        }
        if NON_SEQCST.iter().any(|o| code.contains(o))
            && !rationale_nearby(lines, idx, 8, "ordering:")
        {
            report(idx, Rule::OrderingRationale, &mut findings);
        }
        if hot_path && (code.contains("thread::sleep") || has_word(code, "sleep_ms")) {
            report(idx, Rule::HotPathSleep, &mut findings);
        }
        if drain_path {
            let panics = PANIC_TOKENS.iter().any(|t| code.contains(t))
                || PANIC_MACROS.iter().any(|m| has_macro(code, m))
                || has_slice_index(code);
            if panics {
                report(idx, Rule::DrainPathPanic, &mut findings);
            }
        }
        if facade
            && (STD_SYNC_TOKENS.iter().any(|t| code.contains(t)) || grouped_std.contains(&idx))
        {
            report(idx, Rule::StdSyncImport, &mut findings);
        }
    }
    findings
}

/// Every waiver comment outside the masked lines — the inventory the
/// reason gate and the JSON report run over, line-rule and graph
/// waivers alike. Doc comments are skipped: they *describe* the
/// syntax, they don't waive anything.
pub fn collect_waiver_decls(rel: &str, lines: &[LineViews], mask: &[bool]) -> Vec<WaiverDecl> {
    let mut out = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        if mask[idx] || is_doc_comment(&l.comment) {
            continue;
        }
        let mut rest = l.comment.as_str();
        while let Some(p) = rest.find(WAIVER_TAG) {
            let after = &rest[p + WAIVER_TAG.len()..];
            let Some(close) = after.find(')') else {
                break;
            };
            let rule = after[..close].trim().to_string();
            let tail = &after[close + 1..];
            let end = tail.find(WAIVER_TAG).unwrap_or(tail.len());
            out.push(WaiverDecl {
                file: rel.to_string(),
                line: idx + 1,
                rule,
                reason: trim_reason(&tail[..end]),
            });
            rest = tail;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{cfg_test_mask, split_views};

    fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
        let lines = split_views(source);
        lint_lines(rel, source, &lines, &cfg_test_mask(&lines))
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let bad = "fn f() {\n    unsafe { std::hint::unreachable_unchecked() }\n}";
        let findings = lint_source("crates/x/src/lib.rs", bad);
        assert!(findings.iter().any(|f| f.rule == Rule::SafetyComment));
        let good = "fn f() {\n    // SAFETY: caller guarantees the invariant.\n    unsafe { std::hint::unreachable_unchecked() }\n}";
        assert!(lint_source("crates/x/src/lib.rs", good)
            .iter()
            .all(|f| f.rule != Rule::SafetyComment));
    }

    #[test]
    fn non_seqcst_ordering_needs_rationale() {
        let bad = "counter.fetch_add(1, Ordering::Relaxed);";
        let findings = lint_source("crates/x/src/lib.rs", bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::OrderingRationale);
        let good = "// ordering: monotonic counter, no data published.\ncounter.fetch_add(1, Ordering::Relaxed);";
        assert!(lint_source("crates/x/src/lib.rs", good).is_empty());
        // SeqCst needs no comment.
        assert!(lint_source("crates/x/src/lib.rs", "c.load(Ordering::SeqCst);").is_empty());
    }

    #[test]
    fn sleep_is_flagged_only_on_hot_path_files() {
        let source = "fn f() { thread::sleep(Duration::from_millis(1)); }";
        assert!(lint_source("crates/net/src/client.rs", source)
            .iter()
            .any(|f| f.rule == Rule::HotPathSleep));
        // server.rs is not a declared hot path: its pump may back off.
        assert!(lint_source("crates/net/src/server.rs", source)
            .iter()
            .all(|f| f.rule != Rule::HotPathSleep));
    }

    /// The acceptance criterion's deliberately seeded violation: a
    /// drain-path file with an `unwrap` (and friends) must fail.
    #[test]
    fn seeded_drain_path_violations_fail() {
        for bad in [
            "let x = slot.take().unwrap();",
            "let x = slot.take().expect(\"filled\");",
            "panic!(\"corrupt\");",
            "unreachable!();",
            "let lead = group[0].gate;",
            "let head = buf[..4].to_vec();",
            "let b = chunk?[0];",
        ] {
            let findings = lint_source("crates/serve/src/scheduler.rs", bad);
            assert!(
                findings.iter().any(|f| f.rule == Rule::DrainPathPanic),
                "must flag drain-path panic in: {bad}"
            );
        }
    }

    #[test]
    fn drain_path_rule_spares_non_panicking_idioms() {
        for good in [
            "let x = slot.unwrap_or(0);",
            "let x = slot.unwrap_or_else(Vec::new);",
            "let x = map.get(key);",
            "#[derive(Debug)]",
            "let v = vec![1, 2, 3];",
            "let t: [u8; 4] = [0; 4];",
            "matches!(x, [..])",
            "self.meta.get(gate).copied()",
            "fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {",
            "bytes: &'a [u8],",
            "f(&mut [1, 2]);",
            "return [a, b];",
            "let [byte] = self.array::<1>()?;",
        ] {
            assert!(
                lint_source("crates/serve/src/scheduler.rs", good).is_empty(),
                "must not flag: {good}"
            );
        }
    }

    #[test]
    fn std_sync_imports_are_banned_in_facade_crates() {
        for bad in [
            "use std::sync::Arc;",
            "use std::thread;",
            "let t = std::time::Instant::now();",
        ] {
            let findings = lint_source("crates/serve/src/telemetry.rs", bad);
            assert!(
                findings.iter().any(|f| f.rule == Rule::StdSyncImport),
                "must flag std sync import: {bad}"
            );
        }
        // Non-façade crates may use std::sync directly (core IS the façade).
        assert!(lint_source("crates/core/src/sync/shim.rs", "use std::sync::Arc;").is_empty());
        // std::time::Duration is a plain value type, not a sync primitive.
        assert!(lint_source("crates/net/src/protocol.rs", "use std::time::Duration;").is_empty());
    }

    /// The façade rule reaches beyond the serving crates: the
    /// model checker, the compiler and the circuits crate must route
    /// sync primitives through `magnon_core::sync` too (or carry a
    /// reasoned waiver, like the checker's own controller lock).
    #[test]
    fn facade_rule_covers_check_compiler_and_circuits() {
        for rel in [
            "crates/check/src/harness.rs",
            "crates/compiler/src/place.rs",
            "crates/circuits/src/netlist.rs",
        ] {
            let findings = lint_source(rel, "use std::sync::Mutex;");
            assert!(
                findings.iter().any(|f| f.rule == Rule::StdSyncImport),
                "must flag std sync import in {rel}"
            );
        }
        let waived = "// analyze: allow(std-sync-import) — controller lock must not be modeled\n\
                      use std::sync::Mutex;";
        assert!(lint_source("crates/check/src/harness.rs", waived).is_empty());
    }

    /// Grouped imports must not evade the façade rule: `std::{thread}`
    /// and `std::time::{…, Instant}` never spell the banned path
    /// contiguously, so the expansion pass catches them.
    #[test]
    fn facade_rule_catches_grouped_std_imports() {
        for (src, what) in [
            ("use std::{thread, io};", "std::{thread}"),
            ("use std::time::{Duration, Instant};", "grouped Instant"),
            ("use std::{sync::Arc, fmt};", "nested sync path"),
            ("use std::{io,\n    thread,\n};", "multi-line group"),
            ("use std::time::{Instant as Clock};", "renamed Instant"),
            ("use std::thread::{self};", "self re-import"),
        ] {
            let findings = lint_source("crates/net/src/server.rs", src);
            assert!(
                findings.iter().any(|f| f.rule == Rule::StdSyncImport),
                "must flag {what}: {src}"
            );
        }
        // Groups that never touch a banned path stay clean, as does the
        // same import outside a façade crate.
        assert!(lint_source(
            "crates/net/src/server.rs",
            "use std::time::{Duration};\nuse std::{fmt, io};"
        )
        .is_empty());
        assert!(lint_source("crates/math/src/fft.rs", "use std::{thread, io};").is_empty());
        // Waivers work on the grouped form too.
        let waived = "// analyze: allow(std-sync-import) — test fixture needs a raw thread\n\
                      use std::{thread, io};";
        assert!(lint_source("crates/net/src/server.rs", waived).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let source = "fn prod() {}\n\
                      #[cfg(test)]\n\
                      mod tests {\n\
                          use std::sync::Arc;\n\
                          fn t() { x.unwrap(); thread::sleep(d); }\n\
                      }\n";
        assert!(lint_source("crates/serve/src/scheduler.rs", source).is_empty());
        // …but code after the test mod is linted again.
        let tail = format!("{source}fn later() {{ y.unwrap(); }}\n");
        let findings = lint_source("crates/serve/src/scheduler.rs", &tail);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 7);
    }

    #[test]
    fn waivers_silence_a_single_rule_on_a_single_site() {
        let waived = "// Deliberate crash on corrupt state.\n\
                      // analyze: allow(can-panic) — corruption trap\n\
                      assert_no_panics();\n\
                      let lead = group[0].gate;\n\
                      let next = group[1].gate;";
        let findings = lint_source("crates/serve/src/scheduler.rs", waived);
        // The waiver covers its own neighborhood (2 lines below), not
        // the indexing further down.
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 5);
    }

    /// One waiver syntax: the retired tag waives nothing and is itself
    /// a finding, so a stale comment cannot pass for a waiver.
    #[test]
    fn retired_lint_tag_is_a_finding_and_waives_nothing() {
        let stale = "// lint: allow(can-panic) — old syntax\n\
                     let x = slot.take().unwrap();";
        let rules: Vec<Rule> = lint_source("crates/serve/src/scheduler.rs", stale)
            .iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, vec![Rule::RetiredWaiver, Rule::DrainPathPanic]);
        // Docs may describe the old tag.
        assert!(lint_source("crates/x/src/lib.rs", "//! `// lint: allow(x)` is gone").is_empty());
    }

    #[test]
    fn string_and_comment_contents_never_trip_rules() {
        let source = "let s = \"thread::sleep unsafe Ordering::Relaxed .unwrap()\";\n\
                      // mentions panic!(…) and std::sync::Mutex in prose\n";
        assert!(lint_source("crates/serve/src/scheduler.rs", source).is_empty());
    }
}
