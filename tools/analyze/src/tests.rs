//! Analyzer test suite: parser coverage, fixture crates with planted
//! transitive violations (found / waived / ambiguous), policy parsing,
//! and the workspace-must-be-clean gate over line passes and proofs.

use super::*;

fn one_crate(src: &str) -> Vec<SourceFile> {
    one_file("tcrate", "crates/tcrate/src/lib.rs", src)
}

fn analyzed(src: &str) -> Analysis {
    let mut a = analyze_sources(&one_crate(src), &Policy::default());
    compute_facts(&mut a, &[]);
    a
}

#[test]
fn parser_extracts_fns_methods_and_inline_mods() {
    let a = analyzed(
        "pub fn free() {}\n\
         pub struct Widget;\n\
         impl Widget {\n\
             pub fn method(&self) {}\n\
         }\n\
         impl std::fmt::Display for Widget {\n\
             fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
         }\n\
         mod inner {\n\
             pub fn nested() {}\n\
         }\n",
    );
    let ids: Vec<&str> = a.fns.iter().map(|f| f.id.as_str()).collect();
    assert!(ids.contains(&"tcrate::free"), "ids: {ids:?}");
    assert!(ids.contains(&"tcrate::Widget::method"));
    assert!(ids.contains(&"tcrate::Widget::fmt"));
    assert!(ids.contains(&"tcrate::inner::nested"));
}

#[test]
fn multi_line_signatures_and_where_clauses_parse() {
    let a = analyzed(
        "pub fn long_sig(\n\
             a: u32,\n\
             b: [u8; 4],\n\
         ) -> u32\n\
         where\n\
             u32: Copy,\n\
         {\n\
             helper(a)\n\
         }\n\
         fn helper(x: u32) -> u32 { x }\n",
    );
    assert_eq!(a.fns.len(), 2);
    let edge = a
        .edges
        .iter()
        .any(|e| a.fns[e.caller].name == "long_sig" && a.fns[e.callee].name == "helper");
    assert!(edge, "bare call in the body must resolve within the crate");
}

#[test]
fn intrinsic_sites_are_detected_and_attributed() {
    let a = analyzed(
        "pub fn risky(v: &[u32]) -> u32 {\n\
             let x = v[0];\n\
             let s = format!(\"{x}\");\n\
             let _ = s;\n\
             std::thread::sleep(std::time::Duration::from_millis(1));\n\
             x\n\
         }\n",
    );
    let f = &a.fns[0];
    assert!(f
        .sites
        .iter()
        .any(|s| s.fact == Fact::Panic && s.token == "slice-index"));
    assert!(f
        .sites
        .iter()
        .any(|s| s.fact == Fact::Alloc && s.token == "format!("));
    assert!(f
        .sites
        .iter()
        .any(|s| s.fact == Fact::Block && s.token == "sleep"));
    assert!(a.can[Fact::Panic.index()][0]);
    assert!(a.can[Fact::Alloc.index()][0]);
    assert!(a.can[Fact::Block.index()][0]);
}

#[test]
fn string_and_comment_tokens_are_invisible() {
    let a = analyzed(
        "pub fn quiet() {\n\
             // mentions .unwrap() and panic!() in prose\n\
             let s = \".unwrap() vec![format!\";\n\
             let _ = s;\n\
         }\n",
    );
    assert!(a.fns[0].sites.is_empty(), "sites: {:?}", a.fns[0].sites);
}

#[test]
fn test_code_is_masked_out() {
    let a = analyzed(
        "pub fn prod() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
             pub fn t() { x.unwrap(); }\n\
         }\n",
    );
    assert_eq!(a.fns.len(), 1);
    assert_eq!(a.fns[0].name, "prod");
}

#[test]
fn transitive_panic_propagates_and_explains() {
    let src = "pub fn root() { mid(); }\n\
               fn mid() { deep(); }\n\
               fn deep() { opt().unwrap(); }\n\
               fn opt() -> Option<u32> { None }\n";
    let a = analyzed(src);
    let root = a.index_of("tcrate::root").expect("root parsed");
    assert!(
        a.can[Fact::Panic.index()][root],
        "panic must propagate to root"
    );
    let chain = explain(&a, root, Fact::Panic).expect("chain exists");
    assert_eq!(chain.hops.len(), 3, "root → mid → deep");
    assert_eq!(chain.site_token, ".unwrap()");
    let rendered = render_chain(&a, &chain);
    assert!(rendered.contains("tcrate::root"));
    assert!(rendered.contains("tcrate::deep"));
    assert!(rendered.contains(".unwrap()"));
}

#[test]
fn waived_sites_do_not_seed_propagation() {
    let src = "pub fn root() { helper(); }\n\
               fn helper() {\n\
                   // analyze: allow(can-panic) — invariant: map is pre-filled\n\
                   map().unwrap();\n\
               }\n\
               fn map() -> Option<u32> { Some(1) }\n";
    let a = analyzed(src);
    let root = a.index_of("tcrate::root").expect("root parsed");
    assert!(
        !a.can[Fact::Panic.index()][root],
        "waived site must not propagate"
    );
    assert!(a.waiver_decls.iter().any(|w| w.rule == "can-panic"));
}

#[test]
fn waived_call_edges_cut_propagation() {
    let src = "pub fn root() {\n\
                   // analyze: allow(can-alloc) — cold path: once per session\n\
                   build_cache();\n\
               }\n\
               fn build_cache() { let v = vec![1, 2]; let _ = v; }\n";
    let a = analyzed(src);
    let root = a.index_of("tcrate::root").expect("root parsed");
    assert!(!a.can[Fact::Alloc.index()][root]);
    // The callee itself still carries the fact.
    let callee = a.index_of("tcrate::build_cache").expect("callee parsed");
    assert!(a.can[Fact::Alloc.index()][callee]);
}

#[test]
fn trust_entries_cut_propagation_at_the_boundary() {
    let src = "pub fn root() { audited(); }\n\
               pub fn audited() { inner().unwrap(); }\n\
               fn inner() -> Option<u32> { Some(1) }\n";
    let mut a = analyze_sources(&one_crate(src), &Policy::default());
    let trust = vec![TrustSpec {
        func: "tcrate::audited".into(),
        rules: vec![Fact::Panic],
        reason: "test: audited boundary".into(),
    }];
    let errors = compute_facts(&mut a, &trust);
    assert!(errors.is_empty());
    let root = a.index_of("tcrate::root").expect("root parsed");
    let audited = a.index_of("tcrate::audited").expect("audited parsed");
    assert!(
        a.can[Fact::Panic.index()][audited],
        "trusted fn keeps its own facts"
    );
    assert!(!a.can[Fact::Panic.index()][root], "caller must not inherit");
}

#[test]
fn unknown_trust_fn_is_an_error_not_a_silent_skip() {
    let mut a = analyze_sources(&one_crate("pub fn f() {}\n"), &Policy::default());
    let trust = vec![TrustSpec {
        func: "tcrate::no_such_fn".into(),
        rules: vec![Fact::Panic],
        reason: "typo".into(),
    }];
    let errors = compute_facts(&mut a, &trust);
    assert_eq!(errors.len(), 1);
    assert!(errors[0].contains("no_such_fn"));
}

#[test]
fn cross_crate_calls_resolve_by_path_and_import() {
    let sources = vec![
        SourceFile {
            crate_name: "alpha".into(),
            rel: "crates/alpha/src/lib.rs".into(),
            text: "use beta::helpers::step;\n\
                   pub fn go(x: u32) -> u32 { step(x) + beta::helpers::step(x) }\n"
                .into(),
        },
        SourceFile {
            crate_name: "beta".into(),
            rel: "crates/beta/src/helpers.rs".into(),
            text: "pub fn step(x: u32) -> u32 { x + 1 }\n".into(),
        },
    ];
    let a = analyze_sources(&sources, &Policy::default());
    let go = a.index_of("alpha::go").expect("go parsed");
    let step = a.index_of("beta::helpers::step").expect("step parsed");
    let hits = a
        .edges
        .iter()
        .filter(|e| e.caller == go && e.callee == step)
        .count();
    assert_eq!(
        hits, 2,
        "both the imported and the fully-qualified call resolve"
    );
}

#[test]
fn fn_references_in_higher_order_calls_get_edges() {
    let src = "pub struct Out;\n\
               impl Out {\n\
                   pub fn logic_only(self) -> Out { opt().unwrap() }\n\
               }\n\
               fn opt() -> Option<Out> { None }\n\
               pub fn root(v: Vec<Out>) -> Vec<Out> {\n\
                   v.into_iter().map(Out::logic_only).collect()\n\
               }\n";
    let a = analyzed(src);
    let root = a.index_of("tcrate::root").expect("root parsed");
    assert!(
        a.can[Fact::Panic.index()][root],
        "`map(Out::logic_only)` must carry the callee's facts"
    );
}

#[test]
fn ambiguous_method_calls_are_reported_with_conservative_edges() {
    let sources = vec![
        SourceFile {
            crate_name: "one".into(),
            rel: "crates/one/src/lib.rs".into(),
            text: "pub struct A;\nimpl A { pub fn emit(&self) {} }\n".into(),
        },
        SourceFile {
            crate_name: "two".into(),
            rel: "crates/two/src/lib.rs".into(),
            text: "pub struct B;\nimpl B { pub fn emit(&self) { x().unwrap(); }\n}\n\
                   fn x() -> Option<u32> { None }\n"
                .into(),
        },
        SourceFile {
            crate_name: "caller".into(),
            rel: "crates/caller/src/lib.rs".into(),
            text: "use one::A;\nuse two::B;\npub fn go(a: &A) { a.emit(); }\n".into(),
        },
    ];
    let a = analyzed_multi(sources);
    assert_eq!(a.ambiguities.len(), 1, "the .emit() call is ambiguous");
    assert_eq!(a.ambiguities[0].candidates.len(), 2);
    // Conservative: the caller inherits the worst candidate's facts.
    let go = a.index_of("caller::go").expect("go parsed");
    assert!(a.can[Fact::Panic.index()][go]);
}

fn analyzed_multi(sources: Vec<SourceFile>) -> Analysis {
    let mut a = analyze_sources(&sources, &Policy::default());
    compute_facts(&mut a, &[]);
    a
}

#[test]
fn self_receiver_methods_resolve_unambiguously() {
    let sources = vec![
        SourceFile {
            crate_name: "one".into(),
            rel: "crates/one/src/lib.rs".into(),
            text: "pub struct A;\n\
                   impl A {\n\
                       pub fn run(&self) { self.emit(); }\n\
                       fn emit(&self) {}\n\
                   }\n"
            .into(),
        },
        SourceFile {
            crate_name: "two".into(),
            rel: "crates/two/src/lib.rs".into(),
            text: "pub struct B;\nimpl B { pub fn emit(&self) { panic!(); } }\n".into(),
        },
    ];
    let a = analyzed_multi(sources);
    assert!(
        a.ambiguities.is_empty(),
        "self.emit() resolves to the owner's method: {:?}",
        a.ambiguities
    );
    let run = a.index_of("one::A::run").expect("run parsed");
    assert!(!a.can[Fact::Panic.index()][run]);
}

#[test]
fn ignore_methods_suppress_std_name_collisions() {
    let sources = vec![
        SourceFile {
            crate_name: "one".into(),
            rel: "crates/one/src/lib.rs".into(),
            text: "pub struct Q;\nimpl Q { pub fn push(&mut self, x: u32) { panic!(); } }\n".into(),
        },
        SourceFile {
            crate_name: "caller".into(),
            rel: "crates/caller/src/lib.rs".into(),
            // analyze: allow is absent on purpose: `.push(` is still an
            // intrinsic alloc token even when the call is ignored.
            text: "use one::Q;\npub fn go(v: &mut Vec<u32>) { v.push(1); }\n".into(),
        },
    ];
    let policy = Policy {
        ignore_methods: vec!["push".to_string()],
        ..Policy::default()
    };
    let mut a = analyze_sources(&sources, &policy);
    compute_facts(&mut a, &[]);
    let go = a.index_of("caller::go").expect("go parsed");
    assert!(
        !a.can[Fact::Panic.index()][go],
        "ignored method adds no panic edge"
    );
    assert!(
        a.can[Fact::Alloc.index()][go],
        "intrinsic token still fires"
    );
}

#[test]
fn policy_parses_roots_trust_and_ignore() {
    let p = parse_policy(
        "# comment\n\
         [[root]]\n\
         fn = \"a::b\"            # trailing comment\n\
         deny = [\"can-panic\", \"can-alloc\"]\n\
         reason = \"drain must not die\"\n\
         \n\
         [[trust]]\n\
         fn = \"a::c\"\n\
         rules = [\"can-alloc\"]\n\
         reason = \"audited arena\"\n\
         \n\
         [ignore]\n\
         methods = [\n\
             \"push\",\n\
             \"insert\",\n\
         ]\n\
         files = [\"crates/x/src/shim.rs\"]\n",
    )
    .expect("policy parses");
    assert_eq!(p.roots.len(), 1);
    assert_eq!(p.roots[0].deny, vec![Fact::Panic, Fact::Alloc]);
    assert_eq!(p.trust.len(), 1);
    assert_eq!(p.ignore_methods, vec!["push", "insert"]);
    assert_eq!(p.ignore_files, vec!["crates/x/src/shim.rs"]);
}

#[test]
fn policy_rejects_missing_reasons_and_unknown_rules() {
    assert!(parse_policy("[[root]]\nfn = \"a\"\ndeny = [\"can-panic\"]\n").is_err());
    assert!(
        parse_policy("[[root]]\nfn = \"a\"\ndeny = [\"can-explode\"]\nreason = \"x\"\n").is_err()
    );
}

/// Line-rule waivers share the inventory and the reason gate: a known
/// line id passes the rule check and reaches the JSON report.
#[test]
fn reasonless_waivers_are_policy_errors() {
    let src = "// analyze: allow(std-sync-import) — checker bookkeeping\n\
               use std::sync::Mutex;\n\
               pub fn root() {\n\
                   // analyze: allow(can-panic)\n\
                   x().unwrap();\n\
               }\n\
               fn x() -> Option<u32> { None }\n";
    let sources = one_file("c", "crates/check/src/policy.rs", src);
    let mut a = analyze_sources(&sources, &Policy::default());
    let policy = Policy::default();
    let results = check_policy(&mut a, &policy);
    assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    assert_eq!(results.errors.len(), 1, "errors: {:?}", results.errors);
    assert!(results.errors[0].contains(":4:") && results.errors[0].contains("no reason"));
    let json = report::render_json(&a, &policy, &results);
    assert!(json.contains("\"rule\": \"std-sync-import\", \"reason\": \"checker bookkeeping\""));
}

#[test]
fn unresolved_policy_roots_are_errors() {
    let mut a = analyze_sources(&one_crate("pub fn f() {}\n"), &Policy::default());
    let policy =
        parse_policy("[[root]]\nfn = \"tcrate::ghost\"\ndeny = [\"can-panic\"]\nreason = \"x\"\n")
            .expect("parses");
    let results = check_policy(&mut a, &policy);
    assert!(!results.clean());
    assert!(results.errors.iter().any(|e| e.contains("ghost")));
}

#[test]
fn violation_chains_reach_the_json_report() {
    let src = "pub fn root() { deep(); }\n\
               fn deep() { x().unwrap(); }\n\
               fn x() -> Option<u32> { None }\n";
    let mut a = analyze_sources(&one_crate(src), &Policy::default());
    let policy =
        parse_policy("[[root]]\nfn = \"tcrate::root\"\ndeny = [\"can-panic\"]\nreason = \"t\"\n")
            .expect("parses");
    let results = check_policy(&mut a, &policy);
    assert!(!results.clean());
    let json = report::render_json(&a, &policy, &results);
    assert!(json.contains("\"status\": \"violated\""));
    assert!(json.contains("tcrate::deep"));
    assert!(json.contains(".unwrap()"));
}

/// The built-in self-test is also a unit test: plant a violation three
/// calls deep, find it, pass the waived one, report the ambiguity.
#[test]
fn self_test_finds_the_planted_violation() {
    let evidence = self_test().expect("self-test passes");
    assert!(evidence.contains("3 calls deep"));
    assert!(evidence.contains("fix_core"));
}

// --- the lock-order & blocking-discipline pass -----------------------------

#[test]
fn lock_policy_round_trips() {
    let p = parse_policy(
        "[[lock]]\n\
         class = \"outer\"\n\
         receivers = [\"queue\", \"jobs\"]\n\
         acquire_fns = [\"a::lock_queue\"]\n\
         crate = \"a\"\n\
         reentrant = false\n\
         before = [\"inner\"]\n\
         reason = \"queue is the outer lock\"\n\
         \n\
         [[lock]]\n\
         class = \"inner\"\n\
         receivers = [\"slots\"]\n\
         reason = \"leaf\"\n\
         \n\
         [locks]\n\
         strict = [\"a\"]\n\
         unbounded_sends = [\"event_tx\"]\n",
    )
    .expect("lock policy parses");
    assert_eq!(p.locks.len(), 2);
    assert_eq!(p.locks[0].class, "outer");
    assert_eq!(p.locks[0].receivers, vec!["queue", "jobs"]);
    assert_eq!(p.locks[0].acquire_fns, vec!["a::lock_queue"]);
    assert_eq!(p.locks[0].crate_scope, "a");
    assert_eq!(p.locks[0].before, vec!["inner"]);
    assert!(!p.locks[0].reentrant);
    assert_eq!(p.lock_config.strict, vec!["a"]);
    assert_eq!(p.lock_config.unbounded_sends, vec!["event_tx"]);
}

#[test]
fn lock_policy_rejects_malformed_entries() {
    // No class name.
    assert!(parse_policy("[[lock]]\nreceivers = [\"q\"]\nreason = \"r\"\n").is_err());
    // Neither receivers nor acquire_fns.
    assert!(parse_policy("[[lock]]\nclass = \"a\"\nreason = \"r\"\n").is_err());
    // No reason.
    assert!(parse_policy("[[lock]]\nclass = \"a\"\nreceivers = [\"q\"]\n").is_err());
    // Duplicate class.
    assert!(parse_policy(
        "[[lock]]\nclass = \"a\"\nreceivers = [\"q\"]\nreason = \"r\"\n\
         [[lock]]\nclass = \"a\"\nreceivers = [\"p\"]\nreason = \"r\"\n"
    )
    .is_err());
    // `before` naming an unknown class.
    assert!(parse_policy(
        "[[lock]]\nclass = \"a\"\nreceivers = [\"q\"]\nbefore = [\"ghost\"]\nreason = \"r\"\n"
    )
    .is_err());
    // Non-boolean reentrant and an unknown key.
    assert!(parse_policy(
        "[[lock]]\nclass = \"a\"\nreceivers = [\"q\"]\nreentrant = \"yes\"\nreason = \"r\"\n"
    )
    .is_err());
    assert!(parse_policy("[[lock]]\nclass = \"a\"\nfrequency = \"2.282 GHz\"\n").is_err());
}

#[test]
fn cyclic_declared_order_is_a_policy_error() {
    let err = parse_policy(
        "[[lock]]\nclass = \"a\"\nreceivers = [\"qa\"]\nbefore = [\"b\"]\nreason = \"r\"\n\
         [[lock]]\nclass = \"b\"\nreceivers = [\"qb\"]\nbefore = [\"c\"]\nreason = \"r\"\n\
         [[lock]]\nclass = \"c\"\nreceivers = [\"qc\"]\nbefore = [\"a\"]\nreason = \"r\"\n",
    )
    .expect_err("a cyclic declared order must be rejected");
    assert!(err.contains("cyclic"), "err: {err}");
    assert!(
        err.contains("a → b → c → a") || err.contains("b → c → a → b"),
        "err: {err}"
    );
}

#[test]
fn reasonless_lock_order_waivers_are_policy_errors() {
    let src = "use std::sync::Mutex;\n\
               pub fn go(q: &Mutex<u32>, p: &Mutex<u32>) {\n\
                   let _a = q.lock().unwrap();\n\
                   // analyze: allow(lock-order)\n\
                   let _b = p.lock().unwrap();\n\
               }\n";
    let mut a = analyze_sources(&one_crate(src), &Policy::default());
    let policy = Policy::default();
    let results = check_policy(&mut a, &policy);
    assert!(
        results.errors.iter().any(|e| e.contains("no reason")),
        "errors: {:?}",
        results.errors
    );
}

/// The defect shape this PR fixed in `magnon_net`: joining a thread
/// while the registry guard is held. The old accept-loop shape must be
/// flagged as lock-block; the fixed shape (collect under the guard,
/// join after the block closes) must be clean.
#[test]
fn join_under_registry_lock_is_flagged_and_the_fixed_shape_is_clean() {
    let lock_policy = "[[lock]]\n\
                       class = \"registry\"\n\
                       receivers = [\"connections\"]\n\
                       reason = \"test registry\"\n";
    let old_shape = "use std::sync::Mutex;\n\
                     pub fn accept_loop(connections: &Mutex<Vec<u32>>) {\n\
                         let mut registry = connections.lock().unwrap();\n\
                         if let Some(h) = registry.pop() {\n\
                             join_one(h);\n\
                         }\n\
                     }\n\
                     fn join_one(_h: u32) { std::thread::park(); }\n";
    let mut a = analyze_sources(&one_crate(old_shape), &Policy::default());
    let policy = parse_policy(lock_policy).expect("parses");
    let results = check_policy(&mut a, &policy);
    let blocked: Vec<_> = results
        .lock
        .violations
        .iter()
        .filter(|v| v.kind == "lock-block")
        .collect();
    assert_eq!(blocked.len(), 1, "one blocking-under-lock path");
    assert!(
        blocked[0].detail.contains("join_one") && blocked[0].detail.contains("park"),
        "the chain names the hop and the blocking site: {}",
        blocked[0].detail
    );
    assert!(!results.clean());

    let fixed_shape = "use std::sync::Mutex;\n\
                       pub fn accept_loop(connections: &Mutex<Vec<u32>>) {\n\
                           let finished = {\n\
                               let mut registry = connections.lock().unwrap();\n\
                               registry.pop()\n\
                           };\n\
                           if let Some(h) = finished {\n\
                               join_one(h);\n\
                           }\n\
                       }\n\
                       fn join_one(_h: u32) { std::thread::park(); }\n";
    let mut a = analyze_sources(&one_crate(fixed_shape), &Policy::default());
    let results = check_policy(&mut a, &policy);
    assert!(
        results.lock.violations.is_empty(),
        "joining after the guard block closes is clean: {:?}",
        results
            .lock
            .violations
            .iter()
            .map(|v| (v.kind, v.detail.clone()))
            .collect::<Vec<_>>()
    );
}

/// Expression-temporary guards die on their own line: blocking on the
/// next line is *not* under the lock.
#[test]
fn temporary_guards_do_not_cover_following_lines() {
    let src = "use std::sync::Mutex;\n\
               pub fn tick(connections: &Mutex<Vec<u32>>) {\n\
                   let n = connections.lock().unwrap().len();\n\
                   std::thread::park();\n\
                   let _ = n;\n\
               }\n";
    let mut a = analyze_sources(&one_crate(src), &Policy::default());
    let policy = parse_policy(
        "[[lock]]\nclass = \"registry\"\nreceivers = [\"connections\"]\nreason = \"t\"\n",
    )
    .expect("parses");
    let results = check_policy(&mut a, &policy);
    assert!(
        results.lock.violations.is_empty(),
        "violations: {:?}",
        results
            .lock
            .violations
            .iter()
            .map(|v| v.kind)
            .collect::<Vec<_>>()
    );
}

/// Nesting against the declared order is order-inversion; nesting with
/// no declared cover is order-undeclared. Both carry the witness.
#[test]
fn order_inversion_and_undeclared_nesting_are_flagged() {
    let src = "use std::sync::Mutex;\n\
               pub struct S { queue: Mutex<u32>, slots: Mutex<u32>, aux: Mutex<u32> }\n\
               impl S {\n\
                   pub fn inverted(&self) {\n\
                       let _s = self.slots.lock().unwrap();\n\
                       let _q = self.queue.lock().unwrap();\n\
                   }\n\
                   pub fn undeclared(&self) {\n\
                       let _q = self.queue.lock().unwrap();\n\
                       let _x = self.aux.lock().unwrap();\n\
                   }\n\
               }\n";
    let mut a = analyze_sources(&one_crate(src), &Policy::default());
    let policy = parse_policy(
        "[[lock]]\nclass = \"queue\"\nreceivers = [\"queue\"]\nbefore = [\"slots\"]\nreason = \"t\"\n\
         [[lock]]\nclass = \"slots\"\nreceivers = [\"slots\"]\nreason = \"t\"\n\
         [[lock]]\nclass = \"aux\"\nreceivers = [\"aux\"]\nreason = \"t\"\n",
    )
    .expect("parses");
    let results = check_policy(&mut a, &policy);
    let kinds: Vec<&str> = results.lock.violations.iter().map(|v| v.kind).collect();
    assert!(kinds.contains(&"order-inversion"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"order-undeclared"), "kinds: {kinds:?}");
    let inv = results
        .lock
        .violations
        .iter()
        .find(|v| v.kind == "order-inversion")
        .unwrap();
    assert_eq!(inv.classes, vec!["slots".to_string(), "queue".to_string()]);
    assert!(inv.detail.contains("inverted"), "detail: {}", inv.detail);
}

/// Strict crates turn unmatched receivers into hard errors; non-strict
/// crates record them as notes.
#[test]
fn strict_crates_reject_unclassified_receivers() {
    let src = "use std::sync::Mutex;\n\
               pub fn f(mystery: &Mutex<u32>) { let _g = mystery.lock().unwrap(); }\n";
    let mut a = analyze_sources(&one_crate(src), &Policy::default());
    let strict = parse_policy(
        "[[lock]]\nclass = \"known\"\nreceivers = [\"other\"]\nreason = \"t\"\n\
         [locks]\nstrict = [\"tcrate\"]\n",
    )
    .expect("parses");
    let results = check_policy(&mut a, &strict);
    assert!(
        results.errors.iter().any(|e| e.contains("mystery")),
        "errors: {:?}",
        results.errors
    );
    let mut a = analyze_sources(&one_crate(src), &Policy::default());
    let lax =
        parse_policy("[[lock]]\nclass = \"known\"\nreceivers = [\"other\"]\nreason = \"t\"\n")
            .expect("parses");
    let results = check_policy(&mut a, &lax);
    assert!(results.errors.is_empty());
    assert_eq!(results.lock.unclassified.len(), 1);
}

/// The computed lock graph reaches the JSON deadlock report with its
/// witness edges and violations.
#[test]
fn lock_edges_and_violations_reach_the_json_report() {
    let src = "use std::sync::Mutex;\n\
               pub struct S { queue: Mutex<u32>, slots: Mutex<u32> }\n\
               impl S {\n\
                   pub fn nested(&self) {\n\
                       let _q = self.queue.lock().unwrap();\n\
                       let _s = self.slots.lock().unwrap();\n\
                   }\n\
               }\n";
    let mut a = analyze_sources(&one_crate(src), &Policy::default());
    let policy = parse_policy(
        "[[lock]]\nclass = \"queue\"\nreceivers = [\"queue\"]\nreason = \"t\"\n\
         [[lock]]\nclass = \"slots\"\nreceivers = [\"slots\"]\nreason = \"t\"\n",
    )
    .expect("parses");
    let results = check_policy(&mut a, &policy);
    let json = report::render_json(&a, &policy, &results);
    assert!(json.contains("\"locks\""));
    assert!(json.contains("\"from\": \"queue\""));
    assert!(json.contains("\"to\": \"slots\""));
    assert!(json.contains("order-undeclared"));
    assert!(json.contains("\"acyclic\": true"));
}

// --- line passes inside the analyzer --------------------------------------

fn one_file(crate_name: &str, rel: &str, src: &str) -> Vec<SourceFile> {
    vec![SourceFile {
        crate_name: crate_name.into(),
        rel: rel.into(),
        text: src.into(),
    }]
}

/// One `can-panic` waiver covers both panic checks on its site: the
/// drain-file line pass and the intrinsic fact the roots propagate.
#[test]
fn one_can_panic_waiver_silences_the_line_pass_and_the_fact() {
    let waived = "pub fn drain(v: &[u32]) -> u32 {\n\
                      // analyze: allow(can-panic) — corruption trap\n\
                      v.first().copied().unwrap()\n\
                  }\n";
    let bare = waived.replace("// analyze: allow(can-panic) — corruption trap", "");
    for (src, flagged) in [(waived, false), (bare.as_str(), true)] {
        let sources = one_file("magnon_serve", "crates/serve/src/scheduler.rs", src);
        let mut a = analyze_sources(&sources, &Policy::default());
        assert!(check_policy(&mut a, &Policy::default()).errors.is_empty());
        let ids: Vec<&str> = a.findings.iter().map(|f| f.rule.id()).collect();
        assert_eq!(ids, if flagged { vec!["can-panic"] } else { vec![] });
        assert_eq!(a.can[Fact::Panic.index()][0], flagged);
    }
}

/// `[ignore].files` leave the call graph, not the line passes.
#[test]
fn ignored_files_are_still_line_checked() {
    let shim = "crates/core/src/sync/shim.rs";
    let policy = Policy {
        ignore_files: vec![shim.into()],
        ..Policy::default()
    };
    let src = "pub fn load() -> u32 { X.load(Ordering::Relaxed) }\n";
    let a = analyze_sources(&one_file("magnon_core", shim, src), &policy);
    assert!(a.fns.is_empty(), "the shim must stay out of the graph");
    let rules: Vec<lines::Rule> = a.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![lines::Rule::OrderingRationale]);
}

/// Every file and directory a line rule is scoped to exists: a deleted
/// or renamed path would otherwise leave its rule checking nothing.
#[test]
fn line_rule_scopes_name_existing_paths() {
    let root = workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the analyzer lives inside the workspace");
    for file in lines::HOT_PATH_FILES.iter().chain(lines::DRAIN_PATH_FILES) {
        assert!(root.join(file).is_file(), "scoped file {file} is missing");
    }
    for dir in lines::FACADE_DIRS {
        assert!(root.join(dir).is_dir(), "scoped directory {dir} is missing");
    }
}

/// The whole point: the real workspace, under the real policy, is
/// clean — zero line findings and every proof holding. This makes
/// `cargo test` itself the gate: a new violation of any line rule, or a
/// transitive panic/alloc/block reaching a protected root, fails here
/// before CI even runs the binary.
#[test]
fn workspace_is_clean_under_the_checked_in_policy() {
    let root = workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the analyzer lives inside the workspace");
    let policy_text = std::fs::read_to_string(root.join("analysis-policy.toml"))
        .expect("analysis-policy.toml is checked in");
    let policy = parse_policy(&policy_text).expect("policy parses");
    assert!(!policy.roots.is_empty(), "policy must declare roots");
    let sources = load_workspace(&root);
    assert!(sources.len() > 20, "the walk must find the crates");
    let mut analysis = analyze_sources(&sources, &policy);
    let results = check_policy(&mut analysis, &policy);
    let mut rendered = String::new();
    for f in &analysis.findings {
        rendered.push_str(&format!("{f}\n"));
    }
    for e in &results.errors {
        rendered.push_str(&format!("error: {e}\n"));
    }
    for r in &results.roots {
        for chain in &r.violations {
            rendered.push_str(&format!(
                "VIOLATION [{}] root {}\n{}",
                chain.fact.id(),
                r.spec.func,
                render_chain(&analysis, chain)
            ));
        }
    }
    for v in &results.lock.violations {
        rendered.push_str(&format!(
            "LOCK VIOLATION [{}] {}\n{}",
            v.kind,
            v.classes.join(" → "),
            v.detail
        ));
    }
    assert!(
        analysis.findings.is_empty() && results.clean(),
        "workspace must be analyzer-clean under analysis-policy.toml:\n{rendered}"
    );
    assert!(
        results.lock.acyclic() && results.lock.classified_sites > 0,
        "the checked-in [[lock]] classes must classify the workspace's sites"
    );
}
