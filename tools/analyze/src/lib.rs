//! The workspace's one static-analysis tool. One walk collects every
//! non-test `.rs` file under `crates/` and `tools/`; each file is lexed
//! once ([`lex`]) and feeds the **line passes** ([`lines`]) and the
//! **call graph**. The graph is parsed by name (no type inference),
//! each function is seeded with its *intrinsic* facts (the
//! `unwrap`/`sleep`/`push` tokens on its own lines), and the facts
//! propagate transitively: **can-panic**, **can-block**,
//! **can-allocate**. A checked-in policy file (`analysis-policy.toml`)
//! declares root functions and the facts they must be free of;
//! violations come with the full call chain from root to offending
//! site. The `[ignore].files` mcheck shims stay out of the graph, not
//! out of the line passes. Every rule is waived the same way, on the
//! line or up to two lines above, with a mandatory reason:
//! `// analyze: allow(<rule>) — <reason>`.
//!
//! ```text
//! cargo run -p magnon-analyze                  # line passes + policy proofs + lock pass
//! cargo run -p magnon-analyze -- --explain magnon_serve::scheduler::Worker::serve_drain
//! cargo run -p magnon-analyze -- --json report.json
//! cargo run -p magnon-analyze -- --self-test   # plant + find a 3-deep violation
//! ```
//!
//! Known blind spots, by design (documented over clever): integer
//! division/overflow is not modeled (type-blind token scan), `.clone()`
//! is not an alloc token (cloning a `u64` is free and the scan cannot
//! tell), and calls through function-pointer *variables* are invisible
//! (references like `map(Type::method)` **are** tracked). Ambiguous
//! method calls get conservative edges to every candidate and are
//! reported, never silently dropped.

pub mod lex;
pub mod lines;
pub mod locks;
mod parse;
pub mod policy;
pub mod report;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

pub use parse::{module_path_of, parse_file};
pub use policy::{parse_policy, Policy, RootSpec, TrustSpec};

/// The three transitive facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fact {
    Panic,
    Block,
    Alloc,
}

impl Fact {
    pub const ALL: [Fact; 3] = [Fact::Panic, Fact::Block, Fact::Alloc];

    pub fn id(self) -> &'static str {
        match self {
            Fact::Panic => "can-panic",
            Fact::Block => "can-block",
            Fact::Alloc => "can-alloc",
        }
    }

    pub fn index(self) -> usize {
        match self {
            Fact::Panic => 0,
            Fact::Block => 1,
            Fact::Alloc => 2,
        }
    }

    pub fn from_id(id: &str) -> Option<Fact> {
        Fact::ALL.into_iter().find(|f| f.id() == id)
    }
}

/// One function in the workspace graph.
#[derive(Debug)]
pub struct FnDef {
    /// `magnon_serve::scheduler::Worker::serve_drain`.
    pub id: String,
    pub crate_name: String,
    pub name: String,
    /// Impl/trait type for methods, `None` for free functions.
    pub owner: Option<String>,
    /// Module path within the crate (file modules + inline mods).
    pub module: Vec<String>,
    pub file: String,
    pub line: usize,
    pub calls: Vec<CallExpr>,
    pub sites: Vec<Site>,
    pub locks: Vec<LockSite>,
    pub sends: Vec<SendSite>,
    /// Lines covered by a `lock-order` / `lock-block` waiver comment
    /// (the comment itself or up to two lines below it).
    pub lock_order_waived: Vec<usize>,
    pub lock_block_waived: Vec<usize>,
}

#[derive(Debug, Clone)]
pub enum CallKind {
    /// `helper(…)` — resolved within the crate.
    Bare(String),
    /// `a::b::f(…)` or a fn reference `Type::method` passed by name.
    Qualified(Vec<String>),
    /// `.name(…)`; `on_self` marks a literal `self.name(…)` receiver.
    Method { name: String, on_self: bool },
}

#[derive(Debug, Clone)]
pub struct CallExpr {
    pub kind: CallKind,
    pub line: usize,
    /// Per-fact waiver reason found on the call line (suppresses
    /// propagation of that fact through this call site).
    pub waived: [Option<String>; 3],
}

/// An intrinsic fact site: a token on a function's own lines.
#[derive(Debug, Clone)]
pub struct Site {
    pub fact: Fact,
    pub token: String,
    pub line: usize,
    pub waived: Option<String>,
}

/// One `.lock()` acquisition site with its inferred guard extent.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Identifier left of `.lock(` — a field, local, or static name.
    /// `"?"` when no identifier precedes the call.
    pub receiver: String,
    pub line: usize,
    /// Last line of the guard's extent; equals `line` for guards
    /// consumed inside a larger expression.
    pub release_line: usize,
}

/// A `.send(` call site — blocking when the channel is bounded.
#[derive(Debug, Clone)]
pub struct SendSite {
    pub receiver: String,
    pub line: usize,
}

/// One waiver comment (rule + mandatory reason), as written.
#[derive(Debug, Clone)]
pub struct WaiverDecl {
    pub file: String,
    pub line: usize,
    pub rule: String,
    pub reason: String,
}

/// Imports declared by one file.
#[derive(Debug, Default)]
pub struct FileUses {
    /// Crates named by `use` statements (underscored).
    pub crates: Vec<String>,
    /// `use a::b::C;` / `use a::B as C;` → (`C`, full path).
    pub aliases: Vec<(String, Vec<String>)>,
    /// `use a::b::*;` → prefix paths for bare-call fallback.
    pub globs: Vec<Vec<String>>,
}

impl FileUses {
    fn alias(&self, name: &str) -> Option<&[String]> {
        self.aliases
            .iter()
            .find(|(a, _)| a == name)
            .map(|(_, p)| p.as_slice())
    }
}

/// [`parse_file`]'s output for one source file.
pub struct FileParse {
    pub fns: Vec<FnDef>,
    pub uses: FileUses,
}

/// A resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    pub caller: usize,
    pub callee: usize,
    pub line: usize,
    pub waived: [bool; 3],
}

/// A method/path call that matched more than one candidate. Reported,
/// and given conservative edges to *every* candidate.
#[derive(Debug, Clone)]
pub struct Ambiguity {
    pub caller: String,
    pub file: String,
    pub line: usize,
    pub call: String,
    pub candidates: Vec<String>,
}

/// One input source file.
pub struct SourceFile {
    pub crate_name: String,
    pub rel: String,
    pub text: String,
}

/// The assembled workspace graph plus computed facts.
pub struct Analysis {
    pub fns: Vec<FnDef>,
    pub edges: Vec<Edge>,
    pub ambiguities: Vec<Ambiguity>,
    pub resolved_calls: usize,
    pub external_calls: usize,
    pub files: usize,
    pub waiver_decls: Vec<WaiverDecl>,
    /// Line-pass findings over every scanned file, in walk order.
    pub findings: Vec<lines::Finding>,
    /// `can[fact.index()][fn]` after [`compute_facts`].
    pub can: [Vec<bool>; 3],
    by_id: HashMap<String, usize>,
    radj: Vec<Vec<usize>>,
    fadj: Vec<Vec<usize>>,
    trusted: [HashSet<usize>; 3],
}

impl Analysis {
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.by_id.get(id).copied()
    }

    /// Functions whose `id` ends with `::suffix` — `--explain` accepts
    /// partial paths.
    pub fn find_by_suffix(&self, suffix: &str) -> Vec<usize> {
        if let Some(i) = self.index_of(suffix) {
            return vec![i];
        }
        let pat = format!("::{suffix}");
        (0..self.fns.len())
            .filter(|&i| self.fns[i].id.ends_with(&pat))
            .collect()
    }

    /// Count of functions reachable from `root` over all edges.
    pub fn reachable_count(&self, root: usize) -> usize {
        let mut seen = vec![false; self.fns.len()];
        let mut stack = vec![root];
        seen[root] = true;
        let mut n = 0;
        while let Some(f) = stack.pop() {
            n += 1;
            for &e in &self.fadj[f] {
                let c = self.edges[e].callee;
                if !seen[c] {
                    seen[c] = true;
                    stack.push(c);
                }
            }
        }
        n
    }
}

enum Resolution {
    Edges(Vec<usize>),
    Ambiguous(Vec<usize>),
    External,
}

/// Lexes every source once, runs the line passes and takes the waiver
/// inventory over all of them, and parses and links the sources outside
/// `policy`'s `[ignore].files` into a call graph. Facts are not
/// computed yet — [`check_policy`] does that under the trust list.
pub fn analyze_sources(sources: &[SourceFile], policy: &Policy) -> Analysis {
    let crate_names: HashSet<String> = sources.iter().map(|s| s.crate_name.clone()).collect();
    let mut fns: Vec<FnDef> = Vec::new();
    let mut uses_by_file: HashMap<String, FileUses> = HashMap::new();
    let mut waiver_decls = Vec::new();
    let mut findings = Vec::new();
    for s in sources {
        let views = lex::split_views(&s.text);
        let test_mask = lex::cfg_test_mask(&views);
        findings.extend(lines::lint_lines(&s.rel, &s.text, &views, &test_mask));
        waiver_decls.extend(lines::collect_waiver_decls(&s.rel, &views, &test_mask));
        if policy.ignore_files.contains(&s.rel) {
            continue;
        }
        let fp = parse_file(&s.crate_name, &s.rel, &views);
        fns.extend(fp.fns);
        uses_by_file.insert(s.rel.clone(), fp.uses);
    }
    let mut by_id = HashMap::new();
    let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_id.entry(f.id.clone()).or_insert(i);
        if f.owner.is_some() {
            methods_by_name.entry(f.name.as_str()).or_default().push(i);
        } else {
            free_by_name.entry(f.name.as_str()).or_default().push(i);
        }
    }
    let empty_uses = FileUses::default();
    let mut edges: Vec<Edge> = Vec::new();
    let mut ambiguities = Vec::new();
    let mut resolved_calls = 0;
    let mut external_calls = 0;
    for caller in 0..fns.len() {
        let f = &fns[caller];
        let uses = uses_by_file.get(&f.file).unwrap_or(&empty_uses);
        for call in &f.calls {
            let res = resolve_call(
                f,
                uses,
                call,
                &fns,
                &by_id,
                &free_by_name,
                &methods_by_name,
                &crate_names,
                &policy.ignore_methods,
            );
            let (targets, ambiguous) = match res {
                Resolution::Edges(t) => {
                    resolved_calls += 1;
                    (t, false)
                }
                Resolution::Ambiguous(t) => {
                    resolved_calls += 1;
                    (t, true)
                }
                Resolution::External => {
                    external_calls += 1;
                    continue;
                }
            };
            if ambiguous {
                ambiguities.push(Ambiguity {
                    caller: f.id.clone(),
                    file: f.file.clone(),
                    line: call.line,
                    call: call_label(&call.kind),
                    candidates: targets.iter().map(|&t| fns[t].id.clone()).collect(),
                });
            }
            let waived = [
                call.waived[0].is_some(),
                call.waived[1].is_some(),
                call.waived[2].is_some(),
            ];
            for t in targets {
                edges.push(Edge {
                    caller,
                    callee: t,
                    line: call.line,
                    waived,
                });
            }
        }
    }
    let mut fadj = vec![Vec::new(); fns.len()];
    let mut radj = vec![Vec::new(); fns.len()];
    for (ei, e) in edges.iter().enumerate() {
        fadj[e.caller].push(ei);
        radj[e.callee].push(ei);
    }
    Analysis {
        files: sources.len(),
        can: [
            vec![false; fns.len()],
            vec![false; fns.len()],
            vec![false; fns.len()],
        ],
        trusted: [HashSet::new(), HashSet::new(), HashSet::new()],
        fns,
        edges,
        ambiguities,
        resolved_calls,
        external_calls,
        waiver_decls,
        findings,
        by_id,
        radj,
        fadj,
    }
}

fn call_label(kind: &CallKind) -> String {
    match kind {
        CallKind::Bare(n) => format!("{n}()"),
        CallKind::Qualified(segs) => segs.join("::"),
        CallKind::Method { name, .. } => format!(".{name}()"),
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve_call(
    caller: &FnDef,
    uses: &FileUses,
    call: &CallExpr,
    fns: &[FnDef],
    by_id: &HashMap<String, usize>,
    free_by_name: &HashMap<&str, Vec<usize>>,
    methods_by_name: &HashMap<&str, Vec<usize>>,
    crate_names: &HashSet<String>,
    ignore_methods: &[String],
) -> Resolution {
    match &call.kind {
        CallKind::Method { name, on_self } => {
            if ignore_methods.iter().any(|m| m == name) {
                return Resolution::External;
            }
            let Some(cands) = methods_by_name.get(name.as_str()) else {
                return Resolution::External;
            };
            if *on_self {
                let own: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        fns[c].crate_name == caller.crate_name && fns[c].owner == caller.owner
                    })
                    .collect();
                if own.len() == 1 {
                    return Resolution::Edges(own);
                }
            }
            let scoped: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| {
                    fns[c].crate_name == caller.crate_name
                        || uses.crates.contains(&fns[c].crate_name)
                })
                .collect();
            match scoped.len() {
                0 => Resolution::External,
                1 => Resolution::Edges(scoped),
                _ => Resolution::Ambiguous(scoped),
            }
        }
        CallKind::Bare(name) => {
            if let Some(path) = uses.alias(name) {
                return resolve_qualified(
                    caller,
                    uses,
                    path.to_vec(),
                    fns,
                    by_id,
                    methods_by_name,
                    crate_names,
                );
            }
            for g in &uses.globs {
                let mut id = g.join("::");
                id.push_str("::");
                id.push_str(name);
                if let Some(&i) = by_id.get(&id) {
                    return Resolution::Edges(vec![i]);
                }
            }
            let cands: Vec<usize> = free_by_name
                .get(name.as_str())
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&c| fns[c].crate_name == caller.crate_name)
                        .collect()
                })
                .unwrap_or_default();
            if let Some(&exact) = cands.iter().find(|&&c| fns[c].module == caller.module) {
                return Resolution::Edges(vec![exact]);
            }
            match cands.len() {
                0 => Resolution::External,
                1 => Resolution::Edges(cands),
                _ => Resolution::Ambiguous(cands),
            }
        }
        CallKind::Qualified(segs) => resolve_qualified(
            caller,
            uses,
            segs.clone(),
            fns,
            by_id,
            methods_by_name,
            crate_names,
        ),
    }
}

fn resolve_qualified(
    caller: &FnDef,
    uses: &FileUses,
    mut segs: Vec<String>,
    fns: &[FnDef],
    by_id: &HashMap<String, usize>,
    methods_by_name: &HashMap<&str, Vec<usize>>,
    crate_names: &HashSet<String>,
) -> Resolution {
    if segs.is_empty() {
        return Resolution::External;
    }
    match segs[0].as_str() {
        "crate" => segs[0] = caller.crate_name.clone(),
        "self" => {
            let mut p = vec![caller.crate_name.clone()];
            p.extend(caller.module.iter().cloned());
            p.extend(segs.drain(1..));
            segs = p;
        }
        "super" => {
            let mut p = vec![caller.crate_name.clone()];
            let parents = caller.module.len().saturating_sub(1);
            p.extend(caller.module.iter().take(parents).cloned());
            p.extend(segs.drain(1..));
            segs = p;
        }
        "Self" => {
            // `Self::assoc(…)` — methods of the current impl owner.
            let Some(name) = segs.last() else {
                return Resolution::External;
            };
            let own: Vec<usize> = methods_by_name
                .get(name.as_str())
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&c| {
                            fns[c].crate_name == caller.crate_name && fns[c].owner == caller.owner
                        })
                        .collect()
                })
                .unwrap_or_default();
            return match own.len() {
                0 => Resolution::External,
                1 => Resolution::Edges(own),
                _ => Resolution::Ambiguous(own),
            };
        }
        first => {
            if let Some(path) = uses.alias(first) {
                let mut p = path.to_vec();
                p.extend(segs.drain(1..));
                segs = p;
            }
        }
    }
    if ["std", "core", "alloc"].contains(&segs[0].as_str()) {
        return Resolution::External;
    }
    if let Some(&i) = by_id.get(&segs.join("::")) {
        return Resolution::Edges(vec![i]);
    }
    // Module-relative and crate-root-relative tries.
    {
        let mut p = vec![caller.crate_name.clone()];
        p.extend(caller.module.iter().cloned());
        p.extend(segs.iter().cloned());
        if let Some(&i) = by_id.get(&p.join("::")) {
            return Resolution::Edges(vec![i]);
        }
        let mut p = vec![caller.crate_name.clone()];
        p.extend(segs.iter().cloned());
        if let Some(&i) = by_id.get(&p.join("::")) {
            return Resolution::Edges(vec![i]);
        }
    }
    // Suffix match, scoped to the addressed crate or the caller's view.
    let known_crate = crate_names.contains(&segs[0]);
    let match_segs: &[String] = if known_crate { &segs[1..] } else { &segs[..] };
    if match_segs.is_empty() {
        return Resolution::External;
    }
    let suffix = format!("::{}", match_segs.join("::"));
    let cands: Vec<usize> = (0..fns.len())
        .filter(|&c| {
            let in_scope = if known_crate {
                fns[c].crate_name == segs[0]
            } else {
                fns[c].crate_name == caller.crate_name || uses.crates.contains(&fns[c].crate_name)
            };
            in_scope && fns[c].id.ends_with(&suffix)
        })
        .collect();
    match cands.len() {
        0 => Resolution::External,
        1 => Resolution::Edges(cands),
        _ => Resolution::Ambiguous(cands),
    }
}

/// Propagates intrinsic facts up the call graph to a fixpoint.
///
/// For fact `r`: a function *can-r* if it has an unwaived intrinsic
/// site for `r`, or calls (through an unwaived call site) a non-trusted
/// function that can-r. Trust entries cut propagation at an audited
/// boundary — the trusted function's own facts are still computed and
/// reported, but callers do not inherit them.
///
/// Returns errors for trust entries that name no known function (a
/// typo in the policy must not silently widen the proof).
pub fn compute_facts(analysis: &mut Analysis, trust: &[TrustSpec]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut trusted: [HashSet<usize>; 3] = [HashSet::new(), HashSet::new(), HashSet::new()];
    for t in trust {
        let Some(idx) = analysis.index_of(&t.func) else {
            errors.push(format!(
                "policy trust entry names unknown function `{}`",
                t.func
            ));
            continue;
        };
        for &fact in &t.rules {
            trusted[fact.index()].insert(idx);
        }
    }
    for fact in Fact::ALL {
        let r = fact.index();
        let n = analysis.fns.len();
        let mut can = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for (i, f) in analysis.fns.iter().enumerate() {
            if f.sites.iter().any(|s| s.fact == fact && s.waived.is_none()) {
                can[i] = true;
                stack.push(i);
            }
        }
        while let Some(callee) = stack.pop() {
            if trusted[r].contains(&callee) {
                continue; // audited boundary: callers do not inherit
            }
            for &ei in &analysis.radj[callee] {
                let e = &analysis.edges[ei];
                if e.waived[r] || can[e.caller] {
                    continue;
                }
                can[e.caller] = true;
                stack.push(e.caller);
            }
        }
        analysis.can[r] = can;
    }
    analysis.trusted = trusted;
    errors
}

/// One hop of an explain chain.
pub struct ChainHop {
    pub fn_idx: usize,
    /// Line of the call that led here (None for the root hop).
    pub via_line: Option<usize>,
}

/// A root → … → site path for one fact.
pub struct Chain {
    pub fact: Fact,
    pub hops: Vec<ChainHop>,
    pub site_token: String,
    pub site_line: usize,
}

/// Shortest call chain from `root` to an unwaived intrinsic site of
/// `fact`, honoring waived edges and trust boundaries. `None` when the
/// root is proven free of the fact.
pub fn explain(analysis: &Analysis, root: usize, fact: Fact) -> Option<Chain> {
    let r = fact.index();
    if !analysis.can[r].get(root).copied().unwrap_or(false) {
        return None;
    }
    let own_site = |f: usize| {
        analysis.fns[f]
            .sites
            .iter()
            .find(|s| s.fact == fact && s.waived.is_none())
    };
    // BFS with parent pointers, pruned to the can-set.
    let mut parent: HashMap<usize, (usize, usize)> = HashMap::new(); // fn -> (parent fn, call line)
    let mut queue = std::collections::VecDeque::new();
    let mut target = None;
    queue.push_back(root);
    let mut seen = HashSet::new();
    seen.insert(root);
    'bfs: while let Some(f) = queue.pop_front() {
        if own_site(f).is_some() {
            target = Some(f);
            break 'bfs;
        }
        if trusted_for(analysis, f, r) && f != root {
            continue;
        }
        for &ei in &analysis.fadj[f] {
            let e = &analysis.edges[ei];
            if e.waived[r] || !analysis.can[r][e.callee] {
                continue;
            }
            if trusted_for(analysis, e.callee, r) {
                continue;
            }
            if seen.insert(e.callee) {
                parent.insert(e.callee, (f, e.line));
                queue.push_back(e.callee);
            }
        }
    }
    let target = target?;
    let site = own_site(target)?;
    let mut rev = vec![ChainHop {
        fn_idx: target,
        via_line: None,
    }];
    let mut cur = target;
    while let Some(&(p, line)) = parent.get(&cur) {
        if let Some(last) = rev.last_mut() {
            last.via_line = Some(line);
        }
        rev.push(ChainHop {
            fn_idx: p,
            via_line: None,
        });
        cur = p;
    }
    rev.reverse();
    Some(Chain {
        fact,
        hops: rev,
        site_token: site.token.clone(),
        site_line: site.line,
    })
}

fn trusted_for(analysis: &Analysis, f: usize, r: usize) -> bool {
    analysis.trusted[r].contains(&f)
}

/// Renders one chain human-readably (the `--explain` output).
pub fn render_chain(analysis: &Analysis, chain: &Chain) -> String {
    let mut out = String::new();
    for (i, hop) in chain.hops.iter().enumerate() {
        let f = &analysis.fns[hop.fn_idx];
        if i == 0 {
            out.push_str(&format!("  {}  ({}:{})\n", f.id, f.file, f.line));
        } else {
            let via = hop.via_line.unwrap_or(0);
            let caller = &analysis.fns[chain.hops[i - 1].fn_idx];
            out.push_str(&format!(
                "   → {}  (call at {}:{})\n",
                f.id, caller.file, via
            ));
        }
    }
    let last = &analysis.fns[chain.hops.last().map(|h| h.fn_idx).unwrap_or(0)];
    out.push_str(&format!(
        "  site: `{}` at {}:{}\n",
        chain.site_token, last.file, chain.site_line
    ));
    out
}

// ---------------------------------------------------------------------------
// Policy checking.
// ---------------------------------------------------------------------------

/// One checked policy root.
pub struct RootResult {
    pub spec: RootSpec,
    pub fn_idx: Option<usize>,
    pub reachable: usize,
    pub violations: Vec<Chain>,
}

/// The full policy verdict.
pub struct PolicyResults {
    pub roots: Vec<RootResult>,
    /// Hard errors: unresolved roots/trust entries, reasonless waivers.
    pub errors: Vec<String>,
    /// The lock-order & blocking-discipline pass verdict.
    pub lock: locks::LockResults,
}

impl PolicyResults {
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
            && self.roots.iter().all(|r| r.violations.is_empty())
            && self.lock.violations.is_empty()
    }
}

/// Computes facts under the policy's trust list, then checks every
/// root's deny list. Reasonless waivers and unresolvable policy
/// entries are errors, not warnings — a silently skipped proof is
/// worse than no proof.
pub fn check_policy(analysis: &mut Analysis, policy: &Policy) -> PolicyResults {
    let mut errors = compute_facts(analysis, &policy.trust);
    for w in &analysis.waiver_decls {
        if w.reason.is_empty() {
            errors.push(format!(
                "{}:{}: waiver `analyze: allow({})` has no reason — every waiver must say why",
                w.file, w.line, w.rule
            ));
        }
        let known = Fact::from_id(&w.rule).is_some()
            || locks::WAIVER_RULES.contains(&w.rule.as_str())
            || lines::Rule::WAIVABLE.iter().any(|r| r.id() == w.rule);
        if !known {
            errors.push(format!(
                "{}:{}: waiver names unknown rule `{}`",
                w.file, w.line, w.rule
            ));
        }
    }
    let mut roots = Vec::new();
    for spec in &policy.roots {
        let fn_idx = analysis.index_of(&spec.func);
        if fn_idx.is_none() {
            errors.push(format!(
                "policy root `{}` does not resolve to any workspace function",
                spec.func
            ));
        }
        let mut violations = Vec::new();
        let mut reachable = 0;
        if let Some(idx) = fn_idx {
            reachable = analysis.reachable_count(idx);
            for &fact in &spec.deny {
                if let Some(chain) = explain(analysis, idx, fact) {
                    violations.push(chain);
                }
            }
        }
        roots.push(RootResult {
            spec: spec.clone(),
            fn_idx,
            reachable,
            violations,
        });
    }
    let mut lock = locks::check_locks(analysis, policy);
    errors.append(&mut lock.errors);
    PolicyResults {
        roots,
        errors,
        lock,
    }
}

// ---------------------------------------------------------------------------
// Workspace loading.
// ---------------------------------------------------------------------------

/// Directory names never scanned (vendored code, build output, test
/// trees — test code is exempt from every rule wholesale).
const SKIP_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "examples"];

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d.to_path_buf());
                }
            }
        }
        dir = d.parent();
    }
    None
}

/// Collects `.rs` files under `dir`, skipping [`SKIP_DIRS`] and
/// dotted directories, in sorted order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The one workspace walk: reads every `.rs` file under `crates/` and
/// `tools/`, tagging each with its crate's underscored package name.
pub fn load_workspace(root: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for sub in ["crates", "tools"] {
        collect_rs_files(&root.join(sub), &mut files);
    }
    let mut crate_name_cache: HashMap<String, String> = HashMap::new();
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let parts: Vec<&str> = rel.splitn(3, '/').collect();
        if parts.len() < 3 {
            continue;
        }
        let crate_dir = format!("{}/{}", parts[0], parts[1]);
        let crate_name = crate_name_cache
            .entry(crate_dir.clone())
            .or_insert_with(|| {
                package_name(&root.join(&crate_dir).join("Cargo.toml"))
                    .unwrap_or_else(|| parts[1].to_string())
                    .replace('-', "_")
            })
            .clone();
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        out.push(SourceFile {
            crate_name,
            rel,
            text,
        });
    }
    out
}

fn package_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                return Some(v.to_string());
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Self-test: plant a transitive violation three calls deep, find it.
// ---------------------------------------------------------------------------

fn fixture_sources() -> Vec<SourceFile> {
    let serve_src = r#"
pub struct Drain;

impl Drain {
    pub fn drain_loop(&self) -> u32 {
        stage_one(7)
    }

    pub fn safe_loop(&self) -> u32 {
        // analyze: allow(can-panic) — fixture: deliberate waived site
        self.checked().unwrap()
    }

    fn checked(&self) -> Option<u32> {
        Some(1)
    }
}

pub fn stage_one(x: u32) -> u32 {
    fix_core::helpers::decode_step(x)
}
"#;
    let core_src = r#"
pub fn decode_step(x: u32) -> u32 {
    finish(x)
}

fn finish(x: u32) -> u32 {
    table_lookup(x).unwrap()
}

fn table_lookup(x: u32) -> Option<u32> {
    Some(x + 1)
}
"#;
    // Two crates define a method named `flush` and the caller imports
    // both: the call must be reported ambiguous, with edges to both.
    let amb_a = r#"
pub struct SinkA;
impl SinkA {
    pub fn flush(&self) {}
}
"#;
    let amb_b = r#"
pub struct SinkB;
impl SinkB {
    pub fn flush(&self) {
        let _v: Vec<u32> = Vec::with_capacity(4);
    }
}
"#;
    let amb_caller = r#"
use fix_amba::SinkA;
use fix_ambb::SinkB;

pub fn pump(sink: &SinkA) {
    sink.flush();
}
"#;
    // The lock fixture plants every defect kind the lock pass must
    // find: an A→B / B→A cycle, a blocking `.recv()` under a guard, a
    // waived twin that must pass, and a non-reentrant double-acquire.
    let lock_src = r#"
use std::sync::Mutex;
use std::sync::mpsc::Receiver;

pub struct Hub {
    queue: Mutex<Vec<u32>>,
    placement: Mutex<Vec<u32>>,
    rx: Receiver<u32>,
}

impl Hub {
    pub fn route_submit(&self) {
        let mut q = self.queue.lock().unwrap();
        q.push(1);
        self.place(1);
    }

    fn place(&self, x: u32) {
        let mut p = self.placement.lock().unwrap();
        p.push(x);
    }

    pub fn rebalance(&self) {
        let p = self.placement.lock().unwrap();
        for x in p.iter() {
            self.enqueue(*x);
        }
    }

    fn enqueue(&self, x: u32) {
        self.queue.lock().unwrap().push(x);
    }

    pub fn drain_wait(&self) -> u32 {
        let q = self.queue.lock().unwrap();
        let v = self.rx.recv().unwrap();
        q.len() as u32 + v
    }

    pub fn audited_wait(&self) -> u32 {
        let q = self.queue.lock().unwrap();
        // analyze: allow(lock-block) — fixture: the waived wait must pass
        let v = self.rx.recv().unwrap();
        q.len() as u32 + v
    }

    pub fn reenter(&self) {
        let q = self.queue.lock().unwrap();
        self.enqueue(7);
        drop(q);
    }
}
"#;
    vec![
        SourceFile {
            crate_name: "fix_serve".into(),
            rel: "crates/fix_serve/src/drain.rs".into(),
            text: serve_src.into(),
        },
        SourceFile {
            crate_name: "fix_core".into(),
            rel: "crates/fix_core/src/helpers.rs".into(),
            text: core_src.into(),
        },
        SourceFile {
            crate_name: "fix_amba".into(),
            rel: "crates/fix_amba/src/lib.rs".into(),
            text: amb_a.into(),
        },
        SourceFile {
            crate_name: "fix_ambb".into(),
            rel: "crates/fix_ambb/src/lib.rs".into(),
            text: amb_b.into(),
        },
        SourceFile {
            crate_name: "fix_pump".into(),
            rel: "crates/fix_pump/src/lib.rs".into(),
            text: amb_caller.into(),
        },
        SourceFile {
            crate_name: "fix_lock".into(),
            rel: "crates/fix_lock/src/hub.rs".into(),
            text: lock_src.into(),
        },
    ]
}

fn fixture_policy() -> Policy {
    parse_policy(
        r#"
[[root]]
fn = "fix_serve::drain::Drain::drain_loop"
deny = ["can-panic"]
reason = "fixture: the planted violation must be found"

[[root]]
fn = "fix_serve::drain::Drain::safe_loop"
deny = ["can-panic"]
reason = "fixture: the waived site must pass"

[[lock]]
class = "fix_queue"
receivers = ["queue"]
crate = "fix_lock"
before = ["fix_placement"]
reason = "fixture: queue is the outer lock"

[[lock]]
class = "fix_placement"
receivers = ["placement"]
crate = "fix_lock"
reason = "fixture: placement is the inner lock"

[locks]
strict = ["fix_lock"]
"#,
    )
    .expect("fixture policy parses")
}

/// Plants a transitive panic three calls deep
/// (`drain_loop → stage_one → decode_step → finish → .unwrap()`),
/// a waived violation, and an ambiguous cross-crate method call; the
/// analyzer must find the first, pass the second (inventorying its
/// waiver), and report the third. Returns the rendered evidence.
pub fn self_test() -> Result<String, String> {
    let sources = fixture_sources();
    let policy = fixture_policy();
    let mut analysis = analyze_sources(&sources, &policy);
    let results = check_policy(&mut analysis, &policy);
    let planted = results
        .roots
        .iter()
        .find(|r| r.spec.func.ends_with("drain_loop"))
        .ok_or("self-test: planted root missing from results")?;
    let chain = planted
        .violations
        .first()
        .ok_or("self-test FAILED: the planted 3-deep transitive panic was not found")?;
    if chain.hops.len() < 4 {
        return Err(format!(
            "self-test FAILED: chain has {} hops, expected the full 3-call depth",
            chain.hops.len()
        ));
    }
    if chain.site_token != ".unwrap()" {
        return Err(format!(
            "self-test FAILED: expected the `.unwrap()` site, got `{}`",
            chain.site_token
        ));
    }
    let waived_root = results
        .roots
        .iter()
        .find(|r| r.spec.func.ends_with("safe_loop"))
        .ok_or("self-test: waived root missing from results")?;
    if !waived_root.violations.is_empty() {
        return Err("self-test FAILED: the waived violation was reported anyway".into());
    }
    if !analysis
        .waiver_decls
        .iter()
        .any(|w| w.rule == "can-panic" && w.reason.contains("fixture"))
    {
        return Err("self-test FAILED: the waiver did not appear in the inventory".into());
    }
    if !analysis
        .ambiguities
        .iter()
        .any(|a| a.call == ".flush()" && a.candidates.len() == 2)
    {
        return Err("self-test FAILED: the ambiguous method call was silently dropped".into());
    }
    // The lock fixture: a planted fix_queue ↔ fix_placement cycle, a
    // blocking recv under a guard, a double-acquire, and a waived wait
    // that must pass.
    let lock = &results.lock;
    let cycle = lock
        .violations
        .iter()
        .find(|v| v.kind == "deadlock-cycle")
        .ok_or("self-test FAILED: the planted lock-order cycle was not found")?;
    if !(cycle.classes.contains(&"fix_queue".to_string())
        && cycle.classes.contains(&"fix_placement".to_string()))
    {
        return Err(format!(
            "self-test FAILED: cycle names wrong classes: {:?}",
            cycle.classes
        ));
    }
    let blocked = lock
        .violations
        .iter()
        .find(|v| v.kind == "lock-block" && v.detail.contains(".recv()"))
        .ok_or("self-test FAILED: the planted recv-under-lock was not found")?;
    if !blocked.detail.contains("drain_wait") {
        return Err("self-test FAILED: lock-block evidence names the wrong function".into());
    }
    if lock
        .violations
        .iter()
        .any(|v| v.detail.contains("audited_wait"))
    {
        return Err("self-test FAILED: the waived lock-block site was reported anyway".into());
    }
    if !lock
        .violations
        .iter()
        .any(|v| v.kind == "double-acquire" && v.detail.contains("reenter"))
    {
        return Err("self-test FAILED: the planted double-acquire was not found".into());
    }
    if !analysis
        .waiver_decls
        .iter()
        .any(|w| w.rule == "lock-block" && w.reason.contains("fixture"))
    {
        return Err("self-test FAILED: the lock-block waiver did not reach the inventory".into());
    }
    let mut out = String::from("planted violation found (3 calls deep):\n");
    out.push_str(&render_chain(&analysis, chain));
    out.push_str(&format!(
        "waived site passed and is inventoried; {} ambiguous call(s) reported\n",
        analysis.ambiguities.len()
    ));
    out.push_str(&format!(
        "lock pass: planted cycle found ({}), recv-under-lock found, double-acquire found, waived wait passed",
        cycle.classes.join(" → ")
    ));
    Ok(out)
}

#[cfg(test)]
mod tests;
