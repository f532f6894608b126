//! The machine-readable JSON report: graph size, per-root verdicts
//! with call chains, the full waiver inventory (line rules and graph
//! rules alike), and every ambiguity.
//! Hand-rolled emitter — the toolchain takes no external deps.

use crate::{Analysis, Fact, Policy, PolicyResults};

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn str_array(items: impl Iterator<Item = String>) -> String {
    let inner: Vec<String> = items.map(|s| format!("\"{}\"", esc(&s))).collect();
    format!("[{}]", inner.join(", "))
}

/// Renders the full report as a JSON object.
pub fn render_json(analysis: &Analysis, policy: &Policy, results: &PolicyResults) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"files\": {},\n", analysis.files));
    out.push_str(&format!("  \"functions\": {},\n", analysis.fns.len()));
    out.push_str(&format!("  \"edges\": {},\n", analysis.edges.len()));
    out.push_str(&format!(
        "  \"calls\": {{\"resolved\": {}, \"external\": {}, \"ambiguous\": {}}},\n",
        analysis.resolved_calls,
        analysis.external_calls,
        analysis.ambiguities.len()
    ));
    // Per-fact totals: how much of the graph carries each fact.
    out.push_str("  \"fact_totals\": {");
    let totals: Vec<String> = Fact::ALL
        .iter()
        .map(|f| {
            format!(
                "\"{}\": {}",
                f.id(),
                analysis.can[f.index()].iter().filter(|&&b| b).count()
            )
        })
        .collect();
    out.push_str(&totals.join(", "));
    out.push_str("},\n");
    // Roots.
    out.push_str("  \"roots\": [\n");
    let roots: Vec<String> = results
        .roots
        .iter()
        .map(|r| {
            let status = if r.fn_idx.is_none() {
                "unresolved"
            } else if r.violations.is_empty() {
                "clean"
            } else {
                "violated"
            };
            let violations: Vec<String> = r
                .violations
                .iter()
                .map(|chain| {
                    let hops: Vec<String> = chain
                        .hops
                        .iter()
                        .map(|h| {
                            let f = &analysis.fns[h.fn_idx];
                            format!(
                                "{{\"fn\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
                                esc(&f.id),
                                esc(&f.file),
                                h.via_line.unwrap_or(f.line)
                            )
                        })
                        .collect();
                    let last = &analysis.fns[chain.hops.last().map(|h| h.fn_idx).unwrap_or(0)];
                    format!(
                        "{{\"rule\": \"{}\", \"chain\": [{}], \"site\": {{\"token\": \"{}\", \"file\": \"{}\", \"line\": {}}}}}",
                        chain.fact.id(),
                        hops.join(", "),
                        esc(&chain.site_token),
                        esc(&last.file),
                        chain.site_line
                    )
                })
                .collect();
            format!(
                "    {{\"fn\": \"{}\", \"deny\": {}, \"status\": \"{}\", \"reachable\": {}, \"violations\": [{}]}}",
                esc(&r.spec.func),
                str_array(r.spec.deny.iter().map(|f| f.id().to_string())),
                status,
                r.reachable,
                violations.join(", ")
            )
        })
        .collect();
    out.push_str(&roots.join(",\n"));
    out.push_str("\n  ],\n");
    // Waiver inventory: every site waiver plus the policy trust list.
    out.push_str("  \"waivers\": [\n");
    let waivers: Vec<String> = analysis
        .waiver_decls
        .iter()
        .map(|w| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"reason\": \"{}\"}}",
                esc(&w.file),
                w.line,
                esc(&w.rule),
                esc(&w.reason)
            )
        })
        .collect();
    out.push_str(&waivers.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str("  \"trust\": [\n");
    let trust: Vec<String> = policy
        .trust
        .iter()
        .map(|t| {
            format!(
                "    {{\"fn\": \"{}\", \"rules\": {}, \"reason\": \"{}\"}}",
                esc(&t.func),
                str_array(t.rules.iter().map(|f| f.id().to_string())),
                esc(&t.reason)
            )
        })
        .collect();
    out.push_str(&trust.join(",\n"));
    out.push_str("\n  ],\n");
    // Ambiguities: reported, never dropped.
    out.push_str("  \"ambiguities\": [\n");
    let ambs: Vec<String> = analysis
        .ambiguities
        .iter()
        .map(|a| {
            format!(
                "    {{\"caller\": \"{}\", \"file\": \"{}\", \"line\": {}, \"call\": \"{}\", \"candidates\": {}}}",
                esc(&a.caller),
                esc(&a.file),
                a.line,
                esc(&a.call),
                str_array(a.candidates.iter().cloned())
            )
        })
        .collect();
    out.push_str(&ambs.join(",\n"));
    out.push_str("\n  ],\n");
    // The deadlock report: lock classes, computed order edges with
    // witnesses, declared order, and every lock violation.
    out.push_str("  \"locks\": {\n");
    out.push_str("    \"classes\": [\n");
    let classes: Vec<String> = policy
        .locks
        .iter()
        .map(|l| {
            format!(
                "      {{\"class\": \"{}\", \"receivers\": {}, \"acquire_fns\": {}, \"crate\": \"{}\", \"reentrant\": {}, \"before\": {}, \"reason\": \"{}\"}}",
                esc(&l.class),
                str_array(l.receivers.iter().cloned()),
                str_array(l.acquire_fns.iter().cloned()),
                esc(&l.crate_scope),
                l.reentrant,
                str_array(l.before.iter().cloned()),
                esc(&l.reason)
            )
        })
        .collect();
    out.push_str(&classes.join(",\n"));
    out.push_str("\n    ],\n");
    out.push_str(&format!(
        "    \"classified_sites\": {},\n",
        results.lock.classified_sites
    ));
    out.push_str(&format!(
        "    \"unclassified\": {},\n",
        str_array(results.lock.unclassified.iter().cloned())
    ));
    out.push_str("    \"edges\": [\n");
    let lock_edges: Vec<String> = results
        .lock
        .edges
        .iter()
        .map(|e| {
            let holder = &analysis.fns[e.holder];
            let hops: Vec<String> = e
                .hops
                .iter()
                .map(|&(f, line)| {
                    format!(
                        "{{\"fn\": \"{}\", \"call_line\": {}}}",
                        esc(&analysis.fns[f].id),
                        line
                    )
                })
                .collect();
            format!(
                "      {{\"from\": \"{}\", \"to\": \"{}\", \"holder\": \"{}\", \"file\": \"{}\", \"hold_line\": {}, \"acquire_line\": {}, \"hops\": [{}]}}",
                esc(&results.lock.class_names[e.from]),
                esc(&results.lock.class_names[e.to]),
                esc(&holder.id),
                esc(&holder.file),
                e.hold_line,
                e.acquire_line,
                hops.join(", ")
            )
        })
        .collect();
    out.push_str(&lock_edges.join(",\n"));
    out.push_str("\n    ],\n");
    out.push_str(&format!(
        "    \"declared_order\": [{}],\n",
        results
            .lock
            .declared
            .iter()
            .map(|(a, b)| format!("[\"{}\", \"{}\"]", esc(a), esc(b)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("    \"acyclic\": {},\n", results.lock.acyclic()));
    out.push_str("    \"violations\": [\n");
    let lock_violations: Vec<String> = results
        .lock
        .violations
        .iter()
        .map(|v| {
            format!(
                "      {{\"kind\": \"{}\", \"classes\": {}, \"detail\": \"{}\"}}",
                v.kind,
                str_array(v.classes.iter().cloned()),
                esc(&v.detail)
            )
        })
        .collect();
    out.push_str(&lock_violations.join(",\n"));
    out.push_str("\n    ]\n");
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"errors\": {}\n",
        str_array(results.errors.iter().cloned())
    ));
    out.push_str("}\n");
    out
}
