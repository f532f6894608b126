//! CLI for the workspace analyzer. All analysis lives in the library;
//! this binary loads the workspace + policy, prints the verdict, and
//! exits nonzero on any line finding, proof violation or policy error.

use std::path::PathBuf;

use magnon_analyze::{
    check_policy, explain, load_workspace, parse_policy, render_chain, report, workspace_root, Fact,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut root_arg: Option<PathBuf> = None;
    let mut policy_arg: Option<PathBuf> = None;
    let mut json_arg: Option<PathBuf> = None;
    let mut explain_args: Vec<String> = Vec::new();
    let mut run_self_test = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root_arg = args.next().map(PathBuf::from),
            "--policy" => policy_arg = args.next().map(PathBuf::from),
            "--json" => json_arg = args.next().map(PathBuf::from),
            "--explain" => {
                if let Some(f) = args.next() {
                    explain_args.push(f);
                }
            }
            "--self-test" => run_self_test = true,
            "--help" | "-h" => {
                println!(
                    "usage: magnon-analyze [--root <dir>] [--policy <file>] [--json <out>]\n\
                     \x20                     [--explain <path::to::fn>] [--self-test]\n\
                     \n\
                     Runs the line passes (SAFETY comments, ordering rationales, hot-path\n\
                     sleeps, drain-file panics, the sync façade) over every workspace\n\
                     source, proves the analysis-policy.toml roots transitively free of their\n\
                     denied facts (can-panic / can-block / can-alloc) over the workspace\n\
                     call graph, and runs the lock-order & blocking-discipline pass over\n\
                     the [[lock]] classes (deadlock cycles, blocking-while-locked,\n\
                     double-acquire, order inversions). --explain prints offending\n\
                     chains and lock holdings for a function; --self-test plants a\n\
                     3-deep transitive violation plus a lock-order cycle and must find\n\
                     both."
                );
                return;
            }
            other => {
                eprintln!("magnon-analyze: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    if run_self_test {
        match magnon_analyze::self_test() {
            Ok(evidence) => {
                println!("magnon-analyze --self-test: ok\n{evidence}");
                return;
            }
            Err(e) => {
                eprintln!("magnon-analyze --self-test: {e}");
                std::process::exit(1);
            }
        }
    }

    let start = root_arg.unwrap_or_else(|| {
        std::env::var("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .or_else(|_| std::env::current_dir())
            .unwrap_or_else(|_| PathBuf::from("."))
    });
    let Some(root) = workspace_root(&start) else {
        eprintln!(
            "magnon-analyze: no workspace Cargo.toml found above {}",
            start.display()
        );
        std::process::exit(2);
    };
    let policy_path = policy_arg.unwrap_or_else(|| root.join("analysis-policy.toml"));
    let policy_text = match std::fs::read_to_string(&policy_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "magnon-analyze: cannot read policy {}: {e}",
                policy_path.display()
            );
            std::process::exit(2);
        }
    };
    let policy = match parse_policy(&policy_text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("magnon-analyze: {e}");
            std::process::exit(2);
        }
    };
    let sources = load_workspace(&root);
    let mut analysis = magnon_analyze::analyze_sources(&sources, &policy);
    let results = check_policy(&mut analysis, &policy);

    if let Some(path) = json_arg {
        let json = report::render_json(&analysis, &policy, &results);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("magnon-analyze: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("magnon-analyze: report written to {}", path.display());
    }

    for target in &explain_args {
        let matches = analysis.find_by_suffix(target);
        match matches.len() {
            0 => println!("--explain {target}: no such function in the graph"),
            1 => {
                let idx = matches[0];
                println!("--explain {}:", analysis.fns[idx].id);
                for fact in Fact::ALL {
                    match explain(&analysis, idx, fact) {
                        Some(chain) => {
                            println!("[{}]", fact.id());
                            print!("{}", render_chain(&analysis, &chain));
                        }
                        None => println!("[{}] proven free", fact.id()),
                    }
                }
                let lock = &results.lock;
                if lock.class_names.is_empty() {
                    println!("[locks] no [[lock]] classes declared");
                } else if lock.acq_trans[idx] == 0 {
                    println!("[locks] acquires no classified lock, directly or transitively");
                } else {
                    let held: Vec<&str> = (0..lock.class_names.len())
                        .filter(|c| lock.acq_trans[idx] & (1u64 << c) != 0)
                        .map(|c| lock.class_names[c].as_str())
                        .collect();
                    println!("[locks] may acquire: {}", held.join(", "));
                    for &(c, line) in &lock.fn_acqs[idx] {
                        println!(
                            "    `{}` acquired at {}:{}",
                            lock.class_names[c], analysis.fns[idx].file, line
                        );
                    }
                    for e in &lock.edges {
                        if e.holder == idx {
                            print!(
                                "  holds `{}` while acquiring `{}`:\n{}",
                                lock.class_names[e.from],
                                lock.class_names[e.to],
                                magnon_analyze::locks::render_lock_edge(&analysis, lock, e)
                            );
                        }
                    }
                }
            }
            _ => {
                println!("--explain {target}: ambiguous, candidates:");
                for i in matches {
                    println!("  {}", analysis.fns[i].id);
                }
            }
        }
    }

    for err in &results.errors {
        eprintln!("magnon-analyze: error: {err}");
    }
    for finding in &analysis.findings {
        println!("{finding}");
    }
    println!(
        "magnon-analyze: line passes: {} finding(s) across {} file(s)",
        analysis.findings.len(),
        analysis.files
    );
    let mut violation_count = analysis.findings.len();
    for r in &results.roots {
        for chain in &r.violations {
            violation_count += 1;
            println!(
                "magnon-analyze: VIOLATION [{}] root {}",
                chain.fact.id(),
                r.spec.func
            );
            print!("{}", render_chain(&analysis, chain));
        }
    }
    for v in &results.lock.violations {
        violation_count += 1;
        println!(
            "magnon-analyze: LOCK VIOLATION [{}] {}",
            v.kind,
            v.classes.join(" → ")
        );
        print!("{}", v.detail);
    }
    for tag in &results.lock.unclassified {
        println!("magnon-analyze: note: unclassified lock site {tag}");
    }
    println!(
        "magnon-analyze: lock pass: {} class(es), {} classified site(s), {} order edge(s), {}",
        results.lock.class_names.len(),
        results.lock.classified_sites,
        results.lock.edges.len(),
        if results.lock.acyclic() {
            "lock-order graph acyclic"
        } else {
            "lock-order graph CYCLIC"
        }
    );
    println!(
        "magnon-analyze: {} fn(s), {} edge(s), {} call(s) resolved, {} external, \
         {} ambiguous, {} waiver(s)",
        analysis.fns.len(),
        analysis.edges.len(),
        analysis.resolved_calls,
        analysis.external_calls,
        analysis.ambiguities.len(),
        analysis.waiver_decls.len()
    );
    if violation_count == 0 && results.errors.is_empty() {
        println!(
            "magnon-analyze: clean — zero line findings, {} policy root(s) proven, \
             lock-order graph acyclic, zero unwaived blocking-while-locked sites",
            results.roots.len()
        );
    } else {
        println!(
            "magnon-analyze: {violation_count} violation(s), {} error(s)",
            results.errors.len()
        );
        std::process::exit(1);
    }
}
