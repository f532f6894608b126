//! Serving benchmark for the spinwave-parallel workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_sync --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one seeded workload against the serving stack as shipped
//! (`ServeConfig::default()`, `NetServerConfig::default()`,
//! `CompilerConfig::default()`), checks every answer against a plain
//! integer reference, prints a run record as `#` lines, and ends with
//! one JSON line. `--trace 0` reports the end-to-end metrics; `--trace
//! 1` records spans around every call into the layers, replays the
//! workload's inputs down the core → serve → wire rung ladder and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod oracle;
mod stack;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use trace::{episode_p50, grouped_p99, median, percentile};
use workloads::{Outcome, RunCfg, Workload};

/// Errors end the run with a non-zero exit and no result line.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// End-to-end metrics, in `BENCHMARK.json` order: name and unit.
/// `latency_p99_us` and `error_ratio` are printed in the run record
/// only: on a shared 2-CPU host the p99 follows the host's load for
/// whole runs, and the error ratio is 0 on working code.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("sets_per_s", "sets/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 36] = [
    "core.kernel_us",
    "core.lut_misses_timed",
    "core.lut_hit_rate",
    "serve.submit_us_p50",
    "serve.submit_us_p99",
    "serve.wait_us_p50",
    "serve.wait_us_p99",
    "serve.rung_us_p50",
    "serve.overhead_us",
    "serve.mean_drain",
    "serve.full_drain_ratio",
    "serve.fdm_lanes_per_pass",
    "serve.fdm_request_ratio",
    "serve.fused_request_ratio",
    "serve.queue_max",
    "serve.linger_us_end",
    "serve.rebalances",
    "pipeline.overhead_us",
    "pipeline.drains_per_batch",
    "pipeline.dispatch_per_set",
    "pipeline.peak_in_flight",
    "compiler.compile_ms",
    "net.encode_ns",
    "net.decode_ns",
    "net.bytes_per_request",
    "net.client_submit_us_p50",
    "net.client_wait_us_p50",
    "net.client_wait_us_p99",
    "net.rung_us_p50",
    "net.wire_overhead_us",
    "net.retry_ratio",
    "net.retry_afters",
    "net.timeouts",
    "net.rejected",
    "loadgen.lag_p99_us",
    "trace.overhead_ratio",
];

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_args() -> Res<(RunCfg, String)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Res<&str> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        Ok(args
            .get(at + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?)
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?.parse()?;
    let seconds: f64 = value("--seconds")?.parse()?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range").into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`").into()),
    };
    let cfg = RunCfg {
        workload,
        seed,
        seconds,
        trace,
    };
    Ok((cfg, name.to_string()))
}

fn run() -> Res<()> {
    let (cfg, name) = parse_args()?;
    let out = workloads::run(&cfg)?;
    if !out.planted_caught {
        return Err("the answer check missed a planted wrong answer".into());
    }
    print_record(&cfg, &name, &out);
    let metrics = if cfg.trace {
        trace_metrics(&out, &name)?
    } else {
        end_to_end(&out)?
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checker.bad() == 0,
        out.checker.attempted,
        out.checker.bad(),
        body.join(", ")
    );
    Ok(())
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(out: &Outcome) -> Res<Vec<Metric>> {
    let values = [
        median(&out.setups_s),
        episode_p50(&out.episodes),
        out.sets_per_s,
        peak_rss_mib()?,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| finite(n, v).map(|v| (n, v, u)))
        .collect()
}

fn trace_metrics(out: &Outcome, workload: &str) -> Res<Vec<Metric>> {
    if let Some(tr) = &out.tracer {
        println!("# span summary (count, wall ms, self ms):");
        for (name, (count, wall, own)) in tr.summary() {
            println!(
                "#   {name:<28} {count:>9} {:>12.3} {:>12.3}",
                wall as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = trace_dir().join(format!("perfbench-trace-{workload}.tsv"));
        tr.write_tsv(&path)?;
        println!(
            "# spans written: {} to {}",
            tr.spans().len(),
            path.display()
        );
    }
    PER_LAYER
        .iter()
        .map(|&n| {
            let &(_, v, u) = out
                .layer
                .iter()
                .find(|m| m.0 == n)
                .ok_or_else(|| format!("per-layer metric {n} was not measured"))?;
            println!("# {n} = {v} {u}");
            finite(n, v).map(|v| (n, v, u))
        })
        .collect()
}

fn finite(name: &str, v: f64) -> Res<f64> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("metric {name} is not a finite number ({v})").into())
    }
}

/// Where spans are written: the build directory, which stays out of
/// version control.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
}

fn print_record(cfg: &RunCfg, name: &str, out: &Outcome) {
    println!(
        "# perfbench workload={name} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# host_cpus={cpus} git_rev={} src_fnv={:016x}",
        git_rev(),
        source_hash()
    );
    println!(
        "# params: open_rate={} req/s, burst={}, circuit_sets={}, episodes={}, sets_per_unit={}",
        workloads::OPEN_RATE,
        workloads::BURST,
        workloads::CIRCUIT_SETS,
        out.setups_s.len(),
        cfg.workload.sets_per_unit()
    );
    println!("# serve_config: {:?}", magnon_serve::ServeConfig::default());
    println!("# net_config: {:?}", magnon_net::NetServerConfig::default());
    println!(
        "# compiler_config: {:?}",
        magnon_compiler::CompilerConfig::default()
    );
    for note in &out.notes {
        println!("# {note}");
    }
    let setups: Vec<String> = out.setups_s.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "# setup_s = {:.6} s (median of {}: {})",
        median(&out.setups_s),
        out.setups_s.len(),
        setups.join(" ")
    );
    let pooled = out.episodes.concat();
    let episode_medians: Vec<String> = out
        .episodes
        .iter()
        .map(|e| format!("{:.0}", median(e)))
        .collect();
    println!(
        "# latency_p50_us = {:.2} us: mean of {} episode medians over n={} units ({})",
        episode_p50(&out.episodes),
        out.episodes.len(),
        pooled.len(),
        episode_medians.join(" ")
    );
    let (p99, groups) = grouped_p99(&pooled);
    let size = pooled.len() / groups.max(1);
    println!(
        "# latency_p99_us = {p99:.2} us: median p99 of {groups} groups of ~{size} units (>= {} beyond each)",
        size / 100
    );
    for p in [50.0, 99.0] {
        let (v, beyond) = percentile(&pooled, p);
        println!(
            "# pooled p{p} = {v:.2} us (n={}, {beyond} beyond)",
            pooled.len()
        );
    }
    println!("# sets_per_s = {:.1} sets/s", out.sets_per_s);
    let c = &out.checker;
    println!(
        "# error_ratio = {} ratio ({} failed + {} wrong of {} attempted)",
        c.error_ratio(),
        c.failed,
        c.wrong,
        c.attempted
    );
    if !out.lag_us.is_empty() {
        let (p50, _) = percentile(&out.lag_us, 50.0);
        let (p99, beyond) = percentile(&out.lag_us, 99.0);
        println!(
            "# generator lag p50 {p50:.1} us, p99 {p99:.1} us (n={}, {beyond} beyond)",
            out.lag_us.len()
        );
    }
    if let Ok(rss) = peak_rss_mib() {
        println!("# peak_rss_mib = {rss:.3} MiB");
    }
    println!("# planted wrong answer caught: {}", out.planted_caught);
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The checked-out commit, when the benchmark runs inside a git
/// checkout; `none` otherwise.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and contents of the served code (`crates/`
/// and the root manifests), so rows from different sources differ
/// even where there is no git metadata.
fn source_hash() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the metric tables here must name the same
    /// metrics.
    #[test]
    fn benchmark_json_names_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for name in PER_LAYER {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        let names = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(names, workloads + END_TO_END.len() + PER_LAYER.len());
    }
}
