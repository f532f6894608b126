//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, plus the order statistics every metric is built from.
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call: what was called, when, under which span and for
/// which unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call or phase, e.g. `serve.submit`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The unit of work (request, burst or batch index) it belongs to.
    pub req: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans relative to `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread sharing this one's epoch and
    /// switch; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.enabled)
    }

    /// A disabled recorder on this one's epoch, for untraced replays
    /// inside a traced run.
    pub fn fork_disabled(&self) -> Tracer {
        Tracer::new(self.epoch, false)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`Tracer::close`] and children.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` (a no-op for the disabled tracer's ids).
    #[inline]
    pub fn close(&mut self, id: u32) {
        if id == ROOT {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Records a span whose bounds were taken elsewhere (an open-loop
    /// request runs from its due time, which no thread was inside).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Moves another thread's spans in, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(list) = children.get_mut(s.parent as usize) {
                list.push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: count, total wall time and total self time (ns).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut table = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let row = table.entry(span.name).or_insert((0, 0, 0));
            row.0 += 1;
            row.1 += span.duration_ns();
            row.2 += self_ns;
        }
        table
    }

    /// Writes every span as one tab-separated line (id, name, parent,
    /// request, start, end, self time; times in ns).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\treq\tstart_ns\tend_ns\tself_ns")?;
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`, with the number
/// of samples strictly beyond it. `(0, 0)` when empty.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).0
}

/// Median unit latency of a run made of independent episodes: the
/// mean of the episodes' medians. The adaptive policies hold discrete
/// states (linger doublings) for seconds, so a pooled median jumps
/// between states as their shares cross one half; the mean of
/// per-episode medians moves in proportion to the shares instead.
pub fn episode_p50(episodes: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = episodes
        .iter()
        .filter(|e| !e.is_empty())
        .map(|e| median(e))
        .collect();
    if medians.is_empty() {
        0.0
    } else {
        medians.iter().sum::<f64>() / medians.len() as f64
    }
}

/// 99th percentile of a run's samples taken in order, robust to rare
/// stalls: the samples are cut into `g` equal consecutive groups of at
/// least 1000 (so each group's p99 has at least 10 samples beyond it)
/// and the median of the groups' p99s is returned, with `g`. Below
/// three groups it is the pooled p99. A stall that lands in a few
/// groups (a rebalance onto a cold session costs tens of ms) moves
/// only those groups; the pooled p99 is printed beside it.
pub fn grouped_p99(samples: &[f64]) -> (f64, usize) {
    let groups = samples.len() / 1000;
    if groups < 3 {
        return (percentile(samples, 99.0).0, 1);
    }
    let p99s: Vec<f64> = samples
        .chunks(samples.len().div_ceil(groups))
        .map(|c| percentile(c, 99.0).0)
        .collect();
    (median(&p99s), p99s.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), true);
        t.spans = vec![
            Span {
                name: "unit",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                req: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                req: 0,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 60,
                parent: 0,
                req: 0,
            },
        ];
        assert_eq!(t.self_times_ns(), vec![50, 30, 30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let v = t.span("x", ROOT, 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn episode_and_group_statistics() {
        assert_eq!(
            episode_p50(&[vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]]),
            11.0
        );
        // One stalled group of five does not move the grouped p99.
        let mut samples: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        samples[..1000].iter_mut().for_each(|v| *v += 1e6);
        assert_eq!(grouped_p99(&samples), (989.0, 5));
        assert_eq!(grouped_p99(&samples[..2000]).1, 1);
    }

    #[test]
    fn percentile_reports_tail_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), (500.0, 500));
        assert_eq!(percentile(&samples, 99.0), (990.0, 10));
    }
}
