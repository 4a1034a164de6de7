//! Spans recorded around each call the benchmark makes into a layer.
//!
//! A span has a name (`layer.call`), start and end, the span that caused
//! it (0 for a root), and the id of the operation it belongs to, shared by
//! every span of that operation. Each span is charged the deltas of the
//! program's `Metrics` counters over its interval, one snapshot per node
//! (master, then replica). Spans stay in memory and are written out as
//! JSON lines when the run ends. With tracing off, [`Tracer::span`] only
//! calls its closure.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use taurus_common::{Metrics, MetricsSnapshot};

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas over the span, one per traced node.
    pub delta: Vec<MetricsSnapshot>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Sum of one counter's delta over every node.
    pub fn sum(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
        self.delta.iter().map(f).sum()
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    nodes: Mutex<Vec<Arc<Metrics>>>,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    /// Nanoseconds spent in span bookkeeping: the tracer's own cost.
    cost_ns: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            nodes: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(0),
            cost_ns: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Charge later spans the counters of these nodes.
    pub fn set_nodes(&self, nodes: Vec<Arc<Metrics>>) {
        *self.nodes.lock().expect("tracer nodes") = nodes;
    }

    /// Run `f` inside a span. `f` receives the span's id, the parent for
    /// spans it opens itself.
    pub fn span<T>(&self, name: &'static str, op: u64, parent: u32, f: impl FnOnce(u32) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let t0 = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let nodes = self.nodes.lock().expect("tracer nodes").clone();
        let before: Vec<MetricsSnapshot> = nodes.iter().map(|m| m.snapshot()).collect();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.charge(t0);
        let out = f(id);
        let t1 = Instant::now();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let delta = nodes
            .iter()
            .zip(&before)
            .map(|(m, b)| m.snapshot().since(b))
            .collect();
        self.spans.lock().expect("tracer spans").push(Span {
            name,
            op,
            id,
            parent,
            start_ns,
            end_ns,
            delta,
        });
        self.charge(t1);
        out
    }

    fn charge(&self, since: Instant) {
        self.cost_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Seconds spent in span bookkeeping so far.
    pub fn cost_s(&self) -> f64 {
        self.cost_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Durations (in seconds) of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer spans")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
        let mut kids: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for c in spans.iter().filter(|c| c.parent != 0) {
            kids.entry(c.parent)
                .or_default()
                .push((c.start_ns, c.end_ns));
        }
        spans
            .iter()
            .map(|s| {
                let mut within: Vec<(u64, u64)> = kids
                    .get(&s.id)
                    .into_iter()
                    .flatten()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect();
                within.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in within {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("tracer spans");
        let selfs = Self::self_times_ns(&spans);
        let mut out = String::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"id\": {}, \"parent\": {}, \"start_us\": {}, \
                 \"end_us\": {}, \"self_us\": {}, \"bytes_from_storage\": {}, \
                 \"compute_cpu_us\": {}, \"bp_misses\": {}, \"pages_ndp\": {}, \"pages_raw\": {}}}",
                s.name,
                s.op,
                s.id,
                s.parent,
                s.start_ns / 1000,
                s.end_ns / 1000,
                self_ns / 1000,
                s.sum(|d| d.net_bytes_from_storage),
                s.sum(|d| d.compute_cpu_ns) / 1000,
                s.sum(|d| d.bp_misses),
                s.sum(|d| d.pages_shipped_ndp),
                s.sum(|d| d.pages_shipped_raw),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let t = Tracer::new(true);
        t.span("outer", 1, 0, |id| {
            t.span("inner", 1, id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans.lock().unwrap();
        let selfs = Tracer::self_times_ns(&spans);
        let outer = spans.iter().position(|s| s.name == "outer").unwrap();
        let inner = spans.iter().position(|s| s.name == "inner").unwrap();
        assert_eq!(spans[inner].parent, spans[outer].id);
        assert_eq!(selfs[inner], spans[inner].dur_ns());
        assert_eq!(selfs[outer], spans[outer].dur_ns() - spans[inner].dur_ns());
        assert!(selfs[outer] >= 5_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, 0, |id| id), 0);
        assert!(t.durations_s("x").is_empty());
    }
}
