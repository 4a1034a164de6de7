//! The benchmark command.
//!
//! ```text
//! ndpbench --workload <tpch_ndp|tpch_raw|wire_htap> --seed <n> --seconds <s> --trace <0|1>
//! ndpbench --report      # the Fig. 7/8 table, once both TPC-H workloads ran
//! ndpbench --pin         # print the answer digests for digests.txt
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Traced runs also
//! write their spans to `out/` in this package's directory.

mod layers;
mod oracle;
mod tpch;
mod trace;
mod util;
mod wire;

use std::path::PathBuf;

use trace::Tracer;
use util::Metric;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: EndToEnd,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
}

/// The end-to-end metrics, the same on every workload. An analytic pass
/// is the 22 TPC-H queries (`tpch_*`) or the analytic client's statement
/// list (`wire_htap`).
pub struct EndToEnd {
    /// Median over [`SETUPS`] set-ups: data load, replica catch-up and
    /// server start.
    pub setup_s: f64,
    /// Operations completed per second of the window.
    pub ops_per_s: f64,
    /// Geometric mean over analytic query kinds of each kind's latency.
    pub query_geomean_ms: f64,
    /// SQL-node CPU (`compute_cpu_ns`) per analytic pass.
    pub compute_cpu_s: f64,
    /// Whole-process CPU per completed operation.
    pub cpu_ms_per_op: f64,
    /// Bytes shipped from storage to compute per analytic pass.
    pub storage_mb: f64,
    /// Peak resident set size of the benchmark process.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        use util::m;
        vec![
            m("setup_s", self.setup_s, "s"),
            m("ops_per_s", self.ops_per_s, "1/s"),
            m("query_geomean_ms", self.query_geomean_ms, "ms"),
            m("compute_cpu_s", self.compute_cpu_s, "s"),
            m("cpu_ms_per_op", self.cpu_ms_per_op, "ms"),
            m("storage_mb", self.storage_mb, "MB"),
            m("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Where runs leave spans and per-query figures.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--report" => {
                tpch::print_fig_report(&out_dir());
                return Ok(None);
            }
            "--pin" => {
                oracle::print_pins();
                return Ok(None);
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return,
        Err(e) => {
            eprintln!("ndpbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "tpch_ndp" => tpch::run(true, &args, &tracer),
        "tpch_raw" => tpch::run(false, &args, &tracer),
        "wire_htap" => wire::run(&args, &tracer),
        other => {
            eprintln!("ndpbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let path = out_dir().join(format!("trace_{}_seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("ndpbench: cannot write {}: {e}", path.display());
        }
    }
    let metrics = if args.trace {
        outcome.per_layer
    } else {
        outcome.end_to_end.metrics()
    };
    for mt in &metrics {
        println!("{:<34} {:>14.4} {}", mt.name, mt.value, mt.unit);
    }
    println!(
        "{}",
        util::result_json(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed under `key` in the repository's BENCHMARK.json.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..];
        let end = section[1..].find("\n  \"").map_or(section.len(), |i| i + 1);
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn reported_metrics_match_the_benchmark_definition() {
        let e2e = EndToEnd {
            setup_s: 1.0,
            ops_per_s: 1.0,
            query_geomean_ms: 1.0,
            compute_cpu_s: 1.0,
            cpu_ms_per_op: 1.0,
            storage_mb: 1.0,
            peak_rss_mb: 1.0,
        };
        assert_eq!(names(&e2e.metrics()), listed("end_to_end"));
        let layers = layers::layer_metrics(&layers::LayerInputs::default());
        assert_eq!(names(&layers), listed("per_layer"));
    }
}
