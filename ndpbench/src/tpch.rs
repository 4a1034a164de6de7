//! `tpch_ndp` / `tpch_raw`: the 22 registry queries in the paper's
//! order, in-process, with NDP on or off.
//!
//! After an untimed warm pass, whole passes run until the window is
//! spent (at least [`MIN_PASSES`]). Every figure is built from each
//! query's median over the passes, so a burst of outside load that slows
//! one query in one pass does not move it: per-pass figures are the sums
//! of the per-query medians. Executions during which the hypervisor stole
//! CPU time are left out of the medians while two others remain.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use taurus_bench::{bench_config, BENCH_SF, SEED};
use taurus_common::metrics::CpuGuard;
use taurus_ndp::TaurusDb;
use taurus_optimizer::ndp_post::ndp_post_process;

use crate::layers::{layer_metrics, LayerInputs};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::util::{
    geomean, mean, median, peak_rss_mb, process_cpu_s, ratio, steal_ticks, unstolen,
};
use crate::{Args, EndToEnd, Outcome, SETUPS};

const MIN_PASSES: usize = 3;

/// One query execution's cost.
#[derive(Clone, Copy, Default)]
struct QueryCost {
    wall_s: f64,
    /// SQL-node CPU (`compute_cpu_ns`).
    cpu_ns: u64,
    /// Whole-process CPU, Page Store workers included.
    proc_cpu_s: f64,
    bytes: u64,
    /// The machine lost CPU time to other guests during the execution.
    stolen: bool,
}

/// Build and load a database, [`SETUPS`] times; returns the last one and
/// every set-up time.
fn setup(ndp: bool, tracer: &Tracer) -> (Arc<TaurusDb>, Vec<f64>) {
    let mut times = Vec::new();
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let t0 = Instant::now();
        let fresh = tracer.span("tpch.load", 0, 0, |_| {
            let fresh = TaurusDb::new(bench_config(ndp));
            taurus_tpch::load(&fresh, BENCH_SF, SEED).expect("load TPC-H");
            fresh
        });
        times.push(t0.elapsed().as_secs_f64());
        db = Some(fresh);
    }
    (db.expect("at least one set-up"), times)
}

pub fn run(ndp: bool, args: &Args, tracer: &Tracer) -> Outcome {
    let oracle = Oracle::pinned();
    let queries = taurus_tpch::tpch_queries();
    let (db, setup_times) = setup(ndp, tracer);
    tracer.set_nodes(vec![db.metrics().clone()]);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut run_query = |q: &taurus_tpch::Query, op: u64| -> QueryCost {
        let before = db.metrics().snapshot();
        let (t0, cpu0, steal0) = (Instant::now(), process_cpu_s(), steal_ticks());
        let result = tracer.span("tpch.query", op, 0, |_| {
            // The query thread's CPU counts as SQL-node CPU, as in the
            // repository's own figure harness; scan producers charge
            // theirs themselves.
            let _cpu = CpuGuard::new(&db.metrics().compute_cpu_ns);
            (q.run)(&db, None)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let proc_cpu_s = process_cpu_s() - cpu0;
        let stolen = steal_ticks() > steal0;
        let d = db.metrics().snapshot().since(&before);
        attempted += 1;
        let ok = match &result {
            Ok(rows) if oracle.check(q.name, rows) => true,
            Ok(_) => {
                eprintln!("{}: answer does not match the pinned digest", q.name);
                false
            }
            Err(e) => {
                eprintln!("{}: {e}", q.name);
                false
            }
        };
        failed += u64::from(!ok);
        QueryCost {
            wall_s,
            cpu_ns: d.compute_cpu_ns,
            proc_cpu_s,
            bytes: d.net_bytes_from_storage,
            stolen,
        }
    };

    // Warm pass: fills the buffer pool and the Page Stores' descriptor
    // caches; its answers are checked but its times are not kept.
    for q in &queries {
        run_query(q, 0);
    }

    let window = Instant::now();
    let window_before = db.metrics().snapshot();
    let mut per_query: Vec<Vec<QueryCost>> = vec![Vec::new(); queries.len()];
    let mut pass = 0u64;
    while pass < MIN_PASSES as u64 || window.elapsed().as_secs_f64() < args.seconds {
        pass += 1;
        for (i, q) in queries.iter().enumerate() {
            per_query[i].push(run_query(q, pass * 100 + i as u64 + 1));
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let window_delta = db.metrics().snapshot().since(&window_before);
    let rss = peak_rss_mb();

    let n = queries.len() as f64;
    let clean: Vec<Vec<QueryCost>> = per_query
        .iter()
        .map(|c| unstolen(c, |c| c.stolen))
        .collect();
    let stolen = per_query.iter().flatten().filter(|c| c.stolen).count();
    eprintln!(
        "{stolen} of {} timed executions lost CPU time to other guests",
        per_query.iter().map(Vec::len).sum::<usize>()
    );
    let med = |f: fn(&QueryCost) -> f64| -> Vec<f64> {
        clean
            .iter()
            .map(|c| median(&c.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let query_ms = med(|c| c.wall_s * 1e3);
    let pass_s = query_ms.iter().sum::<f64>() / 1e3;
    let total = |f: fn(&QueryCost) -> f64| med(f).iter().sum::<f64>();
    let end_to_end = EndToEnd {
        setup_s: median(&setup_times),
        ops_per_s: n / pass_s,
        query_geomean_ms: geomean(&query_ms),
        compute_cpu_s: total(|c| c.cpu_ns as f64 / 1e9),
        cpu_ms_per_op: total(|c| c.proc_cpu_s) / n * 1e3,
        storage_mb: total(|c| c.bytes as f64 / 1e6),
        peak_rss_mb: rss,
    };

    let report = FigRows {
        names: queries.iter().map(|q| q.name.to_string()).collect(),
        mb: med(|c| c.bytes as f64 / 1e6),
        cpu_ms: med(|c| c.cpu_ns as f64 / 1e6),
        wall_ms: query_ms,
    };
    let out_dir = crate::out_dir();
    let mode = if ndp { "ndp" } else { "raw" };
    if let Err(e) = report.save(&out_dir.join(format!("fig_{mode}.tsv"))) {
        eprintln!("cannot save the per-query figures: {e}");
    }
    print_fig_report(&out_dir);

    let per_layer = if tracer.enabled() {
        let mut li = LayerInputs {
            passes: pass as f64,
            delta: vec![window_delta],
            load_s: median(&tracer.durations_s("tpch.load")),
            exec_ms: pass_s * 1e3,
            trace_overhead_pct: tracer.cost_s() / window_s * 100.0,
            traced_ops_per_s: end_to_end.ops_per_s,
            traced_query_geomean_ms: end_to_end.query_geomean_ms,
            ..Default::default()
        };
        probe_layers(&db, &queries, tracer, &mut li);
        layer_metrics(&li)
    } else {
        Vec::new()
    };
    Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
    }
}

/// After the window: time the layers `run` does not expose on their own
/// (data generation, and per query one `tpch.plan_probe` span whose
/// children build the plan, run the NDP pass on it and verify it).
fn probe_layers(
    db: &Arc<TaurusDb>,
    queries: &[taurus_tpch::Query],
    tracer: &Tracer,
    li: &mut LayerInputs,
) {
    tracer.span("tpch.generate", 0, 0, |_| {
        std::hint::black_box(taurus_tpch::generate(BENCH_SF, SEED));
    });
    li.generate_s = median(&tracer.durations_s("tpch.generate"));
    for (i, q) in queries.iter().enumerate() {
        let op = 10_000 + i as u64;
        tracer.span("tpch.plan_probe", op, 0, |root| {
            let Ok(mut plan) = tracer.span("optimizer.plan", op, root, |_| (q.plan)(db, None))
            else {
                return;
            };
            if let Ok(reports) = tracer.span("optimizer.ndp_post", op, root, |_| {
                ndp_post_process(&mut plan, db)
            }) {
                li.ndp_scans += reports
                    .iter()
                    .filter(|r| r.pushed_predicates > 0 || r.projection || r.aggregation)
                    .count() as f64;
                li.est_io_pages += reports.iter().map(|r| r.est_io_pages).sum::<f64>();
            }
            let _ = tracer.span("verify.check_plan", op, root, |_| {
                taurus_verify::check_plan(&plan, db)
            });
        });
    }
    li.ndp_post_us = mean(&tracer.durations_s("optimizer.ndp_post")) * 1e6;
    li.check_plan_us = mean(&tracer.durations_s("verify.check_plan")) * 1e6;
}

/// Per-query medians of one mode, saved so the other mode's run can
/// print the paper's Fig. 7/8 comparison.
struct FigRows {
    names: Vec<String>,
    mb: Vec<f64>,
    cpu_ms: Vec<f64>,
    wall_ms: Vec<f64>,
}

impl FigRows {
    fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("query\tmb\tcpu_ms\twall_ms\n");
        for i in 0..self.names.len() {
            s += &format!(
                "{}\t{}\t{}\t{}\n",
                self.names[i], self.mb[i], self.cpu_ms[i], self.wall_ms[i]
            );
        }
        std::fs::create_dir_all(path.parent().expect("output directory"))?;
        std::fs::write(path, s)
    }

    fn load(path: &Path) -> Option<FigRows> {
        let text = std::fs::read_to_string(path).ok()?;
        let mut rows = FigRows {
            names: Vec::new(),
            mb: Vec::new(),
            cpu_ms: Vec::new(),
            wall_ms: Vec::new(),
        };
        for line in text.lines().skip(1) {
            let f: Vec<&str> = line.split('\t').collect();
            rows.names.push(f.first()?.to_string());
            rows.mb.push(f.get(1)?.parse().ok()?);
            rows.cpu_ms.push(f.get(2)?.parse().ok()?);
            rows.wall_ms.push(f.get(3)?.parse().ok()?);
        }
        Some(rows)
    }
}

fn reduction(on: f64, off: f64) -> f64 {
    (1.0 - ratio(on, off)) * 100.0
}

/// Print the per-query Fig. 7/8 table (bytes shipped, SQL-node CPU, wall
/// time, reduction with NDP) and its totals beside the paper's, once both
/// modes have run in this checkout. Derived numbers, not metrics.
pub fn print_fig_report(out_dir: &Path) {
    let (Some(on), Some(off)) = (
        FigRows::load(&out_dir.join("fig_ndp.tsv")),
        FigRows::load(&out_dir.join("fig_raw.tsv")),
    ) else {
        return;
    };
    if on.names != off.names {
        return;
    }
    println!("Fig. 7/8: TPC-H SF {BENCH_SF}, per-query medians, NDP off -> on");
    println!(
        "{:<5} {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7}",
        "query", "MB off", "MB on", "red%", "cpu off", "cpu on", "red%", "ms off", "ms on", "red%"
    );
    let mut faster = 0;
    for i in 0..on.names.len() {
        let (b, c, w) = (
            reduction(on.mb[i], off.mb[i]),
            reduction(on.cpu_ms[i], off.cpu_ms[i]),
            reduction(on.wall_ms[i], off.wall_ms[i]),
        );
        faster += usize::from(w > 0.0);
        let flag = if b < 0.0 {
            "  <- NDP ships more bytes"
        } else {
            ""
        };
        println!(
            "{:<5} {:>9.2} {:>9.2} {:>6.1}% | {:>9.1} {:>9.1} {:>6.1}% | {:>9.1} {:>9.1} {:>6.1}%{flag}",
            on.names[i],
            off.mb[i],
            on.mb[i],
            b,
            off.cpu_ms[i],
            on.cpu_ms[i],
            c,
            off.wall_ms[i],
            on.wall_ms[i],
            w
        );
    }
    let total = |v: &[f64]| v.iter().sum::<f64>();
    let q15 = on.names.iter().position(|n| n == "Q15");
    println!(
        "TOTAL: bytes -{:.1}% (paper 63%), SQL-node CPU -{:.1}% (paper 50%), \
         {faster} of {} queries faster (paper 18 of 22), Q15 run time -{:.1}% (paper 98%)",
        reduction(total(&on.mb), total(&off.mb)),
        reduction(total(&on.cpu_ms), total(&off.cpu_ms)),
        on.names.len(),
        q15.map_or(0.0, |i| reduction(on.wall_ms[i], off.wall_ms[i])),
    );
}
