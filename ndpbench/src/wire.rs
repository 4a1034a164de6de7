//! `wire_htap`: TPC-H data served over TCP by a master and one
//! log-tailing replica, with an OLTP and an analytic client side by side.
//!
//! Two closed-loop connections, each on its own thread:
//!
//! - OLTP: a seeded stream of `orders` point lookups over a hot key range
//!   that fits in the buffer pool; every [`UPDATE_EVERY`]th lookup is
//!   followed by an update that rewrites only `o_clerk`, a column no
//!   TPC-H query reads, so the analytic answers stay checkable.
//! - OLAP: the SQL texts of [`OLAP`] in turn, with NDP on.
//!
//! Each connection has its own endpoint, two `Server`s over the one
//! master: OLTP talks to a master-only endpoint, OLAP to an endpoint that
//! routes reads over master and replica. The router rotates over the
//! nodes per read, so on a shared endpoint the lookups' pace decided which
//! node ran each analytic statement, and with it (the replica caches and
//! ships differently) that statement's time and bytes. Here the rotation
//! only sees analytic reads: with an odd number of statements per pass,
//! each statement alternates between the nodes pass by pass, and the
//! window ends on an even number of passes, so every statement ran
//! equally often on both.
//!
//! The OLTP client runs until the OLAP client has finished its last
//! pass, so the mix is the same throughout.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use taurus_bench::{bench_config, BENCH_SF, SEED};
use taurus_common::Value;
use taurus_executor::Session;
use taurus_ndp::TaurusDb;
use taurus_optimizer::ndp_post::ndp_post_process;
use taurus_protocol::DmlRequest;
use taurus_replica::Replica;
use taurus_server::{Client, PlanRegistry, Server, ServerHandle};

use crate::layers::{layer_metrics, LayerInputs};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::util::{
    geomean, mean, median, peak_rss_mb, process_cpu_s, quantile, ratio, steal_ticks, unstolen, Rng,
};
use crate::{Args, EndToEnd, Outcome, SETUPS};

/// The analytic statements: NDP-eligible lineitem scans, joins and
/// aggregates of moderate cost, so each kind repeats many times a run.
/// An odd count, so each one alternates between master and replica.
const OLAP: [&str; 7] = ["Q1", "Q3", "Q6", "Q10", "Q12", "Q14", "Q19"];
const UPDATE_EVERY: u64 = 4;
/// The OLTP client's think time after each lookup (and its update): a
/// user's pace, which leaves the two cores unsaturated so the analytic
/// client's share of them does not swing with thread placement.
const THINK: Duration = Duration::from_millis(1);
/// Consecutive order keys the lookups draw from (a few dozen pages).
const HOT_KEYS: u64 = 2048;
/// `o_clerk`'s position in `orders`.
const CLERK: usize = 6;
/// Probe repetitions per statement in the traced run.
const PROBE_REPS: usize = 3;

/// Endpoints, replica and master, dropped in that (field) order, so
/// nothing serves a node that is gone.
struct Cluster {
    /// Master only: the OLTP client's endpoint.
    oltp: ServerHandle,
    /// Master and replica: the analytic client's endpoint.
    olap: ServerHandle,
    replica: Arc<Replica>,
    db: Arc<TaurusDb>,
}

fn setup(tracer: &Tracer) -> (Cluster, Vec<f64>) {
    let mut cfg = bench_config(true);
    cfg.server.listen_addr = "127.0.0.1:0".into();
    cfg.replica.max_lag_lsn = None;
    let mut times = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUPS {
        drop(cluster.take());
        let t0 = Instant::now();
        let db = tracer.span("tpch.load", 0, 0, |_| {
            let db = TaurusDb::new(cfg.clone());
            taurus_tpch::load(&db, BENCH_SF, SEED).expect("load TPC-H");
            db
        });
        let replica = tracer.span("replica.attach", 0, 0, |_| {
            let r = Replica::attach(&db);
            r.wait_caught_up(Duration::from_secs(60))
                .expect("replica catches up");
            r
        });
        let (oltp, olap) = tracer.span("server.start", 0, 0, |_| {
            let start = |replicas| Server::start(&db, replicas, PlanRegistry::new());
            (
                start(Vec::new()).expect("start the OLTP endpoint"),
                start(vec![replica.clone()]).expect("start the OLAP endpoint"),
            )
        });
        times.push(t0.elapsed().as_secs_f64());
        cluster = Some(Cluster {
            oltp,
            olap,
            replica,
            db,
        });
    }
    (cluster.expect("at least one set-up"), times)
}

#[derive(Default)]
struct Oltp {
    lookup_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    /// When each lookup and update completed.
    done: Vec<Instant>,
    attempted: u64,
    failed: u64,
}

#[derive(Default)]
struct Olap {
    /// Start and end of each statement, per kind in [`OLAP`] order.
    runs: Vec<Vec<(Instant, Instant)>>,
    attempted: u64,
    failed: u64,
}

/// How often the window samples the machine's steal counter.
const STEAL_SAMPLE: Duration = Duration::from_millis(50);

/// The machine's steal counter, sampled through the window.
struct StealLog(Vec<(Instant, u64)>);

impl StealLog {
    /// The sampling intervals in which the machine lost CPU time.
    fn stolen(&self) -> impl Iterator<Item = (Instant, Instant)> + '_ {
        self.0
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[0].0, w[1].0))
    }

    fn touches(&self, from: Instant, to: Instant) -> bool {
        self.stolen().any(|(a, b)| a <= to && from <= b)
    }

    /// Seconds of `window_s` in no stolen interval.
    fn clean_s(&self, window_s: f64) -> f64 {
        window_s
            - self
                .stolen()
                .map(|(a, b)| (b - a).as_secs_f64())
                .sum::<f64>()
    }
}

fn oltp_loop(addr: &str, seed: u64, stop: &AtomicBool, tracer: &Tracer) -> Oltp {
    let mut out = Oltp::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("oltp connect: {e}");
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let orders = taurus_tpch::dbgen::cardinalities(BENCH_SF).3 as u64;
    let mut rng = Rng::new(seed);
    let base = rng.range(1, orders - HOT_KEYS + 2);
    // Clerks this client wrote: a lookup must see the client's own write.
    let mut written: HashMap<i64, String> = HashMap::new();
    let mut last_lsn = 0u64;
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        if i > 0 {
            std::thread::sleep(THINK);
        }
        i += 1;
        let key = (base + rng.range(0, HOT_KEYS)) as i64;
        let t0 = Instant::now();
        let got = tracer.span("wire.lookup", i, 0, |_| {
            client.lookup("orders", vec![Value::Int(key)])
        });
        out.lookup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.done.push(Instant::now());
        out.attempted += 1;
        let row = match got {
            Ok((Some(row), _)) if row.first() == Some(&Value::Int(key)) => row,
            other => {
                eprintln!("lookup {key}: wrong answer {other:?}");
                out.failed += 1;
                continue;
            }
        };
        if let Some(clerk) = written.get(&key) {
            if row[CLERK].to_string() != *clerk {
                eprintln!("lookup {key}: clerk {} after writing {clerk}", row[CLERK]);
                out.failed += 1;
            }
        }
        if !i.is_multiple_of(UPDATE_EVERY) {
            continue;
        }
        let clerk = format!("Clerk#{:09}", rng.range(1, 1_000_000_000));
        let mut row = row;
        row[CLERK] = Value::str(&clerk);
        let t0 = Instant::now();
        let done = tracer.span("wire.update", i, 0, |_| {
            client.execute(DmlRequest::Update {
                table: "orders".into(),
                row,
            })
        });
        out.attempted += 1;
        match done {
            Ok(lsn) if lsn >= last_lsn => {
                out.commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.done.push(Instant::now());
                last_lsn = lsn;
                written.insert(key, clerk);
            }
            other => {
                eprintln!("update {key}: {other:?} (last commit LSN {last_lsn})");
                out.failed += 1;
                written.remove(&key);
            }
        }
    }
    out
}

fn olap_loop(addr: &str, seconds: f64, oracle: &Oracle, tracer: &Tracer) -> Olap {
    let mut out = Olap {
        runs: vec![Vec::new(); OLAP.len()],
        ..Default::default()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("olap connect: {e}");
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let start = Instant::now();
    let mut k = 0usize;
    // Whole pairs of passes, at least one, until the window is spent.
    let pair = 2 * OLAP.len();
    while k == 0 || !k.is_multiple_of(pair) || start.elapsed().as_secs_f64() < seconds {
        let name = OLAP[k % OLAP.len()];
        let text = taurus_sql::tpch_sql::sql_for(name).expect("TPC-H SQL text");
        let t0 = Instant::now();
        let got = tracer.span("wire.sql", k as u64, 0, |_| client.query_sql(text, true));
        out.runs[k % OLAP.len()].push((t0, Instant::now()));
        out.attempted += 1;
        let ok = match &got {
            Ok(reply) if oracle.check(&format!("sql:{name}"), &reply.rows) => true,
            Ok(_) => {
                eprintln!("{name} over the wire: answer does not match the pinned digest");
                false
            }
            Err(e) => {
                eprintln!("{name} over the wire: {e}");
                false
            }
        };
        out.failed += u64::from(!ok);
        k += 1;
    }
    out
}

/// Ends the OLTP client (and the lag sampler) when the analytic client
/// finishes, also if it panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let oracle = Oracle::pinned();
    let (cluster, setup_times) = setup(tracer);
    let oltp_addr = cluster.oltp.local_addr().to_string();
    let olap_addr = cluster.olap.local_addr().to_string();
    let nodes = [
        cluster.db.metrics().clone(),
        cluster.replica.db().metrics().clone(),
    ];
    tracer.set_nodes(nodes.to_vec());

    let stop = AtomicBool::new(false);
    let before: Vec<_> = nodes.iter().map(|m| m.snapshot()).collect();
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    let mut lag_max = 0u64;
    let mut steal = StealLog(vec![(t0, steal_ticks())]);
    let (oltp, olap) = std::thread::scope(|s| {
        let oltp = s.spawn(|| oltp_loop(&oltp_addr, args.seed, &stop, tracer));
        let olap = s.spawn(|| {
            let _stop = StopOnDrop(&stop);
            olap_loop(&olap_addr, args.seconds, &oracle, tracer)
        });
        let tick = if tracer.enabled() {
            Duration::from_millis(2)
        } else {
            STEAL_SAMPLE
        };
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(tick);
            if tracer.enabled() {
                lag_max = lag_max.max(cluster.replica.lag());
            }
            if steal
                .0
                .last()
                .is_some_and(|l| l.0.elapsed() >= STEAL_SAMPLE)
            {
                steal.0.push((Instant::now(), steal_ticks()));
            }
        }
        (
            oltp.join().expect("OLTP client thread"),
            olap.join().expect("OLAP client thread"),
        )
    });
    steal.0.push((Instant::now(), steal_ticks()));
    let window_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let delta: Vec<_> = nodes
        .iter()
        .zip(&before)
        .map(|(m, b)| m.snapshot().since(b))
        .collect();
    let rss = peak_rss_mb();

    let statements: usize = olap.runs.iter().map(Vec::len).sum();
    let passes = statements as f64 / OLAP.len() as f64;
    let ops = (oltp.done.len() + statements) as f64;
    // Throughput over the part of the window the hypervisor did not steal
    // from, unless that part is too short to count.
    let clean_s = steal.clean_s(window_s);
    eprintln!(
        "{:.1}% of the window lost CPU time to other guests",
        (1.0 - clean_s / window_s) * 100.0
    );
    let ops_per_s = if clean_s >= window_s / 4.0 {
        let ends = oltp
            .done
            .iter()
            .chain(olap.runs.iter().flatten().map(|r| &r.1));
        ends.filter(|&&t| !steal.touches(t, t)).count() as f64 / clean_s
    } else {
        ops / window_s
    };
    // Each kind's mean, not its median: a kind runs half its times on
    // each node, and the two nodes' latencies can differ severalfold.
    let kind_ms: Vec<f64> = olap
        .runs
        .iter()
        .map(|runs| {
            let clean = unstolen(runs, |r| steal.touches(r.0, r.1));
            mean(
                &clean
                    .iter()
                    .map(|r| (r.1 - r.0).as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let sum =
        |f: fn(&taurus_common::MetricsSnapshot) -> u64| delta.iter().map(f).sum::<u64>() as f64;
    let end_to_end = EndToEnd {
        setup_s: median(&setup_times),
        ops_per_s,
        query_geomean_ms: geomean(&kind_ms),
        compute_cpu_s: ratio(sum(|d| d.compute_cpu_ns), passes) / 1e9,
        cpu_ms_per_op: ratio(cpu_s, ops) * 1e3,
        storage_mb: ratio(sum(|d| d.net_bytes_from_storage), passes) / 1e6,
        peak_rss_mb: rss,
    };

    let per_layer = if tracer.enabled() {
        let mut li = LayerInputs {
            passes,
            commits: oltp.commit_ms.len() as f64,
            load_s: median(&tracer.durations_s("tpch.load")),
            lag_lsn_max: lag_max as f64,
            lookup_p50_ms: median(&oltp.lookup_ms),
            lookup_p99_ms: quantile(&oltp.lookup_ms, 0.99),
            commit_p50_ms: median(&oltp.commit_ms),
            commit_p99_ms: quantile(&oltp.commit_ms, 0.99),
            trace_overhead_pct: tracer.cost_s() / window_s * 100.0,
            traced_ops_per_s: end_to_end.ops_per_s,
            traced_query_geomean_ms: end_to_end.query_geomean_ms,
            delta,
            ..Default::default()
        };
        probe_layers(&cluster.db, &oltp_addr, tracer, &mut li);
        layer_metrics(&li)
    } else {
        Vec::new()
    };
    drop(cluster);
    Outcome {
        attempted: oltp.attempted + olap.attempted,
        failed: oltp.failed + olap.failed,
        end_to_end,
        per_layer,
    }
}

/// After the window, with the OLTP client gone: run each analytic
/// statement over the wire through the master-only endpoint `addr`, then
/// the same statement in-process on the master as one
/// `inproc.sql` span whose children time parse, bind (with its eager
/// scalar subqueries and the NDP pass), verification and execution. The
/// NDP pass is also timed alone, on the plan bound with NDP off.
fn probe_layers(db: &Arc<TaurusDb>, addr: &str, tracer: &Tracer, li: &mut LayerInputs) {
    tracer.span("tpch.generate", 0, 0, |_| {
        std::hint::black_box(taurus_tpch::generate(BENCH_SF, SEED));
    });
    li.generate_s = median(&tracer.durations_s("tpch.generate"));
    let ndp = Session::new(db).with_ndp(true);
    let plain = Session::new(db).with_ndp(false);
    let Ok(mut client) = Client::connect(addr) else {
        eprintln!("probe: cannot connect");
        return;
    };
    let (mut exec_ms, mut overhead_ms) = (0.0, 0.0);
    for (k, name) in OLAP.iter().enumerate() {
        let text = taurus_sql::tpch_sql::sql_for(name).expect("TPC-H SQL text");
        let op = 10_000 + k as u64;
        let (mut wire, mut local, mut exec) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..PROBE_REPS {
            let t0 = Instant::now();
            let _ = tracer.span("wire.sql_probe", op, 0, |_| client.query_sql(text, true));
            wire.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let stmt = tracer.span("inproc.sql", op, 0, |root| {
                let Ok(taurus_sql::Statement::Select(stmt)) =
                    tracer.span("sql.parse", op, root, |_| taurus_sql::parse(text))
                else {
                    return None;
                };
                let plan = tracer
                    .span("sql.bind", op, root, |_| taurus_sql::bind(&ndp, &stmt))
                    .ok()?;
                let _ = tracer.span("verify.check_plan", op, root, |_| {
                    taurus_verify::check_plan(&plan, db)
                });
                let t1 = Instant::now();
                // The serving path's terminal: a row stream, drained.
                let _ = tracer.span("executor.execute", op, root, |_| {
                    ndp.stream_plan(plan)
                        .collect::<taurus_common::Result<Vec<_>>>()
                });
                exec.push(t1.elapsed().as_secs_f64() * 1e3);
                Some(stmt)
            });
            local.push(t0.elapsed().as_secs_f64() * 1e3);
            let Some(Ok(mut raw_plan)) = stmt.map(|s| taurus_sql::bind(&plain, &s)) else {
                continue;
            };
            let reports = tracer.span("optimizer.ndp_post", op, 0, |_| {
                ndp_post_process(&mut raw_plan, db)
            });
            if let (0, Ok(reports)) = (rep, reports) {
                li.ndp_scans += reports
                    .iter()
                    .filter(|r| r.pushed_predicates > 0 || r.projection || r.aggregation)
                    .count() as f64;
                li.est_io_pages += reports.iter().map(|r| r.est_io_pages).sum::<f64>();
            }
        }
        exec_ms += median(&exec);
        overhead_ms += median(&wire) - median(&local);
    }
    let mean_us = |name| mean(&tracer.durations_s(name)) * 1e6;
    li.parse_us = mean_us("sql.parse");
    li.bind_us = mean_us("sql.bind");
    li.ndp_post_us = mean_us("optimizer.ndp_post");
    li.check_plan_us = mean_us("verify.check_plan");
    li.exec_ms = exec_ms;
    li.wire_overhead_ms = overhead_ms / OLAP.len() as f64;
}
