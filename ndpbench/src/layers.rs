//! Per-layer metrics of a traced run, named `crate.quantity`.
//!
//! Counters are the program's `Metrics` deltas over the timed window,
//! summed over the nodes (master and replica) and divided by the number
//! of analytic passes the window completed, so runs of different length
//! compare. Timings come from the spans the benchmark recorded around its
//! own calls into each layer. Every workload reports the same list; a
//! layer a workload never calls reads 0.

use taurus_common::MetricsSnapshot;

use crate::util::{m, ratio, Metric};

/// Everything a workload measured for the per-layer report.
#[derive(Default)]
pub struct LayerInputs {
    /// Analytic passes completed in the window (may be fractional).
    pub passes: f64,
    /// Counter deltas over the window, one per node.
    pub delta: Vec<MetricsSnapshot>,
    pub generate_s: f64,
    pub load_s: f64,
    pub parse_us: f64,
    pub bind_us: f64,
    pub ndp_post_us: f64,
    /// NDP-enabled table accesses per pass, from the NDP pass's reports.
    pub ndp_scans: f64,
    /// Estimated physical I/O pages per pass, from the same reports.
    pub est_io_pages: f64,
    pub check_plan_us: f64,
    /// Executor wall time per pass.
    pub exec_ms: f64,
    /// Commits acknowledged in the window.
    pub commits: f64,
    pub lag_lsn_max: f64,
    pub wire_overhead_ms: f64,
    pub lookup_p50_ms: f64,
    pub lookup_p99_ms: f64,
    pub commit_p50_ms: f64,
    pub commit_p99_ms: f64,
    /// Span bookkeeping time as a share of the window.
    pub trace_overhead_pct: f64,
    /// The end-to-end figures as the traced run measured them.
    pub traced_ops_per_s: f64,
    pub traced_query_geomean_ms: f64,
}

impl LayerInputs {
    fn sum(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
        self.delta.iter().map(f).sum::<u64>() as f64
    }

    fn per_pass(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
        ratio(self.sum(f), self.passes)
    }
}

pub fn layer_metrics(i: &LayerInputs) -> Vec<Metric> {
    const PASS: &str = "count/pass";
    let actual_pages = i.per_pass(|d| d.pages_shipped());
    vec![
        m("tpch.generate_s", i.generate_s, "s"),
        m("tpch.load_s", i.load_s, "s"),
        m("sql.parse_us", i.parse_us, "us"),
        m("sql.bind_us", i.bind_us, "us"),
        m("optimizer.ndp_post_us", i.ndp_post_us, "us"),
        m("optimizer.ndp_scans", i.ndp_scans, PASS),
        m("optimizer.est_io_pages", i.est_io_pages, "pages/pass"),
        m(
            "optimizer.est_over_actual_pages",
            ratio(i.est_io_pages, actual_pages),
            "ratio",
        ),
        m("verify.check_plan_us", i.check_plan_us, "us"),
        m("executor.exec_ms", i.exec_ms, "ms/pass"),
        m(
            "executor.compute_cpu_ms",
            i.per_pass(|d| d.compute_cpu_ns) / 1e6,
            "ms/pass",
        ),
        m(
            "executor.operator_rows",
            i.per_pass(|d| d.operator_rows),
            PASS,
        ),
        m(
            "expr.vector_eval_rows",
            i.per_pass(|d| d.vector_eval_rows),
            PASS,
        ),
        m(
            "executor.prefetch_stall_ms",
            i.per_pass(|d| d.prefetch_stall_ns) / 1e6,
            "ms/pass",
        ),
        m(
            "bufferpool.hit_ratio",
            ratio(i.sum(|d| d.bp_hits), i.sum(|d| d.bp_hits + d.bp_misses)),
            "ratio",
        ),
        m("bufferpool.misses", i.per_pass(|d| d.bp_misses), PASS),
        m("bufferpool.evictions", i.per_pass(|d| d.bp_evictions), PASS),
        m(
            "sal.read_requests",
            i.per_pass(|d| d.net_read_requests),
            PASS,
        ),
        m("sal.read_retries", i.per_pass(|d| d.read_retries), PASS),
        m("sal.pages_raw", i.per_pass(|d| d.pages_shipped_raw), PASS),
        m("sal.pages_ndp", i.per_pass(|d| d.pages_shipped_ndp), PASS),
        m(
            "sal.pages_empty",
            i.per_pass(|d| d.pages_shipped_empty),
            PASS,
        ),
        m(
            "sal.to_storage_mb",
            i.per_pass(|d| d.net_bytes_to_storage) / 1e6,
            "MB/pass",
        ),
        m(
            "pagestore.cpu_ms",
            i.per_pass(|d| d.ps_cpu_ns) / 1e6,
            "ms/pass",
        ),
        m(
            "pagestore.pages_processed",
            i.per_pass(|d| d.ps_pages_processed),
            PASS,
        ),
        m(
            "pagestore.records_filtered",
            i.per_pass(|d| d.ps_records_filtered),
            PASS,
        ),
        m(
            "pagestore.records_aggregated",
            i.per_pass(|d| d.ps_records_aggregated),
            PASS,
        ),
        m(
            "pagestore.ndp_skipped",
            i.per_pass(|d| d.ps_ndp_skipped),
            PASS,
        ),
        m("pagestore.ndp_shed", i.per_pass(|d| d.ps_ndp_shed), PASS),
        m(
            "pagestore.desc_cache_hit_ratio",
            ratio(
                i.sum(|d| d.ps_desc_cache_hits),
                i.sum(|d| d.ps_desc_cache_hits + d.ps_desc_cache_misses),
            ),
            "ratio",
        ),
        m(
            "pagestore.desc_decode_ms",
            i.per_pass(|d| d.ps_desc_decode_ns) / 1e6,
            "ms/pass",
        ),
        m(
            "mvcc.ambiguous_records",
            i.per_pass(|d| d.ambiguous_records),
            PASS,
        ),
        m(
            "logstore.flush_us_per_commit",
            ratio(i.sum(|d| d.log_flush_ns) / 1e3, i.commits),
            "us",
        ),
        m(
            "logstore.bytes_per_commit",
            ratio(i.sum(|d| d.log_bytes_appended), i.commits),
            "B",
        ),
        m("replica.lag_lsn_max", i.lag_lsn_max, "lsn"),
        m(
            "replica.apply_mb",
            i.per_pass(|d| d.replica_apply_bytes) / 1e6,
            "MB/pass",
        ),
        m(
            "replica.catchup_stall_ms",
            i.per_pass(|d| d.replica_catchup_stall_ns) / 1e6,
            "ms/pass",
        ),
        m(
            "server.routed_replica_frac",
            ratio(
                i.sum(|d| d.server_routed_replica),
                i.sum(|d| d.server_routed_master + d.server_routed_replica),
            ),
            "ratio",
        ),
        m("server.wire_overhead_ms", i.wire_overhead_ms, "ms"),
        m("server.failovers", i.per_pass(|d| d.server_failovers), PASS),
        m(
            "server.errors_sent",
            i.per_pass(|d| d.server_errors_sent),
            PASS,
        ),
        m(
            "server.overload_refused",
            i.per_pass(|d| d.server_overload_refused),
            PASS,
        ),
        m(
            "protocol.bytes_per_row",
            ratio(
                i.sum(|d| d.server_bytes_sent),
                i.sum(|d| d.server_rows_sent),
            ),
            "B/row",
        ),
        m("wire.lookup_p50_ms", i.lookup_p50_ms, "ms"),
        m("wire.lookup_p99_ms", i.lookup_p99_ms, "ms"),
        m("wire.commit_p50_ms", i.commit_p50_ms, "ms"),
        m("wire.commit_p99_ms", i.commit_p99_ms, "ms"),
        m("trace.overhead_pct", i.trace_overhead_pct, "%"),
        m("trace.ops_per_s", i.traced_ops_per_s, "1/s"),
        m("trace.query_geomean_ms", i.traced_query_geomean_ms, "ms"),
    ]
}
