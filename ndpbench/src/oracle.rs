//! The correctness oracle: pinned per-query answer digests.
//!
//! A digest is a result's row count plus an order-insensitive hash (the
//! wrapping sum of one FNV-1a hash per row over the `Debug` rendering of
//! its values, so a row's type, scale and padding all count). The pinned
//! values in `digests.txt` were taken at the benchmark's scale factor and
//! data seed; every run checks each answer against them. Registry answers
//! are keyed by query name (`Q6`); the SQL texts served over the wire by
//! `sql:Q6`, since for the multi-phase queries the SQL text is only the
//! main-stage plan.

use std::collections::HashMap;
use std::fmt::Write as _;

use taurus_bench::{bench_config, BENCH_SF, SEED};
use taurus_common::schema::Row;
use taurus_executor::Session;
use taurus_ndp::TaurusDb;
use taurus_sql::SessionSqlExt;

const PINNED: &str = include_str!("../digests.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub hash: u64,
}

pub fn digest(rows: &[Row]) -> Digest {
    let mut buf = String::new();
    let mut hash = 0u64;
    for row in rows {
        buf.clear();
        for v in row {
            let _ = write!(buf, "{v:?}|");
        }
        hash = hash.wrapping_add(fnv1a(buf.as_bytes()));
    }
    Digest {
        rows: rows.len(),
        hash,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub struct Oracle {
    pinned: HashMap<String, Digest>,
}

impl Oracle {
    pub fn pinned() -> Oracle {
        let pinned = PINNED
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let rows = f[1].parse().expect("digests.txt: row count");
                let hash = u64::from_str_radix(f[2], 16).expect("digests.txt: hex hash");
                (f[0].to_string(), Digest { rows, hash })
            })
            .collect();
        Oracle { pinned }
    }

    /// Whether `rows` is the pinned answer of `key`. An unpinned key never
    /// passes: a benchmark that cannot check an answer does not count it.
    pub fn check(&self, key: &str, rows: &[Row]) -> bool {
        self.pinned.get(key) == Some(&digest(rows))
    }
}

/// Print the digests `digests.txt` pins: every registry answer (checked
/// equal with NDP on and off) and every SQL text's answer.
pub fn print_pins() {
    let on = TaurusDb::new(bench_config(true));
    taurus_tpch::load(&on, BENCH_SF, SEED).expect("load TPC-H");
    let off = TaurusDb::new(bench_config(false));
    taurus_tpch::load(&off, BENCH_SF, SEED).expect("load TPC-H");
    println!("# TPC-H SF {BENCH_SF}, data seed {SEED}: name rows order-insensitive-hash");
    for q in taurus_tpch::tpch_queries() {
        let a = digest(&(q.run)(&on, None).expect("run NDP on"));
        let b = digest(&(q.run)(&off, None).expect("run NDP off"));
        assert_eq!(a, b, "{}: NDP on and off disagree", q.name);
        println!("{} {} {:016x}", q.name, a.rows, a.hash);
    }
    let session = Session::new(&on).with_ndp(true);
    for (name, text) in taurus_sql::tpch_sql::all() {
        let d = digest(&session.sql(text).expect("SQL text runs"));
        println!("sql:{name} {} {:016x}", d.rows, d.hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::Value;

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::Null],
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(digest(&a), digest(&b));
        let c = vec![
            vec![Value::Int(1), Value::str("y")],
            vec![Value::Int(2), Value::Null],
        ];
        assert_ne!(digest(&a), digest(&c));
        assert_ne!(digest(&a), digest(&a[..1]));
    }

    #[test]
    fn every_query_is_pinned() {
        let o = Oracle::pinned();
        for q in 1..=22 {
            assert!(o.pinned.contains_key(&format!("Q{q}")), "Q{q} unpinned");
        }
    }
}
