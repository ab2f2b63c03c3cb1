//! Metric arithmetic, the engine counters read around the measured
//! phase, the per-layer table with its attribution rows, and the host
//! stamp.

use std::path::Path;

use pmv_core::{HistSnapshot, Phase, PmvStats};

use crate::setup::{Kind, SetupTimes, World};
use crate::trace::{layers, Span};
use crate::workload::{Rec, Recovery};

/// Named metrics in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics {
    pub list: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; an empty ratio reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.list.push((name, value, unit));
    }

    /// Percentile `q` of nanosecond samples, in microseconds. Warns on
    /// stderr when fewer than ten samples lie beyond it.
    pub fn push_pct(&mut self, name: &'static str, ns: &[u64], q: f64) {
        let (v, beyond) = percentile(ns, q);
        if beyond < 10 {
            eprintln!(
                "pmvbench: note: {name} has {beyond} samples beyond it (of {}); \
                 lengthen the run for a steady value",
                ns.len()
            );
        }
        self.push(name, v as f64 / 1e3, "us");
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .list
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Nearest-rank percentile of `samples` and how many samples lie above
/// its rank; `(0, 0)` when empty.
pub fn percentile(samples: &[u64], q: f64) -> (u64, usize) {
    if samples.is_empty() {
        return (0, 0);
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Median of seconds (or any floats); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn us(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn p50_us(ns: &[u64]) -> f64 {
    percentile(ns, 0.5).0 as f64 / 1e3
}

/// Engine counters read from public getters before and after the
/// measured phase.
pub struct Counters {
    stats: PmvStats,
    commits: u64,
    combines: u64,
    snap_reused: u64,
    snap_recaptured: u64,
    evictions: u64,
    pin_hits: u64,
    pin_misses: u64,
    wal_bytes: u64,
    resident_bytes: u64,
}

impl Counters {
    pub fn read(w: &World) -> Counters {
        let (commits, combines) = w.edb.commit_counts();
        let snap = w.edb.snap_stats();
        let (pin_hits, pin_misses) = w.edb.pin_cache_counts();
        Counters {
            stats: w.pmv.stats(),
            commits,
            combines,
            snap_reused: snap.reused,
            snap_recaptured: snap.recaptured,
            evictions: w.pmv.evictions(),
            pin_hits,
            pin_misses,
            // No checkpoint runs during the measured phase, so the
            // active segment holds every record it appended.
            wal_bytes: w.edb.durability().map_or(0, |d| d.active_segment_bytes()),
            resident_bytes: w.pmv.byte_size() as u64,
        }
    }
}

/// Engine phase histograms at the end of the measured phase (recorded
/// in traced slices only).
pub struct Phases {
    epoch_pin: HistSnapshot,
    maint: HistSnapshot,
    drain: HistSnapshot,
    publish: HistSnapshot,
    wal_append: HistSnapshot,
    wal_fsync: HistSnapshot,
}

impl Phases {
    pub fn read(w: &World) -> Phases {
        let serve = w.pmv.obs();
        let commit = w.edb.obs();
        Phases {
            epoch_pin: serve.snapshot(Phase::epoch_pin),
            maint: serve.snapshot(Phase::maint_join),
            drain: commit.snapshot(Phase::commit_drain),
            publish: commit.snapshot(Phase::snapshot_publish),
            wal_append: commit.snapshot(Phase::wal_append),
            wal_fsync: commit.snapshot(Phase::wal_fsync),
        }
    }
}

pub struct LayerInput<'a> {
    pub setup: &'a [SetupTimes],
    /// Untraced and traced slices of the measured phase.
    pub off: &'a Rec,
    pub on: &'a Rec,
    pub spans: &'a [Span],
    pub before: &'a Counters,
    pub after: &'a Counters,
    pub phases: &'a Phases,
    pub recovery: &'a Recovery,
}

/// The per-layer table (README.md maps each row to the end-to-end metric
/// and workload it should move), plus the attribution rows: total and
/// self time per span name and the engine phases that explain self time.
pub fn per_layer(x: &LayerInput<'_>) -> (Metrics, Vec<String>) {
    let (on, b, a, p) = (x.on, x.before, x.after, x.phases);
    let setup = |f: fn(&SetupTimes) -> f64| median(&x.setup.iter().map(f).collect::<Vec<_>>());
    let nq = on.q_wall_ns.len() as u64;
    let st = |f: fn(&PmvStats) -> u64| f(&a.stats) - f(&b.stats);
    let queries = st(|s| s.queries);
    let touched = st(|s| s.maint_join_rows) + st(|s| s.maint_index_removals);
    let heavy = st(|s| s.maint_heavy_deltas);
    let routed = heavy + st(|s| s.maint_light_deltas);
    let commits = a.commits - b.commits;
    let batch_mean = ratio(commits, a.combines - b.combines);
    let on_commits = on.c_wall_ns.len() as u64;

    let mut m = Metrics::default();
    m.push("setup.generate_s", setup(|t| t.generate), "s");
    m.push("setup.index_s", setup(|t| t.index), "s");
    m.push("setup.warm_s", setup(|t| t.warm), "s");
    m.push("o1.decompose_us_p50", p50_us(&on.o1_ns), "us");
    m.push("o1.parts_per_query", ratio(on.q_parts, nq), "count");
    m.push("o2.probe_us_p50", p50_us(&on.o2_ns), "us");
    m.push(
        "o2.partial_tuples_per_query",
        ratio(on.q_partial_tuples, nq),
        "count",
    );
    m.push("cache.bcp_hit_rate", ratio(on.q_bcp_hits, nq), "share");
    m.push(
        "cache.evictions_per_query",
        ratio(a.evictions - b.evictions, queries),
        "count",
    );
    m.push("cache.resident_bytes", a.resident_bytes as f64, "bytes");
    m.push("o3.exec_us_p50", p50_us(&on.exec_ns), "us");
    m.push(
        "o3.rows_examined_per_query",
        ratio(on.q_rows_examined, nq),
        "count",
    );
    m.push("o3.full_exec_share", ratio(on.q_exec, nq), "share");
    m.push("o3.overhead_us_p50", p50_us(&on.overhead_ns), "us");
    m.push(
        "maint.rows_touched_per_delta",
        ratio(touched, routed),
        "count",
    );
    m.push("maint.heavy_share", ratio(heavy, routed), "share");
    m.push("maint.us_p50", us(p.maint.quantile(0.5)), "us");
    m.push(
        "upquery.per_query",
        ratio(st(|s| s.upqueries), queries),
        "count",
    );
    m.push(
        "upquery.rows_per_query",
        ratio(st(|s| s.upquery_rows), queries),
        "count",
    );
    m.push("epoch.pin_us_p50", us(p.epoch_pin.quantile(0.5)), "us");
    let pin_hits = a.pin_hits - b.pin_hits;
    m.push(
        "epoch.pin_cache_hit_rate",
        ratio(pin_hits, pin_hits + a.pin_misses - b.pin_misses),
        "share",
    );
    m.push("commit.apply_us_p50", p50_us(&on.c_apply_ns), "us");
    m.push("commit.queue_wait_us_p50", p50_us(&on.c_queue_ns), "us");
    m.push("commit.drain_us_p50", us(p.drain.quantile(0.5)), "us");
    m.push("commit.batch_size_mean", batch_mean, "count");
    m.push("snapshot.publish_us_p50", us(p.publish.quantile(0.5)), "us");
    let reused = a.snap_reused - b.snap_reused;
    m.push(
        "snapshot.reuse_ratio",
        ratio(reused, reused + a.snap_recaptured - b.snap_recaptured),
        "share",
    );
    m.push("wal.append_us_p50", us(p.wal_append.quantile(0.5)), "us");
    m.push("wal.fsync_us_p50", us(p.wal_fsync.quantile(0.5)), "us");
    m.push(
        "wal.bytes_per_commit",
        ratio(a.wal_bytes - b.wal_bytes, commits),
        "bytes",
    );
    m.push(
        "wal.fsyncs_per_commit",
        ratio(p.wal_fsync.count(), on_commits),
        "count",
    );
    m.push("ckpt.write_s", setup(|t| t.checkpoint), "s");
    let r = x.recovery;
    m.push(
        "recovery.replayed_records",
        r.replayed_records as f64,
        "count",
    );
    m.push(
        "recovery.records_per_s",
        r.replayed_records as f64 / (r.replay_ns as f64 / 1e9),
        "1/s",
    );

    // Attribution: the share of traced wall time no layer explains, from
    // sums rather than medians so the rows add up exactly. A query span's
    // self time is what o1/o2/o3 leave uncovered; the engine's epoch pin
    // explains part of it. A commit span's self time is what follows its
    // own apply: every request in a combine round waits for the round's
    // WAL write, maintenance and publish, so those per-round sums count
    // once per request in the round (scaled by the mean batch size).
    let l = layers(x.spans);
    let layer = |name: &str| l.get(name).copied().unwrap_or_default();
    let (q, c) = (layer("query"), layer("commit"));
    let pin = p.epoch_pin.sum_ns() as f64;
    let per_round = batch_mean
        * (p.wal_append.sum_ns() + p.wal_fsync.sum_ns() + p.maint.sum_ns() + p.publish.sum_ns())
            as f64;
    m.push(
        "query.unattributed_share",
        (q.self_ns as f64 - pin) / q.total_ns as f64,
        "share",
    );
    m.push(
        "commit.unattributed_share",
        (c.self_ns as f64 - per_round) / c.total_ns as f64,
        "share",
    );
    let ms = |ns: f64| ns / 1e6;
    let mut rows: Vec<String> = l
        .iter()
        .map(|(name, v)| {
            format!(
                "layer {name} count={} total_ms={:.3} self_ms={:.3}",
                v.count,
                ms(v.total_ns as f64),
                ms(v.self_ns as f64)
            )
        })
        .collect();
    rows.push(format!(
        "layer engine.epoch_pin count={} total_ms={:.3} (explains query self time)",
        p.epoch_pin.count(),
        ms(pin)
    ));
    rows.push(format!(
        "layer engine.commit_round total_ms={:.3} (wal_append + wal_fsync + maint_join + \
         snapshot_publish, x{batch_mean:.3} requests per round; explains commit self time)",
        ms(per_round)
    ));
    let untraced = percentile(&x.off.q_wall_ns, 0.5).0 as f64;
    let traced = percentile(&on.q_wall_ns, 0.5).0 as f64;
    m.push("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
    (m, rows)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host stamp as a JSON object: cores, RAM, the data directory's
/// filesystem and device, kernel, seed, and whether engine
/// observability is on.
pub fn host_stamp(out: &Path, kind: Kind, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let ram_mb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb / 1024);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let (fs, device) = mount_of(out);
    format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"obs\":\"{}\",\"nproc\":{nproc},\"ram_mb\":{ram_mb},\
         \"fs\":\"{fs}\",\"device\":\"{device}\",\"kernel\":\"{kernel}\"}}",
        kind.name(),
        if trace { "on" } else { "off" },
    )
}

/// `(fstype, device)` of the mount holding `path`: the longest matching
/// mount point in `/proc/mounts`.
fn mount_of(path: &Path) -> (String, String) {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String, String)> = None;
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 || !path.starts_with(f[1]) {
            continue;
        }
        if best.as_ref().is_none_or(|(len, _, _)| f[1].len() > *len) {
            best = Some((f[1].len(), f[2].to_string(), f[0].to_string()));
        }
    }
    best.map_or_else(
        || ("unknown".to_string(), "unknown".to_string()),
        |(_, fs, dev)| (fs, dev),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_the_tail() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), (50, 50));
        assert_eq!(percentile(&v, 0.9), (90, 10));
        assert_eq!(percentile(&v, 0.99), (99, 1));
        assert_eq!(percentile(&[], 0.5), (0, 0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn non_finite_values_print_as_zero() {
        let mut m = Metrics::default();
        m.push("x", f64::NAN, "s");
        assert_eq!(m.to_json(), "{\"x\": {\"value\": 0, \"unit\": \"s\"}}");
    }
}
