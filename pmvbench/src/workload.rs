//! The measured phase: reader and writer threads for each workload, the
//! answer checks that follow it, and the reopen that checks recovery.
//!
//! Load comes from this one process with two threads. Open-loop writers
//! time each commit from when it was due, so a stall also counts against
//! the commits queued behind it.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmv_core::{EpochDb, ObsRegistry, Phase};
use pmv_query::{Database, QueryInstance, Transaction};
use pmv_storage::{DeltaBatch, RowId, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::setup::{lineitem, with_col, Checksum, ComboRows, Kind, Shadow, World};
use crate::trace::{Spans, ROOT};

/// Open-loop writer rates (commits per second). A commit takes 20-50 ms
/// on the reference host; at 10/s each writer stays under half busy, so
/// host slowdowns do not tip it into a growing backlog, and a 25 s run
/// still holds 250 commits, 25 of them beyond the p90.
const SERVE_HOT_WRITES: f64 = 10.0;
const CHURN_WRITES: f64 = 10.0;

/// Answer checks per run after the measured phase, split over readers.
const CHECKS: usize = 64;

/// Phases of a run, as workers see them.
pub const MEASURE: u8 = 0;
pub const VERIFY: u8 = 1;
pub const STOP: u8 = 2;

/// Shared run control, driven by the main thread. Starts in [`MEASURE`].
#[derive(Default)]
pub struct Ctl {
    pub phase: AtomicU8,
    /// Whether the current slice is traced (engine obs on, spans kept).
    pub traced: AtomicBool,
    /// Readers that finished their checks.
    pub checked: AtomicUsize,
}

impl Ctl {
    fn phase(&self) -> u8 {
        self.phase.load(Relaxed)
    }
}

/// Samples and counts of one slice kind (untraced or traced).
#[derive(Default)]
pub struct Rec {
    pub q_wall_ns: Vec<u64>,
    pub q_ttfr_ns: Vec<u64>,
    pub q_partial_hits: u64,
    pub q_bcp_hits: u64,
    pub q_parts: u64,
    pub q_partial_tuples: u64,
    pub q_rows_examined: u64,
    pub q_exec: u64,
    pub o1_ns: Vec<u64>,
    pub o2_ns: Vec<u64>,
    /// O3 executor time, only for queries that ran it.
    pub exec_ns: Vec<u64>,
    pub overhead_ns: Vec<u64>,
    /// Commit latency (from when due, for open-loop writers).
    pub c_wall_ns: Vec<u64>,
    pub c_apply_ns: Vec<u64>,
    pub c_queue_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Rec {
    pub fn absorb(&mut self, o: Rec) {
        self.q_wall_ns.extend(o.q_wall_ns);
        self.q_ttfr_ns.extend(o.q_ttfr_ns);
        self.q_partial_hits += o.q_partial_hits;
        self.q_bcp_hits += o.q_bcp_hits;
        self.q_parts += o.q_parts;
        self.q_partial_tuples += o.q_partial_tuples;
        self.q_rows_examined += o.q_rows_examined;
        self.q_exec += o.q_exec;
        self.o1_ns.extend(o.o1_ns);
        self.o2_ns.extend(o.o2_ns);
        self.exec_ns.extend(o.exec_ns);
        self.overhead_ns.extend(o.overhead_ns);
        self.c_wall_ns.extend(o.c_wall_ns);
        self.c_apply_ns.extend(o.c_apply_ns);
        self.c_queue_ns.extend(o.c_queue_ns);
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Everything one worker thread produced.
pub struct Outcome {
    /// `[untraced, traced]`.
    pub rec: [Rec; 2],
    pub spans: Spans,
    /// Acknowledged changes, relative to the set-up state.
    pub shadow: Shadow,
    pub mismatches: Vec<String>,
}

/// One load-generating thread.
struct Worker<'w> {
    world: &'w World,
    ctl: &'w Ctl,
    id: u64,
    next_req: u64,
    rng: StdRng,
    rec: [Rec; 2],
    spans: Spans,
    shadow: Shadow,
    mismatches: Vec<String>,
}

impl<'w> Worker<'w> {
    fn new(world: &'w World, ctl: &'w Ctl, id: u64, seed: u64, base: Instant) -> Self {
        Worker {
            world,
            ctl,
            id,
            next_req: 0,
            rng: StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id + 1))),
            rec: Default::default(),
            spans: Spans::new(false, base),
            shadow: Shadow::default(),
            mismatches: Vec::new(),
        }
    }

    fn finish(self) -> Outcome {
        Outcome {
            rec: self.rec,
            spans: self.spans,
            shadow: self.shadow,
            mismatches: self.mismatches,
        }
    }

    fn req(&mut self) -> u64 {
        self.next_req += 1;
        (self.id + 1) << 40 | self.next_req
    }

    /// Which `rec` slot this operation lands in, or `None` outside the
    /// measured phase.
    fn slot(&mut self) -> Option<usize> {
        if self.ctl.phase() != MEASURE {
            return None;
        }
        let traced = self.ctl.traced.load(Relaxed);
        self.spans.set_on(traced);
        Some(traced as usize)
    }

    /// One timed query through `EpochDb::query`.
    fn query(&mut self) {
        let q = self.world.queries.next(&mut self.rng);
        let Some(slot) = self.slot() else { return };
        let req = self.req();
        let t0 = Instant::now();
        let out = self.world.edb.query(&self.world.pmv, &q);
        let t1 = Instant::now();
        let rec = &mut self.rec[slot];
        rec.attempted += 1;
        let o = match out {
            Ok(o) if o.degraded.is_none() => o,
            Ok(_) | Err(_) => {
                rec.failed += 1;
                return;
            }
        };
        if o.ds_leftover != 0 {
            self.mismatches
                .push(format!("query left {} tuples in DS", o.ds_leftover));
        }
        let ns = |d: Duration| d.as_nanos() as u64;
        let tm = o.timings;
        rec.q_wall_ns.push(ns(t1 - t0));
        rec.q_ttfr_ns.push(ns(tm.o1 + tm.o2));
        rec.q_partial_hits += u64::from(!o.partial.is_empty());
        rec.q_bcp_hits += u64::from(o.bcp_hit);
        rec.q_parts += o.parts as u64;
        rec.q_partial_tuples += o.partial.len() as u64;
        rec.q_rows_examined += o.exec_stats.tuples_examined as u64;
        rec.o1_ns.push(ns(tm.o1));
        rec.o2_ns.push(ns(tm.o2));
        rec.overhead_ns.push(ns(tm.o3_overhead));
        if tm.exec > Duration::ZERO {
            rec.q_exec += 1;
            rec.exec_ns.push(ns(tm.exec));
        }
        // The pipeline's phases run one after another; their durations
        // are exact, their placement inside the query span is not.
        let root = self.spans.record("query", ROOT, req, t0, t1);
        let mut at = t0;
        for (name, d) in [
            ("o1", tm.o1),
            ("o2", tm.o2),
            ("o3.exec", tm.exec),
            ("o3.overhead", tm.o3_overhead),
        ] {
            self.spans.record(name, root, req, at, at + d);
            at += d;
        }
    }

    /// One commit through `EpochDb::commit`, timed from `due`. The
    /// closure's own runtime is the `commit.apply` span, and the time
    /// before it started is the `commit.queue` span.
    fn commit<R: Send + 'static>(
        &mut self,
        due: Instant,
        f: impl FnOnce(&mut Transaction<'_>) -> pmv_core::Result<R> + Send + 'static,
    ) -> Option<R> {
        let slot = self.slot();
        let t0 = Instant::now();
        let out = self
            .world
            .edb
            .commit(&[&self.world.pmv], move |db: &mut Database| {
                let a0 = Instant::now();
                let mut txn = Transaction::begin(db);
                let r = f(&mut txn)?;
                let batches: Vec<DeltaBatch> = txn.commit();
                Ok(((r, a0, Instant::now()), batches))
            });
        let t1 = Instant::now();
        let Some(slot) = slot else {
            return out.ok().map(|(r, _, _)| r);
        };
        let rec = &mut self.rec[slot];
        rec.attempted += 1;
        let Ok((r, a0, a1)) = out else {
            rec.failed += 1;
            return None;
        };
        let ns = |d: Duration| d.as_nanos() as u64;
        rec.c_wall_ns.push(ns(t1.saturating_duration_since(due)));
        rec.c_apply_ns.push(ns(a1 - a0));
        rec.c_queue_ns.push(ns(a0.saturating_duration_since(t0)));
        let req = self.req();
        let root = self.spans.record("commit", ROOT, req, t0, t1);
        self.spans.record("commit.queue", root, req, t0, a0);
        self.spans.record("commit.apply", root, req, a0, a1);
        Some(r)
    }

    /// Run one query with `SharedPmv::run_pinned` and with the plain
    /// executor on the same pinned snapshot; their answers must agree.
    fn check(&mut self) {
        let q = self.world.queries.next(&mut self.rng);
        if let Err(e) = check_answer(self.world, &q) {
            self.mismatches.push(e);
        }
    }
}

/// Compare the PMV path against `pmv_query::execute` on one pin.
fn check_answer(world: &World, q: &QueryInstance) -> Result<(), String> {
    let snap = world.edb.pin();
    let served = world
        .pmv
        .run_pinned(&*snap, q)
        .map_err(|e| format!("check query failed: {e}"))?;
    let (truth, _) = pmv_query::execute(&*snap, q).map_err(|e| format!("oracle failed: {e}"))?;
    if served.degraded.is_some() {
        return Err("check query degraded".to_string());
    }
    if served.ds_leftover != 0 {
        return Err(format!(
            "check query left {} tuples in DS",
            served.ds_leftover
        ));
    }
    if !same_multiset(served.all_results(), truth) {
        return Err("PMV answer differs from the plain executor's".to_string());
    }
    Ok(())
}

/// Multiset equality of two answers.
fn same_multiset(mut a: Vec<Tuple>, mut b: Vec<Tuple>) -> bool {
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// Sleep until `due` or until the run stops; false when stopped.
fn wait_until(ctl: &Ctl, due: Instant) -> bool {
    loop {
        if ctl.phase() == STOP {
            return false;
        }
        let now = Instant::now();
        if now >= due {
            return true;
        }
        std::thread::sleep((due - now).min(Duration::from_millis(20)));
    }
}

/// Run the workload's threads while `control` (on this thread) steps
/// the phases through to [`STOP`]; returns each worker's results and
/// what `control` returned.
pub fn run<'w, C>(
    kind: Kind,
    world: &'w mut World,
    ctl: &'w Ctl,
    seed: u64,
    base: Instant,
    control: impl FnOnce(&World) -> C,
) -> (Vec<Outcome>, C) {
    let mut combo_rows = std::mem::take(&mut world.combo_rows);
    let cold = std::mem::take(&mut world.cold_rows);
    let world: &'w World = world;
    std::thread::scope(|s| {
        let handles = match kind {
            Kind::ServeHot | Kind::ChurnSpill => {
                let reader = s.spawn(move || {
                    let mut w = Worker::new(world, ctl, 0, seed, base);
                    while ctl.phase() == MEASURE {
                        w.query();
                    }
                    for _ in 0..CHECKS {
                        w.check();
                    }
                    ctl.checked.fetch_add(1, Relaxed);
                    w
                });
                let writer = s.spawn(move || {
                    let mut w = Worker::new(world, ctl, 1, seed, base);
                    if kind == Kind::ServeHot {
                        open_loop(ctl, SERVE_HOT_WRITES, |due| hot_insert(&mut w, due));
                    } else {
                        open_loop(ctl, CHURN_WRITES, |due| churn(&mut w, &mut combo_rows, due));
                    }
                    w
                });
                vec![reader, writer]
            }
            Kind::CommitDurable => {
                // Each thread deletes only rows from its own half of the
                // cold pool (and the rows it inserted), so no row is
                // deleted twice.
                let (even, odd): (Vec<_>, Vec<_>) =
                    cold.iter().enumerate().partition(|(i, _)| i % 2 == 0);
                [even, odd]
                    .into_iter()
                    .enumerate()
                    .map(|(id, pool)| {
                        let mut pool: Vec<RowId> = pool.into_iter().map(|(_, r)| *r).collect();
                        s.spawn(move || {
                            let mut w = Worker::new(world, ctl, id as u64, seed, base);
                            while ctl.phase() == MEASURE {
                                w.query();
                                cold_write(&mut w, &mut pool);
                            }
                            for _ in 0..CHECKS / 2 {
                                w.check();
                                cold_write(&mut w, &mut pool);
                            }
                            ctl.checked.fetch_add(1, Relaxed);
                            w
                        })
                    })
                    .collect()
            }
        };
        let c = control(world);
        let workers = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked").finish())
            .collect();
        (workers, c)
    })
}

/// Call `op(due)` at `rate` per second until the run stops.
fn open_loop(ctl: &Ctl, rate: f64, mut op: impl FnMut(Instant)) {
    let start = Instant::now();
    for k in 0u64.. {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        if !wait_until(ctl, due) {
            return;
        }
        op(due);
    }
}

/// `serve_hot` write: insert one lineitem row for a random order and
/// supplier.
fn hot_insert(w: &mut Worker<'_>, due: Instant) {
    let n_orders = w.world.order_date.len() as i64;
    let t = lineitem(
        w.rng.gen_range(1..=n_orders),
        w.rng.gen_range(1..=w.world.n_supp),
        &mut w.rng,
    );
    let ins = t.clone();
    if w.commit(due, move |txn| Ok(txn.insert("lineitem", ins)?))
        .is_some()
    {
        w.shadow.lineitem.add(&t);
    }
}

/// `churn_spill` write: on a Zipf-drawn combo (the readers' skew, so
/// usually a resident bcp), delete one of its lineitem rows and insert
/// it back with a new quantity, and update its order's total price.
/// Cardinality stays flat.
fn churn(w: &mut Worker<'_>, combo_rows: &mut [ComboRows], due: Instant) {
    let rank = w.world.queries.rank(&mut w.rng);
    let rows = &mut combo_rows[rank];
    let i = w.rng.gen_range(0..rows.len());
    let (row, orderkey) = rows[i];
    let order_row = w.world.order_row[orderkey as usize - 1];
    let qty = w.rng.gen_range(1..=50);
    let price = w.rng.gen_range(1_000..500_000);
    let done = w.commit(due, move |txn| {
        let old = txn.delete("lineitem", row)?;
        let new = with_col(&old, 2, qty);
        let new_row = txn.insert("lineitem", new.clone())?;
        let o_old = txn.get("orders", order_row)?;
        let o_new = with_col(&o_old, 3, price);
        txn.update("orders", order_row, o_new.clone())?;
        Ok((old, new, new_row, o_old, o_new))
    });
    if let Some((old, new, new_row, o_old, o_new)) = done {
        rows[i] = (new_row, orderkey);
        w.shadow.lineitem.remove(&old);
        w.shadow.lineitem.add(&new);
        w.shadow.orders.remove(&o_old);
        w.shadow.orders.add(&o_new);
    }
}

/// `commit_durable` write: insert or delete (50/50) one lineitem row
/// outside the hot combos.
fn cold_write(w: &mut Worker<'_>, pool: &mut Vec<RowId>) {
    let now = Instant::now();
    if w.rng.gen_bool(0.5) && !pool.is_empty() {
        let row = pool.swap_remove(w.rng.gen_range(0..pool.len()));
        if let Some(old) = w.commit(now, move |txn| Ok(txn.delete("lineitem", row)?)) {
            w.shadow.lineitem.remove(&old);
        }
        return;
    }
    let n_orders = w.world.order_date.len() as i64;
    let (orderkey, supp) = loop {
        let ok = w.rng.gen_range(1..=n_orders);
        let s = w.rng.gen_range(1..=w.world.n_supp);
        if !w
            .world
            .hot
            .contains(&(w.world.order_date[ok as usize - 1], s))
        {
            break (ok, s);
        }
    };
    let t = lineitem(orderkey, supp, &mut w.rng);
    let ins = t.clone();
    if let Some(row) = w.commit(now, move |txn| Ok(txn.insert("lineitem", ins)?)) {
        pool.push(row);
        w.shadow.lineitem.add(&t);
    }
}

/// What the reopens found.
pub struct Recovery {
    pub secs: Vec<f64>,
    pub replayed_records: u64,
    /// WAL replay time of one reopen, from the `recovery_replay` phase.
    pub replay_ns: u64,
}

/// Reopen `dir` `reopens` times; each recovered state must match
/// `shadow`, and each reopen must replay all `rounds` WAL records.
pub fn recover(
    dir: &Path,
    reopens: usize,
    shadow: &Shadow,
    rounds: u64,
    obs: bool,
    spans: &mut Spans,
) -> Result<Recovery, String> {
    let mut out = Recovery {
        secs: Vec::new(),
        replayed_records: 0,
        replay_ns: 0,
    };
    for _ in 0..reopens {
        let reg = Arc::new(ObsRegistry::new());
        reg.set_enabled(obs);
        let t0 = Instant::now();
        let (edb, _) = EpochDb::open_durable(dir, Arc::clone(&reg))
            .map_err(|e| format!("reopen failed: {e}"))?;
        out.secs
            .push(spans.close_child("recovery.open", ROOT, 0, t0));
        let info = edb
            .durability()
            .expect("opened durable")
            .recovery_info()
            .clone();
        out.replayed_records = info.replayed_records;
        out.replay_ns = reg.snapshot(Phase::recovery_replay).sum_ns();
        if info.replayed_records != rounds {
            return Err(format!(
                "recovery replayed {} WAL records, {rounds} commit rounds were acknowledged",
                info.replayed_records
            ));
        }
        let snap = edb.pin();
        for (name, want) in [("lineitem", shadow.lineitem), ("orders", shadow.orders)] {
            let got = Checksum::of(&*snap, name);
            if got != want {
                return Err(format!(
                    "recovered {name}: {} rows / checksum {:x}, shadow of acked commits: {} / {:x}",
                    got.rows, got.hash, want.rows, want.hash
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::Value;

    fn t(v: &[i64]) -> Tuple {
        Tuple::new(v.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>())
    }

    #[test]
    fn comparator_flags_a_wrong_multiset() {
        let truth = vec![t(&[1, 2]), t(&[1, 2]), t(&[3, 4])];
        assert!(same_multiset(
            vec![t(&[3, 4]), t(&[1, 2]), t(&[1, 2])],
            truth.clone()
        ));
        // Same set, wrong multiplicity.
        assert!(!same_multiset(
            vec![t(&[1, 2]), t(&[3, 4]), t(&[3, 4])],
            truth.clone()
        ));
        // A missing tuple.
        assert!(!same_multiset(vec![t(&[1, 2]), t(&[3, 4])], truth.clone()));
        // An extra tuple.
        let mut extra = truth.clone();
        extra.push(t(&[5, 6]));
        assert!(!same_multiset(extra, truth));
    }
}
