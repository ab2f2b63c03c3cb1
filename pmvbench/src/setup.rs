//! Set-up: TPC-R generation into a durable data directory, index build,
//! view registration, warm-up and the first checkpoint — everything
//! `setup_s` times — plus the benchmark's own bookkeeping (query combos,
//! writable row pools, the checksum shadow), which it does not time.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pmv_cache::PolicyKind;
use pmv_core::{EpochDb, ObsRegistry, PartialViewDef, PmvConfig, SharedPmv};
use pmv_query::{DataView, QueryInstance, QueryTemplate};
use pmv_storage::{RowId, Tuple, Value};
use pmv_workload::tpcr::{supplier_count, NUM_DATES};
use pmv_workload::{generate, standard_indexes, t1_query, t2_query, TpcrConfig, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Spans;

/// The three workloads (README.md says why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ServeHot,
    ChurnSpill,
    CommitDurable,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ServeHot, Kind::ChurnSpill, Kind::CommitDurable];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeHot => "serve_hot",
            Kind::ChurnSpill => "churn_spill",
            Kind::CommitDurable => "commit_durable",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// T2 drives `churn_spill`; the other two serve T1.
    fn uses_t2(self) -> bool {
        self == Kind::ChurnSpill
    }

    /// `(F, L)` of the workload's view.
    fn capacity(self) -> (usize, usize) {
        match self {
            Kind::ChurnSpill => (32, 1024),
            _ => (32, 4096),
        }
    }

    /// Zipf skew of the combo a query (and a churn write) is drawn from;
    /// `None` draws uniformly. `commit_durable` reads uniformly from the
    /// hot set: its reads only need to stay resident, and a skew would
    /// tie its read costs to the few combos a seed ranks first.
    fn alpha(self) -> Option<f64> {
        match self {
            Kind::ServeHot => Some(1.1),
            Kind::ChurnSpill => Some(0.8),
            Kind::CommitDurable => None,
        }
    }
}

/// Data and query sizes. `full` is the benchmark proper; `tiny` only
/// checks that every metric is printed.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// TPC-R scale factor: 0.02 is 3k customers, 30k orders, 120k
    /// lineitems.
    pub scale: f64,
    /// Distinct combos queries are drawn from.
    pub combos_t1: usize,
    pub combos_t2: usize,
    /// Queries run by the warm-up, through the workload's own generator.
    pub warm_queries: usize,
}

impl Size {
    pub fn full() -> Size {
        Size {
            scale: 0.02,
            combos_t1: 500,
            combos_t2: 20_000,
            warm_queries: 3_000,
        }
    }

    pub fn tiny() -> Size {
        Size {
            scale: 0.001,
            combos_t1: 50,
            combos_t2: 200,
            warm_queries: 100,
        }
    }
}

/// Suppliers per order date: concentrates each date's lineitems on a few
/// suppliers so the drawn combos hold result tuples (about 12 per T1 bcp,
/// under F = 32, so whole slices fit in the view).
const DATE_SUPPLIER_POOL: usize = 4;

/// A `(date, supplier, nation)` combo; nation is 0 for T1.
type Combo = (i64, i64, i64);

/// Lineitem rows of a combo, each with its orderkey.
pub type ComboRows = Vec<(RowId, i64)>;

/// Count and order-independent hash sum of a relation's tuples: the
/// shadow that the recovered state is checked against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checksum {
    pub rows: i64,
    pub hash: u64,
}

impl Checksum {
    pub fn add(&mut self, t: &Tuple) {
        self.rows += 1;
        self.hash = self.hash.wrapping_add(tuple_hash(t));
    }

    pub fn remove(&mut self, t: &Tuple) {
        self.rows -= 1;
        self.hash = self.hash.wrapping_sub(tuple_hash(t));
    }

    pub fn merge(&mut self, other: &Checksum) {
        self.rows += other.rows;
        self.hash = self.hash.wrapping_add(other.hash);
    }

    /// Checksum of `relation` as stored in `view`.
    pub fn of<V: DataView>(view: &V, relation: &str) -> Checksum {
        let rel = view
            .relation_version(relation)
            .expect("TPC-R relation exists");
        let mut c = Checksum::default();
        for (_, t) in rel.iter() {
            c.add(t);
        }
        c
    }
}

/// `DefaultHasher::new` has fixed keys, so the hash is the same in every
/// process of one build — the shadow and the recovered scan agree.
fn tuple_hash(t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Shadow of the acknowledged state of the two relations writes touch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Shadow {
    pub lineitem: Checksum,
    pub orders: Checksum,
}

impl Shadow {
    pub fn merge(&mut self, other: &Shadow) {
        self.lineitem.merge(&other.lineitem);
        self.orders.merge(&other.orders);
    }
}

/// Draws the workload's queries: a Zipf-ranked combo plus, for each
/// multi-valued condition, a second value distinct from the combo's
/// (`bind` rejects duplicate equality values).
pub struct QueryGen {
    template: Arc<QueryTemplate>,
    zipf: Option<Zipf>,
    /// `(date, supp, nation)`; nation unused by T1.
    combos: Arc<Vec<Combo>>,
    t2: bool,
    n_supp: i64,
}

impl QueryGen {
    pub fn next(&self, rng: &mut StdRng) -> QueryInstance {
        let (d, s, n) = self.combos[self.rank(rng)];
        let d2 = other_than(rng, NUM_DATES, d, 0);
        if self.t2 {
            t2_query(&self.template, &[d, d2], &[s], &[n]).expect("distinct values bind")
        } else {
            let s2 = other_than(rng, self.n_supp, s, 1);
            t1_query(&self.template, &[d, d2], &[s, s2]).expect("distinct values bind")
        }
    }

    /// Index of the next combo (churn writes reuse the readers' skew).
    pub fn rank(&self, rng: &mut StdRng) -> usize {
        match &self.zipf {
            Some(z) => z.sample(rng),
            None => rng.gen_range(0..self.combos.len()),
        }
    }
}

/// A value in `base..base+domain` other than `not`.
fn other_than(rng: &mut StdRng, domain: i64, not: i64, base: i64) -> i64 {
    loop {
        let v = rng.gen_range(base..base + domain);
        if v != not {
            return v;
        }
    }
}

/// One set-up instance, ready to serve.
pub struct World {
    pub edb: EpochDb,
    pub pmv: SharedPmv,
    pub queries: QueryGen,
    pub n_supp: i64,
    /// `orderdate` and orders `RowId` by `orderkey - 1`.
    pub order_date: Vec<i64>,
    pub order_row: Vec<RowId>,
    /// Lineitem rows and their orderkeys per combo, index-aligned with
    /// the query combos (`churn_spill` writes).
    pub combo_rows: Vec<ComboRows>,
    /// Lineitem rows outside every hot combo (`commit_durable` deletes).
    pub cold_rows: Vec<RowId>,
    /// T1 combos the workload queries, to keep `commit_durable` writes
    /// outside them.
    pub hot: HashSet<(i64, i64)>,
    pub shadow: Shadow,
}

/// Seconds spent in each timed set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub index: f64,
    pub warm: f64,
    pub checkpoint: f64,
    pub total: f64,
}

/// Build a fresh instance in `dir` (removed first), with engine
/// observability off. Timed steps are recorded as spans under one
/// `setup` root.
pub fn build(
    kind: Kind,
    size: Size,
    seed: u64,
    dir: &Path,
    spans: &mut Spans,
) -> (World, SetupTimes) {
    let _ = std::fs::remove_dir_all(dir);
    let mut times = SetupTimes::default();
    let t_setup = Instant::now();
    let root = spans.open("setup", None, 0, t_setup);
    let registry = Arc::new(ObsRegistry::new());
    registry.set_enabled(false);
    let (edb, _) = EpochDb::open_durable(dir, registry).expect("open a fresh data directory");

    let t = Instant::now();
    let cfg = TpcrConfig {
        scale: size.scale,
        seed,
        // Unpadded: see README.md ("No padding").
        pad: false,
        date_supplier_pool: Some(DATE_SUPPLIER_POOL),
    };
    edb.with_write(|db| generate(db, &cfg))
        .expect("TPC-R generation");
    times.generate = spans.close_child("setup.generate", root, 0, t);

    let t = Instant::now();
    edb.with_write(standard_indexes).expect("index build");
    times.index = spans.close_child("setup.index", root, 0, t);

    // Untimed bookkeeping: the benchmark's view of the data, not the
    // engine's set-up work.
    let mut book = Book::scan(&edb, kind, size, seed);

    let t = Instant::now();
    let template = {
        let db = edb.read();
        if kind.uses_t2() {
            pmv_workload::template_t2(&db)
        } else {
            pmv_workload::template_t1(&db)
        }
        .expect("template over the TPC-R relations")
    };
    let def = PartialViewDef::all_equality(kind.name(), Arc::clone(&template))
        .expect("equality view definition");
    let (f, l) = kind.capacity();
    let pmv = SharedPmv::with_shards(def, PmvConfig::new(f, l, PolicyKind::Clock), 4);
    pmv.set_obs_enabled(false);
    let queries = QueryGen {
        template,
        zipf: kind.alpha().map(|a| Zipf::new(book.combos.len(), a)),
        combos: Arc::new(std::mem::take(&mut book.combos)),
        t2: kind.uses_t2(),
        n_supp: book.n_supp,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5741_524d);
    for _ in 0..size.warm_queries {
        edb.query(&pmv, &queries.next(&mut rng))
            .expect("warm-up query");
    }
    times.warm = spans.close_child("setup.warm", root, 0, t);

    let t = Instant::now();
    edb.checkpoint(Vec::new()).expect("first checkpoint");
    times.checkpoint = spans.close_child("setup.checkpoint", root, 0, t);
    times.total = spans.close(root, t_setup);

    let world = World {
        edb,
        pmv,
        queries,
        n_supp: book.n_supp,
        order_date: book.order_date,
        order_row: book.order_row,
        combo_rows: book.combo_rows,
        cold_rows: book.cold_rows,
        hot: book.hot,
        shadow: book.shadow,
    };
    (world, times)
}

/// What the benchmark knows about the generated data.
struct Book {
    n_supp: i64,
    order_date: Vec<i64>,
    order_row: Vec<RowId>,
    combos: Vec<Combo>,
    combo_rows: Vec<ComboRows>,
    cold_rows: Vec<RowId>,
    hot: HashSet<(i64, i64)>,
    shadow: Shadow,
}

impl Book {
    fn scan(edb: &EpochDb, kind: Kind, size: Size, seed: u64) -> Book {
        let snap = edb.pin();
        let rel = |name: &str| snap.relation_version(name).expect("TPC-R relation");
        let int = |t: &Tuple, i: usize| t.get(i).as_int().expect("integer column");

        let customers = rel("customer");
        let mut nation = vec![0i64; customers.len() + 1];
        for (_, t) in customers.iter() {
            nation[int(t, 0) as usize] = int(t, 1);
        }
        let orders = rel("orders");
        let mut order_date = vec![0i64; orders.len()];
        let mut order_cust = vec![0i64; orders.len()];
        let mut order_row = vec![RowId(0); orders.len()];
        for (row, t) in orders.iter() {
            let k = int(t, 0) as usize - 1;
            order_date[k] = int(t, 2);
            order_cust[k] = int(t, 1);
            order_row[k] = row;
        }
        // BTreeMap: combo order, hence the sample, depends on the seed only.
        let mut by_combo: BTreeMap<Combo, ComboRows> = BTreeMap::new();
        let lineitems = rel("lineitem");
        for (row, t) in lineitems.iter() {
            let k = int(t, 0) as usize - 1;
            let n = if kind.uses_t2() {
                nation[order_cust[k] as usize]
            } else {
                0
            };
            by_combo
                .entry((order_date[k], int(t, 1), n))
                .or_default()
                .push((row, k as i64 + 1));
        }
        let want = if kind.uses_t2() {
            size.combos_t2
        } else {
            size.combos_t1
        };
        let mut all: Vec<(Combo, ComboRows)> = by_combo.into_iter().collect();
        // Sample among combos of typical size (within a fifth of the
        // median), so a seed changes which combos are hot but hardly how
        // much work a hot combo is: the top Zipf ranks take most queries.
        let mut sizes: Vec<usize> = all.iter().map(|(_, rows)| rows.len()).collect();
        sizes.sort_unstable();
        let typical = sizes[sizes.len() / 2];
        all.sort_by_key(|(_, rows)| rows.len().abs_diff(typical) * 5 > typical);
        let candidates =
            all.partition_point(|(_, rows)| rows.len().abs_diff(typical) * 5 <= typical);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0B0);
        // Partial Fisher-Yates: the first `want` entries are the sample.
        let want = want.min(candidates);
        for i in 0..want {
            let j = rng.gen_range(i..candidates);
            all.swap(i, j);
        }
        let sampled = &all[..want];
        let hot: HashSet<(i64, i64)> = if kind.uses_t2() {
            HashSet::new()
        } else {
            sampled.iter().map(|((d, s, _), _)| (*d, *s)).collect()
        };
        let cold_rows = if kind == Kind::CommitDurable {
            all[want..]
                .iter()
                .flat_map(|(_, rows)| rows.iter().map(|(row, _)| *row))
                .collect()
        } else {
            Vec::new()
        };
        Book {
            n_supp: supplier_count(size.scale),
            order_date,
            order_row,
            combos: sampled.iter().map(|(c, _)| *c).collect(),
            combo_rows: sampled.iter().map(|(_, rows)| rows.clone()).collect(),
            cold_rows,
            hot,
            shadow: Shadow {
                lineitem: Checksum::of(&*snap, "lineitem"),
                orders: Checksum::of(&*snap, "orders"),
            },
        }
    }
}

/// A new lineitem tuple laid out as the generator makes them (unpadded).
pub fn lineitem(orderkey: i64, suppkey: i64, rng: &mut StdRng) -> Tuple {
    Tuple::new(vec![
        Value::Int(orderkey),
        Value::Int(suppkey),
        Value::Int(rng.gen_range(1..=50)),
        Value::Int(rng.gen_range(100..100_000)),
        Value::str(""),
    ])
}

/// `t` with column `col` set to `v`.
pub fn with_col(t: &Tuple, col: usize, v: i64) -> Tuple {
    let mut values = t.values().to_vec();
    values[col] = Value::Int(v);
    Tuple::new(values)
}
