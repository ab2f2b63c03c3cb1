//! `pmvbench` — the repository's benchmark of the PMV engine.
//!
//! ```text
//! pmvbench --workload <serve_hot|churn_spill|commit_durable> --seed <n>
//!          --seconds <s> --trace <0|1> [--tiny] [--out <dir>]
//! ```
//!
//! One run sets the workload up several times (keeping the last
//! instance), drives it for `--seconds`, checks a seeded sample of
//! answers against the plain executor on the same snapshot, then reopens
//! the data directory and checks the recovered state against a shadow of
//! the acknowledged commits. With `--trace 0` engine observability is
//! off and the last stdout line carries the end-to-end metrics; with
//! `--trace 1` the measured phase alternates untraced and traced slices
//! (ABBA), and the line carries the per-layer metrics, derived from the
//! benchmark's spans and the engine's public counters. A span file goes
//! to `<out>/spans-<workload>-<seed>.jsonl`. Any wrong answer or
//! recovery mismatch exits non-zero. README.md documents the workloads
//! and every metric.

mod report;
mod setup;
mod trace;
mod workload;

use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use report::{median, Counters, Metrics};
use setup::{Kind, Size};
use trace::Spans;
use workload::{Ctl, Outcome, Rec, STOP, VERIFY};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Reopens per run; `recovery_s` is their median.
const REOPENS: usize = 5;
/// How long the main thread waits for the answer checks to finish.
const CHECK_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny,
        out,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("pmvbench: {e}");
        eprintln!(
            "usage: pmvbench --workload <serve_hot|churn_spill|commit_durable> --seed <n> \
             --seconds <s> --trace <0|1> [--tiny] [--out <dir>]"
        );
        std::process::exit(2);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("pmvbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One benchmark run; returns the result line.
fn run(args: &Args) -> Result<String, String> {
    let kind = args.kind;
    let (size, setups, reopens) = if args.tiny {
        (Size::tiny(), 1, 1)
    } else {
        (Size::full(), SETUPS, REOPENS)
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("create {:?}: {e}", args.out))?;
    let dir = args.out.join(format!(
        "data-{}-{}-{}",
        kind.name(),
        args.seed,
        std::process::id()
    ));
    let host = report::host_stamp(&args.out, kind, args.seed, args.trace);
    println!("host {host}");

    let base = Instant::now();
    let mut spans = Spans::new(args.trace, base);
    let mut setup_times = Vec::new();
    let mut world = None;
    for _ in 0..setups {
        // Drop the previous instance first, so only one is resident.
        drop(world.take());
        let (w, t) = setup::build(kind, size, args.seed, &dir, &mut spans);
        setup_times.push(t);
        world = Some(w);
    }
    let mut world = world.expect("at least one set-up");
    let before = Counters::read(&world);

    // Untraced runs measure in one slice; traced runs alternate
    // untraced/traced slices so drift cancels out of the overhead.
    let slices: &[bool] = if args.trace {
        &[false, true, true, false]
    } else {
        &[false]
    };
    let readers = if kind == Kind::CommitDurable { 2 } else { 1 };
    let ctl = Ctl::default();
    let seconds = args.seconds;
    let (workers, (measured, after, phases)) =
        workload::run(kind, &mut world, &ctl, args.seed, base, |w| {
            let t0 = Instant::now();
            for (i, &on) in slices.iter().enumerate() {
                set_obs(w, on);
                ctl.traced.store(on, Relaxed);
                let end =
                    t0 + Duration::from_secs_f64(seconds * (i + 1) as f64 / slices.len() as f64);
                std::thread::sleep(end.saturating_duration_since(Instant::now()));
            }
            ctl.phase.store(VERIFY, Relaxed);
            let measured = t0.elapsed().as_secs_f64();
            set_obs(w, false);
            let after = Counters::read(w);
            let phases = report::Phases::read(w);
            let t_check = Instant::now();
            while ctl.checked.load(Relaxed) < readers && t_check.elapsed() < CHECK_TIMEOUT {
                std::thread::sleep(Duration::from_millis(5));
            }
            ctl.phase.store(STOP, Relaxed);
            (measured, after, phases)
        });

    let mut recs: [Rec; 2] = Default::default();
    let mut mismatches = Vec::new();
    let mut shadow = world.shadow;
    for w in workers {
        let Outcome {
            rec: [off, on],
            spans: s,
            shadow: d,
            mismatches: m,
        } = w;
        recs[0].absorb(off);
        recs[1].absorb(on);
        spans.absorb(s);
        shadow.merge(&d);
        mismatches.extend(m);
    }
    if ctl.checked.load(Relaxed) < readers {
        mismatches.push("answer checks did not finish".to_string());
    }
    let rounds = world.edb.commit_counts().1;
    drop(world);

    let recovery = workload::recover(&dir, reopens, &shadow, rounds, args.trace, &mut spans);
    let _ = std::fs::remove_dir_all(&dir);
    let recovery = match recovery {
        Ok(r) => Some(r),
        Err(e) => {
            mismatches.push(e);
            None
        }
    };

    for m in mismatches.iter().take(10) {
        eprintln!("pmvbench: MISMATCH: {m}");
    }
    if !mismatches.is_empty() {
        return Err(format!(
            "{} answer or recovery mismatches",
            mismatches.len()
        ));
    }
    let recovery = recovery.expect("no mismatch means recovery succeeded");

    let setup_total: Vec<f64> = setup_times.iter().map(|t| t.total).collect();
    let metrics = if args.trace {
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", kind.name(), args.seed));
        trace::write_file(&path, &host, &spans.list).map_err(|e| format!("write {path:?}: {e}"))?;
        println!("spans {}", path.display());
        let (metrics, rows) = report::per_layer(&report::LayerInput {
            setup: &setup_times,
            off: &recs[0],
            on: &recs[1],
            spans: &spans.list,
            before: &before,
            after: &after,
            phases: &phases,
            recovery: &recovery,
        });
        for row in rows {
            println!("{row}");
        }
        metrics
    } else {
        let r = &recs[0];
        let mut m = Metrics::default();
        m.push("setup_s", median(&setup_total), "s");
        m.push_pct("ttfr_p50_us", &r.q_ttfr_ns, 0.50);
        m.push_pct("ttfr_p99_us", &r.q_ttfr_ns, 0.99);
        m.push_pct("query_p50_us", &r.q_wall_ns, 0.50);
        m.push_pct("query_p99_us", &r.q_wall_ns, 0.99);
        m.push("queries_per_s", r.q_wall_ns.len() as f64 / measured, "1/s");
        m.push(
            "partial_hit_rate",
            report::ratio(r.q_partial_hits, r.q_wall_ns.len() as u64),
            "share",
        );
        m.push_pct("commit_p50_us", &r.c_wall_ns, 0.50);
        m.push_pct("commit_p90_us", &r.c_wall_ns, 0.90);
        m.push("commits_per_s", r.c_wall_ns.len() as f64 / measured, "1/s");
        m.push("recovery_s", median(&recovery.secs), "s");
        m.push("peak_rss_mb", report::peak_rss_mb(), "MB");
        m.push(
            "ok_share",
            report::ratio(r.attempted - r.failed, r.attempted),
            "share",
        );
        m
    };
    let attempted = recs[0].attempted + recs[1].attempted;
    let failed = recs[0].failed + recs[1].failed;
    for (name, value, unit) in &metrics.list {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "run seed={} workload={} measured_s={measured:.3} queries={} commits={} wal_rounds={rounds} \
         setups_s={setup_total:.3?} reopens_s={:.3?}",
        args.seed,
        kind.name(),
        recs[0].q_wall_ns.len() + recs[1].q_wall_ns.len(),
        recs[0].c_wall_ns.len() + recs[1].c_wall_ns.len(),
        recovery.secs,
    );
    if attempted == 0 {
        return Err("no operation ran in the measured phase".to_string());
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    ))
}

/// Engine observability for the serving view and the commit pipeline
/// (which in durable mode also records the WAL phases).
fn set_obs(w: &setup::World, on: bool) {
    w.pmv.set_obs_enabled(on);
    w.edb.obs().set_enabled(on);
}
