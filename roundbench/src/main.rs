//! Fed-SC round benchmark.
//!
//! ```text
//! roundbench --workload <big_devices|fleet_flat|fleet_hier> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop of back-to-back seeded Fed-SC rounds,
//! one round in flight, for `--seconds`, cycling through three instances
//! generated from the seed. Every round's output is checked.
//! With `--trace 0` the rounds run through the library's entry points and
//! the end-to-end metrics are printed; with `--trace 1` untraced rounds
//! alternate with rounds composed from the layers' public calls under
//! spans, and the per-layer metrics are printed. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `README.md` next to this file.

mod calib;
mod compose;
mod span;
mod workload;

use calib::Probe;
use compose::{traced_flat, traced_hier, TracedRound, ROUND};
use span::{chrome_trace, ledger, RoundLedger, Span, Tracer};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{run_untraced, setup, Fingerprint, Instance, Kind, Untraced, Workload, THREADS};

/// Seeded instances per run. Rounds cycle through them, so a run's medians
/// and means cover several draws of the workload's inputs, not one.
const INSTANCES: u64 = 3;

/// Set-ups per instance; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// FNV-1a over the labels: a short, printable identity for a labelling.
fn digest(labels: &[usize]) -> u64 {
    labels.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &l| {
        (h ^ l as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Resident-memory high-water mark of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line's metrics, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One seeded instance and the first output it produced, which every
/// later round on it must reproduce.
struct Case {
    inst: Instance,
    reference: Option<Fingerprint>,
}

/// Round bookkeeping: every attempted round is either kept or failed.
struct Checker {
    floor: f64,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Checks one round's output; false counts the round as failed.
    fn check(&mut self, case: &mut Case, fp: &Fingerprint, what: &str) -> bool {
        self.attempted += 1;
        let acc = fedsc_clustering::clustering_accuracy(&case.inst.truth, &fp.labels);
        let problem = if acc < self.floor {
            Some(format!("ACC {acc:.2}% below the {:.1}% floor", self.floor))
        } else {
            match &case.reference {
                None => {
                    case.reference = Some(fp.clone());
                    None
                }
                Some(r) if r != fp => Some(differs(r, fp)),
                Some(_) => None,
            }
        };
        match problem {
            None => true,
            Some(p) => {
                eprintln!("roundbench: {what} round {} failed: {p}", self.attempted);
                self.failed += 1;
                false
            }
        }
    }

    fn error(&mut self, what: &str, e: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("roundbench: {what} round {} failed: {e}", self.attempted);
    }
}

fn differs(a: &Fingerprint, b: &Fingerprint) -> String {
    if a.labels != b.labels {
        return format!(
            "labels {:016x} differ from the reference {:016x}",
            digest(&b.labels),
            digest(&a.labels)
        );
    }
    format!("traffic or solver counts differ: reference {a:?}, this round {b:?}")
}

/// Set-up: each instance's input generation and partitioning, repeated;
/// the first repetition also starts the worker pool the rounds use.
/// Instance `k` of run seed `seed` is generated from `seed * INSTANCES + k`.
/// The returned time is the median set-up, scaled to reference host speed
/// by probe readings taken before and after all of them.
fn timed_setup(
    w: Workload,
    seed: u64,
    probe: &mut Probe,
) -> fedsc_linalg::Result<(Vec<Case>, f64)> {
    let before = probe.read();
    let mut times = Vec::new();
    let mut cases = Vec::new();
    for k in 0..INSTANCES {
        let sub_seed = seed.wrapping_mul(INSTANCES).wrapping_add(k);
        let mut inst = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let made = setup(w.kind, sub_seed)?;
            if times.is_empty() {
                let _ = fedsc_linalg::par::par_map_heavy(THREADS, THREADS, |i| i);
            }
            times.push(start.elapsed().as_secs_f64());
            inst = Some(made);
        }
        let inst = inst.ok_or(fedsc_linalg::LinalgError::InvalidArgument("no set-up ran"))?;
        cases.push(Case {
            inst,
            reference: None,
        });
    }
    let after = probe.read();
    Ok((cases, Probe::scale(median(&times), before, after)))
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// Comma-separated label digests, one per instance.
fn digests(fps: &[Fingerprint]) -> String {
    let d: Vec<String> = fps
        .iter()
        .map(|f| format!("{:016x}", digest(&f.labels)))
        .collect();
    d.join(",")
}

fn untraced_run(
    args: &Args,
    cases: &mut [Case],
    setup_s: f64,
    probe: &mut Probe,
    ck: &mut Checker,
) -> Metrics {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    // Scaled round times, per instance.
    let mut scaled = vec![Vec::new(); cases.len()];
    let mut readings = Vec::new();
    let mut last = vec![Fingerprint::default(); cases.len()];
    let mut round = 0;
    // A probe reading between every two rounds; each round is scaled by
    // the readings on either side of it.
    let mut before = probe.read();
    readings.push(before);
    // At least one round per instance, then until the time is up.
    while round < cases.len() || start.elapsed() < budget {
        let k = round % cases.len();
        round += 1;
        let case = &mut cases[k];
        let res = run_untraced(&case.inst);
        let after = probe.read();
        readings.push(after);
        match res {
            Ok(u) => {
                if ck.check(case, &u.fingerprint, "untraced") {
                    walls.push(u.wall_s);
                    scaled[k].push(Probe::scale(u.wall_s, before, after));
                }
                last[k] = u.fingerprint;
            }
            Err(e) => ck.error("untraced", &e),
        }
        before = after;
    }
    // Instances differ in cost by a few percent, so one median over all
    // rounds jumps between them from run to run; each instance's median,
    // averaged over the instances, does not.
    let round_s = mean(scaled.iter().filter(|s| !s.is_empty()).map(|s| median(s)));
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "# {}: {} rounds kept of {}, round_s {:.4} s scaled, wall median {:.4} s; \
         probe median {:.5} s (reference {} s); wall rounds [{}]",
        args.workload.name,
        walls.len(),
        ck.attempted,
        round_s,
        median(&walls),
        median(&readings),
        calib::REFERENCE_S,
        listed.join(", ")
    );
    let mut m = Metrics::default();
    m.put("round_s", round_s, "s");
    m.put("setup_s", setup_s, "s");
    // Quality and traffic are exact per instance; report their mean.
    let scored = || {
        cases
            .iter()
            .zip(&last)
            .filter(|(c, fp)| fp.labels.len() == c.inst.truth.len())
    };
    let acc = mean(
        scored().map(|(c, fp)| fedsc_clustering::clustering_accuracy(&c.inst.truth, &fp.labels)),
    );
    let nmi =
        mean(scored().map(|(c, fp)| {
            fedsc_clustering::normalized_mutual_information(&c.inst.truth, &fp.labels)
        }));
    println!("# labels digests {}", digests(&last));
    m.put("acc_pct", acc, "%");
    m.put("nmi_pct", nmi, "%");
    m.put(
        "uplink_bytes",
        mean(last.iter().map(|f| f.uplink_bytes as f64)),
        "B",
    );
    m.put(
        "downlink_bytes",
        mean(last.iter().map(|f| f.downlink_bytes as f64)),
        "B",
    );
    m.put("peak_rss_mb", peak_rss_mib(), "MiB");
    m
}

/// Per-layer values of one traced round.
fn layer_values(t: &TracedRound, l: &RoundLedger) -> Vec<(&'static str, f64, &'static str)> {
    let device_sum = l.total_s("local");
    let phase1 = l.total_s("par");
    let eff = if phase1 > 0.0 {
        device_sum / (phase1 * THREADS as f64)
    } else {
        0.0
    };
    vec![
        ("local.affinity_s", l.total_s("local.affinity"), "s"),
        ("local.eigengap_s", l.total_s("local.eigengap"), "s"),
        ("local.spectral_s", l.total_s("local.spectral"), "s"),
        ("local.basis_sample_s", l.total_s("local.basis_sample"), "s"),
        ("local.device_s_sum", device_sum, "s"),
        ("local.device_s_max", l.max_s("local"), "s"),
        ("local.clusters", t.clusters as f64, "count"),
        ("local.lasso_sweeps", t.local.lasso_sweeps as f64, "count"),
        (
            "local.spectral_matvecs",
            t.local.spectral_matvecs as f64,
            "count",
        ),
        ("par.phase1_wall_s", phase1, "s"),
        ("par.fanout_eff", eff, "ratio"),
        ("pool.tasks", t.local.pool_tasks as f64, "count"),
        (
            "pool.tasks_inline",
            t.local.pool_tasks_inline as f64,
            "count",
        ),
        ("pool.steals", t.local.pool_steals as f64, "count"),
        ("central.s", l.total_s("central"), "s"),
        ("central.affinity_s", l.total_s("central.affinity"), "s"),
        ("central.spectral_s", l.total_s("central.spectral"), "s"),
        ("central.samples", t.central_samples as f64, "count"),
        (
            "central.lasso_sweeps",
            t.central.lasso_sweeps as f64,
            "count",
        ),
        (
            "central.spectral_matvecs",
            t.central.spectral_matvecs as f64,
            "count",
        ),
        ("wire.encode_s", l.total_s("wire.encode"), "s"),
        ("wire.decode_s", l.total_s("wire.decode"), "s"),
        (
            "wire.uplink_msgs",
            t.fingerprint.uplink_msgs as f64,
            "count",
        ),
        (
            "wire.downlink_msgs",
            t.fingerprint.downlink_msgs as f64,
            "count",
        ),
        ("phase3.relabel_s", l.total_s("phase3.relabel"), "s"),
        ("obs.spans", l.spans as f64, "count"),
        ("residual_s", l.residual_ns as f64 * 1e-9, "s"),
    ]
}

/// Tree metrics, in print order with their units.
const HIER_METRICS: [(&str, &str); 7] = [
    ("hier.tier0_s", "s"),
    ("hier.tier1_s", "s"),
    ("hier.root_s", "s"),
    ("hier.agg_s", "s"),
    ("hier.agg_nodes", "count"),
    ("hier.tier0_uplink_bytes", "B"),
    ("hier.root_uplink_bytes", "B"),
];

/// Tree metrics from the untraced rounds' `HierRunOutput.tiers` (all 0 on
/// the flat workloads); the device stage `hier.agg_s` subtracts is the
/// traced `local` total.
fn hier_values(untraced: &[Untraced], device_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    let tier_s = |pick: &dyn Fn(&Untraced) -> u64| {
        median(
            &untraced
                .iter()
                .map(|u| pick(u) as f64 * 1e-9)
                .collect::<Vec<_>>(),
        )
    };
    let values = match untraced.first().map(|u| &u.tiers) {
        Some(tiers) if tiers.len() == 3 => [
            tier_s(&|u| u.tiers[0].wall_ns),
            tier_s(&|u| u.tiers[1].wall_ns),
            tier_s(&|u| u.tiers[2].wall_ns),
            tier_s(&|u| u.tiers.iter().map(|t| t.wall_ns).sum()) - device_s,
            tiers.iter().map(|t| t.parents).sum::<usize>() as f64,
            tiers[0].uplink_bytes as f64,
            tiers[2].uplink_bytes as f64,
        ],
        _ => [0.0; 7],
    };
    HIER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn traced_run(args: &Args, cases: &mut [Case], ck: &mut Checker) -> Metrics {
    let budget = Duration::from_secs_f64(args.seconds);
    let tracer = Tracer::new();
    let start = Instant::now();
    let mut untraced: Vec<Untraced> = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    let mut last_traced = vec![Fingerprint::default(); cases.len()];
    // An untraced round, then a traced one, on each instance in turn, so
    // both see the same inputs and the same machine; at least one pair per
    // instance, then until the time is up.
    let mut step = 0;
    while step < 2 * cases.len() || start.elapsed() < budget {
        let k = (step / 2) % cases.len();
        let case = &mut cases[k];
        if step % 2 == 0 {
            match run_untraced(&case.inst) {
                Ok(u) => {
                    if ck.check(case, &u.fingerprint, "untraced") {
                        untraced.push(u);
                    }
                }
                Err(e) => ck.error("untraced", &e),
            }
        } else {
            let res = match args.workload.kind {
                Kind::FleetHier => traced_hier(&case.inst, &tracer),
                Kind::BigDevices | Kind::FleetFlat => traced_flat(&case.inst, &tracer),
            };
            match res {
                Ok(t) => {
                    if ck.check(case, &t.fingerprint, "traced") {
                        last_traced[k] = t.fingerprint.clone();
                        traced.push(t);
                    }
                }
                Err(e) => ck.error("traced", &e),
            }
        }
        step += 1;
    }
    let spans = tracer.spans();
    let ledgers: Vec<RoundLedger> = traced
        .iter()
        .map(|t| ledger(&spans, t.round, ROUND))
        .collect();

    // Every per-layer value is the median over the traced rounds.
    let per_round: Vec<Vec<(&'static str, f64, &'static str)>> = traced
        .iter()
        .zip(&ledgers)
        .map(|(t, l)| layer_values(t, l))
        .collect();
    let mut m = Metrics::default();
    let names = layer_values(&TracedRound::default(), &RoundLedger::default());
    for (i, (name, _, unit)) in names.into_iter().enumerate() {
        let values: Vec<f64> = per_round.iter().map(|r| r[i].1).collect();
        m.put(name, median(&values), unit);
    }
    let device_s = median(
        &ledgers
            .iter()
            .map(|l| l.total_s("local"))
            .collect::<Vec<_>>(),
    );
    for (name, value, unit) in hier_values(&untraced, device_s) {
        m.put(name, value, unit);
    }
    let traced_s = median(
        &ledgers
            .iter()
            .map(|l| l.round_ns as f64 * 1e-9)
            .collect::<Vec<_>>(),
    );
    let untraced_s = median(&untraced.iter().map(|u| u.wall_s).collect::<Vec<_>>());
    let overhead = if untraced_s > 0.0 {
        traced_s / untraced_s - 1.0
    } else {
        0.0
    };
    m.put("obs.trace_overhead", overhead, "ratio");

    println!(
        "# {}: {} untraced and {} traced rounds kept of {}; round_s untraced {:.4} s, traced {:.4} s",
        args.workload.name,
        untraced.len(),
        traced.len(),
        ck.attempted,
        untraced_s,
        traced_s
    );
    if let Some(l) = ledgers.first() {
        println!("# first traced round by span: name, spans, total s, self s");
        for (name, t) in &l.by_name {
            println!(
                "#   {name:20} {:6} {:12.6} {:12.6}",
                t.count,
                t.total_ns as f64 * 1e-9,
                t.self_ns as f64 * 1e-9
            );
        }
        println!(
            "#   {ROUND:20} {:6} {:12.6} {:12.6} (self = residual)",
            1,
            l.round_ns as f64 * 1e-9,
            l.residual_ns as f64 * 1e-9
        );
    }
    let references: Vec<Fingerprint> = cases
        .iter()
        .map(|c| c.reference.clone().unwrap_or_default())
        .collect();
    println!(
        "# labels digests untraced {} traced {}",
        digests(&references),
        digests(&last_traced)
    );
    let path = format!(
        "roundbench/out/{}-seed{}.trace.json",
        args.workload.name, args.seed
    );
    // The first traced round on each instance is written out; the whole
    // run would be tens of MB on the tree workload.
    let kept: Vec<Span> = spans
        .into_iter()
        .filter(|sp| traced.iter().take(cases.len()).any(|t| t.round == sp.round))
        .collect();
    let written = std::fs::create_dir_all("roundbench/out")
        .and_then(|()| std::fs::write(&path, chrome_trace(&kept)));
    match written {
        Ok(()) => println!("# {} spans written to {path}", kept.len()),
        Err(e) => eprintln!("roundbench: could not write {path}: {e}"),
    }
    m
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `mallopt` parameters.
const M_MMAP_THRESHOLD: i32 = -3;
const M_ARENA_MAX: i32 = -8;

/// Pins glibc's allocator so `peak_rss_mb` follows the program's live
/// memory rather than allocator history: one arena (devices hop between
/// the two threads from round to round, and each thread's arena would
/// otherwise keep its own high-water mark), and a fixed 1 MiB mmap
/// threshold (the default threshold rises after the first large free,
/// after which `n x n` matrices come from the heap and the resident size
/// grows over the rounds). `big_devices` round times with and without
/// this setting agree within run-to-run noise (README.md).
fn pin_allocator() {
    // SAFETY: mallopt only changes allocator tuning; it runs before any
    // other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
    }
}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("roundbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut probe = Probe::new();
    let (mut cases, setup_s) = match timed_setup(args.workload, args.seed, &mut probe) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("roundbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ck = Checker {
        floor: args.workload.acc_floor,
        attempted: 0,
        failed: 0,
    };
    let metrics = if args.trace {
        traced_run(&args, &mut cases, &mut ck)
    } else {
        untraced_run(&args, &mut cases, setup_s, &mut probe, &mut ck)
    };
    let correct = ck.failed == 0 && ck.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ck.attempted,
        ck.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
