//! Shared plumbing: arguments, seeds, timing, statistics, the per-layer
//! recorder, and the result line.

use std::collections::BTreeMap;
use std::panic::UnwindSafe;
use std::time::Instant;

pub const USAGE: &str = "usage: pipebench --workload plan-static|eval-large|service-churn \
                         --seed N --seconds S --trace 0|1";

/// The message of the known generator fault (a panic in
/// `sample_normal_at_least`); every other panic is unexpected.
pub const KNOWN_FAULT: &str = "floor must not exceed the mean";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(30.0);
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: match trace.unwrap_or(0) {
                0 => false,
                1 => true,
                t => return Err(format!("--trace {t}: expected 0 or 1")),
            },
        })
    }
}

/// SplitMix64 finalizer over `seed` and `parts`: independent,
/// reproducible sub-seeds for every input the workloads draw.
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut x = seed;
    for &p in parts {
        x = x.wrapping_add(p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mix`]).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, &[i as u64]) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Runs `f`, catching a panic. `Err` carries the panic message.
pub fn catch<T>(f: impl FnOnce() -> T + UnwindSafe) -> Result<T, String> {
    std::panic::catch_unwind(f).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Keeps the default panic report for unexpected panics only: the known
/// fault is caught and counted on every round, and reporting it each time
/// would bury everything else on stderr.
pub fn quiet_known_fault() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains(KNOWN_FAULT) {
            default(info);
        }
    }));
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest sample that still has ten samples above it — the highest
/// percentile a run of `v.len()` ops resolves. Needs 40 samples; with
/// fewer, there is no such tail and the largest sample is returned.
pub fn tail(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n >= 40 => s[n - 11],
        n => s[n - 1],
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    // struct rusage on 64-bit Linux: two timevals, then 14 longs, the
    // first of which is ru_maxrss in KiB.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size the C struct has on
    // the 64-bit Linux targets this benchmark runs on; RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.0[4] as f64 / 1024.0
    } else {
        0.0
    }
}

/// Per-layer time and count accumulator. While tracing is off, `time`
/// only calls the closure: untraced runs read no extra clocks.
pub struct Layers {
    on: bool,
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn new(on: bool) -> Layers {
        Layers {
            on,
            values: BTreeMap::new(),
        }
    }

    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(name, ms_since(t));
        out
    }

    pub fn add(&mut self, name: &str, v: f64) {
        if self.on {
            *self.values.entry(name.to_string()).or_insert(0.0) += v;
        }
    }

    pub fn set(&mut self, name: &str, v: f64) {
        if self.on {
            self.values.insert(name.to_string(), v);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Span and counter totals the program recorded itself (`bcast-obs`),
/// read around the timed phase of a traced run.
pub struct Obs {
    spans: Vec<(String, u64)>,
    counters: Vec<(&'static str, u64)>,
}

impl Obs {
    /// Turns the program's instrumentation on (traced runs only) and
    /// clears what set-up recorded.
    pub fn start(on: bool) {
        if on {
            bcast_obs::enable();
            bcast_obs::reset_spans();
            bcast_obs::reset_metrics();
        }
    }

    pub fn read() -> Obs {
        Obs {
            spans: bcast_obs::span_stats()
                .into_iter()
                .map(|(path, s)| (path, s.total_ns))
                .collect(),
            counters: bcast_obs::counters_snapshot(),
        }
    }

    /// Total ms of every span whose innermost frame is `name`.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .map(|(_, ns)| *ns as f64 / 1e6)
            .sum()
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v as f64)
            .sum()
    }
}

/// What a workload hands back: the checked op outcomes and the metrics
/// for the result line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures (empty when every output was correct).
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Context printed on the line before the result.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn print(&self) {
        for p in self.problems.iter().take(20) {
            eprintln!("check failed: {p}");
        }
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{{}}}", info.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The end-to-end figures every workload reports.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Wall time of the timed phase, in seconds.
    pub wall_s: f64,
    /// Latency of every successful op, in ms.
    pub op_ms: Vec<f64>,
    pub tree_tp_ratio: f64,
    pub schedule_tp_ratio: f64,
}

impl EndToEnd {
    pub fn ops_per_s(&self) -> f64 {
        self.op_ms.len() as f64 / self.wall_s
    }

    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        [
            ("setup_s", self.setup_s, "s"),
            ("ops_per_s", self.ops_per_s(), "1/s"),
            ("op_p50_ms", median(&self.op_ms), "ms"),
            ("op_tail_ms", tail(&self.op_ms), "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("tree_tp_ratio", self.tree_tp_ratio, "ratio"),
            ("schedule_tp_ratio", self.schedule_tp_ratio, "ratio"),
        ]
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect()
    }
}

/// The six heuristics, with the metric-name stem of each.
pub const KINDS: [(bcast_core::HeuristicKind, &str); 6] = [
    (bcast_core::HeuristicKind::PruneSimple, "prune_simple"),
    (bcast_core::HeuristicKind::PruneDegree, "prune_degree"),
    (bcast_core::HeuristicKind::GrowTree, "grow_tree"),
    (bcast_core::HeuristicKind::LpGrow, "lp_grow"),
    (bcast_core::HeuristicKind::LpPrune, "lp_prune"),
    (bcast_core::HeuristicKind::Binomial, "binomial"),
];

/// Every per-layer metric, in output order, with its unit. Times and
/// counts are per successful op of the timed phase unless the name says
/// otherwise (see the README).
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("platform.generate_ms".into(), "ms"),
        ("platform.trace_ms".into(), "ms"),
        ("heuristics.ms".into(), "ms"),
    ];
    for (_, stem) in KINDS {
        names.push((format!("heuristics.{stem}_ms"), "ms"));
    }
    for (n, u) in [
        ("cut_gen.ms", "ms"),
        ("cut_gen.master_ms", "ms"),
        ("cut_gen.separation_ms", "ms"),
        ("cut_gen.rounds", "count"),
        ("cut_gen.cuts_added", "count"),
        ("cut_gen.separations_run", "count"),
        ("lp.pivots", "count"),
        ("lp.refactorizations", "count"),
        ("lp.cold_solves", "count"),
        ("lp.cold_refactor_fallback", "count"),
        ("lp.singular_fallback", "count"),
        ("sched.synthesize_ms", "ms"),
        ("sched.repair_ms", "ms"),
        ("sched.validate_ms", "ms"),
        ("sched.slices_per_period", "count"),
        ("sched.transfers", "count"),
        ("sched.repair.full_rebuilds", "count"),
        ("sched.repair.kept_trees", "count"),
        ("sim.replay_ms", "ms"),
        ("sim.transfers", "count"),
        ("service.apply_ms.drift", "ms"),
        ("service.apply_ms.churn", "ms"),
        ("service.apply_ms.resolve", "ms"),
        ("service.apply_ms.query", "ms"),
        ("service.apply_ms.snapshot", "ms"),
        ("service.snapshot_kb", "KB"),
        ("service.wal_kb", "KB"),
        ("service.recover_ms", "ms"),
        ("service.replayed", "count"),
        ("trace.ops_per_s", "1/s"),
    ] {
        names.push((n.into(), u));
    }
    names
}

/// The program's own counters, copied per op into the layer metrics.
pub const COUNTERS: [&str; 10] = [
    "cut_gen.rounds",
    "cut_gen.cuts_added",
    "cut_gen.separations_run",
    "lp.pivots",
    "lp.refactorizations",
    "lp.cold_solves",
    "lp.cold_refactor_fallback",
    "lp.singular_fallback",
    "sched.repair.full_rebuilds",
    "sched.repair.kept_trees",
];

/// Builds the per-layer metric list: `per_op` values are divided by the
/// op count, the rest (`platform.*`, `service.*_kb`, `service.recover_ms`,
/// `service.replayed`, `service.apply_ms.*`, `trace.ops_per_s`) are taken
/// as recorded.
pub fn layer_metrics(
    layers: &mut Layers,
    obs: &Obs,
    ops: usize,
) -> Vec<(String, f64, &'static str)> {
    for name in COUNTERS {
        layers.add(name, obs.counter(name));
    }
    layers.add("sim.transfers", obs.counter("sim.transfers"));
    for (name, span) in [
        ("cut_gen.master_ms", "cut_gen.master"),
        ("cut_gen.separation_ms", "cut_gen.separation"),
    ] {
        layers.add(name, obs.span_ms(span));
    }
    let ops = ops.max(1) as f64;
    let heur: f64 = KINDS
        .iter()
        .map(|(_, stem)| layers.get(&format!("heuristics.{stem}_ms")))
        .sum();
    layers.set("heuristics.ms", heur);
    layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let raw = layers.get(&name);
            let as_recorded = name.starts_with("platform.")
                || name.starts_with("service.")
                || name.starts_with("trace.");
            let v = if as_recorded { raw } else { raw / ops };
            (name, v, unit)
        })
        .collect()
}
