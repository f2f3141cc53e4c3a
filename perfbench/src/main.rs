//! End-to-end benchmark of the sdm workspace.
//!
//! ```text
//! sdm-perfbench --workload <campus_label_pkt|waxman_resteer|waxman_reach>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process, builds every input from the seed
//! before any timer starts, measures for `--seconds`, checks the program's
//! outputs, and prints one JSON result object as the last line of stdout.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records a span
//! around every call into a layer, turns on the program's telemetry, and
//! reports the per-layer metrics instead. See `README.md` next to this
//! package for the workloads and the metric tables.

#![forbid(unsafe_code)]

mod campus;
mod layers;
mod reach;
mod resteer;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use sdm_core::{Controller, Deployment, KConfig};
use sdm_netsim::AddressPlan;
use sdm_topology::NetworkPlan;
use sdm_workload::{evaluation_policies, GeneratedPolicies, PolicyClassCounts};

use trace::Tracer;

/// Seed of the topology, middlebox placement and policy set every
/// workload runs on (the seed the committed goldens use). The workload
/// seed from the command line drives the traffic.
pub const WORLD_SEED: u64 = 1;

/// Seed kept out of tuning, for confirming a claimed gain on inputs the
/// change was not developed against.
pub const HELD_OUT_SEED: u64 = 9_176_431;

/// How many times set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// End-to-end metrics (`--trace 0`), in print order: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in print order: name and unit. A
/// layer that does no work in a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("workload.flows", "count"),
    ("workload.packets", "count"),
    ("topology.generate_s", "s"),
    ("topology.routing_s", "s"),
    ("topology.routing_bytes", "bytes"),
    ("core.controller_new_s", "s"),
    ("core.enforcement_build_s", "s"),
    ("core.inject_s", "s"),
    ("core.fold_s", "s"),
    ("core.swap_s", "s"),
    ("core.reach_view_s", "s"),
    ("core.traffic_cells", "count"),
    ("core.steer_decisions_per_flow", "ratio"),
    ("core.steer_pinned_share", "ratio"),
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.events_per_pkt", "ratio"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.link_hops_per_pkt", "ratio"),
    ("netsim.encap_hop_share", "ratio"),
    ("netsim.control_pkts", "count"),
    ("netsim.queue_occupancy_mean", "count"),
    ("netsim.batch_run_len_mean", "count"),
    ("policy.flow_hit_ratio", "ratio"),
    ("policy.flow_misses", "count"),
    ("policy.label_switched_share", "ratio"),
    ("policy.flow_entries", "count"),
    ("policy.label_entries", "count"),
    ("policy.bytes_per_entry", "bytes"),
    ("policy.replay_lookup_ns", "ns"),
    ("policy.classify_ns", "ns"),
    ("lp.solve_s", "s"),
    ("lp.pivots", "count"),
    ("lp.warm_share", "ratio"),
    ("lp.ms_per_pivot", "ms"),
    ("verify.controller_s", "s"),
    ("verify.enforcement_s", "s"),
    ("verify.reach_check_s", "s"),
    ("verify.flow_classes", "count"),
    ("verify.findings", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.stage_sum_ratio", "ratio"),
];

/// Environment variables that would switch the measured code path.
const PINNED_ENV: &[&str] = &["SDM_BATCH", "SDM_SHARDS", "SDM_TELEMETRY"];
const PINNED_ENV_PREFIX: &str = "SDM_BENCH_";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if map.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    let take = |map: &mut BTreeMap<String, String>, key: &str| {
        map.remove(key).ok_or_else(|| format!("missing --{key}"))
    };
    let workload = take(&mut map, "workload")?;
    let seed = take(&mut map, "seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take(&mut map, "seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match take(&mut map, "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    if let Some(key) = map.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Refuses to run under an inherited knob that would change the measured
/// path (`batch_from_env` silently maps a bad `SDM_BATCH` to 256).
fn check_env() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if PINNED_ENV.contains(&key.as_ref()) || key.starts_with(PINNED_ENV_PREFIX) {
            return Err(format!(
                "{key} is set; unset it so the measured path is the default one"
            ));
        }
    }
    Ok(())
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (packets, epochs or checks).
    pub attempted: u64,
    /// Output checks that failed, with their reasons.
    pub failures: Vec<String>,
    /// Operations that failed (counts toward `error_rate`).
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra human-readable result lines (`name value unit`).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check; a failed one makes the run fail.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A topology with its deployment, policies and controller.
pub struct World {
    pub controller: Controller,
    pub generated: GeneratedPolicies,
    pub deployment: Deployment,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    Campus,
    Waxman,
}

/// Builds the evaluation world, one span per layer call. A traced build
/// also computes the routing tables and the structural verification on
/// their own, so their cost is visible apart from `Controller::new`
/// (which does both internally).
pub fn build_world(topo: Topo, tr: &mut Tracer) -> World {
    let plan: NetworkPlan = tr.span("topology.generate", || match topo {
        Topo::Campus => sdm_topology::campus::campus(WORLD_SEED),
        Topo::Waxman => sdm_topology::waxman::waxman(WORLD_SEED),
    });
    if tr.enabled() {
        let routes = tr.span("topology.routing", || plan.topology().routing_tables());
        std::hint::black_box(routes.node_count());
    }
    let deployment = tr.span("core.deployment", || {
        Deployment::evaluation_with_counts(&plan, WORLD_SEED + 1, &[4, 7, 7, 4])
    });
    let generated = tr.span("workload.policies", || {
        let addrs = AddressPlan::new(&plan);
        evaluation_policies(&addrs, PolicyClassCounts::default(), WORLD_SEED + 2)
    });
    let controller = tr.span("core.controller_new", || {
        Controller::new(
            plan,
            deployment.clone(),
            generated.set.clone(),
            KConfig::paper_default(),
        )
    });
    if tr.enabled() {
        let report = tr.span("verify.controller", || {
            sdm_core::verify_controller(&controller)
        });
        assert!(!report.has_errors(), "{report}");
    }
    World {
        controller,
        generated,
        deployment,
    }
}

/// Bytes of the all-pairs routing tables (`dist` and `next`, one `u32`
/// each per ordered node pair).
pub fn routing_bytes(world: &World) -> f64 {
    let n = world.controller.routes().node_count() as f64;
    8.0 * n * n
}

/// Runs `setup` [`SETUP_REPEATS`] times untraced and returns the median
/// wall time plus the last result.
pub fn repeated_setup<T>(mut setup: impl FnMut(&mut Tracer) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    let mut off = Tracer::new(false);
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now(); // lint:allow(wall-clock)
        last = Some(setup(&mut off));
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("SETUP_REPEATS > 0"))
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail the sample supports: the highest percentile with at least ten
/// samples beyond it (the 11th-largest value), but never below the median.
/// Returns the percentile and the value.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len().saturating_sub(11).max(v.len() / 2);
    let pct = 100.0 * (1.0 - (v.len() - 1 - idx) as f64 / v.len() as f64);
    (pct, v[idx])
}

/// FNV-1a over 64-bit words: the input digest two runs compare.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line '{line}'"))?;
    Ok(kb / 1024.0)
}

/// Deadline helper: true once `seconds` have passed since `start`.
pub fn past(start: Instant, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() >= seconds
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Writes the traced run's spans next to this package and notes where.
pub fn finish_trace(tr: &Tracer, args: &Args, out: &mut Outcome) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    match tr.write_json(&path) {
        Ok(()) => out.note(format!(
            "trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => out.check(false, || format!("cannot write {}: {e}", path.display())),
    }
}

fn run() -> Result<(bool, Outcome), String> {
    check_env()?;
    let args = parse_args()?;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} cores {} (held-out seed {HELD_OUT_SEED}; traffic is simulated)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sdm_util::par::hardware_threads(),
    );
    let mut out = match args.workload.as_str() {
        "campus_label_pkt" => campus::run(&args),
        "waxman_resteer" => resteer::run(&args),
        "waxman_reach" => reach::run(&args),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected campus_label_pkt|waxman_resteer|waxman_reach)"
            ))
        }
    };
    if !args.trace {
        out.set("peak_rss_mb", peak_rss_mb()?);
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        if !out.metrics.contains_key(name) {
            if args.trace {
                out.set(name, 0.0);
            } else {
                return Err(format!(
                    "workload did not report end-to-end metric {name} [{unit}]"
                ));
            }
        }
    }
    for line in &out.notes {
        println!("{line}");
    }
    for (name, unit) in table {
        println!("{name:<34} {:>16.6} {unit}", out.metrics[name]);
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!("{:<34} {:>16.6} ratio", "error_rate", error_rate);
    Ok((args.trace, out))
}

fn main() {
    let (trace, out) = match run() {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for f in &out.failures {
        eprintln!("perfbench: output check failed: {f}");
    }
    let correct = out.failures.is_empty() && out.failed == 0;
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(out.metrics[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
