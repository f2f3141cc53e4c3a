//! `waxman_resteer`: the closed-loop control epoch and the write-heavy
//! data plane.
//!
//! Set-up builds the Waxman-425 world and generates one fresh aggregate
//! power-law population per epoch, epoch `e` from seed `seed + e`. The
//! loop is closed: the next epoch starts when `EpochLoop::run_epoch`
//! returns. It runs in rounds; a round is a fresh `EpochLoop` (two shards)
//! over all prepared populations. A round's first epoch is the bootstrap
//! (no weights yet, cold solve) and is not timed; every timed epoch
//! re-solves Eq. (2) warm, runs the pre-activation verifier and swaps the
//! weights. Every flow is new to every table, so the policy layer does
//! misses and inserts.
//!
//! The traced run replays one round through the public calls `run_epoch`
//! is made of (inject, run, fold, warm solve, verify, swap), one span
//! each, and checks its reports against `EpochLoop`'s.

use std::time::Instant;

use sdm_core::{
    shard_of, verify_enforcement, Enforcement, EnforcementOptions, EpochLoop, EpochReport,
    FlowSpec, LbOptions, LbWarmCache, Strategy, TrafficMatrix,
};
use sdm_workload::{generate_flows_with_total, to_flow_specs, WorkloadConfig};

use crate::layers::{self, StreamFlow, SETUP_RUN};
use crate::trace::Tracer;
use crate::{
    build_world, median, past, repeated_setup, routing_bytes, tail, Args, Digest, Outcome, Topo,
    World,
};

/// Packets per epoch population.
pub const PACKETS_PER_EPOCH: u64 = 500_000;
/// Epoch populations generated in set-up: one round of the loop.
pub const EPOCHS: usize = 48;
/// Shards of the epoch loop.
pub const SHARDS: usize = 2;
/// Payload bytes per packet.
pub const PAYLOAD: u32 = 512;

struct Setup {
    world: World,
    /// One population per epoch, bootstrap epoch first.
    epochs: Vec<Vec<FlowSpec>>,
}

fn options(telemetry: bool) -> EnforcementOptions {
    EnforcementOptions {
        telemetry: Some(telemetry),
        ..EnforcementOptions::default()
    }
}

fn setup(seed: u64, tr: &mut Tracer) -> Setup {
    let world = build_world(Topo::Waxman, tr);
    let epochs = tr.span("workload.gen", || {
        (0..EPOCHS as u64)
            .map(|e| {
                let cfg = WorkloadConfig {
                    seed: seed.wrapping_add(e),
                    ..WorkloadConfig::default()
                };
                let flows = generate_flows_with_total(
                    &world.generated,
                    world.controller.addr_plan(),
                    &cfg,
                    PACKETS_PER_EPOCH,
                );
                to_flow_specs(&flows, PAYLOAD)
            })
            .collect()
    });
    Setup { world, epochs }
}

fn packets(specs: &[FlowSpec]) -> u64 {
    specs.iter().map(|f| f.packets).sum()
}

fn describe(s: &Setup, out: &mut Outcome) {
    let mut d = Digest::default();
    let (mut flows, mut pkts) = (0, 0);
    for specs in &s.epochs {
        for f in specs {
            d.word(f.flow.stable_hash());
            d.word(f.packets);
        }
        flows += specs.len();
        pkts += packets(specs);
    }
    out.note(format!(
        "inputs: waxman world seed {} | {} epoch populations, {flows} flows, {pkts} packets, five-tuple digest {:016x}",
        crate::WORLD_SEED,
        s.epochs.len(),
        d.finish()
    ));
}

/// Checks one epoch's report; returns whether the epoch failed.
fn check_epoch(
    report: &Result<EpochReport, sdm_core::EpochError>,
    epoch: usize,
    out: &mut Outcome,
) -> bool {
    match report {
        Ok(r) => {
            out.check(r.activated, || {
                format!("epoch {} did not activate", r.epoch)
            });
            out.check(epoch == 0 || r.warm, || {
                format!("epoch {} re-solved cold", r.epoch)
            });
            !r.activated
        }
        Err(e) => {
            out.check(false, || format!("epoch {} failed: {e}", epoch + 1));
            true
        }
    }
}

/// One timed epoch.
struct Timed {
    wall: f64,
    packets: u64,
}

/// One round: a fresh `EpochLoop` over the prepared populations, its
/// bootstrap epoch untimed, stopping once the timed epochs add up to
/// `budget` seconds. Returns the timed epochs and every epoch's report.
fn run_round(s: &Setup, budget: f64, out: &mut Outcome) -> (Vec<Timed>, Vec<EpochReport>) {
    let controller = &s.world.controller;
    let mut lp = EpochLoop::new(controller, SHARDS, options(false), LbOptions::default());
    let mut timed = Vec::new();
    let mut reports = Vec::new();
    let (mut injected, mut spent) = (0, 0.0);
    for (e, specs) in s.epochs.iter().enumerate() {
        if spent >= budget {
            break;
        }
        let t = Instant::now(); // lint:allow(wall-clock)
        let report = lp.run_epoch(specs);
        let wall = t.elapsed().as_secs_f64();
        injected += packets(specs);
        out.attempted += 1;
        out.failed += u64::from(check_epoch(&report, e, out));
        reports.extend(report.ok());
        if e > 0 {
            spent += wall;
            timed.push(Timed {
                wall,
                packets: packets(specs),
            });
        }
    }
    out.check(lp.delivered() == injected, || {
        format!(
            "delivered {} of {injected} injected packets",
            lp.delivered()
        )
    });
    (timed, reports)
}

/// Runs rounds until the timed epochs add up to `seconds`. Each round
/// starts from empty tables, so memory stays that of one round however
/// many rounds a faster program fits in. Returns the timed epochs and the
/// first round's reports.
fn run_rounds(s: &Setup, seconds: f64, out: &mut Outcome) -> (Vec<Timed>, Vec<EpochReport>) {
    let mut timed: Vec<Timed> = Vec::new();
    let mut first = None;
    loop {
        let spent: f64 = timed.iter().map(|t| t.wall).sum();
        if spent >= seconds {
            break;
        }
        let (round, reports) = run_round(s, seconds - spent, out);
        timed.extend(round);
        first.get_or_insert(reports);
    }
    (timed, first.unwrap_or_default())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        return run_traced(args, out);
    }
    let (setup_s, s) = repeated_setup(|tr| setup(args.seed, tr));
    describe(&s, &mut out);
    let (timed, _) = run_rounds(&s, args.seconds, &mut out);
    let walls: Vec<f64> = timed.iter().map(|t| t.wall).collect();
    // Packets per second of closed-loop epoch time.
    let pkts: u64 = timed.iter().map(|t| t.packets).sum();
    let pkt_per_s = pkts as f64 / walls.iter().sum::<f64>();
    let p50 = median(&walls);
    out.set("setup_s", setup_s);
    out.set("work_per_s", pkt_per_s);
    out.set("iter_ms_p50", p50 * 1e3);
    let (pct, tail_s) = tail(&walls);
    out.set("iter_ms_tail", tail_s * 1e3);
    out.note(format!("epoch_ms_p50 {:.3} ms", p50 * 1e3));
    out.note(format!(
        "epoch_ms_tail {:.3} ms = p{pct:.1} of {} timed epochs",
        tail_s * 1e3,
        walls.len()
    ));
    out
}

/// One epoch of the loop, call by call, with a span around each.
struct TracedLoop<'a> {
    world: &'a World,
    shards: Vec<Enforcement>,
    cache: LbWarmCache,
    epoch: u32,
    events: u64,
    /// Per-epoch traffic cells and pivots, bootstrap epoch first.
    cells: Vec<f64>,
    pivots: Vec<u64>,
    warm: u64,
}

impl<'a> TracedLoop<'a> {
    fn new(world: &'a World, tr: &mut Tracer) -> Self {
        let shards = tr.span("core.enforcement_build", || {
            (0..SHARDS)
                .map(|_| {
                    world
                        .controller
                        .enforcement(Strategy::LoadBalanced, None, options(true))
                })
                .collect()
        });
        TracedLoop {
            world,
            shards,
            cache: LbWarmCache::new(),
            epoch: 0,
            events: 0,
            cells: Vec::new(),
            pivots: Vec::new(),
            warm: 0,
        }
    }

    /// Mirrors `EpochLoop::run_epoch`.
    fn epoch(&mut self, specs: &[FlowSpec], tr: &mut Tracer) -> Result<EpochReport, String> {
        let controller = &self.world.controller;
        self.epoch += 1;
        let n = self.shards.len();
        let shards = &mut self.shards;
        tr.span("core.inject", || {
            for spec in specs {
                shards[shard_of(&spec.flow, n)].inject_flow(spec.flow, spec.packets, spec.payload);
            }
        });
        self.events += tr.span("netsim.run", || {
            shards.iter_mut().map(|enf| enf.run()).sum::<u64>()
        });
        let traffic = tr.span("core.fold", || {
            let mut traffic = TrafficMatrix::new();
            for enf in shards.iter() {
                traffic.merge(&enf.take_measurements());
            }
            traffic
        });
        let cache = &mut self.cache;
        let (weights, lb) = tr
            .span("lp.solve", || {
                controller.solve_load_balanced_with_cache(&traffic, LbOptions::default(), cache)
            })
            .map_err(|e| e.to_string())?;
        self.cells.push(traffic.len() as f64);
        self.pivots.push(lb.iterations);
        self.warm += u64::from(lb.warm);
        let verdict = tr.span("verify.enforcement", || {
            verify_enforcement(controller, Some(&weights), &options(true))
        });
        if verdict.has_errors() {
            return Err(format!("plan rejected: {verdict}"));
        }
        tr.span("core.swap", || {
            for enf in shards.iter() {
                enf.update_weights(Some(weights.clone()));
            }
        });
        Ok(EpochReport {
            epoch: self.epoch,
            cells: traffic.len(),
            volume: traffic.grand_total(),
            lambda: lb.lambda,
            pivots: lb.iterations,
            warm: lb.warm,
            activated: true,
        })
    }
}

fn run_traced(args: &Args, mut out: Outcome) -> Outcome {
    let mut tr = Tracer::new(true);
    tr.set_run(SETUP_RUN);
    tr.enter("bench.setup");
    let s = setup(args.seed, &mut tr);
    tr.exit();
    describe(&s, &mut out);

    // Untraced reference epochs through EpochLoop itself.
    tr.set_enabled(false);
    let (plain, reference) = run_rounds(&s, args.seconds / 2.0, &mut out);
    let plain: Vec<f64> = plain.iter().map(|t| t.wall).collect();
    tr.set_enabled(true);

    tr.set_run(SETUP_RUN);
    tr.enter("bench.setup");
    let mut traced_loop = TracedLoop::new(&s.world, &mut tr);
    tr.exit();
    let mut traced = Vec::new();
    let mut injected = 0;
    let start = Instant::now(); // lint:allow(wall-clock)
    for (e, specs) in s.epochs.iter().enumerate() {
        if e > 1 && past(start, args.seconds / 2.0) {
            break;
        }
        // The bootstrap epoch is traced as set-up, like the untraced run.
        tr.set_run(if e == 0 { SETUP_RUN } else { e as u32 });
        tr.enter("bench.epoch");
        let t = Instant::now(); // lint:allow(wall-clock)
        let report = traced_loop.epoch(specs, &mut tr);
        let wall = t.elapsed().as_secs_f64();
        tr.exit();
        injected += packets(specs);
        out.attempted += 1;
        match report {
            Ok(r) => {
                out.check(e == 0 || r.warm, || {
                    format!("traced epoch {} re-solved cold", r.epoch)
                });
                if let Some(want) = reference.get(e) {
                    out.check(
                        r.pivots == want.pivots && r.lambda == want.lambda && r.cells == want.cells,
                        || format!("traced epoch {} disagrees with EpochLoop's report", r.epoch),
                    );
                }
            }
            Err(msg) => {
                out.failed += 1;
                out.check(false, || format!("traced epoch {} failed: {msg}", e + 1));
            }
        }
        if e > 0 {
            traced.push(wall);
        }
    }
    let delivered: u64 = traced_loop
        .shards
        .iter()
        .map(|enf| enf.sim().stats().delivered + enf.sim().stats().delivered_external)
        .sum();
    out.check(delivered == injected, || {
        format!("traced loop delivered {delivered} of {injected} injected packets")
    });

    let epochs_run = traced.len() + 1;
    tr.set_run(epochs_run as u32);
    tr.enter("bench.scrape");
    let snap = tr.span("core.telemetry_snapshot", || {
        let mut snap = sdm_telemetry::Snapshot::new();
        for enf in &traced_loop.shards {
            snap.merge(&enf.telemetry_snapshot());
        }
        snap
    });
    let shard_refs: Vec<&Enforcement> = traced_loop.shards.iter().collect();
    let bytes = tr.span("policy.footprint", || {
        layers::bytes_per_entry(&s.world.controller, &shard_refs)
    });
    tr.exit();
    let flows: u64 = s.epochs[..epochs_run].iter().map(|e| e.len() as u64).sum();

    tr.set_run(epochs_run as u32 + 1);
    tr.enter("bench.policy");
    let stream: Vec<StreamFlow> = s.epochs[..epochs_run]
        .iter()
        .flatten()
        .map(|f| StreamFlow {
            flow: f.flow,
            packets: f.packets,
        })
        .collect();
    layers::policy_probes(&mut tr, &s.world.controller, &stream, false, 0, &mut out);
    tr.exit();

    layers::report_spans(&tr, &mut out);
    layers::report_telemetry(&snap, flows, &mut out);
    let mut link_hops = 0;
    let mut encap = 0;
    let mut control = 0;
    for enf in &traced_loop.shards {
        let st = enf.sim().stats();
        link_hops += st.link_hops;
        encap += st.encapsulated_hops;
        control += st.control_received;
    }
    out.set("workload.flows", flows as f64);
    out.set("workload.packets", injected as f64);
    out.set("topology.routing_bytes", routing_bytes(&s.world));
    out.set("core.traffic_cells", median(&traced_loop.cells[1..]));
    out.set("netsim.events", traced_loop.events as f64);
    out.set(
        "netsim.events_per_pkt",
        traced_loop.events as f64 / injected.max(1) as f64,
    );
    let run_total: f64 = tr.seconds_by_run("netsim.run").values().sum();
    out.set(
        "netsim.ns_per_event",
        run_total * 1e9 / traced_loop.events.max(1) as f64,
    );
    out.set(
        "netsim.link_hops_per_pkt",
        link_hops as f64 / delivered.max(1) as f64,
    );
    out.set(
        "netsim.encap_hop_share",
        encap as f64 / link_hops.max(1) as f64,
    );
    out.set("netsim.control_pkts", control as f64);
    out.set(
        "policy.label_switched_share",
        layers::label_switched_share(&s.world.controller, &shard_refs),
    );
    out.set("policy.bytes_per_entry", bytes);
    // Warm re-solves only: the bootstrap epoch's cold solve is set-up.
    let warm_pivots: Vec<f64> = traced_loop.pivots[1..].iter().map(|&p| p as f64).collect();
    let warm_lp_s: f64 = tr
        .seconds_by_run("lp.solve")
        .iter()
        .filter(|(run, _)| **run != SETUP_RUN)
        .map(|(_, s)| s)
        .sum();
    let solves = traced_loop.pivots.len() as f64;
    out.set("lp.pivots", median(&warm_pivots));
    out.set("lp.warm_share", traced_loop.warm as f64 / solves);
    out.set(
        "lp.ms_per_pivot",
        warm_lp_s * 1e3 / warm_pivots.iter().sum::<f64>().max(1.0),
    );
    out.set(
        "bench.trace_overhead_ratio",
        median(&traced) / median(&plain),
    );
    crate::finish_trace(&tr, args, &mut out);
    out
}
