//! `campus_label_pkt`: the read-heavy data plane.
//!
//! Set-up builds the campus world, generates a power-law population from
//! the seed, runs one hot-potato measurement pass (aggregate injection)
//! and one cold Eq. (2) solve for the load-balancing weights. Each
//! measured iteration then builds a fresh `Strategy::LoadBalanced`
//! enforcement with label switching and injects the population packet by
//! packet: flow `i` starts at tick `i` and its packets are [`GAP`] ticks
//! apart, so each flow's label-ready round trip completes after its first
//! packet and the rest are proxy flow-table hits forwarded by label.

use std::time::Instant;

use sdm_core::{
    EnforcementOptions, LbOptions, LbReport, SteeringEncoding, SteeringWeights, Strategy,
};
use sdm_netsim::SimTime;
use sdm_policy::NetworkFunction;
use sdm_workload::{generate_flows_with_total, Flow, WorkloadConfig};

use crate::layers::{self, StreamFlow, SETUP_RUN};
use crate::trace::Tracer;
use crate::{
    build_world, median, past, repeated_setup, routing_bytes, tail, Args, Digest, Outcome, Topo,
    World,
};

/// Packets in the population.
pub const PACKETS: u64 = 250_000;
/// Ticks between two packets of one flow.
pub const GAP: u64 = 64;
/// Payload bytes per packet.
pub const PAYLOAD: u32 = 512;
/// How far LB's busiest box of a type may exceed hot-potato's.
const LB_SLACK: f64 = 1.10;

const TYPES: [NetworkFunction; 4] = [
    NetworkFunction::Firewall,
    NetworkFunction::Ids,
    NetworkFunction::WebProxy,
    NetworkFunction::TrafficMonitor,
];

struct Setup {
    world: World,
    flows: Vec<Flow>,
    weights: SteeringWeights,
    lb: LbReport,
    /// Hot-potato max load per middlebox type (in [`TYPES`] order).
    hp_max: [u64; 4],
}

fn options(telemetry: bool) -> EnforcementOptions {
    EnforcementOptions {
        encoding: SteeringEncoding::LabelSwitching,
        telemetry: Some(telemetry),
        ..EnforcementOptions::default()
    }
}

fn setup(seed: u64, tr: &mut Tracer) -> Setup {
    let world = build_world(Topo::Campus, tr);
    let flows = tr.span("workload.gen", || {
        let cfg = WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        };
        generate_flows_with_total(
            &world.generated,
            world.controller.addr_plan(),
            &cfg,
            PACKETS,
        )
    });

    // Hot-potato measurement pass: the traffic matrix the LP balances.
    let hp_opts = EnforcementOptions {
        telemetry: Some(false),
        ..EnforcementOptions::default()
    };
    let mut hp = tr.span("core.enforcement_build", || {
        world
            .controller
            .enforcement(Strategy::HotPotato, None, hp_opts)
    });
    tr.span("core.inject", || {
        for f in &flows {
            hp.inject_flow(f.five_tuple, f.packets, PAYLOAD);
        }
    });
    tr.span("netsim.run", || hp.run());
    let (traffic, report) = tr.span("core.fold", || {
        (hp.take_measurements(), hp.load_report(&world.deployment))
    });
    let hp_max = TYPES.map(|f| report.row(f).map_or(0, |r| r.max));
    drop(hp);

    let (weights, lb) = tr.span("lp.solve", || {
        world
            .controller
            .solve_load_balanced(&traffic, LbOptions::default())
            .expect("the campus population's Eq. (2) LP solves")
    });
    let verdict = tr.span("verify.enforcement", || {
        sdm_core::verify_enforcement(&world.controller, Some(&weights), &options(false))
    });
    assert!(!verdict.has_errors(), "{verdict}");
    Setup {
        world,
        flows,
        weights,
        lb,
        hp_max,
    }
}

/// Result of one measured iteration.
struct Iter {
    /// Wall seconds of inject + run + fold.
    wall: f64,
    delivered: u64,
    control: u64,
    events: u64,
    loads: Vec<u64>,
    label_share: f64,
}

fn iterate(s: &Setup, telemetry: bool, tr: &mut Tracer) -> (Iter, sdm_core::Enforcement) {
    let controller = &s.world.controller;
    let mut enf = tr.span("core.enforcement_build", || {
        controller.enforcement(
            Strategy::LoadBalanced,
            Some(s.weights.clone()),
            options(telemetry),
        )
    });
    let t = Instant::now(); // lint:allow(wall-clock)
    tr.span("core.inject", || {
        for (i, f) in s.flows.iter().enumerate() {
            enf.inject_flow_packets(f.five_tuple, f.packets, PAYLOAD, SimTime(i as u64), GAP);
        }
    });
    let events = tr.span("netsim.run", || enf.run());
    let loads = tr.span("core.fold", || enf.middlebox_loads());
    let wall = t.elapsed().as_secs_f64();
    let stats = enf.sim().stats();
    let iter = Iter {
        wall,
        delivered: stats.delivered + stats.delivered_external,
        control: stats.control_received,
        events,
        loads,
        label_share: layers::label_switched_share(controller, &[&enf]),
    };
    (iter, enf)
}

/// Output checks of one iteration; returns the undelivered packets.
fn check(s: &Setup, it: &Iter, first_loads: &[u64], out: &mut Outcome) -> u64 {
    let injected: u64 = s.flows.iter().map(|f| f.packets).sum();
    out.check(it.delivered == injected, || {
        format!("delivered {} of {injected} injected packets", it.delivered)
    });
    out.check(it.control == s.flows.len() as u64, || {
        format!("{} control packets for {} flows", it.control, s.flows.len())
    });
    out.check(it.label_share >= 0.9, || {
        format!("label-switched share {:.4} < 0.9", it.label_share)
    });
    out.check(it.loads == first_loads, || {
        "middlebox loads differ between iterations".into()
    });
    injected.saturating_sub(it.delivered)
}

fn lb_vs_hp(s: &Setup, loads: &[u64], out: &mut Outcome) {
    let report = sdm_core::LoadReport::from_loads(&s.world.deployment, loads);
    for (f, hp) in TYPES.iter().zip(s.hp_max) {
        let lb = report.row(*f).map_or(0, |r| r.max);
        out.check(lb as f64 <= LB_SLACK * hp as f64, || {
            format!(
                "{} LB max load {lb} > {LB_SLACK} x HP max load {hp}",
                f.abbrev()
            )
        });
    }
}

fn describe(s: &Setup, out: &mut Outcome) {
    let mut d = Digest::default();
    let mut packets = 0;
    for f in &s.flows {
        d.word(f.five_tuple.stable_hash());
        d.word(f.packets);
        packets += f.packets;
    }
    out.note(format!(
        "inputs: campus world seed {} | {} flows, {packets} packets, five-tuple digest {:016x} | cold LP {} pivots, lambda {:.6}",
        crate::WORLD_SEED,
        s.flows.len(),
        d.finish(),
        s.lb.iterations,
        s.lb.lambda
    ));
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        return run_traced(args, out);
    }
    let (setup_s, s) = repeated_setup(|tr| setup(args.seed, tr));
    describe(&s, &mut out);
    let mut walls = Vec::new();
    let mut first_loads = None;
    let start = Instant::now(); // lint:allow(wall-clock)
    while walls.is_empty() || !past(start, args.seconds) {
        let (it, enf) = iterate(&s, false, &mut Tracer::new(false));
        drop(enf);
        let first = first_loads.get_or_insert_with(|| it.loads.clone());
        out.failed += check(&s, &it, first, &mut out);
        out.attempted += s.flows.iter().map(|f| f.packets).sum::<u64>();
        walls.push(it.wall);
    }
    lb_vs_hp(&s, first_loads.as_deref().unwrap_or(&[]), &mut out);

    let packets: u64 = s.flows.iter().map(|f| f.packets).sum();
    let pkt_per_s = (packets * walls.len() as u64) as f64 / walls.iter().sum::<f64>();
    let p50 = median(&walls);
    out.set("setup_s", setup_s);
    out.set("work_per_s", pkt_per_s);
    out.set("iter_ms_p50", p50 * 1e3);
    let (pct, tail_s) = tail(&walls);
    out.set("iter_ms_tail", tail_s * 1e3);
    out.note(format!(
        "pkt_per_s {pkt_per_s:.1} pkt/s (delivered packets / wall of inject + run + fold)"
    ));
    out.note(format!(
        "iterations {} | tail = p{pct:.1} of {} samples",
        walls.len(),
        walls.len()
    ));
    out
}

fn run_traced(args: &Args, mut out: Outcome) -> Outcome {
    let mut tr = Tracer::new(true);
    tr.set_run(SETUP_RUN);
    tr.enter("bench.setup");
    let s = setup(args.seed, &mut tr);
    tr.exit();
    describe(&s, &mut out);
    let packets: u64 = s.flows.iter().map(|f| f.packets).sum();

    // Untraced reference iterations, then traced ones, for the overhead.
    tr.set_enabled(false);
    let mut plain = Vec::new();
    let start = Instant::now(); // lint:allow(wall-clock)
    while plain.is_empty() || !past(start, args.seconds / 2.0) {
        plain.push(iterate(&s, false, &mut tr).0.wall);
    }
    tr.set_enabled(true);
    let mut traced = Vec::new();
    let mut first_loads = None;
    let start = Instant::now(); // lint:allow(wall-clock)
    let mut last = None;
    while traced.is_empty() || !past(start, args.seconds / 2.0) {
        tr.set_run(traced.len() as u32 + 1);
        tr.enter("bench.iter");
        let (it, enf) = iterate(&s, true, &mut tr);
        let snap = tr.span("core.telemetry_snapshot", || enf.telemetry_snapshot());
        let bytes = tr.span("policy.footprint", || {
            layers::bytes_per_entry(&s.world.controller, &[&enf])
        });
        traced.push(it.wall);
        let first = first_loads.get_or_insert_with(|| it.loads.clone());
        out.failed += check(&s, &it, first, &mut out);
        out.attempted += packets;
        let stats = enf.sim().stats().clone();
        tr.span("core.drop", || drop(enf));
        tr.exit();
        last = Some((it, snap, bytes, stats));
    }
    lb_vs_hp(&s, first_loads.as_deref().unwrap_or(&[]), &mut out);

    tr.set_run(traced.len() as u32 + 1);
    tr.enter("bench.policy");
    let stream: Vec<StreamFlow> = s
        .flows
        .iter()
        .map(|f| StreamFlow {
            flow: f.five_tuple,
            packets: f.packets,
        })
        .collect();
    layers::policy_probes(&mut tr, &s.world.controller, &stream, true, GAP, &mut out);
    tr.exit();

    let (it, snap, bytes, stats) = last.expect("at least one traced iteration");
    layers::report_spans(&tr, &mut out);
    layers::report_telemetry(&snap, s.flows.len() as u64, &mut out);
    out.set("workload.flows", s.flows.len() as f64);
    out.set("workload.packets", packets as f64);
    out.set("topology.routing_bytes", routing_bytes(&s.world));
    out.set("netsim.events", it.events as f64);
    out.set("netsim.events_per_pkt", it.events as f64 / packets as f64);
    out.set(
        "netsim.ns_per_event",
        out.metrics["netsim.run_s"] * 1e9 / it.events.max(1) as f64,
    );
    out.set(
        "netsim.link_hops_per_pkt",
        stats.link_hops as f64 / it.delivered.max(1) as f64,
    );
    out.set(
        "netsim.encap_hop_share",
        stats.encapsulated_hops as f64 / stats.link_hops.max(1) as f64,
    );
    out.set("netsim.control_pkts", it.control as f64);
    out.set("policy.label_switched_share", it.label_share);
    out.set("policy.bytes_per_entry", bytes);
    out.set("lp.pivots", s.lb.iterations as f64);
    out.set("lp.warm_share", 0.0);
    out.set(
        "lp.ms_per_pivot",
        out.metrics["lp.solve_s"] * 1e3 / s.lb.iterations.max(1) as f64,
    );
    out.set(
        "bench.trace_overhead_ratio",
        median(&traced) / median(&plain),
    );
    crate::finish_trace(&tr, args, &mut out);
    out
}
