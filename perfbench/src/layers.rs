//! Per-layer measurements shared by the workloads: span metrics, the
//! program's own telemetry counters, and the policy-layer replay probes.

use std::time::Instant;

use sdm_core::{Controller, Enforcement};
use sdm_netsim::{FiveTuple, SimTime, StubId};
use sdm_policy::{ClassifierKind, FlowTable, LocalClassifier, PolicyId};
use sdm_telemetry::{family, Snapshot};
use sdm_util::json::Json;

use crate::trace::Tracer;
use crate::{median, Outcome};

/// Run id of the traced set-up; measured iterations use ids from 1.
pub const SETUP_RUN: u32 = 0;

/// Seconds spent in spans named `name`: the median over measured runs
/// when the call happens there, else its set-up total.
pub fn span_seconds(tr: &Tracer, name: &str) -> f64 {
    let by_run = tr.seconds_by_run(name);
    let measured: Vec<f64> = by_run
        .iter()
        .filter(|(run, _)| **run != SETUP_RUN)
        .map(|(_, s)| *s)
        .collect();
    if measured.is_empty() {
        by_run.get(&SETUP_RUN).copied().unwrap_or(0.0)
    } else {
        median(&measured)
    }
}

/// Reports every `<layer>.<call>_s` span metric of the table that the
/// trace recorded, plus the trace's own bookkeeping ratio.
pub fn report_spans(tr: &Tracer, out: &mut Outcome) {
    for (metric, span) in [
        ("workload.gen_s", "workload.gen"),
        ("topology.generate_s", "topology.generate"),
        ("topology.routing_s", "topology.routing"),
        ("core.controller_new_s", "core.controller_new"),
        ("core.enforcement_build_s", "core.enforcement_build"),
        ("core.inject_s", "core.inject"),
        ("core.fold_s", "core.fold"),
        ("core.swap_s", "core.swap"),
        ("core.reach_view_s", "core.reach_view"),
        ("netsim.run_s", "netsim.run"),
        ("lp.solve_s", "lp.solve"),
        ("verify.controller_s", "verify.controller"),
        ("verify.enforcement_s", "verify.enforcement"),
        ("verify.reach_check_s", "verify.reach_check"),
    ] {
        out.set(metric, span_seconds(tr, span));
    }
    out.set("bench.stage_sum_ratio", tr.stage_sum_ratio());
    let layers: Vec<String> = tr
        .layer_self_ns()
        .iter()
        .map(|(layer, ns)| format!("{layer}={:.4}", *ns as f64 / 1e9))
        .collect();
    out.note(format!("layer self time (s): {}", layers.join(" ")));
}

/// Sum of a fixed-label counter family over all its labels.
pub fn family_total(snap: &Snapshot, fam: usize, labels: usize) -> u64 {
    (0..labels).map(|i| snap.value(fam, i)).sum()
}

/// Mean of a histogram family (`sum / count`), read from the snapshot's
/// full JSON export.
pub fn hist_mean(snap: &Snapshot, name: &str) -> f64 {
    let doc = Json::parse(&snap.to_json(true)).expect("telemetry JSON export parses");
    let hist = doc.get(name).expect("histogram family is exported");
    let sum = hist.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
    let count = hist.get("count").and_then(Json::as_f64).unwrap_or(0.0);
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// The telemetry-derived policy, steering and queue metrics of a traced
/// data-plane phase. `flows` is the number of flows injected into it.
pub fn report_telemetry(snap: &Snapshot, flows: u64, out: &mut Outcome) {
    let kinds = sdm_telemetry::DEVICE_KINDS.len();
    let hops = sdm_telemetry::STEER_HOPS.len();
    let hits = family_total(snap, family::FLOW_HITS, kinds);
    let misses = family_total(snap, family::FLOW_MISSES, kinds);
    out.set(
        "policy.flow_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("policy.flow_misses", misses as f64);
    out.set(
        "policy.flow_entries",
        family_total(snap, family::FLOW_ENTRIES, kinds) as f64,
    );
    out.set(
        "policy.label_entries",
        snap.value(family::LABEL_ENTRIES, 0) as f64,
    );
    let decisions = family_total(snap, family::STEER_DECISIONS, hops);
    let pinned = family_total(snap, family::STEER_PINNED, hops);
    out.set(
        "core.steer_decisions_per_flow",
        decisions as f64 / flows.max(1) as f64,
    );
    out.set(
        "core.steer_pinned_share",
        pinned as f64 / (decisions + pinned).max(1) as f64,
    );
    out.set(
        "netsim.queue_occupancy_mean",
        hist_mean(snap, "sdm_queue_occupancy"),
    );
    out.set(
        "netsim.batch_run_len_mean",
        hist_mean(snap, "sdm_batch_run_length"),
    );
}

/// Heap bytes per resident flow/label entry across every device table of
/// the given enforcements.
pub fn bytes_per_entry(controller: &Controller, shards: &[&Enforcement]) -> f64 {
    let (mut bytes, mut entries) = (0usize, 0usize);
    for enf in shards {
        for stub in controller.addr_plan().stubs() {
            let state = enf.proxy_state(stub);
            let st = state.lock();
            bytes += st.flows.allocated_bytes();
            entries += st.flows.len();
        }
        for gw in 0..enf.ingress_count() {
            let state = enf.ingress_state(gw);
            let st = state.lock();
            bytes += st.flows.allocated_bytes();
            entries += st.flows.len();
        }
        for (id, _) in controller.deployment().iter() {
            let state = enf.mbox_state(id);
            let st = state.lock();
            bytes += st.flows.allocated_bytes() + st.labels.allocated_bytes();
            entries += st.flows.len() + st.labels.len();
        }
    }
    bytes as f64 / entries.max(1) as f64
}

/// Proxy-side label switching: packets forwarded by label ÷ packets
/// steered into a chain, summed over every proxy of the enforcements.
pub fn label_switched_share(controller: &Controller, shards: &[&Enforcement]) -> f64 {
    let (mut switched, mut steered) = (0u64, 0u64);
    for enf in shards {
        for stub in controller.addr_plan().stubs() {
            let c = enf.proxy_state(stub).lock().counters;
            switched += c.label_switched;
            steered += c.steered;
        }
    }
    switched as f64 / steered.max(1) as f64
}

/// One flow of a replayed stream: its five-tuple and packet count.
pub struct StreamFlow {
    pub flow: FiveTuple,
    pub packets: u64,
}

/// The policy-layer probes: classifies every flow's first packet with its
/// source proxy's `LocalClassifier` (`policy.classify_ns`), then replays
/// the stream through a fresh `FlowTable` (`policy.replay_lookup_ns`):
/// every packet is a lookup, and a miss inserts the classified entry. With
/// `per_packet` the packets are looked up one at a time in tick order
/// (flow `i` starts at tick `i`, packets `gap` ticks apart); without it
/// each flow is one weighted lookup, as the aggregate data path does.
pub fn policy_probes(
    tr: &mut Tracer,
    controller: &Controller,
    stream: &[StreamFlow],
    per_packet: bool,
    gap: u64,
    out: &mut Outcome,
) {
    let addrs = controller.addr_plan();
    let classifiers: Vec<LocalClassifier> = tr.span("policy.classifier_build", || {
        addrs
            .stubs()
            .map(|stub| {
                LocalClassifier::new(controller.proxy_policies(stub), ClassifierKind::Linear)
            })
            .collect()
    });
    let stubs: Vec<StubId> = stream
        .iter()
        .map(|f| {
            addrs
                .stub_of(f.flow.src)
                .expect("flow sources lie in stub subnets")
        })
        .collect();

    tr.enter("policy.classify");
    let t = Instant::now(); // lint:allow(wall-clock)
    let classes: Vec<Option<(PolicyId, sdm_policy::ActionList)>> = stream
        .iter()
        .zip(&stubs)
        .map(|(f, stub)| {
            classifiers[stub.index()]
                .first_match(&f.flow)
                .map(|(id, p)| (id, p.actions.clone()))
        })
        .collect();
    let classify_s = t.elapsed().as_secs_f64();
    tr.exit();
    out.set(
        "policy.classify_ns",
        classify_s * 1e9 / stream.len().max(1) as f64,
    );

    // Every packet in tick order: (tick, flow index). Built outside the
    // timed replay.
    let order: Vec<(u64, u32)> = tr.span("bench.replay_order", || {
        let mut order = Vec::new();
        for (i, f) in stream.iter().enumerate() {
            let sends = if per_packet { f.packets } else { 1 };
            for k in 0..sends {
                order.push((i as u64 + k * gap, i as u32));
            }
        }
        order.sort_unstable();
        order
    });

    tr.enter("policy.replay");
    let t = Instant::now(); // lint:allow(wall-clock)
    let mut table = FlowTable::new(u64::MAX / 4);
    let mut ops = 0u64;
    for &(tick, i) in &order {
        let (f, now) = (&stream[i as usize], SimTime(tick));
        let weight = if per_packet { 1 } else { f.packets };
        if table.lookup(&f.flow, now, weight).is_none() {
            match &classes[i as usize] {
                Some((id, actions)) => table.insert_positive(f.flow, *id, actions.clone(), now),
                None => table.insert_negative(f.flow, now),
            }
            ops += 1;
        }
        ops += 1;
    }
    let replay_s = t.elapsed().as_secs_f64();
    tr.exit();
    out.set(
        "policy.replay_lookup_ns",
        replay_s * 1e9 / ops.max(1) as f64,
    );
}
