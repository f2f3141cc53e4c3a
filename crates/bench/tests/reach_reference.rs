//! The reach checker against a per-class reference.
//!
//! `check_assertions` streams its flow classes and shares work between
//! them: the egress partition per destination prefix, the stage path per
//! (ingress, rule) pair, and witness text only for findings. The
//! reference below does none of that. It materializes every (ingress,
//! egress, rule) class, traces each one on its own with `walk_route`,
//! and formats every hop of every path. On random assertion sets over the
//! campus world — with random failed middleboxes, hazard states, routing
//! perturbations (detours, forwarding loops, lost routes) and all three
//! steering strategies — both must produce the same report, byte for
//! byte.

use std::collections::BTreeSet;

use sdm_bench::{ExperimentConfig, World};
use sdm_core::{EnforcementOptions, LbOptions, Strategy};
use sdm_netsim::{Ipv4Addr, Prefix};
use sdm_policy::NetworkFunction;
use sdm_util::prop::{check, Config};
use sdm_verify::reach::{
    check_assertions, walk_route, Assertion, AssertionResult, FlowClass, HazardView, ReachCode,
    ReachFinding, ReachReport, ReachView, ReachWitness, RouteView, RuleView, StrategyView, Walk,
};
use sdm_verify::{Point, ReplayScenario, ReplayStep, StepExpect, WeightsView, WitnessFlow};

// ---------------------------------------------------------------------------
// The reference checker
// ---------------------------------------------------------------------------

fn prefix_intersect(a: Prefix, b: Prefix) -> Option<Prefix> {
    if !a.overlaps(b) {
        return None;
    }
    Some(if a.len() >= b.len() { a } else { b })
}

fn prefix_subtract(a: Prefix, b: Prefix) -> Vec<Prefix> {
    if !a.overlaps(b) {
        return vec![a];
    }
    if a.is_subset_of(b) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut cur = a;
    while cur.len() < b.len() {
        let child_len = cur.len() + 1;
        let bit = 1u32 << (32 - u32::from(child_len));
        let low = Prefix::new(cur.addr(), child_len);
        let high = Prefix::new(Ipv4Addr(cur.addr().0 | bit), child_len);
        if b.addr().0 & bit == 0 {
            out.push(high);
            cur = low;
        } else {
            out.push(low);
            cur = high;
        }
    }
    out.sort_by_key(|p| (p.addr().0, p.len()));
    out
}

/// Where a class enters (`Point::Proxy` or `Point::Gateway`, whose
/// `Display` is the checker's ingress text) and where it leaves
/// (`Some(stub)` or `None` for the external world).
type Piece<'v> = (Point, Option<u32>, FlowClass, Option<&'v RuleView>);

fn ingresses(view: &ReachView, class: FlowClass) -> Vec<(Point, FlowClass)> {
    let mut out = Vec::new();
    let mut external_src = vec![class.src];
    for (s, subnet) in view.plan.stub_subnets.iter().enumerate() {
        if let Some(src) = prefix_intersect(class.src, *subnet) {
            for dst in prefix_subtract(class.dst, *subnet) {
                out.push((Point::Proxy(s as u32), FlowClass { src, dst, ..class }));
            }
        }
        external_src = external_src
            .into_iter()
            .flat_map(|p| prefix_subtract(p, *subnet))
            .collect();
    }
    for src in external_src {
        if src.is_subset_of(view.enterprise) {
            continue;
        }
        for g in 0..view.gateway_routers.len() {
            out.push((Point::Gateway(g as u32), FlowClass { src, ..class }));
        }
    }
    out
}

fn peel(view: &ReachView, class: FlowClass) -> Vec<(FlowClass, Option<&RuleView>)> {
    let mut remaining = vec![class];
    let mut out = Vec::new();
    for rule in &view.rules {
        let mut next_remaining = Vec::new();
        for piece in remaining {
            if let Some(hit) = piece.intersect(&rule.class) {
                out.push((hit, Some(rule)));
            }
            next_remaining.extend(piece.subtract(&rule.class));
        }
        remaining = next_remaining;
        if remaining.is_empty() {
            break;
        }
    }
    out.extend(remaining.into_iter().map(|piece| (piece, None)));
    out
}

fn egresses(view: &ReachView, class: FlowClass) -> Vec<(Option<u32>, FlowClass)> {
    let mut out = Vec::new();
    let mut rest = vec![class.dst];
    for (s, subnet) in view.plan.stub_subnets.iter().enumerate() {
        if let Some(dst) = prefix_intersect(class.dst, *subnet) {
            out.push((Some(s as u32), FlowClass { dst, ..class }));
        }
        rest = rest
            .into_iter()
            .flat_map(|p| prefix_subtract(p, *subnet))
            .collect();
    }
    for dst in rest {
        if !dst.is_subset_of(view.enterprise) && !view.gateway_routers.is_empty() {
            out.push((None, FlowClass { dst, ..class }));
        }
    }
    out
}

/// Every piece of `src -> dst`, collected.
fn split(view: &ReachView, src: Prefix, dst: Prefix) -> Vec<Piece<'_>> {
    let mut out = Vec::new();
    for (ingress, in_class) in ingresses(view, FlowClass::between(src, dst)) {
        for (class, rule) in peel(view, in_class) {
            for (egress, final_class) in egresses(view, class) {
                out.push((ingress, egress, final_class, rule));
            }
        }
    }
    out
}

fn support(
    view: &ReachView,
    point: Point,
    policy: u32,
    next_index: u16,
    f: NetworkFunction,
    weights: Option<&WeightsView>,
    include_failed: bool,
) -> Vec<u32> {
    let members: Vec<u32> = view
        .plan
        .candidates
        .iter()
        .find(|c| c.point == point && c.function == f)
        .map(|c| c.members.clone())
        .unwrap_or_default();
    let alive = |m: &u32| {
        include_failed
            || view
                .plan
                .middleboxes
                .get(*m as usize)
                .is_some_and(|mb| mb.available)
    };
    let first_alive: Vec<u32> = members.iter().copied().filter(alive).take(1).collect();
    let mut out = match view.strategy {
        StrategyView::HotPotato => first_alive,
        StrategyView::Random => members.iter().copied().filter(alive).collect(),
        StrategyView::LoadBalanced => {
            let positive: Vec<u32> = weights
                .and_then(|w| {
                    w.columns.iter().find(|c| {
                        c.point == point && c.policy == policy && c.next_index == next_index
                    })
                })
                .map(|c| {
                    c.weights
                        .iter()
                        .filter(|&&(m, v)| v > 0.0 && members.contains(&m))
                        .map(|&(m, _)| m)
                        .filter(alive)
                        .collect()
                })
                .unwrap_or_default();
            if positive.is_empty() {
                first_alive
            } else {
                positive
            }
        }
    };
    out.sort_unstable();
    out.dedup();
    out
}

fn walk_text(kind: &str, path: &[u32]) -> String {
    let nodes: Vec<String> = path.iter().map(|n| format!("n{n}")).collect();
    format!("{kind}[{}]", nodes.join("->"))
}

struct Delivered {
    stages: Vec<u32>,
    hops: Vec<String>,
    router_hops: usize,
    support_union: Vec<u32>,
}

enum Outcome {
    Completed(Delivered),
    Blackhole(NetworkFunction),
    RoutedLoop(Vec<String>),
    NoRoute,
}

fn ingress_router(view: &ReachView, ingress: Point) -> Option<u32> {
    match ingress {
        Point::Proxy(s) => view.stub_routers.get(s as usize).copied(),
        Point::Gateway(g) => view.gateway_routers.get(g as usize).copied(),
        Point::Middlebox(_) => None,
    }
}

fn egress_router(view: &ReachView, egress: Option<u32>) -> Option<u32> {
    match egress {
        Some(s) => view.stub_routers.get(s as usize).copied(),
        None => view.gateway_routers.first().copied(),
    }
}

/// One class from `ingress` through `rule`'s chain to `out`, every hop
/// formatted as it is walked.
fn trace(
    view: &ReachView,
    routes: &dyn RouteView,
    ingress: Point,
    rule: Option<&RuleView>,
    out: u32,
) -> Outcome {
    let budget = view.plan.node_count.max(2);
    let chain: &[NetworkFunction] = rule.map_or(&[], |r| r.chain.as_slice());
    let policy = rule.map_or(0, |r| r.policy);
    let Some(mut at) = ingress_router(view, ingress) else {
        return Outcome::NoRoute;
    };
    let mut point = ingress;
    let mut hops = vec![format!("{ingress}@n{at}")];
    let mut stages = Vec::new();
    let mut union = BTreeSet::new();
    let mut router_hops = 0usize;
    for (index, &f) in chain.iter().enumerate() {
        if let Point::Middlebox(m) = point {
            if view.plan.middleboxes[m as usize].functions.contains(&f) {
                hops.push(format!("apply({f})@m{m}"));
                continue;
            }
        }
        let sup = support(
            view,
            point,
            policy,
            index as u16,
            f,
            view.plan.weights.as_ref(),
            false,
        );
        if sup.is_empty() {
            return Outcome::Blackhole(f);
        }
        union.extend(sup.iter().copied());
        let target = sup[0];
        let target_router = view.plan.middleboxes[target as usize].router as u32;
        match walk_route(routes, at, target_router, budget) {
            Walk::Arrived(path) => {
                router_hops += path.len() - 1;
                hops.push(walk_text("route", &path));
            }
            Walk::Looped(path) => {
                hops.push(walk_text("loop", &path));
                return Outcome::RoutedLoop(hops);
            }
            Walk::Unreachable => return Outcome::NoRoute,
        }
        hops.push(format!("mbox(m{target})"));
        stages.push(target);
        at = target_router;
        point = Point::Middlebox(target);
    }
    match walk_route(routes, at, out, budget) {
        Walk::Arrived(path) => {
            router_hops += path.len() - 1;
            hops.push(walk_text("route", &path));
            hops.push(format!("deliver@n{out}"));
            Outcome::Completed(Delivered {
                stages,
                hops,
                router_hops,
                support_union: union.into_iter().collect(),
            })
        }
        Walk::Looped(path) => {
            hops.push(walk_text("loop", &path));
            Outcome::RoutedLoop(hops)
        }
        Walk::Unreachable => Outcome::NoRoute,
    }
}

fn witness_flow(class: &FlowClass) -> WitnessFlow {
    let ft = class.representative();
    WitnessFlow {
        src: ft.src,
        dst: ft.dst,
        src_port: ft.src_port,
        dst_port: ft.dst_port,
        proto: ft.proto.number(),
    }
}

fn inject(delivered: bool, dropped: bool, must: Vec<u32>, must_not: Vec<u32>) -> ReplayStep {
    ReplayStep::Inject {
        packets: 8,
        expect: StepExpect {
            delivered,
            dropped_failed: dropped,
            must_process: must,
            must_not_process: must_not,
        },
    }
}

/// The stage boxes a replay may require, when every stage's support was
/// a singleton under a deterministic strategy.
fn must_process(view: &ReachView, d: &Delivered) -> Vec<u32> {
    if d.support_union.len() == d.stages.len() && view.strategy != StrategyView::Random {
        d.stages.clone()
    } else {
        Vec::new()
    }
}

fn blackhole(subject: String, class: FlowClass, stage: NetworkFunction) -> ReachFinding {
    ReachFinding {
        code: ReachCode::BlackholeClass,
        subject,
        detail: format!(
            "flow class {class} blackholes: steering stage {stage} has no available \
candidate middlebox"
        ),
        witness: Some(ReachWitness {
            class,
            path: Vec::new(),
            scenario: None,
        }),
    }
}

fn reference_check(
    view: &ReachView,
    routes: &dyn RouteView,
    assertions: &[Assertion],
) -> ReachReport {
    let mut findings: Vec<ReachFinding> = Vec::new();
    let mut results = Vec::new();
    let mut flow_classes = 0;
    for assertion in assertions {
        let subject = assertion.to_string();
        let before = findings.len();
        let pieces = match *assertion {
            Assertion::Isolated { src, dst } | Assertion::Waypoint { src, dst, .. } => {
                split(view, src, dst)
            }
            Assertion::LoopFree { .. } => split(view, Prefix::ANY, Prefix::ANY),
        };
        let checked = pieces.len();
        for (ingress, egress, class, rule) in pieces {
            let Some(out) = egress_router(view, egress) else {
                continue;
            };
            let outcome = trace(view, routes, ingress, rule, out);
            if let Outcome::Blackhole(stage) = outcome {
                findings.push(blackhole(subject.clone(), class, stage));
                continue;
            }
            match (*assertion, outcome) {
                (Assertion::Isolated { .. }, Outcome::Completed(d)) => {
                    let scenario = match ingress {
                        Point::Proxy(stub) => Some(ReplayScenario {
                            name: format!("{assertion} :: {class} @ s{stub}"),
                            code: "R001".to_string(),
                            stub,
                            flow: witness_flow(&class),
                            steps: vec![inject(true, false, must_process(view, &d), Vec::new())],
                        }),
                        _ => None,
                    };
                    findings.push(ReachFinding {
                        code: ReachCode::IsolationBreach,
                        subject: subject.clone(),
                        detail: format!(
                            "flow class {class} from {ingress} is delivered ({}); nothing on \
its path drops it",
                            rule.map_or("default permit".to_string(), |r| format!(
                                "policy p{}",
                                r.policy
                            ))
                        ),
                        witness: Some(ReachWitness {
                            class,
                            path: d.hops,
                            scenario,
                        }),
                    });
                }
                (Assertion::Waypoint { via, .. }, Outcome::Completed(d)) => {
                    if rule.is_some_and(|r| r.chain.contains(&via)) {
                        continue;
                    }
                    let avoided: Vec<u32> = (0..view.plan.middleboxes.len() as u32)
                        .filter(|&m| view.plan.middleboxes[m as usize].functions.contains(&via))
                        .filter(|m| !d.support_union.contains(m))
                        .collect();
                    let scenario = match ingress {
                        Point::Proxy(stub) => Some(ReplayScenario {
                            name: format!("waypoint-bypass :: {class} @ s{stub}"),
                            code: "R002".to_string(),
                            stub,
                            flow: witness_flow(&class),
                            steps: vec![inject(true, false, must_process(view, &d), avoided)],
                        }),
                        _ => None,
                    };
                    findings.push(ReachFinding {
                        code: ReachCode::WaypointBypass,
                        subject: subject.clone(),
                        detail: format!(
                            "flow class {class} from {ingress} is delivered under {} whose \
chain does not include {via}",
                            rule.map_or("the default permit".to_string(), |r| format!(
                                "policy p{}",
                                r.policy
                            ))
                        ),
                        witness: Some(ReachWitness {
                            class,
                            path: d.hops,
                            scenario,
                        }),
                    });
                }
                (Assertion::LoopFree { ttl }, Outcome::Completed(d))
                    if d.router_hops as u32 > ttl =>
                {
                    findings.push(ReachFinding {
                        code: ReachCode::TtlExceeded,
                        subject: subject.clone(),
                        detail: format!(
                            "flow class {class} from {ingress} needs {} router hops, \
exceeding the ttl budget {ttl}",
                            d.router_hops
                        ),
                        witness: Some(ReachWitness {
                            class,
                            path: d.hops,
                            scenario: None,
                        }),
                    });
                }
                (Assertion::LoopFree { .. }, Outcome::RoutedLoop(hops)) => {
                    findings.push(ReachFinding {
                        code: ReachCode::TtlExceeded,
                        subject: subject.clone(),
                        detail: format!(
                            "flow class {class} from {ingress} enters a routed forwarding \
loop; packets die by TTL, never by delivery"
                        ),
                        witness: Some(ReachWitness {
                            class,
                            path: hops,
                            scenario: None,
                        }),
                    });
                }
                _ => {}
            }
        }
        flow_classes += checked;
        results.push(AssertionResult {
            assertion: subject,
            holds: findings.len() == before,
            classes_checked: checked,
        });
    }
    reference_hazards(view, &mut findings);
    findings.sort_by(|a, b| (a.code, &a.subject, &a.detail).cmp(&(b.code, &b.subject, &b.detail)));
    findings.dedup_by(|a, b| a.code == b.code && a.subject == b.subject && a.detail == b.detail);
    ReachReport {
        results,
        findings,
        flow_classes,
    }
}

fn boxes(list: &[u32]) -> String {
    list.iter()
        .map(|m| format!("m{m}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn reference_hazards(view: &ReachView, findings: &mut Vec<ReachFinding>) {
    let Some(hazards) = &view.hazards else { return };
    let enforced = || view.rules.iter().filter(|r| !r.chain.is_empty());
    if let Some(o) = view
        .plan
        .options
        .as_ref()
        .filter(|o| o.label_ttl > o.flow_ttl)
    {
        for rule in enforced() {
            findings.push(ReachFinding {
                code: ReachCode::LabelTtlSkew,
                subject: format!("policy(p{})", rule.policy),
                detail: format!(
                    "label-switched class {} rides labels with ttl {} while its flow entry \
expires after {}; a reallocated label can collide with the stale ⟨src|l, a⟩ binding mid-path",
                    rule.class, o.label_ttl, o.flow_ttl
                ),
                witness: Some(ReachWitness {
                    class: rule.class,
                    path: Vec::new(),
                    scenario: None,
                }),
            });
        }
    }
    if hazards.failed_now.is_empty() {
        return;
    }
    let prev_weights = hazards.prev_weights.as_ref().or(view.plan.weights.as_ref());
    for rule in enforced() {
        for (point, class) in ingresses(view, rule.class) {
            let f = rule.chain[0];
            let prev = support(view, point, rule.policy, 0, f, prev_weights, true);
            let stale: Vec<u32> = prev
                .iter()
                .copied()
                .filter(|m| hazards.failed_now.contains(m))
                .collect();
            let Some(&first_stale) = stale.first() else {
                continue;
            };
            let scenario = match (point, prev.as_slice()) {
                (Point::Proxy(stub), &[target]) => Some(ReplayScenario {
                    name: format!("stale-pin m{target} :: {class} @ s{stub}"),
                    code: "R005".to_string(),
                    stub,
                    flow: witness_flow(&class),
                    steps: vec![
                        inject(true, false, vec![target], Vec::new()),
                        ReplayStep::FailMbox(target),
                        inject(false, true, vec![target], Vec::new()),
                        ReplayStep::RestoreMbox(target),
                    ],
                }),
                _ => None,
            };
            findings.push(ReachFinding {
                code: ReachCode::StalePinnedFlow,
                subject: format!("{point} policy(p{})", rule.policy),
                detail: format!(
                    "flows of class {class} pinned before the hazard target {} for {f}; {} now \
failed — pinned packets drop until the flow entry expires or the next epoch re-steers",
                    boxes(&prev),
                    boxes(&stale),
                ),
                witness: Some(ReachWitness {
                    class,
                    path: vec![format!("{point}"), format!("pinned->m{first_stale}")],
                    scenario,
                }),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Random inputs
// ---------------------------------------------------------------------------

/// The controller's routing with a few next hops overridden (see
/// [`decode_overrides`]).
struct Perturbed<'r> {
    inner: &'r dyn RouteView,
    overrides: Vec<(u32, u32, Option<u32>)>,
}

impl RouteView for Perturbed<'_> {
    fn next_hop(&self, from: u32, dst: u32) -> Option<u32> {
        match self.overrides.iter().find(|o| o.0 == from && o.1 == dst) {
            Some(&(_, _, next)) => next,
            None => self.inner.next_hop(from, dst),
        }
    }
    fn dist(&self, from: u32, dst: u32) -> Option<u32> {
        self.inner.dist(from, dst)
    }
}

/// Next-hop overrides `(from, dst, next)` from raw `(kind, a, b, c)`
/// draws over `routers`: a forwarding loop (the real next hop from `a`
/// towards `b` is sent back to `a`), a detour (`a` forwards towards `b`
/// via `c`) or a lost route (`a` has none towards `b`).
fn decode_overrides(
    routes: &dyn RouteView,
    routers: &[u32],
    raw: &[(u8, u8, u8, u8)],
) -> Vec<(u32, u32, Option<u32>)> {
    let router = |i: u8| routers[i as usize % routers.len()];
    raw.iter()
        .filter_map(|&(kind, a, b, c)| {
            let (a, dst) = (router(a), router(b));
            match kind % 3 {
                0 => routes
                    .next_hop(a, dst)
                    .filter(|&next| next != dst)
                    .map(|next| (next, dst, Some(a))),
                1 => Some((a, dst, Some(router(c)))),
                _ => Some((a, dst, None)),
            }
        })
        .collect()
}

/// The prefixes assertions draw from: every stub subnet, a supernet and
/// a subnet of some of them, enterprise space no stub backs, external
/// space and the whole address space.
fn prefix_pool(view: &ReachView) -> Vec<Prefix> {
    let p = |s: &str| s.parse::<Prefix>().expect("valid prefix");
    let mut pool = view.plan.stub_subnets.clone();
    for subnet in view.plan.stub_subnets.iter().step_by(5) {
        pool.push(Prefix::new(subnet.addr(), 18));
        pool.push(Prefix::new(subnet.addr(), 24));
    }
    pool.extend([
        Prefix::ANY,
        view.enterprise,
        p("10.200.0.0/16"),
        p("192.168.0.0/16"),
        p("8.8.8.0/24"),
        p("128.0.0.0/1"),
    ]);
    pool
}

const FUNCTIONS: [NetworkFunction; 4] = [
    NetworkFunction::Firewall,
    NetworkFunction::Ids,
    NetworkFunction::WebProxy,
    NetworkFunction::TrafficMonitor,
];
const TTLS: [u32; 8] = [1, 2, 3, 4, 5, 6, 8, 64];

/// One random case: assertions `(kind, a, b, c)`, a failed-box mask, the
/// strategy, the hazard state and raw routing overrides.
type Case = (Vec<(u8, u8, u8, u8)>, u64, u8, u8, Vec<(u8, u8, u8, u8)>);

fn decode_assertions(pool: &[Prefix], raw: &[(u8, u8, u8, u8)]) -> Vec<Assertion> {
    raw.iter()
        .map(|&(kind, a, b, c)| {
            let src = pool[a as usize % pool.len()];
            let dst = pool[b as usize % pool.len()];
            match kind % 3 {
                0 => Assertion::Isolated { src, dst },
                1 => Assertion::Waypoint {
                    src,
                    dst,
                    via: FUNCTIONS[c as usize % FUNCTIONS.len()],
                },
                _ => Assertion::LoopFree {
                    ttl: TTLS[c as usize % TTLS.len()],
                },
            }
        })
        .collect()
}

#[test]
fn streamed_checker_equals_per_class_reference() {
    let world = World::build(&ExperimentConfig::campus(1));
    let flows = world.flows(50_000, 1);
    let measured = world.run_strategy(Strategy::HotPotato, None, &flows);
    let (weights, _) = world
        .controller
        .solve_load_balanced(&measured.measurements, LbOptions::default())
        .expect("the campus Eq. (2) program solves");
    let base = sdm_core::reach_view(
        &world.controller,
        Strategy::LoadBalanced,
        Some(&weights),
        &EnforcementOptions::default(),
    );
    let routes = world.controller.routes();
    let pool = prefix_pool(&base);
    let routers: Vec<u32> = base
        .stub_routers
        .iter()
        .chain(&base.gateway_routers)
        .copied()
        .chain(base.plan.middleboxes.iter().map(|m| m.router as u32))
        .collect();
    let boxes = base.plan.middleboxes.len();

    check(
        "check_assertions equals the per-class reference",
        &Config::with_cases(40),
        |rng| -> Case {
            let assertions = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    (
                        rng.gen_range(0..3u8),
                        rng.next_u32() as u8,
                        rng.next_u32() as u8,
                        rng.next_u32() as u8,
                    )
                })
                .collect();
            let mut failed = 0u64;
            for m in 0..boxes.min(64) {
                if rng.gen_bool(0.15) {
                    failed |= 1u64 << m;
                }
            }
            let overrides = (0..rng.gen_range(0..4usize))
                .map(|_| {
                    (
                        rng.gen_range(0..3u8),
                        rng.next_u32() as u8,
                        rng.next_u32() as u8,
                        rng.next_u32() as u8,
                    )
                })
                .collect();
            (
                assertions,
                failed,
                rng.gen_range(0..3u8),
                rng.gen_range(0..4u8),
                overrides,
            )
        },
        |(raw, failed, strategy, hazard, raw_overrides)| {
            let mut view = base.clone();
            view.strategy = [
                StrategyView::HotPotato,
                StrategyView::Random,
                StrategyView::LoadBalanced,
            ][*strategy as usize % 3];
            let failed_now: Vec<u32> = (0..boxes.min(64) as u32)
                .filter(|m| (failed >> m) & 1 == 1)
                .collect();
            for &m in &failed_now {
                view.plan.middleboxes[m as usize].available = false;
            }
            view.hazards = match hazard % 4 {
                0 => None,
                1 => Some(HazardView {
                    prev_weights: None,
                    failed_now: failed_now.clone(),
                }),
                2 => Some(HazardView {
                    prev_weights: base.plan.weights.clone(),
                    failed_now: failed_now.clone(),
                }),
                _ => {
                    if let Some(o) = view.plan.options.as_mut() {
                        o.label_ttl = o.flow_ttl + 1;
                    }
                    Some(HazardView {
                        prev_weights: None,
                        failed_now: failed_now.clone(),
                    })
                }
            };
            let perturbed = Perturbed {
                inner: routes,
                overrides: decode_overrides(routes, &routers, raw_overrides),
            };
            let assertions = decode_assertions(&pool, raw);
            let got = check_assertions(&view, &perturbed, &assertions);
            let want = reference_check(&view, &perturbed, &assertions);
            sdm_util::prop_assert_eq!(got.flow_classes, want.flow_classes);
            let (got, want) = (
                got.to_json().to_compact_string(),
                want.to_json().to_compact_string(),
            );
            sdm_util::prop_assert!(
                got == want,
                "reports differ for {assertions:?}\n--- checker\n{got}\n--- reference\n{want}"
            );
            Ok(())
        },
    );
}

#[test]
fn reference_agrees_on_the_committed_campus_assertions() {
    // The committed file's verdicts, which `results/reach_golden.json`
    // pins, under the per-class reference too.
    let world = World::build(&ExperimentConfig::campus(1));
    let view = sdm_core::reach_view(
        &world.controller,
        Strategy::HotPotato,
        None,
        &EnforcementOptions::default(),
    );
    let assertions =
        sdm_verify::reach::parse_assertions(include_str!("../../../results/assertions_campus.txt"))
            .expect("campus assertions parse");
    let routes = world.controller.routes();
    let got = check_assertions(&view, routes, &assertions);
    let want = reference_check(&view, routes, &assertions);
    assert_eq!(got.flow_classes, 1302);
    assert_eq!(
        got.to_json().to_compact_string(),
        want.to_json().to_compact_string()
    );
}
