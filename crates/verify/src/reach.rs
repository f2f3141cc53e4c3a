//! Pass 2 — symbolic reachability over the steering graph.
//!
//! [`verify_plan`](crate::verify_plan) proves *structural* invariants; this
//! module answers the question operators actually ask: *can any packet from
//! subnet A reach subnet B without traversing a firewall?* It compiles a
//! deployment — steering graph, routing next hops, policy table, LP weight
//! support — into symbolic transfer functions over **flow classes**
//! (five-tuple predicate sets: address prefixes × port intervals × a
//! protocol bitmask), then checks operator-declared assertions by
//! propagating whole classes through the enforcement path. No packet is
//! ever enumerated: the committed campus assertions split into 1,302 flow
//! classes, and the same file on Waxman-425 into 175,582. Classes are
//! streamed, never collected, and most of the work is shared between
//! them — the egress partition per destination prefix, the chain's stage
//! path per (ingress, rule) pair — so a class costs one allocation-free
//! routed walk, and witness text is rendered only for findings.
//!
//! Three assertion forms are supported (see [`Assertion`]): isolation
//! (`A ⇏ B`), waypointing (`A → B only via FW`) and TTL-bounded loop
//! freedom. Violations are reported as `R0xx` diagnostics
//! ([`ReachCode`]), each carrying the violating flow class, the
//! hop-by-hop path, and — whenever the ingress lies inside a stub — a
//! [`ReplayScenario`] that reproduces the verdict in the simulator.
//!
//! Beyond the converged plan, the checker models the **hazard states**
//! the structural passes cannot see (see [`HazardView`]): a pinned
//! `pinned_next` flow-cache entry outliving a `fail_middlebox` (the stale
//! window between failure and the next epoch's re-steer), and label-table
//! TTL skew. Hazard findings lower into replay scripts that fail the box
//! mid-scenario, so the static verdict is confirmed by the data plane.
//!
//! Everything here is deterministic by construction: ordered containers
//! only (`BTreeSet`, sorted `Vec`s — enforced by `sdm-lint`'s
//! `set-iteration-order` rule), findings sorted and deduplicated exactly
//! like the `V0xx` report.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use sdm_netsim::{FiveTuple, Ipv4Addr, Prefix};
use sdm_policy::{NetworkFunction, TrafficDescriptor};
use sdm_util::json::Json;

use crate::plan::{PlanView, Point, WeightsView};
use crate::witness::{protocol_from_number, ReplayScenario, ReplayStep, StepExpect, WitnessFlow};

/// The full inclusive port interval (the `*` port match).
const FULL_PORT_RANGE: (u16, u16) = (0, u16::MAX);

// ---------------------------------------------------------------------------
// Routing next-hop view
// ---------------------------------------------------------------------------

/// A checker-consumable view of routing: the per-hop forwarding function
/// every router applies. Both the dense all-pairs tables
/// ([`sdm_topology::RoutingTables`]) and the on-demand per-destination
/// rows ([`sdm_topology::DestRoutes`]) implement it, so the same checker
/// runs byte-exact on the campus topology and memory-proportional on the
/// ~21k-node hierarchical one.
pub trait RouteView {
    /// The node `from` forwards to when routing towards `dst`, or `None`
    /// when `dst` is unreachable (or equals `from`).
    fn next_hop(&self, from: u32, dst: u32) -> Option<u32>;
    /// Shortest-path cost, `None` when unreachable.
    fn dist(&self, from: u32, dst: u32) -> Option<u32>;
}

impl RouteView for sdm_topology::RoutingTables {
    fn next_hop(&self, from: u32, dst: u32) -> Option<u32> {
        sdm_topology::RoutingTables::next_hop(
            self,
            sdm_topology::NodeId::from_index(from as usize),
            sdm_topology::NodeId::from_index(dst as usize),
        )
        .map(|n| n.index() as u32)
    }
    fn dist(&self, from: u32, dst: u32) -> Option<u32> {
        sdm_topology::RoutingTables::dist(
            self,
            sdm_topology::NodeId::from_index(from as usize),
            sdm_topology::NodeId::from_index(dst as usize),
        )
    }
}

impl RouteView for sdm_topology::DestRoutes<'_> {
    fn next_hop(&self, from: u32, dst: u32) -> Option<u32> {
        sdm_topology::DestRoutes::next_hop(
            self,
            sdm_topology::NodeId::from_index(from as usize),
            sdm_topology::NodeId::from_index(dst as usize),
        )
        .map(|n| n.index() as u32)
    }
    fn dist(&self, from: u32, dst: u32) -> Option<u32> {
        sdm_topology::DestRoutes::dist(
            self,
            sdm_topology::NodeId::from_index(from as usize),
            sdm_topology::NodeId::from_index(dst as usize),
        )
    }
}

/// Result of following next hops from one router to another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Walk {
    /// Arrived; the nodes visited, endpoints inclusive.
    Arrived(Vec<u32>),
    /// A node was revisited before arrival — a forwarding micro-loop.
    /// Carries the walk up to and including the repeated node.
    Looped(Vec<u32>),
    /// Some hop had no route towards the destination.
    Unreachable,
}

/// Follows `routes` hop by hop from `from` to `to`, bounded by `budget`
/// hops. This is the **single** next-hop traversal shared by the plan
/// verifier's steering-loop pass (V005) and the reach checker, so the two
/// tiers can never disagree about what the routed path is.
pub fn walk_route(routes: &dyn RouteView, from: u32, to: u32, budget: usize) -> Walk {
    let mut path = vec![from];
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    seen.insert(from);
    let mut at = from;
    while at != to {
        let Some(next) = routes.next_hop(at, to) else {
            return Walk::Unreachable;
        };
        path.push(next);
        if !seen.insert(next) {
            return Walk::Looped(path);
        }
        if path.len() > budget {
            return Walk::Looped(path);
        }
        at = next;
    }
    Walk::Arrived(path)
}

// ---------------------------------------------------------------------------
// Flow classes: the symbolic packet domain
// ---------------------------------------------------------------------------

/// A set of IANA protocol numbers as a 256-bit mask. Closed under the
/// boolean operations the class algebra needs; never enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProtoSet([u64; 4]);

impl ProtoSet {
    /// Every protocol.
    pub const ANY: ProtoSet = ProtoSet([u64::MAX; 4]);

    /// The empty set.
    pub const EMPTY: ProtoSet = ProtoSet([0; 4]);

    /// The singleton set `{n}`.
    pub fn single(n: u8) -> ProtoSet {
        let mut words = [0u64; 4];
        words[(n >> 6) as usize] = 1u64 << (n & 63);
        ProtoSet(words)
    }

    /// True if `n` is in the set.
    pub fn contains(self, n: u8) -> bool {
        self.0[(n >> 6) as usize] >> (n & 63) & 1 == 1
    }

    /// Set intersection.
    pub fn intersect(self, other: ProtoSet) -> ProtoSet {
        ProtoSet([
            self.0[0] & other.0[0],
            self.0[1] & other.0[1],
            self.0[2] & other.0[2],
            self.0[3] & other.0[3],
        ])
    }

    /// Set difference `self \ other`.
    pub fn subtract(self, other: ProtoSet) -> ProtoSet {
        ProtoSet([
            self.0[0] & !other.0[0],
            self.0[1] & !other.0[1],
            self.0[2] & !other.0[2],
            self.0[3] & !other.0[3],
        ])
    }

    /// True if no protocol is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == [0; 4]
    }

    /// A representative member, preferring TCP for natural witnesses.
    pub fn representative(self) -> Option<u8> {
        if self.contains(6) {
            return Some(6);
        }
        for (w, word) in self.0.iter().enumerate() {
            if *word != 0 {
                return Some((w as u8) << 6 | word.trailing_zeros() as u8);
            }
        }
        None
    }
}

impl fmt::Display for ProtoSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ProtoSet::ANY {
            return f.write_str("*");
        }
        if self.is_empty() {
            return f.write_str("none");
        }
        match self.representative() {
            Some(n) if ProtoSet::single(n) == *self => match n {
                6 => f.write_str("tcp"),
                17 => f.write_str("udp"),
                other => write!(f, "proto{other}"),
            },
            _ => f.write_str("set"),
        }
    }
}

/// A symbolic set of five-tuples: the product of source/destination
/// prefixes, inclusive port intervals and a protocol set. The checker's
/// unit of work — classes are intersected, subtracted and steered, never
/// enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowClass {
    /// Source address prefix.
    pub src: Prefix,
    /// Destination address prefix.
    pub dst: Prefix,
    /// Inclusive source-port interval.
    pub src_ports: (u16, u16),
    /// Inclusive destination-port interval.
    pub dst_ports: (u16, u16),
    /// Allowed protocols.
    pub protos: ProtoSet,
}

impl FlowClass {
    /// The universe: every five-tuple.
    pub fn any() -> FlowClass {
        FlowClass {
            src: Prefix::ANY,
            dst: Prefix::ANY,
            src_ports: FULL_PORT_RANGE,
            dst_ports: FULL_PORT_RANGE,
            protos: ProtoSet::ANY,
        }
    }

    /// All traffic from `src` to `dst`, any ports, any protocol.
    pub fn between(src: Prefix, dst: Prefix) -> FlowClass {
        FlowClass {
            src,
            dst,
            ..FlowClass::any()
        }
    }

    /// The class matched by a policy descriptor. `PortMatch`/`ProtoMatch`
    /// embed exactly into intervals and protocol sets, so this is lossless.
    pub fn from_descriptor(d: &TrafficDescriptor) -> FlowClass {
        FlowClass {
            src: d.src,
            dst: d.dst,
            src_ports: port_interval(d.src_port),
            dst_ports: port_interval(d.dst_port),
            protos: proto_set(d.proto),
        }
    }

    /// The intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &FlowClass) -> Option<FlowClass> {
        let src = prefix_intersect(self.src, other.src)?;
        let dst = prefix_intersect(self.dst, other.dst)?;
        let src_ports = interval_intersect(self.src_ports, other.src_ports)?;
        let dst_ports = interval_intersect(self.dst_ports, other.dst_ports)?;
        let protos = self.protos.intersect(other.protos);
        if protos.is_empty() {
            return None;
        }
        Some(FlowClass {
            src,
            dst,
            src_ports,
            dst_ports,
            protos,
        })
    }

    /// The set difference `self \ other` as a disjoint union of classes
    /// (the standard difference-of-products decomposition: peel one field
    /// at a time, keeping the remainder wildcarded on later fields). The
    /// result has at most `2·32 + 2·2 + 1` pieces and is sorted, so
    /// downstream reports are deterministic.
    pub fn subtract(&self, other: &FlowClass) -> Vec<FlowClass> {
        let Some(_) = self.intersect(other) else {
            return vec![*self];
        };
        let mut out: Vec<FlowClass> = Vec::new();
        // Field 1: src addresses outside other.src.
        for p in prefix_subtract(self.src, other.src) {
            out.push(FlowClass { src: p, ..*self });
        }
        let src = match prefix_intersect(self.src, other.src) {
            Some(p) => p,
            None => {
                out.sort();
                return out;
            }
        };
        // Field 2: dst addresses outside other.dst (src already narrowed).
        for p in prefix_subtract(self.dst, other.dst) {
            out.push(FlowClass { src, dst: p, ..*self });
        }
        let Some(dst) = prefix_intersect(self.dst, other.dst) else {
            out.sort();
            return out;
        };
        // Field 3: source ports.
        for iv in interval_subtract(self.src_ports, other.src_ports) {
            out.push(FlowClass {
                src,
                dst,
                src_ports: iv,
                ..*self
            });
        }
        let Some(src_ports) = interval_intersect(self.src_ports, other.src_ports) else {
            out.sort();
            return out;
        };
        // Field 4: destination ports.
        for iv in interval_subtract(self.dst_ports, other.dst_ports) {
            out.push(FlowClass {
                src,
                dst,
                src_ports,
                dst_ports: iv,
                ..*self
            });
        }
        let Some(dst_ports) = interval_intersect(self.dst_ports, other.dst_ports) else {
            out.sort();
            return out;
        };
        // Field 5: protocols.
        let protos = self.protos.subtract(other.protos);
        if !protos.is_empty() {
            out.push(FlowClass {
                src,
                dst,
                src_ports,
                dst_ports,
                protos,
            });
        }
        out.sort();
        out
    }

    /// A concrete member of the class, used to seed witnesses. The source
    /// and destination pick the first *host* address of their prefixes
    /// (network base + 1, matching the simulator's host numbering) so a
    /// class aligned to a stub subnet yields an injectable flow.
    pub fn representative(&self) -> FiveTuple {
        FiveTuple {
            src: representative_addr(self.src),
            dst: representative_addr(self.dst),
            src_port: self.src_ports.0,
            dst_port: self.dst_ports.0,
            proto: protocol_from_number(self.protos.representative().unwrap_or(6)),
        }
    }
}

impl fmt::Display for FlowClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show_prefix = |p: Prefix| {
            if p.is_any() {
                "*".to_string()
            } else {
                p.to_string()
            }
        };
        write!(
            f,
            "[src={} dst={} sport={} dport={} proto={}]",
            show_prefix(self.src),
            show_prefix(self.dst),
            show_interval(self.src_ports),
            show_interval(self.dst_ports),
            self.protos
        )
    }
}

fn show_interval(iv: (u16, u16)) -> String {
    if iv == FULL_PORT_RANGE {
        "*".to_string()
    } else if iv.0 == iv.1 {
        format!("{}", iv.0)
    } else {
        format!("{}-{}", iv.0, iv.1)
    }
}

fn representative_addr(p: Prefix) -> Ipv4Addr {
    if p.len() >= 31 {
        p.addr()
    } else {
        Ipv4Addr(p.addr().0 + 1)
    }
}

fn port_interval(m: sdm_policy::PortMatch) -> (u16, u16) {
    match m {
        sdm_policy::PortMatch::Any => FULL_PORT_RANGE,
        sdm_policy::PortMatch::Exact(p) => (p, p),
        sdm_policy::PortMatch::Range(lo, hi) => (lo, hi),
    }
}

fn proto_set(m: sdm_policy::ProtoMatch) -> ProtoSet {
    match m {
        sdm_policy::ProtoMatch::Any => ProtoSet::ANY,
        sdm_policy::ProtoMatch::Is(p) => ProtoSet::single(p.number()),
    }
}

fn prefix_intersect(a: Prefix, b: Prefix) -> Option<Prefix> {
    if !a.overlaps(b) {
        return None;
    }
    Some(if a.len() >= b.len() { a } else { b })
}

/// `a \ b` as a disjoint set of prefixes: empty when `a ⊆ b`, `{a}` when
/// disjoint, otherwise the sibling prefixes peeled off while descending
/// from `a` to `b`.
fn prefix_subtract(a: Prefix, b: Prefix) -> Vec<Prefix> {
    if !a.overlaps(b) {
        return vec![a];
    }
    if a.is_subset_of(b) {
        return Vec::new();
    }
    // b is a strict subset of a: peel siblings.
    let mut out = Vec::new();
    let mut cur = a;
    while cur.len() < b.len() {
        let child_len = cur.len() + 1;
        let bit = 1u32 << (32 - child_len as u32);
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

/// Replaces every prefix in `pieces` by `piece \ cut`, in place and in
/// order. Pieces disjoint from `cut` are kept as they are, without the
/// allocation `prefix_subtract` would make for them.
fn subtract_from_each(pieces: &mut Vec<Prefix>, cut: Prefix) {
    if pieces.iter().all(|p| !p.overlaps(cut)) {
        return;
    }
    let mut out = Vec::with_capacity(pieces.len() + 32);
    for &p in pieces.iter() {
        if p.overlaps(cut) {
            out.extend(prefix_subtract(p, cut));
        } else {
            out.push(p);
        }
    }
    *pieces = out;
}

fn interval_intersect(a: (u16, u16), b: (u16, u16)) -> Option<(u16, u16)> {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

fn interval_subtract(a: (u16, u16), b: (u16, u16)) -> Vec<(u16, u16)> {
    if b.1 < a.0 || b.0 > a.1 {
        return vec![a];
    }
    let mut out = Vec::new();
    if b.0 > a.0 {
        out.push((a.0, b.0 - 1));
    }
    if b.1 < a.1 {
        out.push((b.1 + 1, a.1));
    }
    out
}

// ---------------------------------------------------------------------------
// Assertions
// ---------------------------------------------------------------------------

/// An operator-declared safety assertion over the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assertion {
    /// `A ⇏ B`: no packet sourced in `src` may be delivered to `dst`.
    Isolated {
        /// Source address space.
        src: Prefix,
        /// Destination address space.
        dst: Prefix,
    },
    /// `A → B only via f`: every delivered packet from `src` to `dst`
    /// must traverse a middlebox implementing `via`.
    Waypoint {
        /// Source address space.
        src: Prefix,
        /// Destination address space.
        dst: Prefix,
        /// The function that must be on the path.
        via: NetworkFunction,
    },
    /// Every enforcement path terminates within `ttl` router hops —
    /// TTL-bounded loop freedom.
    LoopFree {
        /// The hop budget (the IP TTL the operator configures).
        ttl: u32,
    },
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |p: Prefix| {
            if p.is_any() {
                "*".to_string()
            } else {
                p.to_string()
            }
        };
        match self {
            Assertion::Isolated { src, dst } => {
                write!(f, "isolate {} -> {}", show(*src), show(*dst))
            }
            Assertion::Waypoint { src, dst, via } => {
                write!(f, "waypoint {} -> {} via {}", show(*src), show(*dst), via)
            }
            Assertion::LoopFree { ttl } => write!(f, "loop-free ttl {ttl}"),
        }
    }
}

/// Parses an assertion file: one assertion per line, `#` comments and
/// blank lines ignored. The grammar matches [`Assertion`]'s `Display`:
///
/// ```text
/// isolate 10.0.0.0/20 -> 10.0.48.0/20
/// waypoint 10.0.0.0/20 -> * via FW
/// loop-free ttl 64
/// ```
pub fn parse_assertions(text: &str) -> Result<Vec<Assertion>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: '{line}'", lineno + 1);
        let words: Vec<&str> = line.split_whitespace().collect();
        let parsed = match words.as_slice() {
            ["isolate", src, "->", dst] => Assertion::Isolated {
                src: parse_prefix(src).map_err(|m| err(&m))?,
                dst: parse_prefix(dst).map_err(|m| err(&m))?,
            },
            ["waypoint", src, "->", dst, "via", via] => Assertion::Waypoint {
                src: parse_prefix(src).map_err(|m| err(&m))?,
                dst: parse_prefix(dst).map_err(|m| err(&m))?,
                via: NetworkFunction::from_abbrev(via)
                    .ok_or_else(|| err("unknown network function"))?,
            },
            ["loop-free", "ttl", ttl] => Assertion::LoopFree {
                ttl: ttl.parse().map_err(|_| err("bad ttl"))?,
            },
            _ => return Err(err("unrecognized assertion")),
        };
        out.push(parsed);
    }
    Ok(out)
}

fn parse_prefix(s: &str) -> Result<Prefix, String> {
    if s == "*" {
        return Ok(Prefix::ANY);
    }
    s.parse()
        .map_err(|_| format!("'{s}' is not an address prefix"))
}

// ---------------------------------------------------------------------------
// The reach view: what the checker consumes
// ---------------------------------------------------------------------------

/// One policy-table rule in symbolic form, in first-match order.
#[derive(Debug, Clone)]
pub struct RuleView {
    /// The policy id.
    pub policy: u32,
    /// The class of five-tuples the rule matches.
    pub class: FlowClass,
    /// The enforcement chain (empty = permit).
    pub chain: Vec<NetworkFunction>,
}

/// The steering strategy, as far as symbolic *support* is concerned: which
/// candidate boxes can a flow of a class be sent to at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyView {
    /// Always the nearest candidate (`members[0]`).
    HotPotato,
    /// Sticky hash over the whole candidate set: any member.
    Random,
    /// The LP solution's positive-weight column members; hot-potato
    /// fallback when no column is installed or it is all-zero.
    LoadBalanced,
}

/// The hazard states to verify in addition to the converged plan.
#[derive(Debug, Clone, Default)]
pub struct HazardView {
    /// The weight columns that were live *before* the most recent
    /// activation — the state stale pinned flows were steered under.
    /// `None` means the current weights are also the pre-swap state.
    pub prev_weights: Option<WeightsView>,
    /// Middleboxes failed in the current state (sorted). Flows pinned
    /// before the failure still carry `pinned_next` entries towards them.
    pub failed_now: Vec<u32>,
}

/// The complete input to [`check_assertions`]: the structural plan view
/// plus the symbolic policy table, ingress attachment points, steering
/// strategy and optional hazard state.
#[derive(Debug, Clone)]
pub struct ReachView {
    /// The structural plan (middleboxes, candidate sets, weights,
    /// options) shared with [`crate::verify_plan`].
    pub plan: PlanView,
    /// The policy table in first-match order.
    pub rules: Vec<RuleView>,
    /// Router node of each stub network's edge router (`stub_routers[s]`
    /// is where proxy `s` sits).
    pub stub_routers: Vec<u32>,
    /// Router node of each gateway.
    pub gateway_routers: Vec<u32>,
    /// The enterprise address space: destinations inside it that lie in
    /// no stub subnet are unroutable; destinations outside it exit via a
    /// gateway.
    pub enterprise: Prefix,
    /// The steering strategy in force.
    pub strategy: StrategyView,
    /// Hazard state to verify, when present.
    pub hazards: Option<HazardView>,
}

impl ReachView {
    /// First-match compilation of `class` against the policy table: the
    /// disjoint pieces of `class`, each tagged with the index of the rule
    /// that governs it (`None` = default permit). Pieces and order are
    /// deterministic.
    fn peel(&self, class: FlowClass) -> Vec<(FlowClass, Option<usize>)> {
        let mut remaining = vec![class];
        let mut next_remaining = Vec::new();
        let mut out: Vec<(FlowClass, Option<usize>)> = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            for piece in remaining.drain(..) {
                match piece.intersect(&rule.class) {
                    Some(hit) => {
                        out.push((hit, Some(i)));
                        next_remaining.extend(piece.subtract(&rule.class));
                    }
                    // Disjoint from the rule: the piece survives whole.
                    None => next_remaining.push(piece),
                }
            }
            std::mem::swap(&mut remaining, &mut next_remaining);
            if remaining.is_empty() {
                break;
            }
        }
        for piece in remaining {
            out.push((piece, None));
        }
        out
    }

    /// Splits `class` by where its sources enter the network: one piece
    /// per overlapping stub proxy, plus (if any source space is left
    /// outside every stub) the gateway ingress for external sources.
    fn ingresses(&self, class: FlowClass) -> Vec<(Ingress, FlowClass)> {
        let mut out = Vec::new();
        let mut external_src = vec![class.src];
        for (s, subnet) in self.plan.stub_subnets.iter().enumerate() {
            if let Some(src) = prefix_intersect(class.src, *subnet) {
                // Traffic that stays inside the subnet never crosses the
                // stub's proxy — it is switched locally, outside the
                // steering fabric this checker models — so peel the
                // stub's own subnet off the destination space.
                for dst in prefix_subtract(class.dst, *subnet) {
                    out.push((
                        Ingress::Stub(s as u32),
                        FlowClass { src, dst, ..class },
                    ));
                }
            }
            subtract_from_each(&mut external_src, *subnet);
        }
        for src in external_src {
            // Sources inside the enterprise but in no stub don't exist;
            // everything else enters through the gateways.
            if src.is_subset_of(self.enterprise) {
                continue;
            }
            for (g, _) in self.gateway_routers.iter().enumerate() {
                out.push((Ingress::Gateway(g as u32), FlowClass { src, ..class }));
            }
        }
        out
    }

    /// Partitions the destination space `dst` by where it can be
    /// delivered: one part per overlapping stub, then the external parts
    /// (enterprise space behind no stub is unroutable and dropped).
    fn egress_parts(&self, dst: Prefix) -> Vec<(Egress, Prefix)> {
        let mut out = Vec::new();
        let mut rest = vec![dst];
        for (s, subnet) in self.plan.stub_subnets.iter().enumerate() {
            let Some(part) = prefix_intersect(dst, *subnet) else {
                continue;
            };
            out.push((Egress::Stub(s as u32), part));
            subtract_from_each(&mut rest, *subnet);
        }
        if !self.gateway_routers.is_empty() {
            for part in rest {
                if !part.is_subset_of(self.enterprise) {
                    out.push((Egress::External, part));
                }
            }
        }
        out
    }

    fn ingress_router(&self, ingress: Ingress) -> Option<u32> {
        match ingress {
            Ingress::Stub(s) => self.stub_routers.get(s as usize).copied(),
            Ingress::Gateway(g) => self.gateway_routers.get(g as usize).copied(),
        }
    }

    fn ingress_point(&self, ingress: Ingress) -> Point {
        match ingress {
            Ingress::Stub(s) => Point::Proxy(s),
            Ingress::Gateway(g) => Point::Gateway(g),
        }
    }

    fn egress_router(&self, egress: Egress) -> Option<u32> {
        match egress {
            Egress::Stub(s) => self.stub_routers.get(s as usize).copied(),
            // External traffic exits via the first gateway (symbolically
            // any gateway reaches the same external world).
            Egress::External => self.gateway_routers.first().copied(),
        }
    }
}

/// Where a flow class enters enforcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ingress {
    Stub(u32),
    Gateway(u32),
}

impl fmt::Display for Ingress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ingress::Stub(s) => write!(f, "proxy(s{s})"),
            Ingress::Gateway(g) => write!(f, "gw({g})"),
        }
    }
}

/// Where a flow class leaves the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Egress {
    Stub(u32),
    External,
}

// ---------------------------------------------------------------------------
// Findings and report
// ---------------------------------------------------------------------------

/// Every violation class the reach checker can report, with a stable
/// wire code (`R0xx`). Codes are part of the JSON report format; add new
/// classes at the end and never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReachCode {
    /// An `isolate A -> B` assertion is refuted: a flow class from `A` is
    /// delivered to `B`.
    IsolationBreach,
    /// A `waypoint A -> B via f` assertion is refuted: a flow class is
    /// delivered without any middlebox implementing `f` on its path.
    WaypointBypass,
    /// A `loop-free ttl N` assertion is refuted: an enforcement path
    /// loops, or exceeds the hop budget before delivery.
    TtlExceeded,
    /// A flow class blackholes: a steering stage on its path has no
    /// available candidate, so matching packets are dropped, not
    /// enforced.
    BlackholeClass,
    /// Hazard: a flow pinned (`pinned_next`) before a weight swap or
    /// middlebox failure still targets a box that is now failed — the
    /// stale-flow-cache window between failure and re-steer.
    StalePinnedFlow,
    /// Hazard: the label-table TTL exceeds the flow-cache TTL for a
    /// label-switched class, so a stale `⟨src|l, a⟩` binding can outlive
    /// its flow entry and collide with a reallocated label.
    LabelTtlSkew,
}

impl ReachCode {
    /// The stable wire code (`R0xx`).
    pub fn as_str(self) -> &'static str {
        match self {
            ReachCode::IsolationBreach => "R001",
            ReachCode::WaypointBypass => "R002",
            ReachCode::TtlExceeded => "R003",
            ReachCode::BlackholeClass => "R004",
            ReachCode::StalePinnedFlow => "R005",
            ReachCode::LabelTtlSkew => "R006",
        }
    }

    /// Human-readable name matching the enum variant.
    pub fn name(self) -> &'static str {
        match self {
            ReachCode::IsolationBreach => "isolation-breach",
            ReachCode::WaypointBypass => "waypoint-bypass",
            ReachCode::TtlExceeded => "ttl-exceeded",
            ReachCode::BlackholeClass => "blackhole-class",
            ReachCode::StalePinnedFlow => "stale-pinned-flow",
            ReachCode::LabelTtlSkew => "label-ttl-skew",
        }
    }
}

impl fmt::Display for ReachCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.as_str(), self.name())
    }
}

/// The witness attached to a finding: the violating flow class, the
/// hop-by-hop path that exhibits it, and (when the ingress is a stub
/// proxy) a simulator replay script.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachWitness {
    /// The violating flow class.
    pub class: FlowClass,
    /// Human-readable hop-by-hop path: steer points, middleboxes and the
    /// router nodes walked between them.
    pub path: Vec<String>,
    /// The executable counterexample, when one can be injected.
    pub scenario: Option<ReplayScenario>,
}

/// One reach-tier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachFinding {
    /// The violation class.
    pub code: ReachCode,
    /// The assertion (or hazard) the finding is about.
    pub subject: String,
    /// Human-readable explanation.
    pub detail: String,
    /// The witness, when the violation is exhibitable.
    pub witness: Option<ReachWitness>,
}

impl fmt::Display for ReachFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.code, self.subject, self.detail)?;
        if let Some(w) = &self.witness {
            write!(f, " [witness {} via {}]", w.class, w.path.join(" "))?;
        }
        Ok(())
    }
}

/// Per-assertion verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertionResult {
    /// The assertion, rendered in the input grammar.
    pub assertion: String,
    /// True when no finding refutes it.
    pub holds: bool,
    /// Number of flow classes examined while checking it.
    pub classes_checked: usize,
}

/// The checker's result: per-assertion verdicts plus every finding,
/// sorted deterministically by (code, subject, detail).
#[derive(Debug, Clone, Default)]
pub struct ReachReport {
    /// One entry per input assertion, in input order.
    pub results: Vec<AssertionResult>,
    /// Every finding, sorted and deduplicated.
    pub findings: Vec<ReachFinding>,
    /// Total flow classes examined.
    pub flow_classes: usize,
}

impl ReachReport {
    /// True if every assertion holds and no hazard fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// True if a finding with this code is present.
    pub fn has_code(&self, code: ReachCode) -> bool {
        self.findings.iter().any(|f| f.code == code)
    }

    /// Every replayable scenario in the report, in finding order.
    pub fn scenarios(&self) -> Vec<ReplayScenario> {
        self.findings
            .iter()
            .filter_map(|f| f.witness.as_ref().and_then(|w| w.scenario.clone()))
            .collect()
    }

    /// The JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("verifier", Json::from("sdm-reach")),
            ("flow_classes", Json::from(self.flow_classes)),
            ("violations", Json::from(self.findings.len())),
            (
                "assertions",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("assertion", Json::from(r.assertion.as_str())),
                                ("holds", Json::Bool(r.holds)),
                                ("classes_checked", Json::from(r.classes_checked)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|d| {
                            let witness = match &d.witness {
                                None => Json::Null,
                                Some(w) => Json::obj([
                                    ("class", Json::from(w.class.to_string())),
                                    (
                                        "path",
                                        Json::Arr(
                                            w.path
                                                .iter()
                                                .map(|h| Json::from(h.as_str()))
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "scenario",
                                        w.scenario
                                            .as_ref()
                                            .map(ReplayScenario::to_json)
                                            .unwrap_or(Json::Null),
                                    ),
                                ]),
                            };
                            Json::obj([
                                ("code", Json::from(d.code.as_str())),
                                ("name", Json::from(d.code.name())),
                                ("subject", Json::from(d.subject.as_str())),
                                ("detail", Json::from(d.detail.as_str())),
                                ("witness", witness),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for ReachReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reach: {} assertion(s), {} flow class(es), {} finding(s)",
            self.results.len(),
            self.flow_classes,
            self.findings.len()
        )?;
        for r in &self.results {
            writeln!(
                f,
                "  {} {} ({} classes)",
                if r.holds { "HOLDS  " } else { "REFUTED" },
                r.assertion,
                r.classes_checked
            )?;
        }
        for d in &self.findings {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

/// One hop of an enforcement path, in compact form. Hops become text
/// (`route[n1->n2]`, `mbox(m3)`, `deliver@n7`, …) only when a finding
/// carries them as its witness path.
enum Hop {
    /// The class enters at an ingress point attached to a router.
    Enter(Ingress, u32),
    /// The middlebox the class sits at applies the next chain function.
    Apply(NetworkFunction, u32),
    /// A routed walk, endpoints inclusive.
    Route(Vec<u32>),
    /// A routed walk that looped, up to and including the repeated node.
    Loop(Vec<u32>),
    /// The class is steered into a middlebox.
    Mbox(u32),
    /// The class is delivered at its egress router.
    Deliver(u32),
}

impl fmt::Display for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hop::Enter(ingress, n) => write!(f, "{ingress}@n{n}"),
            Hop::Apply(func, m) => write!(f, "apply({func})@m{m}"),
            Hop::Route(path) => write_walk(f, "route", path),
            Hop::Loop(path) => write_walk(f, "loop", path),
            Hop::Mbox(m) => write!(f, "mbox(m{m})"),
            Hop::Deliver(n) => write!(f, "deliver@n{n}"),
        }
    }
}

fn write_walk(f: &mut fmt::Formatter<'_>, kind: &str, path: &[u32]) -> fmt::Result {
    write!(f, "{kind}[")?;
    for (i, n) in path.iter().enumerate() {
        if i > 0 {
            f.write_str("->")?;
        }
        write!(f, "n{n}")?;
    }
    f.write_str("]")
}

/// The part of an enforcement path that depends only on the ingress and
/// the governing rule: each chain stage steered in turn (deterministically
/// to the first member of its support) and the routed walks between the
/// stage routers. Every flow class of one (ingress, rule) pair shares it;
/// only the final leg to the egress router differs.
enum StagePath {
    /// Every stage was steered.
    Steered(Stages),
    /// A steering stage had no available candidate.
    Blackhole(NetworkFunction),
    /// A routed walk between two stage routers looped; the hops so far.
    RoutedLoop(Vec<Hop>),
    /// Routing has no path between two stage routers, or the ingress
    /// has no router.
    NoRoute,
}

/// A fully steered stage path.
struct Stages {
    /// Where the final leg starts: the last stage's router, or the
    /// ingress router for an empty chain.
    at_router: u32,
    /// Middlebox visited at each routed chain stage.
    stages: Vec<u32>,
    /// Router hops walked up to `at_router`.
    router_hops: usize,
    /// The union of every stage's *support* (all boxes the flow could
    /// have been sent to under the strategy), for sound bypass claims.
    support_union: Vec<u32>,
    /// The hops up to `at_router`.
    hops: Vec<Hop>,
}

/// How a routed walk ends, as [`walk_route`] classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Arrived after this many router hops.
    Arrived(usize),
    /// Revisited a node, or ran past the hop budget, before arriving.
    Looped,
    /// Some hop had no route.
    Unreachable,
}

/// The outcome of `walk_route(routes, from, to, budget)` without the
/// walk: no path, no visited set, no allocation. Next hops are a function
/// of (node, destination), so a walk that revisits a node cycles from
/// then on without arriving or losing its route, and the budget check
/// `walk_route` applies after every step ends it as `Looped` too.
fn leg(routes: &dyn RouteView, from: u32, to: u32, budget: usize) -> Leg {
    let mut at = from;
    let mut nodes = 1usize;
    while at != to {
        let Some(next) = routes.next_hop(at, to) else {
            return Leg::Unreachable;
        };
        nodes += 1;
        if nodes > budget {
            return Leg::Looped;
        }
        at = next;
    }
    Leg::Arrived(nodes - 1)
}

/// One fully split piece of traffic: a single ingress, a single egress
/// kind and a single governing rule (an index into [`ReachView::rules`];
/// `None` = default permit).
struct Piece {
    ingress: Ingress,
    egress: Egress,
    class: FlowClass,
    rule: Option<usize>,
}

/// The trace of one flow class: its stage path (an index into
/// [`Checker::stage_paths`]) followed by the final leg.
enum Trace {
    /// Delivered at the egress router after `router_hops` router hops;
    /// the stage path is [`StagePath::Steered`].
    Completed { path: usize, router_hops: usize },
    /// A steering stage had no available candidate.
    Blackhole(NetworkFunction),
    /// A routed walk looped, between two stage routers or on the final
    /// leg.
    RoutedLoop { path: usize },
    /// Routing has no path.
    NoRoute,
}

/// The working state of one [`check_assertions`] call: a lookup index
/// over the view's candidate sets and the memos its flow classes share.
/// Nothing outlives the call.
///
/// The checker's cost is per distinct destination prefix (the egress
/// partition), per (ingress, rule) pair (the stage path) and per routed
/// final leg (an allocation-free walk), not per flow class; witness text
/// is rendered only for findings.
struct Checker<'a> {
    view: &'a ReachView,
    routes: &'a dyn RouteView,
    /// Hop budget of every routed walk.
    budget: usize,
    /// Index into `view.plan.candidates` of the first set for each
    /// (point, function) looked up so far; `None` when there is none.
    candidates: BTreeMap<(Point, NetworkFunction), Option<usize>>,
    /// The egress partition of each destination prefix split so far.
    egress_parts: BTreeMap<Prefix, Rc<[(Egress, Prefix)]>>,
    /// Position in `stage_paths` of each (ingress, rule) pair, at
    /// `ingress slot × (rules + 1) + rule slot`; `u32::MAX` until traced.
    stage_slots: Vec<u32>,
    /// The stage paths traced so far.
    stage_paths: Vec<StagePath>,
}

impl<'a> Checker<'a> {
    fn new(view: &'a ReachView, routes: &'a dyn RouteView) -> Self {
        let ingress_slots = view.plan.stub_subnets.len() + view.gateway_routers.len();
        Checker {
            view,
            routes,
            budget: view.plan.node_count.max(2),
            candidates: BTreeMap::new(),
            egress_parts: BTreeMap::new(),
            stage_slots: vec![u32::MAX; ingress_slots * (view.rules.len() + 1)],
            stage_paths: Vec::new(),
        }
    }

    /// The members of the first candidate set for function `f` at
    /// `point` (empty when there is none).
    fn candidates_for(&mut self, point: Point, f: NetworkFunction) -> &'a [u32] {
        let view = self.view;
        let set = *self.candidates.entry((point, f)).or_insert_with(|| {
            view.plan
                .candidates
                .iter()
                .position(|c| c.point == point && c.function == f)
        });
        set.map_or(&[], |i| view.plan.candidates[i].members.as_slice())
    }

    /// The set of middleboxes a fresh flow can be steered to at `point`
    /// for chain stage `next_index` of `policy` (function `f`), under
    /// `weights`. Sorted; empty when the decision blackholes.
    fn support(
        &mut self,
        point: Point,
        policy: u32,
        next_index: u16,
        f: NetworkFunction,
        weights: Option<&WeightsView>,
        include_failed: bool,
    ) -> Vec<u32> {
        let members = self.candidates_for(point, f);
        let middleboxes = &self.view.plan.middleboxes;
        let alive =
            |m: &u32| include_failed || middleboxes.get(*m as usize).is_some_and(|mb| mb.available);
        let hot_potato = || -> Vec<u32> { members.iter().copied().filter(alive).take(1).collect() };
        let mut out = match self.view.strategy {
            StrategyView::HotPotato => hot_potato(),
            StrategyView::Random => members.iter().copied().filter(alive).collect(),
            StrategyView::LoadBalanced => {
                let col = weights.and_then(|w| {
                    w.columns.iter().find(|c| {
                        c.point == point && c.policy == policy && c.next_index == next_index
                    })
                });
                let positive: Vec<u32> = col
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
                    hot_potato()
                } else {
                    positive
                }
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Visits every (ingress, egress, rule) piece of the traffic
    /// `src -> dst` — split by ingress, peeled by the policy table, then
    /// partitioned by egress — in a deterministic order, without
    /// collecting them. Returns the number of pieces visited.
    fn for_each_piece(
        &mut self,
        src: Prefix,
        dst: Prefix,
        mut visit: impl FnMut(&mut Self, Piece),
    ) -> usize {
        let view = self.view;
        let mut pieces = 0usize;
        for (ingress, in_class) in view.ingresses(FlowClass::between(src, dst)) {
            for (class, rule) in view.peel(in_class) {
                let parts = Rc::clone(
                    self.egress_parts
                        .entry(class.dst)
                        .or_insert_with(|| view.egress_parts(class.dst).into()),
                );
                for &(egress, dst) in parts.iter() {
                    pieces += 1;
                    let class = FlowClass { dst, ..class };
                    visit(
                        self,
                        Piece {
                            ingress,
                            egress,
                            class,
                            rule,
                        },
                    );
                }
            }
        }
        pieces
    }

    /// The position in `stage_paths` of the stage path of `rule` from
    /// `ingress`, tracing it on first use.
    fn stage_path(&mut self, ingress: Ingress, rule: Option<usize>) -> usize {
        let ingress_slot = match ingress {
            Ingress::Stub(s) => s as usize,
            Ingress::Gateway(g) => self.view.plan.stub_subnets.len() + g as usize,
        };
        let slot = ingress_slot * (self.view.rules.len() + 1) + rule.map_or(0, |r| r + 1);
        if self.stage_slots[slot] == u32::MAX {
            let path = self.trace_stages(ingress, rule);
            self.stage_slots[slot] = self.stage_paths.len() as u32;
            self.stage_paths.push(path);
        }
        self.stage_slots[slot] as usize
    }

    /// Steers the chain of `rule` from `ingress`, stage by stage.
    fn trace_stages(&mut self, ingress: Ingress, rule: Option<usize>) -> StagePath {
        let view = self.view;
        let rule = rule.map(|r| &view.rules[r]);
        let chain: &[NetworkFunction] = rule.map_or(&[], |r| r.chain.as_slice());
        let policy = rule.map_or(0, |r| r.policy);
        let weights = view.plan.weights.as_ref();

        let Some(mut at_router) = view.ingress_router(ingress) else {
            return StagePath::NoRoute;
        };
        let mut point = view.ingress_point(ingress);
        let mut hops = vec![Hop::Enter(ingress, at_router)];
        let mut stages: Vec<u32> = Vec::new();
        let mut support_union: BTreeSet<u32> = BTreeSet::new();
        let mut router_hops = 0usize;

        for (stage_index, &f) in chain.iter().enumerate() {
            // A box implementing the next function applies it locally.
            if let Point::Middlebox(m) = point {
                if view.plan.middleboxes[m as usize].functions.contains(&f) {
                    hops.push(Hop::Apply(f, m));
                    continue;
                }
            }
            let support = self.support(point, policy, stage_index as u16, f, weights, false);
            let Some(&target) = support.first() else {
                return StagePath::Blackhole(f);
            };
            support_union.extend(support.iter().copied());
            let target_router = view.plan.middleboxes[target as usize].router as u32;
            match walk_route(self.routes, at_router, target_router, self.budget) {
                Walk::Arrived(path) => {
                    router_hops += path.len().saturating_sub(1);
                    hops.push(Hop::Route(path));
                }
                Walk::Looped(path) => {
                    hops.push(Hop::Loop(path));
                    return StagePath::RoutedLoop(hops);
                }
                Walk::Unreachable => return StagePath::NoRoute,
            }
            hops.push(Hop::Mbox(target));
            stages.push(target);
            at_router = target_router;
            point = Point::Middlebox(target);
        }
        StagePath::Steered(Stages {
            at_router,
            stages,
            router_hops,
            support_union: support_union.into_iter().collect(),
            hops,
        })
    }

    /// Traces one flow class of `rule` from `ingress` to `egress_router`.
    fn trace(&mut self, ingress: Ingress, rule: Option<usize>, egress_router: u32) -> Trace {
        let path = self.stage_path(ingress, rule);
        match &self.stage_paths[path] {
            StagePath::Steered(st) => {
                match leg(self.routes, st.at_router, egress_router, self.budget) {
                    Leg::Arrived(hops) => Trace::Completed {
                        path,
                        router_hops: st.router_hops + hops,
                    },
                    Leg::Looped => Trace::RoutedLoop { path },
                    Leg::Unreachable => Trace::NoRoute,
                }
            }
            StagePath::Blackhole(f) => Trace::Blackhole(*f),
            StagePath::RoutedLoop(_) => Trace::RoutedLoop { path },
            StagePath::NoRoute => Trace::NoRoute,
        }
    }

    /// The stages of a completed trace's stage path.
    fn stages(&self, path: usize) -> &Stages {
        match &self.stage_paths[path] {
            StagePath::Steered(st) => st,
            _ => unreachable!("only a steered stage path completes"),
        }
    }

    /// The witness text of a completed or looping trace: the stage hops,
    /// then the final leg walked again with [`walk_route`].
    fn witness_hops(&self, path: usize, egress_router: u32) -> Vec<String> {
        match &self.stage_paths[path] {
            StagePath::Steered(st) => {
                let mut hops: Vec<String> = st.hops.iter().map(Hop::to_string).collect();
                match walk_route(self.routes, st.at_router, egress_router, self.budget) {
                    Walk::Arrived(walk) => {
                        hops.push(Hop::Route(walk).to_string());
                        hops.push(Hop::Deliver(egress_router).to_string());
                    }
                    Walk::Looped(walk) => hops.push(Hop::Loop(walk).to_string()),
                    Walk::Unreachable => {}
                }
                hops
            }
            StagePath::RoutedLoop(hops) => hops.iter().map(Hop::to_string).collect(),
            StagePath::Blackhole(_) | StagePath::NoRoute => Vec::new(),
        }
    }

    fn check_isolation(
        &mut self,
        src: Prefix,
        dst: Prefix,
        assertion: &Assertion,
        findings: &mut Vec<ReachFinding>,
    ) -> usize {
        self.for_each_piece(src, dst, |c, piece| {
            let Some(out_router) = c.view.egress_router(piece.egress) else {
                return;
            };
            let Piece {
                ingress,
                class,
                rule,
                ..
            } = piece;
            match c.trace(ingress, rule, out_router) {
                Trace::Completed { path, .. } => {
                    let scenario = make_scenario(
                        c.view,
                        ingress,
                        &class,
                        c.stages(path),
                        ReachCode::IsolationBreach,
                        assertion,
                    );
                    findings.push(ReachFinding {
                        code: ReachCode::IsolationBreach,
                        subject: assertion.to_string(),
                        detail: format!(
                            "flow class {class} from {ingress} is delivered ({}); \
nothing on its path drops it",
                            match rule {
                                Some(r) => format!("policy p{}", c.view.rules[r].policy),
                                None => "default permit".to_string(),
                            }
                        ),
                        witness: Some(ReachWitness {
                            class,
                            path: c.witness_hops(path, out_router),
                            scenario,
                        }),
                    });
                }
                Trace::Blackhole(stage) => {
                    findings.push(blackhole_finding(assertion, &class, stage));
                }
                // Looping or unroutable traffic is not *delivered*, so the
                // isolation assertion is not refuted by it.
                Trace::RoutedLoop { .. } | Trace::NoRoute => {}
            }
        })
    }

    fn check_waypoint(
        &mut self,
        src: Prefix,
        dst: Prefix,
        via: NetworkFunction,
        assertion: &Assertion,
        findings: &mut Vec<ReachFinding>,
    ) -> usize {
        self.for_each_piece(src, dst, |c, piece| {
            let Some(out_router) = c.view.egress_router(piece.egress) else {
                return;
            };
            let Piece {
                ingress,
                class,
                rule,
                ..
            } = piece;
            let rule_view = rule.map(|r| &c.view.rules[r]);
            let chain_has_via = rule_view.is_some_and(|r| r.chain.contains(&via));
            match c.trace(ingress, rule, out_router) {
                Trace::Completed { path, .. } => {
                    if chain_has_via {
                        return; // every support member of the via stage implements it
                    }
                    // Delivered without the function on its chain: bypass.
                    // The claim "no box implementing `via` processed it" is
                    // only sound for boxes outside every stage's support.
                    let stages = c.stages(path);
                    let avoided: Vec<u32> = c
                        .view
                        .plan
                        .middleboxes
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.functions.contains(&via))
                        .map(|(i, _)| i as u32)
                        .filter(|m| !stages.support_union.contains(m))
                        .collect();
                    let scenario = make_bypass_scenario(c.view, ingress, &class, stages, &avoided);
                    findings.push(ReachFinding {
                        code: ReachCode::WaypointBypass,
                        subject: assertion.to_string(),
                        detail: format!(
                            "flow class {class} from {ingress} is delivered under {} \
whose chain does not include {via}",
                            match rule_view {
                                Some(r) => format!("policy p{}", r.policy),
                                None => "the default permit".to_string(),
                            }
                        ),
                        witness: Some(ReachWitness {
                            class,
                            path: c.witness_hops(path, out_router),
                            scenario,
                        }),
                    });
                }
                Trace::Blackhole(stage) => {
                    findings.push(blackhole_finding(assertion, &class, stage));
                }
                Trace::RoutedLoop { .. } | Trace::NoRoute => {}
            }
        })
    }

    fn check_loop_free(
        &mut self,
        ttl: u32,
        assertion: &Assertion,
        findings: &mut Vec<ReachFinding>,
    ) -> usize {
        // Loop freedom quantifies over *all* enforced traffic: every
        // piece of the universe, from every ingress it can enter at, under
        // the rule that governs it (default-permit pieces follow plain
        // shortest paths; the rules' pieces follow their chains).
        self.for_each_piece(Prefix::ANY, Prefix::ANY, |c, piece| {
            let Some(out_router) = c.view.egress_router(piece.egress) else {
                return;
            };
            let Piece {
                ingress,
                class,
                rule,
                ..
            } = piece;
            match c.trace(ingress, rule, out_router) {
                Trace::Completed { path, router_hops } => {
                    if router_hops as u32 > ttl {
                        findings.push(ReachFinding {
                            code: ReachCode::TtlExceeded,
                            subject: assertion.to_string(),
                            detail: format!(
                                "flow class {class} from {ingress} needs {router_hops} router \
hops, exceeding the ttl budget {ttl}"
                            ),
                            witness: Some(ReachWitness {
                                class,
                                path: c.witness_hops(path, out_router),
                                scenario: None,
                            }),
                        });
                    }
                }
                Trace::RoutedLoop { path } => {
                    findings.push(ReachFinding {
                        code: ReachCode::TtlExceeded,
                        subject: assertion.to_string(),
                        detail: format!(
                            "flow class {class} from {ingress} enters a routed \
forwarding loop; packets die by TTL, never by delivery"
                        ),
                        witness: Some(ReachWitness {
                            class,
                            path: c.witness_hops(path, out_router),
                            scenario: None,
                        }),
                    });
                }
                Trace::Blackhole(stage) => {
                    findings.push(blackhole_finding(assertion, &class, stage));
                }
                Trace::NoRoute => {}
            }
        })
    }

    /// Hazard pass: stale pinned flows across a weight swap or failure,
    /// and label-TTL skew. Runs over every policy rule's class.
    fn check_hazards(&mut self, findings: &mut Vec<ReachFinding>) {
        let view = self.view;
        let Some(hazards) = &view.hazards else { return };

        // R006: label-table TTL skew affects every label-switched class.
        if let Some(o) = &view.plan.options {
            if o.label_ttl > o.flow_ttl {
                for rule in view.rules.iter().filter(|r| !r.chain.is_empty()) {
                    findings.push(ReachFinding {
                        code: ReachCode::LabelTtlSkew,
                        subject: format!("policy(p{})", rule.policy),
                        detail: format!(
                            "label-switched class {} rides labels with ttl {} while \
its flow entry expires after {}; a reallocated label can collide with the stale \
⟨src|l, a⟩ binding mid-path",
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
        }

        // R005: a flow steered and pinned under the pre-hazard state whose
        // pinned target is now failed. The pre-hazard support is computed
        // with the previous weights and *including* now-failed boxes.
        if hazards.failed_now.is_empty() {
            return;
        }
        let prev_weights = hazards
            .prev_weights
            .as_ref()
            .or(view.plan.weights.as_ref());
        for rule in view.rules.iter().filter(|r| !r.chain.is_empty()) {
            for (ingress, class) in view.ingresses(rule.class) {
                let point = view.ingress_point(ingress);
                let f = rule.chain[0];
                let prev_support = self.support(point, rule.policy, 0, f, prev_weights, true);
                let stale: Vec<u32> = prev_support
                    .iter()
                    .copied()
                    .filter(|m| hazards.failed_now.binary_search(m).is_ok())
                    .collect();
                if stale.is_empty() {
                    continue;
                }
                // A deterministic replay needs the pre-hazard pin target to
                // be forced: only a singleton support pins predictably.
                let scenario = if prev_support.len() == 1 {
                    make_stale_pin_scenario(ingress, &class, prev_support[0])
                } else {
                    None
                };
                findings.push(ReachFinding {
                    code: ReachCode::StalePinnedFlow,
                    subject: format!("{point} policy(p{})", rule.policy),
                    detail: format!(
                        "flows of class {class} pinned before the hazard target {} \
for {f}; {} now failed — pinned packets drop until the flow entry expires or the \
next epoch re-steers",
                        join_boxes(&prev_support),
                        join_boxes(&stale),
                    ),
                    witness: Some(ReachWitness {
                        class,
                        path: vec![format!("{point}"), format!("pinned->m{}", stale[0])],
                        scenario,
                    }),
                });
            }
        }
    }
}

/// Checks `assertions` against the deployment and returns the sorted
/// report. `routes` must be the same next-hop view the simulator's
/// routers use ([`RouteView`]).
pub fn check_assertions(
    view: &ReachView,
    routes: &dyn RouteView,
    assertions: &[Assertion],
) -> ReachReport {
    let mut checker = Checker::new(view, routes);
    let mut findings: Vec<ReachFinding> = Vec::new();
    let mut results: Vec<AssertionResult> = Vec::new();
    let mut flow_classes = 0usize;

    for assertion in assertions {
        let before = findings.len();
        let checked = match assertion {
            Assertion::Isolated { src, dst } => {
                checker.check_isolation(*src, *dst, assertion, &mut findings)
            }
            Assertion::Waypoint { src, dst, via } => {
                checker.check_waypoint(*src, *dst, *via, assertion, &mut findings)
            }
            Assertion::LoopFree { ttl } => checker.check_loop_free(*ttl, assertion, &mut findings),
        };
        flow_classes += checked;
        results.push(AssertionResult {
            assertion: assertion.to_string(),
            holds: findings.len() == before,
            classes_checked: checked,
        });
    }

    checker.check_hazards(&mut findings);

    findings.sort_by(|a, b| {
        (a.code, &a.subject, &a.detail).cmp(&(b.code, &b.subject, &b.detail))
    });
    findings.dedup_by(|a, b| a.code == b.code && a.subject == b.subject && a.detail == b.detail);
    ReachReport {
        results,
        findings,
        flow_classes,
    }
}

fn blackhole_finding(assertion: &Assertion, class: &FlowClass, stage: NetworkFunction) -> ReachFinding {
    ReachFinding {
        code: ReachCode::BlackholeClass,
        subject: assertion.to_string(),
        detail: format!(
            "flow class {class} blackholes: steering stage {stage} has no \
available candidate middlebox"
        ),
        witness: Some(ReachWitness {
            class: *class,
            path: Vec::new(),
            scenario: None,
        }),
    }
}

fn join_boxes(boxes: &[u32]) -> String {
    boxes
        .iter()
        .map(|m| format!("m{m}"))
        .collect::<Vec<_>>()
        .join(",")
}

// ---------------------------------------------------------------------------
// Witness lowering
// ---------------------------------------------------------------------------

/// Packets per injection: enough to survive batching corners, small
/// enough to keep replay instant.
const WITNESS_PACKETS: u64 = 8;

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

/// A delivery witness (isolation breach): inject and expect delivery,
/// with every deterministic stage box required to process the flow.
fn make_scenario(
    view: &ReachView,
    ingress: Ingress,
    class: &FlowClass,
    trace: &Stages,
    code: ReachCode,
    assertion: &Assertion,
) -> Option<ReplayScenario> {
    let Ingress::Stub(stub) = ingress else {
        return None; // gateway ingress cannot be injected at a proxy
    };
    // Per-stage processing is only a sound expectation when the strategy
    // is deterministic (each stage's support was a singleton).
    let deterministic = trace.support_union.len() == trace.stages.len()
        && view.strategy != StrategyView::Random;
    let must_process = if deterministic {
        trace.stages.clone()
    } else {
        Vec::new()
    };
    Some(ReplayScenario {
        name: format!("{assertion} :: {class} @ s{stub}"),
        code: code.as_str().to_string(),
        stub,
        flow: witness_flow(class),
        steps: vec![ReplayStep::Inject {
            packets: WITNESS_PACKETS,
            expect: StepExpect {
                delivered: true,
                dropped_failed: false,
                must_process,
                must_not_process: Vec::new(),
            },
        }],
    })
}

/// A bypass witness: inject, expect delivery, and require that no box in
/// `avoided` (implementers of the waypoint function outside every stage
/// support) processes a packet.
fn make_bypass_scenario(
    view: &ReachView,
    ingress: Ingress,
    class: &FlowClass,
    trace: &Stages,
    avoided: &[u32],
) -> Option<ReplayScenario> {
    let Ingress::Stub(stub) = ingress else {
        return None;
    };
    let deterministic = trace.support_union.len() == trace.stages.len()
        && view.strategy != StrategyView::Random;
    Some(ReplayScenario {
        name: format!("waypoint-bypass :: {class} @ s{stub}"),
        code: ReachCode::WaypointBypass.as_str().to_string(),
        stub,
        flow: witness_flow(class),
        steps: vec![ReplayStep::Inject {
            packets: WITNESS_PACKETS,
            expect: StepExpect {
                delivered: true,
                dropped_failed: false,
                must_process: if deterministic {
                    trace.stages.clone()
                } else {
                    Vec::new()
                },
                must_not_process: avoided.to_vec(),
            },
        }],
    })
}

/// A stale-pin hazard witness: inject while `target` is alive (the flow
/// pins to it), fail it, inject again and expect `dropped_failed` to
/// rise; restore to leave the world clean.
fn make_stale_pin_scenario(
    ingress: Ingress,
    class: &FlowClass,
    target: u32,
) -> Option<ReplayScenario> {
    let Ingress::Stub(stub) = ingress else {
        return None;
    };
    Some(ReplayScenario {
        name: format!("stale-pin m{target} :: {class} @ s{stub}"),
        code: ReachCode::StalePinnedFlow.as_str().to_string(),
        stub,
        flow: witness_flow(class),
        steps: vec![
            ReplayStep::Inject {
                packets: WITNESS_PACKETS,
                expect: StepExpect {
                    delivered: true,
                    dropped_failed: false,
                    must_process: vec![target],
                    must_not_process: Vec::new(),
                },
            },
            ReplayStep::FailMbox(target),
            ReplayStep::Inject {
                packets: WITNESS_PACKETS,
                expect: StepExpect {
                    delivered: false,
                    dropped_failed: true,
                    // The stale pin still forwards every packet *to* the
                    // dead box (its receive counter rises); they die
                    // there instead of being re-steered.
                    must_process: vec![target],
                    must_not_process: Vec::new(),
                },
            },
            ReplayStep::RestoreMbox(target),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CandidateSet, ChainView, MboxView, OptionsView};
    use sdm_policy::NetworkFunction::*;

    fn prefix(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    // -- flow-class algebra --------------------------------------------

    #[test]
    fn prefix_subtract_peels_siblings() {
        let a = prefix("10.0.0.0/8");
        let b = prefix("10.0.48.0/20");
        let pieces = prefix_subtract(a, b);
        // 12 sibling prefixes (one per bit between /8 and /20).
        assert_eq!(pieces.len(), 12);
        // Disjoint, none contains b, and together with b they cover a.
        let total: u64 = pieces.iter().map(|p| 1u64 << (32 - p.len())).sum();
        assert_eq!(total + (1u64 << 12), 1u64 << 24);
        for p in &pieces {
            assert!(!p.overlaps(b), "{p} overlaps {b}");
            assert!(p.is_subset_of(a));
        }
        assert!(prefix_subtract(b, a).is_empty());
        assert_eq!(prefix_subtract(b, prefix("11.0.0.0/8")), vec![b]);
    }

    #[test]
    fn class_subtract_is_disjoint_and_covering() {
        let a = FlowClass::between(prefix("10.0.0.0/16"), Prefix::ANY);
        let b = FlowClass {
            src: prefix("10.0.1.0/24"),
            dst: Prefix::ANY,
            src_ports: (0, 1023),
            dst_ports: (80, 80),
            protos: ProtoSet::single(6),
        };
        let pieces = a.subtract(&b);
        // No piece intersects b.
        for p in &pieces {
            assert!(p.intersect(&b).is_none(), "{p} intersects {b}");
        }
        // A member of a \ b is in exactly one piece; a member of a ∩ b in none.
        let inside = FiveTuple {
            src: "10.0.1.5".parse().unwrap(),
            dst: "10.9.9.9".parse().unwrap(),
            src_port: 100,
            dst_port: 80,
            proto: protocol_from_number(6),
        };
        let outside = FiveTuple {
            src: "10.0.1.5".parse().unwrap(),
            dst: "10.9.9.9".parse().unwrap(),
            src_port: 100,
            dst_port: 443,
            proto: protocol_from_number(6),
        };
        let member = |c: &FlowClass, t: &FiveTuple| {
            c.src.contains(t.src)
                && c.dst.contains(t.dst)
                && (c.src_ports.0..=c.src_ports.1).contains(&t.src_port)
                && (c.dst_ports.0..=c.dst_ports.1).contains(&t.dst_port)
                && c.protos.contains(t.proto.number())
        };
        assert_eq!(pieces.iter().filter(|p| member(p, &inside)).count(), 0);
        assert_eq!(pieces.iter().filter(|p| member(p, &outside)).count(), 1);
    }

    #[test]
    fn proto_set_algebra() {
        let any = ProtoSet::ANY;
        let tcp = ProtoSet::single(6);
        assert!(any.contains(6) && any.contains(255));
        assert!(tcp.contains(6) && !tcp.contains(17));
        assert!(any.subtract(tcp).contains(17));
        assert!(!any.subtract(tcp).contains(6));
        assert!(tcp.intersect(ProtoSet::single(17)).is_empty());
        assert_eq!(tcp.representative(), Some(6));
        assert_eq!(ProtoSet::EMPTY.representative(), None);
        assert_eq!(any.representative(), Some(6), "prefers tcp");
        assert_eq!(format!("{tcp}"), "tcp");
        assert_eq!(format!("{}", ProtoSet::single(17)), "udp");
        assert_eq!(format!("{any}"), "*");
    }

    #[test]
    fn representative_is_a_member() {
        let c = FlowClass {
            src: prefix("10.0.0.0/20"),
            dst: prefix("10.0.48.0/20"),
            src_ports: (1000, 2000),
            dst_ports: (80, 80),
            protos: ProtoSet::single(17),
        };
        let ft = c.representative();
        assert!(c.src.contains(ft.src));
        assert!(c.dst.contains(ft.dst));
        assert_eq!(ft.src.0, c.src.addr().0 + 1, "first host address");
        assert_eq!(ft.src_port, 1000);
        assert_eq!(ft.dst_port, 80);
        assert_eq!(ft.proto.number(), 17);
    }

    // -- assertion parsing ---------------------------------------------

    #[test]
    fn assertion_grammar_round_trips() {
        let text = "\
# comment
isolate 10.0.0.0/20 -> 10.0.48.0/20

waypoint 10.0.0.0/20 -> * via FW
loop-free ttl 64   # trailing comment
";
        let parsed = parse_assertions(text).unwrap();
        assert_eq!(parsed.len(), 3);
        let rendered: Vec<String> = parsed.iter().map(|a| a.to_string()).collect();
        let reparsed = parse_assertions(&rendered.join("\n")).unwrap();
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn assertion_parse_errors_name_the_line() {
        let err = parse_assertions("isolate 10.0.0.0/20 10.0.48.0/20").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_assertions("waypoint * -> * via BOGUS").unwrap_err();
        assert!(err.contains("unknown network function"), "{err}");
    }

    // -- walk_route ----------------------------------------------------

    /// A routing view given by an explicit next-hop table.
    struct TableRoutes {
        next: Vec<Vec<Option<u32>>>, // next[from][dst]
    }

    impl RouteView for TableRoutes {
        fn next_hop(&self, from: u32, dst: u32) -> Option<u32> {
            self.next[from as usize][dst as usize]
        }
        fn dist(&self, from: u32, dst: u32) -> Option<u32> {
            if from == dst {
                Some(0)
            } else {
                self.next_hop(from, dst).map(|_| 1)
            }
        }
    }

    #[test]
    fn walk_route_detects_micro_loops() {
        // 0 -> 1 -> 2 fine; 0 -> 1 <-> 0 for dst 3 loops.
        let mut next = vec![vec![None; 4]; 4];
        next[0][2] = Some(1);
        next[1][2] = Some(2);
        next[0][3] = Some(1);
        next[1][3] = Some(0);
        let r = TableRoutes { next };
        assert_eq!(walk_route(&r, 0, 2, 10), Walk::Arrived(vec![0, 1, 2]));
        assert_eq!(walk_route(&r, 0, 3, 10), Walk::Looped(vec![0, 1, 0]));
        assert_eq!(walk_route(&r, 2, 3, 10), Walk::Unreachable);
        assert_eq!(walk_route(&r, 2, 2, 10), Walk::Arrived(vec![2]));
    }

    #[test]
    fn leg_classifies_like_walk_route() {
        // Random next-hop tables over 8 nodes: detours, lost routes and
        // loops of every length; every (from, to) pair, several budgets.
        sdm_util::prop::check(
            "leg == walk_route's outcome",
            &sdm_util::prop::Config::with_cases(256),
            |rng| -> Vec<u8> { (0..64).map(|_| rng.gen_range(0..10u8)).collect() },
            |cells| {
                let n = 8usize;
                let mut next = vec![vec![None; n]; n];
                for (i, &c) in cells.iter().enumerate().take(n * n) {
                    // 8 and 9 mean "no route".
                    next[i / n][i % n] = (c < 8).then_some(u32::from(c));
                }
                let r = TableRoutes { next };
                for budget in [2, 4, n] {
                    for from in 0..n as u32 {
                        for to in 0..n as u32 {
                            let want = match walk_route(&r, from, to, budget) {
                                Walk::Arrived(path) => Leg::Arrived(path.len() - 1),
                                Walk::Looped(_) => Leg::Looped,
                                Walk::Unreachable => Leg::Unreachable,
                            };
                            sdm_util::prop_assert_eq!(leg(&r, from, to, budget), want);
                        }
                    }
                }
                Ok(())
            },
        );
    }

    // -- end-to-end checking on a hand-built view ----------------------

    /// A small deployment on a 6-node line topology:
    ///   n0 (stub0) - n1 - n2 - n3 - n4 (stub1) - n5 (gateway)
    /// Middleboxes: m0 = FW @ n1, m1 = FW @ n3, m2 = IDS @ n2.
    /// Policy p0: stub0/20 -> stub1/20 : FW.  Everything else: permit.
    fn line_view() -> (ReachView, TableRoutes) {
        let s0 = prefix("10.0.0.0/20");
        let s1 = prefix("10.0.16.0/20");
        let mbox = |fns: Vec<NetworkFunction>, router: usize, i: u32| MboxView {
            functions: fns,
            router,
            capacity: 1.0,
            available: true,
            addr: Ipv4Addr::from_octets([172, 16, 0, 1 + i as u8]),
        };
        let mut candidates = Vec::new();
        for p in 0..2u32 {
            candidates.push(CandidateSet {
                point: Point::Proxy(p),
                function: Firewall,
                members: vec![0, 1],
            });
            candidates.push(CandidateSet {
                point: Point::Proxy(p),
                function: Ids,
                members: vec![2],
            });
        }
        candidates.push(CandidateSet {
            point: Point::Gateway(0),
            function: Firewall,
            members: vec![1, 0],
        });
        candidates.push(CandidateSet {
            point: Point::Gateway(0),
            function: Ids,
            members: vec![2],
        });
        let plan = PlanView {
            node_count: 6,
            stub_subnets: vec![s0, s1],
            gateway_count: 1,
            middleboxes: vec![
                mbox(vec![Firewall], 1, 0),
                mbox(vec![Firewall], 3, 1),
                mbox(vec![Ids], 2, 2),
            ],
            policies: vec![ChainView {
                policy: 0,
                chain: vec![Firewall],
            }],
            k: vec![(Firewall, 2), (Ids, 1)],
            candidates,
            weights: None,
            options: Some(OptionsView {
                flow_ttl: 1_000,
                label_ttl: 1_000,
                mtu: 1500,
            }),
        };
        let view = ReachView {
            plan,
            rules: vec![RuleView {
                policy: 0,
                class: FlowClass::between(s0, s1),
                chain: vec![Firewall],
            }],
            stub_routers: vec![0, 4],
            gateway_routers: vec![5],
            enterprise: prefix("10.0.0.0/8"),
            strategy: StrategyView::HotPotato,
            hazards: None,
        };
        // Line routing: next hop towards any dst is the neighbor in its
        // direction.
        let mut next = vec![vec![None; 6]; 6];
        for from in 0..6u32 {
            for dst in 0..6u32 {
                if from == dst {
                    continue;
                }
                next[from as usize][dst as usize] =
                    Some(if dst > from { from + 1 } else { from - 1 });
            }
        }
        (view, TableRoutes { next })
    }

    #[test]
    fn isolation_refuted_with_delivery_witness() {
        let (view, routes) = line_view();
        let assertions =
            parse_assertions("isolate 10.0.0.0/20 -> 10.0.16.0/20").unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        assert!(!report.results[0].holds);
        assert!(report.has_code(ReachCode::IsolationBreach));
        let f = &report.findings[0];
        let w = f.witness.as_ref().unwrap();
        // HotPotato: the flow pins to m0 (nearest FW), path is concrete.
        let s = w.scenario.as_ref().unwrap();
        assert_eq!(s.stub, 0);
        let inject = &s.steps[0];
        match inject {
            ReplayStep::Inject { expect, .. } => {
                assert!(expect.delivered);
                assert_eq!(expect.must_process, vec![0]);
            }
            other => panic!("unexpected first step {other:?}"),
        }
        assert!(w.path.iter().any(|h| h.contains("mbox(m0)")), "{:?}", w.path);
    }

    #[test]
    fn isolation_holds_for_unroutable_enterprise_space() {
        let (view, routes) = line_view();
        // 10.15.0.0/16 is enterprise space with no stub behind it.
        let assertions =
            parse_assertions("isolate 10.0.0.0/20 -> 10.15.0.0/16").unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        assert!(report.results[0].holds, "{report}");
        assert!(report.is_clean());
    }

    #[test]
    fn waypoint_holds_when_chain_contains_function() {
        let (view, routes) = line_view();
        let assertions =
            parse_assertions("waypoint 10.0.0.0/20 -> 10.0.16.0/20 via FW").unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        assert!(report.results[0].holds, "{report}");
    }

    #[test]
    fn waypoint_bypass_refuted_with_avoid_set() {
        let (view, routes) = line_view();
        // Reverse direction is not covered by p0: default permit, no FW.
        let assertions =
            parse_assertions("waypoint 10.0.16.0/20 -> 10.0.0.0/20 via FW").unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        assert!(!report.results[0].holds);
        assert!(report.has_code(ReachCode::WaypointBypass));
        let f = report
            .findings
            .iter()
            .find(|f| f.code == ReachCode::WaypointBypass)
            .unwrap();
        let s = f.witness.as_ref().unwrap().scenario.as_ref().unwrap();
        match &s.steps[0] {
            ReplayStep::Inject { expect, .. } => {
                assert!(expect.delivered);
                // Neither firewall may see the flow.
                assert_eq!(expect.must_not_process, vec![0, 1]);
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn loop_free_holds_on_consistent_routing_and_refutes_on_loops() {
        let (view, routes) = line_view();
        let ok = check_assertions(&view, &routes, &parse_assertions("loop-free ttl 64").unwrap());
        assert!(ok.results[0].holds, "{ok}");

        // Break routing: walking from n0 towards n4 now oscillates.
        let (view, mut routes) = line_view();
        routes.next[1][4] = Some(0);
        routes.next[0][4] = Some(1);
        let bad = check_assertions(&view, &routes, &parse_assertions("loop-free ttl 64").unwrap());
        assert!(!bad.results[0].holds);
        assert!(bad.has_code(ReachCode::TtlExceeded));

        // Tight TTL budget: the legitimate path needs more hops.
        let (view, routes) = line_view();
        let tight = check_assertions(&view, &routes, &parse_assertions("loop-free ttl 2").unwrap());
        assert!(tight.has_code(ReachCode::TtlExceeded));
    }

    #[test]
    fn blackhole_reported_when_all_candidates_failed() {
        let (mut view, routes) = line_view();
        view.plan.middleboxes[0].available = false;
        view.plan.middleboxes[1].available = false;
        let report = check_assertions(
            &view,
            &routes,
            &parse_assertions("isolate 10.0.0.0/20 -> 10.0.16.0/20").unwrap(),
        );
        // Not delivered — the isolation is *not* refuted — but the class
        // blackholes, which is its own finding.
        assert!(report.has_code(ReachCode::BlackholeClass));
        assert!(!report.has_code(ReachCode::IsolationBreach));
    }

    #[test]
    fn stale_pin_hazard_detected_with_replayable_witness() {
        let (mut view, routes) = line_view();
        // m0 (the pinned hot-potato target) fails after flows pinned.
        view.plan.middleboxes[0].available = false;
        view.hazards = Some(HazardView {
            prev_weights: None,
            failed_now: vec![0],
        });
        let report = check_assertions(&view, &routes, &[]);
        assert!(report.has_code(ReachCode::StalePinnedFlow), "{report}");
        let f = report
            .findings
            .iter()
            .find(|f| f.code == ReachCode::StalePinnedFlow)
            .unwrap();
        let s = f.witness.as_ref().unwrap().scenario.as_ref().unwrap();
        assert_eq!(s.code, "R005");
        // Script shape: inject (pins to m0), fail m0, inject (drops).
        assert!(matches!(s.steps[0], ReplayStep::Inject { .. }));
        assert_eq!(s.steps[1], ReplayStep::FailMbox(0));
        match &s.steps[2] {
            ReplayStep::Inject { expect, .. } => assert!(expect.dropped_failed),
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn label_ttl_skew_hazard_detected() {
        let (mut view, routes) = line_view();
        view.plan.options = Some(OptionsView {
            flow_ttl: 100,
            label_ttl: 1_000,
            mtu: 1500,
        });
        view.hazards = Some(HazardView::default());
        let report = check_assertions(&view, &routes, &[]);
        assert!(report.has_code(ReachCode::LabelTtlSkew), "{report}");
    }

    #[test]
    fn findings_are_sorted_and_report_serializes() {
        let (mut view, routes) = line_view();
        view.plan.middleboxes[0].available = false;
        view.hazards = Some(HazardView {
            prev_weights: None,
            failed_now: vec![0],
        });
        let assertions = parse_assertions(
            "isolate 10.0.0.0/20 -> 10.0.16.0/20\nwaypoint 10.0.16.0/20 -> 10.0.0.0/20 via FW",
        )
        .unwrap();
        let report = check_assertions(&view, &routes, &assertions);
        let codes: Vec<_> = report.findings.iter().map(|f| f.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted, "findings must be code-sorted");
        let json = report.to_json().to_string_pretty();
        assert!(json.contains("\"verifier\": \"sdm-reach\""), "{json}");
        assert!(json.contains("R005"), "{json}");
        // Scenario extraction only returns replayable witnesses.
        for s in report.scenarios() {
            assert!(!s.steps.is_empty());
        }
    }

    #[test]
    fn reach_codes_are_unique_and_stable() {
        let all = [
            ReachCode::IsolationBreach,
            ReachCode::WaypointBypass,
            ReachCode::TtlExceeded,
            ReachCode::BlackholeClass,
            ReachCode::StalePinnedFlow,
            ReachCode::LabelTtlSkew,
        ];
        let mut wire: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        wire.sort();
        wire.dedup();
        assert_eq!(wire.len(), all.len());
        assert_eq!(ReachCode::IsolationBreach.as_str(), "R001");
        assert_eq!(ReachCode::LabelTtlSkew.as_str(), "R006");
    }
}
