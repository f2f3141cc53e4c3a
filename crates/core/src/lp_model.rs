//! Building the load-balancing linear programs of §III.C and extracting
//! steering weights from their solutions.
//!
//! Two formulations are implemented:
//!
//! * [`build_reduced`] — the paper's Eq. (2): aggregate per-(function,
//!   policy) variables `t_{e,p}(x, y)`. Two *exact* size reductions are
//!   applied (documented in DESIGN.md): sources with identical candidate
//!   sets are merged (their first-hop constraints sum, and the optimum
//!   splits back proportionally to `T_{s,p}`), and the per-destination
//!   variables `t_p(x, d)` are aggregated to `t_p(x)` (recoverable as
//!   `t_p(x) · T_{d,p} / T_p`).
//! * [`build_full`] — the paper's Eq. (1): one commodity per (source,
//!   destination, policy) triple with variables `t_{s,d,p}(x, y)`. Used in
//!   the formulation ablation; both reach the same optimal λ, Eq. (2) with
//!   far fewer variables.
//!
//! Instead of the paper's indicator notation (`I_p(e,e')`, `J_p(e)`,
//! `J'_p(e)`), the builder walks each policy's action list by *stage
//! index*, which handles repeated functions in a chain unambiguously.

use sdm_util::FxHashMap;
use std::fmt;

use sdm_lp::{Basis, LinearProgram, Relation, SolveError, VarId};
use sdm_netsim::StubId;
use sdm_policy::{NetworkFunction, PolicyId, PolicySet};

use crate::deployment::{Deployment, MiddleboxId};
use crate::measure::TrafficMatrix;
use crate::measure::DestKey;
use crate::steer::{Assignments, CommodityKey, SteerPoint, SteeringWeights, WeightKey};

/// Error raised while building or solving a load-balancing LP.
#[derive(Debug, Clone, PartialEq)]
pub enum LbError {
    /// A policy's action list names a function no deployed middlebox
    /// offers; enforcement is impossible.
    MissingFunction(NetworkFunction, PolicyId),
    /// The LP solver failed (e.g. infeasible under a λ cap).
    Lp(SolveError),
}

impl fmt::Display for LbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LbError::MissingFunction(e, p) => {
                write!(f, "no middlebox offers function {e} required by policy {p}")
            }
            LbError::Lp(e) => write!(f, "load-balancing LP failed: {e}"),
        }
    }
}

impl std::error::Error for LbError {}

impl From<SolveError> for LbError {
    fn from(e: SolveError) -> Self {
        LbError::Lp(e)
    }
}

/// Options controlling LP construction.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub struct LbOptions {
    /// If true, adds the paper's `λ ≤ 1` constraint, making the program
    /// infeasible when demand cannot fit within capacities (a
    /// dependability check). If false (default), λ is unconstrained and
    /// simply minimized.
    pub cap_lambda: bool,
}


/// Diagnostics of one LP build + solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LbReport {
    /// Optimal maximum load factor λ.
    pub lambda: f64,
    /// Decision variables in the program.
    pub variables: usize,
    /// Constraints in the program.
    pub constraints: usize,
    /// Simplex pivots spent.
    pub iterations: u64,
    /// `true` when both solves of the reduced formulation re-used a
    /// warm-start basis from a [`LbWarmCache`] (the online epoch loop);
    /// `false` on cold solves and for the full formulation.
    pub warm: bool,
}

/// Warm-start cache for the online re-steer loop: the optimal bases of
/// the two solves inside [`build_reduced_with_cache`] (the min-λ pass and
/// the lexicographic refinement pass). As long as the epoch's traffic
/// matrix keeps the same support (cells, sources, candidate sets), the LP
/// shape is unchanged and the cached bases let the simplex re-optimize in
/// a handful of pivots; any shape change is detected by the basis
/// fingerprint and silently falls back to a cold solve.
#[derive(Debug, Clone, Default)]
pub struct LbWarmCache {
    lambda_basis: Option<Basis>,
    refine_basis: Option<Basis>,
}

impl LbWarmCache {
    /// An empty cache; the first solve through it is cold and populates it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Internal: one enforcement stage of a policy — the boxes offering the
/// stage function, and per box the candidate successors.
struct Stage {
    function: NetworkFunction,
    boxes: Vec<MiddleboxId>,
}

fn stages_for(
    policy: PolicyId,
    functions: &[NetworkFunction],
    deployment: &Deployment,
) -> Result<Vec<Stage>, LbError> {
    functions
        .iter()
        .map(|&e| {
            let boxes = deployment.offering(e);
            if boxes.is_empty() {
                Err(LbError::MissingFunction(e, policy))
            } else {
                Ok(Stage { function: e, boxes })
            }
        })
        .collect()
}

/// Successor candidates of box `x` for next-stage function `e`: if `x`
/// itself offers `e` it applies it locally (self-arc), otherwise the
/// controller-assigned `M_x^e`.
fn successors(
    x: MiddleboxId,
    e: NetworkFunction,
    deployment: &Deployment,
    assignments: &Assignments,
) -> Vec<MiddleboxId> {
    if deployment.spec(x).implements(e) {
        vec![x]
    } else {
        assignments
            .candidates(SteerPoint::Middlebox(x), e)
            .to_vec()
    }
}

/// Builds and solves the reduced formulation (Eq. 2), returning the
/// steering weights `t_{e,p}(x, y)` and a diagnostics report.
///
/// # Errors
///
/// [`LbError::MissingFunction`] if a policy requires an un-deployed
/// function; [`LbError::Lp`] on solver failure.
pub fn build_reduced(
    deployment: &Deployment,
    assignments: &Assignments,
    policies: &PolicySet,
    traffic: &TrafficMatrix,
    options: LbOptions,
) -> Result<(SteeringWeights, LbReport), LbError> {
    build_reduced_with_cache(deployment, assignments, policies, traffic, options, None)
}

/// [`build_reduced`] with an optional warm-start cache: the online epoch
/// loop keeps one [`LbWarmCache`] alive across re-solves, so each epoch's
/// perturbed traffic matrix re-optimizes from the previous optimal basis
/// instead of running the full two-phase simplex. The cache is updated
/// with this solve's final bases on success.
///
/// # Errors
///
/// As [`build_reduced`]. A stale or mismatched cache never causes an
/// error — invalid bases are discarded and the solve falls back to cold.
pub fn build_reduced_with_cache(
    deployment: &Deployment,
    assignments: &Assignments,
    policies: &PolicySet,
    traffic: &TrafficMatrix,
    options: LbOptions,
    cache: Option<&mut LbWarmCache>,
) -> Result<(SteeringWeights, LbReport), LbError> {
    let (lambda_hint, refine_hint) = match &cache {
        Some(c) => (c.lambda_basis.clone(), c.refine_basis.clone()),
        None => (None, None),
    };

    // Phase 1: minimize the global maximum load factor λ.
    let mut model = assemble_reduced(deployment, assignments, policies, traffic, options)?;
    let vars = model.lp.num_vars();
    let cons = model.lp.num_constraints();
    let ws1 = model.lp.solve_warm(lambda_hint.as_ref())?;
    let lambda_star = ws1.solution.value(model.lambda);

    // Phase 2 (lexicographic refinement): pin λ at its optimum and minimize
    // the sum of per-function-type maximum load factors. A pure min-λ LP
    // has degenerate optima that leave non-bottleneck types arbitrarily
    // unbalanced; the paper's Table III shows *every* type balanced under
    // LB, which this second pass reproduces without disturbing λ.
    let bound = lambda_star * (1.0 + 1e-9) + 1e-6;
    model.extend_to_refinement(deployment, bound);
    let ws2 = model.lp.solve_warm(refine_hint.as_ref())?;

    if let Some(c) = cache {
        c.lambda_basis = Some(ws1.basis);
        c.refine_basis = Some(ws2.basis);
    }

    let mut weights = SteeringWeights::new(lambda_star);
    extract_weights(&model.all_vars, |v| ws2.solution.value(v), &mut weights);
    Ok((
        weights,
        LbReport {
            lambda: lambda_star,
            variables: vars,
            constraints: cons,
            iterations: ws1.solution.iterations + ws2.solution.iterations,
            warm: ws1.warm_used && ws2.warm_used,
        },
    ))
}

/// One source group of the reduced model: the stubs sharing a candidate
/// set, each with its share of the group volume, plus the per-candidate
/// first-hop variable.
type FirstHopGroup = (Vec<(StubId, f64)>, Vec<MiddleboxId>, Vec<VarId>);

/// Bookkeeping for weight extraction after solving.
struct PolicyVars {
    policy: PolicyId,
    first_hop: Vec<FirstHopGroup>,
    /// transition vars [stage i][x][y] as flat entries
    transitions: Vec<(usize, MiddleboxId, MiddleboxId, VarId)>,
}

struct ReducedModel {
    lp: LinearProgram,
    lambda: VarId,
    all_vars: Vec<PolicyVars>,
    /// Inflow terms of each middlebox's capacity row, by box index.
    capacity_terms: Vec<Vec<(VarId, f64)>>,
}

impl ReducedModel {
    /// Turns the λ program into the refinement program in place: λ leaves
    /// the objective, `λ ≤ bound` is appended, and per function type `e`
    /// with any load a variable `μ_e` (objective 1) and one row per box,
    /// `inflow(x) ≤ capacity(x) · μ_e`. Everything before the appended
    /// rows is the λ program unchanged, so the two programs share their
    /// variable and row numbering.
    fn extend_to_refinement(&mut self, deployment: &Deployment, bound: f64) {
        let lp = &mut self.lp;
        lp.set_objective(self.lambda, 0.0);
        lp.add_constraint(vec![(self.lambda, 1.0)], Relation::Le, bound);
        for e in deployment.functions() {
            let loaded: Vec<MiddleboxId> = deployment
                .offering(e)
                .into_iter()
                .filter(|x| !self.capacity_terms[x.index()].is_empty())
                .collect();
            if loaded.is_empty() {
                continue;
            }
            let mu = lp.add_var(format!("mu[{e}]"), 1.0);
            for x in loaded {
                let mut row = self.capacity_terms[x.index()].clone();
                row.push((mu, -deployment.spec(x).capacity));
                lp.add_constraint(row, Relation::Le, 0.0);
            }
        }
    }
}

fn extract_weights(
    all_vars: &[PolicyVars],
    value: impl Fn(VarId) -> f64,
    weights: &mut SteeringWeights,
) {
    for pv in all_vars {
        for (members, cands, vars) in &pv.first_hop {
            let w: Vec<(MiddleboxId, f64)> = cands
                .iter()
                .zip(vars)
                .map(|(&y, &v)| (y, value(v)))
                .collect();
            // The group optimum splits back proportionally to each
            // member's T_{s,p} (the exactness argument of the source
            // reduction); installing the unscaled group vector on every
            // member would multiply the group's volume by its member count.
            for &(s, share) in members {
                weights.set(
                    WeightKey {
                        point: SteerPoint::Proxy(s),
                        policy: pv.policy,
                        next_index: 0,
                    },
                    w.iter().map(|&(y, v)| (y, v * share)).collect(),
                );
            }
        }
        // group transitions by (stage, from)
        let mut by_from: FxHashMap<(usize, MiddleboxId), Vec<(MiddleboxId, f64)>> =
            FxHashMap::default();
        for &(i, x, y, v) in &pv.transitions {
            if x == y {
                continue; // local application, no steering decision
            }
            by_from.entry((i, x)).or_default().push((y, value(v)));
        }
        for ((i, x), w) in by_from {
            weights.set(
                WeightKey {
                    point: SteerPoint::Middlebox(x),
                    policy: pv.policy,
                    next_index: (i + 1) as u16,
                },
                w,
            );
        }
    }
}

/// Assembles the reduced LP with objective `min λ` (the refinement pass
/// extends it through [`ReducedModel::extend_to_refinement`]). One pass
/// over the traffic matrix supplies every `T_p` and `T_{s,p}`, so the cost
/// is O(cells + variables + constraint terms).
fn assemble_reduced(
    deployment: &Deployment,
    assignments: &Assignments,
    policies: &PolicySet,
    traffic: &TrafficMatrix,
    options: LbOptions,
) -> Result<ReducedModel, LbError> {
    let mut lp = LinearProgram::new();
    let lambda = lp.add_var("lambda", 1.0);

    // capacity_terms[x] accumulates the inflow expression of middlebox x
    let mut capacity_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); deployment.len()];

    let mut all_vars: Vec<PolicyVars> = Vec::new();

    for volumes in traffic.policy_volumes() {
        let p = volumes.policy;
        let Some(policy) = policies.get(p) else {
            continue;
        };
        if policy.actions.is_permit() {
            continue;
        }
        let t_p = volumes.total;
        if t_p <= 0.0 {
            continue;
        }
        let chain = policy.actions.functions().to_vec();
        let stages = stages_for(p, &chain, deployment)?;
        let k = stages.len();

        // --- source grouping (exact reduction) ---
        // BTreeMap: deterministic variable order => deterministic optimum.
        // Value: the member stubs with their T_{s,p}, and the group total.
        type Group = (Vec<(StubId, f64)>, f64);
        let mut groups: std::collections::BTreeMap<Vec<MiddleboxId>, Group> = Default::default();
        for (s, t_sp) in volumes.sources {
            if t_sp <= 0.0 {
                continue;
            }
            let cands = assignments
                .candidates(SteerPoint::Proxy(s), stages[0].function)
                .to_vec();
            if cands.is_empty() {
                return Err(LbError::MissingFunction(stages[0].function, p));
            }
            let entry = groups.entry(cands).or_insert_with(|| (Vec::new(), 0.0));
            entry.0.push((s, t_sp));
            entry.1 += t_sp;
        }

        // --- variables ---
        let mut first_hop = Vec::new();
        for (cands, (members, volume)) in &groups {
            let vars: Vec<VarId> = cands
                .iter()
                .map(|y| lp.add_var(format!("t1[{p}][{y}]"), 0.0))
                .collect();
            // group total constraint: sum_y t1 = T_group
            lp.add_constraint(
                vars.iter().map(|&v| (v, 1.0)).collect(),
                Relation::Eq,
                *volume,
            );
            let shares: Vec<(StubId, f64)> = members
                .iter()
                .map(|&(s, t_sp)| (s, t_sp / *volume))
                .collect();
            first_hop.push((shares, cands.clone(), vars));
        }

        // transition vars t[i][x][y], i = 0-based transition from stage i to i+1
        let mut transitions: Vec<(usize, MiddleboxId, MiddleboxId, VarId)> = Vec::new();
        for i in 0..k.saturating_sub(1) {
            for &x in &stages[i].boxes {
                let succ = successors(x, stages[i + 1].function, deployment, assignments);
                if succ.is_empty() {
                    return Err(LbError::MissingFunction(stages[i + 1].function, p));
                }
                for y in succ {
                    let v = lp.add_var(format!("t[{p}][{i}][{x}->{y}]"), 0.0);
                    transitions.push((i, x, y, v));
                }
            }
        }
        // final vars tf[x] for stage K boxes
        let mut finals: FxHashMap<MiddleboxId, VarId> = FxHashMap::default();
        for &x in &stages[k - 1].boxes {
            finals.insert(x, lp.add_var(format!("tf[{p}][{x}]"), 0.0));
        }

        // --- flow conservation per stage and box ---
        for (i, stage) in stages.iter().enumerate() {
            for &y in &stage.boxes {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                // inflow
                if i == 0 {
                    for (_, cands, vars) in &first_hop {
                        if let Some(pos) = cands.iter().position(|&c| c == y) {
                            terms.push((vars[pos], 1.0));
                        }
                    }
                } else {
                    for &(ti, _, ty, v) in transitions.iter().filter(|&&(ti, _, ty, _)| {
                        ti == i - 1 && ty == y
                    }) {
                        let _ = (ti, ty);
                        terms.push((v, 1.0));
                    }
                }
                // capacity: inflow of y counts towards its load
                capacity_terms[y.index()].extend(terms.iter().copied());
                // outflow
                if i + 1 < k {
                    for &(ti, tx, _, v) in transitions.iter().filter(|&&(ti, tx, _, _)| {
                        ti == i && tx == y
                    }) {
                        let _ = (ti, tx);
                        terms.push((v, -1.0));
                    }
                } else {
                    terms.push((finals[&y], -1.0));
                }
                lp.add_constraint(terms, Relation::Eq, 0.0);
            }
        }
        // total leaving the last stage equals T_p (anchors the chain
        // volume); iterate stage boxes for deterministic term order
        lp.add_constraint(
            stages[k - 1]
                .boxes
                .iter()
                .map(|x| (finals[x], 1.0))
                .collect(),
            Relation::Eq,
            t_p,
        );

        all_vars.push(PolicyVars {
            policy: p,
            first_hop,
            transitions,
        });
    }

    // --- capacity constraints ---
    for (x, spec) in deployment.iter() {
        let terms = &capacity_terms[x.index()];
        if terms.is_empty() {
            continue;
        }
        let mut row = terms.clone();
        row.push((lambda, -spec.capacity));
        lp.add_constraint(row, Relation::Le, 0.0);
    }
    if options.cap_lambda {
        lp.add_constraint(vec![(lambda, 1.0)], Relation::Le, 1.0);
    }

    Ok(ReducedModel {
        lp,
        lambda,
        all_vars,
        capacity_terms,
    })
}

/// Builds and solves the full formulation (Eq. 1): one commodity per
/// (source, destination, policy) triple. Returns per-point weights
/// aggregated over commodities (for apples-to-apples runtime use) plus the
/// diagnostics report. Intended for the formulation ablation; prefer
/// [`build_reduced`] in production.
///
/// # Errors
///
/// Same as [`build_reduced`].
pub fn build_full(
    deployment: &Deployment,
    assignments: &Assignments,
    policies: &PolicySet,
    traffic: &TrafficMatrix,
    options: LbOptions,
) -> Result<(SteeringWeights, LbReport), LbError> {
    let mut lp = LinearProgram::new();
    let lambda = lp.add_var("lambda", 1.0);
    let mut capacity_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); deployment.len()];

    struct CommodityVars {
        policy: PolicyId,
        source: StubId,
        dest: DestKey,
        first: Vec<(MiddleboxId, VarId)>,
        transitions: Vec<(usize, MiddleboxId, MiddleboxId, VarId)>,
    }
    let mut all: Vec<CommodityVars> = Vec::new();

    for (s, d, p, volume) in traffic.iter() {
        if volume <= 0.0 {
            continue;
        }
        let Some(policy) = policies.get(p) else {
            continue;
        };
        if policy.actions.is_permit() {
            continue;
        }
        let chain = policy.actions.functions().to_vec();
        let stages = stages_for(p, &chain, deployment)?;
        let k = stages.len();
        let _ = d; // destination is implicit: the commodity ends at d

        let cands = assignments
            .candidates(SteerPoint::Proxy(s), stages[0].function)
            .to_vec();
        if cands.is_empty() {
            return Err(LbError::MissingFunction(stages[0].function, p));
        }
        let first: Vec<(MiddleboxId, VarId)> = cands
            .iter()
            .map(|&y| (y, lp.add_var(format!("t1[{s}->{d}][{p}][{y}]"), 0.0)))
            .collect();
        lp.add_constraint(
            first.iter().map(|&(_, v)| (v, 1.0)).collect(),
            Relation::Eq,
            volume,
        );

        let mut transitions: Vec<(usize, MiddleboxId, MiddleboxId, VarId)> = Vec::new();
        for i in 0..k - 1 {
            for &x in &stages[i].boxes {
                for y in successors(x, stages[i + 1].function, deployment, assignments) {
                    let v = lp.add_var(format!("t[{s}->{d}][{p}][{i}][{x}->{y}]"), 0.0);
                    transitions.push((i, x, y, v));
                }
            }
        }
        let mut finals: FxHashMap<MiddleboxId, VarId> = FxHashMap::default();
        for &x in &stages[k - 1].boxes {
            finals.insert(x, lp.add_var(format!("tf[{s}->{d}][{p}][{x}]"), 0.0));
        }

        for (i, stage) in stages.iter().enumerate() {
            for &y in &stage.boxes {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                if i == 0 {
                    if let Some(&(_, v)) = first.iter().find(|&&(c, _)| c == y) {
                        terms.push((v, 1.0));
                    }
                } else {
                    for &(_, _, _, v) in transitions
                        .iter()
                        .filter(|&&(ti, _, ty, _)| ti == i - 1 && ty == y)
                    {
                        terms.push((v, 1.0));
                    }
                }
                capacity_terms[y.index()].extend(terms.iter().copied());
                if i + 1 < k {
                    for &(_, _, _, v) in transitions
                        .iter()
                        .filter(|&&(ti, tx, _, _)| ti == i && tx == y)
                    {
                        terms.push((v, -1.0));
                    }
                } else {
                    terms.push((finals[&y], -1.0));
                }
                lp.add_constraint(terms, Relation::Eq, 0.0);
            }
        }
        lp.add_constraint(
            stages[k - 1]
                .boxes
                .iter()
                .map(|x| (finals[x], 1.0))
                .collect(),
            Relation::Eq,
            volume,
        );

        all.push(CommodityVars {
            policy: p,
            source: s,
            dest: d,
            first,
            transitions,
        });
    }

    for (x, spec) in deployment.iter() {
        let terms = &capacity_terms[x.index()];
        if terms.is_empty() {
            continue;
        }
        let mut row = terms.clone();
        row.push((lambda, -spec.capacity));
        lp.add_constraint(row, Relation::Le, 0.0);
    }
    if options.cap_lambda {
        lp.add_constraint(vec![(lambda, 1.0)], Relation::Le, 1.0);
    }

    let vars = lp.num_vars();
    let cons = lp.num_constraints();
    let sol = lp.solve()?;

    // Aggregate commodity weights per (point, policy, next_index) for the
    // coarse fallback, and install exact per-commodity weights under
    // `CommodityKey`s (Eq. 1's t_{s,d,p}(x, y)).
    let mut weights = SteeringWeights::new(sol.value(lambda));
    let mut acc: FxHashMap<WeightKey, FxHashMap<MiddleboxId, f64>> = FxHashMap::default();
    let mut fine: FxHashMap<CommodityKey, FxHashMap<MiddleboxId, f64>> =
        FxHashMap::default();
    for cv in &all {
        for &(y, v) in &cv.first {
            let key = WeightKey {
                point: SteerPoint::Proxy(cv.source),
                policy: cv.policy,
                next_index: 0,
            };
            *acc.entry(key).or_default().entry(y).or_insert(0.0) += sol.value(v);
            *fine
                .entry(CommodityKey {
                    key,
                    src: cv.source,
                    dst: cv.dest,
                })
                .or_default()
                .entry(y)
                .or_insert(0.0) += sol.value(v);
        }
        for &(i, x, y, v) in &cv.transitions {
            if x == y {
                continue;
            }
            let key = WeightKey {
                point: SteerPoint::Middlebox(x),
                policy: cv.policy,
                next_index: (i + 1) as u16,
            };
            *acc.entry(key).or_default().entry(y).or_insert(0.0) += sol.value(v);
            *fine
                .entry(CommodityKey {
                    key,
                    src: cv.source,
                    dst: cv.dest,
                })
                .or_default()
                .entry(y)
                .or_insert(0.0) += sol.value(v);
        }
    }
    for (key, per_box) in acc {
        let mut w: Vec<(MiddleboxId, f64)> = per_box.into_iter().collect();
        w.sort_by_key(|&(m, _)| m);
        weights.set(key, w);
    }
    for (key, per_box) in fine {
        let mut w: Vec<(MiddleboxId, f64)> = per_box.into_iter().collect();
        w.sort_by_key(|&(m, _)| m);
        weights.set_fine(key, w);
    }

    Ok((
        weights,
        LbReport {
            lambda: sol.value(lambda),
            variables: vars,
            constraints: cons,
            iterations: sol.iterations,
            warm: false,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::MiddleboxSpec;
    use crate::measure::DestKey;
    use crate::steer::KConfig;
    use sdm_policy::{ActionList, NetworkFunction::*, Policy, TrafficDescriptor};
    use sdm_topology::campus::campus;

    /// Two FW boxes, one IDS; one policy FW -> IDS; traffic from 2 stubs.
    fn tiny_world() -> (
        sdm_topology::NetworkPlan,
        Deployment,
        Assignments,
        PolicySet,
        TrafficMatrix,
    ) {
        let plan = campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[8], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[4], 1.0));
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(2));
        let mut pol = PolicySet::new();
        pol.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall, Ids]),
        ));
        let mut tm = TrafficMatrix::new();
        tm.record(StubId(0), DestKey::Stub(StubId(5)), PolicyId(0), 600.0);
        tm.record(StubId(1), DestKey::Stub(StubId(6)), PolicyId(0), 400.0);
        (plan, dep, asg, pol, tm)
    }

    #[test]
    fn reduced_balances_firewalls_perfectly() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let (w, report) =
            build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        // 1000 units over two equal FWs: optimum max load = 500 each; the
        // single IDS must carry all 1000 -> lambda = 1000.
        assert!((report.lambda - 1000.0).abs() < 1e-6, "{}", report.lambda);
        assert_eq!(w.lambda(), report.lambda);
        // proxies got weights
        let key = WeightKey {
            point: SteerPoint::Proxy(StubId(0)),
            policy: PolicyId(0),
            next_index: 0,
        };
        let ws = w.get(&key).expect("proxy weights installed");
        // weights are per source-group volumes: non-negative, positive total
        let total: f64 = ws.iter().map(|&(_, v)| v).sum();
        assert!(total > 0.0);
        assert!(ws.iter().all(|&(_, v)| v >= -1e-9));
        // phase-2 refinement balances the two equal firewalls evenly in
        // aggregate (per-proxy splits may differ)
        let mut agg = std::collections::HashMap::new();
        for stub in [StubId(0), StubId(1)] {
            let key = WeightKey {
                point: SteerPoint::Proxy(stub),
                policy: PolicyId(0),
                next_index: 0,
            };
            for &(m, v) in w.get(&key).unwrap() {
                *agg.entry(m).or_insert(0.0) += v;
            }
        }
        for (&m, &v) in &agg {
            assert!((v - 500.0).abs() < 1e-6, "box {m} carries {v}");
        }
    }

    #[test]
    fn warm_cache_reuses_basis_on_perturbed_traffic() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let mut cache = LbWarmCache::new();
        let (_, cold) = build_reduced_with_cache(
            &dep, &asg, &pol, &tm, LbOptions::default(), Some(&mut cache),
        )
        .unwrap();
        assert!(!cold.warm, "first solve through an empty cache is cold");

        // Perturb volumes on the *existing* support: same cells, same
        // sources, same candidate sets -> same LP shape.
        let mut tm2 = TrafficMatrix::new();
        tm2.record(StubId(0), DestKey::Stub(StubId(5)), PolicyId(0), 640.0);
        tm2.record(StubId(1), DestKey::Stub(StubId(6)), PolicyId(0), 410.0);
        let (w_warm, warm) = build_reduced_with_cache(
            &dep, &asg, &pol, &tm2, LbOptions::default(), Some(&mut cache),
        )
        .unwrap();
        let (w_cold, re_cold) =
            build_reduced(&dep, &asg, &pol, &tm2, LbOptions::default()).unwrap();
        assert!(warm.warm, "same-shape perturbation must warm-start");
        assert!((warm.lambda - re_cold.lambda).abs() < 1e-6);
        assert!(
            warm.iterations < re_cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            re_cold.iterations
        );
        // The steering weights must agree with the cold solve.
        for (key, wc) in w_cold.iter() {
            let ww = w_warm.get(key).expect("same keys");
            for (&(mc, vc), &(mw, vw)) in wc.iter().zip(ww) {
                assert_eq!(mc, mw);
                assert!((vc - vw).abs() < 1e-6, "{key:?}: {vc} vs {vw}");
            }
        }
    }

    #[test]
    fn warm_cache_falls_back_cold_when_support_changes() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let mut cache = LbWarmCache::new();
        build_reduced_with_cache(&dep, &asg, &pol, &tm, LbOptions::default(), Some(&mut cache))
            .unwrap();
        // A new source appears: the LP gains variables/constraints, the
        // basis fingerprint mismatches, and the solve must fall back.
        let mut tm2 = tm.clone();
        tm2.record(StubId(2), DestKey::Stub(StubId(7)), PolicyId(0), 300.0);
        let (_, report) = build_reduced_with_cache(
            &dep, &asg, &pol, &tm2, LbOptions::default(), Some(&mut cache),
        )
        .unwrap();
        assert!(!report.warm, "support change must invalidate the basis");
        let (_, cold) = build_reduced(&dep, &asg, &pol, &tm2, LbOptions::default()).unwrap();
        assert!((report.lambda - cold.lambda).abs() < 1e-9);
    }

    #[test]
    fn reduced_and_full_reach_same_lambda() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let (_, r2) = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        let (_, r1) = build_full(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        assert!(
            (r1.lambda - r2.lambda).abs() < 1e-5,
            "eq1={} eq2={}",
            r1.lambda,
            r2.lambda
        );
        // the full formulation uses at least as many variables
        assert!(r1.variables >= r2.variables);
    }

    #[test]
    fn capacity_weighting_shifts_load() {
        // FW0 has 3x capacity of FW1: optimum puts 3/4 of traffic on FW0.
        let plan = campus(1);
        let mut dep = Deployment::new();
        let f0 = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 3.0));
        let _f1 = dep.add(MiddleboxSpec::new(Firewall, plan.cores()[8], 1.0));
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(2));
        let mut pol = PolicySet::new();
        pol.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall]),
        ));
        let mut tm = TrafficMatrix::new();
        tm.record(StubId(0), DestKey::External, PolicyId(0), 800.0);
        let (w, report) = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        assert!((report.lambda - 200.0).abs() < 1e-6, "{}", report.lambda);
        let key = WeightKey {
            point: SteerPoint::Proxy(StubId(0)),
            policy: PolicyId(0),
            next_index: 0,
        };
        let ws = w.get(&key).unwrap();
        let w0 = ws.iter().find(|&&(m, _)| m == f0).unwrap().1;
        assert!((w0 - 600.0).abs() < 1e-6, "w0={w0}");
    }

    #[test]
    fn full_formulation_installs_fine_weights() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        let (w, _) = build_full(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        assert!(w.fine_len() > 0, "Eq. (1) must install per-commodity weights");
        // the fine weights for stub 0's commodity sum to its volume
        let key = WeightKey {
            point: SteerPoint::Proxy(StubId(0)),
            policy: PolicyId(0),
            next_index: 0,
        };
        let fine = w
            .get_fine(&crate::steer::CommodityKey {
                key,
                src: StubId(0),
                dst: DestKey::Stub(StubId(5)),
            })
            .expect("fine weights installed");
        let total: f64 = fine.iter().map(|&(_, v)| v).sum();
        assert!((total - 600.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn missing_function_reported() {
        let (_plan, dep, asg, mut pol, mut tm) = tiny_world();
        pol.push(Policy::new(
            TrafficDescriptor::new().dst_port(22),
            ActionList::chain([TrafficMonitor]),
        ));
        tm.record(StubId(0), DestKey::External, PolicyId(1), 10.0);
        let err = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap_err();
        assert_eq!(err, LbError::MissingFunction(TrafficMonitor, PolicyId(1)));
    }

    #[test]
    fn lambda_cap_triggers_infeasibility() {
        let (_plan, dep, asg, pol, tm) = tiny_world();
        // capacities are 1.0 but demand is 1000 packets: with cap it fails
        let err = build_reduced(
            &dep,
            &asg,
            &pol,
            &tm,
            LbOptions { cap_lambda: true },
        )
        .unwrap_err();
        assert_eq!(err, LbError::Lp(SolveError::Infeasible));
    }

    #[test]
    fn permit_policies_and_zero_traffic_ignored() {
        let plan = campus(1);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(1));
        let mut pol = PolicySet::new();
        pol.push(Policy::permit(TrafficDescriptor::new()));
        let mut tm = TrafficMatrix::new();
        tm.record(StubId(0), DestKey::External, PolicyId(0), 500.0);
        let (w, report) = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        assert!(w.is_empty());
        assert_eq!(report.lambda, 0.0);
    }

    #[test]
    fn three_stage_chain_conserves_flow() {
        let plan = campus(2);
        let mut dep = Deployment::new();
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[0], 1.0));
        dep.add(MiddleboxSpec::new(Firewall, plan.cores()[1], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[2], 1.0));
        dep.add(MiddleboxSpec::new(Ids, plan.cores()[3], 1.0));
        dep.add(MiddleboxSpec::new(WebProxy, plan.cores()[4], 1.0));
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::uniform(2));
        let mut pol = PolicySet::new();
        pol.push(Policy::new(
            TrafficDescriptor::new().dst_port(80),
            ActionList::chain([Firewall, Ids, WebProxy]),
        ));
        let mut tm = TrafficMatrix::new();
        for s in 0..4u32 {
            tm.record(StubId(s), DestKey::External, PolicyId(0), 250.0);
        }
        let (_, report) = build_reduced(&dep, &asg, &pol, &tm, LbOptions::default()).unwrap();
        // the single WP sees all 1000; FWs and IDSes split 500/500
        assert!((report.lambda - 1000.0).abs() < 1e-6, "{}", report.lambda);
    }

    /// FNV-1a over the bytes of `text`.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The seed-1 evaluation world on `plan` (evaluation deployment seed 2
    /// with 4/7/7/4 boxes, paper-default k) carrying a seeded mix of the
    /// four evaluation chain shapes plus a permit policy, and a traffic
    /// matrix of `draws` seeded records with fractional volumes (so a
    /// change of summation order would show in the coefficients).
    fn evaluation_world(
        plan: &sdm_topology::NetworkPlan,
        draws: usize,
    ) -> (Deployment, Assignments, PolicySet, TrafficMatrix) {
        let dep = Deployment::evaluation_with_counts(plan, 2, &[4, 7, 7, 4]);
        let routes = plan.topology().routing_tables();
        let asg = Assignments::compute(&dep, &routes, plan.edges(), &KConfig::paper_default());
        let chains = [
            vec![Firewall, Ids],
            vec![Firewall, Ids, WebProxy],
            vec![Ids, TrafficMonitor],
            vec![WebProxy, Ids, Firewall],
        ];
        let mut pol = PolicySet::new();
        for i in 0..30u16 {
            pol.push(Policy::new(
                TrafficDescriptor::new().dst_port(1000 + i),
                ActionList::chain(chains[usize::from(i) % chains.len()].clone()),
            ));
        }
        pol.push(Policy::permit(TrafficDescriptor::new()));
        let mut rng = sdm_util::rng::StdRng::seed_from_u64(1);
        let stubs = plan.stub_count() as u32;
        let mut tm = TrafficMatrix::new();
        for _ in 0..draws {
            let s = StubId(rng.gen_range(0..stubs));
            let d = match rng.gen_range(0..stubs + 1) {
                x if x == stubs => DestKey::External,
                x => DestKey::Stub(StubId(x)),
            };
            let p = PolicyId(rng.gen_range(0..31u32));
            tm.record(s, d, p, 0.1 + rng.next_f64() * 900.0);
        }
        (dep, asg, pol, tm)
    }

    /// The λ program and the refinement program (at a fixed bound, so the
    /// pin covers assembly alone) of `world`, as LP text.
    fn program_texts(
        world: &(Deployment, Assignments, PolicySet, TrafficMatrix),
    ) -> (String, String) {
        let (dep, asg, pol, tm) = world;
        let mut model = assemble_reduced(dep, asg, pol, tm, LbOptions::default()).unwrap();
        let lambda = model.lp.to_lp_format();
        model.extend_to_refinement(dep, 1234.5);
        (lambda, model.lp.to_lp_format())
    }

    #[test]
    fn eq2_program_text_is_pinned() {
        for (name, plan, draws, want) in [
            (
                "campus",
                campus(1),
                600,
                [0x8144_fcd9_3189_ad4a, 0xc234_319d_cfb8_4e70],
            ),
            (
                "waxman",
                sdm_topology::waxman::waxman(1),
                2500,
                [0x56b9_c159_5385_fc62, 0xfdc7_55d4_00cc_e135],
            ),
        ] {
            let world = evaluation_world(&plan, draws);
            let (lambda, refine) = program_texts(&world);
            let got = [fnv1a(&lambda), fnv1a(&refine)];
            assert!(
                got == want,
                "{name}: Eq. (2) program text changed ({} cells, {} / {} bytes): \
                 digests {:#018x} / {:#018x}",
                world.3.len(),
                lambda.len(),
                refine.len(),
                got[0],
                got[1]
            );
        }
    }
}
