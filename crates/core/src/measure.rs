//! Traffic measurement (§III.C): policy proxies measure per-policy traffic
//! volumes `T_{s,d,p}` and report them to the controller, which aggregates
//! `T_{s,p}`, `T_{d,p}` and `T_p` for the load-balancing LPs.

use std::collections::BTreeMap;
use std::fmt;

use sdm_netsim::StubId;
use sdm_policy::PolicyId;

/// A traffic destination as the measurement system sees it: another stub
/// network or somewhere outside the enterprise (beyond a gateway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DestKey {
    /// An internal stub network.
    Stub(StubId),
    /// An external destination (reached through a gateway).
    External,
}

impl fmt::Display for DestKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DestKey::Stub(s) => write!(f, "{s}"),
            DestKey::External => f.write_str("ext"),
        }
    }
}

/// One policy's marginals, from [`TrafficMatrix::policy_volumes`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyVolumes {
    /// The policy `p`.
    pub policy: PolicyId,
    /// `T_p`: total volume matching `p`.
    pub total: f64,
    /// `(s, T_{s,p})` for every source with traffic matching `p`,
    /// ascending by source.
    pub sources: Vec<(StubId, f64)>,
}

/// The aggregated traffic matrix: `T_{s,d,p}` in packets, with the marginal
/// sums the reduced LP formulation (Eq. 2) needs.
///
/// # Example
///
/// ```
/// use sdm_core::{TrafficMatrix, DestKey};
/// use sdm_netsim::StubId;
/// use sdm_policy::PolicyId;
///
/// let mut tm = TrafficMatrix::new();
/// tm.record(StubId(0), DestKey::Stub(StubId(1)), PolicyId(0), 100.0);
/// tm.record(StubId(2), DestKey::Stub(StubId(1)), PolicyId(0), 50.0);
/// assert_eq!(tm.total(PolicyId(0)), 150.0);
/// let marginals = tm.policy_volumes();
/// assert_eq!(marginals[0].total, 150.0);
/// assert_eq!(marginals[0].sources, vec![(StubId(0), 100.0), (StubId(2), 50.0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrafficMatrix {
    // BTreeMap, not HashMap: `iter()` order feeds the full LP's variable
    // order (Eq. 1) and `policy_volumes`' summation order (Eq. 2), so it
    // must be deterministic across processes for the simplex pivot
    // sequence — and hence diagnostics — to reproduce.
    cells: BTreeMap<(StubId, DestKey, PolicyId), f64>,
}

impl TrafficMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `volume` packets of traffic from `s` to `d` matching `p` —
    /// what a source proxy reports.
    pub fn record(&mut self, s: StubId, d: DestKey, p: PolicyId, volume: f64) {
        if volume <= 0.0 {
            return;
        }
        *self.cells.entry((s, d, p)).or_insert(0.0) += volume;
    }

    /// Merges another matrix into this one (controller-side aggregation of
    /// per-proxy reports). Routes every cell through [`TrafficMatrix::record`],
    /// so non-positive volumes (a hand-built or corrupted report) are
    /// ignored exactly as they are on the direct recording path.
    pub fn merge(&mut self, other: &TrafficMatrix) {
        for (&(s, d, p), &v) in &other.cells {
            self.record(s, d, p, v);
        }
    }

    /// `T_{s,d,p}`.
    pub fn volume(&self, s: StubId, d: DestKey, p: PolicyId) -> f64 {
        self.cells.get(&(s, d, p)).copied().unwrap_or(0.0)
    }

    /// `T_p`: total volume matching `p`. Scans every cell, O(cells); use
    /// [`TrafficMatrix::policy_volumes`] for the marginals of all policies.
    pub fn total(&self, p: PolicyId) -> f64 {
        self.cells
            .iter()
            .filter(|((_, _, pp), _)| *pp == p)
            .map(|(_, v)| v)
            .sum()
    }

    /// All policies with nonzero measured traffic, ascending. Scans every
    /// cell, O(cells).
    pub fn policies(&self) -> Vec<PolicyId> {
        let mut v: Vec<PolicyId> = self.cells.keys().map(|&(_, _, p)| p).collect();
        v.sort();
        v.dedup();
        v
    }

    /// The marginals the reduced LP (Eq. 2) needs, for every policy with
    /// nonzero traffic in ascending policy order: `T_p` and the ascending
    /// `(s, T_{s,p})` list. One pass over the cells, O(cells · log policies).
    ///
    /// The cells are visited in key order, the order in which
    /// [`TrafficMatrix::total`] or a per-source filter-and-sum over
    /// [`TrafficMatrix::iter`] visits them, so every sum is bit-identical
    /// to that scan's.
    pub fn policy_volumes(&self) -> Vec<PolicyVolumes> {
        let mut by_policy: BTreeMap<PolicyId, PolicyVolumes> = BTreeMap::new();
        for (&(s, _, p), &v) in &self.cells {
            let pv = by_policy.entry(p).or_insert_with(|| PolicyVolumes {
                policy: p,
                total: 0.0,
                sources: Vec::new(),
            });
            pv.total += v;
            // Keys sort by source first, so one source's cells of `p` are
            // contiguous and the list comes out ascending.
            match pv.sources.last_mut() {
                Some((last, t)) if *last == s => *t += v,
                _ => pv.sources.push((s, v)),
            }
        }
        by_policy.into_values().collect()
    }

    /// Iterates over all `(source, dest, policy, volume)` cells.
    pub fn iter(&self) -> impl Iterator<Item = (StubId, DestKey, PolicyId, f64)> + '_ {
        self.cells.iter().map(|(&(s, d, p), &v)| (s, d, p, v))
    }

    /// Total measured volume across all policies. Scans every cell,
    /// O(cells).
    pub fn grand_total(&self) -> f64 {
        self.cells.values().sum()
    }

    /// Number of nonzero cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> StubId {
        StubId(i)
    }
    fn p(i: u32) -> PolicyId {
        PolicyId(i)
    }

    #[test]
    fn record_and_marginals() {
        let mut tm = TrafficMatrix::new();
        tm.record(s(0), DestKey::Stub(s(1)), p(0), 10.0);
        tm.record(s(0), DestKey::Stub(s(2)), p(0), 20.0);
        tm.record(s(3), DestKey::Stub(s(1)), p(0), 5.0);
        tm.record(s(0), DestKey::External, p(1), 7.0);
        assert_eq!(tm.total(p(0)), 35.0);
        assert_eq!(tm.total(p(1)), 7.0);
        let marginals = tm.policy_volumes();
        assert_eq!(marginals.len(), 2);
        assert_eq!(marginals[0].sources, vec![(s(0), 30.0), (s(3), 5.0)]);
        assert_eq!(marginals[1].total, 7.0);
        assert_eq!(tm.volume(s(3), DestKey::Stub(s(1)), p(0)), 5.0);
        assert_eq!(tm.grand_total(), 42.0);
    }

    #[test]
    fn repeated_records_accumulate() {
        let mut tm = TrafficMatrix::new();
        for _ in 0..4 {
            tm.record(s(0), DestKey::Stub(s(1)), p(0), 2.5);
        }
        assert_eq!(tm.volume(s(0), DestKey::Stub(s(1)), p(0)), 10.0);
        assert_eq!(tm.len(), 1);
    }

    #[test]
    fn zero_and_negative_volumes_ignored() {
        let mut tm = TrafficMatrix::new();
        tm.record(s(0), DestKey::External, p(0), 0.0);
        tm.record(s(0), DestKey::External, p(0), -5.0);
        assert!(tm.is_empty());
    }

    #[test]
    fn merge_aggregates_reports() {
        let mut a = TrafficMatrix::new();
        a.record(s(0), DestKey::Stub(s(1)), p(0), 10.0);
        let mut b = TrafficMatrix::new();
        b.record(s(0), DestKey::Stub(s(1)), p(0), 5.0);
        b.record(s(2), DestKey::Stub(s(1)), p(1), 3.0);
        a.merge(&b);
        assert_eq!(a.volume(s(0), DestKey::Stub(s(1)), p(0)), 15.0);
        assert_eq!(a.total(p(1)), 3.0);
    }

    #[test]
    fn merge_ignores_non_positive_cells_like_record() {
        // Forge a report with zero/negative cells (possible only from
        // inside the module — every public ingestion path guards), and
        // check merge applies the same guard record does.
        let mut bad = TrafficMatrix::new();
        bad.cells.insert((s(0), DestKey::External, p(0)), -7.0);
        bad.cells.insert((s(1), DestKey::External, p(0)), 0.0);
        bad.cells.insert((s(2), DestKey::Stub(s(1)), p(1)), 4.0);
        let mut tm = TrafficMatrix::new();
        tm.record(s(0), DestKey::External, p(0), 10.0);
        tm.merge(&bad);
        assert_eq!(
            tm.volume(s(0), DestKey::External, p(0)),
            10.0,
            "negative merged cell must not subtract"
        );
        assert_eq!(tm.volume(s(1), DestKey::External, p(0)), 0.0);
        assert_eq!(tm.len(), 2, "zero/negative cells must not materialize");
        assert_eq!(tm.volume(s(2), DestKey::Stub(s(1)), p(1)), 4.0);
    }

    #[test]
    fn enumerations_sorted_and_deduped() {
        let mut tm = TrafficMatrix::new();
        tm.record(s(5), DestKey::Stub(s(1)), p(2), 1.0);
        tm.record(s(3), DestKey::External, p(2), 1.0);
        tm.record(s(3), DestKey::Stub(s(1)), p(0), 1.0);
        assert_eq!(tm.policies(), vec![p(0), p(2)]);
        let marginals = tm.policy_volumes();
        let listed: Vec<PolicyId> = marginals.iter().map(|pv| pv.policy).collect();
        assert_eq!(listed, tm.policies());
        assert_eq!(marginals[1].sources, vec![(s(3), 1.0), (s(5), 1.0)]);
    }

    #[test]
    fn empty_and_single_cell_policies() {
        assert!(TrafficMatrix::new().policy_volumes().is_empty());
        let mut tm = TrafficMatrix::new();
        tm.record(s(4), DestKey::External, p(3), 0.3);
        assert_eq!(
            tm.policy_volumes(),
            vec![PolicyVolumes {
                policy: p(3),
                total: 0.3,
                sources: vec![(s(4), 0.3)],
            }]
        );
    }

    /// One generated report: `(source, dest, policy, volume, via_merge)`;
    /// dest 4 stands for [`DestKey::External`].
    type Report = (u32, u32, u32, f64, bool);

    fn build(reports: &[Report]) -> TrafficMatrix {
        let mut tm = TrafficMatrix::new();
        for &(src, dst, pol, vol, via_merge) in reports {
            let d = if dst == 4 {
                DestKey::External
            } else {
                DestKey::Stub(s(dst))
            };
            if via_merge {
                let mut one = TrafficMatrix::new();
                one.record(s(src), d, p(pol), vol);
                tm.merge(&one);
            } else {
                tm.record(s(src), d, p(pol), vol);
            }
        }
        tm
    }

    #[test]
    fn policy_volumes_match_naive_scans_bit_for_bit() {
        use sdm_util::prop::{check, Config};
        const POLICIES: u32 = 6;
        check(
            "policy_volumes == per-call scans",
            &Config::with_cases(256),
            |rng| {
                let n = rng.gen_range(0..40usize);
                (0..n)
                    .map(|_| {
                        // Magnitudes spread over 7 decades, so any change
                        // of summation order shows in the low bits.
                        let scale = 10f64.powi(rng.gen_range(0..7u32) as i32);
                        (
                            rng.gen_range(0..5u32),
                            rng.gen_range(0..5u32),
                            rng.gen_range(0..POLICIES),
                            rng.next_f64() * scale,
                            rng.gen_bool(0.5),
                        )
                    })
                    .collect::<Vec<Report>>()
            },
            |reports| {
                let tm = build(reports);
                let summary = tm.policy_volumes();
                let listed: Vec<PolicyId> = summary.iter().map(|pv| pv.policy).collect();
                sdm_util::prop_assert_eq!(listed, tm.policies());
                for pol in (0..POLICIES).map(p) {
                    // The reference: the filter-and-sum scans the LP
                    // assembly used to run once per policy and per source.
                    let cells: Vec<(StubId, f64)> = tm
                        .iter()
                        .filter(|&(_, _, pp, _)| pp == pol)
                        .map(|(ss, _, _, v)| (ss, v))
                        .collect();
                    let Some(pv) = summary.iter().find(|pv| pv.policy == pol) else {
                        sdm_util::prop_assert!(cells.is_empty(), "{pol} missing");
                        continue;
                    };
                    let total: f64 = cells.iter().map(|&(_, v)| v).sum();
                    sdm_util::prop_assert_eq!(pv.total.to_bits(), total.to_bits());
                    let mut sources: Vec<StubId> = cells.iter().map(|&(ss, _)| ss).collect();
                    sources.dedup();
                    sdm_util::prop_assert_eq!(pv.sources.len(), sources.len());
                    for (&(got_s, got_t), &src) in pv.sources.iter().zip(&sources) {
                        let t_sp: f64 = cells
                            .iter()
                            .filter(|&&(ss, _)| ss == src)
                            .map(|&(_, v)| v)
                            .sum();
                        sdm_util::prop_assert_eq!(got_s, src);
                        sdm_util::prop_assert_eq!(got_t.to_bits(), t_sp.to_bits());
                    }
                }
                Ok(())
            },
        );
    }
}
