//! VC allocation policy, including the VIX dimension-aware sub-group
//! assignment with load balancing (§2.3 of the paper).

use crate::output::OutputVcs;
use vix_core::{PortId, VcId, VixPartition};

/// Preferred VC sub-group for a packet whose *downstream* output port moves
/// along `dimension` (0 = X, 1 = Y, 2 = local/ejection).
///
/// X and Y requests map to distinct sub-groups so that, at the downstream
/// router, requests for different output dimensions arrive on different
/// virtual inputs — fewer output-port conflicts, per §2.3. Local traffic
/// has no dimension preference (`None`): it is placed purely by load
/// balancing.
#[must_use]
pub fn preferred_group(dimension: usize, groups: usize) -> Option<usize> {
    match dimension {
        d @ (0 | 1) if groups > 1 => Some(d % groups),
        _ => None,
    }
}

/// How VC allocation chooses among free downstream VCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcAllocPolicy {
    /// The paper's baseline: the free VC with the most credits.
    MaxCredits,
    /// The paper's VIX policy (§2.3): prefer the sub-group matching the
    /// packet's downstream direction, balance load across sub-groups, then
    /// break ties by credits.
    DimensionAware,
}

/// Picks a downstream VC for a packet at VC allocation time.
///
/// `out` is the output port being allocated, `downstream_dim` the
/// dimension of the output port the packet will request at the downstream
/// router (its lookahead port). `partition` describes the downstream input
/// port's sub-groups. Returns `None` when every VC is held by another
/// packet.
///
/// The selection never picks an allocated VC, so atomic (non-interleaved)
/// VC usage is preserved.
#[must_use]
pub fn select_output_vc(
    policy: VcAllocPolicy,
    outputs: &OutputVcs,
    out: PortId,
    partition: &VixPartition,
    downstream_dim: usize,
) -> Option<VcId> {
    if outputs.all_held(out) {
        return None; // the common case at saturation: nothing to scan
    }
    // Iterate the free VCs directly — no intermediate Vec. The winner is
    // identical because keys are unique (lowest-index tie-break via
    // `Reverse(vc.0)`), so `max_by_key` order-independence holds.
    let free = (0..outputs.vc_count()).map(VcId).filter(|&vc| !outputs.is_allocated(out, vc));
    match policy {
        VcAllocPolicy::MaxCredits => {
            free.max_by_key(|&vc| (outputs.credits(out, vc), std::cmp::Reverse(vc.0)))
        }
        VcAllocPolicy::DimensionAware => {
            debug_assert_eq!(partition.vcs(), outputs.vc_count(), "partition/VC count mismatch");
            let preferred = preferred_group(downstream_dim, partition.groups());
            // Sub-groups are windows of consecutive VCs, so walking them
            // group by group visits every free VC in ascending order and
            // lets each group's load be counted once, not once per VC.
            let size = partition.group_size();
            let mut best = None;
            for group in 0..partition.groups() {
                let vcs = (group * size..(group + 1) * size).map(VcId);
                // Load of the sub-group: how many VCs are already allocated.
                let load = vcs.clone().filter(|&vc| outputs.is_allocated(out, vc)).count();
                let in_preferred = usize::from(preferred == Some(group));
                for vc in vcs.filter(|&vc| !outputs.is_allocated(out, vc)) {
                    // Rank: preferred sub-group first, then lightest-loaded
                    // sub-group, then most credits, then lowest index.
                    let key = (
                        in_preferred,
                        std::cmp::Reverse(load),
                        outputs.credits(out, vc),
                        std::cmp::Reverse(vc.0),
                    );
                    if best.is_none_or(|(top, _)| key > top) {
                        best = Some((key, vc));
                    }
                }
            }
            best.map(|(_, vc)| vc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: PortId = PortId(0);

    fn port_with(vcs: usize, depth: usize) -> OutputVcs {
        OutputVcs::new(1, vcs, depth, &[false])
    }

    #[test]
    fn preferred_group_maps_dimensions() {
        assert_eq!(preferred_group(0, 2), Some(0));
        assert_eq!(preferred_group(1, 2), Some(1));
        assert_eq!(preferred_group(2, 2), None, "local traffic has no preference");
        assert_eq!(preferred_group(0, 1), None, "baseline routers have no sub-groups");
    }

    #[test]
    fn max_credits_picks_fullest_vc() {
        let mut port = port_with(3, 5);
        port.consume_credit(OUT, VcId(0));
        port.consume_credit(OUT, VcId(0));
        port.consume_credit(OUT, VcId(1));
        let part = VixPartition::baseline(3);
        let vc = select_output_vc(VcAllocPolicy::MaxCredits, &port, OUT, &part, 0);
        assert_eq!(vc, Some(VcId(2)));
    }

    #[test]
    fn max_credits_ties_break_to_lowest_index() {
        let port = port_with(3, 5);
        let part = VixPartition::baseline(3);
        assert_eq!(
            select_output_vc(VcAllocPolicy::MaxCredits, &port, OUT, &part, 0),
            Some(VcId(0))
        );
    }

    #[test]
    fn allocated_vcs_never_selected() {
        let mut port = port_with(2, 5);
        port.allocate(OUT, VcId(0));
        let part = VixPartition::baseline(2);
        assert_eq!(
            select_output_vc(VcAllocPolicy::MaxCredits, &port, OUT, &part, 0),
            Some(VcId(1))
        );
        port.allocate(OUT, VcId(1));
        assert_eq!(select_output_vc(VcAllocPolicy::MaxCredits, &port, OUT, &part, 0), None);
    }

    #[test]
    fn dimension_aware_prefers_matching_subgroup() {
        // 6 VCs, 2 sub-groups: {0,1,2} and {3,4,5}.
        let port = port_with(6, 5);
        let part = VixPartition::even(6, 2).unwrap();
        // X-bound packet → sub-group 0; Y-bound → sub-group 1.
        let x = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 0).unwrap();
        assert_eq!(part.group_of(x).0, 0);
        let y = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 1).unwrap();
        assert_eq!(part.group_of(y).0, 1);
    }

    #[test]
    fn dimension_aware_falls_back_when_preferred_full() {
        let mut port = port_with(4, 5);
        let part = VixPartition::even(4, 2).unwrap();
        port.allocate(OUT, VcId(0));
        port.allocate(OUT, VcId(1)); // sub-group 0 exhausted
        let vc = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 0).unwrap();
        assert_eq!(part.group_of(vc).0, 1, "must fall back to the other sub-group");
    }

    #[test]
    fn local_traffic_balances_load() {
        let mut port = port_with(4, 5);
        let part = VixPartition::even(4, 2).unwrap();
        port.allocate(OUT, VcId(0)); // sub-group 0 carries one packet
        let vc = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 2).unwrap();
        assert_eq!(part.group_of(vc).0, 1, "local packet goes to the lighter sub-group");
    }

    #[test]
    fn dimension_aware_on_baseline_degenerates_to_credits() {
        let mut port = port_with(3, 5);
        port.consume_credit(OUT, VcId(0));
        let part = VixPartition::baseline(3);
        let vc = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 0);
        assert_eq!(vc, Some(VcId(1)));
    }
}
