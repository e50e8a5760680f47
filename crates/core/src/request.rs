//! Switch allocation vocabulary: request sets and grant sets.
//!
//! Every cycle, each input VC that has a flit ready to traverse the switch
//! posts a [`SwitchRequest`] for its output port. A switch allocator turns
//! the resulting [`RequestSet`] into a [`GrantSet`] subject to the crossbar's
//! structural constraints:
//!
//! * at most one grant per output port,
//! * at most one grant per input VC,
//! * at most one grant per *virtual input* — which for a baseline router
//!   means one per input port, and for a 1:2 VIX router means up to two per
//!   port (one per VC sub-group).
//!
//! [`GrantSet::validate_against`] checks those invariants and is used by the
//! property-based tests of every allocator.

use crate::bits::RequestBits;
use crate::ids::{PortId, VcId};
use crate::vix::VixPartition;
use std::fmt;

/// One input VC's request for an output port in the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRequest {
    /// Requesting input port.
    pub port: PortId,
    /// Requesting VC within the port.
    pub vc: VcId,
    /// Output port the head-of-line flit needs.
    pub out_port: PortId,
    /// True when the request is speculative (issued in parallel with VC
    /// allocation); non-speculative requests are prioritised.
    pub speculative: bool,
    /// Age or priority key — larger means older / more urgent. Used by
    /// prioritising allocators; plain round-robin allocators ignore it.
    pub age: u64,
}

/// Dense per-(port, VC) table of requests for one allocation cycle.
///
/// A slot holds a live request exactly when its bit is set in the
/// bit-view's per-port active-VC mask; every reader gates on that bit, so
/// [`clear`](RequestSet::clear) only zeroes the bit-view and never
/// rewrites the slots (DESIGN.md §6d).
#[derive(Debug, Clone)]
pub struct RequestSet {
    ports: usize,
    vcs: usize,
    /// Request payloads; a slot whose active bit is clear is stale.
    slots: Vec<SwitchRequest>,
    /// Posted requests, kept in sync by `push`/`remove`/`clear` so `len`
    /// and emptiness checks are O(1) in the allocators' hot loops.
    active: usize,
    /// Posted speculative requests; lets allocators skip a whole
    /// speculation pass when the class is empty.
    speculative: usize,
    /// Dense word-parallel view of the posted requests, kept in sync by
    /// `push`/`remove`/`clear` so bitset allocator kernels never rebuild
    /// their request matrices (see DESIGN.md §6d). Its active-VC masks
    /// are also the validity bits of `slots`.
    bits: RequestBits,
}

/// Observable equality: same shape, same posted requests. Stale slot
/// contents behind clear active bits are not part of the value.
impl PartialEq for RequestSet {
    fn eq(&self, other: &Self) -> bool {
        self.ports == other.ports
            && self.vcs == other.vcs
            && self.bits == other.bits
            && self.active_requests().eq(other.active_requests())
    }
}

impl Eq for RequestSet {}

impl RequestSet {
    /// Creates an empty request set for a router with `ports` ports and
    /// `vcs` VCs per port.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero. There is no upper width limit:
    /// the word-parallel bit-view stores `ceil(width / 64)` words per row
    /// (DESIGN.md §6d).
    #[must_use]
    pub fn new(ports: usize, vcs: usize) -> Self {
        assert!(ports > 0 && vcs > 0, "request set dimensions must be nonzero");
        let vacant = SwitchRequest {
            port: PortId(0),
            vc: VcId(0),
            out_port: PortId(0),
            speculative: false,
            age: 0,
        };
        RequestSet {
            ports,
            vcs,
            slots: vec![vacant; ports * vcs],
            active: 0,
            speculative: 0,
            bits: RequestBits::new(ports, vcs),
        }
    }

    // Bounds are debug-only: `idx` sits on every allocator's innermost
    // loop, and in release builds the slot `Vec`'s own bounds check is the
    // backstop.
    fn idx(&self, port: PortId, vc: VcId) -> usize {
        debug_assert!(port.0 < self.ports, "port {port} out of range ({})", self.ports);
        debug_assert!(vc.0 < self.vcs, "vc {vc} out of range ({})", self.vcs);
        port.0 * self.vcs + vc.0
    }

    /// Posts a non-speculative request from `(port, vc)` for `out_port`,
    /// replacing any previous request from that VC.
    pub fn request(&mut self, port: PortId, vc: VcId, out_port: PortId) {
        self.push(SwitchRequest { port, vc, out_port, speculative: false, age: 0 });
    }

    /// Posts a fully-specified request, replacing any previous request from
    /// the same VC. Into an empty slot (always the case after
    /// [`clear`](RequestSet::clear)) this is one bit test, one slot store
    /// and the bit-view's set-bit updates.
    pub fn push(&mut self, req: SwitchRequest) {
        let i = self.idx(req.port, req.vc);
        if self.bits.is_active(req.port.0, req.vc.0) {
            let old = self.slots[i];
            self.speculative -= usize::from(old.speculative);
            self.bits.remove(old.port.0, old.vc.0, old.out_port.0, old.speculative);
        } else {
            self.active += 1;
        }
        self.slots[i] = req;
        self.speculative += usize::from(req.speculative);
        self.bits.insert(req.port.0, req.vc.0, req.out_port.0, req.speculative);
    }

    /// Removes the request from `(port, vc)`, if any.
    pub fn remove(&mut self, port: PortId, vc: VcId) -> Option<SwitchRequest> {
        let i = self.idx(port, vc);
        if !self.bits.is_active(port.0, vc.0) {
            return None;
        }
        let old = self.slots[i];
        self.active -= 1;
        self.speculative -= usize::from(old.speculative);
        self.bits.remove(old.port.0, old.vc.0, old.out_port.0, old.speculative);
        Some(old)
    }

    /// Clears all requests, reusing the allocation: one dense zero-fill of
    /// the fixed-size bit-view (80 words at radix 5 × 6 VCs). The slots
    /// are left as they are — with their active bits clear they are
    /// unreadable.
    pub fn clear(&mut self) {
        if self.active == 0 {
            // Every mutator keeps `bits` in lockstep with `active`, so an
            // empty set is already fully cleared.
            return;
        }
        self.bits.clear();
        self.active = 0;
        self.speculative = 0;
    }

    /// The request posted by `(port, vc)`, if any.
    #[must_use]
    pub fn get(&self, port: PortId, vc: VcId) -> Option<&SwitchRequest> {
        let slot = &self.slots[self.idx(port, vc)];
        self.bits.is_active(port.0, vc.0).then_some(slot)
    }

    /// Number of physical input ports.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// VCs per port.
    #[must_use]
    pub fn vcs_per_port(&self) -> usize {
        self.vcs
    }

    /// Iterator over all posted requests, in (port, vc) order.
    pub fn active_requests(&self) -> impl Iterator<Item = &SwitchRequest> {
        (0..self.ports).flat_map(move |port| self.requests_from(PortId(port)))
    }

    /// Iterator over the requests from one input port, in VC order.
    pub fn requests_from(&self, port: PortId) -> impl Iterator<Item = &SwitchRequest> {
        let base = self.idx(port, VcId(0));
        let slots = &self.slots[base..base + self.vcs];
        crate::bits::iter_ones(self.bits.active_vcs(port)).map(move |vc| &slots[vc])
    }

    /// Iterator over requests targeting one output port.
    pub fn requests_for(&self, out_port: PortId) -> impl Iterator<Item = &SwitchRequest> + '_ {
        self.active_requests().filter(move |r| r.out_port == out_port)
    }

    /// True if no VC posted a request.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    /// Number of posted requests (O(1)).
    #[must_use]
    pub fn len(&self) -> usize {
        self.active
    }

    /// Number of posted speculative requests (O(1)). Allocators use this
    /// to skip a whole speculative arbitration pass when the class is
    /// empty — an empty pass can never grant or move arbiter state.
    #[must_use]
    pub fn speculative_len(&self) -> usize {
        self.speculative
    }

    /// True when one of the VCs of `port` posted a request (O(words) —
    /// a word scan of the bit-view's per-port activity mask).
    #[must_use]
    pub fn port_is_active(&self, port: PortId) -> bool {
        crate::bits::any_set(self.bits.active_vcs(port))
    }

    /// The dense word-parallel view of this set, incrementally maintained
    /// by every mutator. Bitset allocator kernels read whole request rows
    /// from here instead of scanning `slots` per element.
    #[must_use]
    pub fn bits(&self) -> &RequestBits {
        &self.bits
    }
}

/// One granted crossbar connection for the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Winning input port.
    pub port: PortId,
    /// Winning VC within the port.
    pub vc: VcId,
    /// Output port granted to that VC.
    pub out_port: PortId,
}

/// A violated crossbar invariant, reported by
/// [`GrantSet::validate_against`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrantViolation {
    /// A grant was issued to a VC that had not requested anything, or for a
    /// different output than requested.
    UnrequestedGrant(Grant),
    /// Two grants drive the same output port.
    OutputConflict(PortId),
    /// The same VC was granted twice.
    DuplicateVc(PortId, VcId),
    /// More grants at one input port than it has virtual inputs.
    InputOverSubscribed {
        /// Over-subscribed port.
        port: PortId,
        /// Grants issued at the port.
        granted: usize,
        /// Virtual inputs (capacity) available at the port.
        capacity: usize,
    },
    /// Two VCs in the same virtual-input sub-group were granted at once.
    SubgroupConflict(PortId, VcId, VcId),
}

impl fmt::Display for GrantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrantViolation::UnrequestedGrant(g) => {
                write!(f, "grant {}:{} -> {} matches no request", g.port, g.vc, g.out_port)
            }
            GrantViolation::OutputConflict(p) => write!(f, "output port {p} granted twice"),
            GrantViolation::DuplicateVc(p, v) => write!(f, "vc {p}:{v} granted twice"),
            GrantViolation::InputOverSubscribed { port, granted, capacity } => {
                write!(f, "input port {port} received {granted} grants but has {capacity} virtual inputs")
            }
            GrantViolation::SubgroupConflict(p, a, b) => {
                write!(f, "vcs {p}:{a} and {p}:{b} share a virtual input but were both granted")
            }
        }
    }
}

impl std::error::Error for GrantViolation {}

/// The set of crossbar connections granted in one cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GrantSet {
    grants: Vec<Grant>,
}

impl GrantSet {
    /// Creates an empty grant set.
    #[must_use]
    pub fn new() -> Self {
        GrantSet { grants: Vec::new() }
    }

    /// Creates an empty grant set with room for `capacity` grants, so a
    /// reused set reaches its steady-state footprint without reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        GrantSet { grants: Vec::with_capacity(capacity) }
    }

    /// Empties the set, retaining its allocation. Pairing `clear` with
    /// [`SwitchAllocator::allocate_into`]-style refills is the hot loop's
    /// reuse contract: after warmup the backing `Vec` never grows again.
    ///
    /// [`SwitchAllocator::allocate_into`]: ../../vix_alloc/trait.SwitchAllocator.html#method.allocate_into
    pub fn clear(&mut self) {
        self.grants.clear();
    }

    /// Adds a grant. Structural invariants are checked lazily by
    /// [`validate_against`](GrantSet::validate_against), not here, so that
    /// intentionally-buggy allocators can be probed in tests.
    pub fn add(&mut self, grant: Grant) {
        self.grants.push(grant);
    }

    /// Iterator over all grants.
    pub fn iter(&self) -> impl Iterator<Item = &Grant> {
        self.grants.iter()
    }

    /// Number of grants (flits that will traverse the switch).
    #[must_use]
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// True if nothing was granted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Grant driving `out_port`, if any.
    #[must_use]
    pub fn for_output(&self, out_port: PortId) -> Option<&Grant> {
        self.grants.iter().find(|g| g.out_port == out_port)
    }

    /// The output granted to `(port, vc)`, if any.
    #[must_use]
    pub fn output_of(&self, port: PortId, vc: VcId) -> Option<PortId> {
        self.grants.iter().find(|g| g.port == port && g.vc == vc).map(|g| g.out_port)
    }

    /// Number of grants issued at `port`.
    #[must_use]
    pub fn count_for_input(&self, port: PortId) -> usize {
        self.grants.iter().filter(|g| g.port == port).count()
    }

    /// Checks every crossbar invariant against the originating requests.
    ///
    /// `partition` describes the VC → virtual input mapping of the router;
    /// pass [`VixPartition::baseline`] for a conventional router.
    ///
    /// # Errors
    ///
    /// Returns the first [`GrantViolation`] found.
    pub fn validate_against(
        &self,
        requests: &RequestSet,
        partition: &VixPartition,
    ) -> Result<(), GrantViolation> {
        // Pairwise scans over the (small, ≤ ports × groups) grant list
        // instead of `seen` collections: this runs inside per-cycle
        // `debug_assert!`s, so it must never heap-allocate.
        for (i, g) in self.grants.iter().enumerate() {
            match requests.get(g.port, g.vc) {
                Some(r) if r.out_port == g.out_port => {}
                _ => return Err(GrantViolation::UnrequestedGrant(*g)),
            }
            if self.grants[..i].iter().any(|e| e.out_port == g.out_port) {
                return Err(GrantViolation::OutputConflict(g.out_port));
            }
            if self.grants[..i].iter().any(|e| (e.port, e.vc) == (g.port, g.vc)) {
                return Err(GrantViolation::DuplicateVc(g.port, g.vc));
            }
        }
        // Per-port capacity and per-sub-group exclusivity.
        for port in (0..requests.ports()).map(PortId) {
            let granted = self.grants.iter().filter(|g| g.port == port).count();
            if granted > partition.groups() {
                return Err(GrantViolation::InputOverSubscribed {
                    port,
                    granted,
                    capacity: partition.groups(),
                });
            }
            for (i, a) in self.grants.iter().enumerate().filter(|(_, g)| g.port == port) {
                for b in self.grants[i + 1..].iter().filter(|g| g.port == port) {
                    if partition.group_of(a.vc) == partition.group_of(b.vc) {
                        return Err(GrantViolation::SubgroupConflict(port, a.vc, b.vc));
                    }
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<Grant> for GrantSet {
    fn from_iter<I: IntoIterator<Item = Grant>>(iter: I) -> Self {
        GrantSet { grants: iter.into_iter().collect() }
    }
}

impl Extend<Grant> for GrantSet {
    fn extend<I: IntoIterator<Item = Grant>>(&mut self, iter: I) {
        self.grants.extend(iter);
    }
}

impl<'a> IntoIterator for &'a GrantSet {
    type Item = &'a Grant;
    type IntoIter = std::slice::Iter<'a, Grant>;

    fn into_iter(self) -> Self::IntoIter {
        self.grants.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(p: usize, v: usize, o: usize) -> Grant {
        Grant { port: PortId(p), vc: VcId(v), out_port: PortId(o) }
    }

    #[test]
    fn request_roundtrip() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(1), VcId(2), PortId(3));
        assert_eq!(rs.len(), 1);
        let r = rs.get(PortId(1), VcId(2)).unwrap();
        assert_eq!(r.out_port, PortId(3));
        assert!(!r.speculative);
        assert!(rs.get(PortId(0), VcId(0)).is_none());
        assert_eq!(rs.remove(PortId(1), VcId(2)).unwrap().out_port, PortId(3));
        assert!(rs.is_empty());
    }

    #[test]
    fn request_replaces_previous() {
        let mut rs = RequestSet::new(2, 2);
        rs.request(PortId(0), VcId(0), PortId(1));
        rs.request(PortId(0), VcId(0), PortId(0));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(PortId(0), VcId(0)).unwrap().out_port, PortId(0));
    }

    #[test]
    fn per_port_and_per_output_views() {
        let mut rs = RequestSet::new(3, 2);
        rs.request(PortId(0), VcId(0), PortId(2));
        rs.request(PortId(0), VcId(1), PortId(1));
        rs.request(PortId(2), VcId(0), PortId(2));
        assert_eq!(rs.requests_from(PortId(0)).count(), 2);
        assert_eq!(rs.requests_from(PortId(1)).count(), 0);
        assert_eq!(rs.requests_for(PortId(2)).count(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut rs = RequestSet::new(2, 2);
        rs.request(PortId(0), VcId(0), PortId(1));
        rs.clear();
        assert!(rs.is_empty());
        assert_eq!(rs.active_requests().count(), 0);
    }

    #[test]
    fn valid_grants_pass_validation() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        rs.request(PortId(1), VcId(3), PortId(2));
        let gs: GrantSet = [grant(0, 0, 4), grant(1, 3, 2)].into_iter().collect();
        gs.validate_against(&rs, &VixPartition::baseline(6)).unwrap();
    }

    #[test]
    fn unrequested_grant_detected() {
        let rs = RequestSet::new(5, 6);
        let gs: GrantSet = [grant(0, 0, 4)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::baseline(6)),
            Err(GrantViolation::UnrequestedGrant(_))
        ));
    }

    #[test]
    fn wrong_output_grant_detected() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        let gs: GrantSet = [grant(0, 0, 3)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::baseline(6)),
            Err(GrantViolation::UnrequestedGrant(_))
        ));
    }

    #[test]
    fn output_conflict_detected() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        rs.request(PortId(1), VcId(0), PortId(4));
        let gs: GrantSet = [grant(0, 0, 4), grant(1, 0, 4)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::baseline(6)),
            Err(GrantViolation::OutputConflict(_))
        ));
    }

    #[test]
    fn baseline_port_cannot_send_two_flits() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        rs.request(PortId(0), VcId(3), PortId(2));
        let gs: GrantSet = [grant(0, 0, 4), grant(0, 3, 2)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::baseline(6)),
            Err(GrantViolation::InputOverSubscribed { .. })
        ));
    }

    #[test]
    fn vix_port_can_send_two_flits_from_different_subgroups() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4)); // sub-group 0 (VCs 0-2)
        rs.request(PortId(0), VcId(3), PortId(2)); // sub-group 1 (VCs 3-5)
        let gs: GrantSet = [grant(0, 0, 4), grant(0, 3, 2)].into_iter().collect();
        gs.validate_against(&rs, &VixPartition::even(6, 2).unwrap()).unwrap();
    }

    #[test]
    fn vix_same_subgroup_conflict_detected() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        rs.request(PortId(0), VcId(1), PortId(2)); // same sub-group as VC 0
        let gs: GrantSet = [grant(0, 0, 4), grant(0, 1, 2)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::even(6, 2).unwrap()),
            Err(GrantViolation::SubgroupConflict(..))
        ));
    }

    #[test]
    fn duplicate_vc_detected() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        let gs: GrantSet = [grant(0, 0, 4), grant(0, 0, 4)].into_iter().collect();
        // Output conflict fires first (same output twice) — either violation
        // is acceptable but something must fire.
        assert!(gs.validate_against(&rs, &VixPartition::baseline(6)).is_err());
    }

    #[test]
    fn grant_set_lookups() {
        let gs: GrantSet = [grant(0, 0, 4), grant(1, 3, 2)].into_iter().collect();
        assert_eq!(gs.len(), 2);
        assert!(!gs.is_empty());
        assert_eq!(gs.for_output(PortId(4)).unwrap().port, PortId(0));
        assert!(gs.for_output(PortId(0)).is_none());
        assert_eq!(gs.output_of(PortId(1), VcId(3)), Some(PortId(2)));
        assert_eq!(gs.output_of(PortId(1), VcId(0)), None);
        assert_eq!(gs.count_for_input(PortId(0)), 1);
        assert_eq!(gs.count_for_input(PortId(3)), 0);
    }

    /// Drives one set reused through `clear()` and a freshly built twin
    /// through the same seeded random trace, and checks after every cycle
    /// that the two are observably equal: every `get`, `len`,
    /// `speculative_len`, and every row of the bit-view. Pins the
    /// bit-gated slots: `clear` leaves stale payloads behind that no reader
    /// may ever see.
    #[test]
    fn reused_set_matches_fresh_set_every_cycle() {
        // 5×6 is the paper's mesh router; 68 ports and 70 VCs push the
        // output/requester rows and the VC rows past one word.
        for (ports, vcs, seed) in [(5, 6, 1u64), (68, 2, 2), (3, 70, 3)] {
            let mut x = 0x9E37_79B9_7F4A_7C15_u64 ^ seed;
            let mut next = move |n: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % n as u64) as usize
            };
            let mut reused = RequestSet::new(ports, vcs);
            for cycle in 0..300 {
                let mut fresh = RequestSet::new(ports, vcs);
                reused.clear();
                // Loads from empty to saturated; pushes may land on a VC
                // twice (replacement), and some requests are withdrawn.
                let posts = next(ports * vcs + 1);
                for _ in 0..posts {
                    let (port, vc) = (PortId(next(ports)), VcId(next(vcs)));
                    if next(8) == 0 {
                        assert_eq!(reused.remove(port, vc), fresh.remove(port, vc));
                        continue;
                    }
                    let req = SwitchRequest {
                        port,
                        vc,
                        out_port: PortId(next(ports)),
                        speculative: next(3) == 0,
                        age: next(16) as u64,
                    };
                    reused.push(req);
                    fresh.push(req);
                }
                let at = format!("{ports}x{vcs} cycle {cycle}");
                for p in (0..ports).map(PortId) {
                    for v in (0..vcs).map(VcId) {
                        assert_eq!(reused.get(p, v), fresh.get(p, v), "{at}: get({p}, {v})");
                    }
                }
                assert_eq!(reused.len(), fresh.len(), "{at}: len");
                assert_eq!(reused.speculative_len(), fresh.speculative_len(), "{at}: spec len");
                // `RequestBits` equality compares every plane: VC planes,
                // output rows, requester rows, active and speculative VCs.
                assert_eq!(reused.bits(), fresh.bits(), "{at}: bit-view");
                assert!(reused.active_requests().eq(fresh.active_requests()), "{at}: iteration");
                assert_eq!(reused, fresh, "{at}");
            }
        }
    }

    /// The `idx` bounds are `debug_assert!`s (hot path); release builds
    /// fall back to the slot `Vec`'s own bounds check, whose panic message
    /// differs — so this test only runs where the debug assertions do.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn request_bounds_checked() {
        let mut rs = RequestSet::new(2, 2);
        rs.request(PortId(2), VcId(0), PortId(0));
    }

    /// `remove` checks the bounds before it tests the active bit, so an
    /// out-of-range VC panics instead of reading another port's mask.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn remove_bounds_checked() {
        let mut rs = RequestSet::new(2, 2);
        let _ = rs.remove(PortId(0), VcId(2));
    }
}
