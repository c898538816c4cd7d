//! Per-cycle switching-activity records and multi-cycle accumulation.

use netlist::{Circuit, NetId};

/// The switching activity observed in one clock cycle: how many times each
/// net changed value.
///
/// Zero-delay simulation yields counts of 0 or 1 per net; the event-driven
/// simulator can report higher counts when glitches occur.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CycleActivity {
    transitions: Vec<u32>,
}

impl CycleActivity {
    /// Creates an all-zero activity record for `num_nets` nets.
    pub fn zeroed(num_nets: usize) -> Self {
        CycleActivity {
            transitions: vec![0; num_nets],
        }
    }

    /// Creates a record from a dense per-net transition-count vector.
    pub fn from_counts(transitions: Vec<u32>) -> Self {
        CycleActivity { transitions }
    }

    /// Per-net transition counts, indexed by [`NetId::index`].
    #[inline]
    pub fn per_net(&self) -> &[u32] {
        &self.transitions
    }

    /// The number of transitions on a specific net.
    #[inline]
    pub fn transitions_on(&self, net: NetId) -> u32 {
        self.transitions[net.index()]
    }

    /// Mutable access to the per-net transition counts, for simulators and
    /// tests that fill the record in place.
    #[inline]
    pub fn per_net_mut(&mut self) -> &mut [u32] {
        &mut self.transitions
    }

    /// Resets all counts to zero (reuse between cycles without reallocating).
    pub fn reset(&mut self) {
        self.transitions.fill(0);
    }

    /// Total number of transitions across all nets this cycle.
    pub fn total_transitions(&self) -> u64 {
        self.transitions.iter().map(|&t| u64::from(t)).sum()
    }

    /// Number of nets that toggled at least once.
    pub fn active_nets(&self) -> usize {
        self.transitions.iter().filter(|&&t| t > 0).count()
    }
}

/// The switching activity of one clock cycle across the 64 lanes of a
/// bit-parallel simulation, stored as one XOR mask per net: bit `l` of the
/// mask for net `i` is set iff net `i` toggled in lane `l` this cycle.
///
/// Aggregate counts reduce to [`u64::count_ones`]; a single lane can be
/// projected out with [`lane_activity`](Self::lane_activity) for code that
/// expects the scalar [`CycleActivity`] shape.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WordActivity {
    diffs: Vec<u64>,
}

impl WordActivity {
    /// Creates an all-zero record for `num_nets` nets.
    pub fn zeroed(num_nets: usize) -> Self {
        WordActivity {
            diffs: vec![0; num_nets],
        }
    }

    /// Creates a record from a dense per-net XOR-mask vector.
    pub fn from_diff_words(diffs: Vec<u64>) -> Self {
        WordActivity { diffs }
    }

    /// The per-net XOR masks, indexed by [`NetId::index`].
    #[inline]
    pub fn diff_words(&self) -> &[u64] {
        &self.diffs
    }

    /// Mutable access to the per-net XOR masks, for simulators that fill the
    /// record in place.
    #[inline]
    pub fn diff_words_mut(&mut self) -> &mut [u64] {
        &mut self.diffs
    }

    /// Whether a net toggled in a given lane this cycle (0 or 1, the
    /// zero-delay transition count of that lane).
    #[inline]
    pub fn transitions_on_lane(&self, net: NetId, lane: usize) -> u32 {
        ((self.diffs[net.index()] >> lane) & 1) as u32
    }

    /// The number of lanes in which a net toggled this cycle — the per-net
    /// aggregate a node-activity accumulator folds with one `count_ones`.
    #[inline]
    pub fn transitions_on(&self, net: NetId) -> u32 {
        self.diffs[net.index()].count_ones()
    }

    /// Total transitions across all nets and all 64 lanes this cycle.
    pub fn total_transitions(&self) -> u64 {
        self.diffs.iter().map(|d| u64::from(d.count_ones())).sum()
    }

    /// Total transitions across all nets within one lane this cycle.
    pub fn lane_total_transitions(&self, lane: usize) -> u64 {
        self.diffs.iter().map(|d| (d >> lane) & 1).sum()
    }

    /// Projects one lane out into a scalar [`CycleActivity`] record.
    pub fn lane_activity(&self, lane: usize) -> CycleActivity {
        CycleActivity::from_counts(
            self.diffs
                .iter()
                .map(|d| ((d >> lane) & 1) as u32)
                .collect(),
        )
    }
}

/// The glitch-decomposed switching activity of one clock cycle, as reported
/// by the delay-aware [`crate::EventDrivenSimulator`]:
///
/// * [`total`](Self::total) — every transition each net made while the cycle
///   settled, glitches included (the counts Eq. 1 charges for power);
/// * [`settled`](Self::settled) — the functional 0/1 transition counts, i.e.
///   whether the net's stable end-of-cycle value differs from the previous
///   cycle's (exactly what a zero-delay simulation reports).
///
/// The glitch activity of a net is the difference `total − settled`: the
/// transitions that exist only because unequal path delays let the net toggle
/// on the way to its final value. It is always even and non-negative (every
/// glitch is a there-and-back pulse), which [`glitch_on`](Self::glitch_on)
/// relies on.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GlitchActivity {
    total: CycleActivity,
    settled: CycleActivity,
}

impl GlitchActivity {
    /// Creates an all-zero record for `num_nets` nets.
    pub fn zeroed(num_nets: usize) -> Self {
        GlitchActivity {
            total: CycleActivity::zeroed(num_nets),
            settled: CycleActivity::zeroed(num_nets),
        }
    }

    /// Builds a record from explicit total and settled counts.
    ///
    /// # Panics
    ///
    /// Panics if the two records cover different net counts, or if any net's
    /// total count is below its settled count (a glitch count cannot be
    /// negative).
    pub fn from_counts(total: CycleActivity, settled: CycleActivity) -> Self {
        assert_eq!(
            total.per_net().len(),
            settled.per_net().len(),
            "total and settled records must cover the same nets"
        );
        assert!(
            total
                .per_net()
                .iter()
                .zip(settled.per_net())
                .all(|(t, s)| t >= s),
            "total transitions must dominate settled transitions"
        );
        GlitchActivity { total, settled }
    }

    /// Every transition of the cycle, glitches included.
    #[inline]
    pub fn total(&self) -> &CycleActivity {
        &self.total
    }

    /// The functional (zero-delay) 0/1 transition counts of the cycle.
    #[inline]
    pub fn settled(&self) -> &CycleActivity {
        &self.settled
    }

    /// Glitch transitions on one net this cycle (`total − settled`).
    #[inline]
    pub fn glitch_on(&self, net: NetId) -> u32 {
        self.total.transitions_on(net) - self.settled.transitions_on(net)
    }

    /// Total glitch transitions across all nets this cycle.
    pub fn total_glitch_transitions(&self) -> u64 {
        self.total.total_transitions() - self.settled.total_transitions()
    }

    pub(crate) fn total_mut(&mut self) -> &mut CycleActivity {
        &mut self.total
    }

    pub(crate) fn settled_mut(&mut self) -> &mut CycleActivity {
        &mut self.settled
    }

    /// The total and settled count slices at once.
    fn counts_mut(&mut self) -> (&mut [u32], &mut [u32]) {
        (&mut self.total.transitions, &mut self.settled.transitions)
    }
}

/// The glitch-decomposed switching activity of one clock cycle across the
/// [`LANES`](crate::LANES) lanes of a delay-aware bit-parallel simulation
/// (the word-wide analogue of [`GlitchActivity`]).
///
/// Three views of the same cycle coexist:
///
/// * **aggregate totals** — per net, the number of transitions summed over
///   all lanes ([`totals`](Self::totals)), maintained as one
///   [`u64::count_ones`] per committed change;
/// * **settled diff words** — per net, one `u64` whose bit `l` is set iff
///   the net's settled value changed in lane `l`
///   ([`settled_diff_words`](Self::settled_diff_words));
/// * **bit-sliced lane counts** — per net, count plane words where bit `l`
///   of word `p` is bit `p` of lane `l`'s transition count
///   ([`count_planes`](Self::count_planes)). Each committed change is one
///   word-wide ripple-carry add, and a plane is added only when some count
///   needs it, so any lane's exact per-net counts can be read back
///   ([`lane_activity_into`](Self::lane_activity_into),
///   [`project_lanes`](Self::project_lanes)) without the
///   simulator maintaining 64 dense count arrays on its hot path.
///
/// Glitch activity falls out exactly as in the scalar record:
/// `glitch = total − settled`, per net, per lane and in aggregate.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WordGlitchActivity {
    /// Per-net transition counts summed across all lanes.
    totals: Vec<u64>,
    /// Per-net settled diff words (bit `l` = lane `l`'s settled value
    /// changed this cycle).
    settled: Vec<u64>,
    /// Bit-sliced lane counts, `planes` words per net: bit `l` of
    /// `counts[net * planes + p]` is bit `p` of lane `l`'s transition count
    /// on `net` this cycle.
    counts: Vec<u64>,
    planes: usize,
    /// Nets with a non-zero aggregate total (sparse clearing).
    counted: Vec<u32>,
}

impl WordGlitchActivity {
    /// Creates an all-zero record for `num_nets` nets.
    pub fn zeroed(num_nets: usize) -> Self {
        WordGlitchActivity {
            totals: vec![0; num_nets],
            settled: vec![0; num_nets],
            counts: vec![0; num_nets],
            planes: 1,
            counted: Vec::new(),
        }
    }

    /// The number of nets this record covers.
    pub fn num_nets(&self) -> usize {
        self.totals.len()
    }

    /// Clears the previous cycle's counts (sparse).
    pub(crate) fn begin_cycle(&mut self) {
        for &net in &self.counted {
            let net = net as usize;
            self.totals[net] = 0;
            self.counts[net * self.planes..(net + 1) * self.planes].fill(0);
        }
        self.counted.clear();
    }

    /// Records one committed change: `mask` lanes of `net` flipped.
    #[inline]
    pub(crate) fn record(&mut self, net: u32, mask: u64) {
        debug_assert_ne!(mask, 0);
        let net = net as usize;
        let slot = &mut self.totals[net];
        if *slot == 0 {
            self.counted.push(net as u32);
        }
        *slot += u64::from(mask.count_ones());
        // Add one to every flipped lane's bit-sliced count.
        let mut carry = mask;
        let mut plane = 0;
        while carry != 0 {
            if plane == self.planes {
                self.add_plane();
            }
            let word = &mut self.counts[net * self.planes + plane];
            let old = *word;
            *word = old ^ carry;
            carry &= old;
            plane += 1;
        }
    }

    /// Widens every net's counts by one plane (only counted nets hold
    /// non-zero words).
    fn add_plane(&mut self) {
        let (old, new) = (self.planes, self.planes + 1);
        let mut counts = vec![0; self.totals.len() * new];
        for &net in &self.counted {
            let net = net as usize;
            counts[net * new..net * new + old]
                .copy_from_slice(&self.counts[net * old..(net + 1) * old]);
        }
        self.counts = counts;
        self.planes = new;
    }

    /// The dense settled-diff word array, for the simulator to fill.
    pub(crate) fn settled_words_mut(&mut self) -> &mut [u64] {
        &mut self.settled
    }

    /// Per-net transition counts summed across all lanes.
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }

    /// Per-net settled diff words: bit `l` of word `i` is set iff net `i`'s
    /// settled value changed in lane `l`.
    pub fn settled_diff_words(&self) -> &[u64] {
        &self.settled
    }

    /// The bit-sliced per-lane transition counts of `net`: bit `l` of word
    /// `p` is bit `p` of lane `l`'s count. There are as many words as the
    /// largest count seen so far needs.
    pub fn count_planes(&self, net: usize) -> &[u64] {
        &self.counts[net * self.planes..(net + 1) * self.planes]
    }

    /// Lane `lane`'s transition count from a net's count planes.
    #[inline]
    fn lane_count(planes: &[u64], lane: usize) -> u32 {
        planes
            .iter()
            .rev()
            .fold(0, |count, &plane| count << 1 | ((plane >> lane) & 1) as u32)
    }

    /// Total transitions across all nets and lanes this cycle.
    pub fn total_transitions(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Settled (functional) transitions across all nets and lanes.
    pub fn settled_transitions(&self) -> u64 {
        self.settled
            .iter()
            .map(|&w| u64::from(w.count_ones()))
            .sum()
    }

    /// Glitch transitions across all nets and lanes (`total − settled`).
    pub fn glitch_transitions(&self) -> u64 {
        self.total_transitions() - self.settled_transitions()
    }

    /// Projects one lane out into a scalar [`GlitchActivity`], overwriting
    /// `out` completely. The projected record is bit-identical to what a
    /// scalar delay-aware simulation of that lane alone would have reported.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or `out` covers a different net count.
    pub fn lane_activity_into(&self, lane: usize, out: &mut GlitchActivity) {
        assert!(lane < 64, "lane index out of range");
        assert_eq!(
            out.total().per_net().len(),
            self.totals.len(),
            "lane projection target must cover the same nets"
        );
        let (totals, settled) = out.counts_mut();
        totals.fill(0);
        settled.fill(0);
        // A settled change implies a committed one, so only counted nets
        // can be non-zero.
        for &net in &self.counted {
            let net = net as usize;
            totals[net] = Self::lane_count(self.count_planes(net), lane);
            settled[net] = ((self.settled[net] >> lane) & 1) as u32;
        }
    }

    /// Allocating convenience wrapper around
    /// [`lane_activity_into`](Self::lane_activity_into).
    pub fn lane_activity(&self, lane: usize) -> GlitchActivity {
        let mut out = GlitchActivity::zeroed(self.totals.len());
        self.lane_activity_into(lane, &mut out);
        out
    }

    /// Hands out every lane's record, one at a time, through `scratch`:
    /// the moved nets are listed once, and each
    /// [`LaneProjection::lane`] call then rewrites only those nets of one
    /// dense record, where [`lane_activity_into`](Self::lane_activity_into)
    /// clears and scans per lane. The records are bit-identical to
    /// `lane_activity_into`'s.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` covers a different net count.
    pub fn project_lanes<'a>(&'a self, scratch: &'a mut LaneActivities) -> LaneProjection<'a> {
        assert_eq!(
            scratch.view.total().per_net().len(),
            self.totals.len(),
            "lane projection target must cover the same nets"
        );
        let (totals, settled) = scratch.view.counts_mut();
        for &net in &scratch.nets {
            totals[net as usize] = 0;
            settled[net as usize] = 0;
        }
        // A settled change implies a committed one, so only counted nets
        // can be non-zero.
        scratch.nets.clear();
        scratch.nets.extend_from_slice(&self.counted);
        LaneProjection {
            activity: self,
            scratch,
        }
    }
}

/// Reusable scratch of [`WordGlitchActivity::project_lanes`]: the moved
/// nets of the projected record and one dense [`GlitchActivity`], non-zero
/// only on those nets. O(nets) in all.
#[derive(Debug, Clone)]
pub struct LaneActivities {
    /// The moved nets of the projected record.
    nets: Vec<u32>,
    view: GlitchActivity,
}

impl LaneActivities {
    /// Creates an empty scratch for `num_nets` nets.
    pub fn zeroed(num_nets: usize) -> Self {
        LaneActivities {
            nets: Vec::new(),
            view: GlitchActivity::zeroed(num_nets),
        }
    }
}

/// Every lane of one [`WordGlitchActivity`], handed out as dense records by
/// [`lane`](Self::lane); built by [`WordGlitchActivity::project_lanes`].
#[derive(Debug)]
pub struct LaneProjection<'a> {
    activity: &'a WordGlitchActivity,
    scratch: &'a mut LaneActivities,
}

impl LaneProjection<'_> {
    /// The dense record of one lane, bit-identical to
    /// [`WordGlitchActivity::lane_activity`]. Valid until the next call.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn lane(&mut self, lane: usize) -> &GlitchActivity {
        assert!(lane < crate::LANES, "lane index out of range");
        // Fixed plane counts unroll the per-net plane loop.
        match self.activity.planes {
            1 => self.write_lane::<1>(lane),
            2 => self.write_lane::<2>(lane),
            3 => self.write_lane::<3>(lane),
            4 => self.write_lane::<4>(lane),
            5 => self.write_lane::<5>(lane),
            _ => self.write_lane::<0>(lane),
        }
        &self.scratch.view
    }

    /// Writes `lane`'s counts of every moved net into the view; `PLANES`
    /// is the plane count, or 0 for any count.
    fn write_lane<const PLANES: usize>(&mut self, lane: usize) {
        let planes = if PLANES == 0 {
            self.activity.planes
        } else {
            PLANES
        };
        let activity = self.activity;
        let (totals, settled) = self.scratch.view.counts_mut();
        for &net in &self.scratch.nets {
            let net = net as usize;
            let counts = &activity.counts[net * planes..(net + 1) * planes];
            totals[net] = WordGlitchActivity::lane_count(counts, lane);
            settled[net] = ((activity.settled[net] >> lane) & 1) as u32;
        }
    }
}

/// Accumulates switching activity over many cycles, yielding per-net toggle
/// densities (average transitions per cycle). This is the quantity
/// probabilistic power estimators call the *transition density*; the
/// decoupled baseline estimator uses it for latch nets.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ActivityAccumulator {
    totals: Vec<u64>,
    cycles: u64,
}

impl ActivityAccumulator {
    /// Creates an accumulator for the given circuit.
    pub fn new(circuit: &Circuit) -> Self {
        ActivityAccumulator {
            totals: vec![0; circuit.num_nets()],
            cycles: 0,
        }
    }

    /// Adds one cycle of activity.
    pub fn add(&mut self, activity: &CycleActivity) {
        debug_assert_eq!(activity.per_net().len(), self.totals.len());
        for (total, &t) in self.totals.iter_mut().zip(activity.per_net()) {
            *total += u64::from(t);
        }
        self.cycles += 1;
    }

    /// Number of accumulated cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total transitions observed on a net over all accumulated cycles.
    pub fn total_transitions_on(&self, net: NetId) -> u64 {
        self.totals[net.index()]
    }

    /// Average transitions per cycle for each net (the toggle density).
    /// Returns all zeros when no cycles have been accumulated.
    pub fn toggle_densities(&self) -> Vec<f64> {
        if self.cycles == 0 {
            return vec![0.0; self.totals.len()];
        }
        self.totals
            .iter()
            .map(|&t| t as f64 / self.cycles as f64)
            .collect()
    }

    /// Average total transitions per cycle across the whole circuit.
    pub fn mean_transitions_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.totals.iter().sum::<u64>() as f64 / self.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::iscas89;

    #[test]
    fn cycle_activity_basic_accessors() {
        let mut a = CycleActivity::zeroed(4);
        a.per_net_mut()[1] = 2;
        a.per_net_mut()[3] = 1;
        assert_eq!(a.total_transitions(), 3);
        assert_eq!(a.active_nets(), 2);
        assert_eq!(a.transitions_on(NetId::from_index(1)), 2);
        a.reset();
        assert_eq!(a.total_transitions(), 0);
    }

    #[test]
    fn from_counts_round_trips() {
        let a = CycleActivity::from_counts(vec![1, 0, 3]);
        assert_eq!(a.per_net(), &[1, 0, 3]);
    }

    #[test]
    fn word_activity_per_net_aggregate() {
        let w = WordActivity::from_diff_words(vec![0, 0b1011, u64::MAX]);
        assert_eq!(w.transitions_on(NetId::from_index(0)), 0);
        assert_eq!(w.transitions_on(NetId::from_index(1)), 3);
        assert_eq!(w.transitions_on(NetId::from_index(2)), 64);
        assert_eq!(w.total_transitions(), 67);
    }

    #[test]
    fn glitch_activity_decomposes() {
        let total = CycleActivity::from_counts(vec![3, 1, 0, 2]);
        let settled = CycleActivity::from_counts(vec![1, 1, 0, 0]);
        let g = GlitchActivity::from_counts(total, settled);
        assert_eq!(g.glitch_on(NetId::from_index(0)), 2);
        assert_eq!(g.glitch_on(NetId::from_index(1)), 0);
        assert_eq!(g.glitch_on(NetId::from_index(3)), 2);
        assert_eq!(g.total_glitch_transitions(), 4);
        assert_eq!(g.total().total_transitions(), 6);
        assert_eq!(g.settled().total_transitions(), 2);
    }

    #[test]
    #[should_panic(expected = "dominate")]
    fn glitch_activity_rejects_negative_glitch() {
        GlitchActivity::from_counts(
            CycleActivity::from_counts(vec![0, 1]),
            CycleActivity::from_counts(vec![1, 1]),
        );
    }

    #[test]
    #[should_panic(expected = "same nets")]
    fn glitch_activity_rejects_mismatched_lengths() {
        GlitchActivity::from_counts(CycleActivity::zeroed(2), CycleActivity::zeroed(3));
    }

    #[test]
    fn accumulator_averages() {
        let c = iscas89::load("s27").unwrap();
        let mut acc = ActivityAccumulator::new(&c);
        assert_eq!(acc.toggle_densities(), vec![0.0; c.num_nets()]);
        let mut a = CycleActivity::zeroed(c.num_nets());
        a.per_net_mut()[0] = 1;
        acc.add(&a);
        let mut b = CycleActivity::zeroed(c.num_nets());
        b.per_net_mut()[0] = 3;
        acc.add(&b);
        assert_eq!(acc.cycles(), 2);
        assert_eq!(acc.total_transitions_on(NetId::from_index(0)), 4);
        assert!((acc.toggle_densities()[0] - 2.0).abs() < 1e-12);
        assert!((acc.mean_transitions_per_cycle() - 2.0).abs() < 1e-12);
    }
}
