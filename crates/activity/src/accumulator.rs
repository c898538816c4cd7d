//! Streaming per-net activity accumulation over sampled cycles.

use logicsim::{CycleActivity, GlitchActivity, WordActivity, LANES};
use netlist::{Circuit, NetId};

/// Folds per-cycle transition records into per-net switching-activity
/// estimates: mean transitions per cycle with a standard error for every net.
///
/// Internally the accumulator keeps exact integer power sums (`Σ nᵢ` and
/// `Σ nᵢ²` per net), so accumulation is order-independent and bit-identical
/// across the scalar, compiled and bit-parallel backends; the floating-point
/// moments are only formed on read-out. This is equivalent to a Welford
/// stream for these small counts but cheaper on the vectorized path: one
/// [`u64::count_ones`] per net folds a whole 64-lane
/// [`WordActivity`] word — 64 observations — in a single update.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NodeActivityAccumulator {
    observations: u64,
    /// Per-net Σ nᵢ over all observations.
    totals: Vec<u64>,
    /// Per-net Σ nᵢ² over all observations.
    totals_sq: Vec<u64>,
    /// Per-net Σ gᵢ (glitch transitions) over all observations. Stays zero
    /// when the folded records carry no glitch decomposition (zero-delay
    /// backends).
    glitch_totals: Vec<u64>,
}

impl NodeActivityAccumulator {
    /// Creates an accumulator for `num_nets` nets.
    pub fn new(num_nets: usize) -> Self {
        NodeActivityAccumulator {
            observations: 0,
            totals: vec![0; num_nets],
            totals_sq: vec![0; num_nets],
            glitch_totals: vec![0; num_nets],
        }
    }

    /// Creates an accumulator sized for a circuit.
    pub fn for_circuit(circuit: &Circuit) -> Self {
        Self::new(circuit.num_nets())
    }

    /// Number of nets tracked.
    pub fn num_nets(&self) -> usize {
        self.totals.len()
    }

    /// Number of accumulated observations. Every scalar cycle contributes
    /// one observation; every 64-lane word cycle contributes [`LANES`].
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Adds one scalar cycle record (zero-delay counts are 0/1; the
    /// event-driven measurement simulator can report higher counts when
    /// glitches occur — both are handled exactly).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the record does not match the net count.
    pub fn add_cycle(&mut self, activity: &CycleActivity) {
        debug_assert_eq!(activity.per_net().len(), self.totals.len());
        self.observations += 1;
        for ((total, total_sq), &n) in self
            .totals
            .iter_mut()
            .zip(self.totals_sq.iter_mut())
            .zip(activity.per_net())
        {
            let n = u64::from(n);
            *total += n;
            *total_sq += n * n;
        }
    }

    /// Adds one 64-lane word cycle: every lane is an independent observation,
    /// so this folds [`LANES`] observations per net with a single
    /// `count_ones` each (lane toggles are 0/1, hence `nᵢ² = nᵢ`).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the record does not match the net count.
    pub fn add_word_cycle(&mut self, activity: &WordActivity) {
        debug_assert_eq!(activity.diff_words().len(), self.totals.len());
        self.observations += LANES as u64;
        for ((total, total_sq), &diff) in self
            .totals
            .iter_mut()
            .zip(self.totals_sq.iter_mut())
            .zip(activity.diff_words())
        {
            let k = u64::from(diff.count_ones());
            *total += k;
            *total_sq += k;
        }
    }

    /// Adds one glitch-decomposed measured cycle (the record the delay-aware
    /// [`logicsim::EventDrivenSimulator`] produces): the *total* counts feed
    /// the per-net moment sums exactly like [`add_cycle`](Self::add_cycle),
    /// and the glitch component (`total − settled`) accumulates separately so
    /// the estimate can split every net's activity into functional and glitch
    /// parts.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the record does not match the net count.
    pub fn add_glitch_cycle(&mut self, activity: &GlitchActivity) {
        debug_assert_eq!(activity.total().per_net().len(), self.totals.len());
        self.observations += 1;
        for (((total, total_sq), glitch), (&n, &s)) in self
            .totals
            .iter_mut()
            .zip(self.totals_sq.iter_mut())
            .zip(self.glitch_totals.iter_mut())
            .zip(
                activity
                    .total()
                    .per_net()
                    .iter()
                    .zip(activity.settled().per_net()),
            )
        {
            let n = u64::from(n);
            *total += n;
            *total_sq += n * n;
            *glitch += n - u64::from(s);
        }
    }

    /// Adds one glitch-decomposed 64-lane word cycle (the record the
    /// [`logicsim::TimeSlicedSimulator`] produces): every lane is an
    /// independent observation, folded exactly as if its scalar projection
    /// had gone through [`add_glitch_cycle`](Self::add_glitch_cycle) — the
    /// resulting accumulator is bit-identical to 64 scalar folds. Unlike
    /// the zero-delay [`add_word_cycle`](Self::add_word_cycle), per-lane
    /// counts can exceed 1 (glitches), so the `nᵢ² = nᵢ` shortcut does not
    /// apply; the sums of squares come from the bit-sliced lane counts
    /// ([`logicsim::WordGlitchActivity::count_planes`]): with `P_p` the lanes
    /// whose count has bit `p` set, `Σ_l n_l² = Σ_{p,q} 2^(p+q) |P_p ∩ P_q|`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the record does not match the net count.
    pub fn add_glitch_word_cycle(&mut self, activity: &logicsim::WordGlitchActivity) {
        debug_assert_eq!(activity.num_nets(), self.totals.len());
        self.observations += LANES as u64;
        for (net, &total) in activity.totals().iter().enumerate() {
            if total == 0 {
                continue;
            }
            let planes = activity.count_planes(net);
            let mut total_sq = 0u64;
            for (p, &plane_p) in planes.iter().enumerate() {
                for (q, &plane_q) in planes.iter().enumerate() {
                    total_sq += u64::from((plane_p & plane_q).count_ones()) << (p + q);
                }
            }
            let settled = activity.settled_diff_words()[net];
            self.totals[net] += total;
            self.totals_sq[net] += total_sq;
            // A settled lane change implies at least one commit, so the
            // subtraction cannot underflow.
            self.glitch_totals[net] += total - u64::from(settled.count_ones());
        }
    }

    /// Captures the exact integer moment sums as a plain-data
    /// [`seqstats::MomentAccumulatorState`] — the unit the session
    /// checkpoints serialize. Restoring via
    /// [`from_state`](Self::from_state) reproduces this accumulator exactly
    /// (the fields are integers, so there is no precision to lose).
    pub fn snapshot(&self) -> seqstats::MomentAccumulatorState {
        seqstats::MomentAccumulatorState {
            observations: self.observations,
            totals: self.totals.clone(),
            totals_sq: self.totals_sq.clone(),
            glitch_totals: self.glitch_totals.clone(),
        }
    }

    /// Rebuilds an accumulator from a [snapshot](Self::snapshot).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the state's per-net vectors
    /// have mismatched lengths or do not cover `num_nets` nets.
    pub fn from_state(
        state: &seqstats::MomentAccumulatorState,
        num_nets: usize,
    ) -> Result<Self, String> {
        let nets = state.validate()?;
        if nets != num_nets {
            return Err(format!(
                "accumulator state tracks {nets} nets but the circuit has {num_nets}"
            ));
        }
        Ok(NodeActivityAccumulator {
            observations: state.observations,
            totals: state.totals.clone(),
            totals_sq: state.totals_sq.clone(),
            glitch_totals: state.glitch_totals.clone(),
        })
    }

    /// Merges another accumulator into this one (e.g. per-thread partials).
    ///
    /// # Panics
    ///
    /// Panics if the net counts disagree.
    pub fn merge(&mut self, other: &NodeActivityAccumulator) {
        assert_eq!(
            self.totals.len(),
            other.totals.len(),
            "accumulators must track the same nets"
        );
        self.observations += other.observations;
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += b;
        }
        for (a, b) in self.totals_sq.iter_mut().zip(&other.totals_sq) {
            *a += b;
        }
        for (a, b) in self.glitch_totals.iter_mut().zip(&other.glitch_totals) {
            *a += b;
        }
    }

    /// Total transitions observed on one net.
    pub fn total_transitions_on(&self, net: NetId) -> u64 {
        self.totals[net.index()]
    }

    /// Total transitions across all nets and all observations — by
    /// construction equal to the sum of the aggregate totals of every folded
    /// record, whichever backend produced them.
    pub fn total_transitions(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Mean transitions per observed cycle for one net (0 when empty).
    pub fn mean(&self, net: NetId) -> f64 {
        if self.observations == 0 {
            return 0.0;
        }
        self.totals[net.index()] as f64 / self.observations as f64
    }

    /// Dense per-net mean transitions per cycle (the toggle densities).
    pub fn means(&self) -> Vec<f64> {
        if self.observations == 0 {
            return vec![0.0; self.totals.len()];
        }
        let n = self.observations as f64;
        self.totals.iter().map(|&t| t as f64 / n).collect()
    }

    /// Total glitch transitions observed on one net (0 unless
    /// glitch-decomposed records were folded).
    pub fn glitch_transitions_on(&self, net: NetId) -> u64 {
        self.glitch_totals[net.index()]
    }

    /// Total glitch transitions across all nets and all observations.
    pub fn total_glitch_transitions(&self) -> u64 {
        self.glitch_totals.iter().sum()
    }

    /// Mean glitch transitions per observed cycle for one net (0 when empty).
    pub fn glitch_mean(&self, net: NetId) -> f64 {
        if self.observations == 0 {
            return 0.0;
        }
        self.glitch_totals[net.index()] as f64 / self.observations as f64
    }

    /// Dense per-net mean glitch transitions per cycle. All zeros when the
    /// folded records carried no glitch decomposition.
    pub fn glitch_means(&self) -> Vec<f64> {
        if self.observations == 0 {
            return vec![0.0; self.glitch_totals.len()];
        }
        let n = self.observations as f64;
        self.glitch_totals.iter().map(|&t| t as f64 / n).collect()
    }

    /// Unbiased sample variance of one net's per-cycle transition count
    /// (0 for fewer than two observations).
    pub fn variance(&self, net: NetId) -> f64 {
        if self.observations < 2 {
            return 0.0;
        }
        let n = self.observations as f64;
        let idx = net.index();
        let mean = self.totals[idx] as f64 / n;
        let centred = self.totals_sq[idx] as f64 - n * mean * mean;
        // Integer sums make the numerator exact; clamp the last-digit
        // cancellation of the subtraction rather than returning -0.0-ish.
        (centred / (n - 1.0)).max(0.0)
    }

    /// Standard error of one net's mean activity.
    pub fn std_error(&self, net: NetId) -> f64 {
        if self.observations == 0 {
            return 0.0;
        }
        (self.variance(net) / self.observations as f64).sqrt()
    }

    /// Dense per-net standard errors of the mean activities.
    pub fn std_errors(&self) -> Vec<f64> {
        (0..self.totals.len())
            .map(|i| self.std_error(NetId::from_index(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(counts: &[u32]) -> CycleActivity {
        CycleActivity::from_counts(counts.to_vec())
    }

    #[test]
    fn empty_accumulator_is_benign() {
        let acc = NodeActivityAccumulator::new(3);
        assert_eq!(acc.num_nets(), 3);
        assert_eq!(acc.observations(), 0);
        assert_eq!(acc.total_transitions(), 0);
        assert_eq!(acc.means(), vec![0.0; 3]);
        assert_eq!(acc.std_errors(), vec![0.0; 3]);
        assert_eq!(acc.mean(NetId::from_index(0)), 0.0);
        assert_eq!(acc.variance(NetId::from_index(0)), 0.0);
    }

    #[test]
    fn scalar_moments_match_closed_forms() {
        let mut acc = NodeActivityAccumulator::new(2);
        // Net 0 observes [1, 0, 1, 2]; net 1 observes [0, 0, 0, 0].
        for counts in [[1, 0], [0, 0], [1, 0], [2, 0]] {
            acc.add_cycle(&record(&counts));
        }
        assert_eq!(acc.observations(), 4);
        let n0 = NetId::from_index(0);
        assert_eq!(acc.total_transitions_on(n0), 4);
        assert_eq!(acc.total_transitions(), 4);
        assert!((acc.mean(n0) - 1.0).abs() < 1e-15);
        // Sample variance of [1,0,1,2] about mean 1 is (0+1+0+1)/3.
        assert!((acc.variance(n0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((acc.std_error(n0) - (2.0 / 3.0f64 / 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(acc.variance(NetId::from_index(1)), 0.0);
    }

    #[test]
    fn word_cycles_count_64_observations() {
        let mut acc = NodeActivityAccumulator::new(2);
        // Net 0 toggles in 3 lanes, net 1 in none.
        acc.add_word_cycle(&WordActivity::from_diff_words(vec![0b1011, 0]));
        assert_eq!(acc.observations(), 64);
        let n0 = NetId::from_index(0);
        assert_eq!(acc.total_transitions_on(n0), 3);
        assert!((acc.mean(n0) - 3.0 / 64.0).abs() < 1e-15);
        // Bernoulli sample variance: 64/63 * p(1-p).
        let p = 3.0 / 64.0;
        assert!((acc.variance(n0) - 64.0 / 63.0 * p * (1.0 - p)).abs() < 1e-12);
    }

    #[test]
    fn word_and_scalar_lane_projection_agree() {
        // Folding a WordActivity must equal folding its 64 per-lane scalar
        // projections one by one.
        let diffs = vec![0xDEAD_BEEF_0123_4567u64, 0, u64::MAX, 1 << 63];
        let word = WordActivity::from_diff_words(diffs);
        let mut via_word = NodeActivityAccumulator::new(4);
        via_word.add_word_cycle(&word);
        let mut via_lanes = NodeActivityAccumulator::new(4);
        for lane in 0..LANES {
            via_lanes.add_cycle(&word.lane_activity(lane));
        }
        assert_eq!(via_word, via_lanes);
    }

    #[test]
    fn glitch_cycles_split_total_into_functional_and_glitch() {
        let mut acc = NodeActivityAccumulator::new(2);
        // Net 0: totals [3, 1], settled [1, 1] -> glitch [2, 0].
        // Net 1: totals [2, 0], settled [0, 0] -> glitch [2, 0].
        acc.add_glitch_cycle(&GlitchActivity::from_counts(
            CycleActivity::from_counts(vec![3, 2]),
            CycleActivity::from_counts(vec![1, 0]),
        ));
        acc.add_glitch_cycle(&GlitchActivity::from_counts(
            CycleActivity::from_counts(vec![1, 0]),
            CycleActivity::from_counts(vec![1, 0]),
        ));
        let n0 = NetId::from_index(0);
        let n1 = NetId::from_index(1);
        assert_eq!(acc.observations(), 2);
        assert_eq!(acc.total_transitions_on(n0), 4);
        assert_eq!(acc.glitch_transitions_on(n0), 2);
        assert_eq!(acc.glitch_transitions_on(n1), 2);
        assert_eq!(acc.total_glitch_transitions(), 4);
        assert!((acc.glitch_mean(n0) - 1.0).abs() < 1e-15);
        assert_eq!(acc.glitch_means(), vec![1.0, 1.0]);
        // The total-count moments match a plain accumulator fed the totals,
        // so glitch tracking never disturbs the existing estimates.
        let mut plain = NodeActivityAccumulator::new(2);
        plain.add_cycle(&CycleActivity::from_counts(vec![3, 2]));
        plain.add_cycle(&CycleActivity::from_counts(vec![1, 0]));
        assert_eq!(acc.means(), plain.means());
        assert_eq!(acc.std_errors(), plain.std_errors());
    }

    #[test]
    fn glitch_word_cycles_equal_64_scalar_glitch_folds() {
        // Drive the time-sliced word backend on a glitching circuit and
        // check the word fold is bit-identical to folding each lane's
        // scalar projection through add_glitch_cycle.
        use logicsim::{DelayModel, TimeSlicedSimulator};
        use netlist::generator::{generate, GeneratorConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let cfg = GeneratorConfig::new("accum_word", 4, 2, 5, 30).with_seed(3);
        let c = generate(&cfg).unwrap();
        let mut sim = TimeSlicedSimulator::new(&c, DelayModel::Unit(100)).unwrap();
        let mut state = logicsim::BitParallelSimulator::new(&c);
        let mut rng = StdRng::seed_from_u64(17);
        let mut via_word = NodeActivityAccumulator::for_circuit(&c);
        let mut via_lanes = NodeActivityAccumulator::for_circuit(&c);
        for _ in 0..6 {
            let inputs: Vec<u64> = (0..c.num_primary_inputs())
                .map(|_| rng.gen::<u64>())
                .collect();
            let prev = state.words().to_vec();
            let activity = sim.simulate_cycle(&prev, &inputs);
            via_word.add_glitch_word_cycle(activity);
            for lane in 0..LANES {
                via_lanes.add_glitch_cycle(&activity.lane_activity(lane));
            }
            state.step_state_only(&inputs);
        }
        assert_eq!(via_word, via_lanes);
        assert!(via_word.total_transitions() > 0);
        assert_eq!(via_word.observations(), 6 * LANES as u64);
    }

    #[test]
    fn zero_delay_records_accumulate_no_glitch() {
        let mut acc = NodeActivityAccumulator::new(3);
        acc.add_cycle(&record(&[1, 0, 1]));
        acc.add_word_cycle(&WordActivity::from_diff_words(vec![0b11, 0, 1]));
        assert_eq!(acc.total_glitch_transitions(), 0);
        assert_eq!(acc.glitch_means(), vec![0.0; 3]);
    }

    #[test]
    fn merge_combines_glitch_totals() {
        let mut left = NodeActivityAccumulator::new(1);
        left.add_glitch_cycle(&GlitchActivity::from_counts(
            CycleActivity::from_counts(vec![3]),
            CycleActivity::from_counts(vec![1]),
        ));
        let mut right = NodeActivityAccumulator::new(1);
        right.add_glitch_cycle(&GlitchActivity::from_counts(
            CycleActivity::from_counts(vec![2]),
            CycleActivity::from_counts(vec![0]),
        ));
        left.merge(&right);
        assert_eq!(left.glitch_transitions_on(NetId::from_index(0)), 4);
        assert_eq!(left.observations(), 2);
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        let records = [[1u32, 0], [0, 2], [1, 1], [3, 0]];
        let mut whole = NodeActivityAccumulator::new(2);
        let mut left = NodeActivityAccumulator::new(2);
        let mut right = NodeActivityAccumulator::new(2);
        for (i, counts) in records.iter().enumerate() {
            whole.add_cycle(&record(counts));
            if i < 2 {
                left.add_cycle(&record(counts));
            } else {
                right.add_cycle(&record(counts));
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    #[should_panic(expected = "same nets")]
    fn merge_rejects_mismatched_sizes() {
        NodeActivityAccumulator::new(2).merge(&NodeActivityAccumulator::new(3));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use logicsim::{pack_lane_bit, BitParallelSimulator, CompiledSimulator, ZeroDelaySimulator};
    use netlist::generator::{generate, GeneratorConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Conservation across every backend: the per-net transition counts
        /// the accumulator folds sum — over all nets — to the aggregate
        /// totals of the raw activity records, for the interpreted scalar,
        /// compiled scalar and 64-lane bit-parallel simulators; and the
        /// scalar accumulators agree with lane 0 of the word accumulator.
        #[test]
        fn per_net_totals_match_aggregate_totals(
            seed in 0u64..200,
            circuit_seed in 0u64..50,
        ) {
            let cfg = GeneratorConfig::new("prop_accum", 5, 2, 6, 40).with_seed(circuit_seed);
            let c = generate(&cfg).unwrap();
            let mut interpreted = ZeroDelaySimulator::new(&c);
            let mut compiled = CompiledSimulator::new(&c);
            let mut bitpar = BitParallelSimulator::new(&c);
            let mut acc_interpreted = NodeActivityAccumulator::for_circuit(&c);
            let mut acc_compiled = NodeActivityAccumulator::for_circuit(&c);
            let mut acc_word = NodeActivityAccumulator::for_circuit(&c);
            let mut aggregate_scalar = 0u64;
            let mut aggregate_word = 0u64;

            let mut rngs: Vec<StdRng> = (0..LANES)
                .map(|l| StdRng::seed_from_u64(seed.wrapping_mul(97).wrapping_add(l as u64)))
                .collect();
            let mut words = vec![0u64; c.num_primary_inputs()];
            for _ in 0..25 {
                let mut lane0_pattern = Vec::new();
                for (lane, rng) in rngs.iter_mut().enumerate() {
                    let pattern = logicsim::random_input_vector(&c, 0.5, rng);
                    for (w, &bit) in words.iter_mut().zip(&pattern) {
                        pack_lane_bit(w, lane, bit);
                    }
                    if lane == 0 {
                        lane0_pattern = pattern;
                    }
                }
                let a = interpreted.step(&lane0_pattern).clone();
                let b = compiled.step(&lane0_pattern).clone();
                let w = bitpar.step(&words).clone();
                aggregate_scalar += a.total_transitions();
                aggregate_word += w.total_transitions();
                acc_interpreted.add_cycle(&a);
                acc_compiled.add_cycle(&b);
                acc_word.add_word_cycle(&w);
            }

            // Summed per-net counts equal the aggregate record totals.
            prop_assert_eq!(acc_interpreted.total_transitions(), aggregate_scalar);
            prop_assert_eq!(acc_compiled.total_transitions(), aggregate_scalar);
            prop_assert_eq!(acc_word.total_transitions(), aggregate_word);
            // The two scalar backends fold to identical accumulators.
            prop_assert_eq!(&acc_interpreted, &acc_compiled);
            // Lane 0 of the word path carries the scalar trajectory: its
            // per-net totals are bounded by the word accumulator's.
            for net in 0..c.num_nets() {
                let id = NetId::from_index(net);
                prop_assert!(
                    acc_interpreted.total_transitions_on(id)
                        <= acc_word.total_transitions_on(id)
                );
            }
        }
    }
}
