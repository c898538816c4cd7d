//! Compiled zero-delay simulation: scalar and 64-lane bit-parallel.
//!
//! Both simulators here execute the flat instruction stream of a
//! [`CompiledCircuit`] instead of walking the gate objects per cycle, which
//! removes the per-gate dispatch and pointer chasing of
//! [`crate::ZeroDelaySimulator`]. They are bit-exact with the interpreted
//! simulator — same latch-capture semantics, same settle order, same
//! transition counts — and differ only in throughput:
//!
//! * [`CompiledSimulator`] evaluates one replication (`bool` per net). It is
//!   the drop-in fast path for the decorrelation cycles of the estimator,
//!   where only the next state matters.
//! * [`BitParallelSimulator`] stores one `u64` *word* per net and evaluates
//!   [`LANES`] (64) independent replications at once: bitwise AND/OR/XOR/NOT
//!   on words apply the gate function to every lane simultaneously, and
//!   transition counting reduces to `XOR` + [`u64::count_ones`] per net
//!   (see [`WordActivity`]). Lane `l` of a word holds bit `l` of every net;
//!   lanes never interact.
//!
//! Because the two value types (`bool`, `u64`) share one generic evaluation
//! routine, the scalar and bit-parallel paths cannot drift apart.

use std::ops::{BitAnd, BitOr, BitXor, Not};

use netlist::{Circuit, CompiledCircuit, Instruction, Opcode};
use rand::Rng;

use crate::state::SimState;
use crate::trace::{CycleActivity, WordActivity};

/// Number of independent replications a [`BitParallelSimulator`] evaluates
/// per pass (the width of a machine word).
pub const LANES: usize = 64;

/// The value-type abstraction shared by the scalar and bit-parallel
/// evaluators: anything with lane-wise boolean algebra.
pub(crate) trait LogicWord:
    Copy + BitAnd<Output = Self> + BitOr<Output = Self> + BitXor<Output = Self> + Not<Output = Self>
{
}
impl LogicWord for bool {}
impl LogicWord for u64 {}

/// Executes one settle pass of the compiled program over a dense value
/// vector. Works identically for `bool` (one lane) and `u64` (64 lanes).
fn settle<W: LogicWord>(program: &CompiledCircuit, values: &mut [W]) {
    for instruction in program.instructions() {
        values[instruction.output as usize] = eval_instruction(program, instruction, values);
    }
}

#[inline]
pub(crate) fn eval_instruction<W: LogicWord>(
    program: &CompiledCircuit,
    instruction: &Instruction,
    values: &[W],
) -> W {
    let operands = program.operands_of(instruction);
    let first = values[operands[0] as usize];
    let rest = operands[1..].iter().map(|&n| values[n as usize]);
    match instruction.opcode {
        Opcode::And => rest.fold(first, |acc, v| acc & v),
        Opcode::Nand => !rest.fold(first, |acc, v| acc & v),
        Opcode::Or => rest.fold(first, |acc, v| acc | v),
        Opcode::Nor => !rest.fold(first, |acc, v| acc | v),
        Opcode::Xor => rest.fold(first, |acc, v| acc ^ v),
        Opcode::Xnor => !rest.fold(first, |acc, v| acc ^ v),
        Opcode::Not => !first,
        Opcode::Buf => first,
    }
}

/// Fanin-specialised evaluation: the one- and two-operand shapes that
/// dominate real netlists compile to direct loads with no iterator state,
/// wider gates fall back to the generic fold. Produces bit-identical results
/// to [`eval_instruction`] for every instruction.
#[inline(always)]
pub(crate) fn eval_instruction_fast<W: LogicWord>(
    program: &CompiledCircuit,
    instruction: &Instruction,
    values: &[W],
) -> W {
    let operands = program.operands_of(instruction);
    match (instruction.opcode, operands) {
        (Opcode::Not, &[a]) => !values[a as usize],
        (Opcode::Buf, &[a]) => values[a as usize],
        (Opcode::And, &[a, b]) => values[a as usize] & values[b as usize],
        (Opcode::Nand, &[a, b]) => !(values[a as usize] & values[b as usize]),
        (Opcode::Or, &[a, b]) => values[a as usize] | values[b as usize],
        (Opcode::Nor, &[a, b]) => !(values[a as usize] | values[b as usize]),
        (Opcode::Xor, &[a, b]) => values[a as usize] ^ values[b as usize],
        (Opcode::Xnor, &[a, b]) => !(values[a as usize] ^ values[b as usize]),
        (Opcode::And, &[a, b, c]) => values[a as usize] & values[b as usize] & values[c as usize],
        (Opcode::Or, &[a, b, c]) => values[a as usize] | values[b as usize] | values[c as usize],
        (Opcode::Xor, &[a, b, c]) => values[a as usize] ^ values[b as usize] ^ values[c as usize],
        _ => eval_instruction(program, instruction, values),
    }
}

/// Latch capture over a dense value vector: `Q <- D` for every flip-flop,
/// reading all `D` values before writing any `Q` so chained latches behave
/// like real edge-triggered hardware. `scratch` must have one slot per
/// flip-flop.
#[inline]
fn capture_latches<W: LogicWord>(program: &CompiledCircuit, values: &mut [W], scratch: &mut [W]) {
    for (slot, &(d, _)) in scratch.iter_mut().zip(program.flip_flops()) {
        *slot = values[d as usize];
    }
    for (slot, &(_, q)) in scratch.iter().zip(program.flip_flops()) {
        values[q as usize] = *slot;
    }
}

// ---------------------------------------------------------------------------
// Scalar compiled simulator
// ---------------------------------------------------------------------------

/// Zero-delay simulator executing the compiled instruction stream for a
/// single replication. Bit-exact with [`crate::ZeroDelaySimulator`]; faster
/// because the settle loop has no per-gate dispatch.
#[derive(Debug, Clone)]
pub struct CompiledSimulator<'c> {
    circuit: &'c Circuit,
    program: CompiledCircuit,
    values: Vec<bool>,
    prev: Vec<bool>,
    latch_scratch: Vec<bool>,
    input_scratch: Vec<bool>,
    activity: CycleActivity,
}

impl<'c> CompiledSimulator<'c> {
    /// Compiles `circuit` and initialises all latches and inputs to logic 0
    /// (constants applied, combinational logic settled).
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_program(circuit, CompiledCircuit::compile(circuit))
    }

    /// Builds the simulator from an already-compiled program (e.g. one
    /// shared across many simulator instances).
    ///
    /// # Panics
    ///
    /// Panics if `program` was not compiled from a circuit with the same net
    /// count.
    pub fn with_program(circuit: &'c Circuit, program: CompiledCircuit) -> Self {
        assert_eq!(
            program.num_nets(),
            circuit.num_nets(),
            "compiled program does not match the circuit"
        );
        let state = SimState::zeroed(circuit);
        let mut sim = CompiledSimulator {
            circuit,
            values: state.values().to_vec(),
            prev: vec![false; circuit.num_nets()],
            latch_scratch: vec![false; circuit.num_flip_flops()],
            input_scratch: vec![false; circuit.num_primary_inputs()],
            activity: CycleActivity::zeroed(circuit.num_nets()),
            program,
        };
        settle(&sim.program, &mut sim.values);
        sim
    }

    /// The circuit this simulator operates on.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The compiled program being executed.
    pub fn program(&self) -> &CompiledCircuit {
        &self.program
    }

    /// The stable per-net values after the last cycle (or initialisation).
    #[inline]
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// The present-state vector (flip-flop outputs).
    pub fn latch_state(&self) -> Vec<bool> {
        self.program
            .flip_flops()
            .iter()
            .map(|&(_, q)| self.values[q as usize])
            .collect()
    }

    /// The current primary-input pattern.
    pub fn input_pattern(&self) -> Vec<bool> {
        self.program
            .primary_inputs()
            .iter()
            .map(|&pi| self.values[pi as usize])
            .collect()
    }

    /// Forces the latch state and input pattern, then settles the
    /// combinational logic.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the circuit.
    pub fn reset_to(&mut self, latch_state: &[bool], inputs: &[bool]) {
        assert_eq!(latch_state.len(), self.circuit.num_flip_flops());
        assert_eq!(inputs.len(), self.circuit.num_primary_inputs());
        for (&(_, q), &v) in self.program.flip_flops().iter().zip(latch_state) {
            self.values[q as usize] = v;
        }
        for (&pi, &v) in self.program.primary_inputs().iter().zip(inputs) {
            self.values[pi as usize] = v;
        }
        settle(&self.program, &mut self.values);
    }

    /// Draws a uniformly random latch state and input pattern and settles
    /// the combinational logic (same RNG consumption as
    /// [`crate::ZeroDelaySimulator::randomize`]).
    pub fn randomize<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let latches: Vec<bool> = (0..self.circuit.num_flip_flops())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let inputs: Vec<bool> = (0..self.circuit.num_primary_inputs())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        self.reset_to(&latches, &inputs);
    }

    /// Advances the circuit by one clock cycle and counts the zero-delay
    /// transitions, exactly like [`crate::ZeroDelaySimulator::step`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not have one value per primary input.
    pub fn step(&mut self, inputs: &[bool]) -> &CycleActivity {
        assert_eq!(
            inputs.len(),
            self.circuit.num_primary_inputs(),
            "input pattern length must equal the number of primary inputs"
        );
        self.prev.copy_from_slice(&self.values);
        self.apply_cycle(inputs);
        self.activity.reset();
        let counts = self.activity.per_net_mut();
        for (idx, (&old, &new)) in self.prev.iter().zip(&self.values).enumerate() {
            if old != new {
                counts[idx] = 1;
            }
        }
        &self.activity
    }

    /// Like [`step`](Self::step) but skips transition counting — the
    /// decorrelation fast path.
    pub fn step_state_only(&mut self, inputs: &[bool]) {
        assert_eq!(inputs.len(), self.circuit.num_primary_inputs());
        self.apply_cycle(inputs);
    }

    /// Advances the circuit by `cycles` clock cycles, letting `fill` write
    /// each cycle's input pattern into a reused buffer (no per-cycle
    /// allocation), discarding activity.
    pub fn advance_with<F>(&mut self, cycles: usize, mut fill: F)
    where
        F: FnMut(&mut [bool]),
    {
        let mut inputs = std::mem::take(&mut self.input_scratch);
        for _ in 0..cycles {
            fill(&mut inputs);
            self.step_state_only(&inputs);
        }
        self.input_scratch = inputs;
    }

    #[inline]
    fn apply_cycle(&mut self, inputs: &[bool]) {
        capture_latches(&self.program, &mut self.values, &mut self.latch_scratch);
        for (&pi, &v) in self.program.primary_inputs().iter().zip(inputs) {
            self.values[pi as usize] = v;
        }
        settle(&self.program, &mut self.values);
    }
}

// ---------------------------------------------------------------------------
// 64-lane bit-parallel simulator
// ---------------------------------------------------------------------------

/// Zero-delay simulator evaluating [`LANES`] independent replications at
/// once, one bit per lane in a `u64` word per net.
///
/// Input patterns are supplied as one word per primary input: bit `l` of
/// word `i` is the value of input `i` in lane `l` (see
/// [`pack_lane_bit`] / [`broadcast`]). All lanes start from the all-zero
/// state; use [`reset_lane_to`](Self::reset_lane_to) or
/// [`reset_all_to`](Self::reset_all_to) to diverge or re-seed them.
#[derive(Debug, Clone)]
pub struct BitParallelSimulator<'c> {
    circuit: &'c Circuit,
    program: CompiledCircuit,
    words: Vec<u64>,
    prev: Vec<u64>,
    latch_scratch: Vec<u64>,
    activity: WordActivity,
}

/// Broadcasts one boolean to all 64 lanes of a word.
#[inline]
pub const fn broadcast(value: bool) -> u64 {
    if value {
        u64::MAX
    } else {
        0
    }
}

/// Sets or clears bit `lane` of `word` (the lane-packing primitive used to
/// assemble per-lane input patterns into words).
#[inline]
pub fn pack_lane_bit(word: &mut u64, lane: usize, value: bool) {
    debug_assert!(lane < LANES);
    *word = (*word & !(1u64 << lane)) | (u64::from(value) << lane);
}

impl<'c> BitParallelSimulator<'c> {
    /// Compiles `circuit` and initialises every lane to the all-zero state
    /// (constants applied, combinational logic settled).
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_program(circuit, CompiledCircuit::compile(circuit))
    }

    /// Builds the simulator from an already-compiled program.
    ///
    /// # Panics
    ///
    /// Panics if `program` was not compiled from a circuit with the same net
    /// count.
    pub fn with_program(circuit: &'c Circuit, program: CompiledCircuit) -> Self {
        assert_eq!(
            program.num_nets(),
            circuit.num_nets(),
            "compiled program does not match the circuit"
        );
        let mut words = vec![0u64; circuit.num_nets()];
        for &(net, value) in program.constants() {
            words[net as usize] = broadcast(value);
        }
        let mut sim = BitParallelSimulator {
            circuit,
            words,
            prev: vec![0u64; circuit.num_nets()],
            latch_scratch: vec![0u64; circuit.num_flip_flops()],
            activity: WordActivity::zeroed(circuit.num_nets()),
            program,
        };
        settle(&sim.program, &mut sim.words);
        sim
    }

    /// The circuit this simulator operates on.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The stable per-net words after the last cycle: bit `l` of word `i` is
    /// the value of net `i` in lane `l`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Extracts one lane's stable per-net values into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES` or `out` is not one slot per net.
    pub fn lane_values_into(&self, lane: usize, out: &mut [bool]) {
        assert!(lane < LANES, "lane {lane} out of range");
        assert_eq!(out.len(), self.words.len());
        for (slot, &word) in out.iter_mut().zip(&self.words) {
            *slot = (word >> lane) & 1 == 1;
        }
    }

    /// Extracts one lane's stable per-net values as a fresh vector.
    pub fn lane_values(&self, lane: usize) -> Vec<bool> {
        let mut out = vec![false; self.words.len()];
        self.lane_values_into(lane, &mut out);
        out
    }

    /// One lane's present-state vector (flip-flop outputs).
    pub fn lane_latch_state(&self, lane: usize) -> Vec<bool> {
        assert!(lane < LANES, "lane {lane} out of range");
        self.program
            .flip_flops()
            .iter()
            .map(|&(_, q)| (self.words[q as usize] >> lane) & 1 == 1)
            .collect()
    }

    /// Forces one lane's latch state and input pattern, then settles the
    /// combinational logic. Other lanes re-settle from their own (unchanged)
    /// sources, so their stable values are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the circuit or `lane` is
    /// out of range.
    pub fn reset_lane_to(&mut self, lane: usize, latch_state: &[bool], inputs: &[bool]) {
        assert!(lane < LANES, "lane {lane} out of range");
        assert_eq!(latch_state.len(), self.circuit.num_flip_flops());
        assert_eq!(inputs.len(), self.circuit.num_primary_inputs());
        for (&(_, q), &v) in self.program.flip_flops().iter().zip(latch_state) {
            pack_lane_bit(&mut self.words[q as usize], lane, v);
        }
        for (&pi, &v) in self.program.primary_inputs().iter().zip(inputs) {
            pack_lane_bit(&mut self.words[pi as usize], lane, v);
        }
        settle(&self.program, &mut self.words);
    }

    /// Forces *all* lanes to the same latch state and input pattern, then
    /// settles.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the circuit.
    pub fn reset_all_to(&mut self, latch_state: &[bool], inputs: &[bool]) {
        assert_eq!(latch_state.len(), self.circuit.num_flip_flops());
        assert_eq!(inputs.len(), self.circuit.num_primary_inputs());
        for (&(_, q), &v) in self.program.flip_flops().iter().zip(latch_state) {
            self.words[q as usize] = broadcast(v);
        }
        for (&pi, &v) in self.program.primary_inputs().iter().zip(inputs) {
            self.words[pi as usize] = broadcast(v);
        }
        settle(&self.program, &mut self.words);
    }

    /// Advances all 64 lanes by one clock cycle and records which lanes of
    /// which nets toggled. `inputs` carries one word per primary input.
    ///
    /// Returns the per-net XOR masks; `count_ones` of a mask is the number
    /// of lanes in which that net toggled. The reference is valid until the
    /// next stepping call.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not have one word per primary input.
    pub fn step(&mut self, inputs: &[u64]) -> &WordActivity {
        assert_eq!(
            inputs.len(),
            self.circuit.num_primary_inputs(),
            "input words must have one word per primary input"
        );
        self.prev.copy_from_slice(&self.words);
        self.apply_cycle(inputs);
        let diffs = self.activity.diff_words_mut();
        for ((diff, &old), &new) in diffs.iter_mut().zip(&self.prev).zip(&self.words) {
            *diff = old ^ new;
        }
        &self.activity
    }

    /// Like [`step`](Self::step) but skips transition recording — the
    /// decorrelation fast path for all 64 lanes at once.
    pub fn step_state_only(&mut self, inputs: &[u64]) {
        assert_eq!(inputs.len(), self.circuit.num_primary_inputs());
        self.apply_cycle(inputs);
    }

    /// Advances all lanes by `cycles` clock cycles, letting `fill` write
    /// each cycle's input words into a reused buffer, discarding activity.
    pub fn advance_with<F>(&mut self, cycles: usize, mut fill: F)
    where
        F: FnMut(&mut [u64]),
    {
        let mut inputs = vec![0u64; self.circuit.num_primary_inputs()];
        for _ in 0..cycles {
            fill(&mut inputs);
            self.step_state_only(&inputs);
        }
    }

    #[inline]
    fn apply_cycle(&mut self, inputs: &[u64]) {
        capture_latches(&self.program, &mut self.words, &mut self.latch_scratch);
        for (&pi, &w) in self.program.primary_inputs().iter().zip(inputs) {
            self.words[pi as usize] = w;
        }
        settle(&self.program, &mut self.words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zero_delay::ZeroDelaySimulator;
    use netlist::iscas89;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_pattern(circuit: &Circuit, rng: &mut StdRng) -> Vec<bool> {
        crate::state::random_input_vector(circuit, 0.5, rng)
    }

    #[test]
    fn compiled_matches_interpreted_cycle_for_cycle() {
        let c = iscas89::load("s298").unwrap();
        let mut interpreted = ZeroDelaySimulator::new(&c);
        let mut compiled = CompiledSimulator::new(&c);
        assert_eq!(interpreted.values(), compiled.values());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let inputs = random_pattern(&c, &mut rng);
            let a = interpreted.step(&inputs).per_net().to_vec();
            let b = compiled.step(&inputs).per_net().to_vec();
            assert_eq!(a, b, "transition counts diverged");
            assert_eq!(interpreted.values(), compiled.values());
        }
    }

    #[test]
    fn compiled_state_only_matches_step() {
        let c = iscas89::load("s27").unwrap();
        let mut a = CompiledSimulator::new(&c);
        let mut b = CompiledSimulator::new(&c);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let inputs = random_pattern(&c, &mut rng);
            a.step(&inputs);
            b.step_state_only(&inputs);
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn compiled_reset_and_accessors_match_interpreted() {
        let c = iscas89::load("s27").unwrap();
        let mut interpreted = ZeroDelaySimulator::new(&c);
        let mut compiled = CompiledSimulator::new(&c);
        interpreted.reset_to(&[true, false, true], &[false, true, false, true]);
        compiled.reset_to(&[true, false, true], &[false, true, false, true]);
        assert_eq!(interpreted.values(), compiled.values());
        assert_eq!(interpreted.latch_state(), compiled.latch_state());
        assert_eq!(interpreted.input_pattern(), compiled.input_pattern());
        assert_eq!(compiled.circuit().name(), "s27");
        assert_eq!(compiled.program().instructions().len(), c.num_gates());
    }

    #[test]
    fn compiled_randomize_consumes_rng_like_interpreted() {
        let c = iscas89::load("s27").unwrap();
        let mut interpreted = ZeroDelaySimulator::new(&c);
        let mut compiled = CompiledSimulator::new(&c);
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        interpreted.randomize(&mut ra);
        compiled.randomize(&mut rb);
        assert_eq!(interpreted.values(), compiled.values());
    }

    #[test]
    fn advance_with_fills_in_place() {
        let c = iscas89::load("s27").unwrap();
        let mut a = CompiledSimulator::new(&c);
        let mut b = CompiledSimulator::new(&c);
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        a.advance_with(25, |buf| {
            for v in buf.iter_mut() {
                *v = ra.gen_bool(0.5);
            }
        });
        for _ in 0..25 {
            let inputs = random_pattern(&c, &mut rb);
            b.step_state_only(&inputs);
        }
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn broadcast_and_pack_lane_bit() {
        assert_eq!(broadcast(true), u64::MAX);
        assert_eq!(broadcast(false), 0);
        let mut w = 0u64;
        pack_lane_bit(&mut w, 5, true);
        assert_eq!(w, 1 << 5);
        pack_lane_bit(&mut w, 63, true);
        pack_lane_bit(&mut w, 5, false);
        assert_eq!(w, 1 << 63);
    }

    #[test]
    fn all_lanes_agree_under_broadcast_inputs() {
        let c = iscas89::load("s298").unwrap();
        let mut sim = BitParallelSimulator::new(&c);
        let mut rng = StdRng::seed_from_u64(11);
        let mut words = vec![0u64; c.num_primary_inputs()];
        for _ in 0..100 {
            let pattern = random_pattern(&c, &mut rng);
            for (w, &bit) in words.iter_mut().zip(&pattern) {
                *w = broadcast(bit);
            }
            let diffs = sim.step(&words).diff_words().to_vec();
            // With identical inputs everywhere, every net word must be
            // all-zeros or all-ones in both state and diff masks.
            for &w in sim.words() {
                assert!(w == 0 || w == u64::MAX, "lane divergence: {w:#x}");
            }
            for &d in &diffs {
                assert!(d == 0 || d == u64::MAX);
            }
        }
    }

    #[test]
    fn lane_zero_tracks_scalar_with_divergent_other_lanes() {
        let c = iscas89::load("s298").unwrap();
        let mut scalar = ZeroDelaySimulator::new(&c);
        let mut sim = BitParallelSimulator::new(&c);
        // One RNG per lane; lane 0 shares its stream with the scalar sim.
        let mut rngs: Vec<StdRng> = (0..LANES)
            .map(|l| StdRng::seed_from_u64(100 + l as u64))
            .collect();
        let mut words = vec![0u64; c.num_primary_inputs()];
        for _ in 0..100 {
            let mut lane0_pattern = Vec::new();
            for (lane, rng) in rngs.iter_mut().enumerate() {
                let pattern = random_pattern(&c, rng);
                for (w, &bit) in words.iter_mut().zip(&pattern) {
                    pack_lane_bit(w, lane, bit);
                }
                if lane == 0 {
                    lane0_pattern = pattern;
                }
            }
            let scalar_activity = scalar.step(&lane0_pattern).per_net().to_vec();
            let activity = sim.step(&words).clone();
            assert_eq!(scalar.values(), sim.lane_values(0).as_slice());
            for (net, &count) in scalar_activity.iter().enumerate() {
                let lane0 = activity.transitions_on_lane(netlist::NetId::from_index(net), 0);
                assert_eq!(count, lane0, "net {net} transitions diverged");
            }
        }
    }

    #[test]
    fn reset_lane_only_touches_that_lane() {
        let c = iscas89::load("s27").unwrap();
        let mut sim = BitParallelSimulator::new(&c);
        let mut rng = StdRng::seed_from_u64(21);
        // Scatter the lanes first.
        let mut words = vec![0u64; c.num_primary_inputs()];
        for _ in 0..10 {
            for w in words.iter_mut() {
                *w = rng.gen::<u64>();
            }
            sim.step_state_only(&words);
        }
        let lane3_before = sim.lane_values(3);
        sim.reset_lane_to(7, &[true, true, false], &[true, false, true, false]);
        assert_eq!(sim.lane_values(3), lane3_before, "lane 3 was disturbed");
        assert_eq!(sim.lane_latch_state(7), vec![true, true, false]);
        // The reset lane now matches a scalar simulator reset the same way.
        let mut scalar = ZeroDelaySimulator::new(&c);
        scalar.reset_to(&[true, true, false], &[true, false, true, false]);
        assert_eq!(scalar.values(), sim.lane_values(7).as_slice());
    }

    #[test]
    fn reset_all_matches_scalar_everywhere() {
        let c = iscas89::load("s27").unwrap();
        let mut sim = BitParallelSimulator::new(&c);
        sim.reset_all_to(&[false, true, true], &[true, true, false, false]);
        let mut scalar = ZeroDelaySimulator::new(&c);
        scalar.reset_to(&[false, true, true], &[true, true, false, false]);
        for lane in [0, 1, 31, 63] {
            assert_eq!(scalar.values(), sim.lane_values(lane).as_slice());
        }
    }

    #[test]
    fn constants_broadcast_to_all_lanes() {
        use netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("k");
        let one = b.constant("tie1", true).unwrap();
        let a = b.primary_input("a");
        let x = b.gate(GateKind::And, "x", &[a, one]).unwrap();
        b.primary_output(x);
        let c = b.finish().unwrap();
        let mut sim = BitParallelSimulator::new(&c);
        let x_id = c.net_by_name("x").unwrap().id();
        sim.step_state_only(&[u64::MAX]);
        assert_eq!(sim.words()[x_id.index()], u64::MAX);
        sim.step_state_only(&[0b1010]);
        assert_eq!(sim.words()[x_id.index()], 0b1010);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::zero_delay::ZeroDelaySimulator;
    use netlist::generator::{generate, GeneratorConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Lane 0 of the bit-parallel simulator matches the interpreted
        /// scalar simulator cycle-for-cycle — state *and* per-net transition
        /// counts — on random generator circuits, while the other 63 lanes
        /// run divergent input streams.
        #[test]
        fn lane_zero_is_bit_exact_on_random_circuits(
            seed in 0u64..200,
            circuit_seed in 0u64..50,
        ) {
            let cfg = GeneratorConfig::new("prop_bitpar", 5, 2, 6, 40).with_seed(circuit_seed);
            let c = generate(&cfg).unwrap();
            let mut scalar = ZeroDelaySimulator::new(&c);
            let mut compiled = CompiledSimulator::new(&c);
            let mut bitpar = BitParallelSimulator::new(&c);
            let mut rngs: Vec<StdRng> = (0..LANES)
                .map(|l| StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(l as u64)))
                .collect();
            let mut words = vec![0u64; c.num_primary_inputs()];
            for _ in 0..20 {
                let mut lane0_pattern = Vec::new();
                for (lane, rng) in rngs.iter_mut().enumerate() {
                    let pattern = crate::state::random_input_vector(&c, 0.5, rng);
                    for (w, &bit) in words.iter_mut().zip(&pattern) {
                        pack_lane_bit(w, lane, bit);
                    }
                    if lane == 0 {
                        lane0_pattern = pattern;
                    }
                }
                let scalar_counts = scalar.step(&lane0_pattern).per_net().to_vec();
                let compiled_counts = compiled.step(&lane0_pattern).per_net().to_vec();
                let diffs = bitpar.step(&words).diff_words().to_vec();
                prop_assert_eq!(&scalar_counts, &compiled_counts);
                prop_assert_eq!(scalar.values(), compiled.values());
                prop_assert_eq!(scalar.values(), bitpar.lane_values(0).as_slice());
                for (net, &count) in scalar_counts.iter().enumerate() {
                    let lane0 = (diffs[net] & 1) as u32;
                    prop_assert_eq!(count, lane0);
                }
            }
        }

        /// All 64 lanes driven by the same per-lane seed produce identical
        /// trajectories: every net word stays all-zeros or all-ones.
        #[test]
        fn identical_lane_seeds_agree(seed in 0u64..200, circuit_seed in 0u64..50) {
            let cfg = GeneratorConfig::new("prop_bitpar2", 4, 2, 5, 30).with_seed(circuit_seed);
            let c = generate(&cfg).unwrap();
            let mut sim = BitParallelSimulator::new(&c);
            // One RNG per lane, all with the same seed: identical streams.
            let mut rngs: Vec<StdRng> = (0..LANES)
                .map(|_| StdRng::seed_from_u64(seed))
                .collect();
            let mut words = vec![0u64; c.num_primary_inputs()];
            for _ in 0..15 {
                for (lane, rng) in rngs.iter_mut().enumerate() {
                    let pattern = crate::state::random_input_vector(&c, 0.5, rng);
                    for (w, &bit) in words.iter_mut().zip(&pattern) {
                        pack_lane_bit(w, lane, bit);
                    }
                }
                let diffs = sim.step(&words).diff_words().to_vec();
                for &w in sim.words() {
                    prop_assert!(w == 0 || w == u64::MAX, "lane divergence: {:#x}", w);
                }
                for &d in &diffs {
                    prop_assert!(d == 0 || d == u64::MAX);
                }
            }
        }
    }
}
