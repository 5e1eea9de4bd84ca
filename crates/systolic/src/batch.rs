//! Lane-packed batch simulation: up to 64 independent problem instances per
//! compiled-schedule walk.
//!
//! Every signal in the paper's expanded bit-level arrays carries a single
//! bit, so the per-cycle bookkeeping of the compiled backend — slot ranking,
//! CSR fire-list walks, token-arena updates — is pure overhead amortised
//! over one bit of payload. This module packs the same bit of up to
//! [`MAX_LANES`] *independent* instances into the bit-lanes of a `u64` (the
//! ultra-wide word model): lane *i* of every word belongs to instance *i*,
//! and one [`crate::compiled::CompiledSchedule::execute_batch`] walk then
//! simulates the whole batch. That walk is the scalar one: `Wordwise`
//! presents the packed cells as scalar semantics whose bundles are words,
//! so a lane-packed run is the scalar algorithm executed on 64-bit words.
//! [`crate::clocked::run_clocked_batch`] runs the same words through the
//! interpreted engine. Either way the [`BatchRun`] stays dense: outputs in
//! slot order, a point found by rank arithmetic.
//!
//! Why this is sound: which inputs are `Some`, which dependence columns are
//! active, the firing order, the violations and the in-flight peaks are all
//! *schedule* properties — functions of `(J, D, E, T, P)` only, identical in
//! every lane. Only token values differ per lane, and the cell functions are
//! bitwise (parity / majority / the 5-input wide adder), so evaluating them
//! on words evaluates every lane's scalar function simultaneously.
//!
//! The wordization contract, per semantics:
//! * [`MatmulLaneCells`] — the bitwise word form of
//!   [`MatmulExpansionIICells`]: every control decision in `compute` depends
//!   only on the index point and input presence (lane-uniform), so the
//!   scalar body ports to [`LaneWord`] operations verbatim;
//! * [`crate::model35::Model35LaneCells`] — the same bitwise port of the
//!   generic model-(3.5) cells, covering convolution, matrix–vector and the
//!   other Section 3.2 workloads word-wide;
//! * [`LaneView`] — adapts one lane of any [`LaneCellSemantics`] back into a
//!   scalar [`SyncCellSemantics`], so the scalar engines can replay a single
//!   instance bit-exactly: one faulted lane is
//!   `execute_faulted(&LaneView::new(..), ..)`;
//! * [`LaneFaultedCells`] — wraps any bitwise [`LaneCellSemantics`] with a
//!   [`LaneFaultMasks`] schedule of **per-lane output faults** (transient
//!   flips, stuck-at), so up to [`MAX_LANES`] *distinct fault cases* ride
//!   one word-wide walk: faults perturb only token values after compute,
//!   never the (lane-uniform) control flow, so the wordization argument is
//!   untouched and each lane sees exactly the scalar faulted semantics;
//! * [`GoldenBatch`] — the clean run of one set of cells, from which a
//!   [`LaneFaultedCells`]-equal run re-fires only the slots its lane faults
//!   disturb (concurrent fault simulation over the same words).

use crate::clocked::{
    CellSemantics, ClockedRun, ClockedViolation, MatmulExpansionIICells, MatmulSignals,
    SyncCellSemantics,
};
use crate::compiled::CompiledSchedule;
use crate::fault::FaultableBundle;
use bitlevel_arith::{
    flip_lanes, full_add_lanes, lane_bit, set_lanes, wide_add_lanes, Bit, LaneWord,
};
use bitlevel_ir::BoxSet;
use bitlevel_linalg::IVec;
use std::collections::HashMap;
use std::fmt;

pub use bitlevel_arith::MAX_LANES;

/// Cell semantics evaluated one machine word — one *lane* per problem
/// instance — at a time.
///
/// `Packed` is the word form of a token bundle (one [`LaneWord`] per
/// signal), `Bundle` is the scalar per-lane form every existing consumer
/// understands. The contract binding them: for every index point `q`, every
/// lane `l` and every input row, `extract_lane(compute_lanes(q, packed), l)`
/// must equal `compute_lane(l, q, per-lane inputs)` — the engine-agreement
/// tests pin this down against the interpreted oracle.
pub trait LaneCellSemantics: Sync {
    /// Scalar per-lane signal bundle (what a [`ClockedRun`] carries).
    type Bundle: Clone + Send + Sync + fmt::Debug;
    /// Lane-packed token: one word per signal, covering all lanes at once.
    /// [`GoldenBatch::faulted`] compares a re-fired token with the clean
    /// one to decide whether the disturbance travels on.
    type Packed: Clone + Send + Sync + fmt::Debug + PartialEq;

    /// Number of occupied lanes, `1..=MAX_LANES`. Lanes `>= lanes()` are
    /// unused and must stay all-zero in every packed token.
    fn lanes(&self) -> usize;

    /// Computes the cell at `q` for all lanes at once. `inputs[i]` follows
    /// the same contract as [`SyncCellSemantics::compute`] — `None` marks an
    /// inactive column or boundary input, uniformly across lanes.
    fn compute_lanes(&self, q: &IVec, inputs: &[Option<Self::Packed>]) -> Self::Packed;

    /// Computes a single lane with scalar tokens — the reference form used
    /// by [`LaneView`] for faulted replays and verification.
    fn compute_lane(&self, lane: usize, q: &IVec, inputs: &[Option<Self::Bundle>]) -> Self::Bundle;

    /// Reads lane `lane` of a packed token as a scalar bundle.
    fn extract_lane(&self, packed: &Self::Packed, lane: usize) -> Self::Bundle;
}

/// A [`LaneCellSemantics`] seen as scalar cell semantics whose bundles are
/// the packed words: the compiled engines' one value walk and the
/// interpreted [`crate::clocked::run_clocked`] run it unchanged and thereby
/// compute every lane at once. Sound because neither engine's control flow
/// reads token values (see the module docs).
pub(crate) struct Wordwise<'a, L>(pub(crate) &'a L);

impl<L: LaneCellSemantics> SyncCellSemantics for Wordwise<'_, L> {
    type Bundle = L::Packed;

    fn compute(&self, q: &IVec, inputs: &[Option<L::Packed>]) -> L::Packed {
        self.0.compute_lanes(q, inputs)
    }
}

impl<L: LaneCellSemantics> CellSemantics for Wordwise<'_, L> {
    type Bundle = L::Packed;

    fn compute(&mut self, q: &IVec, inputs: &[Option<L::Packed>]) -> L::Packed {
        self.0.compute_lanes(q, inputs)
    }
}

/// Dense slot addressing of a box index set: slot `s` holds the rank-`s`
/// point of [`BoxSet::iter_points`], and a point's slot is its mixed-radix
/// rank `Σᵢ (qᵢ − lᵢ)·strideᵢ` — arithmetic, with no hashing.
#[derive(Debug, Clone)]
pub(crate) struct Slots {
    set: BoxSet,
    strides: Vec<usize>,
}

impl Slots {
    /// The slots of `set`.
    ///
    /// # Panics
    /// Panics if `|J|` does not fit in `usize`.
    pub(crate) fn new(set: BoxSet) -> Self {
        let strides = set
            .try_strides()
            .unwrap_or_else(|e| panic!("dense slots: {e}"));
        Slots { set, strides }
    }

    /// Number of slots, `|J|`.
    fn len(&self) -> usize {
        self.set.cardinality() as usize
    }

    /// The slot of point `q`, or `None` when `q` lies outside the set.
    pub(crate) fn rank(&self, q: &[i64]) -> Option<usize> {
        let (lower, upper) = (self.set.lower(), self.set.upper());
        if q.len() != self.strides.len() {
            return None;
        }
        let mut slot = 0;
        for (i, (&c, &stride)) in q.iter().zip(&self.strides).enumerate() {
            if c < lower[i] || c > upper[i] {
                return None;
            }
            slot += (c - lower[i]) as usize * stride;
        }
        Some(slot)
    }

    /// Keys slot-ordered values by their points.
    fn key<P>(&self, values: impl IntoIterator<Item = P>) -> HashMap<IVec, P> {
        let mut keyed = HashMap::with_capacity(self.len());
        keyed.extend(self.set.iter_points().zip(values));
        keyed
    }
}

/// Result of one lane-packed batch walk.
///
/// Violations, cycle count and per-column in-flight peaks are schedule
/// properties — identical in every lane — and are therefore stored once for
/// the whole batch. Only `outputs` is lane-packed.
#[derive(Debug, Clone)]
pub struct BatchRun<P> {
    /// First-to-last busy cycle, inclusive (same in every lane).
    pub cycles: i64,
    /// Number of occupied lanes.
    pub lanes: usize,
    /// Lane-packed output token of every index point, in slot order: entry
    /// `s` belongs to the rank-`s` point of the index set's
    /// [`BoxSet::iter_points`] enumeration. [`BatchRun::output`] looks a
    /// point up by rank arithmetic.
    pub outputs: Vec<P>,
    /// All violations (shared: value-independent, hence lane-uniform).
    pub violations: Vec<ClockedViolation>,
    /// Per-column in-flight peaks (shared, like `violations`).
    pub peak_in_flight: Vec<u64>,
    slots: Slots,
}

impl<P> BatchRun<P> {
    /// A dense run over the index set `slots` addresses.
    pub(crate) fn new(
        cycles: i64,
        outputs: Vec<P>,
        violations: Vec<ClockedViolation>,
        peak_in_flight: Vec<u64>,
        slots: Slots,
    ) -> Self {
        debug_assert_eq!(outputs.len(), slots.len(), "one output per slot");
        BatchRun {
            cycles,
            lanes: 1,
            outputs,
            violations,
            peak_in_flight,
            slots,
        }
    }

    /// Densifies an interpreted run over `set`, whose outputs are keyed by
    /// point, into slot order.
    pub(crate) fn from_clocked(run: ClockedRun<P>, set: &BoxSet, lanes: usize) -> Self {
        let mut keyed = run.outputs;
        let outputs = set
            .iter_points()
            .map(|q| keyed.remove(&q).expect("every point fires exactly once"))
            .collect();
        let slots = Slots::new(set.clone());
        let mut dense = BatchRun::new(
            run.cycles,
            outputs,
            run.violations,
            run.peak_in_flight,
            slots,
        );
        dense.lanes = lanes;
        dense
    }

    /// The scalar [`ClockedRun`] form of a dense run: outputs keyed by
    /// point.
    pub(crate) fn into_clocked(self) -> ClockedRun<P> {
        ClockedRun {
            cycles: self.cycles,
            outputs: self.slots.key(self.outputs),
            violations: self.violations,
            peak_in_flight: self.peak_in_flight,
        }
    }

    /// True iff the walk exposed no timing, routing or conflict violations
    /// (a property of the architecture, not of any lane's operands).
    pub fn is_legal(&self) -> bool {
        self.violations.is_empty()
    }

    /// The packed output token of index point `q`.
    ///
    /// # Panics
    /// Panics if `q` lies outside the walked index set.
    pub fn output(&self, q: &IVec) -> &P {
        self.output_at(&q.0)
    }

    /// [`BatchRun::output`] on raw coordinates.
    pub(crate) fn output_at(&self, q: &[i64]) -> &P {
        match self.slots.rank(q) {
            Some(s) => &self.outputs[s],
            None => panic!("point {q:?} lies outside the walked index set"),
        }
    }

    /// Rebuilds the per-instance [`ClockedRun`] of one lane — bit-identical
    /// to a scalar `execute` of that instance, so every existing report,
    /// trace and fault consumer keeps working on batch results.
    ///
    /// # Panics
    /// Panics if `lane >= self.lanes`.
    pub fn extract_lane_run<L>(&self, lanes: &L, lane: usize) -> ClockedRun<L::Bundle>
    where
        L: LaneCellSemantics<Packed = P>,
    {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range for a {}-lane batch",
            self.lanes
        );
        ClockedRun {
            cycles: self.cycles,
            outputs: self.slots.key(
                self.outputs
                    .iter()
                    .map(|packed| lanes.extract_lane(packed, lane)),
            ),
            violations: self.violations.clone(),
            peak_in_flight: self.peak_in_flight.clone(),
        }
    }

    /// [`BatchRun::extract_lane_run`] for every occupied lane, in order.
    pub fn lane_runs<L>(&self, lanes: &L) -> Vec<ClockedRun<L::Bundle>>
    where
        L: LaneCellSemantics<Packed = P>,
    {
        (0..self.lanes)
            .map(|lane| self.extract_lane_run(lanes, lane))
            .collect()
    }
}

/// A single lane of a [`LaneCellSemantics`], viewed as scalar
/// [`SyncCellSemantics`] — the bridge back into the existing engines
/// (interpreted, compiled, faulted).
pub struct LaneView<'a, L: LaneCellSemantics> {
    lanes: &'a L,
    lane: usize,
}

impl<'a, L: LaneCellSemantics> LaneView<'a, L> {
    /// Views lane `lane` of `lanes`.
    ///
    /// # Panics
    /// Panics if `lane >= lanes.lanes()`.
    pub fn new(lanes: &'a L, lane: usize) -> Self {
        assert!(
            lane < lanes.lanes(),
            "lane {lane} out of range for a {}-lane batch",
            lanes.lanes()
        );
        LaneView { lanes, lane }
    }
}

impl<L: LaneCellSemantics> SyncCellSemantics for LaneView<'_, L> {
    type Bundle = L::Bundle;

    fn compute(&self, q: &IVec, inputs: &[Option<L::Bundle>]) -> L::Bundle {
        self.lanes.compute_lane(self.lane, q, inputs)
    }
}

impl<L: LaneCellSemantics> CellSemantics for LaneView<'_, L> {
    type Bundle = L::Bundle;

    fn compute(&mut self, q: &IVec, inputs: &[Option<L::Bundle>]) -> L::Bundle {
        SyncCellSemantics::compute(self, q, inputs)
    }
}

/// Word form of [`FaultableBundle`]: a lane-packed token whose per-lane
/// signal bits a [`LaneFaultMasks`] schedule can address. Bit indices match
/// the scalar bundle's [`FaultableBundle`] numbering, so a fault plan means
/// the same wire on both forms.
pub trait LanePackedBundle {
    /// Inverts signal `bit` in every lane selected by `mask`.
    fn flip_bit_lanes(&mut self, bit: usize, mask: LaneWord);

    /// Forces signal `bit` to `value` in every lane selected by `mask`.
    fn set_bit_lanes(&mut self, bit: usize, value: bool, mask: LaneWord);
}

/// A per-lane schedule of **output-side** faults for one lane-packed walk:
/// at index point `q`, flip (or force) signal `bit` in exactly the lanes
/// selected by a mask. This is the word form of the exhaustive-campaign
/// fault space — transient flips and stuck-at faults on a computed bundle —
/// and deliberately excludes transfer faults and dead PEs, whose effects
/// are not per-lane value edits (those cases replay one lane through
/// [`crate::compiled::CompiledSchedule::execute_faulted`] on a
/// [`LaneView`]).
///
/// Soundness: the batch walk's control flow (gathers, firing order,
/// bookkeeping) never reads token values, so editing lanes of a computed
/// word cannot desynchronise the walk — each lane simply carries the value
/// stream its scalar faulted run would have carried.
///
/// Points are addressed by their dense slot (rank arithmetic over the index
/// set), so looking up the faults of a fired point hashes nothing.
#[derive(Debug, Clone)]
pub struct LaneFaultMasks {
    slots: Slots,
    /// Per slot: 0 when no fault is scheduled there, else a link to the
    /// slot's first entry in `faults`.
    index: Vec<u32>,
    /// Every faulted `(slot, bit)`'s masks, in one arena: a slot's entries
    /// form a chain through [`BitMasks::next`].
    faults: Vec<BitMasks>,
}

/// The faults on one signal bit of one point, per lane: a stuck-at forces
/// the `stuck` lanes to their bit in `value` (the last write per lane wins,
/// as on a scalar wire), then the `flip` lanes invert.
#[derive(Debug, Clone, Copy)]
struct BitMasks {
    bit: usize,
    stuck: LaneWord,
    value: LaneWord,
    flip: LaneWord,
    /// The link to the slot's next entry: 0 for none, else `1 +` its index
    /// in [`LaneFaultMasks::faults`].
    next: u32,
}

/// The entries of one slot's chain in [`LaneFaultMasks::faults`].
#[derive(Clone)]
struct Chain<'a> {
    faults: &'a [BitMasks],
    link: u32,
}

impl<'a> Iterator for Chain<'a> {
    type Item = &'a BitMasks;

    fn next(&mut self) -> Option<&'a BitMasks> {
        let m = self.faults.get(self.link.checked_sub(1)? as usize)?;
        self.link = m.next;
        Some(m)
    }
}

impl LaneFaultMasks {
    /// An empty schedule over the index set `set` (applying it is a no-op).
    ///
    /// # Panics
    /// Panics if `|J|` exceeds the dense slot space.
    pub fn new(set: &BoxSet) -> Self {
        let slots = Slots::new(set.clone());
        let index = vec![0; slots.len()];
        LaneFaultMasks {
            slots,
            index,
            // A sweep walk faults one bit in each of up to 64 lanes.
            faults: Vec::with_capacity(MAX_LANES),
        }
    }

    /// The masks of `bit` at `point`, created on first use.
    fn masks_mut(&mut self, point: &IVec, bit: usize, lane: usize) -> &mut BitMasks {
        let Some(s) = self.slots.rank(&point.0) else {
            panic!("fault point {point} lies outside the index set");
        };
        self.slot_masks_mut(s, bit, lane)
    }

    /// The masks of `bit` at slot `s`, created on first use.
    fn slot_masks_mut(&mut self, s: usize, bit: usize, lane: usize) -> &mut BitMasks {
        assert!(lane < MAX_LANES, "lane {lane} out of range");
        assert!(s < self.index.len(), "slot {s} lies outside the index set");
        let mut link = self.index[s];
        while link != 0 && self.faults[link as usize - 1].bit != bit {
            link = self.faults[link as usize - 1].next;
        }
        if link == 0 {
            self.faults.push(BitMasks {
                bit,
                stuck: 0,
                value: 0,
                flip: 0,
                next: self.index[s],
            });
            link = self.faults.len() as u32;
            self.index[s] = link;
        }
        &mut self.faults[link as usize - 1]
    }

    /// Adds a transient flip of signal `bit` at `point`, in lane `lane`.
    /// Flipping the same `(point, bit, lane)` twice cancels, exactly like
    /// two scalar flips on one wire.
    ///
    /// # Panics
    /// Panics if `lane >= MAX_LANES` or `point` lies outside the index set.
    pub fn flip(&mut self, point: &IVec, bit: usize, lane: usize) {
        self.masks_mut(point, bit, lane).flip ^= 1 << lane;
    }

    /// [`LaneFaultMasks::flip`] at the point of slot `slot`, the rank-`slot`
    /// point of the index set's [`BoxSet::iter_points`] order. For a sweep
    /// that already numbers its points by rank, so it never builds them.
    ///
    /// # Panics
    /// Panics if `lane >= MAX_LANES` or `slot >= |J|`.
    pub fn flip_slot(&mut self, slot: usize, bit: usize, lane: usize) {
        self.slot_masks_mut(slot, bit, lane).flip ^= 1 << lane;
    }

    /// Adds a stuck-at fault forcing signal `bit` to `value` at `point`, in
    /// lane `lane`. A later stuck-at on the same `(point, bit, lane)`
    /// replaces it, as the scalar injector's later write does.
    ///
    /// # Panics
    /// Panics if `lane >= MAX_LANES` or `point` lies outside the index set.
    pub fn stuck(&mut self, point: &IVec, bit: usize, value: bool, lane: usize) {
        let m = self.masks_mut(point, bit, lane);
        m.stuck |= 1 << lane;
        m.value = set_lanes(m.value, 1 << lane, value);
    }

    /// True iff no fault is scheduled anywhere.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The masks scheduled at `q`.
    fn at(&self, q: &IVec) -> Chain<'_> {
        let link = self.slots.rank(&q.0).map_or(0, |s| self.index[s]);
        Chain {
            faults: &self.faults,
            link,
        }
    }

    /// The masks scheduled at slot `s`.
    fn at_slot(&self, s: usize) -> Chain<'_> {
        Chain {
            faults: &self.faults,
            link: self.index[s],
        }
    }

    /// The slots with a fault scheduled, ascending.
    pub(crate) fn faulted_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &i)| i != 0)
            .map(|(s, _)| s)
    }

    /// Applies every fault scheduled at `q` to a packed token, all lanes at
    /// once (stuck-at before flips, matching the scalar injector).
    pub fn apply<P: LanePackedBundle>(&self, q: &IVec, packed: &mut P) {
        Self::apply_masks(self.at(q), packed);
    }

    /// [`LaneFaultMasks::apply`] at slot `s`.
    pub(crate) fn apply_slot<P: LanePackedBundle>(&self, s: usize, packed: &mut P) {
        Self::apply_masks(self.at_slot(s), packed);
    }

    fn apply_masks<P: LanePackedBundle>(masks: Chain<'_>, packed: &mut P) {
        for m in masks.clone().filter(|m| m.stuck != 0) {
            packed.set_bit_lanes(m.bit, true, m.stuck & m.value);
            packed.set_bit_lanes(m.bit, false, m.stuck & !m.value);
        }
        for m in masks.filter(|m| m.flip != 0) {
            packed.flip_bit_lanes(m.bit, m.flip);
        }
    }

    /// Applies the faults scheduled at `q` **for one lane** to a scalar
    /// bundle — the reference form [`LaneFaultedCells::compute_lane`] uses,
    /// bit-identical to masking lane `lane` of [`LaneFaultMasks::apply`].
    pub fn apply_lane<B: FaultableBundle>(&self, q: &IVec, lane: usize, bundle: &mut B) {
        let masks = self.at(q);
        for m in masks.clone().filter(|m| lane_bit(m.stuck, lane)) {
            bundle.set_bit(m.bit, lane_bit(m.value, lane));
        }
        for m in masks.filter(|m| lane_bit(m.flip, lane)) {
            bundle.flip_bit(m.bit);
        }
    }
}

/// Wraps a bitwise [`LaneCellSemantics`] with a [`LaneFaultMasks`] schedule:
/// every computed token gets its per-lane output faults applied *before*
/// settling into the arena, so downstream consumers read the faulted values
/// — exactly where the scalar engines' `FaultInjector::on_output` hook
/// lands. One word-wide walk of the wrapped semantics therefore simulates
/// up to [`MAX_LANES`] **distinct single-fault cases** (or clean lanes)
/// simultaneously, which is what turns an exhaustive fault campaign from
/// one-walk-per-case into one-walk-per-64-cases.
pub struct LaneFaultedCells<'a, L: LaneCellSemantics> {
    inner: &'a L,
    masks: &'a LaneFaultMasks,
}

impl<'a, L: LaneCellSemantics> LaneFaultedCells<'a, L> {
    /// Wraps `inner` under the fault schedule `masks`.
    pub fn new(inner: &'a L, masks: &'a LaneFaultMasks) -> Self {
        LaneFaultedCells { inner, masks }
    }
}

impl<L> LaneCellSemantics for LaneFaultedCells<'_, L>
where
    L: LaneCellSemantics,
    L::Packed: LanePackedBundle,
    L::Bundle: FaultableBundle + Send + Sync + fmt::Debug,
{
    type Bundle = L::Bundle;
    type Packed = L::Packed;

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn compute_lanes(&self, q: &IVec, inputs: &[Option<L::Packed>]) -> L::Packed {
        let mut packed = self.inner.compute_lanes(q, inputs);
        self.masks.apply(q, &mut packed);
        packed
    }

    fn compute_lane(&self, lane: usize, q: &IVec, inputs: &[Option<L::Bundle>]) -> L::Bundle {
        let mut bundle = self.inner.compute_lane(lane, q, inputs);
        self.masks.apply_lane(q, lane, &mut bundle);
        bundle
    }

    fn extract_lane(&self, packed: &L::Packed, lane: usize) -> L::Bundle {
        self.inner.extract_lane(packed, lane)
    }
}

/// The clean lane-packed run of one set of cells on one compiled schedule,
/// from which faulted runs of the same cells are re-walked differentially —
/// concurrent fault simulation on the lane-packed walk.
///
/// Built by [`CompiledSchedule::golden_batch`] with one
/// [`CompiledSchedule::execute_batch`] of the cells it keeps, so a faulted
/// walk can only ever start from the clean run of its own cells.
pub struct GoldenBatch<'a, L: LaneCellSemantics> {
    sched: &'a CompiledSchedule,
    cells: &'a L,
    clean: BatchRun<L::Packed>,
    /// Per slot: its position in the schedule's fire order.
    rank: Vec<u32>,
    /// Per dependence column `i`: the slot distance `⟨d̄ᵢ, strides⟩` from a
    /// producer to the consumer its column-`i` launch bit feeds (0 for a
    /// column no slot consumes).
    offsets: Vec<usize>,
}

impl<'a, L: LaneCellSemantics> GoldenBatch<'a, L> {
    /// Runs `cells` clean on `sched` and tabulates, in `O(|J| + m)`, the
    /// fire ranks and column offsets a differential walk pushes along. Each
    /// column's offset is read off one consumer of it: the slot minus its
    /// column producer.
    pub(crate) fn new(sched: &'a CompiledSchedule, cells: &'a L) -> Self {
        let mut rank = vec![0u32; sched.n_points];
        for (r, &s) in sched.fire_order.iter().enumerate() {
            rank[s as usize] = r as u32;
        }
        let m = sched.m;
        let mut offsets = vec![0usize; m];
        let mut unseen = u64::MAX.checked_shr(64 - m as u32).unwrap_or(0);
        for (s, &consumed) in sched.consume_mask.iter().enumerate() {
            let mut columns = consumed & unseen;
            unseen &= !consumed;
            while columns != 0 {
                let i = columns.trailing_zeros() as usize;
                columns &= columns - 1;
                offsets[i] = s.wrapping_sub(sched.producers[s * m + i] as usize);
            }
            if unseen == 0 {
                break;
            }
        }
        GoldenBatch {
            sched,
            cells,
            clean: sched.execute_batch(cells),
            rank,
            offsets,
        }
    }
}

impl<L> GoldenBatch<'_, L>
where
    L: LaneCellSemantics,
    L::Packed: LanePackedBundle,
    L::Bundle: FaultableBundle + Send + Sync + fmt::Debug,
{
    /// The run of the cells under `masks`: equal to
    /// `execute_batch(&LaneFaultedCells::new(cells, masks))` in outputs,
    /// cycles, violations, peaks and lanes, but re-firing only the slots the
    /// faults disturb.
    ///
    /// The walk pushes over the disturbed cone. A bitset over fire ranks
    /// starts with the faulted slots, and the walk visits its pending ranks
    /// in ascending order. A visited slot re-fires on the current words; if
    /// its word differs from the clean word, the new word replaces it and
    /// the consumers its launch bits name become pending, each at the
    /// producer's slot plus its column's offset. Every other slot keeps the
    /// clean word.
    ///
    /// This is exact because a cell is a function of its point and inputs,
    /// lane faults only edit computed words, and in a causal schedule every
    /// consumer fires in a later cycle than its producers, so at a higher
    /// fire rank. A pending rank is therefore always above the one being
    /// visited: each slot is visited at most once, after every producer of
    /// it is final, and reads exactly the words the full walk would give
    /// it. A non-causal schedule takes the full walk: there a same-cycle
    /// producer later in slot order reads as a boundary input, which a
    /// pre-filled clean word would hide. Cycles, violations and peaks are
    /// the clean run's, since lane faults never move the schedule.
    ///
    /// # Panics
    /// Panics if `masks` was built over another index set.
    pub fn faulted(&self, masks: &LaneFaultMasks) -> BatchRun<L::Packed> {
        let sched = self.sched;
        assert!(
            masks.slots.set == self.clean.slots.set,
            "fault masks cover another index set"
        );
        if !sched.causal {
            return sched.execute_batch(&LaneFaultedCells::new(self.cells, masks));
        }
        let mut run = self.clean.clone();
        let mut pending = vec![0u64; sched.n_points.div_ceil(64)];
        let mark = |pending: &mut [u64], s: usize| {
            let r = self.rank[s] as usize;
            pending[r / 64] |= 1 << (r % 64);
        };
        for s in masks.faulted_slots() {
            mark(&mut pending, s);
        }
        let m = sched.m;
        let mut point = IVec(Vec::new());
        let mut inputs = Vec::with_capacity(m);
        for w in 0..pending.len() {
            while pending[w] != 0 {
                let r = w * 64 + pending[w].trailing_zeros() as usize;
                pending[w] &= pending[w] - 1;
                let s = sched.fire_order[r] as usize;
                let producers = &sched.producers[s * m..(s + 1) * m];
                let consumed = sched.consume_mask[s];
                sched.point_into(s, &mut point);
                inputs.clear();
                inputs.extend(producers.iter().enumerate().map(|(i, &src)| {
                    (consumed & (1 << i) != 0).then(|| run.outputs[src as usize].clone())
                }));
                let mut word = self.cells.compute_lanes(&point, &inputs);
                masks.apply_slot(s, &mut word);
                if word == run.outputs[s] {
                    continue;
                }
                run.outputs[s] = word;
                let mut launches = sched.launch_mask[s];
                while launches != 0 {
                    let i = launches.trailing_zeros() as usize;
                    launches &= launches - 1;
                    mark(&mut pending, s.wrapping_add(self.offsets[i]));
                }
            }
        }
        run
    }
}

/// Lane-packed signal bundle of the Expansion II matmul cell: the word form
/// of [`MatmulSignals`], one [`LaneWord`] per signal wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatmulLaneSignals {
    /// The x operand bits, one lane per instance.
    pub x: LaneWord,
    /// The y operand bits.
    pub y: LaneWord,
    /// The partial-sum outputs.
    pub s: LaneWord,
    /// The carry outputs.
    pub c: LaneWord,
    /// The second carry outputs (i₁ = p plane).
    pub cp: LaneWord,
}

/// Bitwise word form of [`MatmulExpansionIICells`]: one batch of up to
/// [`MAX_LANES`] independent `u×u`, `p`-bit matrix multiplications.
///
/// Every control decision in the scalar `compute` — which operand plane to
/// read, which adder form to use, whether an input is present — depends only
/// on the index point and the schedule, never on token values, so the body
/// ports to [`LaneWord`] operations verbatim and each lane computes exactly
/// the scalar function.
pub struct MatmulLaneCells {
    u: usize,
    p: usize,
    lanes: usize,
    /// Lane-packed operand bit planes: `x_words[j1][j3][k]` holds bit `k`
    /// (LSB first) of `X[j1][j3]` for every lane; `y_words[j3][j2][k]`
    /// likewise for `Y`.
    x_words: Vec<Vec<Vec<LaneWord>>>,
    y_words: Vec<Vec<Vec<LaneWord>>>,
    /// Scalar per-lane semantics, for [`LaneView`] replays and extraction:
    /// one per lane, or a single one every lane shares after
    /// [`MatmulLaneCells::broadcast`].
    scalar: Vec<MatmulExpansionIICells>,
}

impl MatmulLaneCells {
    /// Packs a batch of operand matrix pairs — `xs[l]`, `ys[l]` are the
    /// `u×u` matrices of instance (lane) `l`, entries at most `p` bits.
    ///
    /// # Panics
    /// Panics on an empty batch, more than [`MAX_LANES`] instances,
    /// mismatched batch lengths, or operand shape/width violations.
    pub fn new(u: usize, p: usize, xs: &[Vec<Vec<u128>>], ys: &[Vec<Vec<u128>>]) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&xs.len()),
            "batch must hold 1..={MAX_LANES} instances, got {}",
            xs.len()
        );
        assert_eq!(xs.len(), ys.len(), "x/y batch length mismatch");
        let scalar: Vec<MatmulExpansionIICells> = xs
            .iter()
            .zip(ys)
            .map(|(x, y)| MatmulExpansionIICells::new(u, p, x, y))
            .collect();
        let lanes = xs.len();
        let mut x_words = vec![vec![vec![0 as LaneWord; p]; u]; u];
        let mut y_words = vec![vec![vec![0 as LaneWord; p]; u]; u];
        for lane in 0..lanes {
            pack_lane(&mut x_words, &xs[lane], 1 << lane);
            pack_lane(&mut y_words, &ys[lane], 1 << lane);
        }
        MatmulLaneCells {
            u,
            p,
            lanes,
            x_words,
            y_words,
            scalar,
        }
    }

    /// A batch of `lanes` instances that all multiply the same `x` and `y`:
    /// every operand bit is broadcast to the occupied lanes, and the lanes
    /// share one scalar cell set. Equal to [`MatmulLaneCells::new`] on
    /// `lanes` copies of the operands — the form a fault campaign packs,
    /// where only the per-lane faults differ.
    ///
    /// # Panics
    /// Panics unless `1 <= lanes <= MAX_LANES`, or on operand shape/width
    /// violations.
    pub fn broadcast(u: usize, p: usize, x: &[Vec<u128>], y: &[Vec<u128>], lanes: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "batch must hold 1..={MAX_LANES} instances, got {lanes}"
        );
        let scalar = vec![MatmulExpansionIICells::new(u, p, x, y)];
        let occupied = LaneWord::MAX >> (MAX_LANES - lanes);
        let mut x_words = vec![vec![vec![0 as LaneWord; p]; u]; u];
        let mut y_words = vec![vec![vec![0 as LaneWord; p]; u]; u];
        pack_lane(&mut x_words, x, occupied);
        pack_lane(&mut y_words, y, occupied);
        MatmulLaneCells {
            u,
            p,
            lanes,
            x_words,
            y_words,
            scalar,
        }
    }

    /// Matrix size `u`.
    pub fn u(&self) -> usize {
        self.u
    }

    /// Operand bit width `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The scalar semantics of one lane (for replays and verification).
    ///
    /// # Panics
    /// Panics if `lane >= self.lanes()`.
    pub fn lane_cells(&self, lane: usize) -> &MatmulExpansionIICells {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range for a {}-lane batch",
            self.lanes
        );
        &self.scalar[lane.min(self.scalar.len() - 1)]
    }

    /// The product's accumulator words of a packed run: for each `(j1, j2)`
    /// in row-major order, the `2p−1` boundary `s` words of the last tile,
    /// least significant bit first. Bit `lane` of word
    /// `((j1−1)·u + (j2−1))·(2p−1) + k` is bit `k` of lane `lane`'s
    /// `Z[j1][j2]`.
    ///
    /// # Panics
    /// Panics if `run` came from a different structure (missing points).
    pub fn product_words(&self, run: &BatchRun<MatmulLaneSignals>) -> Vec<LaneWord> {
        result_slots(&run.slots, self.u, self.p)
            .map(|s| run.outputs[s].s)
            .collect()
    }

    /// The slot of each [`MatmulLaneCells::product_words`] word in a run of
    /// a `u×u`, `p`-bit matmul over the (3.12) index set `set`, by stride
    /// arithmetic: a caller that reads many runs of one structure builds
    /// this once and reads each run's words as `outputs[slot].s`.
    ///
    /// # Panics
    /// Panics if a result point lies outside `set`.
    pub fn product_slots(u: usize, p: usize, set: &BoxSet) -> Vec<usize> {
        result_slots(&Slots::new(set.clone()), u, p).collect()
    }

    /// Extracts every lane's product matrix (mod `2^{2p−1}`) straight from
    /// the packed run: only the [`MatmulLaneCells::product_words`] are read,
    /// then split per lane — no per-lane run materialisation.
    ///
    /// # Panics
    /// Panics if `run` came from a different structure (missing points).
    pub fn extract_products(&self, run: &BatchRun<MatmulLaneSignals>) -> Vec<Vec<Vec<u128>>> {
        let (u, width) = (self.u, 2 * self.p - 1);
        let words = self.product_words(run);
        let mut bits: Vec<Bit> = Vec::with_capacity(width);
        (0..self.lanes)
            .map(|lane| {
                let mut z = vec![vec![0u128; u]; u];
                for (entry, w) in words.chunks(width).enumerate() {
                    bits.clear();
                    bits.extend(w.iter().map(|&w| lane_bit(w, lane)));
                    z[entry / u][entry % u] = bitlevel_arith::from_bits(&bits);
                }
                z
            })
            .collect()
    }
}

/// The slots of a `u×u`, `p`-bit matmul's result bits under `slots`, in the
/// order of [`MatmulLaneCells::product_words`]: for each `(j1, j2)`, bits
/// `1..=p` at `(j1, j2, u, i, 1)`, then bits `p+1..=2p−1` at
/// `(j1, j2, u, p, i−p+1)`.
fn result_slots(slots: &Slots, u: usize, p: usize) -> impl Iterator<Item = usize> + '_ {
    let (u, p) = (u as i64, p as i64);
    (1..=u)
        .flat_map(move |j1| (1..=u).map(move |j2| (j1, j2)))
        .flat_map(move |(j1, j2)| {
            let low = (1..=p).map(move |i| [j1, j2, u, i, 1]);
            low.chain((p + 1..2 * p).map(move |i| [j1, j2, u, p, i - p + 1]))
        })
        .map(|q| match slots.rank(&q) {
            Some(s) => s,
            None => panic!("point {q:?} lies outside the walked index set"),
        })
}

/// ORs `mask` into the bit planes of `m`: `planes[a][b][k]` gets `mask` iff
/// bit `k` of `m[a][b]` is 1. The caller has checked `m`'s shape and entry
/// widths (through [`MatmulExpansionIICells::new`]).
fn pack_lane(planes: &mut [Vec<Vec<LaneWord>>], m: &[Vec<u128>], mask: LaneWord) {
    for (plane_row, row) in planes.iter_mut().zip(m) {
        for (plane, &v) in plane_row.iter_mut().zip(row) {
            for (k, word) in plane.iter_mut().enumerate() {
                if (v >> k) & 1 == 1 {
                    *word |= mask;
                }
            }
        }
    }
}

impl LaneCellSemantics for MatmulLaneCells {
    type Bundle = MatmulSignals;
    type Packed = MatmulLaneSignals;

    fn lanes(&self) -> usize {
        self.lanes
    }

    // The word-for-word port of `MatmulExpansionIICells::compute` (see
    // clocked.rs for the signal-by-signal commentary): scalar Bit ops become
    // LaneWord ops, `false` becomes the all-zero word.
    fn compute_lanes(&self, q: &IVec, inputs: &[Option<MatmulLaneSignals>]) -> MatmulLaneSignals {
        let (j1, j2, j3, i1, i2) = (
            q[0] as usize,
            q[1] as usize,
            q[2] as usize,
            q[3] as usize,
            q[4] as usize,
        );
        let p = self.p;

        let x = if i1 == 1 {
            match &inputs[0] {
                Some(b) => b.x,
                None => self.x_words[j1 - 1][j3 - 1][i2 - 1],
            }
        } else {
            inputs[3].as_ref().map_or(0, |b| b.x)
        };
        let y = if i2 == 1 {
            match &inputs[1] {
                Some(b) => b.y,
                None => self.y_words[j3 - 1][j2 - 1][i1 - 1],
            }
        } else {
            inputs[4].as_ref().map_or(0, |b| b.y)
        };

        let pp = x & y;
        let c_in = if i2 > 1 {
            inputs[4].as_ref().map_or(0, |b| b.c)
        } else {
            0
        };
        let s_in = if i1 == 1 {
            0
        } else if i2 == p {
            inputs[3].as_ref().map_or(0, |b| b.c)
        } else {
            inputs[5].as_ref().map_or(0, |b| b.s)
        };
        let on_boundary = i1 == p || i2 == 1;
        let inject = if on_boundary && j3 > 1 {
            inputs[2].as_ref().map_or(0, |b| b.s)
        } else {
            0
        };
        let cp_in = if i1 == p && i2 > 2 {
            inputs[6].as_ref().map_or(0, |b| b.cp)
        } else {
            0
        };

        let (s, c, cp) = if on_boundary && j3 > 1 {
            if i1 == p {
                wide_add_lanes(&[pp, c_in, s_in, inject, cp_in])
            } else {
                wide_add_lanes(&[pp, s_in, inject])
            }
        } else {
            let (s, c) = full_add_lanes(pp, c_in, s_in);
            (s, c, 0)
        };

        MatmulLaneSignals { x, y, s, c, cp }
    }

    fn compute_lane(
        &self,
        lane: usize,
        q: &IVec,
        inputs: &[Option<MatmulSignals>],
    ) -> MatmulSignals {
        SyncCellSemantics::compute(self.lane_cells(lane), q, inputs)
    }

    fn extract_lane(&self, packed: &MatmulLaneSignals, lane: usize) -> MatmulSignals {
        MatmulSignals {
            x: lane_bit(packed.x, lane),
            y: lane_bit(packed.y, lane),
            s: lane_bit(packed.s, lane),
            c: lane_bit(packed.c, lane),
            cp: lane_bit(packed.cp, lane),
        }
    }
}

impl LanePackedBundle for MatmulLaneSignals {
    // Bit numbering matches `FaultableBundle for MatmulSignals`:
    // [x, y, s, c, cp].
    fn flip_bit_lanes(&mut self, bit: usize, mask: LaneWord) {
        match bit % 5 {
            0 => self.x = flip_lanes(self.x, mask),
            1 => self.y = flip_lanes(self.y, mask),
            2 => self.s = flip_lanes(self.s, mask),
            3 => self.c = flip_lanes(self.c, mask),
            _ => self.cp = flip_lanes(self.cp, mask),
        }
    }

    fn set_bit_lanes(&mut self, bit: usize, value: bool, mask: LaneWord) {
        match bit % 5 {
            0 => self.x = set_lanes(self.x, mask, value),
            1 => self.y = set_lanes(self.y, mask, value),
            2 => self.s = set_lanes(self.s, mask, value),
            3 => self.c = set_lanes(self.c, mask, value),
            _ => self.cp = set_lanes(self.cp, mask, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_ir::{AlgorithmTriplet, BoxSet, Dependence, DependenceSet, Predicate};
    use bitlevel_mapping::PaperDesign;

    fn matmul_structure(u: i64, p: i64) -> AlgorithmTriplet {
        let j = BoxSet::cube(3, 1, u).product(&BoxSet::cube(2, 1, p));
        AlgorithmTriplet::new(
            j,
            DependenceSet::new(vec![
                Dependence::conditional([0, 1, 0, 0, 0], "x", Predicate::eq_const(3, 1)),
                Dependence::conditional([1, 0, 0, 0, 0], "y", Predicate::eq_const(4, 1)),
                Dependence::conditional(
                    [0, 0, 1, 0, 0],
                    "z",
                    Predicate::eq_const(3, p).or(&Predicate::eq_const(4, 1)),
                ),
                Dependence::conditional([0, 0, 0, 1, 0], "x", Predicate::ne_const(3, 1)),
                Dependence::conditional([0, 0, 0, 0, 1], "y,c", Predicate::ne_const(4, 1)),
                Dependence::uniform([0, 0, 0, 1, -1], "z"),
                Dependence::conditional([0, 0, 0, 0, 2], "c'", Predicate::eq_const(3, p)),
            ]),
            "bit-level matmul, Expansion II (composed order)",
        )
    }

    /// One `u×u` operand matrix per instance.
    type Matrices = Vec<Vec<Vec<u128>>>;

    fn random_batch(u: usize, p: usize, n: usize, seed: u64) -> (Matrices, Matrices) {
        let cap = crate::BitMatmulArray::new(u, p).max_safe_entry();
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u128) % (cap + 1)
        };
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            xs.push((0..u).map(|_| (0..u).map(|_| next()).collect()).collect());
            ys.push((0..u).map(|_| (0..u).map(|_| next()).collect()).collect());
        }
        (xs, ys)
    }

    fn sched(u: usize, p: usize, design: PaperDesign) -> CompiledSchedule {
        let alg = matmul_structure(u as i64, p as i64);
        CompiledSchedule::compile(
            &alg,
            &design.mapping(p as i64),
            &design.interconnect(p as i64),
        )
    }

    #[test]
    fn every_lane_matches_the_scalar_engine_on_both_designs() {
        let (u, p, n) = (2usize, 3usize, 7usize);
        let (xs, ys) = random_batch(u, p, n, 0xBA7C_0001);
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let sched = sched(u, p, design);
            let cells = MatmulLaneCells::new(u, p, &xs, &ys);
            let batch = sched.execute_batch(&cells);
            assert!(batch.is_legal());
            assert_eq!(batch.lanes, n);
            for lane in 0..n {
                let scalar = sched.execute(cells.lane_cells(lane));
                let extracted = batch.extract_lane_run(&cells, lane);
                assert_eq!(extracted.cycles, scalar.cycles);
                assert_eq!(extracted.violations, scalar.violations);
                assert_eq!(extracted.peak_in_flight, scalar.peak_in_flight);
                assert_eq!(extracted.outputs, scalar.outputs, "lane {lane}");
            }
            // And the fast packed extraction gives every lane's true product.
            let z = cells.extract_products(&batch);
            for lane in 0..n {
                for i in 0..u {
                    for j in 0..u {
                        let want: u128 = (0..u).map(|k| xs[lane][i][k] * ys[lane][k][j]).sum();
                        assert_eq!(z[lane][i][j], want, "lane {lane} Z[{i}][{j}]");
                    }
                }
            }
        }
    }

    #[test]
    fn width_one_batch_is_bit_identical_to_execute() {
        let (u, p) = (2usize, 2usize);
        let (xs, ys) = random_batch(u, p, 1, 0xBA7C_0002);
        let sched = sched(u, p, PaperDesign::TimeOptimal);
        let cells = MatmulLaneCells::new(u, p, &xs, &ys);
        let batch = sched.execute_batch(&cells);
        let scalar = sched.execute(cells.lane_cells(0));
        let lane0 = batch.extract_lane_run(&cells, 0);
        assert_eq!(lane0.cycles, scalar.cycles);
        assert_eq!(lane0.violations, scalar.violations);
        assert_eq!(lane0.peak_in_flight, scalar.peak_in_flight);
        assert_eq!(lane0.outputs, scalar.outputs);
    }

    #[test]
    fn ragged_batches_mask_unused_lanes_to_zero() {
        let (u, p, n) = (2usize, 2usize, 5usize); // 5 is not a multiple of 64
        let (xs, ys) = random_batch(u, p, n, 0xBA7C_0003);
        let sched = sched(u, p, PaperDesign::TimeOptimal);
        let cells = MatmulLaneCells::new(u, p, &xs, &ys);
        let batch = sched.execute_batch(&cells);
        // Zero operands propagate zeros: every word's lanes >= n stay zero,
        // so a ragged batch cannot leak state across lane boundaries.
        for (slot, w) in batch.outputs.iter().enumerate() {
            for (name, word) in [("x", w.x), ("y", w.y), ("s", w.s), ("c", w.c), ("cp", w.cp)] {
                assert_eq!(
                    word >> n,
                    0,
                    "unused lanes of {name} at slot {slot} not zero"
                );
            }
        }
    }

    #[test]
    fn lanes_are_independent_of_batch_composition() {
        // Lane l of a small batch == lane l of a larger batch sharing the
        // same first instances: no cross-lane coupling.
        let (u, p) = (2usize, 2usize);
        let (xs, ys) = random_batch(u, p, 9, 0xBA7C_0004);
        let sched = sched(u, p, PaperDesign::NearestNeighbour);
        let small = MatmulLaneCells::new(u, p, &xs[..4], &ys[..4]);
        let large = MatmulLaneCells::new(u, p, &xs, &ys);
        let run_small = sched.execute_batch(&small);
        let run_large = sched.execute_batch(&large);
        for lane in 0..4 {
            assert_eq!(
                run_small.extract_lane_run(&small, lane).outputs,
                run_large.extract_lane_run(&large, lane).outputs,
                "lane {lane} depends on unrelated lanes"
            );
        }
    }

    #[test]
    fn batch_chunks_cover_every_instance() {
        let (u, p, n) = (2usize, 2usize, 10usize);
        let (xs, ys) = random_batch(u, p, n, 0xBA7C_0006);
        let sched = sched(u, p, PaperDesign::TimeOptimal);
        let width = 4usize;
        let chunks: Vec<MatmulLaneCells> = xs
            .chunks(width)
            .zip(ys.chunks(width))
            .map(|(xc, yc)| MatmulLaneCells::new(u, p, xc, yc))
            .collect();
        let runs: Vec<_> = chunks.iter().map(|c| sched.execute_batch(c)).collect();
        assert_eq!(runs.len(), 3); // 4 + 4 + 2 (ragged tail)
        let mut lane_total = 0usize;
        for (chunk, run) in chunks.iter().zip(&runs) {
            let z = chunk.extract_products(run);
            for (l, z_lane) in z.iter().enumerate() {
                let g = lane_total + l;
                for i in 0..u {
                    for j in 0..u {
                        let want: u128 = (0..u).map(|k| xs[g][i][k] * ys[g][k][j]).sum();
                        assert_eq!(z_lane[i][j], want);
                    }
                }
            }
            lane_total += run.lanes;
        }
        assert_eq!(lane_total, n);
    }

    /// A scalar injector flipping/forcing one signal bit at one point — the
    /// oracle the lane-masked word path must match lane for lane.
    struct PointFault {
        point: IVec,
        bit: usize,
        stuck: Option<bool>,
    }

    impl crate::fault::FaultInjector<MatmulSignals> for PointFault {
        fn pe_dead(&self, _processor: &IVec) -> bool {
            false
        }

        fn on_output(
            &self,
            _cycle: i64,
            point: &IVec,
            _processor: &IVec,
            bundle: &mut MatmulSignals,
        ) -> Vec<String> {
            if *point == self.point {
                match self.stuck {
                    Some(v) => bundle.set_bit(self.bit, v),
                    None => bundle.flip_bit(self.bit),
                }
                vec!["fault".into()]
            } else {
                Vec::new()
            }
        }

        fn on_transfer(&self, _cycle: i64, _point: &IVec, _column: usize) -> crate::TransferFault {
            crate::TransferFault::None
        }
    }

    #[test]
    fn lane_masked_faults_match_scalar_faulted_replays() {
        // Pack one distinct fault case per lane (plus a clean lane) into a
        // single word-wide walk; every lane must be bit-identical to the
        // scalar faulted engine running that lane's case alone.
        let (u, p) = (2usize, 2usize);
        let n = 6usize; // 5 faulted lanes + 1 clean lane
        let (xs, ys) = random_batch(u, p, n, 0xBA7C_0008);
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let sched = sched(u, p, design);
            let cells = MatmulLaneCells::new(u, p, &xs, &ys);
            // One case per lane: walk the index set for distinct points.
            let points: Vec<IVec> = sched
                .execute(cells.lane_cells(0))
                .outputs
                .keys()
                .take(5)
                .cloned()
                .collect();
            let mut masks = LaneFaultMasks::new(&matmul_structure(2, 2).index_set);
            for (lane, point) in points.iter().enumerate() {
                masks.flip(point, lane % 5, lane);
            }
            let faulted = LaneFaultedCells::new(&cells, &masks);
            let run = sched.execute_batch(&faulted);
            assert!(run.is_legal());
            for (lane, point) in points.iter().enumerate() {
                let injector = PointFault {
                    point: point.clone(),
                    bit: lane % 5,
                    stuck: None,
                };
                let scalar = sched.execute_faulted(
                    &LaneView::new(&cells, lane),
                    &mut crate::NullSink,
                    &injector,
                );
                let extracted = run.extract_lane_run(&faulted, lane);
                assert_eq!(extracted.outputs, scalar.outputs, "{design:?} lane {lane}");
            }
            // The clean lane matches the faultless scalar engine.
            let clean = sched.execute(cells.lane_cells(5));
            assert_eq!(run.extract_lane_run(&faulted, 5).outputs, clean.outputs);
        }
    }

    #[test]
    fn lane_masked_stuck_at_matches_scalar_and_double_flip_cancels() {
        let (u, p) = (2usize, 2usize);
        let (xs, ys) = random_batch(u, p, 2, 0xBA7C_0009);
        let sched = sched(u, p, PaperDesign::TimeOptimal);
        let cells = MatmulLaneCells::new(u, p, &xs, &ys);
        let point = IVec::from([1, 1, 1, 1, 1]);

        let mut masks = LaneFaultMasks::new(&matmul_structure(2, 2).index_set);
        masks.stuck(&point, 2, true, 0);
        // Lane 1: two flips of the same wire cancel — a clean lane.
        masks.flip(&point, 2, 1);
        masks.flip(&point, 2, 1);
        assert!(!masks.is_empty());

        let faulted = LaneFaultedCells::new(&cells, &masks);
        let run = sched.execute_batch(&faulted);
        let injector = PointFault {
            point,
            bit: 2,
            stuck: Some(true),
        };
        let scalar =
            sched.execute_faulted(&LaneView::new(&cells, 0), &mut crate::NullSink, &injector);
        assert_eq!(run.extract_lane_run(&faulted, 0).outputs, scalar.outputs);
        let clean = sched.execute(cells.lane_cells(1));
        assert_eq!(run.extract_lane_run(&faulted, 1).outputs, clean.outputs);
    }

    #[test]
    fn repeated_stuck_at_keeps_each_lanes_last_write() {
        // Lane 0 is stuck-at-1 on bit 2; lane 1 is stuck-at-0 and then
        // stuck-at-1 on the same bit. On a scalar wire the last write wins,
        // so both lanes end at 1 — on the packed word and lane by lane.
        let set = matmul_structure(2, 2).index_set;
        let point = IVec::from([1, 2, 1, 2, 1]);
        let mut masks = LaneFaultMasks::new(&set);
        masks.stuck(&point, 2, true, 0);
        masks.stuck(&point, 2, false, 1);
        masks.stuck(&point, 2, true, 1);
        let mut packed = MatmulLaneSignals::default();
        masks.apply(&point, &mut packed);
        assert_eq!(packed.s, 0b11, "packed lanes 0 and 1 both stuck at 1");
        for lane in 0..2 {
            let mut bundle = MatmulSignals::default();
            masks.apply_lane(&point, lane, &mut bundle);
            assert!(bundle.s, "lane {lane} stuck at 1");
        }
        // A later stuck-at-0 in lane 0 forces only that lane back to 0, and
        // a flip still lands after the stuck-at.
        masks.stuck(&point, 2, false, 0);
        masks.flip(&point, 2, 1);
        let mut packed = MatmulLaneSignals {
            s: LaneWord::MAX,
            ..Default::default()
        };
        masks.apply(&point, &mut packed);
        assert_eq!(packed.s & 0b11, 0b00);
        assert_eq!(packed.s >> 2, LaneWord::MAX >> 2, "other lanes untouched");
    }

    #[test]
    fn broadcast_cells_equal_packing_identical_copies() {
        let (u, p) = (2usize, 3usize);
        let (xs, ys) = random_batch(u, p, 1, 0xBA7C_000B);
        let sched = sched(u, p, PaperDesign::TimeOptimal);
        for lanes in [1usize, 5, 64] {
            let copies = MatmulLaneCells::new(
                u,
                p,
                &vec![xs[0].clone(); lanes],
                &vec![ys[0].clone(); lanes],
            );
            let broadcast = MatmulLaneCells::broadcast(u, p, &xs[0], &ys[0], lanes);
            assert_eq!(broadcast.lanes(), lanes);
            let (a, b) = (
                sched.execute_batch(&copies),
                sched.execute_batch(&broadcast),
            );
            assert_eq!(a.outputs, b.outputs, "{lanes} lanes");
            assert_eq!(copies.extract_products(&a), broadcast.extract_products(&b));
            let last = lanes - 1;
            assert_eq!(
                a.extract_lane_run(&copies, last).outputs,
                b.extract_lane_run(&broadcast, last).outputs
            );
        }
    }

    #[test]
    fn output_looks_points_up_by_rank() {
        let (u, p) = (2usize, 2usize);
        let (xs, ys) = random_batch(u, p, 3, 0xBA7C_000C);
        let sched = sched(u, p, PaperDesign::NearestNeighbour);
        let cells = MatmulLaneCells::new(u, p, &xs, &ys);
        let run = sched.execute_batch(&cells);
        let set = matmul_structure(2, 2).index_set;
        assert_eq!(run.outputs.len() as u128, set.cardinality());
        for (slot, q) in set.iter_points().enumerate() {
            assert_eq!(run.output(&q), &run.outputs[slot], "{q}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the walked index set")]
    fn output_rejects_points_outside_the_index_set() {
        let (xs, ys) = random_batch(2, 2, 1, 0xBA7C_000D);
        let run = sched(2, 2, PaperDesign::TimeOptimal)
            .execute_batch(&MatmulLaneCells::new(2, 2, &xs, &ys));
        let _ = run.output(&IVec::from([3, 1, 1, 1, 1]));
    }

    #[test]
    fn empty_lane_fault_masks_are_inert() {
        let (u, p) = (2usize, 2usize);
        let (xs, ys) = random_batch(u, p, 3, 0xBA7C_000A);
        let sched = sched(u, p, PaperDesign::TimeOptimal);
        let cells = MatmulLaneCells::new(u, p, &xs, &ys);
        let masks = LaneFaultMasks::new(&matmul_structure(2, 2).index_set);
        assert!(masks.is_empty());
        let faulted = LaneFaultedCells::new(&cells, &masks);
        let clean = sched.execute_batch(&cells);
        let wrapped = sched.execute_batch(&faulted);
        assert_eq!(clean.outputs, wrapped.outputs);
    }

    #[test]
    #[should_panic(expected = "batch must hold")]
    fn empty_batches_are_rejected() {
        let _ = MatmulLaneCells::new(2, 2, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_view_checks_bounds() {
        let (xs, ys) = random_batch(2, 2, 2, 0xBA7C_0007);
        let cells = MatmulLaneCells::new(2, 2, &xs, &ys);
        let _ = LaneView::new(&cells, 2);
    }
}
