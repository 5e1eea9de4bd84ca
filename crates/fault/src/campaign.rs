//! Fault-campaign drivers: exhaustive single-fault sweeps and seeded Monte
//! Carlo over the Expansion II bit-level matmul, each case executed on
//! **both** the interpreted clocked engine and the compiled backend and
//! classified against the ABFT checksums of [`crate::abft`].
//!
//! The exhaustive sweep targets every `(index point, signal bit)` pair with
//! one transient flip — `|J|·5` cases — and is the experiment behind the
//! zero-SDC acceptance bar: on both paper designs every single flip must
//! end up masked or detected. The Monte Carlo driver samples multi-fault
//! plans at a per-point rate and reports the residual SDC probability that
//! compensating faults can reach (see the cancellation example in
//! [`crate::abft`]).
//!
//! Two execution strategies cover the exhaustive space:
//!
//! * [`single_fault_campaign_with_cache`] — the dual-engine oracle: every
//!   case runs the interpreted *and* the compiled engine, one full walk per
//!   case ([`single_fault_campaign`] runs it on a throwaway cache);
//! * [`batched_single_fault_campaign`] — the lane-packed production path:
//!   up to 64 distinct fault cases ride the bit-lanes of **one** word-wide
//!   compiled walk, case-for-case bit-identical to the scalar sweep (a
//!   report method checks exactly that). The walks are differential: one
//!   clean walk runs per request, and each packed walk pushes over the
//!   disturbed cone, re-firing only the slots its flips reach
//!   ([`bitlevel_systolic::GoldenBatch::faulted`]), equal to a full
//!   [`bitlevel_systolic::LaneFaultedCells`] walk.
//!   [`batched_single_fault_counts`] runs the same walks and keeps only the
//!   counts, tallied by popcount.
//!
//! The Monte Carlo campaign has the same two forms:
//! [`monte_carlo_campaign_with_cache`] runs every trial on both engines one
//! walk at a time and stays the oracle, and [`batched_monte_carlo_campaign`]
//! packs up to 64 trials into one walk per engine and returns an equal
//! report. Its walks stay full: a 64-trial chunk at a rate of 0.01 faults
//! nearly every slot in some lane, so a clean walk first would only add
//! work.
//!
//! Every lane-packed walk, sweep or Monte Carlo, classifies all its lanes
//! in one word-parallel pass ([`MatmulChecksums::classify_lanes`]): the
//! product's result bits are read as words through a slot table built once
//! per request, masked lanes fall out of one comparison with the golden
//! bits, and the row and column sums of every lane are added bit-sliced.
//!
//! Every driver compiles through the [`CompileCache`] its caller passes, so
//! repeated campaigns on one design pay for schedule compilation once; the
//! evaluation service passes its one shared cache.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use bitlevel_arith::LaneWord;
use bitlevel_cache::CompileCache;
use bitlevel_depanal::{compose, Expansion};
use bitlevel_ir::{AlgorithmTriplet, WordLevelAlgorithm};
use bitlevel_linalg::IVec;
use bitlevel_mapping::PaperDesign;
use bitlevel_systolic::{
    run_clocked_batch, run_clocked_faulted, BatchRun, BitMatmulArray, CompiledSchedule,
    FaultableBundle, LaneFaultMasks, LaneFaultedCells, MatmulExpansionIICells, MatmulLaneCells,
    MatmulLaneSignals, MatmulSignals, NullSink, MAX_LANES,
};

use crate::abft::{FaultOutcome, LaneVerdicts, MatmulChecksums};
use crate::plan::{splitmix64, FaultKind, FaultPlan, RandomFault, TargetedFault};

/// The (3.12) Expansion II structure for `u×u` matrices of `p`-bit words.
pub fn matmul_structure(u: usize, p: usize) -> AlgorithmTriplet {
    compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II)
}

/// Deterministic operand matrices with entries bounded by
/// [`BitMatmulArray::max_safe_entry`], so the faultless array reproduces
/// the golden product exactly.
pub fn operand_matrices(u: usize, p: usize, seed: u64) -> (Vec<Vec<u128>>, Vec<Vec<u128>>) {
    let max = BitMatmulArray::new(u, p).max_safe_entry();
    let mut ctr = 0u64;
    let mut next = |_| {
        (0..u)
            .map(|_| {
                ctr += 1;
                splitmix64(seed ^ ctr.wrapping_mul(0xA0761D6478BD642F)) as u128 % (max + 1)
            })
            .collect::<Vec<u128>>()
    };
    (
        (0..u).map(&mut next).collect(),
        (0..u).map(&mut next).collect(),
    )
}

/// One exhaustive-sweep case: a single injected fault and how each engine's
/// run classified under the ABFT checksums.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// The injected fault.
    pub kind: FaultKind,
    /// The index point it hit.
    pub point: IVec,
    /// The processor executing that point.
    pub pe: IVec,
    /// The firing cycle.
    pub cycle: i64,
    /// Classification of the interpreted clocked run.
    pub interpreted: FaultOutcome,
    /// Classification of the compiled-backend run.
    pub compiled: FaultOutcome,
}

impl FaultCase {
    /// True iff both engines classified identically.
    pub fn agree(&self) -> bool {
        self.interpreted == self.compiled
    }
}

/// Aggregate result of one exhaustive single-fault sweep.
#[derive(Debug, Clone)]
pub struct FaultCampaignReport {
    /// Which paper design ran (`"TimeOptimal"` / `"NearestNeighbour"`).
    pub design: String,
    /// Matrix dimension.
    pub u: usize,
    /// Word length.
    pub p: usize,
    /// Operand/plan seed.
    pub seed: u64,
    /// Number of injected cases (`|J| ·` signal bits).
    pub total: usize,
    /// Cases whose output equalled the golden product.
    pub masked: usize,
    /// Cases caught by a nonzero syndrome.
    pub detected: usize,
    /// Silent-data-corruption cases (must be 0 for single transient flips).
    pub sdc: usize,
    /// Cases where the interpreted and compiled engines disagreed.
    pub engine_mismatches: usize,
    /// Per-PE count of non-masked cases (the critical-PE heat map data),
    /// sorted by processor coordinates.
    pub vulnerability: Vec<(IVec, u64)>,
    /// Every case, in sweep order.
    pub cases: Vec<FaultCase>,
}

impl FaultCampaignReport {
    /// True iff `{masked, detected, sdc}` partitions the injected set.
    pub fn classifications_partition(&self) -> bool {
        self.masked + self.detected + self.sdc == self.total
    }

    /// The per-PE vulnerability as a map, ready for
    /// [`bitlevel_systolic::render_fault_heatmap`].
    pub fn vulnerability_map(&self) -> BTreeMap<IVec, u64> {
        self.vulnerability.iter().cloned().collect()
    }

    /// CSV export, one row per case.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("design,u,p,kind,point,pe,cycle,interpreted,compiled,agree\n");
        for c in &self.cases {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{}",
                self.design,
                self.u,
                self.p,
                q(&format!("{:?}", c.kind)),
                q(&c.point.to_string()),
                q(&c.pe.to_string()),
                c.cycle,
                c.interpreted,
                c.compiled,
                c.agree()
            );
        }
        out
    }
}

fn q(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

struct CampaignRig {
    alg: AlgorithmTriplet,
    t: bitlevel_mapping::MappingMatrix,
    ic: bitlevel_mapping::Interconnect,
    sched: Arc<CompiledSchedule>,
    p: usize,
    x: Vec<Vec<u128>>,
    y: Vec<Vec<u128>>,
    cells: MatmulExpansionIICells,
    checksums: MatmulChecksums,
    golden: Vec<Vec<u128>>,
    /// The slot of every [`MatmulLaneCells::product_words`] word.
    product_slots: Vec<usize>,
}

impl CampaignRig {
    fn new(design: PaperDesign, u: usize, p: usize, seed: u64, cache: &CompileCache) -> Self {
        let alg = matmul_structure(u, p);
        let t = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);
        let (x, y) = operand_matrices(u, p, seed);
        let golden = BitMatmulArray::new(u, p).reference(&x, &y);
        let checksums = MatmulChecksums::derive(&x, &y, p);
        let cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let product_slots = MatmulLaneCells::product_slots(u, p, &alg.index_set);
        let (sched, _) = cache
            .get_or_compile(&alg, &t, &ic)
            .expect("paper-scale structures always fit the compiled representation");
        CampaignRig {
            alg,
            t,
            ic,
            sched,
            p,
            x,
            y,
            cells,
            checksums,
            golden,
            product_slots,
        }
    }

    /// The operands packed into `lanes` lanes by broadcasting: every lane
    /// multiplies the same matrices, so only per-lane faults tell lanes
    /// apart.
    fn lane_cells(&self, lanes: usize) -> MatmulLaneCells {
        MatmulLaneCells::broadcast(self.x.len(), self.p, &self.x, &self.y, lanes)
    }

    /// Classifies lanes `0..lanes` of a packed run exactly as
    /// [`MatmulChecksums::classify`] classifies each lane's product, all in
    /// one word-parallel pass ([`MatmulChecksums::classify_lanes`]) over
    /// the result-bit words the slot table reads out of the run.
    fn classify_lanes(&self, run: &BatchRun<MatmulLaneSignals>, lanes: usize) -> LaneVerdicts {
        let words: Vec<LaneWord> = self
            .product_slots
            .iter()
            .map(|&s| run.outputs[s].s)
            .collect();
        self.checksums.classify_lanes(&self.golden, &words, lanes)
    }

    /// Runs the exhaustive sweep packed `width` cases per word-wide walk and
    /// hands each walk's verdicts to `visit`, in sweep order: case `i`
    /// flips signal bit `i mod b` (`b` the bundle's fault bits) at the point
    /// of slot `⌊i/b⌋` and rides lane `i mod width` of walk `⌊i/width⌋`.
    /// One clean walk runs first; each faulted walk then re-fires only the
    /// slots its flips disturb ([`GoldenBatch::faulted`]). A ragged final
    /// walk leaves its high lanes unfaulted, and its verdicts cover only
    /// its occupied lanes.
    ///
    /// [`GoldenBatch::faulted`]: bitlevel_systolic::GoldenBatch::faulted
    fn batched_walks(&self, width: usize, mut visit: impl FnMut(LaneVerdicts)) {
        let bits = MatmulSignals::fault_bits();
        let total = self.sched.n_points() * bits;
        let cells = self.lane_cells(width);
        let golden = self.sched.golden_batch(&cells);
        for walk in 0..total.div_ceil(width) {
            let cases = walk * width..total.min((walk + 1) * width);
            let mut masks = LaneFaultMasks::new(&self.alg.index_set);
            for (lane, case) in cases.clone().enumerate() {
                masks.flip_slot(case / bits, case % bits, lane);
            }
            visit(self.classify_lanes(&golden.faulted(&masks), cases.len()));
        }
    }

    /// Runs one plan on both engines and classifies each output.
    fn classify_both(&mut self, plan: &FaultPlan) -> (FaultOutcome, FaultOutcome, usize) {
        let resolved = plan.resolve(&self.alg, &self.t);
        let injected = resolved.injected.len();
        let irun = run_clocked_faulted(
            &self.alg,
            &self.t,
            &self.ic,
            &mut self.cells,
            &mut NullSink,
            &resolved,
        );
        let crun = self
            .sched
            .execute_faulted(&self.cells, &mut NullSink, &resolved);
        let interpreted = self
            .checksums
            .classify(&self.golden, &self.cells.extract_product(&irun));
        let compiled = self
            .checksums
            .classify(&self.golden, &self.cells.extract_product(&crun));
        (interpreted, compiled, injected)
    }
}

/// The exhaustive single-fault sweep of experiment E17: one transient flip
/// per `(index point, signal bit)` pair, each case run on both engines.
///
/// Compiles through a throwaway [`CompileCache`]; use
/// [`single_fault_campaign_with_cache`] to share compilation across
/// campaigns (the evaluation service does).
pub fn single_fault_campaign(
    design: PaperDesign,
    u: usize,
    p: usize,
    seed: u64,
) -> FaultCampaignReport {
    single_fault_campaign_with_cache(design, u, p, seed, &CompileCache::new())
}

/// [`single_fault_campaign`] compiling through a caller-supplied
/// [`CompileCache`]: repeated campaigns (or a scalar/batched pair) on one
/// design hit the cache instead of recompiling, and the cache's
/// [`bitlevel_cache::CacheStats`] counters account for the lookup.
pub fn single_fault_campaign_with_cache(
    design: PaperDesign,
    u: usize,
    p: usize,
    seed: u64,
    cache: &CompileCache,
) -> FaultCampaignReport {
    let mut rig = CampaignRig::new(design, u, p, seed, cache);
    let points: Vec<IVec> = rig.alg.index_set.iter_points().collect();
    let mut cases = Vec::with_capacity(points.len() * MatmulSignals::fault_bits());
    let mut vulnerability: BTreeMap<IVec, u64> = BTreeMap::new();
    for point in &points {
        let pe = rig.t.place(point);
        let cycle = rig.t.time(point);
        for bit in 0..MatmulSignals::fault_bits() {
            let kind = FaultKind::TransientFlip { bit };
            let plan = FaultPlan {
                seed,
                targeted: vec![TargetedFault {
                    kind,
                    pe: pe.clone(),
                    cycle: Some(cycle),
                }],
                random: vec![],
            };
            let (interpreted, compiled, _) = rig.classify_both(&plan);
            if interpreted != FaultOutcome::Masked {
                *vulnerability.entry(pe.clone()).or_insert(0) += 1;
            }
            cases.push(FaultCase {
                kind,
                point: point.clone(),
                pe: pe.clone(),
                cycle,
                interpreted,
                compiled,
            });
        }
    }
    let count = |o: FaultOutcome| cases.iter().filter(|c| c.interpreted == o).count();
    FaultCampaignReport {
        design: format!("{design:?}"),
        u,
        p,
        seed,
        total: cases.len(),
        masked: count(FaultOutcome::Masked),
        detected: count(FaultOutcome::Detected),
        sdc: count(FaultOutcome::Sdc),
        engine_mismatches: cases.iter().filter(|c| !c.agree()).count(),
        vulnerability: vulnerability.into_iter().collect(),
        cases,
    }
}

/// One Monte Carlo trial: a seeded multi-fault plan and both engines'
/// classifications.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloTrial {
    /// The per-trial plan seed (`campaign seed + trial index`).
    pub seed: u64,
    /// How many faults the plan resolved to.
    pub injected: usize,
    /// Classification of the interpreted run.
    pub interpreted: FaultOutcome,
    /// Classification of the compiled run.
    pub compiled: FaultOutcome,
}

/// Aggregate result of a seeded Monte Carlo fault campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    /// Which paper design ran.
    pub design: String,
    /// Matrix dimension.
    pub u: usize,
    /// Word length.
    pub p: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Per-point, per-bit transient-flip rate.
    pub rate: f64,
    /// Number of trials.
    pub trials: usize,
    /// Trials whose output equalled the golden product.
    pub masked: usize,
    /// Trials caught by a nonzero syndrome.
    pub detected: usize,
    /// Silent-data-corruption trials (possible under multi-fault plans).
    pub sdc: usize,
    /// Trials where the engines disagreed.
    pub engine_mismatches: usize,
    /// Mean number of faults injected per trial.
    pub mean_injected: f64,
    /// Every trial, in order.
    pub details: Vec<MonteCarloTrial>,
}

impl MonteCarloReport {
    /// The report of a campaign's `details`, one per trial in order.
    fn tally(
        design: PaperDesign,
        u: usize,
        p: usize,
        seed: u64,
        rate: f64,
        details: Vec<MonteCarloTrial>,
    ) -> Self {
        let trials = details.len();
        let count = |o: FaultOutcome| details.iter().filter(|d| d.interpreted == o).count();
        MonteCarloReport {
            design: format!("{design:?}"),
            u,
            p,
            seed,
            rate,
            trials,
            masked: count(FaultOutcome::Masked),
            detected: count(FaultOutcome::Detected),
            sdc: count(FaultOutcome::Sdc),
            engine_mismatches: details
                .iter()
                .filter(|d| d.interpreted != d.compiled)
                .count(),
            mean_injected: if trials == 0 {
                0.0
            } else {
                details.iter().map(|d| d.injected).sum::<usize>() as f64 / trials as f64
            },
            details,
        }
    }
}

/// The plan of Monte Carlo trial `trial`: one transient flip per signal bit,
/// sampled at `rate` across every index point, seeded `seed + trial`.
fn trial_plan(seed: u64, trial: usize, rate: f64) -> FaultPlan {
    FaultPlan {
        seed: seed.wrapping_add(trial as u64),
        targeted: vec![],
        random: (0..MatmulSignals::fault_bits())
            .map(|bit| RandomFault {
                kind: FaultKind::TransientFlip { bit },
                rate,
            })
            .collect(),
    }
}

/// Seeded Monte Carlo: each trial samples one transient flip per signal
/// bit at `rate` across every index point, runs both engines, and
/// classifies. Multi-fault cancellation means `sdc` may be nonzero here —
/// it is measured, not asserted. The schedule compiles through `cache`
/// (see [`single_fault_campaign_with_cache`]).
pub fn monte_carlo_campaign_with_cache(
    design: PaperDesign,
    u: usize,
    p: usize,
    seed: u64,
    trials: usize,
    rate: f64,
    cache: &CompileCache,
) -> MonteCarloReport {
    let mut rig = CampaignRig::new(design, u, p, seed, cache);
    let details = (0..trials)
        .map(|trial| {
            let plan = trial_plan(seed, trial, rate);
            let (interpreted, compiled, injected) = rig.classify_both(&plan);
            MonteCarloTrial {
                seed: plan.seed,
                injected,
                interpreted,
                compiled,
            }
        })
        .collect();
    MonteCarloReport::tally(design, u, p, seed, rate, details)
}

/// [`monte_carlo_campaign_with_cache`] run lane-packed, returning an equal
/// report. Trial `k` rides lane `k mod 64` of chunk `⌊k/64⌋`: a chunk's
/// plans resolve into one [`LaneFaultMasks`]
/// ([`FaultPlan::resolve_lanes`], the same counter-based samples as the
/// scalar resolver), the chunk runs once on the interpreted clocked engine
/// ([`run_clocked_batch`]) and once on the compiled schedule
/// ([`CompiledSchedule::execute_batch`]), and every lane classifies on
/// both. `engine_mismatches` therefore still compares two independent
/// engines on every trial.
pub fn batched_monte_carlo_campaign(
    design: PaperDesign,
    u: usize,
    p: usize,
    seed: u64,
    trials: usize,
    rate: f64,
    cache: &CompileCache,
) -> MonteCarloReport {
    let rig = CampaignRig::new(design, u, p, seed, cache);
    let plans: Vec<FaultPlan> = (0..trials)
        .map(|trial| trial_plan(seed, trial, rate))
        .collect();
    let mut details = Vec::with_capacity(trials);
    for chunk in plans.chunks(MAX_LANES) {
        let (masks, injected) = FaultPlan::resolve_lanes(chunk, &rig.alg, &rig.t);
        let cells = rig.lane_cells(chunk.len());
        let faulted = LaneFaultedCells::new(&cells, &masks);
        let irun = run_clocked_batch(&rig.alg, &rig.t, &rig.ic, &faulted);
        let crun = rig.sched.execute_batch(&faulted);
        let interpreted = rig.classify_lanes(&irun, chunk.len());
        let compiled = rig.classify_lanes(&crun, chunk.len());
        for (lane, plan) in chunk.iter().enumerate() {
            details.push(MonteCarloTrial {
                seed: plan.seed,
                injected: injected[lane],
                interpreted: interpreted.outcome(lane),
                compiled: compiled.outcome(lane),
            });
        }
    }
    MonteCarloReport::tally(design, u, p, seed, rate, details)
}

/// One case of a lane-packed exhaustive sweep: where its fault hit, which
/// walk and lane carried it, and how its syndrome classified. The hit
/// point's coordinates, processor and cycle are lookups on the report
/// ([`BatchedFaultCampaignReport::point`], [`BatchedFaultCampaignReport::pe`]
/// and [`BatchedFaultCampaignReport::cycle`]), so a case allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchedFaultCase {
    /// The injected fault.
    pub kind: FaultKind,
    /// The slot of the index point it hit: the point's rank in the index
    /// set's `iter_points` order.
    pub slot: usize,
    /// Which word-wide walk carried this case.
    pub walk: usize,
    /// Which bit-lane of that walk.
    pub lane: usize,
    /// Classification of the lane's extracted product.
    pub outcome: FaultOutcome,
}

/// Aggregate result of one lane-packed exhaustive single-fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedFaultCampaignReport {
    /// Which paper design ran.
    pub design: String,
    /// Matrix dimension.
    pub u: usize,
    /// Word length.
    pub p: usize,
    /// Operand seed.
    pub seed: u64,
    /// Lane width each walk was packed to (`1..=MAX_LANES`).
    pub width: usize,
    /// Number of injected cases (`|J| ·` signal bits).
    pub total: usize,
    /// Number of word-wide walks executed (`⌈total / width⌉`).
    pub walks: usize,
    /// Cases whose output equalled the golden product.
    pub masked: usize,
    /// Cases caught by a nonzero syndrome.
    pub detected: usize,
    /// Silent-data-corruption cases (must be 0 for single transient flips).
    pub sdc: usize,
    /// Per-PE count of non-masked cases, sorted by processor coordinates.
    pub vulnerability: Vec<(IVec, u64)>,
    /// Every case, in the scalar sweep's order.
    pub cases: Vec<BatchedFaultCase>,
    /// Where each point sits on the array, for the per-case lookups.
    points: PointTable,
}

/// The sweep's points on the array: per slot, the point's coordinates
/// (`dim` each), firing cycle and dense processor id; per processor id, its
/// coordinates (`pe_dim` each).
#[derive(Debug, Clone, PartialEq)]
struct PointTable {
    dim: usize,
    coords: Vec<i64>,
    cycles: Vec<i64>,
    procs: Vec<usize>,
    pe_dim: usize,
    pe_coords: Vec<i64>,
}

impl PointTable {
    /// The table of `sched`'s slots.
    fn new(sched: &CompiledSchedule) -> Self {
        let (slots, ids) = (0..sched.n_points(), 0..sched.n_processors());
        let (dim, pe_dim) = (sched.slot_point(0).len(), sched.processor(0).dim());
        let mut coords = Vec::with_capacity(slots.len() * dim);
        for s in slots.clone() {
            coords.extend_from_slice(sched.slot_point(s));
        }
        let mut pe_coords = Vec::with_capacity(ids.len() * pe_dim);
        for id in ids {
            pe_coords.extend_from_slice(sched.processor(id).as_slice());
        }
        PointTable {
            dim,
            coords,
            cycles: slots.clone().map(|s| sched.slot_cycle(s)).collect(),
            procs: slots.map(|s| sched.slot_processor(s)).collect(),
            pe_dim,
            pe_coords,
        }
    }

    /// The coordinates of processor `id`.
    fn pe(&self, id: usize) -> &[i64] {
        &self.pe_coords[id * self.pe_dim..(id + 1) * self.pe_dim]
    }
}

impl BatchedFaultCampaignReport {
    /// True iff `{masked, detected, sdc}` partitions the injected set.
    pub fn classifications_partition(&self) -> bool {
        self.masked + self.detected + self.sdc == self.total
    }

    /// The per-PE vulnerability as a map, ready for
    /// [`bitlevel_systolic::render_fault_heatmap`].
    pub fn vulnerability_map(&self) -> BTreeMap<IVec, u64> {
        self.vulnerability.iter().cloned().collect()
    }

    /// The coordinates of the index point `case` hit.
    ///
    /// # Panics
    /// Panics if `case` is not a case of this report.
    pub fn point(&self, case: &BatchedFaultCase) -> &[i64] {
        let dim = self.points.dim;
        &self.points.coords[case.slot * dim..(case.slot + 1) * dim]
    }

    /// The coordinates of the processor executing the point `case` hit.
    ///
    /// # Panics
    /// Panics if `case` is not a case of this report.
    pub fn pe(&self, case: &BatchedFaultCase) -> &[i64] {
        self.points.pe(self.points.procs[case.slot])
    }

    /// The firing cycle of the point `case` hit.
    ///
    /// # Panics
    /// Panics if `case` is not a case of this report.
    pub fn cycle(&self, case: &BatchedFaultCase) -> i64 {
        self.points.cycles[case.slot]
    }

    /// True iff this batched sweep is case-for-case identical to a scalar
    /// dual-engine sweep: same cases in the same order, and every lane's
    /// classification equal to **both** engines' scalar classification.
    pub fn matches_scalar(&self, scalar: &FaultCampaignReport) -> bool {
        self.total == scalar.total
            && self.cases.len() == scalar.cases.len()
            && self.cases.iter().zip(&scalar.cases).all(|(b, s)| {
                b.kind == s.kind
                    && self.point(b) == s.point.as_slice()
                    && self.pe(b) == s.pe.as_slice()
                    && self.cycle(b) == s.cycle
                    && b.outcome == s.interpreted
                    && b.outcome == s.compiled
            })
    }
}

/// The counts of a lane-packed exhaustive sweep: everything a served
/// campaign frame reports, without the per-case list or the vulnerability
/// map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchedCampaignCounts {
    /// Lane width each walk was packed to (`1..=MAX_LANES`).
    pub width: usize,
    /// Number of injected cases (`|J| ·` signal bits).
    pub total: usize,
    /// Number of word-wide walks executed (`⌈total / width⌉`).
    pub walks: usize,
    /// Cases whose output equalled the golden product.
    pub masked: usize,
    /// Cases caught by a nonzero syndrome.
    pub detected: usize,
    /// Silent-data-corruption cases (must be 0 for single transient flips).
    pub sdc: usize,
}

impl BatchedCampaignCounts {
    /// The counts of a sweep packed `width` cases per walk, before any walk.
    fn empty(width: usize) -> Self {
        BatchedCampaignCounts {
            width,
            total: 0,
            walks: 0,
            masked: 0,
            detected: 0,
            sdc: 0,
        }
    }

    /// Counts one more walk: a popcount per outcome over its occupied lanes.
    fn add(&mut self, verdicts: LaneVerdicts) {
        self.total += verdicts.lanes();
        self.walks += 1;
        self.masked += verdicts.count(FaultOutcome::Masked);
        self.detected += verdicts.count(FaultOutcome::Detected);
        self.sdc += verdicts.count(FaultOutcome::Sdc);
    }

    /// True iff `{masked, detected, sdc}` partitions the injected set.
    pub fn classifications_partition(&self) -> bool {
        self.masked + self.detected + self.sdc == self.total
    }
}

/// The lane-packed exhaustive single-fault sweep: the same case list as
/// [`single_fault_campaign`] (every `(index point, signal bit)` transient
/// flip, in the same order), but packed `width` distinct cases per
/// word-wide compiled walk instead of one case per walk.
///
/// Each chunk of `width` cases becomes one word-wide walk: lane `l`
/// carries chunk case `l`'s flip via a per-lane mask, and the walk's lanes
/// classify against the shared golden product and checksums in one
/// word-parallel pass ([`MatmulChecksums::classify_lanes`]). One clean walk
/// runs first, and each chunk's walk starts from it and re-fires only the
/// slots its flips disturb ([`bitlevel_systolic::GoldenBatch::faulted`],
/// equal to a full [`LaneFaultedCells`] walk). The schedule compiles once
/// through `cache` — shared with any scalar campaign or pipeline using the
/// same cache.
///
/// Each case records its point's slot and its fault; the report keeps one
/// table of the points (coordinates, cycle, processor) and one of the
/// processors, so building it allocates nothing per case.
///
/// `width` is clamped to `1..=`[`MAX_LANES`]. At width 1 this degenerates
/// to one case per walk (the scalar compiled engine's cost); at width 64 an
/// exhaustive sweep runs ~`width`× fewer walks.
/// [`batched_single_fault_counts`] runs the same walks and returns only
/// the counts.
pub fn batched_single_fault_campaign(
    design: PaperDesign,
    u: usize,
    p: usize,
    seed: u64,
    width: usize,
    cache: &CompileCache,
) -> BatchedFaultCampaignReport {
    let width = width.clamp(1, MAX_LANES);
    let rig = CampaignRig::new(design, u, p, seed, cache);
    let bits = MatmulSignals::fault_bits();
    let mut counts = BatchedCampaignCounts::empty(width);
    let mut outcomes = Vec::with_capacity(rig.sched.n_points() * bits);
    rig.batched_walks(width, |verdicts| {
        counts.add(verdicts);
        outcomes.extend(verdicts.outcomes());
    });
    let points = PointTable::new(&rig.sched);
    let mut hits = vec![0u64; rig.sched.n_processors()];
    let cases = outcomes
        .iter()
        .enumerate()
        .map(|(case, &outcome)| {
            let slot = case / bits;
            if outcome != FaultOutcome::Masked {
                hits[points.procs[slot]] += 1;
            }
            BatchedFaultCase {
                kind: FaultKind::TransientFlip { bit: case % bits },
                slot,
                walk: case / width,
                lane: case % width,
                outcome,
            }
        })
        .collect();
    let mut vulnerability: Vec<(IVec, u64)> = hits
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .map(|(id, n)| (IVec(points.pe(id).to_vec()), n))
        .collect();
    vulnerability.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    BatchedFaultCampaignReport {
        design: format!("{design:?}"),
        u,
        p,
        seed,
        width,
        total: counts.total,
        walks: counts.walks,
        masked: counts.masked,
        detected: counts.detected,
        sdc: counts.sdc,
        vulnerability,
        cases,
        points,
    }
}

/// The counts of [`batched_single_fault_campaign`], from the same walks and
/// the same per-walk classification, without building the per-case list or
/// the vulnerability map.
pub fn batched_single_fault_counts(
    design: PaperDesign,
    u: usize,
    p: usize,
    seed: u64,
    width: usize,
    cache: &CompileCache,
) -> BatchedCampaignCounts {
    let width = width.clamp(1, MAX_LANES);
    let rig = CampaignRig::new(design, u, p, seed, cache);
    let mut counts = BatchedCampaignCounts::empty(width);
    rig.batched_walks(width, |verdicts| counts.add(verdicts));
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_sweep_partitions_with_zero_sdc_and_engine_agreement() {
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let r = single_fault_campaign(design, 2, 2, 0xB17);
            assert_eq!(r.total, 32 * 5, "{design:?}");
            assert!(r.classifications_partition(), "{design:?}");
            assert_eq!(r.sdc, 0, "{design:?}: single flips must never escape");
            assert_eq!(r.engine_mismatches, 0, "{design:?}");
            assert!(
                r.detected > 0,
                "{design:?}: some flips must corrupt the product"
            );
            assert!(
                r.masked > 0,
                "{design:?}: some flips land on never-read wires"
            );
            assert!(!r.vulnerability.is_empty(), "{design:?}");
            let csv = r.to_csv();
            assert_eq!(csv.lines().count(), r.total + 1, "{design:?}");
            assert!(csv.contains("TransientFlip"), "{design:?}");
        }
    }

    #[test]
    fn batched_campaign_is_case_for_case_identical_to_scalar() {
        // The tentpole acceptance bar: lane-packing distinct fault cases
        // into word-wide walks must not change a single classification, at
        // any width, on either design — including ragged tails (160 cases
        // is not a multiple of 7, 23 or 64).
        let cache = CompileCache::new();
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let scalar = single_fault_campaign_with_cache(design, 2, 2, 0xB17, &cache);
            for width in [1usize, 7, 23, 64] {
                let batched = batched_single_fault_campaign(design, 2, 2, 0xB17, width, &cache);
                assert_eq!(batched.total, scalar.total, "{design:?} width {width}");
                assert_eq!(
                    batched.walks,
                    scalar.total.div_ceil(width),
                    "{design:?} width {width}"
                );
                assert!(batched.classifications_partition());
                assert_eq!(batched.sdc, 0, "{design:?} width {width}");
                assert!(
                    batched.matches_scalar(&scalar),
                    "{design:?} width {width}: batched sweep diverged from scalar"
                );
                assert_eq!(
                    batched.vulnerability, scalar.vulnerability,
                    "{design:?} width {width}"
                );
            }
        }
    }

    #[test]
    fn campaigns_share_one_compile_through_the_cache() {
        // The compile-cache bypass regression: every campaign driver on one
        // design — scalar, batched, counts-only, and both Monte Carlo
        // forms — must compile the schedule exactly once when handed the
        // same cache, and the batched sweep must be case-for-case identical
        // to the scalar one.
        let cache = CompileCache::new();
        let design = PaperDesign::TimeOptimal;
        let scalar = single_fault_campaign_with_cache(design, 2, 2, 0xB17, &cache);
        let batched = batched_single_fault_campaign(design, 2, 2, 0xB17, 64, &cache);
        let counts = batched_single_fault_counts(design, 2, 2, 0xB17, 64, &cache);
        let mc = monte_carlo_campaign_with_cache(design, 2, 2, 9, 4, 0.02, &cache);
        let lane_mc = batched_monte_carlo_campaign(design, 2, 2, 9, 4, 0.02, &cache);
        assert_eq!(scalar.sdc, 0);
        assert_eq!(scalar.engine_mismatches, 0);
        assert!(batched.matches_scalar(&scalar));
        assert_eq!(batched.walks, scalar.total.div_ceil(64));
        assert_eq!(
            (counts.total, counts.walks, counts.masked, counts.detected),
            (
                batched.total,
                batched.walks,
                batched.masked,
                batched.detected
            )
        );
        assert_eq!(mc.trials, 4);
        assert_eq!(lane_mc, mc);
        let stats = cache.stats();
        assert_eq!(stats.compiles(), 1, "one design, one compile");
        assert_eq!(stats.hits, 4, "every campaign after the first hits");
    }

    #[test]
    fn batched_width_is_clamped() {
        let cache = CompileCache::new();
        let r = batched_single_fault_campaign(PaperDesign::TimeOptimal, 2, 2, 1, 0, &cache);
        assert_eq!(r.width, 1);
        assert_eq!(r.walks, r.total);
        let r = batched_single_fault_campaign(PaperDesign::TimeOptimal, 2, 2, 1, 1000, &cache);
        assert_eq!(r.width, MAX_LANES);
        assert_eq!(r.walks, r.total.div_ceil(MAX_LANES));
    }

    #[test]
    fn monte_carlo_is_deterministic_and_partitions() {
        let run = || {
            let cache = CompileCache::new();
            monte_carlo_campaign_with_cache(PaperDesign::TimeOptimal, 2, 2, 9, 12, 0.02, &cache)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.masked + a.detected + a.sdc, a.trials);
        assert_eq!(a.masked, b.masked);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.sdc, b.sdc);
        assert!(
            a.mean_injected > 0.0,
            "rate 0.02 over 160 samples should hit"
        );
        for (x, y) in a.details.iter().zip(&b.details) {
            assert_eq!(x.injected, y.injected);
            assert_eq!(x.interpreted, y.interpreted);
        }
    }
}
