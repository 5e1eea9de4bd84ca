//! Seed-deterministic fault plans.
//!
//! A [`FaultPlan`] is the plain-data *description* of a fault experiment:
//! targeted faults pinned to `(pe, cycle)` plus rate-sampled random faults
//! drawn from a seeded counter-based generator. [`FaultPlan::resolve`]
//! lowers the description against a concrete algorithm and space–time
//! mapping into a [`ResolvedFaultPlan`] — a pure lookup structure that
//! implements [`FaultInjector`], so the same resolved plan perturbs the
//! interpreted clocked engine, the mapped timing simulator and the compiled
//! backend bit-identically.
//!
//! Sampling is counter-based (splitmix64 keyed by `(seed, fault index,
//! point rank)`), not sequential: whether point 17 draws a fault never
//! depends on how many points came before it, so resolution order — and
//! therefore engine traversal order — cannot perturb the outcome.

use std::collections::{HashMap, HashSet};

use bitlevel_ir::AlgorithmTriplet;
use bitlevel_linalg::IVec;
use bitlevel_mapping::MappingMatrix;
use bitlevel_systolic::{FaultInjector, FaultableBundle, LaneFaultMasks, TransferFault, MAX_LANES};

/// One kind of hardware misbehaviour. Bit indices address
/// [`FaultableBundle`] signal bits; column indices address dependence
/// columns in the algorithm's composed order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// One output signal bit inverted for one firing.
    TransientFlip {
        /// The [`FaultableBundle`] bit to invert.
        bit: usize,
    },
    /// One output signal bit forced to `value` (stuck-at-0/1 cell when the
    /// targeting cycle is `None`, i.e. every firing of the PE).
    StuckAt {
        /// The [`FaultableBundle`] bit to force.
        bit: usize,
        /// The forced value.
        value: bool,
    },
    /// The whole PE emits its silent [`FaultableBundle::dead`] bundle.
    DeadPe,
    /// The token arriving along `column` is lost on the wire.
    DroppedTransfer {
        /// Dependence column index.
        column: usize,
    },
    /// The link re-delivers the previous token of `column` instead of the
    /// current one.
    DuplicatedTransfer {
        /// Dependence column index.
        column: usize,
    },
}

/// A fault pinned to a specific processor (and optionally a specific
/// cycle). On a conflict-free design `(pe, cycle)` identifies exactly one
/// index point; `cycle: None` hits every firing of the PE.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetedFault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Processor coordinates (the image of the space mapping `S`).
    pub pe: IVec,
    /// Firing cycle, or `None` for every cycle.
    pub cycle: Option<i64>,
}

/// A fault sampled independently at every index point with probability
/// `rate`, from the plan seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomFault {
    /// What goes wrong where the sample hits.
    pub kind: FaultKind,
    /// Per-point injection probability in `[0, 1]`.
    pub rate: f64,
}

/// A plain-data, seed-deterministic fault experiment description.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the random component (ignored when `random` is empty).
    pub seed: u64,
    /// Faults pinned to `(pe, cycle)`.
    pub targeted: Vec<TargetedFault>,
    /// Rate-sampled faults.
    pub random: Vec<RandomFault>,
}

/// One fault the resolver actually attached to an index point.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedFault {
    /// What was injected.
    pub kind: FaultKind,
    /// The index point it landed on.
    pub point: IVec,
    /// The processor executing that point.
    pub pe: IVec,
    /// The firing cycle.
    pub cycle: i64,
}

/// A [`FaultPlan`] lowered against one `(algorithm, mapping)` pair: pure
/// lookup tables implementing [`FaultInjector`] for any
/// [`FaultableBundle`].
#[derive(Debug, Clone, Default)]
pub struct ResolvedFaultPlan {
    dead: HashSet<IVec>,
    stuck: HashMap<IVec, Vec<(usize, bool)>>,
    flips: HashMap<IVec, Vec<usize>>,
    transfers: HashMap<IVec, Vec<(usize, TransferFault)>>,
    /// Every fault attached to a point, in resolution order (targeted
    /// faults first, then random, each in plan order point-major).
    pub injected: Vec<ResolvedFault>,
}

const K_FAULT: u64 = 0x9E3779B97F4A7C15;
const K_POINT: u64 = 0xC2B2AE3D27D4EB4F;

pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// `true` with probability `rate` as a pure function of the key.
fn sample(seed: u64, fault_index: usize, rank: u64, rate: f64) -> bool {
    let key = seed ^ (fault_index as u64).wrapping_mul(K_FAULT) ^ rank.wrapping_mul(K_POINT);
    let unit = (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64;
    unit < rate
}

impl FaultPlan {
    /// A plan with no faults at all: resolving it yields an injector whose
    /// runs are bit-identical to the faultless engines.
    pub fn empty() -> Self {
        Self::default()
    }

    /// True iff the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.targeted.is_empty() && self.random.iter().all(|r| r.rate <= 0.0)
    }

    /// Lowers the plan against a concrete algorithm and mapping by walking
    /// the index set once: targeted faults match points by `(place, time)`,
    /// random faults sample each point from the seed.
    pub fn resolve(&self, alg: &AlgorithmTriplet, t: &MappingMatrix) -> ResolvedFaultPlan {
        let mut r = ResolvedFaultPlan::default();
        for (rank, q) in alg.index_set.iter_points().enumerate() {
            let time = t.time(&q);
            let place = t.place(&q);
            for f in &self.targeted {
                if f.pe == place && f.cycle.is_none_or(|c| c == time) {
                    r.attach(f.kind, &q, &place, time);
                }
            }
            for (fi, f) in self.random.iter().enumerate() {
                if sample(self.seed, fi, rank as u64, f.rate) {
                    r.attach(f.kind, &q, &place, time);
                }
            }
        }
        r
    }

    /// Lowers up to [`MAX_LANES`] plans at once, plan `l` into lane `l` of
    /// one [`LaneFaultMasks`]: the lane-packed form of
    /// [`FaultPlan::resolve`], drawing the same counter-based samples, so
    /// lane `l` of a word-wide walk under the masks carries exactly the
    /// faults `plans[l].resolve(alg, t)` injects. Also returns how many
    /// faults each plan resolved to (its `injected.len()`).
    ///
    /// # Panics
    /// Panics on more than [`MAX_LANES`] plans, or on a fault that is not a
    /// per-lane edit of a computed bundle: dead PEs and transfer faults (see
    /// [`LaneFaultMasks`]).
    pub fn resolve_lanes(
        plans: &[FaultPlan],
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
    ) -> (LaneFaultMasks, Vec<usize>) {
        assert!(
            plans.len() <= MAX_LANES,
            "{} plans exceed the {MAX_LANES} lanes of one word",
            plans.len()
        );
        let mut masks = LaneFaultMasks::new(&alg.index_set);
        let mut injected = vec![0; plans.len()];
        let targeted = plans.iter().any(|plan| !plan.targeted.is_empty());
        for (rank, q) in alg.index_set.iter_points().enumerate() {
            let at = targeted.then(|| (t.place(&q), t.time(&q)));
            for (lane, plan) in plans.iter().enumerate() {
                let mut attach = |kind| {
                    match kind {
                        FaultKind::TransientFlip { bit } => masks.flip(&q, bit, lane),
                        FaultKind::StuckAt { bit, value } => masks.stuck(&q, bit, value, lane),
                        other => panic!("{other:?} is not a per-lane output fault"),
                    }
                    injected[lane] += 1;
                };
                if let Some((place, time)) = &at {
                    for f in &plan.targeted {
                        if f.pe == *place && f.cycle.is_none_or(|c| c == *time) {
                            attach(f.kind);
                        }
                    }
                }
                for (fi, f) in plan.random.iter().enumerate() {
                    if sample(plan.seed, fi, rank as u64, f.rate) {
                        attach(f.kind);
                    }
                }
            }
        }
        (masks, injected)
    }
}

impl ResolvedFaultPlan {
    fn attach(&mut self, kind: FaultKind, point: &IVec, pe: &IVec, cycle: i64) {
        match kind {
            FaultKind::TransientFlip { bit } => {
                self.flips.entry(point.clone()).or_default().push(bit);
            }
            FaultKind::StuckAt { bit, value } => {
                self.stuck
                    .entry(point.clone())
                    .or_default()
                    .push((bit, value));
            }
            FaultKind::DeadPe => {
                self.dead.insert(pe.clone());
            }
            FaultKind::DroppedTransfer { column } => {
                self.transfers
                    .entry(point.clone())
                    .or_default()
                    .push((column, TransferFault::Drop));
            }
            FaultKind::DuplicatedTransfer { column } => {
                self.transfers
                    .entry(point.clone())
                    .or_default()
                    .push((column, TransferFault::Duplicate));
            }
        }
        self.injected.push(ResolvedFault {
            kind,
            point: point.clone(),
            pe: pe.clone(),
            cycle,
        });
    }

    /// True iff nothing was attached anywhere.
    pub fn is_empty(&self) -> bool {
        self.injected.is_empty()
    }
}

impl<B: FaultableBundle> FaultInjector<B> for ResolvedFaultPlan {
    fn pe_dead(&self, processor: &IVec) -> bool {
        self.dead.contains(processor)
    }

    fn on_output(
        &self,
        _cycle: i64,
        point: &IVec,
        processor: &IVec,
        bundle: &mut B,
    ) -> Vec<String> {
        let mut kinds = Vec::new();
        if self.dead.contains(processor) {
            *bundle = B::dead();
            kinds.push("dead_pe".to_string());
        }
        if let Some(bits) = self.stuck.get(point) {
            for &(bit, value) in bits {
                bundle.set_bit(bit, value);
                kinds.push(format!(
                    "stuck_at bit={} value={}",
                    B::bit_name(bit),
                    value as u8
                ));
            }
        }
        if let Some(bits) = self.flips.get(point) {
            for &bit in bits {
                bundle.flip_bit(bit);
                kinds.push(format!("transient_flip bit={}", B::bit_name(bit)));
            }
        }
        kinds
    }

    fn on_transfer(&self, _cycle: i64, point: &IVec, column: usize) -> TransferFault {
        self.transfers
            .get(point)
            .and_then(|v| v.iter().find(|(c, _)| *c == column))
            .map_or(TransferFault::None, |&(_, f)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_depanal::{compose, Expansion};
    use bitlevel_ir::WordLevelAlgorithm;
    use bitlevel_mapping::PaperDesign;
    use bitlevel_systolic::MatmulSignals;

    fn fixture() -> (AlgorithmTriplet, MappingMatrix) {
        let alg = compose(&WordLevelAlgorithm::matmul(2), 2, Expansion::II);
        (alg, PaperDesign::TimeOptimal.mapping(2))
    }

    #[test]
    fn targeted_fault_resolves_to_exactly_one_point_on_a_conflict_free_design() {
        let (alg, t) = fixture();
        let q = IVec::from([2, 1, 2, 2, 1]);
        let plan = FaultPlan {
            seed: 0,
            targeted: vec![TargetedFault {
                kind: FaultKind::TransientFlip { bit: 2 },
                pe: t.place(&q),
                cycle: Some(t.time(&q)),
            }],
            random: vec![],
        };
        let r = plan.resolve(&alg, &t);
        assert_eq!(r.injected.len(), 1, "{:?}", r.injected);
        assert_eq!(r.injected[0].point, q);
        let mut b = MatmulSignals::default();
        let kinds = r.on_output(r.injected[0].cycle, &q, &t.place(&q), &mut b);
        assert_eq!(kinds, vec!["transient_flip bit=s".to_string()]);
        assert!(b.s);
    }

    #[test]
    fn rate_extremes_inject_nothing_and_everything() {
        let (alg, t) = fixture();
        let zero = FaultPlan {
            seed: 7,
            targeted: vec![],
            random: vec![RandomFault {
                kind: FaultKind::DeadPe,
                rate: 0.0,
            }],
        };
        assert!(zero.resolve(&alg, &t).is_empty());
        assert!(zero.is_empty());
        let one = FaultPlan {
            seed: 7,
            targeted: vec![],
            random: vec![RandomFault {
                kind: FaultKind::TransientFlip { bit: 0 },
                rate: 1.0,
            }],
        };
        let r = one.resolve(&alg, &t);
        assert_eq!(r.injected.len() as u128, alg.index_set.cardinality());
    }

    #[test]
    fn resolution_is_a_pure_function_of_the_seed() {
        let (alg, t) = fixture();
        let plan = FaultPlan {
            seed: 41,
            targeted: vec![],
            random: vec![RandomFault {
                kind: FaultKind::TransientFlip { bit: 1 },
                rate: 0.25,
            }],
        };
        let a = plan.resolve(&alg, &t);
        let b = plan.resolve(&alg, &t);
        assert_eq!(a.injected, b.injected);
        assert!(
            !a.is_empty(),
            "rate 0.25 over 32 points should hit at least once"
        );
        let other = FaultPlan {
            seed: 42,
            ..plan.clone()
        };
        assert_ne!(
            other.resolve(&alg, &t).injected,
            a.injected,
            "different seeds should sample differently"
        );
    }

    #[test]
    fn stuck_at_without_cycle_hits_every_firing_of_the_pe() {
        let (alg, t) = fixture();
        let q = IVec::from([1, 1, 1, 1, 1]);
        let pe = t.place(&q);
        let plan = FaultPlan {
            seed: 0,
            targeted: vec![TargetedFault {
                kind: FaultKind::StuckAt {
                    bit: 3,
                    value: true,
                },
                pe: pe.clone(),
                cycle: None,
            }],
            random: vec![],
        };
        let r = plan.resolve(&alg, &t);
        // Each PE fires once per j3 value: u times.
        assert_eq!(r.injected.len(), 2, "{:?}", r.injected);
        for f in &r.injected {
            assert_eq!(f.pe, pe);
        }
    }

    #[test]
    fn lane_resolution_attaches_each_plans_faults_to_its_lane() {
        let (alg, t) = fixture();
        let q = IVec::from([2, 1, 2, 2, 1]);
        let plans: Vec<FaultPlan> = (0..3)
            .map(|l| FaultPlan {
                seed: 41 + l,
                targeted: vec![TargetedFault {
                    kind: FaultKind::StuckAt {
                        bit: 2,
                        value: true,
                    },
                    pe: t.place(&q),
                    cycle: Some(t.time(&q)),
                }],
                random: vec![RandomFault {
                    kind: FaultKind::TransientFlip { bit: 1 },
                    rate: 0.25,
                }],
            })
            .collect();
        let (masks, injected) = FaultPlan::resolve_lanes(&plans, &alg, &t);
        for (lane, plan) in plans.iter().enumerate() {
            let resolved = plan.resolve(&alg, &t);
            assert_eq!(injected[lane], resolved.injected.len(), "lane {lane}");
            for point in alg.index_set.iter_points() {
                let (mut packed, mut scalar) = (MatmulSignals::default(), MatmulSignals::default());
                masks.apply_lane(&point, lane, &mut packed);
                let _ = resolved.on_output(0, &point, &t.place(&point), &mut scalar);
                assert_eq!(packed, scalar, "lane {lane} at {point}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a per-lane output fault")]
    fn lane_resolution_rejects_faults_that_are_not_lane_edits() {
        let (alg, t) = fixture();
        let plan = FaultPlan {
            seed: 0,
            targeted: vec![],
            random: vec![RandomFault {
                kind: FaultKind::DeadPe,
                rate: 1.0,
            }],
        };
        let _ = FaultPlan::resolve_lanes(&[plan], &alg, &t);
    }

    #[test]
    fn transfer_faults_answer_only_their_column() {
        let (alg, t) = fixture();
        let q = IVec::from([1, 2, 1, 2, 2]);
        let plan = FaultPlan {
            seed: 0,
            targeted: vec![TargetedFault {
                kind: FaultKind::DroppedTransfer { column: 3 },
                pe: t.place(&q),
                cycle: Some(t.time(&q)),
            }],
            random: vec![],
        };
        let r = plan.resolve(&alg, &t);
        let tf = |col| FaultInjector::<MatmulSignals>::on_transfer(&r, 0, &q, col);
        assert_eq!(tf(3), TransferFault::Drop);
        assert_eq!(tf(4), TransferFault::None);
    }
}
