//! Pareto design-space exploration over Definition 4.1.
//!
//! Section 4 derives its two bit-level arrays (eqs. (4.2) and (4.6)) by hand
//! for one fixed space mapping `S`; Theorem 4.5 certifies time-optimality for
//! that slice only. This module searches the **joint** design space — space
//! mappings `S`, schedule vectors `Π`, and interconnection primitives `P` —
//! and returns the deterministic Pareto frontier over
//! `(total_time, processor_count, max_wire_length)` instead of a single
//! optimum, in the spirit of the lower-dimensional synthesis literature the
//! paper builds on (Shang & Fortes [5,6], Ganapathy & Wah [10]).
//!
//! The search is branch-and-bound in structure:
//!
//! 1. one shared candidate list of schedule vectors passing the cheap
//!    condition-1 screen `Π·D > 0`, sorted by `(total_time, lexicographic)` —
//!    the head of the list *is* [`crate::schedule::dependence_only_bound`];
//! 2. per space mapping, memoised sub-results reused across machines:
//!    `rank(S)` (condition 4 can never hold when `S` is row-deficient),
//!    the processor count, and `S·D`;
//! 3. per `(S, machine)` pair, memoised per-column **minimum hop counts**
//!    (a routing lower bound independent of `Π`): a pair whose `S·d̄ᵢ` is
//!    unreachable within the maximal budget is pruned without touching any
//!    schedule, and a candidate with `Π·d̄ᵢ` below the hop bound is skipped
//!    without the full check;
//! 4. the work bound `total_time · processors ≥ |J|` (necessary for
//!    injectivity) screens candidates before the full Definition 4.1 check;
//! 5. the first candidate in the shared order passing the full check is the
//!    pair's time-minimal design — identical tie-breaking to
//!    [`crate::schedule::find_optimal_schedule`].
//!
//! Pairs are explored one space at a time, in input order, so results are
//! deterministic.

use crate::error::MappingError;
use crate::feasibility::check_feasibility;
use crate::interconnect::Interconnect;
use crate::schedule::{candidate_count, processor_count, total_time, MAX_SEARCH_CANDIDATES};
use crate::transform::MappingMatrix;
use bitlevel_ir::AlgorithmTriplet;
use bitlevel_linalg::{gcd_all, rank, IMat, IVec};

/// A named interconnect the explorer may assign to a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineOption {
    /// Human-readable name (appears in reports and CSV exports).
    pub label: String,
    /// The interconnection primitives.
    pub interconnect: Interconnect,
}

impl MachineOption {
    /// Labels an interconnect.
    pub fn new(label: impl Into<String>, interconnect: Interconnect) -> Self {
        MachineOption {
            label: label.into(),
            interconnect,
        }
    }
}

/// Explorer configuration: the schedule bound, the machine menu and an
/// optional physical-PE budget.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Schedule entries range over `[−pi_bound, pi_bound]`.
    pub pi_bound: i64,
    /// Interconnect options; every `(S, machine)` pair is explored.
    pub machines: Vec<MachineOption>,
    /// Physical worker budget: when `Some(k)` with `k` below a design's
    /// virtual PE count, the design is costed as LSGP-folded onto `k`
    /// workers — each firing cycle expands to `⌈fires/k⌉` slices — and the
    /// Pareto axes become *physical* time and *physical* PEs. `None` keeps
    /// the paper's unbounded virtual array (physical ≡ virtual).
    pub max_physical_pes: Option<usize>,
}

/// One non-dominated design on the `(physical time, physical PEs, wire)`
/// frontier. Without a [`ExploreConfig::max_physical_pes`] budget the
/// physical axes coincide with the virtual ones, so the frontier is the
/// paper's `(time, processors, wire)` frontier unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierPoint {
    /// The full mapping `T = [S; Π]`.
    pub mapping: MappingMatrix,
    /// Label of the machine realising the design.
    pub machine: String,
    /// Its interconnection primitives.
    pub interconnect: Interconnect,
    /// Total execution time (4.5) on the unbounded virtual array.
    pub time: i64,
    /// Exact processor count `|S·J|` of the virtual array.
    pub processors: usize,
    /// Longest wire of the machine (L∞).
    pub max_wire_length: i64,
    /// PEs of the physical pool realising the design: the budget when one
    /// binds, the virtual count otherwise.
    pub physical_pes: usize,
    /// Execution time on the physical pool: `time` plus the extra cycle
    /// slices LSGP folding introduces (equal to `time` when the budget
    /// covers the peak wavefront).
    pub physical_time: i64,
}

/// Where the search effort went — the evidence that pruning worked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Space mappings considered.
    pub spaces: usize,
    /// Machines considered.
    pub machines: usize,
    /// Schedule candidates per `(S, machine)` pair (`(2B+1)ⁿ`).
    pub schedule_candidates: u128,
    /// The exhaustive joint space: `schedule_candidates · spaces · machines`.
    pub exhaustive: u128,
    /// Candidates surviving the `Π·D > 0` screen (shared across pairs).
    pub screened: u128,
    /// Full Definition 4.1 checks actually run — the "examined" count to
    /// compare against `exhaustive`.
    pub full_checks: u128,
    /// `(S, machine)` pairs eliminated before any full check (rank-deficient
    /// `S` or a dependence unroutable at the maximal budget).
    pub pruned_pairs: usize,
    /// Pairs that produced a feasible design.
    pub feasible_pairs: usize,
    /// Best time over condition-1-passing schedules — the machine- and
    /// `S`-independent lower bound of `dependence_only_bound`.
    pub lower_bound: Option<i64>,
}

/// Result of [`explore`]: the Pareto frontier plus search statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// Non-dominated designs, sorted by `(time, processors, wire)`; ties on
    /// the objective triple keep the lexicographically smallest `(S, Π,
    /// machine)` witness.
    pub frontier: Vec<FrontierPoint>,
    /// Search statistics.
    pub stats: ExploreStats,
}

impl Exploration {
    /// The time-minimal frontier design, if any design was feasible.
    pub fn time_minimal(&self) -> Option<&FrontierPoint> {
        self.frontier.first()
    }

    /// Frontier designs whose longest wire does not exceed `wire` — e.g.
    /// `nearest_neighbour_frontier(1)` for the Fig. 5 regime.
    pub fn within_wire_length(&self, wire: i64) -> Vec<&FrontierPoint> {
        self.frontier
            .iter()
            .filter(|f| f.max_wire_length <= wire)
            .collect()
    }
}

/// Generates the explorer's family of space mappings: every `rows`-row
/// matrix whose rows come from a pool of sign-normalised **primitive**
/// vectors with at most two nonzero entries bounded by `entry_bound`
/// (unit-row selections `ēᵢ` and two-axis combinations `a·ēᵢ + b·ēⱼ`,
/// `gcd(a,b) = 1`), taken as unordered combinations of distinct rows with
/// full row rank. The paper's own `S` of (4.2) — rows `p·ē₁ + ē₄` and
/// `p·ē₂ + ē₅` — is a member whenever `entry_bound ≥ p`.
pub fn generate_space_family(n: usize, rows: usize, entry_bound: i64) -> Vec<IMat> {
    let pool = row_pool(n, entry_bound);
    let mut picked: Vec<usize> = Vec::with_capacity(rows);
    let mut out = Vec::new();
    combinations(&pool, rows, 0, &mut picked, &mut out);
    out
}

/// Sign-normalised primitive rows with at most two nonzero entries.
fn row_pool(n: usize, entry_bound: i64) -> Vec<IVec> {
    let mut pool: Vec<IVec> = (0..n).map(|i| IVec::unit(n, i)).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            for a in 1..=entry_bound {
                for b in -entry_bound..=entry_bound {
                    if b == 0 || gcd_all(&[a, b]) != 1 || (a, b) == (1, 0) {
                        continue;
                    }
                    let mut v = IVec::zeros(n);
                    v[i] = a;
                    v[j] = b;
                    pool.push(v);
                }
            }
        }
    }
    pool
}

fn combinations(
    pool: &[IVec],
    rows: usize,
    from: usize,
    picked: &mut Vec<usize>,
    out: &mut Vec<IMat>,
) {
    if picked.len() == rows {
        let m = IMat::from_rows(
            &picked
                .iter()
                .map(|&i| pool[i].as_slice())
                .collect::<Vec<_>>(),
        );
        if rank(&m) == rows {
            out.push(m);
        }
        return;
    }
    for i in from..pool.len() {
        picked.push(i);
        combinations(pool, rows, i + 1, picked, out);
        picked.pop();
    }
}

/// Searches `spaces × machines × Π ∈ [−B, B]ⁿ` and returns the Pareto
/// frontier over `(total_time, processor_count, max_wire_length)` together
/// with pruning statistics. See the module docs for the pruning structure.
///
/// Every reported design has passed the **full** five-condition check of
/// Definition 4.1. With a single space and machine this degenerates to
/// [`crate::schedule::find_optimal_schedule`] (same optimum, same
/// tie-breaking); that equivalence is property-tested.
pub fn explore(
    alg: &AlgorithmTriplet,
    spaces: &[IMat],
    config: &ExploreConfig,
) -> Result<Exploration, MappingError> {
    let n = alg.dim();
    if config.pi_bound < 1 {
        return Err(MappingError::NonPositiveBound {
            bound: config.pi_bound,
        });
    }
    for s in spaces {
        if s.cols() != n {
            return Err(MappingError::DimensionMismatch {
                what: "space/algorithm",
                left: s.cols(),
                right: n,
            });
        }
    }
    for m in &config.machines {
        if let Some(s) = spaces.first() {
            if m.interconnect.dim() != s.rows() {
                return Err(MappingError::DimensionMismatch {
                    what: "interconnect/space",
                    left: m.interconnect.dim(),
                    right: s.rows(),
                });
            }
        }
    }

    // Shared sorted candidate list: the Π·D > 0 screen and the closed-form
    // time are independent of S and the machine, so they are computed once.
    let range: Vec<i64> = (-config.pi_bound..=config.pi_bound).collect();
    let schedule_candidates = candidate_count(range.len(), n as u32);
    if schedule_candidates > MAX_SEARCH_CANDIDATES {
        return Err(MappingError::SearchSpaceTooLarge {
            candidates: schedule_candidates,
            max: MAX_SEARCH_CANDIDATES,
        });
    }
    let d = alg.dependence_matrix();
    let mut screened: Vec<(i64, IVec)> = Vec::new();
    let mut idx = vec![0usize; n];
    for _ in 0..schedule_candidates {
        let pi = IVec(idx.iter().map(|&i| range[i]).collect());
        if (0..d.cols()).all(|c| d.col(c).dot(&pi) > 0) {
            screened.push((total_time(&pi, &alg.index_set), pi));
        }
        for slot in (0..n).rev() {
            idx[slot] += 1;
            if idx[slot] < range.len() {
                break;
            }
            idx[slot] = 0;
        }
    }
    screened.sort();
    let lower_bound = screened.first().map(|(t, _)| *t);

    // Maximal per-column routing budget any in-bound schedule can grant:
    // Π·d̄ᵢ ≤ B·‖d̄ᵢ‖₁.
    let max_budgets: Vec<i64> = (0..d.cols())
        .map(|c| config.pi_bound * d.col(c).l1_norm())
        .collect();
    let cardinality = alg.index_set.cardinality();

    // One pass per space: machines share the per-S memo (rank, |S·J|, S·D).
    let per_space: Vec<(Vec<FrontierPoint>, u128, usize)> = spaces
        .iter()
        .map(|space| {
            let mut points = Vec::new();
            let mut full_checks = 0u128;
            let mut pruned = 0usize;
            if rank(space) != space.rows() {
                // Condition 4 needs rank(T) = k, impossible for any Π.
                pruned += config.machines.len();
                return (points, full_checks, pruned);
            }
            let procs = processor_count(space, &alg.index_set);
            let sd = space.matmul(&d);
            for machine in &config.machines {
                let ic = &machine.interconnect;
                // Per-column minimum hops at the maximal budget: a routing
                // lower bound valid for every candidate schedule.
                let mut min_hops = Vec::with_capacity(sd.cols());
                let mut routable = true;
                for (c, &budget) in max_budgets.iter().enumerate().take(sd.cols()) {
                    match ic.route(&sd.col(c), budget) {
                        Some(rt) => min_hops.push(rt.hops),
                        None => {
                            routable = false;
                            break;
                        }
                    }
                }
                if !routable {
                    pruned += 1;
                    continue;
                }
                let mut winner = None;
                for (time, pi) in &screened {
                    // Work bound: |J| computations fit in procs·time slots.
                    if (procs as u128) * (*time as u128) < cardinality {
                        continue;
                    }
                    // Routing bound: Π·d̄ᵢ hops must cover the minimum.
                    if (0..sd.cols()).any(|c| d.col(c).dot(pi) < min_hops[c]) {
                        continue;
                    }
                    let t = MappingMatrix::new(space.clone(), pi.clone());
                    full_checks += 1;
                    if check_feasibility(&t, alg, ic).is_feasible() {
                        let (physical_pes, physical_time) = match config.max_physical_pes {
                            Some(k) if k > 0 && k < procs => {
                                (k, lsgp_time(&alg.index_set, pi, *time, k))
                            }
                            _ => (procs, *time),
                        };
                        winner = Some(FrontierPoint {
                            mapping: t,
                            machine: machine.label.clone(),
                            interconnect: ic.clone(),
                            time: *time,
                            processors: procs,
                            max_wire_length: ic.max_wire_length(),
                            physical_pes,
                            physical_time,
                        });
                        break;
                    }
                }
                if let Some(w) = winner {
                    points.push(w);
                }
            }
            (points, full_checks, pruned)
        })
        .collect();

    let mut candidates = Vec::new();
    let mut full_checks = 0u128;
    let mut pruned_pairs = 0usize;
    for (pts, fc, pr) in per_space {
        candidates.extend(pts);
        full_checks += fc;
        pruned_pairs += pr;
    }
    let feasible_pairs = candidates.len();
    let frontier = pareto_frontier(candidates);

    let pairs = (spaces.len() as u128) * (config.machines.len() as u128);
    Ok(Exploration {
        frontier,
        stats: ExploreStats {
            spaces: spaces.len(),
            machines: config.machines.len(),
            schedule_candidates,
            exhaustive: schedule_candidates.saturating_mul(pairs),
            screened: screened.len() as u128,
            full_checks,
            pruned_pairs,
            feasible_pairs,
            lower_bound,
        },
    })
}

/// LSGP execution time of schedule `pi` on a `k`-worker physical pool: every
/// firing cycle expands to `⌈fires/k⌉` barrier slices, idle cycles elapse
/// unchanged — so this is `time` plus the extra slices, and collapses to
/// `time` exactly when `k` covers the peak wavefront.
fn lsgp_time(set: &bitlevel_ir::BoxSet, pi: &IVec, time: i64, k: usize) -> i64 {
    let mut fires: std::collections::HashMap<i64, u64> = std::collections::HashMap::new();
    for q in set.iter_points() {
        *fires.entry(q.dot(pi)).or_insert(0) += 1;
    }
    let extra: i64 = fires
        .values()
        .map(|&f| f.div_ceil(k as u64) as i64 - 1)
        .sum();
    time + extra
}

/// Deterministic non-dominated filter over
/// `(physical time, physical PEs, wire)`.
///
/// Points are sorted by objectives then witness `(S, Π, machine)`; a point is
/// kept iff no already-kept point is ≤ on all three objectives (which also
/// collapses exact objective ties onto their lexicographically smallest
/// witness). Without a physical budget the axes equal the virtual
/// `(time, processors, wire)`, the paper's frontier.
fn pareto_frontier(mut points: Vec<FrontierPoint>) -> Vec<FrontierPoint> {
    points.sort_by_key(point_key);
    let mut out: Vec<FrontierPoint> = Vec::new();
    for p in points {
        let dominated = out.iter().any(|q| {
            q.physical_time <= p.physical_time
                && q.physical_pes <= p.physical_pes
                && q.max_wire_length <= p.max_wire_length
        });
        if !dominated {
            out.push(p);
        }
    }
    out
}

#[allow(clippy::type_complexity)] // a sort key, used once just above
fn point_key(p: &FrontierPoint) -> (i64, usize, i64, Vec<i64>, Vec<i64>, String) {
    (
        p.physical_time,
        p.physical_pes,
        p.max_wire_length,
        p.mapping.space.entries().copied().collect(),
        p.mapping.schedule.as_slice().to_vec(),
        p.machine.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::PaperDesign;
    use crate::schedule::find_optimal_schedule;
    use bitlevel_ir::{BoxSet, Dependence, DependenceSet, Predicate};

    fn matmul_bitlevel(u: i64, p: i64) -> AlgorithmTriplet {
        let j = BoxSet::cube(3, 1, u).product(&BoxSet::cube(2, 1, p));
        AlgorithmTriplet::new(
            j,
            DependenceSet::new(vec![
                Dependence::conditional([1, 0, 0, 0, 0], "y", Predicate::eq_const(4, 1)),
                Dependence::conditional([0, 1, 0, 0, 0], "x", Predicate::eq_const(3, 1)),
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
            "bit-level matmul, Expansion II",
        )
    }

    fn paper_machines(p: i64) -> Vec<MachineOption> {
        vec![
            MachineOption::new("P (long wires)", Interconnect::paper_p(p)),
            MachineOption::new("P' (nearest neighbour)", Interconnect::paper_p_prime()),
        ]
    }

    #[test]
    fn family_contains_the_paper_space_mapping() {
        let p = 2i64;
        let family = generate_space_family(5, 2, p);
        assert!(
            family.contains(&PaperDesign::space(p)),
            "family of {} must include S of (4.2)",
            family.len()
        );
        // Every member: full rank, primitive sign-normalised rows.
        for s in &family {
            assert_eq!(rank(s), 2);
            for r in 0..s.rows() {
                let row = s.row(r);
                assert_eq!(gcd_all(row), 1);
                assert!(row.iter().find(|&&x| x != 0).copied().unwrap_or(0) > 0);
            }
        }
    }

    #[test]
    fn explorer_restricted_to_paper_s_matches_schedule_search() {
        let (u, p) = (2i64, 2i64);
        let alg = matmul_bitlevel(u, p);
        let s = PaperDesign::space(p);
        for machine in paper_machines(p) {
            let direct =
                find_optimal_schedule(&s, &alg, &machine.interconnect, 2).expect("feasible");
            let ex = explore(
                &alg,
                std::slice::from_ref(&s),
                &ExploreConfig {
                    pi_bound: 2,
                    machines: vec![machine.clone()],
                    max_physical_pes: None,
                },
            )
            .expect("well-formed");
            assert_eq!(ex.frontier.len(), 1, "single pair → single point");
            let f = &ex.frontier[0];
            assert_eq!(f.mapping.schedule, direct.pi, "machine {}", machine.label);
            assert_eq!(f.time, direct.time);
            assert!(ex.stats.full_checks <= ex.stats.screened);
        }
    }

    #[test]
    fn frontier_rediscovers_both_paper_designs() {
        // u = 3, p = 2: large enough that the degenerate small-size designs
        // (see `joint_search_beats_fixed_s_at_tiny_sizes`) no longer displace
        // the paper's schedules from the frontier.
        let (u, p) = (3i64, 2i64);
        let alg = matmul_bitlevel(u, p);
        let family = generate_space_family(5, 2, p);
        let ex = explore(
            &alg,
            &family,
            &ExploreConfig {
                pi_bound: p,
                machines: paper_machines(p),
                max_physical_pes: None,
            },
        )
        .expect("well-formed");

        // Time-minimal end: Theorem 4.5's schedule and time, exactly.
        let tm = ex.time_minimal().expect("nonempty frontier");
        assert_eq!(tm.time, 3 * (u - 1) + 3 * (p - 1) + 1);
        assert_eq!(tm.time, PaperDesign::TimeOptimal.total_time(u, p));
        assert_eq!(tm.mapping.schedule, IVec::from([1, 1, 1, 2, 1]));
        assert_eq!(
            tm.time,
            ex.stats.lower_bound.unwrap(),
            "optimum meets the lower bound"
        );

        // Nearest-neighbour end: Π' = [p, p, 1, 2, 1] of (4.6) at the
        // closed-form time — the best wire-length-1 design.
        let nn = ex.within_wire_length(1);
        let nn_best = nn.first().expect("a nearest-neighbour design exists");
        assert_eq!(nn_best.mapping.schedule, IVec::from([p, p, 1, 2, 1]));
        assert_eq!(nn_best.time, PaperDesign::NearestNeighbour.total_time(u, p));

        // Every frontier design re-passes the full Definition 4.1 check.
        for f in &ex.frontier {
            assert!(
                check_feasibility(&f.mapping, &alg, &f.interconnect).is_feasible(),
                "frontier design must be feasible: {:?}",
                f.mapping
            );
        }

        // Pruning is real: ≥10× fewer full checks than the exhaustive space.
        assert!(ex.stats.full_checks * 10 <= ex.stats.exhaustive);
        assert!(ex.stats.full_checks >= 1);
    }

    #[test]
    fn joint_search_beats_fixed_s_at_tiny_sizes() {
        // At u = p = 2 the joint (S, Π) search finds a *better*
        // nearest-neighbour design than the paper's T' of (4.6): Theorem 4.5
        // and (4.6) optimise Π for the fixed S of (4.2) only, and the tiny
        // index set leaves room for serialising mappings with fewer
        // processors. The explorer must surface that honestly rather than
        // echo the hand-derived design.
        let (u, p) = (2i64, 2i64);
        let alg = matmul_bitlevel(u, p);
        let family = generate_space_family(5, 2, p);
        let ex = explore(
            &alg,
            &family,
            &ExploreConfig {
                pi_bound: p,
                machines: paper_machines(p),
                max_physical_pes: None,
            },
        )
        .unwrap();
        let nn_best = ex.within_wire_length(1)[0];
        let paper = PaperDesign::NearestNeighbour;
        assert!(
            nn_best.time < paper.total_time(u, p),
            "strictly faster than T'"
        );
        assert!(
            (nn_best.processors as i64) < PaperDesign::processors(u, p),
            "and on fewer processors"
        );
        assert!(check_feasibility(&nn_best.mapping, &alg, &nn_best.interconnect).is_feasible());
    }

    #[test]
    fn frontier_is_non_dominated_and_sorted() {
        let (u, p) = (2i64, 2i64);
        let alg = matmul_bitlevel(u, p);
        let family = generate_space_family(5, 2, p);
        let ex = explore(
            &alg,
            &family,
            &ExploreConfig {
                pi_bound: 2,
                machines: paper_machines(p),
                max_physical_pes: None,
            },
        )
        .unwrap();
        let fr = &ex.frontier;
        for (i, a) in fr.iter().enumerate() {
            for (j, b) in fr.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominates = a.time <= b.time
                    && a.processors <= b.processors
                    && a.max_wire_length <= b.max_wire_length;
                assert!(!dominates, "{i} dominates {j}: frontier not minimal");
            }
        }
        for w in fr.windows(2) {
            assert!(
                point_key(&w[0]) < point_key(&w[1]),
                "frontier must be sorted"
            );
        }
    }

    #[test]
    fn explore_rejects_bad_inputs_with_typed_errors() {
        let alg = matmul_bitlevel(2, 2);
        let s = PaperDesign::space(2);
        let cfg = ExploreConfig {
            pi_bound: 0,
            machines: paper_machines(2),
            max_physical_pes: None,
        };
        assert_eq!(
            explore(&alg, std::slice::from_ref(&s), &cfg),
            Err(MappingError::NonPositiveBound { bound: 0 })
        );
        let narrow = IMat::from_rows(&[&[1, 0, 0]]);
        let cfg = ExploreConfig {
            pi_bound: 2,
            machines: paper_machines(2),
            max_physical_pes: None,
        };
        assert_eq!(
            explore(&alg, &[narrow], &cfg),
            Err(MappingError::DimensionMismatch {
                what: "space/algorithm",
                left: 3,
                right: 5
            })
        );
    }

    #[test]
    fn empty_inputs_give_empty_frontier() {
        let alg = matmul_bitlevel(2, 2);
        let cfg = ExploreConfig {
            pi_bound: 2,
            machines: paper_machines(2),
            max_physical_pes: None,
        };
        let ex = explore(&alg, &[], &cfg).unwrap();
        assert!(ex.frontier.is_empty());
        assert_eq!(ex.stats.full_checks, 0);
    }
}
