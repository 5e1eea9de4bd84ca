//! Interconnection primitives and the `SD = PK` condition (condition 2).
//!
//! "The matrix of interconnection primitives P describes the connection links
//! of processors in the processor array." Condition 2 of Definition 4.1
//! requires `S·D = P·K` where column `k̄ᵢ ≥ 0` of `K` counts how many times
//! each primitive is traversed to route the datum of dependence `d̄ᵢ`, subject
//! to the timing budget (4.1): `Σⱼ kⱼᵢ ≤ Π·d̄ᵢ` (one time unit per hop). A
//! strict surplus `Π·d̄ᵢ − Σⱼ kⱼᵢ > 0` is absorbed by **buffers** (registers)
//! on the path — exactly the paper's "buffer on the interconnection primitive
//! `[1,0]ᵀ`" in Fig. 4.

use bitlevel_linalg::{IMat, IVec};
use std::collections::HashMap;

/// A set of interconnection primitives: the columns of `P`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interconnect {
    /// The primitive matrix `P ∈ Z^{(k−1)×r}`.
    pub p: IMat,
}

impl Interconnect {
    /// Wraps a primitive matrix.
    pub fn new(p: IMat) -> Self {
        Interconnect { p }
    }

    /// The standard 4-neighbour mesh of the paper's Section 4.1:
    /// `P = [[0,0,1,-1],[1,-1,0,0]]`.
    pub fn mesh4() -> Self {
        Interconnect::new(IMat::from_rows(&[&[0, 0, 1, -1], &[1, -1, 0, 0]]))
    }

    /// The paper's `P` of eq. (4.3) for the Fig. 4 architecture: long wires
    /// of length `p` in both directions, a static (zero) link, unit east and
    /// south links, and the diagonal `[1,−1]ᵀ`.
    pub fn paper_p(p: i64) -> Self {
        Interconnect::new(IMat::from_rows(&[
            &[p, 0, 0, 1, 0, 1],
            &[0, p, 0, 0, 1, -1],
        ]))
    }

    /// The paper's `P'` of eq. (4.7) for the Fig. 5 architecture: unit east,
    /// unit south, the diagonal, and a static link — **no long wires**.
    pub fn paper_p_prime() -> Self {
        Interconnect::new(IMat::from_rows(&[&[1, 0, 1, 0], &[0, 1, -1, 0]]))
    }

    /// Number of primitives `r`.
    pub fn count(&self) -> usize {
        self.p.cols()
    }

    /// Processor-space dimension `k − 1`.
    pub fn dim(&self) -> usize {
        self.p.rows()
    }

    /// Longest wire (L∞ length) among the primitives — Fig. 4 needs length
    /// `p`, Fig. 5 only length 1 ("long wires are not needed in Fig. 5").
    pub fn max_wire_length(&self) -> i64 {
        (0..self.count())
            .map(|j| self.p.col(j).linf_norm())
            .max()
            .unwrap_or(0)
    }

    /// Solves one column of condition 2: finds `k̄ ≥ 0` with `P·k̄ = target`
    /// and `Σ k̄ ≤ budget`, minimising the hop count `Σ k̄` (so the buffer
    /// count `budget − Σ k̄` is maximal, i.e. the routing is tightest).
    ///
    /// Breadth-first search over reachable processor offsets: each layer adds
    /// one primitive hop, so the first time `target` is reached gives the
    /// minimum hop count. Returns `None` if `target` is unreachable within
    /// `budget` hops.
    pub fn route(&self, target: &IVec, budget: i64) -> Option<Routing> {
        assert_eq!(
            target.dim(),
            self.dim(),
            "routing target dimension mismatch"
        );
        if budget < 0 {
            return None;
        }
        let r = self.count();
        let origin = IVec::zeros(self.dim());
        // visited: offset → (hops, usage vector)
        let mut visited: HashMap<IVec, IVec> = HashMap::new();
        visited.insert(origin.clone(), IVec::zeros(r));
        let mut frontier = vec![origin];
        for hops in 0..=budget {
            if let Some(usage) = visited.get(target) {
                // Found at a previous layer; hops used = Σ usage.
                let used: i64 = usage.iter().sum();
                return Some(Routing {
                    usage: usage.clone(),
                    hops: used,
                    buffers: budget - used,
                });
            }
            if hops == budget {
                break;
            }
            let mut next = Vec::new();
            for offset in frontier.drain(..) {
                let base_usage = visited[&offset].clone();
                for j in 0..r {
                    let prim = self.p.col(j);
                    if prim.is_zero() {
                        continue; // the static link never moves data
                    }
                    let reached = &offset + &prim;
                    if visited.contains_key(&reached) {
                        continue;
                    }
                    let mut usage = base_usage.clone();
                    usage[j] += 1;
                    visited.insert(reached.clone(), usage);
                    next.push(reached);
                }
            }
            frontier = next;
        }
        visited.get(target).map(|usage| {
            let used: i64 = usage.iter().sum();
            Routing {
                usage: usage.clone(),
                hops: used,
                buffers: budget - used,
            }
        })
    }

    /// Solves condition 2 for a whole dependence matrix: `SD = PK` with the
    /// per-column budget `Π·d̄ᵢ`. Returns the `K` matrix and per-column buffer
    /// counts, or the index of the first unroutable column.
    pub fn solve_k(&self, sd: &IMat, budgets: &[i64]) -> Result<KSolution, usize> {
        assert_eq!(
            sd.cols(),
            budgets.len(),
            "budget per dependence column required"
        );
        let mut cols = Vec::with_capacity(sd.cols());
        let mut buffers = Vec::with_capacity(sd.cols());
        #[allow(clippy::needless_range_loop)] // i indexes sd columns and budgets together
        for i in 0..sd.cols() {
            match self.route(&sd.col(i), budgets[i]) {
                Some(rt) => {
                    cols.push(rt.usage);
                    buffers.push(rt.buffers);
                }
                None => return Err(i),
            }
        }
        Ok(KSolution {
            k: IMat::from_columns(&cols),
            buffers,
        })
    }
}

/// A routing of one dependence column through the primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routing {
    /// Usage counts per primitive (`k̄ᵢ`).
    pub usage: IVec,
    /// Total hops `Σ k̄ᵢ`.
    pub hops: i64,
    /// Slack `Π·d̄ᵢ − Σ k̄ᵢ` to be realised as buffers.
    pub buffers: i64,
}

/// A complete `K` matrix for condition 2 with per-column buffer counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KSolution {
    /// `K ∈ Z^{r×m}`, `K ≥ 0`, `P·K = S·D`.
    pub k: IMat,
    /// `buffers[i] = Π·d̄ᵢ − Σⱼ K[j][i]`.
    pub buffers: Vec<i64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh4_shape() {
        let m = Interconnect::mesh4();
        assert_eq!(m.count(), 4);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.max_wire_length(), 1);
    }

    #[test]
    fn paper_p_has_long_wires_p_prime_does_not() {
        assert_eq!(Interconnect::paper_p(3).max_wire_length(), 3);
        assert_eq!(Interconnect::paper_p_prime().max_wire_length(), 1);
    }

    #[test]
    fn route_direct_primitive() {
        let ic = Interconnect::paper_p(3);
        // S·d̄₁ = [3,0] routes over the long wire in one hop.
        let rt = ic.route(&IVec::from([3, 0]), 1).expect("routable");
        assert_eq!(rt.hops, 1);
        assert_eq!(rt.buffers, 0);
        // Usage vector selects exactly the first primitive.
        assert_eq!(rt.usage, IVec::from([1, 0, 0, 0, 0, 0]));
    }

    #[test]
    fn route_detects_buffer_of_fig_4() {
        // The paper: "There is a buffer on the interconnection primitive
        // [1,0]ᵀ because S·d̄₄ = [1,0]ᵀ and Σ k = 1 < Π·d̄₄ = 2."
        let ic = Interconnect::paper_p(3);
        let rt = ic.route(&IVec::from([1, 0]), 2).expect("routable");
        assert_eq!(rt.hops, 1);
        assert_eq!(rt.buffers, 1);
    }

    #[test]
    fn route_static_link() {
        // Zero displacement: zero hops, all budget becomes buffering
        // (stationary data, like z in Fig. 4).
        let ic = Interconnect::paper_p(3);
        let rt = ic.route(&IVec::from([0, 0]), 1).expect("routable");
        assert_eq!(rt.hops, 0);
        assert_eq!(rt.buffers, 1);
    }

    #[test]
    fn route_multi_hop() {
        // [0,2] over P': two south hops.
        let ic = Interconnect::paper_p_prime();
        let rt = ic.route(&IVec::from([0, 2]), 2).expect("routable");
        assert_eq!(rt.hops, 2);
        assert_eq!(rt.usage, IVec::from([0, 2, 0, 0]));
        // Budget 1 is insufficient.
        assert!(ic.route(&IVec::from([0, 2]), 1).is_none());
    }

    #[test]
    fn route_unreachable_direction() {
        // P' has no westward link: [-1, 0] is unreachable at any budget the
        // BFS explores.
        let ic = Interconnect::paper_p_prime();
        assert!(ic.route(&IVec::from([-1, 0]), 5).is_none());
    }

    #[test]
    fn solve_k_reproduces_paper_fig4_routing() {
        // SD for T of (4.2), D of (3.12) (paper column order y,x,z,d4,d5,d6,d7):
        // SD = [[3,0,0,1,0,1,0],[0,3,0,0,1,-1,2]] for p=3.
        let sd = IMat::from_rows(&[&[3, 0, 0, 1, 0, 1, 0], &[0, 3, 0, 0, 1, -1, 2]]);
        let budgets = [1, 1, 1, 2, 1, 1, 2]; // Π·d̄ᵢ from eq. (4.4)
        let ic = Interconnect::paper_p(3);
        let sol = ic.solve_k(&sd, &budgets).expect("all columns routable");
        // PK = SD.
        assert_eq!(ic.p.matmul(&sol.k), sd);
        // K ≥ 0 and column sums within budget.
        #[allow(clippy::needless_range_loop)] // i indexes K columns and budgets together
        for i in 0..sol.k.cols() {
            let col = sol.k.col(i);
            assert!(col.iter().all(|&x| x >= 0));
            let total: i64 = col.iter().sum();
            assert!(total <= budgets[i]);
        }
        // Exactly one buffered link: d̄₄'s east hop (paper's Fig. 4 buffer).
        assert_eq!(sol.buffers, vec![0, 0, 1, 1, 0, 0, 0]);
        // (z is stationary with Π·d̄₃ = 1: one cycle of local storage.)
    }

    #[test]
    fn solve_k_reports_unroutable_column() {
        let ic = Interconnect::paper_p_prime();
        let sd = IMat::from_rows(&[&[-1], &[0]]);
        assert_eq!(ic.solve_k(&sd, &[3]), Err(0));
    }

    #[test]
    fn solve_k_for_fig5_uses_unit_hops_for_long_moves() {
        // T' of (4.6): same S, so SD unchanged, but P' must route [p,0] as p
        // unit hops, forcing Π'·d̄₁ ≥ p — the cost of avoiding long wires.
        let sd = IMat::from_rows(&[&[3, 0, 0, 1, 0, 1, 0], &[0, 3, 0, 0, 1, -1, 2]]);
        let budgets = [3, 3, 1, 2, 1, 1, 2]; // Π' = [p,p,1,2,1] applied to D
        let ic = Interconnect::paper_p_prime();
        let sol = ic.solve_k(&sd, &budgets).expect("routable with P'");
        assert_eq!(ic.p.matmul(&sol.k), sd);
        // d̄₁ (y) needs all 3 hops: no buffers.
        assert_eq!(sol.buffers[0], 0);
    }
}
