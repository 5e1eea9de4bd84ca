//! The paper's two concrete bit-level matmul architectures (Section 4.2).
//!
//! Both share the space mapping `S = [[p,0,0,1,0],[0,p,0,0,1]]` — a `up × up`
//! grid of bit-level processors arranged as `u × u` blocks of `p × p` cells —
//! and differ in schedule and machine:
//!
//! * **Design 1** (Fig. 4): `Π = [1,1,1,2,1]` on the machine `P` of (4.3)
//!   with length-`p` long wires; time-optimal,
//!   `t = 3(u−1) + 3(p−1) + 1` (4.5), with one buffer on the `[1,0]ᵀ` link.
//! * **Design 2** (Fig. 5): `Π′ = [p,p,1,2,1]` on the nearest-neighbour
//!   machine `P′` of (4.7); no long wires, but
//!   `t′ = (2p+1)(u−1) + 3(p−1) + 1`. (The paper's printed `(2p−1)(u−1)+…`
//!   in (4.8) contradicts its own `Π′(ū − l̄)` expansion; we use the value the
//!   formula actually yields — the qualitative conclusion, `t′ > t`, holds
//!   either way.)
//!
//! The word-level comparator of Section 4.2 — the best word-level matmul
//! array [4] with total time `(3(u−1)+1)·t_b` — is also provided here in
//! closed form; its simulation lives in `bitlevel-systolic`.

use crate::interconnect::Interconnect;
use crate::transform::MappingMatrix;
use bitlevel_linalg::{IMat, IVec};

/// Which of the paper's two bit-level designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperDesign {
    /// Fig. 4: time-optimal, long wires (eq. (4.2)/(4.3)).
    TimeOptimal,
    /// Fig. 5: nearest-neighbour only (eq. (4.6)/(4.7)).
    NearestNeighbour,
}

impl PaperDesign {
    /// The shared space mapping `S` of (4.2)/(4.6).
    pub fn space(p: i64) -> IMat {
        IMat::from_rows(&[&[p, 0, 0, 1, 0], &[0, p, 0, 0, 1]])
    }

    /// The design's mapping matrix `T = [S; Π]`.
    pub fn mapping(self, p: i64) -> MappingMatrix {
        let pi = match self {
            PaperDesign::TimeOptimal => IVec::from([1, 1, 1, 2, 1]),
            PaperDesign::NearestNeighbour => IVec::from([p, p, 1, 2, 1]),
        };
        MappingMatrix::new(Self::space(p), pi)
    }

    /// The design's interconnection primitives.
    pub fn interconnect(self, p: i64) -> Interconnect {
        match self {
            PaperDesign::TimeOptimal => Interconnect::paper_p(p),
            PaperDesign::NearestNeighbour => Interconnect::paper_p_prime(),
        }
    }

    /// Closed-form total execution time.
    pub fn total_time(self, u: i64, p: i64) -> i64 {
        match self {
            // Eq. (4.5).
            PaperDesign::TimeOptimal => 3 * (u - 1) + 3 * (p - 1) + 1,
            // Π′·(ū − l̄) + 1; see module docs re the paper's (4.8).
            PaperDesign::NearestNeighbour => (2 * p + 1) * (u - 1) + 3 * (p - 1) + 1,
        }
    }

    /// Processor count `u²p²` (both designs share `S`).
    pub fn processors(u: i64, p: i64) -> i64 {
        u * u * p * p
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PaperDesign::TimeOptimal => "Fig. 4 (time-optimal, long wires)",
            PaperDesign::NearestNeighbour => "Fig. 5 (nearest-neighbour)",
        }
    }
}

/// Total time of the best **word-level** matmul array (Section 4.2, citing
/// [4]): `(3(u−1)+1)·t_b`, where `t_b` is the word-PE latency of one
/// multiply-and-accumulate (`p²` for add-shift, `2p` for carry-save).
pub fn word_level_total_time(u: i64, t_b: i64) -> i64 {
    (3 * (u - 1) + 1) * t_b
}

/// The bit-level speedup over the word-level array — `O(p²)` against the
/// add-shift word PE and `O(p)` against carry-save, for `u > p`.
pub fn speedup(u: i64, p: i64, t_b: i64) -> f64 {
    word_level_total_time(u, t_b) as f64 / PaperDesign::TimeOptimal.total_time(u, p) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_matrices_match_the_paper() {
        let p = 3;
        let t = PaperDesign::TimeOptimal.mapping(p);
        assert_eq!(
            t.t_matrix(),
            IMat::from_rows(&[&[3, 0, 0, 1, 0], &[0, 3, 0, 0, 1], &[1, 1, 1, 2, 1]])
        );
        let t2 = PaperDesign::NearestNeighbour.mapping(p);
        assert_eq!(t2.t_matrix().row(2), &[3, 3, 1, 2, 1]);
        assert_eq!(t.space, t2.space);
    }

    #[test]
    fn closed_form_times() {
        assert_eq!(PaperDesign::TimeOptimal.total_time(3, 3), 13); // 3·2+3·2+1
        assert_eq!(
            PaperDesign::NearestNeighbour.total_time(3, 3),
            7 * 2 + 6 + 1
        );
        // Design 2 is never faster.
        for u in 2..8 {
            for p in 2..8 {
                assert!(
                    PaperDesign::NearestNeighbour.total_time(u, p)
                        >= PaperDesign::TimeOptimal.total_time(u, p)
                );
            }
        }
    }

    #[test]
    fn closed_forms_equal_measured_total_time_on_the_grid() {
        // Pins the coefficient choice: both closed forms must equal the
        // measured `total_time(Π, J)` of eq. (4.5) on every grid point —
        // and the paper's printed (4.8) coefficient `(2p−1)(u−1)` must NOT
        // (it contradicts the paper's own `Π′·(ū − l̄) + 1` expansion;
        // DESIGN.md documents the discrepancy).
        use bitlevel_ir::BoxSet;
        for u in 2i64..=6 {
            for p in 2i64..=6 {
                let j = BoxSet::cube(3, 1, u).product(&BoxSet::cube(2, 1, p));
                for d in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
                    let measured = crate::schedule::total_time(&d.mapping(p).schedule, &j);
                    assert_eq!(d.total_time(u, p), measured, "{d:?} u={u} p={p}");
                }
                let printed_4_8 = (2 * p - 1) * (u - 1) + 3 * (p - 1) + 1;
                let measured = crate::schedule::total_time(
                    &PaperDesign::NearestNeighbour.mapping(p).schedule,
                    &j,
                );
                assert_ne!(printed_4_8, measured, "the printed (4.8) is 2(u−1) short");
                assert_eq!(measured - printed_4_8, 2 * (u - 1));
            }
        }
    }

    #[test]
    fn processors_closed_form() {
        assert_eq!(PaperDesign::processors(3, 3), 81);
        assert_eq!(PaperDesign::processors(2, 4), 64);
    }

    #[test]
    fn word_level_comparison_of_section_4_2() {
        let (u, p) = (16i64, 8i64);
        // Add-shift word PE: speedup grows like p² (u > p).
        let s_addshift = speedup(u, p, p * p);
        // Carry-save word PE: speedup grows like p.
        let s_carrysave = speedup(u, p, 2 * p);
        assert!(s_addshift > s_carrysave);
        assert!(s_carrysave > 1.0, "bit-level must win: {s_carrysave}");
        // Asymptotic shape: doubling p roughly quadruples the add-shift
        // speedup and roughly doubles the carry-save speedup (u scaled too so
        // u > p stays true).
        let s2 = speedup(4 * u, 2 * p, (2 * p) * (2 * p));
        assert!(
            s2 / s_addshift > 2.5,
            "expected ~4x, got {}",
            s2 / s_addshift
        );
        let c2 = speedup(4 * u, 2 * p, 2 * (2 * p));
        assert!(c2 / s_carrysave > 1.5 && c2 / s_carrysave < 2.5);
    }

    #[test]
    fn interconnects_differ_in_wire_length() {
        assert_eq!(
            PaperDesign::TimeOptimal.interconnect(5).max_wire_length(),
            5
        );
        assert_eq!(
            PaperDesign::NearestNeighbour
                .interconnect(5)
                .max_wire_length(),
            1
        );
    }
}
