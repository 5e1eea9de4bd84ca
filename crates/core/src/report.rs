//! Human-readable reports in the paper's own notation.
//!
//! Renders a whole design flow — structure, mapping, `T·D`, measured vs
//! closed-form times — the way Sections 3–4 present them, for the examples
//! and the experiment harness.

use crate::pipeline::{ArchitectureReport, DesignFlow, ExplorationReport};
use bitlevel_ir::annotated_dependence_table;
use bitlevel_mapping::PaperDesign;
use bitlevel_systolic::TraceRollup;
use std::fmt::Write as _;

/// Renders the Theorem 3.1 derivation for a flow: index set, annotated
/// dependence matrix with validity regions, uniformity notes.
pub fn render_structure(flow: &DesignFlow) -> String {
    let alg = flow.bit_level_structure();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Bit-level structure of {} (p = {}, {}):",
        flow.word.name, flow.p, flow.expansion
    );
    let _ = writeln!(
        out,
        "J = {}  (|J| = {})",
        alg.index_set,
        alg.index_set.cardinality()
    );
    out.push_str(&annotated_dependence_table(&alg));
    let uniform: Vec<String> = alg
        .deps
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_uniform_over(&alg.index_set))
        .map(|(i, _)| format!("d{}", i + 1))
        .collect();
    let _ = writeln!(
        out,
        "uniform columns: {}",
        if uniform.is_empty() {
            "none".into()
        } else {
            uniform.join(", ")
        }
    );
    out
}

/// Renders one architecture evaluation: feasibility, measured cycles vs the
/// closed form, processors, wiring.
pub fn render_architecture(rep: &ArchitectureReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "architecture: {}", rep.name);
    let _ = writeln!(out, "  feasible (Def. 4.1): {}", rep.feasible);
    for v in &rep.violations {
        let _ = writeln!(out, "    violation: {v}");
    }
    match rep.closed_form_cycles {
        Some(cf) => {
            let _ = writeln!(
                out,
                "  cycles: measured {} vs closed-form {} ({})",
                rep.run.cycles,
                cf,
                if rep.run.cycles == cf {
                    "match"
                } else {
                    "MISMATCH"
                }
            );
        }
        None => {
            let _ = writeln!(out, "  cycles: measured {}", rep.run.cycles);
        }
    }
    let _ = writeln!(out, "  processors: {}", rep.run.processors);
    let _ = writeln!(out, "  peak parallelism: {}", rep.run.peak_parallelism);
    let _ = writeln!(out, "  utilization: {:.3}", rep.run.utilization);
    let _ = writeln!(out, "  longest wire: {}", rep.max_wire_length);
    let _ = writeln!(out, "  buffer-cycles: {}", rep.run.buffer_cycles);
    let _ = writeln!(
        out,
        "  conflict-free: {}, causality: {}",
        rep.run.conflict_free, rep.run.causality_ok
    );
    let _ = writeln!(out, "  backend: {}", rep.backend_used);
    out
}

/// Renders the measured profile of a traced run — the observability
/// counterpart of [`render_architecture`], fed by what the engine actually
/// did rather than what the schedule promises.
pub fn render_trace_summary(rollup: &TraceRollup) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "traced run:");
    let _ = writeln!(out, "  firings: {}", rollup.fire_total());
    let _ = writeln!(out, "  busy span: {} cycles", rollup.cycle_span());
    let _ = writeln!(out, "  PEs observed: {}", rollup.pe_fires.len());
    let _ = writeln!(out, "  peak wavefront: {}", rollup.peak_wavefront());
    let _ = writeln!(out, "  utilization: {:.3}", rollup.utilization());
    let _ = writeln!(out, "  violations: {}", rollup.violations);
    let _ = writeln!(
        out,
        "  tokens launched: {}, consumed: {}",
        rollup.launched.iter().sum::<u64>(),
        rollup.consumed.iter().sum::<u64>()
    );
    for (i, peak) in rollup.in_flight_peak.iter().enumerate() {
        let _ = writeln!(out, "  d{}: in-flight peak {peak}", i + 1);
    }
    for (l, occ) in rollup.link_occupancy.iter().enumerate() {
        let _ = writeln!(out, "  P[{l}]: occupancy {occ}");
    }
    out
}

/// Renders the Pareto frontier of a design-space exploration: one row per
/// non-dominated design with its objective triple `(time, PEs, wire)`, the
/// `T = [S; Π]` witness, the engine that verified it, and the search
/// statistics (full checks vs the exhaustive joint space).
pub fn render_frontier(ex: &ExplorationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Pareto frontier over (time, processors, wire): {} design(s)",
        ex.designs.len()
    );
    let _ = writeln!(
        out,
        "  {:>6} {:>6} {:>5}  {:<24} {:<10} T = [S; Pi]",
        "time", "PEs", "wire", "machine", "verified"
    );
    for d in &ex.designs {
        let t = &d.point.mapping;
        let rows: Vec<String> = (0..t.space.rows())
            .map(|r| format!("{:?}", t.space.row(r)))
            .chain(std::iter::once(format!("{:?}", t.schedule.as_slice())))
            .collect();
        let verified = if d.verified() {
            format!("yes ({})", d.report.backend_used)
        } else if !d.report.feasible {
            "INFEASIBLE".to_string()
        } else {
            format!("DIVERGED: {}", d.divergences.join(","))
        };
        let _ = writeln!(
            out,
            "  {:>6} {:>6} {:>5}  {:<24} {:<10} {}",
            d.point.time,
            d.point.processors,
            d.point.max_wire_length,
            d.point.machine,
            verified,
            rows.join(" ; ")
        );
    }
    let s = &ex.stats;
    let _ = writeln!(
        out,
        "search: {} spaces x {} machines x {} schedules = {} joint designs",
        s.spaces, s.machines, s.schedule_candidates, s.exhaustive
    );
    let _ = writeln!(
        out,
        "  condition-1 screen kept {} schedule(s); {} full Def. 4.1 checks ({}x fewer than exhaustive)",
        s.screened,
        s.full_checks,
        s.exhaustive
            .checked_div(s.full_checks)
            .unwrap_or(s.exhaustive)
    );
    let _ = writeln!(
        out,
        "  pairs pruned before any check: {}; feasible pairs: {}; schedule-only lower bound: {}",
        s.pruned_pairs,
        s.feasible_pairs,
        s.lower_bound.map_or("-".to_string(), |t| t.to_string())
    );
    out
}

/// Renders the full Section 4.2 comparison for a matmul flow: both paper
/// designs plus the word-level baselines.
pub fn render_matmul_comparison(u: i64, p: i64) -> String {
    let flow = DesignFlow::matmul(u, p as usize);
    let mut out = String::new();
    let _ = writeln!(out, "== matrix multiplication, u = {u}, p = {p} ==");
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        out.push_str(&render_architecture(&flow.evaluate_paper_design(design)));
    }
    let word_addshift = bitlevel_mapping::word_level_total_time(u, p * p);
    let word_carrysave = bitlevel_mapping::word_level_total_time(u, 2 * p);
    let bit = PaperDesign::TimeOptimal.total_time(u, p);
    let _ = writeln!(
        out,
        "word-level (add-shift PE, t_b = p^2): {word_addshift} cycles"
    );
    let _ = writeln!(
        out,
        "word-level (carry-save PE, t_b = 2p): {word_carrysave} cycles"
    );
    let _ = writeln!(
        out,
        "speedup of Fig. 4: {:.1}x over add-shift word PEs, {:.1}x over carry-save",
        word_addshift as f64 / bit as f64,
        word_carrysave as f64 / bit as f64
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_depanal::Expansion;
    use bitlevel_ir::WordLevelAlgorithm;

    #[test]
    fn structure_report_mentions_validity_regions() {
        let flow = DesignFlow::matmul(2, 2);
        let s = render_structure(&flow);
        assert!(s.contains("i1=1"), "{s}");
        assert!(s.contains("uniform columns: d6"), "{s}");
    }

    #[test]
    fn expansion_i_report_shows_d3_uniform() {
        let flow = DesignFlow::new(WordLevelAlgorithm::matmul(2), 2, Expansion::I);
        let s = render_structure(&flow);
        assert!(s.contains("d3"), "{s}");
    }

    #[test]
    fn architecture_report_flags_match() {
        let flow = DesignFlow::matmul(2, 2);
        let rep = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
        let s = render_architecture(&rep);
        assert!(s.contains("match"), "{s}");
        assert!(!s.contains("MISMATCH"), "{s}");
    }

    #[test]
    fn architecture_report_names_the_backend() {
        let flow = DesignFlow::matmul(2, 2);
        let rep = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
        let s = render_architecture(&rep);
        assert!(s.contains("backend: compiled"), "{s}");
    }

    #[test]
    fn trace_summary_reports_measured_profile() {
        use bitlevel_systolic::RecordingSink;
        let flow = DesignFlow::matmul(2, 2);
        let design = PaperDesign::TimeOptimal;
        let mut sink = RecordingSink::new();
        flow.evaluate_structure_faulted(
            design.name(),
            &flow.bit_level_structure(),
            &design.mapping(2),
            &design.interconnect(2),
            None,
            &mut sink,
            &bitlevel_systolic::NoFaults,
        );
        let s = render_trace_summary(sink.rollup());
        assert!(s.contains("firings: 32"), "{s}"); // |J| = u³p² = 8·4
        assert!(s.contains("busy span: 7 cycles"), "{s}"); // 3(u−1)+3(p−1)+1
        assert!(s.contains("violations: 0"), "{s}");
    }

    #[test]
    fn comparison_report_computes_speedups() {
        let s = render_matmul_comparison(3, 3);
        assert!(s.contains("speedup"), "{s}");
        assert!(s.contains("word-level"), "{s}");
    }

    #[test]
    fn frontier_report_shows_designs_and_pruning() {
        let flow = DesignFlow::matmul(2, 2);
        let (family, config) = flow.default_exploration();
        let ex = flow.explore(&family, &config).unwrap();
        let s = render_frontier(&ex);
        assert!(s.contains("Pareto frontier"), "{s}");
        assert!(s.contains("yes (compiled)"), "{s}");
        assert!(!s.contains("DIVERGED"), "{s}");
        assert!(s.contains("full Def. 4.1 checks"), "{s}");
        // The Theorem 4.5 schedule appears as a witness row.
        assert!(s.contains("[1, 1, 1, 2, 1]"), "{s}");
    }
}
