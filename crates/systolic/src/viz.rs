//! Textual visualisation of bit-level architectures and schedules.
//!
//! Renders the structures the paper draws as figures: the block layout of
//! the Fig. 4/5 arrays (a `u×u` grid of `p×p` cell blocks, since
//! `S = [[p,0,0,1,0],[0,p,0,0,1]]` maps `(j₁, j₂)` to block coordinates and
//! `(i₁, i₂)` within a block), per-link annotations from the routing
//! solution, and cycle-by-cycle activity maps of a mapped schedule.

use crate::trace::TraceRollup;
use bitlevel_ir::AlgorithmTriplet;
use bitlevel_linalg::IVec;
use bitlevel_mapping::{Interconnect, MappingMatrix};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders the processor layout of a mapped algorithm: an ASCII grid of the
/// 2-D processor space with `#` for used PEs, `.` for unused grid slots —
/// for the paper's designs this shows the `u×u` blocks of `p×p` cells of
/// Figs. 4/5.
///
/// # Panics
/// Panics unless the space mapping is 2-D.
pub fn render_processor_grid(alg: &AlgorithmTriplet, t: &MappingMatrix) -> String {
    assert_eq!(t.k() - 1, 2, "grid rendering needs a 2-D processor space");
    let mut used: HashMap<(i64, i64), u64> = HashMap::new();
    for q in alg.index_set.iter_points() {
        let pl = t.place(&q);
        *used.entry((pl[0], pl[1])).or_insert(0) += 1;
    }
    let (min_r, max_r) = minmax(used.keys().map(|k| k.0));
    let (min_c, max_c) = minmax(used.keys().map(|k| k.1));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "processor grid: rows {min_r}..{max_r}, cols {min_c}..{max_c}, {} PEs",
        used.len()
    );
    for r in min_r..=max_r {
        for c in min_c..=max_c {
            out.push(if used.contains_key(&(r, c)) { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

/// Renders the machine's links with their use by each dependence column:
/// the textual counterpart of the arrows in Figs. 4/5, including buffers
/// ("there is a buffer on the interconnection primitive \[1,0\]ᵀ…").
pub fn render_links(alg: &AlgorithmTriplet, t: &MappingMatrix, ic: &Interconnect) -> String {
    let mut out = String::new();
    let d = alg.dependence_matrix();
    let _ = writeln!(out, "machine primitives (columns of P):");
    for j in 0..ic.count() {
        let col = ic.p.col(j);
        let kind = if col.is_zero() {
            "static (data stays in the PE)"
        } else if col.linf_norm() > 1 {
            "LONG WIRE"
        } else {
            "unit link"
        };
        let _ = writeln!(out, "  P[{j}] = {col}  ({kind})");
    }
    let _ = writeln!(out, "dependence routing (SD = PK with buffers):");
    for (i, dep) in alg.deps.iter().enumerate() {
        let target = t.space.matvec(&d.col(i));
        let budget = d.col(i).dot(&t.schedule);
        match ic.route(&target, budget) {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "  d{} ({}): S*d = {target}, Pi*d = {budget}, hops = {}, buffers = {}",
                    i + 1,
                    dep.cause,
                    r.hops,
                    r.buffers
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  d{} ({}): S*d = {target}, Pi*d = {budget} -> UNROUTABLE",
                    i + 1,
                    dep.cause
                );
            }
        }
    }
    out
}

/// Renders a cycle-by-cycle activity strip: for each cycle, how many PEs
/// fire (the wavefront profile of the schedule).
pub fn render_activity_profile(alg: &AlgorithmTriplet, t: &MappingMatrix) -> String {
    let mut per_cycle: HashMap<i64, usize> = HashMap::new();
    for q in alg.index_set.iter_points() {
        *per_cycle.entry(t.time(&q)).or_insert(0) += 1;
    }
    let (lo, hi) = minmax(per_cycle.keys().copied());
    let peak = per_cycle.values().copied().max().unwrap_or(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "activity profile ({} cycles, peak {} PEs):",
        hi - lo + 1,
        peak
    );
    for cyc in lo..=hi {
        let n = per_cycle.get(&cyc).copied().unwrap_or(0);
        let bar_len = (n * 40).div_ceil(peak);
        let _ = writeln!(out, "  t={:>4} |{:<40}| {n}", cyc - lo, "#".repeat(bar_len));
    }
    out
}

/// Renders which block of the Fig. 4/5 layout each word-level `(j₁, j₂)`
/// pair owns, with the stationary result-bit positions marked — the paper's
/// "data z_ij are stationary and the final results are stored at the eastern
/// and southern boundary points of each small block".
pub fn render_block_structure(u: i64, p: i64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "block layout: {u}x{u} blocks of {p}x{p} bit cells");
    for block_row in 1..=u {
        for i1 in 1..=p {
            for _block_col in 1..=u {
                for i2 in 1..=p {
                    // Result bits of z(block_row, block_col) live on i1 = p
                    // (southern) or i2 = 1 (eastern data flow boundary).
                    let marker = if i1 == p || i2 == 1 { 'Z' } else { 'o' };
                    out.push(marker);
                }
                out.push(' ');
            }
            out.push('\n');
        }
        let _ = writeln!(out, "(blocks j1 = {block_row}, j2 = 1..{u})");
    }
    out
}

/// Renders a per-PE Gantt timeline: one row per processor (sorted by
/// coordinates, truncated to `max_rows`), one column per cycle, `#` where the
/// PE fires. The space-time picture of the schedule — Fig. 4's pipelining
/// made visible.
pub fn render_gantt(alg: &AlgorithmTriplet, t: &MappingMatrix, max_rows: usize) -> String {
    let mut firings: HashMap<IVec, Vec<i64>> = HashMap::new();
    let mut tmin = i64::MAX;
    let mut tmax = i64::MIN;
    for q in alg.index_set.iter_points() {
        let time = t.time(&q);
        tmin = tmin.min(time);
        tmax = tmax.max(time);
        firings.entry(t.place(&q)).or_default().push(time);
    }
    let mut pes: Vec<IVec> = firings.keys().cloned().collect();
    pes.sort();
    let shown = pes.len().min(max_rows);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gantt: {} PEs ({} shown) x {} cycles",
        pes.len(),
        shown,
        tmax - tmin + 1
    );
    for pe in pes.iter().take(shown) {
        let _ = write!(out, "{:>12} |", pe.to_string());
        let times = &firings[pe];
        for cyc in tmin..=tmax {
            out.push(if times.contains(&cyc) { '#' } else { '.' });
        }
        out.push('\n');
    }
    if pes.len() > shown {
        let _ = writeln!(out, "  ... {} more PEs", pes.len() - shown);
    }
    out
}

/// Renders the wavefront profile captured by a trace: one bar per cycle
/// showing how many points fired, from measured events rather than the
/// static schedule — the traced counterpart of [`render_activity_profile`].
pub fn render_trace_wavefront(rollup: &TraceRollup) -> String {
    let mut out = String::new();
    if rollup.wavefront.is_empty() {
        let _ = writeln!(out, "traced wavefront: no firings recorded");
        return out;
    }
    let lo = *rollup.wavefront.keys().next().unwrap();
    let hi = *rollup.wavefront.keys().next_back().unwrap();
    let peak = rollup.peak_wavefront().max(1);
    let _ = writeln!(
        out,
        "traced wavefront ({} cycles, peak {} firings):",
        hi - lo + 1,
        peak
    );
    for cyc in lo..=hi {
        let n = rollup.wavefront.get(&cyc).copied().unwrap_or(0);
        let bar_len = ((n as usize) * 40).div_ceil(peak as usize);
        let _ = writeln!(out, "  t={:>4} |{:<40}| {n}", cyc - lo, "#".repeat(bar_len));
    }
    out
}

/// Renders the per-PE load captured by a trace: one row per processor
/// (heaviest first, truncated to `max_rows`) with a bar proportional to its
/// fire count — the utilisation table behind Figs. 4/5.
pub fn render_trace_pe_load(rollup: &TraceRollup, max_rows: usize) -> String {
    let mut out = String::new();
    let mut pes: Vec<(&IVec, u64)> = rollup.pe_fires.iter().map(|(pe, &n)| (pe, n)).collect();
    // Heaviest first, coordinates as tie-break so output is deterministic.
    pes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let peak = pes.first().map(|&(_, n)| n).unwrap_or(1).max(1);
    let _ = writeln!(
        out,
        "traced PE load: {} PEs, {} firings, utilisation {:.3}",
        pes.len(),
        rollup.fire_total(),
        rollup.utilization()
    );
    let shown = pes.len().min(max_rows);
    for &(pe, n) in pes.iter().take(shown) {
        let bar_len = ((n as usize) * 40).div_ceil(peak as usize);
        let _ = writeln!(
            out,
            "{:>12} |{:<40}| {n}",
            pe.to_string(),
            "#".repeat(bar_len)
        );
    }
    if pes.len() > shown {
        let _ = writeln!(out, "  ... {} more PEs", pes.len() - shown);
    }
    out
}

/// Renders a side-by-side critical-PE heat map from two per-PE fault
/// vulnerability maps (non-masked fault counts per processor, as measured by
/// a fault campaign): one row per PE, most vulnerable first, with one bar
/// per design — the Fig. 4 vs Fig. 5 comparison of where faults hurt.
pub fn render_fault_heatmap(
    left_label: &str,
    left: &std::collections::BTreeMap<IVec, u64>,
    right_label: &str,
    right: &std::collections::BTreeMap<IVec, u64>,
    max_rows: usize,
) -> String {
    let mut pes: Vec<&IVec> = left.keys().chain(right.keys()).collect();
    pes.sort();
    pes.dedup();
    let count =
        |m: &std::collections::BTreeMap<IVec, u64>, pe: &IVec| m.get(pe).copied().unwrap_or(0);
    // Most vulnerable first, coordinates as tie-break for determinism.
    pes.sort_by(|a, b| {
        let (sa, sb) = (
            count(left, a) + count(right, a),
            count(left, b) + count(right, b),
        );
        sb.cmp(&sa).then_with(|| a.cmp(b))
    });
    let peak = pes
        .iter()
        .map(|pe| count(left, pe).max(count(right, pe)))
        .max()
        .unwrap_or(1)
        .max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault vulnerability heat map: {} PEs, non-masked faults per PE ({left_label} vs {right_label})",
        pes.len()
    );
    let shown = pes.len().min(max_rows);
    for pe in pes.iter().take(shown) {
        let (l, r) = (count(left, pe), count(right, pe));
        let bar = |n: u64| "#".repeat(((n as usize) * 20).div_ceil(peak as usize));
        let _ = writeln!(
            out,
            "{:>12} |{:<20}| {l:>3}  |{:<20}| {r:>3}",
            pe.to_string(),
            bar(l),
            bar(r)
        );
    }
    if pes.len() > shown {
        let _ = writeln!(out, "  ... {} more PEs", pes.len() - shown);
    }
    out
}

fn minmax(values: impl Iterator<Item = i64>) -> (i64, i64) {
    values.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_ir::{BoxSet, Dependence, DependenceSet, Predicate};
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
            "bit-level matmul",
        )
    }

    #[test]
    fn processor_grid_is_dense_u_p_square() {
        let (u, p) = (2i64, 3i64);
        let alg = matmul_structure(u, p);
        let g = render_processor_grid(&alg, &PaperDesign::TimeOptimal.mapping(p));
        // All (up)² slots used: no '.' in the body.
        assert!(g.contains("36 PEs"), "{g}");
        let body: String = g.lines().skip(1).collect();
        assert!(!body.contains('.'), "{g}");
        assert_eq!(g.lines().skip(1).count() as i64, u * p);
    }

    #[test]
    fn links_report_shows_fig4_buffer_and_long_wires() {
        let p = 3i64;
        let alg = matmul_structure(3, p);
        let s = render_links(
            &alg,
            &PaperDesign::TimeOptimal.mapping(p),
            &PaperDesign::TimeOptimal.interconnect(p),
        );
        assert!(s.contains("LONG WIRE"), "{s}");
        assert!(s.contains("buffers = 1"), "{s}");
        assert!(s.contains("static"), "{s}");
        assert!(!s.contains("UNROUTABLE"), "{s}");
    }

    #[test]
    fn links_report_flags_unroutable() {
        let p = 2i64;
        let alg = matmul_structure(2, p);
        let s = render_links(
            &alg,
            &PaperDesign::TimeOptimal.mapping(p),
            &PaperDesign::NearestNeighbour.interconnect(p),
        );
        assert!(s.contains("UNROUTABLE"), "{s}");
    }

    #[test]
    fn activity_profile_matches_cycle_count() {
        let (u, p) = (2i64, 2i64);
        let alg = matmul_structure(u, p);
        let s = render_activity_profile(&alg, &PaperDesign::TimeOptimal.mapping(p));
        assert!(s.contains("7 cycles"), "{s}");
        // One bar line per cycle.
        assert_eq!(s.lines().filter(|l| l.contains("|")).count(), 7);
    }

    #[test]
    fn gantt_shows_every_pe_firing_u_cubed_over_u2_times() {
        // Each PE executes exactly u computations (the j3 chain): u '#' per
        // row.
        let (u, p) = (2i64, 2i64);
        let alg = matmul_structure(u, p);
        let g = render_gantt(&alg, &PaperDesign::TimeOptimal.mapping(p), 100);
        assert!(g.contains("16 PEs"), "{g}");
        for line in g.lines().skip(1).filter(|l| l.contains('|')) {
            let marks = line.chars().filter(|&c| c == '#').count();
            assert_eq!(marks, u as usize, "{line}");
        }
    }

    #[test]
    fn gantt_truncates_rows() {
        let alg = matmul_structure(2, 2);
        let g = render_gantt(&alg, &PaperDesign::TimeOptimal.mapping(2), 3);
        assert!(g.contains("... 13 more PEs"), "{g}");
    }

    #[test]
    fn trace_wavefront_renders_one_bar_per_cycle() {
        use crate::trace::{RecordingSink, TraceEvent, TraceSink};
        let mut sink = RecordingSink::new();
        for (cycle, point) in [(0, [1, 1]), (0, [1, 2]), (2, [2, 1])] {
            sink.record(TraceEvent::PointFired {
                cycle,
                point: IVec::from(point),
                processor: IVec::from([0]),
            });
        }
        let s = render_trace_wavefront(sink.rollup());
        assert!(s.contains("3 cycles, peak 2"), "{s}");
        assert_eq!(s.lines().filter(|l| l.contains("|")).count(), 3, "{s}");
        // The empty cycle 1 renders a zero-length bar.
        assert!(s.contains("| 0"), "{s}");
    }

    #[test]
    fn trace_wavefront_handles_empty_rollup() {
        let s = render_trace_wavefront(&crate::trace::TraceRollup::default());
        assert!(s.contains("no firings"), "{s}");
    }

    #[test]
    fn trace_pe_load_sorts_heaviest_first_and_truncates() {
        use crate::trace::{RecordingSink, TraceEvent, TraceSink};
        let mut sink = RecordingSink::new();
        for (cycle, pe) in [(0, [0, 0]), (1, [0, 1]), (2, [0, 1]), (3, [1, 0])] {
            sink.record(TraceEvent::PointFired {
                cycle,
                point: IVec::from([cycle]),
                processor: IVec::from(pe),
            });
        }
        let s = render_trace_pe_load(sink.rollup(), 2);
        assert!(s.contains("3 PEs, 4 firings"), "{s}");
        assert!(s.contains("... 1 more PEs"), "{s}");
        // [0, 1] fired twice and must lead the table.
        let first_row = s.lines().nth(1).unwrap();
        assert!(first_row.contains("[0, 1]"), "{s}");
    }

    #[test]
    fn fault_heatmap_compares_designs_and_sorts_by_total_vulnerability() {
        let mut fig4 = std::collections::BTreeMap::new();
        let mut fig5 = std::collections::BTreeMap::new();
        fig4.insert(IVec::from([1, 1]), 4u64);
        fig4.insert(IVec::from([2, 1]), 1u64);
        fig5.insert(IVec::from([1, 1]), 2u64);
        fig5.insert(IVec::from([1, 2]), 3u64);
        let s = render_fault_heatmap("Fig. 4", &fig4, "Fig. 5", &fig5, 10);
        assert!(s.contains("3 PEs"), "{s}");
        assert!(s.contains("Fig. 4 vs Fig. 5"), "{s}");
        // [1, 1] has total 6 and must lead; zero counts render empty bars.
        let first_row = s.lines().nth(1).unwrap();
        assert!(first_row.contains("[1, 1]"), "{s}");
        assert!(first_row.contains("  4 "), "{s}");
        let truncated = render_fault_heatmap("a", &fig4, "b", &fig5, 1);
        assert!(truncated.contains("... 2 more PEs"), "{truncated}");
    }

    #[test]
    fn block_structure_marks_result_boundary() {
        let s = render_block_structure(2, 3);
        // Each block row prints p lines of u blocks; southern row all Z.
        assert!(s.contains("ZZZ"), "{s}");
        assert!(s.contains("Zoo"), "{s}");
    }
}
