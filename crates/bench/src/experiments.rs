//! The experiment suite: every figure/equation-level result of the paper,
//! regenerated and compared against the paper's claim (index E1–E22 in
//! DESIGN.md).
//!
//! The traceable experiments (E6, E7, E14, E15) take a [`TraceSink`], so
//! `--trace <path>` can capture the simulated runs as they happen, and the
//! randomized ones (E17, E18, E20, E21) take a seed. [`run_experiment`]
//! takes both and hands each experiment what it reads: one global seed (the
//! binary's `--seed <u64>`, [`DEFAULT_SEED`] by default) reaches every
//! randomized path, and the sink every traceable one.

use crate::record::{Record, RecordTable};
use bitlevel_arith::{AddShift, CarrySave};
use bitlevel_core::DesignFlow;
use bitlevel_depanal::{
    compare_analyses, compose, enumerate_dependences, expand, instances_of_triplet, Expansion,
};
use bitlevel_fault::{monte_carlo_campaign_with_cache, single_fault_campaign_with_cache};
use bitlevel_ir::{BoxSet, WordLevelAlgorithm};
use bitlevel_linalg::{IMat, IVec};
use bitlevel_mapping::{find_optimal_schedule, word_level_total_time, Interconnect, PaperDesign};
use bitlevel_systolic::{
    critical_path, fanin_histogram, mean_producer_depth, run_clocked, simulate_mapped,
    CompiledSchedule, MatmulExpansionIICells, NoFaults, NullSink, PartitionedSchedule, SimBackend,
    TraceSink, WordLevelArray,
};

/// Result of one experiment: the record table plus pass/fail.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Experiment id, lowercase ("e1" … "e14").
    pub id: String,
    /// The paper-vs-measured table.
    pub table: RecordTable,
}

impl ExperimentOutcome {
    /// True iff every row confirms the paper.
    pub fn passed(&self) -> bool {
        self.table.all_ok()
    }
}

/// The 1-D recurrence of program (3.7) with `h₁ = h₂ = h₃ = 1`.
fn one_d_recurrence(u: i64) -> WordLevelAlgorithm {
    WordLevelAlgorithm::new(
        "1-D recurrence (3.7)",
        BoxSet::cube(1, 1, u),
        Some(IVec::from([1])),
        Some(IVec::from([1])),
        IVec::from([1]),
    )
}

/// E1 — Fig. 1c / eqs. (3.1)–(3.4): the add-shift arithmetic algorithm.
pub fn e1() -> ExperimentOutcome {
    let mut t = RecordTable::new("E1: add-shift multiplier — Fig. 1c, eqs. (3.1)-(3.4)");
    let p = 3;
    let alg = AddShift::new(p);

    // Dependence matrix D_as of (3.4).
    let expected = IMat::from_rows(&[&[1, 0, 1], &[0, 1, -1]]);
    t.push(Record::eq(
        "D_as (p=3)",
        format!("{expected}"),
        format!("{}", alg.dependences().matrix()),
    ));
    t.push(Record::eq(
        "|J_as| (p=3, Fig. 1c)",
        9u128,
        alg.index_set().cardinality(),
    ));
    t.push(Record::check(
        "uniform dependence algorithm",
        "all δ̄ uniform over J_as",
        alg.dependences().all_uniform_over(&alg.index_set()),
    ));

    // Broadcast elimination of (3.1) reproduces δ̄₁, δ̄₂ (the (3.1)→(3.3)
    // rewrite).
    let be = bitlevel_ir::eliminate_broadcasts(&broadcast_form_nest(p));
    let dirs: Vec<IVec> = be
        .new_dependences
        .iter()
        .map(|d| d.vector.clone())
        .collect();
    t.push(Record::check(
        "broadcast elimination (3.1)->(3.3)",
        "pipelines a along δ̄₁=[1,0], b along δ̄₂=[0,1]",
        dirs == vec![IVec::from([1, 0]), IVec::from([0, 1])],
    ));

    // Functional: all 64 products for p = 3 (the Fig. 1 example size).
    let mut ok = true;
    for a in 0..8u128 {
        for b in 0..8u128 {
            ok &= alg.multiply(a, b) == a * b;
        }
    }
    t.push(Record::check(
        "bit-level products, p=3 (exhaustive)",
        "s = a x b",
        ok,
    ));

    // The documented deviation: the literal boundary values lose row-end
    // carries (7 x 3 = 5 under the text as written).
    t.push(Record::eq(
        "paper-literal boundary: 7 x 3 (p=3)",
        5u128,
        AddShift::paper_literal(3).multiply(7, 3),
    ));

    ExperimentOutcome {
        id: "e1".into(),
        table: t,
    }
}

/// The broadcast form of program (3.1) used by E1.
fn broadcast_form_nest(p: usize) -> bitlevel_ir::LoopNest {
    use bitlevel_ir::{Access, AffineFn, OpKind, Statement};
    let n = 2;
    bitlevel_ir::LoopNest::new(
        BoxSet::cube(2, 1, p as i64),
        vec![Statement::new(
            Access::new("c", AffineFn::identity(n)),
            vec![
                Access::new("a", AffineFn::select_axes(n, &[1])),
                Access::new("b", AffineFn::select_axes(n, &[0])),
            ],
            OpKind::CarryBit,
        )],
    )
}

/// E2 — Fig. 3 / eqs. (3.8)–(3.9): the 1-D expansions.
pub fn e2() -> ExperimentOutcome {
    let mut t = RecordTable::new("E2: 1-D expansions — Fig. 3, eqs. (3.8)-(3.9)");
    let (u, p) = (4i64, 3usize);
    let word = one_d_recurrence(u);

    let expected_d = IMat::from_rows(&[
        &[1, 1, 1, 0, 0, 0, 0],
        &[0, 0, 0, 1, 0, 1, 0],
        &[0, 0, 0, 0, 1, -1, 2],
    ]);
    for (expn, label) in [(Expansion::I, "D_I (3.8)"), (Expansion::II, "D_II (3.9)")] {
        let alg = compose(&word, p, expn);
        t.push(Record::eq(
            &format!("{label} vectors"),
            format!("{expected_d}"),
            format!("{}", alg.dependence_matrix()),
        ));
        // Cross-check against ground truth on the expanded code.
        let inst = instances_of_triplet(&alg);
        let truth = enumerate_dependences(&expand(&word, p, expn));
        t.push(Record::check(
            &format!("{label} == exact analysis"),
            "Theorem 3.1 equals ground truth",
            inst == truth,
        ));
    }
    // Uniformity flips between expansions exactly as the paper states:
    // "Vector d̄₃ is uniform in Expansion I and d̄₆ is uniform in Expansion II."
    let a_i = compose(&word, p, Expansion::I);
    let a_ii = compose(&word, p, Expansion::II);
    t.push(Record::check(
        "d̄₃ uniform in I, not in II",
        "per text below (3.9)",
        a_i.deps.get(2).is_uniform_over(&a_i.index_set)
            && !a_ii.deps.get(2).is_uniform_over(&a_ii.index_set),
    ));
    t.push(Record::check(
        "d̄₆ uniform in II, not in I",
        "per text below (3.9)",
        a_ii.deps.get(5).is_uniform_over(&a_ii.index_set)
            && !a_i.deps.get(5).is_uniform_over(&a_i.index_set),
    ));

    ExperimentOutcome {
        id: "e2".into(),
        table: t,
    }
}

/// E3 — Example 3.1 / eqs. (3.12)–(3.13): bit-level matmul structure, and the
/// headline "no time-consuming general analysis needed" timing comparison.
pub fn e3() -> ExperimentOutcome {
    let mut t = RecordTable::new("E3: bit-level matmul — Example 3.1, eqs. (3.12)-(3.13)");
    let (u, p) = (3i64, 3usize);
    let word = WordLevelAlgorithm::matmul(u);
    let alg = compose(&word, p, Expansion::II);

    // Eq. (3.13): the 5-D index set.
    t.push(Record::eq(
        "|J| (3.13), u=p=3",
        (u as u128).pow(3) * (p as u128).pow(2),
        alg.index_set.cardinality(),
    ));
    // Eq. (3.12): the dependence matrix (as a column set; the paper orders
    // y,x,…, we emit x,y,…).
    let expected = IMat::from_rows(&[
        &[0, 1, 0, 0, 0, 0, 0],
        &[1, 0, 0, 0, 0, 0, 0],
        &[0, 0, 1, 0, 0, 0, 0],
        &[0, 0, 0, 1, 0, 1, 0],
        &[0, 0, 0, 0, 1, -1, 2],
    ]);
    t.push(Record::eq(
        "D (3.12)",
        format!("{expected}"),
        format!("{}", alg.dependence_matrix()),
    ));

    // Agreement and timing: compositional vs exhaustive vs Diophantine on a
    // size the baselines can finish (u=2, p=2 and u=2, p=3).
    for (uu, pp) in [(2i64, 2usize), (2, 3)] {
        let rep = compare_analyses(&WordLevelAlgorithm::matmul(uu), pp, Expansion::II);
        t.push(Record::check(
            &format!("agreement u={uu} p={pp}"),
            "Theorem 3.1 == enumeration == Diophantine",
            rep.matches_enumeration && rep.diophantine_matches,
        ));
        t.push(Record::info(
            &format!("derivation time u={uu} p={pp}"),
            "compositional << general",
            format!(
                "compose {:.1?} vs enumerate {:.1?} ({:.0}x) vs diophantine {:.1?} ({:.0}x)",
                rep.compose_time,
                rep.enumerate_time,
                rep.speedup_vs_enumeration(),
                rep.diophantine_time,
                rep.speedup_vs_diophantine()
            ),
            rep.speedup_vs_enumeration() > 1.0 && rep.speedup_vs_diophantine() > 1.0,
        ));
    }

    // Scaling: composition time is independent of |J| (structure for a huge
    // instance comes out without touching the index set).
    let t0 = std::time::Instant::now();
    let big = compose(&WordLevelAlgorithm::matmul(500), 64, Expansion::II);
    let dt = t0.elapsed();
    t.push(Record::info(
        "compose(u=500, p=64)",
        "O(n), independent of |J|",
        format!("{dt:.1?} for |J| = {}", big.index_set.cardinality()),
        dt.as_millis() < 100,
    ));

    ExperimentOutcome {
        id: "e3".into(),
        table: t,
    }
}

/// E4 — Theorem 4.5 / eq. (4.2): the time-optimal schedule.
pub fn e4() -> ExperimentOutcome {
    let mut t = RecordTable::new("E4: time-optimal schedule — Theorem 4.5, eq. (4.2)");
    let (u, p) = (2i64, 2i64);
    let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
    let s = PaperDesign::space(p);
    let best = find_optimal_schedule(&s, &alg, &Interconnect::paper_p(p), 2);
    match best {
        Some(found) => {
            t.push(Record::eq(
                "optimal Π (search over [-2,2]^5)",
                format!("{}", IVec::from([1, 1, 1, 2, 1])),
                format!("{}", found.pi),
            ));
            t.push(Record::eq(
                "optimal time",
                3 * (u - 1) + 3 * (p - 1) + 1,
                found.time,
            ));
            t.push(Record::info(
                "search space",
                "exhaustive over bounded schedules",
                format!(
                    "{} candidates, {} feasible",
                    found.examined, found.feasible_count
                ),
                found.feasible_count >= 1,
            ));
        }
        None => t.push(Record::check("search", "a feasible schedule exists", false)),
    }

    // The five conditions of Definition 4.1 for T of (4.2) at the paper's
    // size (u = p = 3).
    let alg3 = compose(&WordLevelAlgorithm::matmul(3), 3, Expansion::II);
    let rep = bitlevel_mapping::check_feasibility(
        &PaperDesign::TimeOptimal.mapping(3),
        &alg3,
        &Interconnect::paper_p(3),
    );
    t.push(Record::check(
        "Definition 4.1 conditions 1-5, u=p=3",
        "T of (4.2) is feasible",
        rep.is_feasible(),
    ));

    ExperimentOutcome {
        id: "e4".into(),
        table: t,
    }
}

/// E5 — eqs. (4.3)–(4.4): routing (`SD = PK`), `TD`, and the Fig. 4 buffer.
pub fn e5() -> ExperimentOutcome {
    let mut t = RecordTable::new("E5: interconnection and timing matrices — eqs. (4.3)-(4.4)");
    let p = 3i64;
    let alg = compose(&WordLevelAlgorithm::matmul(3), p as usize, Expansion::II);
    let d = alg.dependence_matrix();
    let tm = PaperDesign::TimeOptimal.mapping(p);

    // TD of (4.4) (our column order x,y,… = paper's with first two swapped).
    let expected_td = IMat::from_rows(&[
        &[0, p, 0, 1, 0, 1, 0],
        &[p, 0, 0, 0, 1, -1, 2],
        &[1, 1, 1, 2, 1, 1, 2],
    ]);
    t.push(Record::eq(
        "TD (4.4)",
        format!("{expected_td}"),
        format!("{}", tm.td(&d)),
    ));

    // SD = PK with the paper's P (4.3); Σk per column within Π·d̄.
    let ic = Interconnect::paper_p(p);
    let sd = tm.space.matmul(&d);
    let budgets: Vec<i64> = (0..d.cols()).map(|i| d.col(i).dot(&tm.schedule)).collect();
    match ic.solve_k(&sd, &budgets) {
        Ok(sol) => {
            t.push(Record::check(
                "SD = PK",
                "eq. (4.3) routable",
                ic.p.matmul(&sol.k) == sd,
            ));
            t.push(Record::check(
                "inequality (4.1)",
                "Σk ≤ Π·d̄ per column",
                (0..sol.k.cols()).all(|i| sol.k.col(i).iter().sum::<i64>() <= budgets[i]),
            ));
            // The buffer of Fig. 4 sits on d̄₄ (our column 3): Σk = 1 < Π·d̄₄ = 2.
            t.push(Record::eq(
                "buffer on d̄₄ link (Fig. 4)",
                1i64,
                sol.buffers[3],
            ));
        }
        Err(col) => t.push(Record::check(
            &format!("SD = PK (column {col} unroutable)"),
            "routable",
            false,
        )),
    }

    ExperimentOutcome {
        id: "e5".into(),
        table: t,
    }
}

/// E6 — Fig. 4 / eq. (4.5): the time-optimal architecture, measured. The
/// paper-size (u = p = 3) run is traced into `sink` (larger sizes run
/// untraced so the capture stays figure-sized).
pub fn e6<K: TraceSink>(sink: &mut K) -> ExperimentOutcome {
    let mut t = RecordTable::new("E6: Fig. 4 architecture — eq. (4.5), measured");
    for (u, p) in [(2i64, 2i64), (3, 3), (4, 3), (3, 4), (5, 2)] {
        let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
        let design = PaperDesign::TimeOptimal;
        let sched = CompiledSchedule::compile(&alg, &design.mapping(p), &design.interconnect(p));
        let run = if u == 3 && p == 3 {
            sched.mapped_report_faulted(sink, &NoFaults)
        } else {
            sched.mapped_report()
        };
        t.push(Record::eq(
            &format!("cycles u={u} p={p}"),
            3 * (u - 1) + 3 * (p - 1) + 1,
            run.cycles,
        ));
        t.push(Record::eq(
            &format!("PEs u={u} p={p}"),
            u * u * p * p,
            run.processors as i64,
        ));
        t.push(Record::check(
            &format!("legal u={u} p={p}"),
            "conflict-free + causal",
            run.conflict_free && run.causality_ok,
        ));
    }
    // Functional: the array really multiplies matrices (bit-exact).
    let flow = DesignFlow::matmul(4, 4);
    flow.verify_matmul_functionally();
    t.push(Record::check(
        "functional, u=p=4",
        "Z = X·Y through full-adder cells",
        true,
    ));

    ExperimentOutcome {
        id: "e6".into(),
        table: t,
    }
}

/// E7 — Fig. 5 / eqs. (4.6)–(4.8): the nearest-neighbour architecture. The
/// paper-size (u = p = 3) run is traced into `sink`.
pub fn e7<K: TraceSink>(sink: &mut K) -> ExperimentOutcome {
    let mut t = RecordTable::new("E7: Fig. 5 architecture — eqs. (4.6)-(4.8), measured");
    for (u, p) in [(2i64, 2i64), (3, 3), (4, 3)] {
        let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
        let design = PaperDesign::NearestNeighbour;
        let sched = CompiledSchedule::compile(&alg, &design.mapping(p), &design.interconnect(p));
        let run = if u == 3 && p == 3 {
            sched.mapped_report_faulted(sink, &NoFaults)
        } else {
            sched.mapped_report()
        };
        // NOTE: the paper prints t' = (2p-1)(u-1)+3(p-1)+1 in (4.8), but its
        // own Π'(ū−l̄)+1 expansion gives (2p+1)(u-1)+3(p-1)+1; we measure the
        // latter (see EXPERIMENTS.md).
        t.push(Record::eq(
            &format!("cycles u={u} p={p} (Π'-consistent)"),
            (2 * p + 1) * (u - 1) + 3 * (p - 1) + 1,
            run.cycles,
        ));
        t.push(Record::eq(
            &format!("PEs u={u} p={p}"),
            u * u * p * p,
            run.processors as i64,
        ));
        t.push(Record::check(
            &format!("legal u={u} p={p}"),
            "conflict-free + causal",
            run.conflict_free && run.causality_ok,
        ));
    }
    t.push(Record::eq(
        "longest wire (Fig. 5)",
        1i64,
        Interconnect::paper_p_prime().max_wire_length(),
    ));
    t.push(Record::check(
        "t' > t (cost of avoiding long wires)",
        "Fig. 5 slower than Fig. 4",
        (2..6).all(|p: i64| {
            (2..6).all(|u: i64| {
                PaperDesign::NearestNeighbour.total_time(u, p)
                    > PaperDesign::TimeOptimal.total_time(u, p)
            })
        }),
    ));

    ExperimentOutcome {
        id: "e7".into(),
        table: t,
    }
}

/// E8 — Section 4.2: bit-level vs word-level speedup (`O(p²)` / `O(p)`).
pub fn e8() -> ExperimentOutcome {
    let mut t = RecordTable::new("E8: bit-level vs word-level speedup — Section 4.2");
    // Measured speedups over a p sweep with u > p.
    let mut last_addshift = 0.0f64;
    let mut last_carrysave = 0.0f64;
    for p in [2i64, 4, 8, 16] {
        let u = 2 * p; // keep u > p as the paper assumes
        let bit = PaperDesign::TimeOptimal.total_time(u, p);
        let addshift = AddShift::new(p as usize);
        let carrysave = CarrySave::new(p as usize);
        let w_as = word_level_total_time(u, addshift.word_latency() as i64);
        let w_cs = word_level_total_time(u, carrysave.word_latency() as i64);
        let s_as = w_as as f64 / bit as f64;
        let s_cs = w_cs as f64 / bit as f64;
        t.push(Record::check(
            &format!("bit-level wins, p={p} u={u}"),
            "speedup > 1 for both word PEs",
            s_as > 1.0 && s_cs > 1.0,
        ));
        if last_addshift > 0.0 {
            // Doubling p: add-shift speedup should grow ~4x (Θ(p²)),
            // carry-save ~2x (Θ(p)); allow generous slack for the +1 terms.
            t.push(Record::info(
                &format!("speedup growth p={}→{p}", p / 2),
                "≈4x (add-shift), ≈2x (carry-save)",
                format!(
                    "{:.2}x, {:.2}x",
                    s_as / last_addshift,
                    s_cs / last_carrysave
                ),
                (2.5..6.0).contains(&(s_as / last_addshift))
                    && (1.4..3.0).contains(&(s_cs / last_carrysave)),
            ));
        }
        last_addshift = s_as;
        last_carrysave = s_cs;
    }
    // A fully simulated (not closed-form) instance: word-level array run
    // functionally and the bit-level array measured by the mapped simulator.
    let (u, p) = (4i64, 3i64);
    let addshift = AddShift::new(p as usize);
    let word = WordLevelArray::new(u as usize, &addshift);
    let x: Vec<Vec<u128>> = (0..u)
        .map(|i| (0..u).map(|j| ((i + j) % 4) as u128).collect())
        .collect();
    let y: Vec<Vec<u128>> = (0..u)
        .map(|i| (0..u).map(|j| ((2 * i + j) % 4) as u128).collect())
        .collect();
    let wr = word.run(&x, &y);
    let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
    let br = CompiledSchedule::compile(
        &alg,
        &PaperDesign::TimeOptimal.mapping(p),
        &PaperDesign::TimeOptimal.interconnect(p),
    )
    .mapped_report();
    t.push(Record::info(
        &format!("measured cycles u={u} p={p}"),
        "bit-level << word-level (add-shift PE)",
        format!("bit {} vs word {}", br.cycles, wr.bit_cycles),
        br.cycles < wr.bit_cycles,
    ));

    ExperimentOutcome {
        id: "e8".into(),
        table: t,
    }
}

/// E9 — Section 3.2 discussion: Expansion I vs Expansion II.
pub fn e9() -> ExperimentOutcome {
    let mut t = RecordTable::new("E9: Expansion I vs II — Section 3.2 discussion");
    let (u, p) = (3i64, 3usize);
    let word = one_d_recurrence(u);
    let a_i = compose(&word, p, Expansion::I);
    let a_ii = compose(&word, p, Expansion::II);

    // "Expansion II is slower than Expansion I because the computation at j̄
    // has to wait for the final results at j̄−h̄₃. In Expansion I, partial sum
    // bits in j̄−h̄₃ are sent to j̄ and takes less time."
    //
    // Measured two ways: (a) DAG critical path (I never longer — at small
    // sizes the tile-u drain dominates both and they can tie); (b) the mean
    // ASAP depth of the data carried by d̄₃, which is the paper's actual
    // argument: partial sums (I) are produced far shallower than final
    // results (II).
    let cp_i = critical_path(&a_i);
    let cp_ii = critical_path(&a_ii);
    t.push(Record::info(
        "critical path (1-D, u=3, p=3)",
        "Expansion I never longer",
        format!("I: {cp_i}, II: {cp_ii}"),
        cp_i <= cp_ii,
    ));
    let depth_i = mean_producer_depth(&a_i, 2).expect("d̄₃ active somewhere");
    let depth_ii = mean_producer_depth(&a_ii, 2).expect("d̄₃ active somewhere");
    t.push(Record::info(
        "mean ASAP depth of d̄₃ producers",
        "partial sums (I) ready earlier than final bits (II)",
        format!("I: {depth_i:.2}, II: {depth_ii:.2}"),
        depth_i < depth_ii,
    ));

    // "Expansion I is more computationally uniform because at all points,
    // except when j = u, at most three bits are to be summed; in contrast, in
    // Expansion II, four or five bits have to be summed on the hyperplane
    // i₁ = p."
    let h_i = fanin_histogram(&a_i);
    let h_ii = fanin_histogram(&a_ii);
    let wide = |h: &[u64]| h.iter().skip(4).sum::<u64>();
    t.push(Record::info(
        "points with ≥4 summed inputs",
        "fewer in Expansion I",
        format!(
            "I: {}, II: {} (histograms I {:?}, II {:?})",
            wide(&h_i),
            wide(&h_ii),
            h_i,
            h_ii
        ),
        wide(&h_i) < wide(&h_ii),
    ));

    // Wide points of Expansion I are confined to the jₙ = uₙ hyperplane.
    let set = &a_i.index_set;
    let confined = set.iter_points().all(|q| {
        let k = a_i.deps.active_at(&q, set).count();
        k < 4 || q[0] == set.upper()[0]
    });
    t.push(Record::check(
        "Expansion I wide points",
        "only on jₙ = uₙ",
        confined,
    ));

    // And for the matmul structure too (the paper's general claim).
    let m_i = compose(&WordLevelAlgorithm::matmul(2), 3, Expansion::I);
    let m_ii = compose(&WordLevelAlgorithm::matmul(2), 3, Expansion::II);
    t.push(Record::info(
        "critical path (matmul u=2, p=3)",
        "Expansion I never longer",
        format!("I: {}, II: {}", critical_path(&m_i), critical_path(&m_ii)),
        critical_path(&m_i) <= critical_path(&m_ii),
    ));
    let md_i = mean_producer_depth(&m_i, 2).expect("d̄₃ active");
    let md_ii = mean_producer_depth(&m_ii, 2).expect("d̄₃ active");
    t.push(Record::info(
        "mean d̄₃ producer depth (matmul)",
        "I shallower than II",
        format!("I: {md_i:.2}, II: {md_ii:.2}"),
        md_i < md_ii,
    ));

    ExperimentOutcome {
        id: "e9".into(),
        table: t,
    }
}

/// E10 — extension: lower-dimensional (linear) array synthesis, per the
/// design method the paper builds on (\[5,6,10\] map onto *lower dimensional*
/// arrays; Definition 4.1 already supports any `k`).
pub fn e10() -> ExperimentOutcome {
    use bitlevel_mapping::{
        check_feasibility, find_linear_array_mapping, linear_interconnect, processor_count,
        total_time, MappingMatrix,
    };
    let mut t = RecordTable::new("E10 (extension): linear bit-level array synthesis");
    let (u, p) = (2i64, 2usize);
    let alg = compose(&WordLevelAlgorithm::matmul(u), p, Expansion::II);
    let ic = linear_interconnect(Some(2));

    // The joint (S, Π) search is release-speed work; under debug builds the
    // known optimum is verified instead (same assertions, no search).
    let (s_row, pi, searched) = if cfg!(debug_assertions) {
        (
            IVec::from([0, 1, 2, -2, -1]),
            IVec::from([1, 1, 2, 2, 1]),
            false,
        )
    } else {
        match find_linear_array_mapping(&alg, &ic, 2, 3) {
            Some(d) => (
                IVec(d.mapping.space.row(0).to_vec()),
                d.mapping.schedule,
                true,
            ),
            None => {
                t.push(Record::check(
                    "search",
                    "a feasible linear design exists",
                    false,
                ));
                return ExperimentOutcome {
                    id: "e10".into(),
                    table: t,
                };
            }
        }
    };
    let tmap = MappingMatrix::new(IMat::from_flat(1, 5, s_row.as_slice().to_vec()), pi.clone());
    let rep = check_feasibility(&tmap, &alg, &ic);
    t.push(Record::check(
        "Definition 4.1 on the linear design",
        "feasible on a 1-D machine",
        rep.is_feasible(),
    ));
    let time = total_time(&pi, &alg.index_set);
    let pes = processor_count(&tmap.space, &alg.index_set);
    t.push(Record::info(
        "linear design (u=p=2)",
        "time 8, 7 PEs (S=[0,1,2,-2,-1], Pi=[1,1,2,2,1])",
        format!("time {time}, {pes} PEs, searched={searched}"),
        time == 8 && pes == 7,
    ));
    // Fundamental work bound and the dimension trade-off.
    t.push(Record::check(
        "work bound",
        "time x PEs >= |J| = 32",
        time as usize * pes >= 32,
    ));
    t.push(Record::check(
        "dimension trade-off",
        "1-D array slower than the 2-D time-optimal design (7 cycles)",
        time > 3 * (u - 1) + 3 * (p as i64 - 1) + 1,
    ));
    // Within |S| <= 1 nothing is feasible: the search must be honest.
    t.push(Record::check(
        "tight bound honesty",
        "no design with |S| <= 1",
        find_linear_array_mapping(&alg, &ic, 1, 2).is_none(),
    ));

    ExperimentOutcome {
        id: "e10".into(),
        table: t,
    }
}

/// E11 — ablation: which machine features the Fig. 4 design actually needs.
pub fn e11() -> ExperimentOutcome {
    use bitlevel_mapping::{dependence_only_bound, find_optimal_schedule};
    let mut t = RecordTable::new("E11 (ablation): machine features vs optimal schedule");
    let (u, p) = (2i64, 2i64);
    let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
    let s = PaperDesign::space(p);

    // The dependence-only lower bound: no machine can schedule faster.
    let lb = dependence_only_bound(&alg, 2).expect("positive schedules exist");
    t.push(Record::eq("dependence-only lower bound", 7i64, lb));

    let machines: [(&str, Interconnect, Option<i64>); 4] = [
        (
            "full P (long wires + diagonal)",
            Interconnect::paper_p(p),
            Some(7),
        ),
        (
            "P' (units + diagonal, no long wires)",
            Interconnect::paper_p_prime(),
            Some(9),
        ),
        (
            // No diagonal: d̄₆ = [1,−1] costs two mesh hops, pushing π₄ to 3.
            "4-mesh + static (no diagonal)",
            Interconnect::new(IMat::from_rows(&[&[0, 0, 1, -1, 0], &[1, -1, 0, 0, 0]])),
            Some(10),
        ),
        (
            // The paper's P has no negative unit links: without the diagonal
            // the drain d̄₆ = [1,−1] becomes unroutable entirely.
            "paper P minus the diagonal",
            Interconnect::new(IMat::from_rows(&[&[p, 0, 0, 1, 0], &[0, p, 0, 0, 1]])),
            None,
        ),
    ];
    for (name, ic, expect) in machines {
        let found = find_optimal_schedule(&s, &alg, &ic, 3);
        match expect {
            Some(time) => match found {
                Some(best) => t.push(Record::eq(
                    &format!("optimal time: {name}"),
                    time,
                    best.time,
                )),
                None => t.push(Record::check(
                    &format!("optimal time: {name}"),
                    "feasible",
                    false,
                )),
            },
            None => t.push(Record::check(
                name,
                "infeasible (d̄₆ unroutable)",
                found.is_none(),
            )),
        }
    }
    // The full machine achieves the dependence-only bound: Theorem 4.5's
    // "time optimal" is optimal among all linear schedules, not merely all
    // schedules this machine admits.
    t.push(Record::check(
        "Fig. 4 meets the schedule lower bound",
        "machine features cost nothing",
        lb == 7,
    ));

    ExperimentOutcome {
        id: "e11".into(),
        table: t,
    }
}

/// E12 — extension: exact carry accounting for the literal Expansion I
/// structure (the quantitative counterpart of the eq. (3.1) boundary note).
pub fn e12() -> ExperimentOutcome {
    use bitlevel_systolic::ExpansionIMatmul;
    let mut t =
        RecordTable::new("E12 (extension): Expansion I literal semantics, carry accounting");
    let (u, p) = (3usize, 3usize);
    let sim = ExpansionIMatmul::new(u, p);

    // Sparse operands chosen so every accumulation adds disjoint bits
    // (x(i,k) = 2^k, y = 1): no carries arise anywhere, the literal
    // structure is exact.
    let x_sparse: Vec<Vec<u128>> = (0..u)
        .map(|_| (0..u).map(|k| 1u128 << (k % p)).collect())
        .collect();
    let y_sparse: Vec<Vec<u128>> = (0..u).map(|_| (0..u).map(|_| 1u128).collect()).collect();
    let run = sim.run(&x_sparse, &y_sparse);
    t.push(Record::check(
        "sparse operands",
        "literal structure exact (no dropped carries)",
        run.is_exact() && sim.accounting_holds(&x_sparse, &y_sparse, &run),
    ));

    // Dense operands: carries drop, but every lost bit is accounted for
    // exactly: result + Σ 2^weight == true product (mod 2^{2p−1}).
    let x_dense: Vec<Vec<u128>> = (0..u)
        .map(|i| (0..u).map(|j| ((3 * i + 2 * j + 5) % 8) as u128).collect())
        .collect();
    let y_dense: Vec<Vec<u128>> = (0..u)
        .map(|i| (0..u).map(|j| ((5 * i + j + 3) % 8) as u128).collect())
        .collect();
    let run = sim.run(&x_dense, &y_dense);
    t.push(Record::info(
        "dense operands",
        "drops occur; accounting identity exact",
        format!(
            "{} carries dropped, identity holds = {}",
            run.dropped.len(),
            sim.accounting_holds(&x_dense, &y_dense, &run)
        ),
        !run.dropped.is_empty() && sim.accounting_holds(&x_dense, &y_dense, &run),
    ));

    // Uniformity (the Section 3.2 claim, counted): wide cells only on the
    // drain plane j₃ = u.
    t.push(Record::eq(
        "wide cells (only the drain plane)",
        (u * u * p * p) as u64,
        run.wide_cells,
    ));
    t.push(Record::eq(
        "narrow (3-input) cells",
        (u * u * (u - 1) * p * p) as u64,
        run.narrow_cells,
    ));

    ExperimentOutcome {
        id: "e12".into(),
        table: t,
    }
}

/// E13 — extension: the generic model-(3.5) architecture flow — convolution
/// and matrix–vector product run clocked (RTL) on searched schedules.
pub fn e13() -> ExperimentOutcome {
    use bitlevel_mapping::{check_feasibility, MappingMatrix};
    use bitlevel_systolic::{run_clocked, Model35Cells};
    let mut t = RecordTable::new("E13 (extension): generic model-(3.5) architectures, clocked");

    // Convolution.
    {
        let (outputs, taps, p) = (4i64, 3i64, 3usize);
        let word = WordLevelAlgorithm::convolution(outputs, taps);
        let alg = compose(&word, p, Expansion::II);
        let xs: Vec<u128> = (0..(outputs + taps - 1))
            .map(|k| (k as u128 % 3) + 1)
            .collect();
        let ws: Vec<u128> = (0..taps).map(|k| (k as u128 % 2) + 1).collect();
        let s = IMat::from_rows(&[&[p as i64, 0, 1, 0], &[0, 0, 0, 1]]);
        let ic = Interconnect::new(IMat::from_rows(&[
            &[p as i64, 0, 1, 0, 1],
            &[0, 0, 0, 1, -1],
        ]));
        let found = find_optimal_schedule(&s, &alg, &ic, 3);
        match found {
            Some(best) => {
                let tmap = MappingMatrix::new(s, best.pi.clone());
                let feas = check_feasibility(&tmap, &alg, &ic).is_feasible();
                let (xs2, ws2) = (xs.clone(), ws.clone());
                let mut cells = Model35Cells::new(
                    &word,
                    p,
                    &alg,
                    move |j| xs2[(j[0] + j[1] - 2) as usize],
                    move |j| ws2[(j[1] - 1) as usize],
                );
                let run = run_clocked(&alg, &tmap, &ic, &mut cells);
                let results = cells.extract_results(&run);
                let all_correct = results.iter().all(|(tail, &value)| {
                    let j1 = tail[0];
                    let want: u128 = (1..=taps)
                        .map(|j2| xs[(j1 + j2 - 2) as usize] * ws[(j2 - 1) as usize])
                        .sum();
                    value == want
                });
                t.push(Record::info(
                    "convolution (4 outputs, 3 taps, p=3)",
                    "searched schedule, legal run, correct samples",
                    format!(
                        "Pi = {}, {} cycles, legal = {}, correct = {all_correct}",
                        best.pi,
                        run.cycles,
                        run.is_legal()
                    ),
                    feas && run.is_legal() && all_correct,
                ));
            }
            None => t.push(Record::check(
                "convolution",
                "feasible schedule exists",
                false,
            )),
        }
    }

    // Matrix–vector product (no word-level reuse of the matrix operand).
    {
        let (m, k, p) = (3i64, 3i64, 3usize);
        let word = WordLevelAlgorithm::matvec(m, k);
        let alg = compose(&word, p, Expansion::II);
        t.push(Record::eq(
            "matvec structure columns (no d̄₂)",
            6usize,
            alg.deps.len(),
        ));
        let a: Vec<Vec<u128>> = (0..m)
            .map(|i| (0..k).map(|j| ((i + 2 * j) % 4) as u128).collect())
            .collect();
        let v: Vec<u128> = (0..k).map(|kk| ((kk % 3) + 1) as u128).collect();
        let s = IMat::from_rows(&[&[p as i64, 0, 1, 0], &[0, 0, 0, 1]]);
        let ic = Interconnect::new(IMat::from_rows(&[
            &[p as i64, 0, 1, 0, 1],
            &[0, 0, 0, 1, -1],
        ]));
        match find_optimal_schedule(&s, &alg, &ic, 3) {
            Some(best) => {
                let tmap = MappingMatrix::new(s, best.pi);
                let (a2, v2) = (a.clone(), v.clone());
                let mut cells = Model35Cells::new(
                    &word,
                    p,
                    &alg,
                    move |j| v2[(j[1] - 1) as usize],
                    move |j| a2[(j[0] - 1) as usize][(j[1] - 1) as usize],
                );
                let run = run_clocked(&alg, &tmap, &ic, &mut cells);
                let all_correct = cells.extract_results(&run).iter().all(|(tail, &value)| {
                    let i = (tail[0] - 1) as usize;
                    let want: u128 = (0..k as usize).map(|kk| a[i][kk] * v[kk]).sum();
                    value == want
                });
                t.push(Record::check(
                    "matvec (3x3, p=3) clocked run",
                    "legal and bit-correct",
                    run.is_legal() && all_correct,
                ));
            }
            None => t.push(Record::check("matvec", "feasible schedule exists", false)),
        }
    }

    ExperimentOutcome {
        id: "e13".into(),
        table: t,
    }
}

/// E14 — extension: the compiled static-schedule simulation backend — dense
/// point slots, CSR fire list, arena token store — bit-identical to the
/// interpreted engines and faster per executed run. The (u = p = 3) Fig. 4
/// compiled clocked run is traced into `sink` while its bit-identity
/// against the interpreted engine is being checked.
pub fn e14<K: TraceSink>(sink: &mut K) -> ExperimentOutcome {
    use bitlevel_systolic::{run_clocked, BitMatmulArray, MatmulExpansionIICells, SimBackend};
    let mut t = RecordTable::new("E14 (extension): compiled simulation backend");

    t.push(Record::check(
        "default backend",
        "DesignFlow simulates compiled, interpreted kept as oracle",
        SimBackend::default() == SimBackend::Compiled,
    ));

    let operands = |u: i64, p: i64| {
        let cap = BitMatmulArray::new(u as usize, p as usize).max_safe_entry();
        let x: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((3 * i + 5 * j + 1) as u128) % (cap + 1))
                    .collect()
            })
            .collect();
        let y: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((7 * i + j + 2) as u128) % (cap + 1))
                    .collect()
            })
            .collect();
        (x, y)
    };

    // Bit-identity on both paper designs: the full clocked run (outputs,
    // violations, in-flight peaks) and the mapped timing report.
    for (u, p) in [(2i64, 2i64), (3, 3)] {
        let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
        let (x, y) = operands(u, p);
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let tm = design.mapping(p);
            let ic = design.interconnect(p);
            let mut cells = MatmulExpansionIICells::new(u as usize, p as usize, &x, &y);
            let interp = run_clocked(&alg, &tm, &ic, &mut cells);
            let sched = CompiledSchedule::try_compile(&alg, &tm, &ic)
                .expect("the 7-column matmul structure compiles");
            let comp = if u == 3 && p == 3 && matches!(design, PaperDesign::TimeOptimal) {
                sched.execute_faulted(&cells, sink, &NoFaults)
            } else {
                sched.execute(&cells)
            };
            t.push(Record::check(
                &format!("clocked run identical, u={u} p={p}, {}", design.name()),
                "outputs + violations + peaks bit-equal",
                comp.cycles == interp.cycles
                    && comp.outputs == interp.outputs
                    && comp.violations == interp.violations
                    && comp.peak_in_flight == interp.peak_in_flight,
            ));
            let a = simulate_mapped(&alg, &tm, &ic);
            let b = sched.mapped_report();
            t.push(Record::check(
                &format!("mapped report identical, u={u} p={p}, {}", design.name()),
                "same report from the dense slots",
                a.cycles == b.cycles
                    && a.processors == b.processors
                    && a.computations == b.computations
                    && a.conflict_free == b.conflict_free
                    && a.causality_ok == b.causality_ok
                    && a.peak_parallelism == b.peak_parallelism
                    && a.link_traffic == b.link_traffic
                    && a.buffer_cycles == b.buffer_cycles,
            ));
        }
    }

    // Compile once, execute many: best-of-3 wall clock of the interpreted
    // engine vs the precompiled executor on the Fig. 4 design.
    let (u, p) = (4i64, 6i64);
    let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
    let design = PaperDesign::TimeOptimal;
    let (tm, ic) = (design.mapping(p), design.interconnect(p));
    let (x, y) = operands(u, p);
    let mut cells = MatmulExpansionIICells::new(u as usize, p as usize, &x, &y);
    let mut interp_ns = u128::MAX;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(run_clocked(&alg, &tm, &ic, &mut cells));
        interp_ns = interp_ns.min(t0.elapsed().as_nanos());
    }
    let sched = CompiledSchedule::try_compile(&alg, &tm, &ic)
        .expect("the 7-column matmul structure compiles");
    let mut exec_ns = u128::MAX;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(sched.execute(&cells));
        exec_ns = exec_ns.min(t0.elapsed().as_nanos());
    }
    let speedup = interp_ns as f64 / exec_ns.max(1) as f64;
    t.push(Record::info(
        &format!(
            "run_clocked wall time, u={u} p={p} (Fig. 4, |J|={})",
            sched.n_points()
        ),
        "compiled execute() faster than interpreted",
        format!(
            "interpreted {:.1}ms vs compiled {:.1}ms ({speedup:.1}x)",
            interp_ns as f64 / 1e6,
            exec_ns as f64 / 1e6
        ),
        speedup > 1.0,
    ));

    ExperimentOutcome {
        id: "e14".into(),
        table: t,
    }
}

/// E15 — extension: measured utilisation and wavefront profiles of the two
/// paper designs, captured through the trace layer from real clocked runs —
/// the observability counterpart of the Figs. 4/5 comparison. Both
/// paper-design runs are recorded into local sinks for profiling, and (when
/// `outer` is enabled) their full event streams are replayed into it.
pub fn e15<K: TraceSink>(outer: &mut K) -> ExperimentOutcome {
    use bitlevel_systolic::{BitMatmulArray, MatmulExpansionIICells, RecordingSink};
    let mut t =
        RecordTable::new("E15 (extension): traced wavefront/utilisation profiles — Fig. 4 vs 5");
    let (u, p) = (3i64, 3i64);
    let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
    let cap = BitMatmulArray::new(u as usize, p as usize).max_safe_entry();
    let x: Vec<Vec<u128>> = (0..u)
        .map(|i| {
            (0..u)
                .map(|j| ((3 * i + 5 * j + 1) as u128) % (cap + 1))
                .collect()
        })
        .collect();
    let y: Vec<Vec<u128>> = (0..u)
        .map(|i| {
            (0..u)
                .map(|j| ((7 * i + j + 2) as u128) % (cap + 1))
                .collect()
        })
        .collect();
    let cells = MatmulExpansionIICells::new(u as usize, p as usize, &x, &y);

    let mut profiles = Vec::new();
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let sched =
            CompiledSchedule::try_compile(&alg, &design.mapping(p), &design.interconnect(p))
                .expect("the 7-column matmul structure compiles");
        let mut rec = RecordingSink::new();
        let run = sched.execute_faulted(&cells, &mut rec, &NoFaults);
        t.push(Record::eq(
            &format!("traced firings, {}", design.name()),
            (u as u64).pow(3) * (p as u64).pow(2),
            rec.rollup().fire_total(),
        ));
        t.push(Record::eq(
            &format!("traced busy span, {}", design.name()),
            design.total_time(u, p),
            rec.rollup().cycle_span(),
        ));
        t.push(Record::check(
            &format!("traced run legal, {}", design.name()),
            "no violation events",
            rec.rollup().violations == 0 && run.is_legal(),
        ));
        t.push(Record::check(
            &format!("in-flight peaks agree, {}", design.name()),
            "rollup high-water marks == engine's peak_in_flight",
            rec.rollup().in_flight_peak == run.peak_in_flight,
        ));
        if K::ENABLED {
            for ev in rec.events() {
                outer.record(ev.clone());
            }
        }
        profiles.push(rec);
    }

    let (fig4, fig5) = (&profiles[0], &profiles[1]);
    t.push(Record::info(
        "measured utilisation",
        "Fig. 4 denser than Fig. 5 (same work, shorter span)",
        format!(
            "Fig. 4 {:.3} vs Fig. 5 {:.3}",
            fig4.rollup().utilization(),
            fig5.rollup().utilization()
        ),
        fig4.rollup().utilization() > fig5.rollup().utilization(),
    ));
    t.push(Record::info(
        "peak wavefront",
        "Fig. 4 at least as wide (same work in fewer cycles)",
        format!(
            "Fig. 4 {} vs Fig. 5 {}",
            fig4.rollup().peak_wavefront(),
            fig5.rollup().peak_wavefront()
        ),
        fig4.rollup().peak_wavefront() >= fig5.rollup().peak_wavefront(),
    ));
    let traversals = |r: &RecordingSink| r.rollup().link_occupancy.iter().sum::<u64>();
    t.push(Record::info(
        "total link traversals",
        "Fig. 5 pays more hops for unit-length wires",
        format!("Fig. 4 {} vs Fig. 5 {}", traversals(fig4), traversals(fig5)),
        traversals(fig5) >= traversals(fig4),
    ));

    ExperimentOutcome {
        id: "e15".into(),
        table: t,
    }
}

/// E16 — extension: Pareto design-space exploration over Definition 4.1,
/// searching space mappings `S`, schedules `Π` and both Section 4 machines
/// jointly. Rediscovers Theorem 4.5's `Π = [1,1,1,2,1]` at the time-minimal
/// end and the (4.6) schedule `Π' = [p,p,1,2,1]` as the best
/// nearest-neighbour design, verifies every frontier design bit-exactly on
/// the compiled backend against the interpreted engine, and measures the
/// branch-and-bound pruning against the exhaustive joint space.
pub fn e16() -> ExperimentOutcome {
    let mut t = RecordTable::new(
        "E16 (extension): Pareto (S, Pi, machine) design-space exploration — Def. 4.1 joint search",
    );
    let (u, p) = (3i64, 2i64);
    let flow = DesignFlow::matmul(u, p as usize);
    let (family, config) = flow.default_exploration();
    let ex = flow
        .explore(&family, &config)
        .expect("well-formed exploration inputs");

    t.push(Record::info(
        &format!("design space, u={u} p={p}"),
        "explorer covers the full joint space",
        format!(
            "{} spaces x {} machines x {} schedules = {} designs; frontier: {}",
            ex.stats.spaces,
            ex.stats.machines,
            ex.stats.schedule_candidates,
            ex.stats.exhaustive,
            ex.designs.len()
        ),
        !ex.designs.is_empty(),
    ));

    let tm = &ex.designs[0];
    t.push(Record::eq(
        "time-minimal schedule (Theorem 4.5)",
        format!("{:?}", [1, 1, 1, 2, 1]),
        format!("{:?}", tm.point.mapping.schedule.as_slice()),
    ));
    t.push(Record::eq(
        "time-minimal t == eq. (4.5) closed form",
        PaperDesign::TimeOptimal.total_time(u, p),
        tm.point.time,
    ));
    t.push(Record::eq(
        "optimum meets the dependence-only lower bound",
        ex.stats.lower_bound.expect("screened candidates exist"),
        tm.point.time,
    ));

    let nn = ex
        .designs
        .iter()
        .find(|d| d.point.max_wire_length <= 1)
        .expect("a nearest-neighbour design is on the frontier");
    t.push(Record::eq(
        "best nearest-neighbour schedule (eq. (4.6))",
        format!("{:?}", [p, p, 1, 2, 1]),
        format!("{:?}", nn.point.mapping.schedule.as_slice()),
    ));
    t.push(Record::eq(
        "nearest-neighbour t == (2p+1)(u-1)+3(p-1)+1",
        PaperDesign::NearestNeighbour.total_time(u, p),
        nn.point.time,
    ));

    t.push(Record::check(
        "frontier verification",
        "every design passes Def. 4.1 and is bit-exact compiled vs interpreted",
        ex.all_verified()
            && ex.designs.iter().all(|d| {
                d.report.backend_used == "compiled" && d.report.run.cycles == d.point.time
            }),
    ));

    let reduction = ex
        .stats
        .exhaustive
        .checked_div(ex.stats.full_checks)
        .unwrap_or(ex.stats.exhaustive);
    t.push(Record::info(
        "branch-and-bound pruning",
        ">=10x fewer full Def. 4.1 checks than exhaustive",
        format!(
            "{} examined vs {} exhaustive ({reduction}x; {} pairs pruned outright)",
            ex.stats.full_checks, ex.stats.exhaustive, ex.stats.pruned_pairs
        ),
        reduction >= 10,
    ));

    ExperimentOutcome {
        id: "e16".into(),
        table: t,
    }
}

/// E17 (extension) — fault injection & ABFT: the exhaustive single-fault
/// sweep (every index point × every signal bit, both engines, ABFT
/// classification) plus a seeded Monte Carlo multi-fault campaign, on both
/// paper designs. The resilience bar: under checksum protection no single
/// transient flip may escape as silent data corruption, and the interpreted
/// and compiled engines must classify every case identically.
pub fn e17(seed: u64) -> ExperimentOutcome {
    let mut t = RecordTable::new(
        "E17 (extension): fault injection & ABFT — exhaustive single-fault sweep + Monte Carlo",
    );
    let (u, p) = (2usize, 2usize);
    let cache = bitlevel_core::CompileCache::new();
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let r = single_fault_campaign_with_cache(design, u, p, seed, &cache);
        t.push(Record::eq(
            &format!("{design:?}: exhaustive cases = |J| x signal bits"),
            32 * 5,
            r.total,
        ));
        t.push(Record::check(
            &format!("{design:?}: classifications partition the injected set"),
            "masked + detected + sdc == total",
            r.classifications_partition(),
        ));
        t.push(Record::eq(
            &format!("{design:?}: silent data corruption"),
            0,
            r.sdc,
        ));
        t.push(Record::eq(
            &format!("{design:?}: engine classification mismatches"),
            0,
            r.engine_mismatches,
        ));
        t.push(Record::info(
            &format!("{design:?}: ABFT detection coverage"),
            "every non-masked single fault detected",
            format!(
                "{} masked + {} detected of {} ({:.1}% of corrupting faults caught)",
                r.masked,
                r.detected,
                r.total,
                100.0 * r.detected as f64 / (r.detected + r.sdc).max(1) as f64
            ),
            r.masked + r.detected == r.total,
        ));
        let mc = monte_carlo_campaign_with_cache(design, u, p, seed, 40, 0.01, &cache);
        t.push(Record::info(
            &format!("{design:?}: Monte Carlo, 40 trials at rate 0.01"),
            "multi-fault SDC measured (not asserted); engines agree",
            format!(
                "{} masked, {} detected, {} sdc; mean {:.1} faults/trial",
                mc.masked, mc.detected, mc.sdc, mc.mean_injected
            ),
            mc.engine_mismatches == 0 && mc.masked + mc.detected + mc.sdc == mc.trials,
        ));
    }
    ExperimentOutcome {
        id: "e17".into(),
        table: t,
    }
}

/// E18 (extension): the lane-packed batch engine — up to 64 independent
/// problem instances in the bit-lanes of a `u64`, one compiled schedule walk
/// per word. Measures instances/sec against lane width on both paper designs
/// (the `BENCH_batch.json` series) and holds the two bars the batch engine
/// exists for: every lane bit-exact against native arithmetic at every
/// width, and width 64 at least 8× the throughput of width 1 (one walk's
/// bookkeeping amortised over a full word of lanes).
pub fn e18(seed: u64) -> ExperimentOutcome {
    let mut t =
        RecordTable::new("E18 (extension): bit-sliced batch engine — instances/sec vs lane width");
    let rows = crate::sweeps::batch_sweep(
        &crate::sweeps::default_batch_widths(),
        crate::sweeps::default_batch_instances(),
        seed,
    );
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let d: Vec<_> = rows.iter().filter(|r| r.design == design.name()).collect();
        t.push(Record::check(
            &format!("{design:?}: every lane bit-exact at every width"),
            "extracted products == native arithmetic, all walks legal",
            !d.is_empty() && d.iter().all(|r| r.identical),
        ));
        let base = d.iter().find(|r| r.width == 1).expect("width-1 baseline");
        let top = d.iter().find(|r| r.width == 64).expect("width-64 row");
        t.push(Record::eq(
            &format!("{design:?}: walks at width 64 for 64 instances"),
            1,
            top.walks as i64,
        ));
        let gain = top.instances_per_sec / base.instances_per_sec.max(f64::MIN_POSITIVE);
        t.push(Record::info(
            &format!("{design:?}: width-64 throughput vs width-1"),
            ">= 8x (per-walk bookkeeping amortised over 64 lanes)",
            format!(
                "{gain:.1}x ({:.0} -> {:.0} instances/sec over {} cycles/walk)",
                base.instances_per_sec, top.instances_per_sec, top.cycles
            ),
            gain >= 8.0,
        ));
    }
    ExperimentOutcome {
        id: "e18".into(),
        table: t,
    }
}

/// E19 (extension): the content-hashed compile cache — the cold/warm
/// trajectory of schedule acquisition (the `BENCH_cache.json` series) plus
/// the pipeline-level bars the cache exists for: a warm `DesignFlow`
/// evaluation is bit-identical to the cold one with **zero** recompiles
/// (counter-asserted), and re-verifying every explorer frontier design is
/// compile-free. Timing rows are informational (wall-clock), correctness
/// rows are hard bars.
pub fn e19() -> ExperimentOutcome {
    let mut t =
        RecordTable::new("E19 (extension): content-hashed compile cache — cold vs warm trajectory");
    let rows = crate::sweeps::cache_sweep(&crate::sweeps::default_cache_sizes());
    t.push(Record::check(
        "acquisition trajectory at every size and design",
        "miss -> memory-hit -> disk-hit, one compile, artifacts bit-identical",
        !rows.is_empty() && rows.iter().all(|r| r.identical && r.compiles == 1),
    ));
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let d: Vec<_> = rows.iter().filter(|r| r.design == design.name()).collect();
        let worst_mem = d
            .iter()
            .map(|r| r.mem_speedup)
            .fold(f64::INFINITY, f64::min);
        let worst_disk = d
            .iter()
            .map(|r| r.disk_speedup)
            .fold(f64::INFINITY, f64::min);
        t.push(Record::info(
            &format!("{design:?}: warm memory hit vs cold compile"),
            "warm beats cold at every size (a hit skips compile + persist)",
            format!("min {worst_mem:.0}x in-memory, min {worst_disk:.1}x from disk"),
            worst_mem > 1.0,
        ));
    }

    // Pipeline-level: warm evaluation is recompile-free and bit-identical.
    let flow = DesignFlow::matmul(3, 3);
    let cold = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
    let warm = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
    let stats = flow.cache().stats();
    t.push(Record::eq(
        "compiles across a cold + a warm Fig. 4 evaluation",
        1,
        stats.compiles() as i64,
    ));
    t.push(Record::check(
        "warm report bit-identical to cold",
        "zero field divergences, same backend, same feasibility",
        warm.run.divergences_from(&cold.run).is_empty()
            && warm.backend_used == cold.backend_used
            && warm.feasible == cold.feasible,
    ));

    // Explorer: re-verifying the whole frontier must not compile anything.
    let flow = DesignFlow::matmul(2, 2);
    let (family, config) = flow.default_exploration();
    let ex = flow.explore(&family, &config).expect("well-formed inputs");
    let after_explore = flow.cache().stats().compiles();
    let alg = flow.bit_level_structure();
    for d in &ex.designs {
        flow.evaluate_structure(
            "re-verify",
            &alg,
            &d.point.mapping,
            &d.point.interconnect,
            Some(d.point.time),
        );
    }
    t.push(Record::eq(
        "recompiles while re-verifying the whole explorer frontier",
        0,
        (flow.cache().stats().compiles() - after_explore) as i64,
    ));
    ExperimentOutcome {
        id: "e19".into(),
        table: t,
    }
}

/// E20 (extension): lane-packed fault campaigns — the exhaustive
/// single-fault sweep of E17 packed up to 64 distinct fault cases into the
/// lanes of one word-wide walk (the `BENCH_faultbatch.json` series). The
/// hard bars are correctness: at every width the batched campaign's
/// classifications are identical, case for case, to the scalar dual-engine
/// campaign, and the ABFT zero-SDC result survives the packing. The
/// throughput row is the point of the exercise: width 64 must beat width 1
/// by at least 8x on fault-cases/sec.
pub fn e20(seed: u64) -> ExperimentOutcome {
    let mut t = RecordTable::new(
        "E20 (extension): lane-packed fault campaigns — fault-cases/sec vs lane width",
    );
    let rows = crate::sweeps::faultbatch_sweep(&crate::sweeps::default_faultbatch_widths(), seed);
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let d: Vec<_> = rows
            .iter()
            .filter(|r| r.design == format!("{design:?}"))
            .collect();
        t.push(Record::check(
            &format!("{design:?}: batched == scalar, case for case, at every width"),
            "every lane's classification equals both scalar engines' verdict",
            !d.is_empty() && d.iter().all(|r| r.identical),
        ));
        t.push(Record::check(
            &format!("{design:?}: zero SDC preserved at every width"),
            "masked + detected == cases, sdc == 0",
            d.iter()
                .all(|r| r.sdc == 0 && r.masked + r.detected == r.cases),
        ));
        let base = d
            .iter()
            .find(|r| r.width == 1)
            .expect("width-1 baseline row");
        let top = d.iter().find(|r| r.width == 64).expect("width-64 row");
        t.push(Record::eq(
            &format!("{design:?}: walks at width 64"),
            top.cases.div_ceil(64) as i64,
            top.walks as i64,
        ));
        let gain = top.cases_per_sec / base.cases_per_sec.max(f64::MIN_POSITIVE);
        t.push(Record::info(
            &format!("{design:?}: width-64 fault throughput vs width-1"),
            ">= 8x (one walk carries 64 fault cases)",
            format!(
                "{gain:.1}x ({:.0} -> {:.0} cases/sec; scalar dual-engine baseline {:.0})",
                base.cases_per_sec, top.cases_per_sec, top.scalar_cases_per_sec
            ),
            gain >= 8.0,
        ));
    }
    ExperimentOutcome {
        id: "e20".into(),
        table: t,
    }
}

/// E21 (extension): LSGP partitioned execution — the unbounded virtual PE
/// array folded onto a fixed pool of physical workers (the
/// `BENCH_partition.json` series). The hard bars are correctness and the
/// cost model: at every pool size the partitioned engine is bit-identical
/// to the compiled engine, the balanced makespan `Σ_c ⌈f_c/k⌉` is
/// non-increasing in workers, a (u, p) = (8, 4) design — 1024 virtual PEs —
/// executes bit-identically to the interpreted oracle on a pool of 8, and
/// the budgeted explorer emits a frontier respecting the physical budget.
pub fn e21(seed: u64) -> ExperimentOutcome {
    let mut t = RecordTable::new(
        "E21 (extension): LSGP partitioned execution — instances/sec vs physical workers",
    );
    let rows = crate::sweeps::partition_sweep(
        &crate::sweeps::default_partition_workers(),
        crate::sweeps::default_partition_instances(),
        seed,
    );
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let d: Vec<_> = rows
            .iter()
            .filter(|r| r.design == format!("{design:?}"))
            .collect();
        t.push(Record::check(
            &format!("{design:?}: partitioned == compiled at every pool size"),
            "legal runs, identical outputs/violations/cycles, products native-exact",
            !d.is_empty() && d.iter().all(|r| r.identical),
        ));
        t.push(Record::check(
            &format!("{design:?}: balanced makespan non-increasing in workers"),
            "sum_c ceil(f_c/k) weakly improves as the pool grows",
            d.windows(2)
                .all(|w| w[1].balanced_makespan <= w[0].balanced_makespan),
        ));
        let base = d
            .iter()
            .find(|r| r.workers == 1)
            .expect("workers-1 baseline row");
        let top = d.iter().max_by_key(|r| r.workers).expect("widest pool row");
        let gain = top.instances_per_sec / base.instances_per_sec.max(f64::MIN_POSITIVE);
        t.push(Record::info(
            &format!("{design:?}: throughput at {} workers vs 1", top.workers),
            "positive throughput at every pool size",
            format!(
                "{gain:.2}x ({:.0} -> {:.0} instances/sec)",
                base.instances_per_sec, top.instances_per_sec
            ),
            base.instances_per_sec > 0.0 && top.instances_per_sec > 0.0,
        ));
    }

    // The acceptance bar: a (u, p) = (8, 4) Fig. 4 design — 1024 virtual
    // PEs — executes bit-identically to the interpreted oracle on a pool of
    // 8 physical workers, strictly smaller than the virtual array.
    let (u, p) = (8usize, 4usize);
    let word = WordLevelAlgorithm::matmul(u as i64);
    let alg = compose(&word, p, Expansion::II);
    let design = PaperDesign::TimeOptimal;
    let tm = design.mapping(p as i64);
    let ic = design.interconnect(p as i64);
    let (x, y) = bitlevel_fault::operand_matrices(u, p, seed);
    let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
    let oracle = run_clocked(&alg, &tm, &ic, &mut cells);
    let sched = CompiledSchedule::try_compile(&alg, &tm, &ic)
        .expect("the 7-column matmul structure compiles");
    let part = PartitionedSchedule::try_new(std::sync::Arc::new(sched), 8)
        .expect("paper schedules are causal");
    let prun = part.schedule().execute(&cells);
    let stats = part.stats();
    t.push(Record::eq(
        "virtual PEs of the (8, 4) Fig. 4 array",
        1024,
        stats.virtual_pes as i64,
    ));
    t.push(Record::check(
        "physical pool strictly smaller than the virtual array",
        "8 workers < 1024 virtual PEs, every PE owned by exactly one shard",
        stats.workers == 8 && stats.workers < stats.virtual_pes,
    ));
    t.push(Record::check(
        "(8, 4) partitioned run bit-identical to the interpreted oracle",
        "outputs, violations, cycles and in-flight peak all equal",
        prun.outputs == oracle.outputs
            && prun.violations == oracle.violations
            && prun.cycles == oracle.cycles
            && prun.peak_in_flight == oracle.peak_in_flight,
    ));

    // The budgeted explorer: under the partitioned backend the worker count
    // bounds the physical axis, and every frontier point must respect it.
    let flow = DesignFlow::matmul(2, 2).with_backend(SimBackend::Partitioned { workers: 8 });
    let (family, config) = flow.default_exploration();
    let ex = flow.explore(&family, &config).expect("well-formed inputs");
    t.push(Record::check(
        "budgeted explorer frontier respects max_physical_pes",
        "at least one verified point, every point's physical_pes <= 8",
        !ex.designs.is_empty()
            && ex.all_verified()
            && ex.designs.iter().all(|d| d.point.physical_pes <= 8),
    ));
    ExperimentOutcome {
        id: "e21".into(),
        table: t,
    }
}

/// E22 (extension): the long-running NDJSON evaluation service
/// (`bitlevel-serve`) sharing one compile cache across concurrent requests
/// (the `BENCH_serve.json` series). The hard bars: eight concurrent
/// identical `Evaluate` requests cost exactly one compile (counter-asserted
/// through the cache-stats snapshot) and return byte-identical terminal
/// frames; a zero deadline comes back as a typed `timeout` error frame on a
/// still-usable connection; and on every sweep row the warm (cache-shared)
/// path sustains positive throughput with one compile per server session.
pub fn e22() -> ExperimentOutcome {
    use bitlevel_serve::{
        serve, DesignSpec, ErrorKind, Frame, Request, RequestEnvelope, ServeClient, ServeConfig,
    };

    let mut t = RecordTable::new(
        "E22 (extension): NDJSON evaluation service — concurrent requests over one compile cache",
    );

    // Direct scenario: one server, eight concurrent identical Evaluate
    // requests racing the cold cache. Single-flight compilation must
    // collapse them to one compile, and every terminal frame must be
    // byte-identical.
    let handle = serve(ServeConfig {
        workers: 8,
        poll_interval_ms: 10,
        ..ServeConfig::default()
    })
    .expect("ephemeral-port server starts");
    let addr = handle.local_addr();
    let envelope = RequestEnvelope {
        id: 22,
        deadline_ms: None,
        request: Request::Evaluate {
            u: 3,
            p: 3,
            design: DesignSpec::TimeOptimal,
            backend: SimBackend::Compiled,
        },
    };
    const CLIENTS: usize = 8;
    let lines: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let env = envelope.clone();
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let tx = client.request_collect(&env).expect("transaction completes");
                    tx.terminal_line().expect("terminal frame").to_string()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let stats = handle.cache().snapshot();
    t.push(Record::eq(
        "compiles for 8 concurrent identical Evaluate requests",
        1,
        stats.misses as i64,
    ));
    t.push(Record::check(
        "all 8 terminal result frames byte-identical",
        "same request -> same bytes, regardless of which worker/cache path served it",
        lines.len() == CLIENTS && lines.iter().all(|l| *l == lines[0]),
    ));
    t.push(Record::check(
        "the raced result is a Result frame echoing the request id",
        "frame parses, id == 22, payload present",
        matches!(Frame::parse(&lines[0]), Ok(Frame::Result { id: 22, .. })),
    ));

    // A zero deadline expires before any work starts: the server must answer
    // with a typed timeout error frame and keep the connection usable.
    let mut client = ServeClient::connect(addr).expect("connect");
    let timed_out = client
        .request_collect(&RequestEnvelope {
            id: 23,
            deadline_ms: Some(0),
            request: envelope.request.clone(),
        })
        .expect("transaction completes");
    t.push(Record::check(
        "deadline_ms = 0 yields a typed timeout frame",
        "Error frame, kind == timeout, id echoed",
        timed_out.error().map(|e| e.kind) == Some(ErrorKind::Timeout)
            && matches!(
                Frame::parse(timed_out.terminal_line().unwrap_or("")),
                Ok(Frame::Error { id: Some(23), .. })
            ),
    ));
    let after_timeout = client
        .request_collect(&envelope)
        .expect("connection survives the timeout");
    t.push(Record::check(
        "connection survives the timeout and serves the next request",
        "the follow-up Evaluate returns the same bytes as the raced requests",
        after_timeout.terminal_line() == Some(lines[0].as_str()),
    ));
    drop(client);
    handle.shutdown();
    handle.join();

    // The sweep series: per (design, u, p), one compile per server session
    // and byte-identical warm responses, with the warm multi-client path
    // out-throughputting the cold first request.
    let rows = crate::sweeps::serve_sweep(&crate::sweeps::default_serve_sizes());
    t.push(Record::check(
        "sweep: one compile per server session on every row",
        "cache misses == 1 for each (design, u, p) server",
        !rows.is_empty() && rows.iter().all(|r| r.compiles == 1),
    ));
    t.push(Record::check(
        "sweep: warm responses byte-identical to the cold response",
        "every warm terminal line equals the cold line, on every row",
        rows.iter().all(|r| r.identical),
    ));
    let worst = rows
        .iter()
        .map(|r| r.throughput_gain)
        .fold(f64::INFINITY, f64::min);
    let best = rows.iter().map(|r| r.throughput_gain).fold(0.0, f64::max);
    t.push(Record::info(
        "sweep: warm requests/sec vs the cold first request",
        "> 1x on every row (the compile is paid once, then amortised)",
        format!("gain {worst:.1}x .. {best:.1}x across {} rows", rows.len()),
        worst > 1.0,
    ));
    ExperimentOutcome {
        id: "e22".into(),
        table: t,
    }
}

const ALL_IDS: [&str; 22] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22",
];

/// The experiments that record into the sink [`run_experiment`] takes.
pub const TRACEABLE_IDS: [&str; 4] = ["e6", "e7", "e14", "e15"];

/// The seed every randomized path uses when none is given, so unseeded runs
/// stay reproducible.
pub const DEFAULT_SEED: u64 = 0x1CC7_1993;

/// Runs one experiment by id ("e1" … "e22"). `seed` reaches every
/// randomized path (E17, E18, E20 and E21 draw seeded operands; the other
/// experiments are deterministic and ignore it), and the experiments in
/// [`TRACEABLE_IDS`] emit their simulated runs' event streams into `sink`
/// (every other id records nothing).
pub fn run_experiment<K: TraceSink>(
    id: &str,
    seed: u64,
    sink: &mut K,
) -> Option<ExperimentOutcome> {
    match id.to_ascii_lowercase().as_str() {
        "e1" => Some(e1()),
        "e2" => Some(e2()),
        "e3" => Some(e3()),
        "e4" => Some(e4()),
        "e5" => Some(e5()),
        "e6" => Some(e6(sink)),
        "e7" => Some(e7(sink)),
        "e8" => Some(e8()),
        "e9" => Some(e9()),
        "e10" => Some(e10()),
        "e11" => Some(e11()),
        "e12" => Some(e12()),
        "e13" => Some(e13()),
        "e14" => Some(e14(sink)),
        "e15" => Some(e15(sink)),
        "e16" => Some(e16()),
        "e17" => Some(e17(seed)),
        "e18" => Some(e18(seed)),
        "e19" => Some(e19()),
        "e20" => Some(e20(seed)),
        "e21" => Some(e21(seed)),
        "e22" => Some(e22()),
        _ => None,
    }
}

/// Runs the whole suite in order, untraced, with `seed` for the randomized
/// experiments.
pub fn run_all(seed: u64) -> Vec<ExperimentOutcome> {
    ALL_IDS
        .iter()
        .map(|id| run_experiment(id, seed, &mut NullSink).expect("known id"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_confirms_the_paper() {
        for outcome in run_all(DEFAULT_SEED) {
            assert!(
                outcome.passed(),
                "experiment {} failed:\n{}",
                outcome.id,
                outcome.table.render_text()
            );
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("e42", DEFAULT_SEED, &mut NullSink).is_none());
    }

    #[test]
    fn traceable_ids_are_known() {
        for id in TRACEABLE_IDS {
            assert!(ALL_IDS.contains(&id), "{id} missing from ALL_IDS");
        }
    }

    #[test]
    fn e17_is_seed_deterministic_and_holds_at_any_seed() {
        let a = e17(1);
        let b = e17(1);
        assert!(a.passed(), "{}", a.table.render_text());
        assert_eq!(a.table.render_text(), b.table.render_text());
        // The zero-SDC and engine-agreement bars are seed-independent.
        let c = e17(0xDEAD_BEEF);
        assert!(c.passed(), "{}", c.table.render_text());
    }

    #[test]
    fn traced_e6_emits_a_valid_chrome_trace_of_the_fig4_run() {
        use bitlevel_json::Json;
        use bitlevel_systolic::RecordingSink;
        let mut sink = RecordingSink::new();
        let outcome = e6(&mut sink);
        assert!(outcome.passed(), "{}", outcome.table.render_text());
        // The traced size is u = p = 3: |J| = u³p² = 243 firings over the
        // 13 cycles of eq. (4.5).
        assert_eq!(sink.rollup().fire_total(), 243);
        assert_eq!(sink.rollup().cycle_span(), 13);
        let json = Json::parse(&sink.to_chrome_trace()).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let fires = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(fires, 243, "one complete event per fired point");
    }

    #[test]
    fn traced_and_untraced_experiments_agree() {
        use bitlevel_systolic::RecordingSink;
        for id in ["e6", "e7"] {
            let mut sink = RecordingSink::new();
            let traced = run_experiment(id, DEFAULT_SEED, &mut sink).expect("known id");
            let plain = run_experiment(id, DEFAULT_SEED, &mut NullSink).expect("known id");
            assert_eq!(traced.passed(), plain.passed(), "{id}");
            assert!(!sink.events().is_empty(), "{id} must record events");
        }
    }

    #[test]
    fn e15_replays_both_design_profiles_into_the_outer_sink() {
        use bitlevel_systolic::{RecordingSink, TraceEvent};
        let mut sink = RecordingSink::new();
        let outcome = e15(&mut sink);
        assert!(outcome.passed(), "{}", outcome.table.render_text());
        // Both designs' runs land in the outer sink: 2 × |J| firings.
        assert_eq!(sink.rollup().fire_total(), 2 * 243);
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::TokenConsumed { .. })));
    }
}
