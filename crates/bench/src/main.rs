//! `experiments` — regenerate every figure/equation-level result of the paper.
//!
//! ```text
//! cargo run -p bitlevel-bench --bin experiments [--release] [-- OPTIONS]
//!
//! OPTIONS:
//!   --exp <id>       run one experiment (e1 … e22); default: all
//!   --seed <u64>     seed for every randomized path (E17/E20's fault
//!                    campaigns and the faults/faultbatch sweeps); default:
//!                    the fixed reproducibility seed baked into the crate
//!   --trace <path>   capture the simulated runs of a traceable experiment
//!                    (e6, e7, e14, e15) to <path>: Chrome-trace JSON, or
//!                    CSV when the path ends in .csv; requires --exp
//!   --markdown       emit markdown tables (for EXPERIMENTS.md)
//!   --json           emit the record tables as JSON, one compact object
//!                    per table per line
//!   --sweep <name>   emit a CSV data series instead:
//!                    speedup | analysis | utilization | engine | wavefront |
//!                    frontier | faults | batch | cache | faultbatch |
//!                    partition | serve
//!                    (frontier, faults, batch, cache, faultbatch,
//!                    partition and serve also honour --json for a JSON
//!                    export; CI stores `--sweep batch --json` as
//!                    BENCH_batch.json, `--sweep cache --json` as
//!                    BENCH_cache.json, `--sweep faultbatch --json` as
//!                    BENCH_faultbatch.json, `--sweep partition --json` as
//!                    BENCH_partition.json and `--sweep serve --json` as
//!                    BENCH_serve.json)
//! ```

use bitlevel_bench::{run_all, run_experiment, sweeps, DEFAULT_SEED, TRACEABLE_IDS};
use bitlevel_systolic::{NullSink, RecordingSink};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut markdown = false;
    let mut json = false;
    let mut sweep: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                which = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--exp requires an id (e1..e22)");
                    std::process::exit(2);
                }));
            }
            "--markdown" => markdown = true,
            "--json" => json = true,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seed requires an unsigned 64-bit integer");
                        std::process::exit(2);
                    });
            }
            "--sweep" => {
                i += 1;
                sweep = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!(
                        "--sweep requires a name (speedup|analysis|utilization|engine|wavefront|frontier|faults|batch|cache|faultbatch|partition|serve)"
                    );
                    std::process::exit(2);
                }));
            }
            "--trace" => {
                i += 1;
                trace = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--trace requires an output path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(name) = sweep {
        let csv = match name.as_str() {
            "speedup" => {
                sweeps::speedup_csv(&sweeps::speedup_sweep(&sweeps::default_speedup_sizes()))
            }
            "analysis" => sweeps::analysis_time_csv(&sweeps::analysis_time_sweep(
                &sweeps::default_analysis_sizes(),
            )),
            "utilization" => sweeps::utilization_csv(&sweeps::utilization_sweep(
                &sweeps::default_speedup_sizes(),
            )),
            "engine" => sweeps::engine_csv(&sweeps::engine_sweep(&sweeps::default_engine_sizes())),
            "wavefront" => sweeps::wavefront_csv(&sweeps::wavefront_sweep(3, 3)),
            "frontier" => {
                let rows = sweeps::frontier_sweep(&sweeps::default_frontier_sizes());
                if json {
                    sweeps::frontier_json(&rows)
                } else {
                    sweeps::frontier_csv(&rows)
                }
            }
            "faults" => {
                let rows = sweeps::faults_sweep(&sweeps::default_fault_sizes(), seed);
                if json {
                    sweeps::faults_json(&rows)
                } else {
                    sweeps::faults_csv(&rows)
                }
            }
            "batch" => {
                let rows = sweeps::batch_sweep(
                    &sweeps::default_batch_widths(),
                    sweeps::default_batch_instances(),
                    seed,
                );
                if json {
                    sweeps::batch_json(&rows)
                } else {
                    sweeps::batch_csv(&rows)
                }
            }
            "cache" => {
                let rows = sweeps::cache_sweep(&sweeps::default_cache_sizes());
                if json {
                    sweeps::cache_json(&rows)
                } else {
                    sweeps::cache_csv(&rows)
                }
            }
            "faultbatch" => {
                let rows = sweeps::faultbatch_sweep(&sweeps::default_faultbatch_widths(), seed);
                if json {
                    sweeps::faultbatch_json(&rows)
                } else {
                    sweeps::faultbatch_csv(&rows)
                }
            }
            "partition" => {
                let rows = sweeps::partition_sweep(
                    &sweeps::default_partition_workers(),
                    sweeps::default_partition_instances(),
                    seed,
                );
                if json {
                    sweeps::partition_json(&rows)
                } else {
                    sweeps::partition_csv(&rows)
                }
            }
            "serve" => {
                let rows = sweeps::serve_sweep(&sweeps::default_serve_sizes());
                if json {
                    sweeps::serve_json(&rows)
                } else {
                    sweeps::serve_csv(&rows)
                }
            }
            other => {
                eprintln!(
                    "unknown sweep {other} (speedup|analysis|utilization|engine|wavefront|frontier|faults|batch|cache|faultbatch|partition|serve)"
                );
                std::process::exit(2);
            }
        };
        print!("{csv}");
        return;
    }

    let outcomes = match (which, &trace) {
        (Some(id), Some(path)) => {
            let id_lower = id.to_ascii_lowercase();
            if !TRACEABLE_IDS.contains(&id_lower.as_str()) {
                eprintln!(
                    "--trace only applies to the traceable experiments ({})",
                    TRACEABLE_IDS.join(", ")
                );
                std::process::exit(2);
            }
            let mut sink = RecordingSink::new();
            match run_experiment(&id_lower, seed, &mut sink) {
                Some(o) => {
                    let rendered = if path.ends_with(".csv") {
                        sink.to_csv()
                    } else {
                        sink.to_chrome_trace()
                    };
                    if let Err(e) = std::fs::write(path, rendered) {
                        eprintln!("cannot write trace to {path}: {e}");
                        std::process::exit(2);
                    }
                    eprintln!("trace: {} events -> {path}", sink.events().len());
                    vec![o]
                }
                None => {
                    eprintln!("unknown experiment id {id} (use e1..e22)");
                    std::process::exit(2);
                }
            }
        }
        (None, Some(_)) => {
            eprintln!(
                "--trace requires --exp with a traceable id ({})",
                TRACEABLE_IDS.join(", ")
            );
            std::process::exit(2);
        }
        (Some(id), None) => match run_experiment(&id, seed, &mut NullSink) {
            Some(o) => vec![o],
            None => {
                eprintln!("unknown experiment id {id} (use e1..e22)");
                std::process::exit(2);
            }
        },
        (None, None) => run_all(seed),
    };

    let mut all_ok = true;
    for o in &outcomes {
        all_ok &= o.passed();
        if json {
            println!("{}", o.table.to_json());
        } else if markdown {
            println!("{}", o.table.render_markdown());
        } else {
            println!("{}", o.table.render_text());
        }
    }
    if !json {
        println!(
            "{} experiment(s), {}",
            outcomes.len(),
            if all_ok {
                "all rows confirm the paper (modulo documented typos)"
            } else {
                "SOME ROWS FAILED"
            }
        );
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
