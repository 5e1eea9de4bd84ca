//! End-to-end behaviour of the NDJSON evaluation service through the public
//! facade: concurrent identical requests share one compile and return
//! byte-identical frames, deadlines surface as typed timeout frames on a
//! still-usable connection, malformed and oversized lines never kill a
//! worker, exploration and Monte Carlo campaigns stream progress before the
//! terminal result, and a graceful shutdown drains everything.

use bitlevel::serve::{
    serve, CampaignMode, DesignSpec, ErrorKind, Frame, Request, RequestEnvelope, ServeClient,
    ServeConfig,
};
use bitlevel::SimBackend;

/// A server on an ephemeral loopback port with a fast poll tick.
fn start() -> bitlevel::serve::ServerHandle {
    serve(ServeConfig {
        workers: 8,
        poll_interval_ms: 10,
        ..ServeConfig::default()
    })
    .expect("ephemeral-port server starts")
}

fn evaluate(id: u64) -> RequestEnvelope {
    RequestEnvelope {
        id,
        deadline_ms: None,
        request: Request::Evaluate {
            u: 3,
            p: 3,
            design: DesignSpec::TimeOptimal,
            backend: SimBackend::Compiled,
        },
    }
}

#[test]
fn eight_concurrent_identical_evaluates_cost_one_compile() {
    let handle = start();
    let addr = handle.local_addr();
    let env = evaluate(7);

    const CLIENTS: usize = 8;
    let lines: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let env = env.clone();
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let tx = client.request_collect(&env).expect("transaction completes");
                    assert!(tx.error().is_none(), "no error frame expected");
                    tx.terminal_line().expect("terminal frame").to_string()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });

    // Single-flight: all eight racing misses collapse onto one compile.
    let stats = handle.cache().snapshot();
    assert_eq!(
        stats.misses, 1,
        "exactly one compile for 8 identical requests"
    );

    // Bit-identical responses, and a Result frame echoing the request id.
    assert!(lines.iter().all(|l| *l == lines[0]), "responses diverged");
    assert!(matches!(
        Frame::parse(&lines[0]),
        Ok(Frame::Result { id: 7, .. })
    ));

    handle.shutdown();
    handle.join();
}

#[test]
fn zero_deadline_is_a_typed_timeout_on_a_surviving_connection() {
    let handle = start();
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");

    let mut env = evaluate(11);
    env.deadline_ms = Some(0);
    let tx = client.request_collect(&env).expect("transaction completes");
    let err = tx
        .error()
        .expect("a zero deadline must produce an error frame");
    assert_eq!(err.kind, ErrorKind::Timeout);
    assert!(matches!(
        Frame::parse(tx.terminal_line().unwrap()),
        Ok(Frame::Error { id: Some(11), .. })
    ));

    // The connection (and its worker) must survive the timeout.
    let ok = client
        .request_collect(&evaluate(12))
        .expect("connection still usable");
    assert!(ok.error().is_none());
    assert!(matches!(
        Frame::parse(ok.terminal_line().unwrap()),
        Ok(Frame::Result { id: 12, .. })
    ));

    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_and_oversized_lines_get_typed_errors_not_a_dead_worker() {
    let handle = start();
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");

    client.send_raw("this is not json").expect("send");
    let (_, frame) = client.next_frame().expect("read").expect("frame");
    assert!(matches!(
        frame,
        Frame::Error { id: None, ref error } if error.kind == ErrorKind::MalformedRequest
    ));

    let oversized = format!("{{\"pad\":\"{}\"}}", "x".repeat(2 * 1024 * 1024));
    client.send_raw(&oversized).expect("send");
    let (_, frame) = client.next_frame().expect("read").expect("frame");
    assert!(matches!(
        frame,
        Frame::Error { id: None, ref error } if error.kind == ErrorKind::FrameTooLarge
    ));

    // Same connection, same worker: a well-formed request still succeeds.
    let tx = client.request_collect(&evaluate(13)).expect("still usable");
    assert!(tx.error().is_none());

    handle.shutdown();
    handle.join();
}

#[test]
fn explore_and_monte_carlo_stream_progress_before_the_result() {
    let handle = start();
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");

    let explored = client
        .request_collect(&RequestEnvelope {
            id: 21,
            deadline_ms: None,
            request: Request::Explore {
                u: 2,
                p: 2,
                backend: SimBackend::Compiled,
            },
        })
        .expect("explore completes");
    assert!(explored.error().is_none());
    let points = explored
        .progress_frames()
        .filter(|p| p.get("stage").and_then(|s| s.as_str()) == Some("frontier-point"))
        .count();
    let designs = explored
        .result()
        .and_then(|r| r.get("designs"))
        .and_then(|d| d.as_i64())
        .expect("designs count");
    assert!(points > 0, "frontier points must stream as progress frames");
    assert_eq!(
        points as i64, designs,
        "one progress frame per frontier design"
    );

    let campaign = client
        .request_collect(&RequestEnvelope {
            id: 22,
            deadline_ms: None,
            request: Request::FaultCampaign {
                u: 2,
                p: 2,
                design: DesignSpec::TimeOptimal,
                mode: CampaignMode::MonteCarlo {
                    seed: 7,
                    trials: 130,
                    rate: 1e-2,
                },
            },
        })
        .expect("campaign completes");
    assert!(campaign.error().is_none());
    let chunks = campaign
        .progress_frames()
        .filter(|p| p.get("stage").and_then(|s| s.as_str()) == Some("campaign-chunk"))
        .count();
    assert_eq!(chunks, 3, "130 trials chunk as 64 + 64 + 2");
    let trials = campaign
        .result()
        .and_then(|r| r.get("trials"))
        .and_then(|t| t.as_i64());
    assert_eq!(trials, Some(130));

    handle.shutdown();
    handle.join();
}

fn campaign(id: u64, u: i64, p: usize, design: DesignSpec, mode: CampaignMode) -> RequestEnvelope {
    RequestEnvelope {
        id,
        deadline_ms: None,
        request: Request::FaultCampaign { u, p, design, mode },
    }
}

/// The named integer fields of a result payload.
fn counts(result: &bitlevel::serve::Json, keys: &[&str]) -> Vec<i64> {
    keys.iter()
        .map(|k| {
            result
                .get(k)
                .and_then(|v| v.as_i64())
                .unwrap_or_else(|| panic!("result field {k:?} missing"))
        })
        .collect()
}

#[test]
fn served_campaign_counts_equal_the_scalar_oracles() {
    // Served Monte Carlo counts, engine mismatches included, are the
    // scalar dual-engine campaign's chunks summed (chunk i seeded with
    // seed + i); served batched counts are the scalar sweep's.
    let handle = start();
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let mut id = 40;
    for design in [DesignSpec::TimeOptimal, DesignSpec::NearestNeighbour] {
        let paper = design.to_design();
        for (u, p, seed, trials, rate) in [
            (2i64, 3usize, 11u64, 128usize, 0.01),
            (2, 2, 3, 130, 0.05),
            (2, 3, 9_223_372_036_854_775_000, 70, 0.2),
        ] {
            id += 1;
            let mode = CampaignMode::MonteCarlo { seed, trials, rate };
            let tx = client
                .request_collect(&campaign(id, u, p, design, mode))
                .expect("campaign completes");
            let result = tx.result().expect("a result frame");
            let keys = ["masked", "detected", "sdc", "engine_mismatches", "trials"];
            let mut want = [0i64; 5];
            let (mut done, mut chunk) = (0usize, 0u64);
            let cache = bitlevel::CompileCache::new();
            while done < trials {
                let n = bitlevel::serve::protocol::MC_CHUNK.min(trials - done);
                let rep = bitlevel::monte_carlo_campaign_with_cache(
                    paper,
                    u as usize,
                    p,
                    seed + chunk,
                    n,
                    rate,
                    &cache,
                );
                for (w, got) in want.iter_mut().zip([
                    rep.masked,
                    rep.detected,
                    rep.sdc,
                    rep.engine_mismatches,
                    rep.trials,
                ]) {
                    *w += got as i64;
                }
                done += n;
                chunk += 1;
            }
            assert_eq!(
                counts(result, &keys),
                want,
                "{design:?} ({u},{p}) seed {seed}: {keys:?}"
            );
        }
        for (u, p) in [(2i64, 2usize), (2, 3)] {
            let scalar = bitlevel::fault::single_fault_campaign(paper, u as usize, p, 7);
            for width in [1usize, 7, 64, 1000] {
                id += 1;
                let mode = CampaignMode::Batched { seed: 7, width };
                let tx = client
                    .request_collect(&campaign(id, u, p, design, mode))
                    .expect("campaign completes");
                let result = tx.result().expect("a result frame");
                let width = width.min(64);
                let want = [
                    scalar.total,
                    scalar.total.div_ceil(width),
                    scalar.masked,
                    scalar.detected,
                    scalar.sdc,
                ]
                .map(|n| n as i64);
                let keys = ["total", "walks", "masked", "detected", "sdc"];
                assert_eq!(
                    counts(result, &keys),
                    want,
                    "{design:?} ({u},{p}) width {width}: {keys:?}"
                );
            }
        }
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn stats_report_the_cache_delta_and_shutdown_acks() {
    let handle = start();
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");

    client.request_collect(&evaluate(31)).expect("evaluate");
    let stats = client
        .request_collect(&RequestEnvelope {
            id: 32,
            deadline_ms: None,
            request: Request::Stats,
        })
        .expect("stats");
    let delta = stats
        .result()
        .and_then(|r| r.get("cache_delta"))
        .expect("cache_delta present");
    assert_eq!(
        delta.get("misses").and_then(|m| m.as_i64()),
        Some(1),
        "one compile since server start"
    );

    let ack = client
        .request_collect(&RequestEnvelope {
            id: 33,
            deadline_ms: None,
            request: Request::Shutdown,
        })
        .expect("shutdown ack");
    assert_eq!(
        ack.result()
            .and_then(|r| r.get("shutting_down"))
            .and_then(|b| b.as_bool()),
        Some(true)
    );
    handle.join();
}
