//! Same answers, as a test: the frames an in-process server streams for a
//! fixed matrix of fault-campaign requests, progress frames included, must
//! equal the committed NDJSON golden byte for byte.
//!
//! The matrix covers both paper designs in every campaign mode: batched
//! sweeps at (2,2), (2,3) and (3,3) at widths 1, 7, 64 and 1000; Monte Carlo
//! at (2,2) and (2,3) over two seeds (one near the top of the `u64` range),
//! two trial counts and two rates; and one single-mode sweep at (2,2).
//! Campaign frames carry no timing, so every byte is a function of the
//! request.
//!
//! A change that moves a served answer fails here. To accept the move,
//! rewrite the golden from the current build and review its diff:
//!
//! ```text
//! BITLEVEL_BLESS=1 cargo test --test golden_frames
//! ```

use bitlevel::serve::{
    serve, CampaignMode, DesignSpec, Request, RequestEnvelope, ServeClient, ServeConfig,
};

/// The committed golden: every frame of [`matrix`], one raw line each.
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/served_campaign_frames.ndjson"
);

/// The fixed request matrix, ids numbered from 1 in order.
fn matrix() -> Vec<RequestEnvelope> {
    let mut modes = Vec::new();
    for design in [DesignSpec::TimeOptimal, DesignSpec::NearestNeighbour] {
        for (u, p) in [(2i64, 2usize), (2, 3), (3, 3)] {
            for width in [1usize, 7, 64, 1000] {
                modes.push((u, p, design, CampaignMode::Batched { seed: 5, width }));
            }
        }
        for (u, p) in [(2i64, 2usize), (2, 3)] {
            for seed in [0u64, 9_223_372_036_854_775_000] {
                for trials in [65usize, 130] {
                    for rate in [0.01, 0.5] {
                        let mode = CampaignMode::MonteCarlo { seed, trials, rate };
                        modes.push((u, p, design, mode));
                    }
                }
            }
        }
        modes.push((2, 2, design, CampaignMode::Single { seed: 5 }));
    }
    modes
        .into_iter()
        .zip(1..)
        .map(|((u, p, design, mode), id)| RequestEnvelope {
            id,
            deadline_ms: None,
            request: Request::FaultCampaign { u, p, design, mode },
        })
        .collect()
}

#[test]
fn served_campaign_frames_equal_the_committed_golden() {
    let handle = serve(ServeConfig {
        workers: 2,
        poll_interval_ms: 10,
        ..ServeConfig::default()
    })
    .expect("ephemeral-port server starts");
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let mut got = String::new();
    for env in matrix() {
        let tx = client.request_collect(&env).expect("campaign completes");
        assert!(tx.error().is_none(), "request {}: error frame", env.id);
        for (raw, _) in &tx.frames {
            got.push_str(raw);
            got.push('\n');
        }
    }
    handle.shutdown();
    handle.join();

    if std::env::var_os("BITLEVEL_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("golden written");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e}; write it with BITLEVEL_BLESS=1"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "frame {} differs from the golden", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "frame count differs from the golden"
    );
    assert_eq!(got, want, "bytes differ from the golden");
}
