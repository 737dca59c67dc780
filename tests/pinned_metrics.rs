//! Pinned simulated behaviour: the Fig 4 world's `RunMetrics`, minus
//! the host-dependent and event-count fields, hashed and compared with
//! constants. A change that is meant to be a pure speed-up (fewer
//! events, cheaper bookkeeping) must leave every simulated number — and
//! so each hash — exactly as it was.
//!
//! The constants were computed before the engine stopped queueing
//! superseded RTO-timer events; a deliberate change of behaviour must
//! update them and say why.

use meshlayer::apps::{elibrary, ElibraryParams};
use meshlayer::core::{RunMetrics, Simulation, XLayerConfig};
use meshlayer::simcore::SimDuration;

/// FNV-1a over the JSON of `m` with the fields that may differ between
/// equivalent runs cleared: loop wall time, the event counters and the
/// per-event profile. Everything left is simulated.
fn fingerprint(m: &RunMetrics) -> u64 {
    let mut m = m.clone();
    m.wall_ns = 0;
    m.events = 0;
    m.events_pushed = 0;
    m.events_popped = 0;
    m.event_profile.clear();
    let json = serde_json::to_string(&m).expect("serializable metrics");
    json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Events of variant `name` the loop handled.
fn handled(m: &RunMetrics, name: &str) -> u64 {
    m.event_profile
        .iter()
        .find(|p| p.event == name)
        .map_or(0, |p| p.count)
}

/// The e-library at 40 RPS per class for 2 s (the benchmark's Fig 4
/// slice), at `seed`, on `threads` engine threads.
fn elib(xlayer: XLayerConfig, seed: u64, threads: usize) -> RunMetrics {
    let params = ElibraryParams {
        ls_rps: 40.0,
        batch_rps: 40.0,
        ..ElibraryParams::default()
    };
    let mut spec = elibrary(&params);
    spec.xlayer = xlayer;
    spec.config.seed = seed;
    spec.config.duration = SimDuration::from_secs(2);
    spec.config.warmup = SimDuration::from_millis(500);
    spec.config.cooldown = SimDuration::from_millis(200);
    spec.config.threads = threads;
    Simulation::build(spec).run()
}

#[test]
fn fig4_world_metrics_match_pinned_fingerprints() {
    // (world, seed, engine threads, pinned hash). The sharded engine
    // must reproduce the sequential run's hash.
    let cases = [
        ("baseline", 42, 1, 0x8264_d62c_7b89_62c0u64),
        ("prototype", 42, 1, 0xc22c_38c4_47a6_6a36),
        ("baseline", 7, 1, 0x8a07_c214_8f2e_d050),
        ("prototype", 7, 1, 0x9bad_6fe5_b5fa_c9f9),
        ("prototype", 42, 4, 0xc22c_38c4_47a6_6a36),
    ];
    let mut wrong = Vec::new();
    for (label, seed, threads, want) in cases {
        let xlayer = match label {
            "baseline" => XLayerConfig::baseline(),
            _ => XLayerConfig::paper_prototype(),
        };
        let m = elib(xlayer, seed, threads);
        let got = fingerprint(&m);
        if got != want {
            wrong.push(format!(
                "{label} seed {seed} at {threads} threads: {got:#018x} (pinned {want:#018x})"
            ));
        }
        // Only timers that can still fire reach the queue: superseded
        // RTO generations are never popped.
        let (timers, arrivals) = (handled(&m, "ConnTimer"), handled(&m, "PktArrive"));
        assert!(
            arrivals > 100_000,
            "{label} seed {seed}: {arrivals} PktArrive"
        );
        assert!(
            timers * 100 < arrivals,
            "{label} seed {seed}: {timers} ConnTimer pops vs {arrivals} PktArrive"
        );
    }
    assert!(
        wrong.is_empty(),
        "simulated metrics changed:\n{}",
        wrong.join("\n")
    );
}
