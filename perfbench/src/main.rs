//! `perfbench`: the repository benchmark of the meshlayer simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4_elibrary --seed 42 --seconds 38 --trace 0
//! ```
//!
//! A run repeats one workload's *unit* (its unrecorded simulations, then
//! a recording and a replay of its flight simulation) for about
//! `--seconds` of wall time, at least twice, all at one seed. End-to-end
//! host times are process CPU time pooled over the units; simulated
//! results must repeat exactly across them. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced units
//! (engine phase profiling plus spans around every public call) and
//! prints the per-layer metrics, writing a Chrome trace to
//! `perfbench/out/`. The last line of standard output is the result
//! object; the line before it is the run manifest. See
//! `perfbench/README.md` for the metric definitions.

mod checks;
mod host;
mod ledger;
mod manifest;
mod measure;
mod world;

use checks::Checks;
use measure::{Clock, Unit};
use serde::Node;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use world::Workload;

/// Set-up rounds per run, at least; `setup_s` is their median.
const SETUP_ROUNDS: usize = 21;
/// CPU seconds of set-up rounds per run, at least.
const SETUP_MIN_S: f64 = 1.0;
/// Units per run, whatever `--seconds` says: the determinism check needs
/// two repetitions.
const MIN_UNITS: usize = 2;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 38.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where runs leave their trace, result file and temporary capture.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn metrics_node(metrics: &[Metric]) -> Node {
    Node::Map(
        metrics
            .iter()
            .map(|m| {
                let v = Node::Map(vec![
                    ("value".into(), Node::Float(m.value)),
                    ("unit".into(), Node::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// The end-to-end metrics (`--trace 0`).
fn end_to_end(
    w: Workload,
    setup: &measure::Setup,
    units: &[Unit],
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let first = &units[0];
    // Host times pool every unit of the run (CPU seconds at the reference
    // speed over simulated packet transmissions): the longer the window a
    // figure covers, the less of the host's wander it carries.
    let pooled_ns = |cpu_s: fn(&Unit) -> f64, pkts: fn(&Unit) -> u64| {
        let cpu: f64 = units.iter().map(cpu_s).sum();
        let pkts: u64 = units.iter().map(pkts).sum();
        cpu * 1e9 / pkts.max(1) as f64
    };
    let run_ns = pooled_ns(Unit::run_cpu_s, Unit::run_pkts);
    let record_ns = pooled_ns(
        |u| u.flight.record.cpu_s_at_reference_speed(),
        |u| u.flight.pkts(),
    );
    let replay_ns = pooled_ns(
        |u| u.flight.replay.cpu_s_at_reference_speed(),
        |u| u.flight.pkts(),
    );
    let (p50_gain, p90_gain, batch_cost) = match w {
        Workload::Fig4Elibrary => {
            let (base, proto) = (&first.main[0], &first.main[1]);
            let (ls_b, ls_p) = (
                base.class("latency-sensitive"),
                proto.class("latency-sensitive"),
            );
            let (batch_b, batch_p) = (
                base.class("batch-analytics"),
                proto.class("batch-analytics"),
            );
            (
                ls_b.p50_ms / ls_p.p50_ms,
                ls_b.p90_ms / ls_p.p90_ms,
                batch_p.p90_ms / batch_b.p90_ms,
            )
        }
        // No paired baseline in these workloads: the identity ratio.
        _ => (1.0, 1.0, 1.0),
    };
    let headline = first.headline();
    let fg_tail = w
        .fg_classes()
        .iter()
        .map(|c| headline.class(c).tail_ms())
        .fold(0.0, f64::max);
    vec![
        metric("setup_s", setup.total_s(), "s"),
        metric("run_ns_per_pkt", run_ns, "ns"),
        metric(
            "peak_rss_mib",
            median(units.iter().map(|u| u.peak_rss_mib).collect()),
            "MiB",
        ),
        metric("ok_frac", 1.0 - failed as f64 / attempted as f64, "frac"),
        metric("xlayer_p50_gain", p50_gain, "x"),
        metric("xlayer_p90_gain", p90_gain, "x"),
        metric("batch_p90_cost", batch_cost, "x"),
        metric("fg_tail_ms", fg_tail, "ms"),
        metric("record_ns_per_pkt", record_ns, "ns"),
        metric("replay_ns_per_pkt", replay_ns, "ns"),
        metric(
            "capture_b_per_pkt",
            first.flight.capture_bytes as f64 / first.flight.pkts() as f64,
            "B",
        ),
    ]
}

/// The per-layer metrics (`--trace 1`): medians over the traced units.
fn per_layer(w: Workload, setup: &measure::Setup, clock: &Clock, units: &[Unit]) -> Vec<Metric> {
    let traced: Vec<&Unit> = units.iter().filter(|u| u.traced).collect();
    let untraced: Vec<&Unit> = units.iter().filter(|u| !u.traced).collect();
    let rows: Vec<Vec<Metric>> = traced.iter().map(|u| u.layer_metrics(w)).collect();
    let mut out: Vec<Metric> = rows[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let value = median(rows.iter().map(|r| r[i].value).collect());
            metric(m.name.clone(), value, m.unit)
        })
        .collect();
    out.push(metric("host.ref_s", clock.reference_median_s(), "s"));
    out.push(metric("setup.spec_s", setup.spec_s(), "s"));
    out.push(metric("setup.build_s", setup.build_s(), "s"));
    let untraced_median = |f: fn(&Unit) -> f64| median(untraced.iter().map(|u| f(u)).collect());
    let untraced_run = untraced_median(Unit::run_s);
    let traced_run = median(traced.iter().map(|u| u.run_s()).collect());
    out.push(metric("trace.overhead", traced_run / untraced_run, "x"));
    out.push(metric("simcore.run_s", untraced_run, "s"));
    out.push(metric(
        "flightrec.record_s",
        untraced_median(|u| u.flight.record.run_s),
        "s",
    ));
    out.push(metric(
        "flightrec.replay_s",
        untraced_median(|u| u.flight.replay.run_s),
        "s",
    ));
    out.push(metric(
        "flightrec.capture_mib",
        units[0].flight.capture_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    ));
    out
}

fn run(args: &Args) -> std::io::Result<()> {
    let started = Instant::now();
    let w = args.workload;
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let capture = out.join(format!("{stem}.flight"));
    let mut clock = Clock::new(args.trace);

    let setup = measure::setup(w, args.seed, SETUP_ROUNDS, SETUP_MIN_S, &mut clock);
    let mut units: Vec<Unit> = Vec::new();
    loop {
        let traced = args.trace && units.len() % 2 == 1;
        let t = Instant::now();
        units.push(measure::unit(w, args.seed, traced, &capture, &mut clock)?);
        let u = units.last().expect("a unit was just pushed");
        eprintln!(
            "perfbench: {} unit {} ({}) took {:.2}s: run {:.3}s, record {:.3}s, replay {:.3}s \
             (CPU at reference speed {:.3}s, {:.3}s, {:.3}s), peak RSS {:.1} MiB",
            w.name(),
            units.len(),
            if traced { "traced" } else { "untraced" },
            t.elapsed().as_secs_f64(),
            u.run_s(),
            u.flight.record.run_s,
            u.flight.replay.run_s,
            u.run_cpu_s(),
            u.flight.record.cpu_s_at_reference_speed(),
            u.flight.replay.cpu_s_at_reference_speed(),
            u.peak_rss_mib
        );
        // Stop where the run's length comes closest to `--seconds`: one
        // more unit (as long as the last) would overshoot it by more than
        // stopping now falls short.
        let elapsed = started.elapsed().as_secs_f64();
        let last = t.elapsed().as_secs_f64();
        if units.len() >= MIN_UNITS && elapsed + last / 2.0 > args.seconds {
            break;
        }
    }

    let mut checks = Checks::default();
    checks::run_all(w, &units, &mut checks);
    let (attempted, failed) = checks.tally(&units);
    let metrics = if args.trace {
        per_layer(w, &setup, &clock, &units)
    } else {
        end_to_end(w, &setup, &units, attempted, failed)
    };
    eprint!("{}", checks.render());

    let result = Node::Map(vec![
        ("correct".into(), Node::Bool(checks.all_passed())),
        ("attempted".into(), Node::UInt(attempted.into())),
        ("failed".into(), Node::UInt(failed.into())),
        ("metrics".into(), metrics_node(&metrics)),
    ]);
    let manifest = manifest::manifest(w, args.seed, args.seconds, args.trace, units.len());
    if let Some(trace) = clock.chrome_trace() {
        let path = out.join(format!("{stem}.trace.json"));
        std::fs::write(&path, trace)?;
        eprintln!("perfbench: wrote {}", path.display());
    }
    let record = Node::Map(vec![
        ("manifest".into(), manifest.clone()),
        ("checks".into(), checks.node()),
        ("result".into(), result.clone()),
    ]);
    let json = |n: &Node| serde_json::to_string(n).expect("JSON nodes serialize");
    std::fs::write(out.join(format!("{stem}.json")), json(&record))?;
    println!("{}", json(&Node::Map(vec![("manifest".into(), manifest)])));
    println!("{}", json(&result));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}
