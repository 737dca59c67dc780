//! Running a workload's set-up rounds and units through the simulator's
//! public calls, and reducing each simulation to what the benchmark
//! reports.

use crate::host::{at_reference_speed, process_cpu_s, Reference};
use crate::ledger::{self, Ledger};
use crate::world::{Sim, Workload};
use crate::{median, metric, Metric};
use meshlayer_core::{FlightOutcome, RunMetrics, Simulation};
use meshlayer_prof::{chrome_trace_json, Layer, TraceBook, TraceSpan, LAYER_COUNT};
use serde::{Node, Serialize};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Span cap of the benchmark's own trace book.
const SPAN_CAP: usize = 100_000;
/// CPU seconds of set-up rounds between two reference passes.
const SETUP_BLOCK_S: f64 = 0.1;

/// Report name of a provenance layer.
fn prov_name(layer: Layer) -> &'static str {
    match layer {
        Layer::App => "app",
        Layer::ComputeQueue => "compute_queue",
        Layer::SidecarClient => "sidecar_client",
        Layer::SidecarServer => "sidecar_server",
        Layer::RetryWait => "retry_wait",
        Layer::NetQueue => "net_queue",
        Layer::Fabric => "fabric",
    }
}

/// Times every public call (wall and CPU), records a span around each
/// call of a traced unit plus the engine's own phase profiles, and times
/// the host-speed reference.
pub struct Clock {
    on: bool,
    epoch: Instant,
    book: TraceBook,
    engine: Vec<(String, TraceBook)>,
    reference: Reference,
    /// CPU seconds of every reference pass, in order.
    ref_passes: Vec<f64>,
}

impl Clock {
    /// A clock that keeps spans only when `on`.
    pub fn new(on: bool) -> Clock {
        let mut book = TraceBook::new(SPAN_CAP);
        book.name_thread(0, "perfbench");
        Clock {
            on,
            epoch: Instant::now(),
            book,
            engine: Vec::new(),
            reference: Reference::new(),
            ref_passes: Vec::new(),
        }
    }

    /// Run `f`, returning its result and its wall and CPU seconds;
    /// recorded as span `name` when `traced`.
    fn time<T>(&mut self, traced: bool, name: &str, f: impl FnOnce() -> T) -> (T, Took) {
        let cpu = process_cpu_s();
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        let took = Took {
            wall_s: dur.as_secs_f64(),
            cpu_s: process_cpu_s() - cpu,
        };
        if self.on && traced {
            self.book.push(TraceSpan {
                name: name.to_string(),
                ts_ns: (start - self.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                tid: 0,
                events: 0,
            });
        }
        (out, took)
    }

    /// Run `f` between two reference passes, returning its result, its
    /// wall and CPU seconds, and the mean CPU seconds of the two passes.
    fn time_against_reference<T>(
        &mut self,
        traced: bool,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Took, f64) {
        let before = self.reference_pass();
        let (out, took) = self.time(traced, name, f);
        let after = self.reference_pass();
        (out, took, (before + after) / 2.0)
    }

    fn reference_pass(&mut self) -> f64 {
        let s = self.reference.pass_s();
        self.ref_passes.push(s);
        s
    }

    /// Median CPU seconds of the reference passes so far.
    pub fn reference_median_s(&self) -> f64 {
        median(self.ref_passes.clone())
    }

    /// The Chrome trace of everything recorded, when tracing.
    pub fn chrome_trace(&self) -> Option<String> {
        if !self.on {
            return None;
        }
        let mut parts: Vec<(&str, &TraceBook)> = vec![("perfbench calls", &self.book)];
        parts.extend(self.engine.iter().map(|(n, b)| (n.as_str(), b)));
        Some(chrome_trace_json(&parts))
    }
}

/// Reset the process's peak resident set to its current one, so that the
/// next reading is the peak of what ran in between.
fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set since the last reset (`VmHWM`), MiB.
fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Wall and CPU seconds of one timed call.
#[derive(Clone, Copy, Debug)]
pub struct Took {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Median set-up times over the set-up rounds.
pub struct Setup {
    /// Per round: (spec generation, build) CPU seconds at the reference
    /// speed, summed over every simulation one unit builds.
    rounds: Vec<(f64, f64)>,
}

impl Setup {
    /// Median of spec generation plus build.
    pub fn total_s(&self) -> f64 {
        median(self.rounds.iter().map(|(s, b)| s + b).collect())
    }

    /// Median spec generation time.
    pub fn spec_s(&self) -> f64 {
        median(self.rounds.iter().map(|r| r.0).collect())
    }

    /// Median build time.
    pub fn build_s(&self) -> f64 {
        median(self.rounds.iter().map(|r| r.1).collect())
    }
}

/// Every simulation one unit builds, in build order.
fn unit_sims(w: Workload) -> Vec<Sim> {
    let mut sims = w.main_sims().to_vec();
    let flight_builds = if w.flight_is_main() { 2 } else { 3 };
    sims.extend(std::iter::repeat_n(w.flight_sim(), flight_builds));
    sims
}

/// Time set-ups of every simulation a unit builds: at least
/// `min_rounds` rounds and at least `min_s` CPU seconds, so that a world
/// that builds in microseconds still gets a steady median. Rounds run in
/// blocks of about [`SETUP_BLOCK_S`] between reference passes, each block
/// read at the reference speed of the passes around it. Only the first
/// `min_rounds` rounds are recorded as spans.
pub fn setup(w: Workload, seed: u64, min_rounds: usize, min_s: f64, clock: &mut Clock) -> Setup {
    let sims = unit_sims(w);
    let mut rounds = Vec::new();
    let mut spent = 0.0;
    let mut ref_before = clock.reference_pass();
    while rounds.len() < min_rounds || spent < min_s {
        let mut block = Vec::new();
        let mut block_s = 0.0;
        while block.is_empty() || block_s < SETUP_BLOCK_S {
            let traced = rounds.len() + block.len() < min_rounds;
            let (mut spec_s, mut build_s) = (0.0, 0.0);
            for sim in &sims {
                let (spec, s) =
                    clock.time(traced, &format!("spec {}", sim.label), || sim.spec(seed));
                let (built, b) = clock.time(traced, &format!("build {}", sim.label), || {
                    Simulation::build(spec)
                });
                drop(built);
                spec_s += s.cpu_s;
                build_s += b.cpu_s;
            }
            block_s += spec_s + build_s;
            block.push((spec_s, build_s));
        }
        let ref_after = clock.reference_pass();
        let ref_s = (ref_before + ref_after) / 2.0;
        rounds.extend(
            block
                .into_iter()
                .map(|(s, b)| (at_reference_speed(s, ref_s), at_reference_speed(b, ref_s))),
        );
        spent += block_s;
        ref_before = ref_after;
    }
    Setup { rounds }
}

/// Latency summary of one class.
#[derive(Clone, Debug)]
pub struct ClassStat {
    pub class: String,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    pub completed: u64,
}

impl ClassStat {
    /// The highest of p99, p90 and p50 with at least ten samples beyond
    /// it.
    pub fn tail_ms(&self) -> f64 {
        match self.completed {
            1000.. => self.p99_ms,
            100.. => self.p90_ms,
            _ => self.p50_ms,
        }
    }
}

/// Simulated per-layer counts of one run (or, summed, of a unit).
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub events: u64,
    pub roots: u64,
    pub pkts: u64,
    pub drops: u64,
    pub bottleneck_peak_q: u64,
    pub bottleneck_util: f64,
    pub conn_timers: u64,
    pub connections: u64,
    pub fast_retx: u64,
    pub rto: u64,
    pub outbound: u64,
    pub retries: u64,
    pub fail_fast: u64,
    pub prio_propagated: u64,
    pub jobs: u64,
    pub rejected: u64,
    pub peak_queue: u64,
    pub scrapes: u64,
    pub fluid_updates: u64,
    pub settle_err_bytes: u64,
}

impl Counts {
    fn of(m: &RunMetrics, pkts: u64) -> Counts {
        let busiest = m
            .links
            .iter()
            .max_by(|a, b| a.utilization.total_cmp(&b.utilization));
        Counts {
            events: m.events,
            roots: m.world.roots_started,
            pkts,
            drops: m.links.iter().map(|l| l.drops).sum(),
            bottleneck_peak_q: busiest.map_or(0, |l| l.peak_queue_pkts as u64),
            bottleneck_util: busiest.map_or(0.0, |l| l.utilization),
            conn_timers: ledger::event_count(m, "ConnTimer"),
            connections: m.transport.connections as u64,
            fast_retx: m.transport.fast_retx,
            rto: m.transport.timeouts,
            outbound: m.fleet.outbound_requests,
            retries: m.fleet.retries,
            fail_fast: m.fleet.fail_fast,
            prio_propagated: m.fleet.priority_propagated,
            jobs: m.pods.iter().map(|p| p.jobs).sum(),
            rejected: m.pods.iter().map(|p| p.rejected).sum(),
            peak_queue: m
                .pods
                .iter()
                .map(|p| p.peak_queue as u64)
                .max()
                .unwrap_or(0),
            scrapes: m.telemetry.scrapes,
            fluid_updates: ledger::event_count(m, "FluidUpdate"),
            settle_err_bytes: m
                .fluid
                .iter()
                .map(|f| {
                    f.injected_bytes
                        .abs_diff(f.delivered_bytes + f.dropped_bytes)
                })
                .sum(),
        }
    }

    /// Sum work counts; keep the larger of the gauges.
    fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.roots += o.roots;
        self.pkts += o.pkts;
        self.drops += o.drops;
        self.bottleneck_peak_q = self.bottleneck_peak_q.max(o.bottleneck_peak_q);
        self.bottleneck_util = self.bottleneck_util.max(o.bottleneck_util);
        self.conn_timers += o.conn_timers;
        self.connections = self.connections.max(o.connections);
        self.fast_retx += o.fast_retx;
        self.rto += o.rto;
        self.outbound += o.outbound;
        self.retries += o.retries;
        self.fail_fast += o.fail_fast;
        self.prio_propagated += o.prio_propagated;
        self.jobs += o.jobs;
        self.rejected += o.rejected;
        self.peak_queue = self.peak_queue.max(o.peak_queue);
        self.scrapes += o.scrapes;
        self.fluid_updates += o.fluid_updates;
        self.settle_err_bytes += o.settle_err_bytes;
    }
}

/// What the benchmark keeps of one simulation (the full `RunMetrics`
/// is dropped right away so it does not count toward peak RSS).
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// What ran: the call (`run`, `record`, `replay`) and the
    /// simulation's label.
    pub label: String,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Wall seconds of `Simulation::run`.
    pub run_s: f64,
    /// CPU seconds of `Simulation::run`.
    pub cpu_s: f64,
    /// Mean reference CPU seconds just before and just after the run.
    pub ref_s: f64,
    /// Hash of every `RunMetrics` field except host wall times.
    pub fingerprint: u64,
    /// Root requests started, completed and failed.
    pub started: u64,
    pub ok: u64,
    pub failed: u64,
    /// Per-class latency summaries.
    pub classes: Vec<ClassStat>,
    /// Per-layer host time.
    pub ledger: Ledger,
    /// Per-layer simulated counts.
    pub counts: Counts,
    /// Per-class provenance: (class, requests, summed per-layer ns).
    pub prov: Vec<(String, u64, [u64; LAYER_COUNT])>,
}

impl RunSummary {
    fn new(
        label: String,
        duration_s: f64,
        took: Took,
        ref_s: f64,
        m: &RunMetrics,
        pkts: u64,
    ) -> RunSummary {
        RunSummary {
            label,
            duration_s,
            run_s: took.wall_s,
            cpu_s: took.cpu_s,
            ref_s,
            fingerprint: fingerprint(m),
            started: m.world.roots_started,
            ok: m.world.roots_ok,
            failed: m.world.roots_failed,
            classes: m
                .classes
                .iter()
                .map(|c| ClassStat {
                    class: c.class.clone(),
                    p50_ms: c.p50_ms,
                    p90_ms: c.p90_ms,
                    p99_ms: c.p99_ms,
                    max_ms: c.max_ms,
                    completed: c.completed,
                })
                .collect(),
            ledger: Ledger::of(m),
            counts: Counts::of(m, pkts),
            prov: m
                .provenance
                .iter()
                .map(|r| (r.class.clone(), r.requests, r.layer_ns))
                .collect(),
        }
    }

    /// CPU seconds of `Simulation::run` at the reference speed.
    pub fn cpu_s_at_reference_speed(&self) -> f64 {
        at_reference_speed(self.cpu_s, self.ref_s)
    }

    /// A class's latency summary.
    ///
    /// # Panics
    /// Panics when the run has no such class: the workload definitions
    /// name only classes their worlds generate.
    pub fn class(&self, name: &str) -> &ClassStat {
        self.classes
            .iter()
            .find(|c| c.class == name)
            .unwrap_or_else(|| panic!("{} has no class {name}", self.label))
    }
}

/// FNV-1a over the JSON of every `RunMetrics` field except host wall
/// times (`wall_ns` at any depth).
pub fn fingerprint(m: &RunMetrics) -> u64 {
    fn strip(n: Node) -> Node {
        match n {
            Node::Map(kv) => Node::Map(
                kv.into_iter()
                    .filter(|(k, _)| k != "wall_ns")
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            Node::Seq(items) => Node::Seq(items.into_iter().map(strip).collect()),
            other => other,
        }
    }
    let json = serde_json::to_string(&strip(m.serialize())).expect("JSON nodes serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// How a simulation is run.
enum Mode<'a> {
    Plain,
    Record(&'a Path),
    Replay(&'a Path),
}

/// Build and run one simulation.
fn simulate(
    sim: &Sim,
    seed: u64,
    traced: bool,
    mode: Mode,
    clock: &mut Clock,
) -> io::Result<(RunSummary, Option<FlightOutcome>)> {
    let label = sim.label;
    let (spec, _) = clock.time(traced, &format!("spec {label}"), || sim.spec(seed));
    let (mut s, _) = clock.time(traced, &format!("build {label}"), || {
        Simulation::build(spec)
    });
    if traced {
        s.enable_profiling();
    }
    let verb = match mode {
        Mode::Plain => "run",
        Mode::Record(path) => {
            s.record_to(label, path)?;
            "record"
        }
        Mode::Replay(path) => {
            s.replay_from(path)?;
            "replay"
        }
    };
    let (m, took, ref_s) =
        clock.time_against_reference(traced, &format!("{verb} {label}"), || s.run());
    let outcome = s.take_flight_outcome();
    let pkts = s
        .fabric()
        .topology
        .links()
        .map(|l| l.stats().tx_packets)
        .sum();
    if let Some(report) = s.take_profile() {
        let name = format!("engine: {verb} {label} #{}", clock.engine.len() + 1);
        clock.engine.push((name, report.trace));
    }
    drop(s);
    let summary = RunSummary::new(
        format!("{verb} {label}"),
        sim.duration_s(),
        took,
        ref_s,
        &m,
        pkts,
    );
    Ok((summary, outcome))
}

/// The recorded and replayed runs of a unit's flight simulation.
pub struct FlightRun {
    /// A plain run of the flight simulation, when it is not one of the
    /// unit's main simulations.
    pub plain: Option<RunSummary>,
    pub record: RunSummary,
    pub replay: RunSummary,
    /// Capture size on disk.
    pub capture_bytes: u64,
    /// Events the capture holds (`None` when recording failed).
    pub captured: Option<u64>,
    /// Events the replay checked, or why it failed.
    pub replayed: Result<u64, String>,
}

fn flight(
    w: Workload,
    seed: u64,
    traced: bool,
    capture: &Path,
    clock: &mut Clock,
) -> io::Result<FlightRun> {
    let sim = w.flight_sim();
    let plain = if w.flight_is_main() {
        None
    } else {
        Some(simulate(&sim, seed, traced, Mode::Plain, clock)?.0)
    };
    let (record, outcome) = simulate(&sim, seed, traced, Mode::Record(capture), clock)?;
    let captured = match outcome {
        Some(FlightOutcome::Recorded(c)) => Some(c.events),
        _ => None,
    };
    let capture_bytes = std::fs::metadata(capture)?.len();
    let (replay, outcome) = simulate(&sim, seed, traced, Mode::Replay(capture), clock)?;
    std::fs::remove_file(capture)?;
    let replayed = match outcome {
        Some(FlightOutcome::Replayed(r)) => match r.divergence {
            None => Ok(r.checked),
            Some(d) => Err(format!("diverged at event {}: {}", d.index, d.reason)),
        },
        Some(FlightOutcome::Failed(e)) => Err(e),
        other => Err(format!("unexpected outcome {other:?}")),
    };
    Ok(FlightRun {
        plain,
        record,
        replay,
        capture_bytes,
        captured,
        replayed,
    })
}

/// One repetition of a workload's fixed amount of simulated work.
pub struct Unit {
    /// Whether engine profiling and spans were on.
    pub traced: bool,
    /// Peak resident set while the unit ran, MiB.
    pub peak_rss_mib: f64,
    /// The unrecorded simulations, in [`Workload::main_sims`] order.
    pub main: Vec<RunSummary>,
    pub flight: FlightRun,
}

/// Run one unit.
pub fn unit(
    w: Workload,
    seed: u64,
    traced: bool,
    capture: &Path,
    clock: &mut Clock,
) -> io::Result<Unit> {
    reset_peak_rss()?;
    let main = w
        .main_sims()
        .iter()
        .map(|sim| Ok(simulate(sim, seed, traced, Mode::Plain, clock)?.0))
        .collect::<io::Result<Vec<_>>>()?;
    let flight = flight(w, seed, traced, capture, clock)?;
    Ok(Unit {
        traced,
        peak_rss_mib: peak_rss_mib()?,
        main,
        flight,
    })
}

impl FlightRun {
    /// Simulated packet transmissions of the flight simulation.
    pub fn pkts(&self) -> u64 {
        self.record.counts.pkts.max(1)
    }
}

impl Unit {
    /// Summed wall seconds of the unrecorded `run` calls.
    pub fn run_s(&self) -> f64 {
        self.main.iter().map(|r| r.run_s).sum()
    }

    /// Summed CPU seconds of the unrecorded `run` calls, at the
    /// reference speed.
    pub fn run_cpu_s(&self) -> f64 {
        self.main
            .iter()
            .map(RunSummary::cpu_s_at_reference_speed)
            .sum()
    }

    /// Simulated packet transmissions of the unrecorded simulations.
    pub fn run_pkts(&self) -> u64 {
        self.main.iter().map(|r| r.counts.pkts).sum()
    }

    /// The headline run (the paper prototype on `fig4_elibrary`).
    pub fn headline(&self) -> &RunSummary {
        self.main
            .last()
            .expect("every workload has a main simulation")
    }

    /// The plain run the flight recording must reproduce.
    pub fn flight_reference(&self) -> &RunSummary {
        self.flight
            .plain
            .as_ref()
            .unwrap_or_else(|| self.headline())
    }

    /// Every simulation the unit ran.
    pub fn sims(&self) -> impl Iterator<Item = &RunSummary> {
        self.main
            .iter()
            .chain(self.flight.plain.iter())
            .chain([&self.flight.record, &self.flight.replay])
    }

    /// The per-layer metrics of this unit (host times, counts, ratios),
    /// without the run-level `setup.*` and `trace.*` figures.
    pub fn layer_metrics(&self, w: Workload) -> Vec<Metric> {
        let mut led = Ledger::default();
        let mut c = Counts::default();
        for r in &self.main {
            led.merge(&r.ledger);
            c.add(&r.counts);
        }
        let loop_s = led.loop_ns as f64 / 1e9;
        let collect_s = self.run_s() - loop_s;
        let busy = |layer: &str| led.busy_s(layer);
        let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
        let mut out = vec![
            metric("simcore.loop_s", loop_s, "s"),
            metric("simcore.events", c.events as f64, "count"),
            metric(
                "simcore.events_per_root",
                c.events as f64 / c.roots.max(1) as f64,
                "count",
            ),
            metric("simcore.ns_per_event", per(loop_s, c.events), "ns"),
            metric("simcore.events_per_s", c.events as f64 / loop_s, "1/s"),
            metric("netsim.busy_s", busy("netsim"), "s"),
            metric("netsim.pkts", c.pkts as f64, "count"),
            metric("netsim.ns_per_pkt", per(busy("netsim"), c.pkts), "ns"),
            metric("netsim.drops", c.drops as f64, "count"),
            metric(
                "netsim.bottleneck_peak_q",
                c.bottleneck_peak_q as f64,
                "pkts",
            ),
            metric("netsim.bottleneck_util", c.bottleneck_util, "frac"),
            metric("transport.busy_s", busy("transport"), "s"),
            metric("transport.conn_timers", c.conn_timers as f64, "count"),
            metric("transport.connections", c.connections as f64, "count"),
            metric("transport.fast_retx", c.fast_retx as f64, "count"),
            metric("transport.rto", c.rto as f64, "count"),
            metric("mesh.busy_s", busy("mesh"), "s"),
            metric("mesh.outbound", c.outbound as f64, "count"),
            metric("mesh.retries", c.retries as f64, "count"),
            metric("mesh.fail_fast", c.fail_fast as f64, "count"),
            metric("mesh.prio_propagated", c.prio_propagated as f64, "count"),
            metric("cluster.busy_s", busy("cluster"), "s"),
            metric("cluster.jobs", c.jobs as f64, "count"),
            metric("cluster.rejected", c.rejected as f64, "count"),
            metric("cluster.peak_queue", c.peak_queue as f64, "count"),
            metric("workload.busy_s", busy("workload"), "s"),
            metric("workload.roots", c.roots as f64, "count"),
            metric("telemetry.busy_s", busy("telemetry"), "s"),
            metric("telemetry.scrapes", c.scrapes as f64, "count"),
            metric("telemetry.collect_s", collect_s, "s"),
            metric("fluid.updates", c.fluid_updates as f64, "count"),
            metric("fluid.settle_err_bytes", c.settle_err_bytes as f64, "B"),
            metric("control.busy_s", busy("control"), "s"),
            metric("unattributed_s", led.unattributed_s(), "s"),
        ];
        let f = &self.flight;
        let plain_s = self.flight_reference().run_s;
        out.extend([
            metric("flightrec.record_overhead", f.record.run_s / plain_s, "x"),
            metric("flightrec.replay_overhead", f.replay.run_s / plain_s, "x"),
            metric(
                "flightrec.bytes_per_event",
                f.capture_bytes as f64 / f.captured.unwrap_or(0).max(1) as f64,
                "B",
            ),
        ]);
        let (mut reqs, mut ns) = (0u64, [0u64; LAYER_COUNT]);
        for (class, n, layer_ns) in &self.headline().prov {
            if w.fg_classes().contains(&class.as_str()) {
                reqs += n;
                for (a, b) in ns.iter_mut().zip(layer_ns) {
                    *a += b;
                }
            }
        }
        // Compute-queue and retry waits are zero on every workload (no pod
        // runs out of workers, no attempt is retried), so they are left out
        // rather than reported as a constant.
        let reported = |l: &Layer| !matches!(l, Layer::ComputeQueue | Layer::RetryWait);
        for (layer, layer_ns) in Layer::ALL.into_iter().zip(ns).filter(|(l, _)| reported(l)) {
            let mean_ms = layer_ns as f64 / reqs.max(1) as f64 / 1e6;
            out.push(metric(
                format!("prov.{}_ms", prov_name(layer)),
                mean_ms,
                "ms",
            ));
        }
        out
    }
}
