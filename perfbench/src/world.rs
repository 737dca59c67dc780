//! The three workloads: which simulations each one builds, runs,
//! records and replays.
//!
//! Every simulation is an open loop in simulated time (arrivals at a
//! fixed mean rate, latency timed from the intended send) run on the
//! sequential engine. On the host, a workload is a fixed amount of
//! simulated work: a *unit* runs the workload's unrecorded simulations
//! (`run_s` times these) and then records and replays its flight
//! simulation.

use meshlayer_apps::{elibrary, ElibraryParams};
use meshlayer_core::{SimSpec, TopoMix, TopoParams, XLayerConfig};
use meshlayer_simcore::SimDuration;
use serde::Node;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig 4 world: e-library at 40 RPS per class, baseline
    /// then paper prototype.
    Fig4Elibrary,
    /// The 1,001-pod generated zonal spine-leaf fabric with fluid
    /// background classes.
    Fabric1kFluid,
    /// The flight world: e-library at 40 RPS per class (not the canonical
    /// flight run's 30, where seeds differ more than 2× in simulated work),
    /// paper prototype, run plain, recorded, and replayed.
    FlightRecordReplay,
}

/// Which world a simulation builds.
#[derive(Clone, Copy, Debug)]
enum World {
    /// The e-library app with its 1 Gbps reviews→ratings bottleneck.
    Elibrary { rps: f64, prototype: bool },
    /// `TopoParams::sized(pods, rps)` on the background-heavy fluid mix.
    Fabric { pods: usize, rps: f64 },
}

/// One simulation of a workload: a world plus its run length.
#[derive(Clone, Copy, Debug)]
pub struct Sim {
    /// Short label used in spans and the manifest.
    pub label: &'static str,
    world: World,
    duration_ms: u64,
    warmup_ms: u64,
    cooldown_ms: u64,
}

impl Sim {
    /// Simulated seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_ms as f64 / 1e3
    }

    /// Generate the spec for `seed` (sequential engine).
    pub fn spec(&self, seed: u64) -> SimSpec {
        let mut spec = match self.world {
            World::Elibrary { rps, prototype } => {
                let mut spec = elibrary(&ElibraryParams {
                    ls_rps: rps,
                    batch_rps: rps,
                    ..ElibraryParams::default()
                });
                spec.xlayer = if prototype {
                    XLayerConfig::paper_prototype()
                } else {
                    XLayerConfig::baseline()
                };
                spec
            }
            World::Fabric { pods, rps } => {
                let mut p = TopoParams::sized(pods, rps);
                p.seed = seed;
                p.mix = TopoMix::BackgroundFluid;
                p.spec()
            }
        };
        spec.config.seed = seed;
        spec.config.duration = SimDuration::from_millis(self.duration_ms);
        spec.config.warmup = SimDuration::from_millis(self.warmup_ms);
        spec.config.cooldown = SimDuration::from_millis(self.cooldown_ms);
        spec.config.threads = 1;
        spec
    }

    fn describe(&self) -> Node {
        let world = match self.world {
            World::Elibrary { rps, prototype } => format!(
                "elibrary ls_rps={rps} batch_rps={rps} xlayer={}",
                if prototype {
                    "paper_prototype"
                } else {
                    "baseline"
                }
            ),
            World::Fabric { pods, rps } => {
                format!("topo sized({pods}, {rps}) mix=background_fluid")
            }
        };
        Node::Map(vec![
            ("label".into(), Node::Str(self.label.into())),
            ("world".into(), Node::Str(world)),
            ("duration_ms".into(), Node::UInt(self.duration_ms.into())),
            ("warmup_ms".into(), Node::UInt(self.warmup_ms.into())),
            ("cooldown_ms".into(), Node::UInt(self.cooldown_ms.into())),
            ("threads".into(), Node::UInt(1)),
        ])
    }
}

const FIG4_BASELINE: Sim = Sim {
    label: "baseline",
    world: World::Elibrary {
        rps: 40.0,
        prototype: false,
    },
    duration_ms: 8_000,
    warmup_ms: 1_500,
    cooldown_ms: 500,
};

const FIG4_PROTOTYPE: Sim = Sim {
    label: "prototype",
    world: World::Elibrary {
        rps: 40.0,
        prototype: true,
    },
    ..FIG4_BASELINE
};

const FIG4_SLICE: Sim = Sim {
    label: "prototype-slice",
    world: World::Elibrary {
        rps: 40.0,
        prototype: true,
    },
    duration_ms: 2_000,
    warmup_ms: 500,
    cooldown_ms: 200,
};

const FABRIC: Sim = Sim {
    label: "fabric",
    world: World::Fabric {
        pods: 1000,
        rps: 1e5,
    },
    duration_ms: 600,
    warmup_ms: 150,
    cooldown_ms: 50,
};

const FABRIC_SLICE: Sim = Sim {
    label: "fabric-slice",
    duration_ms: 150,
    warmup_ms: 40,
    cooldown_ms: 10,
    ..FABRIC
};

const FLIGHT: Sim = Sim {
    label: "flight",
    world: World::Elibrary {
        rps: 40.0,
        prototype: true,
    },
    duration_ms: 4_000,
    warmup_ms: 500,
    cooldown_ms: 500,
};

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig4Elibrary,
        Workload::Fabric1kFluid,
        Workload::FlightRecordReplay,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Elibrary => "fig4_elibrary",
            Workload::Fabric1kFluid => "fabric_1k_fluid",
            Workload::FlightRecordReplay => "flight_record_replay",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The unrecorded simulations `run_s` times, in run order. The last
    /// one is the headline run (the paper prototype on `fig4_elibrary`).
    pub fn main_sims(self) -> &'static [Sim] {
        match self {
            Workload::Fig4Elibrary => &[FIG4_BASELINE, FIG4_PROTOTYPE],
            Workload::Fabric1kFluid => &[FABRIC],
            Workload::FlightRecordReplay => &[FLIGHT],
        }
    }

    /// The simulation each unit records and then replays.
    pub fn flight_sim(self) -> Sim {
        match self {
            Workload::Fig4Elibrary => FIG4_SLICE,
            Workload::Fabric1kFluid => FABRIC_SLICE,
            Workload::FlightRecordReplay => FLIGHT,
        }
    }

    /// Whether the flight simulation is the headline run itself, so the
    /// unit's plain run doubles as the recording's reference.
    pub fn flight_is_main(self) -> bool {
        self == Workload::FlightRecordReplay
    }

    /// The latency-critical classes `fg_p99_ms` and `prov.*` report.
    pub fn fg_classes(self) -> &'static [&'static str] {
        match self {
            Workload::Fabric1kFluid => &["browse", "checkout"],
            _ => &["latency-sensitive"],
        }
    }

    /// This workload's parameters, for the run manifest.
    pub fn describe(self) -> Node {
        let sims: Vec<Node> = self.main_sims().iter().map(Sim::describe).collect();
        Node::Map(vec![
            ("main".into(), Node::Seq(sims)),
            ("flight".into(), self.flight_sim().describe()),
        ])
    }
}
