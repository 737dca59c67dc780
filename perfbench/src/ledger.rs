//! The per-layer cost ledger: each engine event variant charged to the
//! module that handles it.
//!
//! Host time comes from `RunMetrics::event_profile`, which times every
//! loop iteration (queue pop, flight observation and handler) and
//! charges it to the popped event's variant. Summing those rows by layer
//! splits the loop wall clock across the simulator's modules; what is
//! left over (`unattributed_s`) is the loop's own start and stop.
//!
//! `FluidUpdate` is charged to `control`: the engine runs fluid re-solves
//! on the control logical process, and a layer of its own would report a
//! busy time of exactly zero on the e-library workloads, which have no
//! fluid classes.

use meshlayer_core::RunMetrics;

/// Layers that own engine events, in report order.
pub const LAYERS: [&str; 7] = [
    "netsim",
    "transport",
    "mesh",
    "cluster",
    "workload",
    "telemetry",
    "control",
];

/// Every engine event variant and the layer it belongs to.
pub const EVENT_LAYER: [(&str, &str); 20] = [
    ("LinkTx", "netsim"),
    ("LinkKick", "netsim"),
    ("PktArrive", "netsim"),
    ("ConnTimer", "transport"),
    ("SendMsg", "transport"),
    ("AttemptResponse", "mesh"),
    ("PerTryTimeout", "mesh"),
    ("RpcTimeout", "mesh"),
    ("RetryFire", "mesh"),
    ("HedgeFire", "mesh"),
    ("ExecStart", "cluster"),
    ("ComputeDone", "cluster"),
    ("Arrival", "workload"),
    ("TelemetryTick", "telemetry"),
    ("FluidUpdate", "control"),
    ("ControlTick", "control"),
    ("SdnTick", "control"),
    ("PolicyPush", "control"),
    ("PolicyApply", "control"),
    ("Fault", "control"),
];

/// The layer an event variant belongs to, if it is mapped.
pub fn layer_of(event: &str) -> Option<&'static str> {
    EVENT_LAYER
        .iter()
        .find(|(e, _)| *e == event)
        .map(|&(_, layer)| layer)
}

/// Per-layer host time and event counts of one or more runs.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Handler wall nanoseconds per layer, in [`LAYERS`] order.
    pub busy_ns: [u64; LAYERS.len()],
    /// Event wall nanoseconds of variants missing from [`EVENT_LAYER`].
    pub unmapped_ns: u64,
    /// Loop wall nanoseconds.
    pub loop_ns: u64,
}

impl Ledger {
    /// The ledger of one run's event profile.
    pub fn of(m: &RunMetrics) -> Ledger {
        let mut led = Ledger {
            loop_ns: m.wall_ns,
            ..Ledger::default()
        };
        for row in &m.event_profile {
            match layer_of(&row.event).and_then(|l| LAYERS.iter().position(|&x| x == l)) {
                Some(i) => led.busy_ns[i] += row.wall_ns,
                None => led.unmapped_ns += row.wall_ns,
            }
        }
        led
    }

    /// Add another ledger's figures to this one.
    pub fn merge(&mut self, o: &Ledger) {
        for (a, b) in self.busy_ns.iter_mut().zip(o.busy_ns) {
            *a += b;
        }
        self.unmapped_ns += o.unmapped_ns;
        self.loop_ns += o.loop_ns;
    }

    /// Busy seconds of `layer`.
    pub fn busy_s(&self, layer: &str) -> f64 {
        let i = LAYERS
            .iter()
            .position(|&l| l == layer)
            .expect("layer is listed in LAYERS");
        self.busy_ns[i] as f64 / 1e9
    }

    /// Loop wall minus the summed layer busy time, seconds.
    pub fn unattributed_s(&self) -> f64 {
        let attributed: u64 = self.busy_ns.iter().sum();
        (self.loop_ns as f64 - attributed as f64) / 1e9
    }
}

/// Count of `event` rows in a run's profile.
pub fn event_count(m: &RunMetrics, event: &str) -> u64 {
    m.event_profile
        .iter()
        .filter(|r| r.event == event)
        .map(|r| r.count)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The variant names of the engine's `Ev::NAMES` table, read from the
    /// simulator's source (the table is crate-private).
    fn engine_event_names() -> Vec<String> {
        let src = include_str!("../../crates/core/src/sim/mod.rs");
        let start = src
            .find("const NAMES")
            .expect("Ev::NAMES is defined in core/src/sim/mod.rs");
        let body = &src[start..];
        let open = body.find("= [").expect("NAMES is an array literal");
        let close = body[open..].find("];").expect("NAMES array is closed") + open;
        body[open..close]
            .split('"')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn every_engine_event_has_a_layer() {
        let names = engine_event_names();
        assert!(names.len() >= 20, "parsed only {names:?}");
        for name in &names {
            assert!(
                layer_of(name).is_some(),
                "event {name} has no layer in EVENT_LAYER: its wall time would \
                 fall out of the per-layer ledger"
            );
        }
        assert_eq!(names.len(), EVENT_LAYER.len(), "stale EVENT_LAYER rows");
    }

    #[test]
    fn every_mapped_layer_is_reported() {
        for (event, layer) in EVENT_LAYER {
            assert!(LAYERS.contains(&layer), "{event} maps to unknown {layer}");
        }
    }
}
