//! Output checks. Each failed check marks the unit it concerns as
//! failed: every root request of that unit counts toward `failed`.

use crate::measure::{RunSummary, Unit};
use crate::world::Workload;
use serde::Node;

/// Slack on the Little's-law bound of requests still in flight when a
/// run stops: at most this many times (arrival rate × slowest latency).
const IN_FLIGHT_SLACK: f64 = 2.0;
/// Largest share of loop wall the per-layer ledger may leave
/// unattributed.
const MAX_UNATTRIBUTED: f64 = 0.02;

/// One evaluated check.
struct Check {
    name: String,
    unit: usize,
    passed: bool,
    detail: String,
}

/// Every check of a run.
#[derive(Default)]
pub struct Checks {
    list: Vec<Check>,
}

impl Checks {
    fn check(&mut self, unit: usize, name: impl Into<String>, passed: bool, detail: String) {
        self.list.push(Check {
            name: name.into(),
            unit,
            passed,
            detail,
        });
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.list.iter().all(|c| c.passed)
    }

    /// `(attempted, failed)` root requests over all units: a unit with a
    /// failed check fails every root it started.
    pub fn tally(&self, units: &[Unit]) -> (u64, u64) {
        let mut attempted = 0;
        let mut failed = 0;
        for (i, u) in units.iter().enumerate() {
            let started: u64 = u.sims().map(|r| r.started).sum();
            let unit_ok = self.list.iter().all(|c| c.unit != i || c.passed);
            attempted += started;
            failed += if unit_ok {
                u.sims().map(|r| r.failed).sum()
            } else {
                started
            };
        }
        (attempted, failed)
    }

    /// One line per check, failures first.
    pub fn render(&self) -> String {
        let passed = self.list.iter().filter(|c| c.passed).count();
        let mut out = format!("perfbench: {passed}/{} checks passed\n", self.list.len());
        for c in self.list.iter().filter(|c| !c.passed) {
            out.push_str(&format!(
                "perfbench: FAILED unit {} {}: {}\n",
                c.unit + 1,
                c.name,
                c.detail
            ));
        }
        out
    }

    /// The checks as JSON, for the result file.
    pub fn node(&self) -> Node {
        Node::Seq(
            self.list
                .iter()
                .map(|c| {
                    Node::Map(vec![
                        ("name".into(), Node::Str(c.name.clone())),
                        ("unit".into(), Node::UInt(c.unit as u128 + 1)),
                        ("passed".into(), Node::Bool(c.passed)),
                        ("detail".into(), Node::Str(c.detail.clone())),
                    ])
                })
                .collect(),
        )
    }
}

/// Checks on one simulation: the request ledger closes, the fluid plane
/// settles exactly, and the per-layer ledger reconciles with loop wall.
fn run_checks(checks: &mut Checks, unit: usize, r: &RunSummary) {
    let done = r.ok + r.failed;
    let in_flight = r.started.saturating_sub(done);
    let slowest_s = r.classes.iter().map(|c| c.max_ms).fold(0.0, f64::max) / 1e3;
    let bound = IN_FLIGHT_SLACK * r.started as f64 / r.duration_s * slowest_s;
    checks.check(
        unit,
        format!("{}: request ledger", r.label),
        r.started >= done && in_flight as f64 <= bound,
        format!(
            "started {} ok {} failed {} in flight {in_flight} (bound {bound:.1})",
            r.started, r.ok, r.failed
        ),
    );
    checks.check(
        unit,
        format!("{}: fluid settlement", r.label),
        r.counts.settle_err_bytes == 0,
        format!(
            "|injected - delivered - dropped| = {} B",
            r.counts.settle_err_bytes
        ),
    );
    let loop_s = r.ledger.loop_ns as f64 / 1e9;
    let unattributed = r.ledger.unattributed_s();
    checks.check(
        unit,
        format!("{}: layer ledger reconciles", r.label),
        r.ledger.unmapped_ns == 0 && unattributed.abs() <= MAX_UNATTRIBUTED * loop_s,
        format!(
            "loop {loop_s:.4}s, unattributed {unattributed:.6}s, unmapped {}ns",
            r.ledger.unmapped_ns
        ),
    );
}

/// Run every output check over a run's units.
pub fn run_all(w: Workload, units: &[Unit], checks: &mut Checks) {
    for (i, u) in units.iter().enumerate() {
        for r in u.sims() {
            run_checks(checks, i, r);
        }

        let reference = u.flight_reference().fingerprint;
        let f = &u.flight;
        checks.check(
            i,
            "recording leaves the run unchanged",
            f.record.fingerprint == reference,
            format!("{:016x} vs plain {reference:016x}", f.record.fingerprint),
        );
        checks.check(
            i,
            "replay reproduces the capture",
            f.captured.is_some()
                && f.replayed.as_ref().ok() == f.captured.as_ref()
                && f.replay.fingerprint == reference,
            format!(
                "captured {:?} events, replayed {:?}, fingerprint {:016x}",
                f.captured, f.replayed, f.replay.fingerprint
            ),
        );

        // Determinism: every simulated statistic repeats across units.
        for (a, b) in units[0].sims().zip(u.sims()).filter(|_| i > 0) {
            checks.check(
                i,
                format!("{}: deterministic", b.label),
                a.fingerprint == b.fingerprint,
                format!("{:016x} vs unit 1 {:016x}", b.fingerprint, a.fingerprint),
            );
        }
    }

    if w == Workload::Fig4Elibrary {
        let (base, proto) = (&units[0].main[0], &units[0].main[1]);
        let (b, p) = (
            base.class("latency-sensitive"),
            proto.class("latency-sensitive"),
        );
        checks.check(
            0,
            "prototype lowers LS p50 and p90",
            p.p50_ms < b.p50_ms && p.p90_ms < b.p90_ms,
            format!(
                "p50 {:.2} -> {:.2} ms, p90 {:.2} -> {:.2} ms",
                b.p50_ms, p.p50_ms, b.p90_ms, p.p90_ms
            ),
        );
    }
}
