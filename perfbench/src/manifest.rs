//! The run manifest: what was measured, where, and with which build.

use crate::world::Workload;
use serde::Node;
use std::path::Path;
use std::process::Command;

/// Output of `git <args>` in the repository holding the benchmark, when
/// that directory is a git checkout.
fn git(args: &[&str]) -> Option<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    if !root.join(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn str_node(s: impl Into<String>) -> Node {
    Node::Str(s.into())
}

/// The manifest of one run.
pub fn manifest(w: Workload, seed: u64, seconds: f64, trace: bool, units: usize) -> Node {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map_or(Node::Null, |s| Node::Bool(!s.is_empty()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Node::Map(vec![
        ("workload".into(), str_node(w.name())),
        ("seed".into(), Node::UInt(seed.into())),
        ("seconds".into(), Node::Float(seconds)),
        ("trace".into(), Node::Bool(trace)),
        ("units".into(), Node::UInt(units as u128)),
        ("params".into(), w.describe()),
        ("git_rev".into(), rev.map_or(Node::Null, str_node)),
        ("git_dirty".into(), dirty),
        ("nproc".into(), Node::UInt(nproc as u128)),
        ("rustc".into(), str_node(env!("PERFBENCH_RUSTC"))),
        ("profile".into(), str_node(env!("PERFBENCH_PROFILE"))),
        ("opt_level".into(), str_node(env!("PERFBENCH_OPT_LEVEL"))),
        (
            "target".into(),
            str_node(format!(
                "{}-{}",
                std::env::consts::ARCH,
                std::env::consts::OS
            )),
        ),
    ])
}
