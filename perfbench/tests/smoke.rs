//! Tiny-scale smoke test: every workload, plain and traced, with a
//! fixed step count so the two runs end in the same state.

use perfbench::chain::Chain;
use perfbench::ledger::Ledger;
use perfbench::wiki::Wiki;
use perfbench::{run, Budget, Report, Sizes, Workload};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}"))
}

fn check_report(what: &str, r: &Report) {
    assert_eq!(r.failed, 0, "{what}: failed ops: {:?}", r.notes);
    assert!(r.correct, "{what}: not correct: {:?}", r.notes);
    assert!(r.attempted > 0, "{what}: no ops");
    for m in &r.metrics {
        assert!(m.value.is_finite(), "{what}: {} is {}", m.name, m.value);
    }
}

fn smoke<W: Workload>(name: &str, steps: u64) {
    let sizes = Sizes::tiny();
    let plain = run::<W>(
        7,
        &sizes,
        Budget::Steps(steps),
        false,
        &scratch(&format!("{name}-plain")),
    );
    check_report(&format!("{name} plain"), &plain);
    let traced = run::<W>(
        7,
        &sizes,
        Budget::Steps(steps),
        true,
        &scratch(&format!("{name}-traced")),
    );
    check_report(&format!("{name} traced"), &traced);

    // The traced run makes an untraced pass and then a traced pass over
    // the same steps; both, and the separate plain run, end in one state.
    assert_eq!(traced.final_heads.len(), 2);
    assert_eq!(
        traced.final_heads[0], traced.final_heads[1],
        "{name}: traced state differs"
    );
    assert_eq!(
        plain.final_heads[0], traced.final_heads[1],
        "{name}: runs diverge"
    );
    // No span is longer than the op that contains it.
    assert_eq!(traced.violations, 0, "{name}: span longer than its op");

    let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    for want in [
        "pos.seek_us",
        "chunk.get_us",
        "core.commit_us",
        "read.residual_us",
        "trace.overhead",
        "host.ref_ms",
    ] {
        assert!(names.contains(&want), "{name}: traced run lacks {want}");
    }
    let plain_names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
    assert!(plain_names.contains(&"setup_s") && plain_names.contains(&"read_p95_us"));
}

#[test]
fn ledger_smoke() {
    smoke::<Ledger>("ledger", 30);
}

#[test]
fn wiki_smoke() {
    smoke::<Wiki>("wiki", 2000);
}

#[test]
fn chain_smoke() {
    smoke::<Chain>("chain", 40);
}
