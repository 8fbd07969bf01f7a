//! `repro`'s argument errors: usage on stderr and exit 2, never a panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn assert_usage_error(args: &[&str], names: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(names), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn a_misspelt_fidelity_is_an_error() {
    assert_usage_error(&["fig2", "bogus"], "quick|standard|paper");
    assert_usage_error(
        &["all", "bogus", "--check", "results"],
        "quick|standard|paper",
    );
}

#[test]
fn unknown_entries_and_incomplete_all_are_errors() {
    assert_usage_error(&["fig4"], "unknown entry 'fig4'");
    assert_usage_error(&["all", "quick"], "--out DIR or --check DIR");
}

#[test]
fn simulate_rejects_inputs_no_run_can_serve() {
    assert_usage_error(&["simulate", "--workers", "0"], "--workers");
    assert_usage_error(&["simulate", "--load", "-1"], "--load");
    assert_usage_error(&["simulate", "--requests", "0"], "--requests");
}

#[test]
fn list_names_every_entry() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let listed = String::from_utf8_lossy(&out.stdout);
    for e in &concord_bench::ENTRIES {
        assert!(listed.contains(e.name), "{} missing from --list", e.name);
    }
}
