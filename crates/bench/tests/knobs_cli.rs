//! CLI tests for the start-up knob check: a malformed `SDM_*` environment
//! knob must stop an experiment binary with exit status 2 before any work,
//! instead of silently falling back to a default (which would make a
//! `ci.sh` 1-vs-256 or 1-vs-4 comparison compare a run with itself).

use std::process::{Command, Output};

fn run(bin: &str, knob: &str, value: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .env_remove("SDM_BATCH")
        .env_remove("SDM_SHARDS")
        .env(knob, value)
        .args(args)
        .output()
        .expect("binary must spawn")
}

fn assert_rejected(out: &Output, knob: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(knob), "stderr must name {knob}, got: {err}");
    assert!(out.stdout.is_empty(), "no work may start: {out:?}");
}

#[test]
fn garbage_batch_exits_2() {
    let out = run(
        env!("CARGO_BIN_EXE_table3_distribution"),
        "SDM_BATCH",
        "garbage",
        &[],
    );
    assert_rejected(&out, "SDM_BATCH");
}

#[test]
fn hex_shard_count_exits_2() {
    let out = run(env!("CARGO_BIN_EXE_resteer"), "SDM_SHARDS", "0x4", &[]);
    assert_rejected(&out, "SDM_SHARDS");
}

#[test]
fn well_formed_knobs_pass_the_check() {
    let out = run(
        env!("CARGO_BIN_EXE_bench_gate"),
        "SDM_SHARDS",
        "4",
        &["--help"],
    );
    assert!(out.status.success(), "{out:?}");
}
