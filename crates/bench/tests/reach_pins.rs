//! Pins of the reach checker's complete verdicts on the evaluation
//! worlds: an FNV-1a digest of the compact JSON report (every finding,
//! witness path and replay scenario) plus the flow-class count.
//!
//! Three passes cover the three steering supports:
//!
//! * Waxman-425 under hot-potato (singleton supports — the pass the
//!   `waxman_reach` benchmark times);
//! * Waxman-425 under random steering (multi-member supports);
//! * campus under load balancing, with the weights of the seed-1 cold
//!   Eq. (2) solve (weighted supports).
//!
//! A change to the checker that keeps these digests keeps every byte of
//! every report.

use sdm_bench::{ExperimentConfig, World};
use sdm_core::{EnforcementOptions, LbOptions, Strategy};
use sdm_verify::reach::{check_assertions, parse_assertions, Assertion, ReachView};

const CAMPUS_ASSERTS: &str = include_str!("../../../results/assertions_campus.txt");

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn assertions() -> Vec<Assertion> {
    parse_assertions(CAMPUS_ASSERTS).expect("campus assertions parse")
}

fn check_pin(name: &str, world: &World, view: &ReachView, want: (usize, u64)) {
    let report = check_assertions(view, world.controller.routes(), &assertions());
    let json = report.to_json().to_compact_string();
    let got = (report.flow_classes, fnv1a(&json));
    assert!(
        got == want,
        "{name}: reach verdict changed: {} flow classes, report digest {:#018x} \
         ({} findings, {} bytes)",
        got.0,
        got.1,
        report.findings.len(),
        json.len()
    );
}

#[test]
fn waxman_hot_potato_and_random_verdicts_are_pinned() {
    let world = World::build(&ExperimentConfig::waxman(1));
    let options = EnforcementOptions::default();
    // Both reports are the same: the file's two findings are
    // default-permit classes, which have no steering stage. Random
    // steering still runs every multi-member support decision of the
    // loop-free pass.
    for (name, strategy, want) in [
        (
            "waxman hot-potato",
            Strategy::HotPotato,
            (175_582, 0x8f7f_4917_e7e2_87fb),
        ),
        (
            "waxman random",
            Strategy::Random { salt: 0xDA7A },
            (175_582, 0x8f7f_4917_e7e2_87fb),
        ),
    ] {
        let view = sdm_core::reach_view(&world.controller, strategy, None, &options);
        check_pin(name, &world, &view, want);
    }
}

#[test]
fn campus_load_balanced_verdict_is_pinned() {
    let world = World::build(&ExperimentConfig::campus(1));
    let flows = world.flows(100_000, 1);
    let measured = world.run_strategy(Strategy::HotPotato, None, &flows);
    let (weights, _) = world
        .controller
        .solve_load_balanced(&measured.measurements, LbOptions::default())
        .expect("the campus Eq. (2) program solves");
    let view = sdm_core::reach_view(
        &world.controller,
        Strategy::LoadBalanced,
        Some(&weights),
        &EnforcementOptions::default(),
    );
    // The pass is only worth pinning if some decision really splits.
    let split = view.plan.weights.as_ref().is_some_and(|w| {
        w.columns
            .iter()
            .any(|c| c.weights.iter().filter(|&&(_, v)| v > 0.0).count() > 1)
    });
    assert!(
        split,
        "the LB solve must split some column over several boxes"
    );
    check_pin(
        "campus load-balanced",
        &world,
        &view,
        (1302, 0xcf0d_c670_4852_6e5b),
    );
}
