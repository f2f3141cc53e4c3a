//! `waxman_reach`: the verifier, and the control for data-plane changes.
//!
//! Set-up builds the Waxman-425 world, its symbolic `reach_view` under
//! hot-potato steering and the routing oracle, and parses the committed
//! campus assertion file (its stub addressing is shared by both worlds).
//! The timed loop repeats full `check_assertions` calls. Netsim, policy
//! and LP do no work here, so a data-plane change should read as "no
//! change" on this workload.
//!
//! The verifier's input does not depend on the seed: the world is fixed
//! and the assertions are committed. Every report must equal the first,
//! and the first must equal the verdict recorded in
//! `expected/waxman_reach.txt`, which therefore holds for every seed.

use std::time::Instant;

use sdm_core::{EnforcementOptions, Strategy};
use sdm_verify::reach::{check_assertions, parse_assertions, Assertion, ReachReport, ReachView};

use crate::layers::SETUP_RUN;
use crate::trace::Tracer;
use crate::{
    build_world, median, past, repeated_setup, routing_bytes, tail, Args, Digest, Outcome, Topo,
    World,
};

const ASSERTIONS: &str = include_str!("../../results/assertions_campus.txt");
const EXPECTED: &str = include_str!("../expected/waxman_reach.txt");

struct Setup {
    world: World,
    view: ReachView,
    assertions: Vec<Assertion>,
}

fn setup(tr: &mut Tracer) -> Setup {
    let world = build_world(Topo::Waxman, tr);
    let view = tr.span("core.reach_view", || {
        sdm_core::reach_view(
            &world.controller,
            Strategy::HotPotato,
            None,
            &EnforcementOptions::default(),
        )
    });
    let assertions = tr.span("verify.parse_assertions", || {
        parse_assertions(ASSERTIONS).expect("committed assertion file parses")
    });
    Setup {
        world,
        view,
        assertions,
    }
}

fn check(s: &Setup, tr: &mut Tracer) -> (f64, ReachReport) {
    let routes = s.world.controller.routes();
    let t = Instant::now(); // lint:allow(wall-clock)
    let report = tr.span("verify.reach_check", || {
        check_assertions(&s.view, routes, &s.assertions)
    });
    (t.elapsed().as_secs_f64(), report)
}

/// The verdict in the recorded text form: flow classes, one line per
/// assertion, finding counts per code, and a digest of every finding
/// with its witness.
fn verdict(report: &ReachReport) -> String {
    use std::fmt::Write as _;
    let mut out = format!("flow_classes {}\n", report.flow_classes);
    for r in &report.results {
        let _ = writeln!(
            out,
            "assertion {} | holds {} | classes {}",
            r.assertion, r.holds, r.classes_checked
        );
    }
    let mut codes = std::collections::BTreeMap::new();
    for f in &report.findings {
        *codes.entry(f.code.as_str()).or_insert(0u64) += 1;
    }
    for (code, n) in codes {
        let _ = writeln!(out, "findings {code} {n}");
    }
    let mut d = Digest::default();
    for b in full_form(report).bytes() {
        d.word(u64::from(b));
    }
    let _ = writeln!(out, "report_digest {:016x}", d.finish());
    out
}

/// Every field of a report, witnesses included, in its JSON form.
fn full_form(report: &ReachReport) -> String {
    report.to_json().to_compact_string()
}

/// Checks a report against the first one, or records it as the first
/// after checking it against the expected verdict. Returns whether it
/// passed.
fn check_report(report: ReachReport, first: &mut Option<ReachReport>, out: &mut Outcome) -> bool {
    if let Some(f) = first {
        let same = full_form(&report) == full_form(f);
        out.check(same, || {
            "reach report differs from the first check's".into()
        });
        return same;
    }
    let got = verdict(&report);
    let ok = got == EXPECTED;
    out.check(ok, || {
        format!("verdict differs from expected/waxman_reach.txt:\n--- got\n{got}--- expected\n{EXPECTED}")
    });
    *first = Some(report);
    ok
}

fn describe(s: &Setup, args: &Args, out: &mut Outcome) {
    let mut d = Digest::default();
    for b in ASSERTIONS.bytes() {
        d.word(u64::from(b));
    }
    out.note(format!(
        "inputs: waxman world seed {} | {} assertions, assertion-file digest {:016x} | {} rules (seed {} does not change the verifier input)",
        crate::WORLD_SEED,
        s.assertions.len(),
        d.finish(),
        s.view.rules.len(),
        args.seed,
    ));
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        return run_traced(args, out);
    }
    let (setup_s, s) = repeated_setup(setup);
    describe(&s, args, &mut out);
    let mut walls = Vec::new();
    let mut first: Option<ReachReport> = None;
    let mut off = Tracer::new(false);
    let start = Instant::now(); // lint:allow(wall-clock)
    while walls.is_empty() || !past(start, args.seconds) {
        let (wall, report) = check(&s, &mut off);
        walls.push(wall);
        out.attempted += 1;
        out.failed += u64::from(!check_report(report, &mut first, &mut out));
    }
    let checks_per_s = walls.len() as f64 / walls.iter().sum::<f64>();
    let p50 = median(&walls);
    out.set("setup_s", setup_s);
    out.set("work_per_s", checks_per_s);
    out.set("iter_ms_p50", p50 * 1e3);
    let (pct, tail_s) = tail(&walls);
    out.set("iter_ms_tail", tail_s * 1e3);
    out.note(format!(
        "reach_checks_per_s {checks_per_s:.4} 1/s (full checks of every assertion / their wall)"
    ));
    out.note(format!(
        "checks {} | tail = p{pct:.1} of {} samples",
        walls.len(),
        walls.len()
    ));
    out
}

fn run_traced(args: &Args, mut out: Outcome) -> Outcome {
    let mut tr = Tracer::new(true);
    tr.set_run(SETUP_RUN);
    tr.enter("bench.setup");
    let s = setup(&mut tr);
    tr.exit();
    describe(&s, args, &mut out);

    tr.set_enabled(false);
    let mut plain = Vec::new();
    let mut first: Option<ReachReport> = None;
    let start = Instant::now(); // lint:allow(wall-clock)
    while plain.is_empty() || !past(start, args.seconds / 2.0) {
        let (wall, report) = check(&s, &mut tr);
        plain.push(wall);
        out.attempted += 1;
        out.failed += u64::from(!check_report(report, &mut first, &mut out));
    }
    tr.set_enabled(true);
    let mut traced = Vec::new();
    let start = Instant::now(); // lint:allow(wall-clock)
    while traced.is_empty() || !past(start, args.seconds / 2.0) {
        tr.set_run(traced.len() as u32 + 1);
        tr.enter("bench.check");
        let (wall, report) = check(&s, &mut tr);
        tr.exit();
        traced.push(wall);
        out.attempted += 1;
        out.failed += u64::from(!check_report(report, &mut first, &mut out));
    }
    let first = first.expect("at least one check ran");
    crate::layers::report_spans(&tr, &mut out);
    out.set("topology.routing_bytes", routing_bytes(&s.world));
    out.set("verify.flow_classes", first.flow_classes as f64);
    out.set("verify.findings", first.findings.len() as f64);
    out.set(
        "bench.trace_overhead_ratio",
        median(&traced) / median(&plain),
    );
    crate::finish_trace(&tr, args, &mut out);
    out
}
