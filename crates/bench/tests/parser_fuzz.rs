//! Fuzzing the operator-facing text parsers, `parse_policies` and
//! `parse_assertions`, and the JSON reader `Json::parse` with the
//! `sdm-util` prop harness.
//!
//! Inputs are random bytes and mutated copies of valid documents: the
//! committed assertion files, the rendered evaluation policy set and the
//! committed `results/*.json` goldens. JSON also gets deeply nested `[`
//! and `{` runs. A parser must return `Err` on bad input, never panic or
//! abort; whatever it accepts must survive the printer (`policy_to_line`,
//! `Assertion`'s `Display`, `Json::to_compact_string`) and parse back to
//! the same value.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use sdm_netsim::AddressPlan;
use sdm_policy::{parse_policies, policy_to_line};
use sdm_util::json::{Json, MAX_DEPTH};
use sdm_util::prop::{check, Config};
use sdm_util::StdRng;
use sdm_verify::reach::parse_assertions;
use sdm_workload::{evaluation_policies, PolicyClassCounts};

/// Bytes the mutators favour: the grammars' own tokens, so mutations land
/// near the parsers' decision points instead of being rejected at once.
const ALPHABET: &[u8] = b"0123456789./-*=>,# \n\tabcdefpstxFWIDSTMNPisolatewyvrupk\xc3\xa9\xff";

/// Bytes the JSON mutators favour.
const JSON_ALPHABET: &[u8] = b"{}[]\":,0123456789.eE+- \n\\utrfalsn\xe2\x9f\xa8";

/// The committed files under `results/`, by name.
fn committed(files: &[&str]) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    files
        .iter()
        .map(|f| {
            let path = root.join(f);
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        })
        .collect()
}

fn seed_documents() -> Vec<String> {
    let mut docs = committed(&[
        "results/assertions_campus.txt",
        "results/assertions_hier.txt",
    ]);
    let plan = sdm_topology::campus::campus(1);
    let set = evaluation_policies(&AddressPlan::new(&plan), PolicyClassCounts::default(), 3).set;
    let mut text = String::from("# evaluation policies, campus seed 1\n");
    for (_, p) in set.iter() {
        text.push_str(&policy_to_line(p));
        text.push('\n');
    }
    text.push_str("src=10.0.0.0/8 dport=8000-8080 proto=udp => NF7, TM # custom\n");
    text.push_str("dst=* proto=4 => permit\n");
    docs.push(text);
    docs
}

/// The committed JSON goldens (the reach report and corpus, and the
/// telemetry snapshot).
fn json_documents() -> Vec<String> {
    committed(&[
        "results/reach_golden.json",
        "results/reach_corpus.json",
        "results/telemetry_golden.json",
    ])
}

fn random_byte(rng: &mut StdRng) -> u8 {
    byte_from(ALPHABET, rng)
}

fn byte_from(alphabet: &[u8], rng: &mut StdRng) -> u8 {
    if rng.gen_bool(0.8) {
        alphabet[rng.gen_range(0..alphabet.len())]
    } else {
        rng.next_u32() as u8
    }
}

/// One mutation `(kind, position, byte)` of a document.
type Mutation = (u8, u32, u8);

fn mutate(doc: &str, mutations: &[Mutation]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(kind, pos, byte) in mutations {
        let at = if bytes.is_empty() {
            0
        } else {
            pos as usize % bytes.len()
        };
        match kind % 5 {
            0 if !bytes.is_empty() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if !bytes.is_empty() => {
                let end = (at + 1 + usize::from(byte % 8)).min(bytes.len());
                bytes.drain(at..end);
            }
            3 => {
                // Duplicate a short span, e.g. a token or a whole field.
                let end = (at + 1 + usize::from(byte % 16)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `parse`, turning a panic into an error message.
fn no_panic<T>(what: &str, text: &str, parse: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(parse)).map_err(|_| format!("{what} panicked on {text:?}"))
}

fn policies_hold(text: &str) -> Result<(), String> {
    let Ok(set) = no_panic("parse_policies", text, || parse_policies(text))? else {
        return Ok(());
    };
    let printed: String = set.iter().map(|(_, p)| policy_to_line(p) + "\n").collect();
    let reparsed = no_panic("parse_policies", &printed, || parse_policies(&printed))?
        .map_err(|e| format!("printed policies do not parse: {e}\n{printed}"))?;
    sdm_util::prop_assert!(
        reparsed == set,
        "round trip changed the policies:\n{printed}"
    );
    Ok(())
}

fn assertions_hold(text: &str) -> Result<(), String> {
    let Ok(list) = no_panic("parse_assertions", text, || parse_assertions(text))? else {
        return Ok(());
    };
    let printed: String = list.iter().map(|a| format!("{a}\n")).collect();
    let reparsed = no_panic("parse_assertions", &printed, || parse_assertions(&printed))?
        .map_err(|e| format!("printed assertions do not parse: {e}\n{printed}"))?;
    sdm_util::prop_assert!(
        reparsed == list,
        "round trip changed the assertions:\n{printed}"
    );
    Ok(())
}

fn json_holds(text: &str) -> Result<(), String> {
    let Ok(value) = no_panic("Json::parse", text, || Json::parse(text))? else {
        return Ok(());
    };
    let printed = value.to_compact_string();
    let reparsed = no_panic("Json::parse", &printed, || Json::parse(&printed))?
        .map_err(|e| format!("printed JSON does not parse: {e}\n{printed}"))?;
    sdm_util::prop_assert!(
        reparsed == value,
        "round trip changed the value:\n{printed}"
    );
    Ok(())
}

fn both_hold(text: &str) -> Result<(), String> {
    policies_hold(text)?;
    assertions_hold(text)
}

#[test]
fn seed_documents_parse_and_round_trip() {
    let docs = seed_documents();
    assert!(parse_assertions(&docs[0]).is_ok_and(|a| !a.is_empty()));
    assert!(parse_assertions(&docs[1]).is_ok_and(|a| !a.is_empty()));
    assert!(parse_policies(&docs[2]).is_ok_and(|s| s.len() > 30));
    for doc in &docs {
        both_hold(doc).unwrap();
    }
}

#[test]
fn random_bytes_never_panic() {
    check(
        "parsers on random bytes",
        &Config::with_cases(2048),
        |rng| {
            let n = rng.gen_range(0..200usize);
            (0..n).map(|_| random_byte(rng)).collect::<Vec<u8>>()
        },
        |bytes| both_hold(&String::from_utf8_lossy(bytes)),
    );
}

#[test]
fn mutated_documents_never_panic_and_round_trip() {
    let docs = seed_documents();
    check(
        "parsers on mutated documents",
        &Config::with_cases(2048),
        |rng| {
            let doc = rng.gen_range(0..docs.len() as u32);
            let n = rng.gen_range(1..12usize);
            let mutations: Vec<Mutation> = (0..n)
                .map(|_| (rng.gen_range(0..5u8), rng.next_u32(), random_byte(rng)))
                .collect();
            (doc, mutations)
        },
        |(doc, mutations)| both_hold(&mutate(&docs[*doc as usize % docs.len()], mutations)),
    );
}

#[test]
fn json_goldens_parse_and_round_trip() {
    for doc in json_documents() {
        assert!(Json::parse(&doc).is_ok());
        json_holds(&doc).unwrap();
    }
}

#[test]
fn json_random_bytes_never_panic() {
    check(
        "Json::parse on random bytes",
        &Config::with_cases(2048),
        |rng| {
            let n = rng.gen_range(0..200usize);
            (0..n)
                .map(|_| byte_from(JSON_ALPHABET, rng))
                .collect::<Vec<u8>>()
        },
        |bytes| json_holds(&String::from_utf8_lossy(bytes)),
    );
}

#[test]
fn json_mutated_goldens_never_panic_and_round_trip() {
    let docs = json_documents();
    check(
        "Json::parse on mutated goldens",
        &Config::with_cases(256),
        |rng| {
            let doc = rng.gen_range(0..docs.len() as u32);
            let n = rng.gen_range(1..12usize);
            let mutations: Vec<Mutation> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0..5u8),
                        rng.next_u32(),
                        byte_from(JSON_ALPHABET, rng),
                    )
                })
                .collect();
            (doc, mutations)
        },
        |(doc, mutations)| json_holds(&mutate(&docs[*doc as usize % docs.len()], mutations)),
    );
}

#[test]
fn json_deep_nesting_is_an_error_not_an_abort() {
    // (depth, opener kind, closed): runs of `[`, `{"k":` or both mixed,
    // around the nesting limit and far beyond it.
    check(
        "Json::parse on deep nesting",
        &Config::with_cases(256),
        |rng| {
            let depth = match rng.gen_range(0..4u8) {
                0 => rng.gen_range(0..MAX_DEPTH as u32 + 8),
                1 => MAX_DEPTH as u32 + rng.gen_range(0..3u32),
                2 => rng.gen_range(0..10_000u32),
                _ => 1_000_000,
            };
            (depth, rng.gen_range(0..3u8), rng.gen_bool(0.5))
        },
        |&(depth, kind, closed)| {
            let mut text = String::new();
            let mut closers = Vec::new();
            for level in 0..depth {
                if kind == 0 || (kind == 2 && level % 2 == 0) {
                    text.push('[');
                    closers.push(']');
                } else {
                    text.push_str("{\"k\":");
                    closers.push('}');
                }
            }
            if closed {
                text.push_str("null");
                text.extend(closers.iter().rev());
            }
            let parsed = no_panic("Json::parse", "deep nesting", || Json::parse(&text))?;
            if closed && depth as usize <= MAX_DEPTH {
                sdm_util::prop_assert!(parsed.is_ok(), "rejected depth {depth}: {parsed:?}");
                json_holds(&text)?;
            } else {
                sdm_util::prop_assert!(parsed.is_err(), "accepted depth {depth}");
            }
            Ok(())
        },
    );
}
