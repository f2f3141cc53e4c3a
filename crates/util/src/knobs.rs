//! The `SDM_*` environment knobs and their validation.
//!
//! The libraries read their knobs lazily and fall back to a default on a
//! value they cannot use, so a typo such as `SDM_BATCH=25b` would quietly
//! turn a 1-vs-256 determinism comparison into 256-vs-256. Binaries call
//! [`check_env`] once at start-up and refuse to run on a malformed knob;
//! the libraries parse counts through [`count`], so both sides agree on
//! what a well-formed value is.
//!
//! ```no_run
//! if let Err(e) = sdm_util::knobs::check_env() {
//!     eprintln!("error: {e}"); // e.g. SDM_SHARDS="0x4": expected a positive decimal integer
//!     std::process::exit(2);
//! }
//! ```

use std::fmt;

/// What a knob accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A positive decimal integer (a count of shards, threads, events).
    Count,
    /// `0` (off) or `1` (on).
    Switch,
}

impl Kind {
    fn expected(self) -> &'static str {
        match self {
            Kind::Count => "a positive decimal integer",
            Kind::Switch => "0 or 1",
        }
    }

    fn accepts(self, value: &str) -> bool {
        match self {
            Kind::Count => parse_count(value).is_some(),
            Kind::Switch => value == "0" || value == "1",
        }
    }
}

/// Every knob the libraries read, with what it accepts. (The
/// `SDM_BENCH_*` knobs belong to the micro-bench harness, not to any
/// binary.)
const KNOBS: &[(&str, Kind)] = &[
    ("SDM_BATCH", Kind::Count),
    ("SDM_SHARDS", Kind::Count),
    ("SDM_THREADS", Kind::Count),
    ("SDM_PAR_THREADS", Kind::Count),
    ("SDM_TELEMETRY", Kind::Switch),
];

/// A knob set to a value it does not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The variable, e.g. `SDM_BATCH`.
    pub name: &'static str,
    /// The rejected value (lossily decoded if it was not UTF-8).
    pub value: String,
    /// What the knob accepts.
    pub expected: &'static str,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "environment variable {}={:?} is malformed: expected {}",
            self.name, self.value, self.expected
        )
    }
}

impl std::error::Error for KnobError {}

fn parse_count(value: &str) -> Option<usize> {
    value.parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Checks every knob in the process environment.
///
/// # Errors
///
/// The first knob (in a fixed order) whose value is malformed. Unset and
/// empty knobs are fine: they mean "use the default".
pub fn check_env() -> Result<(), KnobError> {
    check_with(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
}

/// [`check_env`] over an arbitrary lookup, so tests need not touch the
/// process environment.
fn check_with(lookup: impl Fn(&str) -> Option<String>) -> Result<(), KnobError> {
    for &(name, kind) in KNOBS {
        match lookup(name) {
            Some(value) if !value.is_empty() && !kind.accepts(&value) => {
                return Err(KnobError {
                    name,
                    value,
                    expected: kind.expected(),
                });
            }
            _ => {}
        }
    }
    Ok(())
}

/// The count knob `name`: `Some(n)` when set to a positive decimal integer,
/// `None` when unset or malformed (which [`check_env`] reports).
pub fn count(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| parse_count(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_one(name: &str, value: &str) -> Result<(), KnobError> {
        check_with(|n| (n == name).then(|| value.to_string()))
    }

    #[test]
    fn well_formed_values_pass() {
        assert_eq!(check_with(|_| None), Ok(()));
        for (name, value) in [
            ("SDM_BATCH", "1"),
            ("SDM_BATCH", "256"),
            ("SDM_SHARDS", "4"),
            ("SDM_THREADS", "2"),
            ("SDM_TELEMETRY", "0"),
            ("SDM_TELEMETRY", "1"),
            ("SDM_SHARDS", ""),
        ] {
            assert_eq!(check_one(name, value), Ok(()), "{name}={value}");
        }
    }

    #[test]
    fn malformed_values_are_named() {
        for (name, value) in [
            ("SDM_BATCH", "garbage"),
            ("SDM_BATCH", "0"),
            ("SDM_BATCH", " 256"),
            ("SDM_SHARDS", "0x4"),
            ("SDM_SHARDS", "-1"),
            ("SDM_THREADS", "2.0"),
            ("SDM_PAR_THREADS", "many"),
            ("SDM_TELEMETRY", "on"),
        ] {
            let err = check_one(name, value).unwrap_err();
            assert_eq!((err.name, err.value.as_str()), (name, value));
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    #[test]
    fn counts_are_positive() {
        assert_eq!(parse_count("4"), Some(4));
        assert_eq!(parse_count("0"), None);
        assert_eq!(parse_count("4x"), None);
    }
}
