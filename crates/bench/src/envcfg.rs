//! `FLEXTM_*` environment-variable parsing that fails loudly.
//!
//! Every bench binary sizes itself from `FLEXTM_*` variables. The
//! original pattern — `var(..).ok().and_then(|v| v.parse().ok())
//! .unwrap_or(default)` — silently fell back to the default on a typo
//! (`FLEXTM_SCHED_THREADS=sixteen` quietly measured 16 threads), which
//! is poison for a benchmark harness: the recorded sample claims a
//! configuration that was never run. Parsing here returns a named
//! [`EnvParseError`] instead; binaries surface it via [`or_exit`].
//!
//! The value-level parsers ([`parse_value`], [`flag_value`]) are pure
//! so tests can cover the error paths without mutating the process
//! environment (tests run in parallel; `set_var` would race).

use std::fmt;
use std::str::FromStr;

/// A `FLEXTM_*` variable held a value that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvParseError {
    /// The environment variable's name.
    pub var: &'static str,
    /// The offending value (lossy-decoded if not UTF-8).
    pub value: String,
    /// What a valid value would have looked like.
    pub expected: &'static str,
}

impl fmt::Display for EnvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {} (unset the variable for the default)",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvParseError {}

/// Parses `value` (the raw contents of `var`, `None` when unset) as a
/// `T`, falling back to `default` only when the variable is unset.
pub fn parse_value<T: FromStr>(
    var: &'static str,
    value: Option<&str>,
    default: T,
) -> Result<T, EnvParseError> {
    match value {
        None => Ok(default),
        Some(raw) => raw.trim().parse().map_err(|_| EnvParseError {
            var,
            value: raw.to_string(),
            expected: std::any::type_name::<T>(),
        }),
    }
}

/// Parses `value` as a boolean flag: unset, empty or `0` is off, `1`
/// is on, anything else is an error (the old `== Ok("1")` pattern read
/// `FLEXTM_SCHED_STRICT=yes` as *off*).
pub fn flag_value(var: &'static str, value: Option<&str>) -> Result<bool, EnvParseError> {
    match value.map(str::trim) {
        None | Some("") | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(raw) => Err(EnvParseError {
            var,
            value: raw.to_string(),
            expected: "1 or 0",
        }),
    }
}

/// Reads `var` from the process environment. Non-UTF-8 values are an
/// error, not a silent default.
fn read(var: &'static str) -> Result<Option<String>, EnvParseError> {
    match std::env::var(var) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => Err(EnvParseError {
            var,
            value: raw.to_string_lossy().into_owned(),
            expected: "a UTF-8 value",
        }),
    }
}

/// Reads and parses `var`, with `default` when unset.
pub fn parse<T: FromStr>(var: &'static str, default: T) -> Result<T, EnvParseError> {
    parse_value(var, read(var)?.as_deref(), default)
}

/// Reads `var` as a boolean flag (`1` on; unset/empty/`0` off).
pub fn flag(var: &'static str) -> Result<bool, EnvParseError> {
    flag_value(var, read(var)?.as_deref())
}

/// Unwraps an environment parse in a binary: prints the named error to
/// stderr and exits 2 (distinct from a benchmark failure).
pub fn or_exit<T>(result: Result<T, EnvParseError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_uses_default() {
        assert_eq!(parse_value("FLEXTM_TXNS", None, 96u64), Ok(96));
        assert_eq!(flag_value("FLEXTM_SCHED_STRICT", None), Ok(false));
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(parse_value("FLEXTM_TXNS", Some("128"), 96u64), Ok(128));
        assert_eq!(parse_value("FLEXTM_TXNS", Some(" 128 "), 96u64), Ok(128));
        assert_eq!(flag_value("FLEXTM_SCHED_STRICT", Some("1")), Ok(true));
        assert_eq!(flag_value("FLEXTM_SCHED_STRICT", Some("0")), Ok(false));
    }

    /// The regression this module exists for: an invalid value must be
    /// a named error, never a silent fallback to the default.
    #[test]
    fn invalid_values_name_the_variable() {
        let err = parse_value("FLEXTM_SCHED_THREADS", Some("sixteen"), 16usize).unwrap_err();
        assert_eq!(err.var, "FLEXTM_SCHED_THREADS");
        assert_eq!(err.value, "sixteen");
        let msg = err.to_string();
        assert!(msg.contains("FLEXTM_SCHED_THREADS"), "{msg}");
        assert!(msg.contains("sixteen"), "{msg}");

        assert!(parse_value("FLEXTM_TXNS", Some(""), 96u64).is_err());
        assert!(parse_value("FLEXTM_TXNS", Some("-3"), 96u64).is_err());
    }

    #[test]
    fn flags_reject_unrecognized_values() {
        let err = flag_value("FLEXTM_CONFLICT_WIDE", Some("yes")).unwrap_err();
        assert_eq!(err.var, "FLEXTM_CONFLICT_WIDE");
        assert!(err.to_string().contains("yes"));
    }
}
