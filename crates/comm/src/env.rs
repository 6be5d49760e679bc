//! Strict parsing of `AGCM_*` environment variables.
//!
//! Every runtime knob read from the environment goes through this module.
//! The original readers used `.ok().and_then(parse).unwrap_or(default)`
//! chains, which silently swallowed typos: `AGCM_THREADS=8x` ran
//! single-threaded, `AGCM_COMM_TIMEOUT_MS=30s` silently fell back to the
//! 30 s default, and a malformed `AGCM_FAULT_SEED` replayed the *default*
//! fault schedule instead of the requested one — the worst possible failure
//! mode for knobs whose whole point is reproducibility.  Here a set-but-
//! malformed value is a loud, typed error; only a genuinely *unset*
//! variable falls back to its default.

use std::fmt;
use std::str::FromStr;

/// A set-but-unusable environment variable: the name, the offending value,
/// and why it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// Variable name, e.g. `AGCM_THREADS`.
    pub name: String,
    /// The raw value found in the environment.
    pub value: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: {} (unset the variable to use the default)",
            self.name, self.value, self.reason
        )
    }
}

impl std::error::Error for EnvError {}

/// Parse an optional environment variable strictly.
///
/// * unset → `Ok(None)`;
/// * set to a value that parses (after trimming surrounding whitespace) →
///   `Ok(Some(v))`;
/// * set but empty, whitespace-only, or unparsable → `Err(EnvError)`.
pub fn parse_env<T>(name: &str) -> Result<Option<T>, EnvError>
where
    T: FromStr,
    T::Err: fmt::Display,
{
    parse_value(name, std::env::var(name).ok().as_deref())
}

/// [`parse_env`] of a value already looked up (`None`: unset), so a caller
/// can be tested without touching the process environment.
pub(crate) fn parse_value<T>(name: &str, raw: Option<&str>) -> Result<Option<T>, EnvError>
where
    T: FromStr,
    T::Err: fmt::Display,
{
    let Some(raw) = raw else {
        return Ok(None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(EnvError {
            name: name.to_string(),
            value: raw.to_string(),
            reason: "empty value".to_string(),
        });
    }
    trimmed.parse::<T>().map(Some).map_err(|e| EnvError {
        name: name.to_string(),
        value: raw.to_string(),
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global environment mutations: each test uses its own unique
    // variable name so concurrently running tests cannot race.

    #[test]
    fn unset_is_none() {
        assert_eq!(parse_env::<u64>("AGCM_TEST_ENV_UNSET"), Ok(None));
    }

    #[test]
    fn valid_value_parses() {
        std::env::set_var("AGCM_TEST_ENV_VALID", "42");
        assert_eq!(parse_env::<usize>("AGCM_TEST_ENV_VALID"), Ok(Some(42)));
    }

    #[test]
    fn surrounding_whitespace_is_trimmed() {
        std::env::set_var("AGCM_TEST_ENV_TRIM", "  1500\n");
        assert_eq!(parse_env::<u64>("AGCM_TEST_ENV_TRIM"), Ok(Some(1500)));
    }

    #[test]
    fn malformed_value_is_an_error() {
        std::env::set_var("AGCM_TEST_ENV_BAD", "8x");
        let err = parse_env::<usize>("AGCM_TEST_ENV_BAD").unwrap_err();
        assert_eq!(err.name, "AGCM_TEST_ENV_BAD");
        assert_eq!(err.value, "8x");
        assert!(err.to_string().contains("8x"), "error names the value");
    }

    #[test]
    fn empty_value_is_an_error() {
        std::env::set_var("AGCM_TEST_ENV_EMPTY", "");
        let err = parse_env::<u64>("AGCM_TEST_ENV_EMPTY").unwrap_err();
        assert_eq!(err.reason, "empty value");
    }

    #[test]
    fn whitespace_only_value_is_an_error() {
        std::env::set_var("AGCM_TEST_ENV_WS", " \t ");
        let err = parse_env::<u64>("AGCM_TEST_ENV_WS").unwrap_err();
        assert_eq!(err.reason, "empty value");
    }

    #[test]
    fn negative_into_unsigned_is_an_error() {
        std::env::set_var("AGCM_TEST_ENV_NEG", "-3");
        assert!(parse_env::<u64>("AGCM_TEST_ENV_NEG").is_err());
    }
}
