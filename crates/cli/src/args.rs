//! Minimal dependency-free argument parsing.

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional operands, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// First non-flag token (the subcommand).
    pub command: String,
    /// Remaining non-flag tokens.
    pub positionals: Vec<String>,
    /// `--key value` pairs; bare flags map to `"true"`.
    pub options: HashMap<String, String>,
}

/// Option keys that are flags (take no value).
const FLAG_KEYS: &[&str] =
    &["bars", "json", "help", "quiet", "verify", "sweep", "no-rebalance", "force", "dry-run"];

/// Parses raw arguments (excluding `argv[0]`).
///
/// Grammar: `<command> [positional…] [--key value | --flag]…`.
pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
    let mut parsed = ParsedArgs::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if key.is_empty() {
                return Err("empty option name `--`".into());
            }
            if FLAG_KEYS.contains(&key) {
                parsed.options.insert(key.to_string(), "true".to_string());
            } else {
                let value =
                    iter.next().ok_or_else(|| format!("option --{key} requires a value"))?;
                parsed.options.insert(key.to_string(), value.clone());
            }
        } else if parsed.command.is_empty() {
            parsed.command = arg.clone();
        } else {
            parsed.positionals.push(arg.clone());
        }
    }
    Ok(parsed)
}

impl ParsedArgs {
    /// Option value by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a flag is set.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }

    /// Parses an option as `T`, with a default. The error carries the
    /// type's own parse message (for axis types, the accepted
    /// spellings).
    pub fn get_parsed<T>(&self, key: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// Parses an option as `T` if present; errors as [`Self::get_parsed`].
    pub fn get_opt<T>(&self, key: &str) -> Result<Option<T>, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.get(key)
            .map(|raw| raw.parse().map_err(|e| format!("invalid value `{raw}` for --{key}: {e}")))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<ParsedArgs, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_command_positionals_options() {
        let p = parse_str("run fig_1 fig_2 --scale tiny --seed 7").unwrap();
        assert_eq!(p.command, "run");
        assert_eq!(p.positionals, vec!["fig_1", "fig_2"]);
        assert_eq!(p.get("scale"), Some("tiny"));
        assert_eq!(p.get_parsed::<u64>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn flags_take_no_value() {
        let p = parse_str("run fig_1 --bars --seed 3").unwrap();
        assert!(p.flag("bars"));
        assert_eq!(p.get_parsed::<u64>("seed", 0).unwrap(), 3);
        assert_eq!(p.positionals, vec!["fig_1"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse_str("run --scale").is_err());
    }

    #[test]
    fn invalid_numeric_value_is_an_error() {
        let p = parse_str("run --seed abc").unwrap();
        let err = p.get_parsed::<u64>("seed", 0).unwrap_err();
        assert!(err.starts_with("invalid value `abc` for --seed: "), "{err}");
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = parse_str("list").unwrap();
        assert_eq!(p.get_parsed::<u64>("seed", 42).unwrap(), 42);
        assert!(!p.flag("bars"));
        assert!(p.positionals.is_empty());
    }

    #[test]
    fn empty_input_is_empty_command() {
        let p = parse(&[]).unwrap();
        assert!(p.command.is_empty());
    }
}
