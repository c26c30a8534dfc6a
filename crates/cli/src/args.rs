//! Minimal argument parsing: `--key value` flags and positional words.
//!
//! The CLI surface is small and fixed, so a hand-rolled parser keeps the
//! dependency set to the workspace-approved crates.

/// Parsed command line: a subcommand, positional arguments, and flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// First positional word (the subcommand).
    pub command: Option<String>,
    /// Remaining positional words.
    pub positional: Vec<String>,
    /// `--key value` pairs in command-line order; bare `--key` stores an
    /// empty string.
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty flag '--'".into());
                }
                // A flag consumes the next token as its value unless that
                // token is itself a flag.
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().unwrap_or_default(),
                    _ => String::new(),
                };
                if out.has(key) {
                    return Err(format!("duplicate flag --{key}"));
                }
                out.flags.push((key.to_string(), value));
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// Parses the process arguments.
    pub fn from_env() -> Result<Args, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Whether a flag was given (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Rejects the first flag (in command-line order) that is in
    /// neither `global` nor `own`.
    pub fn check_flags(&self, global: &[&str], own: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !global.contains(&k.as_str()) && !own.contains(&k.as_str()))
        {
            Some((key, _)) => Err(format!(
                "unknown flag --{key} for `{}`",
                self.command.as_deref().unwrap_or("help")
            )),
            None => Ok(()),
        }
    }

    /// Parsed value of a flag.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }

    /// Parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get_parsed(key)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn subcommand_and_flags() {
        let a = parse(&["simulate", "--system", "emmy", "--seed", "7", "--validate"]);
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.get("system"), Some("emmy"));
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert!(a.has("validate"));
        assert!(!a.has("nope"));
    }

    #[test]
    fn positionals_collected() {
        let a = parse(&["analyze", "dataset.json", "extra"]);
        assert_eq!(a.command.as_deref(), Some("analyze"));
        assert_eq!(a.positional, vec!["dataset.json", "extra"]);
    }

    #[test]
    fn flag_value_not_stolen_by_next_flag() {
        let a = parse(&["cmd", "--a", "--b", "5"]);
        assert_eq!(a.get("a"), Some(""));
        assert_eq!(a.get_or("b", 0u32).unwrap(), 5);
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(Args::parse(["--x".to_string(), "--x".to_string()]).is_err());
    }

    #[test]
    fn check_flags_names_the_first_unknown_flag() {
        let a = parse(&["simulate", "--seed", "7", "--seeed", "8", "--serve", ":0"]);
        let err = a.check_flags(&["quiet"], &["seed"]).unwrap_err();
        assert!(err.contains("--seeed"), "{err}");
        assert!(a.check_flags(&[], &["seed", "seeed", "serve"]).is_ok());
        let g = parse(&["predict", "--threads", "1"]);
        assert!(g.check_flags(&["threads"], &["data"]).is_ok());
    }

    #[test]
    fn bad_parse_reports_key() {
        let a = parse(&["cmd", "--seed", "abc"]);
        let err = a.get_parsed::<u64>("seed").unwrap_err();
        assert!(err.contains("seed"));
    }
}
