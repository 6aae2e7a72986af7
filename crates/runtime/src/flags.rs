//! The workspace's one command-line flag parser.
//!
//! Every CLI declares its flags once, as a table of [`Flag`]s, and
//! [`parse`] walks the arguments against it. A token that is not in the
//! table is an error, never skipped: a typo such as `--smok` must not
//! silently change what a run measures. A value flag takes the next token
//! verbatim; a switch takes none, so a value-looking token after a switch
//! is itself checked against the table.
//!
//! ```
//! use pv_runtime::flags::{parse, Flag};
//! const TABLE: &[Flag] = &[Flag::value("--seed"), Flag::switch("--full")];
//! let args: Vec<String> = ["--seed", "7", "--full"].map(String::from).to_vec();
//! let flags = parse(&args, TABLE, "suite ").unwrap();
//! assert!(flags.has("--full"));
//! assert_eq!(flags.get::<u64>("--seed", "an integer"), Ok(Some(7)));
//! let typo = parse(&["--ful".to_string()], TABLE, "suite ").unwrap_err();
//! assert_eq!(typo, "unknown suite flag '--ful'");
//! ```

use std::str::FromStr;

/// One accepted flag: its name and whether it takes a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flag {
    /// The token that selects the flag, e.g. `--seed`.
    pub name: &'static str,
    /// Whether the next token is the flag's value.
    pub takes_value: bool,
}

impl Flag {
    /// A flag followed by exactly one value token (`--seed 7`).
    #[must_use]
    pub const fn value(name: &'static str) -> Self {
        Self {
            name,
            takes_value: true,
        }
    }

    /// A flag that stands alone (`--full`).
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        Self {
            name,
            takes_value: false,
        }
    }
}

/// The flags one command line passed, in argument order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flags {
    seen: Vec<(&'static str, Option<String>)>,
}

/// Parses `args` against `table`. `what` names the command in the
/// unknown-flag message (`"serve "` gives `unknown serve flag '…'`, `""`
/// gives `unknown flag '…'`); when the table has `--help`, the message
/// ends with `(try --help)`.
///
/// # Errors
///
/// `{flag} needs a value` when a value flag ends the arguments, and
/// `unknown {what}flag '{token}'` for a token the table does not list.
pub fn parse(args: &[String], table: &[Flag], what: &str) -> Result<Flags, String> {
    let hint = if table.iter().any(|f| f.name == "--help") {
        " (try --help)"
    } else {
        ""
    };
    let mut seen = Vec::with_capacity(args.len());
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        let flag = table
            .iter()
            .find(|f| f.name == token)
            .ok_or_else(|| format!("unknown {what}flag '{token}'{hint}"))?;
        let value = if flag.takes_value {
            let value = tokens
                .next()
                .ok_or_else(|| format!("{} needs a value", flag.name))?;
            Some(value.clone())
        } else {
            None
        };
        seen.push((flag.name, value));
    }
    Ok(Flags { seen })
}

impl Flags {
    /// Whether `name` was passed at least once.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.seen.iter().any(|(flag, _)| *flag == name)
    }

    /// Every value passed to `name`, in argument order (for repeatable
    /// flags such as `--chimney X,Y,H`).
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.seen
            .iter()
            .filter(move |(flag, _)| *flag == name)
            .filter_map(|(_, value)| value.as_deref())
    }

    /// The last value passed to `name`: a repeated flag overrides itself.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.seen
            .iter()
            .rev()
            .find(|(flag, _)| *flag == name)
            .and_then(|(_, value)| value.as_deref())
    }

    /// [`Flags::value`] parsed as `T`; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// `{name} expects {expects}, got '{value}'` when the value does not
    /// parse.
    pub fn get<T: FromStr>(&self, name: &str, expects: &str) -> Result<Option<T>, String> {
        self.get_if(name, expects, |_| true)
    }

    /// [`Flags::get`], also rejecting a parsed value that fails `valid`
    /// with the same message.
    ///
    /// # Errors
    ///
    /// `{name} expects {expects}, got '{value}'`.
    pub fn get_if<T: FromStr>(
        &self,
        name: &str,
        expects: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.value(name)
            .map(|value| match value.parse() {
                Ok(parsed) if valid(&parsed) => Ok(parsed),
                _ => Err(format!("{name} expects {expects}, got '{value}'")),
            })
            .transpose()
    }

    /// The `--threads N` worker count, read by [`crate::parse_threads`]
    /// like `PV_THREADS`; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// `--threads expects a positive integer, got '{value}'`.
    pub fn threads(&self) -> Result<Option<usize>, String> {
        self.value("--threads")
            .map(|value| {
                crate::parse_threads(value)
                    .ok_or_else(|| format!("--threads expects a positive integer, got '{value}'"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag::value("--seed"),
        Flag::value("--threads"),
        Flag::value("--chimney"),
        Flag::switch("--full"),
    ];

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn a_value_flag_at_the_end_needs_a_value() {
        let err = parse(&strings(&["--full", "--seed"]), TABLE, "").unwrap_err();
        assert_eq!(err, "--seed needs a value");
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_command_name_and_help_hint() {
        let err = parse(&strings(&["--smok"]), TABLE, "").unwrap_err();
        assert_eq!(err, "unknown flag '--smok'");
        let err = parse(&strings(&["--seed", "1", "-x"]), TABLE, "route ").unwrap_err();
        assert_eq!(err, "unknown route flag '-x'");
        let with_help = [Flag::switch("--help"), Flag::switch("--full")];
        let err = parse(&strings(&["--ful"]), &with_help, "suite ").unwrap_err();
        assert_eq!(err, "unknown suite flag '--ful' (try --help)");
    }

    #[test]
    fn repeated_flags_keep_every_value_and_the_last_one_wins() {
        let flags = parse(
            &strings(&["--seed", "1", "--chimney", "1,2,3", "--seed", "2"]),
            TABLE,
            "",
        )
        .unwrap();
        assert_eq!(flags.value("--seed"), Some("2"));
        assert_eq!(flags.get::<u64>("--seed", "an integer"), Ok(Some(2)));
        assert_eq!(flags.values("--seed").collect::<Vec<_>>(), ["1", "2"]);
        assert_eq!(flags.values("--chimney").collect::<Vec<_>>(), ["1,2,3"]);
        assert_eq!(flags.value("--threads"), None);
        assert_eq!(flags.threads(), Ok(None));
        assert!(!flags.has("--full"));
    }

    #[test]
    fn a_switch_takes_no_value_so_a_following_token_is_checked_as_a_flag() {
        let err = parse(&strings(&["--full", "7"]), TABLE, "").unwrap_err();
        assert_eq!(err, "unknown flag '7'");
        // A value flag takes the next token verbatim, even a flag name.
        let flags = parse(&strings(&["--chimney", "--full"]), TABLE, "").unwrap();
        assert_eq!(flags.value("--chimney"), Some("--full"));
        assert!(!flags.has("--full"));
    }

    #[test]
    fn typed_accessors_name_the_flag_and_the_bad_value() {
        let flags = parse(&strings(&["--seed", "NaN", "--threads", "0"]), TABLE, "").unwrap();
        assert_eq!(
            flags.get::<u64>("--seed", "an integer"),
            Err("--seed expects an integer, got 'NaN'".to_string())
        );
        assert_eq!(
            flags.threads(),
            Err("--threads expects a positive integer, got '0'".to_string())
        );
        let flags = parse(&strings(&["--seed", "0", "--threads", " 3 "]), TABLE, "").unwrap();
        assert_eq!(
            flags.get_if::<u64>("--seed", "a positive integer", |&n| n > 0),
            Err("--seed expects a positive integer, got '0'".to_string())
        );
        assert_eq!(flags.threads(), Ok(Some(3)));
        assert_eq!(flags.get::<u64>("--absent", "anything"), Ok(None));
    }
}
