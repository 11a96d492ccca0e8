//! The one command-line parser behind every `ow-bench` binary.
//!
//! Flags are `--name value` pairs or bare `--switch`es. An absent flag
//! takes the binary's default. A flag whose value is missing or malformed
//! is a usage error: the binary names it and exits with status 2 instead
//! of silently running the default.

use ow_trace::json::Value;
use std::fmt::Display;
use std::str::FromStr;

/// The value of flag `name` in `args`: `Ok(None)` when the flag is absent,
/// `Err` with a usage message when its value is missing or malformed.
pub fn parse_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1).filter(|v| !v.starts_with("--")) {
        None => Err(format!("{name} needs a value")),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|e| format!("bad {name} {v:?}: {e}")),
    }
}

/// [`parse_flag`] for a binary: a usage error exits with status 2.
pub fn flag<T: FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: Display,
{
    parse_flag(args, name).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    })
}

/// A `--seed` value: decimal, or `0x`-prefixed hex as `crashpoints --json`
/// prints seeds.
#[derive(Debug, PartialEq, Eq)]
struct Seed(u64);

impl FromStr for Seed {
    type Err = std::num::ParseIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        }
        .map(Seed)
    }
}

/// The `--seed` flag: decimal, or `0x`-prefixed hex.
pub fn seed(args: &[String]) -> Option<u64> {
    flag(args, "--seed").map(|Seed(s)| s)
}

/// Whether the bare switch `name` is present.
pub fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Writes a `--json` document and reports where it went.
pub fn write_json(path: &str, doc: &Value) {
    std::fs::write(path, doc.to_pretty()).expect("write --json file");
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_core::{MorphMode, ResurrectionStrategy};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn well_formed_values_parse() {
        let a = args(&["--jobs", "4", "--seed", "0x51a9", "--morph", "warm"]);
        assert_eq!(parse_flag::<usize>(&a, "--jobs"), Ok(Some(4)));
        assert_eq!(parse_flag(&a, "--seed"), Ok(Some(Seed(20905))));
        assert_eq!(parse_flag(&a, "--morph"), Ok(Some(MorphMode::Warm)));
        let a = args(&["--seed", "20905", "--strategy", "lazy"]);
        assert_eq!(parse_flag(&a, "--seed"), Ok(Some(Seed(0x51a9))));
        assert_eq!(
            parse_flag(&a, "--strategy"),
            Ok(Some(ResurrectionStrategy::Lazy))
        );
        assert!(switch(&args(&["--rollback"]), "--rollback"));
    }

    #[test]
    fn absent_flags_take_the_default() {
        let a = args(&["--experiments", "9"]);
        assert_eq!(parse_flag::<usize>(&a, "--jobs"), Ok(None));
        assert_eq!(parse_flag::<MorphMode>(&a, "--morph"), Ok(None));
        assert!(!switch(&a, "--ablation"));
    }

    #[test]
    fn malformed_or_missing_values_are_usage_errors() {
        for bad in [
            &["--batches", "8O"][..],
            &["--batches"],
            &["--batches", "--jobs", "2"],
            &["--batches", "-1"],
        ] {
            let err = parse_flag::<u32>(&args(bad), "--batches").unwrap_err();
            assert!(err.contains("--batches"), "{err}");
        }
        assert!(parse_flag::<Seed>(&args(&["--seed", "zz"]), "--seed").is_err());
        assert!(parse_flag::<Seed>(&args(&["--seed", "0xzz"]), "--seed").is_err());
        let err = parse_flag::<MorphMode>(&args(&["--morph", "hot"]), "--morph").unwrap_err();
        assert!(err.ends_with("expected cold|warm"), "{err}");
        let err = parse_flag::<ResurrectionStrategy>(&args(&["--strategy", "x"]), "--strategy")
            .unwrap_err();
        assert!(err.ends_with("expected copy|map|lazy"), "{err}");
    }

    #[test]
    fn recovery_names_round_trip() {
        for (mode, name) in MorphMode::NAMES {
            assert_eq!((mode.name(), name.parse()), (name, Ok(mode)));
        }
        for (strategy, name) in ResurrectionStrategy::NAMES {
            assert_eq!((strategy.name(), name.parse()), (name, Ok(strategy)));
        }
    }
}
