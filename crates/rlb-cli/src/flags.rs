//! The one place `rlb-sim` reads flags: a cursor over the argument
//! list that every subcommand's loop pulls from, and the wording of
//! every "requires a value" / "not a number" / "must be positive" /
//! "unknown option" message.

use rlb_core::SimConfig;
use std::str::FromStr;

/// Parses one numeric value, echoing the offending input on failure (a
/// bare "not a number" with the value swallowed made typos like
/// `--servers 1O24` needlessly hard to spot).
pub(crate) fn parse_num<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: not a number: {raw:?}"))
}

/// Like [`parse_num`], additionally rejecting zero, so `--servers 0`
/// dies as a usage error (exit 2) naming the flag instead of as a
/// constructor panic or a silently useless run.
pub(crate) fn parse_positive<T: FromStr + PartialEq + From<u8>>(
    flag: &str,
    raw: &str,
) -> Result<T, String> {
    let v: T = parse_num(flag, raw)?;
    if v == T::from(0u8) {
        return Err(format!("{flag}: must be positive, got {raw:?}"));
    }
    Ok(v)
}

/// Parses one finite float satisfying `ok`; `constraint` completes
/// "must be …" in the error ("in (0, 1]").
pub(crate) fn parse_float(
    flag: &str,
    raw: &str,
    constraint: &str,
    ok: impl Fn(f64) -> bool,
) -> Result<f64, String> {
    let x: f64 = parse_num(flag, raw)?;
    if !(x.is_finite() && ok(x)) {
        return Err(format!("{flag}: must be {constraint}, got {raw:?}"));
    }
    Ok(x)
}

/// A cursor over one subcommand's arguments: `next_flag` yields the
/// next flag, the other methods read that flag's operand.
pub(crate) struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        Self { rest: args.iter() }
    }

    /// The next argument: the flag a subcommand's loop dispatches on.
    pub(crate) fn next_flag(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }

    /// The operand of `flag`; `what` names it in the error ("a path").
    pub(crate) fn operand(&mut self, flag: &str, what: &str) -> Result<&'a str, String> {
        self.next_flag()
            .ok_or_else(|| format!("{flag} requires {what}"))
    }

    /// The operand of `flag`.
    pub(crate) fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.operand(flag, "a value")
    }

    /// The next argument if it is not itself a flag (`--json [PATH]`).
    pub(crate) fn optional_operand(&mut self) -> Option<&'a str> {
        let next = self.rest.as_slice().first()?;
        if next.starts_with("--") {
            return None;
        }
        self.next_flag()
    }

    /// A numeric operand.
    pub(crate) fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        parse_num(flag, self.value(flag)?)
    }

    /// A numeric operand that must not be zero.
    pub(crate) fn positive<T: FromStr + PartialEq + From<u8>>(
        &mut self,
        flag: &str,
    ) -> Result<T, String> {
        parse_positive(flag, self.value(flag)?)
    }

    /// A float operand, as [`parse_float`] reads it.
    pub(crate) fn float(
        &mut self,
        flag: &str,
        constraint: &str,
        ok: impl Fn(f64) -> bool,
    ) -> Result<f64, String> {
        parse_float(flag, self.value(flag)?, constraint, ok)
    }

    /// Reads `arg`'s operand into `config`/`policy` if `arg` is one of
    /// the engine flags `rlb-sim` and `rlb-sim serve|load` share;
    /// `Ok(false)` means it is not one. `chunks_set` records an explicit
    /// `--chunks`: without one the caller sets the universe to 4 *
    /// servers.
    pub(crate) fn engine_flag(
        &mut self,
        arg: &str,
        config: &mut SimConfig,
        policy: &mut String,
        chunks_set: &mut bool,
    ) -> Result<bool, String> {
        match arg {
            "--policy" => *policy = self.value(arg)?.to_string(),
            "--servers" => config.num_servers = self.positive(arg)?,
            "--chunks" => {
                config.num_chunks = self.positive(arg)?;
                *chunks_set = true;
            }
            "--replication" => config.replication = self.positive(arg)?,
            "--rate" => config.process_rate = self.positive(arg)?,
            "--queue" => config.queue_capacity = self.positive(arg)?,
            "--seed" => config.seed = self.num(arg)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The error for an argument no arm of a subcommand's loop took;
/// `scope` is empty for the top-level run, else e.g. `"bench "`.
pub(crate) fn unknown(scope: &str, arg: &str) -> String {
    format!("unknown {scope}option {arg:?}")
}
