//! The `lint-roots.toml` manifest: where panic-reachability starts.
//!
//! The manifest is a checked-in list of *root* functions — the entry
//! points whose call cones must be panic-free and overflow-audited —
//! plus optional crate-level *exemptions* for infrastructure whose
//! panics are deliberate:
//!
//! ```toml
//! # Engine hot path.
//! [[root]]
//! fn = "QueueArray::enqueue"
//! reason = "per-step routing must not abort a simulation"
//!
//! # Every function defined in a file can be rooted at once:
//! [[root]]
//! file = "crates/rlb-serve/src/proto.rs"
//! reason = "wire decoding is total on arbitrary bytes"
//!
//! # Cones stop at (never traverse into) an exempted crate:
//! [[exempt]]
//! crate = "rlb-harness"
//! reason = "test-harness runtime panics by design to report bugs"
//! ```
//!
//! Each `[[root]]` table carries either `fn = "Owner::name"` (or a
//! free function's bare name) or `file = "<workspace-relative path>"`,
//! plus a mandatory `reason`; each `[[exempt]]` carries `crate` plus a
//! `reason`. The parser is a deliberately tiny TOML subset —
//! array-of-tables headers and `key = "string"` pairs, `#` comment
//! lines — keeping rlb-lint dependency-free like the rest of the
//! workspace. Entries that no longer match any function, file, or
//! crate are *manifest rot* and reported by the reachability pass
//! under the unsuppressible `lint-roots` rule.

/// One `[[root]]` entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
// element of `Manifest::roots`. lint:allow(dead-pub)
pub struct RootSpec {
    /// `Owner::name` or bare free-fn name to root.
    pub fn_name: Option<String>,
    /// Workspace-relative file whose every fn is rooted.
    pub file: Option<String>,
    /// Why this is a root (mandatory; manifests are documentation).
    pub reason: String,
    /// 1-based line of the `[[root]]` header (for rot diagnostics).
    pub line: usize,
}

/// One `[[exempt]]` entry: a crate the cone passes never traverse into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
// element of `Manifest::exempts`. lint:allow(dead-pub)
pub struct ExemptSpec {
    /// Crate name (the `crates/<name>` directory).
    pub krate: String,
    /// Why this crate's panics are out of scope (mandatory).
    pub reason: String,
    /// 1-based line of the `[[exempt]]` header (for rot diagnostics).
    pub line: usize,
}

/// The parsed manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Panic-reachability roots, in manifest order.
    pub roots: Vec<RootSpec>,
    /// Crates the cone passes stop at.
    pub exempts: Vec<ExemptSpec>,
}

enum Section {
    Root,
    Exempt,
}

/// Parses the manifest. Unknown keys, bare (unquoted) values, and
/// incomplete entries (a `[[root]]` with neither `fn` nor `file`, or
/// any table without a `reason`) are hard errors: the manifest gates
/// the panic pass, so silent misparses would silently un-root an
/// entry.
///
/// # Errors
/// Returns `line: message` on malformed input.
pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let mut m = Manifest::default();
    let mut section: Option<Section> = None;
    for (l0, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = l0 + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[root]]" || line == "[[exempt]]" {
            validate_last(&m)?;
            if line == "[[root]]" {
                m.roots.push(RootSpec {
                    line: lineno,
                    ..RootSpec::default()
                });
                section = Some(Section::Root);
            } else {
                m.exempts.push(ExemptSpec {
                    line: lineno,
                    ..ExemptSpec::default()
                });
                section = Some(Section::Exempt);
            }
            continue;
        }
        let Some((key, val)) = line.split_once('=') else {
            return Err(format!(
                "{lineno}: expected `[[root]]`, `[[exempt]]`, or `key = \"value\"`"
            ));
        };
        let key = key.trim();
        let val = val.trim();
        let val = val
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("{lineno}: value for `{key}` must be double-quoted"))?;
        match section {
            None => return Err(format!("{lineno}: `{key}` before the first table header")),
            Some(Section::Root) => {
                let entry = m.roots.last_mut().expect("section implies entry");
                match key {
                    "fn" => entry.fn_name = Some(val.to_string()),
                    "file" => entry.file = Some(val.to_string()),
                    "reason" => entry.reason = val.to_string(),
                    other => return Err(format!("{lineno}: unknown [[root]] key `{other}`")),
                }
            }
            Some(Section::Exempt) => {
                let entry = m.exempts.last_mut().expect("section implies entry");
                match key {
                    "crate" => entry.krate = val.to_string(),
                    "reason" => entry.reason = val.to_string(),
                    other => return Err(format!("{lineno}: unknown [[exempt]] key `{other}`")),
                }
            }
        }
    }
    validate_last(&m)?;
    Ok(m)
}

/// Validates whichever table was most recently opened (tables are
/// complete once the next header — or end of file — arrives).
fn validate_last(m: &Manifest) -> Result<(), String> {
    // Only the *latest* header needs checking; earlier ones were
    // validated when their successor opened. The latest is whichever
    // of the two tails has the greater header line.
    let root_line = m.roots.last().map(|r| r.line).unwrap_or(0);
    let exempt_line = m.exempts.last().map(|e| e.line).unwrap_or(0);
    if root_line > exempt_line {
        let r = m.roots.last().expect("nonzero line implies entry");
        match (&r.fn_name, &r.file) {
            (None, None) => return Err(format!("{}: [[root]] needs `fn` or `file`", r.line)),
            (Some(_), Some(_)) => {
                return Err(format!(
                    "{}: [[root]] takes `fn` or `file`, not both",
                    r.line
                ))
            }
            _ if r.reason.is_empty() => {
                return Err(format!("{}: [[root]] needs a `reason`", r.line))
            }
            _ => {}
        }
    } else if exempt_line > 0 {
        let e = m.exempts.last().expect("nonzero line implies entry");
        if e.krate.is_empty() {
            return Err(format!("{}: [[exempt]] needs a `crate`", e.line));
        }
        if e.reason.is_empty() {
            return Err(format!("{}: [[exempt]] needs a `reason`", e.line));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fn_file_and_exempt_tables() {
        let text = "# heading\n\n[[root]]\nfn = \"QueueArray::enqueue\"\nreason = \"hot\"\n\n\
                    [[root]]\nfile = \"crates/rlb-serve/src/proto.rs\"\nreason = \"wire\"\n\n\
                    [[exempt]]\ncrate = \"rlb-harness\"\nreason = \"panics by design\"\n";
        let m = parse_manifest(text).unwrap();
        assert_eq!(m.roots.len(), 2);
        assert_eq!(m.roots[0].fn_name.as_deref(), Some("QueueArray::enqueue"));
        assert_eq!(m.roots[0].reason, "hot");
        assert_eq!(
            m.roots[1].file.as_deref(),
            Some("crates/rlb-serve/src/proto.rs")
        );
        assert_eq!(m.roots[1].line, 7);
        assert_eq!(m.exempts.len(), 1);
        assert_eq!(m.exempts[0].krate, "rlb-harness");
        assert_eq!(m.exempts[0].line, 11);
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(parse_manifest("fn = \"x\"\n").is_err(), "key before header");
        assert!(
            parse_manifest("[[root]]\nreason = \"r\"\n").is_err(),
            "no target"
        );
        assert!(
            parse_manifest("[[root]]\nfn = \"a\"\nfile = \"b\"\nreason = \"r\"\n").is_err(),
            "both targets"
        );
        assert!(
            parse_manifest("[[root]]\nfn = \"a\"\n").is_err(),
            "no reason"
        );
        assert!(
            parse_manifest("[[root]]\nfn = a\nreason = \"r\"\n").is_err(),
            "unquoted"
        );
        assert!(
            parse_manifest("[[root]]\nfrob = \"a\"\nreason = \"r\"\n").is_err(),
            "unknown key"
        );
        assert!(
            parse_manifest("[[exempt]]\nreason = \"r\"\n").is_err(),
            "exempt without crate"
        );
        assert!(
            parse_manifest("[[exempt]]\ncrate = \"c\"\n").is_err(),
            "exempt without reason"
        );
        assert!(
            parse_manifest("[[exempt]]\nfn = \"a\"\nreason = \"r\"\n").is_err(),
            "fn key on exempt"
        );
        assert!(
            parse_manifest("[[root]]\nfn = \"a\"\nreason = \"r\"\n[[exempt]]\n").is_err(),
            "trailing empty exempt"
        );
    }

    #[test]
    fn incomplete_root_before_exempt_header_is_caught() {
        assert!(parse_manifest(
            "[[root]]\nfn = \"a\"\n[[exempt]]\ncrate = \"c\"\nreason = \"r\"\n"
        )
        .is_err());
    }

    #[test]
    fn empty_manifest_is_no_roots() {
        assert_eq!(
            parse_manifest("# nothing here\n").unwrap(),
            Manifest::default()
        );
    }
}
