//! The documents and the CI workflow pass `concord-serve` and
//! `concord-client` only flags those binaries take: every `--flag` after
//! either name, up to the end of its command, is one that binary's
//! `--help` names.

use std::process::Command;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", ".github/workflows/ci.yml"];

const BINS: [(&str, &str); 2] = [
    ("concord-serve", env!("CARGO_BIN_EXE_concord-serve")),
    ("concord-client", env!("CARGO_BIN_EXE_concord-client")),
];

fn read(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

/// Shell lines with their `\` continuations joined, each with the
/// 1-based number of its first line.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut open = false;
    for (i, line) in text.lines().enumerate() {
        let body = line.trim_end();
        let (body, continues) = match body.strip_suffix('\\') {
            Some(b) => (b, true),
            None => (body, false),
        };
        match out.last_mut() {
            Some((_, joined)) if open => joined.push_str(body),
            _ => out.push((i + 1, body.to_string())),
        }
        open = continues;
    }
    out
}

/// The `--flag` names in `text`: a word that starts with `--` and a
/// letter (a bare `--` separator is not a flag).
fn flags(text: &str) -> Vec<String> {
    text.split(|c: char| c.is_whitespace() || "[`(".contains(c))
        .filter_map(|w| w.strip_prefix("--"))
        .filter(|f| f.starts_with(|c: char| c.is_ascii_lowercase()))
        .map(|f| {
            f.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect()
        })
        .collect()
}

/// The flags `line` passes to `bin`: after each whole-word `bin`
/// followed by a space, up to the end of that command (a closing
/// backtick, a pipe, `&`, `;` or a comment). `bin` followed by anything
/// else is prose.
fn passed(line: &str, bin: &str) -> Vec<String> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let mut out = Vec::new();
    for (at, _) in line.match_indices(bin) {
        if line[..at].chars().next_back().is_some_and(word) {
            continue;
        }
        let rest = &line[at + bin.len()..];
        if !rest.starts_with(' ') {
            continue;
        }
        let end = rest
            .find(|c: char| "`|&;#".contains(c))
            .unwrap_or(rest.len());
        out.extend(flags(&rest[..end]));
    }
    out
}

#[test]
fn every_documented_flag_is_one_the_binary_takes() {
    let mut drifts = Vec::new();
    for (bin, exe) in BINS {
        let help = Command::new(exe)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("{bin} --help: {e}"));
        let known = flags(&String::from_utf8_lossy(&help.stdout));
        assert!(known.len() > 3, "{bin} --help names its flags: {known:?}");
        let mut checked = 0;
        for doc in DOCS {
            for (line, text) in logical_lines(&read(doc)) {
                for flag in passed(&text, bin) {
                    checked += 1;
                    if !known.contains(&flag) {
                        drifts.push(format!("{doc}:{line}: {bin} has no --{flag}"));
                    }
                }
            }
        }
        assert!(checked > 0, "the documents pass {bin} no flag at all");
    }
    assert!(drifts.is_empty(), "stale flags:\n{}", drifts.join("\n"));
}

#[test]
fn a_command_ends_where_the_shell_or_the_prose_ends_it() {
    let line = "`concord-serve --admin A` and `concord-client` then --rate \
                concord-serve -- --shards 2 & concord-client --seed 1 # --x";
    assert_eq!(passed(line, "concord-serve"), ["admin", "shards"]);
    assert_eq!(passed(line, "concord-client"), ["seed"]);
    assert!(passed("the concord-server crate --nope", "concord-serve").is_empty());
    assert_eq!(
        flags("[--admission-cap N] --oneshot --"),
        ["admission-cap", "oneshot"]
    );
}
