//! The documents cite real names: every `repro NAME` is an entry, every
//! benchmark `--workload NAME` a workload, every `--bench NAME` a bench
//! target and every backticked `layer.metric` a benchmark metric.

use concord_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

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

/// The argument after each whole-word `key` on `line`, with the offset
/// of that `key`, skipping a `--` separator; `key` followed by anything
/// but a space is prose.
fn args_after<'a>(line: &'a str, key: &str) -> Vec<(usize, &'a str)> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let mut out = Vec::new();
    for (at, _) in line.match_indices(key) {
        if line[..at].chars().next_back().is_some_and(word) {
            continue;
        }
        let rest = &line[at + key.len()..];
        if !rest.starts_with([' ', '\t']) {
            continue;
        }
        let mut tokens = rest.split_whitespace();
        let mut arg = tokens.next().unwrap_or("");
        if arg == "--" {
            arg = tokens.next().unwrap_or("");
        }
        let arg = arg.trim_end_matches(|c: char| "`,;:).]".contains(c));
        if !arg.is_empty() {
            out.push((at, arg));
        }
    }
    out
}

/// Every drift in every document, as `file:line: what`.
fn drifts(check: impl Fn(&str) -> Vec<String>) -> Vec<String> {
    let mut out = Vec::new();
    for doc in DOCS {
        for (line, text) in logical_lines(&read(doc)) {
            out.extend(
                check(&text)
                    .into_iter()
                    .map(|d| format!("{doc}:{line}: {d}")),
            );
        }
    }
    out
}

#[test]
fn every_repro_name_is_an_entry() {
    let known = |name: &str| {
        ["all", "simulate", "--list"].contains(&name)
            || concord_bench::entry(name).is_some()
            || (name.starts_with('<') && name.ends_with('>'))
    };
    let found = drifts(|line| {
        args_after(line, "repro")
            .into_iter()
            .flat_map(|(_, arg)| arg.split('|'))
            .filter(|name| !known(name))
            .map(|name| format!("`repro {name}` is not an entry"))
            .collect()
    });
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn every_benchmark_workload_is_a_workload() {
    // `repro simulate` and `concord-client` take a service-time mix
    // under the same flag: the binary named last before a `--workload`
    // owns it, and every other one is the benchmark's.
    let found = drifts(|line| {
        args_after(line, "--workload")
            .into_iter()
            .filter(|(at, _)| {
                let last = |bin: &str| line[..*at].rfind(bin);
                last("concord-benchmark") >= last("repro").max(last("concord-client"))
            })
            .map(|(_, name)| name)
            .filter(|name| !WORKLOADS.iter().any(|w| w.name == *name))
            .map(|name| format!("`--workload {name}` is not a benchmark workload"))
            .collect()
    });
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn every_bench_is_a_bench_target() {
    let manifest = read("crates/concord-bench/Cargo.toml");
    let targets: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|t| t.lines().find_map(|l| l.trim().strip_prefix("name = ")))
        .map(|n| n.trim_matches('"'))
        .collect();
    assert_eq!(targets, ["bench_substrates"]);
    let found = drifts(|line| {
        args_after(line, "--bench")
            .into_iter()
            .map(|(_, name)| name)
            .filter(|name| !targets.contains(name))
            .map(|name| format!("`--bench {name}` is not a bench target"))
            .collect()
    });
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn every_backticked_metric_is_a_benchmark_metric() {
    let layers: Vec<&str> = PER_LAYER
        .iter()
        .filter_map(|m| m.name.split_once('.').map(|(layer, _)| layer))
        .collect();
    let metric_like = |quoted: &str| {
        quoted.split_once('.').is_some_and(|(layer, rest)| {
            layers.contains(&layer)
                && !["rs", "md", "toml", "json", "txt", "yml", "bin"].contains(&rest)
                && !rest.is_empty()
                && rest.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
    };
    let known = |name: &str| {
        PER_LAYER.iter().any(|m| m.name == name) || END_TO_END.iter().any(|m| m.name == name)
    };
    let mut found = Vec::new();
    for doc in DOCS {
        // Whole documents, since an inline span may wrap a line.
        let text = read(doc);
        let mut at = 0;
        for (i, chunk) in text.split('`').enumerate() {
            if i % 2 == 1 && metric_like(chunk) && !known(chunk) {
                let line = text[..at].lines().count();
                found.push(format!("{doc}:{line}: `{chunk}` is not a benchmark metric"));
            }
            at += chunk.len() + 1;
        }
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
}
