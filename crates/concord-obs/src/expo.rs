//! Prometheus text exposition (format 0.0.4) and a scrape-text parser.
//!
//! The renderer groups samples into families (one `# HELP`/`# TYPE`
//! header per name, series differing only in labels beneath it) and
//! exports histograms as cumulative `le` buckets plus `_sum`/`_count`,
//! exactly the shape `Histogram::cumulative` produces. The parser is the
//! inverse for round-trip tests, the CI probe, and `concord-top`.

use crate::registry::{MetricKind, MetricsSnapshot};
use std::collections::BTreeMap;

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders a registry snapshot as Prometheus text exposition.
///
/// Series sharing a family name are emitted contiguously under a single
/// `# HELP`/`# TYPE` header (the exposition format requires families to
/// be contiguous), in first-registration order.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut emitted: Vec<&str> = Vec::new();
    for s in &snap.scalars {
        if emitted.contains(&s.name.as_str()) {
            continue;
        }
        emitted.push(&s.name);
        if !s.help.is_empty() {
            out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
        }
        let ty = match s.kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        };
        out.push_str(&format!("# TYPE {} {}\n", s.name, ty));
        for series in snap.scalars.iter().filter(|o| o.name == s.name) {
            out.push_str(&format!(
                "{}{} {}\n",
                series.name,
                render_labels(&series.labels, None),
                series.value
            ));
        }
    }
    let mut emitted_h: Vec<&str> = Vec::new();
    for h in &snap.hists {
        if emitted_h.contains(&h.name.as_str()) {
            continue;
        }
        emitted_h.push(&h.name);
        if !h.help.is_empty() {
            out.push_str(&format!("# HELP {} {}\n", h.name, h.help));
        }
        out.push_str(&format!("# TYPE {} histogram\n", h.name));
        for series in snap.hists.iter().filter(|o| o.name == h.name) {
            for (le, cum) in &series.buckets {
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    series.name,
                    render_labels(&series.labels, Some(("le", &le.to_string()))),
                    cum
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                series.name,
                render_labels(&series.labels, Some(("le", "+Inf"))),
                series.count
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                series.name,
                render_labels(&series.labels, None),
                series.sum
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                series.name,
                render_labels(&series.labels, None),
                series.count
            ));
        }
    }
    out
}

/// Parses Prometheus text exposition back into `series -> value`.
///
/// The key is the full series identifier as written (name plus label
/// block, e.g. `concord_ingested_total{shard="0"}`). Comment and blank
/// lines are skipped; a malformed sample line is reported as `Err`.
pub fn parse_scrape(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The series id ends at the closing brace when labels are
        // present (label values may contain spaces), else at the first
        // whitespace.
        let (series, rest) = match line.rfind('}') {
            Some(pos) => (&line[..=pos], &line[pos + 1..]),
            None => match line.find(char::is_whitespace) {
                Some(pos) => (&line[..pos], &line[pos..]),
                None => return Err(format!("line {}: no value: {line:?}", lineno + 1)),
            },
        };
        let mut fields = rest.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value {value:?}: {e}", lineno + 1))?;
        out.insert(series.to_string(), value);
    }
    Ok(out)
}

/// Sums every series of family `name` in a parsed scrape (e.g. summing
/// `concord_ingested_total{shard="..."}` across shards).
pub fn family_sum(samples: &BTreeMap<String, f64>, name: &str) -> f64 {
    samples
        .iter()
        .filter(|(k, _)| k.as_str() == name || k.starts_with(&format!("{name}{{")))
        .map(|(_, v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use concord_metrics::Histogram;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("req_total", "requests", &[("shard", "0")], || 10);
        reg.counter("req_total", "requests", &[("shard", "1")], || 32);
        reg.gauge("depth", "queue depth", &[], || 7);
        reg.per_scrape(|snap| {
            let mut h = Histogram::new(3);
            for v in [100u64, 200, 50_000] {
                h.record(v);
            }
            snap.push_hist("lat_ns", "latency", &[("class", "0")], &h);
        });
        reg
    }

    #[test]
    fn render_groups_families_and_parses_back() {
        let reg = sample_registry();
        let text = render_prometheus(&reg.snapshot());
        assert_eq!(
            text.matches("# TYPE req_total counter").count(),
            1,
            "one header per family:\n{text}"
        );
        assert!(text.contains("# TYPE lat_ns histogram"));
        let parsed = parse_scrape(&text).expect("round trip");
        assert_eq!(parsed["req_total{shard=\"0\"}"], 10.0);
        assert_eq!(parsed["req_total{shard=\"1\"}"], 32.0);
        assert_eq!(parsed["depth"], 7.0);
        assert_eq!(parsed["lat_ns_count{class=\"0\"}"], 3.0);
        assert_eq!(parsed["lat_ns_sum{class=\"0\"}"], 100.0 + 200.0 + 50_000.0);
        assert_eq!(family_sum(&parsed, "req_total"), 42.0);
    }

    #[test]
    fn histogram_inf_bucket_equals_count() {
        let reg = sample_registry();
        let text = render_prometheus(&reg.snapshot());
        let parsed = parse_scrape(&text).expect("parse");
        let inf = parsed["lat_ns_bucket{class=\"0\",le=\"+Inf\"}"];
        assert_eq!(inf, parsed["lat_ns_count{class=\"0\"}"]);
        // Cumulative buckets never decrease in the rendered order.
        let mut last = 0.0;
        for line in text.lines().filter(|l| l.starts_with("lat_ns_bucket")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "monotone buckets: {text}");
            last = v;
        }
    }

    #[test]
    fn parser_skips_comments_and_rejects_garbage() {
        let parsed = parse_scrape("# HELP x y\n\nx 1\n").expect("ok");
        assert_eq!(parsed["x"], 1.0);
        assert!(parse_scrape("bare_name_no_value").is_err());
        assert!(parse_scrape("x not_a_number").is_err());
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.gauge("g", "", &[("p", "a\"b\\c")], || 1);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("g{p=\"a\\\"b\\\\c\"} 1"), "{text}");
    }
}
