//! Request spans of a traced run, recorded from outside the program.
//!
//! Each request gets a root span from the instant it was due to the
//! instant the generator read its reply, and one child per boundary the
//! benchmark can see without instrumenting the product crates. A
//! child's duration is measured; its position inside the root is
//! nominal (children are laid end to end in life-cycle order), because
//! the server reports queue and busy time as durations, not instants,
//! and a preempted request's slices interleave with its waits.

use crate::live::SpanRow;
use concord_obs::json::Json;
use std::collections::BTreeMap;

/// Root span: due → received.
pub const ROOT: &str = "request";

/// One span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the file.
    pub id: u64,
    /// Index of the span that caused it; `None` for a root.
    pub parent: Option<u64>,
    /// Request the span belongs to.
    pub request: u64,
    /// Boundary name.
    pub name: &'static str,
    /// Start and end, nanoseconds since the epoch of the run.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

/// The children of one request, as `(name, duration)` in life-cycle
/// order. Rings stamp `finished_at`, so the server's sojourn splits
/// into queue, busy and the wait between slices, and the pickup after
/// it is its own span; the wire carries no instant, so over TCP
/// everything that is not queue or busy is `io_overhead`.
fn children(r: &SpanRow) -> Vec<(&'static str, u64)> {
    let mut out = vec![
        ("due_to_sent", r.sent_ns.saturating_sub(r.due_ns)),
        ("sent_to_first_slice", r.queue_ns),
        ("busy", r.busy_ns),
    ];
    let rtt = r.recv_ns.saturating_sub(r.sent_ns);
    match r.finished_ns {
        Some(fin) => {
            let sojourn = fin.saturating_sub(r.sent_ns);
            out.push((
                "preempted_wait",
                sojourn.saturating_sub(r.queue_ns + r.busy_ns),
            ));
            out.push(("finished_to_received", r.recv_ns.saturating_sub(fin)));
        }
        None => out.push(("io_overhead", rtt.saturating_sub(r.queue_ns + r.busy_ns))),
    }
    out
}

/// Expands rows into spans: one root and its children per request.
pub fn build(rows: &[SpanRow]) -> Vec<Span> {
    let mut spans = Vec::with_capacity(rows.len() * 6);
    for r in rows {
        let root = spans.len() as u64;
        spans.push(Span {
            id: root,
            parent: None,
            request: r.id,
            name: ROOT,
            start_ns: r.due_ns,
            end_ns: r.recv_ns,
        });
        let mut at = r.due_ns;
        for (name, dur) in children(r) {
            spans.push(Span {
                id: spans.len() as u64,
                parent: Some(root),
                request: r.id,
                name,
                start_ns: at,
                end_ns: at + dur,
            });
            at += dur;
        }
    }
    spans
}

/// Self time per span name: a span's duration minus what its children
/// cover, summed over all spans of that name.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// Largest relative gap, over all requests, between the client-observed
/// latency (the root span) and the sum of its children.
pub fn max_sum_error(spans: &[Span]) -> f64 {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *sums.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|root| {
            let whole = (root.end_ns - root.start_ns).max(1) as f64;
            let parts = sums.get(&root.id).copied().unwrap_or(0) as f64;
            (whole - parts).abs() / whole
        })
        .fold(0.0, f64::max)
}

/// The span file as JSON.
pub fn render(workload: &str, seed: u64, spans: &[Span], trace_summary: Json) -> String {
    let span_json = |s: &Span| {
        Json::obj(vec![
            ("id", Json::U64(s.id)),
            ("parent", s.parent.map_or(Json::Null, Json::U64)),
            ("request", Json::U64(s.request)),
            ("name", Json::Str(s.name.into())),
            ("start_ns", Json::U64(s.start_ns)),
            ("end_ns", Json::U64(s.end_ns)),
        ])
    };
    let self_times = self_time_ns(spans)
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::U64(v)))
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::U64(seed)),
        (
            "requests",
            Json::U64(spans.iter().filter(|s| s.parent.is_none()).count() as u64),
        ),
        ("max_sum_error", Json::Num(max_sum_error(spans))),
        ("self_time_ns", Json::Obj(self_times)),
        ("trace_summary", trace_summary),
        ("spans", Json::Arr(spans.iter().map(span_json).collect())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_row() -> SpanRow {
        SpanRow {
            id: 9,
            class: 1,
            due_ns: 1_000,
            sent_ns: 1_200,
            recv_ns: 260_000,
            queue_ns: 3_000,
            busy_ns: 101_000,
            finished_ns: Some(255_000),
        }
    }

    #[test]
    fn ring_children_sum_to_the_client_latency() {
        let spans = build(&[ring_row()]);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                ROOT,
                "due_to_sent",
                "sent_to_first_slice",
                "busy",
                "preempted_wait",
                "finished_to_received"
            ]
        );
        assert_eq!(spans.last().map(|s| s.end_ns), Some(260_000));
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.request == 9));
        assert_eq!(max_sum_error(&spans), 0.0);
        let own = self_time_ns(&spans);
        assert_eq!(own[ROOT], 0);
        assert_eq!(own["preempted_wait"], 255_000 - 1_200 - 3_000 - 101_000);
        assert_eq!(own["finished_to_received"], 5_000);
    }

    #[test]
    fn tcp_rows_fold_the_unseen_into_io_overhead() {
        let row = SpanRow {
            finished_ns: None,
            ..ring_row()
        };
        let spans = build(&[row]);
        assert_eq!(spans.last().map(|s| s.name), Some("io_overhead"));
        assert_eq!(max_sum_error(&spans), 0.0);
    }

    #[test]
    fn a_server_that_reports_more_than_the_round_trip_shows_as_sum_error() {
        let row = SpanRow {
            busy_ns: 400_000,
            ..ring_row()
        };
        assert!(max_sum_error(&build(&[row])) > 0.05);
    }

    #[test]
    fn the_file_parses_back() {
        let text = render("rt_fixed", 3, &build(&[ring_row()]), Json::Null);
        let json = Json::parse(&text).expect("valid JSON");
        assert_eq!(json.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(6)
        );
    }
}
