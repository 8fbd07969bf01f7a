//! Runs the benchmark binary with `--quick` on every workload, timed
//! and traced, and checks what it prints against the tables in `spec`
//! and against `BENCHMARK.json`.

use concord_benchmark::{sim, spec};
use concord_obs::json::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

/// Live workloads measure a machine they expect to have to themselves;
/// the tests that run them take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn quick(workload: &str, trace: &str, target: &std::path::Path) -> Json {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_concord-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--quick",
        ])
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).expect("the result line is JSON")
}

fn names(result: &Json) -> BTreeSet<String> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

/// Every workload, timed: the output checks pass, nothing fails, and
/// the result line holds exactly the end-to-end metrics, none of them 0.
#[test]
fn every_workload_runs_clean_and_prints_every_end_to_end_metric() {
    let target = scratch("timed");
    let expected: BTreeSet<String> = spec::END_TO_END
        .iter()
        .map(|m| m.name.to_string())
        .collect();
    for w in &spec::WORKLOADS {
        let r = quick(w.name, "0", &target);
        let keys: BTreeSet<&str> = match &r {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("result line is not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            BTreeSet::from(["attempted", "correct", "failed", "metrics"])
        );
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
        assert_eq!(
            r.get("failed").and_then(Json::as_u64),
            Some(0),
            "{}",
            w.name
        );
        assert!(
            r.get("attempted").and_then(Json::as_u64) >= Some(1_000),
            "{}",
            w.name
        );
        assert_eq!(names(&r), expected, "{}", w.name);
        for m in &spec::END_TO_END {
            assert!(
                value(&r, m.name) > 0.0,
                "{} {} is not positive",
                w.name,
                m.name
            );
        }
    }
}

/// Every workload, traced: exactly the per-layer metrics, the isolated
/// timings all taken, the span file written and summing to the
/// client-observed latency.
#[test]
fn every_workload_traces_and_prints_every_per_layer_metric() {
    let target = scratch("traced");
    let expected: BTreeSet<String> = spec::PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(
        expected.len(),
        spec::PER_LAYER.len(),
        "a per-layer name is used twice"
    );
    for w in &spec::WORKLOADS {
        let r = quick(w.name, "1", &target);
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
        assert_eq!(names(&r), expected, "{}", w.name);
        for m in spec::PER_LAYER
            .iter()
            .filter(|m| m.unit == "ns" && !m.name.starts_with("sim."))
        {
            assert!(
                value(&r, m.name) > 0.0,
                "{} {} was not timed",
                w.name,
                m.name
            );
        }
        let path = target
            .join("concord-benchmark")
            .join(format!("trace_{}.json", w.name));
        let text = std::fs::read_to_string(&path).expect("span file");
        // Everything but the span array, which is megabytes: the
        // summary fields come first in the file.
        let (head, spans) = text.split_once("\"spans\":").expect("a spans field");
        let file = Json::parse(&format!("{head}\"spans\":[]}}")).expect("span file is JSON");
        assert!(file.get("trace_summary").is_some());
        if w.path == spec::Path::Sim {
            assert!(value(&r, "sim.p999_slowdown") > 1.0);
            assert!(value(&r, "trace.events_per_req") > 0.0);
            continue;
        }
        let roots = spans.matches("\"parent\":null").count();
        assert!(
            roots >= 200,
            "{}: {roots} requests in the span file",
            w.name
        );
        assert_eq!(
            file.get("requests").and_then(Json::as_u64),
            Some(roots as u64)
        );
        assert_eq!(value(&r, "trace.spans_written"), roots as f64);
        assert!(file.get("max_sum_error").and_then(Json::as_f64) <= Some(0.05));
        let preempts = value(&r, "core.preemptions_per_req");
        if w.mix.preempts() {
            assert!(
                preempts > 1.0,
                "{}: {preempts} preemptions per request",
                w.name
            );
        } else {
            // A host stall longer than the quantum preempts even a 1 µs
            // request; it must stay the exception.
            assert!(
                preempts < 0.05,
                "{}: {preempts} preemptions per request",
                w.name
            );
        }
    }
}

/// Same seed, same simulated results, field for field; another seed,
/// other arrivals.
#[test]
fn the_simulator_workload_repeats_exactly() {
    let (a, b) = (sim::run(11, 20_000, false), sim::run(11, 20_000, false));
    assert!(
        a.errors.is_empty() && b.errors.is_empty(),
        "{:?} {:?}",
        a.errors,
        b.errors
    );
    assert_eq!(a.chunks.len(), b.chunks.len());
    for (x, y) in a.chunks.iter().zip(&b.chunks) {
        assert!(sim::same_result(x, y));
    }
    let c = sim::run(12, 20_000, false);
    assert!(!sim::same_result(&a.chunks[0], &c.chunks[0]));
}

/// `BENCHMARK.json` lists what the binary prints: the gated workloads
/// and both metric tables, name for name, with units, directions and
/// bounds.
#[test]
fn benchmark_json_mirrors_the_spec() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let json =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let field = |entry: &Json, k: &str| entry.get(k).and_then(Json::as_str).expect(k).to_string();
    let better = |b: spec::Better| match b {
        spec::Better::Lower => "lower",
        spec::Better::Higher => "higher",
    };

    let listed: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let gated: Vec<String> = spec::WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| w.name.to_string())
        .collect();
    assert_eq!(listed, gated);
    assert_eq!(
        json.get("run_seconds").and_then(Json::as_f64),
        Some(spec::DEFAULT_SECONDS)
    );

    let e2e = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(e2e.len(), spec::END_TO_END.len());
    for (entry, m) in e2e.iter().zip(&spec::END_TO_END) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), better(m.better));
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
    }
    let layers = json
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert_eq!(layers.len(), spec::PER_LAYER.len());
    for (entry, m) in layers.iter().zip(&spec::PER_LAYER) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), better(m.better));
    }
}

/// A directory of this test's own under the build directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}
