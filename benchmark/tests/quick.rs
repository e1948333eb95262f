//! Runs the real binary in `--quick` mode (2 s windows, tiny tables) on
//! every workload, untraced and traced, and checks the result line against
//! the contract — so the harness cannot rot unnoticed.

use std::process::Command;

use tdb::obs::Json;

const WORKLOADS: [&str; 5] = [
    "transfer_mem",
    "transfer_durable",
    "transfer_remote",
    "read_cold",
    "proof_lookup",
];

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(manifest: &Json, list: &str) -> Vec<String> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run one workload and return its parsed last line.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_tdb-benchmark"))
        // From the package directory, so scratch files land in its `out/`.
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["run", "--quick", "--workload", workload, "--seed", "42"])
        .args(["--seconds", "2", "--trace", trace])
        .output()
        .expect("spawn tdb-benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn check(workload: &str, trace: &str, expected: &[String]) {
    let result = run(workload, trace);
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, expected, "{workload} --trace {trace}");
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
        assert!(m.get("unit").and_then(Json::as_str).is_some());
        if trace == "0" {
            assert!(v.unwrap() > 0.0, "{workload}: end-to-end {name} is {v:?}");
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let expected = names(&manifest(), "end_to_end");
    for w in WORKLOADS {
        check(w, "0", &expected);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_and_a_span_file() {
    let expected = names(&manifest(), "per_layer");
    for w in WORKLOADS {
        check(w, "1", &expected);
        let spans = format!("{}/out/trace_{w}.json", env!("CARGO_MANIFEST_DIR"));
        let doc = Json::parse(&std::fs::read_to_string(&spans).expect("span file")).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some(w));
        assert!(doc.get("total_spans").and_then(Json::as_u64).unwrap() > 0);
    }
}

#[test]
fn an_unknown_workload_or_a_missing_seed_is_refused() {
    let exe = env!("CARGO_BIN_EXE_tdb-benchmark");
    let out = Command::new(exe)
        .args(["run", "--workload", "no_such", "--seed", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on failure");
    let out = Command::new(exe)
        .args(["run", "--workload", "transfer_mem"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}
