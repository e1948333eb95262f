//! Schema gate for bench telemetry. Validates every `BENCH_*.json` in
//! `results/` (or `$BENCH_OUT`); with `REQUIRE_BENCH_JSON=1` (set by the CI
//! smoke-bench job after running the benchmarks) the key documents must
//! exist and a missing or malformed file fails the build.

use tdb_bench::telemetry::{validate_bench_doc, validate_bench_file};
use tdb_obs::Json;

/// Where the bench binaries write: `$BENCH_OUT`, else `results/`
/// ([`tdb_bench::telemetry::results_dir`]), a relative path taken against
/// the workspace root, where the binaries run from a checkout (and where CI
/// runs them).
fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(tdb_bench::telemetry::results_dir())
}

/// A synthetic document shaped like real emissions must pass, and known
/// corruptions of it must fail — the validator itself is under test here.
#[test]
fn validator_accepts_wellformed_and_rejects_malformed() {
    let text = r#"{
      "schema_version": 1,
      "bench": "synthetic",
      "config": {"scale": 0.1},
      "results": [
        {
          "system": "TDB",
          "throughput_txn_per_sec": 812.5,
          "threads": 4,
          "shards": 2,
          "cross_shard_fraction": 0.93,
          "per_shard": [
            {"shard": 0, "commits": 55, "group_commits": 20, "group_size_mean": 1.6},
            {"shard": 1, "commits": 45, "group_commits": 18, "group_size_mean": 1.4}
          ],
          "latency_ms": {"count": 100, "mean": 1.2, "p50": 1.0, "p90": 2.0, "p95": 2.5, "p99": 4.0, "p999": 9.5},
          "phases_ns": {
            "commit.seal": {"count": 100, "sum": 12345678, "min": 1000, "max": 99999, "mean": 123456.78, "p50": 1.0, "p90": 1.0, "p95": 1.0, "p99": 1.0},
            "commit.sync": {"count": 100, "sum": 345678},
            "commit.stall": {"count": 3, "sum": 4500000},
            "commit.group_size": {"count": 50, "sum": 100}
          },
          "counters": {"chunk.commits": 100, "chunk.bytes_appended": 51200},
          "maintenance": {"wakeups": 12, "stalls": 3, "gave_up": 0, "checkpoints": 7, "cleaner_passes": 5, "cleaner_slices": 40, "cleaner_segments_freed": 9, "cleaner_bytes_copied": 262144}
        }
      ]
    }"#;
    let doc = Json::parse(text).expect("synthetic doc parses");
    validate_bench_doc(&doc).expect("synthetic doc validates");

    // Required-field and type corruptions must all be rejected.
    let corrupt = |f: &dyn Fn(&str) -> String| {
        let mutated = f(text);
        match Json::parse(&mutated) {
            Err(_) => (), // unparseable is also a rejection
            Ok(d) => assert!(
                validate_bench_doc(&d).is_err(),
                "validator accepted corrupted doc: {mutated}"
            ),
        }
    };
    corrupt(&|t| t.replace("\"schema_version\": 1", "\"schema_version\": 2"));
    corrupt(&|t| t.replace("\"bench\": \"synthetic\"", "\"bench\": \"\""));
    corrupt(&|t| t.replace("\"p99\": 4.0", "\"p99\": \"fast\""));
    corrupt(&|t| t.replace("\"sum\": 345678", "\"sum\": null"));
    corrupt(&|t| t.replace("\"chunk.commits\": 100", "\"chunk.commits\": \"100\""));
    corrupt(&|t| t.replace("\"results\": [", "\"results\": \"none\", \"unused\": ["));
    corrupt(&|t| t.replace("\"threads\": 4", "\"threads\": \"four\""));
    corrupt(&|t| t.replace("\"threads\": 4", "\"threads\": 0"));
    corrupt(&|t| t.replace("\"shards\": 2", "\"shards\": 0"));
    corrupt(&|t| t.replace("\"shards\": 2", "\"shards\": \"two\""));
    corrupt(&|t| {
        t.replace(
            "\"cross_shard_fraction\": 0.93",
            "\"cross_shard_fraction\": 1.5",
        )
    });
    corrupt(&|t| {
        t.replace(
            "\"cross_shard_fraction\": 0.93",
            "\"cross_shard_fraction\": \"most\"",
        )
    });
    corrupt(&|t| t.replace("\"group_size_mean\": 1.4", "\"group_size_mean\": \"small\""));
    corrupt(&|t| {
        t.replace(
            "\"per_shard\": [",
            "\"per_shard\": \"both\", \"unused2\": [",
        )
    });
    corrupt(&|t| t.replace("\"p999\": 9.5", "\"p999\": \"tail\""));
    corrupt(&|t| t.replace("\"stalls\": 3", "\"stalls\": \"some\""));
    corrupt(&|t| {
        t.replace(
            "\"commit.stall\": {\"count\": 3, \"sum\": 4500000}",
            "\"commit.stall\": {\"count\": 3}",
        )
    });
    corrupt(&|t| {
        t.replace(
            "\"commit.group_size\": {\"count\": 50, \"sum\": 100}",
            "\"commit.group_size\": {\"count\": 50}",
        )
    });
}

/// Every bench JSON document in the results directory must satisfy the
/// schema. With
/// `REQUIRE_BENCH_JSON=1`, the smoke-bench set must actually be present.
#[test]
fn emitted_bench_json_validates() {
    let dir = results_dir();
    let require = std::env::var("REQUIRE_BENCH_JSON").as_deref() == Ok("1");

    let mut seen = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                validate_bench_file(&entry.path())
                    .unwrap_or_else(|e| panic!("{name} fails schema validation: {e}"));
                seen.push(name);
            }
        }
    }

    if require {
        for want in [
            "BENCH_overheads.json",
            "BENCH_fig10_tpcb.json",
            "BENCH_fig_server.json",
        ] {
            assert!(
                seen.iter().any(|n| n == want),
                "REQUIRE_BENCH_JSON=1 but {want} is missing from {} (found: {seen:?})",
                dir.display()
            );
        }
    } else if seen.is_empty() {
        eprintln!(
            "note: no BENCH_*.json under {} — run the bench binaries to generate them",
            dir.display()
        );
    }
}
