//! Machine-readable bench telemetry: every figure binary (and the torture
//! harness) writes a `results/BENCH_<name>.json` document so runs can be
//! captured, diffed, and validated in CI. The schema is deliberately tiny
//! and stable — see [`validate_bench_doc`] for the normative description.

use std::path::{Path, PathBuf};
use tdb_obs::{hist_json, HistSnapshot, Json, RegistrySnapshot};

/// Current document schema version. Bump only when a field changes meaning
/// or a required field is added; additive optional fields don't count.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Directory bench JSON goes to: `$BENCH_OUT`, or `results/` under the
/// current directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Start a bench document: `{schema_version, bench, config, results: []}`.
/// Callers fill `config` and push per-system/per-phase rows into `results`.
pub fn bench_doc(bench: &str, config: Json) -> Json {
    let mut doc = Json::obj();
    doc.push("schema_version", BENCH_SCHEMA_VERSION);
    doc.push("bench", bench);
    doc.push("config", config);
    doc.push("results", Json::arr());
    doc
}

/// Append a row to the document's `results` array.
pub fn push_result(doc: &mut Json, row: Json) {
    if let Json::Obj(fields) = doc {
        for (k, v) in fields.iter_mut() {
            if k == "results" {
                if let Json::Arr(rows) = v {
                    rows.push(row);
                }
                return;
            }
        }
    }
}

/// Latency distribution as milliseconds: count plus
/// mean/p50/p90/p95/p99/p999. The snapshot's samples are nanoseconds (the
/// workspace convention). `p999` is the tail the background-maintenance
/// work targets — an inline cleaning pass shows up there first.
pub fn latency_ms_json(lat: &HistSnapshot) -> Json {
    let ms = |ns: f64| ns / 1e6;
    let mut o = Json::obj();
    o.push("count", lat.count());
    o.push("mean", ms(lat.mean()));
    o.push("p50", ms(lat.p50()));
    o.push("p90", ms(lat.p90()));
    o.push("p95", ms(lat.p95()));
    o.push("p99", ms(lat.p99()));
    o.push("p999", ms(lat.percentile(0.999)));
    o
}

/// All histograms in a registry snapshot whose name starts with `prefix`,
/// rendered via [`hist_json`] (nanosecond stats + percentiles). Used for the
/// per-phase commit breakdown (`prefix = "commit."`).
pub fn histograms_json(snap: &RegistrySnapshot, prefix: &str) -> Json {
    let mut o = Json::obj();
    for (name, h) in &snap.histograms {
        if name.starts_with(prefix) && h.count() > 0 {
            o.push(name.as_str(), hist_json(h));
        }
    }
    o
}

/// All counters in a registry snapshot, as a flat name → value object.
pub fn counters_json(snap: &RegistrySnapshot) -> Json {
    let mut o = Json::obj();
    for (name, v) in &snap.counters {
        o.push(name.as_str(), *v);
    }
    o
}

/// Write `doc` to `<results_dir>/BENCH_<name>.json` (pretty-printed),
/// creating the directory if needed. Returns the path written.
pub fn write_bench_json(name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.pretty())?;
    eprintln!("telemetry: wrote {}", path.display());
    Ok(path)
}

/// Validate a bench document against the schema every `BENCH_*.json` must
/// satisfy:
///
/// - top level is an object with `schema_version` (integer, == 1),
///   `bench` (non-empty string), and `results` (non-empty array of objects);
/// - any `latency_ms` field in a result row is an object with numeric
///   `count`, `p50`, `p95`, and `p99` (and a numeric `p999` when present —
///   rows written before the tail-latency work omit it);
/// - any `phases_ns` or `maint_ns` field is an object whose values each
///   carry numeric `count` and `sum` (`maint_ns` holds the
///   maintenance-lane laps: checkpoint/cleaner anchor rounds and deferred
///   Merkle passes);
/// - any `counters` or `maintenance` field is an object with only numeric
///   values (`maintenance` carries the background-maintenance counters a
///   row was measured under: wakeups, stalls, cleaner passes/slices, ...);
/// - any `threads` field in a result row is a positive integer (worker
///   threads the row was measured with; rows omitting it are single-run
///   rows from before the field existed);
/// - any `shards` field in a result row is a positive integer (chunk-store
///   shards the row was measured with; unsharded rows omit it), and any
///   `cross_shard_fraction` a number in [0, 1] (the share of measured
///   transactions that committed across shards);
/// - any `connections` field in a result row is a positive integer
///   (concurrent client connections a server row was measured with) and
///   any `group_size_mean` is numeric (mean commits amortized per durable
///   group-commit sync over the row's measurement window);
/// - any `per_shard` field is an array of objects with only numeric values
///   (one entry per shard: commit counts, group-commit sizes, ...).
pub fn validate_bench_doc(doc: &Json) -> Result<(), String> {
    let obj = doc.as_obj().ok_or("top level is not an object")?;
    let field = |k: &str| {
        obj.iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{k}`"))
    };
    let version = field("schema_version")?
        .as_u64()
        .ok_or("schema_version is not an integer")?;
    if version != BENCH_SCHEMA_VERSION {
        return Err(format!("unsupported schema_version {version}"));
    }
    let bench = field("bench")?.as_str().ok_or("bench is not a string")?;
    if bench.is_empty() {
        return Err("bench name is empty".into());
    }
    let results = field("results")?
        .as_arr()
        .ok_or("results is not an array")?;
    if results.is_empty() {
        return Err("results array is empty".into());
    }
    for (i, row) in results.iter().enumerate() {
        let row_obj = row
            .as_obj()
            .ok_or_else(|| format!("results[{i}] is not an object"))?;
        for (k, v) in row_obj {
            match k.as_str() {
                "latency_ms" => validate_latency(v).map_err(|e| format!("results[{i}]: {e}"))?,
                "phases_ns" | "maint_ns" => {
                    validate_phases(v).map_err(|e| format!("results[{i}]: {e}"))?
                }
                "threads" if v.as_u64().filter(|t| *t >= 1).is_none() => {
                    return Err(format!("results[{i}]: threads not a positive integer"));
                }
                "shards" if v.as_u64().filter(|s| *s >= 1).is_none() => {
                    return Err(format!("results[{i}]: shards not a positive integer"));
                }
                "cross_shard_fraction"
                    if v.as_f64().filter(|f| (0.0..=1.0).contains(f)).is_none() =>
                {
                    return Err(format!(
                        "results[{i}]: cross_shard_fraction not a number in [0, 1]"
                    ));
                }
                "connections" if v.as_u64().filter(|c| *c >= 1).is_none() => {
                    return Err(format!("results[{i}]: connections not a positive integer"));
                }
                "per_shard" => {
                    let arr = v
                        .as_arr()
                        .ok_or(format!("results[{i}]: per_shard not an array"))?;
                    for (j, entry) in arr.iter().enumerate() {
                        let eo = entry
                            .as_obj()
                            .ok_or(format!("results[{i}]: per_shard[{j}] not an object"))?;
                        for (name, val) in eo {
                            if val.as_f64().is_none() {
                                return Err(format!(
                                    "results[{i}]: per_shard[{j}] entry `{name}` not numeric"
                                ));
                            }
                        }
                    }
                }
                "group_size_mean" if v.as_f64().is_none() => {
                    return Err(format!("results[{i}]: {k} not numeric"));
                }
                "counters" | "maintenance" => {
                    let c = v
                        .as_obj()
                        .ok_or(format!("results[{i}]: {k} not an object"))?;
                    for (name, val) in c {
                        if val.as_f64().is_none() {
                            return Err(format!("results[{i}]: {k} entry `{name}` not numeric"));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}

fn validate_latency(v: &Json) -> Result<(), String> {
    let o = v.as_obj().ok_or("latency_ms is not an object")?;
    for key in ["count", "p50", "p95", "p99"] {
        let found = o.iter().find(|(n, _)| n == key).map(|(_, v)| v);
        if found.and_then(|v| v.as_f64()).is_none() {
            return Err(format!("latency_ms.{key} missing or not numeric"));
        }
    }
    // Optional tail percentile: must be numeric when present.
    if let Some((_, v)) = o.iter().find(|(n, _)| n == "p999") {
        if v.as_f64().is_none() {
            return Err("latency_ms.p999 present but not numeric".into());
        }
    }
    Ok(())
}

fn validate_phases(v: &Json) -> Result<(), String> {
    let o = v.as_obj().ok_or("phases_ns is not an object")?;
    for (name, ph) in o {
        let po = ph
            .as_obj()
            .ok_or(format!("phases_ns.{name} is not an object"))?;
        for key in ["count", "sum"] {
            let found = po.iter().find(|(n, _)| n == key).map(|(_, v)| v);
            if found.and_then(|v| v.as_f64()).is_none() {
                return Err(format!("phases_ns.{name}.{key} missing or not numeric"));
            }
        }
    }
    Ok(())
}

/// Parse and validate a bench JSON file on disk.
pub fn validate_bench_file(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse: {e}"))?;
    validate_bench_doc(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Json {
        let mut cfg = Json::obj();
        cfg.push("scale", 0.01);
        let mut doc = bench_doc("unit_test", cfg);
        let lat = {
            let h = tdb_obs::Histogram::new();
            h.record(1_000_000);
            h.record(2_000_000);
            h.snapshot()
        };
        let mut row = Json::obj();
        row.push("system", "tdb");
        row.push("throughput_txn_per_sec", 123.4);
        row.push("latency_ms", latency_ms_json(&lat));
        push_result(&mut doc, row);
        doc
    }

    #[test]
    fn sample_doc_validates_and_roundtrips() {
        let doc = sample_doc();
        validate_bench_doc(&doc).unwrap();
        let parsed = Json::parse(&doc.pretty()).unwrap();
        validate_bench_doc(&parsed).unwrap();
    }

    #[test]
    fn validation_rejects_malformed_docs() {
        assert!(validate_bench_doc(&Json::arr()).is_err());
        let mut doc = Json::obj();
        doc.push("schema_version", 99u64);
        doc.push("bench", "x");
        doc.push("results", Json::arr());
        assert!(validate_bench_doc(&doc).is_err());

        // Valid frame, but empty results.
        let doc = bench_doc("x", Json::obj());
        assert!(validate_bench_doc(&doc).is_err());

        // Bad latency object inside an otherwise valid row.
        let mut doc = bench_doc("x", Json::obj());
        let mut row = Json::obj();
        let mut lat = Json::obj();
        lat.push("count", 1u64);
        row.push("latency_ms", lat); // missing p50/p95/p99
        push_result(&mut doc, row);
        assert!(validate_bench_doc(&doc).is_err());

        // p999 is optional, but must be numeric when present.
        let mut doc = bench_doc("x", Json::obj());
        let mut row = Json::obj();
        let mut lat = Json::obj();
        for key in ["count", "p50", "p95", "p99"] {
            lat.push(key, 1.0);
        }
        lat.push("p999", "fast");
        row.push("latency_ms", lat);
        push_result(&mut doc, row);
        assert!(validate_bench_doc(&doc).is_err());

        // A maintenance object must hold only numeric values.
        let mut doc = bench_doc("x", Json::obj());
        let mut row = Json::obj();
        let mut maint = Json::obj();
        maint.push("maintenance_stalls", "lots");
        row.push("maintenance", maint);
        push_result(&mut doc, row);
        assert!(validate_bench_doc(&doc).is_err());

        // A shard count of zero is as malformed as a non-numeric one.
        let mut doc = bench_doc("x", Json::obj());
        let mut row = Json::obj();
        row.push("shards", 0u64);
        push_result(&mut doc, row);
        assert!(validate_bench_doc(&doc).is_err());

        // per_shard must be an array of numeric-valued objects.
        let mut doc = bench_doc("x", Json::obj());
        let mut row = Json::obj();
        row.push("per_shard", "two of them");
        push_result(&mut doc, row);
        assert!(validate_bench_doc(&doc).is_err());

        let mut doc = bench_doc("x", Json::obj());
        let mut row = Json::obj();
        let mut entry = Json::obj();
        entry.push("shard", 0u64);
        entry.push("group_size_mean", "big");
        row.push("per_shard", Json::array([entry]));
        push_result(&mut doc, row);
        assert!(validate_bench_doc(&doc).is_err());
    }

    #[test]
    fn sharded_rows_validate() {
        let mut doc = bench_doc("x", Json::obj());
        let mut row = Json::obj();
        row.push("system", "TDB-sharded");
        row.push("shards", 2u64);
        row.push(
            "per_shard",
            Json::array((0..2u64).map(|i| {
                let mut o = Json::obj();
                o.push("shard", i);
                o.push("commits", 50u64);
                o.push("group_size_mean", 1.5);
                o
            })),
        );
        push_result(&mut doc, row);
        validate_bench_doc(&doc).unwrap();
    }

    #[test]
    fn latency_json_carries_the_tail_percentile() {
        let h = tdb_obs::Histogram::new();
        for i in 0..1000u64 {
            h.record(i * 1_000);
        }
        let lat = latency_ms_json(&h.snapshot());
        let o = lat.as_obj().unwrap();
        let p999 = o
            .iter()
            .find(|(n, _)| n == "p999")
            .and_then(|(_, v)| v.as_f64())
            .expect("p999 emitted and numeric");
        let p50 = o
            .iter()
            .find(|(n, _)| n == "p50")
            .and_then(|(_, v)| v.as_f64())
            .unwrap();
        assert!(p999 >= p50);
    }

    #[test]
    fn write_bench_json_emits_file() {
        let dir = tempfile::tempdir().unwrap();
        std::env::set_var("BENCH_OUT", dir.path());
        let path = write_bench_json("unit_test", &sample_doc()).unwrap();
        std::env::remove_var("BENCH_OUT");
        assert!(path.ends_with("BENCH_unit_test.json"));
        validate_bench_file(&path).unwrap();
    }
}
