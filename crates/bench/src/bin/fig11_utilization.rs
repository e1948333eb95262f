//! **Figure 11**: TDB response time and database size vs maximum
//! utilization (0.5 … 0.9), with Berkeley DB as the flat reference line.
//!
//! `SCALE=1.0 TXNS=200000 cargo run --release -p tdb-bench --bin fig11_utilization`
//! for the paper's run size; defaults are a faster shape-preserving run.

use std::sync::Arc;
use tdb::obs::Json;
use tdb::{ChunkStoreConfig, Options, SecurityMode};
use tdb_bench::telemetry::{
    bench_doc, counters_json, histograms_json, latency_ms_json, push_result, write_bench_json,
};
use tdb_bench::{env_f64, env_u64};
use tdb_platform::MemStore;
use tpcb::{run_benchmark, BaselineDriver, TdbDriver, TpcbConfig};

fn main() {
    let cfg = TpcbConfig {
        scale: env_f64("SCALE", 0.1),
        transactions: env_u64("TXNS", 40_000),
        seed: env_u64("SEED", 0x7DB),
        threads: 1,
    };
    println!("Figure 11: TDB performance and database size vs utilization");
    println!(
        "(scale {}, {} txns; TDB without security, as in the paper)",
        cfg.scale, cfg.transactions
    );
    println!("=============================================================");
    println!();
    println!("paper shape: response dips slightly to ~0.7 utilization, then climbs;");
    println!("database size falls as utilization rises; BerkeleyDB size much larger");
    println!("(it never checkpoints its log during the benchmark).");
    println!();

    let mut bdb = BaselineDriver::new(
        Arc::new(MemStore::new()),
        baseline::BaselineConfig::default(),
    );
    let bdb_report = run_benchmark(&mut bdb, &cfg);

    let mut config = Json::obj();
    config.push("scale", cfg.scale);
    config.push("transactions", cfg.transactions);
    config.push("seed", cfg.seed);
    let mut doc = bench_doc("fig11_utilization", config);

    println!(
        "{:>11} {:>16} {:>14} {:>18}",
        "utilization", "resp (ms/txn)", "db size (MB)", "cleaner copies/txn"
    );
    for util in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let mut driver = TdbDriver::new(Options::in_memory().chunk_config(ChunkStoreConfig {
            security: SecurityMode::Off,
            max_utilization: util,
            ..ChunkStoreConfig::default()
        }));
        let before = driver.database().chunk_store().obs_snapshot();
        let report = run_benchmark(&mut driver, &cfg);
        // Settle: checkpoint so the final size reflects steady state.
        driver.database().checkpoint().unwrap();
        let cleaner_bytes_copied = driver
            .database()
            .chunk_store()
            .obs_snapshot()
            .since(&before)
            .counter("chunk.cleaner_bytes_copied");
        println!(
            "{:>11.1} {:>16.4} {:>14.2} {:>18.0}",
            util,
            report.avg_response_ms,
            driver.database().disk_size() as f64 / 1e6,
            cleaner_bytes_copied as f64 / cfg.transactions as f64,
        );
        let obs = driver.database().obs().snapshot();
        let mut row = Json::obj();
        row.push("system", "TDB");
        row.push("max_utilization", util);
        row.push(
            "throughput_txn_per_sec",
            report.transactions as f64 / report.run_seconds.max(1e-9),
        );
        row.push("avg_response_ms", report.avg_response_ms);
        row.push("final_disk_size", driver.database().disk_size());
        row.push(
            "cleaner_bytes_per_txn",
            cleaner_bytes_copied as f64 / cfg.transactions as f64,
        );
        row.push("latency_ms", latency_ms_json(&report.latency));
        row.push("phases_ns", histograms_json(&obs, "cleaner."));
        row.push("counters", counters_json(&obs));
        push_result(&mut doc, row);
    }
    println!(
        "{:>11} {:>16.4} {:>14.2} {:>18}",
        "BerkeleyDB",
        bdb_report.avg_response_ms,
        bdb_report.final_disk_size as f64 / 1e6,
        "-"
    );
    let mut row = Json::obj();
    row.push("system", "BerkeleyDB");
    row.push("avg_response_ms", bdb_report.avg_response_ms);
    row.push("final_disk_size", bdb_report.final_disk_size);
    row.push("latency_ms", latency_ms_json(&bdb_report.latency));
    push_result(&mut doc, row);
    write_bench_json("fig11_utilization", &doc).expect("write bench json");
}
