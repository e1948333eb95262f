//! **Figure 10**: TPC-B average response time — Berkeley DB vs TDB vs TDB-S.
//!
//! `SCALE=1.0 TXNS=200000 cargo run --release -p tdb-bench --bin fig10_tpcb`
//! reproduces the paper's run sizes (200 000 transactions, mean over the
//! later 100 000). Default is a faster SCALE=0.1 / TXNS=40000 run whose
//! shape matches. The in-text §7.4 claim about bytes written per
//! transaction is reported alongside.

use std::sync::Arc;
use tdb::obs::{Json, RegistrySnapshot};
use tdb::{ChunkStoreConfig, DatabaseConfig, SecurityMode};
use tdb_bench::telemetry::{
    bench_doc, counters_json, histograms_json, latency_ms_json, push_result, write_bench_json,
};
use tdb_bench::{env_f64, env_u64};
use tdb_platform::{DirStore, MemStore, UntrustedStore};
use tpcb::{
    run_benchmark, run_benchmark_threaded, BaselineDriver, BenchReport, TdbDriver, TpcbConfig,
};

/// Worker threads: `--threads N` wins over `THREADS=N`; default 1.
fn threads_arg() -> usize {
    arg_or_env("--threads", "THREADS", 1)
}

/// Chunk-store shards for the extra sharded row: `--shards N` wins over
/// `SHARDS=N`; default 1 (no sharded row).
fn shards_arg() -> usize {
    arg_or_env("--shards", "SHARDS", 1)
}

fn arg_or_env(flag: &str, env: &str, default: usize) -> usize {
    let mut value = std::env::var(env)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                value = v;
            }
        }
    }
    value.max(1)
}

/// `STORE=dir` runs on real files in a temp directory (slower but closer
/// to the paper's disk-backed setup); default is in-memory.
fn make_store(keep: &mut Vec<tempfile::TempDir>) -> Arc<dyn UntrustedStore> {
    if std::env::var("STORE").as_deref() == Ok("dir") {
        make_dir_store(keep)
    } else {
        Arc::new(MemStore::new())
    }
}

/// A file-backed store regardless of `STORE` — used for the group-commit
/// comparison, which is only meaningful when a log sync has real latency.
fn make_dir_store(keep: &mut Vec<tempfile::TempDir>) -> Arc<dyn UntrustedStore> {
    let dir = tempfile::tempdir().expect("tempdir");
    let store = Arc::new(DirStore::new(dir.path()).unwrap());
    keep.push(dir);
    store
}

fn run_tdb(
    cfg: &TpcbConfig,
    security: SecurityMode,
    store: Arc<dyn UntrustedStore>,
) -> (BenchReport, RegistrySnapshot, RegistrySnapshot) {
    // 60% maximum utilization, "the default for TDB" in this experiment.
    let chunk = ChunkStoreConfig {
        security,
        max_utilization: 0.60,
        ..ChunkStoreConfig::default()
    };
    run_tdb_chunk(cfg, chunk, store)
}

fn run_tdb_chunk(
    cfg: &TpcbConfig,
    chunk: ChunkStoreConfig,
    store: Arc<dyn UntrustedStore>,
) -> (BenchReport, RegistrySnapshot, RegistrySnapshot) {
    let db_cfg = DatabaseConfig {
        chunk,
        ..DatabaseConfig::default()
    };
    let mut driver = TdbDriver::new(store, db_cfg);
    let report = if cfg.threads > 1 {
        run_benchmark_threaded(&mut driver, cfg)
    } else {
        run_benchmark(&mut driver, cfg)
    };
    // Lifetime counters (load phase included) for the bytes and
    // maintenance breakdowns.
    let stats = driver.database().chunk_store().obs_snapshot();
    // Measured-run delta: the load phase's own durable commits (schema
    // creation, bulk-load batches, the closing checkpoint) are subtracted,
    // so `commit.*` histogram counts equal the transactions actually run.
    let obs = driver.measured_obs();
    (report, stats, obs)
}

/// Run TPC-B on an `n`-shard store and collect the per-shard telemetry the
/// aggregate snapshot flattens: each shard's commit count and its
/// group-commit histogram (every shard runs its own group-commit
/// coordinator, so group sizes are only meaningful per shard).
fn run_tdb_sharded(
    cfg: &TpcbConfig,
    n: usize,
    store: Arc<dyn UntrustedStore>,
) -> (BenchReport, RegistrySnapshot, RegistrySnapshot, Json) {
    let chunk = ChunkStoreConfig {
        security: SecurityMode::Off,
        max_utilization: 0.60,
        shards: n,
        ..ChunkStoreConfig::default()
    };
    let db_cfg = DatabaseConfig {
        chunk,
        ..DatabaseConfig::default()
    };
    let mut driver = TdbDriver::new(store, db_cfg);
    let report = if cfg.threads > 1 {
        run_benchmark_threaded(&mut driver, cfg)
    } else {
        run_benchmark(&mut driver, cfg)
    };
    let chunks = driver.database().chunk_store();
    // The merged registry re-exports each shard's instruments as
    // `shard{k}.chunk.*` (shared handles), and `obs_snapshot` folds them
    // back into aggregate names.
    let merged = chunks.obs_snapshot();
    let commits_sum: u64 = (0..chunks.shards())
        .map(|i| merged.counter(&format!("shard{i}.chunk.commits")))
        .sum();
    assert_eq!(
        merged.counter("chunk.commits"),
        commits_sum,
        "aggregate view must equal the per-shard sum"
    );
    // Report the measured-run delta (load-phase commits subtracted). The
    // per-shard commit and byte totals stay lifetime counts from the merged
    // snapshot above; per-shard group stats come from the delta via the
    // shard-prefixed instrument names, so they count measured transactions
    // only.
    let measured = driver.measured_obs();
    let per_shard = Json::array((0..chunks.shards()).map(|i| {
        let lifetime = |name: &str| merged.counter(&format!("shard{i}.chunk.{name}"));
        let mut o = Json::obj();
        o.push("shard", i as u64);
        o.push("commits", lifetime("commits"));
        o.push("bytes_appended", lifetime("chunk_bytes_appended"));
        if let Some(h) = measured
            .histograms
            .get(&format!("shard{i}.commit.group_size"))
        {
            o.push("group_commits", h.count());
            o.push("group_size_mean", h.sum as f64 / h.count().max(1) as f64);
        }
        o
    }));
    (report, merged, measured, per_shard)
}

/// One `results[]` row of the BENCH_fig10_tpcb.json document.
fn result_row(name: &str, r: &BenchReport, obs: Option<&RegistrySnapshot>) -> Json {
    let mut row = Json::obj();
    row.push("system", name);
    row.push(
        "throughput_txn_per_sec",
        r.transactions as f64 / r.run_seconds.max(1e-9),
    );
    row.push("avg_response_ms", r.avg_response_ms);
    row.push("bytes_per_txn", r.bytes_per_txn);
    row.push("final_disk_size", r.final_disk_size);
    row.push("latency_ms", latency_ms_json(&r.latency));
    row.push("threads", r.threads as u64);
    if let Some(obs) = obs {
        row.push("phases_ns", histograms_json(obs, "commit."));
        // Maintenance-lane phase laps (checkpoint/cleaner anchor rounds,
        // deferred Merkle passes). Often empty on a short run — a
        // checkpoint may simply not trigger inside the measured window.
        row.push("maint_ns", histograms_json(obs, "maint."));
        row.push("counters", counters_json(obs));
    }
    row
}

/// The background-maintenance counters a row was measured under — the
/// schema's optional `maintenance` object (numeric values only).
fn maintenance_json(s: &RegistrySnapshot) -> Json {
    let mut o = Json::obj();
    for (key, counter) in [
        ("wakeups", "maintenance_wakeups"),
        ("stalls", "maintenance_stalls"),
        ("gave_up", "maintenance_gave_up"),
        ("checkpoints", "checkpoints"),
        ("cleaner_passes", "cleaner_passes"),
        ("cleaner_slices", "cleaner_slices"),
        ("cleaner_segments_freed", "cleaner_segments_freed"),
        ("cleaner_bytes_copied", "cleaner_bytes_copied"),
    ] {
        o.push(key, s.counter(&format!("chunk.{counter}")));
    }
    o
}

/// A chunk configuration that forces the cleaner to run continuously under
/// the TPC-B update stream: small segments, a low checkpoint threshold, and
/// tight free-segment watermarks. Only `background_maintenance` differs
/// between the two compared runs.
fn forced_cleaning_chunk(background: bool) -> ChunkStoreConfig {
    ChunkStoreConfig {
        security: SecurityMode::Off,
        max_utilization: 0.60,
        segment_size: 64 * 1024,
        checkpoint_threshold: 512 * 1024,
        background_maintenance: background,
        clean_low_free: 2,
        clean_high_free: 4,
        ..ChunkStoreConfig::default()
    }
}

fn main() {
    let threads = threads_arg();
    let shards = shards_arg();
    let cfg = TpcbConfig {
        scale: env_f64("SCALE", 0.1),
        transactions: env_u64("TXNS", 40_000),
        seed: env_u64("SEED", 0x7DB),
        threads: 1,
    };
    println!(
        "Figure 10: TPC-B average response time (scale {}, {} txns, {threads} thread(s))",
        cfg.scale, cfg.transactions
    );
    println!("================================================================");
    println!();
    println!(
        "paper (733 MHz P3, EIDE disk): BerkeleyDB 6.8 ms | TDB 3.8 ms (56%) | TDB-S 5.8 ms (85%)"
    );
    println!("paper bytes/txn: BerkeleyDB ~1100 | TDB ~523");
    println!();

    let mut keep = Vec::new();
    let mut bdb = BaselineDriver::new(make_store(&mut keep), baseline::BaselineConfig::default());
    let bdb_report = run_benchmark(&mut bdb, &cfg);

    let (tdb_report, tdb_stats, tdb_obs) = run_tdb(&cfg, SecurityMode::Off, make_store(&mut keep));
    let (tdbs_report, tdbs_stats, tdbs_obs) =
        run_tdb(&cfg, SecurityMode::Full, make_store(&mut keep));

    println!(
        "{:<12} {:>14} {:>12} {:>16} {:>14}",
        "system", "resp (ms/txn)", "% of BDB", "total bytes/txn", "disk (MB)"
    );
    for (name, r) in [
        ("BerkeleyDB", &bdb_report),
        ("TDB", &tdb_report),
        ("TDB-S", &tdbs_report),
    ] {
        println!(
            "{:<12} {:>14.4} {:>11.0}% {:>16.0} {:>14.1}",
            name,
            r.avg_response_ms,
            100.0 * r.avg_response_ms / bdb_report.avg_response_ms,
            r.bytes_per_txn,
            r.final_disk_size as f64 / 1e6,
        );
    }
    println!();
    let n = cfg.transactions as f64;
    for (name, s) in [("TDB", &tdb_stats), ("TDB-S", &tdbs_stats)] {
        let per_txn = |counter: &str| s.counter(&format!("chunk.{counter}")) as f64 / n;
        let (chunk, cleaner, commit) = (
            per_txn("chunk_bytes_appended"),
            per_txn("cleaner_bytes_copied"),
            per_txn("commit_bytes_appended"),
        );
        println!(
            "{name}: commit-path bytes/txn ≈ {:.0} (chunk {chunk:.0} − cleaner {cleaner:.0} + commit-records {commit:.0}); map/checkpoint {:.0}",
            chunk - cleaner + commit,
            per_txn("map_bytes_appended"),
        );
    }
    println!();
    println!("shape check: TDB < TDB-S < BerkeleyDB in response time, as in the paper.");

    // Multi-threaded group-commit comparison. Group commit amortizes the
    // *durable* half of a commit — the log sync and the anchor/counter
    // round — so both sides run on the file-backed store, where each sync
    // has real latency for the group to share (on the in-memory store a
    // "sync" is free and the comparison only measures scheduler noise).
    let mt = if threads > 1 {
        let mt_cfg = TpcbConfig {
            threads,
            ..cfg.clone()
        };
        let (one_report, _, one_obs) = run_tdb(&cfg, SecurityMode::Off, make_dir_store(&mut keep));
        let (mt_report, _, mt_obs) = run_tdb(&mt_cfg, SecurityMode::Off, make_dir_store(&mut keep));
        let single = one_report.transactions as f64 / one_report.run_seconds.max(1e-9);
        let multi = mt_report.transactions as f64 / mt_report.run_seconds.max(1e-9);
        let group_mean = mt_obs
            .histograms
            .get("commit.group_size")
            .map(|h| h.sum as f64 / h.count().max(1) as f64)
            .unwrap_or(0.0);
        println!();
        println!(
            "group commit (file-backed store): TDB x{threads} {multi:.0} txn/s vs x1 {single:.0} \
             txn/s ({:.2}x, mean group size {group_mean:.2})",
            multi / single.max(1e-9)
        );
        Some((one_report, one_obs, mt_report, mt_obs))
    } else {
        None
    };

    // Sharded comparison: the same workload on an N-shard store (each
    // shard with its own log, location map, and group-commit coordinator,
    // all under the one root-of-roots). Single-shard TPC-B transactions
    // keep the fast path; the row records shard count and the per-shard
    // commit/group-size telemetry the aggregate snapshot flattens.
    let sharded = if shards > 1 {
        let s_cfg = TpcbConfig {
            threads,
            ..cfg.clone()
        };
        let (r, s, obs, per_shard) = run_tdb_sharded(&s_cfg, shards, make_store(&mut keep));
        println!();
        println!(
            "sharded ({shards} shards, {threads} thread(s)): {:.4} ms/txn vs unsharded {:.4} ms/txn, \
             {:.0} bytes/txn",
            r.avg_response_ms, tdb_report.avg_response_ms, r.bytes_per_txn
        );
        Some((r, s, obs, per_shard))
    } else {
        None
    };

    // Maintenance tail-latency comparison: the same threaded workload on a
    // file-backed store with cleaning forced active, differing only in
    // where maintenance runs. Inline maintenance (the pre-thread behavior)
    // charges whole cleaning passes and checkpoints to whichever commit
    // trips the trigger — visible as the p99/p999 response-time tail —
    // while the background thread keeps the commit path to watermark
    // checks and kicks.
    let maint = if threads > 1 {
        let mt_cfg = TpcbConfig {
            threads,
            ..cfg.clone()
        };
        let (inline_r, inline_s, inline_obs) = run_tdb_chunk(
            &mt_cfg,
            forced_cleaning_chunk(false),
            make_dir_store(&mut keep),
        );
        let (bg_r, bg_s, bg_obs) = run_tdb_chunk(
            &mt_cfg,
            forced_cleaning_chunk(true),
            make_dir_store(&mut keep),
        );
        println!();
        println!("maintenance off the commit path (file-backed store, cleaner forced active):");
        println!(
            "{:<18} {:>12} {:>10} {:>10} {:>10} {:>8} {:>8}",
            "system", "txn/s", "p50 ms", "p99 ms", "p999 ms", "passes", "stalls"
        );
        for (name, r, s) in [
            ("inline", &inline_r, &inline_s),
            ("background", &bg_r, &bg_s),
        ] {
            println!(
                "{:<18} {:>12.0} {:>10.3} {:>10.3} {:>10.3} {:>8} {:>8}",
                name,
                r.transactions as f64 / r.run_seconds.max(1e-9),
                r.latency.percentile(0.50) / 1e6,
                r.latency.percentile(0.99) / 1e6,
                r.latency.percentile(0.999) / 1e6,
                s.counter("chunk.cleaner_passes"),
                s.counter("chunk.maintenance_stalls"),
            );
        }
        let p99_inline = inline_r.latency.percentile(0.99);
        let p99_bg = bg_r.latency.percentile(0.99);
        println!(
            "p99 response: background {:.3} ms vs inline {:.3} ms ({:+.0}%)",
            p99_bg / 1e6,
            p99_inline / 1e6,
            100.0 * (p99_bg - p99_inline) / p99_inline.max(1e-9)
        );
        Some(((inline_r, inline_s, inline_obs), (bg_r, bg_s, bg_obs)))
    } else {
        None
    };

    let mut config = Json::obj();
    config.push("scale", cfg.scale);
    config.push("transactions", cfg.transactions);
    config.push("seed", cfg.seed);
    config.push("threads", threads as u64);
    config.push("shards", shards as u64);
    let mut doc = bench_doc("fig10_tpcb", config);
    push_result(&mut doc, result_row("BerkeleyDB", &bdb_report, None));
    push_result(&mut doc, result_row("TDB", &tdb_report, Some(&tdb_obs)));
    push_result(&mut doc, result_row("TDB-S", &tdbs_report, Some(&tdbs_obs)));
    if let Some((one_report, one_obs, mt_report, mt_obs)) = &mt {
        push_result(
            &mut doc,
            result_row("TDB-durable", one_report, Some(one_obs)),
        );
        push_result(&mut doc, result_row("TDB-mt", mt_report, Some(mt_obs)));
    }
    if let Some((r, s, obs, per_shard)) = sharded {
        let cross = obs.counter("xshard.commits");
        let mut row = result_row("TDB-sharded", &r, Some(&obs));
        row.push("shards", shards as u64);
        row.push(
            "cross_shard_fraction",
            cross as f64 / r.transactions.max(1) as f64,
        );
        row.push("per_shard", per_shard);
        row.push("maintenance", maintenance_json(&s));
        push_result(&mut doc, row);
    }
    if let Some(((inline_r, inline_s, inline_obs), (bg_r, bg_s, bg_obs))) = &maint {
        let mut row = result_row("TDB-maint-inline", inline_r, Some(inline_obs));
        row.push("maintenance", maintenance_json(inline_s));
        push_result(&mut doc, row);
        let mut row = result_row("TDB-maint-bg", bg_r, Some(bg_obs));
        row.push("maintenance", maintenance_json(bg_s));
        push_result(&mut doc, row);
    }
    write_bench_json("fig10_tpcb", &doc).expect("write bench json");
}
