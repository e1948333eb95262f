//! In-text overhead claims (§3.1 footnote, §4.2.1, §7.4): per-chunk storage
//! overhead with and without security, and the extra location-map bytes
//! TDB-S pays for storing hashes.
//!
//! Paper claims: "about 20 bytes without crypto overhead and 38 bytes with
//! crypto overhead" per chunk; TDB-S has "a higher per-chunk storage
//! overhead (12 bytes) because it stores one-way hashes in the location
//! map"; "there is extra storage overhead of 6 bytes per chunk on top of
//! the space required for storing a one-way hash" for the map entry.

use chunk_store::Durability;
use chunk_store::{ChunkStoreConfig, SecurityMode};
use tdb_bench::bench_chunk_store;
use tdb_bench::telemetry::{
    bench_doc, counters_json, histograms_json, push_result, write_bench_json,
};
use tdb_obs::{Json, RegistrySnapshot};

/// Bytes appended for one N-byte chunk write + its share of metadata.
fn measure(mode: SecurityMode, payload: usize, chunks: u64) -> (f64, f64, RegistrySnapshot) {
    let cfg = ChunkStoreConfig {
        security: mode,
        ..Default::default()
    };
    let store = bench_chunk_store(cfg);
    let base = store.stats();
    for _ in 0..chunks {
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, &vec![0xABu8; payload]).unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
    }
    let s = store.stats().since(&base);
    let chunk_overhead =
        (s.chunk_bytes_appended as f64 - (payload as u64 * chunks) as f64) / chunks as f64;
    // Map entry cost: checkpoint and count map bytes per live chunk.
    store.checkpoint().unwrap();
    let s2 = store.stats().since(&base);
    let map_per_chunk = s2.map_bytes_appended as f64 / store.live_chunks() as f64;
    (chunk_overhead, map_per_chunk, store.obs().snapshot())
}

fn main() {
    println!("Per-chunk storage overheads (paper §3.1 / §4.2.1 / §7.4)");
    println!("=========================================================");
    println!();
    println!("paper: ~20 B/chunk without crypto, ~38 B/chunk with crypto;");
    println!("TDB-S map entries 12 B/chunk larger (stored one-way hashes).");
    println!();
    const PAYLOAD: usize = 100;
    const CHUNKS: u64 = 2000;
    let (off_chunk, off_map, off_obs) = measure(SecurityMode::Off, PAYLOAD, CHUNKS);
    let (on_chunk, on_map, on_obs) = measure(SecurityMode::Full, PAYLOAD, CHUNKS);
    println!("measured, {PAYLOAD}-byte chunks (record header + id + IV/padding):");
    println!(
        "  {:<34} {:>7.1} B/chunk",
        "TDB   per-chunk log overhead", off_chunk
    );
    println!(
        "  {:<34} {:>7.1} B/chunk",
        "TDB-S per-chunk log overhead", on_chunk
    );
    println!(
        "  {:<34} {:>7.1} B/chunk",
        "TDB   map entry (amortized)", off_map
    );
    println!(
        "  {:<34} {:>7.1} B/chunk",
        "TDB-S map entry (amortized)", on_map
    );
    println!(
        "  {:<34} {:>7.1} B/chunk   (paper: 12, with SHA-1; ours uses SHA-256)",
        "TDB-S map hash overhead (delta)",
        on_map - off_map
    );
    println!();
    println!("ours differ in absolute terms because SHA-256 digests are 32 B");
    println!("(vs SHA-1's 20 B) and AES blocks are 16 B (vs 3DES's 8 B); the");
    println!("structure of the overhead is the same.");

    let mut config = Json::obj();
    config.push("payload_bytes", PAYLOAD);
    config.push("chunks", CHUNKS);
    let mut doc = bench_doc("overheads", config);
    for (name, chunk_overhead, map_per_chunk, obs) in [
        ("TDB", off_chunk, off_map, &off_obs),
        ("TDB-S", on_chunk, on_map, &on_obs),
    ] {
        let mut row = Json::obj();
        row.push("system", name);
        row.push("chunk_overhead_bytes", chunk_overhead);
        row.push("map_entry_bytes", map_per_chunk);
        row.push("phases_ns", histograms_json(obs, "commit."));
        row.push("counters", counters_json(obs));
        push_result(&mut doc, row);
    }
    write_bench_json("overheads", &doc).expect("write bench json");
}
