//! **Proofs figure**: the cost of proof-carrying reads.
//!
//! Three read modes over the same loaded store, same snapshot discipline:
//!
//! * **plain** — the ordinary typed read (cache fast path allowed);
//! * **deferred** — a proven read that only captures the bookmark
//!   (`Proven` without calling `prove()`), i.e. what every read pays
//!   once an application switches to proof-carrying reads but extracts
//!   proofs lazily;
//! * **eager** — proven read + `prove()` + wire encoding per read, the
//!   full audit path, reported as proofs/s and proof size.
//!
//! A fourth row measures keyed index proofs (`exact_proven`), which cost a
//! full index scan by design. The emitted document
//! (`results/BENCH_fig_proofs.json`) carries per-mode latency
//! distributions, proof throughput and sizes, the deferred-vs-plain p50
//! and p99 ratios, and the `proof.*` counter deltas; CI gates on it. The
//! run also exports one inclusion-proof dump
//! (`results/proof_dump.json`) for `tdb-doctor verify-proof`.

use std::hint::black_box;
use std::time::Instant;
use tdb::obs::Json;
use tdb::proof::{wire, Verifier};
use tdb::{
    impl_persistent_boilerplate, Db, Durability, IndexKind, IndexSpec, Key, ObjectId, Options,
    Persistent, PickleError, Pickler, Unpickler,
};
use tdb_bench::env_u64;
use tdb_bench::proof_dump::dump_json;
use tdb_bench::telemetry::{
    bench_doc, latency_ms_json, push_result, results_dir, write_bench_json,
};
use tdb_obs::Histogram;

const CLASS_REC: u32 = 0xF19_0001;

struct Rec {
    id: u64,
    payload: u64,
}

impl Persistent for Rec {
    impl_persistent_boilerplate!(CLASS_REC);
    fn pickle(&self, w: &mut Pickler) {
        w.u64(self.id);
        w.u64(self.payload);
    }
}

fn unpickle_rec(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Rec {
        id: r.u64()?,
        payload: r.u64()?,
    }))
}

fn open_db() -> Db {
    Db::open(
        Options::in_memory()
            .secret_label("fig-proofs")
            .register_class(CLASS_REC, "Rec", unpickle_rec)
            .register_extractor("rec.id", |o| {
                tdb::extractor_typed::<Rec>(o, |r| Key::U64(r.id))
            }),
    )
    .unwrap()
}

/// xorshift — deterministic id sequence without pulling in a rng.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

struct ModeOutcome {
    latency: tdb_obs::HistSnapshot,
    ops: u64,
    seconds: f64,
    /// Total encoded proof bytes (eager mode only).
    proof_bytes: u64,
}

fn result_row(system: &str, out: &ModeOutcome) -> Json {
    let mut row = Json::obj();
    row.push("system", system);
    row.push("threads", 1u64);
    row.push("reads_per_sec", out.ops as f64 / out.seconds.max(1e-9));
    row.push("latency_ms", latency_ms_json(&out.latency));
    if out.proof_bytes > 0 {
        row.push("proofs_per_sec", out.ops as f64 / out.seconds.max(1e-9));
        row.push(
            "proof_bytes_mean",
            out.proof_bytes as f64 / out.ops.max(1) as f64,
        );
    }
    row
}

fn run_mode(reads: u64, seed: u64, mut op: impl FnMut(u64) -> u64) -> ModeOutcome {
    let latency = Histogram::default();
    let mut state = seed;
    let mut proof_bytes = 0u64;
    let began = Instant::now();
    for _ in 0..reads {
        let id = next(&mut state);
        let op_began = Instant::now();
        proof_bytes += op(id);
        latency.record(op_began.elapsed().as_nanos() as u64);
    }
    ModeOutcome {
        latency: latency.snapshot(),
        ops: reads,
        seconds: began.elapsed().as_secs_f64(),
        proof_bytes,
    }
}

fn main() {
    let objects = env_u64("OBJECTS", 2_000);
    let reads = env_u64("READS", 20_000);
    let keyed_lookups = env_u64(
        "KEYED_LOOKUPS",
        if cfg!(debug_assertions) { 20 } else { 200 },
    );
    let seed = env_u64("SEED", 0x5EED);

    println!(
        "Proofs figure: proof-carrying read cost \
         ({objects} objects, {reads} reads per mode, {keyed_lookups} keyed lookups)"
    );
    println!("================================================================");
    println!();

    let db = open_db();
    let mut oids: Vec<ObjectId> = Vec::with_capacity(objects as usize);
    {
        let t = db.begin();
        let c = t
            .create_collection(
                "recs",
                &[IndexSpec::new("by-id", "rec.id", true, IndexKind::BTree)],
            )
            .unwrap();
        for id in 0..objects {
            oids.push(
                c.insert(Box::new(Rec {
                    id,
                    payload: id.wrapping_mul(0x9E37_79B9),
                }))
                .unwrap(),
            );
        }
        drop(c);
        t.commit(Durability::Durable).unwrap();
    }
    db.checkpoint().unwrap();

    let counters_before = db.obs().snapshot();
    let anchor = db.trust_anchor().unwrap();
    let verifier = Verifier::new(anchor.clone());
    let r = db.begin_read_proven().unwrap();
    let reader = r.object_reader();
    let pick = |id: u64| oids[(id % objects) as usize];

    // Plain typed reads — the baseline every proven mode is compared to.
    let plain = run_mode(reads, seed, |id| {
        black_box(reader.read::<Rec, _>(pick(id), |rec| rec.payload).unwrap());
        0
    });

    // Deferred: capture the bookmark, never build the proof.
    let deferred = run_mode(reads, seed, |id| {
        black_box(reader.read_proven_bytes(pick(id)).unwrap().value);
        0
    });

    // Eager: bookmark + prove + encode, i.e. the full audit read.
    let eager = run_mode(reads, seed, |id| {
        let proven = reader.read_proven_bytes(pick(id)).unwrap();
        let proof = proven.prove().unwrap();
        wire::encode_chunk_proof(&proof).len() as u64
    });

    // Keyed proofs: full-scan index commitments, far fewer iterations.
    let coll = r.read_collection("recs").unwrap();
    let keyed = run_mode(keyed_lookups, seed, |id| {
        let hit = coll.exact_proven("by-id", &Key::U64(id % objects)).unwrap();
        wire::encode_keyed_proof(&hit.proof).len() as u64
    });

    // Spot-verify each mode's artifacts so the numbers describe proofs
    // that actually check out.
    let proven = reader.read_proven_bytes(oids[0]).unwrap();
    let bytes = proven.value.clone().unwrap();
    let proof = proven.prove().unwrap();
    verifier.verify_chunk(&proof, Some(&bytes)).unwrap();
    let hit = coll.exact_proven("by-id", &Key::U64(0)).unwrap();
    verifier.verify_keyed(&hit.proof).unwrap();

    // Export one dump for `tdb-doctor verify-proof`.
    let dump_path = results_dir().join("proof_dump.json");
    std::fs::create_dir_all(results_dir()).unwrap();
    std::fs::write(&dump_path, dump_json(&proof, &anchor, Some(&bytes))).unwrap();
    eprintln!("telemetry: wrote {}", dump_path.display());

    let counters_after = db.obs().snapshot();
    let proof_counters = {
        let mut o = Json::obj();
        for (name, after) in &counters_after.counters {
            if let Some(rest) = name.strip_prefix("proof.") {
                let before = counters_before.counters.get(name).copied().unwrap_or(0);
                o.push(format!("proof.{rest}").as_str(), *after - before);
            }
        }
        o
    };

    let ratio = |a: f64, b: f64| a / b.max(1e-9);
    let p50_ratio = ratio(deferred.latency.p50(), plain.latency.p50());
    let p99_ratio = ratio(deferred.latency.p99(), plain.latency.p99());
    for (label, out) in [
        ("plain", &plain),
        ("deferred", &deferred),
        ("eager", &eager),
        ("keyed", &keyed),
    ] {
        println!(
            "{label:<10} {:>12.0} ops/s  p50 {:>8.1} ns  p99 {:>8.1} ns  proof bytes mean {:>6.0}",
            out.ops as f64 / out.seconds.max(1e-9),
            out.latency.p50(),
            out.latency.p99(),
            out.proof_bytes as f64 / out.ops.max(1) as f64,
        );
    }
    println!();
    println!(
        "deferred vs plain: p50 {p50_ratio:.2}x, p99 {p99_ratio:.2}x \
         (what switching one read to the proven snapshot path costs; \
         reads not asking for proofs are untouched)"
    );

    let mut config = Json::obj();
    config.push("objects", objects);
    config.push("reads_per_mode", reads);
    config.push("keyed_lookups", keyed_lookups);
    config.push("seed", seed);
    let mut doc = bench_doc("fig_proofs", config);
    push_result(&mut doc, result_row("TDB-plain-read", &plain));
    push_result(&mut doc, result_row("TDB-proven-deferred", &deferred));
    push_result(&mut doc, result_row("TDB-proven-eager", &eager));
    push_result(&mut doc, result_row("TDB-keyed-exact", &keyed));
    let mut summary = Json::obj();
    summary.push("system", "summary");
    summary.push("proofs_per_sec", eager.ops as f64 / eager.seconds.max(1e-9));
    summary.push(
        "proof_bytes_mean",
        eager.proof_bytes as f64 / eager.ops.max(1) as f64,
    );
    summary.push("deferred_p50_ratio", p50_ratio);
    summary.push("deferred_p99_ratio", p99_ratio);
    summary.push("counters", proof_counters);
    push_result(&mut doc, summary);
    write_bench_json("fig_proofs", &doc).expect("write bench json");
}
