//! `tdb-doctor` — read and summarize TDB diagnostic dumps.
//!
//! The stall watchdog (and `Db::diagnostics_to_dir`) writes
//! `tdb-diag-*.json` files to `TDB_DIAG_DIR`. This tool renders them for
//! humans: which operations were stalled, what each registered store's
//! health looked like, each thread's last trace event, and (on request)
//! the full flight-recorder timeline.
//!
//! ```text
//! tdb-doctor <dump.json | diag-dir>   # summary of one dump (dir: latest)
//! tdb-doctor --timeline <dump.json>   # per-thread event timelines
//! tdb-doctor --json <dump.json>       # pretty-print the raw document
//! tdb-doctor verify-proof <dump.json> # check an exported proof dump
//! ```
//!
//! `verify-proof` checks an offline proof dump (written by
//! [`tdb_bench::proof_dump::dump_json`]): it rebuilds the standalone verifier
//! from the embedded trust anchor and accepts or rejects the proof, with
//! no database involved.
//!
//! Exit status: 0 on a clean dump / verified proof, 1 when the dump
//! records stalled operations or the proof is rejected (so scripts can
//! gate on it), 2 on usage/parse errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tdb::proof::{TrustKeys, Verifier};
use tdb_obs::Json;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("verify-proof") {
        return match args.get(1) {
            Some(path) => verify_proof(Path::new(path)),
            None => {
                eprintln!("usage: tdb-doctor verify-proof <dump.json>");
                ExitCode::from(2)
            }
        };
    }
    let mut timeline = false;
    let mut raw = false;
    let mut target: Option<PathBuf> = None;
    for a in args.drain(..) {
        match a.as_str() {
            "--timeline" => timeline = true,
            "--json" => raw = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: tdb-doctor [--timeline|--json] <dump.json | diag-dir>\n\
                     \x20      tdb-doctor verify-proof <dump.json>"
                );
                return ExitCode::from(2);
            }
            _ => target = Some(PathBuf::from(a)),
        }
    }
    let target = match target.or_else(default_target) {
        Some(t) => t,
        None => {
            eprintln!("tdb-doctor: no dump given and TDB_DIAG_DIR is unset");
            return ExitCode::from(2);
        }
    };
    let file = if target.is_dir() {
        match latest_dump(&target) {
            Some(f) => f,
            None => {
                eprintln!(
                    "tdb-doctor: no tdb-diag-*.json files in {}",
                    target.display()
                );
                return ExitCode::from(2);
            }
        }
    } else {
        target
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tdb-doctor: cannot read {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let dump = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tdb-doctor: {} is not valid JSON: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    if raw {
        println!("{}", dump.pretty());
        return ExitCode::SUCCESS;
    }
    println!("dump: {}", file.display());
    let stalled = summarize(&dump, timeline);
    if stalled {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `tdb-doctor verify-proof <dump.json>`: offline check of an exported
/// proof dump against the trust anchor it embeds.
fn verify_proof(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tdb-doctor: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let dump = match tdb_bench::proof_dump::parse_dump_json(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tdb-doctor: {} is not a proof dump: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let shape = match &dump.anchor.keys {
        TrustKeys::Single { .. } => "unsharded".to_string(),
        TrustKeys::Sharded { shard_mac_keys, .. } => {
            format!("sharded ({} shards)", shard_mac_keys.len())
        }
    };
    println!(
        "dump: {}  chunk {}  {}  anchor counter {}  attested counter {} (commit seq {})",
        path.display(),
        dump.proof.chunk_id,
        shape,
        dump.anchor.counter_value,
        dump.proof.attestation.counter_value,
        dump.proof.attestation.commit_seq,
    );
    let verifier = Verifier::new(dump.anchor);
    match verifier.verify_chunk(&dump.proof, dump.value.as_deref()) {
        Ok(()) => {
            match &dump.value {
                Some(v) => println!("VERIFIED: inclusion proof covers {} value bytes", v.len()),
                None => println!("VERIFIED: non-membership proof (chunk provably absent)"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("REJECTED: {e}");
            ExitCode::from(1)
        }
    }
}

fn default_target() -> Option<PathBuf> {
    std::env::var("TDB_DIAG_DIR").ok().map(PathBuf::from)
}

/// Newest `tdb-diag-*.json` in `dir` by file name (names embed the unix
/// timestamp, so lexicographic order is chronological within one epoch
/// width).
fn latest_dump(dir: &Path) -> Option<PathBuf> {
    let mut dumps: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("tdb-diag-") && n.ends_with(".json"))
        })
        .collect();
    dumps.sort();
    dumps.pop()
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(|j| j.as_str()).unwrap_or("?")
}

fn u64_of(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(|j| j.as_u64()).unwrap_or(0)
}

/// Print the human summary; returns whether the dump records stalls.
fn summarize(dump: &Json, timeline: bool) -> bool {
    println!(
        "schema {}  reason \"{}\"  pid {}  captured unix_ms {}",
        str_of(dump, "schema"),
        str_of(dump, "reason"),
        u64_of(dump, "pid"),
        u64_of(dump, "unix_ms"),
    );
    println!(
        "watchdog threshold {} ms, tracing {}",
        u64_of(dump, "watchdog_threshold_ms"),
        if dump
            .get("trace_enabled")
            .and_then(|j| j.as_f64())
            .unwrap_or(0.0)
            != 0.0
        {
            "on"
        } else {
            "off"
        },
    );

    let stalled = dump
        .get("stalled_ops")
        .and_then(|j| j.as_arr())
        .unwrap_or(&[]);
    if stalled.is_empty() {
        println!("stalled operations: none");
    } else {
        println!("stalled operations ({}):", stalled.len());
        for op in stalled {
            println!(
                "  thread t{} {:<20} xid {:<8} in flight {} ms",
                u64_of(op, "tid"),
                str_of(op, "kind"),
                u64_of(op, "xid"),
                u64_of(op, "age_ms"),
            );
        }
    }

    if let Some(provs) = dump.get("providers").and_then(|j| j.as_obj()) {
        println!("stores ({}):", provs.len());
        for (name, state) in provs {
            print!("  {name}:");
            for key in [
                "label",
                "commit_seq",
                "durable_seq",
                "anchor_seq",
                "free_segments",
                "group_waiters",
                "store_lock",
                "group_lock",
            ] {
                if let Some(v) = state.get(key) {
                    print!(" {key}={}", v.render());
                }
            }
            if let Some(maint) = state.get("maintenance") {
                print!(" maintenance={}", maint.render());
            }
            println!();
        }
    }

    if let Some(trace) = dump.get("trace") {
        let events = trace.get("events").and_then(|j| j.as_arr()).unwrap_or(&[]);
        println!(
            "trace: {} events buffered ({} recorded since start)",
            events.len(),
            u64_of(trace, "recorded"),
        );
        // Last event per thread — the "where is everyone" table.
        let mut last: Vec<(u64, &Json)> = Vec::new();
        for ev in events {
            let tid = u64_of(ev, "tid");
            match last.iter_mut().find(|(t, _)| *t == tid) {
                Some(slot) => slot.1 = ev,
                None => last.push((tid, ev)),
            }
        }
        last.sort_by_key(|(t, _)| *t);
        println!("last event per thread:");
        for (tid, ev) in &last {
            println!(
                "  t{tid:<4} {:>12} ns  {}.{} xid {} a {} b {}",
                u64_of(ev, "ts_ns"),
                str_of(ev, "layer"),
                str_of(ev, "kind"),
                u64_of(ev, "xid"),
                u64_of(ev, "a"),
                u64_of(ev, "b"),
            );
        }
        if timeline {
            println!("timelines:");
            for (tid, _) in &last {
                println!("thread t{tid}:");
                for ev in events.iter().filter(|e| u64_of(e, "tid") == *tid) {
                    println!(
                        "  {:>12} ns  {}.{} xid {} a {} b {}",
                        u64_of(ev, "ts_ns"),
                        str_of(ev, "layer"),
                        str_of(ev, "kind"),
                        u64_of(ev, "xid"),
                        u64_of(ev, "a"),
                        u64_of(ev, "b"),
                    );
                }
            }
        }
    }
    !stalled.is_empty()
}
