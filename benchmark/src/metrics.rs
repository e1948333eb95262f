//! The metric tables (names, units, bounds — mirrored in BENCHMARK.json)
//! and the arithmetic that turns a measured window into their values.

use tdb::obs::{HistSnapshot, RegistrySnapshot};

use crate::counting::CountsSnapshot;
use crate::driver::{name, ClientLog, Sample};
use crate::ladder::Ladder;
use crate::spans::{ladder_self_times, self_times, Span, NO_PARENT};
use crate::stats::{counts_per_slice, median, quantile_sorted, ratio, tail_sorted, PerOp, Tail};
use crate::workload::{history_bytes, Spec};

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "log_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// A per-layer metric: reported by the traced run, no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only BENCHMARK.json consumes the direction (a test compares the two).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 82] = [
    // tdb-client / tdb-wire / tdb-server
    lower("wire.round_trips_per_op", "count"),
    lower("wire.bytes_per_op", "B"),
    lower("wire.codec_us_per_op", "us"),
    lower("server.self_us_per_op", "us"),
    lower("server.errors", "count"),
    lower("server.rejections", "count"),
    // tdb (session / facade): median per call
    lower("session.begin_us", "us"),
    lower("session.lookup_ids_us", "us"),
    lower("session.get_for_update_us", "us"),
    lower("session.write_back_us", "us"),
    lower("session.insert_us", "us"),
    lower("session.commit_us", "us"),
    lower("session.exact_us", "us"),
    lower("session.read_us", "us"),
    lower("session.range_us", "us"),
    lower("session.read_proven_us", "us"),
    lower("session.exact_proven_us", "us"),
    lower("tdb.self_us_per_op", "us"),
    lower("driver.self_us_per_op", "us"),
    // collection-store
    lower("coll.self_us_per_op", "us"),
    lower("index.lookups_per_op", "count"),
    lower("index.maintenance_per_op", "count"),
    lower("coll.retries_per_op", "count"),
    // object-store
    lower("obj.self_us_per_op", "us"),
    higher("cache.hit_ratio", "ratio"),
    lower("cache.evictions_per_op", "count"),
    lower("read.snapshot_fallback_ratio", "ratio"),
    lower("lock.waits_per_op", "count"),
    lower("lock.wait_p50_us", "us"),
    lower("lock.timeouts_per_op", "count"),
    // chunk-store
    lower("chunk.self_us_per_op", "us"),
    lower("chunk.commit_serialize_us", "us"),
    lower("chunk.commit_seal_us", "us"),
    lower("chunk.commit_map_us", "us"),
    lower("chunk.commit_append_us", "us"),
    lower("chunk.commit_anchor_us", "us"),
    lower("chunk.commit_group_wait_us", "us"),
    lower("chunk.commit_sync_us", "us"),
    lower("chunk.commit_counter_us", "us"),
    higher("chunk.group_size_mean", "count"),
    lower("chunk.syncs_per_op", "count"),
    lower("chunk.commit_bytes_per_op", "B"),
    lower("chunk.map_bytes_per_op", "B"),
    lower("chunk.cleaner_bytes_per_op", "B"),
    lower("chunk.cleaner_passes", "count"),
    lower("chunk.checkpoints", "count"),
    lower("chunk.maintenance_stalls", "count"),
    lower("chunk.reads_per_op", "count"),
    lower("chunk.read_bytes_per_op", "B"),
    lower("chunk.reopen_ms", "ms"),
    // tdb-proof
    lower("proof.verify_keyed_us", "us"),
    lower("proof.verify_chunk_us", "us"),
    lower("proof.minted_per_op", "count"),
    lower("proof.keyed_minted_per_op", "count"),
    lower("proof.keyed_bytes_per_op", "B"),
    lower("proof.chunk_bytes_per_op", "B"),
    lower("proof.keyed_share_of_lookup", "ratio"),
    // tdb-crypto
    lower("crypto.seal_us_per_op", "us"),
    higher("crypto.aes_mb_per_s", "MB/s"),
    higher("crypto.sha256_mb_per_s", "MB/s"),
    // platform (decorators + bottom rung)
    lower("platform.write_calls_per_op", "count"),
    lower("platform.write_bytes_per_op", "B"),
    lower("platform.syncs_per_op", "count"),
    lower("platform.sync_p50_us", "us"),
    lower("platform.sync_busy_ratio", "ratio"),
    lower("platform.counter_bumps_per_op", "count"),
    lower("platform.counter_bump_us", "us"),
    lower("platform.us_per_op", "us"),
    lower("platform.share_of_op", "ratio"),
    // the ladder's rungs themselves (platform.us_per_op is the bottom one)
    lower("ladder.remote_us", "us"),
    lower("ladder.session_us", "us"),
    lower("ladder.collection_us", "us"),
    lower("ladder.object_us", "us"),
    lower("ladder.chunk_us", "us"),
    lower("ladder.frontend_share_of_op", "ratio"),
    // tdb-obs
    lower("obs.trace_overhead_ratio", "ratio"),
    // demoted from end-to-end: zero on most or all workloads, which the
    // benchmark contract does not allow an end-to-end metric to be
    lower("fail_ratio", "ratio"),
    lower("proof_bytes_per_op", "B"),
    // traced-window throughput and latency, the base of the ratios above
    higher("traced.ops_per_s", "1/s"),
    lower("traced.op_p50_us", "us"),
    lower("traced.ops", "count"),
    // layer-separation checks that did not hold (see README)
    lower("harness.separation_violations", "count"),
];

/// A reported value.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count, base of a ratio, percentile actually used, ...
    pub note: String,
}

/// Everything measured over one window.
pub struct Window {
    /// Whole seconds the window measured.
    pub seconds: u64,
    pub logs: Vec<ClientLog>,
    /// Spans per client (traced windows only).
    pub spans: Vec<Vec<Span>>,
    /// Registry delta over the window.
    pub obs: RegistrySnapshot,
    /// Bytes appended to the untrusted store over the window.
    pub bytes_appended: u64,
    /// Platform decorator deltas (traced runs only).
    pub counts: Option<CountsSnapshot>,
    pub sync_samples_ns: Vec<u64>,
    /// History records that existed when the window opened.
    pub history_before: u64,
}

impl Window {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|l| l.samples.iter())
    }

    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    /// Operations that completed, successfully or not.
    pub fn completed(&self) -> u64 {
        self.samples().count() as u64
    }

    /// Transfers whose commit was acknowledged: the window's committed
    /// read-write transactions.
    pub fn committed(&self) -> u64 {
        self.logs.iter().map(|l| l.committed.len() as u64).sum()
    }

    /// Operations completed in each whole second of the window.
    pub fn per_second_counts(&self) -> Vec<u64> {
        counts_per_slice(
            self.samples().map(|s| s.end_ns),
            1_000_000_000,
            self.seconds as usize,
        )
    }

    /// Median of the per-second completed-operation counts.
    pub fn ops_per_s(&self) -> f64 {
        let counts: Vec<f64> = self.per_second_counts().iter().map(|&c| c as f64).collect();
        median(&counts)
    }

    /// [`ops_per_s`](Self::ops_per_s) over the seconds whose index is
    /// `parity` modulo 2 — a traced window alternates tracing by the second
    /// (see [`crate::driver::traced_at`]), so odd seconds are the traced
    /// throughput and even seconds the untraced one, both under the same
    /// drift.
    pub fn ops_per_s_in(&self, parity: usize) -> f64 {
        let counts: Vec<f64> = self
            .per_second_counts()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, &c)| c as f64)
            .collect();
        median(&counts)
    }

    fn sorted_durations(&self) -> Vec<u64> {
        let mut d: Vec<u64> = self.samples().map(|s| s.dur_ns).collect();
        d.sort_unstable();
        d
    }

    /// Median latency in microseconds, and the tail over the whole window:
    /// p99, or the highest percentile with at least ten samples beyond it.
    pub fn latency(&self) -> (f64, Tail) {
        let sorted = self.sorted_durations();
        (
            quantile_sorted(&sorted, 0.5) as f64 / 1e3,
            tail_sorted(&sorted, 0.99),
        )
    }

    /// Median of the once-per-second `disk_size` readings, each divided by
    /// the pickled user bytes live at that moment (loaded tables plus one
    /// history record per transfer committed so far).
    pub fn space_amp(&self, spec: &Spec) -> (f64, usize) {
        let mut transfer_ends: Vec<u64> = self
            .samples()
            .filter(|s| s.ok && s.kind == name::OP_TRANSFER)
            .map(|s| s.end_ns)
            .collect();
        transfer_ends.sort_unstable();
        let ratios: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| l.stat_samples.iter())
            .map(|s| {
                let done = transfer_ends.partition_point(|&e| e <= s.at_ns) as u64;
                let live = spec.loaded_user_bytes()
                    + (self.history_before + done) * history_bytes() as u64;
                s.stats.disk_size as f64 / live as f64
            })
            .collect();
        (median(&ratios), ratios.len())
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, in table order.
pub fn end_to_end(spec: &Spec, w: &Window, setups_s: &[f64], peak_rss_mb: f64) -> Vec<Value> {
    let (p50_us, tail) = w.latency();
    let n = w.completed();
    let (space_amp, space_samples) = w.space_amp(spec);
    let log_bytes = PerOp::new(w.bytes_appended as f64, w.committed());
    let values = [
        (
            median(setups_s),
            format!("median of {} set-ups", setups_s.len()),
        ),
        (
            w.ops_per_s(),
            format!("median of one-second counts {:?}", w.per_second_counts()),
        ),
        (p50_us, format!("{n} samples")),
        (
            tail.value as f64 / 1e3,
            format!("{} of {n} samples", tail.name()),
        ),
        (
            1.0 - ratio(w.failed() as f64, w.attempted() as f64),
            format!("{} failed of {} attempted", w.failed(), w.attempted()),
        ),
        (
            log_bytes.value(),
            format!(
                "{} bytes appended / {} committed transfers",
                log_bytes.total, log_bytes.ops
            ),
        ),
        (space_amp, format!("median of {space_samples} readings")),
        (
            peak_rss_mb,
            "VmHWM after the window and its checks".to_string(),
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, note))| Value {
            name: m.name,
            unit: m.unit,
            value,
            note,
        })
        .collect()
}

/// Bytes the window's commits themselves appended: chunk records and
/// commit records, less the chunk records the cleaner re-appended.
fn commit_path_bytes(obs: &RegistrySnapshot) -> f64 {
    counter(obs, "chunk.chunk_bytes_appended") + counter(obs, "chunk.commit_bytes_appended")
        - counter(obs, "chunk.cleaner_bytes_copied")
}

fn counter(obs: &RegistrySnapshot, name: &str) -> f64 {
    obs.counters.get(name).copied().unwrap_or(0) as f64
}

fn hist<'a>(obs: &'a RegistrySnapshot, name: &str) -> Option<&'a HistSnapshot> {
    obs.histograms.get(name).filter(|h| h.count() > 0)
}

/// Mean of a nanosecond histogram, in microseconds.
fn hist_mean_us(obs: &RegistrySnapshot, name: &str) -> (f64, u64) {
    hist(obs, name).map_or((0.0, 0), |h| (h.mean() / 1e3, h.count()))
}

/// Inputs of the per-layer report beyond the traced window itself.
pub struct LayerInputs<'a> {
    pub ladder: &'a Ladder,
    pub reopen_ms: f64,
}

/// Rows of the per-layer report while it is being assembled.
struct Rows {
    /// Operations completed in the window: the base of every per-op ratio.
    ops: u64,
    rows: Vec<(&'static str, f64, String)>,
}

impl Rows {
    fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.rows.push((name, value, note.into()));
    }

    /// `total / ops`, with the base in the note.
    fn per_op(&mut self, name: &'static str, total: f64) {
        let r = PerOp::new(total, self.ops);
        self.put(name, r.value(), r.describe());
    }
}

/// The per-layer metrics of a traced run, in table order.
pub fn per_layer(spec: &Spec, w: &Window, inp: &LayerInputs, quick: bool) -> Vec<Value> {
    let ops = w.completed();
    let mut out = Rows {
        ops,
        rows: Vec::new(),
    };
    let obs = &w.obs;
    let count = |name: &str| counter(obs, name);

    // Span durations by name, and the root spans' self times, in one pass
    // per client.
    let mut by_name: Vec<Vec<u64>> = vec![Vec::new(); name::ALL.len()];
    let mut root_selfs_us: Vec<f64> = Vec::new();
    for spans in &w.spans {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            by_name[s.name as usize].push(s.duration_ns());
            if s.parent == NO_PARENT {
                root_selfs_us.push(self_ns as f64 / 1e3);
            }
        }
    }
    let call_median = |n: u16| {
        let us: Vec<f64> = by_name[n as usize]
            .iter()
            .map(|&x| x as f64 / 1e3)
            .collect();
        (median(&us), format!("median of {} calls", us.len()))
    };
    let total_ns = |n: u16| by_name[n as usize].iter().sum::<u64>() as f64;

    let ladder = inp.ladder;
    let selfs = ladder_self_times(&ladder.rungs);
    let self_of = |layer: &str| {
        selfs
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, v)| *v)
    };
    let rung_note = format!("median of {} replayed transfers per rung", spec.ladder_ops);

    // -- network front end ------------------------------------------------
    out.per_op("wire.round_trips_per_op", count("server.requests"));
    out.per_op(
        "wire.bytes_per_op",
        count("server.request_bytes") + count("server.response_bytes"),
    );
    let frontend = self_of("remote");
    let (codec_us, server_us) = if spec.remote {
        (ladder.wire_codec_us, frontend - ladder.wire_codec_us)
    } else {
        (0.0, 0.0)
    };
    out.put(
        "wire.codec_us_per_op",
        codec_us,
        "encode + decode of one transfer's 24 frames",
    );
    out.put(
        "server.self_us_per_op",
        server_us,
        "remote rung - session rung - codec: sockets, loopback, thread hand-off, dispatch",
    );
    out.put(
        "server.errors",
        count("server.errors"),
        "count over the window",
    );
    out.put(
        "server.rejections",
        count("server.admission_rejections") + count("server.quota_rejections"),
        "admission + quota, count over the window",
    );

    // -- session calls ----------------------------------------------------
    for (metric, n) in [
        ("session.begin_us", name::BEGIN),
        ("session.lookup_ids_us", name::LOOKUP_IDS),
        ("session.get_for_update_us", name::GET_FOR_UPDATE),
        ("session.write_back_us", name::WRITE_BACK),
        ("session.insert_us", name::INSERT),
        ("session.commit_us", name::COMMIT),
        ("session.exact_us", name::EXACT),
        ("session.read_us", name::READ),
        ("session.range_us", name::RANGE),
        ("session.read_proven_us", name::READ_PROVEN),
        ("session.exact_proven_us", name::EXACT_PROVEN),
        ("proof.verify_keyed_us", name::VERIFY_KEYED),
        ("proof.verify_chunk_us", name::VERIFY_CHUNK),
    ] {
        let (v, note) = call_median(n);
        out.put(metric, v, note);
    }
    out.put("tdb.self_us_per_op", self_of("session"), rung_note.as_str());
    // What the benchmark's own client code costs per operation: the root
    // span's self time (unpickle/mutate/re-pickle, reply checks, back-off).
    out.put(
        "driver.self_us_per_op",
        median(&root_selfs_us),
        format!(
            "median root-span self time of {} traced ops",
            root_selfs_us.len()
        ),
    );

    // -- collection-store -------------------------------------------------
    out.put(
        "coll.self_us_per_op",
        self_of("collection"),
        rung_note.as_str(),
    );
    out.per_op("index.lookups_per_op", count("index.lookups"));
    out.per_op("index.maintenance_per_op", count("index.maintenance"));
    out.per_op(
        "coll.retries_per_op",
        w.logs.iter().map(|l| l.retries).sum::<u64>() as f64,
    );

    // -- object-store -----------------------------------------------------
    out.put("obj.self_us_per_op", self_of("object"), rung_note.as_str());
    // Every object dereference, by read-write transactions (`cache.*`) and
    // by snapshot readers (`read.*`, who probe the same cache but never
    // fill it), served without touching the chunk store.
    let snap_reads = count("read.cache_fast") + count("read.snapshot_fallbacks");
    let hits = count("cache.hits") + count("read.cache_fast");
    let derefs = count("cache.hits") + count("cache.misses") + snap_reads;
    let hit_ratio = ratio(hits, derefs);
    out.put(
        "cache.hit_ratio",
        hit_ratio,
        format!("{hits} of {derefs} object dereferences served from the shared cache"),
    );
    out.per_op("cache.evictions_per_op", count("cache.evictions"));
    out.put(
        "read.snapshot_fallback_ratio",
        ratio(count("read.snapshot_fallbacks"), snap_reads),
        format!("of {snap_reads} snapshot dereferences"),
    );
    out.per_op("lock.waits_per_op", count("lock.waits"));
    let lock_wait = hist(obs, "lock.wait");
    out.put(
        "lock.wait_p50_us",
        lock_wait.map_or(0.0, |h| h.p50() / 1e3),
        format!("{} waits", lock_wait.map_or(0, |h| h.count())),
    );
    out.per_op(
        "lock.timeouts_per_op",
        count("lock.timeouts_contention") + count("lock.timeouts_deadlock"),
    );

    // -- chunk-store ------------------------------------------------------
    out.put(
        "chunk.self_us_per_op",
        self_of("chunk") - ladder.crypto_seal_us,
        "chunk rung - platform rung - crypto seal",
    );
    for (metric, h) in [
        ("chunk.commit_serialize_us", "commit.serialize"),
        ("chunk.commit_seal_us", "commit.seal"),
        ("chunk.commit_map_us", "commit.map"),
        ("chunk.commit_append_us", "commit.append"),
        ("chunk.commit_anchor_us", "commit.anchor"),
        ("chunk.commit_group_wait_us", "commit.group_wait"),
        ("chunk.commit_sync_us", "commit.sync"),
        ("chunk.commit_counter_us", "commit.counter"),
    ] {
        let (v, n) = hist_mean_us(obs, h);
        out.put(metric, v, format!("mean of {n} sampled laps"));
    }
    let groups = hist(obs, "commit.group_size");
    out.put(
        "chunk.group_size_mean",
        groups.map_or(0.0, |h| h.mean()),
        format!("{} durable groups", groups.map_or(0, |h| h.count())),
    );
    out.per_op("chunk.syncs_per_op", count("chunk.syncs"));
    // The three parts of `log_bytes_per_op`, on its base: committed
    // transfers, not all operations.
    for (metric, bytes) in [
        ("chunk.commit_bytes_per_op", commit_path_bytes(obs)),
        ("chunk.map_bytes_per_op", count("chunk.map_bytes_appended")),
        (
            "chunk.cleaner_bytes_per_op",
            count("chunk.cleaner_bytes_copied"),
        ),
    ] {
        let r = PerOp::new(bytes, w.committed());
        out.put(
            metric,
            r.value(),
            format!("{bytes} bytes / {} committed transfers", r.ops),
        );
    }
    let cleaner_passes = count("chunk.cleaner_passes");
    for metric in [
        "chunk.cleaner_passes",
        "chunk.checkpoints",
        "chunk.maintenance_stalls",
    ] {
        // The metric and the registry counter share their name.
        out.put(metric, count(metric), "count over the window");
    }
    out.per_op("chunk.reads_per_op", count("chunk.chunk_reads"));
    out.per_op("chunk.read_bytes_per_op", count("chunk.bytes_read"));
    out.put(
        "chunk.reopen_ms",
        inp.reopen_ms,
        "drop + Db::open on the run's store",
    );

    // -- tdb-proof --------------------------------------------------------
    out.per_op("proof.minted_per_op", count("proof.minted"));
    out.per_op("proof.keyed_minted_per_op", count("proof.keyed_minted"));
    let keyed_bytes = w.logs.iter().map(|l| l.keyed_proof_bytes).sum::<u64>() as f64;
    let chunk_bytes = w.logs.iter().map(|l| l.chunk_proof_bytes).sum::<u64>() as f64;
    out.per_op("proof.keyed_bytes_per_op", keyed_bytes);
    out.per_op("proof.chunk_bytes_per_op", chunk_bytes);
    let keyed_share = ratio(
        total_ns(name::EXACT_PROVEN) + total_ns(name::VERIFY_KEYED),
        total_ns(name::OP_LOOKUP),
    );
    out.put(
        "proof.keyed_share_of_lookup",
        keyed_share,
        "(exact_proven + verify_keyed) time / verified-lookup time",
    );

    // -- tdb-crypto -------------------------------------------------------
    out.put(
        "crypto.seal_us_per_op",
        ladder.crypto_seal_us,
        "CBC + SHA-256 per chunk + one HMAC, over one transfer's 4 chunks",
    );
    out.put(
        "crypto.aes_mb_per_s",
        ladder.aes_mb_per_s,
        "CBC-encrypt 1 MiB",
    );
    out.put(
        "crypto.sha256_mb_per_s",
        ladder.sha256_mb_per_s,
        "hash 1 MiB",
    );

    // -- platform ---------------------------------------------------------
    let c = w.counts.unwrap_or_default();
    out.per_op("platform.write_calls_per_op", c.write_calls as f64);
    out.per_op("platform.write_bytes_per_op", c.write_bytes as f64);
    out.per_op("platform.syncs_per_op", c.sync_calls as f64);
    let mut syncs = w.sync_samples_ns.clone();
    syncs.sort_unstable();
    out.put(
        "platform.sync_p50_us",
        quantile_sorted(&syncs, 0.5) as f64 / 1e3,
        format!("{} syncs", syncs.len()),
    );
    out.put(
        "platform.sync_busy_ratio",
        ratio(c.sync_ns as f64, w.seconds as f64 * 1e9),
        "summed sync time / window",
    );
    out.per_op("platform.counter_bumps_per_op", c.increments as f64);
    out.put(
        "platform.counter_bump_us",
        ratio(c.increment_ns as f64 / 1e3, c.increments as f64),
        format!("mean of {} increments", c.increments),
    );
    let platform_us = ladder.rung("platform");
    let platform_share = ratio(platform_us, ladder.rung("session"));
    out.put("platform.us_per_op", platform_us, rung_note.as_str());
    out.put(
        "platform.share_of_op",
        platform_share,
        "platform rung / session rung",
    );

    // -- ladder rungs -----------------------------------------------------
    for (metric, layer) in [
        ("ladder.remote_us", "remote"),
        ("ladder.session_us", "session"),
        ("ladder.collection_us", "collection"),
        ("ladder.object_us", "object"),
        ("ladder.chunk_us", "chunk"),
    ] {
        out.put(metric, ladder.rung(layer), rung_note.as_str());
    }
    let frontend_share = if spec.remote {
        ratio(frontend, ladder.rung("remote"))
    } else {
        0.0
    };
    out.put(
        "ladder.frontend_share_of_op",
        frontend_share,
        "(remote rung - session rung) / remote rung",
    );

    // -- tdb-obs ----------------------------------------------------------
    let per_second = w.per_second_counts();
    let traced_ops_per_s = w.ops_per_s_in(1);
    let untraced_ops_per_s = w.ops_per_s_in(0);
    out.put(
        "obs.trace_overhead_ratio",
        ratio(untraced_ops_per_s, traced_ops_per_s),
        format!("untraced (even seconds) {untraced_ops_per_s} ops/s / traced (odd seconds) {traced_ops_per_s} ops/s"),
    );

    // -- demoted end-to-end metrics, and the window's own totals ----------
    out.put(
        "fail_ratio",
        ratio(w.failed() as f64, w.attempted() as f64),
        format!("{} failed of {} attempted", w.failed(), w.attempted()),
    );
    out.per_op("proof_bytes_per_op", keyed_bytes + chunk_bytes);
    out.put(
        "traced.ops_per_s",
        traced_ops_per_s,
        format!("median of the odd one-second counts of {per_second:?}"),
    );
    out.put(
        "traced.op_p50_us",
        w.latency().0,
        format!("{ops} samples, traced and untraced seconds"),
    );
    out.put(
        "traced.ops",
        ops as f64,
        "completed in the window, traced and untraced seconds",
    );

    // -- do the workloads separate the layers as designed? ----------------
    let mut violations = Vec::new();
    if !quick {
        let mut check = |holds: bool, what: String| {
            if !holds {
                violations.push(what);
            }
        };
        match spec.name {
            "transfer_mem" => {
                check(
                    platform_share <= 0.05,
                    format!("platform share {platform_share:.3} > 0.05"),
                );
                check(
                    hit_ratio >= 0.99,
                    format!("cache.hit_ratio {hit_ratio:.3} < 0.99"),
                );
                check(
                    cleaner_passes >= 3.0,
                    format!("{cleaner_passes} cleaner passes < 3"),
                );
            }
            "transfer_durable" => {
                check(
                    platform_share >= 0.5,
                    format!("platform share {platform_share:.3} < 0.5"),
                );
            }
            "transfer_remote" => {
                check(
                    frontend_share >= 0.5,
                    format!("front-end share {frontend_share:.3} < 0.5"),
                );
            }
            "read_cold" => {
                check(
                    (0.3..=0.8).contains(&hit_ratio),
                    format!("cache.hit_ratio {hit_ratio:.3} outside [0.3, 0.8]"),
                );
            }
            "proof_lookup" => {
                check(
                    keyed_share >= 0.8,
                    format!("keyed-proof share {keyed_share:.3} < 0.8"),
                );
            }
            _ => {}
        }
    }
    out.put(
        "harness.separation_violations",
        violations.len() as f64,
        if violations.is_empty() {
            "all checks hold".to_string()
        } else {
            violations.join("; ")
        },
    );

    PER_LAYER
        .iter()
        .map(|m| {
            let (_, value, note) = out
                .rows
                .iter()
                .find(|(n, _, _)| *n == m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not computed", m.name));
            Value {
                name: m.name,
                unit: m.unit,
                value: *value,
                note: note.clone(),
            }
        })
        .collect()
}
