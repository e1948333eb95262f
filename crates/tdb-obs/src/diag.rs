//! Diagnostic dumps: assembling and writing "what is the system doing right
//! now" documents.
//!
//! A dump is a JSON object combining the flight-recorder snapshot (recent
//! trace window + per-thread last-event table), the watchdog's stalled-op
//! list, and one state section per registered *provider*. Providers are how
//! lower layers contribute store-specific state without this crate knowing
//! about them: each chunk-store shard registers a closure that reports its
//! anchor/counter/free-segment state and registry snapshot; dead providers
//! (dropped stores) are pruned automatically via `Weak`.
//!
//! Dumps are written to `TDB_DIAG_DIR` (or a runtime override); when no
//! directory is configured, [`write_dump`] returns `Ok(None)` and callers
//! fall back to logging the dump's reason to stderr. The schema is
//! `tdb-diag-v1`; `tdb-doctor` pretty-prints it.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};

use crate::json::Json;
use crate::trace::{recorder, trace_enabled};
use crate::watchdog::{self, StalledOp};

/// Schema tag written into every dump.
pub const DIAG_SCHEMA: &str = "tdb-diag-v1";

/// A state-reporting closure. Must not block: providers use `try_lock`
/// internally and report `"locked": true` when a lock is held, because a
/// dump is most often taken precisely when something is wedged.
pub type DiagFn = dyn Fn() -> Json + Send + Sync;

struct Provider {
    name: String,
    f: Weak<DiagFn>,
}

fn providers() -> &'static RwLock<Vec<Provider>> {
    static PROVIDERS: OnceLock<RwLock<Vec<Provider>>> = OnceLock::new();
    PROVIDERS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Register a state provider under `name`. The registry holds only a
/// `Weak`; the provider disappears when the caller drops its `Arc`.
/// Duplicate names are allowed (disambiguated by registration order in the
/// dump).
pub fn register_provider(name: impl Into<String>, f: &Arc<DiagFn>) {
    let mut ps = providers().write().unwrap();
    ps.retain(|p| p.f.strong_count() > 0);
    ps.push(Provider {
        name: name.into(),
        f: Arc::downgrade(f),
    });
}

/// Snapshot every live provider's state as `(name, state)` pairs.
pub fn provider_states() -> Vec<(String, Json)> {
    let ps = providers().read().unwrap();
    ps.iter()
        .filter_map(|p| p.f.upgrade().map(|f| (p.name.clone(), f())))
        .collect()
}

/// Assemble a full diagnostic dump. `reason` is free text ("watchdog:
/// commit stalled 12034ms on t3", "api request", ...).
pub fn collect(reason: &str) -> Json {
    collect_with(reason, &watchdog::stalled_ops(watchdog_threshold_ns()))
}

fn watchdog_threshold_ns() -> u64 {
    watchdog::threshold_ms().saturating_mul(1_000_000)
}

/// [`collect`] with an explicit stalled-op list (the watchdog poller has
/// already scanned; avoid scanning twice).
pub fn collect_with(reason: &str, stalled: &[StalledOp]) -> Json {
    let trace = recorder().snapshot();
    let mut dump = Json::obj();
    dump.push("schema", DIAG_SCHEMA);
    dump.push("reason", reason);
    dump.push(
        "unix_ms",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as f64)
            .unwrap_or(0.0),
    );
    dump.push("pid", std::process::id() as u64);
    dump.push("trace_enabled", trace_enabled());
    dump.push("watchdog_threshold_ms", watchdog::threshold_ms());
    dump.push(
        "stalled_ops",
        Json::array(stalled.iter().map(|s| {
            Json::object([
                ("tid", Json::from(s.tid)),
                ("kind", Json::from(s.kind.name())),
                ("xid", Json::from(s.xid)),
                ("age_ms", Json::from(s.age_ns as f64 / 1e6)),
            ])
        })),
    );
    dump.push(
        "providers",
        Json::Obj(provider_states().into_iter().collect()),
    );
    dump.push("trace", trace.to_json());
    dump
}

// ---------------------------------------------------------------------------
// Dump directory / writing
// ---------------------------------------------------------------------------

static DIAG_DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();

fn diag_dir_cell() -> &'static Mutex<Option<PathBuf>> {
    DIAG_DIR.get_or_init(|| {
        Mutex::new(
            std::env::var("TDB_DIAG_DIR")
                .ok()
                .filter(|s| !s.is_empty())
                .map(PathBuf::from),
        )
    })
}

/// Where dumps are written (`TDB_DIAG_DIR`, or the [`set_diag_dir`]
/// override). `None` means dumps are not persisted.
pub fn diag_dir() -> Option<PathBuf> {
    diag_dir_cell().lock().unwrap().clone()
}

/// Override the dump directory at runtime (process-wide; `None` disables
/// persistence).
pub fn set_diag_dir(dir: Option<PathBuf>) {
    *diag_dir_cell().lock().unwrap() = dir;
}

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `dump` as pretty JSON to the diag directory, creating it if
/// needed. Returns the path, or `Ok(None)` when no directory is
/// configured. `slug` goes into the filename (sanitised). The dump is
/// written and synced under a dot-prefixed temporary name and then renamed,
/// so a reader polling for `tdb-diag-*.json` only ever sees complete files.
pub fn write_dump(dump: &Json, slug: &str) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = diag_dir() else {
        return Ok(None);
    };
    std::fs::create_dir_all(&dir)?;
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let slug: String = slug
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .take(40)
        .collect();
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!(
        "tdb-diag-{unix_ms}-p{}-{seq}-{slug}.json",
        std::process::id()
    );
    let tmp = dir.join(format!(".{name}.tmp"));
    let path = dir.join(name);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(dump.pretty().as_bytes())?;
    f.sync_all()?;
    std::fs::rename(&tmp, &path)?;
    std::fs::File::open(&dir)?.sync_all()?;
    Ok(Some(path))
}

/// Convenience: assemble and persist a dump in one call, logging to stderr
/// either way (dumps exist to be seen). Returns the written path, if any.
pub fn emit_dump(reason: &str, slug: &str) -> Option<PathBuf> {
    let dump = collect(reason);
    match write_dump(&dump, slug) {
        Ok(Some(path)) => {
            eprintln!("tdb-diag: {reason} -> {}", path.display());
            Some(path)
        }
        Ok(None) => {
            eprintln!("tdb-diag: {reason} (set TDB_DIAG_DIR to persist dumps)");
            None
        }
        Err(e) => {
            eprintln!("tdb-diag: {reason} (failed to write dump: {e})");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn providers_and_dump_shape() {
        let f: Arc<DiagFn> = Arc::new(|| {
            Json::object([
                ("free_segments", Json::from(3u64)),
                ("locked", Json::from(false)),
            ])
        });
        register_provider("test-store", &f);
        let dump = collect("unit test");
        assert_eq!(
            dump.get("schema").and_then(|s| s.as_str()),
            Some(DIAG_SCHEMA)
        );
        assert_eq!(
            dump.get("reason").and_then(|s| s.as_str()),
            Some("unit test")
        );
        let provs = dump.get("providers").unwrap();
        assert!(provs.get("test-store").is_some());
        // Round-trips through the parser.
        let parsed = Json::parse(&dump.pretty()).unwrap();
        assert!(parsed.get("trace").is_some());
        // Dropping the Arc prunes the provider from later dumps.
        drop(f);
        let dump2 = collect("after drop");
        assert!(dump2.get("providers").unwrap().get("test-store").is_none());
    }
}
