//! One workload, one process: set up, measure, check, report.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tdb::{Error, ErrorKind, Session};

use crate::driver::{name, Tracing};
use crate::ladder;
use crate::metrics::{self, LayerInputs, Value, Window};
use crate::spans::Span;
use crate::workload::{self, Env, Spec};

/// Set-ups per untraced run; `setup_s` is their median. The first one is
/// the system the window measures; the others are set up and torn down
/// after it, only to be timed.
const SETUPS: usize = 3;
/// Spans written per client to the span file (all spans are kept in memory
/// and feed the metrics; the file is capped so a 20k-ops/s window does not
/// leave a 100 MB artefact).
const SPAN_FILE_CAP: usize = 25_000;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Value>,
    /// Oracle violations and driver error samples.
    pub problems: Vec<String>,
}

/// `benchmark/out` of the checkout the process runs in (falling back to the
/// package directory it was built from): span files and scratch stores.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn io_err(e: std::io::Error) -> Error {
    Error::new(ErrorKind::Io, e.to_string())
}

/// Run every client for `window`, all starting together.
fn measure(env: &mut Env, window: Duration, tracing: Tracing) -> Result<Window, Error> {
    let control = env.db.session();
    let history_before = env.model.history;
    let obs_before = env.db.chunk_store().obs_snapshot();
    let counts_before = env.counts.as_ref().map(|c| c.snapshot());
    let bytes_before = control.stats()?.bytes_appended;

    // A start time slightly ahead, shared by every client, so their
    // samples and spans sit on one time axis.
    let epoch = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for client in env.clients.iter_mut() {
            scope.spawn(move || {
                client.reset(epoch);
                std::thread::sleep(epoch.saturating_duration_since(Instant::now()));
                client.run_until(epoch, epoch + window, tracing);
            });
        }
    });

    let bytes_appended = control.stats()?.bytes_appended - bytes_before;
    let obs = env.db.chunk_store().obs_snapshot().since(&obs_before);
    let (counts, sync_samples_ns) = match (&env.counts, &counts_before) {
        (Some(c), Some(before)) => (
            Some(c.snapshot().since(before)),
            c.sync_samples_since(before),
        ),
        _ => (None, Vec::new()),
    };
    let mut logs = Vec::new();
    let mut spans = Vec::new();
    for client in env.clients.iter_mut() {
        let (log, client_spans) = client.take_results();
        env.model.apply(&log.committed);
        logs.push(log);
        spans.push(client_spans);
    }
    Ok(Window {
        seconds: window.as_secs(),
        logs,
        spans,
        obs,
        bytes_appended,
        counts,
        sync_samples_ns,
        history_before,
    })
}

fn collect_problems(w: &Window, problems: &mut Vec<String>) {
    for log in &w.logs {
        problems.extend(log.errors.iter().cloned());
    }
}

pub fn run_workload(args: &RunArgs) -> Result<Outcome, Error> {
    let spec = workload::spec(&args.workload, args.quick).ok_or_else(|| {
        Error::new(
            ErrorKind::Usage,
            format!(
                "unknown workload '{}' (one of: {})",
                args.workload,
                workload::NAMES.join(", ")
            ),
        )
    })?;
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(io_err)?;
    let result = if args.trace {
        run_traced(spec, args, &scratch)
    } else {
        run_untraced(spec, args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Drop every handle on the database, reopen it from its backing, and run
/// the oracle again. Returns the milliseconds the open took.
fn reopen_and_check(env: Env, problems: &mut Vec<String>) -> Result<f64, Error> {
    let (spec, backing, counts, model) = env.tear_down();
    let began = Instant::now();
    let db = backing.open(&spec, counts.as_ref())?;
    let reopen_ms = began.elapsed().as_secs_f64() * 1e3;
    for v in model.check(&db.session()) {
        problems.push(format!("after reopen: {v}"));
    }
    Ok(reopen_ms)
}

fn run_untraced(spec: Spec, args: &RunArgs, scratch: &Path) -> Result<Outcome, Error> {
    let mut env = Env::set_up(spec, args.seed, &scratch.join("setup-0"), false)?;
    let mut setup_times = vec![env.setup_s];

    let window = measure(&mut env, Duration::from_secs(args.seconds), Tracing::Off)?;
    let mut problems = Vec::new();
    collect_problems(&window, &mut problems);
    problems.extend(env.model.check(&env.db.session()));
    if spec.on_disk {
        reopen_and_check(env, &mut problems)?;
    } else {
        drop(env.tear_down());
    }
    // Read before the set-ups below, which exist only to be timed: the peak
    // is that of one set-up, its window and its checks.
    let peak_rss_mb = metrics::peak_rss_mb();

    let setups = if args.quick { 1 } else { SETUPS };
    for i in 1..setups {
        let dir = scratch.join(format!("setup-{i}"));
        let again = Env::set_up(spec, args.seed, &dir, false)?;
        setup_times.push(again.setup_s);
        drop(again.tear_down());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let metrics = metrics::end_to_end(&spec, &window, &setup_times, peak_rss_mb);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: window.attempted(),
        failed: window.failed(),
        metrics,
        problems,
    })
}

fn run_traced(spec: Spec, args: &RunArgs, scratch: &Path) -> Result<Outcome, Error> {
    let mut env = Env::set_up(spec, args.seed, &scratch.join("setup-0"), true)?;
    // One window, traced every other second: odd seconds give the traced
    // throughput and the spans, even seconds the untraced throughput, and
    // their ratio is the tracing overhead. The rest of the run's budget
    // goes to the ladder, the reopen and the second oracle pass.
    let window = Duration::from_secs((args.seconds * 4 / 5).max(2));
    let traced = measure(&mut env, window, Tracing::AlternateSeconds)?;

    let mut problems = Vec::new();
    collect_problems(&traced, &mut problems);
    problems.extend(env.model.check(&env.db.session()));

    let ladder = ladder::run(&env, args.seed)?;
    for _ in 0..ladder.history_rungs {
        env.model.apply(&ladder.replayed);
    }
    env.model.apply_balances(&ladder.replayed);
    write_span_file(&spec, args, &traced)?;
    let reopen_ms = reopen_and_check(env, &mut problems)?;

    let inputs = LayerInputs {
        ladder: &ladder,
        reopen_ms,
    };
    let metrics = metrics::per_layer(&spec, &traced, &inputs, args.quick);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: traced.attempted(),
        failed: traced.failed(),
        metrics,
        problems,
    })
}

/// Write the traced window's spans to `out/trace_<workload>.json`.
fn write_span_file(spec: &Spec, args: &RunArgs, w: &Window) -> Result<(), Error> {
    let total: usize = w.spans.iter().map(Vec::len).sum();
    let mut doc = String::with_capacity(64 * SPAN_FILE_CAP);
    let names: Vec<String> = name::ALL.iter().map(|n| format!("\"{n}\"")).collect();
    let _ = write!(
        doc,
        "{{\"workload\":\"{}\",\"seed\":{},\"total_spans\":{total},\"spans_per_client_cap\":{SPAN_FILE_CAP},\
         \"names\":[{}],\"columns\":[\"name\",\"parent\",\"op\",\"start_ns\",\"end_ns\"],\"clients\":[",
        spec.name,
        args.seed,
        names.join(",")
    );
    for (i, spans) in w.spans.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push('[');
        for (j, s) in spans.iter().take(SPAN_FILE_CAP).enumerate() {
            if j > 0 {
                doc.push(',');
            }
            let Span {
                name,
                parent,
                op,
                start_ns,
                end_ns,
            } = *s;
            // A parent past the cap would dangle; roots come first within
            // an operation, so a kept child always has its parent kept.
            let parent = if parent == crate::spans::NO_PARENT {
                -1
            } else {
                i64::from(parent)
            };
            let _ = write!(doc, "[{name},{parent},{op},{start_ns},{end_ns}]");
        }
        doc.push(']');
    }
    doc.push_str("]}\n");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(io_err)?;
    std::fs::write(dir.join(format!("trace_{}.json", spec.name)), doc).map_err(io_err)
}
