//! Exhaustive crash-point torture harness for the log-structured recovery
//! path.
//!
//! The harness runs a scripted multi-transaction workload against the full
//! stack (collection store → object store → chunk store) through a
//! [`FaultStore`], in three phases:
//!
//! 1. **Enumerate** — one fault-free replay with tracing on records every
//!    write and sync boundary the workload crosses.
//! 2. **Sweep** — for every recorded boundary, re-run the workload from
//!    scratch and crash there (each write boundary twice: torn at half the
//!    bytes, and with all bytes landed but unacknowledged; each sync
//!    boundary once, with the sync swallowed). Recovery from the surviving
//!    bytes must succeed and yield a state the oracle admits: everything a
//!    durably-acknowledged commit wrote is present, nothing from
//!    unexecuted steps is, and the state is an exact prefix of the script
//!    (no torn or merged transactions).
//! 3. **Tamper** — at each crash point, three deterministic post-crash
//!    attacks (bit-flip, block-swap, segment rollback/replay) are applied
//!    to clones of the surviving bytes. Each must either be *detected* at
//!    recovery/read time or be provably *harmless* (the mutated bytes were
//!    already-discarded garbage, so recovery still lands in an admissible
//!    state). An inadmissible recovered state is a **silent corruption**
//!    and fails the run.
//!
//! Everything is deterministic given [`TortureConfig::seed`]: the workload
//! script, the boundary enumeration, and every tamper pick. The driver
//! asserts that the sweep visited exactly the enumerated boundary count —
//! if the workload's storage footprint changes, the sweep scales with it
//! rather than silently thinning out.

use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use tdb::platform::{
    apply_tamper, CrashSchedule, FaultEvent, FaultPlan, FaultStore, MemSecretStore, MemStore,
    OneWayCounter, TamperMode, UntrustedStore, VolatileCounter,
};
use tdb::{
    impl_persistent_boilerplate, ChunkStoreConfig, ClassRegistry, Db, Durability, ErrorKind,
    ExtractorRegistry, IndexKind, IndexSpec, Key, Options, Persistent, PickleError, Pickler,
    TdbError, Unpickler,
};

const CLASS_CELL: u32 = 0x70B7_0001;

struct Cell {
    id: u64,
    val: i64,
}

impl Persistent for Cell {
    impl_persistent_boilerplate!(CLASS_CELL);
    fn pickle(&self, w: &mut Pickler) {
        w.u64(self.id);
        w.i64(self.val);
    }
}

fn unpickle_cell(r: &mut Unpickler) -> Result<Box<dyn Persistent>, PickleError> {
    Ok(Box::new(Cell {
        id: r.u64()?,
        val: r.i64()?,
    }))
}

fn registries() -> (ClassRegistry, ExtractorRegistry) {
    let mut classes = ClassRegistry::new();
    classes.register(CLASS_CELL, "Cell", unpickle_cell);
    let mut extractors = ExtractorRegistry::new();
    extractors.register("cell.id", |o| {
        tdb::extractor_typed::<Cell>(o, |c| Key::U64(c.id))
    });
    (classes, extractors)
}

fn specs() -> [IndexSpec; 1] {
    [IndexSpec::new("by-id", "cell.id", true, IndexKind::Hash)]
}

/// Size and seed of the torture run.
#[derive(Clone, Debug)]
pub struct TortureConfig {
    /// Cells inserted by the (fault-free) setup transaction.
    pub cells: u64,
    /// Scripted workload transactions swept for crash points.
    pub steps: u64,
    /// Master seed; fixes the script and every tamper pick.
    pub seed: u64,
    /// Chunk-store shards. At 1 (the default) the oracle demands an exact
    /// script prefix; at 2+ the script adds cross-shard transfers and the
    /// oracle relaxes to per-cell admissible windows plus all-or-nothing
    /// atomicity (see `admissible_at`).
    pub shards: usize,
    /// Print one line per crash point.
    pub verbose: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            cells: 4,
            steps: 10,
            seed: 7,
            shards: 1,
            verbose: false,
        }
    }
}

/// What one scripted transaction does. Derived deterministically from the
/// seed; `durable` mixes §3.2.2 durable and nondurable commits so crash
/// points fall in both regimes, and `maintain` steps run an explicit
/// checkpoint + cleaning pass afterwards so the sweep also enumerates
/// crash points inside maintenance: victim selection's settling anchor,
/// every relocation slice, the closing checkpoint, and the frees.
#[derive(Clone, Debug)]
struct Step {
    insert: Option<u64>,
    bump: Option<(u64, i64)>,
    /// Balanced transfer `a += d, b -= d` in one transaction — the
    /// cross-shard workload for sharded runs (consecutive cell ids land on
    /// different shards under round-robin chunk routing).
    transfer: Option<(u64, u64, i64)>,
    durable: bool,
    maintain: bool,
}

/// Oracle state: cell id → value.
type State = BTreeMap<u64, i64>;

fn script(cfg: &TortureConfig) -> Vec<Step> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    (1..=cfg.steps)
        .map(|i| {
            let r = rng.next_u64();
            let maintain = i % 5 == 0;
            let durable = r % 3 != 0;
            if i % 4 == 0 {
                Step {
                    insert: Some(1_000 + i),
                    bump: None,
                    transfer: None,
                    durable,
                    maintain,
                }
            } else if cfg.shards >= 2 && i % 3 != 0 {
                // Adjacent cells have consecutive chunk ids, which
                // round-robin routing places on different shards: every
                // transfer is a cross-shard commit at 2 shards.
                let a = r % cfg.cells;
                let b = (a + 1) % cfg.cells;
                Step {
                    insert: None,
                    bump: None,
                    transfer: Some((a, b, (r % 97) as i64 + 1)),
                    durable,
                    maintain,
                }
            } else {
                Step {
                    insert: None,
                    bump: Some((r % cfg.cells, (r % 97) as i64 + 1)),
                    transfer: None,
                    durable,
                    maintain,
                }
            }
        })
        .collect()
}

/// Oracle snapshots: `states[0]` is the post-setup state, `states[i]` the
/// state after step `i` (1-based).
fn oracle_states(cfg: &TortureConfig, steps: &[Step]) -> Vec<State> {
    let mut state: State = (0..cfg.cells).map(|id| (id, 0)).collect();
    let mut states = vec![state.clone()];
    for s in steps {
        if let Some(id) = s.insert {
            state.insert(id, id as i64);
        }
        if let Some((id, delta)) = s.bump {
            *state.get_mut(&id).expect("bump target exists") += delta;
        }
        if let Some((a, b, delta)) = s.transfer {
            *state.get_mut(&a).expect("transfer source exists") += delta;
            *state.get_mut(&b).expect("transfer target exists") -= delta;
        }
        states.push(state.clone());
    }
    states
}

/// Everything one workload instance needs to run and then be inspected.
struct Rig {
    mem: MemStore,
    counter: VolatileCounter,
    secret: MemSecretStore,
    plan: FaultPlan,
    db: Db,
}

/// The torture database over the given substrates: the cell schema on a
/// small-segment store of `shards` shards.
fn options(
    store: Arc<dyn UntrustedStore>,
    secret: &MemSecretStore,
    counter: VolatileCounter,
    shards: usize,
) -> Options {
    let (classes, extractors) = registries();
    let mut chunk = ChunkStoreConfig::small_for_tests();
    chunk.shards = shards;
    Options::in_memory()
        .with_substrates(store, secret.clone(), Arc::new(counter))
        .classes(classes)
        .extractors(extractors)
        .chunk_config(chunk)
}

impl Rig {
    /// Create a database and run the fault-free setup transaction, with
    /// tracing on from the first byte (tamper picks need the full write
    /// history). Returns the rig plus the setup-phase trace.
    fn new(cfg: &TortureConfig) -> (Rig, Vec<FaultEvent>) {
        let mem = MemStore::new();
        let counter = VolatileCounter::new();
        let secret = MemSecretStore::from_label("torture");
        let plan = FaultPlan::unlimited();
        plan.set_tracing(true);
        let db = Db::open(options(
            Arc::new(FaultStore::new(mem.clone(), plan.clone())),
            &secret,
            counter.clone(),
            cfg.shards,
        ))
        .expect("fault-free create");
        let t = db.begin();
        let c = t
            .create_collection("cells", &specs())
            .expect("create collection");
        for id in 0..cfg.cells {
            c.insert(Box::new(Cell { id, val: 0 }))
                .expect("setup insert");
        }
        drop(c);
        t.commit(Durability::Durable).expect("setup commit");
        let setup_trace = plan.take_trace();
        (
            Rig {
                mem,
                counter,
                secret,
                plan,
                db,
            },
            setup_trace,
        )
    }
}

/// Execute one scripted step; any error means the simulated crash fired.
fn run_step(db: &Db, step: &Step) -> Result<(), String> {
    let t = db.begin();
    let body = (|| -> Result<(), String> {
        let c = t.write_collection("cells").map_err(|e| e.to_string())?;
        if let Some(id) = step.insert {
            c.insert(Box::new(Cell { id, val: id as i64 }))
                .map_err(|e| e.to_string())?;
        }
        if let Some((id, delta)) = step.bump {
            let mut it = c.exact("by-id", &Key::U64(id)).map_err(|e| e.to_string())?;
            {
                let cell = it.write::<Cell>().map_err(|e| e.to_string())?;
                cell.get_mut().val += delta;
            }
            it.close().map_err(|e| e.to_string())?;
        }
        if let Some((a, b, delta)) = step.transfer {
            for (id, d) in [(a, delta), (b, -delta)] {
                let mut it = c.exact("by-id", &Key::U64(id)).map_err(|e| e.to_string())?;
                {
                    let cell = it.write::<Cell>().map_err(|e| e.to_string())?;
                    cell.get_mut().val += d;
                }
                it.close().map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    })();
    body?;
    t.commit(Durability::from(step.durable))
        .map_err(|e| e.to_string())
}

/// How far the workload got before the crash fired.
struct RunResult {
    /// Highest step index (1-based) whose *durable* commit was
    /// acknowledged; 0 if none beyond setup.
    last_durable_acked: usize,
    /// Step index the crash surfaced in (1-based); `steps + 1` if the
    /// whole script completed.
    crashed_step: usize,
}

fn run_script(db: &Db, steps: &[Step]) -> RunResult {
    let mut last_durable_acked = 0;
    for (i, step) in steps.iter().enumerate() {
        match run_step(db, step) {
            Ok(()) => {
                if step.durable {
                    last_durable_acked = i + 1;
                }
                if step.maintain {
                    // Maintenance mutates no data, but an acknowledged
                    // checkpoint is a durable event: it hardens every
                    // commit so far, including nondurable ones, so the
                    // oracle's durable frontier advances to this step. A
                    // crash inside the checkpoint or the cleaning pass
                    // surfaces here like any other crash; the admissible
                    // range still covers this step inclusively (its
                    // maintenance may have hardened state before dying).
                    let chunks = db.chunk_store();
                    if chunks.checkpoint().is_err() {
                        return RunResult {
                            last_durable_acked,
                            crashed_step: i + 1,
                        };
                    }
                    last_durable_acked = i + 1;
                    if chunks.clean().is_err() {
                        return RunResult {
                            last_durable_acked,
                            crashed_step: i + 1,
                        };
                    }
                }
            }
            Err(_) => {
                return RunResult {
                    last_durable_acked,
                    crashed_step: i + 1,
                };
            }
        }
    }
    RunResult {
        last_durable_acked,
        crashed_step: steps.len() + 1,
    }
}

/// Read the full recovered state back (every readable cell). A read-side
/// tamper detection surfaces as `Err` carrying the layer error, so callers
/// can classify it by [`tdb::ErrorKind`].
fn read_state(db: &Db) -> Result<State, TdbError> {
    let t = db.begin();
    let c = t.read_collection("cells")?;
    let mut state = State::new();
    let mut it = c.scan("by-id")?;
    while !it.end() {
        let cell = it.read::<Cell>()?;
        state.insert(cell.get().id, cell.get().val);
        drop(cell);
        it.next();
    }
    it.close()?;
    Ok(state)
}

/// Whether `state` is admissible given `window`, the oracle states
/// `states[lo..]` from the durable frontier (step `lo`) through the
/// crashed step (oldest first). Returns `Ok(Some(i))` for an exact match
/// with `window[i]`, `Ok(None)` for a relaxed-only match, `Err(why)` for
/// an inadmissible state.
///
/// With one shard the recovered state must be an **exact script prefix**:
/// one of the window states, nothing torn or merged. With 2+ shards each
/// shard replays its own log to its own frontier (a checkpoint on one
/// shard hardens lazy commits the others lost), so the exact-prefix demand
/// is unsound; the oracle relaxes to what the sharded store does
/// guarantee:
///
/// * **per-cell windows** — every cell's recovered value appears for that
///   cell in some window state, cells present at the durable frontier are
///   present, and no cell exists that the window never contains;
/// * **all-or-nothing transfers** — for every transfer step in the
///   window, the positions its two cells' recovered values can occupy in
///   the window must agree on whether the transfer applied. A torn
///   transfer (one leg applied, the other lost) pins one cell before the
///   step and the other at-or-after it, and is rejected.
fn admissible_at(
    cfg: &TortureConfig,
    steps: &[Step],
    lo: usize,
    window: &[State],
    state: &State,
) -> Result<Option<usize>, String> {
    if let Some(at) = window.iter().position(|s| s == state) {
        return Ok(Some(at));
    }
    if cfg.shards == 1 {
        return Err("state matches no admissible script prefix".into());
    }
    let frontier = window.first().expect("window is never empty");
    for id in frontier.keys() {
        if !state.contains_key(id) {
            return Err(format!(
                "cell {id} present at the durable frontier is missing"
            ));
        }
    }
    for (id, val) in state {
        if !window.iter().any(|s| s.get(id) == Some(val)) {
            return Err(format!(
                "cell {id} recovered as {val}, which no admissible state contains"
            ));
        }
    }
    for (t, step) in steps.iter().enumerate().map(|(i, s)| (i + 1, s)) {
        let Some((a, b, _)) = step.transfer else {
            continue;
        };
        if t <= lo {
            continue; // durably applied before the window
        }
        let wt = t - lo;
        if wt >= window.len() {
            break; // never executed; later steps are out of the window too
        }
        // Window positions each cell's recovered value can occupy, split
        // at the transfer: positions < wt exclude it, >= wt include it.
        let spans = |id: u64| -> (bool, bool) {
            let mut pre = false;
            let mut post = false;
            for (j, s) in window.iter().enumerate() {
                if s.get(&id) == state.get(&id) {
                    if j < wt {
                        pre = true;
                    } else {
                        post = true;
                    }
                }
            }
            (pre, post)
        };
        let (a_pre, a_post) = spans(a);
        let (b_pre, b_post) = spans(b);
        if !((a_pre && b_pre) || (a_post && b_post)) {
            return Err(format!(
                "transfer atomicity violated at step {t}: cells {a} and {b} disagree \
                 on whether the transfer applied"
            ));
        }
    }
    Ok(None)
}

/// One swept crash point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Schedule armed for this run (indices relative to end of setup).
    pub schedule: CrashSchedule,
    /// Stable label for reports.
    pub label: String,
}

/// Outcome counters for the whole sweep. `PartialEq` so a determinism
/// check can compare two full runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TortureReport {
    /// Write boundaries recorded by the enumeration replay.
    pub write_boundaries: u64,
    /// Sync boundaries recorded by the enumeration replay.
    pub sync_boundaries: u64,
    /// Crash points actually swept (must equal `2 * write_boundaries +
    /// sync_boundaries`).
    pub crash_points_swept: u64,
    /// Pure-crash recoveries that succeeded with an admissible state.
    pub recoveries_ok: u64,
    /// Recoveries that landed exactly on the durable frontier (the newest
    /// admissible state).
    pub recovered_at_frontier: u64,
    /// Proof spot checks passed: after each pure-crash recovery, one
    /// proof-carrying read (keyed lookup + chunk inclusion) must verify
    /// against the recovered store's trust anchor. Must equal
    /// `crash_points_swept`.
    pub proof_checks: u64,
    /// Tampers whose mutation did not survive the pick (nothing changed).
    pub tampers_skipped: u64,
    /// Tampers injected (bytes actually changed).
    pub tampers_injected: u64,
    /// Injected tampers rejected at recovery or read time.
    pub tampers_detected: u64,
    /// Detected tampers broken down by the stable [`ErrorKind`] the
    /// rejection surfaced as (key is the kind's `Debug` name). Every
    /// detection must classify as a security kind — `Tamper`, `Replay` or
    /// `Io` — never as a usage or not-found error.
    pub tampers_detected_by_kind: BTreeMap<String, u64>,
    /// Injected tampers recovery absorbed while still producing an
    /// admissible state (the mutation only touched discarded bytes).
    pub tampers_harmless: u64,
    /// Injected tampers that produced an inadmissible state — must be 0.
    pub silent_corruptions: u64,
    /// Human-readable descriptions of every silent corruption.
    pub failures: Vec<String>,
}

/// Enumerate the workload's crash points: one fault-free replay with
/// tracing on. Returns the sweep schedule.
fn enumerate_boundaries(cfg: &TortureConfig, steps: &[Step]) -> (u64, u64, Vec<CrashPoint>) {
    let (rig, _setup) = Rig::new(cfg);
    // Reset operation counters so schedule indices are relative to the end
    // of setup, without disturbing tracing.
    rig.plan.rearm_with(CrashSchedule::Never);
    let result = run_script(&rig.db, steps);
    assert_eq!(
        result.crashed_step,
        steps.len() + 1,
        "enumeration replay must run fault-free"
    );
    let trace = rig.plan.take_trace();
    let writes = trace
        .iter()
        .filter(|e| matches!(e, FaultEvent::Write(_)))
        .count() as u64;
    let syncs = trace
        .iter()
        .filter(|e| matches!(e, FaultEvent::Sync { .. }))
        .count() as u64;
    let mut points = Vec::new();
    for k in 0..writes {
        points.push(CrashPoint {
            schedule: CrashSchedule::OnWrite {
                index: k,
                cut_num: 1,
                cut_den: 2,
            },
            label: format!("write#{k}@1/2"),
        });
        points.push(CrashPoint {
            schedule: CrashSchedule::OnWrite {
                index: k,
                cut_num: 1,
                cut_den: 1,
            },
            label: format!("write#{k}@full"),
        });
    }
    for j in 0..syncs {
        points.push(CrashPoint {
            schedule: CrashSchedule::OnSync { index: j },
            label: format!("sync#{j}"),
        });
    }
    (writes, syncs, points)
}

/// A fresh one-way counter holding `value` (clones of the workload's
/// counter share state, which post-crash experiments must not pollute).
fn counter_at(value: u64) -> VolatileCounter {
    let c = VolatileCounter::new();
    for _ in 0..value {
        c.increment().expect("volatile counter increment");
    }
    c
}

/// Run the full torture sweep. Panics (with context) on any violated
/// invariant so test harnesses fail loudly; returns the report otherwise.
pub fn run_torture(cfg: &TortureConfig) -> TortureReport {
    run_torture_with_obs(cfg).0
}

/// [`run_torture`], additionally returning the merged observability
/// snapshot of every workload rig and every pure-crash recovery — commit
/// phase spans from the sweeps plus `recovery.*` timings from each re-open.
/// (Tamper-attack opens are excluded: their timings describe sabotaged
/// inputs.) Kept out of [`TortureReport`] so the report stays `Eq` for the
/// determinism double-run check.
pub fn run_torture_with_obs(cfg: &TortureConfig) -> (TortureReport, tdb::obs::RegistrySnapshot) {
    assert!(
        cfg.cells > 0,
        "torture workload needs at least one cell (--cells)"
    );
    assert!(
        cfg.shards == 1 || cfg.cells >= 2,
        "sharded torture transfers need at least two cells (--cells)"
    );
    let steps = script(cfg);
    let states = oracle_states(cfg, &steps);
    let (writes, syncs, points) = enumerate_boundaries(cfg, &steps);
    // Torture runs few commits and wants full phase attribution for the
    // telemetry report, so disable hot-path sampling.
    tdb::obs::set_phase_sample_every(1);
    let mut obs = tdb::obs::RegistrySnapshot::default();
    let mut report = TortureReport {
        write_boundaries: writes,
        sync_boundaries: syncs,
        ..Default::default()
    };

    for (pi, point) in points.iter().enumerate() {
        let (rig, setup_trace) = Rig::new(cfg);
        rig.plan.rearm_with(point.schedule.clone());
        let run = run_script(&rig.db, &steps);
        assert!(
            rig.plan.has_crashed(),
            "{}: schedule never fired — enumeration and sweep disagree",
            point.label
        );
        let mut full_trace = setup_trace;
        full_trace.extend(rig.plan.take_trace());
        // The crash-time hardware counter value; recovery experiments below
        // each get their own copy so one run's benign counter repair cannot
        // leak into the next.
        let hw = rig.counter.read().expect("counter read");
        // Admissible recovered states: any script prefix from the last
        // durably-acknowledged step through the step the crash surfaced in,
        // *inclusive* — the crashed step's commit may have fully landed
        // before the power went out (its acknowledgement, not its data, is
        // what was lost). Nondurable steps inside the range are admissible
        // only because an automatic checkpoint may have hardened them;
        // losing them is equally legal.
        let admissible = &states[run.last_durable_acked..(run.crashed_step + 1).min(states.len())];

        // ---- pure crash: recovery must succeed and land admissibly -----
        let pristine = rig.mem.deep_clone();
        let recovered = Db::open(options(
            Arc::new(pristine),
            &rig.secret,
            counter_at(hw),
            cfg.shards,
        ));
        let db = match recovered {
            Ok(db) => db,
            Err(e) => panic!("{}: pure-crash recovery failed: {e}", point.label),
        };
        let state = read_state(&db)
            .unwrap_or_else(|e| panic!("{}: pure-crash read-back failed: {e}", point.label));
        let at = match admissible_at(cfg, &steps, run.last_durable_acked, admissible, &state) {
            Ok(at) => at,
            Err(why) => panic!(
                "{}: SILENT CORRUPTION on pure crash — {why} \
                 (durable frontier {} .. crashed step {})\n\
                 recovered: {state:?}\nadmissible: {admissible:?}",
                point.label, run.last_durable_acked, run.crashed_step
            ),
        };
        report.recoveries_ok += 1;
        if at == Some(admissible.len() - 1) {
            report.recovered_at_frontier += 1;
        }
        let chunks = db.chunk_store();
        for (shard, rr) in chunks.recovery_reports().into_iter().enumerate() {
            let rr = rr.expect("opened store carries a recovery report per shard");
            assert_eq!(
                rr.last_seq - rr.base_seq,
                rr.commits_replayed,
                "{}: shard {shard} recovery report inconsistent: {rr:?}",
                point.label
            );
        }
        // Proof spot check: the recovered store must still mint proofs a
        // standalone verifier accepts — crash recovery (and any cleaner
        // work it triggered) must not disturb the trust layer.
        {
            let verifier =
                tdb::proof::Verifier::new(chunks.trust_anchor().expect("recovered trust anchor"));
            let r = db.begin_read();
            let c = r.read_collection("cells").expect("cells collection");
            let hit = c
                .exact_proven("by-id", &Key::U64(0))
                .expect("proven lookup after recovery");
            assert_eq!(
                hit.entries.len(),
                1,
                "{}: setup cell 0 missing after recovery",
                point.label
            );
            let ids = verifier.verify_keyed(&hit.proof).unwrap_or_else(|e| {
                panic!("{}: keyed proof rejected after recovery: {e}", point.label)
            });
            assert_eq!(ids, vec![hit.entries[0].1 .0]);
            let proven = r
                .object_reader()
                .read_proven_bytes(hit.entries[0].1)
                .expect("proven read after recovery");
            let bytes = proven.value.clone().expect("cell 0 bytes");
            let proof = proven.prove().expect("prove after recovery");
            verifier
                .verify_chunk(&proof, Some(&bytes))
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: inclusion proof rejected after recovery: {e}",
                        point.label
                    )
                });
            report.proof_checks += 1;
        }
        obs.merge(&db.obs().snapshot());
        drop(db);
        obs.merge(&rig.db.obs().snapshot());

        // ---- post-crash tampers ---------------------------------------
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(cfg.seed ^ (pi as u64).wrapping_mul(0x9E37_79B9));
        let modes = [
            TamperMode::BitFlip {
                pick: rng.next_u64(),
            },
            TamperMode::BlockSwap {
                pick_a: rng.next_u64(),
                pick_b: rng.next_u64(),
                block: 32,
            },
            TamperMode::Rollback {
                pick: rng.next_u64(),
            },
        ];
        for mode in &modes {
            let victim = rig.mem.deep_clone();
            let receipt = apply_tamper(&victim, &full_trace, mode)
                .unwrap_or_else(|e| panic!("{}: tamper application failed: {e}", point.label));
            let Some(receipt) = receipt else {
                report.tampers_skipped += 1;
                continue;
            };
            if !receipt.changed {
                report.tampers_skipped += 1;
                continue;
            }
            report.tampers_injected += 1;
            let outcome = Db::open(options(
                Arc::new(victim),
                &rig.secret,
                counter_at(hw),
                cfg.shards,
            ));
            let verdict = match outcome {
                Err(e) => Ok(e.kind()),
                Ok(db) => match read_state(&db) {
                    Err(e) => Ok(e.kind()),
                    Ok(state) => {
                        if admissible_at(cfg, &steps, run.last_durable_acked, admissible, &state)
                            .is_ok()
                        {
                            Err(true) // absorbed, but harmless
                        } else {
                            Err(false) // silent corruption
                        }
                    }
                },
            };
            match verdict {
                Ok(kind) => {
                    assert!(
                        matches!(kind, ErrorKind::Tamper | ErrorKind::Replay | ErrorKind::Io),
                        "{}: tamper rejection surfaced as {kind:?}, not a security kind \
                         ({})",
                        point.label,
                        receipt.description
                    );
                    report.tampers_detected += 1;
                    *report
                        .tampers_detected_by_kind
                        .entry(format!("{kind:?}"))
                        .or_insert(0) += 1;
                }
                Err(true) => report.tampers_harmless += 1,
                Err(false) => {
                    report.silent_corruptions += 1;
                    report.failures.push(format!(
                        "{}: SILENT CORRUPTION — {} absorbed into an inadmissible state",
                        point.label, receipt.description
                    ));
                }
            }
        }
        if cfg.verbose {
            println!(
                "crash {:>4}/{} {:<16} durable-frontier={} crashed-step={}",
                pi + 1,
                points.len(),
                point.label,
                run.last_durable_acked,
                run.crashed_step
            );
        }
        report.crash_points_swept += 1;
    }

    assert_eq!(
        report.crash_points_swept,
        2 * report.write_boundaries + report.sync_boundaries,
        "sweep must cover every enumerated boundary"
    );
    assert_eq!(
        report.proof_checks, report.crash_points_swept,
        "every crash point must pass its post-recovery proof spot check"
    );
    assert_eq!(
        report.silent_corruptions,
        0,
        "torture sweep found silent corruptions:\n{}",
        report.failures.join("\n")
    );
    assert_eq!(
        report.tampers_detected_by_kind.values().sum::<u64>(),
        report.tampers_detected,
        "per-kind detection counts must cover every detection"
    );
    assert_eq!(
        report.tampers_injected,
        report.tampers_detected + report.tampers_harmless,
        "every injected tamper must be classified"
    );
    (report, obs)
}
