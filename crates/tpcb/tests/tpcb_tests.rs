//! Correctness of the TPC-B drivers: both systems process the same op
//! stream and must agree on every balance.

use std::sync::Arc;
use tdb::{Options, SecurityMode};
use tdb_platform::MemStore;
use tpcb::{run_benchmark, BaselineDriver, TdbDriver, TpcbConfig, TpcbSystem};

fn small_cfg() -> TpcbConfig {
    TpcbConfig {
        scale: 0.002,
        transactions: 500,
        seed: 42,
        threads: 1,
    }
}

#[test]
fn drivers_agree_on_balances() {
    let cfg = small_cfg();
    let mut tdb_sys = TdbDriver::new(Options::in_memory());
    let mut bdb_sys = BaselineDriver::new(
        Arc::new(MemStore::new()),
        baseline::BaselineConfig::default(),
    );
    let r1 = run_benchmark(&mut tdb_sys, &cfg);
    let r2 = run_benchmark(&mut bdb_sys, &cfg);
    assert_eq!(r1.transactions, r2.transactions);

    let (accounts, _, branches, _) = cfg.sizes();
    for id in 0..accounts {
        assert_eq!(
            tdb_sys.account_balance(id),
            bdb_sys.account_balance(id),
            "account {id}"
        );
    }
    let mut branch_total = 0i64;
    for id in 0..branches {
        let b = tdb_sys.branch_balance(id);
        assert_eq!(b, bdb_sys.branch_balance(id), "branch {id}");
        branch_total += b;
    }
    // Conservation: every delta hit exactly one account and one branch.
    let mut account_total = 0i64;
    for id in 0..accounts {
        account_total += tdb_sys.account_balance(id);
    }
    assert_eq!(account_total, branch_total);
}

#[test]
fn reports_are_sane() {
    let cfg = small_cfg();
    let mut sys = TdbDriver::new(Options::in_memory().security(SecurityMode::Off));
    let report = run_benchmark(&mut sys, &cfg);
    assert!(report.avg_response_ms > 0.0);
    assert!(
        report.bytes_per_txn > 100.0,
        "bytes/txn {}",
        report.bytes_per_txn
    );
    assert!(report.final_disk_size > 0);
}

#[test]
fn group_stats_count_measured_transactions_exactly() {
    // Regression: loading issues its own durable commits (schema creation,
    // bulk-load batches, the closing checkpoint), and they used to leak
    // into the reported group-commit histograms — a 6000-transaction run
    // reported ~6012 `commit.group_size` laps. `measured_obs` subtracts
    // the load-phase baseline, so group stats are per-user-commit exact.
    tdb_obs::set_enabled(true);
    let cfg = small_cfg();
    let mut sys = TdbDriver::new(Options::in_memory().security(SecurityMode::Off));
    run_benchmark(&mut sys, &cfg);

    let measured = sys.measured_obs();
    let size = measured
        .histograms
        .get("commit.group_size")
        .expect("commit.group_size recorded");
    // Every commit in a single-threaded run leads its own group of one.
    assert_eq!(size.count(), cfg.transactions, "group_size laps");
    assert_eq!(size.sum, cfg.transactions, "commits covered by groups");
    let wait = measured
        .histograms
        .get("commit.group_wait")
        .expect("commit.group_wait recorded");
    assert_eq!(wait.count(), cfg.transactions, "group_wait laps");

    // The lifetime snapshot still includes the load phase — strictly more
    // laps than the measured run (that surplus was the bug).
    let lifetime = sys.database().chunk_store().obs_snapshot();
    let all = lifetime.histograms.get("commit.group_size").unwrap();
    assert!(
        all.count() > size.count(),
        "load-phase commits must exist outside the measured window \
         ({} vs {})",
        all.count(),
        size.count()
    );
}

#[test]
fn tdb_survives_reopen_after_benchmark() {
    // The benchmark leaves a consistent, recoverable database behind.
    let mem = MemStore::new();
    let counter = tdb::platform::VolatileCounter::new();
    let options = || {
        Options::in_memory().with_substrates(
            Arc::new(mem.clone()),
            tdb::platform::MemSecretStore::from_label("tpcb"),
            Arc::new(counter.clone()),
        )
    };
    let balance_before;
    {
        let mut sys = TdbDriver::new(options());
        run_benchmark(&mut sys, &small_cfg());
        balance_before = sys.account_balance(0);
    }
    let mut classes = tdb::ClassRegistry::new();
    tpcb::register_tpcb_classes(&mut classes);
    let mut extractors = tdb::ExtractorRegistry::new();
    tpcb::register_tpcb_extractors(&mut extractors);
    let db = tdb::Db::open(options().classes(classes).extractors(extractors)).unwrap();
    let t = db.begin();
    let coll = t.read_collection("account").unwrap();
    let it = coll.exact("by-id", &tdb::Key::U64(0)).unwrap();
    let rec = it.read::<tpcb::TpcbRecord>().unwrap();
    assert_eq!(rec.get().balance, balance_before);
}
