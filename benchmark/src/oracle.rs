//! Correctness oracle, run after every workload.
//!
//! The driver logs every transfer whose commit was acknowledged; the model
//! sums them. After the window the database must agree: every account,
//! teller and branch holds exactly the sum of the committed deltas that
//! touched it (so the table sums agree too), every table still has one
//! record per key, and history holds one record per committed transfer.
//! Wrong replies *during* the run (a record for another key, a proof that
//! does not verify) are failed operations, counted by the driver.

use tdb::session::with_bytes;
use tdb::{Key, Session};

use crate::gen::{Sizes, Transfer};
use crate::schema::{Record, ACCOUNT, BRANCH, HISTORY, INDEX, TELLER};

/// Expected state: balance per key and the number of history records.
pub struct Model {
    accounts: Vec<i64>,
    tellers: Vec<i64>,
    branches: Vec<i64>,
    pub history: u64,
}

impl Model {
    pub fn new(sizes: Sizes) -> Model {
        Model {
            accounts: vec![0; sizes.accounts as usize],
            tellers: vec![0; sizes.tellers as usize],
            branches: vec![0; sizes.branches as usize],
            history: 0,
        }
    }

    /// Add acknowledged transfers.
    pub fn apply(&mut self, committed: &[Transfer]) {
        self.apply_balances(committed);
        self.history += committed.len() as u64;
    }

    /// Add balance changes that left no history record (the ladder's
    /// object rung updates records below the collections).
    pub fn apply_balances(&mut self, transfers: &[Transfer]) {
        for t in transfers {
            self.accounts[t.account as usize] += t.delta;
            self.tellers[t.teller as usize] += t.delta;
            self.branches[t.branch as usize] += t.delta;
        }
    }

    /// Compare the database behind `session` with the model. Returns every
    /// violation found (empty = the oracle passes).
    pub fn check(&self, session: &dyn Session) -> Vec<String> {
        let mut violations = Vec::new();
        if let Err(e) = self.check_inner(session, &mut violations) {
            violations.push(format!("oracle could not read the database: {e}"));
        }
        violations
    }

    fn check_inner(&self, session: &dyn Session, out: &mut Vec<String>) -> Result<(), tdb::Error> {
        let classes = session.classes();
        let r = session.begin_read()?;
        let tables = [
            (ACCOUNT, &self.accounts),
            (TELLER, &self.tellers),
            (BRANCH, &self.branches),
        ];
        for (table, expected) in tables {
            let entries = r.scan(table, INDEX)?;
            if entries.len() != expected.len() {
                out.push(format!(
                    "{table}: {} records, loaded {}",
                    entries.len(),
                    expected.len()
                ));
            }
            let mut seen = vec![false; expected.len()];
            let mut sum = 0i64;
            let mut mismatches = 0;
            for (key, oid) in entries {
                let bytes = r.read(oid)?;
                let (id, balance) =
                    with_bytes::<Record, _>(classes, &bytes, |rec| (rec.id, rec.balance))?;
                sum += balance;
                let slot = id as usize;
                let ok = key == Key::U64(u64::from(id))
                    && expected.get(slot) == Some(&balance)
                    && !seen[slot];
                if let Some(s) = seen.get_mut(slot) {
                    *s = true;
                }
                if !ok {
                    mismatches += 1;
                    if mismatches <= 3 {
                        out.push(format!(
                            "{table} {id}: indexed under {key:?} with balance {balance}, expected {:?}",
                            expected.get(id as usize)
                        ));
                    }
                }
            }
            if mismatches > 3 {
                out.push(format!("{table}: {mismatches} records disagree in all"));
            }
            let want: i64 = expected.iter().sum();
            if sum != want {
                out.push(format!(
                    "{table}: balances sum to {sum}, committed deltas sum to {want}"
                ));
            }
        }
        let history = r.count(HISTORY)?;
        if history != self.history {
            out.push(format!(
                "history: {history} records, {} transfers committed",
                self.history
            ));
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_sums_committed_deltas_per_key() {
        let mut m = Model::new(Sizes {
            accounts: 4,
            tellers: 2,
            branches: 1,
        });
        let t = |account, teller, delta| Transfer {
            account,
            teller,
            branch: 0,
            delta,
        };
        m.apply(&[t(1, 0, 5), t(1, 1, -7), t(3, 1, 10)]);
        assert_eq!(m.accounts, vec![0, -2, 0, 10]);
        assert_eq!(m.tellers, vec![5, 3]);
        assert_eq!(m.branches, vec![8]);
        assert_eq!(m.history, 3);
    }
}
