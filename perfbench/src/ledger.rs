//! `ledger`: account-state execution on one Map key.
//!
//! Set-up loads the accounts with one `commit_map_batch`, checkpoints,
//! closes and reopens the engine, then runs warm-up blocks. Each block
//! is 100 zipf-skewed account reads (a fifth of them write the account
//! back), one 64-account scan, one read of an account as it stood 1–256
//! blocks back, and one batch commit.

use crate::gen::{Rng, Scatter, Zipf};
use crate::trace::Tracer;
use crate::{op, open_engine, Op, Recorder, SetupTimes, Sizes, Workload};
use bytes::Bytes;
use forkbase_core::{FObject, FbError, ForkBase, Value};
use forkbase_crypto::Digest;
use forkbase_pos::{ChunkStore, Map, WriteBatch};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::Instant;

const KEY: &str = "ledger/state";
const TXNS_PER_BLOCK: usize = 100;
const WRITE_SHARE: f64 = 0.2;
const SCAN_LEN: usize = 64;
const MAX_AS_OF: usize = 256;
const ZIPF_THETA: f64 = 0.99;
const VALUE_LEN: usize = 96;
/// Logical bytes of one account write: 12-byte key plus value.
const ACCOUNT_BYTES: u64 = 12 + VALUE_LEN as u64;

fn account_key(i: u64) -> [u8; 12] {
    let mut k = *b"acct\0\0\0\0\0\0\0\0";
    k[4..].copy_from_slice(&i.to_be_bytes());
    k
}

/// The value of account `i` after `nonce` writes. It does not depend on
/// the seed: with zipf(0.99) a handful of leaves serve most reads, and
/// seed-dependent contents gave every seed its own leaf layout, which
/// moved read latency by more than the host's drift. The seed chooses
/// the transaction stream.
fn account_value(i: u64, nonce: u32) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    Rng::new(
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        u64::from(nonce) | 1 << 40,
    )
    .fill(&mut v);
    v
}

pub struct Ledger {
    db: ForkBase,
    key: Bytes,
    accounts: u64,
    zipf: Zipf,
    scatter: Scatter,
    rng: Rng,
    /// Shadow state: the committed nonce of every account.
    nonce: Vec<u32>,
    /// Uid of every committed block, oldest first (0 is the load).
    blocks: Vec<Digest>,
    /// For the last `MAX_AS_OF` blocks, the (account, previous nonce)
    /// pairs each one overwrote, oldest first.
    undo: VecDeque<Vec<(u32, u32)>>,
    user_bytes: u64,
}

fn head_map(db: &ForkBase, store: &dyn ChunkStore, key: &Bytes) -> forkbase_core::Result<Map> {
    let uid = db.head(key.clone(), None)?;
    FObject::load(store, uid)?.value(store)?.as_map()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Ledger {
    fn pick(&mut self) -> u64 {
        self.scatter.map(self.zipf.sample(&mut self.rng))
    }

    fn nonce_as_of(&self, acct: u64, k: usize) -> u32 {
        let mut n = self.nonce[acct as usize];
        for block in self.undo.iter().rev().take(k) {
            if let Some(&(_, old)) = block.iter().find(|(a, _)| u64::from(*a) == acct) {
                n = old;
            }
        }
        n
    }

    fn read(&self, tr: Option<&Tracer>, key: &[u8]) -> Result<Option<Bytes>, String> {
        match tr {
            None => self.db.map_get_latest(&self.key, key).map_err(err),
            Some(t) => {
                let ts = t.store(self.db.store());
                let map = t
                    .span("core.read", || head_map(&self.db, &ts, &self.key))
                    .map_err(err)?;
                Ok(t.span("pos.seek", || map.get(&ts, key)))
            }
        }
    }

    fn scan(&self, tr: Option<&Tracer>, from: &[u8]) -> Result<Vec<(Bytes, Bytes)>, String> {
        match tr {
            None => {
                let map = self
                    .db
                    .get_value(self.key.clone(), None)
                    .and_then(|v| v.as_map());
                let map = map.map_err(err)?;
                Ok(map
                    .iter_from(self.db.store(), from)
                    .take(SCAN_LEN)
                    .collect())
            }
            Some(t) => {
                let ts = t.store(self.db.store());
                let map = t
                    .span("core.read", || head_map(&self.db, &ts, &self.key))
                    .map_err(err)?;
                Ok(t.span("pos.scan", || {
                    map.iter_from(&ts, from).take(SCAN_LEN).collect()
                }))
            }
        }
    }

    fn read_as_of(
        &self,
        tr: Option<&Tracer>,
        uid: Digest,
        key: &[u8],
    ) -> Result<Option<Bytes>, String> {
        match tr {
            None => {
                let store = self.db.store();
                let obj = self.db.get_version(self.key.clone(), uid).map_err(err)?;
                let map = obj.value(store).and_then(|v| v.as_map()).map_err(err)?;
                Ok(map.get(store, key))
            }
            Some(t) => {
                let ts = t.store(self.db.store());
                let obj = t
                    .span("core.track", || {
                        let obj = FObject::load(&ts, uid)?;
                        if obj.key != self.key {
                            return Err(FbError::VersionNotFound(uid));
                        }
                        Ok(obj)
                    })
                    .map_err(err)?;
                let map = obj.value(&ts).and_then(|v| v.as_map()).map_err(err)?;
                Ok(t.span("pos.seek", || map.get(&ts, key)))
            }
        }
    }

    fn commit(&self, tr: Option<&Tracer>, batch: WriteBatch) -> Result<Digest, String> {
        match tr {
            None => self
                .db
                .commit_map_batch(self.key.clone(), None, batch)
                .map_err(err),
            // The public steps of `commit_map_batch` for a single writer:
            // the same splice and the same FObject, so the same uid.
            Some(t) => {
                let ts = t.store(self.db.store());
                let map = t
                    .span("core.read", || head_map(&self.db, &ts, &self.key))
                    .map_err(err)?;
                let next = t
                    .span("pos.splice", || map.apply(&ts, self.db.cfg(), batch))
                    .map_err(err)?;
                t.span("core.commit", || {
                    self.db.put(self.key.clone(), None, Value::Map(next))
                })
                .map_err(err)
            }
        }
    }

    fn check_value(&self, acct: u64, nonce: u32, got: Option<&Bytes>) -> Result<(), String> {
        match got {
            Some(v) if v[..] == account_value(acct, nonce)[..] => Ok(()),
            Some(_) => Err(format!("account {acct}: wrong value (want nonce {nonce})")),
            None => Err(format!("account {acct}: missing")),
        }
    }
}

impl Workload for Ledger {
    fn setup(seed: u64, sizes: &Sizes, dir: &Path) -> forkbase_core::Result<(Self, SetupTimes)> {
        let t0 = Instant::now();
        let accounts = sizes.ledger_accounts;
        let key = Bytes::from_static(KEY.as_bytes());
        let db = open_engine(dir)?;
        let mut batch = WriteBatch::with_capacity(accounts as usize);
        for i in 0..accounts {
            batch.put(
                Bytes::copy_from_slice(&account_key(i)),
                Bytes::copy_from_slice(&account_value(i, 0)),
            );
        }
        let load = db.commit_map_batch(key.clone(), None, batch)?;
        let t_ckpt = Instant::now();
        db.commit_checkpoint()?;
        let checkpoint = t_ckpt.elapsed();
        drop(db);
        let t_reopen = Instant::now();
        let db = open_engine(dir)?;
        let reopen = t_reopen.elapsed();
        if db.head(key.clone(), None)? != load {
            return Err(FbError::Corrupt("reopen lost the loaded state".into()));
        }
        let mut ledger = Ledger {
            db,
            key,
            accounts,
            zipf: Zipf::new(accounts, ZIPF_THETA),
            scatter: Scatter::new(accounts),
            rng: Rng::new(seed, 0x001E_D6E5),
            nonce: vec![0; accounts as usize],
            blocks: vec![load],
            undo: VecDeque::new(),
            user_bytes: accounts * ACCOUNT_BYTES,
        };
        let mut warm = Recorder::default();
        for _ in 0..sizes.ledger_warmup_blocks {
            ledger.step(None, &mut warm);
        }
        if let Some(f) = warm.failures().first() {
            return Err(FbError::Corrupt(format!("warm-up: {f}")));
        }
        let times = SetupTimes {
            total: t0.elapsed(),
            checkpoint,
            reopen: Some(reopen),
        };
        Ok((ledger, times))
    }

    fn step(&mut self, tr: Option<&Tracer>, rec: &mut Recorder) {
        // Transactions read committed state; writes land at block end.
        let mut pending: BTreeMap<u64, u32> = BTreeMap::new();
        for _ in 0..TXNS_PER_BLOCK {
            let acct = self.pick();
            let write = self.rng.chance(WRITE_SHARE);
            let key = account_key(acct);
            let (got, ns) = op(tr, Op::Read, || self.read(tr, &key));
            let nonce = self.nonce[acct as usize];
            rec.check(
                Op::Read,
                ns,
                got.and_then(|v| self.check_value(acct, nonce, v.as_ref())),
            );
            if write {
                pending.insert(acct, nonce + 1);
            }
        }

        let start = self.rng.below(self.accounts);
        let (got, ns) = op(tr, Op::Aux, || self.scan(tr, &account_key(start)));
        let checked = got.and_then(|items| {
            let want = (self.accounts - start).min(SCAN_LEN as u64);
            if items.len() as u64 != want {
                return Err(format!(
                    "scan from {start}: {} items, want {want}",
                    items.len()
                ));
            }
            items.iter().zip(start..).try_for_each(|((k, v), acct)| {
                if k[..] != account_key(acct)[..] {
                    return Err(format!("scan from {start}: wrong key at {acct}"));
                }
                self.check_value(acct, self.nonce[acct as usize], Some(v))
            })
        });
        rec.check(Op::Aux, ns, checked);

        let depth = self.undo.len().min(self.blocks.len() - 1);
        if depth > 0 {
            let k = 1 + self.rng.below(depth as u64) as usize;
            let acct = self.pick();
            let uid = self.blocks[self.blocks.len() - 1 - k];
            let (got, ns) = op(tr, Op::History, || {
                self.read_as_of(tr, uid, &account_key(acct))
            });
            let nonce = self.nonce_as_of(acct, k);
            rec.check(
                Op::History,
                ns,
                got.and_then(|v| self.check_value(acct, nonce, v.as_ref())),
            );
        }

        let mut batch = WriteBatch::with_capacity(pending.len());
        for (&acct, &nonce) in &pending {
            batch.put(
                Bytes::copy_from_slice(&account_key(acct)),
                Bytes::copy_from_slice(&account_value(acct, nonce)),
            );
        }
        let before = tr.map(|_| self.db.store().stats());
        let (uid, ns) = op(tr, Op::Write, || self.commit(tr, batch));
        if let Some(before) = before {
            rec.add_write_stats(&before, &self.db.store().stats());
        }
        match uid {
            Ok(uid) => {
                rec.ok(Op::Write, ns);
                let undo = pending
                    .iter()
                    .map(|(&acct, &nonce)| (acct as u32, nonce - 1))
                    .collect();
                for (&acct, &nonce) in &pending {
                    self.nonce[acct as usize] = nonce;
                }
                self.blocks.push(uid);
                self.undo.push_back(undo);
                if self.undo.len() > MAX_AS_OF {
                    self.undo.pop_front();
                }
                self.user_bytes += pending.len() as u64 * ACCOUNT_BYTES;
            }
            Err(e) => rec.fail(Op::Write, e),
        }
    }

    fn db(&self) -> &ForkBase {
        &self.db
    }

    fn user_bytes(&self) -> u64 {
        self.user_bytes
    }
}
