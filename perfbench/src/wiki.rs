//! `wiki`: versioned pages, larger in total than the chunk cache.
//!
//! Set-up writes every page as a Blob of word text and then edits each
//! one a few times. The loop picks pages by zipf(0.8): 30% edits (head,
//! splice, put), 50% latest reads, 15% reads of the revision k back and
//! 5% diffs of the latest revision against k back, with k in 1..=8.

use crate::gen::{digest, Rng, Scatter, Words, Zipf};
use crate::trace::Tracer;
use crate::{op, open_engine, Op, Recorder, SetupTimes, Sizes, Workload};
use bytes::Bytes;
use forkbase_core::{history, FObject, FbError, ForkBase, Value};
use forkbase_crypto::Digest;
use forkbase_pos::{blob_diff_summary, Blob, ChunkStore, RangeDiff};
use std::path::Path;
use std::time::Instant;

const EDIT_BYTES: usize = 128;
const IN_PLACE_SHARE: f64 = 0.8;
const ZIPF_THETA: f64 = 0.8;
const MAX_BACK: u64 = 8;
const EDIT_SHARE: f64 = 0.30;
const LATEST_SHARE: f64 = 0.50;
const HISTORY_SHARE: f64 = 0.15;

/// The splice that produced a revision, in the coordinates of the text
/// it was applied to.
#[derive(Clone, Copy, Debug)]
struct Edit {
    pos: u64,
    remove: u64,
    len_before: u64,
}

#[derive(Clone, Copy, Debug)]
struct Rev {
    uid: Digest,
    digest: u64,
    len: u64,
    edit: Option<Edit>,
}

pub struct Wiki {
    db: ForkBase,
    words: Words,
    rng: Rng,
    zipf: Zipf,
    scatter: Scatter,
    keys: Vec<Bytes>,
    /// Shadow model: the latest text of every page...
    text: Vec<Vec<u8>>,
    /// ...and every revision of it, oldest first.
    revs: Vec<Vec<Rev>>,
    user_bytes: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn head_blob(db: &ForkBase, store: &dyn ChunkStore, key: &Bytes) -> forkbase_core::Result<Blob> {
    let uid = db.head(key.clone(), None)?;
    FObject::load(store, uid)?.value(store)?.as_blob()
}

/// The one version `k` revisions back, with its blob.
fn version_back(
    db: &ForkBase,
    store: &dyn ChunkStore,
    key: &Bytes,
    k: u64,
) -> forkbase_core::Result<(Digest, Blob)> {
    let head = db.head(key.clone(), None)?;
    let tracked = history::track(store, head, k, k)?;
    let [tv] = tracked.as_slice() else {
        return Err(FbError::Corrupt(format!(
            "{} versions {k} back",
            tracked.len()
        )));
    };
    Ok((tv.uid, tv.object.value(store)?.as_blob()?))
}

impl Wiki {
    fn edit(&mut self, tr: Option<&Tracer>, page: usize, rec: &mut Recorder) {
        let len = self.text[page].len() as u64;
        let (pos, remove) = if self.rng.chance(IN_PLACE_SHARE) && len >= EDIT_BYTES as u64 {
            (
                self.rng.below(len - EDIT_BYTES as u64 + 1),
                EDIT_BYTES as u64,
            )
        } else {
            (self.rng.below(len + 1), 0)
        };
        let insert = self.words.text(&mut self.rng, EDIT_BYTES);
        let key = &self.keys[page];
        let db = &self.db;
        let before = tr.map(|_| db.store().stats());
        let (uid, ns) = op(tr, Op::Write, || -> Result<Digest, String> {
            match tr {
                None => {
                    let blob = db.get_value(key.clone(), None).and_then(|v| v.as_blob());
                    let next = blob
                        .map_err(err)?
                        .splice(db.store(), db.cfg(), pos, remove, &insert)
                        .map_err(err)?;
                    db.put(key.clone(), None, Value::Blob(next)).map_err(err)
                }
                Some(t) => {
                    let ts = t.store(db.store());
                    let blob = t
                        .span("core.read", || head_blob(db, &ts, key))
                        .map_err(err)?;
                    let next = t
                        .span("pos.splice", || {
                            blob.splice(&ts, db.cfg(), pos, remove, &insert)
                        })
                        .map_err(err)?;
                    t.span("core.commit", || {
                        db.put(key.clone(), None, Value::Blob(next))
                    })
                    .map_err(err)
                }
            }
        });
        if let Some(before) = before {
            rec.add_write_stats(&before, &db.store().stats());
        }
        match uid {
            Ok(uid) => {
                rec.ok(Op::Write, ns);
                let text = &mut self.text[page];
                text.splice(pos as usize..(pos + remove) as usize, insert);
                self.revs[page].push(Rev {
                    uid,
                    digest: digest(text),
                    len: text.len() as u64,
                    edit: Some(Edit {
                        pos,
                        remove,
                        len_before: len,
                    }),
                });
                self.user_bytes += text.len() as u64;
            }
            Err(e) => rec.fail(Op::Write, e),
        }
    }

    fn read_latest(&self, tr: Option<&Tracer>, page: usize, rec: &mut Recorder) {
        let (db, key) = (&self.db, &self.keys[page]);
        let (got, ns) = op(tr, Op::Read, || -> Result<Vec<u8>, String> {
            match tr {
                None => {
                    let blob = db.get_value(key.clone(), None).and_then(|v| v.as_blob());
                    blob.map_err(err)?
                        .read_all(db.store())
                        .ok_or_else(|| "missing chunk".to_string())
                }
                Some(t) => {
                    let ts = t.store(db.store());
                    let blob = t
                        .span("core.read", || head_blob(db, &ts, key))
                        .map_err(err)?;
                    t.span("pos.read", || blob.read_all(&ts))
                        .ok_or_else(|| "missing chunk".to_string())
                }
            }
        });
        let checked = got.and_then(|bytes| match bytes == self.text[page] {
            true => Ok(()),
            false => Err(format!("page {page}: latest text differs")),
        });
        rec.check(Op::Read, ns, checked);
    }

    fn read_back(&self, tr: Option<&Tracer>, page: usize, k: u64, rec: &mut Recorder) {
        let (db, key) = (&self.db, &self.keys[page]);
        let (got, ns) = op(tr, Op::History, || -> Result<(Digest, Vec<u8>), String> {
            match tr {
                None => {
                    let tracked = db.track(key.clone(), None, k, k).map_err(err)?;
                    let [tv] = tracked.as_slice() else {
                        return Err(format!("{} versions {k} back", tracked.len()));
                    };
                    let blob = tv.object.value(db.store()).and_then(|v| v.as_blob());
                    let bytes = blob.map_err(err)?.read_all(db.store());
                    Ok((tv.uid, bytes.ok_or("missing chunk")?))
                }
                Some(t) => {
                    let ts = t.store(db.store());
                    let (uid, blob) = t
                        .span("core.track", || version_back(db, &ts, key, k))
                        .map_err(err)?;
                    let bytes = t.span("pos.read", || blob.read_all(&ts));
                    Ok((uid, bytes.ok_or("missing chunk")?))
                }
            }
        });
        let want = self.revs[page][self.revs[page].len() - 1 - k as usize];
        let checked = got.and_then(|(uid, bytes)| {
            if uid != want.uid || bytes.len() as u64 != want.len || digest(&bytes) != want.digest {
                return Err(format!("page {page}: revision {k} back differs"));
            }
            Ok(())
        });
        rec.check(Op::History, ns, checked);
    }

    fn diff(&self, tr: Option<&Tracer>, page: usize, k: u64, rec: &mut Recorder) {
        let (db, key) = (&self.db, &self.keys[page]);
        let (got, ns) = op(
            tr,
            Op::Aux,
            || -> Result<(Digest, Option<RangeDiff>), String> {
                let (latest, (uid, old)) = match tr {
                    None => {
                        let latest = db.get_value(key.clone(), None).and_then(|v| v.as_blob());
                        let latest = latest.map_err(err)?;
                        let tracked = db.track(key.clone(), None, k, k).map_err(err)?;
                        let [tv] = tracked.as_slice() else {
                            return Err(format!("{} versions {k} back", tracked.len()));
                        };
                        let old = tv.object.value(db.store()).and_then(|v| v.as_blob());
                        (latest, (tv.uid, old.map_err(err)?))
                    }
                    Some(t) => {
                        let ts = t.store(db.store());
                        let latest = t
                            .span("core.read", || head_blob(db, &ts, key))
                            .map_err(err)?;
                        let back = t
                            .span("core.track", || version_back(db, &ts, key, k))
                            .map_err(err)?;
                        (latest, back)
                    }
                };
                let diff = match tr {
                    None => blob_diff_summary(db.store(), latest.root(), old.root()),
                    Some(t) => {
                        let ts = t.store(db.store());
                        t.span("pos.diff", || {
                            blob_diff_summary(&ts, latest.root(), old.root())
                        })
                    }
                };
                Ok((uid, diff.ok_or("missing chunk")?))
            },
        );
        let revs = &self.revs[page];
        let want = revs[revs.len() - 1 - k as usize];
        let checked = got.and_then(|(uid, diff)| {
            if uid != want.uid {
                return Err(format!("page {page}: wrong version {k} back"));
            }
            check_diff(
                &self.text[page],
                &want,
                &revs[revs.len() - k as usize..],
                diff,
            )
            .map_err(|e| format!("page {page}, {k} back: {e}"))
        });
        rec.check(Op::Aux, ns, checked);
    }
}

/// A diff of the latest text against an older revision must account for
/// the length change, cannot start before the first byte any of the
/// later edits touched, and cannot end inside the suffix all of them
/// kept.
fn check_diff(
    latest: &[u8],
    old: &Rev,
    later: &[Rev],
    diff: Option<RangeDiff>,
) -> Result<(), String> {
    let l = latest.len() as u64;
    let Some(d) = diff else {
        return match digest(latest) == old.digest && l == old.len {
            true => Ok(()),
            false => Err("reported identical".into()),
        };
    };
    let edits: Vec<Edit> = later.iter().filter_map(|r| r.edit).collect();
    let min_pos = edits.iter().map(|e| e.pos).min().unwrap_or(0);
    let min_suffix = edits
        .iter()
        .map(|e| e.len_before - e.pos - e.remove)
        .min()
        .unwrap_or(0);
    let fits = d.start + d.left_len <= l && d.start + d.right_len <= old.len;
    if !fits || l - d.left_len != old.len - d.right_len {
        return Err(format!("{d:?} does not fit lengths {l} / {}", old.len));
    }
    // The common prefix is maximal, so it can run past the first edited
    // byte by as much as the common suffix falls short of the kept one
    // (an insert whose first bytes repeat the text after it).
    if d.start < min_pos || l - d.left_len - min_pos < min_suffix {
        return Err(format!("{d:?} outside the edited region"));
    }
    Ok(())
}

impl Workload for Wiki {
    fn setup(seed: u64, sizes: &Sizes, dir: &Path) -> forkbase_core::Result<(Self, SetupTimes)> {
        let t0 = Instant::now();
        let pages = sizes.wiki_pages;
        let db = open_engine(dir)?;
        let words = Words::new(seed);
        let mut rng = Rng::new(seed, 0x3171);
        let keys: Vec<Bytes> = (0..pages)
            .map(|p| Bytes::from(format!("page/{p:05}")))
            .collect();
        let mut text = Vec::with_capacity(pages as usize);
        let mut revs = Vec::with_capacity(pages as usize);
        let mut user_bytes = 0;
        for key in &keys {
            let t = words.text(&mut rng, sizes.wiki_page_bytes);
            let uid = db.put(key.clone(), None, Value::Blob(db.new_blob(&t)))?;
            revs.push(vec![Rev {
                uid,
                digest: digest(&t),
                len: t.len() as u64,
                edit: None,
            }]);
            user_bytes += t.len() as u64;
            text.push(t);
        }
        let mut wiki = Wiki {
            db,
            words,
            rng,
            zipf: Zipf::new(pages, ZIPF_THETA),
            scatter: Scatter::new(pages),
            keys,
            text,
            revs,
            user_bytes,
        };
        let mut rec = Recorder::default();
        for _ in 0..sizes.wiki_setup_revisions {
            for page in 0..pages as usize {
                wiki.edit(None, page, &mut rec);
            }
        }
        if let Some(f) = rec.failures().first() {
            return Err(FbError::Corrupt(format!("set-up edit: {f}")));
        }
        let t_ckpt = Instant::now();
        wiki.db.commit_checkpoint()?;
        let times = SetupTimes {
            total: t0.elapsed(),
            checkpoint: t_ckpt.elapsed(),
            reopen: None,
        };
        Ok((wiki, times))
    }

    fn step(&mut self, tr: Option<&Tracer>, rec: &mut Recorder) {
        let page = self.scatter.map(self.zipf.sample(&mut self.rng)) as usize;
        let r = self.rng.unit();
        let back = (self.revs[page].len() as u64 - 1).min(MAX_BACK);
        let k = 1 + self.rng.below(back);
        if r < EDIT_SHARE {
            self.edit(tr, page, rec);
        } else if r < EDIT_SHARE + LATEST_SHARE {
            self.read_latest(tr, page, rec);
        } else if r < EDIT_SHARE + LATEST_SHARE + HISTORY_SHARE {
            self.read_back(tr, page, k, rec);
        } else {
            self.diff(tr, page, k, rec);
        }
    }

    fn db(&self) -> &ForkBase {
        &self.db
    }

    fn user_bytes(&self) -> u64 {
        self.user_bytes
    }
}
