//! Counting/timing decorators for the platform substrates.
//!
//! The traced run wraps the database's `UntrustedStore` and `OneWayCounter`
//! in these (through `Options::with_substrates`) so platform traffic is
//! measured where it happens: calls, bytes and busy time per `write_at`,
//! `sync` and `increment`. The untraced run uses the bare substrates.
//! While the layer ladder replays a rung, the decorators also log the exact
//! call sequence so the platform rung can replay "the same bytes".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tdb_platform::{OneWayCounter, RandomAccessFile, Result, UntrustedStore};

/// One platform call, as the ladder's platform rung replays it. `file`
/// indexes [`Counts::file_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    Write { file: u32, offset: u64, len: u32 },
    SetLen { file: u32, len: u64 },
    Sync { file: u32 },
    Increment,
}

/// Totals shared by every decorator of one database.
#[derive(Default)]
pub struct Counts {
    pub write_calls: AtomicU64,
    pub write_bytes: AtomicU64,
    pub write_ns: AtomicU64,
    pub read_calls: AtomicU64,
    pub read_bytes: AtomicU64,
    pub sync_calls: AtomicU64,
    pub sync_ns: AtomicU64,
    pub increments: AtomicU64,
    pub increment_ns: AtomicU64,
    /// Every sync's duration, for the median.
    sync_samples_ns: Mutex<Vec<u64>>,
    logging: AtomicBool,
    log: Mutex<Vec<Event>>,
    /// Names of the files opened so far; an event's `file` indexes it.
    files: Mutex<Vec<String>>,
}

/// A point-in-time copy of the totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountsSnapshot {
    pub write_calls: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
    pub sync_calls: u64,
    pub sync_ns: u64,
    pub increments: u64,
    pub increment_ns: u64,
    /// Sync durations recorded so far (in a delta: during the interval).
    sync_samples: usize,
}

impl CountsSnapshot {
    pub fn since(&self, earlier: &CountsSnapshot) -> CountsSnapshot {
        CountsSnapshot {
            write_calls: self.write_calls - earlier.write_calls,
            write_bytes: self.write_bytes - earlier.write_bytes,
            write_ns: self.write_ns - earlier.write_ns,
            read_calls: self.read_calls - earlier.read_calls,
            read_bytes: self.read_bytes - earlier.read_bytes,
            sync_calls: self.sync_calls - earlier.sync_calls,
            sync_ns: self.sync_ns - earlier.sync_ns,
            increments: self.increments - earlier.increments,
            increment_ns: self.increment_ns - earlier.increment_ns,
            sync_samples: self.sync_samples - earlier.sync_samples,
        }
    }
}

impl Counts {
    pub fn snapshot(&self) -> CountsSnapshot {
        let r = Ordering::Relaxed;
        CountsSnapshot {
            write_calls: self.write_calls.load(r),
            write_bytes: self.write_bytes.load(r),
            write_ns: self.write_ns.load(r),
            read_calls: self.read_calls.load(r),
            read_bytes: self.read_bytes.load(r),
            sync_calls: self.sync_calls.load(r),
            sync_ns: self.sync_ns.load(r),
            increments: self.increments.load(r),
            increment_ns: self.increment_ns.load(r),
            sync_samples: self.sync_samples_ns.lock().expect("sync samples").len(),
        }
    }

    /// Sync durations recorded since `earlier` was taken.
    pub fn sync_samples_since(&self, earlier: &CountsSnapshot) -> Vec<u64> {
        let samples = self.sync_samples_ns.lock().expect("sync samples");
        samples[earlier.sync_samples.min(samples.len())..].to_vec()
    }

    /// Start logging the call sequence (ladder replay).
    pub fn start_log(&self) {
        self.log.lock().expect("event log").clear();
        self.logging.store(true, Ordering::SeqCst);
    }

    /// Stop logging and take the recorded sequence.
    pub fn take_log(&self) -> Vec<Event> {
        self.logging.store(false, Ordering::SeqCst);
        std::mem::take(&mut *self.log.lock().expect("event log"))
    }

    /// Name of the file an event refers to.
    pub fn file_name(&self, file: u32) -> String {
        self.files.lock().expect("file names")[file as usize].clone()
    }

    fn intern(&self, name: &str) -> u32 {
        let mut files = self.files.lock().expect("file names");
        let at = files.iter().position(|n| n == name).unwrap_or_else(|| {
            files.push(name.to_string());
            files.len() - 1
        });
        at as u32
    }

    fn push(&self, e: Event) {
        if self.logging.load(Ordering::Relaxed) {
            self.log.lock().expect("event log").push(e);
        }
    }
}

/// An `UntrustedStore` that counts and times what passes through it and is
/// otherwise transparent: the wrapped store sees exactly the same calls.
pub struct CountingStore {
    inner: Arc<dyn UntrustedStore>,
    counts: Arc<Counts>,
}

impl CountingStore {
    pub fn new(inner: Arc<dyn UntrustedStore>, counts: Arc<Counts>) -> CountingStore {
        CountingStore { inner, counts }
    }
}

impl UntrustedStore for CountingStore {
    fn open(&self, name: &str, create: bool) -> Result<Box<dyn RandomAccessFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.open(name, create)?,
            file: self.counts.intern(name),
            counts: self.counts.clone(),
        }))
    }

    fn exists(&self, name: &str) -> Result<bool> {
        self.inner.exists(name)
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn total_size(&self) -> Result<u64> {
        self.inner.total_size()
    }
}

struct CountingFile {
    inner: Box<dyn RandomAccessFile>,
    file: u32,
    counts: Arc<Counts>,
}

impl RandomAccessFile for CountingFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.counts.read_calls.fetch_add(1, Ordering::Relaxed);
        self.counts
            .read_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let began = Instant::now();
        let out = self.inner.write_at(offset, data);
        let ns = began.elapsed().as_nanos() as u64;
        self.counts.write_calls.fetch_add(1, Ordering::Relaxed);
        self.counts
            .write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.counts.write_ns.fetch_add(ns, Ordering::Relaxed);
        self.counts.push(Event::Write {
            file: self.file,
            offset,
            len: data.len() as u32,
        });
        out
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.counts.push(Event::SetLen {
            file: self.file,
            len,
        });
        self.inner.set_len(len)
    }

    fn sync(&self) -> Result<()> {
        let began = Instant::now();
        let out = self.inner.sync();
        let ns = began.elapsed().as_nanos() as u64;
        self.counts.sync_calls.fetch_add(1, Ordering::Relaxed);
        self.counts.sync_ns.fetch_add(ns, Ordering::Relaxed);
        self.counts
            .sync_samples_ns
            .lock()
            .expect("sync samples")
            .push(ns);
        self.counts.push(Event::Sync { file: self.file });
        out
    }
}

/// A `OneWayCounter` that counts and times increments.
pub struct CountingCounter {
    inner: Arc<dyn OneWayCounter>,
    counts: Arc<Counts>,
}

impl CountingCounter {
    pub fn new(inner: Arc<dyn OneWayCounter>, counts: Arc<Counts>) -> CountingCounter {
        CountingCounter { inner, counts }
    }
}

impl OneWayCounter for CountingCounter {
    fn read(&self) -> Result<u64> {
        self.inner.read()
    }

    fn increment(&self) -> Result<u64> {
        let began = Instant::now();
        let out = self.inner.increment();
        let ns = began.elapsed().as_nanos() as u64;
        self.counts.increments.fetch_add(1, Ordering::Relaxed);
        self.counts.increment_ns.fetch_add(ns, Ordering::Relaxed);
        self.counts.push(Event::Increment);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_platform::{MemStore, VolatileCounter};

    /// A fixed script of store calls covering every mutating method.
    fn script(store: &dyn UntrustedStore) {
        let a = store.open("seg-0", true).unwrap();
        a.write_at(0, b"header").unwrap();
        a.write_at(6, &[7u8; 300]).unwrap();
        a.sync().unwrap();
        a.write_at(2, b"XY").unwrap();
        a.set_len(200).unwrap();
        let b = store.open("anchor", true).unwrap();
        b.write_at(16, b"late").unwrap();
        b.sync().unwrap();
        let mut buf = [0u8; 4];
        b.read_at(16, &mut buf).unwrap();
        assert_eq!(&buf, b"late");
        let c = store.open("doomed", true).unwrap();
        c.write_at(0, b"gone").unwrap();
        drop(c);
        store.remove("doomed").unwrap();
    }

    fn image(store: &dyn UntrustedStore) -> Vec<(String, Vec<u8>)> {
        let mut names = store.list().unwrap();
        names.sort();
        names
            .into_iter()
            .map(|n| {
                let f = store.open(&n, false).unwrap();
                let mut bytes = vec![0u8; f.len().unwrap() as usize];
                f.read_at(0, &mut bytes).unwrap();
                (n, bytes)
            })
            .collect()
    }

    #[test]
    fn wrapped_and_unwrapped_stores_hold_identical_images() {
        let bare = MemStore::new();
        script(&bare);

        let backing = MemStore::new();
        let counts = Arc::new(Counts::default());
        let wrapped = CountingStore::new(Arc::new(backing.clone()), counts.clone());
        script(&wrapped);

        let c = counts.snapshot();
        assert_eq!(image(&bare), image(&backing));
        assert_eq!(image(&bare), image(&wrapped));
        assert_eq!(
            wrapped.total_size().unwrap(),
            UntrustedStore::total_size(&bare).unwrap()
        );

        assert_eq!(c.write_calls, 5);
        assert_eq!(c.write_bytes, 6 + 300 + 2 + 4 + 4);
        assert_eq!(c.sync_calls, 2);
        assert_eq!((c.read_calls, c.read_bytes), (1, 4));
        assert_eq!(
            counts.sync_samples_since(&CountsSnapshot::default()).len(),
            2
        );
    }

    #[test]
    fn counter_decorator_is_transparent_and_counts() {
        let counts = Arc::new(Counts::default());
        let inner = Arc::new(VolatileCounter::new());
        let c = CountingCounter::new(inner.clone(), counts.clone());
        assert_eq!(c.increment().unwrap(), 1);
        assert_eq!(c.increment().unwrap(), 2);
        assert_eq!(c.read().unwrap(), 2);
        assert_eq!(inner.read().unwrap(), 2);
        assert_eq!(counts.snapshot().increments, 2);
    }

    #[test]
    fn log_records_the_call_sequence_only_while_on() {
        let counts = Arc::new(Counts::default());
        let store = CountingStore::new(Arc::new(MemStore::new()), counts.clone());
        let counter = CountingCounter::new(Arc::new(VolatileCounter::new()), counts.clone());
        let f = store.open("f", true).unwrap();
        f.write_at(0, b"ignored").unwrap();
        counts.start_log();
        f.write_at(4, b"abc").unwrap();
        f.sync().unwrap();
        counter.increment().unwrap();
        let log = counts.take_log();
        f.write_at(0, b"after").unwrap();
        assert_eq!(
            log,
            vec![
                Event::Write {
                    file: 0,
                    offset: 4,
                    len: 3
                },
                Event::Sync { file: 0 },
                Event::Increment
            ]
        );
        assert_eq!(counts.file_name(0), "f");
        assert!(counts.take_log().is_empty());
        let before = counts.snapshot();
        f.sync().unwrap();
        let delta = counts.snapshot().since(&before);
        assert_eq!((delta.sync_calls, delta.write_calls), (1, 0));
        assert_eq!(counts.sync_samples_since(&before).len(), 1);
    }
}
