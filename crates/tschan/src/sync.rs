//! `Mutex`/`RwLock` wrappers with the `parking_lot` calling convention the
//! engine uses: `.lock()`, `.read()` and `.write()` return guards directly.
//!
//! Backed by `std::sync`; a poisoned lock panics, which matches how the
//! engine treated `parking_lot` (no poison handling anywhere).

use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion without a poison `Result` at every call site.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .expect("tschan::sync::Mutex poisoned")
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().expect("tschan::sync::Mutex poisoned")
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().expect("tschan::sync::Mutex poisoned")
    }
}

/// Reader-writer lock without a poison `Result` at every call site.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .expect("tschan::sync::RwLock poisoned")
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().expect("tschan::sync::RwLock poisoned")
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().expect("tschan::sync::RwLock poisoned")
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().expect("tschan::sync::RwLock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_counts_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8_000);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2, 3]);
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(*l.read(), vec![1, 2, 3, 4]);
        assert_eq!(l.into_inner(), vec![1, 2, 3, 4]);
    }
}
