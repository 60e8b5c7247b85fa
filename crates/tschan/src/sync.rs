//! A `Mutex` wrapper with the `parking_lot` calling convention the engine
//! uses: `.lock()` returns the guard directly.
//!
//! Backed by `std::sync`; a poisoned lock panics, which matches how the
//! engine treated `parking_lot` (no poison handling anywhere).

use std::sync::{self, MutexGuard};

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
}
