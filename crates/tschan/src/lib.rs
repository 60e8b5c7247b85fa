//! Multi-producer multi-consumer channels over `std::sync`, plus the lock
//! wrapper in [`sync`].
//!
//! A dependency-free replacement for the narrow `crossbeam_channel` subset
//! the simulated cluster uses: `unbounded`, `bounded`, cloneable `Sender`
//! **and** `Receiver` (worker comper pools share one receiver), blocking
//! `send`/`recv` with disconnect errors, `recv_timeout` (the master's tick)
//! and `try_iter`. No `select!` — the engine does not use it.
//!
//! Disconnect semantics match crossbeam: `send` fails once every receiver
//! is gone; `recv` drains remaining messages and only then fails once every
//! sender is gone.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub mod sync;

/// Error on [`Sender::send`]: every receiver disconnected. Carries the
/// undelivered message.
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error on [`Receiver::recv`]: channel empty and every sender disconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

struct State<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Creates a channel with no capacity bound.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_cap(None)
}

/// Creates a channel holding at most `cap` in-flight messages (`cap >= 1`;
/// the engine only uses this as a one-slot completion mailbox).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap >= 1, "tschan::bounded requires capacity >= 1");
    with_cap(Some(cap))
}

fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The sending half. Cloneable; the channel disconnects for receivers when
/// the last clone drops.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Delivers `msg`, blocking while a bounded channel is full. Fails only
    /// when every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            match st.cap {
                Some(cap) if st.queue.len() >= cap => {
                    st = self.shared.not_full.wait(st).unwrap();
                }
                _ => break,
            }
        }
        st.queue.push_back(msg);
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.state.lock().unwrap().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            // Wake receivers so they can observe the disconnect.
            self.shared.not_empty.notify_all();
        }
    }
}

/// The receiving half. Cloneable: clones share one queue (each message is
/// delivered to exactly one receiver), which is how worker comper pools
/// compete for tasks.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Takes the next message, blocking while the channel is empty. Fails
    /// only when the channel is empty **and** every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.shared.not_empty.wait(st).unwrap();
        }
    }

    /// [`Receiver::recv`] that gives up after `timeout`: `Ok(None)` when the
    /// channel stayed empty that long. A message already queued is returned
    /// even with a zero timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<T>, RecvError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Ok(Some(msg));
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            st = self.shared.not_empty.wait_timeout(st, left).unwrap().0;
        }
    }

    /// Drains whatever is currently queued without blocking.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }

    fn try_recv_now(&self) -> Option<T> {
        let msg = self.shared.state.lock().unwrap().queue.pop_front();
        if msg.is_some() {
            self.shared.not_full.notify_one();
        }
        msg
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.shared.state.lock().unwrap().receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            // Wake blocked senders so they can observe the disconnect.
            self.shared.not_full.notify_all();
        }
    }
}

/// Iterator over currently-queued messages; never blocks.
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_a_channel() {
        let (s, r) = unbounded();
        for i in 0..100 {
            s.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(r.recv().unwrap(), i);
        }
    }

    #[test]
    fn recv_drains_before_reporting_disconnect() {
        let (s, r) = unbounded();
        s.send(1).unwrap();
        s.send(2).unwrap();
        drop(s);
        assert_eq!(r.recv(), Ok(1));
        assert_eq!(r.recv(), Ok(2));
        assert_eq!(r.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_once_receivers_gone() {
        let (s, r) = unbounded();
        drop(r);
        assert!(s.send(7).is_err());
    }

    #[test]
    fn cloned_receivers_compete_for_messages() {
        let (s, r) = unbounded::<u32>();
        let r2 = r.clone();
        let consumers: Vec<_> = [r, r2]
            .into_iter()
            .map(|rx| thread::spawn(move || std::iter::from_fn(|| rx.recv().ok()).count()))
            .collect();
        for i in 0..1_000 {
            s.send(i).unwrap();
        }
        drop(s);
        let total: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1_000, "each message delivered exactly once");
    }

    #[test]
    fn bounded_one_blocks_until_consumed() {
        let (s, r) = bounded(1);
        s.send(1).unwrap();
        let t = thread::spawn(move || s.send(2).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert_eq!(r.recv(), Ok(1));
        t.join().unwrap();
        assert_eq!(r.recv(), Ok(2));
    }

    #[test]
    fn try_iter_never_blocks() {
        let (s, r) = unbounded();
        s.send(1).unwrap();
        s.send(2).unwrap();
        assert_eq!(r.try_iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(r.try_iter().count(), 0);
    }

    #[test]
    fn recv_timeout_returns_a_message_that_beats_the_deadline() {
        let (s, r) = unbounded();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            s.send(7).unwrap();
            s // keep the channel connected until joined
        });
        assert_eq!(r.recv_timeout(Duration::from_secs(10)), Ok(Some(7)));
        drop(t.join().unwrap());
    }

    #[test]
    fn recv_timeout_gives_up_at_the_deadline() {
        let (_s, r) = unbounded::<u32>();
        let start = Instant::now();
        assert_eq!(r.recv_timeout(Duration::from_millis(20)), Ok(None));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn recv_timeout_fails_once_empty_and_disconnected() {
        let (s, r) = unbounded();
        s.send(1).unwrap();
        drop(s);
        assert_eq!(r.recv_timeout(Duration::from_secs(10)), Ok(Some(1)));
        assert_eq!(r.recv_timeout(Duration::from_secs(10)), Err(RecvError));
    }

    #[test]
    fn recv_timeout_of_zero_still_takes_a_queued_message() {
        let (s, r) = unbounded();
        s.send(1).unwrap();
        assert_eq!(r.recv_timeout(Duration::ZERO), Ok(Some(1)));
        assert_eq!(r.recv_timeout(Duration::ZERO), Ok(None));
    }

    #[test]
    fn many_producers_one_consumer() {
        let (s, r) = unbounded::<u64>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let s = s.clone();
                thread::spawn(move || {
                    for i in 0..250 {
                        s.send(p * 1_000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(s);
        let mut got = Vec::new();
        while let Ok(v) = r.recv() {
            got.push(v);
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got.len(), 1_000);
        assert!(got.windows(2).all(|w| w[0] != w[1]));
    }
}
