//! Offline build stub for `crossbeam` covering the `channel` subset this
//! workspace uses: `unbounded()`, clonable `Sender`/`Receiver` (MPMC), and
//! `send` / `recv` / `try_recv` / `recv_timeout`. Like the real crate's,
//! a `try_recv` on an empty channel takes no lock.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// `queue.len()`, stored under the lock after every change, so an
        /// empty poll can answer without taking it.
        len: AtomicUsize,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Shared<T> {
        /// Pops the front value, keeping `len` in step; `queue` is the
        /// locked queue.
        fn pop(&self, queue: &mut VecDeque<T>) -> Option<T> {
            let value = queue.pop_front()?;
            self.len.store(queue.len(), Ordering::Release);
            Some(value)
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            {
                let mut queue = self
                    .shared
                    .queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                queue.push_back(value);
                self.shared.len.store(queue.len(), Ordering::Release);
            }
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.shared.ready.notify_all();
            }
        }
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            if self.shared.len.load(Ordering::Acquire) == 0 {
                if self.shared.senders.load(Ordering::Acquire) > 0 {
                    return Err(TryRecvError::Empty);
                }
                // Every sender is gone, and the load that saw it publishes
                // all they sent: a zero now means nothing is left.
                if self.shared.len.load(Ordering::Acquire) == 0 {
                    return Err(TryRecvError::Disconnected);
                }
            }
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(value) = self.shared.pop(&mut queue) {
                return Ok(value);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(value) = self.shared.pop(&mut queue) {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(value) = self.shared.pop(&mut queue) {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .shared
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}
