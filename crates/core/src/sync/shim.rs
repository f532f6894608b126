//! Instrumented stand-ins for `std::sync` / `std::thread` /
//! `std::time` (`cfg(mcheck)` only).
//!
//! Every type here keeps the std API surface the serving stack uses,
//! but routes each operation through the execution controller in
//! [`super::exec`]: the op is recorded into the trace and becomes a
//! *yield point* where the schedule policy may preempt. Blocking ops
//! (channel recv, mutex lock, park, join) never block the OS thread
//! while a model-checked execution is active — they register with the
//! controller and hand the baton over.
//!
//! Outside an execution (plain unit tests compiled with `--cfg
//! mcheck`), everything still *works*: atomics and mutexes hit their
//! real std counterparts directly, and channel waits fall back to a
//! per-object condvar side table. Only the instrumentation is skipped.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex as StdMutex;
use std::sync::{Arc, TryLockError};
use std::time::Duration;

use super::exec::{self, op, BlockResult, ObjectId};

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Instrumented atomics. The shim wraps the real std atomic (so the
/// stored values and orderings behave exactly as in a normal build)
/// and records every access as a yield point.
pub mod atomic {
    use super::*;
    pub use std::sync::atomic::Ordering;

    macro_rules! int_atomic {
        ($name:ident, $std:path, $prim:ty) => {
            /// Instrumented drop-in for the std atomic of the same name.
            pub struct $name {
                id: ObjectId,
                inner: $std,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub fn new(v: $prim) -> Self {
                    Self {
                        id: exec::new_object_id(),
                        inner: <$std>::new(v),
                    }
                }

                /// As `std`: loads the value with `order`.
                pub fn load(&self, order: Ordering) -> $prim {
                    exec::yield_point(op::ATOMIC_LOAD, self.id, 0);
                    self.inner.load(order)
                }

                /// As `std`: stores `v` with `order`.
                pub fn store(&self, v: $prim, order: Ordering) {
                    exec::yield_point(op::ATOMIC_STORE, self.id, v as u64);
                    self.inner.store(v, order);
                }

                /// As `std`: swaps in `v`, returning the old value.
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    exec::yield_point(op::ATOMIC_RMW, self.id, v as u64);
                    self.inner.swap(v, order)
                }

                /// As `std`: adds `v`, returning the old value.
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    exec::yield_point(op::ATOMIC_RMW, self.id, v as u64);
                    self.inner.fetch_add(v, order)
                }

                /// As `std`: subtracts `v`, returning the old value.
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    exec::yield_point(op::ATOMIC_RMW, self.id, v as u64);
                    self.inner.fetch_sub(v, order)
                }

                /// As `std`: stores the max of the current value and
                /// `v`, returning the old value.
                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    exec::yield_point(op::ATOMIC_RMW, self.id, v as u64);
                    self.inner.fetch_max(v, order)
                }

                /// As `std`: stores the min of the current value and
                /// `v`, returning the old value.
                pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
                    exec::yield_point(op::ATOMIC_RMW, self.id, v as u64);
                    self.inner.fetch_min(v, order)
                }

                /// As `std`: compare-and-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    exec::yield_point(op::ATOMIC_RMW, self.id, new as u64);
                    self.inner.compare_exchange(current, new, success, failure)
                }

                /// As `std`: consumes the atomic, returning the value.
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }

                /// As `std`: mutable access implies exclusivity — not
                /// an instrumented access.
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    // ordering: Relaxed — uninstrumented diagnostic
                    // read; Debug must not perturb the schedule.
                    f.debug_tuple(stringify!($name))
                        .field(&self.inner.load(Ordering::Relaxed))
                        .finish()
                }
            }
        };
    }

    int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    int_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    int_atomic!(AtomicI64, std::sync::atomic::AtomicI64, i64);

    /// Instrumented drop-in for `std::sync::atomic::AtomicBool`.
    pub struct AtomicBool {
        id: ObjectId,
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic with the given initial value.
        pub fn new(v: bool) -> Self {
            Self {
                id: exec::new_object_id(),
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        /// As `std`: loads the value with `order`.
        pub fn load(&self, order: Ordering) -> bool {
            exec::yield_point(op::ATOMIC_LOAD, self.id, 0);
            self.inner.load(order)
        }

        /// As `std`: stores `v` with `order`.
        pub fn store(&self, v: bool, order: Ordering) {
            exec::yield_point(op::ATOMIC_STORE, self.id, v as u64);
            self.inner.store(v, order);
        }

        /// As `std`: swaps in `v`, returning the old value.
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            exec::yield_point(op::ATOMIC_RMW, self.id, v as u64);
            self.inner.swap(v, order)
        }

        /// As `std`: compare-and-exchange.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            exec::yield_point(op::ATOMIC_RMW, self.id, new as u64);
            self.inner.compare_exchange(current, new, success, failure)
        }

        /// As `std`: consumes the atomic, returning the value.
        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            // ordering: Relaxed — uninstrumented diagnostic read;
            // Debug must not perturb the schedule.
            f.debug_tuple("AtomicBool")
                .field(&self.inner.load(Ordering::Relaxed))
                .finish()
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

pub use std::sync::{LockResult, PoisonError};

/// Instrumented drop-in for `std::sync::Mutex`.
///
/// The data still lives behind a real std mutex; under a model-checked
/// execution contention is detected with `try_lock` (serialized
/// execution means a failed `try_lock` can only mean another *task*
/// holds the guard across a yield) and the loser blocks on the
/// controller instead of the OS.
pub struct Mutex<T: ?Sized> {
    id: ObjectId,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `t`.
    pub fn new(t: T) -> Self {
        Self {
            id: exec::new_object_id(),
            inner: StdMutex::new(t),
        }
    }

    /// As `std`: consumes the mutex, returning the data.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// As `std`: acquires the lock, blocking until available. Never
    /// returns `Err` — the shim heals poisoning (the checker reports
    /// panics itself; cascading them as poison errors only obscures
    /// the original failure).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        loop {
            exec::yield_point(op::LOCK_ACQUIRE, self.id, 0);
            match self.inner.try_lock() {
                Ok(g) => {
                    return Ok(MutexGuard {
                        id: self.id,
                        inner: Some(g),
                    })
                }
                Err(TryLockError::Poisoned(p)) => {
                    return Ok(MutexGuard {
                        id: self.id,
                        inner: Some(p.into_inner()),
                    })
                }
                Err(TryLockError::WouldBlock) => {
                    if exec::modeled() {
                        // No yield between the failed try_lock and the
                        // block: execution is serialized, so the holder
                        // cannot release (and wake) in between — the
                        // wake is guaranteed to come after we block.
                        match exec::block_on(self.id, None) {
                            BlockResult::Aborted => {
                                panic!("mcheck: execution aborted while waiting for a lock")
                            }
                            _ => continue,
                        }
                    } else {
                        // Offline: a real contended lock — block for
                        // real.
                        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                        return Ok(MutexGuard {
                            id: self.id,
                            inner: Some(g),
                        });
                    }
                }
            }
        }
    }

    /// As `std`: attempts the lock without blocking.
    pub fn try_lock(&self) -> Result<MutexGuard<'_, T>, TryLockError<MutexGuard<'_, T>>> {
        exec::yield_point(op::LOCK_ACQUIRE, self.id, 1);
        match self.inner.try_lock() {
            Ok(g) => Ok(MutexGuard {
                id: self.id,
                inner: Some(g),
            }),
            Err(TryLockError::Poisoned(p)) => Ok(MutexGuard {
                id: self.id,
                inner: Some(p.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
        }
    }

    /// As `std`: mutable access implies exclusivity.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Guard for the instrumented [`Mutex`]; releasing it records the
/// unlock and wakes blocked lockers.
pub struct MutexGuard<'a, T: ?Sized> {
    id: ObjectId,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present until drop")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present until drop")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first so a woken task's try_lock can
        // succeed, then let the policy reschedule at the release.
        self.inner.take();
        exec::wake_key(self.id);
        exec::OFFLINE_WAITERS.notify(self.id);
        exec::yield_point(op::LOCK_RELEASE, self.id, 0);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// mpsc channels
// ---------------------------------------------------------------------------

/// Instrumented drop-in for `std::sync::mpsc` (the subset the serving
/// stack uses: `channel`, `sync_channel`, send / try_send / recv /
/// recv_timeout / try_recv, and drop-driven disconnection).
///
/// Error types are re-used from std — they are plain public structs,
/// so callers match on the exact same variants either way.
pub mod mpsc {
    use super::*;
    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

    struct Chan<T> {
        id: ObjectId,
        inner: StdMutex<ChanInner<T>>,
    }

    struct ChanInner<T> {
        queue: VecDeque<T>,
        /// `None` for the unbounded `channel()` flavor.
        cap: Option<usize>,
        senders: usize,
        receiver_alive: bool,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, ChanInner<T>> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Wakes modeled and offline waiters after a state change.
        fn notify(&self) {
            exec::wake_key(self.id);
            exec::OFFLINE_WAITERS.notify(self.id);
        }
    }

    /// Creates an unbounded channel, as `std::sync::mpsc::channel`.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            id: exec::new_object_id(),
            inner: StdMutex::new(ChanInner {
                queue: VecDeque::new(),
                cap: None,
                senders: 1,
                receiver_alive: true,
            }),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    /// Creates a bounded channel, as `std::sync::mpsc::sync_channel`.
    ///
    /// # Panics
    ///
    /// `bound == 0` (rendezvous channels) is not modeled — nothing in
    /// the workspace uses it.
    pub fn sync_channel<T>(bound: usize) -> (SyncSender<T>, Receiver<T>) {
        assert!(
            bound > 0,
            "mcheck mpsc shim: rendezvous channels (bound 0) not modeled"
        );
        let chan = Arc::new(Chan {
            id: exec::new_object_id(),
            inner: StdMutex::new(ChanInner {
                queue: VecDeque::new(),
                cap: Some(bound),
                senders: 1,
                receiver_alive: true,
            }),
        });
        (SyncSender(Arc::clone(&chan)), Receiver(chan))
    }

    /// Asynchronous (unbounded) sending half.
    pub struct Sender<T>(Arc<Chan<T>>);

    impl<T> Sender<T> {
        /// As `std`: queues `t`; fails only when the receiver is gone.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            {
                let mut inner = self.0.lock();
                if !inner.receiver_alive {
                    return Err(SendError(t));
                }
                inner.queue.push_back(t);
            }
            self.0.notify();
            exec::yield_point(op::CHAN_SEND, self.0.id, 0);
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            drop_sender(&self.0);
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Sender").finish_non_exhaustive()
        }
    }

    /// Bounded sending half.
    pub struct SyncSender<T>(Arc<Chan<T>>);

    impl<T> SyncSender<T> {
        /// As `std`: queues `t`, blocking while the buffer is full.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            let item = t;
            loop {
                {
                    let mut inner = self.0.lock();
                    if !inner.receiver_alive {
                        return Err(SendError(item));
                    }
                    let full = inner.cap.is_some_and(|c| inner.queue.len() >= c);
                    if !full {
                        inner.queue.push_back(item);
                        drop(inner);
                        self.0.notify();
                        exec::yield_point(op::CHAN_SEND, self.0.id, 0);
                        return Ok(());
                    }
                    if exec::modeled() {
                        drop(inner);
                        match exec::block_on(self.0.id, None) {
                            BlockResult::Aborted => return Err(SendError(item)),
                            _ => continue,
                        }
                    }
                    // Offline: wait on the channel's condvar; the wait
                    // releases the inner lock atomically, so no lost
                    // wakeup.
                    let cv = exec::OFFLINE_WAITERS.condvar(self.0.id);
                    let _g = cv.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
                // `item` is still ours; loop and retry.
                continue;
            }
        }

        /// As `std`: queues `t` without blocking.
        pub fn try_send(&self, t: T) -> Result<(), TrySendError<T>> {
            {
                let mut inner = self.0.lock();
                if !inner.receiver_alive {
                    return Err(TrySendError::Disconnected(t));
                }
                if inner.cap.is_some_and(|c| inner.queue.len() >= c) {
                    drop(inner);
                    exec::yield_point(op::CHAN_FULL, self.0.id, 0);
                    return Err(TrySendError::Full(t));
                }
                inner.queue.push_back(t);
            }
            self.0.notify();
            exec::yield_point(op::CHAN_SEND, self.0.id, 0);
            Ok(())
        }
    }

    impl<T> Clone for SyncSender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            SyncSender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for SyncSender<T> {
        fn drop(&mut self) {
            drop_sender(&self.0);
        }
    }

    impl<T> fmt::Debug for SyncSender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("SyncSender").finish_non_exhaustive()
        }
    }

    fn drop_sender<T>(chan: &Arc<Chan<T>>) {
        let last = {
            let mut inner = chan.lock();
            inner.senders -= 1;
            inner.senders == 0
        };
        if last {
            chan.notify();
            exec::yield_point(op::CHAN_CLOSED, chan.id, 0);
        }
    }

    /// Receiving half.
    pub struct Receiver<T>(Arc<Chan<T>>);

    impl<T> Receiver<T> {
        /// As `std`: blocks until a value or all senders gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            loop {
                let inner = self.0.lock();
                match self.take(inner) {
                    Poll::Ready(v) => return Ok(v),
                    Poll::Disconnected => return Err(RecvError),
                    Poll::Empty(guard) => {
                        if exec::modeled() {
                            drop(guard);
                            match exec::block_on(self.0.id, None) {
                                BlockResult::Aborted => return Err(RecvError),
                                _ => continue,
                            }
                        }
                        let cv = exec::OFFLINE_WAITERS.condvar(self.0.id);
                        let _g = cv.wait(guard).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        }

        /// As `std`: blocks up to `timeout`. A timeout consumes
        /// nothing — the value (if one arrives later) stays queued.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let offline_deadline = std::time::Instant::now() + timeout;
            loop {
                let inner = self.0.lock();
                match self.take(inner) {
                    Poll::Ready(v) => return Ok(v),
                    Poll::Disconnected => return Err(RecvTimeoutError::Disconnected),
                    Poll::Empty(guard) => {
                        if exec::modeled() {
                            drop(guard);
                            match exec::block_on(self.0.id, exec::deadline_after(timeout)) {
                                BlockResult::TimedOut => return Err(RecvTimeoutError::Timeout),
                                BlockResult::Aborted => return Err(RecvTimeoutError::Disconnected),
                                BlockResult::Woken => continue,
                            }
                        }
                        let remaining = offline_deadline
                            .checked_duration_since(std::time::Instant::now())
                            .unwrap_or(Duration::ZERO);
                        if remaining.is_zero() {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        // Timed-out or woken, the loop re-checks: the
                        // deadline math above reports Timeout.
                        let cv = exec::OFFLINE_WAITERS.condvar(self.0.id);
                        let _unused = cv
                            .wait_timeout(guard, remaining)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        }

        /// As `std`: non-blocking poll.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let inner = self.0.lock();
            match self.take(inner) {
                Poll::Ready(v) => Ok(v),
                Poll::Disconnected => Err(TryRecvError::Disconnected),
                Poll::Empty(guard) => {
                    drop(guard);
                    exec::yield_point(op::CHAN_EMPTY, self.0.id, 0);
                    Err(TryRecvError::Empty)
                }
            }
        }

        /// As `std`: a blocking iterator that ends when every sender is
        /// gone.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// As [`std::sync::mpsc::Iter`]: each `next` is a blocking `recv`.
    #[derive(Debug)]
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> Receiver<T> {
        /// One locked poll step shared by the recv flavors.
        fn take<'g>(&self, mut guard: std::sync::MutexGuard<'g, ChanInner<T>>) -> Poll<'g, T> {
            if let Some(v) = guard.queue.pop_front() {
                drop(guard);
                // A pop frees bounded capacity: wake blocked senders.
                self.0.notify();
                exec::yield_point(op::CHAN_RECV, self.0.id, 0);
                return Poll::Ready(v);
            }
            if guard.senders == 0 {
                return Poll::Disconnected;
            }
            Poll::Empty(guard)
        }
    }

    enum Poll<'g, T> {
        Ready(T),
        Disconnected,
        Empty(std::sync::MutexGuard<'g, ChanInner<T>>),
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // Take the queue out under the lock and drop it after the
            // lock is released: a queued value's own `Drop` may send
            // (a job answering its completion sink), and a send is a
            // yield point that must not run while this channel's mutex
            // is held.
            let orphans = {
                let mut inner = self.0.lock();
                inner.receiver_alive = false;
                std::mem::take(&mut inner.queue)
            };
            drop(orphans);
            self.0.notify();
            exec::yield_point(op::CHAN_CLOSED, self.0.id, 1);
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Receiver").finish_non_exhaustive()
        }
    }
}

// ---------------------------------------------------------------------------
// thread
// ---------------------------------------------------------------------------

/// Instrumented drop-in for `std::thread`. Spawned closures still run
/// on real OS threads, but execution is serialized by the controller's
/// baton; `sleep` advances the virtual clock instead of stalling, and
/// park/unpark/join are modeled waits.
pub mod thread {
    use super::*;
    pub use std::thread::Result;

    /// As `std::thread::Builder` (only `name` is supported — the
    /// stack size knob is unused in this workspace).
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// Creates a builder.
        pub fn new() -> Builder {
            Builder::default()
        }

        /// Names the thread-to-be.
        pub fn name(mut self, name: String) -> Builder {
            self.name = Some(name);
            self
        }

        /// Spawns the thread, registering it as a modeled task when an
        /// execution is active.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let task = exec::register_task();
            let mut builder = std::thread::Builder::new();
            if let Some(name) = self.name {
                builder = builder.name(name);
            }
            let inner = builder.spawn(move || {
                if let Some(id) = task {
                    exec::enter_task(id);
                }
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                if task.is_some() {
                    exec::exit_task();
                }
                match result {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            })?;
            let thread = Thread {
                task,
                inner: inner.thread().clone(),
            };
            Ok(JoinHandle {
                task,
                thread,
                inner,
            })
        }
    }

    /// As `std::thread::spawn`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }

    /// As `std::thread::JoinHandle`.
    pub struct JoinHandle<T> {
        task: Option<exec::TaskId>,
        thread: Thread,
        inner: std::thread::JoinHandle<T>,
    }

    impl<T> JoinHandle<T> {
        /// As `std`: waits for the thread to finish, returning its
        /// result (or the panic payload).
        pub fn join(self) -> Result<T> {
            if let Some(id) = self.task {
                exec::yield_point(op::JOIN, exec::join_key(id), id as u64);
                while !exec::task_finished(id) {
                    match exec::block_on(exec::join_key(id), None) {
                        BlockResult::Aborted => break,
                        _ => continue,
                    }
                }
            }
            // The modeled task has exited (or the run aborted and the
            // target is unwinding); the real join is then prompt.
            self.inner.join()
        }

        /// As `std`: whether the thread has finished.
        pub fn is_finished(&self) -> bool {
            match self.task {
                Some(id) => exec::task_finished(id),
                None => self.inner.is_finished(),
            }
        }

        /// As `std`: a handle to the underlying thread.
        pub fn thread(&self) -> &Thread {
            &self.thread
        }
    }

    impl<T> fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("JoinHandle").finish_non_exhaustive()
        }
    }

    /// As `std::thread::Thread` (name + unpark).
    #[derive(Debug, Clone)]
    pub struct Thread {
        task: Option<exec::TaskId>,
        inner: std::thread::Thread,
    }

    impl Thread {
        /// As `std`: the thread's name.
        pub fn name(&self) -> Option<&str> {
            self.inner.name()
        }

        /// As `std`: makes a pending or future `park` on this thread
        /// return.
        pub fn unpark(&self) {
            match self.task {
                Some(id) => exec::set_park_token(id),
                None => self.inner.unpark(),
            }
        }
    }

    /// As `std::thread::current`.
    pub fn current() -> Thread {
        Thread {
            task: exec::current_task_id(),
            inner: std::thread::current(),
        }
    }

    /// As `std::thread::park`. Modeled: consumes a pending unpark
    /// token or blocks until one is set.
    pub fn park() {
        match exec::current_task_id() {
            Some(id) => {
                exec::yield_point(op::PARK, exec::park_key(id), 0);
                if exec::take_park_token() {
                    return;
                }
                let _ = exec::block_on(exec::park_key(id), None);
                let _ = exec::take_park_token();
            }
            None => std::thread::park(),
        }
    }

    /// As `std::thread::park_timeout`. Modeled: the policy may fire
    /// the timeout at any yield (virtual clock jumps to the deadline).
    pub fn park_timeout(dur: Duration) {
        match exec::current_task_id() {
            Some(id) => {
                exec::yield_point(
                    op::PARK,
                    exec::park_key(id),
                    dur.as_nanos().min(u64::MAX as u128) as u64,
                );
                if exec::take_park_token() {
                    return;
                }
                let _ = exec::block_on(exec::park_key(id), exec::deadline_after(dur));
                let _ = exec::take_park_token();
            }
            None => std::thread::park_timeout(dur),
        }
    }

    /// As `std::thread::sleep`. Modeled: advances the virtual clock —
    /// never stalls the exploration.
    pub fn sleep(dur: Duration) {
        if exec::modeled() {
            let nanos = dur.as_nanos().min(u64::MAX as u128) as u64;
            exec::advance_clock(nanos);
            exec::yield_point(op::SLEEP, 0, nanos);
        } else {
            std::thread::sleep(dur);
        }
    }

    /// As `std::thread::yield_now`. Modeled: a pure scheduling point.
    pub fn yield_now() {
        if exec::modeled() {
            exec::yield_point(op::YIELD, 0, 0);
        } else {
            std::thread::yield_now();
        }
    }
}

// ---------------------------------------------------------------------------
// time
// ---------------------------------------------------------------------------

/// Virtualized time (`cfg(mcheck)` only): `Instant` reads the
/// execution's logical clock, so traces — and every latency-derived
/// branch in the code under test — are deterministic and replayable.
pub mod time {
    use super::*;
    pub use std::time::Duration;

    /// Drop-in for `std::time::Instant` over the virtual clock.
    /// Outside an execution it falls back to real monotonic time, so
    /// plain tests behave normally.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct Instant {
        nanos: u64,
    }

    impl Instant {
        /// The current (virtual or real) monotonic time.
        pub fn now() -> Instant {
            Instant {
                nanos: exec::now_nanos(),
            }
        }

        /// As `std`: time since `earlier` (saturating to zero).
        pub fn duration_since(&self, earlier: Instant) -> Duration {
            Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
        }

        /// As `std`: `None` when `earlier` is in the future.
        pub fn checked_duration_since(&self, earlier: Instant) -> Option<Duration> {
            self.nanos
                .checked_sub(earlier.nanos)
                .map(Duration::from_nanos)
        }

        /// As `std`: saturating variant.
        pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
            self.duration_since(earlier)
        }

        /// As `std`: time since this instant.
        pub fn elapsed(&self) -> Duration {
            Instant::now().duration_since(*self)
        }

        /// As `std`: checked forward shift.
        pub fn checked_add(&self, duration: Duration) -> Option<Instant> {
            let nanos = u64::try_from(duration.as_nanos()).ok()?;
            self.nanos.checked_add(nanos).map(|nanos| Instant { nanos })
        }

        /// As `std`: checked backward shift.
        pub fn checked_sub(&self, duration: Duration) -> Option<Instant> {
            let nanos = u64::try_from(duration.as_nanos()).ok()?;
            self.nanos.checked_sub(nanos).map(|nanos| Instant { nanos })
        }
    }

    impl std::ops::Add<Duration> for Instant {
        type Output = Instant;
        fn add(self, rhs: Duration) -> Instant {
            self.checked_add(rhs)
                .expect("overflow when adding duration to instant")
        }
    }

    impl std::ops::AddAssign<Duration> for Instant {
        fn add_assign(&mut self, rhs: Duration) {
            *self = *self + rhs;
        }
    }

    impl std::ops::Sub<Duration> for Instant {
        type Output = Instant;
        fn sub(self, rhs: Duration) -> Instant {
            self.checked_sub(rhs)
                .expect("overflow when subtracting duration from instant")
        }
    }

    impl std::ops::Sub<Instant> for Instant {
        type Output = Duration;
        fn sub(self, rhs: Instant) -> Duration {
            self.duration_since(rhs)
        }
    }
}
