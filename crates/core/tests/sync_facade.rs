//! Façade ≡ std parity.
//!
//! `magnon_core::sync` must behave exactly like the `std` primitives it
//! stands in for. This suite runs under BOTH configurations: in a
//! normal build it exercises the plain re-exports, and under
//! `RUSTFLAGS="--cfg mcheck"` it exercises the shims' *offline* mode
//! (no execution active), which must still be a faithful drop-in —
//! crates port to the façade unconditionally, so any divergence here is
//! a production behavior change, not just a modeling artifact.

use magnon_core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use magnon_core::sync::time::{Duration, Instant};
use magnon_core::sync::{mpsc, thread, Arc, Mutex};

#[test]
fn atomics_match_std_semantics() {
    let a = AtomicU64::new(5);
    assert_eq!(a.load(Ordering::SeqCst), 5);
    a.store(7, Ordering::SeqCst);
    assert_eq!(a.swap(9, Ordering::SeqCst), 7);
    assert_eq!(a.fetch_add(1, Ordering::SeqCst), 9);
    assert_eq!(a.fetch_sub(4, Ordering::SeqCst), 10);
    assert_eq!(a.fetch_max(100, Ordering::SeqCst), 6);
    assert_eq!(a.fetch_min(3, Ordering::SeqCst), 100);
    assert_eq!(
        a.compare_exchange(3, 42, Ordering::SeqCst, Ordering::SeqCst),
        Ok(3)
    );
    assert_eq!(
        a.compare_exchange(3, 50, Ordering::SeqCst, Ordering::SeqCst),
        Err(42)
    );
    assert_eq!(a.into_inner(), 42);

    let mut b = AtomicUsize::new(0);
    *b.get_mut() = 11;
    assert_eq!(b.load(Ordering::Relaxed), 11);

    let flag = AtomicBool::new(false);
    assert!(!flag.swap(true, Ordering::AcqRel));
    assert!(flag.load(Ordering::Acquire));
}

#[test]
fn mutex_matches_std_semantics() {
    let m = Mutex::new(1);
    {
        let mut guard = m.lock().unwrap();
        *guard += 1;
        // Held ⇒ try_lock fails without blocking.
        assert!(m.try_lock().is_err());
    }
    assert_eq!(*m.try_lock().unwrap(), 2);
    assert_eq!(m.into_inner().unwrap(), 2);

    let mut m = Mutex::new(7);
    *m.get_mut().unwrap() = 8;
    assert_eq!(*m.lock().unwrap(), 8);
}

#[test]
fn channels_match_std_semantics() {
    // Unbounded: send/recv/try_recv, then disconnect errors.
    let (tx, rx) = mpsc::channel();
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    assert_eq!(rx.recv().unwrap(), 1);
    assert_eq!(rx.try_recv().unwrap(), 2);
    assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Empty));
    drop(tx);
    assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    assert_eq!(rx.recv(), Err(mpsc::RecvError));

    // Bounded: try_send reports Full with the value given back.
    let (tx, rx) = mpsc::sync_channel(1);
    tx.try_send(10).unwrap();
    assert_eq!(tx.try_send(11), Err(mpsc::TrySendError::Full(11)));
    assert_eq!(rx.recv().unwrap(), 10);
    tx.send(12).unwrap();
    drop(rx);
    assert!(matches!(
        tx.try_send(13),
        Err(mpsc::TrySendError::Disconnected(13))
    ));

    // recv_timeout: delivered value wins, an empty closed channel is
    // Disconnected, an empty open channel times out.
    let (tx, rx) = mpsc::channel();
    tx.send(5).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_millis(100)).unwrap(), 5);
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(1)),
        Err(mpsc::RecvTimeoutError::Timeout)
    );
    drop(tx);
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(1)),
        Err(mpsc::RecvTimeoutError::Disconnected)
    );
}

#[test]
fn channel_delivers_across_threads() {
    let (tx, rx) = mpsc::sync_channel(2);
    let producer = thread::spawn(move || {
        for i in 0..16u64 {
            tx.send(i).unwrap();
        }
    });
    let got: Vec<u64> = rx.iter().collect();
    producer.join().unwrap();
    assert_eq!(got, (0..16).collect::<Vec<_>>());
}

#[test]
fn threads_match_std_semantics() {
    let shared = Arc::new(AtomicU64::new(0));
    let worker = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("facade-parity".into())
            .spawn(move || {
                shared.fetch_add(3, Ordering::SeqCst);
                thread::current().name().map(str::to_owned)
            })
            .unwrap()
    };
    let name = worker.join().unwrap();
    assert_eq!(name.as_deref(), Some("facade-parity"));
    assert_eq!(shared.load(Ordering::SeqCst), 3);

    // A pre-delivered unpark token makes the next park return at once
    // (the std park contract this crate's executor relies on).
    thread::current().unpark();
    thread::park();

    // park_timeout returns after the deadline with no token pending.
    thread::park_timeout(Duration::from_millis(1));
    thread::sleep(Duration::from_millis(1));
    thread::yield_now();
}

#[test]
fn mutex_serializes_across_threads() {
    let m = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                for _ in 0..50 {
                    *m.lock().unwrap() += 1;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*m.lock().unwrap(), 200);
}

#[test]
fn instants_are_monotonic() {
    let t0 = Instant::now();
    let t1 = Instant::now();
    assert!(t1 >= t0);
    assert_eq!(
        t0.duration_since(t1.max(t0) + Duration::from_secs(1)),
        Duration::ZERO
    );
    let later = t0 + Duration::from_millis(5);
    assert_eq!(later.duration_since(t0), Duration::from_millis(5));
    assert_eq!(later - t0, Duration::from_millis(5));
    assert!(t0.checked_duration_since(later).is_none());
    assert_eq!(later.checked_sub(Duration::from_millis(5)), Some(t0));
    let _ = t0.elapsed();
}

/// Outside `mcheck` every façade path must *be* the `std` type, not a
/// look-alike: a shim compiled into a default build would put an
/// instrumentation layer on every serving hot path.
#[cfg(not(mcheck))]
#[test]
fn facade_types_are_the_std_types_outside_mcheck() {
    use std::any::{type_name, TypeId};

    fn assert_same<Facade: 'static, Std: 'static>() {
        assert!(
            TypeId::of::<Facade>() == TypeId::of::<Std>(),
            "{} is not {}",
            type_name::<Facade>(),
            type_name::<Std>()
        );
    }

    assert_same::<Mutex<u8>, std::sync::Mutex<u8>>();
    assert_same::<magnon_core::sync::MutexGuard<'static, u8>, std::sync::MutexGuard<'static, u8>>();
    assert_same::<AtomicU64, std::sync::atomic::AtomicU64>();
    assert_same::<AtomicUsize, std::sync::atomic::AtomicUsize>();
    assert_same::<AtomicBool, std::sync::atomic::AtomicBool>();
    assert_same::<mpsc::Sender<u8>, std::sync::mpsc::Sender<u8>>();
    assert_same::<mpsc::SyncSender<u8>, std::sync::mpsc::SyncSender<u8>>();
    assert_same::<mpsc::Receiver<u8>, std::sync::mpsc::Receiver<u8>>();
    assert_same::<thread::JoinHandle<u8>, std::thread::JoinHandle<u8>>();
    assert_same::<thread::Builder, std::thread::Builder>();
    assert_same::<Instant, std::time::Instant>();
    assert_same::<Duration, std::time::Duration>();
}
