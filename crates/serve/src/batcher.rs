//! The dynamic batcher: one thread assembling per-layer batches.
//!
//! ## State machine
//!
//! The batcher owns the request queue's receiving end and a map of
//! per-layer *lanes* (pending requests + the time the lane started
//! forming). Each loop iteration:
//!
//! 1. **Flush expired lanes** — any lane that has been forming for
//!    `max_wait` is dispatched (cause `Deadline`). Doing this *before*
//!    blocking guarantees deadline dispatch even under continuous load,
//!    where `recv` would otherwise always return a message first. The
//!    deadline counts from lane formation, not request submission, so a
//!    backlog in the request queue cannot pre-expire every batch.
//! 2. **Wait** — block on the queue until the earliest lane deadline
//!    (or indefinitely if nothing is pending).
//! 3. **Handle** — a new request joins its lane; a lane reaching
//!    `max_batch` dispatches immediately (cause `Full`). Everything
//!    already waiting in the queue is drained greedily before deadlines
//!    are re-checked, so lanes fill to `max_batch` under backlog. The
//!    `Shutdown` sentinel drains whatever raced into the queue behind
//!    it, flushes all lanes (cause `Drain`), and exits. A disconnected
//!    queue (every sender dropped) behaves like `Shutdown`.
//!
//! Dispatch sends the batch over a bounded channel to the worker pool;
//! when workers lag, that send blocks and the backpressure propagates
//! naturally to the request queue and from there to `submit` callers.

use crate::request::Request;
use crate::stats::{DispatchCause, StatsCore};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What travels through the request queue.
#[derive(Debug)]
pub(crate) enum Msg {
    /// An accepted, validated request.
    Request(Request),
    /// Shutdown sentinel: drain and exit.
    Shutdown,
}

/// A dispatched unit of work: all requests share one layer and execute as
/// one `matvec_batch_into` call.
#[derive(Debug)]
pub(crate) struct Batch {
    pub(crate) layer: String,
    pub(crate) requests: Vec<Request>,
}

/// Pending requests for one layer.
struct Lane {
    requests: Vec<Request>,
    /// When the lane started forming (first request entered an empty
    /// lane). The `max_wait` deadline counts from here, *not* from the
    /// request's submit time: under backlog the queue wait alone exceeds
    /// any reasonable `max_wait`, and a submit-time deadline would arrive
    /// pre-expired and degenerate every batch to size 1.
    formed_at: Instant,
}

struct Batcher {
    lanes: HashMap<String, Lane>,
    batch_tx: SyncSender<Batch>,
    max_batch: usize,
    max_wait: Duration,
    stats: Arc<StatsCore>,
}

impl Batcher {
    fn enqueue(&mut self, req: Request) {
        let name = req.layer.clone();
        let lane = self.lanes.entry(name.clone()).or_insert_with(|| Lane {
            requests: Vec::new(),
            formed_at: Instant::now(),
        });
        if lane.requests.is_empty() {
            lane.formed_at = Instant::now();
        }
        lane.requests.push(req);
        if lane.requests.len() >= self.max_batch {
            self.dispatch(&name, DispatchCause::Full);
        }
    }

    fn dispatch(&mut self, layer: &str, cause: DispatchCause) {
        if let Some(lane) = self.lanes.remove(layer) {
            self.stats.record_dispatch(lane.requests.len(), cause);
            // A failed send (worker channel torn down) drops the batch;
            // each Request's Drop then answers ShuttingDown, so no caller
            // hangs.
            let _ = self.batch_tx.send(Batch {
                layer: layer.to_string(),
                requests: lane.requests,
            });
        }
    }

    /// Flushes every lane that has been forming for at least `max_wait`.
    fn flush_expired(&mut self, now: Instant) {
        let expired: Vec<String> = self
            .lanes
            .iter()
            .filter(|(_, l)| now.duration_since(l.formed_at) >= self.max_wait)
            .map(|(k, _)| k.clone())
            .collect();
        for layer in expired {
            self.dispatch(&layer, DispatchCause::Deadline);
        }
    }

    fn flush_all(&mut self, cause: DispatchCause) {
        let all: Vec<String> = self.lanes.keys().cloned().collect();
        for layer in all {
            self.dispatch(&layer, cause);
        }
    }

    /// Earliest `formed_at + max_wait` over all lanes.
    fn next_deadline(&self) -> Option<Instant> {
        self.lanes
            .values()
            .map(|l| l.formed_at + self.max_wait)
            .min()
    }
}

/// Batcher thread body. Runs until the `Shutdown` sentinel arrives or
/// every queue sender is dropped; either way all pending work is flushed
/// to the workers before returning (graceful drain).
pub(crate) fn run_batcher(
    req_rx: Receiver<Msg>,
    batch_tx: SyncSender<Batch>,
    max_batch: usize,
    max_wait: Duration,
    stats: Arc<StatsCore>,
) {
    let mut b = Batcher {
        lanes: HashMap::new(),
        batch_tx,
        max_batch,
        max_wait,
        stats,
    };
    loop {
        b.flush_expired(Instant::now());
        let msg = match b.next_deadline() {
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                match req_rx.recv_timeout(wait) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => continue, // flush at loop top
                    Err(RecvTimeoutError::Disconnected) => Msg::Shutdown,
                }
            }
            None => match req_rx.recv() {
                Ok(m) => m,
                Err(_) => Msg::Shutdown,
            },
        };
        // Greedily drain everything already waiting in the queue before
        // re-checking deadlines: under backlog this is what lets lanes
        // actually fill to `max_batch` instead of flushing one request
        // per loop iteration.
        let mut next = Some(msg);
        while let Some(m) = next.take() {
            match m {
                Msg::Request(req) => {
                    b.enqueue(req);
                    next = req_rx.try_recv().ok();
                }
                Msg::Shutdown => {
                    // Requests that raced into the queue behind the
                    // sentinel are still honoured.
                    while let Ok(m) = req_rx.try_recv() {
                        if let Msg::Request(req) = m {
                            b.enqueue(req);
                        }
                    }
                    b.flush_all(DispatchCause::Drain);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    fn mk_request(layer: &str, stats: &Arc<StatsCore>) -> Request {
        let (req, ticket) = Request::new(layer.into(), vec![0.0], Arc::clone(stats));
        std::mem::forget(ticket); // tests only observe batches, not responses
        req
    }

    fn spawn_batcher(
        max_batch: usize,
        max_wait: Duration,
        stats: Arc<StatsCore>,
    ) -> (
        SyncSender<Msg>,
        Receiver<Batch>,
        std::thread::JoinHandle<()>,
    ) {
        let (req_tx, req_rx) = sync_channel(64);
        let (batch_tx, batch_rx) = sync_channel(64);
        let handle =
            std::thread::spawn(move || run_batcher(req_rx, batch_tx, max_batch, max_wait, stats));
        (req_tx, batch_rx, handle)
    }

    #[test]
    fn full_batch_dispatches_without_waiting() {
        let stats = Arc::new(StatsCore::new());
        let (tx, rx, handle) = spawn_batcher(3, Duration::from_secs(60), Arc::clone(&stats));
        for _ in 0..3 {
            tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        }
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.layer, "fc");
        assert_eq!(batch.requests.len(), 3);
        tx.send(Msg::Shutdown).unwrap();
        handle.join().unwrap();
        let s = stats.snapshot();
        assert_eq!((s.batches, s.full_batches), (1, 1));
    }

    #[test]
    fn deadline_dispatches_partial_batch() {
        let stats = Arc::new(StatsCore::new());
        let (tx, rx, handle) = spawn_batcher(64, Duration::from_millis(5), Arc::clone(&stats));
        tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.requests.len(), 1);
        tx.send(Msg::Shutdown).unwrap();
        handle.join().unwrap();
        assert_eq!(stats.snapshot().deadline_batches, 1);
    }

    #[test]
    fn layers_batch_independently() {
        let stats = Arc::new(StatsCore::new());
        let (tx, rx, handle) = spawn_batcher(2, Duration::from_secs(60), Arc::clone(&stats));
        tx.send(Msg::Request(mk_request("a", &stats))).unwrap();
        tx.send(Msg::Request(mk_request("b", &stats))).unwrap();
        tx.send(Msg::Request(mk_request("a", &stats))).unwrap();
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.layer, "a");
        assert_eq!(batch.requests.len(), 2);
        // "b" is still pending; shutdown drains it.
        tx.send(Msg::Shutdown).unwrap();
        let drained = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(drained.layer, "b");
        assert_eq!(drained.requests.len(), 1);
        handle.join().unwrap();
        assert_eq!(stats.snapshot().drain_batches, 1);
    }

    #[test]
    fn disconnect_acts_as_shutdown() {
        let stats = Arc::new(StatsCore::new());
        let (tx, rx, handle) = spawn_batcher(8, Duration::from_secs(60), Arc::clone(&stats));
        tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        drop(tx);
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.requests.len(), 1);
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_honours_racing_requests_behind_sentinel() {
        let stats = Arc::new(StatsCore::new());
        let (req_tx, req_rx) = sync_channel(64);
        let (batch_tx, batch_rx) = sync_channel(64);
        // Enqueue request, sentinel, request *before* the batcher runs.
        req_tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        req_tx.send(Msg::Shutdown).unwrap();
        req_tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        let stats2 = Arc::clone(&stats);
        let handle = std::thread::spawn(move || {
            run_batcher(req_rx, batch_tx, 64, Duration::from_secs(60), stats2)
        });
        let batch = batch_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            batch.requests.len(),
            2,
            "the post-sentinel request is honoured"
        );
        handle.join().unwrap();
    }
}
