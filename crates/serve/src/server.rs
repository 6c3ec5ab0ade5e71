//! The accept loop, its pool of connection handlers, and the
//! graceful-shutdown lifecycle.
//!
//! **Threads.** The accept loop hands each connection to a pooled
//! handler thread, which reads one request, answers it and then waits
//! for the next connection instead of exiting. The pool starts empty:
//! a handler is spawned only when a connection arrives and none is
//! idle, so binding and starting a server spawn nothing. At most
//! [`MAX_HANDLERS`] handlers live at once. A connection that arrives
//! while every one of them is busy is answered by the accept loop
//! itself with a complete `503 Service Unavailable` and `Retry-After`,
//! never a reset; that answer holds the accept loop for at most
//! [`LINGER`]. A `/query` that will simulate (its scenario has no cache
//! entry) runs on a thread spawned for it, so overlapping cold queries
//! spread over the cores; warm ones stay on the handler. Simulation
//! parallelism is bounded separately, by the advisor's worker pool.
//!
//! **Shutdown** is cooperative: `POST /shutdown` (or
//! [`Server::shutdown_signal`]) flips a flag, a self-connect unblocks
//! the blocking `accept`, and the loop then drains: idle handlers wake
//! and exit, busy ones finish their request first, and [`Server::run`]
//! returns once every handler thread is joined. A failing `accept`
//! (e.g. EMFILE when file descriptors run out) backs off with a bounded
//! doubling sleep rather than spinning.

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use heb_telemetry::{Counter, Gauge};

use crate::http::{linger_close, read_request, write_response, HttpError, HttpRequest};
use crate::service::{Advisor, Answer};

/// Most connection handlers alive at once.
///
/// A handler is busy for one request. A warm answer takes tens of
/// microseconds and a cold one waits for one of the advisor's workers
/// (two by default), so on a small host a handful of handlers already
/// saturates the service and more would only queue. The bound leaves
/// room above that for what holds a handler without using a core:
/// followers waiting on one slow flight, and slow clients, each of
/// which can hold a handler for
/// [`READ_TIMEOUT`](crate::http::READ_TIMEOUT) per read. 64 handlers
/// reserve 128 MiB of stack address space (2 MiB each, a few pages of
/// it resident) and hold 64 sockets, far below a default
/// 1,024-descriptor limit, so overload ends in 503s rather than in
/// `accept` failing for want of descriptors.
pub const MAX_HANDLERS: usize = 64;

/// Longest an error answer waits for its client to finish sending and
/// close ([`linger_close`]): the accept loop's bound per shed
/// connection, and a handler's after a `400`.
const LINGER: Duration = Duration::from_millis(100);

/// Most `/query` body hashes the pool remembers (8 bytes each, plus
/// the tree's overhead); it forgets them all when full, which only
/// sends repeats through the advisor's check again.
const ANSWERED_CAPACITY: usize = 16_384;

/// Body of the `503` a shed connection gets.
const BUSY_BODY: &str = "{\"error\":\"server busy, retry later\"}";

/// The connection-handler pool, and what every handler needs to answer.
struct Pool {
    advisor: Arc<Advisor>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    state: Mutex<PoolState>,
    /// Hashes of the `/query` bodies answered with a cached report.
    answered: Mutex<BTreeSet<u64>>,
    spawned: Arc<Counter>,
    shed: Arc<Counter>,
    live_gauge: Arc<Gauge>,
    idle_gauge: Arc<Gauge>,
}

#[derive(Default)]
struct PoolState {
    /// One hand-off channel per idle handler, the most recently idle
    /// last. The accept loop hands a connection to that one: handing
    /// it to the longest idle instead measured slower on warm and cold
    /// `serve_mix` queries alike (EXPERIMENTS, "Connection-handler
    /// pool").
    idle: Vec<Sender<TcpStream>>,
    /// Handler threads alive.
    live: usize,
    /// Set once the accept loop has stopped: idle handlers exit.
    closing: bool,
}

/// Where the accept loop sends a connection.
enum Admission {
    /// Handed to an idle handler.
    HandedOff,
    /// No handler is idle and the pool has room: spawn one for it.
    Spawn(TcpStream),
    /// Every handler is busy: answer `503`.
    Shed(TcpStream),
}

impl Pool {
    fn new(advisor: Arc<Advisor>, stop: Arc<AtomicBool>, addr: SocketAddr) -> Self {
        let metrics = advisor.metrics();
        let pool = Self {
            spawned: metrics.counter("serve.handlers.spawned"),
            shed: metrics.counter("serve.connections.shed"),
            live_gauge: metrics.gauge("serve.handlers.live"),
            idle_gauge: metrics.gauge("serve.handlers.idle"),
            advisor,
            stop,
            addr,
            state: Mutex::new(PoolState::default()),
            answered: Mutex::new(BTreeSet::new()),
        };
        pool.publish(&PoolState::default());
        pool
    }

    /// The state, recovered after a poisoning panic: every update
    /// below leaves it whole.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish(&self, state: &PoolState) {
        self.live_gauge.set(state.live as f64);
        self.idle_gauge.set(state.idle.len() as f64);
    }

    fn admit(&self, stream: TcpStream) -> Admission {
        let mut state = self.lock();
        let admission = if let Some(handler) = state.idle.pop() {
            // An idle handler waits on its receiver until this send or
            // `close`, so the send does not fail.
            let _ = handler.send(stream);
            Admission::HandedOff
        } else if state.live < MAX_HANDLERS {
            state.live += 1;
            self.spawned.increment();
            Admission::Spawn(stream)
        } else {
            self.shed.increment();
            Admission::Shed(stream)
        };
        self.publish(&state);
        admission
    }

    /// Undoes the `live` count of an [`Admission::Spawn`] whose thread
    /// never started, or that has exited.
    fn retire(&self) {
        let mut state = self.lock();
        state.live = state.live.saturating_sub(1);
        self.publish(&state);
    }

    /// A handler's loop: answers `stream`, then each connection handed
    /// to it, until shutdown.
    fn serve(&self, mut stream: TcpStream) {
        /// Retires the handler however its thread ends, a panic
        /// included, so the bound keeps counting only live threads.
        struct Live<'a>(&'a Pool);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.retire();
            }
        }
        let _live = Live(self);
        loop {
            handle_connection(stream, self);
            match self.next_connection() {
                Some(next) => stream = next,
                None => return,
            }
        }
    }

    /// Waits idle for a handed-off connection; `None` at shutdown.
    fn next_connection(&self) -> Option<TcpStream> {
        let (sender, receiver) = channel();
        {
            let mut state = self.lock();
            if state.closing {
                return None;
            }
            state.idle.push(sender);
            self.publish(&state);
        }
        // `close` drops the sender, which ends the wait.
        receiver.recv().ok()
    }

    /// Answers a `/query`. One that will simulate runs on a thread
    /// spawned for it while the handler waits. The scheduler puts a new
    /// thread on the least-loaded core, but a woken handler can land
    /// beside a simulation already running, and two overlapping cold
    /// queries then share one core (EXPERIMENTS, "Connection-handler
    /// pool"). A body answered before replays the cache, so it skips
    /// even the advisor's cheap check and stays on the handler.
    fn query(&self, body: &str) -> Answer {
        let mut hasher = DefaultHasher::new();
        body.hash(&mut hasher);
        let key = hasher.finish();
        let answered = || self.answered.lock().unwrap_or_else(PoisonError::into_inner);
        let answer = if answered().contains(&key) || !self.advisor.will_simulate(body) {
            self.advisor.query(body)
        } else {
            std::thread::scope(|scope| {
                match std::thread::Builder::new().spawn_scoped(scope, || self.advisor.query(body)) {
                    Ok(thread) => thread.join().unwrap_or_else(|_| Answer {
                        status: 500,
                        body: "{\"error\":\"query thread panicked\"}".to_string(),
                    }),
                    Err(_) => self.advisor.query(body),
                }
            })
        };
        // Without a cache every query simulates, so nothing is remembered.
        if answer.status == 200 && self.advisor.engine().cache().is_some() {
            let mut answered = answered();
            if answered.len() >= ANSWERED_CAPACITY {
                answered.clear();
            }
            answered.insert(key);
        }
        answer
    }

    /// Stops the pool: idle handlers exit, busy ones after their
    /// request. Returns how many were busy.
    fn close(&self) -> usize {
        let mut state = self.lock();
        state.closing = true;
        let busy = state.live.saturating_sub(state.idle.len());
        state.idle.clear();
        self.publish(&state);
        busy
    }
}

/// Answers a connection the pool has no room for with a complete `503`.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(LINGER));
    if write_response(&mut stream, 503, BUSY_BODY).is_ok() {
        linger_close(&mut stream, LINGER);
    }
}

/// First sleep after a failed `accept`.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
/// Longest sleep between consecutive failed `accept`s.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// Sleep schedule after failed `accept`s: doubles from
/// [`ACCEPT_BACKOFF_MIN`] up to [`ACCEPT_BACKOFF_MAX`], and starts over
/// after a success.
#[derive(Debug, Default)]
struct AcceptBackoff {
    next: Option<Duration>,
}

impl AcceptBackoff {
    /// The sleep for this failure; the next one sleeps twice as long.
    fn failed(&mut self) -> Duration {
        let delay = self.next.unwrap_or(ACCEPT_BACKOFF_MIN);
        self.next = Some((delay * 2).min(ACCEPT_BACKOFF_MAX));
        delay
    }

    fn succeeded(&mut self) {
        self.next = None;
    }
}

/// A bound, not-yet-running capacity-advisor server.
pub struct Server {
    advisor: Arc<Advisor>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
}

/// A handle that can stop a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ShutdownSignal {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownSignal {
    /// Requests shutdown and unblocks the accept loop.
    pub fn trigger(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept call is blocking; a throwaway connection wakes it
        // so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, advisor: Arc<Advisor>) -> std::io::Result<Self> {
        Ok(Self {
            advisor,
            listener: TcpListener::bind(addr)?,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from another thread.
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn shutdown_signal(&self) -> std::io::Result<ShutdownSignal> {
        Ok(ShutdownSignal {
            stop: Arc::clone(&self.stop),
            addr: self.addr()?,
        })
    }

    /// Serves until shutdown is requested, then drains the handler
    /// pool and returns once every handler thread is joined. Handlers
    /// never take the server down: a failed read answers 400 (when the
    /// socket still works) and moves on.
    ///
    /// # Errors
    ///
    /// Only setup failures (socket introspection); per-connection
    /// errors are absorbed.
    pub fn run(self) -> std::io::Result<()> {
        let pool = Arc::new(Pool::new(
            Arc::clone(&self.advisor),
            Arc::clone(&self.stop),
            self.addr()?,
        ));
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        let mut backoff = AcceptBackoff::default();
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => {
                    backoff.succeeded();
                    accepted
                }
                Err(_) => {
                    self.advisor
                        .metrics()
                        .counter("serve.accept.errors")
                        .increment();
                    std::thread::sleep(backoff.failed());
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match pool.admit(stream) {
                Admission::HandedOff => {}
                Admission::Spawn(stream) => {
                    // A second descriptor for the socket, so it can
                    // still be shed if the thread cannot start.
                    let spare = stream.try_clone();
                    let handler = Arc::clone(&pool);
                    match std::thread::Builder::new()
                        .name("heb-serve-conn".into())
                        .spawn(move || handler.serve(stream))
                    {
                        Ok(thread) => handlers.push(thread),
                        Err(_) => {
                            pool.retire();
                            pool.shed.increment();
                            if let Ok(spare) = spare {
                                shed(spare);
                            }
                        }
                    }
                }
                Admission::Shed(stream) => shed(stream),
            }
        }
        self.advisor.begin_drain(pool.close());
        for handler in handlers {
            // A handler that panicked has retired itself; its
            // connection is gone either way.
            let _ = handler.join();
        }
        self.advisor.flush_recorder();
        Ok(())
    }
}

/// Routes one request. Returns whether shutdown was requested.
fn route(pool: &Pool, request: &HttpRequest) -> (Answer, bool) {
    let advisor = &*pool.advisor;
    advisor.metrics().counter("serve.http.requests").increment();
    let (endpoint, answer, shutdown) = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => ("query", pool.query(&request.body), false),
        ("GET", "/healthz") => ("healthz", advisor.healthz(), false),
        ("GET", "/metrics") => ("metrics", advisor.metrics_snapshot(), false),
        ("POST", "/shutdown") => (
            "shutdown",
            Answer {
                status: 200,
                body: "{\"draining\":true}".to_string(),
            },
            true,
        ),
        (_, "/query" | "/healthz" | "/metrics" | "/shutdown") => (
            "method_not_allowed",
            Answer {
                status: 405,
                body: "{\"error\":\"method not allowed\"}".to_string(),
            },
            false,
        ),
        _ => (
            "not_found",
            Answer {
                status: 404,
                body: "{\"error\":\"no such endpoint\"}".to_string(),
            },
            false,
        ),
    };
    advisor
        .metrics()
        .counter(&format!("serve.http.{endpoint}"))
        .increment();
    (answer, shutdown)
}

fn handle_connection(mut stream: TcpStream, pool: &Pool) {
    match read_request(&mut stream) {
        Ok(request) => {
            let (answer, shutdown) = route(pool, &request);
            let _ = write_response(&mut stream, answer.status, &answer.body);
            if shutdown {
                pool.stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so it can begin draining.
                let _ = TcpStream::connect(pool.addr);
            }
        }
        Err(HttpError::Malformed(why)) => {
            let body = format!("{{\"error\":\"malformed request: {why}\"}}");
            if write_response(&mut stream, 400, &body).is_ok() {
                // The rest of the request may still be unread.
                linger_close(&mut stream, LINGER);
            }
        }
        // Socket died or timed out: nothing to answer.
        Err(HttpError::Io(_)) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_to_its_cap_and_resets_on_success() {
        let mut backoff = AcceptBackoff::default();
        let schedule: Vec<u64> = (0..9)
            .map(|_| backoff.failed().as_millis() as u64)
            .collect();
        assert_eq!(schedule, [1, 2, 4, 8, 16, 32, 64, 100, 100]);
        backoff.succeeded();
        assert_eq!(backoff.failed(), ACCEPT_BACKOFF_MIN);
        assert_eq!(backoff.failed(), Duration::from_millis(2));
    }
}
