//! The accept loop and graceful-shutdown lifecycle.
//!
//! One OS thread per connection (simulation parallelism is bounded by
//! the advisor's worker pool, not the connection count). Shutdown is
//! cooperative: `POST /shutdown` (or [`Server::shutdown_signal`])
//! flips a flag, a self-connect unblocks the blocking `accept`, and
//! the loop then drains — waits for every in-flight connection to
//! finish — before returning. A failing `accept` (e.g. EMFILE when file
//! descriptors run out) backs off with a bounded doubling sleep rather
//! than spinning.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::http::{read_request, write_response, HttpError, HttpRequest};
use crate::service::{Advisor, Answer};

/// Tracks connections in flight so shutdown can drain them.
struct InFlight {
    count: Mutex<usize>,
    drained: Condvar,
}

impl InFlight {
    fn begin(&self) {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }

    fn end(&self) {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count = count.saturating_sub(1);
        drop(count);
        self.drained.notify_all();
    }

    fn current(&self) -> usize {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_for_zero(&self) {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        while *count > 0 {
            count = self
                .drained
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
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
    in_flight: Arc<InFlight>,
}

/// A handle that can stop a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ShutdownSignal {
    stop: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
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
            in_flight: Arc::new(InFlight {
                count: Mutex::new(0),
                drained: Condvar::new(),
            }),
        })
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn addr(&self) -> std::io::Result<std::net::SocketAddr> {
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

    /// Serves until shutdown is requested, then drains in-flight
    /// connections and returns. Connection threads never take the
    /// server down: a failed read answers 400 (when the socket still
    /// works) and moves on.
    ///
    /// # Errors
    ///
    /// Only setup failures (socket introspection); per-connection
    /// errors are absorbed.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.addr()?;
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
            self.in_flight.begin();
            let advisor = Arc::clone(&self.advisor);
            let in_flight = Arc::clone(&self.in_flight);
            let stop = Arc::clone(&self.stop);
            let self_addr = addr;
            std::thread::spawn(move || {
                handle_connection(stream, &advisor, &stop, self_addr);
                in_flight.end();
            });
        }
        self.advisor.begin_drain(self.in_flight.current());
        self.in_flight.wait_for_zero();
        self.advisor.flush_recorder();
        Ok(())
    }
}

/// Routes one request. Returns whether shutdown was requested.
fn route(advisor: &Advisor, request: &HttpRequest) -> (Answer, bool) {
    advisor.metrics().counter("serve.http.requests").increment();
    let (endpoint, answer, shutdown) = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => ("query", advisor.query(&request.body), false),
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

fn handle_connection(
    mut stream: TcpStream,
    advisor: &Advisor,
    stop: &AtomicBool,
    addr: std::net::SocketAddr,
) {
    match read_request(&mut stream) {
        Ok(request) => {
            let (answer, shutdown) = route(advisor, &request);
            let _ = write_response(&mut stream, answer.status, &answer.body);
            if shutdown {
                stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so it can begin draining.
                let _ = TcpStream::connect(addr);
            }
        }
        Err(HttpError::Malformed(why)) => {
            let body = format!("{{\"error\":\"malformed request: {why}\"}}");
            let _ = write_response(&mut stream, 400, &body);
        }
        // Socket died or timed out: nothing to answer. The self-
        // connect that wakes the accept loop lands here by design.
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
