//! Client library: one frame per request over a fresh connection, with
//! capped exponential backoff + deterministic jitter on retryable
//! answers — the same base-4, cap-32 doubling schedule the engine's
//! `Reliable` adapter uses for retransmission timeouts, scaled to
//! milliseconds.

use std::fmt;
use std::net::TcpStream;
use std::time::Duration;

use congest_sim::splitmix64;

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, ProtocolError, Request,
    RequestEnvelope, Response,
};

/// First backoff, milliseconds (mirrors `Reliable`'s `BASE_TIMEOUT = 4`).
pub const BASE_BACKOFF_MS: u64 = 4;
/// Backoff cap, milliseconds (mirrors `Reliable`'s `MAX_TIMEOUT = 32`).
pub const MAX_BACKOFF_MS: u64 = 32;

/// Typed client failure.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or socket failure on a non-retryable path.
    Io(std::io::Error),
    /// The response (or our request) was malformed.
    Protocol(ProtocolError),
    /// Every attempt was shed, not ready, or unreachable; the client
    /// gave up rather than spin.
    GaveUp {
        /// Attempts made.
        attempts: u32,
        /// What the final attempt saw.
        last: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} attempts (last: {last})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A retrying client for one daemon address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    max_attempts: u32,
    jitter_seed: u64,
    io_timeout: Duration,
}

impl Client {
    /// A client with 6 attempts and a 5-second per-operation socket
    /// timeout.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            max_attempts: 6,
            jitter_seed: 0,
            io_timeout: Duration::from_secs(5),
        }
    }

    /// Caps the retry attempts (minimum 1).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Client {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Seeds the deterministic retry jitter.
    #[must_use]
    pub fn with_jitter_seed(mut self, seed: u64) -> Client {
        self.jitter_seed = seed;
        self
    }

    /// Sets the per-operation socket timeout.
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Duration) -> Client {
        self.io_timeout = timeout;
        self
    }

    /// One request/response exchange over a fresh connection.
    fn once(&self, env: &RequestEnvelope) -> Result<Response, ClientError> {
        let mut stream = TcpStream::connect(&self.addr).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(self.io_timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(self.io_timeout))
            .map_err(ClientError::Io)?;
        write_frame(&mut stream, &encode_request(env)).map_err(ClientError::Protocol)?;
        let payload = read_frame(&mut stream).map_err(ClientError::Protocol)?;
        decode_response(&payload).map_err(ClientError::Protocol)
    }

    /// Sends a request, retrying `Overloaded` / `NotReady` answers and
    /// connection failures with capped exponential backoff + jitter.
    /// Any other response — including a typed `Timeout` — is returned
    /// to the caller as-is.
    ///
    /// # Errors
    ///
    /// [`ClientError::GaveUp`] once the attempt budget is spent;
    /// [`ClientError::Protocol`] on malformed traffic.
    pub fn request(&self, env: &RequestEnvelope) -> Result<Response, ClientError> {
        let mut backoff = BASE_BACKOFF_MS;
        let mut last = String::from("no attempt made");
        for attempt in 0..self.max_attempts {
            let retry_floor_ms = match self.once(env) {
                Ok(Response::Overloaded { retry_after_ms }) => {
                    last = format!("Overloaded (retry after {retry_after_ms} ms)");
                    u64::from(retry_after_ms)
                }
                Ok(Response::NotReady { retry_after_ms }) => {
                    last = format!("NotReady (retry after {retry_after_ms} ms)");
                    u64::from(retry_after_ms)
                }
                Ok(response) => return Ok(response),
                Err(ClientError::Io(e)) => {
                    last = format!("connect failed: {e}");
                    0
                }
                Err(e) => return Err(e),
            };
            if attempt + 1 < self.max_attempts {
                let jitter_span = backoff / 2 + 1;
                let jitter =
                    splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x5851_F42D))
                        % jitter_span;
                std::thread::sleep(Duration::from_millis(backoff.max(retry_floor_ms) + jitter));
                // Same doubling-with-cap schedule as `Reliable`.
                backoff = (backoff * 2).min(MAX_BACKOFF_MS);
            }
        }
        Err(ClientError::GaveUp {
            attempts: self.max_attempts,
            last,
        })
    }

    /// Convenience: one node's centrality with a deadline.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn centrality(&self, node: usize, deadline_ms: u32) -> Result<Response, ClientError> {
        self.request(&RequestEnvelope {
            deadline_ms,
            request: Request::Centrality { node },
        })
    }

    /// Convenience: top-k ranking with a deadline.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn top_k(&self, k: usize, deadline_ms: u32) -> Result<Response, ClientError> {
        self.request(&RequestEnvelope {
            deadline_ms,
            request: Request::TopK { k },
        })
    }

    /// Convenience: service counters.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn stats(&self) -> Result<Response, ClientError> {
        self.request(&RequestEnvelope {
            deadline_ms: 0,
            request: Request::Stats,
        })
    }

    /// Convenience: health probe (no retries — a probe reports what is,
    /// it does not wait for what might become).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the daemon cannot be reached and
    /// [`ClientError::Protocol`] on malformed traffic, from the single
    /// attempt, surfaced directly.
    pub fn health(&self) -> Result<Response, ClientError> {
        self.once(&RequestEnvelope {
            deadline_ms: 0,
            request: Request::Health,
        })
    }

    /// Convenience: admin drain.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn drain(&self) -> Result<Response, ClientError> {
        self.once(&RequestEnvelope {
            deadline_ms: 0,
            request: Request::Drain,
        })
    }

    /// Convenience: live-metrics scrape (no retries, like
    /// [`Client::health`] — a scraper reports what is, and must see an
    /// overloaded daemon rather than back off around it).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the daemon cannot be reached and
    /// [`ClientError::Protocol`] on malformed traffic, from the single
    /// attempt, surfaced directly.
    pub fn metrics(&self) -> Result<Response, ClientError> {
        self.once(&RequestEnvelope {
            deadline_ms: 0,
            request: Request::Metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_mirrors_reliable() {
        // 4, 8, 16, 32, 32, ... — doubling to the cap.
        let mut backoff = BASE_BACKOFF_MS;
        let mut seen = Vec::new();
        for _ in 0..5 {
            seen.push(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF_MS);
        }
        assert_eq!(seen, vec![4, 8, 16, 32, 32]);
    }

    #[test]
    fn unreachable_daemon_gives_up_typed() {
        // A port nothing listens on: every attempt fails to connect and
        // the client must give up with the typed error, quickly.
        let client = Client::new("127.0.0.1:1")
            .with_max_attempts(2)
            .with_io_timeout(Duration::from_millis(200));
        match client.stats() {
            Err(ClientError::GaveUp { attempts: 2, .. }) => {}
            other => panic!("expected GaveUp, got {other:?}"),
        }
    }
}
