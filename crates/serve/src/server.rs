//! The TCP front end: accept loop, per-connection threads, keep-alive.
//!
//! One `std::net::TcpListener`, one thread per connection (the control
//! plane serves operators and test drivers, not production fan-in —
//! dozens of connections, not thousands). Each connection runs the
//! incremental parser until a full request arrives, hands it to
//! [`App::handle`] (which serializes on the session mutex), writes the
//! response, and loops while keep-alive holds. Read timeouts bound how
//! long an idle or trickling peer can pin a thread.
//!
//! A connection owns two buffers for its whole life: the input buffer
//! `read()` fills directly, and the output buffer each response is
//! serialized into. A request that arrives in one segment costs one
//! `read()`, a parse that borrows from the input buffer, and one
//! `write()`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::api::App;
use crate::http::{parse_request, ParseStatus, Request, Response};

/// How long a connection may sit idle (or trickle a partial request)
/// before the server gives up on it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Initial size of a connection's input buffer. It doubles only when
/// one incomplete request fills it; the parser's head and body caps
/// bound how far.
const INPUT_BYTES: usize = 4096;

/// Consumed bytes at the front of the input buffer are reclaimed — the
/// unconsumed rest moved to the front — once they pass this offset.
/// Below it they stay, so a request costs no memory move.
const COMPACT_AT: usize = 2048;

/// A running server.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting in a background thread.
    pub fn start(app: Arc<App>, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("mudi-serve-accept".into())
            .spawn(move || accept_loop(&listener, &app, &flag))
            .expect("spawn accept thread");
        Ok(Server {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the accept loop exits (the binary's main thread
    /// parks here).
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting new connections. In-flight connections finish
    /// their current request; idle keep-alive connections die at the
    /// read timeout.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, app: &Arc<App>, shutdown: &Arc<AtomicBool>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let app = Arc::clone(app);
        let _ = std::thread::Builder::new()
            .name("mudi-serve-conn".into())
            .spawn(move || serve_connection(stream, &app));
    }
}

/// Runs one connection to completion. Public so integration tests can
/// drive a raw in-process stream without a listener.
pub fn serve_connection(mut stream: TcpStream, app: &Arc<App>) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    serve_stream(&mut stream, |request| app.handle(request));
}

/// The connection loop over any byte stream: parses each request out of
/// the input buffer, answers it with `handle`, and loops while
/// keep-alive holds. It returns at EOF, on a read or write error, after
/// a response that closes the connection, and after answering a
/// protocol violation. Generic so the property tests can drive it over
/// an in-memory stream.
pub fn serve_stream<S: Read + Write>(
    stream: &mut S,
    mut handle: impl FnMut(&Request<'_>) -> Response,
) {
    let mut input = Input::new();
    let mut out = Vec::new();
    loop {
        let (response, consumed) = match parse_request(input.pending()) {
            ParseStatus::Complete { request, consumed } => {
                let mut response = handle(&request);
                if !request.keep_alive {
                    response.close = true;
                }
                (response, consumed)
            }
            ParseStatus::Invalid { status, reason } => {
                let mut response = Response::error(status, reason);
                response.close = true;
                let _ = response.write_to(stream, &mut out);
                return;
            }
            ParseStatus::Partial => match input.fill(stream) {
                Ok(0) | Err(_) => return, // EOF, timeout, or reset
                Ok(_) => continue,
            },
        };
        input.consume(consumed);
        if response.write_to(stream, &mut out).is_err() || response.close {
            return;
        }
    }
}

/// A connection's input buffer: `buf[start..end]` holds the bytes read
/// but not yet consumed by a parsed request.
struct Input {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Input {
    fn new() -> Self {
        Input {
            buf: vec![0; INPUT_BYTES],
            start: 0,
            end: 0,
        }
    }

    /// The bytes read but not yet consumed.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Marks the first `n` pending bytes as consumed. The buffer is
    /// compacted only when that empties it (a reset, no move) or the
    /// offset passes [`COMPACT_AT`].
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start >= COMPACT_AT {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// One `read()` straight into the free tail. A buffer full to its
    /// end is doubled first (below [`COMPACT_AT`] the consumed front is
    /// too small to be worth reclaiming). `Ok(0)` is EOF.
    fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.end == self.buf.len() {
            self.buf.resize(2 * self.buf.len(), 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}
