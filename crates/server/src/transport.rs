//! In-memory byte-stream transport: a blocking duplex pipe plus a
//! pipe "listener", so the full server stack — framing, connection
//! handling, backpressure, shutdown — runs deterministically in tests
//! with no sockets, ports, or OS networking involved.
//!
//! [`duplex`] yields two [`PipeEnd`]s wired crosswise: what one end
//! writes, the other reads. Semantics mirror a TCP stream:
//!
//! * reads block until data arrives, the peer closes (then drain the
//!   buffer, then `Ok(0)`), or the configured read timeout fires
//!   (`ErrorKind::TimedOut`, nothing consumed — the same contract the
//!   server's idle-poll relies on with `TcpStream::set_read_timeout`);
//! * writes to a closed peer fail with `ErrorKind::BrokenPipe`, but
//!   data written *before* the close stays readable — exactly the
//!   one-in-flight-response race a real socket permits.
//!
//! [`pipe_listener`] pairs a cloneable [`PipeConnector`] with a
//! [`PipeListener`] the server accepts from, completing the in-memory
//! analogue of `TcpListener` + `TcpStream::connect`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One direction of a duplex pipe.
#[derive(Debug, Default)]
struct Channel {
    state: Mutex<ChannelState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct ChannelState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// Closes both directions of one pipe end when the **last** handle to
/// that end drops — the analogue of an OS socket staying open while any
/// `try_clone`d fd remains. A lone (never-cloned) end behaves exactly
/// as before: its drop is the guard's drop.
#[derive(Debug)]
struct PipeGuard {
    rx: Arc<Channel>,
    tx: Arc<Channel>,
}

impl Drop for PipeGuard {
    fn drop(&mut self) {
        // Close both directions: the peer's reads see EOF once they
        // drain what we wrote, and the peer's writes start failing.
        for channel in [&self.tx, &self.rx] {
            channel
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .closed = true;
            channel.ready.notify_all();
        }
    }
}

/// One end of an in-memory duplex byte stream; see the
/// [module docs](self) for semantics.
#[derive(Debug)]
pub struct PipeEnd {
    /// The peer writes here; we read.
    rx: Arc<Channel>,
    /// We write here; the peer reads.
    tx: Arc<Channel>,
    /// Read timeout (the in-memory analogue of
    /// `TcpStream::set_read_timeout`).
    read_timeout: Option<Duration>,
    /// Shared close-on-last-drop guard (see [`PipeGuard`]).
    guard: Arc<PipeGuard>,
}

fn pipe_end(rx: Arc<Channel>, tx: Arc<Channel>) -> PipeEnd {
    let guard = Arc::new(PipeGuard {
        rx: Arc::clone(&rx),
        tx: Arc::clone(&tx),
    });
    PipeEnd {
        rx,
        tx,
        read_timeout: None,
        guard,
    }
}

/// A connected pair of pipe ends.
pub fn duplex() -> (PipeEnd, PipeEnd) {
    let a = Arc::new(Channel::default());
    let b = Arc::new(Channel::default());
    (pipe_end(Arc::clone(&a), Arc::clone(&b)), pipe_end(b, a))
}

impl PipeEnd {
    /// Set (or clear) the read timeout, mirroring
    /// `TcpStream::set_read_timeout`.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    /// A second handle onto the same end, mirroring
    /// `TcpStream::try_clone`: both handles read from and write to the
    /// same buffers, and the connection closes only when the last
    /// handle drops. The server uses this to split a connection into
    /// a reader (the connection handler) and a writer (executors
    /// completing responses out of order).
    pub fn try_clone(&self) -> PipeEnd {
        PipeEnd {
            rx: Arc::clone(&self.rx),
            tx: Arc::clone(&self.tx),
            read_timeout: self.read_timeout,
            guard: Arc::clone(&self.guard),
        }
    }
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.rx.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !state.buf.is_empty() {
                let n = buf.len().min(state.buf.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = state.buf.pop_front().expect("n bounded by len");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            state = match self.read_timeout {
                Some(timeout) => {
                    let (guard, result) = self
                        .rx
                        .ready
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(|e| e.into_inner());
                    if result.timed_out() && guard.buf.is_empty() && !guard.closed {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "pipe read timed out",
                        ));
                    }
                    guard
                }
                None => self.rx.ready.wait(state).unwrap_or_else(|e| e.into_inner()),
            };
        }
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.tx.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer closed the pipe",
            ));
        }
        state.buf.extend(buf);
        drop(state);
        self.tx.ready.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The connecting side of an in-memory listener; cloneable, one clone
/// per client thread. Dropping every connector closes the listener.
#[derive(Debug, Clone)]
pub struct PipeConnector {
    tx: mpsc::Sender<PipeEnd>,
}

impl PipeConnector {
    /// Open a new connection to the listener, like
    /// `TcpStream::connect`. Fails when the listener is gone.
    pub fn connect(&self) -> io::Result<PipeEnd> {
        let (client, server) = duplex();
        self.tx.send(server).map_err(|_| {
            io::Error::new(io::ErrorKind::ConnectionRefused, "pipe listener closed")
        })?;
        Ok(client)
    }
}

/// The accepting side of an in-memory listener; hand it to
/// [`Server::serve`](crate::server::Server::serve).
#[derive(Debug)]
pub struct PipeListener {
    rx: mpsc::Receiver<PipeEnd>,
}

impl PipeListener {
    /// Wait up to `timeout` for the next connection. `Ok(None)` on
    /// timeout; `Err` once every connector is dropped.
    pub fn accept_timeout(&self, timeout: Duration) -> io::Result<Option<PipeEnd>> {
        match self.rx.recv_timeout(timeout) {
            Ok(conn) => Ok(Some(conn)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "all pipe connectors dropped",
            )),
        }
    }
}

/// An in-memory listener: clients [`PipeConnector::connect`], the
/// server accepts [`PipeEnd`]s.
pub fn pipe_listener() -> (PipeConnector, PipeListener) {
    let (tx, rx) = mpsc::channel();
    (PipeConnector { tx }, PipeListener { rx })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_flow_both_ways() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn drop_closes_with_drain() {
        let (mut a, mut b) = duplex();
        a.write_all(b"last words").unwrap();
        drop(a);
        let mut out = Vec::new();
        b.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"last words");
        assert_eq!(b.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn read_timeout_fires_without_consuming() {
        let (mut a, mut b) = duplex();
        b.set_read_timeout(Some(Duration::from_millis(10)));
        let mut buf = [0u8; 1];
        assert_eq!(
            b.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        a.write_all(b"z").unwrap();
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"z");
    }

    #[test]
    fn blocking_read_wakes_on_cross_thread_write() {
        let (mut a, mut b) = duplex();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a.write_all(b"late").unwrap();
            a // keep the end alive until the bytes are consumed
        });
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"late");
        drop(writer.join().unwrap());
    }

    #[test]
    fn clone_keeps_connection_open_until_last_handle_drops() {
        let (a, mut b) = duplex();
        let mut writer = a.try_clone();
        drop(a); // reader handle gone, writer clone keeps the end alive
        writer.write_all(b"still open").unwrap();
        let mut buf = [0u8; 10];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"still open");
        b.write_all(b"ok").unwrap(); // peer not closed yet
        drop(writer); // last handle: now the connection closes
        let mut out = Vec::new();
        b.read_to_end(&mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(b.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn listener_accepts_and_closes() {
        let (connector, listener) = pipe_listener();
        let mut client = connector.connect().unwrap();
        let mut server = listener
            .accept_timeout(Duration::from_millis(100))
            .unwrap()
            .expect("connection pending");
        client.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        assert!(listener
            .accept_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
        drop(connector);
        assert!(listener.accept_timeout(Duration::from_millis(5)).is_err());
    }
}
