//! Chaos wrappers for byte streams and server acceptors.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use paq_server::{Accepted, Acceptor, Connection};

use crate::plan::{FaultPlan, Injection};

/// A `Read + Write` wrapper that consults a [`FaultPlan`] on every
/// operation, modelling a flaky network link.
///
/// For a stream built with label `L`, reads consult site `"L.read"`
/// and writes consult site `"L.write"`. Faults behave like a real
/// connection dying:
///
/// * An injected **Fail** returns `ConnectionReset` and severs the
///   stream — every later operation returns `BrokenPipe`.
/// * An injected **ShortWrite** first delivers half the buffer to the
///   peer (so the other side observes a genuinely torn frame), then
///   severs the stream.
/// * A **Delay** sleeps before the operation proceeds, modelling a
///   stalling link (a slowloris peer, from the server's perspective).
///
/// With an empty plan the wrapper is a passthrough.
///
/// A stream split with [`Connection::try_clone_writer`] stays one
/// connection: both handles consult the same plan counters (the plan
/// is shared) and the same severed flag, so a fault injected on the
/// server's writer handle also ends its reader.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    plan: FaultPlan,
    read_site: String,
    write_site: String,
    dead: Arc<AtomicBool>,
}

impl<S> ChaosStream<S> {
    /// Wrap `inner`, consulting `plan` at `"{label}.read"` and
    /// `"{label}.write"`.
    pub fn new(inner: S, plan: &FaultPlan, label: &str) -> Self {
        ChaosStream {
            inner,
            plan: plan.clone(),
            read_site: format!("{label}.read"),
            write_site: format!("{label}.write"),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Whether an injected fault has severed this stream.
    pub fn is_severed(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Access the wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Unwrap, discarding the chaos layer.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn severed_error() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "chaos: stream severed")
    }

    fn sever(&mut self, site: &str, call: u64) -> io::Error {
        // Pairs with the `Acquire` load in `is_severed`: the other
        // handle of a split stream that sees the flag also sees the
        // torn bytes this handle delivered first.
        self.dead.store(true, Ordering::Release);
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            FaultPlan::error_for(site, call).to_string(),
        )
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.is_severed() {
            return Err(Self::severed_error());
        }
        let verdict = self.plan.evaluate(&self.read_site);
        if let Some(delay) = verdict.delay {
            std::thread::sleep(delay);
        }
        match verdict.injection {
            Injection::None => self.inner.read(buf),
            // A short "write" on the read side has nothing to deliver;
            // both injections just kill the connection.
            Injection::Fail | Injection::ShortWrite => {
                let site = self.read_site.clone();
                Err(self.sever(&site, verdict.call))
            }
        }
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.is_severed() {
            return Err(Self::severed_error());
        }
        let verdict = self.plan.evaluate(&self.write_site);
        if let Some(delay) = verdict.delay {
            std::thread::sleep(delay);
        }
        match verdict.injection {
            Injection::None => self.inner.write(buf),
            Injection::Fail => {
                let site = self.write_site.clone();
                Err(self.sever(&site, verdict.call))
            }
            Injection::ShortWrite => {
                // Deliver a torn prefix for real: the peer must observe
                // a partial frame, not a cleanly-missing one.
                let torn = buf.len() / 2;
                self.inner.write_all(&buf[..torn])?;
                self.inner.flush()?;
                let site = self.write_site.clone();
                Err(self.sever(&site, verdict.call))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.is_severed() {
            return Err(Self::severed_error());
        }
        self.inner.flush()
    }
}

impl<S: Connection> Connection for ChaosStream<S> {
    fn set_read_poll(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_poll(timeout)
    }

    fn try_clone_writer(&self) -> io::Result<Self> {
        Ok(ChaosStream {
            inner: self.inner.try_clone_writer()?,
            plan: self.plan.clone(),
            read_site: self.read_site.clone(),
            write_site: self.write_site.clone(),
            dead: Arc::clone(&self.dead),
        })
    }
}

/// An [`Acceptor`] wrapper: every accepted connection is wrapped in a
/// [`ChaosStream`] sharing one plan and label, so a server under test
/// sees faulty clients without any change to its serve loop.
#[derive(Debug)]
pub struct ChaosAcceptor<A> {
    inner: A,
    plan: FaultPlan,
    label: String,
}

impl<A> ChaosAcceptor<A> {
    /// Wrap `inner`; accepted connections consult `plan` at
    /// `"{label}.read"` / `"{label}.write"`.
    pub fn new(inner: A, plan: &FaultPlan, label: &str) -> Self {
        ChaosAcceptor {
            inner,
            plan: plan.clone(),
            label: label.to_string(),
        }
    }
}

impl<A: Acceptor> Acceptor for ChaosAcceptor<A> {
    type Conn = ChaosStream<A::Conn>;

    fn poll(&mut self, timeout: Duration) -> Accepted<Self::Conn> {
        match self.inner.poll(timeout) {
            Accepted::Conn(conn) => Accepted::Conn(ChaosStream::new(conn, &self.plan, &self.label)),
            Accepted::Idle => Accepted::Idle,
            Accepted::Closed => Accepted::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Trigger;

    #[test]
    fn passthrough_with_empty_plan() {
        let plan = FaultPlan::new(0);
        let mut s = ChaosStream::new(io::Cursor::new(Vec::new()), &plan, "t");
        s.write_all(b"hello").unwrap();
        s.flush().unwrap();
        assert!(!s.is_severed());
        assert_eq!(s.get_ref().get_ref(), b"hello");

        let mut r = ChaosStream::new(io::Cursor::new(b"world".to_vec()), &plan, "t");
        let mut buf = String::new();
        r.read_to_string(&mut buf).unwrap();
        assert_eq!(buf, "world");
    }

    #[test]
    fn injected_write_fail_severs_the_stream() {
        let plan = FaultPlan::new(0);
        plan.on("t.write", Trigger::FailNth(2));
        let mut s = ChaosStream::new(io::Cursor::new(Vec::new()), &plan, "t");
        s.write_all(b"ok").unwrap();
        let err = s.write(b"boom").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(err.to_string().contains("t.write"), "{err}");
        assert!(s.is_severed());
        // Everything after the sever is BrokenPipe.
        assert_eq!(s.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(s.flush().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        let mut buf = [0u8; 1];
        assert_eq!(
            s.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn short_write_delivers_a_torn_prefix() {
        let plan = FaultPlan::new(0);
        plan.on("t.write", Trigger::ShortWriteNth(1));
        let mut s = ChaosStream::new(io::Cursor::new(Vec::new()), &plan, "t");
        let err = s.write(b"abcdefgh").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(s.is_severed());
        assert_eq!(
            s.get_ref().get_ref(),
            b"abcd",
            "peer saw exactly half the frame"
        );
    }

    #[test]
    fn injected_read_fail_severs_the_stream() {
        let plan = FaultPlan::new(0);
        plan.on("t.read", Trigger::FailNth(1));
        let mut s = ChaosStream::new(io::Cursor::new(b"data".to_vec()), &plan, "t");
        let mut buf = [0u8; 4];
        let err = s.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(s.is_severed());
    }
}
