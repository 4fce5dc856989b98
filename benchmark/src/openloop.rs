//! Load generation over one v7 connection: scheduled arrivals (open
//! loop) and a fixed number outstanding (closed loop).
//!
//! The generator measures the program, not itself: one thread sends on
//! the schedule and never waits for an answer, one thread stamps each
//! response frame as it arrives, and a request's latency runs from the
//! instant it was *due*, so a stall is charged to every request it
//! delays. `PipelinedClient::poll_ready` is not used for timing: its
//! 1 ms socket read-timeout rounds every wait up.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use paq_server::wire::{read_frame, write_frame};
use paq_server::wire7::{decode_response_v7, encode_request_v7};
use paq_server::{PipelinedClient, Request, Response};

use crate::common::ms;

/// A send this much after its due time is late.
pub const MAX_GENERATOR_LAG_MS: f64 = 2.0;

/// A step in which more than this share of the sends were late measured
/// the generator, not the program. (On a 2-core host a woken sender can
/// wait a scheduler slice of 2-3 ms for a core, about once in 3 000
/// sends; the *largest* lateness is printed, but one late send in
/// thousands moves no percentile, so it does not void the step.)
pub const MAX_LATE_SHARE: f64 = 0.01;

/// One handshaken v7 connection, split into a sending and a receiving
/// handle.
pub struct Wire {
    writer: TcpStream,
    reader: TcpStream,
    next_tag: u32,
}

/// Connect and negotiate v7.
pub fn connect(addr: SocketAddr) -> io::Result<PipelinedClient<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    PipelinedClient::handshake(stream).map_err(io::Error::other)
}

impl Wire {
    /// Take over a connection on which every submitted request has been
    /// answered.
    pub fn from_client(client: PipelinedClient<TcpStream>) -> io::Result<Wire> {
        let writer = client.into_inner();
        writer.set_read_timeout(None)?;
        let reader = writer.try_clone()?;
        Ok(Wire {
            writer,
            reader,
            // Far from the tags the handshaken client used.
            next_tag: 1 << 20,
        })
    }

    fn take_tags(&mut self, n: usize) -> u32 {
        let base = self.next_tag;
        self.next_tag += n as u32;
        base
    }
}

/// Offsets from the start of a step at which requests are due: a fixed
/// rate, so `rate * seconds` arrivals `1/rate` apart.
pub fn schedule(rate: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate * seconds).round() as usize;
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// Requests that were due by `at` and still unanswered at `at`: what a
/// server that falls behind the arrivals leaves over.
pub fn backlog_at(due: &[Duration], answered: &[Option<Duration>], at: Duration) -> usize {
    due.iter()
        .zip(answered)
        .filter(|(&d, a)| d <= at && a.is_none_or(|a| a > at))
        .count()
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let gap = due - now;
        // Sleep through most of a long gap and spin through the rest: a
        // sleep may overshoot by more than the schedule can absorb.
        if gap > Duration::from_micros(400) {
            std::thread::sleep(gap - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What came back for one request: `digest` of the response, taken
/// after the arrival was stamped (keeping every `Response`, explain
/// text and all, would make the generator's memory the workload's).
pub struct Answer<T> {
    /// Index into the request list the caller passed.
    pub request: usize,
    pub latency_ms: f64,
    pub response: T,
}

pub struct Step<T> {
    pub answers: Vec<Answer<T>>,
    /// Largest distance between a request's due time and the moment the
    /// sender started on it.
    pub generator_lag_ms: f64,
    /// Sends more than `MAX_GENERATOR_LAG_MS` late.
    pub late_sends: usize,
    /// Requests still unanswered `grace` after the last one was due.
    pub backlog: usize,
}

impl<T> Step<T> {
    pub fn valid(&self) -> bool {
        self.late_sends as f64 <= MAX_LATE_SHARE * self.answers.len() as f64
    }
}

/// Send `requests[assignment[i]]` at offset `due[i]`, whatever the
/// server does, and collect every answer. What is unanswered `grace`
/// after the last arrival is backlog.
pub fn open_loop_step<T: Send>(
    wire: &mut Wire,
    requests: &[Request],
    assignment: &[usize],
    due: &[Duration],
    grace: Duration,
    digest: impl Fn(Response) -> T + Sync,
) -> io::Result<Step<T>> {
    assert_eq!(assignment.len(), due.len());
    let base = wire.take_tags(due.len());
    let (writer, reader) = (&mut wire.writer, &mut wire.reader);
    let start = Instant::now() + Duration::from_millis(5);

    let (lag, arrivals) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<(Duration, usize)> {
            let (mut lag, mut late) = (Duration::ZERO, 0);
            for (i, offset) in due.iter().enumerate() {
                wait_until(start + *offset);
                let behind = start.elapsed().saturating_sub(*offset);
                lag = lag.max(behind);
                late += (ms(behind) > MAX_GENERATOR_LAG_MS) as usize;
                let frame = encode_request_v7(base + i as u32, &requests[assignment[i]]);
                write_frame(writer, &frame).map_err(io::Error::other)?;
            }
            Ok((lag, late))
        });
        let receiver = scope.spawn(|| -> io::Result<Vec<(u32, Duration, T)>> {
            let mut arrivals = Vec::with_capacity(due.len());
            for _ in 0..due.len() {
                let payload = read_frame(reader)
                    .map_err(io::Error::other)?
                    .ok_or_else(|| io::Error::other("server closed the connection"))?;
                let at = start.elapsed();
                let (tag, response) = decode_response_v7(&payload).map_err(io::Error::other)?;
                arrivals.push((tag, at, digest(response)));
            }
            Ok(arrivals)
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let ((lag, late_sends), arrivals) = (lag?, arrivals?);

    let mut answered = vec![None; due.len()];
    let mut answers = Vec::with_capacity(due.len());
    for (tag, at, response) in arrivals {
        let i = tag.wrapping_sub(base) as usize;
        if i >= due.len() {
            return Err(io::Error::other(format!(
                "answer to a tag never sent: {tag}"
            )));
        }
        answered[i] = Some(at);
        answers.push(Answer {
            request: assignment[i],
            latency_ms: ms(at.saturating_sub(due[i])),
            response,
        });
    }
    let end = due.last().copied().unwrap_or_default() + grace;
    Ok(Step {
        answers,
        generator_lag_ms: ms(lag),
        late_sends,
        backlog: backlog_at(due, &answered, end),
    })
}

pub struct Closed<T> {
    pub answers: Vec<Answer<T>>,
    pub elapsed: Duration,
}

/// Keep `outstanding` requests in flight for `seconds`, sending the next
/// as each answer arrives; latency runs from the send.
pub fn closed_loop<T>(
    wire: &mut Wire,
    requests: &[Request],
    assignment: &mut dyn FnMut() -> usize,
    outstanding: usize,
    seconds: f64,
    digest: impl Fn(Response) -> T,
) -> io::Result<Closed<T>> {
    let base = wire.next_tag;
    let mut sent: Vec<(usize, Instant)> = Vec::new();
    let mut answers = Vec::new();
    let start = Instant::now();
    let send = |wire: &mut Wire, sent: &mut Vec<(usize, Instant)>, which: usize| {
        let tag = wire.take_tags(1);
        let frame = encode_request_v7(tag, &requests[which]);
        sent.push((which, Instant::now()));
        write_frame(&mut wire.writer, &frame).map_err(io::Error::other)
    };
    for _ in 0..outstanding {
        let which = assignment();
        send(wire, &mut sent, which)?;
    }
    while answers.len() < sent.len() {
        let payload = read_frame(&mut wire.reader)
            .map_err(io::Error::other)?
            .ok_or_else(|| io::Error::other("server closed the connection"))?;
        let at = Instant::now();
        let (tag, response) = decode_response_v7(&payload).map_err(io::Error::other)?;
        let &(request, sent_at) = sent
            .get(tag.wrapping_sub(base) as usize)
            .ok_or_else(|| io::Error::other(format!("answer to a tag never sent: {tag}")))?;
        answers.push(Answer {
            request,
            latency_ms: ms(at - sent_at),
            response: digest(response),
        });
        if start.elapsed().as_secs_f64() < seconds {
            let which = assignment();
            send(wire, &mut sent, which)?;
        }
    }
    Ok(Closed {
        answers,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced_and_sized_by_rate() {
        let s = schedule(600.0, 2.5);
        assert_eq!(s.len(), 1500);
        assert_eq!(s[0], Duration::ZERO);
        assert_eq!(s[600], Duration::from_secs(1));
        let gap = s[1] - s[0];
        assert!(s.windows(2).all(|w| {
            let d = (w[1] - w[0]).as_nanos().abs_diff(gap.as_nanos());
            d <= 1
        }));
        assert!(*s.last().unwrap() < Duration::from_secs_f64(2.5));
    }

    #[test]
    fn backlog_counts_due_but_unanswered_requests() {
        let at = |v: u64| Duration::from_millis(v);
        let due = [at(0), at(10), at(20), at(30)];
        // Answered in time, answered late, never answered, not yet due.
        let answered = [Some(at(5)), Some(at(45)), None, Some(at(31))];
        assert_eq!(backlog_at(&due, &answered, at(25)), 2);
        assert_eq!(backlog_at(&due, &answered, at(40)), 2);
        assert_eq!(backlog_at(&due, &answered, at(50)), 1);
        let all = [Some(at(1)), Some(at(11)), Some(at(21)), Some(at(31))];
        assert_eq!(backlog_at(&due, &all, at(40)), 0);
    }
}
