//! The open-loop `predict` generator: requests go out on a fixed schedule
//! whether or not earlier replies have arrived, spread over a few
//! connections, one thread each.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long to wait for replies after the last scheduled send.
const GRACE: Duration = Duration::from_secs(5);

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// When it is due, from the schedule's start.
    pub due: Duration,
    /// The request line (without newline).
    pub line: String,
    /// The reply line it must get back.
    pub expected: String,
}

/// What happened to one request, in times from the schedule's start.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub due: Duration,
    pub sent: Option<Duration>,
    pub received: Option<Duration>,
    /// The reply matched the expected line byte for byte.
    pub ok: bool,
    /// The reply line, when the caller asked to keep replies.
    pub reply: Option<String>,
}

/// `n` requests at `rate` per second, request `i` built by `make(i)`.
pub fn schedule(n: usize, rate: f64, make: impl Fn(usize) -> (String, String)) -> Vec<Request> {
    (0..n)
        .map(|i| {
            #[allow(clippy::cast_precision_loss)]
            let due = Duration::from_secs_f64(i as f64 / rate);
            let (line, expected) = make(i);
            Request {
                due,
                line,
                expected,
            }
        })
        .collect()
}

/// Run the schedule over `connections` connections to `addr` (request
/// `i` goes to connection `i % connections`). Returns the schedule's
/// start and one outcome per request, in schedule order.
pub fn run(
    addr: &str,
    requests: &[Request],
    connections: usize,
    keep_replies: bool,
) -> Result<(Instant, Vec<Outcome>), String> {
    let streams: Vec<TcpStream> = (0..connections)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<_, String>>()?;
    let t0 = Instant::now();
    let per_conn: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (c..requests.len()).step_by(connections).collect();
                s.spawn(move || drive(stream, requests, &mine, t0, keep_replies))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut outcomes = vec![Outcome::default(); requests.len()];
    for (i, o) in per_conn.into_iter().flatten() {
        outcomes[i] = o;
    }
    Ok((t0, outcomes))
}

/// One connection's loop: send each request when due; in between, wait
/// for replies until the next due time.
fn drive(
    mut stream: TcpStream,
    requests: &[Request],
    mine: &[usize],
    t0: Instant,
    keep_replies: bool,
) -> Vec<(usize, Outcome)> {
    let mut out: Vec<(usize, Outcome)> = mine
        .iter()
        .map(|&i| {
            (
                i,
                Outcome {
                    due: requests[i].due,
                    ..Outcome::default()
                },
            )
        })
        .collect();
    let give_up = mine.last().map_or(Duration::ZERO, |&i| requests[i].due) + GRACE;
    let mut next = 0;
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let now = t0.elapsed();
        if next < mine.len() && now >= requests[mine[next]].due {
            let line = format!("{}\n", requests[mine[next]].line);
            if stream.write_all(line.as_bytes()).is_err() {
                break;
            }
            out[next].1.sent = Some(t0.elapsed());
            pending.push_back(next);
            next += 1;
            continue;
        }
        if next == mine.len() && (pending.is_empty() || now >= give_up) {
            break;
        }
        let until = if next < mine.len() {
            requests[mine[next]].due
        } else {
            give_up
        };
        if !wait_readable(&stream, until.saturating_sub(now)) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                let at = t0.elapsed();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let Some(k) = pending.pop_front() else { break };
                    let reply = String::from_utf8_lossy(&line[..pos]);
                    let o = &mut out[k].1;
                    o.received = Some(at);
                    o.ok = reply == requests[mine[k]].expected;
                    if keep_replies {
                        o.reply = Some(reply.into_owned());
                    }
                }
            }
        }
    }
    out
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Wait until `stream` has data to read or `timeout` passes; `true` when
/// readable. `ppoll` takes a nanosecond timeout on the high-resolution
/// timer, where a socket read timeout is rounded up to scheduler ticks
/// (milliseconds), which would make the generator send late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // whole call; `nfds` = 1 matches the single entry; a null signal mask
    // leaves the thread's mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0 && fd.revents != 0
}
