//! The acceptor wakes on connect and stops promptly: a connection is
//! accepted as soon as it arrives (no polling interval to wait out),
//! and `Server::stop` on an idle server returns within one drain tick
//! or so, over TCP and over a Unix socket.

use facile_server::{BoundAddr, Endpoint, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::time::{Duration, Instant};

fn start(endpoint: Endpoint) -> Server {
    let mut cfg = ServerConfig::new(endpoint);
    cfg.threads = 1;
    Server::start(cfg).expect("server starts")
}

fn tcp() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

#[cfg(unix)]
fn unix(tag: &str) -> Endpoint {
    Endpoint::Unix(
        std::env::temp_dir().join(format!("facile-acceptor-{}-{tag}.sock", std::process::id())),
    )
}

/// Connect, send one `ping`, read the reply, hang up.
fn ping_once(bound: &BoundAddr) {
    fn exchange<S: Read + Write>(mut s: S) {
        s.write_all(b"{\"op\":\"ping\"}\n").expect("request writes");
        let mut reply = String::new();
        BufReader::new(s)
            .read_line(&mut reply)
            .expect("reply arrives");
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    match bound {
        BoundAddr::Tcp(a) => exchange(std::net::TcpStream::connect(a).expect("connects")),
        #[cfg(unix)]
        BoundAddr::Unix(p) => {
            exchange(std::os::unix::net::UnixStream::connect(p).expect("connects"))
        }
    }
}

/// 50 sequential connect → ping → close cycles take well under the
/// 20 ms each that a sleeping acceptor would add.
fn assert_fast_connects(endpoint: Endpoint) {
    let server = start(endpoint);
    ping_once(server.bound()); // first-use costs out of the clock
    let t = Instant::now();
    for _ in 0..50 {
        ping_once(server.bound());
    }
    let took = t.elapsed();
    server.stop();
    assert!(
        took < Duration::from_millis(500),
        "50 connect-ping-close cycles took {took:?}"
    );
}

fn assert_prompt_stop(endpoint: Endpoint) {
    let server = start(endpoint);
    let t = Instant::now();
    server.stop();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "idle stop took {took:?}");
}

#[test]
fn sequential_connections_are_accepted_at_once_over_tcp() {
    assert_fast_connects(tcp());
}

#[cfg(unix)]
#[test]
fn sequential_connections_are_accepted_at_once_over_unix() {
    assert_fast_connects(unix("connects"));
}

#[test]
fn idle_stop_returns_promptly_over_tcp() {
    assert_prompt_stop(tcp());
}

#[cfg(unix)]
#[test]
fn idle_stop_returns_promptly_over_unix() {
    assert_prompt_stop(unix("stop"));
}
