//! Serving a request line takes time linear in its length: a 512 KiB
//! `batch` line, written in 16 KiB pieces, takes at most 16× as long as
//! a 64 KiB one (linear code gives 8×). This pins the connection
//! loop's newline scan, which resumes where the last read's scan
//! stopped: rescanning from byte 0 after every read gives about 20×
//! here. The string decoder's own ratio tests live in `json.rs`.

use facile_server::{BoundAddr, Endpoint, Server, ServerConfig};
use facile_util::timing::{assert_ratio, Clock};
use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A `batch` request of `bytes` bytes, padded with whitespace between
/// members, so reading and scanning the line is most of the work.
fn batch_line(bytes: usize) -> String {
    let (head, tail) = ("{\"op\":\"batch\",", "\"blocks\":[\"4801c8\"]}\n");
    let pad = " ".repeat(bytes - head.len() - tail.len());
    format!("{head}{pad}{tail}")
}

/// Write `line` in 16 KiB pieces and read the reply.
fn round_trip(tx: &mut TcpStream, rx: &mut BufReader<TcpStream>, line: &str) {
    for piece in line.as_bytes().chunks(16 << 10) {
        tx.write_all(piece).expect("piece writes");
        tx.flush().expect("flushes");
    }
    let mut reply = String::new();
    rx.read_line(&mut reply).expect("reply arrives");
    assert!(reply.starts_with("{\"ok\":true"), "{reply}");
}

#[test]
fn batch_line_in_pieces_is_served_in_linear_time() {
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.threads = 1;
    let server = Server::start(cfg).expect("server starts");
    let BoundAddr::Tcp(addr) = *server.bound() else {
        panic!("expected a TCP address");
    };
    let tx = TcpStream::connect(addr).expect("connects");
    tx.set_nodelay(true).expect("nodelay");
    let rx = BufReader::new(tx.try_clone().expect("clones"));
    let conn = RefCell::new((tx, rx));
    let trip = |line: &str| {
        let (tx, rx) = &mut *conn.borrow_mut();
        round_trip(tx, rx, line);
    };

    let (small, large) = (batch_line(64 << 10), batch_line(512 << 10));
    trip(&small); // warm the annotation cache
                  // The work runs on the server's threads, so the test reads the
                  // process's CPU clock (this binary holds this one test). The small
                  // line is timed eight times over.
    assert_ratio(
        Clock::Process,
        &format!("{} B vs {} B", large.len(), small.len()),
        16.0,
        (8, |_| trip(&small)),
        (1, |_| trip(&large)),
    );
    drop(conn);
    server.stop();
}
