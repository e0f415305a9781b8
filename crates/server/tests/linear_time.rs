//! Serving a request line takes time linear in its length: a 512 KiB
//! `batch` line, written in 16 KiB pieces, takes at most 16× as long as
//! a 64 KiB one (linear code gives 8×). This pins the connection
//! loop's newline scan, which resumes where the last read's scan
//! stopped: rescanning from byte 0 after every read gives about 20×
//! here. The string decoder's own ratio tests live in `json.rs`.

use facile_server::{BoundAddr, Endpoint, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

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

/// Minimum over several samples of `reps` back-to-back round trips.
fn min_secs(tx: &mut TcpStream, rx: &mut BufReader<TcpStream>, line: &str, reps: u32) -> f64 {
    (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                round_trip(tx, rx, line);
            }
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn batch_line_in_pieces_is_served_in_linear_time() {
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.threads = 1;
    let server = Server::start(cfg).expect("server starts");
    let BoundAddr::Tcp(addr) = *server.bound() else {
        panic!("expected a TCP address");
    };
    let mut tx = TcpStream::connect(addr).expect("connects");
    tx.set_nodelay(true).expect("nodelay");
    let mut rx = BufReader::new(tx.try_clone().expect("clones"));

    let (small, large) = (batch_line(64 << 10), batch_line(512 << 10));
    round_trip(&mut tx, &mut rx, &small); // warm the annotation cache
                                          // The small line is timed eight times over, so both samples last
                                          // about as long and a preempted run is as likely in either.
    let t_small = min_secs(&mut tx, &mut rx, &small, 8) / 8.0;
    let t_large = min_secs(&mut tx, &mut rx, &large, 1);
    drop((tx, rx));
    server.stop();
    let ratio = t_large / t_small;
    assert!(
        ratio <= 16.0,
        "{} B took {t_large:.6} s, {} B took {t_small:.6} s: ratio {ratio:.1} > 16",
        large.len(),
        small.len()
    );
}
