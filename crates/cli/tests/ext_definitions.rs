//! A tool name defined twice — in one `--predictors` selector, in one
//! `--ext-config` file, or in both — is rejected by `facile`, `facile
//! diff` and `facile serve`: the registry keeps one tool per key, so
//! accepting the second would silently drop the first. The error names
//! the tool, and every command exits 2, the code of a bad invocation,
//! for it and for a malformed definition in the same place.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The three commands that define external tools, with the arguments
/// each needs to get as far as registering them.
const COMMANDS: [(&str, &[&str]); 3] = [
    ("facile", &["--batch"]),
    ("facile diff", &["diff", "--count", "1"]),
    (
        "facile serve",
        &["serve", "--tcp", "127.0.0.1:0", "--threads", "1"],
    ),
];

fn config(tag: &str, text: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("facile-extdef-{}-{tag}.toml", std::process::id()));
    std::fs::write(&path, text).expect("config writes");
    path
}

/// Run a command to its exit (a server that starts instead is killed
/// after 10 s) and return its exit code and stderr.
fn run(base: &[&str], predictors: &str, ext_config: Option<&PathBuf>) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_facile"));
    cmd.args(base).args(["--predictors", predictors]);
    if let Some(path) = ext_config {
        cmd.arg("--ext-config").arg(path);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn facile");
    // No blocks: a batch that gets past its definitions reads nothing.
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let out = child.wait_with_output().expect("facile exits");
    let mut stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    stderr.truncate(stderr.find("\n\n").unwrap_or(stderr.len()));
    (out.status.code(), stderr)
}

#[test]
fn a_tool_defined_twice_is_a_bad_definition_in_every_command() {
    let twice = config(
        "twice",
        "dup = \"/bin/true\"\n\n[external.dup]\ncmd = \"/bin/false\"\n",
    );
    let once = config("once", "dup = \"/bin/false\"\n");
    let malformed = config("malformed", "[external.x]\n");
    for (what, base) in COMMANDS {
        // Wherever a definition lives, the duplicate and a malformed
        // definition in the same place exit 2.
        let selector = "facile,ext:dup=/bin/true,ext:dup=/bin/false";
        let cases = [
            (
                "twice in the selector",
                (selector, None),
                ("facile,ext:bad name=/bin/true", None),
            ),
            (
                "twice in the config",
                ("facile", Some(&twice)),
                ("facile", Some(&malformed)),
            ),
            (
                "in the selector and the config",
                ("facile,ext:dup=/bin/true", Some(&once)),
                ("facile", Some(&malformed)),
            ),
        ];
        for (case, (sel, cfg), (bad_sel, bad_cfg)) in cases {
            let (code, stderr) = run(base, sel, cfg);
            let (bad_code, bad_stderr) = run(base, bad_sel, bad_cfg);
            assert_eq!(bad_code, Some(2), "{what}, {case}: {bad_stderr}");
            assert_eq!(code, Some(2), "{what}, {case}: {stderr}");
            assert!(
                stderr.contains("external predictor ext:dup is defined twice"),
                "{what}, {case}: {stderr}"
            );
        }
    }
    for path in [twice, once, malformed] {
        let _ = std::fs::remove_file(path);
    }
}
