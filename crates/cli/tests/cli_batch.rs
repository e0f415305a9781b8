//! Golden tests for the CLI's machine-readable batch output: the exact
//! bytes must be stable (they are diffed by downstream tooling) and
//! independent of the worker-thread count.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_facile(args: &[&str], stdin: &str) -> (String, String, bool) {
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
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.success(),
    )
}

const BATCH_INPUT: &str = "\
# comment lines and blanks are skipped

4801c8480fafd0
4801c8,12.34
zznothex
49ffcb75fb
";

#[test]
fn batch_json_golden() {
    let (stdout, stderr, ok) = run_facile(
        &["--batch", "--predictors", "facile", "--json"],
        BATCH_INPUT,
    );
    assert!(ok, "stderr: {stderr}");
    let expected = "\
{\"block\":\"4801c8480fafd0\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"facile\",\"status\":\"ok\",\"throughput\":3.0000,\"bottleneck\":\"Precedence\"}
{\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"facile\",\"status\":\"ok\",\"throughput\":1.0000,\"bottleneck\":\"Precedence\"}
{\"block\":\"zznothex\",\"uarch\":\"SKL\",\"mode\":\"\",\"predictor\":\"facile\",\"status\":\"error\",\"code\":\"bad-hex\",\"error\":\"not a hex-encoded block: \\\"zznothex\\\"\"}
{\"block\":\"49ffcb75fb\",\"uarch\":\"SKL\",\"mode\":\"tpl\",\"predictor\":\"facile\",\"status\":\"ok\",\"throughput\":1.0000,\"bottleneck\":\"DSB\"}
";
    assert_eq!(stdout, expected);
}

#[test]
fn batch_csv_golden() {
    let (stdout, stderr, ok) =
        run_facile(&["--batch", "--predictors", "facile", "--csv"], BATCH_INPUT);
    assert!(ok, "stderr: {stderr}");
    let expected = "\
block,uarch,mode,predictor,status,throughput,bottleneck,error
4801c8480fafd0,SKL,tpu,facile,ok,3.0000,Precedence,
4801c8,SKL,tpu,facile,ok,1.0000,Precedence,
zznothex,SKL,,facile,bad-hex,,,\"not a hex-encoded block: \"\"zznothex\"\"\"
49ffcb75fb,SKL,tpl,facile,ok,1.0000,DSB,
";
    assert_eq!(stdout, expected);
}

/// `n` generated benchmarks as input lines (each unrolled and looped),
/// with an undecodable line after every seventh.
fn suite_input(n: usize, seed: u64) -> String {
    let mut input = String::new();
    for b in facile_bhive::generate_suite(n, seed) {
        input.push_str(&b.unrolled.to_hex());
        input.push('\n');
        input.push_str(&b.looped.to_hex());
        input.push('\n');
        if b.id % 7 == 0 {
            input.push_str("deadbeefdeadbeefff\n"); // undecodable
        }
    }
    input
}

#[test]
fn batch_output_is_identical_across_thread_counts() {
    // A bigger batch (including error lines) must produce byte-identical
    // output on one thread and on many.
    let input = suite_input(50, 1234);
    let args_base = ["--batch", "--predictors", "facile,sim", "--json"];
    let (one, _, ok1) = run_facile(&[&args_base[..], &["--threads", "1"]].concat(), &input);
    let (many, _, ok8) = run_facile(&[&args_base[..], &["--threads", "8"]].concat(), &input);
    assert!(ok1 && ok8);
    assert_eq!(one, many);
    let rows = one.lines().count();
    assert_eq!(rows, (100 + 8) * 2, "one row per (block, predictor)");

    // Streams of more than one 4,096-item CLI chunk, whose rows cross
    // several fixed-size output flushes: explained JSON rows (~1.5 KB
    // each) and all-uarch CSV rows.
    let big = suite_input(2_100, 99);
    // The first 460 lines: 4,140 items on nine uarchs.
    let head = &big[..=big.match_indices('\n').nth(459).expect("460 lines").0];
    let cases: [(&[&str], &str, usize); 2] = [
        (
            &["--batch", "--explain", "--format", "json"],
            &big,
            big.lines().count(),
        ),
        (
            &["--batch", "--all-uarchs", "--format", "csv"],
            head,
            9 * 460 + 1,
        ),
    ];
    for (args, input, rows) in cases {
        let (one, err1, ok1) = run_facile(&[args, &["--threads", "1"]].concat(), input);
        let (many, err8, ok8) = run_facile(&[args, &["--threads", "8"]].concat(), input);
        assert!(ok1 && ok8, "{args:?}: {err1} {err8}");
        assert_eq!(one.lines().count(), rows, "{args:?}");
        assert!(one.len() > 3 * 64 * 1024, "{args:?}: {} bytes", one.len());
        assert!(one == many, "{args:?}: output depends on the thread count");
    }
}

#[test]
fn batch_thousand_blocks_no_panics() {
    // Acceptance criterion: >= 1000 blocks through stdin, one row per
    // (block, predictor), no panics on undecodable input.
    let mut input = String::new();
    let suite = facile_bhive::generate_suite(500, 77);
    for b in &suite {
        input.push_str(&b.unrolled.to_hex());
        input.push('\n');
        input.push_str(&b.looped.to_hex());
        input.push('\n');
    }
    input.push_str("zz\n0f0b\n"); // junk: non-hex, then an unsupported opcode (ud2)
    let (stdout, stderr, ok) = run_facile(&["--batch", "--predictors", "facile", "--json"], &input);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.lines().count(), 1002);
    let errors = stdout
        .lines()
        .filter(|l| l.contains("\"status\":\"error\""))
        .count();
    assert_eq!(errors, 2);
    assert!(!stderr.contains("panic"), "{stderr}");
}

#[test]
fn unknown_predictor_selector_fails_cleanly() {
    let (_, stderr, ok) = run_facile(&["--batch", "--predictors", "uica", "--json"], "4801c8\n");
    assert!(!ok);
    assert!(stderr.contains("no predictor matches"), "{stderr}");
}

#[test]
fn single_block_json_uses_the_same_row_format() {
    let (stdout, stderr, ok) = run_facile(
        &[
            "--hex",
            "4801c8480fafd0",
            "--json",
            "--predictors",
            "facile,sim",
        ],
        "",
    );
    assert!(ok, "stderr: {stderr}");
    let expected = "\
{\"block\":\"4801c8480fafd0\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"facile\",\"status\":\"ok\",\"throughput\":3.0000,\"bottleneck\":\"Precedence\"}
{\"block\":\"4801c8480fafd0\",\"uarch\":\"SKL\",\"mode\":\"tpu\",\"predictor\":\"sim\",\"status\":\"ok\",\"throughput\":3.0000,\"bottleneck\":null}
";
    assert_eq!(stdout, expected);
}

#[test]
fn format_flag_matches_deprecated_aliases() {
    // `--format json`/`--format csv` must be byte-identical on stdout to
    // the deprecated `--json`/`--csv` aliases (which stay supported).
    for (new_flag, old_flag) in [
        (&["--format", "json"][..], "--json"),
        (&["--format", "csv"][..], "--csv"),
    ] {
        let (new_out, _, ok_new) = run_facile(
            &[&["--batch", "--predictors", "facile"], new_flag].concat(),
            BATCH_INPUT,
        );
        let (old_out, old_err, ok_old) = run_facile(
            &["--batch", "--predictors", "facile", old_flag],
            BATCH_INPUT,
        );
        assert!(ok_new && ok_old);
        assert_eq!(new_out, old_out);
        assert!(old_err.contains("deprecated"), "{old_err}");
    }
}

#[test]
fn explain_json_rows_carry_structured_explanations() {
    let (stdout, stderr, ok) = run_facile(
        &[
            "--batch",
            "--predictors",
            "facile",
            "--explain",
            "--format",
            "json",
        ],
        "4801c8480fafd0\n49ffcb75fb\n",
    );
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in &lines {
        assert!(line.contains("\"explanation\":{"), "{line}");
        assert!(line.contains("\"bounds\":[{\"component\":"), "{line}");
        assert!(line.contains("\"critical_chain\":[{\"inst\":"), "{line}");
        assert!(line.contains("\"port_loads\":[{\"ports\":"), "{line}");
        assert!(line.contains("\"front_end\":"), "{line}");
    }
    // The TPU row decodes through MITE, the short loop through the DSB.
    assert!(lines[0].contains("\"front_end\":\"MITE\""), "{}", lines[0]);
    assert!(lines[1].contains("\"front_end\":\"DSB\""), "{}", lines[1]);

    // Without --explain the rows carry no explanation object but still
    // have the bottleneck column.
    let (brief, _, ok) = run_facile(
        &["--batch", "--predictors", "facile", "--format", "json"],
        "4801c8480fafd0\n",
    );
    assert!(ok);
    assert!(!brief.contains("explanation"));
    assert!(brief.contains("\"bottleneck\":\"Precedence\""));
}

#[test]
fn explain_csv_appends_an_explanation_column() {
    let (stdout, stderr, ok) = run_facile(
        &[
            "--batch",
            "--predictors",
            "facile",
            "--explain",
            "--format",
            "csv",
        ],
        "4801c8\nzznothex\n",
    );
    assert!(ok, "stderr: {stderr}");
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next().unwrap(),
        "block,uarch,mode,predictor,status,throughput,bottleneck,error,explanation"
    );
    let ok_row = lines.next().unwrap();
    assert!(
        ok_row.starts_with("4801c8,SKL,tpu,facile,ok,1.0000,Precedence,,"),
        "{ok_row}"
    );
    assert!(ok_row.contains("critical_chain"), "{ok_row}");
    // Error rows keep the column (empty).
    let err_row = lines.next().unwrap();
    assert!(err_row.ends_with(','), "{err_row}");
}

#[test]
fn explain_text_batch_rows_get_indented_summaries() {
    let (stdout, stderr, ok) = run_facile(
        &["--batch", "--predictors", "facile", "--explain"],
        "4801c8480fafd0\n",
    );
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("    front end: MITE; bottleneck: Precedence"),
        "{stdout}"
    );
    assert!(stdout.contains("    bounds: "), "{stdout}");
    assert!(stdout.contains("    chain: [rdx]@1+3.00/carry"), "{stdout}");
}

/// Blocks whose explanations cover every spelling the row writer has:
/// a non-dyadic bound (0.666…, the float fallback), memory chain values
/// with index, scale and a negative displacement, flag and vector chain
/// values, `-0` chain latencies, an error row, and the MITE, DSB (SKL)
/// and LSD (HSW) front ends.
const EXPLAIN_INPUT: &str = "\
4885d14939d2
41314cdd18410fb6c049ffcb75f2
4889c849093c24
4d0946f8498d4d0089da4983fb0077f0
4839fb4d8b54f5000f92c3
f20f5cddc5db58e549ffcb75f3
zznothex
";

#[test]
fn explain_rows_golden() {
    let cases = [
        (
            &["--format", "json", "--uarch", "SKL"][..],
            include_str!("golden/explain_skl.json"),
            "explain_skl.json",
        ),
        (
            &["--format", "csv", "--uarch", "HSW"][..],
            include_str!("golden/explain_hsw.csv"),
            "explain_hsw.csv",
        ),
    ];
    for (args, golden, file) in cases {
        let args = [
            &["--batch", "--predictors", "facile", "--explain"][..],
            args,
        ]
        .concat();
        let (stdout, stderr, ok) = run_facile(&args, EXPLAIN_INPUT);
        assert!(ok, "stderr: {stderr}");
        assert!(
            stdout == golden,
            "explain rows drifted from crates/cli/tests/golden/{file}; if the change is \
             intended, regenerate with `facile {}` on the test's input",
            args.join(" ")
        );
    }
    let json = include_str!("golden/explain_skl.json");
    for needle in [
        "\"front_end\":\"MITE\"",
        "\"front_end\":\"DSB\"",
        "\"value\":\"[r14+0xfffffff8]\"",
        "\"value\":\"[r13+rbx*8+0x18]\"",
        "\"value\":\"CF\"",
        "\"chain_latency\":0}",
        "0.6666666666666666",
        "\"status\":\"error\"",
    ] {
        assert!(json.contains(needle), "golden lacks {needle}");
    }
    assert!(include_str!("golden/explain_hsw.csv").contains("\"\"front_end\"\":\"\"LSD\"\""));
}
