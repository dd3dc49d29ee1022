//! End-to-end tests of the `sss` command-line tool.

use std::io::Write;
use std::process::Command;

fn write_keys(path: &std::path::Path, keys: impl IntoIterator<Item = u64>) {
    let mut f = std::fs::File::create(path).unwrap();
    for k in keys {
        writeln!(f, "{k}").unwrap();
    }
}

fn sss() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sss"))
}

#[test]
fn selfjoin_with_exact_reports_error() {
    let dir = std::env::temp_dir().join("sss-cli-test-selfjoin");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, (0..60_000u64).map(|i| i % 300));
    let out = sss()
        .args([
            "selfjoin",
            file.to_str().unwrap(),
            "--p=0.5",
            "--exact",
            "--seed=7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tuples     60000"), "stdout: {stdout}");
    assert!(
        stdout.contains("exact      12000000.00"),
        "stdout: {stdout}"
    );
    // The reported relative error should be small at p = 0.5 / 5000 buckets.
    let err_line = stdout.lines().find(|l| l.starts_with("rel_error")).unwrap();
    let pct: f64 = err_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .trim_end_matches('%')
        .parse()
        .unwrap();
    assert!(pct < 10.0, "reported error {pct}%");
}

#[test]
fn join_command_runs() {
    let dir = std::env::temp_dir().join("sss-cli-test-join");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("f.txt");
    let g = dir.join("g.txt");
    write_keys(&f, (0..20_000u64).map(|i| i % 200));
    write_keys(&g, (0..30_000u64).map(|i| i % 300));
    let out = sss()
        .args(["join", f.to_str().unwrap(), g.to_str().unwrap(), "--exact"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Exact join: 200 overlapping keys × 100 × 100 = 2,000,000.
    assert!(stdout.contains("exact      2000000.00"), "stdout: {stdout}");
}

#[test]
fn confidence_flag_prints_both_intervals() {
    let dir = std::env::temp_dir().join("sss-cli-test-confidence");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, (0..60_000u64).map(|i| i % 300));
    let out = sss()
        .args([
            "selfjoin",
            file.to_str().unwrap(),
            "--p=0.5",
            "--seed=7",
            "--confidence=0.95",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The point estimate is unchanged by the flag, and each bound gets an
    // interval line centered on it.
    let est_line = stdout.lines().find(|l| l.starts_with("estimate")).unwrap();
    let est = est_line.split_whitespace().nth(1).unwrap();
    let intervals: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("interval"))
        .collect();
    assert_eq!(intervals.len(), 2, "stdout: {stdout}");
    assert!(intervals[0].contains("[chebyshev 95%]"), "stdout: {stdout}");
    assert!(intervals[1].contains("[clt 95%]"), "stdout: {stdout}");
    for line in &intervals {
        assert!(line.contains(est), "interval not centered: {line}");
        assert!(line.contains('±'), "no half-width: {line}");
    }

    // A Chebyshev interval is never tighter than the CLT interval at the
    // same level.
    let half = |line: &str| -> f64 {
        line.split('±')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(half(intervals[0]) >= half(intervals[1]), "stdout: {stdout}");

    // Out-of-range and malformed levels are usage errors.
    for bad in ["--confidence=1.5", "--confidence=0", "--confidence=maybe"] {
        let out = sss()
            .args(["selfjoin", file.to_str().unwrap(), bad])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad} should be a usage error");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--confidence"),
            "{bad}: stderr should explain the flag"
        );
    }
}

#[test]
fn bad_usage_and_bad_files_fail_cleanly() {
    let out = sss().output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no args → usage");
    let out = sss().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown command → usage");
    let out = sss()
        .args(["selfjoin", "/definitely/not/a/file"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "missing file → failure");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Non-numeric content is rejected with a location.
    let dir = std::env::temp_dir().join("sss-cli-test-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bad.txt");
    std::fs::write(&file, "1 2 three 4").unwrap();
    let out = sss()
        .args(["selfjoin", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("three"));
}

#[test]
fn topk_reports_heavy_keys_with_recall() {
    let dir = std::env::temp_dir().join("sss-cli-test-topk");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    // Key k (0..10) appears 2^(9-k)·50 times: a sharply skewed stream.
    write_keys(
        &file,
        (0..10u64).flat_map(|k| std::iter::repeat(k).take((1usize << (9 - k)) * 50)),
    );
    let out = sss()
        .args([
            "topk",
            file.to_str().unwrap(),
            "--k=3",
            "--p=0.5",
            "--seed=7",
            "--exact",
            "--confidence=0.95",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The heaviest key leads the ranking with its exact count beside it.
    let top1 = stdout.lines().find(|l| l.starts_with("top1")).unwrap();
    assert!(top1.contains("key 0:"), "stdout: {stdout}");
    assert!(stdout.contains("(exact 25600)"), "stdout: {stdout}");
    assert!(stdout.contains("[clt 95%]"), "stdout: {stdout}");
    // On a 2× separated spectrum the sampled top-3 is exact.
    assert!(
        stdout.contains("recall     1.0000 (3/3 of the exact top-3)"),
        "stdout: {stdout}"
    );
}

#[test]
fn distinct_estimates_cardinality() {
    let dir = std::env::temp_dir().join("sss-cli-test-distinct");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    // 5000 distinct keys, four occurrences each.
    write_keys(&file, (0..20_000u64).map(|i| i % 5000));
    let out = sss()
        .args([
            "distinct",
            file.to_str().unwrap(),
            "--exact",
            "--confidence=0.95",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exact      5000.00"), "stdout: {stdout}");
    assert!(stdout.contains("[chebyshev 95%]"), "stdout: {stdout}");
    let err_line = stdout.lines().find(|l| l.starts_with("rel_error")).unwrap();
    let pct: f64 = err_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .trim_end_matches('%')
        .parse()
        .unwrap();
    // Precision 12 → ±1.6% standard error; 10% is many sigmas out.
    assert!(pct < 10.0, "reported error {pct}%");
}

#[test]
fn quantiles_report_rank_envelopes() {
    let dir = std::env::temp_dir().join("sss-cli-test-quantiles");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, 0..100_000u64);
    let out = sss()
        .args(["quantiles", file.to_str().unwrap(), "--exact", "--seed=5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One line per default quantile, each with an envelope and the truth.
    for q in ["q0.5", "q0.95", "q0.99"] {
        let line = stdout.lines().find(|l| l.starts_with(q)).unwrap();
        assert!(line.contains('∈') && line.contains("(exact "), "{line}");
    }
    // The median of 0..100_000 is ~50_000; rank error 2.296/200^0.9433
    // ≈ 1.6% → the estimate must land within a few thousand.
    let median: f64 = stdout
        .lines()
        .find(|l| l.starts_with("q0.5"))
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!((median - 50_000.0).abs() < 5_000.0, "median {median}");
    // `--at=` narrows the report to the one requested rank.
    let out = sss()
        .args(["quantiles", file.to_str().unwrap(), "--at=0.25"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("q0.25"), "stdout: {stdout}");
    assert!(!stdout.contains("q0.95"), "stdout: {stdout}");
}

#[test]
fn multi_answers_all_families_in_one_pass() {
    let dir = std::env::temp_dir().join("sss-cli-test-multi");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    // 1000 background keys × 20, plus key 7 another 20_000 times.
    write_keys(
        &file,
        (0..20_000u64)
            .map(|i| i % 1000)
            .chain(std::iter::repeat(7).take(20_000)),
    );
    let out = sss()
        .args([
            "multi",
            file.to_str().unwrap(),
            "--p=0.5",
            "--k=1",
            "--seed=3",
            "--exact",
            "--confidence=0.95",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Roughly half the stream was sketched, yet every family answers.
    for prefix in ["self_join", "distinct", "median", "p99", "top1"] {
        assert!(
            stdout.lines().any(|l| l.starts_with(prefix)),
            "missing {prefix}: {stdout}"
        );
    }
    assert!(stdout.contains("[chebyshev 95%]"), "stdout: {stdout}");
    let top1 = stdout.lines().find(|l| l.starts_with("top1")).unwrap();
    assert!(top1.contains("key 7:"), "stdout: {stdout}");
    assert!(top1.contains("(exact 20020)"), "stdout: {stdout}");
}

#[test]
fn topk_rejects_p_zero_loudly() {
    let dir = std::env::temp_dir().join("sss-cli-test-topk-p0");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, 0..100u64);
    // p = 0 must be a loud runtime failure (nothing could ever be
    // sampled), not a silent all-zero answer.
    let out = sss()
        .args(["topk", file.to_str().unwrap(), "--p=0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "p = 0 → runtime failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("probability") && stderr.contains('0'),
        "stderr should name the bad probability: {stderr}"
    );
    // The join paths reject it identically.
    let out = sss()
        .args(["selfjoin", file.to_str().unwrap(), "--p=0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// Golden output: the exact stdout of `selfjoin`, `join` and `multi` on
/// fixed key files and seeds. The other tests check shapes and bounds;
/// this one pins every printed digit of the estimate and interval lines,
/// so a refactor of the query path cannot silently change an answer.
#[test]
fn estimate_and_interval_lines_are_pinned() {
    let dir = std::env::temp_dir().join("sss-cli-test-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("f.txt");
    let g = dir.join("g.txt");
    write_keys(
        &f,
        (0..40_000u64)
            .map(|i| (i * 7919) % 500)
            .chain(std::iter::repeat(7).take(5_000)),
    );
    write_keys(&g, (0..30_000u64).map(|i| (i * 104_729) % 800));
    let (f, g) = (f.to_str().unwrap(), g.to_str().unwrap());
    let golden: [(&[&str], &str); 3] = [
        (
            &["selfjoin", f, "--p=0.5", "--seed=7"],
            "\
tuples     45000
sketched   22389
estimate   27827370.00
interval   27827370.00 ± 3426719.18 [chebyshev 95%]
interval   27827370.00 ± 1501798.30 [clt 95%]
exact      29000000.00
rel_error  4.0436%
",
        ),
        (
            &["join", f, g, "--p=0.5", "--q=0.25", "--seed=3"],
            "\
tuples     45000 ⋈ 30000
sketched   22590 + 7503
estimate   1736032.00
interval   1736032.00 ± 1429109.90 [chebyshev 95%]
interval   1736032.00 ± 626323.52 [clt 95%]
exact      1689920.00
rel_error  2.7286%
",
        ),
        (
            &["multi", f, "--p=0.5", "--k=3", "--seed=3"],
            "\
tuples     45000
sketched   22384
self_join  28478768.00
interval   28478768.00 ± 3486707.61 [chebyshev 95%]
interval   28478768.00 ± 1528088.91 [clt 95%]
           (exact 29000000.00)
distinct   494.71
           (exact 500)
median     213.00 ∈ [202.00, 229.00]
p99        493.00 ∈ [482.00, 499.00]
top1       key 7: 5032.00 (exact 5080)
top2       key 242: 162.00 (exact 80)
top3       key 219: 138.00 (exact 80)
",
        ),
    ];
    for (args, expected) in golden {
        let out = sss()
            .args(args)
            .args(["--exact", "--confidence=0.95"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert_eq!(String::from_utf8(out.stdout).unwrap(), expected, "{args:?}");
    }
}
