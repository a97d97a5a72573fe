//! End-to-end tests of the `hpfsc` driver binary: exit codes, lint
//! reporting, JSON diagnostics, and argument validation.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn hpfsc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpfsc")).args(args).output().expect("spawn hpfsc")
}

/// Write a preset's source to a temp file of its own. Tests run on parallel
/// threads of one process, so the pid alone does not separate them: each
/// call also takes a fresh sequence number.
fn write_preset(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let out = hpfsc(&["--print-input", name]);
    assert!(out.status.success(), "--print-input {name} failed");
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    let file = format!("hpfsc-cli-{}-{seq}-{name}.f90", std::process::id());
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

const PRESETS: [&str; 7] = [
    "five-point",
    "nine-point-cshift",
    "nine-point-array",
    "problem9",
    "jacobi",
    "image-blur",
    "wave2d",
];

#[test]
fn print_input_needs_no_file_and_prints_source() {
    let out = hpfsc(&["--print-input", "problem9:8"]);
    assert_eq!(out.status.code(), Some(0));
    let src = String::from_utf8(out.stdout).unwrap();
    assert!(src.contains("PROGRAM problem9"), "{src}");
    assert!(src.contains("PARAM N = 8"), "{src}");
}

#[test]
fn unknown_preset_is_a_usage_error() {
    let out = hpfsc(&["--print-input", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset 'nope'"));
}

#[test]
fn unknown_flag_reports_the_flag() {
    let out = hpfsc(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unrecognized option '--frobnicate'"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_exits_zero_and_documents_every_flag() {
    let out = hpfsc(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    for flag in [
        "--stage",
        "--emit",
        "--lint",
        "--deny-warnings",
        "--run",
        "--grid",
        "--halo",
        "--engine",
        "--print-input",
        "--naive",
        "--drop-shift",
    ] {
        assert!(text.contains(flag), "usage omits {flag}");
    }
}

#[test]
fn presets_lint_clean_under_deny_warnings() {
    for name in PRESETS {
        let path = write_preset(name);
        let out = hpfsc(&[path.to_str().unwrap(), "--lint", "--deny-warnings"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name} not lint-clean: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn planted_uncovered_ghost_read_exits_4_with_span() {
    let path = write_preset("problem9");
    let out = hpfsc(&[path.to_str().unwrap(), "--lint", "--drop-shift", "0"]);
    assert_eq!(out.status.code(), Some(4), "lint errors must exit 4");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("HS001"), "stderr: {text}");
    assert!(text.contains("uncovered ghost read"), "stderr: {text}");
    // A source span in line:col form anchors the diagnostic.
    assert!(
        text.lines().any(|l| l.contains("error[HS001]") && l.contains(':')),
        "no span on HS001: {text}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn diag_json_is_machine_readable_and_exits_4_on_errors() {
    let path = write_preset("problem9");
    let out = hpfsc(&[path.to_str().unwrap(), "--emit", "diag-json", "--drop-shift", "0"]);
    assert_eq!(out.status.code(), Some(4));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.trim_start().starts_with('['), "{json}");
    assert!(json.contains("\"code\":\"HS001\""), "{json}");
    assert!(json.contains("\"span\":{\"line\":"), "{json}");
    // Clean program: empty array, exit 0.
    let out = hpfsc(&[path.to_str().unwrap(), "--emit", "diag-json"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[]");
    let _ = std::fs::remove_file(path);
}

#[test]
fn dropped_shift_fails_the_verified_run() {
    let path = write_preset("problem9");
    let ok = hpfsc(&[path.to_str().unwrap(), "--run", "--emit", "stats"]);
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));
    let bad = hpfsc(&[path.to_str().unwrap(), "--run", "--emit", "stats", "--drop-shift", "0"]);
    assert_eq!(bad.status.code(), Some(1), "corrupted kernel must fail verification");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("verification failed"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn bad_engine_names_the_flag_and_lists_choices() {
    let out = hpfsc(&["--engine", "warp9"]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--engine"), "stderr must name the flag: {text}");
    assert!(text.contains("'warp9'"), "stderr must echo the bad value: {text}");
    for choice in ["seq", "threaded", "interp", "bytecode"] {
        assert!(text.contains(choice), "stderr must list choice {choice}: {text}");
    }
}

#[test]
fn engine_accepts_backend_and_combined_forms() {
    let path = write_preset("five-point");
    for spec in ["seq", "threaded", "interp", "bytecode", "seq-bytecode", "threaded-bytecode"] {
        let out = hpfsc(&[path.to_str().unwrap(), "--run", "--emit", "stats", "--engine", spec]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--engine {spec} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // The bytecode backend reports its kernel counters in the run summary.
    let out = hpfsc(&[path.to_str().unwrap(), "--run", "--emit", "stats", "--engine", "bytecode"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kernels compiled"), "{text}");
    assert!(text.contains("kernel execs"), "{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn missing_file_is_an_io_error() {
    let out = hpfsc(&["/nonexistent/kernel.f90"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
