//! `horus-check bridge` on input that is not a trace: exit 1 and a message,
//! never a panic (exit 101).

use std::process::Command;

fn bridge(name: &str, bytes: &[u8]) -> (Option<i32>, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, bytes).expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_horus-check"))
        .arg("bridge")
        .arg(&path)
        .output()
        .expect("run horus-check");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn garbage_is_refused_with_a_message() {
    for (name, bytes) in [
        ("noise.trace", &[0xFF, 0x00, 0x80, 0x80, 0x80][..]),
        ("v1.trace", &b"# horus-trace v1\nt=1 ep=1 vc=- inject-crash\n"[..]),
        ("truncated.trace", &b"# horus-trace v2\n\x00\x05\x04\x0d"[..]),
        // A well-formed trace that carries no bridge metadata.
        ("bare.trace", &b"# horus-trace v2\n\x00\x00"[..]),
    ] {
        let (code, stderr) = bridge(name, bytes);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("cannot ") && !stderr.contains("panicked"), "{name}: {stderr}");
    }
    let (_, stderr) = bridge("v1.trace", b"# horus-trace v1\n");
    assert!(stderr.contains("v1 text traces are no longer read; re-capture"), "{stderr}");
}
