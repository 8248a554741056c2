//! End-to-end tests of the `cestim` CLI binary.

use std::process::Command;

fn cestim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cestim"))
}

#[test]
fn usage_exits_nonzero() {
    let out = cestim().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn workloads_lists_all_eight() {
    let out = cestim().arg("workloads").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "compress", "gcc", "perl", "go", "m88ksim", "xlisp", "vortex", "ijpeg",
    ] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn runs_an_assembly_file_with_estimators() {
    let dir = std::env::temp_dir().join("cestim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let asm = dir.join("prog.s");
    std::fs::write(
        &asm,
        "; tiny loop\n.data xs: 2 4 6 8\n  li s0, xs\n  li t0, 0\nloop:\n  add t1, s0, t0\n  lw t2, 0(t1)\n  add u4, u4, t2\n  addi t0, t0, 1\n  slti t3, t0, 4\n  bnez t3, loop\n  halt\n",
    )
    .unwrap();
    let out = cestim()
        .args(["run", "--asm"])
        .arg(&asm)
        .args(["--estimator", "satctr", "--estimator", "distance:2"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("satctr"));
    assert!(text.contains("distance(>2)"));
    assert!(text.contains("accuracy"));
}

#[test]
fn json_output_is_machine_readable() {
    let out = cestim()
        .args([
            "run",
            "--workload",
            "compress",
            "--estimator",
            "jrs",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert_eq!(v["predictor"], "gshare");
    assert!(v["stats"]["committed_insts"].as_u64().unwrap() > 0);
    assert_eq!(v["estimators"][0]["name"], "jrs(4096x4b,t>=15,enh)");
}

#[test]
fn disasm_prints_instructions() {
    let out = cestim()
        .args(["run", "--workload", "nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    let out = cestim()
        .args(["disasm", "--workload", "m88ksim"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("halt"));
    assert!(text.lines().count() > 50);
}

#[test]
fn profile_estimators_rejected_for_asm_input() {
    let dir = std::env::temp_dir().join("cestim-cli-test2");
    std::fs::create_dir_all(&dir).unwrap();
    let asm = dir.join("p.s");
    std::fs::write(&asm, "halt\n").unwrap();
    let out = cestim()
        .args(["run", "--asm"])
        .arg(&asm)
        .args(["--estimator", "static:0.9"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload"));
}

#[test]
fn zero_gate_threshold_is_a_usage_error() {
    let out = cestim()
        .args("run --workload compress --scale 1 --gate 0".split(' '))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gate_threshold"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
