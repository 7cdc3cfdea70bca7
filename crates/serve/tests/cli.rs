//! Byte-identity guard for the CLI's run commands.
//!
//! Drives the `vrl-cli` binary for `simulate`, `sched` and `trace` —
//! plain, checkpointed-and-halted, and resumed — and compares FNV-1a 64
//! hashes of stdout and of the `--metrics` / `--out` files against
//! constants recorded before the engine entry points were unified. Each
//! case runs in its own temporary working directory so the paths the
//! CLI prints are relative and stable. A resumed `trace` must honour
//! `--validate` and `--metrics` as a fresh one does. Resuming a
//! snapshot with the wrong subcommand must keep failing with exit code
//! 1 and its typed message. `compare` is pinned the same way (stdout
//! across pool sizes, its `--metrics` file, and a `--manifest` sweep
//! plus its re-run with the manifest's bytes), with the hashes recorded
//! before the sweep entry points were unified. `--rows 0` must be a
//! usage error (exit code 2) on every command that takes it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A per-test working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("vrl-cli-id-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work dir");
        WorkDir(dir)
    }

    fn vrl(&self, args: &str) -> Output {
        Command::new(env!("CARGO_BIN_EXE_vrl-cli"))
            .args(args.split_whitespace())
            .current_dir(&self.0)
            .env_remove("VRL_THREADS")
            .output()
            .expect("spawn vrl-cli")
    }

    /// Runs `args`, requires success, and returns the stdout hash.
    fn ok(&self, args: &str) -> u64 {
        let out = self.vrl(args);
        assert!(
            out.status.success(),
            "`vrl {args}` failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        fnv1a64(&out.stdout)
    }

    fn file(&self, name: &str) -> u64 {
        fnv1a64(&std::fs::read(self.0.join(name)).expect("output file"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SMALL: &str = "--rows 256 --duration-ms 32";

#[test]
fn simulate_output_is_pinned() {
    let w = WorkDir::new("simulate");
    let plain = w.ok(&format!("simulate ferret {SMALL}"));
    let halt = w.ok(&format!(
        "simulate ferret {SMALL} --policy vrl --checkpoint s.snap --checkpoint-every 4000000 --halt-after 1"
    ));
    let resumed = w.ok("simulate --resume s.snap");
    assert_eq!(
        [plain, halt, resumed],
        [0x3a1e2c3e93808e8b, 0x6046c843e63f1f62, 0x7dd6d12d4c797ad8],
        "simulate output changed: [{plain:#018x}, {halt:#018x}, {resumed:#018x}]"
    );
}

#[test]
fn sched_output_and_metrics_are_pinned() {
    let w = WorkDir::new("sched");
    let mut got = Vec::new();
    for (i, geometry) in ["", "--channels 2 --ranks 2 --banks 4", "--no-parallel"]
        .into_iter()
        .enumerate()
    {
        got.push(w.ok(&format!(
            "sched ferret {SMALL} {geometry} --metrics m{i}.json"
        )));
        got.push(w.file(&format!("m{i}.json")));
    }
    got.push(w.ok(&format!(
        "sched bgsave {SMALL} --channels 2 --ranks 2 --banks 4 --policy vrl-access \
         --checkpoint s.snap --checkpoint-every 4000000 --halt-after 1"
    )));
    got.push(w.ok("sched --resume s.snap --metrics r.json"));
    got.push(w.file("r.json"));
    assert_eq!(
        got,
        [
            0xab9ea6b2277237e0,
            0xf0504d83e8ae710b,
            0x499e3c2f573f7b20,
            0x7e8d5ec1c27f2b9d,
            0xe2f3d585903865be,
            0x57787350e84ffc0b,
            0x9428d4927c7c0872,
            0xe6d6c2b2be32a882,
            0xfa1813efe9a564dd,
        ],
        "sched output changed: {got:#018x?}"
    );
}

#[test]
fn trace_output_is_pinned() {
    let w = WorkDir::new("trace");
    let mut got = vec![
        w.ok(&format!(
            "trace ferret {SMALL} --out t.json --metrics m.json"
        )),
        w.file("t.json"),
        w.file("m.json"),
    ];
    got.push(w.ok(&format!(
        "trace ferret {SMALL} --out h.json --checkpoint s.snap --checkpoint-every 4000000 --halt-after 1"
    )));
    got.push(w.ok("trace --resume s.snap --out r.json"));
    got.push(w.file("r.json"));
    assert_eq!(
        got,
        [
            0xed9a45681fde20f4,
            0x0df60ca074c298ff,
            0x02e0139b6cda6295,
            0x4933fbd69d977de5,
            0x7b493fa785851455,
            0x0df60ca074c298ff,
        ],
        "trace output changed: {got:#018x?}"
    );
    assert!(
        !w.0.join("h.json").exists(),
        "a halted trace writes no --out file"
    );
}

#[test]
fn resumed_trace_honours_validate_and_metrics() {
    let w = WorkDir::new("trace-flags");
    let fresh = w.vrl(&format!(
        "trace ferret {SMALL} --out t.json --metrics m.json --validate"
    ));
    assert!(fresh.status.success());
    w.ok(&format!(
        "trace ferret {SMALL} --out h.json --checkpoint s.snap --checkpoint-every 4000000 --halt-after 1"
    ));
    let resumed = w.vrl("trace --resume s.snap --out r.json --metrics rm.json --validate");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let fresh = String::from_utf8(fresh.stdout).expect("utf-8");
    let resumed = String::from_utf8(resumed.stdout).expect("utf-8");
    assert!(fresh.contains("valid Chrome trace: "), "{fresh}");
    let renamed = fresh
        .replace("-> t.json", "-> r.json")
        .replace("to m.json", "to rm.json");
    assert!(
        resumed.ends_with(&renamed),
        "resumed:\n{resumed}\nfresh:\n{fresh}"
    );
    assert_eq!(w.file("r.json"), w.file("t.json"));
    assert_eq!(w.file("rm.json"), w.file("m.json"));
}

const COMPARE: &str = "compare --rows 256 --duration-ms 64";

#[test]
fn compare_output_metrics_and_manifest_are_pinned() {
    let w = WorkDir::new("compare");
    let got = [
        w.ok(&format!("{COMPARE} --threads 1")),
        w.ok(&format!("{COMPARE} --threads 3 --metrics m.json")),
        w.file("m.json"),
        w.ok(&format!("{COMPARE} --threads 2 --manifest c.snap")),
        w.file("c.snap"),
        w.ok(&format!("{COMPARE} --threads 2 --manifest c.snap")),
        w.file("c.snap"),
    ];
    assert_eq!(
        got,
        [
            0xe4e01e17ca806dc7,
            0xc989a3957b261b53,
            0x99768e954184bbd7,
            0x27f77e882708c384,
            0x00cc0a02a23ffcb3,
            0x27f77e882708c384,
            0x00cc0a02a23ffcb3,
        ],
        "compare output changed: {got:#018x?}"
    );

    // A manifest written at another bank size is refused, and left as
    // it was.
    let out = w.vrl("compare --rows 128 --duration-ms 64 --threads 2 --manifest c.snap");
    assert_eq!(out.status.code(), Some(1), "mismatched manifest exit code");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "checkpoint belongs to a different run: manifest experiment configuration differs\n"
    );
    assert_eq!(w.file("c.snap"), got[4]);
}

#[test]
fn resuming_with_the_wrong_subcommand_is_a_typed_failure() {
    let w = WorkDir::new("wrong");
    w.ok(&format!(
        "simulate ferret {SMALL} --policy vrl --checkpoint sim.snap --checkpoint-every 4000000 --halt-after 1"
    ));
    w.ok(&format!(
        "sched ferret {SMALL} --policy vrl --checkpoint sched.snap --checkpoint-every 4000000 --halt-after 1"
    ));
    for (args, message) in [
        (
            "sched --resume sim.snap",
            "error: sim.snap is not a scheduler snapshot (try `vrl simulate --resume`)\n",
        ),
        (
            "simulate --resume sched.snap",
            "error: sched.snap is not a simulator snapshot (try `vrl sched --resume`)\n",
        ),
        (
            "trace --resume sched.snap",
            "error: sched.snap is not a traced scheduler snapshot\n",
        ),
        (
            "trace --resume sim.snap",
            "error: sim.snap is not a traced scheduler snapshot\n",
        ),
    ] {
        let out = w.vrl(args);
        assert_eq!(out.status.code(), Some(1), "`vrl {args}` exit code");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            message,
            "`vrl {args}` stderr"
        );
    }
}

#[test]
fn zero_rows_is_a_usage_error() {
    let w = WorkDir::new("rows0");
    for args in [
        "plan --rows 0",
        "simulate ferret --rows 0",
        "compare --rows 0",
        "sched ferret --rows 0",
        "trace ferret --rows 0",
    ] {
        let out = w.vrl(args);
        assert_eq!(out.status.code(), Some(2), "`vrl {args}` exit code");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("usage error: --rows got an invalid value \"0\""),
            "`vrl {args}` stderr: {stderr}"
        );
    }
}
