//! Every harness binary rejects a mistyped flag before doing any work:
//! exit 1 with an `Error: unknown flag` line. A typo such as `--smok`
//! must never fall through to the default (paper-scale) run.

use std::process::Command;

#[test]
fn every_harness_bin_rejects_a_typo_with_exit_1() {
    for (bin, exe) in [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("diag", env!("CARGO_BIN_EXE_diag")),
        ("fig2_iv", env!("CARGO_BIN_EXE_fig2_iv")),
        ("fig3_curves", env!("CARGO_BIN_EXE_fig3_curves")),
        ("fig6_irradiance", env!("CARGO_BIN_EXE_fig6_irradiance")),
        ("fig7_placements", env!("CARGO_BIN_EXE_fig7_placements")),
        ("overhead", env!("CARGO_BIN_EXE_overhead")),
        ("ablation_greedy", env!("CARGO_BIN_EXE_ablation_greedy")),
        (
            "ablation_percentile",
            env!("CARGO_BIN_EXE_ablation_percentile"),
        ),
        (
            "ablation_optimality",
            env!("CARGO_BIN_EXE_ablation_optimality"),
        ),
        ("loadgen", env!("CARGO_BIN_EXE_loadgen")),
    ] {
        let out = Command::new(exe).arg("--smok").output().expect("run bin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: {stderr}");
        assert!(
            stderr.contains("Error: unknown flag '--smok'"),
            "{bin}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} ran before rejecting the flag");
    }
}
