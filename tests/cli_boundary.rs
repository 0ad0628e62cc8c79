//! The CLI's input boundary: degenerate graph sizes reach every registry
//! scheme's builder through `ort build`, and each run ends in a report
//! or a named error — never a panic (exit code 101).

use optimal_routing_tables::conformance::registry::SchemeId;

#[test]
fn build_on_empty_and_single_node_graphs_never_panics() {
    for id in SchemeId::ALL {
        for n in ["0", "1"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_ort"))
                .args(["build", id.name(), n, "1"])
                .output()
                .expect("spawn ort build");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_ne!(
                out.status.code(),
                Some(101),
                "ort build {} {n} 1 panicked:\n{stderr}",
                id.name()
            );
            if !out.status.success() {
                assert!(
                    stderr.starts_with("ort build: error: "),
                    "ort build {} {n} 1 failed without a named error:\n{stderr}",
                    id.name()
                );
            }
        }
    }
}
