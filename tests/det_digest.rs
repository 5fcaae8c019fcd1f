//! Pins the simulated results themselves, not just their agreement
//! between two settings of one binary.
//!
//! Every other identity test compares two runs of the same build (serial
//! vs parallel, fast-forwarded vs ticked, live vs replayed), so a
//! refactor that changes what the model simulates passes them all. This
//! test runs the whole Test-size suite at one seed and compares a digest
//! of its deterministic artifact against a constant: any change to a
//! simulated cycle count, event, PICS or profiler error shows up here.

use tea_exp::{Engine, Matrix};
use tea_isa::capture::codec::fnv1a64;
use tea_workloads::{all_workloads, Size};

/// FNV-1a of `RunResult::deterministic_json().render()` for the suite
/// below.
const SUITE_DIGEST: u64 = 0x78bd_53d9_d04c_7420;

#[test]
fn suite_deterministic_artifact_matches_the_pinned_digest() {
    let cells = Matrix::new()
        .workloads(all_workloads(Size::Test))
        .seeds(&[7])
        .cells();
    let run = Engine::serial().quiet().run("det-digest", cells);
    assert_eq!(run.cells.len(), 18, "one cell per Test-size workload");
    let digest = fnv1a64(run.deterministic_json().render().as_bytes());
    assert_eq!(
        digest, SUITE_DIGEST,
        "simulated results changed: digest {digest:#018x}, pinned {SUITE_DIGEST:#018x}. \
         A refactor must not change them; find the divergence with \
         `tea-cli suite --det-json` on both trees. If the change to the model \
         or a profiler is intended, set SUITE_DIGEST to {digest:#018x} and \
         say why in the commit."
    );
}
