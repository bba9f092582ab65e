//! The Linear Road graph, pinned byte for byte.
//!
//! For three option sets the built workflow's DOT export, every actor's
//! signature and every input port's window and channel policy are compared
//! with a fixture under `tests/fixtures/topology/`. The fixtures were
//! captured from the builder-call form of the workflow that the spec text
//! replaced, so they hold the spec to the graph every figure was measured
//! on. On a deliberate change the test prints the new text to commit.

use confluence_core::time::Micros;
use confluence_linearroad::{build, LrOptions, Workload, WorkloadConfig};

fn render(opts: &LrOptions) -> String {
    let workload = Workload::generate(WorkloadConfig::tiny());
    let wf = build(&workload, opts).unwrap().workflow;
    let mut out = wf.to_dot();
    for id in wf.actor_ids() {
        let node = wf.node(id);
        out.push_str(&format!("{} {:?}\n", node.name, node.signature));
        for (port, name) in node.signature.inputs.iter().enumerate() {
            out.push_str(&format!(
                "  {name}: {:?} {:?}\n",
                wf.window_spec(id, port),
                wf.channel_policy(id, port)
            ));
        }
    }
    out
}

#[test]
fn every_option_set_builds_the_pinned_graph() {
    let cases = [
        (
            "default",
            LrOptions::default(),
            include_str!("fixtures/topology/default.txt"),
        ),
        (
            "flat",
            LrOptions {
                composite_subworkflows: false,
                ..LrOptions::default()
            },
            include_str!("fixtures/topology/flat.txt"),
        ),
        (
            "shed",
            LrOptions {
                shed_target: Some(Micros::from_millis(500)),
                ..LrOptions::default()
            },
            include_str!("fixtures/topology/shed.txt"),
        ),
    ];
    for (name, opts, golden) in cases {
        let actual = render(&opts);
        assert!(
            actual == golden,
            "{name}.txt moved from its golden\n--- golden\n{golden}\n--- actual\n{actual}"
        );
    }
}
