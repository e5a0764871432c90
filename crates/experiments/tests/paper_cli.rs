//! The `paper` binary, run for real: one experiment on its own prints the
//! bytes it prints inside the whole battery, so the single-figure
//! binaries it replaced cannot drift back into a second answer.

use borg_core::pipeline::SimScale;
use borg_experiments::paper::{Inputs, EXPERIMENTS};
use borg_experiments::ExpOpts;
use std::process::{Command, Output};

fn paper(ids: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["--scale", "tiny", "--seed", "2019"])
        .args(ids)
        .output()
        .expect("the paper binary runs")
}

fn stdout(ids: &[&str]) -> String {
    let out = paper(ids);
    assert!(out.status.success(), "paper {ids:?}: {:?}", out.status);
    String::from_utf8(out.stdout).expect("report text is UTF-8")
}

/// Splits a run's stdout into what precedes the first section and the
/// sections, each from its `=== ` header line to the next one.
fn sections(stdout: &str) -> (String, Vec<String>) {
    let mut parts = vec![String::new()];
    for line in stdout.split_inclusive('\n') {
        if line.starts_with("=== ") {
            parts.push(String::new());
        }
        parts.last_mut().expect("starts non-empty").push_str(line);
    }
    (parts.remove(0), parts)
}

#[test]
fn each_id_alone_prints_its_section_of_the_whole_run() {
    let (preamble, whole) = sections(&stdout(&[]));
    assert_eq!(whole.len(), EXPERIMENTS.len());
    for (e, section) in EXPERIMENTS.iter().zip(&whole) {
        assert_eq!(stdout(&[e.id]), format!("{preamble}{section}"), "{}", e.id);
    }
    // A selection is a set, printed in the paper's order.
    assert_eq!(
        stdout(&["figure11", "figure07", "figure11"]),
        format!("{preamble}{}{}", whole[7], whole[11])
    );
}

#[test]
fn unknown_id_lists_the_valid_ones_and_exits_2() {
    let out = paper(&["figure15"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for e in EXPERIMENTS {
        assert!(stderr.contains(e.id), "{} missing from: {stderr}", e.id);
    }
}

/// Statistical-mode experiments never ask for the simulation; the
/// simulated ones share the one `Inputs` keeps.
#[test]
fn only_simulated_experiments_simulate() {
    let inputs = Inputs::new(ExpOpts {
        scale: SimScale::Tiny,
        ..ExpOpts::default()
    });
    let run = |ids: &[&str]| {
        for e in EXPERIMENTS.iter().filter(|e| ids.contains(&e.id)) {
            e.section(&inputs);
        }
        inputs.simulated()
    };
    assert!(!run(&[
        "figure11", "figure12", "figure13", "table2", "section7"
    ]));
    assert!(run(&["figure03", "figure07"]));
}
