//! Pins the checked-in `results/*.txt` to the code that prints them: the
//! entries fast enough to run here must reproduce their file byte for
//! byte, every file must have an entry (and every entry a file), and
//! `repro all --check` must name a file that no longer matches.

use concord_bench::{all, entry, Entry, ENTRIES};
use concord_sim::experiments::Fidelity;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The entries that finish in well under a second at `standard`.
const FAST: [&str; 6] = ["fig2", "fig3", "fig5", "fig12", "fig15", "table1"];

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn every_results_file_has_an_entry_and_every_entry_a_file() {
    let files: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let names: BTreeSet<String> = ENTRIES.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(names, files);
}

#[test]
fn fast_entries_reproduce_their_results_file() {
    let fast: Vec<Entry> = FAST.iter().map(|n| *entry(n).unwrap()).collect();
    let differs =
        all(&fast, &Fidelity::standard(), &results_dir(), true).expect("results/ readable");
    assert!(differs.is_empty(), "differ from results/: {differs:?}");
}

#[test]
fn check_names_a_tampered_or_missing_file() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("results_pinned");
    let _ = std::fs::remove_dir_all(&dir);
    let closed_form: Vec<Entry> = ["fig2", "fig12", "fig15"]
        .iter()
        .map(|n| *entry(n).unwrap())
        .collect();
    let fid = Fidelity::standard();
    assert!(all(&closed_form, &fid, &dir, false).unwrap().is_empty());
    assert!(all(&closed_form, &fid, &dir, true).unwrap().is_empty());

    let fig12 = dir.join("fig12.txt");
    let text = std::fs::read_to_string(&fig12).unwrap();
    std::fs::write(&fig12, text.replacen('2', "3", 1)).unwrap();
    std::fs::remove_file(dir.join("fig15.txt")).unwrap();
    assert_eq!(
        all(&closed_form, &fid, &dir, true).unwrap(),
        ["fig12", "fig15"]
    );
}
