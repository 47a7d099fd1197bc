//! Replays every fixture in `tests/corpus/` through the differential
//! oracle. Fixtures are self-contained `.fut` files whose `-- input:`
//! header comments carry the arguments (see `futhark_fuzz::corpus`);
//! most are minimal reproducers the fuzzer shrank from past divergences,
//! plus a few hand-written regression anchors. A fixture passes when the
//! interpreter and the simulator agree bit for bit on both devices under
//! the whole ablation matrix — i.e. the bug it once witnessed stays
//! fixed.

use futhark::RunOptions;
use futhark_fuzz::{check_source, corpus};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[test]
fn corpus_fixtures_stay_clean() {
    let dir = corpus_dir();
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {} unreadable: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            (path.extension().and_then(|x| x.to_str()) == Some("fut")).then_some(path)
        })
        .collect();
    fixtures.sort();
    assert!(
        !fixtures.is_empty(),
        "no .fut fixtures in {}",
        dir.display()
    );
    for path in fixtures {
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let args = corpus::parse_fixture(&text)
            .unwrap_or_else(|e| panic!("{}: bad fixture header: {e}", path.display()));
        // The whole file is the program: the header lines are comments.
        if let Some(failure) = check_source(&text, &args, RunOptions::default()).describe() {
            panic!("{}: {failure}", path.display());
        }
    }
}
