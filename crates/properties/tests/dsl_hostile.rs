//! Hostile input, DSL half: every catalog property's DSL text, cut at every
//! char boundary and hit with seeded single-char substitutions, insertions
//! and deletions, parses to a property or fails with a `DslError` — never a
//! panic. Tests build with overflow checks on, so an arithmetic overflow on
//! the way counts as a panic.
//!
//! Scattered edits almost never build a long number, so one family of edit
//! chains grows each of the text's numbers a digit at a time (a duration
//! literal `Ns` may first become `Nms`), carrying every literal past the
//! point where its nanoseconds no longer fit in a `u64`.

use std::panic;

use swmon_core::{parse_property, to_dsl};

/// What an edit may write: digits and duration units, variable, block and
/// string punctuation, a comparison, a line break and one non-ASCII char.
const ALPHABET: &str = "0123456789sm?{}\"=\n\u{e9}";

/// Scattered inputs per property, each one to two edits away from it.
const SCATTERED: usize = 60;

/// Digits added to each number; 20 more digits overflow any `u64`.
const GROWTH: usize = 20;

/// SplitMix64: the seeded source of every edit below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Outcomes over every input fed to the parser.
#[derive(Debug, Default)]
struct Tally {
    parsed: usize,
    failed: usize,
    /// Failures that named an out-of-range duration literal.
    out_of_range: usize,
    /// Single-char edits applied.
    edits: usize,
}

impl Tally {
    /// Parse `src`, which must give `Ok` or a `DslError`.
    fn parse(&mut self, src: &[char]) {
        let src: String = src.iter().collect();
        match panic::catch_unwind(|| parse_property(&src)) {
            Ok(Ok(_)) => self.parsed += 1,
            Ok(Err(e)) => {
                self.failed += 1;
                self.out_of_range += e.message.contains("duration out of range") as usize;
            }
            Err(_) => panic!("the parser panicked on:\n{src}"),
        }
    }
}

/// Every catalog property's DSL text, as chars.
fn texts() -> Vec<Vec<char>> {
    swmon_props::catalog().iter().map(|p| to_dsl(p).chars().collect()).collect()
}

/// `[start, end)` of every maximal run of ASCII digits in `text`.
fn digit_runs(text: &[char]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < text.len() {
        if text[i].is_ascii_digit() {
            let start = i;
            while i < text.len() && text[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

#[test]
fn every_cut_parses_or_fails_cleanly() {
    let mut tally = Tally::default();
    for text in texts() {
        for cut in 0..=text.len() {
            tally.parse(&text[..cut]);
            tally.parse(&text[cut..]);
        }
    }
    assert!(tally.parsed > 0 && tally.failed > 1_000, "{tally:?}");
}

#[test]
fn single_char_edits_parse_or_fail_cleanly() {
    let alphabet: Vec<char> = ALPHABET.chars().collect();
    let mut rng = Rng(0xd51);
    let mut tally = Tally::default();
    for text in texts() {
        // Scattered: one or two edits anywhere.
        for _ in 0..SCATTERED {
            let mut m = text.clone();
            for _ in 0..1 + rng.below(2) {
                let c = alphabet[rng.below(alphabet.len())];
                let at = rng.below(m.len() + 1);
                match rng.below(3) {
                    0 if at < m.len() => m[at] = c,
                    1 if at < m.len() => {
                        m.remove(at);
                    }
                    _ => m.insert(at, c),
                }
                tally.edits += 1;
            }
            tally.parse(&m);
        }
        // Growing: each number gains digits at its end, one insertion (and
        // one parse) at a time.
        for (_, end) in digit_runs(&text) {
            let mut m = text.clone();
            if m.get(end) == Some(&'s') && rng.below(2) == 0 {
                m.insert(end, 'm');
                tally.edits += 1;
                tally.parse(&m);
            }
            for _ in 0..GROWTH {
                m.insert(end, alphabet[rng.below(10)]);
                tally.edits += 1;
                tally.parse(&m);
            }
        }
    }
    assert!((3_000..6_000).contains(&tally.edits), "{tally:?}");
    assert!(tally.parsed > 100 && tally.failed > 100, "{tally:?}");
    assert!(tally.out_of_range > 0, "no duration literal grew out of range: {tally:?}");
}
