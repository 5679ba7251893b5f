//! Texts shared by this crate's unit and integration tests.

/// 3 000 texts, past the fan-out threshold, so chunks really split:
/// "zebra" is new only to the later chunks, "quokka" is missed by
/// several chunks and repeated within a sentence, "to" is first seen
/// at text 1 500, and the specials exercise folding, peeled and
/// split punctuation, and empty texts.
pub fn fixture() -> Vec<String> {
    let specials = [
        "",
        "  \t\n ",
        "Really?! \"hello\" what's the check-in at the Café?",
        "ΟΔΟΣ (Check-In/OUT) … ΟΔΟΣ",
    ];
    (0..3000)
        .map(|i| {
            let mut t = match i % 97 {
                0 => specials[(i / 97) % specials.len()].to_string(),
                _ => format!(
                    "Sentence {} rides the {} downtown",
                    i % 37,
                    ["bus", "shuttle", "TRAM"][i % 3]
                ),
            };
            if i >= 1500 && i % 5 == 0 {
                t.push_str(" to get to the airport");
            }
            if i >= 2500 && i % 7 == 0 {
                t.push_str(" with a zebra");
            }
            if [100, 1400, 2900].contains(&i) {
                t.push_str(" and a quokka, QUOKKA!");
            }
            t
        })
        .collect()
}
