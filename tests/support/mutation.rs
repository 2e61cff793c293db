//! Mutations of a valid text encoding, shared by the codec mutation
//! properties (`tests/property_tests.rs`,
//! `crates/serve/tests/proptest_serve.rs`,
//! `crates/core/tests/proptest_checkpoint.rs`). A decoder given a mutated
//! document must return a typed error or a value, never panic or hang.

/// Applies one mutation to `text`, chosen by `(kind, at, bit)`:
///
/// - kind 0 flips bit `bit` of the byte at `at`;
/// - kind 1 truncates the text at a line boundary picked by `at`;
/// - kind 2 duplicates the line picked by `at`;
/// - kind 3 sets the decimal field picked by `at` (a count, an index or
///   a number) to 2^64 − 1, 2^63 or its value + 1, also picked by `at`.
///
/// With `sealed`, the first two lines are a header and a `CHECKSUM` line:
/// only the body is mutated, then sealed again so the decoder reads past
/// the checksum.
pub fn mutate(text: &str, sealed: bool, (kind, at, bit): (u8, usize, u8)) -> String {
    if sealed {
        let mut parts = text.splitn(3, '\n');
        let header = parts.next().unwrap_or_default();
        let body = parts.nth(1).unwrap_or_default();
        return safe_data::record::seal(header, &mutate(body, false, (kind, at, bit)));
    }
    let mut lines: Vec<String> = text.split_inclusive('\n').map(String::from).collect();
    let n_lines = lines.len().max(1);
    match kind % 4 {
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            if let Some(b) = bytes.get_mut(at % text.len().max(1)) {
                *b ^= 1 << (bit % 8);
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        1 => lines.truncate(at % (lines.len() + 1)),
        2 => {
            if let Some(line) = lines.get(at % n_lines).cloned() {
                lines.insert(at % n_lines, line);
            }
        }
        _ => {
            let spots: Vec<(usize, usize)> = lines
                .iter()
                .enumerate()
                .flat_map(|(i, line)| {
                    line.trim_end_matches('\n')
                        .split('\t')
                        .enumerate()
                        .filter(|(_, f)| !f.is_empty() && f.bytes().all(|b| b.is_ascii_digit()))
                        .map(move |(j, _)| (i, j))
                })
                .collect();
            if let Some(&(i, j)) = spots.get(at % spots.len().max(1)) {
                let mut fields: Vec<String> =
                    lines[i].trim_end_matches('\n').split('\t').map(String::from).collect();
                fields[j] = match at / spots.len() % 3 {
                    0 => u64::MAX.to_string(),
                    1 => (1u64 << 63).to_string(),
                    _ => fields[j].parse::<u128>().unwrap_or(0).saturating_add(1).to_string(),
                };
                lines[i] = fields.join("\t") + "\n";
            }
        }
    }
    lines.concat()
}
