//! The line-record reader that the plan (`SAFEPLAN`), booster (`SAFEGBM`),
//! artifact (`SAFEARTIFACT`) and checkpoint (`SAFECKPT`) codecs are
//! schemas over. A document is a header line, then one record per line: a
//! tag and tab-separated fields. Blank lines are skipped, an `f64` is the
//! hex of its bits ([`hex`]), a list is a count and that many fields
//! ([`Record::list`]), and an embedded document runs to its `*_END` line
//! ([`Reader::section`]). A sealed document has a `CHECKSUM` line second
//! ([`seal`]). The reader accepts a declared count only when that many
//! fields remain, and never allocates or slices by one. Every error is
//! typed and names its 1-based line.

use std::str::{FromStr, Split};

use crate::checksum::fnv1a64;

/// Why a document failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// A malformed line, or a record the document lacks.
    Parse {
        /// 1-based line the error refers to.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The body does not hash to the `CHECKSUM` line (line 2).
    Checksum {
        /// Checksum the `CHECKSUM` line records.
        expected: u64,
        /// Checksum of the body as read.
        actual: u64,
    },
}

impl RecordError {
    /// The line and message, as the codecs without a checksum report them.
    pub fn into_parts(self) -> (usize, String) {
        match self {
            RecordError::Parse { line, message } => (line, message),
            RecordError::Checksum { expected, actual } => {
                (2, format!("checksum {actual:016x} does not match CHECKSUM {expected:016x}"))
            }
        }
    }
}

/// The text form of an `f64`: the 16 lowercase hex digits of its bits.
pub fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// `header`, a `CHECKSUM` line with the FNV-1a/64 of `body`, then `body`.
pub fn seal(header: &str, body: &str) -> String {
    format!("{header}\nCHECKSUM\t{:016x}\n{body}", fnv1a64(body.as_bytes()))
}

/// A cursor over the lines of one document; iterating yields its records.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `text`, whose first line must be `header`.
    pub fn open(text: &'a str, header: &str) -> Result<Reader<'a>, RecordError> {
        let mut reader = Reader { rest: text, line: 0 };
        match reader.next_line() {
            Some(first) if first == header => Ok(reader),
            _ => Err(parse_error(1, format!("bad header, expected {header:?}"))),
        }
    }

    /// [`Reader::open`] for a [`seal`]ed document: the body must hash to
    /// its `CHECKSUM` line before any record is read.
    pub fn open_checked(text: &'a str, header: &str) -> Result<Reader<'a>, RecordError> {
        let mut reader = Reader::open(text, header)?;
        let expected = reader
            .next_line()
            .and_then(|l| l.strip_prefix("CHECKSUM\t"))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| parse_error(2, "line 2 must be CHECKSUM and a hex FNV-1a/64"))?;
        let actual = fnv1a64(reader.rest.as_bytes());
        if actual != expected {
            return Err(RecordError::Checksum { expected, actual });
        }
        Ok(reader)
    }

    /// The lines up to the next line equal to `end`, borrowed; the reader
    /// moves past `end`. Called right after the record that opens the
    /// section, it reports a missing `end` at that record's line.
    pub fn section(&mut self, end: &str) -> Result<&'a str, RecordError> {
        let (start, begin) = (self.rest, self.line);
        loop {
            let before = self.rest;
            match self.next_line() {
                Some(line) if line == end => return Ok(&start[..start.len() - before.len()]),
                Some(_) => {}
                None => return Err(parse_error(begin, format!("section has no {end} line"))),
            }
        }
    }

    /// An error at the last line read, for checks made once records run out.
    pub fn err(&self, message: impl Into<String>) -> RecordError {
        parse_error(self.line, message)
    }

    /// The next line, without its `\n` and any `\r` before it.
    fn next_line(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
        self.rest = rest;
        self.line += 1;
        Some(line.strip_suffix('\r').unwrap_or(line))
    }
}

impl<'a> Iterator for Reader<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        loop {
            let line = self.next_line()?;
            if !line.trim().is_empty() {
                let mut fields = line.split('\t');
                let tag = fields.next().unwrap_or_default();
                return Some(Record { tag, line: self.line, fields });
            }
        }
    }
}

/// One record: its tag, then a cursor over the rest of its fields.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    /// The first field, which names the record's kind.
    pub tag: &'a str,
    line: usize,
    fields: Split<'a, char>,
}

impl<'a> Record<'a> {
    /// The next field as text.
    pub fn field(&mut self) -> Result<&'a str, RecordError> {
        self.fields.next().ok_or_else(|| self.err(format!("{} is missing a field", self.tag)))
    }

    /// The next field parsed with `FromStr`.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, RecordError> {
        let s = self.field()?;
        s.parse().map_err(|_| self.bad(s))
    }

    /// The next field as a [`hex`] `f64`.
    pub fn hex(&mut self) -> Result<f64, RecordError> {
        let s = self.field()?;
        u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|_| self.bad(s))
    }

    /// A count, then that many items read with `item`. The count is
    /// rejected before any item is read unless that many fields remain.
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Record<'a>) -> Result<T, RecordError>,
    ) -> Result<Vec<T>, RecordError> {
        let n: usize = self.parse()?;
        if self.fields.clone().count() < n {
            return Err(self.err(format!("{} lists {n} items, fewer remain", self.tag)));
        }
        (0..n).map(|_| item(self)).collect()
    }

    /// Fails if a field is left unread.
    pub fn end(&mut self) -> Result<(), RecordError> {
        match self.fields.next() {
            None => Ok(()),
            Some(_) => Err(self.err(format!("{} has too many fields", self.tag))),
        }
    }

    /// An error at this record's line.
    pub fn err(&self, message: impl Into<String>) -> RecordError {
        parse_error(self.line, message)
    }

    fn bad(&self, field: &str) -> RecordError {
        self.err(format!("{} has a bad field '{field}'", self.tag))
    }
}

fn parse_error(line: usize, message: impl Into<String>) -> RecordError {
    RecordError::Parse { line, message: message.into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_skip_blank_lines_and_count_lines_from_one() {
        let mut r = Reader::open("HEAD\t1\n\nA\tx\t2\n  \nB\r\n", "HEAD\t1").unwrap();
        let mut a = r.next().unwrap();
        assert_eq!((a.tag, a.field().unwrap()), ("A", "x"));
        assert_eq!(a.parse::<usize>().unwrap(), 2);
        a.end().unwrap();
        let b = r.next().unwrap();
        assert_eq!(b.tag, "B");
        assert_eq!(b.err("x").into_parts().0, 5);
        assert!(r.next().is_none());
        assert!(Reader::open("", "HEAD\t1").is_err());
        assert!(Reader::open("HEAD\t2\n", "HEAD\t1").is_err());
    }

    #[test]
    fn field_errors_name_the_line() {
        let mut r = Reader::open("H\nX\t1\tzz\n", "H").unwrap();
        let mut x = r.next().unwrap();
        x.field().unwrap();
        assert_eq!(x.hex().unwrap_err().into_parts().0, 2);
        assert!(x.field().is_err(), "no third field");
        let mut r = Reader::open("H\nX\t1\t2\n", "H").unwrap();
        let mut x = r.next().unwrap();
        x.field().unwrap();
        assert!(x.end().is_err(), "one field left");
    }

    #[test]
    fn hex_round_trips_every_bit() {
        for v in [0.1 + 0.2, -0.0, f64::MIN_POSITIVE, f64::INFINITY, f64::from_bits(0x7ff8_dead_beef_0001)] {
            let text = format!("H\nV\t{}\n", hex(v));
            let mut rec = Reader::open(&text, "H").unwrap().next().unwrap();
            assert_eq!(rec.hex().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn lists_accept_a_count_only_when_that_many_fields_remain() {
        let text = format!("H\nL\t2\ta\tb\nL\t3\ta\tb\nL\t{}\ta\n", u64::MAX);
        let mut r = Reader::open(&text, "H").unwrap();
        let mut ok = r.next().unwrap();
        assert_eq!(ok.list(|f| f.field()).unwrap(), ["a", "b"]);
        ok.end().unwrap();
        assert!(r.next().unwrap().list(|f| f.field()).is_err());
        assert!(r.next().unwrap().list(|f| f.field()).is_err());
    }

    #[test]
    fn sections_are_borrowed_and_must_end() {
        let mut r = Reader::open("H\nB\none\n\ntwo\nEND\nC\n", "H").unwrap();
        assert_eq!(r.next().unwrap().tag, "B");
        assert_eq!(r.section("END").unwrap(), "one\n\ntwo\n");
        assert_eq!(r.next().unwrap().err("x").into_parts().0, 7);
        let mut r = Reader::open("H\nB\none\n", "H").unwrap();
        r.next().unwrap();
        assert_eq!(r.section("END").unwrap_err().into_parts().0, 2);
    }

    #[test]
    fn sealed_documents_check_their_body() {
        let doc = seal("H\t1", "A\tx\n");
        assert_eq!(doc, format!("H\t1\nCHECKSUM\t{:016x}\nA\tx\n", fnv1a64(b"A\tx\n")));
        let mut r = Reader::open_checked(&doc, "H\t1").unwrap();
        assert_eq!(r.next().unwrap().err("x").into_parts().0, 3);
        let tampered = doc.replace("A\tx", "A\ty");
        assert!(matches!(
            Reader::open_checked(&tampered, "H\t1"),
            Err(RecordError::Checksum { .. })
        ));
        for bad in ["H\t1", "H\t1\nBODY\n", "H\t1\nCHECKSUM\tzz\n"] {
            assert_eq!(Reader::open_checked(bad, "H\t1").unwrap_err().into_parts().0, 2, "{bad:?}");
        }
    }
}
