//! Every committed `BENCH_*.json` at the repository root must be valid
//! JSON: the bench binaries write these files for tools to read, and a
//! writer bug (one stray brace per row) once left a file no JSON parser
//! accepts.
//!
//! The checker below is a small recursive-descent recognizer of the JSON
//! grammar (RFC 8259): it validates syntax only and builds no values, so
//! the test needs no dependency.

use std::path::{Path, PathBuf};

/// Syntax-only JSON recognizer over a byte slice.
struct Checker<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Checker<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("byte {}: {what}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.seq(b'}', true),
            Some(b'[') => self.seq(b']', false),
            Some(b'"') => self.string(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            _ => self.err("expected a value"),
        }
    }

    /// An object (`keyed`) or array: the opening byte, then comma-separated
    /// members, then `close`.
    fn seq(&mut self, close: u8, keyed: bool) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            if keyed {
                self.skip_ws();
                self.string()?;
                self.skip_ws();
                self.expect(b':')?;
            }
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err(&format!("expected ',' or '{}'", close as char)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return self.err("bad \\u escape");
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                Some(c) if c < 0x20 => return self.err("control character in string"),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.err("expected a digit"),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return self.err("expected a fraction digit");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("expected an exponent digit");
            }
        }
        Ok(())
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), String> {
        if self.s[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            self.err("bad literal")
        }
    }
}

/// Checks that `text` is exactly one JSON value (surrounding whitespace
/// allowed).
fn check_json(text: &str) -> Result<(), String> {
    let mut c = Checker {
        s: text.as_bytes(),
        pos: 0,
    };
    c.value()?;
    c.skip_ws();
    if c.pos == c.s.len() {
        Ok(())
    } else {
        c.err("trailing characters after the value")
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn checker_accepts_json_and_rejects_the_doubled_brace() {
    for ok in [
        "{}",
        "[]",
        " {\"a\": [1, -2.5e3, 0.0, true, false, null, \"x\\n\\u00e9\"]} \n",
        "{\"rows\": [{\"k\": 1}, {\"k\": 2}]}",
    ] {
        assert_eq!(check_json(ok), Ok(()), "{ok}");
    }
    for bad in [
        "",
        "{\"rows\": [{\"k\": 1}}, {\"k\": 2}}]}",
        "{\"a\": 1,}",
        "[1 2]",
        "{\"a\": 01}",
        "{\"a\": 1.}",
        "{a: 1}",
        "\"unterminated",
        "{} {}",
        "[nul]",
    ] {
        assert!(check_json(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn every_committed_bench_json_parses() {
    let root = repo_root();
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&root).expect("read repository root") {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read bench file");
        if let Err(e) = check_json(&text) {
            panic!("{name} is not valid JSON: {e}");
        }
        checked.push(name);
    }
    assert!(
        checked.iter().any(|n| n == "BENCH_merge.json"),
        "no BENCH_*.json found at {} (checked {checked:?})",
        root.display()
    );
}
