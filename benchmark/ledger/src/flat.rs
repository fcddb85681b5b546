//! The result-file format: one flat JSON object, `"key": value` per line,
//! values numbers, strings or `null`. Written whole, read whole — no
//! splicing into an existing file.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Num(f64),
    Str(String),
    Null,
}

/// Key order is insertion order; it is the order of the file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Flat(pub Vec<(String, Value)>);

impl Flat {
    pub fn num(&mut self, key: impl Into<String>, v: f64) {
        // JSON has no NaN or infinity.
        let v = if v.is_finite() {
            Value::Num(v)
        } else {
            Value::Null
        };
        self.0.push((key.into(), v));
    }

    pub fn str(&mut self, key: impl Into<String>, v: impl Into<String>) {
        self.0.push((key.into(), Value::Str(v.into())));
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Num(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn write(&self) -> String {
        let mut s = String::from("{\n");
        for (i, (k, v)) in self.0.iter().enumerate() {
            let _ = write!(s, "  {}: ", quote(k));
            match v {
                Value::Num(n) => {
                    let _ = write!(s, "{n}");
                }
                Value::Str(t) => s += &quote(t),
                Value::Null => s += "null",
            }
            s += if i + 1 < self.0.len() { ",\n" } else { "\n" };
        }
        s + "}\n"
    }

    pub fn read(text: &str) -> Result<Flat, String> {
        let mut p = Reader {
            s: text.as_bytes(),
            i: 0,
        };
        let mut out = Flat::default();
        p.expect(b'{')?;
        if p.peek() == Some(b'}') {
            return Ok(out);
        }
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            let value = match p.peek() {
                Some(b'"') => Value::Str(p.string()?),
                Some(b'n') => p.word("null").map(|()| Value::Null)?,
                _ => Value::Num(p.number()?),
            };
            out.0.push((key, value));
            match p.peek() {
                Some(b',') => p.i += 1,
                Some(b'}') => return Ok(out),
                _ => return Err(format!("expected ',' or '}}' at byte {}", p.i)),
            }
        }
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            '\n' => out += "\\n",
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out + "\""
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    /// Next byte that is not white space.
    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn word(&mut self, w: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(())
        } else {
            Err(format!("expected {w} at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b"+-.eE0123456789".contains(b))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(code.to_string().as_bytes());
                            self.i += 4;
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}
