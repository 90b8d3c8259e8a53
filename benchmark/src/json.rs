//! JSON reading for `compare`, for the orchestrator reading its children, and
//! for the tests that hold `BENCHMARK.json` to the catalogue.
//!
//! Writing goes through the repo's `serde_json` stand-in, which renders a
//! `serde::Value` tree; that stand-in has no reader, so this module parses
//! text back into the same tree.

use serde::Value;

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value_at(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Render a tree as JSON text, on one line or indented.
pub fn render(v: &Value, pretty: bool) -> String {
    // the stand-in implements `Serialize` for Rust types but not for its own
    // tree, so hand it the tree through a one-field wrapper
    struct Tree<'a>(&'a Value);
    impl serde::Serialize for Tree<'_> {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    let text = if pretty {
        serde_json::to_string_pretty(&Tree(v))
    } else {
        serde_json::to_string(&Tree(v))
    };
    text.expect("the stand-in writer is infallible")
}

/// Member `key` of an object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Follow `path` through nested objects.
pub fn get_path<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| get(v, key))
}

/// Any JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

pub fn as_map(v: &Value) -> Option<&[(String, Value)]> {
    match v {
        Value::Map(entries) => Some(entries),
        _ => None,
    }
}

/// Nesting allowed before the parser gives up, so a hostile file cannot
/// overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    entries.push((key, self.value_at(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Map(entries));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.value_at(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Seq(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // surrogate pairs never appear in the files this
                            // benchmark writes; a lone one becomes U+FFFD
                            let c = char::from_u32(hex).unwrap_or('\u{FFFD}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII by the match");
        if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else {
            text.parse::<f64>().map(Value::Float).map_err(|_| self.err("expected a value"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_the_writer_renders() {
        let v = Value::Map(vec![
            ("correct".into(), Value::Bool(true)),
            ("n".into(), Value::UInt(7)),
            ("neg".into(), Value::Int(-3)),
            ("x".into(), Value::Float(1.5e-7)),
            ("s".into(), Value::Str("a\"b\\c\n".into())),
            ("list".into(), Value::Seq(vec![Value::Null, Value::Map(vec![])])),
        ]);
        for text in [render(&v, false), render(&v, true)] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"abc", "{\"a\":1,}", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(parse(&"[".repeat(10_000)).is_err());
    }
}
