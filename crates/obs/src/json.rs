//! A minimal JSON reader/writer used for [`Snapshot`](crate::Snapshot)
//! round-trips and the benchmark report (`BENCH_PAPER.json`).
//!
//! Objects preserve insertion order (they are `Vec<(String, Value)>`),
//! which keeps emitted reports stable and diff-friendly. Numbers are
//! stored as `f64`; integers up to 2^53 round-trip exactly, which covers
//! every counter and nanosecond total the system produces in practice.

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers render without a decimal point).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders JSON indented by `indent` spaces per level.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * depth),
                " ".repeat(w * (depth + 1)),
            ),
            None => ("", String::new(), String::new()),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut p = Parser { chars: &bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing characters at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        let got = self.bump()?;
        if got == c {
            Ok(())
        } else {
            Err(format!("expected {c:?} at offset {}, got {got:?}", self.pos - 1))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            'n' => self.literal("null", Value::Null),
            't' => self.literal("true", Value::Bool(true)),
            'f' => self.literal("false", Value::Bool(false)),
            '"' => Ok(Value::String(self.string()?)),
            '[' => self.array(),
            '{' => self.object(),
            c if c == '-' || c.is_ascii_digit() => self.number(),
            c => Err(format!("unexpected {c:?} at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            match self.bump()? {
                '"' => return Ok(s),
                '\\' => match self.bump()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'b' => s.push('\u{8}'),
                    'f' => s.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            code = code * 16
                                + d.to_digit(16)
                                    .ok_or_else(|| format!("bad \\u escape digit {d:?}"))?;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    e => return Err(format!("unknown escape \\{e}")),
                },
                c => s.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                ']' => return Ok(Value::Array(items)),
                c => return Err(format!("expected ',' or ']', got {c:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                '}' => return Ok(Value::Object(members)),
                c => return Err(format!("expected ',' or '}}', got {c:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_nested_documents() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::String("fig1a".to_string())),
            (
                "rows".to_string(),
                Value::Array(vec![
                    Value::Number(32.0),
                    Value::Number(2.5),
                    Value::Bool(true),
                    Value::Null,
                ]),
            ),
            ("empty".to_string(), Value::Object(vec![])),
        ]);
        for text in [v.render(), v.render_pretty(2)] {
            assert_eq!(parse(&text).unwrap(), v, "source: {text}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::String("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::Number(128.0).render(), "128");
        assert_eq!(Value::Number(2.5).render(), "2.5");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2}"#;
        let v = parse(text).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"]);
    }
}
