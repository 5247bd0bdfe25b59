//! A minimal recursive-descent JSON reader for the `msq diff`
//! comparator. The build environment has no registry access, so this is
//! the in-tree stand-in for a JSON crate: it reads exactly the dialect
//! the bench emitters produce (objects, arrays, strings without exotic
//! escapes, numbers, booleans, null) and keeps object keys in document
//! order so diffs can cite rows the way the file states them.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64` (bench files stay well inside the
    /// 2^53 exact-integer range).
    Num(f64),
    /// A string (supports `\" \\ \/ \n \t \r \b \f \uXXXX` escapes).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses `text` as one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    /// Member `key` of an object, or `None`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, or `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, or `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array payload, or `None`.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, or `None`.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The boolean payload, or `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{0008}'),
                    Some(b'f') => s.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x80 => {
                s.push(c as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole code point.
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let ch = rest.chars().next().unwrap();
                s.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" -3.5 ").unwrap(), JsonValue::Num(-3.5));
        assert_eq!(JsonValue::parse("\"a\\nb\"").unwrap(), JsonValue::Str("a\nb".to_string()));
    }

    #[test]
    fn parses_nested_structures_preserving_key_order() {
        let v = JsonValue::parse(
            "{\"b\": [1, 2, {\"x\": true}], \"a\": {\"nested\": null}, \"n\": 1e3}",
        )
        .unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["b", "a", "n"]);
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1000.0));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[2].get("x").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parses_a_bench_style_document() {
        let doc = "{\n  \"bench\": \"scale\",\n  \"grid\": [\n    {\"devices\": 100, \"replies\": 37}\n  ],\n  \"timings\": [\n    {\"devices\": 100, \"seconds\": 0.123}\n  ]\n}\n";
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("scale"));
        let grid = v.get("grid").unwrap().as_array().unwrap();
        assert_eq!(grid[0].get("devices").unwrap().as_u64(), Some(100));
        assert_eq!(grid[0].get("replies").unwrap().as_u64(), Some(37));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("{\"a\": }").is_err());
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes_and_multibyte_pass_through() {
        assert_eq!(JsonValue::parse("\"\\u00e9λ\"").unwrap().as_str(), Some("éλ"));
    }
}
