//! The shared lexing layer: every source line split into a *code* view
//! (strings, chars and comments removed) and a *comment* view, plus the
//! token helpers, `#[cfg(…)]` item masks and waiver parser that both
//! the line passes ([`crate::lines`]) and the call-graph parser run on.
//!
//! The lexer is line-based but lexes enough Rust to be trustworthy:
//! string literals (plain, raw, byte), char literals and comments are
//! stripped from the code view, so a token inside a string or a comment
//! never trips a rule, and rationale markers (`SAFETY:`, `ordering:`)
//! and waivers are read from the comment view only.

/// Multi-line lexer state carried across lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    Normal,
    /// Inside `/* … */`, with nesting depth (Rust block comments nest).
    BlockComment(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside `r##"…"##` with the given hash count.
    RawStr(u8),
}

/// One source line split into what the compiler executes and what the
/// human wrote beside it.
#[derive(Debug, Default, Clone)]
pub struct LineViews {
    /// The line with strings, chars and comments removed.
    pub code: String,
    /// All comment text on the line (line + block comments).
    pub comment: String,
}

/// Strips strings and comments, line by line, carrying state across
/// line breaks (multi-line strings and block comments).
struct Stripper {
    state: LexState,
}

impl Stripper {
    fn strip(&mut self, line: &str) -> LineViews {
        let mut views = LineViews::default();
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            match self.state {
                LexState::BlockComment(depth) => {
                    if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        i += 2;
                        self.state = if depth > 1 {
                            LexState::BlockComment(depth - 1)
                        } else {
                            LexState::Normal
                        };
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        i += 2;
                        self.state = LexState::BlockComment(depth + 1);
                    } else {
                        views.comment.push(bytes[i]);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if bytes[i] == '\\' {
                        i += 2;
                    } else if bytes[i] == '"' {
                        self.state = LexState::Normal;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if bytes[i] == '"' {
                        let mut seen = 0u8;
                        while seen < hashes && bytes.get(i + 1 + seen as usize) == Some(&'#') {
                            seen += 1;
                        }
                        if seen == hashes {
                            i += 1 + hashes as usize;
                            self.state = LexState::Normal;
                            continue;
                        }
                    }
                    i += 1;
                }
                LexState::Normal => {
                    let c = bytes[i];
                    let prev_ident =
                        i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == '_');
                    if c == '/' && bytes.get(i + 1) == Some(&'/') {
                        views.comment.extend(&bytes[i + 2..]);
                        break;
                    } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        self.state = LexState::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        self.state = LexState::Str;
                        i += 1;
                    } else if (c == 'r' || c == 'b') && !prev_ident {
                        // r"…", r#"…"#, b"…", br"…", br#"…"#.
                        let mut j = i + 1;
                        if c == 'b' && bytes.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u8;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            self.state = if hashes > 0 {
                                LexState::RawStr(hashes)
                            } else if c == 'r' || (c == 'b' && j > i + 1) {
                                LexState::RawStr(0)
                            } else {
                                LexState::Str
                            };
                            i = j + 1;
                        } else {
                            views.code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal or lifetime. A char literal closes
                        // with a quote within a few chars; a lifetime
                        // does not.
                        if bytes.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: skip to closing quote.
                            let mut j = i + 2;
                            while j < bytes.len() && bytes[j] != '\'' {
                                j += 1;
                            }
                            i = j + 1;
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            i += 3;
                        } else {
                            // Lifetime: keep the quote in the code view
                            // so `&'a [u8]` stays recognizable as a
                            // type, not an index expression.
                            views.code.push('\'');
                            i += 1;
                        }
                    } else {
                        views.code.push(c);
                        i += 1;
                    }
                }
            }
        }
        views
    }
}

/// Strips a whole source into per-line views (fresh lexer state).
pub fn split_views(source: &str) -> Vec<LineViews> {
    let mut stripper = Stripper {
        state: LexState::Normal,
    };
    source.lines().map(|l| stripper.strip(l)).collect()
}

// ---------------------------------------------------------------------------
// Token helpers on the stripped code view.
// ---------------------------------------------------------------------------

pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `code` contains `word` with non-identifier characters on
/// both sides.
pub fn has_word(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok =
            start == 0 || !is_ident_char(code[..start].chars().next_back().unwrap_or(' '));
        let after_ok =
            end >= code.len() || !is_ident_char(code[end..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// `name!` with an identifier boundary before it (so `debug_assert!`
/// does not count as `assert!`).
pub fn has_macro(code: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let start = from + pos;
        let before_ok =
            start == 0 || !is_ident_char(code[..start].chars().next_back().unwrap_or(' '));
        if before_ok {
            return true;
        }
        from = start + pat.len();
    }
    false
}

/// Whether `code` indexes a slice/array/map: a `[` whose preceding
/// non-space token ends an expression (an identifier, `)`, `]`, `?`).
/// Attribute `#[…]`, macro `vec![…]`, array types `[u8; 4]`, slice
/// patterns, lifetimes (`&'a [u8]`) and type-position keywords
/// (`&mut [u8]`) all read differently and do not match.
pub fn has_slice_index(code: &str) -> bool {
    const TYPE_KEYWORDS: &[&str] = &[
        "mut", "dyn", "impl", "as", "in", "where", "const", "static", "return", "break", "else",
        "let", "match", "ref",
    ];
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let mut j = i;
        while j > 0 && chars[j - 1].is_whitespace() {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let p = chars[j - 1];
        if p == ')' || p == ']' || p == '?' {
            return true;
        }
        if is_ident_char(p) {
            let mut s = j - 1;
            while s > 0 && is_ident_char(chars[s - 1]) {
                s -= 1;
            }
            let ident: String = chars[s..j].iter().collect();
            let lifetime = s > 0 && chars[s - 1] == '\'';
            if !lifetime && !TYPE_KEYWORDS.contains(&ident.as_str()) {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Item masks and waivers.
// ---------------------------------------------------------------------------

/// Marks every line belonging to a `#[cfg(test)]` item (attribute line
/// through the end of the item's braces, or its `;` for brace-less
/// items). Brace counting runs on the stripped code view, so braces in
/// strings and comments cannot desynchronize it.
pub fn cfg_test_mask(lines: &[LineViews]) -> Vec<bool> {
    cfg_mask(lines, &["#[cfg(test)]", "#[cfg(all(test"])
}

/// [`cfg_test_mask`] generalized over the attribute markers that start
/// a masked item — the call-graph parser also masks `#[cfg(mcheck)]`
/// items, which exist only in instrumented builds and must not appear
/// in the production call graph.
pub fn cfg_mask(lines: &[LineViews], markers: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !markers.iter().any(|m| lines[i].code.contains(m)) {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            mask[j] = true;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            if !opened && j > i && lines[j].code.contains(';') {
                // A brace-less item (`use …;`, `fn f();`) ends here.
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// The one waiver syntax, `// analyze: allow(<rule>) — <reason>`, up to
/// the opening paren.
pub const WAIVER_TAG: &str = "analyze: allow(";

/// The waiver parser: scans the comments of line `idx` and the two
/// lines above for `analyze: allow(<rule>)`. Returns the reason text
/// following the closing paren (separator punctuation trimmed) —
/// `Some("")` for a waiver that names no reason (a policy error),
/// `None` for no waiver. The line passes, the intrinsic fact sites and
/// the lock pass all resolve waivers here, so they cannot drift on
/// placement rules.
pub fn waiver_reason(lines: &[LineViews], idx: usize, rule: &str) -> Option<String> {
    let needle = format!("{WAIVER_TAG}{rule})");
    for l in &lines[idx.saturating_sub(2)..=idx.min(lines.len() - 1)] {
        if let Some(pos) = l.comment.find(&needle) {
            return Some(trim_reason(&l.comment[pos + needle.len()..]));
        }
    }
    None
}

/// A waiver's reason text with its leading separator (`—`, `-`, `:`)
/// trimmed.
pub fn trim_reason(tail: &str) -> String {
    tail.trim_start_matches(|c: char| {
        c.is_whitespace() || c == '—' || c == '-' || c == ':' || c == '–'
    })
    .trim()
    .to_string()
}

/// Whether a line's comment view is a doc comment (`///` or `//!`
/// keep a leading `/` or `!` after the stripper consumes two slashes).
/// Docs *describe* waiver syntax; they never waive anything.
pub fn is_doc_comment(comment: &str) -> bool {
    let t = comment.trim_start();
    t.starts_with('/') || t.starts_with('!')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_separates_code_and_comments() {
        let views = split_views(
            "let x = 1; // trailing note\n\
             let s = \"panic!(\\\"in a string\\\")\";\n\
             /* block panic!() comment\n\
             still comment */ let y = 2;\n\
             let r = r#\"raw .unwrap() text\"#;\n\
             let c = 'x'; let lt: &'static str = \"\";",
        );
        assert_eq!(views[0].code.trim(), "let x = 1;");
        assert!(views[0].comment.contains("trailing note"));
        assert!(!views[1].code.contains("panic"));
        assert!(views[2].comment.contains("block panic"));
        assert_eq!(views[3].code.trim(), "let y = 2;");
        assert!(!views[4].code.contains("unwrap"));
        // Char literal contents vanish; the lifetime quote survives so
        // type syntax stays recognizable.
        assert!(views[5].code.contains("&'static str"));
        assert!(!views[5].code.contains('x'));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let views = split_views("/* outer /* inner */ still out */ let z = 3;");
        assert_eq!(views[0].code.trim(), "let z = 3;");
    }

    #[test]
    fn waiver_reasons_parse_through_the_shared_helper() {
        let lines = split_views(
            "// analyze: allow(can-alloc) — pooled buffer retains capacity\n\
             buf.push(job);\n\
             // analyze: allow(can-panic)\n\
             x.unwrap();",
        );
        assert_eq!(
            waiver_reason(&lines, 1, "can-alloc").as_deref(),
            Some("pooled buffer retains capacity")
        );
        // Present but reasonless — the policy check makes this an error.
        assert_eq!(waiver_reason(&lines, 3, "can-panic").as_deref(), Some(""));
        // No waiver at all.
        assert_eq!(waiver_reason(&lines, 1, "can-panic"), None);
    }
}
