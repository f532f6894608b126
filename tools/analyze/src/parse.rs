//! Per-file Rust item parser: functions, impl owners, inline modules,
//! `use` imports, call expressions and intrinsic fact sites — all on
//! the stripped code view from the shared lexer ([`crate::lex`]).
//!
//! Deliberately *not* a type checker: calls are recorded by name and
//! resolved later by the graph builder (same crate, `use` imports,
//! explicit ambiguity report). `#[cfg(test)]` and `#[cfg(mcheck)]`
//! items are masked out — the analyzer models the production build.

use crate::lex::{cfg_mask, has_macro, has_slice_index, is_ident_char, waiver_reason, LineViews};
use crate::lines::{PANIC_MACROS, PANIC_TOKENS};
use crate::{CallExpr, CallKind, Fact, FileParse, FileUses, FnDef, LockSite, SendSite, Site};

/// Words that can never start a call expression.
const KEYWORDS: &[&str] = &[
    "if",
    "else",
    "while",
    "for",
    "loop",
    "match",
    "return",
    "let",
    "in",
    "as",
    "move",
    "ref",
    "mut",
    "pub",
    "where",
    "unsafe",
    "dyn",
    "box",
    "break",
    "continue",
    "crate",
    "super",
    "self",
    "Self",
    "async",
    "await",
    "yield",
    "true",
    "false",
    "struct",
    "enum",
    "union",
    "static",
    "const",
    "type",
    "extern",
    "macro_rules",
    "default",
];

/// Derives the module path of a file from its workspace-relative path:
/// `crates/serve/src/scheduler.rs` → `["scheduler"]`, `src/lib.rs` and
/// `src/main.rs` → the crate root, `src/sync/mod.rs` → `["sync"]`.
pub fn module_path_of(rel: &str) -> Vec<String> {
    let Some(pos) = rel.find("/src/") else {
        return Vec::new();
    };
    let tail = &rel[pos + 5..];
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    let mut parts: Vec<&str> = tail.split('/').collect();
    if matches!(parts.last(), Some(&"mod") | Some(&"lib") | Some(&"main")) {
        parts.pop();
    }
    if parts.first() == Some(&"bin") {
        // src/bin/*.rs are their own binary crate roots.
        return Vec::new();
    }
    parts.into_iter().map(String::from).collect()
}

struct Scope {
    kind: ScopeKind,
    depth: usize,
}

enum ScopeKind {
    Mod(String),
    Impl(String),
    Fn(usize),
    Block,
}

enum Pending {
    None,
    Mod(String),
    Trait(String),
    Impl,
    Fn { name: String, line: usize },
}

struct Parser<'a> {
    crate_name: &'a str,
    rel: &'a str,
    file_mods: Vec<String>,
    lines: &'a [LineViews],
    scopes: Vec<Scope>,
    depth: usize,
    pending: Pending,
    /// Paren/bracket depth inside a pending signature, so a `;` inside
    /// `fn f(x: [u8; 4])` does not terminate the declaration.
    pending_brackets: i32,
    impl_header: String,
    use_buf: Option<String>,
    fns: Vec<FnDef>,
    uses: FileUses,
    /// Innermost fn observed at any point of the current line —
    /// intrinsic fact sites on the line attribute to it.
    line_fn: Option<usize>,
    /// Brace depth at the start of the current line, before any of its
    /// own braces — guard-extent inference anchors on it.
    line_start_depth: usize,
    /// Statement-bound lock guards whose block has not closed yet:
    /// `(fn index, lock-site index, depth the guard dies below)`.
    open_guards: Vec<(usize, usize, usize)>,
}

/// Parses one lexed file into its functions, calls, sites and imports.
pub fn parse_file(crate_name: &str, rel: &str, lines: &[LineViews]) -> FileParse {
    let mask = cfg_mask(lines, &["#[cfg(test)]", "#[cfg(all(test", "#[cfg(mcheck)]"]);
    let mut p = Parser {
        crate_name,
        rel,
        file_mods: module_path_of(rel),
        lines,
        scopes: Vec::new(),
        depth: 0,
        pending: Pending::None,
        pending_brackets: 0,
        impl_header: String::new(),
        use_buf: None,
        fns: Vec::new(),
        uses: FileUses::default(),
        line_fn: None,
        line_start_depth: 0,
        open_guards: Vec::new(),
    };
    for (idx, lv) in lines.iter().enumerate() {
        if mask[idx] {
            continue;
        }
        p.line(idx, &lv.code);
    }
    // Guards still open at EOF (unbalanced braces) extend to the end.
    for (f, s, _) in std::mem::take(&mut p.open_guards) {
        p.fns[f].locks[s].release_line = lines.len();
    }
    FileParse {
        fns: p.fns,
        uses: p.uses,
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

fn fact_waivers(lines: &[LineViews], idx: usize) -> [Option<String>; 3] {
    Fact::ALL.map(|f| waiver_reason(lines, idx, f.id()))
}

impl<'a> Parser<'a> {
    fn innermost_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(i) => Some(i),
            _ => None,
        })
    }

    fn innermost_impl(&self) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Impl(o) if !o.is_empty() => Some(o.clone()),
            _ => None,
        })
    }

    fn line(&mut self, idx: usize, code: &str) {
        self.line_fn = self.innermost_fn();
        self.line_start_depth = self.depth;
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0usize;
        if self.use_buf.is_some() {
            i = self.consume_use(&chars, 0);
        }
        if matches!(self.pending, Pending::Impl) {
            // Multi-line impl header: keep words separated across lines.
            self.impl_header.push(' ');
        }
        while i < chars.len() {
            let c = chars[i];
            if matches!(self.pending, Pending::Impl) {
                if c == '{' {
                    self.open_brace();
                } else {
                    self.impl_header.push(c);
                }
                i += 1;
                continue;
            }
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c == '#' {
                // Attribute: skip the whole `#[…]` / `#![…]` group.
                let mut j = i + 1;
                if chars.get(j) == Some(&'!') {
                    j += 1;
                }
                if chars.get(j) == Some(&'[') {
                    let mut d = 0i32;
                    while j < chars.len() {
                        match chars[j] {
                            '[' => d += 1,
                            ']' => {
                                d -= 1;
                                if d == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                    continue;
                }
                i += 1;
                continue;
            }
            if is_ident_start(c) {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                // Signature/header words are never calls.
                if !matches!(self.pending, Pending::None) {
                    continue;
                }
                let word: String = chars[start..i].iter().collect();
                match word.as_str() {
                    "mod" => {
                        if let Some(name) = read_ident_ahead(&chars, &mut i) {
                            self.pending = Pending::Mod(name);
                            self.pending_brackets = 0;
                        }
                    }
                    "trait" => {
                        if let Some(name) = read_ident_ahead(&chars, &mut i) {
                            self.pending = Pending::Trait(name);
                            self.pending_brackets = 0;
                        }
                    }
                    "impl" => {
                        self.pending = Pending::Impl;
                        self.pending_brackets = 0;
                        self.impl_header.clear();
                    }
                    "fn" => {
                        if let Some(name) = read_ident_ahead(&chars, &mut i) {
                            self.pending = Pending::Fn {
                                name,
                                line: idx + 1,
                            };
                            self.pending_brackets = 0;
                        }
                    }
                    "use" => {
                        self.use_buf = Some(String::new());
                        i = self.consume_use(&chars, i);
                    }
                    w if ["self", "Self", "super", "crate"].contains(&w)
                        && chars.get(i) == Some(&':')
                        && chars.get(i + 1) == Some(&':') =>
                    {
                        i = self.handle_path(&chars, start, i, idx, word);
                    }
                    w if KEYWORDS.contains(&w) => {}
                    _ => {
                        i = self.handle_path(&chars, start, i, idx, word);
                    }
                }
                continue;
            }
            match c {
                '{' => self.open_brace(),
                '}' => self.close_brace(idx),
                ';' if self.pending_brackets == 0 => self.pending = Pending::None,
                '(' | '[' if !matches!(self.pending, Pending::None) => {
                    self.pending_brackets += 1;
                }
                ')' | ']' if !matches!(self.pending, Pending::None) => {
                    self.pending_brackets -= 1;
                }
                _ => {}
            }
            i += 1;
        }
        if let Some(f) = self.line_fn {
            self.scan_sites(idx, code, f);
            self.scan_locks(idx, code, f);
            for (rule, waived) in [("lock-order", 0), ("lock-block", 1)] {
                if waiver_reason(self.lines, idx, rule).is_some() {
                    let v = if waived == 0 {
                        &mut self.fns[f].lock_order_waived
                    } else {
                        &mut self.fns[f].lock_block_waived
                    };
                    v.push(idx + 1);
                }
            }
        }
    }

    /// Parses a path expression starting at the already-read `first`
    /// segment; records a call/reference on the innermost function.
    /// Returns the scan position after the path.
    fn handle_path(
        &mut self,
        chars: &[char],
        start: usize,
        mut i: usize,
        idx: usize,
        first: String,
    ) -> usize {
        let preceded_by_dot = {
            let mut j = start;
            while j > 0 && chars[j - 1].is_whitespace() {
                j -= 1;
            }
            j > 0 && chars[j - 1] == '.' && !(j > 1 && chars[j - 2] == '.')
        };
        let on_self = preceded_by_dot && {
            let mut j = start;
            while j > 0 && chars[j - 1].is_whitespace() {
                j -= 1;
            }
            // j-1 is the '.'; read the receiver token before it.
            let mut k = j - 1;
            while k > 0 && is_ident_char(chars[k - 1]) {
                k -= 1;
            }
            let recv: String = chars[k..j - 1].iter().collect();
            recv == "self" && (k == 0 || (chars[k - 1] != '.' && !is_ident_char(chars[k - 1])))
        };
        let mut segs = vec![first];
        loop {
            if i + 1 < chars.len() && chars[i] == ':' && chars[i + 1] == ':' {
                let mut j = i + 2;
                if chars.get(j) == Some(&'<') {
                    // Turbofish: skip the angle group, then look for `(`.
                    let mut d = 0i32;
                    while j < chars.len() {
                        match chars[j] {
                            '<' => d += 1,
                            '>' => {
                                d -= 1;
                                if d == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                    break;
                }
                if j < chars.len() && is_ident_start(chars[j]) {
                    let s2 = j;
                    while j < chars.len() && is_ident_char(chars[j]) {
                        j += 1;
                    }
                    segs.push(chars[s2..j].iter().collect());
                    i = j;
                    continue;
                }
            }
            break;
        }
        let next = chars.get(i).copied();
        let is_call = next == Some('(');
        let is_macro = next == Some('!');
        let Some(fn_idx) = self.line_fn.or_else(|| self.innermost_fn()) else {
            return i;
        };
        if is_macro {
            return i;
        }
        let kind = if preceded_by_dot {
            if !is_call || segs.len() != 1 {
                return i; // field access or odd chain
            }
            let name = segs.pop().unwrap_or_default();
            if starts_upper(&name) {
                return i;
            }
            CallKind::Method { name, on_self }
        } else if segs.len() > 1 {
            // Qualified path. References without a trailing `(` are
            // kept too: `map(GateOutput::logic_only)` calls the fn.
            if starts_upper(segs.last().map(String::as_str).unwrap_or("")) {
                return i; // Type/variant/const path, not a fn
            }
            CallKind::Qualified(segs)
        } else {
            if !is_call {
                return i;
            }
            let name = segs.pop().unwrap_or_default();
            if starts_upper(&name) {
                return i; // tuple-struct / enum-variant constructor
            }
            CallKind::Bare(name)
        };
        let waived = fact_waivers(self.lines, idx);
        self.fns[fn_idx].calls.push(CallExpr {
            kind,
            line: idx + 1,
            waived,
        });
        i
    }

    /// Accumulates a `use …;` statement (possibly multi-line) and
    /// parses it when the `;` arrives. Returns the position after it.
    fn consume_use(&mut self, chars: &[char], mut i: usize) -> usize {
        while i < chars.len() {
            if chars[i] == ';' {
                let buf = self.use_buf.take().unwrap_or_default();
                self.finish_use(&buf);
                return i + 1;
            }
            if let Some(buf) = self.use_buf.as_mut() {
                buf.push(chars[i]);
            }
            i += 1;
        }
        chars.len()
    }

    /// Parses the body of one `use` statement into aliases, imported
    /// crates and glob prefixes. One brace level (`use a::{b, c as d}`)
    /// is expanded; deeper nesting is skipped.
    fn finish_use(&mut self, text: &str) {
        let text = text.trim();
        let (prefix, items): (&str, Vec<String>) = match text.find('{') {
            Some(b) => {
                let inner = text[b + 1..].trim_end_matches('}');
                (
                    text[..b].trim_end_matches("::"),
                    inner.split(',').map(|s| s.trim().to_string()).collect(),
                )
            }
            None => ("", vec![text.to_string()]),
        };
        let mut scope_mods: Vec<String> = self.file_mods.clone();
        for s in &self.scopes {
            if let ScopeKind::Mod(m) = &s.kind {
                scope_mods.push(m.clone());
            }
        }
        for item in items {
            if item.is_empty() || item.contains('{') {
                continue;
            }
            let full = if prefix.is_empty() {
                item.clone()
            } else {
                format!("{prefix}::{item}")
            };
            let (path_str, alias) = match full.split_once(" as ") {
                Some((p, a)) => (p.trim().to_string(), Some(a.trim().to_string())),
                None => (full.clone(), None),
            };
            let mut segs: Vec<String> = path_str
                .split("::")
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if segs.is_empty() {
                continue;
            }
            // Normalize crate/self/super against this file's module.
            match segs[0].as_str() {
                "crate" => {
                    segs[0] = self.crate_name.to_string();
                }
                "self" => {
                    let mut p = vec![self.crate_name.to_string()];
                    p.extend(scope_mods.iter().cloned());
                    p.extend(segs.drain(1..));
                    segs = p;
                }
                "super" => {
                    let mut p = vec![self.crate_name.to_string()];
                    let parents = scope_mods.len().saturating_sub(1);
                    p.extend(scope_mods.iter().take(parents).cloned());
                    p.extend(segs.drain(1..));
                    segs = p;
                }
                first => {
                    if !["std", "core", "alloc"].contains(&first) {
                        let c = first.to_string();
                        if !self.uses.crates.contains(&c) {
                            self.uses.crates.push(c);
                        }
                    }
                }
            }
            match segs.last().map(String::as_str) {
                Some("*") => {
                    segs.pop();
                    self.uses.globs.push(segs);
                }
                Some("self") => {
                    segs.pop(); // `use a::b::{self}` imports module b
                }
                Some(last) => {
                    let name = alias.unwrap_or_else(|| last.to_string());
                    self.uses.aliases.push((name, segs));
                }
                None => {}
            }
        }
    }

    fn open_brace(&mut self) {
        let pending = std::mem::replace(&mut self.pending, Pending::None);
        let kind = match pending {
            Pending::Mod(name) => ScopeKind::Mod(name),
            Pending::Trait(name) => ScopeKind::Impl(name),
            Pending::Impl => ScopeKind::Impl(owner_of(&self.impl_header)),
            Pending::Fn { name, line } => {
                let mut path = vec![self.crate_name.to_string()];
                path.extend(self.file_mods.iter().cloned());
                let mut module = self.file_mods.clone();
                for s in &self.scopes {
                    if let ScopeKind::Mod(m) = &s.kind {
                        path.push(m.clone());
                        module.push(m.clone());
                    }
                }
                let owner = self.innermost_impl();
                if let Some(o) = &owner {
                    path.push(o.clone());
                }
                path.push(name.clone());
                let idx = self.fns.len();
                self.fns.push(FnDef {
                    id: path.join("::"),
                    crate_name: self.crate_name.to_string(),
                    name,
                    owner,
                    module,
                    file: self.rel.to_string(),
                    line,
                    calls: Vec::new(),
                    sites: Vec::new(),
                    locks: Vec::new(),
                    sends: Vec::new(),
                    lock_order_waived: Vec::new(),
                    lock_block_waived: Vec::new(),
                });
                self.line_fn = Some(idx);
                ScopeKind::Fn(idx)
            }
            Pending::None => ScopeKind::Block,
        };
        self.scopes.push(Scope {
            kind,
            depth: self.depth,
        });
        self.depth += 1;
    }

    fn close_brace(&mut self, idx: usize) {
        self.depth = self.depth.saturating_sub(1);
        while matches!(self.scopes.last(), Some(s) if s.depth == self.depth) {
            self.scopes.pop();
        }
        if !self.open_guards.is_empty() {
            let depth = self.depth;
            let fns = &mut self.fns;
            self.open_guards.retain(|&(f, s, assoc)| {
                if depth < assoc {
                    fns[f].locks[s].release_line = idx + 1;
                    false
                } else {
                    true
                }
            });
        }
    }

    /// Token-level intrinsic facts on one line — the leaves transitive
    /// reachability propagates up from. These cover `std` effects the
    /// call graph cannot see (no edges into `std`).
    fn scan_sites(&mut self, idx: usize, code: &str, fn_idx: usize) {
        let mut found: Vec<(Fact, &str)> = Vec::new();
        for t in PANIC_TOKENS.iter().chain(&[".expect_err("]) {
            if code.contains(t) {
                found.push((Fact::Panic, t));
            }
        }
        for m in PANIC_MACROS
            .iter()
            .chain(&["assert!", "assert_eq!", "assert_ne!"])
        {
            if has_macro(code, m) {
                found.push((Fact::Panic, m));
            }
        }
        if has_slice_index(code) {
            found.push((Fact::Panic, "slice-index"));
        }
        for t in ["sleep", "park", "park_timeout"] {
            if has_call_token(code, t) {
                found.push((Fact::Block, t));
            }
        }
        for t in [
            ".recv()",
            ".recv_timeout(",
            ".recv_deadline(",
            ".wait(",
            ".wait_timeout(",
            ".wait_while(",
            ".join()",
            ".lock(",
        ] {
            if code.contains(t) {
                found.push((Fact::Block, t));
            }
        }
        for t in [
            "Vec::with_capacity(",
            "VecDeque::with_capacity(",
            "String::with_capacity(",
            "String::from(",
            "vec![",
            "format!(",
            "Box::new(",
            "Arc::new(",
            "Rc::new(",
            ".to_vec()",
            ".to_string()",
            ".to_owned()",
            ".push(",
            ".push_str(",
            ".push_back(",
            ".push_front(",
            ".extend(",
            ".extend_from_slice(",
            ".insert(",
            ".append(",
            ".resize(",
            ".reserve(",
            ".split_off(",
            ".collect",
            ".or_insert(",
            ".or_insert_with(",
            ".or_default()",
        ] {
            if code.contains(t) {
                found.push((Fact::Alloc, t));
            }
        }
        for (fact, token) in found {
            let waived = waiver_reason(self.lines, idx, fact.id());
            self.fns[fn_idx].sites.push(Site {
                fact,
                token: token.to_string(),
                line: idx + 1,
                waived,
            });
        }
    }

    /// `.lock()` acquisition sites (with inferred guard extents) and
    /// `.send(` sites, for the lock-discipline pass.
    ///
    /// Guard-extent heuristic: a guard bound by its statement — the
    /// chain ends in `;`, a `{` follows (`if let Ok(g) = m.lock() {`),
    /// or the chain runs off the line — lives to the end of the
    /// enclosing block; a guard consumed inside a larger expression
    /// (`take(&mut *m.lock()?)`) dies on its own line. Deliberately
    /// conservative: an over-long extent can only flag more, never
    /// hide a held lock.
    fn scan_locks(&mut self, idx: usize, code: &str, fn_idx: usize) {
        let chars: Vec<char> = code.chars().collect();
        let mut depth_here = self.line_start_depth as i64;
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c == '{' {
                depth_here += 1;
            } else if c == '}' {
                depth_here -= 1;
            } else if c == '.' && matches_at(&chars, i + 1, "send(") {
                let receiver = ident_before(&chars, i);
                if !receiver.is_empty() {
                    self.fns[fn_idx].sends.push(SendSite {
                        receiver,
                        line: idx + 1,
                    });
                }
                i += 6;
                continue;
            } else if c == '.' && matches_at(&chars, i + 1, "lock(") {
                let mut receiver = ident_before(&chars, i);
                if receiver.is_empty() && chars[..i].iter().all(|c| c.is_whitespace()) {
                    // Chain continuation (`self.counts\n.lock()`):
                    // take the receiver from the previous code line.
                    for back in (idx.saturating_sub(2)..idx).rev() {
                        let prev = trailing_ident(&self.lines[back].code);
                        if !prev.is_empty() {
                            receiver = prev;
                            break;
                        }
                        if !self.lines[back].code.trim().is_empty() {
                            break;
                        }
                    }
                }
                if receiver.is_empty() {
                    // `(…).lock()` and friends: keep the site visible so
                    // strict crates surface it instead of hiding it.
                    receiver = "?".to_string();
                }
                let depth_at = depth_here.max(0) as usize;
                let mut j = skip_paren_group(&chars, i + 5);
                // Chained adapters (`.unwrap()`, `.expect(…)`, `?`) stay
                // part of the acquisition expression and still yield the
                // guard; any *other* chained method (`.len()`, `.push(…)`)
                // consumes it — the guard dies with the statement.
                let mut guard_consumed = false;
                loop {
                    match chars.get(j) {
                        Some('?') => j += 1,
                        Some('.') if chars.get(j + 1).copied().is_some_and(is_ident_start) => {
                            let mut name_end = j + 1;
                            while chars.get(name_end).copied().is_some_and(is_ident_char) {
                                name_end += 1;
                            }
                            let name: String = chars[j + 1..name_end].iter().collect();
                            if !matches!(name.as_str(), "unwrap" | "expect" | "unwrap_or_else") {
                                guard_consumed = true;
                                break;
                            }
                            j = name_end;
                            if chars.get(j) == Some(&'(') {
                                j = skip_paren_group(&chars, j);
                            }
                        }
                        _ => break,
                    }
                }
                let mut k = j;
                while chars.get(k).is_some_and(|c| c.is_whitespace()) {
                    k += 1;
                }
                let site = self.fns[fn_idx].locks.len();
                let (release_line, assoc) = if guard_consumed {
                    (idx + 1, None)
                } else {
                    match chars.get(k) {
                        None | Some(&';') => (0, Some(depth_at)),
                        Some(&'{') => (0, Some(depth_at + 1)),
                        _ => (idx + 1, None),
                    }
                };
                self.fns[fn_idx].locks.push(LockSite {
                    receiver,
                    line: idx + 1,
                    release_line,
                });
                if let Some(a) = assoc {
                    self.open_guards.push((fn_idx, site, a));
                }
                i = j.max(i + 1);
                continue;
            }
            i += 1;
        }
    }
}

fn matches_at(chars: &[char], at: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, pc)| chars.get(at + k) == Some(&pc))
}

/// The identifier ending just before `chars[end]`.
fn ident_before(chars: &[char], end: usize) -> String {
    let mut k = end;
    while k > 0 && is_ident_char(chars[k - 1]) {
        k -= 1;
    }
    chars[k..end].iter().collect()
}

/// The identifier a code view ends with (ignoring trailing spaces).
fn trailing_ident(code: &str) -> String {
    let chars: Vec<char> = code.trim_end().chars().collect();
    ident_before(&chars, chars.len())
}

/// From an opening `(`, the index just past its match (line end when
/// the argument list spills onto further lines).
fn skip_paren_group(chars: &[char], mut j: usize) -> usize {
    let mut d = 0i32;
    while j < chars.len() {
        match chars[j] {
            '(' => d += 1,
            ')' => {
                d -= 1;
                if d == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    chars.len()
}

fn read_ident_ahead(chars: &[char], i: &mut usize) -> Option<String> {
    let mut j = *i;
    while j < chars.len() && chars[j].is_whitespace() {
        j += 1;
    }
    if j < chars.len() && is_ident_start(chars[j]) {
        let start = j;
        while j < chars.len() && is_ident_char(chars[j]) {
            j += 1;
        }
        *i = j;
        return Some(chars[start..j].iter().collect());
    }
    None
}

/// Extracts the implementing type name from an accumulated impl
/// header: `<T: Policy> Explorer<T>` → `Explorer`, `Display for
/// Finding` → `Finding`.
fn owner_of(header: &str) -> String {
    let mut h = header.trim();
    if h.starts_with('<') {
        let chars: Vec<char> = h.chars().collect();
        let mut d = 0i32;
        let mut end = chars.len();
        for (k, &c) in chars.iter().enumerate() {
            match c {
                '<' => d += 1,
                '>' => {
                    d -= 1;
                    if d == 0 {
                        end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        h = h[chars[..end].iter().map(|c| c.len_utf8()).sum::<usize>()..].trim();
    }
    let target = h.rfind(" for ").map(|p| h[p + 5..].trim()).unwrap_or(h);
    let end = target
        .find(|c: char| c == '<' || c.is_whitespace() || c == '{')
        .unwrap_or(target.len());
    target[..end]
        .rsplit("::")
        .next()
        .unwrap_or("")
        .trim_start_matches('&')
        .to_string()
}

/// A free-fn-style call token: `word(`, with an identifier boundary
/// before the word (catches `thread::sleep(d)` and bare `park()`).
fn has_call_token(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok =
            start == 0 || !is_ident_char(code[..start].chars().next_back().unwrap_or(' '));
        let at_call = code[end..].starts_with('(');
        if before_ok && at_call {
            return true;
        }
        from = end;
    }
    false
}
