//! Block-scoped analysis: a lightweight brace/scope tree over the token
//! stream, plus an intraprocedural guard-liveness pass.
//!
//! This is deliberately *not* an AST. The tree tracks exactly what the
//! concurrency rules need:
//!
//! - **Block nesting** — every `{ ... }` becomes a [`Block`] with a
//!   parent link, so a binding's lifetime ends at its enclosing block.
//! - **Closure boundaries** — a block introduced by `|args| { ... }` is
//!   tagged [`BlockKind::Closure`]; guards declared inside one die with
//!   it like any block, and spawn calls textually *after* a closure body
//!   are outside it.
//! - **`unsafe` sites** — `unsafe` blocks/fns/impls are collected for the
//!   `unsafe-block` rule.
//! - **Lock-guard bindings** — `let g = x.lock();` (also `.read()` /
//!   `.write()`) opens a [`Guard`] whose live range runs from the
//!   binding to the first `drop(g)` or the end of the enclosing block,
//!   whichever comes first.
//!
//! Liveness is token-index based: tokens are in source order, so "guard
//! live across call X" is simply `guard.acquire_idx < X < guard.end_idx`.
//! That is exact for straight-line code and conservative for early
//! returns (a `return` before the spawn still counts as live), which is
//! the right polarity for a deny-by-default linter with reasoned allows.

use crate::lexer::{Token, TokenKind};

/// What introduced a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// The whole file (virtual block 0).
    Root,
    /// An ordinary `{ ... }` (fn body, `if`, `match` arm, plain scope).
    Plain,
    /// The body of a closure (`|x| { ... }` or `|| { ... }`).
    Closure,
    /// An `unsafe { ... }` block.
    Unsafe,
}

/// One brace-delimited scope.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Index into [`ScopeInfo::blocks`] of the enclosing block (self for
    /// the root).
    pub parent: usize,
    /// Token index of the opening `{` (0 for the root).
    pub start: usize,
    /// Token index one past the closing `}` (`tokens.len()` for the root
    /// or an unclosed block).
    pub end: usize,
    /// What introduced the block.
    pub kind: BlockKind,
}

/// A `let` binding of a lock guard and its live range.
#[derive(Debug, Clone)]
pub struct Guard {
    /// Bound name (`g` in `let g = x.lock();`); `None` for patterns the
    /// tree does not resolve (tuples), which then live to block end.
    pub name: Option<String>,
    /// Token index of the acquisition method (`lock` / `read` / `write`).
    pub acquire_idx: usize,
    /// Which method acquired it (`"lock"`, `"read"`, `"write"`).
    pub method: &'static str,
    /// Source text of the receiver, for messages (`self.shard.series`).
    pub receiver: String,
    /// Token index one past the last token at which the guard is live:
    /// the `drop(name)` call, or the end of the enclosing block.
    pub end_idx: usize,
    /// Whether the guard ends via an explicit `drop(name)`.
    pub explicit_drop: bool,
}

/// One `unsafe` site.
#[derive(Debug, Clone, Copy)]
pub struct UnsafeSite {
    /// Token index of the `unsafe` keyword.
    pub idx: usize,
    /// Whether it opens a block (vs. `unsafe fn` / `unsafe impl`).
    pub is_block: bool,
}

/// Scope-level facts about one file, consumed by the concurrency rules.
#[derive(Debug, Default)]
pub struct ScopeInfo {
    /// All blocks; index 0 is the virtual file root.
    pub blocks: Vec<Block>,
    /// Lock-guard bindings with live ranges.
    pub guards: Vec<Guard>,
    /// Token indices of calls that hand work to another thread
    /// (`par::scope`, `spawn`, `spawn_named`, `par_map`, ...).
    pub spawns: Vec<usize>,
    /// Token indices of file/network calls (`fs::*`, `File::*`,
    /// `read_to_string`, `TcpStream`, ...).
    pub io_calls: Vec<usize>,
    /// `unsafe` keywords (blocks, fns, impls).
    pub unsafes: Vec<UnsafeSite>,
}

/// `par` and thread entry points: a guard live across one of these is
/// held while a job may need the same lock (deadlock when the caller
/// runs or waits for that job, or serialization of every sibling job).
const SPAWN_CALLS: &[&str] = &["spawn", "spawn_named", "par_map", "par_map_reduce"];

/// Blocking file/network identifiers: called with a guard live they
/// serialize the whole lock domain behind device latency.
const IO_CALLS: &[&str] = &[
    "read_to_string",
    "read_to_end",
    "write_all",
    "write_fmt",
    "flush",
    "read_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir_all",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
];

/// Methods that pass a lock guard through unchanged, so a chain like
/// `.lock().unwrap_or_else(PoisonError::into_inner)` still binds a
/// guard. Any other continuation (`.len()`, `.get(..)`) consumes the
/// guard as a temporary that dies at the end of the statement.
const GUARD_PRESERVING: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

impl ScopeInfo {
    /// Runs the full scope analysis over one file's token stream.
    pub fn analyze(tokens: &[Token]) -> ScopeInfo {
        let mut info = ScopeInfo {
            blocks: vec![Block {
                parent: 0,
                start: 0,
                end: tokens.len(),
                kind: BlockKind::Root,
            }],
            ..ScopeInfo::default()
        };
        info.build_tree(tokens);
        info.collect_unsafe(tokens);
        info.collect_spawns(tokens);
        info.collect_io(tokens);
        info.collect_guards(tokens);
        info
    }

    /// Innermost block containing token index `idx`.
    pub fn enclosing_block(&self, idx: usize) -> usize {
        let mut best = 0usize;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.start <= idx && idx < b.end && b.start >= self.blocks[best].start {
                best = i;
            }
        }
        best
    }

    fn build_tree(&mut self, tokens: &[Token]) {
        let mut stack: Vec<usize> = vec![0];
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "{" => {
                    let parent = *stack.last().unwrap_or(&0);
                    let kind = block_kind(tokens, i);
                    self.blocks.push(Block {
                        parent,
                        start: i,
                        end: tokens.len(),
                        kind,
                    });
                    stack.push(self.blocks.len() - 1);
                }
                "}" if stack.len() > 1 => {
                    if let Some(b) = stack.pop() {
                        self.blocks[b].end = i + 1;
                    }
                }
                _ => {}
            }
        }
    }

    fn collect_unsafe(&mut self, tokens: &[Token]) {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind == TokenKind::Ident && t.text == "unsafe" {
                let is_block = tokens.get(i + 1).is_some_and(|n| n.text == "{");
                self.unsafes.push(UnsafeSite { idx: i, is_block });
            }
        }
    }

    fn collect_spawns(&mut self, tokens: &[Token]) {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let called = tokens.get(i + 1).is_some_and(|n| n.text == "(");
            if !called {
                continue;
            }
            if SPAWN_CALLS.contains(&t.text.as_str()) {
                self.spawns.push(i);
                continue;
            }
            // `scope` is a common word; only treat it as the `par` entry
            // point when it is path-qualified (`par::scope(`,
            // `crate::scope(`) or directly takes a closure (`scope(|s|`).
            if t.text == "scope" {
                let qualified = i >= 1 && tokens[i - 1].text == "::";
                let closure_arg = tokens
                    .get(i + 2)
                    .is_some_and(|n| n.text == "|" || n.text == "||" || n.text == "move");
                if qualified || closure_arg {
                    self.spawns.push(i);
                }
            }
        }
    }

    fn collect_io(&mut self, tokens: &[Token]) {
        let mut seen = std::collections::BTreeSet::new();
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            // `fs::anything` and `File::anything` are I/O at the path
            // level; report at the method identifier.
            if (t.text == "fs" || t.text == "File")
                && tokens.get(i + 1).is_some_and(|n| n.text == "::")
                && tokens
                    .get(i + 2)
                    .is_some_and(|n| n.kind == TokenKind::Ident)
            {
                seen.insert(i + 2);
                continue;
            }
            if IO_CALLS.contains(&t.text.as_str())
                && tokens
                    .get(i + 1)
                    .is_some_and(|n| n.text == "(" || n.text == "::")
            {
                seen.insert(i);
            }
        }
        self.io_calls = seen.into_iter().collect();
    }

    fn collect_guards(&mut self, tokens: &[Token]) {
        let mut i = 0;
        while i < tokens.len() {
            if tokens[i].kind == TokenKind::Ident && tokens[i].text == "let" {
                if let Some(guard) = self.guard_at_let(tokens, i) {
                    i = guard.acquire_idx + 1;
                    self.guards.push(guard);
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Parses `let [mut] NAME [: ty] = <expr>;` starting at the `let` at
    /// `let_idx`; returns a [`Guard`] when the whole init expression is a
    /// lock acquisition chain.
    fn guard_at_let(&self, tokens: &[Token], let_idx: usize) -> Option<Guard> {
        let mut j = let_idx + 1;
        if tokens.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        let name = match tokens.get(j) {
            Some(t) if t.kind == TokenKind::Ident && t.text != "_" => Some(t.text.clone()),
            _ => return None,
        };
        // Find the `=` that starts the initializer (skip a `: Type`
        // annotation; bail on `let ... else`, `if let`, patterns).
        while j < tokens.len() {
            let t = &tokens[j];
            if t.text == "=" {
                break;
            }
            if t.text == ";" || t.text == "{" || t.text == "(" {
                return None;
            }
            j += 1;
        }
        let init_start = j + 1;
        // Scan the initializer for the acquisition call that *is* the
        // final value of the expression.
        let (acquire_idx, method, chain_end) = find_acquisition(tokens, init_start)?;
        // The chain must terminate the statement: `let g = x.lock();` or
        // `...?;` — anything else consumes the guard as a temporary.
        let mut k = chain_end;
        if tokens.get(k).is_some_and(|t| t.text == "?") {
            k += 1;
        }
        if tokens.get(k).is_none_or(|t| t.text != ";") {
            return None;
        }
        let block = self.enclosing_block(let_idx);
        let block_end = self.blocks[block].end;
        // The guard dies early at an explicit `drop(name)` inside its
        // block (also `mem::drop` / `std::mem::drop`).
        let mut end_idx = block_end;
        let mut explicit_drop = false;
        if let Some(n) = &name {
            let mut d = k;
            while d + 3 < block_end.min(tokens.len()) {
                if tokens[d].kind == TokenKind::Ident
                    && tokens[d].text == "drop"
                    && tokens[d + 1].text == "("
                    && tokens[d + 2].text == *n
                    && tokens[d + 3].text == ")"
                {
                    end_idx = d;
                    explicit_drop = true;
                    break;
                }
                d += 1;
            }
        }
        Some(Guard {
            name,
            acquire_idx,
            method,
            receiver: receiver_text(tokens, acquire_idx),
            end_idx,
            explicit_drop,
        })
    }
}

/// Classifies the block opened by the `{` at `open_idx`.
fn block_kind(tokens: &[Token], open_idx: usize) -> BlockKind {
    let Some(prev) = open_idx.checked_sub(1).map(|p| &tokens[p]) else {
        return BlockKind::Plain;
    };
    if prev.kind == TokenKind::Ident && prev.text == "unsafe" {
        return BlockKind::Unsafe;
    }
    // `|x| {` / `|| {` — the lexer keeps `||` as one token, and a
    // closure's parameter list ends with a `|`.
    if prev.text == "|" || prev.text == "||" {
        return BlockKind::Closure;
    }
    // `move` closures: `move || {` is covered above; `|x| move {` is not
    // Rust, but `async move {` and `|x| -> T {` occur.
    if prev.text == "move" {
        return BlockKind::Closure;
    }
    BlockKind::Plain
}

/// Finds a `.lock()` / `.read()` / `.write()` acquisition starting the
/// value chain at `start`. Returns `(acquire_idx, method, chain_end)`
/// where `chain_end` is the token index after the final guard-preserving
/// continuation.
fn find_acquisition(tokens: &[Token], start: usize) -> Option<(usize, &'static str, usize)> {
    let mut i = start;
    // Walk the receiver expression until the statement ends. A `{`
    // means the initializer is block-valued (`let x = { ... }`, `if`,
    // `match`): any acquisition inside belongs to that inner block and
    // is picked up when the guard scan reaches its own `let`.
    while i + 3 < tokens.len() {
        let t = &tokens[i];
        if t.text == ";" || t.text == "{" {
            return None;
        }
        if t.text == "."
            && tokens[i + 1].kind == TokenKind::Ident
            && tokens[i + 2].text == "("
            && tokens[i + 3].text == ")"
        {
            let method = match tokens[i + 1].text.as_str() {
                "lock" => "lock",
                "read" => "read",
                "write" => "write",
                _ => {
                    i += 1;
                    continue;
                }
            };
            // Follow guard-preserving continuations to the chain's end.
            let mut k = i + 4;
            loop {
                if tokens.get(k).is_some_and(|t| t.text == ".")
                    && tokens
                        .get(k + 1)
                        .is_some_and(|t| GUARD_PRESERVING.contains(&t.text.as_str()))
                    && tokens.get(k + 2).is_some_and(|t| t.text == "(")
                {
                    k = skip_balanced(tokens, k + 2)?;
                } else {
                    break;
                }
            }
            // A further `.method(...)` consumes the guard: temporary.
            if tokens.get(k).is_some_and(|t| t.text == ".") {
                return None;
            }
            return Some((i + 1, method, k));
        }
        i += 1;
    }
    None
}

/// Given the index of an opening `(`, returns the index one past its
/// matching `)`.
fn skip_balanced(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in tokens[open..].iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Short source rendering of a lock acquisition's receiver, for
/// messages: walks back over `ident`, `.`, `::`, `self`, and index
/// brackets from the `.lock()` dot.
fn receiver_text(tokens: &[Token], acquire_idx: usize) -> String {
    // acquire_idx points at `lock`/`read`/`write`; the dot is before it.
    let mut start = acquire_idx.saturating_sub(1);
    let mut depth = 0i32;
    while start > 0 {
        let t = &tokens[start - 1];
        let cont = match t.text.as_str() {
            "]" => {
                depth += 1;
                true
            }
            "[" => {
                depth -= 1;
                depth >= 0
            }
            "." | "::" => true,
            _ if depth > 0 => true,
            _ => t.kind == TokenKind::Ident || t.kind == TokenKind::Int,
        };
        if !cont {
            break;
        }
        start -= 1;
    }
    let mut out = String::new();
    for t in &tokens[start..acquire_idx.saturating_sub(1)] {
        out.push_str(&t.text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn info(src: &str) -> ScopeInfo {
        ScopeInfo::analyze(&lex(src).tokens)
    }

    #[test]
    fn tree_tracks_nesting_and_kinds() {
        let src = "fn f() { if x { } par::scope(|s| { }); unsafe { } }";
        let i = info(src);
        // root + fn body + if + closure + unsafe
        assert_eq!(i.blocks.len(), 5);
        assert_eq!(i.blocks[0].kind, BlockKind::Root);
        assert_eq!(i.blocks[1].kind, BlockKind::Plain);
        let kinds: Vec<BlockKind> = i.blocks.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&BlockKind::Closure));
        assert!(kinds.contains(&BlockKind::Unsafe));
        // Every non-root block nests inside the fn body or deeper.
        for b in &i.blocks[2..] {
            assert!(b.start > i.blocks[1].start && b.end <= i.blocks[1].end);
        }
    }

    #[test]
    fn guard_binding_and_block_end_liveness() {
        let src = "fn f() { let g = m.lock(); use_it(&g); }";
        let i = info(src);
        assert_eq!(i.guards.len(), 1);
        let g = &i.guards[0];
        assert_eq!(g.name.as_deref(), Some("g"));
        assert_eq!(g.method, "lock");
        assert!(!g.explicit_drop);
        // Lives to the end of the fn body block.
        let body = i.enclosing_block(g.acquire_idx);
        assert_eq!(g.end_idx, i.blocks[body].end);
    }

    #[test]
    fn guard_ends_at_explicit_drop() {
        let src = "fn f() { let g = m.lock(); touch(); drop(g); later(); }";
        let i = info(src);
        assert_eq!(i.guards.len(), 1);
        assert!(i.guards[0].explicit_drop);
        // end_idx points at the `drop` token.
        let toks = lex(src).tokens;
        assert_eq!(toks[i.guards[0].end_idx].text, "drop");
    }

    #[test]
    fn inner_block_guard_dies_with_the_block() {
        let src = "fn f() { { let g = m.lock(); } after(); }";
        let i = info(src);
        assert_eq!(i.guards.len(), 1);
        let toks = lex(src).tokens;
        // end_idx is one past the inner `}` — before `after`.
        let after = toks.iter().position(|t| t.text == "after").unwrap();
        assert!(i.guards[0].end_idx <= after);
    }

    #[test]
    fn guard_preserving_chain_still_binds_a_guard() {
        let src = "fn f() { let g = m.lock().unwrap_or_else(PoisonError::into_inner); }";
        let i = info(src);
        assert_eq!(i.guards.len(), 1);
    }

    #[test]
    fn consuming_chain_is_a_temporary_not_a_guard() {
        for src in [
            "fn f() { let n = m.lock().len(); }",
            "fn f() { let v = m.read().get(0).copied(); }",
            "fn f() { let n = m.lock(); }", // plain guard — control
        ] {
            let i = info(src);
            let expect = usize::from(src.contains("let n = m.lock(); "));
            assert_eq!(i.guards.len(), expect, "{src}");
        }
    }

    #[test]
    fn block_valued_initializer_binds_the_inner_guard_not_the_outer_let() {
        // `snapshot` is a plain value; the guard is `g`, scoped to the
        // inner block — it must not inherit the outer binding's scope.
        let src = "fn f() { let snapshot = { let g = state.lock(); g.snap() }; after(); }";
        let i = info(src);
        assert_eq!(i.guards.len(), 1);
        assert_eq!(i.guards[0].name.as_deref(), Some("g"));
        let toks = lex(src).tokens;
        let after = toks.iter().position(|t| t.text == "after").unwrap();
        assert!(i.guards[0].end_idx <= after);
    }

    #[test]
    fn io_read_with_buffer_argument_is_not_a_guard() {
        // `io::Read::read(&mut buf)` has an argument, so the empty-parens
        // acquisition pattern must not match.
        let src = "fn f() { let n = stream.read(&mut buf); }";
        assert!(info(src).guards.is_empty());
    }

    #[test]
    fn spawn_and_io_sites_are_collected() {
        let src = "\
fn f() {
    par::scope(|s| { s.spawn(move || {}); });
    std::thread::spawn(|| {});
    par_map(items, |_| {});
    let text = fs::read_to_string(path);
    File::open(path);
    TcpStream::connect(addr);
}
";
        let i = info(src);
        let toks = lex(src).tokens;
        let spawn_names: Vec<&str> = i.spawns.iter().map(|&s| toks[s].text.as_str()).collect();
        assert_eq!(spawn_names, vec!["scope", "spawn", "spawn", "par_map"]);
        let io_names: Vec<&str> = i.io_calls.iter().map(|&s| toks[s].text.as_str()).collect();
        assert_eq!(io_names, vec!["read_to_string", "open", "TcpStream"]);
    }

    #[test]
    fn bare_scope_identifier_is_not_a_spawn() {
        // `scope` as a variable or a self-call without closure arg.
        let src = "fn f() { let scope = 3; helper(scope); scope_fn(); }";
        assert!(info(src).spawns.is_empty());
    }

    #[test]
    fn unsafe_sites_distinguish_blocks_from_items() {
        let src = "unsafe fn f() {} fn g() { unsafe { work(); } }";
        let i = info(src);
        assert_eq!(i.unsafes.len(), 2);
        assert!(!i.unsafes[0].is_block);
        assert!(i.unsafes[1].is_block);
    }

    #[test]
    fn receiver_text_renders_paths_and_indices() {
        let src = "fn f() { let g = self.shards[i].series.write(); }";
        let i = info(src);
        assert_eq!(i.guards.len(), 1);
        assert_eq!(i.guards[0].receiver, "self.shards[i].series");
    }
}
