//! The rule engine: each rule is a pure function from a lexed file (plus
//! the workspace config) to diagnostics. Rules see the token stream with
//! `#[cfg(test)]` regions masked out — the invariants protect shipping
//! code paths; tests may deliberately exercise the forbidden patterns.
//!
//! Shipped rules (ids as spelled in waivers and `lint.toml`):
//!
//! | id              | invariant                                                        |
//! |-----------------|------------------------------------------------------------------|
//! | `determinism`   | no wall clock / RNG / default-hasher maps on sim-path crates     |
//! | `float-ordering`| no `partial_cmp` — float orderings go through `total_cmp`        |
//! | `panic-freedom` | no `unwrap`/`expect`/`panic!` on worker-loop / pool-actuation files |
//! | `lock-order`    | nested `.lock()` acquisitions follow the declared order          |

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{Kind, Token};

/// One file as the rules see it: repo-relative path (forward slashes),
/// tokens, and the cfg(test) mask.
pub struct FileCtx<'a> {
    pub path: &'a str,
    pub tokens: &'a [Token],
    pub in_test: &'a [bool],
}

impl FileCtx<'_> {
    fn diag(&self, rule: &'static str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            path: self.path.to_string(),
            line,
            message,
        }
    }

    /// Indices of non-comment tokens outside `#[cfg(test)]` regions.
    fn code(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(|&i| self.tokens[i].kind != Kind::Comment && !self.in_test[i])
    }
}

/// Marks every token inside a `#[cfg(test)] mod ... { }` block or a
/// `#[test] fn ... { }` item. Attribute chains between the marker and
/// the item are skipped.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    // Non-comment token indices drive the pattern match; comments keep
    // the mask of their surroundings (irrelevant — rules skip them).
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != Kind::Comment)
        .collect();
    let at = |ci: usize| code.get(ci).map(|&i| &tokens[i]);
    let mut ci = 0usize;
    while ci < code.len() {
        let is_cfg_test = at(ci).is_some_and(|t| t.is_punct('#'))
            && at(ci + 1).is_some_and(|t| t.is_punct('['))
            && ((at(ci + 2).is_some_and(|t| t.is_ident("cfg"))
                && at(ci + 3).is_some_and(|t| t.is_punct('('))
                && at(ci + 4).is_some_and(|t| t.is_ident("test"))
                && at(ci + 5).is_some_and(|t| t.is_punct(')'))
                && at(ci + 6).is_some_and(|t| t.is_punct(']')))
                || (at(ci + 2).is_some_and(|t| t.is_ident("test"))
                    && at(ci + 3).is_some_and(|t| t.is_punct(']'))));
        if !is_cfg_test {
            ci += 1;
            continue;
        }
        let start = code[ci];
        // Jump past this attribute, any further attributes, and the
        // item header, to the item's opening brace.
        let mut cj = ci;
        loop {
            // Skip one `#[ ... ]` attribute (balanced brackets).
            if at(cj).is_some_and(|t| t.is_punct('#'))
                && at(cj + 1).is_some_and(|t| t.is_punct('['))
            {
                let mut depth = 0i32;
                cj += 1;
                while let Some(t) = at(cj) {
                    if t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            cj += 1;
                            break;
                        }
                    }
                    cj += 1;
                }
            } else {
                break;
            }
        }
        // Find the opening brace of the item (mod/fn); `;`-terminated
        // items (e.g. `#[cfg(test)] mod tests;`) end at the semicolon.
        let mut body_open = None;
        while let Some(t) = at(cj) {
            if t.is_punct('{') {
                body_open = Some(cj);
                break;
            }
            if t.is_punct(';') {
                break;
            }
            cj += 1;
        }
        if let Some(open) = body_open {
            let mut depth = 0i32;
            let mut ck = open;
            while let Some(t) = at(ck) {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ck += 1;
            }
            let end = code.get(ck).copied().unwrap_or(tokens.len() - 1);
            for m in &mut mask[start..=end] {
                *m = true;
            }
            ci = ck.min(code.len());
        }
        ci += 1;
    }
    mask
}

/// Runs every configured rule over one file.
pub fn run_all(ctx: &FileCtx<'_>, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(determinism(ctx, cfg));
    out.extend(float_ordering(ctx, cfg));
    out.extend(panic_freedom(ctx, cfg));
    out.extend(lock_order(ctx, cfg));
    out
}

fn covered(path: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| path == p || path.starts_with(&format!("{p}/")))
}

fn allowed(path: &str, files: &[String]) -> bool {
    files.iter().any(|f| f == path)
}

/// `determinism` — wall-clock reads, ambient RNG, and default-hasher
/// maps are forbidden on the crates whose outputs are byte-identity
/// gated: iteration order and timing must be functions of the seed, not
/// of the host. Whole-file exemptions (the threads backend, the wall
/// timer) live in `lint.toml`; point exemptions use waivers.
pub fn determinism(ctx: &FileCtx<'_>, cfg: &Config) -> Vec<Diagnostic> {
    if !covered(ctx.path, cfg.list("determinism", "paths"))
        || allowed(ctx.path, cfg.list("determinism", "allow"))
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    let code: Vec<usize> = ctx.code().collect();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if t.kind != Kind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" => out.push(ctx.diag(
                "determinism",
                t.line,
                format!(
                    "`{}` on a sim-path crate: wall-clock nondeterminism breaks the \
                     results/ byte-identity gate (allowlist the module in lint.toml if \
                     it is genuinely wall-clock territory)",
                    t.text
                ),
            )),
            "thread_rng" | "random" if t.text == "thread_rng" => out.push(
                ctx.diag(
                    "determinism",
                    t.line,
                    "ambient RNG on a sim-path crate: draw from the run's seeded rng instead"
                        .to_string(),
                ),
            ),
            "HashMap" | "HashSet" => {
                // Only the std default-hasher forms: a fully qualified
                // `std::collections::X` use or an import of it. Typed
                // aliases over FxHasher (emca_metrics::FxHashMap) pass.
                let from_std = k >= 4
                    && ctx.tokens[code[k - 1]].is_punct(':')
                    && ctx.tokens[code[k - 2]].is_punct(':')
                    && (ctx.tokens[code[k - 3]].is_ident("collections")
                        || ctx.tokens[code[k - 3]].is_punct('{'))
                    || in_std_collections_group(ctx, &code, k);
                if from_std {
                    out.push(ctx.diag(
                        "determinism",
                        t.line,
                        format!(
                            "std `{}` (default hasher) on a sim-path crate: iteration \
                             order is randomized per process — use emca_metrics::Fx{} \
                             instead",
                            t.text, t.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// True when token `k` (a HashMap/HashSet ident) sits inside a
/// `use std::collections::{...}` group.
fn in_std_collections_group(ctx: &FileCtx<'_>, code: &[usize], k: usize) -> bool {
    // Walk backwards to the start of the statement (a `;` or `use`),
    // and check it reads `use std :: collections ::`.
    let mut j = k;
    while j > 0 {
        let t = &ctx.tokens[code[j]];
        if t.is_punct(';') {
            return false;
        }
        if t.is_ident("use") {
            return j + 5 < code.len()
                && ctx.tokens[code[j + 1]].is_ident("std")
                && ctx.tokens[code[j + 2]].is_punct(':')
                && ctx.tokens[code[j + 3]].is_punct(':')
                && ctx.tokens[code[j + 4]].is_ident("collections");
        }
        j -= 1;
    }
    false
}

/// `float-ordering` — `partial_cmp` is forbidden everywhere: on NaN it
/// returns `None`, and every `unwrap`/fallback around it either panics
/// or silently reorders. The workspace policy (PR 6) is `total_cmp`.
pub fn float_ordering(ctx: &FileCtx<'_>, cfg: &Config) -> Vec<Diagnostic> {
    if allowed(ctx.path, cfg.list("float_ordering", "allow")) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in ctx.code() {
        let t = &ctx.tokens[i];
        if t.is_ident("partial_cmp") {
            out.push(
                ctx.diag(
                    "float-ordering",
                    t.line,
                    "`partial_cmp` on floats: NaN gives None and the fallback reorders or \
                 panics — use `total_cmp` (workspace policy since the NaN percentile fix)"
                        .to_string(),
                ),
            );
        }
    }
    out
}

/// `panic-freedom` — on the worker-loop and pool-actuation files a
/// panic does not kill a process, it poisons the pool mutex and wedges
/// every parked peer. `unwrap`/`expect`/`panic!`-family tokens are
/// forbidden there; `assert!` stays legal (tripwires on the driver
/// thread are the documented failure mode).
pub fn panic_freedom(ctx: &FileCtx<'_>, cfg: &Config) -> Vec<Diagnostic> {
    if !allowed(ctx.path, cfg.list("panic_freedom", "files")) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let code: Vec<usize> = ctx.code().collect();
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if t.kind != Kind::Ident {
            continue;
        }
        let next_is_bang = code
            .get(k + 1)
            .is_some_and(|&j| ctx.tokens[j].is_punct('!'));
        let prev_is_dot = k > 0 && ctx.tokens[code[k - 1]].is_punct('.');
        match t.text.as_str() {
            "unwrap" | "expect" if prev_is_dot => out.push(ctx.diag(
                "panic-freedom",
                t.line,
                format!(
                    "`.{}()` on a worker/pool path: a panic here poisons the pool mutex \
                     and wedges parked workers — return a typed error or recover \
                     (`unwrap_or_else(PoisonError::into_inner)` for locks)",
                    t.text
                ),
            )),
            "panic" | "unreachable" | "todo" | "unimplemented" if next_is_bang => {
                out.push(ctx.diag(
                    "panic-freedom",
                    t.line,
                    format!(
                        "`{}!` on a worker/pool path: workers must mark themselves dead \
                         and degrade, not unwind through the pool mutex",
                        t.text
                    ),
                ))
            }
            _ => {}
        }
    }
    out
}

/// `lock-order` — the declared table in `lint.toml` ranks every mutex
/// by its receiver name; inside one function, acquiring a lower-ranked
/// lock after a higher-ranked one is flagged (the token-level
/// approximation of nested-acquisition cycles: function-local
/// first-acquisition order). A `.lock()` on a receiver the table does
/// not know is flagged too — the table must stay complete to mean
/// anything.
pub fn lock_order(ctx: &FileCtx<'_>, cfg: &Config) -> Vec<Diagnostic> {
    let order = cfg.list("lock_order", "order");
    if order.is_empty() {
        return Vec::new();
    }
    let rank = |name: &str| order.iter().position(|o| o == name);
    let mut out = Vec::new();
    let code: Vec<usize> = ctx.code().collect();
    // Function boundaries: a `fn name` at any depth opens a scope at its
    // body brace; scopes nest (closures are part of the enclosing fn).
    let mut depth = 0i32;
    let mut fn_stack: Vec<(i32, Vec<(usize, u32)>)> = Vec::new(); // (entry depth, acquisitions)
    let mut pending_fn = false;
    for (k, &i) in code.iter().enumerate() {
        let t = &ctx.tokens[i];
        if t.is_ident("fn") {
            pending_fn = true;
        } else if t.is_punct('{') {
            depth += 1;
            if pending_fn {
                fn_stack.push((depth, Vec::new()));
                pending_fn = false;
            }
        } else if t.is_punct('}') {
            if fn_stack.last().is_some_and(|(d, _)| *d == depth) {
                fn_stack.pop();
            }
            depth -= 1;
        } else if t.is_punct(';') && pending_fn {
            pending_fn = false; // trait method declaration without body
        } else if t.is_ident("lock")
            && k >= 2
            && ctx.tokens[code[k - 1]].is_punct('.')
            && code
                .get(k + 1)
                .is_some_and(|&j| ctx.tokens[j].is_punct('('))
        {
            let recv = &ctx.tokens[code[k - 2]];
            if recv.kind != Kind::Ident {
                continue;
            }
            let Some((_, acqs)) = fn_stack.last_mut() else {
                continue;
            };
            match rank(&recv.text) {
                None => out.push(ctx.diag(
                    "lock-order",
                    t.line,
                    format!(
                        "`.lock()` on `{}`, which the [lock_order] table in lint.toml \
                         does not rank — add it so nesting stays checkable",
                        recv.text
                    ),
                )),
                Some(r) => {
                    if let Some(&(held, held_line)) = acqs.iter().find(|&&(h, _)| h > r) {
                        out.push(ctx.diag(
                            "lock-order",
                            t.line,
                            format!(
                                "`{}` (rank {r}) acquired after `{}` (rank {held}, line \
                                 {held_line}) in the same function — violates the \
                                 declared lock order {:?}",
                                recv.text, order[held], order
                            ),
                        ));
                    }
                    acqs.push((r, t.line));
                }
            }
        }
    }
    out
}
