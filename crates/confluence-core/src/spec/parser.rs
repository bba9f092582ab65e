//! Parser for the workflow specification language.
//!
//! Hand-rolled lexer + recursive descent; errors carry line numbers.

use crate::error::{Error, Result};
use crate::graph::{ActorId, Workflow, WorkflowBuilder};
use crate::time::Micros;
use crate::token::Token as DataToken;
use crate::window::{GroupBy, WindowSpec};

use super::registry::{ActorRegistry, Params};

/// Parse a workflow spec, instantiating actors through the registry.
pub fn parse(source: &str, registry: &ActorRegistry) -> Result<Workflow> {
    Parser::new(source, registry)?.parse_workflow()
}

/// One token; identifiers and strings borrow from the spec text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    Str(&'s str),
    Int(i64),
    Float(f64),
    Arrow,
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Dot,
    Eq,
}

impl std::fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Eq => write!(f, "`=`"),
        }
    }
}

type Chars<'s> = std::iter::Peekable<std::str::CharIndices<'s>>;

fn lex(source: &str) -> Result<Vec<(Tok<'_>, u32)>> {
    let mut out = Vec::new();
    let mut chars = source.char_indices().peekable();
    let mut line: u32 = 1;
    let syntax =
        |line: u32, msg: &str| Error::Graph(format!("spec syntax error at line {line}: {msg}"));
    while let Some(&(start, c)) = chars.peek() {
        let punct = match c {
            '{' => Some(Tok::LBrace),
            '}' => Some(Tok::RBrace),
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            '[' => Some(Tok::LBracket),
            ']' => Some(Tok::RBracket),
            ',' => Some(Tok::Comma),
            ':' => Some(Tok::Colon),
            '.' => Some(Tok::Dot),
            '=' => Some(Tok::Eq),
            _ => None,
        };
        if let Some(tok) = punct {
            out.push((tok, line));
            chars.next();
            continue;
        }
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for (_, c) in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '-' => {
                chars.next();
                match chars.peek() {
                    Some((_, '>')) => {
                        chars.next();
                        out.push((Tok::Arrow, line));
                    }
                    Some((_, c)) if c.is_ascii_digit() => {
                        out.push((lex_number(&mut chars, true, line)?, line))
                    }
                    _ => return Err(syntax(line, "stray `-`")),
                }
            }
            '"' => {
                chars.next();
                let end = loop {
                    match chars.next() {
                        Some((end, '"')) => break end,
                        Some((_, '\n')) | None => return Err(syntax(line, "unterminated string")),
                        Some(_) => {}
                    }
                };
                out.push((Tok::Str(&source[start + 1..end]), line));
            }
            c if c.is_ascii_digit() => out.push((lex_number(&mut chars, false, line)?, line)),
            c if c.is_alphabetic() || c == '_' => {
                let mut end = source.len();
                while let Some(&(at, c)) = chars.peek() {
                    if !(c.is_alphanumeric() || c == '_' || c == '-') {
                        end = at;
                        break;
                    }
                    chars.next();
                }
                out.push((Tok::Ident(&source[start..end]), line));
            }
            other => return Err(syntax(line, &format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

fn lex_number<'s>(chars: &mut Chars<'_>, negative: bool, line: u32) -> Result<Tok<'s>> {
    let mut s = String::new();
    if negative {
        s.push('-');
    }
    let mut is_float = false;
    while let Some(&(_, c)) = chars.peek() {
        if c.is_ascii_digit() || c == '_' {
            if c != '_' {
                s.push(c);
            }
            chars.next();
        } else if c == '.' {
            // Lookahead: `1.5` is a float, `a.b` port syntax never starts
            // with a digit, so a dot after digits is always a fraction.
            is_float = true;
            s.push(c);
            chars.next();
        } else {
            break;
        }
    }
    let bad = || Error::Graph(format!("spec syntax error at line {line}: bad number `{s}`"));
    if is_float {
        s.parse::<f64>().map(Tok::Float).map_err(|_| bad())
    } else {
        s.parse::<i64>().map(Tok::Int).map_err(|_| bad())
    }
}

struct Parser<'s, 'r> {
    tokens: Vec<(Tok<'s>, u32)>,
    pos: usize,
    registry: &'r ActorRegistry,
}

impl<'s, 'r> Parser<'s, 'r> {
    fn new(source: &'s str, registry: &'r ActorRegistry) -> Result<Self> {
        Ok(Parser {
            tokens: lex(source)?,
            pos: 0,
            registry,
        })
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|(_, l)| *l)
            .unwrap_or(1)
    }

    /// An error at the line of the next unread token.
    fn err(&self, msg: impl std::fmt::Display) -> Error {
        self.err_at(self.line(), msg)
    }

    /// An error at `line`: a statement's checks that run after its last
    /// token was read report the line the statement started on.
    fn err_at(&self, line: u32, msg: impl std::fmt::Display) -> Error {
        Error::Graph(format!("spec error at line {line}: {msg}"))
    }

    fn peek(&self) -> Option<Tok<'s>> {
        self.tokens.get(self.pos).map(|&(t, _)| t)
    }

    fn next(&mut self) -> Result<Tok<'s>> {
        let t = self.peek().ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<()> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(format!("expected {want}, found {got}")))
        }
    }

    fn ident(&mut self) -> Result<&'s str> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected an identifier, found {other}")))
            }
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.next()? {
            Tok::Ident(s) if s == kw => Ok(()),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected `{kw}`, found {other}")))
            }
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if self.peek() == Some(Tok::Ident(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume a `,` if one is next.
    fn eat_comma(&mut self) -> bool {
        if self.peek() == Some(Tok::Comma) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_workflow(&mut self) -> Result<Workflow> {
        self.keyword("workflow")?;
        let name = match self.next()? {
            Tok::Ident(s) | Tok::Str(s) => s,
            other => {
                self.pos -= 1;
                return Err(self.err(format!("expected workflow name, found {other}")));
            }
        };
        let mut b = WorkflowBuilder::new(name);
        let mut actors: Vec<(&'s str, ActorId)> = Vec::new();
        self.expect(Tok::LBrace)?;
        loop {
            if self.peek() == Some(Tok::RBrace) {
                self.pos += 1;
                break;
            }
            let line = self.line();
            match self.ident()? {
                "actor" => self.parse_actor(&mut b, &mut actors)?,
                "connect" => self.parse_connect(&mut b, &actors)?,
                "priority" => {
                    let who = self.ident()?;
                    self.expect(Tok::Eq)?;
                    let p = self.int()?;
                    let id = lookup(&actors, who).map_err(|e| self.err_at(line, e))?;
                    let p = i32::try_from(p)
                        .map_err(|_| self.err_at(line, format!("priority {p} is out of range")))?;
                    b.set_priority(id, p);
                }
                "expired" => {
                    let (from, from_port) = self.port()?;
                    self.expect(Tok::Arrow)?;
                    let (to, to_port) = self.port()?;
                    let from_id = lookup(&actors, from).map_err(|e| self.err_at(line, e))?;
                    let to_id = lookup(&actors, to).map_err(|e| self.err_at(line, e))?;
                    b.expired_handler(from_id.port(from_port), to_id.port(to_port))
                        .map_err(|e| self.err_at(line, e))?;
                }
                other => {
                    self.pos -= 1;
                    return Err(self.err(format!(
                        "expected `actor`, `connect`, `priority` or `expired`, found `{other}`"
                    )));
                }
            }
        }
        if self.pos != self.tokens.len() {
            return Err(self.err(format!(
                "unexpected content after the workflow block: {}",
                self.tokens[self.pos].0
            )));
        }
        b.build()
    }

    fn parse_actor(
        &mut self,
        b: &mut WorkflowBuilder,
        actors: &mut Vec<(&'s str, ActorId)>,
    ) -> Result<()> {
        let line = self.line();
        let name = self.ident()?;
        self.expect(Tok::Eq)?;
        let type_name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params: Vec<(String, DataToken)> = Vec::new();
        if self.peek() != Some(Tok::RParen) {
            loop {
                let key = self.ident()?.to_string();
                self.expect(Tok::Colon)?;
                params.push((key, self.value()?));
                if !self.eat_comma() {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        if actors.iter().any(|(n, _)| *n == name) {
            return Err(self.err_at(line, format!("duplicate actor `{name}`")));
        }
        let actor = self
            .registry
            .construct(type_name, &Params::new(params))
            .map_err(|e| self.err_at(line, e))?;
        actors.push((name, b.add_boxed_actor(name, actor)));
        Ok(())
    }

    fn parse_connect(
        &mut self,
        b: &mut WorkflowBuilder,
        actors: &[(&'s str, ActorId)],
    ) -> Result<()> {
        let line = self.line();
        let (from, from_port) = self.port()?;
        self.expect(Tok::Arrow)?;
        let (to, to_port) = self.port()?;
        let from_id = lookup(actors, from).map_err(|e| self.err_at(line, e))?;
        let to_id = lookup(actors, to).map_err(|e| self.err_at(line, e))?;
        let (from, to) = (from_id.port(from_port), to_id.port(to_port));
        let linked = if self.eat_ident("window") {
            let spec = self.window_spec()?;
            b.link_windowed(from, to, spec)
        } else {
            b.link(from, to)
        };
        linked.map_err(|e| self.err_at(line, e))
    }

    fn window_spec(&mut self) -> Result<WindowSpec> {
        let kind = self.ident()?;
        let mut spec = match kind {
            "tuples" => {
                self.expect(Tok::LParen)?;
                let size = self.count()?;
                self.expect(Tok::Comma)?;
                let step = self.count()?;
                self.expect(Tok::RParen)?;
                WindowSpec::tuples(size, step)
            }
            "time" => {
                self.expect(Tok::LParen)?;
                let size = self.duration()?;
                self.expect(Tok::Comma)?;
                let step = self.duration()?;
                self.expect(Tok::RParen)?;
                WindowSpec::time(size, step)
            }
            "wave" => WindowSpec::wave(),
            "each" => WindowSpec::each_event(),
            other => {
                self.pos -= 1;
                return Err(self.err(format!(
                    "expected `tuples`, `time`, `wave` or `each`, found `{other}`"
                )));
            }
        };
        loop {
            if self.eat_ident("group_by") {
                spec = spec.group_by(GroupBy::fields(&self.fields()?));
            } else if self.eat_ident("delete_used") {
                spec = spec.delete_used(true);
            } else if self.eat_ident("timeout") {
                self.expect(Tok::LParen)?;
                let d = self.duration()?;
                self.expect(Tok::RParen)?;
                spec = spec.with_timeout(d);
            } else {
                break;
            }
        }
        Ok(spec)
    }

    /// A parenthesised field list: `(carid, xway)`.
    fn fields(&mut self) -> Result<Vec<&'s str>> {
        self.expect(Tok::LParen)?;
        let mut fields = vec![self.ident()?];
        while self.eat_comma() {
            fields.push(self.ident()?);
        }
        self.expect(Tok::RParen)?;
        Ok(fields)
    }

    fn port(&mut self) -> Result<(&'s str, &'s str)> {
        let actor = self.ident()?;
        self.expect(Tok::Dot)?;
        let port = self.ident()?;
        Ok((actor, port))
    }

    fn int(&mut self) -> Result<i64> {
        match self.next()? {
            Tok::Int(v) => Ok(v),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected an integer, found {other}")))
            }
        }
    }

    /// A non-negative integer: a size or a step.
    fn count(&mut self) -> Result<usize> {
        let v = self.int()?;
        usize::try_from(v).map_err(|_| {
            self.pos -= 1;
            self.err(format!("expected a non-negative integer, found {v}"))
        })
    }

    /// A duration: `5s`, `250ms`, `10us` (the unit lexes as a trailing
    /// identifier).
    fn duration(&mut self) -> Result<Micros> {
        let n = self.count()? as u64;
        let unit = self.ident()?;
        let scale = match unit {
            "s" => 1_000_000,
            "ms" => 1_000,
            "us" => 1,
            other => {
                self.pos -= 1;
                return Err(self.err(format!(
                    "expected a duration unit (s/ms/us), found `{other}`"
                )));
            }
        };
        n.checked_mul(scale).map(Micros).ok_or_else(|| {
            self.pos -= 2;
            self.err(format!("duration {n}{unit} is out of range"))
        })
    }

    fn value(&mut self) -> Result<DataToken> {
        match self.next()? {
            Tok::Int(v) => Ok(DataToken::Int(v)),
            Tok::Float(v) => Ok(DataToken::Float(v)),
            Tok::Ident("true") => Ok(DataToken::Bool(true)),
            Tok::Ident("false") => Ok(DataToken::Bool(false)),
            // Bare identifiers are strings (field names read naturally).
            Tok::Str(s) | Tok::Ident(s) => Ok(DataToken::str(s)),
            Tok::LBracket => {
                let mut items = Vec::new();
                if self.peek() != Some(Tok::RBracket) {
                    loop {
                        items.push(self.value()?);
                        if !self.eat_comma() {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBracket)?;
                Ok(DataToken::array(items))
            }
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected a value, found {other}")))
            }
        }
    }
}

fn lookup(actors: &[(&str, ActorId)], name: &str) -> std::result::Result<ActorId, String> {
    actors
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, id)| *id)
        .ok_or_else(|| format!("unknown actor `{name}` (declare it with `actor` first)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::{Collector, VecSource};

    #[test]
    fn lexer_basics() {
        let toks = lex("workflow w { a.b -> c.d } # comment\n[1, 2.5, \"x\"] 5s").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|(t, _)| t).collect();
        assert_eq!(*kinds[0], Tok::Ident("workflow"));
        assert!(kinds.contains(&&Tok::Arrow));
        assert!(kinds.contains(&&Tok::Float(2.5)));
        assert!(kinds.contains(&&Tok::Str("x")));
        // 5s lexes as Int(5), Ident("s").
        let pos5 = kinds.iter().position(|t| **t == Tok::Int(5)).unwrap();
        assert_eq!(*kinds[pos5 + 1], Tok::Ident("s"));
    }

    #[test]
    fn lexer_line_numbers_and_errors() {
        let err = lex("ok\n  @").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = lex("\"unterminated").unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
        let err = lex("a - b").unwrap_err();
        assert!(err.to_string().contains("stray"), "{err}");
    }

    #[test]
    fn negative_numbers() {
        let toks = lex("x: -5").unwrap();
        assert!(toks.iter().any(|(t, _)| *t == Tok::Int(-5)));
    }

    fn registry() -> ActorRegistry {
        let mut reg = ActorRegistry::with_standard_actors();
        reg.register("numbers", |_| Ok(Box::new(VecSource::new(Vec::new()))));
        reg.register("collect", |_| Ok(Box::new(Collector::new().actor())));
        reg
    }

    /// The error of a spec whose fourth line is `stmt`, after a source
    /// `src` and a sink `sink`; it must name that line.
    fn error_at_line_4(stmt: &str) -> String {
        let spec = format!(
            "workflow w {{\n    actor src = numbers()\n    actor sink = collect()\n    {stmt}\n}}"
        );
        let err = parse(&spec, &registry()).unwrap_err();
        assert!(matches!(err, Error::Graph(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        msg
    }

    #[test]
    fn an_overflowing_duration_is_an_error() {
        let msg = error_at_line_4("connect src.out -> sink.in window time(20000000000000s, 1s)");
        assert!(msg.contains("20000000000000s is out of range"), "{msg}");
    }

    #[test]
    fn a_negative_union_input_count_is_an_error() {
        let msg = error_at_line_4("actor u = union(inputs: -1)");
        assert!(msg.contains("`inputs` must be non-negative"), "{msg}");
    }

    #[test]
    fn negative_throttle_parameters_are_errors() {
        let msg = error_at_line_4("actor t = throttle(max: -1, per_ms: 5)");
        assert!(msg.contains("`max` must be non-negative"), "{msg}");
        let msg = error_at_line_4("actor t = throttle(max: 1, per_ms: -5)");
        assert!(msg.contains("`per_ms` must be non-negative"), "{msg}");
        let msg = error_at_line_4("actor t = throttle(max: 1, per_ms: 20000000000000000)");
        assert!(msg.contains("`per_ms` is out of range"), "{msg}");
    }

    #[test]
    fn a_negative_tuple_window_is_an_error() {
        let msg = error_at_line_4("connect src.out -> sink.in window tuples(-1, 1)");
        assert!(msg.contains("non-negative integer, found -1"), "{msg}");
    }

    #[test]
    fn a_negative_dedup_capacity_is_an_error() {
        let msg = error_at_line_4("actor d = dedup(keys: [k], capacity: -1)");
        assert!(msg.contains("`capacity` must be non-negative"), "{msg}");
    }

    #[test]
    fn an_out_of_range_priority_is_an_error() {
        let msg = error_at_line_4("priority sink = 4294967296");
        assert!(msg.contains("out of range"), "{msg}");
    }

    #[test]
    fn an_unknown_statement_names_its_line_and_the_statements() {
        let msg = error_at_line_4("nope src.out");
        assert!(
            msg.contains("expected `actor`, `connect`, `priority` or `expired`, found `nope`"),
            "{msg}"
        );
        let msg = error_at_line_4("shard sink by (k) replicas 2");
        assert!(
            msg.contains("expected `actor`, `connect`, `priority` or `expired`, found `shard`"),
            "{msg}"
        );
    }
}
